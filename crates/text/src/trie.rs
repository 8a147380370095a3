//! Prefix trie over `char`s — the dictionary index used by the segmenter.
//!
//! The segmenter builds a word DAG by asking, for each start position in a
//! sentence, which dictionary words begin there. That query is exactly a
//! walk down this trie, so lookups are O(word length) with no hashing of
//! whole substrings.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashMap;

/// A node in the trie. Children are keyed by the next character.
#[derive(Debug, Clone)]
struct Node<V> {
    children: HashMap<char, Node<V>>,
    value: Option<V>,
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node {
            children: HashMap::new(),
            value: None,
        }
    }
}

/// Prefix trie mapping `&str` keys (as char sequences) to values.
#[derive(Debug, Clone)]
pub struct Trie<V> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for Trie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Trie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Trie {
            root: Node {
                children: HashMap::new(),
                value: None,
            },
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key`, returning the previous value if the key was present.
    pub fn insert(&mut self, key: &str, value: V) -> Option<V> {
        let mut node = &mut self.root;
        for c in key.chars() {
            node = node.children.entry(c).or_default();
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &str) -> Option<&V> {
        let mut node = &self.root;
        for c in key.chars() {
            node = node.children.get(&c)?;
        }
        node.value.as_ref()
    }

    /// Returns `true` when `key` is stored.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Walks the trie along `chars[start..]` and reports every prefix that
    /// is a stored key, as `(end_char_index_exclusive, &value)`.
    ///
    /// This is the segmenter's DAG-edge query: all dictionary words starting
    /// at `start`.
    pub fn prefix_matches<'a>(&'a self, chars: &[char], start: usize) -> Vec<(usize, &'a V)> {
        let mut out = Vec::new();
        let mut node = &self.root;
        for (offset, &c) in chars.get(start..).unwrap_or_default().iter().enumerate() {
            match node.children.get(&c) {
                Some(next) => {
                    node = next;
                    if let Some(v) = node.value.as_ref() {
                        out.push((start + offset + 1, v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Longest stored key that is a prefix of `chars[start..]`, as
    /// `(end_char_index_exclusive, &value)`.
    pub fn longest_match<'a>(&'a self, chars: &[char], start: usize) -> Option<(usize, &'a V)> {
        self.prefix_matches(chars, start).into_iter().last()
    }

    /// Iterates over all `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (String, &V)> {
        let mut stack: Vec<(String, &Node<V>)> = vec![(String::new(), &self.root)];
        std::iter::from_fn(move || {
            while let Some((prefix, node)) = stack.pop() {
                for (c, child) in node.children.iter() {
                    let mut key = prefix.clone();
                    key.push(*c);
                    stack.push((key, child));
                }
                if let Some(v) = node.value.as_ref() {
                    return Some((prefix, v));
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_and_get() {
        let mut t = Trie::new();
        assert_eq!(t.insert("蚂蚁", 1u32), None);
        assert_eq!(t.insert("蚂蚁", 2), Some(1));
        assert_eq!(t.get("蚂蚁"), Some(&2));
        assert_eq!(t.get("蚂"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prefix_matches_reports_all_word_ends() {
        let mut t = Trie::new();
        t.insert("中", 1u32);
        t.insert("中国", 2);
        t.insert("中国人", 3);
        t.insert("国人", 4);
        let chars: Vec<char> = "中国人民".chars().collect();
        let ends: Vec<usize> = t
            .prefix_matches(&chars, 0)
            .iter()
            .map(|(e, _)| *e)
            .collect();
        assert_eq!(ends, vec![1, 2, 3]);
        let ends1: Vec<usize> = t
            .prefix_matches(&chars, 1)
            .iter()
            .map(|(e, _)| *e)
            .collect();
        assert_eq!(ends1, vec![3]); // 国人
    }

    #[test]
    fn longest_match_prefers_longest() {
        let mut t = Trie::new();
        t.insert("战略", 1u32);
        t.insert("战略官", 2);
        let chars: Vec<char> = "战略官员".chars().collect();
        assert_eq!(t.longest_match(&chars, 0), Some((3, &2)));
    }

    #[test]
    fn empty_key_is_storable() {
        let mut t = Trie::new();
        t.insert("", 7u32);
        assert_eq!(t.get(""), Some(&7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_yields_all_pairs() {
        let mut t = Trie::new();
        for (i, w) in ["演员", "歌手", "演唱会"].iter().enumerate() {
            t.insert(w, i);
        }
        let collected: HashMap<String, usize> = t.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected["演员"], 0);
        assert_eq!(collected["演唱会"], 2);
    }

    proptest! {
        /// The trie must agree with a HashMap on arbitrary insert sequences.
        #[test]
        fn trie_matches_hashmap(entries in proptest::collection::vec(("[一-龥a-z]{0,6}", 0u32..1000), 0..60)) {
            let mut trie = Trie::new();
            let mut map = HashMap::new();
            for (k, v) in &entries {
                trie.insert(k, *v);
                map.insert(k.clone(), *v);
            }
            prop_assert_eq!(trie.len(), map.len());
            for (k, v) in &map {
                prop_assert_eq!(trie.get(k), Some(v));
            }
        }

        /// Every prefix match must be a genuine stored key of that length.
        #[test]
        fn prefix_matches_are_real_keys(words in proptest::collection::vec("[一-龥]{1,4}", 1..20), query in "[一-龥]{1,8}") {
            let mut trie = Trie::new();
            for w in &words {
                trie.insert(w, ());
            }
            let chars: Vec<char> = query.chars().collect();
            for start in 0..chars.len() {
                for (end, _) in trie.prefix_matches(&chars, start) {
                    let key: String = chars[start..end].iter().collect();
                    prop_assert!(trie.contains(&key));
                }
            }
        }
    }
}
