//! Prefix trie over `char`s — the dictionary index used by the segmenter.
//!
//! The segmenter builds a word DAG by asking, for each start position in a
//! sentence, which dictionary words begin there. That query is exactly a
//! walk down this trie, so lookups are O(word length) with no hashing of
//! whole substrings.
//!
//! Every node lives in one arena `Vec` and is addressed by a `u32`. A node
//! holds its value inline and its children as `(char, node)` pairs sorted
//! by `char`, found by binary search, so a walk allocates nothing and
//! touches one small list per character. A node costs its 24-byte child
//! list header plus its value, and each child 8 bytes in its parent's list.
//!
//! The largest trie is the one each serving generation's `TagIndex`
//! seeds with the snapshot's names. Over the 20k-page benchmark snapshot
//! (12 493 seeded names, 12 710 dictionary words, 19 835 nodes) the whole
//! index holds 1.01 MB of live heap, 81 B a seeded word, and builds in
//! 5–7 ms inside the server on a 2-vCPU Xeon. A `HashMap` per node held
//! 3.78 MB (303 B a word) and took 9–14 ms.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// A node of the arena: its value, and its children sorted by `char`.
#[derive(Debug, Clone)]
struct Node<V> {
    children: Vec<(char, u32)>,
    value: Option<V>,
}

impl<V> Node<V> {
    const EMPTY: Node<V> = Node {
        children: Vec::new(),
        value: None,
    };

    /// The arena index of the child reached by `c`.
    fn child(&self, c: char) -> Option<usize> {
        let i = self.children.binary_search_by_key(&c, |&(k, _)| k).ok()?;
        self.children.get(i).map(|&(_, id)| id as usize)
    }
}

/// Prefix trie mapping `&str` keys (as char sequences) to values.
#[derive(Debug, Clone)]
pub(crate) struct Trie<V> {
    /// The arena; `nodes[0]` is the root, and ids never move.
    nodes: Vec<Node<V>>,
    len: usize,
}

impl<V> Trie<V> {
    /// Creates an empty trie.
    pub(crate) fn new() -> Self {
        Trie {
            nodes: vec![Node::EMPTY],
            len: 0,
        }
    }

    /// Number of keys stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Stores `value` under `key`, or, when `key` is already stored,
    /// hands both to `merge` to update the stored value in place.
    #[expect(
        clippy::indexing_slicing,
        reason = "node is 0 (the root) or an id the arena handed out, and no node is ever removed"
    )]
    pub(crate) fn upsert(&mut self, key: &str, value: V, merge: impl FnOnce(&mut V, V)) {
        let mut node = 0;
        for c in key.chars() {
            node = self.child_or_insert(node, c);
        }
        match &mut self.nodes[node].value {
            Some(old) => merge(old, value),
            slot @ None => {
                *slot = Some(value);
                self.len += 1;
            }
        }
    }

    /// The child of `node` reached by `c`, appended to the arena if absent.
    #[expect(
        clippy::indexing_slicing,
        reason = "node is 0 (the root) or an id the arena handed out, and no node is ever removed"
    )]
    #[expect(
        clippy::expect_used,
        reason = "4 G nodes would be over 100 GB of arena, far past any dictionary"
    )]
    fn child_or_insert(&mut self, node: usize, c: char) -> usize {
        let id = self.nodes.len();
        let children = &mut self.nodes[node].children;
        match children.binary_search_by_key(&c, |&(k, _)| k) {
            Ok(i) => children[i].1 as usize,
            Err(i) => {
                // Most nodes never get a second child: size a first list
                // for one, not for the four a growing `Vec` starts with.
                if children.is_empty() {
                    children.reserve_exact(1);
                }
                let id32 = u32::try_from(id).expect("trie arena exceeds u32 ids");
                children.insert(i, (c, id32));
                self.nodes.push(Node::EMPTY);
                id
            }
        }
    }

    /// Gives the arena's spare capacity back to the allocator.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// Exact-match lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&V> {
        let mut node = self.nodes.first()?;
        for c in key.chars() {
            node = self.nodes.get(node.child(c)?)?;
        }
        node.value.as_ref()
    }

    /// Walks the trie along `chars[start..]` and calls `visit(end, value)`
    /// for every prefix that is a stored key, shortest first, where `end`
    /// is the char index one past the prefix. The empty key is never
    /// reported.
    ///
    /// This is the segmenter's DAG-edge query: all dictionary words starting
    /// at `start`. It allocates nothing.
    pub(crate) fn for_each_prefix_match(
        &self,
        chars: &[char],
        start: usize,
        mut visit: impl FnMut(usize, &V),
    ) {
        let Some(mut node) = self.nodes.first() else {
            return;
        };
        let rest = chars.get(start..).unwrap_or_default();
        for (end, &c) in (start + 1..).zip(rest) {
            let Some(next) = node.child(c).and_then(|id| self.nodes.get(id)) else {
                return;
            };
            node = next;
            if let Some(v) = &node.value {
                visit(end, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Stores `value` under `key`, replacing any value already there.
    fn insert<V>(t: &mut Trie<V>, key: &str, value: V) {
        t.upsert(key, value, |old, new| *old = new);
    }

    #[test]
    fn insert_and_get() {
        let mut t = Trie::new();
        insert(&mut t, "蚂蚁", 1u32);
        t.upsert("蚂蚁", 2, |old, new| *old += new);
        assert_eq!(t.get("蚂蚁"), Some(&3));
        assert_eq!(t.get("蚂"), None);
        assert_eq!(t.get("蚂蚁们"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prefix_matches_reports_all_word_ends() {
        let mut t = Trie::new();
        insert(&mut t, "中", 1u32);
        insert(&mut t, "中国", 2);
        insert(&mut t, "中国人", 3);
        insert(&mut t, "国人", 4);
        let chars: Vec<char> = "中国人民".chars().collect();
        let matches = |start| {
            let mut out = Vec::new();
            t.for_each_prefix_match(&chars, start, |end, &v| out.push((end, v)));
            out
        };
        assert_eq!(matches(0), vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(matches(1), vec![(3, 4)]); // 国人
        assert_eq!(matches(4), vec![]);
        assert_eq!(matches(5), vec![]);
    }

    #[test]
    fn empty_key_is_storable() {
        let mut t = Trie::new();
        insert(&mut t, "", 7u32);
        assert_eq!(t.get(""), Some(&7));
        assert_eq!(t.len(), 1);
    }

    proptest! {
        /// The trie must agree with a HashMap on arbitrary insert sequences.
        #[test]
        fn trie_matches_hashmap(entries in proptest::collection::vec(("[一-龥a-z]{0,6}", 0u32..1000), 0..60)) {
            let mut trie = Trie::new();
            let mut map = HashMap::new();
            for (k, v) in &entries {
                insert(&mut trie, k, *v);
                map.insert(k.clone(), *v);
            }
            prop_assert_eq!(trie.len(), map.len());
            for (k, v) in &map {
                prop_assert_eq!(trie.get(k), Some(v));
            }
        }
    }
}
