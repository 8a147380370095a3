//! Mention index: surface form → candidate entities.
//!
//! Backs the `men2ent` API (Table II, 43.9 M calls — the hottest endpoint).
//! A mention resolves through three key classes:
//!
//! 1. the bare entity name (刘德华 → every 刘德华 sense),
//! 2. the full disambiguated key (刘德华（中国香港男演员）→ that sense),
//! 3. registered aliases (Andy Lau → 刘德华（中国香港男演员）).

use crate::hash::FxHashMap;
use crate::interner::Symbol;
use crate::store::{EntityId, TaxonomyStore};

/// True when a mention carries a `（…）` disambiguation — the only form a
/// full key can take. Shared by the build-time [`MentionIndex`], the
/// frozen snapshot and the serve-layer key resolution so the `men2ent`
/// paths can never disagree on when the full-key table applies.
pub fn has_disambig(mention: &str) -> bool {
    mention.contains('（')
}

/// Every way to read `key` as a full key `name（disambig）` with a
/// non-empty disambiguation, splitting at each `（` from the left. A name
/// that itself holds a `（` admits more than one split; the frozen
/// snapshot and its view both take the first that names a sense, so they
/// resolve every key to the same one.
pub(crate) fn full_key_splits(key: &str) -> impl Iterator<Item = (&str, &str)> {
    let body = key.strip_suffix('）').unwrap_or_default();
    body.match_indices('（').filter_map(move |(at, open)| {
        let name = body.get(..at)?;
        let disambig = body.get(at + open.len()..)?;
        (!disambig.is_empty()).then_some((name, disambig))
    })
}

/// Immutable mention index built from a store snapshot.
#[derive(Debug, Clone, Default)]
pub struct MentionIndex {
    by_mention: FxHashMap<Symbol, Vec<EntityId>>,
    full_keys: FxHashMap<String, EntityId>,
}

impl MentionIndex {
    /// Builds the index over all entities in `store`.
    pub fn build(store: &mut TaxonomyStore) -> Self {
        let mut by_mention: FxHashMap<Symbol, Vec<EntityId>> = FxHashMap::default();
        let mut full_keys = FxHashMap::default();
        let ids: Vec<EntityId> = store.entity_ids().collect();
        for id in ids {
            let rec = store.entity(id);
            by_mention.entry(rec.name).or_default().push(id);
            for &alias in store.aliases_of(id).to_vec().iter() {
                by_mention.entry(alias).or_default().push(id);
            }
            // Only disambiguated senses get a full-key entry: a bracket-less
            // sense has `entity_key == name`, and registering that as a full
            // key would shadow every disambiguated sibling sense.
            if rec.disambig != crate::interner::Symbol(0) {
                full_keys.insert(store.entity_key(id), id);
            }
        }
        for v in by_mention.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        MentionIndex {
            by_mention,
            full_keys,
        }
    }

    /// Resolves a mention to candidate entities (the `men2ent` API).
    ///
    /// A full disambiguated key resolves to exactly its sense; a bare name
    /// or alias resolves to every matching sense. The full-key table is
    /// only consulted when the mention carries a `（…）` disambiguation, so
    /// a bracket-less sense never shadows its disambiguated siblings.
    pub fn men2ent(&self, store: &TaxonomyStore, mention: &str) -> Vec<EntityId> {
        if has_disambig(mention) {
            if let Some(&id) = self.full_keys.get(mention) {
                return vec![id];
            }
        }
        let Some(sym) = store.interner().get(mention) else {
            return Vec::new();
        };
        self.by_mention.get(&sym).cloned().unwrap_or_default()
    }

    /// Number of distinct mention keys (names + aliases).
    pub fn num_mentions(&self) -> usize {
        self.by_mention.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};

    fn store_with_senses() -> (TaxonomyStore, EntityId, EntityId, MentionIndex) {
        let mut s = TaxonomyStore::new();
        let actor = s.add_entity("刘德华", Some("中国香港男演员"));
        let prof = s.add_entity("刘德华", Some("大学教授"));
        s.add_alias(actor, "Andy Lau");
        let c = s.add_concept("演员");
        s.add_entity_is_a(actor, c, IsAMeta::new(Source::Tag, 0.9));
        let idx = MentionIndex::build(&mut s);
        (s, actor, prof, idx)
    }

    #[test]
    fn bare_name_resolves_all_senses() {
        let (s, actor, prof, idx) = store_with_senses();
        let hits = idx.men2ent(&s, "刘德华");
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&actor));
        assert!(hits.contains(&prof));
    }

    #[test]
    fn full_key_resolves_single_sense() {
        let (s, actor, _, idx) = store_with_senses();
        assert_eq!(idx.men2ent(&s, "刘德华（中国香港男演员）"), vec![actor]);
    }

    #[test]
    fn alias_resolves() {
        let (s, actor, _, idx) = store_with_senses();
        assert_eq!(idx.men2ent(&s, "Andy Lau"), vec![actor]);
    }

    #[test]
    fn unknown_mention_is_empty() {
        let (s, _, _, idx) = store_with_senses();
        assert!(idx.men2ent(&s, "不存在").is_empty());
    }

    /// Regression: a bracket-less sense has `entity_key == name`; looking
    /// the bare name up through the full-key table used to return only
    /// that sense and hide every disambiguated sibling.
    #[test]
    fn bare_sense_does_not_shadow_disambiguated_senses() {
        let mut s = TaxonomyStore::new();
        let bare = s.add_entity("刘德华", None);
        let actor = s.add_entity("刘德华", Some("中国香港男演员"));
        let idx = MentionIndex::build(&mut s);
        let hits = idx.men2ent(&s, "刘德华");
        assert_eq!(hits.len(), 2, "bare mention must surface every sense");
        assert!(hits.contains(&bare));
        assert!(hits.contains(&actor));
        // The full key still resolves to exactly its sense.
        assert_eq!(idx.men2ent(&s, "刘德华（中国香港男演员）"), vec![actor]);
    }

    #[test]
    fn full_keys_split_at_every_bracket() {
        let splits = |key| full_key_splits(key).collect::<Vec<_>>();
        assert_eq!(splits("刘德华（演员）"), [("刘德华", "演员")]);
        assert_eq!(
            splits("甲（乙）（丙）"),
            [("甲", "乙）（丙"), ("甲（乙）", "丙")]
        );
        assert!(splits("刘德华").is_empty());
        assert!(splits("刘德华（）").is_empty());
        assert!(splits("刘德华（演员").is_empty());
        assert_eq!(splits("（演员）"), [("", "演员")]);
    }

    #[test]
    fn mention_count_includes_aliases() {
        let (_, _, _, idx) = store_with_senses();
        // 刘德华 + Andy Lau = 2 mention keys.
        assert_eq!(idx.num_mentions(), 2);
    }
}
