//! Gold labels: the ground truth the generator records while it writes
//! pages.
//!
//! The paper estimates precision by manually labelling 2 000 sampled isA
//! pairs. Our corpus is synthetic, so the generator *knows* the truth and
//! records it here; evaluation then judges any extracted pair exactly. The
//! gold store answers three questions:
//!
//! * is `hypernym` correct for entity `key`? (entity isA judgement)
//! * is `(sub, sup)` a correct subconcept pair?
//! * is a string a legitimate concept at all? (ontology ∪ open modified
//!   concepts such as 首席战略官 or 香港男演员)

use std::collections::{HashMap, HashSet};

/// Ground-truth labels for one generated corpus.
#[derive(Debug, Clone, Default)]
pub struct GoldLabels {
    entity_isa: HashMap<String, HashSet<String>>,
    concept_isa: HashSet<(String, String)>,
    concepts: HashSet<String>,
}

impl GoldLabels {
    /// Creates an empty label store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a correct hypernym for an entity key.
    pub fn add_entity_hypernym(&mut self, entity_key: &str, hypernym: &str) {
        self.entity_isa
            .entry(entity_key.to_string())
            .or_default()
            .insert(hypernym.to_string());
        self.concepts.insert(hypernym.to_string());
    }

    /// Registers a correct subconcept→concept pair.
    pub fn add_concept_pair(&mut self, sub: &str, sup: &str) {
        self.concept_isa.insert((sub.to_string(), sup.to_string()));
        self.concepts.insert(sub.to_string());
        self.concepts.insert(sup.to_string());
    }

    /// Judges an entity-level isA pair.
    pub fn is_correct_entity_isa(&self, entity_key: &str, hypernym: &str) -> bool {
        self.entity_isa
            .get(entity_key)
            .is_some_and(|set| set.contains(hypernym))
    }

    /// Judges a concept-level isA pair.
    pub fn is_correct_concept_isa(&self, sub: &str, sup: &str) -> bool {
        self.concept_isa
            .contains(&(sub.to_string(), sup.to_string()))
    }

    /// Is `s` a legitimate concept (gold ontology or open modified concept)?
    pub fn is_concept(&self, s: &str) -> bool {
        self.concepts.contains(s)
    }

    /// Correct hypernym set of an entity key (empty when unknown).
    pub fn hypernyms_of(&self, entity_key: &str) -> Option<&HashSet<String>> {
        self.entity_isa.get(entity_key)
    }

    /// Number of labelled entities.
    pub fn num_entities(&self) -> usize {
        self.entity_isa.len()
    }

    /// Total gold entity-isA pairs.
    pub fn num_entity_pairs(&self) -> usize {
        self.entity_isa.values().map(|s| s.len()).sum()
    }

    /// Number of gold subconcept pairs.
    pub fn num_concept_pairs(&self) -> usize {
        self.concept_isa.len()
    }

    /// Iterates all labelled entity keys.
    pub fn entity_keys(&self) -> impl Iterator<Item = &str> {
        self.entity_isa.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_judgement() {
        let mut g = GoldLabels::new();
        g.add_entity_hypernym("刘德华（男演员）", "男演员");
        g.add_entity_hypernym("刘德华（男演员）", "演员");
        assert!(g.is_correct_entity_isa("刘德华（男演员）", "演员"));
        assert!(!g.is_correct_entity_isa("刘德华（男演员）", "歌手"));
        assert!(!g.is_correct_entity_isa("无名氏", "演员"));
        assert_eq!(g.num_entities(), 1);
        assert_eq!(g.num_entity_pairs(), 2);
    }

    #[test]
    fn concept_judgement() {
        let mut g = GoldLabels::new();
        g.add_concept_pair("男演员", "演员");
        assert!(g.is_correct_concept_isa("男演员", "演员"));
        assert!(!g.is_correct_concept_isa("演员", "男演员"));
        assert_eq!(g.num_concept_pairs(), 1);
    }

    #[test]
    fn concept_membership_tracks_both_kinds() {
        let mut g = GoldLabels::new();
        g.add_entity_hypernym("e", "首席战略官");
        g.add_concept_pair("首席战略官", "战略官");
        assert!(g.is_concept("首席战略官"));
        assert!(g.is_concept("战略官"));
        assert!(!g.is_concept("音乐"));
    }
}
