//! Concept depth over the mutable store — the reference for a value that
//! is served.
//!
//! [`crate::frozen::FrozenTaxonomy`] precomputes a depth per concept
//! (`ConceptHit.depth` on the wire, the tag scorer's coarse-to-fine
//! order); the functions here compute the same value straight from a
//! [`TaxonomyStore`], and the equivalence suites compare the two.
//!
//! Depths are computed through the SCC condensation of the parent graph
//! ([`crate::topo`]) — exact longest-chain values on the post-
//! [`crate::closure::break_cycles`] DAG, with any remaining cycle collapsed
//! to a single component instead of being silently truncated (a per-call
//! memoized DFS can cache cycle-truncated values and overcount back
//! edges). Each call here recomputes the depth array in one `O(V + E)`
//! pass; hot serving paths use the precomputed array instead.

use crate::store::{ConceptId, TaxonomyStore};
use crate::topo::Condensation;

/// Exact depth of every concept in one pass: longest parent-chain length
/// to a root (0 for roots), cycles collapsed to their component.
pub fn depths(store: &TaxonomyStore) -> Vec<u32> {
    Condensation::of(store).depths(store)
}

/// Depth of a concept: longest parent-chain length to a root (0 for roots).
///
/// Computes the full [`depths`] array; batch callers should call that once.
pub fn depth(store: &TaxonomyStore, c: ConceptId) -> usize {
    depths(store)[c.index()] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};

    /// 男演员 → 演员 → 人物;  歌手 → 人物.
    fn fixture() -> (TaxonomyStore, ConceptId, ConceptId, ConceptId, ConceptId) {
        let mut s = TaxonomyStore::new();
        let male_actor = s.add_concept("男演员");
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        let singer = s.add_concept("歌手");
        let m = IsAMeta::new(Source::SubConcept, 0.9);
        s.add_concept_is_a(male_actor, actor, m);
        s.add_concept_is_a(actor, person, m);
        s.add_concept_is_a(singer, person, m);
        (s, male_actor, actor, person, singer)
    }

    #[test]
    fn depth_counts_longest_chain() {
        let (s, male_actor, actor, person, singer) = fixture();
        assert_eq!(depth(&s, person), 0);
        assert_eq!(depth(&s, actor), 1);
        assert_eq!(depth(&s, singer), 1);
        assert_eq!(depth(&s, male_actor), 2);
    }

    #[test]
    fn depth_survives_cycles() {
        let (mut s, male_actor, actor, person, _) = fixture();
        // Introduce a cycle 人物 → 男演员: the whole chain collapses into
        // one root component, so every member has depth 0; repairing the
        // cycle restores the exact chain depths.
        s.add_concept_is_a(person, male_actor, IsAMeta::new(Source::SubConcept, 0.1));
        assert_eq!(depth(&s, actor), 0);
        let removed = crate::closure::break_cycles(&mut s);
        assert_eq!(removed, vec![(person, male_actor)]);
        assert_eq!(depth(&s, actor), 1);
        assert_eq!(depth(&s, male_actor), 2);
    }

    /// Regression: the old per-call memoized DFS cached cycle-truncated
    /// values. With 起点 → {甲, 丙}, the noise cycle 甲 ⇄ 乙 and 丙 → 乙,
    /// the DFS walked 起点 → 甲 → 乙 → (甲 on path, guard fires) and
    /// memoized depth(乙) = 1 — counting the back edge 乙 → 甲 as a real
    /// step — giving depth(起点) = 3. Exact semantics collapse the cycle:
    /// depth(起点) = 2, the same answer break_cycles + exact depth give.
    #[test]
    fn depth_does_not_count_cycle_back_edges() {
        let mut s = TaxonomyStore::new();
        let start = s.add_concept("起点");
        let jia = s.add_concept("甲");
        let yi = s.add_concept("乙");
        let bing = s.add_concept("丙");
        let m = |c: f32| IsAMeta::new(Source::SubConcept, c);
        s.add_concept_is_a(start, jia, m(0.9));
        s.add_concept_is_a(start, bing, m(0.9));
        s.add_concept_is_a(jia, yi, m(0.9));
        s.add_concept_is_a(yi, jia, m(0.1)); // extraction-noise back edge
        s.add_concept_is_a(bing, yi, m(0.9));
        assert_eq!(depth(&s, start), 2);
        // And the answer is stable across cycle repair.
        let removed = crate::closure::break_cycles(&mut s);
        assert_eq!(removed, vec![(yi, jia)]);
        assert_eq!(depth(&s, start), 2);
        assert_eq!(depth(&s, yi), 0);
        assert_eq!(depth(&s, jia), 1);
    }
}
