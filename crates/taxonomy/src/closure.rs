//! Transitive hypernym closure and cycle handling.
//!
//! `getConcept` may return transitive hypernyms (刘德华 → 男演员 → 演员 →
//! 人物), so the store needs reachability over subconcept→concept edges. A
//! healthy taxonomy is a DAG; extraction noise can create cycles, which
//! [`break_cycles`] repairs by deleting the lowest-confidence edge on each
//! cycle.

use crate::hash::FxHashSet;
use crate::store::{ConceptId, TaxonomyStore};

/// All concepts reachable from `start` through parent edges, in BFS order,
/// excluding `start` itself. Cycles are tolerated (visited-set).
pub fn ancestors(store: &TaxonomyStore, start: ConceptId) -> Vec<ConceptId> {
    let mut seen: FxHashSet<ConceptId> = FxHashSet::default();
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(c) = queue.pop_front() {
        for &(p, _) in store.parents_of(c) {
            if seen.insert(p) {
                order.push(p);
                queue.push_back(p);
            }
        }
    }
    order
}

/// All concepts reachable from `start` through child edges (the transitive
/// hyponym concepts), excluding `start`.
pub fn descendants(store: &TaxonomyStore, start: ConceptId) -> Vec<ConceptId> {
    let mut seen: FxHashSet<ConceptId> = FxHashSet::default();
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(c) = queue.pop_front() {
        for &ch in store.children_of(c) {
            if seen.insert(ch) {
                order.push(ch);
                queue.push_back(ch);
            }
        }
    }
    order
}

/// Finds one cycle among concept edges, returned as a list of edges
/// `(sub, sup)` forming the cycle; `None` when the hierarchy is a DAG.
pub fn find_cycle(store: &TaxonomyStore) -> Option<Vec<(ConceptId, ConceptId)>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let n = store.num_concepts();
    let mut color = vec![Color::White; n];
    // Iterative DFS keeping the grey path so the cycle can be reconstructed.
    for root in store.concept_ids() {
        if color[root.index()] != Color::White {
            continue;
        }
        let mut stack: Vec<(ConceptId, usize)> = vec![(root, 0)];
        let mut path: Vec<ConceptId> = vec![root];
        color[root.index()] = Color::Grey;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let parents = store.parents_of(node);
            if *next < parents.len() {
                let (p, _) = parents[*next];
                *next += 1;
                match color[p.index()] {
                    Color::White => {
                        color[p.index()] = Color::Grey;
                        stack.push((p, 0));
                        path.push(p);
                    }
                    Color::Grey => {
                        // Found a back edge: reconstruct the cycle p → … → node → p.
                        let pos = path
                            .iter()
                            .position(|&x| x == p)
                            .expect("grey node on path");
                        let mut edges = Vec::new();
                        for w in path[pos..].windows(2) {
                            edges.push((w[0], w[1]));
                        }
                        edges.push((node, p));
                        return Some(edges);
                    }
                    Color::Black => {}
                }
            } else {
                color[node.index()] = Color::Black;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Returns `true` when the concept hierarchy contains no cycle.
pub fn is_dag(store: &TaxonomyStore) -> bool {
    find_cycle(store).is_none()
}

/// Repeatedly removes the lowest-confidence edge of each discovered cycle
/// until the hierarchy is a DAG. Returns the removed edges.
pub fn break_cycles(store: &mut TaxonomyStore) -> Vec<(ConceptId, ConceptId)> {
    let mut removed = Vec::new();
    while let Some(cycle) = find_cycle(store) {
        let &(sub, sup) = cycle
            .iter()
            .min_by(|&&(a, b), &&(c, d)| {
                let ca = edge_confidence(store, a, b);
                let cb = edge_confidence(store, c, d);
                // total_cmp: NaN orders above every number instead of
                // panicking, so a poisoned confidence loses the tie-break.
                ca.total_cmp(&cb)
            })
            .expect("cycle is non-empty");
        store.remove_concept_is_a(sub, sup);
        removed.push((sub, sup));
    }
    removed
}

fn edge_confidence(store: &TaxonomyStore, sub: ConceptId, sup: ConceptId) -> f32 {
    store
        .parents_of(sub)
        .iter()
        .find(|(c, _)| *c == sup)
        .map(|(_, m)| m.confidence)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};

    fn meta(conf: f32) -> IsAMeta {
        IsAMeta::new(Source::SubConcept, conf)
    }

    /// 男演员 → 演员 → 人物; 歌手 → 人物.
    fn chain_store() -> (TaxonomyStore, ConceptId, ConceptId, ConceptId, ConceptId) {
        let mut s = TaxonomyStore::new();
        let male_actor = s.add_concept("男演员");
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        let singer = s.add_concept("歌手");
        s.add_concept_is_a(male_actor, actor, meta(0.9));
        s.add_concept_is_a(actor, person, meta(0.9));
        s.add_concept_is_a(singer, person, meta(0.9));
        (s, male_actor, actor, person, singer)
    }

    #[test]
    fn ancestors_follow_transitive_parents() {
        let (s, male_actor, actor, person, _) = chain_store();
        let up = ancestors(&s, male_actor);
        assert_eq!(up, vec![actor, person]);
        assert!(ancestors(&s, person).is_empty());
    }

    #[test]
    fn descendants_follow_transitive_children() {
        let (s, male_actor, actor, person, singer) = chain_store();
        let down = descendants(&s, person);
        assert!(down.contains(&actor));
        assert!(down.contains(&male_actor));
        assert!(down.contains(&singer));
        assert_eq!(down.len(), 3);
    }

    #[test]
    fn dag_detection() {
        let (mut s, male_actor, _, person, _) = chain_store();
        assert!(is_dag(&s));
        // person → 男演员 closes a cycle.
        s.add_concept_is_a(person, male_actor, meta(0.1));
        assert!(!is_dag(&s));
    }

    #[test]
    fn break_cycles_removes_lowest_confidence_edge() {
        let (mut s, male_actor, actor, person, _) = chain_store();
        s.add_concept_is_a(person, male_actor, meta(0.1));
        let removed = break_cycles(&mut s);
        assert_eq!(removed, vec![(person, male_actor)]);
        assert!(is_dag(&s));
        // The legitimate chain survives.
        assert_eq!(ancestors(&s, male_actor), vec![actor, person]);
    }

    #[test]
    fn break_cycles_handles_two_node_cycle() {
        let mut s = TaxonomyStore::new();
        let a = s.add_concept("甲");
        let b = s.add_concept("乙");
        s.add_concept_is_a(a, b, meta(0.9));
        s.add_concept_is_a(b, a, meta(0.2));
        let removed = break_cycles(&mut s);
        assert_eq!(removed, vec![(b, a)]);
        assert!(is_dag(&s));
    }

    /// Regression: a NaN confidence (possible through the public `IsAMeta`
    /// fields) used to panic `partial_cmp(..).unwrap()` during cycle repair.
    #[test]
    fn break_cycles_survives_nan_confidence() {
        let mut s = TaxonomyStore::new();
        let a = s.add_concept("甲");
        let b = s.add_concept("乙");
        let nan_meta = IsAMeta {
            source: Source::SubConcept,
            confidence: f32::NAN,
        };
        s.add_concept_is_a(a, b, nan_meta);
        s.add_concept_is_a(b, a, meta(0.2));
        let removed = break_cycles(&mut s);
        // NaN orders above every number under total_cmp, so the real 0.2
        // edge is the minimum and gets removed — without a panic.
        assert_eq!(removed, vec![(b, a)]);
        assert!(is_dag(&s));
    }

    #[test]
    fn diamond_is_a_dag() {
        let mut s = TaxonomyStore::new();
        let bottom = s.add_concept("底");
        let l = s.add_concept("左");
        let r = s.add_concept("右");
        let top = s.add_concept("顶");
        s.add_concept_is_a(bottom, l, meta(0.9));
        s.add_concept_is_a(bottom, r, meta(0.9));
        s.add_concept_is_a(l, top, meta(0.9));
        s.add_concept_is_a(r, top, meta(0.9));
        assert!(is_dag(&s));
        let up = ancestors(&s, bottom);
        assert_eq!(up.len(), 3); // top counted once
    }
}
