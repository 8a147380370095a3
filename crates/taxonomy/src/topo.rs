//! Topological structure of the concept hierarchy.
//!
//! The serving path needs two artifacts the per-query algorithms used to
//! recompute from scratch: a topological order of the concept DAG and exact
//! concept depths. Both are defined through the strongly-connected-component
//! *condensation* of the parent graph, which makes them total functions even
//! on a store whose cycles have not been repaired yet: every concept of an
//! SCC shares the depth of the collapsed component, and on a cycle-free
//! store (the normal case after [`crate::closure::break_cycles`]) every SCC
//! is a singleton, so the values are the exact longest-chain depths.
#![deny(clippy::iter_over_hash_type)]

use crate::store::{ConceptId, IsAMeta, TaxonomyStore};

const UNVISITED: u32 = u32::MAX;

/// Strongly-connected-component condensation of the concept parent graph.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component index per concept (dense, `0..sccs.len()`).
    scc_of: Vec<u32>,
    /// Component member lists (each sorted), in *ancestors-first* order:
    /// when component `i` is listed, every component reachable from `i`
    /// through parent edges has an index `< i`.
    sccs: Vec<Vec<ConceptId>>,
}

impl Condensation {
    /// Computes the condensation with an iterative Tarjan pass over the
    /// edges `concept → parent`. `O(V + E)`, no recursion.
    pub fn of(store: &TaxonomyStore) -> Self {
        Self::of_rows(store.num_concepts(), |c| store.parents_of(c))
    }

    /// [`Condensation::of`] over any borrowed parent-row table — the
    /// overlay fold runs the identical pass on its merged rows without
    /// materialising a carrier store.
    pub(crate) fn of_rows<'a>(
        n: usize,
        parents_of: impl Fn(ConceptId) -> &'a [(ConceptId, IsAMeta)],
    ) -> Self {
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut scc_of = vec![UNVISITED; n];
        let mut sccs: Vec<Vec<ConceptId>> = Vec::new();
        let mut next_index = 0u32;
        // Explicit call stack of (node, next parent-edge to visit).
        let mut call: Vec<(u32, usize)> = Vec::new();

        for root in 0..n as u32 {
            if index[root as usize] != UNVISITED {
                continue;
            }
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            call.push((root, 0));

            while let Some(&mut (v, ref mut next_edge)) = call.last_mut() {
                let parents = parents_of(ConceptId(v));
                if *next_edge < parents.len() {
                    let w = parents[*next_edge].0 .0;
                    *next_edge += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        low[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&(u, _)) = call.last() {
                        low[u as usize] = low[u as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        let scc_id = sccs.len() as u32;
                        let mut members = Vec::new();
                        loop {
                            let w = stack.pop().expect("SCC root still on stack");
                            on_stack[w as usize] = false;
                            scc_of[w as usize] = scc_id;
                            members.push(ConceptId(w));
                            if w == v {
                                break;
                            }
                        }
                        members.sort_unstable();
                        sccs.push(members);
                    }
                }
            }
        }
        Condensation { scc_of, sccs }
    }

    /// Component index of a concept.
    #[inline]
    pub fn component_of(&self, c: ConceptId) -> usize {
        self.scc_of[c.index()] as usize
    }

    /// Component member lists, ancestors-first (see struct docs).
    pub fn components(&self) -> &[Vec<ConceptId>] {
        &self.sccs
    }

    /// A topological order of the concepts: every concept appears after all
    /// of its (transitive) parents; members of a cycle appear adjacently.
    pub fn topo_order(&self) -> Vec<ConceptId> {
        self.sccs.iter().flatten().copied().collect()
    }

    /// Exact depth per concept, one DP pass over the ancestors-first
    /// component order: `depth[c] = max over parents (depth[parent] + 1)`,
    /// `0` for roots, with cycle members collapsed to their component.
    pub fn depths(&self, store: &TaxonomyStore) -> Vec<u32> {
        self.depths_rows(store.num_concepts(), |c| store.parents_of(c))
    }

    /// [`Condensation::depths`] over any borrowed parent-row table (the
    /// same table `of_rows` condensed).
    pub(crate) fn depths_rows<'a>(
        &self,
        n: usize,
        parents_of: impl Fn(ConceptId) -> &'a [(ConceptId, IsAMeta)],
    ) -> Vec<u32> {
        let mut scc_depth = vec![0u32; self.sccs.len()];
        for (i, members) in self.sccs.iter().enumerate() {
            let mut d = 0;
            for &c in members {
                for &(p, _) in parents_of(c) {
                    let ps = self.component_of(p);
                    if ps != i {
                        d = d.max(scc_depth[ps] + 1);
                    }
                }
            }
            scc_depth[i] = d;
        }
        (0..n).map(|c| scc_depth[self.scc_of[c] as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{IsAMeta, Source};

    fn meta() -> IsAMeta {
        IsAMeta::new(Source::SubConcept, 0.9)
    }

    /// 男演员 → 演员 → 人物; 歌手 → 人物.
    fn chain_store() -> (TaxonomyStore, ConceptId, ConceptId, ConceptId, ConceptId) {
        let mut s = TaxonomyStore::new();
        let male_actor = s.add_concept("男演员");
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        let singer = s.add_concept("歌手");
        s.add_concept_is_a(male_actor, actor, meta());
        s.add_concept_is_a(actor, person, meta());
        s.add_concept_is_a(singer, person, meta());
        (s, male_actor, actor, person, singer)
    }

    #[test]
    fn dag_gives_singleton_components_in_parents_first_order() {
        let (s, male_actor, actor, person, _) = chain_store();
        let cond = Condensation::of(&s);
        assert_eq!(cond.components().len(), s.num_concepts());
        let topo = cond.topo_order();
        let pos = |c: ConceptId| topo.iter().position(|&x| x == c).unwrap();
        assert!(pos(person) < pos(actor));
        assert!(pos(actor) < pos(male_actor));
    }

    #[test]
    fn depths_match_longest_chain() {
        let (s, male_actor, actor, person, singer) = chain_store();
        let d = Condensation::of(&s).depths(&s);
        assert_eq!(d[person.index()], 0);
        assert_eq!(d[actor.index()], 1);
        assert_eq!(d[singer.index()], 1);
        assert_eq!(d[male_actor.index()], 2);
    }

    #[test]
    fn cycle_members_collapse_to_one_component() {
        let (mut s, male_actor, actor, person, singer) = chain_store();
        // 人物 → 男演员 closes the cycle {男演员, 演员, 人物}.
        s.add_concept_is_a(person, male_actor, IsAMeta::new(Source::SubConcept, 0.1));
        let cond = Condensation::of(&s);
        assert_eq!(cond.component_of(male_actor), cond.component_of(person));
        assert_eq!(cond.component_of(male_actor), cond.component_of(actor));
        assert_ne!(cond.component_of(singer), cond.component_of(person));
        let d = cond.depths(&s);
        // The collapsed cycle is the root component; 歌手 hangs below it.
        assert_eq!(d[person.index()], 0);
        assert_eq!(d[singer.index()], 1);
    }

    #[test]
    fn diamond_depths() {
        let mut s = TaxonomyStore::new();
        let bottom = s.add_concept("底");
        let l = s.add_concept("左");
        let r = s.add_concept("右");
        let top = s.add_concept("顶");
        let mid = s.add_concept("中");
        s.add_concept_is_a(bottom, l, meta());
        s.add_concept_is_a(bottom, r, meta());
        s.add_concept_is_a(l, top, meta());
        s.add_concept_is_a(r, mid, meta());
        s.add_concept_is_a(mid, top, meta());
        let d = Condensation::of(&s).depths(&s);
        assert_eq!(d[top.index()], 0);
        assert_eq!(d[mid.index()], 1);
        assert_eq!(d[l.index()], 1);
        assert_eq!(d[r.index()], 2);
        // Longest chain wins: 底 → 右 → 中 → 顶.
        assert_eq!(d[bottom.index()], 3);
    }

    #[test]
    fn empty_store() {
        let s = TaxonomyStore::new();
        let cond = Condensation::of(&s);
        assert!(cond.topo_order().is_empty());
        assert!(cond.depths(&s).is_empty());
    }
}
