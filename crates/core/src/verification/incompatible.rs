//! Verification strategy A: incompatible concepts (paper §III-A, Eq. 1).
//!
//! Two concepts are *compatible* when they plausibly share entities
//! (singer/actor) and *incompatible* when they cannot (person/book).
//! Incompatible pairs are detected from data: low Jaccard overlap of
//! hyponym sets **and** low cosine similarity of attribute distributions.
//! When an entity carries two incompatible concepts, the one whose
//! attribute distribution diverges more from the entity's (larger KL,
//! Eq. 1) is dropped.
//!
//! Incompatibility depends on the two concepts alone, so [`filter`]
//! decides each distinct concept pair once, however many entities carry
//! it: O(distinct pairs × extent), not O(pages × extent). Which edge goes
//! depends on the entity (its KL to each concept), so the verdict is
//! shared and the removal is not.
//!
//! Predicates are interned as `u32` ids in ascending string order and
//! concepts as their index among the sorted hypernyms. A distribution is
//! `(id, weight)` pairs in ascending id, so every sum accumulates in
//! predicate-string order, whatever the thread count, and KL and cosine
//! are reproducible to the bit (near-ties decide which edge gets dropped).

use crate::candidate::CandidateSet;
use cnp_encyclopedia::Page;
use cnp_runtime::Runtime;
use std::collections::HashMap;

/// Thresholds for strategy A.
#[derive(Debug, Clone)]
pub struct IncompatibleConfig {
    /// Concepts with Jaccard below this are overlap-incompatible.
    pub max_jaccard: f64,
    /// … and with attribute cosine below this are attribute-incompatible.
    pub max_cosine: f64,
    /// Concepts must have at least this many entities to participate
    /// (small concepts give unreliable statistics).
    pub min_extent: usize,
}

impl Default for IncompatibleConfig {
    fn default() -> Self {
        IncompatibleConfig {
            // A loose overlap pre-filter: genuinely compatible concepts
            // (singer/actor) share far more than 10% of their hyponyms at
            // corpus scale, while a handful of wrong edges cannot push two
            // incompatible concepts past it. The cosine test on attribute
            // distributions is the decisive signal.
            max_jaccard: 0.10,
            max_cosine: 0.25,
            min_extent: 5,
        }
    }
}

/// The weight `q` gives attribute `key`, if any.
fn weight(q: &[(u32, f64)], key: u32) -> Option<f64> {
    q.binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|i| q[i].1)
}

/// KL divergence `D(p ‖ q)` over attribute distributions with add-ε
/// smoothing on `q` (Eq. 1; smoothing keeps the score finite when the
/// concept lacks one of the entity's attributes).
fn kl_divergence(p: &[(u32, f64)], q: &[(u32, f64)]) -> f64 {
    const EPS: f64 = 1e-6;
    let mut kl = 0.0;
    for &(attr, pv) in p {
        if pv <= 0.0 {
            continue;
        }
        let qv = weight(q, attr).unwrap_or(0.0) + EPS;
        kl += pv * (pv / qv).ln();
    }
    kl.max(0.0)
}

/// Cosine similarity of two sparse distributions.
fn cosine(p: &[(u32, f64)], q: &[(u32, f64)]) -> f64 {
    let mut dot = 0.0;
    for &(k, pv) in p {
        if let Some(qv) = weight(q, k) {
            dot += pv * qv;
        }
    }
    let norm = |d: &[(u32, f64)]| d.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
    let (np, nq) = (norm(p), norm(q));
    if np == 0.0 || nq == 0.0 {
        0.0
    } else {
        dot / (np * nq)
    }
}

/// Interns `keys`: returns the number of distinct keys and each key's
/// id, its rank in ascending string order. Hashing finds the distinct
/// keys; only those are sorted, and the map is never iterated.
fn intern<'a>(keys: impl Iterator<Item = &'a str>) -> (usize, Vec<usize>) {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let mut distinct: Vec<&str> = Vec::new();
    let mut first_seen = |k| {
        *seen.entry(k).or_insert_with(|| {
            distinct.push(k);
            distinct.len() - 1
        })
    };
    let first: Vec<usize> = keys.map(&mut first_seen).collect();
    let mut sorted = distinct.clone();
    sorted.sort_unstable();
    let rank: Vec<usize> = distinct
        .iter()
        .map(|k| sorted.partition_point(|s| s < k))
        .collect();
    (distinct.len(), first.into_iter().map(|f| rank[f]).collect())
}

/// Runs strategy A, returning the filtered candidate set and the number of
/// removed candidates.
///
/// Predicates, concepts and entity keys are interned in one hashed pass
/// each. The concept distributions, the verdict on each distinct concept
/// pair some entity carries, and the per-entity removal cascade run in
/// parallel partitions on the shared runtime. `is_incompatible` is
/// symmetric, so a pair is keyed low id first.
///
/// The cascade walks an entity's candidates in order, skips a pair once
/// either edge is removed, and drops the edge with the larger KL (the
/// second one on a tie). Only the verdict is shared between entities:
/// the KLs, and so the edge that goes, belong to the entity. The cascade
/// is confined to one entity's candidates, so entity groups partition
/// cleanly across workers and the removal set is thread-count-independent.
pub fn filter(
    set: CandidateSet,
    pages: &[Page],
    cfg: &IncompatibleConfig,
    rt: &Runtime,
) -> (CandidateSet, usize) {
    // Each page's attributes as sorted, distinct predicate ids, page
    // `p`'s at `attr_ids[starts[p]..starts[p + 1]]`.
    let triples = pages.iter().flat_map(|p| &p.infobox);
    let predicate_of = intern(triples.map(|t| t.predicate.as_str())).1.into_iter();
    let mut predicate_of = predicate_of.map(|id| u32::try_from(id).expect("< 2^32 predicates"));
    let (mut attr_ids, mut starts, mut page_ids) = (Vec::new(), vec![0], Vec::new());
    for p in pages {
        page_ids.clear();
        page_ids.extend(predicate_of.by_ref().take(p.infobox.len()));
        page_ids.sort_unstable();
        page_ids.dedup();
        attr_ids.extend_from_slice(&page_ids);
        starts.push(attr_ids.len());
    }
    let attrs_of = |p: usize| &attr_ids[starts[p]..starts[p + 1]];

    // Each concept's distinct hyponym pages, ascending.
    let (n_concepts, concept_of) = intern(set.items.iter().map(|c| c.hypernym.as_str()));
    let mut extents: Vec<Vec<usize>> = vec![Vec::new(); n_concepts];
    for (c, item) in concept_of.iter().zip(&set.items) {
        extents[*c].push(item.page);
    }
    for pages in &mut extents {
        pages.sort_unstable();
        pages.dedup();
    }
    // Attribute counts are integers, so the total and every weight come
    // out the same bits whatever order they are summed in.
    let dists: Vec<Vec<(u32, f64)>> = rt.par_index_map(n_concepts, |c| {
        let attrs = extents[c].iter().flat_map(|&p| attrs_of(p));
        let mut ids: Vec<u32> = attrs.copied().collect();
        ids.sort_unstable();
        let total = ids.len() as f64;
        let runs = ids.chunk_by(|a, b| a == b);
        runs.map(|r| (r[0], r.len() as f64 / total)).collect()
    });

    // Group candidates per entity, in ascending key order. Removal
    // decisions cascade (a removed edge is skipped in later pair tests),
    // but only *within* a group, so groups fan out to workers
    // independently.
    let (n_entities, entity_of) = intern(set.items.iter().map(|c| c.entity_key.as_str()));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_entities];
    for (i, e) in entity_of.iter().enumerate() {
        groups[*e].push(i);
    }

    // Both tests are pure, so the cheap cosine goes first and the Jaccard
    // over the two extents runs only when the cosine is low.
    let is_incompatible = |a: usize, b: usize| -> bool {
        let mut pair = [&extents[a][..], &extents[b][..]];
        if pair.iter().any(|pages| pages.len() < cfg.min_extent)
            || cosine(&dists[a], &dists[b]) >= cfg.max_cosine
        {
            return false;
        }
        pair.sort_by_key(|pages| pages.len());
        let [small, large] = pair;
        let inter = small.iter().filter(|p| large.binary_search(p).is_ok());
        let inter = inter.count() as f64;
        let union = (small.len() + large.len()) as f64 - inter;
        let jaccard = if union == 0.0 { 0.0 } else { inter / union };
        jaccard <= cfg.max_jaccard
    };
    let pair_key = |i: usize, j: usize| {
        let (a, b) = (concept_of[i], concept_of[j]);
        (a.min(b), a.max(b))
    };
    let mut pairs: Vec<(usize, usize)> = groups
        .iter()
        .flat_map(|g| (0..g.len()).flat_map(move |a| g[a + 1..].iter().map(move |&j| (g[a], j))))
        .map(|(i, j)| pair_key(i, j))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let verdicts: Vec<bool> =
        rt.par_index_map(pairs.len(), |k| is_incompatible(pairs[k].0, pairs[k].1));

    let removed: Vec<usize> = rt
        .par_chunks_indexed(&groups, |_, group_chunk| {
            let mut removed = Vec::new();
            for indices in group_chunk {
                let mut dropped = vec![false; indices.len()];
                for a in 0..indices.len() {
                    for b in a + 1..indices.len() {
                        if dropped[a] || dropped[b] {
                            continue;
                        }
                        let (i, j) = (indices[a], indices[b]);
                        let k = pairs.binary_search(&pair_key(i, j));
                        if !k.is_ok_and(|k| verdicts[k]) {
                            continue;
                        }
                        // Drop the concept with larger KL(v_att(e) ‖ v_att(c)),
                        // v_att(e) uniform over the entity's attributes.
                        let attrs = attrs_of(set.items[i].page);
                        let n = attrs.len().max(1) as f64;
                        let e_dist: Vec<(u32, f64)> = attrs.iter().map(|&a| (a, 1.0 / n)).collect();
                        let kl_i = kl_divergence(&e_dist, &dists[concept_of[i]]);
                        let kl_j = kl_divergence(&e_dist, &dists[concept_of[j]]);
                        let drop = if kl_i > kl_j { a } else { b };
                        dropped[drop] = true;
                        removed.push(indices[drop]);
                    }
                }
            }
            removed
        })
        .into_iter()
        .flatten()
        .collect();

    let mut keep = vec![true; set.items.len()];
    for &i in &removed {
        keep[i] = false;
    }
    let items = set.items.into_iter().zip(keep);
    let items = items.filter_map(|(c, k)| k.then_some(c)).collect();
    (CandidateSet { items }, removed.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;
    use cnp_encyclopedia::InfoboxTriple;
    use cnp_taxonomy::Source;

    /// Attribute ids stand for predicates in ascending string order, so a
    /// slice sorted by id is a distribution in the order the filter builds.
    #[test]
    fn kl_is_zero_for_identical_and_positive_otherwise() {
        let p = [(0, 0.5), (1, 0.5)];
        let q = [(0, 0.5), (1, 0.5)];
        assert!(kl_divergence(&p, &q) < 1e-9);
        let r = [(2, 1.0)];
        assert!(kl_divergence(&p, &r) > 1.0);
        // A key `q` lacks costs ε-smoothing, not infinity; keys only `q`
        // has do not count.
        let partial = kl_divergence(&p, &[(0, 0.5), (2, 0.5)]);
        assert!(partial.is_finite() && partial > 1.0);
        assert_eq!(partial, kl_divergence(&p, &[(0, 0.5), (2, 0.5), (3, 0.5)]));
    }

    #[test]
    fn cosine_bounds() {
        let p = [(0, 1.0)];
        let q = [(0, 2.0)];
        assert!((cosine(&p, &q) - 1.0).abs() < 1e-9);
        let r = [(1, 1.0)];
        assert_eq!(cosine(&p, &r), 0.0);
        assert_eq!(cosine(&p, &[]), 0.0);
        // Partial overlap, and symmetric to the bit: a pair's verdict is
        // keyed low concept id first.
        let (a, b) = ([(0, 1.0), (1, 1.0)], [(1, 1.0), (2, 1.0)]);
        assert!((cosine(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(cosine(&a, &b).to_bits(), cosine(&b, &a).to_bits());
    }

    /// One page per `(name, infobox predicates, concepts)`, its candidates
    /// in the order given.
    fn scene(entities: &[(String, &[&str], &[&str])]) -> (Vec<Page>, CandidateSet) {
        let mut pages = Vec::new();
        let mut cands = Vec::new();
        for (page, (name, attrs, concepts)) in entities.iter().enumerate() {
            pages.push(Page {
                name: name.clone(),
                infobox: attrs
                    .iter()
                    .map(|a| InfoboxTriple::new(*a, "某值"))
                    .collect(),
                ..Default::default()
            });
            for concept in *concepts {
                let c = Candidate::new(page, name, name, "", *concept, Source::Tag, 0.9);
                cands.push(c);
            }
        }
        (pages, CandidateSet::merge(cands))
    }

    fn kept(set: &CandidateSet, entity: &str) -> Vec<String> {
        let edges = set.items.iter().filter(|c| c.entity_key == entity);
        edges.map(|c| c.hypernym.clone()).collect()
    }

    /// One incompatible pair (人物/图书) on six entities: three people and
    /// three books. The pair's verdict is shared, but each entity drops
    /// its own larger-KL edge, so a memo of the removal instead of the
    /// verdict fails one half or the other.
    #[test]
    fn one_pair_on_many_entities_drops_each_entitys_own_edge() {
        const PERSON: &[&str] = &["职业", "出生地"];
        const BOOK: &[&str] = &["作者", "出版时间"];
        let mut entities = Vec::new();
        for i in 0..50 {
            entities.push((format!("人{i}"), PERSON, &["人物"][..]));
            entities.push((format!("书{i}"), BOOK, &["图书"][..]));
        }
        for i in 0..3 {
            // Alternate the candidate order too: the tie rule is not
            // what decides here.
            entities.push((format!("两人{i}"), PERSON, &["人物", "图书"][..]));
            entities.push((format!("两书{i}"), BOOK, &["人物", "图书"][..]));
            entities.push((format!("两书反{i}"), BOOK, &["图书", "人物"][..]));
        }
        let (pages, set) = scene(&entities);
        for threads in [1, 2, 8] {
            let (filtered, removed) = filter(
                set.clone(),
                &pages,
                &IncompatibleConfig::default(),
                &Runtime::new(threads),
            );
            assert_eq!(removed, 9, "{threads} threads");
            for i in 0..3 {
                assert_eq!(kept(&filtered, &format!("两人{i}")), ["人物"]);
                assert_eq!(kept(&filtered, &format!("两书{i}")), ["图书"]);
                assert_eq!(kept(&filtered, &format!("两书反{i}")), ["图书"]);
            }
        }
    }

    /// X carries 人物, 图书 and 团体, in that order. (人物, 图书) drops 图书;
    /// (人物, 团体) is compatible, since 团体 shares most of its entities
    /// with 人物; (图书, 团体) is incompatible and would drop 团体, but it is
    /// skipped because 图书 is already gone. X keeps 人物 and 团体.
    #[test]
    fn a_removed_edge_takes_no_part_in_later_pairs() {
        const GROUP: &[&str] = &["出生地", "成员", "成立时间", "代表作"];
        let mut entities = Vec::new();
        for i in 0..8 {
            entities.push((format!("人{i}"), &["职业", "出生地"][..], &["人物"][..]));
            entities.push((format!("书{i}"), &["作者", "出版时间"][..], &["图书"][..]));
        }
        for i in 0..6 {
            entities.push((format!("团{i}"), GROUP, &["人物", "团体"][..]));
        }
        entities.push((
            "X".to_string(),
            &["职业"][..],
            &["人物", "图书", "团体"][..],
        ));
        let (pages, set) = scene(&entities);
        let (filtered, removed) = filter(
            set,
            &pages,
            &IncompatibleConfig::default(),
            &Runtime::new(2),
        );
        assert_eq!(removed, 1);
        assert_eq!(kept(&filtered, "X"), ["人物", "团体"]);
    }

    /// Build a scene: many persons (职业/出生地 attributes) tagged 人物,
    /// many books (作者/出版社) tagged 图书, and one person wrongly tagged
    /// 图书. Strategy A must remove exactly that edge.
    #[test]
    fn removes_cross_domain_wrong_concept() {
        let mut pages = Vec::new();
        let mut cands = Vec::new();
        for i in 0..8 {
            pages.push(cnp_encyclopedia::Page {
                name: format!("人{i}"),
                infobox: vec![
                    InfoboxTriple::new("职业", "演员"),
                    InfoboxTriple::new("出生地", "某市"),
                ],
                ..Default::default()
            });
            cands.push(Candidate::new(
                i,
                format!("人{i}"),
                format!("人{i}"),
                "",
                "人物",
                Source::Tag,
                0.9,
            ));
        }
        for i in 0..8 {
            let page = 8 + i;
            pages.push(cnp_encyclopedia::Page {
                name: format!("书{i}"),
                infobox: vec![
                    InfoboxTriple::new("作者", "某人"),
                    InfoboxTriple::new("出版时间", "1999年"),
                ],
                ..Default::default()
            });
            cands.push(Candidate::new(
                page,
                format!("书{i}"),
                format!("书{i}"),
                "",
                "图书",
                Source::Tag,
                0.9,
            ));
        }
        // The wrong edge: person 0 also tagged 图书.
        cands.push(Candidate::new(
            0,
            "人0".to_string(),
            "人0".to_string(),
            "",
            "图书",
            Source::Tag,
            0.9,
        ));
        let set = CandidateSet::merge(cands);
        let before = set.len();
        let (filtered, removed) = filter(
            set,
            &pages,
            &IncompatibleConfig::default(),
            &Runtime::new(2),
        );
        assert_eq!(removed, 1);
        assert_eq!(filtered.len(), before - 1);
        assert!(
            !filtered
                .items
                .iter()
                .any(|c| c.entity_key == "人0" && c.hypernym == "图书"),
            "the wrong 图书 edge must be removed"
        );
        assert!(
            filtered
                .items
                .iter()
                .any(|c| c.entity_key == "人0" && c.hypernym == "人物"),
            "the correct 人物 edge must survive"
        );
    }

    /// Compatible concepts (shared entities) are never flagged.
    #[test]
    fn keeps_compatible_concepts() {
        let mut pages = Vec::new();
        let mut cands = Vec::new();
        for i in 0..8 {
            pages.push(cnp_encyclopedia::Page {
                name: format!("人{i}"),
                infobox: vec![InfoboxTriple::new("职业", "演员")],
                ..Default::default()
            });
            // Everyone is both singer and actor: high Jaccard → compatible.
            for concept in ["歌手", "演员"] {
                cands.push(Candidate::new(
                    i,
                    format!("人{i}"),
                    format!("人{i}"),
                    "",
                    concept,
                    Source::Tag,
                    0.9,
                ));
            }
        }
        let set = CandidateSet::merge(cands);
        let before = set.len();
        let (filtered, removed) = filter(
            set,
            &pages,
            &IncompatibleConfig::default(),
            &Runtime::new(2),
        );
        assert_eq!(removed, 0);
        assert_eq!(filtered.len(), before);
    }

    /// Small concepts (below min_extent) never participate.
    #[test]
    fn small_concepts_are_exempt() {
        let pages = vec![cnp_encyclopedia::Page {
            name: "甲".into(),
            infobox: vec![InfoboxTriple::new("职业", "演员")],
            ..Default::default()
        }];
        let set = CandidateSet::merge(vec![
            Candidate::new(0, "甲", "甲", "", "稀有概念一", Source::Tag, 0.9),
            Candidate::new(0, "甲", "甲", "", "稀有概念二", Source::Tag, 0.9),
        ]);
        let (_, removed) = filter(
            set,
            &pages,
            &IncompatibleConfig::default(),
            &Runtime::new(2),
        );
        assert_eq!(removed, 0);
    }
}
