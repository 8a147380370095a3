//! Verification strategy A: incompatible concepts (paper §III-A, Eq. 1).
//!
//! Two concepts are *compatible* when they plausibly share entities
//! (singer/actor) and *incompatible* when they cannot (person/book).
//! Incompatible pairs are detected from data: low Jaccard overlap of
//! hyponym sets **and** low cosine similarity of attribute distributions.
//! When an entity carries two incompatible concepts, the one whose
//! attribute distribution diverges more from the entity's (larger KL,
//! Eq. 1) is dropped.

use crate::candidate::CandidateSet;
use cnp_encyclopedia::Page;
use cnp_runtime::Runtime;
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// Per-concept statistics gathered from the candidate set.
///
/// Distributions use `BTreeMap` so floating-point accumulation happens in a
/// fixed key order — keeping KL/cosine comparisons bit-for-bit
/// reproducible across runs (near-ties decide which edge gets dropped).
/// The hyponym pages (ascending, distinct) are borrowed from the
/// concept→pages index rather than duplicated per concept.
struct ConceptInfo<'a> {
    entities: &'a [usize],
    attr_dist: BTreeMap<String, f64>,
}

/// KL divergence `D(p ‖ q)` over attribute distributions with add-ε
/// smoothing on `q` (Eq. 1; smoothing keeps the score finite when the
/// concept lacks one of the entity's attributes).
pub fn kl_divergence(p: &BTreeMap<String, f64>, q: &BTreeMap<String, f64>) -> f64 {
    const EPS: f64 = 1e-6;
    let mut kl = 0.0;
    for (attr, &pv) in p {
        if pv <= 0.0 {
            continue;
        }
        let qv = q.get(attr).copied().unwrap_or(0.0) + EPS;
        kl += pv * (pv / qv).ln();
    }
    kl.max(0.0)
}

/// Cosine similarity of two sparse distributions.
pub fn cosine(p: &BTreeMap<String, f64>, q: &BTreeMap<String, f64>) -> f64 {
    let mut dot = 0.0;
    for (k, &pv) in p {
        if let Some(&qv) = q.get(k) {
            dot += pv * qv;
        }
    }
    let np: f64 = p.values().map(|v| v * v).sum::<f64>().sqrt();
    let nq: f64 = q.values().map(|v| v * v).sum::<f64>().sqrt();
    if np == 0.0 || nq == 0.0 {
        0.0
    } else {
        dot / (np * nq)
    }
}

/// Runs strategy A, returning the filtered candidate set and the number of
/// removed candidates.
///
/// All three expensive phases run in parallel partitions on the shared
/// runtime: per-page attribute gathering, per-concept statistics, and the
/// per-entity pair tests. The removal cascade is confined to one entity's
/// candidate list, so entity groups partition cleanly across workers and
/// the merged removal set is thread-count-independent.
pub fn filter(
    set: CandidateSet,
    pages: &[Page],
    cfg: &IncompatibleConfig,
    rt: &Runtime,
) -> (CandidateSet, usize) {
    // Entity attribute sets from infobox predicates (sorted + deduped for
    // deterministic accumulation order).
    let entity_attrs: Vec<Vec<&str>> = rt
        .par_chunks_indexed(pages, |_, chunk| {
            chunk
                .iter()
                .map(|p| {
                    let mut attrs: Vec<&str> =
                        p.infobox.iter().map(|t| t.predicate.as_str()).collect();
                    attrs.sort_unstable();
                    attrs.dedup();
                    attrs
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

    // Concept → distinct hyponym pages, both in ascending order, then
    // per-concept attribute distributions computed independently —
    // attribute counts accumulate in ascending page order, and
    // integer-valued f64 additions are exact, so the normalized
    // distribution is identical to the serial single-pass build.
    let mut concept_pages: BTreeMap<&str, Vec<usize>> = rt
        .par_map_reduce(
            &set.items,
            |_, chunk| {
                let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
                for c in chunk {
                    m.entry(c.hypernym.as_str()).or_default().push(c.page);
                }
                m
            },
            |mut acc, part| {
                for (k, mut v) in part {
                    acc.entry(k).or_default().append(&mut v);
                }
                acc
            },
        )
        .unwrap_or_default();
    for pages in concept_pages.values_mut() {
        pages.sort_unstable();
        pages.dedup();
    }
    let concept_names: Vec<&str> = concept_pages.keys().copied().collect();
    let infos: Vec<ConceptInfo> = rt.par_index_map(concept_names.len(), |i| {
        let entities = &concept_pages[concept_names[i]];
        let mut attr_dist: BTreeMap<String, f64> = BTreeMap::new();
        for &p in entities {
            for &a in &entity_attrs[p] {
                *attr_dist.entry(a.to_string()).or_insert(0.0) += 1.0;
            }
        }
        let total: f64 = attr_dist.values().sum();
        if total > 0.0 {
            for v in attr_dist.values_mut() {
                *v /= total;
            }
        }
        ConceptInfo {
            entities,
            attr_dist,
        }
    });
    let concepts: HashMap<&str, ConceptInfo> = concept_names.into_iter().zip(infos).collect();

    // Entity attribute distributions (uniform over the page's predicates).
    let entity_dist: Vec<BTreeMap<String, f64>> = rt
        .par_chunks_indexed(&entity_attrs, |_, chunk| {
            chunk
                .iter()
                .map(|attrs| {
                    let n = attrs.len().max(1) as f64;
                    attrs
                        .iter()
                        .map(|a| ((*a).to_string(), 1.0 / n))
                        .collect::<BTreeMap<String, f64>>()
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

    // Group candidates per entity. BTreeMap keeps the group order
    // deterministic; removal decisions cascade (a removed edge is skipped
    // in later pair tests), but only *within* a group, so groups fan out
    // to workers independently.
    let mut by_entity: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, c) in set.items.iter().enumerate() {
        by_entity.entry(c.entity_key.as_str()).or_default().push(i);
    }
    let groups: Vec<&Vec<usize>> = by_entity.values().collect();

    let is_incompatible = |a: &ConceptInfo, b: &ConceptInfo| -> bool {
        if a.entities.len() < cfg.min_extent || b.entities.len() < cfg.min_extent {
            return false;
        }
        let mut pair = [a.entities, b.entities];
        pair.sort_by_key(|pages| pages.len());
        let [small, large] = pair;
        let inter = small.iter().filter(|p| large.binary_search(p).is_ok());
        let inter = inter.count() as f64;
        let union = (a.entities.len() + b.entities.len()) as f64 - inter;
        let jaccard = if union == 0.0 { 0.0 } else { inter / union };
        if jaccard > cfg.max_jaccard {
            return false;
        }
        cosine(&a.attr_dist, &b.attr_dist) < cfg.max_cosine
    };

    let removed: HashSet<usize> = rt
        .par_map_reduce(
            &groups,
            |_, group_chunk| {
                let mut removed: HashSet<usize> = HashSet::new();
                for indices in group_chunk {
                    for (ai, &i) in indices.iter().enumerate() {
                        for &j in indices.iter().skip(ai + 1) {
                            if removed.contains(&i) || removed.contains(&j) {
                                continue;
                            }
                            let (ci, cj) = (&set.items[i], &set.items[j]);
                            let (Some(info_i), Some(info_j)) = (
                                concepts.get(ci.hypernym.as_str()),
                                concepts.get(cj.hypernym.as_str()),
                            ) else {
                                continue;
                            };
                            if !is_incompatible(info_i, info_j) {
                                continue;
                            }
                            // Drop the concept with larger KL(v_att(e) ‖ v_att(c)).
                            let e_dist = &entity_dist[ci.page];
                            let kl_i = kl_divergence(e_dist, &info_i.attr_dist);
                            let kl_j = kl_divergence(e_dist, &info_j.attr_dist);
                            removed.insert(if kl_i > kl_j { i } else { j });
                        }
                    }
                }
                removed
            },
            |mut acc, part| {
                acc.extend(part);
                acc
            },
        )
        .unwrap_or_default();

    let n_removed = removed.len();
    let items = set
        .items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !removed.contains(i))
        .map(|(_, c)| c)
        .collect();
    (CandidateSet { items }, n_removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;
    use cnp_encyclopedia::InfoboxTriple;
    use cnp_taxonomy::Source;

    fn dist(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
    }

    #[test]
    fn kl_is_zero_for_identical_and_positive_otherwise() {
        let p = dist(&[("a", 0.5), ("b", 0.5)]);
        let q = dist(&[("a", 0.5), ("b", 0.5)]);
        assert!(kl_divergence(&p, &q) < 1e-9);
        let r = dist(&[("c", 1.0)]);
        assert!(kl_divergence(&p, &r) > 1.0);
    }

    #[test]
    fn cosine_bounds() {
        let p = dist(&[("a", 1.0)]);
        let q = dist(&[("a", 2.0)]);
        assert!((cosine(&p, &q) - 1.0).abs() < 1e-9);
        let r = dist(&[("b", 1.0)]);
        assert_eq!(cosine(&p, &r), 0.0);
        assert_eq!(cosine(&p, &BTreeMap::new()), 0.0);
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
