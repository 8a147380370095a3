//! Predicate discovery on infobox SPO triples (paper §II).
//!
//! Distant supervision: high-precision isA pairs from the bracket source
//! are aligned with `<entity, predicate, value>` triples. A predicate whose
//! values frequently coincide with known hypernyms encodes an implicit isA
//! relation (职业, 类型 …). The paper discovered **341 candidates** and
//! manually kept **12**; we rank candidates by alignment rate and keep the
//! top `k = 12` (the manual-selection stand-in), then extract isA
//! relations from the selected predicates' triples.

use crate::candidate::Candidate;
use cnp_encyclopedia::Page;
use cnp_runtime::Runtime;
use cnp_taxonomy::Source;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Default confidence for infobox-derived candidates.
pub const INFOBOX_CONFIDENCE: f32 = 0.85;

/// One discovered predicate with its alignment statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateStats {
    /// Predicate name.
    pub predicate: String,
    /// Triples of this predicate whose value matched a bracket hypernym.
    pub aligned: usize,
    /// Total triples of this predicate.
    pub total: usize,
}

impl PredicateStats {
    /// Alignment rate (the selection score).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.aligned as f64 / self.total as f64
        }
    }
}

/// Outcome of predicate discovery.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// Every predicate with ≥ 1 alignment (paper: 341 candidates).
    pub candidates: Vec<PredicateStats>,
    /// The selected isA-bearing predicates (paper: 12, manually chosen).
    pub selected: Vec<String>,
}

/// Discovers isA-bearing predicates by aligning bracket pairs with triples.
///
/// `bracket_pairs` maps entity keys to their bracket-derived hypernyms.
/// Alignment counting runs in parallel page chunks; the per-chunk counts
/// are additive, so the merged statistics are thread-count-independent.
pub fn discover_predicates(
    pages: &[Page],
    bracket_pairs: &HashMap<String, HashSet<String>>,
    top_k: usize,
    min_support: usize,
    rt: &Runtime,
) -> DiscoveryResult {
    let stats: BTreeMap<&str, (usize, usize)> = rt
        .par_map_reduce(
            pages,
            |_, chunk| {
                let mut stats: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
                for page in chunk {
                    let key = page.key();
                    let known = bracket_pairs.get(&key);
                    for t in &page.infobox {
                        let entry = stats.entry(t.predicate.as_str()).or_insert((0, 0));
                        entry.1 += 1;
                        if let Some(known) = known {
                            if known.contains(&t.value) {
                                entry.0 += 1;
                            }
                        }
                    }
                }
                stats
            },
            |mut acc, part| {
                for (p, (aligned, total)) in part {
                    let entry = acc.entry(p).or_insert((0, 0));
                    entry.0 += aligned;
                    entry.1 += total;
                }
                acc
            },
        )
        .unwrap_or_default();
    let mut candidates: Vec<PredicateStats> = stats
        .into_iter()
        .filter(|(_, (aligned, _))| *aligned >= 1)
        .map(|(p, (aligned, total))| PredicateStats {
            predicate: p.to_string(),
            aligned,
            total,
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.rate()
            .partial_cmp(&a.rate())
            .unwrap()
            .then_with(|| b.aligned.cmp(&a.aligned))
            .then_with(|| a.predicate.cmp(&b.predicate))
    });
    let selected = candidates
        .iter()
        .filter(|c| c.total >= min_support)
        .take(top_k)
        .map(|c| c.predicate.clone())
        .collect();
    DiscoveryResult {
        candidates,
        selected,
    }
}

/// Extracts isA candidates from the selected predicates' triples, in
/// parallel page chunks concatenated in page order.
///
/// Values that cannot be class names (digits, over-long literals,
/// punctuation) are dropped at extraction time.
pub fn extract(pages: &[Page], selected: &[String], rt: &Runtime) -> Vec<Candidate> {
    let wanted: HashSet<&str> = selected.iter().map(String::as_str).collect();
    let parts = rt.par_chunks_indexed(pages, |base, chunk| {
        let mut out = Vec::new();
        for (off, page) in chunk.iter().enumerate() {
            for t in &page.infobox {
                if !wanted.contains(t.predicate.as_str()) {
                    continue;
                }
                if !plausible_class_value(&t.value) || t.value == page.name {
                    continue;
                }
                out.push(Candidate::new(
                    base + off,
                    page.key(),
                    page.name.clone(),
                    page.bracket_str(),
                    t.value.clone(),
                    Source::Infobox,
                    INFOBOX_CONFIDENCE,
                ));
            }
        }
        out
    });
    parts.into_iter().flatten().collect()
}

/// A value can name a class when it is short, purely Han, digit-free text.
fn plausible_class_value(v: &str) -> bool {
    let n = v.chars().count();
    (2..=8).contains(&n) && v.chars().all(cnp_text::chars::is_han)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_encyclopedia::InfoboxTriple;

    fn page(name: &str, triples: Vec<(&str, &str)>) -> Page {
        Page {
            name: name.into(),
            infobox: triples
                .into_iter()
                .map(|(p, v)| InfoboxTriple::new(p, v))
                .collect(),
            ..Default::default()
        }
    }

    fn bracket_pairs(pairs: &[(&str, &str)]) -> HashMap<String, HashSet<String>> {
        let mut m: HashMap<String, HashSet<String>> = HashMap::new();
        for (e, h) in pairs {
            m.entry((*e).to_string())
                .or_default()
                .insert((*h).to_string());
        }
        m
    }

    #[test]
    fn discovery_ranks_isa_predicates_first() {
        let pages = vec![
            page("甲", vec![("职业", "歌手"), ("出生地", "临江市")]),
            page("乙", vec![("职业", "演员"), ("相关奖项", "演员")]),
            page("丙", vec![("职业", "作家"), ("出生地", "云梦县")]),
        ];
        let known = bracket_pairs(&[("甲", "歌手"), ("乙", "演员"), ("丙", "作家")]);
        let result = discover_predicates(&pages, &known, 1, 2, &Runtime::new(2));
        // 职业 aligns 3/3; 相关奖项 aligns 1/1 but lacks support.
        assert_eq!(result.selected, vec!["职业"]);
        assert!(result.candidates.iter().any(|c| c.predicate == "相关奖项"));
        let occupation = result
            .candidates
            .iter()
            .find(|c| c.predicate == "职业")
            .unwrap();
        assert_eq!(occupation.aligned, 3);
        assert_eq!(occupation.total, 3);
        assert!((occupation.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unaligned_predicates_are_not_candidates() {
        let pages = vec![page("甲", vec![("职业", "歌手"), ("身高", "180cm")])];
        let known = bracket_pairs(&[("甲", "歌手")]);
        let result = discover_predicates(&pages, &known, 12, 1, &Runtime::serial());
        assert!(result.candidates.iter().all(|c| c.predicate != "身高"));
    }

    #[test]
    fn extraction_uses_only_selected_predicates() {
        let pages = vec![page(
            "甲",
            vec![("职业", "歌手"), ("出生地", "临江市"), ("职业", "演员")],
        )];
        let cands = extract(&pages, &["职业".to_string()], &Runtime::new(2));
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.source == Source::Infobox));
        assert!(cands.iter().any(|c| c.hypernym == "歌手"));
        assert!(cands.iter().any(|c| c.hypernym == "演员"));
    }

    #[test]
    fn implausible_values_are_dropped() {
        let pages = vec![page(
            "甲",
            vec![("职业", "180cm"), ("职业", "歌"), ("职业", "自由撰稿人")],
        )];
        let cands = extract(&pages, &["职业".to_string()], &Runtime::new(2));
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].hypernym, "自由撰稿人");
    }

    #[test]
    fn self_values_are_dropped() {
        let pages = vec![page("演员", vec![("职业", "演员")])];
        let cands = extract(&pages, &["职业".to_string()], &Runtime::new(2));
        assert!(cands.is_empty());
    }
}
