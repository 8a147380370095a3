//! Verification strategy B: named-entity hypernyms (paper §III-B, Eq. 2).
//!
//! A named entity (美国, 刘德华) names an individual, so it cannot be a
//! hypernym. Two independent support signals are combined by a noisy-or:
//!
//! * `s1(H)` — share of corpus occurrences of `H` that are NE usages
//!   (from [`cnp_text::ner::NeStats`], built over the whole corpus);
//! * `s2(H)` — NE support inside the taxonomy under construction: how often
//!   `H` occurs as an entity (page name) versus as a hypernym.
//!
//! Candidates whose hypernym support exceeds the threshold are dropped.

use crate::candidate::CandidateSet;
use crate::context::PipelineContext;
use cnp_encyclopedia::Page;
use cnp_runtime::Runtime;
use cnp_text::ner::noisy_or;
use std::collections::HashMap;

/// Configuration for strategy B.
#[derive(Debug, Clone)]
pub struct NerFilterConfig {
    /// Candidates with `s(H)` above this are removed (paper: empirical).
    pub threshold: f64,
}

impl Default for NerFilterConfig {
    fn default() -> Self {
        NerFilterConfig { threshold: 0.6 }
    }
}

/// Computes `s2(H)` for every hypernym in the set: entity-usage count over
/// total usage count within the (candidate) taxonomy. Both usage counters
/// build in parallel chunks; counts are additive, so the support map is
/// thread-count-independent.
pub fn taxonomy_support(set: &CandidateSet, pages: &[Page], rt: &Runtime) -> HashMap<String, f64> {
    fn count_by<'a, T: Sync>(
        rt: &Runtime,
        items: &'a [T],
        key: impl Fn(&'a T) -> &'a str + Sync,
    ) -> HashMap<&'a str, usize> {
        rt.par_map_reduce(
            items,
            |_, chunk| {
                let mut m: HashMap<&str, usize> = HashMap::new();
                for t in chunk {
                    *m.entry(key(t)).or_insert(0) += 1;
                }
                m
            },
            |mut acc, part| {
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "merging a chunk's counts into the accumulator: integer addition per key commutes, so the order entries arrive in cannot reach the sums"
                )]
                for (k, n) in part {
                    *acc.entry(k).or_insert(0) += n;
                }
                acc
            },
        )
        .unwrap_or_default()
    }
    let page_names = count_by(rt, pages, |p| p.name.as_str());
    let hyper_usage = count_by(rt, &set.items, |c| c.hypernym.as_str());
    let mut support = HashMap::new();
    for c in &set.items {
        let h = c.hypernym.as_str();
        if support.contains_key(h) {
            continue;
        }
        let as_entity = page_names.get(h).copied().unwrap_or(0) as f64;
        let as_hyper = hyper_usage.get(h).copied().unwrap_or(0) as f64;
        // A name that is *only* a page (never reused as hypernym
        // elsewhere) is pure NE; frequent hypernym usage dilutes it.
        let s2 = if as_entity + as_hyper == 0.0 {
            0.0
        } else {
            as_entity / (as_entity + as_hyper)
        };
        support.insert(h.to_string(), s2);
    }
    support
}

/// Runs strategy B; returns the filtered set and the removal count. The
/// per-candidate noisy-or test evaluates in parallel partitions
/// ([`Runtime::par_classify_retain`]), preserving the serial surviving
/// order.
pub fn filter(
    set: CandidateSet,
    pages: &[Page],
    ctx: &PipelineContext,
    cfg: &NerFilterConfig,
    rt: &Runtime,
) -> (CandidateSet, usize) {
    let s2 = taxonomy_support(&set, pages, rt);
    let before = set.len();
    let (items, _) = rt.par_classify_retain(
        set.items,
        |c| {
            let s1 = ctx.ne_stats.support(&c.hypernym);
            let s2 = s2.get(&c.hypernym).copied().unwrap_or(0.0);
            noisy_or(s1, s2) <= cfg.threshold
        },
        |&keep| keep,
    );
    let removed = before - items.len();
    (CandidateSet { items }, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;
    use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};
    use cnp_taxonomy::Source;

    #[test]
    fn s2_high_for_pure_entities_low_for_concepts() {
        let pages = vec![
            cnp_encyclopedia::Page {
                name: "临江市".into(),
                ..Default::default()
            },
            cnp_encyclopedia::Page {
                name: "甲".into(),
                ..Default::default()
            },
        ];
        let set = CandidateSet::merge(vec![
            Candidate::new(1, "甲", "甲", "", "临江市", Source::Tag, 0.9),
            Candidate::new(1, "甲", "甲", "", "演员", Source::Tag, 0.9),
            Candidate::new(0, "临江市", "临江市", "", "演员", Source::Tag, 0.9),
        ]);
        let s2 = taxonomy_support(&set, &pages, &Runtime::new(2));
        // 临江市: 1 page, 1 hypernym usage → 0.5; 演员: 0 pages, 2 usages → 0.
        assert!((s2["临江市"] - 0.5).abs() < 1e-9);
        assert_eq!(s2["演员"], 0.0);
    }

    #[test]
    fn removes_ne_hypernyms_keeps_concepts() {
        // Both NE hypernyms below need corpus support. 美国 occurs in
        // generated text of any seed; 临江市 only sometimes, so add its
        // page explicitly rather than depending on the RNG stream.
        let mut corpus = CorpusGenerator::new(CorpusConfig::tiny(41)).generate();
        corpus.pages.push(cnp_encyclopedia::Page {
            name: "临江市".into(),
            ..Default::default()
        });
        let ctx = crate::context::PipelineContext::build(&corpus, 2);
        let set = CandidateSet::merge(vec![
            Candidate::new(0, "某人", "某人", "", "美国", Source::Tag, 0.9),
            Candidate::new(0, "某人", "某人", "", "演员", Source::Tag, 0.9),
            Candidate::new(0, "某人", "某人", "", "临江市", Source::Tag, 0.9),
        ]);
        let (filtered, removed) = filter(
            set,
            &corpus.pages,
            &ctx,
            &NerFilterConfig::default(),
            &Runtime::new(2),
        );
        assert!(
            removed >= 2,
            "NE hypernyms should be removed, got {removed}"
        );
        assert!(filtered.items.iter().any(|c| c.hypernym == "演员"));
        assert!(!filtered.items.iter().any(|c| c.hypernym == "美国"));
    }

    #[test]
    fn threshold_one_disables_filtering() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(42)).generate();
        let ctx = crate::context::PipelineContext::build(&corpus, 2);
        let set = CandidateSet::merge(vec![Candidate::new(
            0,
            "某人",
            "某人",
            "",
            "美国",
            Source::Tag,
            0.9,
        )]);
        let (filtered, removed) = filter(
            set,
            &corpus.pages,
            &ctx,
            &NerFilterConfig { threshold: 1.0 },
            &Runtime::serial(),
        );
        assert_eq!(removed, 0);
        assert_eq!(filtered.len(), 1);
    }
}
