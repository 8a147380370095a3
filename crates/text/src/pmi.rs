//! Pointwise mutual information between adjacent words.
//!
//! The separation algorithm (paper §II, Fig. 3) compares `PMI(x_{i-1}, x_i)`
//! with `PMI(x_i, x_{i+1})` to decide which neighbouring words of a bracket
//! compound belong to the same constituent: collocations *inside* a
//! multi-word unit (蚂蚁⊕金服) score higher than pairs that merely happen to
//! be adjacent (金服, 首席).
//!
//! ```text
//! PMI(a, b) = ln  p(a, b) / ( p(a) · p(b) )
//! ```
//!
//! with add-α smoothing (α = 0.1) on the bigram count so unseen pairs are
//! defined and strongly negative.

use crate::ngram::NgramCounter;

/// Add-α smoothing mass given to unseen bigrams.
const ALPHA: f64 = 0.1;

/// PMI model over corpus n-gram counts.
#[derive(Debug, Clone)]
pub struct PmiModel {
    counts: NgramCounter,
}

impl PmiModel {
    /// Wraps existing n-gram counts.
    pub fn new(counts: NgramCounter) -> Self {
        PmiModel { counts }
    }

    /// Read-only access to the underlying counts.
    pub fn counts(&self) -> &NgramCounter {
        &self.counts
    }

    /// Smoothed pointwise mutual information of the adjacent pair `(a, b)`.
    pub fn pmi(&self, a: &str, b: &str) -> f64 {
        let n_bi = (self.counts.total_bigrams() as f64).max(1.0);
        let n_uni = (self.counts.total_unigrams() as f64).max(1.0);
        let c_ab = self.counts.bigram(a, b) as f64 + ALPHA;
        let c_a = (self.counts.unigram(a) as f64).max(ALPHA);
        let c_b = (self.counts.unigram(b) as f64).max(ALPHA);
        let p_ab = c_ab / (n_bi + ALPHA * n_uni);
        let p_a = c_a / n_uni;
        let p_b = c_b / n_uni;
        (p_ab / (p_a * p_b)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A small corpus where 蚂蚁+金服 always co-occur but 金服+首席 only once.
    fn demo_model() -> PmiModel {
        let sentences: Vec<Vec<&str>> = vec![
            vec!["蚂蚁", "金服", "首席", "战略官"],
            vec!["蚂蚁", "金服", "成立"],
            vec!["蚂蚁", "金服", "发布", "产品"],
            vec!["蚂蚁", "金服", "上市"],
            vec!["首席", "执行官", "讲话"],
            vec!["首席", "战略官", "上任"],
            vec!["战略官", "离职"],
        ];
        let mut counts = NgramCounter::new();
        for s in &sentences {
            counts.observe(s);
        }
        PmiModel::new(counts)
    }

    #[test]
    fn collocation_scores_higher_than_chance_pair() {
        let m = demo_model();
        // Inside-unit pair vs. cross-boundary pair (paper's step-1 test).
        assert!(m.pmi("蚂蚁", "金服") > m.pmi("金服", "首席"));
        assert!(m.pmi("首席", "战略官") > m.pmi("金服", "首席"));
    }

    #[test]
    fn unseen_pair_is_strongly_negative() {
        let m = demo_model();
        assert!(m.pmi("蚂蚁", "离职") < m.pmi("蚂蚁", "金服"));
        assert!(m.pmi("蚂蚁", "离职") < 0.0);
    }

    proptest! {
        /// PMI is finite for any query over any small corpus.
        #[test]
        fn pmi_is_finite(seqs in proptest::collection::vec(
            proptest::collection::vec("[a-d]", 0..6), 0..8),
            a in "[a-e]", b in "[a-e]") {
            let mut counts = NgramCounter::new();
            for s in &seqs {
                counts.observe(s);
            }
            let m = PmiModel::new(counts);
            let v = m.pmi(&a, &b);
            prop_assert!(v.is_finite());
        }

        /// More co-occurrence (all else equal) never lowers PMI.
        #[test]
        fn pmi_monotone_in_cooccurrence(extra in 1usize..5) {
            let mut base = NgramCounter::new();
            base.observe(&["p", "q"]);
            base.observe(&["p", "x"]);
            base.observe(&["q", "x"]);
            let low = PmiModel::new(base.clone()).pmi("p", "q");
            for _ in 0..extra {
                base.observe(&["p", "q"]);
            }
            // Note: observing also raises unigram counts; PMI still rises
            // because the joint grows linearly while marginals grow sublinearly
            // relative to the joint in this construction.
            let high = PmiModel::new(base).pmi("p", "q");
            prop_assert!(high >= low - 1e-9, "low={low} high={high}");
        }
    }
}
