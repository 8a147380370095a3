//! Unigram/bigram counting over token streams.
//!
//! These counts feed two parts of CN-Probase: the PMI model behind the
//! separation algorithm (adjacent-word collocation strength) and the
//! corpus-frequency side of the NE-support statistic `s1(H)`.

use std::collections::HashMap;

/// Accumulates unigram and adjacent-bigram counts from token sequences.
#[derive(Debug, Clone, Default)]
pub struct NgramCounter {
    uni: HashMap<String, u64>,
    bi: HashMap<(String, String), u64>,
    total_uni: u64,
    total_bi: u64,
}

impl NgramCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one token sequence (a segmented sentence).
    pub fn observe<S: AsRef<str>>(&mut self, tokens: &[S]) {
        for t in tokens {
            *self.uni.entry(t.as_ref().to_string()).or_insert(0) += 1;
            self.total_uni += 1;
        }
        for w in tokens.windows(2) {
            let key = (w[0].as_ref().to_string(), w[1].as_ref().to_string());
            *self.bi.entry(key).or_insert(0) += 1;
            self.total_bi += 1;
        }
    }

    /// Unigram count of `token`.
    pub fn unigram(&self, token: &str) -> u64 {
        self.uni.get(token).copied().unwrap_or(0)
    }

    /// Adjacent-bigram count of `(a, b)`.
    pub fn bigram(&self, a: &str, b: &str) -> u64 {
        self.bi
            .get(&(a.to_string(), b.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Total observed unigram tokens.
    pub fn total_unigrams(&self) -> u64 {
        self.total_uni
    }

    /// Total observed bigram positions.
    pub fn total_bigrams(&self) -> u64 {
        self.total_bi
    }

    /// Iterates `(token, count)` over unigrams in unspecified order.
    pub fn unigrams(&self) -> impl Iterator<Item = (&str, u64)> {
        self.uni.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &NgramCounter) {
        for (k, v) in &other.uni {
            *self.uni.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.bi {
            *self.bi.entry(k.clone()).or_insert(0) += v;
        }
        self.total_uni += other.total_uni;
        self.total_bi += other.total_bi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counts_unigrams_and_bigrams() {
        let mut c = NgramCounter::new();
        c.observe(&["蚂蚁", "金服", "蚂蚁"]);
        assert_eq!(c.unigram("蚂蚁"), 2);
        assert_eq!(c.unigram("金服"), 1);
        assert_eq!(c.bigram("蚂蚁", "金服"), 1);
        assert_eq!(c.bigram("金服", "蚂蚁"), 1);
        assert_eq!(c.bigram("金服", "金服"), 0);
        assert_eq!(c.total_unigrams(), 3);
        assert_eq!(c.total_bigrams(), 2);
    }

    #[test]
    fn empty_and_single_token_sequences() {
        let mut c = NgramCounter::new();
        c.observe::<&str>(&[]);
        c.observe(&["一"]);
        assert_eq!(c.total_unigrams(), 1);
        assert_eq!(c.total_bigrams(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = NgramCounter::new();
        a.observe(&["x", "y"]);
        let mut b = NgramCounter::new();
        b.observe(&["x", "y", "x"]);
        a.merge(&b);
        assert_eq!(a.unigram("x"), 3);
        assert_eq!(a.bigram("x", "y"), 2);
        assert_eq!(a.total_unigrams(), 5);
    }

    proptest! {
        /// Totals equal the sums of the individual counts.
        #[test]
        fn totals_are_consistent(seqs in proptest::collection::vec(
            proptest::collection::vec("[a-e]", 0..8), 0..10)) {
            let mut c = NgramCounter::new();
            for s in &seqs {
                c.observe(s);
            }
            let uni_sum: u64 = c.unigrams().map(|(_, v)| v).sum();
            prop_assert_eq!(uni_sum, c.total_unigrams());
            let expected_bi: u64 = seqs.iter().map(|s| s.len().saturating_sub(1) as u64).sum();
            prop_assert_eq!(c.total_bigrams(), expected_bi);
        }
    }
}
