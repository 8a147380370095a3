//! BMES hidden Markov model for out-of-vocabulary segmentation.
//!
//! The dictionary DAG cannot segment spans containing no dictionary words
//! (e.g. unseen person names). Like jieba, we run a character-level HMM over
//! such spans: states are **B**egin / **M**iddle / **E**nd / **S**ingle, and
//! the Viterbi path induces word boundaries.
//!
//! The default model encodes the robust prior that two-character words
//! dominate Chinese; [`HmmModel::train`] re-estimates all parameters from a
//! segmented corpus (the CN-Probase pipeline trains it on its own
//! bootstrapped segmentations, a form of distant supervision).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashMap;
use std::ops::Range;

/// BMES state indices.
pub const B: usize = 0;
/// Middle state.
pub const M: usize = 1;
/// End state.
pub const E: usize = 2;
/// Single-character-word state.
pub const S: usize = 3;

const N_STATES: usize = 4;
const NEG_INF: f64 = f64::NEG_INFINITY;

/// Character-level BMES HMM with log-space parameters.
#[derive(Debug, Clone)]
pub struct HmmModel {
    /// log P(state at position 0). Only B and S are valid starts.
    start: [f64; N_STATES],
    /// log P(next_state | state).
    trans: [[f64; N_STATES]; N_STATES],
    /// log P(char | state); chars absent from the map use `emit_floor`.
    emit: [HashMap<char, f64>; N_STATES],
    /// Log-probability floor for unseen (state, char) pairs.
    emit_floor: f64,
}

impl Default for HmmModel {
    fn default() -> Self {
        // Hand-set priors: ~60% of OOV tokens are 2-char words, ~25% single
        // chars, the rest longer. Emissions are uniform until trained.
        let ln = |p: f64| p.ln();
        let mut trans = [[NEG_INF; N_STATES]; N_STATES];
        trans[B][M] = ln(0.15);
        trans[B][E] = ln(0.85);
        trans[M][M] = ln(0.30);
        trans[M][E] = ln(0.70);
        trans[E][B] = ln(0.60);
        trans[E][S] = ln(0.40);
        trans[S][B] = ln(0.55);
        trans[S][S] = ln(0.45);
        let mut start = [NEG_INF; N_STATES];
        start[B] = ln(0.70);
        start[S] = ln(0.30);
        HmmModel {
            start,
            trans,
            emit: Default::default(),
            emit_floor: ln(1.0 / 6000.0),
        }
    }
}

impl HmmModel {
    /// Trains all parameters from `(sentence, word_boundaries)` examples,
    /// where each example is a sequence of already-segmented words.
    ///
    /// Uses add-one smoothing on transitions and starts; emission floors are
    /// set to one count below the rarest observed emission.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is a BMES state: the constants, a loop over 0..N_STATES, or word_states' output, all < N_STATES"
    )]
    pub fn train<S1, I, J>(examples: I) -> Self
    where
        S1: AsRef<str>,
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = S1>,
    {
        let mut start_c = [1.0f64; N_STATES];
        let mut trans_c = [[0.0f64; N_STATES]; N_STATES];
        // Structural zeros: only BM, BE, MM, ME, EB, ES, SB, SS are legal.
        for (a, b) in [
            (B, M),
            (B, E),
            (M, M),
            (M, E),
            (E, B),
            (E, S),
            (S, B),
            (S, S),
        ] {
            trans_c[a][b] = 1.0;
        }
        let mut emit_c: [HashMap<char, f64>; N_STATES] = Default::default();
        let mut emit_tot = [0.0f64; N_STATES];

        for sentence in examples {
            let mut prev: Option<usize> = None;
            let mut first = true;
            for word in sentence {
                let chars: Vec<char> = word.as_ref().chars().collect();
                if chars.is_empty() {
                    continue;
                }
                let states = word_states(chars.len());
                for (i, (&c, &st)) in chars.iter().zip(states.iter()).enumerate() {
                    if first && i == 0 {
                        start_c[st] += 1.0;
                    }
                    if let Some(p) = prev {
                        if is_legal(p, st) {
                            trans_c[p][st] += 1.0;
                        }
                    }
                    *emit_c[st].entry(c).or_insert(0.0) += 1.0;
                    emit_tot[st] += 1.0;
                    prev = Some(st);
                }
                first = false;
            }
        }

        let start_tot: f64 = start_c[B] + start_c[S];
        let mut start = [NEG_INF; N_STATES];
        start[B] = (start_c[B] / start_tot).ln();
        start[S] = (start_c[S] / start_tot).ln();

        let mut trans = [[NEG_INF; N_STATES]; N_STATES];
        for a in 0..N_STATES {
            let row_tot: f64 = trans_c[a].iter().sum();
            if row_tot > 0.0 {
                for b in 0..N_STATES {
                    if trans_c[a][b] > 0.0 {
                        trans[a][b] = (trans_c[a][b] / row_tot).ln();
                    }
                }
            }
        }

        let mut emit: [HashMap<char, f64>; N_STATES] = Default::default();
        let mut min_p = 1.0f64;
        for st in 0..N_STATES {
            let tot = emit_tot[st].max(1.0);
            for (&c, &cnt) in &emit_c[st] {
                let p = cnt / tot;
                min_p = min_p.min(p);
                emit[st].insert(c, p.ln());
            }
        }
        HmmModel {
            start,
            trans,
            emit,
            emit_floor: (min_p * 0.5).max(1e-9).ln(),
        }
    }

    fn emit_lp(&self, st: usize, c: char) -> f64 {
        self.emit
            .get(st)
            .and_then(|row| row.get(&c))
            .copied()
            .unwrap_or(self.emit_floor)
    }

    /// Viterbi-decodes `chars` into the most likely BMES state sequence.
    #[expect(
        clippy::indexing_slicing,
        reason = "dp, back and states hold n = chars.len() ≥ 1 rows indexed by 0..n, and every state index is < N_STATES"
    )]
    pub fn viterbi(&self, chars: &[char]) -> Vec<usize> {
        if chars.is_empty() {
            return Vec::new();
        }
        let n = chars.len();
        let mut dp = vec![[NEG_INF; N_STATES]; n];
        let mut back = vec![[0usize; N_STATES]; n];
        for (st, cell) in dp[0].iter_mut().enumerate() {
            *cell = self.start[st] + self.emit_lp(st, chars[0]);
        }
        for i in 1..n {
            for st in 0..N_STATES {
                let e = self.emit_lp(st, chars[i]);
                let mut best = NEG_INF;
                let mut arg = 0usize;
                for (prev, (&prev_score, trans_row)) in
                    dp[i - 1].iter().zip(self.trans.iter()).enumerate()
                {
                    let score = prev_score + trans_row[st];
                    if score > best {
                        best = score;
                        arg = prev;
                    }
                }
                dp[i][st] = best + e;
                back[i][st] = arg;
            }
        }
        // A word cannot end mid-token: final state must be E or S.
        let mut last = if dp[n - 1][E] >= dp[n - 1][S] { E } else { S };
        if dp[n - 1][last] == NEG_INF {
            last = (0..N_STATES)
                .max_by(|&a, &b| dp[n - 1][a].total_cmp(&dp[n - 1][b]))
                .unwrap_or(S);
        }
        let mut states = vec![0usize; n];
        states[n - 1] = last;
        for i in (1..n).rev() {
            states[i - 1] = back[i][states[i]];
        }
        states
    }

    /// Segments a char span into words via Viterbi decoding.
    pub fn cut(&self, chars: &[char]) -> Vec<String> {
        let mut words = Vec::new();
        self.cut_ranges(chars, |range| {
            words.push(chars.get(range).unwrap_or_default().iter().collect());
        });
        words
    }

    /// The one BMES split behind [`HmmModel::cut`] and the segmenter's
    /// out-of-vocabulary fallback: calls `word(range)` for every word of
    /// the Viterbi path, left to right, where `range` indexes `chars`. A
    /// word ends after each `E` or `S` state; a path that ends inside a
    /// word closes it at the last character.
    pub(crate) fn cut_ranges(&self, chars: &[char], mut word: impl FnMut(Range<usize>)) {
        let mut start = 0usize;
        for (i, st) in self.viterbi(chars).into_iter().enumerate() {
            if st == E || st == S {
                word(start..i + 1);
                start = i + 1;
            }
        }
        if start < chars.len() {
            word(start..chars.len());
        }
    }
}

/// BMES states for a word of length `n`.
fn word_states(n: usize) -> Vec<usize> {
    match n {
        0 => Vec::new(),
        1 => vec![S],
        _ => {
            let mut v = vec![B];
            v.extend(std::iter::repeat(M).take(n - 2));
            v.push(E);
            v
        }
    }
}

fn is_legal(a: usize, b: usize) -> bool {
    matches!(
        (a, b),
        (B, M) | (B, E) | (M, M) | (M, E) | (E, B) | (E, S) | (S, B) | (S, S)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn word_states_shapes() {
        assert_eq!(word_states(1), vec![S]);
        assert_eq!(word_states(2), vec![B, E]);
        assert_eq!(word_states(4), vec![B, M, M, E]);
    }

    #[test]
    fn default_model_prefers_two_char_words() {
        let m = HmmModel::default();
        let chars: Vec<char> = "阿里巴巴".chars().collect();
        let words = m.cut(&chars);
        assert_eq!(words, vec!["阿里", "巴巴"]);
    }

    #[test]
    fn cut_covers_input_exactly() {
        let m = HmmModel::default();
        let text = "王小明李大龙";
        let chars: Vec<char> = text.chars().collect();
        let rejoined: String = m.cut(&chars).concat();
        assert_eq!(rejoined, text);
    }

    #[test]
    fn trained_model_learns_three_char_names() {
        // Train on a corpus where 3-char person names are the norm.
        let corpus: Vec<Vec<&str>> = vec![
            vec!["王小明", "是", "演员"],
            vec!["李大龙", "是", "歌手"],
            vec!["张文博", "是", "作家"],
            vec!["刘天昊", "是", "导演"],
            vec!["陈雨晨", "是", "医生"],
            vec!["杨志远", "是", "教师"],
        ];
        let m = HmmModel::train(corpus.iter().map(|s| s.iter().copied()));
        let chars: Vec<char> = "赵小阳".chars().collect();
        let words = m.cut(&chars);
        assert_eq!(
            words,
            vec!["赵小阳"],
            "trained HMM should keep 3-char names whole"
        );
    }

    #[test]
    fn viterbi_ends_in_e_or_s() {
        let m = HmmModel::default();
        for text in ["中", "中文", "中文分", "中文分词器"] {
            let chars: Vec<char> = text.chars().collect();
            let states = m.viterbi(&chars);
            let last = *states.last().unwrap();
            assert!(last == E || last == S, "text {text} ended in state {last}");
        }
    }

    #[test]
    fn empty_input() {
        let m = HmmModel::default();
        assert!(m.viterbi(&[]).is_empty());
        assert!(m.cut(&[]).is_empty());
    }

    proptest! {
        /// cut() must partition the input: concatenation equals the original,
        /// and no word is empty.
        #[test]
        fn cut_is_a_partition(text in "[一-龥]{1,20}") {
            let m = HmmModel::default();
            let chars: Vec<char> = text.chars().collect();
            let words = m.cut(&chars);
            prop_assert!(words.iter().all(|w| !w.is_empty()));
            prop_assert_eq!(words.concat(), text);
        }

        /// State sequences obey BMES grammar (B/M followed by M/E; E/S followed by B/S).
        #[test]
        fn viterbi_states_are_grammatical(text in "[一-龥]{2,15}") {
            let m = HmmModel::default();
            let chars: Vec<char> = text.chars().collect();
            let states = m.viterbi(&chars);
            for w in states.windows(2) {
                prop_assert!(is_legal(w[0], w[1]), "illegal transition {:?}", w);
            }
        }
    }
}
