//! Dictionary-DAG word segmentation with max-probability dynamic
//! programming and an HMM fallback — the jieba algorithm, from scratch.
//!
//! Pipeline per sentence:
//! 1. split the text into character-class runs ([`crate::chars::class_runs`]);
//! 2. inside each Han run, build the word DAG from dictionary prefix
//!    matches and pick the maximum-log-probability path (unigram model);
//! 3. re-segment maximal spans of unknown single characters with the BMES
//!    HMM ([`crate::hmm`]), recovering out-of-vocabulary words.
//!
//! The CN-Probase *separation algorithm* (paper §II, Fig. 3) runs this
//! segmenter on bracket noun compounds before its PMI merge loop.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::chars::{class_runs, Run};
use crate::dict::Dictionary;
use crate::hmm::HmmModel;
use std::ops::Range;

/// A word segmenter over a frequency dictionary.
#[derive(Debug, Clone)]
pub struct Segmenter {
    dict: Dictionary,
    hmm: HmmModel,
}

impl Segmenter {
    /// Creates a segmenter with the default (untrained) HMM.
    pub fn new(dict: Dictionary) -> Self {
        Self::with_hmm(dict, HmmModel::default())
    }

    /// Creates a segmenter with a trained HMM. The dictionary is taken as
    /// done growing, and its index's spare capacity is given back.
    pub fn with_hmm(mut dict: Dictionary, hmm: HmmModel) -> Self {
        dict.shrink_to_fit();
        Segmenter { dict, hmm }
    }

    /// Read-only access to the dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Segments `text` into tokens. Punctuation runs are emitted as single
    /// tokens; ASCII alphanumeric runs are kept atomic.
    pub fn segment(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.segment_runs(text, true, &mut out);
        out.into_iter().map(str::to_string).collect()
    }

    /// [`Segmenter::segment`] without copying: appends the tokens of
    /// `text` to `out` as slices of `text`, which they partition exactly,
    /// in order. It allocates only its scratch buffers and `out`'s growth.
    pub fn segment_into<'t>(&self, text: &'t str, out: &mut Vec<&'t str>) {
        self.segment_runs(text, true, out);
    }

    /// Segments `text` and drops punctuation/whitespace tokens — the
    /// convenient form for corpus statistics.
    pub fn words(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.segment_runs(text, false, &mut out);
        out.into_iter().map(str::to_string).collect()
    }

    /// The borrowing core of every form: one scratch set for all of
    /// `text`'s Han runs, punctuation runs kept or dropped.
    fn segment_runs<'t>(&self, text: &'t str, keep_punct: bool, out: &mut Vec<&'t str>) {
        let mut scratch = HanScratch::default();
        for run in class_runs(text) {
            match run {
                Run::Han(s) => self.segment_han(s, &mut scratch, out),
                Run::Alnum(s) => out.push(s),
                Run::Punct(s) if keep_punct => out.push(s),
                Run::Punct(_) => {}
            }
        }
    }

    /// Max-probability DP over the word DAG of a pure-Han span, with the
    /// HMM pass over unknown single-char stretches.
    ///
    /// Every edge is priced from the [`crate::dict::WordInfo`] its prefix
    /// match already carries. The single-character edge always exists: at
    /// the character's own frequency when the dictionary holds it, at the
    /// one-count floor otherwise — and the route records which, so the
    /// walk tells an unknown single from a word without a lookup. Nothing
    /// is allocated per position, per edge or per token: tokens are
    /// slices of `s`, cut at the byte offsets `scratch` keeps beside the
    /// characters.
    #[expect(
        clippy::indexing_slicing,
        reason = "route and bytes have n + 1 entries and chars n; i < n, and every end is i + 1 or a prefix-match end ≤ n"
    )]
    fn segment_han<'t>(&self, s: &'t str, scratch: &mut HanScratch, out: &mut Vec<&'t str>) {
        let HanScratch {
            chars,
            bytes,
            route,
        } = scratch;
        chars.clear();
        bytes.clear();
        for (at, c) in s.char_indices() {
            chars.push(c);
            bytes.push(at);
        }
        bytes.push(s.len());
        let n = chars.len();
        if n == 0 {
            return;
        }
        // route[i] = (best score of chars[i..], end index of first word,
        // whether chars[i] alone is a dictionary word).
        route.clear();
        route.resize(n + 1, (0.0, 0, false));
        for i in (0..n).rev() {
            // Matches come shortest first: a dictionary single leads, and
            // replaces the one-count floor before any longer edge is priced.
            let mut known_single = false;
            let mut best = (self.dict.log_prob_of(1) + route[i + 1].0, i + 1);
            self.dict.for_each_match(chars, i, |end, info| {
                let score = self.dict.log_prob_of(info.freq) + route[end].0;
                if end == i + 1 {
                    known_single = true;
                    best.0 = score;
                } else if score > best.0 {
                    best = (score, end);
                }
            });
            route[i] = (best.0, best.1, known_single);
        }

        // Walk the best path, buffering unknown single chars for the HMM.
        let scratch = &*scratch;
        let mut i = 0usize;
        let mut oov_start: Option<usize> = None;
        while i < n {
            let (_, end, known_single) = scratch.route[i];
            if end == i + 1 && !known_single {
                oov_start.get_or_insert(i);
            } else {
                self.flush_oov(s, scratch, oov_start.take(), i, out);
                out.push(scratch.slice(s, i..end));
            }
            i = end;
        }
        self.flush_oov(s, scratch, oov_start, n, out);
    }

    /// Emits the unknown single characters `start..end` of the Han run
    /// `s`: one token each, or the HMM's words when there are two or more.
    fn flush_oov<'t>(
        &self,
        s: &'t str,
        scratch: &HanScratch,
        oov: Option<usize>,
        end: usize,
        out: &mut Vec<&'t str>,
    ) {
        let Some(start) = oov else {
            return;
        };
        let span = scratch.chars.get(start..end).unwrap_or_default();
        if span.len() == 1 {
            out.extend((start..end).map(|i| scratch.slice(s, i..i + 1)));
        } else {
            self.hmm.cut_ranges(span, |word| {
                out.push(scratch.slice(s, start + word.start..start + word.end));
            });
        }
    }
}

/// Buffers one segmentation reuses across its text's Han runs, filled
/// for the run being segmented.
#[derive(Default)]
struct HanScratch {
    /// The run's characters.
    chars: Vec<char>,
    /// The byte offset of each character in the run, then the run's length.
    bytes: Vec<usize>,
    /// The DP route, one entry per character plus the end.
    route: Vec<(f64, usize, bool)>,
}

impl HanScratch {
    /// The characters `range` of the run `s` the buffers were filled
    /// from, as a slice of it.
    fn slice<'t>(&self, s: &'t str, range: Range<usize>) -> &'t str {
        let from = self.bytes.get(range.start).copied().unwrap_or_default();
        let to = self.bytes.get(range.end).copied().unwrap_or_default();
        s.get(from..to).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::{PosTag, PosTagger};
    use proptest::prelude::*;

    fn demo_dict() -> Dictionary {
        let mut d = Dictionary::base();
        for (w, f) in [
            ("蚂蚁", 500),
            ("金服", 200),
            ("战略官", 150),
            ("战略", 300),
            ("官", 100),
            ("演员", 900),
            ("歌手", 800),
            ("香港", 700),
            ("电影", 900),
            ("金像奖", 120),
            ("最佳", 300),
            ("男主角", 250),
        ] {
            d.add_word(w, f, PosTag::Noun);
        }
        d
    }

    #[test]
    fn segments_figure3_bracket_compound() {
        // Paper Fig. 3: 蚂蚁金服首席战略官 → {蚂蚁, 金服, 首席, 战略官}
        let seg = Segmenter::new(demo_dict());
        assert_eq!(
            seg.segment("蚂蚁金服首席战略官"),
            vec!["蚂蚁", "金服", "首席", "战略官"]
        );
    }

    #[test]
    fn longer_dictionary_words_beat_char_splits() {
        let seg = Segmenter::new(demo_dict());
        assert_eq!(seg.segment("香港演员"), vec!["香港", "演员"]);
    }

    #[test]
    fn mixed_script_keeps_ascii_atomic() {
        let seg = Segmenter::new(demo_dict());
        let toks = seg.segment("刘德华Andy是演员");
        assert!(toks.contains(&"Andy".to_string()));
        assert!(toks.contains(&"演员".to_string()));
    }

    #[test]
    fn words_drops_punctuation() {
        let seg = Segmenter::new(demo_dict());
        let toks = seg.words("演员，歌手。");
        assert_eq!(toks, vec!["演员", "歌手"]);
    }

    #[test]
    fn hmm_recovers_oov_person_name() {
        // 赵小阳 is not in the dictionary: the HMM pass should not leave it
        // as three singles (default model yields 2+1 split; a trained HMM
        // keeps it whole — see hmm::tests).
        let seg = Segmenter::new(demo_dict());
        let toks = seg.segment("赵小阳是演员");
        assert!(toks.concat() == "赵小阳是演员");
        assert!(toks
            .iter()
            .any(|t| t.chars().count() >= 2 && t.contains('赵')));
    }

    #[test]
    fn empty_and_punct_only_inputs() {
        let seg = Segmenter::new(demo_dict());
        assert!(seg.segment("").is_empty());
        assert_eq!(seg.segment("，。"), vec!["，。"]);
        assert!(seg.words("，。").is_empty());
    }

    #[test]
    fn tagged_segmentation_uses_dictionary_and_shape() {
        // Segmented words tagged by a `PosTagger` over the same dictionary.
        let seg = Segmenter::new(demo_dict());
        let tagger = PosTagger::new(seg.dictionary().clone());
        let words = seg.words("演员出生于临江市。");
        let tagged: Vec<(&str, PosTag)> =
            words.iter().map(|w| (w.as_str(), tagger.tag(w))).collect();
        let get = |w: &str| {
            tagged
                .iter()
                .find(|(t, _)| *t == w)
                .map(|(_, p)| *p)
                .unwrap_or_else(|| panic!("token {w} missing from {tagged:?}"))
        };
        assert_eq!(get("演员"), PosTag::Noun);
        assert_eq!(get("出生于"), PosTag::Verb);
        // The OOV place name region produces at least one PlaceName-tagged
        // token via the shape heuristic (exact split depends on the HMM).
        assert!(tagged.iter().any(|(_, p)| *p == PosTag::PlaceName));
    }

    impl Segmenter {
        /// The DP and walk as they were before edges were priced from
        /// their prefix matches — a `String` and a dictionary lookup per
        /// position, per edge and per step of the walk — kept verbatim as
        /// the reference `segment_han` must reproduce. Its out-of-vocabulary
        /// flush is its own copy of the `String`-building one, so the
        /// reference calls none of the code it checks.
        fn segment_han_reference(&self, s: &str, out: &mut Vec<String>) {
            let chars: Vec<char> = s.chars().collect();
            let n = chars.len();
            if n == 0 {
                return;
            }
            // route[i] = (best score of chars[i..], end index of first word).
            let mut route: Vec<(f64, usize)> = vec![(0.0, 0); n + 1];
            for i in (0..n).rev() {
                let single: String = chars[i..i + 1].iter().collect();
                let mut best = (self.dict.log_prob(&single) + route[i + 1].0, i + 1);
                for (end, _) in self.dict.matches_at(&chars, i) {
                    if end == i + 1 {
                        continue; // already considered as the single-char edge
                    }
                    let word: String = chars[i..end].iter().collect();
                    let score = self.dict.log_prob(&word) + route[end].0;
                    if score > best.0 {
                        best = (score, end);
                    }
                }
                route[i] = best;
            }

            // Walk the best path, buffering unknown single chars for the HMM.
            let mut i = 0usize;
            let mut oov_start: Option<usize> = None;
            while i < n {
                let end = route[i].1;
                let word: String = chars[i..end].iter().collect();
                let is_unknown_single = end == i + 1 && !self.dict.contains(&word);
                if is_unknown_single {
                    if oov_start.is_none() {
                        oov_start = Some(i);
                    }
                } else {
                    self.flush_oov_reference(&chars, oov_start.take(), i, out);
                    out.push(word);
                }
                i = end;
            }
            self.flush_oov_reference(&chars, oov_start, n, out);
        }

        /// The out-of-vocabulary flush as it was when tokens were
        /// `String`s: one per unknown single, or the HMM's words built a
        /// character at a time from its Viterbi states.
        fn flush_oov_reference(
            &self,
            chars: &[char],
            start: Option<usize>,
            end: usize,
            out: &mut Vec<String>,
        ) {
            let Some(span) = start.and_then(|start| chars.get(start..end)) else {
                return;
            };
            if span.len() == 1 {
                for &c in span {
                    out.push(c.to_string());
                }
            } else {
                let states = self.hmm.viterbi(span);
                let mut cur = String::new();
                for (&c, &st) in span.iter().zip(states.iter()) {
                    cur.push(c);
                    if st == crate::hmm::E || st == crate::hmm::S {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                if !cur.is_empty() {
                    out.push(cur);
                }
            }
        }
    }

    proptest! {
        /// Pricing edges from their prefix matches segments exactly as the
        /// lookup per edge did. Dictionaries are drawn over a seven-character
        /// alphabet, so entries share prefixes and a single character is
        /// sometimes a word and sometimes not; texts add an eighth character
        /// no drawn dictionary holds; frequencies span ties and spreads.
        #[test]
        fn segment_han_matches_the_lookup_per_edge_reference(
            words in proptest::collection::vec(("[一二三四五六七]{1,4}", 1u64..5_000), 0..24),
            text in "[一二三四五六七八]{0,32}",
            base in proptest::bool::ANY,
        ) {
            let mut dict = if base { Dictionary::base() } else { Dictionary::new() };
            for (w, f) in &words {
                dict.add_word(w, *f, PosTag::Noun);
            }
            let seg = Segmenter::new(dict);
            let (mut new, mut old) = (Vec::new(), Vec::new());
            seg.segment_han(&text, &mut HanScratch::default(), &mut new);
            seg.segment_han_reference(&text, &mut old);
            prop_assert_eq!(new, old, "text {:?}, dictionary {:?}", text, words);
        }

        /// One scratch set serves every Han run of a text: a run segments
        /// the same after a longer or a shorter one has used the buffers.
        #[test]
        fn scratch_buffers_carry_nothing_between_runs(
            runs in proptest::collection::vec("[一-龥]{0,12}", 1..6),
        ) {
            let seg = Segmenter::new(demo_dict());
            let mut scratch = HanScratch::default();
            for run in &runs {
                let (mut reused, mut fresh) = (Vec::new(), Vec::new());
                seg.segment_han(run, &mut scratch, &mut reused);
                seg.segment_han(run, &mut HanScratch::default(), &mut fresh);
                prop_assert_eq!(reused, fresh, "run {:?} of {:?}", run, runs);
            }
        }

        /// The borrowing form partitions its input exactly: every token is
        /// the slice of `text` that starts where the previous one ended,
        /// none is empty, and `segment` is the same tokens as `String`s.
        /// `words` is the same tokens less the punctuation runs.
        #[test]
        fn segment_into_borrows_a_partition_of_its_input(
            text in "[一-龥a-z0-9，。 é《》]{0,40}",
        ) {
            let seg = Segmenter::new(demo_dict());
            let mut toks = vec!["kept"];
            seg.segment_into(&text, &mut toks);
            prop_assert_eq!(toks.remove(0), "kept");
            let mut at = 0usize;
            for tok in &toks {
                prop_assert!(!tok.is_empty());
                let offset = tok.as_ptr() as usize - text.as_ptr() as usize;
                prop_assert_eq!(offset, at, "{:?} in {:?}", tok, toks);
                at += tok.len();
            }
            prop_assert_eq!(at, text.len());
            let owned: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
            prop_assert_eq!(seg.segment(&text), owned);
            let words: Vec<&str> = toks
                .iter()
                .copied()
                .filter(|t| t.starts_with(|c| crate::chars::is_han(c) || crate::chars::is_alnum(c)))
                .collect();
            prop_assert_eq!(seg.words(&text), words);
        }

        /// Segmentation partitions the input text exactly.
        #[test]
        fn segmentation_is_a_partition(text in "[一-龥a-z0-9，。]{0,30}") {
            let seg = Segmenter::new(demo_dict());
            let toks = seg.segment(&text);
            prop_assert_eq!(toks.concat(), text);
        }

        /// No token is empty and Han tokens never contain punctuation.
        #[test]
        fn tokens_are_clean(text in "[一-龥]{0,25}") {
            let seg = Segmenter::new(demo_dict());
            for t in seg.segment(&text) {
                prop_assert!(!t.is_empty());
            }
        }
    }
}
