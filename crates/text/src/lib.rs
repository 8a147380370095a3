#![forbid(unsafe_code)]
//! # cnp-text — Chinese text-processing substrate for CN-Probase
//!
//! The CN-Probase paper (Chen et al., ICDE 2019) builds a Chinese taxonomy
//! from encyclopedia text. Every text-level capability the paper depends on
//! is implemented in this crate, from scratch:
//!
//! * `trie` (crate-private) — prefix trie over Chinese characters, the
//!   dictionary index, in one node arena.
//! * [`dict`] — word dictionary with frequencies and part-of-speech tags.
//! * [`segment`] — jieba-style word segmentation: dictionary DAG +
//!   max-probability dynamic programming, with an HMM fallback for
//!   out-of-vocabulary spans.
//! * [`hmm`] — BMES hidden Markov model used by the segmenter, trainable
//!   from a segmented corpus.
//! * [`ngram`]/[`pmi`] — corpus co-occurrence statistics and pointwise
//!   mutual information, which drive the paper's *separation algorithm*
//!   (§II, Fig. 3).
//! * [`pos`] — part-of-speech tagging (dictionary + suffix heuristics),
//!   needed by the Probase-Tran baseline's POS filter.
//! * [`ner`] — named-entity recognition and NE *support* statistics
//!   (`s1(H)` of §III-B, Eq. 2).
//! * [`head`] — lexical-head and stem analysis for the syntax-based
//!   verification rules (§III-C).
//! * [`lexicons`] — embedded linguistic resources: the 184-entry thematic
//!   word lexicon, NE suffixes, Chinese surnames, function words.
//!
//! All APIs operate on `&str` and internally use `char` indexing, so they
//! are correct for multi-byte CJK text.

pub mod chars;
pub mod dict;
pub mod head;
pub mod hmm;
pub mod lexicons;
pub mod ner;
pub mod ngram;
pub mod pmi;
pub mod pos;
pub mod segment;
mod trie;

pub use dict::Dictionary;
pub use head::HeadAnalyzer;
pub use hmm::HmmModel;
pub use ner::{NeKind, NeRecognizer, NeStats};
pub use ngram::NgramCounter;
pub use pmi::PmiModel;
pub use pos::{PosTag, PosTagger};
pub use segment::Segmenter;
