//! Neural generation from abstracts (paper §II).
//!
//! Distant supervision: every entity whose bracket yielded a high-precision
//! hypernym contributes a training pair (segmented abstract → hypernym).
//! A CopyNet encoder-decoder is trained on those pairs and then generates
//! hypernyms for pages — crucially also for pages *without* a bracket,
//! which is where this source adds coverage. The copy mechanism handles
//! hypernyms that are out-of-vocabulary but present in the abstract (the
//! paper's stated reason for choosing CopyNet over a plain seq2seq).
//!
//! Cost: training and per-page decoding both run on the pipeline's
//! runtime. Training is minibatch SGD, which is order-sensitive, so only
//! the work inside a batch is parallel: parameters move between batches,
//! each sample's tape and node gradients are built on a worker, and the
//! parameter gradients are summed in sample order before the Adam step —
//! the same additions in the same order as a serial loop
//! (`cnp_nn::copynet`). A decode step scores every output string in one
//! dense vector and takes its argmax; the arithmetic underneath adds in a
//! fixed order (`cnp_nn::tensor`). So the model and the candidates are the
//! same bits at every thread count — `tests/determinism.rs` pins their
//! hashes.

use crate::candidate::Candidate;
use cnp_encyclopedia::Page;
use cnp_nn::copynet::{CopyNet, CopyNetConfig, CopySample};
use cnp_nn::vocab::Vocab;
use cnp_runtime::Runtime;
use cnp_taxonomy::Source;
use cnp_text::segment::Segmenter;
use std::collections::{HashMap, HashSet};

/// Default confidence for abstract-derived candidates.
pub const ABSTRACT_CONFIDENCE: f32 = 0.75;

/// Configuration of the neural-generation stage.
#[derive(Debug, Clone)]
pub struct NeuralConfig {
    /// Training epochs over the distant-supervision set.
    pub epochs: usize,
    /// Model hyperparameters.
    pub model: CopyNetConfig,
    /// Cap on distant-supervision samples (keeps training time bounded).
    pub max_samples: usize,
    /// Vocabulary cap.
    pub max_vocab: usize,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        NeuralConfig {
            epochs: 8,
            model: CopyNetConfig::default(),
            max_samples: 4_000,
            max_vocab: 4_000,
        }
    }
}

impl NeuralConfig {
    /// A fast preset for tests and doctests.
    pub fn fast() -> Self {
        NeuralConfig {
            epochs: 3,
            model: CopyNetConfig {
                embed_dim: 16,
                hidden_dim: 24,
                max_src_len: 16,
                max_tgt_len: 2,
                lr: 0.02,
                batch_size: 8,
                seed: 17,
            },
            max_samples: 600,
            max_vocab: 1_500,
        }
    }
}

/// Builds the distant-supervision dataset: (segmented abstract → bracket
/// hypernym) for every page with bracket-derived pairs.
pub fn build_dataset(
    pages: &[Page],
    seg: &Segmenter,
    bracket_pairs: &HashMap<String, HashSet<String>>,
    max_samples: usize,
) -> Vec<CopySample> {
    let mut samples = Vec::new();
    for page in pages {
        if samples.len() >= max_samples {
            break;
        }
        if page.abstract_text.is_empty() {
            continue;
        }
        let Some(hypernyms) = bracket_pairs.get(&page.key()) else {
            continue;
        };
        let src = seg.words(&page.abstract_text);
        if src.is_empty() {
            continue;
        }
        // The most general bracket hypernym (usually a single word after
        // segmentation) is the cleanest target. Ties break lexicographically
        // so the choice never depends on set iteration order.
        if let Some(h) = hypernyms
            .iter()
            .min_by_key(|h| (h.chars().count(), h.as_str()))
        {
            let tgt = seg.words(h);
            if !tgt.is_empty() && tgt.len() <= 2 {
                samples.push(CopySample { src, tgt });
            }
        }
    }
    samples
}

/// Trains the CopyNet on the distant-supervision set on `rt`'s workers;
/// returns the model and the per-epoch losses, the same bits at every
/// thread count (see [`CopyNet::train_epoch`]).
pub fn train(samples: &[CopySample], cfg: &NeuralConfig, rt: &Runtime) -> (CopyNet, Vec<f32>) {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for s in samples {
        for t in s.src.iter().chain(s.tgt.iter()) {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
    }
    let vocab = Vocab::build(counts, cfg.max_vocab);
    let mut model = CopyNet::new(vocab, cfg.model.clone());
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        losses.push(model.train_epoch(samples, rt));
    }
    (model, losses)
}

/// Generates hypernym candidates for every page from its abstract.
///
/// Per-page inference is segmentation, one encoder pass and at most
/// `max_tgt_len` greedy steps, each an argmax over the vocabulary plus the
/// abstract's own out-of-vocabulary words. Pages are independent, so they
/// run in page chunks on the shared runtime, and chunk results concatenate
/// in page order. (Training also runs on the runtime, one sample per task
/// inside each minibatch; [`train`] says why its bits hold.)
pub fn extract(pages: &[Page], seg: &Segmenter, model: &CopyNet, rt: &Runtime) -> Vec<Candidate> {
    let parts = rt.par_chunks_indexed(pages, |base, chunk| {
        let mut out = Vec::new();
        for (off, page) in chunk.iter().enumerate() {
            if page.abstract_text.is_empty() {
                continue;
            }
            let src = seg.words(&page.abstract_text);
            if src.is_empty() {
                continue;
            }
            let generated = model.generate(&src);
            let hypernym: String = generated.concat();
            if hypernym.chars().count() < 2 || hypernym == page.name {
                continue;
            }
            if !hypernym.chars().all(cnp_text::chars::is_han) {
                continue;
            }
            out.push(Candidate::new(
                base + off,
                page.key(),
                page.name.clone(),
                page.bracket_str(),
                hypernym,
                Source::Abstract,
                ABSTRACT_CONFIDENCE,
            ));
        }
        out
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_text::dict::Dictionary;
    use cnp_text::pos::PosTag;

    fn seg() -> Segmenter {
        let mut d = Dictionary::base();
        for (w, f) in [("演员", 500), ("歌手", 500), ("作家", 400), ("出生", 300)] {
            d.add_word(w, f, PosTag::Noun);
        }
        Segmenter::new(d)
    }

    fn pages() -> Vec<Page> {
        let mk = |name: &str, concept: &str| Page {
            name: name.into(),
            bracket: Some(concept.into()),
            abstract_text: format!("{name}，1980年出生，著名{concept}。"),
            ..Default::default()
        };
        vec![
            mk("王伟", "演员"),
            mk("李娜", "歌手"),
            mk("张磊", "作家"),
            mk("刘洋", "演员"),
            mk("陈静", "歌手"),
            mk("杨丽", "作家"),
        ]
    }

    fn pairs(pages: &[Page]) -> HashMap<String, HashSet<String>> {
        pages
            .iter()
            .map(|p| {
                let mut s = HashSet::new();
                s.insert(p.bracket.clone().unwrap());
                (p.key(), s)
            })
            .collect()
    }

    #[test]
    fn dataset_pairs_abstract_with_bracket_hypernym() {
        let pages = pages();
        let seg = seg();
        let samples = build_dataset(&pages, &seg, &pairs(&pages), 100);
        assert_eq!(samples.len(), 6);
        assert_eq!(samples[0].tgt, vec!["演员"]);
        assert!(samples[0].src.concat().contains("出生"));
    }

    #[test]
    fn dataset_respects_sample_cap() {
        let pages = pages();
        let seg = seg();
        let samples = build_dataset(&pages, &seg, &pairs(&pages), 2);
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn end_to_end_learns_template_corpus() {
        let pages = pages();
        let seg = seg();
        let samples = build_dataset(&pages, &seg, &pairs(&pages), 100);
        let mut cfg = NeuralConfig::fast();
        cfg.epochs = 40;
        let (model, losses) = train(&samples, &cfg, &Runtime::new(2));
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "training did not converge: {losses:?}"
        );
        let cands = extract(&pages, &seg, &model, &Runtime::new(2));
        // The model should recover the concept for most template pages.
        let correct = cands
            .iter()
            .filter(|c| {
                let page = &pages[c.page];
                page.bracket.as_deref() == Some(c.hypernym.as_str())
            })
            .count();
        assert!(
            correct >= 4,
            "only {correct}/6 abstracts produced the right concept: {cands:?}"
        );
    }

    #[test]
    fn extract_skips_empty_and_self_hypernyms() {
        let seg = seg();
        let samples = vec![CopySample {
            src: vec!["著名".into(), "演员".into()],
            tgt: vec!["演员".into()],
        }];
        let (model, _) = train(&samples, &NeuralConfig::fast(), &Runtime::serial());
        let page = Page {
            name: "演员".into(),
            abstract_text: "著名演员。".into(),
            ..Default::default()
        };
        let cands = extract(&[page], &seg, &model, &Runtime::serial());
        // Whatever the model outputs, it must never propose the page name.
        assert!(cands.iter().all(|c| c.hypernym != "演员"));
    }
}
