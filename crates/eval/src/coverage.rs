//! QA coverage (paper §IV-B).
//!
//! “A question is said to be covered by a taxonomy if the question contains
//! at least one concept or entity within the taxonomy.” The paper uses the
//! NLPCC 2016 QA set (23 472 questions, 91.68% covered, 2.14 concepts per
//! covered entity); we generate an equivalent question set over the same
//! world model — entity questions, concept questions and out-of-scope
//! distractors — and score coverage by scanning each question's character
//! n-grams against the taxonomy.

use cnp_encyclopedia::Corpus;
use cnp_taxonomy::TaxonomyRead;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated question.
#[derive(Debug, Clone)]
pub struct Question {
    /// The question text.
    pub text: String,
    /// Whether the generator embedded an in-corpus mention (diagnostics).
    pub has_mention: bool,
}

/// Generates `n` questions: ~72% entity-centric, ~20% concept-centric,
/// ~8% distractors with no in-corpus mention (calibrated to the paper's
/// 91.68% coverage).
pub fn generate_questions(corpus: &Corpus, n: usize, seed: u64) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let entity_pages: Vec<&cnp_encyclopedia::Page> = corpus
        .pages
        .iter()
        .filter(|p| !corpus.gold.is_concept(&p.name))
        .collect();
    let concepts: Vec<&str> = corpus
        .pages
        .iter()
        .filter(|p| corpus.gold.is_concept(&p.name))
        .map(|p| p.name.as_str())
        .collect();
    let distractors = [
        "今天天气怎么样？",
        "明天会下雨吗？",
        "现在几点了？",
        "怎么做才能早睡早起？",
        "一加一等于几？",
        "怎样才能心情变好？",
    ];
    for _ in 0..n {
        let roll: f64 = rng.gen();
        if roll < 0.72 && !entity_pages.is_empty() {
            let p = entity_pages[rng.gen_range(0..entity_pages.len())];
            let text = match rng.gen_range(0..4) {
                0 => format!("请问{}的代表作品是什么？", p.name),
                1 => format!("{}是谁？", p.name),
                2 => format!("请介绍一下{}。", p.name),
                _ => format!("{}出生于哪里？", p.name),
            };
            out.push(Question {
                text,
                has_mention: true,
            });
        } else if roll < 0.92 && !concepts.is_empty() {
            let c = concepts[rng.gen_range(0..concepts.len())];
            let text = match rng.gen_range(0..3) {
                0 => format!("有哪些著名的{c}？"),
                1 => format!("{c}一般是做什么的？"),
                _ => format!("中国最有名的{c}是谁？"),
            };
            out.push(Question {
                text,
                has_mention: true,
            });
        } else {
            out.push(Question {
                text: distractors[rng.gen_range(0..distractors.len())].to_string(),
                has_mention: false,
            });
        }
    }
    out
}

/// Coverage result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageResult {
    /// Total questions scored.
    pub questions: usize,
    /// Questions containing ≥ 1 taxonomy entity or concept.
    pub covered: usize,
    /// Mean number of direct concepts per matched entity.
    pub avg_concepts_per_entity: f64,
}

impl CoverageResult {
    /// Coverage ratio.
    pub fn coverage(&self) -> f64 {
        if self.questions == 0 {
            0.0
        } else {
            self.covered as f64 / self.questions as f64
        }
    }
}

/// Scores coverage of `questions` against a taxonomy snapshot.
///
/// Mention detection scans character n-grams (longest-first, 2–10 chars)
/// at every position; a hit is either a taxonomy concept name or a
/// resolvable `men2ent` mention, whose first sense's direct concepts are
/// counted.
pub fn coverage<T: TaxonomyRead>(f: &T, questions: &[Question]) -> CoverageResult {
    let mut covered = 0usize;
    let mut entity_hits = 0usize;
    let mut concept_sum = 0usize;
    for q in questions {
        let chars: Vec<char> = q.text.chars().collect();
        let mut hit = false;
        let mut i = 0usize;
        while i < chars.len() {
            let mut matched_len = 0usize;
            for len in (2..=10usize.min(chars.len() - i)).rev() {
                let cand: String = chars[i..i + len].iter().collect();
                if f.find_concept(&cand).is_some() {
                    hit = true;
                    matched_len = len;
                    break;
                }
                if let Some(&e) = f.men2ent(&cand).first() {
                    hit = true;
                    matched_len = len;
                    entity_hits += 1;
                    concept_sum += f.concepts_of(e).count();
                    break;
                }
            }
            i += matched_len.max(1);
        }
        if hit {
            covered += 1;
        }
    }
    CoverageResult {
        questions: questions.len(),
        covered,
        avg_concepts_per_entity: if entity_hits == 0 {
            0.0
        } else {
            concept_sum as f64 / entity_hits as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_core::{Pipeline, PipelineConfig};
    use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};

    #[test]
    fn question_mix_matches_configuration() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(81)).generate();
        let qs = generate_questions(&corpus, 1000, 9);
        assert_eq!(qs.len(), 1000);
        let with_mention = qs.iter().filter(|q| q.has_mention).count() as f64 / 1000.0;
        assert!(
            (0.88..0.96).contains(&with_mention),
            "mention rate {with_mention}"
        );
    }

    #[test]
    fn coverage_tracks_mentions() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(82)).generate();
        let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
        let qs = generate_questions(&corpus, 400, 10);
        let result = coverage(&outcome.freeze(), &qs);
        assert_eq!(result.questions, 400);
        // Coverage should approach the embedded-mention rate (~92%).
        assert!(
            result.coverage() > 0.80,
            "coverage {:.3} too low",
            result.coverage()
        );
        assert!(result.coverage() <= 1.0);
        assert!(result.avg_concepts_per_entity > 1.0);
        // The exact result, pinned so a change of read path cannot move it.
        assert_eq!(
            (
                result.questions,
                result.covered,
                result.avg_concepts_per_entity.to_bits()
            ),
            (400, 354, 4612481234445507520)
        );
    }

    #[test]
    fn distractors_do_not_count() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(83)).generate();
        let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
        let qs = vec![Question {
            text: "今天天气怎么样？".into(),
            has_mention: false,
        }];
        let result = coverage(&outcome.freeze(), &qs);
        assert_eq!(result.covered, 0);
    }

    #[test]
    fn deterministic_generation() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(84)).generate();
        let a = generate_questions(&corpus, 50, 3);
        let b = generate_questions(&corpus, 50, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
        }
    }
}
