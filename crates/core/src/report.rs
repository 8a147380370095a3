//! Construction report: per-stage counters mirroring the dataflow of the
//! paper's Figure 2 (generation → candidates → verification → taxonomy).

use crate::verification::VerificationReport;
use cnp_taxonomy::TaxonomyStats;
use std::fmt;
use std::time::Duration;

/// The pipeline's stages, in execution order — the typed key for
/// [`PipelineReport::stage_timings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Corpus-wide statistics ([`crate::context::PipelineContext`]).
    Context,
    /// Bracket source: the separation algorithm.
    Bracket,
    /// Infobox source: predicate discovery + extraction.
    Infobox,
    /// Abstract source: CopyNet training + generation.
    Abstract,
    /// Tag source: direct extraction.
    Tag,
    /// Candidate merging/deduplication.
    Merge,
    /// The three verification strategies.
    Verification,
    /// Taxonomy assembly (store build + cycle repair).
    Assembly,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 8] = [
        Stage::Context,
        Stage::Bracket,
        Stage::Infobox,
        Stage::Abstract,
        Stage::Tag,
        Stage::Merge,
        Stage::Verification,
        Stage::Assembly,
    ];

    /// Stable display name (the strings the stringly-typed report used).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Context => "context",
            Stage::Bracket => "bracket",
            Stage::Infobox => "infobox",
            Stage::Abstract => "abstract",
            Stage::Tag => "tag",
            Stage::Merge => "merge",
            Stage::Verification => "verification",
            Stage::Assembly => "assembly",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Runs `f`, recording its wall time against `stage` in `timings`.
///
/// This is the pipeline's **only** clock read: stage bodies stay pure
/// functions of their inputs, and the measured duration flows solely into
/// [`PipelineReport::stage_timings`] (observability), never into stage
/// output.
pub fn time_stage<T>(
    timings: &mut Vec<(Stage, Duration)>,
    stage: Stage,
    f: impl FnOnce() -> T,
) -> T {
    #[expect(
        clippy::disallowed_methods,
        reason = "sole sanctioned clock read; duration feeds stage_timings (observability), never stage output"
    )]
    let clock = std::time::Instant::now();
    let out = f();
    timings.push((stage, clock.elapsed()));
    out
}

/// End-to-end construction statistics.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Pages consumed.
    pub pages: usize,
    /// Candidates produced by the separation algorithm (bracket).
    pub bracket_candidates: usize,
    /// Candidates produced by neural generation (abstract).
    pub abstract_candidates: usize,
    /// Candidates produced by predicate discovery (infobox).
    pub infobox_candidates: usize,
    /// Candidates produced by direct extraction (tag).
    pub tag_candidates: usize,
    /// Candidates after merging/deduplication.
    pub merged_candidates: usize,
    /// Verification removals.
    pub verification: VerificationReport,
    /// Candidates surviving verification.
    pub final_candidates: usize,
    /// Predicate-discovery candidate count (paper: 341).
    pub predicate_candidates: usize,
    /// Selected isA-bearing predicates (paper: 12).
    pub predicates_selected: Vec<String>,
    /// Distant-supervision sample count (paper: 300 k+).
    pub neural_samples: usize,
    /// Per-epoch CopyNet training losses.
    pub neural_losses: Vec<f32>,
    /// Subconcept edges removed to restore a DAG.
    pub cycle_edges_removed: usize,
    /// Final taxonomy size.
    pub stats: TaxonomyStats,
    /// Wall-clock time per stage.
    pub stage_timings: Vec<(Stage, Duration)>,
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CN-Probase construction report")?;
        writeln!(f, "  input pages:            {}", self.pages)?;
        writeln!(f, "  generation module")?;
        writeln!(f, "    bracket  (separation): {}", self.bracket_candidates)?;
        writeln!(f, "    abstract (neural):     {}", self.abstract_candidates)?;
        writeln!(f, "    infobox  (predicates): {}", self.infobox_candidates)?;
        writeln!(f, "    tag      (direct):     {}", self.tag_candidates)?;
        writeln!(f, "    merged candidates:     {}", self.merged_candidates)?;
        writeln!(
            f,
            "    predicates: {} candidates -> {} selected",
            self.predicate_candidates,
            self.predicates_selected.len()
        )?;
        writeln!(f, "  verification module")?;
        writeln!(
            f,
            "    incompatible concepts: -{}",
            self.verification.incompatible_removed
        )?;
        writeln!(
            f,
            "    NER filter:            -{}",
            self.verification.ner_removed
        )?;
        writeln!(
            f,
            "    syntax rules:          -{} (thematic {}, head-stem {})",
            self.verification.thematic_removed + self.verification.head_stem_removed,
            self.verification.thematic_removed,
            self.verification.head_stem_removed
        )?;
        writeln!(f, "    surviving candidates:  {}", self.final_candidates)?;
        writeln!(f, "  taxonomy: {}", self.stats)?;
        writeln!(f, "  cycle edges removed:     {}", self.cycle_edges_removed)?;
        // µs/page beside each total shows a stage that outgrows the corpus.
        writeln!(f, "  stage timings:")?;
        let pages = self.pages.max(1) as f64;
        for (stage, d) in &self.stage_timings {
            let ms = d.as_secs_f64() * 1e3;
            let per_page = ms * 1e3 / pages;
            let stage = stage.as_str();
            writeln!(f, "    {stage:<22} {ms:>8.1} ms {per_page:>8.2} µs/page")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_all_sections() {
        let mut r = PipelineReport {
            pages: 10,
            bracket_candidates: 5,
            tag_candidates: 7,
            ..Default::default()
        };
        r.stage_timings
            .push((Stage::Context, Duration::from_millis(12)));
        let text = r.to_string();
        assert!(text.contains("generation module"));
        assert!(text.contains("verification module"));
        assert!(text.contains("separation"));
        assert!(text.contains("context"));
        // 12 ms over 10 pages.
        assert!(text.contains("12.0 ms  1200.00 µs/page"), "{text}");
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped);
        assert_eq!(names.first(), Some(&"context"));
        assert_eq!(names.last(), Some(&"assembly"));
        assert_eq!(Stage::Merge.to_string(), "merge");
    }
}
