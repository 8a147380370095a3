//! The runtime's determinism contract, asserted end to end: a pipeline run
//! with `threads = 1`, `2` and `8` must produce **identical** output —
//! same taxonomy statistics, same verified candidate sequence, same
//! bracket chains, and an equivalent frozen serving snapshot.
//!
//! This is what makes `PipelineConfig::threads` a pure performance knob:
//! chunk boundaries depend only on input length, reductions fold in chunk
//! order (see `cnp_runtime`), and the candidate merge is one serial fold
//! that no thread count reaches.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
use cn_probase::runtime::Runtime;
use cn_probase::taxonomy::persist::encode_frozen_v3;
use cn_probase::{FrozenTaxonomy, FrozenTaxonomyView, IngestDelta, OverlayView};

fn run_with_threads(corpus: &cn_probase::encyclopedia::Corpus, threads: usize) -> PipelineOutcome {
    let config = PipelineConfig {
        threads,
        ..PipelineConfig::fast()
    };
    Pipeline::new(config).run(corpus)
}

fn assert_frozen_equivalent(a: &FrozenTaxonomy, b: &FrozenTaxonomy, label: &str) {
    assert_eq!(a.num_entities(), b.num_entities(), "{label}: entities");
    assert_eq!(a.num_concepts(), b.num_concepts(), "{label}: concepts");
    assert_eq!(a.num_is_a(), b.num_is_a(), "{label}: isA edges");
    assert_eq!(a.num_mentions(), b.num_mentions(), "{label}: mentions");
    assert_eq!(a.topo_order(), b.topo_order(), "{label}: topo order");
    for c in a.concept_ids() {
        assert_eq!(a.concept_name(c), b.concept_name(c), "{label}: name {c:?}");
        assert_eq!(
            a.ancestors_of(c),
            b.ancestors_of(c),
            "{label}: ancestors {c:?}"
        );
        assert_eq!(a.depth(c), b.depth(c), "{label}: depth {c:?}");
        assert_eq!(a.entities_of(c), b.entities_of(c), "{label}: extent {c:?}");
    }
    for e in a.entity_ids() {
        assert_eq!(
            a.concepts_of(e),
            b.concepts_of(e),
            "{label}: concepts {e:?}"
        );
        assert_eq!(a.entity_key(e), b.entity_key(e), "{label}: key {e:?}");
    }
}

#[test]
fn pipeline_output_is_identical_at_1_2_and_8_threads() {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(901)).generate();
    let base = run_with_threads(&corpus, 1);
    let base_frozen = base.freeze();
    assert!(base.report.final_candidates > 0, "empty baseline run");

    for threads in [2, 8] {
        let other = run_with_threads(&corpus, threads);
        // Construction statistics: every Figure 2 counter.
        assert_eq!(
            other.report.stats, base.report.stats,
            "TaxonomyStats diverged at {threads} threads"
        );
        assert_eq!(other.report.pages, base.report.pages);
        assert_eq!(
            other.report.bracket_candidates,
            base.report.bracket_candidates
        );
        assert_eq!(
            other.report.abstract_candidates,
            base.report.abstract_candidates
        );
        assert_eq!(
            other.report.infobox_candidates,
            base.report.infobox_candidates
        );
        assert_eq!(other.report.tag_candidates, base.report.tag_candidates);
        assert_eq!(
            other.report.merged_candidates,
            base.report.merged_candidates
        );
        assert_eq!(other.report.verification, base.report.verification);
        assert_eq!(other.report.final_candidates, base.report.final_candidates);
        assert_eq!(
            other.report.predicates_selected,
            base.report.predicates_selected
        );
        assert_eq!(
            other.report.cycle_edges_removed,
            base.report.cycle_edges_removed
        );
        // The verified candidate set: same candidates, same order.
        assert_eq!(
            other.candidates.items, base.candidates.items,
            "verified candidates diverged at {threads} threads"
        );
        assert_eq!(
            other.chains, base.chains,
            "chains diverged at {threads} threads"
        );
        // The frozen serving snapshot answers every query identically.
        assert_frozen_equivalent(&other.freeze(), &base_frozen, &format!("{threads} threads"));
    }
}

#[test]
fn incremental_mode_is_thread_count_independent_too() {
    let batch1 = CorpusGenerator::new(CorpusConfig::tiny(902)).generate();
    let batch2 = CorpusGenerator::new(CorpusConfig::tiny(903)).generate();
    let run_both = |threads: usize| {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::fast()
        };
        let pipeline = Pipeline::new(config);
        let mut store = pipeline.run(&batch1).taxonomy;
        let (report, _) = pipeline.run_into(&batch2, &mut store);
        (
            report.stats,
            FrozenTaxonomy::freeze_with(&store, &Runtime::new(threads)),
        )
    };
    let (stats1, frozen1) = run_both(1);
    let (stats8, frozen8) = run_both(8);
    assert_eq!(stats1, stats8);
    assert_frozen_equivalent(&frozen1, &frozen8, "incremental 1 vs 8");
}

/// `snapshot` served as `cnp_server` serves it: its v3 bytes, opened in
/// place.
fn view_of(snapshot: &FrozenTaxonomy) -> FrozenTaxonomyView {
    FrozenTaxonomyView::open(encode_frozen_v3(snapshot)).expect("v3 opens")
}

/// The write path's determinism contract: folding a delta overlay into its
/// base (compaction) produces the **byte-identical** snapshot a from-scratch
/// freeze of the same logical content produces, at every thread count.
#[test]
fn compaction_is_byte_identical_to_a_fresh_freeze_at_any_thread_count() {
    let batch1 = CorpusGenerator::new(CorpusConfig::tiny(904)).generate();
    let batch2 = CorpusGenerator::new(CorpusConfig::tiny(905)).generate();
    for threads in [1, 2, 8] {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::fast()
        };
        let pipeline = Pipeline::new(config);
        let rt = Runtime::new(threads);
        let outcome1 = pipeline.run(&batch1);
        let base = FrozenTaxonomy::freeze_with(&outcome1.taxonomy, &rt);
        let outcome2 = pipeline.run(&batch2);
        let delta = outcome2.delta_against(&base);
        assert!(!delta.is_empty(), "disjoint batch produced no delta");

        // Serve base + delta through an overlay, then fold it down.
        let view = OverlayView::new(view_of(&base)).apply(&delta);
        let compacted = view.compacted(&rt).expect("compaction failed");
        assert_eq!(compacted.overlay_depth(), 0, "fold left an overlay");

        // A from-scratch freeze of the same logical content...
        let mut union = outcome1.taxonomy.clone();
        delta.apply_to_store(&mut union);
        let fresh = FrozenTaxonomy::freeze_with(&union, &rt);

        // ...is byte-identical, not merely query-identical.
        assert_eq!(
            compacted.base().as_bytes(),
            &encode_frozen_v3(&fresh)[..],
            "compacted snapshot diverges from fresh freeze at {threads} threads"
        );
        let materialised = compacted.base().to_frozen().expect("materialises");
        assert_frozen_equivalent(
            &materialised,
            &fresh,
            &format!("compacted vs fresh, {threads} threads"),
        );
    }
}

/// Same contract with a *stack* of overlays (never-ending mode: each corpus
/// batch lands as one delta) — one fold collapses the whole stack, and the
/// result does not depend on the thread count either.
#[test]
fn stacked_overlays_compact_identically_across_thread_counts() {
    let batches: Vec<_> = [906, 907, 908]
        .iter()
        .map(|&seed| CorpusGenerator::new(CorpusConfig::tiny(seed)).generate())
        .collect();
    let mut encodings = Vec::new();
    for threads in [1, 2, 8] {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::fast()
        };
        let pipeline = Pipeline::new(config);
        let rt = Runtime::new(threads);
        let outcome1 = pipeline.run(&batches[0]);
        let base = FrozenTaxonomy::freeze_with(&outcome1.taxonomy, &rt);
        let mut view = OverlayView::new(view_of(&base));
        let mut union = outcome1.taxonomy.clone();
        for batch in &batches[1..] {
            let outcome = pipeline.run(batch);
            // Diff against the *live overlay* — exactly what a producer
            // talking to a serving node between compactions sees.
            let delta = outcome.delta_against(&view);
            delta.apply_to_store(&mut union);
            view = view.apply(&delta);
        }
        assert_eq!(view.overlay_depth(), 2);
        let compacted = view.compacted(&rt).expect("compaction failed");
        let fresh = FrozenTaxonomy::freeze_with(&union, &rt);
        let bytes = compacted.base().as_bytes().to_vec();
        assert_eq!(
            bytes,
            &encode_frozen_v3(&fresh)[..],
            "stacked compaction diverges from fresh freeze at {threads} threads"
        );
        encodings.push(bytes);
    }
    assert!(
        encodings.windows(2).all(|w| w[0] == w[1]),
        "compacted bytes differ across thread counts"
    );
}

/// The neural source's output, pinned: an FNV-1a hash over every
/// `Source::Abstract` candidate's `(page, hypernym)` in page order and over
/// the per-epoch losses' bit patterns, captured at the commit before
/// `cnp_nn`'s decoder was rewritten. A faster decoder must decode the same
/// thing; the bare `abstract_candidates` count above would not notice a
/// changed hypernym. The run's snapshot is pinned too: `std` seeds every
/// hash map differently, so hash order reaching any output moves it.
#[test]
fn abstract_source_matches_its_golden_hashes_at_1_2_and_8_threads() {
    use cn_probase::pipeline::generation::{self, abstract_gen};
    use cn_probase::pipeline::PipelineContext;
    use cn_probase::runtime::stable_hash;

    const ABSTRACT_CANDIDATES: usize = 2040;
    const ABSTRACT_CANDIDATES_HASH: u64 = 0x4722_24ef_7b25_4e8a;
    const NEURAL_LOSSES_HASH: u64 = 0x0a75_f784_fe4f_91a2;
    const SNAPSHOT_BYTES: usize = 147_689;
    const SNAPSHOT_HASH: u64 = 0xf14a_3bc3_9709_84a7;

    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    for threads in [1, 2, 8] {
        // The abstract stage exactly as `Pipeline::run` drives it, so the
        // hash sees every candidate, not only those verification keeps.
        let cfg = PipelineConfig::fast();
        let rt = Runtime::new(threads);
        let ctx = PipelineContext::build_with(&corpus, &rt);
        let (bracket, _) = generation::extract_bracket(&corpus.pages, &ctx, &rt);
        let pairs = generation::bracket_pairs_by_entity(&bracket);
        let samples = abstract_gen::build_dataset(
            &corpus.pages,
            &ctx.segmenter,
            &pairs,
            cfg.neural.max_samples,
        );
        let (model, _) = abstract_gen::train(&samples, &cfg.neural, &rt);
        let cands = abstract_gen::extract(&corpus.pages, &ctx.segmenter, &model, &rt);
        let mut bytes = Vec::new();
        for c in &cands {
            bytes.extend_from_slice(&(c.page as u64).to_le_bytes());
            bytes.extend_from_slice(c.hypernym.as_bytes());
            bytes.push(0);
        }
        assert_eq!(
            (cands.len(), stable_hash(&bytes)),
            (ABSTRACT_CANDIDATES, ABSTRACT_CANDIDATES_HASH),
            "abstract candidates moved at {threads} threads"
        );

        let outcome = run_with_threads(&corpus, threads);
        let report = &outcome.report;
        assert_eq!(report.abstract_candidates, ABSTRACT_CANDIDATES);
        let loss_bytes: Vec<u8> = report
            .neural_losses
            .iter()
            .flat_map(|l| l.to_bits().to_le_bytes())
            .collect();
        assert_eq!(
            stable_hash(&loss_bytes),
            NEURAL_LOSSES_HASH,
            "neural_losses moved at {threads} threads: {:?}",
            report.neural_losses
        );

        let snapshot = encode_frozen_v3(&outcome.freeze());
        assert_eq!(
            (snapshot.len(), stable_hash(&snapshot)),
            (SNAPSHOT_BYTES, SNAPSHOT_HASH),
            "the snapshot moved at {threads} threads"
        );
    }
}

/// Verification strategy A alone, pinned: how many edges it removes and an
/// FNV-1a hash over every survivor's `(page, entity_key, hypernym)` in
/// candidate order, captured before strategy A decided each concept pair
/// once. A faster strategy A must remove the same edges at every thread
/// count; a cascade that stops skipping removed edges moves this hash, and
/// `incompatible.rs`'s unit tests catch a cached removal.
#[test]
fn strategy_a_alone_matches_its_golden_hash_at_1_2_and_8_threads() {
    use cn_probase::pipeline::verification::VerificationConfig;
    use cn_probase::runtime::stable_hash;

    const INCOMPATIBLE_REMOVED: usize = 41;
    const SURVIVORS: usize = 5064;
    const SURVIVORS_HASH: u64 = 0x6a06_d13a_065c_2f6a;

    let corpus = CorpusGenerator::new(CorpusConfig::small(911)).generate();
    for threads in [1, 2, 8] {
        let config = PipelineConfig {
            threads,
            verification: VerificationConfig {
                incompatible: Some(Default::default()),
                ner: None,
                syntax: None,
            },
            ..PipelineConfig::fast()
        };
        let outcome = Pipeline::new(config).run(&corpus);
        let mut bytes = Vec::new();
        for c in &outcome.candidates.items {
            bytes.extend_from_slice(&(c.page as u64).to_le_bytes());
            bytes.extend_from_slice(c.entity_key.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(c.hypernym.as_bytes());
            bytes.push(0);
        }
        assert_eq!(
            (
                outcome.report.verification.incompatible_removed,
                outcome.candidates.items.len(),
                stable_hash(&bytes)
            ),
            (INCOMPATIBLE_REMOVED, SURVIVORS, SURVIVORS_HASH),
            "strategy A's survivors moved at {threads} threads"
        );
    }
}
