//! End-to-end pipeline: the generation + verification framework of
//! Figure 2, producing a [`TaxonomyStore`].

use crate::candidate::CandidateSet;
use crate::context::PipelineContext;
use crate::generation::{self, abstract_gen, infobox, tag};
use crate::report::{time_stage, PipelineReport, Stage};
use crate::verification::{self, VerificationConfig};
use cnp_encyclopedia::Corpus;
use cnp_runtime::Runtime;
use cnp_taxonomy::{
    DeltaOverlay, FrozenTaxonomy, IsAMeta, PersistError, Source, Symbol, TaxonomyRead,
    TaxonomyStats, TaxonomyStore,
};
use std::collections::HashSet;

/// Infobox predicates kept: the paper's 12 of 341 candidates (§II), here
/// the top 12 by alignment rate.
const PREDICATE_TOP_K: usize = 12;
/// Minimum triple support for a selectable infobox predicate.
const PREDICATE_MIN_SUPPORT: usize = 5;

/// Pipeline configuration. The tag source always runs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads for every pipeline stage (defaults to the machine's
    /// available parallelism). Output never depends on this value.
    pub threads: usize,
    /// Enable the bracket source (separation algorithm).
    pub enable_bracket: bool,
    /// Enable the abstract source (neural generation).
    pub enable_abstract: bool,
    /// Enable the infobox source (predicate discovery).
    pub enable_infobox: bool,
    /// Neural-generation settings.
    pub neural: abstract_gen::NeuralConfig,
    /// Verification strategies.
    pub verification: VerificationConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            threads: cnp_runtime::default_threads(),
            enable_bracket: true,
            enable_abstract: true,
            enable_infobox: true,
            neural: abstract_gen::NeuralConfig::default(),
            verification: VerificationConfig::all(),
        }
    }
}

impl PipelineConfig {
    /// Fast preset for tests/doctests: small CopyNet, two threads.
    pub fn fast() -> Self {
        PipelineConfig {
            threads: 2,
            neural: abstract_gen::NeuralConfig::fast(),
            ..Default::default()
        }
    }

    /// All sources, no verification — the ablation baseline.
    pub fn unverified() -> Self {
        PipelineConfig {
            verification: VerificationConfig::none(),
            ..Self::fast()
        }
    }
}

/// Pipeline outcome: the taxonomy plus everything needed for evaluation.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The constructed taxonomy.
    pub taxonomy: TaxonomyStore,
    /// Construction statistics (Figure 2 counters).
    pub report: PipelineReport,
    /// The verified candidates the taxonomy was built from.
    pub candidates: CandidateSet,
    /// Bracket rightmost-path chains `(sub, sup)` that assembly turned into
    /// subconcept→concept edges; incremental updates replay them too.
    pub chains: Vec<(String, String)>,
    /// Worker threads the producing run used ([`PipelineConfig::threads`]);
    /// [`PipelineOutcome::freeze`] reuses the same budget.
    pub threads: usize,
}

impl PipelineOutcome {
    /// Freezes the constructed taxonomy into the read-optimized serving
    /// snapshot ([`FrozenTaxonomy`]), on the same thread budget the
    /// pipeline ran with — a `threads = 1` run never spawns workers here
    /// either.
    pub fn freeze(&self) -> FrozenTaxonomy {
        FrozenTaxonomy::freeze_with(&self.taxonomy, &Runtime::new(self.threads))
    }

    /// Freezes the taxonomy and persists it as a snapshot file — the one
    /// on-disk format, which `FrozenTaxonomyView::load_from_file`,
    /// `TaxonomyService::boot_from_file` and `cnp_server --snapshot` serve
    /// straight off the loaded buffer. Returns the frozen snapshot for
    /// immediate in-process serving.
    pub fn save_view(&self, path: &std::path::Path) -> Result<FrozenTaxonomy, PersistError> {
        let frozen = self.freeze();
        cnp_taxonomy::persist::save_frozen_v3_to_file(&frozen, path)?;
        Ok(frozen)
    }

    /// Diffs this batch against a serving snapshot and returns the
    /// [`DeltaOverlay`] that brings `base` up to date — the write half of
    /// never-ending extraction without re-freezing the world: ship the
    /// sidecar to a running `cnp_server` via `POST /admin/ingest` instead
    /// of rebuilding and reloading the full snapshot.
    ///
    /// The delta is *additive*: new concepts, entities, edges, aliases and
    /// attributes, plus metadata upserts for edges whose source or
    /// confidence changed. Relations the batch does not mention are left
    /// untouched — absence from one corpus batch is not evidence of
    /// retraction, so no retract ops are ever emitted here (curation
    /// produces those by hand). Iteration follows the batch store's
    /// insertion-ordered ids, so the same outcome diffed against the same
    /// base always yields the identical op sequence.
    pub fn delta_against<B: TaxonomyRead>(&self, base: &B) -> DeltaOverlay {
        let store = &self.taxonomy;
        let text = |sym: Symbol| store.interner().resolve(sym);
        let mut delta = DeltaOverlay::new();

        for c in store.concept_ids() {
            let name = store.concept_name(c);
            let base_c = base.find_concept(name);
            if base_c.is_none() {
                delta.add_concept(name);
            }
            for &(sup, meta) in store.parents_of(c) {
                let sup_name = store.concept_name(sup);
                let known = base_c.is_some_and(|bc| {
                    base.find_concept(sup_name).is_some_and(|bsup| {
                        base.parents_of(bc).any(|(p, m)| p == bsup && m == meta)
                    })
                });
                if !known {
                    delta.upsert_concept_is_a(name, sup_name, meta);
                }
            }
        }

        for e in store.entity_ids() {
            let record = store.entity(e);
            let name = text(record.name);
            let disambig = (record.disambig != Symbol(0)).then(|| text(record.disambig));
            let base_e = base.find_entity(name, disambig);
            if base_e.is_none() {
                delta.add_entity(name, disambig);
            }
            for &(c, meta) in store.concepts_of(e) {
                let concept = store.concept_name(c);
                let known = base_e.is_some_and(|be| {
                    base.find_concept(concept)
                        .is_some_and(|bc| base.entity_edge(be, bc) == Some(meta))
                });
                if !known {
                    delta.upsert_entity_is_a(name, disambig, concept, meta);
                }
            }
            for &alias in store.aliases_of(e) {
                let alias = text(alias);
                let known = base_e.is_some_and(|be| base.men2ent(alias).contains(&be));
                if !known {
                    delta.add_alias(name, disambig, alias);
                }
            }
            // Attributes are a build-time signal with no read-side
            // accessor to diff against; replay dedupes, so emitting them
            // for every batch entity is exact, just not minimal.
            for &attr in store.attributes_of(e) {
                delta.add_attribute(name, disambig, text(attr));
            }
        }
        delta
    }
}

/// The CN-Probase construction pipeline.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Configuration access.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs generation and verification on `corpus` and merges the
    /// surviving relations into an existing store — the *never-ending
    /// extraction* mode in which the deployed system ingests CN-DBpedia
    /// batches. Returns the construction report and the verified batch.
    /// After a batch lands, freeze the store ([`FrozenTaxonomy::freeze`])
    /// to publish a fresh read-optimized serving snapshot.
    pub fn run_into(
        &self,
        corpus: &Corpus,
        store: &mut TaxonomyStore,
    ) -> (PipelineReport, CandidateSet) {
        let outcome = self.run(corpus);
        let mut report = outcome.report;
        // Replay the batch through the exact same code path `assemble`
        // uses for a fresh build (a fresh store merely has no prior
        // concepts); the two modes drifting apart is how the dropped-chains
        // bug happened.
        report.cycle_edges_removed +=
            replay_candidates(store, &outcome.candidates, &outcome.chains, corpus);
        report.stats = TaxonomyStats::of(store);
        (report, outcome.candidates)
    }

    /// Runs generation, verification and taxonomy assembly on `corpus`.
    ///
    /// Every stage executes on one shared [`Runtime`] sized by
    /// [`PipelineConfig::threads`]; the output is identical at every
    /// thread count (see the runtime crate's determinism contract).
    pub fn run(&self, corpus: &Corpus) -> PipelineOutcome {
        let cfg = &self.config;
        let rt = Runtime::new(cfg.threads);
        let mut report = PipelineReport {
            pages: corpus.pages.len(),
            ..Default::default()
        };
        let mut timings: Vec<(Stage, std::time::Duration)> = Vec::new();
        let ctx = time_stage(&mut timings, Stage::Context, || {
            PipelineContext::build_with(corpus, &rt)
        });

        // ---- generation ----
        let mut all_candidates = Vec::new();
        let mut chains: Vec<(String, String)> = Vec::new();

        let bracket_pairs = time_stage(&mut timings, Stage::Bracket, || {
            if cfg.enable_bracket {
                let (cands, bracket_chains) = generation::extract_bracket(&corpus.pages, &ctx, &rt);
                report.bracket_candidates = cands.len();
                let pairs = generation::bracket_pairs_by_entity(&cands);
                all_candidates.extend(cands);
                chains.extend(bracket_chains);
                pairs
            } else {
                Default::default()
            }
        });

        time_stage(&mut timings, Stage::Infobox, || {
            if cfg.enable_infobox {
                let discovery = infobox::discover_predicates(
                    &corpus.pages,
                    &bracket_pairs,
                    PREDICATE_TOP_K,
                    PREDICATE_MIN_SUPPORT,
                    &rt,
                );
                report.predicate_candidates = discovery.candidates.len();
                report.predicates_selected = discovery.selected.clone();
                let cands = infobox::extract(&corpus.pages, &discovery.selected, &rt);
                report.infobox_candidates = cands.len();
                all_candidates.extend(cands);
            }
        });

        time_stage(&mut timings, Stage::Abstract, || {
            if cfg.enable_abstract {
                let samples = abstract_gen::build_dataset(
                    &corpus.pages,
                    &ctx.segmenter,
                    &bracket_pairs,
                    cfg.neural.max_samples,
                );
                report.neural_samples = samples.len();
                if !samples.is_empty() {
                    let (model, losses) = abstract_gen::train(&samples, &cfg.neural, &rt);
                    report.neural_losses = losses;
                    let cands = abstract_gen::extract(&corpus.pages, &ctx.segmenter, &model, &rt);
                    report.abstract_candidates = cands.len();
                    all_candidates.extend(cands);
                }
            }
        });

        time_stage(&mut timings, Stage::Tag, || {
            let cands = tag::extract(&corpus.pages, &rt);
            report.tag_candidates = cands.len();
            all_candidates.extend(cands);
        });

        let merged = time_stage(&mut timings, Stage::Merge, || {
            let merged = CandidateSet::merge(all_candidates);
            report.merged_candidates = merged.len();
            merged
        });

        // ---- verification ----
        let verified = time_stage(&mut timings, Stage::Verification, || {
            let (verified, vreport) =
                verification::verify(merged, &corpus.pages, &ctx, &cfg.verification, &rt);
            report.verification = vreport;
            report.final_candidates = verified.len();
            verified
        });

        // ---- taxonomy assembly ----
        let taxonomy = time_stage(&mut timings, Stage::Assembly, || {
            let (taxonomy, cycle_removed) = assemble(&verified, &chains, corpus);
            report.cycle_edges_removed = cycle_removed;
            report.stats = TaxonomyStats::of(&taxonomy);
            taxonomy
        });

        report.stage_timings = timings;
        PipelineOutcome {
            taxonomy,
            report,
            candidates: verified,
            chains,
            threads: cfg.threads,
        }
    }
}

/// Builds the taxonomy store from verified candidates.
///
/// A surviving hypernym string is a *concept*. A page whose name equals a
/// concept (and that has no bracket) is itself a concept page: its
/// candidates become subconcept→concept edges. All other pages are
/// entities with entity→concept edges, infobox-predicate attributes and
/// mention aliases. Bracket rightmost-path chains add further subconcept
/// edges; any cycles are repaired by dropping the weakest edge.
fn assemble(
    verified: &CandidateSet,
    chains: &[(String, String)],
    corpus: &Corpus,
) -> (TaxonomyStore, usize) {
    let mut store = TaxonomyStore::new();
    let removed = replay_candidates(&mut store, verified, chains, corpus);
    (store, removed)
}

/// Replays a verified batch (candidates + bracket chains) into `store` and
/// repairs any cycles, returning the number of edges dropped.
///
/// This is the **single** code path behind both construction modes:
/// [`assemble`] calls it with a fresh store and [`Pipeline::run_into`]
/// with a populated one — the never-ending mode used to duplicate this
/// logic and drifted (it silently dropped the bracket chains). A name
/// counts as a concept when the batch proposes it as a hypernym or the
/// store knew it *before* this replay; concept ids are append-only, so
/// `index < n_prior_concepts` identifies the pre-batch ones without being
/// confused by concepts the replay itself adds along the way. For a fresh
/// store the prior set is empty and the rule reduces to the fresh-build
/// one.
fn replay_candidates(
    store: &mut TaxonomyStore,
    candidates: &CandidateSet,
    chains: &[(String, String)],
    corpus: &Corpus,
) -> usize {
    let n_prior_concepts = store.num_concepts();
    let concept_names: HashSet<&str> = candidates
        .items
        .iter()
        .map(|c| c.hypernym.as_str())
        .collect();
    let known = |store: &TaxonomyStore, name: &str| {
        concept_names.contains(name)
            || store
                .find_concept(name)
                .is_some_and(|c| c.index() < n_prior_concepts)
    };

    for c in &candidates.items {
        let page = &corpus.pages[c.page];
        let sup = store.add_concept(&c.hypernym);
        let meta = IsAMeta::new(c.source, c.confidence);
        let is_concept_page = page.bracket.is_none() && known(store, &page.name);
        if is_concept_page {
            let sub = store.add_concept(&page.name);
            store.add_concept_is_a(sub, sup, meta);
        } else {
            let e = store.add_entity(&page.name, page.bracket.as_deref());
            store.add_entity_is_a(e, sup, meta);
            for t in &page.infobox {
                store.add_attribute(e, &t.predicate);
            }
            for alias in &page.aliases {
                store.add_alias(e, alias);
            }
        }
    }

    for (sub, sup) in chains {
        if known(store, sub) || known(store, sup) {
            let sub = store.add_concept(sub);
            let sup = store.add_concept(sup);
            store.add_concept_is_a(sub, sup, IsAMeta::new(Source::SubConcept, 0.9));
        }
    }

    cnp_taxonomy::closure::break_cycles(store).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};

    fn run_tiny(seed: u64) -> (Corpus, PipelineOutcome) {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(seed)).generate();
        let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
        (corpus, outcome)
    }

    #[test]
    fn end_to_end_builds_nonempty_taxonomy() {
        let (_, outcome) = run_tiny(71);
        assert!(outcome.taxonomy.num_is_a() > 200);
        assert!(outcome.taxonomy.num_concepts() > 50);
        assert!(outcome.taxonomy.num_entities() > 100);
        assert!(outcome.report.final_candidates > 0);
        assert!(cnp_taxonomy::closure::is_dag(&outcome.taxonomy));
    }

    #[test]
    fn all_four_sources_contribute() {
        let (_, outcome) = run_tiny(72);
        let r = &outcome.report;
        assert!(r.bracket_candidates > 0, "bracket produced nothing");
        assert!(r.abstract_candidates > 0, "abstract produced nothing");
        assert!(r.infobox_candidates > 0, "infobox produced nothing");
        assert!(r.tag_candidates > 0, "tag produced nothing");
        assert!(
            r.merged_candidates
                <= r.bracket_candidates
                    + r.abstract_candidates
                    + r.infobox_candidates
                    + r.tag_candidates
        );
    }

    #[test]
    fn predicate_discovery_selects_up_to_k() {
        let (_, outcome) = run_tiny(73);
        let r = &outcome.report;
        assert!(r.predicate_candidates >= r.predicates_selected.len());
        assert!(r.predicates_selected.len() <= 12);
        // The flagship isA predicate must be discovered.
        assert!(
            r.predicates_selected.iter().any(|p| p == "职业"),
            "职业 not selected: {:?}",
            r.predicates_selected
        );
    }

    #[test]
    fn verification_runs_and_removes_noise() {
        let (_, outcome) = run_tiny(74);
        assert!(outcome.report.verification.total() > 0);
        assert!(outcome.report.final_candidates < outcome.report.merged_candidates);
    }

    #[test]
    fn final_precision_beats_unverified() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(75)).generate();
        let verified = Pipeline::new(PipelineConfig::fast()).run(&corpus);
        let unverified = Pipeline::new(PipelineConfig::unverified()).run(&corpus);
        let precision = |o: &PipelineOutcome| {
            let correct = o
                .candidates
                .items
                .iter()
                .filter(|c| {
                    corpus
                        .gold
                        .is_correct_entity_isa(&c.entity_key, &c.hypernym)
                        || corpus
                            .gold
                            .is_correct_concept_isa(&c.entity_name, &c.hypernym)
                })
                .count();
            correct as f64 / o.candidates.len().max(1) as f64
        };
        let p_v = precision(&verified);
        let p_u = precision(&unverified);
        assert!(
            p_v > p_u,
            "verified precision {p_v:.3} not above unverified {p_u:.3}"
        );
    }

    #[test]
    fn entity_pages_with_brackets_stay_entities() {
        let (corpus, outcome) = run_tiny(76);
        // Find a bracketed page and assert it became an entity, not a concept.
        let page = corpus
            .pages
            .iter()
            .find(|p| p.bracket.is_some())
            .expect("bracketed page exists");
        let found = outcome
            .taxonomy
            .find_entity(&page.name, page.bracket.as_deref());
        // The page only appears if some candidate survived; then it must be
        // an entity.
        if let Some(e) = found {
            assert!(!outcome.taxonomy.concepts_of(e).is_empty());
        }
    }

    #[test]
    fn incremental_update_grows_an_existing_taxonomy() {
        let batch1 = CorpusGenerator::new(CorpusConfig::tiny(781)).generate();
        let batch2 = CorpusGenerator::new(CorpusConfig::tiny(782)).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let mut store = pipeline.run(&batch1).taxonomy;
        let before = TaxonomyStats::of(&store);
        let (report, batch_candidates) = pipeline.run_into(&batch2, &mut store);
        let after = TaxonomyStats::of(&store);
        assert!(after.entities > before.entities);
        assert!(after.total_is_a() > before.total_is_a());
        assert!(!batch_candidates.is_empty());
        assert_eq!(report.stats, after);
        assert!(cnp_taxonomy::closure::is_dag(&store));
    }

    /// Regression: `run_into` used to silently drop the bracket
    /// rightmost-path chains that `assemble` turns into subconcept→concept
    /// edges, so never-ending extraction grew a flatter hierarchy than a
    /// fresh build on the same pages.
    #[test]
    fn run_into_replays_bracket_chains_like_a_fresh_build() {
        let batch = CorpusGenerator::new(CorpusConfig::tiny(784)).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let fresh = pipeline.run(&batch);
        assert!(!fresh.chains.is_empty(), "corpus produced no chains");
        let mut store = TaxonomyStore::new();
        let (report, _) = pipeline.run_into(&batch, &mut store);
        assert_eq!(
            report.stats.concept_is_a, fresh.report.stats.concept_is_a,
            "incremental mode must grow the same concept hierarchy"
        );
        assert_eq!(report.stats, fresh.report.stats);
    }

    #[test]
    fn outcome_freezes_into_equivalent_snapshot() {
        let (_, outcome) = run_tiny(78);
        let frozen = outcome.freeze();
        assert_eq!(frozen.num_entities(), outcome.taxonomy.num_entities());
        assert_eq!(frozen.num_is_a(), outcome.taxonomy.num_is_a());
        assert_eq!(frozen.topo_order().len(), outcome.taxonomy.num_concepts());
    }

    #[test]
    fn update_is_idempotent_for_the_same_batch() {
        let batch = CorpusGenerator::new(CorpusConfig::tiny(783)).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let mut store = pipeline.run(&batch).taxonomy;
        let before = TaxonomyStats::of(&store);
        // Re-ingesting the same batch must not duplicate edges.
        let _ = pipeline.run_into(&batch, &mut store);
        let after = TaxonomyStats::of(&store);
        assert_eq!(before.entity_is_a, after.entity_is_a);
        assert_eq!(before.entities, after.entities);
    }

    #[test]
    fn delta_against_empty_base_reproduces_the_batch() {
        let (_, outcome) = run_tiny(79);
        let empty = FrozenTaxonomy::freeze(&TaxonomyStore::new());
        let delta = outcome.delta_against(&empty);
        let mut replayed = TaxonomyStore::new();
        delta.apply_to_store(&mut replayed);
        assert_eq!(
            TaxonomyStats::of(&replayed),
            TaxonomyStats::of(&outcome.taxonomy)
        );
    }

    #[test]
    fn delta_against_own_snapshot_carries_only_attributes() {
        let (_, outcome) = run_tiny(79);
        let frozen = outcome.freeze();
        let delta = outcome.delta_against(&frozen);
        // Every relation is already served; only the undiffable attribute
        // ops remain (and replaying them is a no-op).
        let attrs: usize = outcome
            .taxonomy
            .entity_ids()
            .map(|e| outcome.taxonomy.attributes_of(e).len())
            .sum();
        assert_eq!(delta.num_ops(), attrs);
        let before = TaxonomyStats::of(&outcome.taxonomy);
        let mut store = outcome.taxonomy.clone();
        delta.apply_to_store(&mut store);
        assert_eq!(TaxonomyStats::of(&store), before);
        // And the diff itself is deterministic.
        assert_eq!(delta, outcome.delta_against(&frozen));
    }

    #[test]
    fn delta_brings_a_live_overlay_up_to_date() {
        let batch1 = CorpusGenerator::new(CorpusConfig::tiny(791)).generate();
        let batch2 = CorpusGenerator::new(CorpusConfig::tiny(792)).generate();
        let pipeline = Pipeline::new(PipelineConfig::fast());
        let base = pipeline.run(&batch1).freeze();
        let outcome2 = pipeline.run(&batch2);
        let delta = outcome2.delta_against(&base);
        assert!(!delta.is_empty(), "disjoint batch produced no delta");
        let view = cnp_taxonomy::OverlayView::new(base).apply(&delta);
        // Every batch-2 relation is now served through the overlay with
        // at least the batch's confidence semantics: the edge exists.
        for e in outcome2.taxonomy.entity_ids() {
            let record = outcome2.taxonomy.entity(e);
            let name = outcome2.taxonomy.interner().resolve(record.name);
            let disambig = (record.disambig != Symbol(0))
                .then(|| outcome2.taxonomy.interner().resolve(record.disambig));
            let ve = view
                .find_entity(name, disambig)
                .unwrap_or_else(|| panic!("entity {name} missing after ingest"));
            for &(c, _) in outcome2.taxonomy.concepts_of(e) {
                let concept = outcome2.taxonomy.concept_name(c);
                let vc = view.find_concept(concept).expect("concept missing");
                assert!(
                    view.entity_edge(ve, vc).is_some(),
                    "edge {name} → {concept} missing after ingest"
                );
            }
        }
    }

    #[test]
    fn report_timings_cover_all_stages() {
        let (_, outcome) = run_tiny(77);
        let stages: Vec<crate::report::Stage> = outcome
            .report
            .stage_timings
            .iter()
            .map(|&(s, _)| s)
            .collect();
        // Every stage appears exactly once, in execution order.
        assert_eq!(stages, crate::report::Stage::ALL);
    }

    #[test]
    fn default_threads_follow_available_parallelism() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.threads, cnp_runtime::default_threads());
        assert!(cfg.threads >= 1);
        // The test preset stays pinned at two workers.
        assert_eq!(PipelineConfig::fast().threads, 2);
    }
}
