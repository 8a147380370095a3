//! Lock-free serving under concurrency: a shared [`TaxonomyService`]
//! hammered from 8 threads must return exactly the single-threaded
//! answers.
//!
//! The frozen snapshot has no interior mutability, so the only thing
//! threads share is immutable data — this test locks that claim in, via
//! both `std::thread::scope` and the shared
//! [`cn_probase::runtime::Runtime`] the pipeline's stages run on.

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::taxonomy::persist::{encode_frozen_v3, save_frozen_v3_to_file};
use cn_probase::taxonomy::{IsAMeta, Source, TaxonomyStore};
use cn_probase::{
    FrozenTaxonomy, FrozenTaxonomyView, ListOptions, OverlayView, PageRequest, Query, QueryError,
    QueryResponse, Response, TaxonomyRead, TaxonomyService,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const THREADS: usize = 8;

struct Golden<T = FrozenTaxonomy> {
    service: TaxonomyService<T>,
    /// Every probe with its single-threaded response: `men2ent` and
    /// transitive `getConcept` per page name, the first 50 of transitive
    /// `getEntity` per concept.
    answers: Vec<(Query, QueryResponse)>,
}

fn build_golden() -> Golden {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(9)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let frozen = outcome.freeze();
    assert!(corpus.pages.len() > 100 && frozen.num_concepts() > 20);
    let mut queries: Vec<Query> = Vec::new();
    for p in &corpus.pages {
        queries.push(Query::men2ent(&p.name));
        queries.push(Query::GetConceptByMention {
            mention: p.name.clone(),
            options: ListOptions::transitive(),
        });
    }
    for c in frozen.concept_ids() {
        queries.push(Query::GetEntity {
            concept: frozen.concept_name(c).to_string(),
            options: ListOptions::transitive().with_page(PageRequest::first(50)),
        });
    }
    let service = TaxonomyService::new(frozen);
    let answers = queries
        .into_iter()
        .map(|q| {
            let response = service.execute(&q);
            (q, response)
        })
        .collect();
    Golden { service, answers }
}

/// One worker pass over every query, asserting against the golden answers.
/// Offsetting the start index per thread makes the threads interleave
/// different queries instead of marching in lockstep.
fn hammer<T: TaxonomyRead>(g: &Golden<T>, offset: usize) {
    let n = g.answers.len();
    for i in 0..n {
        let (query, expected) = &g.answers[(i + offset) % n];
        assert_eq!(
            &g.service.execute(query),
            expected,
            "{query:?} diverged across threads"
        );
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "raw std threads on purpose: the read API must hold up under threads the runtime does not own"
)]
fn eight_std_threads_match_single_threaded_answers() {
    let g = build_golden();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let g = &g;
            s.spawn(move || hammer(g, t * 37));
        }
    });
}

#[test]
fn runtime_workers_match_single_threaded_answers() {
    let g = build_golden();
    let rt = cn_probase::runtime::Runtime::new(THREADS);
    // Enough tasks that every worker runs several hammer passes.
    rt.par_tasks(4 * THREADS, |t| hammer(&g, t * 53));
}

/// Snapshot-boot concurrency: persist the frozen taxonomy, boot a
/// view-backed service from the file, and hammer it from 8 threads
/// against the answers of the directly-frozen single-threaded service. The
/// disk round-trip — and answering in place off the file's bytes — must
/// be invisible to concurrent Table II traffic.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "raw std threads on purpose: the read API must hold up under threads the runtime does not own"
)]
fn snapshot_booted_api_matches_across_threads() {
    let g = build_golden();
    let dir = std::env::temp_dir().join("cnp_concurrent_api_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("boot.cnpb");
    save_frozen_v3_to_file(g.service.pin().frozen(), &path).expect("save snapshot");
    let booted = TaxonomyService::<FrozenTaxonomyView>::boot_from_file(&path);
    std::fs::remove_file(&path).ok();
    // Same golden answers, snapshot-booted service.
    let g = Golden {
        service: booted.expect("boot from snapshot"),
        answers: g.answers,
    };
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let g = &g;
            s.spawn(move || hammer(g, t * 41));
        }
    });
}

// ----- hot-swap under load (ISSUE 5 satellite) -----------------------------

/// World A: 刘德华 sings, 张学友 is unknown.
fn swap_store_a() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", None);
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s
}

/// World B: 张学友 exists and out-ranks 刘德华 in 歌手's hyponym row, and
/// 歌手 gains a second ancestor — every probe below answers differently
/// than in world A.
fn swap_store_b() -> TaxonomyStore {
    let mut s = swap_store_a();
    let zhang = s.add_entity("张学友", None);
    let singer = s.find_concept("歌手").unwrap();
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
    let artist = s.add_concept("艺人");
    s.add_concept_is_a(singer, artist, IsAMeta::new(Source::SubConcept, 0.8));
    s
}

/// The per-generation golden results of the probe queries, in probe order.
type SwapGolden = Vec<Result<Response, QueryError>>;

fn swap_golden(frozen: &FrozenTaxonomy) -> SwapGolden {
    let service = TaxonomyService::new(frozen.clone());
    swap_probes()
        .iter()
        .map(|q| service.execute(q).result)
        .collect()
}

fn swap_probes() -> Vec<Query> {
    vec![
        Query::men2ent("张学友"),
        Query::GetEntity {
            concept: "歌手".to_string(),
            options: ListOptions::transitive(),
        },
        Query::GetConceptByMention {
            mention: "刘德华".to_string(),
            options: ListOptions::transitive(),
        },
    ]
}

/// Asserts one response is internally consistent with exactly one
/// generation: the payload must equal the golden answer of the world its
/// generation stamp names (generation parity: odd = A, even = B) — and
/// since every probe differs between the worlds, a torn read (stamp from
/// one generation, payload from the other) cannot pass.
fn assert_swap_consistent(i: usize, r: &QueryResponse, a: &SwapGolden, b: &SwapGolden) {
    let want = if r.generation % 2 == 1 { a } else { b };
    assert_eq!(r.result, want[i], "probe {i}, gen {}", r.generation);
}

/// 8 reader threads hammer the service (singles and batches) while a
/// writer thread swaps between two snapshots. Every response must be
/// internally consistent with exactly one generation, and a batch must
/// answer entirely from one pinned generation.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "raw std threads on purpose: a writer swapping generations beside readers the runtime does not own"
)]
fn hot_swap_under_load_never_tears_a_generation() {
    const SWAPS: u64 = 200;
    let frozen_a = FrozenTaxonomy::freeze(&swap_store_a());
    let frozen_b = FrozenTaxonomy::freeze(&swap_store_b());
    let golden_a = swap_golden(&frozen_a);
    let golden_b = swap_golden(&frozen_b);
    assert!(
        golden_a.iter().zip(&golden_b).all(|(a, b)| a != b),
        "the two worlds must answer every probe differently"
    );
    let probes = swap_probes();
    let service =
        TaxonomyService::with_runtime(frozen_a.clone(), cn_probase::runtime::Runtime::new(2));
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Writer: generation g serves A when g is odd, B when even.
        s.spawn(|| {
            for i in 0..SWAPS {
                let next = if i % 2 == 0 { &frozen_b } else { &frozen_a };
                let gen = service.swap(next.clone());
                assert_eq!(gen, i + 2, "generations are sequential");
            }
            stop.store(true, Ordering::Release);
        });
        for t in 0..THREADS {
            let (service, probes, stop) = (&service, &probes, &stop);
            let (golden_a, golden_b) = (&golden_a, &golden_b);
            s.spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(Ordering::Acquire) || rounds < 20 {
                    // Singles: each pins its own generation.
                    for (i, q) in probes.iter().enumerate() {
                        let r = service.execute(q);
                        assert!(r.generation >= 1 && r.generation <= SWAPS + 1);
                        assert_swap_consistent(i, &r, golden_a, golden_b);
                    }
                    // A batch must pin exactly one generation for all its
                    // queries, interleaved probe order included.
                    let batch: Vec<Query> = probes
                        .iter()
                        .cycle()
                        .take(probes.len() * (2 + t % 3))
                        .cloned()
                        .collect();
                    let responses = service.execute_batch(&batch);
                    let gen = responses[0].generation;
                    for (j, r) in responses.iter().enumerate() {
                        assert_eq!(r.generation, gen, "batch answered from two generations");
                        assert_swap_consistent(j % probes.len(), r, golden_a, golden_b);
                    }
                    rounds += 1;
                }
            });
        }
    });
    assert_eq!(service.generation(), SWAPS + 1);
}

/// The first `getEntity` on a generation's broadest concept is the one
/// that computes its transitive `total`; workers that all ask it at once
/// on a fresh generation — the boot one, then one a swap installs — must
/// each get the same reply as a lone single-threaded asker.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "raw std threads on purpose: the race is on the first query of a generation, from threads the runtime does not own"
)]
fn racing_first_get_entity_on_a_fresh_generation_agrees() {
    let frozen = build_golden().service.pin().frozen().clone();
    let root = frozen
        .concept_ids()
        .max_by_key(|&c| frozen.descendants(c).len())
        .expect("nonempty taxonomy");
    let queries: Vec<Query> = [0usize, 10, usize::MAX]
        .into_iter()
        .map(|limit| Query::GetEntity {
            concept: frozen.concept_name(root).to_string(),
            options: ListOptions::transitive().with_page(PageRequest::first(limit)),
        })
        .collect();
    // The server's backend: the v3 bytes opened in place under an overlay.
    let bytes = encode_frozen_v3(&frozen);
    let serving = || OverlayView::new(FrozenTaxonomyView::open(bytes.clone()).unwrap());
    let lone = TaxonomyService::new(serving());
    let service = TaxonomyService::new(serving());
    for generation in [1, 2] {
        let expected: Vec<QueryResponse> = queries.iter().map(|q| lone.execute(q)).collect();
        let start = Barrier::new(THREADS);
        let replies: Vec<Vec<QueryResponse>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        queries
                            .iter()
                            .map(|q| service.execute(q))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for reply in &replies {
            assert_eq!(reply, &expected, "generation {generation}");
        }
        assert_eq!(lone.swap(serving()), service.swap(serving()));
    }
}
