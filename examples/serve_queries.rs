//! Serving API v1, end to end: typed queries, batch execution, cursor
//! pagination and a zero-downtime snapshot hot-swap.
//!
//! Boots a view-backed `TaxonomyService` from `CNP_SNAPSHOT` when set (CI
//! runs it against the snapshot the `build_taxonomy` example just wrote),
//! otherwise builds a small taxonomy in-process and boots from a temp
//! snapshot file. Then:
//!
//! 1. executes a Table II-mix batch (one pinned generation, input order),
//! 2. walks a `getEntity` result page by page with a stable cursor,
//! 3. builds a *second* snapshot and hot-swaps it in under the same
//!    service (`reload`), showing the generation bump and the typed
//!    rejection of the now-stale cursor.
//!
//! Exits non-zero on any inconsistency, so CI can use it as a smoke test.
//!
//! ```sh
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example build_taxonomy
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example serve_queries
//! ```

use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
use cn_probase::pipeline::{Pipeline, PipelineConfig};
use cn_probase::serve::CursorError;
use cn_probase::{
    FrozenTaxonomyView, ListOptions, PageRequest, Query, QueryError, Response, TaxonomyService,
};
use std::path::PathBuf;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "diverging demo helper; the examples hold no state worth unwinding"
)]
fn fail(msg: &str) -> ! {
    eprintln!("serve_queries: {msg}");
    std::process::exit(1);
}

/// Builds a pipeline snapshot on disk and returns its path.
fn build_snapshot(seed: u64, name: &str) -> PathBuf {
    let corpus = CorpusGenerator::new(CorpusConfig::tiny(seed)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let path = std::env::temp_dir().join(name);
    outcome
        .save_view(&path)
        .unwrap_or_else(|e| fail(&format!("cannot write snapshot: {e}")));
    path
}

#[expect(
    clippy::disallowed_methods,
    reason = "demo output: prints how long the step took"
)]
fn main() {
    let boot_path = match std::env::var("CNP_SNAPSHOT") {
        Ok(p) if std::path::Path::new(&p).exists() => PathBuf::from(p),
        _ => build_snapshot(21, "cnp_serve_queries_a.cnpb"),
    };
    let t = Instant::now();
    let service = TaxonomyService::<FrozenTaxonomyView>::boot_from_file(&boot_path)
        .unwrap_or_else(|e| fail(&format!("boot from {}: {e}", boot_path.display())));
    let pinned = service.pin();
    let f = pinned.frozen();
    println!(
        "generation {} booted from {} in {:.1?}: {} entities, {} concepts, {} isA edges",
        service.generation(),
        boot_path.display(),
        t.elapsed(),
        f.num_entities(),
        f.num_concepts(),
        f.num_is_a(),
    );

    // ----- 1) batch execution ---------------------------------------------
    let mentions: Vec<String> = f
        .entity_ids()
        .filter(|&e| f.concepts_of(e).next().is_some())
        .take(200)
        .map(|e| f.resolve(f.entity(e).name).to_string())
        .collect();
    let concepts: Vec<String> = f
        .concept_ids()
        .filter(|&c| f.entities_of(c).next().is_some())
        .take(100)
        .map(|c| f.concept_name(c).to_string())
        .collect();
    if mentions.is_empty() || concepts.is_empty() {
        fail("snapshot serves an empty taxonomy");
    }
    let mut batch: Vec<Query> = Vec::new();
    for m in &mentions {
        batch.push(Query::men2ent(m.clone()));
        batch.push(Query::GetConceptByMention {
            mention: m.clone(),
            options: ListOptions::transitive(),
        });
    }
    for c in &concepts {
        batch.push(Query::GetEntity {
            concept: c.clone(),
            options: ListOptions::transitive().with_page(PageRequest::first(10)),
        });
    }
    let t = Instant::now();
    let responses = service.execute_batch(&batch);
    let boot_generation = service.generation();
    println!("batch: {} queries in {:.1?}", batch.len(), t.elapsed());
    if responses.len() != batch.len() {
        fail("batch result count mismatch");
    }
    if responses.iter().any(|r| r.generation != boot_generation) {
        fail("batch answered from more than one generation");
    }
    let errors = responses.iter().filter(|r| r.result.is_err()).count();
    if errors > 0 {
        fail(&format!(
            "{errors} probe queries failed on their own taxonomy"
        ));
    }

    // ----- 2) cursor pagination -------------------------------------------
    let concept = concepts[0].clone();
    let unpaged = match service
        .execute(&Query::GetEntity {
            concept: concept.clone(),
            options: ListOptions::transitive(),
        })
        .result
    {
        Ok(Response::Entities(page)) => page,
        other => fail(&format!("getEntity({concept}): {other:?}")),
    };
    let mut stitched = Vec::new();
    let mut cursor = None;
    let mut pages = 0;
    loop {
        let page = match service
            .execute(&Query::GetEntity {
                concept: concept.clone(),
                options: ListOptions::transitive().with_page(PageRequest { limit: 3, cursor }),
            })
            .result
        {
            Ok(Response::Entities(page)) => page,
            other => fail(&format!("page {pages}: {other:?}")),
        };
        stitched.extend(page.items);
        pages += 1;
        match page.next {
            Some(next) => cursor = Some(next),
            None => break,
        }
    }
    if stitched != unpaged.items {
        fail("stitched pages diverge from the unpaged result");
    }
    println!(
        "pagination: getEntity({concept}) -> {} hyponyms over {pages} page(s) of 3, stitched == unpaged",
        unpaged.total,
    );
    let stale_cursor = match service
        .execute(&Query::GetEntity {
            concept: concept.clone(),
            options: ListOptions::transitive().with_page(PageRequest::first(1)),
        })
        .result
    {
        Ok(Response::Entities(page)) => page.next,
        other => fail(&format!("first page: {other:?}")),
    };

    // ----- 3) zero-downtime hot-swap --------------------------------------
    println!("building generation {}'s snapshot …", boot_generation + 1);
    let next_path = build_snapshot(33, "cnp_serve_queries_b.cnpb");
    let t = Instant::now();
    let new_generation = service
        .reload(&next_path)
        .unwrap_or_else(|e| fail(&format!("reload: {e}")));
    println!(
        "hot-swap: reload({}) -> generation {new_generation} in {:.1?}",
        next_path.display(),
        t.elapsed(),
    );
    if new_generation != boot_generation + 1 {
        fail("generation did not bump by one");
    }
    // The pin taken before the swap still answers from the boot snapshot.
    let old = pinned.execute(&Query::men2ent(mentions[0].clone()));
    if old.generation != boot_generation {
        fail("pinned snapshot migrated generations");
    }
    // A cursor minted before the swap is rejected with a typed error.
    if let Some(stale) = stale_cursor {
        match service
            .execute(&Query::GetEntity {
                concept: concept.clone(),
                options: ListOptions::transitive().with_page(PageRequest::after(1, stale)),
            })
            .result
        {
            Err(QueryError::InvalidCursor(CursorError::WrongGeneration { cursor, serving })) => {
                println!("stale cursor: rejected (minted on {cursor}, serving {serving})");
            }
            // The new snapshot may not even contain the old concept — an
            // equally typed refusal, reported before cursor validation.
            Err(QueryError::UnknownConcept(c)) => {
                println!("stale cursor: concept {c:?} gone from the new generation");
            }
            other => fail(&format!("stale cursor accepted: {other:?}")),
        }
    }
    // New traffic is answered from the new generation.
    let fresh = service.execute(&Query::GetEntity {
        concept: concept.clone(),
        options: ListOptions::transitive().with_page(PageRequest::first(3)),
    });
    if fresh.generation != new_generation {
        fail("fresh query not on the new generation");
    }
    println!("serving API v1 smoke: OK");
}
