//! Boot the Table II serving path straight from a snapshot file.
//!
//! This is the production boot sequence: no pipeline, no freeze — read
//! the snapshot file, validate it in place, and start answering
//! `men2ent` / `getConcept` / `getEntity` straight off the loaded buffer.
//!
//! ```sh
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example build_taxonomy
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example serve_from_snapshot
//! ```
//!
//! Exits non-zero when the snapshot fails to load or serves an empty
//! taxonomy, so CI can use it as a round-trip smoke check.

use cn_probase::taxonomy::EntityId;
use cn_probase::{FrozenTaxonomyView, ListOptions, PageRequest, Query, Response, TaxonomyService};
use std::path::Path;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "demo output: prints how long the step took"
)]
fn main() -> std::process::ExitCode {
    let path = std::env::var("CNP_SNAPSHOT").unwrap_or_else(|_| "/tmp/cnp.snapshot".to_string());
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let t = Instant::now();
    let service = match TaxonomyService::<FrozenTaxonomyView>::boot_from_file(Path::new(&path)) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("failed to boot from snapshot {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let boot = t.elapsed();
    let pinned = service.pin();
    let f = pinned.frozen();
    println!(
        "booted from {path} ({bytes} bytes) in {boot:.1?}: \
         {} entities, {} concepts, {} isA edges, {} mentions",
        f.num_entities(),
        f.num_concepts(),
        f.num_is_a(),
        f.num_mentions(),
    );
    if f.num_is_a() == 0 {
        eprintln!("snapshot serves an empty taxonomy");
        return std::process::ExitCode::FAILURE;
    }

    // Answer a few queries straight off the loaded snapshot, using its own
    // entity table as the query stream.
    let mut shown = 0;
    for e in (0..f.num_entities() as u32).map(EntityId) {
        if f.concepts_of(e).next().is_none() {
            continue;
        }
        let mention = f.resolve(f.entity(e).name).to_string();
        let senses = match pinned.execute(&Query::men2ent(&mention)).result {
            Ok(Response::Senses(senses)) => senses.len(),
            _ => 0,
        };
        let concepts = names(pinned.execute(&Query::GetConcept {
            entity: f.entity_key(e),
            options: ListOptions::transitive(),
        }));
        println!(
            "men2ent({mention}) -> {senses} sense(s); getConcept(transitive) -> {}",
            concepts.join("、"),
        );
        if let Some(first) = concepts.first() {
            let hyponyms = names(pinned.execute(&Query::GetEntity {
                concept: first.clone(),
                options: ListOptions::transitive().with_page(PageRequest::first(5)),
            }));
            println!("  getEntity({first}, ≤5) -> {}", hyponyms.join("、"));
        }
        shown += 1;
        if shown == 3 {
            break;
        }
    }
    if shown == 0 {
        eprintln!("no linked entity found in the snapshot");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}

/// The names a list answer carries: concept names or entity keys.
fn names(response: cn_probase::QueryResponse) -> Vec<String> {
    match response.result {
        Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
        Ok(Response::Entities(page)) => page.items.into_iter().map(|h| h.key).collect(),
        _ => Vec::new(),
    }
}
