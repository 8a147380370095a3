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
use cn_probase::{FrozenTaxonomyView, ProbaseApi, TaxonomyService};
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
    let api = ProbaseApi::from_service(service);
    let f = api.frozen();
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
        let senses = api.men2ent(&mention);
        let concepts = api.get_concept(e, true);
        println!(
            "men2ent({mention}) -> {} sense(s); getConcept(transitive) -> {}",
            senses.len(),
            concepts.join("、"),
        );
        if let Some(first) = concepts.first() {
            let hyponyms = api.get_entity(first, true, 5);
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
