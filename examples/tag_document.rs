//! Tag documents straight off a snapshot file — the second serving
//! workload, end to end.
//!
//! Boots a view-backed [`TaxonomyService`] from `CNP_SNAPSHOT`, stitches a
//! handful of documents out of the snapshot's own linked entities, and
//! runs them through `Query::Tag`: segmentation
//! seeded by the snapshot vocabulary, men2ent span resolution, and
//! coarse-to-fine concept scoring. Set `CNP_DOC` to tag your own text
//! instead. It first prints one `TagIndex` line: the names the index
//! seeds, the words its dictionary holds and how long a build takes.
//!
//! ```sh
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example build_taxonomy
//! CNP_SNAPSHOT=/tmp/cnp.snapshot cargo run --release --example tag_document
//! CNP_DOC="刘德华和张学友在香港开演唱会。" cargo run --release --example tag_document
//! ```
//!
//! Exits non-zero when the snapshot fails to load or when no generated
//! document produces a single concept, so CI can use it as the tagging
//! smoke check.

use cn_probase::tag::TagIndex;
use cn_probase::taxonomy::{EntityId, TaxonomyRead};
use cn_probase::{Query, Response, TagOptions, TaxonomyService};
use std::path::Path;
use std::time::Instant;

/// Short synthetic documents stitched from the snapshot's own linked
/// entities: every mention is in-vocabulary, so the full resolve-and-score
/// path runs (CI smoke); real documents just swap in via `CNP_DOC`.
fn documents_from(f: &impl TaxonomyRead, limit: usize) -> Vec<String> {
    let mut mentions = Vec::new();
    for e in (0..f.num_entities() as u32).map(EntityId) {
        if f.concepts_of(e).next().is_some() {
            mentions.push(f.resolve(f.entity(e).name).to_string());
        }
        if mentions.len() >= limit * 2 {
            break;
        }
    }
    mentions
        .chunks(2)
        .take(limit)
        .map(|pair| format!("{}。", pair.join("和")))
        .collect()
}

/// One line on the per-generation tag index: the names it seeds, the
/// dictionary words it ends up holding and how long a build takes.
#[expect(
    clippy::disallowed_methods,
    reason = "demo output: prints how long the index build took"
)]
fn index_line(f: &impl TaxonomyRead) -> String {
    let t = Instant::now();
    let index = TagIndex::build(f);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    format!(
        "TagIndex: {} seeded words, {} dictionary words, built in {ms:.1} ms",
        index.seeded_words(),
        index.segmenter().dictionary().len()
    )
}

#[expect(
    clippy::disallowed_methods,
    reason = "demo output: prints how long the step took"
)]
fn main() -> std::process::ExitCode {
    let path = std::env::var("CNP_SNAPSHOT").unwrap_or_else(|_| "/tmp/cnp.snapshot".to_string());
    let t = Instant::now();
    let service = match TaxonomyService::boot_from_file(Path::new(&path)) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("failed to boot from snapshot {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("booted tagging service from {path} in {:.1?}", t.elapsed());
    println!("{}", index_line(service.pin().frozen()));

    let docs = match std::env::var("CNP_DOC") {
        Ok(doc) => vec![doc],
        Err(_) => documents_from(service.pin().frozen(), 3),
    };
    if docs.is_empty() {
        eprintln!("snapshot holds no linked entity to build a document from");
        return std::process::ExitCode::FAILURE;
    }

    let mut tagged = 0;
    for doc in &docs {
        let query = Query::Tag {
            text: doc.clone(),
            options: TagOptions::default(),
        };
        let response = service.execute(&query);
        let Ok(Response::Tags(output)) = response.result else {
            eprintln!("tag query failed on {doc:?}: {:?}", response.result);
            return std::process::ExitCode::FAILURE;
        };
        println!("\ntag({doc})");
        for span in &output.spans {
            println!("  span [{}, {}) {:?}", span.start, span.end, span.text);
        }
        for hit in &output.concepts {
            println!(
                "  concept {} (depth {}, score {:.3}, {} evidence span(s))",
                hit.name,
                hit.depth,
                hit.score,
                hit.evidence.len()
            );
        }
        if !output.concepts.is_empty() {
            tagged += 1;
        }
    }
    if tagged == 0 {
        eprintln!("no document produced a concept — the tagging path is dead");
        return std::process::ExitCode::FAILURE;
    }
    println!("\ntagged {tagged} of {} document(s)", docs.len());
    std::process::ExitCode::SUCCESS
}
