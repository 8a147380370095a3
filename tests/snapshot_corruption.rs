//! Hostile-input suite for every decoder that reads bytes from outside:
//! snapshots, delta sidecars, HTTP requests and their JSON bodies.
//!
//! A truncated upload, a bit-flipped block or a hand-crafted hostile file
//! must produce a typed error — never a panic, and never an allocation
//! sized by a length field instead of by the bytes actually sent. *Every*
//! truncation prefix and *every* single-byte flip of a valid snapshot must
//! fail to open, and hostile counts and varints are re-sealed under a
//! *valid* checksum so the structural checks are what rejects them. Every
//! decode runs under a counting allocator and asserts its decoder's peak
//! bound, `k × input + c` bytes. The same allocator bounds the live heap of
//! the one index a server builds per generation, the tag index.

use cn_probase::serve::json::Json;
use cn_probase::serve::wire;
use cn_probase::server::http::{self, HttpError, MAX_BODY_BYTES};
use cn_probase::server::MAX_BATCH;
use cn_probase::taxonomy::persist::{self, PersistError};
use cn_probase::taxonomy::{
    Bytes, DeltaOverlay, FrozenTaxonomy, FrozenTaxonomyView, IsAMeta, Source, TaxonomyStore,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to `System` and counts the calling thread's live and peak
/// heap bytes. Per thread, so the harness's other test threads cannot
/// move a measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Records one allocation call (`alloc`, `alloc_zeroed` or `realloc`)
/// that changes the live heap by `delta`.
fn track(delta: isize) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
    CALLS.set(CALLS.get() + 1);
}

// SAFETY: every call is forwarded to `System` unchanged; the counting only
// touches three const-initialised thread-local cells, which never allocate
// and, needing no destructor, stay readable through thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - layout.size() as isize);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A peak allocation bound `(k, c)`: at most `k × input + c` bytes.
type Bound = (usize, usize);
/// `FrozenTaxonomyView::open` copies the input once and validates in place.
const OPEN: Bound = (1, 4 << 10);
/// `to_frozen` decodes every section into owned tables.
const TO_FROZEN: Bound = (8, 16 << 10);
/// `DeltaOverlay::decode` builds one owned op per record.
const SIDECAR: Bound = (12, 4 << 10);
/// `http::read_request` and its client half: an 8 KiB `BufReader` + a body.
const HTTP: Bound = (2, 16 << 10);
/// `wire::read_query` / `read_tag_query` / `read_batch`: the queries, their
/// strings and their list, no tree. Peak measured: 81 920 B (1 024 slots of
/// an 80-byte `Query`) from a 15 403-byte batch of 513 empty `men2ent`s,
/// 5.3 × its input; 15 000 B for a 15 022-byte tag body.
const WIRE: Bound = (6, 4 << 10);

/// Runs `f`, asserting that the most heap bytes it held live at once on
/// this thread (its result included) stay within `(k, c)` for `input`.
fn peak_of<T>(what: &str, (k, c): Bound, input: usize, f: impl FnOnce() -> T) -> T {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    let peak = PEAK.get() - base;
    let limit = k * input + c;
    assert!(
        peak as usize <= limit,
        "{what}: peak {peak} B from a {input}-byte input, over its bound {limit} B"
    );
    out
}

/// Small but section-complete store: a disambiguated sense, an alias, an
/// attribute, entity edges from three sources and a concept chain.
fn demo_store() -> TaxonomyStore {
    let mut s = TaxonomyStore::new();
    let liu = s.add_entity("刘德华", Some("中国香港男演员"));
    let liu_bare = s.add_entity("刘德华", None);
    let zhang = s.add_entity("张学友", None);
    s.add_alias(liu, "Andy Lau");
    s.add_attribute(liu, "职业");
    let male_actor = s.add_concept("男演员");
    let actor = s.add_concept("演员");
    let singer = s.add_concept("歌手");
    let person = s.add_concept("人物");
    s.add_concept_is_a(male_actor, actor, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
    s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
    s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
    s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
    s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.9));
    s
}

/// Opens `bytes` as a server boots them, under [`OPEN`]'s bound.
fn open(bytes: &[u8]) -> Result<FrozenTaxonomyView, PersistError> {
    peak_of("open", OPEN, bytes.len(), || {
        FrozenTaxonomyView::open(Bytes::copy_from_slice(bytes))
    })
}

/// [`open`], then `to_frozen`'s deep validation under [`TO_FROZEN`]'s bound.
fn load(bytes: &[u8]) -> Result<FrozenTaxonomy, PersistError> {
    let view = open(bytes)?;
    peak_of("to_frozen", TO_FROZEN, bytes.len(), || view.to_frozen())
}

#[test]
fn snapshot_load_rejects_garbage() {
    assert!(matches!(
        open(b"not a snapshot at all"),
        Err(PersistError::BadMagic)
    ));
    assert!(matches!(open(b"CNPB"), Err(PersistError::Truncated(_))));
}

/// What is left of the two formats earlier releases wrote: a header this
/// reader refuses. Every prefix of such a file is an error, and from the
/// header on it is `BadVersion` with the message that names the way out.
fn old_format_every_prefix_errors(version: u32) {
    let mut bytes = b"CNPB".to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(b"INTR\x10\x00\x00\x00\x00\x00\x00\x00 and an old body");
    for cut in 0..=bytes.len() {
        let err = open(&bytes[..cut]).expect_err("an old-format file opened");
        if cut >= 8 {
            assert!(matches!(err, PersistError::BadVersion(v) if v == version));
            let message = err.to_string();
            assert!(message.contains("no longer readable"), "{message}");
            assert!(message.contains("`build_taxonomy` example"), "{message}");
            assert!(message.contains("PipelineOutcome::save_view"), "{message}");
        }
    }
}

#[test]
fn v1_every_truncation_prefix_errors() {
    old_format_every_prefix_errors(1);
}

#[test]
fn v2_every_truncation_prefix_errors() {
    old_format_every_prefix_errors(2);
}

/// Every other value of the version word is a typed `BadVersion` carrying
/// that value — whatever follows the header, and in particular for the
/// two versions earlier releases wrote. Swept one header byte at a time:
/// every value of each, the other three as in a valid file or all ones.
#[test]
fn v3_every_other_version_word_is_bad_version() {
    let valid = v3_bytes();
    for base in [3u32.to_le_bytes(), [0xFF; 4]] {
        for byte in 0..4 {
            for value in 0..=u8::MAX {
                let mut word = base;
                word[byte] = value;
                let version = u32::from_le_bytes(word);
                if version == 3 {
                    continue;
                }
                let mut bytes = valid.clone();
                bytes[4..8].copy_from_slice(&word);
                match open(&bytes) {
                    Err(PersistError::BadVersion(v)) => assert_eq!(v, version),
                    other => panic!("version {version}: {other:?}"),
                }
                // The header alone is enough to say so.
                assert!(matches!(
                    open(&bytes[..8]),
                    Err(PersistError::BadVersion(v)) if v == version
                ));
            }
        }
    }
}

fn v3_bytes() -> Vec<u8> {
    persist::encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store())).to_vec()
}

/// A pipeline-built snapshot: its tables are large enough for the per-byte
/// terms of the bounds to dominate, and some closure rows are bitsets.
fn pipeline_v3_bytes() -> Vec<u8> {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};

    let corpus = CorpusGenerator::new(CorpusConfig::tiny(901)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    persist::encode_frozen_v3(&outcome.freeze()).to_vec()
}

/// `(tag, payload_range)` for every section of a well-formed snapshot.
fn v3_sections(bytes: &[u8]) -> Vec<([u8; 4], std::ops::Range<usize>)> {
    let mut sections = Vec::new();
    let mut pos = 8; // skip magic + version
    while pos + 12 <= bytes.len() {
        let tag: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        sections.push((tag, pos + 12..pos + 12 + len));
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "section framing walk must consume all");
    sections
}

/// Recomputes the trailing CKSM digest after a mutation, so the checksum
/// is *valid* and structural validation alone must reject the content.
fn reseal_v3(bytes: &mut [u8]) {
    let digest_at = bytes.len() - 8;
    let cksm_tag_at = bytes.len() - 20;
    let digest = cn_probase::runtime::stable_hash(&bytes[..cksm_tag_at]);
    bytes[digest_at..].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn v3_every_truncation_prefix_errors() {
    let bytes = v3_bytes();
    assert!(load(&bytes).is_ok(), "baseline decodes");
    for cut in 0..bytes.len() {
        let res = open(&bytes[..cut]);
        assert!(res.is_err(), "truncation at {cut}/{} decoded", bytes.len());
    }
}

#[test]
fn v3_every_single_byte_flip_errors() {
    let bytes = v3_bytes();
    let mut mutated = bytes.clone();
    for i in 0..bytes.len() {
        mutated[i] ^= 0xFF;
        let res = open(&mutated);
        assert!(res.is_err(), "byte flip at {i}/{} decoded", bytes.len());
        mutated[i] = bytes[i];
    }
}

/// `CKSM` is the last thing in a snapshot: the digest cannot vouch for
/// bytes that follow it, whether loose or framed as a section.
#[test]
fn v3_data_after_checksum_errors() {
    for tail in [&b"\x00"[..], b"XTRA\x01\x00\x00\x00\x00\x00\x00\x00\xAA"] {
        let mut bytes = v3_bytes();
        bytes.extend_from_slice(tail);
        let err = open(&bytes).expect_err("data after CKSM accepted");
        assert!(
            matches!(err, PersistError::BadIndex("data after checksum section")),
            "{err}"
        );
    }
}

/// Single-byte flips restricted to section *headers* (tag + length words),
/// the locations a framing bug would mis-handle most catastrophically.
#[test]
fn v3_section_header_flips_error() {
    let bytes = v3_bytes();
    let sections = v3_sections(&bytes);
    assert!(sections.len() >= 16, "v3 writes 15 sections + CKSM");
    let mut mutated = bytes.clone();
    for (_, payload) in &sections {
        for i in payload.start - 12..payload.start {
            for flip in [0x01, 0x80, 0xFF] {
                mutated[i] ^= flip;
                assert!(
                    open(&mutated).is_err(),
                    "header byte {i} ^ {flip:#04x} decoded"
                );
                mutated[i] = bytes[i];
            }
        }
    }
}

/// Hostile section lengths claiming more payload than the file holds must
/// be rejected by the framing walk, before any allocation.
#[test]
fn v3_hostile_lengths_do_not_overallocate() {
    let mut base = b"CNPB".to_vec();
    base.extend_from_slice(&3u32.to_le_bytes());
    for (tag, claimed) in [
        (*b"INTR", u64::MAX),
        (*b"ANCC", u64::MAX / 2),
        (*b"ECON", u64::from(u32::MAX)),
    ] {
        let mut bytes = base.clone();
        bytes.extend_from_slice(&tag);
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]); // far less body than claimed
        assert!(open(&bytes).is_err(), "claimed length {claimed} accepted");
    }
}

/// Hostile *count* fields under a valid checksum: the first two words of
/// every section are set to `u32::MAX` in turn and the checksum is
/// re-sealed. Word 0 is the leading count of INTR/ENTS/CNPT/TOPO/DPTH
/// and the row count of every VCSR, word 1 a VCSR's entry count (SSRT and
/// CSRT have no leading count — the word lands in table content). `open`
/// must reject every count; what lands in table content must fail `open`
/// or `to_frozen`'s deep checks. Neither may allocate by the claim. Swept
/// over a pipeline-built snapshot too, where the tables are large enough
/// for the per-byte terms of the bounds to dominate.
#[test]
fn v3_hostile_counts_error_without_overallocating() {
    let pipeline = pipeline_v3_bytes();
    assert!(load(&pipeline).is_ok(), "baseline decodes");
    let vcsr_tags: &[[u8; 4]] = &[
        *b"ECON", *b"CENT", *b"CPAR", *b"CCHD", *b"EATT", *b"EALS", *b"ANCC", *b"MENT",
    ];
    for bytes in [v3_bytes(), pipeline] {
        for (tag, payload) in v3_sections(&bytes) {
            for off in [0, 4] {
                if tag == *b"CKSM" || payload.start + off + 4 > payload.end {
                    continue;
                }
                let mut mutated = bytes.clone();
                mutated[payload.start + off..payload.start + off + 4]
                    .copy_from_slice(&u32::MAX.to_le_bytes());
                reseal_v3(&mut mutated);
                let is_count = off == 0 || vcsr_tags.contains(&tag);
                let tag = String::from_utf8_lossy(&tag);
                if is_count {
                    assert!(open(&mutated).is_err(), "{tag} count at +{off} opened");
                }
                assert!(load(&mutated).is_err(), "{tag} word at +{off} loaded");
            }
        }
    }
}

/// Hostile varint row bodies under a valid checksum: overwrite the first
/// bytes of a VCSR payload with maximal continuation bytes (a varint
/// claiming a huge row length) and with an overlong encoding; both must be
/// typed errors. A maximal varint stomped at every payload position — row
/// lengths, closure bases, dictionary indexes alike — must stay within
/// the bounds: in every section of the small snapshot, and in the
/// pipeline-built one's closure, where the bitset rows are.
#[test]
fn v3_hostile_varints_error_cleanly() {
    let bytes = v3_bytes();
    for (tag, payload) in v3_sections(&bytes) {
        if !matches!(&tag, b"ECON" | b"MENT" | b"ANCC") {
            continue;
        }
        // The payload area sits after rows/entries words + directory;
        // stomp the *last* 4 bytes of the section, which always land
        // inside row data for these non-empty sections.
        for stomp in [[0xFF, 0xFF, 0xFF, 0xFF], [0x80, 0x80, 0x80, 0x80]] {
            if payload.len() < 4 {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[payload.end - 4..payload.end].copy_from_slice(&stomp);
            reseal_v3(&mut mutated);
            assert!(
                open(&mutated).is_err(),
                "{} with stomped varint tail decoded",
                String::from_utf8_lossy(&tag)
            );
        }
    }
    for (bytes, only) in [(bytes, None), (pipeline_v3_bytes(), Some(*b"ANCC"))] {
        for (tag, payload) in v3_sections(&bytes) {
            if tag == *b"CKSM" || only.is_some_and(|only| only != tag) {
                continue;
            }
            for at in payload.clone() {
                let mut mutated = bytes.clone();
                mutated[at..(at + 4).min(payload.end)].fill(0xFF);
                reseal_v3(&mut mutated);
                let _ = load(&mutated);
            }
        }
    }
}

// ----- compaction ------------------------------------------------------------

/// [`v3_bytes`] with the depth of concept 0 (男演员, a leaf) raised by one,
/// re-sealed: every section keeps its shape, so `open` accepts the file,
/// but `to_frozen` recomputes the depths from the parent rows and refuses
/// it.
fn stomped_leaf_depth_bytes() -> Vec<u8> {
    let mut bytes = v3_bytes();
    let (_, dpth) = v3_sections(&bytes)
        .into_iter()
        .find(|(tag, _)| tag == b"DPTH")
        .expect("DPTH section");
    let at = dpth.start + 4; // past the count word
    let depth = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    bytes[at..at + 4].copy_from_slice(&(depth + 1).to_le_bytes());
    reseal_v3(&mut bytes);
    bytes
}

/// A compaction re-reads its base through `to_frozen`, so a base that only
/// `open`'s shallow checks accepted cannot be folded into a file the next
/// boot trusts: the fold fails, and the service keeps serving the overlay
/// generation it had.
#[test]
fn a_compaction_keeps_the_deep_validation() {
    use cn_probase::runtime::Runtime;
    use cn_probase::taxonomy::{IngestDelta, OverlayView, TaxonomyRead};
    use cn_probase::TaxonomyService;

    let bytes = stomped_leaf_depth_bytes();
    let view = open(&bytes).expect("open defers the depth check");
    assert!(matches!(
        view.to_frozen(),
        Err(PersistError::BadIndex("topo order or depth"))
    ));
    let mut delta = DeltaOverlay::new();
    delta.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));

    let overlay = OverlayView::new(view).apply(&delta);
    assert!(matches!(
        overlay.compacted(&Runtime::serial()),
        Err(PersistError::BadIndex("topo order or depth"))
    ));

    let base = OverlayView::new(open(&bytes).expect("open"));
    let service = TaxonomyService::with_runtime(base, Runtime::serial());
    let generation = service.ingest(&delta).expect("an ingest folds no base");
    assert!(service.compact().is_err());
    let pinned = service.pin();
    assert_eq!(pinned.generation(), generation);
    assert_eq!(pinned.frozen().overlay_depth(), 1);
    assert_eq!(pinned.frozen().men2ent("周杰伦").len(), 1);
}

/// A fold's peak heap above the live bytes it starts from, against the
/// bytes of the base snapshot it folds. The fold passes the snapshot
/// through four forms (view bytes, owned snapshot, build store, refrozen
/// snapshot, bytes again); 13.4 × when each form stayed alive beside the
/// next and every string was held twice per form.
const COMPACTION: Bound = (8, 64 << 10);

/// `small(909)`'s view under an overlay of five deltas of ten new
/// entities, folded on a serial runtime so every allocation is this
/// thread's. Prints the multiple; the bound is the gate.
#[test]
fn a_compaction_peaks_under_eight_snapshots_of_heap() {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};
    use cn_probase::runtime::Runtime;
    use cn_probase::taxonomy::{ConceptId, IngestDelta, OverlayView, TaxonomyRead};

    const DELTAS: usize = 5;
    const ENTITIES_PER_DELTA: usize = 10;

    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let bytes = persist::encode_frozen_v3(&outcome.freeze());
    let view = open(&bytes).expect("pipeline snapshot");
    let concept = view.concept_name(ConceptId(0)).to_string();
    let base_entities = view.num_entities();
    let mut overlay = OverlayView::new(view);
    for d in 0..DELTAS {
        let mut delta = DeltaOverlay::new();
        for i in 0..ENTITIES_PER_DELTA {
            let name = format!("增量实体{d}之{i}");
            let meta = IsAMeta::new(Source::Tag, 0.9);
            delta.upsert_entity_is_a(&name, Some("增量义项"), &concept, meta);
            delta.add_alias(&name, Some("增量义项"), &format!("增量别名{d}之{i}"));
        }
        overlay = overlay.apply(&delta);
    }

    let base = LIVE.get();
    PEAK.set(base);
    let compacted = overlay.compacted(&Runtime::serial()).expect("fold");
    let peak = (PEAK.get() - base) as usize;
    let (k, c) = COMPACTION;
    let limit = k * bytes.len() + c;
    println!(
        "compaction: peak {peak} B above live, {:.1} × the {}-byte snapshot \
         (bound {limit} B; {DELTAS} deltas of {ENTITIES_PER_DELTA} entities, serial runtime)",
        peak as f64 / bytes.len() as f64,
        bytes.len()
    );
    assert_eq!(compacted.overlay_depth(), 0);
    assert_eq!(
        compacted.num_entities(),
        base_entities + DELTAS * ENTITIES_PER_DELTA
    );
    assert!(
        peak <= limit,
        "compaction: peak {peak} B, over its bound {limit} B"
    );
}

/// Heap an interned string may hold beyond its text: its end offset, its
/// share of the lookup table and the spare capacity growth leaves in both
/// and in the text arena. Measured: 21.8 B a string over `small(909)`'s
/// 2 901 strings, 10.5 B of it the text arena's spare capacity (the two
/// `Box<str>` copies and a hash-map entry came to ≈ 88 B).
const INTERNER_BYTES_PER_STRING: usize = 24;

/// The `small(909)` store's interner holds each string's text once. It is
/// rebuilt as the store built it, one `intern` per string in symbol order,
/// and measured live with its spare capacity.
#[test]
fn an_interner_holds_its_text_once_plus_a_few_bytes_a_string() {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};
    use cn_probase::taxonomy::Interner;

    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let strings: Vec<&str> = outcome.taxonomy.interner().iter().map(|(_, s)| s).collect();
    let text: usize = strings.iter().map(|s| s.len()).sum();

    let base = LIVE.get();
    let mut interner = Interner::new();
    for s in &strings {
        interner.intern(s);
    }
    let live = (LIVE.get() - base) as usize;
    assert!(interner.iter().map(|(_, s)| s).eq(strings.iter().copied()));
    let limit = text + INTERNER_BYTES_PER_STRING * strings.len();
    assert!(
        live <= limit,
        "Interner: {live} B live for {} strings of {text} B, over its bound {limit} B",
        strings.len()
    );
}

// ----- delta sidecars -------------------------------------------------------

/// A 400-op sidecar touching every op kind.
fn sidecar_bytes() -> Vec<u8> {
    let mut d = DeltaOverlay::new();
    for i in 0..50 {
        let (name, concept) = (format!("e{i}"), format!("c{}", i % 7));
        d.add_entity(&name, None);
        d.add_concept(&concept);
        d.add_alias(&name, None, &format!("a{i}"));
        d.add_attribute(&name, Some("d"), "job");
        d.upsert_entity_is_a(&name, None, &concept, IsAMeta::new(Source::Tag, 0.9));
        d.upsert_concept_is_a(&concept, "root", IsAMeta::new(Source::SubConcept, 0.8));
        d.retract_entity_is_a(&name, Some("d"), &concept);
        d.retract_concept_is_a(&concept, "top");
    }
    d.encode().to_vec()
}

/// `/admin/ingest` hands request bodies straight to the sidecar decoder.
/// Every cut and every flip of a sidecar is an error. So is an op count or
/// a string length of `u32::MAX` under a re-sealed checksum; that word
/// anywhere else may decode (a NaN confidence). All stay within the bound.
#[test]
fn sidecar_hostile_inputs_error_without_overallocating() {
    let decode_sidecar =
        |b: &[u8]| peak_of("sidecar", SIDECAR, b.len(), || DeltaOverlay::decode(b));
    let bytes = sidecar_bytes();
    assert_eq!(decode_sidecar(&bytes).expect("baseline").num_ops(), 400);
    let body = bytes.len() - 8;
    let err = |bytes: &[u8]| decode_sidecar(bytes).expect_err("decoded").to_string();
    assert_eq!(err(&bytes[..body + 7]), "snapshot checksum mismatch");
    assert_eq!(
        err(&bytes[..10]),
        "snapshot truncated while reading delta header"
    );
    assert_eq!(
        err(&[b"X", &bytes[1..]].concat()),
        "snapshot magic mismatch"
    );
    for at in 0..bytes.len() {
        assert!(decode_sidecar(&bytes[..at]).is_err(), "cut at {at}");
        let mut mutated = bytes.clone();
        mutated[at] ^= 0xFF;
        assert!(decode_sidecar(&mutated).is_err(), "flip at {at}");
        if (4..body - 3).contains(&at) {
            mutated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let digest = cn_probase::runtime::stable_hash(&mutated[..body]);
            mutated[body..].copy_from_slice(&digest.to_le_bytes());
            // The op count sits at 8, the first op's name length at 13.
            let res = decode_sidecar(&mutated);
            assert!(res.is_err() || !matches!(at, 8 | 13), "u32::MAX at {at}");
        }
    }
}

// ----- HTTP and the JSON wire -----------------------------------------------

fn post(content_length: usize, body: &[u8]) -> Vec<u8> {
    let head = format!("POST /v1/query HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n");
    [head.as_bytes(), body].concat()
}

/// A body is allocated as its bytes arrive: a request that claims a
/// megabyte and sends a few bytes costs a few bytes, whatever the cap.
#[test]
fn http_bodies_allocate_what_arrives_not_what_is_claimed() {
    let read_request = |bytes: &[u8]| {
        let read = || http::read_request(&mut std::io::BufReader::new(bytes), MAX_BODY_BYTES);
        peak_of("read_request", HTTP, bytes.len(), read)
    };
    for claimed in [1_000_000, MAX_BODY_BYTES] {
        let err = read_request(&post(claimed, b"{}")).expect_err("short body");
        assert_eq!(
            err.to_string(),
            "malformed request: body shorter than content-length"
        );
    }
    for len in [0, 60, 400, 3_000] {
        let body = vec![b'x'; len];
        assert_eq!(read_request(&post(len, &body)).unwrap().unwrap().body, body);
    }
    let err = read_request(&post(MAX_BODY_BYTES + 1, b"")).expect_err("over the cap");
    assert!(matches!(err, HttpError::BodyTooLarge), "{err}");

    // The client half reads a response body through the same code.
    let response = b"HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\n{}";
    let res = peak_of("read_client_response", HTTP, response.len(), || {
        http::read_client_response(&mut std::io::BufReader::new(&response[..]), MAX_BODY_BYTES)
    });
    assert!(matches!(res, Err(HttpError::Malformed(_))));
}

/// A page `limit`, an array's length or a nesting depth costs what the
/// request spelled out, never what it claims.
#[test]
fn wire_requests_decode_within_bounds() {
    let decode_body = |body: &str| {
        let bytes = body.as_bytes();
        let query = peak_of("read_query", WIRE, bytes.len(), || wire::read_query(bytes));
        let tag = peak_of("read_tag_query", WIRE, bytes.len(), || {
            wire::read_tag_query(bytes)
        });
        let batch = format!(r#"{{"queries":[{body}]}}"#);
        let batch = peak_of("read_batch", WIRE, batch.len(), || {
            wire::read_batch(batch.as_bytes(), MAX_BATCH)
        });
        query.is_ok() || tag.is_ok() || batch.is_ok()
    };
    let good = r#"{"op":"getEntity","concept":"人物","options":{"limit":10}}"#;
    assert!(decode_body(good));
    for limit in ["4294967295", "18446744073709551615", "1e300", "-1"] {
        decode_body(&good.replace("10", limit));
    }
    decode_body(&format!("{}{}", "[".repeat(64), "]".repeat(64)));
    decode_body(&format!("{}{}", "[".repeat(10_000), "]".repeat(10_000)));
    decode_body(&format!("[{}0]", "0,".repeat(5_000)));
    let text = "文".repeat(5_000);
    assert!(decode_body(&format!(r#"{{"op":"tag","text":"{text}"}}"#)));
    // The densest batches there are: the shortest query, each a `Query` of
    // its own, `MAX_BATCH` of them and one past a power of two, where the
    // list's spare capacity is largest.
    let shortest = r#"{"op":"men2ent","mention":""}"#;
    for count in [MAX_BATCH, MAX_BATCH / 2 + 1] {
        let batch = format!(r#"{{"queries":[{}]}}"#, vec![shortest; count].join(","));
        let queries = peak_of("read_batch", WIRE, batch.len(), || {
            wire::read_batch(batch.as_bytes(), MAX_BATCH)
        });
        assert_eq!(queries.map(|q| q.len()), Ok(count));
    }
}

/// Allocation calls a reader may make per query of a 64-query batch: the
/// queries' own strings and the `Vec` that holds them.
const READ_CALLS_PER_QUERY: f64 = 2.0;

/// A 64-query `/v1/batch` body shaped like the benchmark's `batch_lookup`:
/// the seven lookup operations in turn, list options as it sends them.
fn lookup_batch() -> String {
    use cn_probase::serve::{ListOptions, PageRequest, Query};
    let queries: Vec<Json> = (0..64)
        .map(|i| {
            let name = format!("刘德华{i}");
            let query = match i % 7 {
                0 => Query::men2ent(name),
                1 => Query::GetConceptByMention {
                    mention: name,
                    options: ListOptions::transitive(),
                },
                2 => Query::GetEntity {
                    concept: name,
                    options: ListOptions::transitive().with_page(PageRequest::first(10)),
                },
                3 => Query::GetConcept {
                    entity: name,
                    options: ListOptions::transitive(),
                },
                4 => Query::MentionSenses { mention: name },
                5 => Query::IsA {
                    sub: name,
                    sup: "人物".to_string(),
                    transitive: true,
                },
                _ => Query::AncestorsOf { concept: name },
            };
            wire::encode_query(&query)
        })
        .collect();
    Json::Obj(vec![("queries".to_string(), Json::Arr(queries))]).write()
}

/// Allocation calls `f` makes on this thread.
fn calls_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = CALLS.get();
    let out = f();
    (CALLS.get() - base, out)
}

/// The request path allocates the queries and their list, nothing per
/// token: 78 calls for this 4 481-byte body (1.2 a query), where
/// `Json::parse` + `wire::decode_query` make 549 (8.6 a query; 730, 11.4
/// a query, before the tree was built on `json::Reader`).
#[test]
fn a_lookup_batch_reads_with_two_allocations_a_query() {
    let body = lookup_batch();
    let (calls, queries) = calls_of(|| wire::read_batch(body.as_bytes(), MAX_BATCH));
    let queries = queries.expect("a valid batch");
    assert_eq!(queries.len(), 64);
    let (tree_calls, tree) = calls_of(|| {
        let doc = Json::parse(&body).expect("valid JSON");
        let items = doc
            .get("queries")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        items
            .iter()
            .map(wire::decode_query)
            .collect::<Result<Vec<_>, _>>()
    });
    assert_eq!(tree, Ok(queries), "the readers and the tree disagree");
    let per_query = calls as f64 / 64.0;
    assert!(
        per_query <= READ_CALLS_PER_QUERY,
        "read_batch made {calls} allocation calls for 64 queries ({per_query:.2} a query; \
         the tree path makes {tree_calls})"
    );
}

// ----- The per-generation tag index -----------------------------------------

/// Live heap a `TagIndex` may hold per seeded word, everything it owns
/// counted: the base lexicon, the dictionary's node arena, the segmenter's
/// HMM and the concept-name set. It holds 114 B a word here (444 B with a
/// `HashMap` per trie node); 128 B a word is 1.6 MB at the 20k-page
/// snapshot's 12 493 seeded names.
const TAG_INDEX_BYTES_PER_SEEDED_WORD: usize = 128;

/// Every generation builds its own `TagIndex`, so its size is paid once per
/// live generation and grows with the names a snapshot holds. Measured
/// live, holding the built index: scratch the build frees does not count,
/// spare capacity does.
#[test]
fn tag_index_live_bytes_per_seeded_word_are_bounded() {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};
    use cn_probase::tag::TagIndex;

    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let view = open(&persist::encode_frozen_v3(&outcome.freeze())).expect("pipeline snapshot");
    let base = LIVE.get();
    let index = TagIndex::build(&view);
    let live = (LIVE.get() - base) as usize;
    let seeded = index.seeded_words();
    assert!(seeded > 1_000, "only {seeded} seeded words");
    let limit = TAG_INDEX_BYTES_PER_SEEDED_WORD * seeded;
    assert!(
        live <= limit,
        "TagIndex: {live} B live for {seeded} seeded words, over its bound {limit} B"
    );
}

/// Allocation calls one tag request may make per document. A document of
/// 8 page abstracts resolves ≈ 29 spans: each owns its text and its
/// sense list, and each returned hit its name and evidence list.
const TAG_CALLS_PER_DOC: f64 = 150.0;

/// Tagging allocates per resolved span, not per token, per window probe
/// or per scored concept: 32 documents shaped like the benchmark's
/// `tag_docs` (8 page abstracts each), tagged through the zero-copy view
/// and its `TagIndex`, the index built outside the count.
#[test]
fn a_tag_request_allocates_per_span_not_per_token() {
    use cn_probase::encyclopedia::{CorpusConfig, CorpusGenerator};
    use cn_probase::pipeline::{Pipeline, PipelineConfig};
    use cn_probase::tag::{tag_with, TagIndex, TagOptions};

    const DOCS: usize = 32;
    const ABSTRACTS_PER_DOC: usize = 8;

    let corpus = CorpusGenerator::new(CorpusConfig::small(909)).generate();
    let outcome = Pipeline::new(PipelineConfig::fast()).run(&corpus);
    let view = open(&persist::encode_frozen_v3(&outcome.freeze())).expect("pipeline snapshot");
    let index = TagIndex::build(&view);
    let abstracts: Vec<&str> = corpus
        .pages
        .iter()
        .map(|p| p.abstract_text.as_str())
        .filter(|a| !a.is_empty())
        .collect();
    let docs: Vec<String> = (0..DOCS)
        .map(|d| {
            (0..ABSTRACTS_PER_DOC)
                .map(|k| abstracts[(d * ABSTRACTS_PER_DOC + k) * 7_919 % abstracts.len()])
                .collect()
        })
        .collect();
    let options = TagOptions::default();
    let (mut calls, mut spans) = (0usize, 0usize);
    for doc in &docs {
        let (n, out) = calls_of(|| tag_with(&view, &index, doc, &options));
        calls += n;
        spans += out.spans.len();
    }
    let per_doc = calls as f64 / DOCS as f64;
    let spans_per_doc = spans as f64 / DOCS as f64;
    println!(
        "tag request: {per_doc:.1} allocation calls per document \
         ({spans_per_doc:.1} spans, {DOCS} documents of {ABSTRACTS_PER_DOC} abstracts)"
    );
    assert!(spans > 0, "no document resolved a span");
    assert!(
        per_doc <= TAG_CALLS_PER_DOC,
        "tag_with made {per_doc:.1} allocation calls per document, over {TAG_CALLS_PER_DOC}"
    );
}
