//! The two on-disk codecs: the `CNPB` snapshot and the `CNPD` delta sidecar.
//!
//! A production taxonomy service loads its state from a snapshot at boot.
//! There is one snapshot format. [`encode_frozen_v3`] writes a finished
//! [`FrozenTaxonomy`]; [`crate::view::FrozenTaxonomyView`] opens the
//! buffer and answers every query by borrowing directly out of it, so
//! boot allocates nothing per section and validation is a single
//! bounds/invariant sweep over the raw bytes. CSR rows are
//! delta+varint-encoded ([`crate::varint`]) and the ancestor closure is a
//! succinct run/bitset encoding decoded on the query path. A caller that
//! wants owned rows materialises them from the same bytes with
//! [`FrozenTaxonomyView::to_frozen`], after the deep semantic checks of
//! [`FrozenTaxonomyView::validate_deep`].
//!
//! [`FrozenTaxonomyView::to_frozen`]: crate::view::FrozenTaxonomyView::to_frozen
//! [`FrozenTaxonomyView::validate_deep`]: crate::view::FrozenTaxonomyView::validate_deep
//!
//! ```text
//! magic "CNPB" | version u32 = 3
//!   | section*          section = tag [u8;4] | byte-length u64 | payload
//!   | "CKSM" section    FNV-1a of every byte before the CKSM tag
//! ```
//!
//! Readers skip sections with unknown tags, so future writers can add
//! sections (before `CKSM`) without breaking old readers. Opening
//! validates the magic and version, every string, symbol and id bound,
//! the row framing of every relation and finally the content checksum —
//! a truncated or bit-flipped snapshot fails loudly instead of producing a
//! broken service, and no length field is trusted for an allocation.
//! Versions 1 and 2 (the build-store and owned-CSR layouts of earlier
//! releases) are no longer readable: they fail with
//! [`PersistError::BadVersion`], whose message names the rebuild path.
//!
//! The delta sidecar (`CNPD`, [`crate::overlay::DeltaOverlay`]) is the
//! write path's unit of ingest and has its own magic; see the section at
//! the end of this file.

use crate::frozen::FrozenTaxonomy;
use crate::hash::FxHashSet;
use crate::interner::Symbol;
use crate::overlay::{DeltaOp, DeltaOverlay};
use crate::store::{EntityRecord, IsAMeta, Source};
use crate::varint::{put_varint, varint_len, zigzag};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cnp_runtime::stable_hash;
use std::fmt;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

pub(crate) const MAGIC: &[u8; 4] = b"CNPB";
/// The snapshot format version [`encode_frozen_v3`] writes and
/// [`crate::view::FrozenTaxonomyView::open`] reads.
pub const VERSION_VIEW: u32 = 3;

// ----- section tags -------------------------------------------------------

pub(crate) const SEC_INTERNER: [u8; 4] = *b"INTR";
pub(crate) const SEC_ENTITIES: [u8; 4] = *b"ENTS";
pub(crate) const SEC_CONCEPTS: [u8; 4] = *b"CNPT";
pub(crate) const SEC_ENTITY_CONCEPTS: [u8; 4] = *b"ECON";
pub(crate) const SEC_CONCEPT_ENTITIES: [u8; 4] = *b"CENT";
pub(crate) const SEC_CONCEPT_PARENTS: [u8; 4] = *b"CPAR";
pub(crate) const SEC_CONCEPT_CHILDREN: [u8; 4] = *b"CCHD";
pub(crate) const SEC_ENTITY_ATTRS: [u8; 4] = *b"EATT";
pub(crate) const SEC_ENTITY_ALIASES: [u8; 4] = *b"EALS";
pub(crate) const SEC_TOPO: [u8; 4] = *b"TOPO";
pub(crate) const SEC_DEPTH: [u8; 4] = *b"DPTH";
pub(crate) const SEC_MENTIONS: [u8; 4] = *b"MENT";
/// Interner symbols sorted by string bytes (binary-search index).
pub(crate) const SEC_STR_SORT: [u8; 4] = *b"SSRT";
/// Concept ids sorted by name symbol (binary-search index).
pub(crate) const SEC_CONCEPT_SORT: [u8; 4] = *b"CSRT";
/// Succinct ancestor closure (run/bitset rows).
pub(crate) const SEC_ANCESTOR_SUCC: [u8; 4] = *b"ANCC";
/// The deduplicated `(source, confidence)` dictionary every meta row
/// indexes into — real corpora carry a handful of distinct edge
/// provenances, so one varint per edge replaces five raw bytes.
pub(crate) const SEC_META_DICT: [u8; 4] = *b"MDCT";
/// Mention-key hash index — `(stable_hash32, symbol)` pairs for every
/// non-empty mention row, sorted by hash. `men2ent` resolves a mention
/// with one hash plus a binary search over fixed-width rows instead of
/// `log n` string comparisons through the interner.
pub(crate) const SEC_MENTION_HASH: [u8; 4] = *b"MHSH";
pub(crate) const SEC_CHECKSUM: [u8; 4] = *b"CKSM";

/// Rows per directory entry in a varint-CSR section: row `i` is reached
/// by one directory jump plus at most `VCSR_BLOCK - 1` length skips.
///
/// 8 keeps the skip loop short enough that random row access (the
/// `getEntity` hyponym walk, `entity_edge` confidence probes) stays within
/// ~2x of the owned CSR, while the directory still costs only half a byte
/// per row.
pub(crate) const VCSR_BLOCK: usize = 8;

/// Succinct-closure row flavors: strictly ascending (gap, run-length)
/// pairs, or a base id plus a bitmap spanning the row.
pub(crate) const ANCC_RANGES: u8 = 0;
pub(crate) const ANCC_BITSET: u8 = 1;

/// Errors produced while decoding a snapshot or a delta sidecar.
#[derive(Debug)]
pub enum PersistError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// Unsupported format version. Snapshot versions 1 and 2 were readable
    /// by earlier releases; their message says how to rebuild.
    BadVersion(u32),
    /// The buffer ended before the structure was complete.
    Truncated(&'static str),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An id/symbol referenced an out-of-range table index, or a structural
    /// invariant (CSR offsets, closure/depth consistency, …) failed.
    BadIndex(&'static str),
    /// The content checksum did not match the payload.
    BadChecksum,
    /// A required snapshot section was absent.
    MissingSection(&'static str),
    /// Underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "snapshot magic mismatch"),
            PersistError::BadVersion(v @ (1 | 2)) => write!(
                f,
                "snapshot format v{v} is no longer readable (only v{VERSION_VIEW} is): rebuild \
                 the snapshot from the corpus with the `build_taxonomy` example or \
                 `PipelineOutcome::save_view`"
            ),
            PersistError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::Truncated(what) => write!(f, "snapshot truncated while reading {what}"),
            PersistError::BadUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            PersistError::BadIndex(what) => write!(f, "snapshot contains out-of-range {what}"),
            PersistError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            PersistError::MissingSection(tag) => write!(f, "snapshot is missing section {tag}"),
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Reads the magic + version header without decoding the body.
pub fn peek_version(buf: &[u8]) -> Result<u32, PersistError> {
    if buf.len() < 8 {
        return Err(PersistError::Truncated("header"));
    }
    if &buf[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    Ok(u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]))
}

// ----- the snapshot encoder -----------------------------------------------
//
// Section bodies are designed so `FrozenTaxonomyView` can answer every
// query straight off the buffer:
//
// * `INTR` — `n u32 | n×u32 cumulative byte ends | concatenated UTF-8` —
//   string `i` is `blob[end[i-1]..end[i]]`, no per-string length prefix.
// * `SSRT` / `CSRT` — symbols sorted by string bytes / concept ids sorted
//   by name symbol: binary-search indexes, so boot builds no hash map.
// * `ENTS` / `CNPT` / `TOPO` / `DPTH` — `n u32` plus fixed-width `u32`
//   records (an entity is `name, disambig`).
// * `MDCT` — `n u32 | n×(source u8 | conf f32)` — the deduplicated edge
//   metadata dictionary, sorted by `(source tag, confidence bits)`.
// * CSR relations — varint-CSR ("VCSR"): `rows u32 | entries u32 |
//   dir ceil(rows/VCSR_BLOCK)×u32 | payload_len u32 | payload`, each row
//   a `varint(byte_len)` prefix plus delta+varint-encoded ids (first id
//   raw, then zigzag deltas). Meta rows (`ECON`, `CPAR`) follow each id
//   with a varint `MDCT` index; `CENT` rows carry the same index for the
//   mirrored entity→concept edge, so the `getEntity` hyponym walk reads
//   its confidences inline instead of probing the entity's `ECON` row per
//   hit. The directory holds every `VCSR_BLOCK`th row's payload offset,
//   so random row access is one jump plus at most `VCSR_BLOCK - 1`
//   length skips. `put_delta_row` writes every such row; the view reads
//   every one with its one decoder, `DeltaRow`.
// * `ANCC` — the succinct ancestor closure: per row either strictly
//   ascending `(gap, run_len-1)` pairs (closures over topo-ordered ids
//   are usually a handful of intervals) or `base + bitmap` where the
//   interval structure breaks down; the encoder picks whichever is
//   smaller. An empty row is zero bytes. `put_ancc_row` writes every
//   such row; the view parses every one into its one row type, `AnccRow`.
// * `MHSH` — `n u32 | n×(hash u32 | symbol u32)`, sorted by hash.

/// Every table of a snapshot, row by row, in the form its section stores
/// it: what the v3 encoder reads. Symbols and ids are the written ones.
/// Three forms implement it: the owned [`FrozenTaxonomy`] (the build
/// path), the [`crate::view::FrozenTaxonomyView`] a server reads in place,
/// and a fold's merge of a base with its overlay (`crate::compact`). Each
/// `*_row` method fills `out`, which the encoder passes empty, with row
/// `i`; the encoder asks for every row twice, once to size the output and
/// once to write it.
pub(crate) trait SnapshotRows {
    /// Number of strings; symbol `s` is [`string`](Self::string)`(s)`.
    fn n_strings(&self) -> usize;
    fn string(&self, s: usize) -> &str;
    /// The strings' total byte length.
    fn text_len(&self) -> usize;
    /// Every symbol, by string bytes (`SSRT`).
    fn ssrt(&self) -> impl Iterator<Item = u32> + '_;
    fn n_entities(&self) -> usize;
    fn entity_record(&self, e: usize) -> EntityRecord;
    fn n_concepts(&self) -> usize;
    fn concept_symbol(&self, c: usize) -> Symbol;
    /// Every concept id, by name symbol (`CSRT`).
    fn csrt(&self) -> impl Iterator<Item = u32> + '_;
    /// An entity's concepts with the edges' metadata (`ECON`).
    fn econ_row(&self, e: usize, out: &mut Vec<(u32, IsAMeta)>);
    /// A concept's entities in serving rank order, each with its `ECON`
    /// edge's metadata (`CENT`).
    fn cent_row(&self, c: usize, out: &mut Vec<(u32, IsAMeta)>);
    /// A concept's parents with the edges' metadata (`CPAR`).
    fn cpar_row(&self, c: usize, out: &mut Vec<(u32, IsAMeta)>);
    fn cchd_row(&self, c: usize, out: &mut Vec<u32>);
    fn eatt_row(&self, e: usize, out: &mut Vec<u32>);
    fn eals_row(&self, e: usize, out: &mut Vec<u32>);
    /// A concept's transitive ancestors, ascending (`ANCC`).
    fn ancc_row(&self, c: usize, out: &mut Vec<u32>);
    /// The concepts in topological order (`TOPO`), `n_concepts` of them.
    fn topo(&self) -> impl Iterator<Item = u32> + '_;
    fn depth_of(&self, c: usize) -> u32;
    /// The entities named or aliased by symbol `s`, ascending (`MENT`).
    fn ment_row(&self, s: usize, out: &mut Vec<u32>);
    /// `(hash, symbol)` of every non-empty mention row, ascending (`MHSH`).
    fn mhsh(&self) -> impl Iterator<Item = (u32, u32)> + '_;
}

/// The `MHSH` hash of a mention string.
pub(crate) fn mention_hash(s: &str) -> u32 {
    stable_hash(s.as_bytes()) as u32
}

/// Serializes a frozen snapshot to bytes, for
/// [`crate::view::FrozenTaxonomyView`] to open: `encode` over the owned
/// form's rows.
pub fn encode_frozen_v3(f: &FrozenTaxonomy) -> Bytes {
    encode(f)
}

/// Serializes a snapshot's rows to v3 bytes.
///
/// The bytes are written once, into their final allocation: a sizing pass
/// adds up every section's length, without sorting or hashing (and,
/// below 129 distinct edge metadata values, without looking anything up),
/// and the write fills a buffer of exactly that length in place, each row
/// straight after its length prefix. So an encode holds its output once,
/// plus the metadata dictionary, one row of scratch and whatever the rows'
/// source needs for its sorted sections (the owned form sorts `SSRT`,
/// `CSRT` and `MHSH`; a view reads them, and a fold merges the few new
/// entries into the base's).
pub(crate) fn encode(rows: &impl SnapshotRows) -> Bytes {
    let dict = meta_dict(rows);
    let len = encoded_len(rows, &dict);
    let mut buf = zeroed(len);
    let written = Arc::get_mut(&mut buf).map(|out| {
        let mut out = Out { buf: out, at: 0 };
        write_v3(rows, &dict, &mut out);
        out.at
    });
    assert_eq!(
        written,
        Some(len),
        "the sizing pass and the writer must agree on every section"
    );
    Bytes::from(buf)
}

/// Writes a snapshot to `path`.
pub fn save_frozen_v3_to_file(f: &FrozenTaxonomy, path: &Path) -> Result<(), PersistError> {
    std::fs::write(path, encode_frozen_v3(f))?;
    Ok(())
}

/// A zero-filled buffer of exactly `len` bytes, in the one allocation a
/// [`Bytes`] then shares; its only owner fills it through `Arc::get_mut`.
/// `collect` over `repeat(0).take(len)` knows the exact length up front,
/// so it allocates once and copies nothing, where `Arc::from(vec![0; len])`
/// allocates twice and holds both. (`repeat_n` says the same more
/// briefly, but is newer than the workspace's `rust-version`.)
pub(crate) fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat(0u8).take(len).collect()
}

/// Reads `len` bytes — a file's length as its metadata gave it — from
/// `reader` into one [`zeroed`] buffer, the one the caller keeps. A reader
/// that ends sooner or holds more (a file whose length changed during the
/// read) is refused.
pub(crate) fn read_exact_len(mut reader: impl Read, len: u64) -> Result<Bytes, PersistError> {
    let changed = || {
        PersistError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "snapshot file changed length while it was read",
        ))
    };
    let len = usize::try_from(len).map_err(|_| PersistError::Truncated("snapshot file"))?;
    let mut buf = zeroed(len);
    // A fresh `Arc` has one owner, so `get_mut` always finds it.
    let Some(dst) = Arc::get_mut(&mut buf) else {
        return Err(changed());
    };
    reader.read_exact(dst).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => changed(),
        _ => PersistError::Io(e),
    })?;
    if reader.read(&mut [0u8; 1])? != 0 {
        return Err(changed());
    }
    Ok(Bytes::from(buf))
}

/// The encoder's cursor over its final allocation, [`encoded_len`] bytes
/// long. Writing past the end is a sizing-pass bug and panics.
struct Out<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Out<'_> {
    /// Overwrites bytes already written at `at` (a length or offset slot).
    fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }
}

impl BufMut for Out<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        let end = self.at + src.len();
        self.buf[self.at..end].copy_from_slice(src);
        self.at = end;
    }

    fn put_u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }
}

/// Section framing: the tag and the `u64` length [`section`] writes
/// before a payload.
const SECTION_HEADER: usize = 12;

fn section(out: &mut Out<'_>, tag: [u8; 4], write: impl FnOnce(&mut Out<'_>)) {
    // Write the payload in place and patch the length slot afterwards.
    out.put_slice(&tag);
    let len_at = out.at;
    out.put_u64_le(0);
    let start = out.at;
    write(out);
    let len = (out.at - start) as u64;
    out.patch(len_at, &len.to_le_bytes());
}

/// How the rows of one varint-CSR relation are written. `len` is a row's
/// exact byte length, computed without writing it: the sizing pass adds
/// it up, and the write puts it in front of the row as its length prefix.
trait RowFormat<T> {
    fn len(&self, row: &[T]) -> usize;
    fn put(&self, out: &mut Out<'_>, row: &[T]);
}

/// Rows of plain ids: `CCHD`, `EATT`, `EALS`, `MENT`.
struct IdRows;

impl RowFormat<u32> for IdRows {
    fn len(&self, row: &[u32]) -> usize {
        delta_ids_len(row.iter().copied())
    }

    fn put(&self, out: &mut Out<'_>, row: &[u32]) {
        put_delta_row(out, row.iter().map(|&id| (id, None)));
    }
}

/// Edge rows with their metadata's dictionary index: `ECON`, `CPAR`, and
/// `CENT`, whose hyponym rows mirror the entity→concept edge's index
/// inline, so `getEntity` never probes `ECON` per hit.
struct MetaRows<'a> {
    dict: &'a [(u8, u32)],
}

impl RowFormat<(u32, IsAMeta)> for MetaRows<'_> {
    fn len(&self, row: &[(u32, IsAMeta)]) -> usize {
        let indexes = row
            .iter()
            .map(|(_, m)| index_len(self.dict, || dict_index(self.dict, m)));
        delta_ids_len(row.iter().map(|&(id, _)| id)) + indexes.sum::<usize>()
    }

    fn put(&self, out: &mut Out<'_>, row: &[(u32, IsAMeta)]) {
        let dict = self.dict;
        put_delta_row(
            out,
            row.iter().map(|(id, m)| (*id, Some(dict_index(dict, m)))),
        );
    }
}

/// `ANCC` rows.
struct AncestorRows;

impl RowFormat<u32> for AncestorRows {
    fn len(&self, row: &[u32]) -> usize {
        ancc_forms(row.iter().copied()).map_or(0, |(ranges, bitset)| ranges.min(bitset))
    }

    fn put(&self, out: &mut Out<'_>, row: &[u32]) {
        put_ancc_row(out, row);
    }
}

/// The byte length of a dictionary index. A dictionary of at most 128
/// entries (every real corpus's: a handful) has one-byte indexes only, so
/// the sizing pass looks nothing up; `index` is asked only past that.
fn index_len(dict: &[(u8, u32)], index: impl FnOnce() -> u64) -> usize {
    if dict.len() <= 128 {
        1
    } else {
        varint_len(index())
    }
}

/// The exact length [`write_v3`] writes, section by section in the same
/// order: fixed-width sections by count, varint-CSR sections row by row.
fn encoded_len(rows: &impl SnapshotRows, dict: &[(u8, u32)]) -> usize {
    let strings = rows.n_strings();
    let entities = rows.n_entities();
    let concepts = rows.n_concepts();
    let meta = MetaRows { dict };
    let (ment, mention_keys) = vcsr_len(strings, |s, out| rows.ment_row(s, out), &IdRows);
    let sections = [
        4 + 4 * strings + rows.text_len(),                           // INTR
        4 * strings,                                                 // SSRT
        4 + 8 * entities,                                            // ENTS
        4 + 4 * concepts,                                            // CNPT
        4 * concepts,                                                // CSRT
        4 + 5 * dict.len(),                                          // MDCT
        vcsr_len(entities, |e, out| rows.econ_row(e, out), &meta).0, // ECON
        vcsr_len(concepts, |c, out| rows.cent_row(c, out), &meta).0, // CENT
        vcsr_len(concepts, |c, out| rows.cpar_row(c, out), &meta).0, // CPAR
        vcsr_len(concepts, |c, out| rows.cchd_row(c, out), &IdRows).0, // CCHD
        vcsr_len(entities, |e, out| rows.eatt_row(e, out), &IdRows).0, // EATT
        vcsr_len(entities, |e, out| rows.eals_row(e, out), &IdRows).0, // EALS
        vcsr_len(concepts, |c, out| rows.ancc_row(c, out), &AncestorRows).0, // ANCC
        4 + 4 * concepts,                                            // TOPO
        4 + 4 * concepts,                                            // DPTH
        ment,                                                        // MENT
        4 + 8 * mention_keys,                                        // MHSH
    ];
    let checksum = SECTION_HEADER + 8;
    8 + sections
        .iter()
        .map(|len| SECTION_HEADER + len)
        .sum::<usize>()
        + checksum
}

/// Writes every section of the snapshot into `out`, which holds exactly
/// [`encoded_len`] bytes.
fn write_v3(rows: &impl SnapshotRows, dict: &[(u8, u32)], out: &mut Out<'_>) {
    let strings = rows.n_strings();
    let entities = rows.n_entities();
    let concepts = rows.n_concepts();
    let meta = MetaRows { dict };
    out.put_slice(MAGIC);
    out.put_u32_le(VERSION_VIEW);

    section(out, SEC_INTERNER, |b| {
        b.put_u32_le(strings as u32);
        let mut end = 0u32;
        for s in 0..strings {
            end += rows.string(s).len() as u32;
            b.put_u32_le(end);
        }
        for s in 0..strings {
            b.put_slice(rows.string(s).as_bytes());
        }
    });
    section(out, SEC_STR_SORT, |b| {
        for s in rows.ssrt() {
            b.put_u32_le(s);
        }
    });
    section(out, SEC_ENTITIES, |b| {
        b.put_u32_le(entities as u32);
        for e in 0..entities {
            let rec = rows.entity_record(e);
            b.put_u32_le(rec.name.0);
            b.put_u32_le(rec.disambig.0);
        }
    });
    section(out, SEC_CONCEPTS, |b| {
        b.put_u32_le(concepts as u32);
        for c in 0..concepts {
            b.put_u32_le(rows.concept_symbol(c).0);
        }
    });
    section(out, SEC_CONCEPT_SORT, |b| {
        for c in rows.csrt() {
            b.put_u32_le(c);
        }
    });
    section(out, SEC_META_DICT, |b| {
        b.put_u32_le(dict.len() as u32);
        for &(src, conf_bits) in dict {
            b.put_u8(src);
            b.put_u32_le(conf_bits);
        }
    });
    section(out, SEC_ENTITY_CONCEPTS, |b| {
        put_vcsr(b, entities, |e, out| rows.econ_row(e, out), &meta);
    });
    section(out, SEC_CONCEPT_ENTITIES, |b| {
        put_vcsr(b, concepts, |c, out| rows.cent_row(c, out), &meta);
    });
    section(out, SEC_CONCEPT_PARENTS, |b| {
        put_vcsr(b, concepts, |c, out| rows.cpar_row(c, out), &meta);
    });
    section(out, SEC_CONCEPT_CHILDREN, |b| {
        put_vcsr(b, concepts, |c, out| rows.cchd_row(c, out), &IdRows);
    });
    section(out, SEC_ENTITY_ATTRS, |b| {
        put_vcsr(b, entities, |e, out| rows.eatt_row(e, out), &IdRows);
    });
    section(out, SEC_ENTITY_ALIASES, |b| {
        put_vcsr(b, entities, |e, out| rows.eals_row(e, out), &IdRows);
    });
    section(out, SEC_ANCESTOR_SUCC, |b| {
        put_vcsr(b, concepts, |c, out| rows.ancc_row(c, out), &AncestorRows);
    });
    section(out, SEC_TOPO, |b| {
        b.put_u32_le(concepts as u32);
        for c in rows.topo() {
            b.put_u32_le(c);
        }
    });
    section(out, SEC_DEPTH, |b| {
        b.put_u32_le(concepts as u32);
        for c in 0..concepts {
            b.put_u32_le(rows.depth_of(c));
        }
    });
    section(out, SEC_MENTIONS, |b| {
        put_vcsr(b, strings, |s, out| rows.ment_row(s, out), &IdRows);
    });
    section(out, SEC_MENTION_HASH, |b| {
        // The count is the sizing pass's non-empty `MENT` rows; it is
        // patched in once the entries are written.
        let count_at = b.at;
        b.put_u32_le(0);
        let mut count = 0u32;
        for (hash, sym) in rows.mhsh() {
            b.put_u32_le(hash);
            b.put_u32_le(sym);
            count += 1;
        }
        b.patch(count_at, &count.to_le_bytes());
    });

    let digest = stable_hash(&out.buf[..out.at]);
    out.put_slice(&SEC_CHECKSUM);
    out.put_u64_le(8);
    out.put_u64_le(digest);
}

/// The byte length of a [`put_vcsr`] section body of `n` rows, `row(i, out)`
/// appending row `i` — the two counts, the directory, the payload length
/// and every row with its length prefix — and how many rows are not empty.
fn vcsr_len<T>(
    n: usize,
    row: impl Fn(usize, &mut Vec<T>),
    format: &impl RowFormat<T>,
) -> (usize, usize) {
    let (mut payload, mut nonempty) = (0usize, 0usize);
    let mut scratch = Vec::new();
    for i in 0..n {
        scratch.clear();
        row(i, &mut scratch);
        let len = format.len(&scratch);
        payload += varint_len(len as u64) + len;
        nonempty += usize::from(!scratch.is_empty());
    }
    (8 + 4 * n.div_ceil(VCSR_BLOCK) + 4 + payload, nonempty)
}

/// A varint-CSR section body, written in place: each row straight after
/// its length prefix, each directory slot as its row is reached, the entry
/// count and the payload length once every row is written.
fn put_vcsr<T>(
    out: &mut Out<'_>,
    n: usize,
    row: impl Fn(usize, &mut Vec<T>),
    format: &impl RowFormat<T>,
) {
    out.put_u32_le(n as u32);
    let entries_at = out.at;
    out.put_u32_le(0);
    let dir_at = out.at;
    for _ in 0..n.div_ceil(VCSR_BLOCK) {
        out.put_u32_le(0);
    }
    let payload_len_at = out.at;
    out.put_u32_le(0);
    let payload_at = out.at;
    let mut entries = 0usize;
    let mut scratch = Vec::new();
    for i in 0..n {
        if i % VCSR_BLOCK == 0 {
            let offset = (out.at - payload_at) as u32;
            out.patch(dir_at + 4 * (i / VCSR_BLOCK), &offset.to_le_bytes());
        }
        scratch.clear();
        row(i, &mut scratch);
        put_varint(out, format.len(&scratch) as u64);
        format.put(out, &scratch);
        entries += scratch.len();
    }
    out.patch(entries_at, &(entries as u32).to_le_bytes());
    let payload_len = (out.at - payload_at) as u32;
    out.patch(payload_len_at, &payload_len.to_le_bytes());
}

/// One varint-CSR row: the first id raw, every later one a zigzag delta
/// from its predecessor, each followed by its `MDCT` index where the
/// relation carries edge metadata. The one writer of these rows; the
/// view's `DeltaRow` is their one reader, for `open`'s validation, the
/// queries and `to_frozen` alike.
fn put_delta_row(b: &mut Out<'_>, row: impl Iterator<Item = (u32, Option<u64>)>) {
    let mut prev: Option<u32> = None;
    for (id, meta_index) in row {
        match prev.replace(id) {
            None => put_varint(b, u64::from(id)),
            Some(prev) => put_varint(b, zigzag(i64::from(id) - i64::from(prev))),
        }
        if let Some(index) = meta_index {
            put_varint(b, index);
        }
    }
}

/// The byte length [`put_delta_row`] writes for `ids` without metadata.
fn delta_ids_len(ids: impl Iterator<Item = u32>) -> usize {
    let mut prev: Option<u32> = None;
    ids.map(|id| match prev.replace(id) {
        None => varint_len(u64::from(id)),
        Some(prev) => varint_len(zigzag(i64::from(id) - i64::from(prev))),
    })
    .sum()
}

/// `IsAMeta`'s fields are public, so an unclamped or NaN confidence can
/// reach a store without passing `IsAMeta::new`. Clamp on the way out
/// (NaN → 0.0, the `IsAMeta::new` convention): the view rejects
/// out-of-range confidences as corruption, and a snapshot that saved
/// successfully must always load.
fn clamp_conf(c: f32) -> f32 {
    if c.is_nan() {
        0.0
    } else {
        c.clamp(0.0, 1.0)
    }
}

/// A metadata value's dictionary key.
fn meta_key(m: &IsAMeta) -> (u8, u32) {
    (m.source.to_u8(), clamp_conf(m.confidence).to_bits())
}

/// Builds the deduplicated `(source tag, confidence bits)` dictionary the
/// v3 meta rows index into: every value an `ECON` or `CPAR` edge carries,
/// sorted, so re-encoding a decoded snapshot is byte-identical and a fold
/// whose log adds or drops a value renumbers the indexes as a fresh build
/// would.
fn meta_dict(rows: &impl SnapshotRows) -> Vec<(u8, u32)> {
    // Deduplicated as it is collected: the scratch is the handful of
    // distinct values and one row, not one entry per edge. The sort fixes
    // the order.
    let mut distinct: FxHashSet<(u8, u32)> = FxHashSet::default();
    let mut row = Vec::new();
    for e in 0..rows.n_entities() {
        row.clear();
        rows.econ_row(e, &mut row);
        distinct.extend(row.iter().map(|(_, m)| meta_key(m)));
    }
    for c in 0..rows.n_concepts() {
        row.clear();
        rows.cpar_row(c, &mut row);
        distinct.extend(row.iter().map(|(_, m)| meta_key(m)));
    }
    let mut dict: Vec<(u8, u32)> = distinct.into_iter().collect();
    dict.sort_unstable();
    dict
}

/// Dictionary index of an edge's metadata; 0 only ever falls out for a
/// meta value absent from the dictionary, which cannot happen for the
/// rows the dictionary was built from.
fn dict_index(dict: &[(u8, u32)], m: &IsAMeta) -> u64 {
    dict.binary_search(&meta_key(m)).map_or(0, |i| i as u64)
}

/// Maximal runs of consecutive ids in a strictly ascending row, as
/// `(first id, length)`.
fn runs(row: impl IntoIterator<Item = u32>) -> impl Iterator<Item = (u32, u32)> {
    let mut ids = row.into_iter().peekable();
    std::iter::from_fn(move || {
        let start = ids.next()?;
        let mut len = 1;
        while ids.next_if_eq(&(start + len)).is_some() {
            len += 1;
        }
        Some((start, len))
    })
}

/// The byte lengths of an `ANCC` row's two forms, `(ranges, bitset)`,
/// from its strictly ascending ids; `None` for an empty row, which is zero
/// bytes. The view's `open` holds every row it reads to the form these
/// lengths pick.
pub(crate) fn ancc_forms(row: impl IntoIterator<Item = u32>) -> Option<(usize, usize)> {
    let (mut ranges, mut cursor, mut first) = (1usize, 0u32, None);
    for (start, len) in runs(row) {
        first.get_or_insert(start);
        ranges += varint_len(u64::from(start - cursor)) + varint_len(u64::from(len - 1));
        cursor = start + len;
    }
    let first = first?;
    let span = (cursor - first) as usize;
    Some((ranges, 1 + varint_len(u64::from(first)) + span.div_ceil(8)))
}

/// One `ANCC` row (the format comment above), in whichever of the two
/// forms is smaller. The one writer of these rows; the view's `AnccRow` is
/// their one reader, for `open`'s canonical-form check, iteration and
/// `ancestor_contains` alike.
fn put_ancc_row(b: &mut Out<'_>, row: &[u32]) {
    let Some((ranges, bitset)) = ancc_forms(row.iter().copied()) else {
        return;
    };
    if ranges <= bitset {
        b.put_u8(ANCC_RANGES);
        let mut cursor = 0u32;
        for (start, len) in runs(row.iter().copied()) {
            put_varint(b, u64::from(start - cursor));
            put_varint(b, u64::from(len - 1));
            cursor = start + len;
        }
    } else {
        let first = row[0];
        b.put_u8(ANCC_BITSET);
        put_varint(b, u64::from(first));
        let bits_at = b.at;
        let span = (row[row.len() - 1] - first) as usize + 1;
        for _ in 0..span.div_ceil(8) {
            b.put_u8(0);
        }
        for &c in row {
            let off = (c - first) as usize;
            b.buf[bits_at + off / 8] |= 1 << (off % 8);
        }
    }
}

// ----- delta sidecar (CNPD) -----------------------------------------------

/// Magic for the delta sidecar format ([`crate::overlay::DeltaOverlay`]).
/// Deltas are not snapshots — they are shipped next to one (or POSTed to
/// `/admin/ingest`), so they carry their own magic instead of a `CNPB`
/// version.
pub(crate) const DELTA_MAGIC: &[u8; 4] = b"CNPD";
/// Delta sidecar format version.
pub const VERSION_DELTA: u32 = 1;

const OP_ENTITY: u8 = 0;
const OP_CONCEPT: u8 = 1;
const OP_ALIAS: u8 = 2;
const OP_ATTRIBUTE: u8 = 3;
const OP_ENTITY_IS_A: u8 = 4;
const OP_CONCEPT_IS_A: u8 = 5;
const OP_RETRACT_ENTITY_IS_A: u8 = 6;
const OP_RETRACT_CONCEPT_IS_A: u8 = 7;

fn put_opt_str(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
    }
}

fn get_opt_str(buf: &mut &[u8]) -> Result<Option<String>, PersistError> {
    match get_u8(buf, "option tag")? {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf)?)),
        _ => Err(PersistError::BadIndex("option tag")),
    }
}

fn put_meta(buf: &mut BytesMut, meta: &IsAMeta) {
    buf.put_u8(meta.source.to_u8());
    buf.put_f32_le(meta.confidence);
}

fn get_meta(buf: &mut &[u8]) -> Result<IsAMeta, PersistError> {
    let src = get_u8(buf, "edge source")?;
    let source = Source::from_u8(src).ok_or(PersistError::BadIndex("edge source tag"))?;
    let confidence = get_f32(buf, "edge confidence")?;
    Ok(IsAMeta::new(source, confidence))
}

/// Serializes a delta overlay:
///
/// ```text
/// magic "CNPD" | version u32 = 1 | op-count u32 | op* | checksum u64
/// ```
///
/// Each op is a tag byte followed by its string keys (u32-length-prefixed)
/// and, for upserts, the edge metadata; the trailing checksum is the
/// FNV-1a [`stable_hash`] of every preceding byte.
pub(crate) fn encode_delta(d: &DeltaOverlay) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(DELTA_MAGIC);
    buf.put_u32_le(VERSION_DELTA);
    buf.put_u32_le(d.ops.len() as u32);
    for op in &d.ops {
        match op {
            DeltaOp::Entity { name, disambig } => {
                buf.put_u8(OP_ENTITY);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
            }
            DeltaOp::Concept { name } => {
                buf.put_u8(OP_CONCEPT);
                put_str(&mut buf, name);
            }
            DeltaOp::Alias {
                name,
                disambig,
                alias,
            } => {
                buf.put_u8(OP_ALIAS);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, alias);
            }
            DeltaOp::Attribute {
                name,
                disambig,
                attr,
            } => {
                buf.put_u8(OP_ATTRIBUTE);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, attr);
            }
            DeltaOp::EntityIsA {
                name,
                disambig,
                concept,
                meta,
            } => {
                buf.put_u8(OP_ENTITY_IS_A);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, concept);
                put_meta(&mut buf, meta);
            }
            DeltaOp::ConceptIsA { sub, sup, meta } => {
                buf.put_u8(OP_CONCEPT_IS_A);
                put_str(&mut buf, sub);
                put_str(&mut buf, sup);
                put_meta(&mut buf, meta);
            }
            DeltaOp::RetractEntityIsA {
                name,
                disambig,
                concept,
            } => {
                buf.put_u8(OP_RETRACT_ENTITY_IS_A);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, disambig.as_deref());
                put_str(&mut buf, concept);
            }
            DeltaOp::RetractConceptIsA { sub, sup } => {
                buf.put_u8(OP_RETRACT_CONCEPT_IS_A);
                put_str(&mut buf, sub);
                put_str(&mut buf, sup);
            }
        }
    }
    let digest = stable_hash(&buf);
    buf.put_u64_le(digest);
    buf.freeze()
}

/// Deserializes a delta overlay, validating magic, version, structure and
/// the trailing content checksum. As when opening a snapshot, every read
/// is capped by the remaining buffer, so hostile length fields fail with
/// [`PersistError::Truncated`] instead of over-allocating.
pub(crate) fn decode_delta(bytes: &[u8]) -> Result<DeltaOverlay, PersistError> {
    if bytes.len() < 4 {
        return Err(PersistError::Truncated("delta header"));
    }
    if &bytes[..4] != DELTA_MAGIC {
        return Err(PersistError::BadMagic);
    }
    // magic + version + op count before the body, checksum u64 after it.
    if bytes.len() < 12 + 8 {
        return Err(PersistError::Truncated("delta header"));
    }
    let (body, mut tail) = bytes.split_at(bytes.len() - 8);
    if tail.get_u64_le() != stable_hash(body) {
        return Err(PersistError::BadChecksum);
    }
    let mut buf = &body[4..];
    let version = get_u32(&mut buf, "delta version")?;
    if version != VERSION_DELTA {
        return Err(PersistError::BadVersion(version));
    }
    let count = get_u32(&mut buf, "delta op count")? as usize;
    let mut ops = Vec::new();
    for _ in 0..count {
        let op = match get_u8(&mut buf, "delta op tag")? {
            OP_ENTITY => DeltaOp::Entity {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
            },
            OP_CONCEPT => DeltaOp::Concept {
                name: get_str(&mut buf)?,
            },
            OP_ALIAS => DeltaOp::Alias {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                alias: get_str(&mut buf)?,
            },
            OP_ATTRIBUTE => DeltaOp::Attribute {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                attr: get_str(&mut buf)?,
            },
            OP_ENTITY_IS_A => DeltaOp::EntityIsA {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                concept: get_str(&mut buf)?,
                meta: get_meta(&mut buf)?,
            },
            OP_CONCEPT_IS_A => DeltaOp::ConceptIsA {
                sub: get_str(&mut buf)?,
                sup: get_str(&mut buf)?,
                meta: get_meta(&mut buf)?,
            },
            OP_RETRACT_ENTITY_IS_A => DeltaOp::RetractEntityIsA {
                name: get_str(&mut buf)?,
                disambig: get_opt_str(&mut buf)?,
                concept: get_str(&mut buf)?,
            },
            OP_RETRACT_CONCEPT_IS_A => DeltaOp::RetractConceptIsA {
                sub: get_str(&mut buf)?,
                sup: get_str(&mut buf)?,
            },
            _ => return Err(PersistError::BadIndex("delta op tag")),
        };
        ops.push(op);
    }
    expect_consumed(buf, "delta ops")?;
    Ok(DeltaOverlay { ops })
}

// ----- sidecar primitives -------------------------------------------------

fn expect_consumed(body: &[u8], what: &'static str) -> Result<(), PersistError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(PersistError::BadIndex(what))
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_u32(buf: &mut &[u8], what: &'static str) -> Result<u32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated(what));
    }
    Ok(buf.get_u32_le())
}

fn get_u8(buf: &mut &[u8], what: &'static str) -> Result<u8, PersistError> {
    if buf.remaining() < 1 {
        return Err(PersistError::Truncated(what));
    }
    Ok(buf.get_u8())
}

fn get_f32(buf: &mut &[u8], what: &'static str) -> Result<f32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated(what));
    }
    Ok(buf.get_f32_le())
}

fn get_str(buf: &mut &[u8]) -> Result<String, PersistError> {
    let len = get_u32(buf, "string length")? as usize;
    if buf.remaining() < len {
        return Err(PersistError::Truncated("string body"));
    }
    let mut bytes = vec![0u8; len.min(buf.remaining())];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| PersistError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ConceptId, EntityId, TaxonomyStore};
    use crate::view::tests::{assert_view_matches, demo_store};
    use crate::view::FrozenTaxonomyView;
    use proptest::prelude::*;

    fn demo_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.add_entity("周杰伦", None);
        d.add_entity("刘德华", Some("中国香港男演员"));
        d.add_concept("艺人");
        d.add_alias("周杰伦", None, "Jay Chou");
        d.add_attribute("周杰伦", None, "出生日期");
        d.upsert_entity_is_a("周杰伦", None, "歌手", IsAMeta::new(Source::Tag, 0.97));
        d.upsert_concept_is_a("歌手", "艺人", IsAMeta::new(Source::SubConcept, 0.75));
        d.retract_entity_is_a("张学友", None, "歌手");
        d.retract_concept_is_a("演员", "人物");
        d
    }

    #[test]
    fn delta_round_trips() {
        let d = demo_delta();
        let bytes = encode_delta(&d);
        assert_eq!(decode_delta(&bytes).expect("decode delta"), d);
    }

    #[test]
    fn delta_decode_rejects_corruption() {
        let d = demo_delta();
        let bytes = encode_delta(&d);
        assert!(matches!(
            decode_delta(&bytes[..bytes.len() - 1]),
            Err(PersistError::BadChecksum)
        ));
        assert!(matches!(
            decode_delta(&bytes[..10]),
            Err(PersistError::Truncated(_))
        ));
        let mut flipped = bytes.to_vec();
        flipped[13] ^= 0xff;
        assert!(decode_delta(&flipped).is_err());
        let mut wrong_magic = bytes.to_vec();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_delta(&wrong_magic),
            Err(PersistError::BadMagic)
        ));
    }

    /// `/admin/ingest` hands request bodies straight to this decoder: a
    /// sidecar cut anywhere is a typed error, never a panic.
    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode_delta(&demo_delta());
        for cut in 0..bytes.len() {
            assert!(decode_delta(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn delta_decode_rejects_snapshot_magic() {
        let snapshot = encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store()));
        assert!(matches!(
            decode_delta(&snapshot),
            Err(PersistError::BadMagic)
        ));
    }

    fn assert_frozen_equal(a: &FrozenTaxonomy, b: &FrozenTaxonomy) {
        assert_eq!(a.num_entities(), b.num_entities());
        assert_eq!(a.num_concepts(), b.num_concepts());
        assert_eq!(a.num_is_a(), b.num_is_a());
        assert_eq!(a.topo_order(), b.topo_order());
        for e in a.entity_ids() {
            assert_eq!(a.concepts_of(e), b.concepts_of(e));
            assert_eq!(a.attributes_of(e), b.attributes_of(e));
            assert_eq!(a.aliases_of(e), b.aliases_of(e));
            assert_eq!(a.entity_key(e), b.entity_key(e));
        }
        for c in a.concept_ids() {
            assert_eq!(a.entities_of(c), b.entities_of(c));
            assert_eq!(a.parents_of(c), b.parents_of(c));
            assert_eq!(a.children_of(c), b.children_of(c));
            assert_eq!(a.ancestors_of(c), b.ancestors_of(c));
            assert_eq!(a.depth(c), b.depth(c));
            assert_eq!(a.concept_name(c), b.concept_name(c));
        }
    }

    // ----- snapshot -------------------------------------------------------

    fn open(bytes: impl Into<Bytes>) -> Result<FrozenTaxonomyView, PersistError> {
        FrozenTaxonomyView::open(bytes.into())
    }

    /// encode → open → materialise: everything a snapshot file goes through.
    fn roundtrip(frozen: &FrozenTaxonomy) -> FrozenTaxonomy {
        let view = open(encode_frozen_v3(frozen)).expect("open");
        view.to_frozen().expect("materialise")
    }

    #[test]
    fn frozen_roundtrip_demo_store() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let bytes = encode_frozen_v3(&frozen);
        let loaded = roundtrip(&frozen);
        assert_frozen_equal(&frozen, &loaded);
        // Re-encode is byte-identical: the codec is a pure function of the
        // snapshot contents and the derived maps never reach the wire.
        assert_eq!(encode_frozen_v3(&loaded), bytes);
    }

    #[test]
    fn frozen_roundtrip_preserves_queries() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let loaded = roundtrip(&frozen);
        for m in ["刘德华", "张学友", "Andy Lau", "刘德华（中国香港男演员）"] {
            assert_eq!(frozen.men2ent(m), loaded.men2ent(m), "mention {m}");
        }
        let actor = loaded.find_concept("演员").unwrap();
        let person = loaded.find_concept("人物").unwrap();
        assert_eq!(loaded.ancestors_of(actor), &[person]);
        assert_eq!(loaded.depth(actor), 1);
    }

    #[test]
    fn frozen_roundtrip_tolerates_cycles() {
        let mut store = demo_store();
        let actor = store.find_concept("演员").unwrap();
        let person = store.find_concept("人物").unwrap();
        store.add_concept_is_a(person, actor, IsAMeta::new(Source::SubConcept, 0.1));
        let frozen = FrozenTaxonomy::freeze(&store);
        assert_frozen_equal(&frozen, &roundtrip(&frozen));
    }

    /// Regression: `IsAMeta`'s fields are public, so a NaN or out-of-range
    /// confidence can enter a store without passing `IsAMeta::new`. The
    /// encoder must clamp on the way out — a raw value would produce a
    /// snapshot that saved successfully but failed to open
    /// (`BadIndex("edge confidence")`).
    #[test]
    fn frozen_encode_clamps_unclamped_confidence() {
        let raw = |source, confidence| IsAMeta { source, confidence };
        let mut store = demo_store();
        let zhang = store.find_entity("张学友", None).unwrap();
        let actor = store.find_concept("演员").unwrap();
        let singer = store.find_concept("歌手").unwrap();
        store.add_entity_is_a(zhang, actor, raw(Source::Tag, f32::NAN));
        store.add_concept_is_a(singer, actor, raw(Source::SubConcept, 7.5));
        let loaded = roundtrip(&FrozenTaxonomy::freeze(&store));
        let confidence_to_actor = |row: &[(ConceptId, IsAMeta)]| {
            let edge = row.iter().find(|&&(c, _)| c == actor).expect("edge kept");
            edge.1.confidence
        };
        assert_eq!(confidence_to_actor(loaded.concepts_of(zhang)), 0.0);
        assert_eq!(confidence_to_actor(loaded.parents_of(singer)), 1.0);
    }

    /// Past 128 distinct edge metadata values the dictionary indexes take
    /// two bytes, so the sizing pass looks each one up instead of counting
    /// one byte an edge.
    #[test]
    fn a_dictionary_past_128_entries_roundtrips() {
        let mut store = demo_store();
        let singer = store.find_concept("歌手").unwrap();
        for i in 0..300u16 {
            let e = store.add_entity(&format!("歌手{i}"), None);
            let meta = IsAMeta::new(Source::Tag, f32::from(i) / 300.0);
            store.add_entity_is_a(e, singer, meta);
        }
        let frozen = FrozenTaxonomy::freeze(&store);
        assert!(meta_dict(&frozen).len() > 300);
        let loaded = roundtrip(&frozen);
        assert_frozen_equal(&frozen, &loaded);
        assert_eq!(encode_frozen_v3(&frozen), encode_frozen_v3(&loaded));
    }

    /// A file read to the length its metadata gave is refused when it
    /// holds fewer or more bytes by the time it is read.
    #[test]
    fn a_read_refuses_a_file_whose_length_changed() {
        let file = b"CNPB and the rest";
        let read = read_exact_len(&file[..], file.len() as u64).expect("exact length");
        assert_eq!(&read[..], file);
        for claimed in [0, file.len() - 1, file.len() + 1] {
            let err = read_exact_len(&file[..], claimed as u64).expect_err("length changed");
            assert!(
                matches!(&err, PersistError::Io(e) if e.kind() == io::ErrorKind::InvalidData),
                "{claimed}: {err}"
            );
        }
    }

    #[test]
    fn empty_store_roundtrip() {
        let frozen = FrozenTaxonomy::freeze(&TaxonomyStore::new());
        let view = open(encode_frozen_v3(&frozen)).expect("open the empty snapshot");
        assert_eq!(view.num_entities(), 0);
        assert_eq!(view.num_concepts(), 0);
        assert_eq!(view.num_is_a(), 0);
        assert!(view.men2ent("刘德华").is_empty());
        assert_eq!(view.find_concept("人物"), None);
    }

    #[test]
    fn frozen_empty_roundtrip() {
        let frozen = FrozenTaxonomy::freeze(&TaxonomyStore::new());
        let loaded = roundtrip(&frozen);
        assert_eq!(loaded.num_entities(), 0);
        assert_eq!(loaded.num_concepts(), 0);
        assert_eq!(encode_frozen_v3(&loaded), encode_frozen_v3(&frozen));
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cnp_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn frozen_file_roundtrip() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let path = temp_file("snapshot.cnpb");
        save_frozen_v3_to_file(&frozen, &path).expect("save");
        let view = FrozenTaxonomyView::load_from_file(&path).expect("load");
        assert_frozen_equal(&frozen, &view.to_frozen().expect("materialise"));
        std::fs::remove_file(&path).ok();
    }

    /// The sidecar's file form: what an operator ships next to a snapshot.
    #[test]
    fn file_roundtrip() {
        let delta = demo_delta();
        let path = temp_file("delta.cnpd");
        delta.save_to_file(&path).expect("save");
        assert_eq!(DeltaOverlay::load_from_file(&path).expect("load"), delta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = open(b"XXXX\x03\x00\x00\x00".to_vec()).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let err = open(b"CNPB\xe7\x03\x00\x00".to_vec()).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(999)));
        assert_eq!(err.to_string(), "unsupported snapshot version 999");
        // The formats earlier releases wrote say what to do instead.
        let err = open(b"CNPB\x02\x00\x00\x00 and an owned-CSR body".to_vec()).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(2)));
        let message = err.to_string();
        assert!(message.contains("v2 is no longer readable"), "{message}");
        assert!(message.contains("PipelineOutcome::save_view"), "{message}");
    }

    /// Rebuilds the trailing CKSM section after the test mutated the body.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 20); // tag + u64 len + u64 digest
        let digest = stable_hash(&bytes);
        bytes.put_slice(&SEC_CHECKSUM);
        bytes.put_u64_le(8);
        bytes.put_u64_le(digest);
        bytes
    }

    /// Forward compatibility: a section this reader has never heard of —
    /// first in the file or last before `CKSM` — is skipped, and the
    /// snapshot opens and answers as if it were not there.
    #[test]
    fn unknown_sections_are_skipped() {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let encoded = encode_frozen_v3(&frozen);
        let extra = b"XTRA\x03\x00\x00\x00\x00\x00\x00\x00\xAA\xBB\xCC";
        for at in [8, encoded.len() - 20] {
            let mut bytes = encoded[..at].to_vec();
            bytes.extend_from_slice(extra);
            bytes.extend_from_slice(&encoded[at..]);
            let view = open(reseal(bytes)).expect("skip unknown section");
            assert_eq!(view.men2ent("Andy Lau"), frozen.men2ent("Andy Lau"));
            assert_frozen_equal(&frozen, &view.to_frozen().expect("materialise"));
        }
    }

    #[test]
    fn missing_section_is_reported() {
        let encoded = encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store()));
        // Drop the DPTH section wholesale, re-seal: structurally valid
        // framing, but a required section is gone.
        let mut bytes = encoded[..8].to_vec();
        let mut cursor = &encoded[8..];
        while cursor.remaining() >= 12 {
            let start = encoded.len() - cursor.remaining();
            let mut tag = [0u8; 4];
            cursor.copy_to_slice(&mut tag);
            let len = cursor.get_u64_le() as usize;
            let end = start + 12 + len;
            cursor = &encoded[end..];
            if tag != SEC_DEPTH {
                bytes.extend_from_slice(&encoded[start..end]);
            }
        }
        let err = open(reseal(bytes)).unwrap_err();
        assert!(matches!(err, PersistError::MissingSection("DPTH")), "{err}");
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let mut bytes = encode_frozen_v3(&FrozenTaxonomy::freeze(&demo_store())).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // corrupt the stored digest itself
        assert!(matches!(open(bytes), Err(PersistError::BadChecksum)));
    }

    /// The graph proptests' store: 12 concepts, 6 entities, arbitrary edges
    /// (cycles included), some entities aliased or disambiguated.
    fn graph_store(
        concept_edges: &[(u32, u32, u32)],
        entity_links: &[(u32, u32)],
        aliased: &[u32],
        disambiguated: &[u32],
    ) -> TaxonomyStore {
        let mut store = TaxonomyStore::new();
        for i in 0..12 {
            store.add_concept(&format!("概念{i}"));
        }
        for i in 0..6u32 {
            let dis = disambiguated.contains(&i).then(|| format!("义项{i}"));
            store.add_entity(&format!("实体{i}"), dis.as_deref());
        }
        for &(a, b, conf) in concept_edges {
            if a != b {
                let meta = IsAMeta::new(Source::SubConcept, conf as f32 / 100.0);
                store.add_concept_is_a(ConceptId(a), ConceptId(b), meta);
            }
        }
        for &(e, c) in entity_links {
            store.add_entity_is_a(EntityId(e), ConceptId(c), IsAMeta::new(Source::Tag, 0.8));
        }
        for &e in aliased {
            store.add_alias(EntityId(e), &format!("别名{e}"));
            store.add_attribute(EntityId(e), "职业");
        }
        store
    }

    proptest! {
        /// Arbitrary names: the string table and both sorted indexes hold
        /// whatever the corpus throws at them.
        #[test]
        fn roundtrip_arbitrary(
            entities in proptest::collection::vec("[一-龥]{1,4}", 1..10),
            concepts in proptest::collection::vec("[一-龥]{1,4}", 1..8),
            edges in proptest::collection::vec((0usize..10, 0usize..8, 0.0f32..=1.0), 0..30),
        ) {
            let mut store = TaxonomyStore::new();
            let eids: Vec<_> = entities.iter().map(|n| store.add_entity(n, None)).collect();
            let cids: Vec<_> = concepts.iter().map(|n| store.add_concept(n)).collect();
            for (e, c, conf) in edges {
                if e < eids.len() && c < cids.len() {
                    store.add_entity_is_a(eids[e], cids[c], IsAMeta::new(Source::Tag, conf));
                }
            }
            let frozen = FrozenTaxonomy::freeze(&store);
            let view = open(encode_frozen_v3(&frozen)).unwrap();
            assert_view_matches(&frozen, &view);
            for name in &entities {
                prop_assert_eq!(view.men2ent(name), frozen.men2ent(name).to_vec());
            }
            for name in &concepts {
                prop_assert_eq!(view.find_concept(name), frozen.find_concept(name));
            }
        }

        /// Arbitrary graphs (cycles included): freeze → encode → open →
        /// materialise answers identical owned queries and re-encodes
        /// byte-identically (the canonical-closure-form guarantee).
        #[test]
        fn frozen_roundtrip_arbitrary(
            concept_edges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..100), 0..40),
            entity_links in proptest::collection::vec((0u32..6, 0u32..12), 0..18),
            aliased in proptest::collection::vec(0u32..6, 0..4),
            disambiguated in proptest::collection::vec(0u32..6, 0..4),
        ) {
            let store = graph_store(&concept_edges, &entity_links, &aliased, &disambiguated);
            let frozen = FrozenTaxonomy::freeze(&store);
            let bytes = encode_frozen_v3(&frozen);
            let loaded = open(bytes.clone()).unwrap().to_frozen().unwrap();
            assert_frozen_equal(&frozen, &loaded);
            prop_assert_eq!(encode_frozen_v3(&loaded).as_ref(), bytes.as_ref());
        }

        /// The same graphs answered in place: every view accessor agrees
        /// with the owned snapshot it was encoded from.
        #[test]
        fn view_roundtrip_arbitrary(
            concept_edges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..100), 0..40),
            entity_links in proptest::collection::vec((0u32..6, 0u32..12), 0..18),
            aliased in proptest::collection::vec(0u32..6, 0..4),
            disambiguated in proptest::collection::vec(0u32..6, 0..4),
        ) {
            let store = graph_store(&concept_edges, &entity_links, &aliased, &disambiguated);
            let frozen = FrozenTaxonomy::freeze(&store);
            let view = open(encode_frozen_v3(&frozen)).unwrap();
            assert_view_matches(&frozen, &view);
            for e in 0..6u32 {
                for m in [format!("实体{e}"), format!("别名{e}"), format!("实体{e}（义项{e}）")] {
                    prop_assert_eq!(view.men2ent(&m), frozen.men2ent(&m).to_vec());
                }
            }
        }
    }
}
