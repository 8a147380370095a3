//! Zero-copy snapshot views — serving Table II queries straight off the
//! loaded v3 buffer.
//!
//! [`FrozenTaxonomyView::open`] takes ownership of one contiguous
//! [`Bytes`] buffer (the v3 snapshot written by
//! [`crate::persist::encode_frozen_v3`]) and validates it *in place*:
//! framing, checksum, string-table shape, the sorted lookup indexes, and a
//! single sweep over every varint-CSR payload. No section is copied into
//! an owned `Vec` — boot cost is the validation sweep, and every query
//! afterwards decodes the handful of varints it touches, directly from the
//! buffer.
//!
//! The owned [`FrozenTaxonomy`] keeps three hash maps for key lookups;
//! the snapshot stores sorted permutations instead (`SSRT`: symbols by
//! string bytes; `CSRT`: concepts by name symbol) and the view
//! binary-searches them. Edge metadata lives once in the `MDCT`
//! dictionary — meta rows carry varint indices into it, and the hyponym
//! rows (`CENT`) mirror each edge's index inline so `getEntity` ranks by
//! confidence without probing the entity-side adjacency. Full disambiguated keys
//! (`刘德华（中国香港男演员）`) are resolved by splitting the mention at a
//! `（…）` pair and scanning the name's mention row — no materialised
//! full-key table. A name that itself contains a full-width bracket can
//! admit more than one split; the view and the owned snapshot both take
//! the first that names a sense (`mention::full_key_splits`).
//!
//! The view's accessors are panic-free by construction (the no-panic
//! lints are denied at this file's head): malformed indexes yield empty
//! rows or `None`, never a slice panic. Structural validity is guaranteed
//! by `open`; *semantic* invariants (topo order and depths, closure
//! correctness, key uniqueness) are deferred to
//! [`FrozenTaxonomyView::to_frozen`], which materialises an owned
//! [`FrozenTaxonomy`] through `persist::validate_frozen`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::frozen::{Csr, FrozenTaxonomy};
use crate::interner::{Interner, Symbol};
use crate::mention::{full_key_splits, has_disambig};
use crate::persist::{
    self, PersistError, RawSections, ANCC_BITSET, ANCC_RANGES, SEC_ANCESTOR_SUCC, SEC_CHECKSUM,
    SEC_CONCEPTS, SEC_CONCEPT_CHILDREN, SEC_CONCEPT_ENTITIES, SEC_CONCEPT_PARENTS,
    SEC_CONCEPT_SORT, SEC_DEPTH, SEC_ENTITIES, SEC_ENTITY_ALIASES, SEC_ENTITY_ATTRS,
    SEC_ENTITY_CONCEPTS, SEC_INTERNER, SEC_MENTIONS, SEC_MENTION_HASH, SEC_META_DICT, SEC_STR_SORT,
    SEC_TOPO, VCSR_BLOCK,
};
use crate::read::TaxonomyRead;
use crate::store::{ConceptId, EntityId, EntityRecord, IsAMeta, Source};
use crate::varint::{unzigzag, varint_at};
use bytes::Bytes;
use cnp_runtime::stable_hash;
use std::fmt;
use std::ops::Range;
use std::path::Path;

/// One varint-CSR relation, addressed into the snapshot buffer.
#[derive(Clone, Copy, Debug, Default)]
struct Vcsr {
    rows: usize,
    entries: usize,
    /// Byte offset of the block directory (`ceil(rows/VCSR_BLOCK)` × u32).
    dir: usize,
    /// Byte offset of the row payload.
    payload: usize,
    payload_len: usize,
}

/// A read-only taxonomy served directly from one v3 snapshot buffer.
///
/// Cloning is cheap ([`Bytes`] is reference-counted); the clone shares the
/// underlying buffer.
#[derive(Clone)]
pub struct FrozenTaxonomyView {
    buf: Bytes,
    n_strings: usize,
    n_entities: usize,
    n_concepts: usize,
    /// Distinct mention keys = non-empty `MENT` rows, counted at open.
    n_mentions: usize,
    /// Byte offset of the cumulative string-end array (`n_strings` × u32).
    str_ends: usize,
    /// Byte range of the concatenated UTF-8 string blob.
    str_blob: Range<usize>,
    /// Byte offset of `SSRT` (symbols sorted by string bytes).
    str_sorted: usize,
    /// Byte offset of the entity table (`n_entities` × (name, disambig)).
    entities_at: usize,
    /// Byte offset of the concept table (`n_concepts` × name symbol).
    concepts_at: usize,
    /// Byte offset of `CSRT` (concept ids sorted by name symbol).
    concept_sorted: usize,
    topo_at: usize,
    depth_at: usize,
    /// Byte offset of the `MDCT` entries (`meta_dict_len` × (source u8,
    /// confidence f32)) — the shared edge-metadata dictionary every meta
    /// row indexes into.
    meta_dict_at: usize,
    meta_dict_len: usize,
    entity_concepts: Vcsr,
    concept_entities: Vcsr,
    concept_parents: Vcsr,
    concept_children: Vcsr,
    entity_attrs: Vcsr,
    entity_aliases: Vcsr,
    ancestors: Vcsr,
    by_mention: Vcsr,
    /// Byte offset of the `MHSH` rows (`n_mentions` × (hash u32, sym
    /// u32), sorted by hash) — the `men2ent` fast path.
    mention_hash_at: usize,
}

impl fmt::Debug for FrozenTaxonomyView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenTaxonomyView")
            .field("snapshot_bytes", &self.buf.len())
            .field("entities", &self.n_entities)
            .field("concepts", &self.n_concepts)
            .field("strings", &self.n_strings)
            .finish()
    }
}

/// Bounds-checked little-endian u32 read; `None` past the end.
fn u32_le(bytes: &[u8], off: usize) -> Option<u32> {
    let b = bytes.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

fn u64_le(bytes: &[u8], off: usize) -> Option<u64> {
    let b = bytes.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// What a VCSR row holds — drives per-element validation in the open sweep.
#[derive(Clone, Copy)]
enum RowKind {
    /// Delta-encoded ids, each `< max`.
    Ids { max: usize },
    /// Delta-encoded ids, strictly ascending, each `< max` (mention rows).
    SortedIds { max: usize },
    /// Delta-encoded ids, each `< max`, each followed by a varint index
    /// into the `MDCT` metadata dictionary (`< dict`).
    Pairs { max: usize, dict: usize },
    /// Succinct ancestor closure rows (ranges or bitset).
    Closure { max: usize },
}

impl FrozenTaxonomyView {
    /// Opens a v3 snapshot over `buf`, validating structure in place.
    ///
    /// Validation covers framing + checksum, the string table (monotone
    /// ends, whole-blob UTF-8, char-boundary ends), both sorted lookup
    /// indexes (strict ascent proves they are permutations and that
    /// strings/concept symbols are unique), symbol/id bounds of every
    /// table, and a full sweep of every varint-CSR payload — directory
    /// offsets, row lengths, per-element bounds, sortedness, edge
    /// metadata, closure canonical form — so query-path decoding can
    /// trust row shapes without re-checking.
    pub fn open(buf: Bytes) -> Result<Self, PersistError> {
        let bytes: &[u8] = &buf;
        let version = persist::peek_version(bytes)?;
        if version != persist::VERSION_VIEW {
            return Err(PersistError::BadVersion(version));
        }

        // ----- section walk: framing + checksum ---------------------------
        const TAGS: [[u8; 4]; 17] = [
            SEC_INTERNER,
            SEC_STR_SORT,
            SEC_ENTITIES,
            SEC_CONCEPTS,
            SEC_CONCEPT_SORT,
            SEC_ENTITY_CONCEPTS,
            SEC_CONCEPT_ENTITIES,
            SEC_CONCEPT_PARENTS,
            SEC_CONCEPT_CHILDREN,
            SEC_ENTITY_ATTRS,
            SEC_ENTITY_ALIASES,
            SEC_ANCESTOR_SUCC,
            SEC_TOPO,
            SEC_DEPTH,
            SEC_MENTIONS,
            SEC_META_DICT,
            SEC_MENTION_HASH,
        ];
        const NAMES: [&str; 17] = [
            "INTR", "SSRT", "ENTS", "CNPT", "CSRT", "ECON", "CENT", "CPAR", "CCHD", "EATT", "EALS",
            "ANCC", "TOPO", "DPTH", "MENT", "MDCT", "MHSH",
        ];
        let mut sec: [Option<Range<usize>>; 17] = std::array::from_fn(|_| None);
        let mut pos = 8usize;
        let mut checksum_seen = false;
        while pos < bytes.len() {
            if checksum_seen {
                return Err(PersistError::BadIndex("data after checksum section"));
            }
            let header = bytes
                .get(
                    pos..pos
                        .checked_add(12)
                        .ok_or(PersistError::Truncated("section header"))?,
                )
                .ok_or(PersistError::Truncated("section header"))?;
            let tag: [u8; 4] = header
                .get(..4)
                .and_then(|b| b.try_into().ok())
                .ok_or(PersistError::Truncated("section header"))?;
            let len = u64_le(header, 4).ok_or(PersistError::Truncated("section header"))?;
            let len = usize::try_from(len).map_err(|_| PersistError::Truncated("section body"))?;
            let body_start = pos
                .checked_add(12)
                .ok_or(PersistError::Truncated("section body"))?;
            let body_end = body_start
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or(PersistError::Truncated("section body"))?;
            if tag == SEC_CHECKSUM {
                if len != 8 {
                    return Err(PersistError::BadIndex("checksum section length"));
                }
                let digest =
                    u64_le(bytes, body_start).ok_or(PersistError::Truncated("checksum"))?;
                if digest != stable_hash(bytes.get(..pos).unwrap_or(&[])) {
                    return Err(PersistError::BadChecksum);
                }
                if body_end != bytes.len() {
                    return Err(PersistError::BadIndex("data after checksum section"));
                }
                checksum_seen = true;
            } else if let Some((_, slot)) = TAGS.iter().zip(&mut sec).find(|(t, _)| **t == tag) {
                *slot = Some(body_start..body_end);
            }
            // Unknown tag: a future extension — skip, the checksum covers it.
            pos = body_end;
        }
        if !checksum_seen {
            return Err(PersistError::MissingSection("CKSM"));
        }
        let take = |slot: usize| -> Result<Range<usize>, PersistError> {
            sec.get(slot)
                .and_then(|r| r.clone())
                .ok_or(PersistError::MissingSection(
                    NAMES.get(slot).copied().unwrap_or("?"),
                ))
        };

        // ----- INTR: cumulative-ends string table -------------------------
        let intr = take(0)?;
        let n_strings =
            u32_le(bytes, intr.start).ok_or(PersistError::Truncated("string count"))? as usize;
        if n_strings == 0 {
            // Symbol(0) (the empty string) exists in any interner.
            return Err(PersistError::BadIndex("string count"));
        }
        let str_ends = intr.start + 4;
        let ends_len = n_strings
            .checked_mul(4)
            .ok_or(PersistError::Truncated("string ends"))?;
        let blob_start = str_ends
            .checked_add(ends_len)
            .filter(|&b| b <= intr.end)
            .ok_or(PersistError::Truncated("string ends"))?;
        let str_blob = blob_start..intr.end;
        let blob = bytes.get(str_blob.clone()).unwrap_or(&[]);
        let text = std::str::from_utf8(blob).map_err(|_| PersistError::BadUtf8)?;
        let end_at = |i: usize| u32_le(bytes, str_ends + i * 4).unwrap_or(0) as usize;
        let mut prev_end = 0usize;
        for i in 0..n_strings {
            let e = end_at(i);
            if e < prev_end || (i == 0 && e != 0) {
                return Err(PersistError::BadIndex("string ends"));
            }
            if !text.is_char_boundary(e) {
                return Err(PersistError::BadUtf8);
            }
            prev_end = e;
        }
        if prev_end != blob.len() {
            return Err(PersistError::BadIndex("string blob length"));
        }
        let str_of = |i: usize| -> &str {
            let start = if i == 0 { 0 } else { end_at(i - 1) };
            text.get(start..end_at(i)).unwrap_or("")
        };

        // ----- SSRT: symbols sorted by string bytes -----------------------
        // Strict ascent in a total order proves: all entries distinct, all
        // strings distinct, and (n values < n) the index is a permutation.
        let ssrt = take(1)?;
        if ssrt.end - ssrt.start != ends_len {
            return Err(PersistError::BadIndex("string sort length"));
        }
        let str_sorted = ssrt.start;
        let mut prev_sym: Option<usize> = None;
        for k in 0..n_strings {
            let s = u32_le(bytes, str_sorted + k * 4)
                .ok_or(PersistError::Truncated("string sort"))? as usize;
            if s >= n_strings {
                return Err(PersistError::BadIndex("string sort symbol"));
            }
            if let Some(p) = prev_sym {
                if str_of(p) >= str_of(s) {
                    return Err(PersistError::BadIndex("string sort order"));
                }
            }
            prev_sym = Some(s);
        }

        // ----- ENTS / CNPT: fixed-width tables ----------------------------
        let ents = take(2)?;
        let n_entities =
            u32_le(bytes, ents.start).ok_or(PersistError::Truncated("entity count"))? as usize;
        let ents_len = n_entities
            .checked_mul(8)
            .and_then(|l| l.checked_add(4))
            .ok_or(PersistError::Truncated("entity table"))?;
        if ents.end - ents.start != ents_len {
            return Err(PersistError::BadIndex("entity table length"));
        }
        let entities_at = ents.start + 4;
        for i in 0..n_entities {
            let name = u32_le(bytes, entities_at + i * 8).unwrap_or(u32::MAX) as usize;
            let dis = u32_le(bytes, entities_at + i * 8 + 4).unwrap_or(u32::MAX) as usize;
            if name >= n_strings || dis >= n_strings {
                return Err(PersistError::BadIndex("entity symbol"));
            }
        }
        let cnpt = take(3)?;
        let n_concepts =
            u32_le(bytes, cnpt.start).ok_or(PersistError::Truncated("concept count"))? as usize;
        let cnpt_len = n_concepts
            .checked_mul(4)
            .and_then(|l| l.checked_add(4))
            .ok_or(PersistError::Truncated("concept table"))?;
        if cnpt.end - cnpt.start != cnpt_len {
            return Err(PersistError::BadIndex("concept table length"));
        }
        let concepts_at = cnpt.start + 4;
        for i in 0..n_concepts {
            let sym = u32_le(bytes, concepts_at + i * 4).unwrap_or(u32::MAX) as usize;
            if sym >= n_strings {
                return Err(PersistError::BadIndex("concept symbol"));
            }
        }

        // ----- CSRT: concepts sorted by name symbol -----------------------
        let csrt = take(4)?;
        if csrt.end - csrt.start != n_concepts * 4 {
            return Err(PersistError::BadIndex("concept sort length"));
        }
        let concept_sorted = csrt.start;
        let sym_of = |c: usize| u32_le(bytes, concepts_at + c * 4).unwrap_or(u32::MAX);
        let mut prev_concept: Option<usize> = None;
        for k in 0..n_concepts {
            let c = u32_le(bytes, concept_sorted + k * 4)
                .ok_or(PersistError::Truncated("concept sort"))? as usize;
            if c >= n_concepts {
                return Err(PersistError::BadIndex("concept sort id"));
            }
            if let Some(p) = prev_concept {
                if sym_of(p) >= sym_of(c) {
                    return Err(PersistError::BadIndex("concept sort order"));
                }
            }
            prev_concept = Some(c);
        }

        // ----- MDCT: deduplicated edge-metadata dictionary ----------------
        // Strict ascent by `(source, confidence-bits)` proves the entries
        // are distinct and makes re-encoding deterministic.
        let mdct = take(15)?;
        let meta_dict_len = u32_le(bytes, mdct.start)
            .ok_or(PersistError::Truncated("meta dictionary count"))?
            as usize;
        let mdct_len = meta_dict_len
            .checked_mul(5)
            .and_then(|l| l.checked_add(4))
            .ok_or(PersistError::Truncated("meta dictionary"))?;
        if mdct.end - mdct.start != mdct_len {
            return Err(PersistError::BadIndex("meta dictionary length"));
        }
        let meta_dict_at = mdct.start + 4;
        let mut prev_key: Option<(u8, u32)> = None;
        for i in 0..meta_dict_len {
            let src = bytes
                .get(meta_dict_at + i * 5)
                .copied()
                .ok_or(PersistError::Truncated("meta dictionary"))?;
            Source::from_u8(src).ok_or(PersistError::BadIndex("edge source tag"))?;
            let bits = u32_le(bytes, meta_dict_at + i * 5 + 1)
                .ok_or(PersistError::Truncated("meta dictionary"))?;
            let conf = f32::from_bits(bits);
            if !(0.0..=1.0).contains(&conf) {
                return Err(PersistError::BadIndex("edge confidence"));
            }
            if prev_key.is_some_and(|p| p >= (src, bits)) {
                return Err(PersistError::BadIndex("meta dictionary order"));
            }
            prev_key = Some((src, bits));
        }

        // ----- varint-CSR relations ---------------------------------------
        let (entity_concepts, _) = open_vcsr(
            bytes,
            take(5)?,
            n_entities,
            RowKind::Pairs {
                max: n_concepts,
                dict: meta_dict_len,
            },
            "entity-concept CSR",
        )?;
        let (concept_entities, _) = open_vcsr(
            bytes,
            take(6)?,
            n_concepts,
            RowKind::Pairs {
                max: n_entities,
                dict: meta_dict_len,
            },
            "concept-entity CSR",
        )?;
        let (concept_parents, _) = open_vcsr(
            bytes,
            take(7)?,
            n_concepts,
            RowKind::Pairs {
                max: n_concepts,
                dict: meta_dict_len,
            },
            "concept-parent CSR",
        )?;
        let (concept_children, _) = open_vcsr(
            bytes,
            take(8)?,
            n_concepts,
            RowKind::Ids { max: n_concepts },
            "concept-child CSR",
        )?;
        let (entity_attrs, _) = open_vcsr(
            bytes,
            take(9)?,
            n_entities,
            RowKind::Ids { max: n_strings },
            "entity-attribute CSR",
        )?;
        let (entity_aliases, _) = open_vcsr(
            bytes,
            take(10)?,
            n_entities,
            RowKind::Ids { max: n_strings },
            "entity-alias CSR",
        )?;
        let (ancestors, _) = open_vcsr(
            bytes,
            take(11)?,
            n_concepts,
            RowKind::Closure { max: n_concepts },
            "ancestor closure",
        )?;
        let (by_mention, n_mentions) = open_vcsr(
            bytes,
            take(14)?,
            n_strings,
            RowKind::SortedIds { max: n_entities },
            "mention CSR",
        )?;

        // ----- MHSH: mention-key hash index -------------------------------
        // Each entry's hash is recomputed from the string it names, so a
        // valid section is exactly `sort_by_hash(non-empty mention rows)`
        // — strict ascent on (hash, sym) plus per-entry hash equality
        // forbids duplicates, and the count must match the mention rows.
        // (That the listed syms are exactly the non-empty rows is checked
        // when materialising, like the other cross-section mirrors.)
        let mhsh = take(16)?;
        let mention_hash_n = u32_le(bytes, mhsh.start)
            .ok_or(PersistError::Truncated("mention hash count"))?
            as usize;
        let mhsh_len = mention_hash_n
            .checked_mul(8)
            .and_then(|l| l.checked_add(4))
            .ok_or(PersistError::Truncated("mention hash index"))?;
        if mhsh.end - mhsh.start != mhsh_len {
            return Err(PersistError::BadIndex("mention hash index length"));
        }
        if mention_hash_n != n_mentions {
            return Err(PersistError::BadIndex("mention hash count"));
        }
        let mention_hash_at = mhsh.start + 4;
        let mut prev_hash: Option<(u32, u32)> = None;
        for i in 0..mention_hash_n {
            let hash = u32_le(bytes, mention_hash_at + i * 8)
                .ok_or(PersistError::Truncated("mention hash index"))?;
            let sym = u32_le(bytes, mention_hash_at + i * 8 + 4)
                .ok_or(PersistError::Truncated("mention hash index"))?;
            if sym as usize >= n_strings {
                return Err(PersistError::BadIndex("mention hash symbol"));
            }
            if stable_hash(str_of(sym as usize).as_bytes()) as u32 != hash {
                return Err(PersistError::BadIndex("mention hash value"));
            }
            if prev_hash.is_some_and(|p| p >= (hash, sym)) {
                return Err(PersistError::BadIndex("mention hash order"));
            }
            prev_hash = Some((hash, sym));
        }
        // Paired relations must agree on edge counts; deep symmetry is
        // checked when materialising (`to_frozen`).
        if entity_concepts.entries != concept_entities.entries
            || concept_parents.entries != concept_children.entries
        {
            return Err(PersistError::BadIndex("edge count symmetry"));
        }

        // ----- TOPO / DPTH ------------------------------------------------
        let topo = take(12)?;
        let topo_n =
            u32_le(bytes, topo.start).ok_or(PersistError::Truncated("topo count"))? as usize;
        if topo_n != n_concepts || topo.end - topo.start != 4 + n_concepts * 4 {
            return Err(PersistError::BadIndex("topo/depth length"));
        }
        let topo_at = topo.start + 4;
        for i in 0..n_concepts {
            if u32_le(bytes, topo_at + i * 4).unwrap_or(u32::MAX) as usize >= n_concepts {
                return Err(PersistError::BadIndex("topo concept id"));
            }
        }
        let dpth = take(13)?;
        let dpth_n =
            u32_le(bytes, dpth.start).ok_or(PersistError::Truncated("depth count"))? as usize;
        if dpth_n != n_concepts || dpth.end - dpth.start != 4 + n_concepts * 4 {
            return Err(PersistError::BadIndex("topo/depth length"));
        }
        let depth_at = dpth.start + 4;

        Ok(FrozenTaxonomyView {
            buf,
            n_strings,
            n_entities,
            n_concepts,
            n_mentions,
            str_ends,
            str_blob,
            str_sorted,
            entities_at,
            concepts_at,
            concept_sorted,
            topo_at,
            depth_at,
            meta_dict_at,
            meta_dict_len,
            entity_concepts,
            concept_entities,
            concept_parents,
            concept_children,
            entity_attrs,
            entity_aliases,
            ancestors,
            by_mention,
            mention_hash_at,
        })
    }

    /// Reads `path` and opens it as a v3 view. One read, zero re-copies.
    pub fn load_from_file(path: &Path) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)?;
        Self::open(Bytes::from(bytes))
    }

    /// The raw snapshot bytes backing this view.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    // ----- raw accessors (panic-free) -------------------------------------

    fn u32_at(&self, off: usize) -> u32 {
        u32_le(&self.buf, off).unwrap_or(0)
    }

    /// The bytes of string `i` (`open` checked they are UTF-8).
    fn str_bytes_at(&self, i: usize) -> &[u8] {
        let start = if i == 0 {
            0
        } else {
            self.u32_at(self.str_ends + (i - 1) * 4) as usize
        };
        let end = self.u32_at(self.str_ends + i * 4) as usize;
        self.buf
            .get(self.str_blob.clone())
            .and_then(|blob| blob.get(start..end))
            .unwrap_or(&[])
    }

    fn str_at(&self, i: usize) -> &str {
        std::str::from_utf8(self.str_bytes_at(i)).unwrap_or("")
    }

    /// Binary search over `SSRT`: string → symbol. The probes compare raw
    /// bytes — UTF-8 byte order is code-point order, the order `SSRT` is
    /// sorted and validated in — so no probe re-validates UTF-8.
    fn lookup_sym(&self, s: &str) -> Option<Symbol> {
        let mut lo = 0usize;
        let mut hi = self.n_strings;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let sym = self.u32_at(self.str_sorted + mid * 4) as usize;
            match self.str_bytes_at(sym).cmp(s.as_bytes()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(Symbol(sym as u32)),
            }
        }
        None
    }

    fn concept_sym(&self, c: usize) -> u32 {
        self.u32_at(self.concepts_at + c * 4)
    }

    /// Row `i` of a varint-CSR: one directory jump, then at most
    /// `VCSR_BLOCK - 1` length skips.
    fn vcsr_row(&self, v: &Vcsr, i: usize) -> &[u8] {
        if i >= v.rows {
            return &[];
        }
        let payload = self
            .buf
            .get(v.payload..v.payload + v.payload_len)
            .unwrap_or(&[]);
        let mut pos = self.u32_at(v.dir + (i / VCSR_BLOCK) * 4) as usize;
        let mut skip = i % VCSR_BLOCK;
        loop {
            let Some((len, next)) = varint_at(payload, pos) else {
                return &[];
            };
            let len = usize::try_from(len).unwrap_or(usize::MAX);
            let end = next.saturating_add(len).min(payload.len());
            if skip == 0 {
                return payload.get(next..end).unwrap_or(&[]);
            }
            skip -= 1;
            pos = end;
        }
    }

    // ----- strings & handles ----------------------------------------------

    /// Resolves an interned symbol (empty string for out-of-range symbols).
    pub fn resolve(&self, sym: Symbol) -> &str {
        if sym.index() < self.n_strings {
            self.str_at(sym.index())
        } else {
            ""
        }
    }

    /// Record for an entity id (empty name and disambiguation for an id
    /// this snapshot does not hold).
    pub fn entity(&self, id: EntityId) -> EntityRecord {
        if id.index() >= self.n_entities {
            return EntityRecord::UNKNOWN;
        }
        EntityRecord {
            name: Symbol(self.u32_at(self.entities_at + id.index() * 8)),
            disambig: Symbol(self.u32_at(self.entities_at + id.index() * 8 + 4)),
        }
    }

    /// Full display key: `name（disambig）` or just `name` — the
    /// [`TaxonomyRead::entity_key`] default, callable without the trait in
    /// scope.
    pub fn entity_key(&self, id: EntityId) -> String {
        TaxonomyRead::entity_key(self, id)
    }

    /// Finds an entity by exact name + disambiguation: resolve both
    /// symbols, then scan the name's mention row for the matching record.
    pub fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
        let name_sym = self.lookup_sym(name)?;
        let dis_sym = match disambig {
            None => Symbol(0),
            Some(d) => self.lookup_sym(d)?,
        };
        self.mention_row(name_sym).find(|&e| {
            self.entity(e)
                == EntityRecord {
                    name: name_sym,
                    disambig: dis_sym,
                }
        })
    }

    /// Finds a concept by name via the `CSRT` binary-search index.
    pub fn find_concept(&self, name: &str) -> Option<ConceptId> {
        let sym = self.lookup_sym(name)?;
        let mut lo = 0usize;
        let mut hi = self.n_concepts;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let c = self.u32_at(self.concept_sorted + mid * 4) as usize;
            match self.concept_sym(c).cmp(&sym.0) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(ConceptId(c as u32)),
            }
        }
        None
    }

    /// Concept name (`""` for an id this snapshot does not hold).
    pub fn concept_name(&self, id: ConceptId) -> &str {
        if id.index() >= self.n_concepts {
            return "";
        }
        self.resolve(Symbol(self.concept_sym(id.index())))
    }

    /// Iterates all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.n_entities as u32).map(EntityId)
    }

    /// Iterates all concept ids.
    pub fn concept_ids(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.n_concepts as u32).map(ConceptId)
    }

    // ----- counts ---------------------------------------------------------

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of concepts.
    pub fn num_concepts(&self) -> usize {
        self.n_concepts
    }

    /// Entity→concept isA edges.
    pub fn num_entity_is_a(&self) -> usize {
        self.entity_concepts.entries
    }

    /// Subconcept→concept isA edges.
    pub fn num_concept_is_a(&self) -> usize {
        self.concept_parents.entries
    }

    /// Total isA edges.
    pub fn num_is_a(&self) -> usize {
        self.num_entity_is_a() + self.num_concept_is_a()
    }

    /// Number of distinct mention keys (names + aliases).
    pub fn num_mentions(&self) -> usize {
        self.n_mentions
    }

    // ----- adjacency (decoded on the fly) ----------------------------------

    /// Raw `MDCT` entries — the deduplicated edge-metadata dictionary.
    fn meta_dict(&self) -> &[u8] {
        self.buf
            .get(self.meta_dict_at..self.meta_dict_at + self.meta_dict_len * 5)
            .unwrap_or(&[])
    }

    /// Direct concepts of an entity, with edge metadata.
    pub fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        MetaRowIter::new(
            self.vcsr_row(&self.entity_concepts, e.index()),
            self.meta_dict(),
        )
        .map(|(c, m)| (ConceptId(c), m))
    }

    /// Direct entities of a concept, confidence-ranked (the stable
    /// hyponym enumeration order behind `getEntity` and pagination).
    pub fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
        PairIdIter::new(self.vcsr_row(&self.concept_entities, c.index())).map(EntityId)
    }

    /// Direct entities of a concept with each edge's confidence, straight
    /// from the `CENT` row's inline dictionary indices — `getEntity` ranks
    /// hyponyms without probing the entity-side adjacency per hit.
    pub fn entities_with_confidence(
        &self,
        c: ConceptId,
    ) -> impl Iterator<Item = (EntityId, f32)> + '_ {
        MetaRowIter::new(
            self.vcsr_row(&self.concept_entities, c.index()),
            self.meta_dict(),
        )
        .map(|(e, m)| (EntityId(e), m.confidence))
    }

    /// Metadata of the entity→concept isA edge, if present.
    pub fn entity_edge(&self, e: EntityId, c: ConceptId) -> Option<IsAMeta> {
        self.concepts_of(e).find(|&(cc, _)| cc == c).map(|(_, m)| m)
    }

    /// Direct parent concepts, with edge metadata.
    pub fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
        MetaRowIter::new(
            self.vcsr_row(&self.concept_parents, c.index()),
            self.meta_dict(),
        )
        .map(|(c, m)| (ConceptId(c), m))
    }

    /// Direct child concepts.
    pub fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        IdRowIter::new(self.vcsr_row(&self.concept_children, c.index())).map(ConceptId)
    }

    /// Attribute symbols of an entity.
    pub fn attributes_of(&self, e: EntityId) -> impl Iterator<Item = Symbol> + '_ {
        IdRowIter::new(self.vcsr_row(&self.entity_attrs, e.index())).map(Symbol)
    }

    /// Alias symbols of an entity.
    pub fn aliases_of(&self, e: EntityId) -> impl Iterator<Item = Symbol> + '_ {
        IdRowIter::new(self.vcsr_row(&self.entity_aliases, e.index())).map(Symbol)
    }

    // ----- precomputed topology -------------------------------------------

    /// All transitive ancestors, ascending — decoded from the succinct
    /// closure row without materialisation.
    pub fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        AncestorIter::new(self.vcsr_row(&self.ancestors, c.index()))
    }

    /// Membership test on the succinct closure row: interval scan for
    /// range rows, O(1) bit probe for bitset rows.
    pub fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
        let row = self.vcsr_row(&self.ancestors, c.index());
        let target = u64::from(sup.0);
        match row.split_first() {
            Some((&ANCC_RANGES, body)) => {
                let mut pos = 0usize;
                let mut cursor = 0u64;
                while pos < body.len() {
                    let Some((gap, n1)) = varint_at(body, pos) else {
                        return false;
                    };
                    let Some((len1, n2)) = varint_at(body, n1) else {
                        return false;
                    };
                    pos = n2;
                    let start = cursor.saturating_add(gap);
                    let end = start.saturating_add(len1).saturating_add(1);
                    if target < start {
                        return false;
                    }
                    if target < end {
                        return true;
                    }
                    cursor = end;
                }
                false
            }
            Some((&ANCC_BITSET, body)) => {
                let Some((base, next)) = varint_at(body, 0) else {
                    return false;
                };
                let bitmap = body.get(next..).unwrap_or(&[]);
                match target.checked_sub(base) {
                    Some(off) => {
                        let off = off as usize;
                        bitmap
                            .get(off / 8)
                            .is_some_and(|b| b & (1 << (off % 8)) != 0)
                    }
                    None => false,
                }
            }
            _ => false,
        }
    }

    /// Topological order of the concepts (parents before children).
    pub fn topo_order(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.n_concepts).map(|i| ConceptId(self.u32_at(self.topo_at + i * 4)))
    }

    /// Exact depth of a concept (0 for roots).
    pub fn depth(&self, c: ConceptId) -> usize {
        if c.index() < self.n_concepts {
            self.u32_at(self.depth_at + c.index() * 4) as usize
        } else {
            0
        }
    }

    /// All transitive descendant concepts in BFS order.
    pub fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
        if start.index() >= self.n_concepts {
            return Vec::new();
        }
        // One flag per 4-byte entry of the concept table `open` validated.
        let mut seen = vec![false; self.n_concepts];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        if let Some(s) = seen.get_mut(start.index()) {
            *s = true;
        }
        queue.push_back(start);
        while let Some(c) = queue.pop_front() {
            for ch in self.children_of(c) {
                if let Some(s) = seen.get_mut(ch.index()) {
                    if !*s {
                        *s = true;
                        order.push(ch);
                        queue.push_back(ch);
                    }
                }
            }
        }
        order
    }

    // ----- mention resolution (men2ent) -----------------------------------

    fn mention_row(&self, sym: Symbol) -> impl Iterator<Item = EntityId> + '_ {
        IdRowIter::new(self.vcsr_row(&self.by_mention, sym.index())).map(EntityId)
    }

    /// Binary search over `MHSH`: mention string → symbol. One hash and
    /// `log n` fixed-width u32 probes, then a string verify on each entry
    /// of the (almost always length-1) matching-hash run — the fast path
    /// `lookup_sym`'s per-probe string comparisons would dominate.
    fn lookup_mention_sym(&self, s: &str) -> Option<Symbol> {
        let hash = stable_hash(s.as_bytes()) as u32;
        let mut lo = 0usize;
        let mut hi = self.n_mentions;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.u32_at(self.mention_hash_at + mid * 8) < hash {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        while lo < self.n_mentions && self.u32_at(self.mention_hash_at + lo * 8) == hash {
            let sym = self.u32_at(self.mention_hash_at + lo * 8 + 4) as usize;
            if self.str_at(sym) == s {
                return Some(Symbol(sym as u32));
            }
            lo += 1;
        }
        None
    }

    /// Every bare mention key (name or alias), once each, in `MHSH`
    /// order. `MHSH` is the only way a bracket-less `men2ent` finds a
    /// row, so no other string resolves; that it lists exactly the
    /// non-empty rows is checked with the other mirrors by `to_frozen`.
    pub fn mention_keys(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.n_mentions)
            .map(|i| self.str_at(self.u32_at(self.mention_hash_at + i * 8 + 4) as usize))
    }

    /// Resolves a mention to candidate entity senses.
    ///
    /// Same contract as [`FrozenTaxonomy::men2ent`]: a disambiguated key
    /// resolves to exactly its sense, a bare name or alias to every
    /// matching sense. Full keys are resolved by splitting at `（…）` and
    /// scanning the name's mention row — see the module docs.
    pub fn men2ent(&self, mention: &str) -> Vec<EntityId> {
        if has_disambig(mention) {
            if let Some(id) = self.full_key_entity(mention) {
                return vec![id];
            }
        }
        match self.lookup_mention_sym(mention) {
            Some(sym) => self.mention_row(sym).collect(),
            None => Vec::new(),
        }
    }

    fn full_key_entity(&self, key: &str) -> Option<EntityId> {
        full_key_splits(key).find_map(|(name, disambig)| {
            let want = EntityRecord {
                name: self.lookup_sym(name)?,
                disambig: self.lookup_sym(disambig)?,
            };
            self.mention_row(want.name)
                .find(|&e| self.entity(e) == want)
        })
    }

    // ----- materialisation ------------------------------------------------

    /// Decodes every section into an owned [`FrozenTaxonomy`], running the
    /// deep semantic validation (`validate_frozen`) that `open` defers:
    /// topo permutation, closure/depth consistency, relation symmetry,
    /// key uniqueness. This is the "trust but verify" escape hatch — and
    /// the bridge for callers that need owned slices.
    pub fn to_frozen(&self) -> Result<FrozenTaxonomy, PersistError> {
        let mut interner = Interner::with_capacity(self.n_strings, self.str_blob.len());
        for i in 0..self.n_strings {
            if interner.intern(self.str_at(i)).index() != i {
                return Err(PersistError::BadIndex("duplicate interned string"));
            }
        }
        let entities: Vec<EntityRecord> = self.entity_ids().map(|e| self.entity(e)).collect();
        let concepts: Vec<Symbol> = (0..self.n_concepts)
            .map(|c| Symbol(self.concept_sym(c)))
            .collect();
        let dict = self.meta_dict();
        let entity_concepts = self.decode_csr(&self.entity_concepts, |r| {
            MetaRowIter::new(r, dict).map(|(c, m)| (ConceptId(c), m))
        });
        // `CENT` mirrors each hyponym edge's metadata inline; a mirror
        // that disagrees with `ECON` would make `getEntity` and
        // `getConcept` report different confidences for the same edge.
        for c in 0..self.n_concepts {
            for (e, m) in MetaRowIter::new(self.vcsr_row(&self.concept_entities, c), dict) {
                let hit = entity_concepts.row(e as usize).iter().any(|&(cc, em)| {
                    cc.index() == c
                        && em.source == m.source
                        && em.confidence.to_bits() == m.confidence.to_bits()
                });
                if !hit {
                    return Err(PersistError::BadIndex("hyponym edge metadata mirror"));
                }
            }
        }
        // `MHSH` must index exactly the non-empty mention rows: open
        // proved count equality and no duplicates, so every row resolving
        // through the index proves the sets coincide.
        for sym in 0..self.n_strings {
            if self.vcsr_row(&self.by_mention, sym).is_empty() {
                continue;
            }
            if self.lookup_mention_sym(self.str_at(sym)) != Some(Symbol(sym as u32)) {
                return Err(PersistError::BadIndex("mention hash mirror"));
            }
        }
        let raw = RawSections {
            interner,
            entities,
            concepts,
            entity_concepts,
            concept_entities: self
                .decode_csr(&self.concept_entities, |r| PairIdIter::new(r).map(EntityId)),
            concept_parents: self.decode_csr(&self.concept_parents, |r| {
                MetaRowIter::new(r, dict).map(|(c, m)| (ConceptId(c), m))
            }),
            concept_children: self
                .decode_csr(&self.concept_children, |r| IdRowIter::new(r).map(ConceptId)),
            entity_attrs: self.decode_csr(&self.entity_attrs, |r| IdRowIter::new(r).map(Symbol)),
            entity_aliases: self
                .decode_csr(&self.entity_aliases, |r| IdRowIter::new(r).map(Symbol)),
            ancestors: self.decode_csr(&self.ancestors, AncestorIter::new),
            topo: self.topo_order().collect(),
            depth: (0..self.n_concepts)
                .map(|i| self.u32_at(self.depth_at + i * 4))
                .collect(),
            by_mention: self.decode_csr(&self.by_mention, |r| IdRowIter::new(r).map(EntityId)),
        };
        persist::validate_frozen(raw)
    }

    fn decode_csr<'a, T: Copy, I: Iterator<Item = T>>(
        &'a self,
        v: &Vcsr,
        decode: impl Fn(&'a [u8]) -> I,
    ) -> Csr<T> {
        let mut offsets = vec![0u32];
        let mut data = Vec::new();
        for i in 0..v.rows {
            data.extend(decode(self.vcsr_row(v, i)));
            offsets.push(data.len() as u32);
        }
        Csr::from_parts(offsets, data)
    }
}

// ----- open-time VCSR validation ------------------------------------------

/// Validates one varint-CSR section in a single payload sweep and returns
/// its addressing plus the number of non-empty rows.
fn open_vcsr(
    bytes: &[u8],
    body: Range<usize>,
    expect_rows: usize,
    kind: RowKind,
    what: &'static str,
) -> Result<(Vcsr, usize), PersistError> {
    let len = body.end - body.start;
    if len < 8 {
        return Err(PersistError::Truncated(what));
    }
    let rows = u32_le(bytes, body.start).ok_or(PersistError::Truncated(what))? as usize;
    let entries = u32_le(bytes, body.start + 4).ok_or(PersistError::Truncated(what))? as usize;
    if rows != expect_rows {
        return Err(PersistError::BadIndex(what));
    }
    let dir = body.start + 8;
    let dir_len = rows
        .div_ceil(VCSR_BLOCK)
        .checked_mul(4)
        .ok_or(PersistError::Truncated(what))?;
    let fixed = dir_len
        .checked_add(12)
        .ok_or(PersistError::Truncated(what))?;
    if len < fixed {
        return Err(PersistError::Truncated(what));
    }
    let payload_len = u32_le(bytes, dir + dir_len).ok_or(PersistError::Truncated(what))? as usize;
    if len - fixed != payload_len {
        return Err(PersistError::BadIndex(what));
    }
    let payload_at = dir + dir_len + 4;
    let payload = bytes.get(payload_at..body.end).unwrap_or(&[]);

    let mut pos = 0usize;
    let mut total = 0usize;
    let mut nonempty = 0usize;
    for i in 0..rows {
        if i % VCSR_BLOCK == 0 {
            let d = u32_le(bytes, dir + (i / VCSR_BLOCK) * 4)
                .ok_or(PersistError::Truncated(what))? as usize;
            if d != pos {
                return Err(PersistError::BadIndex(what));
            }
        }
        let (row_len, next) = varint_at(payload, pos).ok_or(PersistError::Truncated(what))?;
        let row_len = usize::try_from(row_len).map_err(|_| PersistError::Truncated(what))?;
        let end = next
            .checked_add(row_len)
            .filter(|&e| e <= payload.len())
            .ok_or(PersistError::Truncated(what))?;
        let row = payload.get(next..end).unwrap_or(&[]);
        let n = match kind {
            RowKind::Ids { max } => validate_id_row(row, max, false, what)?,
            RowKind::SortedIds { max } => validate_id_row(row, max, true, what)?,
            RowKind::Pairs { max, dict } => validate_pair_row(row, max, dict, what)?,
            RowKind::Closure { max } => validate_ancc_row(row, i, max, what)?,
        };
        if n > 0 {
            nonempty += 1;
        }
        total = total.checked_add(n).ok_or(PersistError::BadIndex(what))?;
        pos = end;
    }
    if pos != payload.len() || total != entries {
        return Err(PersistError::BadIndex(what));
    }
    Ok((
        Vcsr {
            rows,
            entries,
            dir,
            payload: payload_at,
            payload_len,
        },
        nonempty,
    ))
}

fn validate_id_row(
    row: &[u8],
    max: usize,
    sorted: bool,
    what: &'static str,
) -> Result<usize, PersistError> {
    let mut pos = 0usize;
    let mut count = 0usize;
    let mut prev = 0i64;
    let max = i64::try_from(max).unwrap_or(i64::MAX);
    while pos < row.len() {
        let (raw, next) = varint_at(row, pos).ok_or(PersistError::Truncated(what))?;
        pos = next;
        let v = if count == 0 {
            i64::try_from(raw).map_err(|_| PersistError::BadIndex(what))?
        } else {
            prev.checked_add(unzigzag(raw))
                .ok_or(PersistError::BadIndex(what))?
        };
        if v < 0 || v >= max {
            return Err(PersistError::BadIndex(what));
        }
        if sorted && count > 0 && v <= prev {
            return Err(PersistError::BadIndex(what));
        }
        prev = v;
        count += 1;
    }
    Ok(count)
}

/// Validates a `(delta id, dictionary index)` pair row: ids in bounds,
/// every index inside the `MDCT` table. The metadata itself was validated
/// once when the dictionary section was parsed.
fn validate_pair_row(
    row: &[u8],
    max: usize,
    dict: usize,
    what: &'static str,
) -> Result<usize, PersistError> {
    let mut pos = 0usize;
    let mut count = 0usize;
    let mut prev = 0i64;
    let max = i64::try_from(max).unwrap_or(i64::MAX);
    let dict = u64::try_from(dict).unwrap_or(u64::MAX);
    while pos < row.len() {
        let (raw, next) = varint_at(row, pos).ok_or(PersistError::Truncated(what))?;
        let v = if count == 0 {
            i64::try_from(raw).map_err(|_| PersistError::BadIndex(what))?
        } else {
            prev.checked_add(unzigzag(raw))
                .ok_or(PersistError::BadIndex(what))?
        };
        if v < 0 || v >= max {
            return Err(PersistError::BadIndex(what));
        }
        let (idx, after) = varint_at(row, next).ok_or(PersistError::Truncated(what))?;
        if idx >= dict {
            return Err(PersistError::BadIndex("edge metadata index"));
        }
        pos = after;
        prev = v;
        count += 1;
    }
    Ok(count)
}

/// Validates one succinct closure row; rejects non-canonical encodings so
/// a decoded row always re-encodes byte-identically.
fn validate_ancc_row(
    row: &[u8],
    row_index: usize,
    max: usize,
    what: &'static str,
) -> Result<usize, PersistError> {
    let Some((&flag, body)) = row.split_first() else {
        return Ok(0);
    };
    let max = max as u64;
    let me = row_index as u64;
    match flag {
        ANCC_RANGES => {
            let mut pos = 0usize;
            let mut cursor = 0u64;
            let mut count = 0usize;
            let mut first = true;
            while pos < body.len() {
                let (gap, n1) = varint_at(body, pos).ok_or(PersistError::Truncated(what))?;
                let (len1, n2) = varint_at(body, n1).ok_or(PersistError::Truncated(what))?;
                pos = n2;
                if !first && gap == 0 {
                    // Adjacent runs must be merged — non-canonical.
                    return Err(PersistError::BadIndex(what));
                }
                let start = cursor
                    .checked_add(gap)
                    .ok_or(PersistError::BadIndex(what))?;
                let run = len1.checked_add(1).ok_or(PersistError::BadIndex(what))?;
                let end = start.checked_add(run).ok_or(PersistError::BadIndex(what))?;
                if end > max {
                    return Err(PersistError::BadIndex(what));
                }
                if me >= start && me < end {
                    return Err(PersistError::BadIndex("self ancestor"));
                }
                cursor = end;
                count = count
                    .checked_add(usize::try_from(run).map_err(|_| PersistError::BadIndex(what))?)
                    .ok_or(PersistError::BadIndex(what))?;
                first = false;
            }
            if count == 0 {
                // A flag byte with no runs: the canonical empty row is
                // zero bytes.
                return Err(PersistError::BadIndex(what));
            }
            Ok(count)
        }
        ANCC_BITSET => {
            let (base, next) = varint_at(body, 0).ok_or(PersistError::Truncated(what))?;
            let bitmap = body.get(next..).unwrap_or(&[]);
            let (Some(&first_byte), Some(&last_byte)) = (bitmap.first(), bitmap.last()) else {
                return Err(PersistError::Truncated(what));
            };
            if first_byte & 1 == 0 || last_byte == 0 {
                // Canonical: `base` is the first member, no trailing zero
                // bytes.
                return Err(PersistError::BadIndex(what));
            }
            let high = (bitmap.len() - 1) * 8 + (7 - last_byte.leading_zeros() as usize);
            let top = base
                .checked_add(high as u64)
                .ok_or(PersistError::BadIndex(what))?;
            if top >= max {
                return Err(PersistError::BadIndex(what));
            }
            if let Some(off) = me.checked_sub(base) {
                let off = usize::try_from(off).unwrap_or(usize::MAX);
                if off / 8 < bitmap.len()
                    && bitmap
                        .get(off / 8)
                        .is_some_and(|b| b & (1 << (off % 8)) != 0)
                {
                    return Err(PersistError::BadIndex("self ancestor"));
                }
            }
            Ok(bitmap.iter().map(|b| b.count_ones() as usize).sum())
        }
        _ => Err(PersistError::BadIndex(what)),
    }
}

// ----- row iterators ------------------------------------------------------

/// Delta+varint id row decoder. Rows validated at open; any residual
/// malformation ends iteration instead of panicking.
struct IdRowIter<'a> {
    row: &'a [u8],
    pos: usize,
    prev: i64,
    first: bool,
}

impl<'a> IdRowIter<'a> {
    fn new(row: &'a [u8]) -> Self {
        IdRowIter {
            row,
            pos: 0,
            prev: 0,
            first: true,
        }
    }
}

impl Iterator for IdRowIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.row.len() {
            return None;
        }
        let (raw, next) = varint_at(self.row, self.pos)?;
        self.pos = next;
        let v = if self.first {
            self.first = false;
            i64::try_from(raw).ok()?
        } else {
            self.prev.checked_add(unzigzag(raw))?
        };
        self.prev = v;
        u32::try_from(v).ok()
    }
}

/// Delta+varint meta row decoder: `(id, MDCT index)` pairs resolved
/// against the shared metadata dictionary into `(id, IsAMeta)`.
struct MetaRowIter<'a> {
    row: &'a [u8],
    /// Raw `MDCT` entries (`source u8 | conf f32` each).
    dict: &'a [u8],
    pos: usize,
    prev: i64,
    first: bool,
}

impl<'a> MetaRowIter<'a> {
    fn new(row: &'a [u8], dict: &'a [u8]) -> Self {
        MetaRowIter {
            row,
            dict,
            pos: 0,
            prev: 0,
            first: true,
        }
    }
}

impl Iterator for MetaRowIter<'_> {
    type Item = (u32, IsAMeta);

    fn next(&mut self) -> Option<(u32, IsAMeta)> {
        if self.pos >= self.row.len() {
            return None;
        }
        let (raw, next) = varint_at(self.row, self.pos)?;
        let v = if self.first {
            i64::try_from(raw).ok()?
        } else {
            self.prev.checked_add(unzigzag(raw))?
        };
        self.first = false;
        self.prev = v;
        let (idx, after) = varint_at(self.row, next)?;
        self.pos = after;
        let at = usize::try_from(idx).ok()?.checked_mul(5)?;
        let entry = self.dict.get(at..at.checked_add(5)?)?;
        let (&src, conf) = entry.split_first()?;
        let source = Source::from_u8(src)?;
        let confidence = f32::from_le_bytes(conf.try_into().ok()?);
        Some((u32::try_from(v).ok()?, IsAMeta::new(source, confidence)))
    }
}

/// Pair-row decoder that yields only the ids, skipping the dictionary
/// index varints without touching the dictionary — the `getEntity`
/// hyponym enumeration path.
struct PairIdIter<'a> {
    row: &'a [u8],
    pos: usize,
    prev: i64,
    first: bool,
}

impl<'a> PairIdIter<'a> {
    fn new(row: &'a [u8]) -> Self {
        PairIdIter {
            row,
            pos: 0,
            prev: 0,
            first: true,
        }
    }
}

impl Iterator for PairIdIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.row.len() {
            return None;
        }
        let (raw, next) = varint_at(self.row, self.pos)?;
        let v = if self.first {
            self.first = false;
            i64::try_from(raw).ok()?
        } else {
            self.prev.checked_add(unzigzag(raw))?
        };
        self.prev = v;
        let (_, after) = varint_at(self.row, next)?;
        self.pos = after;
        u32::try_from(v).ok()
    }
}

/// Succinct closure row decoder: yields ancestors in ascending id order,
/// expanding interval runs or walking bitmap bits — no materialisation.
struct AncestorIter<'a> {
    state: AncState<'a>,
}

enum AncState<'a> {
    Done,
    Ranges {
        body: &'a [u8],
        pos: usize,
        at: u64,
        end: u64,
        cursor: u64,
    },
    Bits {
        bitmap: &'a [u8],
        base: u64,
        bit: usize,
    },
}

impl<'a> AncestorIter<'a> {
    fn new(row: &'a [u8]) -> Self {
        let state = match row.split_first() {
            Some((&ANCC_RANGES, body)) => AncState::Ranges {
                body,
                pos: 0,
                at: 0,
                end: 0,
                cursor: 0,
            },
            Some((&ANCC_BITSET, body)) => match varint_at(body, 0) {
                Some((base, next)) => AncState::Bits {
                    bitmap: body.get(next..).unwrap_or(&[]),
                    base,
                    bit: 0,
                },
                None => AncState::Done,
            },
            _ => AncState::Done,
        };
        AncestorIter { state }
    }
}

impl Iterator for AncestorIter<'_> {
    type Item = ConceptId;

    fn next(&mut self) -> Option<ConceptId> {
        loop {
            match &mut self.state {
                AncState::Done => return None,
                AncState::Ranges {
                    body,
                    pos,
                    at,
                    end,
                    cursor,
                } => {
                    if at < end {
                        let v = *at;
                        *at += 1;
                        return u32::try_from(v).ok().map(ConceptId);
                    }
                    if *pos >= body.len() {
                        self.state = AncState::Done;
                        return None;
                    }
                    let parsed = varint_at(body, *pos)
                        .and_then(|(gap, n1)| varint_at(body, n1).map(|(l, n2)| (gap, l, n2)));
                    let Some((gap, len1, n2)) = parsed else {
                        self.state = AncState::Done;
                        return None;
                    };
                    *pos = n2;
                    let start = cursor.saturating_add(gap);
                    let stop = start.saturating_add(len1).saturating_add(1);
                    *cursor = stop;
                    *at = start;
                    *end = stop;
                }
                AncState::Bits { bitmap, base, bit } => {
                    while let Some(&byte) = bitmap.get(*bit / 8) {
                        let i = *bit;
                        *bit += 1;
                        if byte & (1 << (i % 8)) != 0 {
                            let v = base.saturating_add(i as u64);
                            return u32::try_from(v).ok().map(ConceptId);
                        }
                    }
                    self.state = AncState::Done;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::persist::encode_frozen_v3;
    use crate::store::TaxonomyStore;

    pub(crate) fn demo_store() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let zhang = s.add_entity("张学友", None);
        s.add_alias(liu, "Andy Lau");
        s.add_attribute(liu, "职业");
        s.add_attribute(liu, "代表作品");
        let actor = s.add_concept("演员");
        let singer = s.add_concept("歌手");
        let person = s.add_concept("人物");
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.8));
        s.add_entity_is_a(liu, actor, IsAMeta::new(Source::Bracket, 0.96));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.97));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Infobox, 0.9));
        s
    }

    fn demo_view() -> (FrozenTaxonomy, FrozenTaxonomyView) {
        let frozen = FrozenTaxonomy::freeze(&demo_store());
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open v3");
        (frozen, view)
    }

    pub(crate) fn assert_view_matches(frozen: &FrozenTaxonomy, view: &FrozenTaxonomyView) {
        assert_eq!(view.num_entities(), frozen.num_entities());
        assert_eq!(view.num_concepts(), frozen.num_concepts());
        assert_eq!(view.num_is_a(), frozen.num_is_a());
        assert_eq!(view.num_mentions(), frozen.num_mentions());
        assert_eq!(
            view.topo_order().collect::<Vec<_>>(),
            frozen.topo_order().to_vec()
        );
        for e in frozen.entity_ids() {
            assert_eq!(view.entity(e), frozen.entity(e));
            assert_eq!(view.entity_key(e), frozen.entity_key(e));
            assert_eq!(
                view.concepts_of(e).collect::<Vec<_>>(),
                frozen.concepts_of(e).to_vec()
            );
            assert_eq!(
                view.attributes_of(e).collect::<Vec<_>>(),
                frozen.attributes_of(e).to_vec()
            );
            assert_eq!(
                view.aliases_of(e).collect::<Vec<_>>(),
                frozen.aliases_of(e).to_vec()
            );
        }
        for c in frozen.concept_ids() {
            assert_eq!(view.concept_name(c), frozen.concept_name(c));
            assert_eq!(view.depth(c), frozen.depth(c));
            assert_eq!(
                view.entities_of(c).collect::<Vec<_>>(),
                frozen.entities_of(c).to_vec()
            );
            assert_eq!(
                view.parents_of(c).collect::<Vec<_>>(),
                frozen.parents_of(c).to_vec()
            );
            assert_eq!(
                view.children_of(c).collect::<Vec<_>>(),
                frozen.children_of(c).to_vec()
            );
            assert_eq!(
                view.ancestors(c).collect::<Vec<_>>(),
                frozen.ancestors_of(c).to_vec()
            );
            assert_eq!(view.descendants(c), frozen.descendants(c));
            for sup in frozen.concept_ids() {
                assert_eq!(
                    view.ancestor_contains(c, sup),
                    frozen.ancestors_of(c).binary_search(&sup).is_ok(),
                    "ancestor_contains({c:?}, {sup:?})"
                );
            }
        }
    }

    #[test]
    fn view_matches_frozen_on_demo_corpus() {
        let (frozen, view) = demo_view();
        assert_view_matches(&frozen, &view);
    }

    #[test]
    fn mention_resolution_matches_frozen() {
        let (frozen, view) = demo_view();
        for m in [
            "刘德华",
            "刘德华（中国香港男演员）",
            "张学友",
            "Andy Lau",
            "歌手",
            "不存在",
            "不存在（也不存在）",
            "刘德华（错误义项）",
            "",
        ] {
            assert_eq!(view.men2ent(m), frozen.men2ent(m).to_vec(), "mention {m:?}");
        }
        assert_eq!(
            view.find_entity("刘德华", Some("中国香港男演员")),
            frozen.find_entity("刘德华", Some("中国香港男演员"))
        );
        assert_eq!(
            view.find_entity("张学友", None),
            frozen.find_entity("张学友", None)
        );
        assert_eq!(
            view.find_entity("刘德华", None),
            frozen.find_entity("刘德华", None)
        );
        assert_eq!(view.find_entity("没有", None), None);
        for name in ["演员", "歌手", "人物", "没有"] {
            assert_eq!(view.find_concept(name), frozen.find_concept(name));
        }
        // The string search compares bytes: a name that sorts between two
        // members, and a strict character-prefix of a member, are misses.
        assert!("歌手" < "演出" && "演出" < "演员");
        for name in ["演出", "演", "男演", "刘德"] {
            assert_eq!(view.find_concept(name), None, "{name}");
            assert_eq!(view.find_entity(name, None), None, "{name}");
            assert_eq!(frozen.find_concept(name), None, "{name}");
        }
    }

    /// A closure scattered enough that the encoder picks the bitset form;
    /// the decoders must agree with the owned closure either way.
    #[test]
    fn bitset_closure_rows_decode_correctly() {
        let mut s = TaxonomyStore::new();
        let names: Vec<String> = (0..32).map(|i| format!("p{i}")).collect();
        let parents: Vec<_> = names.iter().map(|n| s.add_concept(n)).collect();
        let child = s.add_concept("child");
        for p in parents.iter().step_by(2) {
            s.add_concept_is_a(child, *p, IsAMeta::new(Source::SubConcept, 0.9));
        }
        let frozen = FrozenTaxonomy::freeze(&s);
        let view = FrozenTaxonomyView::open(encode_frozen_v3(&frozen)).expect("open v3");
        assert_view_matches(&frozen, &view);
        // The scattered row really did take the bitset path: re-encoding
        // through to_frozen stays byte-identical, so the pick is stable.
        let bytes = encode_frozen_v3(&view.to_frozen().expect("materialise"));
        assert_eq!(bytes, Bytes::copy_from_slice(view.as_bytes()));
    }

    #[test]
    fn to_frozen_roundtrips_the_demo_corpus() {
        let (frozen, view) = demo_view();
        let owned = view.to_frozen().expect("materialise");
        assert_eq!(owned.num_entities(), frozen.num_entities());
        assert_eq!(owned.num_is_a(), frozen.num_is_a());
        for e in frozen.entity_ids() {
            assert_eq!(owned.concepts_of(e), frozen.concepts_of(e));
            assert_eq!(owned.entity_key(e), frozen.entity_key(e));
        }
        for c in frozen.concept_ids() {
            assert_eq!(owned.ancestors_of(c), frozen.ancestors_of(c));
            assert_eq!(owned.depth(c), frozen.depth(c));
        }
        // Byte-for-byte stable re-encode.
        assert_eq!(
            encode_frozen_v3(&owned),
            Bytes::copy_from_slice(view.as_bytes())
        );
    }

    #[test]
    fn v2_bytes_are_rejected() {
        // What is left of a v2 file for this reader: its header.
        let mut bytes = b"CNPB\x02\x00\x00\x00".to_vec();
        bytes.extend_from_slice(b"INTR and the rest of an owned-CSR body");
        let err = FrozenTaxonomyView::open(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(2)));
    }

    #[test]
    fn every_truncation_prefix_errors_cleanly() {
        let (_, view) = demo_view();
        let bytes = view.as_bytes();
        for cut in 0..bytes.len() {
            let res = FrozenTaxonomyView::open(Bytes::copy_from_slice(&bytes[..cut]));
            assert!(res.is_err(), "prefix of {cut} bytes unexpectedly opened");
        }
    }
}
