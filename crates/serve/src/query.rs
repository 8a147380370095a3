//! The request side of Serving API v1: the [`Query`] enum, per-query
//! [`ListOptions`] and the opaque, stable pagination [`Cursor`].

use crate::response::CursorError;
use cnp_runtime::stable_hash_str;
use cnp_tag::TagOptions;
use std::fmt::Write as _;

/// Which page of a list result to return.
///
/// `limit` bounds the number of items in the page; `cursor` resumes a
/// previous page exactly where it ended. Cursors are *stable*: the
/// underlying enumeration order is a pure function of the snapshot (see
/// [`cnp_taxonomy::FrozenTaxonomy::entities_of`]), so walking pages never
/// skips or repeats an item while the generation is unchanged — and a
/// cursor from another generation, or from a different query, is rejected
/// as [`CursorError`] instead of silently returning garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRequest {
    /// Maximum items in the page (`usize::MAX` for all).
    pub limit: usize,
    /// Resume point from a previous page's [`crate::Paged::next`].
    pub cursor: Option<Cursor>,
}

impl Default for PageRequest {
    fn default() -> Self {
        PageRequest::all()
    }
}

impl PageRequest {
    /// The whole result in one page.
    pub fn all() -> Self {
        PageRequest {
            limit: usize::MAX,
            cursor: None,
        }
    }

    /// The first page of `limit` items.
    pub fn first(limit: usize) -> Self {
        PageRequest {
            limit,
            cursor: None,
        }
    }

    /// The page of `limit` items starting where `cursor` left off.
    pub fn after(limit: usize, cursor: Cursor) -> Self {
        PageRequest {
            limit,
            cursor: Some(cursor),
        }
    }
}

/// Per-query options for the list-returning operations.
#[derive(Debug, Clone, PartialEq)]
pub struct ListOptions {
    /// Follow the isA closure: transitive hypernyms for `getConcept`,
    /// entities of transitive subconcepts for `getEntity`.
    pub transitive: bool,
    /// Confidence floor on the direct isA edges considered (`0.0` keeps
    /// everything). For `getConcept` the floor gates which direct edges
    /// seed the transitive expansion; for `getEntity` it gates each
    /// entity's edge to the concept it is reached through.
    pub min_confidence: f32,
    /// Pagination window.
    pub page: PageRequest,
}

impl Default for ListOptions {
    fn default() -> Self {
        ListOptions {
            transitive: false,
            min_confidence: 0.0,
            page: PageRequest::all(),
        }
    }
}

impl ListOptions {
    /// Defaults with the transitive flag set.
    pub fn transitive() -> Self {
        ListOptions {
            transitive: true,
            ..Default::default()
        }
    }

    /// Returns the options with the confidence floor set.
    pub fn with_min_confidence(mut self, floor: f32) -> Self {
        self.min_confidence = floor;
        self
    }

    /// Returns the options with the pagination window set.
    pub fn with_page(mut self, page: PageRequest) -> Self {
        self.page = page;
        self
    }
}

/// One serving request — every Table II operation plus the taxonomy
/// navigation queries, as data.
///
/// Entities are addressed by their full display key (`刘德华（中国香港男演
/// 员）`, or the bare name for an undisambiguated entity); mentions are
/// free-form surface strings resolved through `men2ent`; concepts are
/// addressed by name.
///
/// ```
/// use cnp_serve::{ListOptions, PageRequest, Query};
///
/// // Table II getEntity, transitive, first page of 10 hyponyms.
/// let q = Query::GetEntity {
///     concept: "人物".to_string(),
///     options: ListOptions::transitive().with_page(PageRequest::first(10)),
/// };
/// assert!(matches!(q, Query::GetEntity { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `men2ent`: resolve a mention to its entity senses.
    Men2Ent {
        /// Surface mention (name, full key or alias).
        mention: String,
    },
    /// The disambiguation view of a mention: every sense together with its
    /// direct concepts, so a caller can pick a sense in one round trip.
    MentionSenses {
        /// Surface mention (name, full key or alias).
        mention: String,
    },
    /// `getConcept`: hypernyms of one entity.
    GetConcept {
        /// Full display key of the entity.
        entity: String,
        /// Transitive flag, confidence floor, pagination.
        options: ListOptions,
    },
    /// `getConcept` by mention: hypernyms merged over every sense of a
    /// mention, deduplicated in rank order.
    GetConceptByMention {
        /// Surface mention (name, full key or alias).
        mention: String,
        /// Transitive flag, confidence floor, pagination.
        options: ListOptions,
    },
    /// `getEntity`: hyponym entities of a concept, ranked by descending
    /// edge confidence (entity id as tie-break).
    GetEntity {
        /// Concept name.
        concept: String,
        /// Transitive flag, confidence floor, pagination.
        options: ListOptions,
    },
    /// All transitive ancestors of a concept, nearest-first.
    AncestorsOf {
        /// Concept name.
        concept: String,
    },
    /// Does `sub` (an entity mention or a concept name) stand in an isA
    /// relation to the concept `sup`?
    IsA {
        /// Subject: tried as a concept name first, then as a mention
        /// (any sense may witness the relation).
        sub: String,
        /// Object concept name.
        sup: String,
        /// Follow the isA closure instead of direct edges only.
        transitive: bool,
    },
    /// Tag a document: segment, resolve mentions, rank taxonomy concepts
    /// coarse-to-fine; answers with evidence spans plus the concept list.
    Tag {
        /// The document text.
        text: String,
        /// Result size, score floor, refinement beam.
        options: TagOptions,
    },
    /// Classify a document: the same scoring pass as [`Query::Tag`], but
    /// the answer carries the ranked concepts only.
    Classify {
        /// The document text.
        text: String,
        /// Result size, score floor, refinement beam.
        options: TagOptions,
    },
}

impl Query {
    /// Convenience constructor for [`Query::Men2Ent`].
    pub fn men2ent(mention: impl Into<String>) -> Self {
        Query::Men2Ent {
            mention: mention.into(),
        }
    }

    /// Identity hash of the query *excluding* its pagination window: two
    /// pages of the same logical query share a fingerprint, so a cursor
    /// minted by one page is valid for the next — and a cursor replayed
    /// against a different query is rejected instead of mis-slicing.
    pub(crate) fn fingerprint(&self) -> u64 {
        const SEP: char = '\u{1}';
        let canon = match self {
            Query::Men2Ent { mention } => format!("men2ent{SEP}{mention}"),
            Query::MentionSenses { mention } => format!("mentionSenses{SEP}{mention}"),
            Query::GetConcept { entity, options } => format!(
                "getConcept{SEP}{entity}{SEP}{}{SEP}{:08x}",
                options.transitive,
                options.min_confidence.to_bits()
            ),
            Query::GetConceptByMention { mention, options } => format!(
                "getConceptByMention{SEP}{mention}{SEP}{}{SEP}{:08x}",
                options.transitive,
                options.min_confidence.to_bits()
            ),
            Query::GetEntity { concept, options } => format!(
                "getEntity{SEP}{concept}{SEP}{}{SEP}{:08x}",
                options.transitive,
                options.min_confidence.to_bits()
            ),
            Query::AncestorsOf { concept } => format!("ancestorsOf{SEP}{concept}"),
            Query::IsA {
                sub,
                sup,
                transitive,
            } => format!("isA{SEP}{sub}{SEP}{sup}{SEP}{transitive}"),
            Query::Tag { text, options } => format!(
                "tag{SEP}{text}{SEP}{}{SEP}{:08x}{SEP}{}",
                options.top_k,
                options.min_score.to_bits(),
                options.beam
            ),
            Query::Classify { text, options } => format!(
                "classify{SEP}{text}{SEP}{}{SEP}{:08x}{SEP}{}",
                options.top_k,
                options.min_score.to_bits(),
                options.beam
            ),
        };
        stable_hash_str(&canon)
    }
}

/// Opaque resume point for paginated results.
///
/// A cursor binds three things: the *offset* into the stable enumeration,
/// the snapshot *generation* the enumeration belongs to, and a
/// *fingerprint* of the query it paginates. Execution rejects a cursor
/// whose generation or fingerprint does not match
/// ([`crate::QueryError::InvalidCursor`]) — after a hot-swap the offsets
/// of the old enumeration are meaningless, and failing loudly beats
/// silently skipping or repeating entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    pub(crate) generation: u64,
    pub(crate) offset: usize,
    pub(crate) fingerprint: u64,
}

impl Cursor {
    /// Snapshot generation the cursor was minted on.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Items already consumed by earlier pages.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Serializes the cursor into a wire token.
    pub fn encode(&self) -> String {
        let mut token = String::new();
        self.write_token(&mut token);
        token
    }

    /// Appends the [`Cursor::encode`] token to `out`. The token is ASCII
    /// letters, digits and dots only, so it needs no JSON escaping.
    pub(crate) fn write_token(&self, out: &mut String) {
        // `fmt::Write` for `String` never fails.
        let _ = write!(
            out,
            "v1.g{}.o{}.q{:016x}",
            self.generation, self.offset, self.fingerprint
        );
    }

    /// Parses a wire token produced by [`Cursor::encode`].
    pub fn decode(token: &str) -> Result<Cursor, CursorError> {
        let mut parts = token.split('.');
        let (Some("v1"), Some(g), Some(o), Some(q), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(CursorError::Malformed);
        };
        let generation = g
            .strip_prefix('g')
            .and_then(|v| v.parse().ok())
            .ok_or(CursorError::Malformed)?;
        let offset = o
            .strip_prefix('o')
            .and_then(|v| v.parse().ok())
            .ok_or(CursorError::Malformed)?;
        let fingerprint = q
            .strip_prefix('q')
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or(CursorError::Malformed)?;
        Ok(Cursor {
            generation,
            offset,
            fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_token_round_trips() {
        let c = Cursor {
            generation: 7,
            offset: 1234,
            fingerprint: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(Cursor::decode(&c.encode()), Ok(c));
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        for bad in [
            "",
            "v1",
            "v2.g1.o0.q0000000000000000",
            "v1.g1.o0",
            "v1.gx.o0.q0",
            "v1.g1.ox.q0",
            "v1.g1.o0.qzz",
            "v1.g1.o0.q0.extra",
        ] {
            assert_eq!(Cursor::decode(bad), Err(CursorError::Malformed), "{bad}");
        }
    }

    #[test]
    fn fingerprint_ignores_page_but_not_options() {
        let base = Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::transitive(),
        };
        let paged = Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::transitive().with_page(PageRequest::first(3)),
        };
        assert_eq!(base.fingerprint(), paged.fingerprint());
        let direct = Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::default(),
        };
        assert_ne!(base.fingerprint(), direct.fingerprint());
        let floored = Query::GetEntity {
            concept: "人物".to_string(),
            options: ListOptions::transitive().with_min_confidence(0.5),
        };
        assert_ne!(base.fingerprint(), floored.fingerprint());
        assert_ne!(base.fingerprint(), Query::men2ent("人物").fingerprint());
    }
}
