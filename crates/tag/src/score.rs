//! Mention resolution and coarse-to-fine concept scoring.
//!
//! [`resolve_spans`] turns segmented tokens into evidence spans: a
//! longest-match window of adjacent tokens is probed against `men2ent`
//! (entity evidence) and `find_concept` (the document literally names a
//! concept), and unresolved spans survive only through the NER gate. A
//! window is hashed from its tokens' keys and reaches the snapshot only
//! when the [`TagIndex`]'s sets hold its key. Tokens and window probes
//! borrow the document or one reused buffer; a span's text is copied only
//! once the span resolves.
//! [`tag_with`] then scores concepts in three deterministic passes:
//!
//! 1. **Direct mass**: each entity span contributes its isA edge
//!    confidences, split evenly across the mention's senses; each concept
//!    span contributes unit mass.
//! 2. **Coarse propagation**: direct mass flows up the ancestor closure,
//!    discounted by `DECAY` per depth level — a document about 歌手 is
//!    *somewhat* about 人物, but less so.
//! 3. **Fine refinement**: walking depth levels from the roots down, the
//!    top-`beam` concepts of each level hand `REFINE` of their mass back
//!    to their directly-evidenced children — so a specific concept with
//!    real evidence overtakes the generic ancestor that only collected
//!    propagated mass.
//!
//! Scoring works on flat vectors put in order by stable sorts, not on
//! maps: one `(concept, mass, span)` triple per piece of direct evidence
//! and one `(ancestor, mass, source)` triple per lift, each stable-sorted
//! by concept, so every concept's additions happen in span order and
//! ancestor-row order, ids ascending; levels are sorted `(depth,
//! concept)` pairs, and a concept's evidence is a range of its triples.
//! Scores are therefore bit-identical across snapshot backends and
//! independent of batch thread count.

use crate::index::{Key, TagIndex, MAX_SPAN_TOKENS};
use cnp_taxonomy::{ConceptId, EntityId, TaxonomyRead};
use cnp_text::chars::{char_len, is_punct};
use std::ops::Range;

/// Per-depth-level mass discount of the coarse upward propagation.
const DECAY: f64 = 0.5;

/// Fraction of a high-mass concept's score handed back to each of its
/// directly-evidenced children in the refinement pass.
const REFINE: f64 = 0.5;

/// Options for one tag/classify request.
#[derive(Debug, Clone, PartialEq)]
pub struct TagOptions {
    /// Maximum concepts returned.
    pub top_k: usize,
    /// Score floor: concepts below it are dropped from the result.
    pub min_score: f32,
    /// Per-level beam of the refinement pass: at each depth level, only
    /// the `beam` highest-mass concepts re-score their children.
    pub beam: usize,
}

impl Default for TagOptions {
    fn default() -> Self {
        TagOptions {
            top_k: 5,
            min_score: 0.0,
            beam: 8,
        }
    }
}

impl TagOptions {
    /// Returns the options with the result size set.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Returns the options with the score floor set.
    pub fn with_min_score(mut self, min_score: f32) -> Self {
        self.min_score = min_score;
        self
    }

    /// Returns the options with the refinement beam set.
    pub fn with_beam(mut self, beam: usize) -> Self {
        self.beam = beam;
        self
    }
}

/// What a resolved span is evidence *of*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// The span is a mention: its candidate entity senses, in `men2ent`
    /// order.
    Entities(Vec<EntityId>),
    /// The span literally names a concept.
    Concept(ConceptId),
    /// Out-of-taxonomy span the NER gate recognised as a named entity.
    /// Surfaced for the caller but contributing no concept mass.
    NamedEntity,
}

/// One evidence span of the input document, in character offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct TagSpan {
    /// First character of the span (char index, not byte).
    pub start: u32,
    /// One past the last character of the span.
    pub end: u32,
    /// The covered text.
    pub text: String,
    /// What the span resolved to.
    pub kind: SpanKind,
}

/// One ranked concept of the result.
#[derive(Debug, Clone, PartialEq)]
pub struct TagHit {
    /// Snapshot handle (valid within the response's generation).
    pub id: ConceptId,
    /// Concept name.
    pub name: String,
    /// Depth in the concept DAG (longest chain to a root).
    pub depth: u32,
    /// Propagated-and-refined evidence mass.
    pub score: f32,
    /// Indices into the result's span list that contributed mass to this
    /// concept (directly or through descendants), ascending, deduplicated.
    pub evidence: Vec<u32>,
}

/// The tag result: the document's evidence spans and the ranked concepts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TagOutput {
    /// Evidence spans, left to right.
    pub spans: Vec<TagSpan>,
    /// Concepts, score descending (concept id as tie-break), truncated to
    /// `top_k` after the `min_score` floor.
    pub concepts: Vec<TagHit>,
}

/// Tags a document against a snapshot through a prebuilt [`TagIndex`].
pub fn tag_with<T: TaxonomyRead>(
    f: &T,
    index: &TagIndex,
    text: &str,
    options: &TagOptions,
) -> TagOutput {
    let spans = resolve_spans(f, index, text);
    let concepts = score_spans(f, &spans, options);
    TagOutput { spans, concepts }
}

/// Classifies a document: the ranked concepts of [`tag_with`], without
/// carrying the span list into the result.
pub fn classify_with<T: TaxonomyRead>(
    f: &T,
    index: &TagIndex,
    text: &str,
    options: &TagOptions,
) -> Vec<TagHit> {
    tag_with(f, index, text, options).concepts
}

// ----- resolution -----------------------------------------------------------

/// A token of the document: a slice of it, with its char offsets and its
/// [`Key`].
struct Token<'t> {
    text: &'t str,
    start: u32,
    end: u32,
    punct: bool,
    key: Key,
}

fn tokenize<'t>(index: &TagIndex, text: &'t str) -> Vec<Token<'t>> {
    let mut words = Vec::new();
    index.segmenter().segment_into(text, &mut words);
    let mut at = 0u32;
    words
        .into_iter()
        .map(|tok| {
            let len = char_len(tok) as u32;
            // The segmenter emits a whole non-Han, non-ASCII run as one token
            // (`，é`, `（１９６１）`): one punctuation character makes it a
            // boundary.
            let punct = tok.chars().any(is_punct);
            let token = Token {
                text: tok,
                start: at,
                end: at + len,
                punct,
                key: Key::of(tok),
            };
            at += len;
            token
        })
        .collect()
}

/// Resolves candidate mention spans: greedy longest-match over windows of
/// up to [`MAX_SPAN_TOKENS`] adjacent non-punctuation tokens, probing
/// `men2ent` first and `find_concept` second; single tokens that resolve
/// to nothing pass the NER gate or vanish.
///
/// Each window is hashed once, from its tokens' `Key`s, and the snapshot
/// is asked only about a window whose key is in the index's sets: a
/// window that is no bare mention key costs one set probe, not a
/// `men2ent` search, and one that is no concept name no `find_concept`.
/// When the snapshot lists no mention keys, every window asks `men2ent`.
/// Either way the spans are the ones probing every window gives.
pub fn resolve_spans<T: TaxonomyRead>(f: &T, index: &TagIndex, text: &str) -> Vec<TagSpan> {
    let tokens = tokenize(index, text);
    let mut spans = Vec::new();
    // The one buffer every multi-token probe is joined into.
    let mut joined = String::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let Some(cur) = tokens.get(i) else { break };
        if cur.punct {
            i += 1;
            continue;
        }
        // The keys of the windows starting here, by width. A window never
        // crosses punctuation: mentions do not.
        let mut keys = [Key::EMPTY; MAX_SPAN_TOKENS];
        let mut max_w = 0usize;
        let mut key = Key::EMPTY;
        let ahead = tokens.get(i..).unwrap_or_default();
        for (slot, t) in keys.iter_mut().zip(ahead).take_while(|(_, t)| !t.punct) {
            key = key.then(t.key);
            *slot = key;
            max_w += 1;
        }
        let mut advanced = 0usize;
        for (n, &key) in keys.iter().take(max_w).enumerate().rev() {
            let w = n + 1;
            let may_mention = index.may_be_mention(key);
            let may_concept = index.may_be_concept(key);
            if !may_mention && !may_concept {
                continue;
            }
            let Some(window) = tokens.get(i..i + w) else {
                continue;
            };
            let probe = match window {
                [one] => one.text,
                _ => {
                    joined.clear();
                    joined.extend(window.iter().map(|t| t.text));
                    joined.as_str()
                }
            };
            let senses = if may_mention {
                f.men2ent(probe)
            } else {
                Vec::new()
            };
            let kind = if !senses.is_empty() {
                Some(SpanKind::Entities(senses))
            } else if may_concept {
                f.find_concept(probe).map(SpanKind::Concept)
            } else {
                None
            };
            if let (Some(kind), Some(first), Some(last)) = (kind, window.first(), window.last()) {
                spans.push(TagSpan {
                    start: first.start,
                    end: last.end,
                    text: probe.to_string(),
                    kind,
                });
                advanced = w;
                break;
            }
        }
        if advanced == 0 {
            // OOV fallback, NER-gated: an unresolved token is kept as an
            // (entity-less) evidence span only when it looks like a named
            // entity; ordinary unknown words are dropped. Book-title
            // brackets are punctuation tokens, so the 《…》 Work pattern
            // is probed with its surrounding brackets restored.
            if let Some(tok) = tokens.get(i) {
                let after_open = i
                    .checked_sub(1)
                    .and_then(|p| tokens.get(p))
                    .is_some_and(|prev| prev.text.ends_with('《'));
                let closing = after_open
                    .then(|| {
                        (i + 1..tokens.len().min(i + 2 * MAX_SPAN_TOKENS))
                            .find(|&j| tokens.get(j).is_some_and(|t| t.text.starts_with('》')))
                    })
                    .flatten();
                let (probe, start, end) = match closing.and_then(|j| tokens.get(i..j)) {
                    Some(inner) if !inner.is_empty() => {
                        joined.clear();
                        joined.push('《');
                        joined.extend(inner.iter().map(|t| t.text));
                        joined.push('》');
                        let last_end = inner.last().map_or(tok.end, |t| t.end);
                        (joined.as_str(), tok.start - 1, last_end + 1)
                    }
                    _ => (tok.text, tok.start, tok.end),
                };
                if index.named_entity(probe).is_some() {
                    let consumed = closing.map_or(1, |j| j - i);
                    spans.push(TagSpan {
                        start,
                        end,
                        text: probe.to_string(),
                        kind: SpanKind::NamedEntity,
                    });
                    advanced = consumed;
                }
            }
            advanced = advanced.max(1);
        }
        i += advanced;
    }
    spans
}

// ----- scoring --------------------------------------------------------------

/// One piece of direct evidence: a concept, the mass a span gives it, and
/// the span's index.
type Mass = (ConceptId, f64, u32);

/// One lift of pass 2: an ancestor, the discounted mass it takes, and the
/// index of the [`Direct`] concept it takes it from.
type Lift = (ConceptId, f64, usize);

/// A directly evidenced concept: its summed mass and its run of the
/// concept-sorted [`Mass`] triples (its evidence spans, in span order).
struct Direct {
    concept: ConceptId,
    mass: f64,
    evidence: Range<usize>,
}

/// A scored concept: its running score, its [`Direct`] entry if it has
/// one, and its run of the ancestor-sorted [`Lift`]s.
struct Scored {
    concept: ConceptId,
    score: f64,
    direct: Option<usize>,
    lifts: Range<usize>,
}

/// Scores the concept list for a resolved span set. Pure and
/// deterministic: accumulation order is fixed by ids and span order.
pub fn score_spans<T: TaxonomyRead>(f: &T, spans: &[TagSpan], options: &TagOptions) -> Vec<TagHit> {
    let (masses, direct) = direct_mass(f, spans);
    let (lifts, mut scored) = propagate(f, &direct);
    refine(f, &mut scored, options);

    // Rank, floor, truncate — on indices and scores; only the survivors
    // become hits. Index order is concept order, so the tie-break is the
    // concept id.
    let mut top: Vec<(usize, f32)> = scored
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.score as f32))
        .filter(|&(_, s)| s >= options.min_score)
        .collect();
    top.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(options.top_k);
    top.into_iter()
        .filter_map(|(i, score)| {
            let s = scored.get(i)?;
            Some(TagHit {
                id: s.concept,
                name: f.concept_name(s.concept).to_string(),
                depth: f.depth(s.concept) as u32,
                score,
                evidence: evidence_of(s, &masses, &direct, &lifts),
            })
        })
        .collect()
}

/// Pass 1: direct evidence mass. One triple per (span, sense, edge), in
/// span order, stable-sorted by concept: each concept's run sums its mass
/// in the order the spans gave it, from 0.0.
fn direct_mass<T: TaxonomyRead>(f: &T, spans: &[TagSpan]) -> (Vec<Mass>, Vec<Direct>) {
    let mut masses: Vec<Mass> = Vec::new();
    for (si, span) in spans.iter().enumerate() {
        let si = si as u32;
        match &span.kind {
            SpanKind::Entities(senses) => {
                // A mention's mass splits evenly across its senses — an
                // ambiguous name is weaker evidence for each reading.
                let sense_w = 1.0 / senses.len().max(1) as f64;
                for &e in senses {
                    masses.extend(
                        f.concepts_of(e)
                            .map(|(c, m)| (c, sense_w * f64::from(m.confidence), si)),
                    );
                }
            }
            SpanKind::Concept(c) => masses.push((*c, 1.0, si)),
            SpanKind::NamedEntity => {}
        }
    }
    masses.sort_by_key(|&(c, _, _)| c);
    let mut direct = Vec::new();
    let mut at = 0usize;
    for run in masses.chunk_by(|a, b| a.0 == b.0) {
        let evidence = at..at + run.len();
        at = evidence.end;
        if let Some(&(concept, _, _)) = run.first() {
            direct.push(Direct {
                concept,
                mass: run.iter().fold(0.0, |sum, &(_, m, _)| sum + m),
                evidence,
            });
        }
    }
    (masses, direct)
}

/// Pass 2: coarse upward propagation with depth-discounted weights. Lifts
/// are made in concept order, each concept's ancestors in row order, and
/// stable-sorted by ancestor; a concept's score is its direct mass (or
/// 0.0), then its lifts added in that order. The scored concepts come out
/// sorted by id.
fn propagate<T: TaxonomyRead>(f: &T, direct: &[Direct]) -> (Vec<Lift>, Vec<Scored>) {
    let mut lifts: Vec<Lift> = Vec::new();
    for (di, d) in direct.iter().enumerate() {
        let dc = f.depth(d.concept);
        for a in f.ancestors(d.concept) {
            let dd = dc.saturating_sub(f.depth(a)).max(1);
            lifts.push((a, d.mass * DECAY.powi(dd as i32), di));
        }
    }
    lifts.sort_by_key(|&(a, _, _)| a);

    // Merge the two concept-sorted lists.
    let mut scored = Vec::with_capacity(direct.len() + lifts.len());
    let (mut d, mut l) = (0usize, 0usize);
    loop {
        let next_direct = direct.get(d).map(|x| x.concept);
        let next_lift = lifts.get(l).map(|x| x.0);
        let Some(concept) = next_direct.into_iter().chain(next_lift).min() else {
            break;
        };
        let own = (next_direct == Some(concept)).then_some(d);
        d += usize::from(own.is_some());
        let from = l;
        while lifts.get(l).is_some_and(|x| x.0 == concept) {
            l += 1;
        }
        let base = own.and_then(|i| direct.get(i)).map_or(0.0, |x| x.mass);
        let taken = lifts.get(from..l).unwrap_or_default();
        scored.push(Scored {
            concept,
            score: taken.iter().fold(base, |sum, &(_, m, _)| sum + m),
            direct: own,
            lifts: from..l,
        });
    }
    (lifts, scored)
}

/// Pass 3: fine refinement, level by level from the roots down. The
/// top-`beam` concepts of each depth level hand REFINE of their (possibly
/// already refined) mass to each directly-evidenced child, so specificity
/// wins where the evidence supports it. The children come from one
/// parent → child table built from the evidenced concepts' own parent
/// rows: ascending child order within a parent, one entry however often
/// an edge repeats, never a concept under itself.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is into `scored`, taken from its own enumeration: the levels, the ranked pairs and the child table's entries"
)]
fn refine<T: TaxonomyRead>(f: &T, scored: &mut [Scored], options: &TagOptions) {
    // (parent, child) with the child as its index into `scored`, whose
    // order is id order.
    let mut children: Vec<(ConceptId, usize)> = Vec::new();
    for (i, s) in scored.iter().enumerate() {
        if s.direct.is_some() {
            children.extend(
                f.parents_of(s.concept)
                    .filter(|&(q, _)| q != s.concept)
                    .map(|(q, _)| (q, i)),
            );
        }
    }
    children.sort_unstable();
    children.dedup();
    let mut levels: Vec<(usize, usize)> = scored
        .iter()
        .enumerate()
        .map(|(i, s)| (f.depth(s.concept), i))
        .collect();
    levels.sort_unstable();
    let mut ranked: Vec<(f64, usize)> = Vec::new();
    for level in levels.chunk_by(|a, b| a.0 == b.0) {
        ranked.clear();
        ranked.extend(level.iter().map(|&(_, i)| (scored[i].score, i)));
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, p) in ranked.iter().take(options.beam.max(1)) {
            // Read again: a concept of this level refined by one ranked
            // above it (a cycle's members share a depth) hands on the
            // raised mass.
            let ps = scored[p].score;
            if ps <= 0.0 {
                continue;
            }
            let parent = scored[p].concept;
            let from = children.partition_point(|&(q, _)| q < parent);
            for &(_, c) in children[from..].iter().take_while(|&&(q, _)| q == parent) {
                scored[c].score += REFINE * ps;
            }
        }
    }
}

/// The spans behind a hit, ascending and deduplicated: its own direct
/// evidence and that of every concept it lifted mass from.
#[expect(
    clippy::indexing_slicing,
    reason = "a Scored's lifts range and direct index, a Lift's source index and a Direct's evidence range were all made from the vectors they index"
)]
fn evidence_of(s: &Scored, masses: &[Mass], direct: &[Direct], lifts: &[Lift]) -> Vec<u32> {
    let ranges = || {
        let own = s.direct.map(|d| direct[d].evidence.clone());
        let lifted = lifts[s.lifts.clone()]
            .iter()
            .map(|&(_, _, from)| direct[from].evidence.clone());
        own.into_iter().chain(lifted)
    };
    let mut spans = Vec::with_capacity(ranges().map(|r| r.len()).sum());
    for r in ranges() {
        spans.extend(masses[r].iter().map(|&(_, _, si)| si));
    }
    spans.sort_unstable();
    spans.dedup();
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_taxonomy::store::EntityRecord;
    use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, Symbol, TaxonomyStore};
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn add(map: &mut BTreeMap<ConceptId, f64>, c: ConceptId, w: f64) {
        *map.entry(c).or_insert(0.0) += w;
    }

    fn score_of(map: &BTreeMap<ConceptId, f64>, c: ConceptId) -> f64 {
        map.get(&c).copied().unwrap_or(0.0)
    }

    fn fixture() -> FrozenTaxonomy {
        let mut s = TaxonomyStore::new();
        let thing = s.add_concept("事物");
        let person = s.add_concept("人物");
        let singer = s.add_concept("歌手");
        s.add_concept_is_a(person, thing, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
        let liu = s.add_entity("刘德华", None);
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        FrozenTaxonomy::freeze(&s)
    }

    #[test]
    fn mass_decays_up_the_closure_and_refinement_keeps_the_leaf_on_top() {
        let f = fixture();
        let index = TagIndex::build(&f);
        let out = tag_with(&f, &index, "刘德华", &TagOptions::default());
        let names: Vec<&str> = out.concepts.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["歌手", "人物", "事物"]);
        let scores: Vec<f32> = out.concepts.iter().map(|h| h.score).collect();
        assert!(scores.windows(2).all(|w| w[0] > w[1]), "{scores:?}");
    }

    #[test]
    fn min_score_and_top_k_shape_the_result() {
        let f = fixture();
        let index = TagIndex::build(&f);
        let top1 = tag_with(&f, &index, "刘德华", &TagOptions::default().with_top_k(1));
        assert_eq!(top1.concepts.len(), 1);
        let floored = tag_with(
            &f,
            &index,
            "刘德华",
            &TagOptions::default().with_min_score(0.5),
        );
        assert!(floored.concepts.iter().all(|h| h.score >= 0.5));
        assert!(floored.concepts.len() < 3);
    }

    #[test]
    fn oov_named_entities_pass_the_gate_without_scoring() {
        let f = fixture();
        let index = TagIndex::build(&f);
        // 《…》 book-title brackets are the Work NE pattern; the title is
        // not in the taxonomy.
        let out = tag_with(&f, &index, "《未知作品名》", &TagOptions::default());
        assert!(out
            .spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::NamedEntity)));
        assert!(out.concepts.is_empty());
    }

    #[test]
    fn ambiguous_mentions_split_mass_across_senses() {
        let mut s = TaxonomyStore::new();
        let singer = s.add_concept("歌手");
        let host = s.add_concept("主持人");
        let a = s.add_entity("阿伦", Some("歌手"));
        let b = s.add_entity("阿伦", Some("主持人"));
        s.add_entity_is_a(a, singer, IsAMeta::new(Source::Tag, 0.8));
        s.add_entity_is_a(b, host, IsAMeta::new(Source::Tag, 0.8));
        let f = FrozenTaxonomy::freeze(&s);
        let index = TagIndex::build(&f);
        let out = tag_with(&f, &index, "阿伦", &TagOptions::default());
        assert_eq!(out.concepts.len(), 2);
        let scores: Vec<f32> = out.concepts.iter().map(|h| h.score).collect();
        assert!((scores[0] - 0.4).abs() < 1e-6, "{scores:?}");
        assert_eq!(scores[0], scores[1]);
    }

    #[test]
    fn a_window_never_crosses_a_token_holding_punctuation() {
        // `，é` is one token (a non-Han, non-ASCII run); its comma must
        // still stop the window, or 刘德华，é张学友 resolves as one span.
        let mut s = TaxonomyStore::new();
        let singer = s.add_concept("歌手");
        for name in ["刘德华", "张学友", "刘德华，é张学友"] {
            let e = s.add_entity(name, None);
            s.add_entity_is_a(e, singer, IsAMeta::new(Source::Tag, 0.9));
        }
        let f = FrozenTaxonomy::freeze(&s);
        let index = TagIndex::build(&f);
        let out = tag_with(&f, &index, "刘德华，é张学友", &TagOptions::default());
        let texts: Vec<&str> = out.spans.iter().map(|sp| sp.text.as_str()).collect();
        assert_eq!(texts, vec!["刘德华", "张学友"]);
    }

    #[test]
    fn longest_match_wins_over_fragment_mentions() {
        let mut s = TaxonomyStore::new();
        let place = s.add_concept("地点");
        let uni = s.add_concept("大学");
        let wuhan = s.add_entity("武汉", None);
        let wuda = s.add_entity("武汉大学", None);
        s.add_entity_is_a(wuhan, place, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(wuda, uni, IsAMeta::new(Source::Tag, 0.9));
        let f = FrozenTaxonomy::freeze(&s);
        let index = TagIndex::build(&f);
        let out = tag_with(&f, &index, "武汉大学的校园。", &TagOptions::default());
        assert!(
            out.spans.iter().any(|sp| sp.text == "武汉大学"),
            "{:?}",
            out.spans
        );
        assert!(out.spans.iter().all(|sp| sp.text != "武汉"));
        assert_eq!(
            out.concepts.first().map(|h| h.name.as_str()),
            Some("大学"),
            "{:?}",
            out.concepts
        );
    }

    /// Pass 3 and the ranking as they were before the parent → child table:
    /// every beam concept re-scans every evidenced concept's parent row, and
    /// every scored concept becomes a named `TagHit` before the floor and
    /// the cut. Kept verbatim as the reference `score_spans` must reproduce.
    fn score_spans_reference<T: TaxonomyRead>(
        f: &T,
        spans: &[TagSpan],
        options: &TagOptions,
    ) -> Vec<TagHit> {
        // Pass 1: direct evidence mass.
        let mut direct: BTreeMap<ConceptId, f64> = BTreeMap::new();
        let mut evidence: BTreeMap<ConceptId, Vec<u32>> = BTreeMap::new();
        for (si, span) in spans.iter().enumerate() {
            let si = si as u32;
            match &span.kind {
                SpanKind::Entities(senses) => {
                    // A mention's mass splits evenly across its senses — an
                    // ambiguous name is weaker evidence for each reading.
                    let sense_w = 1.0 / senses.len().max(1) as f64;
                    for &e in senses {
                        for (c, m) in f.concepts_of(e) {
                            add(&mut direct, c, sense_w * f64::from(m.confidence));
                            evidence.entry(c).or_default().push(si);
                        }
                    }
                }
                SpanKind::Concept(c) => {
                    add(&mut direct, *c, 1.0);
                    evidence.entry(*c).or_default().push(si);
                }
                SpanKind::NamedEntity => {}
            }
        }

        // Pass 2: coarse upward propagation with depth-discounted weights.
        let mut mass = direct.clone();
        let mut ev = evidence.clone();
        for (&c, &w) in &direct {
            let dc = f.depth(c);
            let from: Vec<u32> = evidence.get(&c).cloned().unwrap_or_default();
            for a in f.ancestors(c) {
                let dd = dc.saturating_sub(f.depth(a)).max(1);
                add(&mut mass, a, w * DECAY.powi(dd as i32));
                ev.entry(a).or_default().extend(from.iter().copied());
            }
        }

        // Pass 3: fine refinement, level by level from the roots down. The
        // top-`beam` concepts of each depth level hand REFINE of their
        // (possibly already refined) mass to each directly-evidenced child,
        // so specificity wins where the evidence supports it.
        let mut score = mass.clone();
        let mut levels: BTreeMap<usize, Vec<ConceptId>> = BTreeMap::new();
        for &c in mass.keys() {
            levels.entry(f.depth(c)).or_default().push(c);
        }
        for ids in levels.values() {
            let mut ranked = ids.clone();
            ranked.sort_by(|&a, &b| {
                score_of(&score, b)
                    .total_cmp(&score_of(&score, a))
                    .then(a.cmp(&b))
            });
            for &p in ranked.iter().take(options.beam.max(1)) {
                let ps = score_of(&score, p);
                if ps <= 0.0 {
                    continue;
                }
                let boosted: Vec<ConceptId> = direct
                    .keys()
                    .copied()
                    .filter(|&c| c != p && f.parents_of(c).any(|(q, _)| q == p))
                    .collect();
                for c in boosted {
                    add(&mut score, c, REFINE * ps);
                }
            }
        }

        // Rank, floor, truncate.
        let mut hits: Vec<TagHit> = score
            .iter()
            .map(|(&c, &s)| {
                let mut spans_of: Vec<u32> = ev.get(&c).cloned().unwrap_or_default();
                spans_of.sort_unstable();
                spans_of.dedup();
                TagHit {
                    id: c,
                    name: f.concept_name(c).to_string(),
                    depth: f.depth(c) as u32,
                    score: s as f32,
                    evidence: spans_of,
                }
            })
            .filter(|h| h.score >= options.min_score)
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        hits.truncate(options.top_k);
        hits
    }

    /// A snapshot whose parent rows list every edge twice and put each
    /// even concept under itself — rows no store or freeze produces, and
    /// exactly what the parent → child table has to collapse.
    struct Repeated(FrozenTaxonomy);

    impl TaxonomyRead for Repeated {
        fn resolve(&self, sym: Symbol) -> &str {
            TaxonomyRead::resolve(&self.0, sym)
        }
        fn entity(&self, id: EntityId) -> EntityRecord {
            TaxonomyRead::entity(&self.0, id)
        }
        fn find_entity(&self, name: &str, disambig: Option<&str>) -> Option<EntityId> {
            TaxonomyRead::find_entity(&self.0, name, disambig)
        }
        fn find_concept(&self, name: &str) -> Option<ConceptId> {
            TaxonomyRead::find_concept(&self.0, name)
        }
        fn concept_name(&self, id: ConceptId) -> &str {
            TaxonomyRead::concept_name(&self.0, id)
        }
        fn num_entities(&self) -> usize {
            TaxonomyRead::num_entities(&self.0)
        }
        fn num_concepts(&self) -> usize {
            TaxonomyRead::num_concepts(&self.0)
        }
        fn num_is_a(&self) -> usize {
            TaxonomyRead::num_is_a(&self.0)
        }
        fn num_mentions(&self) -> usize {
            TaxonomyRead::num_mentions(&self.0)
        }
        fn men2ent(&self, mention: &str) -> Vec<EntityId> {
            TaxonomyRead::men2ent(&self.0, mention)
        }
        fn concepts_of(&self, e: EntityId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
            TaxonomyRead::concepts_of(&self.0, e)
        }
        fn entities_of(&self, c: ConceptId) -> impl Iterator<Item = EntityId> + '_ {
            TaxonomyRead::entities_of(&self.0, c)
        }
        fn parents_of(&self, c: ConceptId) -> impl Iterator<Item = (ConceptId, IsAMeta)> + '_ {
            let own = (c.0 % 2 == 0).then_some((c, IsAMeta::new(Source::SubConcept, 0.5)));
            own.into_iter()
                .chain(TaxonomyRead::parents_of(&self.0, c).flat_map(|edge| [edge, edge]))
        }
        fn children_of(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
            TaxonomyRead::children_of(&self.0, c)
        }
        fn ancestors(&self, c: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
            TaxonomyRead::ancestors(&self.0, c)
        }
        fn ancestor_contains(&self, c: ConceptId, sup: ConceptId) -> bool {
            TaxonomyRead::ancestor_contains(&self.0, c, sup)
        }
        fn depth(&self, c: ConceptId) -> usize {
            TaxonomyRead::depth(&self.0, c)
        }
        fn descendants(&self, start: ConceptId) -> Vec<ConceptId> {
            TaxonomyRead::descendants(&self.0, start)
        }
    }

    /// Hits with their scores as bit patterns, so `-0.0` and `0.0` differ.
    fn bits(hits: &[TagHit]) -> Vec<(ConceptId, &str, u32, u32, &[u32])> {
        hits.iter()
            .map(|h| {
                (
                    h.id,
                    h.name.as_str(),
                    h.depth,
                    h.score.to_bits(),
                    &h.evidence[..],
                )
            })
            .collect()
    }

    /// The characters of [`keyed_resolution_matches_probing_every_window`]'s
    /// names and documents: few, so windows often join into a name.
    const HAN: [char; 8] = ['刘', '德', '华', '歌', '手', '山', '大', '学'];

    fn han(picks: &[usize]) -> String {
        picks.iter().map(|&p| HAN[p % HAN.len()]).collect()
    }

    proptest! {
        /// Asking the snapshot only about windows whose key is in the
        /// index's sets resolves exactly the spans that asking about every
        /// window does — `Repeated` lists no mention keys, so its index has
        /// no mention set. Names, aliases and concept names over an
        /// eight-character alphabet (so a window often is none), half the
        /// entities disambiguated, in documents of names, full keys,
        /// concept names, aliases (never seeded, so the segmenter often
        /// splits one and only a window of its tokens finds it), fragments
        /// and punctuation; through the owned snapshot and its view.
        #[test]
        fn keyed_resolution_matches_probing_every_window(
            names in collection::vec(collection::vec(0usize..8, 1..5), 1..12),
            aliases in collection::vec((0usize..12, collection::vec(0usize..8, 2..4)), 1..6),
            concepts in collection::vec(collection::vec(0usize..8, 1..4), 1..6),
            doc in collection::vec((0usize..6, 0usize..12, collection::vec(0usize..8, 1..3)), 0..16),
        ) {
            let mut s = TaxonomyStore::new();
            let concepts: Vec<String> = concepts.iter().map(|c| han(c)).collect();
            let ids: Vec<ConceptId> = concepts.iter().map(|c| s.add_concept(c)).collect();
            let names: Vec<(String, Option<String>)> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (han(n), (i % 2 == 1).then(|| format!("第{i}"))))
                .collect();
            let entities: Vec<EntityId> = names
                .iter()
                .enumerate()
                .map(|(i, (name, dis))| {
                    let e = s.add_entity(name, dis.as_deref());
                    s.add_entity_is_a(e, ids[i % ids.len()], IsAMeta::new(Source::Tag, 0.9));
                    e
                })
                .collect();
            let aliases: Vec<String> = aliases
                .iter()
                .map(|(e, alias)| {
                    let alias = han(alias);
                    s.add_alias(entities[e % entities.len()], &alias);
                    alias
                })
                .collect();
            let text: String = doc
                .iter()
                .map(|(kind, pick, chars)| match kind {
                    0 => names[pick % names.len()].0.clone(),
                    1 => match &names[pick % names.len()] {
                        (name, Some(dis)) => format!("{name}（{dis}）"),
                        (name, None) => name.clone(),
                    },
                    2 => concepts[pick % concepts.len()].clone(),
                    3 => aliases[pick % aliases.len()].clone(),
                    4 => han(chars),
                    _ => ["，", "。", "（", "）"][pick % 4].to_string(),
                })
                .collect();
            let f = FrozenTaxonomy::freeze(&s);
            let every = Repeated(f.clone());
            let expected = resolve_spans(&every, &TagIndex::build(&every), &text);
            prop_assert_eq!(&resolve_spans(&f, &TagIndex::build(&f), &text), &expected);
            let view = cnp_taxonomy::FrozenTaxonomyView::open(
                cnp_taxonomy::persist::encode_frozen_v3(&f),
            )
            .unwrap();
            prop_assert_eq!(&resolve_spans(&view, &TagIndex::build(&view), &text), &expected);
        }

        /// The parent → child table scores exactly as the re-scan did:
        /// random DAGs with multi-parent concepts (each concept draws up to
        /// three parents among lower ids), parent rows with duplicate edges
        /// and self-edges, multi-sense mentions (up to three senses, a sense
        /// possibly repeated), concept spans, named-entity spans, beam 1–8,
        /// `top_k` 1–11 and three score floors. Confidences are quarters,
        /// so equal scores — where only the id tie-break decides which
        /// concept the beam or the cut keeps — are common.
        #[test]
        fn score_spans_matches_the_rescanning_reference(
            parents in collection::vec(collection::vec(0usize..64, 0..4), 1..12),
            edges in collection::vec(collection::vec((0usize..64, 1u8..=4), 1..4), 1..10),
            mentions in collection::vec((0usize..3, collection::vec(0usize..64, 1..4)), 0..14),
            shape in (1usize..=8, 1usize..12, 0usize..3),
        ) {
            let mut s = TaxonomyStore::new();
            let concepts: Vec<ConceptId> = (0..parents.len())
                .map(|i| s.add_concept(&format!("概念{i}")))
                .collect();
            for (i, row) in parents.iter().enumerate().skip(1) {
                for &p in row {
                    let meta = IsAMeta::new(Source::SubConcept, 0.9);
                    s.add_concept_is_a(concepts[i], concepts[p % i], meta);
                }
            }
            let entities: Vec<EntityId> = edges
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let e = s.add_entity(&format!("实体{i}"), None);
                    for &(c, quarters) in row {
                        let meta = IsAMeta::new(Source::Tag, f32::from(quarters) / 4.0);
                        s.add_entity_is_a(e, concepts[c % concepts.len()], meta);
                    }
                    e
                })
                .collect();
            let spans: Vec<TagSpan> = mentions
                .iter()
                .enumerate()
                .map(|(i, (kind, picks))| TagSpan {
                    start: i as u32,
                    end: i as u32 + 1,
                    text: String::new(),
                    kind: match kind {
                        0 => SpanKind::Entities(
                            picks.iter().map(|&e| entities[e % entities.len()]).collect(),
                        ),
                        1 => SpanKind::Concept(concepts[picks[0] % concepts.len()]),
                        _ => SpanKind::NamedEntity,
                    },
                })
                .collect();
            let (beam, top_k, floor) = shape;
            let options = TagOptions {
                top_k,
                min_score: [0.0, 0.2, 0.6][floor],
                beam,
            };
            let f = Repeated(FrozenTaxonomy::freeze(&s));
            let new = score_spans(&f, &spans, &options);
            let old = score_spans_reference(&f, &spans, &options);
            prop_assert_eq!(bits(&new), bits(&old));
            // The plain snapshot too: the rows the table is built from as
            // every backend serves them.
            let new = score_spans(&f.0, &spans, &options);
            let old = score_spans_reference(&f.0, &spans, &options);
            prop_assert_eq!(bits(&new), bits(&old));
        }
    }
}
