//! Candidate isA relations — the interchange type between the generation
//! and verification modules (paper Fig. 2, “Candidate isA relations”).

use cnp_taxonomy::Source;

/// One candidate isA relation produced by a generation algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index of the producing page in the corpus page list.
    pub page: usize,
    /// Disambiguated entity key (`name（bracket）` or `name`).
    pub entity_key: String,
    /// Entity surface name.
    pub entity_name: String,
    /// Bracket disambiguation (empty when absent).
    pub bracket: String,
    /// Proposed hypernym.
    pub hypernym: String,
    /// Primary source (the highest-confidence proposer after merging).
    pub source: Source,
    /// Bitmask of *every* source that proposed this edge (see
    /// [`Candidate::proposed_by`]). Several sources often extract the same
    /// pair — 刘德华 isA 演员 comes from bracket, infobox and tag alike.
    pub sources_mask: u8,
    /// Extraction confidence in `[0, 1]`.
    pub confidence: f32,
}

impl Candidate {
    /// Builds a candidate from page coordinates.
    pub fn new(
        page: usize,
        entity_key: impl Into<String>,
        entity_name: impl Into<String>,
        bracket: impl Into<String>,
        hypernym: impl Into<String>,
        source: Source,
        confidence: f32,
    ) -> Self {
        Candidate {
            page,
            entity_key: entity_key.into(),
            entity_name: entity_name.into(),
            bracket: bracket.into(),
            hypernym: hypernym.into(),
            source,
            sources_mask: 1 << source.to_u8(),
            confidence,
        }
    }

    /// Did `source` (also) propose this edge?
    pub fn proposed_by(&self, source: Source) -> bool {
        self.sources_mask & (1 << source.to_u8()) != 0
    }
}

/// A deduplicated set of candidates.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// The candidates, deduplicated on `(entity_key, hypernym)`.
    pub items: Vec<Candidate>,
}

impl CandidateSet {
    /// Merges raw candidate streams, deduplicating on
    /// `(entity_key, hypernym)` and keeping the highest-confidence edge
    /// (ties keep the earlier source).
    pub fn merge<I: IntoIterator<Item = Candidate>>(streams: I) -> Self {
        let mut index: std::collections::HashMap<(String, String), usize> =
            std::collections::HashMap::new();
        let mut items: Vec<Candidate> = Vec::new();
        for c in streams {
            let key = (c.entity_key.clone(), c.hypernym.clone());
            match index.get(&key) {
                Some(&i) => {
                    let merged_mask = items[i].sources_mask | c.sources_mask;
                    if c.confidence > items[i].confidence {
                        items[i] = c;
                    }
                    items[i].sources_mask = merged_mask;
                }
                None => {
                    index.insert(key, items.len());
                    items.push(c);
                }
            }
        }
        CandidateSet { items }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Candidates per source, as `(source, count)` in a stable order.
    pub fn counts_by_source(&self) -> Vec<(Source, usize)> {
        let order = [
            Source::Bracket,
            Source::Abstract,
            Source::Infobox,
            Source::Tag,
        ];
        order
            .iter()
            .map(|&s| (s, self.items.iter().filter(|c| c.source == s).count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(key: &str, hyper: &str, source: Source, conf: f32) -> Candidate {
        Candidate::new(0, key, key, "", hyper, source, conf)
    }

    #[test]
    fn merge_dedups_and_keeps_highest_confidence() {
        let set = CandidateSet::merge(vec![
            cand("刘德华", "演员", Source::Tag, 0.9),
            cand("刘德华", "演员", Source::Bracket, 0.96),
            cand("刘德华", "歌手", Source::Tag, 0.9),
            cand("刘德华", "演员", Source::Infobox, 0.5),
        ]);
        // Output order is first-occurrence order, whichever duplicate wins.
        let hypernyms: Vec<&str> = set.items.iter().map(|c| c.hypernym.as_str()).collect();
        assert_eq!(hypernyms, ["演员", "歌手"]);
        let actor = &set.items[0];
        assert_eq!(actor.source, Source::Bracket);
        assert_eq!(actor.confidence, 0.96);
        // The mask is the union over every duplicate, losers included.
        for source in [Source::Tag, Source::Bracket, Source::Infobox] {
            assert!(actor.proposed_by(source), "{source:?}");
        }
        assert!(!actor.proposed_by(Source::Abstract));
        assert_eq!(set.items[1].sources_mask, 1 << Source::Tag.to_u8());
    }

    #[test]
    fn merge_keeps_earlier_on_confidence_tie() {
        let set = CandidateSet::merge(vec![
            cand("甲", "乙", Source::Tag, 0.9),
            cand("甲", "乙", Source::Infobox, 0.9),
        ]);
        assert_eq!(set.items[0].source, Source::Tag);
    }

    #[test]
    fn counts_by_source() {
        let set = CandidateSet::merge(vec![
            cand("a", "b", Source::Tag, 0.9),
            cand("a", "c", Source::Bracket, 0.9),
            cand("b", "c", Source::Bracket, 0.9),
        ]);
        let counts = set.counts_by_source();
        assert!(counts.contains(&(Source::Bracket, 2)));
        assert!(counts.contains(&(Source::Tag, 1)));
        assert!(counts.contains(&(Source::Abstract, 0)));
    }
}
