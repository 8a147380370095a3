//! [`ProbaseApi`]: the paper-era three-call interface (Table II), kept as
//! a thin compatibility wrapper over [`TaxonomyService`].
//!
//! The wrapper pins the service's boot generation for its whole lifetime —
//! the original API was frozen-at-boot by design — and answers every call
//! through the same executor the typed protocol uses, so the two surfaces
//! cannot disagree (locked in by the `serve_equivalence` integration
//! test). New code should speak [`crate::Query`] / [`crate::Response`];
//! this type exists so existing callers keep compiling and keep getting
//! identical answers.

use crate::exec;
use crate::query::{ListOptions, PageRequest, Query};
use crate::response::Response;
use crate::service::{PinnedSnapshot, TaxonomyService};
use cnp_taxonomy::{EntityId, FrozenTaxonomy, TaxonomyRead, TaxonomyStore};

/// A resolved entity sense returned by `men2ent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntitySense {
    /// Snapshot handle.
    pub id: EntityId,
    /// Surface name.
    pub name: String,
    /// Bracket disambiguation (may be empty).
    pub disambig: String,
    /// Full display key (`name（disambig）`).
    pub key: String,
}

/// Read-side compatibility facade over a [`TaxonomyService`].
///
/// Generic over the same [`TaxonomyRead`] backends as the service: the
/// default is the owned [`FrozenTaxonomy`] a build freezes in process,
/// while `ProbaseApi::from_service` accepts a service booted from a
/// snapshot file (`TaxonomyService::<FrozenTaxonomyView>::boot_from_file`)
/// unchanged.
#[derive(Debug)]
pub struct ProbaseApi<T = FrozenTaxonomy> {
    service: TaxonomyService<T>,
    /// The boot generation, pinned for the API's lifetime: `frozen()`
    /// hands out plain `&T` borrows, and answers never shift under a
    /// caller even if someone swaps the inner service.
    pinned: PinnedSnapshot<T>,
}

impl<T: TaxonomyRead + Clone> Clone for ProbaseApi<T> {
    fn clone(&self) -> Self {
        Self::from_service(TaxonomyService::new(self.pinned.frozen().clone()))
    }
}

impl ProbaseApi {
    /// Builds the service by freezing a finished store.
    pub fn new(store: TaxonomyStore) -> Self {
        Self::from_service(TaxonomyService::from_store(store))
    }

    /// Wraps an already-frozen snapshot.
    pub fn from_frozen(frozen: FrozenTaxonomy) -> Self {
        Self::from_service(TaxonomyService::new(frozen))
    }
}

impl<T: TaxonomyRead> ProbaseApi<T> {
    /// Wraps an existing service, pinning its current generation.
    pub fn from_service(service: TaxonomyService<T>) -> Self {
        let pinned = service.pin();
        ProbaseApi { service, pinned }
    }

    /// Read-only access to the pinned snapshot.
    pub fn frozen(&self) -> &T {
        self.pinned.frozen()
    }

    /// The underlying typed service (still serving the same snapshot).
    pub fn service(&self) -> &TaxonomyService<T> {
        &self.service
    }

    /// Unwraps into the typed service.
    pub fn into_service(self) -> TaxonomyService<T> {
        self.service
    }

    /// `men2ent`: mention → entity senses.
    pub fn men2ent(&self, mention: &str) -> Vec<EntitySense> {
        let response = self.pinned.execute(&Query::Men2Ent {
            mention: mention.to_string(),
        });
        match response.result {
            Ok(Response::Senses(senses)) => senses
                .into_iter()
                .map(|s| EntitySense {
                    id: s.id,
                    name: s.name,
                    disambig: s.disambig.unwrap_or_default(),
                    key: s.key,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// `getConcept`: entity → hypernym (concept) names.
    ///
    /// With `transitive`, appends the transitive hypernyms (from the
    /// snapshot's precomputed ancestor closure) after the direct ones,
    /// nearest-first: deeper ancestors sit closer to the entity's direct
    /// concepts, so consumers that truncate the list keep the most
    /// specific hypernyms. Ties break by concept id for determinism.
    pub fn get_concept(&self, entity: EntityId, transitive: bool) -> Vec<String> {
        let options = ListOptions {
            transitive,
            ..Default::default()
        };
        exec::concept_hits(self.frozen(), entity, &options)
            .into_iter()
            .map(|h| h.name)
            .collect()
    }

    /// `getConcept` by mention: resolves the mention first, merging the
    /// hypernyms of every sense (deduplicated, order-preserving).
    pub fn get_concept_by_mention(&self, mention: &str, transitive: bool) -> Vec<String> {
        let response = self.pinned.execute(&Query::GetConceptByMention {
            mention: mention.to_string(),
            options: ListOptions {
                transitive,
                ..Default::default()
            },
        });
        match response.result {
            Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
            _ => Vec::new(),
        }
    }

    /// `getEntity`: concept → hyponym entity keys, up to `limit`
    /// (`usize::MAX` for all), ranked by descending edge confidence with
    /// entity id as tie-break. Includes entities of transitive subconcepts
    /// when `transitive` is set; an entity reachable through several
    /// subconcepts is reported once, at its first (best-ranked) position.
    pub fn get_entity(&self, concept: &str, transitive: bool, limit: usize) -> Vec<String> {
        let response = self.pinned.execute(&Query::GetEntity {
            concept: concept.to_string(),
            options: ListOptions {
                transitive,
                min_confidence: 0.0,
                page: PageRequest::first(limit),
            },
        });
        match response.result {
            Ok(Response::Entities(page)) => page.items.into_iter().map(|h| h.key).collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_taxonomy::{IsAMeta, Source};

    fn demo_api() -> ProbaseApi {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", Some("中国香港男演员"));
        let zhang = s.add_entity("张学友", None);
        s.add_alias(liu, "Andy Lau");
        let male_actor = s.add_concept("男演员");
        let actor = s.add_concept("演员");
        let singer = s.add_concept("歌手");
        let person = s.add_concept("人物");
        s.add_concept_is_a(male_actor, actor, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_entity_is_a(liu, male_actor, IsAMeta::new(Source::Bracket, 0.95));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
        ProbaseApi::new(s)
    }

    #[test]
    fn men2ent_resolves_alias_and_name() {
        let api = demo_api();
        let senses = api.men2ent("Andy Lau");
        assert_eq!(senses.len(), 1);
        assert_eq!(senses[0].name, "刘德华");
        assert_eq!(senses[0].key, "刘德华（中国香港男演员）");
        assert_eq!(api.men2ent("张学友").len(), 1);
        assert!(api.men2ent("无此人").is_empty());
    }

    #[test]
    fn get_concept_direct() {
        let api = demo_api();
        let liu = api.men2ent("刘德华")[0].id;
        let concepts = api.get_concept(liu, false);
        assert_eq!(concepts, vec!["男演员", "歌手"]);
    }

    #[test]
    fn get_concept_transitive_appends_ancestors() {
        let api = demo_api();
        let liu = api.men2ent("刘德华")[0].id;
        let concepts = api.get_concept(liu, true);
        assert_eq!(concepts[..2], ["男演员".to_string(), "歌手".to_string()]);
        assert!(concepts.contains(&"演员".to_string()));
        assert!(concepts.contains(&"人物".to_string()));
        assert_eq!(concepts.len(), 4);
    }

    #[test]
    fn get_concept_by_mention_merges_senses() {
        let api = demo_api();
        let concepts = api.get_concept_by_mention("刘德华", false);
        assert_eq!(concepts, vec!["男演员", "歌手"]);
    }

    /// Regression (ISSUE 5 satellite): when several senses of one mention
    /// share a hypernym, the merged list must report it once, at its first
    /// rank — not once per sense.
    #[test]
    fn get_concept_by_mention_dedupes_shared_hypernyms() {
        let mut s = TaxonomyStore::new();
        let liu_actor = s.add_entity("刘德华", Some("中国香港男演员"));
        let liu_bare = s.add_entity("刘德华", None);
        let singer = s.add_concept("歌手");
        let actor = s.add_concept("演员");
        let person = s.add_concept("人物");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_concept_is_a(actor, person, IsAMeta::new(Source::SubConcept, 0.9));
        // Both senses share 歌手 (and transitively 人物).
        s.add_entity_is_a(liu_actor, singer, IsAMeta::new(Source::Tag, 0.9));
        s.add_entity_is_a(liu_actor, actor, IsAMeta::new(Source::Bracket, 0.95));
        s.add_entity_is_a(liu_bare, singer, IsAMeta::new(Source::Tag, 0.5));
        let api = ProbaseApi::new(s);
        assert_eq!(api.men2ent("刘德华").len(), 2);
        let direct = api.get_concept_by_mention("刘德华", false);
        assert_eq!(direct, vec!["歌手", "演员"], "each shared hypernym once");
        let transitive = api.get_concept_by_mention("刘德华", true);
        assert_eq!(transitive, vec!["歌手", "演员", "人物"]);
    }

    #[test]
    fn get_entity_direct_and_transitive() {
        let api = demo_api();
        let direct = api.get_entity("人物", false, usize::MAX);
        assert!(direct.is_empty(), "no entity links directly to 人物");
        let transitive = api.get_entity("人物", true, usize::MAX);
        // 刘德华 is reachable via 歌手 and via 男演员 but reported once.
        assert_eq!(transitive.len(), 2);
        assert!(transitive.contains(&"张学友".to_string()));
        assert!(transitive.contains(&"刘德华（中国香港男演员）".to_string()));
    }

    #[test]
    fn get_entity_respects_limit() {
        let api = demo_api();
        let limited = api.get_entity("歌手", false, 1);
        assert_eq!(limited.len(), 1);
    }

    #[test]
    fn get_entity_unknown_concept() {
        let api = demo_api();
        assert!(api.get_entity("不存在", true, 10).is_empty());
    }

    #[test]
    fn wrapper_stays_on_its_boot_generation() {
        let api = demo_api();
        let before = api.get_entity("歌手", false, usize::MAX);
        // Swapping the inner service does not move the compat surface.
        api.service()
            .swap(FrozenTaxonomy::freeze(&TaxonomyStore::new()));
        assert_eq!(api.get_entity("歌手", false, usize::MAX), before);
        // But the service itself serves the new generation.
        assert_eq!(api.service().generation(), 2);
    }

    #[test]
    fn api_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProbaseApi>();
    }
}
