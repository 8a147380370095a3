//! [`TaxonomyService`]: generation-managed query execution with
//! zero-downtime snapshot hot-swap.

use crate::exec::{self, EntityTotals};
use crate::query::Query;
use crate::response::QueryResponse;
use cnp_runtime::Runtime;
use cnp_tag::TagIndex;
use cnp_taxonomy::persist::PersistError;
use cnp_taxonomy::{
    BootSnapshot, DeltaOverlay, FrozenTaxonomy, IngestDelta, TaxonomyRead, TaxonomyStore,
};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One immutable serving state: a snapshot backend plus its generation
/// number, and two pieces of derived state that live and die with it.
/// The tagging index (the vocabulary-seeded segmenter) is built by the
/// first `Tag`/`Classify` query on the generation and shared by every
/// later one. The `getEntity` totals memo fills one concept at a time, as
/// transitive requests at the default floor first ask for each concept.
/// Ingest, compaction publish and reload install a new `Generation`, so
/// both start cold there and nothing is ever invalidated.
#[derive(Debug)]
struct Generation<T> {
    number: u64,
    snapshot: T,
    tag: OnceLock<TagIndex>,
    entity_totals: EntityTotals,
}

impl<T> Generation<T> {
    fn new(number: u64, snapshot: T) -> Self {
        Generation {
            number,
            snapshot,
            tag: OnceLock::new(),
            entity_totals: EntityTotals::default(),
        }
    }
}

/// A pinned snapshot generation: queries executed through it all see the
/// same immutable state, no matter how many hot-swaps happen meanwhile.
///
/// Cloning is an `Arc` bump; the underlying snapshot stays alive until the
/// last pin drops, which is exactly the hot-swap draining rule — in-flight
/// work finishes on the generation it pinned.
///
/// The backend `T` is any [`TaxonomyRead`] — the owned [`FrozenTaxonomy`]
/// a build freezes in process (the default), the borrowed
/// `FrozenTaxonomyView` over a snapshot file's bytes, or an `OverlayView`
/// over either.
#[derive(Debug, Clone)]
pub struct PinnedSnapshot<T = FrozenTaxonomy> {
    inner: Arc<Generation<T>>,
}

impl<T: TaxonomyRead> PinnedSnapshot<T> {
    /// The pinned generation number.
    pub fn generation(&self) -> u64 {
        self.inner.number
    }

    /// The pinned snapshot backend.
    pub fn frozen(&self) -> &T {
        &self.inner.snapshot
    }

    /// Executes one query on the pinned generation — lock-free: the
    /// snapshot is immutable and the executor takes `&self` only. Two
    /// per-generation memos are filled on demand. The first tagging query
    /// builds the `OnceLock`-guarded index. The first transitive
    /// `getEntity` at the default floor on a concept stores that concept's
    /// total in an atomic slot; racing first askers each count the same
    /// number, so the race is benign and no answer depends on who won.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        exec::execute(
            &self.inner.snapshot,
            self.inner.number,
            query,
            &self.inner.entity_totals,
            || self.tag_index(),
        )
    }

    /// The generation's tagging index, building it on first use.
    pub fn tag_index(&self) -> &TagIndex {
        self.inner
            .tag
            .get_or_init(|| TagIndex::build(&self.inner.snapshot))
    }
}

/// The serving engine of API v1.
///
/// The service holds its snapshot backend behind an atomically swappable
/// `Arc` with a generation counter. Query execution never takes a lock on
/// the data: [`TaxonomyService::execute`] pins the current generation (one
/// brief, uncontended reader-side acquisition to clone the `Arc`) and then
/// runs entirely on the pinned immutable snapshot.
/// [`TaxonomyService::swap`] installs a new generation as a single pointer
/// store — readers never wait on snapshot decode or freeze, in-flight
/// queries drain on the generation they pinned, and every
/// [`QueryResponse`] carries the generation it answered from. Queries,
/// single or batched, run on the thread that called; nothing is spawned.
///
/// The backend is generic over [`TaxonomyRead`]: the same service type
/// serves in process from the owned [`FrozenTaxonomy`] (the default —
/// the examples and tests freeze and serve without touching a disk), from
/// the zero-copy `FrozenTaxonomyView` over a snapshot file
/// ([`TaxonomyService::boot_from_file`]), or from an `OverlayView` over
/// either when the service takes writes — `cnp_server` serves
/// `OverlayView<FrozenTaxonomyView>`.
///
/// ```
/// use cnp_serve::{Query, Response, TaxonomyService};
/// use cnp_taxonomy::{FrozenTaxonomy, IsAMeta, Source, TaxonomyStore};
///
/// let mut store = TaxonomyStore::new();
/// let zhang = store.add_entity("张学友", None);
/// let singer = store.add_concept("歌手");
/// store.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.9));
///
/// let service = TaxonomyService::from_store(store.clone());
/// assert_eq!(service.generation(), 1);
///
/// // A batch pins one generation and answers in input order.
/// let queries = vec![Query::men2ent("张学友"), Query::men2ent("无此人")];
/// let responses = service.execute_batch(&queries);
/// assert!(matches!(responses[0].result, Ok(Response::Senses(_))));
/// assert!(responses[1].result.is_err()); // unknown ≠ empty
///
/// // Hot-swap: a new snapshot slides in under live traffic.
/// store.add_entity("刘德华", None);
/// assert_eq!(service.swap(FrozenTaxonomy::freeze(&store)), 2);
/// assert_eq!(service.execute(&Query::men2ent("刘德华")).generation, 2);
/// ```
#[derive(Debug)]
pub struct TaxonomyService<T = FrozenTaxonomy> {
    current: RwLock<Arc<Generation<T>>>,
    runtime: Runtime,
    admin: Mutex<()>,
}

impl<T: TaxonomyRead> TaxonomyService<T> {
    /// Boots generation 1 from a snapshot backend, compacting on a default
    /// [`Runtime`].
    pub fn new(snapshot: T) -> Self {
        Self::with_runtime(snapshot, Runtime::default())
    }

    /// Boots generation 1 with an explicit runtime for
    /// [`TaxonomyService::compact`]'s re-freeze, the one thing run on it.
    pub fn with_runtime(snapshot: T, runtime: Runtime) -> Self {
        TaxonomyService {
            #[expect(
                clippy::disallowed_methods,
                reason = "the hot-swap generation pointer: read-locked for one Arc clone per query, write-locked only by swap(); no compute happens under it"
            )]
            current: RwLock::new(Arc::new(Generation::new(1, snapshot))),
            runtime,
            #[expect(
                clippy::disallowed_methods,
                reason = "admin-plane serialisation only: ingest holds it across pin→fold→swap so concurrent ingests cannot fold from the same parent generation and lose a delta, and reload takes it around its swap so it cannot land inside that window; never touched on the query path"
            )]
            admin: Mutex::new(()),
        }
    }

    /// The compaction runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Pins the current generation for any number of follow-up queries
    /// that must see one consistent state.
    pub fn pin(&self) -> PinnedSnapshot<T> {
        PinnedSnapshot {
            inner: self.current.read().clone(),
        }
    }

    /// The currently serving generation number.
    pub fn generation(&self) -> u64 {
        self.current.read().number
    }

    /// Executes one query on the current generation.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        self.pin().execute(query)
    }

    /// Executes a batch on the caller's thread: the whole batch pins
    /// **one** generation (all responses carry the same number) and the
    /// queries run one after another, results in input order. A batch
    /// saves per-request work (one round trip, one parse, one pin), not
    /// query time; concurrency is requests running side by side.
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<QueryResponse> {
        let pinned = self.pin();
        queries.iter().map(|q| pinned.execute(q)).collect()
    }

    /// Atomically installs `snapshot` as the next generation and returns
    /// its number. Queries already in flight finish on the generation they
    /// pinned; queries pinned after this call see the new one. The old
    /// snapshot is freed when its last pin drops.
    pub fn swap(&self, snapshot: T) -> u64 {
        let current = self.current.write();
        let number = current.number + 1;
        Self::install(current, number, snapshot);
        number
    }

    /// Installs `snapshot` only if the serving generation is still
    /// `expected`; returns the new number, or `None` (discarding
    /// `snapshot`) when another writer got there first. This is the
    /// compare-and-swap background compaction publishes through: a fold
    /// computed from generation N must not clobber deltas ingested into
    /// N+1 while it ran.
    pub fn swap_if_current(&self, expected: u64, snapshot: T) -> Option<u64> {
        let current = self.current.write();
        if current.number != expected {
            return None;
        }
        let number = expected + 1;
        Self::install(current, number, snapshot);
        Some(number)
    }

    /// Puts generation `number` over `snapshot` behind the write guard
    /// `current`, then releases the guard. If this was the last reference,
    /// the old snapshot (a structure sized for the whole taxonomy)
    /// deallocates *after* the guard is released — readers never wait on
    /// the teardown.
    fn install(mut current: RwLockWriteGuard<'_, Arc<Generation<T>>>, number: u64, snapshot: T) {
        let old = std::mem::replace(&mut *current, Arc::new(Generation::new(number, snapshot)));
        drop(current);
        drop(old);
    }
}

impl<T: TaxonomyRead + IngestDelta> TaxonomyService<T> {
    /// Applies one delta to the current snapshot and swaps the result in
    /// as the next generation, returning its number. Readers never wait:
    /// the fold happens off-lock on the caller's thread, and in-flight
    /// queries drain on the generation they pinned.
    ///
    /// Concurrent ingests are serialised on an admin mutex (never touched
    /// by the query path) so each fold starts from the previous ingest's
    /// result — without it, two ingests could fold from the same parent
    /// and the second swap would silently drop the first delta. A
    /// concurrent *compaction* publishing between our pin and our swap is
    /// tolerated: the overlay we fold carries the full op log over the
    /// older base, which is logically identical to the compacted
    /// generation it replaces.
    pub fn ingest(&self, delta: &DeltaOverlay) -> Result<u64, PersistError> {
        let _admin = self.admin.lock();
        let next = self.pin().frozen().ingest_delta(delta)?;
        Ok(self.swap(next))
    }

    /// Overlay segments accumulated on the serving snapshot (0 for a
    /// fully compacted base).
    pub fn overlay_depth(&self) -> usize {
        self.pin().frozen().overlay_depth()
    }

    /// Folds the current base + overlays into a fresh base and publishes
    /// it **iff** the serving generation hasn't moved meanwhile (see
    /// [`TaxonomyService::swap_if_current`]). Returns the new generation,
    /// or `None` when there was nothing to compact or the fold lost the
    /// race — both safe to retry later. Designed to run on a background
    /// worker: queries and ingests proceed untouched for the whole fold.
    pub fn compact(&self) -> Result<Option<u64>, PersistError> {
        let pinned = self.pin();
        if pinned.frozen().overlay_depth() == 0 {
            return Ok(None);
        }
        let folded = pinned.frozen().compacted(&self.runtime)?;
        Ok(self.swap_if_current(pinned.generation(), folded))
    }
}

impl<T: TaxonomyRead + BootSnapshot> TaxonomyService<T> {
    /// Boots generation 1 from a snapshot file, as `T` boots it:
    /// `FrozenTaxonomyView` opens the file's bytes in place, an
    /// `OverlayView` wraps that with an empty overlay.
    pub fn boot_from_file(path: &Path) -> Result<Self, PersistError> {
        Ok(Self::new(T::boot_from_file(path)?))
    }

    /// Zero-downtime reload: reads and validates the snapshot file
    /// *without holding any lock* — traffic keeps flowing on the old
    /// generation for the whole load — then swaps it in. Returns the new
    /// generation number; on error the service keeps serving unchanged.
    ///
    /// The swap itself waits for an ingest that is between its pin and
    /// its swap: that ingest folds over the generation it pinned, so a
    /// reload landing inside the window would be acknowledged and then
    /// overwritten by `old base + delta`. Serialised on the admin mutex,
    /// the file is the new truth for every generation after this one.
    pub fn reload(&self, path: &Path) -> Result<u64, PersistError> {
        let snapshot = T::boot_from_file(path)?;
        let _admin = self.admin.lock();
        Ok(self.swap(snapshot))
    }
}

impl TaxonomyService {
    /// Boots by freezing a finished build store.
    pub fn from_store(store: TaxonomyStore) -> Self {
        Self::new(FrozenTaxonomy::freeze(&store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ListOptions, PageRequest};
    use crate::response::{QueryError, Response};
    use cnp_taxonomy::{FrozenTaxonomyView, IsAMeta, OverlayView, Source};

    fn store_a() -> TaxonomyStore {
        let mut s = TaxonomyStore::new();
        let liu = s.add_entity("刘德华", None);
        let singer = s.add_concept("歌手");
        let person = s.add_concept("人物");
        s.add_concept_is_a(singer, person, IsAMeta::new(Source::SubConcept, 0.9));
        s.add_entity_is_a(liu, singer, IsAMeta::new(Source::Tag, 0.9));
        s
    }

    fn store_b() -> TaxonomyStore {
        let mut s = store_a();
        let zhang = s.add_entity("张学友", None);
        let singer = s.find_concept("歌手").unwrap();
        s.add_entity_is_a(zhang, singer, IsAMeta::new(Source::Tag, 0.95));
        s
    }

    fn view_of(store: &TaxonomyStore) -> FrozenTaxonomyView {
        let bytes = cnp_taxonomy::persist::encode_frozen_v3(&FrozenTaxonomy::freeze(store));
        FrozenTaxonomyView::open(bytes).unwrap()
    }

    /// `store`'s snapshot file, under a name no other test uses.
    fn snapshot_file(store: &TaxonomyStore, name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cnp_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        cnp_taxonomy::persist::save_frozen_v3_to_file(&FrozenTaxonomy::freeze(store), &path)
            .unwrap();
        path
    }

    #[test]
    fn generations_count_up_from_one() {
        let service = TaxonomyService::from_store(store_a());
        assert_eq!(service.generation(), 1);
        assert_eq!(service.swap(FrozenTaxonomy::freeze(&store_b())), 2);
        assert_eq!(service.swap(FrozenTaxonomy::freeze(&store_a())), 3);
        assert_eq!(service.generation(), 3);
    }

    #[test]
    fn pinned_generation_survives_swaps() {
        let service = TaxonomyService::from_store(store_a());
        let pinned = service.pin();
        service.swap(FrozenTaxonomy::freeze(&store_b()));
        // The pin still answers from generation 1, where 张学友 is unknown.
        let r = pinned.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 1);
        assert!(matches!(r.result, Err(QueryError::UnknownMention(_))));
        // A fresh pin sees generation 2, where the mention resolves.
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(matches!(r.result, Ok(Response::Senses(ref s)) if s.len() == 1));
    }

    #[test]
    fn batch_pins_exactly_one_generation() {
        let service = TaxonomyService::from_store(store_b());
        let queries: Vec<Query> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    Query::men2ent("刘德华")
                } else {
                    Query::GetEntity {
                        concept: "人物".to_string(),
                        options: ListOptions::transitive(),
                    }
                }
            })
            .collect();
        let responses = service.execute_batch(&queries);
        assert_eq!(responses.len(), queries.len());
        assert!(responses.iter().all(|r| r.generation == 1));
        assert!(responses.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn batch_equals_singles_in_order_at_the_cap() {
        // 1 024 is `/v1/batch`'s cap; whatever runtime the service holds, a
        // batch is its queries run in order on one pinned generation.
        let service =
            TaxonomyService::with_runtime(FrozenTaxonomy::freeze(&store_b()), Runtime::new(16));
        let queries: Vec<Query> = (0..1024)
            .map(|i| match i % 4 {
                0 => Query::men2ent("刘德华"),
                1 => Query::men2ent(format!("无此人{i}")),
                2 => Query::GetEntity {
                    concept: "人物".to_string(),
                    options: ListOptions::transitive().with_page(PageRequest::first(1)),
                },
                _ => Query::AncestorsOf {
                    concept: format!("无此概念{i}"),
                },
            })
            .collect();
        let responses = service.execute_batch(&queries);
        let singles: Vec<QueryResponse> = queries.iter().map(|q| service.execute(q)).collect();
        assert_eq!(responses, singles);
        assert!(responses.iter().all(|r| r.generation == 1));
    }

    #[test]
    fn service_answers_identically_from_view_and_any_backends() {
        let store = store_b();
        let owned = TaxonomyService::from_store(store.clone());
        let view = TaxonomyService::new(view_of(&store));
        let serving = TaxonomyService::new(OverlayView::new(view_of(&store)));
        let queries = [
            Query::men2ent("张学友"),
            Query::men2ent("无此人"),
            Query::GetEntity {
                concept: "人物".to_string(),
                options: ListOptions::transitive(),
            },
        ];
        for q in &queries {
            let a = owned.execute(q);
            let b = view.execute(q);
            let c = serving.execute(q);
            assert_eq!(a.result, b.result, "query {q:?}");
            assert_eq!(a.result, c.result, "query {q:?}");
        }
    }

    #[test]
    fn view_backed_service_hot_swaps_and_reloads() {
        let path = snapshot_file(&store_b(), "view_reload.cnpb");
        let service: TaxonomyService<FrozenTaxonomyView> =
            TaxonomyService::new(view_of(&store_a()));
        assert!(service.execute(&Query::men2ent("张学友")).result.is_err());
        assert_eq!(service.reload(&path).unwrap(), 2);
        std::fs::remove_file(&path).ok();
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(r.result.is_ok());
    }

    #[test]
    fn reload_errors_keep_serving_unchanged() {
        let service = TaxonomyService::new(view_of(&store_a()));
        let err = service.reload(Path::new("/nonexistent/snapshot.cnpb"));
        assert!(err.is_err());
        assert_eq!(service.generation(), 1);
        assert!(service.execute(&Query::men2ent("刘德华")).result.is_ok());
    }

    /// The file is the new truth: a reload of the serving type drops the
    /// overlays ingested since boot along with the old base.
    #[test]
    fn reload_swaps_from_disk() {
        let path = snapshot_file(&store_a(), "overlay_reload.cnpb");
        let service = TaxonomyService::new(OverlayView::new(view_of(&store_a())));
        service.ingest(&sample_delta()).unwrap();
        assert!(service.execute(&Query::men2ent("张学友")).result.is_ok());
        assert_eq!(service.reload(&path).unwrap(), 3);
        std::fs::remove_file(&path).ok();
        assert_eq!(service.overlay_depth(), 0);
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 3);
        assert!(r.result.is_err());
    }

    /// Regression: `reload` used to swap without the admin lock, so one
    /// that landed between an ingest's pin and its swap was acknowledged
    /// as generation N+1 and then overwritten by `old base + delta` at
    /// N+2. The test stands in for that ingest by holding the lock.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a raw scoped thread stands in for the HTTP worker that would run the reload"
    )]
    fn reload_waits_for_an_ingest_in_its_pin_to_swap_window() {
        let path = snapshot_file(&store_b(), "reload_vs_ingest.cnpb");
        let service = TaxonomyService::new(OverlayView::new(view_of(&store_a())));
        let (service, path) = (&service, &path);
        std::thread::scope(|scope| {
            let admin = service.admin.lock();
            let (done, reloaded) = std::sync::mpsc::channel();
            scope.spawn(move || done.send(service.reload(path)));
            // A correct reload cannot finish while the lock is held, so
            // this wait always runs out; an unserialised one is done in
            // a fraction of it.
            let early = reloaded.recv_timeout(std::time::Duration::from_millis(200));
            assert!(early.is_err(), "reload swapped inside the window");
            assert_eq!(service.generation(), 1);
            drop(admin);
            assert_eq!(reloaded.recv().unwrap().unwrap(), 2);
        });
        std::fs::remove_file(path).ok();
        assert!(service.execute(&Query::men2ent("张学友")).result.is_ok());
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaxonomyService>();
        assert_send_sync::<PinnedSnapshot>();
        assert_send_sync::<TaxonomyService<FrozenTaxonomyView>>();
        assert_send_sync::<TaxonomyService<OverlayView<FrozenTaxonomyView>>>();
    }

    fn sample_delta() -> DeltaOverlay {
        let mut d = DeltaOverlay::new();
        d.upsert_entity_is_a("张学友", None, "歌手", IsAMeta::new(Source::Tag, 0.95));
        d
    }

    #[test]
    fn ingest_bumps_generation_and_serves_the_delta() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        assert!(service.execute(&Query::men2ent("张学友")).result.is_err());
        assert_eq!(service.ingest(&sample_delta()).unwrap(), 2);
        assert_eq!(service.overlay_depth(), 1);
        let r = service.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 2);
        assert!(matches!(r.result, Ok(Response::Senses(ref s)) if s.len() == 1));
    }

    #[test]
    fn ingest_pins_drain_on_their_generation() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        let pinned = service.pin();
        service.ingest(&sample_delta()).unwrap();
        // The pre-ingest pin still answers from generation 1.
        let r = pinned.execute(&Query::men2ent("张学友"));
        assert_eq!(r.generation, 1);
        assert!(r.result.is_err());
    }

    #[test]
    fn compaction_folds_overlays_and_keeps_answers() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        service.ingest(&sample_delta()).unwrap();
        let before = service.execute(&Query::men2ent("张学友"));
        assert_eq!(service.compact().unwrap(), Some(3));
        assert_eq!(service.overlay_depth(), 0);
        let after = service.execute(&Query::men2ent("张学友"));
        assert_eq!(after.generation, 3);
        assert_eq!(before.result, after.result);
        // Nothing left to fold: compaction is now a no-op.
        assert_eq!(service.compact().unwrap(), None);
    }

    #[test]
    fn stale_compaction_result_is_discarded() {
        let service = TaxonomyService::new(OverlayView::new(FrozenTaxonomy::freeze(&store_a())));
        service.ingest(&sample_delta()).unwrap();
        let stale = OverlayView::new(FrozenTaxonomy::freeze(&store_a()));
        // A fold published against a generation that has since moved on
        // must be dropped, not installed.
        assert_eq!(service.swap_if_current(1, stale), None);
        assert_eq!(service.generation(), 2);
        assert!(service.execute(&Query::men2ent("张学友")).result.is_ok());
    }

    /// The Table II toy: 刘德华 (alias Andy Lau) is a male actor and a
    /// singer, 张学友 a singer; 男演员 → 演员 → 人物 and 歌手 → 人物.
    fn demo_service() -> TaxonomyService {
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
        TaxonomyService::from_store(s)
    }

    /// The names a list answer carries: sense keys, concept names or
    /// entity keys.
    fn names(response: QueryResponse) -> Vec<String> {
        match response.result {
            Ok(Response::Senses(senses)) => senses.into_iter().map(|s| s.key).collect(),
            Ok(Response::Concepts(page)) => page.items.into_iter().map(|h| h.name).collect(),
            Ok(Response::Entities(page)) => page.items.into_iter().map(|h| h.key).collect(),
            other => panic!("not a list answer: {other:?}"),
        }
    }

    fn get_concept(entity: &str, options: ListOptions) -> Query {
        Query::GetConcept {
            entity: entity.to_string(),
            options,
        }
    }

    fn get_concept_by_mention(mention: &str, options: ListOptions) -> Query {
        Query::GetConceptByMention {
            mention: mention.to_string(),
            options,
        }
    }

    fn get_entity(concept: &str, options: ListOptions) -> Query {
        Query::GetEntity {
            concept: concept.to_string(),
            options,
        }
    }

    #[test]
    fn men2ent_resolves_alias_and_name() {
        let service = demo_service();
        let Ok(Response::Senses(senses)) = service.execute(&Query::men2ent("Andy Lau")).result
        else {
            panic!("the alias resolves");
        };
        assert_eq!(senses.len(), 1);
        assert_eq!(senses[0].name, "刘德华");
        assert_eq!(senses[0].key, "刘德华（中国香港男演员）");
        assert_eq!(
            names(service.execute(&Query::men2ent("张学友"))),
            ["张学友"]
        );
        assert_eq!(
            service.execute(&Query::men2ent("无此人")).result,
            Err(QueryError::UnknownMention("无此人".to_string()))
        );
    }

    #[test]
    fn get_concept_direct() {
        let service = demo_service();
        let liu = names(service.execute(&Query::men2ent("刘德华"))).remove(0);
        let concepts = names(service.execute(&get_concept(&liu, ListOptions::default())));
        assert_eq!(concepts, ["男演员", "歌手"]);
    }

    #[test]
    fn get_concept_transitive_appends_ancestors() {
        let service = demo_service();
        let liu = names(service.execute(&Query::men2ent("刘德华"))).remove(0);
        let concepts = names(service.execute(&get_concept(&liu, ListOptions::transitive())));
        assert_eq!(concepts[..2], ["男演员".to_string(), "歌手".to_string()]);
        assert!(concepts.contains(&"演员".to_string()));
        assert!(concepts.contains(&"人物".to_string()));
        assert_eq!(concepts.len(), 4);
    }

    #[test]
    fn get_concept_by_mention_merges_senses() {
        let service = demo_service();
        let query = get_concept_by_mention("刘德华", ListOptions::default());
        assert_eq!(names(service.execute(&query)), ["男演员", "歌手"]);
    }

    /// Regression: when several senses of one mention share a hypernym,
    /// the merged list must report it once, at its first rank — not once
    /// per sense.
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
        let service = TaxonomyService::from_store(s);
        assert_eq!(names(service.execute(&Query::men2ent("刘德华"))).len(), 2);
        let direct =
            names(service.execute(&get_concept_by_mention("刘德华", ListOptions::default())));
        assert_eq!(direct, ["歌手", "演员"], "each shared hypernym once");
        let transitive =
            names(service.execute(&get_concept_by_mention("刘德华", ListOptions::transitive())));
        assert_eq!(transitive, ["歌手", "演员", "人物"]);
    }

    #[test]
    fn get_entity_direct_and_transitive() {
        let service = demo_service();
        let direct = names(service.execute(&get_entity("人物", ListOptions::default())));
        assert!(direct.is_empty(), "no entity links directly to 人物");
        let transitive = names(service.execute(&get_entity("人物", ListOptions::transitive())));
        // 刘德华 is reachable via 歌手 and via 男演员 but reported once.
        assert_eq!(transitive.len(), 2);
        assert!(transitive.contains(&"张学友".to_string()));
        assert!(transitive.contains(&"刘德华（中国香港男演员）".to_string()));
    }

    #[test]
    fn get_entity_respects_limit() {
        let service = demo_service();
        let options = ListOptions::default().with_page(PageRequest::first(1));
        assert_eq!(
            names(service.execute(&get_entity("歌手", options))).len(),
            1
        );
    }

    #[test]
    fn get_entity_unknown_concept() {
        let service = demo_service();
        let options = ListOptions::transitive().with_page(PageRequest::first(10));
        assert_eq!(
            service.execute(&get_entity("不存在", options)).result,
            Err(QueryError::UnknownConcept("不存在".to_string()))
        );
    }

    /// A pin is the frozen-at-boot read surface: it keeps answering its
    /// generation after the service swaps.
    #[test]
    fn wrapper_stays_on_its_boot_generation() {
        let service = demo_service();
        let pinned = service.pin();
        let query = get_entity("歌手", ListOptions::default());
        let before = pinned.execute(&query);
        service.swap(FrozenTaxonomy::freeze(&TaxonomyStore::new()));
        assert_eq!(pinned.execute(&query), before);
        assert_eq!(names(before).len(), 2);
        // But the service itself serves the new, empty generation.
        assert_eq!(service.generation(), 2);
        assert!(service.execute(&query).result.is_err());
    }

    #[test]
    fn api_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaxonomyService>();
        assert_send_sync::<PinnedSnapshot>();
        assert_send_sync::<PinnedSnapshot<FrozenTaxonomyView>>();
        assert_send_sync::<PinnedSnapshot<OverlayView<FrozenTaxonomyView>>>();
    }
}
