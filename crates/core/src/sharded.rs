//! The shard set behind [`crate::SToPSS`]: subscription routing, the
//! immutable snapshot a publication matches against, and the shard
//! fan-out with its deterministic merge.
//!
//! Subscriptions are partitioned across `Config::shards` shards by a hash
//! of their [`SubId`] ([`shard_of`]); each shard owns a complete matcher
//! core (and therefore an independent [`stopss_matching::MatchingEngine`]).
//! With one shard — the default — a publication runs the core's inline
//! path: borrow the event, fill the tier cache lazily, no thread, no
//! merge. With more, a publication flows through a **two-stage
//! pipeline**:
//!
//! 1. **Shared semantic front-end** — the event-side pass (synonym
//!    canonicalization, hierarchy/mapping closure, or event
//!    materialization) runs *once per publication* via
//!    [`crate::SemanticFrontEnd`], producing a [`PreparedEvent`] artifact.
//!    With provenance on, the provenance classifier's tier closures are
//!    warmed here too, and so are the verification-class closures of every
//!    registered non-system tolerance.
//! 2. **Shard matching** — every shard receives only the engine-match +
//!    verify work on the precomputed artifact, fanned out on crossbeam
//!    scoped worker threads. The artifact's [`crate::TierCache`] is shared
//!    read-only across the concurrent shards.
//!
//! Per-shard match sets are merged sorted by `SubId`, so matches,
//! provenance, ordering and [`crate::MatcherStats`] are byte-identical for
//! every shard count. The S-ToPSS paper treats the syntactic engine as a
//! black box precisely so the semantic layer can scale this way: semantic
//! enrichment is a per-publication transform (independent of which
//! subscriptions a shard holds), matching is the per-subscription
//! fan-out. `tests/sharded_differential.rs` pins the equivalence against
//! independent one-shard matchers and the semantic oracle.
//!
//! # Snapshots
//!
//! A `ShardSet` is a *consistent cut* across all shards: configuration,
//! ontology handle, shard cores and the two epochs. Control ops build the
//! next set aside, forking only the shard cores they touch (copy-on-write
//! via [`stopss_matching::MatchingEngine::boxed_clone`]), and the matcher
//! publishes it with one pointer swap — a publication can never observe
//! shard A after a mutation but shard B before it.
//!
//! # Stats
//!
//! Every core of every set shares one block of relaxed atomic counters.
//! The event-side counters (`published`, `derived_events`,
//! `closure_pairs`, `truncations`) are accounted once per publication —
//! by the inline path, or by the set before it fans an artifact out — and
//! shard cores add only subscription-side counters, so statistics survive
//! swaps and reshards without a carry step.

use stopss_ontology::SemanticSource;
use stopss_types::sync::Arc;
use stopss_types::{fx_hash_one, Event, SharedInterner, SubId, Subscription};

use crate::config::Config;
use crate::frontend::{PreparedEvent, SemanticFrontEnd};
use crate::matcher::{AtomicStats, MatcherCore, PublishResult};
use crate::tolerance::{StageMask, Tolerance};

/// Publications per pipeline chunk of [`crate::SToPSS::publish_batch`]:
/// the granularity at which stage 1 (front-end preparation) of chunk
/// *k+1* overlaps stage 2 (shard matching) of chunk *k*. Large enough
/// that the front-end's own batch chunking can still engage inside one
/// chunk; small enough that a typical large batch yields several chunks
/// to overlap.
pub const PIPELINE_CHUNK: usize = 32;

/// The shard a subscription id is routed to, out of `shards`.
///
/// Stable across processes and platforms (Fx mix over the raw id), so
/// fixtures, golden tests and replicated references agree on placement.
pub fn shard_of(id: SubId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (fx_hash_one(&id.0) % shards as u64) as usize
}

/// One immutable incarnation of the matcher: the configuration, ontology
/// handle, every shard core, and the two epochs — the consistent cut a
/// publication matches against.
pub(crate) struct ShardSet {
    pub(crate) config: Config,
    pub(crate) source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    pub(crate) stats: Arc<AtomicStats>,
    pub(crate) shards: Vec<Arc<MatcherCore>>,
    /// Bumped by every control mutation (linearization token).
    pub(crate) control_epoch: u64,
    /// Bumped by mutations that invalidate detached front-end artifacts.
    pub(crate) frontend_epoch: u64,
}

impl ShardSet {
    /// An empty set with `config.effective_shards()` shards.
    pub(crate) fn new(
        config: Config,
        source: Arc<dyn SemanticSource>,
        interner: SharedInterner,
        stats: Arc<AtomicStats>,
    ) -> Self {
        let mut set = ShardSet {
            config,
            source,
            interner,
            stats,
            shards: Vec::new(),
            control_epoch: 0,
            frontend_epoch: 0,
        };
        set.shards = set.empty_cores(config).into_iter().map(Arc::new).collect();
        set
    }

    fn empty_cores(&self, config: Config) -> Vec<MatcherCore> {
        (0..config.effective_shards())
            .map(|_| {
                MatcherCore::new(
                    config,
                    self.source.clone(),
                    self.interner.clone(),
                    self.stats.clone(),
                )
            })
            .collect()
    }

    /// The index of the shard `id` is (or would be) routed to.
    pub(crate) fn route(&self, id: SubId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// The shard core `id` is (or would be) routed to.
    pub(crate) fn shard(&self, id: SubId) -> &MatcherCore {
        &self.shards[self.route(id)]
    }

    /// Number of user subscriptions across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The union of the shards' registered verification classes.
    pub(crate) fn verify_classes(&self) -> Vec<Tolerance> {
        let mut classes = Vec::new();
        for shard in &self.shards {
            shard.verify_classes_into(&mut classes);
        }
        classes
    }

    /// A detachable front-end for this set, carrying the union of the
    /// shards' registered verification classes and the set's front-end
    /// epoch tag.
    pub(crate) fn frontend(&self) -> SemanticFrontEnd {
        SemanticFrontEnd::new(self.config, self.source.clone(), self.interner.clone())
            .with_verify_classes(self.verify_classes())
            .with_epoch(self.frontend_epoch)
    }

    /// Publishes one event. One shard runs the core's inline path
    /// (borrowed event, lazy tier cache); several prepare one shared
    /// artifact and fan it out.
    pub(crate) fn publish(&self, event: &Event) -> PublishResult {
        if let [only] = self.shards.as_slice() {
            return self.interner.with(|i| only.publish_inner(event, i, self.control_epoch));
        }
        let prepared = self.frontend().prepare(event);
        self.stats.account(prepared.derived_events, prepared.closure_pairs, prepared.truncated);
        self.match_one(&prepared)
    }

    /// Accounts the event-side counters the artifacts carry (once per
    /// publication), then matches them.
    pub(crate) fn publish_prepared(&self, prepared: &[PreparedEvent]) -> Vec<PublishResult> {
        for artifact in prepared {
            self.stats.account(artifact.derived_events, artifact.closure_pairs, artifact.truncated);
        }
        self.match_prepared(prepared)
    }

    /// The subscription-side half for one artifact; one shard matches in
    /// place with no merge.
    pub(crate) fn match_one(&self, prepared: &PreparedEvent) -> PublishResult {
        if let [only] = self.shards.as_slice() {
            return only.match_prepared(prepared, self.control_epoch);
        }
        self.match_prepared(std::slice::from_ref(prepared))
            .pop()
            .expect("invariant: one artifact in, one result out")
    }

    /// The subscription-side half for a list of artifacts: every shard
    /// matches every artifact — fanned out on scoped workers when the
    /// budget allows — and per-shard matches merge sorted by `SubId`.
    /// Accounts no event-side counter.
    pub(crate) fn match_prepared(&self, prepared: &[PreparedEvent]) -> Vec<PublishResult> {
        let epoch = self.control_epoch;
        if let [only] = self.shards.as_slice() {
            return prepared.iter().map(|p| only.match_prepared(p, epoch)).collect();
        }
        if prepared.is_empty() {
            return Vec::new();
        }
        let workers = self.config.effective_parallelism();
        // Scoped workers are real OS threads, so spawning must be
        // amortized: batches always fan out; a single event fans out only
        // when the caller asked for a worker pool explicitly
        // (`parallelism > 0`, e.g. candidate-heavy shards where per-shard
        // matching dwarfs a thread spawn) and otherwise matches
        // sequentially.
        let fan_out = workers > 1 && (prepared.len() > 1 || self.config.parallelism > 0);
        let run_shard = |shard: &MatcherCore| -> Vec<PublishResult> {
            prepared.iter().map(|artifact| shard.match_prepared(artifact, epoch)).collect()
        };
        // per_shard[s][k] = shard s's result for artifact k.
        let per_shard: Vec<Vec<PublishResult>> = if !fan_out {
            self.shards.iter().map(|shard| run_shard(shard)).collect()
        } else {
            let chunk = self.shards.len().div_ceil(workers);
            let run_shard = &run_shard;
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .chunks(chunk)
                    .map(|chunk_shards| {
                        scope.spawn(move |_| {
                            chunk_shards.iter().map(|shard| run_shard(shard)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // Handles joined in spawn order, so shard order is preserved.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("invariant: shard workers do not panic"))
                    .collect()
            })
            .expect("invariant: shard scope threads do not panic")
        };
        merge_results(prepared, per_shard, epoch)
    }

    /// The next set: `shards` in place of this set's, one control epoch
    /// later, same configuration, ontology and front-end epoch.
    fn next(&self, shards: Vec<Arc<MatcherCore>>) -> ShardSet {
        ShardSet {
            config: self.config,
            source: self.source.clone(),
            interner: self.interner.clone(),
            stats: self.stats.clone(),
            shards,
            control_epoch: self.control_epoch + 1,
            frontend_epoch: self.frontend_epoch,
        }
    }

    /// Every shard core in `forks` replaces its counterpart; the others
    /// keep their `Arc`s.
    fn with_forks(&self, forks: Vec<Option<MatcherCore>>) -> ShardSet {
        let shards = self
            .shards
            .iter()
            .zip(forks)
            .map(|(cur, fork)| fork.map_or_else(|| cur.clone(), Arc::new))
            .collect();
        self.next(shards)
    }

    /// The next set with `subs` registered (a `None` tolerance means the
    /// system tolerance). Each touched shard is forked exactly once.
    pub(crate) fn subscribed(
        &self,
        subs: impl IntoIterator<Item = (Subscription, Option<Tolerance>)>,
    ) -> ShardSet {
        let mut forks: Vec<Option<MatcherCore>> = self.shards.iter().map(|_| None).collect();
        for (sub, tolerance) in subs {
            let idx = self.route(sub.id());
            let core = forks[idx].get_or_insert_with(|| self.shards[idx].fork());
            core.subscribe_with_tolerance(
                sub,
                tolerance.unwrap_or_else(|| self.config.system_tolerance()),
            );
        }
        self.with_forks(forks)
    }

    /// The next set with `ids` removed, each touched shard forked exactly
    /// once; `None` if no id is registered.
    pub(crate) fn unsubscribed(&self, ids: &[SubId]) -> Option<ShardSet> {
        let mut forks: Vec<Option<MatcherCore>> = self.shards.iter().map(|_| None).collect();
        let mut removed = false;
        for &id in ids {
            let idx = self.route(id);
            if let Some(core) = forks[idx].as_mut() {
                removed |= core.remove_entry(id);
            } else if self.shards[idx].contains(id) {
                let mut core = self.shards[idx].fork();
                removed |= core.remove_entry(id);
                forks[idx] = Some(core);
            }
        }
        removed.then(|| self.with_forks(forks))
    }

    /// The next set with every shard forked and rebuilt by `rebuild`,
    /// under `config` and `source`; bumps both epochs.
    fn rebuilt(
        &self,
        config: Config,
        source: Arc<dyn SemanticSource>,
        rebuild: impl Fn(&mut MatcherCore),
    ) -> ShardSet {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let mut core = shard.fork();
                rebuild(&mut core);
                Arc::new(core)
            })
            .collect();
        ShardSet { config, source, frontend_epoch: self.frontend_epoch + 1, ..self.next(shards) }
    }

    /// The next set with `stages` enabled on every shard.
    pub(crate) fn with_stages(&self, stages: StageMask) -> ShardSet {
        let config = Config { stages, ..self.config };
        self.rebuilt(config, self.source.clone(), |core| core.set_stages(stages))
    }

    /// The next set on ontology `source`.
    pub(crate) fn with_source(&self, source: Arc<dyn SemanticSource>) -> ShardSet {
        self.rebuilt(self.config, source.clone(), |core| core.set_source(source.clone()))
    }

    /// The next set under `config`. If the shard count changes,
    /// subscriptions are redistributed into fresh shard cores —
    /// verification-class refcounts (and therefore the stage-1 warm set)
    /// are rebuilt per shard from the re-routed subscriptions' requested
    /// tolerances. Either way every shard rebuilds its engine state.
    pub(crate) fn reconfigured(&self, config: Config) -> ShardSet {
        if config.effective_shards() == self.shards.len() {
            return self.rebuilt(config, self.source.clone(), |core| core.reconfigure(config));
        }
        let mut all: Vec<(Subscription, Tolerance)> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.subscriptions_with_tolerances());
        }
        all.sort_unstable_by_key(|(sub, _)| sub.id());
        let mut cores = self.empty_cores(config);
        let count = cores.len();
        for (sub, tolerance) in all {
            cores[shard_of(sub.id(), count)].subscribe_with_tolerance(sub, tolerance);
        }
        let shards = cores.into_iter().map(Arc::new).collect();
        ShardSet { config, frontend_epoch: self.frontend_epoch + 1, ..self.next(shards) }
    }
}

/// Merges per-shard results into one result per event: matches are
/// concatenated and sorted by `SubId` (shards partition ids, so there are
/// no duplicates); event-side counters come straight from the shared
/// front-end artifact, the epoch from the set the artifacts matched
/// against.
fn merge_results(
    prepared: &[PreparedEvent],
    per_shard: Vec<Vec<PublishResult>>,
    epoch: u64,
) -> Vec<PublishResult> {
    let mut merged: Vec<PublishResult> = Vec::with_capacity(prepared.len());
    for (k, artifact) in prepared.iter().enumerate() {
        let mut result = PublishResult {
            matches: Vec::new(),
            derived_events: artifact.derived_events,
            closure_pairs: artifact.closure_pairs,
            truncated: artifact.truncated,
            epoch,
        };
        for shard_results in &per_shard {
            result.matches.extend_from_slice(&shard_results[k].matches);
        }
        result.matches.sort_unstable_by_key(|m| m.sub);
        merged.push(result);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::matcher::SToPSS;
    use crate::provenance::{Match, MatchOrigin};
    use stopss_matching::EngineKind;
    use stopss_ontology::Ontology;
    use stopss_types::{EventBuilder, Interner, SubscriptionBuilder};

    struct World {
        interner: SharedInterner,
        source: Arc<Ontology>,
        subs: Vec<Subscription>,
        events: Vec<Event>,
    }

    /// A taxonomy world with enough subscriptions that every shard count
    /// in the tests gets a non-empty partition.
    fn world() -> World {
        let mut i = Interner::new();
        let mut o = Ontology::new("jobs");
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, &i).unwrap();
        o.taxonomy.add_isa(phd, grad, &i).unwrap();

        let mut subs = Vec::new();
        for k in 0..16u64 {
            let term = ["degree", "graduate_degree", "phd"][k as usize % 3];
            subs.push(
                SubscriptionBuilder::new(&mut i).term_eq("credential", term).build(SubId(k + 1)),
            );
        }
        let events = vec![
            EventBuilder::new(&mut i).term("credential", "phd").build(),
            EventBuilder::new(&mut i).term("credential", "degree").build(),
            EventBuilder::new(&mut i).term("credential", "other").build(),
        ];
        World { interner: SharedInterner::from_interner(i), source: Arc::new(o), subs, events }
    }

    /// A one-shard reference and a matcher with `shards` shards, both
    /// holding every subscription of the world.
    fn matchers(w: &World, shards: usize) -> (SToPSS, SToPSS) {
        let single = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        let sharded = SToPSS::new(
            Config::default().with_shards(shards),
            w.source.clone(),
            w.interner.clone(),
        );
        for sub in &w.subs {
            single.subscribe(sub.clone());
            sharded.subscribe(sub.clone());
        }
        (single, sharded)
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        for shards in [1usize, 2, 3, 8] {
            for id in 0..100u64 {
                let s = shard_of(SubId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(SubId(id), shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn sharded_matches_equal_single_threaded() {
        let w = world();
        for shards in [1usize, 2, 5, 8] {
            let (single, sharded) = matchers(&w, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.len(), single.len());
            for event in &w.events {
                let want = single.publish(event);
                let got = sharded.publish(event);
                assert_eq!(got, want, "shards={shards} diverged");
            }
            assert_eq!(sharded.stats(), single.stats(), "shards={shards} stats diverged");
        }
    }

    #[test]
    fn batch_equals_per_event_publish() {
        let w = world();
        let (single, sharded) = matchers(&w, 4);
        let batched = sharded.publish_batch(&w.events);
        let sequential: Vec<Vec<Match>> = w.events.iter().map(|e| single.publish(e)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(sharded.publish_batch(&[]), Vec::<Vec<Match>>::new());
    }

    #[test]
    fn prepared_batch_equals_publish_batch() {
        let w = world();
        let (single, sharded) = matchers(&w, 4);
        let prepared = sharded.frontend().prepare_batch(&w.events);
        let got = sharded.publish_prepared_batch(&prepared);
        let want: Vec<PublishResult> =
            w.events.iter().map(|e| single.publish_detailed(e)).collect();
        for (g, s) in got.iter().zip(&want) {
            assert_eq!(g.matches, s.matches);
            assert_eq!(g.derived_events, s.derived_events);
            assert_eq!(g.closure_pairs, s.closure_pairs);
            assert_eq!(g.truncated, s.truncated);
        }
        assert_eq!(sharded.stats(), single.stats(), "prepared path must account event-side stats");
        assert!(sharded.publish_prepared_batch(&[]).is_empty());
    }

    #[test]
    fn subscribe_batch_equals_sequential_subscribes() {
        let w = world();
        for shards in [1usize, 4, 8] {
            let config = Config::default().with_shards(shards);
            let batched = SToPSS::new(config, w.source.clone(), w.interner.clone());
            let sequential = SToPSS::new(config, w.source.clone(), w.interner.clone());
            let mut batch = Vec::new();
            for (k, sub) in w.subs.iter().enumerate() {
                if k % 2 == 0 {
                    sequential.subscribe(sub.clone());
                    batch.push((sub.clone(), None));
                } else {
                    sequential.subscribe_with_tolerance(sub.clone(), Tolerance::bounded(1));
                    batch.push((sub.clone(), Some(Tolerance::bounded(1))));
                }
            }
            let before = batched.control_epoch();
            assert_eq!(batched.subscribe_batch(Vec::new()), before, "empty batch must not publish");
            let epoch = batched.subscribe_batch(batch);
            assert_eq!(epoch, before + 1, "one batch, one control-epoch bump");
            assert_eq!(batched.len(), sequential.len());
            for sub in &w.subs {
                assert_eq!(batched.tolerance(sub.id()), sequential.tolerance(sub.id()));
            }
            for event in &w.events {
                assert_eq!(batched.publish(event), sequential.publish(event), "shards={shards}");
            }
        }
    }

    #[test]
    fn parallelism_cap_does_not_change_results() {
        let w = world();
        for parallelism in [1usize, 2, 3] {
            let config = Config::default().with_shards(8).with_parallelism(parallelism);
            let sharded = SToPSS::new(config, w.source.clone(), w.interner.clone());
            let single = SToPSS::new(config.with_shards(1), w.source.clone(), w.interner.clone());
            for sub in &w.subs {
                sharded.subscribe(sub.clone());
                single.subscribe(sub.clone());
            }
            assert_eq!(sharded.publish_batch(&w.events), single.publish_batch(&w.events));
            // Explicit parallelism also fans out single-event publishes;
            // results must not change.
            assert_eq!(sharded.publish(&w.events[0]), single.publish(&w.events[0]));
        }
    }

    #[test]
    fn stats_survive_resharding() {
        let w = world();
        let (single, sharded) = matchers(&w, 2);
        for event in &w.events {
            single.publish(event);
            sharded.publish(event);
        }
        let before = sharded.stats();
        assert_eq!(before, single.stats());
        assert!(before.published > 0);
        sharded.reconfigure(Config::default().with_shards(5));
        single.reconfigure(Config::default());
        assert_eq!(single.shard_count(), 1);
        let after = sharded.stats();
        assert_eq!(after.published, before.published, "reshard must not zero lifetime stats");
        assert_eq!(after, single.stats(), "stats must track the one-shard matcher");
        // New publishes keep accumulating on top of the carried baseline.
        sharded.publish(&w.events[0]);
        single.publish(&w.events[0]);
        assert_eq!(sharded.stats(), single.stats());
    }

    #[test]
    fn subscription_lookup_and_unsubscribe_route_by_hash() {
        let w = world();
        let (_, sharded) = matchers(&w, 8);
        let id = w.subs[0].id();
        assert_eq!(sharded.subscription(id), Some(w.subs[0].clone()));
        assert!(sharded.tolerance(id).is_some());
        assert!(sharded.unsubscribe(id).is_some());
        assert!(sharded.unsubscribe(id).is_none());
        assert_eq!(sharded.subscription(id), None);
        assert_eq!(sharded.len(), w.subs.len() - 1);
        assert!(!sharded.is_empty());
    }

    #[test]
    fn set_stages_switches_all_shards() {
        let w = world();
        let (_, sharded) = matchers(&w, 4);
        let semantic = sharded.publish(&w.events[0]).len();
        sharded.set_stages(StageMask::syntactic());
        let syntactic = sharded.publish(&w.events[0]).len();
        assert!(syntactic < semantic, "hierarchy matches must vanish in syntactic mode");
        sharded.set_stages(StageMask::all());
        assert_eq!(sharded.publish(&w.events[0]).len(), semantic);
    }

    #[test]
    fn reconfigure_can_reshard() {
        let w = world();
        let (single, sharded) = matchers(&w, 2);
        let want: Vec<Vec<Match>> = w.events.iter().map(|e| single.publish(e)).collect();
        sharded.reconfigure(
            Config::default()
                .with_shards(7)
                .with_engine(EngineKind::Trie)
                .with_strategy(Strategy::SubscriptionRewrite),
        );
        assert_eq!(sharded.shard_count(), 7);
        assert_eq!(sharded.len(), w.subs.len());
        let got = sharded.publish_batch(&w.events);
        for (g, s) in got.iter().zip(&want) {
            assert_eq!(g, s, "match sets must survive resharding + engine swap");
        }
        // Same shard count: reconfigure in place.
        sharded.reconfigure(Config::default().with_shards(7));
        assert_eq!(sharded.len(), w.subs.len());
    }

    #[test]
    fn shards_share_one_tier_cache_per_artifact() {
        let w = world();
        let config = Config::default().with_shards(4).with_parallelism(4);
        let sharded = SToPSS::new(config, w.source.clone(), w.interner.clone());
        for (k, sub) in w.subs.iter().enumerate() {
            // Mixed tolerances so several shards verify concurrently.
            let tolerance = match k % 3 {
                0 => Tolerance::full(),
                1 => Tolerance::bounded(1),
                _ => Tolerance::stages(StageMask::SYNONYM),
            };
            sharded.subscribe_with_tolerance(sub.clone(), tolerance);
        }
        let prepared = sharded.frontend().prepare_batch(&w.events);
        assert!(prepared[0].tiers.classifier_tiers_ready(), "stage 1 warms classifier tiers");
        let first = sharded.publish_prepared_batch(&prepared);
        // Two distinct non-system verification classes across all shards,
        // computed on the shared per-publication cache (not per shard or
        // per candidate).
        assert!(prepared[0].tiers.class_count() <= 2, "classes dedupe across shards");
        // Re-publishing the same artifacts reuses the filled caches and
        // stays deterministic.
        let second = sharded.publish_prepared_batch(&prepared);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.matches, b.matches);
        }
    }

    #[test]
    fn per_subscription_tolerance_respected_across_shards() {
        let w = world();
        let config = Config::default().with_shards(8);
        let sharded = SToPSS::new(config, w.source.clone(), w.interner.clone());
        for sub in &w.subs {
            sharded.subscribe_with_tolerance(sub.clone(), Tolerance::syntactic());
        }
        let matches = sharded.publish(&w.events[0]);
        assert!(
            matches.iter().all(|m| m.origin == MatchOrigin::Syntactic),
            "syntactic tolerance must filter semantic matches on every shard"
        );
        let stats = sharded.stats();
        assert!(stats.verifications >= stats.verify_rejections);
        assert!(stats.verify_rejections > 0);
    }

    #[test]
    fn frontend_warms_registered_verify_classes_in_stage_1() {
        let w = world();
        let config = Config::default().with_shards(4);
        let sharded = SToPSS::new(config, w.source.clone(), w.interner.clone());
        for (k, sub) in w.subs.iter().enumerate() {
            let tolerance = match k % 3 {
                0 => Tolerance::full(), // system tolerance: no verify class
                1 => Tolerance::bounded(1),
                _ => Tolerance::stages(StageMask::SYNONYM),
            };
            sharded.subscribe_with_tolerance(sub.clone(), tolerance);
        }
        // The detached handle carries the two distinct non-system classes;
        // stage 1 closes them eagerly, before any shard matches.
        let prepared = sharded.frontend().prepare(&w.events[0]);
        assert_eq!(
            prepared.tiers.class_count(),
            2,
            "both registered verification classes are warmed at prepare time"
        );
        // Unsubscribing every bounded-tolerance subscriber drops its class
        // from the next snapshot.
        for (k, sub) in w.subs.iter().enumerate() {
            if k % 3 == 1 {
                sharded.unsubscribe(sub.id());
            }
        }
        let prepared = sharded.frontend().prepare(&w.events[0]);
        assert_eq!(prepared.tiers.class_count(), 1, "unsubscribe retires the class");
        // Warming must not change results: compare against a cold handle.
        let cold = SemanticFrontEnd::new(config, w.source.clone(), w.interner.clone())
            .prepare_batch(&w.events);
        let warm = sharded.frontend().prepare_batch(&w.events);
        let from_warm = sharded.publish_prepared_batch(&warm);
        let from_cold = sharded.publish_prepared_batch(&cold);
        for (a, b) in from_warm.iter().zip(&from_cold) {
            assert_eq!(a.matches, b.matches, "warming is behaviourally invisible");
        }
    }

    /// Regression (control-plane bugfix pass): verification classes and
    /// the stage-1 warm set must survive a reshard exactly — no leaked
    /// class from the old shard vector, no double-retire when members
    /// unsubscribe afterwards.
    #[test]
    fn verify_classes_survive_resharding() {
        let w = world();
        let sharded =
            SToPSS::new(Config::default().with_shards(2), w.source.clone(), w.interner.clone());
        for (k, sub) in w.subs.iter().enumerate() {
            let tolerance = match k % 3 {
                0 => Tolerance::full(),
                1 => Tolerance::bounded(1),
                _ => Tolerance::stages(StageMask::SYNONYM),
            };
            sharded.subscribe_with_tolerance(sub.clone(), tolerance);
        }
        let warm_before = sharded.frontend().prepare(&w.events[0]).tiers.class_count();
        assert_eq!(warm_before, 2, "two non-system classes registered");
        sharded.reconfigure(Config::default().with_shards(5));
        let warm_after = sharded.frontend().prepare(&w.events[0]).tiers.class_count();
        assert_eq!(warm_after, 2, "classes re-routed with their subscriptions");
        // Retiring every member of one class removes exactly that class —
        // a leaked refcount would keep it warm, a double-retire would
        // have already dropped it.
        for (k, sub) in w.subs.iter().enumerate() {
            if k % 3 == 1 {
                assert!(sharded.unsubscribe(sub.id()).is_some());
            }
        }
        let warm_retired = sharded.frontend().prepare(&w.events[0]).tiers.class_count();
        assert_eq!(warm_retired, 1, "the bounded class retires with its last member");
        // The surviving class still verifies correctly after the reshard.
        let matches = sharded.publish(&w.events[0]);
        assert!(!matches.is_empty());
    }

    #[test]
    fn pipelined_large_batch_equals_barrier_and_single() {
        let w = world();
        // Explicit parallelism forces the stage overlap even on
        // single-core hosts (see `Config::pipeline_overlap`).
        let config = Config::default().with_shards(4).with_parallelism(4);
        // A batch wide enough for several pipeline chunks (> 2 ×
        // PIPELINE_CHUNK), with mixed tolerances in play.
        let batch: Vec<Event> =
            w.events.iter().cycle().take(3 * PIPELINE_CHUNK + 5).cloned().collect();
        let single = SToPSS::new(config.with_shards(1), w.source.clone(), w.interner.clone());
        let pipelined = SToPSS::new(config, w.source.clone(), w.interner.clone());
        let barrier = SToPSS::new(config, w.source.clone(), w.interner.clone());
        for (k, sub) in w.subs.iter().enumerate() {
            let tolerance = tolerance_cycle(k);
            single.subscribe_with_tolerance(sub.clone(), tolerance);
            pipelined.subscribe_with_tolerance(sub.clone(), tolerance);
            barrier.subscribe_with_tolerance(sub.clone(), tolerance);
        }
        let want: Vec<PublishResult> = batch.iter().map(|e| single.publish_detailed(e)).collect();
        // Barrier: prepare the whole batch, then match it.
        let prepared = barrier.frontend().prepare_batch(&batch);
        let from_barrier = barrier.publish_prepared_batch(&prepared);
        // Pipeline: stage 1 of chunk k+1 overlaps stage 2 of chunk k.
        let from_pipeline = pipelined.publish_batch_detailed(&batch);
        assert_eq!(from_pipeline.len(), want.len());
        for (k, (got, reference)) in from_pipeline.iter().zip(&want).enumerate() {
            assert_eq!(got.matches, reference.matches, "event #{k} diverged from single");
            assert_eq!(got.derived_events, reference.derived_events, "event #{k}");
            assert_eq!(got.closure_pairs, reference.closure_pairs, "event #{k}");
            assert_eq!(got.truncated, reference.truncated, "event #{k}");
        }
        for (k, (got, reference)) in from_pipeline.iter().zip(&from_barrier).enumerate() {
            assert_eq!(got.matches, reference.matches, "event #{k}: pipeline vs barrier");
        }
        assert_eq!(pipelined.stats(), single.stats(), "pipelined stats");
        assert_eq!(barrier.stats(), single.stats(), "barrier stats");
    }

    /// Control ops bump the set's control epoch consecutively and stamp
    /// publish results with the epoch they matched under; the sharded
    /// front end carries the set's staleness tag.
    #[test]
    fn epochs_are_consecutive_and_stamped() {
        let w = world();
        let sharded =
            SToPSS::new(Config::default().with_shards(4), w.source.clone(), w.interner.clone());
        assert_eq!(sharded.control_epoch(), 0);
        assert_eq!(sharded.subscribe(w.subs[0].clone()), 1);
        assert_eq!(sharded.subscribe(w.subs[1].clone()), 2);
        assert_eq!(sharded.unsubscribe(w.subs[1].id()), Some(3));
        assert_eq!(sharded.unsubscribe(w.subs[1].id()), None);
        assert_eq!(sharded.control_epoch(), 3);
        assert_eq!(sharded.frontend_epoch(), 0, "subscription churn keeps artifacts valid");
        let result = sharded.publish_detailed(&w.events[0]);
        assert_eq!(result.epoch, 3);
        assert_eq!(sharded.set_stages(StageMask::syntactic()), 4);
        assert_eq!(sharded.frontend_epoch(), 1);
        assert_eq!(sharded.frontend().epoch(), 1);
        // A stale artifact is refused atomically.
        let frontend = sharded.frontend();
        let prepared = frontend.prepare_batch(&w.events);
        assert!(sharded.try_publish_prepared_batch(&prepared, frontend.epoch()).is_some());
        sharded.reconfigure(Config::default().with_shards(4));
        assert!(sharded.try_publish_prepared_batch(&prepared, frontend.epoch()).is_none());
    }

    /// A live reshard across the old single/sharded boundary: 1 → 4 → 1
    /// shards on one matcher. Subscriptions, requested tolerances, match
    /// sets and lifetime statistics all survive both changes.
    #[test]
    fn live_reshard_from_one_shard_and_back() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        assert_eq!(matcher.shard_count(), 1);
        for (k, sub) in w.subs.iter().enumerate() {
            matcher.subscribe_with_tolerance(sub.clone(), tolerance_cycle(k));
        }
        let requested: Vec<Option<Tolerance>> =
            w.subs.iter().map(|s| matcher.requested_tolerance(s.id())).collect();
        let want: Vec<Vec<Match>> = w.events.iter().map(|e| matcher.publish(e)).collect();
        for shards in [4usize, 1] {
            let stats = matcher.stats();
            matcher.reconfigure(Config::default().with_shards(shards));
            assert_eq!(matcher.shard_count(), shards);
            assert_eq!(matcher.len(), w.subs.len(), "shards={shards}: subscriptions survive");
            assert_eq!(matcher.stats(), stats, "shards={shards}: stats survive");
            for (sub, tolerance) in w.subs.iter().zip(&requested) {
                assert_eq!(matcher.requested_tolerance(sub.id()), *tolerance, "shards={shards}");
            }
            let got: Vec<Vec<Match>> = w.events.iter().map(|e| matcher.publish(e)).collect();
            assert_eq!(got, want, "shards={shards}: match sets survive the reshard");
            assert_eq!(matcher.publish_batch(&w.events), want, "shards={shards}: batch path");
        }
    }

    /// `unsubscribe_batch` is one control mutation whatever the number of
    /// shards it touches, and equals removing the same ids one by one.
    #[test]
    fn unsubscribe_batch_is_one_epoch_and_equals_sequential_unsubscribes() {
        let w = world();
        for shards in [1usize, 4] {
            let (_, batched) = matchers(&w, shards);
            let (_, sequential) = matchers(&w, shards);
            let mut ids: Vec<SubId> = w.subs.iter().step_by(2).map(|s| s.id()).collect();
            for id in &ids {
                assert!(sequential.unsubscribe(*id).is_some());
            }
            // A duplicate and an unknown id are skipped.
            ids.push(ids[0]);
            ids.push(SubId(999));
            let before = batched.control_epoch();
            assert_eq!(batched.unsubscribe_batch(&ids), Some(before + 1), "shards={shards}");
            assert_eq!(batched.unsubscribe_batch(&ids), None, "nothing left to remove");
            assert_eq!(batched.unsubscribe_batch(&[]), None);
            assert_eq!(batched.control_epoch(), before + 1, "no-op batches publish nothing");
            assert_eq!(batched.len(), sequential.len());
            for event in &w.events {
                assert_eq!(batched.publish(event), sequential.publish(event), "shards={shards}");
            }
        }
    }

    /// Mixed tolerances for the pipeline tests: verify-needing and
    /// default subscribers interleaved.
    fn tolerance_cycle(k: usize) -> Tolerance {
        match k % 3 {
            0 => Tolerance::full(),
            1 => Tolerance::bounded(1),
            _ => Tolerance::stages(StageMask::SYNONYM),
        }
    }
}
