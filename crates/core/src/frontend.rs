//! The shared event-side semantic front-end.
//!
//! Everything Figure 1 does to a *publication* — synonym canonicalization,
//! the bounded hierarchy/mapping closure, event materialization — depends
//! only on the event, the ontology, and the configuration; never on which
//! subscriptions are registered. The companion paper "I know what you
//! mean" frames exactly this split: semantic enrichment is a
//! per-publication transform, matching is the per-subscription fan-out.
//! This module computes that transform once, into a [`PreparedEvent`]
//! artifact, so a sharded [`crate::SToPSS`] hands its shards only the
//! engine-match + verify work instead of recomputing the closure per
//! shard.
//!
//! [`SemanticFrontEnd`] is the detachable handle: a snapshot of the
//! configuration plus shared ontology/interner references, cheap to clone
//! out of a matcher so callers can run the event-side pass detached from
//! the matcher entirely — against one consistent
//! config/ontology snapshot, while control ops swap new snapshots in
//! underneath (the epoch-snapshot control plane; staleness is caught by
//! the `frontend_epoch` check at publish time).
//!
//! # The tier cache
//!
//! The engine events are not the only event-side work a publication
//! induces. Two back-end obligations are *also* pure functions of the
//! event, the ontology and a tolerance — yet they used to be recomputed
//! per matched candidate:
//!
//! * **Tolerance verification**: a subscriber whose effective tolerance
//!   differs from the system-wide one is re-checked by closing the raw
//!   event under *their* tolerance and matching — one full closure per
//!   candidate, even though candidates sharing a tolerance share the
//!   closure.
//! * **Provenance classification**: [`crate::classify_match`] re-derives
//!   the synonym-only and synonym+hierarchy closures per candidate, then
//!   linearly re-closes the event once per candidate hierarchy distance
//!   (up to [`CLASSIFY_DISTANCE_CAP`] times).
//!
//! [`TierCache`] hoists all of it into the per-publication artifact:
//! the classifier's tier closures and one closed event per distinct
//! *verification class* ([`Tolerance::verify_class`]) are computed at
//! most once per publication — lazily on first use, eagerly in the
//! detached stage-1 pass for the classifier tiers (provenance on) *and*
//! for the verification classes registered at subscribe time (the
//! matcher snapshots them into the [`SemanticFrontEnd`] handle) — and
//! shared read-only by every shard through `OnceLock`/`RwLock`
//! interior mutability. The minimal hierarchy distance is read straight
//! off the cached closure's [`PairInfo`] ([`classify_with_tiers`])
//! instead of searched by repeated re-closing. The oracle functions in
//! [`crate::oracle`] are untouched ground truth; byte-identical behaviour
//! is pinned by `tests/tier_cache_differential.rs`.

use stopss_types::sync::{Arc, OnceLock, RwLock};

use stopss_ontology::SemanticSource;
use stopss_types::{Event, FxHashMap, Interner, SharedInterner, Subscription};

use crate::closure::{semantic_closure, ClosedEvent, ClosureLimits, PairInfo};
use crate::config::{Config, Strategy};
use crate::oracle::{classify_match, CLASSIFY_DISTANCE_CAP};
use crate::provenance::MatchOrigin;
use crate::strategy::materialize_closure;
use crate::tolerance::{StageMask, Tolerance};

/// The precomputed event-side semantic pass of one publication: the
/// artifact shards match against, plus the counters the pass produced.
///
/// Equivalent to what [`crate::SToPSS::publish_detailed`] derives
/// internally — computing it once and matching it on N shards is
/// byte-identical to letting every shard recompute it (pinned by
/// `crates/core/tests/frontend_differential.rs`).
#[derive(Clone, Debug)]
pub struct PreparedEvent {
    /// The publication exactly as the publisher wrote it. Tolerance
    /// verification and provenance classification are defined against the
    /// raw event, so it travels with the artifact.
    pub raw: Event,
    /// The events the syntactic engine sees: one flattened closure for
    /// [`Strategy::GeneralizedEvent`] / [`Strategy::SubscriptionRewrite`],
    /// or the materialized derivation lattice (in breadth-first derivation
    /// order) for [`Strategy::MaterializeEvents`].
    pub engine_events: Vec<Event>,
    /// Per-pair derivation provenance of the flattened closure (origin
    /// distance, mapping/hierarchy flags), aligned with
    /// `engine_events[0]`. Empty for the materializing strategy.
    pub info: Vec<PairInfo>,
    /// Derived events fed to the engine (the `derived_events` stat).
    pub derived_events: usize,
    /// Pairs in the closed event (the `closure_pairs` stat; 0 for the
    /// materializing strategy).
    pub closure_pairs: usize,
    /// True if a resource bound clipped the semantic pass.
    pub truncated: bool,
    /// Per-publication closures for tolerance verification and provenance
    /// classification, filled at most once each and shared read-only by
    /// all shards (see the module docs).
    pub tiers: TierCache,
}

/// The engine-facing pieces of the event-side pass, without the owned raw
/// event. The inline single-matcher publish path uses this directly so it
/// can keep borrowing the caller's event; the detachable
/// [`prepare_event`] wraps it into a self-contained [`PreparedEvent`].
pub(crate) struct PreparedParts {
    /// See [`PreparedEvent::engine_events`].
    pub engine_events: Vec<Event>,
    /// See [`PreparedEvent::info`].
    pub info: Vec<PairInfo>,
    /// See [`PreparedEvent::derived_events`].
    pub derived_events: usize,
    /// See [`PreparedEvent::closure_pairs`].
    pub closure_pairs: usize,
    /// See [`PreparedEvent::truncated`].
    pub truncated: bool,
}

pub(crate) fn prepare_parts(
    event: &Event,
    source: &dyn SemanticSource,
    config: &Config,
    interner: &Interner,
) -> PreparedParts {
    match config.strategy {
        Strategy::GeneralizedEvent | Strategy::SubscriptionRewrite => {
            // The rewrite strategy moved hierarchy work to subscribe time;
            // its publications run only the synonym and mapping stages.
            let stages = if config.strategy == Strategy::SubscriptionRewrite {
                config.stages.without(StageMask::HIERARCHY)
            } else {
                config.stages
            };
            let closed = semantic_closure(
                event,
                source,
                stages,
                config.max_distance,
                config.now_year,
                interner,
                &config.limits.closure,
            );
            PreparedParts {
                closure_pairs: closed.event.len(),
                truncated: closed.truncated,
                engine_events: vec![closed.event],
                info: closed.info,
                derived_events: 1,
            }
        }
        Strategy::MaterializeEvents => {
            let materialized = materialize_closure(
                event,
                source,
                config.stages,
                config.max_distance,
                config.now_year,
                interner,
                &config.limits,
            );
            PreparedParts {
                derived_events: materialized.events.len(),
                truncated: materialized.truncated,
                engine_events: materialized.events,
                info: Vec::new(),
                closure_pairs: 0,
            }
        }
    }
}

/// The per-publication tier cache: every closure the matching back end
/// needs beyond the engine events — the provenance classifier's tier
/// closures and one closed event per distinct verification class — each
/// computed at most once per publication and shared read-only by all
/// shards (interior mutability; all methods take `&self` and are safe to
/// call concurrently). See the module docs for why this is event-side
/// work and how it replaces the per-candidate oracle closures.
///
/// One cache serves exactly one `(publication, configuration)` pair: the
/// tier slots memoize the first computation, so callers must not reuse a
/// cache across events or across reconfigurations (the matcher creates
/// one per publication; `reconfigure` never recycles artifacts).
#[derive(Debug, Default)]
pub struct TierCache {
    /// Classifier tier: the synonym-only closure (never truncated).
    synonym: OnceLock<ClosedEvent>,
    /// Classifier tier: the unbounded synonym∩stages+hierarchy closure,
    /// tagged with the stage mask it was computed under.
    hierarchy: OnceLock<(StageMask, ClosedEvent)>,
    /// One closed event per distinct [`Tolerance::verify_class`] among
    /// the candidates verified so far.
    classes: RwLock<FxHashMap<Tolerance, Arc<ClosedEvent>>>,
}

impl Clone for TierCache {
    fn clone(&self) -> Self {
        TierCache {
            synonym: self.synonym.clone(),
            hierarchy: self.hierarchy.clone(),
            classes: RwLock::new(self.classes.read().clone()),
        }
    }
}

impl TierCache {
    /// Creates an empty cache (every tier computed lazily on first use).
    pub fn new() -> Self {
        TierCache::default()
    }

    /// The synonym-only closure of `raw` (classifier tier 2), computed on
    /// first use.
    pub fn synonym_tier(
        &self,
        raw: &Event,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        self.synonym.get_or_init(|| {
            semantic_closure(raw, source, StageMask::SYNONYM, None, now_year, interner, limits)
        })
    }

    /// The unbounded `hier_stages` closure of `raw` (classifier tier 3),
    /// computed on first use. `hier_stages` must be the same on every
    /// call for a given cache (it is a pure function of the
    /// configuration: `stages ∩ (SYNONYM | HIERARCHY)`).
    pub fn hierarchy_tier(
        &self,
        raw: &Event,
        source: &dyn SemanticSource,
        hier_stages: StageMask,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        let (mask, closed) = self.hierarchy.get_or_init(|| {
            (
                hier_stages,
                semantic_closure(raw, source, hier_stages, None, now_year, interner, limits),
            )
        });
        debug_assert_eq!(*mask, hier_stages, "one cache serves one configuration");
        let _ = mask;
        closed
    }

    /// The closed event for `tolerance`'s verification class, computed on
    /// first use. Tolerances with equal [`Tolerance::verify_class`] share
    /// one entry, so per-candidate verification costs one closure per
    /// *distinct class* per publication instead of one per candidate.
    pub fn tolerance_class(
        &self,
        tolerance: &Tolerance,
        raw: &Event,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> Arc<ClosedEvent> {
        let class = tolerance.verify_class();
        if let Some(hit) = self.classes.read().get(&class) {
            return Arc::clone(hit);
        }
        // Computed outside the write lock; a concurrent shard racing on
        // the same class wastes one idempotent closure at worst.
        let computed = Arc::new(semantic_closure(
            raw,
            source,
            class.stages,
            class.max_distance,
            now_year,
            interner,
            limits,
        ));
        let mut classes = self.classes.write();
        Arc::clone(classes.entry(class).or_insert(computed))
    }

    /// Eagerly fills the classifier tiers the configuration will need, so
    /// the detached front-end pays them in stage 1 (outside any matcher
    /// lock, chunked across the batch workers) rather than the first
    /// matching shard paying them in stage 2.
    pub fn warm_classifier_tiers(
        &self,
        raw: &Event,
        source: &dyn SemanticSource,
        config: &Config,
        interner: &Interner,
    ) {
        if config.stages.synonym() {
            self.synonym_tier(raw, source, config.now_year, interner, &config.limits.closure);
        }
        if config.stages.hierarchy() {
            let hier_stages =
                config.stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
            self.hierarchy_tier(
                raw,
                source,
                hier_stages,
                config.now_year,
                interner,
                &config.limits.closure,
            );
        }
    }

    /// Number of distinct verification classes closed so far.
    pub fn class_count(&self) -> usize {
        self.classes.read().len()
    }

    /// True if the classifier tiers have been computed.
    pub fn classifier_tiers_ready(&self) -> bool {
        self.synonym.get().is_some() || self.hierarchy.get().is_some()
    }
}

/// Classifies why `sub` matches `raw` (which it must, under `stages` with
/// unbounded distance) from the publication's tier cache: behaviourally
/// identical to [`crate::classify_match`] — the pinned oracle — but every
/// event-side closure is computed at most once per *publication* instead
/// of per candidate, and the minimal hierarchy distance is read off the
/// cached closure's per-pair [`PairInfo`] instead of searched by
/// re-closing the event once per candidate distance.
///
/// `canonical` must be `sub` rewritten by
/// [`crate::synonym_resolve_subscription`] whenever `stages` enables the
/// synonym stage (and may alias `sub` otherwise); the matcher caches it
/// at subscribe time.
#[allow(clippy::too_many_arguments)] // mirrors the oracle's classify_match
pub fn classify_with_tiers(
    sub: &Subscription,
    canonical: &Subscription,
    raw: &Event,
    tiers: &TierCache,
    source: &dyn SemanticSource,
    stages: StageMask,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) -> MatchOrigin {
    // 1. Syntactic: raw against raw.
    if sub.matches(raw, interner) {
        return MatchOrigin::Syntactic;
    }
    // 2. Synonyms only: the canonical subscription against the cached
    // synonym tier.
    if stages.synonym() {
        let tier = tiers.synonym_tier(raw, source, now_year, interner, limits);
        if canonical.matches(&tier.event, interner) {
            return MatchOrigin::Synonym;
        }
    }
    // 3. Hierarchy (plus synonyms): the smallest sufficient distance,
    // read off the cached unbounded closure.
    if stages.hierarchy() {
        let hier_stages = stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
        let tier = tiers.hierarchy_tier(raw, source, hier_stages, now_year, interner, limits);
        if tier.truncated {
            // A truncated closure no longer equals "unbounded pairs
            // filtered by distance": bounded re-closures can reach pairs
            // the truncated run dropped. Defer to the oracle.
            return classify_match(sub, raw, source, stages, now_year, interner, limits);
        }
        let hier_sub = if hier_stages.synonym() { canonical } else { sub };
        if let Some(distance) = min_hierarchy_distance(hier_sub, tier, interner) {
            // Tiers 1–2 not matching guarantees distance ≥ 1; the oracle's
            // linear search also never reports past the cap.
            return MatchOrigin::Hierarchy { distance: distance.clamp(1, CLASSIFY_DISTANCE_CAP) };
        }
    }
    // 4. Anything else needed the mapping stage.
    MatchOrigin::Mapping
}

/// The smallest per-step generalization bound under which `sub` matches
/// the closed event, or `None` if it does not match even unbounded. Each
/// predicate needs only its *closest* satisfying pair (min over pairs);
/// the conjunction needs its *furthest* predicate (max over predicates).
/// Exact because a non-truncated bounded-`k` closure contains precisely
/// the unbounded closure's pairs with minimal derivation distance ≤ `k`.
fn min_hierarchy_distance(
    sub: &Subscription,
    tier: &ClosedEvent,
    interner: &Interner,
) -> Option<u32> {
    let mut overall = 0u32;
    for pred in sub.predicates() {
        let mut best: Option<u32> = None;
        for (idx, (attr, value)) in tier.event.pairs().iter().enumerate() {
            if *attr == pred.attr && pred.eval(value, interner) {
                let distance = tier.info[idx].distance;
                if best.is_none_or(|b| distance < b) {
                    best = Some(distance);
                }
            }
        }
        overall = overall.max(best?);
    }
    Some(overall)
}

/// Computes the event-side semantic pass for `event` under `config`.
///
/// This is the single source of truth for publication-side semantics:
/// a one-shard [`crate::SToPSS::publish_detailed`] runs its parts inline
/// per publication, and a sharded matcher runs it once per publication
/// *before* fanning the matching out to shards. When the configuration tracks provenance
/// through the tier cache, the classifier tiers are warmed here — in the
/// detached stage-1 pass — so shards never pay them.
pub fn prepare_event(
    event: &Event,
    source: &dyn SemanticSource,
    config: &Config,
    interner: &Interner,
) -> PreparedEvent {
    let parts = prepare_parts(event, source, config, interner);
    let prepared = PreparedEvent {
        raw: event.clone(),
        engine_events: parts.engine_events,
        info: parts.info,
        derived_events: parts.derived_events,
        closure_pairs: parts.closure_pairs,
        truncated: parts.truncated,
        tiers: TierCache::new(),
    };
    if config.track_provenance && config.tier_cache {
        prepared.tiers.warm_classifier_tiers(&prepared.raw, source, config, interner);
    }
    prepared
}

/// A detachable handle on the event-side semantic machinery: the
/// configuration snapshot plus the shared ontology and interner, and the
/// verification classes registered at snapshot time.
///
/// Cloned out of a matcher (see [`crate::SToPSS::frontend`]) so the
/// publication-side pass can run detached from the matcher — a sharded
/// matcher's pipelined `publish_batch` prepares chunk *k+1* on it while
/// the shards match chunk *k*. It is a point-in-time snapshot: a control op that changes
/// stages/config/ontology bumps `frontend_epoch`, and artifacts prepared
/// on a stale handle are rejected at publish time and re-prepared.
#[derive(Clone)]
pub struct SemanticFrontEnd {
    config: Config,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    /// Distinct [`Tolerance::verify_class`] values among the matcher's
    /// registered subscriptions at snapshot time (see
    /// [`crate::SToPSS::verify_classes`]). Warmed into every artifact's
    /// tier cache during stage 1, alongside the classifier tiers, so no
    /// matching shard pays a class closure on first use. Empty by default
    /// (the cache then fills lazily, exactly as before).
    verify_classes: Arc<[Tolerance]>,
    /// The `frontend_epoch` of the matcher snapshot this front-end was
    /// detached from. Artifacts prepared here are valid exactly while the
    /// matcher's front-end epoch still equals this tag (see
    /// [`crate::SToPSS::try_publish_prepared_batch`]); 0 for a front-end
    /// built directly rather than detached from a matcher.
    epoch: u64,
}

/// Minimum publications per front-end worker before another thread is
/// worth spawning (a scoped spawn costs more than a handful of closures).
const MIN_EVENTS_PER_WORKER: usize = 16;

impl SemanticFrontEnd {
    /// Creates a front-end over `source` with `config`'s semantics and no
    /// verification classes to warm.
    pub fn new(config: Config, source: Arc<dyn SemanticSource>, interner: SharedInterner) -> Self {
        SemanticFrontEnd { config, source, interner, verify_classes: Arc::from([]), epoch: 0 }
    }

    /// Returns a copy tagged with the matcher snapshot's front-end epoch
    /// (see [`SemanticFrontEnd::epoch`]).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The front-end epoch of the matcher snapshot this handle was
    /// detached from — the staleness tag to pass back to
    /// [`crate::SToPSS::try_publish_prepared_batch`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns a copy that warms `classes` into every prepared artifact's
    /// tier cache during stage 1 (only meaningful with
    /// [`Config::tier_cache`] on; lazily-filled behaviour is
    /// byte-identical either way).
    #[must_use]
    pub fn with_verify_classes(mut self, classes: Vec<Tolerance>) -> Self {
        self.verify_classes = classes.into();
        self
    }

    /// The configuration snapshot this front-end prepares under.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Prepares one publication.
    pub fn prepare(&self, event: &Event) -> PreparedEvent {
        self.interner.with(|i| self.prepare_one(event, i))
    }

    /// The per-event stage-1 pass: [`prepare_event`] plus eager warming of
    /// the registered verification classes (the classifier tiers are
    /// warmed inside `prepare_event` itself).
    fn prepare_one(&self, event: &Event, interner: &Interner) -> PreparedEvent {
        let prepared = prepare_event(event, self.source.as_ref(), &self.config, interner);
        if self.config.tier_cache {
            for tolerance in self.verify_classes.iter() {
                prepared.tiers.tolerance_class(
                    tolerance,
                    &prepared.raw,
                    self.source.as_ref(),
                    self.config.now_year,
                    interner,
                    &self.config.limits.closure,
                );
            }
        }
        prepared
    }

    /// Prepares a batch of publications, in order.
    ///
    /// The per-event passes are independent pure functions, so the batch
    /// is chunked across up to [`Config::effective_parallelism`] scoped
    /// workers (capped by the host's available parallelism and by
    /// `MIN_EVENTS_PER_WORKER`); results are position-stable, so the
    /// output is identical to the sequential pass regardless of worker
    /// count.
    pub fn prepare_batch(&self, events: &[Event]) -> Vec<PreparedEvent> {
        let workers = self.batch_workers(events.len());
        if workers <= 1 {
            return self.interner.with(|i| events.iter().map(|e| self.prepare_one(e, i)).collect());
        }
        let chunk = events.len().div_ceil(workers);
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = events
                .chunks(chunk)
                .map(|chunk_events| {
                    scope.spawn(move |_| {
                        self.interner.with(|i| {
                            chunk_events.iter().map(|e| self.prepare_one(e, i)).collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            // Joined in spawn order, so event order is preserved.
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("invariant: front-end workers do not panic"))
                .collect()
        })
        .expect("invariant: front-end scope threads do not panic")
    }

    /// Worker count for a batch of `events` publications: bounded by the
    /// configured parallelism, the hardware, and the batch size.
    fn batch_workers(&self, events: usize) -> usize {
        let configured = self.config.effective_parallelism();
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        configured.min(hardware).min(events.div_ceil(MIN_EVENTS_PER_WORKER)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_ontology::Ontology;
    use stopss_types::{EventBuilder, Interner};

    fn world() -> (SharedInterner, Arc<Ontology>, Vec<Event>) {
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, &i).unwrap();
        o.taxonomy.add_isa(phd, grad, &i).unwrap();
        let events = vec![
            EventBuilder::new(&mut i).term("credential", "phd").build(),
            EventBuilder::new(&mut i).term("credential", "degree").build(),
            EventBuilder::new(&mut i).term("credential", "other").build(),
        ];
        (SharedInterner::from_interner(i), Arc::new(o), events)
    }

    #[test]
    fn prepare_flattened_carries_closure_and_provenance() {
        let (interner, source, events) = world();
        let frontend = SemanticFrontEnd::new(Config::default(), source, interner);
        let prepared = frontend.prepare(&events[0]);
        assert_eq!(prepared.raw, events[0]);
        assert_eq!(prepared.engine_events.len(), 1);
        assert_eq!(prepared.derived_events, 1);
        assert_eq!(prepared.closure_pairs, 3, "phd + graduate_degree + degree");
        assert_eq!(prepared.info.len(), 3, "pair provenance aligned with the closed event");
        assert!(!prepared.truncated);
    }

    #[test]
    fn prepare_materialize_carries_derivation_lattice() {
        let (interner, source, events) = world();
        let config = Config::default().with_strategy(Strategy::MaterializeEvents);
        let frontend = SemanticFrontEnd::new(config, source, interner);
        let prepared = frontend.prepare(&events[0]);
        // root, root+grad, root+degree, root+both.
        assert_eq!(prepared.derived_events, 4);
        assert_eq!(prepared.engine_events.len(), 4);
        assert_eq!(prepared.closure_pairs, 0);
        assert!(prepared.info.is_empty());
    }

    #[test]
    fn prepare_warms_classifier_tiers_only_with_provenance_on() {
        let (interner, source, events) = world();
        let warm = SemanticFrontEnd::new(Config::default(), source.clone(), interner.clone());
        assert!(warm.prepare(&events[0]).tiers.classifier_tiers_ready());
        let cold_configs =
            [Config::default().with_provenance(false), Config::default().with_tier_cache(false)];
        for config in cold_configs {
            let frontend = SemanticFrontEnd::new(config, source.clone(), interner.clone());
            assert!(!frontend.prepare(&events[0]).tiers.classifier_tiers_ready());
        }
    }

    #[test]
    fn tolerance_classes_are_shared_and_lazy() {
        use crate::tolerance::Tolerance;
        let (interner, source, events) = world();
        let frontend = SemanticFrontEnd::new(Config::default(), source.clone(), interner.clone());
        let prepared = frontend.prepare(&events[0]);
        assert_eq!(prepared.tiers.class_count(), 0, "classes fill on demand only");
        interner.with(|i| {
            let lim = ClosureLimits::default();
            let a = prepared.tiers.tolerance_class(
                &Tolerance::bounded(1),
                &prepared.raw,
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            // Same class again: served from the cache, same artifact.
            let b = prepared.tiers.tolerance_class(
                &Tolerance::bounded(1),
                &prepared.raw,
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            assert!(Arc::ptr_eq(&a, &b), "equal classes share one closure");
            assert_eq!(prepared.tiers.class_count(), 1);
            // Equivalent tolerances (hierarchy off ≡ distance 0) collapse.
            let c = prepared.tiers.tolerance_class(
                &Tolerance { stages: StageMask::all(), max_distance: Some(0) },
                &prepared.raw,
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            let d = prepared.tiers.tolerance_class(
                &Tolerance::stages(StageMask::all().without(StageMask::HIERARCHY)),
                &prepared.raw,
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            assert!(Arc::ptr_eq(&c, &d), "verify classes collapse equivalent tolerances");
            assert_eq!(prepared.tiers.class_count(), 2);
            // The cached closure equals a fresh oracle-side closure.
            let fresh = semantic_closure(
                &prepared.raw,
                source.as_ref(),
                StageMask::all(),
                Some(1),
                2003,
                i,
                &lim,
            );
            assert_eq!(a.event, fresh.event);
            assert_eq!(a.truncated, fresh.truncated);
        });
        // Cloning an artifact snapshots the cache contents.
        let cloned = prepared.clone();
        assert_eq!(cloned.tiers.class_count(), 2);
        assert!(cloned.tiers.classifier_tiers_ready());
    }

    #[test]
    fn classify_with_tiers_matches_oracle_on_the_taxonomy_world() {
        use crate::oracle::classify_match;
        use stopss_types::{SubId, SubscriptionBuilder};
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, &i).unwrap();
        o.taxonomy.add_isa(phd, grad, &i).unwrap();
        let subs = [
            SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1)),
            SubscriptionBuilder::new(&mut i)
                .term_eq("credential", "graduate_degree")
                .build(SubId(2)),
            SubscriptionBuilder::new(&mut i).term_eq("credential", "phd").build(SubId(3)),
        ];
        let event = EventBuilder::new(&mut i).term("credential", "phd").build();
        let lim = ClosureLimits::default();
        let tiers = TierCache::new();
        for sub in &subs {
            let want = classify_match(sub, &event, &o, StageMask::all(), 2003, &i, &lim);
            let got =
                classify_with_tiers(sub, sub, &event, &tiers, &o, StageMask::all(), 2003, &i, &lim);
            assert_eq!(got, want, "sub {:?}", sub.id());
        }
    }

    #[test]
    fn prepare_batch_equals_per_event_prepare_for_any_worker_count() {
        let (interner, source, events) = world();
        // Repeat the events so the batch is big enough to chunk.
        let batch: Vec<Event> = events.iter().cycle().take(40).cloned().collect();
        for parallelism in [1usize, 3] {
            let config = Config::default().with_shards(4).with_parallelism(parallelism);
            let frontend = SemanticFrontEnd::new(config, source.clone(), interner.clone());
            let batched = frontend.prepare_batch(&batch);
            assert_eq!(batched.len(), batch.len());
            for (got, event) in batched.iter().zip(&batch) {
                let want = frontend.prepare(event);
                assert_eq!(got.raw, want.raw);
                assert_eq!(got.engine_events, want.engine_events);
                assert_eq!(got.derived_events, want.derived_events);
                assert_eq!(got.closure_pairs, want.closure_pairs);
                assert_eq!(got.truncated, want.truncated);
            }
        }
    }
}
