//! Differential suite: a sharded matcher is observably identical to
//! independent one-shard matchers and to the semantic oracle.
//!
//! `SToPSS` promises byte-identical results — match sets, provenance,
//! ordering, and `MatcherStats` — for every shard count, because shards
//! partition subscriptions while the engine-independent event-side work
//! runs once in the shared semantic front-end (see `stopss_core::sharded`
//! and `stopss_core::frontend` module docs;
//! `crates/core/tests/frontend_differential.rs` pins the hoisted artifact
//! against per-shard recomputation directly). No reference here runs the
//! matcher's shard routing, fan-out or merge: each row is checked against
//! N fresh one-shard matchers, each fed only its partition, and — for the
//! flattened-closure rows that do not truncate — against `semantic_match`
//! / `classify_match` directly. This suite pins the end-to-end promise on
//! generated workloads (the realistic job-finder domain and a synthetic
//! taxonomy domain), swept across every syntactic engine × every strategy
//! × representative stage masks × shard counts {1, 2, 8}, with
//! per-subscription tolerances in the mix, plus determinism regressions
//! (repeat publication, batch vs per-event feeding, and one golden
//! match-set).

use s_topss::core::{
    classify_match, semantic_match, shard_of, Config, Match, MatcherStats, SToPSS, StageMask,
    Strategy, Tolerance,
};
use s_topss::matching::EngineKind;
use s_topss::types::{Event, Subscription};
use s_topss::workload::{
    jobfinder_fixture, synthetic_fixture, Fixture, SyntheticConfig, SyntheticWorkload,
};

/// Stage masks exercising every stage alone and in combination with the
/// stage-interleaving cases (hierarchy ⇄ mapping) that stress the closure.
fn representative_masks() -> [StageMask; 5] {
    [
        StageMask::syntactic(),
        StageMask::SYNONYM,
        StageMask::SYNONYM.with(StageMask::HIERARCHY),
        StageMask::HIERARCHY.with(StageMask::MAPPING),
        StageMask::all(),
    ]
}

/// Tolerances assigned round-robin so shards hold a mix of verify-needing
/// and default-tolerance subscriptions.
fn tolerance_for(k: usize) -> Option<Tolerance> {
    match k % 5 {
        3 => Some(Tolerance::bounded(1)),
        4 => Some(Tolerance::syntactic()),
        _ => None,
    }
}

/// Registers the fixture's subscriptions that pass `keep`, each with its
/// round-robin tolerance.
fn subscribe_where(fixture: &Fixture, matcher: &SToPSS, keep: impl Fn(&Subscription) -> bool) {
    for (k, sub) in fixture.subscriptions.iter().enumerate() {
        if !keep(sub) {
            continue;
        }
        match tolerance_for(k) {
            Some(t) => matcher.subscribe_with_tolerance(sub.clone(), t),
            None => matcher.subscribe(sub.clone()),
        };
    }
}

fn subscribe_all(fixture: &Fixture, matcher: &SToPSS) {
    subscribe_where(fixture, matcher, |_| true);
}

fn matcher(fixture: &Fixture, config: Config) -> SToPSS {
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    subscribe_all(fixture, &matcher);
    matcher
}

/// What the replicated reference predicts for a run.
struct Reference {
    /// Per publication: the merged match set.
    matches: Vec<Vec<Match>>,
    /// Per publication: whether the semantic pass truncated.
    truncated: Vec<bool>,
    /// The statistics a sharded matcher must report.
    stats: MatcherStats,
}

/// The replicated reference: `shards` fresh one-shard matchers, each fed
/// only its partition of the subscriptions, every publication published
/// on each. Match sets are the sorted union; the event-side counters come
/// from one partition (they do not depend on subscriptions) and the
/// subscription-side counters are summed over the partitions.
fn replicated_reference(fixture: &Fixture, config: Config, shards: usize) -> Reference {
    let partitions: Vec<SToPSS> = (0..shards)
        .map(|p| {
            let one = SToPSS::new(
                config.with_shards(1),
                fixture.source.clone(),
                fixture.interner.clone(),
            );
            subscribe_where(fixture, &one, |sub| shard_of(sub.id(), shards) == p);
            one
        })
        .collect();
    let mut matches = Vec::with_capacity(fixture.publications.len());
    let mut truncated = Vec::with_capacity(fixture.publications.len());
    for event in &fixture.publications {
        let mut merged: Vec<Match> = Vec::new();
        let mut clipped = false;
        for partition in &partitions {
            let result = partition.publish_detailed(event);
            clipped |= result.truncated;
            merged.extend(result.matches);
        }
        merged.sort_unstable_by_key(|m| m.sub);
        matches.push(merged);
        truncated.push(clipped);
    }
    let mut stats = partitions[0].stats();
    stats.verifications = 0;
    stats.verify_rejections = 0;
    stats.rewrite_truncations = 0;
    for partition in &partitions {
        let p = partition.stats();
        stats.verifications += p.verifications;
        stats.verify_rejections += p.verify_rejections;
        stats.rewrite_truncations += p.rewrite_truncations;
    }
    Reference { matches, truncated, stats }
}

/// The semantic oracle's match set for every publication: each
/// subscription `semantic_match` accepts under its effective tolerance,
/// with `classify_match` provenance, sorted by id. Independent of the
/// engine and the shard count, so a sweep computes it once per stage mask.
fn oracle_matches(fixture: &Fixture, config: Config) -> Vec<Vec<Match>> {
    let system = config.system_tolerance();
    let limits = &config.limits.closure;
    let source = fixture.source.as_ref();
    fixture.interner.with(|i| {
        let oracle = |event: &Event| -> Vec<Match> {
            let mut out: Vec<Match> = fixture
                .subscriptions
                .iter()
                .enumerate()
                .filter(|(k, sub)| {
                    let effective = tolerance_for(*k).unwrap_or(system).clamp_to(&system);
                    semantic_match(sub, event, source, &effective, 2003, i, limits)
                })
                .map(|(_, sub)| Match {
                    sub: sub.id(),
                    origin: classify_match(sub, event, source, config.stages, 2003, i, limits),
                })
                .collect();
            out.sort_unstable_by_key(|m| m.sub);
            out
        };
        fixture.publications.iter().map(oracle).collect()
    })
}

/// Publishes the whole fixture through a `shards`-shard matcher (per
/// event, or as one batch) and asserts exact agreement with the
/// replicated reference on matches + provenance per event and on stats,
/// and with the semantic oracle (when given: the flattened-closure rows)
/// on every publication the closure bounds did not truncate.
fn assert_differential(
    fixture: &Fixture,
    config: Config,
    batch: bool,
    oracle: Option<&[Vec<Match>]>,
    label: &str,
) {
    let shards = config.effective_shards();
    let reference = replicated_reference(fixture, config, shards);
    let sharded = matcher(fixture, config);
    assert_eq!(sharded.shard_count(), shards, "{label}");
    assert_eq!(sharded.len(), fixture.subscriptions.len(), "{label}: subscription counts");
    let got: Vec<Vec<Match>> = if batch {
        sharded.publish_batch(&fixture.publications)
    } else {
        fixture.publications.iter().map(|e| sharded.publish(e)).collect()
    };
    for (k, (got, want)) in got.iter().zip(&reference.matches).enumerate() {
        assert_eq!(got, want, "{label}: event #{k} diverged from the replicated reference");
    }
    assert_eq!(sharded.stats(), reference.stats, "{label}: stats diverged");
    for (k, want) in oracle.into_iter().flatten().enumerate() {
        if !reference.truncated[k] {
            assert_eq!(&got[k], want, "{label}: event #{k} diverged from the semantic oracle");
        }
    }
}

/// Sweeps engines × strategies × masks × shard counts; the
/// flattened-closure rows are also checked against the semantic oracle.
fn sweep(fixture: &Fixture, masks: &[StageMask], shard_counts: &[usize]) {
    for &stages in masks {
        let oracle = oracle_matches(fixture, Config::default().with_stages(stages));
        for strategy in Strategy::ALL {
            let oracle = (strategy == Strategy::GeneralizedEvent).then_some(oracle.as_slice());
            for engine in EngineKind::ALL {
                for &shards in shard_counts {
                    let config = Config::default()
                        .with_engine(engine)
                        .with_strategy(strategy)
                        .with_stages(stages)
                        .with_shards(shards);
                    let label = format!(
                        "engine={} strategy={} stages={:?} shards={}",
                        engine.name(),
                        strategy.name(),
                        stages,
                        shards
                    );
                    assert_differential(fixture, config, true, oracle, &label);
                }
            }
        }
    }
}

#[test]
fn jobfinder_sharded_equals_single_across_engines_strategies_masks() {
    let fixture = jobfinder_fixture(100, 24, 42);
    sweep(&fixture, &representative_masks(), &[1, 2, 8]);
}

#[test]
fn synthetic_sharded_equals_single_across_engines_strategies_masks() {
    let shape = SyntheticConfig { attrs: 3, depth: 3, fanout: 2, ..Default::default() };
    let workload = SyntheticWorkload {
        subscriptions: 80,
        publications: 16,
        general_term_bias: 0.7,
        seed: 7,
        ..Default::default()
    };
    let fixture = synthetic_fixture(&shape, &workload);
    sweep(&fixture, &representative_masks(), &[1, 2, 8]);
}

#[test]
fn constrained_parallelism_is_equivalent_too() {
    let fixture = jobfinder_fixture(80, 20, 11);
    for parallelism in [1usize, 2, 5] {
        let config = Config::default().with_shards(8).with_parallelism(parallelism);
        let label = format!("parallelism={parallelism}");
        assert_differential(&fixture, config, false, None, &label);
    }
}

/// Pipelined-vs-barrier equivalence across engines × strategies × stage
/// masks: `publish_batch` now overlaps stage 1 of chunk k+1 with stage 2
/// of chunk k, and must stay byte-identical — matches, provenance,
/// ordering, aggregated stats — to both the explicit two-stage barrier
/// (`frontend().prepare_batch()` + `publish_prepared_batch()`) and a
/// one-shard matcher. The batch spans several pipeline chunks so
/// the overlap actually engages.
#[test]
fn pipelined_equals_barrier_across_engines_strategies_masks() {
    let fixture = jobfinder_fixture(100, 72, 42);
    for engine in EngineKind::ALL {
        for strategy in Strategy::ALL {
            for stages in representative_masks() {
                // Explicit parallelism forces the stage overlap even on
                // single-core hosts (`Config::pipeline_overlap`).
                let config = Config::default()
                    .with_engine(engine)
                    .with_strategy(strategy)
                    .with_stages(stages)
                    .with_shards(4)
                    .with_parallelism(2);
                let label = format!(
                    "engine={} strategy={} stages={stages:?}",
                    engine.name(),
                    strategy.name()
                );
                let single = matcher(&fixture, config.with_shards(1));
                let want: Vec<Vec<Match>> =
                    fixture.publications.iter().map(|e| single.publish(e)).collect();

                let barrier = matcher(&fixture, config);
                let prepared = barrier.frontend().prepare_batch(&fixture.publications);
                let from_barrier: Vec<Vec<Match>> = barrier
                    .publish_prepared_batch(&prepared)
                    .into_iter()
                    .map(|r| r.matches)
                    .collect();

                let pipelined = matcher(&fixture, config);
                let from_pipeline = pipelined.publish_batch(&fixture.publications);

                assert_eq!(from_barrier, want, "{label}: barrier vs single");
                assert_eq!(from_pipeline, want, "{label}: pipelined vs single");
                assert_eq!(barrier.stats(), single.stats(), "{label}: barrier stats");
                assert_eq!(pipelined.stats(), single.stats(), "{label}: pipelined stats");
            }
        }
    }
}

/// The pipeline under a constrained worker budget (including the
/// budget-1 case, where `publish_batch` must fall back to the barrier)
/// stays equivalent too.
#[test]
fn pipelined_constrained_parallelism_is_equivalent() {
    let fixture = jobfinder_fixture(80, 70, 11);
    let single = matcher(&fixture, Config::default());
    let want: Vec<Vec<Match>> = fixture.publications.iter().map(|e| single.publish(e)).collect();
    for parallelism in [1usize, 2, 5] {
        let config = Config::default().with_shards(8).with_parallelism(parallelism);
        let sharded = matcher(&fixture, config);
        let got = sharded.publish_batch(&fixture.publications);
        assert_eq!(got, want, "parallelism={parallelism}");
        assert_eq!(sharded.stats(), single.stats(), "parallelism={parallelism} stats");
    }
}

// ---------------------------------------------------------------------
// Determinism regressions.

#[test]
fn same_fixture_published_twice_yields_identical_ordered_results() {
    let fixture = jobfinder_fixture(120, 30, 9);
    let config = Config::default().with_shards(8);
    let run = || {
        let matcher = fixture.matcher(config);
        let sets: Vec<Vec<Match>> =
            fixture.publications.iter().map(|e| matcher.publish(e)).collect();
        (sets, matcher.stats())
    };
    let (first, first_stats) = run();
    let (second, second_stats) = run();
    assert_eq!(first, second, "thread scheduling must not leak into results");
    assert_eq!(first_stats, second_stats);
}

#[test]
fn publish_batch_equals_per_event_publish() {
    let fixture = jobfinder_fixture(120, 30, 9);
    let config = Config::default().with_shards(8);
    let per_event = fixture.matcher(config);
    let sequential: Vec<Vec<Match>> =
        fixture.publications.iter().map(|e| per_event.publish(e)).collect();
    for batch_size in [1usize, 7, 30] {
        let batched = fixture.matcher(config);
        let got = fixture.feed_batches(&batched, batch_size);
        assert_eq!(got, sequential, "batch_size={batch_size}");
        assert_eq!(batched.stats(), per_event.stats(), "batch_size={batch_size} stats");
    }
}

/// One pinned golden match-set: catches accidental nondeterminism (or a
/// silent semantics change) that the self-comparing tests above could
/// miss if both runs drifted together.
#[test]
fn golden_match_set_is_pinned() {
    let fixture = jobfinder_fixture(40, 10, 2003);
    let matcher = fixture.matcher(Config::default().with_shards(8));
    let got: Vec<Vec<u64>> = fixture
        .publications
        .iter()
        .map(|e| matcher.publish(e).iter().map(|m| m.sub.0).collect())
        .collect();
    let want: Vec<Vec<u64>> = vec![
        // Golden, recorded from the verified single-threaded behaviour of
        // the seed (jobfinder fixture: 40 subs, 10 pubs, seed 2003).
        vec![24, 35],
        vec![14, 24, 35],
        vec![16, 24, 29, 35, 37],
        vec![24, 26],
        vec![24, 33],
        vec![1, 18, 22, 24, 25, 33, 35, 39],
        vec![24, 26],
        vec![24, 34],
        vec![1, 6, 18, 24, 26, 33],
        vec![1, 6, 18, 22, 24, 25, 33, 39],
    ];
    assert_eq!(got, want, "golden match-set drifted");
    // The golden set must also be what a one-shard matcher says.
    let single = fixture.matcher(Config::default());
    let single_ids: Vec<Vec<u64>> = fixture
        .publications
        .iter()
        .map(|e| single.publish(e).iter().map(|m| m.sub.0).collect())
        .collect();
    assert_eq!(got, single_ids);
}
