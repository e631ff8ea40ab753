//! Differential suite for the event-side tier cache.
//!
//! The tier-cache PR rewrote the hot back-end: per-candidate tolerance
//! verification became one `sub.matches(closed)` against a cached
//! per-tolerance-class closure, and provenance classification reads the
//! minimal hierarchy distance off the cached unbounded closure's
//! `PairInfo` instead of re-closing the event once per candidate
//! distance. The oracle functions (`semantic_match`, `classify_match`)
//! are untouched ground truth, and `Config::tier_cache = false` keeps the
//! per-candidate oracle path runnable — so this suite pins the two paths
//! **byte-identical** (matches, provenance including `Hierarchy {
//! distance }` values, and aggregated stats) across engines × strategies
//! × stage masks × mixed per-subscription tolerances, on job-finder and
//! synthetic workloads, including truncated-closure and distance-cap edge
//! cases.

use std::sync::Arc;

use s_topss::core::{
    classify_match, ClosureLimits, Config, Limits, SToPSS, StageMask, Strategy, Tolerance,
    CLASSIFY_DISTANCE_CAP,
};
use s_topss::matching::EngineKind;
use s_topss::ontology::Ontology;
use s_topss::prelude::{
    Event, EventBuilder, Interner, MatchOrigin, SharedInterner, SubId, Subscription,
    SubscriptionBuilder,
};
use s_topss::workload::{jobfinder_fixture, synthetic_fixture, Fixture, SyntheticWorkload};
use stopss_workload::SyntheticConfig;

/// Mixed per-subscription tolerances: several distinct verification
/// classes, including ones that opt out of stages entirely.
fn tolerance_cycle() -> [Tolerance; 6] {
    [
        Tolerance::full(),
        Tolerance::bounded(1),
        Tolerance::bounded(2),
        Tolerance::stages(StageMask::SYNONYM),
        Tolerance::stages(StageMask::SYNONYM.with(StageMask::HIERARCHY)),
        Tolerance::syntactic(),
    ]
}

fn matcher_with_mixed_tolerances(fixture: &Fixture, config: Config) -> SToPSS {
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    let cycle = tolerance_cycle();
    for (k, sub) in fixture.subscriptions.iter().enumerate() {
        matcher.subscribe_with_tolerance(sub.clone(), cycle[k % cycle.len()]);
    }
    matcher
}

/// Publishes every event through a tier-cached matcher and an oracle-path
/// matcher under `config` and asserts byte-identical matches (with
/// provenance) and lifetime stats.
fn assert_paths_agree(fixture: &Fixture, config: Config, label: &str) {
    let fast = matcher_with_mixed_tolerances(fixture, config.with_tier_cache(true));
    let oracle = matcher_with_mixed_tolerances(fixture, config.with_tier_cache(false));
    for (k, event) in fixture.publications.iter().enumerate() {
        let want = oracle.publish_detailed(event);
        let got = fast.publish_detailed(event);
        assert_eq!(got.matches, want.matches, "{label}: event {k} diverged");
        assert_eq!(got.derived_events, want.derived_events, "{label}: event {k}");
        assert_eq!(got.closure_pairs, want.closure_pairs, "{label}: event {k}");
        assert_eq!(got.truncated, want.truncated, "{label}: event {k}");
    }
    assert_eq!(fast.stats(), oracle.stats(), "{label}: stats diverged");
}

#[test]
fn jobfinder_fast_path_equals_oracle_across_engines_and_strategies() {
    let fixture = jobfinder_fixture(120, 30, 7);
    for engine in EngineKind::ALL {
        for strategy in Strategy::ALL {
            let config = Config::default().with_engine(engine).with_strategy(strategy);
            assert_paths_agree(
                &fixture,
                config,
                &format!("jobfinder engine={} strategy={}", engine.name(), strategy.name()),
            );
        }
    }
}

#[test]
fn jobfinder_fast_path_equals_oracle_across_stage_masks() {
    let fixture = jobfinder_fixture(120, 30, 11);
    let masks = [
        StageMask::syntactic(),
        StageMask::SYNONYM,
        StageMask::SYNONYM.with(StageMask::HIERARCHY),
        StageMask::HIERARCHY.with(StageMask::MAPPING),
        StageMask::all(),
    ];
    for stages in masks {
        for strategy in Strategy::ALL {
            let config = Config::default().with_stages(stages).with_strategy(strategy);
            assert_paths_agree(
                &fixture,
                config,
                &format!("jobfinder stages={stages:?} strategy={}", strategy.name()),
            );
        }
    }
}

#[test]
fn synthetic_deep_taxonomy_fast_path_equals_oracle() {
    // Deep taxonomy → hierarchy matches at many distinct distances, the
    // case the PairInfo-derived classification must get exactly right.
    let shape = SyntheticConfig { attrs: 3, depth: 5, fanout: 2, ..Default::default() };
    let workload = SyntheticWorkload {
        subscriptions: 150,
        publications: 40,
        general_term_bias: 0.8,
        ..Default::default()
    };
    let fixture = synthetic_fixture(&shape, &workload);
    for stages in [StageMask::SYNONYM.with(StageMask::HIERARCHY), StageMask::all()] {
        for strategy in Strategy::ALL {
            let config = Config::default().with_stages(stages).with_strategy(strategy);
            assert_paths_agree(
                &fixture,
                config,
                &format!("synthetic stages={stages:?} strategy={}", strategy.name()),
            );
        }
    }
}

#[test]
fn truncated_closures_fall_back_to_the_oracle_exactly() {
    // Budgets tight enough that closures truncate (mapping chains keep
    // deriving); the fast path must defer to the oracle and stay
    // byte-identical, including truncation counters.
    let shape =
        SyntheticConfig { attrs: 3, depth: 4, fanout: 2, mapping_chain: 4, ..Default::default() };
    let workload = SyntheticWorkload {
        subscriptions: 100,
        publications: 30,
        general_term_bias: 0.8,
        ..Default::default()
    };
    let fixture = synthetic_fixture(&shape, &workload);
    for (max_pairs, max_rounds) in [(4usize, 8u32), (64, 1), (6, 2)] {
        let limits =
            Limits { closure: ClosureLimits { max_pairs, max_rounds }, ..Limits::default() };
        let config = Config { limits, ..Config::default() };
        assert_paths_agree(
            &fixture,
            config,
            &format!("truncation max_pairs={max_pairs} max_rounds={max_rounds}"),
        );
    }
}

/// A linear `c0 is-a c1 is-a … is-a c_depth` taxonomy world.
fn chain_world(depth: usize) -> (SharedInterner, Arc<Ontology>, Subscription, Event) {
    let mut i = Interner::new();
    let mut o = Ontology::new("chain");
    let mut below = i.intern("c0");
    for k in 1..=depth {
        let above = i.intern(&format!("c{k}"));
        o.taxonomy.add_isa(below, above, &i).unwrap();
        below = above;
    }
    let sub = SubscriptionBuilder::new(&mut i).term_eq("x", &format!("c{depth}")).build(SubId(1));
    let event = EventBuilder::new(&mut i).term("x", "c0").build();
    (SharedInterner::from_interner(i), Arc::new(o), sub, event)
}

#[test]
fn distance_cap_is_reported_identically_past_the_search_horizon() {
    // The match needs distance 70 — beyond CLASSIFY_DISTANCE_CAP — so the
    // oracle's linear search exhausts and reports the cap; the cached
    // classification must clamp to the same value.
    let (interner, source, sub, event) = chain_world(70);
    for tier_cache in [true, false] {
        let config = Config::default().with_tier_cache(tier_cache);
        let matcher = SToPSS::new(config, source.clone(), interner.clone());
        matcher.subscribe(sub.clone());
        let matches = matcher.publish(&event);
        assert_eq!(matches.len(), 1, "tier_cache={tier_cache}");
        assert_eq!(
            matches[0].origin,
            MatchOrigin::Hierarchy { distance: CLASSIFY_DISTANCE_CAP },
            "tier_cache={tier_cache}"
        );
    }
    // Below the cap both paths report the exact distance.
    let (interner, source, sub, event) = chain_world(9);
    for tier_cache in [true, false] {
        let config = Config::default().with_tier_cache(tier_cache);
        let matcher = SToPSS::new(config, source.clone(), interner.clone());
        matcher.subscribe(sub.clone());
        let matches = matcher.publish(&event);
        assert_eq!(matches[0].origin, MatchOrigin::Hierarchy { distance: 9 });
    }
}

#[test]
fn multi_path_derivations_report_the_minimal_distance() {
    // `top` is derivable from `far` (distance 2) and `near` (distance 1);
    // the closure visits `far` first, so a first-derivation-wins record
    // would misreport the distance as 2. Both paths must say 1.
    let mut i = Interner::new();
    let mut o = Ontology::new("t");
    let far = i.intern("far");
    let mid = i.intern("mid");
    let near = i.intern("near");
    let top = i.intern("top");
    o.taxonomy.add_isa(far, mid, &i).unwrap();
    o.taxonomy.add_isa(mid, top, &i).unwrap();
    o.taxonomy.add_isa(near, top, &i).unwrap();
    let sub = SubscriptionBuilder::new(&mut i).term_eq("x", "top").build(SubId(1));
    let event = EventBuilder::new(&mut i).term("x", "far").term("x", "near").build();
    let interner = SharedInterner::from_interner(i);
    let source = Arc::new(o);
    interner.with(|i| {
        let want = classify_match(
            &sub,
            &event,
            source.as_ref(),
            StageMask::all(),
            2003,
            i,
            &ClosureLimits::default(),
        );
        assert_eq!(want, MatchOrigin::Hierarchy { distance: 1 }, "oracle ground truth");
    });
    for tier_cache in [true, false] {
        let config = Config::default().with_tier_cache(tier_cache);
        let matcher = SToPSS::new(config, source.clone(), interner.clone());
        matcher.subscribe(sub.clone());
        let matches = matcher.publish(&event);
        assert_eq!(matches[0].origin, MatchOrigin::Hierarchy { distance: 1 });
    }
}

#[test]
fn sharded_fast_path_equals_single_threaded_oracle() {
    // End to end across the concurrency axis: a sharded matcher (tier
    // cache shared by concurrent shards) against the one-shard oracle
    // path, with mixed tolerances and batched publishing.
    let fixture = jobfinder_fixture(160, 40, 23);
    for shards in [2usize, 8] {
        let config = Config::default().with_shards(shards).with_parallelism(shards.min(4));
        let sharded = matcher_with_mixed_tolerances(&fixture, config);
        assert_eq!(sharded.shard_count(), shards);
        let oracle =
            matcher_with_mixed_tolerances(&fixture, config.with_shards(1).with_tier_cache(false));
        let batched = sharded.publish_batch(&fixture.publications);
        let want: Vec<Vec<s_topss::core::Match>> =
            fixture.publications.iter().map(|e| oracle.publish(e)).collect();
        assert_eq!(batched, want, "shards={shards}");
        assert_eq!(sharded.stats(), oracle.stats(), "shards={shards} stats");
    }
}
