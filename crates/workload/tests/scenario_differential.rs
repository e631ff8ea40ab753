//! Property test: every generated scenario — all four domains, optionally
//! pre-churned — round-trips through [`Fixture`] with identical match
//! sets and matcher stats across shard counts {1, 4} and both batch
//! paths (the pipelined `publish_batch` and the explicit
//! prepare-then-match barrier). The sharding/pipelining machinery must be
//! invisible to every workload shape, not just the jobfinder the existing
//! differential covers.

use proptest::prelude::*;

use stopss_core::{Config, Match, MatcherStats};
use stopss_workload::{
    churn_scenario, geo_fixture, iot_fixture, jobfinder_fixture, market_fixture,
    replay_interleaved, replay_sequential, ChurnMode, Fixture,
};

fn fixture_for(domain: usize, seed: u64) -> (&'static str, Fixture) {
    match domain {
        0 => ("jobfinder", jobfinder_fixture(25, 20, seed)),
        1 => ("iot", iot_fixture(25, 20, seed)),
        2 => ("market", market_fixture(25, 20, seed)),
        _ => ("geo", geo_fixture(25, 20, seed)),
    }
}

/// Match sets + final stats for one (shards, batch path) combination.
fn run(fixture: &Fixture, shards: usize, barrier: bool) -> (Vec<Vec<Match>>, MatcherStats) {
    // `with_parallelism(shards)` keeps the pipelined path's stage overlap
    // on even when the host reports few cores.
    let config = Config::default().with_shards(shards).with_parallelism(shards);
    let matcher = fixture.matcher(config);
    let matches = if barrier {
        let prepared = matcher.frontend().prepare_batch(&fixture.publications);
        matcher.publish_prepared_batch(&prepared).into_iter().map(|r| r.matches).collect()
    } else {
        matcher.publish_batch(&fixture.publications)
    };
    (matches, matcher.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All domains: sharded {1,4} × pipelined/barrier agree on matches
    /// and stats.
    #[test]
    fn every_domain_is_shard_and_path_invariant(
        domain in 0usize..4,
        seed in 0u64..500,
    ) {
        let (name, fixture) = fixture_for(domain, seed);
        let (want_matches, want_stats) = run(&fixture, 1, false);
        for shards in [1usize, 4] {
            for barrier in [false, true] {
                let (matches, stats) = run(&fixture, shards, barrier);
                prop_assert_eq!(
                    &matches, &want_matches,
                    "{}: match sets diverged (shards {}, barrier {})", name, shards, barrier
                );
                prop_assert_eq!(
                    stats, want_stats,
                    "{}: stats diverged (shards {}, barrier {})", name, shards, barrier
                );
            }
        }
    }

    /// All domains × churn modes: the interleaved replay matches the
    /// fresh one-shard oracle with one shard and with four.
    #[test]
    fn every_domain_survives_churn(
        domain in 0usize..4,
        mode in 0usize..2,
        seed in 0u64..500,
    ) {
        let (name, fixture) = fixture_for(domain, seed);
        let mode = if mode == 0 { ChurnMode::UnsubscribeHeavy } else { ChurnMode::FlashCrowd };
        let scenario = churn_scenario(&fixture, mode, 60, seed ^ 0xC0FFEE);
        let config = Config::default();
        let sequential = replay_sequential(&fixture, &scenario, config);
        let interleaved = replay_interleaved(&fixture, &scenario, config);
        prop_assert_eq!(&interleaved, &sequential, "{}/{:?}: one shard diverged", name, mode);
        let sharded = replay_interleaved(&fixture, &scenario, config.with_shards(4));
        prop_assert_eq!(&sharded, &sequential, "{}/{:?}: four shards diverged", name, mode);
    }
}
