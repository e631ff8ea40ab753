//! E10 — sharded-matcher scaling: shard counts × engines × design.
//!
//! Batched publish latency of the sharded matcher on the job-finder
//! workload as the shard count grows, for each syntactic engine, along
//! two comparison axes:
//!
//! * **pipelined vs barrier** — `pipelined` is the production
//!   [`stopss_core::SToPSS::publish_batch`]: the front-end
//!   prepares pipeline chunk *k+1* on a scoped worker while the shards
//!   match chunk *k*; `barrier` composes the same two stages without
//!   overlap (`frontend().prepare_batch()` then
//!   `publish_prepared_batch()` — the pre-pipelining behaviour);
//! * **hoisted vs replicated** — the `barrier`/`pipelined` designs both
//!   hoist the semantic front-end (closure / materialization runs once
//!   per publication); `replicated` is the PR-2 baseline
//!   ([`stopss_bench::ReplicatedSharded`]) where every shard recomputes
//!   the full semantic pass per publication;
//! * **churn** — publisher threads stream batches while the control
//!   plane subscribes/unsubscribes/re-points the ontology concurrently:
//!   publisher throughput under churn plus mean control-op latency, the
//!   axis the epoch-snapshot control plane buys (control ops fork
//!   snapshots aside instead of write-locking publishers out).
//!
//! Shard count 1 is the single-engine baseline (no fan-out win; the
//! pipelined mode also degrades to the barrier there, since one worker
//! has no budget for stage overlap). Besides the criterion-stub report,
//! the bench emits the machine-readable perf trajectory
//! `BENCH_sharding.json` at the repo root; CI regenerates it, fails if
//! the pipelined-vs-barrier axis is missing, and the file is committed
//! so `git log` shows the trajectory PR-over-PR.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use stopss_bench::{
    matcher_for, render_bench_json, sweep_json_fields, timed_barrier_batch_sweep,
    timed_batch_sweep, timed_replicated_batch_sweep, JsonRow, JsonValue, ReplicatedSharded,
};
use stopss_core::Config;
use stopss_matching::EngineKind;
use stopss_workload::{jobfinder_fixture, Fixture};

const SUBSCRIPTIONS: usize = 1_000;
const PUBLICATIONS: usize = 256;
const BATCH: usize = 64;
const WARMUP: usize = 32;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config_for(engine: EngineKind, shards: usize) -> Config {
    Config::default().with_engine(engine).with_provenance(false).with_shards(shards)
}

fn bench_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharding_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let fixture = jobfinder_fixture(SUBSCRIPTIONS, PUBLICATIONS, 17);
    for engine in EngineKind::ALL {
        for shards in SHARD_COUNTS {
            let config = config_for(engine, shards);
            let events = &fixture.publications;

            let pipelined = matcher_for(&fixture, config);
            let mut idx = 0usize;
            group.bench_with_input(
                BenchmarkId::new(engine.name(), format!("shards={shards}/pipelined")),
                &shards,
                |b, _| {
                    b.iter(|| {
                        let start = (idx * BATCH) % events.len();
                        let end = (start + BATCH).min(events.len());
                        idx += 1;
                        let sets = pipelined.publish_batch(&events[start..end]);
                        black_box(sets.iter().map(Vec::len).sum::<usize>())
                    })
                },
            );

            let barrier = matcher_for(&fixture, config);
            let mut idx = 0usize;
            group.bench_with_input(
                BenchmarkId::new(engine.name(), format!("shards={shards}/barrier")),
                &shards,
                |b, _| {
                    b.iter(|| {
                        let start = (idx * BATCH) % events.len();
                        let end = (start + BATCH).min(events.len());
                        idx += 1;
                        let result =
                            timed_barrier_batch_sweep(&barrier, &events[start..end], BATCH, 0);
                        black_box(result.matches)
                    })
                },
            );

            let mut replicated = ReplicatedSharded::new(&fixture, config);
            let mut idx = 0usize;
            group.bench_with_input(
                BenchmarkId::new(engine.name(), format!("shards={shards}/replicated")),
                &shards,
                |b, _| {
                    b.iter(|| {
                        let start = (idx * BATCH) % events.len();
                        let end = (start + BATCH).min(events.len());
                        idx += 1;
                        let sets = replicated.publish_batch(&events[start..end]);
                        black_box(sets.iter().map(Vec::len).sum::<usize>())
                    })
                },
            );
        }
    }
    group.finish();
}

/// Sweep passes per configuration; the fastest is reported (best-of-N
/// suppresses scheduler noise, which on small machines can exceed the
/// per-shard closure cost being measured). The three designs' passes are
/// interleaved in time so frequency/scheduler drift hits all of them
/// equally instead of biasing whichever ran later.
const PASSES: usize = 5;

/// Full-pass timed sweeps for the committed perf trajectory: per engine ×
/// shard count, the `pipelined` / `barrier` / `replicated` modes.
fn trajectory_rows(fixture: &Fixture) -> Vec<JsonRow> {
    let mut rows = Vec::new();
    for engine in EngineKind::ALL {
        for shards in SHARD_COUNTS {
            let config = config_for(engine, shards);
            let pipelined = matcher_for(fixture, config);
            let barrier = matcher_for(fixture, config);
            let mut replicated = ReplicatedSharded::new(fixture, config);
            let mut best_pipelined: Option<stopss_bench::SweepResult> = None;
            let mut best_barrier: Option<stopss_bench::SweepResult> = None;
            let mut best_replicated: Option<stopss_bench::SweepResult> = None;
            for _ in 0..PASSES {
                let p = timed_batch_sweep(&pipelined, &fixture.publications, BATCH, WARMUP);
                if best_pipelined.as_ref().is_none_or(|b| p.ns_per_event < b.ns_per_event) {
                    best_pipelined = Some(p);
                }
                let h = timed_barrier_batch_sweep(&barrier, &fixture.publications, BATCH, WARMUP);
                if best_barrier.as_ref().is_none_or(|b| h.ns_per_event < b.ns_per_event) {
                    best_barrier = Some(h);
                }
                let r = timed_replicated_batch_sweep(
                    &mut replicated,
                    &fixture.publications,
                    BATCH,
                    WARMUP,
                );
                if best_replicated.as_ref().is_none_or(|b| r.ns_per_event < b.ns_per_event) {
                    best_replicated = Some(r);
                }
            }
            for (mode, result) in [
                ("pipelined", best_pipelined.unwrap()),
                ("barrier", best_barrier.unwrap()),
                ("replicated", best_replicated.unwrap()),
            ] {
                let mut row: JsonRow = vec![
                    ("engine", JsonValue::Str(engine.name().to_owned())),
                    ("shards", JsonValue::UInt(shards as u64)),
                    ("mode", JsonValue::Str(mode.to_owned())),
                ];
                row.extend(sweep_json_fields(&result));
                rows.push(row);
            }
        }
    }
    rows
}

/// How long each churn pass keeps the control thread issuing ops while
/// the publishers stream batches. Long enough to amortize thread spawn
/// and cover several snapshot forks even at 1k subscriptions.
const CHURN_MILLIS: u64 = 80;
const CHURN_PUBLISHERS: usize = 2;

/// Control-plane churn mode for the committed trajectory: publisher
/// threads stream batches through the live matcher while the control
/// thread subscribes/unsubscribes (with a periodic ontology re-point)
/// against the same instance. This is the axis the epoch-snapshot
/// control plane is supposed to win — control ops fork a snapshot aside
/// instead of write-locking the matcher, so publisher throughput under
/// churn stays near the uncontended rate while each row also reports the
/// mean control-op latency (the cost of forking a 1k-subscription core).
fn churn_rows(fixture: &Fixture) -> Vec<JsonRow> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let mut rows = Vec::new();
    for engine in EngineKind::ALL {
        for shards in SHARD_COUNTS {
            let config = config_for(engine, shards);
            // (ns_per_control_op, ns_per_event, events_per_sec, matches, ops)
            let mut best: Option<(f64, f64, f64, u64, u64)> = None;
            for _ in 0..PASSES {
                let matcher = matcher_for(fixture, config);
                let stop = AtomicBool::new(false);
                let (control_ns, control_ops, published) = std::thread::scope(|scope| {
                    let publishers: Vec<_> = (0..CHURN_PUBLISHERS)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut events = 0u64;
                                let mut matches = 0u64;
                                let start = Instant::now();
                                'outer: loop {
                                    for chunk in fixture.publications.chunks(BATCH) {
                                        if stop.load(Ordering::Acquire) {
                                            break 'outer;
                                        }
                                        let sets = matcher.publish_batch(chunk);
                                        matches += sets.iter().map(|s| s.len() as u64).sum::<u64>();
                                        events += chunk.len() as u64;
                                    }
                                }
                                (events, matches, start.elapsed())
                            })
                        })
                        .collect();

                    let deadline = Duration::from_millis(CHURN_MILLIS);
                    let mut ops = 0u64;
                    let mut cursor = 0usize;
                    let start = Instant::now();
                    while start.elapsed() < deadline {
                        let sub = &fixture.subscriptions[cursor % fixture.subscriptions.len()];
                        if ops % 16 == 15 {
                            matcher.set_source(fixture.source.clone());
                        } else if ops.is_multiple_of(2) {
                            matcher.unsubscribe(sub.id());
                        } else {
                            matcher.subscribe(sub.clone());
                            cursor += 1;
                        }
                        ops += 1;
                    }
                    let control = start.elapsed();
                    stop.store(true, Ordering::Release);
                    let published: Vec<_> =
                        publishers.into_iter().map(|h| h.join().unwrap()).collect();
                    (control, ops, published)
                });

                let events: u64 = published.iter().map(|(e, _, _)| e).sum();
                let matches: u64 = published.iter().map(|(_, m, _)| m).sum();
                let wall = published
                    .iter()
                    .map(|(_, _, elapsed)| elapsed.as_secs_f64())
                    .fold(0.0f64, f64::max);
                let ns_per_op = control_ns.as_nanos() as f64 / control_ops.max(1) as f64;
                let ns_per_event = wall * 1e9 * CHURN_PUBLISHERS as f64 / events.max(1) as f64;
                let events_per_sec = events as f64 / wall.max(1e-9);
                if best.as_ref().is_none_or(|b| ns_per_op < b.0) {
                    best = Some((ns_per_op, ns_per_event, events_per_sec, matches, control_ops));
                }
            }
            let (ns_per_op, ns_per_event, events_per_sec, matches, ops) = best.unwrap();
            rows.push(vec![
                ("engine", JsonValue::Str(engine.name().to_owned())),
                ("shards", JsonValue::UInt(shards as u64)),
                ("mode", JsonValue::Str("churn".to_owned())),
                ("matches", JsonValue::UInt(matches)),
                ("ns_per_event", JsonValue::Float(ns_per_event)),
                ("events_per_sec", JsonValue::Float(events_per_sec)),
                ("control_ops", JsonValue::UInt(ops)),
                ("ns_per_control_op", JsonValue::Float(ns_per_op)),
                ("publishers", JsonValue::UInt(CHURN_PUBLISHERS as u64)),
            ]);
        }
    }
    rows
}

criterion_group!(benches, bench_sharding);

fn main() {
    benches();
    // The multi-pass trajectory sweeps are opt-in so a plain `cargo bench`
    // stays a fast smoke run; CI's trajectory step (and anyone refreshing
    // the committed JSON) sets BENCH_TRAJECTORY=1.
    if std::env::var_os("BENCH_TRAJECTORY").is_none() {
        return;
    }
    let fixture = jobfinder_fixture(SUBSCRIPTIONS, PUBLICATIONS, 17);
    let mut rows = trajectory_rows(&fixture);
    rows.extend(churn_rows(&fixture));
    let json = render_bench_json(
        "sharding_scaling",
        &[
            ("workload", JsonValue::Str("jobfinder".to_owned())),
            ("subscriptions", JsonValue::UInt(SUBSCRIPTIONS as u64)),
            ("publications", JsonValue::UInt(PUBLICATIONS as u64)),
            ("batch_size", JsonValue::UInt(BATCH as u64)),
        ],
        &rows,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharding.json");
    std::fs::write(path, json).expect("write BENCH_sharding.json");
    println!("wrote {path}");
}
