//! Serving benchmark of the S-ToPSS networked broker.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fanout|semantic|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one driver thread: it sends, turns `NetBroker::turn` and
//! drains the clients; the only other threads are the broker's own. With
//! `--trace 0` it prints every end-to-end metric of the workload; with
//! `--trace 1` the per-layer metrics of the traced run, and it writes the
//! span dump under `.perfbench_out/`. The last stdout line is the JSON
//! result; every earlier line is a human-readable log. The exit code is
//! non-zero if any output differs from the in-process reference. See
//! `perfbench/README.md`.

mod driver;
mod layers;
mod reference;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use crate::driver::{p50_p99, setup, Driver, Load, PhaseResult, Stall};
use crate::stats::{host_facts, median, peak_rss_mib, quantile, ratio, result_json, Metrics};
use crate::trace::Tracer;
use crate::workload::{Inputs, Sizes, Spec, WORKLOADS};

/// Set-ups timed back to back before the first round; the last one
/// serves the run.
const SETUPS_FIRST: usize = 3;
/// Set-ups timed after each round, beside the idle serving broker, and
/// dropped at once. `setup_s` is the median of all the set-ups of a run:
/// spread over it, they sample the host's slow and fast stretches alike,
/// where eleven back to back (about 0.15 s) all fell in one of them.
const SETUPS_PER_ROUND: usize = 1;
/// Closed/open alternations of an untraced run.
const ROUNDS: usize = 8;
/// Share of an untraced run's measured time spent in the closed loop.
const CLOSED_SHARE: f64 = 0.6;
/// Closed-loop load run, and discarded, before any timed phase.
const WARM_UP: Duration = Duration::from_secs(1);
/// Where the traced run writes its span dump.
const OUT_DIR: &str = ".perfbench_out";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::named(&args.workload).expect("validated workload name");
    let outcome = run(spec, args.seed, args.seconds, args.trace, Sizes::full(), None);
    println!("{}", outcome.json);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one invocation produced.
pub struct Outcome {
    /// No output differed from the reference.
    pub correct: bool,
    /// The metrics printed.
    pub metrics: Metrics,
    /// The result line.
    pub json: String,
}

/// Runs workload `spec` for `seconds` of measurement.
pub fn run(
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    stall: Option<Stall>,
) -> Outcome {
    let inputs = Inputs::generate(spec, seed, sizes);
    println!("host {}", host_facts());
    println!(
        "workload {} seed {seed} inputs {:016x} connections {} subscriptions {} bodies {} \
         window {} open_rate {}/s control_every {}",
        spec.name,
        inputs.hash(),
        inputs.conns.len(),
        inputs.subscription_count(),
        inputs.bodies.len(),
        spec.window,
        spec.open_rate,
        spec.control_every,
    );
    let total = Duration::from_secs_f64(seconds);
    if trace {
        traced(&inputs, total, stall)
    } else {
        untraced(&inputs, total, stall)
    }
}

/// The end-to-end run: set-ups, then [`ROUNDS`] rounds of a closed-loop
/// phase (throughput), an open-loop phase (latency) and one more set-up,
/// then the check. Alternating spreads each measurement over the whole
/// run, so a slow stretch of a shared host weighs on every metric alike.
fn untraced(inputs: &Inputs, total: Duration, stall: Option<Stall>) -> Outcome {
    let spec = inputs.spec;
    let mut setups: Vec<f64> = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS_FIRST {
        drop(rig.take());
        let (built, facts) = setup(inputs);
        setups.push(facts.seconds);
        rig = Some(built);
    }
    let mut driver = Driver::new(rig.expect("at least one set-up"), inputs);
    driver.run(Load::Closed { window: spec.window }, WARM_UP);
    let mut closed = PhaseResult::default();
    let mut open = PhaseResult::default();
    let share = 1.0 / ROUNDS as f64;
    for _ in 0..ROUNDS {
        driver.stall = None;
        closed.merge(
            driver.run(Load::Closed { window: spec.window }, total.mul_f64(CLOSED_SHARE * share)),
        );
        driver.stall = stall;
        open.merge(
            driver.run(
                Load::Open { rate: spec.open_rate },
                total.mul_f64((1.0 - CLOSED_SHARE) * share),
            ),
        );
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(setup(inputs).1.seconds);
        }
    }
    driver.finish();
    let rss = peak_rss_mib();
    let verdict = reference::check(inputs, &driver);

    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setups), "s");
    m.put("events_per_sec", closed.events_per_sec(), "1/s");
    m.put("notifications_per_sec", closed.notifications_per_sec(), "1/s");
    m.put("notify_p50_us", open.notify_lat.quantile(0.5), "us");
    m.put("reply_p50_us", open.reply_p50_us(), "us");
    m.put("peak_rss_mb", rss, "MiB");

    // Printed in the row but not gated (see README.md): tails over the
    // whole open loop (`reply_p99_us`: publications only), control-op
    // latency, and the error rate.
    let mut lags = open.gen_lag_us.clone();
    let mut extra = Metrics::default();
    extra.put("notify_p99_us", open.notify_lat.pooled().quantile(0.99), "us");
    extra.put("reply_p99_us", open.reply_lat.pooled().quantile(0.99), "us");
    if spec.control_every > 0 {
        let control = open.control_lat.pooled();
        extra.put("control_p50_us", control.quantile(0.5), "us");
        extra.put("control_p99_us", control.quantile(0.99), "us");
    }
    extra.put("error_rate", ratio(verdict.failed as f64, verdict.attempted as f64), "ratio");
    extra.put("gen_lag_p99_us", quantile(&mut lags, 0.99), "us");

    let mut fanouts: Vec<f64> = driver
        .publications()
        .iter()
        .filter_map(|&(k, _)| driver.published_matches(k))
        .map(f64::from)
        .collect();
    println!(
        "matches_per_publication mean={:.1} p50={} p99={} max={}",
        fanouts.iter().sum::<f64>() / fanouts.len().max(1) as f64,
        quantile(&mut fanouts, 0.5),
        quantile(&mut fanouts, 0.99),
        quantile(&mut fanouts, 1.0)
    );
    println!(
        "samples closed_pubs={} open_ops={} open_pubs={} notify={} reply={} control={} \
         backlog_peak={} setups={setups:?}",
        closed.pubs_sent,
        open.ops_sent,
        open.pubs_sent,
        open.notify_lat.len(),
        open.reply_lat.len(),
        open.control_lat.len(),
        open.backlog_peak,
    );
    finish(inputs, verdict, m, &extra)
}

/// The traced run: untraced and traced closed-loop phases (for the
/// overhead ratio), a traced open-loop phase, then the in-process replay
/// of the same publications through each layer's public functions.
fn traced(inputs: &Inputs, total: Duration, stall: Option<Stall>) -> Outcome {
    let spec = inputs.spec;
    let (rig, facts) = setup(inputs);
    let mut driver = Driver::new(rig, inputs);
    driver.run(Load::Closed { window: spec.window }, WARM_UP);
    let untraced_closed = driver.run(Load::Closed { window: spec.window }, total.mul_f64(0.2));
    driver.tracer = Tracer::new(true);
    let traced_closed = driver.run(Load::Closed { window: spec.window }, total.mul_f64(0.2));
    driver.stall = stall;
    let open = driver.run(Load::Open { rate: spec.open_rate }, total.mul_f64(0.3));
    driver.tracer.set_on(false);
    driver.finish();
    let verdict = reference::check(inputs, &driver);

    // The same inputs through each layer, in process.
    let table = inputs.storm_table(driver.rig.endpoints.iter().map(|e| e.storm_ids.as_slice()));
    let names: Vec<String> = driver.rig.endpoints.iter().map(|e| e.name.clone()).collect();
    let publications = driver.publications();
    let mut replay_tracer = Tracer::new(true);
    let report = layers::replay(
        inputs,
        &table,
        &names,
        &publications,
        total.mul_f64(0.3),
        &mut replay_tracer,
    );

    let mut m = report.metrics;
    m.put("matcher.setup_epochs", facts.epochs as f64, "count");
    network_metrics(&mut m, &traced_closed, &open);
    let busy_per_pub = ratio(
        (traced_closed.turn_busy + traced_closed.client_busy) * 1e6,
        traced_closed.pubs_sent as f64,
    );
    m.put("trace.coverage_ratio", ratio(report.layer_us_per_event, busy_per_pub), "ratio");
    m.put(
        "trace.overhead_ratio",
        ratio(traced_closed.events_per_sec(), untraced_closed.events_per_sec()),
        "ratio",
    );

    for (part, tracer) in [("net", &driver.tracer), ("inproc", &replay_tracer)] {
        let path = format!("{OUT_DIR}/spans-{}-seed{}-{part}.tsv", spec.name, inputs.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace::render_tsv(tracer.spans())));
        match written {
            Ok(()) => println!(
                "spans {} written to {path} ({} dropped)",
                tracer.spans().len(),
                tracer.dropped()
            ),
            Err(e) => println!("spans not written to {path}: {e}"),
        }
        for (name, count, total_ns, self_ns) in trace::by_name(tracer.spans()).iter().take(12) {
            println!(
                "span {part} {name:<28} count {count:>8} total_ms {:>10.3} self_ms {:>10.3}",
                *total_ns as f64 / 1e6,
                *self_ns as f64 / 1e6
            );
        }
    }
    finish(inputs, verdict, order_per_layer(m), &Metrics::default())
}

/// The per-layer metrics the networked traced phases give.
fn network_metrics(m: &mut Metrics, closed: &PhaseResult, open: &PhaseResult) {
    let (turn_p50, turn_p99) = p50_p99(&open.turn_us);
    let before = open.stats_before;
    let after = open.stats_after;
    let wall = open.wall;
    m.put("eventloop.turn_p50_us", turn_p50, "us");
    m.put("eventloop.turn_p99_us", turn_p99, "us");
    m.put(
        "eventloop.turns_per_event",
        ratio(closed.turns as f64, closed.pubs_sent as f64),
        "count",
    );
    m.put("eventloop.busy_share", ratio(open.turn_busy, wall), "ratio");
    m.put("eventloop.empty_turns", open.empty_turns as f64, "count");
    m.put("eventloop.frames_read", (after.frames_read - before.frames_read) as f64, "count");
    m.put(
        "eventloop.notifications_sent",
        (after.notifications_sent - before.notifications_sent) as f64,
        "count",
    );
    m.put("session.client_tick_us", ratio(open.tick_busy * 1e6, open.ticks as f64), "us");
    m.put("session.in_flight_peak", open.in_flight_peak as f64, "count");
    m.put(
        "session.acked",
        (after.notifications_acked - before.notifications_acked) as f64,
        "count",
    );
    m.put(
        "session.replay_frames",
        (after.replay_frames_sent - before.replay_frames_sent) as f64,
        "count",
    );
    let mut lags = open.gen_lag_us.clone();
    m.put("driver.busy_share", ratio(open.client_busy, wall), "ratio");
    m.put("driver.gen_lag_p99_us", quantile(&mut lags, 0.99), "us");
    m.put("driver.backlog_peak", open.backlog_peak as f64, "count");
}

/// The per-layer metric names, in the order they are printed.
pub const PER_LAYER: [&str; 42] = [
    "frontend.prepare_us_per_event",
    "frontend.synonym_us_per_event",
    "frontend.hierarchy_us_per_event",
    "frontend.mapping_us_per_event",
    "frontend.closure_pairs_per_event",
    "frontend.derived_events_per_event",
    "frontend.truncations",
    "matching.engine_us_per_event",
    "matching.candidates_per_event",
    "matcher.match_us_per_event",
    "matcher.provenance_us_per_event",
    "matcher.matches_per_event",
    "matcher.useful_candidate_ratio",
    "matcher.subscribe_us",
    "matcher.unsubscribe_us",
    "matcher.subscribe_batch_us_per_sub",
    "matcher.setup_epochs",
    "dispatcher.publish_us_per_event",
    "dispatcher.notify_us_per_match",
    "dispatcher.orphaned_matches",
    "notify.handoff_us_per_delivery",
    "notify.failures",
    "wire.encode_ns_per_notification",
    "wire.decode_ns_per_notification",
    "wire.decode_ns_per_publish",
    "wire.bytes_per_notification",
    "eventloop.turn_p50_us",
    "eventloop.turn_p99_us",
    "eventloop.turns_per_event",
    "eventloop.busy_share",
    "eventloop.empty_turns",
    "eventloop.frames_read",
    "eventloop.notifications_sent",
    "session.client_tick_us",
    "session.in_flight_peak",
    "session.acked",
    "session.replay_frames",
    "driver.busy_share",
    "driver.gen_lag_p99_us",
    "driver.backlog_peak",
    "trace.coverage_ratio",
    "trace.overhead_ratio",
];

fn order_per_layer(m: Metrics) -> Metrics {
    let mut out = Metrics::default();
    for name in PER_LAYER {
        if let Some(metric) = m.0.iter().find(|x| x.name == name) {
            out.0.push(metric.clone());
        }
    }
    out
}

/// Prints the workload's metric row and the verdict, and builds the
/// result line.
fn finish(
    inputs: &Inputs,
    verdict: reference::Verdict,
    metrics: Metrics,
    extra: &Metrics,
) -> Outcome {
    let row: Vec<String> = metrics
        .0
        .iter()
        .chain(&extra.0)
        .map(|m| format!("{}={:.4} {}", m.name, m.value, m.unit))
        .collect();
    println!("row {} {}", inputs.spec.name, row.join(", "));
    for problem in &verdict.problems {
        println!("check FAILED: {problem}");
    }
    let correct = verdict.failed == 0;
    println!(
        "check {} attempted={} failed={}",
        if correct { "ok" } else { "FAILED" },
        verdict.attempted,
        verdict.failed
    );
    let json = result_json(correct, verdict.attempted.max(1), verdict.failed, &metrics);
    Outcome { correct, metrics, json }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gated end-to-end metric names, in the order they are printed.
    const END_TO_END: [&str; 6] = [
        "setup_s",
        "events_per_sec",
        "notifications_per_sec",
        "notify_p50_us",
        "reply_p50_us",
        "peak_rss_mb",
    ];

    /// `"name": "<metric>"` entries of the repository's BENCHMARK.json.
    fn declared() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/")
    }

    fn assert_emits(outcome: &Outcome, names: &[&str], workload: &str) {
        assert!(outcome.correct, "{workload}: {}", outcome.json);
        assert!(outcome.json.contains("\"failed\": 0"), "{workload}: {}", outcome.json);
        let emitted: Vec<&str> = outcome.metrics.0.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, names, "{workload}: every named metric, in order");
        let declared = declared();
        for name in names {
            assert!(declared.contains(&format!("\"name\": \"{name}\"")), "{name} not declared");
            assert!(outcome.metrics.get(name).is_some_and(f64::is_finite));
        }
        assert!(outcome.metrics.0.iter().all(|m| m.value >= 0.0), "{workload}: {}", outcome.json);
    }

    #[test]
    fn tiny_runs_emit_every_metric_with_no_errors() {
        for name in WORKLOADS {
            let spec = Spec::named(name).expect("known workload");
            let plain = run(spec, 5, 1.0, false, Sizes::tiny(), None);
            assert_emits(&plain, &END_TO_END, name);
            assert!(plain.metrics.0.iter().all(|m| m.value > 0.0), "{name}: {}", plain.json);
            let traced = run(spec, 5, 1.0, true, Sizes::tiny(), None);
            assert_emits(&traced, &PER_LAYER, name);
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A driver that sleeps 20 ms before every 10th send: every later
        // operation is due before it is sent, so the lateness shows in
        // the generator lag and in notify latency, which both start at
        // the due time. Measured from the send time it would not show.
        let spec = Spec::named("fanout").expect("known workload");
        let inputs = Inputs::generate(spec, 9, Sizes::tiny());
        let pause = Duration::from_millis(20);
        let phase = |stall: Option<Stall>| {
            let (rig, _) = setup(&inputs);
            let mut driver = Driver::new(rig, &inputs);
            driver.stall = stall;
            let result = driver.run(Load::Open { rate: 200.0 }, Duration::from_secs(2));
            driver.finish();
            assert_eq!(reference::check(&inputs, &driver).failed, 0);
            let mut lags = result.gen_lag_us.clone();
            (quantile(&mut lags, 0.99), result.notify_lat.quantile(0.99))
        };
        let (calm_lag, calm_p99) = phase(None);
        let (lag, p99) = phase(Some(Stall { every: 10, pause }));
        let pause_us = pause.as_secs_f64() * 1e6;
        assert!(lag >= 0.5 * pause_us, "generator lag p99 {lag} us under {pause_us} us stalls");
        assert!(p99 >= 0.5 * pause_us, "notify p99 {p99} us under {pause_us} us stalls");
        assert!(calm_p99 < p99 && calm_lag < lag, "calm {calm_p99}/{calm_lag} vs {p99}/{lag}");
    }
}
