//! The in-process half of the traced run: each layer's public functions
//! timed on the workload's exact inputs, from the benchmark's own code.
//!
//! Every sampled replayed publication (see [`sampled`]) gets a `replay`
//! span (request id = its operation index) whose children are the timed
//! calls, so the span dump shows the per-publication breakdown the
//! metrics summarise; the metrics count every publication.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use stopss_broker::{
    decode_client, decode_server, encode_client, encode_server, try_read_frame, write_frame,
    Broker, BrokerConfig, ClientMessage, ServerMessage, TransportKind,
};
use stopss_core::{semantic_closure, synonym_resolve_subscription, SToPSS, StageMask};
use stopss_ontology::SemanticSource;
use stopss_types::{Event, SharedInterner, SubId, Subscription};

use crate::stats::{median, ratio, Metrics};
use crate::trace::{sampled, Tracer};
use crate::workload::Inputs;

/// Single control ops timed at the workload's table size.
const CONTROL_SAMPLES: usize = 24;

/// Per-publication sums of the replay.
#[derive(Default)]
struct Sums {
    events: u64,
    prepare: f64,
    synonym: f64,
    hierarchy: f64,
    mapping: f64,
    closure_pairs: f64,
    derived: f64,
    truncations: u64,
    engine: f64,
    candidates: f64,
    matched: f64,
    matches: f64,
    publish_core: f64,
    publish_broker: f64,
    handoff: f64,
    notifications: f64,
    encode_ns: f64,
    decode_ns: f64,
    bytes: f64,
    decode_publish_ns: f64,
}

/// What the in-process replay measured.
pub struct LayerReport {
    /// The per-layer metrics it contributes.
    pub metrics: Metrics,
    /// Layer self time per publication, µs: front-end + engine +
    /// provenance + dispatcher + wire (the layers the networked path
    /// runs on the driver thread).
    pub layer_us_per_event: f64,
}

/// Replays `publications` (operation index, body) through every layer
/// until `budget` runs out. `table` is the set-up subscription table with
/// the ids the broker assigned, each with the index of its owner in
/// `owner_names`.
pub fn replay(
    inputs: &Inputs,
    table: &[(Subscription, usize)],
    owner_names: &[String],
    publications: &[(u64, usize)],
    budget: Duration,
    tracer: &mut Tracer,
) -> LayerReport {
    let deadline = Instant::now() + budget;
    let config = BrokerConfig::default();
    let source: Arc<dyn SemanticSource> = Arc::new(inputs.ontology.clone());
    let interner = SharedInterner::from_interner(inputs.interner.clone());
    let matcher = config.matcher;

    // Control plane: one batch admission of the whole table, then single
    // subscribe/unsubscribe pairs at that size.
    let core = SToPSS::new(matcher, source.clone(), interner.clone());
    let subs: Vec<Subscription> = table.iter().map(|(s, _)| s.clone()).collect();
    let t0 = Instant::now();
    core.subscribe_batch(subs.iter().map(|s| (s.clone(), None)).collect());
    let batch_us_per_sub = t0.elapsed().as_secs_f64() * 1e6 / subs.len().max(1) as f64;
    let mut sub_us = Vec::new();
    let mut unsub_us = Vec::new();
    let next_id = subs.iter().map(|s| s.id().0).max().unwrap_or(0) + 1;
    for j in 0..CONTROL_SAMPLES {
        let probe = subs[j % subs.len()].with_id(SubId(next_id + j as u64));
        let t0 = Instant::now();
        core.subscribe(probe);
        let t1 = Instant::now();
        core.unsubscribe(SubId(next_id + j as u64));
        let t2 = Instant::now();
        sub_us.push((t1 - t0).as_secs_f64() * 1e6);
        unsub_us.push((t2 - t1).as_secs_f64() * 1e6);
    }

    // The engine alone, loaded as the matcher loads it.
    let mut engine = matcher.engine.build();
    for sub in &subs {
        engine.insert(synonym_resolve_subscription(sub, source.as_ref()).into_owned());
    }

    // The dispatcher over the paper's in-process transports.
    let broker = Broker::new(config, source.clone(), interner.clone());
    let clients: Vec<_> = owner_names
        .iter()
        .map(|name| broker.register_client(name.clone(), TransportKind::Tcp))
        .collect();
    let requests =
        table.iter().map(|(s, o)| (clients[*o], s.predicates().to_vec(), None)).collect();
    for result in broker.subscribe_batch(requests) {
        result.expect("registered clients subscribe");
    }
    let inbox = broker.inbox(TransportKind::Tcp).expect("tcp inbox");
    let frontend = core.frontend();

    let mut s = Sums::default();
    let mut candidates_out: Vec<SubId> = Vec::new();
    let stages =
        [StageMask::SYNONYM, StageMask::SYNONYM.with(StageMask::HIERARCHY), StageMask::all()];
    for &(k, body) in publications {
        if Instant::now() >= deadline {
            break;
        }
        let req = k as i64;
        tracer.set_on(sampled(req));
        let root = tracer.open("replay", req);
        let event = inputs.publication(k, body);
        s.events += 1;

        let t0 = Instant::now();
        let prepared = frontend.prepare(&event);
        let t1 = Instant::now();
        tracer.record("frontend.prepare", req, t0, t1);
        s.prepare += us(t0, t1);
        s.closure_pairs += prepared.closure_pairs as f64;
        s.derived += prepared.derived_events as f64;
        s.truncations += u64::from(prepared.truncated);

        let mut stage_us = [0.0; 3];
        interner.with(|i| {
            for (slot, mask) in stages.iter().enumerate() {
                let t0 = Instant::now();
                let closed = semantic_closure(
                    &event,
                    source.as_ref(),
                    *mask,
                    matcher.max_distance,
                    matcher.now_year,
                    i,
                    &matcher.limits.closure,
                );
                let t1 = Instant::now();
                std::hint::black_box(closed);
                tracer.record(
                    ["frontend.closure_s", "frontend.closure_sh", "frontend.closure_shm"][slot],
                    req,
                    t0,
                    t1,
                );
                stage_us[slot] = us(t0, t1);
            }
            candidates_out.clear();
            let t0 = Instant::now();
            for engine_event in &prepared.engine_events {
                engine.match_event(engine_event, i, &mut candidates_out);
            }
            let t1 = Instant::now();
            tracer.record("matching.engine", req, t0, t1);
            s.engine += us(t0, t1);
        });
        s.synonym += stage_us[0];
        s.hierarchy += (stage_us[1] - stage_us[0]).max(0.0);
        s.mapping += (stage_us[2] - stage_us[1]).max(0.0);
        candidates_out.sort_unstable();
        candidates_out.dedup();
        s.candidates += candidates_out.len() as f64;

        let t0 = Instant::now();
        let result = core.match_prepared(&prepared);
        let t1 = Instant::now();
        tracer.record("matcher.match_prepared", req, t0, t1);
        s.matched += us(t0, t1);
        s.matches += result.matches.len() as f64;

        let t0 = Instant::now();
        let core_matches = core.publish(&event);
        let t1 = Instant::now();
        tracer.record("matcher.publish", req, t0, t1);
        s.publish_core += us(t0, t1);

        let delivered_before = broker.delivery_stats().total_delivered();
        let t0 = Instant::now();
        let n = broker.publish(&event) as u64;
        let t1 = Instant::now();
        while broker.delivery_stats().total_delivered() < delivered_before + n {
            std::hint::spin_loop();
        }
        let t2 = Instant::now();
        tracer.record("dispatcher.publish", req, t0, t1);
        tracer.record("notify.handoff", req, t1, t2);
        s.publish_broker += us(t0, t1);
        s.handoff += us(t1, t2);
        debug_assert_eq!(n as usize, core_matches.len());

        // Wire: the notifications this publication produced, framed and
        // decoded as the event loop and a client do.
        let payloads: Vec<String> = inbox.lock().drain(..).map(|m| m.payload).collect();
        s.notifications += payloads.len() as f64;
        let mut stream = BytesMut::new();
        let t0 = Instant::now();
        for payload in &payloads {
            let mut buf = BytesMut::new();
            encode_server(
                &ServerMessage::Notification { seq: 0, payload: payload.clone() },
                &mut buf,
            );
            write_frame(&mut stream, &buf);
        }
        let t1 = Instant::now();
        s.bytes += stream.len() as f64;
        let mut decoded = 0;
        while let Some(mut frame) = try_read_frame(&mut stream).expect("well-formed frames") {
            decode_server(&mut frame).expect("well-formed notification");
            decoded += 1;
        }
        let t2 = Instant::now();
        assert_eq!(decoded, payloads.len());
        tracer.record("wire.encode", req, t0, t1);
        tracer.record("wire.decode", req, t1, t2);
        s.encode_ns += ns(t0, t1);
        s.decode_ns += ns(t1, t2);

        let publish = publish_frame(inputs, &event);
        let t0 = Instant::now();
        let msg = decode_client(&mut publish.clone()).expect("well-formed publish");
        let t1 = Instant::now();
        std::hint::black_box(msg);
        tracer.record("wire.decode_publish", req, t0, t1);
        s.decode_publish_ns += ns(t0, t1);
        tracer.close(root);
    }

    let events = s.events.max(1) as f64;
    let per = |v: f64| v / events;
    let notes = s.notifications.max(1.0);
    let mut m = Metrics::default();
    m.put("frontend.prepare_us_per_event", per(s.prepare), "us");
    m.put("frontend.synonym_us_per_event", per(s.synonym), "us");
    m.put("frontend.hierarchy_us_per_event", per(s.hierarchy), "us");
    m.put("frontend.mapping_us_per_event", per(s.mapping), "us");
    m.put("frontend.closure_pairs_per_event", per(s.closure_pairs), "count");
    m.put("frontend.derived_events_per_event", per(s.derived), "count");
    m.put("frontend.truncations", s.truncations as f64, "count");
    m.put("matching.engine_us_per_event", per(s.engine), "us");
    m.put("matching.candidates_per_event", per(s.candidates), "count");
    m.put("matcher.match_us_per_event", per(s.matched), "us");
    m.put("matcher.provenance_us_per_event", per(s.matched - s.engine).max(0.0), "us");
    m.put("matcher.matches_per_event", per(s.matches), "count");
    m.put("matcher.useful_candidate_ratio", ratio(s.matches, s.candidates), "ratio");
    m.put("matcher.subscribe_us", median(&mut sub_us), "us");
    m.put("matcher.unsubscribe_us", median(&mut unsub_us), "us");
    m.put("matcher.subscribe_batch_us_per_sub", batch_us_per_sub, "us");
    m.put("dispatcher.publish_us_per_event", per(s.publish_broker), "us");
    m.put(
        "dispatcher.notify_us_per_match",
        ratio((s.publish_broker - s.publish_core).max(0.0), s.matches),
        "us",
    );
    m.put("dispatcher.orphaned_matches", broker.orphaned_matches() as f64, "count");
    m.put("notify.handoff_us_per_delivery", ratio(s.handoff, s.matches), "us");
    m.put("notify.failures", broker.delivery_stats().total_failures() as f64, "count");
    m.put("wire.encode_ns_per_notification", s.encode_ns / notes, "ns");
    m.put("wire.decode_ns_per_notification", s.decode_ns / notes, "ns");
    m.put("wire.decode_ns_per_publish", per(s.decode_publish_ns), "ns");
    m.put("wire.bytes_per_notification", s.bytes / notes, "bytes");
    let wire_us = (s.encode_ns + s.decode_ns + s.decode_publish_ns) / 1e3;
    let layer_us_per_event = per(s.publish_broker + wire_us);
    let _ = broker.shutdown();
    LayerReport { metrics: m, layer_us_per_event }
}

fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

fn ns(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e9
}

/// The framed-and-stripped `Publish` payload the event loop decodes.
fn publish_frame(inputs: &Inputs, event: &Event) -> Bytes {
    let msg = ClientMessage::Publish {
        client: stopss_broker::ClientId(0),
        pairs: inputs.wire_pairs(event),
    };
    let mut buf = BytesMut::new();
    encode_client(&msg, &mut buf);
    buf.freeze()
}
