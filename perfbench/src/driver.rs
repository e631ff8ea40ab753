//! The load driver: one thread that sends, turns [`NetBroker::turn`] and
//! drains the clients.
//!
//! A [`Rig`] is one served broker with its subscriber endpoints and one
//! publisher connection, built by [`setup`] (the `setup_s` span). A
//! [`Driver`] then runs timed phases over it: closed-loop (a fixed window
//! of operations in flight) or open-loop (operations due on a fixed
//! schedule; latency counts from the due time). Every notification and
//! reply is accounted against the operation that caused it, so the
//! correctness check after the run can compare each subscriber's
//! notifications with the in-process reference.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stopss_broker::{
    ClientId, ClientMessage, NetBroker, NetBrokerConfig, NetClient, NetStats, ServerMessage,
    SessionClient, SessionClientConfig, TransportKind,
};
use stopss_types::{SharedInterner, SubId};

use crate::stats::{blended_quantile, quantile, Windowed};
use crate::trace::{sampled, Tracer, NONE};
use crate::workload::{hash64, Inputs, Op, OpStream};

/// How long a set-up may take before giving up.
const SETUP_BUDGET: Duration = Duration::from_secs(20);
/// Turns `run_until_quiescent` may take at the end of a set-up (about
/// 20 s of idle 1 ms polls).
const TURN_BUDGET: usize = 20_000;
/// Turns each settling pass after the last phase may take.
const SETTLE_TURNS: usize = 1_000;
/// Poll timeout when nothing is due sooner.
const MAX_POLL: Duration = Duration::from_millis(1);
/// Width of the closed-loop throughput slices.
const SLICE: Duration = Duration::from_millis(250);
/// Width of the due-time windows latency quantiles are taken in.
const LATENCY_WINDOW: Duration = Duration::from_millis(250);
/// How long the drain after a phase may take before the remaining
/// operations count as failed. A healthy drain takes milliseconds; the
/// cap keeps a run that loses notifications inside its time limit, so it
/// fails the check instead of timing out.
const DRAIN_CAP: Duration = Duration::from_secs(3);

/// The client side of one subscriber connection.
enum Client {
    Legacy(NetClient),
    Session(SessionClient),
}

/// One subscriber endpoint and everything it has received.
pub struct Endpoint {
    client: Client,
    /// Registered name (part of every notification payload).
    pub name: String,
    /// Client id the broker assigned.
    pub id: Option<ClientId>,
    /// True if control ops churn this endpoint's subscriptions.
    pub churned: bool,
    /// Subscription ids of the set-up storm, in storm order.
    pub storm_ids: Vec<SubId>,
    /// Live churned subscriptions, oldest first (`None` until confirmed).
    live: VecDeque<Option<SubId>>,
    /// Control ops awaiting their reply on this connection, oldest first.
    pending: VecDeque<u64>,
    /// Notifications decoded.
    pub received: u64,
    /// Wrapping sum of the [`hash64`]es of the decoded payloads.
    pub digest: u64,
    /// Highest session seq seen.
    pub last_seq: u64,
    /// Notifications whose seq broke contiguity (sessioned) or was not 0
    /// (legacy).
    pub seq_errors: u64,
    /// Frames that failed to decode.
    pub wire_errors: u64,
}

/// A served broker with its clients.
pub struct Rig {
    /// The networked broker.
    pub server: NetBroker,
    /// Subscriber endpoints, in input order.
    pub endpoints: Vec<Endpoint>,
    publisher: NetClient,
    publisher_id: ClientId,
    /// Ops awaiting their reply on the publisher connection.
    publisher_pending: VecDeque<u64>,
}

/// Facts of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupFacts {
    /// Wall time of `NetBroker::new` → connect + register + subscribe
    /// storm → `run_until_quiescent`.
    pub seconds: f64,
    /// Matcher control-epoch bumps during the subscribe storm.
    pub epochs: u64,
}

/// Builds the broker and its clients and settles the subscribe storm.
/// The inputs are cloned before the clock starts.
pub fn setup(inputs: &Inputs) -> (Rig, SetupFacts) {
    let ontology = Arc::new(inputs.ontology.clone());
    let interner = SharedInterner::from_interner(inputs.interner.clone());
    let start = Instant::now();
    let mut server = NetBroker::new(NetBrokerConfig::default(), ontology, interner)
        .expect("the in-memory event loop always builds");
    let connector = server.connector();
    let mut endpoints: Vec<Endpoint> = inputs
        .conns
        .iter()
        .enumerate()
        .map(|(k, conn)| {
            let client = if inputs.spec.sessioned {
                Client::Session(SessionClient::new(
                    connector.clone(),
                    SessionClientConfig {
                        seed: inputs.seed ^ k as u64,
                        backoff_base: 1,
                        backoff_cap: 1,
                        jitter: 0.0,
                        ping_every: 0,
                    },
                ))
            } else {
                let mut client = NetClient::connect(&connector).expect("connect");
                client.send(&register(&conn.name)).expect("register");
                Client::Legacy(client)
            };
            Endpoint {
                client,
                name: conn.name.clone(),
                id: None,
                churned: conn.churned,
                storm_ids: Vec::new(),
                live: VecDeque::new(),
                pending: VecDeque::new(),
                received: 0,
                digest: 0,
                last_seq: 0,
                seq_errors: 0,
                wire_errors: 0,
            }
        })
        .collect();
    let mut publisher = NetClient::connect(&connector).expect("connect");
    publisher.send(&register("publisher")).expect("register");
    let mut publisher_id = None;

    // Register every endpoint (sessioned ones handshake first).
    // The clients write before every turn, so the turns never wait: a
    // zero poll timeout keeps idle sleeps out of the timed span.
    let mut requested = vec![false; endpoints.len()];
    while endpoints.iter().any(|e| e.id.is_none()) || publisher_id.is_none() {
        assert!(start.elapsed() < SETUP_BUDGET, "registration never settled");
        server.turn(Some(Duration::ZERO)).expect("turn");
        for msg in publisher.poll_recv().expect("publisher frames decode") {
            if let ServerMessage::Registered { client } = msg {
                publisher_id = Some(client);
            }
        }
        for (k, e) in endpoints.iter_mut().enumerate() {
            let msgs = match &mut e.client {
                Client::Legacy(c) => c.poll_recv().expect("set-up frames decode"),
                Client::Session(c) => c.tick().expect("set-up frames decode"),
            };
            for msg in msgs {
                if let ServerMessage::Registered { client } = msg {
                    e.id = Some(client);
                }
            }
            if let Client::Session(c) = &mut e.client {
                if c.established() && !requested[k] {
                    requested[k] = c.request(&register(&e.name)).expect("register");
                }
            }
        }
    }

    // The subscribe storm: every Subscribe is queued before the loop
    // turns again, so the server coalesces them into batched forks.
    let epoch_before = server.broker().matcher_control_epoch();
    for (e, conn) in endpoints.iter_mut().zip(&inputs.conns) {
        let id = e.id.expect("registered");
        for preds in &conn.subs {
            let msg = ClientMessage::Subscribe {
                client: id,
                predicates: inputs.wire_subscription(preds),
            };
            match &mut e.client {
                Client::Legacy(c) => c.send(&msg).expect("subscribe"),
                Client::Session(c) => {
                    assert!(c.request(&msg).expect("subscribe"), "session established");
                }
            }
        }
    }
    while endpoints.iter().zip(&inputs.conns).any(|(e, c)| e.storm_ids.len() < c.subs.len()) {
        assert!(start.elapsed() < SETUP_BUDGET, "subscribe storm never settled");
        server.turn(Some(Duration::ZERO)).expect("turn");
        for e in endpoints.iter_mut() {
            let msgs = match &mut e.client {
                Client::Legacy(c) => {
                    c.flush().expect("flush");
                    c.poll_recv().expect("set-up frames decode")
                }
                Client::Session(c) => c.tick().expect("set-up frames decode"),
            };
            for msg in msgs {
                match msg {
                    ServerMessage::Subscribed { sub } => e.storm_ids.push(sub),
                    other => panic!("unexpected set-up reply {other:?}"),
                }
            }
        }
    }
    assert!(server.run_until_quiescent(TURN_BUDGET).expect("turn"), "set-up never quiesced");
    let seconds = start.elapsed().as_secs_f64();
    let epochs = server.broker().matcher_control_epoch() - epoch_before;
    for e in endpoints.iter_mut() {
        if e.churned {
            e.live = e.storm_ids.iter().map(|id| Some(*id)).collect();
        }
    }
    let rig = Rig {
        server,
        endpoints,
        publisher,
        publisher_id: publisher_id.expect("publisher registered"),
        publisher_pending: VecDeque::new(),
    };
    (rig, SetupFacts { seconds, epochs })
}

fn register(name: &str) -> ClientMessage {
    ClientMessage::Register { name: name.to_owned(), transport: TransportKind::Tcp }
}

/// How a phase offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Keep `window` operations in flight.
    Closed {
        /// Operations in flight.
        window: usize,
    },
    /// Operations due at `rate` per second from the phase start.
    Open {
        /// Offered rate, operations per second.
        rate: f64,
    },
}

/// A deliberately stalled driver, for the benchmark's own tests: it
/// sleeps for `pause` before sending every `every`-th operation of a
/// phase.
#[derive(Clone, Copy, Debug)]
pub struct Stall {
    /// Stall before every this many operations.
    pub every: u64,
    /// How long each stall lasts.
    pub pause: Duration,
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Wall time of the phase's timed window, seconds.
    pub wall: f64,
    /// Operations sent in the window.
    pub ops_sent: u64,
    /// Publications sent in the window.
    pub pubs_sent: u64,
    /// Publications completed in each [`SLICE`] of the window.
    pub pub_slices: Vec<f64>,
    /// Notifications decoded in each [`SLICE`] of the window.
    pub note_slices: Vec<f64>,
    /// Due → decoded, µs, one per notification of a publication due in
    /// the window.
    pub notify_lat: Windowed,
    /// Due → `Published`, µs, one per publication due in the window.
    pub reply_lat: Windowed,
    /// Due → reply, µs, control ops only.
    pub control_lat: Windowed,
    /// Send time − due time, µs, per operation (open loop).
    pub gen_lag_us: Vec<f64>,
    /// Most operations outstanding at once.
    pub backlog_peak: u64,
    /// Turns in the window.
    pub turns: u64,
    /// Turns that changed no event-loop counter (traced phases only).
    pub empty_turns: u64,
    /// Duration of every turn, µs (traced phases only).
    pub turn_us: Vec<f64>,
    /// Time in `turn`, seconds.
    pub turn_busy: f64,
    /// Time in client calls (send, flush, poll_recv, tick), seconds.
    pub client_busy: f64,
    /// Session ticks timed and their total, seconds (traced phases only).
    pub ticks: u64,
    /// Total time of the timed session ticks, seconds.
    pub tick_busy: f64,
    /// Highest `session_in_flight` sampled after a turn (traced only).
    pub in_flight_peak: u64,
    /// Event-loop counters at the window's start and end.
    pub stats_before: NetStats,
    /// See `stats_before`.
    pub stats_after: NetStats,
}

impl PhaseResult {
    /// Publications completed per second over the window's slices.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(&self.pub_slices)
    }

    /// Notifications decoded per second over the window's slices.
    pub fn notifications_per_sec(&self) -> f64 {
        per_sec(&self.note_slices)
    }

    /// Reply latency p50, µs: per latency window the mean of the
    /// publication-reply median and, where the window has control ops,
    /// the control-reply median; the median over the windows. Each median
    /// stays inside one kind of reply, so the figure tracks both kinds
    /// however the two mix in a window.
    pub fn reply_p50_us(&self) -> f64 {
        blended_quantile(&[&self.reply_lat, &self.control_lat], 0.5)
    }

    /// Folds a later phase of the same shape into this one, so
    /// interleaved rounds report as one phase.
    pub fn merge(&mut self, other: PhaseResult) {
        self.wall += other.wall;
        self.ops_sent += other.ops_sent;
        self.pubs_sent += other.pubs_sent;
        self.pub_slices.extend(other.pub_slices);
        self.note_slices.extend(other.note_slices);
        self.notify_lat.append(other.notify_lat);
        self.reply_lat.append(other.reply_lat);
        self.control_lat.append(other.control_lat);
        self.gen_lag_us.extend(other.gen_lag_us);
        self.backlog_peak = self.backlog_peak.max(other.backlog_peak);
        self.turns += other.turns;
        self.empty_turns += other.empty_turns;
        self.turn_us.extend(other.turn_us);
        self.turn_busy += other.turn_busy;
        self.client_busy += other.client_busy;
        self.ticks += other.ticks;
        self.tick_busy += other.tick_busy;
        self.in_flight_peak = self.in_flight_peak.max(other.in_flight_peak);
        self.stats_after = other.stats_after;
    }
}

/// The mean rate of per-[`SLICE`] counts. A mean, not a median: the host
/// moves the closed loop between a slow and a fast regime for seconds at
/// a time (on `fanout` about 1600 and 2200 publications/s), and a median
/// over the slices snaps to whichever regime covers more than half of a
/// run, where the mean moves with the share of each.
fn per_sec(slices: &[f64]) -> f64 {
    crate::stats::ratio(slices.iter().sum(), slices.len() as f64) / SLICE.as_secs_f64()
}

/// Per-operation state.
#[derive(Clone, Debug)]
struct OpState {
    op: Op,
    /// When the operation was due (closed loop: when it was sent).
    due: Instant,
    /// Matches reported by the `Published` reply.
    expected: Option<u32>,
    received: u32,
    replied: bool,
    failed: bool,
    done: bool,
    /// Latency window of the due time; `None` outside timed phases.
    window: Option<usize>,
}

/// What the check needs of every issued operation (8 bytes each, so the
/// driver's own memory stays small next to the broker's).
#[derive(Clone, Copy, Debug)]
struct Issued {
    /// Publication body, or `NOT_A_PUBLICATION`.
    body: u32,
    /// Matches reported by `Published`, or `NO_REPLY`.
    matches: u32,
}

const NOT_A_PUBLICATION: u32 = u32::MAX;
const NO_REPLY: u32 = u32::MAX;

/// Runs phases over a rig.
pub struct Driver<'a> {
    /// The served rig.
    pub rig: Rig,
    inputs: &'a Inputs,
    stream: OpStream<'a>,
    /// Operations not yet done, oldest first; the first is operation `base`.
    inflight: VecDeque<OpState>,
    base: u64,
    /// Every operation issued, by index.
    log: Vec<Issued>,
    /// Operations done with a failed reply.
    failed_ops: u64,
    /// The operation drawn from the stream but not yet sendable.
    held: Option<Op>,
    outstanding: u64,
    /// Tracer for the networked spans.
    pub tracer: Tracer,
    /// Optional injected stall.
    pub stall: Option<Stall>,
}

/// Completed publications and decoded notifications per [`SLICE`] of a
/// phase's timed window.
struct Tally {
    start: Instant,
    completed_pubs: Vec<f64>,
    notified: Vec<f64>,
}

impl Tally {
    fn new(start: Instant, window: Duration) -> Tally {
        let slices = (window.as_secs_f64() / SLICE.as_secs_f64()).floor().max(1.0) as usize;
        Tally { start, completed_pubs: vec![0.0; slices], notified: vec![0.0; slices] }
    }

    fn slice(&self, now: Instant) -> Option<usize> {
        let at = (now.saturating_duration_since(self.start).as_secs_f64() / SLICE.as_secs_f64())
            as usize;
        (at < self.notified.len()).then_some(at)
    }
}

impl<'a> Driver<'a> {
    /// A driver over `rig`, drawing operations from `inputs`' stream.
    pub fn new(rig: Rig, inputs: &'a Inputs) -> Driver<'a> {
        Driver {
            rig,
            inputs,
            stream: inputs.ops(),
            inflight: VecDeque::new(),
            base: 0,
            log: Vec::new(),
            failed_ops: 0,
            held: None,
            outstanding: 0,
            tracer: Tracer::new(false),
            stall: None,
        }
    }

    /// Operations issued so far.
    pub fn issued(&self) -> u64 {
        self.log.len() as u64
    }

    /// Operations that failed: an `Error` or negative reply, or no
    /// complete answer (reply plus every notification) by the end.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.inflight.iter().filter(|s| !s.done).count() as u64
    }

    /// The publications issued so far: (operation index, body).
    pub fn publications(&self) -> Vec<(u64, usize)> {
        self.log
            .iter()
            .enumerate()
            .filter(|(_, i)| i.body != NOT_A_PUBLICATION)
            .map(|(k, i)| (k as u64, i.body as usize))
            .collect()
    }

    /// `Published` match count of operation `k`.
    pub fn published_matches(&self, k: u64) -> Option<u32> {
        self.log.get(k as usize).map(|i| i.matches).filter(|&m| m != NO_REPLY)
    }

    fn state(&mut self, k: u64) -> Option<&mut OpState> {
        let offset = k.checked_sub(self.base)?;
        self.inflight.get_mut(offset as usize)
    }

    /// Runs one timed phase of `duration`, then drains what it left in
    /// flight.
    pub fn run(&mut self, load: Load, duration: Duration) -> PhaseResult {
        let traced = self.tracer.on();
        let mut result =
            PhaseResult { stats_before: self.rig.server.stats(), ..PhaseResult::default() };
        let start = Instant::now();
        let mut tally = Tally::new(start, duration);
        let window_of = |t: Instant| {
            (t.saturating_duration_since(start).as_secs_f64() / LATENCY_WINDOW.as_secs_f64())
                as usize
        };
        let end = start + duration;
        let mut phase_ops: u64 = 0;
        loop {
            let now = Instant::now();
            let in_window = now < end;
            if !in_window && self.outstanding == 0 {
                break;
            }
            if now.saturating_duration_since(end) > DRAIN_CAP {
                break;
            }
            let iter = self.tracer.open("driver.iter", NONE);
            // Send what the load shape allows.
            let mut next_due = None;
            if in_window {
                match load {
                    Load::Closed { window } => {
                        while (self.outstanding as usize) < window {
                            self.maybe_stall(phase_ops);
                            let now = Instant::now();
                            if !self.send_next(now, Some(window_of(now)), &mut result) {
                                break;
                            }
                            phase_ops += 1;
                        }
                    }
                    Load::Open { rate } => loop {
                        let due = start + Duration::from_secs_f64(phase_ops as f64 / rate);
                        if due >= end {
                            break;
                        }
                        if due > Instant::now() {
                            next_due = Some(due);
                            break;
                        }
                        self.maybe_stall(phase_ops);
                        if !self.send_next(due, Some(window_of(due)), &mut result) {
                            next_due = Some(Instant::now());
                            break;
                        }
                        phase_ops += 1;
                    },
                }
            }
            // One event-loop turn, never polling past the next due send.
            let timeout = next_due.map_or(MAX_POLL, |due| {
                due.saturating_duration_since(Instant::now()).min(MAX_POLL)
            });
            let before = traced.then(|| self.rig.server.stats());
            let span = self.tracer.open("eventloop.turn", NONE);
            let t0 = Instant::now();
            self.rig.server.turn(Some(timeout)).expect("turn");
            let dt = t0.elapsed().as_secs_f64();
            self.tracer.close(span);
            if in_window {
                result.turns += 1;
                result.turn_busy += dt;
                if let Some(before) = before {
                    result.turn_us.push(dt * 1e6);
                    if self.rig.server.stats() == before {
                        result.empty_turns += 1;
                    }
                    result.in_flight_peak =
                        result.in_flight_peak.max(self.rig.server.session_in_flight());
                }
            }
            self.drain(in_window, &mut tally, &mut result);
            self.tracer.close(iter);
            result.backlog_peak = result.backlog_peak.max(self.outstanding);
        }
        // Every series gets the phase's full window count, so merged
        // phases keep their windows aligned across series.
        let windows = (duration.as_secs_f64() / LATENCY_WINDOW.as_secs_f64()).ceil() as usize;
        for series in [&mut result.notify_lat, &mut result.reply_lat, &mut result.control_lat] {
            series.fit(windows);
        }
        result.wall = duration.as_secs_f64();
        result.stats_after = self.rig.server.stats();
        result.pub_slices = tally.completed_pubs;
        result.note_slices = tally.notified;
        result
    }

    /// Settles the broker after the last phase: quiescence, then one more
    /// client pass so the last acks land and are counted.
    pub fn finish(&mut self) {
        let mut tally = Tally::new(Instant::now(), Duration::ZERO);
        let mut result = PhaseResult::default();
        for _ in 0..4 {
            self.rig.server.run_until_quiescent(SETTLE_TURNS).expect("turn");
            self.drain(false, &mut tally, &mut result);
        }
        self.rig.server.run_until_quiescent(SETTLE_TURNS).expect("turn");
    }

    fn maybe_stall(&mut self, phase_op: u64) {
        if let Some(stall) = self.stall {
            if phase_op % stall.every == stall.every - 1 {
                std::thread::sleep(stall.pause);
            }
        }
    }

    /// Sends the next operation of the stream, due at `due`. Returns
    /// false if it cannot be sent yet (an unsubscribe whose target is not
    /// confirmed); it is then held and retried.
    fn send_next(&mut self, due: Instant, window: Option<usize>, result: &mut PhaseResult) -> bool {
        let op = self.held.take().unwrap_or_else(|| self.stream.next_op());
        let k = self.log.len() as u64;
        let span = self.tracer.open("driver.send", k as i64);
        let t0 = Instant::now();
        let msg = match &op {
            Op::Publish { body } => {
                let pairs = self.inputs.wire_pairs(&self.inputs.publication(k, *body));
                Some((None, ClientMessage::Publish { client: self.rig.publisher_id, pairs }))
            }
            Op::SetOntology { canonical, alias } => Some((
                None,
                ClientMessage::SetOntology { synonyms: vec![(canonical.clone(), alias.clone())] },
            )),
            Op::Subscribe { conn, pred } => {
                let e = &self.rig.endpoints[*conn];
                let predicates = self.inputs.wire_subscription(&self.inputs.churn_pool[*pred]);
                Some((
                    Some(*conn),
                    ClientMessage::Subscribe { client: e.id.expect("registered"), predicates },
                ))
            }
            Op::Unsubscribe { conn } => {
                let e = &self.rig.endpoints[*conn];
                match e.live.front() {
                    Some(Some(sub)) => Some((
                        Some(*conn),
                        ClientMessage::Unsubscribe { client: e.id.expect("registered"), sub: *sub },
                    )),
                    _ => None,
                }
            }
        };
        let Some((conn, msg)) = msg else {
            self.held = Some(op);
            self.tracer.close(span);
            return false;
        };
        let sent = match conn {
            None => {
                self.rig.publisher.send(&msg).expect("publisher send");
                self.rig.publisher.flush().expect("publisher flush");
                self.rig.publisher_pending.push_back(k);
                true
            }
            Some(c) => {
                let e = &mut self.rig.endpoints[c];
                let Client::Session(client) = &mut e.client else {
                    panic!("control ops target sessioned endpoints")
                };
                let sent = client.request(&msg).expect("session request");
                if sent {
                    e.pending.push_back(k);
                    match &op {
                        Op::Unsubscribe { .. } => {
                            e.live.pop_front();
                        }
                        Op::Subscribe { .. } => e.live.push_back(None),
                        _ => {}
                    }
                }
                sent
            }
        };
        result.client_busy += t0.elapsed().as_secs_f64();
        self.tracer.close(span);
        if !sent {
            self.held = Some(op);
            return false;
        }
        if window.is_some() {
            result.gen_lag_us.push(t0.saturating_duration_since(due).as_secs_f64() * 1e6);
            result.ops_sent += 1;
            result.pubs_sent += u64::from(op.is_publish());
        }
        let body = match op {
            Op::Publish { body } => body as u32,
            _ => NOT_A_PUBLICATION,
        };
        self.log.push(Issued { body, matches: NO_REPLY });
        self.inflight.push_back(OpState {
            op,
            due,
            expected: None,
            received: 0,
            replied: false,
            failed: false,
            done: false,
            window,
        });
        self.outstanding += 1;
        true
    }

    /// Drains the publisher and every subscriber endpoint once.
    fn drain(&mut self, in_window: bool, tally: &mut Tally, result: &mut PhaseResult) {
        let span = self.tracer.open("driver.drain_publisher", NONE);
        let t0 = Instant::now();
        let msgs = self.rig.publisher.poll_recv().expect("publisher frames decode");
        let now = Instant::now();
        result.client_busy += (now - t0).as_secs_f64();
        self.tracer.close(span);
        for msg in msgs {
            let Some(k) = self.rig.publisher_pending.pop_front() else {
                panic!("unsolicited publisher reply {msg:?}");
            };
            match msg {
                ServerMessage::Published { matches } => {
                    self.log[k as usize].matches = matches;
                    if let Some(state) = self.state(k) {
                        state.expected = Some(matches);
                    }
                    self.on_reply(k, now, false, in_window, tally, result);
                }
                ServerMessage::OntologyUpdated { .. } => {
                    self.on_reply(k, now, false, in_window, tally, result)
                }
                _ => self.on_reply(k, now, true, in_window, tally, result),
            }
        }

        let span = self.tracer.open("driver.drain_subscribers", NONE);
        let traced = self.tracer.on();
        for c in 0..self.rig.endpoints.len() {
            let t0 = Instant::now();
            let polled = match &mut self.rig.endpoints[c].client {
                Client::Legacy(client) => client.poll_recv(),
                Client::Session(client) => client.tick(),
            };
            let now = Instant::now();
            let dt = (now - t0).as_secs_f64();
            result.client_busy += dt;
            let sessioned = matches!(self.rig.endpoints[c].client, Client::Session(_));
            if traced && sessioned {
                result.ticks += 1;
                result.tick_busy += dt;
            }
            let msgs = match polled {
                Ok(msgs) => msgs,
                Err(_) => {
                    self.rig.endpoints[c].wire_errors += 1;
                    continue;
                }
            };
            if msgs.is_empty() {
                continue;
            }
            let mut first_req = NONE;
            for msg in msgs {
                match msg {
                    ServerMessage::Notification { seq, payload } => {
                        let k = parse_pub_id(&payload);
                        if first_req == NONE {
                            first_req = k.map_or(NONE, |k| k as i64);
                        }
                        self.on_notification(c, seq, &payload, k, now, in_window, tally, result);
                    }
                    ServerMessage::Subscribed { sub } => {
                        let e = &mut self.rig.endpoints[c];
                        if let Some(slot) = e.live.iter_mut().find(|s| s.is_none()) {
                            *slot = Some(sub);
                        }
                        let k = e.pending.pop_front().expect("reply to a pending control op");
                        self.on_reply(k, now, false, in_window, tally, result);
                    }
                    ServerMessage::Unsubscribed { ok } => {
                        let k = self.rig.endpoints[c].pending.pop_front().expect("pending op");
                        self.on_reply(k, now, !ok, in_window, tally, result);
                    }
                    ServerMessage::Error { .. } => {
                        let k = self.rig.endpoints[c].pending.pop_front().expect("pending op");
                        self.on_reply(k, now, true, in_window, tally, result);
                    }
                    _ => {}
                }
            }
            if sampled(first_req) {
                let name = if sessioned { "session.tick" } else { "client.poll_recv" };
                self.tracer.record(name, first_req, t0, now);
            }
        }
        self.tracer.close(span);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_notification(
        &mut self,
        c: usize,
        seq: u64,
        payload: &str,
        k: Option<u64>,
        now: Instant,
        in_window: bool,
        tally: &mut Tally,
        result: &mut PhaseResult,
    ) {
        let e = &mut self.rig.endpoints[c];
        e.received += 1;
        e.digest = e.digest.wrapping_add(hash64(payload.as_bytes()));
        let sessioned = matches!(e.client, Client::Session(_));
        if sessioned {
            if seq != e.last_seq + 1 {
                e.seq_errors += 1;
            }
            e.last_seq = e.last_seq.max(seq);
        } else if seq != 0 {
            e.seq_errors += 1;
        }
        if in_window {
            if let Some(slice) = tally.slice(now) {
                tally.notified[slice] += 1.0;
            }
        }
        // A notification must name an operation still waiting for it.
        let Some((k, state)) = k.and_then(|k| Some((k, self.state(k)?))) else {
            self.rig.endpoints[c].wire_errors += 1;
            return;
        };
        state.received += 1;
        if let Some(window) = state.window {
            result
                .notify_lat
                .record(window, now.saturating_duration_since(state.due).as_secs_f64() * 1e6);
        }
        self.check_done(k, now, in_window, tally);
    }

    fn on_reply(
        &mut self,
        k: u64,
        now: Instant,
        failed: bool,
        in_window: bool,
        tally: &mut Tally,
        result: &mut PhaseResult,
    ) {
        let state = self.state(k).expect("a reply answers an operation in flight");
        state.replied = true;
        state.failed |= failed;
        if let Some(window) = state.window {
            let lat = now.saturating_duration_since(state.due).as_secs_f64() * 1e6;
            if state.op.is_publish() {
                result.reply_lat.record(window, lat);
            } else {
                result.control_lat.record(window, lat);
            }
        }
        self.check_done(k, now, in_window, tally);
    }

    fn check_done(&mut self, k: u64, now: Instant, in_window: bool, tally: &mut Tally) {
        let state = self.state(k).expect("checked in flight by the caller");
        if state.done || !state.replied {
            return;
        }
        let complete = match state.expected {
            Some(expected) => state.received >= expected,
            None => !state.op.is_publish() || state.failed,
        };
        if !complete {
            return;
        }
        state.done = true;
        let (failed, publication) = (state.failed, state.op.is_publish());
        self.outstanding -= 1;
        self.failed_ops += u64::from(failed);
        if in_window && publication {
            if let Some(slice) = tally.slice(now) {
                tally.completed_pubs[slice] += 1.0;
            }
        }
        while self.inflight.front().is_some_and(|s| s.done) {
            self.inflight.pop_front();
            self.base += 1;
        }
    }
}

/// How the event display renders the `pub_id` stamp pair.
const PUB_ID_MARKER: &str = "(pub_id, ";

/// The operation index stamped into a notification's event text.
pub fn parse_pub_id(payload: &str) -> Option<u64> {
    let tail = &payload[payload.find(PUB_ID_MARKER)? + PUB_ID_MARKER.len()..];
    tail.split(')').next()?.parse().ok()
}

/// (p50, p99) of `samples`.
pub fn p50_p99(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    (quantile(&mut v, 0.50), quantile(&mut v, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PUB_ID_ATTR;

    #[test]
    fn pub_id_marker_names_the_stamp_attribute() {
        assert_eq!(&PUB_ID_MARKER[1..PUB_ID_MARKER.len() - 2], PUB_ID_ATTR);
        let payload =
            "to sub-3 [client#4]: sub#9 matched via exact — event (pub_id, 17) (skill, c)";
        assert_eq!(parse_pub_id(payload), Some(17));
        assert_eq!(parse_pub_id("no stamp"), None);
    }
}
