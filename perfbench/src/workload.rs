//! Seeded inputs of the three workloads.
//!
//! Everything the broker receives comes from here: the subscriber
//! connections and their subscriptions, the distinct publication bodies,
//! and an endless operation stream (publications interleaved with control
//! ops on `churn`). Equal seeds give equal inputs; [`Inputs::hash`] makes
//! that visible.

use std::sync::Arc;

use stopss_broker::{subscription_to_wire, NetBrokerConfig, WireValue};
use stopss_core::SToPSS;
use stopss_ontology::Ontology;
use stopss_types::{
    Event, Interner, Predicate, SharedInterner, SubId, Subscription, Symbol, Value,
};
use stopss_workload::{
    generate_geo, generate_jobfinder, GeoDomain, GeoWorkloadConfig, JobFinderDomain, Rng, Workload,
    WorkloadConfig, Zipf,
};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fanout", "semantic", "churn"];

/// Attribute that stamps every publication with its operation index, so
/// a notification names the publication that caused it.
pub const PUB_ID_ATTR: &str = "pub_id";

/// Shape of one workload: connection counts, load parameters and the
/// open-loop rate.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Operations kept in flight by the closed loop. `semantic` keeps
    /// more, as its publications are cheap: with 16 its throughput swung
    /// between two batching regimes from run to run.
    pub window: usize,
    /// Offered rate of the open-loop phase, operations per second.
    pub open_rate: f64,
    /// Every `control_every`-th operation is a control op (0: none).
    pub control_every: u64,
    /// Subscribers speak the session protocol (`Hello` + auto-ack).
    pub sessioned: bool,
}

impl Spec {
    /// The spec of a workload, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Spec> {
        match name {
            "fanout" => Some(Spec {
                name: "fanout",
                window: 16,
                open_rate: 250.0,
                control_every: 0,
                sessioned: false,
            }),
            "semantic" => Some(Spec {
                name: "semantic",
                window: 64,
                open_rate: 1000.0,
                control_every: 0,
                sessioned: false,
            }),
            "churn" => Some(Spec {
                name: "churn",
                window: 8,
                open_rate: 500.0,
                control_every: 2,
                sessioned: true,
            }),
            _ => None,
        }
    }
}

/// Size knobs; [`Sizes::full`] is what the benchmark runs, the tests use
/// smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Subscriber connections on `fanout`.
    pub fanout_connections: usize,
    /// Subscriptions on `semantic`.
    pub semantic_subscriptions: usize,
    /// Subscriber connections on `semantic`.
    pub semantic_connections: usize,
    /// Tenants on `semantic`.
    pub semantic_tenants: usize,
    /// Never-churned connections on `churn`.
    pub churn_steady_connections: usize,
    /// Churned connections on `churn`.
    pub churn_churned_connections: usize,
    /// Subscriptions per `churn` connection.
    pub churn_subs_per_connection: usize,
    /// Tenants on `churn`.
    pub churn_tenants: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            fanout_connections: 1024,
            semantic_subscriptions: 10_240,
            semantic_connections: 32,
            semantic_tenants: 256,
            churn_steady_connections: 48,
            churn_churned_connections: 16,
            churn_subs_per_connection: 32,
            churn_tenants: 16,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    pub fn tiny() -> Sizes {
        Sizes {
            fanout_connections: 48,
            semantic_subscriptions: 256,
            semantic_connections: 4,
            semantic_tenants: 8,
            churn_steady_connections: 4,
            churn_churned_connections: 4,
            churn_subs_per_connection: 4,
            churn_tenants: 2,
        }
    }
}

/// Subscription templates of `fanout`, shared Zipf(1.0)-skewed by the
/// connections.
const FANOUT_TEMPLATES: usize = 64;
/// Generated subscriptions the `fanout` templates are chosen from.
const FANOUT_CANDIDATES: usize = 512;
/// Generated publications the `fanout` bodies are chosen from.
const FANOUT_BODY_CANDIDATES: usize = 16384;
/// Generator seed of the `fanout` candidate pool.
const FANOUT_POOL_SEED: u64 = 2003;
/// Zipf exponent of template popularity on `fanout`.
const FANOUT_SKEW: f64 = 1.0;
/// Match rate over the bodies wanted of the popular `fanout` templates:
/// about 140 notifications per publication at 1024 connections.
const FANOUT_MATCH_RATE: f64 = 0.14;
/// Distinct publication bodies per workload.
const BODIES: usize = 512;
/// Candidate subscriptions the churned connections subscribe from.
const CHURN_POOL: usize = 256;
/// Every this many control ops, one is a live `SetOntology` delta.
const ONTOLOGY_EVERY: u64 = 16;

/// One subscriber connection's inputs.
#[derive(Clone, Debug)]
pub struct ConnInputs {
    /// Registered client name (appears in every notification payload).
    pub name: String,
    /// Subscriptions sent in the set-up storm, in order.
    pub subs: Vec<Vec<Predicate>>,
    /// True if the connection's subscriptions are churned by control ops.
    pub churned: bool,
}

/// One operation of the stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Publish body `body`, stamped with the operation index.
    Publish {
        /// Index into [`Inputs::bodies`].
        body: usize,
    },
    /// Subscribe churned connection `conn` to `churn_pool[pred]`.
    Subscribe {
        /// Subscriber connection index.
        conn: usize,
        /// Index into [`Inputs::churn_pool`].
        pred: usize,
    },
    /// Unsubscribe the oldest live subscription of churned connection `conn`.
    Unsubscribe {
        /// Subscriber connection index.
        conn: usize,
    },
    /// Add one synonym pair to the live ontology. The alias is a fresh
    /// term no publication uses, so match sets stay unchanged while the
    /// broker still forks, re-closes and swaps its matcher.
    SetOntology {
        /// Canonical term.
        canonical: String,
        /// Fresh alias.
        alias: String,
    },
}

impl Op {
    /// True for publications.
    pub fn is_publish(&self) -> bool {
        matches!(self, Op::Publish { .. })
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The workload's shape.
    pub spec: Spec,
    /// The seed the inputs came from.
    pub seed: u64,
    /// The domain ontology the broker serves.
    pub ontology: Ontology,
    /// Interner holding every term of the inputs.
    pub interner: Interner,
    /// Interned [`PUB_ID_ATTR`].
    pub pub_id: Symbol,
    /// Subscriber connections.
    pub conns: Vec<ConnInputs>,
    /// Distinct publication bodies.
    pub bodies: Vec<Event>,
    /// Candidate subscriptions of churned connections.
    pub churn_pool: Vec<Vec<Predicate>>,
    /// Canonical terms the ontology deltas attach aliases to.
    canonicals: Vec<String>,
}

impl Inputs {
    /// Generates the inputs of workload `spec` from `seed`.
    pub fn generate(spec: Spec, seed: u64, sizes: Sizes) -> Inputs {
        let mut interner = Interner::new();
        let mut rng = Rng::new(seed ^ 0x5709_55be_2003);
        let (ontology, conns, bodies, churn_pool, canonicals) = match spec.name {
            "fanout" => {
                let domain = JobFinderDomain::build(&mut interner);
                let workload = generate_jobfinder(
                    &domain,
                    &WorkloadConfig {
                        subscriptions: FANOUT_CANDIDATES,
                        publications: FANOUT_BODY_CANDIDATES,
                        seed: FANOUT_POOL_SEED,
                        ..Default::default()
                    },
                );
                // The templates are the candidate subscriptions whose match
                // rate over the candidate bodies is closest to
                // FANOUT_MATCH_RATE, ranked by that closeness; the bodies are
                // the candidates whose fan-out over the connections is
                // closest to FANOUT_MATCH_RATE × connections. Every seed and
                // every publication then gives about the same fan-out. The
                // candidate pool is fixed because a pool drawn from the run's
                // seed can leave a gap around the target (one seed's bodies
                // averaged 95 notifications); the seed draws the connections'
                // templates, and through them the bodies, and the stream.
                let hits = match_matrix(&domain.ontology, &interner, &workload);
                let mut rate = vec![0.0; FANOUT_CANDIDATES];
                for body in &hits {
                    for &s in body {
                        rate[usize::from(s)] += 1.0 / hits.len() as f64;
                    }
                }
                let ranked = closest(&rate, FANOUT_MATCH_RATE, FANOUT_TEMPLATES);
                let zipf = Zipf::new(FANOUT_TEMPLATES, FANOUT_SKEW);
                let templates: Vec<usize> =
                    (0..sizes.fanout_connections).map(|_| ranked[zipf.sample(&mut rng)]).collect();
                let mut holders = vec![0.0; FANOUT_CANDIDATES];
                for &t in &templates {
                    holders[t] += 1.0;
                }
                let fanout: Vec<f64> = hits
                    .iter()
                    .map(|body| body.iter().map(|&s| holders[usize::from(s)]).sum())
                    .collect();
                let target = FANOUT_MATCH_RATE * templates.len() as f64;
                let mut chosen = closest(&fanout, target, BODIES);
                chosen.sort_unstable();
                let bodies = chosen.iter().map(|&b| workload.publications[b].clone()).collect();
                let conns = templates
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| ConnInputs {
                        name: format!("sub-{k}"),
                        subs: vec![workload.subscriptions[t].predicates().to_vec()],
                        churned: false,
                    })
                    .collect();
                (domain.ontology, conns, bodies, Vec::new(), Vec::new())
            }
            "semantic" => {
                let domain = GeoDomain::build(&mut interner);
                let workload = generate_geo(
                    &domain,
                    &GeoWorkloadConfig {
                        subscriptions: sizes.semantic_subscriptions,
                        publications: BODIES,
                        seed,
                        ..Default::default()
                    },
                );
                let tenant = interner.intern("tenant");
                let tenants = sizes.semantic_tenants;
                let mut conns: Vec<ConnInputs> = (0..sizes.semantic_connections)
                    .map(|k| ConnInputs {
                        name: format!("sub-{k}"),
                        subs: Vec::new(),
                        churned: false,
                    })
                    .collect();
                let n_conns = conns.len();
                // Every tenant gets the same number of subscriptions, spread
                // over the connections, so the matches per publication vary
                // with the publication, not with the seed's tenant draw.
                for (k, sub) in workload.subscriptions.iter().enumerate() {
                    let preds = with_tenant(sub, tenant, (k / n_conns) % tenants);
                    conns[k % n_conns].subs.push(preds);
                }
                let bodies = tenant_bodies(workload.publications, tenant, tenants, &mut rng);
                (domain.ontology, conns, bodies, Vec::new(), Vec::new())
            }
            "churn" => {
                let domain = JobFinderDomain::build(&mut interner);
                let per_conn = sizes.churn_subs_per_connection;
                let n_steady = sizes.churn_steady_connections;
                let n_conns = n_steady + sizes.churn_churned_connections;
                let workload = generate_jobfinder(
                    &domain,
                    &WorkloadConfig {
                        subscriptions: n_conns * per_conn + CHURN_POOL,
                        publications: BODIES,
                        seed,
                        preds_per_sub: (2, 4),
                        ..Default::default()
                    },
                );
                let tenant = interner.intern("tenant");
                let tenants = sizes.churn_tenants;
                // Tenants round-robin over the subscriptions, as on `semantic`.
                let mut subs = workload
                    .subscriptions
                    .iter()
                    .enumerate()
                    .map(|(j, s)| with_tenant(s, tenant, j % tenants));
                let conns = (0..n_conns)
                    .map(|k| ConnInputs {
                        name: format!("sub-{k}"),
                        subs: (&mut subs).take(per_conn).collect(),
                        churned: k >= n_steady,
                    })
                    .collect();
                let churn_pool = subs.collect();
                let bodies = tenant_bodies(workload.publications, tenant, tenants, &mut rng);
                let canonicals = ["university", "skill", "position", "salary", "degree"]
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect();
                (domain.ontology, conns, bodies, churn_pool, canonicals)
            }
            other => panic!("unknown workload {other}"),
        };
        let pub_id = interner.intern(PUB_ID_ATTR);
        Inputs { spec, seed, ontology, interner, pub_id, conns, bodies, churn_pool, canonicals }
    }

    /// The operation stream: the same seed always yields the same ops.
    pub fn ops(&self) -> OpStream<'_> {
        let churned: Vec<usize> =
            self.conns.iter().enumerate().filter(|(_, c)| c.churned).map(|(k, _)| k).collect();
        let live = churned.iter().map(|&k| self.conns[k].subs.len()).collect();
        OpStream {
            inputs: self,
            rng: Rng::new(self.seed ^ 0x0905_5eed),
            next: 0,
            controls: 0,
            churned,
            live,
        }
    }

    /// The publication operation `k` sends: the `pub_id` stamp, then the body.
    pub fn publication(&self, k: u64, body: usize) -> Event {
        let mut event = Event::with_capacity(self.bodies[body].len() + 1);
        event.push(self.pub_id, Value::Int(k as i64));
        for (attr, value) in self.bodies[body].pairs() {
            event.push(*attr, *value);
        }
        event
    }

    /// Total subscriptions of the set-up storm.
    pub fn subscription_count(&self) -> usize {
        self.conns.iter().map(|c| c.subs.len()).sum()
    }

    /// Hash of the generated inputs: every subscription in wire form,
    /// every body, and the first 4096 operations of the stream.
    pub fn hash(&self) -> u64 {
        use std::fmt::Write as _;
        let mut text = String::new();
        for conn in &self.conns {
            let _ = write!(text, "{} {} ", conn.name, conn.churned);
            for preds in &conn.subs {
                let _ = write!(text, "{:?}", self.wire_subscription(preds));
            }
        }
        for preds in &self.churn_pool {
            let _ = write!(text, "{:?}", self.wire_subscription(preds));
        }
        for body in &self.bodies {
            let _ = write!(text, "{}", body.display(&self.interner));
        }
        let mut ops = self.ops();
        for _ in 0..4096 {
            let _ = write!(text, "{:?}", ops.next_op());
        }
        hash64(text.as_bytes())
    }

    /// A subscription's predicates in wire form.
    pub fn wire_subscription(&self, preds: &[Predicate]) -> Vec<stopss_broker::WirePredicate> {
        subscription_to_wire(&Subscription::new(SubId(0), preds.to_vec()), &self.interner)
    }

    /// An event's pairs in wire form.
    pub fn wire_pairs(&self, event: &Event) -> Vec<(String, WireValue)> {
        event
            .pairs()
            .iter()
            .map(|(attr, value)| {
                let name = self.interner.resolve(*attr).to_owned();
                (name, WireValue::from_value(value, &self.interner))
            })
            .collect()
    }

    /// The set-up storm's subscriptions under the ids the broker assigned
    /// (`storm_ids`: one slice per connection, in storm order), each with
    /// the index of its connection.
    pub fn storm_table<'s>(
        &self,
        storm_ids: impl IntoIterator<Item = &'s [SubId]>,
    ) -> Vec<(Subscription, usize)> {
        let mut table = Vec::new();
        for (e, (ids, conn)) in storm_ids.into_iter().zip(&self.conns).enumerate() {
            for (id, preds) in ids.iter().zip(&conn.subs) {
                table.push((Subscription::new(*id, preds.clone()), e));
            }
        }
        table
    }
}

/// The endless, seeded operation stream of one workload.
pub struct OpStream<'a> {
    inputs: &'a Inputs,
    rng: Rng,
    next: u64,
    controls: u64,
    /// Churned connection indices.
    churned: Vec<usize>,
    /// Live subscriptions per churned connection, as the stream has
    /// issued them.
    live: Vec<usize>,
}

impl OpStream<'_> {
    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        self.next += 1;
        let every = self.inputs.spec.control_every;
        if every == 0 || !self.next.is_multiple_of(every) || self.churned.is_empty() {
            return Op::Publish { body: self.rng.index(self.inputs.bodies.len()) };
        }
        self.controls += 1;
        if self.controls.is_multiple_of(ONTOLOGY_EVERY) {
            let canonicals = &self.inputs.canonicals;
            return Op::SetOntology {
                canonical: canonicals[self.rng.index(canonicals.len())].clone(),
                alias: format!("alias-{}-{}", self.inputs.seed, self.controls),
            };
        }
        let slot = (self.controls as usize) % self.churned.len();
        let conn = self.churned[slot];
        let target = self.inputs.conns[conn].subs.len();
        if self.live[slot] >= target {
            self.live[slot] -= 1;
            Op::Unsubscribe { conn }
        } else {
            self.live[slot] += 1;
            Op::Subscribe { conn, pred: self.rng.index(self.inputs.churn_pool.len()) }
        }
    }
}

/// For each of `workload`'s publications, the indices of the
/// subscriptions it matches under the served (semantic) configuration
/// (`u16`, to keep input generation's memory far below the broker's).
fn match_matrix(ontology: &Ontology, interner: &Interner, workload: &Workload) -> Vec<Vec<u16>> {
    let matcher = served_matcher(ontology, interner);
    matcher.subscribe_batch(workload.subscriptions.iter().map(|s| (s.clone(), None)).collect());
    workload
        .publications
        .iter()
        .map(|event| matcher.publish(event).iter().map(|m| m.sub.0 as u16).collect())
        .collect()
}

/// An empty in-process matcher over `ontology` and `interner`'s terms,
/// configured as the networked broker serves.
pub fn served_matcher(ontology: &Ontology, interner: &Interner) -> SToPSS {
    let config = NetBrokerConfig::default().broker.matcher;
    let shared = SharedInterner::from_interner(interner.clone());
    SToPSS::new(config, Arc::new(ontology.clone()), shared)
}

/// Indices of the `n` values closest to `target`, closest first (ties by
/// index).
fn closest(values: &[f64], target: f64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        (values[a] - target).abs().total_cmp(&(values[b] - target).abs()).then(a.cmp(&b))
    });
    order.truncate(n);
    order
}

/// `sub`'s predicates plus `tenant = t`.
fn with_tenant(sub: &Subscription, tenant: Symbol, t: usize) -> Vec<Predicate> {
    let mut preds = sub.predicates().to_vec();
    preds.push(Predicate::eq(tenant, Value::Int(t as i64)));
    preds
}

/// Publication bodies, each addressed to one tenant.
fn tenant_bodies(bodies: Vec<Event>, tenant: Symbol, tenants: usize, rng: &mut Rng) -> Vec<Event> {
    bodies
        .into_iter()
        .map(|mut body| {
            body.push(tenant, Value::Int(rng.index(tenants) as i64));
            body
        })
        .collect()
}

/// A 64-bit hash of `bytes` that consumes eight bytes per step. The driver
/// runs it on every decoded notification inside the timed phases, so it
/// must cost little next to the broker's per-notification work; the
/// notification digests are wrapping sums of it.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    // splitmix64's finalizer, so every input bit reaches every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in WORKLOADS {
            let spec = Spec::named(name).expect("known workload");
            let a = Inputs::generate(spec, 7, Sizes::tiny()).hash();
            let b = Inputs::generate(spec, 7, Sizes::tiny()).hash();
            let c = Inputs::generate(spec, 8, Sizes::tiny()).hash();
            assert_eq!(a, b, "{name}: same seed must give the same inputs");
            assert_ne!(a, c, "{name}: another seed must give other inputs");
        }
    }

    #[test]
    fn churn_stream_keeps_the_table_size() {
        let inputs = Inputs::generate(Spec::named("churn").unwrap(), 3, Sizes::tiny());
        let mut ops = inputs.ops();
        let (mut subs, mut unsubs, mut deltas) = (0, 0, 0);
        for _ in 0..4000 {
            match ops.next_op() {
                Op::Subscribe { .. } => subs += 1,
                Op::Unsubscribe { .. } => unsubs += 1,
                Op::SetOntology { .. } => deltas += 1,
                Op::Publish { .. } => {}
            }
        }
        assert!(subs > 0 && deltas > 0);
        assert!(unsubs - subs <= inputs.conns.iter().filter(|c| c.churned).count() as i64);
    }
}
