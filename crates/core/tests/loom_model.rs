//! Bounded model checking of the epoch-snapshot control plane with the
//! vendored `loom-lite` checker.
//!
//! Run with the `loom` feature so `stopss_types::sync` swaps to the
//! instrumented primitives:
//!
//! ```text
//! cargo test -p stopss-core --features loom --test loom_model
//! ```
//!
//! Each test explores every thread interleaving of the instrumented
//! lock/atomic operations within a preemption bound (2 unless noted),
//! asserting its invariants on all of them. The `_caught` test is the
//! negative control: it seeds the *unserialized* variant of the
//! snapshot swap — the bug class `SToPSS::mutate`'s control mutex
//! exists to prevent — and proves the checker both finds the lost
//! update and replays the failing schedule deterministically.
#![cfg(feature = "loom")]

use loom_lite::sync::{Arc, Mutex, RwLock};
use loom_lite::{replay, thread, Builder};
use stopss_core::{shard_of, Config, SToPSS};
use stopss_ontology::Ontology;
use stopss_types::{
    Event, Interner, Operator, Predicate, SharedInterner, SubId, Subscription, Value,
};

/// A minimal matcher world: one attribute, one term, syntactic config
/// (no semantic stages — the point is the snapshot plumbing, not the
/// matching pipeline).
fn small_world() -> (SToPSS, Subscription, Event) {
    small_world_with(Config::syntactic())
}

fn small_world_with(config: Config) -> (SToPSS, Subscription, Event) {
    let mut interner = Interner::new();
    let attr = interner.intern("a0");
    let term = interner.intern("t0");
    let shared = SharedInterner::from_interner(interner);
    let matcher = SToPSS::new(config, Arc::new(Ontology::new("model")), shared);
    let sub =
        Subscription::new(SubId(1), vec![Predicate::new(attr, Operator::Eq, Value::Sym(term))]);
    let event = Event::from_pairs(vec![(attr, Value::Sym(term))]);
    (matcher, sub, event)
}

/// A publisher racing a control-plane subscribe observes either the old
/// snapshot or the new one — never a torn state — and the epoch it
/// reports is the linearization token: epoch 1 implies the subscription
/// is visible, a reported match implies epoch 1.
#[test]
fn epoch_snapshot_swap_is_linearized() {
    let report = Builder::default().check(|| {
        let (matcher, sub, event) = small_world();
        let matcher = Arc::new(matcher);
        let writer = {
            let matcher = matcher.clone();
            thread::spawn(move || matcher.subscribe(sub))
        };
        let result = matcher.publish_detailed(&event);
        let new_epoch = writer.join().expect("subscriber thread must not panic");
        assert_eq!(new_epoch, 1, "one mutation bumps the control epoch once");
        assert!(result.epoch <= 1, "publisher saw an epoch no mutation created");
        if result.epoch == 1 {
            assert_eq!(
                result.matches.len(),
                1,
                "epoch-1 snapshot must already contain the subscription"
            );
        } else {
            assert!(
                result.matches.is_empty(),
                "epoch-0 snapshot must not contain the subscription"
            );
        }
        assert_eq!(matcher.control_epoch(), 1);
        assert_eq!(matcher.publish(&event).len(), 1, "post-join snapshot serves the sub");
    });
    assert!(report.complete, "epoch-swap space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// The snapshot is one cut across shards: a batch subscribe landing on
/// two different shards is a single swap, so a racing publisher sees both
/// subscriptions or neither — never one shard after the mutation and the
/// other before it.
#[test]
fn cross_shard_batch_swap_is_one_cut() {
    let report = Builder::default().check(|| {
        let (matcher, sub, event) = small_world_with(Config::syntactic().with_shards(2));
        let twin_id = (2..)
            .map(SubId)
            .find(|id| shard_of(*id, 2) != shard_of(sub.id(), 2))
            .expect("some id routes to the other shard");
        let twin = sub.with_id(twin_id);
        let matcher = Arc::new(matcher);
        let writer = {
            let matcher = matcher.clone();
            thread::spawn(move || matcher.subscribe_batch(vec![(sub, None), (twin, None)]))
        };
        let result = matcher.publish_detailed(&event);
        let new_epoch = writer.join().expect("subscriber thread must not panic");
        assert_eq!(new_epoch, 1, "one batch bumps the control epoch once");
        if result.epoch == 1 {
            assert_eq!(result.matches.len(), 2, "epoch-1 cut must hold both shards' subs");
        } else {
            assert!(result.matches.is_empty(), "epoch-0 cut must hold neither shard's sub");
        }
        assert_eq!(matcher.publish(&event).len(), 2, "post-join snapshot serves both");
    });
    assert!(report.complete, "cross-shard swap space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// Two concurrent publishers bump the shared `AtomicStats` counters;
/// the per-counter sums are exact under every interleaving (they are
/// monotone relaxed counters — this is the claim the `// ordering:`
/// annotations in `matcher.rs` make).
#[test]
fn atomic_stats_merge_conserves_counts() {
    let report = Builder::default().check(|| {
        let (matcher, _sub, event) = small_world();
        let matcher = Arc::new(matcher);
        let other = {
            let matcher = matcher.clone();
            let event = event.clone();
            thread::spawn(move || matcher.publish(&event))
        };
        matcher.publish(&event);
        let mid = matcher.stats().published;
        assert!(mid >= 1, "own publication must be visible to its own thread");
        other.join().expect("publisher thread must not panic");
        assert_eq!(matcher.stats().published, 2, "a concurrent publication was lost");
    });
    assert!(report.complete, "stats-merge space must be exhausted, ran {report:?}");
}

/// The unserialized read–fork–swap this toy performs: both threads fork
/// the *same* parent snapshot, so one fork overwrites the other.
/// `SToPSS::mutate` holds the control mutex across fork+swap exactly to
/// rule this out; `serialize` reproduces that discipline.
fn fork_push_swap(slot: &RwLock<Arc<Vec<u32>>>, value: u32, serialize: Option<&Mutex<()>>) {
    let _control = serialize.map(|m| m.lock());
    let parent = slot.read().clone();
    let mut forked = (*parent).clone();
    forked.push(value);
    *slot.write() = Arc::new(forked);
}

/// Negative control, documenting the bug class the control mutex
/// prevents: two unserialized control mutations race, one update is
/// lost, and loom-lite both catches it and hands back a schedule that
/// replays the failure deterministically.
#[test]
fn unserialized_snapshot_swap_lost_update_caught() {
    let run = || {
        let slot = Arc::new(RwLock::new(Arc::new(Vec::new())));
        let other = {
            let slot = slot.clone();
            thread::spawn(move || fork_push_swap(&slot, 1, None))
        };
        fork_push_swap(&slot, 2, None);
        other.join().expect("forker thread must not panic");
        assert_eq!(slot.read().len(), 2, "lost update: a concurrent fork was overwritten");
    };
    let outcome = Builder::default().check_outcome(run);
    let (message, schedule) =
        outcome.failure.expect("bounded exploration must find the lost update");
    assert!(message.contains("lost update"), "unexpected failure: {message}");
    // The recorded schedule is a seed: replaying it reproduces the same
    // failure without searching. This is what a CI failure hands you.
    let replayed = replay(&schedule, run).expect("replaying the schedule must fail again");
    assert!(replayed.contains("lost update"), "replay diverged: {replayed}");
}

/// The serialized version of the same mutation — the discipline
/// `SToPSS::mutate` implements — survives exhaustive exploration.
#[test]
fn serialized_snapshot_swap_conserves_updates() {
    let report = Builder::default().check(|| {
        let slot = Arc::new(RwLock::new(Arc::new(Vec::new())));
        let control = Arc::new(Mutex::new(()));
        let other = {
            let (slot, control) = (slot.clone(), control.clone());
            thread::spawn(move || fork_push_swap(&slot, 1, Some(&control)))
        };
        fork_push_swap(&slot, 2, Some(&control));
        other.join().expect("forker thread must not panic");
        assert_eq!(slot.read().len(), 2);
    });
    assert!(report.complete, "serialized-swap space must be exhausted, ran {report:?}");
}
