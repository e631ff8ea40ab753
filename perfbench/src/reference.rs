//! The correctness check, run after the timed phases.
//!
//! Steady subscribers (every subscriber on `fanout` and `semantic`, the
//! never-churned ones on `churn`) must have decoded exactly the
//! notifications an in-process `SToPSS` reference predicts on the same
//! inputs: the same count and the same payload multiset (compared as a
//! wrapping sum of payload hashes), with seq 0 on legacy connections and
//! seqs 1, 2, 3, … on sessions. Churned subscriptions are checked by the
//! event loop's conservation identities and per-session seq contiguity.

use std::collections::HashMap;

use stopss_core::Match;
use stopss_types::SubId;

use crate::driver::Driver;
use crate::workload::{hash64, served_matcher, Inputs};

/// Outcome of the check.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Operations attempted: issued ops plus expected notifications.
    pub attempted: u64,
    /// Failed operations (see the module docs).
    pub failed: u64,
    /// One line per kind of failure seen, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, count: u64, what: String) {
        if count > 0 {
            self.failed += count;
            self.problems.push(what);
        }
    }
}

/// The payload the broker renders for a match (the notification text of
/// the paper's demo, kept byte-identical on the networked path).
pub fn render_payload(name: &str, client: &str, sub: SubId, origin: &str, event: &str) -> String {
    format!("to {name} [{client}]: {sub} matched via {origin} — event {event}")
}

/// Checks everything the driver saw against the reference.
pub fn check(inputs: &Inputs, driver: &Driver<'_>) -> Verdict {
    let mut verdict = Verdict::default();
    let rig = &driver.rig;

    // Issued operations: each needs its reply, and each publication all
    // of its notifications.
    let op_failures = driver.failed();
    verdict.attempted += driver.issued();
    verdict.fail(op_failures, format!("{op_failures} operations without a good reply"));

    // The reference over the steady subscribers' subscriptions.
    let reference = served_matcher(&inputs.ontology, &inputs.interner);
    let mut table = inputs.storm_table(rig.endpoints.iter().map(|e| e.storm_ids.as_slice()));
    table.retain(|(_, e)| !rig.endpoints[*e].churned);
    let owner: HashMap<SubId, usize> = table.iter().map(|(sub, e)| (sub.id(), *e)).collect();
    reference.subscribe_batch(table.into_iter().map(|(sub, _)| (sub, None)).collect());

    let n = rig.endpoints.len();
    let mut expected_count = vec![0u64; n];
    let mut expected_digest = vec![0u64; n];
    let clients: Vec<String> =
        rig.endpoints.iter().map(|e| e.id.map_or_else(String::new, |id| id.to_string())).collect();
    let churned = rig.endpoints.iter().any(|e| e.churned);
    let mut match_count_mismatches = 0;
    // No subscription names the `pub_id` stamp, so a body's matches are
    // the same under every stamp: match each body once, keep each match's
    // payload up to the event text, and append every publication's own
    // event text to it.
    let mut prefixes: Vec<Option<Vec<(usize, String)>>> = vec![None; inputs.bodies.len()];
    let mut payload = String::new();
    for (k, body) in driver.publications() {
        let event = inputs.publication(k, body);
        let matched = prefixes[body].get_or_insert_with(|| {
            let render = |m: &Match| {
                let e = owner[&m.sub];
                let name = &rig.endpoints[e].name;
                (e, render_payload(name, &clients[e], m.sub, &m.origin.to_string(), ""))
            };
            reference.publish(&event).iter().map(render).collect()
        });
        let text = event.display(&inputs.interner).to_string();
        for (e, prefix) in matched.iter() {
            payload.clear();
            payload.push_str(prefix);
            payload.push_str(&text);
            expected_count[*e] += 1;
            expected_digest[*e] = expected_digest[*e].wrapping_add(hash64(payload.as_bytes()));
        }
        // Without churn every match is a steady one, so the broker's
        // `Published` count must equal the reference's.
        if !churned && driver.published_matches(k) != Some(matched.len() as u32) {
            match_count_mismatches += 1;
        }
    }
    verdict.fail(
        match_count_mismatches,
        format!("{match_count_mismatches} Published counts differ from the reference"),
    );

    let mut mismatched = 0;
    let mut bad_notifications = 0;
    for (e, endpoint) in rig.endpoints.iter().enumerate() {
        if endpoint.churned {
            verdict.attempted += endpoint.received;
            continue;
        }
        let worst = expected_count[e].max(endpoint.received);
        verdict.attempted += worst;
        if endpoint.received != expected_count[e] || endpoint.digest != expected_digest[e] {
            mismatched += 1;
            bad_notifications += worst;
        }
    }
    verdict.fail(
        bad_notifications,
        format!("{mismatched} subscribers' notifications differ from the reference"),
    );
    let seq_errors: u64 = rig.endpoints.iter().map(|e| e.seq_errors).sum();
    verdict.fail(seq_errors, format!("{seq_errors} notifications out of seq order"));
    let wire_errors: u64 = rig.endpoints.iter().map(|e| e.wire_errors).sum();
    verdict.fail(wire_errors, format!("{wire_errors} undecodable or unattributable frames"));

    // Conservation: every match ends in exactly one accounted bucket.
    let stats = rig.server.stats();
    let broker = rig.server.broker();
    let delivered = broker.delivery_stats().total_delivered();
    verdict.fail(
        stats.notifications_dropped,
        format!("{} notifications dropped", stats.notifications_dropped),
    );
    verdict.fail(
        stats.notifications_disconnected,
        format!("{} notifications disconnected", stats.notifications_disconnected),
    );
    let matched = stats.matches_seen;
    let accounted = broker.orphaned_matches() + delivered;
    verdict.fail(
        matched.abs_diff(accounted),
        format!("matches_seen {matched} != orphaned + delivered {accounted}"),
    );
    let received: u64 = rig.endpoints.iter().map(|e| e.received).sum();
    if inputs.spec.sessioned {
        let terminal = stats.notifications_acked
            + stats.notifications_replayed
            + stats.notifications_dropped
            + stats.notifications_expired
            + rig.server.session_in_flight();
        verdict.fail(
            delivered.abs_diff(terminal),
            format!("delivered {delivered} != session buckets {terminal}"),
        );
        let acked = stats.notifications_acked + stats.notifications_replayed;
        verdict
            .fail(received.abs_diff(acked), format!("received {received} != acknowledged {acked}"));
    } else {
        let sent = stats.notifications_sent;
        verdict.fail(received.abs_diff(sent), format!("received {received} != sent {sent}"));
    }
    verdict
}
