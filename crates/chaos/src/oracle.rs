//! Recovery oracles: judging whether the system actually recovered.
//!
//! The [`RecoveryOracle`] reads the observe bus's event stream — the
//! same stream every layer already emits into — and computes, per
//! applied fault:
//!
//! - **MTTR**: virtual time from fault injection to the first reply
//!   delivered to the client afterwards (the client-visible moment
//!   service resumed);
//! - **availability**: the goodput ratio during the fault window —
//!   replies delivered to the client over requests it sent while the
//!   fault held.
//!
//! Safety invariants (no lost committed transactions, no duplicate
//! side-effects) are judged by the callers that know the application
//! semantics; this module supplies the counter-based half
//! ([`RecoveryReport::gather`] snapshots the dedup and breaker
//! counters, whose invariant `duplicate_dispatches == 0` is the
//! at-most-once execution guarantee).

use rmodp_engineering::nucleus::DRIVER_PORT;
use rmodp_observe::export::escape_into;
use rmodp_observe::{bus, Event, EventKind, Layer};

use crate::inject::AppliedFault;

/// Formats a float with three decimals (deterministic, locale-free).
fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Per-fault recovery verdict.
#[derive(Debug, Clone)]
pub struct FaultRecovery {
    /// Fault type label.
    pub label: String,
    /// Fault parameters.
    pub detail: String,
    /// Injection time (virtual microseconds).
    pub injected_us: u64,
    /// Clear time, if the fault window closed.
    pub cleared_us: Option<u64>,
    /// Whether the client saw any reply after injection.
    pub recovered: bool,
    /// Time from injection to first post-injection client delivery; if
    /// service never resumed, time from injection to the end of the
    /// observed trace.
    pub mttr_us: u64,
    /// Client requests sent during the fault window.
    pub sent_in_window: u64,
    /// Replies delivered to the client during the fault window.
    pub delivered_in_window: u64,
    /// `delivered_in_window / sent_in_window`, capped at 1.0 (and 1.0
    /// when nothing was sent): the goodput ratio while the fault held.
    pub availability: f64,
}

/// Judges client-visible recovery from the observe event stream.
///
/// The measurement basis: netsim emits `Send` events located at the
/// source address and `Deliver` events located at the destination, so
/// the client's outbound requests are `Send` at `(client, DRIVER_PORT)`
/// and the replies it actually received are `Deliver` at the same
/// coordinates.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOracle {
    /// Netsim node index of the client, as recorded in event metadata.
    pub client_node: u64,
}

impl RecoveryOracle {
    /// An oracle watching the given client sim-node index.
    pub fn new(client_node: u64) -> Self {
        Self { client_node }
    }

    fn is_client_send(&self, e: &Event) -> bool {
        e.layer == Layer::Netsim
            && e.kind == EventKind::Send
            && e.node == Some(self.client_node)
            && e.port == Some(DRIVER_PORT as u64)
    }

    fn is_client_deliver(&self, e: &Event) -> bool {
        e.layer == Layer::Netsim
            && e.kind == EventKind::Deliver
            && e.node == Some(self.client_node)
            && e.port == Some(DRIVER_PORT as u64)
    }

    /// Analyses the event stream against the applied faults.
    pub fn analyse(&self, events: &[Event], faults: &[AppliedFault]) -> Vec<FaultRecovery> {
        let trace_end = events.iter().map(|e| e.t_us).max().unwrap_or(0);
        let send_times: Vec<u64> = events
            .iter()
            .filter(|e| self.is_client_send(e))
            .map(|e| e.t_us)
            .collect();
        let deliver_times: Vec<u64> = events
            .iter()
            .filter(|e| self.is_client_deliver(e))
            .map(|e| e.t_us)
            .collect();
        faults
            .iter()
            .map(|f| {
                let injected = f.injected_at.as_micros();
                let cleared = f.cleared_at.map(|t| t.as_micros());
                let window_end = cleared.unwrap_or(trace_end);
                // Request/reply payloads are opaque at this layer, so
                // availability is the window's goodput ratio: replies
                // delivered during the window over requests sent during
                // it. A healthy window has roughly one delivery per
                // send; a dead server yields sends with no deliveries.
                let sent_in_window = send_times
                    .iter()
                    .filter(|&&t| t >= injected && t < window_end)
                    .count() as u64;
                let delivered_in_window = deliver_times
                    .iter()
                    .filter(|&&t| t >= injected && t < window_end)
                    .count() as u64;
                let first_recovery = deliver_times.iter().find(|&&d| d >= injected).copied();
                let (recovered, mttr_us) = match first_recovery {
                    Some(d) => (true, d - injected),
                    None => (false, trace_end.saturating_sub(injected)),
                };
                let availability = if sent_in_window == 0 {
                    1.0
                } else {
                    (delivered_in_window as f64 / sent_in_window as f64).min(1.0)
                };
                FaultRecovery {
                    label: f.label.to_string(),
                    detail: f.detail.clone(),
                    injected_us: injected,
                    cleared_us: cleared,
                    recovered,
                    mttr_us,
                    sent_in_window,
                    delivered_in_window,
                    availability,
                }
            })
            .collect()
    }
}

/// The full recovery verdict for a chaos run: per-fault recoveries plus
/// the hardened-path counters whose values are the safety half of the
/// chaos invariants.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-fault verdicts, in injection order.
    pub faults: Vec<FaultRecovery>,
    /// Duplicate requests suppressed by the server dedup cache.
    pub dedup_hits: u64,
    /// Requests dispatched to a behaviour more than once. The
    /// at-most-once invariant: this must be zero.
    pub duplicate_dispatches: u64,
    /// Circuit-breaker state transitions observed.
    pub breaker_transitions: u64,
    /// Mean MTTR across recovered faults (microseconds; 0 when none).
    pub mean_mttr_us: u64,
}

impl RecoveryReport {
    /// Builds the report: analyses the current observe event stream
    /// against the applied faults and snapshots the hardened-path
    /// counters.
    pub fn gather(oracle: &RecoveryOracle, faults: &[AppliedFault]) -> Self {
        let events = bus::snapshot_events();
        let verdicts = oracle.analyse(&events, faults);
        let recovered: Vec<&FaultRecovery> = verdicts.iter().filter(|v| v.recovered).collect();
        let mean_mttr_us = if recovered.is_empty() {
            0
        } else {
            recovered.iter().map(|v| v.mttr_us).sum::<u64>() / recovered.len() as u64
        };
        Self {
            faults: verdicts,
            dedup_hits: bus::counter("engineering.dedup.hits"),
            duplicate_dispatches: bus::counter("engineering.dedup.duplicate_dispatches"),
            breaker_transitions: bus::counter("engineering.breaker.transitions"),
            mean_mttr_us,
        }
    }

    /// Whether every fault recovered and no duplicate side-effects were
    /// observed.
    pub fn clean(&self) -> bool {
        self.duplicate_dispatches == 0 && self.faults.iter().all(|f| f.recovered)
    }

    /// Deterministic text rendering: one line per fault plus a counter
    /// summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            let cleared = match f.cleared_us {
                Some(t) => format!("{t}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<14} inject={}us clear={}us recovered={} mttr={}us avail={} ({}/{})\n",
                f.label,
                f.injected_us,
                cleared,
                f.recovered,
                f.mttr_us,
                f3(f.availability),
                f.delivered_in_window,
                f.sent_in_window,
            ));
        }
        out.push_str(&format!(
            "dedup_hits={} duplicate_dispatches={} breaker_transitions={} mean_mttr={}us\n",
            self.dedup_hits, self.duplicate_dispatches, self.breaker_transitions, self.mean_mttr_us
        ));
        out
    }

    /// Deterministic JSON rendering with a fixed field order.
    pub fn to_json(&self) -> String {
        let faults: Vec<String> = self
            .faults
            .iter()
            .map(|f| {
                let cleared = match f.cleared_us {
                    Some(t) => t.to_string(),
                    None => "null".to_string(),
                };
                let (mut label, mut detail) = (String::new(), String::new());
                escape_into(&mut label, &f.label);
                escape_into(&mut detail, &f.detail);
                format!(
                    "{{\"fault\":\"{}\",\"detail\":\"{}\",\"injected_us\":{},\"cleared_us\":{},\"recovered\":{},\"mttr_us\":{},\"sent_in_window\":{},\"delivered_in_window\":{},\"availability\":{}}}",
                    label,
                    detail,
                    f.injected_us,
                    cleared,
                    f.recovered,
                    f.mttr_us,
                    f.sent_in_window,
                    f.delivered_in_window,
                    f3(f.availability),
                )
            })
            .collect();
        format!(
            "{{\"faults\":[{}],\"dedup_hits\":{},\"duplicate_dispatches\":{},\"breaker_transitions\":{},\"mean_mttr_us\":{}}}",
            faults.join(","),
            self.dedup_hits,
            self.duplicate_dispatches,
            self.breaker_transitions,
            self.mean_mttr_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_netsim::time::SimTime;

    fn ev(kind: EventKind, t_us: u64, node: u64, port: u64) -> Event {
        Event {
            seq: 0,
            t_us,
            layer: Layer::Netsim,
            kind,
            span: None,
            parent: None,
            node: Some(node),
            port: Some(port),
            channel: None,
            capsule: None,
            detail: String::new(),
        }
    }

    fn fault(injected_us: u64, cleared_us: u64) -> AppliedFault {
        AppliedFault {
            index: 0,
            label: "crash_restart",
            detail: "crash n0".into(),
            injected_at: SimTime::from_micros(injected_us),
            cleared_at: Some(SimTime::from_micros(cleared_us)),
        }
    }

    #[test]
    fn mttr_is_first_delivery_after_injection() {
        let events = vec![
            ev(EventKind::Send, 900, 2, 1),
            ev(EventKind::Deliver, 950, 2, 1),
            ev(EventKind::Send, 1_100, 2, 1),
            ev(EventKind::Deliver, 1_700, 2, 1),
        ];
        let oracle = RecoveryOracle::new(2);
        let out = oracle.analyse(&events, &[fault(1_000, 1_500)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].recovered);
        assert_eq!(out[0].mttr_us, 700);
        assert_eq!(out[0].sent_in_window, 1);
        // The only deliveries fall outside the window: availability 0.
        assert_eq!(out[0].delivered_in_window, 0);
        assert!(out[0].availability.abs() < 1e-9);
    }

    #[test]
    fn unanswered_sends_lower_availability() {
        let events = vec![
            ev(EventKind::Send, 1_100, 2, 1),
            ev(EventKind::Send, 1_200, 2, 1),
            ev(EventKind::Deliver, 1_150, 2, 1),
        ];
        let oracle = RecoveryOracle::new(2);
        let out = oracle.analyse(&events, &[fault(1_000, 1_500)]);
        assert_eq!(out[0].sent_in_window, 2);
        assert_eq!(out[0].delivered_in_window, 1);
        assert!((out[0].availability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_delivery_means_not_recovered() {
        let events = vec![ev(EventKind::Send, 1_100, 2, 1)];
        let oracle = RecoveryOracle::new(2);
        let out = oracle.analyse(&events, &[fault(1_000, 1_500)]);
        assert!(!out[0].recovered);
        assert_eq!(out[0].mttr_us, 100);
    }

    #[test]
    fn other_nodes_do_not_count() {
        let events = vec![
            ev(EventKind::Send, 1_100, 7, 1),
            ev(EventKind::Deliver, 1_200, 7, 1),
        ];
        let oracle = RecoveryOracle::new(2);
        let out = oracle.analyse(&events, &[fault(1_000, 1_500)]);
        assert_eq!(out[0].sent_in_window, 0);
        assert!((out[0].availability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_escapes_fault_strings() {
        let mut faults = RecoveryOracle::new(2).analyse(&[], &[fault(1_000, 1_500)]);
        faults[0].label = "crash\"restart".into();
        faults[0].detail = "a\"b\\c\nd\u{1}e".into();
        let report = RecoveryReport {
            faults,
            dedup_hits: 0,
            duplicate_dispatches: 0,
            breaker_transitions: 0,
            mean_mttr_us: 0,
        };
        assert!(report.to_json().starts_with(
            r#"{"faults":[{"fault":"crash\"restart","detail":"a\"b\\c\nd\u0001e","injected_us":1000,"#
        ));
    }
}
