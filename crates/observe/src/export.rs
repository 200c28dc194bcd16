//! Exporters: deterministic JSONL trace dump, per-node / per-channel
//! summary tables, and a causal timeline report.
//!
//! JSON is written by hand with a fixed field order and no whitespace,
//! so the same event stream always renders to the same bytes.

use crate::event::{Event, EventKind, Layer};
use crate::metrics::Registry;
use std::collections::BTreeMap;

/// Appends `s` to `out` as the body of a JSON string (without the
/// surrounding quotes): `"`, `\` and control characters are escaped,
/// everything else is copied as is. The trace exporter, the SLO report
/// and the chaos recovery report all write their text fields through it.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders one event as a single JSON object (no trailing newline).
/// Field order is fixed; absent coordinates are omitted.
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(96 + e.detail.len());
    out.push_str(&format!(
        "{{\"seq\":{},\"t_us\":{},\"layer\":\"{}\",\"kind\":\"{}\"",
        e.seq,
        e.t_us,
        e.layer.name(),
        e.kind.name()
    ));
    if let Some(v) = e.span {
        out.push_str(&format!(",\"span\":{v}"));
    }
    if let Some(v) = e.parent {
        out.push_str(&format!(",\"parent\":{v}"));
    }
    if let Some(v) = e.node {
        out.push_str(&format!(",\"node\":{v}"));
    }
    if let Some(v) = e.port {
        out.push_str(&format!(",\"port\":{v}"));
    }
    if let Some(v) = e.channel {
        out.push_str(&format!(",\"channel\":{v}"));
    }
    if let Some(v) = e.capsule {
        out.push_str(&format!(",\"capsule\":{v}"));
    }
    if !e.detail.is_empty() {
        out.push_str(",\"detail\":\"");
        escape_into(&mut out, &e.detail);
        out.push('"');
    }
    out.push('}');
    out
}

/// Renders the whole stream as JSON Lines (one object per line,
/// trailing newline after each). Byte-identical for identical streams.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

#[derive(Debug, Default, Clone, Copy)]
struct NodeRow {
    sends: u64,
    delivers: u64,
    drops: u64,
    timers: u64,
    other: u64,
}

/// Renders a per-node summary table (message traffic and all other
/// events located at each node), followed by a per-channel hop count
/// table and per-layer event-kind totals. Unbounded — at federation
/// scale prefer [`summary_table_capped`].
pub fn summary_table(events: &[Event]) -> String {
    summary_table_capped(events, usize::MAX)
}

/// [`summary_table`] with each table truncated to `max_rows` rows; a
/// `(+N more)` marker makes the truncation explicit.
pub fn summary_table_capped(events: &[Event], max_rows: usize) -> String {
    let mut nodes: BTreeMap<u64, NodeRow> = BTreeMap::new();
    let mut channels: BTreeMap<u64, u64> = BTreeMap::new();
    let mut kinds: BTreeMap<(Layer, EventKind), u64> = BTreeMap::new();

    for e in events {
        *kinds.entry((e.layer, e.kind)).or_insert(0) += 1;
        if let Some(node) = e.node {
            let row = nodes.entry(node).or_default();
            match e.kind {
                EventKind::Send => row.sends += 1,
                EventKind::Deliver => row.delivers += 1,
                EventKind::Drop => row.drops += 1,
                EventKind::TimerFired => row.timers += 1,
                _ => row.other += 1,
            }
        }
        if let Some(ch) = e.channel {
            *channels.entry(ch).or_insert(0) += 1;
        }
    }

    let mut out = String::new();
    out.push_str(&format!("events: {}\n", events.len()));
    let more = |out: &mut String, total: usize| {
        if total > max_rows {
            out.push_str(&format!("  (+{} more)\n", total - max_rows));
        }
    };
    if !nodes.is_empty() {
        out.push_str(&format!(
            "{:>6} {:>7} {:>9} {:>6} {:>7} {:>7}\n",
            "node", "sends", "delivers", "drops", "timers", "other"
        ));
        for (node, r) in nodes.iter().take(max_rows) {
            out.push_str(&format!(
                "{:>6} {:>7} {:>9} {:>6} {:>7} {:>7}\n",
                node, r.sends, r.delivers, r.drops, r.timers, r.other
            ));
        }
        more(&mut out, nodes.len());
    }
    if !channels.is_empty() {
        out.push_str(&format!("{:>8} {:>7}\n", "channel", "events"));
        for (ch, n) in channels.iter().take(max_rows) {
            out.push_str(&format!("{ch:>8} {n:>7}\n"));
        }
        more(&mut out, channels.len());
    }
    if !kinds.is_empty() {
        out.push_str(&format!("{:<14} {:<16} {:>6}\n", "layer", "kind", "count"));
        for ((layer, kind), n) in kinds.iter().take(max_rows) {
            out.push_str(&format!(
                "{:<14} {:<16} {:>6}\n",
                layer.name(),
                kind.name(),
                n
            ));
        }
        more(&mut out, kinds.len());
    }
    out
}

/// Renders a causal timeline: events in emission order, indented by the
/// depth of their span in the parent chain, so a migration's checkpoint,
/// transfer messages, and reactivation visually nest under the
/// migration's own span. Unbounded — at federation scale prefer
/// [`timeline_capped`].
pub fn timeline(events: &[Event]) -> String {
    timeline_capped(events, usize::MAX)
}

/// [`timeline`] truncated to the first `max_events` events, with a
/// `(+N more events)` marker making the truncation explicit. Span
/// depths are still computed over the whole stream, so the shown prefix
/// indents exactly as it would untruncated.
pub fn timeline_capped(events: &[Event], max_events: usize) -> String {
    // A span's parent is taken from the first event that declares it.
    let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if let (Some(span), Some(parent)) = (e.span, e.parent) {
            parent_of.entry(span).or_insert(parent);
        }
    }
    let depth_of = |span: Option<u64>| -> usize {
        let mut d = 0usize;
        let mut cur = span;
        while let Some(s) = cur {
            match parent_of.get(&s) {
                Some(&p) if d < 16 => {
                    d += 1;
                    cur = Some(p);
                }
                _ => break,
            }
        }
        d
    };

    let mut out = String::new();
    for e in events.iter().take(max_events) {
        let indent = "  ".repeat(depth_of(e.span));
        out.push_str(&format!("t={:>8}us {}{}\n", e.t_us, indent, {
            let mut line = format!("[{}] {}", e.layer.name(), e.kind.name());
            if let Some(s) = e.span {
                line.push_str(&format!(" span={s}"));
            }
            if let Some(n) = e.node {
                line.push_str(&format!(" node={n}"));
            }
            if !e.detail.is_empty() {
                line.push_str(&format!(" — {}", e.detail));
            }
            line
        }));
    }
    if events.len() > max_events {
        out.push_str(&format!("(+{} more events)\n", events.len() - max_events));
    }
    out
}

/// Renders the metrics registry (delegates to [`Registry::render`]).
pub fn metrics_table(registry: &Registry) -> String {
    registry.render()
}

/// Renders the durable store's health block: WAL/snapshot footprint and
/// the compaction / recovery counters (`store.*`), plus the failure
/// transparency's lost-update counter, which the store-backed path must
/// keep at zero. Empty when no store metric has been recorded.
pub fn store_summary(registry: &Registry) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (name, v) in registry.gauges() {
        if name.starts_with("store.") {
            rows.push((name.to_owned(), v.to_string()));
        }
    }
    for (name, v) in registry.counters() {
        if name.starts_with("store.") || name == "failure.lost_updates" {
            rows.push((name.to_owned(), v.to_string()));
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    rows.sort();
    let mut out = String::from("durable store:\n");
    for (name, v) in rows {
        out.push_str(&format!("  {name:<44} {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, Layer};

    fn ev(seq: u64, kind: EventKind, span: Option<u64>, parent: Option<u64>) -> Event {
        Event {
            seq,
            t_us: seq * 10,
            layer: Layer::Netsim,
            kind,
            span,
            parent,
            node: Some(seq % 2),
            port: None,
            channel: Some(3),
            capsule: None,
            detail: format!("e{seq}"),
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let mut e = ev(0, EventKind::Send, Some(1), None);
        e.detail = "say \"hi\"\nline2\\\u{1}\té".into();
        let line = event_to_json(&e);
        assert_eq!(
            line,
            "{\"seq\":0,\"t_us\":0,\"layer\":\"netsim\",\"kind\":\"send\",\"span\":1,\"node\":0,\"channel\":3,\"detail\":\"say \\\"hi\\\"\\nline2\\\\\\u0001\\té\"}"
        );
        let evs = vec![
            ev(0, EventKind::Send, Some(1), None),
            ev(1, EventKind::Deliver, Some(1), None),
        ];
        assert_eq!(to_jsonl(&evs), to_jsonl(&evs));
        assert_eq!(to_jsonl(&evs).lines().count(), 2);
    }

    #[test]
    fn summary_counts_nodes_and_channels() {
        let evs = vec![
            ev(0, EventKind::Send, Some(1), None),
            ev(1, EventKind::Deliver, Some(1), None),
            ev(2, EventKind::Drop, Some(2), None),
            ev(3, EventKind::TimerFired, None, None),
        ];
        let s = summary_table(&evs);
        assert!(s.contains("events: 4"));
        assert!(s.contains("channel"));
        assert!(s.contains("netsim"));
    }

    #[test]
    fn capped_exports_mark_truncation() {
        let evs: Vec<Event> = (0..20)
            .map(|i| ev(i, EventKind::Send, Some(1), None))
            .collect();
        let t = timeline_capped(&evs, 5);
        assert_eq!(t.lines().count(), 6);
        assert!(t.ends_with("(+15 more events)\n"));
        // Under the cap: no marker, identical to the unbounded render.
        assert_eq!(timeline_capped(&evs, 20), timeline(&evs));
        assert!(!timeline_capped(&evs, 20).contains("more events"));

        // 20 events over nodes 0/1, channel 3 — capping rows to 1 marks
        // the hidden node row.
        let s = summary_table_capped(&evs, 1);
        assert!(s.contains("(+1 more)"));
        assert_eq!(summary_table_capped(&evs, 100), summary_table(&evs));
    }

    #[test]
    fn store_summary_collects_store_metrics_only() {
        let mut reg = Registry::new();
        assert_eq!(store_summary(&reg), "", "no store metrics, no block");
        reg.gauge_set("store.log_bytes", 4096);
        reg.gauge_set("store.snapshot_bytes", 1024);
        reg.counter_add("store.compactions", 2);
        reg.counter_add("store.recovery_replayed", 17);
        reg.counter_add("failure.lost_updates", 0);
        reg.counter_add("netsim.sent", 99);
        let s = store_summary(&reg);
        assert!(s.starts_with("durable store:\n"));
        assert!(s.contains("store.log_bytes"));
        assert!(s.contains("store.snapshot_bytes"));
        assert!(s.contains("store.compactions"));
        assert!(s.contains("store.recovery_replayed"));
        assert!(s.contains("failure.lost_updates"));
        assert!(!s.contains("netsim.sent"));
    }

    #[test]
    fn timeline_indents_child_spans() {
        let evs = vec![
            ev(0, EventKind::CallStart, Some(1), None),
            ev(1, EventKind::Send, Some(2), Some(1)),
            ev(2, EventKind::Deliver, Some(2), Some(1)),
        ];
        let t = timeline(&evs);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[1].contains("  [netsim] send"));
        assert!(!lines[0].contains("  [netsim]"));
    }
}
