//! Deterministic flight-recorder dump emitters.
//!
//! The CM's tracer ([`cm_core::CmConfig::tracing`]) retains a bounded
//! ring of typed [`TraceRecord`]s per shard plus a front-level ring of
//! shard-lifecycle events. This module turns that in-memory state into
//! the repo's two interchange forms — CSV and JSON Lines — and the
//! one-line text form the chaos harness's post-mortem dumps use. All
//! three are **deterministic**: records are ordered by `(time, source,
//! sequence)`, floats never appear (timestamps are integer nanoseconds),
//! and the JSONL is hand-assembled from the events' stable
//! [`cm_core::TraceEvent::kind`] / [`cm_core::TraceEvent::fields`]
//! vocabulary, so the same CM state always serializes to the same
//! bytes.

use std::fmt::Write as _;

use cm_core::{CongestionManager, TraceRecord};

/// One collected record: where it was retained (`None` = the CM front)
/// and what it says.
type Entry = (Option<u32>, TraceRecord);

/// Collects every retained record, ordered by `(time, source, seq)` —
/// the merged timeline the emitters below serialize. The front sorts
/// before shard 0 at equal timestamps.
fn collect(cm: &CongestionManager) -> Vec<Entry> {
    let mut entries: Vec<Entry> = Vec::new();
    cm.for_each_trace_record(|shard, r| entries.push((shard, *r)));
    entries.sort_by_key(|(shard, r)| (r.at, shard.map_or(0, |s| s as u64 + 1), r.seq));
    entries
}

/// The `source` cell: the shard index, or `front` for the CM front's
/// shard-lifecycle ring.
fn source(shard: Option<u32>) -> String {
    shard.map_or_else(|| "front".to_string(), |s| s.to_string())
}

/// Serializes the CM's retained trace to CSV.
///
/// Fixed header `source,seq,t_ns,event,field1,value1,field2,value2`;
/// events with fewer than two payload fields leave the surplus cells
/// empty. Returns just the header line when tracing is disabled.
pub fn trace_csv(cm: &CongestionManager) -> String {
    let mut out = String::from("source,seq,t_ns,event,field1,value1,field2,value2\n");
    for (shard, r) in collect(cm) {
        let _ = write!(
            out,
            "{},{},{},{}",
            source(shard),
            r.seq,
            r.at.as_nanos(),
            r.event.kind()
        );
        for (name, value) in r.event.fields() {
            if name.is_empty() {
                out.push_str(",,");
            } else {
                let _ = write!(out, ",{name},{value}");
            }
        }
        out.push('\n');
    }
    out
}

/// Serializes the CM's retained trace to JSON Lines: one object per
/// record, e.g.
///
/// ```json
/// {"source":0,"seq":3,"t_ns":50000000,"event":"grant_issued","flow":0,"bytes":1460}
/// ```
///
/// `source` is the shard index, or the string `"front"`. Assembled by
/// hand — the event vocabulary is closed and every value is an integer,
/// so no JSON library is needed (and none is vendored). Returns the
/// empty string when tracing is disabled.
pub fn trace_jsonl(cm: &CongestionManager) -> String {
    let mut out = String::new();
    for (shard, r) in collect(cm) {
        let _ = match shard {
            Some(s) => write!(out, "{{\"source\":{s}"),
            None => write!(out, "{{\"source\":\"front\""),
        };
        let _ = write!(
            out,
            ",\"seq\":{},\"t_ns\":{},\"event\":\"{}\"",
            r.seq,
            r.at.as_nanos(),
            r.event.kind()
        );
        for (name, value) in r.event.fields() {
            if !name.is_empty() {
                let _ = write!(out, ",\"{name}\":{value}");
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Formats one record as the single text line the chaos post-mortem
/// dumps use: `host=client shard=0 seq=12 t=1.000000 grant_issued
/// flow=0 bytes=1460`.
fn trace_line(host: &str, shard: Option<u32>, r: &TraceRecord) -> String {
    let mut out = format!(
        "host={host} shard={} seq={} t={} {}",
        source(shard),
        r.seq,
        r.at,
        r.event.kind()
    );
    for (name, value) in r.event.fields() {
        if !name.is_empty() {
            let _ = write!(out, " {name}={value}");
        }
    }
    out
}

/// The newest `limit` records as post-mortem text lines (oldest of those
/// first) — what a failing chaos run attaches per host.
pub fn trace_tail_lines(host: &str, cm: &CongestionManager, limit: usize) -> Vec<String> {
    let entries = collect(cm);
    let skip = entries.len().saturating_sub(limit);
    entries
        .iter()
        .skip(skip)
        .map(|(shard, r)| trace_line(host, *shard, r))
        .collect()
}

/// Event kinds and their counts, ordered by first appearance in the
/// merged timeline — the summary table the `decision_timeline` figure
/// prints.
pub fn kind_counts(cm: &CongestionManager) -> Vec<(&'static str, u64)> {
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    for (_, r) in collect(cm) {
        let kind = r.event.kind();
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind, 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::config::TracingConfig;
    use cm_core::prelude::*;

    fn traced_cm() -> (CongestionManager, FlowId) {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            tracing: Some(TracingConfig { capacity: 64 }),
            ..Default::default()
        });
        let key = FlowKey::new(Endpoint::new(1, 5000), Endpoint::new(2, 80));
        let f = cm.open(key, Time::ZERO).unwrap();
        cm.request(f, Time::ZERO).unwrap();
        let mut notes = Vec::new();
        cm.drain_notifications_into(&mut notes);
        cm.notify(f, 1460, Time::ZERO).unwrap();
        cm.update(f, FeedbackReport::ack(1460, 1), Time::from_millis(50))
            .unwrap();
        (cm, f)
    }

    #[test]
    fn csv_has_fixed_header_and_stable_order() {
        let (cm, _) = traced_cm();
        let csv = trace_csv(&cm);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("source,seq,t_ns,event,field1,value1,field2,value2")
        );
        let body: Vec<&str> = lines.collect();
        assert!(body.iter().any(|l| l.contains("flow_opened")));
        assert!(body.iter().any(|l| l.contains("grant_issued")));
        // Deterministic: same state, same bytes.
        assert_eq!(csv, trace_csv(&cm));
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_named_fields() {
        let (cm, _) = traced_cm();
        let jsonl = trace_jsonl(&cm);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"event\":\""), "{line}");
        }
        assert!(jsonl.contains("\"event\":\"grant_issued\",\"flow\":"));
        assert!(jsonl.contains("\"source\":\"front\""), "front ring missing");
    }

    #[test]
    fn disabled_tracing_serializes_to_nothing() {
        let cm = CongestionManager::new(CmConfig::default());
        assert_eq!(trace_csv(&cm).lines().count(), 1, "header only");
        assert!(trace_jsonl(&cm).is_empty());
        assert!(trace_tail_lines("h", &cm, 10).is_empty());
        assert!(kind_counts(&cm).is_empty());
    }

    #[test]
    fn tail_lines_keep_the_newest() {
        let (cm, _) = traced_cm();
        let all = trace_tail_lines("client", &cm, usize::MAX);
        let tail = trace_tail_lines("client", &cm, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[..], all[all.len() - 2..]);
        assert!(tail[0].starts_with("host=client shard="));
    }
}
