//! Zero-allocation enforcement for the observability hot paths.
//!
//! docs/perf.md's flat-state rules extend to tracing: an *enabled*
//! tracer must record events and metrics samples without touching the
//! heap (the ring and bucket storage are preallocated at construction),
//! and the metrics snapshot path must condense histograms into plain
//! values without allocating. A *disabled* tracer must of course also
//! allocate nothing — it is the default on every CM hot path.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use cm_obs::{MetricsSnapshot, TraceEvent, Tracer};
use cm_util::{Duration, Time};
use counting_alloc::ALLOCS;

/// One burst of record + snapshot work: a wrap-inducing event storm,
/// one sample into each histogram, and a full metrics snapshot.
fn burst(t: &mut Tracer, base: u64) -> Option<MetricsSnapshot> {
    for i in 0..64 {
        let at = Time::from_nanos(base + i);
        t.record(
            at,
            TraceEvent::GrantIssued {
                flow: i as u32,
                bytes: 1460,
            },
        );
        t.record(
            at,
            TraceEvent::FeedbackAccepted {
                flow: i as u32,
                bytes_acked: 1460,
            },
        );
    }
    t.grant_latency(Duration::from_micros(base % 5_000));
    t.feedback_gap(Duration::from_millis(base % 200));
    t.window(1460 * (1 + base % 64));
    t.metrics_snapshot()
}

fn min_delta_over_trials(t: &mut Tracer) -> u64 {
    // The counter is process-global, so take the minimum delta over
    // several trials (ambient libtest allocations are one-shot; a real
    // per-record allocation shows up in every trial).
    let mut min_delta = u64::MAX;
    for trial in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        for i in 0..20 {
            burst(t, trial * 1_000 + i * 37);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        min_delta = min_delta.min(after - before);
    }
    min_delta
}

/// Drives: `FlightRecorder::push`; `MetricsRegistry::record_grant_latency`,
/// `record_feedback_gap`, `record_window`.
#[test]
fn enabled_record_and_snapshot_paths_never_allocate() {
    // Construction is the one allowed allocation: ring + buckets.
    let mut t = Tracer::enabled(32);
    // Warm-up: fill the ring past wrap-around so steady state is pure
    // overwrite.
    burst(&mut t, 0);
    assert!(
        t.recorder().unwrap().len() == 32,
        "ring not full after warm-up"
    );

    let min_delta = min_delta_over_trials(&mut t);
    let snap = t.metrics_snapshot().unwrap();
    assert!(snap.grant_latency.count >= 100, "samples went missing");
    assert_eq!(
        min_delta, 0,
        "enabled tracer allocated in every trial (at least {min_delta} \
         allocations per 20 record/snapshot bursts)"
    );
}

#[test]
fn disabled_tracer_never_allocates() {
    let mut t = Tracer::disabled();
    burst(&mut t, 0);
    let min_delta = min_delta_over_trials(&mut t);
    assert!(t.metrics_snapshot().is_none());
    assert_eq!(
        min_delta, 0,
        "disabled tracer allocated (at least {min_delta} allocations \
         per 20 record bursts)"
    );
}
