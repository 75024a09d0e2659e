//! Zero-allocation enforcement for the observability hot paths.
//!
//! docs/perf.md's flat-state rules extend to tracing: an *enabled*
//! tracer must record events without touching the heap (the ring is
//! preallocated at construction). A *disabled* tracer must of course
//! also allocate nothing — it is the default on every CM hot path.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use cm_obs::{TraceEvent, Tracer};
use cm_util::Time;
use counting_alloc::allocs;

/// One burst of record work: a wrap-inducing event storm.
fn burst(t: &mut Tracer, base: u64) {
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
}

fn min_delta_over_trials(t: &mut Tracer) -> u64 {
    // Take the minimum delta over several trials (an ambient allocation
    // is one-shot; a real per-record allocation shows up in every trial).
    let mut min_delta = u64::MAX;
    for trial in 0..5 {
        let before = allocs();
        for i in 0..20 {
            burst(t, trial * 1_000 + i * 37);
        }
        let after = allocs();
        min_delta = min_delta.min(after - before);
    }
    min_delta
}

/// Drives: `FlightRecorder::push` through an enabled `Tracer`.
#[test]
fn enabled_record_and_snapshot_paths_never_allocate() {
    // Construction is the one allowed allocation: the ring.
    let mut t = Tracer::enabled(32);
    // Warm-up: fill the ring past wrap-around so steady state is pure
    // overwrite.
    burst(&mut t, 0);
    assert!(
        t.recorder().unwrap().len() == 32,
        "ring not full after warm-up"
    );

    let min_delta = min_delta_over_trials(&mut t);
    // Warm-up plus 5 trials × 20 bursts, 128 records per burst.
    let recorded = t.recorder().unwrap().total_recorded();
    assert_eq!(recorded, 101 * 128, "records went missing");
    assert_eq!(
        min_delta, 0,
        "enabled tracer allocated in every trial (at least {min_delta} \
         allocations per 20 record bursts)"
    );
}

/// Drives: the disabled `Tracer`'s record path, which never reaches
/// `FlightRecorder::push`.
#[test]
fn disabled_tracer_never_allocates() {
    let mut t = Tracer::disabled();
    burst(&mut t, 0);
    let min_delta = min_delta_over_trials(&mut t);
    assert!(t.recorder().is_none());
    assert_eq!(
        min_delta, 0,
        "disabled tracer allocated (at least {min_delta} allocations \
         per 20 record bursts)"
    );
}
