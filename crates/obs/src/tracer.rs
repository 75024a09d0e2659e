//! The `Tracer` handle: the single field a shard embeds.

use cm_util::Time;

use crate::event::TraceEvent;
use crate::recorder::FlightRecorder;

/// A flight recorder behind one enable check.
///
/// A disabled tracer (the default) is a null `Option<Box<_>>` — one
/// machine word, no heap allocation, and every record method reduces to
/// a single pointer-null test before returning. An enabled tracer owns a
/// boxed [`FlightRecorder`], so enabling tracing never changes the
/// embedding struct's layout.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    recorder: Option<Box<FlightRecorder>>,
}

const _: () = assert!(size_of::<Tracer>() == size_of::<usize>());

impl Tracer {
    /// A disabled tracer: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Tracer { recorder: None }
    }

    /// An enabled tracer whose flight recorder holds the most recent
    /// `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        Tracer {
            recorder: Some(Box::new(FlightRecorder::with_capacity(capacity))),
        }
    }

    /// Records a decision. A no-op when disabled.
    #[inline]
    pub fn record(&mut self, at: Time, event: TraceEvent) {
        if let Some(recorder) = &mut self.recorder {
            recorder.push(at, event);
        }
    }

    /// The flight recorder, when enabled.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_side_effect_free() {
        let mut t = Tracer::disabled();
        t.record(
            Time::ZERO,
            TraceEvent::FlowOpened {
                flow: 0,
                macroflow: 0,
            },
        );
        // No events, no storage — nothing observable happened.
        assert!(t.recorder().is_none());
    }

    #[test]
    fn enabled_tracer_records_events_and_samples() {
        let mut t = Tracer::enabled(4);
        t.record(Time::ZERO, TraceEvent::ShardCreated { shard: 0 });
        t.record(
            Time::from_millis(1),
            TraceEvent::GrantIssued {
                flow: 3,
                bytes: 1460,
            },
        );
        let rec = t.recorder().unwrap();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.iter().next().unwrap().event.kind(), "shard_created");
        assert_eq!(rec.iter().last().unwrap().event.kind(), "grant_issued");
    }
}
