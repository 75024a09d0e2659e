//! The typed event vocabulary of the flight recorder.
//!
//! One [`TraceEvent`] is one CM decision. Variants carry raw `u32` ids
//! (the integer inside a `FlowId`/`MacroflowId`) rather than the handle
//! types themselves so this crate sits *below* `cm-core` in the
//! dependency graph; the shard encoding (`shard << SLOT_BITS | slot`)
//! survives intact, so a dump can still attribute every event.

use cm_util::Time;

/// The kind of congestion response a controller took, as recorded by
/// [`TraceEvent::Congestion`]. Mirrors the loss modes of `cm_update`
/// minus the no-congestion case (pure ACKs are far too frequent to
/// trace individually; they are visible in the metrics instead).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CongestionSignal {
    /// Transient congestion: isolated loss, window halved.
    Transient,
    /// Persistent congestion: window collapsed to one MTU, slow-start.
    Persistent,
    /// ECN echo: reduce without loss.
    Ecn,
    /// Delay-gradient overuse: a delay-based controller detected a
    /// rising queueing-delay trend and backed off before any loss.
    Delay,
}

/// One recorded CM decision.
///
/// The taxonomy covers every point where the CM changes its mind about
/// a flow or macroflow: lifecycle (open/close/reap), the grant loop
/// (issue/reclaim), feedback vetting (accept/clamp/reject/quarantine),
/// controller transitions (congestion responses and the feedback-free
/// write-off), unresponsive-app backoff (arm/lapse), shard creation,
/// and the periodic maintenance tick.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceEvent {
    /// `cm_open` admitted a flow into a macroflow.
    FlowOpened {
        /// The new flow's id.
        flow: u32,
        /// The macroflow it joined.
        macroflow: u32,
    },
    /// `cm_close` retired a flow.
    FlowClosed {
        /// The closed flow's id.
        flow: u32,
    },
    /// The orphan reaper closed a flow whose owner went silent.
    FlowReaped {
        /// The reaped flow's id.
        flow: u32,
    },
    /// The scheduler granted a flow permission to send.
    GrantIssued {
        /// The granted flow.
        flow: u32,
        /// Grant size in bytes.
        bytes: u64,
    },
    /// An expired (never-`notify`d) grant was reclaimed.
    GrantReclaimed {
        /// The flow whose grant lapsed.
        flow: u32,
        /// Bytes returned to the window.
        bytes: u64,
    },
    /// A feedback report passed sanity vetting and was applied.
    FeedbackAccepted {
        /// The reporting flow.
        flow: u32,
        /// Bytes newly confirmed delivered.
        bytes_acked: u64,
    },
    /// A feedback report was applied with its RTT sample clamped.
    FeedbackClamped {
        /// The reporting flow.
        flow: u32,
    },
    /// A feedback report was rejected outright (impossible byte counts).
    FeedbackRejected {
        /// The reporting flow.
        flow: u32,
    },
    /// Repeated bad feedback quarantined a flow from shared state.
    FlowQuarantined {
        /// The quarantined flow.
        flow: u32,
    },
    /// A controller took a congestion response.
    Congestion {
        /// The macroflow whose window changed.
        macroflow: u32,
        /// What kind of congestion was reported.
        signal: CongestionSignal,
        /// The congestion window *after* the response, in bytes.
        cwnd: u64,
    },
    /// The feedback-free write-off fired: outstanding bytes reclaimed
    /// and the controller given a one-shot `Persistent` signal.
    WriteOff {
        /// The written-off macroflow.
        macroflow: u32,
        /// Outstanding bytes reclaimed by the write-off.
        reclaimed: u64,
    },
    /// An unresponsive flow entered grant backoff (requests parked).
    BackoffArmed {
        /// The backed-off flow.
        flow: u32,
    },
    /// A grant backoff lapsed; parked requests re-entered the queue.
    BackoffLapsed {
        /// The recovering flow.
        flow: u32,
    },
    /// A shard was created (on its first group's first `open`).
    ShardCreated {
        /// The shard's index.
        shard: u32,
    },
    /// One maintenance tick finished on a shard.
    TickSummary {
        /// The ticked shard's index.
        shard: u32,
        /// Macroflows scanned by the maintenance walk.
        scanned: u64,
    },
}

impl TraceEvent {
    /// A stable, lowercase snake-case name for the event, suitable as a
    /// CSV column value or JSONL `event` field. `Congestion` events
    /// fold the signal into the name (`congestion_transient`,
    /// `congestion_persistent`, `congestion_ecn`) so a dump is greppable
    /// by response kind.
    pub fn kind(self) -> &'static str {
        match self {
            TraceEvent::FlowOpened { .. } => "flow_opened",
            TraceEvent::FlowClosed { .. } => "flow_closed",
            TraceEvent::FlowReaped { .. } => "flow_reaped",
            TraceEvent::GrantIssued { .. } => "grant_issued",
            TraceEvent::GrantReclaimed { .. } => "grant_reclaimed",
            TraceEvent::FeedbackAccepted { .. } => "feedback_accepted",
            TraceEvent::FeedbackClamped { .. } => "feedback_clamped",
            TraceEvent::FeedbackRejected { .. } => "feedback_rejected",
            TraceEvent::FlowQuarantined { .. } => "flow_quarantined",
            TraceEvent::Congestion { signal, .. } => match signal {
                CongestionSignal::Transient => "congestion_transient",
                CongestionSignal::Persistent => "congestion_persistent",
                CongestionSignal::Ecn => "congestion_ecn",
                CongestionSignal::Delay => "congestion_delay",
            },
            TraceEvent::WriteOff { .. } => "write_off",
            TraceEvent::BackoffArmed { .. } => "backoff_armed",
            TraceEvent::BackoffLapsed { .. } => "backoff_lapsed",
            TraceEvent::ShardCreated { .. } => "shard_created",
            TraceEvent::TickSummary { .. } => "tick",
        }
    }

    /// The event's payload as up to two named numeric fields, unused
    /// slots carrying an empty name. This is the flattening the
    /// deterministic CSV/JSONL emitters use: emitters skip empty names,
    /// so every event serialises with exactly its own fields and no
    /// per-event format code lives outside this crate.
    pub fn fields(self) -> [(&'static str, u64); 2] {
        const NONE: (&str, u64) = ("", 0);
        match self {
            TraceEvent::FlowOpened { flow, macroflow } => {
                [("flow", flow as u64), ("macroflow", macroflow as u64)]
            }
            TraceEvent::FlowClosed { flow }
            | TraceEvent::FlowReaped { flow }
            | TraceEvent::FeedbackClamped { flow }
            | TraceEvent::FeedbackRejected { flow }
            | TraceEvent::FlowQuarantined { flow }
            | TraceEvent::BackoffArmed { flow }
            | TraceEvent::BackoffLapsed { flow } => [("flow", flow as u64), NONE],
            TraceEvent::GrantIssued { flow, bytes }
            | TraceEvent::GrantReclaimed { flow, bytes } => {
                [("flow", flow as u64), ("bytes", bytes)]
            }
            TraceEvent::FeedbackAccepted { flow, bytes_acked } => {
                [("flow", flow as u64), ("bytes", bytes_acked)]
            }
            TraceEvent::Congestion {
                macroflow, cwnd, ..
            } => [("macroflow", macroflow as u64), ("cwnd", cwnd)],
            TraceEvent::WriteOff {
                macroflow,
                reclaimed,
            } => [("macroflow", macroflow as u64), ("bytes", reclaimed)],
            TraceEvent::ShardCreated { shard } => [("shard", shard as u64), NONE],
            TraceEvent::TickSummary { shard, scanned } => {
                [("shard", shard as u64), ("scanned", scanned)]
            }
        }
    }
}

/// One entry in a [`crate::FlightRecorder`]: an event stamped with its
/// per-recorder sequence number and the simulated time it happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Monotone per-recorder sequence number, starting at 0. Gaps never
    /// occur; after wrap-around the surviving records are the tail of
    /// the sequence.
    pub seq: u64,
    /// Simulated time of the decision.
    pub at: Time,
    /// The decision itself.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let events = [
            TraceEvent::FlowOpened {
                flow: 1,
                macroflow: 2,
            },
            TraceEvent::FlowClosed { flow: 1 },
            TraceEvent::FlowReaped { flow: 1 },
            TraceEvent::GrantIssued { flow: 1, bytes: 10 },
            TraceEvent::GrantReclaimed { flow: 1, bytes: 10 },
            TraceEvent::FeedbackAccepted {
                flow: 1,
                bytes_acked: 10,
            },
            TraceEvent::FeedbackClamped { flow: 1 },
            TraceEvent::FeedbackRejected { flow: 1 },
            TraceEvent::FlowQuarantined { flow: 1 },
            TraceEvent::Congestion {
                macroflow: 2,
                signal: CongestionSignal::Transient,
                cwnd: 1460,
            },
            TraceEvent::Congestion {
                macroflow: 2,
                signal: CongestionSignal::Persistent,
                cwnd: 1460,
            },
            TraceEvent::Congestion {
                macroflow: 2,
                signal: CongestionSignal::Ecn,
                cwnd: 1460,
            },
            TraceEvent::Congestion {
                macroflow: 2,
                signal: CongestionSignal::Delay,
                cwnd: 1460,
            },
            TraceEvent::WriteOff {
                macroflow: 2,
                reclaimed: 10,
            },
            TraceEvent::BackoffArmed { flow: 1 },
            TraceEvent::BackoffLapsed { flow: 1 },
            TraceEvent::ShardCreated { shard: 0 },
            TraceEvent::TickSummary {
                shard: 0,
                scanned: 4,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        let before = kinds.len();
        kinds.dedup();
        assert_eq!(kinds.len(), before, "duplicate event kind names");
    }

    #[test]
    fn fields_name_their_payload() {
        let e = TraceEvent::GrantIssued {
            flow: 7,
            bytes: 1460,
        };
        assert_eq!(e.fields(), [("flow", 7), ("bytes", 1460)]);
        let e = TraceEvent::FlowClosed { flow: 7 };
        assert_eq!(e.fields(), [("flow", 7), ("", 0)]);
        let e = TraceEvent::Congestion {
            macroflow: 3,
            signal: CongestionSignal::Ecn,
            cwnd: 2920,
        };
        assert_eq!(e.fields(), [("macroflow", 3), ("cwnd", 2920)]);
    }
}
