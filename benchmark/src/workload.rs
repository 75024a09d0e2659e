//! The four workloads behind one interface: sized work, set-up, a
//! measured pass, output checks.

use std::time::Instant;

use cm_core::api::CongestionManager;
use cm_core::config::{CmConfig, ShardingConfig, TracingConfig};
use cm_core::runtime::{ParallelConfig, ShardRuntime};
use cm_util::DetRng;

use crate::cm_stream::{self, Front, Shape, Stream, FANIN, WIDE};
use crate::measure::{Fingerprint, Outcome, Timed};
use crate::metrics::TraceExtras;
use crate::reference::Reference;
use crate::stats::median;
use crate::{alloc, sim_bulk, sim_mix, span};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SimBulk,
    SimMix,
    CmWide,
    CmFanin,
}

pub const ALL: [Workload; 4] = [
    Workload::SimBulk,
    Workload::SimMix,
    Workload::CmWide,
    Workload::CmFanin,
];

/// Reference-kernel steps timed before every simulated batch (about
/// half a millisecond beside a batch of 70-200 ms).
const SIM_REFERENCE_STEPS: usize = 2048;

/// Segments, and so set-ups, of an end-to-end run; `setup_s` is the
/// set-ups' median.
pub const SEGMENTS: usize = 7;

/// One measured pass: the set-up times it took and what it produced.
pub struct Pass {
    pub setup_s: Vec<Timed>,
    pub outcome: Outcome,
    /// Heap bytes per open flow of the CM population (CM streams, while
    /// the allocator is armed).
    pub bytes_per_flow: f64,
    pub notes_drained: u64,
    /// Allocator calls and bytes while the measured batches ran (while
    /// the allocator is armed).
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

/// Allocator calls and bytes `f` makes (while the allocator is armed).
fn counting_allocs(f: impl FnOnce()) -> (u64, u64) {
    let before = alloc::snapshot();
    f();
    let after = alloc::snapshot();
    (after.calls - before.calls, after.bytes - before.bytes)
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBulk => "sim_bulk",
            Workload::SimMix => "sim_mix",
            Workload::CmWide => WIDE.name,
            Workload::CmFanin => FANIN.name,
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimBulk => "4 MB TCP/CM transfers at 0.5 % loss, one flow per macroflow: netsim and transport do the work, so a simulator or TCP change shows here and a CM change should not",
            Workload::SimMix => "the paper's whole application set on one bottleneck: small packets, all three CM API styles, libcm wakeups, cm-adapt callbacks, TCP set-up; HostOs/libcm/adapt/apps work is large here",
            Workload::CmWide => "direct CM front calls, 16,384 flows at 8 per macroflow: per-packet and per-connection cost with routing, slabs and free-lists dominant, per-macroflow work negligible",
            Workload::CmFanin => "the same op stream at 1,024 flows per macroflow with thresholds and queries: scheduler rotation, rate-callback emission and per-macroflow state dominate",
        }
    }

    /// Batches per second of `--seconds`: fixed work, sized once on the
    /// reference host (2 vCPU Xeon @ 2.1 GHz) so that a run measures for
    /// about that long, and never scaled to the host it runs on — a
    /// faster or slower host takes less or more time over the same
    /// batches.
    pub fn batches_per_second(self) -> f64 {
        match self {
            Workload::SimBulk => 13.0,
            Workload::SimMix => 5.2,
            Workload::CmWide => 920.0,
            Workload::CmFanin => 1300.0,
        }
    }

    pub fn batches(self, seconds: u64) -> usize {
        ((self.batches_per_second() * seconds as f64).round() as usize).max(2)
    }

    /// One line for the host block: what a batch is.
    pub fn batch_unit(self) -> &'static str {
        match self {
            Workload::SimBulk => "16 transfers of 4 MB",
            Workload::SimMix => "one 60-simulated-second dumbbell",
            Workload::CmWide | Workload::CmFanin => "one round (1 ms of CM time)",
        }
    }

    /// Flows per macroflow, which the scheduler replay is sized by.
    pub fn members(self) -> usize {
        match self {
            Workload::SimBulk => 1,
            Workload::SimMix => sim_mix::WEB_REQUESTS,
            Workload::CmWide => cm_stream::FLOWS / WIDE.dests,
            Workload::CmFanin => cm_stream::FLOWS / FANIN.dests,
        }
    }

    /// The reference kernel's table size and nominal step time for this
    /// workload. The table is sized so that the kernel slows down when
    /// the workload does: 1 MB (inside the 2 MB L2) for the simulations
    /// and `cm_fanin`, 4 MB (beyond it) for `cm_wide`, whose scheduler
    /// indexes miss L2 on every packet. Measured; see README.
    fn reference(self) -> (usize, f64) {
        match self {
            Workload::CmWide => (4 << 20, 800.0),
            _ => (1 << 20, 300.0),
        }
    }

    fn shape(self) -> Option<Shape> {
        match self {
            Workload::CmWide => Some(WIDE),
            Workload::CmFanin => Some(FANIN),
            _ => None,
        }
    }

    /// Runs `batches` measured batches in `segments` equal parts, each
    /// after a set-up of its own, then the end-of-run output checks.
    ///
    /// The set-ups are spread over the run, not repeated back to back,
    /// so that they sample the host's fast and slow stretches as the
    /// batches do; `setup_s` is their median. Only one set-up's state is
    /// alive at a time, so peak memory is one population's.
    ///
    /// `only` cuts the run short after that many segments: the batches
    /// it does run are exactly the full run's.
    pub fn pass(
        self,
        seed: u64,
        batches: usize,
        traced: bool,
        segments: usize,
        only: usize,
    ) -> Pass {
        let (table_bytes, nominal_ns) = self.reference();
        let mut reference = Reference::new(table_bytes, nominal_ns);
        let mut pass = Pass {
            setup_s: Vec::with_capacity(only),
            outcome: Outcome::default(),
            bytes_per_flow: 0.0,
            notes_drained: 0,
            alloc_calls: 0,
            alloc_bytes: 0,
        };
        self.reserve(&mut pass.outcome, batches);
        for segment in 0..only.min(segments) {
            let first = batches * segment / segments;
            let end = batches * (segment + 1) / segments;
            match self.shape() {
                Some(shape) => {
                    let rounds = end - first;
                    cm_segment(
                        shape,
                        seed,
                        segment,
                        rounds,
                        traced,
                        &mut reference,
                        &mut pass,
                    )
                }
                None => self.sim_segment(seed, first..end, traced, &mut reference, &mut pass),
            }
        }
        let unrouted = pass.outcome.counts.unrouted;
        pass.outcome
            .tally
            .check(unrouted == 0, || format!("{unrouted} unrouted packets"));
        pass
    }

    /// Room for `batches` batches' samples, so that measuring allocates
    /// nothing of the harness's own.
    fn reserve(self, out: &mut Outcome, batches: usize) {
        let (slices, lifecycles) = match self {
            Workload::SimBulk => (sim_bulk::TRANSFERS_PER_BATCH, sim_bulk::TRANSFERS_PER_BATCH),
            Workload::SimMix => (sim_mix::SLICES_RESERVED, 1),
            Workload::CmWide | Workload::CmFanin => (1, 1),
        };
        out.samples.batches.reserve(batches);
        out.after_batch.reserve(batches);
        out.samples.pkt_ns.reserve(batches * slices);
        out.samples.lifecycle_ns.reserve(batches * lifecycles);
    }

    fn sim_batch(self, seed: u64, index: usize, traced: bool, out: &mut Outcome) {
        match self {
            Workload::SimBulk => sim_bulk::batch(seed, index, traced, out),
            _ => sim_mix::batch(seed, index, traced, out),
        }
    }

    /// Set-up of a simulated workload is one warm-up batch: it pages the
    /// code in and brings the allocator's free lists to size.
    fn sim_segment(
        self,
        seed: u64,
        batches: std::ops::Range<usize>,
        traced: bool,
        reference: &mut Reference,
        pass: &mut Pass,
    ) {
        pass.outcome.speed = reference.speed(SIM_REFERENCE_STEPS);
        let t0 = Instant::now();
        self.sim_batch(seed, usize::MAX, false, &mut Outcome::default());
        let setup = pass.outcome.timed(t0.elapsed().as_secs_f64());
        pass.setup_s.push(setup);
        let (calls, bytes) = counting_allocs(|| {
            for index in batches {
                if traced {
                    span::set_batch(index as u32);
                }
                pass.outcome.speed = reference.speed(SIM_REFERENCE_STEPS);
                self.sim_batch(seed, index, traced, &mut pass.outcome);
            }
        });
        pass.alloc_calls += calls;
        pass.alloc_bytes += bytes;
    }

    /// The deterministic results of batch 0 alone, from a fresh set-up:
    /// what the "same seed, same batch" check compares against.
    pub fn first_batch_again(self, seed: u64) -> Fingerprint {
        self.pass(seed, 1, false, 1, 1).outcome.fingerprint()
    }

    /// The untimed output checks of an end-to-end run.
    pub fn check(self, seed: u64, out: &mut Outcome) {
        let again = self.first_batch_again(seed);
        let first = out.after_batch.first().copied();
        out.tally.check(first == Some(again), || {
            format!("batch 0 re-run with seed {seed} gave {again:?}, the run had {first:?}")
        });
        if self == Workload::SimBulk {
            sim_bulk::check_fig3_shape(seed, out);
        }
    }
}

fn open_stream(shape: Shape, seed: u64, cfg: CmConfig) -> Stream<CongestionManager> {
    Stream::open(CongestionManager::new(cfg), shape, seed)
}

/// One segment of a CM stream: a fresh CM, its population opened and
/// warmed up (the set-up), `rounds` measured rounds, the output checks.
fn cm_segment(
    shape: Shape,
    seed: u64,
    segment: usize,
    rounds: usize,
    traced: bool,
    reference: &mut Reference,
    pass: &mut Pass,
) {
    let seed = DetRng::seed(seed).split(&segment.to_string()).next_u64();
    pass.outcome.speed = reference.speed(cm_stream::REFERENCE_STEPS);
    let t0 = Instant::now();
    let mut stream = open_stream(shape, seed, cm_stream::config());
    let setup = pass.outcome.timed(t0.elapsed().as_secs_f64());
    pass.setup_s.push(setup);
    let drained = stream.notes_drained;
    let (calls, bytes) = counting_allocs(|| {
        cm_stream::measure(&mut stream, rounds, traced, reference, &mut pass.outcome)
    });
    cm_stream::check(&stream, &mut pass.outcome);
    pass.alloc_calls += calls;
    pass.alloc_bytes += bytes;
    pass.bytes_per_flow = stream.population_bytes as f64 / cm_stream::FLOWS as f64;
    pass.notes_drained += stream.notes_drained - drained;
}

/// Rounds each side of a paired replay runs.
const REPLAY_ROUNDS: usize = 100;

/// Median host ns per packet cycle of `rounds` rounds on `stream`.
fn cycle_ns<F: Front>(stream: &mut Stream<F>, rounds: usize) -> f64 {
    let mut v: Vec<f64> = (0..rounds)
        .map(|_| stream.round(false))
        .filter(|t| t.cycled > 0)
        .map(|t| t.cycle_ns as f64 / t.cycled as f64)
        .collect();
    median(&mut v)
}

/// The `cm_wide` stream through `ShardingConfig::by_group(64)` in
/// process against `ShardRuntime` with one worker, and through the
/// single-shard CM with `CmConfig::tracing` off against on.
pub fn paired_replays(seed: u64, x: &mut TraceExtras) {
    let sharded = CmConfig {
        sharding: ShardingConfig::by_group(64),
        ..cm_stream::config()
    };
    x.inproc_sharded_cycle_ns =
        cycle_ns(&mut open_stream(WIDE, seed, sharded.clone()), REPLAY_ROUNDS);
    {
        let runtime = ShardRuntime::new(sharded, ParallelConfig::with_workers(1));
        let mut s = Stream::open(runtime, WIDE, seed);
        let before = s.front.stats();
        x.runtime_cycle_ns = cycle_ns(&mut s, REPLAY_ROUNDS);
        let after = s.front.stats();
        x.ring_stalls_per_kcycle = (after.ring_stalls - before.ring_stalls) as f64 * 1e3
            / (after.notifies - before.notifies).max(1) as f64;
        // Dropping the runtime joins its worker.
    }

    let off = cycle_ns(
        &mut open_stream(WIDE, seed, cm_stream::config()),
        REPLAY_ROUNDS,
    );
    let traced = CmConfig {
        tracing: Some(TracingConfig::default()),
        ..cm_stream::config()
    };
    let mut s = open_stream(WIDE, seed, traced);
    let recorded =
        |s: &Stream<CongestionManager>| s.front.shard_trace(0).map_or(0, |r| r.total_recorded());
    let (records, cycles) = (recorded(&s), s.front.stats().notifies);
    let on = cycle_ns(&mut s, REPLAY_ROUNDS);
    x.tracer_on_off_ratio = on / off;
    x.records_per_cycle =
        (recorded(&s) - records) as f64 / (s.front.stats().notifies - cycles).max(1) as f64;
}

/// A traced run: an untraced pass over the first two segments (for the
/// overhead ratio and the "tracing changes nothing" check), the traced
/// pass over all of them with the allocator armed, then the replays.
pub fn traced_run(w: Workload, seed: u64, batches: usize) -> (Pass, TraceExtras) {
    let untraced = w.pass(seed, batches, false, SEGMENTS, 2);
    let prefix = untraced.outcome.after_batch.len();

    span::reset_and_calibrate();
    alloc::arm(true);
    let mut traced = w.pass(seed, batches, true, SEGMENTS, SEGMENTS);
    alloc::arm(false);

    let at_prefix = prefix
        .checked_sub(1)
        .and_then(|i| traced.outcome.after_batch.get(i));
    let same = at_prefix == untraced.outcome.after_batch.last();
    traced.outcome.tally.check(same, || {
        format!("traced and untraced runs of seed {seed} differ after {prefix} batches")
    });

    let batch_ns = |p: &Pass| {
        let mut v: Vec<f64> = p
            .outcome
            .samples
            .batches
            .iter()
            .map(|b| b.wall_ns.raw)
            .collect();
        median(&mut v)
    };
    let mut x = TraceExtras {
        costs: crate::replay::op_costs(seed, w.members()),
        alloc_calls: traced.alloc_calls,
        alloc_bytes: traced.alloc_bytes,
        bytes_per_flow: traced.bytes_per_flow,
        traced_batch_ns: batch_ns(&traced),
        untraced_batch_ns: batch_ns(&untraced),
        notes_drained: traced.notes_drained,
        untraced: crate::metrics::not_bounded(&untraced.outcome, &untraced.setup_s),
        ..Default::default()
    };
    if w == Workload::CmWide {
        paired_replays(seed, &mut x);
    }
    (traced, x)
}
