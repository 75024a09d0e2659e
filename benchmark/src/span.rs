//! In-memory spans around the harness's own calls into each layer.
//!
//! The crates under test carry no tracing of their own yet, so every
//! span is opened and closed by benchmark code: the run loop, the
//! [`crate::wrap`] wrappers inside the simulator, and the per-kind
//! loops of the CM op stream. One thread-local recorder keeps a stack
//! (so a span knows its parent and a parent knows its children's time),
//! per-kind aggregates for the whole run, and the first
//! [`RAW_CAP`] raw spans for the trace file.
//!
//! A clock read costs about as much as the cheapest spans last, so the
//! recorder measures its own cost once ([`reset_and_calibrate`]) and
//! [`Recorder::self_ns`] subtracts it.

use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept for the trace file; aggregates cover every span.
pub const RAW_CAP: usize = 20_000;

/// What a span surrounds. One row of the aggregate table each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// Building a topology and dropping it afterwards.
    Build,
    /// One slice of `Simulator::step` calls.
    SimRun,
    /// One `Node` handler of a wrapped `Host`.
    HostHandler,
    /// One `HostApp` callback of a wrapped app.
    AppCallback,
    CmOpen,
    CmClose,
    CmRequest,
    CmNotify,
    CmUpdate,
    CmQuery,
    CmDrain,
    CmTick,
}

pub const KINDS: [Kind; 12] = [
    Kind::Build,
    Kind::SimRun,
    Kind::HostHandler,
    Kind::AppCallback,
    Kind::CmOpen,
    Kind::CmClose,
    Kind::CmRequest,
    Kind::CmNotify,
    Kind::CmUpdate,
    Kind::CmQuery,
    Kind::CmDrain,
    Kind::CmTick,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Build => "harness.build",
            Kind::SimRun => "netsim.sim.run",
            Kind::HostHandler => "transport.host.handler",
            Kind::AppCallback => "apps.callback",
            Kind::CmOpen => "core.front.open",
            Kind::CmClose => "core.front.close",
            Kind::CmRequest => "core.front.request",
            Kind::CmNotify => "core.front.notify",
            Kind::CmUpdate => "core.front.update",
            Kind::CmQuery => "core.front.query",
            Kind::CmDrain => "core.front.drain",
            Kind::CmTick => "core.front.tick",
        }
    }
}

/// Totals for one kind over the whole run.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub spans: u64,
    pub total_ns: u64,
    /// Time covered by direct child spans.
    pub child_ns: u64,
    /// Direct child spans.
    pub children: u64,
}

/// One recorded span: times are ns since the recorder's epoch, `parent`
/// indexes the raw list (`u32::MAX` for a root), `batch` is the id the
/// spans of one batch share.
#[derive(Clone, Copy, Debug)]
pub struct Raw {
    pub kind: Kind,
    pub parent: u32,
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    kind: Kind,
    start: Instant,
    child_ns: u64,
    children: u64,
    raw: u32,
}

/// Clock cost as the recorder sees it, from [`reset_and_calibrate`].
#[derive(Clone, Copy, Default, Debug)]
pub struct ClockCost {
    /// What an empty span measures as its own duration.
    pub inside_ns: f64,
    /// What an empty child adds to its parent beyond that.
    pub outside_ns: f64,
}

pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    agg: [Agg; KINDS.len()],
    raw: Vec<Raw>,
    batch: u32,
    pub clock: ClockCost,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); KINDS.len()],
            raw: Vec::with_capacity(RAW_CAP),
            batch: 0,
            clock: ClockCost::default(),
        }
    }

    fn enter(&mut self, kind: Kind) {
        let raw = if self.raw.len() < RAW_CAP {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.raw);
            self.raw.push(Raw {
                kind,
                parent,
                batch: self.batch,
                start_ns: 0,
                end_ns: 0,
            });
            (self.raw.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            kind,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
            raw,
        });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let a = &mut self.agg[open.kind as usize];
        a.spans += 1;
        a.total_ns += ns;
        a.child_ns += open.child_ns;
        a.children += open.children;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
            parent.children += 1;
        }
        if let Some(r) = self.raw.get_mut(open.raw as usize) {
            r.start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            r.end_ns = r.start_ns + ns;
        }
    }

    pub fn agg(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// Time spent in `kind` itself: its spans minus their child spans,
    /// minus the clock reads both contain.
    pub fn self_ns(&self, kind: Kind) -> f64 {
        let a = self.agg(kind);
        let raw = a.total_ns.saturating_sub(a.child_ns) as f64;
        let clock =
            a.spans as f64 * self.clock.inside_ns + a.children as f64 * self.clock.outside_ns;
        (raw - clock).max(0.0)
    }

    pub fn raw(&self) -> &[Raw] {
        &self.raw
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Opens a span; every `enter` is matched by one [`exit`].
pub fn enter(kind: Kind) {
    REC.with(|r| r.borrow_mut().enter(kind));
}

pub fn exit() {
    REC.with(|r| r.borrow_mut().exit());
}

/// Runs `f` inside a span when `traced`, bare otherwise.
#[inline]
pub fn in_span<R>(traced: bool, kind: Kind, f: impl FnOnce() -> R) -> R {
    if traced {
        enter(kind);
        let out = f();
        exit();
        out
    } else {
        f()
    }
}

/// Tags the spans that follow with the batch they belong to.
pub fn set_batch(batch: u32) {
    REC.with(|r| r.borrow_mut().batch = batch);
}

/// Clears everything recorded so far and measures the clock cost.
pub fn reset_and_calibrate() {
    const N: u64 = 200_000;
    REC.with(|r| *r.borrow_mut() = Recorder::new());
    enter(Kind::Build);
    for _ in 0..N {
        enter(Kind::SimRun);
        exit();
    }
    exit();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let inside_ns = r.agg(Kind::SimRun).total_ns as f64 / N as f64;
        let outside_ns = r.agg(Kind::Build).total_ns as f64 / N as f64 - inside_ns;
        *r = Recorder::new();
        r.clock = ClockCost {
            inside_ns,
            outside_ns: outside_ns.max(0.0),
        };
    });
}

/// Hands the finished recorder to `f` (after the run; no span open).
pub fn with_recorder<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    REC.with(|r| f(&r.borrow()))
}
