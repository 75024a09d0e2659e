//! The simulated end system.
//!
//! A [`Host`] is a [`cm_netsim::Node`] containing the pieces the paper's
//! modified Linux kernel provided:
//!
//! * one [`CongestionManager`] shared by every flow leaving the host,
//! * the TCP connections and UDP sockets,
//! * the IP output path, whose transmissions are charged to the CM via
//!   `cm_notify` (paper §2.1.3),
//! * a virtual CPU that prices system calls, copies, interrupts, and
//!   protocol processing (for the §4.1/§4.2 overhead experiments), and
//! * the applications, which program against the [`HostOs`] syscall
//!   surface.
//!
//! ## Event settling
//!
//! Kernel CM callbacks are synchronous function calls in the paper; here
//! every CM call deposits notifications in the CM outbox, and the host
//! runs a *settle loop* after each external event: drain CM notifications
//! (dispatching send grants to TCP connections, CC-UDP sockets, or
//! ALF applications), deliver queued application events, repeat until
//! quiescent. This preserves the callback semantics without re-entrant
//! borrows.
//!
//! ## Timers
//!
//! A host timer token *is* its target (`TimerTarget` packed into the
//! `u64` the simulator carries), so firing looks nothing up. TCP re-arms
//! its timers far more often than they fire — the RTO on every ACK, the
//! delayed-ACK timer on every other segment, nearly always to a later
//! instant — so a connection's timer is a *deadline* (`ConnTimer`) over
//! at most one live simulator event: re-arming moves the deadline, and an
//! event that pops early re-schedules itself for the deadline and
//! returns before the settle loop, where a superseded timer's event
//! always returned. Each arm that schedules nothing still takes its
//! place in the simulator's event order and the re-scheduled event is
//! filed under the latest arm's, so every event that acts keeps the
//! `(time, sequence)` key an event-per-arm host would give it.

use std::collections::VecDeque;

use cm_core::api::{CmNotification, CongestionManager};
use cm_core::config::CmConfig;
use cm_core::types::{Endpoint, FeedbackReport, FlowId, FlowInfo, FlowKey, Thresholds};
use cm_netsim::cpu::{CostModel, Cpu};
use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
use cm_netsim::sim::{Node, NodeCtx};
use cm_util::{Duration, FxHashMap, Time};

use crate::segment::{TcpSegment, UdpDatagram, TCP_OVERHEAD, UDP_OVERHEAD};
use crate::tcp::{TcpAction, TcpConfig, TcpConnection};
use crate::types::{AppId, CcMode, TcpConnId, TcpEvent, TcpTimer, UdpSocketId};
use crate::udp::{QueuedDatagram, UdpSocket};

/// Period of the CM maintenance timer.
const CM_TICK: Duration = Duration::from_millis(100);

/// Host-level configuration.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// CM configuration.
    pub cm: CmConfig,
    /// Default TCP parameters for new connections.
    pub tcp: TcpConfig,
    /// CPU cost model; [`CostModel::free`] for pure protocol-dynamics
    /// experiments.
    pub cost: CostModel,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            cm: CmConfig::default(),
            tcp: TcpConfig::default(),
            cost: CostModel::free(),
        }
    }
}

/// Who consumes a CM flow's grants.
#[derive(Clone, Copy, Debug)]
enum FlowOwner {
    Tcp(TcpConnId),
    CcUdp(UdpSocketId),
    App(AppId),
}

/// Who owns each CM flow, indexed by the flow id's shard and slab slot.
/// The CM keeps ids dense per shard and recycles them, so the table is as
/// long as the CM's flow slabs, and routing a grant or a rate callback is
/// two indexings instead of a hash probe.
#[derive(Default)]
struct FlowOwners(Vec<Vec<Option<FlowOwner>>>);

impl FlowOwners {
    fn get(&self, flow: FlowId) -> Option<FlowOwner> {
        *self
            .0
            .get(flow.shard() as usize)?
            .get(flow.slot() as usize)?
    }

    fn set(&mut self, flow: FlowId, owner: FlowOwner) {
        let (shard, slot) = (flow.shard() as usize, flow.slot() as usize);
        if self.0.len() <= shard {
            self.0.resize_with(shard + 1, Vec::new);
        }
        let slots = &mut self.0[shard];
        if slots.len() <= slot {
            slots.resize(slot + 1, None);
        }
        slots[slot] = Some(owner);
    }

    fn clear(&mut self, flow: FlowId) {
        if let Some(owner) = self
            .0
            .get_mut(flow.shard() as usize)
            .and_then(|slots| slots.get_mut(flow.slot() as usize))
        {
            *owner = None;
        }
    }
}

/// Events queued for application delivery.
#[derive(Debug)]
enum AppEvent {
    Tcp(TcpConnId, TcpEvent),
    Udp(UdpSocketId, Addr, u16, UdpDatagram),
    CmGrant(FlowId),
    CmRate(FlowId, FlowInfo),
    Timer(u64),
}

/// What a host timer token points at. The token is the target itself,
/// packed as `tag:3 | connection id:32 | generation:29` (an application
/// timer carries its slab slot in the low 32 bits instead).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TimerTarget {
    /// A connection's timer, as of generation `gen` of its [`ConnTimer`].
    Tcp {
        conn: TcpConnId,
        kind: TcpTimer,
        gen: u32,
    },
    /// An application timer: its slot in `Host::app_timers` (the app's
    /// own token is a full `u64`, so it cannot ride in ours).
    App(u32),
    TxDequeue,
    CmTick,
    /// Release pacing-deferred CM grants.
    CmPace,
}

impl TimerTarget {
    const TAG_SHIFT: u32 = 61;
    const CONN_SHIFT: u32 = 29;
    /// Generations count modulo 2^29; a stale event would have to stay
    /// queued across that many re-arms of one timer to be mistaken.
    const GEN_MASK: u32 = (1 << Self::CONN_SHIFT) - 1;

    fn token(self) -> u64 {
        let (tag, rest) = match self {
            TimerTarget::TxDequeue => (0, 0),
            TimerTarget::CmTick => (1, 0),
            TimerTarget::CmPace => (2, 0),
            TimerTarget::App(slot) => (3, u64::from(slot)),
            TimerTarget::Tcp { conn, kind, gen } => (
                4 + kind as u64,
                u64::from(conn.0) << Self::CONN_SHIFT | u64::from(gen & Self::GEN_MASK),
            ),
        };
        tag << Self::TAG_SHIFT | rest
    }

    /// Inverse of [`TimerTarget::token`]; `None` for a token no host
    /// issued.
    fn from_token(token: u64) -> Option<Self> {
        let tcp = |kind| TimerTarget::Tcp {
            conn: TcpConnId((token >> Self::CONN_SHIFT) as u32),
            kind,
            gen: token as u32 & Self::GEN_MASK,
        };
        Some(match token >> Self::TAG_SHIFT {
            0 => TimerTarget::TxDequeue,
            1 => TimerTarget::CmTick,
            2 => TimerTarget::CmPace,
            3 => TimerTarget::App(token as u32),
            4 => tcp(TcpTimer::Rto),
            5 => tcp(TcpTimer::DelayedAck),
            _ => return None,
        })
    }
}

/// One TCP timer of one connection: a deadline that moves, over at most
/// one live simulator event (see the module docs).
#[derive(Clone, Copy, Default, Debug)]
struct ConnTimer {
    /// When TCP wants `on_timer`; `None` while disarmed.
    deadline: Option<Time>,
    /// When the live event — the one stamped `gen` — pops, if one is
    /// queued. Never later than `deadline`.
    event_at: Option<Time>,
    /// Generation of the live event; an event stamped otherwise was
    /// superseded by one for an earlier deadline.
    gen: u32,
    /// The place in the event order reserved by the latest arm that
    /// scheduled nothing, for the event re-scheduled to its deadline.
    order: u64,
}

/// One TCP connection: the protocol state and everything the host keeps
/// beside it.
struct Conn {
    tcp: TcpConnection,
    /// The four-tuple, local end first — also the key of its CM flow.
    key: FlowKey,
    owner: AppId,
    /// The CM flow of a `CcMode::Cm` connection's sending direction.
    flow: Option<FlowId>,
    /// Indexed by `TcpTimer as usize`.
    timers: [ConnTimer; 2],
}

/// The four-tuple from this host's `local_port` to `(remote, remote_port)`.
fn four_tuple(ctx: &NodeCtx<'_>, local_port: u16, remote: Addr, remote_port: u16) -> FlowKey {
    FlowKey::new(
        Endpoint::new(ctx.addr().0, local_port),
        Endpoint::new(remote.0, remote_port),
    )
}

/// An application running on a host.
///
/// Applications are event driven, exactly like the select-loop programs
/// §2.2 targets: the host invokes these hooks and the app responds
/// through the [`HostOs`] it is handed.
pub trait HostApp: std::any::Any {
    /// Called once at simulation start.
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        let _ = os;
    }
    /// A timer set via [`HostOs::set_app_timer`] fired.
    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        let _ = (os, token);
    }
    /// A TCP connection owned by this app raised an event.
    fn on_tcp_event(&mut self, os: &mut HostOs<'_, '_>, conn: TcpConnId, ev: TcpEvent) {
        let _ = (os, conn, ev);
    }
    /// A datagram arrived on a UDP socket owned by this app.
    fn on_udp(
        &mut self,
        os: &mut HostOs<'_, '_>,
        sock: UdpSocketId,
        from: Addr,
        from_port: u16,
        dgram: UdpDatagram,
    ) {
        let _ = (os, sock, from, from_port, dgram);
    }
    /// `cmapp_send`: the CM granted this app's flow one MTU.
    fn on_cm_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        let _ = (os, flow);
    }
    /// `cmapp_update`: the flow's rate share crossed its thresholds.
    fn on_cm_rate_change(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId, info: FlowInfo) {
        let _ = (os, flow, info);
    }
}

/// The simulated end system.
pub struct Host {
    cfg: HostConfig,
    /// The host's Congestion Manager.
    pub cm: CongestionManager,
    /// The host's virtual CPU.
    pub cpu: Cpu,
    addr: Option<Addr>,

    conns: Vec<Option<Conn>>,
    tcp_demux: FxHashMap<(u16, u32, u16), TcpConnId>,
    tcp_listeners: FxHashMap<u16, (AppId, CcMode)>,

    /// Each socket with the app that owns it.
    socks: Vec<(UdpSocket, AppId)>,
    udp_demux: FxHashMap<u16, UdpSocketId>,

    flow_owner: FlowOwners,

    apps: Vec<Option<Box<dyn HostApp>>>,

    /// Pending application timers `(owner, the app's token)`; a fired
    /// timer's slot goes on `free_app_timers` for reuse.
    app_timers: Vec<(AppId, u64)>,
    free_app_timers: Vec<u32>,

    txq: VecDeque<Packet>,
    pending: VecDeque<(AppId, AppEvent)>,
    next_ephemeral: u16,
    /// The instant the armed pace timer fires, if any.
    pace_timer_at: Option<Time>,
    /// Reused buffer for draining CM notifications; the settle loop runs
    /// after every event, so it must not allocate per pass.
    notes_buf: Vec<CmNotification>,
    /// Reused buffer the TCP entry points fill and `run_tcp_actions`
    /// drains (it never re-enters TCP, so one suffices).
    tcp_actions: Vec<TcpAction>,
}

impl Host {
    /// Creates a host.
    pub fn new(cfg: HostConfig) -> Self {
        let cm = CongestionManager::new(cfg.cm);
        Host {
            cfg,
            cm,
            cpu: Cpu::new(),
            addr: None,
            conns: Vec::new(),
            tcp_demux: FxHashMap::default(),
            tcp_listeners: FxHashMap::default(),
            socks: Vec::new(),
            udp_demux: FxHashMap::default(),
            flow_owner: FlowOwners::default(),
            apps: Vec::new(),
            app_timers: Vec::new(),
            free_app_timers: Vec::new(),
            txq: VecDeque::new(),
            pending: VecDeque::new(),
            next_ephemeral: 40_000,
            pace_timer_at: None,
            notes_buf: Vec::new(),
            tcp_actions: Vec::new(),
        }
    }

    /// Installs an application (before the simulation starts).
    pub fn add_app(&mut self, app: Box<dyn HostApp>) -> AppId {
        let id = AppId(self.apps.len() as u32);
        self.apps.push(Some(app));
        id
    }

    /// Typed access to an installed application (for reading results).
    ///
    /// # Panics
    ///
    /// Panics if the app is not of type `T`.
    #[expect(
        clippy::expect_used,
        reason = "documented panic — wrong app type is a caller bug"
    )]
    pub fn app_ref<T: HostApp>(&self, id: AppId) -> &T {
        #[expect(
            clippy::expect_used,
            reason = "documented panic — app_ref during dispatch is a caller bug"
        )]
        let app = self.apps[id.0 as usize]
            .as_ref()
            .expect("app missing (called during dispatch?)");
        let any: &dyn std::any::Any = app.as_ref();
        any.downcast_ref::<T>()
            .expect("app_ref called with wrong app type")
    }

    /// Immutable access to a TCP connection.
    pub fn tcp_conn(&self, conn: TcpConnId) -> Option<&TcpConnection> {
        self.conn(conn).map(|c| &c.tcp)
    }

    fn conn(&self, conn: TcpConnId) -> Option<&Conn> {
        self.conns.get(conn.0 as usize)?.as_ref()
    }

    fn conn_mut(&mut self, conn: TcpConnId) -> Option<&mut Conn> {
        self.conns.get_mut(conn.0 as usize)?.as_mut()
    }

    /// This host's address (known after simulation start).
    #[expect(
        clippy::expect_used,
        reason = "documented panic — address() before simulation start is a caller bug"
    )]
    pub fn address(&self) -> Addr {
        self.addr.expect("host address unknown before start")
    }

    // ------------------------------------------------------------------
    // Settle machinery
    // ------------------------------------------------------------------

    fn settle(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut converged = false;
        let mut notes = std::mem::take(&mut self.notes_buf);
        for _ in 0..1_000_000u32 {
            // First convert CM notifications into work.
            notes.clear();
            self.cm.drain_notifications_into(&mut notes);
            if !notes.is_empty() {
                for &n in &notes {
                    self.route_cm_notification(ctx, n);
                }
                continue;
            }
            // Then deliver one pending app event.
            let Some((app, ev)) = self.pending.pop_front() else {
                converged = true;
                break;
            };
            self.dispatch_app(ctx, app, ev);
        }
        notes.clear();
        self.notes_buf = notes;
        assert!(
            converged,
            "host settle loop did not converge (runaway callbacks)"
        );
        // If pacing is holding grants back, make sure a timer will
        // release them.
        if let Some(at) = self.cm.next_grant_deadline() {
            let now = ctx.now();
            let fire_at = at.max(now);
            let need_arm = match self.pace_timer_at {
                Some(t) => fire_at < t || t <= now,
                None => true,
            };
            if need_arm {
                self.pace_timer_at = Some(fire_at);
                ctx.set_timer(
                    fire_at.since(now).max(Duration::from_nanos(1)),
                    TimerTarget::CmPace.token(),
                );
            }
        }
    }

    fn route_cm_notification(&mut self, ctx: &mut NodeCtx<'_>, n: CmNotification) {
        match n {
            CmNotification::SendGrant { flow } => match self.flow_owner.get(flow) {
                Some(FlowOwner::Tcp(conn)) => {
                    let now = ctx.now();
                    match self.conns[conn.0 as usize].as_mut() {
                        Some(c) => c.tcp.on_cm_grant_into(now, &mut self.tcp_actions),
                        None => {
                            // Connection gone; release the grant.
                            let _ = self.cm.notify(flow, 0, now);
                            return;
                        }
                    };
                    self.run_tcp_actions(ctx, conn);
                }
                Some(FlowOwner::CcUdp(sock)) => {
                    self.ccudp_grant(ctx, sock, flow);
                }
                Some(FlowOwner::App(app)) => {
                    self.pending.push_back((app, AppEvent::CmGrant(flow)));
                }
                None => {
                    let _ = self.cm.notify(flow, 0, ctx.now());
                }
            },
            CmNotification::RateChange { flow, info } => {
                match self.flow_owner.get(flow) {
                    Some(FlowOwner::App(app)) => {
                        self.pending.push_back((app, AppEvent::CmRate(flow, info)));
                    }
                    Some(FlowOwner::CcUdp(sock)) => {
                        // Deliver to the application owning the socket
                        // (the vat policer adapts on these).
                        if let Some(&(_, owner)) = self.socks.get(sock.0 as usize) {
                            self.pending
                                .push_back((owner, AppEvent::CmRate(flow, info)));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn dispatch_app(&mut self, ctx: &mut NodeCtx<'_>, app_id: AppId, ev: AppEvent) {
        let Some(mut app) = self.apps[app_id.0 as usize].take() else {
            return;
        };
        {
            let mut os = HostOs {
                host: self,
                ctx,
                app: app_id,
            };
            match ev {
                AppEvent::Tcp(conn, tev) => app.on_tcp_event(&mut os, conn, tev),
                AppEvent::Udp(sock, from, fport, d) => app.on_udp(&mut os, sock, from, fport, d),
                AppEvent::CmGrant(flow) => app.on_cm_grant(&mut os, flow),
                AppEvent::CmRate(flow, info) => app.on_cm_rate_change(&mut os, flow, info),
                AppEvent::Timer(token) => app.on_timer(&mut os, token),
            }
        }
        self.apps[app_id.0 as usize] = Some(app);
    }

    // ------------------------------------------------------------------
    // TCP plumbing
    // ------------------------------------------------------------------

    /// Opens a CM flow for `key` whose grants and rate callbacks go to
    /// `owner`: the one `cm_open` behind TCP/CM, CC-UDP and ALF apps.
    /// `None` if the CM refuses the key.
    fn open_flow(&mut self, key: FlowKey, now: Time, owner: FlowOwner) -> Option<FlowId> {
        let flow = self.cm.open(key, now).ok()?;
        self.flow_owner.set(flow, owner);
        Some(flow)
    }

    /// Installs a connection — an active open or an accepted SYN — under
    /// the next id, with a CM flow for its sending direction in
    /// `CcMode::Cm`, and runs TCP's opening actions.
    fn open_conn(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        key: FlowKey,
        owner: AppId,
        mode: CcMode,
        (tcp, actions): (TcpConnection, Vec<TcpAction>),
    ) -> TcpConnId {
        let id = TcpConnId(self.conns.len() as u32);
        let flow = match mode {
            CcMode::Cm => self.open_flow(key, ctx.now(), FlowOwner::Tcp(id)),
            CcMode::Native => None,
        };
        self.conns.push(Some(Conn {
            tcp,
            key,
            owner,
            flow,
            timers: Default::default(),
        }));
        self.tcp_demux
            .insert((key.local.port, key.remote.addr, key.remote.port), id);
        self.tcp_actions.extend(actions);
        self.run_tcp_actions(ctx, id);
        id
    }

    /// Executes what a TCP entry point left in `tcp_actions` on
    /// `conn_id`'s behalf.
    fn run_tcp_actions(&mut self, ctx: &mut NodeCtx<'_>, conn_id: TcpConnId) {
        let now = ctx.now();
        let mut actions = std::mem::take(&mut self.tcp_actions);
        for act in actions.drain(..) {
            match act {
                TcpAction::Emit(seg) => self.emit_tcp_segment(ctx, conn_id, seg),
                TcpAction::SetTimer(kind, after) => self.arm_tcp_timer(ctx, conn_id, kind, after),
                TcpAction::CancelTimer(kind) => {
                    if let Some(c) = self.conn_mut(conn_id) {
                        c.timers[kind as usize].deadline = None;
                    }
                }
                TcpAction::CmRequest => {
                    if let Some(flow) = self.conn_flow(conn_id) {
                        // The flow can disappear between the action being
                        // queued and run (teardown, orphan reap); the
                        // stale request is dropped like a late errno.
                        let _ = self.cm.request(flow, now);
                    }
                }
                TcpAction::CmNotify(bytes) => {
                    if let Some(flow) = self.conn_flow(conn_id) {
                        // The IP output routine's cm_notify (its cost is
                        // the CM accounting entry in the model).
                        self.cpu.run(now, self.cfg.cost.cm_accounting);
                        let _ = self.cm.notify(flow, bytes, now);
                    }
                }
                TcpAction::CmUpdate(report) => {
                    if let Some(flow) = self.conn_flow(conn_id) {
                        self.cpu.run(now, self.cfg.cost.cm_accounting);
                        let _ = self.cm.update(flow, report, now);
                        // Push the shared RTT estimate back into the
                        // connection for RTO computation (§3.2).
                        if let Ok(mf) = self.cm.macroflow_of(flow) {
                            if let Ok(info) = self.cm.flow_info(flow, mf) {
                                if let Some(srtt) = info.srtt {
                                    if let Some(c) = self.conn_mut(conn_id) {
                                        c.tcp.set_shared_rtt(srtt, info.rttvar);
                                    }
                                }
                            }
                        }
                    }
                }
                TcpAction::Event(ev) => {
                    if let Some(c) = self.conn(conn_id) {
                        self.pending
                            .push_back((c.owner, AppEvent::Tcp(conn_id, ev)));
                    }
                }
            }
        }
        self.tcp_actions = actions;
    }

    /// `SetTimer`: moves the timer's deadline to `after` from now. A live
    /// event that pops before the new deadline will carry itself there
    /// (`tcp_timer_due`), so the arm only takes its place in the event
    /// order; otherwise — no live event, or one that pops too late or in
    /// the same instant ahead of this arm's place — a new event is
    /// scheduled and the old one's generation goes stale.
    fn arm_tcp_timer(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        conn: TcpConnId,
        kind: TcpTimer,
        after: Duration,
    ) {
        let deadline = ctx.now() + after;
        let Some(c) = self.conn_mut(conn) else {
            return;
        };
        let t = &mut c.timers[kind as usize];
        t.deadline = Some(deadline);
        match t.event_at {
            Some(at) if at < deadline => t.order = ctx.reserve_order(),
            _ => {
                t.gen = t.gen.wrapping_add(1) & TimerTarget::GEN_MASK;
                t.event_at = Some(deadline);
                let gen = t.gen;
                ctx.set_timer(after, TimerTarget::Tcp { conn, kind, gen }.token());
            }
        }
    }

    /// A connection timer's event popped: whether TCP's `on_timer` is due.
    /// A stale or cancelled event is dropped; one that is early for a
    /// deadline moved since re-schedules itself for it, in the place the
    /// latest arm reserved.
    fn tcp_timer_due(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        conn: TcpConnId,
        kind: TcpTimer,
        gen: u32,
    ) -> bool {
        let Some(c) = self.conn_mut(conn) else {
            return false;
        };
        let t = &mut c.timers[kind as usize];
        if t.gen != gen {
            return false;
        }
        let now = ctx.now();
        t.event_at = None;
        match t.deadline {
            Some(deadline) if deadline > now => {
                t.event_at = Some(deadline);
                let token = TimerTarget::Tcp { conn, kind, gen }.token();
                ctx.set_timer_ordered(deadline.since(now), token, t.order);
                false
            }
            armed => {
                t.deadline = None;
                armed.is_some()
            }
        }
    }

    fn emit_tcp_segment(&mut self, ctx: &mut NodeCtx<'_>, conn_id: TcpConnId, seg: TcpSegment) {
        let Some(&Conn { key, .. }) = self.conn(conn_id) else {
            return;
        };
        let pkt = Packet::new(
            Addr(key.local.addr),
            Addr(key.remote.addr),
            key.local.port,
            key.remote.port,
            Protocol::Tcp,
            seg.len as usize + TCP_OVERHEAD as usize,
            Payload::Tcp(seg),
        );
        // Kernel send path: TCP processing + IP output + the data copy.
        let work =
            self.cfg.cost.tcp_proc + self.cfg.cost.ip_output + self.cfg.cost.copy(seg.len as usize);
        self.emit_with_cpu(ctx, pkt, work);
    }

    fn conn_flow(&self, conn: TcpConnId) -> Option<FlowId> {
        self.conn(conn)?.flow
    }

    /// Emits a packet after the CPU finishes `work`; maintains FIFO order
    /// through the deferred-transmit queue.
    fn emit_with_cpu(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet, work: Duration) {
        let now = ctx.now();
        let done = self.cpu.run(now, work);
        if done <= now && self.txq.is_empty() {
            ctx.send(pkt);
        } else {
            self.txq.push_back(pkt);
            ctx.set_timer(done.since(now), TimerTarget::TxDequeue.token());
        }
    }

    // ------------------------------------------------------------------
    // CC-UDP grant path (§3.3's udp_ccappsend)
    // ------------------------------------------------------------------

    fn ccudp_grant(&mut self, ctx: &mut NodeCtx<'_>, sock_id: UdpSocketId, flow: FlowId) {
        let now = ctx.now();
        let Some((sock, _)) = self.socks.get_mut(sock_id.0 as usize) else {
            let _ = self.cm.notify(flow, 0, now);
            return;
        };
        match sock.on_cm_grant() {
            Some(q) => {
                let local_port = sock.local_port;
                let wire = q.dgram.len as usize + UDP_OVERHEAD as usize;
                let pkt = Packet::new(
                    ctx.addr(),
                    Addr(q.dst),
                    local_port,
                    q.dst_port,
                    Protocol::Udp,
                    wire,
                    Payload::Udp(q.dgram),
                );
                let work = self.cfg.cost.udp_proc + self.cfg.cost.ip_output;
                self.emit_with_cpu(ctx, pkt, work);
                self.cpu.run(now, self.cfg.cost.cm_accounting);
                let _ = self.cm.notify(flow, wire as u64, now);
            }
            None => {
                let _ = self.cm.notify(flow, 0, now);
            }
        }
    }
}

impl Node for Host {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.addr = Some(ctx.addr());
        ctx.set_timer(CM_TICK, TimerTarget::CmTick.token());
        for i in 0..self.apps.len() {
            let app_id = AppId(i as u32);
            if let Some(mut app) = self.apps[i].take() {
                {
                    let mut os = HostOs {
                        host: self,
                        ctx,
                        app: app_id,
                    };
                    app.on_start(&mut os);
                }
                self.apps[i] = Some(app);
            }
        }
        self.settle(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        let now = ctx.now();
        // Receive path: interrupt + driver.
        self.cpu.run(now, self.cfg.cost.interrupt);
        match pkt.proto {
            Protocol::Tcp => {
                let Payload::Tcp(seg) = pkt.payload else {
                    return;
                };
                self.cpu.run(now, self.cfg.cost.tcp_proc);
                let key = (pkt.dst_port, pkt.src.0, pkt.src_port);
                match self.tcp_demux.get(&key) {
                    Some(&id) => {
                        match self.conns[id.0 as usize].as_mut() {
                            Some(c) => c.tcp.on_segment_into(&seg, now, &mut self.tcp_actions),
                            None => return,
                        };
                        self.run_tcp_actions(ctx, id);
                    }
                    None if seg.flags.syn && !seg.flags.ack => {
                        // Passive open on a listening port.
                        let Some(&(owner, mode)) = self.tcp_listeners.get(&pkt.dst_port) else {
                            return;
                        };
                        let opened = TcpConnection::accept(self.cfg.tcp.clone(), mode, &seg, now);
                        let key = four_tuple(ctx, pkt.dst_port, pkt.src, pkt.src_port);
                        self.open_conn(ctx, key, owner, mode, opened);
                    }
                    None => return,
                }
            }
            Protocol::Udp => {
                let Payload::Udp(dgram) = pkt.payload else {
                    return;
                };
                self.cpu.run(now, self.cfg.cost.udp_proc);
                let Some(&sock_id) = self.udp_demux.get(&pkt.dst_port) else {
                    return;
                };
                let Some(&(_, owner)) = self.socks.get(sock_id.0 as usize) else {
                    return;
                };
                self.pending
                    .push_back((owner, AppEvent::Udp(sock_id, pkt.src, pkt.src_port, dgram)));
            }
        }
        self.settle(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let Some(target) = TimerTarget::from_token(token) else {
            return;
        };
        let now = ctx.now();
        match target {
            TimerTarget::Tcp { conn, kind, gen } => {
                if !self.tcp_timer_due(ctx, conn, kind, gen) {
                    return; // Cancelled, superseded, or moved on to a later deadline.
                }
                match self.conns[conn.0 as usize].as_mut() {
                    Some(c) => c.tcp.on_timer_into(kind, now, &mut self.tcp_actions),
                    None => return,
                };
                self.run_tcp_actions(ctx, conn);
            }
            TimerTarget::App(slot) => {
                let Some(&(app, app_token)) = self.app_timers.get(slot as usize) else {
                    return;
                };
                self.free_app_timers.push(slot);
                self.pending.push_back((app, AppEvent::Timer(app_token)));
            }
            TimerTarget::TxDequeue => {
                if let Some(pkt) = self.txq.pop_front() {
                    ctx.send(pkt);
                }
            }
            TimerTarget::CmTick => {
                self.cm.tick(now);
                ctx.set_timer(CM_TICK, TimerTarget::CmTick.token());
            }
            TimerTarget::CmPace => {
                self.pace_timer_at = None;
                self.cm.release_paced(now);
            }
        }
        self.settle(ctx);
    }
}

/// The syscall surface applications program against.
///
/// Each method charges and counts its syscalls, ioctls and copies through
/// the CPU's ledger, so the API-overhead experiments (Figure 6, Table 1)
/// emerge from the same code paths the applications actually exercise.
pub struct HostOs<'a, 'b> {
    host: &'a mut Host,
    ctx: &'a mut NodeCtx<'b>,
    app: AppId,
}

impl HostOs<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Deterministic randomness for workloads.
    pub fn rng(&mut self) -> &mut cm_util::DetRng {
        self.ctx.rng()
    }

    /// Sets an application timer; `token` is returned to
    /// [`HostApp::on_timer`].
    pub fn set_app_timer(&mut self, after: Duration, token: u64) {
        let entry = (self.app, token);
        let slot = match self.host.free_app_timers.pop() {
            Some(slot) => {
                self.host.app_timers[slot as usize] = entry;
                slot
            }
            None => {
                self.host.app_timers.push(entry);
                self.host.app_timers.len() as u32 - 1
            }
        };
        self.ctx.set_timer(after, TimerTarget::App(slot).token());
    }

    // --- TCP ---

    /// Active-opens a TCP connection.
    pub fn tcp_connect(&mut self, remote: Addr, remote_port: u16, mode: CcMode) -> TcpConnId {
        let now = self.ctx.now();
        let local_port = self.host.next_ephemeral;
        self.host.next_ephemeral += 1;
        self.host.cpu.syscall(now, &self.host.cfg.cost, 0);
        let opened = TcpConnection::connect(self.host.cfg.tcp.clone(), mode, now);
        let key = four_tuple(self.ctx, local_port, remote, remote_port);
        self.host.open_conn(self.ctx, key, self.app, mode, opened)
    }

    /// Listens for inbound connections on `port`; accepted connections
    /// are owned by this app and use `mode`.
    pub fn tcp_listen(&mut self, port: u16, mode: CcMode) {
        self.host.tcp_listeners.insert(port, (self.app, mode));
    }

    /// Writes `bytes` of application data to a connection's send buffer.
    pub fn tcp_send(&mut self, conn: TcpConnId, bytes: u64) {
        let now = self.ctx.now();
        // write() syscall + copy into the socket buffer.
        self.host
            .cpu
            .syscall(now, &self.host.cfg.cost, bytes as usize);
        match self.host.conns[conn.0 as usize].as_mut() {
            Some(c) => c.tcp.app_write_into(bytes, now, &mut self.host.tcp_actions),
            None => return,
        };
        self.host.run_tcp_actions(self.ctx, conn);
    }

    /// Half-closes a connection (FIN after queued data).
    pub fn tcp_close(&mut self, conn: TcpConnId) {
        let now = self.ctx.now();
        self.host.cpu.syscall(now, &self.host.cfg.cost, 0);
        match self.host.conns[conn.0 as usize].as_mut() {
            Some(c) => c.tcp.app_close_into(now, &mut self.host.tcp_actions),
            None => return,
        };
        self.host.run_tcp_actions(self.ctx, conn);
    }

    // --- UDP ---

    /// Opens a UDP socket bound to `local_port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on this host (`EADDRINUSE`):
    /// taking it over would silently cut the first socket off from its
    /// acknowledgements.
    pub fn udp_socket(&mut self, local_port: u16) -> UdpSocketId {
        let id = UdpSocketId(self.host.socks.len() as u32);
        let taken = self.host.udp_demux.insert(local_port, id);
        assert!(
            taken.is_none(),
            "udp_socket: port {local_port} is already bound on this host"
        );
        self.host.socks.push((UdpSocket::new(local_port), self.app));
        id
    }

    /// Opens a UDP socket on the first free port at or above `first`,
    /// returning the port with it — for apps that may share a host with
    /// another instance of themselves.
    pub fn udp_socket_from(&mut self, first: u16) -> (UdpSocketId, u16) {
        let mut port = first;
        while self.host.udp_demux.contains_key(&port) {
            port += 1;
        }
        (self.udp_socket(port), port)
    }

    /// Converts a socket to a congestion-controlled UDP socket bound to
    /// `(remote, remote_port)` — `cm_open` + `setsockopt(CM_BUF)` (§3.3).
    pub fn ccudp_connect(&mut self, sock: UdpSocketId, remote: Addr, remote_port: u16) -> FlowId {
        let now = self.ctx.now();
        let local_port = self.host.socks[sock.0 as usize].0.local_port;
        let key = four_tuple(self.ctx, local_port, remote, remote_port);
        #[expect(
            clippy::expect_used,
            reason = "duplicate five-tuple on one host — a scenario-script bug, not a runtime condition"
        )]
        let flow = self
            .host
            .open_flow(key, now, FlowOwner::CcUdp(sock))
            .expect("ccudp flow open failed");
        self.host.socks[sock.0 as usize].0.enable_cm(flow);
        self.host.cpu.syscall(now, &self.host.cfg.cost, 0);
        flow
    }

    /// Sends a datagram. On a plain socket it transmits immediately; on a
    /// congestion-controlled socket it enters the kernel queue and is
    /// released by CM grants. Returns `false` if a CC queue dropped it.
    pub fn udp_sendto(
        &mut self,
        sock: UdpSocketId,
        dst: Addr,
        dst_port: u16,
        dgram: UdpDatagram,
    ) -> bool {
        let now = self.ctx.now();
        // sendto() syscall + copy.
        self.host
            .cpu
            .syscall(now, &self.host.cfg.cost, dgram.len as usize);
        let Some((s, _)) = self.host.socks.get_mut(sock.0 as usize) else {
            return false;
        };
        if s.is_cm() {
            // A CM socket always carries its flow id; treat a missing
            // one as a send failure rather than crashing the host.
            let Some(flow) = s.cm_flow else { return false };
            let ok = s.enqueue(QueuedDatagram {
                dst: dst.0,
                dst_port,
                dgram,
            });
            if ok {
                // "When data enters the packet queue, the kernel calls
                // cm_request() on the flow" (§3.3).
                let _ = self.host.cm.request(flow, now);
            }
            ok
        } else {
            let local_port = s.local_port;
            let pkt = Packet::new(
                self.ctx.addr(),
                dst,
                local_port,
                dst_port,
                Protocol::Udp,
                dgram.len as usize + UDP_OVERHEAD as usize,
                Payload::Udp(dgram),
            );
            let work = self.host.cfg.cost.udp_proc + self.host.cfg.cost.ip_output;
            self.host.emit_with_cpu(self.ctx, pkt, work);
            true
        }
    }

    /// Queue depth of a congestion-controlled socket.
    pub fn ccudp_queue_len(&self, sock: UdpSocketId) -> usize {
        self.host
            .socks
            .get(sock.0 as usize)
            .map_or(0, |(s, _)| s.queue_len())
    }

    // --- The CM API for ALF applications (§2.1) ---

    /// `cm_open`: opens a CM flow owned by this application.
    pub fn cm_open(&mut self, local_port: u16, remote: Addr, remote_port: u16) -> FlowId {
        let now = self.ctx.now();
        self.host.cpu.syscall(now, &self.host.cfg.cost, 0);
        let key = four_tuple(self.ctx, local_port, remote, remote_port);
        #[expect(
            clippy::expect_used,
            reason = "duplicate five-tuple on one host — a scenario-script bug, not a runtime condition"
        )]
        self.host
            .open_flow(key, now, FlowOwner::App(self.app))
            .expect("cm_open failed")
    }

    /// `cm_close`.
    pub fn cm_close(&mut self, flow: FlowId) {
        let now = self.ctx.now();
        // Double-close (or closing a flow the orphan reaper beat us to)
        // is a no-op at the syscall boundary.
        let _ = self.host.cm.close(flow, now);
        self.host.flow_owner.clear(flow);
    }

    /// `cm_request`: one implicit MTU of send permission; the grant
    /// arrives via [`HostApp::on_cm_grant`]. Costs one ioctl on the
    /// control socket (Table 1's "1 cm_request (ioctl)").
    pub fn cm_request(&mut self, flow: FlowId) {
        let now = self.ctx.now();
        self.host.cpu.ioctl(now, &self.host.cfg.cost);
        // A bad flow id (app bug, or a flow the orphan reaper already
        // closed) is the app's errno to ignore, not the kernel's panic.
        let _ = self.host.cm.request(flow, now);
    }

    /// `cm_notify`: reports `bytes` sent on an app-managed flow. With
    /// `explicit: true` this is the unconnected-socket case where the
    /// application itself must make the call (an extra ioctl — Table 1's
    /// "1 cm_notify (ioctl)"); with `explicit: false` the kernel derived
    /// the flow from the connected socket and charged only internal
    /// accounting.
    pub fn cm_notify(&mut self, flow: FlowId, bytes: u64, explicit: bool) {
        let now = self.ctx.now();
        if explicit {
            self.host.cpu.ioctl(now, &self.host.cfg.cost);
        } else {
            self.host.cpu.run(now, self.host.cfg.cost.cm_accounting);
        }
        // Errno dropped as in cm_request: a misbehaving app notifying a
        // reaped flow must not take the host down.
        let _ = self.host.cm.notify(flow, bytes, now);
    }

    /// `cm_update`: receiver feedback from an app-level ACK.
    pub fn cm_update(&mut self, flow: FlowId, report: FeedbackReport) {
        let now = self.ctx.now();
        self.host.cpu.ioctl(now, &self.host.cfg.cost);
        // `Err` here includes `InvalidFeedback`: reports the sanity
        // validator rejected or a quarantined flow's feedback. The CM
        // already counted it (`feedback_rejected`); the app's errno is
        // its own problem.
        let _ = self.host.cm.update(flow, report, now);
    }

    /// `cm_query`: current per-flow network state.
    pub fn cm_query(&mut self, flow: FlowId) -> Option<FlowInfo> {
        let now = self.ctx.now();
        self.host.cpu.ioctl(now, &self.host.cfg.cost);
        self.host.cm.query(flow, now).ok()
    }

    /// `cm_thresh` + `cm_register_update`: rate callbacks for this flow.
    pub fn cm_set_thresholds(&mut self, flow: FlowId, t: Option<Thresholds>) {
        let _ = self.host.cm.set_thresholds(flow, t);
    }

    /// Sets a flow's scheduler weight (an ioctl; of the CM controls only
    /// `cm_close` and `cm_set_thresholds` charge nothing yet) — how the §3.5 co-scheduled applications express their
    /// relative shares of one macroflow. Takes effect with the weighted
    /// scheduler (`SchedulerKind::WeightedRoundRobin`) and survives
    /// macroflow migration.
    pub fn cm_set_weight(&mut self, flow: FlowId, weight: u32) {
        let now = self.ctx.now();
        self.host.cpu.ioctl(now, &self.host.cfg.cost);
        let _ = self.host.cm.set_weight(flow, weight);
    }

    /// `gettimeofday`, charged per Table 1 (user-space RTT measurement
    /// needs two per packet).
    pub fn gettimeofday(&mut self) -> Time {
        let now = self.ctx.now();
        self.host.cpu.gettimeofday(now, &self.host.cfg.cost);
        now
    }

    /// Charges one `recv` syscall plus the copy of `bytes`.
    pub fn charge_recv(&mut self, bytes: usize) {
        let now = self.ctx.now();
        self.host.cpu.syscall(now, &self.host.cfg.cost, bytes);
    }

    /// Direct access to the host CPU and cost model, for libraries (like
    /// the libcm dispatcher) that charge composite costs themselves.
    pub fn cpu_and_costs(&mut self) -> (&mut Cpu, &CostModel) {
        (&mut self.host.cpu, &self.host.cfg.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_netsim::channel::PathSpec;
    use cm_netsim::sim::{NodeId, Simulator};
    use cm_netsim::topology::Topology;
    use cm_util::Rate;

    /// Sends `total` bytes over TCP as soon as it starts.
    struct BulkSender {
        remote: Addr,
        port: u16,
        mode: CcMode,
        total: u64,
        done_at: Option<Time>,
        acked: u64,
    }

    impl HostApp for BulkSender {
        fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
            let conn = os.tcp_connect(self.remote, self.port, self.mode);
            os.tcp_send(conn, self.total);
        }
        fn on_tcp_event(&mut self, os: &mut HostOs<'_, '_>, _conn: TcpConnId, ev: TcpEvent) {
            if let TcpEvent::SendProgress(acked) = ev {
                self.acked = acked;
                if acked >= self.total && self.done_at.is_none() {
                    self.done_at = Some(os.now());
                }
            }
        }
    }

    /// Accepts connections and counts delivered bytes.
    struct Receiver {
        port: u16,
        mode: CcMode,
        delivered: u64,
    }

    impl HostApp for Receiver {
        fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
            os.tcp_listen(self.port, self.mode);
        }
        fn on_tcp_event(&mut self, _os: &mut HostOs<'_, '_>, _conn: TcpConnId, ev: TcpEvent) {
            if let TcpEvent::DataDelivered(n) = ev {
                self.delivered = n;
            }
        }
    }

    /// A bulk transfer of `total` bytes over `path`, not yet started: the
    /// simulator, the server and the path's links.
    fn bulk_sim(
        mode: CcMode,
        path: &PathSpec,
        total: u64,
    ) -> (Simulator, NodeId, cm_netsim::topology::Duplex) {
        let mut topo = Topology::new(42);
        let mut server = Host::new(HostConfig::default());
        server.add_app(Box::new(Receiver {
            port: 80,
            mode,
            delivered: 0,
        }));
        let server_id = topo.add_host(Box::new(server));
        let server_addr = topo.sim().addr_of(server_id);

        let mut client = Host::new(HostConfig::default());
        client.add_app(Box::new(BulkSender {
            remote: server_addr,
            port: 80,
            mode,
            total,
            done_at: None,
            acked: 0,
        }));
        let client_id = topo.add_host(Box::new(client));

        let links = topo.emulated_path(client_id, server_id, path);
        (topo.build(), server_id, links)
    }

    fn delivered(sim: &Simulator, server_id: NodeId) -> u64 {
        let conn = sim.node_ref::<Host>(server_id).tcp_conn(TcpConnId(0));
        conn.map_or(0, |c| c.bytes_delivered())
    }

    fn bulk_transfer(mode: CcMode, loss: f64, total: u64) -> (u64, Time) {
        let path =
            PathSpec::new(Rate::from_mbps(10), Duration::from_millis(40)).with_forward_loss(loss);
        let (mut sim, server_id, _) = bulk_sim(mode, &path, total);
        sim.run_until(Time::from_secs(120));
        (delivered(&sim, server_id), sim.now())
    }

    #[test]
    fn native_tcp_transfers_over_simulated_path() {
        let total = 200 * 1460;
        let (delivered, _) = bulk_transfer(CcMode::Native, 0.0, total);
        assert_eq!(delivered, total);
    }

    #[test]
    fn cm_tcp_transfers_over_simulated_path() {
        let total = 200 * 1460;
        let (delivered, _) = bulk_transfer(CcMode::Cm, 0.0, total);
        assert_eq!(delivered, total);
    }

    #[test]
    fn native_tcp_survives_loss() {
        let total = 100 * 1460;
        let (delivered, _) = bulk_transfer(CcMode::Native, 0.02, total);
        assert_eq!(delivered, total);
    }

    #[test]
    fn cm_tcp_survives_loss() {
        let total = 100 * 1460;
        let (delivered, _) = bulk_transfer(CcMode::Cm, 0.02, total);
        assert_eq!(delivered, total);
    }

    #[test]
    fn cm_tcp_survives_heavy_loss() {
        let total = 30 * 1460;
        let (delivered, _) = bulk_transfer(CcMode::Cm, 0.05, total);
        assert_eq!(delivered, total);
    }

    /// The sharded CM end to end: a client whose CM shards by
    /// destination drives CM-backed TCP to two different
    /// destination hosts. Each destination group gets its own shard
    /// (flow ids carry distinct shard bits), both transfers complete,
    /// and the host's periodic `cm_tick` timer keeps every shard
    /// maintained.
    #[test]
    fn sharded_cm_transfers_to_two_destination_groups() {
        use cm_core::config::ShardingConfig;
        use cm_netsim::link::LinkSpec;

        let total = 60 * 1460;
        let mut topo = Topology::new(7);
        let server = || {
            let mut h = Host::new(HostConfig::default());
            h.add_app(Box::new(Receiver {
                port: 80,
                mode: CcMode::Cm,
                delivered: 0,
            }));
            h
        };
        let s1 = topo.add_host(Box::new(server()));
        let s2 = topo.add_host(Box::new(server()));
        let s1_addr = topo.sim().addr_of(s1);
        let s2_addr = topo.sim().addr_of(s2);

        let mut client = Host::new(HostConfig {
            cm: cm_core::config::CmConfig {
                sharding: ShardingConfig::by_group(16),
                ..Default::default()
            },
            ..Default::default()
        });
        for addr in [s1_addr, s2_addr] {
            client.add_app(Box::new(BulkSender {
                remote: addr,
                port: 80,
                mode: CcMode::Cm,
                total,
                done_at: None,
                acked: 0,
            }));
        }
        let client_id = topo.add_host(Box::new(client));
        let bottleneck = LinkSpec::new(Rate::from_mbps(10), Duration::from_millis(20));
        let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(100));
        topo.dumbbell(&[client_id], &[s1, s2], &bottleneck, &access);
        let mut sim = topo.build();
        sim.run_until(Time::from_secs(60));

        let client_host = sim.node_ref::<Host>(client_id);
        assert_eq!(client_host.cm.shard_count(), 2, "one shard per group");
        assert_eq!(client_host.cm.flow_count(), 2);
        // The two flows live in different shards (distinct id high bits).
        let stats = client_host.cm.stats();
        assert_eq!(stats.shards_created, 2);
        assert!(
            stats.tick_shards_visited > 0,
            "host timer never ticked the shards"
        );
        for host_id in [s1, s2] {
            let h = sim.node_ref::<Host>(host_id);
            assert_eq!(
                h.tcp_conn(TcpConnId(0)).map(|c| c.bytes_delivered()),
                Some(total),
                "transfer incomplete under sharded CM"
            );
        }
    }

    // ------------------------------------------------------------------
    // The timer table
    // ------------------------------------------------------------------

    #[test]
    fn timer_tokens_round_trip() {
        let targets = [
            TimerTarget::TxDequeue,
            TimerTarget::CmTick,
            TimerTarget::CmPace,
            TimerTarget::App(0),
            TimerTarget::App(u32::MAX),
            TimerTarget::Tcp {
                conn: TcpConnId(0),
                kind: TcpTimer::Rto,
                gen: 1,
            },
            // Every connection id fits beside a full-width generation.
            TimerTarget::Tcp {
                conn: TcpConnId(u32::MAX),
                kind: TcpTimer::DelayedAck,
                gen: TimerTarget::GEN_MASK,
            },
        ];
        for t in targets {
            assert_eq!(TimerTarget::from_token(t.token()), Some(t));
        }
        assert_eq!(TimerTarget::from_token(u64::MAX), None);
    }

    /// Records the source port of every packet, in arrival order, and
    /// answers none: connections to it sit in SYN-SENT, where every RTO
    /// expiry retransmits the SYN — one observable packet per `on_timer`.
    struct Sink {
        arrivals: Vec<(Time, u16)>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
            self.arrivals.push((ctx.now(), pkt.src_port));
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    /// Opens `conns` connections at start (local ports 40000, 40001, ...,
    /// ids 0, 1, ...) and one more on every application timer.
    struct Opener {
        remote: Addr,
        conns: u32,
    }

    impl HostApp for Opener {
        fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
            for _ in 0..self.conns {
                os.tcp_connect(self.remote, 80, CcMode::Native);
            }
        }
        fn on_timer(&mut self, os: &mut HostOs<'_, '_>, _token: u64) {
            os.tcp_connect(self.remote, 80, CcMode::Native);
        }
    }

    /// One-way delay of the test link.
    const LINK_DELAY: Duration = Duration::from_millis(1);

    /// A host with `conns` connections in SYN-SENT (each RTO armed for
    /// the 3 s fallback at t = 0) wired to a [`Sink`].
    fn syn_sent_host(conns: u32) -> (Simulator, NodeId, NodeId) {
        let mut topo = Topology::new(1);
        let sink_id = topo.add_host(Box::new(Sink { arrivals: vec![] }));
        let remote = topo.sim().addr_of(sink_id);
        let mut host = Host::new(HostConfig::default());
        host.add_app(Box::new(Opener { remote, conns }));
        let host_id = topo.add_host(Box::new(host));
        // Fast enough that serialization never reorders or delays.
        topo.emulated_path(
            host_id,
            sink_id,
            &PathSpec::new(Rate::from_mbps(1_000), LINK_DELAY * 2),
        );
        (topo.build(), host_id, sink_id)
    }

    /// Runs `action` on connection `conn` of `host` exactly as if TCP had
    /// just asked for it.
    fn tcp_action(sim: &mut Simulator, host: NodeId, conn: u32, action: TcpAction) {
        sim.with_node::<Host, _>(host, |h, ctx| {
            h.tcp_actions.push(action);
            h.run_tcp_actions(ctx, TcpConnId(conn));
        });
    }

    /// When each SYN *re*transmission left the host, with its local port
    /// (the first `conns` arrivals are the original SYNs). Every firing in
    /// these tests is on a millisecond; serialization adds nanoseconds.
    fn retransmissions(sim: &Simulator, sink: NodeId, conns: usize) -> Vec<(Time, u16)> {
        sim.node_ref::<Sink>(sink).arrivals[conns..]
            .iter()
            .map(|&(at, port)| {
                let sent = Time::from_millis(at.as_nanos() / 1_000_000) - LINK_DELAY;
                (sent, port)
            })
            .collect()
    }

    fn timeouts(sim: &Simulator, host: NodeId, conn: u32) -> u64 {
        let c = sim.node_ref::<Host>(host).tcp_conn(TcpConnId(conn));
        c.map_or(0, |c| c.stats.timeouts)
    }

    #[test]
    fn rto_rearmed_on_every_ack_fires_once_at_the_last_deadline() {
        let (mut sim, host, sink) = syn_sent_host(1);
        let rto = Duration::from_secs(3);
        // Re-arm as 1,000 ACKs one millisecond apart would.
        for ms in 1..=1_000 {
            sim.run_until(Time::from_millis(ms));
            tcp_action(&mut sim, host, 0, TcpAction::SetTimer(TcpTimer::Rto, rto));
        }
        let events_before = sim.events_processed();
        sim.run_until(Time::from_secs(5));
        assert_eq!(timeouts(&sim, host, 0), 1);
        assert_eq!(
            retransmissions(&sim, sink, 1),
            vec![(Time::from_millis(1_000) + rto, 40_000)],
            "the RTO must fire exactly once, at the last arm's deadline"
        );
        // The one queued event carried itself to the deadline: reaching
        // it took a handful of events (the hop, the firing, the SYN, CM
        // ticks), not one per arm.
        let events = sim.events_processed() - events_before;
        assert!(events < 100, "{events} events for 1,000 re-arms");
        assert!(sim.timer_slot_capacity() <= 8);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let (mut sim, host, sink) = syn_sent_host(1);
        sim.run_until(Time::from_secs(1));
        tcp_action(&mut sim, host, 0, TcpAction::CancelTimer(TcpTimer::Rto));
        sim.run_until(Time::from_secs(60));
        assert_eq!(timeouts(&sim, host, 0), 0);
        assert!(retransmissions(&sim, sink, 1).is_empty());
        // Cancel-then-arm before the old event pops: still one firing, at
        // the new deadline.
        let rto = Duration::from_secs(3);
        tcp_action(&mut sim, host, 0, TcpAction::SetTimer(TcpTimer::Rto, rto));
        tcp_action(&mut sim, host, 0, TcpAction::CancelTimer(TcpTimer::Rto));
        tcp_action(
            &mut sim,
            host,
            0,
            TcpAction::SetTimer(TcpTimer::Rto, rto * 2),
        );
        sim.run_until(Time::from_secs(67));
        assert_eq!(
            retransmissions(&sim, sink, 1),
            vec![(Time::from_secs(66), 40_000)]
        );
    }

    #[test]
    fn rearm_to_an_earlier_deadline_fires_at_the_earlier_one() {
        let (mut sim, host, sink) = syn_sent_host(1);
        sim.run_until(Time::from_secs(1));
        let early = Duration::from_millis(500);
        tcp_action(&mut sim, host, 0, TcpAction::SetTimer(TcpTimer::Rto, early));
        // Past the original 3 s deadline, whose event is now stale (the
        // firing at 1.5 s re-armed the backed-off RTO for 7.5 s).
        sim.run_until(Time::from_secs(4));
        assert_eq!(
            retransmissions(&sim, sink, 1),
            vec![(Time::from_secs(1) + early, 40_000)]
        );
    }

    /// Among events of one instant a timer acts in the place of its
    /// *latest* arm — whether that arm scheduled a fresh event (the queued
    /// one would have popped at the same instant but ahead of it) or only
    /// reserved the place for an event that hops to the deadline later.
    #[test]
    fn timer_acts_at_its_latest_arms_place_among_same_instant_events() {
        let (mut sim, host, sink) = syn_sent_host(2);
        let set = |after| TcpAction::SetTimer(TcpTimer::Rto, after);
        sim.run_until(Time::from_secs(1));
        // Both for t = 2 s: connection 0, then connection 1, then
        // connection 0 again — which must now fire *after* connection 1.
        tcp_action(&mut sim, host, 0, set(Duration::from_secs(1)));
        tcp_action(&mut sim, host, 1, set(Duration::from_secs(1)));
        tcp_action(&mut sim, host, 0, set(Duration::from_secs(1)));
        sim.run_until(Time::from_millis(2_500));
        let at = Time::from_secs(2);
        assert_eq!(
            retransmissions(&sim, sink, 2),
            vec![(at, 40_001), (at, 40_000)]
        );

        // Connection 0's RTO now waits at 2 s + 6 s (backed off). Move it
        // to t = 10 s — its queued event pops first, so the arm only
        // reserves its place — and *then* set an application timer for
        // the same instant. At 8 s the event hops to 10 s; at 10 s the
        // RTO must still come before the application timer's connection
        // (a third one, port 40002), as its arm did.
        sim.run_until(Time::from_secs(3));
        tcp_action(&mut sim, host, 1, TcpAction::CancelTimer(TcpTimer::Rto));
        tcp_action(&mut sim, host, 0, set(Duration::from_secs(7)));
        sim.with_node::<Host, _>(host, |h, ctx| {
            let mut os = HostOs {
                host: h,
                ctx,
                app: AppId(0),
            };
            os.set_app_timer(Duration::from_secs(7), 0);
        });
        sim.run_until(Time::from_millis(10_500));
        let at = Time::from_secs(10);
        assert_eq!(
            retransmissions(&sim, sink, 2)[2..],
            [(at, 40_000), (at, 40_002)]
        );
    }

    /// One entry point's row in the CPU ledger: what it added to
    /// `[syscalls, ioctls, selects, gettimeofdays, bytes_copied]` and to
    /// the busy time.
    type LedgerRow = (&'static str, [u64; 5], Duration);

    /// Runs `op` against `os` and records its ledger row under `name`.
    fn charged<T>(
        rows: &mut Vec<LedgerRow>,
        name: &'static str,
        os: &mut HostOs<'_, '_>,
        op: impl FnOnce(&mut HostOs<'_, '_>) -> T,
    ) -> T {
        let (ops, busy) = (os.host.cpu.ops, os.host.cpu.total_busy());
        let out = op(os);
        let now = os.host.cpu.ops;
        let counts = [
            now.syscalls - ops.syscalls,
            now.ioctls - ops.ioctls,
            now.selects - ops.selects,
            now.gettimeofdays - ops.gettimeofdays,
            now.bytes_copied - ops.bytes_copied,
        ];
        rows.push((name, counts, os.host.cpu.total_busy() - busy));
        out
    }

    /// Every `HostOs` entry point, driven once under the default cost
    /// model, counts exactly the operations it charges and charges exactly
    /// their price (plus the kernel work it sets off, which Table 1 does
    /// not count). `cm_close`, `cm_set_thresholds`, `udp_socket` and
    /// `tcp_listen` charge and count nothing yet.
    #[test]
    fn every_entry_point_prices_and_counts_through_the_ledger() {
        let c = CostModel::default();
        let mut topo = Topology::new(3);
        let server = Host::new(HostConfig::default());
        let server_id = topo.add_host(Box::new(server));
        let server_addr = topo.sim().addr_of(server_id);
        let mut client = Host::new(HostConfig {
            cost: c,
            ..HostConfig::default()
        });
        client.add_app(Box::new(Receiver {
            port: 80,
            mode: CcMode::Native,
            delivered: 0,
        }));
        let client_id = topo.add_host(Box::new(client));
        topo.emulated_path(client_id, server_id, &PathSpec::fig3(0.0));
        let mut sim = topo.build();
        let got = sim.with_node::<Host, _>(client_id, |host, ctx| {
            let os = &mut HostOs {
                host,
                ctx,
                app: AppId(0),
            };
            let rows = &mut Vec::new();
            let remote = server_addr;
            let conn = charged(rows, "tcp_connect", os, |os| {
                os.tcp_connect(remote, 80, CcMode::Native)
            });
            charged(rows, "tcp_send", os, |os| os.tcp_send(conn, 1_000));
            charged(rows, "tcp_close", os, |os| os.tcp_close(conn));
            charged(rows, "tcp_listen", os, |os| {
                os.tcp_listen(81, CcMode::Native)
            });
            let sock = charged(rows, "udp_socket", os, |os| os.udp_socket(5_000));
            charged(rows, "ccudp_connect", os, |os| {
                os.ccudp_connect(sock, remote, 5_001)
            });
            charged(rows, "udp_sendto", os, |os| {
                os.udp_sendto(
                    sock,
                    remote,
                    5_001,
                    UdpDatagram::data(0, 200, Time::ZERO, 0),
                )
            });
            let flow = charged(rows, "cm_open", os, |os| os.cm_open(6_000, remote, 6_001));
            charged(rows, "cm_request", os, |os| os.cm_request(flow));
            charged(rows, "cm_notify explicit", os, |os| {
                os.cm_notify(flow, 1_000, true)
            });
            charged(rows, "cm_notify implicit", os, |os| {
                os.cm_notify(flow, 1_000, false)
            });
            charged(rows, "cm_update", os, |os| {
                os.cm_update(flow, FeedbackReport::ack(1_000, 1))
            });
            charged(rows, "cm_query", os, |os| os.cm_query(flow));
            charged(rows, "cm_set_thresholds", os, |os| {
                os.cm_set_thresholds(flow, Some(Thresholds::new(0.5, 2.0)))
            });
            charged(rows, "cm_set_weight", os, |os| os.cm_set_weight(flow, 2));
            charged(rows, "gettimeofday", os, |os| os.gettimeofday());
            charged(rows, "charge_recv", os, |os| os.charge_recv(300));
            charged(rows, "cm_close", os, |os| os.cm_close(flow));
            std::mem::take(rows)
        });
        let syscall = |copied: usize| c.syscall + c.copy(copied);
        let want: [LedgerRow; 18] = [
            // The SYN leaves through the kernel's segment output path.
            (
                "tcp_connect",
                [1, 0, 0, 0, 0],
                syscall(0) + c.tcp_proc + c.ip_output,
            ),
            ("tcp_send", [1, 0, 0, 0, 1_000], syscall(1_000)),
            ("tcp_close", [1, 0, 0, 0, 0], syscall(0)),
            ("tcp_listen", [0; 5], Duration::ZERO),
            ("udp_socket", [0; 5], Duration::ZERO),
            ("ccudp_connect", [1, 0, 0, 0, 0], syscall(0)),
            ("udp_sendto", [1, 0, 0, 0, 200], syscall(200)),
            ("cm_open", [1, 0, 0, 0, 0], syscall(0)),
            ("cm_request", [0, 1, 0, 0, 0], c.ioctl),
            ("cm_notify explicit", [0, 1, 0, 0, 0], c.ioctl),
            ("cm_notify implicit", [0; 5], c.cm_accounting),
            ("cm_update", [0, 1, 0, 0, 0], c.ioctl),
            ("cm_query", [0, 1, 0, 0, 0], c.ioctl),
            ("cm_set_thresholds", [0; 5], Duration::ZERO),
            ("cm_set_weight", [0, 1, 0, 0, 0], c.ioctl),
            ("gettimeofday", [0, 0, 0, 1, 0], c.gettimeofday),
            ("charge_recv", [1, 0, 0, 0, 300], syscall(300)),
            ("cm_close", [0; 5], Duration::ZERO),
        ];
        let wrong: Vec<_> = got
            .iter()
            .zip(&want)
            .filter(|(got, want)| got != want)
            .collect();
        assert!(wrong.is_empty(), "(got, want) per wrong row: {wrong:#?}");
        assert_eq!(got.len(), want.len());
    }

    /// The packet path's event budget: one transfer's two connection ends
    /// re-arm a TCP timer on nearly every packet, and none of those arms
    /// may cost a simulator event or a timer slot of its own — nor does a
    /// link spend a completion event on a packet nothing waits behind.
    #[test]
    fn timer_rearms_cost_no_events_on_a_lossy_transfer() {
        let total = 1_000_000;
        let (mut sim, server_id, links) = bulk_sim(CcMode::Cm, &PathSpec::fig3(0.005), total);
        // Stop at the first tenth of a second with everything delivered,
        // so idle CM ticks do not pad the count.
        while delivered(&sim, server_id) < total {
            assert!(sim.now() < Time::from_secs(120), "transfer stalled");
            sim.run_until(sim.now() + Duration::from_millis(100));
        }
        let delivered = sim.link_stats(links.forward).transmitted;
        let per_pkt = sim.events_processed() as f64 / delivered as f64;
        assert!(
            per_pkt <= 2.7,
            "{per_pkt:.2} events per delivered packet ({} / {delivered})",
            sim.events_processed()
        );
        assert!(
            sim.timer_slot_capacity() <= 32,
            "timer slab grew to {} slots",
            sim.timer_slot_capacity()
        );
    }
}
