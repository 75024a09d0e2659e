//! Delegating wrappers that put a span around every call the simulator
//! makes into a `Host` and every call a `Host` makes into an app.
//!
//! Both wrappers are installed in traced and untraced runs alike, so
//! the two runs execute the same simulation; untraced they add one
//! predictable branch per call.

use cm_core::types::{FlowId, FlowInfo};
use cm_netsim::packet::{Addr, Packet};
use cm_netsim::sim::{Node, NodeCtx};
use cm_transport::host::{Host, HostApp, HostOs};
use cm_transport::segment::UdpDatagram;
use cm_transport::types::{AppId, TcpConnId, TcpEvent, UdpSocketId};

use crate::span::{in_span, Kind};

/// A `Host` whose `Node` handlers run inside
/// [`Kind::HostHandler`] spans.
pub struct TimedHost {
    pub host: Host,
    traced: bool,
}

impl TimedHost {
    pub fn new(host: Host, traced: bool) -> Self {
        TimedHost { host, traced }
    }

    /// The app installed as `id`, unwrapped.
    pub fn app<A: HostApp>(&self, id: AppId) -> &A {
        &self.host.app_ref::<TimedApp<A>>(id).app
    }
}

impl Node for TimedHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        in_span(self.traced, Kind::HostHandler, || self.host.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        in_span(self.traced, Kind::HostHandler, || {
            self.host.on_packet(ctx, pkt)
        });
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        in_span(self.traced, Kind::HostHandler, || {
            self.host.on_timer(ctx, token)
        });
    }
}

/// An app whose `HostApp` callbacks run inside [`Kind::AppCallback`]
/// spans. The `HostOs` calls the app makes from inside a callback are
/// part of that span: they cannot be told apart from outside.
pub struct TimedApp<A> {
    pub app: A,
    traced: bool,
}

impl<A: HostApp> TimedApp<A> {
    pub fn boxed(app: A, traced: bool) -> Box<dyn HostApp> {
        Box::new(TimedApp { app, traced })
    }
}

impl<A: HostApp> HostApp for TimedApp<A> {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        in_span(self.traced, Kind::AppCallback, || self.app.on_start(os));
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        in_span(self.traced, Kind::AppCallback, || {
            self.app.on_timer(os, token)
        });
    }

    fn on_tcp_event(&mut self, os: &mut HostOs<'_, '_>, conn: TcpConnId, ev: TcpEvent) {
        in_span(self.traced, Kind::AppCallback, || {
            self.app.on_tcp_event(os, conn, ev)
        });
    }

    fn on_udp(
        &mut self,
        os: &mut HostOs<'_, '_>,
        sock: UdpSocketId,
        from: Addr,
        from_port: u16,
        dgram: UdpDatagram,
    ) {
        in_span(self.traced, Kind::AppCallback, || {
            self.app.on_udp(os, sock, from, from_port, dgram)
        });
    }

    fn on_cm_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        in_span(self.traced, Kind::AppCallback, || {
            self.app.on_cm_grant(os, flow)
        });
    }

    fn on_cm_rate_change(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId, info: FlowInfo) {
        in_span(self.traced, Kind::AppCallback, || {
            self.app.on_cm_rate_change(os, flow, info)
        });
    }
}
