//! The web workload for the state-sharing experiment (Figure 7).
//!
//! "The client requests the same file 9 times with a 500 ms delay between
//! request initiations. By sharing congestion information and avoiding
//! slow-start, the CM-enabled server is able to provide faster service
//! for subsequent requests." The client is *unmodified* (non-CM); the
//! server chooses TCP/Linux or TCP/CM. Each request uses a fresh TCP
//! connection, the pattern §4.3 notes was still common despite
//! persistent connections.

use cm_netsim::packet::Addr;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::types::{CcMode, TcpConnId, TcpEvent};
use cm_util::{Duration, FxHashSet, Time};

/// Serves a fixed-size file on each inbound connection.
pub struct WebServer {
    /// Listening port.
    pub port: u16,
    /// Congestion mode for response transmissions (the experiment's
    /// independent variable).
    pub mode: CcMode,
    /// Response size, bytes (128 KB in the paper).
    pub file_size: u64,
    /// Requests served.
    pub served: u64,
    responded: FxHashSet<TcpConnId>,
}

impl WebServer {
    /// Creates a server (the Figure 7 experiment).
    pub fn new(port: u16, mode: CcMode, file_size: u64) -> Self {
        WebServer {
            port,
            mode,
            file_size,
            served: 0,
            responded: FxHashSet::default(),
        }
    }
}

impl HostApp for WebServer {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        os.tcp_listen(self.port, self.mode);
    }

    fn on_tcp_event(&mut self, os: &mut HostOs<'_, '_>, conn: TcpConnId, ev: TcpEvent) {
        if let TcpEvent::DataDelivered(_) = ev {
            // The request arrived (any bytes): send the file and close.
            // Real servers parse; the experiment only needs the bytes.
            if self.responded.insert(conn) {
                self.served += 1;
                os.tcp_send(conn, self.file_size);
                os.tcp_close(conn);
            }
        }
    }
}

/// One request's measured lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// When the client initiated the connection.
    pub started: Time,
    /// When the full response arrived.
    pub completed: Option<Time>,
}

impl RequestRecord {
    /// Request latency, if complete.
    pub fn latency(&self) -> Option<Duration> {
        Some(self.completed?.since(self.started))
    }
}

/// Issues sequential requests with a fixed gap between initiations.
pub struct WebClient {
    /// Server address.
    pub remote: Addr,
    /// Server port.
    pub port: u16,
    /// Number of requests to issue (9 in the paper).
    pub requests: usize,
    /// Gap between request initiations (500 ms in the paper).
    pub gap: Duration,
    /// Request message size, bytes.
    pub request_size: u64,
    /// Expected response size, bytes.
    pub response_size: u64,
    /// Per-request records.
    pub records: Vec<RequestRecord>,
    conns: Vec<TcpConnId>,
}

/// Timer token for issuing the next request.
const NEXT_REQUEST: u64 = 1;

impl WebClient {
    /// Creates a client that will fetch `response_size` bytes
    /// `requests` times.
    pub fn new(
        remote: Addr,
        port: u16,
        requests: usize,
        gap: Duration,
        response_size: u64,
    ) -> Self {
        WebClient {
            remote,
            port,
            requests,
            gap,
            request_size: 200,
            response_size,
            records: Vec::new(),
            conns: Vec::new(),
        }
    }

    /// True when every request completed.
    pub fn all_done(&self) -> bool {
        self.records.len() == self.requests && self.records.iter().all(|r| r.completed.is_some())
    }

    /// Completion latencies in milliseconds, one per request.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.latency())
            .map(|d| d.as_nanos() as f64 / 1e6)
            .collect()
    }

    fn issue(&mut self, os: &mut HostOs<'_, '_>) {
        // The unmodified client always runs native TCP (only the server
        // end is CM-enabled in the paper's test).
        let conn = os.tcp_connect(self.remote, self.port, CcMode::Native);
        os.tcp_send(conn, self.request_size);
        self.conns.push(conn);
        self.records.push(RequestRecord {
            started: os.now(),
            completed: None,
        });
        if self.records.len() < self.requests {
            os.set_app_timer(self.gap, NEXT_REQUEST);
        }
    }
}

impl HostApp for WebClient {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        self.issue(os);
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        if token == NEXT_REQUEST {
            self.issue(os);
        }
    }

    fn on_tcp_event(&mut self, os: &mut HostOs<'_, '_>, conn: TcpConnId, ev: TcpEvent) {
        if let TcpEvent::DataDelivered(n) = ev {
            if n >= self.response_size {
                if let Some(idx) = self.conns.iter().position(|&c| c == conn) {
                    if self.records[idx].completed.is_none() {
                        self.records[idx].completed = Some(os.now());
                    }
                }
            }
        }
    }
}
