//! The web workload for the state-sharing experiment (Figure 7), plus
//! the §3.5 adaptive server.
//!
//! "The client requests the same file 9 times with a 500 ms delay between
//! request initiations. By sharing congestion information and avoiding
//! slow-start, the CM-enabled server is able to provide faster service
//! for subsequent requests." The client is *unmodified* (non-CM); the
//! server chooses TCP/Linux or TCP/CM. Each request uses a fresh TCP
//! connection, the pattern §4.3 notes was still common despite
//! persistent connections.
//!
//! The adaptive variant implements the paper's other web idea: "a web
//! server can use the congestion state to decide which representation of
//! a document to transmit". Given several response representations
//! (e.g. image resolutions) and a response deadline, the server queries
//! the connection's CM state at request time and serves the largest
//! variant deliverable in time, via the `cm-adapt` deadline policy.

use cm_adapt::{AdaptationStats, BufferPolicy, Engine, Observation, RateLadder};
use cm_netsim::packet::Addr;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::types::{CcMode, TcpConnId, TcpEvent};
use cm_util::{Duration, FxHashSet, Rate, Time};

/// Serves a file on each inbound connection — fixed-size, or adapted to
/// the path when configured with response variants.
pub struct WebServer {
    /// Listening port.
    pub port: u16,
    /// Congestion mode for response transmissions (the experiment's
    /// independent variable).
    pub mode: CcMode,
    /// Response size, bytes (128 KB in the paper): what a fixed-size
    /// server always serves. An adaptive server ignores it — with no CM
    /// state for a connection it serves the *smallest* variant (see
    /// [`WebServer::adaptive`]).
    pub file_size: u64,
    /// Requests served.
    pub served: u64,
    /// Requests served per variant (empty for a fixed-size server).
    pub served_by_variant: Vec<u64>,
    /// Response representations, bytes, smallest first; with the engine,
    /// drives per-request variant selection.
    variants: Vec<u64>,
    /// Response deadline the variant must meet.
    deadline: Duration,
    adapt: Option<Engine>,
    responded: FxHashSet<TcpConnId>,
}

impl WebServer {
    /// Creates a fixed-size server (the Figure 7 experiment).
    pub fn new(port: u16, mode: CcMode, file_size: u64) -> Self {
        WebServer {
            port,
            mode,
            file_size,
            served: 0,
            served_by_variant: Vec::new(),
            variants: Vec::new(),
            deadline: Duration::ZERO,
            adapt: None,
            responded: FxHashSet::default(),
        }
    }

    /// Creates an adaptive server choosing among `variants` (response
    /// sizes in bytes, smallest first) so each response can complete
    /// within `deadline` at the rate the CM reports for the connection.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty/unsorted or `deadline` is zero.
    pub fn adaptive(port: u16, mode: CcMode, variants: Vec<u64>, deadline: Duration) -> Self {
        assert!(!deadline.is_zero(), "adaptive server needs a deadline");
        assert!(!variants.is_empty(), "adaptive server needs variants");
        // Each variant's cost on the ladder is the rate that downloads
        // it in one second; the deadline policy's budget is then
        // rate × deadline, i.e. "bytes deliverable in time".
        let ladder = RateLadder::new(
            variants
                .iter()
                .map(|&b| Rate::from_bytes_per_sec(b))
                .collect(),
        );
        let engine = Engine::new(Box::new(BufferPolicy::deadline(ladder)));
        WebServer {
            port,
            mode,
            file_size: variants.last().copied().unwrap_or(0),
            served: 0,
            served_by_variant: vec![0; variants.len()],
            variants,
            deadline,
            adapt: Some(engine),
            responded: FxHashSet::default(),
        }
    }

    /// Adaptation statistics, if this server adapts.
    pub fn adaptation_stats(&self) -> Option<&AdaptationStats> {
        self.adapt.as_ref().map(|e| e.stats())
    }

    /// Picks the response size for a request on `conn`: the largest
    /// variant deliverable within the deadline at the CM-reported rate.
    /// A fixed-size server always serves `file_size`; an adaptive one
    /// with no congestion state for the connection (non-CM mode, or the
    /// flow vanished) treats the rate as zero and serves the smallest
    /// variant — the deadline-safe choice — so `served_by_variant`
    /// always sums to `served`.
    fn response_size(&mut self, os: &mut HostOs<'_, '_>, conn: TcpConnId) -> u64 {
        let Some(engine) = self.adapt.as_mut() else {
            return self.file_size;
        };
        let rate = os
            .tcp_flow_info(conn)
            .map(|info| info.rate)
            .unwrap_or(Rate::ZERO);
        let obs = Observation::rate_only(os.now(), rate).with_buffer(self.deadline);
        let level = engine.observe(&obs).level;
        self.served_by_variant[level] += 1;
        self.variants[level]
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
                let size = self.response_size(os, conn);
                os.tcp_send(conn, size);
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
