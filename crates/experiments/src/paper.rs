//! The paper's own evaluation (§4) as built-in figures: Table 1,
//! Figures 3-7 and 10, the connection set-up microbenchmark, and the
//! design ablations.
//!
//! Each figure runs its [`crate::scenarios`] testbed, lays the
//! measurements out as one or more `Grid`s, and states the paper's
//! result beside them. All of them share `emit`, so a paper figure is a
//! [`Figure`] constant plus one function.

use cm_apps::ack_clients::FeedbackPolicy;
use cm_apps::blast::BlastApi;
use cm_apps::layered::AdaptMode;
use cm_core::controller::build_controller;
use cm_core::prelude::*;
use cm_core::scheduler::build_scheduler;
use cm_netsim::channel::PathSpec;
use cm_netsim::cpu::CostModel;
use cm_transport::types::CcMode;
use cm_util::Summary;

use crate::builtin::{finish, Figure};
use crate::report::{DatFile, FigureDoc, OutputSet, Table};
use crate::scenarios::{
    blast, bulk_transfer, layered_stream, switched_lan, tcp_blast, web_sharing, BulkOutcome,
    BulkSpec,
};

/// The seed of every single-seed paper figure.
const SEED: u64 = 42;

/// One table of a paper figure: a label column and numeric columns, with
/// the prose that reads it.
struct Grid {
    /// Section heading and `.dat` block name.
    heading: &'static str,
    /// Column headers; the first names the label column.
    headers: &'static [&'static str],
    rows: Vec<(String, Vec<f64>)>,
    /// What the paper reports for this table, and how ours compares.
    note: String,
}

/// Emits a figure made of grids: one report section, one `.dat` block
/// and one CSV table per grid (CSV tables are headed `# <heading>` when
/// there are several).
fn emit(fig: &Figure, geometry: &str, grids: Vec<Grid>) -> OutputSet {
    let mut doc = FigureDoc::new(fig.title, fig.paper_ref, fig.description);
    doc.para(&format!(
        "*Generated by `cargo run --release -p cm-experiments --bin figures` ({geometry}). \
Deterministic: every run is a seeded simulation; rerunning reproduces this file \
byte for byte.*"
    ));
    let mut dat = DatFile::new(&format!(
        "{}: {}\nfirst column: the row label where it is a number, else the row index",
        fig.name, fig.title
    ));
    let mut csv = String::new();
    for g in &grids {
        let mut t = Table::new(g.headers);
        dat.block(g.heading, g.headers);
        for (i, (label, values)) in g.rows.iter().enumerate() {
            t.row_f64(label, values);
            let mut row = vec![label.parse().unwrap_or(i as f64)];
            row.extend(values);
            dat.row(&row);
        }
        if grids.len() > 1 {
            if !csv.is_empty() {
                csv.push('\n');
            }
            csv.push_str(&format!("# {}\n", g.heading));
        }
        csv.push_str(&t.to_csv());
        doc.section(g.heading).table(&t).para(&g.note);
    }
    finish(fig, csv, dat, doc)
}

fn kbs(o: &BulkOutcome) -> f64 {
    if o.completed {
        o.goodput_bps / 1000.0
    } else {
        f64::NAN
    }
}

// ---------------------------------------------------------------------
// Figure 3: throughput vs. loss
// ---------------------------------------------------------------------

pub(crate) const FIG3: Figure = Figure {
    name: "fig3",
    title: "Throughput vs. loss rate, TCP/CM and TCP/Linux",
    paper_ref: "Figure 3 (\u{a7}4.1): \"Comparing throughput vs. loss for TCP/CM and \
TCP/Linux. Rates are for a 10 Mbps link with a 60 ms RTT.\"",
    description: "One bulk transfer per point over a 10 Mbps, 60 ms path with \
Dummynet-style random drop on the data direction, 0-5 %, averaged over seeds. \
Both curves should fall steeply with loss and TCP/CM should track TCP/Linux, \
confirming that the CM's congestion control is TCP-compatible.",
    run: fig3,
};

fn fig3(fig: &Figure, smoke: bool) -> OutputSet {
    let (total, seeds) = if smoke { (500_000, 1) } else { (4_000_000, 3) };
    // Mean goodput over the seeds whose transfer completed.
    let point = |mode, loss| {
        let mut s = Summary::new();
        for seed in SEED..SEED + seeds {
            let o = bulk_transfer(&PathSpec::fig3(loss), BulkSpec::new(mode, total, seed));
            if o.completed {
                s.add(kbs(&o));
            }
        }
        s.mean()
    };
    let rows: Vec<_> = [0.0, 0.0025, 0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05]
        .into_iter()
        .map(|loss| {
            let pair = vec![point(CcMode::Cm, loss), point(CcMode::Native, loss)];
            (format!("{:.2}", loss * 100.0), pair)
        })
        .collect();
    let note = format!(
        "Paper: both ~450-480 KB/s near 0.5% falling to ~50 KB/s at 5%; curves track each \
other. Departure from the paper: at 0 % loss TCP/CM reaches {:.0} KB/s here against \
TCP/Linux's {:.0} KB/s, where the paper's curves coincide.",
        rows[0].1[0], rows[0].1[1]
    );
    emit(
        fig,
        &format!("{seeds} seeds x {total} bytes per point"),
        vec![Grid {
            heading: "Throughput vs. loss (10 Mbps, 60 ms RTT)",
            headers: &["loss %", "TCP/CM KB/s", "TCP/Linux KB/s"],
            rows,
            note,
        }],
    )
}

// ---------------------------------------------------------------------
// §4.1 microbenchmark: connection establishment
// ---------------------------------------------------------------------

pub(crate) const CONN_SETUP: Figure = Figure {
    name: "conn_setup",
    title: "TCP connection-establishment time, TCP/CM and TCP/Linux",
    paper_ref: "\u{a7}4.1 microbenchmark: \"there is no appreciable difference in \
connection setup times\"",
    description: "Handshake duration of 25 fresh connections per variant over the \
wide-area path (~70 ms RTT). CM state set-up is off the handshake path, so the two \
must agree.",
    run: conn_setup,
};

fn conn_setup(fig: &Figure, _smoke: bool) -> OutputSet {
    const N: u64 = 25;
    let handshakes = |mode| {
        let mut s = Summary::new();
        for seed in SEED..SEED + N {
            let o = bulk_transfer(
                &PathSpec::wide_area(),
                BulkSpec {
                    cost: CostModel::default(),
                    deadline: Time::from_secs(30),
                    ..BulkSpec::new(mode, 1, seed)
                },
            );
            if let Some(ct) = o.connect_time {
                s.add(ct.as_nanos() as f64 / 1e6);
            }
        }
        s
    };
    let (cm, linux) = (handshakes(CcMode::Cm), handshakes(CcMode::Native));
    let row = |s: &Summary| vec![s.mean(), s.min(), s.max(), s.count() as f64];
    emit(
        fig,
        &format!("{N} connections per variant"),
        vec![Grid {
            heading: "Connection-establishment time (wide-area path, ~70 ms RTT)",
            headers: &["variant", "mean ms", "min ms", "max ms", "n"],
            rows: vec![
                ("TCP/CM".into(), row(&cm)),
                ("TCP/Linux".into(), row(&linux)),
            ],
            note: format!(
                "Mean difference: {:.3} ms (paper: no appreciable difference).",
                (cm.mean() - linux.mean()).abs()
            ),
        }],
    )
}

// ---------------------------------------------------------------------
// Figures 4 and 5: LAN bulk transfers, throughput and CPU
// ---------------------------------------------------------------------

/// The ttcp runs Figures 4 and 5 both read: `(buffers, TCP/CM, TCP/Linux)`
/// per transfer length, in 8 KB ttcp buffers, on the switched LAN.
fn lan_bulk(smoke: bool) -> Vec<(u64, BulkOutcome, BulkOutcome)> {
    let counts: &[u64] = if smoke {
        &[300, 1_000]
    } else {
        &[1_000, 3_000, 10_000, 30_000, 100_000]
    };
    let run = |mode, buffers: u64| {
        bulk_transfer(
            &switched_lan(),
            BulkSpec {
                cost: CostModel::default(),
                deadline: Time::from_secs(3_000),
                ..BulkSpec::new(mode, buffers * 8 * 1024, SEED)
            },
        )
    };
    counts
        .iter()
        .map(|&n| (n, run(CcMode::Cm, n), run(CcMode::Native, n)))
        .collect()
}

const LAN_BULK_GEOMETRY: &str = "one ttcp-style transfer per cell, 8 KB buffers";

pub(crate) const FIG4: Figure = Figure {
    name: "fig4",
    title: "100 Mbps TCP throughput vs. transfer length",
    paper_ref: "Figure 4 (\u{a7}4.1): ttcp transfers of megabytes to gigabytes on the \
100 Mbps LAN; \"in a 1 gigabyte transfer, the congestion manager achieved identical \
performance (91.6 Mbps) as native Linux\"",
    description: "Bulk transfers of growing length on the loss-free switched LAN. \
In the paper the throughput of the CM diverges from Linux's only on shorter runs, \
and only by 0.5 % \u{2014} \"due to the CM using an initial window of 1 MTU and \
Linux using 2 MTU, not CPU overhead\". The x axis counts ttcp buffers transmitted.",
    run: fig4,
};

fn fig4(fig: &Figure, smoke: bool) -> OutputSet {
    let rows: Vec<_> = lan_bulk(smoke)
        .iter()
        .map(|(n, cm, linux)| {
            let (cm, linux) = (kbs(cm), kbs(linux));
            (n.to_string(), vec![cm, linux, (linux - cm) / linux * 100.0])
        })
        .collect();
    let note = format!(
        "Paper: ~11,400-11,480 KB/s for both; worst-case gap 0.5% (IW 1 vs 2), vanishing \
for long runs. Here the gap is {:.1}% at the longest run.",
        rows[rows.len() - 1].1[2]
    );
    emit(
        fig,
        LAN_BULK_GEOMETRY,
        vec![Grid {
            heading: "Throughput vs. buffers transmitted",
            headers: &["buffers", "TCP/CM KB/s", "TCP/Linux KB/s", "gap %"],
            rows,
            note,
        }],
    )
}

pub(crate) const FIG5: Figure = Figure {
    name: "fig5",
    title: "CPU utilization during bulk transfers, TCP/Linux vs. TCP/CM",
    paper_ref: "Figure 5 (\u{a7}4.1): \"the CPU difference between TCP/Linux and TCP/CM \
converges to slightly less than 1%\"",
    description: "Sender CPU utilization over the Figure 4 transfers, from the \
simulated host's cost model: the steady-state overhead the Congestion Manager \
imposes on a transmitting host. Utilization is busy time over elapsed time, so \
TCP/CM's slower transfer (Figure 4) reads as less CPU; busy \u{b5}s per KB sent \
compares the two at equal throughput.",
    run: fig5,
};

fn fig5(fig: &Figure, smoke: bool) -> OutputSet {
    let rows: Vec<_> = lan_bulk(smoke)
        .iter()
        .map(|(n, cm, linux)| {
            // Busy µs per KB sent: n ttcp buffers of 8 KB.
            let per_kb = |o: &BulkOutcome| {
                o.cpu_utilization * o.elapsed.as_secs_f64() * 1e6 / (n * 8) as f64
            };
            let (cm_kb, linux_kb) = (per_kb(cm), per_kb(linux));
            let (cm, linux) = (cm.cpu_utilization * 100.0, linux.cpu_utilization * 100.0);
            let equal_rate = linux * (cm_kb / linux_kb - 1.0);
            (
                n.to_string(),
                vec![cm, linux, cm - linux, cm_kb, linux_kb, equal_rate],
            )
        })
        .collect();
    let last = &rows[rows.len() - 1].1;
    let note = format!(
        "Paper: the TCP/CM - TCP/Linux difference converges to slightly under 1% for long \
transfers. Here it is {:.2} percentage points at the longest run at TCP/Linux's \
throughput (TCP/Linux's utilization times TCP/CM's extra cost per KB), and {:.2} per \
elapsed second, where TCP/CM's slower transfer spreads the same work over more time.",
        last[5], last[2]
    );
    emit(
        fig,
        LAN_BULK_GEOMETRY,
        vec![Grid {
            heading: "CPU utilization vs. buffers transmitted",
            headers: &[
                "buffers",
                "CM CPU %",
                "Linux CPU %",
                "diff %",
                "CM \u{b5}s/KB",
                "Linux \u{b5}s/KB",
                "equal-rate diff %",
            ],
            rows,
            note,
        }],
    )
}

// ---------------------------------------------------------------------
// Figure 6 and Table 1: API overhead
// ---------------------------------------------------------------------

pub(crate) const FIG6: Figure = Figure {
    name: "fig6",
    title: "API overhead: microseconds per packet vs. packet size",
    paper_ref: "Figure 6 (\u{a7}4.2): \"the wall-clock time required to send and process \
the acknowledgement for a packet\" on a loss-free 100 Mbps network",
    description: "Six senders over the switched LAN: ALF/noconnect, ALF, Buffered \
(CC-UDP), TCP/CM with delayed ACKs off, TCP/CM and TCP/Linux. The paper sends \
200,000 packets per point; the simulated pipeline is in steady state after far \
fewer. \"For 168 byte packets, ALF/noconnect results in a 25% reduction in \
throughput relative to TCP without delayed ACKs.\"",
    run: fig6,
};

fn fig6(fig: &Figure, smoke: bool) -> OutputSet {
    let packets: u64 = if smoke { 500 } else { 20_000 };
    let mut ratio_168 = f64::NAN;
    let rows: Vec<_> = [64u32, 168, 300, 500, 700, 900, 1_100, 1_400]
        .into_iter()
        .map(|size| {
            let udp = |api| blast(api, size, packets, SEED).us_per_packet;
            let tcp = |mode, delack| tcp_blast(mode, size as usize, packets, delack, SEED);
            let us = vec![
                udp(BlastApi::AlfNoconnect),
                udp(BlastApi::Alf),
                udp(BlastApi::Buffered),
                tcp(CcMode::Cm, false),
                tcp(CcMode::Cm, true),
                tcp(CcMode::Native, true),
            ];
            if size == 168 {
                ratio_168 = us[0] / us[3];
            }
            (size.to_string(), us)
        })
        .collect();
    let note = format!(
        "At 168 B ALF/noconnect costs {:.0}% more time per packet than TCP/CM-nodelay \
(paper: 25% throughput reduction). Paper shape: curves converge to the wire time at \
large sizes; API overheads dominate small sizes, ordered ALF/noconnect > ALF > \
Buffered > TCP/CM nodelay > TCP/CM ~ TCP/Linux.",
        (ratio_168 - 1.0) * 100.0
    );
    emit(
        fig,
        &format!("{packets} packets per cell"),
        vec![Grid {
            heading: "Microseconds per packet vs. packet size (100 Mbps LAN)",
            headers: &[
                "size B",
                "ALF/noconn",
                "ALF",
                "Buffered",
                "TCP/CM nodelay",
                "TCP/CM",
                "TCP/Linux",
            ],
            rows,
            note,
        }],
    )
}

pub(crate) const TABLE1: Figure = Figure {
    name: "table1",
    title: "Cumulative sources of overhead for the CM APIs",
    paper_ref: "Table 1 (\u{a7}4.2): ALF/noconnect = ALF + 1 cm_notify (ioctl); ALF = \
Buffered + 1 cm_request (ioctl) + 1 extra socket; Buffered = TCP/CM + 1 recv + \
2 gettimeofday",
    description: "An audit of the per-packet operation counts of the Figure 6 UDP \
senders (500-byte packets): each API must perform exactly the extra operations \
the paper attributes to it.",
    run: table1,
};

fn table1(fig: &Figure, _smoke: bool) -> OutputSet {
    const PACKETS: u64 = 2_000;
    let rows: Vec<_> = [
        ("Buffered", BlastApi::Buffered),
        ("ALF", BlastApi::Alf),
        ("ALF/noconnect", BlastApi::AlfNoconnect),
    ]
    .into_iter()
    .map(|(name, api)| {
        let ops = blast(api, 500, PACKETS, SEED).ops;
        let per_packet = [ops.syscalls, ops.ioctls, ops.selects, ops.gettimeofdays]
            .map(|n| n as f64 / PACKETS as f64);
        (name.to_string(), per_packet.to_vec())
    })
    .collect();
    let ioctls = |i: usize| rows[i].1[1];
    let note = format!(
        "Cumulative deltas against the paper's Table 1: Buffered = TCP/CM + 1 recv + \
2 gettimeofday (measured {:.2} gettimeofday/pkt); ALF = Buffered + 1 cm_request \
(ioctl) + the extra select socket (ioctls {:.2} vs {:.2}); ALF/noconnect = ALF + \
1 cm_notify (ioctl) (ioctls {:.2} vs {:.2}).",
        rows[0].1[3],
        ioctls(1),
        ioctls(0),
        ioctls(2),
        ioctls(1),
    );
    emit(
        fig,
        &format!("{PACKETS} packets per API"),
        vec![Grid {
            heading: "Per-packet operation counts by API",
            headers: &[
                "API",
                "syscalls/pkt",
                "ioctls/pkt",
                "selects/pkt",
                "gettimeofday/pkt",
            ],
            rows,
            note,
        }],
    )
}

// ---------------------------------------------------------------------
// Figure 7: sharing TCP state across sequential web requests
// ---------------------------------------------------------------------

pub(crate) const FIG7: Figure = Figure {
    name: "fig7",
    title: "Sharing TCP state across sequential web requests",
    paper_ref: "Figure 7 (\u{a7}4.3): \"The client requests the same file 9 times with a \
500 ms delay between request initiations\" (128 KB over the MIT-Utah vBNS path)",
    description: "\"By sharing congestion information and avoiding slow-start, the \
CM-enabled server is able to provide faster service for subsequent requests, \
despite a smaller initial congestion window.\" The second table reproduces the \
\u{a7}4.3 claim that other file sizes and delays behave alike as long as the \
transfers overlap the macroflow's memory.",
    run: fig7,
};

fn fig7(fig: &Figure, _smoke: bool) -> OutputSet {
    let latencies =
        |mode, gap_ms, kb| web_sharing(mode, 9, Duration::from_millis(gap_ms), kb * 1024, SEED);
    let cm = latencies(CcMode::Cm, 500, 128);
    let linux = latencies(CcMode::Native, 500, 128);
    let rows = (0..cm.len().max(linux.len()))
        .map(|i| {
            let at = |v: &[f64]| v.get(i).copied().unwrap_or(f64::NAN);
            ((i + 1).to_string(), vec![at(&cm), at(&linux)])
        })
        .collect();
    let last = cm.last().copied().unwrap_or(f64::NAN);
    let penalty = cm[0] - linux[0];
    let note = format!(
        "TCP/CM request {} is {:.0}% faster than request 1 (paper: ~40%); TCP/Linux \
requests stay flat (every connection slow-starts). Departure from the paper: the \
CM's first-transfer penalty (IW 1 vs 2) is {penalty:.0} ms here, where the paper \
reports about one RTT (~75 ms).",
        cm.len(),
        (cm[0] - last) / cm[0] * 100.0,
    );
    let mut sweep = Vec::new();
    for kb in [32u64, 64, 128, 256] {
        for gap_ms in [250u64, 500, 1000] {
            let lat = latencies(CcMode::Cm, gap_ms, kb);
            if let (Some(&first), Some(&ninth)) = (lat.first(), lat.get(8)) {
                let gain = (first - ninth) / first * 100.0;
                sweep.push((
                    format!("{kb} @ {gap_ms}"),
                    vec![gap_ms as f64, first, ninth, gain],
                ));
            }
        }
    }
    let weak: Vec<&str> = sweep
        .iter()
        .filter(|(_, v)| v[3] < 75.0)
        .map(|(cell, _)| cell.as_str())
        .collect();
    let sweep_note = format!(
        "Paper: benefits are comparatively greater for smaller files, and persist across \
delays as long as requests overlap the macroflow's lingering state. Here {} of {} \
cells gain more than 75 %{}.",
        sweep.len() - weak.len(),
        sweep.len(),
        if weak.is_empty() {
            String::new()
        } else {
            format!(
                "; the exceptions (file KB @ gap ms) are {}",
                weak.join(", ")
            )
        }
    );
    emit(
        fig,
        "9 requests per run",
        vec![
            Grid {
                heading: "9 sequential 128 KB requests, 500 ms apart (wide-area path)",
                headers: &["request #", "TCP/CM ms", "TCP/Linux ms"],
                rows,
                note,
            },
            Grid {
                heading: "TCP/CM benefit across file sizes and request gaps",
                headers: &["file KB", "gap ms", "CM 1st ms", "CM 9th ms", "gain %"],
                rows: sweep,
                note: sweep_note,
            },
        ],
    )
}

// ---------------------------------------------------------------------
// Figure 10: rate callbacks with delayed receiver feedback
// ---------------------------------------------------------------------

pub(crate) const FIG10: Figure = Figure {
    name: "fig10",
    title: "Rate callbacks with delayed receiver feedback",
    paper_ref: "Figure 10 (\u{a7}4.3): \"the feedback by the receiver was delayed by \
min(500 acks, 2000 ms)\"",
    description: "The rate-callback layered streamer on the wide-area dumbbell with \
square-wave cross traffic, its receiver batching acknowledgements. \"The initial \
slow start is delayed by 2 s waiting for the application, then the update causes \
a large rate change. Once the pipe is sufficiently full, 500 acks come relatively \
rapidly, and the normal, though bursty, non-timeout behavior resumes.\"",
    run: fig10,
};

fn fig10(fig: &Figure, _smoke: bool) -> OutputSet {
    const SECS: u64 = 70;
    let o = layered_stream(
        AdaptMode::RateCallback,
        SECS,
        FeedbackPolicy::Delayed {
            max_acks: 500,
            max_delay: Duration::from_millis(2_000),
        },
        SEED,
    );
    let rows = o
        .tx_rate
        .iter()
        .enumerate()
        .map(|(i, &(t, tx))| {
            let cm = o.cm_rate.get(i).map_or(f64::NAN, |&(_, v)| v);
            (format!("{t:.0}"), vec![tx, cm])
        })
        .collect();
    let changes: Vec<String> = o
        .layer_changes
        .iter()
        .map(|(t, layer)| format!("layer {layer} at {t:.2} s"))
        .collect();
    let note = format!(
        "Layer changes: {}. Delivered: {} KB. Paper shape: ~2 s of near-zero rate while \
the first feedback batch accumulates, then a large jump; afterwards the reported \
rate moves in bursts at each feedback batch.",
        changes.join(", "),
        o.delivered / 1000
    );
    emit(
        fig,
        &format!("{SECS} simulated seconds, 1 s bins"),
        vec![Grid {
            heading: "Transmission rate and CM-reported rate over time",
            headers: &["t (s)", "tx rate KB/s", "CM rate KB/s"],
            rows,
            note,
        }],
    )
}

// ---------------------------------------------------------------------
// Ablations of the CM's design choices
// ---------------------------------------------------------------------

pub(crate) const ABLATIONS: Figure = Figure {
    name: "ablations",
    title: "Ablations of the CM's design choices",
    paper_ref: "\u{a7}4-\u{a7}5 design discussion: byte counting, the 1-MTU initial window, \
the scheduler and controller modularity claims",
    description: "Four knobs, each isolated: byte counting vs. ACK counting (the \
controller accounting the paper adopts, also its ACK-division defense); initial \
window 1 vs. 2 MTU (the knob behind Figure 4's gap and Figure 7's first-transfer \
penalty); grant shares under the two scheduler disciplines; and the congestion \
controller swapped under real lossy transfers through the full \
host/transport/simulator stack.",
    run: ablations,
};

/// Window after each of 8 RTTs of full-window feedback in slow start.
/// ACK events assume delayed ACKs (one per two segments), which is where
/// byte and ACK counting diverge.
fn controller_growth(byte_counting: bool, initial_window_mtus: u32) -> Vec<f64> {
    let mut controller = build_controller(&CmConfig {
        controller: ControllerKind::Aimd { byte_counting },
        initial_window_mtus,
        ..Default::default()
    });
    let mut now = Time::ZERO;
    (0..8)
        .map(|_| {
            let w = controller.window();
            let acks = ((w / 1460) / 2).max(1) as u32;
            now += Duration::from_millis(50);
            controller.on_ack(w, acks, now);
            controller.window() as f64
        })
        .collect()
}

/// Grants two always-backlogged flows of weight 3 and 1 receive out of
/// 400 under `kind`.
fn scheduler_shares(kind: SchedulerKind) -> Vec<f64> {
    let mut s = build_scheduler(kind);
    s.add_flow(FlowId(1), 3);
    s.add_flow(FlowId(2), 1);
    for _ in 0..300 {
        s.enqueue(FlowId(1));
        s.enqueue(FlowId(2));
    }
    let mut grants = vec![0.0, 0.0];
    for _ in 0..400 {
        match s.dequeue() {
            Some(FlowId(id @ 1..=2)) => grants[id as usize - 1] += 1.0,
            _ => break,
        }
    }
    grants
}

fn ablations(fig: &Figure, _smoke: bool) -> OutputSet {
    let side_by_side = |a: &[f64], b: &[f64], n: usize| {
        (0..n)
            .map(|i| ((i + 1).to_string(), vec![a[i], b[i]]))
            .collect()
    };
    let (bytes, acks, iw2) = (
        controller_growth(true, 1),
        controller_growth(false, 1),
        controller_growth(true, 2),
    );

    let mut controllers = Vec::new();
    for kind in [
        ControllerKind::Aimd {
            byte_counting: true,
        },
        ControllerKind::RateBased,
        ControllerKind::DelayGradient,
    ] {
        for loss in [0.0, 0.01, 0.02] {
            let o = bulk_transfer(
                &PathSpec::fig3(loss),
                BulkSpec {
                    controller: kind,
                    ..BulkSpec::new(CcMode::Cm, 500 * 1460, SEED)
                },
            );
            controllers.push((
                format!("{} @{:.0}%", kind.label(), loss * 100.0),
                vec![loss * 100.0, kbs(&o), o.bytes_rtx as f64 / 1000.0],
            ));
        }
    }

    emit(
        fig,
        "direct controller and scheduler scripts plus nine 730 KB transfers",
        vec![
            Grid {
                heading: "Byte counting vs. ACK counting (delayed ACKs, slow start)",
                headers: &["RTT #", "byte-counting cwnd", "ACK-counting cwnd"],
                rows: side_by_side(&bytes, &acks, 8),
                note: "With delayed ACKs, ACK counting grows ~1.5x per RTT where byte \
counting doubles \u{2014} the divergence behind the paper's choice (and its \
ACK-division robustness, \u{a7}5)."
                    .into(),
            },
            Grid {
                heading: "Initial window 1 vs. 2 MTU (CM vs. Linux 2.2 default)",
                headers: &["RTT #", "IW=1 cwnd", "IW=2 cwnd"],
                rows: side_by_side(&bytes, &iw2, 4),
                note: "IW=2 stays exactly one doubling (one RTT) ahead: Figure 4's gap and \
Figure 7's first-transfer penalty in miniature."
                    .into(),
            },
            Grid {
                heading: "Grant shares over 400 grants, weights 3:1",
                headers: &["discipline", "flow A (w=3)", "flow B (w=1)"],
                rows: [SchedulerKind::RoundRobin, SchedulerKind::WeightedRoundRobin]
                    .into_iter()
                    .map(|kind| (format!("{kind:?}"), scheduler_shares(kind)))
                    .collect(),
                note: "Unweighted RR splits evenly regardless of weight (the paper's \
default); WRR honors the 3:1 request. Both run on one ring: RR is WRR with every \
weight held at 1."
                    .into(),
            },
            Grid {
                heading: "Congestion controller over the Figure 3 channel (full stack)",
                headers: &["controller", "loss %", "goodput KB/s", "rtx KB"],
                rows: controllers,
                note: "All controllers complete across the loss sweep; under loss the \
rate-based and delay-gradient schemes hold more goodput than window AIMD on this \
short transfer \u{2014} the \u{a7}5 modularity claim exercised end to end."
                    .into(),
            },
        ],
    )
}
