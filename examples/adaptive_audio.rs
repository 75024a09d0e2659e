//! The adaptive `vat` interactive-audio pipeline (paper §3.6, Figure 2):
//! a 64 Kbit/s source policed down to what the CM says the path carries,
//! comparing drop-from-head against drop-tail application buffering.
//!
//! Run with: `cargo run --release --example adaptive_audio`

use congestion_manager::apps::ack_clients::{AckReceiver, FeedbackPolicy};
use congestion_manager::apps::vat::{DropPolicy, VatAudio};
use congestion_manager::netsim::channel::PathSpec;
use congestion_manager::netsim::topology::Topology;
use congestion_manager::transport::host::{Host, HostConfig};
use congestion_manager::util::{Duration, Rate, Time};

fn run(policy: DropPolicy, link_kbps: u64) {
    let stop = Time::from_secs(30);
    let mut topo = Topology::new(7);
    let mut rx_host = Host::new(HostConfig::default());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(5003, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(HostConfig::default());
    let tx_app = tx_host.add_app(Box::new(VatAudio::new(rx_addr, 5003, policy, stop)));
    let tx_id = topo.add_host(Box::new(tx_host));

    // A narrow path with a short queue: interactive audio cannot hide
    // behind deep buffers.
    let path =
        PathSpec::new(Rate::from_kbps(link_kbps), Duration::from_millis(50)).with_queue_limit(8);
    topo.emulated_path(tx_id, rx_id, &path);
    let mut sim = topo.build();
    sim.run_until(stop + Duration::from_secs(2));

    let vat = sim.node_ref::<Host>(tx_id).app_ref::<VatAudio>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
    println!(
        "{policy:?} on {link_kbps:3} Kbps: generated {:4}, policer dropped {:4}, buffer dropped {:3}, \
         delivered {:4} frames; mean app-queue age {:5.1} ms",
        vat.frames_generated,
        vat.policer_drops,
        vat.buffer_drops,
        rx.packets,
        vat.mean_send_age_ms(),
    );
}

fn main() {
    println!("vat: 64 Kbit/s source, 20 ms frames, CM-driven policer (paper Figure 2).\n");
    for link in [128, 64, 32] {
        run(DropPolicy::Head, link);
    }
    println!();
    for link in [128, 64, 32] {
        run(DropPolicy::Tail, link);
    }
    println!("\nThe policer sheds load *before* buffering, so even at half the source rate the");
    println!(
        "frames that do go out stay fresh (low queue age) — the paper's drop-from-head design."
    );
}
