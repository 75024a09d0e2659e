//! Golden-file regression for controller decision sequences.
//!
//! Each shipped controller's full `(window, ssthresh)` decision stream
//! over the bundled feedback traces is frozen as one fingerprint line
//! per scenario in `tests/golden/<label>.golden`. The legacy kinds
//! (`aimd`, `aimd-acks`, `rate-based`) were frozen *before* the
//! delay-gradient controller landed, so these files prove the new
//! `on_rtt_sample` hook and the window cap left their
//! behaviour byte-identical; `delay-gradient` is pinned the same way so
//! future filter tweaks are deliberate, visible diffs.
//!
//! The trace driver never reports `LossMode::None` as a loss, never
//! idles and never resets, so each file ends with one more line: seeded
//! arbitrary-op streams (see [`arbitrary_ops_line`]) that reach every
//! entry point with every argument class.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cm-core --test controller_golden
//! ```

mod common;

use cm_core::config::{CmConfig, ControllerKind};
use cm_core::controller::{build_controller, DelaySignal};
use cm_core::types::LossMode;
use cm_util::{DetRng, Duration, Time};
use common::{all_kinds, golden_line, run_scenario, scenarios};

/// Seeds of the arbitrary-op streams, and ops per stream.
const OP_SEEDS: [u64; 3] = [1, 2, 3];
const OPS_PER_SEED: usize = 3_000;

fn golden_path(label: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{label}.golden"))
}

fn current_lines(kind: ControllerKind) -> String {
    let mut out = String::new();
    for scenario in &scenarios() {
        let run = run_scenario(kind, scenario);
        out.push_str(&golden_line(scenario, &run));
        out.push('\n');
    }
    out.push_str(&arbitrary_ops_line(kind));
    out.push('\n');
    out
}

/// Drives one controller per seed through `OPS_PER_SEED` ops drawn from
/// `controller_diff`'s alphabet — acks (zero included), all four
/// [`LossMode`]s, RTT samples of 0-400 ms, idle decay of 0-4 intervals —
/// plus an occasional `reset`, and fingerprints `(window, ssthresh,
/// signal, rate)` after every op. The rate is read at the last RTT
/// drawn (`None` before the first), so the zero-RTT arm is reached too.
fn arbitrary_ops_line(kind: ControllerKind) -> String {
    let cfg = CmConfig {
        controller: kind,
        ..Default::default()
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    let (mut wnd, mut ssthresh) = (0, 0);
    for seed in OP_SEEDS {
        let mut rng = DetRng::seed(seed).split("controller-golden-ops");
        let mut ctl = build_controller(&cfg);
        let mut now = Time::ZERO;
        let mut srtt: Option<Duration> = None;
        for _ in 0..OPS_PER_SEED {
            now += Duration::from_millis(rng.next_bounded(21));
            let mut signal = DelaySignal::None;
            match rng.next_bounded(100) {
                0..=39 => {
                    let bytes = match rng.next_bounded(8) {
                        0 => 0,
                        1 => rng.next_bounded(10_000_001),
                        _ => rng.next_bounded(20_000),
                    };
                    let acks = rng.next_bounded(21) as u32;
                    ctl.on_ack(bytes, acks, now);
                }
                40..=59 => {
                    let mode = [
                        LossMode::None,
                        LossMode::Transient,
                        LossMode::Persistent,
                        LossMode::Ecn,
                    ][rng.next_bounded(4) as usize];
                    ctl.on_loss(mode, now);
                }
                60..=89 => {
                    let rtt = Duration::from_millis(rng.next_bounded(401));
                    srtt = Some(rtt);
                    signal = ctl.on_rtt_sample(rtt, now);
                }
                90..=98 => ctl.decay_idle(rng.next_bounded(5) as u32),
                _ => ctl.reset(&cfg),
            }
            (wnd, ssthresh) = (ctl.window(), ctl.ssthresh());
            eat(wnd);
            eat(ssthresh);
            eat(signal as u64);
            eat(ctl.rate(srtt).as_bps());
        }
    }
    format!(
        "arbitrary_ops seeds={} ops={OPS_PER_SEED} fnv={h:016x} final={wnd}/{ssthresh}",
        OP_SEEDS.len()
    )
}

#[test]
fn decision_sequences_match_golden_files() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    for &kind in &all_kinds() {
        let label = kind.label();
        let path = golden_path(label);
        let current = current_lines(kind);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &current).unwrap();
            continue;
        }
        let frozen = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with UPDATE_GOLDENS=1",
                path.display()
            )
        });
        assert_eq!(
            frozen,
            current,
            "{label}: decision sequence diverged from the frozen golden file \
             {}; if the change is intentional, regenerate with UPDATE_GOLDENS=1",
            path.display()
        );
    }
}
