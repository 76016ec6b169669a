//! Verifier-quorum and spot-check-sampling benchmark.
//!
//! Three questions, one fixed fleet:
//!
//! 1. **What does replication cost?** The same fleet is run under
//!    N ∈ {1, 3, 5, 7} verifier replicas (full coverage). Every verdict
//!    crosses the vote codec N times, so rounds/sec decays mildly with
//!    N — and because an honest unanimous quorum appends nothing, every
//!    N must leave byte-identical evidence heads (asserted).
//! 2. **What does sampling buy?** The same fleet covers the same
//!    virtual horizon at 100% coverage and at `--coverage` (default
//!    25%). A `Trusted` device outside the epoch plan sleeps instead of
//!    replaying a checksum, so the wall-clock cost of holding the fleet
//!    drops roughly in proportion; the gate requires ≥ 3× at 25%.
//! 3. **What does sampling give up?** One planted cheater (§8 replay
//!    tap) under sampled coverage: detection is *delayed* to its first
//!    covered epoch — bounded by the closed-form
//!    `epochs_to_detect(c, 98%)` model — but never lost. The run
//!    asserts zero false accepts, gated or not.
//!
//! Reported to `BENCH_quorum.json`: rounds/sec per quorum size, the
//! full-vs-sampled walls and speedup, the detection-model numbers, and
//! the shared `host` stanza. `--gate` turns the speedup floor and the
//! zero-false-accept check into a CI assertion.
//!
//! Usage:
//!   quorumperf [--devices N] [--horizon TICKS] [--seed N]
//!              [--coverage PER_MILLE] [--reps N] [--gate] [--out PATH]

use std::time::Instant;

use sage::multi::FleetMember;
use sage_attacks::forge::ReplayTap;
use sage_bench::UsageError;
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::DeviceConfig;
use sage_service::{
    covers, detect_probability_per_mille, epochs_to_detect, AttestationService, DeviceState,
    EventKind, LinkProfile, QuorumConfig, SamplingConfig, ServiceConfig, SimNet,
};
use sage_sgx_sim::SgxPlatform;

/// Virtual ticks per sampling epoch.
const EPOCH: u64 = 60_000;
/// The fleet settles (enroll + first rounds) before the timed window.
const SETTLE: u64 = 45_000;

struct RunStats {
    /// Wall seconds over the steady-state window (settle → horizon).
    wall: f64,
    /// Checksum rounds passed fleet-wide.
    rounds: u64,
    /// Epochs the sampler skipped fleet-wide.
    skips: u64,
    /// Per-device evidence heads at the horizon, in name order.
    heads: Vec<(String, [u8; 32])>,
    /// Netperf-style false-accept count for the planted cheater.
    false_accepts: u64,
    /// Epochs from compromise to the first failed round, if a cheater
    /// was planted and caught.
    detected_after_epochs: Option<u64>,
}

fn run_fleet(
    devices: usize,
    verifiers: u16,
    coverage_per_mille: u32,
    horizon: u64,
    seed: u64,
    plant_cheater: bool,
) -> RunStats {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let cfg = ServiceConfig {
        // A dense round cadence: the checksum replays must dominate the
        // per-tick service overhead (which sampling cannot save), or the
        // sampled arm understates what the skipped epochs buy.
        reattest_interval: 5_000,
        epoch_interval: EPOCH,
        quorum: QuorumConfig {
            verifiers,
            seed: 0x51D,
        },
        sampling: SamplingConfig {
            coverage_per_mille,
            seed: 0xC0FFEE,
        },
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let platform = SgxPlatform::new([7u8; 16]);
    for i in 0..devices {
        let enclave_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        let agent_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(3) | 1;
        let enclave = platform.launch(b"quorum-verifier", &mut test_entropy(enclave_seed));
        let member = FleetMember::tiny(format!("gpu-{i:02}"), DeviceConfig::sim_tiny(), agent_seed);
        svc.join(member, enclave);
    }
    svc.run_until(SETTLE);

    let cheater = format!("gpu-{:02}", devices - 1);
    let mut banked = 0u64;
    if plant_cheater {
        let session = svc.session_mut(&cheater).expect("cheater is managed");
        let result_addr = session.build().layout.result_addr();
        session
            .dev
            .install_bus_tap(Box::new(ReplayTap::new(result_addr)));
        banked = svc
            .statuses()
            .iter()
            .find(|s| s.name == cheater)
            .map(|s| s.rounds_passed)
            .unwrap_or(0);
    }

    let t = Instant::now();
    svc.run_until(horizon);
    let wall = t.elapsed().as_secs_f64();

    let mut heads = Vec::new();
    for s in svc.statuses() {
        heads.push((
            s.name.clone(),
            svc.evidence_of(&s.name).expect("chain").head(),
        ));
    }
    heads.sort();

    let mut false_accepts = 0u64;
    let mut detected_after_epochs = None;
    if plant_cheater {
        let status = svc
            .statuses()
            .into_iter()
            .find(|s| s.name == cheater)
            .expect("cheater status");
        // Past one in-flight honest round plus the tap's recording
        // round, any pass is a false accept — as is any terminal state
        // other than Quarantined.
        false_accepts += status.rounds_passed.saturating_sub(banked + 2);
        if status.state != DeviceState::Quarantined {
            false_accepts += 1;
        }
        detected_after_epochs = svc
            .log()
            .events()
            .iter()
            .find(|e| {
                e.device == cheater
                    && e.at > SETTLE
                    && matches!(e.kind, EventKind::RoundFailed { .. })
            })
            .map(|e| e.at / EPOCH - SETTLE / EPOCH);
    } else {
        for s in svc.statuses() {
            if s.state != DeviceState::Trusted {
                false_accepts += 1; // honest fleet must hold Trusted
            }
        }
    }

    let counters = svc.log().counters();
    RunStats {
        wall,
        rounds: counters.rounds_passed,
        skips: counters.spotcheck_skips,
        heads,
        false_accepts,
        detected_after_epochs,
    }
}

/// Re-runs one deterministic fleet configuration `reps` times and keeps
/// the minimum wall (every other field is seed-determined and identical
/// across reps). Min-of-reps is the standard noise floor for walls this
/// short.
fn best_of(reps: u32, mut f: impl FnMut() -> RunStats) -> RunStats {
    let mut best: Option<RunStats> = None;
    for _ in 0..reps {
        let r = f();
        best = Some(match best {
            None => r,
            Some(b) => {
                assert_eq!(b.rounds, r.rounds, "reps of a seeded run must agree");
                if r.wall < b.wall {
                    r
                } else {
                    b
                }
            }
        });
    }
    best.expect("reps >= 1")
}

fn main() {
    let mut devices = 24usize;
    let mut horizon = 1_200_000u64;
    let mut seed = 7u64;
    let mut coverage = 250u32;
    let mut reps = 5u32;
    let mut gate = false;
    let mut out_path = String::from("BENCH_quorum.json");
    sage_bench::parse_args(
        "quorumperf [--devices N] [--horizon TICKS] [--seed N] [--coverage PER_MILLE] [--reps N] [--gate] [--out PATH]",
        |flag, a| {
            match flag {
                "--devices" => devices = a.value(flag)?,
                "--horizon" => horizon = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--coverage" => coverage = a.value(flag)?,
                "--reps" => reps = a.value(flag)?,
                "--gate" => gate = true,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(reps >= 1, "--reps must be at least 1");
    assert!(devices >= 2, "need a fleet plus one cheater slot");
    assert!((1..1000).contains(&coverage), "coverage in 1..=999");
    assert!(horizon > SETTLE + 2 * EPOCH, "horizon too short to settle");

    eprintln!(
        "quorumperf: {devices} devices, horizon {horizon}, coverage {coverage}/1000, seed {seed}"
    );

    // Warm caches and the allocator before any timed run, so the first
    // timed arm is not systematically the slowest.
    let _ = run_fleet(devices, 1, 1000, SETTLE + 2 * EPOCH, seed, false);

    // Arm 1: rounds/sec vs quorum size, full coverage. Heads must agree
    // across every N (honest-unanimous byte-identity).
    let quorum_sizes = [1u16, 3, 5, 7];
    let mut quorum_runs = Vec::new();
    for n in quorum_sizes {
        let r = best_of(reps, || run_fleet(devices, n, 1000, horizon, seed, false));
        eprintln!(
            "  N={n}: {} rounds in {:.3}s ({:.1}/s)",
            r.rounds,
            r.wall,
            r.rounds as f64 / r.wall.max(1e-9)
        );
        quorum_runs.push((n, r));
    }
    let base_heads = &quorum_runs[0].1.heads;
    let heads_identical = quorum_runs.iter().all(|(_, r)| &r.heads == base_heads);
    assert!(
        heads_identical,
        "honest-unanimous quorum changed the evidence history"
    );
    let honest_false_accepts: u64 = quorum_runs.iter().map(|(_, r)| r.false_accepts).sum();

    // Arm 2: sampling cost vs full-coverage cost over the same horizon.
    // Each rep times a (full, sampled) pair back to back and the gate
    // uses the median pairwise ratio: common-mode machine slowdowns hit
    // both halves of a pair and cancel, and the median sheds the
    // remaining outliers.
    let full = &quorum_runs[0].1;
    let mut sampled: Option<RunStats> = None;
    let mut ratios = Vec::new();
    for _ in 0..reps {
        let f = run_fleet(devices, 1, 1000, horizon, seed, false);
        let s = run_fleet(devices, 1, coverage, horizon, seed, false);
        assert_eq!(f.rounds, full.rounds, "reps of a seeded run must agree");
        ratios.push(f.wall / s.wall.max(1e-9));
        sampled = Some(match sampled {
            None => s,
            Some(b) => {
                if s.wall < b.wall {
                    s
                } else {
                    b
                }
            }
        });
    }
    let sampled = sampled.expect("reps >= 1");
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    eprintln!(
        "  sampling {coverage}/1000: {} rounds ({} skips) in {:.3}s vs full {:.3}s — {speedup:.2}x (median of {reps} pairs)",
        sampled.rounds, sampled.skips, sampled.wall, full.wall
    );

    // Arm 3: the planted cheater under sampled coverage. The model's
    // `k` is a 98%-confidence bound over random device/seed draws; for
    // THIS device under THIS plan the first covered epoch after the
    // compromise is deterministic, so that is the exact bound asserted
    // (+1 epoch of round-cadence slack).
    let k = epochs_to_detect(coverage, 980);
    let p_k = detect_probability_per_mille(coverage, k);
    let plan = SamplingConfig {
        coverage_per_mille: coverage,
        seed: 0xC0FFEE,
    };
    let cheater = format!("gpu-{:02}", devices - 1);
    let compromise_epoch = SETTLE / EPOCH;
    let first_covered = (compromise_epoch + 1..)
        .find(|e| covers(&plan, *e, &cheater))
        .expect("coverage > 0 covers every device eventually")
        - compromise_epoch;
    // This arm's horizon must reach the (deterministic) detection
    // epoch plus quarantine margin, whatever --horizon was — its wall
    // is not part of the speedup measurement.
    let cheat_horizon = horizon.max(SETTLE + (compromise_epoch + first_covered + 3) * EPOCH);
    let attacked = run_fleet(devices, 1, coverage, cheat_horizon, seed, true);
    let detected = attacked
        .detected_after_epochs
        .expect("cheater must be detected within the horizon");
    eprintln!(
        "  cheater detected after {detected} epochs (first covered epoch: {first_covered}; model: ≤{k} epochs at {p_k}/1000 over random draws)"
    );
    assert!(
        detected <= first_covered + 1,
        "detection took {detected} epochs but the plan covers the cheater at epoch +{first_covered}"
    );

    let false_accepts = honest_false_accepts + sampled.false_accepts + attacked.false_accepts;
    assert_eq!(false_accepts, 0, "FALSE ACCEPT in a quorumperf arm");

    const MIN_SPEEDUP: f64 = 3.0;
    let speedup_pass = speedup >= MIN_SPEEDUP;
    let pass = speedup_pass && false_accepts == 0 && heads_identical;

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"devices\": {devices},\n  \"horizon_ticks\": {horizon},\n  \"seed\": {seed},\n"
    ));
    out.push_str("  \"quorum\": [\n");
    for (i, (n, r)) in quorum_runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"verifiers\": {n}, \"rounds\": {}, \"wall_seconds\": {:.6}, \"rounds_per_sec\": {:.1}}}{}\n",
            r.rounds,
            r.wall,
            r.rounds as f64 / r.wall.max(1e-9),
            if i + 1 < quorum_runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"heads_identical_across_quorum_sizes\": {heads_identical},\n"
    ));
    out.push_str(&format!(
        "  \"sampling\": {{\"coverage_per_mille\": {coverage}, \"full_wall_seconds\": {:.6}, \"sampled_wall_seconds\": {:.6}, \"full_rounds\": {}, \"sampled_rounds\": {}, \"sampled_skips\": {}, \"speedup\": {speedup:.2}}},\n",
        full.wall, sampled.wall, full.rounds, sampled.rounds, sampled.skips
    ));
    out.push_str(&format!(
        "  \"detection\": {{\"coverage_per_mille\": {coverage}, \"model_k_epochs\": {k}, \"model_p_detect_per_mille\": {p_k}, \"first_covered_epoch_offset\": {first_covered}, \"cheater_detected_after_epochs\": {detected}}},\n"
    ));
    out.push_str(&format!("  \"false_accepts\": {false_accepts},\n"));
    out.push_str(&format!(
        "  \"gate\": {{\"min_speedup\": {MIN_SPEEDUP:.1}, \"speedup_pass\": {speedup_pass}, \"pass\": {pass}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(&out_path, out).expect("write BENCH_quorum.json");

    println!(
        "quorum N=1..7 rounds/s: {}; sampling speedup {speedup:.2}x (floor {MIN_SPEEDUP:.1}); cheater caught at its first covered epoch ({detected} epochs, model k={k}); 0 false accepts",
        quorum_runs
            .iter()
            .map(|(n, r)| format!("{n}:{:.0}", r.rounds as f64 / r.wall.max(1e-9)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("wrote {out_path}");
    if gate && !pass {
        eprintln!("QUORUM GATE FAILED: speedup {speedup:.2} (floor {MIN_SPEEDUP:.1}), false_accepts {false_accepts}, heads_identical {heads_identical}");
        std::process::exit(1);
    }
}
