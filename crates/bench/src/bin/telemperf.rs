//! Telemetry overhead harness: the observability acceptance gate.
//!
//! Measures the cost the telemetry layer adds to the verifier's
//! *bank-hit fast path* — the latency-critical online round
//! (`prepare_round` take + `check_response_precomputed` verdict) that
//! PR 3 carved out — by timing the identical round loop on two
//! verifiers over the same VF build:
//!
//! * **baseline**: no registry attached — the telemetry feature as
//!   every pre-existing caller sees it (a `None` check per verdict);
//! * **instrumented**: attached to a live [`Registry`], so every round
//!   bumps the accept counter, records the measured-cycles histogram
//!   and counts the bank hit.
//!
//! Each repetition prefills the bank off the clock (exactly as
//! background workers do in production), then times `--rounds`
//! hit-take-verdict rounds; arms alternate order between repetitions
//! and each arm keeps its *minimum* wall time, so scheduler noise
//! inflates neither side. The gate asserts the instrumented/baseline
//! ratio stays under `--max-ratio` (default 1.03 — the <3% overhead
//! budget DESIGN.md §8 promises; CI smoke passes 1.10 to absorb shared
//! hardware).
//!
//! The measured VF uses a production-shaped grid (`--blocks`, default
//! 192 — the SIM-LARGE occupancy class `fastpath.rs` benches at):
//! the hit path's real work (challenge-vector handoff plus the
//! integrity-tag walk over `16 x blocks` bytes) scales with the grid,
//! while telemetry's cost is a fixed handful of relaxed atomics per
//! verdict, so a toy 2-block grid would overstate the relative
//! overhead ~5x against a denominator no deployment runs.
//!
//! Telemetry's own books are audited against the harness: the
//! instrumented registry must show exactly `reps x rounds` accepts and
//! bank hits, and the exported registry is embedded in
//! `BENCH_telemetry.json` as the proof artifact.
//!
//! Usage:
//!   telemperf [--rounds N] [--reps N] [--blocks N] [--iterations N]
//!             [--seed N] [--max-ratio R] [--no-gate] [--out PATH]

use std::time::Instant;

use sage::{Calibration, Verifier};
use sage_bench::UsageError;
use sage_crypto::{test_entropy, DhGroup};
use sage_sgx_sim::SgxPlatform;
use sage_telemetry::Registry;
use sage_vf::{build_vf, codegen::VfBuild, BankConfig, VfParams};

/// A fast-path verifier over `build`: synthetic calibration (the
/// timing verdict itself runs on both arms equally) and a
/// zero-worker bank sized to hold one full repetition.
fn fastpath_verifier(build: &VfBuild, rounds: usize, seed: u64) -> Verifier {
    let platform = SgxPlatform::new([7u8; 16]);
    let enclave = platform.launch(b"telemperf-verifier", &mut test_entropy(seed as u8 | 1));
    let mut v = Verifier::new(enclave, build.clone(), DhGroup::test_group());
    v.set_calibration(Calibration::from_samples(&[1_000]));
    v.enable_fast_path(BankConfig {
        capacity: rounds,
        workers: 0,
    });
    v
}

/// One timed repetition: prefill off the clock, then time `rounds`
/// bank-hit rounds end to end (take + value verdict + timing verdict).
fn timed_rounds(v: &mut Verifier, rounds: usize) -> f64 {
    v.prefill_rounds(rounds);
    let t = Instant::now();
    for _ in 0..rounds {
        let (_ch, expected) = v.prepare_round();
        let expected = expected.expect("bank stocked for every timed round");
        v.check_response_precomputed(expected, expected, 1)
            .expect("honest round accepted");
    }
    t.elapsed().as_secs_f64()
}

fn main() {
    let mut rounds = 128usize;
    let mut reps = 21usize;
    let mut blocks = 192u32;
    let mut iterations = 2u32;
    let mut seed = 7u64;
    let mut max_ratio = 1.03f64;
    let mut gate = true;
    let mut out_path = String::from("BENCH_telemetry.json");
    sage_bench::parse_args(
        "telemperf [--rounds N] [--reps N] [--blocks N] [--iterations N] [--seed N] [--max-ratio R] [--no-gate] [--out PATH]",
        |flag, a| {
            match flag {
                "--rounds" => rounds = a.value(flag)?,
                "--reps" => reps = a.value(flag)?,
                "--blocks" => blocks = a.value(flag)?,
                "--iterations" => iterations = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--max-ratio" => max_ratio = a.value(flag)?,
                "--no-gate" => gate = false,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(rounds >= 16 && reps >= 2 && max_ratio > 1.0);

    let mut params = VfParams::test_tiny();
    params.grid_blocks = blocks;
    params.iterations = iterations;
    let build = build_vf(&params, 0x1000, seed as u32).expect("build VF");
    eprintln!(
        "telemperf: {reps} reps x {rounds} bank-hit rounds, VF {} blocks x {} iterations",
        params.grid_blocks, params.iterations
    );

    // Every repetition builds a *fresh* verifier pair and alternates
    // which arm runs first; each arm keeps its minimum across reps.
    // Interleaving defeats one-sided drift (warmup, frequency scaling,
    // a noisy neighbour mid-run); fresh pairs defeat per-object
    // allocation-layout luck, which at this granularity dwarfs the
    // effect being measured and would otherwise pin one arm to a lucky
    // or unlucky heap placement for the whole run. All instrumented
    // verifiers attach to one registry, so its books still total every
    // instrumented round.
    let reg = Registry::new();
    let (mut base_min, mut instr_min) = (f64::INFINITY, f64::INFINITY);
    let mut hits = 0u64;
    for rep in 0..reps {
        let pair_seed = seed.wrapping_add(rep as u64 * 2);
        let mut baseline = fastpath_verifier(&build, rounds, pair_seed);
        let mut instrumented = fastpath_verifier(&build, rounds, pair_seed.wrapping_add(1));
        instrumented.attach_telemetry(&reg, &[("device", "bench")]);
        if rep % 2 == 0 {
            base_min = base_min.min(timed_rounds(&mut baseline, rounds));
            instr_min = instr_min.min(timed_rounds(&mut instrumented, rounds));
        } else {
            instr_min = instr_min.min(timed_rounds(&mut instrumented, rounds));
            base_min = base_min.min(timed_rounds(&mut baseline, rounds));
        }
        hits += instrumented.bank_counters().expect("fast path on").hits;
    }

    // Telemetry's books must match the harness's: the verdict counters
    // are get-or-create series shared by every instrumented verifier,
    // so the registry totals all instrumented rounds. (Bank counters
    // are *registered* instruments — each pair's bank replaces the last
    // one's series — so hits are totalled verifier-side above.)
    let total = (reps * rounds) as u64;
    let accepts = sage_bench::counter_total(&reg, "verifier_accepts_total");
    assert_eq!(accepts, total, "registry accepts diverged from harness");
    assert_eq!(hits, total, "bank hits diverged from harness rounds");
    assert_eq!(sage_bench::counter_total(&reg, "verifier_rejects_total"), 0);

    let base_ns = base_min / rounds as f64 * 1e9;
    let instr_ns = instr_min / rounds as f64 * 1e9;
    let ratio = instr_min / base_min.max(1e-12);
    eprintln!(
        "fast path: baseline {base_ns:.0} ns/round vs instrumented {instr_ns:.0} ns/round  ({ratio:.4}x)"
    );

    if gate {
        assert!(
            ratio <= max_ratio,
            "telemetry overhead {ratio:.4}x exceeds the {max_ratio:.2}x budget \
             ({base_ns:.0} -> {instr_ns:.0} ns/round)"
        );
    }

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"seed\": {seed},\n  \"rounds_per_rep\": {rounds},\n  \"reps\": {reps},\n  \"vf_blocks\": {blocks},\n  \"vf_iterations\": {iterations},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_ns_per_round\": {base_ns:.1},\n  \"instrumented_ns_per_round\": {instr_ns:.1},\n"
    ));
    out.push_str(&format!(
        "  \"overhead_ratio\": {ratio:.4},\n  \"max_ratio\": {max_ratio:.2},\n  \"gate_active\": {gate},\n"
    ));
    out.push_str(&format!(
        "  \"accepts_counted\": {accepts},\n  \"bank_hits_counted\": {hits},\n"
    ));
    out.push_str("  \"registry\": ");
    out.push_str(reg.to_json().trim_end());
    out.push_str("\n}\n");
    std::fs::write(&out_path, out).expect("write BENCH_telemetry.json");

    println!("telemetry overhead on the bank-hit fast path: {ratio:.4}x (budget {max_ratio:.2}x)");
    println!("wrote {out_path}");
}
