//! Attestation-service throughput harness.
//!
//! Drives a fleet of honest simulated devices through the full control
//! plane — framed wire codec, simulated network, per-device lifecycle
//! state machine — until every device has passed a target number of
//! re-attestation rounds, and reports:
//!
//! * wall-clock rounds/second (the service's steady-state attestation
//!   throughput, the figure a fleet operator sizes the verifier host by),
//! * enrollment throughput (devices/second through calibrate + SAKE —
//!   with bank warm-up priced separately: each join stocks its bank
//!   through the shared replay pool as one flat `(round, block)` job
//!   list, and that pooled-precompute wall is reported as its own
//!   `prefill_wall_seconds` metric instead of being buried in the
//!   enroll figure),
//! * the round-latency distribution in virtual ticks — p50/p90/p99 over
//!   every passed round, from the event log's started→passed deltas
//!   (deterministic for a fixed seed),
//! * virtual ticks consumed and virtual-ticks-per-round,
//! * the service's own snapshot: per-device final state and the full
//!   event-counter block.
//!
//! Everything is seeded, so a fixed `--seed` reproduces the identical
//! fleet history (same round outcomes, same counters); only the
//! wall-clock figures vary between machines. Results go to
//! `BENCH_svc.json` for CI trend tracking.
//!
//! Usage:
//!   svcperf [--devices N] [--rounds N] [--seed N] [--out PATH]

use std::time::Instant;

use sage::multi::FleetMember;
use sage_bench::UsageError;
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::DeviceConfig;
use sage_service::{
    AttestationService, DeviceState, LinkProfile, ServiceConfig, SimNet, SplitMix64, TimerWheel,
};
use sage_sgx_sim::SgxPlatform;
use sage_telemetry::Registry;

/// Micro-arm: the cost of popping the earliest of ~1k queued timers,
/// timer wheel against the linear scan-for-min it replaced (the old
/// transport walked every in-flight frame once to find the next due
/// tick and once more to deliver it). Steady state: each iteration
/// pops the earliest batch and re-inserts one entry per popped entry
/// at a pseudo-random future offset, so queue depth holds at `queued`.
/// Both arms consume the identical offset stream, pop in the identical
/// order, and return average nanoseconds per popped entry.
fn timer_micro_ns(queued: usize, ops: usize) -> (f64, f64, usize) {
    let mut rng = SplitMix64::new(0x7133_D0C5);
    let offsets: Vec<u64> = (0..queued + ops + 64)
        .map(|_| 1 + rng.below(2_048))
        .collect();

    // Wheel arm.
    let mut wheel = TimerWheel::new();
    let mut feed = offsets.iter().copied();
    for _ in 0..queued {
        wheel.insert(feed.next().expect("offset stream"), 0u32);
    }
    let mut out: Vec<(u64, u32)> = Vec::new();
    let mut wheel_pops = 0usize;
    let t = Instant::now();
    while wheel_pops < ops {
        let due = wheel.next_due().expect("queue never drains");
        out.clear();
        wheel.pop_due(due, &mut out);
        wheel_pops += out.len();
        for _ in 0..out.len() {
            wheel.insert(due + feed.next().unwrap_or(97), 0u32);
        }
    }
    let wheel_ns = t.elapsed().as_nanos() as f64 / wheel_pops as f64;

    // Linear arm: one scan to find the earliest due, one pass to pull
    // every entry at it — the shape of the replaced implementation.
    let mut lin: Vec<u64> = Vec::with_capacity(queued + 1);
    let mut feed = offsets.iter().copied();
    for _ in 0..queued {
        lin.push(feed.next().expect("offset stream"));
    }
    let mut lin_pops = 0usize;
    let t = Instant::now();
    while lin_pops < ops {
        let due = *lin.iter().min().expect("queue never drains");
        let before = lin.len();
        lin.retain(|&d| d != due);
        let popped = before - lin.len();
        lin_pops += popped;
        for _ in 0..popped {
            lin.push(due + feed.next().unwrap_or(97));
        }
    }
    let linear_ns = t.elapsed().as_nanos() as f64 / lin_pops as f64;
    assert_eq!(
        wheel_pops, lin_pops,
        "arms diverged: identical streams must pop identical counts"
    );
    (wheel_ns, linear_ns, wheel_pops)
}

fn main() {
    let mut devices = 4usize;
    let mut rounds = 10u64;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_svc.json");
    sage_bench::parse_args(
        "svcperf [--devices N] [--rounds N] [--seed N] [--out PATH]",
        |flag, a| {
            match flag {
                "--devices" => devices = a.value(flag)?,
                "--rounds" => rounds = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(
        devices > 0 && rounds > 0,
        "need at least one device and round"
    );

    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let mut cfg = ServiceConfig::default();
    // No background refill thread racing the timed regions: the bank is
    // stocked up front by the pooled prefill (calibration + the first
    // steady rounds draw precomputed pairs), and refills after that
    // happen synchronously on take, inside the steady-state figure
    // where they belong.
    cfg.bank_workers = 0;
    cfg.bank_capacity = cfg.calibration_runs + 2;
    cfg.prefill_rounds = cfg.bank_capacity;
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    // Attached before any join, so every device's verifier, bank and
    // simulator series cover the whole run.
    let reg = Registry::new();
    svc.attach_telemetry(&reg);

    eprintln!("svcperf: {devices} devices x {rounds} rounds, seed {seed}");
    let platform = SgxPlatform::new([7u8; 16]);
    let t0 = Instant::now();
    for i in 0..devices {
        let enclave_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        let agent_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(3) | 1;
        let enclave = platform.launch(b"svcperf-verifier", &mut test_entropy(enclave_seed));
        svc.join(
            FleetMember::tiny(format!("gpu-{i:02}"), DeviceConfig::sim_tiny(), agent_seed),
            enclave,
        );
    }
    // The join loop above covers prefill + calibrate + SAKE; the pooled
    // prefill accounted its own wall inside the service, so enrollment
    // proper (the exchanges a device actually participates in) is the
    // difference.
    let prefill_wall = svc.prefill_wall_seconds();
    let enroll_wall = (t0.elapsed().as_secs_f64() - prefill_wall).max(0.0);

    let t1 = Instant::now();
    let mut windows = 0u64;
    while svc.statuses().iter().any(|s| s.rounds_passed < rounds) {
        svc.run_for(cfg.reattest_interval);
        windows += 1;
        assert!(
            windows <= rounds * 4 + 8,
            "fleet failed to converge: {}",
            svc.snapshot_json()
        );
    }
    let steady_wall = t1.elapsed().as_secs_f64();

    for s in svc.statuses() {
        assert_eq!(s.state, DeviceState::Trusted, "{} not trusted", s.name);
        assert!(s.rounds_passed >= rounds);
    }
    let total_rounds = svc.log().counters().rounds_passed;
    let rounds_per_sec = total_rounds as f64 / steady_wall.max(1e-9);
    let enroll_per_sec = devices as f64 / enroll_wall.max(1e-9);
    let virtual_ticks = svc.now();
    let lat = svc
        .log()
        .latency_percentiles()
        .expect("at least one passed round");

    // The unified telemetry layer must agree with the event log's own
    // books — an end-to-end consistency check every bench run gets for
    // free.
    assert_eq!(
        sage_bench::counter_total(&reg, "service_rounds_passed_total"),
        total_rounds,
        "telemetry rounds-passed diverged from the event log"
    );
    assert_eq!(
        sage_bench::counter_total(&reg, "service_devices_joined_total"),
        devices as u64,
        "telemetry join count diverged from the roster"
    );

    let prefill_pairs = devices * cfg.prefill_rounds;
    let prefill_pairs_per_sec = prefill_pairs as f64 / prefill_wall.max(1e-9);

    // Timer micro-arm: 1k queued frames, the wheel against the linear
    // scan it replaced.
    let (wheel_ns, linear_ns, micro_pops) = timer_micro_ns(1_000, 100_000);

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"devices\": {devices},\n  \"target_rounds\": {rounds},\n  \"seed\": {seed},\n"
    ));
    out.push_str(&format!(
        "  \"prefill_wall_seconds\": {prefill_wall:.6},\n  \"prefill_rounds_per_device\": {},\n  \"prefill_pairs_per_sec\": {prefill_pairs_per_sec:.1},\n",
        cfg.prefill_rounds
    ));
    out.push_str(&format!(
        "  \"enroll_wall_seconds\": {enroll_wall:.6},\n  \"enroll_devices_per_sec\": {enroll_per_sec:.2},\n  \"steady_wall_seconds\": {steady_wall:.6},\n"
    ));
    out.push_str(&format!(
        "  \"rounds_passed_total\": {total_rounds},\n  \"rounds_per_sec\": {rounds_per_sec:.1},\n"
    ));
    out.push_str(&format!(
        "  \"round_latency_ticks\": {{\"samples\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
        lat.samples, lat.p50, lat.p90, lat.p99
    ));
    out.push_str(&format!(
        "  \"virtual_ticks\": {virtual_ticks},\n  \"virtual_ticks_per_round\": {:.1},\n",
        virtual_ticks as f64 / total_rounds.max(1) as f64
    ));
    out.push_str(&format!(
        "  \"timer_micro\": {{\"queued\": 1000, \"pops\": {micro_pops}, \"wheel_ns_per_pop\": {wheel_ns:.1}, \"linear_ns_per_pop\": {linear_ns:.1}, \"speedup\": {:.1}}},\n",
        linear_ns / wheel_ns.max(1e-9)
    ));
    out.push_str("  \"snapshot\": ");
    // snapshot_json() ends with a newline; splice it in indented.
    out.push_str(svc.snapshot_json().trim_end());
    out.push_str(",\n  \"telemetry\": ");
    out.push_str(reg.to_json().trim_end());
    out.push_str("\n}\n");
    std::fs::write(&out_path, out).expect("write BENCH_svc.json");

    // The same registry in scrape form, next to the JSON artifact.
    let prom_path = sage_bench::write_prom_sibling(&out_path, &reg.to_prometheus());

    println!(
        "{devices} devices, {total_rounds} rounds in {steady_wall:.3}s  ({rounds_per_sec:.1} rounds/s, {virtual_ticks} virtual ticks)"
    );
    println!(
        "round latency ticks: p50 {} / p90 {} / p99 {} over {} rounds; enroll {enroll_per_sec:.2} devices/s",
        lat.p50, lat.p90, lat.p99, lat.samples
    );
    println!(
        "bank prefill: {prefill_pairs} pairs in {prefill_wall:.3}s pooled ({prefill_pairs_per_sec:.1} pairs/s), outside the enroll figure"
    );
    println!(
        "timer micro (1k queued): wheel {wheel_ns:.1} ns/pop vs linear scan {linear_ns:.1} ns/pop ({:.1}x)",
        linear_ns / wheel_ns.max(1e-9)
    );
    println!("wrote {out_path} and {prom_path}");
}
