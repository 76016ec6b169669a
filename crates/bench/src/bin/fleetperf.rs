//! Fleet-scale control-plane throughput harness.
//!
//! Where `svcperf` sizes a handful of cycle-accurate simulated devices,
//! `fleetperf` drives the sharded event loop at deployment scale: ten
//! thousand *modeled* devices (checksums from the replay engine, timing
//! synthesized — `GpuSession::install_modeled`), so the figure measured
//! is the control plane itself: timer wheel, shard routing, batched
//! delivery, verdicts, evidence chains, epoch seals.
//!
//! Reported, to `BENCH_fleet.json`:
//!
//! * steady-state rounds/second across the whole fleet,
//! * enrollment throughput (devices/second through calibrate + SAKE),
//! * round-latency p50/p90/p99 in virtual ticks (interpolated within
//!   histogram buckets when the event ring has wrapped),
//! * peak resident set (`VmHWM`), the cost of holding the fleet,
//! * the shared `host` stanza, so cross-host trend lines can be
//!   normalized by core count.
//!
//! The `--gate` flag turns the run into a CI assertion: the fleet must
//! sustain `100_000 × min(1, cores/8)` rounds/second — the ISSUE's
//! 100k rounds/sec target on an 8-core-or-better host, scaled down
//! linearly on smaller machines so the gate measures the software, not
//! the hardware budget of the runner.
//!
//! Usage:
//!   fleetperf [--devices N] [--rounds N] [--seed N] [--shards N]
//!             [--workers N] [--gate] [--out PATH]

use std::time::Instant;

use sage::multi::FleetMember;
use sage_bench::UsageError;
use sage_crypto::{test_entropy, DhGroup};
use sage_service::{AttestationService, DeviceState, LinkProfile, ServiceConfig, SimNet};
use sage_sgx_sim::SgxPlatform;

/// The core-scaled throughput floor: the 100k rounds/sec target applies
/// in full from 8 cores up and shrinks linearly below that.
fn required_rounds_per_sec(cores: usize) -> f64 {
    100_000.0 * (cores as f64 / 8.0).min(1.0)
}

fn main() {
    let cores = sage_bench::cores();
    let mut devices = 10_000usize;
    let mut rounds = 3u64;
    let mut seed = 7u64;
    // Shards without workers still buy the per-shard job batching; the
    // worker pool only pays for itself with spare cores.
    let mut shards = cores.clamp(1, 16);
    let mut workers = cores.saturating_sub(1);
    let mut gate = false;
    let mut out_path = String::from("BENCH_fleet.json");
    sage_bench::parse_args(
        "fleetperf [--devices N] [--rounds N] [--seed N] [--shards N] [--workers N] [--gate] [--out PATH]",
        |flag, a| {
            match flag {
                "--devices" => devices = a.value(flag)?,
                "--rounds" => rounds = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--shards" => shards = a.value(flag)?,
                "--workers" => workers = a.value(flag)?,
                "--gate" => gate = true,
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
    let cfg = ServiceConfig {
        shards,
        workers,
        // A bounded event log: at fleet scale the full history would be
        // hundreds of megabytes; the ring keeps the recent window and
        // the latency percentiles fall back to the telemetry histogram.
        event_capacity: 65_536,
        // No challenge bank: modeled replays cost microseconds, while a
        // per-verifier refill thread would put ten thousand threads on
        // the scheduler — at fleet scale the context switches cost more
        // than the replays the bank exists to hide.
        bank_capacity: 0,
        bank_workers: 0,
        ..ServiceConfig::default()
    };
    let reattest_interval = cfg.reattest_interval;
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let reg = sage_telemetry::Registry::new();
    svc.attach_telemetry(&reg);

    eprintln!(
        "fleetperf: {devices} devices x {rounds} rounds, seed {seed}, {shards} shards, {workers} workers, {cores} cores"
    );
    let platform = SgxPlatform::new([7u8; 16]);
    let t0 = Instant::now();
    for i in 0..devices {
        let enclave_seed = (seed as u8)
            .wrapping_add(i as u8)
            .wrapping_mul(5)
            .wrapping_add((i >> 8) as u8)
            | 1;
        let agent_seed = (seed as u8)
            .wrapping_add(i as u8)
            .wrapping_mul(3)
            .wrapping_add((i >> 8) as u8)
            | 1;
        let enclave = platform.launch(b"fleet-verifier", &mut test_entropy(enclave_seed));
        svc.join(
            FleetMember::modeled(format!("gpu-{i:05}"), agent_seed),
            enclave,
        );
        if (i + 1) % 2_000 == 0 {
            eprintln!("  enrolled {}/{devices}", i + 1);
        }
    }
    let enroll_wall = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut windows = 0u64;
    while svc
        .statuses()
        .iter()
        .any(|s| s.rounds_passed < rounds || s.state != DeviceState::Trusted)
    {
        svc.run_for(reattest_interval);
        windows += 1;
        assert!(windows <= rounds * 4 + 8, "fleet failed to converge");
    }
    let steady_wall = t1.elapsed().as_secs_f64();

    let total_rounds = svc.log().counters().rounds_passed;
    let rounds_per_sec = total_rounds as f64 / steady_wall.max(1e-9);
    let enroll_per_sec = devices as f64 / enroll_wall.max(1e-9);
    let virtual_ticks = svc.now();
    let lat = svc
        .log()
        .latency_percentiles()
        .expect("at least one passed round");
    let rss = sage_bench::peak_rss_bytes();
    let events_dropped = svc.log().events_dropped();
    let required = required_rounds_per_sec(cores);
    let pass = rounds_per_sec >= required;

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"devices\": {devices},\n  \"target_rounds\": {rounds},\n  \"seed\": {seed},\n  \"shards\": {shards},\n  \"workers\": {workers},\n"
    ));
    out.push_str(&format!(
        "  \"enroll_wall_seconds\": {enroll_wall:.6},\n  \"enroll_devices_per_sec\": {enroll_per_sec:.2},\n"
    ));
    out.push_str(&format!(
        "  \"steady_wall_seconds\": {steady_wall:.6},\n  \"rounds_passed_total\": {total_rounds},\n  \"rounds_per_sec\": {rounds_per_sec:.1},\n"
    ));
    out.push_str(&format!(
        "  \"round_latency_ticks\": {{\"samples\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
        lat.samples, lat.p50, lat.p90, lat.p99
    ));
    out.push_str(&format!(
        "  \"virtual_ticks\": {virtual_ticks},\n  \"events_dropped\": {events_dropped},\n  \"peak_rss_bytes\": {rss},\n"
    ));
    out.push_str(&format!(
        "  \"gate\": {{\"required_rounds_per_sec\": {required:.1}, \"pass\": {pass}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(&out_path, out).expect("write BENCH_fleet.json");

    println!(
        "{devices} devices, {total_rounds} rounds in {steady_wall:.3}s  ({rounds_per_sec:.1} rounds/s; gate {required:.0} on {cores} cores)"
    );
    println!(
        "enroll {enroll_per_sec:.1} devices/s ({enroll_wall:.3}s); latency ticks p50 {} / p90 {} / p99 {} over {} rounds; peak RSS {:.1} MiB; {events_dropped} events dropped",
        lat.p50, lat.p90, lat.p99, lat.samples,
        rss as f64 / (1024.0 * 1024.0)
    );
    println!("wrote {out_path}");
    if gate && !pass {
        eprintln!(
            "FLEET GATE FAILED: {rounds_per_sec:.1} rounds/sec < required {required:.1} ({cores} cores)"
        );
        std::process::exit(1);
    }
}
