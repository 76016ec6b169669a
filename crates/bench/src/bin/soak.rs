//! Chaos soak harness: the robustness acceptance gate.
//!
//! Runs a fleet through multi-thousand-tick seeded chaos schedules —
//! device-level bit flips on the challenge DMA path, SM stalls, clock
//! skew — layered on a jittery, lossy simulated network, and asserts the
//! three properties the chaos engine must never break:
//!
//! 1. **Zero false accepts.** Every round that ran with an injected bit
//!    flip active must be rejected. The oracle counts each device's
//!    applied flips at `RoundStarted` and again at the round's verdict:
//!    a `RoundPassed` spanning a flip is a false accept and fails the
//!    soak immediately.
//! 2. **Reconvergence.** Faults are scheduled in a bounded window; once
//!    they clear, every device must return to `Trusted` (transient
//!    faults cost bounded backoff, never the device).
//! 3. **Crash-safe determinism.** Each seed is run twice — once
//!    uninterrupted, once with a control-plane crash at mid-schedule
//!    (snapshot → drop the service → restore from the surviving
//!    endpoints). The two histories must be byte-identical.
//!
//! Everything is seeded: same seed ⇒ identical fleet history, identical
//! fault schedule, identical verdict sequence. Results (per seed:
//! verdict counters, fault counters, history hash, crash equality) go to
//! `BENCH_soak.json` for CI trend tracking.
//!
//! Usage:
//!   soak [--seeds A,B,C] [--ticks N] [--devices N] [--out PATH]

use std::collections::HashMap;
use std::time::Instant;

use sage::multi::FleetMember;
use sage_bench::UsageError;
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{ChaosSpec, DeviceConfig, FaultPlan};
use sage_service::{
    AttestationService, DeviceState, EventKind, Fault, LinkProfile, ServiceConfig, SimNet,
    VERIFIER_NODE,
};
use sage_sgx_sim::SgxPlatform;
use sage_telemetry::Registry;

/// Virtual ticks the fleet gets to settle to `Trusted` before chaos.
const SETTLE_TICKS: u64 = 45_000;
/// Run horizon (device runs ≈ attestation rounds) chaos lands on.
const CHAOS_RUNS: u64 = 5;

/// The soak's control-plane config: defaults plus the timeout-restart
/// allowance, so link outages (which the chaos mix injects on purpose)
/// are bounded by the watchdog and retried instead of burning the hard
/// quarantine budget.
fn soak_cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    cfg.policy.restart_on_timeout = true;
    cfg
}

/// Installs a seeded chaos campaign on every device: transient challenge
/// flips (must be caught as wrong values), SM stalls (must be caught as
/// timing rejects and absorbed by the §7.2 restart allowance or backoff)
/// and clock skews, all parked right after the device's current run.
fn install_chaos(svc: &mut AttestationService<SimNet>, devices: usize, seed: u64) {
    for i in 0..devices {
        let name = format!("gpu-{i:02}");
        let session = svc.session_mut(&name).expect("device is managed");
        let layout = session.build().layout;
        let num_sms = session.dev.cfg.num_sms;
        let spec = ChaosSpec {
            runs: CHAOS_RUNS,
            // Flips land on the challenge table: rewritten every round,
            // so each flip corrupts exactly the round it fires on — and
            // that round MUST fail.
            flip_region: (layout.challenge_addr(0), 16 * layout.num_blocks),
            transient_flips: 1,
            persistent_flips: 0,
            stalls: 1,
            num_sms,
            max_stall: 4_000,
            skews: 1,
            max_skew: 200,
        };
        let next_run = session.dev.fault_run_index();
        let plan = FaultPlan::seeded(seed ^ (i as u64) << 8, &spec).offset(next_run);
        session.dev.install_fault_hook(Box::new(plan));
    }
}

#[derive(Default)]
struct Tally {
    false_accepts: u64,
    flips: u64,
    stalls: u64,
    skews: u64,
}

/// FNV-1a over the formatted event stream: one u64 that pins the entire
/// history for the JSON report.
fn history_hash(svc: &AttestationService<SimNet>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for e in svc.log().events() {
        for b in format!("{}|{}|{:?};", e.at, e.device, e.kind).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

struct SoakRun {
    svc: AttestationService<SimNet>,
    tally: Tally,
    reg: Registry,
}

/// Prometheus export with the `vf_bank_*` family dropped. Bank stock is
/// ephemeral by design — it lives outside the snapshot and is recomputed
/// after a restore — so its effectiveness counters legitimately restart
/// at a crash; every other family must survive one byte-identically.
fn durable_prom(reg: &Registry) -> String {
    reg.to_prometheus()
        .lines()
        .filter(|l| !l.contains("vf_bank_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One soak universe: settle, unleash chaos, drive event-by-event with
/// the false-accept oracle watching every verdict; optionally crash and
/// restore the control plane at mid-schedule.
fn run_soak(seed: u64, devices: usize, ticks: u64, crash: bool) -> SoakRun {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 5,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(soak_cfg(), DhGroup::test_group(), net);
    let platform = SgxPlatform::new([7u8; 16]);
    for i in 0..devices {
        let agent_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(3) | 1;
        let enclave_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        let enclave = platform.launch(b"soak-verifier", &mut test_entropy(enclave_seed));
        let member = FleetMember::tiny(format!("gpu-{i:02}"), DeviceConfig::sim_tiny(), agent_seed);
        svc.join(member, enclave);
    }
    svc.run_for(SETTLE_TICKS);
    for i in 0..devices {
        let name = format!("gpu-{i:02}");
        assert_eq!(
            svc.state_of(&name),
            Some(DeviceState::Trusted),
            "seed {seed}: {name} failed to settle before chaos"
        );
    }
    install_chaos(&mut svc, devices, seed);
    // Plus a recurring link outage: the challenge path to device 0 flaps
    // (drops everything sent in the open span of each cycle) until
    // mid-horizon, then the link heals and the device must reconverge.
    let device0 = svc
        .statuses()
        .iter()
        .find(|s| s.name == "gpu-00")
        .expect("device 0 is managed")
        .node;
    let window_until = svc.now() + ticks / 2;
    svc.transport_mut().inject(Fault::seeded_window(
        seed,
        VERIFIER_NODE,
        device0,
        110_000,
        15_000,
        0,
        window_until,
    ));

    let end = svc.now() + ticks;
    let crash_at = svc.now() + ticks / 2;
    let mut crashed = false;
    let mut tally = Tally::default();
    // Applied-flip count per device at its round's RoundStarted.
    let mut flips_at_start: HashMap<String, u64> = HashMap::new();
    let mut scanned = 0usize;

    while svc.now() < end {
        match svc.next_event_at() {
            Some(t) if t <= end => svc.run_until(t),
            _ => svc.run_until(end),
        }
        if crash && !crashed && svc.now() >= crash_at {
            // The control plane dies mid-schedule: serialize, drop the
            // service, and restore from the surviving endpoints.
            let snap = svc.snapshot();
            let (net, endpoints) = svc.into_endpoints();
            svc = AttestationService::restore(
                soak_cfg(),
                DhGroup::test_group(),
                net,
                &snap,
                endpoints,
            )
            .expect("snapshot restores against its own endpoints");
            crashed = true;
        }
        // Scan new events through the false-accept oracle. Rounds are
        // serialized per device, so between a device's RoundStarted and
        // its verdict the only run on that device is that round's.
        let fresh: Vec<_> = svc.log().events()[scanned..].to_vec();
        scanned += fresh.len();
        for e in &fresh {
            match &e.kind {
                EventKind::RoundStarted { .. } => {
                    let flips = svc
                        .session_mut(&e.device)
                        .map(|s| s.dev.faults_applied().flips)
                        .unwrap_or(0);
                    flips_at_start.insert(e.device.clone(), flips);
                }
                EventKind::RoundPassed { .. } => {
                    let flips_now = svc
                        .session_mut(&e.device)
                        .map(|s| s.dev.faults_applied().flips)
                        .unwrap_or(0);
                    let at_start = flips_at_start.get(&e.device).copied().unwrap_or(0);
                    if flips_now > at_start {
                        tally.false_accepts += 1;
                        eprintln!(
                            "FALSE ACCEPT: seed {seed} device {} passed a round spanning {} flip(s) at t={}",
                            e.device,
                            flips_now - at_start,
                            e.at
                        );
                    }
                }
                _ => {}
            }
        }
    }

    for i in 0..devices {
        let name = format!("gpu-{i:02}");
        let counters = svc
            .session_mut(&name)
            .map(|s| s.dev.faults_applied())
            .unwrap_or_default();
        tally.flips += counters.flips;
        tally.stalls += counters.stalls;
        tally.skews += counters.skews;
    }
    // Attached after the horizon: the event log replays its full
    // history into the registry, so the `service_*` series describe the
    // whole universe — including, in the crash twin, everything from
    // before the restore.
    let reg = Registry::new();
    svc.attach_telemetry(&reg);
    SoakRun { svc, tally, reg }
}

fn main() {
    let mut seeds: Vec<u64> = vec![5, 6, 7];
    let mut ticks = 800_000u64;
    let mut devices = 3usize;
    let mut out_path = String::from("BENCH_soak.json");
    sage_bench::parse_args(
        "soak [--seeds A,B,C] [--ticks N] [--devices N] [--out PATH]",
        |flag, a| {
            match flag {
                "--seeds" => {
                    let list: String = a.value(flag)?;
                    seeds = list
                        .split(',')
                        .map(|s| s.trim().parse())
                        .collect::<Result<_, _>>()
                        .map_err(|_| UsageError(format!("{flag}: cannot parse {list:?}")))?;
                }
                "--ticks" => ticks = a.value(flag)?,
                "--devices" => devices = a.value(flag)?,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(!seeds.is_empty() && devices > 0 && ticks >= 100_000);

    eprintln!(
        "soak: {} seed(s) x {devices} devices x {ticks} ticks (+ crash-restart twin each)",
        seeds.len()
    );
    let mut reports = Vec::new();
    let mut last_prom = String::new();
    for &seed in &seeds {
        let t0 = Instant::now();
        let baseline = run_soak(seed, devices, ticks, false);
        let crashed = run_soak(seed, devices, ticks, true);
        let wall = t0.elapsed().as_secs_f64();

        // Property 3: the crashed universe is byte-identical to the
        // uninterrupted one — state and full event history.
        let crash_match = baseline.svc.snapshot() == crashed.svc.snapshot()
            && baseline.svc.snapshot_json() == crashed.svc.snapshot_json();
        assert!(
            crash_match,
            "seed {seed}: crash-restart universe diverged from the uninterrupted one"
        );

        // Property 1: zero false accepts, in both universes.
        let false_accepts = baseline.tally.false_accepts + crashed.tally.false_accepts;
        assert_eq!(false_accepts, 0, "seed {seed}: false accepts detected");

        // Property 2: chaos cleared long before the horizon, so every
        // device must have reconverged to Trusted.
        let mut reconverged = true;
        for i in 0..devices {
            let name = format!("gpu-{i:02}");
            let state = baseline.svc.state_of(&name);
            if state != Some(DeviceState::Trusted) {
                reconverged = false;
                eprintln!("seed {seed}: {name} ended {state:?}, not Trusted");
            }
        }
        assert!(reconverged, "seed {seed}: fleet did not reconverge");

        let c = baseline.svc.log().counters();
        let hash = history_hash(&baseline.svc);
        assert_eq!(hash, history_hash(&crashed.svc));

        // The telemetry layer must be crash-safe too: replaying the
        // restored history into a fresh registry yields the same
        // export as in the universe that never crashed (minus the
        // deliberately ephemeral bank family — see `durable_prom`).
        assert_eq!(
            durable_prom(&baseline.reg),
            durable_prom(&crashed.reg),
            "seed {seed}: telemetry exports diverged across crash-restore"
        );
        assert_eq!(
            sage_bench::counter_total(&baseline.reg, "service_rounds_passed_total"),
            c.rounds_passed,
            "seed {seed}: telemetry rounds-passed diverged from the event log"
        );
        last_prom = baseline.reg.to_prometheus();
        eprintln!(
            "seed {seed}: {} passed / {} value-rejects / {} timing-rejects / {} timeouts / {} restarts, {} flips {} stalls {} skews, hash {hash:016x}, crash ok ({wall:.2}s)",
            c.rounds_passed,
            c.value_rejects,
            c.timing_rejects,
            c.timeouts,
            c.restarts,
            baseline.tally.flips,
            baseline.tally.stalls,
            baseline.tally.skews,
        );
        reports.push(format!(
            "    {{\"seed\": {seed}, \"rounds_passed\": {}, \"value_rejects\": {}, \"timing_rejects\": {}, \"timeouts\": {}, \"restarts\": {}, \"quarantines\": {}, \"faults\": {{\"flips\": {}, \"stalls\": {}, \"skews\": {}}}, \"false_accepts\": 0, \"reconverged\": true, \"crash_restart_identical\": true, \"telemetry_durable_after_crash\": true, \"history_hash\": \"{hash:016x}\", \"wall_seconds\": {wall:.3}}}",
            c.rounds_passed,
            c.value_rejects,
            c.timing_rejects,
            c.timeouts,
            c.restarts,
            c.quarantines,
            baseline.tally.flips,
            baseline.tally.stalls,
            baseline.tally.skews,
        ));
    }

    let out = format!(
        "{{\n  \"host\": {},\n  \"devices\": {devices},\n  \"ticks\": {ticks},\n  \"chaos_runs\": {CHAOS_RUNS},\n  \"seeds\": [\n{}\n  ]\n}}\n",
        sage_bench::host_stanza(),
        reports.join(",\n")
    );
    std::fs::write(&out_path, out).expect("write BENCH_soak.json");
    // The last seed's uninterrupted-universe registry in scrape form,
    // next to the JSON artifact.
    let prom_path = sage_bench::write_prom_sibling(&out_path, &last_prom);
    println!(
        "soak: {} seed(s) clean — zero false accepts, full reconvergence, crash-restart byte-identical (telemetry included)",
        seeds.len()
    );
    println!("wrote {out_path} and {prom_path}");
}
