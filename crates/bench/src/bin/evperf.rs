//! Evidence-layer throughput harness.
//!
//! Microbenchmarks the four verbs a fleet pays for per attestation
//! stage once the PR-7 evidence layer is on:
//!
//! * **append** — sealing one hash-linked, CMAC'd record onto a device
//!   chain (the per-stage cost every checksum round now carries),
//! * **seal** — folding a fleet's chain heads into one Merkle epoch
//!   root (the per-epoch cost, scaling with fleet width),
//! * **prove** — producing one device's inclusion proof plus minting
//!   its full [`DeviceReport`] envelope (the epoch's [`EpochTree`] is
//!   built once per pass, as the service keeps it, so a proof is
//!   O(log n) sibling reads),
//! * **verify** — [`verify_report`] end to end: envelope CMAC, root
//!   match, Merkle walk, suffix re-verification, claim and freshness
//!   checks (the relying party's cost).
//!
//! Record payloads cycle through every record kind so the canonical
//! codec is exercised evenly. Everything is seeded and the verify loop
//! asserts every report actually verifies — a silent reject would make
//! the throughput figure fiction. Results go to `BENCH_evidence.json`
//! for CI trend tracking.
//!
//! Every run then gates the prove verb: it re-runs it on a fleet 64x
//! wider and fails unless the per-proof throughput there is at least
//! 0.2x the base fleet's. A proof still walks and CMACs an O(log n)
//! sibling path, so a correct build scores well under 1 (~0.6 at 64 ->
//! 4096 devices); a per-proof cost that grows with the fleet (an O(n)
//! tree rebuild per proof scores ~0.02) breaks it. Both runs share the
//! host, so the ratio does not depend on the runner.
//!
//! Usage:
//!   evperf [--devices N] [--records N] [--iters N] [--seed N] [--out PATH]

use std::time::Instant;

use sage_bench::UsageError;
use sage_evidence::merkle::{epoch_root, EpochTree};
use sage_evidence::{
    verify_report, DeviceReport, EpochLeaf, EvidenceChain, EvidencePath, EvidencePayload,
    Freshness, FreshnessClaim, FreshnessPolicy, StageVerdict,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Cycles through every record kind, all passing (the steady-state mix).
fn payload(kind: u64, rng: &mut SplitMix64) -> EvidencePayload {
    match kind % 4 {
        0 => EvidencePayload::ChecksumRound {
            round: kind,
            measured_cycles: 10_000 + (rng.next_u64() % 500),
            threshold_cycles: 12_000,
            verdict: StageVerdict::Pass,
            path: EvidencePath::Precomputed,
        },
        1 => EvidencePayload::ChannelLiveness {
            nonce: rng.next_u64(),
            verdict: StageVerdict::Pass,
        },
        2 => EvidencePayload::KernelHash {
            hash: {
                let mut h = [0u8; 32];
                h[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                h
            },
            verdict: StageVerdict::Pass,
        },
        _ => EvidencePayload::SakeConfirmed {
            key_fingerprint: rng.next_u64().to_le_bytes(),
            measured_cycles: 9_000,
            threshold_cycles: 12_000,
        },
    }
}

const POLICY: FreshnessPolicy = FreshnessPolicy {
    stale_after: 60_000,
    degraded_after: 120_000,
};

/// How much wider the gate's fleet is than the base fleet.
const GATE_WIDTH: usize = 64;
/// The per-proof throughput the wide fleet must keep, relative to the
/// base fleet.
const GATE_MIN_RATIO: f64 = 0.2;
/// Alternating timed runs per side; the fastest of each is compared.
const GATE_REPS: usize = 3;

/// `devices` fresh chains, keys drawn from `rng`.
fn new_chains(devices: usize, rng: &mut SplitMix64) -> Vec<EvidenceChain> {
    (0..devices)
        .map(|i| {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            EvidenceChain::new(&format!("gpu-{i:03}"), &key)
        })
        .collect()
}

/// Appends `records` records to every chain, round-robin.
fn grow(chains: &mut [EvidenceChain], records: u64, rng: &mut SplitMix64) {
    for k in 0..records {
        for chain in chains.iter_mut() {
            chain.append(10_000 + 10 * k, payload(k, rng));
        }
    }
}

/// Every chain's head as an epoch leaf.
fn leaves_of(chains: &[EvidenceChain]) -> Vec<EpochLeaf> {
    chains
        .iter()
        .map(|c| EpochLeaf {
            device: c.device().to_string(),
            head: c.head(),
            seq: c.seq(),
        })
        .collect()
}

/// The prove verb: `iters` passes, each building the epoch tree once and
/// minting every device's report from it. Reports are anchored at the
/// sealed heads with an empty suffix (the "just sealed" shape), asserted
/// fresh under the policy. Returns the last pass's reports and the wall
/// time of all passes.
fn prove_all(
    chains: &[EvidenceChain],
    leaves: &[EpochLeaf],
    iters: u64,
    asserted_at: u64,
) -> (Vec<DeviceReport>, f64) {
    let t = Instant::now();
    let mut reports = Vec::with_capacity(chains.len());
    for _ in 0..iters {
        reports.clear();
        let tree = EpochTree::build(leaves);
        let root = tree.root();
        for (i, chain) in chains.iter().enumerate() {
            let claim = FreshnessClaim {
                policy: POLICY,
                last_pass_at: chain.last_pass_at(),
                asserted_at,
                level: POLICY.level(chain.last_pass_at(), asserted_at),
            };
            reports.push(DeviceReport::seal(
                1,
                leaves[i].clone(),
                root,
                tree.prove(i),
                Vec::new(),
                claim,
                &chain.evidence_key(),
            ));
        }
    }
    (reports, t.elapsed().as_secs_f64())
}

fn main() {
    let mut devices = 64usize;
    let mut records = 256u64;
    let mut iters = 200u64;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_evidence.json");
    sage_bench::parse_args(
        "evperf [--devices N] [--records N] [--iters N] [--seed N] [--out PATH]",
        |flag, a| {
            match flag {
                "--devices" => devices = a.value(flag)?,
                "--records" => records = a.value(flag)?,
                "--iters" => iters = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(
        devices > 0 && records > 0 && iters > 0,
        "need at least one device, record and iteration"
    );
    eprintln!("evperf: {devices} devices x {records} records, {iters} iters, seed {seed}");
    let mut rng = SplitMix64(seed);

    // --- append: grow every device's chain, one CMAC'd record at a time.
    let mut chains = new_chains(devices, &mut rng);
    let t0 = Instant::now();
    grow(&mut chains, records, &mut rng);
    let append_wall = t0.elapsed().as_secs_f64();
    let appends = records * devices as u64;
    let appends_per_sec = appends as f64 / append_wall.max(1e-9);

    // --- seal: the fleet's chain heads into one epoch root, many times.
    let leaves = leaves_of(&chains);
    let t1 = Instant::now();
    let mut root = [0u8; 32];
    for _ in 0..iters {
        root = epoch_root(&leaves);
    }
    let seal_wall = t1.elapsed().as_secs_f64();
    let seals_per_sec = iters as f64 / seal_wall.max(1e-9);

    // --- prove: inclusion proof + full report envelope per device.
    let asserted_at = 10_000 + 10 * records;
    let (reports, prove_wall) = prove_all(&chains, &leaves, iters, asserted_at);
    let proves = iters * devices as u64;
    let proves_per_sec = proves as f64 / prove_wall.max(1e-9);

    // --- verify: the relying party's full check, every report, every
    // iteration — and every one must come back Trusted.
    let t3 = Instant::now();
    for _ in 0..iters {
        for (i, report) in reports.iter().enumerate() {
            let level = verify_report(report, &root, &chains[i].evidence_key(), asserted_at)
                .expect("benchmark report must verify");
            assert_eq!(level, Freshness::Trusted, "benchmark fleet is fresh");
        }
    }
    let verify_wall = t3.elapsed().as_secs_f64();
    let verifies = iters * devices as u64;
    let verifies_per_sec = verifies as f64 / verify_wall.max(1e-9);

    // --- gate: the same prove verb on a fleet GATE_WIDTH times wider.
    // Both sides mint the same number of reports (the base fleet runs
    // GATE_WIDTH times the passes), alternating, best of GATE_REPS each.
    let wide_devices = devices * GATE_WIDTH;
    let mut wide = new_chains(wide_devices, &mut rng);
    grow(&mut wide, records, &mut rng);
    let wide_leaves = leaves_of(&wide);
    let (mut base_best, mut wide_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..GATE_REPS {
        let base_passes = iters * GATE_WIDTH as u64;
        base_best = base_best.min(prove_all(&chains, &leaves, base_passes, asserted_at).1);
        wide_best = wide_best.min(prove_all(&wide, &wide_leaves, iters, asserted_at).1);
    }
    let wide_per_sec = (iters * wide_devices as u64) as f64 / wide_best.max(1e-9);
    let ratio = base_best / wide_best.max(1e-9);
    println!(
        "gate: prove {wide_per_sec:.0}/s at {wide_devices} devices = {ratio:.2}x the {devices}-device rate (floor {GATE_MIN_RATIO})"
    );
    if ratio < GATE_MIN_RATIO {
        eprintln!(
            "evperf gate FAILED: per-proof throughput at {wide_devices} devices is {ratio:.2}x the {devices}-device rate, under {GATE_MIN_RATIO}x"
        );
        std::process::exit(1);
    }

    let report_bytes = reports[0].encode().len();
    let proof_steps = reports[0].proof.steps.len();

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"devices\": {devices},\n  \"records_per_device\": {records},\n  \"iters\": {iters},\n  \"seed\": {seed},\n"
    ));
    out.push_str(&format!(
        "  \"append\": {{\"total\": {appends}, \"wall_seconds\": {append_wall:.6}, \"per_sec\": {appends_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"seal\": {{\"total\": {iters}, \"leaves\": {devices}, \"wall_seconds\": {seal_wall:.6}, \"per_sec\": {seals_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"prove\": {{\"total\": {proves}, \"wall_seconds\": {prove_wall:.6}, \"per_sec\": {proves_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"verify\": {{\"total\": {verifies}, \"wall_seconds\": {verify_wall:.6}, \"per_sec\": {verifies_per_sec:.1}}},\n"
    ));
    out.push_str(&format!(
        "  \"gate\": {{\"devices\": {wide_devices}, \"prove_per_sec\": {wide_per_sec:.1}, \"ratio\": {ratio:.3}, \"min_ratio\": {GATE_MIN_RATIO}}},\n"
    ));
    out.push_str(&format!(
        "  \"report_bytes\": {report_bytes},\n  \"proof_steps\": {proof_steps}\n}}\n"
    ));
    std::fs::write(&out_path, out).expect("write BENCH_evidence.json");

    println!(
        "append {appends_per_sec:.0}/s  seal {seals_per_sec:.0}/s ({devices} leaves)  prove {proves_per_sec:.0}/s  verify {verifies_per_sec:.0}/s"
    );
    println!("report size {report_bytes} B, {proof_steps} proof steps; wrote {out_path}");
}
