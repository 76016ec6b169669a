//! Standalone probes: each calls one layer's public functions with the
//! traced run's own sizes (its captured frames, its fleet's sealed
//! epoch, its device model) and reports the per-call cost. Multiplied by
//! the run's call counts, they attribute the run's wall time to layers.

use std::hint::black_box;
use std::time::Instant;

use sage::verifier::Verifier;
use sage_crypto::{BigUint, DhGroup};
use sage_evidence::{
    epoch_root, prove_inclusion, verify_report, EvidenceChain, EvidencePath, EvidencePayload,
    StageVerdict,
};
use sage_service::{wire, Transport};
use sage_sgx_sim::SgxPlatform;
use sage_telemetry::Registry;

use crate::measure::series_sum;
use crate::stats::Samples;
use crate::workload::{member, Fleet, Workload};

/// Times `f` `reps` times; returns the median in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_nanos() as f64);
    }
    s.median().expect("reps > 0")
}

/// Per-call probe costs, in nanoseconds unless named otherwise.
#[derive(Default, Debug)]
pub struct Probes {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_bytes_p50: f64,
    pub modpow_ns: f64,
    pub replay_ns: f64,
    pub calibrate_ns: f64,
    pub sake_ns: f64,
    /// The verdict call the workload's rounds take (classic replay +
    /// compare, or the bank's precomputed compare).
    pub check_ns: f64,
    /// Cycle-accurate checksum run (0 where the workload's devices are
    /// modeled and bypass the simulator).
    pub checksum_ns: f64,
    pub sim_cycles_per_s: f64,
    pub append_ns: f64,
    pub seal_ns: f64,
    pub prove_ns: f64,
    pub verify_report_ns: f64,
}

/// Runs every probe against a traced fleet after its measured window.
pub fn run<T: Transport>(f: &Fleet<T>, captured: &[Vec<u8>], seed: u64) -> Probes {
    let mut p = Probes::default();

    // wire: the run's own frames, decoded and re-encoded.
    let frames: Vec<_> = captured
        .iter()
        .filter_map(|b| wire::decode(b).ok())
        .collect();
    assert_eq!(frames.len(), captured.len(), "captured frames decode");
    if !frames.is_empty() {
        let n = captured.len() as f64;
        p.decode_ns = median_ns(21, || {
            for b in captured {
                black_box(wire::decode(black_box(b)).ok());
            }
        }) / n;
        p.encode_ns = median_ns(21, || {
            for fr in &frames {
                black_box(wire::encode(black_box(fr)));
            }
        }) / n;
        let mut sizes = Samples::default();
        for b in captured {
            sizes.push(b.len() as f64);
        }
        p.frame_bytes_p50 = sizes.median().expect("frames");
    }

    // crypto: one DH modpow in the service's group.
    let group = DhGroup::test_group();
    let mut x = seed | 1;
    let mut exp = [0u8; 16];
    for b in &mut exp {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    let exp = BigUint::from_bytes_be(&exp);
    let base = BigUint::from_u64(3);
    p.modpow_ns = median_ns(201, || {
        black_box(group.modpow(black_box(&base), black_box(&exp)));
    });

    // core + vf + gpu-sim: a fresh verifier/device pair of the
    // workload's device model, enrolled the way `join` does it.
    let w = f.w;
    let cfg_bank = w == Workload::DeviceCycle;
    let platform = SgxPlatform::new([9u8; 16]);
    let mut ent = (seed as u8) | 1;
    let mut entropy = move |buf: &mut [u8]| {
        for b in buf {
            ent = ent.wrapping_mul(181).wrapping_add(101);
            *b = ent;
        }
    };
    let mut m = member(w, 0, seed);
    let enclave = platform.launch(b"perfbench-probe", &mut entropy);
    let mut v = Verifier::new(enclave, m.session.build().clone(), group.clone());
    if cfg_bank {
        v.enable_fast_path(sage_vf::BankConfig {
            capacity: 2,
            workers: 0,
        });
    }
    let t = Instant::now();
    v.calibrate(&mut m.session, 5).expect("probe calibration");
    p.calibrate_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    v.establish_key(&mut m.session, &mut m.agent, None)
        .expect("probe SAKE");
    p.sake_ns = t.elapsed().as_nanos() as f64;

    let reps = if w == Workload::DeviceCycle { 7 } else { 101 };
    let challenges = v.generate_challenges();
    p.replay_ns = median_ns(reps, || {
        black_box(v.expected(black_box(&challenges)));
    });
    let sim_reg = Registry::new();
    m.session
        .dev
        .install_telemetry(&sim_reg, &[("device", "probe")]);
    let mut runs = Vec::new();
    let mut run_ns = Samples::default();
    for _ in 0..reps {
        let (challenges, expected) = v.prepare_round_blocking();
        let t = Instant::now();
        let (sum, measured) = m.session.run_checksum(&challenges).expect("probe run");
        run_ns.push(t.elapsed().as_nanos() as f64);
        runs.push((challenges, expected, sum, measured));
    }
    if w == Workload::DeviceCycle {
        p.checksum_ns = run_ns.median().expect("runs");
        let cycles = series_sum(&sim_reg.collect(), "sim_run_cycles");
        p.sim_cycles_per_s = cycles as f64 / (run_ns.sum() / 1e9);
    }
    let mut i = 0;
    p.check_ns = median_ns(reps, || {
        let (ch, expected, sum, measured) = &runs[i % runs.len()];
        i += 1;
        let ok = match expected {
            Some(e) => v.check_response_precomputed(*e, *sum, *measured),
            None => v.check_response(ch, *sum, *measured),
        };
        assert!(ok.is_ok(), "probe verdict rejects an honest run");
    });

    // evidence: appends to a chain, the fleet's own epoch, its reports.
    let mut chain = EvidenceChain::new("gpu-probe", &[7u8; 16]);
    let mut round = 0;
    p.append_ns = median_ns(1001, || {
        round += 1;
        black_box(chain.append(
            round,
            EvidencePayload::ChecksumRound {
                round,
                measured_cycles: 10_000,
                threshold_cycles: 10_100,
                verdict: StageVerdict::Pass,
                path: EvidencePath::Classic,
            },
        ));
    });
    let epoch = f.svc.sealed_epochs().last().expect("a sealed epoch");
    let seals = if epoch.leaves.len() > 1_000 { 5 } else { 51 };
    p.seal_ns = median_ns(seals, || {
        black_box(epoch_root(black_box(&epoch.leaves)));
    });
    let mid = epoch.leaves.len() / 2;
    p.prove_ns = median_ns(seals, || {
        black_box(prove_inclusion(black_box(&epoch.leaves), mid));
    });
    let name = &epoch.leaves[mid].device;
    let report = f.svc.report_for(name).expect("report");
    let key = f.svc.evidence_key_of(name).expect("key");
    let now = f.svc.now();
    p.verify_report_ns = median_ns(201, || {
        let ok = verify_report(black_box(&report), &epoch.root, &key, now);
        assert!(ok.is_ok(), "probe report verifies");
    });
    p
}
