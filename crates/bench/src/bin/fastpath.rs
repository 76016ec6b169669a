//! Online attestation fast-path benchmark.
//!
//! Measures the three wins this repo's fast path stacks on the
//! verifier's online critical path, and writes `BENCH_fastpath.json`:
//!
//! 1. **Bank-hit vs replay-online rounds** at the SIM-LARGE VF shape
//!    (512 KiB region, full-occupancy grid). The replay arm times
//!    `Verifier::check_response` — which recomputes the expected
//!    checksum online, as every round did before the bank. The bank arm
//!    times `Verifier::prepare_round` (a bank take) plus
//!    `check_response_precomputed` — the whole online path on a hit.
//!    Precomputation itself runs *before* the timer, exactly as it runs
//!    off the critical path in production. Both arms' verdicts are
//!    checked bit-exact against an independent replay.
//! 2. **Montgomery vs reference modpow** at MODP-2048 with 256-bit
//!    exponents — the SAKE key-establishment exponentiations. Results
//!    are asserted equal on every repetition.
//! 3. **Pooled vs spawn-per-call replay** on a calibration-shaped loop
//!    (many sequential replays of a small VF), the regression check for
//!    the per-call `thread::scope` spawn the pool replaced.
//!
//! Gates (skippable with `--no-gate` for exploratory runs): bank-hit
//! rounds ≥5× faster than replay-online; Montgomery ≥3× faster than the
//! reference at 2048 bits.
//!
//! Usage:
//!   fastpath [--rounds N] [--iterations N] [--reps N] [--calib-runs N]
//!            [--seed N] [--no-gate] [--out PATH]
//!
//! Defaults measure at full SIM-LARGE scale; CI smoke passes
//! `--rounds 4 --iterations 12 --calib-runs 20` for a fixed-seed run
//! that still exercises every code path and both gates.

use std::time::Instant;

use sage::{Calibration, Verifier};
use sage_bench::UsageError;
use sage_crypto::{test_entropy, BigUint, DhGroup, Montgomery};
use sage_gpu_sim::DeviceConfig;
use sage_sgx_sim::SgxPlatform;
use sage_vf::{
    build_vf, expected_checksum, expected_checksum_unpooled, expected_checksum_with_pool,
    BankConfig, ReplayPool, VfParams,
};

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn biguint(&mut self, bits: usize) -> BigUint {
        let bytes = bits.div_ceil(8);
        let mut buf = vec![0u8; bytes];
        for b in buf.iter_mut() {
            *b = self.next() as u8;
        }
        buf[0] |= 0x80; // pin the width
        BigUint::from_bytes_be(&buf)
    }

    fn challenge(&mut self) -> [u8; 16] {
        let mut c = [0u8; 16];
        c[..8].copy_from_slice(&self.next().to_le_bytes());
        c[8..].copy_from_slice(&self.next().to_le_bytes());
        c
    }
}

/// The SIM-LARGE VF shape (the bench crate's experiment-1 parameters on
/// the full `sim_large` device), with a scalable iteration count so the
/// CI smoke stays fast.
fn sim_large_vf(iterations: u32) -> VfParams {
    let cfg = DeviceConfig::sim_large();
    let (blocks, threads) = sage_bench::experiments::geometry(&cfg);
    let mut p = sage_bench::experiments::exp1(&cfg);
    p.grid_blocks = blocks;
    p.block_threads = threads;
    p.iterations = iterations;
    p
}

fn main() {
    let mut rounds = 16usize;
    let mut iterations = 60u32;
    let mut reps = 5usize;
    let mut calib_runs = 60usize;
    let mut seed = 7u64;
    let mut gate = true;
    let mut out_path = String::from("BENCH_fastpath.json");
    sage_bench::parse_args(
        "fastpath [--rounds N] [--iterations N] [--reps N] [--calib-runs N] [--seed N] [--no-gate] [--out PATH]",
        |flag, a| {
            match flag {
                "--rounds" => rounds = a.value(flag)?,
                "--iterations" => iterations = a.value(flag)?,
                "--reps" => reps = a.value(flag)?,
                "--calib-runs" => calib_runs = a.value(flag)?,
                "--seed" => seed = a.value(flag)?,
                "--no-gate" => gate = false,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );
    assert!(rounds >= 2 && reps >= 1 && calib_runs >= 2);

    // ---- 1. Bank-hit vs replay-online rounds (SIM-LARGE shape) ----
    let params = sim_large_vf(iterations);
    let build = build_vf(&params, 0x1000, seed as u32).expect("build VF");
    eprintln!(
        "fastpath: VF {} blocks x {} threads x {} iterations, {rounds} rounds",
        params.grid_blocks, params.block_threads, params.iterations
    );

    let platform = SgxPlatform::new([7u8; 16]);
    let enclave = platform.launch(b"fastpath-verifier", &mut test_entropy(seed as u8 | 1));
    let mut verifier = Verifier::new(enclave, build.clone(), DhGroup::test_group());
    // Any calibration accepts our synthetic measured=1 responses; the
    // timing check itself is on both arms equally.
    verifier.set_calibration(Calibration::from_samples(&[1_000]));
    verifier.enable_fast_path(BankConfig {
        capacity: rounds,
        workers: 0,
    });

    // Offline phase (untimed — this is the point of the fast path): the
    // bank precomputes every round. In production, background workers do
    // this between rounds.
    let t = Instant::now();
    verifier.prefill_rounds(rounds);
    let prefill_wall = t.elapsed().as_secs_f64();

    // Scalar-oracle refill arm: the same number of rounds recomputed
    // with the per-lane scalar engine the batched SoA engine replaced
    // (kept in-tree as the oracle, same thread-per-core parallelism the
    // seed refill path had). The within-run ratio against the pooled
    // batched prefill above isolates the engine change, so the CI gate
    // on it is host-independent.
    let scalar_transcript: Vec<Vec<[u8; 16]>> = (0..rounds)
        .map(|_| verifier.generate_challenges())
        .collect();
    let t = Instant::now();
    let scalar_sums: Vec<[u32; 8]> = scalar_transcript
        .iter()
        .map(|ch| expected_checksum_unpooled(&build, ch))
        .collect();
    let scalar_refill_wall = t.elapsed().as_secs_f64();
    for (ch, scalar) in scalar_transcript.iter().zip(&scalar_sums) {
        assert_eq!(
            *scalar,
            expected_checksum(&build, ch),
            "batched engine diverged from the scalar oracle"
        );
    }
    let refill_speedup = scalar_refill_wall / prefill_wall.max(1e-12);
    eprintln!(
        "refill: batched prefill {prefill_wall:.3}s vs scalar oracle {scalar_refill_wall:.3}s for {rounds} rounds  ({refill_speedup:.1}x)"
    );

    // The replay arm's challenge/response transcript, produced untimed:
    // an honest device's response equals the replayed expected value.
    let replay_transcript: Vec<(Vec<[u8; 16]>, [u32; 8])> = (0..rounds)
        .map(|_| {
            let ch = verifier.generate_challenges();
            let got = expected_checksum(&build, &ch);
            (ch, got)
        })
        .collect();

    // Timed bank arm: take + compare + timing verdict per round.
    let t = Instant::now();
    let mut bank_rounds_done = 0usize;
    let mut bank_pairs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (ch, expected) = verifier.prepare_round();
        let expected = expected.expect("bank stocked for every round");
        verifier
            .check_response_precomputed(expected, expected, 1)
            .expect("honest round accepted");
        bank_rounds_done += 1;
        bank_pairs.push((ch, expected));
    }
    let bank_wall = t.elapsed().as_secs_f64();
    assert_eq!(bank_rounds_done, rounds);
    let hits = verifier.bank_counters().expect("fast path on").hits;
    assert_eq!(hits as usize, rounds, "every timed round must be a hit");

    // Timed replay arm: the pre-bank online path (replay inside
    // check_response).
    let t = Instant::now();
    for (ch, got) in &replay_transcript {
        verifier
            .check_response(ch, *got, 1)
            .expect("honest round accepted");
    }
    let replay_wall = t.elapsed().as_secs_f64();

    // Bit-exactness: every bank pair matches an independent replay.
    for (ch, expected) in &bank_pairs {
        assert_eq!(
            *expected,
            expected_checksum(&build, ch),
            "bank pair diverged from replay"
        );
    }

    let round_speedup = replay_wall / bank_wall.max(1e-12);
    eprintln!("rounds: bank {bank_wall:.6}s vs replay {replay_wall:.6}s  ({round_speedup:.1}x)");

    // ---- 2. Montgomery vs reference modpow at MODP-2048 ----
    let group = DhGroup::modp_2048();
    let m = group.p.clone();
    let mont = Montgomery::new(&m).expect("MODP-2048 modulus is odd");
    let mut rng = Xorshift(seed | 1);
    let cases: Vec<(BigUint, BigUint)> = (0..reps)
        .map(|_| (rng.biguint(2040).rem(&m), rng.biguint(256)))
        .collect();

    let t = Instant::now();
    let reference: Vec<BigUint> = cases.iter().map(|(b, e)| b.modpow(e, &m)).collect();
    let old_wall = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let fast: Vec<BigUint> = cases.iter().map(|(b, e)| mont.modpow(b, e)).collect();
    let mont_wall = t.elapsed().as_secs_f64();

    assert_eq!(reference, fast, "Montgomery modpow diverged from reference");
    let modpow_speedup = old_wall / mont_wall.max(1e-12);
    eprintln!(
        "modpow-2048 x{reps}: reference {old_wall:.4}s vs Montgomery {mont_wall:.4}s  ({modpow_speedup:.1}x)"
    );

    // ---- 3. Pooled vs spawn-per-call replay (calibration loop) ----
    // Calibration replays sequentially, many times, on a small VF — the
    // shape where per-call thread spawning hurt most.
    let mut small = VfParams::test_tiny();
    small.grid_blocks = 8;
    small.iterations = 8;
    let small_build = build_vf(&small, 0x1000, seed as u32).expect("build small VF");
    let calib_challenges: Vec<Vec<[u8; 16]>> = (0..calib_runs)
        .map(|_| (0..small.grid_blocks).map(|_| rng.challenge()).collect())
        .collect();

    let pool = ReplayPool::global();
    let t = Instant::now();
    let pooled: Vec<[u32; 8]> = calib_challenges
        .iter()
        .map(|ch| expected_checksum_with_pool(&small_build, ch, pool))
        .collect();
    let pooled_wall = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let spawned: Vec<[u32; 8]> = calib_challenges
        .iter()
        .map(|ch| expected_checksum_unpooled(&small_build, ch))
        .collect();
    let spawn_wall = t.elapsed().as_secs_f64();

    assert_eq!(pooled, spawned, "pooled replay diverged from unpooled");
    let calib_speedup = spawn_wall / pooled_wall.max(1e-12);
    eprintln!(
        "calibration x{calib_runs}: pooled {pooled_wall:.4}s vs spawn {spawn_wall:.4}s  ({calib_speedup:.2}x)"
    );

    if gate {
        assert!(
            round_speedup >= 5.0,
            "bank-hit rounds only {round_speedup:.1}x faster than replay-online (need >= 5x)"
        );
        assert!(
            modpow_speedup >= 3.0,
            "Montgomery modpow only {modpow_speedup:.1}x faster than reference (need >= 3x)"
        );
        assert!(
            refill_speedup >= 5.0,
            "batched bank refill only {refill_speedup:.1}x faster than the scalar oracle (need >= 5x)"
        );
    }

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"seed\": {seed},\n  \"vf\": {{\"grid_blocks\": {}, \"block_threads\": {}, \"iterations\": {}}},\n",
        params.grid_blocks, params.block_threads, params.iterations
    ));
    out.push_str(&format!(
        "  \"rounds\": {{\"count\": {rounds}, \"prefill_wall_seconds\": {prefill_wall:.6}, \"scalar_refill_wall_seconds\": {scalar_refill_wall:.6}, \"refill_speedup\": {refill_speedup:.2}, \"bank_wall_seconds\": {bank_wall:.6}, \"replay_wall_seconds\": {replay_wall:.6}, \"speedup\": {round_speedup:.2}, \"bit_exact\": true}},\n"
    ));
    out.push_str(&format!(
        "  \"modpow_2048\": {{\"reps\": {reps}, \"reference_wall_seconds\": {old_wall:.6}, \"montgomery_wall_seconds\": {mont_wall:.6}, \"speedup\": {modpow_speedup:.2}, \"bit_exact\": true}},\n"
    ));
    out.push_str(&format!(
        "  \"calibration_replay\": {{\"runs\": {calib_runs}, \"pooled_wall_seconds\": {pooled_wall:.6}, \"spawn_wall_seconds\": {spawn_wall:.6}, \"speedup\": {calib_speedup:.2}, \"bit_exact\": true}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(&out_path, out).expect("write BENCH_fastpath.json");
    println!(
        "round speedup {round_speedup:.1}x, modpow speedup {modpow_speedup:.1}x, calibration speedup {calib_speedup:.2}x"
    );
    println!("wrote {out_path}");
}
