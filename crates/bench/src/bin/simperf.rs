//! Simulator-core performance harness.
//!
//! Times the cycle-level simulator itself (not the modelled GPU) on
//! Table-1-style workloads — experiment 3's eviction-by-overflow SMC
//! checksum on the 8-SM `sim_large` device — in both execution modes:
//!
//! * `parallel` — per-SM worker threads + stall fast-forwarding
//!   (`ExecMode::Parallel`, the default),
//! * `sequential` — single-threaded tick-per-cycle reference
//!   (`ExecMode::Sequential`).
//!
//! Two schedule variants are measured, because the simulator's win from
//! stall fast-forwarding scales with how much latency the guest code
//! exposes (paper §7.1):
//!
//! * `sass-opt` — the hand-optimised software-pipelined schedule the
//!   deployed VF uses (Table 1's configuration),
//! * `ptx-naive` — the compiler-style schedule, where every dependent
//!   load exposes its full memory latency.
//!
//! All four runs are bit-exact across modes (see `tests/exec_modes.rs`);
//! this binary additionally cross-checks checksums and cycle counts
//! before reporting. Results go to `BENCH_sim.json` for CI trend
//! tracking.
//!
//! Usage:
//!   simperf [--sequential] [--iterations N] [--repeats N] [--out PATH]
//!           [--min-speedup X]
//!
//! `--sequential` measures only the reference mode (no speedup figures);
//! the default measures both and reports parallel-over-sequential
//! speedup per workload. `--iterations` scales the VF outer loop
//! (default 2; CI smoke uses 1). Each mode is run `--repeats` times
//! (default 5) and the best wall-clock is reported — the minimum is the
//! standard noise-robust estimator for a deterministic workload on a
//! shared machine. `--min-speedup X` (CI gate) exits non-zero unless the
//! ptx-naive workload's parallel-over-sequential speedup is at least
//! `X` — a within-run ratio, so the gate holds regardless of how fast
//! the host itself is.

use std::time::Instant;

use sage::GpuSession;
use sage_bench::UsageError;
use sage_gpu_sim::{Device, DeviceConfig, ExecMode, LaunchParams};
use sage_vf::{SmcMode, VfParams};

struct ModeResult {
    mode: &'static str,
    cycles: u64,
    wall_seconds: f64,
    cycles_per_sec: f64,
    checksum: [u32; 8],
}

struct WorkloadResult {
    label: &'static str,
    results: Vec<ModeResult>,
    speedup: Option<f64>,
}

fn workload(cfg: &DeviceConfig, iterations: u32, naive_schedule: bool) -> VfParams {
    // Experiment-3 shape at simulator scale: SMC with eviction by
    // overflow, ~8.3k-instruction loop, one warp per SM so the
    // instruction-fetch and memory stalls the paper's VF is built around
    // are fully exposed to the scheduler.
    VfParams {
        data_bytes: 64 * 1024 * 1024,
        unroll: 305,
        pattern_pairs: 10,
        iterations,
        smc: SmcMode::Evict,
        inner: None,
        grid_blocks: cfg.num_sms,
        block_threads: 32,
        naive_schedule,
        injected_nops: 0,
    }
}

fn challenges(n: u32) -> Vec<[u8; 16]> {
    (0..n)
        .map(|b| {
            let mut c = [0u8; 16];
            for (i, byte) in c.iter_mut().enumerate() {
                *byte = sage_vf::spec::splitmix32(b << 8 | i as u32) as u8;
            }
            c
        })
        .collect()
}

/// Runs `run_mode` `repeats` times and keeps the best wall-clock
/// (checksums and cycle counts are deterministic, so only timing
/// varies between repeats — asserted here).
fn run_mode_best(
    cfg: &DeviceConfig,
    params: &VfParams,
    mode: ExecMode,
    repeats: u32,
) -> ModeResult {
    let mut best: Option<ModeResult> = None;
    for _ in 0..repeats.max(1) {
        let r = run_mode(cfg, params, mode);
        if let Some(b) = &best {
            assert_eq!(b.checksum, r.checksum, "nondeterministic checksum");
            assert_eq!(b.cycles, r.cycles, "nondeterministic cycle count");
        }
        if best
            .as_ref()
            .is_none_or(|b| r.wall_seconds < b.wall_seconds)
        {
            best = Some(r);
        }
    }
    best.expect("at least one repeat")
}

/// Installs the VF fresh, runs the grid once in `mode` and returns the
/// measured wall-clock, simulated cycles and final checksum.
fn run_mode(cfg: &DeviceConfig, params: &VfParams, mode: ExecMode) -> ModeResult {
    let mut dev = Device::new(cfg.clone());
    dev.set_exec_mode(mode);
    let mut session = GpuSession::install(dev, params, 0xE11A).expect("install");
    let layout = session.build().layout;
    for (b, ch) in challenges(params.grid_blocks).iter().enumerate() {
        session
            .dev
            .memcpy_h2d(layout.challenge_addr(b as u32), ch)
            .expect("challenge upload");
    }
    session
        .dev
        .launch(LaunchParams {
            ctx: session.ctx,
            entry_pc: layout.entry_addr(),
            grid_dim: params.grid_blocks,
            block_dim: params.block_threads,
            regs_per_thread: session.build().regs_per_thread(),
            smem_bytes: session.build().smem_bytes(),
            params: vec![],
        })
        .expect("launch");

    let t0 = Instant::now();
    let report = session.dev.run().expect("run");
    let wall = t0.elapsed().as_secs_f64();

    let raw = session
        .dev
        .memcpy_d2h(layout.result_addr(), 32)
        .expect("result readback");
    let mut checksum = [0u32; 8];
    for (j, cell) in checksum.iter_mut().enumerate() {
        *cell = u32::from_le_bytes(raw[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
    }

    // "Cycles simulated" is the work the simulator core did: the sum of
    // every SM's local clock, not the max (an 8-SM device simulates 8
    // cycles of SM time per device cycle).
    let cycles: u64 = report.per_sm.iter().map(|(_, s)| s.cycles).sum();
    ModeResult {
        mode: match mode {
            ExecMode::Parallel => "parallel",
            ExecMode::Sequential => "sequential",
        },
        cycles,
        wall_seconds: wall,
        cycles_per_sec: cycles as f64 / wall.max(1e-9),
        checksum,
    }
}

/// Measures one workload in both modes (or sequential only), verifying
/// that the modes are bit-exact before reporting a speedup.
fn measure_workload(
    label: &'static str,
    cfg: &DeviceConfig,
    params: &VfParams,
    sequential_only: bool,
    repeats: u32,
) -> WorkloadResult {
    eprintln!("  [{label}]");
    let mut results = Vec::new();
    let mut speedup = None;
    if sequential_only {
        eprintln!("    sequential (reference)…");
        results.push(run_mode_best(cfg, params, ExecMode::Sequential, repeats));
    } else {
        eprintln!("    parallel (threads + fast-forward)…");
        let par = run_mode_best(cfg, params, ExecMode::Parallel, repeats);
        eprintln!(
            "      {:.2}s, {:.2e} cycles/s",
            par.wall_seconds, par.cycles_per_sec
        );
        eprintln!("    sequential (reference)…");
        let seq = run_mode_best(cfg, params, ExecMode::Sequential, repeats);
        eprintln!(
            "      {:.2}s, {:.2e} cycles/s",
            seq.wall_seconds, seq.cycles_per_sec
        );
        assert_eq!(
            par.checksum, seq.checksum,
            "execution modes diverged: checksums differ"
        );
        assert_eq!(
            par.cycles, seq.cycles,
            "execution modes diverged: simulated cycles differ"
        );
        speedup = Some(seq.wall_seconds / par.wall_seconds.max(1e-9));
        results.push(par);
        results.push(seq);
    }
    WorkloadResult {
        label,
        results,
        speedup,
    }
}

fn json_escape_free(s: &str) -> &str {
    // All strings we emit are static identifiers; keep the writer honest.
    assert!(!s.contains('"') && !s.contains('\\'), "unescapable: {s}");
    s
}

fn write_json(path: &str, cfg: &DeviceConfig, iterations: u32, workloads: &[WorkloadResult]) {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {},\n", sage_bench::host_stanza()));
    out.push_str(&format!(
        "  \"device\": \"{}\",\n  \"num_sms\": {},\n",
        json_escape_free(cfg.name),
        cfg.num_sms
    ));
    out.push_str(&format!(
        "  \"workload\": \"table1-exp3-smc-evict\",\n  \"grid_blocks\": {},\n  \"block_threads\": 32,\n  \"iterations\": {},\n",
        cfg.num_sms, iterations
    ));
    out.push_str("  \"workloads\": [\n");
    for (w_i, w) in workloads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"schedule\": \"{}\", \"modes\": [\n",
            json_escape_free(w.label)
        ));
        for (i, r) in w.results.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"mode\": \"{}\", \"cycles_simulated\": {}, \"wall_seconds\": {:.6}, \"cycles_per_sec\": {:.1}}}{}\n",
                json_escape_free(r.mode),
                r.cycles,
                r.wall_seconds,
                r.cycles_per_sec,
                if i + 1 < w.results.len() { "," } else { "" }
            ));
        }
        match w.speedup {
            Some(s) => out.push_str(&format!("    ], \"speedup\": {s:.2}}}")),
            None => out.push_str("    ], \"speedup\": null}"),
        }
        out.push_str(if w_i + 1 < workloads.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_sim.json");
}

fn main() {
    let mut sequential_only = false;
    let mut iterations = 2u32;
    let mut repeats = 5u32;
    let mut min_speedup = 0.0f64;
    let mut out_path = String::from("BENCH_sim.json");
    sage_bench::parse_args(
        "simperf [--sequential] [--iterations N] [--repeats N] [--out PATH] [--min-speedup X]",
        |flag, a| {
            match flag {
                "--sequential" => sequential_only = true,
                "--iterations" => iterations = a.value(flag)?,
                "--repeats" => repeats = a.value(flag)?,
                "--min-speedup" => min_speedup = a.value(flag)?,
                "--out" => out_path = a.value(flag)?,
                _ => return Err(UsageError::unknown(flag)),
            }
            Ok(())
        },
    );

    let mut cfg = DeviceConfig::sim_large();
    // Give the harness device room for a checksum region larger than the
    // modelled 40 MiB L2, so pattern loads run at DRAM latency — the
    // stall-dominated regime the fast-forward optimisation targets.
    cfg.gmem_bytes = 128 * 1024 * 1024;
    eprintln!(
        "simperf: {} ({} SMs), exp3-style SMC-Evict, {} blocks x 32 threads, {} iterations",
        cfg.name, cfg.num_sms, cfg.num_sms, iterations
    );

    let workloads = vec![
        measure_workload(
            "ptx-naive",
            &cfg,
            &workload(&cfg, iterations, true),
            sequential_only,
            repeats,
        ),
        measure_workload(
            "sass-opt",
            &cfg,
            &workload(&cfg, iterations, false),
            sequential_only,
            repeats,
        ),
    ];

    write_json(&out_path, &cfg, iterations, &workloads);
    for w in &workloads {
        for r in &w.results {
            println!(
                "{:<10} {:<10} {:>14} cycles  {:>8.3}s  {:>12.0} cycles/s",
                w.label, r.mode, r.cycles, r.wall_seconds, r.cycles_per_sec
            );
        }
        if let Some(s) = w.speedup {
            println!(
                "{:<10} speedup    {s:.2}x (parallel over sequential, bit-exact)",
                w.label
            );
        }
    }
    println!("wrote {out_path}");

    if min_speedup > 0.0 {
        let gated = workloads
            .iter()
            .find(|w| w.label == "ptx-naive")
            .and_then(|w| w.speedup)
            .expect("--min-speedup needs the two-mode ptx-naive measurement");
        assert!(
            gated >= min_speedup,
            "ptx-naive parallel mode only {gated:.2}x over sequential (need >= {min_speedup}x)"
        );
        eprintln!("gate: ptx-naive speedup {gated:.2}x >= {min_speedup}x — ok");
    }
}
