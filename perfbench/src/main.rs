//! End-to-end attestation benchmark.
//!
//! Usage:
//!   sage-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!
//! A run is a series of passes, each a child process that builds one
//! fleet of the workload from the seed, warms it up and steps it a fixed
//! number of steps, with the workload's operator reads and scrapes
//! riding along. Every pass of a run must reach a byte-identical history.
//!
//! `--trace 0` runs untraced passes (telemetry on, no spans) until `S`
//! seconds have been measured, at least three, and reports the
//! end-to-end metrics: set-up time and peak memory as medians over the
//! passes, throughput and latency from the timing series of all passes
//! pooled (the p10 step rate, p90 step and read times, median scrape
//! time). `--trace 1` runs six passes,
//! plain, traced (transport spans, then layer probes) and detached (no
//! telemetry), each twice, and reports the per-layer metrics.
//!
//! The last stdout line is the result object; the line before it is a
//! report with the host, seed, sample counts, history digest and what
//! each metric should move. Exit status is non-zero when a correctness
//! or determinism check fails.

mod measure;
mod metrics;
mod probes;
mod stats;
mod tap;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use workload::{Mode, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child pass of a traced run (internal).
    pass: Option<Mode>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sage-perfbench --workload fleet-steady|fleet-audit|link-uds|device-cycle --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pass = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--pass" => {
                pass = Some(match value.as_str() {
                    "plain" => Mode::Plain,
                    "traced" => Mode::Traced,
                    "detached" => Mode::Detached,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds) {
        (Some(workload), Some(seed), Some(seconds)) => Args {
            workload,
            seed,
            seconds,
            trace: trace.unwrap_or(false),
            pass,
        },
        _ => usage(),
    }
}

fn host_stanza() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\": {cores}, \"rustc\": \"{}\"}}",
        rustc.escape_default()
    )
}

fn hex(d: &[u8; 32]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// The sockets directory (relative to the working directory, which
/// keeps Unix socket paths short).
fn run_dir() -> PathBuf {
    Path::new(".bench_build").join("perfbench-run")
}

/// Prints the report line and the result line; exits 1 on failure.
fn finish(
    args: &Args,
    ops: stats::Ops,
    errors: &[String],
    samples: &[(&str, usize)],
    digests: &[(&str, String)],
    metrics: String,
    legend: String,
) -> ! {
    for e in errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let samples: Vec<String> = samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    let digests: Vec<String> = digests
        .iter()
        .map(|(k, d)| format!("\"{k}\": \"{d}\""))
        .collect();
    println!(
        "{{\"report\": {{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"samples\": {{{}}}, \"digests\": {{{}}}, \"errors\": {}, \"metrics\": {legend}}}}}",
        host_stanza(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        samples.join(", "),
        digests.join(", "),
        errors.len()
    );
    let correct = errors.is_empty() && ops.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ops.attempted.max(1),
        ops.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Fleets an untraced run measures at least: set-up samples, and the
/// repeats the determinism check compares.
const MIN_FLEETS: usize = 3;

/// An untraced run adds no fleet after this long (a run must end within
/// 180 s).
const ADD_FLEETS_FOR: Duration = Duration::from_secs(100);

/// The figures every fleet reports.
const FLEET_FIGURES: [&str; 5] = [
    "setup_s",
    "peak_rss_mib",
    "rounds_per_s",
    "step_ms_p50",
    "read_us_p50",
];

/// Figures reported beside the metrics but not gated, each the median
/// over a run's fleets. They follow the host's speed from run to run:
/// it switches between regimes about 1.5x apart for seconds to minutes
/// at a time, and a median or mean follows the mix of regimes in a run.
const UNGATED: [&str; 3] = ["rounds_per_s", "step_ms_p50", "read_us_p50"];

/// The timing series every fleet prints. A run pools them over its
/// fleets and gates throughput and latency at their slow tail (the step
/// rate 90 % of steps reach, p90 step and read times), which stays with
/// the slower regime as long as a tenth of the run saw it.
const SERIES: [&str; 4] = ["step_ms", "step_rate", "read_us", "scrape_ms"];

/// Each fleet runs in a process of its own, so memory layout and
/// allocator state are fresh for every fleet and average out over a run.
fn untraced(args: &Args) -> ! {
    let started = Instant::now();
    let mut fleets = Vec::new();
    let mut measured = 0.0;
    while fleets.len() < MIN_FLEETS
        || (measured < args.seconds as f64 && started.elapsed() < ADD_FLEETS_FOR)
    {
        let kv = spawn_pass(args, "plain");
        measured += num(&kv, "measured_s");
        fleets.push(("plain", kv));
    }
    let (ops, mut errors) = check_passes(&fleets);
    if !errors.is_empty() {
        finish(args, ops, &errors, &[], &[], "{}".into(), "{}".into());
    }
    let median = |k: &str| {
        let mut s = stats::Samples::default();
        for (_, kv) in &fleets {
            s.push(num(kv, k));
        }
        s.median().expect("fleets")
    };
    let pooled: BTreeMap<&str, stats::Samples> = SERIES
        .iter()
        .map(|&k| {
            let mut s = stats::Samples::default();
            for (_, kv) in &fleets {
                for x in kv[k].split_whitespace() {
                    s.push(x.parse().expect("sample"));
                }
            }
            (k, s)
        })
        .collect();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("setup_s", median("setup_s"));
    v.insert("peak_rss_mib", median("peak_rss_mib"));
    for (name, series, q) in [
        ("rounds_per_s_p10", "step_rate", 0.1),
        ("step_ms_p90", "step_ms", 0.9),
        ("read_us_p90", "read_us", 0.9),
        ("scrape_ms_p50", "scrape_ms", 0.5),
    ] {
        match pooled[series].pct(q) {
            Ok(x) => {
                v.insert(name, x);
            }
            Err(e) => errors.push(format!("{name}: {e}")),
        }
    }
    if !errors.is_empty() {
        finish(args, ops, &errors, &[], &[], "{}".into(), "{}".into());
    }
    let metrics = metrics::render(metrics::END_TO_END.iter().map(|m| (m.name, m.unit)), &v);
    let ungated: Vec<String> = UNGATED
        .iter()
        .map(|&k| format!("\"{k}\": {}", median(k)))
        .collect();
    let legend = format!(
        "{}, \"ungated\": {{{}}}",
        metrics::legend_end_to_end(),
        ungated.join(", ")
    );
    finish(
        args,
        ops,
        &errors,
        &[
            ("fleets", fleets.len()),
            ("steps", pooled["step_ms"].len()),
            ("rate_steps", pooled["step_rate"].len()),
            ("reads", pooled["read_us"].len()),
            ("scrapes", pooled["scrape_ms"].len()),
        ],
        &[("fleet", fleets[0].1["digest"].clone())],
        metrics,
        legend,
    );
}

/// One pass: measures one fleet in this process and prints `@ key value`
/// lines for the parent run.
fn child(args: &Args, mode: Mode) {
    let r = measure::run(args.workload, args.seed, mode, &run_dir());
    for e in &r.errors {
        eprintln!("perfbench: CHECK FAILED ({mode:?} pass): {e}");
    }
    let st = &r.stats;
    let figures = [
        st.setup_s,
        st.peak_rss_mib,
        st.rounds_per_s,
        st.step_ms_p50,
        st.read_us_p50,
    ];
    for (k, x) in FLEET_FIGURES.iter().zip(figures) {
        println!("@ {k} {x}");
    }
    for (k, series) in SERIES
        .iter()
        .zip([&r.step_ms, &r.step_rate, &r.read_us, &r.scrape_ms])
    {
        let values: Vec<String> = series.values().iter().map(f64::to_string).collect();
        println!("@ {k} {}", values.join(" "));
    }
    println!("@ steps {}", r.steps);
    println!("@ measured_s {}", r.measured_s);
    println!("@ step_wall_s {}", r.step_wall_s);
    println!("@ digest {}", hex(&r.digest));
    println!("@ errors {}", r.errors.len());
    println!("@ attempted {}", r.ops.attempted);
    println!("@ failed {}", r.ops.failed);
    if let Some(layer) = &r.layer {
        let (values, attributed_ns) = layer_metrics(args.workload, &r, layer);
        for (k, x) in values {
            println!("@ {k} {x}");
        }
        println!("@ attributed_ns {attributed_ns}");
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics a traced pass can compute alone, and the wall time
/// (ns) its spans and probes attribute to named layers.
fn layer_metrics(
    w: Workload,
    r: &measure::FleetResult,
    raw: &measure::LayerRaw,
) -> (BTreeMap<&'static str, f64>, f64) {
    let c = &raw.counters;
    let p = &raw.probes;
    let t = &raw.tap;
    let rounds = c.rounds_started.max(1) as f64;
    let wall_ns = r.step_wall_s * 1e9;
    let rejects = c.value_rejects + c.timing_rejects + c.relay_rejects;
    let mut v = BTreeMap::new();
    let med = |s: &stats::Samples| s.median().unwrap_or(0.0);
    v.insert("service.join_us_p50", med(&r.join_us));
    v.insert("service.step_self_ms_p50", med(&r.step_self_ms));
    v.insert("service.outstanding_max", raw.outstanding_max as f64);
    v.insert("service.events_dropped", raw.events_dropped as f64);
    v.insert("service.rounds_started", c.rounds_started as f64);
    v.insert("service.timeouts", c.timeouts as f64);
    v.insert("service.rejects", rejects as f64);
    v.insert("service.restarts", c.restarts as f64);
    v.insert("service.quarantines", c.quarantines as f64);
    let refused = stats::Ops {
        attempted: c.rounds_started,
        failed: c.timeouts + rejects,
    };
    v.insert("service.failed_share", refused.failed_share());

    let (sock, sim) = if w == Workload::LinkUds {
        (1.0, 0.0)
    } else {
        (0.0, 1.0)
    };
    let send_ns = ratio(t.send_ns as f64, t.sends as f64);
    let drain_ns = ratio(t.drain_ns as f64, t.drains as f64);
    v.insert("net.send_ns", sim * send_ns);
    v.insert("net.drain_ns", sim * drain_ns);
    v.insert("net.busy_share", sim * t.busy_ns() as f64 / wall_ns);
    v.insert("net.frames_per_round", sim * t.sends as f64 / rounds);
    v.insert("net.bytes_per_round", sim * t.send_bytes as f64 / rounds);
    v.insert("net.dropped", raw.net_dropped as f64);
    v.insert("tcp.send_ns", sock * send_ns);
    v.insert("tcp.drain_ns", sock * drain_ns);
    v.insert("tcp.wait_share", t.wait_ns as f64 / wall_ns);
    v.insert("tcp.frames_shed", raw.tcp_frames_shed as f64);
    v.insert("tcp.reconnects", raw.tcp_reconnects as f64);
    let mut rtt = stats::Samples::default();
    for &ns in &raw.rtt_ns {
        rtt.push(ns as f64 / 1e3);
    }
    v.insert("tcp.rtt_us_p50", rtt.pct(0.5).unwrap_or(0.0));
    v.insert("tcp.rtt_us_p99", rtt.pct(0.99).unwrap_or(0.0));

    v.insert("wire.encode_ns", p.encode_ns);
    v.insert("wire.decode_ns", p.decode_ns);
    v.insert("wire.frame_bytes_p50", p.frame_bytes_p50);
    v.insert("core.sake_ms", p.sake_ns / 1e6);
    v.insert("core.calibrate_ms", p.calibrate_ns / 1e6);
    v.insert("core.check_response_us", p.check_ns / 1e3);
    v.insert("gpu-sim.checksum_ms", p.checksum_ns / 1e6);
    v.insert("gpu-sim.sim_cycles_per_s", p.sim_cycles_per_s);
    v.insert(
        "gpu-sim.stall_share",
        ratio(raw.stall_cycles as f64, raw.slot_cycles as f64),
    );
    v.insert("vf.replay_us", p.replay_ns / 1e3);
    v.insert(
        "vf.bank_hit_ratio",
        ratio(
            raw.bank_hits as f64,
            (raw.bank_hits + raw.bank_misses) as f64,
        ),
    );
    v.insert("evidence.append_us", p.append_ns / 1e3);
    v.insert("evidence.records_per_round", raw.records as f64 / rounds);
    v.insert("evidence.seal_ms", p.seal_ns / 1e6);
    v.insert("evidence.prove_us", p.prove_ns / 1e3);
    v.insert("evidence.verify_report_us", p.verify_report_ns / 1e3);
    v.insert("evidence.report_bytes", med(&r.report_bytes));
    let verifiers = workload::verifiers(w);
    let verdicts = c.rounds_passed + rejects + c.timeouts;
    let votes = if verifiers > 1 {
        verifiers * verdicts
    } else {
        0
    };
    v.insert("quorum.votes_per_round", votes as f64 / rounds);
    v.insert("quorum.disputes", c.quorum_disputes as f64);
    v.insert(
        "sampling.skip_share",
        ratio(
            c.spotcheck_skips as f64,
            (c.rounds_started + c.spotcheck_skips) as f64,
        ),
    );
    v.insert("telemetry.series", raw.series as f64);
    v.insert("crypto.modpow_us", p.modpow_ns / 1e3);

    // Attribution: spans measured directly, plus per-call probe costs
    // times the run's call counts. On link-uds the device checksum runs
    // on the link threads while the service blocks in `wait_activity`,
    // which the wait spans already cover.
    let rounds = c.rounds_started as f64;
    let device = match w {
        Workload::LinkUds => 0.0,
        Workload::DeviceCycle => rounds * p.checksum_ns,
        _ => rounds * p.replay_ns,
    };
    let verdict = match w {
        // Bank on: the refill replays inline, the verdict compares.
        Workload::DeviceCycle => rounds * (p.check_ns + p.replay_ns),
        _ => rounds * p.check_ns,
    };
    let attributed = (t.busy_ns() + t.wait_ns) as f64
        + t.sends as f64 * p.encode_ns
        + t.drained as f64 * p.decode_ns
        + device
        + verdict
        + raw.records as f64 * p.append_ns
        + raw.seals as f64 * p.seal_ns;
    (v, attributed)
}

/// Runs one child pass and collects its `@ key value` lines.
fn spawn_pass(args: &Args, pass: &str) -> BTreeMap<String, String> {
    let exe = std::env::current_exe().expect("own executable");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--pass",
        pass,
    ]);
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn pass");
    let mut kv = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(rest) = line.strip_prefix("@ ") {
            if let Some((k, val)) = rest.split_once(' ') {
                kv.insert(k.to_string(), val.to_string());
            }
        }
    }
    if !out.status.success() {
        kv.insert("errors".into(), "1".into());
        eprintln!("perfbench: {pass} pass exited with {}", out.status);
    }
    kv
}

fn num(kv: &BTreeMap<String, String>, k: &str) -> f64 {
    kv.get(k).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
}

/// The child passes of a traced run: each mode twice, the second round
/// reversed, so no mode always runs first.
const PASSES: [&str; 6] = ["plain", "traced", "detached", "detached", "traced", "plain"];

/// Operations, failures and check failures of a run's passes; every
/// pass must reach the same history.
fn check_passes(passes: &[(&str, BTreeMap<String, String>)]) -> (stats::Ops, Vec<String>) {
    let mut errors = Vec::new();
    let mut ops = stats::Ops::default();
    for (name, kv) in passes {
        if num(kv, "errors") != 0.0 {
            errors.push(format!("{name} pass failed its checks"));
        }
        let (attempted, failed) = (num(kv, "attempted"), num(kv, "failed"));
        if attempted.is_finite() && failed.is_finite() {
            ops.add(attempted as u64, failed as u64);
        }
    }
    let digest = |kv: &BTreeMap<String, String>| kv.get("digest").cloned().unwrap_or_default();
    let first = digest(&passes[0].1);
    if first.is_empty() || passes.iter().any(|(_, kv)| digest(kv) != first) {
        errors.push("fleets built from one seed reached different histories".into());
    }
    (ops, errors)
}

fn traced(args: &Args) -> ! {
    let runs: Vec<(&str, BTreeMap<String, String>)> =
        PASSES.iter().map(|&p| (p, spawn_pass(args, p))).collect();
    let (ops, mut errors) = check_passes(&runs);
    let pass = |mode: &str| &runs.iter().find(|(p, _)| *p == mode).expect("pass").1;
    // Per mode, the lower of its two step-time medians: the least
    // disturbed of its runs.
    let best = |mode: &str, key: &str| {
        runs.iter()
            .filter(|(p, _)| *p == mode)
            .map(|(_, kv)| num(kv, key))
            .fold(f64::INFINITY, f64::min)
    };
    let traced = pass("traced");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for m in metrics::LAYERS {
        if let Some(x) = traced.get(m.name).and_then(|s| s.parse().ok()) {
            v.insert(m.name, x);
        }
    }
    let plain_ms = best("plain", "step_ms_p50");
    let cost_share = 1.0 - best("detached", "step_ms_p50") / plain_ms;
    v.insert("telemetry.cost_share", cost_share);
    v.insert(
        "telemetry.rss_share",
        1.0 - best("detached", "peak_rss_mib") / best("plain", "peak_rss_mib"),
    );
    v.insert(
        "trace.overhead_ratio",
        best("traced", "step_ms_p50") / plain_ms,
    );
    v.insert(
        "trace.coverage",
        num(traced, "attributed_ns") / 1e9 / num(traced, "step_wall_s") + cost_share.max(0.0),
    );
    let missing: Vec<&str> = metrics::LAYERS
        .iter()
        .map(|m| m.name)
        .filter(|n| !v.get(n).is_some_and(|x| x.is_finite()))
        .collect();
    if !missing.is_empty() {
        errors.push(format!(
            "per-layer metrics not measured: {}",
            missing.join(", ")
        ));
    }
    if !errors.is_empty() {
        finish(args, ops, &errors, &[], &[], "{}".into(), "{}".into());
    }
    let metrics = metrics::render(metrics::LAYERS.iter().map(|m| (m.name, m.unit)), &v);
    finish(
        args,
        ops,
        &errors,
        &[
            ("passes", runs.len()),
            ("steps", num(traced, "steps") as usize),
        ],
        &[("fleet", traced["digest"].clone())],
        metrics,
        metrics::legend_layers(),
    );
}

fn main() {
    let args = parse_args();
    match (args.pass, args.trace) {
        (Some(mode), _) => child(&args, mode),
        (None, false) => untraced(&args),
        (None, true) => traced(&args),
    }
}
