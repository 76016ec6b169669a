//! The measurement loop shared by every workload and mode.

use std::time::Instant;

use sage_service::{Counters, SimNet, TcpTransport, Transport};
use sage_telemetry::{MetricValue, Registry};

use crate::stats::{self, Ops, Samples};
use crate::tap::TapTrace;
use crate::workload::{self, read, Fleet, Mode, Step, Workload};

/// The figures of one fleet, in the units of the metrics they feed. A
/// run reports, for each, the median over its fleets; its gated tails
/// come from the fleets' pooled series instead (see `main::untraced`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetStats {
    pub setup_s: f64,
    /// Rounds passed over the whole steady wall.
    pub rounds_per_s: f64,
    pub step_ms_p50: f64,
    pub read_us_p50: f64,
    /// Peak resident set of the process that built and ran the fleet.
    pub peak_rss_mib: f64,
}

/// Everything measuring one fleet produced.
#[derive(Default)]
pub struct FleetResult {
    pub stats: FleetStats,
    pub join_us: Samples,
    pub step_self_ms: Samples,
    pub report_bytes: Samples,
    /// The fleet's timing series; a run pools them over its fleets.
    pub step_ms: Samples,
    /// Rounds passed per second of each step that passed any.
    pub step_rate: Samples,
    pub read_us: Samples,
    pub scrape_ms: Samples,
    pub steps: u64,
    pub step_wall_s: f64,
    /// Wall seconds of the measured loop (steps, reads and scrapes).
    pub measured_s: f64,
    pub ops: Ops,
    /// History digest after the last step.
    pub digest: [u8; 32],
    pub errors: Vec<String>,
    /// Traced fleets only: the per-layer raw numbers.
    pub layer: Option<LayerRaw>,
}

/// Counts and spans of one traced window, read from the program's
/// public surfaces after the run.
#[derive(Default)]
pub struct LayerRaw {
    pub counters: Counters,
    pub tap: TapTrace,
    pub net_dropped: u64,
    pub tcp_frames_shed: u64,
    pub tcp_reconnects: u64,
    pub rtt_ns: Vec<u64>,
    pub outstanding_max: u64,
    pub events_dropped: u64,
    pub records: u64,
    pub seals: u64,
    pub series: u64,
    pub stall_cycles: u64,
    pub slot_cycles: u64,
    pub bank_hits: u64,
    pub bank_misses: u64,
    pub probes: crate::probes::Probes,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of every series named `name` (counters, gauges, histogram sums).
pub fn series_sum<L>(collected: &[(String, L, MetricValue)], name: &str) -> u64 {
    collected
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| match v {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => *c,
            MetricValue::Histogram(h) => h.sum,
        })
        .sum()
}

fn delta(a: Counters, b: Counters) -> Counters {
    Counters {
        joins: b.joins - a.joins,
        leaves: b.leaves - a.leaves,
        rounds_started: b.rounds_started - a.rounds_started,
        rounds_passed: b.rounds_passed - a.rounds_passed,
        value_rejects: b.value_rejects - a.value_rejects,
        timing_rejects: b.timing_rejects - a.timing_rejects,
        timeouts: b.timeouts - a.timeouts,
        restarts: b.restarts - a.restarts,
        late_responses: b.late_responses - a.late_responses,
        quarantines: b.quarantines - a.quarantines,
        calibration_failures: b.calibration_failures - a.calibration_failures,
        freshness_transitions: b.freshness_transitions - a.freshness_transitions,
        epochs_sealed: b.epochs_sealed - a.epochs_sealed,
        link_downs: b.link_downs - a.link_downs,
        link_resumes: b.link_resumes - a.link_resumes,
        spotcheck_skips: b.spotcheck_skips - a.spotcheck_skips,
        quorum_disputes: b.quorum_disputes - a.quorum_disputes,
        verifier_suspects: b.verifier_suspects - a.verifier_suspects,
        relay_rejects: b.relay_rejects - a.relay_rejects,
    }
}

/// The transport's own counters a window reads.
pub trait TransportCounters {
    /// (net dropped, tcp frames shed, tcp reconnects)
    fn counts(&self) -> (u64, u64, u64);
    fn take_rtt(&self) -> Vec<u64>;
}

impl TransportCounters for SimNet {
    fn counts(&self) -> (u64, u64, u64) {
        let s = self.stats();
        (s.dropped + s.fault_dropped + s.window_dropped, 0, 0)
    }
    fn take_rtt(&self) -> Vec<u64> {
        Vec::new()
    }
}

impl TransportCounters for TcpTransport {
    fn counts(&self) -> (u64, u64, u64) {
        let s = self.stats();
        (0, s.frames_shed, s.reconnects)
    }
    fn take_rtt(&self) -> Vec<u64> {
        self.take_rtt_samples()
    }
}

fn scrape(reg: &Registry) -> (bool, f64) {
    let t = Instant::now();
    let text = reg.to_prometheus();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (text.contains("service_rounds_passed_total"), ms)
}

fn total_records<T: Transport>(f: &Fleet<T>) -> u64 {
    f.names
        .iter()
        .filter_map(|n| f.svc.evidence_of(n))
        .map(|c| c.seq())
        .sum()
}

/// Builds, warms up and measures one fleet of a workload (its fixed
/// steps, reads and scrapes), then checks it.
pub fn run(w: Workload, seed: u64, mode: Mode, run_dir: &std::path::Path) -> FleetResult {
    match w {
        Workload::LinkUds => measure(workload::build_link(seed, mode, run_dir)),
        _ => measure(workload::build_sim(w, seed, mode)),
    }
}

fn measure<T>(mut f: Fleet<T>) -> FleetResult
where
    T: Transport + TransportCounters,
    Fleet<T>: Step,
{
    let s = f.w.shape();
    let mut out = FleetResult::default();
    for &us in &f.join_us {
        out.join_us.push(us);
    }
    // Warm-up: the first rounds of every enrollment group, the first
    // epoch seals, and (fleet-audit) the cheaters' quarantine.
    for _ in 0..s.warmup_steps {
        f.step();
    }

    let traced = f.svc.transport().is_traced();
    let c0 = f.svc.log().counters();
    let (drop0, shed0, rec0) = f.svc.transport().inner().counts();
    let records0 = if traced { total_records(&f) } else { 0 };
    f.svc.transport().inner().take_rtt();
    f.svc.transport_mut().reset();
    let mut outstanding_max = 0u64;
    let (mut step_ms, mut read_us, mut scrape_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    // On fleet-steady about one step in five falls between enrollment
    // groups' rounds and passes none; it has no rate.
    let mut step_rate = Samples::default();
    let mut cursor = f.names.len() / 3;
    let measuring = Instant::now();
    for k in 1..=s.steps {
        let t0 = traced.then(|| f.svc.transport().clock());
        let passed = f.svc.log().counters().rounds_passed;
        let t = Instant::now();
        f.step();
        let dt = t.elapsed();
        step_ms.push(dt.as_secs_f64() * 1e3);
        let passed = f.svc.log().counters().rounds_passed - passed;
        if passed > 0 {
            step_rate.push(passed as f64 / dt.as_secs_f64());
        }
        out.step_wall_s += dt.as_secs_f64();
        if let Some(t0) = t0 {
            let spans = f.svc.transport().take_spans();
            let self_ns = stats::self_time((t0, t0 + dt.as_nanos() as u64), &spans);
            out.step_self_ms.push(self_ns as f64 / 1e6);
            outstanding_max = outstanding_max.max(f.svc.outstanding_rounds() as u64);
        }
        if k % s.read_every == 0 {
            for _ in 0..s.reads {
                cursor = (cursor + 7919) % f.names.len();
                let t = Instant::now();
                let got = read(&f.svc, &f.names[cursor]);
                read_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.ops.record(got.is_some());
                if let Some(bytes) = got {
                    out.report_bytes.push(bytes as f64);
                }
            }
        }
        let scrape_now = match s.scrape_every {
            0 => k == s.steps,
            n => k % n == 0,
        };
        if let (true, Some(reg)) = (scrape_now, &f.reg) {
            let (ok, ms) = scrape(reg);
            scrape_ms.push(ms);
            out.ops.record(ok);
        }
    }
    out.measured_s = measuring.elapsed().as_secs_f64();
    let window = delta(c0, f.svc.log().counters());
    let stats = (|| -> Result<FleetStats, String> {
        Ok(FleetStats {
            setup_s: f.setup_s,
            rounds_per_s: window.rounds_passed as f64 / out.step_wall_s,
            step_ms_p50: step_ms.median()?,
            read_us_p50: read_us.median()?,
            peak_rss_mib: 0.0,
        })
    })();
    match stats {
        Ok(st) => out.stats = st,
        Err(e) => out.errors.push(e),
    }
    out.steps = s.steps;
    (out.step_ms, out.step_rate, out.read_us, out.scrape_ms) =
        (step_ms, step_rate, read_us, scrape_ms);
    out.digest = f.digest();
    eprintln!(
        "perfbench: {} fleet: set-up {:.3} s, {} steps in {:.3} s, {:.0} rounds/s",
        f.w.name(),
        f.setup_s,
        s.steps,
        out.step_wall_s,
        out.stats.rounds_per_s,
    );
    if traced {
        let (drop1, shed1, rec1) = f.svc.transport().inner().counts();
        let rtt_ns = f.svc.transport().inner().take_rtt();
        let collected = f.reg.as_ref().map(|r| r.collect()).unwrap_or_default();
        let mut tap = std::mem::take(f.svc.transport_mut().trace_mut().expect("traced"));
        let probes = crate::probes::run(&f, &tap.captured, f.seed);
        tap.captured.clear();
        out.layer = Some(LayerRaw {
            counters: window,
            tap,
            net_dropped: drop1 - drop0,
            tcp_frames_shed: shed1 - shed0,
            tcp_reconnects: rec1 - rec0,
            rtt_ns,
            outstanding_max,
            events_dropped: f.svc.log().events_dropped(),
            records: total_records(&f) - records0,
            seals: window.epochs_sealed,
            series: collected.len() as u64,
            stall_cycles: series_sum(&collected, "sim_stall_cycles_total"),
            slot_cycles: series_sum(&collected, "sim_slot_cycles_total"),
            bank_hits: series_sum(&collected, "vf_bank_hits_total"),
            bank_misses: series_sum(&collected, "vf_bank_misses_total"),
            probes,
        });
    }
    // Every started round is an operation; one fails when its verdict
    // is wrong, i.e. a planted cheater passed.
    let fa = f.false_accepts();
    out.ops.add(window.rounds_started.max(fa), fa);
    out.errors.extend(f.check());
    out.stats.peak_rss_mib = peak_rss_mib();
    f.shutdown();
    out
}
