//! Every metric the benchmark reports: name, unit, better direction and,
//! for per-layer metrics, the end-to-end metric and workload it should
//! move plus the workload where it should not (`BENCHMARK.json` allows
//! only name, unit and direction; the mapping lives here).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric it should move, on which workload.
    pub moves: &'static str,
    /// Workload where it should show no change ("" when none applies).
    pub bypass: &'static str,
}

const fn e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    bypass: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        bypass,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e("setup_s", "s", "lower"),
    e("rounds_per_s_p10", "1/s", "higher"),
    e("step_ms_p90", "ms", "lower"),
    e("read_us_p90", "us", "lower"),
    e("scrape_ms_p50", "ms", "lower"),
    e("peak_rss_mib", "MiB", "lower"),
];

const STEADY: &str = "rounds_per_s_p10, step_ms_p90 on fleet-steady";
const AUDIT_OPS: &str = "failed and refused rounds on fleet-audit";

#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    l("service.join_us_p50", "us", "lower", "setup_s on every workload", ""),
    l("service.step_self_ms_p50", "ms", "lower", STEADY, "device-cycle"),
    l("service.outstanding_max", "count", "lower", AUDIT_OPS, "fleet-steady"),
    l("service.events_dropped", "count", "lower", AUDIT_OPS, "fleet-steady"),
    l("service.rounds_started", "count", "higher", AUDIT_OPS, "fleet-steady"),
    l("service.timeouts", "count", "lower", AUDIT_OPS, "fleet-steady"),
    l("service.rejects", "count", "lower", AUDIT_OPS, "fleet-steady"),
    l("service.restarts", "count", "lower", AUDIT_OPS, "fleet-steady"),
    l("service.quarantines", "count", "lower", AUDIT_OPS, "fleet-steady"),
    l("service.failed_share", "share", "lower", AUDIT_OPS, "fleet-steady"),
    l("net.send_ns", "ns", "lower", "rounds_per_s_p10 on fleet-steady", "link-uds"),
    l("net.drain_ns", "ns", "lower", "rounds_per_s_p10 on fleet-steady", "link-uds"),
    l("net.busy_share", "share", "lower", "rounds_per_s_p10 on fleet-steady", "link-uds"),
    l("net.frames_per_round", "count", "lower", "rounds_per_s_p10 on fleet-steady", "link-uds"),
    l("net.bytes_per_round", "B", "lower", "rounds_per_s_p10 on fleet-steady", "link-uds"),
    l("net.dropped", "count", "lower", "rounds_per_s_p10 on fleet-audit", "link-uds"),
    l("tcp.send_ns", "ns", "lower", "step_ms_p90, rounds_per_s_p10 on link-uds", "fleet-steady"),
    l("tcp.drain_ns", "ns", "lower", "step_ms_p90, rounds_per_s_p10 on link-uds", "fleet-steady"),
    l("tcp.wait_share", "share", "lower", "step_ms_p90, rounds_per_s_p10 on link-uds", "fleet-steady"),
    l("tcp.frames_shed", "count", "lower", "rounds_per_s_p10 on link-uds", "fleet-steady"),
    l("tcp.reconnects", "count", "lower", "rounds_per_s_p10 on link-uds", "fleet-steady"),
    l("tcp.rtt_us_p50", "us", "lower", "step_ms_p90 on link-uds", "fleet-steady"),
    l("tcp.rtt_us_p99", "us", "lower", "step_ms_p90 on link-uds", "fleet-steady"),
    l("wire.encode_ns", "ns", "lower", "step_ms_p90 on link-uds, rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("wire.decode_ns", "ns", "lower", "step_ms_p90 on link-uds, rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("wire.frame_bytes_p50", "B", "lower", "step_ms_p90 on link-uds, rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("core.sake_ms", "ms", "lower", "setup_s on device-cycle and fleet-steady", ""),
    l("core.calibrate_ms", "ms", "lower", "setup_s on device-cycle and fleet-steady", ""),
    l("core.check_response_us", "us", "lower", "rounds_per_s_p10 on fleet-steady", "link-uds"),
    l("gpu-sim.checksum_ms", "ms", "lower", "rounds_per_s_p10, step_ms_p90 on device-cycle", "fleet-steady"),
    l("gpu-sim.sim_cycles_per_s", "cycles/s", "higher", "rounds_per_s_p10, step_ms_p90 on device-cycle", "fleet-steady"),
    l("gpu-sim.stall_share", "share", "lower", "none: a modelled statistic a pure simulator speed-up leaves identical", "fleet-steady"),
    l("vf.replay_us", "us", "lower", "rounds_per_s_p10 on device-cycle, a little on fleet-steady", "link-uds"),
    l("vf.bank_hit_ratio", "share", "higher", "rounds_per_s_p10 on device-cycle", "link-uds"),
    l("evidence.append_us", "us", "lower", "rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("evidence.records_per_round", "count", "lower", "rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("evidence.seal_ms", "ms", "lower", "step_ms_p90, rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("evidence.prove_us", "us", "lower", "read_us_p90 on fleet-audit", "device-cycle"),
    l("evidence.verify_report_us", "us", "lower", "read_us_p90 on fleet-audit", "device-cycle"),
    l("evidence.report_bytes", "B", "lower", "read_us_p90 on fleet-audit", "device-cycle"),
    l("quorum.votes_per_round", "count", "lower", "rounds_per_s_p10 on fleet-audit", "fleet-steady"),
    l("quorum.disputes", "count", "lower", "rounds_per_s_p10 on fleet-audit", "fleet-steady"),
    l("sampling.skip_share", "share", "higher", "rounds_per_s_p10 on fleet-audit", "fleet-steady"),
    l("telemetry.series", "count", "lower", "scrape_ms_p50 on fleet-audit, peak_rss_mib on fleet-steady", "device-cycle"),
    l("telemetry.cost_share", "share", "lower", "rounds_per_s_p10 on fleet-steady", "device-cycle"),
    l("telemetry.rss_share", "share", "lower", "peak_rss_mib on fleet-steady", "device-cycle"),
    l("crypto.modpow_us", "us", "lower", "setup_s on every workload", ""),
    l("trace.coverage", "share", "higher", "none: attributed layer time over traced step wall", ""),
    l("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced step wall", ""),
];

/// `{"name": {"better": ...}, ...}` for the end-to-end metrics.
pub fn legend_end_to_end() -> String {
    let parts: Vec<String> = END_TO_END
        .iter()
        .map(|m| format!("\"{}\": {{\"better\": \"{}\"}}", m.name, m.better))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// `{"name": {"better": ..., "moves": ..., "bypass": ...}, ...}` for the
/// per-layer metrics: what each should move, and where it should not.
pub fn legend_layers() -> String {
    let parts: Vec<String> = LAYERS
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"better\": \"{}\", \"moves\": \"{}\", \"bypass\": \"{}\"}}",
                m.name, m.better, m.moves, m.bypass
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Renders `{"name": {"value": v, "unit": u}, ...}` for `names` in
/// table order, looking each value up in `values`. Panics on a missing
/// value: every listed metric must be measured.
pub fn render(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> String {
    let parts: Vec<String> = table
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// `BENCHMARK.json` lists exactly this table's metrics, with the same
    /// units and directions, each on its own line.
    #[test]
    fn benchmark_json_matches_table() {
        let json = benchmark_json();
        let lines: Vec<&str> = json.lines().map(str::trim).collect();
        let mut listed = 0;
        for m in END_TO_END {
            let prefix = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
                m.name, m.unit, m.better
            );
            assert!(
                lines.iter().any(|l| l.starts_with(&prefix)),
                "{} missing or different",
                m.name
            );
            listed += 1;
        }
        for m in LAYERS {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(
                lines.iter().any(|l| l.trim_end_matches(',') == line),
                "{} missing or different",
                m.name
            );
            listed += 1;
        }
        let in_file = lines
            .iter()
            .filter(|l| l.starts_with("{\"name\": "))
            .count();
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(
            in_file,
            listed + workloads,
            "BENCHMARK.json lists other metrics"
        );
        for w in crate::workload::Workload::ALL {
            let prefix = format!("{{\"name\": \"{}\", \"why\": ", w.name());
            assert!(lines.iter().any(|l| l.starts_with(&prefix)), "{}", w.name());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for b in END_TO_END
            .iter()
            .map(|m| m.better)
            .chain(LAYERS.iter().map(|m| m.better))
        {
            assert!(b == "lower" || b == "higher");
        }
    }

    #[test]
    fn render_keeps_table_order_and_digits() {
        let mut v = std::collections::BTreeMap::new();
        v.insert("b", 2.5);
        v.insert("a", 0.123456789);
        let s = render([("b", "ms"), ("a", "s")].into_iter(), &v);
        assert_eq!(
            s,
            "{\"b\": {\"value\": 2.5, \"unit\": \"ms\"}, \"a\": {\"value\": 0.123456789, \"unit\": \"s\"}}"
        );
    }
}
