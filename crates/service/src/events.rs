//! Structured event log and counters — the control plane's observability
//! surface, exported as JSON for dashboards and the `svcperf` benchmark.

use std::collections::HashMap;

use sage_evidence::Freshness;
use sage_telemetry::{Counter, Histogram, Registry};

use crate::service::DeviceState;

/// Why a round failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailReason {
    /// The checksum value did not match the verifier's replay.
    WrongValue,
    /// The reported exchange time exceeded `T_avg + k·σ`.
    TooSlow,
    /// No response arrived before the round deadline.
    Timeout,
    /// The deadline expired while the device's transport link was
    /// known-down. Recoverable: appends no evidence and burns no
    /// failure budget — a severed cable is not a cheating GPU.
    LinkDown,
    /// The response's wire share (wall elapsed minus reported compute)
    /// exceeded the relay gate: the checksum was outsourced through a
    /// proxy paying two link round trips. Never restartable — topology
    /// does not flap the way timing noise does.
    Relay,
}

impl FailReason {
    /// Stable string tag used in the JSON export.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailReason::WrongValue => "wrong_value",
            FailReason::TooSlow => "too_slow",
            FailReason::Timeout => "timeout",
            FailReason::LinkDown => "link_down",
            FailReason::Relay => "relay",
        }
    }
}

/// One lifecycle event of a managed device.
#[derive(Clone, PartialEq, Debug)]
pub enum EventKind {
    /// The device joined the fleet.
    Joined,
    /// Timing calibration failed during enrollment.
    CalibrationFailed,
    /// Key establishment failed during enrollment.
    EstablishFailed,
    /// The device transitioned between lifecycle states.
    StateChanged {
        /// Previous state.
        from: DeviceState,
        /// New state.
        to: DeviceState,
    },
    /// A re-attestation round was dispatched.
    RoundStarted {
        /// Round number.
        round: u64,
    },
    /// A round passed both verdicts.
    RoundPassed {
        /// Round number.
        round: u64,
        /// Measured exchange time in cycles.
        measured: u64,
    },
    /// A round failed.
    RoundFailed {
        /// Round number.
        round: u64,
        /// Failure classification.
        reason: FailReason,
    },
    /// A timing-only reject was answered with a restart (the paper's
    /// false-positive rule).
    Restarted {
        /// Round number that was restarted.
        round: u64,
    },
    /// A response arrived for a round that is no longer outstanding
    /// (late, duplicated, or replayed) and was ignored.
    LateResponse {
        /// The round number the response claimed.
        round: u64,
    },
    /// The device left the fleet (operator revocation).
    Left,
    /// The device's freshness level changed (decay without
    /// re-attestation, or recovery when a stage passed again).
    FreshnessChanged {
        /// Previous level.
        from: Freshness,
        /// New level.
        to: Freshness,
    },
    /// A fleet evidence epoch was sealed: a Merkle root over every
    /// device's chain head (recorded under the synthetic device name
    /// `"fleet"`).
    EpochSealed {
        /// Epoch index (first sealed epoch is 1).
        epoch: u64,
        /// The sealed Merkle root.
        root: [u8; 32],
    },
    /// The device's transport link went down (connection severed or
    /// heartbeats missed). Trust drops to `Degraded`, never
    /// `Quarantined` — the attestation record is untouched.
    LinkDown,
    /// The device's transport link resumed (session resume, not
    /// re-enrollment); any outstanding challenge is re-sent.
    LinkResumed,
    /// The spot-check plan left this device out of the current epoch's
    /// sample: the due round was skipped and the device sleeps until
    /// the next epoch boundary. Only `Trusted` devices are skippable —
    /// suspects under investigation always attest.
    SpotCheckSkipped {
        /// The sampling epoch that excluded the device.
        epoch: u64,
    },
    /// The verifier quorum did not vote unanimously on this round's
    /// verdict (the outcome stands — see `crate::quorum`).
    QuorumDisputed {
        /// Round number voted on.
        round: u64,
        /// Valid `Pass` ballots.
        accepts: u16,
        /// Valid non-`Pass` ballots.
        rejects: u16,
    },
    /// A verifier replica dissented from the quorum outcome and is now
    /// flagged suspect.
    VerifierSuspected {
        /// The dissenting replica's index.
        verifier: u16,
        /// Round number it dissented on.
        round: u64,
    },
}

/// A timestamped, per-device event.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    /// Virtual time the event occurred at.
    pub at: u64,
    /// Device name.
    pub device: String,
    /// What happened.
    pub kind: EventKind,
}

/// Aggregate counters, maintained as events are recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Devices that joined.
    pub joins: u64,
    /// Devices that left.
    pub leaves: u64,
    /// Rounds dispatched.
    pub rounds_started: u64,
    /// Rounds that passed.
    pub rounds_passed: u64,
    /// Rounds rejected on checksum value.
    pub value_rejects: u64,
    /// Rounds rejected on timing.
    pub timing_rejects: u64,
    /// Rounds that timed out.
    pub timeouts: u64,
    /// False-positive restarts issued.
    pub restarts: u64,
    /// Late/duplicate/replayed responses ignored.
    pub late_responses: u64,
    /// Devices quarantined.
    pub quarantines: u64,
    /// Enrollment calibration failures.
    pub calibration_failures: u64,
    /// Freshness-level transitions (decay or recovery).
    pub freshness_transitions: u64,
    /// Fleet evidence epochs sealed.
    pub epochs_sealed: u64,
    /// Transport links lost (sever or heartbeat exhaustion).
    pub link_downs: u64,
    /// Transport links resumed without re-enrollment.
    pub link_resumes: u64,
    /// Rounds skipped by the spot-check sampling plan.
    pub spotcheck_skips: u64,
    /// Quorum votes with at least one dissenting ballot.
    pub quorum_disputes: u64,
    /// Dissenting verifier-replica ballots flagged.
    pub verifier_suspects: u64,
    /// Rounds rejected by the relay/topology detector.
    pub relay_rejects: u64,
}

// A counter added to the struct but not to the field table would be
// silently dropped from the JSON and the snapshot; this fails the build.
const _: () = assert!(std::mem::size_of::<Counters>() == 19 * 8);

impl Counters {
    /// Every counter as `(name, value)`, in declaration order: the one
    /// field table the JSON rendering and the snapshot codec share.
    pub fn fields(&self) -> [(&'static str, u64); 19] {
        let mut c = *self;
        c.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Every counter as `(name, &mut value)`, in [`Counters::fields`]
    /// order.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 19] {
        [
            ("joins", &mut self.joins),
            ("leaves", &mut self.leaves),
            ("rounds_started", &mut self.rounds_started),
            ("rounds_passed", &mut self.rounds_passed),
            ("value_rejects", &mut self.value_rejects),
            ("timing_rejects", &mut self.timing_rejects),
            ("timeouts", &mut self.timeouts),
            ("restarts", &mut self.restarts),
            ("late_responses", &mut self.late_responses),
            ("quarantines", &mut self.quarantines),
            ("calibration_failures", &mut self.calibration_failures),
            ("freshness_transitions", &mut self.freshness_transitions),
            ("epochs_sealed", &mut self.epochs_sealed),
            ("link_downs", &mut self.link_downs),
            ("link_resumes", &mut self.link_resumes),
            ("spotcheck_skips", &mut self.spotcheck_skips),
            ("quorum_disputes", &mut self.quorum_disputes),
            ("verifier_suspects", &mut self.verifier_suspects),
            ("relay_rejects", &mut self.relay_rejects),
        ]
    }
}

/// Round-latency distribution over passed rounds, in virtual ticks
/// (nearest-rank percentiles — reproducible for a fixed seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Passed rounds measured.
    pub samples: usize,
    /// Median round latency.
    pub p50: u64,
    /// 90th-percentile round latency.
    pub p90: u64,
    /// 99th-percentile round latency.
    pub p99: u64,
}

/// Rounds started and not yet over: each device's `(round,
/// started_at)`. A device has at most one round outstanding, so pairing
/// a `RoundPassed` with its `RoundStarted` is one map lookup, and a
/// round that fails or whose device leaves is dropped — the map holds
/// only rounds in flight.
#[derive(Default)]
struct OpenRounds(HashMap<String, (u64, u64)>);

impl OpenRounds {
    /// Feeds one event; returns the latency of a round it passes.
    fn observe(&mut self, at: u64, device: &str, kind: &EventKind) -> Option<u64> {
        match *kind {
            EventKind::RoundStarted { round } => {
                self.0.insert(device.to_string(), (round, at));
                None
            }
            EventKind::RoundPassed { round, .. } => self.end(device, round).map(|s| at - s),
            EventKind::RoundFailed { round, .. } => {
                self.end(device, round);
                None
            }
            EventKind::Left => {
                self.0.remove(device);
                None
            }
            _ => None,
        }
    }

    /// Closes `device`'s open round if it is `round`; returns its start.
    fn end(&mut self, device: &str, round: u64) -> Option<u64> {
        let &(open, started) = self.0.get(device)?;
        (open == round).then(|| {
            self.0.remove(device);
            started
        })
    }
}

/// The telemetry sink mirroring [`Counters`] into registry series,
/// plus a virtual-tick round-latency histogram fed by pairing each
/// `RoundStarted` with its `RoundPassed` (the same pairing
/// [`EventLog::round_latencies`] computes after the fact).
struct LogTelemetry {
    joins: Counter,
    leaves: Counter,
    rounds_started: Counter,
    rounds_passed: Counter,
    /// Failures by [`FailReason`] discriminant order.
    round_failed: [Counter; 5],
    restarts: Counter,
    late_responses: Counter,
    quarantines: Counter,
    calibration_failures: Counter,
    /// Freshness transitions by destination level ([`Freshness`]
    /// discriminant order: trusted, stale, degraded).
    freshness_transitions: [Counter; 3],
    epochs_sealed: Counter,
    link_downs: Counter,
    link_resumes: Counter,
    spotcheck_skips: Counter,
    quorum_disputes: Counter,
    verifier_suspects: Counter,
    /// Events evicted from the bounded in-memory ring.
    events_dropped: Counter,
    round_latency: Histogram,
    open_rounds: OpenRounds,
}

impl LogTelemetry {
    fn new(reg: &Registry) -> LogTelemetry {
        LogTelemetry {
            joins: reg.counter("service_devices_joined_total", &[]),
            leaves: reg.counter("service_devices_left_total", &[]),
            rounds_started: reg.counter("service_rounds_started_total", &[]),
            rounds_passed: reg.counter("service_rounds_passed_total", &[]),
            round_failed: [
                FailReason::WrongValue,
                FailReason::TooSlow,
                FailReason::Timeout,
                FailReason::LinkDown,
                FailReason::Relay,
            ]
            .map(|r| reg.counter("service_rounds_failed_total", &[("reason", r.as_str())])),
            restarts: reg.counter("service_restarts_total", &[]),
            late_responses: reg.counter("service_late_responses_total", &[]),
            quarantines: reg.counter("service_quarantines_total", &[]),
            calibration_failures: reg.counter("service_calibration_failures_total", &[]),
            freshness_transitions: [Freshness::Trusted, Freshness::Stale, Freshness::Degraded]
                .map(|l| reg.counter("service_freshness_transitions_total", &[("to", l.as_str())])),
            epochs_sealed: reg.counter("service_epochs_sealed_total", &[]),
            link_downs: reg.counter("service_link_downs_total", &[]),
            link_resumes: reg.counter("service_link_resumes_total", &[]),
            spotcheck_skips: reg.counter("service_spotcheck_skips_total", &[]),
            quorum_disputes: reg.counter("service_quorum_disputes_total", &[]),
            verifier_suspects: reg.counter("service_verifier_suspects_total", &[]),
            events_dropped: reg.counter("service_events_dropped_total", &[]),
            round_latency: reg.histogram("service_round_latency_ticks", &[]),
            open_rounds: OpenRounds::default(),
        }
    }

    fn observe(&mut self, at: u64, device: &str, kind: &EventKind) {
        if let Some(latency) = self.open_rounds.observe(at, device, kind) {
            self.round_latency.record(latency);
        }
        match kind {
            EventKind::Joined => self.joins.inc(),
            EventKind::Left => self.leaves.inc(),
            EventKind::CalibrationFailed => self.calibration_failures.inc(),
            EventKind::EstablishFailed => {}
            EventKind::StateChanged { to, .. } => {
                if *to == DeviceState::Quarantined {
                    self.quarantines.inc();
                }
            }
            EventKind::RoundStarted { .. } => self.rounds_started.inc(),
            EventKind::RoundPassed { .. } => self.rounds_passed.inc(),
            EventKind::RoundFailed { reason, .. } => self.round_failed[*reason as usize].inc(),
            EventKind::Restarted { .. } => self.restarts.inc(),
            EventKind::LateResponse { .. } => self.late_responses.inc(),
            EventKind::FreshnessChanged { to, .. } => {
                self.freshness_transitions[to.tag() as usize].inc()
            }
            EventKind::EpochSealed { .. } => self.epochs_sealed.inc(),
            EventKind::LinkDown => self.link_downs.inc(),
            EventKind::LinkResumed => self.link_resumes.inc(),
            EventKind::SpotCheckSkipped { .. } => self.spotcheck_skips.inc(),
            EventKind::QuorumDisputed { .. } => self.quorum_disputes.inc(),
            EventKind::VerifierSuspected { .. } => self.verifier_suspects.inc(),
        }
    }
}

/// The event log: append-order events plus derived counters. With a
/// capacity set it becomes a ring — only the most recent `capacity`
/// events stay resident (a 10k-device fleet would otherwise grow the
/// log without bound), while the counters keep counting everything.
#[derive(Default)]
pub struct EventLog {
    events: Vec<Event>,
    counters: Counters,
    sink: Option<LogTelemetry>,
    /// Retained-event bound; `0` = unbounded (the historical default).
    capacity: usize,
    /// Events evicted by the ring so far.
    events_dropped: u64,
}

impl EventLog {
    /// Creates an empty, unbounded log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Creates an empty log retaining at most `capacity` events
    /// (`0` = unbounded). Eviction is amortized O(1): the buffer grows
    /// to `2 × capacity`, then the oldest half is dropped in one
    /// `drain`, so [`EventLog::events`] stays a plain slice.
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            capacity,
            ..EventLog::default()
        }
    }

    /// Rebuilds a log from snapshot parts: the retained event window
    /// plus the authoritative counters and drop count. Nothing is
    /// replayed through [`EventLog::record`]: once the ring has wrapped,
    /// the retained window no longer determines the counters, so they
    /// must be carried explicitly.
    pub fn restore_parts(
        events: Vec<Event>,
        counters: Counters,
        events_dropped: u64,
        capacity: usize,
    ) -> EventLog {
        EventLog {
            events,
            counters,
            sink: None,
            capacity,
            events_dropped,
        }
    }

    /// Attaches the log to a telemetry registry: counters are exported
    /// as `service_*_total` series and passed-round latencies feed a
    /// `service_round_latency_ticks` histogram (virtual ticks —
    /// deterministic for a fixed seed). Events already in the log are
    /// replayed through the sink first, so attaching after a
    /// crash-restore produces the same series as never having stopped.
    pub fn attach_telemetry(&mut self, reg: &Registry) {
        let mut sink = LogTelemetry::new(reg);
        for e in &self.events {
            sink.observe(e.at, &e.device, &e.kind);
        }
        sink.events_dropped.add(self.events_dropped);
        self.sink = Some(sink);
    }

    /// Appends an event and updates the derived counters.
    pub fn record(&mut self, at: u64, device: &str, kind: EventKind) {
        if let Some(sink) = self.sink.as_mut() {
            sink.observe(at, device, &kind);
        }
        match &kind {
            EventKind::Joined => self.counters.joins += 1,
            EventKind::Left => self.counters.leaves += 1,
            EventKind::CalibrationFailed => self.counters.calibration_failures += 1,
            EventKind::EstablishFailed => {}
            EventKind::StateChanged { to, .. } => {
                if *to == DeviceState::Quarantined {
                    self.counters.quarantines += 1;
                }
            }
            EventKind::RoundStarted { .. } => self.counters.rounds_started += 1,
            EventKind::RoundPassed { .. } => self.counters.rounds_passed += 1,
            EventKind::RoundFailed { reason, .. } => match reason {
                FailReason::WrongValue => self.counters.value_rejects += 1,
                FailReason::TooSlow => self.counters.timing_rejects += 1,
                FailReason::Timeout => self.counters.timeouts += 1,
                // Deliberately not folded into `timeouts`: dashboards
                // must tell a flapping link from a hung device. The
                // link itself is counted by `link_downs`.
                FailReason::LinkDown => {}
                FailReason::Relay => self.counters.relay_rejects += 1,
            },
            EventKind::Restarted { .. } => self.counters.restarts += 1,
            EventKind::LateResponse { .. } => self.counters.late_responses += 1,
            EventKind::FreshnessChanged { .. } => self.counters.freshness_transitions += 1,
            EventKind::EpochSealed { .. } => self.counters.epochs_sealed += 1,
            EventKind::LinkDown => self.counters.link_downs += 1,
            EventKind::LinkResumed => self.counters.link_resumes += 1,
            EventKind::SpotCheckSkipped { .. } => self.counters.spotcheck_skips += 1,
            EventKind::QuorumDisputed { .. } => self.counters.quorum_disputes += 1,
            EventKind::VerifierSuspected { .. } => self.counters.verifier_suspects += 1,
        }
        self.events.push(Event {
            at,
            device: device.to_string(),
            kind,
        });
        if self.capacity > 0 && self.events.len() >= self.capacity * 2 {
            let drop = self.events.len() - self.capacity;
            self.events.drain(..drop);
            self.events_dropped += drop as u64;
            if let Some(sink) = self.sink.as_mut() {
                sink.events_dropped.add(drop as u64);
            }
        }
    }

    /// All retained events, in order. With a capacity set this is the
    /// most recent window; [`EventLog::events_dropped`] counts what the
    /// ring evicted before it.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events evicted by the bounded ring (0 while unbounded or not yet
    /// wrapped). Exported as `service_events_dropped_total` when
    /// telemetry is attached.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The configured retained-event bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Virtual-tick latency of every passed round: the delta between a
    /// device's `RoundStarted` and the matching `RoundPassed`, in event
    /// order. Rounds that failed, restarted, or are still outstanding
    /// contribute nothing.
    pub fn round_latencies(&self) -> Vec<u64> {
        let mut open = OpenRounds::default();
        self.events
            .iter()
            .filter_map(|e| open.observe(e.at, &e.device, &e.kind))
            .collect()
    }

    /// p50/p90/p99 of the passed-round latencies (nearest-rank on the
    /// sorted samples — deterministic, no interpolation). `None` until at
    /// least one round has passed.
    ///
    /// Once the bounded ring has wrapped, the retained events no longer
    /// cover every passed round, so the exact per-event computation
    /// would silently report a recent-window artifact. With telemetry
    /// attached the query falls back to the registry's
    /// `service_round_latency_ticks` histogram, which observed every
    /// round (interpolated log2-bucket percentiles); without a sink it
    /// degrades to the retained window.
    pub fn latency_percentiles(&self) -> Option<LatencyPercentiles> {
        if self.events_dropped > 0 {
            if let Some(sink) = &self.sink {
                let snap = sink.round_latency.snapshot();
                if snap.count() == 0 {
                    return None;
                }
                return Some(LatencyPercentiles {
                    samples: snap.count() as usize,
                    p50: snap.percentile(0.50)?,
                    p90: snap.percentile(0.90)?,
                    p99: snap.percentile(0.99)?,
                });
            }
        }
        let mut lat = self.round_latencies();
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let rank = |q: f64| {
            let n = lat.len();
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            lat[idx]
        };
        Some(LatencyPercentiles {
            samples: lat.len(),
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
        })
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Renders the counters as a JSON object (no trailing newline).
    pub fn counters_json(&self) -> String {
        let fields: Vec<String> = self
            .counters
            .fields()
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Renders the full log (counters + events) as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": ");
        out.push_str(&self.counters_json());
        out.push_str(",\n  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"at\": {}, \"device\": \"{}\", {}}}{}\n",
                e.at,
                json_str(&e.device),
                kind_json(&e.kind),
                if i + 1 == self.events.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal. Device
/// names are plain identifiers throughout the tree, but names arrive
/// from operators — a hostile or merely odd name must never panic the
/// control plane, so anything beyond the plain subset is escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn kind_json(kind: &EventKind) -> String {
    match kind {
        EventKind::Joined => "\"kind\": \"joined\"".into(),
        EventKind::CalibrationFailed => "\"kind\": \"calibration_failed\"".into(),
        EventKind::EstablishFailed => "\"kind\": \"establish_failed\"".into(),
        EventKind::StateChanged { from, to } => format!(
            "\"kind\": \"state_changed\", \"from\": \"{}\", \"to\": \"{}\"",
            from.as_str(),
            to.as_str()
        ),
        EventKind::RoundStarted { round } => {
            format!("\"kind\": \"round_started\", \"round\": {round}")
        }
        EventKind::RoundPassed { round, measured } => {
            format!("\"kind\": \"round_passed\", \"round\": {round}, \"measured\": {measured}")
        }
        EventKind::RoundFailed { round, reason } => format!(
            "\"kind\": \"round_failed\", \"round\": {round}, \"reason\": \"{}\"",
            reason.as_str()
        ),
        EventKind::Restarted { round } => format!("\"kind\": \"restarted\", \"round\": {round}"),
        EventKind::LateResponse { round } => {
            format!("\"kind\": \"late_response\", \"round\": {round}")
        }
        EventKind::Left => "\"kind\": \"left\"".into(),
        EventKind::FreshnessChanged { from, to } => format!(
            "\"kind\": \"freshness_changed\", \"from\": \"{}\", \"to\": \"{}\"",
            from.as_str(),
            to.as_str()
        ),
        EventKind::EpochSealed { epoch, root } => {
            let hex: String = root.iter().map(|b| format!("{b:02x}")).collect();
            format!("\"kind\": \"epoch_sealed\", \"epoch\": {epoch}, \"root\": \"{hex}\"")
        }
        EventKind::LinkDown => "\"kind\": \"link_down\"".into(),
        EventKind::LinkResumed => "\"kind\": \"link_resumed\"".into(),
        EventKind::SpotCheckSkipped { epoch } => {
            format!("\"kind\": \"spotcheck_skipped\", \"epoch\": {epoch}")
        }
        EventKind::QuorumDisputed {
            round,
            accepts,
            rejects,
        } => format!(
            "\"kind\": \"quorum_disputed\", \"round\": {round}, \
             \"accepts\": {accepts}, \"rejects\": {rejects}"
        ),
        EventKind::VerifierSuspected { verifier, round } => format!(
            "\"kind\": \"verifier_suspected\", \"verifier\": {verifier}, \"round\": {round}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_events() {
        let mut log = EventLog::new();
        log.record(0, "a", EventKind::Joined);
        log.record(1, "a", EventKind::RoundStarted { round: 1 });
        log.record(
            2,
            "a",
            EventKind::RoundFailed {
                round: 1,
                reason: FailReason::Timeout,
            },
        );
        log.record(
            3,
            "a",
            EventKind::StateChanged {
                from: DeviceState::Trusted,
                to: DeviceState::Quarantined,
            },
        );
        let c = log.counters();
        assert_eq!(c.joins, 1);
        assert_eq!(c.rounds_started, 1);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.quarantines, 1);
        assert_eq!(log.events().len(), 4);
    }

    #[test]
    fn latency_percentiles_match_started_passed_pairs() {
        let mut log = EventLog::new();
        // Device a: rounds taking 10, 30, 20 ticks; device b: one round
        // of 40 ticks interleaved; one failed round contributes nothing.
        let pairs = [("a", 1, 0, 10), ("a", 2, 100, 130), ("a", 3, 200, 220)];
        log.record(50, "b", EventKind::RoundStarted { round: 1 });
        for (dev, round, start, end) in pairs {
            log.record(start, dev, EventKind::RoundStarted { round });
            log.record(
                end,
                dev,
                EventKind::RoundPassed {
                    round,
                    measured: 99,
                },
            );
        }
        log.record(
            90,
            "b",
            EventKind::RoundPassed {
                round: 1,
                measured: 99,
            },
        );
        log.record(300, "a", EventKind::RoundStarted { round: 4 });
        log.record(
            310,
            "a",
            EventKind::RoundFailed {
                round: 4,
                reason: FailReason::TooSlow,
            },
        );
        assert_eq!(log.round_latencies(), vec![10, 30, 20, 40]);
        let p = log.latency_percentiles().unwrap();
        assert_eq!(p.samples, 4);
        assert_eq!(p.p50, 20);
        assert_eq!(p.p90, 40);
        assert_eq!(p.p99, 40);
    }

    /// Rounds that fail (value, timing, timeout, link) or whose device
    /// leaves must not stay in the open-round map: it holds only rounds
    /// in flight, and the latency histogram sees exactly the passes.
    #[test]
    fn open_rounds_close_on_every_ending() {
        let reg = Registry::new();
        let mut log = EventLog::new();
        log.attach_telemetry(&reg);
        let open = |log: &EventLog| log.sink.as_ref().unwrap().open_rounds.0.len();
        let devices = ["d0", "d1", "d2", "d3", "d4", "d5", "d6"];
        let reasons = [
            FailReason::WrongValue,
            FailReason::TooSlow,
            FailReason::Timeout,
            FailReason::LinkDown,
            FailReason::Relay,
        ];
        let (mut at, mut passed, mut latency_sum) = (0u64, 0u64, 0u64);
        // Which devices have a round in flight.
        let mut in_flight = [false; 7];
        for round in 1..=60u64 {
            for (i, dev) in devices.iter().enumerate() {
                log.record(at, dev, EventKind::RoundStarted { round });
                at += 1 + i as u64;
                let pick = (round as usize + i) % 7;
                if pick < reasons.len() {
                    let reason = reasons[pick];
                    log.record(at, dev, EventKind::RoundFailed { round, reason });
                } else if pick == 5 {
                    log.record(at, dev, EventKind::RoundPassed { round, measured: 1 });
                    passed += 1;
                    latency_sum += 1 + i as u64;
                }
                // pick == 6 leaves the round open; the next start
                // replaces it.
                in_flight[i] = pick == 6;
                let want = in_flight.iter().filter(|&&f| f).count();
                assert_eq!(open(&log), want, "round {round}, {dev}");
            }
        }
        // Every device leaves, with or without a round in flight.
        assert!(open(&log) > 0);
        for dev in devices {
            log.record(at, dev, EventKind::Left);
        }
        assert_eq!(open(&log), 0);
        let snap = reg.histogram("service_round_latency_ticks", &[]).snapshot();
        assert_eq!(snap.count(), passed);
        assert_eq!(snap.sum, latency_sum);
        assert_eq!(log.round_latencies().len() as u64, passed);
        assert_eq!(log.round_latencies().iter().sum::<u64>(), latency_sum);
    }

    #[test]
    fn latency_percentiles_empty_without_passes() {
        assert!(EventLog::new().latency_percentiles().is_none());
        let mut log = EventLog::new();
        log.record(0, "a", EventKind::RoundStarted { round: 1 });
        assert!(log.latency_percentiles().is_none());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut log = EventLog::new();
        log.record(10, "a", EventKind::RoundStarted { round: 1 });
        log.record(
            17,
            "a",
            EventKind::RoundPassed {
                round: 1,
                measured: 1,
            },
        );
        let p = log.latency_percentiles().unwrap();
        assert_eq!(p.samples, 1);
        assert_eq!((p.p50, p.p90, p.p99), (7, 7, 7));
    }

    /// Hand-computed nearest-rank oracle over ten known samples:
    /// ranks ⌈0.50·10⌉ = 5, ⌈0.90·10⌉ = 9, ⌈0.99·10⌉ = 10.
    #[test]
    fn ten_sample_nearest_rank_oracle() {
        let latencies = [31u64, 2, 19, 7, 43, 11, 5, 23, 13, 3];
        let mut log = EventLog::new();
        for (i, lat) in latencies.iter().enumerate() {
            let round = i as u64 + 1;
            let start = i as u64 * 1000;
            log.record(start, "a", EventKind::RoundStarted { round });
            log.record(
                start + lat,
                "a",
                EventKind::RoundPassed { round, measured: 1 },
            );
        }
        // Sorted: [2, 3, 5, 7, 11, 13, 19, 23, 31, 43].
        let p = log.latency_percentiles().unwrap();
        assert_eq!(p.samples, 10);
        assert_eq!(p.p50, 11, "rank 5 of the sorted samples");
        assert_eq!(p.p90, 31, "rank 9 of the sorted samples");
        assert_eq!(p.p99, 43, "rank 10 of the sorted samples");
    }

    /// The attached telemetry histogram answers the same percentile
    /// queries interpolated within the containing log2 bucket: the
    /// reported value shares the exact answer's bucket (≤ 2× relative
    /// error), it just sits elsewhere inside it.
    #[test]
    fn telemetry_histogram_agrees_within_one_bucket() {
        use sage_telemetry::{bucket_bounds, bucket_index, MetricValue, Registry};

        let latencies = [31u64, 2, 19, 7, 43, 11, 5, 23, 13, 3];
        let reg = Registry::new();
        let mut log = EventLog::new();
        log.attach_telemetry(&reg);
        for (i, lat) in latencies.iter().enumerate() {
            let round = i as u64 + 1;
            let start = i as u64 * 1000;
            log.record(start, "a", EventKind::RoundStarted { round });
            log.record(
                start + lat,
                "a",
                EventKind::RoundPassed { round, measured: 1 },
            );
        }
        let exact = log.latency_percentiles().unwrap();
        let snap = reg
            .collect()
            .into_iter()
            .find_map(|(name, _, v)| match (name.as_str(), v) {
                ("service_round_latency_ticks", MetricValue::Histogram(s)) => Some(s),
                _ => None,
            })
            .expect("latency histogram registered");
        assert_eq!(snap.count(), 10);
        for (q, exact) in [(0.50, exact.p50), (0.90, exact.p90), (0.99, exact.p99)] {
            let reported = snap.percentile(q).unwrap();
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                (lo..=hi).contains(&reported),
                "q={q}: reported {reported} outside exact {exact}'s bucket [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn ring_caps_retained_events_and_counts_drops() {
        let mut log = EventLog::with_capacity(4);
        for round in 1..=12u64 {
            log.record(round, "a", EventKind::RoundStarted { round });
        }
        // Counters see everything; the ring keeps at most 2×capacity−1
        // and never fewer than `capacity` events.
        assert_eq!(log.counters().rounds_started, 12);
        assert!(log.events().len() >= 4 && log.events().len() < 8);
        assert_eq!(log.events_dropped() + log.events().len() as u64, 12);
        // The retained window is the most recent suffix, in order.
        let rounds: Vec<u64> = log
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::RoundStarted { round } => round,
                _ => unreachable!(),
            })
            .collect();
        let first = rounds[0];
        assert_eq!(
            rounds,
            (first..=12).collect::<Vec<u64>>(),
            "window must be a contiguous recent suffix"
        );
    }

    #[test]
    fn unbounded_log_never_drops() {
        let mut log = EventLog::new();
        for round in 1..=100u64 {
            log.record(round, "a", EventKind::RoundStarted { round });
        }
        assert_eq!(log.events().len(), 100);
        assert_eq!(log.events_dropped(), 0);
    }

    /// After the ring wraps, exact per-event percentiles are a window
    /// artifact — the query must fall back to the attached telemetry
    /// histogram, which observed every round.
    #[test]
    fn wrapped_log_falls_back_to_telemetry_histogram() {
        use sage_telemetry::{bucket_bounds, bucket_index, Registry};

        let reg = Registry::new();
        let mut log = EventLog::with_capacity(6);
        log.attach_telemetry(&reg);
        // 50 rounds of latency 10, then 1 of 1000; the ring retains only
        // a tail slice of them.
        for i in 0..51u64 {
            let round = i + 1;
            let lat = if i < 50 { 10 } else { 1000 };
            log.record(i * 100, "a", EventKind::RoundStarted { round });
            log.record(
                i * 100 + lat,
                "a",
                EventKind::RoundPassed { round, measured: 1 },
            );
        }
        assert!(log.events_dropped() > 0, "ring must have wrapped");
        let p = log.latency_percentiles().unwrap();
        // The fallback sees all 51 samples, not just the retained tail.
        assert_eq!(p.samples, 51);
        let (lo, hi) = bucket_bounds(bucket_index(10));
        assert!(
            (lo..=hi).contains(&p.p50),
            "p50 {} outside [{lo},{hi}]",
            p.p50
        );
        let (lo, hi) = bucket_bounds(bucket_index(1000));
        assert!(
            (lo..=hi).contains(&p.p99),
            "p99 {} outside [{lo},{hi}]",
            p.p99
        );
    }

    #[test]
    fn restore_parts_carries_counters_and_drops() {
        let mut log = EventLog::with_capacity(3);
        for round in 1..=10u64 {
            log.record(round, "a", EventKind::RoundStarted { round });
        }
        let restored = EventLog::restore_parts(
            log.events().to_vec(),
            log.counters(),
            log.events_dropped(),
            log.capacity(),
        );
        assert_eq!(restored.counters(), log.counters());
        assert_eq!(restored.events_dropped(), log.events_dropped());
        assert_eq!(restored.events(), log.events());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut log = EventLog::new();
        log.record(
            5,
            "dev-1",
            EventKind::RoundPassed {
                round: 2,
                measured: 123,
            },
        );
        let j = log.to_json();
        assert!(j.contains("\"round_passed\""));
        assert!(j.contains("\"rounds_passed\": 1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
