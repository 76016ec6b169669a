//! Crash-safe recovery and device-level chaos at the service layer.
//!
//! Three properties the chaos engine must never break:
//!
//! 1. **Crash-restart determinism** — killing the control plane
//!    mid-schedule (even with a round in flight) and restoring from a
//!    snapshot plus the surviving endpoints yields a subsequent event
//!    history bit-identical to a run that never crashed.
//! 2. **Restore is strict** — a snapshot only marries the exact fleet it
//!    was taken over; missing or foreign endpoints are typed errors, and
//!    tampered bytes never panic.
//! 3. **Faults are detected, never absorbed** — a transient device fault
//!    costs the device `Trusted` for exactly the backoff window and then
//!    reconverges; a persistent corruption burns the wrong-value budget
//!    into `Quarantined`; neither ever produces a false accept.
//! 4. **Evidence survives the crash** — a snapshot taken mid-epoch
//!    carries every device's chain head byte-identically across the
//!    restore, and the next sealed epoch root matches the uninterrupted
//!    twin bit for bit.

mod common;

use common::{counter_value, enclave, perfect_net, SVC};
use sage_repro::core::multi::FleetMember;
use sage_repro::crypto::DhGroup;
use sage_repro::evidence::{verify_report, FreshnessPolicy};
use sage_repro::gpu::{DeviceConfig, DeviceFault, FaultPlan};
use sage_repro::service::{
    AttestationService, DeviceState, EventKind, FailReason, LinkProfile, Policy, QuorumConfig,
    ServiceConfig, SimNet, SnapshotError, VerifierBehavior,
};
use sage_repro::telemetry::Registry;

fn jittery_net(seed: u64) -> SimNet {
    SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 10,
            dup_per_mille: 0,
        },
    )
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 50_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        ..ServiceConfig::default()
    }
}

/// Builds the reference two-device fleet for a config and seed.
/// Identical inputs ⇒ identical universes, which is what lets the crash
/// tests compare an interrupted run against an uninterrupted twin.
fn two_device_fleet(cfg: ServiceConfig, seed: u64) -> AttestationService<SimNet> {
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), jittery_net(seed));
    svc.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 41),
        enclave(SVC, 61),
    );
    svc.join(
        FleetMember::tiny("gpu-b", DeviceConfig::sim_tiny(), 42),
        enclave(SVC, 62),
    );
    svc
}

/// Advances the service event-by-event until a challenge round has just
/// been issued (a `RoundStarted` with the response still in flight) —
/// the most awkward possible moment to crash.
fn run_to_inflight_round(svc: &mut AttestationService<SimNet>) -> u64 {
    loop {
        let next = svc
            .next_event_at()
            .expect("fleet always has a next event while devices are live");
        svc.run_until(next);
        if matches!(
            svc.log().events().last().map(|e| &e.kind),
            Some(EventKind::RoundStarted { .. })
        ) && svc.now() > 10_000
        {
            return svc.now();
        }
        assert!(
            svc.now() < 1_000_000,
            "no in-flight round found within 1M ticks"
        );
    }
}

#[test]
fn crash_restart_resumes_with_identical_history() {
    for seed in [11u64, 12, 13] {
        // Scout: find a crash point with a round in flight.
        let mut scout = two_device_fleet(cfg(), seed);
        let crash_at = run_to_inflight_round(&mut scout);
        let end_at = crash_at + 150_000;

        // Universe A: never crashes.
        let mut a = two_device_fleet(cfg(), seed);
        a.run_until(end_at);

        // Universe B: identical twin, crashed at `crash_at` and restored
        // from the snapshot plus the surviving endpoints.
        let mut b = two_device_fleet(cfg(), seed);
        b.run_until(crash_at);
        let snap = b.snapshot();
        let (net, endpoints) = b.into_endpoints(); // control plane dies here
        let mut b =
            AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, endpoints)
                .expect("snapshot restores against its own endpoints");
        assert_eq!(b.now(), crash_at, "seed {seed}: clock resumes");
        b.run_until(end_at);

        assert_eq!(
            a.snapshot_json(),
            b.snapshot_json(),
            "seed {seed}: crash-restart diverged from the uninterrupted run"
        );
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "seed {seed}: binary state diverged after crash-restart"
        );
        // The crash bridged live work: both universes made progress
        // after the crash point.
        assert!(
            a.log().events().iter().any(|e| e.at > crash_at),
            "seed {seed}: no activity after the crash point — test is vacuous"
        );
    }
}

#[test]
fn snapshot_survives_a_second_crash() {
    // Crash twice in one schedule: restore must itself be
    // snapshot-clean, not a one-shot.
    let seed = 21u64;
    let mut a = two_device_fleet(cfg(), seed);
    a.run_until(200_000);

    let mut b = two_device_fleet(cfg(), seed);
    b.run_until(70_000);
    let snap = b.snapshot();
    let (net, eps) = b.into_endpoints();
    let mut b = AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, eps).unwrap();
    b.run_until(140_000);
    let snap = b.snapshot();
    let (net, eps) = b.into_endpoints();
    let mut b = AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, eps).unwrap();
    b.run_until(200_000);

    assert_eq!(a.snapshot(), b.snapshot(), "double crash-restart diverged");
}

#[test]
fn restore_rejects_mismatched_endpoints_and_garbage() {
    let mut svc = two_device_fleet(cfg(), 31);
    svc.run_until(60_000);
    let snap = svc.snapshot();
    let (net, mut endpoints) = svc.into_endpoints();

    // Garbage bytes: typed errors, never a panic.
    assert_eq!(
        AttestationService::restore(
            cfg(),
            DhGroup::test_group(),
            perfect_net(1),
            &[],
            Vec::new()
        )
        .err(),
        Some(SnapshotError::Truncated),
    );
    assert!(matches!(
        AttestationService::restore(
            cfg(),
            DhGroup::test_group(),
            perfect_net(1),
            b"not a snapshot at all",
            Vec::new()
        ),
        Err(SnapshotError::BadMagic)
    ));
    let mut truncated = snap.clone();
    truncated.truncate(snap.len() - 3);
    assert!(matches!(
        AttestationService::restore(
            cfg(),
            DhGroup::test_group(),
            perfect_net(1),
            &truncated,
            Vec::new()
        ),
        Err(SnapshotError::Truncated)
    ));

    // A lost endpoint is a different fleet, not a restart.
    let dropped = endpoints.pop().expect("two endpoints");
    let dropped_name = dropped.node.member.name.clone();
    match AttestationService::restore(cfg(), DhGroup::test_group(), net, &snap, endpoints) {
        Err(SnapshotError::MissingEndpoint(name)) => assert_eq!(name, dropped_name),
        other => panic!(
            "expected MissingEndpoint, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }

    // A foreign endpoint the snapshot doesn't know is rejected too.
    let mut one = AttestationService::new(cfg(), DhGroup::test_group(), perfect_net(2));
    one.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 41),
        enclave(SVC, 61),
    );
    one.run_until(60_000);
    let one_snap = one.snapshot();
    let mut two = two_device_fleet(cfg(), 32);
    two.run_until(60_000);
    let (net2, eps2) = two.into_endpoints();
    assert!(matches!(
        AttestationService::restore(cfg(), DhGroup::test_group(), net2, &one_snap, eps2),
        Err(SnapshotError::UnknownDevice(name)) if name == "gpu-b"
    ));
}

/// The recovery fleet with the PR-7 evidence layer switched on: epochs
/// seal every 60k ticks and freshness decays, so a crash has chain
/// heads, sealed roots and decay timers to lose.
fn evidence_cfg() -> ServiceConfig {
    ServiceConfig {
        epoch_interval: 60_000,
        freshness: FreshnessPolicy {
            stale_after: 120_000,
            degraded_after: 240_000,
        },
        ..cfg()
    }
}

#[test]
fn mid_epoch_crash_preserves_chain_heads_and_epoch_roots() {
    for seed in [51u64, 52] {
        // Crash inside the second epoch: after the 60k seal, before the
        // 120k one, with evidence appended since the seal.
        let crash_at = 90_000;
        let end_at = 250_000;

        // Universe A: never crashes.
        let mut a = two_device_fleet(evidence_cfg(), seed);
        a.run_until(end_at);

        // Universe B: crashes mid-epoch and restores from the snapshot.
        let mut b = two_device_fleet(evidence_cfg(), seed);
        b.run_until(crash_at);
        assert_eq!(
            b.sealed_epochs().len(),
            1,
            "seed {seed}: the crash point must be mid-epoch, one seal in"
        );
        let heads: Vec<(&str, [u8; 32], u64)> = ["gpu-a", "gpu-b"]
            .iter()
            .map(|n| {
                let c = b.evidence_of(n).expect("chain established");
                assert!(
                    c.seq() > b.sealed_epochs()[0].leaves[0].seq,
                    "seed {seed}: {n} must have evidence newer than the seal"
                );
                (*n, c.head(), c.seq())
            })
            .collect();
        let snap = b.snapshot();
        let (net, eps) = b.into_endpoints(); // control plane dies here
        let mut b =
            AttestationService::restore(evidence_cfg(), DhGroup::test_group(), net, &snap, eps)
                .expect("mid-epoch snapshot restores");

        // Chain heads cross the crash byte-identically.
        for (name, head, seq) in &heads {
            let c = b.evidence_of(name).expect("chain restored");
            assert_eq!(
                c.head(),
                *head,
                "seed {seed}: {name} chain head changed across restore"
            );
            assert_eq!(c.seq(), *seq, "seed {seed}: {name} chain length changed");
        }

        b.run_until(end_at);

        // The next sealed root (and every one after) is bit-identical to
        // the uninterrupted twin's.
        assert!(
            a.sealed_epochs().iter().any(|e| e.at > crash_at),
            "seed {seed}: horizon must seal an epoch after the crash point"
        );
        assert_eq!(
            a.sealed_epochs(),
            b.sealed_epochs(),
            "seed {seed}: sealed epochs diverged across the crash"
        );
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "seed {seed}: binary state diverged after mid-epoch crash"
        );

        // And the restored control plane still mints verifiable reports.
        let report = b.report_for("gpu-a").expect("epoch sealed with gpu-a");
        let root = b.sealed_epochs().last().unwrap().root;
        let key = b.evidence_key_of("gpu-a").unwrap();
        verify_report(&report, &root, &key, b.now())
            .expect("post-restore report verifies standalone");
    }
}

#[test]
fn restored_service_mints_byte_identical_reports() {
    // Three devices make an odd-width epoch tree (one leaf promoted). The
    // restored service rebuilds its name index and newest-epoch tree
    // from the snapshot; every report must come out the same bytes.
    let names = ["gpu-a", "gpu-b", "gpu-c"];
    let mut svc = two_device_fleet(evidence_cfg(), 53);
    svc.join(
        FleetMember::tiny("gpu-c", DeviceConfig::sim_tiny(), 43),
        enclave(SVC, 63),
    );
    svc.run_until(90_000);
    assert_eq!(svc.sealed_epochs().len(), 1, "one seal before the crash");
    let before: Vec<Vec<u8>> = names
        .iter()
        .map(|n| svc.report_for(n).expect("sealed with the device").encode())
        .collect();

    let snap = svc.snapshot();
    let (net, eps) = svc.into_endpoints();
    let restored =
        AttestationService::restore(evidence_cfg(), DhGroup::test_group(), net, &snap, eps)
            .expect("snapshot restores");
    for (name, bytes) in names.iter().zip(&before) {
        let report = restored.report_for(name).expect("restored report");
        assert_eq!(
            &report.encode(),
            bytes,
            "{name}: report changed across restore"
        );
    }
}

/// The `service_*_total` lines of `reg`'s Prometheus export.
fn service_counter_lines(reg: &Registry) -> Vec<String> {
    reg.to_prometheus()
        .lines()
        .filter(|l| {
            let name = l.split(['{', ' ']).next().unwrap_or("");
            name.starts_with("service_") && name.ends_with("_total")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn wrapped_log_restore_exports_what_it_counted() {
    // A 4-event ring wraps many times before the crash, so the
    // retained window no longer determines any counter: the restored
    // service must export the ledger the snapshot carried.
    let cfg = ServiceConfig {
        event_capacity: 4,
        ..evidence_cfg()
    };
    let (seed, crash_at, end_at) = (81u64, 200_000, 400_000);
    let mut a = two_device_fleet(cfg, seed);
    a.run_until(end_at);

    let mut b = two_device_fleet(cfg, seed);
    b.run_until(crash_at);
    assert!(
        b.log().events_dropped() > 0,
        "the ring must wrap before the crash"
    );
    let snap = b.snapshot();
    let (net, eps) = b.into_endpoints();
    let mut b = AttestationService::restore(cfg, DhGroup::test_group(), net, &snap, eps)
        .expect("wrapped snapshot restores");
    b.run_until(end_at);

    // `service_round_latency_ticks` is left out: a restore rebuilds the
    // histogram from the retained window only, so after a wrapped crash
    // it has seen fewer rounds than the twin's.
    let (reg_a, reg_b) = (Registry::new(), Registry::new());
    a.attach_telemetry(&reg_a);
    b.attach_telemetry(&reg_b);
    let lines = service_counter_lines(&reg_a);
    assert_eq!(lines.len(), 23, "every ledger series exported");
    assert_eq!(lines, service_counter_lines(&reg_b));
    assert_eq!(
        counter_value(&reg_b, "service_rounds_started_total", &[]),
        b.log().counters().rounds_started
    );
    assert!(b.log().counters().rounds_started > 8);
}

/// The recovery fleet replicated across an N = 4 verifier quorum with
/// one replica turned Byzantine, so a crash has *quorum* state to lose:
/// per-replica suspicion flags, dissent counts, rolling evidence-view
/// digests, and the vote records already sealed into device chains.
fn quorum_cfg() -> ServiceConfig {
    ServiceConfig {
        epoch_interval: 60_000,
        quorum: QuorumConfig {
            verifiers: 4,
            seed: 0x51D,
        },
        ..cfg()
    }
}

fn quorum_fleet(seed: u64) -> AttestationService<SimNet> {
    let mut svc = two_device_fleet(quorum_cfg(), seed);
    // Replica 2 lies from the start (in both universes, so the twin
    // histories stay comparable): every verdict is disputed, flagged,
    // and sealed — non-trivial quorum state for the crash to threaten.
    svc.quorum_mut()
        .unwrap()
        .set_behavior(2, VerifierBehavior::Invert);
    svc
}

#[test]
fn multi_verifier_crash_restore_is_byte_identical() {
    for seed in [71u64, 72] {
        // Crash mid-epoch (after the 60k seal, before the 120k one).
        let crash_at = 90_000;
        let end_at = 250_000;

        // Universe A: never crashes.
        let mut a = quorum_fleet(seed);
        a.run_until(end_at);

        // Universe B: identical twin, killed mid-epoch.
        let mut b = quorum_fleet(seed);
        b.run_until(crash_at);

        // The crash point really holds live quorum state.
        let pre = b.quorum().unwrap().clone();
        let pre_disputes = b.log().counters().quorum_disputes;
        assert!(pre.rounds >= 2, "seed {seed}: quorum must have voted");
        assert!(
            pre_disputes >= 1,
            "seed {seed}: the liar must have dissented"
        );
        assert!(
            pre.replicas()[2].suspected,
            "seed {seed}: liar flagged pre-crash"
        );
        assert!(pre.replicas()[2].dissents >= 1);
        assert_eq!(pre.replicas()[2].behavior, VerifierBehavior::Invert);
        assert!(
            pre.honest_views_agree(),
            "seed {seed}: honest views agree pre-crash"
        );

        let snap = b.snapshot();
        let (net, eps) = b.into_endpoints(); // control plane dies here
        let mut b =
            AttestationService::restore(quorum_cfg(), DhGroup::test_group(), net, &snap, eps)
                .expect("quorum snapshot restores");

        // Every replica crosses the crash intact: behavior, suspicion,
        // dissent count and the rolling view digest (vote keys are
        // re-derived from the config seed, not stored).
        assert_eq!(
            b.quorum().unwrap(),
            &pre,
            "seed {seed}: replica state changed across restore"
        );

        b.run_until(end_at);

        // Quorum verdicts, evidence chains, sealed epochs, event log:
        // all byte-identical to the universe that never crashed.
        assert_eq!(
            a.quorum().unwrap(),
            b.quorum().unwrap(),
            "seed {seed}: quorum verdict state diverged after the crash"
        );
        for n in ["gpu-a", "gpu-b"] {
            assert_eq!(
                a.evidence_of(n).unwrap().head(),
                b.evidence_of(n).unwrap().head(),
                "seed {seed}: {n} evidence head diverged"
            );
        }
        assert_eq!(
            a.snapshot_json(),
            b.snapshot_json(),
            "seed {seed}: state diverged after quorum crash-restart"
        );
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "seed {seed}: binary state diverged after quorum crash-restart"
        );
        // The run was not vacuous: disputes kept accruing post-crash.
        assert!(
            a.log().counters().quorum_disputes > pre_disputes,
            "seed {seed}: no quorum activity after the crash point"
        );
    }
}

/// Returns (rounds passed, rounds failed, wrong-value failures) for one
/// device after a given virtual time.
fn tally_after(svc: &AttestationService<SimNet>, name: &str, after: u64) -> (u32, u32, u32) {
    let mut passed = 0;
    let mut failed = 0;
    let mut wrong = 0;
    for e in svc.log().events() {
        if e.at <= after || e.device != name {
            continue;
        }
        match &e.kind {
            EventKind::RoundPassed { .. } => passed += 1,
            EventKind::RoundFailed { reason, .. } => {
                failed += 1;
                if *reason == FailReason::WrongValue {
                    wrong += 1;
                }
            }
            _ => {}
        }
    }
    (passed, failed, wrong)
}

#[test]
fn transient_fault_degrades_then_reconverges_persistent_fault_quarantines() {
    // Two honest devices on a perfect network; the chaos engine injects
    // a transient fault into one and a persistent fault into the other.
    let mut svc = AttestationService::new(cfg(), DhGroup::test_group(), perfect_net(77));
    svc.join(
        FleetMember::tiny("gpu-flaky", DeviceConfig::sim_tiny(), 41),
        enclave(SVC, 61),
    );
    svc.join(
        FleetMember::tiny("gpu-rotten", DeviceConfig::sim_tiny(), 42),
        enclave(SVC, 62),
    );
    svc.run_for(45_000);
    for name in ["gpu-flaky", "gpu-rotten"] {
        assert_eq!(svc.state_of(name), Some(DeviceState::Trusted), "{name}");
    }
    let fault_at = svc.now();

    // gpu-flaky: one bit of the next round's challenge flips in device
    // memory after the DMA — the checksum is honest but over the wrong
    // challenge. The round after that, a fresh challenge is written and
    // the fault is gone: a classic transient.
    {
        let session = svc.session_mut("gpu-flaky").unwrap();
        let addr = session.build().layout.challenge_addr(0);
        let next_run = session.dev.fault_run_index();
        session.dev.install_fault_hook(Box::new(
            FaultPlan::new().at(next_run, DeviceFault::FlipBit { addr, bit: 3 }),
        ));
    }
    // gpu-rotten: a stuck bit on the challenge DMA path — the same flip
    // fires on every run from now on, so every round computes an honest
    // checksum over a corrupted challenge: a persistent fault that is
    // detected deterministically. (A single flip in the pseudo-random
    // fill is also persistent but only *probabilistically* detected with
    // test-tiny parameters — the §7 coverage argument — so the stuck
    // line is the deterministic persistent fixture.)
    {
        let session = svc.session_mut("gpu-rotten").unwrap();
        let addr = session.build().layout.challenge_addr(0);
        let next_run = session.dev.fault_run_index();
        let plan = (0..64).fold(FaultPlan::new(), |p, i| {
            p.at(next_run + i, DeviceFault::FlipBit { addr, bit: 6 })
        });
        session.dev.install_fault_hook(Box::new(plan));
    }

    // One full re-attest interval: both faulted rounds must FAIL — a
    // pass here would be a false accept.
    svc.run_for(60_000);
    let (flaky_passed, flaky_failed, flaky_wrong) = tally_after(&svc, "gpu-flaky", fault_at);
    assert_eq!(
        flaky_failed, 1,
        "transient fault must cost exactly one round"
    );
    assert_eq!(
        flaky_wrong, 1,
        "transient flip is detected as a wrong value"
    );
    let _ = flaky_passed;

    // Long horizon: the transient device reconverges to Trusted inside
    // its backoff budget; the corrupted one burns the wrong-value budget
    // into Quarantined with zero false accepts along the way.
    svc.run_for(400_000);
    assert_eq!(svc.state_of("gpu-flaky"), Some(DeviceState::Trusted));
    let flaky = svc.health_of("gpu-flaky").unwrap();
    assert_eq!(flaky.score, 100, "recovered device is fully healthy again");
    let (passed_later, _, _) = tally_after(&svc, "gpu-flaky", fault_at);
    assert!(passed_later >= 2, "flaky device passes rounds again");

    assert_eq!(svc.state_of("gpu-rotten"), Some(DeviceState::Quarantined));
    let rotten = svc.health_of("gpu-rotten").unwrap();
    assert_eq!(rotten.score, 0, "quarantined device scores zero");
    let (rotten_passed, rotten_failed, rotten_wrong) = tally_after(&svc, "gpu-rotten", fault_at);
    assert_eq!(
        rotten_passed, 0,
        "FALSE ACCEPT: corrupted device passed a round"
    );
    assert!(rotten_failed >= 1);
    assert_eq!(
        rotten_wrong, rotten_failed,
        "persistent corruption fails as wrong value every time"
    );

    // The device-side fault engine agrees with the control plane's view:
    // one injected flip cost gpu-flaky one round; every round gpu-rotten
    // failed carried one stuck-bit flip.
    assert_eq!(
        svc.session_mut("gpu-flaky")
            .unwrap()
            .dev
            .faults_applied()
            .flips,
        1
    );
    assert_eq!(
        svc.session_mut("gpu-rotten")
            .unwrap()
            .dev
            .faults_applied()
            .flips,
        rotten_failed as u64
    );
}
