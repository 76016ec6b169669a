//! Fleet-level attestation service scenarios: a four-device fleet run
//! through churn and fault injection over the simulated network. Honest
//! devices must hold `Trusted` across many re-attestation rounds while a
//! device compromised after enrollment (replayed checksums, borrowed from
//! the §8 attack library) is driven into `Quarantined` — deterministically,
//! across several seeds.

mod common;

use common::{compromise_with_replay, counter_value, enclave, perfect_net, SVC};
use sage_repro::core::multi::FleetMember;
use sage_repro::crypto::DhGroup;
use sage_repro::evidence::{verify_report, Freshness, FreshnessPolicy};
use sage_repro::gpu::DeviceConfig;
use sage_repro::service::{
    AttestationService, DeviceState, EventKind, Fault, LinkProfile, Policy, ServiceConfig, SimNet,
    VERIFIER_NODE,
};
use sage_repro::telemetry::Registry;

#[test]
fn fleet_survives_churn_and_quarantines_replay_attacker() {
    // The acceptance scenario, run across three seeds: same outcome each
    // time even though each seed draws different jitter/drop sequences.
    for seed in [1u64, 2, 3] {
        let net = SimNet::new(
            seed,
            LinkProfile {
                latency: 100,
                jitter: 25,
                drop_per_mille: 20,
                dup_per_mille: 10,
            },
        );
        let cfg = ServiceConfig {
            reattest_interval: 50_000,
            latency_budget: 200,
            deadline_slack: 2_000,
            calibration_runs: 8,
            policy: Policy::default(),
            ..ServiceConfig::default()
        };
        let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);

        let names = ["gpu-a", "gpu-b", "gpu-c", "gpu-evil"];
        let mut ids = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let m = FleetMember::tiny(*name, DeviceConfig::sim_tiny(), 41 + i as u8);
            ids.push(svc.join(m, enclave(SVC, 61 + i as u8)));
        }

        // Settle: every device passes its first remote round.
        svc.run_for(45_000);
        for name in names {
            assert_eq!(
                svc.state_of(name),
                Some(DeviceState::Trusted),
                "seed {seed}: {name} after settling"
            );
        }

        // Post-enrollment compromise of gpu-evil, plus targeted network
        // faults against two honest devices: a dropped challenge and a
        // response delayed far past the deadline.
        compromise_with_replay(&mut svc, "gpu-evil");
        svc.transport_mut().inject(Fault::DropNext {
            src: VERIFIER_NODE,
            dst: ids[1],
            remaining: 1,
        });
        svc.transport_mut().inject(Fault::DelayNext {
            src: ids[2],
            dst: VERIFIER_NODE,
            extra: 300_000,
            remaining: 1,
        });

        // Run until the fleet reaches the expected steady state: honest
        // devices Trusted with a deep round history, the attacker
        // quarantined. The iteration cap keeps a regression from hanging.
        let mut settled = false;
        for _ in 0..400 {
            svc.run_for(50_000);
            let honest_ok = names[..3].iter().all(|n| {
                svc.statuses().iter().any(|s| {
                    s.name == *n && s.state == DeviceState::Trusted && s.rounds_passed >= 12
                })
            });
            if honest_ok && svc.state_of("gpu-evil") == Some(DeviceState::Quarantined) {
                settled = true;
                break;
            }
        }
        assert!(settled, "seed {seed}: fleet did not settle");

        let counters = svc.log().counters();
        assert!(
            counters.timeouts >= 1,
            "seed {seed}: the delayed response must register as a timeout"
        );
        assert_eq!(counters.quarantines, 1, "seed {seed}");
        let evil = svc
            .statuses()
            .into_iter()
            .find(|s| s.name == "gpu-evil")
            .unwrap();
        // The tap's recording round may pass; everything after replays a
        // stale answer against a fresh challenge and fails.
        assert!(
            evil.rounds_passed <= 2,
            "seed {seed}: attacker banked {} rounds",
            evil.rounds_passed
        );
        assert!(counters.value_rejects >= u64::from(cfg.policy.quarantine_after));
    }
}

#[test]
fn roster_stays_most_powerful_first_across_join_and_leave() {
    let cfg = ServiceConfig::default();
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(5));
    svc.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 45),
        enclave(SVC, 65),
    );
    svc.join(
        FleetMember::tiny("gpu-b", DeviceConfig::sim_tiny(), 46),
        enclave(SVC, 66),
    );
    svc.run_for(10_000);

    // A more powerful device joining mid-run moves to the head of the
    // roster (paper §3.2: most powerful first).
    svc.join(
        FleetMember::tiny("gpu-big", DeviceConfig::sim_small(), 47),
        enclave(SVC, 67),
    );
    let statuses = svc.statuses();
    assert_eq!(statuses[0].name, "gpu-big");
    assert!(statuses[0].power > statuses[1].power);
    // Equal-power devices stay name-ordered behind it.
    assert_eq!(statuses[1].name, "gpu-a");
    assert_eq!(statuses[2].name, "gpu-b");

    svc.run_for(60_000);
    for s in svc.statuses() {
        assert_eq!(s.state, DeviceState::Trusted, "{}", s.name);
    }

    // Leaving revokes: the device is unscheduled and its round counter
    // freezes while the rest of the fleet keeps attesting.
    assert!(svc.leave("gpu-a"));
    assert!(!svc.leave("gpu-a-typo"));
    let frozen = svc
        .statuses()
        .into_iter()
        .find(|s| s.name == "gpu-a")
        .unwrap()
        .rounds_passed;
    svc.run_for(200_000);
    let after = svc
        .statuses()
        .into_iter()
        .find(|s| s.name == "gpu-a")
        .unwrap();
    assert_eq!(after.state, DeviceState::Revoked);
    assert_eq!(after.rounds_passed, frozen);
    let big = svc
        .statuses()
        .into_iter()
        .find(|s| s.name == "gpu-big")
        .unwrap();
    assert!(big.rounds_passed > frozen);
    assert_eq!(svc.log().counters().leaves, 1);
}

#[test]
fn slow_proxy_burns_restart_budget_then_quarantines() {
    // A device that genuinely became slower after enrollment (a proxy
    // relaying the exchange, paper §8): answers are *correct* but exceed
    // the calibrated threshold. The policy first spends the timing-restart
    // budget (the §7.2 false-positive allowance), then counts failures.
    let cfg = ServiceConfig {
        deadline_slack: 4_000, // let slow-but-correct answers arrive
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(9));
    svc.join(
        FleetMember::tiny("gpu-p", DeviceConfig::sim_tiny(), 48),
        enclave(SVC, 68),
    );
    svc.join(
        FleetMember::tiny("gpu-q", DeviceConfig::sim_tiny(), 49),
        enclave(SVC, 69),
    );
    // One checksum run is ~38k virtual ticks at this VF scale, so the
    // first round needs a generous settling window.
    svc.run_for(45_000);
    assert_eq!(svc.state_of("gpu-p"), Some(DeviceState::Trusted));

    // +3000 cycles: far past T_avg + 2.5σ (σ is a few hundred cycles at
    // this VF scale) yet within the deadline slack.
    svc.node_mut("gpu-p").unwrap().extra_compute = 3_000;
    for _ in 0..40 {
        svc.run_for(50_000);
        if svc.state_of("gpu-p") == Some(DeviceState::Quarantined) {
            break;
        }
    }

    assert_eq!(svc.state_of("gpu-p"), Some(DeviceState::Quarantined));
    assert_eq!(svc.state_of("gpu-q"), Some(DeviceState::Trusted));
    let counters = svc.log().counters();
    let policy = Policy::default();
    assert_eq!(counters.restarts, u64::from(policy.max_timing_restarts));
    // Every reject on this path is a timing reject, never a wrong value:
    // restart budget + quarantine budget.
    assert_eq!(
        counters.timing_rejects,
        u64::from(policy.max_timing_restarts) + u64::from(policy.quarantine_after)
    );
    assert_eq!(counters.value_rejects, 0);
    assert_eq!(counters.timeouts, 0);
}

#[test]
fn enrollment_failure_quarantines_without_stopping_the_service() {
    // calibration_runs = 0 gives the threshold estimator an empty sample
    // set; the Result-returning constructor turns that into a recorded
    // enrollment failure instead of a panic, and the rest of the fleet
    // keeps attesting.
    let cfg = ServiceConfig {
        calibration_runs: 0,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(3));
    svc.join(
        FleetMember::tiny("gpu-x", DeviceConfig::sim_tiny(), 50),
        enclave(SVC, 70),
    );
    assert_eq!(svc.state_of("gpu-x"), Some(DeviceState::Quarantined));
    assert_eq!(svc.log().counters().calibration_failures, 1);

    // A properly calibrated device joining the same service still works.
    let good_cfg = ServiceConfig::default();
    let mut good = AttestationService::new(good_cfg, DhGroup::test_group(), perfect_net(4));
    good.join(
        FleetMember::tiny("gpu-y", DeviceConfig::sim_tiny(), 51),
        enclave(SVC, 71),
    );
    good.run_for(45_000);
    assert_eq!(good.state_of("gpu-y"), Some(DeviceState::Trusted));
}

/// The PR-7 acceptance scenario for freshness decay: with the re-attest
/// interval stretched past the decay windows, both devices walk
/// `Trusted → Stale → Degraded` on pure clock advance, the scheduled
/// re-attestation round reverses the decay back to `Trusted`, and every
/// transition is visible in both the event log and the telemetry
/// counters.
#[test]
fn freshness_decays_without_reattestation_and_reverses_on_a_pass() {
    let names = ["gpu-a", "gpu-b"];
    let cfg = ServiceConfig {
        // Re-attestation comes *after* full decay: the device must go
        // stale and degraded first, then be rescued by the next round.
        reattest_interval: 200_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        epoch_interval: 50_000,
        freshness: FreshnessPolicy {
            stale_after: 60_000,
            degraded_after: 120_000,
        },
        ..ServiceConfig::default()
    };
    let reg = Registry::new();
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(9));
    svc.attach_telemetry(&reg);
    svc.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 41),
        enclave(SVC, 61),
    );
    svc.join(
        FleetMember::tiny("gpu-b", DeviceConfig::sim_tiny(), 42),
        enclave(SVC, 62),
    );

    // Inside the trusted window: enrollment passed, nothing decayed.
    svc.run_for(50_000);
    for name in names {
        assert_eq!(svc.state_of(name), Some(DeviceState::Trusted), "{name}");
        assert_eq!(svc.freshness_of(name), Some(Freshness::Trusted), "{name}");
    }

    // Past stale_after with no round in between.
    svc.run_for(50_000); // now ≈ 100k
    for name in names {
        assert_eq!(svc.freshness_of(name), Some(Freshness::Stale), "{name}");
    }

    // Past degraded_after.
    svc.run_for(70_000); // now ≈ 170k
    for name in names {
        assert_eq!(svc.freshness_of(name), Some(Freshness::Degraded), "{name}");
    }

    // The next re-attestation round (one interval after the first pass
    // at ≈13.6k, so starting ≈213.6k and passing ≈227k) reverses the
    // decay.
    svc.run_for(70_000); // now ≈ 240k
    for name in names {
        assert_eq!(svc.state_of(name), Some(DeviceState::Trusted), "{name}");
        assert_eq!(svc.freshness_of(name), Some(Freshness::Trusted), "{name}");
    }

    // The event log shows the exact ladder per device: decay down, one
    // recovery up.
    for name in names {
        let ladder: Vec<(Freshness, Freshness)> = svc
            .log()
            .events()
            .iter()
            .filter(|e| e.device == name)
            .filter_map(|e| match e.kind {
                EventKind::FreshnessChanged { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            ladder,
            vec![
                (Freshness::Trusted, Freshness::Stale),
                (Freshness::Stale, Freshness::Degraded),
                (Freshness::Degraded, Freshness::Trusted),
            ],
            "{name}: unexpected freshness ladder"
        );
    }

    // And telemetry carries the same transitions, one per device per
    // rung, under the stable series name.
    for (to, want) in [("stale", 2), ("degraded", 2), ("trusted", 2)] {
        assert_eq!(
            counter_value(&reg, "service_freshness_transitions_total", &[("to", to)]),
            want,
            "transition counter to={to}"
        );
    }
    assert_eq!(svc.log().counters().freshness_transitions, 6);

    // Epochs sealed on schedule throughout (50k cadence, now ≈ 210k),
    // also visible in telemetry.
    assert_eq!(svc.sealed_epochs().len(), 4);
    assert_eq!(
        counter_value(&reg, "service_epochs_sealed_total", &[]),
        4,
        "sealed-epoch counter"
    );
}

/// A device leaves and a new device rejoins under its name. Every
/// by-name accessor must keep resolving to the first device admitted
/// under that name — the slot a scan of the device list finds first —
/// and `report_for` must hand out that device's leaf, the first of the
/// two same-named leaves in the name-sorted epoch.
#[test]
fn rejoined_name_resolves_to_the_first_slot() {
    let cfg = ServiceConfig {
        reattest_interval: 50_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        epoch_interval: 40_000,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(5));
    svc.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 41),
        enclave(SVC, 61),
    );
    svc.join(
        FleetMember::tiny("gpu-b", DeviceConfig::sim_tiny(), 42),
        enclave(SVC, 62),
    );
    svc.run_for(30_000);
    let first_key = svc.evidence_key_of("gpu-a").expect("gpu-a enrolled");

    assert!(svc.leave("gpu-a"));
    svc.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 43),
        enclave(SVC, 63),
    );
    svc.run_for(30_000); // seals the 40k epoch with both gpu-a slots in it

    assert_eq!(svc.state_of("gpu-a"), Some(DeviceState::Revoked));
    assert_eq!(svc.evidence_key_of("gpu-a"), Some(first_key));
    let epoch = svc.sealed_epochs().last().expect("an epoch sealed");
    let same_name: Vec<_> = epoch
        .leaves
        .iter()
        .filter(|l| l.device == "gpu-a")
        .collect();
    assert_eq!(same_name.len(), 2, "the rejoined device has its own leaf");
    assert_ne!(same_name[0].head, same_name[1].head);

    let report = svc.report_for("gpu-a").expect("gpu-a is in the epoch");
    assert_eq!(&report.leaf, same_name[0], "first leaf under the name");
    assert_eq!(report.leaf.head, svc.evidence_of("gpu-a").unwrap().head());
    assert!(
        verify_report(&report, &epoch.root, &first_key, svc.now()).is_ok(),
        "the first slot's report verifies under its own key"
    );
    // The untouched neighbour still resolves to its own, only slot.
    let b = svc.report_for("gpu-b").expect("gpu-b is in the epoch");
    let b_key = svc.evidence_key_of("gpu-b").unwrap();
    assert!(verify_report(&b, &epoch.root, &b_key, svc.now()).is_ok());
}

/// A device renamed through `node_mut` after joining no longer answers
/// to its old name: the by-name index checks the name it resolves to,
/// so the old name finds nothing instead of the renamed device.
#[test]
fn renamed_device_does_not_answer_to_its_old_name() {
    let mut svc = AttestationService::new(
        ServiceConfig::default(),
        DhGroup::test_group(),
        perfect_net(6),
    );
    svc.join(
        FleetMember::tiny("gpu-a", DeviceConfig::sim_tiny(), 44),
        enclave(SVC, 64),
    );
    svc.join(
        FleetMember::tiny("gpu-b", DeviceConfig::sim_tiny(), 45),
        enclave(SVC, 65),
    );
    assert!(svc.state_of("gpu-a").is_some());

    svc.node_mut("gpu-a").unwrap().member.name = "gpu-z".into();
    assert_eq!(svc.state_of("gpu-a"), None);
    assert!(svc.evidence_key_of("gpu-a").is_none());
    assert!(svc.node_mut("gpu-a").is_none());
    assert!(svc.state_of("gpu-b").is_some(), "neighbour unaffected");
}

/// Runs a `size`-device fleet with telemetry attached: every device
/// enrolls and attests, device 0 is compromised with the §8 replay tap
/// and driven into quarantine, then every third honest device leaves.
/// Returns the service, its registry and the series count before the
/// leaves.
fn telemetry_fleet(size: usize) -> (AttestationService<SimNet>, Registry, usize) {
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        latency_budget: 200,
        deadline_slack: 2_000,
        calibration_runs: 5,
        policy: Policy::default(),
        ..ServiceConfig::default()
    };
    let reg = Registry::new();
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), perfect_net(13));
    svc.attach_telemetry(&reg);
    for i in 0..size {
        let seed = 41 + i as u8;
        let m = FleetMember::tiny(format!("gpu-{i:02}"), DeviceConfig::sim_tiny(), seed);
        svc.join(m, enclave(SVC, seed.wrapping_add(20)));
    }
    svc.run_for(45_000);
    compromise_with_replay(&mut svc, "gpu-00");
    svc.run_for(200_000);
    assert_eq!(svc.state_of("gpu-00"), Some(DeviceState::Quarantined));
    let series = reg.collect().len();
    for i in (1..size).step_by(3) {
        assert!(svc.leave(&format!("gpu-{i:02}")));
    }
    svc.run_for(60_000);
    (svc, reg, series)
}

/// Telemetry is fleet-level: a 40-device fleet exports exactly as many
/// series as a 2-device one, devices leaving changes nothing, and the
/// per-device verdicts (`verdicts_of`) add up to the fleet counters.
#[test]
fn telemetry_series_count_is_independent_of_fleet_size() {
    let (small, small_reg, small_series) = telemetry_fleet(2);
    let (large, large_reg, large_series) = telemetry_fleet(40);
    assert_eq!(small_series, large_series, "series grew with the fleet");
    assert_eq!(
        small_reg.collect().len(),
        small_series,
        "leaves changed the series"
    );
    assert_eq!(
        large_reg.collect().len(),
        large_series,
        "leaves changed the series"
    );
    assert!(large.log().counters().leaves > 0);

    for (svc, reg) in [(&small, &small_reg), (&large, &large_reg)] {
        let statuses = svc.statuses();
        let (mut accepted, mut value_rejects, mut timing_rejects) = (0, 0, 0);
        for s in &statuses {
            let v = svc.verdicts_of(&s.name).expect("managed device");
            accepted += v.accepted;
            value_rejects += v.value_rejects;
            timing_rejects += v.timing_rejects;
        }
        // A verdict series summed over both verdict paths.
        let both_paths = |name: &str, cause: &[(&str, &str)]| -> u64 {
            ["classic", "precomputed"]
                .iter()
                .map(|&p| counter_value(reg, name, &[cause, &[("path", p)]].concat()))
                .sum()
        };
        let wrong_value = [("cause", "wrong_value")];
        let too_slow = [("cause", "too_slow")];
        assert_eq!(
            value_rejects,
            both_paths("verifier_rejects_total", &wrong_value)
        );
        assert_eq!(
            timing_rejects,
            both_paths("verifier_rejects_total", &too_slow)
        );
        assert!(value_rejects > 0, "the compromised device was rejected");
        // `VerificationStats::accepted` also counts each device's SAKE
        // key establishment, which is not a round verdict and has no
        // accept series: one per enrolled device.
        let round_accepts = both_paths("verifier_accepts_total", &[]);
        assert_eq!(accepted, round_accepts + statuses.len() as u64);
    }
    assert_eq!(large.verdicts_of("no-such-gpu"), None);
}
