//! The transport-robustness acceptance run: the same fleet is driven
//! twice — once over clean direct sockets (the control), once through a
//! [`ChaosProxy`] that tears frames at arbitrary byte boundaries and
//! severs every live connection at least twice mid-session. The chaos
//! run must end with every honest device back in `Trusted` purely via
//! session resume (zero re-enrollments), the mid-life cheater
//! quarantined (zero false accepts), and — the strong claim — every
//! device's evidence-chain head **byte-identical** to the control run:
//! link flaps are invisible to the attestation record, because virtual
//! time freezes while a round is outstanding and resumed links replay
//! the round at its original tick.

use std::thread;
use std::time::{Duration, Instant};

mod common;

use common::with_timeout;
use sage_repro::core::multi::FleetMember;
use sage_repro::crypto::{test_entropy, DhGroup};
use sage_repro::service::{
    AttestationService, Bind, ChaosProfile, ChaosProxy, ClockDriver, DeviceLink, DeviceLinkConfig,
    DeviceState, LinkConfig, Pump, ServiceConfig, TcpTransport,
};
use sage_repro::sgx::SgxPlatform;

const HONEST: usize = 3;
const CHEATER: usize = HONEST; // index of the compromised device
const DEVICES: usize = HONEST + 1;
const TARGET_ROUNDS: u64 = 3;

fn modeled_member(index: usize) -> FleetMember {
    let seed = (index as u8).wrapping_mul(3).wrapping_add(11) | 1;
    FleetMember::modeled(format!("gpu-{index:05}"), seed)
}

struct RunResult {
    /// Evidence-chain head per device, in index order.
    heads: Vec<[u8; 32]>,
    states: Vec<DeviceState>,
    rounds_passed: Vec<u64>,
    resumes: Vec<u64>,
    enrollments: Vec<u64>,
    link_downs: u64,
    reconnects: u64,
}

/// Enrolls the fleet over real sockets and drives it to
/// `TARGET_ROUNDS` passed rounds per honest device with the cheater
/// quarantined. With `chaos`, traffic crosses a torn-frame proxy and
/// every live connection is severed after each of the first two round
/// milestones.
fn run_fleet(tag: &str, chaos: bool) -> RunResult {
    let dir = std::env::temp_dir().join(format!("sage-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("verifier.sock");

    let net =
        TcpTransport::bind(Bind::Uds(sock.clone()), LinkConfig::default()).expect("bind listener");
    let cfg = ServiceConfig {
        reattest_interval: 20_000,
        backoff_jitter: 500,
        ..ServiceConfig::default()
    };
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);

    let proxy = chaos.then(|| {
        ChaosProxy::spawn(
            Bind::Uds(dir.join("proxy.sock")),
            Bind::Uds(sock.clone()),
            ChaosProfile::torn(0xC4A0_5EED),
        )
        .expect("spawn chaos proxy")
    });
    let dial = match &proxy {
        Some(p) => p.local_bind(),
        None => Bind::Uds(sock.clone()),
    };

    let links: Vec<DeviceLink> = (0..DEVICES)
        .map(|i| {
            DeviceLink::spawn(
                modeled_member(i),
                DhGroup::test_group(),
                DeviceLinkConfig {
                    connect: dial.clone(),
                    compromise_after: (i == CHEATER).then_some(1),
                    ..DeviceLinkConfig::default()
                },
            )
        })
        .collect();

    // Wait for the whole fleet to knock, then enroll in name order at
    // virtual tick 0 — connection arrival order is wall-timing noise
    // and must not leak into NodeId assignment or evidence timestamps.
    let wall_deadline = Instant::now() + Duration::from_secs(60);
    while svc.transport().pending_enrolls() < DEVICES {
        assert!(Instant::now() < wall_deadline, "fleet never connected");
        thread::sleep(Duration::from_millis(10));
    }
    let mut pending = Vec::new();
    while let Some(p) = svc.transport_mut().take_pending_enroll() {
        pending.push(p);
    }
    pending.sort_by(|a, b| a.0.cmp(&b.0));
    let platform = SgxPlatform::new([7u8; 16]);
    for (name, stream) in pending {
        let index: usize = name[4..].parse().expect("gpu-NNNNN name");
        let enclave = platform.launch(b"chaos-verifier", &mut test_entropy(23));
        svc.join_remote(modeled_member(index), enclave, stream);
    }

    let mut driver = ClockDriver::new(200_000);
    let honest_floor = |svc: &AttestationService<TcpTransport>| {
        svc.statuses()
            .iter()
            .filter(|s| s.name != format!("gpu-{CHEATER:05}"))
            .map(|s| s.rounds_passed)
            .min()
            .unwrap_or(0)
    };
    let mut severs_done = 0u64;
    for _ in 0..500 {
        let target = svc.now() + 10_000;
        match driver.run_until(&mut svc, target) {
            Pump::Target => {}
            Pump::Enrolls => panic!("device attempted re-enrollment — resume must suffice"),
        }
        if let Some(p) = &proxy {
            // Sever everything after the first and second full-fleet
            // round milestones: each connection dies at least twice
            // with a SAKE session live behind it.
            if severs_done < 2 && honest_floor(&svc) > severs_done {
                p.sever_all();
                severs_done += 1;
            }
        }
        let done = honest_floor(&svc) >= TARGET_ROUNDS
            && svc.state_of(&format!("gpu-{CHEATER:05}")) == Some(DeviceState::Quarantined);
        if done && (proxy.is_none() || severs_done >= 2) {
            break;
        }
    }

    let statuses = svc.statuses();
    assert_eq!(statuses.len(), DEVICES);
    let by_index = |i: usize| {
        statuses
            .iter()
            .find(|s| s.name == format!("gpu-{i:05}"))
            .expect("device present")
    };
    let heads = (0..DEVICES)
        .map(|i| {
            svc.evidence_of(&format!("gpu-{i:05}"))
                .expect("evidence chain")
                .head()
        })
        .collect();
    let stats = svc.transport().stats();
    let mut resumes = Vec::new();
    let mut enrollments = Vec::new();
    for link in links {
        let r = link.stop();
        resumes.push(r.resumes);
        enrollments.push(r.enrollments);
    }
    let result = RunResult {
        heads,
        states: (0..DEVICES).map(|i| by_index(i).state).collect(),
        rounds_passed: (0..DEVICES).map(|i| by_index(i).rounds_passed).collect(),
        resumes,
        enrollments,
        link_downs: svc.log().counters().link_downs,
        reconnects: stats.reconnects,
    };
    drop(svc);
    drop(proxy);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn severed_fleet_resumes_with_byte_identical_evidence() {
    with_timeout(300, || {
        let control = run_fleet("control", false);
        let chaos = run_fleet("chaos", true);

        // Control sanity: clean links, no resumes, no link events.
        assert_eq!(control.link_downs, 0);
        assert!(control.resumes.iter().all(|&r| r == 0));

        for run in [&control, &chaos] {
            for i in 0..HONEST {
                assert_eq!(run.states[i], DeviceState::Trusted, "device {i}");
                assert!(run.rounds_passed[i] >= TARGET_ROUNDS, "device {i}");
            }
            // Zero false accepts: the mid-life cheater is quarantined
            // and never passed a round after turning.
            assert_eq!(run.states[CHEATER], DeviceState::Quarantined);
            assert_eq!(run.rounds_passed[CHEATER], 1);
            // Zero re-enrollments, chaos or not.
            assert!(
                run.enrollments.iter().all(|&e| e == 1),
                "re-enrollment seen"
            );
        }

        // Every connection was severed at least twice and came back via
        // session resume.
        assert!(chaos.link_downs >= 2, "links never flapped");
        assert!(
            chaos.reconnects >= 2 * DEVICES as u64,
            "expected ≥2 resumes per device at the transport, got {}",
            chaos.reconnects
        );
        for (i, &r) in chaos.resumes.iter().enumerate() {
            assert!(r >= 2, "device {i} resumed only {r} times");
        }

        // The strong claim: chain heads are byte-identical — the
        // attestation record cannot tell the severed run from the
        // control run.
        for i in 0..DEVICES {
            assert_eq!(
                control.heads[i], chaos.heads[i],
                "evidence head diverged for device {i}"
            );
        }
    });
}
