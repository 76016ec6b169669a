//! Tier-1 smoke test for the real socket transport: one device enrolls
//! over a Unix-domain socket loopback — full calibration + SAKE key
//! establishment crossing real frames — then passes an attestation
//! round and lands `Trusted`, all inside a hard harness timeout so a
//! deadlocked supervision thread fails the suite instead of hanging it.

use std::time::{Duration, Instant};

mod common;

use common::with_timeout;
use sage_repro::core::multi::FleetMember;
use sage_repro::crypto::{test_entropy, DhGroup};
use sage_repro::service::{
    AttestationService, Bind, ClockDriver, DeviceLink, DeviceLinkConfig, DeviceState, LinkConfig,
    Pump, ServiceConfig, TcpTransport,
};
use sage_repro::sgx::SgxPlatform;

#[test]
fn uds_loopback_enrolls_and_attests_one_round() {
    with_timeout(120, || {
        let dir = std::env::temp_dir().join(format!("sage-loopback-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("verifier.sock");

        let net = TcpTransport::bind(Bind::Uds(sock.clone()), LinkConfig::default())
            .expect("bind UDS listener");
        let cfg = ServiceConfig {
            reattest_interval: 20_000,
            ..ServiceConfig::default()
        };
        let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);

        let link = DeviceLink::spawn(
            FleetMember::modeled("gpu-00000", 11),
            DhGroup::test_group(),
            DeviceLinkConfig {
                connect: Bind::Uds(sock.clone()),
                ..DeviceLinkConfig::default()
            },
        );

        let platform = SgxPlatform::new([7u8; 16]);
        let mut driver = ClockDriver::new(100_000);
        let mut joined = 0usize;
        let deadline = Instant::now() + Duration::from_secs(90);
        loop {
            assert!(
                Instant::now() < deadline,
                "device never enrolled and attested"
            );
            if joined == 0 {
                // With an empty fleet the virtual clock jumps instantly,
                // so without this wait the drive loop can spin to
                // completion before the device thread even connects.
                svc.transport().wait_activity(Duration::from_millis(200));
            }
            let target = svc.now() + 30_000;
            if driver.run_until(&mut svc, target) == Pump::Enrolls {
                while let Some((name, stream)) = svc.transport_mut().take_pending_enroll() {
                    assert_eq!(name, "gpu-00000");
                    let enclave = platform.launch(b"loop-verifier", &mut test_entropy(23));
                    svc.join_remote(FleetMember::modeled("gpu-00000", 11), enclave, stream);
                    joined += 1;
                }
            }
            let done = svc
                .statuses()
                .iter()
                .any(|s| s.state == DeviceState::Trusted && s.rounds_passed >= 1);
            if done {
                break;
            }
        }

        assert_eq!(joined, 1, "exactly one enrollment expected");
        let statuses = svc.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].state, DeviceState::Trusted);
        assert!(statuses[0].rounds_passed >= 1, "no round passed");
        assert!(
            svc.evidence_of("gpu-00000").is_some(),
            "evidence chain must exist after enrollment"
        );

        let stats = svc.transport().stats();
        assert!(stats.accepted >= 1);
        assert_eq!(stats.enrolls, 1);
        assert!(stats.frames_rx > 0 && stats.frames_tx > 0);

        let report = link.stop();
        assert!(report.enrolled);
        assert_eq!(report.enrollments, 1);
        assert!(report.rounds_answered >= 1);

        let _ = std::fs::remove_dir_all(&dir);
    });
}
