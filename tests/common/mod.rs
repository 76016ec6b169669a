//! Fixtures shared by the root integration tests: the seeded verifier
//! enclave, the modeled fleet the determinism suites sweep, the
//! comparable form of a run's history, the §8 replay compromise and
//! the socket suites' hang guard.
//!
//! Every test binary compiles its own copy of this module and uses a
//! different part of it, so unused items are expected here.
#![allow(dead_code)]

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use sage_repro::attacks::forge::ReplayTap;
use sage_repro::core::multi::FleetMember;
use sage_repro::crypto::{test_entropy, DhGroup};
use sage_repro::service::{AttestationService, LinkProfile, ServiceConfig, SimNet};
use sage_repro::sgx::{Enclave, SgxPlatform};
use sage_repro::telemetry::{MetricValue, Registry};

/// The verifier image the service suites launch.
pub const SVC: &[u8] = b"svc-verifier";

/// A verifier enclave launched from `image` on the fixed test platform,
/// its DRBG seeded with [`test_entropy`]`(seed)`.
pub fn enclave(image: &[u8], seed: u8) -> Enclave {
    SgxPlatform::new([7u8; 16]).launch(image, &mut test_entropy(seed))
}

/// A simulated network with a fixed 100-tick latency and no jitter,
/// loss or duplication.
pub fn perfect_net(seed: u64) -> SimNet {
    SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    )
}

/// `devices` modeled members `gpu-00`, `gpu-01`, … joined to a fresh
/// service over a jittery but lossless network, each with its own
/// verifier enclave launched from `image`. Agent and enclave seeds are
/// derived from `seed` and the member's index.
pub fn build_fleet(
    cfg: ServiceConfig,
    devices: usize,
    image: &[u8],
    seed: u64,
) -> AttestationService<SimNet> {
    let net = SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: 0,
            dup_per_mille: 0,
        },
    );
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    for i in 0..devices {
        let agent_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(3) | 1;
        let enclave_seed = (seed as u8).wrapping_add(i as u8).wrapping_mul(5) | 1;
        svc.join(
            FleetMember::modeled(format!("gpu-{i:02}"), agent_seed),
            enclave(image, enclave_seed),
        );
    }
    svc
}

/// Everything the determinism contract covers, in comparable form:
/// snapshot bytes (clock, per-device durable state, sealed epochs,
/// event log, counters) plus each device's evidence head and length.
pub struct History {
    pub snapshot: Vec<u8>,
    pub heads: Vec<(String, [u8; 32], u64)>,
    pub events_json: String,
}

pub fn history_of(svc: &AttestationService<SimNet>) -> History {
    let mut heads = Vec::new();
    for s in svc.statuses() {
        let chain = svc.evidence_of(&s.name).expect("evidence chain");
        heads.push((s.name.clone(), chain.head(), chain.records().len() as u64));
    }
    History {
        snapshot: svc.snapshot(),
        heads,
        events_json: svc.log().to_json(),
    }
}

/// Installs the §8 replay tap on an enrolled device: from now on the
/// first checksum readback is recorded and substituted into every later
/// round — fresh challenges make that a wrong answer every time.
pub fn compromise_with_replay(svc: &mut AttestationService<SimNet>, name: &str) {
    let session = svc.session_mut(name).expect("device is managed");
    let result_addr = session.build().layout.result_addr();
    session
        .dev
        .install_bus_tap(Box::new(ReplayTap::new(result_addr)));
}

/// The value of the counter series `name` with exactly `labels`.
pub fn counter_value(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
    for (n, ls, v) in reg.collect() {
        let same = n == name
            && ls.len() == labels.len()
            && ls
                .iter()
                .zip(labels)
                .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2);
        if same {
            match v {
                MetricValue::Counter(c) => return c,
                other => panic!("{name} is not a counter: {other:?}"),
            }
        }
    }
    panic!("series {name}{labels:?} not found");
}

/// Runs `f` on a worker thread and panics if it does not finish within
/// `secs`: a socket suite must fail, not hang, on a wedged thread.
pub fn with_timeout<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => h.join().unwrap(),
        Err(_) => panic!("harness timeout: run exceeded {secs}s"),
    }
}
