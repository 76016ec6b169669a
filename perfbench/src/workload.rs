//! The four workloads: how each fleet is built from the seed, stepped,
//! read and checked.
//!
//! Every workload is a mix of the three things a user of the service
//! does: keep devices attested (steps of a fixed virtual span), fetch a
//! device report and verify it offline (reads), and scrape the metrics
//! registry (scrapes). The workloads differ in fleet shape, transport
//! and device model, and in how many reads and scrapes ride along.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sage::agent::DeviceAgent;
use sage::multi::FleetMember;
use sage::GpuSession;
use sage_crypto::{DhGroup, Sha256};
use sage_evidence::{verify_report, DeviceReport, FreshnessPolicy};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_service::{
    AttestationService, Bind, ClockDriver, DeviceLink, DeviceLinkConfig, DeviceState, LinkConfig,
    LinkProfile, Pump, QuorumConfig, SamplingConfig, ServiceConfig, SimNet, SplitMix64,
    TcpTransport, Transport,
};
use sage_sgx_sim::SgxPlatform;
use sage_telemetry::Registry;
use sage_vf::VfParams;

use crate::tap::Tap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetAudit,
    LinkUds,
    DeviceCycle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetAudit,
        Workload::LinkUds,
        Workload::DeviceCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetAudit => "fleet-audit",
            Workload::LinkUds => "link-uds",
            Workload::DeviceCycle => "device-cycle",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn shape(self) -> Shape {
        match self {
            // 10k devices enrolled in 20 groups 2 500 ticks apart, so a
            // 2 500-tick step re-attests about one group; one read every
            // other step and one scrape per fleet (a 10k-device scrape
            // takes more than a second).
            Workload::FleetSteady => Shape {
                devices: 10_000,
                groups: 20,
                interval: 50_000,
                span: 2_500,
                warmup_steps: 20,
                steps: 200,
                read_every: 2,
                reads: 1,
                scrape_every: 0,
            },
            // Read-heavy: 2 report reads after every step and a scrape
            // every 10th. A step spans a whole interval: unsampled devices
            // sleep to the next epoch boundary, so work bunches there and
            // shorter steps would alternate heavy and idle. The warm-up
            // quarantines the cheaters.
            Workload::FleetAudit => Shape {
                devices: 2_000,
                groups: 20,
                interval: 50_000,
                span: 50_000,
                warmup_steps: 3,
                steps: 100,
                read_every: 1,
                reads: 2,
                scrape_every: 10,
            },
            // A step is one back-to-back round per device over the
            // sockets. Short fleets keep evidence chains (and so report
            // sizes and memory) independent of throughput.
            Workload::LinkUds => Shape {
                devices: 2,
                groups: 1,
                interval: 20_000,
                span: 20_000,
                warmup_steps: 64,
                steps: 4_096,
                read_every: 1_024,
                reads: 32,
                scrape_every: 128,
            },
            // A step is two cycle-accurate rounds per device. A round's
            // own virtual duration (its measured cycles plus the link)
            // pushes the next one back; the interval is long enough that
            // this drift rarely moves a round across a step boundary,
            // whatever the seed.
            Workload::DeviceCycle => Shape {
                devices: 2,
                groups: 1,
                interval: 50_000_000,
                span: 100_000_000,
                warmup_steps: 1,
                steps: 128,
                read_every: 1,
                reads: 1,
                scrape_every: 4,
            },
        }
    }
}

/// Fixed sizes of one workload. Every fleet of a run does the same
/// work: `steps` steps after `warmup_steps`, so histories, memory and
/// report sizes do not depend on how fast the program is. Each fleet
/// takes enough steps and reads for its own p90 (see the test below).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub devices: usize,
    /// Enrollment groups, joined `interval / groups` virtual ticks apart
    /// so rounds spread over the re-attest interval.
    pub groups: usize,
    pub interval: u64,
    /// Virtual ticks per step.
    pub span: u64,
    /// Unmeasured steps between enrollment and measurement.
    pub warmup_steps: u64,
    /// Measured steps per fleet.
    pub steps: u64,
    /// Reads happen after every `read_every`-th step, `reads` at a time.
    pub read_every: u64,
    pub reads: usize,
    /// A scrape after every `scrape_every`-th step; 0 = once per fleet,
    /// after its last step.
    pub scrape_every: u64,
}

fn entropy(seed: u8) -> impl FnMut(&mut [u8]) {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

/// The VF a device-cycle device runs: `test_tiny`'s code shape at 20
/// iterations, 4 blocks of 128 threads.
pub fn cycle_params() -> VfParams {
    VfParams {
        iterations: 20,
        grid_blocks: 4,
        block_threads: 128,
        ..VfParams::test_tiny()
    }
}

/// Fleet member `index` of a workload; its agent entropy and VF fill
/// come from the seed.
pub fn member(w: Workload, index: usize, seed: u64) -> FleetMember {
    let fill = 0xF1EE7 ^ (seed as u32);
    let session = match w {
        Workload::DeviceCycle => GpuSession::install(
            Device::new(DeviceConfig::sim_small()),
            &cycle_params(),
            fill,
        ),
        _ => GpuSession::install_modeled(
            Device::new(DeviceConfig::sim_nano()),
            &VfParams::fleet_tiny(),
            fill,
            10_000,
        ),
    }
    .expect("install VF");
    let agent_seed = (seed as u8)
        .wrapping_add(index as u8)
        .wrapping_mul(3)
        .wrapping_add((index >> 8) as u8)
        | 1;
    let mut m = FleetMember::new(session, DeviceAgent::new(Box::new(entropy(agent_seed))));
    m.name = format!("gpu-{index:05}");
    m
}

fn service_config(w: Workload, seed: u64) -> ServiceConfig {
    let s = w.shape();
    let base = ServiceConfig {
        reattest_interval: s.interval,
        epoch_interval: s.interval,
        // A long-running service keeps a bounded event ring.
        event_capacity: 65_536,
        ..ServiceConfig::default()
    };
    match w {
        Workload::FleetSteady => ServiceConfig {
            shards: 2,
            workers: 1,
            bank_capacity: 0,
            bank_workers: 0,
            ..base
        },
        Workload::FleetAudit => ServiceConfig {
            shards: 2,
            workers: 1,
            bank_capacity: 0,
            bank_workers: 0,
            quorum: QuorumConfig {
                verifiers: 3,
                seed: seed ^ 0x51D,
            },
            sampling: SamplingConfig {
                coverage_per_mille: 500,
                seed: seed ^ 0xC0FFEE,
            },
            freshness: FreshnessPolicy {
                stale_after: s.interval + s.interval / 2,
                degraded_after: 3 * s.interval,
            },
            ..base
        },
        Workload::LinkUds => ServiceConfig {
            bank_capacity: 0,
            bank_workers: 0,
            ..base
        },
        Workload::DeviceCycle => ServiceConfig {
            bank_capacity: 2,
            bank_workers: 0,
            ..base
        },
    }
}

/// Verifier replicas voting on each verdict.
pub fn verifiers(w: Workload) -> u64 {
    u64::from(service_config(w, 0).quorum.verifiers)
}

fn sim_net(w: Workload, seed: u64) -> SimNet {
    SimNet::new(
        seed,
        LinkProfile {
            latency: 100,
            jitter: 25,
            drop_per_mille: if w == Workload::FleetAudit { 10 } else { 0 },
            dup_per_mille: 0,
        },
    )
}

/// How a run treats tracing and telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry attached, no spans: the end-to-end configuration.
    Plain,
    /// Telemetry attached, transport spans recorded.
    Traced,
    /// No telemetry registry at all (the telemetry cost baseline).
    Detached,
}

/// The socket side of the link-uds workload.
struct LinkSide {
    driver: ClockDriver,
    links: Vec<DeviceLink>,
    socket: PathBuf,
    reenrolls: u64,
}

/// One built fleet, ready to step.
pub struct Fleet<T: Transport> {
    pub w: Workload,
    pub seed: u64,
    pub svc: AttestationService<Tap<T>>,
    pub reg: Option<Registry>,
    /// Device names in name order.
    pub names: Vec<String>,
    /// Planted cheaters (compromised before their first round).
    pub cheaters: Vec<String>,
    /// Wall seconds from an empty service to an enrolled fleet.
    pub setup_s: f64,
    /// Wall microseconds of each join call.
    pub join_us: Vec<f64>,
    link: Option<LinkSide>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Builds a SimNet fleet (fleet-steady, fleet-audit, device-cycle).
///
/// Groups join `interval / groups` ticks apart; the service runs
/// between groups, and only the joins (plus service construction and
/// telemetry attach) count as set-up.
pub fn build_sim(w: Workload, seed: u64, mode: Mode) -> Fleet<SimNet> {
    let s = w.shape();
    let t0 = Instant::now();
    let mut svc = AttestationService::new(
        service_config(w, seed),
        DhGroup::test_group(),
        Tap::new(sim_net(w, seed), mode == Mode::Traced),
    );
    let reg = (mode != Mode::Detached).then(Registry::new);
    if let Some(reg) = &reg {
        svc.attach_telemetry(reg);
    }
    let mut setup = t0.elapsed().as_secs_f64();
    let platform = SgxPlatform::new([7u8; 16]);
    let per_group = s.devices.div_ceil(s.groups);
    let cheaters = if w == Workload::FleetAudit {
        cheater_indices(seed, s.devices)
    } else {
        Vec::new()
    };
    let mut planted = Vec::new();
    let mut join_us = Vec::with_capacity(s.devices);
    for i in 0..s.devices {
        if i % per_group == 0 {
            svc.run_until((i / per_group) as u64 * s.interval / s.groups as u64);
        }
        let m = member(w, i, seed);
        let ((), dt) = timed(|| {
            let enclave_seed = (seed as u8)
                .wrapping_add(i as u8)
                .wrapping_mul(5)
                .wrapping_add((i >> 8) as u8)
                | 1;
            let enclave = platform.launch(b"perfbench-verifier", &mut entropy(enclave_seed));
            svc.join(m, enclave);
        });
        setup += dt;
        join_us.push(dt * 1e6);
        if cheaters.contains(&i) {
            // Compromised right after enrollment, before its first
            // round: every pass it ever gets is a false accept.
            let name = format!("gpu-{i:05}");
            let extra = svc.threshold_of(&name).expect("calibrated") / 2;
            svc.node_mut(&name).expect("managed").extra_compute = extra;
            planted.push(name);
        }
    }
    let mut names: Vec<String> = svc.statuses().into_iter().map(|s| s.name).collect();
    names.sort();
    Fleet {
        w,
        seed,
        svc,
        reg,
        names,
        cheaters: planted,
        setup_s: setup,
        join_us,
        link: None,
    }
}

/// The two devices fleet-audit turns into timing cheaters.
fn cheater_indices(seed: u64, devices: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0xC4EA7);
    let n = devices as u64;
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    vec![a as usize, b as usize]
}

/// Builds the link-uds fleet: two device links dial a Unix socket under
/// `dir` (a path relative to the working directory, which keeps it
/// short), enroll over it, and the enrolled service is re-homed onto the
/// tapped transport through a snapshot (`join_remote` exists only for the
/// bare socket transport).
pub fn build_link(seed: u64, mode: Mode, dir: &Path) -> Fleet<TcpTransport> {
    let w = Workload::LinkUds;
    let s = w.shape();
    std::fs::create_dir_all(dir).expect("create socket directory");
    let socket = dir.join(format!("v{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let cfg = service_config(w, seed);
    let t0 = Instant::now();
    let net = TcpTransport::bind(
        Bind::Uds(socket.clone()),
        LinkConfig {
            seed,
            ..LinkConfig::default()
        },
    )
    .expect("bind verifier socket");
    let mut svc = AttestationService::new(cfg, DhGroup::test_group(), net);
    let links: Vec<DeviceLink> = (0..s.devices)
        .map(|i| {
            DeviceLink::spawn(
                member(w, i, seed),
                DhGroup::test_group(),
                DeviceLinkConfig {
                    connect: Bind::Uds(socket.clone()),
                    ..DeviceLinkConfig::default()
                },
            )
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.transport().pending_enrolls() < s.devices {
        assert!(Instant::now() < deadline, "device links never connected");
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut pending = Vec::new();
    while let Some(p) = svc.transport_mut().take_pending_enroll() {
        pending.push(p);
    }
    pending.sort_by(|a, b| a.0.cmp(&b.0));
    let platform = SgxPlatform::new([7u8; 16]);
    let mut join_us = Vec::new();
    for (name, stream) in pending {
        let index: usize = name[4..].parse().expect("gpu-NNNNN");
        let twin = member(w, index, seed);
        let enclave = platform.launch(b"perfbench-verifier", &mut entropy((seed as u8) | 1));
        let ((), dt) = timed(|| {
            svc.join_remote(twin, enclave, stream);
        });
        join_us.push(dt * 1e6);
    }
    let snap = svc.snapshot();
    let (net, endpoints) = svc.into_endpoints();
    let mut svc = AttestationService::restore(
        cfg,
        DhGroup::test_group(),
        Tap::new(net, mode == Mode::Traced),
        &snap,
        endpoints,
    )
    .expect("restore enrolled service onto the tapped transport");
    let reg = (mode != Mode::Detached).then(Registry::new);
    if let Some(reg) = &reg {
        svc.attach_telemetry(reg);
        svc.transport().inner().attach_telemetry(reg);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut names: Vec<String> = svc.statuses().into_iter().map(|s| s.name).collect();
    names.sort();
    Fleet {
        w,
        seed,
        svc,
        reg,
        names,
        cheaters: Vec::new(),
        setup_s,
        join_us,
        link: Some(LinkSide {
            driver: ClockDriver::new(200_000),
            links,
            socket,
            reenrolls: 0,
        }),
    }
}

/// Steps a fleet by one fixed virtual span.
pub trait Step {
    fn step(&mut self);
}

impl Step for Fleet<SimNet> {
    fn step(&mut self) {
        self.svc.run_for(self.w.shape().span);
    }
}

impl Step for Fleet<TcpTransport> {
    fn step(&mut self) {
        let target = self.svc.now() + self.w.shape().span;
        let link = self.link.as_mut().expect("link fleet");
        while let Pump::Enrolls = link.driver.run_until(&mut self.svc, target) {
            // A device re-dialed as a stranger: resume should have
            // sufficed. Refuse it and count the failure.
            link.reenrolls += 1;
            while self
                .svc
                .transport_mut()
                .inner_mut()
                .take_pending_enroll()
                .is_some()
            {}
        }
    }
}

/// One operator read: fetch a device report, ship it as bytes, decode
/// and verify it offline against the sealed root the ledger publishes.
/// Returns the report size when it verifies.
pub fn read<T: Transport>(svc: &AttestationService<Tap<T>>, name: &str) -> Option<usize> {
    let bytes = svc.report_for(name)?.encode();
    let report = DeviceReport::decode(&bytes).ok()?;
    let root = svc
        .sealed_epochs()
        .iter()
        .rev()
        .find(|e| e.index == report.epoch)?
        .root;
    let key = svc.evidence_key_of(name)?;
    verify_report(&report, &root, &key, svc.now()).ok()?;
    Some(bytes.len())
}

impl<T: Transport> Fleet<T> {
    fn passed(&self, name: &str) -> u64 {
        self.svc
            .statuses()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.rounds_passed)
    }

    /// Digest of the fleet's history: every evidence chain head and
    /// length (name order), the event counters and the virtual clock.
    pub fn digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        for name in &self.names {
            h.update(name.as_bytes());
            if let Some(c) = self.svc.evidence_of(name) {
                h.update(&c.head());
                h.update(&c.seq().to_le_bytes());
            }
        }
        h.update(self.svc.log().counters_json().as_bytes());
        h.update(&self.svc.now().to_le_bytes());
        h.finalize()
    }

    /// Rounds the planted cheaters passed: each is a false accept.
    pub fn false_accepts(&self) -> u64 {
        self.cheaters.iter().map(|name| self.passed(name)).sum()
    }

    /// The end-of-run correctness checks; each failure is one message.
    pub fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let fa = self.false_accepts();
        if fa > 0 {
            errors.push(format!("{fa} false accepts"));
        }
        for name in &self.cheaters {
            let st = self.svc.state_of(name);
            if st != Some(DeviceState::Quarantined) {
                errors.push(format!("cheater {name} ended {st:?}, not quarantined"));
            }
        }
        if self.w != Workload::FleetAudit {
            for s in self.svc.statuses() {
                if s.state != DeviceState::Trusted {
                    errors.push(format!("honest {} ended {}", s.name, s.state));
                }
            }
        }
        if let Some(link) = self.link.as_mut() {
            if link.reenrolls > 0 {
                errors.push(format!("{} re-enrollment attempts", link.reenrolls));
            }
            for l in link.links.drain(..) {
                let r = l.stop();
                if r.enrollments != 1 {
                    errors.push(format!("a device enrolled {} times", r.enrollments));
                }
            }
        }
        errors
    }

    /// Tears the fleet down (dropped links stop) and removes its socket.
    pub fn shutdown(mut self) {
        let socket = self.link.take().map(|link| link.socket);
        drop(self);
        if let Some(socket) = socket {
            let _ = std::fs::remove_file(socket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_for;

    #[test]
    fn every_fleet_supports_its_own_p90() {
        for w in Workload::ALL {
            let s = w.shape();
            let reads = s.steps / s.read_every * s.reads as u64;
            assert!(s.steps >= samples_for(0.9) as u64, "{} steps", w.name());
            assert!(reads >= samples_for(0.9) as u64, "{} reads", w.name());
            assert!(s.scrape_every <= s.steps, "{} scrapes", w.name());
        }
    }
}
