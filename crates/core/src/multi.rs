//! Multi-GPU root-of-trust establishment (paper §3.2 and §8, proxy
//! case 1).
//!
//! In heterogeneous multi-GPU systems the verification function must run
//! on the *fastest* GPU first — otherwise the adversary could answer a
//! slower GPU's challenge with a faster one and bank the time difference.
//! The paper's prescription: "the dynamic RoT could also be established
//! in sequence (while actively maintaining already established RoTs)
//! starting from the most powerful GPU to the least powerful GPU."
//!
//! [`attest_fleet`] implements exactly that: devices are ranked by
//! compute power, attested in descending order, and every already
//! attested device is re-verified after each new establishment (the
//! "actively maintaining" step).

use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::Enclave;
use sage_vf::VfParams;

use crate::{
    agent::DeviceAgent,
    error::{Result, SageError},
    session::GpuSession,
    verifier::{AttestationOutcome, Verifier},
};

/// A relative compute-power score used for ordering (issue slots per
/// second: SMs × partitions × clock).
pub fn power_score(cfg: &DeviceConfig) -> u128 {
    cfg.num_sms as u128 * cfg.partitions_per_sm as u128 * cfg.clock_hz as u128
}

/// One member of the fleet: the session plus its device-resident agent.
pub struct FleetMember {
    /// Installed VF session.
    pub session: GpuSession,
    /// Device-resident agent.
    pub agent: DeviceAgent,
    /// Human-readable name (defaults to the device config name).
    pub name: String,
}

impl FleetMember {
    /// Creates a member from a session and agent.
    pub fn new(session: GpuSession, agent: DeviceAgent) -> FleetMember {
        let name = session.dev.cfg.name.to_string();
        FleetMember {
            session,
            agent,
            name,
        }
    }

    /// A cycle-accurate test member: `cfg` running the `test_tiny` VF at
    /// 5 iterations, its agent drawing [`test_entropy`]`(agent_seed)`.
    /// Deterministic, so a seeded fleet replays byte for byte.
    pub fn tiny(name: impl Into<String>, cfg: DeviceConfig, agent_seed: u8) -> FleetMember {
        let mut params = VfParams::test_tiny();
        params.iterations = 5;
        let session =
            GpuSession::install(Device::new(cfg), &params, FILL_SEED).expect("install VF");
        FleetMember::seeded(name, session, agent_seed)
    }

    /// A modeled test member: a `sim_nano` device whose `fleet_tiny`
    /// checksums come from the replay engine with synthesized timing
    /// (see [`GpuSession::install_modeled`]), so fleets of thousands
    /// stay cheap. Seeded like [`FleetMember::tiny`].
    pub fn modeled(name: impl Into<String>, agent_seed: u8) -> FleetMember {
        let session = GpuSession::install_modeled(
            Device::new(DeviceConfig::sim_nano()),
            &VfParams::fleet_tiny(),
            FILL_SEED,
            10_000,
        )
        .expect("install modeled VF");
        FleetMember::seeded(name, session, agent_seed)
    }

    fn seeded(name: impl Into<String>, session: GpuSession, agent_seed: u8) -> FleetMember {
        let agent = DeviceAgent::new(Box::new(test_entropy(agent_seed)));
        FleetMember {
            session,
            agent,
            name: name.into(),
        }
    }
}

/// The VF fill seed every test member installs with.
const FILL_SEED: u32 = 0xF1EE7;

/// The protocol phase a fleet attestation failed in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FleetPhase {
    /// Timing calibration of a new device.
    Calibrate,
    /// Key establishment (modified SAKE) on a new device.
    Establish,
    /// Re-verification of an already established root of trust.
    Maintain,
}

/// A mid-fleet failure: which device failed, in which phase, and why.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetFailure {
    /// The device the failure occurred on.
    pub device: String,
    /// The phase it failed in.
    pub phase: FleetPhase,
    /// The underlying protocol error.
    pub error: SageError,
}

impl std::fmt::Display for FleetFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device {} failed during {:?}: {}",
            self.device, self.phase, self.error
        )
    }
}

/// The outcome of a fleet attestation.
///
/// On failure the already-attested prefix is *kept*: `attested` holds
/// every device whose root of trust was established before the failure,
/// and `failure` names the device that broke the sequence and why.
pub struct FleetOutcome {
    /// Per-device results, in the order the devices were attested
    /// (descending power).
    pub attested: Vec<(String, AttestationOutcome)>,
    /// The first failure, if the sequence did not complete.
    pub failure: Option<FleetFailure>,
}

impl FleetOutcome {
    /// Whether every submitted device was attested.
    pub fn is_complete(&self) -> bool {
        self.failure.is_none()
    }

    /// Converts to a `Result`, discarding the partial prefix on failure
    /// (the pre-partial-results behaviour).
    pub fn into_result(self) -> Result<Vec<(String, AttestationOutcome)>> {
        match self.failure {
            None => Ok(self.attested),
            Some(f) => Err(SageError::Protocol(f.to_string())),
        }
    }
}

/// Sorts members most-powerful-first (paper §3.2), breaking equal
/// [`power_score`]s deterministically by device name so fleets with
/// identical hardware attest in a stable order across runs.
pub fn sort_most_powerful_first(members: &mut [FleetMember]) {
    members.sort_by(|a, b| {
        power_score(&b.session.dev.cfg)
            .cmp(&power_score(&a.session.dev.cfg))
            .then_with(|| a.name.cmp(&b.name))
    });
}

/// Attests every fleet member in descending power order, re-verifying all
/// previously attested members after each new establishment.
///
/// `calibration_runs` timed exchanges are used per device to establish
/// its threshold. Always returns the per-device outcomes for the attested
/// prefix together with the established sessions; a mid-fleet failure is
/// reported in [`FleetOutcome::failure`] rather than discarding the
/// devices already attested.
pub fn attest_fleet(
    enclave_factory: &mut dyn FnMut() -> Enclave,
    group: DhGroup,
    mut members: Vec<FleetMember>,
    calibration_runs: usize,
) -> (FleetOutcome, Vec<(FleetMember, Verifier)>) {
    sort_most_powerful_first(&mut members);

    let mut attested: Vec<(String, AttestationOutcome)> = Vec::new();
    let mut done: Vec<(FleetMember, Verifier)> = Vec::new();
    let mut failure = None;

    'fleet: for mut member in members {
        let mut verifier = Verifier::new(
            enclave_factory(),
            member.session.build().clone(),
            group.clone(),
        );
        if let Err(e) = verifier.calibrate(&mut member.session, calibration_runs) {
            failure = Some(fail(&member.name, FleetPhase::Calibrate, e));
            break;
        }
        let outcome = match verifier.establish_key(&mut member.session, &mut member.agent, None) {
            Ok(o) => o,
            Err(e) => {
                failure = Some(fail(&member.name, FleetPhase::Establish, e));
                break;
            }
        };
        attested.push((member.name.clone(), outcome));
        done.push((member, verifier));

        // Actively maintain the RoTs established so far: one fresh
        // verification round per earlier device.
        for (earlier, earlier_verifier) in done.iter_mut() {
            if let Err(e) = earlier_verifier.verify_once(&mut earlier.session) {
                failure = Some(fail(&earlier.name, FleetPhase::Maintain, e));
                break 'fleet;
            }
        }
    }

    (FleetOutcome { attested, failure }, done)
}

fn fail(name: &str, phase: FleetPhase, error: SageError) -> FleetFailure {
    FleetFailure {
        device: name.to_string(),
        phase,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_sgx_sim::SgxPlatform;

    fn fleet_of(members: Vec<FleetMember>) -> (FleetOutcome, Vec<(FleetMember, Verifier)>) {
        let platform = SgxPlatform::new([7u8; 16]);
        let mut launch_seed = 60u8;
        let mut factory = move || {
            launch_seed += 1;
            platform.launch(b"fleet-verifier", &mut test_entropy(launch_seed))
        };
        attest_fleet(&mut factory, DhGroup::test_group(), members, 5)
    }

    fn run_fleet(cfgs: Vec<DeviceConfig>) -> FleetOutcome {
        let mut seed = 40u8;
        let members = cfgs
            .into_iter()
            .map(|c| {
                seed += 1;
                FleetMember::tiny(c.name, c, seed)
            })
            .collect();
        fleet_of(members).0
    }

    #[test]
    fn fleet_attests_most_powerful_first() {
        let outcome = run_fleet(vec![
            DeviceConfig::sim_tiny(),  // 1 SM
            DeviceConfig::sim_small(), // 2 SMs — more powerful
        ]);
        assert!(outcome.is_complete());
        assert_eq!(outcome.attested.len(), 2);
        assert_eq!(outcome.attested[0].0, "SIM-SMALL");
        assert_eq!(outcome.attested[1].0, "SIM-TINY");
    }

    #[test]
    fn power_score_orders_presets() {
        assert!(power_score(&DeviceConfig::a100()) > power_score(&DeviceConfig::sim_large()));
        assert!(power_score(&DeviceConfig::sim_large()) > power_score(&DeviceConfig::sim_small()));
        assert!(power_score(&DeviceConfig::sim_small()) > power_score(&DeviceConfig::sim_tiny()));
    }

    #[test]
    fn single_device_fleet_works() {
        let outcome = run_fleet(vec![DeviceConfig::sim_tiny()]);
        assert!(outcome.is_complete());
        assert_eq!(outcome.attested.len(), 1);
        assert_eq!(outcome.into_result().unwrap().len(), 1);
    }

    #[test]
    fn equal_power_ties_break_on_name() {
        // Two identical devices: power scores tie, so the deterministic
        // name tie-break decides the attestation order.
        let a = FleetMember::tiny("tiny-b", DeviceConfig::sim_tiny(), 41);
        let b = FleetMember::tiny("tiny-a", DeviceConfig::sim_tiny(), 42);
        let (outcome, _) = fleet_of(vec![a, b]);
        assert!(outcome.is_complete());
        assert_eq!(outcome.attested[0].0, "tiny-a");
        assert_eq!(outcome.attested[1].0, "tiny-b");
    }

    #[test]
    fn mid_fleet_failure_keeps_attested_prefix() {
        // The weaker device's static checksum data is corrupted, so its
        // calibration fails — but the stronger device, attested first,
        // must survive in the outcome with its established session.
        let strong = FleetMember::tiny("SIM-SMALL", DeviceConfig::sim_small(), 43);
        let mut weak = FleetMember::tiny("SIM-TINY", DeviceConfig::sim_tiny(), 44);
        let layout = weak.session.build().layout;
        weak.session
            .dev
            .poke(layout.base + layout.fill_off + 16, &[0xFF; 4])
            .unwrap();
        let (outcome, done) = fleet_of(vec![strong, weak]);

        assert_eq!(outcome.attested.len(), 1);
        assert_eq!(outcome.attested[0].0, "SIM-SMALL");
        assert_eq!(done.len(), 1);
        let failure = outcome.failure.as_ref().expect("weak device must fail");
        assert_eq!(failure.device, "SIM-TINY");
        assert_eq!(failure.phase, FleetPhase::Calibrate);
        assert!(matches!(failure.error, SageError::ChecksumMismatch { .. }));
        assert!(outcome.into_result().is_err());
    }
}
