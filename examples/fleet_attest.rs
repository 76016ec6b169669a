//! Multi-GPU fleet attestation (paper §3.2): establish the dynamic root
//! of trust on every GPU of a heterogeneous system, most powerful first,
//! while actively maintaining the roots already established.
//!
//! ```text
//! cargo run --release --example fleet_attest
//! ```

use sage::agent::DeviceAgent;
use sage::multi::{attest_fleet, power_score, FleetMember};
use sage::GpuSession;
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::SgxPlatform;
use sage_vf::VfParams;

fn main() {
    // A heterogeneous system: one bigger and one smaller GPU (note the
    // order given here is *not* the attestation order).
    let configs = vec![DeviceConfig::sim_tiny(), DeviceConfig::sim_small()];
    println!("fleet members (submission order):");
    for c in &configs {
        println!("  {:9} power score {}", c.name, power_score(c));
    }

    let mut params = VfParams::test_tiny();
    params.iterations = 10;
    let mut seed = 30u8;
    let members: Vec<FleetMember> = configs
        .into_iter()
        .map(|cfg| {
            seed += 2;
            let session = GpuSession::install(Device::new(cfg), &params, 0xF1EE7).unwrap();
            FleetMember::new(session, DeviceAgent::new(Box::new(test_entropy(seed))))
        })
        .collect();

    let platform = SgxPlatform::new([0x42; 16]);
    let mut launch_seed = 70u8;
    let mut factory = move || {
        launch_seed += 1;
        platform.launch(b"fleet-verifier", &mut test_entropy(launch_seed))
    };

    let (outcome, fleet) = attest_fleet(&mut factory, DhGroup::test_group(), members, 8);
    if let Some(failure) = &outcome.failure {
        eprintln!("fleet attestation incomplete: {failure}");
        std::process::exit(1);
    }

    println!("\nattestation order (descending power, per §3.2):");
    for (name, att) in &outcome.attested {
        println!(
            "  {:9} checksum exchange {} cycles (threshold {}), key established",
            name, att.measured_cycles, att.threshold_cycles
        );
    }
    println!(
        "\nall {} roots of trust established and re-verified after each step.",
        fleet.len()
    );
}
