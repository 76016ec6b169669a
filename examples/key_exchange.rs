//! SAKE walkthrough: prints every message of the modified key
//! establishment protocol (paper §5.2.3, Eqs. 1–8) as it flows between
//! the verifier enclave and the GPU.
//!
//! ```text
//! cargo run --release --example key_exchange
//! ```

use sage::{agent::DeviceAgent, sake::SakeMessage, Verifier};
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::SgxPlatform;
use sage_vf::VfParams;

fn hex(bytes: &[u8], n: usize) -> String {
    bytes
        .iter()
        .take(n)
        .map(|b| format!("{b:02x}"))
        .collect::<String>()
        + "…"
}

fn main() {
    let device = Device::new(DeviceConfig::sim_small());
    let mut params = VfParams::test_tiny();
    params.iterations = 15;
    let mut session = sage::GpuSession::install(device, &params, 0x6E4A).unwrap();

    let platform = SgxPlatform::new([0x42; 16]);
    let enclave = platform.launch(b"sage-verifier-v1", &mut test_entropy(11));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    verifier.calibrate(&mut session, 8).unwrap();
    println!("calibrated; running modified SAKE…\n");

    let mut agent = DeviceAgent::new(Box::new(test_entropy(23)));
    let mut narrate = |step: usize, msg: &mut SakeMessage| {
        let line = match msg {
            SakeMessage::Challenge { v2 } => {
                format!(
                    "[t0] V → D : v2 = {}            (checksum challenge seed)",
                    hex(v2, 8)
                )
            }
            SakeMessage::Commit { w2, mac } => format!(
                "[t1] D → V : w2 = {}, MAC_c(w2) = {}  (checksum-keyed commitment)",
                hex(w2, 8),
                hex(mac, 8)
            ),
            SakeMessage::RevealV1 { v1 } => {
                format!(
                    "     V → D : v1 = {}            (chain reveal; D checks H(v1)=v2)",
                    hex(v1, 8)
                )
            }
            SakeMessage::DeviceReveal1 { w1, k, mac_k } => format!(
                "     D → V : w1 = {}, k = g^b = {}, MAC(k) = {}",
                hex(w1, 8),
                hex(k, 8),
                hex(mac_k, 8)
            ),
            SakeMessage::RevealV0 { v0 } => {
                format!(
                    "     V → D : v0 = g^a = {}      (final chain link = DH public)",
                    hex(v0, 8)
                )
            }
            SakeMessage::DeviceReveal0 { w0 } => {
                format!(
                    "     D → V : w0 = H(c‖r) = {}   (root; validates deferred MAC)",
                    hex(w0, 8)
                )
            }
        };
        println!("step {step}: {line}");
    };

    let outcome = verifier
        .establish_key(&mut session, &mut agent, Some(&mut narrate))
        .unwrap();

    println!(
        "\nchecksum exchange: {} cycles (threshold {})",
        outcome.measured_cycles, outcome.threshold_cycles
    );
    println!(
        "verifier key: {}   device key: {}",
        hex(&outcome.session_key, 16),
        hex(&agent.session_key().unwrap(), 16)
    );
    assert_eq!(Some(outcome.session_key), agent.session_key());
    println!("keys agree — sk_VD = g^ab established (Eq. 8).");
}
