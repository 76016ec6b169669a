//! Protected machine-learning-style workload: a matrix multiplication on
//! confidential inputs (the paper's motivating scenario — §1: "machine
//! learning to security-critical or sensitive domains such as healthcare
//! or financial modeling").
//!
//! ```text
//! cargo run --release --example secure_matmul
//! ```
//!
//! Demonstrates the confidentiality rule of §5.2.4: authenticated-only
//! transfers may overlap verification, but *confidential* data must not
//! leave the enclave until the checksum verdict is in. It also shows
//! what an eavesdropper on the PCIe bus actually observes.

use sage::{agent::DeviceAgent, kernels, Verifier};
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{BusTap, Device, DeviceConfig};
use sage_sgx_sim::SgxPlatform;
use sage_vf::VfParams;

/// A passive eavesdropper on the PCIe bus: records everything it sees.
struct Snooper {
    captured: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl BusTap for Snooper {
    fn on_h2d(&mut self, _addr: u32, data: &mut Vec<u8>) {
        self.captured
            .lock()
            .expect("no poisoning")
            .extend_from_slice(data);
    }
}

fn main() {
    let n = 48usize;
    // The "patient data": two confidential matrices.
    let a: Vec<f32> = (0..n * n).map(|i| ((i % 17) as f32 - 8.0) * 0.5).collect();
    let b: Vec<f32> = (0..n * n).map(|i| ((i % 11) as f32 - 5.0) * 0.25).collect();
    let to_bytes =
        |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };

    let device = Device::new(DeviceConfig::sim_small());
    let mut params = VfParams::test_tiny();
    params.iterations = 15;
    let mut session = sage::GpuSession::install(device, &params, 0x9A7E).unwrap();

    // The adversary listens on the bus for the whole run.
    let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    session.dev.install_bus_tap(Box::new(Snooper {
        captured: std::sync::Arc::clone(&captured),
    }));

    let platform = SgxPlatform::new([0x42; 16]);
    let enclave = platform.launch(b"sage-verifier-v1", &mut test_entropy(5));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    verifier.calibrate(&mut session, 8).unwrap();

    let mut agent = DeviceAgent::new(Box::new(test_entropy(9)));
    let outcome = verifier
        .establish_key(&mut session, &mut agent, None)
        .unwrap();
    println!("root of trust established; key exchanged");

    // Kernel integrity first…
    let kernel = kernels::matmul_kernel();
    verifier
        .verify_user_kernel(&mut session, &mut agent, &kernel.encode())
        .unwrap();
    println!("matmul kernel hash verified on-device");

    // …then, and only then, the confidential inputs (paper §5.2.4).
    let abuf = session.dev.alloc((4 * n * n) as u32).unwrap();
    let bbuf = session.dev.alloc((4 * n * n) as u32).unwrap();
    let cbuf = session.dev.alloc((4 * n * n) as u32).unwrap();
    let mut chan = verifier.open_channel(&outcome);
    for (addr, data) in [(abuf, to_bytes(&a)), (bbuf, to_bytes(&b))] {
        let wire = chan.seal(addr, &data, true);
        agent.receive_data(&mut session, &wire).unwrap();
    }

    let entry = kernels::load_kernel(&mut session.dev, &kernel).unwrap();
    session
        .dev
        .run_single(
            kernels::KernelLaunch {
                entry_pc: entry,
                grid_dim: n as u32,
                block_dim: (n as u32).div_ceil(32) * 32,
                regs_per_thread: kernels::MATMUL_REGS,
                smem_bytes: 0,
                params: vec![abuf, bbuf, cbuf, n as u32],
            }
            .into_launch(session.ctx),
        )
        .unwrap();

    let wire = agent
        .send_data(&mut session, cbuf, (4 * n * n) as u32, true)
        .unwrap();
    let raw = chan.open(&wire).unwrap();
    let got: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    assert_eq!(got, kernels::matmul_host(&a, &b, n));
    println!("matmul result correct ({n}x{n})");

    // What did the eavesdropper get? Check that no plaintext input
    // window appears anywhere in the captured bus traffic.
    let captured = captured.lock().expect("no poisoning");
    let plain_a = to_bytes(&a);
    let window = &plain_a[..64];
    let leaked = captured.windows(window.len()).any(|w| w == window);
    println!(
        "bus eavesdropper captured {} bytes; plaintext inputs visible: {}",
        captured.len(),
        if leaked { "YES (bug!)" } else { "no" }
    );
    assert!(!leaked, "confidential data must not cross the bus in clear");
}
