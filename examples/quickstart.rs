//! Quickstart: attest a GPU and run a kernel on it, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full SAGE flow from paper Fig. 3: install the verification
//! function → calibrate the timing threshold → establish the dynamic
//! root of trust + session key (modified SAKE) → check the user kernel's
//! hash on the device → send data over the protected channel → run the
//! kernel → read the result back authenticated.

use sage::{
    agent::DeviceAgent,
    kernels::{self, vecadd::Elem},
    Verifier,
};
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::SgxPlatform;
use sage_vf::VfParams;

fn main() {
    // 1. A device and a verification function sized for it.
    let device = Device::new(DeviceConfig::sim_small());
    let mut params = VfParams::test_tiny();
    params.iterations = 20;
    let mut session = sage::GpuSession::install(device, &params, 0xC0DE).unwrap();
    println!(
        "installed VF: {} loop instructions, {} blocks x {} threads",
        session.build().loop_instructions,
        params.grid_blocks,
        params.block_threads
    );

    // 2. The verifier runs in an enclave on the host.
    let platform = SgxPlatform::new([0x42; 16]);
    let enclave = platform.launch(b"sage-verifier-v1", &mut test_entropy(3));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());

    // 3. Calibrate the timing threshold on the known-good device.
    let calibration = verifier.calibrate(&mut session, 10).unwrap();
    println!(
        "calibrated: T_avg = {:.0} cycles, sigma = {:.1}, threshold = {} cycles",
        calibration.t_avg,
        calibration.sigma,
        calibration.threshold()
    );

    // 4. Establish the dynamic root of trust and the session key (SAKE).
    let mut agent = DeviceAgent::new(Box::new(test_entropy(7)));
    let outcome = verifier
        .establish_key(&mut session, &mut agent, None)
        .unwrap();
    println!(
        "attested: checksum exchange took {} cycles (threshold {}), session key established",
        outcome.measured_cycles, outcome.threshold_cycles
    );

    // 5. Verify the user kernel's identity on the device (H(r || code)).
    let kernel = kernels::vecadd_kernel(Elem::U32);
    verifier
        .verify_user_kernel(&mut session, &mut agent, &kernel.encode())
        .unwrap();
    println!("user kernel measurement verified on-device (SHA-256 microcode)");

    // 6. Protected data transfer + execution.
    let n = 128u32;
    let a: Vec<u32> = (0..n).collect();
    let b: Vec<u32> = (0..n).map(|i| i * 3).collect();
    let bytes = |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|w| w.to_le_bytes()).collect() };
    let abuf = session.dev.alloc(4 * n).unwrap();
    let bbuf = session.dev.alloc(4 * n).unwrap();
    let obuf = session.dev.alloc(4 * n).unwrap();

    let mut chan = verifier.open_channel(&outcome);
    for (addr, data) in [(abuf, bytes(&a)), (bbuf, bytes(&b))] {
        let wire = chan.seal(addr, &data, true);
        agent.receive_data(&mut session, &wire).unwrap();
    }
    println!("inputs transferred encrypted + authenticated");

    let entry = kernels::load_kernel(&mut session.dev, &kernel).unwrap();
    session
        .dev
        .run_single(
            kernels::KernelLaunch {
                entry_pc: entry,
                grid_dim: n.div_ceil(64),
                block_dim: 64,
                regs_per_thread: kernels::VECADD_REGS,
                smem_bytes: 0,
                params: vec![abuf, bbuf, obuf, n],
            }
            .into_launch(session.ctx),
        )
        .unwrap();

    // 7. Results come back over the authenticated channel.
    let wire = agent.send_data(&mut session, obuf, 4 * n, false).unwrap();
    let raw = chan.open(&wire).unwrap();
    let out: Vec<u32> = raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 4));
    println!("vecadd verified: out[i] == 4*i for all {n} elements — done.");
}
