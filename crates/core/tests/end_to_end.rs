//! End-to-end protocol flow (paper Fig. 3): install VF → calibrate →
//! attest + SAKE key establishment → user-kernel authenticity check →
//! protected data transfer → kernel execution.

use sage::{
    agent::DeviceAgent,
    channel::Role,
    kernels::{self, matmul_host},
    sake::SakeMessage,
    GpuSession, SageError, SecureChannel, Verifier,
};
use sage_crypto::{test_entropy, DhGroup};
use sage_gpu_sim::{Device, DeviceConfig};
use sage_sgx_sim::{verify_quote, SgxPlatform};
use sage_vf::VfParams;

fn setup() -> (Verifier, GpuSession, DeviceAgent, SgxPlatform) {
    let params = VfParams::test_tiny();
    let dev = Device::new(DeviceConfig::sim_tiny());
    let session = GpuSession::install(dev, &params, 0xFEED).unwrap();
    let platform = SgxPlatform::new([9u8; 16]);
    let enclave = platform.launch(b"sage-verifier-v1", &mut test_entropy(3));
    let verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    let agent = DeviceAgent::new(Box::new(test_entropy(7)));
    (verifier, session, agent, platform)
}

#[test]
fn full_protocol_happy_path() {
    let (mut verifier, mut session, mut agent, platform) = setup();

    // Phase 1: calibrate on the known-good device.
    let calibration = verifier.calibrate(&mut session, 12).unwrap();
    assert!(calibration.t_avg > 0.0);

    // Phase 2: repeated checksum verification (dynamic RoT).
    for _ in 0..3 {
        verifier.verify_once(&mut session).unwrap();
    }

    // Phase 3: SAKE key establishment.
    let outcome = verifier
        .establish_key(&mut session, &mut agent, None)
        .unwrap();
    assert_eq!(Some(outcome.session_key), agent.session_key());
    assert!(outcome.measured_cycles <= outcome.threshold_cycles);

    // Phase 4: external challenger verifies the enclave quote.
    let quote = verifier.quote_attestation(&outcome);
    assert!(verify_quote(&platform.quote_verification_key(), &quote));

    // Phase 5: user-kernel authenticity check (device-side SHA-256).
    let kernel = kernels::matmul_kernel();
    let code = kernel.encode();
    verifier
        .verify_user_kernel(&mut session, &mut agent, &code)
        .unwrap();

    // Phase 6: protected data transfer + matmul execution.
    let n = 32usize;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32 - 6.0).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.5).collect();
    let to_bytes =
        |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };

    let abuf = session.dev.alloc((4 * n * n) as u32).unwrap();
    let bbuf = session.dev.alloc((4 * n * n) as u32).unwrap();
    let cbuf = session.dev.alloc((4 * n * n) as u32).unwrap();

    let mut host_chan = verifier.open_channel(&outcome);
    let wire_a = host_chan.seal(abuf, &to_bytes(&a), true);
    let wire_b = host_chan.seal(bbuf, &to_bytes(&b), true);
    // The ciphertext on the bus is not the plaintext.
    assert_ne!(wire_a.body, to_bytes(&a));
    agent.receive_data(&mut session, &wire_a).unwrap();
    agent.receive_data(&mut session, &wire_b).unwrap();

    let entry = kernels::load_kernel(&mut session.dev, &kernel).unwrap();
    session
        .dev
        .run_single(
            kernels::KernelLaunch {
                entry_pc: entry,
                grid_dim: n as u32,
                block_dim: 32,
                regs_per_thread: kernels::matmul::MATMUL_REGS,
                smem_bytes: 0,
                params: vec![abuf, bbuf, cbuf, n as u32],
            }
            .into_launch(session.ctx),
        )
        .unwrap();

    // Phase 7: results come back over the authenticated channel.
    let wire_c = agent
        .send_data(&mut session, cbuf, (4 * n * n) as u32, true)
        .unwrap();
    let raw = host_chan.open(&wire_c).unwrap();
    let got: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    assert_eq!(got, matmul_host(&a, &b, n));
}

#[test]
fn tampered_kernel_fails_authenticity_check() {
    let (mut verifier, mut session, mut agent, _) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    verifier
        .establish_key(&mut session, &mut agent, None)
        .unwrap();

    // The verifier expects the genuine kernel...
    let genuine = kernels::matmul_kernel().encode();
    // ...but the untrusted host placed a modified one: the measurement
    // runs over what is actually on the device path. Model: the device
    // measures tampered bytes.
    let mut tampered = genuine.clone();
    tampered[200] ^= 0x40;
    let r = [7u8; 32];
    let device_hash = agent.measure_kernel(&mut session, &r, &tampered).unwrap();
    let mut expect_input = r.to_vec();
    expect_input.extend_from_slice(&genuine);
    assert_ne!(
        device_hash.to_vec(),
        sage_crypto::sha256(&expect_input).to_vec()
    );
}

#[test]
fn mitm_on_sake_is_detected() {
    // Tamper each message in turn; every attempt must abort the protocol.
    for step in 1..=5usize {
        let (mut verifier, mut session, mut agent, _) = setup();
        verifier.calibrate(&mut session, 6).unwrap();
        let mut tap = |s: usize, msg: &mut SakeMessage| {
            if s == step {
                match msg {
                    SakeMessage::Challenge { v2 } => v2[0] ^= 1,
                    SakeMessage::Commit { w2, .. } => w2[0] ^= 1,
                    SakeMessage::RevealV1 { v1 } => v1[0] ^= 1,
                    SakeMessage::DeviceReveal1 { k, .. } => k[0] ^= 1,
                    SakeMessage::RevealV0 { v0 } => v0[0] ^= 1,
                    SakeMessage::DeviceReveal0 { w0 } => w0[0] ^= 1,
                }
            }
        };
        let result = verifier.establish_key(&mut session, &mut agent, Some(&mut tap));
        assert!(result.is_err(), "tampering step {step} went undetected");
    }
}

#[test]
fn uncalibrated_verifier_refuses() {
    let (mut verifier, mut session, _, _) = setup();
    assert!(matches!(
        verifier.verify_once(&mut session),
        Err(SageError::Protocol(_))
    ));
}

#[test]
fn channel_endpoints_must_share_the_sake_key() {
    let (mut verifier, mut session, mut agent, _) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    let outcome = verifier
        .establish_key(&mut session, &mut agent, None)
        .unwrap();
    let mut host = verifier.open_channel(&outcome);
    // A device endpoint with a different key cannot authenticate.
    let mut rogue = SecureChannel::new([0xEE; 16], Role::Device);
    let wire = host.seal(0x100, b"hello", false);
    assert!(rogue.open(&wire).is_err());
}

#[test]
fn verification_stats_accumulate() {
    let (mut verifier, mut session, _, _) = setup();
    verifier.calibrate(&mut session, 8).unwrap();
    for _ in 0..4 {
        let _ = verifier.verify_once(&mut session);
    }
    let stats = verifier.stats();
    assert_eq!(
        stats.accepted + stats.timing_rejects + stats.value_rejects,
        4
    );
}

#[test]
fn calibration_seals_and_restores_across_verifier_restarts() {
    let (mut verifier, mut session, _, _) = setup();
    assert!(!verifier.seal_calibration(), "nothing to seal yet");
    let original = verifier.calibrate(&mut session, 8).unwrap();
    assert!(verifier.seal_calibration());

    // "Restart": wipe the in-memory calibration, restore from the sealed
    // blob (bound to the enclave identity).
    verifier.set_calibration(sage::Calibration::from_samples(&[1]));
    assert!(verifier.unseal_calibration());
    let restored = *verifier.calibration().unwrap();
    assert_eq!(restored, original);
    // And verification works against the restored threshold.
    verifier.verify_once(&mut session).unwrap();
}

#[test]
fn corrupted_sealed_calibration_is_rejected() {
    let (mut verifier, mut session, _, _) = setup();
    verifier.calibrate(&mut session, 6).unwrap();
    assert!(verifier.seal_calibration());
    verifier
        .enclave
        .sealed_store_mut()
        .get_mut("calibration")
        .unwrap()[24] ^= 0x80;
    assert!(!verifier.unseal_calibration());
}
