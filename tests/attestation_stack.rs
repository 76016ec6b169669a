//! Full-stack attestation across all crates, on the mid-size device:
//! enclave → verifier → simulated GPU → VF microcode → SAKE → secure
//! channel → user kernel, plus cross-cutting invariants that only make
//! sense at the workspace level.

use sage_repro::core::{agent::DeviceAgent, kernels, GpuSession, Verifier};
use sage_repro::crypto::{test_entropy, DhGroup};
use sage_repro::gpu::{Device, DeviceConfig};
use sage_repro::sgx::{verify_quote, SgxPlatform};
use sage_repro::vf::{SmcMode, VfParams};

fn mid_params() -> VfParams {
    let mut p = VfParams::test_tiny();
    p.data_bytes = 64 * 1024;
    p.grid_blocks = 4;
    p.block_threads = 128;
    p.iterations = 8;
    p.smc = SmcMode::Cctl; // exercise self-modifying code end to end
    p
}

#[test]
fn attestation_on_sim_small_with_smc() {
    let device = Device::new(DeviceConfig::sim_small());
    let mut session = GpuSession::install(device, &mid_params(), 0x51AC).unwrap();
    let platform = SgxPlatform::new([1u8; 16]);
    let enclave = platform.launch(b"verifier", &mut test_entropy(2));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    verifier.calibrate(&mut session, 8).unwrap();
    let mut agent = DeviceAgent::new(Box::new(test_entropy(4)));
    let outcome = verifier
        .establish_key(&mut session, &mut agent, None)
        .unwrap();

    // External challenger path.
    let quote = verifier.quote_attestation(&outcome);
    assert!(verify_quote(&platform.quote_verification_key(), &quote));

    // Kernel measurement on the device with the real SHA-256 microcode.
    let code = kernels::vecadd_kernel(kernels::vecadd::Elem::F32).encode();
    verifier
        .verify_user_kernel(&mut session, &mut agent, &code)
        .unwrap();
}

#[test]
fn verifier_rejects_device_with_tampered_vf() {
    let device = Device::new(DeviceConfig::sim_small());
    let mut session = GpuSession::install(device, &mid_params(), 0x51AC).unwrap();
    let platform = SgxPlatform::new([1u8; 16]);
    let enclave = platform.launch(b"verifier", &mut test_entropy(2));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    verifier.calibrate(&mut session, 6).unwrap();

    // Adversary pokes the checksummed region between calibration and the
    // next verification round. Tamper a spread of words so the
    // pseudo-random traversal hits one with overwhelming probability
    // (~16k accesses over 16k words at this scale).
    let layout = session.build().layout;
    for w in 0..64u32 {
        session
            .dev
            .poke(layout.base + layout.fill_off + 512 + w * 256, &[0xAA])
            .unwrap();
    }

    let err = verifier.verify_once(&mut session).unwrap_err();
    assert!(matches!(
        err,
        sage_repro::core::SageError::ChecksumMismatch { .. }
    ));
}

#[test]
fn sake_key_establishment_fails_fast_when_uncalibrated() {
    let device = Device::new(DeviceConfig::sim_small());
    let mut session = GpuSession::install(device, &mid_params(), 0x51AC).unwrap();
    let platform = SgxPlatform::new([1u8; 16]);
    let enclave = platform.launch(b"verifier", &mut test_entropy(2));
    let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
    let mut agent = DeviceAgent::new(Box::new(test_entropy(4)));
    assert!(verifier
        .establish_key(&mut session, &mut agent, None)
        .is_err());
}

#[test]
fn two_devices_yield_distinct_session_keys() {
    let mut keys = Vec::new();
    for seed in [10u8, 20] {
        let device = Device::new(DeviceConfig::sim_small());
        let mut session = GpuSession::install(device, &mid_params(), 0x51AC).unwrap();
        let platform = SgxPlatform::new([1u8; 16]);
        let enclave = platform.launch(b"verifier", &mut test_entropy(seed));
        let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
        verifier.calibrate(&mut session, 6).unwrap();
        let mut agent = DeviceAgent::new(Box::new(test_entropy(seed + 1)));
        let outcome = verifier
            .establish_key(&mut session, &mut agent, None)
            .unwrap();
        keys.push(outcome.session_key);
    }
    assert_ne!(keys[0], keys[1]);
}

#[test]
fn device_sha256_agrees_with_host_for_many_sizes() {
    let device = Device::new(DeviceConfig::sim_small());
    let mut session = GpuSession::install(device, &mid_params(), 0x51AC).unwrap();
    let mut agent = DeviceAgent::new(Box::new(test_entropy(4)));
    let r = [3u8; 32];
    for size in [0usize, 1, 31, 32, 55, 56, 64, 100, 257] {
        let code: Vec<u8> = (0..size).map(|i| (i * 37) as u8).collect();
        let device_hash = agent.measure_kernel(&mut session, &r, &code).unwrap();
        let mut input = r.to_vec();
        input.extend_from_slice(&code);
        assert_eq!(
            device_hash,
            sage_repro::crypto::sha256(&input),
            "size {size}"
        );
    }
}
