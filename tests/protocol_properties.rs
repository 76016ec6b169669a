//! Property-based tests over the protocol building blocks: SAKE message
//! tampering, secure-channel integrity, and checksum sensitivity — the
//! workspace-level counterparts of the paper's Tamarin-verified
//! properties (§8.1: key secrecy, uniqueness, agreement).

// Entire suite gated: `proptest` is not vendored in this dependency-free
// tree. Build with `--features proptest` after re-adding the dev-dependency
// locally to run it.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use sage_repro::core::channel::{Role, SecureChannel};
use sage_repro::core::sake::{derive_challenges, SakeDevice, SakeMessage, SakeVerifier};
use sage_repro::crypto::{test_entropy, DhGroup};
use sage_repro::vf::{build_vf, expected_checksum, VfParams};

/// Runs SAKE with a byte-level tamper of message `step` at `pos`.
fn run_sake_with_tamper(step: usize, pos: usize, flip: u8) -> Result<(), ()> {
    let group = DhGroup::test_group();
    let mut ve = test_entropy(1);
    let mut de = test_entropy(9);
    let (mut v, msg) = SakeVerifier::start(group.clone(), &mut ve);
    let mut d = SakeDevice::new(group);
    let c = [11u32, 22, 33, 44, 55, 66, 77, 88];

    let tamper = |s: usize, m: &mut SakeMessage| {
        if s != step || flip == 0 {
            return;
        }
        match m {
            SakeMessage::Challenge { v2 } => v2[pos % 32] ^= flip,
            SakeMessage::Commit { w2, mac } => {
                if pos % 2 == 0 {
                    w2[pos % 32] ^= flip;
                } else {
                    mac[pos % 16] ^= flip;
                }
            }
            SakeMessage::RevealV1 { v1 } => v1[pos % 32] ^= flip,
            SakeMessage::DeviceReveal1 { w1, k, mac_k } => match pos % 3 {
                0 => w1[pos % 32] ^= flip,
                1 => {
                    let i = pos % k.len();
                    k[i] ^= flip;
                }
                _ => mac_k[pos % 16] ^= flip,
            },
            SakeMessage::RevealV0 { v0 } => {
                let i = pos % v0.len();
                v0[i] ^= flip;
            }
            SakeMessage::DeviceReveal0 { w0 } => w0[pos % 32] ^= flip,
        }
    };

    let mut m = msg;
    tamper(0, &mut m);
    let SakeMessage::Challenge { v2 } = m else {
        return Err(());
    };
    v.set_expected_checksum(c);
    // A tampered challenge reaches the device: the device computes the
    // checksum for the tampered seed, which differs from the verifier's.
    let device_c = if step == 0 && flip != 0 {
        [99u32; 8]
    } else {
        c
    };
    let mut m = d.on_challenge(v2, device_c, &mut de);
    tamper(1, &mut m);
    let SakeMessage::Commit { w2, mac } = m else {
        return Err(());
    };
    let mut m = v.on_commit(w2, mac).map_err(|_| ())?;
    tamper(2, &mut m);
    let SakeMessage::RevealV1 { v1 } = m else {
        return Err(());
    };
    let mut m = d.on_reveal_v1(v1).map_err(|_| ())?;
    tamper(3, &mut m);
    let SakeMessage::DeviceReveal1 { w1, k, mac_k } = m else {
        return Err(());
    };
    let mut m = v.on_device_reveal1(w1, k, mac_k).map_err(|_| ())?;
    tamper(4, &mut m);
    let SakeMessage::RevealV0 { v0 } = m else {
        return Err(());
    };
    let mut m = d.on_reveal_v0(v0).map_err(|_| ())?;
    tamper(5, &mut m);
    let SakeMessage::DeviceReveal0 { w0 } = m else {
        return Err(());
    };
    v.on_device_reveal0(w0).map_err(|_| ())?;
    // Completed: keys must agree (key agreement property).
    if v.session_key() == d.session_key() && v.session_key().is_some() {
        Ok(())
    } else {
        Err(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sake_detects_any_single_byte_tamper(
        step in 0usize..6,
        pos in 0usize..32,
        flip in 1u8..=255,
    ) {
        // Any non-zero flip of any protocol message must abort the run.
        prop_assert!(run_sake_with_tamper(step, pos, flip).is_err());
    }

    #[test]
    fn sake_completes_untampered(seed in 0u8..8) {
        let _ = seed;
        prop_assert!(run_sake_with_tamper(0, 0, 0).is_ok());
    }

    #[test]
    fn channel_rejects_any_wire_mutation(
        payload in prop::collection::vec(any::<u8>(), 1..128),
        addr in any::<u32>(),
        confidential in any::<bool>(),
        which in 0usize..4,
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let sk = [0x77u8; 16];
        let mut host = SecureChannel::new(sk, Role::Host);
        let mut dev = SecureChannel::new(sk, Role::Device);
        let mut wire = host.seal(addr, &payload, confidential);
        match which {
            0 => { let i = pos % wire.body.len(); wire.body[i] ^= flip; }
            1 => wire.mac[pos % 16] ^= flip,
            2 => wire.addr ^= flip as u32,
            _ => wire.seq ^= flip as u64,
        }
        prop_assert!(dev.open(&wire).is_err());
    }

    #[test]
    fn channel_round_trips(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        addr in any::<u32>(),
        confidential in any::<bool>(),
    ) {
        let sk = [0x78u8; 16];
        let mut host = SecureChannel::new(sk, Role::Host);
        let mut dev = SecureChannel::new(sk, Role::Device);
        let wire = host.seal(addr, &payload, confidential);
        prop_assert_eq!(dev.open(&wire).unwrap(), payload);
    }

    #[test]
    fn challenge_derivation_injective_ish(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let ca = derive_challenges(&a, 4);
        let cb = derive_challenges(&b, 4);
        if a == b {
            prop_assert_eq!(ca, cb);
        } else {
            prop_assert_ne!(ca, cb);
        }
    }
}

proptest! {
    // The replay is expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn checksum_sensitive_to_challenges(seed_a in any::<u8>(), seed_b in any::<u8>()) {
        let mut params = VfParams::test_tiny();
        params.iterations = 2;
        let build = build_vf(&params, 0x1000, 3).unwrap();
        let mk = |s: u8| -> Vec<[u8; 16]> {
            (0..params.grid_blocks).map(|b| [s.wrapping_add(b as u8); 16]).collect()
        };
        let a = expected_checksum(&build, &mk(seed_a));
        let b = expected_checksum(&build, &mk(seed_b));
        if seed_a == seed_b {
            prop_assert_eq!(a, b);
        } else {
            prop_assert_ne!(a, b);
        }
    }
}
