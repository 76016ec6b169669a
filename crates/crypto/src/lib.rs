//! From-scratch cryptographic primitives for the SAGE reproduction.
//!
//! The paper's implementation uses the Intel SGX SDK `tcrypto` library and
//! cuRAND; the offline crate set here contains no cryptography, so the
//! primitives the protocol needs are implemented in-repo and pinned to
//! published test vectors:
//!
//! - [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 (protocol hash `H`, user-kernel
//!   measurement, hash chains),
//! - [`aes`] — FIPS 197 AES-128 block cipher,
//! - [`ctr`] — NIST SP 800-38A AES-CTR (challenge DRBG, secure channel
//!   encryption),
//! - [`cmac`] — RFC 4493 AES-CMAC (protocol MAC, secure channel
//!   authentication),
//! - [`bignum`]/[`dh`] — big-integer modular exponentiation and classic
//!   MODP Diffie-Hellman (RFC 3526 group 14, plus a small test group),
//! - [`chain`] — Guy-Fawkes-style hash chains (SAKE's `v₂/v₁/v₀`,
//!   `w₂/w₁/w₀`),
//! - [`canon`] — canonical little-endian encoding helpers for hashed
//!   and MACed structures (the evidence layer's byte discipline),
//! - [`ct`] — constant-time comparison.
//!
//! None of this is intended for production use outside the reproduction;
//! it is here so the workspace is self-contained and auditable.

pub mod aes;
pub mod bignum;
pub mod canon;
pub mod chain;
pub mod cmac;
pub mod ct;
pub mod ctr;
pub mod dh;
pub mod montgomery;
pub mod sha256;

pub use aes::Aes128;
pub use bignum::BigUint;
pub use canon::CanonError;
pub use chain::HashChain;
pub use cmac::cmac_aes128;
pub use ct::ct_eq;
pub use ctr::AesCtr;
pub use dh::{DhGroup, DhKeyPair};
pub use montgomery::Montgomery;
pub use sha256::{sha256, Sha256};

/// A source of random bytes, injected by callers (the enclave DRBG or the
/// race-condition TRNG). `Send` so device-side state holding a boxed
/// source can migrate across the service's worker threads.
pub trait EntropySource: Send {
    /// Fills `buf` with random bytes.
    fn fill(&mut self, buf: &mut [u8]);

    /// Convenience: returns `n` random bytes.
    fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill(&mut v);
        v
    }
}

impl<F: FnMut(&mut [u8]) + Send> EntropySource for F {
    fn fill(&mut self, buf: &mut [u8]) {
        self(buf)
    }
}

/// Deterministic entropy for tests, benches and examples: the byte LCG
/// `state = state * 181 + 101 (mod 256)` started at `seed`, one step per
/// output byte, continuing across calls. The companion of
/// [`DhGroup::test_group`]: a seeded fleet is reproducible byte for
/// byte. It has a period of at most 256 and must never produce key
/// material outside a test.
pub fn test_entropy(seed: u8) -> impl FnMut(&mut [u8]) {
    let mut state = seed;
    move |buf: &mut [u8]| {
        for b in buf {
            state = state.wrapping_mul(181).wrapping_add(101);
            *b = state;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_entropy_is_the_pinned_lcg() {
        let expected: [(u8, [u8; 32]); 2] = [
            (
                1,
                [
                    0x1A, 0xC7, 0x18, 0x5D, 0x26, 0x43, 0xC4, 0xF9, 0x72, 0xFF, 0xB0, 0xD5, 0xFE,
                    0xFB, 0xDC, 0xF1, 0xCA, 0x37, 0x48, 0x4D, 0xD6, 0xB3, 0xF4, 0xE9, 0x22, 0x6F,
                    0xE0, 0xC5, 0xAE, 0x6B, 0x0C, 0xE1,
                ],
            ),
            (
                0xFF,
                [
                    0xB0, 0xD5, 0xFE, 0xFB, 0xDC, 0xF1, 0xCA, 0x37, 0x48, 0x4D, 0xD6, 0xB3, 0xF4,
                    0xE9, 0x22, 0x6F, 0xE0, 0xC5, 0xAE, 0x6B, 0x0C, 0xE1, 0x7A, 0xA7, 0x78, 0x3D,
                    0x86, 0x23, 0x24, 0xD9, 0xD2, 0xDF,
                ],
            ),
        ];
        for (seed, bytes) in expected {
            assert_eq!(test_entropy(seed).bytes(32), bytes, "seed {seed:#x}");
            // The stream continues across calls: split fills see the
            // same bytes as one fill.
            let mut e = test_entropy(seed);
            let mut split = e.bytes(7);
            split.extend(e.bytes(25));
            assert_eq!(split, bytes, "seed {seed:#x}, split fill");
        }
    }
}
