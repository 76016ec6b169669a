//! Enclave lifecycle: measurement, quotes, sealing, DRBG.

use std::collections::HashMap;

use sage_crypto::{
    cmac::{cmac_aes128, cmac_verify},
    ctr::AesCtr,
    sha256::{sha256, Sha256},
    EntropySource,
};

/// The platform: holds the hardware root key that MACs quotes and derives
/// sealing keys (the analogue of the fused SGX keys).
pub struct SgxPlatform {
    root_key: [u8; 16],
}

impl SgxPlatform {
    /// Creates a platform with the given root key (in reality fused at
    /// manufacturing).
    pub fn new(root_key: [u8; 16]) -> SgxPlatform {
        SgxPlatform { root_key }
    }

    /// Launches an enclave from its code image, seeding its DRBG from
    /// `entropy`.
    pub fn launch(&self, code_image: &[u8], entropy: &mut dyn EntropySource) -> Enclave {
        let measurement = sha256(code_image);
        let mut iv = [0u8; 16];
        entropy.fill(&mut iv);
        let mut drbg_key = [0u8; 16];
        entropy.fill(&mut drbg_key);
        Enclave {
            measurement,
            drbg: AesCtr::new(&drbg_key, &iv),
            sealed: HashMap::new(),
            seal_key: self.derive_seal_key(&measurement),
            quote_key: self.root_key,
        }
    }

    /// Derives the per-enclave sealing key (`MRENCLAVE` policy).
    fn derive_seal_key(&self, measurement: &[u8; 32]) -> [u8; 16] {
        let mut h = Sha256::new();
        h.update(b"seal");
        h.update(&self.root_key);
        h.update(measurement);
        let d = h.finalize();
        d[..16].try_into().expect("16 bytes")
    }

    /// The verification key an external challenger uses for quotes (in
    /// real SGX this is the attestation service's job).
    pub fn quote_verification_key(&self) -> [u8; 16] {
        self.root_key
    }
}

/// A MAC'd attestation quote over (measurement, user data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// Enclave measurement (MRENCLAVE analogue).
    pub measurement: [u8; 32],
    /// Caller-chosen report data (e.g. a protocol transcript hash).
    pub user_data: [u8; 32],
    /// Platform MAC over the above.
    pub mac: [u8; 16],
}

/// A running enclave.
pub struct Enclave {
    measurement: [u8; 32],
    drbg: AesCtr,
    sealed: HashMap<String, Vec<u8>>,
    seal_key: [u8; 16],
    quote_key: [u8; 16],
}

impl Enclave {
    /// The enclave measurement.
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// Draws `n` bytes from the enclave DRBG (AES-CTR).
    pub fn random(&mut self, n: usize) -> Vec<u8> {
        self.drbg.keystream_bytes(n)
    }

    /// Draws a 16-byte nonce (the per-SM challenge values).
    pub fn nonce16(&mut self) -> [u8; 16] {
        self.random(16).try_into().expect("16 bytes")
    }

    /// Draws a 32-byte random value.
    pub fn nonce32(&mut self) -> [u8; 32] {
        self.random(32).try_into().expect("32 bytes")
    }

    /// Produces a quote binding `user_data` to this enclave's identity.
    pub fn quote(&self, user_data: [u8; 32]) -> Quote {
        let mut msg = Vec::with_capacity(64);
        msg.extend_from_slice(&self.measurement);
        msg.extend_from_slice(&user_data);
        Quote {
            measurement: self.measurement,
            user_data,
            mac: cmac_aes128(&self.quote_key, &msg),
        }
    }

    /// Seals `data` under `label` (encrypt-then-MAC, bound to the
    /// measurement).
    pub fn seal(&mut self, label: &str, data: &[u8]) {
        let mut iv = [0u8; 16];
        let fresh = self.random(16);
        iv.copy_from_slice(&fresh);
        let mut ct = data.to_vec();
        AesCtr::new(&self.seal_key, &iv).apply(&mut ct);
        let mut blob = iv.to_vec();
        blob.extend_from_slice(&ct);
        let mac = cmac_aes128(&self.seal_key, &blob);
        blob.extend_from_slice(&mac);
        self.sealed.insert(label.to_string(), blob);
    }

    /// Unseals `label`, verifying integrity.
    pub fn unseal(&self, label: &str) -> Option<Vec<u8>> {
        let blob = self.sealed.get(label)?;
        if blob.len() < 32 {
            return None;
        }
        let (body, mac) = blob.split_at(blob.len() - 16);
        if !cmac_verify(&self.seal_key, body, mac) {
            return None;
        }
        let (iv, ct) = body.split_at(16);
        let mut pt = ct.to_vec();
        AesCtr::new(&self.seal_key, &iv.try_into().expect("16 bytes")).apply(&mut pt);
        Some(pt)
    }

    /// Mutable access to the sealed-blob store (test/attack surface: the
    /// untrusted OS can corrupt sealed blobs, but not forge them).
    pub fn sealed_store_mut(&mut self) -> &mut HashMap<String, Vec<u8>> {
        &mut self.sealed
    }
}

/// Verifies a quote against the platform verification key.
pub fn verify_quote(verification_key: &[u8; 16], quote: &Quote) -> bool {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(&quote.measurement);
    msg.extend_from_slice(&quote.user_data);
    cmac_verify(verification_key, &msg, &quote.mac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_crypto::test_entropy;

    fn platform() -> SgxPlatform {
        SgxPlatform::new([0x42; 16])
    }

    #[test]
    fn measurement_is_code_hash() {
        let p = platform();
        let e = p.launch(b"verifier-v1", &mut test_entropy(7));
        assert_eq!(e.measurement(), sha256(b"verifier-v1"));
    }

    #[test]
    fn quotes_verify_and_bind_data() {
        let p = platform();
        let e = p.launch(b"verifier-v1", &mut test_entropy(7));
        let q = e.quote([9u8; 32]);
        assert!(verify_quote(&p.quote_verification_key(), &q));

        // Tampered user data fails.
        let mut bad = q.clone();
        bad.user_data[0] ^= 1;
        assert!(!verify_quote(&p.quote_verification_key(), &bad));

        // A different platform key fails.
        assert!(!verify_quote(&[0x43; 16], &q));

        // A different enclave produces a different measurement.
        let e2 = p.launch(b"verifier-v2", &mut test_entropy(7));
        assert_ne!(e2.quote([9u8; 32]).measurement, q.measurement);
    }

    #[test]
    fn drbg_streams_are_distinct_and_deterministic_per_seed() {
        let p = platform();
        let mut src = test_entropy(7);
        let mut e1 = p.launch(b"code", &mut src);
        let mut e2 = p.launch(b"code", &mut src);
        // Different creation entropy draws → different nonces.
        assert_ne!(e1.nonce16(), e2.nonce16());
        // Within one enclave, successive nonces differ.
        assert_ne!(e1.nonce16(), e1.nonce16());
    }

    #[test]
    fn seal_unseal_round_trip() {
        let p = platform();
        let mut e = p.launch(b"code", &mut test_entropy(7));
        e.seal("dh-key", b"secret material");
        assert_eq!(e.unseal("dh-key").unwrap(), b"secret material");
        assert_eq!(e.unseal("missing"), None);
    }

    #[test]
    fn corrupted_sealed_blob_rejected() {
        let p = platform();
        let mut e = p.launch(b"code", &mut test_entropy(7));
        e.seal("k", b"data");
        e.sealed_store_mut().get_mut("k").unwrap()[20] ^= 1;
        assert_eq!(e.unseal("k"), None);
    }
}
