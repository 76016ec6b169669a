//! The external challenger (paper Fig. 2): a remote party that attests
//! the *verifier enclave* before trusting anything it says about the GPU.
//!
//! Flow: the challenger sends a fresh nonce; the enclave returns a quote
//! binding (nonce, measurement, a commitment to the GPU session key); the
//! challenger checks the platform MAC, the expected enclave measurement
//! and the nonce binding. From then on the challenger trusts statements
//! signed under that session context.

use sage_crypto::{sha256, EntropySource, Sha256};
use sage_sgx_sim::{verify_quote, Quote};

use crate::verifier::{AttestationOutcome, Verifier};

/// A remote-attestation report: the enclave quote plus the public key
/// commitment the quote binds.
#[derive(Clone, Debug, PartialEq)]
pub struct AttestationReport {
    /// The enclave quote (platform-MAC'd).
    pub quote: Quote,
    /// `H(session_key)` — lets later messages be tied to this session
    /// without disclosing the key.
    pub key_commitment: [u8; 32],
}

/// Computes the report data the quote must carry for (`nonce`,
/// `key_commitment`).
pub fn report_data(nonce: &[u8; 32], key_commitment: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"sage-challenger:");
    h.update(nonce);
    h.update(key_commitment);
    h.finalize()
}

impl Verifier {
    /// Produces an attestation report for an external challenger's
    /// `nonce` (paper Fig. 2, steps 1–2).
    pub fn report_for_challenger(
        &self,
        outcome: &AttestationOutcome,
        nonce: &[u8; 32],
    ) -> AttestationReport {
        let key_commitment = sha256(&outcome.session_key);
        let quote = self.enclave.quote(report_data(nonce, &key_commitment));
        AttestationReport {
            quote,
            key_commitment,
        }
    }
}

/// The challenger role.
pub struct Challenger {
    verification_key: [u8; 16],
    expected_measurement: [u8; 32],
    nonce: Option<[u8; 32]>,
}

impl Challenger {
    /// Creates a challenger that trusts enclaves measuring
    /// `expected_measurement` on the platform with `verification_key`.
    pub fn new(verification_key: [u8; 16], expected_measurement: [u8; 32]) -> Challenger {
        Challenger {
            verification_key,
            expected_measurement,
            nonce: None,
        }
    }

    /// Issues a fresh nonce.
    pub fn challenge(&mut self, entropy: &mut dyn EntropySource) -> [u8; 32] {
        let mut n = [0u8; 32];
        entropy.fill(&mut n);
        self.nonce = Some(n);
        n
    }

    /// Verifies a report against the outstanding nonce. Consumes the
    /// nonce (reports cannot be replayed against the same challenge
    /// twice).
    pub fn verify(&mut self, report: &AttestationReport) -> bool {
        let Some(nonce) = self.nonce.take() else {
            return false;
        };
        if !verify_quote(&self.verification_key, &report.quote) {
            return false;
        }
        if report.quote.measurement != self.expected_measurement {
            return false;
        }
        report.quote.user_data == report_data(&nonce, &report.key_commitment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agent::DeviceAgent, GpuSession};
    use sage_crypto::{test_entropy, DhGroup};
    use sage_gpu_sim::{Device, DeviceConfig};
    use sage_sgx_sim::SgxPlatform;
    use sage_vf::VfParams;

    fn attested() -> (Verifier, AttestationOutcome, SgxPlatform) {
        let mut params = VfParams::test_tiny();
        params.iterations = 4;
        let dev = Device::new(DeviceConfig::sim_tiny());
        let mut session = GpuSession::install(dev, &params, 0xC4A1).unwrap();
        let platform = SgxPlatform::new([3u8; 16]);
        let enclave = platform.launch(b"sage-verifier-v1", &mut test_entropy(2));
        let mut verifier = Verifier::new(enclave, session.build().clone(), DhGroup::test_group());
        verifier.calibrate(&mut session, 5).unwrap();
        let mut agent = DeviceAgent::new(Box::new(test_entropy(6)));
        let outcome = verifier
            .establish_key(&mut session, &mut agent, None)
            .unwrap();
        (verifier, outcome, platform)
    }

    #[test]
    fn challenger_accepts_fresh_report() {
        let (verifier, outcome, platform) = attested();
        let mut challenger = Challenger::new(
            platform.quote_verification_key(),
            sage_crypto::sha256(b"sage-verifier-v1"),
        );
        let nonce = challenger.challenge(&mut test_entropy(9));
        let report = verifier.report_for_challenger(&outcome, &nonce);
        assert!(challenger.verify(&report));
        // The nonce is consumed: the same report cannot be shown twice.
        assert!(!challenger.verify(&report));
    }

    #[test]
    fn challenger_rejects_wrong_nonce() {
        let (verifier, outcome, platform) = attested();
        let mut challenger = Challenger::new(
            platform.quote_verification_key(),
            sage_crypto::sha256(b"sage-verifier-v1"),
        );
        let _nonce = challenger.challenge(&mut test_entropy(9));
        let stale = [0u8; 32];
        let report = verifier.report_for_challenger(&outcome, &stale);
        assert!(!challenger.verify(&report));
    }

    #[test]
    fn challenger_rejects_wrong_measurement() {
        let (verifier, outcome, platform) = attested();
        let mut challenger = Challenger::new(
            platform.quote_verification_key(),
            sage_crypto::sha256(b"some-other-enclave"),
        );
        let nonce = challenger.challenge(&mut test_entropy(9));
        let report = verifier.report_for_challenger(&outcome, &nonce);
        assert!(!challenger.verify(&report));
    }

    #[test]
    fn challenger_rejects_forged_platform() {
        let (verifier, outcome, _) = attested();
        let mut challenger = Challenger::new(
            [0xEE; 16], // wrong platform key
            sage_crypto::sha256(b"sage-verifier-v1"),
        );
        let nonce = challenger.challenge(&mut test_entropy(9));
        let report = verifier.report_for_challenger(&outcome, &nonce);
        assert!(!challenger.verify(&report));
    }

    #[test]
    fn tampered_key_commitment_rejected() {
        let (verifier, outcome, platform) = attested();
        let mut challenger = Challenger::new(
            platform.quote_verification_key(),
            sage_crypto::sha256(b"sage-verifier-v1"),
        );
        let nonce = challenger.challenge(&mut test_entropy(9));
        let mut report = verifier.report_for_challenger(&outcome, &nonce);
        report.key_commitment[0] ^= 1;
        assert!(!challenger.verify(&report));
    }
}
