//! Verifier quorums: N independent verifier replicas voting on every
//! attestation verdict, with a ⌈2N/3⌉ acceptance rule.
//!
//! A single verifier is a single point of compromise — an attacker who
//! owns it can false-accept a cheating GPU or false-reject an honest
//! one and the evidence chain will faithfully record the lie. SAGE's
//! trust argument survives that only if acceptance requires *agreement*
//! among verifiers that don't share fate. This module models a
//! [`VerifierSet`] of N replicas; each holds its own vote-MAC key
//! (the stand-in for its independent SAKE session), its own rolling
//! evidence-view digest, and its own — possibly Byzantine — voting
//! behavior. Every verdict the in-process verifier reaches is put to a
//! vote: each replica's ballot crosses the real wire codec as a
//! [`crate::Frame::QuorumVote`] (encode → decode → MAC verify), then
//! the tally is compared against [`quorum_threshold`].
//!
//! # Why a unanimous honest quorum is silent
//!
//! The determinism contract says any `(verifiers, shards, workers)`
//! geometry must yield byte-identical evidence heads against the
//! single-verifier baseline when the quorum is honest. So agreement
//! appends nothing: no events, no evidence, only counters inside the
//! set itself. Disagreement is what gets recorded — a
//! `QuorumDisputed` event, a `VerifierSuspected` flag per dissenting
//! replica, and one [`sage_evidence::EvidencePayload::QuorumVote`]
//! record per dissent sealed into the device's chain.
//!
//! # Why a lying verifier cannot cause a false accept
//!
//! The lifecycle decision is gated on the *local* (in-process, honest
//! by construction) verdict; the quorum can only confirm it or flag
//! dissent. Byzantine replicas below ⌈N/3⌉ therefore reduce to noise
//! in the dissent ledger — they can never flip an outcome, only mark
//! themselves suspect. This mirrors the classic BFT bound: with
//! `f < N/3` faulty voters, ⌈2N/3⌉ matching ballots always exist for
//! the honest verdict and never for a minority lie.
//!
//! # The relay detector
//!
//! §7.2's timing threshold bounds *compute* time; it cannot see a
//! proxy that forwards the challenge to a faster GPU and relays the
//! answer back, because the stolen compute headroom hides the extra
//! hops. Topology evidence can: a relayed checksum pays **two** link
//! round trips, so its wire share — wall-clock elapsed minus the
//! device-reported measured cycles — exceeds what the calibrated
//! direct link can produce. [`relay_wire_excess`] is that check.

use sage_crypto::cmac::{cmac_aes128, cmac_verify};
use sage_crypto::Sha256;
use sage_evidence::StageVerdict;

use crate::wire::{self, Frame};

/// Quorum knobs, embedded in [`crate::ServiceConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumConfig {
    /// Number of verifier replicas. `1` (the default) disables the
    /// quorum entirely — the historical single-verifier behavior.
    pub verifiers: u16,
    /// Key-derivation seed for the replicas' vote-MAC keys. Replica
    /// `i`'s key is `CMAC(base(seed), i)` — each replica signs with
    /// independent material, as separate SAKE sessions would provide.
    pub seed: u64,
}

impl Default for QuorumConfig {
    fn default() -> QuorumConfig {
        QuorumConfig {
            verifiers: 1,
            seed: 0,
        }
    }
}

impl QuorumConfig {
    /// Whether a quorum is in force (`verifiers > 1`).
    pub fn is_active(&self) -> bool {
        self.verifiers > 1
    }
}

/// The acceptance threshold: `⌈2N/3⌉` matching ballots.
pub fn quorum_threshold(n: u16) -> u16 {
    ((2 * u32::from(n)).div_ceil(3)) as u16
}

/// How a replica votes relative to the honest local verdict. Everything
/// but `Honest` models a compromised or faulty verifier for the attack
/// matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifierBehavior {
    /// Votes the local verdict.
    Honest,
    /// Votes `Pass` unconditionally — tries to launder a cheater.
    FalseAccept,
    /// Votes `WrongValue` unconditionally — tries to frame honest
    /// devices.
    FalseReject,
    /// Votes the opposite of the local verdict (`Pass` ↔ `WrongValue`).
    Invert,
    /// Votes honestly but signs with corrupted key material, so every
    /// ballot fails MAC verification on arrival.
    BadMac,
}

impl VerifierBehavior {
    /// Stable snapshot tag.
    pub fn tag(&self) -> u8 {
        match self {
            VerifierBehavior::Honest => 0,
            VerifierBehavior::FalseAccept => 1,
            VerifierBehavior::FalseReject => 2,
            VerifierBehavior::Invert => 3,
            VerifierBehavior::BadMac => 4,
        }
    }

    /// Decodes a snapshot tag.
    pub fn from_tag(tag: u8) -> Option<VerifierBehavior> {
        Some(match tag {
            0 => VerifierBehavior::Honest,
            1 => VerifierBehavior::FalseAccept,
            2 => VerifierBehavior::FalseReject,
            3 => VerifierBehavior::Invert,
            4 => VerifierBehavior::BadMac,
            _ => return None,
        })
    }

    /// The ballot this behavior casts given the honest local verdict.
    fn ballot(&self, local: StageVerdict) -> StageVerdict {
        match self {
            VerifierBehavior::Honest | VerifierBehavior::BadMac => local,
            VerifierBehavior::FalseAccept => StageVerdict::Pass,
            VerifierBehavior::FalseReject => StageVerdict::WrongValue,
            VerifierBehavior::Invert => {
                if local == StageVerdict::Pass {
                    StageVerdict::WrongValue
                } else {
                    StageVerdict::Pass
                }
            }
        }
    }
}

/// One verifier replica's identity and running state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifierReplica {
    /// Replica index (stable; used in vote frames and suspect events).
    pub index: u16,
    /// Vote-MAC key — this replica's session stand-in.
    vote_key: [u8; 16],
    /// How this replica votes. `Honest` unless an attack campaign (or
    /// snapshot restore) says otherwise.
    pub behavior: VerifierBehavior,
    /// Whether this replica has ever dissented from a quorum outcome.
    pub suspected: bool,
    /// Total dissenting ballots cast.
    pub dissents: u64,
    /// Rolling evidence-view digest: SHA-256 folded over every ballot
    /// this replica cast. Honest replicas that saw the same rounds
    /// share a view; a liar's view diverges permanently.
    pub view: [u8; 32],
}

/// One round's tallied outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumDecision {
    /// The authoritative verdict (the honest local one — see module
    /// docs for why the quorum cannot override it).
    pub outcome: StageVerdict,
    /// Whether ≥ ⌈2N/3⌉ valid ballots matched the outcome.
    pub confirmed: bool,
    /// Valid `Pass` ballots.
    pub votes_accept: u16,
    /// Valid non-`Pass` ballots.
    pub votes_reject: u16,
    /// Replicas whose ballot differed from the outcome (or failed MAC
    /// verification), with the verdict they are recorded as voting.
    pub dissenters: Vec<(u16, StageVerdict)>,
    /// Replicas whose ballot failed decode or MAC verification.
    pub invalid: Vec<u16>,
    /// Dissenters flagged suspect for the first time this round.
    pub newly_suspected: Vec<u16>,
}

/// N verifier replicas running the same fleet, tallied per verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifierSet {
    replicas: Vec<VerifierReplica>,
    /// Verdicts put to a vote so far.
    pub rounds: u64,
}

impl VerifierSet {
    /// Builds the set a config asks for; `None` when the quorum is
    /// disabled (`verifiers <= 1`).
    pub fn from_config(cfg: &QuorumConfig) -> Option<VerifierSet> {
        if !cfg.is_active() {
            return None;
        }
        Some(VerifierSet::with_size(cfg.verifiers, cfg.seed))
    }

    /// Builds an N-replica set with keys derived from `seed`.
    pub fn with_size(n: u16, seed: u64) -> VerifierSet {
        let replicas = (0..n)
            .map(|index| VerifierReplica {
                index,
                vote_key: derive_vote_key(seed, index),
                behavior: VerifierBehavior::Honest,
                suspected: false,
                dissents: 0,
                view: [0u8; 32],
            })
            .collect();
        VerifierSet {
            replicas,
            rounds: 0,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false — a set is only constructed with N ≥ 2.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The acceptance threshold for this set.
    pub fn threshold(&self) -> u16 {
        quorum_threshold(self.replicas.len() as u16)
    }

    /// The replicas, for inspection.
    pub fn replicas(&self) -> &[VerifierReplica] {
        &self.replicas
    }

    /// Marks replica `index` Byzantine (or honest again) — the attack
    /// matrix's compromise knob.
    pub fn set_behavior(&mut self, index: usize, behavior: VerifierBehavior) {
        self.replicas[index].behavior = behavior;
    }

    /// Restores one replica's running state from a snapshot.
    pub fn restore_replica(
        &mut self,
        index: usize,
        behavior: VerifierBehavior,
        suspected: bool,
        dissents: u64,
        view: [u8; 32],
    ) {
        let r = &mut self.replicas[index];
        r.behavior = behavior;
        r.suspected = suspected;
        r.dissents = dissents;
        r.view = view;
    }

    /// Whether every replica that voted honestly shares the same
    /// evidence-view digest — liars diverge and stay diverged.
    pub fn honest_views_agree(&self) -> bool {
        let mut honest = self
            .replicas
            .iter()
            .filter(|r| r.behavior == VerifierBehavior::Honest);
        match honest.next() {
            None => true,
            Some(first) => honest.all(|r| r.view == first.view),
        }
    }

    /// Puts one verdict to a vote. Every replica's ballot is encoded as
    /// a [`Frame::QuorumVote`], decoded back through the strict codec,
    /// and MAC-verified against the key the receiver derives for that
    /// index — exactly the path a ballot takes between real endpoints.
    pub fn collect(&mut self, device: &str, round: u64, local: StageVerdict) -> QuorumDecision {
        self.rounds += 1;
        let threshold = self.threshold();
        let mut ballots: Vec<Option<StageVerdict>> = Vec::with_capacity(self.replicas.len());
        for rep in &self.replicas {
            let vote = rep.behavior.ballot(local);
            // A BadMac replica signs with a bit-flipped key; everyone
            // else signs with the real one.
            let mut sign_key = rep.vote_key;
            if rep.behavior == VerifierBehavior::BadMac {
                sign_key[0] ^= 0x80;
            }
            let mac = sign_vote(&sign_key, rep.index, device, round, vote);
            let bytes = wire::encode(&Frame::QuorumVote {
                verifier: rep.index,
                device: device.to_string(),
                round,
                vote,
                mac,
            });
            ballots.push(match wire::decode(&bytes) {
                Ok(Frame::QuorumVote {
                    verifier,
                    device: dev,
                    round: r,
                    vote: v,
                    mac: m,
                }) if verifier == rep.index
                    && cmac_verify(&rep.vote_key, &vote_message(verifier, &dev, r, v), &m) =>
                {
                    Some(v)
                }
                _ => None,
            });
        }
        let votes_accept = ballots
            .iter()
            .filter(|b| **b == Some(StageVerdict::Pass))
            .count() as u16;
        let votes_reject = ballots
            .iter()
            .filter(|b| b.is_some() && **b != Some(StageVerdict::Pass))
            .count() as u16;
        let matching = ballots.iter().filter(|b| **b == Some(local)).count() as u16;
        let confirmed = matching >= threshold;
        let mut dissenters = Vec::new();
        let mut invalid = Vec::new();
        let mut newly_suspected = Vec::new();
        for (rep, ballot) in self.replicas.iter_mut().zip(&ballots) {
            // Fold the replica's own ballot into its view digest; an
            // invalid ballot folds a distinct marker.
            let cast = rep.behavior.ballot(local);
            let mut h = Sha256::new();
            h.update(&rep.view);
            h.update(device.as_bytes());
            h.update(&round.to_le_bytes());
            h.update(&[match ballot {
                Some(_) => verdict_code(cast),
                None => 0xFF,
            }]);
            rep.view = h.finalize();
            let dissent = *ballot != Some(local);
            if dissent {
                rep.dissents += 1;
                if !rep.suspected {
                    rep.suspected = true;
                    newly_suspected.push(rep.index);
                }
                dissenters.push((rep.index, ballot.unwrap_or(cast)));
            }
            if ballot.is_none() {
                invalid.push(rep.index);
            }
        }
        QuorumDecision {
            outcome: local,
            confirmed,
            votes_accept,
            votes_reject,
            dissenters,
            invalid,
            newly_suspected,
        }
    }
}

/// Derives replica `index`'s vote-MAC key from the quorum seed.
fn derive_vote_key(seed: u64, index: u16) -> [u8; 16] {
    let mut base = [0u8; 16];
    base[..8].copy_from_slice(&seed.to_le_bytes());
    base[8..10].copy_from_slice(b"qv");
    let mut msg = [0u8; 10];
    msg[..8].copy_from_slice(b"sage-qkd");
    msg[8..].copy_from_slice(&index.to_le_bytes());
    cmac_aes128(&base, &msg)
}

/// Stable verdict code used in the vote MAC message and view digest.
fn verdict_code(v: StageVerdict) -> u8 {
    match v {
        StageVerdict::Pass => 0,
        StageVerdict::WrongValue => 1,
        StageVerdict::TooSlow => 2,
        StageVerdict::Timeout => 3,
    }
}

/// The byte string a vote MAC covers: domain tag, verifier index,
/// device name (length-prefixed), round, verdict code.
fn vote_message(verifier: u16, device: &str, round: u64, vote: StageVerdict) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16 + 2 + 2 + device.len() + 8 + 1);
    msg.extend_from_slice(b"sage-quorum-vote");
    msg.extend_from_slice(&verifier.to_le_bytes());
    msg.extend_from_slice(&(device.len() as u16).to_le_bytes());
    msg.extend_from_slice(device.as_bytes());
    msg.extend_from_slice(&round.to_le_bytes());
    msg.push(verdict_code(vote));
    msg
}

/// Signs one ballot.
fn sign_vote(
    key: &[u8; 16],
    verifier: u16,
    device: &str,
    round: u64,
    vote: StageVerdict,
) -> [u8; 16] {
    cmac_aes128(key, &vote_message(verifier, device, round, vote))
}

/// The relay/topology check: how far the response's wire share exceeds
/// the calibrated gate, or `None` when the topology looks direct (or
/// the gate is disabled with `rtt_gate == 0`).
///
/// `wall_elapsed` is verifier wall clock from challenge dispatch to
/// response arrival; `measured_cycles` is the device-reported compute
/// time the §7.2 threshold already vets. Their difference is time spent
/// *on the wire* — a direct link pays one round trip, a relay pays at
/// least two, and no amount of stolen compute headroom on a faster GPU
/// can hide the extra hop.
pub fn relay_wire_excess(measured_cycles: u64, wall_elapsed: u64, rtt_gate: u64) -> Option<u64> {
    if rtt_gate == 0 {
        return None;
    }
    let wire = wall_elapsed.saturating_sub(measured_cycles);
    if wire > rtt_gate {
        Some(wire - rtt_gate)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_two_thirds_ceiling() {
        for (n, want) in [
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (5, 4),
            (6, 4),
            (7, 5),
            (9, 6),
        ] {
            assert_eq!(quorum_threshold(n), want, "n={n}");
        }
    }

    #[test]
    fn honest_unanimous_vote_confirms_silently() {
        let mut set = VerifierSet::with_size(5, 42);
        let d = set.collect("gpu-00", 3, StageVerdict::Pass);
        assert!(d.confirmed);
        assert_eq!((d.votes_accept, d.votes_reject), (5, 0));
        assert!(d.dissenters.is_empty() && d.invalid.is_empty());
        assert_eq!(set.rounds, 1);
        assert!(set.honest_views_agree());
    }

    #[test]
    fn one_liar_dissents_but_cannot_flip() {
        let mut set = VerifierSet::with_size(4, 7);
        set.set_behavior(2, VerifierBehavior::FalseReject);
        let d = set.collect("gpu-01", 1, StageVerdict::Pass);
        assert!(d.confirmed, "3 of 4 honest ballots meet ⌈8/3⌉ = 3");
        assert_eq!((d.votes_accept, d.votes_reject), (3, 1));
        assert_eq!(d.dissenters, vec![(2, StageVerdict::WrongValue)]);
        assert_eq!(d.newly_suspected, vec![2]);
        assert!(set.replicas()[2].suspected);
        // Second dissent: still suspect, not newly so.
        let d2 = set.collect("gpu-01", 2, StageVerdict::Pass);
        assert!(d2.newly_suspected.is_empty());
        assert_eq!(set.replicas()[2].dissents, 2);
        // Honest replicas still share a view; the liar folded different
        // ballots and diverged permanently.
        assert!(set.honest_views_agree());
        assert_ne!(set.replicas()[2].view, set.replicas()[0].view);
    }

    #[test]
    fn colluding_minority_below_third_cannot_break_quorum() {
        // N = 7: ⌈7/3⌉ − 1 = 2 colluders, threshold ⌈14/3⌉ = 5, five
        // honest ballots remain — the quorum still confirms the truth,
        // for accepts and rejects alike.
        let mut set = VerifierSet::with_size(7, 9);
        set.set_behavior(1, VerifierBehavior::Invert);
        set.set_behavior(4, VerifierBehavior::Invert);
        let pass = set.collect("gpu-02", 1, StageVerdict::Pass);
        assert!(pass.confirmed);
        assert_eq!((pass.votes_accept, pass.votes_reject), (5, 2));
        let reject = set.collect("gpu-02", 2, StageVerdict::WrongValue);
        assert!(reject.confirmed);
        assert_eq!((reject.votes_accept, reject.votes_reject), (2, 5));
        assert_eq!(
            reject.dissenters,
            vec![(1, StageVerdict::Pass), (4, StageVerdict::Pass)]
        );
    }

    #[test]
    fn bad_mac_ballot_is_invalid_and_suspect() {
        let mut set = VerifierSet::with_size(3, 1);
        set.set_behavior(0, VerifierBehavior::BadMac);
        let d = set.collect("gpu-03", 1, StageVerdict::Pass);
        assert!(d.confirmed, "2 of 3 meet ⌈6/3⌉ = 2");
        assert_eq!(d.invalid, vec![0]);
        assert_eq!((d.votes_accept, d.votes_reject), (2, 0));
        assert_eq!(d.dissenters, vec![(0, StageVerdict::Pass)]);
        assert!(set.replicas()[0].suspected);
    }

    #[test]
    fn liars_views_diverge_from_honest_views() {
        let mut set = VerifierSet::with_size(4, 3);
        set.set_behavior(3, VerifierBehavior::FalseAccept);
        for round in 1..=5 {
            set.collect("gpu-04", round, StageVerdict::WrongValue);
        }
        let views: Vec<[u8; 32]> = set.replicas().iter().map(|r| r.view).collect();
        assert_eq!(views[0], views[1]);
        assert_eq!(views[1], views[2]);
        assert_ne!(views[2], views[3], "the liar's view must diverge");
        assert!(set.honest_views_agree());
    }

    #[test]
    fn replica_keys_are_distinct_and_seed_sensitive() {
        let a = VerifierSet::with_size(3, 5);
        let b = VerifierSet::with_size(3, 6);
        assert_ne!(a.replicas()[0].vote_key, a.replicas()[1].vote_key);
        assert_ne!(a.replicas()[0].vote_key, b.replicas()[0].vote_key);
        // Same seed rebuilds the same keys — the snapshot-restore path.
        let c = VerifierSet::with_size(3, 5);
        assert_eq!(a.replicas()[0].vote_key, c.replicas()[0].vote_key);
    }

    #[test]
    fn relay_detector_flags_only_excess_wire_time() {
        // Direct link: 80 ticks of wire against a 120 gate — clean.
        assert_eq!(relay_wire_excess(10_000, 10_080, 120), None);
        // Relay: two hops cost 180 ticks of wire — 60 over the gate,
        // even though the proxied GPU's compute time looks fine.
        assert_eq!(relay_wire_excess(10_000, 10_180, 120), Some(60));
        // Gate 0 disables the check entirely.
        assert_eq!(relay_wire_excess(10_000, 99_999, 0), None);
    }

    #[test]
    fn from_config_gates_on_verifier_count() {
        assert!(VerifierSet::from_config(&QuorumConfig::default()).is_none());
        let cfg = QuorumConfig {
            verifiers: 3,
            seed: 11,
        };
        assert_eq!(VerifierSet::from_config(&cfg).unwrap().len(), 3);
    }
}
