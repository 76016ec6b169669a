//! The fleet epoch accumulator: a Merkle tree over the chain heads of
//! every managed device at an epoch boundary.
//!
//! Leaf and inner hashing are domain-separated (`0x00` / `0x01`
//! prefixes) so an inner node can never be replayed as a leaf; an odd
//! node at any level is promoted, not duplicated, so no leaf can appear
//! under two proofs.

use sage_crypto::canon::{self, CanonError, Reader};
use sage_crypto::Sha256;

/// One device's contribution to an epoch: its name, chain head, and the
/// sequence number that head seals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochLeaf {
    /// Device name (the service's stable identifier).
    pub device: String,
    /// The device's evidence-chain head at the epoch boundary.
    pub head: [u8; 32],
    /// Chain sequence number the head corresponds to.
    pub seq: u64,
}

impl EpochLeaf {
    /// The leaf hash: `SHA-256(0x00 ‖ canonical(device, head, seq))`.
    pub fn hash(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(self.device.len() + 48);
        canon::put_str(&mut bytes, &self.device);
        canon::put_fixed(&mut bytes, &self.head);
        canon::put_u64(&mut bytes, self.seq);
        let mut h = Sha256::new();
        h.update(&[0x00]);
        h.update(&bytes);
        h.finalize()
    }

    /// Canonical encoding (snapshot / report transport).
    pub fn encode(&self, out: &mut Vec<u8>) {
        canon::put_str(out, &self.device);
        canon::put_fixed(out, &self.head);
        canon::put_u64(out, self.seq);
    }

    /// Decodes one leaf from a [`Reader`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<EpochLeaf, CanonError> {
        Ok(EpochLeaf {
            device: r.str()?.to_string(),
            head: r.fixed::<32>()?,
            seq: r.u64()?,
        })
    }
}

fn inner_hash(hasher: &mut Sha256, left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    hasher.update(&[0x01]);
    hasher.update(left);
    hasher.update(right);
    hasher.finalize_reset()
}

/// Every level of one epoch's Merkle tree, hashed once: leaf hashes at
/// the bottom, the root alone at the top. Holding the levels turns an
/// inclusion proof into one sibling read per level — O(log n) instead of
/// re-hashing the whole fleet — at ~64 B per leaf.
#[derive(Clone, Debug, Default)]
pub struct EpochTree {
    /// `levels[0]` are the leaf hashes, each next level their parents;
    /// the last level is the single root. Empty for an empty epoch.
    levels: Vec<Vec<[u8; 32]>>,
}

impl EpochTree {
    /// Hashes `leaves` (in the given order; the service sorts by device
    /// name so the root is order-canonical) into every tree level.
    pub fn build(leaves: &[EpochLeaf]) -> EpochTree {
        let mut level: Vec<[u8; 32]> = leaves.iter().map(EpochLeaf::hash).collect();
        let mut levels = Vec::new();
        let mut hasher = Sha256::new();
        while level.len() > 1 {
            let next = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => inner_hash(&mut hasher, l, r),
                    [odd] => *odd, // promoted, not duplicated
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
            levels.push(core::mem::replace(&mut level, next));
        }
        if !level.is_empty() {
            levels.push(level);
        }
        EpochTree { levels }
    }

    /// Number of leaves the tree commits to.
    fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// The epoch root. An empty leaf set has the domain-tagged empty
    /// root.
    pub fn root(&self) -> [u8; 32] {
        match self.levels.last() {
            Some(top) => top[0],
            None => {
                let mut h = Sha256::new();
                h.update(b"sage-evidence-empty-epoch");
                h.finalize()
            }
        }
    }

    /// The inclusion proof for leaf `index`: its sibling at every level
    /// below the root, bottom-up. A level where the node is the odd one
    /// out (promoted) contributes no step.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> InclusionProof {
        assert!(index < self.len(), "leaf index out of bounds");
        let below_root = &self.levels[..self.levels.len() - 1];
        let mut pos = index;
        let mut steps = Vec::with_capacity(below_root.len());
        for level in below_root {
            let sibling = pos ^ 1;
            if let Some(hash) = level.get(sibling) {
                steps.push(ProofStep {
                    sibling: *hash,
                    sibling_on_left: sibling < pos,
                });
            }
            pos /= 2;
        }
        InclusionProof { steps }
    }
}

/// Computes the epoch root over `leaves` (see [`EpochTree::build`] for
/// the order and hashing rules).
pub fn epoch_root(leaves: &[EpochLeaf]) -> [u8; 32] {
    EpochTree::build(leaves).root()
}

/// One step of an inclusion proof: the sibling hash and which side it
/// sits on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProofStep {
    /// The sibling node's hash.
    pub sibling: [u8; 32],
    /// True when the sibling is on the left (our node is the right child).
    pub sibling_on_left: bool,
}

/// A Merkle inclusion proof for one leaf under an epoch root.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InclusionProof {
    /// Bottom-up sibling path.
    pub steps: Vec<ProofStep>,
}

impl InclusionProof {
    /// Canonical encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        canon::put_u32(out, self.steps.len() as u32);
        for s in &self.steps {
            canon::put_fixed(out, &s.sibling);
            canon::put_u8(out, s.sibling_on_left as u8);
        }
    }

    /// Decodes a proof from a [`Reader`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<InclusionProof, CanonError> {
        let n = r.u32()? as usize;
        let mut steps = Vec::with_capacity(n.min(r.remaining() / 33 + 1));
        for _ in 0..n {
            let sibling = r.fixed::<32>()?;
            let side = r.u8()?;
            if side > 1 {
                return Err(CanonError::BadTag {
                    field: "proof side",
                    value: side,
                });
            }
            steps.push(ProofStep {
                sibling,
                sibling_on_left: side == 1,
            });
        }
        Ok(InclusionProof { steps })
    }
}

/// Builds the inclusion proof for `leaves[index]` from scratch — a full
/// O(n) tree build. Callers proving many leaves of one epoch should
/// build an [`EpochTree`] once and [`EpochTree::prove`] from it.
///
/// # Panics
///
/// Panics if `index` is out of bounds.
pub fn prove_inclusion(leaves: &[EpochLeaf], index: usize) -> InclusionProof {
    EpochTree::build(leaves).prove(index)
}

/// Verifies that `leaf` is included under `root` via `proof`.
pub fn verify_inclusion(leaf: &EpochLeaf, proof: &InclusionProof, root: &[u8; 32]) -> bool {
    let mut acc = leaf.hash();
    let mut hasher = Sha256::new();
    for step in &proof.steps {
        acc = if step.sibling_on_left {
            inner_hash(&mut hasher, &step.sibling, &acc)
        } else {
            inner_hash(&mut hasher, &acc, &step.sibling)
        };
    }
    acc == *root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<EpochLeaf> {
        (0..n)
            .map(|i| EpochLeaf {
                device: format!("gpu-{i}"),
                head: [i as u8; 32],
                seq: i as u64 * 3,
            })
            .collect()
    }

    fn hex(bytes: [u8; 32]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The per-call rebuild `prove_inclusion` did before trees were
    /// kept: re-hash every level, picking the sibling on the way up.
    fn rebuilt_proof(leaves: &[EpochLeaf], index: usize) -> InclusionProof {
        let mut level: Vec<[u8; 32]> = leaves.iter().map(EpochLeaf::hash).collect();
        let mut pos = index;
        let mut steps = Vec::new();
        let mut hasher = Sha256::new();
        while level.len() > 1 {
            let sibling = pos ^ 1;
            if sibling < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling],
                    sibling_on_left: sibling < pos,
                });
            }
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => inner_hash(&mut hasher, l, r),
                    [odd] => *odd,
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
            pos /= 2;
        }
        InclusionProof { steps }
    }

    #[test]
    fn every_leaf_proves_for_all_fleet_sizes() {
        // 1..=70 walks every odd-promotion shape up to seven levels.
        for n in 1..=70 {
            let leaves = fleet(n);
            let tree = EpochTree::build(&leaves);
            let root = epoch_root(&leaves);
            assert_eq!(tree.root(), root, "fleet {n}");
            assert_eq!(tree.len(), n);
            for i in 0..n {
                let proof = tree.prove(i);
                assert_eq!(proof, prove_inclusion(&leaves, i), "fleet {n}, leaf {i}");
                assert_eq!(proof, rebuilt_proof(&leaves, i), "fleet {n}, leaf {i}");
                assert!(
                    verify_inclusion(&leaves[i], &proof, &root),
                    "fleet {n}, leaf {i}"
                );
            }
        }
    }

    #[test]
    fn roots_match_golden() {
        // Pinned before the tree was kept whole: a rewrite of the
        // hashing must not move any published root.
        assert_eq!(
            hex(epoch_root(&fleet(7))),
            "702a5c8336bff6abae37adcc9ec524b8f17a13d912946912ba0bd660eedd3a4a"
        );
        assert_eq!(
            hex(epoch_root(&[])),
            "3090f94b36519cde373f33380524af15e8593755628a774afe6a693ad6a1e324"
        );
        let empty = EpochTree::build(&[]);
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.root(), epoch_root(&[]));
    }

    #[test]
    #[should_panic(expected = "leaf index out of bounds")]
    fn proving_past_the_last_leaf_panics() {
        EpochTree::build(&fleet(3)).prove(3);
    }

    #[test]
    fn wrong_leaf_or_root_rejects() {
        let leaves = fleet(5);
        let root = epoch_root(&leaves);
        let proof = prove_inclusion(&leaves, 2);
        // Proof for leaf 2 must not validate leaf 3.
        assert!(!verify_inclusion(&leaves[3], &proof, &root));
        // Nor against a different fleet's root.
        let other_root = epoch_root(&fleet(4));
        assert!(!verify_inclusion(&leaves[2], &proof, &other_root));
        // A mutated head fails.
        let mut mutated = leaves[2].clone();
        mutated.head[0] ^= 1;
        assert!(!verify_inclusion(&mutated, &proof, &root));
    }

    #[test]
    fn leaf_and_inner_domains_are_separated() {
        // A two-leaf root's preimage reinterpreted as a leaf must not
        // produce the same hash (0x00 vs 0x01 prefix).
        let leaves = fleet(2);
        let root = epoch_root(&leaves);
        let single = EpochLeaf {
            device: "gpu-0".into(),
            head: leaves[0].head,
            seq: leaves[0].seq,
        };
        assert_ne!(root, single.hash());
    }

    #[test]
    fn empty_epoch_has_stable_root() {
        assert_eq!(epoch_root(&[]), epoch_root(&[]));
        assert_ne!(epoch_root(&[]), epoch_root(&fleet(1)));
    }

    #[test]
    fn proof_codec_round_trips() {
        let leaves = fleet(7);
        let proof = prove_inclusion(&leaves, 4);
        let mut bytes = Vec::new();
        proof.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = InclusionProof::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, proof);

        let mut lb = Vec::new();
        leaves[4].encode(&mut lb);
        let mut r = Reader::new(&lb);
        assert_eq!(EpochLeaf::decode_from(&mut r).unwrap(), leaves[4]);
    }
}
