//! Determinism matrix for the sharded control plane.
//!
//! The sharded event loop's headline guarantee: shard count and worker
//! count are *pure throughput knobs*. For any `(shards, workers)`
//! configuration the service must produce the identical event history,
//! the identical per-device evidence chain heads, and byte-identical
//! snapshots — because the three-stage step (intake → per-device units
//! → seq-stamped merge) imposes one canonical global order no matter
//! how the units were scheduled.
//!
//! The matrix here runs a modeled fleet under `{shards 1,4,16} ×
//! {workers 0,2,8}` for three seeds and asserts every cell equals the
//! `shards=1, workers=0` baseline (the configuration that replays the
//! pre-shard implementation's history). A second scenario crashes the
//! control plane mid-epoch, restores it under a *different* shard
//! geometry, and requires the spliced history to match a run that never
//! crashed — resharding on restart is invisible.

mod common;

use common::{build_fleet, history_of, History};
use sage_repro::crypto::DhGroup;
use sage_repro::evidence::FreshnessPolicy;
use sage_repro::service::{AttestationService, ServiceConfig};

/// The shard/worker grid every scenario sweeps. `(1, 0)` is the
/// baseline cell the rest must reproduce.
const GRID: [(usize, usize); 6] = [(1, 0), (1, 8), (4, 0), (4, 2), (16, 2), (16, 8)];

const DEVICES: usize = 12;
const VERIFIER: &[u8] = b"sharded-verifier";
const HORIZON: u64 = 120_000;

fn config(shards: usize, workers: usize) -> ServiceConfig {
    ServiceConfig {
        reattest_interval: 10_000,
        epoch_interval: 30_000,
        freshness: FreshnessPolicy {
            stale_after: 25_000,
            degraded_after: 50_000,
        },
        shards,
        workers,
        ..ServiceConfig::default()
    }
}

fn run_history(shards: usize, workers: usize, seed: u64) -> History {
    let mut svc = build_fleet(config(shards, workers), DEVICES, VERIFIER, seed);
    svc.run_until(HORIZON);
    history_of(&svc)
}

fn assert_same(label: &str, base: &History, got: &History) {
    assert_eq!(base.heads, got.heads, "{label}: evidence heads diverged");
    assert_eq!(
        base.events_json, got.events_json,
        "{label}: event history diverged"
    );
    assert_eq!(
        base.snapshot, got.snapshot,
        "{label}: snapshot bytes diverged"
    );
}

#[test]
fn every_shard_worker_cell_replays_the_baseline_history() {
    for seed in [1u64, 2, 3] {
        let base = run_history(1, 0, seed);
        assert!(
            !base.heads.is_empty(),
            "baseline produced no evidence chains"
        );
        for (shards, workers) in GRID {
            if (shards, workers) == (1, 0) {
                continue;
            }
            let got = run_history(shards, workers, seed);
            assert_same(
                &format!("seed {seed}, shards {shards}, workers {workers}"),
                &base,
                &got,
            );
        }
    }
}

#[test]
fn crash_and_resharded_restore_mid_epoch_is_invisible() {
    // Crash between two epoch seals (epochs at 30k/60k/90k; crash at
    // 44k) with rounds outstanding, restore under a different shard
    // geometry, and run to the horizon: the spliced history must be
    // byte-identical to the baseline that never crashed.
    const CRASH_AT: u64 = 44_000;
    for seed in [1u64, 2, 3] {
        let base = run_history(1, 0, seed);
        for (shards, workers) in [(4, 2), (16, 8)] {
            let mut first = build_fleet(config(1, 0), DEVICES, VERIFIER, seed);
            first.run_until(CRASH_AT);
            let bytes = first.snapshot();
            let (net, endpoints) = first.into_endpoints();
            let mut second = AttestationService::restore(
                config(shards, workers),
                DhGroup::test_group(),
                net,
                &bytes,
                endpoints,
            )
            .expect("restore resharded");
            second.run_until(HORIZON);
            assert_same(
                &format!("seed {seed}, restore into shards {shards}, workers {workers}"),
                &base,
                &history_of(&second),
            );
        }
    }
}

#[test]
fn snapshots_agree_at_every_epoch_boundary() {
    // Stronger than end-state equality: walk the run in epoch-sized
    // steps and require the full state to agree at each boundary, so a
    // transient divergence cannot cancel out by the horizon.
    let seed = 2u64;
    let mut base = build_fleet(config(1, 0), DEVICES, VERIFIER, seed);
    let mut wide = build_fleet(config(16, 8), DEVICES, VERIFIER, seed);
    for checkpoint in (30_000..=HORIZON).step_by(30_000) {
        base.run_until(checkpoint);
        wide.run_until(checkpoint);
        assert_same(
            &format!("checkpoint {checkpoint}"),
            &history_of(&base),
            &history_of(&wide),
        );
    }
}
