//! End-to-end check of the collective-backend contract through the full
//! trainer. Every `Backend` value runs the same communicator round in
//! process (`ets-collective`'s unit tests pin that bitwise per
//! operation), so a run under any label must follow the tree run's
//! trajectory bit for bit, and the tree run must be bitwise run-to-run
//! reproducible. Each non-tree label is trained once here, against one
//! shared tree run.

use ets_collective::Backend;
use ets_train::{train, Experiment, TrainReport};
use std::sync::OnceLock;

fn base() -> Experiment {
    let mut e = Experiment::proxy_default();
    e.replicas = 4;
    e.per_replica_batch = 4;
    e.epochs = 3;
    e.train_samples = 128;
    e.eval_samples = 32;
    e
}

fn run(backend: Backend) -> TrainReport {
    let mut e = base();
    e.collective_backend = backend;
    train(&e)
}

/// The tree run, trained once for every test in this binary.
fn tree() -> &'static TrainReport {
    static TREE: OnceLock<TrainReport> = OnceLock::new();
    TREE.get_or_init(|| run(Backend::Tree))
}

/// Weights, per-epoch losses and learning rates are bitwise the tree's.
fn assert_tree_trajectory(other: &TrainReport, what: &str) {
    let tree = tree();
    assert_eq!(
        tree.weight_checksum, other.weight_checksum,
        "{what}: final weights diverged from tree"
    );
    assert_eq!(tree.history.len(), other.history.len(), "{what}: epochs");
    for (t, o) in tree.history.iter().zip(&other.history) {
        assert_eq!(
            t.train_loss.to_bits(),
            o.train_loss.to_bits(),
            "epoch {}: {what} loss diverged from tree",
            t.epoch
        );
        assert_eq!(t.lr, o.lr, "schedules must not depend on the backend");
    }
}

#[test]
fn tree_and_ring_train_to_the_same_losses() {
    assert_tree_trajectory(&run(Backend::Ring), "ring");
}

#[test]
fn all_four_backends_train_to_bitwise_identical_trajectories() {
    // Ring and auto have their own tests in this file.
    assert_tree_trajectory(&run(Backend::Torus2d), "torus2d");
}

#[test]
fn each_backend_is_run_to_run_bitwise_reproducible() {
    assert_tree_trajectory(&run(Backend::Tree), "tree rerun");
}

#[test]
fn auto_backend_tracks_the_fixed_backends() {
    assert_tree_trajectory(&run(Backend::Auto), "auto");
}

#[test]
fn bucket_profile_is_populated_under_every_backend() {
    let prof = &tree().all_reduce_buckets;
    assert!(prof.num_buckets() > 0, "no buckets recorded");
    assert!(prof.rounds > 0, "no rounds recorded");
    assert!(
        prof.total_seconds() >= 0.0 && prof.total_seconds().is_finite(),
        "nonsensical bucket timing"
    );
    // Bucket layout covers the whole flat gradient + loss scalar.
    let elems: usize = prof.bucket_elems.iter().sum();
    assert!(elems > 0, "empty bucket layout");
}
