//! Checkpoint / restore: snapshot a model mid-training, serialize it to
//! the checksummed on-disk format, revive it in a fresh process-worth of
//! state, show the restore is bit-identical, and show that a damaged file
//! is refused instead of loaded.
//!
//! ```sh
//! cargo run --release --example checkpointing
//! ```

use efficientnet_at_scale::data::{load_batch, AugmentConfig, SynthNet};
use efficientnet_at_scale::efficientnet::{EfficientNet, ModelConfig};
use efficientnet_at_scale::nn::{cross_entropy, zero_grads, Layer, Mode, Precision};
use efficientnet_at_scale::optim::{Optimizer, Sgd};
use efficientnet_at_scale::tensor::Rng;
use efficientnet_at_scale::train::{CkptError, DurableSnapshot, Progress};

fn main() {
    let ds = SynthNet::new(7, 4, 128, 16, 0.3);
    let mut rng = Rng::new(0);
    let mut model = EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut rng);
    let mut opt = Sgd::new(0.9, 1e-5);

    println!("=== Checkpointing walkthrough ===\n");
    let indices: Vec<usize> = (0..32).collect();
    for step in 0..5 {
        let (x, labels) = load_batch(&ds, &indices, AugmentConfig::eval(), &mut rng);
        zero_grads(&mut model);
        let logits = model.forward(&x, Mode::Train, &mut rng);
        let out = cross_entropy(&logits, &labels, 0.1);
        model.backward(&out.dlogits);
        opt.step(&mut model, 0.02);
        println!("step {step}: loss {:.4}", out.loss);
    }

    // The durable snapshot is what the trainer persists and rewinds to:
    // weights and BN statistics, optimizer slots, and the progress cursor
    // an elastic resume needs, captured straight off the replica.
    let progress = Progress {
        step: 5,
        sample_off: 5 * 32,
        steps_this_epoch: 5,
        consumed_samples: 5 * 32,
        last_lr: 0.02,
        ..Progress::fresh()
    };
    let snap = DurableSnapshot::capture(&mut model, &opt, None, &progress, 1, &[]);
    let mut bytes = snap.to_bytes();
    println!(
        "\ncheckpoint: {} tensors, {} BN stat pairs, {:.1} KiB on disk",
        snap.params.len(),
        snap.bn_running.len(),
        bytes.len() as f64 / 1024.0
    );

    // Revive into a fresh differently-seeded model.
    let mut revived =
        EfficientNet::new(ModelConfig::tiny(16, 4), Precision::F32, &mut Rng::new(99));
    let loaded = DurableSnapshot::from_bytes(&bytes).expect("an undamaged snapshot validates");
    let (resumed, _history) = loaded.apply(&mut revived, &mut Sgd::new(0.9, 1e-5), &mut None);
    println!(
        "revived at step {} ({} samples consumed)",
        resumed.step, resumed.consumed_samples
    );

    // Identical eval outputs.
    let (x, _) = load_batch(&ds, &indices[..4], AugmentConfig::eval(), &mut Rng::new(1));
    let mut ra = Rng::new(2);
    let mut rb = Rng::new(2);
    let ya = model.forward(&x, Mode::Eval, &mut ra);
    let yb = revived.forward(&x, Mode::Eval, &mut rb);
    println!(
        "max |original − revived| on eval logits: {:e} (bitwise restore)",
        ya.max_abs_diff(&yb)
    );
    assert_eq!(ya.max_abs_diff(&yb), 0.0);

    // One flipped byte anywhere in the file: a typed error, never a load.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let refused = DurableSnapshot::from_bytes(&bytes).expect_err("a damaged snapshot is refused");
    println!("byte {mid} flipped: {refused}");
    assert!(matches!(refused, CkptError::ChecksumMismatch { .. }));
    println!("\nResume-from-checkpoint produces the identical trajectory —");
    println!("see tests/checkpoint_resume.rs for the step-by-step assertion.");
}
