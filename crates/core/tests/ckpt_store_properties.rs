//! Property tests for the durable checkpoint store: *no corruption is
//! ever loaded silently*.
//!
//! The deterministic tests below are exhaustive where it matters — every
//! single bit of a serialized checkpoint is flipped, every prefix
//! truncation is tried — so the guarantee does not depend on sampling. The `proptest!` block then
//! widens the same properties over randomized snapshot contents.

use ets_nn::EmaState;
use ets_optim::OptimizerState;
use ets_train::{
    CkptStore, CorruptionInjector, DurableSnapshot, EpochRecord, Progress, TensorRecord,
};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded snapshot with non-trivial content in every record section.
fn snapshot(step: u64, seed: u64) -> DurableSnapshot {
    let mut s = seed ^ 0xD1F7_AB1E;
    let mut bits = |n: usize| -> Vec<u32> { (0..n).map(|_| splitmix(&mut s) as u32).collect() };
    let param_n = 3 + (seed % 5) as usize;
    DurableSnapshot {
        progress: Progress {
            step,
            epoch: 1 + step / 4,
            sample_off: (step % 4) * 32,
            steps_this_epoch: step % 4,
            consumed_samples: step * 32,
            lr_scale: 0.5,
            loss_sum: step as f64 * 1.25,
            last_lr: 0.025,
        },
        world: 4,
        params: vec![
            TensorRecord {
                name: "stem/w".to_string(),
                shape: vec![param_n, 2],
                bits: bits(param_n * 2),
            },
            TensorRecord {
                name: "head/b".to_string(),
                shape: vec![3],
                bits: bits(3),
            },
        ],
        bn_running: vec![(bits(4), bits(4)), (bits(2), bits(2))],
        opt_state: OptimizerState {
            scalars: vec![step, step.rotate_left(17) ^ seed],
            banks: vec![bits(6), Vec::new()],
        },
        ema: Some(EmaState {
            decay_bits: 0.999f32.to_bits(),
            updates: step,
            shadow: vec![("stem/w".to_string(), vec![param_n, 2], bits(param_n * 2))],
        }),
        history: vec![EpochRecord {
            epoch: 1,
            train_loss: 2.25,
            lr: 0.01,
            eval_top1: Some(0.5),
            eval_top5: None,
        }],
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ets-ckpt-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn round_trip_is_canonical() {
    for seed in 0..8 {
        let bytes = snapshot(7 + seed, seed).to_bytes();
        let reparsed = DurableSnapshot::from_bytes(&bytes).expect("pristine bytes parse");
        assert_eq!(
            reparsed.to_bytes(),
            bytes,
            "serialization must be canonical (seed {seed})"
        );
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    // Exhaustive: flip each bit of the file in turn; every mutant must be
    // rejected. Every byte is in the header, in a record's payload or in
    // the CRC-32 after either, which guarantees this for any 1-bit
    // (indeed any ≤ 2-bit) error, and the test proves the code actually
    // checks each scope's CRC before trusting a field in it.
    let bytes = snapshot(12, 3).to_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutant = bytes.clone();
            mutant[byte] ^= 1 << bit;
            assert!(
                DurableSnapshot::from_bytes(&mutant).is_err(),
                "flip at byte {byte} bit {bit} loaded silently"
            );
        }
    }
}

#[test]
fn every_single_byte_corruption_is_detected() {
    // Replace each byte with several unrelated values (not just 1-bit
    // neighbours).
    let bytes = snapshot(5, 9).to_bytes();
    for byte in 0..bytes.len() {
        for delta in [0x01u8, 0x55, 0xAA, 0xFF] {
            let mut mutant = bytes.clone();
            mutant[byte] ^= delta;
            assert!(
                DurableSnapshot::from_bytes(&mutant).is_err(),
                "byte {byte} xor {delta:#x} loaded silently"
            );
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let bytes = snapshot(9, 1).to_bytes();
    for len in 0..bytes.len() {
        assert!(
            DurableSnapshot::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes loaded silently"
        );
    }
}

#[test]
fn injector_corruption_never_loads_silently() {
    let dir = scratch_dir("injector");
    let store = CkptStore::open(&dir, 3).unwrap();
    for step in [2u64, 4, 6] {
        store.save(&snapshot(step, step)).unwrap();
    }
    // Corrupt the newest checkpoint: the load must fall back to step 4
    // and account the skip — never return corrupted step-6 data.
    let mut injector = CorruptionInjector::new(40);
    injector
        .flip_one_bit(&dir.join("ckpt-00000000000000000006.ets"))
        .unwrap();
    let (snap, report) = store.load_latest_valid().unwrap().expect("fallback exists");
    assert_eq!(snap.progress.step, 4);
    assert_eq!(report.loaded_step, 4);
    assert_eq!(report.corrupt_skipped, 1);
    // Corrupt everything: the store must refuse entirely, not guess.
    injector
        .flip_one_bit(&dir.join("ckpt-00000000000000000004.ets"))
        .unwrap();
    injector
        .flip_one_bit(&dir.join("ckpt-00000000000000000002.ets"))
        .unwrap();
    assert!(store.load_latest_valid().unwrap().is_none());
    // And per-step loads of each corrupted file are typed errors.
    for step in [2u64, 4, 6] {
        assert!(store.load_step(step).is_err(), "step {step} load must fail");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Midway the store is dropped and reopened on its directory: the
/// listing is the whole index, so retention carries on where it stopped.
#[test]
fn retention_keeps_exactly_the_newest_k() {
    for retain in 1..=4usize {
        let dir = scratch_dir(&format!("retain{retain}"));
        let mut store = CkptStore::open(&dir, retain).unwrap();
        let steps: Vec<u64> = (1..=7).map(|i| i * 10).collect();
        for (i, &step) in steps.iter().enumerate() {
            if i == 3 {
                drop(store);
                store = CkptStore::open(&dir, retain).unwrap();
            }
            store.save(&snapshot(step, step)).unwrap();
            let expect: Vec<u64> = steps[..=i]
                .iter()
                .copied()
                .rev()
                .take(retain)
                .rev()
                .collect();
            assert_eq!(store.list_steps().unwrap(), expect, "retain {retain}");
        }
        // Every retained checkpoint is still fully loadable.
        for step in store.list_steps().unwrap() {
            assert_eq!(store.load_step(step).unwrap().progress.step, step);
        }
        let (snap, report) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!((snap.progress.step, report.corrupt_skipped), (70, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bit_flip_is_detected(step in 0u64..1000, seed in 0u64..1000, pick in 0u64..u64::MAX) {
        let bytes = snapshot(step, seed).to_bytes();
        let mut mutant = bytes.clone();
        let byte = (pick % bytes.len() as u64) as usize;
        let bit = (pick / bytes.len() as u64 % 8) as u8;
        mutant[byte] ^= 1 << bit;
        prop_assert!(DurableSnapshot::from_bytes(&mutant).is_err());
    }

    #[test]
    fn random_snapshot_round_trips(step in 0u64..10_000, seed in 0u64..10_000) {
        let bytes = snapshot(step, seed).to_bytes();
        let reparsed = DurableSnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(reparsed.to_bytes(), bytes);
    }
}
