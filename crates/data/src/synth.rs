//! SynthNet: a deterministic, procedurally-generated image-classification
//! dataset standing in for ImageNet (see DESIGN.md's substitution table).
//!
//! Each class is defined by a set of colored Gaussian blobs plus an
//! oriented sinusoidal texture, all derived from a class-seeded RNG. Each
//! *sample* jitters the blob positions, texture phase, and adds pixel
//! noise from a sample-seeded RNG — so the task requires learning spatial
//! structure (not just mean color), is adjustable in difficulty, and every
//! `sample(i)` is a pure function of `(seed, i)`.

use crate::dataset::Dataset;
use ets_tensor::Rng;

/// Per-class generative template.
struct ClassTemplate {
    /// Blobs: (cx, cy, radius, r, g, b) in normalized coordinates.
    blobs: [(f32, f32, f32, f32, f32, f32); 3],
    /// Texture: (orientation kx, ky, amplitude) per channel.
    texture: [(f32, f32, f32); 3],
}

/// The synthetic dataset.
pub struct SynthNet {
    templates: Vec<ClassTemplate>,
    len: usize,
    resolution: usize,
    seed: u64,
    /// Sample jitter magnitude (0 = pure templates, 1 = very noisy). Higher
    /// values make the task harder; 0.35 trains a tiny EfficientNet to
    /// high accuracy in a few epochs while leaving headroom for optimizer
    /// comparisons.
    noise: f32,
}

impl SynthNet {
    /// Creates a dataset of `len` samples over `num_classes` classes at
    /// `resolution²` pixels.
    pub fn new(seed: u64, num_classes: usize, len: usize, resolution: usize, noise: f32) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        assert!(resolution >= 4, "resolution too small");
        let root = Rng::new(seed);
        let templates = (0..num_classes)
            .map(|c| {
                let mut rng = root.split(0x_C1A5_5000 + c as u64);
                let blobs = std::array::from_fn(|_| {
                    (
                        rng.uniform_in(0.15, 0.85),
                        rng.uniform_in(0.15, 0.85),
                        rng.uniform_in(0.10, 0.28),
                        rng.uniform_in(-1.0, 1.0),
                        rng.uniform_in(-1.0, 1.0),
                        rng.uniform_in(-1.0, 1.0),
                    )
                });
                let mut texture = [(0.0, 0.0, 0.0); 3];
                for t in &mut texture {
                    *t = (
                        rng.uniform_in(1.0, 4.0),
                        rng.uniform_in(1.0, 4.0),
                        rng.uniform_in(0.2, 0.5),
                    );
                }
                ClassTemplate { blobs, texture }
            })
            .collect();
        SynthNet {
            templates,
            len,
            resolution,
            seed,
            noise,
        }
    }

    /// A quick training/eval pair sharing class templates: train gets
    /// `train_len` samples, eval `eval_len`, with disjoint sample seeds.
    pub fn train_eval_pair(
        seed: u64,
        num_classes: usize,
        train_len: usize,
        eval_len: usize,
        resolution: usize,
        noise: f32,
    ) -> (SynthNet, SynthNet) {
        let train = SynthNet::new(seed, num_classes, train_len, resolution, noise);
        let mut eval = SynthNet::new(seed, num_classes, eval_len, resolution, noise);
        // Same templates (same seed) but sample rng offset so eval samples
        // never coincide with training samples.
        eval.seed = seed ^ EVAL_SEED_XOR;
        (train, eval)
    }
}

/// XOR mask separating the eval split's sample-noise stream from train's.
const EVAL_SEED_XOR: u64 = 0x5EED_EA11_0000_0001;

impl Dataset for SynthNet {
    fn len(&self) -> usize {
        self.len
    }

    fn num_classes(&self) -> usize {
        self.templates.len()
    }

    fn resolution(&self) -> usize {
        self.resolution
    }

    fn sample_into(&self, i: usize, out: &mut [f32]) -> usize {
        let res = self.resolution;
        assert_eq!(out.len(), 3 * res * res, "output buffer size");
        let label = i % self.templates.len();
        let t = &self.templates[label];
        let mut rng = Rng::new(self.seed).split(0x_5A3D_0000 ^ i as u64);
        let jitter = self.noise * 0.15;
        // Jittered blob centres for this sample, and each Gaussian's
        // denominator 2·rad².
        let blobs = t.blobs.map(|(cx, cy, rad, ..)| {
            let cx = cx + rng.uniform_in(-jitter, jitter);
            let cy = cy + rng.uniform_in(-jitter, jitter);
            // Radius jitter scales with the noise knob too, so noise=0
            // means pure class templates.
            let rad = rad * (1.0 + self.noise * rng.uniform_in(-0.15, 0.15));
            (cx, cy, 2.0 * rad * rad)
        });
        let colors = t.blobs.map(|(.., r, g, b)| [r, g, b]);
        // Texture phase jitter scales with the noise knob so noise=0 gives
        // pure class templates (up to blob jitter, also noise-scaled).
        let phase = self.noise * rng.uniform_in(0.0, std::f32::consts::TAU);
        let inv = 1.0 / res as f32;
        // Pixel by pixel, so each blob's weight is one `exp` shared by the
        // three channels. Every output is the same chain of f32 operations
        // as a channel-by-channel loop would compute.
        for y in 0..res {
            let fy = (y as f32 + 0.5) * inv;
            let dy2 = blobs.map(|(_, cy, _)| (fy - cy) * (fy - cy));
            let ky_fy = t.texture.map(|(_, ky, _)| ky * fy);
            for x in 0..res {
                let fx = (x as f32 + 0.5) * inv;
                let w: [f32; 3] = std::array::from_fn(|b| {
                    let (cx, _, den) = blobs[b];
                    let d2 = (fx - cx) * (fx - cx) + dy2[b];
                    (-d2 / den).exp()
                });
                for ch in 0..3 {
                    let (kx, _, amp) = t.texture[ch];
                    let mut v = amp * (std::f32::consts::TAU * (kx * fx + ky_fy[ch]) + phase).sin();
                    for (wb, color) in w.iter().zip(&colors) {
                        v += wb * color[ch];
                    }
                    out[(ch * res + y) * res + x] = v;
                }
            }
        }
        // Pixel noise.
        if self.noise > 0.0 {
            for v in out.iter_mut() {
                *v += self.noise * 0.5 * rng.normal();
            }
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::materialize_batch;
    use proptest::prelude::*;

    /// The channel-by-channel loop `sample_into` replaced: nine `exp` per
    /// pixel and a per-sample blob `Vec`. The oracle for bitwise equality.
    fn sample_reference(ds: &SynthNet, i: usize, out: &mut [f32]) -> usize {
        let res = ds.resolution;
        assert_eq!(out.len(), 3 * res * res, "output buffer size");
        let label = i % ds.templates.len();
        let t = &ds.templates[label];
        let mut rng = Rng::new(ds.seed).split(0x_5A3D_0000 ^ i as u64);
        let jitter = ds.noise * 0.15;
        let blobs: Vec<(f32, f32, f32, f32, f32, f32)> = t
            .blobs
            .iter()
            .map(|&(cx, cy, rad, r, g, b)| {
                (
                    cx + rng.uniform_in(-jitter, jitter),
                    cy + rng.uniform_in(-jitter, jitter),
                    rad * (1.0 + ds.noise * rng.uniform_in(-0.15, 0.15)),
                    r,
                    g,
                    b,
                )
            })
            .collect();
        let phase = ds.noise * rng.uniform_in(0.0, std::f32::consts::TAU);
        let inv = 1.0 / res as f32;
        for ch in 0..3 {
            let (kx, ky, amp) = t.texture[ch];
            for y in 0..res {
                let fy = (y as f32 + 0.5) * inv;
                for x in 0..res {
                    let fx = (x as f32 + 0.5) * inv;
                    let mut v = amp * (std::f32::consts::TAU * (kx * fx + ky * fy) + phase).sin();
                    for &(cx, cy, rad, r, g, b) in &blobs {
                        let d2 = (fx - cx) * (fx - cx) + (fy - cy) * (fy - cy);
                        let w = (-d2 / (2.0 * rad * rad)).exp();
                        v += w * [r, g, b][ch];
                    }
                    out[(ch * res + y) * res + x] = v;
                }
            }
        }
        if ds.noise > 0.0 {
            for v in out.iter_mut() {
                *v += ds.noise * 0.5 * rng.normal();
            }
        }
        label
    }

    /// `sample_into` and the oracle on one sample: same label, same bits.
    fn assert_matches_reference(ds: &SynthNet, i: usize) {
        let n = 3 * ds.resolution * ds.resolution;
        let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
        assert_eq!(
            ds.sample_into(i, &mut got),
            sample_reference(ds, i, &mut want)
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "res {} noise {} index {i}",
            ds.resolution,
            ds.noise
        );
    }

    #[test]
    fn sample_into_equals_the_channel_by_channel_loop_bitwise() {
        for res in [4, 5, 8, 17, 32, 64] {
            for noise in [0.0, 0.35, 1.0] {
                for seed in [0, 1, 301, u64::MAX] {
                    let ds = SynthNet::new(seed, 7, 1000, res, noise);
                    for i in [0, 1, 6, 13, 999] {
                        assert_matches_reference(&ds, i);
                    }
                }
            }
        }
        // The eval split's sample stream too.
        let (_, eval) = SynthNet::train_eval_pair(5, 4, 16, 16, 8, 0.35);
        assert_matches_reference(&eval, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sample_into_equals_the_reference_for_any_sample(
            seed in 0u64..u64::MAX,
            index in 0usize..1_000_000,
            res in 4usize..40,
            noise in 0.0f32..1.0,
        ) {
            assert_matches_reference(&SynthNet::new(seed, 10, 1_000_000, res, noise), index);
        }
    }

    #[test]
    fn deterministic_samples() {
        let ds = SynthNet::new(1, 4, 100, 8, 0.3);
        let mut a = vec![0.0; 3 * 64];
        let mut b = vec![0.0; 3 * 64];
        let la = ds.sample_into(17, &mut a);
        let lb = ds.sample_into(17, &mut b);
        assert_eq!(la, lb);
        assert_eq!(a, b, "same index must give identical pixels");
    }

    #[test]
    fn distinct_samples_differ() {
        let ds = SynthNet::new(1, 4, 100, 8, 0.3);
        let mut a = vec![0.0; 3 * 64];
        let mut b = vec![0.0; 3 * 64];
        // Same class (4 apart), different sample → different pixels.
        ds.sample_into(3, &mut a);
        ds.sample_into(7, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn labels_balanced() {
        let ds = SynthNet::new(2, 5, 100, 8, 0.1);
        let mut counts = [0usize; 5];
        let mut buf = vec![0.0; 3 * 64];
        for i in 0..100 {
            counts[ds.sample_into(i, &mut buf)] += 1;
        }
        assert_eq!(counts, [20; 5]);
    }

    #[test]
    fn classes_are_separable_by_template() {
        // Noise-free samples of different classes must differ a lot more
        // than same-class samples — the signal a classifier learns.
        let ds = SynthNet::new(3, 2, 100, 16, 0.0);
        let img = |i: usize| {
            let mut v = vec![0.0; 3 * 256];
            ds.sample_into(i, &mut v);
            v
        };
        let d = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f32>()
        };
        let same = d(&img(0), &img(2)); // class 0 vs class 0
        let diff = d(&img(0), &img(1)); // class 0 vs class 1
        assert!(
            diff > 3.0 * same,
            "between-class {diff} should dwarf within-class {same}"
        );
    }

    #[test]
    fn train_eval_disjoint_but_same_classes() {
        let (train, eval) = SynthNet::train_eval_pair(9, 3, 30, 12, 8, 0.2);
        let mut a = vec![0.0; 3 * 64];
        let mut b = vec![0.0; 3 * 64];
        let la = train.sample_into(0, &mut a);
        let lb = eval.sample_into(0, &mut b);
        assert_eq!(la, lb, "index→label mapping shared");
        assert_ne!(a, b, "pixels must differ between train and eval streams");
        assert_eq!(eval.len(), 12);
    }

    #[test]
    fn batch_shapes() {
        let ds = SynthNet::new(4, 10, 1000, 8, 0.3);
        let (batch, labels) = materialize_batch(&ds, &[0, 1, 2, 3]);
        assert_eq!(batch.shape().dims(), &[4, 3, 8, 8]);
        assert_eq!(labels, vec![0, 1, 2, 3]);
        assert!(!batch.has_non_finite());
    }
}
