//! Trainer-level invariants of the packed-kernel fast path.
//!
//! The `gemm_auto` dispatcher picks naive-vs-blocked kernels as a pure
//! function of GEMM shape, so turning the fast path on must not perturb
//! the SPMD symmetry guarantees: reruns are bitwise-deterministic at a
//! fixed world size, and every world size still learns. These
//! tests run a resolution-32 proxy model — large enough that real
//! training steps cross the dispatch threshold, which the process-wide
//! dispatch counters prove.

use efficientnet_at_scale::efficientnet::EfficientNet;
use efficientnet_at_scale::efficientnet::ModelConfig;
use efficientnet_at_scale::nn::{Conv2d, Layer, Mode, Precision};
use efficientnet_at_scale::tensor::ops::depthwise::{
    depthwise_backward, depthwise_backward_reference, depthwise_forward,
    depthwise_forward_reference,
};
use efficientnet_at_scale::tensor::ops::dispatch::{
    dispatch_blocked_calls, dispatch_calls, dispatch_naive_calls, GemmPrecision,
};
use efficientnet_at_scale::tensor::ops::simd::{ForcedLaneGuard, LanePath};
use efficientnet_at_scale::tensor::same_pad;
use efficientnet_at_scale::tensor::{Rng, Tensor};
use efficientnet_at_scale::train::{train, Experiment, TrainReport};
use std::sync::RwLock;

/// The dispatch counters are process-wide. Tests that only need them to
/// move share this lock; the one that counts exactly takes it alone.
static DISPATCH_TALLY: RwLock<()> = RwLock::new(());

fn sharing_the_tally() -> impl Drop {
    DISPATCH_TALLY.read().unwrap_or_else(|e| e.into_inner())
}

/// A proxy experiment at resolution 32: big enough that the stem conv
/// and the deeper pointwise convs clear `BLOCKED_MIN_MACS`.
fn res32(replicas: usize) -> Experiment {
    let mut e = Experiment::proxy_default();
    e.model = ModelConfig::tiny(32, 8);
    e.resolution = 32;
    e.replicas = replicas;
    e.per_replica_batch = 32 / replicas;
    e.epochs = 2;
    e.train_samples = 128;
    e.eval_samples = 32;
    e
}

/// Everything that must be bitwise-equal across reruns.
fn fingerprint(r: &TrainReport) -> (u64, Vec<u32>) {
    (
        r.weight_checksum,
        r.history.iter().map(|h| h.train_loss.to_bits()).collect(),
    )
}

#[test]
fn training_exercises_both_dispatch_paths() {
    let _tally = sharing_the_tally();
    let blocked0 = dispatch_blocked_calls();
    let naive0 = dispatch_naive_calls();
    let r = train(&res32(2));
    assert!(r.final_loss().is_finite());
    assert!(
        dispatch_blocked_calls() > blocked0,
        "a resolution-32 training run must route some GEMMs to the blocked kernels \
         (threshold silently too high?)"
    );
    assert!(
        dispatch_naive_calls() > naive0,
        "small SE/projection GEMMs must keep the naive kernels \
         (threshold silently too low?)"
    );
}

/// A conv layer is three products over the whole batch — `W·B` forward,
/// `dY·Bᵀ` and `Wᵀ·dY` backward — so it tallies 1 + 2 dispatches whatever
/// the batch size. A per-image product anywhere would multiply these by
/// `N` and bring `tensor.gemm.calls_per_step` back up.
#[test]
fn a_conv_layer_is_three_dispatches_at_any_batch_size() {
    let _alone = DISPATCH_TALLY.write().unwrap_or_else(|e| e.into_inner());
    let total = || dispatch_blocked_calls() + dispatch_naive_calls();
    for (kernel, stride, pad) in [(1, 1, 0), (3, 2, 1)] {
        for n in [1usize, 8] {
            let mut rng = Rng::new(7);
            let mut conv = Conv2d::new("c", 8, 16, kernel, stride, pad, Precision::F32, &mut rng);
            let mut x = Tensor::zeros([n, 8, 8, 8]);
            rng.fill_uniform(x.data_mut(), -1.0, 1.0);
            let before = total();
            let y = conv.forward(&x, Mode::Train, &mut rng);
            assert_eq!(total() - before, 1, "{kernel}×{kernel} forward at N={n}");
            conv.backward(&y);
            assert_eq!(
                total() - before,
                3,
                "{kernel}×{kernel} forward+backward at N={n}"
            );
        }
    }
}

/// `(channels, kernel, stride, input side)` of every depthwise layer of
/// `cfg`, in order, walked the way `EfficientNet::new` builds the model:
/// a stride-2 SAME stem, then each stage's blocks with the stage's
/// stride on the first.
fn depthwise_layers(cfg: &ModelConfig) -> Vec<(usize, usize, usize, usize)> {
    let mut side = cfg.resolution.div_ceil(2);
    let mut layers = Vec::new();
    for args in &cfg.blocks {
        let out_f = cfg.round_filters(args.out_filters);
        for rep in 0..cfg.round_repeats(args.repeats) {
            let (in_f, stride) = match rep {
                0 => (cfg.round_filters(args.in_filters), args.stride),
                _ => (out_f, 1),
            };
            layers.push((in_f * args.expand_ratio, args.kernel, stride, side));
            side = side.div_ceil(stride);
        }
    }
    layers
}

/// The models of the four perfbench workloads (`perfbench/src/workloads.rs`:
/// both `b0half_*` share one) and the batch each replica runs.
fn perfbench_models() -> [(ModelConfig, usize); 3] {
    let b0half = |resolution| ModelConfig {
        width_mult: 0.5,
        depth_mult: 0.5,
        ..ModelConfig::tiny(resolution, 8)
    };
    let wide = ModelConfig {
        width_mult: 1.5,
        depth_mult: 0.2,
        ..ModelConfig::tiny(8, 8)
    };
    [(b0half(64), 8), (wide, 1), (b0half(32), 2)]
}

/// Every depthwise geometry a perfbench workload runs gives the same
/// bits as the per-pixel reference loops, for `y`, `dx` and `dw`, on
/// every SIMD lane path: the reason `final_loss` did not move when the
/// row kernels replaced those loops.
#[test]
fn depthwise_layers_of_the_perfbench_models_equal_the_reference_bitwise() {
    let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
    let mut sides = Vec::new();
    for (cfg, batch) in perfbench_models() {
        let layers = depthwise_layers(&cfg);
        // The walk names the layers the model has: same kernels in order.
        let mut kernels = Vec::new();
        EfficientNet::new(cfg.clone(), Precision::F32, &mut Rng::new(1)).visit_params(&mut |p| {
            if p.name.ends_with(".dw.dw") {
                kernels.push((p.dims()[0], p.dims()[2]));
            }
        });
        let walked: Vec<_> = layers.iter().map(|&(c, k, ..)| (c, k)).collect();
        assert_eq!(walked, kernels, "resolution {}", cfg.resolution);

        for (idx, &(c, k, stride, side)) in layers.iter().enumerate() {
            sides.push(side);
            let mut rng = Rng::new(40 + idx as u64);
            let mut random = |dims: [usize; 4]| {
                let mut t = Tensor::zeros(dims);
                rng.fill_uniform(t.data_mut(), -1.0, 1.0);
                t
            };
            let (x, w) = (random([batch, c, side, side]), random([c, 1, k, k]));
            let pad = same_pad(k);
            let y = depthwise_forward_reference(&x, &w, stride, pad);
            let dy = random([batch, c, y.shape().h(), y.shape().w()]);
            let (dx, dw) = depthwise_backward_reference(&x, &w, &dy, stride, pad);
            for lane in LanePath::ALL.into_iter().filter(|lane| lane.available()) {
                let _lane = ForcedLaneGuard::new(lane);
                let ctx = format!("{c}ch {side}² {k}×{k} s{stride} on {}", lane.name());
                assert_eq!(
                    bits(&depthwise_forward(&x, &w, stride, pad)),
                    bits(&y),
                    "y {ctx}"
                );
                let (dx_l, dw_l) = depthwise_backward(&x, &w, &dy, stride, pad);
                assert_eq!(bits(&dx_l), bits(&dx), "dx {ctx}");
                assert_eq!(bits(&dw_l), bits(&dw), "dw {ctx}");
            }
        }
    }
    // The sweep reaches the wide maps and the 1×1 ones.
    assert_eq!(
        (sides.iter().min(), sides.iter().max()),
        (Some(&1), Some(&32))
    );
}

#[test]
fn losses_bitwise_identical_across_backends_with_blocked_kernels() {
    let _tally = sharing_the_tally();
    // Every collective backend runs the same communicator round, so the
    // cross-backend claim reduces to rerun determinism: the dispatcher
    // must answer identically on a fresh process state (its counters have
    // advanced; its decisions must not).
    for world in [2usize, 4] {
        let base = train(&res32(world));
        let again = train(&res32(world));
        assert_eq!(
            fingerprint(&again),
            fingerprint(&base),
            "world={world}: rerun not bitwise-deterministic"
        );
    }
}

/// §3.5 mixed precision rides the same shape-pure dispatch machinery,
/// so it inherits the symmetry guarantee: bitwise-identical reruns at
/// each world size. The per-precision counters prove the bf16 packed
/// kernels actually ran (a silent fallback to f32 would also pass the
/// equality checks).
#[test]
fn mixed_precision_losses_bitwise_reproducible_across_backends() {
    let _tally = sharing_the_tally();
    let mixed = |world: usize| {
        let mut e = res32(world);
        e.precision = Precision::MixedBf16;
        e
    };
    let (bf16_blocked0, bf16_naive0) = dispatch_calls(GemmPrecision::Bf16);
    for world in [2usize, 4] {
        let base = train(&mixed(world));
        assert!(base.final_loss().is_finite());
        let base_fp = fingerprint(&base);
        let again = train(&mixed(world));
        assert_eq!(
            fingerprint(&again),
            base_fp,
            "world={world}: mixed-precision rerun not bitwise-deterministic"
        );
    }
    let (bf16_blocked, bf16_naive) = dispatch_calls(GemmPrecision::Bf16);
    assert!(
        bf16_blocked > bf16_blocked0,
        "mixed-precision training must route conv GEMMs to the bf16 packed kernels"
    );
    assert!(
        bf16_naive > bf16_naive0,
        "conv GEMMs with a reduction depth below BLOCKED_MIN_K (the 1×1 convs into and \
         out of the 8- and 16-channel trunks) must keep the (quantizing) naive path"
    );
    // And the policy must actually change the numerics: a mixed run's
    // losses differ from the f32 run's (same config otherwise).
    let f32_run = train(&res32(2));
    let bf16_run = train(&mixed(2));
    assert_ne!(
        fingerprint(&f32_run),
        fingerprint(&bf16_run),
        "MixedBf16 produced bitwise-identical results to F32 — the knob is dead"
    );
}

#[test]
fn every_world_size_still_learns() {
    let _tally = sharing_the_tally();
    // Across world sizes the all-reduce association differs, so equality
    // is not bitwise — but the training outcome must agree qualitatively:
    // finite, decreasing loss for both. Over two epochs of 8 steps near
    // ln 8 the sign of the change is noise: 2 or 3 of the 16 runs of
    // world {2, 4} × seed {42, 1..=7} went up, depending on the
    // initializer. Over four epochs the last was below the first in all 16.
    for world in [2usize, 4] {
        let mut e = res32(world);
        e.epochs = 4;
        let r = train(&e);
        assert!(
            r.final_loss().is_finite(),
            "world={world}: non-finite final loss"
        );
        assert!(
            r.final_loss() < r.history[0].train_loss,
            "world={world}: loss did not decrease: {:?}",
            r.history.iter().map(|h| h.train_loss).collect::<Vec<_>>()
        );
    }
}

/// DESIGN.md's "Compute kernels" chapter quotes the routing thresholds
/// and blocking parameters; they drifted once (`k ≥ 8` while the code
/// said 24), so the quoted values are checked against the constants.
#[test]
fn design_doc_quotes_current_kernel_constants() {
    use efficientnet_at_scale::tensor::ops::dispatch::{BLOCKED_MIN_K, BLOCKED_MIN_MACS};
    use efficientnet_at_scale::tensor::ops::gemm_blocked::{KC, MC, MR, NC, NR};
    let design = include_str!("../DESIGN.md");
    for quote in [
        format!("BLOCKED_MIN_K = {BLOCKED_MIN_K}"),
        format!("BLOCKED_MIN_MACS = {BLOCKED_MIN_MACS}"),
        format!("`MC={MC}, KC={KC}, NC={NC}, MR={MR}, NR={NR}`"),
    ] {
        assert!(
            design.contains(&quote),
            "DESIGN.md no longer says `{quote}`"
        );
    }
}

/// `third_party/README.md` says what each stand-in does and which are
/// unused; its table must name exactly the directories that exist.
#[test]
fn third_party_readme_names_exactly_the_vendored_crates() {
    let mut on_disk: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/third_party"))
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().into_string().unwrap())
            .collect();
    on_disk.sort();
    // Rows start "| `name`"; one row may name several crates.
    let mut in_table: Vec<&str> = include_str!("../third_party/README.md")
        .lines()
        .filter(|l| l.starts_with("| `"))
        .flat_map(|l| l.split('|').nth(1).unwrap().split('`').skip(1).step_by(2))
        .collect();
    in_table.sort();
    assert_eq!(in_table, on_disk);
}
