//! The traced run (`--trace 1`): per-layer numbers measured from outside,
//! by timing calls into each crate's public functions at the workload's
//! shapes, one span per call. Layers are the crates. Every timing is the
//! lower quartile over at least five repetitions, expressed per training
//! step of the workload (one forward/backward over the per-replica batch).

use crate::manifest::{EXACT, PER_LAYER};
use crate::shapes::{walk, BlockShape, Op, Walk};
use crate::spans::{SpanBuf, SpanId, ROOT};
use crate::stats::{p25, Summary};
use crate::{host, Args, Metrics, Ops};
use ets_collective::{create_collective, Backend, Collective, CollectiveStats, GroupSpec};
use ets_data::{load_batch, AugmentConfig, EpochPlan, SynthNet};
use ets_efficientnet::{EfficientNet, MbConvBlock, Variant};
use ets_nn::{
    cross_entropy, zero_grads, BatchNorm2d, Conv2d, DepthwiseConv2d, Dropout, GlobalAvgPool, Layer,
    Linear, Mode, Precision, Sequential, SqueezeExcite, StatSync, Swish,
};
use ets_optim::{Lars, Optimizer, RmsProp};
use ets_tensor::ops::abft;
use ets_tensor::ops::conv::{
    conv2d_backward_p, conv2d_forward_p, depthwise_backward, depthwise_forward,
};
use ets_tensor::ops::dispatch::{dispatch_calls, gemm_auto, GemmPrecision};
use ets_tensor::{same_pad, Rng, Tensor};
use ets_train::{
    train_traced, CkptStore, Experiment, GradBucket, GroupStatSync, OptimizerChoice, TrainReport,
    DEFAULT_BUCKET_ELEMS,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// How long and how often each replayed call is repeated.
struct Bench<'a> {
    spans: &'a mut SpanBuf,
    min_reps: usize,
    /// Keep repeating one measurement until this many seconds are spent.
    budget_s: f64,
    /// Measurements taken (the traced run's `attempted`, with the rounds).
    measured: u64,
}

const MAX_REPS: usize = 400;

impl Bench<'_> {
    fn keep_going(&self, reps: usize, since: Instant) -> bool {
        reps < self.min_reps || (reps < MAX_REPS && since.elapsed().as_secs_f64() < self.budget_s)
    }

    /// p25 seconds of `f`, after one unrecorded warm-up call.
    fn time(&mut self, name: &'static str, parent: SpanId, mut f: impl FnMut()) -> f64 {
        f();
        self.measured += 1;
        let mut samples = Vec::new();
        let t0 = Instant::now();
        while self.keep_going(samples.len(), t0) {
            samples.push(self.spans.time(name, parent, &mut f).1);
        }
        p25(&samples)
    }

    /// p25 seconds of `layer.forward(Train)` and of `layer.backward`, each
    /// backward following its forward as in a training step.
    fn layer(
        &mut self,
        names: [&'static str; 2],
        parent: SpanId,
        layer: &mut dyn Layer,
        x: &Tensor,
    ) -> (f64, f64) {
        let mut rng = Rng::new(0x5eed);
        let y = layer.forward(x, Mode::Train, &mut rng);
        let mut g = Tensor::zeros(y.shape().dims());
        Rng::new(0x6bad).fill_normal(g.data_mut(), 0.0, 1.0);
        black_box(layer.backward(&g));
        self.measured += 1;
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while self.keep_going(fwd.len(), t0) {
            fwd.push(
                self.spans
                    .time(names[0], parent, || {
                        black_box(layer.forward(x, Mode::Train, &mut rng));
                    })
                    .1,
            );
            bwd.push(
                self.spans
                    .time(names[1], parent, || {
                        black_box(layer.backward(&g));
                    })
                    .1,
            );
        }
        (p25(&fwd), p25(&bwd))
    }
}

fn randn(dims: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    Rng::new(seed).fill_normal(t.data_mut(), 0.0, 1.0);
    t
}

/// The stand-alone `ets-nn` object for `op` and an input of its shape.
fn nn_layer(
    op: &Op,
    batch: usize,
    precision: Precision,
    rng: &mut Rng,
) -> (Box<dyn Layer>, Tensor) {
    let map = |c: usize, hw: usize| randn(&[batch, c, hw, hw], 11);
    match *op {
        Op::Conv {
            c_in,
            c_out,
            k,
            stride,
            hw,
        } => {
            let pad = if k > 1 { same_pad(k) } else { 0 };
            let conv = Conv2d::new("conv", c_in, c_out, k, stride, pad, precision, rng);
            (Box::new(conv), map(c_in, hw))
        }
        Op::Depthwise { c, k, stride, hw } => {
            let dw = DepthwiseConv2d::new("dw", c, k, stride, same_pad(k), precision, rng);
            (Box::new(dw), map(c, hw))
        }
        Op::BatchNorm { c, hw } => (Box::new(BatchNorm2d::new("bn", c)), map(c, hw)),
        Op::Swish { c, hw } => (Box::new(Swish::new()), map(c, hw)),
        Op::Se { c, se_dim, hw } => {
            let se = SqueezeExcite::new("se", c, se_dim, precision.policy(), rng);
            (Box::new(se), map(c, hw))
        }
        Op::Pool { c, hw } => (Box::new(GlobalAvgPool::new()), map(c, hw)),
        Op::Linear { d_in, d_out } => {
            let fc = Linear::with_precision("fc", d_in, d_out, true, precision.policy(), rng);
            (Box::new(fc), randn(&[batch, d_in], 11))
        }
    }
}

/// One row per `nn.<kind>`: the kind, its two metrics, its two span names.
struct NnKind {
    kind: &'static str,
    metrics: [&'static str; 2],
    spans: [&'static str; 2],
}

const fn nn_kind(
    kind: &'static str,
    metrics: [&'static str; 2],
    spans: [&'static str; 2],
) -> NnKind {
    NnKind {
        kind,
        metrics,
        spans,
    }
}

const NN_KINDS: [NnKind; 8] = [
    nn_kind(
        "conv1x1",
        ["nn.conv1x1.fwd_ms", "nn.conv1x1.bwd_ms"],
        ["Conv2d::forward", "Conv2d::backward"],
    ),
    nn_kind(
        "convkxk",
        ["nn.convkxk.fwd_ms", "nn.convkxk.bwd_ms"],
        ["Conv2d::forward", "Conv2d::backward"],
    ),
    nn_kind(
        "depthwise",
        ["nn.depthwise.fwd_ms", "nn.depthwise.bwd_ms"],
        ["DepthwiseConv2d::forward", "DepthwiseConv2d::backward"],
    ),
    nn_kind(
        "batchnorm",
        ["nn.batchnorm.fwd_ms", "nn.batchnorm.bwd_ms"],
        ["BatchNorm2d::forward", "BatchNorm2d::backward"],
    ),
    nn_kind(
        "swish",
        ["nn.swish.fwd_ms", "nn.swish.bwd_ms"],
        ["Swish::forward", "Swish::backward"],
    ),
    nn_kind(
        "se",
        ["nn.se.fwd_ms", "nn.se.bwd_ms"],
        ["SqueezeExcite::forward", "SqueezeExcite::backward"],
    ),
    nn_kind(
        "pool",
        ["nn.pool.fwd_ms", "nn.pool.bwd_ms"],
        ["GlobalAvgPool::forward", "GlobalAvgPool::backward"],
    ),
    nn_kind(
        "linear",
        ["nn.linear.fwd_ms", "nn.linear.bwd_ms"],
        ["Linear::forward", "Linear::backward"],
    ),
];

fn kind_index(kind: &str) -> usize {
    NN_KINDS
        .iter()
        .position(|k| k.kind == kind)
        .expect("every op kind is in NN_KINDS")
}

/// Per-kind forward and backward seconds per step, summed over the model's
/// distinct shapes times how often each occurs.
#[derive(Default)]
struct NnTimes {
    fwd: [f64; 8],
    bwd: [f64; 8],
    loss_s: f64,
}

impl NnTimes {
    fn total(&self) -> f64 {
        self.fwd.iter().chain(&self.bwd).sum::<f64>() + self.loss_s
    }
}

fn replay_nn(b: &mut Bench, parent: SpanId, exp: &Experiment, w: &Walk) -> NnTimes {
    let group = b.spans.open("ets-nn", parent);
    let batch = exp.per_replica_batch;
    let mut t = NnTimes::default();
    let mut rng = Rng::new(exp.seed).split(7);
    for (op, count) in w.distinct() {
        let kind = kind_index(op.kind());
        let (mut layer, x) = nn_layer(&op, batch, exp.precision, &mut rng);
        let (f, bw) = b.layer(NN_KINDS[kind].spans, group, layer.as_mut(), &x);
        t.fwd[kind] += f * count as f64;
        t.bwd[kind] += bw * count as f64;
    }
    let logits = randn(&[batch, exp.num_classes], 13);
    let labels: Vec<usize> = (0..batch).map(|i| i % exp.num_classes).collect();
    t.loss_s = b.time("cross_entropy", group, || {
        black_box(cross_entropy(&logits, &labels, exp.label_smoothing));
    });
    b.spans.close(group);
    t
}

#[derive(Default)]
struct TensorTimes {
    conv_fwd_s: f64,
    conv_bwd_s: f64,
    conv_fwd_abft_s: f64,
    dw_fwd_s: f64,
    dw_bwd_s: f64,
    peak_gflops: f64,
    triad_gbps: f64,
}

fn replay_tensor(b: &mut Bench, parent: SpanId, exp: &Experiment, w: &Walk) -> TensorTimes {
    let group = b.spans.open("ets-tensor", parent);
    let batch = exp.per_replica_batch;
    let prec = exp.precision.gemm();
    let mut t = TensorTimes::default();
    for (op, count) in w.distinct() {
        let n = count as f64;
        match op {
            Op::Conv {
                c_in,
                c_out,
                k,
                stride,
                hw,
            } => {
                let pad = if k > 1 { same_pad(k) } else { 0 };
                let x = randn(&[batch, c_in, hw, hw], 21);
                let wt = randn(&[c_out, c_in, k, k], 22);
                let dy = conv2d_forward_p(&x, &wt, stride, pad, prec).map(|v| v * 0.5);
                t.conv_fwd_s += n * b.time("conv2d_forward_p", group, || {
                    black_box(conv2d_forward_p(&x, &wt, stride, pad, prec));
                });
                t.conv_bwd_s += n * b.time("conv2d_backward_p", group, || {
                    black_box(conv2d_backward_p(&x, &wt, &dy, stride, pad, prec));
                });
                // Same call with tile checksums on, back to back with the
                // plain one so host drift cancels in the ratio.
                abft::set_verify(true);
                t.conv_fwd_abft_s += n * b.time("conv2d_forward_p+abft", group, || {
                    black_box(conv2d_forward_p(&x, &wt, stride, pad, prec));
                });
                abft::set_verify(false);
            }
            Op::Depthwise { c, k, stride, hw } => {
                let pad = same_pad(k);
                let x = randn(&[batch, c, hw, hw], 23);
                let wt = randn(&[c, 1, k, k], 24);
                let dy = depthwise_forward(&x, &wt, stride, pad);
                t.dw_fwd_s += n * b.time("depthwise_forward", group, || {
                    black_box(depthwise_forward(&x, &wt, stride, pad));
                });
                t.dw_bwd_s += n * b.time("depthwise_backward", group, || {
                    black_box(depthwise_backward(&x, &wt, &dy, stride, pad));
                });
            }
            _ => {}
        }
    }

    // Host roofline: the calibration GEMM of BENCH_kernels.json and a
    // bench-owned triad over arrays far larger than the caches.
    let (m, k, n) = (256usize, 1152, 3136);
    let a = randn(&[m * k], 25).into_vec();
    let bm = randn(&[k * n], 26).into_vec();
    let mut c = vec![0.0f32; m * n];
    let gemm_s = b.time("gemm_auto", group, || {
        gemm_auto(m, k, n, &a, &bm, &mut c);
        black_box(&mut c);
    });
    t.peak_gflops = 2.0 * (m * k * n) as f64 / gemm_s / 1e9;
    const TRIAD: usize = 4 << 20;
    let (x, y) = (vec![1.0f32; TRIAD], vec![2.0f32; TRIAD]);
    let mut z = vec![0.0f32; TRIAD];
    let triad_s = b.time("triad", group, || {
        for ((z, x), y) in z.iter_mut().zip(&x).zip(&y) {
            *z = *x + 3.0 * *y;
        }
        black_box(&mut z);
    });
    t.triad_gbps = (3 * 4 * TRIAD) as f64 / triad_s / 1e9;
    b.spans.close(group);
    t
}

/// Counts the engine keeps itself, read around one real model step.
struct StepCounts {
    gemm_calls: u64,
    gemm_blocked: u64,
    gemm_bf16: u64,
    scratch_reallocs: u64,
    abft_tiles: u64,
}

struct ModelTimes {
    fwd_s: f64,
    bwd_s: f64,
    eval_fwd_s: f64,
    stem_s: f64,
    stage_s: [f64; 7],
    head_s: f64,
    counts: StepCounts,
}

fn mbconv(bs: &BlockShape, precision: Precision, rng: &mut Rng) -> MbConvBlock {
    MbConvBlock::new(
        "block",
        bs.in_f,
        bs.out_f,
        bs.kernel,
        bs.stride,
        bs.expand_ratio,
        bs.se_ratio,
        bs.drop_connect,
        precision,
        rng,
    )
}

fn dispatch_totals() -> (u64, u64, u64) {
    let (fb, fnv) = dispatch_calls(GemmPrecision::F32);
    let (bb, bn) = dispatch_calls(GemmPrecision::Bf16);
    (fb + fnv + bb + bn, fb + bb, bb + bn)
}

fn replay_model(b: &mut Bench, parent: SpanId, exp: &Experiment, w: &Walk) -> ModelTimes {
    let group = b.spans.open("ets-efficientnet", parent);
    let batch = exp.per_replica_batch;
    let cfg = &exp.model;
    let mut rng = Rng::new(exp.seed).split(1);
    let mut model = EfficientNet::new(cfg.clone(), exp.precision, &mut rng);
    let x = randn(&[batch, 3, cfg.resolution, cfg.resolution], 31);
    let (fwd_s, bwd_s) = b.layer(
        ["EfficientNet::forward", "EfficientNet::backward"],
        group,
        &mut model,
        &x,
    );
    let mut erng = Rng::new(0);
    let eval_fwd_s = b.time("EfficientNet::forward(Eval)", group, || {
        black_box(model.forward(&x, Mode::Eval, &mut erng));
    });

    // One real step (the arenas are warm by now) between counter reads.
    let labels: Vec<usize> = (0..batch).map(|i| i % exp.num_classes).collect();
    let mut step = |model: &mut EfficientNet| {
        zero_grads(model);
        let logits = model.forward(&x, Mode::Train, &mut erng);
        let out = cross_entropy(&logits, &labels, exp.label_smoothing);
        black_box(model.backward(&out.dlogits));
    };
    let (calls0, blocked0, bf0) = dispatch_totals();
    let reallocs0 = ets_tensor::scratch_reallocs();
    b.spans
        .time("train step (counted)", group, || step(&mut model));
    let (calls1, blocked1, bf1) = dispatch_totals();
    let scratch_reallocs = ets_tensor::scratch_reallocs() - reallocs0;
    abft::set_verify(true);
    let tiles0 = abft::tiles_verified();
    b.spans
        .time("train step (abft counted)", group, || step(&mut model));
    let abft_tiles = abft::tiles_verified() - tiles0;
    abft::set_verify(false);
    drop(model);

    let stem_f = cfg.stem_filters();
    let mut stem = Sequential::new("stem")
        .push(Conv2d::new(
            "stem.conv",
            3,
            stem_f,
            3,
            2,
            same_pad(3),
            exp.precision,
            &mut rng,
        ))
        .push(BatchNorm2d::new("stem.bn", stem_f))
        .push(Swish::new());
    let (f, bw) = b.layer(["stem forward", "stem backward"], group, &mut stem, &x);
    let stem_s = f + bw;

    let mut stage_s = [0.0; 7];
    let mut done: Vec<(BlockShape, f64)> = Vec::new();
    for bs in &w.blocks {
        // Repeats within a stage share a shape (drop-connect aside, which
        // changes no shape): measure each distinct block once.
        let key = BlockShape {
            drop_connect: 0.0,
            ..*bs
        };
        let secs = match done.iter().find(|(k, _)| *k == key) {
            Some((_, s)) => *s,
            None => {
                let mut block = mbconv(bs, exp.precision, &mut rng);
                let xin = randn(&[batch, bs.in_f, bs.hw, bs.hw], 32);
                let (f, bw) = b.layer(
                    ["MbConvBlock::forward", "MbConvBlock::backward"],
                    group,
                    &mut block,
                    &xin,
                );
                done.push((key, f + bw));
                f + bw
            }
        };
        stage_s[bs.stage] += secs;
    }

    let head_f = cfg.head_filters();
    let mut head = Sequential::new("head")
        .push(Conv2d::new(
            "head.conv",
            w.head_in,
            head_f,
            1,
            1,
            0,
            exp.precision,
            &mut rng,
        ))
        .push(BatchNorm2d::new("head.bn", head_f))
        .push(Swish::new())
        .push(GlobalAvgPool::new())
        .push(Dropout::new(cfg.dropout))
        .push(Linear::with_precision(
            "head.fc",
            head_f,
            cfg.num_classes,
            true,
            exp.precision.policy(),
            &mut rng,
        ));
    let xh = randn(&[batch, w.head_in, w.head_hw, w.head_hw], 33);
    let (f, bw) = b.layer(["head forward", "head backward"], group, &mut head, &xh);
    b.spans.close(group);
    ModelTimes {
        fwd_s,
        bwd_s,
        eval_fwd_s,
        stem_s,
        stage_s,
        head_s: f + bw,
        counts: StepCounts {
            gemm_calls: calls1 - calls0,
            gemm_blocked: blocked1 - blocked0,
            gemm_bf16: bf1 - bf0,
            scratch_reallocs,
            abft_tiles,
        },
    }
}

/// The optimizer the trainer builds for `choice` (its constants are the
/// trainer's; only the two choices the workloads use are replayed).
fn optimizer_of(choice: OptimizerChoice) -> Box<dyn Optimizer> {
    match choice {
        OptimizerChoice::RmsProp => Box::new(RmsProp::efficientnet_default()),
        OptimizerChoice::Lars { trust_coeff } => Box::new(Lars::new(0.9, 1e-5, trust_coeff)),
        other => panic!("no workload uses {other:?}"),
    }
}

struct OptimTimes {
    step_s: f64,
    state_bytes: u64,
}

fn replay_optim(b: &mut Bench, parent: SpanId, exp: &Experiment) -> OptimTimes {
    let group = b.spans.open("ets-optim", parent);
    let mut model = EfficientNet::new(exp.model.clone(), exp.precision, &mut Rng::new(exp.seed));
    let mut grng = Rng::new(41);
    model.visit_params(&mut |p| grng.fill_normal(p.grad.data_mut(), 0.0, 1e-3));
    let mut opt = optimizer_of(exp.optimizer);
    let lr = 0.1 * exp.peak_lr();
    let step_s = b.time("Optimizer::step", group, || opt.step(&mut model, lr));
    let state_bytes = opt
        .export_state()
        .banks
        .iter()
        .map(|bank| 4 * bank.len() as u64)
        .sum();
    b.spans.close(group);
    OptimTimes {
        step_s,
        state_bytes,
    }
}

fn replay_data(b: &mut Bench, parent: SpanId, exp: &Experiment) -> f64 {
    let group = b.spans.open("ets-data", parent);
    let (train_set, _) = SynthNet::train_eval_pair(
        exp.seed,
        exp.num_classes,
        exp.train_samples,
        exp.eval_samples,
        exp.resolution,
        exp.data_noise,
    );
    let plan = EpochPlan::new(exp.seed, 1, exp.train_samples);
    let indices = plan.batch_at(0, 0, exp.replicas, exp.per_replica_batch);
    let mut rng = Rng::new(exp.seed).split(1000);
    let s = b.time("load_batch", group, || {
        black_box(load_batch(
            &train_set,
            &indices,
            AugmentConfig::train(),
            &mut rng,
        ));
    });
    b.spans.close(group);
    s
}

/// What the two-rank collective replay reports (all zero with one replica,
/// where nothing is exchanged).
#[derive(Default)]
struct CollectiveTimes {
    grad_s: f64,
    grad_elems: usize,
    bucket_s: f64,
    bn_sync_s: f64,
    allgather_s: f64,
    barrier_s: f64,
    backend_spread_pct: f64,
    calls_per_step: u64,
    bytes_per_step: u64,
}

/// Calls batched into one sample for the microsecond-scale collectives.
const SMALL_BATCH: usize = 20;

/// One rank's side of the SPMD replay script. Both ranks run the same
/// calls in the same order with the same repetition counts; rank 0 (the
/// main thread) keeps `(name, start, end)` of every sample.
struct Rank {
    world: Box<dyn Collective>,
    ring: Box<dyn Collective>,
    torus: Box<dyn Collective>,
    bn: Box<dyn Collective>,
    step_world: Box<dyn Collective>,
    step_bn: Option<Box<dyn Collective>>,
}

type Samples = Vec<(&'static str, Instant, Instant)>;

fn timed(
    comm: &dyn Collective,
    name: &'static str,
    reps: usize,
    inner: usize,
    out: &mut Samples,
    mut op: impl FnMut(),
) {
    // reps + 1: the first is the warm-up and is not kept.
    for rep in 0..=reps {
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..inner {
            op();
        }
        let t1 = Instant::now();
        if rep > 0 {
            out.push((name, t0, t1));
        }
    }
}

fn delta(a: CollectiveStats, b: CollectiveStats) -> (u64, u64) {
    (
        b.total_calls() - a.total_calls(),
        b.payload_bytes - a.payload_bytes,
    )
}

fn rank_script(r: Rank, exp: &Experiment, w: &Walk, reps: usize, out: &mut Samples) -> (u64, u64) {
    let flat = w.params() as usize + 1;
    let mut buf = vec![0.25f32; flat];
    timed(
        r.world.as_ref(),
        "all_reduce_sum(grad)",
        reps,
        1,
        out,
        || r.world.all_reduce_sum(&mut buf),
    );
    timed(
        r.ring.as_ref(),
        "all_reduce_sum(grad,ring)",
        reps,
        1,
        out,
        || r.ring.all_reduce_sum(&mut buf),
    );
    timed(
        r.torus.as_ref(),
        "all_reduce_sum(grad,torus2d)",
        reps,
        1,
        out,
        || r.torus.all_reduce_sum(&mut buf),
    );
    let bucket = exp
        .grad_bucket_elems
        .unwrap_or(DEFAULT_BUCKET_ELEMS)
        .min(flat);
    timed(
        r.world.as_ref(),
        "all_reduce_sum(bucket)",
        reps,
        1,
        out,
        || r.world.all_reduce_sum(&mut buf[..bucket]),
    );
    let mut fp = Vec::new();
    timed(
        r.world.as_ref(),
        "all_gather(fingerprint)",
        reps,
        SMALL_BATCH,
        out,
        || r.world.all_gather(&[1.0, 2.0, 3.0, 4.0], &mut fp),
    );
    timed(r.world.as_ref(), "barrier", reps, SMALL_BATCH, out, || {
        r.world.barrier()
    });
    let c = w.mean_bn_channels();
    let (mut s1, mut s2) = (vec![0.5f32; c], vec![0.25f32; c]);
    let sync = GroupStatSync::new(r.bn);
    timed(
        r.world.as_ref(),
        "GroupStatSync::reduce_pair",
        reps,
        SMALL_BATCH,
        out,
        || {
            black_box(sync.reduce_pair(&mut s1, &mut s2, 16.0));
        },
    );

    // One real exchange-bearing step on fresh collectives, for the exact
    // call and byte counts of a step.
    let mut model = EfficientNet::new(
        exp.model.clone(),
        exp.precision,
        &mut Rng::new(exp.seed).split(1),
    );
    let bn_sync = r.step_bn.map(|c| Arc::new(GroupStatSync::new(c)));
    if let Some(s) = &bn_sync {
        model.set_bn_sync(Arc::clone(s) as Arc<dyn StatSync>);
    }
    let mut bucket = match exp.grad_bucket_elems {
        Some(n) => GradBucket::with_bucket_elems(&mut model, n),
        None => GradBucket::new(&mut model),
    };
    bucket.set_fingerprint_verify(
        exp.fingerprint_verify,
        exp.corruption_policy.bucket_retries(),
    );
    let batch = exp.per_replica_batch;
    let x = randn(&[batch, 3, exp.resolution, exp.resolution], 51);
    let labels: Vec<usize> = (0..batch).map(|i| i % exp.num_classes).collect();
    let world0 = r.step_world.stats();
    let bn0 = bn_sync.as_ref().map(|s| s.stats()).unwrap_or_default();
    let t0 = Instant::now();
    let logits = model.forward(&x, Mode::Train, &mut Rng::new(2));
    let loss = cross_entropy(&logits, &labels, exp.label_smoothing);
    if exp.overlap_all_reduce {
        bucket.backward_overlapped(&mut model, &loss.dlogits, r.step_world.as_ref(), loss.loss);
    } else {
        model.backward(&loss.dlogits);
        bucket.all_reduce(&mut model, r.step_world.as_ref(), loss.loss);
    }
    out.push(("train step (exchange counted)", t0, Instant::now()));
    let (wc, wb) = delta(world0, r.step_world.stats());
    let (bc, bb) = delta(bn0, bn_sync.map(|s| s.stats()).unwrap_or_default());
    (wc + bc, wb + bb)
}

fn replay_collective(b: &mut Bench, parent: SpanId, exp: &Experiment, w: &Walk) -> CollectiveTimes {
    let group = b.spans.open("ets-collective", parent);
    if exp.replicas < 2 {
        b.spans.close(group);
        return CollectiveTimes::default();
    }
    let reps = b.min_reps.max(if b.budget_s > 0.0 { 12 } else { 0 });
    let backend = exp.collective_backend;
    let synced_bn = !matches!(exp.bn_group, GroupSpec::Local);
    let mut sets = [
        create_collective(backend, 2),
        create_collective(Backend::Ring, 2),
        create_collective(Backend::Torus2d, 2),
        create_collective(backend, 2),
        create_collective(backend, 2),
    ];
    let mut step_bn = synced_bn.then(|| create_collective(backend, 2));
    // Rank 1 first (pop takes the last member), then rank 0.
    let mut ranks: Vec<Rank> = (0..2)
        .map(|_| {
            let mut next = |i: usize| sets[i].pop().expect("two members per world");
            Rank {
                world: next(0),
                ring: next(1),
                torus: next(2),
                bn: next(3),
                step_world: next(4),
                step_bn: step_bn.as_mut().map(|s| s.pop().expect("two members")),
            }
        })
        .collect();
    let rank0 = ranks.pop().expect("rank 0");
    let rank1 = ranks.pop().expect("rank 1");
    assert_eq!((rank0.world.rank(), rank1.world.rank()), (0, 1));

    let mut samples = Samples::new();
    let (calls, bytes) = std::thread::scope(|s| {
        let peer = s.spawn(|| {
            let mut unused = Samples::new();
            rank_script(rank1, exp, w, reps, &mut unused)
        });
        let mine = rank_script(rank0, exp, w, reps, &mut samples);
        let theirs = peer.join().expect("rank 1 panicked");
        assert_eq!(mine, theirs, "ranks disagree on a step's collective calls");
        mine
    });
    // Seven timed calls and the counted step.
    b.measured += 8;

    let secs = |name: &str| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(n, ..)| *n == name)
            .map(|(_, t0, t1)| t1.duration_since(*t0).as_secs_f64())
            .collect();
        p25(&v)
    };
    let grad_s = secs("all_reduce_sum(grad)");
    let by_backend = [
        grad_s,
        secs("all_reduce_sum(grad,ring)"),
        secs("all_reduce_sum(grad,torus2d)"),
    ];
    // The workload's backend is tree unless a workload says otherwise, so
    // the three timings are tree, ring and torus2d on one payload.
    let (lo, hi) = by_backend
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let t = CollectiveTimes {
        grad_s,
        grad_elems: w.params() as usize + 1,
        bucket_s: secs("all_reduce_sum(bucket)"),
        bn_sync_s: secs("GroupStatSync::reduce_pair") / SMALL_BATCH as f64,
        allgather_s: secs("all_gather(fingerprint)") / SMALL_BATCH as f64,
        barrier_s: secs("barrier") / SMALL_BATCH as f64,
        backend_spread_pct: 100.0 * (hi - lo) / lo,
        calls_per_step: calls,
        bytes_per_step: bytes,
    };
    for (name, t0, t1) in &samples {
        let (a, z) = (b.spans.ns_of(*t0), b.spans.ns_of(*t1));
        b.spans.push(name, a, z, group);
    }
    b.spans.close(group);
    t
}

/// What the rounds of the traced run report about `ets-train`/`ets-obs`.
struct TrainNumbers {
    reports: Vec<TrainReport>,
    round_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Cold-op wall minus the cold op's own single step.
    fixed_s: Vec<f64>,
    events_per_step: f64,
    obs_reallocs: u64,
}

fn run_rounds(ops: &mut Ops, spans: &mut SpanBuf, parent: SpanId, pairs: usize) -> TrainNumbers {
    let group = spans.open("ets-train", parent);
    let mut t = TrainNumbers {
        reports: Vec::new(),
        round_s: Vec::new(),
        traced_s: Vec::new(),
        fixed_s: Vec::new(),
        events_per_step: 0.0,
        obs_reallocs: 0,
    };
    // Warm-up, as in the untraced run.
    ops.cold();
    ops.round();
    for pair in 0..pairs {
        if let (Some((r, wall)), _) = spans.time("train (cold op)", group, || ops.cold()) {
            t.fixed_s.push(wall - r.phases.total());
        }
        // Traced and untraced rounds alternate, and which goes first
        // alternates too, so neither drift nor what ran before favours one.
        for traced in [pair % 2 == 0, pair % 2 != 0] {
            if traced {
                let mut recorders = Vec::new();
                let out = spans.time("train_traced (round)", group, || {
                    ops.round_with(|e| {
                        let (report, recs) = train_traced(e);
                        recorders = recs;
                        report
                    })
                });
                if let (Some((r, wall)), _) = out {
                    t.traced_s.push(wall);
                    let steps = r.phases.steps.max(1) as f64;
                    t.events_per_step = recorders[0].event_count() as f64 / steps;
                    t.obs_reallocs += recorders
                        .iter()
                        .map(|rec| rec.events_reallocs() + rec.registry_reallocs())
                        .sum::<u64>();
                }
            } else if let (Some((r, wall)), _) = spans.time("train (round)", group, || ops.round())
            {
                t.round_s.push(wall);
                t.reports.push(r);
            }
        }
    }
    spans.close(group);
    t
}

struct CkptTimes {
    save_s: f64,
    load_s: f64,
    bytes: u64,
}

/// Times the checkpoint store on the newest checkpoint the trainer's last
/// round left in `dir`; zeros for workloads that write none.
fn replay_ckpt(b: &mut Bench, parent: SpanId, ops: &Ops) -> CkptTimes {
    let dir = ops.ckpt_dir();
    if ops.round.ckpt_dir.is_none() || !dir.exists() {
        return CkptTimes {
            save_s: 0.0,
            load_s: 0.0,
            bytes: 0,
        };
    }
    let group = b.spans.open("ets-train ckpt_store", parent);
    let store = b
        .spans
        .time("CkptStore::open", group, || CkptStore::open(&dir, 3))
        .0
        .expect("open the trainer's checkpoint store");
    let load_s = b.time("CkptStore::load_latest_valid", group, || {
        black_box(store.load_latest_valid().expect("checkpoint store I/O"));
    });
    let (snap, _) = store
        .load_latest_valid()
        .expect("checkpoint store I/O")
        .expect("the round left a valid checkpoint");
    let scratch = dir.with_file_name("ckpt-replay");
    let out = CkptStore::open(&scratch, 3).expect("open a scratch checkpoint store");
    let save_s = b.time("CkptStore::save", group, || {
        black_box(out.save(&snap).expect("save a checkpoint"));
    });
    let _ = std::fs::remove_dir_all(&scratch);
    b.spans.close(group);
    CkptTimes {
        save_s,
        load_s,
        bytes: snap.to_bytes().len() as u64,
    }
}

struct SimNumbers {
    overhead_factor: f64,
    host_s: f64,
    table1_err_pp: f64,
    headline_err_pct: f64,
}

/// `ets-tpu-sim` outputs are simulated time: exact, and they move no
/// throughput. Only `host_s` (what one `simulate_chaos` call costs) is a
/// wall-clock number.
fn replay_sim(b: &mut Bench, parent: SpanId, exp: &Experiment) -> SimNumbers {
    use ets_tpu_sim::{
        simulate_chaos, step_time, time_to_accuracy, OptimizerKind, RunConfig, StepConfig,
    };
    let group = b.spans.open("ets-tpu-sim", parent);
    // The workload's plan on a B2/128-core pod: trigger times rescaled
    // from the trainer's virtual step to the pod's calibrated step.
    let cfg = StepConfig::new(Variant::B2, 128, 4096);
    let scale = step_time(&cfg).total() / exp.faults.virtual_step_seconds;
    let mut plan = exp.faults.clone();
    for ev in &mut plan.events {
        ev.at_s *= scale;
        ev.duration_s *= scale;
    }
    let steps = exp.epochs * exp.steps_per_epoch() as u64;
    let overhead_factor = simulate_chaos(&cfg, &plan, steps).overhead_factor();
    const CALLS: usize = 50;
    let host_s = b.time("simulate_chaos x50", group, || {
        for _ in 0..CALLS {
            black_box(simulate_chaos(&cfg, &plan, steps));
        }
    }) / CALLS as f64;
    let table1_err_pp = b
        .spans
        .time("table1_rows", group, ets_bench::table1_rows)
        .0
        .iter()
        .map(|r| (r.allreduce_pct - r.paper_allreduce_pct).abs())
        .fold(0.0, f64::max);
    // "83.0% in 1 hour and 4 minutes": B5, 1024 cores, batch 65536, LARS.
    let headline = b
        .spans
        .time("time_to_accuracy", group, || {
            time_to_accuracy(&RunConfig::paper(
                Variant::B5,
                1024,
                65536,
                OptimizerKind::Lars,
            ))
        })
        .0;
    b.spans.close(group);
    SimNumbers {
        overhead_factor,
        host_s,
        table1_err_pp,
        headline_err_pct: 100.0 * (headline.minutes_to_peak() - 64.0).abs() / 64.0,
    }
}

/// Everything one traced run measured, as `(name, value)` in table order.
pub fn measure(args: &Args, spans: &mut SpanBuf, ops: &mut Ops) -> Vec<(&'static str, f64)> {
    let steal = host::StealMeter::start();
    let root = spans.open("perfbench --trace 1", ROOT);
    let exp = ops.round.clone();
    let w = walk(&exp.model);
    let batch = exp.per_replica_batch as f64;

    let train = run_rounds(ops, spans, root, if args.quick { 1 } else { 5 });
    let mut b = Bench {
        spans,
        min_reps: if args.quick { 2 } else { 5 },
        budget_s: if args.quick {
            0.0
        } else {
            args.seconds * 0.003
        },
        measured: 0,
    };
    let ckpt = replay_ckpt(&mut b, root, ops);
    let tensor = replay_tensor(&mut b, root, &exp, &w);
    let nn = replay_nn(&mut b, root, &exp, &w);
    let model = replay_model(&mut b, root, &exp, &w);
    let optim = replay_optim(&mut b, root, &exp);
    let data_s = replay_data(&mut b, root, &exp);
    let coll = replay_collective(&mut b, root, &exp, &w);
    let sim = replay_sim(&mut b, root, &exp);
    ops.attempted += b.measured;
    b.spans.close(root);

    let ms = 1e3;
    let mut out: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, v: f64| out.push((name, v));

    // Sums `f(op) x occurrences` over the model's distinct ops of one kind
    // ("conv" = both dense kinds).
    let distinct = w.distinct();
    let total = |kind: &str, f: &dyn Fn(&Op) -> u64| -> f64 {
        distinct
            .iter()
            .filter(|(op, _)| {
                op.kind() == kind || (kind == "conv" && matches!(op, Op::Conv { .. }))
            })
            .map(|(op, n)| f(op) * *n as u64)
            .sum::<u64>() as f64
    };

    // ets-tensor
    let conv_macs = total("conv", &Op::macs);
    // Computed bytes moved: forward reads x and writes y, backward reads x
    // and dy and writes dx.
    let dw_bytes = total("depthwise", &|op| {
        4 * (3 * op.in_elems() + 2 * op.out_elems()) as u64
    });
    put("tensor.conv.fwd_ms", tensor.conv_fwd_s * ms);
    put("tensor.conv.bwd_ms", tensor.conv_bwd_s * ms);
    put(
        "tensor.conv.gflops",
        6.0 * conv_macs * batch / (tensor.conv_fwd_s + tensor.conv_bwd_s) / 1e9,
    );
    put("tensor.depthwise.fwd_ms", tensor.dw_fwd_s * ms);
    put("tensor.depthwise.bwd_ms", tensor.dw_bwd_s * ms);
    put(
        "tensor.depthwise.gbps",
        dw_bytes * batch / (tensor.dw_fwd_s + tensor.dw_bwd_s) / 1e9,
    );
    let c = &model.counts;
    put("tensor.gemm.calls_per_step", c.gemm_calls as f64);
    put(
        "tensor.gemm.blocked_share",
        c.gemm_blocked as f64 / c.gemm_calls.max(1) as f64,
    );
    put(
        "tensor.gemm.bf16_share",
        c.gemm_bf16 as f64 / c.gemm_calls.max(1) as f64,
    );
    put(
        "tensor.scratch.reallocs_per_step",
        c.scratch_reallocs as f64,
    );
    put(
        "tensor.abft.rel_throughput",
        tensor.conv_fwd_s / tensor.conv_fwd_abft_s,
    );
    put("tensor.abft.tiles_per_step", c.abft_tiles as f64);
    put("tensor.host.peak_gflops", tensor.peak_gflops);
    put("tensor.host.triad_gbps", tensor.triad_gbps);

    // ets-nn
    for (i, k) in NN_KINDS.iter().enumerate() {
        put(k.metrics[0], nn.fwd[i] * ms);
        put(k.metrics[1], nn.bwd[i] * ms);
    }
    put("nn.loss.ms", nn.loss_s * ms);
    let nn_s = |kind: &str| nn.fwd[kind_index(kind)] + nn.bwd[kind_index(kind)];
    put(
        "nn.conv1x1.gflops",
        6.0 * total("conv1x1", &Op::macs) * batch / nn_s("conv1x1") / 1e9,
    );
    // Five passes over the activation per forward+backward (read x, write
    // y; read g and x, write dx), four bytes each.
    let act_bytes = |kind: &str| 20.0 * total(kind, &|op| op.in_elems() as u64);
    put(
        "nn.batchnorm.gbps",
        act_bytes("batchnorm") * batch / nn_s("batchnorm") / 1e9,
    );
    put(
        "nn.swish.gbps",
        act_bytes("swish") * batch / nn_s("swish") / 1e9,
    );

    // ets-efficientnet
    let whole = model.fwd_s + model.bwd_s;
    put("efficientnet.fwd_ms", model.fwd_s * ms);
    put("efficientnet.bwd_ms", model.bwd_s * ms);
    put("efficientnet.eval_fwd_ms", model.eval_fwd_s * ms);
    put("efficientnet.stem_ms", model.stem_s * ms);
    const STAGES: [&str; 7] = [
        "efficientnet.stage0_ms",
        "efficientnet.stage1_ms",
        "efficientnet.stage2_ms",
        "efficientnet.stage3_ms",
        "efficientnet.stage4_ms",
        "efficientnet.stage5_ms",
        "efficientnet.stage6_ms",
    ];
    for (name, s) in STAGES.iter().zip(model.stage_s) {
        put(name, s * ms);
    }
    put("efficientnet.head_ms", model.head_s * ms);
    put(
        "efficientnet.unattributed_pct",
        100.0 * (whole - (nn.total() - nn.loss_s)) / whole,
    );
    put(
        "efficientnet.train_gflops",
        6.0 * w.macs() as f64 * batch / whole / 1e9,
    );
    put("efficientnet.params", w.params() as f64);
    put("efficientnet.macs_per_sample", w.macs() as f64);

    // ets-optim: weights and gradients are read, weights and each state
    // slot are read and written.
    let param_bytes = 4.0 * w.params() as f64;
    put("optim.step_ms", optim.step_s * ms);
    put(
        "optim.gbps",
        (3.0 * param_bytes + 2.0 * optim.state_bytes as f64) / optim.step_s / 1e9,
    );
    put("optim.state_bytes", optim.state_bytes as f64);

    // ets-data
    put("data.batch_ms", data_s * ms);
    put("data.samples_per_s", batch / data_s);

    // ets-collective
    put("collective.allreduce_grad_ms", coll.grad_s * ms);
    put(
        "collective.allreduce_grad_gbps",
        if coll.grad_s > 0.0 {
            4.0 * coll.grad_elems as f64 / coll.grad_s / 1e9
        } else {
            0.0
        },
    );
    put("collective.allreduce_bucket_us", coll.bucket_s * 1e6);
    put("collective.bn_sync_us", coll.bn_sync_s * 1e6);
    put("collective.allgather_fp_us", coll.allgather_s * 1e6);
    put("collective.barrier_us", coll.barrier_s * 1e6);
    put("collective.backend_spread_pct", coll.backend_spread_pct);
    put("collective.calls_per_step", coll.calls_per_step as f64);
    put("collective.bytes_per_step", coll.bytes_per_step as f64);

    // ets-train
    let per_round = |f: &dyn Fn(&TrainReport) -> f64| -> f64 {
        if train.reports.is_empty() {
            return f64::NAN;
        }
        p25(&train.reports.iter().map(f).collect::<Vec<_>>())
    };
    let per_step = |f: &dyn Fn(&TrainReport) -> f64| {
        per_round(&|r: &TrainReport| f(r) / r.phases.steps.max(1) as f64 * ms)
    };
    put("train.phase.data_ms", per_step(&|r| r.phases.data));
    put("train.phase.forward_ms", per_step(&|r| r.phases.forward));
    put("train.phase.backward_ms", per_step(&|r| r.phases.backward));
    put(
        "train.phase.allreduce_ms",
        per_step(&|r| r.phases.all_reduce),
    );
    put(
        "train.phase.optimizer_ms",
        per_step(&|r| r.phases.optimizer),
    );
    let unaccounted: Vec<f64> = train
        .reports
        .iter()
        .zip(&train.round_s)
        .map(|(r, wall)| 100.0 * (1.0 - r.phases.total() / wall))
        .collect();
    put(
        "train.unaccounted_pct",
        if unaccounted.is_empty() {
            f64::NAN
        } else {
            p25(&unaccounted)
        },
    );
    put(
        "train.fixed_ms",
        if train.fixed_s.is_empty() {
            f64::NAN
        } else {
            p25(&train.fixed_s) * ms
        },
    );
    put(
        "train.overlap_pct",
        per_round(&|r| r.all_reduce_buckets.overlap_pct()),
    );
    put(
        "train.buckets_per_step",
        per_round(&|r| r.all_reduce_buckets.num_buckets() as f64),
    );
    put("train.ckpt.save_ms", ckpt.save_s * ms);
    put("train.ckpt.load_ms", ckpt.load_s * ms);
    put("train.ckpt.bytes", ckpt.bytes as f64);
    put(
        "train.eval_top1",
        per_round(&|r| {
            r.history
                .last()
                .and_then(|h| h.eval_top1)
                .unwrap_or(f64::NAN)
        }),
    );
    let rc = train
        .reports
        .first()
        .map(|r| r.fault_recovery)
        .unwrap_or_default();
    put("train.recovery.retries", rc.collective_retries as f64);
    put("train.recovery.replayed_steps", rc.replayed_steps as f64);
    put(
        "train.recovery.corruptions_corrected",
        rc.corruptions_corrected as f64,
    );
    put("train.recovery.resizes", rc.resizes as f64);
    put(
        "train.recovery.durable_checkpoints",
        rc.durable_checkpoints as f64,
    );
    put("train.recovery.virtual_s", rc.total_fault_virtual_s());

    // ets-obs
    // Each traced round against the untraced round run next to it, so
    // host drift cancels pair by pair; the median pair is reported.
    let ratios: Vec<f64> = train
        .traced_s
        .iter()
        .zip(&train.round_s)
        .map(|(t, u)| t / u)
        .collect();
    put(
        "obs.trace_overhead_pct",
        if ratios.is_empty() {
            f64::NAN
        } else {
            100.0 * (Summary::of(&ratios).median - 1.0)
        },
    );
    put("obs.events_per_step", train.events_per_step);
    put("obs.reallocs", train.obs_reallocs as f64);

    // ets-tpu-sim
    put("sim.chaos.overhead_factor", sim.overhead_factor);
    put("sim.chaos.host_us", sim.host_s * 1e6);
    put("sim.table1.allreduce_err_pp", sim.table1_err_pp);
    put("sim.headline_err_pct", sim.headline_err_pct);

    // host context
    put("host.steal_share", steal.share());
    put("host.nproc", host::nproc() as f64);
    out
}

/// The `--trace 1` run: measure, report every per-layer metric, write and
/// validate the trace file.
pub fn run_traced(args: &Args) -> (Metrics, u64, u64) {
    let mut m = Metrics::new(&PER_LAYER);
    let mut spans = SpanBuf::new(args.workload);
    let mut ops = Ops::new(args.workload, args.seed);
    let t0 = Instant::now();
    let values = measure(args, &mut spans, &mut ops);
    println!(
        "# {} seed {} traced: {:.1} s, {} spans",
        args.workload,
        args.seed,
        t0.elapsed().as_secs_f64(),
        spans.len()
    );
    for (name, v) in values {
        m.emit(name, v, if EXACT.contains(&name) { "exact" } else { "" });
    }

    if spans.dropped() > 0 {
        m.fail(&format!("span buffer overflowed by {}", spans.dropped()));
    }
    let dir = args
        .trace_dir
        .clone()
        .unwrap_or_else(|| crate::work_dir().join("trace"));
    let path = dir.join(format!("{}.trace.json", args.workload));
    let json = spans.chrome_json();
    match ets_obs::validate_chrome_trace(&json) {
        Ok(stats) => println!(
            "# trace: {} events on {} tracks validate",
            stats.events, stats.tracks
        ),
        Err(e) => m.fail(&format!("trace does not validate: {e}")),
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        // Only a directory the caller named outlives the run.
        Ok(()) if args.trace_dir.is_some() => println!("# trace written to {}", path.display()),
        Ok(()) => {}
        Err(e) => m.fail(&format!("cannot write {}: {e}", path.display())),
    }
    (m, ops.attempted, ops.failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &'static str) -> Args {
        Args {
            workload,
            seed: 42,
            seconds: 3.0,
            trace: true,
            trace_dir: None,
            quick: true,
        }
    }

    /// Two in-process traced runs: every table name is reported exactly
    /// once (`Metrics` panics otherwise) and the exact metrics agree.
    #[test]
    fn exact_metrics_repeat_and_names_match_the_table() {
        let _guard = crate::ENGINE_LOCK.lock().unwrap();
        let args = quick("wide_lars_2x");
        let run = || {
            let mut spans = SpanBuf::new(args.workload);
            let mut ops = Ops::new(args.workload, args.seed);
            let values = measure(&args, &mut spans, &mut ops);
            assert_eq!(ops.failed, 0);
            ets_obs::validate_chrome_trace(&spans.chrome_json()).expect("trace validates");
            values
        };
        let (a, b) = (run(), run());
        let names: Vec<&str> = a.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table, "emitted names and BENCHMARK.json's differ");
        for ((name, va), (_, vb)) in a.iter().zip(&b) {
            assert!(va.is_finite(), "{name} = {va}");
            if EXACT.contains(name) {
                assert_eq!(va, vb, "{name} is marked exact");
            }
        }
    }
}
