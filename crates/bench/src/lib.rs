//! Shared scaffolding for the table/figure harness binaries.
//!
//! Each binary regenerates one artifact of the paper (see DESIGN.md's
//! experiment index). The row builders and JSON emitters live here so the
//! bins, the bench smoke tests, and CI's artifact job all exercise the
//! *same* code path: a bin that prints unparseable JSON is now a test
//! failure, not a silent gap in the perf trajectory.
//!
//! All machine-readable output goes through [`ets_obs::JsonWriter`], the
//! workspace's one JSON writer, and the smoke tests read it back with
//! [`ets_obs::parse_json`].

use ets_collective::Backend;
use ets_efficientnet::Variant;
use ets_obs::{
    summaries_to_json, validate_chrome_trace, JsonWriter, OverheadDecomposition, Recorder,
    RunSummary,
};
use ets_tpu_sim::{
    amdahl_serial_fraction, predict_peak_accuracy, scaling_sweep, schedule_for, step_time,
    step_time_for_backend, time_to_accuracy_for_backend, OptimizerKind, RunConfig, ScalingPoint,
    StepConfig, TABLE2,
};
use ets_train::{train_traced, Experiment, TrainReport};
use std::sync::Arc;

// ---------------------------------------------------------------- Table 1

/// Paper-reported Table 1 values for side-by-side comparison.
pub const TABLE1_PAPER: [(Variant, usize, usize, f64, f64); 8] = [
    (Variant::B2, 128, 4096, 57.57, 2.1),
    (Variant::B2, 256, 8192, 113.73, 2.6),
    (Variant::B2, 512, 16384, 227.13, 2.5),
    (Variant::B2, 1024, 32768, 451.35, 2.81),
    (Variant::B5, 128, 4096, 9.76, 0.89),
    (Variant::B5, 256, 8192, 19.48, 1.24),
    (Variant::B5, 512, 16384, 38.55, 1.24),
    (Variant::B5, 1024, 32768, 77.44, 1.03),
];

/// One Table 1 row: the calibrated simulator's numbers next to the paper's.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub model: String,
    pub cores: usize,
    pub global_batch: usize,
    pub throughput_img_per_ms: f64,
    pub allreduce_pct: f64,
    pub step_ms: f64,
    pub paper_throughput: f64,
    pub paper_allreduce_pct: f64,
}

/// Rebuild Table 1 from the calibrated step-time model.
pub fn table1_rows() -> Vec<Table1Row> {
    TABLE1_PAPER
        .iter()
        .map(|&(v, cores, gbs, p_thr, p_ar)| {
            let st = step_time(&StepConfig::new(v, cores, gbs));
            Table1Row {
                model: v.name().to_string(),
                cores,
                global_batch: gbs,
                throughput_img_per_ms: st.throughput_img_per_ms(gbs),
                allreduce_pct: 100.0 * st.all_reduce_share(),
                step_ms: 1e3 * st.total(),
                paper_throughput: p_thr,
                paper_allreduce_pct: p_ar,
            }
        })
        .collect()
}

/// Table 1 rows as a JSON array.
pub fn table1_json(rows: &[Table1Row]) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_array();
    for r in rows {
        w.begin_object()
            .field_str("model", &r.model)
            .field_u64("cores", r.cores as u64)
            .field_u64("global_batch", r.global_batch as u64)
            .field_f64("throughput_img_per_ms", r.throughput_img_per_ms)
            .field_f64("allreduce_pct", r.allreduce_pct)
            .field_f64("step_ms", r.step_ms)
            .field_f64("paper_throughput", r.paper_throughput)
            .field_f64("paper_allreduce_pct", r.paper_allreduce_pct)
            .end_object();
    }
    w.end_array();
    w.finish()
}

// ---------------------------------------------------------------- Table 2

/// One Table 2 row: the convergence model's peak top-1 next to the paper's.
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub model: String,
    pub cores: usize,
    pub global_batch: usize,
    pub optimizer: String,
    pub lr_per_256: f32,
    pub warmup_epochs: u64,
    pub simulated_top1: f64,
    pub paper_top1: f64,
}

/// Rebuild Table 2 from the calibrated convergence model.
pub fn table2_rows() -> Vec<Table2Row> {
    TABLE2
        .iter()
        .map(|r| Table2Row {
            model: r.variant.name().to_string(),
            cores: r.cores,
            global_batch: r.global_batch,
            optimizer: format!("{:?}", r.optimizer),
            lr_per_256: r.lr_per_256,
            warmup_epochs: r.warmup_epochs,
            simulated_top1: predict_peak_accuracy(r.variant, r.optimizer, r.global_batch),
            paper_top1: r.peak_top1,
        })
        .collect()
}

/// Table 2 rows as a JSON array.
pub fn table2_json(rows: &[Table2Row]) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_array();
    for r in rows {
        w.begin_object()
            .field_str("model", &r.model)
            .field_u64("cores", r.cores as u64)
            .field_u64("global_batch", r.global_batch as u64)
            .field_str("optimizer", &r.optimizer)
            .field_f64("lr_per_256", r.lr_per_256 as f64)
            .field_u64("warmup_epochs", r.warmup_epochs)
            .field_f64("simulated_top1", r.simulated_top1)
            .field_f64("paper_top1", r.paper_top1)
            .end_object();
    }
    w.end_array();
    w.finish()
}

/// One row of Table 2's real-training counterpart (`table2 --proxy`).
#[derive(Clone, Debug)]
pub struct Table2ProxyRow {
    pub global_batch: usize,
    pub optimizer: String,
    pub peak_top1: f64,
}

/// Proxy rows as a JSON array.
pub fn table2_proxy_json(rows: &[Table2ProxyRow]) -> String {
    let mut w = JsonWriter::with_capacity(1024);
    w.begin_array();
    for r in rows {
        w.begin_object()
            .field_u64("global_batch", r.global_batch as u64)
            .field_str("optimizer", &r.optimizer)
            .field_f64("peak_top1", r.peak_top1)
            .end_object();
    }
    w.end_array();
    w.finish()
}

// --------------------------------------------------------------- Figure 1

/// One Figure 1 point: time to peak accuracy at an operating point. The
/// gradient exchange is priced under `Backend::Auto`, and `backend`
/// records the concrete transport the α–β cost models resolve to at this
/// world size (the one the executed dispatch would route over) — so the
/// committed figure names the grid all-reduce it actually charges.
#[derive(Clone, Debug)]
pub struct Figure1Point {
    pub model: String,
    pub cores: usize,
    pub global_batch: usize,
    pub optimizer: String,
    pub backend: String,
    pub minutes_to_peak: f64,
    pub peak_top1: f64,
}

fn figure1_point(v: Variant, cores: usize, gbs: usize, opt: OptimizerKind) -> Figure1Point {
    let out = time_to_accuracy_for_backend(&RunConfig::paper(v, cores, gbs, opt), Backend::Auto);
    let picked = schedule_for(&StepConfig::new(v, cores, gbs), Backend::Auto).backend();
    Figure1Point {
        model: v.name().to_string(),
        cores,
        global_batch: gbs,
        optimizer: format!("{opt:?}"),
        backend: picked.name().to_string(),
        minutes_to_peak: out.minutes_to_peak(),
        peak_top1: out.peak_top1,
    }
}

/// Rebuild Figure 1's series for one variant (incl. the batch-65536
/// headline run for B5).
pub fn figure1_series(v: Variant) -> Vec<Figure1Point> {
    let mut pts = Vec::new();
    for &cores in &[128usize, 256, 512, 1024] {
        let gbs = cores * 32;
        // The paper's Figure 1 runs use the best recipe per scale: RMSProp
        // where it still holds (≤16384), LARS beyond.
        let opt = if gbs > 16384 {
            OptimizerKind::Lars
        } else {
            OptimizerKind::RmsProp
        };
        pts.push(figure1_point(v, cores, gbs, opt));
    }
    if v == Variant::B5 {
        pts.push(figure1_point(v, 1024, 65536, OptimizerKind::Lars));
    }
    pts
}

/// All Figure 1 points (B2 then B5).
pub fn figure1_points() -> Vec<Figure1Point> {
    [Variant::B2, Variant::B5]
        .iter()
        .flat_map(|&v| figure1_series(v))
        .collect()
}

/// Figure 1 points as a JSON array.
pub fn figure1_json(points: &[Figure1Point]) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_array();
    for p in points {
        w.begin_object()
            .field_str("model", &p.model)
            .field_u64("cores", p.cores as u64)
            .field_u64("global_batch", p.global_batch as u64)
            .field_str("optimizer", &p.optimizer)
            .field_str("backend", &p.backend)
            .field_f64("minutes_to_peak", p.minutes_to_peak)
            .field_f64("peak_top1", p.peak_top1)
            .end_object();
    }
    w.end_array();
    w.finish()
}

// ---------------------------------------------------------------- Scaling

/// The scaling sweep for both variants, with the Amdahl fit per variant.
pub fn scaling_tables(slices: &[usize]) -> Vec<(Variant, Vec<ScalingPoint>, f64)> {
    [Variant::B2, Variant::B5]
        .iter()
        .map(|&v| {
            let pts = scaling_sweep(v, slices);
            let serial = amdahl_serial_fraction(&pts);
            (v, pts, serial)
        })
        .collect()
}

/// Scaling sweep as `{"B2": {"points": [...], "amdahl_serial_fraction": f},
/// "B5": ...}`.
pub fn scaling_json(tables: &[(Variant, Vec<ScalingPoint>, f64)]) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    for (v, pts, serial) in tables {
        w.key(v.name()).begin_object().key("points").begin_array();
        for p in pts {
            w.begin_object()
                .field_u64("cores", p.cores as u64)
                .field_u64("global_batch", p.global_batch as u64)
                .field_f64("parallel_efficiency", p.parallel_efficiency)
                .field_f64("compute_share", p.compute_share)
                .field_f64("all_reduce_share", p.all_reduce_share)
                .field_f64("end_to_end_speedup", p.end_to_end_speedup)
                .end_object();
        }
        w.end_array()
            .field_f64("amdahl_serial_fraction", *serial)
            .end_object();
    }
    w.end_object();
    w.finish()
}

// ------------------------------------------------- BENCH_step_time smoke

/// ImageNet training-set size — fixes the step count of a paper run.
pub const IMAGENET_TRAIN_IMAGES: u64 = 1_281_167;
/// Epoch budget of the paper's recipe (350 epochs to peak).
pub const PAPER_EPOCHS: u64 = 350;

/// Steps in a full 350-epoch ImageNet run at a given global batch.
pub fn paper_run_steps(global_batch: u64) -> u64 {
    PAPER_EPOCHS * IMAGENET_TRAIN_IMAGES.div_ceil(global_batch)
}

fn analytic_summary(
    label: String,
    backend: &str,
    st: &ets_tpu_sim::StepTime,
    cores: usize,
    gbs: usize,
) -> RunSummary {
    RunSummary {
        label,
        backend: backend.to_string(),
        cores: cores as u64,
        global_batch: gbs as u64,
        steps: paper_run_steps(gbs as u64),
        step_ms: 1e3 * st.total(),
        all_reduce_pct: 100.0 * st.all_reduce_share(),
        overlap_pct: st.overlap_pct(),
        bn_sync_pct: 100.0 * st.bn_sync / st.total(),
        images_per_sec: st.throughput_img_per_ms(gbs) * 1e3,
        total_virtual_s: st.total(),
        corruptions_detected: 0,
        corruptions_corrected: 0,
        rank_quarantines: 0,
        overhead: OverheadDecomposition::default(),
    }
}

/// One [`RunSummary`] per Table 1 operating point, from the calibrated
/// step-time model. `steps` is the full 350-epoch run's step count;
/// `total_virtual_s` is one steady-state step. The analytic rows carry the
/// backend the model prices (the 2-D torus exchange) and its overlapped
/// share of all-reduce time.
pub fn step_time_summaries() -> Vec<RunSummary> {
    TABLE1_PAPER
        .iter()
        .map(|&(v, cores, gbs, _, _)| {
            let st = step_time(&StepConfig::new(v, cores, gbs));
            analytic_summary(
                format!("{} @ {} cores", v.name(), cores),
                "torus2d",
                &st,
                cores,
                gbs,
            )
        })
        .collect()
}

// --------------------------------------------- per-backend scaling rows

/// Core counts of the per-backend scaling study (ISSUE 9): the paper's
/// 1024-core pod plus the 2048- and 4096-core extrapolations.
pub const SCALING_BACKEND_CORES: [usize; 3] = [1024, 2048, 4096];

/// Per-backend B2 scaling rows: flat ring vs 2-D torus at each core count
/// in [`SCALING_BACKEND_CORES`], per-core batch 32. Six rows, labelled
/// `"EfficientNet-B2 @ <cores> cores (<backend>)"`.
pub fn scaling_backend_rows() -> Vec<RunSummary> {
    let mut rows = Vec::new();
    for &cores in &SCALING_BACKEND_CORES {
        for backend in [Backend::Ring, Backend::Torus2d] {
            let gbs = cores * 32;
            let st = step_time_for_backend(&StepConfig::new(Variant::B2, cores, gbs), backend);
            rows.push(analytic_summary(
                format!("EfficientNet-B2 @ {cores} cores ({})", backend.name()),
                backend.name(),
                &st,
                cores,
                gbs,
            ));
        }
    }
    rows
}

/// CI gate over [`scaling_backend_rows`]: the hierarchical (torus) backend's
/// all-reduce share must grow strictly slower than the flat ring's from the
/// smallest to the largest core count. Returns the two growth ratios
/// `(torus, ring)` on success.
pub fn check_scaling_regression(rows: &[RunSummary]) -> Result<(f64, f64), String> {
    let lo = *SCALING_BACKEND_CORES.first().unwrap() as u64;
    let hi = *SCALING_BACKEND_CORES.last().unwrap() as u64;
    let pct = |backend: &str, cores: u64| -> Result<f64, String> {
        rows.iter()
            .find(|r| r.backend == backend && r.cores == cores)
            .map(|r| r.all_reduce_pct)
            .ok_or_else(|| format!("missing scaling row: backend={backend} cores={cores}"))
    };
    let torus = pct("torus2d", hi)? / pct("torus2d", lo)?;
    let ring = pct("ring", hi)? / pct("ring", lo)?;
    if torus < ring {
        Ok((torus, ring))
    } else {
        Err(format!(
            "hierarchical all-reduce share must scale sublinearly vs flat ring: \
             torus2d {lo}->{hi} cores grew x{torus:.3}, ring x{ring:.3}"
        ))
    }
}

/// The smoke experiment behind `BENCH_step_time.json`'s measured row and
/// the CI Chrome-trace artifact: a 2×2 world (4 replicas) with a straggler
/// window, a transient collective failure, and a mid-run preemption — every
/// recorder lane lights up, and the run stays deterministic.
pub fn smoke_experiment() -> Experiment {
    use ets_collective::{FaultEvent, FaultKind};
    let mut e = Experiment::proxy_default();
    e.replicas = 4;
    e.per_replica_batch = 8;
    e.epochs = 2;
    e.train_samples = 128;
    e.eval_samples = 32;
    e.eval_every = 2;
    e.faults.checkpoint_every_steps = 2;
    e.faults.restart_delay_s = 3.0;
    // Exercise the overlapped exchange under faults: small buckets give
    // the tiny proxy model several buckets to overlap (one default-size
    // bucket would leave nothing to hide).
    e.overlap_all_reduce = true;
    e.grad_bucket_elems = Some(2048);
    e.faults.events = vec![
        FaultEvent {
            at_s: 1.0,
            duration_s: 2.0,
            kind: FaultKind::Straggler {
                replica: 3,
                slowdown: 2.5,
            },
        },
        FaultEvent {
            at_s: 3.5,
            duration_s: 0.0,
            kind: FaultKind::TransientCollective { failures: 1 },
        },
        FaultEvent {
            at_s: 5.0,
            duration_s: 0.0,
            kind: FaultKind::Preempt { replica: 1 },
        },
    ];
    e
}

/// Output of [`run_smoke`]: everything CI uploads as artifacts.
pub struct SmokeArtifacts {
    /// `BENCH_step_time.json` contents: per-variant simulated operating
    /// points, the per-backend scaling rows (flat ring vs 2-D torus at
    /// 1024/2048/4096 cores), and the measured proxy run —
    /// `{"schema": "bench_step_time_v2", "runs": [...]}`, already schema-
    /// validated and growth-gated.
    pub step_time_json: String,
    /// Chrome trace-event JSON of the faulted 2×2-world run (one pid per
    /// rank), already validated against the trace-event schema.
    pub trace_json: String,
    /// The traced run's report (for asserts in tests).
    pub report: TrainReport,
    /// Per-rank recorders of the traced run.
    pub recorders: Vec<Arc<Recorder>>,
}

/// The bench smoke path: build the per-variant step-time summaries, run
/// the traced faulted proxy experiment, and render all artifacts.
/// Panics if the produced trace fails schema validation — CI runs this
/// path, so an invalid trace can never become an uploaded artifact.
pub fn run_smoke() -> SmokeArtifacts {
    let exp = smoke_experiment();
    let (report, recorders) = train_traced(&exp);

    let mut runs = step_time_summaries();
    runs.extend(scaling_backend_rows());
    check_scaling_regression(&runs)
        .unwrap_or_else(|e| panic!("smoke scaling rows failed the growth gate: {e}"));
    let mut measured = report.run_summary(
        "proxy (measured) @ 2x2 world",
        exp.replicas as u64,
        exp.global_batch() as u64,
    );
    measured.backend = exp.collective_backend.name().to_string();
    runs.push(measured);
    let step_time_json = summaries_to_json(&runs);
    ets_obs::validate_step_time_json(&step_time_json)
        .unwrap_or_else(|e| panic!("smoke step-time doc failed schema validation: {e}"));

    let recs: Vec<&Recorder> = recorders.iter().map(Arc::as_ref).collect();
    let trace_json = ets_obs::chrome_trace_multi(&recs);
    let stats = validate_chrome_trace(&trace_json)
        .unwrap_or_else(|e| panic!("smoke trace failed schema validation: {e}"));
    assert_eq!(stats.pids, exp.replicas, "one pid per rank");

    SmokeArtifacts {
        step_time_json,
        trace_json,
        report,
        recorders,
    }
}
