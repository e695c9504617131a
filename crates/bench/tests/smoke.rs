//! Smoke tests for the bench harness: the table/figure row builders must
//! run, their JSON must parse, and the smoke path's `BENCH_step_time.json`
//! must agree with the Table 1 operating points.
//!
//! These are exactly the code paths the `table1`/`figure1`/`scaling` bins
//! and CI's artifact job execute — before this suite existed, nothing
//! exercised them and the `BENCH_*` perf trajectory stayed empty.

use ets_bench::{
    check_scaling_regression, figure1_json, figure1_points, paper_run_steps, run_smoke,
    scaling_backend_rows, scaling_json, scaling_tables, step_time_summaries, table1_json,
    table1_rows, table2_json, table2_proxy_json, table2_rows, Table2ProxyRow,
    SCALING_BACKEND_CORES, TABLE1_PAPER,
};
use ets_obs::{
    parse_json, validate_chrome_trace, validate_step_time_json, Value, STEP_TIME_SCHEMA,
};
use ets_tpu_sim::TABLE2;

#[test]
fn table1_rows_emit_parseable_json_with_all_operating_points() {
    let rows = table1_rows();
    assert_eq!(rows.len(), TABLE1_PAPER.len());
    let v = parse_json(&table1_json(&rows)).expect("table1 JSON must parse");
    let arr = v.as_arr().expect("array of rows");
    assert_eq!(arr.len(), TABLE1_PAPER.len());
    for (row, (variant, cores, gbs, ..)) in arr.iter().zip(TABLE1_PAPER) {
        assert_eq!(row.get("model").unwrap().as_str().unwrap(), variant.name());
        assert_eq!(row.get("cores").unwrap().as_f64().unwrap() as usize, cores);
        assert_eq!(
            row.get("global_batch").unwrap().as_f64().unwrap() as usize,
            gbs
        );
        assert!(row.get("step_ms").unwrap().as_f64().unwrap() > 0.0);
        let ar = row.get("allreduce_pct").unwrap().as_f64().unwrap();
        assert!(
            ar > 0.0 && ar < 100.0,
            "all-reduce share {ar}% out of range"
        );
    }
}

#[test]
fn table2_rows_emit_parseable_json_with_every_paper_configuration() {
    let num = |row: &Value, k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap();
    let v = parse_json(&table2_json(&table2_rows())).expect("table2 JSON must parse");
    let arr = v.as_arr().expect("array of rows");
    assert_eq!(arr.len(), TABLE2.len());
    for (row, paper) in arr.iter().zip(&TABLE2) {
        assert_eq!(row.as_obj().unwrap().len(), 8);
        assert_eq!(
            row.get("model").unwrap().as_str(),
            Some(paper.variant.name())
        );
        assert_eq!(num(row, "global_batch") as usize, paper.global_batch);
        assert_eq!(num(row, "lr_per_256") as f32, paper.lr_per_256);
        assert_eq!(num(row, "paper_top1"), paper.peak_top1);
        assert!((num(row, "simulated_top1") - paper.peak_top1).abs() < 0.01);
    }

    // `--proxy` rows take minutes of real training to produce; their
    // writer is checked on a hand-made row.
    let proxy = [Table2ProxyRow {
        global_batch: 256,
        optimizer: "Lars".into(),
        peak_top1: 0.96875,
    }];
    let v = parse_json(&table2_proxy_json(&proxy)).expect("proxy JSON must parse");
    let row = &v.as_arr().unwrap()[0];
    assert_eq!(num(row, "global_batch"), 256.0);
    assert_eq!(row.get("optimizer").unwrap().as_str(), Some("Lars"));
    assert_eq!(num(row, "peak_top1"), 0.96875);
}

#[test]
fn figure1_points_emit_parseable_json_including_headline_run() {
    let pts = figure1_points();
    // 4 slices per variant + B5's batch-65536 headline.
    assert_eq!(pts.len(), 9);
    let v = parse_json(&figure1_json(&pts)).expect("figure1 JSON must parse");
    let arr = v.as_arr().unwrap();
    assert_eq!(arr.len(), 9);
    let headline = arr
        .iter()
        .find(|p| p.get("global_batch").unwrap().as_f64().unwrap() as usize == 65536)
        .expect("batch-65536 headline run present");
    assert!(headline.get("minutes_to_peak").unwrap().as_f64().unwrap() > 0.0);
    assert!(headline.get("peak_top1").unwrap().as_f64().unwrap() > 0.8);
    // Every point records the concrete transport Auto resolved to — the
    // committed figure must name an executable backend, never "auto".
    for p in arr {
        let backend = p.get("backend").unwrap().as_str().unwrap();
        assert!(
            ["tree", "ring", "torus2d"].contains(&backend),
            "figure1 backend {backend:?} is not a concrete transport"
        );
    }
}

#[test]
fn scaling_tables_emit_parseable_json_for_both_variants() {
    let tables = scaling_tables(&[128, 256, 512, 1024]);
    let v = parse_json(&scaling_json(&tables)).expect("scaling JSON must parse");
    for name in ["EfficientNet-B2", "EfficientNet-B5"] {
        let t = v
            .get(name)
            .unwrap_or_else(|| panic!("variant {name} missing"));
        let pts = t.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 4);
        let serial = t.get("amdahl_serial_fraction").unwrap().as_f64().unwrap();
        assert!(
            (0.0..1.0).contains(&serial),
            "serial fraction {serial} out of range"
        );
        // Parallel efficiency stays near 1 (the paper's "scales linearly").
        for p in pts {
            let eff = p.get("parallel_efficiency").unwrap().as_f64().unwrap();
            assert!(eff > 0.5 && eff <= 1.0 + 1e-9, "efficiency {eff}");
        }
    }
}

#[test]
fn step_time_summaries_match_table1_within_tolerance() {
    let rows = table1_rows();
    let runs = step_time_summaries();
    assert_eq!(runs.len(), rows.len());
    for (s, r) in runs.iter().zip(&rows) {
        assert_eq!(s.cores as usize, r.cores);
        assert_eq!(s.global_batch as usize, r.global_batch);
        assert_eq!(s.backend, "torus2d", "analytic rows price the 2-D torus");
        assert_eq!(s.steps, paper_run_steps(s.global_batch), "{}", s.label);
        assert!(
            s.overlap_pct > 0.0 && s.overlap_pct <= 100.0,
            "{}: the analytic overlap decomposition must be populated",
            s.label
        );
        assert!(
            (s.step_ms - r.step_ms).abs() < 1e-9,
            "{}: step_ms {} vs {}",
            s.label,
            s.step_ms,
            r.step_ms
        );
        assert!(
            (s.all_reduce_pct - r.allreduce_pct).abs() < 1e-9,
            "{}: AR% {} vs {}",
            s.label,
            s.all_reduce_pct,
            r.allreduce_pct
        );
        assert!(
            (s.images_per_sec - r.throughput_img_per_ms * 1e3).abs()
                < 1e-6 * s.images_per_sec.abs().max(1.0),
            "{}: im/s",
            s.label
        );
    }
}

/// The ISSUE-9 scaling study: per-backend rows at 1024/2048/4096 cores,
/// with the CI gate asserting the hierarchical backend's all-reduce share
/// grows strictly slower than the flat ring's — and that the gate actually
/// rejects the inverted ordering.
#[test]
fn scaling_backend_rows_pass_the_growth_gate_and_it_rejects_inversions() {
    let rows = scaling_backend_rows();
    assert_eq!(rows.len(), 2 * SCALING_BACKEND_CORES.len());
    for &cores in &SCALING_BACKEND_CORES {
        for backend in ["ring", "torus2d"] {
            let row = rows
                .iter()
                .find(|r| r.backend == backend && r.cores == cores as u64)
                .unwrap_or_else(|| panic!("missing row: {backend} @ {cores}"));
            assert_eq!(row.global_batch, cores as u64 * 32);
            assert_eq!(row.steps, paper_run_steps(row.global_batch));
            assert!(row.step_ms > 0.0);
            assert!(row.all_reduce_pct > 0.0 && row.all_reduce_pct < 100.0);
            assert!(
                row.label.contains(&format!("({backend})")),
                "label {:?} must name its backend",
                row.label
            );
        }
        // At equal scale the torus never exposes more all-reduce than the
        // flat ring (same bandwidth term, strictly fewer latency hops).
        let ring = rows
            .iter()
            .find(|r| r.backend == "ring" && r.cores == cores as u64)
            .unwrap();
        let torus = rows
            .iter()
            .find(|r| r.backend == "torus2d" && r.cores == cores as u64)
            .unwrap();
        assert!(
            torus.all_reduce_pct < ring.all_reduce_pct,
            "@{cores}: torus {}% !< ring {}%",
            torus.all_reduce_pct,
            ring.all_reduce_pct
        );
    }

    let (torus_growth, ring_growth) =
        check_scaling_regression(&rows).expect("healthy rows must pass the growth gate");
    assert!(torus_growth < ring_growth);

    // Swap the backend labels and the same numbers must now fail: the gate
    // compares growth ratios, not absolute shares.
    let mut inverted = rows.clone();
    for r in &mut inverted {
        r.backend = match r.backend.as_str() {
            "ring" => "torus2d".to_string(),
            _ => "ring".to_string(),
        };
    }
    assert!(
        check_scaling_regression(&inverted).is_err(),
        "gate must reject ring growing slower than torus"
    );

    // A missing row is a hard error, not a silent pass.
    let truncated: Vec<_> = rows
        .iter()
        .filter(|r| !(r.backend == "torus2d" && r.cores == 4096))
        .cloned()
        .collect();
    assert!(check_scaling_regression(&truncated)
        .unwrap_err()
        .contains("missing scaling row"));
}

#[test]
fn smoke_path_emits_valid_artifacts() {
    let art = run_smoke();

    // BENCH_step_time.json: the 8 operating points, the 6 per-backend
    // scaling rows (ring + torus2d at 1024/2048/4096 cores), and the
    // measured row, under the v2 schema tag.
    let n_runs = validate_step_time_json(&art.step_time_json).expect("BENCH_step_time.json schema");
    let v = parse_json(&art.step_time_json).expect("BENCH_step_time.json must parse");
    assert_eq!(v.get("schema").unwrap().as_str().unwrap(), STEP_TIME_SCHEMA);
    let runs = v.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), n_runs);
    assert_eq!(
        runs.len(),
        TABLE1_PAPER.len() + 2 * SCALING_BACKEND_CORES.len() + 1
    );
    let rows = table1_rows();
    for (run, row) in runs.iter().zip(&rows) {
        let step_ms = run.get("step_ms").unwrap().as_f64().unwrap();
        let ar = run.get("all_reduce_pct").unwrap().as_f64().unwrap();
        assert!(
            (step_ms - row.step_ms).abs() < 1e-9,
            "step_ms {step_ms} vs {}",
            row.step_ms
        );
        assert!((ar - row.allreduce_pct).abs() < 1e-9);
    }
    let measured = runs.last().unwrap();
    assert!(measured.get("step_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(measured.get("steps").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        measured.get("backend").unwrap().as_str().unwrap(),
        "tree",
        "measured row carries the experiment's backend"
    );
    // The measured run uses the overlapped exchange. How much bucket time
    // it hides behind backward is wall-clock luck on a shared host (two
    // vCPUs, eight threads), so `overlap_pct` is reported, not gated;
    // what repeats exactly is the mechanism: every round took the
    // overlapped path, there was more than one bucket to overlap, and
    // every bucket but a loss-only tail was handed to the communication
    // thread from inside the backward hook, before backward returned.
    let overlap_pct = measured.get("overlap_pct").unwrap().as_f64().unwrap();
    assert!(
        (0.0..=100.0).contains(&overlap_pct),
        "overlap_pct {overlap_pct}"
    );
    let buckets = &art.report.all_reduce_buckets;
    assert!(buckets.rounds > 0);
    assert_eq!(
        buckets.overlapped_rounds, buckets.rounds,
        "some rounds fell back to the serialized exchange"
    );
    assert!(
        buckets.num_buckets() > 1,
        "one bucket leaves nothing to hide"
    );
    let loss_only = (buckets.bucket_elems.last() == Some(&1)) as u64;
    assert_eq!(
        buckets.hook_shipped_buckets,
        buckets.rounds * (buckets.num_buckets() as u64 - loss_only),
        "buckets must ship from inside the backward hook"
    );
    // The faulted run's virtual overhead shows up in the decomposition.
    let overhead = measured.get("overhead").unwrap();
    assert!(overhead.get("restart_s").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        overhead.get("retry_backoff_s").unwrap().as_f64().unwrap() > 0.0,
        "transient failure must charge backoff"
    );

    // The Chrome trace validates and has one pid per rank.
    let stats = validate_chrome_trace(&art.trace_json).expect("trace must validate");
    assert_eq!(stats.pids, 4);
    assert!(stats.spans > 0 && stats.instants > 0);

    // Every rank recorded the identical virtual stream.
    let fp0 = art.recorders[0].virtual_fingerprint();
    for rec in &art.recorders[1..] {
        assert_eq!(rec.virtual_fingerprint(), fp0);
    }

    // Prometheus dump carries trainer counters for every rank.
    assert!(art.prom_text.contains("# TYPE ets_preemptions counter"));
    for rank in 0..4 {
        assert!(
            art.prom_text.contains(&format!("rank=\"{rank}\"")),
            "rank {rank} missing from prom dump"
        );
    }

    // The faulted run exercised the fault machinery it claims to trace.
    assert!(art.report.fault_recovery.preemptions >= 1);
    assert!(art.report.fault_recovery.transient_failures >= 1);
}
