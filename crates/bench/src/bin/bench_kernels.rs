//! Kernel GFLOP/s harness: writes `BENCH_kernels.json` — naive vs
//! blocked vs dispatched vs bf16-packed vs fused-im2col throughput
//! across EfficientNet-B0 layer shapes, plus the panel-pack throughput
//! probe (f32 vs bf16) and the steady-state step probe (wall time per
//! step, scratch arena allocator hits, per-precision dispatch
//! split).
//!
//! The document is schema-validated in-process before writing, and
//! `--check-regression` turns the CI gates (blocked ≥ naive at the
//! calibration shape; dispatched ≥ naive at every shape; bf16 pack ≥
//! f32 pack; steady-state `scratch_reallocs_delta == 0`; parallel GEMM
//! bitwise-equal + zero per-worker reallocs, and ≥ 1.6× sequential on
//! multi-core hosts) into a non-zero exit.
//!
//! `ETS_GEMM_WORKERS=<n>` pins the worker-pool width the *row*
//! measurements run under (CI sweeps {1, 4}); the parallel probe always
//! compares 1 worker against its own fixed width regardless.
//! `ETS_SIMD={auto,avx2,sse2,scalar}` pins the micro-kernel lane path
//! the rows dispatch through (CI sweeps {scalar, auto}); the SIMD probe
//! always measures every lane the host supports, forced in turn, and
//! the gate fails if any lane breaks bitwise parity with scalar or the
//! active lane falls below scalar throughput.
//!
//! ```sh
//! cargo run --release -p ets-bench --bin bench_kernels [-- --out <dir>] [--smoke] [--check-regression]
//! ```

use ets_bench::kernels::{
    abft_probe, check_committed_artifact, check_kernel_regression, kernel_rows, kernels_json,
    pack_probe, parallel_probe, simd_probe, steady_state_probe, validate_kernels_json,
};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_dir = PathBuf::from(".");
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_dir = PathBuf::from(args.get(i + 1).expect("--out requires a directory"));
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check-regression");

    // `--check-committed <path>`: gate the *committed* artifact's recorded
    // numbers (strict — no noise allowance) without re-measuring anything.
    if let Some(i) = args.iter().position(|a| a == "--check-committed") {
        let path = args.get(i + 1).expect("--check-committed requires a path");
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read committed artifact {path}: {e}"));
        match check_committed_artifact(&doc) {
            Ok(()) => {
                println!("committed artifact gate: ok ({path})");
                return;
            }
            Err(e) => {
                eprintln!("committed artifact gate failed ({path}): {e}");
                std::process::exit(1);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    println!(
        "gemm worker pool: {} (ETS_GEMM_WORKERS pins it)",
        ets_tensor::gemm_workers()
    );

    let rows = kernel_rows(smoke);
    let ss = steady_state_probe(smoke);
    let pack = pack_probe(smoke);
    let par = parallel_probe(smoke);
    let abft = abft_probe(smoke);
    let sp = simd_probe(smoke);
    let doc = kernels_json(&rows, &ss, &pack, &par, &abft, &sp, smoke);
    validate_kernels_json(&doc).expect("BENCH_kernels.json failed schema validation");

    let path = out_dir.join("BENCH_kernels.json");
    std::fs::write(&path, &doc).expect("write BENCH_kernels.json");

    for r in &rows {
        let fused = r
            .fused_gflops
            .map(|f| format!("{f:8.2}"))
            .unwrap_or_else(|| "       -".into());
        let bf16_fused = r
            .bf16_fused_gflops
            .map(|f| format!("{f:8.2}"))
            .unwrap_or_else(|| "       -".into());
        println!(
            "{:<32} {:>4}x{:>5}x{:>5}  naive {:8.2}  blocked {:8.2}  auto {:8.2}  bf16 {:8.2}  fused {}  bf16-fused {}  ({:4.2}x)",
            r.label,
            r.m,
            r.k,
            r.n,
            r.naive_gflops,
            r.blocked_gflops,
            r.auto_gflops,
            r.bf16_blocked_gflops,
            fused,
            bf16_fused,
            r.speedup_auto()
        );
    }
    println!(
        "pack @ {}x{}: f32 {:.1} Melem/s, bf16 {:.1} Melem/s ({:.2}x)",
        pack.m,
        pack.k,
        pack.f32_melems_per_s,
        pack.bf16_melems_per_s,
        pack.bf16_melems_per_s / pack.f32_melems_per_s.max(1e-9)
    );
    println!(
        "steady state: {:.3} ms/step over {} steps ({} warmup), scratch reallocs {}, dispatch blocked/naive f32 {}/{} bf16 {}/{}",
        ss.step_ms, ss.steps, ss.warmup_steps, ss.scratch_reallocs_delta,
        ss.dispatch_blocked, ss.dispatch_naive, ss.dispatch_blocked_bf16, ss.dispatch_naive_bf16
    );
    println!(
        "parallel @ calibration: seq {:.2} GFLOP/s, {} workers {:.2} GFLOP/s ({:.2}x), \
         bitwise_equal {}, host cores {}, speedup gate {}",
        par.seq_gflops,
        par.workers,
        par.par_gflops,
        par.speedup(),
        par.bitwise_equal,
        par.host_cores,
        par.gate()
    );
    println!(
        "abft verify @ calibration: plain {:.2} GFLOP/s, verified {:.2} GFLOP/s ({:.1}% of plain), \
         {} tiles checked, bitwise_equal {}, false positives {}",
        abft.plain_gflops,
        abft.verify_gflops,
        abft.relative_throughput() * 100.0,
        abft.tiles_verified,
        abft.bitwise_equal,
        abft.false_positives
    );
    for lane in &sp.lanes {
        println!(
            "simd lane {:<6} @ calibration: f32 {:.2} GFLOP/s, bf16 {:.2} GFLOP/s, \
             bitwise_equal_scalar {}{}",
            lane.path,
            lane.f32_gflops,
            lane.bf16_gflops,
            lane.bitwise_equal_scalar,
            if lane.path == sp.active {
                "  (active)"
            } else {
                ""
            }
        );
    }
    println!("wrote {} ({} B)", path.display(), doc.len());

    if check {
        if let Err(e) = check_kernel_regression(&rows, &ss, &pack, &par, &abft, &sp, smoke) {
            eprintln!("kernel regression gate failed: {e}");
            std::process::exit(1);
        }
        println!("regression gate: ok");
        // The fresh-measurement gates above tolerate timing noise; the
        // committed artifact's *recorded* numbers get no such allowance.
        // This is the check whose absence let a bf16-pack regression ship.
        let committed = PathBuf::from("BENCH_kernels.json");
        if committed.exists() {
            let doc = std::fs::read_to_string(&committed).expect("read committed artifact");
            if let Err(e) = check_committed_artifact(&doc) {
                eprintln!("committed artifact gate failed: {e}");
                std::process::exit(1);
            }
            println!("committed artifact gate: ok");
        }
    }
}
