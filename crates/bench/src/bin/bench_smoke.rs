//! The bench smoke path: runs a small traced, faulted 2×2-world training
//! run plus the calibrated Table-1 operating points, and writes the
//! observability artifacts CI uploads:
//!
//! - `BENCH_step_time.json` — per-variant step time / all-reduce share /
//!   throughput (`{"schema": "bench_step_time_v2", "runs": [...]}` of
//!   Table-1-style summaries), the per-backend 1024/2048/4096-core
//!   scaling rows, and the measured proxy row,
//! - `BENCH_trace.json` — Chrome trace-event JSON of the faulted run (one
//!   pid per rank; loads in `chrome://tracing` / Perfetto).
//!
//! The trace is validated against the trace-event schema (well-formed
//! events, monotone timestamps per `(pid, tid)` track) *before* writing;
//! an invalid trace is a panic, not an artifact.
//!
//! ```sh
//! cargo run -p ets-bench --bin bench_smoke [-- --out <dir>]
//! ```

use ets_bench::run_smoke;
use std::path::PathBuf;

fn main() {
    let mut out_dir = PathBuf::from(".");
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_dir = PathBuf::from(args.get(i + 1).expect("--out requires a directory"));
    }
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let art = run_smoke();

    let step_time = out_dir.join("BENCH_step_time.json");
    std::fs::write(&step_time, &art.step_time_json).expect("write BENCH_step_time.json");
    let trace = out_dir.join("BENCH_trace.json");
    std::fs::write(&trace, &art.trace_json).expect("write BENCH_trace.json");

    println!(
        "bench smoke: {} steps, {} preemption(s), {} transient failure(s)",
        art.report.steps,
        art.report.fault_recovery.preemptions,
        art.report.fault_recovery.transient_failures,
    );
    println!(
        "wrote {} ({} B), {} ({} B)",
        step_time.display(),
        art.step_time_json.len(),
        trace.display(),
        art.trace_json.len(),
    );
}
