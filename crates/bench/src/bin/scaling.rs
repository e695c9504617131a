//! Scaling-efficiency analysis (§4's "throughput scales up linearly"):
//! parallel efficiency, step-time decomposition, end-to-end speedups, and
//! an Amdahl serial-fraction fit for B2 and B5 — now swept past the
//! paper's 1024-core pod to 2048 and 4096 cores, with per-backend
//! (flat ring vs 2-D torus) rows and the hierarchical growth gate.
//!
//! ```sh
//! cargo run -p ets-bench --bin scaling [-- --json] [-- --check-growth]
//! ```
//!
//! `--json` emits through `ets_obs::JsonWriter`; `tests/smoke.rs` parses
//! the same rows back.
//! `--check-growth` runs CI's gate: the torus backend's all-reduce share
//! must grow strictly slower than the flat ring's from 1024 to 4096
//! cores; exits nonzero on violation.

use ets_bench::{
    check_scaling_regression, scaling_backend_rows, scaling_json, scaling_tables,
    SCALING_BACKEND_CORES,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let check_growth = args.iter().any(|a| a == "--check-growth");
    let slices = [128usize, 256, 512, 1024, 2048, 4096];
    let tables = scaling_tables(&slices);
    let backend_rows = scaling_backend_rows();

    if check_growth {
        match check_scaling_regression(&backend_rows) {
            Ok((torus, ring)) => {
                let lo = SCALING_BACKEND_CORES.first().unwrap();
                let hi = SCALING_BACKEND_CORES.last().unwrap();
                println!(
                    "growth gate OK: {lo}->{hi} cores all-reduce share grew \
                     x{torus:.3} (torus2d) vs x{ring:.3} (ring)"
                );
            }
            Err(e) => {
                eprintln!("growth gate FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if json {
        println!("{}", scaling_json(&tables));
        return;
    }
    println!("Scaling analysis (per-core batch 32)\n");
    for (v, pts, serial) in &tables {
        println!("{}", v.name());
        println!("  cores  batch   par.eff  compute%  AR%    e2e speedup");
        for p in pts {
            println!(
                "  {:>5}  {:>6}  {:>6.3}   {:>6.1}   {:>5.2}  {:>10.2}×",
                p.cores,
                p.global_batch,
                p.parallel_efficiency,
                100.0 * p.compute_share,
                100.0 * p.all_reduce_share,
                p.end_to_end_speedup,
            );
        }
        println!("  Amdahl serial fraction (fit): {serial:.4}\n");
    }
    println!("Per-backend all-reduce share, B2 (per-core batch 32)");
    println!("  cores  backend  step ms   AR%    overlap%");
    for r in &backend_rows {
        println!(
            "  {:>5}  {:<7}  {:>7.3}  {:>5.2}  {:>7.1}",
            r.cores, r.backend, r.step_ms, r.all_reduce_pct, r.overlap_pct,
        );
    }
}
