//! Regenerates **Figure 1**: training time to peak accuracy for
//! EfficientNet-B2 and B5 across TPU-v3 slice sizes (128→1024 cores),
//! including the batch-65536 headline run.
//!
//! ```sh
//! cargo run -p ets-bench --bin figure1 [-- --json]
//! ```
//!
//! `--json` emits through `ets_obs::JsonWriter`; `tests/smoke.rs` parses
//! the same rows back.

use ets_bench::{figure1_json, figure1_points};

fn bar(minutes: f64, scale: f64) -> String {
    "█".repeat(((minutes / scale).ceil() as usize).max(1))
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let all = figure1_points();

    if json {
        println!("{}", figure1_json(&all));
        return;
    }

    println!("Figure 1: training time to peak accuracy vs TPU slice size\n");
    for p in &all {
        println!(
            "{:<16} {:>5} cores, batch {:>6} [{:<7}/{:<7}]  {:>7.1} min  {:.1}%  {}",
            p.model,
            p.cores,
            p.global_batch,
            p.optimizer,
            p.backend,
            p.minutes_to_peak,
            100.0 * p.peak_top1,
            bar(p.minutes_to_peak, 4.0),
        );
    }
    println!("\nPaper anchors: B2 @ 1024 cores ≈ 18 min to 79.7%;");
    println!("B5 @ 1024 cores / batch 65536 ≈ 64 min to 83.0%.");
}
