//! Regenerates **Table 1**: throughput (images/ms) and percent of step
//! time spent in all-reduce, for EfficientNet-B2 and B5 at 128→1024 cores.
//!
//! ```sh
//! cargo run -p ets-bench --bin table1 [-- --json]
//! ```
//!
//! `--json` emits through `ets_obs::JsonWriter`; `tests/smoke.rs` parses
//! the same rows back.
//! `--real` runs the measured counterpart on the threaded trainer,
//! collapsing each run into a Table-1-style [`ets_obs::RunSummary`].

use ets_bench::{table1_json, table1_rows};
use ets_obs::summaries_to_json;
use ets_train::{train, Experiment};

/// The real-engine counterpart: measure throughput and all-reduce share on
/// the threaded trainer as replica count scales (per-replica batch fixed),
/// mirroring Table 1's protocol at laptop scale. Each run collapses into a
/// `RunSummary`; `--json` prints them as `{"runs": [...]}`.
fn real_engine_table(json: bool) {
    let mut runs = Vec::new();
    for &replicas in &[1usize, 2, 4, 8] {
        let mut exp = Experiment::proxy_default();
        exp.replicas = replicas;
        exp.per_replica_batch = 8;
        exp.epochs = 2;
        exp.train_samples = 512;
        exp.eval_samples = 32;
        exp.eval_every = 2;
        let report = train(&exp);
        runs.push(report.run_summary(
            &format!("proxy @ {replicas} replicas"),
            replicas as u64,
            exp.global_batch() as u64,
        ));
    }
    if json {
        println!("{}", summaries_to_json(&runs));
        return;
    }
    println!("Table 1 (real engine counterpart): threaded replicas, per-replica batch 8\n");
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>8}",
        "replicas", "batch", "img/s", "step ms", "AR %"
    );
    for s in &runs {
        println!(
            "{:>8} {:>7} {:>12.0} {:>12.2} {:>8.2}",
            s.cores, s.global_batch, s.images_per_sec, s.step_ms, s.all_reduce_pct,
        );
    }
    println!("\nCaveats vs the paper's hardware: replicas share one CPU's cores,");
    println!("so per-replica compute slows as replicas grow — look at the");
    println!("all-reduce share staying small, not at absolute scaling.");
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    if std::env::args().any(|a| a == "--real") {
        real_engine_table(json);
        return;
    }
    let rows = table1_rows();

    if json {
        println!("{}", table1_json(&rows));
        return;
    }

    println!("Table 1: communication costs and throughput as global batch scales");
    println!("(simulated | paper)\n");
    println!(
        "{:<16} {:>6} {:>7}   {:>9} | {:>9}   {:>6} | {:>6}",
        "Model", "cores", "batch", "img/ms", "paper", "AR %", "paper"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>7}   {:>9.2} | {:>9.2}   {:>6.2} | {:>6.2}",
            r.model,
            r.cores,
            r.global_batch,
            r.throughput_img_per_ms,
            r.paper_throughput,
            r.allreduce_pct,
            r.paper_allreduce_pct,
        );
    }
    println!("\nShape checks: throughput doubles with cores; all-reduce stays a");
    println!("small, roughly-constant share; B5's share sits well below B2's.");
}
