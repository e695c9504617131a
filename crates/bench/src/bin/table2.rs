//! Regenerates **Table 2**: peak top-1 accuracy per (model, cores, batch,
//! optimizer, schedule) configuration.
//!
//! Two modes:
//! - default: the calibrated convergence model prints every Table 2 row —
//!   simulated vs paper.
//! - `--proxy`: *real training* on the proxy task through the distributed
//!   engine, sweeping batch size for RMSProp vs LARS to demonstrate the
//!   table's qualitative claim (RMSProp degrades past a batch threshold;
//!   LARS holds). Slower (~minutes).
//!
//! ```sh
//! cargo run --release -p ets-bench --bin table2 [-- --proxy] [-- --json]
//! ```

use ets_bench::{table2_json, table2_proxy_json, table2_rows, Table2ProxyRow};
use ets_tpu_sim::TABLE2;
use ets_train::{proxy_of, train, DecayChoice, Experiment, OptimizerChoice};

fn proxy_run(optimizer: OptimizerChoice, decay: DecayChoice, lr_per_256: f32, batch: usize) -> f64 {
    let mut exp = Experiment::proxy_default();
    exp.replicas = 4;
    exp.per_replica_batch = batch / exp.replicas;
    exp.optimizer = optimizer;
    exp.decay = decay;
    exp.lr_per_256 = lr_per_256;
    exp.epochs = 16;
    exp.warmup_epochs = 4;
    exp.train_samples = 1024;
    exp.eval_samples = 256;
    // Hard enough that the ~90-100% band leaves headroom to lose: this is
    // where the fixed-epoch-budget generalization gap shows at proxy scale.
    exp.data_noise = 1.0;
    train(&exp).peak_top1
}

fn proxy() -> Vec<Table2ProxyRow> {
    let mut rows = Vec::new();
    for &batch in &[32usize, 64, 128, 256] {
        rows.push(Table2ProxyRow {
            global_batch: batch,
            optimizer: "RmsProp".into(),
            peak_top1: proxy_run(
                OptimizerChoice::RmsProp,
                DecayChoice::Exponential {
                    rate: 0.97,
                    epochs: 2.4,
                },
                0.05,
                batch,
            ),
        });
        rows.push(Table2ProxyRow {
            global_batch: batch,
            optimizer: "Lars".into(),
            peak_top1: proxy_run(
                OptimizerChoice::Lars { trust_coeff: 0.05 },
                DecayChoice::Polynomial { power: 2.0 },
                1.0,
                batch,
            ),
        });
    }
    rows
}

/// Row-by-row structural mapping of Table 2 onto the proxy task: each of
/// the paper's 11 configurations becomes a proxy experiment preserving its
/// batch-to-dataset ratio, warmup fraction, and optimizer/decay family.
fn recipe_rows() {
    let mut base = Experiment::proxy_default();
    base.replicas = 4;
    base.epochs = 16;
    base.train_samples = 2048;
    base.eval_samples = 256;
    base.data_noise = 1.0;
    println!("Table 2 rows mapped structurally onto the proxy task\n");
    println!(
        "{:<16} {:>7}  {:<8} {:>11} {:>12} {:>11}",
        "paper row", "batch", "opt", "proxy batch", "proxy top-1", "paper top-1"
    );
    for row in &TABLE2 {
        let e = proxy_of(row, &base);
        let r = train(&e);
        println!(
            "{:<16} {:>7}  {:<8} {:>11} {:>11.1}% {:>11.3}",
            row.variant.name().trim_start_matches("EfficientNet-"),
            row.global_batch,
            format!("{:?}", row.optimizer),
            e.global_batch(),
            100.0 * r.peak_top1,
            row.peak_top1,
        );
    }
    println!("\nRead columns qualitatively: the proxy reproduces the *ordering*");
    println!("(all paper rows are configurations that work — and all their");
    println!("proxy images also train to high accuracy).");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--recipe") {
        recipe_rows();
        return;
    }
    if args.iter().any(|a| a == "--proxy") {
        let rows = proxy();
        if json {
            println!("{}", table2_proxy_json(&rows));
            return;
        }
        println!("Table 2 (proxy counterpart): real distributed training on the");
        println!("proxy task, fixed epoch budget, LR linearly scaled\n");
        println!(
            "{:>12}  {:<8}  {:>10}",
            "global batch", "optimizer", "peak top-1"
        );
        for r in &rows {
            println!(
                "{:>12}  {:<8}  {:>9.1}%",
                r.global_batch,
                r.optimizer,
                100.0 * r.peak_top1
            );
        }
        println!("\nExpected shape: RMSProp degrades as batch grows; LARS holds.");
        return;
    }

    let rows = table2_rows();
    if json {
        println!("{}", table2_json(&rows));
        return;
    }
    println!("Table 2: peak top-1 accuracies (convergence model vs paper)\n");
    println!(
        "{:<16} {:>6} {:>7}  {:<8} {:>8} {:>7}   {:>9} | {:>6}",
        "Model", "cores", "batch", "opt", "lr/256", "warmup", "simulated", "paper"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>7}  {:<8} {:>8.3} {:>6}e   {:>9.3} | {:>6.3}",
            r.model,
            r.cores,
            r.global_batch,
            r.optimizer,
            r.lr_per_256,
            r.warmup_epochs,
            r.simulated_top1,
            r.paper_top1,
        );
    }
    println!("\nRun with --proxy for the real-training counterpart at proxy scale.");
}
