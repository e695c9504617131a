//! Elastic resizing walkthrough: permanently kill ranks mid-run and watch
//! the world shrink, resume from the durable checkpoint store, and finish
//! — then price the same failure mode on a paper-scale pod.
//!
//! ```sh
//! cargo run --release --example elastic_pod
//! ```

use efficientnet_at_scale::collective::{FaultEvent, FaultKind, FaultPlan};
use efficientnet_at_scale::efficientnet::Variant;
use efficientnet_at_scale::tpu_sim::{simulate_chaos, step_time, step_time_elastic, StepConfig};
use efficientnet_at_scale::train::{train, Experiment};

fn lose_rank(rank: usize, at_step: u64) -> FaultEvent {
    FaultEvent {
        at_s: at_step as f64, // advisory; PermanentLoss triggers by step
        duration_s: 0.0,
        kind: FaultKind::PermanentLoss { rank, at_step },
    }
}

fn main() {
    println!("=== Elastic resizing walkthrough ===\n");

    // ------------------------------------------------------------------
    // Part 1: the real trainer. 8 replicas, two permanent losses — the
    // world must shrink 8 → 7 → 6 and still finish the recipe.
    // ------------------------------------------------------------------
    let mut exp = Experiment::proxy_default();
    exp.replicas = 8;
    exp.per_replica_batch = 4;
    exp.epochs = 2;
    exp.train_samples = 256;
    exp.eval_samples = 32;
    exp.faults.events.push(lose_rank(5, 3));
    exp.faults.events.push(lose_rank(1, 6));

    println!(
        "training {} epochs on {} replicas (global batch {}), killing rank 5 at step 3 \
         and rank 1 at step 6 ...\n",
        exp.epochs,
        exp.replicas,
        exp.global_batch()
    );
    let report = train(&exp);

    for rz in &report.step_timeline.resizes {
        println!(
            "  resize @ step {:>2}: world {} -> {} ({:.1} virtual s of drain + durable \
             checkpoint + rebuild + restart)",
            rz.step, rz.world_before, rz.world_after, rz.virtual_s
        );
    }
    let rec = &report.fault_recovery;
    println!(
        "\n  survived: final world {} | resizes {} | lost replicas {} | durable ckpts {} \
         | corrupt skipped {}",
        report.final_world,
        rec.resizes,
        rec.lost_replicas,
        rec.durable_checkpoints,
        rec.corrupt_checkpoints_skipped
    );
    println!(
        "  final loss {:.4} over {} steps (nominal would be {})",
        report.final_loss(),
        report.steps,
        exp.epochs * exp.steps_per_epoch() as u64
    );
    assert_eq!(report.final_world, 6);
    assert_eq!(rec.resizes, 2);

    // The whole faulted trajectory is a pure function of (seed, plan).
    let again = train(&exp);
    assert_eq!(report.weight_checksum, again.weight_checksum);
    assert_eq!(report.step_timeline, again.step_timeline);
    println!(
        "  re-run is bitwise identical (checksum {:#018x})\n",
        report.weight_checksum
    );

    // ------------------------------------------------------------------
    // Part 2: what does the same failure cost a 128-core pod? The pod
    // keeps its global batch; survivors absorb the lost shard, so every
    // post-resize step runs longer on the degraded sub-torus.
    // ------------------------------------------------------------------
    let cfg = StepConfig::new(Variant::B2, 128, 4096);
    let healthy = step_time(&cfg).total();
    println!("pod pricing (B2, 128 cores, global batch 4096):");
    println!("  healthy step           : {:.2} ms", healthy * 1e3);
    for survivors in [126, 120, 96] {
        let t = step_time_elastic(&cfg, survivors).total();
        println!(
            "  step on {survivors:>3} survivors : {:.2} ms ({:+.1}%)",
            t * 1e3,
            (t / healthy - 1.0) * 100.0
        );
    }

    // A seeded elastic plan over a 60-step window: permanent losses mixed
    // with the classic straggler/preempt/transient cocktail, drawn on a 1 s
    // step and moved onto the pod's step.
    let mut plan = FaultPlan::generate_elastic(7, 128, 60.0, 3, 2);
    for ev in &mut plan.events {
        ev.at_s *= healthy;
        ev.duration_s *= healthy;
    }
    let pod = simulate_chaos(&cfg, &plan, 60);
    println!(
        "\n  chaos soak: {} steps, {} permanent losses, {} resizes, {} survivors",
        pod.steps_completed, pod.permanent_losses, pod.resizes, pod.surviving_cores
    );
    println!(
        "  {} preemptions replaying {} steps ({:.1}s restart), {:.2}s retry backoff, \
         {:.2}s straggler + {:.2}s degraded links",
        pod.preemptions,
        pod.replayed_steps,
        pod.restart_seconds,
        pod.retry_seconds,
        pod.straggler_seconds,
        pod.degrade_seconds
    );
    println!(
        "  resize overhead {:.1}s = checkpoint {:.1}s + rebuild {:.1}s + restart {:.1}s \
         + degraded steps {:.1}s",
        pod.resize_overhead_seconds(),
        pod.resize_checkpoint_seconds,
        pod.resize_rebuild_seconds,
        pod.resize_restart_seconds,
        pod.resize_degraded_seconds
    );
    println!(
        "  total {:.1}s vs fault-free {:.1}s (overhead factor {:.3})",
        pod.total_seconds,
        pod.fault_free_seconds,
        pod.overhead_factor()
    );
    println!("\nSee DESIGN.md \"Elasticity & durable checkpoints\" for the protocol.");
}
