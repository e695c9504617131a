//! The benchmark's contract: every metric it emits, with unit, direction
//! and (end-to-end only) the bound by which it may worsen. `BENCHMARK.json`
//! at the repository root is this table written out (`--emit-manifest`); a
//! test fails if the two differ.

use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Higher, 0.0)
}

/// Seconds one run measures (`run_seconds`; also the `--seconds` default).
pub const RUN_SECONDS: u64 = 25;

pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("samples_per_s", "1/s", Better::Higher, 0.25),
    e2e("final_loss", "nat", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

pub const PER_LAYER: [MetricSpec; 92] = [
    // ets-tensor: public kernels at the model's shapes.
    lo("tensor.conv.fwd_ms", "ms"),
    lo("tensor.conv.bwd_ms", "ms"),
    hi("tensor.conv.gflops", "GFLOP/s"),
    lo("tensor.depthwise.fwd_ms", "ms"),
    lo("tensor.depthwise.bwd_ms", "ms"),
    hi("tensor.depthwise.gbps", "GB/s"),
    lo("tensor.gemm.calls_per_step", "count"),
    hi("tensor.gemm.blocked_share", "ratio"),
    hi("tensor.gemm.bf16_share", "ratio"),
    lo("tensor.scratch.reallocs_per_step", "count"),
    hi("tensor.abft.rel_throughput", "ratio"),
    lo("tensor.abft.tiles_per_step", "count"),
    hi("tensor.host.peak_gflops", "GFLOP/s"),
    hi("tensor.host.triad_gbps", "GB/s"),
    // ets-nn: stand-alone layer objects, forward(Train) then backward.
    lo("nn.conv1x1.fwd_ms", "ms"),
    lo("nn.conv1x1.bwd_ms", "ms"),
    lo("nn.convkxk.fwd_ms", "ms"),
    lo("nn.convkxk.bwd_ms", "ms"),
    lo("nn.depthwise.fwd_ms", "ms"),
    lo("nn.depthwise.bwd_ms", "ms"),
    lo("nn.batchnorm.fwd_ms", "ms"),
    lo("nn.batchnorm.bwd_ms", "ms"),
    lo("nn.swish.fwd_ms", "ms"),
    lo("nn.swish.bwd_ms", "ms"),
    lo("nn.se.fwd_ms", "ms"),
    lo("nn.se.bwd_ms", "ms"),
    lo("nn.pool.fwd_ms", "ms"),
    lo("nn.pool.bwd_ms", "ms"),
    lo("nn.linear.fwd_ms", "ms"),
    lo("nn.linear.bwd_ms", "ms"),
    lo("nn.loss.ms", "ms"),
    hi("nn.conv1x1.gflops", "GFLOP/s"),
    hi("nn.batchnorm.gbps", "GB/s"),
    hi("nn.swish.gbps", "GB/s"),
    // ets-efficientnet: the real model and one MBConv block per stage.
    lo("efficientnet.fwd_ms", "ms"),
    lo("efficientnet.bwd_ms", "ms"),
    lo("efficientnet.eval_fwd_ms", "ms"),
    lo("efficientnet.stem_ms", "ms"),
    lo("efficientnet.stage0_ms", "ms"),
    lo("efficientnet.stage1_ms", "ms"),
    lo("efficientnet.stage2_ms", "ms"),
    lo("efficientnet.stage3_ms", "ms"),
    lo("efficientnet.stage4_ms", "ms"),
    lo("efficientnet.stage5_ms", "ms"),
    lo("efficientnet.stage6_ms", "ms"),
    lo("efficientnet.head_ms", "ms"),
    lo("efficientnet.unattributed_pct", "%"),
    hi("efficientnet.train_gflops", "GFLOP/s"),
    lo("efficientnet.params", "count"),
    lo("efficientnet.macs_per_sample", "count"),
    // ets-optim
    lo("optim.step_ms", "ms"),
    hi("optim.gbps", "GB/s"),
    lo("optim.state_bytes", "B"),
    // ets-data
    lo("data.batch_ms", "ms"),
    hi("data.samples_per_s", "1/s"),
    // ets-collective: two bench threads as the two ranks.
    lo("collective.allreduce_grad_ms", "ms"),
    hi("collective.allreduce_grad_gbps", "GB/s"),
    lo("collective.allreduce_bucket_us", "us"),
    lo("collective.bn_sync_us", "us"),
    lo("collective.allgather_fp_us", "us"),
    lo("collective.barrier_us", "us"),
    lo("collective.backend_spread_pct", "%"),
    lo("collective.calls_per_step", "count"),
    lo("collective.bytes_per_step", "B"),
    // ets-train: the rounds' own reports and the checkpoint store.
    lo("train.phase.data_ms", "ms"),
    lo("train.phase.forward_ms", "ms"),
    lo("train.phase.backward_ms", "ms"),
    lo("train.phase.allreduce_ms", "ms"),
    lo("train.phase.optimizer_ms", "ms"),
    lo("train.unaccounted_pct", "%"),
    lo("train.fixed_ms", "ms"),
    hi("train.overlap_pct", "%"),
    lo("train.buckets_per_step", "count"),
    lo("train.ckpt.save_ms", "ms"),
    lo("train.ckpt.load_ms", "ms"),
    lo("train.ckpt.bytes", "B"),
    hi("train.eval_top1", "ratio"),
    lo("train.recovery.retries", "count"),
    lo("train.recovery.replayed_steps", "count"),
    lo("train.recovery.corruptions_corrected", "count"),
    lo("train.recovery.resizes", "count"),
    lo("train.recovery.durable_checkpoints", "count"),
    lo("train.recovery.virtual_s", "s"),
    // ets-obs
    lo("obs.trace_overhead_pct", "%"),
    lo("obs.events_per_step", "count"),
    lo("obs.reallocs", "count"),
    // ets-tpu-sim: simulated time, exact.
    lo("sim.chaos.overhead_factor", "ratio"),
    lo("sim.chaos.host_us", "us"),
    lo("sim.table1.allreduce_err_pp", "pp"),
    lo("sim.headline_err_pct", "%"),
    // host context
    lo("host.steal_share", "ratio"),
    hi("host.nproc", "count"),
];

/// Per-layer metrics that count or compute instead of timing: identical
/// across runs of the same code, seed and workload.
pub const EXACT: [&str; 25] = [
    "tensor.gemm.calls_per_step",
    "tensor.gemm.blocked_share",
    "tensor.gemm.bf16_share",
    "tensor.scratch.reallocs_per_step",
    "tensor.abft.tiles_per_step",
    "efficientnet.params",
    "efficientnet.macs_per_sample",
    "optim.state_bytes",
    "collective.calls_per_step",
    "collective.bytes_per_step",
    "train.buckets_per_step",
    "train.ckpt.bytes",
    "train.eval_top1",
    "train.recovery.retries",
    "train.recovery.replayed_steps",
    "train.recovery.corruptions_corrected",
    "train.recovery.resizes",
    "train.recovery.durable_checkpoints",
    "train.recovery.virtual_s",
    "obs.events_per_step",
    "obs.reallocs",
    "sim.chaos.overhead_factor",
    "sim.table1.allreduce_err_pp",
    "sim.headline_err_pct",
    "host.nproc",
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, byte for byte: one workload or metric per line.
pub fn benchmark_json() -> String {
    fn q(s: &str) -> String {
        let mut out = String::new();
        ets_obs::json::write_escaped(&mut out, s);
        out
    }
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let metric = |m: &MetricSpec, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            q(m.name),
            q(m.unit),
            q(m.better.as_str())
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(workloads),
        rows(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        rows(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn table_obeys_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-manifest > BENCHMARK.json`"
        );
    }
}
