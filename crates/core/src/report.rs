//! Training-run results: per-epoch records and summary statistics.

use crate::timeline::{AllReduceProfile, PhaseBreakdown, StepTimeline};
use ets_obs::JsonWriter;

/// Fault-recovery bookkeeping for one training run (replica 0's view;
/// the synchronized quantities are identical on every replica because
/// fault schedules are SPMD-symmetric).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryCounters {
    /// Transient collective failures injected/observed.
    pub transient_failures: u64,
    /// Collective attempts beyond the first (retries absorbed).
    pub collective_retries: u64,
    /// Virtual seconds of retry backoff charged.
    pub retry_backoff_virtual_s: f64,
    /// Preemptions suffered (each forces a rewind to the last snapshot).
    pub preemptions: u64,
    /// Steps re-executed after preemption rewinds.
    pub replayed_steps: u64,
    /// Virtual seconds of restart delay charged by preemptions.
    pub restart_virtual_s: f64,
    /// Virtual seconds added by stragglers / degraded links on top of
    /// nominal step time.
    pub straggler_virtual_s: f64,
    /// Full-state snapshots taken for preemption recovery.
    pub checkpoints_taken: u64,
    /// Replicas permanently lost over the run (elastic resize events may
    /// drop more than one rank at the same step).
    pub lost_replicas: u64,
    /// World-resize protocols executed (drain → durable checkpoint →
    /// rebuild collectives/BN groups → re-shard → resume).
    pub resizes: u64,
    /// Virtual seconds charged by resize protocols (checkpoint persist +
    /// collective rebuild + restart delay).
    pub resize_virtual_s: f64,
    /// Durable on-disk checkpoints persisted via the checkpoint store.
    pub durable_checkpoints: u64,
    /// Corrupt durable checkpoints detected and skipped during loads —
    /// every one of these is a *loudly rejected* file, never a silent load.
    pub corrupt_checkpoints_skipped: u64,
    /// Divergence-guard trips: non-finite loss/gradients detected, state
    /// rolled back to the latest durable checkpoint with the LR halved.
    pub divergence_rollbacks: u64,
    /// Silent-data-corruption detections: ABFT tile-checksum failures
    /// plus cross-rank gradient-fingerprint mismatches.
    pub corruptions_detected: u64,
    /// Corruptions healed in place (tile recompute or verified bucket
    /// retry) — the run continued bitwise-identical to a clean run.
    pub corruptions_corrected: u64,
    /// Ranks quarantined after unhealable corruption (each triggers an
    /// elastic shrink + rollback to the last checkpoint before the
    /// poisoned step).
    pub rank_quarantines: u64,
    /// Retained checkpoints re-verified by a store scrub pass.
    pub checkpoints_scrubbed: u64,
    /// Checkpoints a scrub pass found corrupt and garbage-collected.
    pub checkpoints_scrub_rejected: u64,
}

impl RecoveryCounters {
    /// True when the run experienced no fault of any kind.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryCounters::default()
    }

    /// Total virtual seconds the faults cost beyond nominal execution.
    pub fn total_fault_virtual_s(&self) -> f64 {
        self.retry_backoff_virtual_s
            + self.restart_virtual_s
            + self.straggler_virtual_s
            + self.resize_virtual_s
    }

    /// Mirrors the final counter values into a flight recorder's metrics
    /// registry (integer fields as counters, virtual-seconds fields as
    /// gauges). Call once at end of run: counters accumulate.
    pub fn mirror_to(&self, rec: &ets_obs::Recorder) {
        rec.counter_add("transient_failures", self.transient_failures);
        rec.counter_add("collective_retries", self.collective_retries);
        rec.counter_add("preemptions", self.preemptions);
        rec.counter_add("replayed_steps", self.replayed_steps);
        rec.counter_add("checkpoints_taken", self.checkpoints_taken);
        rec.counter_add("lost_replicas", self.lost_replicas);
        rec.counter_add("resizes", self.resizes);
        rec.counter_add("durable_checkpoints", self.durable_checkpoints);
        rec.counter_add(
            "corrupt_checkpoints_skipped",
            self.corrupt_checkpoints_skipped,
        );
        rec.counter_add("divergence_rollbacks", self.divergence_rollbacks);
        rec.counter_add("corruptions_detected", self.corruptions_detected);
        rec.counter_add("corruptions_corrected", self.corruptions_corrected);
        rec.counter_add("rank_quarantines", self.rank_quarantines);
        rec.counter_add("checkpoints_scrubbed", self.checkpoints_scrubbed);
        rec.counter_add(
            "checkpoints_scrub_rejected",
            self.checkpoints_scrub_rejected,
        );
        rec.gauge_set("retry_backoff_virtual_s", self.retry_backoff_virtual_s);
        rec.gauge_set("restart_virtual_s", self.restart_virtual_s);
        rec.gauge_set("straggler_virtual_s", self.straggler_virtual_s);
        rec.gauge_set("resize_virtual_s", self.resize_virtual_s);
    }
}

/// One epoch's record, as seen by replica 0 (identical on all replicas for
/// the synchronized quantities).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Mean training loss over the epoch's steps.
    pub train_loss: f32,
    /// Learning rate at the last step of the epoch.
    pub lr: f32,
    /// Distributed-eval top-1 accuracy (None between eval epochs).
    pub eval_top1: Option<f64>,
    /// Distributed-eval top-5 accuracy.
    pub eval_top5: Option<f64>,
}

/// Outcome of a full training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub history: Vec<EpochRecord>,
    /// Best eval top-1 over the run ("peak top-1" in the paper's terms).
    pub peak_top1: f64,
    /// Epoch at which the peak occurred.
    pub peak_epoch: u64,
    /// Total optimizer steps executed.
    pub steps: u64,
    /// Wall-clock seconds of the run (host time; informational only).
    pub wall_seconds: f64,
    /// A checksum over the final weights of replica 0 — identical across
    /// replicas and across runs of the same config (determinism probe).
    pub weight_checksum: u64,
    /// Replica 0's measured per-phase time breakdown.
    pub phases: PhaseBreakdown,
    /// Replica 0's per-bucket gradient all-reduce timing.
    pub all_reduce_buckets: AllReduceProfile,
    /// Fault-recovery counters (all zero for a fault-free run).
    pub fault_recovery: RecoveryCounters,
    /// Virtual per-step timeline; injected slowdowns surface here while
    /// payloads (and therefore losses) stay untouched.
    pub step_timeline: StepTimeline,
    /// Number of replicas still alive at the end of the run (equals the
    /// configured world unless permanent losses shrank it).
    pub final_world: usize,
}

impl TrainReport {
    /// Final epoch's training loss.
    pub fn final_loss(&self) -> f32 {
        self.history
            .last()
            .map(|r| r.train_loss)
            .unwrap_or(f32::NAN)
    }

    /// First epoch whose eval top-1 reached `threshold`, if any.
    pub fn epochs_to_accuracy(&self, threshold: f64) -> Option<u64> {
        self.history
            .iter()
            .find(|r| r.eval_top1.map(|a| a >= threshold).unwrap_or(false))
            .map(|r| r.epoch)
    }

    /// The report as one JSON object keyed by field name, nested structs
    /// as nested objects. Non-finite floats and absent eval accuracies are
    /// `null`; `weight_checksum` is a 16-digit hex string, because a JSON
    /// number holds only 53 bits.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("history").begin_array();
        for r in &self.history {
            w.begin_object()
                .field_u64("epoch", r.epoch)
                .field_f64("train_loss", r.train_loss as f64)
                .field_f64("lr", r.lr as f64)
                .field_f64("eval_top1", r.eval_top1.unwrap_or(f64::NAN))
                .field_f64("eval_top5", r.eval_top5.unwrap_or(f64::NAN))
                .end_object();
        }
        w.end_array()
            .field_f64("peak_top1", self.peak_top1)
            .field_u64("peak_epoch", self.peak_epoch)
            .field_u64("steps", self.steps)
            .field_f64("wall_seconds", self.wall_seconds)
            .field_str("weight_checksum", &format!("{:016x}", self.weight_checksum));

        let p = &self.phases;
        w.key("phases")
            .begin_object()
            .field_f64("data", p.data)
            .field_f64("forward", p.forward)
            .field_f64("backward", p.backward)
            .field_f64("all_reduce", p.all_reduce)
            .field_f64("optimizer", p.optimizer)
            .field_u64("steps", p.steps)
            .end_object();

        let b = &self.all_reduce_buckets;
        w.key("all_reduce_buckets")
            .begin_object()
            .key("bucket_elems")
            .begin_array();
        for &n in &b.bucket_elems {
            w.u64_value(n as u64);
        }
        w.end_array().key("bucket_seconds").begin_array();
        for &s in &b.bucket_seconds {
            w.f64_value(s);
        }
        w.end_array()
            .field_u64("rounds", b.rounds)
            .field_f64("exposed_seconds", b.exposed_seconds)
            .field_u64("overlapped_rounds", b.overlapped_rounds)
            .field_u64("hook_shipped_buckets", b.hook_shipped_buckets)
            .end_object();

        let c = &self.fault_recovery;
        w.key("fault_recovery")
            .begin_object()
            .field_u64("transient_failures", c.transient_failures)
            .field_u64("collective_retries", c.collective_retries)
            .field_f64("retry_backoff_virtual_s", c.retry_backoff_virtual_s)
            .field_u64("preemptions", c.preemptions)
            .field_u64("replayed_steps", c.replayed_steps)
            .field_f64("restart_virtual_s", c.restart_virtual_s)
            .field_f64("straggler_virtual_s", c.straggler_virtual_s)
            .field_u64("checkpoints_taken", c.checkpoints_taken)
            .field_u64("lost_replicas", c.lost_replicas)
            .field_u64("resizes", c.resizes)
            .field_f64("resize_virtual_s", c.resize_virtual_s)
            .field_u64("durable_checkpoints", c.durable_checkpoints)
            .field_u64("corrupt_checkpoints_skipped", c.corrupt_checkpoints_skipped)
            .field_u64("divergence_rollbacks", c.divergence_rollbacks)
            .field_u64("corruptions_detected", c.corruptions_detected)
            .field_u64("corruptions_corrected", c.corruptions_corrected)
            .field_u64("rank_quarantines", c.rank_quarantines)
            .field_u64("checkpoints_scrubbed", c.checkpoints_scrubbed)
            .field_u64("checkpoints_scrub_rejected", c.checkpoints_scrub_rejected)
            .end_object();

        let t = &self.step_timeline;
        w.key("step_timeline")
            .begin_object()
            .field_f64("nominal_step_s", t.nominal_step_s)
            .key("virtual_s")
            .begin_array();
        for &s in &t.virtual_s {
            w.f64_value(s);
        }
        w.end_array().key("resizes").begin_array();
        for r in &t.resizes {
            w.begin_object()
                .field_u64("step", r.step)
                .field_u64("world_before", r.world_before as u64)
                .field_u64("world_after", r.world_after as u64)
                .field_f64("virtual_s", r.virtual_s)
                .end_object();
        }
        w.end_array().end_object();

        w.field_u64("final_world", self.final_world as u64)
            .end_object();
        w.finish()
    }

    /// Collapses the report into a Table-1-style [`ets_obs::RunSummary`]:
    /// measured wall step time / all-reduce share / throughput, plus the
    /// virtual-seconds recovery and resize overhead decomposition.
    pub fn run_summary(&self, label: &str, cores: u64, global_batch: u64) -> ets_obs::RunSummary {
        let step_s = self.phases.step_seconds();
        ets_obs::RunSummary {
            label: label.to_string(),
            // The report does not know which backend ran; callers that do
            // (the bench harness reads it off the experiment) fill it in.
            backend: String::new(),
            cores,
            global_batch,
            steps: self.steps,
            step_ms: step_s * 1e3,
            all_reduce_pct: self.phases.all_reduce_share() * 100.0,
            overlap_pct: self.all_reduce_buckets.overlap_pct(),
            bn_sync_pct: 0.0, // thread engine folds BN sync into forward time
            images_per_sec: if step_s > 0.0 {
                global_batch as f64 / step_s
            } else {
                0.0
            },
            total_virtual_s: self.step_timeline.total_virtual_s()
                + self.step_timeline.resize_virtual_s()
                + self.fault_recovery.restart_virtual_s,
            corruptions_detected: self.fault_recovery.corruptions_detected,
            corruptions_corrected: self.fault_recovery.corruptions_corrected,
            rank_quarantines: self.fault_recovery.rank_quarantines,
            overhead: ets_obs::OverheadDecomposition {
                retry_backoff_s: self.fault_recovery.retry_backoff_virtual_s,
                restart_s: self.fault_recovery.restart_virtual_s,
                straggler_s: self.fault_recovery.straggler_virtual_s,
                degrade_s: 0.0, // link degradation is priced by the pod sim
                resize_s: self.fault_recovery.resize_virtual_s,
            },
        }
    }
}

/// FNV-1a over a float slice's bit patterns — the weight checksum.
pub fn checksum_f32(values: impl Iterator<Item = f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sensitive_to_any_bit() {
        let a = checksum_f32([1.0f32, 2.0, 3.0].into_iter());
        let b = checksum_f32([1.0f32, 2.0, 3.0000002].into_iter());
        assert_ne!(a, b);
        let c = checksum_f32([1.0f32, 2.0, 3.0].into_iter());
        assert_eq!(a, c);
    }

    #[test]
    fn epochs_to_accuracy_finds_first() {
        let report = TrainReport {
            history: vec![
                EpochRecord {
                    epoch: 1,
                    train_loss: 2.0,
                    lr: 0.1,
                    eval_top1: Some(0.3),
                    eval_top5: Some(0.6),
                },
                EpochRecord {
                    epoch: 2,
                    train_loss: 1.0,
                    lr: 0.1,
                    eval_top1: Some(0.8),
                    eval_top5: Some(0.95),
                },
                EpochRecord {
                    epoch: 3,
                    train_loss: 0.5,
                    lr: 0.1,
                    eval_top1: Some(0.9),
                    eval_top5: Some(0.99),
                },
            ],
            peak_top1: 0.9,
            peak_epoch: 3,
            steps: 48,
            wall_seconds: 1.0,
            weight_checksum: 0,
            phases: PhaseBreakdown::default(),
            all_reduce_buckets: AllReduceProfile::default(),
            fault_recovery: RecoveryCounters::default(),
            step_timeline: StepTimeline::default(),
            final_world: 1,
        };
        assert_eq!(report.epochs_to_accuracy(0.75), Some(2));
        assert_eq!(report.epochs_to_accuracy(0.95), None);
        assert_eq!(report.final_loss(), 0.5);
    }

    #[test]
    fn recovery_counters_accounting() {
        let mut c = RecoveryCounters::default();
        assert!(c.is_clean());
        c.preemptions = 1;
        c.restart_virtual_s = 5.0;
        c.retry_backoff_virtual_s = 0.15;
        c.straggler_virtual_s = 2.0;
        assert!(!c.is_clean());
        assert!((c.total_fault_virtual_s() - 7.15).abs() < 1e-12);
    }

    /// `name: value` pairs of a flat all-numeric struct, read off its
    /// derived `Debug`: the oracle for "the writer emits every field", so a
    /// field added to the struct but not to its writer fails the test.
    fn debug_fields(v: &dyn std::fmt::Debug) -> Vec<(String, f64)> {
        let text = format!("{v:?}");
        let body = &text[text.find('{').unwrap() + 1..text.len() - 1];
        body.split(',')
            .map(|pair| pair.split_once(':').unwrap())
            .map(|(k, v)| (k.trim().to_string(), v.trim().parse().unwrap()))
            .collect()
    }

    #[test]
    fn report_json_carries_every_field_of_a_real_run() {
        let mut e = crate::Experiment::proxy_default();
        e.replicas = 2;
        e.epochs = 1;
        e.train_samples = 64;
        e.eval_samples = 16;
        // Seeded faults, so the recovery counters are not all zero.
        e.faults = ets_collective::FaultPlan::generate(3, 2, 4.0, 3);
        let mut r = crate::train(&e);
        assert!(!r.fault_recovery.is_clean());
        r.history.push(EpochRecord {
            epoch: 2,
            train_loss: f32::NAN,
            lr: 0.5,
            eval_top1: None,
            eval_top5: None,
        });

        let v = ets_obs::parse_json(&r.to_json()).expect("report JSON parses");
        let num = |v: &ets_obs::Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap();
        assert_eq!(v.as_obj().unwrap().len(), 11, "one key per report field");
        assert_eq!(num(&v, "steps"), r.steps as f64);
        assert_eq!(num(&v, "final_world"), 2.0);
        assert_eq!(num(&v, "peak_top1"), r.peak_top1);
        assert_eq!(
            v.get("weight_checksum").unwrap().as_str().unwrap(),
            format!("{:016x}", r.weight_checksum)
        );
        for (key, flat) in [
            ("fault_recovery", debug_fields(&r.fault_recovery)),
            ("phases", debug_fields(&r.phases)),
        ] {
            let obj = v.get(key).unwrap();
            assert_eq!(obj.as_obj().unwrap().len(), flat.len(), "{key}");
            for (field, want) in flat {
                assert_eq!(num(obj, &field), want, "{key}.{field}");
            }
        }
        let arr = |v: &ets_obs::Value, k: &str| v.get(k).unwrap().as_arr().unwrap().to_vec();
        let history = arr(&v, "history");
        assert_eq!(history.len(), r.history.len());
        let first = r.history[0];
        assert_eq!(num(&history[0], "train_loss") as f32, first.train_loss);
        assert_eq!(
            history[0].get("eval_top1").unwrap().as_f64(),
            first.eval_top1
        );
        assert_eq!(history[1].get("train_loss"), Some(&ets_obs::Value::Null));
        assert_eq!(history[1].get("eval_top1"), Some(&ets_obs::Value::Null));
        let buckets = arr(v.get("all_reduce_buckets").unwrap(), "bucket_seconds");
        assert_eq!(buckets.len(), r.all_reduce_buckets.num_buckets());
        let steps = arr(v.get("step_timeline").unwrap(), "virtual_s");
        assert_eq!(steps.len(), r.step_timeline.len());
    }
}
