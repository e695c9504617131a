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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
const FP_LANES: usize = 8;

/// FNV-1a over `f32` bit patterns, one 32-bit word per step, in eight
/// interleaved lanes: element `i` of the sequence goes to lane `i mod 8`,
/// and [`Fingerprint::finish`] folds the lanes in lane order: the weight
/// checksum and the gradient-bucket fingerprints. However the sequence is
/// split across [`Fingerprint::update`] calls, the value is the same; a
/// changed element always changes it, because every step and the fold are
/// bijections of the lane they touch.
pub struct Fingerprint {
    lanes: [u64; FP_LANES],
    len: usize,
}

fn fnv_words(lanes: &mut [u64], xs: &[f32]) {
    for (h, x) in lanes.iter_mut().zip(xs) {
        *h = (*h ^ u64::from(x.to_bits())).wrapping_mul(FNV_PRIME);
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            lanes: [FNV_OFFSET; FP_LANES],
            len: 0,
        }
    }
}

impl Fingerprint {
    /// The fingerprint of one slice.
    pub fn of(xs: &[f32]) -> u64 {
        let mut f = Fingerprint::default();
        f.update(xs);
        f.finish()
    }

    /// Appends `xs` to the sequence.
    pub fn update(&mut self, xs: &[f32]) {
        let open = self.len % FP_LANES;
        let (head, body) = xs.split_at(xs.len().min((FP_LANES - open) % FP_LANES));
        fnv_words(&mut self.lanes[open..], head);
        // A local copy stays in registers across the rounds.
        let mut lanes = self.lanes;
        let (rounds, tail) = body.as_chunks::<FP_LANES>();
        rounds.iter().for_each(|round| fnv_words(&mut lanes, round));
        fnv_words(&mut lanes, tail);
        self.lanes = lanes;
        self.len += xs.len();
    }

    /// The fingerprint of the sequence so far.
    pub fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(FNV_OFFSET, |h, &l| (h ^ l).wrapping_mul(FNV_PRIME))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint as defined: one FNV-1a chain per lane over the
    /// words `i ≡ lane (mod 8)`, chains folded in lane order.
    fn fingerprint_reference(xs: &[f32]) -> u64 {
        let mut lanes = [FNV_OFFSET; 8];
        for (i, x) in xs.iter().enumerate() {
            lanes[i % 8] = (lanes[i % 8] ^ x.to_bits() as u64).wrapping_mul(FNV_PRIME);
        }
        lanes
            .iter()
            .fold(FNV_OFFSET, |h, &l| (h ^ l).wrapping_mul(FNV_PRIME))
    }

    proptest::proptest! {
        #[test]
        fn fingerprint_sees_every_bit_and_no_split(
            words in proptest::collection::vec(0u32..u32::MAX, 0..68),
        ) {
            let xs: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
            let whole = Fingerprint::of(&xs);
            proptest::prop_assert_eq!(whole, fingerprint_reference(&xs));
            // Every split into three pieces (empty ones included).
            for a in 0..=xs.len() {
                for b in a..=xs.len() {
                    let mut f = Fingerprint::default();
                    for piece in [&xs[..a], &xs[a..b], &xs[b..]] {
                        f.update(piece);
                    }
                    proptest::prop_assert_eq!(f.finish(), whole, "split at {} and {}", a, b);
                }
            }
            // Every single-bit flip of every element.
            let mut flipped = xs.clone();
            for i in 0..xs.len() {
                for bit in 0..32 {
                    flipped[i] = f32::from_bits(xs[i].to_bits() ^ (1 << bit));
                    proptest::prop_assert_ne!(Fingerprint::of(&flipped), whole);
                }
                flipped[i] = xs[i];
            }
        }
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
