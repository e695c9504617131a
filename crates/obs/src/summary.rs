//! Table-1-style per-run summary.
//!
//! One [`RunSummary`] per operating point / training run: step time,
//! all-reduce share, throughput, and the recovery/resize overhead
//! decomposition that Table 1 and Figure 1 of the paper report. Summaries
//! serialize through the crate's own [`JsonWriter`].

use crate::json::JsonWriter;

/// Virtual-seconds overhead decomposition of a (possibly faulted) run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverheadDecomposition {
    /// Collective retry exponential backoff.
    pub retry_backoff_s: f64,
    /// Preemption restart delays (incl. replayed steps charged by restarts).
    pub restart_s: f64,
    /// Straggler stalls.
    pub straggler_s: f64,
    /// Link-degradation slowdown.
    pub degrade_s: f64,
    /// Elastic resize total (checkpoint + rebuild + restart + degraded steps).
    pub resize_s: f64,
}

impl OverheadDecomposition {
    pub fn total(&self) -> f64 {
        self.retry_backoff_s + self.restart_s + self.straggler_s + self.degrade_s + self.resize_s
    }
}

/// One row of a Table-1-style report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Operating point label, e.g. `"EfficientNet-B2 @ 256 cores"`.
    pub label: String,
    /// Collective backend the row is priced for or was trained with
    /// (`"tree" | "ring" | "torus2d" | "auto"`; empty in rows predating
    /// the per-backend schema).
    pub backend: String,
    pub cores: u64,
    pub global_batch: u64,
    pub steps: u64,
    /// Mean step time in milliseconds.
    pub step_ms: f64,
    /// All-reduce share of step time, percent.
    pub all_reduce_pct: f64,
    /// Share of total per-bucket all-reduce time hidden behind backward
    /// compute by the overlapped exchange, percent (`0` when serialized).
    pub overlap_pct: f64,
    /// Batch-norm sync share of step time, percent.
    pub bn_sync_pct: f64,
    /// Throughput in images per second.
    pub images_per_sec: f64,
    /// Total virtual seconds of the run (fault-free + overhead).
    pub total_virtual_s: f64,
    /// Silent-data-corruption detections (ABFT tile checksums + gradient
    /// fingerprints). Zero in rows predating the corruption defense.
    pub corruptions_detected: u64,
    /// Corruptions healed in place (tile recompute / verified retry).
    pub corruptions_corrected: u64,
    /// Ranks quarantined by unhealable corruption.
    pub rank_quarantines: u64,
    pub overhead: OverheadDecomposition,
}

impl RunSummary {
    /// Write this summary as one JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field_str("label", &self.label)
            .field_str("backend", &self.backend)
            .field_u64("cores", self.cores)
            .field_u64("global_batch", self.global_batch)
            .field_u64("steps", self.steps)
            .field_f64("step_ms", self.step_ms)
            .field_f64("all_reduce_pct", self.all_reduce_pct)
            .field_f64("overlap_pct", self.overlap_pct)
            .field_f64("bn_sync_pct", self.bn_sync_pct)
            .field_f64("images_per_sec", self.images_per_sec)
            .field_f64("total_virtual_s", self.total_virtual_s)
            .field_u64("corruptions_detected", self.corruptions_detected)
            .field_u64("corruptions_corrected", self.corruptions_corrected)
            .field_u64("rank_quarantines", self.rank_quarantines)
            .key("overhead")
            .begin_object()
            .field_f64("retry_backoff_s", self.overhead.retry_backoff_s)
            .field_f64("restart_s", self.overhead.restart_s)
            .field_f64("straggler_s", self.overhead.straggler_s)
            .field_f64("degrade_s", self.overhead.degrade_s)
            .field_f64("resize_s", self.overhead.resize_s)
            .field_f64("total_s", self.overhead.total())
            .end_object()
            .end_object();
    }

    /// This summary alone as a JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Schema tag of the step-time benchmark document: v2 adds per-row
/// `backend` names and the per-backend scaling rows.
pub const STEP_TIME_SCHEMA: &str = "bench_step_time_v2";

/// Render a set of summaries as `{"schema": ..., "runs": [...]}` — the
/// shape of `BENCH_step_time.json` and the bench bins' `--json` output.
pub fn summaries_to_json(runs: &[RunSummary]) -> String {
    let mut w = JsonWriter::with_capacity(8192);
    w.begin_object()
        .field_str("schema", STEP_TIME_SCHEMA)
        .key("runs")
        .begin_array();
    for r in runs {
        r.write_json(&mut w);
    }
    w.end_array().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::parse_json;

    fn sample() -> RunSummary {
        RunSummary {
            label: "EfficientNet-B2 @ 256 cores".into(),
            backend: "torus2d".into(),
            cores: 256,
            global_batch: 16384,
            steps: 100,
            step_ms: 123.4,
            all_reduce_pct: 7.5,
            overlap_pct: 42.0,
            bn_sync_pct: 1.25,
            images_per_sec: 132_000.0,
            total_virtual_s: 12.34,
            corruptions_detected: 3,
            corruptions_corrected: 2,
            rank_quarantines: 1,
            overhead: OverheadDecomposition {
                retry_backoff_s: 0.35,
                restart_s: 5.0,
                straggler_s: 1.5,
                degrade_s: 0.0,
                resize_s: 10.0,
            },
        }
    }

    #[test]
    fn json_round_trips_through_own_parser() {
        let s = sample();
        let v = parse_json(&s.to_json()).unwrap();
        assert_eq!(v.get("label").unwrap().as_str().unwrap(), s.label);
        assert_eq!(v.get("cores").unwrap().as_f64().unwrap() as u64, 256);
        assert_eq!(v.get("step_ms").unwrap().as_f64().unwrap(), 123.4);
        assert_eq!(v.get("overlap_pct").unwrap().as_f64().unwrap(), 42.0);
        assert_eq!(
            v.get("corruptions_detected").unwrap().as_f64().unwrap() as u64,
            3
        );
        assert_eq!(
            v.get("rank_quarantines").unwrap().as_f64().unwrap() as u64,
            1
        );
        let ov = v.get("overhead").unwrap();
        assert_eq!(
            ov.get("total_s").unwrap().as_f64().unwrap(),
            s.overhead.total()
        );
    }

    #[test]
    fn summaries_document_shape() {
        let doc = summaries_to_json(&[sample(), sample()]);
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str().unwrap(), STEP_TIME_SCHEMA);
        assert_eq!(v.get("runs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("runs").unwrap().as_arr().unwrap()[0]
                .get("backend")
                .unwrap()
                .as_str()
                .unwrap(),
            "torus2d"
        );
    }

    #[test]
    fn overhead_total_is_component_sum() {
        let s = sample();
        assert!((s.overhead.total() - 16.85).abs() < 1e-12);
    }
}
