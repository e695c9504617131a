//! The traced run's span buffer: one span around each call the replay
//! makes into a layer's public function, kept in memory in a buffer
//! allocated once and written out as Chrome trace JSON when the run ends.
//! Spans inside the crates are a later change (ROADMAP item 1); these are
//! recorded from the benchmark's side of each boundary.

use ets_obs::JsonWriter;
use std::time::Instant;

/// Index of a span in the buffer; `ROOT` for spans with no parent.
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

pub struct SpanBuf {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    dropped: u64,
}

/// Room for every call a traced run makes (a 25 s run records ~20 k).
const CAPACITY: usize = 1 << 18;

impl SpanBuf {
    pub fn new(workload: &'static str) -> Self {
        SpanBuf {
            epoch: Instant::now(),
            workload,
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` taken on any thread to this buffer's clock.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span. Never reallocates: once the buffer is full
    /// further spans are counted as dropped, which fails the run.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span that encloses later ones; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Times `f` under a span and returns its result with the seconds it
    /// took.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = self.now_ns();
        let r = f();
        let t1 = self.now_ns();
        self.push(name, t0, t1, parent);
        (r, (t1 - t0) as f64 * 1e-9)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn depth(&self, mut i: usize) -> u64 {
        let mut d = 0;
        while self.spans[i].parent != ROOT {
            i = self.spans[i].parent as usize;
            d += 1;
        }
        d
    }

    /// Chrome trace-event JSON: one complete event per span on track
    /// `tid = nesting depth`, in start order within a track, with the
    /// parent's index and the workload in `args`.
    pub fn chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        let depths: Vec<u64> = order.iter().map(|&i| self.depth(i)).collect();
        order.sort_by_key(|&i| (depths[i], self.spans[i].start_ns, i));
        let mut w = JsonWriter::with_capacity(96 * self.spans.len() + 256);
        w.begin_object().key("traceEvents").begin_array();
        for i in order {
            let s = &self.spans[i];
            w.begin_object()
                .field_str("name", s.name)
                .field_str("ph", "X")
                .field_u64("pid", 1)
                .field_u64("tid", depths[i])
                .field_f64("ts", s.start_ns as f64 * 1e-3)
                .field_f64("dur", (s.end_ns - s.start_ns) as f64 * 1e-3)
                .key("args")
                .begin_object()
                .field_u64("id", i as u64);
            if s.parent != ROOT {
                w.field_u64("parent", u64::from(s.parent));
            }
            w.field_str("workload", self.workload)
                .end_object()
                .end_object();
        }
        w.end_array()
            .field_str("displayTimeUnit", "ms")
            .end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_a_valid_trace() {
        let mut b = SpanBuf::new("unit");
        let root = b.open("run", ROOT);
        let group = b.open("ets-nn", root);
        let (v, secs) = b.time("Conv2d::forward", group, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        b.time("Conv2d::backward", group, || ());
        b.close(group);
        b.close(root);
        assert_eq!((b.len(), b.dropped()), (4, 0));
        let json = b.chrome_json();
        let stats = ets_obs::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((stats.spans, stats.tracks), (4, 3));
        assert!(json.contains("\"workload\":\"unit\""));
    }
}
