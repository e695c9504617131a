//! The workspace's one JSON writer.
//!
//! Every machine-readable artifact (Chrome traces, `BENCH_*.json`, bench
//! `--json` output, `TrainReport::to_json`, the chaos damage reports) is
//! emitted through this writer, which depends on nothing but `core::fmt`;
//! [`crate::parse_json`] is its reading half.
//!
//! Properties:
//! - valid UTF-8 JSON output (strings escaped per RFC 8259),
//! - floats printed via Rust's `Display`, which never uses exponent notation,
//!   so every number is a valid JSON literal,
//! - non-finite floats are sanitized (`NaN`/`±inf` → `null`) instead of
//!   producing invalid JSON,
//! - comma placement is tracked by a small container stack, so callers cannot
//!   produce `,]` or `[,` by construction.

use std::fmt::Write as _;

/// Streaming JSON writer with automatic comma management.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once the container has at least
    /// one element (so the next element needs a leading comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::with_capacity(4096)
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: String::with_capacity(cap),
            stack: Vec::with_capacity(16),
        }
    }

    /// Finish and return the JSON text. Panics if containers are unbalanced.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty(),
            "JsonWriter::finish with {} open container(s)",
            self.stack.len()
        );
        self.buf
    }

    fn elem_prefix(&mut self) {
        if let Some(has_prev) = self.stack.last_mut() {
            if *has_prev {
                self.buf.push(',');
            }
            *has_prev = true;
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.elem_prefix();
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop().expect("end_object without begin_object");
        self.buf.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.elem_prefix();
        self.buf.push('[');
        self.stack.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop().expect("end_array without begin_array");
        self.buf.push(']');
        self
    }

    /// Write an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.elem_prefix();
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
        // The value that follows must not emit its own comma.
        if let Some(top) = self.stack.last_mut() {
            *top = false;
        }
        self
    }

    pub fn str_value(&mut self, v: &str) -> &mut Self {
        self.elem_prefix();
        write_escaped(&mut self.buf, v);
        self
    }

    pub fn u64_value(&mut self, v: u64) -> &mut Self {
        self.elem_prefix();
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn f64_value(&mut self, v: f64) -> &mut Self {
        self.elem_prefix();
        if v.is_finite() {
            // Rust's `Display` for floats never uses exponent notation and
            // always includes at least one digit, so this is a valid JSON
            // number literal.
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool_value(&mut self, v: bool) -> &mut Self {
        self.elem_prefix();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null_value(&mut self) -> &mut Self {
        self.elem_prefix();
        self.buf.push_str("null");
        self
    }

    /// Convenience: `"k": "v"` field.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str_value(v)
    }

    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64_value(v)
    }

    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64_value(v)
    }

    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).bool_value(v)
    }
}

/// Escape `s` per RFC 8259 and append it, quoted, to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_with_mixed_values() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("name", "step")
            .field_u64("ts", 12)
            .field_f64("dur", 1.5)
            .field_bool("ok", true)
            .key("tags")
            .begin_array()
            .str_value("a")
            .str_value("b")
            .end_array()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"step","ts":12,"dur":1.5,"ok":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut w = JsonWriter::new();
        w.begin_array().str_value("a\"b\\c\nd\u{1}").end_array();
        assert_eq!(w.finish(), "[\"a\\\"b\\\\c\\nd\\u0001\"]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .f64_value(f64::NAN)
            .f64_value(f64::INFINITY)
            .f64_value(2.0)
            .end_array();
        assert_eq!(w.finish(), "[null,null,2]");
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("a")
            .begin_array()
            .end_array()
            .key("b")
            .begin_object()
            .end_object()
            .end_object();
        assert_eq!(w.finish(), r#"{"a":[],"b":{}}"#);
    }

    #[test]
    #[should_panic]
    fn unbalanced_containers_panic() {
        let mut w = JsonWriter::new();
        w.begin_object();
        let _ = w.finish();
    }

    #[test]
    fn float_display_has_no_exponent() {
        // Guard the assumption the writer relies on.
        for v in [1e-9_f64, 1e12, 0.1 + 0.2, f64::MIN_POSITIVE] {
            let s = format!("{v}");
            assert!(!s.contains('e') && !s.contains('E'), "{s}");
        }
    }
}
