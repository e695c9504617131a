//! A small recursive-descent JSON parser plus a Chrome trace-event schema
//! validator.
//!
//! The parser is the reading half of [`crate::json::JsonWriter`]: tests and
//! CI use it to *prove* that every exported artifact is well-formed JSON
//! carrying the values it should, and that traces obey the trace-event
//! contract (well-formed events, monotone timestamps per `(pid, tid)`
//! track).
//!
//! It parses standard RFC 8259 JSON (objects, arrays, strings with escapes,
//! numbers incl. exponents, `true`/`false`/`null`) — a superset of what
//! [`crate::json::JsonWriter`] emits.

use std::collections::BTreeMap;

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse_json(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}' at end of input", b as char)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(arr));
        }
        loop {
            arr.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(arr)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: accept and combine if a low
                        // surrogate follows; lone surrogates are replaced.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bytes[self.pos..].starts_with(b"\\u") {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                } else {
                                    out.push('\u{FFFD}');
                                    out.push(char::from_u32(lo).unwrap_or('\u{FFFD}'));
                                }
                            } else {
                                out.push('\u{FFFD}');
                            }
                        } else {
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                },
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos - 1))
                }
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences byte by byte.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(format!("invalid UTF-8 at byte {start}")),
                        };
                        let end = start + width;
                        if end > self.bytes.len() {
                            return Err(format!("truncated UTF-8 at byte {start}"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bump().ok_or("truncated \\u escape")?;
            let d = (c as char)
                .to_digit(16)
                .ok_or(format!("bad hex digit at byte {}", self.pos - 1))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// Statistics returned by a successful [`validate_chrome_trace`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total number of trace events.
    pub events: usize,
    /// Number of distinct `(pid, tid)` tracks.
    pub tracks: usize,
    /// Number of distinct pids (one per rank by convention).
    pub pids: usize,
    /// Count of "X" (complete span) events.
    pub spans: usize,
    /// Count of "i"/"I" (instant) events.
    pub instants: usize,
}

/// Validate Chrome trace-event JSON as exported by [`crate::chrome`]:
///
/// 1. the document parses as JSON,
/// 2. the top level is an object with a `traceEvents` array,
/// 3. every event carries `name` (string), `ph` (string), `pid`, `tid`, `ts`
///    (finite numbers); `"X"` events also carry a finite `dur >= 0`,
/// 4. within every `(pid, tid)` track, `ts` is monotone non-decreasing in
///    array order.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level 'traceEvents'")?
        .as_arr()
        .ok_or("'traceEvents' is not an array")?;

    let mut stats = TraceStats::default();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev.as_obj().ok_or(format!("event {i} is not an object"))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing string 'name'"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i} ({name}): missing string 'ph'"))?;
        let num_field = |k: &str| -> Result<f64, String> {
            let v = obj
                .get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("event {i} ({name}): missing number '{k}'"))?;
            if !v.is_finite() {
                return Err(format!("event {i} ({name}): non-finite '{k}'"));
            }
            Ok(v)
        };
        let pid = num_field("pid")? as u64;
        let tid = num_field("tid")? as u64;
        let ts = num_field("ts")?;
        match ph {
            "X" => {
                let dur = num_field("dur")?;
                if dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative dur"));
                }
                stats.spans += 1;
            }
            "i" | "I" => stats.instants += 1,
            "M" => {} // metadata events (process_name etc.) carry no dur
            other => return Err(format!("event {i} ({name}): unsupported ph '{other}'")),
        }
        if ph != "M" {
            let slot = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
            if ts < *slot {
                return Err(format!(
                    "event {i} ({name}): ts {ts} < previous ts {} on track pid={pid} tid={tid}",
                    *slot
                ));
            }
            *slot = ts;
        }
        stats.events += 1;
    }
    stats.tracks = last_ts.len();
    stats.pids = last_ts
        .keys()
        .map(|(p, _)| *p)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    Ok(stats)
}

/// Validate a `BENCH_step_time.json` document against the v2 schema
/// (see [`crate::summary::STEP_TIME_SCHEMA`]), returning the run count:
///
/// 1. the document parses as JSON with a matching top-level `schema` tag,
/// 2. `runs` is a non-empty array of objects,
/// 3. every run carries a non-empty `label`, a `backend` string, finite
///    non-negative `step_ms` / `all_reduce_pct` / `overlap_pct` /
///    `bn_sync_pct` / `images_per_sec`, percentages within [0, 100], and
///    numeric `cores` / `global_batch` / `steps`.
pub fn validate_step_time_json(json: &str) -> Result<usize, String> {
    let doc = parse_json(json)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing top-level 'schema'")?;
    if schema != crate::summary::STEP_TIME_SCHEMA {
        return Err(format!(
            "schema '{schema}' != expected '{}'",
            crate::summary::STEP_TIME_SCHEMA
        ));
    }
    let runs = doc
        .get("runs")
        .ok_or("missing top-level 'runs'")?
        .as_arr()
        .ok_or("'runs' is not an array")?;
    if runs.is_empty() {
        return Err("'runs' is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let obj = run.as_obj().ok_or(format!("run {i} is not an object"))?;
        let label = obj
            .get("label")
            .and_then(Value::as_str)
            .ok_or(format!("run {i}: missing string 'label'"))?;
        if label.is_empty() {
            return Err(format!("run {i}: empty label"));
        }
        obj.get("backend")
            .and_then(Value::as_str)
            .ok_or(format!("run {i} ({label}): missing string 'backend'"))?;
        let num = |k: &str| -> Result<f64, String> {
            let v = obj
                .get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("run {i} ({label}): missing number '{k}'"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("run {i} ({label}): bad '{k}' = {v}"));
            }
            Ok(v)
        };
        for k in [
            "cores",
            "global_batch",
            "steps",
            "step_ms",
            "images_per_sec",
        ] {
            num(k)?;
        }
        for k in ["all_reduce_pct", "overlap_pct", "bn_sync_pct"] {
            let v = num(k)?;
            if v > 100.0 {
                return Err(format!("run {i} ({label}): '{k}' = {v} > 100"));
            }
        }
    }
    Ok(runs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_of_writer_output() {
        let mut w = crate::json::JsonWriter::new();
        w.begin_object()
            .field_str("name", "fwd \"quoted\"")
            .field_f64("dur", 0.125)
            .field_u64("step", 7)
            .key("xs")
            .begin_array()
            .f64_value(1.5)
            .null_value()
            .bool_value(false)
            .end_array()
            .end_object();
        let v = parse_json(&w.finish()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "fwd \"quoted\"");
        assert_eq!(v.get("dur").unwrap().as_f64().unwrap(), 0.125);
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[1], Value::Null);
    }

    #[test]
    fn parses_numbers_with_exponents() {
        let v = parse_json("[1e3, -2.5E-2, 0.0, -0]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_f64().unwrap(), 1000.0);
        assert_eq!(a[1].as_f64().unwrap(), -0.025);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} x").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_json(r#""Aé😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé😀");
    }

    #[test]
    fn trace_validator_accepts_minimal_trace() {
        let json = r#"{"traceEvents":[
            {"name":"proc","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"rank0"}},
            {"name":"step","ph":"X","pid":0,"tid":1,"ts":0,"dur":10},
            {"name":"fwd","ph":"X","pid":0,"tid":1,"ts":2,"dur":3},
            {"name":"mark","ph":"i","pid":0,"tid":2,"ts":5}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.events, 4);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.tracks, 2);
        assert_eq!(stats.pids, 1);
    }

    #[test]
    fn trace_validator_rejects_non_monotone_track() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":1,"ts":10,"dur":1},
            {"name":"b","ph":"X","pid":0,"tid":1,"ts":5,"dur":1}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("ts 5"), "{err}");
    }

    #[test]
    fn trace_validator_allows_same_ts_on_different_tracks() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":1,"ts":10,"dur":1},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":0,"dur":1}
        ]}"#;
        assert!(validate_chrome_trace(json).is_ok());
    }

    #[test]
    fn trace_validator_rejects_missing_fields() {
        let json = r#"{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":1,"ts":10}]}"#;
        assert!(validate_chrome_trace(json).unwrap_err().contains("dur"));
        let json = r#"{"traceEvents":[{"ph":"X","pid":0,"tid":1,"ts":10,"dur":1}]}"#;
        assert!(validate_chrome_trace(json).unwrap_err().contains("name"));
    }

    #[test]
    fn step_time_validator_accepts_own_writer_output() {
        use crate::summary::{summaries_to_json, RunSummary};
        let mut run = RunSummary {
            label: "EfficientNet-B2 @ 1024 cores".into(),
            backend: "torus2d".into(),
            cores: 1024,
            global_batch: 32768,
            steps: 13_685,
            step_ms: 71.0,
            all_reduce_pct: 1.0,
            overlap_pct: 88.9,
            bn_sync_pct: 0.2,
            images_per_sec: 450_000.0,
            total_virtual_s: 71.0e-3,
            ..Default::default()
        };
        let doc = summaries_to_json(std::slice::from_ref(&run));
        assert_eq!(validate_step_time_json(&doc).unwrap(), 1);
        run.overlap_pct = 120.0;
        let doc = summaries_to_json(std::slice::from_ref(&run));
        assert!(validate_step_time_json(&doc)
            .unwrap_err()
            .contains("overlap_pct"));
    }

    #[test]
    fn step_time_validator_rejects_old_schema_and_missing_fields() {
        assert!(validate_step_time_json(r#"{"runs":[]}"#)
            .unwrap_err()
            .contains("schema"));
        let v1 = r#"{"schema":"bench_step_time_v1","runs":[{"label":"x"}]}"#;
        assert!(validate_step_time_json(v1).unwrap_err().contains("schema"));
        let empty = format!(
            r#"{{"schema":"{}","runs":[]}}"#,
            crate::summary::STEP_TIME_SCHEMA
        );
        assert!(validate_step_time_json(&empty)
            .unwrap_err()
            .contains("empty"));
        let no_backend = format!(
            r#"{{"schema":"{}","runs":[{{"label":"x","cores":1,"global_batch":1,"steps":0,"step_ms":1,"images_per_sec":1,"all_reduce_pct":1,"overlap_pct":0,"bn_sync_pct":0}}]}}"#,
            crate::summary::STEP_TIME_SCHEMA
        );
        assert!(validate_step_time_json(&no_backend)
            .unwrap_err()
            .contains("backend"));
    }
}
