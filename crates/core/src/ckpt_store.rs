//! The one snapshot type and its durable on-disk store.
//!
//! [`DurableSnapshot`] is the only snapshot in the crate: model weights
//! and BN running statistics as exact `u32` bit patterns, optimizer
//! slots, EMA state, the sample-granular [`Progress`] cursor and the
//! epoch history. [`DurableSnapshot::capture`] reads it straight off a
//! replica and [`DurableSnapshot::apply`] writes it straight back, so a
//! restore is bitwise and a resumed run stays on the original's
//! trajectory. The trainer keeps one in memory (plus its two RNG
//! streams) as the preemption rewind anchor and persists the same type
//! through [`CkptStore`] for elastic resume, divergence rollback and
//! quarantine — the artifact the §3.3 evaluator pipeline ships between
//! TPUs. At a checkpoint step one capture serves both, so a rank holds
//! one snapshot at a time. The store guarantees **no silent load ever
//! happens**.
//!
//! Properties of the store:
//!
//! - **Atomic writes**: checkpoints are written to a temp file, fsynced,
//!   and renamed into place (then the directory is fsynced), so a crash
//!   mid-write never leaves a half-visible checkpoint.
//! - **Corruption detection**: a custom binary format (bit-exact f32
//!   payloads at 4 bytes each) with a CRC-32 per record *and* a
//!   whole-file CRC-32 trailer. CRC-32 detects every 1- and 2-bit error
//!   at these file sizes, so a single flipped bit is always caught —
//!   the property the proptest suite pins down.
//! - **Versioned manifest**: a human-readable index of the live
//!   checkpoints, itself checksummed and atomically replaced; a corrupt
//!   manifest degrades to a directory scan, never to a wrong answer. An
//!   entry records a file as it was *written* (its `len`/`crc` come out
//!   of the traversal that encoded it and are carried from manifest to
//!   manifest), so a file that rots later disagrees with its entry.
//! - **One pass each way, no file-sized copy**: a save streams its
//!   encoding into the temp file through one fixed 256 KiB buffer,
//!   checksumming each chunk while it is in cache ([`Crc32`] runs the
//!   record CRC, the trailer and the manifest CRC off the same
//!   traversal), and reads no checkpoint back; record lengths, which
//!   precede their payloads, come from shape arithmetic. A load streams
//!   the file through the same size of buffer, checksumming and
//!   decoding in one pass. [`DurableSnapshot::to_bytes`] and
//!   [`DurableSnapshot::from_bytes`] are the same encoder and decoder
//!   with a `Vec` or a slice for the file.
//! - **Retention/GC**: only the newest `retain` checkpoints are kept.
//! - **Fallback on load**: [`CkptStore::load_latest_valid`] walks
//!   candidates newest-first, skipping (and counting) corrupt files, and
//!   returns the newest checkpoint that fully validates.
//! - **Chaos hooks**: [`CorruptionInjector`] flips seeded bits in stored
//!   checkpoints so the chaos harness can prove the detection story.

use crate::report::EpochRecord;
use ets_efficientnet::EfficientNet;
use ets_nn::{Ema, EmaState, Layer};
use ets_obs::{phase as obs_phase, Lane, Recorder};
use ets_optim::{Optimizer, OptimizerState};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Current durable-checkpoint format version.
pub const CKPT_STORE_VERSION: u32 = 1;

/// File magic: identifies the format and its major revision.
const MAGIC: &[u8; 8] = b"ETSCKPT1";

/// Extension of checkpoint files in the store directory.
const CKPT_EXT: &str = "ets";

/// Manifest file name.
const MANIFEST: &str = "MANIFEST";

/// Bytes of a file with no records: magic, version, step, record count
/// and the whole-file trailer.
const ENVELOPE_LEN: usize = MAGIC.len() + 4 + 8 + 4 + 4;

// ---------------------------------------------------------------------------
// CRC-32 (ISO-HDLC, the zlib polynomial), slice-by-16.
// ---------------------------------------------------------------------------

/// `T[0]` is the classic byte table; `T[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so sixteen input bytes fold into the
/// state with sixteen independent lookups instead of a sixteen-deep
/// dependency chain.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Folds `data` into each of `states` in one traversal. Twelve of the
/// sixteen lookups per block do not depend on the state, so a second
/// state over the same bytes (a record CRC beside the file CRC) costs
/// four more lookups, not a second pass.
fn crc32_fold<const N: usize>(mut states: [u32; N], data: &[u8]) -> [u32; N] {
    let t = &CRC32_TABLES;
    let at = |k: usize, word: u32, shift: u32| t[k][(word >> shift) as u8 as usize];
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (word(0), word(4), word(8), word(12));
        let shared = (at(11, w1, 0) ^ at(10, w1, 8) ^ at(9, w1, 16) ^ at(8, w1, 24))
            ^ (at(7, w2, 0) ^ at(6, w2, 8) ^ at(5, w2, 16) ^ at(4, w2, 24))
            ^ (at(3, w3, 0) ^ at(2, w3, 8) ^ at(1, w3, 16) ^ at(0, w3, 24));
        for s in &mut states {
            let w = w0 ^ *s;
            *s = shared ^ at(15, w, 0) ^ at(14, w, 8) ^ at(13, w, 16) ^ at(12, w, 24);
        }
    }
    for &byte in blocks.remainder() {
        for s in &mut states {
            *s = at(0, *s ^ byte as u32, 0) ^ (*s >> 8);
        }
    }
    states
}

/// Streaming CRC-32 (ISO-HDLC / zlib polynomial, init & xorout `!0`):
/// `update` in any number of pieces, `finish` at any point. `finish`
/// does not consume the state, so the CRC of a prefix and of the whole
/// come from one traversal.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(!0)
    }
}

impl Crc32 {
    /// The state of the empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extends the message by `data`.
    pub fn update(&mut self, data: &[u8]) {
        [self.0] = crc32_fold([self.0], data);
    }

    /// Extends this message and `other`'s by the same `data`, reading
    /// it once.
    pub fn update_both(&mut self, other: &mut Crc32, data: &[u8]) {
        [self.0, other.0] = crc32_fold([self.0, other.0], data);
    }

    /// CRC-32 of the message so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 of `data` (ISO-HDLC / zlib polynomial, init & xorout `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

// ---------------------------------------------------------------------------
// Typed errors.
// ---------------------------------------------------------------------------

/// Typed failure of a checkpoint-store operation. Every corruption mode
/// surfaces as one of these — never as a silently wrong snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying filesystem error (message form; `io::Error` is not
    /// `Clone`/`PartialEq`).
    Io(String),
    /// File too short to hold even the envelope.
    TooShort { len: usize },
    /// Magic bytes do not match `MAGIC`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A CRC-32 check failed (`what` names the record or `"file"`).
    ChecksumMismatch {
        what: &'static str,
        expected: u32,
        actual: u32,
    },
    /// Structurally invalid content (truncated record, bad count, ...).
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CkptError::TooShort { len } => {
                write!(f, "checkpoint file too short ({len} bytes)")
            }
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::ChecksumMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch on {what}: expected {expected:08x}, got {actual:08x}"
            ),
            CkptError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

fn io_err(e: std::io::Error) -> CkptError {
    CkptError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// The streaming encoder and decoder of the little-endian format.
// ---------------------------------------------------------------------------

/// Bytes the encoder and the decoder stage between a snapshot and its
/// file: a save or a load holds this much of the file at once, never
/// the file.
const CHUNK: usize = 256 << 10;

/// The one encoder: little-endian fields staged through a fixed
/// [`CHUNK`]-byte buffer into any sink (the temp file of a save, the
/// `Vec` of [`DurableSnapshot::to_bytes`]). The whole-file CRC, and
/// inside a record's payload the record CRC too, fold over the staged
/// bytes while they are in cache, so the bytes are traversed once.
struct Encoder<'a> {
    sink: &'a mut dyn Write,
    buf: Box<[u8]>,
    /// `buf[..used]` is encoded, `buf[..fed]` of it folded into the CRCs.
    used: usize,
    fed: usize,
    /// Bytes handed to the sink.
    flushed: u64,
    file: Crc32,
    /// The open record's payload CRC.
    record: Option<Crc32>,
    /// The sink's first error: later output is dropped and
    /// [`Encoder::finish`] returns it.
    err: Option<io::Error>,
}

impl<'a> Encoder<'a> {
    fn new(sink: &'a mut dyn Write) -> Self {
        Encoder {
            sink,
            buf: vec![0; CHUNK].into_boxed_slice(),
            used: 0,
            fed: 0,
            flushed: 0,
            file: Crc32::new(),
            record: None,
            err: None,
        }
    }
    /// Bytes encoded so far.
    fn len(&self) -> u64 {
        self.flushed + self.used as u64
    }
    fn fold(&mut self) {
        let fresh = &self.buf[self.fed..self.used];
        match &mut self.record {
            Some(record) => self.file.update_both(record, fresh),
            None => self.file.update(fresh),
        }
        self.fed = self.used;
    }
    fn drain(&mut self) {
        self.fold();
        if self.err.is_none() {
            self.err = self.sink.write_all(&self.buf[..self.used]).err();
        }
        self.flushed += self.used as u64;
        (self.used, self.fed) = (0, 0);
    }
    /// The free part of the buffer, after draining it if it has fewer
    /// than `at_least` bytes.
    fn room(&mut self, at_least: usize) -> &mut [u8] {
        if CHUNK - self.used < at_least {
            self.drain();
        }
        &mut self.buf[self.used..]
    }
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn bytes(&mut self, mut v: &[u8]) {
        while !v.is_empty() {
            let room = self.room(1);
            let n = v.len().min(room.len());
            room[..n].copy_from_slice(&v[..n]);
            self.used += n;
            v = &v[n..];
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    /// A `u64` count, then each element as `N` little-endian bytes,
    /// written by a fixed-width loop that compiles to block copies.
    fn array<T: Copy, const N: usize>(&mut self, mut v: &[T], le: impl Fn(T) -> [u8; N]) {
        self.u64(v.len() as u64);
        while !v.is_empty() {
            let room = self.room(N);
            let (now, rest) = v.split_at(v.len().min(room.len() / N));
            for (dst, &x) in room.chunks_exact_mut(N).zip(now) {
                dst.copy_from_slice(&le(x));
            }
            self.used += N * now.len();
            v = rest;
        }
    }
    fn u32s(&mut self, v: &[u32]) {
        self.array(v, u32::to_le_bytes);
    }
    fn u64s(&mut self, v: &[u64]) {
        self.array(v, u64::to_le_bytes);
    }
    fn usizes(&mut self, v: &[usize]) {
        self.array(v, |x| (x as u64).to_le_bytes());
    }
    fn tensor(&mut self, name: &str, shape: &[usize], bits: &[u32]) {
        self.str(name);
        self.usizes(shape);
        self.u32s(bits);
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v.to_bits());
            }
        }
    }
    /// Opens a record's payload: what follows, up to
    /// [`Encoder::end_record`], folds into its CRC as well.
    fn begin_record(&mut self) {
        self.fold();
        self.record = Some(Crc32::new());
    }
    /// Closes the payload and returns its CRC-32.
    fn end_record(&mut self) -> u32 {
        self.fold();
        self.record.take().expect("a record is open").finish()
    }
    /// CRC-32 of everything encoded so far.
    fn crc(&mut self) -> u32 {
        self.fold();
        self.file.finish()
    }
    /// Drains the buffer: the length and CRC-32 of all that was encoded,
    /// or the sink's first error.
    fn finish(mut self) -> io::Result<(u64, u32)> {
        self.drain();
        match self.err.take() {
            Some(e) => Err(e),
            None => self
                .sink
                .flush()
                .map(|()| (self.flushed, self.file.finish())),
        }
    }
}

/// The one decoder: the file pulled from a source through a fixed
/// [`CHUNK`]-byte buffer, with the whole-file CRC, and inside a record's
/// payload the record CRC too, folded over each chunk, so a load holds
/// no file-sized copy either. Every read is bounded by the scope it is
/// in (the body, or the open record's payload), so a length taken from
/// the file cannot reach past it or size an allocation beyond it.
struct Decoder<'a> {
    src: &'a mut dyn Read,
    buf: Box<[u8]>,
    /// `buf[at..filled]` is unread; `buf[fed..at]` is read but not yet
    /// folded.
    filled: usize,
    at: usize,
    fed: usize,
    /// Body bytes still in `src`.
    unread: u64,
    /// Body bytes consumed, and where the current scope ends.
    pos: u64,
    end: u64,
    file: Crc32,
    /// The open record's payload CRC.
    record: Option<Crc32>,
}

impl<'a> Decoder<'a> {
    /// A decoder of a body of `len` bytes at the front of `src`.
    fn new(src: &'a mut dyn Read, len: u64) -> Self {
        Decoder {
            src,
            buf: vec![0; CHUNK].into_boxed_slice(),
            filled: 0,
            at: 0,
            fed: 0,
            unread: len,
            pos: 0,
            end: len,
            file: Crc32::new(),
            record: None,
        }
    }
    fn fold(&mut self) {
        let fresh = &self.buf[self.fed..self.at];
        match &mut self.record {
            Some(record) => self.file.update_both(record, fresh),
            None => self.file.update(fresh),
        }
        self.fed = self.at;
    }
    /// Folds what was read, drops it and tops the buffer up from `src`.
    fn refill(&mut self) -> Result<(), CkptError> {
        self.fold();
        self.buf.copy_within(self.at..self.filled, 0);
        (self.filled, self.at, self.fed) = (self.filled - self.at, 0, 0);
        let n = (CHUNK - self.filled).min(usize::try_from(self.unread).unwrap_or(usize::MAX));
        let to = &mut self.buf[self.filled..self.filled + n];
        self.src.read_exact(to).map_err(io_err)?;
        self.filled += n;
        self.unread -= n as u64;
        Ok(())
    }
    /// Consumes the next unread bytes: a multiple of `unit` (≤ 8), at
    /// most `max` and at least one unit, refilling the buffer first if
    /// it holds less than a unit. Only for bytes a [`Decoder::check`]
    /// has admitted.
    fn next(&mut self, unit: usize, max: usize) -> Result<&[u8], CkptError> {
        if self.filled - self.at < unit && self.unread > 0 {
            self.refill()?;
        }
        let n = max.min(self.filled - self.at) / unit * unit;
        if n == 0 {
            return Err(CkptError::Malformed("body ends inside a field".to_string()));
        }
        (self.at, self.pos) = (self.at + n, self.pos + n as u64);
        Ok(&self.buf[self.at - n..self.at])
    }
    /// Whether the current scope has `n` more bytes.
    fn check(&self, n: u64) -> Result<(), CkptError> {
        // `n` comes from the file: near `u64::MAX` an unchecked
        // `pos + n` wraps past the bound check.
        match self.pos.checked_add(n) {
            Some(end) if end <= self.end => Ok(()),
            _ => Err(CkptError::Malformed(format!(
                "read of {n} bytes at offset {} overruns a scope ending at {}",
                self.pos, self.end
            ))),
        }
    }
    fn skip(&mut self, n: u64) -> Result<(), CkptError> {
        self.check(n)?;
        let end = self.pos + n;
        while self.pos < end {
            self.next(1, usize::try_from(end - self.pos).unwrap_or(usize::MAX))?;
        }
        Ok(())
    }
    fn read(&mut self, out: &mut [u8]) -> Result<(), CkptError> {
        self.check(out.len() as u64)?;
        let mut at = 0;
        while at < out.len() {
            let got = self.next(1, out.len() - at)?;
            out[at..at + got.len()].copy_from_slice(got);
            at += got.len();
        }
        Ok(())
    }
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        let mut b = [0; N];
        self.read(&mut b)?;
        Ok(b)
    }
    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.bytes::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32, CkptError> {
        self.bytes().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Result<u64, CkptError> {
        self.bytes().map(u64::from_le_bytes)
    }
    fn usize(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Malformed("usize overflow".to_string()))
    }
    fn str(&mut self) -> Result<String, CkptError> {
        let n = self.u32()?;
        self.check(n as u64)?; // before the length sizes a buffer
        let mut bytes = vec![0; n as usize];
        self.read(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| CkptError::Malformed("non-UTF-8 string".to_string()))
    }
    /// A `u64` count, then that many `N`-byte little-endian elements.
    fn array<T, const N: usize>(
        &mut self,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CkptError> {
        let n = self.usize()?;
        let bytes = n
            .checked_mul(N)
            .ok_or_else(|| CkptError::Malformed(format!("{n} elements of {N} bytes overflow")))?;
        self.check(bytes as u64)?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let got = self.next(N, N * (n - out.len()))?;
            let words = got.chunks_exact(N);
            out.extend(words.map(|c| from_le(c.try_into().expect("chunks of N"))));
        }
        Ok(out)
    }
    fn u32s(&mut self) -> Result<Vec<u32>, CkptError> {
        self.array(u32::from_le_bytes)
    }
    fn u64s(&mut self) -> Result<Vec<u64>, CkptError> {
        self.array(u64::from_le_bytes)
    }
    fn usizes(&mut self) -> Result<Vec<usize>, CkptError> {
        self.u64s()?
            .into_iter()
            .map(|v| {
                usize::try_from(v).map_err(|_| CkptError::Malformed("usize overflow".to_string()))
            })
            .collect()
    }
    /// A `u32` count, then that many `(name, shape, bits)` tensors.
    fn tensors(&mut self) -> Result<Vec<TensorRecord>, CkptError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(TensorRecord {
                name: self.str()?,
                shape: self.usizes()?,
                bits: self.u32s()?,
            });
        }
        Ok(out)
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, CkptError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f64::from_bits(self.u64()?))),
            other => Err(CkptError::Malformed(format!(
                "invalid option byte {other} in history"
            ))),
        }
    }
    /// The current scope must be used up.
    fn finished(&self) -> Result<(), CkptError> {
        if self.pos != self.end {
            return Err(CkptError::Malformed(format!(
                "{} trailing bytes after payload",
                self.end - self.pos
            )));
        }
        Ok(())
    }
    /// Opens a payload of `len` bytes as the scope, folding into its own
    /// CRC as well; returns the scope it closes back to.
    fn begin_record(&mut self, len: u64) -> Result<u64, CkptError> {
        self.check(len)?;
        self.fold();
        self.record = Some(Crc32::new());
        Ok(std::mem::replace(&mut self.end, self.pos + len))
    }
    /// Skips what the payload has left (a decode that stopped early),
    /// closes it and returns its CRC-32.
    fn end_record(&mut self, outer: u64) -> Result<u32, CkptError> {
        self.skip(self.end - self.pos)?;
        self.fold();
        self.end = outer;
        Ok(self.record.take().expect("a record is open").finish())
    }
    /// Folds the rest of the body into the file CRC, whatever a walk
    /// that stopped early left unread, and returns the CRC-32 state and
    /// the source, positioned at the trailer.
    fn finish_body(mut self) -> Result<(Crc32, &'a mut dyn Read), CkptError> {
        self.record = None;
        loop {
            self.at = self.filled;
            if self.unread == 0 {
                self.fold();
                return Ok((self.file, self.src));
            }
            self.refill()?;
        }
    }
}

/// Stores a decoded record in its slot.
fn store<T>(slot: &mut Option<T>, decoded: Result<T, CkptError>) -> Result<(), CkptError> {
    *slot = Some(decoded?);
    Ok(())
}

// ---------------------------------------------------------------------------
// The durable snapshot: the full elastic-resume state.
// ---------------------------------------------------------------------------

/// Serialized tensor: name, shape and exact f32 bit patterns.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorRecord {
    pub name: String,
    pub shape: Vec<usize>,
    pub bits: Vec<u32>,
}

/// Sample-granular training progress. Steps are not a stable clock once
/// the world can resize (a smaller world takes more, smaller steps per
/// epoch), so epochs and LR schedules key off *samples consumed*:
/// `consumed_samples / global_batch` is the effective schedule step, and
/// `sample_off` addresses the epoch permutation directly so a resized
/// world resumes mid-epoch without skipping or repeating a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Progress {
    /// Global optimizer step counter (monotonic across resizes).
    pub step: u64,
    /// 1-based epoch in progress.
    pub epoch: u64,
    /// Samples consumed within the current epoch (offset into the epoch
    /// permutation).
    pub sample_off: u64,
    /// Optimizer steps taken within the current epoch.
    pub steps_this_epoch: u64,
    /// Samples consumed since step 0 (drives elastic LR schedules).
    pub consumed_samples: u64,
    /// Divergence-guard LR multiplier (1.0 until a rollback halves it).
    pub lr_scale: f32,
    /// Running loss sum for the current epoch.
    pub loss_sum: f64,
    /// Last applied learning rate.
    pub last_lr: f32,
}

impl Progress {
    /// Step 0 of epoch 1.
    pub fn fresh() -> Self {
        Progress {
            step: 0,
            epoch: 1,
            sample_off: 0,
            steps_this_epoch: 0,
            consumed_samples: 0,
            lr_scale: 1.0,
            loss_sum: 0.0,
            last_lr: 0.0,
        }
    }
}

/// Everything a replica needs to continue training bit-exactly from a
/// step: model weights + BN running statistics, optimizer slots, EMA
/// state, per-epoch history, and the sample-granular progress cursor
/// (identical on every rank). A shrunken world resumes from it, a
/// diverged or poisoned one rolls back to it, and with the two RNG
/// streams beside it a preempted one rewinds to it.
#[derive(Clone, Debug, PartialEq)]
pub struct DurableSnapshot {
    /// Where training stood at capture.
    pub progress: Progress,
    /// World size at capture (informational; the restorer may resume
    /// with fewer replicas).
    pub world: u64,
    /// Model parameters, in `visit_params` order.
    pub params: Vec<TensorRecord>,
    /// BN running means/variances, in `visit_bns` order (f32 bits).
    pub bn_running: Vec<(Vec<u32>, Vec<u32>)>,
    /// Optimizer slot state (bit-exact).
    pub opt_state: OptimizerState,
    /// EMA shadow state, when the run uses EMA.
    pub ema: Option<EmaState>,
    /// Per-epoch records accumulated so far.
    pub history: Vec<EpochRecord>,
}

/// Appends one record's payload to the file being written.
type RecordEncoder = fn(&DurableSnapshot, &mut Encoder);

fn to_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn copy_bits(dst: &mut [f32], bits: &[u32]) {
    for (d, &b) in dst.iter_mut().zip(bits) {
        *d = f32::from_bits(b);
    }
}

impl DurableSnapshot {
    /// Captures a replica's full state (identical on every rank).
    pub fn capture(
        model: &mut EfficientNet,
        optimizer: &dyn Optimizer,
        ema: Option<&Ema>,
        progress: &Progress,
        world: usize,
        history: &[EpochRecord],
    ) -> DurableSnapshot {
        let mut params = Vec::new();
        model.visit_params(&mut |p| {
            params.push(TensorRecord {
                name: p.name.clone(),
                shape: p.value.shape().dims().to_vec(),
                bits: to_bits(p.value.data()),
            });
        });
        let mut bn_running = Vec::new();
        model.visit_bns(&mut |bn| {
            bn_running.push((to_bits(&bn.running_mean), to_bits(&bn.running_var)));
        });
        DurableSnapshot {
            progress: *progress,
            world: world as u64,
            params,
            bn_running,
            opt_state: optimizer.export_state(),
            ema: ema.map(Ema::export_state),
            history: history.to_vec(),
        }
    }

    /// Restores the snapshot into a structurally-identical replica and
    /// returns the captured progress and epoch history. Panics with a
    /// descriptive message on any mismatch (name, shape, count, EMA
    /// presence).
    pub fn apply(
        &self,
        model: &mut EfficientNet,
        optimizer: &mut dyn Optimizer,
        ema: &mut Option<Ema>,
    ) -> (Progress, Vec<EpochRecord>) {
        let mut i = 0;
        model.visit_params(&mut |p| {
            let rec = self
                .params
                .get(i)
                .unwrap_or_else(|| panic!("snapshot too short at param {i} ({})", p.name));
            assert_eq!(rec.name, p.name, "param order/name mismatch at {i}");
            assert_eq!(
                rec.shape,
                p.value.shape().dims(),
                "shape mismatch for {}",
                p.name
            );
            copy_bits(p.value.data_mut(), &rec.bits);
            i += 1;
        });
        assert_eq!(i, self.params.len(), "snapshot has extra params");
        let mut j = 0;
        model.visit_bns(&mut |bn| {
            let (m, v) = &self.bn_running[j];
            assert_eq!(m.len(), bn.running_mean.len(), "BN {j} channel mismatch");
            copy_bits(&mut bn.running_mean, m);
            copy_bits(&mut bn.running_var, v);
            j += 1;
        });
        assert_eq!(j, self.bn_running.len(), "snapshot has extra BN records");
        optimizer.import_state(&self.opt_state, model);
        match (ema.as_mut(), self.ema.as_ref()) {
            (Some(e), Some(state)) => e.import_state(state),
            (None, None) => {}
            _ => panic!("EMA configuration changed between checkpoint and restore"),
        }
        (self.progress, self.history.clone())
    }

    /// The records of a file, in file order.
    const RECORDS: [(&'static str, RecordEncoder); 6] = [
        ("meta", Self::encode_meta),
        ("params", Self::encode_params),
        ("bn", Self::encode_bn),
        ("opt", Self::encode_opt),
        ("ema", Self::encode_ema),
        ("history", Self::encode_history),
    ];

    /// Serializes to the checked binary format: envelope, named records
    /// with per-record CRC-32, whole-file CRC-32 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the file into `sink` through the encoder's fixed buffer
    /// and returns its length and the CRC-32 of all of it, trailer
    /// included (what a [`ManifestEntry`] records), from the same
    /// traversal. A record's length precedes its payload, so it comes
    /// from [`DurableSnapshot::record_lens`], and the payload is checked
    /// against it.
    fn write_to(&self, sink: &mut dyn Write) -> io::Result<(u64, u32)> {
        let mut w = Encoder::new(sink);
        w.bytes(MAGIC);
        w.u32(CKPT_STORE_VERSION);
        w.u64(self.progress.step);
        w.u32(Self::RECORDS.len() as u32);
        for ((name, encode), len) in Self::RECORDS.into_iter().zip(self.record_lens()) {
            w.str(name);
            w.u64(len as u64);
            w.begin_record();
            let start = w.len();
            encode(self, &mut w);
            assert_eq!(w.len() - start, len as u64, "length of the {name} record");
            let crc = w.end_record();
            w.u32(crc);
        }
        let trailer = w.crc();
        w.u32(trailer);
        w.finish()
    }

    /// Payload length of each of [`DurableSnapshot::RECORDS`], by shape
    /// arithmetic alone.
    fn record_lens(&self) -> [usize; 6] {
        let u32s = |v: &[u32]| 8 + 4 * v.len();
        let tensor = |name: &str, shape: &[usize], bits: &[u32]| {
            4 + name.len() + 8 + 8 * shape.len() + u32s(bits)
        };
        let opt_f64 = |v: Option<f64>| if v.is_some() { 9 } else { 1 };
        let params = self.params.iter();
        let bn = self.bn_running.iter();
        let ema = self.ema.iter().flat_map(|e| &e.shadow);
        [
            5 * 8 + 4 + 8 + 4,
            4 + params
                .map(|t| tensor(&t.name, &t.shape, &t.bits))
                .sum::<usize>(),
            4 + bn.map(|(m, v)| u32s(m) + u32s(v)).sum::<usize>(),
            8 + 8 * self.opt_state.scalars.len()
                + 4
                + self.opt_state.banks.iter().map(|b| u32s(b)).sum::<usize>(),
            1 + self.ema.as_ref().map_or(0, |_| 4 + 8 + 4)
                + ema.map(|(n, s, b)| tensor(n, s, b)).sum::<usize>(),
            4 + self
                .history
                .iter()
                .map(|r| 8 + 4 + 4 + opt_f64(r.eval_top1) + opt_f64(r.eval_top5))
                .sum::<usize>(),
        ]
    }

    /// Exact length of [`DurableSnapshot::to_bytes`].
    fn encoded_len(&self) -> usize {
        let framing = Self::RECORDS.iter().map(|(name, _)| 4 + name.len() + 8 + 4);
        ENVELOPE_LEN + framing.sum::<usize>() + self.record_lens().iter().sum::<usize>()
    }

    /// Parses and fully validates bytes produced by
    /// [`DurableSnapshot::to_bytes`]. Every corruption mode — flipped
    /// bit, truncation, bad structure — returns a typed [`CkptError`];
    /// success means every checksum passed.
    pub fn from_bytes(bytes: &[u8]) -> Result<DurableSnapshot, CkptError> {
        Self::decode(&mut &bytes[..], bytes.len() as u64).map(|(snap, _)| snap)
    }

    /// Decodes the `len`-byte file at the front of `src` through the
    /// decoder's fixed buffer: the snapshot, and the CRC-32 of the whole
    /// file from the same traversal (the manifest cross-check).
    fn decode(src: &mut dyn Read, len: u64) -> Result<(DurableSnapshot, u32), CkptError> {
        if len < ENVELOPE_LEN as u64 {
            return Err(CkptError::TooShort { len: len as usize });
        }
        // One traversal: `parse_body` folds what it walks into the file
        // CRC (each payload into its record CRC in the same loop), and
        // what it did not reach, having stopped at an error, is folded
        // by `finish_body`. The whole-file CRC is still judged first: it
        // guarantees any single flipped bit is caught even if it would
        // happen to parse, and reports it as a "file" mismatch whatever
        // else the flip also broke.
        let mut body = Decoder::new(src, len - 4);
        let parsed = Self::parse_body(&mut body);
        let (mut file, src) = body.finish_body()?;
        let mut trailer = [0; 4];
        src.read_exact(&mut trailer).map_err(io_err)?;
        let (expected, actual) = (u32::from_le_bytes(trailer), file.finish());
        if expected != actual {
            return Err(CkptError::ChecksumMismatch {
                what: "file",
                expected,
                actual,
            });
        }
        file.update(&trailer);
        Ok((parsed?, file.finish()))
    }

    /// Walks the envelope and records of the body. A payload is decoded
    /// as it streams in, but its CRC, which follows it, outranks what
    /// the decode found, as if it had been checked first.
    fn parse_body(r: &mut Decoder) -> Result<DurableSnapshot, CkptError> {
        if &r.bytes()? != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.u32()?;
        if version != CKPT_STORE_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        let step = r.u64()?;
        let count = r.u32()?;
        let mut meta = None;
        let mut params = None;
        let mut bn = None;
        let mut opt = None;
        let mut ema = None;
        let mut history = None;
        for _ in 0..count {
            let name = r.str()?;
            let len = r.u64()?;
            let outer = r.begin_record(len)?;
            let decoded = match name.as_str() {
                "meta" => store(&mut meta, Self::decode_meta(r, step)),
                "params" => store(&mut params, Self::decode_params(r)),
                "bn" => store(&mut bn, Self::decode_bn(r)),
                "opt" => store(&mut opt, Self::decode_opt(r)),
                "ema" => store(&mut ema, Self::decode_ema(r)),
                "history" => store(&mut history, Self::decode_history(r)),
                // Unknown records from a future minor revision are
                // checksum-verified and skipped.
                _ => Ok(()),
            };
            let rec_actual = r.end_record(outer)?;
            let rec_expected = r.u32()?;
            if rec_expected != rec_actual {
                return Err(CkptError::ChecksumMismatch {
                    what: "record",
                    expected: rec_expected,
                    actual: rec_actual,
                });
            }
            decoded?;
        }
        r.finished()?;
        let missing = |what: &str| CkptError::Malformed(format!("missing {what} record"));
        let (progress, world) = meta.ok_or_else(|| missing("meta"))?;
        Ok(DurableSnapshot {
            progress,
            world,
            params: params.ok_or_else(|| missing("params"))?,
            bn_running: bn.ok_or_else(|| missing("bn"))?,
            opt_state: opt.ok_or_else(|| missing("opt"))?,
            ema: ema.ok_or_else(|| missing("ema"))?,
            history: history.ok_or_else(|| missing("history"))?,
        })
    }

    fn encode_meta(&self, w: &mut Encoder) {
        let p = &self.progress;
        w.u64(p.epoch);
        w.u64(p.sample_off);
        w.u64(p.steps_this_epoch);
        w.u64(p.consumed_samples);
        w.u64(self.world);
        w.u32(p.lr_scale.to_bits());
        w.u64(p.loss_sum.to_bits());
        w.u32(p.last_lr.to_bits());
    }

    /// The progress cursor (`step` travels in the envelope) and the
    /// world size.
    fn decode_meta(r: &mut Decoder, step: u64) -> Result<(Progress, u64), CkptError> {
        let (epoch, sample_off, steps_this_epoch, consumed_samples, world) =
            (r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let progress = Progress {
            step,
            epoch,
            sample_off,
            steps_this_epoch,
            consumed_samples,
            lr_scale: f32::from_bits(r.u32()?),
            loss_sum: f64::from_bits(r.u64()?),
            last_lr: f32::from_bits(r.u32()?),
        };
        r.finished()?;
        Ok((progress, world))
    }

    fn encode_params(&self, w: &mut Encoder) {
        w.u32(self.params.len() as u32);
        for rec in &self.params {
            w.tensor(&rec.name, &rec.shape, &rec.bits);
        }
    }

    fn decode_params(r: &mut Decoder) -> Result<Vec<TensorRecord>, CkptError> {
        let out = r.tensors()?;
        r.finished()?;
        Ok(out)
    }

    fn encode_bn(&self, w: &mut Encoder) {
        w.u32(self.bn_running.len() as u32);
        for (mean, var) in &self.bn_running {
            w.u32s(mean);
            w.u32s(var);
        }
    }

    #[allow(clippy::type_complexity)]
    fn decode_bn(r: &mut Decoder) -> Result<Vec<(Vec<u32>, Vec<u32>)>, CkptError> {
        let n = r.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push((r.u32s()?, r.u32s()?));
        }
        r.finished()?;
        Ok(out)
    }

    fn encode_opt(&self, w: &mut Encoder) {
        w.u64s(&self.opt_state.scalars);
        w.u32(self.opt_state.banks.len() as u32);
        for bank in &self.opt_state.banks {
            w.u32s(bank);
        }
    }

    fn decode_opt(r: &mut Decoder) -> Result<OptimizerState, CkptError> {
        let scalars = r.u64s()?;
        let n = r.u32()? as usize;
        let mut banks = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            banks.push(r.u32s()?);
        }
        r.finished()?;
        Ok(OptimizerState { scalars, banks })
    }

    fn encode_ema(&self, w: &mut Encoder) {
        match &self.ema {
            None => w.u8(0),
            Some(state) => {
                w.u8(1);
                w.u32(state.decay_bits);
                w.u64(state.updates);
                w.u32(state.shadow.len() as u32);
                for (name, shape, bits) in &state.shadow {
                    w.tensor(name, shape, bits);
                }
            }
        }
    }

    fn decode_ema(r: &mut Decoder) -> Result<Option<EmaState>, CkptError> {
        let present = r.u8()?;
        let out = match present {
            0 => None,
            1 => {
                let (decay_bits, updates, shadow) = (r.u32()?, r.u64()?, r.tensors()?);
                let shadow = shadow.into_iter().map(|t| (t.name, t.shape, t.bits));
                Some(EmaState {
                    decay_bits,
                    updates,
                    shadow: shadow.collect(),
                })
            }
            other => {
                return Err(CkptError::Malformed(format!(
                    "invalid EMA presence byte {other}"
                )))
            }
        };
        r.finished()?;
        Ok(out)
    }

    fn encode_history(&self, w: &mut Encoder) {
        w.u32(self.history.len() as u32);
        for rec in &self.history {
            w.u64(rec.epoch);
            w.u32(rec.train_loss.to_bits());
            w.u32(rec.lr.to_bits());
            w.opt_f64(rec.eval_top1);
            w.opt_f64(rec.eval_top5);
        }
    }

    fn decode_history(r: &mut Decoder) -> Result<Vec<EpochRecord>, CkptError> {
        let n = r.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let epoch = r.u64()?;
            let train_loss = f32::from_bits(r.u32()?);
            let lr = f32::from_bits(r.u32()?);
            let eval_top1 = r.opt_f64()?;
            let eval_top5 = r.opt_f64()?;
            out.push(EpochRecord {
                epoch,
                train_loss,
                lr,
                eval_top1,
                eval_top5,
            });
        }
        r.finished()?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The store: atomic writes, manifest, retention, fallback loads.
// ---------------------------------------------------------------------------

/// What [`CkptStore::load_latest_valid`] had to do to find a good
/// checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Step of the checkpoint actually loaded.
    pub loaded_step: u64,
    /// Corrupt (or unreadable) newer checkpoints skipped on the way.
    pub corrupt_skipped: u64,
}

/// A directory of durable checkpoints with a checked manifest.
pub struct CkptStore {
    dir: PathBuf,
    retain: usize,
    /// Optional flight recorder: save/load I/O is timed on
    /// [`Lane::WallCkpt`] and the bytes moved are counted
    /// (`ckpt_bytes_written`, `ckpt_bytes_read`). The store is usually
    /// driven by rank 0, so one recorder per store is the natural
    /// granularity.
    recorder: Option<Arc<Recorder>>,
}

impl CkptStore {
    /// Opens (creating if needed) the store at `dir`, retaining the
    /// newest `retain` checkpoints on every save (`retain ≥ 1`).
    pub fn open(dir: impl AsRef<Path>, retain: usize) -> Result<CkptStore, CkptError> {
        assert!(retain >= 1, "must retain at least one checkpoint");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err)?;
        Ok(CkptStore {
            dir,
            retain,
            recorder: None,
        })
    }

    /// Attaches a flight recorder; subsequent saves/loads emit wall spans
    /// and counters into it.
    pub fn attach_recorder(&mut self, rec: Arc<Recorder>) {
        self.recorder = Some(rec);
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(step: u64) -> String {
        format!("ckpt-{step:020}.{CKPT_EXT}")
    }

    fn path_for(&self, step: u64) -> PathBuf {
        self.dir.join(Self::file_name(step))
    }

    /// Atomically persists `snap`, updates the manifest, and applies the
    /// retention policy. Returns the checkpoint's final path.
    ///
    /// The encoding streams into the temp file through a fixed buffer,
    /// so a save holds no file-sized copy of the snapshot. The new
    /// file's manifest entry comes from the traversal that wrote it and
    /// the retained files keep the entries of the manifest being
    /// replaced, so a save reads no checkpoint back — and cannot bless
    /// a retained file that rotted since it was written.
    pub fn save(&self, snap: &DurableSnapshot) -> Result<PathBuf, CkptError> {
        let step = snap.progress.step;
        let _span = self
            .recorder
            .as_ref()
            .map(|rec| rec.wall_span(Lane::WallCkpt, obs_phase::DURABLE_CHECKPOINT, step, 0));
        let (final_path, (len, crc)) =
            self.write_atomic(&Self::file_name(step), |f| snap.write_to(f))?;
        self.count("ckpt_bytes_written", len);
        // fsync the directory so the rename itself is durable.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // A missing or corrupt manifest carries nothing forward: its
        // files are re-derived from disk.
        let mut known = self.read_manifest().ok().flatten().unwrap_or_default();
        known.retain(|e| e.step != step);
        known.push(Self::entry(step, len, crc));
        self.gc_and_write_manifest(&known)?;
        Ok(final_path)
    }

    fn entry(step: u64, len: u64, crc: u32) -> ManifestEntry {
        ManifestEntry {
            step,
            file: Self::file_name(step),
            len,
            crc,
        }
    }

    fn count(&self, counter: &'static str, delta: u64) {
        if let Some(rec) = &self.recorder {
            rec.counter_add(counter, delta);
        }
    }

    /// Lets `write` fill `<name>.tmp`, fsyncs, and renames it to `name`:
    /// readers see the old file or the new one, never a torn one.
    /// Returns the final path and what `write` returned.
    fn write_atomic<T>(
        &self,
        name: &str,
        write: impl FnOnce(&mut fs::File) -> io::Result<T>,
    ) -> Result<(PathBuf, T), CkptError> {
        let (tmp, path) = (self.dir.join(format!("{name}.tmp")), self.dir.join(name));
        let out = {
            let mut f = fs::File::create(&tmp).map_err(io_err)?;
            let out = write(&mut f).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
            out
        };
        fs::rename(&tmp, &path).map_err(io_err)?;
        Ok((path, out))
    }

    /// Steps of checkpoint files present on disk, ascending.
    pub fn list_steps(&self) -> Result<Vec<u64>, CkptError> {
        let mut steps = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            if let Some(step) = parse_ckpt_name(&entry.file_name().to_string_lossy()) {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        steps.dedup();
        Ok(steps)
    }

    /// Loads and fully validates the newest valid checkpoint, skipping
    /// (and counting) corrupt ones. `Ok(None)` means the store holds no
    /// loadable checkpoint at all.
    pub fn load_latest_valid(&self) -> Result<Option<(DurableSnapshot, LoadReport)>, CkptError> {
        self.load_latest_valid_before(u64::MAX)
    }

    /// Like [`CkptStore::load_latest_valid`], but only considers
    /// checkpoints at steps strictly below `before`. The divergence
    /// guard needs this: a checkpoint written at the *failing* step
    /// captured the already-poisoned weights (the breaking update
    /// happened on the step before), so recovery must rewind strictly
    /// past it and replay the gap at the reduced learning rate.
    pub fn load_latest_valid_before(
        &self,
        before: u64,
    ) -> Result<Option<(DurableSnapshot, LoadReport)>, CkptError> {
        let _span = self
            .recorder
            .as_ref()
            .map(|rec| rec.wall_span(Lane::WallCkpt, obs_phase::CHECKPOINT, before, 0));
        // The directory scan is the source of truth for candidates; the
        // manifest adds a cross-check when it is itself intact. A corrupt
        // manifest therefore degrades availability never correctness.
        let manifest = self.read_manifest().ok().flatten();
        let mut steps = self.list_steps()?;
        steps.retain(|&s| s < before);
        steps.reverse(); // newest first
        let mut skipped = 0u64;
        for step in steps {
            // A file that validates internally but that the manifest
            // describes differently counts as corrupt too, rather than
            // guessing which of the two is right.
            let entry = manifest.iter().flatten().find(|e| e.step == step);
            let snap = match self.read_step(step) {
                Ok((snap, on_disk))
                    if entry.is_none_or(|e| e.len == on_disk.len && e.crc == on_disk.crc) =>
                {
                    snap
                }
                _ => {
                    skipped += 1;
                    continue;
                }
            };
            let report = LoadReport {
                loaded_step: step,
                corrupt_skipped: skipped,
            };
            return Ok(Some((snap, report)));
        }
        Ok(None)
    }

    /// Re-validates every retained checkpoint end to end (full parse,
    /// every record CRC, whole-file CRC) and garbage-collects files that
    /// fail, so bit rot is caught when the scrub runs — not later, when
    /// a rollback desperately needs the file. The manifest is rewritten
    /// to match the surviving set. Counts both outcomes.
    pub fn scrub(&self) -> Result<ScrubReport, CkptError> {
        let mut report = ScrubReport::default();
        let mut survivors = Vec::new();
        for step in self.list_steps()? {
            match self.read_step(step) {
                Ok((_, on_disk)) => {
                    survivors.push(on_disk);
                    report.scrubbed += 1;
                }
                Err(_) => {
                    let _ = fs::remove_file(self.path_for(step));
                    report.rejected += 1;
                }
            }
        }
        // Nothing is carried forward from the old manifest: every entry
        // is what this pass read, which keeps the manifest honest even
        // when the scrub rejected nothing (a stale manifest is a
        // corruption mode too).
        self.gc_and_write_manifest(&survivors)?;
        Ok(report)
    }

    /// Loads and validates the checkpoint at `step`.
    pub fn load_step(&self, step: u64) -> Result<DurableSnapshot, CkptError> {
        self.read_step(step).map(|(snap, _)| snap)
    }

    /// The validated checkpoint at `step` and the manifest entry of the
    /// file it was parsed from, both from one traversal of its bytes,
    /// which stream through the decoder's buffer.
    fn read_step(&self, step: u64) -> Result<(DurableSnapshot, ManifestEntry), CkptError> {
        let mut file = fs::File::open(self.path_for(step)).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        self.count("ckpt_bytes_read", len);
        let (snap, crc) = DurableSnapshot::decode(&mut file, len)?;
        if snap.progress.step != step {
            return Err(CkptError::Malformed(format!(
                "file named for step {step} contains step {}",
                snap.progress.step
            )));
        }
        Ok((snap, Self::entry(step, len, crc)))
    }

    fn read_file(&self, step: u64) -> Result<Vec<u8>, CkptError> {
        let bytes = fs::read(self.path_for(step)).map_err(io_err)?;
        self.count("ckpt_bytes_read", bytes.len() as u64);
        Ok(bytes)
    }

    /// Lists the directory once, deletes all but the newest `retain`
    /// checkpoints and writes the manifest of the survivors. A survivor
    /// takes its entry from `known`; only one that has none there is
    /// read back from disk.
    fn gc_and_write_manifest(&self, known: &[ManifestEntry]) -> Result<(), CkptError> {
        let steps = self.list_steps()?;
        let (dead, live) = steps.split_at(steps.len().saturating_sub(self.retain));
        for &step in dead {
            let _ = fs::remove_file(self.path_for(step));
        }
        let entries: Vec<ManifestEntry> = live
            .iter()
            .filter_map(|&step| match known.iter().find(|e| e.step == step) {
                Some(e) => Some(e.clone()),
                None => {
                    let bytes = self.read_file(step).ok()?;
                    Some(Self::entry(step, bytes.len() as u64, crc32(&bytes)))
                }
            })
            .collect();
        let manifest = render_manifest(&entries);
        self.write_atomic(MANIFEST, |f| f.write_all(manifest.as_bytes()))?;
        Ok(())
    }

    /// Reads and validates the manifest. `Ok(None)` when absent,
    /// `Err` when present but corrupt.
    pub fn read_manifest(&self) -> Result<Option<Vec<ManifestEntry>>, CkptError> {
        let path = self.dir.join(MANIFEST);
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path).map_err(io_err)?;
        parse_manifest(&text).map(Some)
    }
}

/// Outcome of a [`CkptStore::scrub`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checkpoints that fully re-validated.
    pub scrubbed: u64,
    /// Checkpoints found corrupt and garbage-collected.
    pub rejected: u64,
}

/// One live checkpoint as recorded by the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    pub step: u64,
    pub file: String,
    pub len: u64,
    pub crc: u32,
}

fn parse_ckpt_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(&format!(".{CKPT_EXT}"))?;
    digits.parse().ok()
}

/// Renders the versioned, checksummed manifest text.
pub fn render_manifest(entries: &[ManifestEntry]) -> String {
    let mut body = String::from("ets-ckpt-manifest v1\n");
    for e in entries {
        body.push_str(&format!(
            "entry step={} file={} len={} crc={:08x}\n",
            e.step, e.file, e.len, e.crc
        ));
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("manifest-crc={crc:08x}\n"));
    body
}

/// Parses and validates manifest text produced by [`render_manifest`].
pub fn parse_manifest(text: &str) -> Result<Vec<ManifestEntry>, CkptError> {
    let bad = |msg: &str| CkptError::Malformed(format!("manifest: {msg}"));
    let trailer_at = text
        .rfind("manifest-crc=")
        .ok_or_else(|| bad("missing trailer"))?;
    let body = &text[..trailer_at];
    let trailer = text[trailer_at..].trim();
    let expected = u32::from_str_radix(trailer.strip_prefix("manifest-crc=").unwrap(), 16)
        .map_err(|_| bad("unparseable trailer"))?;
    let actual = crc32(body.as_bytes());
    if expected != actual {
        return Err(CkptError::ChecksumMismatch {
            what: "manifest",
            expected,
            actual,
        });
    }
    let mut lines = body.lines();
    if lines.next() != Some("ets-ckpt-manifest v1") {
        return Err(bad("bad header"));
    }
    let mut entries = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("entry ")
            .ok_or_else(|| bad("bad entry line"))?;
        let mut step = None;
        let mut file = None;
        let mut len = None;
        let mut crc = None;
        for field in rest.split_whitespace() {
            let (k, v) = field.split_once('=').ok_or_else(|| bad("bad field"))?;
            match k {
                "step" => step = v.parse().ok(),
                "file" => file = Some(v.to_string()),
                "len" => len = v.parse().ok(),
                "crc" => crc = u32::from_str_radix(v, 16).ok(),
                _ => {}
            }
        }
        entries.push(ManifestEntry {
            step: step.ok_or_else(|| bad("missing step"))?,
            file: file.ok_or_else(|| bad("missing file"))?,
            len: len.ok_or_else(|| bad("missing len"))?,
            crc: crc.ok_or_else(|| bad("missing crc"))?,
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Seeded corruption injection for the chaos harness.
// ---------------------------------------------------------------------------

/// Deterministically flips bits in stored checkpoints so the chaos
/// harness can prove no corrupted checkpoint ever loads silently. Same
/// seed ⇒ same flips, always.
pub struct CorruptionInjector {
    state: u64,
}

impl CorruptionInjector {
    /// A seeded injector.
    pub fn new(seed: u64) -> Self {
        CorruptionInjector {
            state: seed ^ 0xC0_44_07_1Eu64.rotate_left(13),
        }
    }

    fn next(&mut self) -> u64 {
        // SplitMix64, same constants as the fault-plan generator.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Flips one seeded bit of the file at `path` in place (deliberately
    /// *not* atomic — corruption isn't polite). Returns the flipped
    /// `(byte_offset, bit_index)`.
    pub fn flip_one_bit(&mut self, path: &Path) -> Result<(u64, u8), CkptError> {
        let mut bytes = fs::read(path).map_err(io_err)?;
        if bytes.is_empty() {
            return Err(CkptError::TooShort { len: 0 });
        }
        let off = (self.next() % bytes.len() as u64) as usize;
        let bit = (self.next() % 8) as u8;
        bytes[off] ^= 1 << bit;
        fs::write(path, &bytes).map_err(io_err)?;
        Ok((off as u64, bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ets-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn sample_snapshot(step: u64) -> DurableSnapshot {
        DurableSnapshot {
            progress: Progress {
                step,
                epoch: 3,
                sample_off: 96,
                steps_this_epoch: 3,
                consumed_samples: step * 32,
                lr_scale: 1.0,
                loss_sum: 6.25,
                last_lr: 0.0125,
            },
            world: 4,
            params: vec![
                TensorRecord {
                    name: "stem/w".to_string(),
                    shape: vec![2, 3],
                    bits: vec![0x3F80_0000, 0x4000_0000, 0, 1, 0xFFFF_FFFF, 7],
                },
                TensorRecord {
                    name: "head/b".to_string(),
                    shape: vec![3],
                    bits: vec![5, 6, 7],
                },
            ],
            bn_running: vec![(vec![1, 2], vec![3, 4])],
            opt_state: OptimizerState {
                scalars: vec![step, 99],
                banks: vec![vec![10, 11, 12], vec![]],
            },
            ema: Some(EmaState {
                decay_bits: 0.999f32.to_bits(),
                updates: step,
                shadow: vec![("stem/w".to_string(), vec![2, 3], vec![1, 2, 3, 4, 5, 6])],
            }),
            history: vec![
                EpochRecord {
                    epoch: 1,
                    train_loss: 2.5,
                    lr: 0.01,
                    eval_top1: Some(0.25),
                    eval_top5: None,
                },
                EpochRecord {
                    epoch: 2,
                    train_loss: 1.5,
                    lr: 0.02,
                    eval_top1: None,
                    eval_top5: None,
                },
            ],
        }
    }

    /// `bytes` with `patch` applied to its body and the whole-file
    /// trailer recomputed, so only the patched field can be at fault.
    fn repatched(bytes: &[u8], patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = bytes[..bytes.len() - 4].to_vec();
        patch(&mut body);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    fn model(seed: u64) -> EfficientNet {
        use ets_efficientnet::ModelConfig;
        let mut rng = ets_tensor::Rng::new(seed);
        EfficientNet::new(ModelConfig::tiny(16, 4), ets_nn::Precision::F32, &mut rng)
    }

    /// One train-mode forward so BN running statistics are non-trivial.
    fn perturb_running_stats(m: &mut EfficientNet, seed: u64) {
        let mut rng = ets_tensor::Rng::new(seed);
        let mut x = ets_tensor::Tensor::zeros([2, 3, 16, 16]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let _ = m.forward(&x, ets_nn::Mode::Train, &mut rng);
    }

    fn capture_model(m: &mut EfficientNet, step: u64) -> DurableSnapshot {
        let progress = Progress {
            step,
            ..Progress::fresh()
        };
        DurableSnapshot::capture(m, &ets_optim::Sgd::new(0.9, 0.0), None, &progress, 1, &[])
    }

    fn apply_to_model(snap: &DurableSnapshot, m: &mut EfficientNet) -> Progress {
        snap.apply(m, &mut ets_optim::Sgd::new(0.9, 0.0), &mut None)
            .0
    }

    #[test]
    fn capture_apply_round_trip_is_bitwise() {
        let mut a = model(1);
        perturb_running_stats(&mut a, 9);
        let snap = capture_model(&mut a, 123);
        let mut b = model(2); // different init
        let weights = |m: &mut EfficientNet| capture_model(m, 0).params;
        let bits = |p: Vec<TensorRecord>| p.into_iter().map(|t| t.bits).collect::<Vec<_>>();
        assert_ne!(bits(weights(&mut a)), bits(weights(&mut b)));
        // Through the disk format, so the file carries everything.
        let snap = DurableSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(apply_to_model(&snap, &mut b).step, 123);
        assert_eq!(bits(weights(&mut a)), bits(weights(&mut b)));
        // BN running stats restored too.
        assert_eq!(
            capture_model(&mut a, 0).bn_running,
            capture_model(&mut b, 0).bn_running
        );
    }

    #[test]
    fn restored_model_produces_identical_outputs() {
        let mut a = model(6);
        let snap = capture_model(&mut a, 0);
        let mut b = model(7);
        apply_to_model(&snap, &mut b);
        let mut rng = ets_tensor::Rng::new(0);
        let mut x = ets_tensor::Tensor::zeros([1, 3, 16, 16]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let mut r1 = ets_tensor::Rng::new(1);
        let mut r2 = ets_tensor::Rng::new(1);
        let ya = a.forward(&x, ets_nn::Mode::Eval, &mut r1);
        let yb = b.forward(&x, ets_nn::Mode::Eval, &mut r2);
        assert_eq!(ya.max_abs_diff(&yb), 0.0);
    }

    #[test]
    fn on_disk_format_is_pinned() {
        // Recorded at the commit before `Progress` was embedded: the
        // in-memory representation may change, the file may not. (The
        // CRC-32 of a whole file, trailer included, is the same residue
        // for every valid file, so the pin is the body's CRC — the
        // trailer — and the length.)
        let bytes = sample_snapshot(7).to_bytes();
        assert_eq!(bytes.len(), 544);
        assert_eq!(crc32(&bytes[..bytes.len() - 4]), 0x35E6_A746);
    }

    #[test]
    fn foreign_version_and_magic_are_typed_errors() {
        let bytes = sample_snapshot(3).to_bytes();
        let at_version = MAGIC.len();
        let future = repatched(&bytes, |b| {
            b[at_version..at_version + 4].copy_from_slice(&(CKPT_STORE_VERSION + 1).to_le_bytes())
        });
        assert_eq!(
            DurableSnapshot::from_bytes(&future).unwrap_err(),
            CkptError::BadVersion(CKPT_STORE_VERSION + 1)
        );
        let alien = repatched(&bytes, |b| b[0] = b'X');
        assert_eq!(
            DurableSnapshot::from_bytes(&alien).unwrap_err(),
            CkptError::BadMagic
        );
    }

    #[test]
    fn unknown_record_loads_and_is_not_counted_corrupt() {
        // A file from a future minor revision: one extra checksummed
        // record. `from_bytes` verifies and skips it, so the store must
        // load that file — not fall back to an older step because a
        // re-encoding of the parsed snapshot is shorter than the file.
        let at_count = MAGIC.len() + 4 + 8;
        let extended = repatched(&sample_snapshot(2).to_bytes(), |b| {
            let count = u32::from_le_bytes(b[at_count..at_count + 4].try_into().unwrap());
            b[at_count..at_count + 4].copy_from_slice(&(count + 1).to_le_bytes());
            let mut w = Encoder::new(b);
            w.str("future");
            w.u64(3);
            w.bytes(b"abc");
            w.u32(crc32(b"abc"));
            w.finish().unwrap();
        });
        assert_eq!(
            DurableSnapshot::from_bytes(&extended).unwrap(),
            sample_snapshot(2)
        );
        let dir = scratch_dir("unknown-record");
        let store = CkptStore::open(&dir, 4).unwrap();
        store.save(&sample_snapshot(1)).unwrap();
        store.save(&sample_snapshot(2)).unwrap();
        fs::write(store.path_for(2), &extended).unwrap();
        store.gc_and_write_manifest(&[]).unwrap();
        assert!(store.load_step(2).is_ok());
        let (snap, report) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(snap.progress.step, 2);
        assert_eq!(report.corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for the zlib CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition, one bit at a time: what the slice kernel must
    /// equal at every length and alignment.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_length_and_offset() {
        // Lengths on both sides of the 16-byte block (empty, tail only,
        // blocks only, blocks + every tail), from every start offset.
        let mut rng = CorruptionInjector::new(0x5EED);
        let data: Vec<u8> = (0..316).map(|_| rng.next() as u8).collect();
        for off in 0..16 {
            for len in 0..=300 {
                let piece = &data[off..off + len];
                let want = crc32_bitwise(piece);
                assert_eq!(crc32(piece), want, "offset {off} length {len}");
                // The second state of a paired update sees the same bytes.
                let (mut a, mut b) = (Crc32::new(), Crc32::new());
                a.update(&data[..off]);
                a.update_both(&mut b, piece);
                assert_eq!(b.finish(), want, "paired, offset {off} length {len}");
                assert_eq!(a.finish(), crc32_bitwise(&data[..off + len]));
            }
        }
    }

    #[test]
    fn whole_file_crc_is_the_body_state_extended_over_the_trailer() {
        let mut bytes = Vec::new();
        let (len, whole) = sample_snapshot(7).write_to(&mut bytes).unwrap();
        assert_eq!(len, bytes.len() as u64);
        assert_eq!(whole, crc32(&bytes));
        assert_eq!(
            DurableSnapshot::decode(&mut &bytes[..], len).unwrap().1,
            whole
        );
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut state = Crc32::new();
        state.update(body);
        assert_eq!(state.finish().to_le_bytes(), trailer);
        state.update(trailer);
        assert_eq!(state.finish(), whole);
    }

    proptest::proptest! {
        #[test]
        fn crc32_update_is_associative_over_any_split(
            // (The stand-in's integer ranges are half-open: no `u8` one
            // reaches 255.)
            data in proptest::collection::vec(0u16..256, 0..600),
            cut_a in 0usize..601,
            cut_b in 0usize..601,
        ) {
            let data: Vec<u8> = data.iter().map(|&v| v as u8).collect();
            let lo = cut_a.min(cut_b).min(data.len());
            let hi = cut_a.max(cut_b).min(data.len());
            let mut c = Crc32::new();
            c.update(&data[..lo]);
            c.update(&data[lo..hi]);
            c.update(&data[hi..]);
            proptest::prop_assert_eq!(c.finish(), crc32(&data));
            proptest::prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let snap = sample_snapshot(7);
        let bytes = snap.to_bytes();
        let back = DurableSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        // Encoding is deterministic, so the floats agree to the bit.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn truncation_is_always_detected() {
        let bytes = sample_snapshot(3).to_bytes();
        for cut in [0, 1, 7, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                DurableSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        // Exhaustive over byte positions (the proptest suite additionally
        // covers random bit masks): no single-byte corruption may load.
        let bytes = sample_snapshot(5).to_bytes();
        for off in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[off] ^= 0x01;
            assert!(
                DurableSnapshot::from_bytes(&bad).is_err(),
                "flip at byte {off} loaded silently"
            );
        }
    }

    #[test]
    fn store_saves_loads_and_retains() {
        let dir = scratch_dir("retain");
        let store = CkptStore::open(&dir, 3).unwrap();
        for step in [2u64, 4, 6, 8, 10] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        // GC keeps the newest 3.
        assert_eq!(store.list_steps().unwrap(), vec![6, 8, 10]);
        let (snap, report) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(snap.progress.step, 10);
        assert_eq!(report.corrupt_skipped, 0);
        // Manifest matches the live set (ascending step order).
        let manifest = store.read_manifest().unwrap().unwrap();
        assert_eq!(
            manifest.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![6, 8, 10]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_newest_valid() {
        let dir = scratch_dir("fallback");
        let store = CkptStore::open(&dir, 4).unwrap();
        for step in [1u64, 2, 3] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        let mut injector = CorruptionInjector::new(9);
        injector.flip_one_bit(&store.path_for(3)).unwrap();
        let (snap, report) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(
            snap.progress.step, 2,
            "must fall back past the corrupt newest"
        );
        assert_eq!(report.corrupt_skipped, 1);
        // Corrupt them all: no silent load, just None.
        injector.flip_one_bit(&store.path_for(2)).unwrap();
        injector.flip_one_bit(&store.path_for(1)).unwrap();
        assert!(store.load_latest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_degrades_to_scan() {
        let dir = scratch_dir("manifest");
        let store = CkptStore::open(&dir, 4).unwrap();
        store.save(&sample_snapshot(5)).unwrap();
        fs::write(dir.join(MANIFEST), b"garbage\n").unwrap();
        assert!(store.read_manifest().is_err(), "corruption must be typed");
        let (snap, _) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(
            snap.progress.step, 5,
            "scan fallback must still find the file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips() {
        let entries = vec![
            ManifestEntry {
                step: 12,
                file: CkptStore::file_name(12),
                len: 345,
                crc: 0xDEAD_BEEF,
            },
            ManifestEntry {
                step: 8,
                file: CkptStore::file_name(8),
                len: 340,
                crc: 0x0000_0001,
            },
        ];
        let text = render_manifest(&entries);
        assert_eq!(parse_manifest(&text).unwrap(), entries);
        // Any textual tamper trips the manifest CRC.
        let tampered = text.replace("step=12", "step=13");
        assert!(parse_manifest(&tampered).is_err());
    }

    #[test]
    fn injector_is_deterministic() {
        let dir = scratch_dir("injector");
        let store = CkptStore::open(&dir, 2).unwrap();
        store.save(&sample_snapshot(1)).unwrap();
        let backup = fs::read(store.path_for(1)).unwrap();
        let a = CorruptionInjector::new(77)
            .flip_one_bit(&store.path_for(1))
            .unwrap();
        fs::write(store.path_for(1), &backup).unwrap();
        let b = CorruptionInjector::new(77)
            .flip_one_bit(&store.path_for(1))
            .unwrap();
        assert_eq!(a, b, "same seed, same flip");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_counts_clean_checkpoints_and_touches_nothing() {
        let dir = scratch_dir("scrub-clean");
        let store = CkptStore::open(&dir, 4).unwrap();
        for step in [1u64, 2, 3] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        let report = store.scrub().unwrap();
        assert_eq!(
            report,
            ScrubReport {
                scrubbed: 3,
                rejected: 0
            }
        );
        assert_eq!(store.list_steps().unwrap(), vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_garbage_collects_corrupt_files_and_rewrites_manifest() {
        let dir = scratch_dir("scrub-gc");
        let store = CkptStore::open(&dir, 4).unwrap();
        for step in [1u64, 2, 3] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        CorruptionInjector::new(21)
            .flip_one_bit(&store.path_for(2))
            .unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(
            report,
            ScrubReport {
                scrubbed: 2,
                rejected: 1
            }
        );
        // The corrupt file is gone, the manifest tracks the survivors,
        // and loads no longer have to skip anything.
        assert_eq!(store.list_steps().unwrap(), vec![1, 3]);
        let manifest = store.read_manifest().unwrap().unwrap();
        assert_eq!(
            manifest.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![1, 3]
        );
        let (snap, load) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(snap.progress.step, 3);
        assert_eq!(load.corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_record_has_the_length_its_shapes_give() {
        // A record's length is written before its payload, so it comes
        // from `record_lens`; the file must agree with it record by
        // record, and `to_bytes` must have reserved exactly.
        let mut m = model(3);
        let mut bare = sample_snapshot(1);
        (bare.ema, bare.history) = (None, Vec::new());
        for snap in [sample_snapshot(7), capture_model(&mut m, 2), bare] {
            let bytes = snap.to_bytes();
            let mut src = &bytes[..];
            let mut r = Decoder::new(&mut src, bytes.len() as u64 - 4);
            r.skip(ENVELOPE_LEN as u64 - 4).unwrap();
            let records = DurableSnapshot::RECORDS.iter().zip(snap.record_lens());
            for ((name, _), len) in records {
                assert_eq!(r.str().unwrap(), *name);
                assert_eq!(r.usize().unwrap(), len, "{name} record");
                r.skip(len as u64 + 4).unwrap();
            }
            r.finished().unwrap();
            assert_eq!(snap.encoded_len(), bytes.len());
            assert_eq!(snap.encoded_len(), bytes.capacity());
        }
    }

    /// A snapshot of several encoder chunks whose arrays and names end
    /// at odd offsets, so fields straddle the buffer's drains.
    fn multi_chunk_snapshot(step: u64) -> DurableSnapshot {
        let mut snap = sample_snapshot(step);
        let words = |n: usize, salt: u32| -> Vec<u32> {
            (0..n as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9) ^ salt)
                .collect()
        };
        for (i, n) in [65_537usize, 3, 131_071, 40_000].into_iter().enumerate() {
            snap.params.push(TensorRecord {
                name: format!("block{i}/{}", "w".repeat(2 * i + 1)),
                shape: vec![n],
                bits: words(n, i as u32),
            });
        }
        snap.opt_state.banks.push(words(99_999, 7));
        snap
    }

    #[test]
    fn a_saved_file_is_to_bytes_and_its_entry_is_the_file() {
        let dir = scratch_dir("streamed");
        let store = CkptStore::open(&dir, 2).unwrap();
        for snap in [sample_snapshot(3), multi_chunk_snapshot(4)] {
            let path = store.save(&snap).unwrap();
            let bytes = fs::read(&path).unwrap();
            assert_eq!(bytes, snap.to_bytes(), "step {}", snap.progress.step);
            assert_eq!(DurableSnapshot::from_bytes(&bytes).unwrap(), snap);
            let manifest = store.read_manifest().unwrap().unwrap();
            let entry = manifest.iter().find(|e| e.step == snap.progress.step);
            assert_eq!(
                entry,
                Some(&CkptStore::entry(
                    snap.progress.step,
                    bytes.len() as u64,
                    crc32(&bytes)
                ))
            );
        }
        assert!(multi_chunk_snapshot(4).encoded_len() > 4 * CHUNK);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sink with room for `.0` more bytes, then full.
    struct Full(usize);

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0 == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "sink full"));
            }
            let n = buf.len().min(self.0);
            self.0 -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_fails_the_encode() {
        let snap = multi_chunk_snapshot(2);
        for room in [0, 100, CHUNK, 3 * CHUNK + 5] {
            let err = snap.write_to(&mut Full(room)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "room {room}");
        }
        let room = snap.encoded_len();
        assert_eq!(snap.write_to(&mut Full(room)).unwrap().0, room as u64);
    }

    #[test]
    fn record_length_near_u64_max_is_malformed_not_a_panic() {
        // Offset of the first record's length: envelope, then the
        // length-prefixed name "meta". The file CRC is recomputed, so
        // only the bounds check stands between the length and a slice.
        let at_len = ENVELOPE_LEN - 4 + 4 + "meta".len();
        let bytes = sample_snapshot(3).to_bytes();
        for len in [u64::MAX, u64::MAX - 7, u64::MAX - at_len as u64, 1 << 63] {
            let huge = repatched(&bytes, |b| {
                b[at_len..at_len + 8].copy_from_slice(&len.to_le_bytes())
            });
            assert!(
                matches!(
                    DurableSnapshot::from_bytes(&huge),
                    Err(CkptError::Malformed(_))
                ),
                "record length {len:#x}"
            );
        }
    }

    #[test]
    fn a_save_does_not_bless_rot_in_a_retained_checkpoint() {
        let dir = scratch_dir("no-bless");
        let store = CkptStore::open(&dir, 4).unwrap();
        for step in [1u64, 2, 3] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        let entry_of = |step: u64| {
            let manifest = store.read_manifest().unwrap().unwrap();
            manifest.into_iter().find(|e| e.step == step).unwrap()
        };
        let original = entry_of(2);
        CorruptionInjector::new(5)
            .flip_one_bit(&store.path_for(2))
            .unwrap();
        let rotted = fs::read(store.path_for(2)).unwrap();
        assert_ne!(crc32(&rotted), original.crc);
        store.save(&sample_snapshot(4)).unwrap();
        // The manifest still describes the file as it was written.
        assert_eq!(entry_of(2), original);
        let (snap, report) = store.load_latest_valid_before(3).unwrap().unwrap();
        assert_eq!(snap.progress.step, 1);
        assert_eq!(report.corrupt_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_read_nothing_back_and_a_load_reads_one_file() {
        let dir = scratch_dir("byte-counters");
        let mut store = CkptStore::open(&dir, 3).unwrap();
        let rec = Arc::new(Recorder::enabled(0));
        store.attach_recorder(Arc::clone(&rec));
        let mut written = 0;
        for step in 1..=5u64 {
            let path = store.save(&sample_snapshot(step)).unwrap();
            written += fs::metadata(path).unwrap().len();
        }
        assert_eq!(rec.counter_value("ckpt_bytes_written"), written);
        assert_eq!(rec.counter_value("ckpt_bytes_read"), 0);
        store.load_latest_valid().unwrap().unwrap();
        let newest = fs::metadata(store.path_for(5)).unwrap().len();
        assert_eq!(rec.counter_value("ckpt_bytes_read"), newest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let dir = scratch_dir("atomic");
        let store = CkptStore::open(&dir, 2).unwrap();
        store.save(&sample_snapshot(4)).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().to_string();
            assert!(!name.ends_with(".tmp"), "stray temp file {name}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
