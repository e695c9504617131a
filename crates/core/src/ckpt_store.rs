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
//!   and renamed into place; one directory fsync then makes the rename
//!   and the retention deletions durable. A crash mid-write never leaves
//!   a half-visible checkpoint.
//! - **Corruption detection**: a custom binary format (bit-exact f32
//!   payloads at 4 bytes each) in scopes that each end in their CRC-32:
//!   a header (magic, version, step, and each record's name and
//!   length), then each record's payload. Every byte of a file is in one
//!   scope or in its CRC, and CRC-32 detects every 1- and 2-bit error at
//!   these sizes, so a single flipped bit is always caught — the
//!   property the proptest suite pins down. A load checks the header
//!   before it uses a length from it and stops at the first bad scope.
//! - **No index**: the directory listing is the set of checkpoints. A
//!   second record of each file's length and CRC could reject only a
//!   file that already validates: the header CRC covers every length.
//! - **One pass each way, no file-sized copy**: a save streams its
//!   encoding into the temp file through one fixed 256 KiB buffer,
//!   checksumming each chunk while it is in cache (by carry-less
//!   multiplication where the host has it), and reads no checkpoint
//!   back; the record lengths, which the header lists before the first
//!   payload, come from shape arithmetic. A load streams the file
//!   through the same size of buffer, checksumming and decoding in one
//!   pass.
//!   [`DurableSnapshot::to_bytes`] and [`DurableSnapshot::from_bytes`]
//!   are the same encoder and decoder with a `Vec` or a slice for the
//!   file.
//! - **Retention/GC**: only the newest `retain` checkpoints are kept,
//!   decided by one listing per save.
//! - **Fallback on load**: [`CkptStore::load_latest_valid`] walks the
//!   listing newest-first, skipping (and counting) corrupt files, and
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
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Current durable-checkpoint format version.
pub const CKPT_STORE_VERSION: u32 = 2;

/// File magic: identifies the format; the version after it, the
/// revision.
const MAGIC: &[u8; 8] = b"ETSCKPT1";

/// Extension of checkpoint files in the store directory.
const CKPT_EXT: &str = "ets";

// ---------------------------------------------------------------------------
// CRC-32 (ISO-HDLC, the zlib polynomial): carry-less multiply folding,
// slice-by-16 for short pieces, tails and hosts without PCLMULQDQ.
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

/// The shortest piece the carry-less fold takes. It needs four whole
/// lanes (64 bytes) to start; shorter pieces, such as a record's
/// framing, stay on the table fold.
const CLMUL_MIN: usize = 128;

/// Folds `data` into `state`: the carry-less fold over all whole
/// 16-byte blocks of a piece of at least [`CLMUL_MIN`] bytes when the
/// host has PCLMULQDQ, the table fold over the rest. Both compute the
/// same CRC, so which one ran never shows in a bit.
fn crc32_fold(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (body, tail) = data.split_at(data.len() / 16 * 16);
        // SAFETY: the host has PCLMULQDQ, checked just above.
        return crc32_table(unsafe { crc32_clmul(state, body) }, tail);
    }
    crc32_table(state, data)
}

/// Folds `data` into `state` sixteen bytes at a time through
/// [`CRC32_TABLES`]: sixteen independent lookups per block.
fn crc32_table(mut s: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let at = |k: usize, word: u32, shift: u32| t[k][(word >> shift) as u8 as usize];
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (word(0) ^ s, word(4), word(8), word(12));
        s = (at(15, w0, 0) ^ at(14, w0, 8) ^ at(13, w0, 16) ^ at(12, w0, 24))
            ^ (at(11, w1, 0) ^ at(10, w1, 8) ^ at(9, w1, 16) ^ at(8, w1, 24))
            ^ (at(7, w2, 0) ^ at(6, w2, 8) ^ at(5, w2, 16) ^ at(4, w2, 24))
            ^ (at(3, w3, 0) ^ at(2, w3, 8) ^ at(1, w3, 16) ^ at(0, w3, 24));
    }
    for &byte in blocks.remainder() {
        s = at(0, s ^ byte as u32, 0) ^ (s >> 8);
    }
    s
}

/// `x` folded 128 bits further down the message and back into 128 bits:
/// `x.lo · k.lo ⊕ x.hi · k.hi` over GF(2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn clmul_fold(
    x: std::arch::x86_64::__m128i,
    k: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(x, k),
        _mm_clmulepi64_si128::<0x11>(x, k),
    )
}

/// The CRC-32 state after `data` (whole 16-byte blocks, at least four)
/// from `state`, by carry-less multiplication (Gopal et al., "Fast CRC
/// computation for generic polynomials using PCLMULQDQ", Intel 2009, in
/// its bit-reflected form): four 128-bit lanes fold 64 bytes a step, the
/// lanes fold into one, then 128 → 64 → 32 bits, and a Barrett reduction
/// leaves the remainder. Each constant is `x^k mod P` for the distance
/// `k` it folds across, bit-reflected and shifted left by one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn crc32_clmul(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    // x^(4·128+32), x^(4·128−32): across the four lanes.
    let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
    // x^(128+32), x^(128−32): across one lane; the high word also
    // folds 128 → 64 bits.
    let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
    // x^64: 64 → 32 bits.
    let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
    // P itself, and μ = x^64 / P for the Barrett step.
    let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    // SAFETY: every call reads 16 bytes of a slice at least that long.
    let load = |b: &[u8]| unsafe { _mm_loadu_si128(b.as_ptr().cast()) };

    let (first, rest) = data.split_at(64);
    let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
    let mut lines = rest.chunks_exact(64);
    for line in &mut lines {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = _mm_xor_si128(clmul_fold(*lane, k1k2), load(&line[16 * i..]));
        }
    }
    let mut x = lanes[0];
    for &lane in &lanes[1..] {
        x = _mm_xor_si128(clmul_fold(x, k3k4), lane);
    }
    for block in lines.remainder().chunks_exact(16) {
        x = _mm_xor_si128(clmul_fold(x, k3k4), load(block));
    }
    // 128 → 64 bits, then 64 → 32 with 32 zero bits appended.
    x = _mm_xor_si128(
        _mm_srli_si128::<8>(x),
        _mm_clmulepi64_si128::<0x10>(x, k3k4),
    );
    x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
    );
    // Barrett: q = ⌊x · μ⌋ on the low 32 bits, remainder x ⊕ q · P.
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
    let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(qp, x))) as u32
}

/// Streaming CRC-32 (ISO-HDLC / zlib polynomial, init & xorout `!0`):
/// `update` in any number of pieces, `finish` at any point.
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
        self.0 = crc32_fold(self.0, data);
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
    /// File too short to hold even the header.
    TooShort { len: usize },
    /// Magic bytes do not match `MAGIC`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A CRC-32 check failed (`what` is `"header"` or `"record"`).
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
/// `Vec` of [`DurableSnapshot::to_bytes`]). The open scope's CRC (the
/// header's, then each record's) folds over the staged bytes while they
/// are in cache, so the bytes are traversed once.
struct Encoder<'a> {
    sink: &'a mut dyn Write,
    buf: Box<[u8]>,
    /// `buf[..used]` is encoded, `buf[..fed]` of it folded into the CRC.
    used: usize,
    fed: usize,
    /// Bytes handed to the sink.
    flushed: u64,
    /// CRC of the open scope.
    crc: Crc32,
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
            crc: Crc32::new(),
            err: None,
        }
    }
    /// Bytes encoded so far.
    fn len(&self) -> u64 {
        self.flushed + self.used as u64
    }
    fn fold(&mut self) {
        self.crc.update(&self.buf[self.fed..self.used]);
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
    /// Closes the open scope with its CRC-32 and opens the next one
    /// after it.
    fn end_scope(&mut self) {
        self.fold();
        self.u32(self.crc.finish());
        self.fed = self.used;
        self.crc = Crc32::new();
    }
    /// Drains the buffer: the length of all that was encoded, or the
    /// sink's first error.
    fn finish(mut self) -> io::Result<u64> {
        self.drain();
        match self.err.take() {
            Some(e) => Err(e),
            None => self.sink.flush().map(|()| self.flushed),
        }
    }
}

/// The one decoder: the file pulled from a source through a fixed
/// [`CHUNK`]-byte buffer, with the open scope's CRC folded over each
/// chunk, so a load holds no file-sized copy either. Every read is
/// bounded by the scope it is in (the header, a record's payload or the
/// CRC after either), and so is every pull from the source: a length
/// taken from the file cannot reach past the scope or size an
/// allocation beyond it, and a load that stops at a bad scope has read
/// nothing after it.
struct Decoder<'a> {
    src: &'a mut dyn Read,
    buf: Box<[u8]>,
    /// `buf[at..filled]` is unread; `buf[fed..at]` is read but not yet
    /// folded.
    filled: usize,
    at: usize,
    fed: usize,
    /// Bytes consumed, bytes pulled from `src` and where the current
    /// scope ends, all from the start of the file.
    pos: u64,
    pulled: u64,
    end: u64,
    /// CRC of the open scope.
    crc: Crc32,
}

impl<'a> Decoder<'a> {
    /// A decoder of the file at the front of `src`, with no scope open.
    fn new(src: &'a mut dyn Read) -> Self {
        Decoder {
            src,
            buf: vec![0; CHUNK].into_boxed_slice(),
            filled: 0,
            at: 0,
            fed: 0,
            pos: 0,
            pulled: 0,
            end: 0,
            crc: Crc32::new(),
        }
    }
    fn fold(&mut self) {
        self.crc.update(&self.buf[self.fed..self.at]);
        self.fed = self.at;
    }
    /// Folds what was read, drops it and tops the buffer up from `src`,
    /// up to the end of the scope.
    fn refill(&mut self) -> Result<(), CkptError> {
        self.fold();
        self.buf.copy_within(self.at..self.filled, 0);
        (self.filled, self.at, self.fed) = (self.filled - self.at, 0, 0);
        let left = usize::try_from(self.end - self.pulled).unwrap_or(usize::MAX);
        let n = (CHUNK - self.filled).min(left);
        let to = &mut self.buf[self.filled..self.filled + n];
        self.src.read_exact(to).map_err(io_err)?;
        self.filled += n;
        self.pulled += n as u64;
        Ok(())
    }
    /// Consumes the next unread bytes: a multiple of `unit` (≤ 8), at
    /// most `max` and at least one unit, refilling the buffer first if
    /// it holds less than a unit. Only for bytes a [`Decoder::check`]
    /// has admitted.
    fn next(&mut self, unit: usize, max: usize) -> Result<&[u8], CkptError> {
        if self.filled - self.at < unit && self.pulled < self.end {
            self.refill()?;
        }
        let n = max.min(self.filled - self.at) / unit * unit;
        if n == 0 {
            return Err(CkptError::Malformed("field overruns its scope".to_string()));
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
    /// Opens the next `len` bytes as the scope, with a CRC of its own.
    /// Only for a scope the file has room for.
    fn begin(&mut self, len: u64) {
        (self.fed, self.crc, self.end) = (self.at, Crc32::new(), self.pos + len);
    }
    /// Closes the scope `what`, skipping what a decode that stopped
    /// early left of it, and checks the CRC-32 that follows it.
    fn end(&mut self, what: &'static str) -> Result<(), CkptError> {
        self.skip(self.end - self.pos)?;
        self.fold();
        let actual = self.crc.finish();
        self.end += 4;
        let expected = self.u32()?;
        if expected != actual {
            return Err(CkptError::ChecksumMismatch {
                what,
                expected,
                actual,
            });
        }
        Ok(())
    }
    /// Decodes the next `len` bytes as a record with `decode` and
    /// checks its CRC, whose verdict outranks the decode's.
    fn record<T>(
        &mut self,
        len: u64,
        decode: impl FnOnce(&mut Self) -> Result<T, CkptError>,
    ) -> Result<T, CkptError> {
        self.begin(len);
        let decoded = decode(self);
        self.end("record")?;
        decoded
    }
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
type RecordEncoder = fn(&Assembled, &mut Encoder);

fn to_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn copy_bits(dst: &mut [f32], bits: &[u32]) {
    for (d, &b) in dst.iter_mut().zip(bits) {
        *d = f32::from_bits(b);
    }
}

impl DurableSnapshot {
    /// Captures a replica's share: the weights and the optimizer state
    /// of the parameters `owned` only ([`Optimizer::export_state_params`];
    /// `0..usize::MAX` for all of them, a whole snapshot), every other
    /// parameter's record with its name and shape but no bits, and the
    /// replica's BN statistics, EMA, progress and history. Each rank of
    /// a data-parallel world captures the parameters it owns, for its
    /// rewind anchor and for a durable save, whose file is assembled
    /// from every rank's share ([`CkptStore::save_paced`]).
    pub fn capture(
        model: &mut EfficientNet,
        optimizer: &dyn Optimizer,
        owned: Range<usize>,
        ema: Option<&Ema>,
        progress: &Progress,
        world: usize,
        history: &[EpochRecord],
    ) -> DurableSnapshot {
        let mut params = Vec::new();
        model.visit_params(&mut |p| {
            let i = params.len();
            params.push(TensorRecord {
                name: p.name.clone(),
                shape: p.dims().to_vec(),
                bits: match owned.contains(&i) {
                    true => to_bits(&p.value.data()),
                    false => Vec::new(),
                },
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
            opt_state: optimizer.export_state_params(owned),
            ema: ema.map(Ema::export_state),
            history: history.to_vec(),
        }
    }

    /// Restores the snapshot into a structurally-identical replica, the
    /// weights and the optimizer state of the parameters `owned` only, in
    /// place ([`Optimizer::import_state_params`]; the snapshot must hold
    /// them: a whole one, or the share captured over `owned`), and
    /// returns the captured progress and epoch history.
    /// Replicas that share their weights each write their own share.
    /// Panics with a descriptive message on any mismatch (name, shape,
    /// count, EMA presence).
    pub fn apply(
        &self,
        model: &mut EfficientNet,
        optimizer: &mut dyn Optimizer,
        owned: Range<usize>,
        ema: &mut Option<Ema>,
    ) -> (Progress, Vec<EpochRecord>) {
        let mut i = 0;
        model.visit_params(&mut |p| {
            let rec = self
                .params
                .get(i)
                .unwrap_or_else(|| panic!("snapshot too short at param {i} ({})", p.name));
            assert_eq!(rec.name, p.name, "param order/name mismatch at {i}");
            assert_eq!(rec.shape, p.dims(), "shape mismatch for {}", p.name);
            if owned.contains(&i) {
                assert_eq!(rec.bits.len(), p.numel(), "no weights for {}", p.name);
                copy_bits(p.value.write().data_mut(), &rec.bits);
            }
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
        optimizer.import_state_params(&self.opt_state, model, owned);
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

    /// Bytes of the header before its CRC: magic, version, step, record
    /// count, and each record's name and length.
    fn header_len() -> usize {
        let entries = Self::RECORDS.iter().map(|(name, _)| 4 + name.len() + 8);
        MAGIC.len() + 4 + 8 + 4 + entries.sum::<usize>()
    }

    /// Serializes to the checked binary format: a header listing the
    /// records and their lengths, then each record's payload, the header
    /// and each payload followed by its CRC-32.
    pub fn to_bytes(&self) -> Vec<u8> {
        let file = Assembled::new(&[self]);
        let mut out = Vec::with_capacity(file.encoded_len());
        file.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Parses and fully validates bytes produced by
    /// [`DurableSnapshot::to_bytes`]. Every corruption mode — flipped
    /// bit, truncation, bad structure — returns a typed [`CkptError`];
    /// success means every checksum passed.
    pub fn from_bytes(bytes: &[u8]) -> Result<DurableSnapshot, CkptError> {
        Self::decode(&mut &bytes[..], bytes.len() as u64)
    }

    /// Decodes the `len`-byte file at the front of `src` through the
    /// decoder's fixed buffer, one scope at a time: the header, then each
    /// record in file order. A scope is decoded as it streams in, but its
    /// CRC, which follows it, outranks what the decode found, as if it
    /// had been checked first; the load stops at the first bad scope.
    fn decode(src: &mut dyn Read, len: u64) -> Result<DurableSnapshot, CkptError> {
        let header_len = Self::header_len() as u64;
        if len < header_len + 4 {
            return Err(CkptError::TooShort { len: len as usize });
        }
        let mut r = Decoder::new(src);
        r.begin(header_len);
        let header = Self::decode_header(&mut r);
        // Another revision's header has another shape, so its CRC is not
        // where this one's is: the version is judged first.
        if let Err(e @ CkptError::BadVersion(_)) = header {
            return Err(e);
        }
        r.end("header")?;
        let (step, lens) = header?;
        let records = lens
            .iter()
            .try_fold(header_len + 4, |n, &l| n.checked_add(l)?.checked_add(4));
        if records != Some(len) {
            return Err(CkptError::Malformed(format!(
                "record lengths {lens:?} do not fill a file of {len} bytes"
            )));
        }
        let [meta, params, bn, opt, ema, history] = lens;
        let (progress, world) = r.record(meta, |r| Self::decode_meta(r, step))?;
        Ok(DurableSnapshot {
            progress,
            world,
            params: r.record(params, Self::decode_params)?,
            bn_running: r.record(bn, Self::decode_bn)?,
            opt_state: r.record(opt, Self::decode_opt)?,
            ema: r.record(ema, Self::decode_ema)?,
            history: r.record(history, Self::decode_history)?,
        })
    }

    /// The header before its CRC: the step, and the length of each of
    /// [`DurableSnapshot::RECORDS`], which it must list in order.
    fn decode_header(r: &mut Decoder) -> Result<(u64, [u64; 6]), CkptError> {
        let magic: [u8; 8] = r.bytes()?;
        let version = r.u32()?;
        if version != CKPT_STORE_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        if &magic != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let step = r.u64()?;
        let count = r.u32()?;
        if count as usize != Self::RECORDS.len() {
            return Err(CkptError::Malformed(format!(
                "{count} records, not {}",
                Self::RECORDS.len()
            )));
        }
        let mut lens = [0; 6];
        for ((name, _), len) in Self::RECORDS.iter().zip(&mut lens) {
            let got = r.str()?;
            if got != *name {
                return Err(CkptError::Malformed(format!(
                    "record {got:?} where {name:?} belongs"
                )));
            }
            *len = r.u64()?;
        }
        r.finished()?;
        Ok((step, lens))
    }

    fn encode_meta(file: &Assembled, w: &mut Encoder) {
        let p = &file.first.progress;
        w.u64(p.epoch);
        w.u64(p.sample_off);
        w.u64(p.steps_this_epoch);
        w.u64(p.consumed_samples);
        w.u64(file.first.world);
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

    fn encode_params(file: &Assembled, w: &mut Encoder) {
        w.u32(file.params.len() as u32);
        for rec in &file.params {
            w.tensor(&rec.name, &rec.shape, &rec.bits);
        }
    }

    fn decode_params(r: &mut Decoder) -> Result<Vec<TensorRecord>, CkptError> {
        let out = r.tensors()?;
        r.finished()?;
        Ok(out)
    }

    fn encode_bn(file: &Assembled, w: &mut Encoder) {
        w.u32(file.first.bn_running.len() as u32);
        for (mean, var) in &file.first.bn_running {
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

    fn encode_opt(file: &Assembled, w: &mut Encoder) {
        w.u64s(&file.first.opt_state.scalars);
        w.u32(file.banks.len() as u32);
        for bank in &file.banks {
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

    fn encode_ema(file: &Assembled, w: &mut Encoder) {
        match &file.first.ema {
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

    fn encode_history(file: &Assembled, w: &mut Encoder) {
        w.u32(file.first.history.len() as u32);
        for rec in &file.first.history {
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

/// One file's content, assembled from the shares of one step without a
/// copy: the progress, BN statistics, EMA, history and optimizer scalars
/// of the first share, and each parameter's weights and optimizer banks
/// from the share that holds its weights. A whole snapshot is the
/// one-share case.
struct Assembled<'a> {
    first: &'a DurableSnapshot,
    params: Vec<&'a TensorRecord>,
    /// Slot-major, as [`OptimizerState::banks`].
    banks: Vec<&'a [u32]>,
}

impl<'a> Assembled<'a> {
    /// Panics unless the shares agree on the step and on the number of
    /// parameters and banks, and some share holds every parameter.
    fn new(shares: &[&'a DurableSnapshot]) -> Self {
        let first = *shares.first().expect("a file needs a share");
        let (n, banks) = (first.params.len(), first.opt_state.banks.len());
        for s in shares {
            assert_eq!(
                (s.progress.step, s.params.len(), s.opt_state.banks.len()),
                (first.progress.step, n, banks),
                "the shares of a file disagree on the step, the parameters or the banks"
            );
        }
        let holders: Vec<&DurableSnapshot> = (0..n)
            .map(|i| {
                let holds = |s: &&&DurableSnapshot| {
                    let p = &s.params[i];
                    p.bits.len() == p.shape.iter().product::<usize>()
                };
                let name = &first.params[i].name;
                *shares
                    .iter()
                    .find(holds)
                    .unwrap_or_else(|| panic!("no share holds the weights of {name}"))
            })
            .collect();
        // Bank `j` is parameter `j mod n`'s segment of its slot.
        let holder = |j: usize| if n == 0 { first } else { holders[j % n] };
        Assembled {
            first,
            params: (0..n).map(|i| &holders[i].params[i]).collect(),
            banks: (0..banks)
                .map(|j| holder(j).opt_state.banks[j].as_slice())
                .collect(),
        }
    }

    /// Streams the file into `sink` through the encoder's fixed buffer
    /// and returns its length. The header lists every record's length
    /// before the first payload, so the lengths come from
    /// [`Assembled::record_lens`], and each payload is checked against
    /// its own.
    fn write_to(&self, sink: &mut dyn Write) -> io::Result<u64> {
        let mut w = Encoder::new(sink);
        let lens = self.record_lens();
        w.bytes(MAGIC);
        w.u32(CKPT_STORE_VERSION);
        w.u64(self.first.progress.step);
        w.u32(DurableSnapshot::RECORDS.len() as u32);
        for ((name, _), len) in DurableSnapshot::RECORDS.iter().zip(lens) {
            w.str(name);
            w.u64(len as u64);
        }
        w.end_scope();
        for ((name, encode), len) in DurableSnapshot::RECORDS.into_iter().zip(lens) {
            let start = w.len();
            encode(self, &mut w);
            assert_eq!(w.len() - start, len as u64, "length of the {name} record");
            w.end_scope();
        }
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
        let (first, params) = (self.first, self.params.iter());
        let bn = first.bn_running.iter();
        let ema = first.ema.iter().flat_map(|e| &e.shadow);
        [
            5 * 8 + 4 + 8 + 4,
            4 + params
                .map(|t| tensor(&t.name, &t.shape, &t.bits))
                .sum::<usize>(),
            4 + bn.map(|(m, v)| u32s(m) + u32s(v)).sum::<usize>(),
            8 + 8 * first.opt_state.scalars.len()
                + 4
                + self.banks.iter().map(|b| u32s(b)).sum::<usize>(),
            1 + first.ema.as_ref().map_or(0, |_| 4 + 8 + 4)
                + ema.map(|(n, s, b)| tensor(n, s, b)).sum::<usize>(),
            4 + first
                .history
                .iter()
                .map(|r| 8 + 4 + 4 + opt_f64(r.eval_top1) + opt_f64(r.eval_top5))
                .sum::<usize>(),
        ]
    }

    /// Exact length of the file.
    fn encoded_len(&self) -> usize {
        let records = self.record_lens().iter().map(|len| len + 4).sum::<usize>();
        DurableSnapshot::header_len() + 4 + records
    }
}

// ---------------------------------------------------------------------------
// The store: atomic writes, retention, fallback loads.
// ---------------------------------------------------------------------------

/// The temp file of an atomic write: each write ends with a call of
/// `between`, so a save streaming its chunks through it hands its caller
/// a turn after every chunk.
struct Paced<'a> {
    file: fs::File,
    between: &'a mut dyn FnMut(),
}

impl Write for Paced<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        (self.between)();
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// What [`CkptStore::load_latest_valid`] had to do to find a good
/// checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Step of the checkpoint actually loaded.
    pub loaded_step: u64,
    /// Corrupt (or unreadable) newer checkpoints skipped on the way.
    pub corrupt_skipped: u64,
}

/// A directory of durable checkpoints; its listing is the index.
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

    /// Atomically persists `snap` and applies the retention policy.
    /// Returns the checkpoint's final path.
    ///
    /// The encoding streams into the temp file through a fixed buffer,
    /// so a save holds no file-sized copy of the snapshot, and it reads
    /// no checkpoint back.
    pub fn save(&self, snap: &DurableSnapshot) -> Result<PathBuf, CkptError> {
        self.save_paced(&[snap], &mut || {})
    }

    /// [`CkptStore::save`] of the file assembled from `shares`: what
    /// [`DurableSnapshot::capture`] took over each owner's parameters at
    /// one step, rank 0's first, whose progress, BN statistics, EMA,
    /// history and optimizer scalars the file keeps. The file is byte for
    /// byte that of the whole snapshot the shares split. Calls
    /// `between` after each chunk it writes and before each `fsync`: the
    /// caller's turns to do other work while the save is in flight. The
    /// save is durable when this returns.
    ///
    /// The file is written to `<name>.tmp`, fsynced and renamed into
    /// place, so readers see the old file or the new one, never a torn
    /// one. One listing of the directory then deletes all but the newest
    /// `retain` checkpoints, and one directory `fsync` makes the rename
    /// and the deletions durable.
    pub fn save_paced(
        &self,
        shares: &[&DurableSnapshot],
        between: &mut dyn FnMut(),
    ) -> Result<PathBuf, CkptError> {
        let content = Assembled::new(shares);
        let step = content.first.progress.step;
        let _span = self
            .recorder
            .as_ref()
            .map(|rec| rec.wall_span(Lane::WallCkpt, obs_phase::DURABLE_CHECKPOINT, step, 0));
        let name = Self::file_name(step);
        let (tmp, path) = (self.dir.join(format!("{name}.tmp")), self.dir.join(name));
        let len = {
            let file = fs::File::create(&tmp).map_err(io_err)?;
            let mut f = Paced { file, between };
            let len = content.write_to(&mut f).map_err(io_err)?;
            (f.between)();
            f.file.sync_all().map_err(io_err)?;
            len
        };
        fs::rename(&tmp, &path).map_err(io_err)?;
        self.count("ckpt_bytes_written", len);
        let steps = self.list_steps()?;
        for &dead in &steps[..steps.len().saturating_sub(self.retain)] {
            let _ = fs::remove_file(self.path_for(dead));
        }
        between();
        fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err)?;
        Ok(path)
    }

    fn count(&self, counter: &'static str, delta: u64) {
        if let Some(rec) = &self.recorder {
            rec.counter_add(counter, delta);
        }
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
        let mut steps = self.list_steps()?;
        steps.retain(|&s| s < before);
        let mut skipped = 0u64;
        for step in steps.into_iter().rev() {
            match self.load_step(step) {
                Ok(snap) => {
                    let report = LoadReport {
                        loaded_step: step,
                        corrupt_skipped: skipped,
                    };
                    return Ok(Some((snap, report)));
                }
                Err(_) => skipped += 1,
            }
        }
        Ok(None)
    }

    /// Loads and validates the checkpoint at `step`, streaming its bytes
    /// through the decoder's buffer. `ckpt_bytes_read` counts what the
    /// decoder pulled: a load that stops at a bad scope reads no further.
    pub fn load_step(&self, step: u64) -> Result<DurableSnapshot, CkptError> {
        let file = fs::File::open(self.path_for(step)).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let mut src = file.take(len);
        let decoded = DurableSnapshot::decode(&mut src, len);
        self.count("ckpt_bytes_read", len - src.limit());
        let snap = decoded?;
        if snap.progress.step != step {
            return Err(CkptError::Malformed(format!(
                "file named for step {step} contains step {}",
                snap.progress.step
            )));
        }
        Ok(snap)
    }
}

fn parse_ckpt_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?;
    let digits = rest.strip_suffix(&format!(".{CKPT_EXT}"))?;
    digits.parse().ok()
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

    /// `bytes` with `patch` applied to its header and the header CRC
    /// recomputed, so only the patched field can be at fault.
    fn repatched(bytes: &[u8], patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let (mut out, h) = (bytes.to_vec(), DurableSnapshot::header_len());
        patch(&mut out[..h]);
        let crc = crc32(&out[..h]);
        out[h..h + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Offset of the record count in the header.
    const AT_COUNT: usize = MAGIC.len() + 4 + 8;

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
        let opt = ets_optim::Sgd::new(0.9, 0.0);
        DurableSnapshot::capture(m, &opt, 0..usize::MAX, None, &progress, 1, &[])
    }

    fn apply_to_model(snap: &DurableSnapshot, m: &mut EfficientNet) -> Progress {
        snap.apply(
            m,
            &mut ets_optim::Sgd::new(0.9, 0.0),
            0..usize::MAX,
            &mut None,
        )
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
        // Recorded when the header CRC replaced the whole-file trailer
        // (revision 2, the same length as revision 1): the in-memory
        // representation may change, the file may not. The pin is an
        // FNV-1a, not a CRC-32: the header and each record end in their
        // own CRC, so the CRC-32 of a whole file depends only on the
        // lengths of those scopes.
        let bytes = sample_snapshot(7).to_bytes();
        assert_eq!(bytes.len(), 544);
        let fnv1a = bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(fnv1a, 0x5BFF_1260_1B3B_8B4A);
    }

    #[test]
    fn foreign_version_and_magic_are_typed_errors() {
        let bytes = sample_snapshot(3).to_bytes();
        let at_version = MAGIC.len();
        // Revision 1 kept its CRC elsewhere, so the version is judged
        // before the header CRC.
        for version in [1, CKPT_STORE_VERSION + 1] {
            let mut foreign = bytes.clone();
            foreign[at_version..at_version + 4].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                DurableSnapshot::from_bytes(&foreign).unwrap_err(),
                CkptError::BadVersion(version)
            );
        }
        let alien = repatched(&bytes, |b| b[0] = b'X');
        assert_eq!(
            DurableSnapshot::from_bytes(&alien).unwrap_err(),
            CkptError::BadMagic
        );
    }

    #[test]
    fn a_header_must_list_the_records_in_order() {
        // Names at their offsets in the header: "opt" and "ema" have the
        // same length, so they swap without moving a field.
        let bytes = sample_snapshot(2).to_bytes();
        let name_at = |name: &[u8]| bytes.windows(name.len()).position(|w| w == name).unwrap();
        let (opt, ema) = (name_at(b"opt"), name_at(b"ema"));
        let swapped = repatched(&bytes, |b| {
            b[opt..opt + 3].copy_from_slice(b"ema");
            b[ema..ema + 3].copy_from_slice(b"opt");
        });
        let renamed = repatched(&bytes, |b| b[opt] = b'x');
        let extra = repatched(&bytes, |b| b[AT_COUNT] += 1);
        for (what, file) in [("swapped", swapped), ("renamed", renamed), ("extra", extra)] {
            assert!(
                matches!(
                    DurableSnapshot::from_bytes(&file),
                    Err(CkptError::Malformed(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn a_bad_header_is_judged_before_any_record_is_read() {
        // The record count, the largest record's length and the header
        // CRC: each flip is a header mismatch, read through a source that
        // counts what the decoder pulled.
        let snap = multi_chunk_snapshot(3);
        let bytes = snap.to_bytes();
        let lens = Assembled::new(&[&snap]).record_lens();
        let largest = (0..lens.len()).max_by_key(|&i| lens[i]).unwrap();
        let at_len = |i: usize| {
            let names = DurableSnapshot::RECORDS[..=i]
                .iter()
                .map(|(n, _)| 4 + n.len());
            AT_COUNT + 4 + names.sum::<usize>() + 8 * i
        };
        let header = DurableSnapshot::header_len();
        for (field, at) in [
            ("count", AT_COUNT),
            ("largest length", at_len(largest)),
            ("CRC", header),
        ] {
            for bit in [0, 5, 7] {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                let mut src = bad.as_slice().take(u64::MAX);
                let err = DurableSnapshot::decode(&mut src, bad.len() as u64).unwrap_err();
                assert!(
                    matches!(err, CkptError::ChecksumMismatch { what: "header", .. }),
                    "{field} bit {bit}: {err}"
                );
                let pulled = u64::MAX - src.limit();
                assert_eq!(pulled, header as u64 + 4, "{field} bit {bit}");
            }
        }
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
                // The piece continues a prefix.
                let mut c = Crc32::new();
                c.update(&data[..off]);
                c.update(piece);
                assert_eq!(c.finish(), crc32_bitwise(&data[..off + len]));
            }
        }
    }

    /// `n` seeded bytes.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = CorruptionInjector::new(seed);
        (0..n).map(|_| rng.next() as u8).collect()
    }

    #[test]
    fn the_carry_less_fold_equals_the_table_fold() {
        // Every length on both sides of `CLMUL_MIN`, of the 64-byte line
        // and of the 16-byte block, from every start offset.
        let data = noise(512 + 16, 0xC1A5);
        for off in 0..16 {
            for len in 0..=512 {
                let piece = &data[off..off + len];
                let want = crc32_table(!0, piece);
                assert_eq!(crc32_fold(!0, piece), want, "offset {off} length {len}");
                #[cfg(target_arch = "x86_64")]
                if len >= 64 && len % 16 == 0 && std::arch::is_x86_feature_detected!("pclmulqdq") {
                    // SAFETY: the host has PCLMULQDQ.
                    let got = unsafe { crc32_clmul(!0, piece) };
                    assert_eq!(got, want, "offset {off} length {len}");
                }
            }
        }
        // A checkpoint's worth in one piece.
        let big = noise(8 << 20, 8);
        assert_eq!(crc32_fold(!0, &big), crc32_table(!0, &big));
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn the_header_crc_is_crc32_of_the_header_bytes() {
        let h = DurableSnapshot::header_len();
        for snap in [sample_snapshot(7), multi_chunk_snapshot(2)] {
            let bytes = snap.to_bytes();
            assert_eq!(bytes[h..h + 4], crc32(&bytes[..h]).to_le_bytes());
        }
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

        #[test]
        fn pieces_through_update_give_the_table_fold(
            len in 0usize..4096,
            cuts in proptest::collection::vec(0usize..4097, 0..6),
            seed in 0u64..1 << 20,
        ) {
            // Pieces of any size, so some take the carry-less fold and
            // some the table, each from the state the last one left.
            let data = noise(len, seed);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let (mut c, mut at) = (Crc32::new(), 0);
            for &cut in cuts.iter().chain([&len]) {
                c.update(&data[at..cut]);
                at = cut;
            }
            proptest::prop_assert_eq!(c.finish(), !crc32_table(!0, &data));
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
            let mut r = Decoder::new(&mut src);
            r.begin(DurableSnapshot::header_len() as u64);
            r.skip(AT_COUNT as u64 + 4).unwrap();
            let file = Assembled::new(&[&snap]);
            let lens = file.record_lens();
            for ((name, _), &len) in DurableSnapshot::RECORDS.iter().zip(&lens) {
                assert_eq!(r.str().unwrap(), *name);
                assert_eq!(r.usize().unwrap(), len, "{name} record");
            }
            r.end("header").unwrap();
            for len in lens {
                r.record(len as u64, |_| Ok(())).unwrap();
            }
            assert!(src.is_empty());
            assert_eq!(file.encoded_len(), bytes.len());
            assert_eq!(file.encoded_len(), bytes.capacity());
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
    fn the_file_of_the_shares_is_the_file_of_the_whole_snapshot() {
        // Each rank's share holds the weights and RMSProp banks of the
        // parameters it owns, and ranks after the first capture theirs
        // with BN statistics a forward of their own moved. The file the
        // store assembles from the shares is byte for byte the whole
        // capture's, with rank 0's BN statistics. World 3 cuts this model
        // unevenly: 68 326, 70 100 and 61 680 weights.
        let dir = scratch_dir("shares");
        let store = CkptStore::open(&dir, 1).unwrap();
        for world in [1, 2, 3] {
            let mut m = model(4);
            let mut rng = ets_tensor::Rng::new(8);
            let mut x = ets_tensor::Tensor::zeros([2, 3, 16, 16]);
            rng.fill_normal(x.data_mut(), 0.0, 1.0);
            let logits = m.forward(&x, ets_nn::Mode::Train, &mut rng);
            m.backward(&logits);
            let mut opt = ets_optim::RmsProp::efficientnet_default();
            opt.step(&mut m, 0.01);
            let ema = Ema::new(&mut m, 0.999);
            let progress = Progress {
                step: world as u64,
                ..Progress::fresh()
            };
            let history = sample_snapshot(0).history;
            let capture = |m: &mut EfficientNet, owned| {
                DurableSnapshot::capture(m, &opt, owned, Some(&ema), &progress, world, &history)
            };
            let whole = capture(&mut m, 0..usize::MAX);
            let cut = ets_optim::Shares::new(&mut m, world);
            if world == 3 {
                assert_eq!(cut.elems(), [0, 68_326, 138_426, 200_106]);
            }
            let shares: Vec<DurableSnapshot> = (0..world)
                .map(|r| {
                    if r > 0 {
                        perturb_running_stats(&mut m, r as u64);
                    }
                    capture(&mut m, cut.owned(r))
                })
                .collect();
            assert!(world == 1 || shares[world - 1].bn_running != whole.bn_running);
            let shares: Vec<&DurableSnapshot> = shares.iter().collect();
            let path = store.save_paced(&shares, &mut || {}).unwrap();
            assert!(fs::read(path).unwrap() == whole.to_bytes(), "world {world}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_saved_file_is_to_bytes() {
        let dir = scratch_dir("streamed");
        let store = CkptStore::open(&dir, 2).unwrap();
        for snap in [sample_snapshot(3), multi_chunk_snapshot(4)] {
            let path = store.save(&snap).unwrap();
            let bytes = fs::read(&path).unwrap();
            assert_eq!(bytes, snap.to_bytes(), "step {}", snap.progress.step);
            assert_eq!(DurableSnapshot::from_bytes(&bytes).unwrap(), snap);
        }
        assert!(Assembled::new(&[&multi_chunk_snapshot(4)]).encoded_len() > 4 * CHUNK);
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
        let file = Assembled::new(&[&snap]);
        for room in [0, 100, CHUNK, 3 * CHUNK + 5] {
            let err = file.write_to(&mut Full(room)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "room {room}");
        }
        let room = file.encoded_len();
        assert_eq!(file.write_to(&mut Full(room)).unwrap(), room as u64);
    }

    #[test]
    fn record_length_near_u64_max_is_malformed_not_a_panic() {
        // Offset of the first record's length: after the count, the
        // length-prefixed name "meta". The header CRC is recomputed, so
        // only the length check stands between the length and a slice.
        let at_len = AT_COUNT + 4 + 4 + "meta".len();
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
    fn a_retained_checkpoint_that_rotted_stays_rejected_after_a_later_save() {
        let dir = scratch_dir("rotted");
        let store = CkptStore::open(&dir, 4).unwrap();
        for step in [1u64, 2, 3] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        CorruptionInjector::new(5)
            .flip_one_bit(&store.path_for(2))
            .unwrap();
        store.save(&sample_snapshot(4)).unwrap();
        assert!(store.load_step(2).is_err());
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
        // A load that stops at a corrupt first record reads the header
        // and that record, and nothing after it.
        let mut bytes = fs::read(store.path_for(5)).unwrap();
        let first = DurableSnapshot::header_len() + 4;
        bytes[first] ^= 1;
        fs::write(store.path_for(5), &bytes).unwrap();
        assert!(store.load_step(5).is_err());
        let read = rec.counter_value("ckpt_bytes_read") - newest;
        let meta = Assembled::new(&[&sample_snapshot(5)]).record_lens()[0];
        assert_eq!(read as usize, first + meta + 4);
        assert!(read < newest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let dir = scratch_dir("atomic");
        let store = CkptStore::open(&dir, 2).unwrap();
        for step in [4u64, 6, 8] {
            store.save(&sample_snapshot(step)).unwrap();
        }
        // No temp file, no index: the retained checkpoints and nothing else.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        names.sort();
        assert_eq!(names, [CkptStore::file_name(6), CkptStore::file_name(8)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
