//! Deterministic capture and replay of file-system op traces.
//!
//! The `mssd::trace` pipeline (PR 9) captures what the *device* saw — every
//! NVMe-style command with timestamps and outcomes, exported by
//! [`mssd::chrome_trace_json`]. That is ideal for inspecting one run but
//! cannot be re-driven against a *different* file system: a device command
//! stream encodes one fs implementation's private layout decisions. This
//! module records one level up, at the [`FileSystem`] boundary, where the op
//! stream (`create`, `write`, `fsync`, `rename`, ...) is
//! implementation-neutral:
//!
//! * [`RecordingFs`] wraps any `FileSystem` and logs every call — op kind,
//!   paths, handle identity, offsets, byte-exact payloads, the ambient
//!   tenant (from [`mssd::trace::ctx`]) and the virtual timestamp at issue;
//! * [`OpTrace`] is the captured trace: a versioned header
//!   ([`TraceMeta`]: schema, workload name, seed, device geometry) plus the
//!   ordered records, serializable as grep-able text
//!   ([`OpTrace::to_text`] / [`OpTrace::from_text`]);
//! * [`replay`] re-drives a parsed trace against any [`FileSystem`] impl
//!   (bytefs, ext4like, novalike, f2fslike, pmfslike) in recorded order,
//!   on the recorded virtual timeline.
//!
//! # Timing model and determinism contract
//!
//! All timing is the shared **virtual clock** — wall time never enters.
//! The replayer tops the clock up to each record's captured issue timestamp
//! before applying it, reconstructing the recorded timeline exactly:
//! inter-op gaps (a bursty workload's idle windows, the measurement
//! harness's per-op host-CPU charge) reappear as recorded. Ops run one at a
//! time, in recorded order, each under its recorded tenant. Because every
//! file system derives its state — including inode timestamps — from the
//! same clock, every replay is **bit-reproducible**: two replays of a trace
//! against fresh devices of the same kind and geometry agree bit for bit,
//! and a replay on the recording file system reproduces the original run's
//! remounted device digest ([`mssd::CrashImage::digest`]) — the contract
//! the `replay` bench gates.
//!
//! See `DESIGN-replay.md` next to this crate for the format grammar, the
//! corpus index ([`crate::corpus`]) and the full determinism argument.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use fskit::{Fd, FileSystem, FsError, FsResult, Metadata, OpenFlags};
use mssd::clock::Stopwatch;
use mssd::{Mssd, MssdConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::driver::{measure, RunResult};
use crate::fsfactory::FsKind;
use crate::metrics::{OpClass, Recorder};
use crate::Workload;

/// Schema version of the fs-level op-trace text format.
pub const FS_TRACE_SCHEMA: u64 = 1;

/// Longest `fill=` payload [`OpTrace::from_text`] accepts from a trace whose
/// header leaves the device capacity unknown (a sized header bounds fills by
/// its own `capacity_bytes`): larger than any write a workload issues, small
/// enough that a hostile trace cannot make replay allocate gigabytes.
const UNSIZED_TRACE_MAX_FILL: u64 = 64 << 20;

/// Sentinel recorded as the handle of a `create`/`open` that failed.
pub const NO_FD: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Trace data model
// ---------------------------------------------------------------------------

/// Trace header: schema plus everything a replayer needs to validate it is
/// re-driving the trace against a compatible device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Format schema version ([`FS_TRACE_SCHEMA`] for fresh traces).
    pub schema: u64,
    /// Workload label the trace was recorded from.
    pub name: String,
    /// Workload RNG seed of the recording run.
    pub seed: u64,
    /// Device capacity the trace was recorded against (0 = unknown).
    pub capacity_bytes: u64,
    /// Device page size (0 = unknown).
    pub page_size: u64,
}

/// A write payload. Workload payloads are overwhelmingly uniform fill
/// patterns (`vec![tag; n]`); storing them as a (byte, length) pair keeps
/// multi-megabyte traces small while staying byte-exact — replay must
/// reproduce the recorded image bit for bit, so payloads are never lossy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// `len` copies of `byte`.
    Fill {
        /// The repeated byte value.
        byte: u8,
        /// Payload length in bytes.
        len: u32,
    },
    /// Verbatim bytes (non-uniform payloads).
    Bytes(Vec<u8>),
}

impl Payload {
    /// Captures a slice, compressing uniform fills.
    pub fn from_slice(data: &[u8]) -> Self {
        match data.first() {
            Some(&b) if data.iter().all(|&x| x == b) => {
                Payload::Fill { byte: b, len: data.len() as u32 }
            }
            _ => Payload::Bytes(data.to_vec()),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Fill { len, .. } => *len as usize,
            Payload::Bytes(b) => b.len(),
        }
    }

    /// `true` for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the payload bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            Payload::Fill { byte, len } => vec![*byte; *len as usize],
            Payload::Bytes(b) => b.clone(),
        }
    }
}

/// One recorded [`FileSystem`] call. Handle-referencing ops carry the *fd
/// value of the recording run*; the replayer maps it to the live handle its
/// own `create`/`open` returned ([`NO_FD`] marks a failed open, which maps
/// to nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings mirror the FileSystem trait methods
pub enum OpKind {
    Create { path: String, fd: u64 },
    Open { path: String, flags: u8, fd: u64 },
    Close { fd: u64 },
    Read { fd: u64, offset: u64, len: u32 },
    Write { fd: u64, offset: u64, data: Payload },
    Append { fd: u64, data: Payload },
    Fsync { fd: u64 },
    Fdatasync { fd: u64 },
    Truncate { fd: u64, size: u64 },
    Fstat { fd: u64 },
    Stat { path: String },
    Mkdir { path: String },
    Rmdir { path: String },
    Unlink { path: String },
    Rename { from: String, to: String },
    Readdir { path: String },
    Sync,
    DropCaches,
    Unmount,
}

/// Packs [`OpenFlags`] into the trace's one-byte representation.
pub fn flag_bits(flags: OpenFlags) -> u8 {
    (flags.create as u8)
        | (flags.truncate as u8) << 1
        | (flags.write as u8) << 2
        | (flags.direct as u8) << 3
        | (flags.append as u8) << 4
}

/// Unpacks [`flag_bits`].
pub fn open_flags(bits: u8) -> OpenFlags {
    OpenFlags {
        create: bits & 1 != 0,
        truncate: bits & 2 != 0,
        write: bits & 4 != 0,
        direct: bits & 8 != 0,
        append: bits & 16 != 0,
    }
}

/// One trace record: an op, who issued it, when, and how it resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global sequence number (total order as recorded).
    pub seq: u64,
    /// Tenant (client) that issued the op (ambient [`mssd::trace::ctx`]).
    pub tenant: u16,
    /// Virtual nanoseconds since trace start, captured at op *issue*.
    pub vts_ns: u64,
    /// `true` for measured-phase ops; setup/teardown records are replayed
    /// but not measured.
    pub measured: bool,
    /// Whether the call succeeded in the recording run.
    pub ok: bool,
    /// The call itself.
    pub op: OpKind,
}

/// A captured fs-level op trace: header plus ordered records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Header metadata.
    pub meta: TraceMeta,
    /// Records in global sequence order.
    pub records: Vec<OpRecord>,
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// Percent-escapes a path/name so every serialized token is whitespace-free.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_graphic() && b != b'%' {
            out.push(b as char);
        } else {
            let _ = write!(out, "%{b:02x}");
        }
    }
    out
}

/// Reverses [`esc`].
fn unesc(s: &str) -> Result<String, String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex =
                bytes.get(i + 1..i + 3).ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?;
            out.push(
                u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex} in {s:?}"))?,
            );
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escaped token {s:?} is not UTF-8"))
}

fn payload_token(p: &Payload) -> String {
    match p {
        Payload::Fill { byte, len } => format!("fill={byte:02x}:{len}"),
        Payload::Bytes(b) => {
            let mut t = String::with_capacity(4 + b.len() * 2);
            t.push_str("hex=");
            for x in b {
                let _ = write!(t, "{x:02x}");
            }
            t
        }
    }
}

/// Parses a payload token. `max_fill` bounds a `fill=` length: the fill is
/// only materialized at replay, so an unchecked length would turn a
/// one-line trace into a multi-gigabyte allocation there.
fn parse_payload(tok: &str, max_fill: u64) -> Result<Payload, String> {
    if let Some(v) = tok.strip_prefix("fill=") {
        let (byte, len) = v.split_once(':').ok_or_else(|| format!("bad fill token {tok:?}"))?;
        let len: u32 = len.parse().map_err(|e| format!("bad fill length: {e}"))?;
        if u64::from(len) > max_fill {
            return Err(format!("fill length {len} exceeds the {max_fill}-byte payload limit"));
        }
        return Ok(Payload::Fill {
            byte: u8::from_str_radix(byte, 16).map_err(|e| format!("bad fill byte: {e}"))?,
            len,
        });
    }
    let v = tok.strip_prefix("hex=").ok_or_else(|| format!("expected a payload, got {tok:?}"))?;
    // Decode over bytes: slicing the `str` by index would panic on a
    // multi-byte character straddling a pair boundary.
    let v = v.as_bytes();
    if v.len() % 2 != 0 {
        return Err(format!("odd hex payload length in {tok:?}"));
    }
    let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    v.chunks_exact(2)
        .map(|pair| match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => Ok(hi << 4 | lo),
            _ => Err(format!("bad hex payload in {tok:?}")),
        })
        .collect::<Result<_, _>>()
        .map(Payload::Bytes)
}

impl OpKind {
    /// The op's serialized text tokens (op name first).
    fn to_tokens(&self) -> String {
        match self {
            OpKind::Create { path, fd } => format!("create fd={fd} path={}", esc(path)),
            OpKind::Open { path, flags, fd } => {
                format!("open fd={fd} flags={flags} path={}", esc(path))
            }
            OpKind::Close { fd } => format!("close fd={fd}"),
            OpKind::Read { fd, offset, len } => format!("read fd={fd} off={offset} len={len}"),
            OpKind::Write { fd, offset, data } => {
                format!("write fd={fd} off={offset} {}", payload_token(data))
            }
            OpKind::Append { fd, data } => format!("append fd={fd} {}", payload_token(data)),
            OpKind::Fsync { fd } => format!("fsync fd={fd}"),
            OpKind::Fdatasync { fd } => format!("fdatasync fd={fd}"),
            OpKind::Truncate { fd, size } => format!("truncate fd={fd} size={size}"),
            OpKind::Fstat { fd } => format!("fstat fd={fd}"),
            OpKind::Stat { path } => format!("stat path={}", esc(path)),
            OpKind::Mkdir { path } => format!("mkdir path={}", esc(path)),
            OpKind::Rmdir { path } => format!("rmdir path={}", esc(path)),
            OpKind::Unlink { path } => format!("unlink path={}", esc(path)),
            OpKind::Rename { from, to } => format!("rename from={} to={}", esc(from), esc(to)),
            OpKind::Readdir { path } => format!("readdir path={}", esc(path)),
            OpKind::Sync => "sync".to_string(),
            OpKind::DropCaches => "drop_caches".to_string(),
            OpKind::Unmount => "unmount".to_string(),
        }
    }
}

/// Parses `key=value`, returning the value.
fn field<'a>(tok: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let tok = tok.ok_or_else(|| format!("missing {key} field"))?;
    tok.strip_prefix(key)
        .and_then(|v| v.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=..., got {tok:?}"))
}

fn field_u64(tok: Option<&str>, key: &str) -> Result<u64, String> {
    let v = field(tok, key)?;
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|e| format!("bad {key} value {v:?}: {e}"))
}

/// Parses `key=value` as an integer that must fit `T` — an out-of-range
/// value is an error, never a silent truncation.
fn field_int<T: TryFrom<u64>>(tok: Option<&str>, key: &str) -> Result<T, String> {
    let v = field_u64(tok, key)?;
    T::try_from(v).map_err(|_| format!("{key} value {v} is out of range"))
}

fn field_path(tok: Option<&str>, key: &str) -> Result<String, String> {
    unesc(field(tok, key)?)
}

fn parse_op(mut toks: std::str::SplitAsciiWhitespace<'_>, max_fill: u64) -> Result<OpKind, String> {
    let op = toks.next().ok_or("missing op name")?;
    Ok(match op {
        "create" => OpKind::Create {
            fd: field_u64(toks.next(), "fd")?,
            path: field_path(toks.next(), "path")?,
        },
        "open" => OpKind::Open {
            fd: field_u64(toks.next(), "fd")?,
            flags: field_int(toks.next(), "flags")?,
            path: field_path(toks.next(), "path")?,
        },
        "close" => OpKind::Close { fd: field_u64(toks.next(), "fd")? },
        "read" => OpKind::Read {
            fd: field_u64(toks.next(), "fd")?,
            offset: field_u64(toks.next(), "off")?,
            len: field_int(toks.next(), "len")?,
        },
        "write" => OpKind::Write {
            fd: field_u64(toks.next(), "fd")?,
            offset: field_u64(toks.next(), "off")?,
            data: parse_payload(toks.next().ok_or("missing payload")?, max_fill)?,
        },
        "append" => OpKind::Append {
            fd: field_u64(toks.next(), "fd")?,
            data: parse_payload(toks.next().ok_or("missing payload")?, max_fill)?,
        },
        "fsync" => OpKind::Fsync { fd: field_u64(toks.next(), "fd")? },
        "fdatasync" => OpKind::Fdatasync { fd: field_u64(toks.next(), "fd")? },
        "truncate" => OpKind::Truncate {
            fd: field_u64(toks.next(), "fd")?,
            size: field_u64(toks.next(), "size")?,
        },
        "fstat" => OpKind::Fstat { fd: field_u64(toks.next(), "fd")? },
        "stat" => OpKind::Stat { path: field_path(toks.next(), "path")? },
        "mkdir" => OpKind::Mkdir { path: field_path(toks.next(), "path")? },
        "rmdir" => OpKind::Rmdir { path: field_path(toks.next(), "path")? },
        "unlink" => OpKind::Unlink { path: field_path(toks.next(), "path")? },
        "rename" => OpKind::Rename {
            from: field_path(toks.next(), "from")?,
            to: field_path(toks.next(), "to")?,
        },
        "readdir" => OpKind::Readdir { path: field_path(toks.next(), "path")? },
        "sync" => OpKind::Sync,
        "drop_caches" => OpKind::DropCaches,
        "unmount" => OpKind::Unmount,
        other => return Err(format!("unknown op {other:?}")),
    })
}

impl OpTrace {
    /// Serializes the trace as text: one `#fstrace` header line, then one
    /// line per record — sequence, issue timestamp, tenant, phase
    /// (`S`etup/`R`un), outcome, op tokens. Line-oriented and
    /// whitespace-delimited, so traces grep and diff cleanly.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 48);
        let _ = writeln!(
            out,
            "#fstrace v{} name={} seed={:#x} capacity_bytes={} page_size={} ops={}",
            self.meta.schema,
            esc(&self.meta.name),
            self.meta.seed,
            self.meta.capacity_bytes,
            self.meta.page_size,
            self.records.len()
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{} {} t={} {} {} {}",
                r.seq,
                r.vts_ns,
                r.tenant,
                if r.measured { 'R' } else { 'S' },
                if r.ok { "ok" } else { "err" },
                r.op.to_tokens()
            );
        }
        out
    }

    /// Parses [`OpTrace::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input, an
    /// out-of-range field, a record ahead of the header, a `fill=` payload
    /// larger than the header's device capacity, or an unsupported schema
    /// version. Never panics, whatever the input.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut meta: Option<TraceMeta> = None;
        let mut records = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            let at = |e: String| format!("line {}: {e}", n + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("#fstrace ") {
                let mut toks = rest.split_ascii_whitespace();
                let version = toks.next().unwrap_or("");
                let schema: u64 = version
                    .strip_prefix('v')
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| at(format!("bad fstrace version {version:?}")))?;
                if schema > FS_TRACE_SCHEMA {
                    return Err(at(format!(
                        "fstrace schema v{schema} is newer than supported v{FS_TRACE_SCHEMA}"
                    )));
                }
                meta = Some(TraceMeta {
                    schema,
                    name: field_path(toks.next(), "name").map_err(&at)?,
                    seed: field_u64(toks.next(), "seed").map_err(&at)?,
                    capacity_bytes: field_u64(toks.next(), "capacity_bytes").map_err(&at)?,
                    page_size: field_u64(toks.next(), "page_size").map_err(&at)?,
                });
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // The header comes first: it carries the capacity that bounds
            // this record's payload.
            let max_fill = match &meta {
                Some(m) if m.capacity_bytes != 0 => m.capacity_bytes,
                Some(_) => UNSIZED_TRACE_MAX_FILL,
                None => return Err(at("record before the #fstrace header line".into())),
            };
            let mut toks = line.split_ascii_whitespace();
            let seq: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| at("bad sequence number".into()))?;
            let vts_ns: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| at("bad issue timestamp".into()))?;
            let tenant = field_int(toks.next(), "t").map_err(&at)?;
            let measured = match toks.next() {
                Some("R") => true,
                Some("S") => false,
                other => return Err(at(format!("bad phase marker {other:?}"))),
            };
            let ok = match toks.next() {
                Some("ok") => true,
                Some("err") => false,
                other => return Err(at(format!("bad outcome {other:?}"))),
            };
            let op = parse_op(toks, max_fill).map_err(&at)?;
            records.push(OpRecord { seq, tenant, vts_ns, measured, ok, op });
        }
        let meta = meta.ok_or("missing #fstrace header line")?;
        Ok(Self { meta, records })
    }

    /// Tenants present in the trace, ascending.
    pub fn tenants(&self) -> Vec<u16> {
        let mut t: Vec<u16> = self.records.iter().map(|r| r.tenant).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

struct RecState {
    records: Vec<OpRecord>,
    measured: bool,
}

/// A [`FileSystem`] wrapper that records every call into an op trace while
/// delegating to the wrapped implementation. Tenant attribution comes from
/// the ambient [`mssd::trace::ctx`] (set per client by the multi-client
/// corpus workloads), timestamps from the device's virtual clock at call
/// entry.
pub struct RecordingFs {
    inner: Arc<dyn FileSystem>,
    start_ns: u64,
    state: Mutex<RecState>,
}

impl RecordingFs {
    /// Wraps `inner`; the trace's timestamps are relative to this moment.
    pub fn new(inner: Arc<dyn FileSystem>) -> Self {
        let start_ns = inner.clock().now_ns();
        Self {
            inner,
            start_ns,
            state: Mutex::new(RecState { records: Vec::new(), measured: false }),
        }
    }

    /// Switches phase attribution: records are tagged measured (`R`) while
    /// `true`, setup/teardown (`S`) otherwise.
    pub fn set_measured(&self, measured: bool) {
        self.state.lock().expect("recording state").measured = measured;
    }

    /// Consumes the recorder, producing the trace under `meta`.
    pub fn into_trace(self, meta: TraceMeta) -> OpTrace {
        OpTrace { meta, records: self.state.into_inner().expect("recording state").records }
    }

    fn vts(&self) -> u64 {
        self.inner.clock().now_ns().saturating_sub(self.start_ns)
    }

    fn record(&self, vts_ns: u64, ok: bool, op: OpKind) {
        let mut st = self.state.lock().expect("recording state");
        let seq = st.records.len() as u64;
        let measured = st.measured;
        st.records.push(OpRecord {
            seq,
            tenant: mssd::trace::ctx().tenant,
            vts_ns,
            measured,
            ok,
            op,
        });
    }
}

impl FileSystem for RecordingFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> &Arc<Mssd> {
        self.inner.device()
    }

    fn create(&self, path: &str) -> FsResult<Fd> {
        let vts = self.vts();
        let res = self.inner.create(path);
        let fd = res.as_ref().map(|fd| fd.0).unwrap_or(NO_FD);
        self.record(vts, res.is_ok(), OpKind::Create { path: path.to_string(), fd });
        res
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let vts = self.vts();
        let res = self.inner.open(path, flags);
        let fd = res.as_ref().map(|fd| fd.0).unwrap_or(NO_FD);
        self.record(
            vts,
            res.is_ok(),
            OpKind::Open { path: path.to_string(), flags: flag_bits(flags), fd },
        );
        res
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.close(fd);
        self.record(vts, res.is_ok(), OpKind::Close { fd: fd.0 });
        res
    }

    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let vts = self.vts();
        let res = self.inner.read(fd, offset, len);
        self.record(
            vts,
            res.is_ok(),
            OpKind::Read { fd: fd.0, offset, len: len.min(u32::MAX as usize) as u32 },
        );
        res
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let vts = self.vts();
        let res = self.inner.write(fd, offset, data);
        self.record(
            vts,
            res.is_ok(),
            OpKind::Write { fd: fd.0, offset, data: Payload::from_slice(data) },
        );
        res
    }

    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let vts = self.vts();
        let res = self.inner.append(fd, data);
        self.record(vts, res.is_ok(), OpKind::Append { fd: fd.0, data: Payload::from_slice(data) });
        res
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.fsync(fd);
        self.record(vts, res.is_ok(), OpKind::Fsync { fd: fd.0 });
        res
    }

    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.fdatasync(fd);
        self.record(vts, res.is_ok(), OpKind::Fdatasync { fd: fd.0 });
        res
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.truncate(fd, size);
        self.record(vts, res.is_ok(), OpKind::Truncate { fd: fd.0, size });
        res
    }

    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        let vts = self.vts();
        let res = self.inner.fstat(fd);
        self.record(vts, res.is_ok(), OpKind::Fstat { fd: fd.0 });
        res
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let vts = self.vts();
        let res = self.inner.stat(path);
        self.record(vts, res.is_ok(), OpKind::Stat { path: path.to_string() });
        res
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.mkdir(path);
        self.record(vts, res.is_ok(), OpKind::Mkdir { path: path.to_string() });
        res
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.rmdir(path);
        self.record(vts, res.is_ok(), OpKind::Rmdir { path: path.to_string() });
        res
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.unlink(path);
        self.record(vts, res.is_ok(), OpKind::Unlink { path: path.to_string() });
        res
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.rename(from, to);
        self.record(
            vts,
            res.is_ok(),
            OpKind::Rename { from: from.to_string(), to: to.to_string() },
        );
        res
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<fskit::DirEntry>> {
        let vts = self.vts();
        let res = self.inner.readdir(path);
        self.record(vts, res.is_ok(), OpKind::Readdir { path: path.to_string() });
        res
    }

    fn sync(&self) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.sync();
        self.record(vts, res.is_ok(), OpKind::Sync);
        res
    }

    fn drop_caches(&self) {
        let vts = self.vts();
        self.inner.drop_caches();
        self.record(vts, true, OpKind::DropCaches);
    }

    fn unmount(&self) -> FsResult<()> {
        let vts = self.vts();
        let res = self.inner.unmount();
        self.record(vts, res.is_ok(), OpKind::Unmount);
        res
    }
}

/// A recording run's full outcome: the trace plus the metrics and remounted
/// device digest the replays are validated against.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// The captured op trace.
    pub trace: OpTrace,
    /// Metrics of the recording run (same shape as [`crate::run_workload`]).
    pub result: RunResult,
    /// Digest of the durable device image after unmount — the value an
    /// exact-speed same-fs replay must reproduce.
    pub remount_digest: u64,
}

/// Builds a fresh file system of `kind`, runs `workload` on it through a
/// [`RecordingFs`], and returns the captured trace with the run's metrics
/// and remounted-image digest. The setup phase and the final unmount are
/// recorded as unmeasured (`S`) records so the replayer re-drives them
/// without timing them, exactly as the measurement harness does.
///
/// # Errors
///
/// Propagates file-system errors from the workload.
pub fn record_workload(
    kind: FsKind,
    cfg: MssdConfig,
    workload: &dyn Workload,
    seed: u64,
) -> FsResult<Recorded> {
    let capacity_bytes = cfg.capacity_bytes;
    let page_size = cfg.page_size as u64;
    let (device, fs) = kind.build(cfg);
    let rec_fs = RecordingFs::new(fs);
    let mut rng = SmallRng::seed_from_u64(seed);
    workload.setup(&rec_fs, &mut rng)?;
    rec_fs.drop_caches();
    rec_fs.set_measured(true);
    let result = measure(&rec_fs, workload.name(), |rec| workload.run(&rec_fs, &mut rng, rec))?;
    rec_fs.set_measured(false);
    rec_fs.unmount()?;
    let remount_digest = device.crash_image().digest();

    let trace = rec_fs.into_trace(TraceMeta {
        schema: FS_TRACE_SCHEMA,
        name: workload.name(),
        seed,
        capacity_bytes,
        page_size,
    });
    Ok(Recorded { trace, result, remount_digest })
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// The outcome of replaying one trace.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Metrics of the measured phase, same shape as a live run's — per-op
    /// latencies live in the log-linear histograms, so two replays diff
    /// entry-for-entry. One caveat: `ops` counts measured
    /// trace records (individual file-system calls), where the recording
    /// harness counts the workload's *logical* ops (a "create" op is four
    /// calls) — replay metrics compare against other replays of the same
    /// trace, not against the recording run's throughput.
    pub result: RunResult,
    /// Records applied (all phases).
    pub replayed: u64,
    /// Records whose live outcome differed from the recorded one (e.g. a
    /// recorded success failing on a different fs impl). Zero on a faithful
    /// same-fs replay.
    pub divergences: u64,
    /// Digest of the durable device image after the replayed unmount.
    pub remount_digest: u64,
}

/// Map from a recorded handle (tenant, recorded fd) to the live handle this
/// replay's own open returned.
pub type FdMap = HashMap<(u16, u64), Fd>;

/// Applies one record against `fs`, returning `(live_ok, class, bytes)`:
/// whether the live call succeeded, the class it is timed under, and the
/// application bytes it moved.
pub fn apply_op(rec: &OpRecord, fs: &dyn FileSystem, fds: &mut FdMap) -> (bool, OpClass, usize) {
    let tenant = rec.tenant;
    let live = |fds: &FdMap, fd: &u64| fds.get(&(tenant, *fd)).copied();
    match &rec.op {
        OpKind::Create { path, fd } => {
            let res = fs.create(path);
            let ok = res.is_ok();
            if let Ok(new) = res {
                if *fd == NO_FD {
                    // The recorded call failed; don't leak the live handle.
                    let _ = fs.close(new);
                } else {
                    fds.insert((tenant, *fd), new);
                }
            }
            (ok, OpClass::Meta, 0)
        }
        OpKind::Open { path, flags, fd } => {
            let res = fs.open(path, open_flags(*flags));
            let ok = res.is_ok();
            if let Ok(new) = res {
                if *fd == NO_FD {
                    let _ = fs.close(new);
                } else {
                    fds.insert((tenant, *fd), new);
                }
            }
            (ok, OpClass::Meta, 0)
        }
        OpKind::Close { fd } => {
            let ok = fds.remove(&(tenant, *fd)).map(|f| fs.close(f).is_ok()).unwrap_or(false);
            (ok, OpClass::Meta, 0)
        }
        OpKind::Read { fd, offset, len } => {
            let ok =
                live(fds, fd).map(|f| fs.read(f, *offset, *len as usize).is_ok()).unwrap_or(false);
            (ok, OpClass::Read, *len as usize)
        }
        OpKind::Write { fd, offset, data } => {
            let buf = data.to_vec();
            let ok = live(fds, fd).map(|f| fs.write(f, *offset, &buf).is_ok()).unwrap_or(false);
            (ok, OpClass::Write, buf.len())
        }
        OpKind::Append { fd, data } => {
            let buf = data.to_vec();
            let ok = live(fds, fd).map(|f| fs.append(f, &buf).is_ok()).unwrap_or(false);
            (ok, OpClass::Write, buf.len())
        }
        OpKind::Fsync { fd } => {
            let ok = live(fds, fd).map(|f| fs.fsync(f).is_ok()).unwrap_or(false);
            (ok, OpClass::Write, 0)
        }
        OpKind::Fdatasync { fd } => {
            let ok = live(fds, fd).map(|f| fs.fdatasync(f).is_ok()).unwrap_or(false);
            (ok, OpClass::Write, 0)
        }
        OpKind::Truncate { fd, size } => {
            let ok = live(fds, fd).map(|f| fs.truncate(f, *size).is_ok()).unwrap_or(false);
            (ok, OpClass::Write, 0)
        }
        OpKind::Fstat { fd } => {
            let ok = live(fds, fd).map(|f| fs.fstat(f).is_ok()).unwrap_or(false);
            (ok, OpClass::Meta, 0)
        }
        OpKind::Stat { path } => (fs.stat(path).is_ok(), OpClass::Meta, 0),
        OpKind::Mkdir { path } => (fs.mkdir(path).is_ok(), OpClass::Meta, 0),
        OpKind::Rmdir { path } => (fs.rmdir(path).is_ok(), OpClass::Meta, 0),
        OpKind::Unlink { path } => (fs.unlink(path).is_ok(), OpClass::Meta, 0),
        OpKind::Rename { from, to } => (fs.rename(from, to).is_ok(), OpClass::Meta, 0),
        OpKind::Readdir { path } => (fs.readdir(path).is_ok(), OpClass::Meta, 0),
        OpKind::Sync => (fs.sync().is_ok(), OpClass::Write, 0),
        OpKind::DropCaches => {
            fs.drop_caches();
            (true, OpClass::Meta, 0)
        }
        OpKind::Unmount => (fs.unmount().is_ok(), OpClass::Write, 0),
    }
}

/// Applies `records` in order, each paced to its recorded issue time
/// (`replay_start + vts_ns`; the clock only moves forward, so a replay
/// running behind schedule simply proceeds) and run under its recorded
/// tenant. Measured records are timed into `rec` without a host-CPU
/// charge: the pacing already reconstructs it. Returns the number of
/// records whose live outcome differed from the recorded one.
fn drive(
    records: &[OpRecord],
    fs: &dyn FileSystem,
    replay_start: u64,
    fds: &mut FdMap,
    rec: &mut Recorder,
) -> u64 {
    let clock = fs.clock();
    let mut divergences = 0;
    for r in records {
        let target = replay_start + r.vts_ns;
        let now = clock.now_ns();
        if now < target {
            clock.advance(target - now);
        }
        // Re-enter the recorded tenant so device-level traces (and any
        // wrapping RecordingFs) attribute the replayed op to the client
        // that issued it in the recording run.
        let _scope = mssd::CtxScope::enter(mssd::trace::ctx().with_tenant(r.tenant));
        let sw = Stopwatch::start(&clock);
        let (ok, class, bytes) = apply_op(r, fs, fds);
        if r.measured {
            rec.record(class, sw.elapsed_ns(&clock), bytes);
        }
        divergences += u64::from(ok != r.ok);
    }
    divergences
}

/// Builds a fresh file system of `kind` and replays `trace` against it,
/// after validating the trace's recorded device geometry against `cfg`.
///
/// # Errors
///
/// Returns [`FsError::InvalidArgument`] on a geometry mismatch; file-system
/// errors *during* replay never abort it (a recorded op may have failed in
/// the recording run too) — they surface as
/// [`ReplayOutcome::divergences`] when the live outcome differs from the
/// recorded one.
pub fn replay(trace: &OpTrace, kind: FsKind, cfg: MssdConfig) -> FsResult<ReplayOutcome> {
    if trace.meta.capacity_bytes != 0 && trace.meta.capacity_bytes != cfg.capacity_bytes {
        return Err(FsError::InvalidArgument(format!(
            "trace was recorded against a {}-byte device, replay device has {}",
            trace.meta.capacity_bytes, cfg.capacity_bytes
        )));
    }
    if trace.meta.page_size != 0 && trace.meta.page_size != cfg.page_size as u64 {
        return Err(FsError::InvalidArgument(format!(
            "trace was recorded with page size {}, replay device has {}",
            trace.meta.page_size, cfg.page_size
        )));
    }
    let (device, fs) = kind.build(cfg);
    Ok(replay_on(&device, fs.as_ref(), trace))
}

/// Replays `trace` against an already-constructed file system.
///
/// Phases: the leading unmeasured records (setup + cache drop) and the
/// trailing unmeasured ones (unmount) are applied unmeasured; the
/// measured body between them is timed like a live run's measured phase.
pub fn replay_on(device: &Arc<Mssd>, fs: &dyn FileSystem, trace: &OpTrace) -> ReplayOutcome {
    let replay_start = device.clock().now_ns();
    let records = &trace.records;
    let first_m = records.iter().position(|r| r.measured).unwrap_or(records.len());
    let last_m = records.iter().rposition(|r| r.measured).map(|i| i + 1).unwrap_or(first_m);
    let (prologue, rest) = records.split_at(first_m);
    let (body, epilogue) = rest.split_at(last_m - first_m);

    let mut fds: FdMap = HashMap::new();
    let mut divergences = drive(prologue, fs, replay_start, &mut fds, &mut Recorder::new());
    let result = measure(fs, trace.meta.name.clone(), |rec| {
        divergences += drive(body, fs, replay_start, &mut fds, rec);
        Ok(())
    })
    .expect("a replay body reports failures as divergences");
    divergences += drive(epilogue, fs, replay_start, &mut fds, &mut Recorder::new());
    let remount_digest = device.crash_image().digest();
    ReplayOutcome { result, replayed: records.len() as u64, divergences, remount_digest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{Micro, MicroOp};
    use crate::spec::Scale;
    use fskit::FileSystemExt;

    fn small() -> MssdConfig {
        MssdConfig::small_test()
    }

    fn tiny_trace() -> Recorded {
        let w = Micro::new(MicroOp::Create, Scale::new(0.01));
        record_workload(FsKind::ByteFs, small(), &w, 7).expect("recording run")
    }

    #[test]
    fn payload_compresses_uniform_fills_only() {
        assert_eq!(Payload::from_slice(&[5; 100]), Payload::Fill { byte: 5, len: 100 });
        assert_eq!(Payload::from_slice(&[1, 2]), Payload::Bytes(vec![1, 2]));
        assert_eq!(Payload::from_slice(&[]), Payload::Bytes(vec![]));
        assert_eq!(Payload::Fill { byte: 9, len: 3 }.to_vec(), vec![9, 9, 9]);
        assert!(Payload::from_slice(&[]).is_empty());
    }

    #[test]
    fn open_flags_round_trip_through_bits() {
        for flags in [
            OpenFlags::read_only(),
            OpenFlags::read_write(),
            OpenFlags::create_rw(),
            OpenFlags::create_truncate(),
            OpenFlags::create_rw().with_direct(),
            OpenFlags::read_write().with_append(),
        ] {
            assert_eq!(open_flags(flag_bits(flags)), flags);
        }
    }

    #[test]
    fn recording_captures_the_full_op_stream_with_phases() {
        let recorded = tiny_trace();
        let t = &recorded.trace;
        assert_eq!(t.meta.schema, FS_TRACE_SCHEMA);
        assert_eq!(t.meta.name, "create");
        assert_eq!(t.meta.capacity_bytes, small().capacity_bytes);
        assert!(t.records.len() > 20, "{} records", t.records.len());
        // Sequence numbers are dense and ordered.
        assert!(t.records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        // Setup precedes the measured body; the trailing unmount is unmeasured.
        assert!(!t.records.first().unwrap().measured);
        assert!(matches!(t.records.last().unwrap().op, OpKind::Unmount));
        assert!(!t.records.last().unwrap().measured);
        assert!(t.records.iter().any(|r| r.measured));
        // Issue timestamps never go backwards in a sequential recording.
        assert!(t.records.windows(2).all(|w| w[0].vts_ns <= w[1].vts_ns));
    }

    #[test]
    fn text_format_round_trips() {
        let recorded = tiny_trace();
        let text = recorded.trace.to_text();
        assert!(text.starts_with("#fstrace v1 name=create seed=0x7 "), "{text:?}");
        let parsed = OpTrace::from_text(&text).expect("parse own text export");
        assert_eq!(parsed, recorded.trace);
    }

    #[test]
    fn parsers_reject_corrupt_and_future_inputs() {
        assert!(OpTrace::from_text("").is_err(), "missing header");
        assert!(OpTrace::from_text("#fstrace v9 name=x seed=0 capacity_bytes=0 page_size=0 ops=0")
            .is_err());
        let recorded = tiny_trace();
        let mut text: Vec<String> = recorded.trace.to_text().lines().map(String::from).collect();
        text[1] = "garbage".into();
        assert!(OpTrace::from_text(&text.join("\n")).is_err());
    }

    #[test]
    fn text_parser_errors_on_non_ascii_and_out_of_range_fields() {
        let parse = |record: &str| {
            OpTrace::from_text(&format!(
                "#fstrace v1 name=x seed=0 capacity_bytes=4096 page_size=0 ops=1\n{record}\n"
            ))
        };
        assert!(parse("0 0 t=0 R ok append fd=1 hex=a1b2").is_ok());
        // Even byte length, but a pair boundary splits the 2-byte char, where
        // slicing the `str` would abort with "not a char boundary".
        assert!(parse("0 0 t=0 R ok append fd=1 hex=a\u{e9}1").is_err());
        assert!(parse("0 0 t=0 R ok append fd=1 hex=+f").is_err(), "sign is not a hex digit");
        // Narrow fields reject instead of wrapping.
        assert!(parse("0 0 t=65535 R ok sync").is_ok());
        assert!(parse("0 0 t=65536 R ok sync").is_err());
        assert!(parse("0 0 t=0 R ok open fd=1 flags=256 path=/f").is_err());
        assert!(parse("0 0 t=0 R ok read fd=1 off=0 len=4294967296").is_err());
        // A fill is bounded by the device the header declares...
        assert!(parse("0 0 t=0 R ok append fd=1 fill=00:4096").is_ok());
        assert!(parse("0 0 t=0 R ok append fd=1 fill=00:4097").is_err());
        // ...or by the fixed limit when the header leaves it unknown.
        let unsized_hdr = "#fstrace v1 name=x seed=0 capacity_bytes=0 page_size=0 ops=1\n";
        let fill = |n: u64| format!("{unsized_hdr}0 0 t=0 R ok append fd=1 fill=00:{n}\n");
        assert!(OpTrace::from_text(&fill(UNSIZED_TRACE_MAX_FILL)).is_ok());
        assert!(OpTrace::from_text(&fill(UNSIZED_TRACE_MAX_FILL + 1)).is_err());
        assert!(OpTrace::from_text("0 0 t=0 R ok sync\n").is_err(), "record before header");
    }

    #[test]
    fn paths_with_odd_bytes_survive_the_text_format() {
        let meta = TraceMeta {
            schema: FS_TRACE_SCHEMA,
            name: "odd paths".into(),
            seed: 1,
            capacity_bytes: 0,
            page_size: 0,
        };
        let trace = OpTrace {
            meta,
            records: vec![OpRecord {
                seq: 0,
                tenant: 3,
                vts_ns: 42,
                measured: true,
                ok: false,
                op: OpKind::Rename { from: "/a dir/x%y".into(), to: "/a dir/z".into() },
            }],
        };
        let parsed = OpTrace::from_text(&trace.to_text()).expect("escaped paths parse");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn exact_replay_reproduces_the_recorded_run_bit_for_bit() {
        let recorded = tiny_trace();
        let out = replay(&recorded.trace, FsKind::ByteFs, small()).expect("replay");
        assert_eq!(out.divergences, 0);
        assert_eq!(
            out.remount_digest, recorded.remount_digest,
            "a same-fs replay must reproduce the recorded image"
        );
        assert_eq!(out.replayed, recorded.trace.records.len() as u64);
        assert!(out.result.ops > 0);
        // The replay reconstructs the recorded measured phase down to the
        // one charge it cannot see: the recording harness bills
        // HOST_CPU_NS_PER_OP *after* the last op, before the next record's
        // timestamp — and there is no next measured record.
        assert_eq!(
            out.result.elapsed_ns + crate::metrics::HOST_CPU_NS_PER_OP,
            recorded.result.elapsed_ns
        );
    }

    #[test]
    fn replay_runs_against_a_different_filesystem() {
        let recorded = tiny_trace();
        let out = replay(&recorded.trace, FsKind::Ext4, small()).expect("cross-fs replay");
        assert_eq!(out.divergences, 0, "the op stream is implementation-neutral");
        assert_eq!(out.replayed, recorded.trace.records.len() as u64);
        assert_eq!(out.result.fs, "ext4");
        // Same op stream, different fs: the replay metrics are comparable
        // replay-to-replay — both sides count measured records.
        let same = replay(&recorded.trace, FsKind::ByteFs, small()).expect("same-fs replay");
        assert_eq!(out.result.ops, same.result.ops);
        assert_eq!(
            out.result.ops,
            recorded.trace.records.iter().filter(|r| r.measured).count() as u64
        );
    }

    #[test]
    fn replay_rejects_mismatched_geometry() {
        let recorded = tiny_trace();
        let mut cfg = small();
        cfg.capacity_bytes *= 2;
        let err = replay(&recorded.trace, FsKind::ByteFs, cfg);
        assert!(matches!(err, Err(FsError::InvalidArgument(_))), "{err:?}");
    }

    #[test]
    fn logical_state_survives_a_replayed_trace() {
        // Replay a hand-written trace and check the replayed fs contents.
        let meta = TraceMeta {
            schema: FS_TRACE_SCHEMA,
            name: "hand".into(),
            seed: 0,
            capacity_bytes: 0,
            page_size: 0,
        };
        let mk = |seq, op| OpRecord { seq, tenant: 0, vts_ns: 0, measured: true, ok: true, op };
        let trace = OpTrace {
            meta,
            records: vec![
                mk(0, OpKind::Mkdir { path: "/d".into() }),
                mk(1, OpKind::Create { path: "/d/f".into(), fd: 100 }),
                mk(2, OpKind::Write { fd: 100, offset: 0, data: Payload::Bytes(vec![1, 2, 3, 4]) }),
                mk(3, OpKind::Fsync { fd: 100 }),
                mk(4, OpKind::Close { fd: 100 }),
                mk(5, OpKind::Sync),
            ],
        };
        let (device, fs) = FsKind::ByteFs.build(small());
        let out = replay_on(&device, fs.as_ref(), &trace);
        assert_eq!(out.divergences, 0);
        assert_eq!(fs.read_file("/d/f").unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn recorded_failures_replay_as_failures_without_divergence() {
        let meta = TraceMeta {
            schema: FS_TRACE_SCHEMA,
            name: "fail".into(),
            seed: 0,
            capacity_bytes: 0,
            page_size: 0,
        };
        let trace = OpTrace {
            meta,
            records: vec![
                OpRecord {
                    seq: 0,
                    tenant: 0,
                    vts_ns: 0,
                    measured: true,
                    ok: false,
                    // A create that failed at record time (missing parent):
                    // it fails at replay time too, so outcomes agree.
                    op: OpKind::Create { path: "/nodir/f".into(), fd: NO_FD },
                },
                OpRecord {
                    seq: 1,
                    tenant: 0,
                    vts_ns: 0,
                    measured: true,
                    ok: false,
                    op: OpKind::Stat { path: "/nodir/f".into() },
                },
            ],
        };
        let (device, fs) = FsKind::ByteFs.build(small());
        let out = replay_on(&device, fs.as_ref(), &trace);
        assert_eq!(out.divergences, 0);
    }
}
