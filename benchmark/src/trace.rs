//! Spans recorded from the benchmark's own files, around the calls into each
//! layer.
//!
//! One span per call: name, wall start/end, virtual start/end, the span that
//! caused it, and the request (iteration) it belongs to. Spans stay in
//! memory until the measured phase is over. A layer's *self time* is its
//! span minus the part covered by its child spans. Nothing inside the
//! program is instrumented — that is a later change — so time under a
//! `bytefs.*` span includes the `fskit` and `mssd` code it calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fskit::{DirEntry, Fd, FileSystem, FsResult, Metadata, OpenFlags};
use mssd::{Clock, HostQueue, Mssd};

use crate::json::Value;

/// Index of a span's parent when it has none.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same thread's list, or [`ROOT`].
    pub parent: u32,
    /// The iteration of the op stream this call served.
    pub request: u32,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off for every thread. Off, a [`span`] call is
/// one relaxed load.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

fn wall_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct ThreadTrace {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Reserves room for `spans` spans on this thread, so that the list does not
/// grow (and allocate) inside the measured phase.
pub fn reserve(spans: usize) {
    TRACE.with(|t| t.borrow_mut().spans.reserve(spans));
}

/// Sets the request id that spans opened on this thread from now on carry.
pub fn set_request(request: u32) {
    if ON.load(Ordering::Relaxed) {
        TRACE.with(|t| t.borrow_mut().request = request);
    }
}

/// Takes this thread's finished spans.
pub fn take() -> Vec<Span> {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.open.is_empty(), "take() inside an open span");
        std::mem::take(&mut t.spans)
    })
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    clock: &'a Clock,
    index: u32,
}

/// Opens a span named `name` on this thread, as a child of the innermost
/// open span. `None` (and no work) when recording is off.
#[inline]
pub fn span<'a>(name: &'static str, clock: &'a Clock) -> Option<Guard<'a>> {
    if !ON.load(Ordering::Relaxed) {
        return None;
    }
    Some(open(name, clock))
}

fn open<'a>(name: &'static str, clock: &'a Clock) -> Guard<'a> {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let index = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(ROOT);
        let request = t.request;
        t.open.push(index);
        t.spans.push(Span {
            name,
            parent,
            request,
            wall_start_ns: 0,
            wall_end_ns: 0,
            virt_start_ns: clock.now_ns(),
            virt_end_ns: 0,
        });
        // Read the wall clock last on the way in and first on the way out,
        // so the bookkeeping above lands in the parent's self time.
        t.spans[index as usize].wall_start_ns = wall_now_ns();
        Guard { clock, index }
    })
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let wall_end = wall_now_ns();
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            let span = &mut t.spans[self.index as usize];
            span.wall_end_ns = wall_end;
            span.virt_end_ns = self.clock.now_ns();
            let closed = t.open.pop();
            debug_assert_eq!(closed, Some(self.index), "spans close innermost first");
        });
    }
}

/// What recording one span costs its *parent*: the host nanoseconds of
/// tracer bookkeeping that fall before the span's start stamp and after its
/// end stamp, measured here and now on empty spans. A span with `n` direct
/// children carries about `n` times this in its self time, which is the
/// tracer's work and not the layer's. Recording must be on; the calibration
/// spans are discarded.
pub fn bookkeeping_ns(clock: &Clock) -> f64 {
    const SPANS: u64 = 50_000;
    let _ = take();
    reserve(SPANS as usize);
    let start = wall_now_ns();
    for _ in 0..SPANS {
        let _empty = span("calibration", clock);
    }
    let total = wall_now_ns() - start;
    let inside: u64 = take().iter().map(|s| s.wall_end_ns - s.wall_start_ns).sum();
    total.saturating_sub(inside) as f64 / SPANS as f64
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    /// Wall time not covered by child spans.
    pub self_wall_ns: u64,
    /// Direct child spans (each left some tracer bookkeeping in
    /// `self_wall_ns`, see [`bookkeeping_ns`]).
    pub children: u64,
}

/// Per-name totals and self times of one thread's spans.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let (wall, count) = &mut children[s.parent as usize];
            *wall += s.wall_end_ns - s.wall_start_ns;
            *count += 1;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, (child_wall, child_count)) in spans.iter().zip(&children) {
        let wall = s.wall_end_ns - s.wall_start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.wall_ns += wall;
        t.virt_ns += s.virt_end_ns - s.virt_start_ns;
        // Children run inside their parent on the same thread, so they
        // cannot cover more than it; saturate against clock granularity.
        t.self_wall_ns += wall.saturating_sub(*child_wall);
        t.children += child_count;
    }
    out
}

/// Durations of every span called `name`, as `(wall_ns, virt_ns)`.
pub fn durations(spans: &[Span], name: &str) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.wall_end_ns - s.wall_start_ns, s.virt_end_ns - s.virt_start_ns))
        .collect()
}

/// At most this many spans per thread go into the trace file; the metrics
/// are computed from all of them. A full `mail_fsync` trace is ~1 M spans,
/// which as JSON would be ~150 MB per traced run.
pub const FILE_SPAN_CAP: usize = 100_000;

/// The trace file's content: per thread, the first [`FILE_SPAN_CAP`] spans.
pub fn to_json(workload: &str, seed: u64, threads: &[Vec<Span>]) -> Value {
    let thread_json = |spans: &Vec<Span>| {
        Value::Arr(
            spans
                .iter()
                .take(FILE_SPAN_CAP)
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::Str(s.name.into())),
                        (
                            "parent",
                            if s.parent == ROOT {
                                Value::Null
                            } else {
                                Value::Num(f64::from(s.parent))
                            },
                        ),
                        ("request", Value::Num(f64::from(s.request))),
                        ("wall_start_ns", Value::Num(s.wall_start_ns as f64)),
                        ("wall_end_ns", Value::Num(s.wall_end_ns as f64)),
                        ("virt_start_ns", Value::Num(s.virt_start_ns as f64)),
                        ("virt_end_ns", Value::Num(s.virt_end_ns as f64)),
                    ])
                })
                .collect(),
        )
    };
    Value::obj([
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Num(seed as f64)),
        (
            "spans_recorded",
            Value::Arr(threads.iter().map(|t| Value::Num(t.len() as f64)).collect()),
        ),
        ("span_cap_per_thread", Value::Num(FILE_SPAN_CAP as f64)),
        ("threads", Value::Arr(threads.iter().map(thread_json).collect())),
    ])
}

/// A [`FileSystem`] that forwards every call to `inner` inside a span named
/// after the method. Every trait method is forwarded — the provided ones
/// too — so the inner file system runs exactly the code it runs untraced.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    clock: Arc<Clock>,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn FileSystem>) -> Arc<Self> {
        let clock = inner.clock();
        Arc::new(Self { inner, clock })
    }
}

macro_rules! timed {
    ($self:ident, $name:literal, $call:expr) => {{
        let _span = span(concat!("bytefs.", $name), &$self.clock);
        $call
    }};
}

impl FileSystem for TimedFs {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn device(&self) -> &Arc<Mssd> {
        self.inner.device()
    }
    fn clock(&self) -> Arc<Clock> {
        self.inner.clock()
    }
    fn open_queue(&self, depth: usize) -> HostQueue {
        self.inner.open_queue(depth)
    }
    fn create(&self, path: &str) -> FsResult<Fd> {
        timed!(self, "create", self.inner.create(path))
    }
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        timed!(self, "open", self.inner.open(path, flags))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        timed!(self, "close", self.inner.close(fd))
    }
    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        timed!(self, "read", self.inner.read(fd, offset, len))
    }
    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        timed!(self, "write", self.inner.write(fd, offset, data))
    }
    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        timed!(self, "append", self.inner.append(fd, data))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        timed!(self, "fsync", self.inner.fsync(fd))
    }
    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        timed!(self, "fdatasync", self.inner.fdatasync(fd))
    }
    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        timed!(self, "truncate", self.inner.truncate(fd, size))
    }
    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        timed!(self, "fstat", self.inner.fstat(fd))
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        timed!(self, "stat", self.inner.stat(path))
    }
    fn exists(&self, path: &str) -> bool {
        timed!(self, "exists", self.inner.exists(path))
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        timed!(self, "mkdir", self.inner.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        timed!(self, "rmdir", self.inner.rmdir(path))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        timed!(self, "unlink", self.inner.unlink(path))
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        timed!(self, "rename", self.inner.rename(from, to))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        timed!(self, "readdir", self.inner.readdir(path))
    }
    fn sync(&self) -> FsResult<()> {
        timed!(self, "sync", self.inner.sync())
    }
    fn drop_caches(&self) {
        self.inner.drop_caches();
    }
    fn unmount(&self) -> FsResult<()> {
        timed!(self, "unmount", self.inner.unmount())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, parent: u32, wall: (u64, u64), virt: (u64, u64)) -> Span {
        Span {
            name,
            parent,
            request: 0,
            wall_start_ns: wall.0,
            wall_end_ns: wall.1,
            virt_start_ns: virt.0,
            virt_end_ns: virt.1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // op [0,100) -> kv.put [10,90) -> fs.write [20,50), fs.fsync [50,80)
        let spans = vec![
            s("op", ROOT, (0, 100), (0, 1000)),
            s("kv.put", 0, (10, 90), (0, 1000)),
            s("fs.write", 1, (20, 50), (0, 300)),
            s("fs.fsync", 1, (50, 80), (300, 1000)),
            s("op", ROOT, (100, 140), (1000, 1000)),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].calls, 2);
        assert_eq!(t["op"].wall_ns, 140);
        // Grandchildren do not count twice: op loses only kv.put's 80 ns.
        assert_eq!(t["op"].self_wall_ns, 20 + 40);
        assert_eq!((t["op"].children, t["kv.put"].children, t["fs.write"].children), (1, 2, 0));
        assert_eq!(t["kv.put"].self_wall_ns, 80 - 30 - 30);
        assert_eq!(t["fs.write"].self_wall_ns, 30);
        assert_eq!(t["fs.fsync"].virt_ns, 700);
        // Self times of a tree add up to its root's duration.
        let self_sum: u64 = t.values().map(|n| n.self_wall_ns).sum();
        assert_eq!(self_sum, 140);
        assert_eq!(durations(&spans, "op"), vec![(100, 1000), (40, 0)]);
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_request() {
        let clock = Clock::new();
        assert!(span("off", &clock).is_none(), "recording starts off");
        set_enabled(true);
        set_request(7);
        {
            let _outer = span("outer", &clock);
            clock.advance(5);
            let _inner = span("inner", &clock);
            clock.advance(3);
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request), ("outer", ROOT, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!(spans[0].virt_end_ns - spans[0].virt_start_ns, 8);
        assert_eq!(spans[1].virt_end_ns - spans[1].virt_start_ns, 3);
        assert!(spans[0].wall_start_ns <= spans[1].wall_start_ns);
        assert!(spans[1].wall_end_ns <= spans[0].wall_end_ns);
        let json = to_json("w", 1, &[spans]).to_string();
        assert!(crate::json::parse(&json).is_ok());
    }
}
