//! Structured event tracing across the device stack.
//!
//! `mssd::trace` captures typed [`TraceEvent`]s at every interesting boundary
//! of the stack — SQ submit, doorbell ring, batch coalesce, CQ completion,
//! reactor park/wake, retry backoff, deadline timeout, abort, lane reset, log
//! seal/drain, GC victim selection, ECC retry rungs, bad-block retirement,
//! flash programs/reads — into per-thread lock-free bounded ring buffers, and
//! exports them as Chrome-trace-event JSON (loadable in Perfetto /
//! `ui.perfetto.dev`).
//!
//! # Zero overhead when disabled
//!
//! The sink lives inside [`crate::stats::AtomicTraffic`], which is already
//! threaded through every component, so instrumentation points cost exactly
//! one `Relaxed` atomic load and one predictable branch when tracing is off
//! (the default). No ring buffers are allocated, no clocks are read, no
//! locks are touched. Enabling tracing never changes simulated behavior:
//! hooks observe the virtual clock but never advance it, so determinism
//! digests (crashkit) are identical traced or untraced.
//!
//! # Ring-buffer protocol
//!
//! Each emitting thread owns one bounded ring of [`RING_SLOTS`] event slots
//! per sink. The owner writes slot words with `Relaxed` stores and then
//! publishes with a `Release` head bump; when the ring is full the oldest
//! events are overwritten (the `dropped` count in [`TraceDump`] reports how
//! many). [`TraceSink::drain`] reads the head twice with `Acquire` and
//! discards any slot that could have been overwritten between the two reads,
//! so a concurrent drain never observes a torn event. Bounded rings also
//! keep traced crashkit enumerations (thousands of short runs) at a fixed
//! memory ceiling — a power cut simply truncates the ring at the last
//! published event.
//!
//! # Timestamps
//!
//! Every event carries **two** timestamps: the virtual clock (`vclock_ns`,
//! simulation time — what the exporters key spans on, so traces are
//! deterministic) and a wall-clock offset from sink creation (`wall_ns`,
//! host time — for relating simulation progress to real elapsed time).
//!
//! # Ambient context
//!
//! Queue/lane/tenant/command ids travel in a thread-local [`TraceCtx`] so
//! deep components (FTL, log, stats wrappers) emit fully-attributed events
//! without threading ids through their signatures. [`CtxScope`] installs a
//! context for a lexical region and restores the previous one on drop; the
//! doorbell path enters a scope per coalesced group so a flash program
//! triggered by `execute()` lands on the same command track as the submit
//! and completion that bracket it.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::clock::Clock;

/// Number of event slots in each per-thread ring (power of two).
pub const RING_SLOTS: usize = 1024;

/// The kind of a trace event. Discriminants are stable (they appear packed
/// in ring slots and in exported artifacts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A command was placed in a submission queue. `a` = SQ pending depth.
    SqSubmit = 1,
    /// A doorbell ring started executing one coalesced group. `a` = group
    /// size in commands, `b` = commands still pending in the SQ.
    Doorbell = 2,
    /// Adjacent byte writes were coalesced into one flash op. `a` = commands
    /// absorbed, `b` = total bytes.
    Coalesce = 3,
    /// A command completed into the CQ. `a` = virtual latency ns, `b` =
    /// 1 if the completion reports an error.
    CqComplete = 4,
    /// An async submission parked waiting for queue capacity. `a` = slots
    /// needed, `b` = ticket.
    ReactorPark = 5,
    /// A parked submission was granted capacity and woken. `a` = slots
    /// granted, `b` = ticket.
    ReactorWake = 6,
    /// A host-level retry after a transient failure. `a` = backoff ns.
    RetryBackoff = 7,
    /// A command hit its host deadline before completing.
    DeadlineTimeout = 8,
    /// The host aborted a command.
    Abort = 9,
    /// A lane-level queue reset.
    LaneReset = 10,
    /// A write-log shard's active region was sealed. `a` = shard.
    LogSeal = 11,
    /// A log-cleaning pass drained sealed entries to flash.
    LogDrain = 12,
    /// GC selected a victim block. `a` = victim block id, `b` = live pages
    /// to relocate.
    GcVictim = 13,
    /// One ECC read-retry ladder rung.
    EccRetry = 14,
    /// A block was retired to the bad-block table.
    BadBlockRetire = 15,
    /// One flash page program. `a` = 1 if firmware-internal (GC relocation).
    FlashProgram = 16,
    /// One flash page read. `a` = 1 if firmware-internal.
    FlashRead = 17,
    /// A block write was accepted and is in flight on the link
    /// (`Mssd::submit_block_write_pages`; the synchronous call is submit +
    /// wait). Stamped at submission. `a` = pages, `b` = the virtual ns at
    /// which the command completes.
    BlockSubmit = 18,
    /// A COMMIT record was appended to the firmware TxLog
    /// (`Mssd::submit_commit`; the synchronous call is submit + wait).
    /// Stamped at submission. `a` = TxID, `b` = the virtual ns at which the
    /// record completes — never before a block write it was queued behind.
    TxCommit = 19,
}

impl TraceKind {
    /// Stable short name (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::SqSubmit => "sq_submit",
            TraceKind::Doorbell => "doorbell",
            TraceKind::Coalesce => "coalesce",
            TraceKind::CqComplete => "cq_complete",
            TraceKind::ReactorPark => "reactor_park",
            TraceKind::ReactorWake => "reactor_wake",
            TraceKind::RetryBackoff => "retry_backoff",
            TraceKind::DeadlineTimeout => "deadline_timeout",
            TraceKind::Abort => "abort",
            TraceKind::LaneReset => "lane_reset",
            TraceKind::LogSeal => "log_seal",
            TraceKind::LogDrain => "log_drain",
            TraceKind::GcVictim => "gc_victim",
            TraceKind::EccRetry => "ecc_retry",
            TraceKind::BadBlockRetire => "bad_block_retire",
            TraceKind::FlashProgram => "flash_program",
            TraceKind::FlashRead => "flash_read",
            TraceKind::BlockSubmit => "block_submit",
            TraceKind::TxCommit => "tx_commit",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => TraceKind::SqSubmit,
            2 => TraceKind::Doorbell,
            3 => TraceKind::Coalesce,
            4 => TraceKind::CqComplete,
            5 => TraceKind::ReactorPark,
            6 => TraceKind::ReactorWake,
            7 => TraceKind::RetryBackoff,
            8 => TraceKind::DeadlineTimeout,
            9 => TraceKind::Abort,
            10 => TraceKind::LaneReset,
            11 => TraceKind::LogSeal,
            12 => TraceKind::LogDrain,
            13 => TraceKind::GcVictim,
            14 => TraceKind::EccRetry,
            15 => TraceKind::BadBlockRetire,
            16 => TraceKind::FlashProgram,
            17 => TraceKind::FlashRead,
            18 => TraceKind::BlockSubmit,
            19 => TraceKind::TxCommit,
            _ => return None,
        })
    }
}

/// One captured event, fully decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// Host queue id the event is attributed to (0 = none/unknown).
    pub queue: u16,
    /// Reactor lane index (0 = none/unknown).
    pub lane: u16,
    /// Tenant / workload shard id (0 = none/unknown).
    pub tenant: u16,
    /// Command id the event belongs to (0 = not command-scoped).
    pub cmd: u64,
    /// Virtual-clock timestamp in nanoseconds.
    pub vclock_ns: u64,
    /// Wall-clock nanoseconds since the sink was created.
    pub wall_ns: u64,
    /// Kind-specific payload (see [`TraceKind`] docs).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

/// Ambient trace attribution for the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Host queue id.
    pub queue: u16,
    /// Reactor lane index.
    pub lane: u16,
    /// Tenant / workload shard id.
    pub tenant: u16,
    /// Command id.
    pub cmd: u64,
}

impl TraceCtx {
    /// Returns a copy with the queue id replaced.
    pub fn with_queue(mut self, queue: u16) -> Self {
        self.queue = queue;
        self
    }

    /// Returns a copy with the lane index replaced.
    pub fn with_lane(mut self, lane: u16) -> Self {
        self.lane = lane;
        self
    }

    /// Returns a copy with the tenant id replaced.
    pub fn with_tenant(mut self, tenant: u16) -> Self {
        self.tenant = tenant;
        self
    }

    /// Returns a copy with the command id replaced.
    pub fn with_cmd(mut self, cmd: u64) -> Self {
        self.cmd = cmd;
        self
    }
}

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx { queue: 0, lane: 0, tenant: 0, cmd: 0 }) };
}

/// The current thread's ambient trace context.
pub fn ctx() -> TraceCtx {
    CTX.with(|c| c.get())
}

/// Installs a [`TraceCtx`] for a lexical region; the previous context is
/// restored when the scope is dropped. Build the new context from [`ctx()`]
/// to inherit fields: `CtxScope::enter(ctx().with_cmd(id))`.
#[derive(Debug)]
pub struct CtxScope {
    prev: TraceCtx,
}

impl CtxScope {
    /// Replaces the ambient context, returning a guard that restores the
    /// previous one on drop.
    pub fn enter(new: TraceCtx) -> Self {
        let prev = CTX.with(|c| c.replace(new));
        Self { prev }
    }
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Words per ring slot: packed meta, vclock, wall, cmd, a, b.
const SLOT_WORDS: usize = 6;

/// One per-thread bounded event ring. The owning thread is the only writer;
/// any thread may drain.
struct Ring {
    /// Monotonic count of events ever written; slot for event `seq` is
    /// `seq % RING_SLOTS`. The owner bumps it with `Release` after the slot
    /// words are stored.
    head: AtomicU64,
    slots: Box<[[AtomicU64; SLOT_WORDS]]>,
}

impl Ring {
    fn new() -> Arc<Self> {
        let slots = (0..RING_SLOTS)
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(Self { head: AtomicU64::new(0), slots })
    }

    /// Owner-thread write of one event (Relaxed stores + Release publish).
    fn push(&self, ev: &TraceEvent, ctx: TraceCtx) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq % RING_SLOTS as u64) as usize];
        let meta = ((ev.kind as u64) << 48)
            | ((ctx.queue as u64) << 32)
            | ((ctx.lane as u64) << 16)
            | (ctx.tenant as u64);
        slot[0].store(meta, Ordering::Relaxed);
        slot[1].store(ev.vclock_ns, Ordering::Relaxed);
        slot[2].store(ev.wall_ns, Ordering::Relaxed);
        slot[3].store(ev.cmd, Ordering::Relaxed);
        slot[4].store(ev.a, Ordering::Relaxed);
        slot[5].store(ev.b, Ordering::Relaxed);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Snapshot of this ring's currently-readable events plus the count of
    /// events lost to overwriting (ring overflow or mid-drain races).
    fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let cap = RING_SLOTS as u64;
        let h1 = self.head.load(Ordering::Acquire);
        let first = h1.saturating_sub(cap);
        let mut out = Vec::with_capacity((h1 - first) as usize);
        let mut seqs = Vec::with_capacity(out.capacity());
        for seq in first..h1 {
            let slot = &self.slots[(seq % cap) as usize];
            let meta = slot[0].load(Ordering::Relaxed);
            let vclock_ns = slot[1].load(Ordering::Relaxed);
            let wall_ns = slot[2].load(Ordering::Relaxed);
            let cmd = slot[3].load(Ordering::Relaxed);
            let a = slot[4].load(Ordering::Relaxed);
            let b = slot[5].load(Ordering::Relaxed);
            let Some(kind) = TraceKind::from_u8((meta >> 48) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                kind,
                queue: (meta >> 32) as u16,
                lane: (meta >> 16) as u16,
                tenant: meta as u16,
                cmd,
                vclock_ns,
                wall_ns,
                a,
                b,
            });
            seqs.push(seq);
        }
        // Anything the writer may have clobbered while we were reading —
        // including the slot the in-flight write for seq `h2` reuses — is
        // discarded, so no torn event can escape.
        let h2 = self.head.load(Ordering::Acquire);
        let safe_from = h2.saturating_sub(cap) + u64::from(h2 >= cap);
        let torn = seqs.partition_point(|&s| s < safe_from);
        out.drain(..torn);
        (out, first + torn as u64)
    }
}

/// The result of draining a sink: all readable events across every thread's
/// ring, sorted by virtual timestamp, plus how many events were lost to ring
/// overflow.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Captured events in virtual-clock order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten before they could be drained (ring overflow).
    pub dropped: u64,
}

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Cache of this thread's ring for the most recently used sink, keyed by
    /// sink id so a thread emitting into several devices re-registers as it
    /// switches between them. Holding the `Arc` here (at most one ring per
    /// thread) keeps a cached pointer valid even if its sink has since been
    /// dropped; the id check makes such a stale entry unreachable.
    static THREAD_RING: std::cell::RefCell<Option<(u64, Arc<Ring>)>> =
        const { std::cell::RefCell::new(None) };
}

/// A per-device trace sink: enable flag, clock binding and the registry of
/// per-thread rings. Lives inside [`crate::stats::AtomicTraffic`] so every
/// instrumented component reaches it through the stats bank it already holds.
pub struct TraceSink {
    id: u64,
    enabled: AtomicBool,
    clock: OnceLock<Arc<Clock>>,
    epoch: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").field("id", &self.id).field("enabled", &self.enabled()).finish()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self {
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            clock: OnceLock::new(),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
        }
    }
}

impl TraceSink {
    /// Creates a disabled sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether tracing is currently enabled. One `Relaxed` load — this is
    /// the entire cost of every instrumentation point while disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns event capture on or off. Already-captured events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Binds the virtual clock events are stamped with. Called once at
    /// device construction; later calls are ignored.
    pub fn attach_clock(&self, clock: Arc<Clock>) {
        let _ = self.clock.set(clock);
    }

    /// Emits one event attributed by the ambient [`TraceCtx`]. No-op (one
    /// load + branch) while disabled.
    #[inline]
    pub fn emit(&self, kind: TraceKind, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(kind, ctx().cmd, a, b);
    }

    /// Emits one event with an explicit command id overriding the ambient
    /// context (completion paths attribute per command out of a batch).
    #[inline]
    pub fn emit_cmd(&self, kind: TraceKind, cmd: u64, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.emit_slow(kind, cmd, a, b);
    }

    #[cold]
    fn emit_slow(&self, kind: TraceKind, cmd: u64, a: u64, b: u64) {
        let ctx = ctx();
        let ev = TraceEvent {
            kind,
            queue: ctx.queue,
            lane: ctx.lane,
            tenant: ctx.tenant,
            cmd,
            vclock_ns: self.clock.get().map_or(0, |c| c.now_ns()),
            wall_ns: self.epoch.elapsed().as_nanos() as u64,
            a,
            b,
        };
        THREAD_RING.with(|cache| {
            let mut cache = cache.borrow_mut();
            if !matches!(&*cache, Some((id, _)) if *id == self.id) {
                let ring = Ring::new();
                self.rings.lock().expect("trace ring registry").push(Arc::clone(&ring));
                *cache = Some((self.id, ring));
            }
            cache.as_ref().expect("just ensured").1.push(&ev, ctx);
        });
    }

    /// Collects every thread's readable events, sorted by virtual timestamp
    /// (ties broken by wall time, then kind), along with the total number of
    /// events lost to ring overflow. Safe to call while other threads are
    /// still emitting — possibly-torn slots are discarded, not misread.
    pub fn drain(&self) -> TraceDump {
        let rings: Vec<Arc<Ring>> =
            self.rings.lock().expect("trace ring registry").iter().map(Arc::clone).collect();
        let mut dump = TraceDump::default();
        for ring in rings {
            let (mut events, dropped) = ring.drain();
            dump.events.append(&mut events);
            dump.dropped += dropped;
        }
        dump.events.sort_by_key(|e| (e.vclock_ns, e.wall_ns, e.kind as u8, e.cmd));
        dump
    }
}

fn push_json_common(out: &mut String, ev: &TraceEvent) {
    let _ = write!(
        out,
        r#""pid":{},"tid":{},"args":{{"lane":{},"tenant":{},"a":{},"b":{},"wall_ns":{}}}"#,
        ev.queue, ev.cmd, ev.lane, ev.tenant, ev.a, ev.b, ev.wall_ns
    );
}

/// Renders a dump in Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). Processes are host queues, tracks (threads) are
/// command ids, so one command's journey — submit, doorbell, coalesce, flash
/// program, completion — reads as a single flame. Command-scoped lifetimes
/// are emitted as complete (`"X"`) spans from `sq_submit` to `cq_complete`;
/// every event additionally appears as an instant (`"i"`). Timestamps are
/// virtual-clock microseconds.
pub fn chrome_trace_json(dump: &TraceDump) -> String {
    let mut out = String::with_capacity(dump.events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // One "X" span per command: submit → completion.
    let mut open: std::collections::BTreeMap<(u16, u64), u64> = std::collections::BTreeMap::new();
    for ev in &dump.events {
        if ev.cmd != 0 {
            match ev.kind {
                TraceKind::SqSubmit => {
                    open.insert((ev.queue, ev.cmd), ev.vclock_ns);
                }
                TraceKind::CqComplete | TraceKind::Abort => {
                    if let Some(start) = open.remove(&(ev.queue, ev.cmd)) {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(
                            out,
                            r#"{{"name":"cmd {}","cat":"cmd","ph":"X","ts":{:.3},"dur":{:.3},"#,
                            ev.cmd,
                            start as f64 / 1000.0,
                            ev.vclock_ns.saturating_sub(start) as f64 / 1000.0,
                        );
                        push_json_common(&mut out, ev);
                        out.push('}');
                    }
                }
                _ => {}
            }
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","ts":{:.3},"#,
            ev.kind.name(),
            if ev.cmd != 0 { "cmd" } else { "device" },
            ev.vclock_ns as f64 / 1000.0,
        );
        push_json_common(&mut out, ev);
        out.push('}');
    }
    let _ = write!(
        out,
        r#"],"displayTimeUnit":"ns","otherData":{{"dropped_events":{}}}}}"#,
        dump.dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_with_clock() -> (TraceSink, Arc<Clock>) {
        let sink = TraceSink::new();
        let clock = Clock::new();
        sink.attach_clock(Arc::clone(&clock));
        (sink, clock)
    }

    #[test]
    fn disabled_sink_captures_nothing() {
        let (sink, _clock) = sink_with_clock();
        sink.emit(TraceKind::SqSubmit, 1, 2);
        let dump = sink.drain();
        assert!(dump.events.is_empty());
        assert_eq!(dump.dropped, 0);
    }

    #[test]
    fn events_carry_ambient_context_and_clock() {
        let (sink, clock) = sink_with_clock();
        sink.set_enabled(true);
        clock.advance(500);
        let _scope = CtxScope::enter(ctx().with_queue(7).with_lane(3).with_tenant(2).with_cmd(99));
        sink.emit(TraceKind::Doorbell, 4, 11);
        clock.advance(100);
        sink.emit_cmd(TraceKind::CqComplete, 100, 600, 0);
        let dump = sink.drain();
        assert_eq!(dump.events.len(), 2);
        let d = &dump.events[0];
        assert_eq!(d.kind, TraceKind::Doorbell);
        assert_eq!((d.queue, d.lane, d.tenant, d.cmd), (7, 3, 2, 99));
        assert_eq!(d.vclock_ns, 500);
        assert_eq!((d.a, d.b), (4, 11));
        let c = &dump.events[1];
        assert_eq!(c.cmd, 100); // explicit override
        assert_eq!(c.queue, 7); // ambient
        assert_eq!(c.vclock_ns, 600);
    }

    #[test]
    fn ctx_scope_restores_previous() {
        let outer = ctx().with_queue(1);
        let _o = CtxScope::enter(outer);
        {
            let _i = CtxScope::enter(ctx().with_queue(2).with_cmd(5));
            assert_eq!(ctx().queue, 2);
            assert_eq!(ctx().cmd, 5);
        }
        assert_eq!(ctx().queue, 1);
        assert_eq!(ctx().cmd, 0);
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_dropped() {
        let (sink, clock) = sink_with_clock();
        sink.set_enabled(true);
        let n = RING_SLOTS + 100;
        for i in 0..n {
            clock.advance(1);
            sink.emit_cmd(TraceKind::FlashProgram, i as u64 + 1, 0, 0);
        }
        let dump = sink.drain();
        // One extra event is conservatively discarded: its slot is the one a
        // concurrent in-flight write would reuse.
        assert_eq!(dump.events.len(), RING_SLOTS - 1);
        assert_eq!(dump.dropped, 101);
        // The survivors are the newest events.
        assert_eq!(dump.events.first().unwrap().cmd, 102);
        assert_eq!(dump.events.last().unwrap().cmd, n as u64);
    }

    #[test]
    fn drain_merges_threads_in_vclock_order() {
        let (sink, clock) = sink_with_clock();
        sink.set_enabled(true);
        let sink = Arc::new(sink);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let sink = Arc::clone(&sink);
                let clock = Arc::clone(&clock);
                s.spawn(move || {
                    let _scope = CtxScope::enter(ctx().with_tenant(t));
                    for i in 0..50u64 {
                        clock.advance(1);
                        sink.emit_cmd(TraceKind::SqSubmit, t as u64 * 1000 + i + 1, 0, 0);
                    }
                });
            }
        });
        let dump = sink.drain();
        assert_eq!(dump.events.len(), 200);
        assert!(dump.events.windows(2).all(|w| w[0].vclock_ns <= w[1].vclock_ns));
        for t in 0..4u16 {
            assert_eq!(dump.events.iter().filter(|e| e.tenant == t).count(), 50);
        }
    }

    #[test]
    fn chrome_export_builds_span_per_command() {
        let (sink, clock) = sink_with_clock();
        sink.set_enabled(true);
        let _scope = CtxScope::enter(ctx().with_queue(3).with_cmd(42));
        sink.emit(TraceKind::SqSubmit, 1, 0);
        clock.advance(2000);
        sink.emit(TraceKind::FlashProgram, 0, 0);
        clock.advance(3000);
        sink.emit(TraceKind::CqComplete, 5000, 0);
        let json = chrome_trace_json(&sink.drain());
        assert!(json.contains(r#""ph":"X""#), "no span in {json}");
        assert!(json.contains(r#""name":"cmd 42""#));
        assert!(json.contains(r#""dur":5.000"#));
        assert!(json.contains(r#""pid":3"#));
        assert!(json.contains(r#""name":"flash_program""#));
        assert!(json.ends_with('}'));
    }
}
