//! Async host runtime: a small futures executor plus a reactor that
//! multiplexes thousands of logical clients over a bounded set of
//! [`HostQueue`] pairs.
//!
//! The multi-queue interface ([`crate::queue`]) caps concurrency at one OS
//! thread per SQ/CQ pair: `poll`/`wait` are synchronous, so a host wanting
//! 10k concurrent request streams would burn 10k threads. This module turns
//! command submission into a future — [`Reactor::submit`] /
//! [`Reactor::submit_batch`] resolve to the command's [`Completion`] — and
//! provides the minimal machinery to drive such futures without an external
//! async runtime (the workspace vendors no tokio):
//!
//! * [`Executor`] — a FIFO work-queue executor with no threads of its own:
//!   tasks run only inside [`Executor::block_on`], on the calling thread, so
//!   the interleaving of a run is a pure function of its inputs (what
//!   crashkit's enumeration and every seeded sweep stand on).
//! * [`Reactor`] — owns up to [`MAX_LANES`] *lanes*, each wrapping one
//!   [`HostQueue`]. Clients submit to a lane; the reactor rings doorbells,
//!   fans completions out to the registered wakers, and parks submitters
//!   when an SQ is at depth instead of returning
//!   [`QueueFull`](crate::queue::QueueFull).
//!
//! # Waker model
//!
//! Every in-flight batch registers exactly one waker, keyed by its **last**
//! command id: completions are delivered in submission order, so the last id
//! leaving the SQ implies the whole batch is resolvable. Wakers are stored
//! and woken under the lane lock — the same lock a doorbell runs under — so
//! a completion can never race past a registration (no lost wakeups). A
//! submission only marks its lane dirty; [`Executor::block_on`] pumps the
//! dirty lanes whenever its ready queue runs empty, and if that wakes nothing
//! either it panics — with one driving thread nothing else could, so the
//! deadlock is named instead of slept on.
//!
//! # Backpressure
//!
//! A full SQ parks the submitter in a FIFO list with a ticket. When
//! completions free capacity, the reactor grants slots to parked tickets
//! strictly in FIFO order (head-of-line: a large batch at the front blocks
//! later small ones rather than being starved by them) and wakes them; a
//! granted ticket has its capacity reserved, so the wakeup cannot lose the
//! race to a fresh submitter. Dropping a parked or granted future releases
//! its ticket and reservation.
//!
//! # Power failure
//!
//! When the device's fault plan trips, every lane latches `powered_off`,
//! wakes everything, and submission futures resolve with a typed
//! [`SubmitError`] instead of hanging: commands whose execution group the
//! cut landed inside report [`SubmitError::CutConsumed`] (effects in doubt —
//! crashkit's oracle treats the bytes as either-old-or-new), commands still
//! in an SQ (or parked, never submitted) report
//! [`SubmitError::CutUnsubmitted`] (no durable effect). Completions that
//! were already delivered before the cut are durable as usual.

use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};

use crate::device::Mssd;
use crate::fault::mix64;
use crate::queue::{Command, CommandId, Completion, HostQueue, ResetMode, WaitError};
use crate::trace::{self, CtxScope, TraceKind};

/// Maximum number of lanes (queue pairs) one [`Reactor`] multiplexes; bounded
/// by the width of the dirty-lane bitmask.
pub const MAX_LANES: usize = 64;

/// Default per-command deadline the reactor arms at SQ submission (virtual
/// nanoseconds): generous against the worst injectable bounded stall, tiny
/// against a real hang.
pub const DEFAULT_COMMAND_TIMEOUT_NS: u64 = 10_000_000;

/// How many requeue-resets the lane watchdog attempts before giving up on a
/// lane that wedges again immediately and failing its commands fast.
const MAX_WEDGE_RESETS: u32 = 8;

/// Capped exponential backoff with seeded, deterministic jitter — the one
/// retry schedule shared by every host-side retry loop (the reactor's
/// [`Reactor::submit_with_retry`] and `workloads`' concurrent driver), so a
/// single seed fixes the complete retry timeline of a run.
///
/// Delays are **virtual-clock** nanoseconds: a backoff charges
/// [`crate::Clock::advance`], never a wall-clock sleep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seed for the jitter draws.
    pub seed: u64,
    /// Delay before the first retry (attempt 0), in virtual ns.
    pub base_delay_ns: u64,
    /// Cap on any single backoff delay, in virtual ns.
    pub max_delay_ns: u64,
    /// Retries after the initial attempt before the error is surfaced.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// 100 µs doubling to a 10 ms cap, up to 8 retries, seed 1.
    fn default() -> Self {
        Self { seed: 1, base_delay_ns: 100_000, max_delay_ns: 10_000_000, max_retries: 8 }
    }
}

impl RetryPolicy {
    /// The same schedule under a different jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The virtual-ns delay before retry number `attempt` (0-based) of the
    /// actor identified by `key` (client index, thread id, …): exponential
    /// from [`base_delay_ns`](Self::base_delay_ns), capped at
    /// [`max_delay_ns`](Self::max_delay_ns), jittered into the upper half of
    /// the window so concurrent retriers decorrelate. Pure function of
    /// `(seed, key, attempt)`.
    pub fn backoff_ns(&self, key: u64, attempt: u32) -> u64 {
        let exp = self
            .base_delay_ns
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_ns.max(self.base_delay_ns));
        if exp == 0 {
            return 0;
        }
        let half = exp / 2;
        let r = mix64(
            self.seed ^ key.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ ((u64::from(attempt) + 1) << 40),
        );
        half + r % (exp - half + 1)
    }
}

/// How a power cut resolved an awaited command (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The cut landed inside the command's (possibly coalesced) execution
    /// group: the device consumed it but delivered no completion. Its
    /// effects are in doubt.
    CutConsumed,
    /// Power failed before the command was consumed — it was parked or
    /// still in the SQ. It has no durable effect.
    CutUnsubmitted,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::CutConsumed => "power cut consumed the command: effects in doubt",
            SubmitError::CutUnsubmitted => "power cut before the command executed",
        })
    }
}

impl std::error::Error for SubmitError {}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

type ReadyQueue = Mutex<VecDeque<Arc<Task>>>;

struct Task {
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    ready: Weak<ReadyQueue>,
    /// Wakeup dedup: set while the task sits in the ready queue.
    queued: AtomicBool,
}

impl Task {
    fn run(self: &Arc<Self>) {
        self.queued.store(false, Ordering::Release);
        let mut slot = self.future.lock().expect("task future");
        let Some(fut) = slot.as_mut() else { return };
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        if fut.as_mut().poll(&mut cx).is_ready() {
            *slot = None;
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return; // already queued
        }
        if let Some(ready) = self.ready.upgrade() {
            ready.lock().expect("ready queue").push_back(self);
        }
    }
}

/// Wakes the future [`Executor::block_on`] was called with.
struct RootWake(AtomicBool);

impl Wake for RootWake {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Release);
    }
}

/// A small caller-driven futures executor: a FIFO ready queue that only
/// [`block_on`](Self::block_on) drains, on the thread that calls it — there
/// are no worker threads, so tasks interleave at their `.await` points in an
/// order fixed by the program alone. Cloning shares the queue.
#[derive(Clone, Default)]
pub struct Executor {
    ready: Arc<ReadyQueue>,
    /// Pumped whenever the ready queue runs empty ([`Runtime::new`] sets it).
    reactor: Option<Arc<Reactor>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("ready", &self.ready.lock().expect("ready queue").len())
            .finish()
    }
}

impl Executor {
    /// Creates an executor with an empty ready queue and no reactor: tasks
    /// run inside [`block_on`](Self::block_on), on the calling thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a task, returning a [`JoinHandle`] future for its output. The
    /// task first runs inside the next [`block_on`](Self::block_on).
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let shared =
            Arc::new(JoinShared { slot: Mutex::new(JoinSlot { result: None, waker: None }) });
        let s2 = Arc::clone(&shared);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(async move {
                let out = fut.await;
                let waker = {
                    let mut slot = s2.slot.lock().expect("join slot");
                    slot.result = Some(out);
                    slot.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }))),
            ready: Arc::downgrade(&self.ready),
            queued: AtomicBool::new(false),
        });
        Wake::wake(task);
        JoinHandle { shared }
    }

    /// Runs `fut` to completion on the calling thread, running spawned tasks
    /// in FIFO order between polls and pumping the reactor whenever none is
    /// ready. This is the sync↔async bridge, and the only place tasks run.
    ///
    /// # Panics
    ///
    /// Panics when nothing can make progress — no ready task, no dirty
    /// reactor lane, and `fut` not woken: every wakeup comes from this
    /// thread, so waiting could only wait forever. (Which is why clones of
    /// one executor must not `block_on` from two threads at once: either
    /// could run the task the other is waiting for.)
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let root = Arc::new(RootWake(AtomicBool::new(true)));
        let waker = Waker::from(Arc::clone(&root));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            if root.0.swap(false, Ordering::AcqRel) {
                if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                    return v;
                }
            }
            let task = self.ready.lock().expect("ready queue").pop_front();
            if let Some(t) = task {
                t.run();
                continue;
            }
            let woke = self.reactor.as_ref().map_or(0, |r| r.pump());
            assert!(
                woke > 0 || root.0.load(Ordering::Acquire),
                "block_on deadlock: no ready task, no dirty lane, and the awaited future was \
                 never woken"
            );
        }
    }
}

struct JoinSlot<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

struct JoinShared<T> {
    slot: Mutex<JoinSlot<T>>,
}

/// Future for a spawned task's output (returned by [`Executor::spawn`]).
pub struct JoinHandle<T> {
    shared: Arc<JoinShared<T>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.shared.slot.lock().expect("join slot");
        if let Some(v) = slot.result.take() {
            return Poll::Ready(v);
        }
        slot.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Cooperatively yields once: resolves on its second poll, re-queueing the
/// task behind everything already ready (FIFO fairness).
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

struct ParkedTicket {
    ticket: u64,
    need: usize,
    waker: Waker,
}

struct Lane {
    hq: HostQueue,
    /// In-flight batches awaiting completion, keyed by last command id.
    waiting: BTreeMap<u64, Waker>,
    /// Submitters parked on a full SQ, FIFO.
    parked: VecDeque<ParkedTicket>,
    /// Capacity reservations handed to woken parked submitters
    /// (ticket → slots), so a wakeup cannot lose its slot to a fresh
    /// submitter.
    granted: BTreeMap<u64, usize>,
    granted_slots: usize,
    next_ticket: u64,
    powered_off: bool,
}

/// Multiplexes async command submission over a fixed set of [`HostQueue`]
/// lanes. [`Executor::block_on`] pumps it when no task is ready; see the
/// module docs for the waker, backpressure and power-cut contracts.
pub struct Reactor {
    dev: Arc<Mssd>,
    lanes: Vec<Mutex<Lane>>,
    /// Bit i set = lane i has unserviced submissions; cleared by
    /// [`pump`](Reactor::pump).
    dirty: AtomicU64,
    /// Bit i set = lane i wedged at least once and was reset by the
    /// watchdog: [`lane_for`](Reactor::lane_for) steers new clients away.
    quarantined: AtomicU64,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("lanes", &self.lanes.len()).finish()
    }
}

impl Reactor {
    /// Creates a reactor with `lanes` queue pairs of the given SQ depth.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_LANES`], or `depth` is
    /// zero.
    pub fn new(dev: &Arc<Mssd>, lanes: usize, depth: usize) -> Arc<Self> {
        assert!((1..=MAX_LANES).contains(&lanes), "lanes must be in 1..={MAX_LANES}");
        let lanes = (0..lanes)
            .map(|_| {
                Mutex::new(Lane {
                    hq: dev.open_queue(depth),
                    waiting: BTreeMap::new(),
                    parked: VecDeque::new(),
                    granted: BTreeMap::new(),
                    granted_slots: 0,
                    next_ticket: 0,
                    powered_off: false,
                })
            })
            .collect();
        Arc::new(Self {
            dev: Arc::clone(dev),
            lanes,
            dirty: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// Bitmask of lanes quarantined by the watchdog (bit i = lane i).
    pub fn quarantined_lanes(&self) -> u64 {
        self.quarantined.load(Ordering::Acquire)
    }

    /// The lane a logical client should submit to: a stable map of the
    /// client index (keeping each client's commands ordered on one queue),
    /// skipping quarantined lanes. Falls back to the home lane when every
    /// lane is quarantined — a reset lane still works, it has just proven
    /// hang-prone.
    pub fn lane_for(&self, client: usize) -> usize {
        let n = self.lanes.len();
        let home = client % n;
        let q = self.quarantined.load(Ordering::Acquire);
        if q & (1u64 << home) == 0 {
            return home;
        }
        (1..n).map(|off| (home + off) % n).find(|&cand| q & (1u64 << cand) == 0).unwrap_or(home)
    }

    /// Quarantines lane `idx` and publishes the gauge.
    fn quarantine(&self, idx: usize) {
        let prev = self.quarantined.fetch_or(1u64 << idx, Ordering::AcqRel);
        let mask = prev | (1u64 << idx);
        self.dev.stats_ref().set_quarantined_lanes(u64::from(mask.count_ones()));
    }

    /// Lane watchdog: called under the lane lock when a doorbell left the
    /// lane wedged. Models the host timer on the virtual clock — the hang
    /// becomes observable once the earliest armed deadline passes — then
    /// counts the timed-out commands, quarantines the lane, and
    /// requeue-resets it so every outstanding command re-runs (exactly-once
    /// safe: a wedge consumes nothing). A lane that wedges again on every
    /// re-ring is failed fast after [`MAX_WEDGE_RESETS`] attempts, so
    /// submitters get typed `Aborted` completions instead of a bare hang.
    fn recover_wedged_lane(&self, l: &mut Lane, idx: usize) {
        let clock = self.dev.clock();
        let now = clock.now_ns();
        if let Some(dl) = l.hq.next_deadline() {
            if dl > now {
                clock.advance(dl - now);
            }
        }
        for _ in l.hq.expired(clock.now_ns()) {
            self.dev.stats_ref().inc_hang_timeouts();
        }
        self.quarantine(idx);
        for _ in 0..MAX_WEDGE_RESETS {
            l.hq.reset(ResetMode::Requeue);
            if l.hq.pending() > 0 && !self.dev.fault_tripped() {
                l.hq.ring_doorbell();
            }
            if !l.hq.wedged() {
                return;
            }
        }
        l.hq.reset(ResetMode::FailFast);
    }

    /// Submits one command to `lane`, resolving to its completion. Parks
    /// (rather than erroring) while the SQ is full.
    pub fn submit(self: &Arc<Self>, lane: usize, cmd: Command) -> SubmitOne {
        SubmitOne { inner: self.submit_batch(lane, vec![cmd]) }
    }

    /// Submits a batch of commands contiguously to `lane`'s SQ — adjacent
    /// byte writes in the batch coalesce in the doorbell exactly as they
    /// would from a dedicated sync thread. Resolves to one outcome per
    /// command, in order.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or larger than the lane's SQ depth (it
    /// could never be granted capacity).
    pub fn submit_batch(self: &Arc<Self>, lane: usize, cmds: Vec<Command>) -> Submit {
        assert!(!cmds.is_empty(), "empty batch");
        assert!(lane < self.lanes.len(), "lane out of range");
        Submit {
            reactor: Arc::clone(self),
            lane,
            state: SubmitState::Queued { cmds, ticket: None },
        }
    }

    /// Submits `client`'s command with host-level retry: a completion whose
    /// status is transient ([`crate::FlashError::Aborted`] from a hang
    /// timeout or lane reset, or an uncorrectable-read retry) is
    /// resubmitted after a [`RetryPolicy::backoff_ns`] delay charged to the
    /// **virtual** clock, re-routing through [`lane_for`](Self::lane_for)
    /// each attempt so a quarantined lane is left behind. Resolves to the
    /// final outcome plus the number of retries taken (also counted into
    /// the device's `retries` RAS counter). Power-cut errors are returned
    /// immediately — no retry can resolve power loss.
    ///
    /// Retries are at-least-once: an in-doubt abort (`AbortedInDoubt`) may
    /// have executed, so only idempotent commands should ride this path —
    /// every [`Command`] in this crate is (byte/block writes of fixed data,
    /// reads, trim, flush, commit of an already-staged transaction).
    pub fn submit_with_retry(
        self: &Arc<Self>,
        client: usize,
        cmd: Command,
        policy: RetryPolicy,
    ) -> impl Future<Output = (Result<Completion, SubmitError>, u32)> {
        let reactor = Arc::clone(self);
        async move {
            let mut attempt = 0u32;
            loop {
                let lane = reactor.lane_for(client);
                let out = reactor.submit(lane, cmd.clone()).await;
                let transient =
                    matches!(&out, Ok(c) if c.status.as_ref().is_err_and(|e| e.is_transient()));
                if !transient || attempt >= policy.max_retries {
                    return (out, attempt);
                }
                reactor.dev.clock().advance(policy.backoff_ns(client as u64, attempt));
                reactor.dev.stats_ref().inc_retries();
                attempt += 1;
                yield_now().await;
            }
        }
    }

    fn mark_dirty(&self, lane: usize) {
        self.dirty.fetch_or(1u64 << lane, Ordering::AcqRel);
    }

    /// Rings `lane`'s doorbell and fans out wakeups: completion waiters
    /// whose batch left the SQ, then FIFO capacity grants to parked
    /// submitters. On a tripped fault plan, latches `powered_off` and wakes
    /// everything so futures resolve with [`SubmitError`]s instead of
    /// hanging. A doorbell that wedges the lane triggers
    /// [`recover_wedged_lane`](Reactor::recover_wedged_lane) **inside this
    /// call** — the wedge cleared the dirty bit's reason to exist, so no
    /// later pump would come back for it. Must be called with the lane lock
    /// held; `idx` is the lane's index (for the quarantine mask).
    fn service(&self, l: &mut Lane, idx: usize) -> usize {
        let mut wakeups = 0usize;
        if !l.powered_off && l.hq.pending() > 0 {
            l.hq.ring_doorbell();
        }
        let cut = self.dev.fault_tripped();
        if !cut && l.hq.wedged() {
            self.recover_wedged_lane(l, idx);
        }
        let Lane { hq, waiting, parked, granted, granted_slots, powered_off, .. } = l;
        if cut {
            *powered_off = true;
            for (_, w) in std::mem::take(waiting) {
                w.wake();
                wakeups += 1;
            }
            for p in parked.drain(..) {
                p.waker.wake();
                wakeups += 1;
            }
            granted.clear();
            *granted_slots = 0;
            return wakeups;
        }
        waiting.retain(|cid, w| {
            if hq.in_submission(CommandId(*cid)) {
                true
            } else {
                w.wake_by_ref();
                wakeups += 1;
                false
            }
        });
        let sink = self.dev.stats_ref().trace();
        let _s = sink
            .enabled()
            .then(|| CtxScope::enter(trace::ctx().with_queue(hq.id()).with_lane(idx as u16)));
        let mut free = hq.depth().saturating_sub(hq.pending() + *granted_slots);
        while let Some(front) = parked.front() {
            if front.need > free {
                break; // head-of-line: FIFO order beats best-fit
            }
            let p = parked.pop_front().expect("checked front");
            free -= p.need;
            *granted_slots += p.need;
            granted.insert(p.ticket, p.need);
            sink.emit(TraceKind::ReactorWake, p.need as u64, p.ticket);
            p.waker.wake();
            wakeups += 1;
        }
        wakeups
    }

    /// Services every dirty lane (all of them once power is cut), delivering
    /// wakeups. Returns how many wakers were woken (0 = nothing to do).
    fn pump(&self) -> usize {
        let cut = self.dev.fault_tripped();
        let mask = self.dirty.swap(0, Ordering::AcqRel);
        if mask == 0 && !cut {
            return 0;
        }
        let mut wakeups = 0;
        for (i, lane) in self.lanes.iter().enumerate() {
            if !cut && mask & (1u64 << i) == 0 {
                continue;
            }
            let mut l = lane.lock().expect("lane mutex");
            wakeups += self.service(&mut l, i);
        }
        wakeups
    }
}

enum SubmitState {
    Queued { cmds: Vec<Command>, ticket: Option<u64> },
    InFlight { cids: Vec<u64>, outcomes: Vec<Option<Result<Completion, SubmitError>>> },
    Done,
}

/// Future of a batch submission (see [`Reactor::submit_batch`]): resolves to
/// one `Result<Completion, SubmitError>` per command, in submission order.
/// Dropping it before completion releases its parked ticket or capacity
/// grant; completions of an abandoned in-flight batch are discarded.
pub struct Submit {
    reactor: Arc<Reactor>,
    lane: usize,
    state: SubmitState,
}

impl Submit {
    /// Resolves every outcome it can; returns `Ready` when all are in.
    /// Call with the lane lock held.
    fn poll_inflight(
        reactor: &Reactor,
        state: &mut SubmitState,
        l: &mut Lane,
        cx: &mut Context<'_>,
    ) -> Poll<Vec<Result<Completion, SubmitError>>> {
        let SubmitState::InFlight { cids, outcomes } = state else {
            unreachable!("poll_inflight on non-inflight state")
        };
        let mut all = true;
        for (i, cid) in cids.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            // Fast path: batches are woken in CQ order, so this batch's
            // completions usually sit right at the CQ front — pop them off
            // in O(1) instead of binary-searching every id.
            if l.hq.peek().is_some_and(|c| c.id.0 == *cid) {
                outcomes[i] = Some(Ok(l.hq.poll().expect("peeked front")));
                continue;
            }
            match l.hq.try_complete(CommandId(*cid)) {
                Ok(Some(c)) => outcomes[i] = Some(Ok(c)),
                Ok(None) => {
                    if l.powered_off {
                        outcomes[i] = Some(Err(SubmitError::CutUnsubmitted));
                    } else {
                        all = false;
                    }
                }
                Err(WaitError::PowerCutConsumed) => {
                    outcomes[i] = Some(Err(SubmitError::CutConsumed));
                }
                Err(WaitError::CompletionLost) if l.powered_off => {
                    // The device consumed the command, the completion never
                    // arrived, and then power failed: indistinguishable from
                    // a cut inside the group.
                    outcomes[i] = Some(Err(SubmitError::CutConsumed));
                }
                Err(WaitError::CompletionLost) => {
                    // The device consumed the command but its completion
                    // will never arrive (dropped completion or unbounded
                    // stall). Model the host timer: wait out the command's
                    // deadline on the virtual clock, then abort — the typed
                    // `Aborted` completion flows back so callers can retry.
                    let clock = reactor.dev.clock();
                    if let Some(dl) = l.hq.deadline_of(CommandId(*cid)) {
                        let now = clock.now_ns();
                        if dl > now {
                            clock.advance(dl - now);
                        }
                    }
                    reactor.dev.stats_ref().inc_hang_timeouts();
                    l.hq.abort(CommandId(*cid)).expect("lost command aborts");
                    let c =
                        l.hq.try_complete(CommandId(*cid))
                            .expect("abort delivered a completion")
                            .expect("aborted completion present");
                    outcomes[i] = Some(Ok(c));
                }
                Err(e) => panic!("async submit lost completion of cid {cid}: {e}"),
            }
        }
        if all {
            let last = *cids.last().expect("non-empty batch");
            l.waiting.remove(&last);
            let outcomes =
                std::mem::take(outcomes).into_iter().map(|o| o.expect("all resolved")).collect();
            *state = SubmitState::Done;
            return Poll::Ready(outcomes);
        }
        // Completions arrive in submission order, so waiting on the last
        // cid covers the whole batch (a cut wakes everything regardless).
        let last = *cids.last().expect("non-empty batch");
        l.waiting.insert(last, cx.waker().clone());
        Poll::Pending
    }
}

impl Future for Submit {
    type Output = Vec<Result<Completion, SubmitError>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let reactor = Arc::clone(&this.reactor);
        let mut l = reactor.lanes[this.lane].lock().expect("lane mutex");
        match &mut this.state {
            SubmitState::Queued { cmds, ticket } => {
                if l.powered_off {
                    let n = cmds.len();
                    this.state = SubmitState::Done;
                    return Poll::Ready(vec![Err(SubmitError::CutUnsubmitted); n]);
                }
                let need = cmds.len();
                assert!(need <= l.hq.depth(), "batch larger than SQ depth");
                let has_grant = ticket.is_some_and(|t| l.granted.contains_key(&t));
                if has_grant {
                    let t = ticket.expect("grant implies ticket");
                    let slots = l.granted.remove(&t).expect("checked grant");
                    l.granted_slots -= slots;
                } else {
                    let free = l.hq.depth().saturating_sub(l.hq.pending() + l.granted_slots);
                    if !l.parked.is_empty() || free < need {
                        match *ticket {
                            // Spurious poll while parked: refresh the
                            // waker in place, keep FIFO position.
                            Some(t) => {
                                if let Some(p) = l.parked.iter_mut().find(|p| p.ticket == t) {
                                    p.waker = cx.waker().clone();
                                }
                            }
                            None => {
                                let t = l.next_ticket;
                                l.next_ticket += 1;
                                *ticket = Some(t);
                                l.parked.push_back(ParkedTicket {
                                    ticket: t,
                                    need,
                                    waker: cx.waker().clone(),
                                });
                                let sink = reactor.dev.stats_ref().trace();
                                if sink.enabled() {
                                    let _s = CtxScope::enter(
                                        trace::ctx()
                                            .with_queue(l.hq.id())
                                            .with_lane(this.lane as u16),
                                    );
                                    sink.emit(TraceKind::ReactorPark, need as u64, t);
                                }
                            }
                        }
                        return Poll::Pending;
                    }
                }
                let cmds = std::mem::take(cmds);
                let deadline =
                    reactor.dev.clock().now_ns().saturating_add(DEFAULT_COMMAND_TIMEOUT_NS);
                let mut cids = Vec::with_capacity(need);
                for cmd in cmds {
                    let id =
                        l.hq.submit_with_deadline(cmd, deadline).expect("capacity was reserved");
                    cids.push(id.0);
                }
                let last = *cids.last().expect("non-empty batch");
                l.waiting.insert(last, cx.waker().clone());
                this.state = SubmitState::InFlight { cids, outcomes: vec![None; need] };
                // Deliberately no doorbell here: the SQ keeps filling
                // while other tasks run (maximizing coalescing) and the
                // executor pumps the lane the moment it has nothing
                // ready — the async analogue of batched submission.
                drop(l);
                reactor.mark_dirty(this.lane);
                Poll::Pending
            }
            SubmitState::InFlight { .. } => {
                Submit::poll_inflight(&reactor, &mut this.state, &mut l, cx)
            }
            SubmitState::Done => panic!("Submit polled after completion"),
        }
    }
}

impl Drop for Submit {
    fn drop(&mut self) {
        let state = std::mem::replace(&mut self.state, SubmitState::Done);
        match state {
            SubmitState::Queued { ticket: Some(t), .. } => {
                let mut l = self.reactor.lanes[self.lane].lock().expect("lane mutex");
                if let Some(slots) = l.granted.remove(&t) {
                    l.granted_slots -= slots;
                }
                l.parked.retain(|p| p.ticket != t);
                drop(l);
                // Released capacity may unpark someone behind us.
                self.reactor.mark_dirty(self.lane);
            }
            SubmitState::InFlight { cids, .. } => {
                let mut l = self.reactor.lanes[self.lane].lock().expect("lane mutex");
                for cid in cids {
                    l.waiting.remove(&cid);
                    // Discard already-delivered completions; ones still in
                    // flight will sit in the CQ until the lane drops.
                    let _ = l.hq.try_complete(CommandId(cid));
                }
            }
            _ => {}
        }
    }
}

/// Future of a single-command submission (see [`Reactor::submit`]).
pub struct SubmitOne {
    inner: Submit,
}

impl Future for SubmitOne {
    type Output = Result<Completion, SubmitError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.get_mut().inner).poll(cx) {
            Poll::Ready(mut v) => Poll::Ready(v.pop().expect("one outcome per command")),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// An [`Executor`] wired to a [`Reactor`]: the one-call entry point for
/// running async device work. Cloning shares both halves.
#[derive(Clone, Debug)]
pub struct Runtime {
    exec: Executor,
    reactor: Arc<Reactor>,
}

impl Runtime {
    /// Creates a runtime over `dev` with `lanes` queue pairs of `depth`.
    pub fn new(dev: &Arc<Mssd>, lanes: usize, depth: usize) -> Self {
        let reactor = Reactor::new(dev, lanes, depth);
        let exec = Executor { reactor: Some(Arc::clone(&reactor)), ..Executor::new() };
        Self { exec, reactor }
    }

    /// The reactor half.
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.reactor
    }

    /// See [`Executor::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.exec.spawn(fut)
    }

    /// See [`Executor::block_on`].
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        self.exec.block_on(fut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MssdConfig;
    use crate::device::DramMode;
    use crate::stats::Category;

    fn dev() -> Arc<Mssd> {
        Mssd::new(MssdConfig::small_test(), DramMode::WriteLog)
    }

    #[test]
    fn block_on_plain_future() {
        let exec = Executor::new();
        assert_eq!(exec.block_on(async { 40 + 2 }), 42);
    }

    #[test]
    fn spawn_and_join() {
        let exec = Executor::new();
        let h1 = exec.spawn(async { 1u32 });
        let h2 = exec.spawn(async {
            yield_now().await;
            2u32
        });
        assert_eq!(exec.block_on(async move { h1.await + h2.await }), 3);
    }

    #[test]
    #[should_panic(expected = "block_on deadlock")]
    fn block_on_with_nothing_runnable_panics() {
        Executor::new().block_on(std::future::pending::<()>());
    }

    #[test]
    fn async_submit_roundtrip() {
        let d = dev();
        let rt = Runtime::new(&d, 2, 8);
        let r = Arc::clone(rt.reactor());
        let out = rt.block_on(async move {
            r.submit(
                0,
                Command::ByteWrite { addr: 0, data: vec![9; 64], txid: None, cat: Category::Data },
            )
            .await
            .expect("write completes");
            r.submit(1, Command::ByteRead { addr: 0, len: 64, cat: Category::Data })
                .await
                .expect("read completes")
        });
        assert_eq!(out.data, Some(vec![9; 64]));
    }

    #[test]
    fn batch_preserves_doorbell_coalescing() {
        let d = dev();
        let rt = Runtime::new(&d, 1, 32);
        let r = Arc::clone(rt.reactor());
        let cmds: Vec<Command> = (0..8u64)
            .map(|i| Command::ByteWrite {
                addr: 8192 + i * 64,
                data: vec![i as u8 + 1; 64],
                txid: None,
                cat: Category::Data,
            })
            .collect();
        let outcomes = rt.block_on(async move { r.submit_batch(0, cmds).await });
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(d.snapshot().log_entries, 1, "batch merged into one log append");
    }

    #[test]
    fn backpressure_parks_and_wakes_fifo() {
        // Lane depth 2, six single-command clients: completion order must
        // equal submission order even though four of them park.
        let d = dev();
        let rt = Runtime::new(&d, 1, 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                let r = Arc::clone(rt.reactor());
                let order = Arc::clone(&order);
                rt.spawn(async move {
                    let c = r
                        .submit(
                            0,
                            Command::ByteWrite {
                                addr: i * 4096,
                                data: vec![i as u8; 64],
                                txid: None,
                                cat: Category::Data,
                            },
                        )
                        .await
                        .expect("completes");
                    assert!(c.is_ok());
                    order.lock().unwrap().push(i);
                })
            })
            .collect();
        rt.block_on(async move {
            for h in handles {
                h.await;
            }
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5], "FIFO wakeup order");
    }

    #[test]
    fn fan_in_is_a_function_of_the_seed() {
        // Many clients over few lanes: with one driving thread the whole
        // interleaving — who parks, which writes share a doorbell — repeats.
        let run = || {
            let d = dev();
            let rt = Runtime::new(&d, 4, 8);
            let order = Arc::new(Mutex::new(Vec::new()));
            let handles: Vec<_> = (0..64u64)
                .map(|i| {
                    let r = Arc::clone(rt.reactor());
                    let order = Arc::clone(&order);
                    rt.spawn(async move {
                        let lane = r.lane_for(i as usize);
                        for j in 0..20u64 {
                            let c = r
                                .submit(
                                    lane,
                                    Command::ByteWrite {
                                        addr: (i * 64 + j) * 512,
                                        data: vec![(i ^ j) as u8; 64],
                                        txid: None,
                                        cat: Category::Data,
                                    },
                                )
                                .await
                                .expect("completes");
                            assert!(c.is_ok());
                            order.lock().unwrap().push((i, j));
                        }
                    })
                })
                .collect();
            rt.block_on(async move {
                for h in handles {
                    h.await;
                }
            });
            let order = std::mem::take(&mut *order.lock().unwrap());
            (order, d.clock().now_ns(), d.traffic())
        };
        let first = run();
        assert_eq!(first.0.len(), 64 * 20, "every write completed");
        assert_eq!(first, run());
    }

    #[test]
    fn power_cut_resolves_parked_and_inflight_futures() {
        use crate::fault::FaultPlan;
        // Count steps first, then cut midway so some commands complete,
        // some are consumed in-doubt, and parked submitters never run.
        let cfg = MssdConfig::small_test();
        let run = |d: Arc<Mssd>| {
            let rt = Runtime::new(&d, 1, 2);
            let handles: Vec<_> = (0..8u64)
                .map(|i| {
                    let r = Arc::clone(rt.reactor());
                    rt.spawn(async move {
                        r.submit(
                            0,
                            Command::ByteWrite {
                                addr: i * 4096,
                                data: vec![i as u8 + 1; 64],
                                txid: None,
                                cat: Category::Data,
                            },
                        )
                        .await
                    })
                })
                .collect();
            rt.block_on(async move {
                let mut out = Vec::new();
                for h in handles {
                    out.push(h.await);
                }
                out
            })
        };
        let probe =
            Mssd::new(cfg.clone().with_fault_plan(FaultPlan::count_only()), DramMode::WriteLog);
        let total = {
            let out = run(Arc::clone(&probe));
            assert!(out.iter().all(|o| o.is_ok()));
            probe.fault_plan().total_steps()
        };
        assert!(total >= 8);
        let cut_at = total / 2;
        let d =
            Mssd::new(cfg.with_fault_plan(FaultPlan::cut_at(cut_at.max(1))), DramMode::WriteLog);
        let out = run(Arc::clone(&d));
        assert_eq!(out.len(), 8, "every future resolves — none may hang");
        let ok = out.iter().filter(|o| o.is_ok()).count();
        let consumed = out.iter().filter(|o| matches!(o, Err(SubmitError::CutConsumed))).count();
        let unsubmitted =
            out.iter().filter(|o| matches!(o, Err(SubmitError::CutUnsubmitted))).count();
        assert_eq!(ok + consumed + unsubmitted, 8);
        assert!(consumed <= 1, "at most one group is in doubt per lane");
        assert!(unsubmitted >= 1, "the cut must strand later submitters");
        assert!(ok >= 1, "the cut landed midway, so early writes completed");
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy::default();
        for attempt in 0..12 {
            let a = p.backoff_ns(7, attempt);
            let b = p.backoff_ns(7, attempt);
            assert_eq!(a, b, "pure function of (seed, key, attempt)");
            assert!(a <= p.max_delay_ns, "capped");
            let exp = p.base_delay_ns.saturating_mul(1 << attempt.min(20)).min(p.max_delay_ns);
            assert!(a >= exp / 2, "jitter stays in the upper half-window");
        }
        assert_ne!(p.backoff_ns(7, 3), p.backoff_ns(8, 3), "keys decorrelate");
        assert_ne!(
            p.backoff_ns(7, 3),
            p.with_seed(99).backoff_ns(7, 3),
            "seed changes the timeline"
        );
    }

    #[test]
    fn lost_completion_times_out_and_resolves_as_aborted() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d =
            Mssd::new(
                MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(
                    HangFaultConfig { seed: 5, hang_loss_at: 1, ..Default::default() },
                )),
                DramMode::WriteLog,
            );
        let rt = Runtime::new(&d, 1, 8);
        let r = Arc::clone(rt.reactor());
        let before = d.clock().now_ns();
        let out = rt.block_on(async move {
            r.submit(
                0,
                Command::ByteWrite { addr: 0, data: vec![3; 64], txid: None, cat: Category::Data },
            )
            .await
        });
        let c = out.expect("future resolves — no bare hang");
        assert_eq!(c.status, Err(crate::flash::FlashError::Aborted));
        let t = d.traffic();
        assert_eq!(t.hang_timeouts, 1);
        assert_eq!(t.aborts, 1);
        assert!(
            d.clock().now_ns() - before >= DEFAULT_COMMAND_TIMEOUT_NS,
            "the host timer waited out the deadline on the virtual clock"
        );
    }

    #[test]
    fn wedged_lane_is_reset_quarantined_and_work_completes() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d =
            Mssd::new(
                MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(
                    HangFaultConfig { seed: 5, hang_wedge_at: 1, ..Default::default() },
                )),
                DramMode::WriteLog,
            );
        let rt = Runtime::new(&d, 2, 8);
        let r = Arc::clone(rt.reactor());
        assert_eq!(r.lane_for(0), 0);
        let r2 = Arc::clone(&r);
        let out = rt.block_on(async move {
            r2.submit(
                0,
                Command::ByteWrite { addr: 0, data: vec![8; 64], txid: None, cat: Category::Data },
            )
            .await
        });
        assert!(out.expect("watchdog un-wedges the lane").is_ok());
        assert_eq!(
            d.try_byte_read(0, 64, Category::Data).unwrap(),
            vec![8; 64],
            "requeued command re-ran"
        );
        let t = d.traffic();
        assert!(t.lane_resets >= 1);
        assert_eq!(t.hang_timeouts, 1);
        assert_eq!(t.quarantined_lanes, 1);
        assert_eq!(r.quarantined_lanes(), 1 << 0);
        assert_eq!(r.lane_for(0), 1, "new work is routed around the quarantined lane");
        assert_eq!(r.lane_for(1), 1, "healthy lanes keep their home mapping");
    }

    #[test]
    fn submit_with_retry_recovers_from_an_injected_hang() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d =
            Mssd::new(
                MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(
                    HangFaultConfig { seed: 5, hang_loss_at: 1, ..Default::default() },
                )),
                DramMode::WriteLog,
            );
        let rt = Runtime::new(&d, 1, 8);
        let r = Arc::clone(rt.reactor());
        let (out, attempts) = rt.block_on(async move {
            r.submit_with_retry(
                0,
                Command::ByteWrite { addr: 0, data: vec![6; 64], txid: None, cat: Category::Data },
                RetryPolicy::default(),
            )
            .await
        });
        assert!(out.expect("resolves").is_ok(), "the retry succeeded");
        assert_eq!(attempts, 1, "one retry after the hang timeout");
        assert_eq!(d.traffic().retries, 1);
        assert_eq!(d.try_byte_read(0, 64, Category::Data).unwrap(), vec![6; 64]);
    }

    #[test]
    fn dropping_parked_future_releases_its_ticket_and_grant() {
        use std::future::poll_fn;
        let d = dev();
        let w = |addr: u64, v: u8| Command::ByteWrite {
            addr,
            data: vec![v; 64],
            txid: None,
            cat: Category::Data,
        };
        let rt = Runtime::new(&d, 1, 1);
        let r = Arc::clone(rt.reactor());
        let out = rt.block_on(async move {
            // Fill the depth-1 SQ and park a second submitter behind it.
            let mut first = r.submit(0, w(0, 1));
            let mut parked = r.submit(0, w(4096, 2));
            poll_fn(|cx| {
                assert!(Pin::new(&mut first).poll(cx).is_pending(), "first fills the SQ");
                assert!(Pin::new(&mut parked).poll(cx).is_pending(), "second parks");
                Poll::Ready(())
            })
            .await;
            // Awaiting `first` makes the executor pump: the ring frees a
            // slot, which is immediately *granted* to the parked future.
            first.await.expect("first completes").status.expect("write ok");
            // Abandon the granted future: its reserved slot must be
            // released, or the next submitter would park forever (the test
            // would hang — the harness timeout is the watchdog).
            drop(parked);
            r.submit(0, w(8192, 3)).await
        });
        assert!(out.expect("third submit completes").is_ok());
    }
}
