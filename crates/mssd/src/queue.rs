//! Multi-queue host interface: NVMe-style per-core submission/completion
//! queue pairs with batched doorbell submission.
//!
//! The rest of the stack is internally parallel (sharded write log,
//! channel-parallel FTL), but until this module every
//! host request entered the device through one synchronous call per
//! operation, paying full per-command overhead at the host boundary. A
//! [`HostQueue`] amortizes that boundary the way real NVMe queue pairs do:
//!
//! * the host [`submit`](HostQueue::submit)s [`Command`]s into a bounded
//!   submission queue (SQ) without touching the device;
//! * [`ring_doorbell`](HostQueue::ring_doorbell) hands the whole batch to
//!   the firmware, which **coalesces adjacent byte writes** (same
//!   transaction, same category, contiguous addresses) into single log
//!   appends before they hit the sharded write log — one shard-lock
//!   acquisition and one page-map insert instead of one per command;
//! * completions land in a completion queue (CQ) the host drains
//!   asynchronously via [`poll`](HostQueue::poll) or blocks on via
//!   [`wait`](HostQueue::wait), each carrying the command's virtual device
//!   latency and any read payload.
//!
//! # Queue lifecycle
//!
//! A queue pair is created with [`crate::Mssd::open_queue`] and owned by one
//! submitting thread (the per-core model: queues are not shared, the device
//! is). Dropping the queue discards unsubmitted commands and undelivered
//! completions — exactly what happens to host queue memory at power loss.
//!
//! # Completion ordering
//!
//! Commands of one queue execute in submission order; a doorbell never
//! reorders, it only merges adjacent byte writes (which preserves the byte
//! image and the durability class of every merged command). Completions are
//! delivered in submission order too. Across *different* queues there is no
//! ordering — as on real hardware, cross-queue ordering is the host's
//! problem (our workloads partition address ranges per queue).
//!
//! # Power failure
//!
//! A doorbell checks for a tripped [`crate::FaultPlan`] before every
//! command group: once power is cut, nothing further executes and the
//! remaining submission-queue entries are left in place. A produced
//! completion, the group the cut landed inside and an entry left in the SQ
//! are [`crate::spec::Outcome`]'s `Done`, `CutInside` and `Never`; the spec
//! says what each leaves durable.
//!
//! The synchronous [`crate::Mssd`] API (`try_byte_write`, `try_block_read`,
//! …) is a depth-1 shim over this machinery: each call executes the same
//! command path immediately and records itself against queue slot 0 (or the
//! thread's ambient queue, see [`HostQueue::make_ambient`]).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::clock::ClientClock;
use crate::device::{flatten_pages, InFlight, Mssd};
use crate::fault::{HangFault, HangFaultPlan};
use crate::flash::FlashError;
use crate::stats::Category;
use crate::trace::{self, CtxScope, TraceKind};
use crate::txn::TxId;

/// Upper bound on the bytes a doorbell merges into one coalesced byte
/// write. Bounds the memory of a merged append and keeps a single merged
/// command from monopolizing a log shard.
pub const COALESCE_MAX_BYTES: usize = 64 << 10;

/// Per-queue identifier of a submitted command, returned by
/// [`HostQueue::submit`] and echoed in its [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommandId(pub u64);

/// One host command, covering both interfaces plus the custom firmware
/// commands (§4.2/§4.7: `COMMIT`, TRIM, FLUSH).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Byte-interface write of `data` at device byte address `addr`,
    /// optionally transactional.
    ByteWrite {
        /// Absolute device byte address.
        addr: u64,
        /// Payload.
        data: Vec<u8>,
        /// Transaction the write belongs to (durable at commit), if any.
        txid: Option<TxId>,
        /// Accounting category.
        cat: Category,
    },
    /// Byte-interface read of `len` bytes at `addr`.
    ByteRead {
        /// Absolute device byte address.
        addr: u64,
        /// Bytes to read.
        len: usize,
        /// Accounting category.
        cat: Category,
    },
    /// Block-interface write of whole pages starting at `lba` (`data` must
    /// be a non-empty multiple of the page size).
    BlockWrite {
        /// First logical block.
        lba: u64,
        /// Page-aligned payload.
        data: Vec<u8>,
        /// Accounting category.
        cat: Category,
    },
    /// Block-interface read of `count` pages starting at `lba`.
    BlockRead {
        /// First logical block.
        lba: u64,
        /// Number of pages.
        count: usize,
        /// Accounting category.
        cat: Category,
    },
    /// NVMe FLUSH: force acknowledged block writes to flash.
    Flush,
    /// TRIM `count` blocks starting at `lba`.
    Trim {
        /// First logical block.
        lba: u64,
        /// Number of blocks.
        count: usize,
    },
    /// Custom `COMMIT(TxID)` command (write-log firmware only).
    Commit {
        /// Transaction to commit.
        txid: TxId,
    },
}

/// A completed command: its id, a status code, the read payload (for
/// `ByteRead` / `BlockRead`), and the virtual device latency attributed to
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Id the command was submitted under.
    pub id: CommandId,
    /// Command status: `Ok(())` on success, the media error the firmware
    /// reported (uncorrectable read, read-only degradation), or
    /// [`FlashError::Aborted`] when the host aborted the command (deadline
    /// timeout, lane reset). Mirrors the NVMe completion status field.
    /// Commands coalesced into one merged write share the merged write's
    /// status.
    pub status: Result<(), FlashError>,
    /// Read payload, `None` for non-read commands and failed reads.
    pub data: Option<Vec<u8>>,
    /// Virtual nanoseconds of device time attributed to this command.
    /// Commands coalesced into one merged write share the merged write's
    /// cost evenly.
    pub latency_ns: u64,
}

impl Completion {
    /// Whether the command completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }
}

/// Error returned by [`HostQueue::submit`] when the submission queue is at
/// its configured depth; ring the doorbell (or drain completions) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("submission queue full: ring the doorbell before submitting more")
    }
}

impl std::error::Error for QueueFull {}

/// Why [`HostQueue::wait`] (or [`HostQueue::try_complete`]) cannot produce a
/// completion for a command id. Replaces the old ambiguous `None`, which
/// collapsed "consumed by a power cut" and "you asked for a bogus id" into
/// one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The command was consumed by the device when the power cut landed
    /// inside its (possibly coalesced) execution group: its effects are
    /// in-doubt — crashkit treats the target bytes as `Either` old or new.
    PowerCutConsumed,
    /// Power was cut before the command was consumed: it is still sitting
    /// in the SQ and will never execute. Its effects never happened.
    PowerCutPending,
    /// The id was never returned by [`HostQueue::submit`] on this queue.
    NeverSubmitted,
    /// The command completed, but its completion was already delivered by an
    /// earlier [`poll`](HostQueue::poll) / [`wait`](HostQueue::wait).
    AlreadyDelivered,
    /// The device consumed the command but its completion will never arrive
    /// (an injected hang: dropped completion or unbounded stall). The host
    /// resolves it with [`HostQueue::abort`], which delivers a typed
    /// [`FlashError::Aborted`] completion.
    CompletionLost,
    /// The lane is wedged: the submission queue is not being consumed and
    /// the command cannot make progress until [`HostQueue::reset`].
    LaneWedged,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WaitError::PowerCutConsumed => "command consumed by power cut: effects in doubt",
            WaitError::PowerCutPending => "power cut before the command executed",
            WaitError::NeverSubmitted => "command id was never submitted on this queue",
            WaitError::AlreadyDelivered => "completion was already delivered",
            WaitError::CompletionLost => "completion lost (injected hang): abort to resolve",
            WaitError::LaneWedged => "lane wedged: reset the queue to make progress",
        })
    }
}

impl std::error::Error for WaitError {}

/// What [`HostQueue::abort`] did to the command, making the in-doubt
/// taxonomy explicit: an abort never leaves a command in an ambiguous state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortOutcome {
    /// Too late: the command already completed. Its (real) completion is
    /// still in the CQ — nothing was changed.
    AlreadyCompleted,
    /// The command was removed from the submission queue before the device
    /// consumed it. Its effects never happened; resubmitting is exactly-once
    /// safe. A typed [`FlashError::Aborted`] completion was delivered.
    AbortedUnexecuted,
    /// The command was consumed but its completion was lost: its effects are
    /// in-doubt (same taxonomy as a power cut landing inside the group). A
    /// typed [`FlashError::Aborted`] completion was delivered; resubmitting
    /// is idempotent at the device level.
    AbortedInDoubt,
}

/// How [`HostQueue::reset`] disposes of outstanding submission-queue
/// commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetMode {
    /// Keep unexecuted commands in the SQ: they run on the next doorbell.
    /// Safe because they were never consumed (exactly-once preserved).
    Requeue,
    /// Complete every outstanding SQ command with [`FlashError::Aborted`]
    /// instead of re-running it.
    FailFast,
}

/// Typed outcome of a [`HostQueue::reset`]: every outstanding command is
/// accounted for — requeued, or aborted with a delivered completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetReport {
    /// Unexecuted commands left in the SQ to re-run ([`ResetMode::Requeue`]).
    pub requeued: usize,
    /// Commands completed with [`FlashError::Aborted`]: every lost
    /// completion, plus the whole SQ under [`ResetMode::FailFast`].
    pub aborted: usize,
    /// Whether the lane was wedged when the reset was issued.
    pub was_wedged: bool,
}

thread_local! {
    /// The queue slot sync (depth-1 shim) operations on this thread are
    /// attributed to. Slot 0 unless a [`HostQueue::make_ambient`] guard is
    /// live.
    static AMBIENT_QUEUE: Cell<u16> = const { Cell::new(0) };
}

/// The queue slot the calling thread's synchronous device operations are
/// currently attributed to (0 = the default sync-shim slot).
pub fn ambient_queue() -> u16 {
    AMBIENT_QUEUE.with(|c| c.get())
}

/// Ends the queue's client clock and restores the previous ambient queue slot
/// on drop (see [`HostQueue::make_ambient`]).
#[derive(Debug)]
pub struct AmbientQueueGuard {
    prev: u16,
    _client: ClientClock,
}

impl Drop for AmbientQueueGuard {
    fn drop(&mut self) {
        AMBIENT_QUEUE.with(|c| c.set(self.prev));
    }
}

/// One NVMe-style submission/completion queue pair over a shared [`Mssd`].
///
/// Owned by a single submitting thread; the device itself is the shared,
/// internally-parallel object. See the module docs for lifecycle, ordering
/// and power-failure semantics.
pub struct HostQueue {
    dev: Arc<Mssd>,
    id: u16,
    depth: usize,
    next_cid: u64,
    sq: VecDeque<(CommandId, Command)>,
    /// Completions in delivery (= submission) order. Command ids are handed
    /// out monotonically and a doorbell never reorders, so the CQ is always
    /// sorted by id — lookups by [`CommandId`] are binary searches, not
    /// scans.
    cq: VecDeque<Completion>,
    /// Ids of the one command group a power cut landed inside: consumed by
    /// the device, effects in doubt, no completion will ever be delivered.
    in_doubt: BTreeSet<u64>,
    /// Fail-slow injection plan shared with the device config (clone shares
    /// the deterministic draw sequence).
    hang: HangFaultPlan,
    /// `true` once an injected wedge stopped this lane: doorbells are no-ops
    /// until [`HostQueue::reset`].
    wedged: bool,
    /// Ids consumed by the device whose completion will never arrive (lost
    /// completion or unbounded stall). Resolved only by abort / reset.
    lost: BTreeSet<u64>,
    /// Ids removed from the SQ by abort or fail-fast reset. Needed to keep
    /// [`HostQueue::in_submission`]'s contiguous-range check truthful: these
    /// ids sit inside the SQ's id range but are no longer in it.
    aborted: BTreeSet<u64>,
    /// Absolute virtual-clock deadlines (`Clock::now_ns` scale) per
    /// outstanding command id; removed on delivery.
    deadlines: BTreeMap<u64, u64>,
}

impl std::fmt::Debug for HostQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostQueue")
            .field("id", &self.id)
            .field("depth", &self.depth)
            .field("pending", &self.sq.len())
            .field("completions", &self.cq.len())
            .finish()
    }
}

impl HostQueue {
    /// Creates a queue pair of the given depth on `dev` with accounting
    /// slot `id`. Use [`Mssd::open_queue`], which assigns slots round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub(crate) fn new(dev: Arc<Mssd>, id: u16, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be at least 1");
        let hang = dev.config().hang.clone();
        Self {
            dev,
            id,
            depth,
            next_cid: 1,
            sq: VecDeque::new(),
            cq: VecDeque::new(),
            in_doubt: BTreeSet::new(),
            hang,
            wedged: false,
            lost: BTreeSet::new(),
            aborted: BTreeSet::new(),
            deadlines: BTreeMap::new(),
        }
    }

    /// The device this queue submits to.
    pub fn device(&self) -> &Arc<Mssd> {
        &self.dev
    }

    /// This queue's accounting slot (see [`crate::stats::QUEUE_SLOTS`]).
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Configured submission-queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Commands submitted but not yet executed (still in the SQ).
    pub fn pending(&self) -> usize {
        self.sq.len()
    }

    /// Completions produced but not yet polled (still in the CQ).
    pub fn completions_pending(&self) -> usize {
        self.cq.len()
    }

    /// Enqueues a command without touching the device.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the SQ already holds `depth` commands.
    pub fn submit(&mut self, cmd: Command) -> Result<CommandId, QueueFull> {
        if self.sq.len() >= self.depth {
            return Err(QueueFull);
        }
        let id = CommandId(self.next_cid);
        self.next_cid += 1;
        self.sq.push_back((id, cmd));
        let sink = self.dev.stats_ref().trace();
        if sink.enabled() {
            let _s = CtxScope::enter(trace::ctx().with_queue(self.id).with_cmd(id.0));
            sink.emit(TraceKind::SqSubmit, self.sq.len() as u64, 0);
        }
        Ok(id)
    }

    /// Submits, ringing the doorbell first when the SQ is full.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] only when even a doorbell cannot drain the SQ —
    /// i.e. power has been cut and the remaining commands will never
    /// execute.
    pub fn submit_auto(&mut self, cmd: Command) -> Result<CommandId, QueueFull> {
        if self.sq.len() >= self.depth {
            self.ring_doorbell();
        }
        self.submit(cmd)
    }

    /// Rings the doorbell: the firmware consumes the submission queue in
    /// order, coalescing adjacent byte writes, and delivers completions.
    /// Returns the number of completions produced by this ring.
    ///
    /// With a tripped fault plan the batch stops at the cut: commands after
    /// the interrupted group stay in the SQ and never execute.
    pub fn ring_doorbell(&mut self) -> usize {
        if self.wedged || self.sq.is_empty() {
            // An empty doorbell is a no-op: in particular it must not touch
            // the per-queue stats bank, or a caller mixing `submit_auto`
            // with manual rings would inflate the batch count. A wedged lane
            // consumes nothing until it is reset.
            return 0;
        }
        let dev = Arc::clone(&self.dev);
        let mut delivered = 0usize;
        let mut coalesced = 0u64;
        while !self.sq.is_empty() {
            if dev.fault_tripped() {
                break; // power is off: the rest of the SQ never executes
            }
            // Fail-slow draw, one per group about to be consumed. A wedge
            // stops the lane before the group is taken off the SQ.
            let fault = self.hang.command_fault();
            if fault == Some(HangFault::Wedge) {
                self.wedged = true;
                break;
            }
            let (ids, cmd) = self.pop_group();
            // Attribute this whole group — the doorbell, coalescing, every
            // flash op `execute` triggers, and the completions — to the
            // group's first command id, so a command's journey reads as one
            // track in the exported trace.
            let sink = dev.stats_ref().trace();
            let _group_scope = sink
                .enabled()
                .then(|| CtxScope::enter(trace::ctx().with_queue(self.id).with_cmd(ids[0].0)));
            sink.emit(TraceKind::Doorbell, ids.len() as u64, self.sq.len() as u64);
            if ids.len() > 1 {
                sink.emit(TraceKind::Coalesce, ids.len() as u64 - 1, 0);
            }
            if fault == Some(HangFault::Stall { extra_ns: None }) {
                // Unbounded stall: the device consumed the group but it
                // never executes and never completes — only an abort
                // resolves it. Effects never happen (the host cannot tell;
                // the abort path reports in-doubt).
                self.lost.extend(ids.iter().map(|id| id.0));
                continue;
            }
            let (status, data, mut cost) = execute(&dev, &cmd);
            if dev.fault_tripped() {
                // The cut landed inside this group: its effects are in
                // doubt, so no completion is delivered for it — and it
                // counts toward neither ops nor coalesced_cmds.
                self.in_doubt.extend(ids.iter().map(|id| id.0));
                for id in &ids {
                    self.deadlines.remove(&id.0);
                }
                break;
            }
            match fault {
                Some(HangFault::Loss) => {
                    // Executed, completion dropped on the wire: effects are
                    // durable but the host only learns through a deadline.
                    self.lost.extend(ids.iter().map(|id| id.0));
                    continue;
                }
                Some(HangFault::Stall { extra_ns: Some(extra) }) => {
                    // Bounded stall: the completion arrives, late. The extra
                    // time is real device time under the virtual clock.
                    dev.clock().advance(extra);
                    cost += extra;
                }
                _ => {}
            }
            coalesced += ids.len() as u64 - 1;
            // A read's payload goes to the last (only) member; coalesced
            // byte writes share the merged cost evenly, remainder to the
            // first, so the per-queue totals stay exact. A merged write's
            // status is shared by every member.
            let share = cost / ids.len() as u64;
            let mut remainder = cost - share * ids.len() as u64;
            for id in ids {
                let lat = share + remainder;
                remainder = 0;
                self.deadlines.remove(&id.0);
                sink.emit_cmd(TraceKind::CqComplete, id.0, lat, u64::from(status.is_err()));
                self.push_completion(Completion {
                    id,
                    status: status.clone(),
                    data: data.clone(),
                    latency_ns: lat,
                });
                dev.stats_ref().record_queue_op(self.id, lat);
                delivered += 1;
            }
        }
        // A ring that delivered nothing (power already off, or the cut
        // landed inside the first group) did no batch work worth recording
        // — same rule as the empty-SQ early return above.
        if delivered > 0 {
            dev.stats_ref().record_queue_batch(self.id, coalesced);
        }
        delivered
    }

    /// Pops the next command group off the SQ: either one command, or a run
    /// of adjacent byte writes (contiguous addresses, same transaction and
    /// category, merged size ≤ [`COALESCE_MAX_BYTES`]) merged into one.
    fn pop_group(&mut self) -> (Vec<CommandId>, Command) {
        let (cid, cmd) = self.sq.pop_front().expect("pop_group on empty SQ");
        let mut ids = vec![cid];
        let Command::ByteWrite { addr, mut data, txid, cat } = cmd else {
            return (ids, cmd);
        };
        loop {
            match self.sq.front() {
                Some((_, Command::ByteWrite { addr: a, data: d, txid: t, cat: c }))
                    if *a == addr + data.len() as u64
                        && *t == txid
                        && *c == cat
                        && data.len() + d.len() <= COALESCE_MAX_BYTES =>
                {
                    let (cid, cmd) = self.sq.pop_front().expect("checked front");
                    let Command::ByteWrite { data: d, .. } = cmd else { unreachable!() };
                    data.extend_from_slice(&d);
                    ids.push(cid);
                }
                _ => break,
            }
        }
        (ids, Command::ByteWrite { addr, data, txid, cat })
    }

    /// Polls the completion queue: the oldest undelivered completion, if
    /// any. Does not ring the doorbell.
    pub fn poll(&mut self) -> Option<Completion> {
        self.cq.pop_front()
    }

    /// The oldest undelivered completion, without delivering it. Lets a
    /// caller draining a batch in submission order pop completions off the
    /// front ([`poll`](HostQueue::poll), O(1)) instead of binary-searching
    /// every id ([`try_complete`](HostQueue::try_complete)).
    pub fn peek(&self) -> Option<&Completion> {
        self.cq.front()
    }

    /// Whether `id` is still sitting in the submission queue (submitted but
    /// not yet consumed by a doorbell). The SQ holds a contiguous run of ids
    /// (push-back monotonic, pop-front only) *minus* any ids an abort or a
    /// fail-fast reset plucked out, so this is a front/back range check plus
    /// an aborted-set lookup.
    pub fn in_submission(&self, id: CommandId) -> bool {
        match (self.sq.front(), self.sq.back()) {
            (Some((lo, _)), Some((hi, _))) => {
                id.0 >= lo.0 && id.0 <= hi.0 && !self.aborted.contains(&id.0)
            }
            _ => false,
        }
    }

    /// Whether `id`'s completion is sitting in the CQ, without delivering
    /// it. O(log n) binary search over the id-sorted CQ.
    pub fn completion_ready(&self, id: CommandId) -> bool {
        self.cq.binary_search_by_key(&id.0, |c| c.id.0).is_ok()
    }

    /// Delivers `id`'s completion if it is ready, **without ringing the
    /// doorbell**. Returns `Ok(None)` while the command is still in the SQ
    /// (ring, then try again). This is the non-blocking primitive the async
    /// reactor's completion futures poll; [`wait`](HostQueue::wait) is the
    /// ring-then-retry composition of it.
    ///
    /// # Errors
    ///
    /// [`WaitError::NeverSubmitted`] if `id` was never handed out by this
    /// queue, [`WaitError::PowerCutConsumed`] if a power cut landed inside
    /// the command's execution group, [`WaitError::AlreadyDelivered`] if the
    /// completion was already polled or waited out.
    pub fn try_complete(&mut self, id: CommandId) -> Result<Option<Completion>, WaitError> {
        if id.0 == 0 || id.0 >= self.next_cid {
            return Err(WaitError::NeverSubmitted);
        }
        if let Ok(pos) = self.cq.binary_search_by_key(&id.0, |c| c.id.0) {
            return Ok(self.cq.remove(pos));
        }
        if self.in_submission(id) {
            return Ok(None);
        }
        if self.lost.contains(&id.0) {
            return Err(WaitError::CompletionLost);
        }
        if self.in_doubt.contains(&id.0) {
            return Err(WaitError::PowerCutConsumed);
        }
        Err(WaitError::AlreadyDelivered)
    }

    /// Waits for one command's completion: rings the doorbell if the
    /// command is still in the SQ, then removes and returns its completion.
    ///
    /// # Errors
    ///
    /// A typed [`WaitError`] saying exactly why the completion will never
    /// arrive: [`WaitError::PowerCutConsumed`] (the cut landed inside the
    /// command's execution group — effects in doubt),
    /// [`WaitError::PowerCutPending`] (power failed before the command was
    /// consumed — no effect), [`WaitError::NeverSubmitted`], or
    /// [`WaitError::AlreadyDelivered`].
    pub fn wait(&mut self, id: CommandId) -> Result<Completion, WaitError> {
        if let Some(c) = self.try_complete(id)? {
            return Ok(c);
        }
        self.ring_doorbell();
        match self.try_complete(id)? {
            Some(c) => Ok(c),
            // Still in the SQ after a ring: the ring went nowhere, which
            // only happens once power is off or the lane wedged.
            None => {
                Err(if self.wedged { WaitError::LaneWedged } else { WaitError::PowerCutPending })
            }
        }
    }

    /// Enqueues a command with an absolute virtual-clock deadline
    /// (`Clock::now_ns` scale). The deadline does not expire the command by
    /// itself — it is the input to the host's watchdog, which reads
    /// [`HostQueue::expired`] and resolves overdue ids via
    /// [`HostQueue::abort`]. `0` and `u64::MAX` mean "no deadline".
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the SQ already holds `depth` commands.
    pub fn submit_with_deadline(
        &mut self,
        cmd: Command,
        deadline_ns: u64,
    ) -> Result<CommandId, QueueFull> {
        let id = self.submit(cmd)?;
        if deadline_ns != 0 && deadline_ns != u64::MAX {
            self.deadlines.insert(id.0, deadline_ns);
        }
        Ok(id)
    }

    /// The absolute deadline armed for `id`, if it is still outstanding.
    pub fn deadline_of(&self, id: CommandId) -> Option<u64> {
        self.deadlines.get(&id.0).copied()
    }

    /// The earliest deadline among outstanding (undelivered) commands: the
    /// instant the host watchdog would fire next.
    pub fn next_deadline(&self) -> Option<u64> {
        self.deadlines.values().min().copied()
    }

    /// Ids whose deadline is at or before `now_ns` and whose completion has
    /// not been delivered (still in the SQ, or lost). These are the commands
    /// the watchdog must [`abort`](HostQueue::abort) or recover via
    /// [`reset`](HostQueue::reset).
    pub fn expired(&self, now_ns: u64) -> Vec<CommandId> {
        self.deadlines
            .iter()
            .filter(|&(_, &dl)| dl <= now_ns)
            .map(|(&id, _)| CommandId(id))
            .collect()
    }

    /// `true` once an injected wedge stopped this lane: doorbells are no-ops
    /// and nothing completes until [`HostQueue::reset`].
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// Commands consumed by the device whose completion will never arrive
    /// (dropped completion / unbounded stall) and that have not been aborted
    /// yet.
    pub fn lost_completions(&self) -> usize {
        self.lost.len()
    }

    /// NVMe-style abort: resolves `id` with a typed outcome, never an
    /// ambiguous `None`. A command still in the SQ is removed (it never
    /// executed); a consumed-but-lost command is failed (its effects are
    /// in-doubt — the same taxonomy as a power cut landing inside its
    /// group). In both cases a completion with status
    /// [`FlashError::Aborted`] is delivered to the CQ so pollers and waiters
    /// observe the resolution. Counts into the device's `aborts` RAS
    /// counter.
    ///
    /// # Errors
    ///
    /// [`WaitError::NeverSubmitted`] for an id this queue never handed out;
    /// [`WaitError::PowerCutConsumed`] when the command was consumed by a
    /// power cut (an abort cannot resolve power loss). Aborting a command
    /// that already finished — whether its completion is still in the CQ or
    /// was already delivered — is a benign no-op reported as
    /// [`AbortOutcome::AlreadyCompleted`].
    pub fn abort(&mut self, id: CommandId) -> Result<AbortOutcome, WaitError> {
        // Attribute the Abort event (emitted by `inc_aborts`) to the command.
        let _s = self
            .dev
            .stats_ref()
            .trace()
            .enabled()
            .then(|| CtxScope::enter(trace::ctx().with_queue(self.id).with_cmd(id.0)));
        if id.0 == 0 || id.0 >= self.next_cid {
            return Err(WaitError::NeverSubmitted);
        }
        if self.completion_ready(id) {
            return Ok(AbortOutcome::AlreadyCompleted);
        }
        if self.in_submission(id) {
            let pos = self
                .sq
                .iter()
                .position(|(cid, _)| *cid == id)
                .expect("in_submission implies an SQ entry");
            self.sq.remove(pos);
            self.aborted.insert(id.0);
            self.deadlines.remove(&id.0);
            self.deliver_aborted(id.0);
            self.dev.stats_ref().inc_aborts();
            return Ok(AbortOutcome::AbortedUnexecuted);
        }
        if self.lost.remove(&id.0) {
            self.deadlines.remove(&id.0);
            self.deliver_aborted(id.0);
            self.dev.stats_ref().inc_aborts();
            return Ok(AbortOutcome::AbortedInDoubt);
        }
        if self.in_doubt.contains(&id.0) {
            return Err(WaitError::PowerCutConsumed);
        }
        Ok(AbortOutcome::AlreadyCompleted)
    }

    /// Lane-level reset: clears a wedge and resolves every outstanding
    /// command with a typed outcome. Lost completions always fail fast (the
    /// device already consumed them; waiting longer cannot help);
    /// unexecuted SQ commands are either left to re-run
    /// ([`ResetMode::Requeue`] — exactly-once safe, they were never
    /// consumed) or failed with [`FlashError::Aborted`]
    /// ([`ResetMode::FailFast`]). Counts into the device's `lane_resets`
    /// RAS counter.
    pub fn reset(&mut self, mode: ResetMode) -> ResetReport {
        // Attribute the LaneReset event (emitted by `inc_lane_resets`).
        let _s = self
            .dev
            .stats_ref()
            .trace()
            .enabled()
            .then(|| CtxScope::enter(trace::ctx().with_queue(self.id)));
        let was_wedged = self.wedged;
        self.wedged = false;
        let mut aborted = 0usize;
        for id in std::mem::take(&mut self.lost) {
            self.deadlines.remove(&id);
            self.deliver_aborted(id);
            aborted += 1;
        }
        let requeued = match mode {
            ResetMode::Requeue => self.sq.len(),
            ResetMode::FailFast => {
                while let Some((id, _)) = self.sq.pop_front() {
                    self.aborted.insert(id.0);
                    self.deadlines.remove(&id.0);
                    self.deliver_aborted(id.0);
                    aborted += 1;
                }
                0
            }
        };
        self.dev.stats_ref().inc_lane_resets();
        ResetReport { requeued, aborted, was_wedged }
    }

    /// Inserts an [`FlashError::Aborted`] completion for `id` at its sorted
    /// position.
    fn deliver_aborted(&mut self, id: u64) {
        self.push_completion(Completion {
            id: CommandId(id),
            status: Err(FlashError::Aborted),
            data: None,
            latency_ns: 0,
        });
    }

    /// Inserts a completion at its id-sorted position. Normal doorbell
    /// deliveries are monotonic (this degenerates to a push_back), but an
    /// abort can resolve an id *ahead* of still-queued lower ids — whose
    /// later completions must then slot in before it, so every insertion
    /// goes through the same sorted path to keep
    /// [`HostQueue::try_complete`]'s binary search valid.
    fn push_completion(&mut self, c: Completion) {
        let pos = self.cq.partition_point(|e| e.id.0 < c.id.0);
        self.cq.insert(pos, c);
    }

    /// Makes this queue the calling thread's *ambient* queue: until the
    /// guard drops, synchronous device calls (the depth-1 shim) on this
    /// thread are attributed to this queue's accounting slot, and the thread
    /// is a client with its own causal time: a client clock
    /// ([`crate::Clock::start_client`]) starts at the frontier, carries
    /// every charge the thread makes, and leaves its time in the plain sum
    /// when the guard drops. This is how a multi-client run gives each
    /// client thread its own queue and its own clock without threading a
    /// handle through every layer.
    pub fn make_ambient(&self) -> AmbientQueueGuard {
        let prev = AMBIENT_QUEUE.with(|c| c.replace(self.id));
        AmbientQueueGuard { prev, _client: self.dev.clock().start_client() }
    }
}

/// Executes one (possibly merged) command against the device, returning the
/// completion status, the read payload and the virtual device cost. This is
/// the single execution path shared by doorbell batches and the synchronous
/// depth-1 shim.
pub(crate) fn execute(dev: &Mssd, cmd: &Command) -> (Result<(), FlashError>, Option<Vec<u8>>, u64) {
    // Doorbell batches are synchronous sums: a block write or a COMMIT is
    // submitted, then waited for at once, and costs what it took from
    // submission to completion.
    let submit_then_wait = |submit: &dyn Fn() -> (Result<(), FlashError>, InFlight)| {
        let submitted = dev.clock().now_ns();
        let (status, cmd) = submit();
        dev.wait(cmd);
        (status, None, cmd.done_ns().saturating_sub(submitted))
    };
    match cmd {
        Command::ByteWrite { addr, data, txid, cat } => {
            let (status, cost) = dev.exec_byte_write(*addr, data, *txid, *cat);
            (status, None, cost)
        }
        Command::ByteRead { addr, len, cat } => {
            let (data, cost) = dev.exec_byte_read(*addr, *len, *cat);
            match data {
                Ok(data) => (Ok(()), Some(data), cost),
                Err(e) => (Err(e), None, cost),
            }
        }
        Command::BlockWrite { lba, data, cat } => {
            let pages: Vec<&[u8]> = data.chunks(dev.page_size()).collect();
            submit_then_wait(&|| dev.exec_block_write(*lba, &pages, *cat))
        }
        Command::BlockRead { lba, count, cat } => {
            let (pages, cost) = dev.exec_block_read(*lba, *count, *cat);
            match pages {
                Ok(pages) => (Ok(()), Some(flatten_pages(pages)), cost),
                Err(e) => (Err(e), None, cost),
            }
        }
        Command::Flush => {
            let (status, cost) = dev.exec_flush();
            (status, None, cost)
        }
        Command::Trim { lba, count } => (Ok(()), None, dev.exec_trim(*lba, *count)),
        Command::Commit { txid } => {
            submit_then_wait(&|| (Ok(()), dev.exec_commit(*txid, InFlight::default())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MssdConfig;
    use crate::device::DramMode;

    fn dev() -> Arc<Mssd> {
        Mssd::new(MssdConfig::small_test(), DramMode::WriteLog)
    }

    #[test]
    fn submit_ring_poll_roundtrip() {
        let d = dev();
        let mut q = d.open_queue(8);
        let w = q
            .submit(Command::ByteWrite {
                addr: 4096,
                data: vec![7u8; 64],
                txid: None,
                cat: Category::Inode,
            })
            .unwrap();
        let r = q.submit(Command::ByteRead { addr: 4096, len: 64, cat: Category::Inode }).unwrap();
        assert_eq!(q.pending(), 2);
        assert_eq!(q.ring_doorbell(), 2);
        assert_eq!(q.pending(), 0);
        let cw = q.poll().expect("write completion");
        assert_eq!(cw.id, w);
        assert_eq!(cw.data, None);
        let cr = q.poll().expect("read completion");
        assert_eq!(cr.id, r);
        assert_eq!(cr.data, Some(vec![7u8; 64]));
        assert!(q.poll().is_none());
    }

    #[test]
    fn queue_full_and_submit_auto() {
        let d = dev();
        let mut q = d.open_queue(2);
        let cmd = || Command::ByteRead { addr: 0, len: 64, cat: Category::Data };
        q.submit(cmd()).unwrap();
        q.submit(cmd()).unwrap();
        assert_eq!(q.submit(cmd()), Err(QueueFull));
        // submit_auto rings for us.
        q.submit_auto(cmd()).unwrap();
        assert_eq!(q.completions_pending(), 2);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn adjacent_byte_writes_coalesce_into_one_log_append() {
        let d = dev();
        let mut q = d.open_queue(16);
        // 8 contiguous cacheline writes -> one merged append.
        for i in 0..8u64 {
            q.submit(Command::ByteWrite {
                addr: 8192 + i * 64,
                data: vec![i as u8 + 1; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        }
        q.ring_doorbell();
        let snap = d.snapshot();
        assert_eq!(snap.log_entries, 1, "adjacent writes must merge into one entry");
        let ql = snap.traffic.queue_lat(q.id());
        assert_eq!(ql.ops, 8);
        assert_eq!(ql.batches, 1);
        assert_eq!(ql.coalesced_cmds, 7);
        for i in 0..8u64 {
            assert_eq!(
                d.try_byte_read(8192 + i * 64, 64, Category::Data).unwrap(),
                vec![i as u8 + 1; 64]
            );
        }
    }

    #[test]
    fn non_adjacent_or_cross_tx_writes_do_not_coalesce() {
        let d = dev();
        let mut q = d.open_queue(8);
        q.submit(Command::ByteWrite {
            addr: 0,
            data: vec![1; 64],
            txid: None,
            cat: Category::Data,
        })
        .unwrap();
        // Gap.
        q.submit(Command::ByteWrite {
            addr: 192,
            data: vec![2; 64],
            txid: None,
            cat: Category::Data,
        })
        .unwrap();
        // Adjacent but transactional.
        q.submit(Command::ByteWrite {
            addr: 256,
            data: vec![3; 64],
            txid: Some(TxId(9)),
            cat: Category::Data,
        })
        .unwrap();
        q.ring_doorbell();
        assert_eq!(d.snapshot().traffic.queue_lat(q.id()).coalesced_cmds, 0);
        assert_eq!(d.snapshot().log_entries, 3);
    }

    #[test]
    fn wait_rings_and_returns_the_right_completion() {
        let d = dev();
        let mut q = d.open_queue(8);
        let a = q
            .submit(Command::ByteWrite {
                addr: 0,
                data: vec![5; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        let b = q.submit(Command::ByteRead { addr: 0, len: 64, cat: Category::Data }).unwrap();
        let cb = q.wait(b).expect("read completes");
        assert_eq!(cb.data, Some(vec![5; 64]));
        let ca = q.wait(a).expect("write completion still retrievable");
        assert!(ca.latency_ns > 0);
        assert_eq!(q.wait(b), Err(WaitError::AlreadyDelivered));
    }

    #[test]
    fn wait_distinguishes_never_submitted_from_already_delivered() {
        let d = dev();
        let mut q = d.open_queue(4);
        assert_eq!(q.wait(CommandId(0)), Err(WaitError::NeverSubmitted));
        assert_eq!(q.wait(CommandId(7)), Err(WaitError::NeverSubmitted));
        let a = q.submit(Command::ByteRead { addr: 0, len: 64, cat: Category::Data }).unwrap();
        assert!(!q.completion_ready(a));
        assert!(q.in_submission(a));
        q.wait(a).expect("completes");
        assert!(!q.in_submission(a));
        assert_eq!(q.wait(a), Err(WaitError::AlreadyDelivered));
        assert_eq!(q.try_complete(a), Err(WaitError::AlreadyDelivered));
    }

    #[test]
    fn try_complete_does_not_ring() {
        let d = dev();
        let mut q = d.open_queue(4);
        let a = q.submit(Command::ByteRead { addr: 0, len: 64, cat: Category::Data }).unwrap();
        assert_eq!(q.try_complete(a), Ok(None), "still in the SQ, no implicit ring");
        assert_eq!(q.pending(), 1);
        q.ring_doorbell();
        assert!(q.completion_ready(a));
        let c = q.try_complete(a).unwrap().expect("delivered");
        assert_eq!(c.id, a);
    }

    #[test]
    fn wait_reports_power_cut_consumed_and_pending() {
        use crate::fault::FaultPlan;
        // Count the device steps of one ring, then cut inside the second
        // command's execution so the first completes, the second is
        // consumed-in-doubt and the third never leaves the SQ.
        let cfg = MssdConfig::small_test();
        let submit3 = |q: &mut HostQueue| {
            // A gap between writes prevents coalescing: three groups.
            let mut ids = Vec::new();
            for i in 0..3u64 {
                ids.push(
                    q.submit(Command::ByteWrite {
                        addr: i * 4096,
                        data: vec![i as u8 + 1; 64],
                        txid: None,
                        cat: Category::Data,
                    })
                    .unwrap(),
                );
            }
            ids
        };
        let probe =
            Mssd::new(cfg.clone().with_fault_plan(FaultPlan::count_only()), DramMode::WriteLog);
        let mut q = probe.open_queue(4);
        submit3(&mut q);
        q.ring_doorbell();
        let total = probe.fault_plan().total_steps();
        assert!(total >= 3, "three appends take at least three steps");
        // Cut at the last step: it lands inside the final group of the ring.
        let d =
            Mssd::new(cfg.clone().with_fault_plan(FaultPlan::cut_at(total)), DramMode::WriteLog);
        let mut q = d.open_queue(4);
        let ids = submit3(&mut q);
        q.ring_doorbell();
        assert!(d.fault_tripped());
        q.wait(ids[0]).expect("first group completed before the cut");
        assert_eq!(q.wait(ids[2]), Err(WaitError::PowerCutConsumed));
        // And a cut at step 1 leaves later commands pending forever.
        let d = Mssd::new(cfg.with_fault_plan(FaultPlan::cut_at(1)), DramMode::WriteLog);
        let mut q = d.open_queue(4);
        let ids = submit3(&mut q);
        q.ring_doorbell();
        assert_eq!(q.wait(ids[2]), Err(WaitError::PowerCutPending));
        assert!(q.in_submission(ids[2]), "unconsumed command stays in the SQ");
    }

    #[test]
    fn empty_doorbells_record_no_batch() {
        let d = dev();
        let mut q = d.open_queue(4);
        assert_eq!(q.ring_doorbell(), 0);
        let cmd = || Command::ByteRead { addr: 0, len: 64, cat: Category::Data };
        // submit_auto on a non-full SQ must not ring.
        q.submit_auto(cmd()).unwrap();
        assert_eq!(q.completions_pending(), 0);
        q.ring_doorbell();
        assert_eq!(q.ring_doorbell(), 0, "SQ drained: second ring is a no-op");
        let ql = d.traffic().queue_lat(q.id());
        assert_eq!(ql.batches, 1, "only the ring that consumed commands counts");
        assert_eq!(ql.ops, 1);
    }

    #[test]
    fn batched_commit_makes_transaction_durable() {
        let d = dev();
        let mut q = d.open_queue(8);
        let tx = TxId(3);
        q.submit(Command::ByteWrite {
            addr: 4096,
            data: vec![0xEE; 64],
            txid: Some(tx),
            cat: Category::Inode,
        })
        .unwrap();
        q.submit(Command::Commit { txid: tx }).unwrap();
        q.ring_doorbell();
        assert!(d.is_committed(tx));
        d.recover();
        assert_eq!(d.try_byte_read(4096, 64, Category::Inode).unwrap(), vec![0xEE; 64]);
    }

    #[test]
    fn deadlines_track_expiry_and_clear_on_delivery() {
        let d = dev();
        let mut q = d.open_queue(4);
        let now = d.clock().now_ns();
        let a = q
            .submit_with_deadline(
                Command::ByteRead { addr: 0, len: 64, cat: Category::Data },
                now + 1_000,
            )
            .unwrap();
        let b = q
            .submit_with_deadline(
                Command::ByteRead { addr: 4096, len: 64, cat: Category::Data },
                u64::MAX,
            )
            .unwrap();
        assert_eq!(q.deadline_of(a), Some(now + 1_000));
        assert_eq!(q.deadline_of(b), None, "u64::MAX means no deadline");
        assert_eq!(q.next_deadline(), Some(now + 1_000));
        assert!(q.expired(now).is_empty());
        d.clock().advance(2_000);
        assert_eq!(q.expired(d.clock().now_ns()), vec![a]);
        q.ring_doorbell();
        assert_eq!(q.deadline_of(a), None, "delivery clears the deadline");
        assert!(q.expired(u64::MAX).is_empty());
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn abort_of_unexecuted_command_is_typed_and_preserves_the_rest() {
        let d = dev();
        let mut q = d.open_queue(4);
        // A gap prevents coalescing: two groups.
        let a = q
            .submit(Command::ByteWrite {
                addr: 0,
                data: vec![1; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        let b = q
            .submit(Command::ByteWrite {
                addr: 4096,
                data: vec![2; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        assert_eq!(q.abort(b), Ok(AbortOutcome::AbortedUnexecuted));
        assert!(!q.in_submission(b), "aborted id is out of the SQ");
        assert!(q.in_submission(a), "other commands are untouched");
        let cb = q.try_complete(b).unwrap().expect("typed aborted completion");
        assert_eq!(cb.status, Err(FlashError::Aborted));
        q.ring_doorbell();
        assert!(q.wait(a).expect("survivor completes").is_ok());
        assert_eq!(
            d.try_byte_read(4096, 64, Category::Data).unwrap(),
            vec![0; 64],
            "abortee never executed"
        );
        assert_eq!(q.abort(a), Ok(AbortOutcome::AlreadyCompleted));
        assert_eq!(q.wait(b), Err(WaitError::AlreadyDelivered));
        assert_eq!(d.traffic().aborts, 1);
    }

    #[test]
    fn lost_completion_is_typed_and_resolves_via_abort() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d =
            Mssd::new(
                MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(
                    HangFaultConfig { seed: 3, hang_loss_at: 1, ..Default::default() },
                )),
                DramMode::WriteLog,
            );
        let mut q = d.open_queue(4);
        let a = q
            .submit(Command::ByteWrite {
                addr: 0,
                data: vec![9; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        assert_eq!(q.ring_doorbell(), 0, "the completion was dropped");
        assert_eq!(q.lost_completions(), 1);
        assert_eq!(q.try_complete(a), Err(WaitError::CompletionLost));
        assert_eq!(q.wait(a), Err(WaitError::CompletionLost));
        assert_eq!(q.abort(a), Ok(AbortOutcome::AbortedInDoubt));
        assert_eq!(q.lost_completions(), 0);
        let c = q.wait(a).expect("abort delivered a completion");
        assert_eq!(c.status, Err(FlashError::Aborted));
        // Loss means the device *did* execute the command: in-doubt resolves
        // to "effects durable" here, and a retry would be idempotent.
        assert_eq!(d.try_byte_read(0, 64, Category::Data).unwrap(), vec![9; 64]);
    }

    #[test]
    fn wedge_stops_the_lane_until_requeue_reset() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d =
            Mssd::new(
                MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(
                    HangFaultConfig { seed: 3, hang_wedge_at: 1, ..Default::default() },
                )),
                DramMode::WriteLog,
            );
        let mut q = d.open_queue(4);
        let a = q
            .submit(Command::ByteWrite {
                addr: 0,
                data: vec![4; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        let b = q.submit(Command::ByteRead { addr: 0, len: 64, cat: Category::Data }).unwrap();
        assert_eq!(q.ring_doorbell(), 0);
        assert!(q.wedged());
        assert_eq!(q.wait(a), Err(WaitError::LaneWedged));
        assert_eq!(q.pending(), 2, "wedged lane consumes nothing");
        let report = q.reset(ResetMode::Requeue);
        assert_eq!(report, ResetReport { requeued: 2, aborted: 0, was_wedged: true });
        assert!(!q.wedged());
        assert_eq!(q.ring_doorbell(), 2, "requeued commands run after the reset");
        assert!(q.wait(a).expect("write completes").is_ok());
        assert_eq!(q.wait(b).expect("read completes").data, Some(vec![4; 64]));
        assert_eq!(d.traffic().lane_resets, 1);
    }

    #[test]
    fn failfast_reset_aborts_everything_outstanding() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d =
            Mssd::new(
                MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(
                    HangFaultConfig { seed: 3, hang_wedge_at: 1, ..Default::default() },
                )),
                DramMode::WriteLog,
            );
        let mut q = d.open_queue(4);
        let a = q.submit(Command::ByteRead { addr: 0, len: 64, cat: Category::Data }).unwrap();
        let b = q.submit(Command::ByteRead { addr: 4096, len: 64, cat: Category::Data }).unwrap();
        q.ring_doorbell();
        assert!(q.wedged());
        let report = q.reset(ResetMode::FailFast);
        assert_eq!(report, ResetReport { requeued: 0, aborted: 2, was_wedged: true });
        assert_eq!(q.pending(), 0);
        for id in [a, b] {
            let c = q.wait(id).expect("typed aborted completion");
            assert_eq!(c.status, Err(FlashError::Aborted));
        }
    }

    #[test]
    fn unbounded_stall_consumes_without_executing() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d = Mssd::new(
            MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(HangFaultConfig {
                seed: 3,
                stall_rate: 1.0,
                unbounded_stall_rate: 1.0,
                ..Default::default()
            })),
            DramMode::WriteLog,
        );
        let mut q = d.open_queue(4);
        let a = q
            .submit(Command::ByteWrite {
                addr: 0,
                data: vec![7; 64],
                txid: None,
                cat: Category::Data,
            })
            .unwrap();
        assert_eq!(q.ring_doorbell(), 0);
        assert_eq!(q.lost_completions(), 1);
        assert_eq!(q.abort(a), Ok(AbortOutcome::AbortedInDoubt));
        // In-doubt resolves to "never executed" for an unbounded stall.
        assert_eq!(d.try_byte_read(0, 64, Category::Data).unwrap(), vec![0; 64]);
    }

    #[test]
    fn bounded_stall_inflates_latency_under_the_virtual_clock() {
        use crate::fault::{HangFaultConfig, HangFaultPlan};
        let d = Mssd::new(
            MssdConfig::small_test().with_hang_fault_plan(HangFaultPlan::new(HangFaultConfig {
                seed: 3,
                stall_rate: 1.0,
                stall_min_ns: 500_000,
                stall_max_ns: 500_000,
                ..Default::default()
            })),
            DramMode::WriteLog,
        );
        let mut q = d.open_queue(4);
        let a = q.submit(Command::ByteRead { addr: 0, len: 64, cat: Category::Data }).unwrap();
        let before = d.clock().now_ns();
        q.ring_doorbell();
        let c = q.wait(a).expect("stalled command still completes");
        assert!(c.is_ok());
        assert!(c.latency_ns >= 500_000, "stall charged to the completion");
        assert!(d.clock().now_ns() - before >= 500_000, "stall advanced the virtual clock");
    }

    #[test]
    fn ambient_guard_attributes_sync_ops_to_the_queue() {
        let d = dev();
        let q = d.open_queue(4);
        {
            let _g = q.make_ambient();
            d.try_byte_write(0, &[1u8; 64], None, Category::Data).unwrap();
        }
        d.try_byte_write(64, &[2u8; 64], None, Category::Data).unwrap();
        let t = d.traffic();
        assert_eq!(t.queue_lat(q.id()).ops, 1, "ambient op lands on the queue slot");
        assert_eq!(t.queue_lat(0).ops, 1, "post-guard op lands on the sync slot");
    }
}
