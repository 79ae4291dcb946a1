//! The memory-semantic SSD device: dual byte/block host interface, firmware
//! write log or page cache, transactions and recovery.
//!
//! [`Mssd`] is the single object file systems talk to. It is `Send + Sync`
//! and built so that *both* host interfaces scale with threads instead of
//! serializing on one device-wide lock:
//!
//! * traffic/latency accounting is lock-free ([`AtomicTraffic`] — plain
//!   relaxed atomic adds, never a mutex);
//! * the write-log index is sharded by the paper's first-layer partition key
//!   (LPA / 16 MB) with an independent lock per shard
//!   ([`crate::log::ShardedWriteLog`]), double-buffered into active + sealed
//!   regions per shard;
//! * the flash path is channel-parallel ([`crate::ftl::ShardedFtl`]): a
//!   lock-striped L2P mapping table over per-channel units (active block,
//!   free list, page store, write-buffer slice), so programs/reads on
//!   distinct channels proceed concurrently in real time — not just in the
//!   virtual-latency model;
//! * in baseline mode the device page cache is lock-striped by LPA
//!   ([`crate::dram_cache::ShardedDramCache`]);
//! * the firmware TxLog has its own small mutex, so `COMMIT` does not block
//!   writers;
//! * host requests can enter through NVMe-style submission/completion queue
//!   pairs ([`Mssd::open_queue`] / [`crate::queue::HostQueue`]) with batched
//!   doorbells that coalesce adjacent byte writes before they hit the log;
//!   every synchronous method below is a **depth-1 shim** over the same
//!   command executor, attributed to queue accounting slot 0 (or the
//!   thread's ambient queue).
//!
//! **Log cleaning is a background activity** (the paper's double-buffered
//! design): when the log crosses its utilization threshold, a dedicated
//! cleaner thread seals each shard's active region (a brief per-shard flip)
//! and drains the sealed regions to flash page by page, holding only one
//! shard lock at a time. Foreground writers keep appending to the fresh
//! active regions and are charged no cleaning latency. Only when space
//! admission fails outright (the log is completely full) does the writer
//! fall back to reclaiming in the foreground — first by draining sealed
//! pages itself, then, if nothing is drainable, via a stop-the-world pass.
//! Recovery and `force_clean` remain stop-the-world.
//!
//! Lock order (to avoid deadlock):
//! **log shard → txlog → flash channel → L2P stripe**, and in baseline mode
//! **cache shard → flash channel → L2P stripe**. Any operation that takes
//! more than one of these acquires them in that order. Log shards are locked
//! one at a time (appends, reads, cleaner steps) or all of them in ascending
//! index order (stop-the-world drain); flash channel locks are only ever
//! held two at once inside `ShardedFtl::migrate_buffered`, in ascending
//! index order; L2P stripes are leaf locks. The cleaner-thread signalling
//! mutex is independent and never held across any of the above.
//!
//! Concurrency contract: individual operations are thread-safe, but a
//! multi-page request is atomic only **per page-sized chunk**, not as a
//! whole — a concurrent reader of a range another thread is writing may see
//! some pages new and some old. This mirrors real dual-interface hardware
//! (MMIO gives at most cacheline atomicity; NVMe gives per-command, not
//! cross-command, ordering). Callers needing cross-page atomicity use
//! transactions (`txid` + `COMMIT`).
//!
//! Every operation advances the shared virtual [`Clock`] by the modelled
//! latency and records traffic in the device's [`AtomicTraffic`]. Two parts of
//! the device work beside the host on that clock (`DESIGN-time.md`): the NAND
//! array programs the FTL write buffer in the background, and a command waits
//! for it only through a full buffer or a FLUSH; and a block write can be in
//! flight on the link ([`Mssd::submit_block_write_pages`]) while the host
//! issues byte-interface stores, until it calls [`Mssd::wait`].
//!
//! The firmware behaviour depends on [`DramMode`]:
//!
//! * [`DramMode::WriteLog`] — the ByteFS firmware of §4.3: byte writes append
//!   to the log-structured write log, block writes invalidate log entries and
//!   go through the FTL write buffer, flash pages are *not* cached in device
//!   DRAM (coordinated caching), and `COMMIT`/`RECOVER` are supported.
//! * [`DramMode::PageCache`] — an unmodified M-SSD as used by the baseline
//!   file systems: the same DRAM budget acts as a page-granular write-back
//!   cache serving both interfaces.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::Clock;
use crate::config::MssdConfig;
use crate::dram_cache::{DramPageCache, ShardedDramCache};
use crate::fault::{FaultKind, FaultPlan};
use crate::flash::{BlockId, FlashError};
use crate::ftl::{Lpa, ShardedFtl};
use crate::log::{ChunkEntry, LogEntryImage, SealedStep, ShardedWriteLog, LOG_SHARDS};
use crate::queue::HostQueue;
use crate::stats::{
    AtomicTraffic, Category, Direction, Interface, StatsSnapshot, TrafficCounter, QUEUE_SLOTS,
};
use crate::txn::{TxId, TxLog};

/// How the firmware manages the device DRAM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramMode {
    /// Log-structured write log + coordinated caching (ByteFS firmware).
    WriteLog,
    /// Conventional page-granular write-back cache (baseline firmware).
    PageCache,
}

/// Summary of a `RECOVER()` command (§4.7 / §5.5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Log entries scanned during recovery.
    pub scanned_entries: usize,
    /// Entries discarded because their transaction never committed.
    pub discarded_entries: usize,
    /// Flash pages written while flushing committed entries.
    pub flushed_pages: usize,
    /// Virtual time the recovery took, in nanoseconds.
    pub duration_ns: u64,
}

/// The durable state of a device at a power-failure instant: exactly what a
/// real M-SSD keeps across power loss — NAND contents plus battery-backed
/// device DRAM (write log, TxLog, FTL write buffer, device page cache).
/// Produced by [`Mssd::crash_image`], consumed by [`Mssd::from_crash_image`].
///
/// Crash harnesses may mutate an image before restoring it to model
/// violations of the battery assumption (e.g. clearing `buffered_pages`
/// models a failed capacitor flush, truncating `txlog` models torn commit
/// records); the crashkit checkers must then catch the resulting
/// inconsistency.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// Firmware mode the image was captured in.
    pub mode: DramMode,
    /// Write-log entries (battery-backed DRAM), sorted by `(lpa, seq)`.
    pub log_entries: Vec<LogEntryImage>,
    /// The log's next sequence number.
    pub log_seq: u64,
    /// Committed TxIDs in commit order (battery-backed TxLog).
    pub txlog: Vec<TxId>,
    /// Logical pages programmed on NAND, sorted by LPA.
    pub flash_pages: Vec<(Lpa, Vec<u8>)>,
    /// Pages accepted into the FTL write buffer but not yet programmed
    /// (battery-backed; a real device flushes them from capacitor power).
    pub buffered_pages: Vec<(Lpa, Vec<u8>)>,
    /// Dirty pages of the device page cache (baseline mode; battery-backed).
    pub cache_pages: Vec<(Lpa, Vec<u8>)>,
    /// Retired (bad) physical blocks, sorted. The bad-block table is part of
    /// the durable state: a real device persists it in NAND metadata so a
    /// power cycle never re-issues programs to a block that failed one.
    pub bad_blocks: Vec<BlockId>,
}

impl CrashImage {
    /// Order-independent-stable FNV-1a digest over the full durable state.
    /// Two identical crash states always digest equal (the collections are
    /// sorted at capture), which is what the determinism tests pin.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&[self.mode as u8]);
        eat(&self.log_seq.to_le_bytes());
        // Every variable-length field is length-prefixed and every
        // collection count-prefixed, so field/entry boundaries cannot
        // alias between two different images.
        eat(&(self.log_entries.len() as u64).to_le_bytes());
        for e in &self.log_entries {
            eat(&e.lpa.to_le_bytes());
            eat(&(e.offset as u64).to_le_bytes());
            eat(&e.seq.to_le_bytes());
            eat(&[u8::from(e.sealed), u8::from(e.txid.is_some())]);
            eat(&e.txid.map(|t| t.0).unwrap_or(0).to_le_bytes());
            eat(&(e.data.len() as u64).to_le_bytes());
            eat(&e.data);
        }
        eat(&(self.txlog.len() as u64).to_le_bytes());
        for tx in &self.txlog {
            eat(&tx.0.to_le_bytes());
        }
        for set in [&self.flash_pages, &self.buffered_pages, &self.cache_pages] {
            eat(&(set.len() as u64).to_le_bytes());
            for (lpa, data) in set.iter() {
                eat(&lpa.to_le_bytes());
                eat(data);
            }
        }
        eat(&(self.bad_blocks.len() as u64).to_le_bytes());
        for b in &self.bad_blocks {
            eat(&b.to_le_bytes());
        }
        h
    }

    /// One-line summary for reports, e.g. counts of each captured component.
    pub fn summary(&self) -> String {
        format!(
            "{} log entries, {} commits, {} flash pages, {} buffered, {} cached-dirty, {} bad blocks",
            self.log_entries.len(),
            self.txlog.len(),
            self.flash_pages.len(),
            self.buffered_pages.len(),
            self.cache_pages.len(),
            self.bad_blocks.len()
        )
    }
}

/// A command the device has accepted and the host has not waited for yet: a
/// block write ([`Mssd::submit_block_write_pages`]; the virtual ns at which its
/// last page is in the FTL write buffer) or a COMMIT
/// ([`Mssd::submit_commit`]; the virtual ns at which the record counts). Hand
/// a block write to [`Mssd::submit_commit`] to order the record behind it, or
/// to [`Mssd::wait`] before anything else that must follow the data — a
/// FLUSH, a journal's commit block. The later of two completions is
/// `a.max(b)`; the default value completed at time zero and waits for nothing.
#[must_use = "a submitted command costs the host nothing until it is handed to Mssd::wait"]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct InFlight {
    done_ns: u64,
}

impl InFlight {
    /// The virtual ns at which the command completes.
    pub fn done_ns(self) -> u64 {
        self.done_ns
    }
}

/// Pages the background cleaner merges per shard-lock acquisition. Small, so
/// a writer that collides with the cleaner on one shard waits for at most a
/// few page merges, not a whole region drain.
const CLEANER_PAGES_PER_STEP: usize = 8;

/// Signalling state shared between the device and its cleaner thread. Uses
/// `std::sync` because the vendored `parking_lot` has no `Condvar`; this
/// mutex is independent of the data-path lock order and is never held across
/// any data-path lock.
#[derive(Debug, Default)]
struct CleanerShared {
    state: StdMutex<CleanerState>,
    /// Signalled when there is cleaning work (or shutdown).
    kick: Condvar,
    /// Signalled when the cleaner finishes a pass (for quiesce).
    idle: Condvar,
    /// Contention filter for [`Mssd::kick_cleaner`]: writers above the log
    /// threshold kick on every byte write, and without this flag they would
    /// all re-serialize on the signalling mutex. `true` means a kick is
    /// already in flight; the cleaner clears it when it starts a pass.
    kick_pending: AtomicBool,
}

#[derive(Debug, Default)]
struct CleanerState {
    pending: bool,
    shutdown: bool,
    busy: bool,
}

/// Everything the cleaner thread needs, by `Arc` — it deliberately does not
/// hold the `Mssd` itself, so dropping the last device handle (which joins
/// the thread) cannot cycle.
struct CleanerCtx {
    cfg: MssdConfig,
    log: Arc<ShardedWriteLog>,
    flash: Arc<ShardedFtl>,
    txlog: Arc<Mutex<TxLog>>,
    stats: Arc<AtomicTraffic>,
    shared: Arc<CleanerShared>,
}

struct CleanerHandle {
    shared: Arc<CleanerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The memory-semantic SSD device model.
pub struct Mssd {
    cfg: MssdConfig,
    mode: DramMode,
    clock: Arc<Clock>,
    stats: Arc<AtomicTraffic>,
    log: Arc<ShardedWriteLog>,
    txlog: Arc<Mutex<TxLog>>,
    flash: Arc<ShardedFtl>,
    cache: ShardedDramCache,
    cleaner: Option<CleanerHandle>,
    /// The link's one timeline (`DESIGN-time.md`): the virtual ns at which
    /// the last block-write transfer handed to it has crossed; in the past
    /// when the link is idle. `Relaxed` throughout, as for
    /// `ShardedFtl::nand_busy_until` — a number of the latency model.
    link_busy_until: AtomicU64,
    /// Monotonic counter handing out per-queue accounting slots
    /// (see [`Mssd::open_queue`]).
    next_queue: AtomicUsize,
}

impl std::fmt::Debug for Mssd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mssd")
            .field("capacity_bytes", &self.cfg.capacity_bytes)
            .field("mode", &self.mode)
            .field("now_ns", &self.clock.now_ns())
            .finish()
    }
}

impl Mssd {
    /// Creates a device with the given configuration and firmware mode.
    ///
    /// In [`DramMode::WriteLog`] with `cfg.background_cleaning` set (the
    /// default), this spawns the background log-cleaner thread; it is joined
    /// when the last `Arc<Mssd>` is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MssdConfig::validate`]).
    pub fn new(cfg: MssdConfig, mode: DramMode) -> Arc<Self> {
        Self::with_clock(cfg, mode, Clock::new())
    }

    /// Creates a device sharing an existing clock (so host-side costs and
    /// device costs accumulate on the same timeline).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_clock(cfg: MssdConfig, mode: DramMode, clock: Arc<Clock>) -> Arc<Self> {
        if let Err(msg) = cfg.validate() {
            panic!("invalid MssdConfig: {msg}");
        }
        let log = Arc::new(ShardedWriteLog::new(&cfg));
        let flash = Arc::new(ShardedFtl::new(cfg.clone()));
        let txlog = Arc::new(Mutex::new(TxLog::new(cfg.txlog_bytes)));
        let stats = Arc::new(AtomicTraffic::new());
        stats.trace().attach_clock(Arc::clone(&clock));
        stats.set_ras_spares_remaining(flash.spares_remaining() as u64);
        let cache = ShardedDramCache::new(cfg.dram_region_bytes, cfg.page_size);
        let cleaner = (mode == DramMode::WriteLog && cfg.background_cleaning).then(|| {
            let shared = Arc::new(CleanerShared::default());
            let ctx = CleanerCtx {
                cfg: cfg.clone(),
                log: Arc::clone(&log),
                flash: Arc::clone(&flash),
                txlog: Arc::clone(&txlog),
                stats: Arc::clone(&stats),
                shared: Arc::clone(&shared),
            };
            let thread = std::thread::Builder::new()
                .name("mssd-log-cleaner".into())
                .spawn(move || cleaner_main(ctx))
                .expect("spawn log-cleaner thread");
            CleanerHandle { shared, thread: Some(thread) }
        });
        Arc::new(Self {
            cfg,
            mode,
            clock,
            stats,
            log,
            txlog,
            flash,
            cache,
            cleaner,
            link_busy_until: AtomicU64::new(0),
            next_queue: AtomicUsize::new(0),
        })
    }

    /// Opens a new host submission/completion queue pair of the given depth
    /// (see [`crate::queue::HostQueue`]). Accounting slots `1..QUEUE_SLOTS`
    /// are assigned round-robin; slot 0 is reserved for the synchronous
    /// depth-1 shim.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn open_queue(self: &Arc<Self>, depth: usize) -> HostQueue {
        let n = self.next_queue.fetch_add(1, Ordering::Relaxed);
        let id = 1 + (n % (QUEUE_SLOTS - 1)) as u16;
        HostQueue::new(Arc::clone(self), id, depth)
    }

    /// The device's lock-free stats bank (used by the queue machinery).
    pub(crate) fn stats_ref(&self) -> &AtomicTraffic {
        &self.stats
    }

    /// The device's trace sink (see [`crate::trace`]). Drain it after a
    /// traced run to export Perfetto JSON.
    pub fn trace_sink(&self) -> &crate::trace::TraceSink {
        self.stats.trace()
    }

    /// Turns structured event tracing on or off. Off (the default) costs one
    /// relaxed atomic load per instrumentation point; tracing never advances
    /// the virtual clock or changes simulated behavior either way.
    pub fn set_tracing(&self, on: bool) {
        self.stats.trace().set_enabled(on);
    }

    /// The device configuration.
    pub fn config(&self) -> &MssdConfig {
        &self.cfg
    }

    /// The firmware DRAM mode.
    pub fn dram_mode(&self) -> DramMode {
        self.mode
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> Arc<Clock> {
        Arc::clone(&self.clock)
    }

    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Device page size in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// Number of logical pages (blocks) exposed through the block interface.
    pub fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages()
    }

    /// Charges `ns` of host-visible device time: advances the shared clock and
    /// accumulates the busy counter. Entirely lock-free.
    fn charge(&self, ns: u64) {
        if ns > 0 {
            self.clock.advance(ns);
            self.stats.add_device_busy_ns(ns);
        }
    }

    // ------------------------------------------------------------------
    // Byte interface (PCIe/CXL MMIO)
    // ------------------------------------------------------------------

    /// Writes `data` at absolute device byte address `addr` through the byte
    /// interface. If `txid` is given the write belongs to that transaction and
    /// becomes durable at commit; otherwise it is treated as immediately
    /// committed.
    ///
    /// In [`DramMode::WriteLog`] this is the sharded hot path: the only lock
    /// taken is the one write-log shard covering each touched partition.
    /// Crossing the cleaning threshold merely kicks the background cleaner;
    /// flash is involved in the foreground only when space admission fails.
    ///
    /// # Panics
    ///
    /// Panics if the address range exceeds the device capacity.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadOnly`] once the device has degraded (spare blocks
    /// exhausted); in baseline mode, media errors from the cache's
    /// read-modify-write or dirty-eviction path also propagate.
    pub fn try_byte_write(
        &self,
        addr: u64,
        data: &[u8],
        txid: Option<TxId>,
        cat: Category,
    ) -> Result<(), FlashError> {
        let (status, cost) = self.exec_byte_write(addr, data, txid, cat);
        self.stats.record_queue_op(crate::queue::ambient_queue(), cost);
        status
    }

    /// Executor behind [`Mssd::try_byte_write`], shared with the batched queue
    /// path; returns the command status and the charged virtual cost.
    pub(crate) fn exec_byte_write(
        &self,
        addr: u64,
        data: &[u8],
        txid: Option<TxId>,
        cat: Category,
    ) -> (Result<(), FlashError>, u64) {
        assert_in_capacity("byte_write", addr, data.len(), self.cfg.capacity_bytes);
        if data.is_empty() {
            return (Ok(()), 0);
        }
        if self.flash.is_read_only() {
            // Degraded device: every mutation is refused with a typed error
            // before any durable side effect.
            return (Err(FlashError::ReadOnly), 0);
        }
        self.stats.record_host(Direction::Write, cat, Interface::Byte, data.len() as u64);
        let start = self.clock.now_ns();
        let mut cost = self.cfg.byte_access_ns(data.len(), false);
        let page_size = self.cfg.page_size as u64;
        let mut off = 0usize;
        while off < data.len() {
            let cur_addr = addr + off as u64;
            let lpa: Lpa = cur_addr / page_size;
            let in_page = (cur_addr % page_size) as usize;
            let span = (self.cfg.page_size - in_page).min(data.len() - off);
            let chunk = &data[off..off + span];
            // One counted fault step per chunk: a power cut mid-write tears
            // the host store at cacheline/page-chunk granularity.
            match self.mode {
                DramMode::WriteLog => {
                    if self.cfg.fault.step(FaultKind::LogAppend) {
                        cost += self.log_append(lpa, in_page, chunk, txid, start + cost);
                    }
                }
                DramMode::PageCache => {
                    if self.cfg.fault.step(FaultKind::CacheWrite) {
                        match self.cache_write_chunk(lpa, in_page, chunk, start + cost) {
                            Ok(ns) => cost += ns,
                            Err(e) => {
                                // Chunks before the failure were accepted —
                                // the documented per-chunk atomicity.
                                self.charge(cost);
                                return (Err(e), cost);
                            }
                        }
                    }
                }
            }
            off += span;
        }
        // Crossing the threshold starts background cleaning; with the
        // cleaner disabled, fall back to an inline stop-the-world pass
        // (uncharged, like the background path — the reference behaviour).
        if self.mode == DramMode::WriteLog
            && self.log.needs_cleaning()
            && !self.cfg.fault.is_cut()
            && !self.kick_cleaner()
        {
            self.clean_all(None);
        }
        self.charge(cost);
        (Ok(()), cost)
    }

    /// Reads `len` bytes at absolute device byte address `addr` through the
    /// byte interface.
    ///
    /// Ranges fully covered by write-log entries are served under a single
    /// shard lock; only uncovered ranges touch the FTL (channel-parallel).
    ///
    /// # Panics
    ///
    /// Panics if the address range exceeds the device capacity.
    ///
    /// # Errors
    ///
    /// [`FlashError::Uncorrectable`] when a backing flash page fails ECC
    /// even after the read-retry ladder.
    pub fn try_byte_read(
        &self,
        addr: u64,
        len: usize,
        cat: Category,
    ) -> Result<Vec<u8>, FlashError> {
        let (data, cost) = self.exec_byte_read(addr, len, cat);
        self.stats.record_queue_op(crate::queue::ambient_queue(), cost);
        data
    }

    /// Executor behind [`Mssd::try_byte_read`], shared with the batched queue
    /// path; returns the payload (or media error) and the charged virtual
    /// cost.
    pub(crate) fn exec_byte_read(
        &self,
        addr: u64,
        len: usize,
        cat: Category,
    ) -> (Result<Vec<u8>, FlashError>, u64) {
        assert_in_capacity("byte_read", addr, len, self.cfg.capacity_bytes);
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return (Ok(out), 0);
        }
        self.stats.record_host(Direction::Read, cat, Interface::Byte, len as u64);
        let start = self.clock.now_ns();
        let mut cost = self.cfg.byte_access_ns(len, true);
        let page_size = self.cfg.page_size as u64;
        let mut off = 0usize;
        while off < len {
            let cur_addr = addr + off as u64;
            let lpa: Lpa = cur_addr / page_size;
            let in_page = (cur_addr % page_size) as usize;
            let span = (self.cfg.page_size - in_page).min(len - off);
            let now = start + cost;
            match self.mode {
                DramMode::WriteLog => {
                    // The whole read-through happens under the page's shard
                    // lock, so a concurrent cleaner step on this page cannot
                    // drain entries between the flash fetch and the overlay.
                    let fetch = || self.read_flash(lpa, now);
                    match self.log.read_range(lpa, in_page, span, fetch) {
                        Ok((bytes, ns)) => {
                            cost += ns;
                            out.extend_from_slice(&bytes);
                        }
                        Err(e) => {
                            self.charge(cost);
                            return (Err(e), cost);
                        }
                    }
                }
                DramMode::PageCache => {
                    let mut shard = self.cache.lock_shard(lpa);
                    match shard.get(lpa) {
                        Some(p) => out.extend_from_slice(&p[in_page..in_page + span]),
                        None => {
                            let (page, ns) = match self.read_flash(lpa, now) {
                                Ok(fetched) => fetched,
                                Err(e) => {
                                    self.charge(cost);
                                    return (Err(e), cost);
                                }
                            };
                            cost += ns;
                            out.extend_from_slice(&page[in_page..in_page + span]);
                            // A read-miss fill can evict a dirty victim into
                            // the FTL — a durable mutation, skipped once
                            // power is off.
                            if !self.cfg.fault.is_cut() {
                                match self.cache_fill(&mut shard, lpa, page, false, start + cost) {
                                    Ok(ns) => cost += ns,
                                    Err(e) => {
                                        self.charge(cost);
                                        return (Err(e), cost);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            off += span;
        }
        self.charge(cost);
        (Ok(out), cost)
    }

    /// The persistence barrier a host issues after MMIO writes: a cache-line
    /// flush followed by a zero-length "write-verify read" that forces posted
    /// PCIe writes to complete (§4.2). Charges one byte-interface read
    /// round-trip.
    ///
    /// A ByteFS transaction that ends in a `COMMIT` does not call it: the
    /// record's completion is the barrier wherever stores are ordered with
    /// commands ([`MssdConfig::stores_ordered_with_commands`]). Its callers
    /// are the stores that no command follows — ByteFS-Dual's transactions
    /// and the NOVA- and PMFS-like baselines — and ByteFS under CXL.
    pub fn persist_barrier(&self) {
        self.charge(self.cfg.byte_read_ns);
    }

    // ------------------------------------------------------------------
    // Block interface (NVMe)
    // ------------------------------------------------------------------

    /// Reads `count` consecutive 4 KB blocks starting at logical block `lba`:
    /// the pages of [`Mssd::try_block_read_pages`] as one flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    ///
    /// # Errors
    ///
    /// [`FlashError::Uncorrectable`] when a flash page fails ECC even after
    /// the read-retry ladder.
    pub fn try_block_read(
        &self,
        lba: u64,
        count: usize,
        cat: Category,
    ) -> Result<Vec<u8>, FlashError> {
        self.try_block_read_pages(lba, count, cat).map(flatten_pages)
    }

    /// Scatter-gather block read: one NVMe command over `count` consecutive
    /// blocks starting at `lba`, one buffer per page. A caller that keeps
    /// pages apart (a host page cache) takes each buffer as it is — nothing
    /// is concatenated, so a long run costs no scratch copy.
    ///
    /// # Errors
    ///
    /// [`FlashError::Uncorrectable`] when a flash page fails ECC even after
    /// the read-retry ladder.
    pub fn try_block_read_pages(
        &self,
        lba: u64,
        count: usize,
        cat: Category,
    ) -> Result<Vec<Vec<u8>>, FlashError> {
        let (pages, cost) = self.exec_block_read(lba, count, cat);
        self.stats.record_queue_op(crate::queue::ambient_queue(), cost);
        pages
    }

    /// The one block-read executor, shared by the synchronous calls and the
    /// batched queue path; returns one buffer per page (or the media error)
    /// and the charged virtual cost.
    pub(crate) fn exec_block_read(
        &self,
        lba: u64,
        count: usize,
        cat: Category,
    ) -> (Result<Vec<Vec<u8>>, FlashError>, u64) {
        assert_in_capacity("block_read", lba, count, self.logical_pages());
        let page_size = self.cfg.page_size;
        let mut out = Vec::with_capacity(count);
        if count == 0 {
            return (Ok(out), 0);
        }
        self.stats.record_host(Direction::Read, cat, Interface::Block, (count * page_size) as u64);
        let start = self.clock.now_ns();
        let mut cost = self.cfg.nvme_overhead_ns + self.cfg.transfer_ns(count * page_size, true);
        let mut flash_reads = 0usize;
        for i in 0..count as u64 {
            let lpa = lba + i;
            let now = start + cost;
            match self.mode {
                DramMode::WriteLog => {
                    let fetch = || self.read_flash(lpa, now);
                    match self.log.read_range(lpa, 0, page_size, fetch) {
                        Ok((page, ns)) => {
                            if ns > 0 {
                                flash_reads += 1;
                            }
                            out.push(page);
                        }
                        Err(e) => {
                            self.charge(cost);
                            return (Err(e), cost);
                        }
                    }
                }
                DramMode::PageCache => {
                    let mut shard = self.cache.lock_shard(lpa);
                    match shard.get(lpa) {
                        Some(p) => out.push(p.to_vec()),
                        None => {
                            let (page, _) = match self.read_flash(lpa, now) {
                                Ok(fetched) => fetched,
                                Err(e) => {
                                    self.charge(cost);
                                    return (Err(e), cost);
                                }
                            };
                            flash_reads += 1;
                            out.push(page.clone());
                            if !self.cfg.fault.is_cut() {
                                match self.cache_fill(&mut shard, lpa, page, false, now) {
                                    Ok(ns) => cost += ns,
                                    Err(e) => {
                                        self.charge(cost);
                                        return (Err(e), cost);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Flash reads proceed channel-parallel.
        if flash_reads > 0 {
            cost += flash_reads.div_ceil(self.cfg.channels) as u64 * self.cfg.flash_read_ns;
        }
        self.charge(cost);
        (Ok(out), cost)
    }

    /// Writes whole blocks starting at logical block `lba`: `data` cut at page
    /// boundaries and handed to [`Mssd::try_block_write_pages`].
    ///
    /// The write is acknowledged once it reaches device DRAM (write buffer or
    /// cache); durability to flash is forced by [`Mssd::try_flush`].
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a non-zero multiple of the page size in length
    /// or the range exceeds the device capacity.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadOnly`] once the device has degraded (spare blocks
    /// exhausted). Pages before the failing one were accepted — the
    /// documented per-page atomicity of multi-page commands.
    pub fn try_block_write(&self, lba: u64, data: &[u8], cat: Category) -> Result<(), FlashError> {
        let pages: Vec<&[u8]> = data.chunks(self.cfg.page_size).collect();
        self.try_block_write_pages(lba, &pages, cat)
    }

    /// Scatter-gather block write: one NVMe command storing `pages` (each
    /// exactly one page long, wherever it lives in host memory) at
    /// consecutive blocks starting at `lba`. The synchronous form:
    /// [`Mssd::submit_block_write_pages`], then [`Mssd::wait`].
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty, a page has the wrong length or the range
    /// exceeds the device capacity.
    ///
    /// # Errors
    ///
    /// As [`Mssd::try_block_write`].
    pub fn try_block_write_pages(
        &self,
        lba: u64,
        pages: &[&[u8]],
        cat: Category,
    ) -> Result<(), FlashError> {
        let cmd = self.submit_block_write_pages(lba, pages, cat)?;
        self.wait(cmd);
        Ok(())
    }

    /// Submits the command of [`Mssd::try_block_write_pages`] without waiting
    /// for it: the pages are in the device when this returns (data model,
    /// fault steps and counters are those of the synchronous call), the clock
    /// has not moved, and the returned [`InFlight`] says when the command
    /// completes. Until the host calls [`Mssd::wait`] it can issue
    /// byte-interface stores beside the transfer; commands submitted
    /// meanwhile queue on the link behind it (`DESIGN-time.md`, "The link's
    /// timeline").
    ///
    /// # Panics
    ///
    /// As [`Mssd::try_block_write_pages`].
    ///
    /// # Errors
    ///
    /// As [`Mssd::try_block_write`]; a refused command has been waited for.
    pub fn submit_block_write_pages(
        &self,
        lba: u64,
        pages: &[&[u8]],
        cat: Category,
    ) -> Result<InFlight, FlashError> {
        let submitted = self.clock.now_ns();
        let (status, cmd) = self.exec_block_write(lba, pages, cat);
        self.stats
            .record_queue_op(crate::queue::ambient_queue(), cmd.done_ns.saturating_sub(submitted));
        match status {
            Ok(()) => Ok(cmd),
            Err(e) => {
                self.wait(cmd);
                Err(e)
            }
        }
    }

    /// Waits for a submitted command: advances the clock to its completion
    /// if that is still ahead, and returns the virtual ns the host waited —
    /// nothing when its own charges since the submission already cover the
    /// command.
    pub fn wait(&self, cmd: InFlight) -> u64 {
        let waited = self.clock.advance_to(cmd.done_ns);
        if waited > 0 {
            self.stats.add_device_busy_ns(waited);
            self.stats.add_inflight_wait_ns(waited);
        }
        waited
    }

    /// The one block-write executor, shared by the submitting calls and the
    /// batched queue path; returns the command status and its completion.
    /// Nothing is charged here: the caller waits, now or later.
    ///
    /// The command's fixed overhead occupies nothing and pipelines; its
    /// transfer queues on the link's timeline; and everything it does inside
    /// the device — the `now` of every buffer write, hence every slot wait —
    /// is evaluated from the end of that transfer, not at the submitter's
    /// clock, which a command queued behind others on the link is far ahead
    /// of.
    pub(crate) fn exec_block_write(
        &self,
        lba: u64,
        pages: &[&[u8]],
        cat: Category,
    ) -> (Result<(), FlashError>, InFlight) {
        let page_size = self.cfg.page_size;
        assert!(
            !pages.is_empty() && pages.iter().all(|p| p.len() == page_size),
            "block_write length must be a non-zero multiple of the page size"
        );
        let bytes = pages.len() * page_size;
        assert_in_capacity("block_write", lba, pages.len(), self.logical_pages());
        if self.flash.is_read_only() {
            return (Err(FlashError::ReadOnly), InFlight::default());
        }
        self.stats.record_host(Direction::Write, cat, Interface::Block, bytes as u64);
        let arrives = self.clock.now_ns() + self.cfg.nvme_overhead_ns;
        let transfer = self.cfg.transfer_ns(bytes, false);
        let link_free = self
            .link_busy_until
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                Some(busy.max(arrives) + transfer)
            })
            .expect("the update always applies");
        let mut cmd = InFlight { done_ns: link_free.max(arrives) + transfer };
        let mut status = Ok(());
        // Journal pages are counted as their own fault kind: torn journal
        // writes are the classic crash-consistency hazard the block file
        // systems defend against.
        let kind =
            if cat == Category::Journal { FaultKind::JournalWrite } else { FaultKind::BufferWrite };
        for (lpa, page) in (lba..).zip(pages) {
            // One counted fault step per page: a cut tears multi-page block
            // writes at page granularity (pages before the cut are
            // acknowledged into device DRAM, pages after never arrive).
            if !self.cfg.fault.step(kind) {
                break;
            }
            let page = page.to_vec();
            let waited = match self.mode {
                DramMode::WriteLog => {
                    // The host page cache always holds the newest data, so log
                    // entries for this page are stale and dropped (§4.4) —
                    // atomically with the buffer write, under the shard lock,
                    // so a cleaner step cannot merge a drained stale chunk on
                    // top of the fresh block data.
                    let (_, buffered) = self.log.invalidate_page_and(lpa, || {
                        self.flash.buffer_write_on(lpa, page, &self.stats, Some(cmd.done_ns))
                    });
                    buffered
                }
                DramMode::PageCache => {
                    let mut shard = self.cache.lock_shard(lpa);
                    self.cache_fill(&mut shard, lpa, page, true, cmd.done_ns)
                }
            };
            match waited {
                Ok(wait) => cmd.done_ns += wait,
                Err(e) => {
                    status = Err(e);
                    break;
                }
            }
        }
        self.stats.trace().emit(
            crate::trace::TraceKind::BlockSubmit,
            pages.len() as u64,
            cmd.done_ns,
        );
        (status, cmd)
    }

    /// Marks blocks as unused (TRIM). The FS calls this when freeing data
    /// blocks so the FTL stops relocating dead data.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn trim(&self, lba: u64, count: usize) {
        let cost = self.exec_trim(lba, count);
        self.stats.record_queue_op(crate::queue::ambient_queue(), cost);
    }

    /// Executor behind [`Mssd::trim`], shared with the batched queue path.
    /// TRIM charges no host-visible latency; returns 0.
    pub(crate) fn exec_trim(&self, lba: u64, count: usize) -> u64 {
        assert_in_capacity("trim", lba, count, self.logical_pages());
        if self.cfg.fault.is_cut() {
            return 0; // power off: the TRIM never reaches the device
        }
        for i in 0..count as u64 {
            let lpa = lba + i;
            match self.mode {
                DramMode::WriteLog => {
                    self.log.invalidate_page_and(lpa, || self.flash.trim(lpa));
                }
                DramMode::PageCache => {
                    self.cache.discard(lpa);
                    self.flash.trim(lpa);
                }
            }
        }
        0
    }

    /// NVMe FLUSH: makes all acknowledged block writes durable on flash.
    /// Block-interface file systems call this on `fsync`.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadOnly`] when buffered pages can no longer be
    /// programmed because the device degraded; they stay in the
    /// battery-backed buffer.
    pub fn try_flush(&self) -> Result<(), FlashError> {
        let (status, cost) = self.exec_flush();
        self.stats.record_queue_op(crate::queue::ambient_queue(), cost);
        status
    }

    /// Executor behind [`Mssd::try_flush`], shared with the batched queue path;
    /// returns the command status and the charged virtual cost.
    pub(crate) fn exec_flush(&self) -> (Result<(), FlashError>, u64) {
        if self.cfg.fault.is_cut() {
            return (Ok(()), 0); // power off: the FLUSH command never executes
        }
        let start = self.clock.now_ns();
        let mut cost = 0;
        let mut status = Ok(());
        if self.mode == DramMode::PageCache {
            for (lpa, page) in self.cache.drain_dirty() {
                match self.flash.buffer_write_on(lpa, page, &self.stats, Some(start + cost)) {
                    Ok(ns) => cost += ns,
                    // Keep draining so every page that still fits is
                    // accepted; report the first failure.
                    Err(e) if status.is_ok() => status = Err(e),
                    Err(_) => {}
                }
            }
        }
        match self.flash.flush_all(&self.stats, Some(start + cost)) {
            Ok(ns) => cost += ns,
            Err(e) if status.is_ok() => status = Err(e),
            Err(_) => {}
        }
        cost += self.cfg.nvme_overhead_ns;
        self.charge(cost);
        (status, cost)
    }

    // ------------------------------------------------------------------
    // Transactions and recovery (WriteLog mode)
    // ------------------------------------------------------------------

    /// Custom NVMe command `COMMIT(TxID)`: appends a commit record to the
    /// firmware TxLog. Transactional byte writes become durable (redo-able)
    /// once their TxID is committed. The synchronous form:
    /// [`Mssd::submit_commit`] behind nothing, then [`Mssd::wait`].
    ///
    /// # Panics
    ///
    /// Panics if the device is not in [`DramMode::WriteLog`].
    pub fn commit(&self, txid: TxId) {
        let cmd = self.submit_commit(txid, InFlight::default());
        self.wait(cmd);
    }

    /// Submits `COMMIT(TxID)` without waiting for it, ordered inside the
    /// device behind `after` — the block writes of the transaction that are
    /// still in flight: the firmware holds the record until they are in
    /// device DRAM, so the host need not wait for them first. The record is
    /// in the TxLog when this returns (fault step and counters are those of
    /// [`Mssd::commit`]), the clock has not moved, and the transaction counts
    /// as durable for the host once it has handed the returned [`InFlight`]
    /// to [`Mssd::wait`] (`DESIGN-time.md`, rule 4 of "The link's timeline").
    ///
    /// # Panics
    ///
    /// As [`Mssd::commit`].
    pub fn submit_commit(&self, txid: TxId, after: InFlight) -> InFlight {
        let submitted = self.clock.now_ns();
        let cmd = self.exec_commit(txid, after);
        self.stats
            .record_queue_op(crate::queue::ambient_queue(), cmd.done_ns.saturating_sub(submitted));
        cmd
    }

    /// The one COMMIT executor, shared by the submitting calls and the
    /// batched queue path; returns the record's completion. Nothing is
    /// charged here: the caller waits, now or later.
    ///
    /// The fixed overhead pipelines like a block write's; the record
    /// completes no earlier than `after`; and a TxLog-full clean is evaluated
    /// from that point, not at the submitter's clock.
    pub(crate) fn exec_commit(&self, txid: TxId, after: InFlight) -> InFlight {
        assert_eq!(self.mode, DramMode::WriteLog, "COMMIT requires the write-log firmware");
        // One counted fault step: a cut exactly here loses the commit record
        // — the transaction's log entries survive in battery-backed DRAM but
        // recovery discards them (the §4.7 contract).
        if !self.cfg.fault.step(FaultKind::TxCommit) {
            return InFlight::default();
        }
        let submitted = self.clock.now_ns();
        let mut cmd =
            InFlight { done_ns: after.done_ns.max(submitted + self.cfg.nvme_overhead_ns) };
        // Concurrent committers can refill the TxLog between our cleaning
        // pass (which clears it) and the retry, so loop rather than assume
        // one retry suffices; dropping a commit record would silently lose
        // the transaction at recovery.
        let mut attempts = 0;
        while !self.txlog.lock().commit(txid) {
            // TxLog full: a stop-the-world clean propagates every committed
            // entry to flash, after which the TxLog can be cleared.
            cmd.done_ns += self.clean_all(Some(cmd.done_ns));
            attempts += 1;
            assert!(attempts < 64, "TxLog still full after repeated cleaning");
        }
        self.stats.inc_tx_commits(txid, cmd.done_ns);
        cmd
    }

    /// Whether a transaction has a commit record in the firmware TxLog.
    pub fn is_committed(&self, txid: TxId) -> bool {
        self.txlog.lock().is_committed(txid)
    }

    /// Forces a full log-cleaning pass in the foreground (used by unmount and
    /// by tests). Charges the cleaning latency.
    pub fn force_clean(&self) {
        let cost = self.clean_all(Some(self.clock.now_ns()));
        self.charge(cost);
    }

    /// Seals every log shard's active region without draining it, as the
    /// background cleaner does before a pass. Exposed so crash tests can
    /// exercise recovery with sealed-but-undrained regions.
    pub fn seal_log_regions(&self) {
        self.log.seal_all();
        self.stats.trace().emit(crate::trace::TraceKind::LogSeal, 0, 0);
    }

    /// Blocks until the background cleaner is idle with no pending work.
    /// No-op when background cleaning is disabled.
    pub fn quiesce_cleaning(&self) {
        let Some(cl) = &self.cleaner else { return };
        let mut st = cl.shared.state.lock().expect("cleaner state lock");
        while st.busy || st.pending {
            st = cl.shared.idle.wait(st).expect("cleaner idle wait");
        }
    }

    /// Simulates a power failure. Device DRAM (write log, TxLog, device cache)
    /// is battery-backed, so nothing device-side is lost; only the host loses
    /// its volatile state. The FTL write buffer is flushed by the
    /// battery-backed capacitor logic, mirroring real SSD behaviour.
    pub fn crash(&self) {
        if self.mode == DramMode::PageCache {
            for (lpa, page) in self.cache.drain_dirty() {
                // Best effort: a degraded device simply keeps the page in
                // battery-backed DRAM (captured by the crash image anyway).
                let _ = self.flash.buffer_write(lpa, page, &self.stats);
            }
        }
        let _ = self.flash.flush_all(&self.stats, None);
        // No time is charged: the host is down during the power loss, and
        // whatever the array was still programming, and whatever was still
        // crossing the link, is done or gone when it is back.
        self.flash.reset_nand_timeline();
        self.link_busy_until.store(0, Ordering::Relaxed);
    }

    /// Custom NVMe command `RECOVER()`: scans the write log (sealed and
    /// active regions), discards uncommitted entries, flushes committed
    /// entries to flash and clears the log (§4.7).
    pub fn recover(&self) -> RecoveryReport {
        if self.cfg.fault.is_cut() {
            // Power is off; recovery runs on the restored device instead
            // (see `Mssd::from_crash_image`).
            return RecoveryReport {
                scanned_entries: 0,
                discarded_entries: 0,
                flushed_pages: 0,
                duration_ns: 0,
            };
        }
        // Recovery replay must not draw fail-slow faults: the commands it
        // replays already happened, and a hang drawn here would perturb the
        // plan's deterministic group ordinals (same rationale as the media
        // plan's suspension during the FTL rebuild).
        self.cfg.hang.suspend();
        // Recovery is a stop-the-world command: every log shard, then the
        // TxLog, then the flash channels — the global lock order.
        let mut all = self.log.lock_all();
        let mut txlog = self.txlog.lock();
        let start = self.clock.now_ns();
        let scanned = self.log.entries();
        // Loading the device DRAM image + scanning every entry.
        let mut cost = self.cfg.transfer_ns(self.cfg.dram_region_bytes, true);
        cost += scanned as u64 * 120;

        let flash_writes_before = self.stats.flash_writes_total();
        // Recovery semantics: uncommitted entries are discarded, so every
        // committed chunk merges (seq order settles overlaps).
        let batch = all.drain_discarding(|tx| txlog.is_committed(tx));
        let discarded = batch.migrated.len();
        let mut scratch = Vec::new();
        let mut flush_cost = 0;
        for (lpa, chunks) in &batch.pages {
            flush_cost += apply_chunks_to_flash(
                &self.cfg,
                &self.flash,
                &self.stats,
                *lpa,
                chunks,
                Some(start + cost + flush_cost),
                &mut scratch,
            );
        }
        // A device that degraded to read-only mid-recovery keeps the merged
        // pages in the battery-backed buffer; nothing is lost.
        if let Ok(ns) = self.flash.flush_all(&self.stats, Some(start + cost + flush_cost)) {
            flush_cost += ns;
        }
        txlog.clear();
        self.stats.inc_log_cleanings();
        cost += flush_cost;

        let flushed_pages = self.stats.flash_writes_total() - flash_writes_before;
        drop(txlog);
        drop(all);
        self.cfg.hang.resume();
        self.charge(cost);
        RecoveryReport {
            scanned_entries: scanned,
            discarded_entries: discarded,
            flushed_pages: flushed_pages as usize,
            duration_ns: self.clock.now_ns() - start,
        }
    }

    // ------------------------------------------------------------------
    // Power-failure injection and crash imaging (crashkit)
    // ------------------------------------------------------------------

    /// The fault-injection plan this device runs under (disabled by
    /// default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.cfg.fault
    }

    /// `true` once the installed fault plan has cut power: every durable
    /// mutation from that instant on was denied. Crash-test drivers poll
    /// this at op boundaries to stop their workload.
    pub fn fault_tripped(&self) -> bool {
        self.cfg.fault.is_cut()
    }

    /// Captures the device's durable state — everything that survives a
    /// power failure: NAND contents (logical view), the battery-backed FTL
    /// write buffer, the write log, the TxLog and the device page cache's
    /// dirty pages. Restore it into a fresh device with
    /// [`Mssd::from_crash_image`] to model the power coming back, possibly
    /// under a different firmware configuration.
    ///
    /// The image is deterministic (all collections sorted), so
    /// `crash_image().digest()` pins a crash state for reproduction tests.
    /// Call at a quiescent point; the background cleaner is quiesced first.
    pub fn crash_image(&self) -> CrashImage {
        self.quiesce_cleaning();
        let (log_entries, log_seq) = self.log.export_entries();
        let txlog = self.txlog.lock().commit_order().to_vec();
        let (flash_pages, buffered_pages) = self.flash.export_logical();
        let cache_pages = self.cache.export_dirty();
        CrashImage {
            mode: self.mode,
            log_entries,
            log_seq,
            txlog,
            flash_pages,
            buffered_pages,
            cache_pages,
            bad_blocks: self.flash.bad_blocks(),
        }
    }

    /// Builds a powered-on device holding the durable state of a crash
    /// image: NAND pages are re-programmed, buffered pages re-enter the
    /// battery-backed write buffer (real SSDs flush them from capacitor
    /// power; keeping them buffered is equivalent and lets checkers observe
    /// the pre-flush state), log entries and TxLog records are restored
    /// verbatim. The new configuration may differ in firmware policy (e.g.
    /// `background_cleaning`), which is how crashkit verifies that recovery
    /// does not depend on the cleaning mode.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid, if the mode disagrees with the image, or
    /// if the image does not fit the configured geometry.
    pub fn from_crash_image(cfg: MssdConfig, mode: DramMode, image: &CrashImage) -> Arc<Self> {
        assert_eq!(mode, image.mode, "crash image was taken in a different DRAM mode");
        let dev = Self::with_clock(cfg, mode, Clock::new());
        // Bad blocks first: the restored FTL must never place restored pages
        // (or its active blocks) on a block that failed a program or erase.
        dev.flash.restore_bad_blocks(&image.bad_blocks);
        // Each restored bad block consumed a spare: publish the new level.
        dev.stats.set_ras_spares_remaining(dev.flash.spares_remaining() as u64);
        dev.flash.restore_logical(&image.flash_pages, &image.buffered_pages);
        dev.log.restore_entries(&image.log_entries, image.log_seq);
        {
            let mut txlog = dev.txlog.lock();
            for tx in &image.txlog {
                assert!(txlog.commit(*tx), "restored TxLog overflows the configured txlog_bytes");
            }
        }
        dev.cache.restore_dirty(&image.cache_pages);
        dev.reset_stats();
        dev
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot of traffic counters and firmware state.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            traffic: self.stats.snapshot(),
            now_ns: self.clock.now_ns(),
            log_used_bytes: self.log.used_bytes(),
            log_entries: self.log.entries(),
            cache_dirty_pages: self.cache.dirty_pages(),
        }
    }

    /// Current traffic counters (convenience wrapper over [`Mssd::snapshot`]).
    pub fn traffic(&self) -> TrafficCounter {
        self.stats.snapshot()
    }

    /// Resets the traffic counters (the clock keeps running). Gauges keep
    /// their level, see [`AtomicTraffic::reset`].
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// `true` once the device has degraded to read-only because a channel
    /// exhausted its spare blocks. Writes return [`FlashError::ReadOnly`];
    /// reads keep working.
    pub fn is_read_only(&self) -> bool {
        self.flash.is_read_only()
    }

    /// The device's current bad-block table (sorted), as persisted in a
    /// [`CrashImage`].
    pub fn bad_blocks(&self) -> Vec<BlockId> {
        self.flash.bad_blocks()
    }

    /// Structural invariant check of the flash path (see
    /// [`ShardedFtl::check_consistency`]); crashkit checkers run this after
    /// every restore + recovery. Only meaningful at a quiescent point.
    pub fn check_consistency(&self) -> Vec<String> {
        self.flash.check_consistency()
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Wakes the background cleaner. Returns `false` when there is none
    /// (background cleaning disabled or baseline mode).
    fn kick_cleaner(&self) -> bool {
        let Some(cl) = &self.cleaner else { return false };
        // Fast path: a kick is already in flight — whoever set the flag will
        // (or did) take the mutex and notify; piling on would re-serialize
        // every writer on the signalling lock.
        if cl.shared.kick_pending.swap(true, Ordering::Relaxed) {
            return true;
        }
        cl.shared.state.lock().expect("cleaner state lock").pending = true;
        cl.shared.kick.notify_all();
        true
    }

    /// Appends one chunk to the sharded write log for a command at virtual
    /// time `now`. When space admission fails the writer reclaims in the
    /// foreground. Returns the foreground cost.
    fn log_append(
        &self,
        lpa: Lpa,
        offset: usize,
        data: &[u8],
        txid: Option<TxId>,
        now: u64,
    ) -> u64 {
        let mut cost = 0;
        // Under concurrency other writers may re-fill the freed space between
        // our reclaim and the retry, so loop; a bounded number of attempts
        // distinguishes contention from an entry that can never fit.
        for _ in 0..64 {
            if self.cfg.fault.is_cut() {
                return cost; // power died during a reclaim: the append is lost
            }
            match self.log.append(lpa, offset, data, txid) {
                Ok(()) => return cost,
                Err(_) => cost += self.reclaim_space(now + cost),
            }
        }
        panic!("write-log entry of {} bytes cannot fit even after cleaning", data.len());
    }

    /// Foreground fallback when log space admission fails: seal everything
    /// and drain sealed pages (the same incremental path the background
    /// cleaner uses, so both can work different shards concurrently),
    /// charging the merge cost to the stalled writer. Falls back to a full
    /// stop-the-world pass only when nothing sealed is drainable.
    fn reclaim_space(&self, now: u64) -> u64 {
        self.stats.inc_log_fg_stalls();
        self.kick_cleaner();
        self.log.seal_all();
        self.stats.trace().emit(crate::trace::TraceKind::LogSeal, 0, 0);
        let before = self.log.used_bytes();
        // Free a meaningful fraction of the region per stall so admission
        // retries do not immediately stall again.
        let target = (self.cfg.dram_region_bytes / 8).max(1);
        let mut cost = 0;
        let mut merged_chunks = 0usize;
        let mut scratch = Vec::new();
        'shards: for shard in 0..LOG_SHARDS {
            loop {
                let step = drain_sealed_shard(
                    &self.cfg,
                    &self.log,
                    &self.flash,
                    &self.txlog,
                    &self.stats,
                    shard,
                    CLEANER_PAGES_PER_STEP,
                    Some(now + cost),
                    &mut scratch,
                );
                cost += step.cost;
                merged_chunks += step.chunks;
                if step.pages == 0 {
                    break;
                }
                if before.saturating_sub(self.log.used_bytes()) >= target {
                    break 'shards;
                }
            }
        }
        if merged_chunks > 0 {
            // A cleaning pass ends by programming the merged pages
            // (Algorithm 1): flush the FTL write buffer. On a degraded
            // device the pages stay safely buffered.
            if let Ok(ns) = self.flash.flush_all(&self.stats, Some(now + cost)) {
                cost += ns;
            }
            self.stats.inc_log_cleanings();
        } else {
            // Nothing drained freed any space (everything sealed was
            // uncommitted and merely migrated, or other reclaimers got there
            // first): stop-the-world.
            cost += self.clean_all(Some(now + cost));
        }
        cost
    }

    /// Full stop-the-world log-cleaning pass: locks every shard, drains both
    /// regions, merges committed entries into flash, reinstates uncommitted
    /// ones and clears the TxLog — all before releasing the shard locks, so
    /// no reader can observe entries that are in neither the log nor flash,
    /// and no commit record for post-drain appends can be lost.
    ///
    /// Returns what a caller at virtual time `now` is charged. Without a time
    /// the flash work is recorded in the traffic counters but stays off the
    /// clock (the inline fallback when the background cleaner is disabled,
    /// which discards the result).
    fn clean_all(&self, now: Option<u64>) -> u64 {
        if self.cfg.fault.is_cut() {
            return 0; // power off: no cleaning pass starts
        }
        let mut all = self.log.lock_all();
        let mut txlog = self.txlog.lock();
        let batch = all.drain(|tx| txlog.is_committed(tx));
        if batch.pages.is_empty() && batch.migrated.is_empty() {
            // The log is empty, so no commit record is still needed: clearing
            // here lets a full TxLog make progress even when the background
            // cleaner (which never clears it) already drained the log.
            txlog.clear();
            return 0;
        }
        let mut cost = 0;
        let mut scratch = Vec::new();
        for (lpa, chunks) in &batch.pages {
            cost += apply_chunks_to_flash(
                &self.cfg,
                &self.flash,
                &self.stats,
                *lpa,
                chunks,
                now.map(|now| now + cost),
                &mut scratch,
            );
        }
        if let Ok(ns) = self.flash.flush_all(&self.stats, now.map(|now| now + cost)) {
            cost += ns;
        }
        all.reinstate(batch.migrated);
        txlog.clear();
        self.stats.inc_log_cleanings();
        cost
    }

    /// Serves a byte-interface write chunk from the sharded device cache
    /// (baseline mode) for a command at virtual time `now`, filling from
    /// flash on a miss. The whole sequence runs under the page's cache-shard
    /// lock.
    fn cache_write_chunk(
        &self,
        lpa: Lpa,
        offset: usize,
        chunk: &[u8],
        now: u64,
    ) -> Result<u64, FlashError> {
        let mut cost = 0;
        let mut shard = self.cache.lock_shard(lpa);
        if !shard.modify(lpa, offset, chunk) {
            // Miss: fetch the backing page, apply the modification, cache it.
            let (mut page, ns) = self.read_flash(lpa, now)?;
            cost += ns;
            page[offset..offset + chunk.len()].copy_from_slice(chunk);
            cost += self.cache_fill(&mut shard, lpa, page, true, now + cost)?;
        }
        Ok(cost)
    }

    /// Inserts a page into a locked cache shard for a command at virtual time
    /// `now`, writing evicted dirty victims through to the FTL (cache shard →
    /// flash channel lock order). Returns the command's wait for
    /// write-buffer slots.
    fn cache_fill(
        &self,
        shard: &mut DramPageCache,
        lpa: Lpa,
        page: Vec<u8>,
        dirty: bool,
        now: u64,
    ) -> Result<u64, FlashError> {
        let mut cost = 0;
        for (victim, data) in shard.insert(lpa, page, dirty) {
            cost += self.flash.buffer_write_on(victim, data, &self.stats, Some(now + cost))?;
        }
        Ok(cost)
    }

    /// A host command's flash read at virtual time `now`: the page and its
    /// latency. The read does not wait for the NAND array's backlog; it
    /// delays it.
    fn read_flash(&self, lpa: Lpa, now: u64) -> Result<(Vec<u8>, u64), FlashError> {
        let (page, ns) = self.flash.read_page(lpa, &self.stats, false)?;
        self.flash.delay_nand_backlog(Some(now), ns);
        Ok((page, ns))
    }
}

impl Drop for Mssd {
    fn drop(&mut self) {
        if let Some(mut cl) = self.cleaner.take() {
            cl.shared.state.lock().expect("cleaner state lock").shutdown = true;
            cl.shared.kick.notify_all();
            if let Some(thread) = cl.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// The capacity guard of every addressed command: `[start, start + len)` must
/// lie inside `limit` (bytes or pages, as `op` addresses), where the sum is
/// checked — a wrapped end address must not pass as a small one.
fn assert_in_capacity(op: &str, start: u64, len: usize, limit: u64) {
    assert!(
        start.checked_add(len as u64).is_some_and(|end| end <= limit),
        "{op} beyond device capacity"
    );
}

/// The flat-buffer view of a scatter-gather read for callers that want one
/// `Vec<u8>`: a single page is handed over as it is, longer runs are
/// concatenated.
pub(crate) fn flatten_pages(mut pages: Vec<Vec<u8>>) -> Vec<u8> {
    if pages.len() == 1 {
        return pages.pop().expect("length checked");
    }
    pages.concat()
}

/// One incremental cleaning step: drains up to `max_pages` pages of a
/// shard's sealed region, merging committed chunks into flash while the
/// shard lock is held (lock order: shard → txlog → channel → stripe).
/// Shared by the background cleaner thread (`now` is `None`: off the clock)
/// and the foreground stall path (its virtual time).
#[allow(clippy::too_many_arguments)]
fn drain_sealed_shard(
    cfg: &MssdConfig,
    log: &ShardedWriteLog,
    flash: &ShardedFtl,
    txlog: &Mutex<TxLog>,
    stats: &AtomicTraffic,
    shard: usize,
    max_pages: usize,
    now: Option<u64>,
    scratch: &mut Vec<(usize, usize)>,
) -> SealedStep {
    let mut at = now;
    log.drain_sealed_step(
        shard,
        max_pages,
        // One TxLog snapshot per step, taken after the shard lock (shard →
        // txlog order) and held for the whole step: every chunk of a page
        // must see the same commit verdicts (see drain_sealed_step docs).
        || {
            let guard = txlog.lock();
            move |tx: TxId| guard.is_committed(tx)
        },
        |lpa, chunks| {
            let ns = apply_chunks_to_flash(cfg, flash, stats, lpa, chunks, at, scratch);
            at = at.map(|at| at + ns);
            ns
        },
    )
}

/// Read-modify-write of one flash page from a set of committed log chunks
/// (Algorithm 1, lines 3-11). Returns the foreground cost for a caller at
/// virtual time `now` (`None`: off the clock). `scratch` is a range buffer
/// reused across the pages of a cleaning batch.
fn apply_chunks_to_flash(
    cfg: &MssdConfig,
    flash: &ShardedFtl,
    stats: &AtomicTraffic,
    lpa: Lpa,
    chunks: &[ChunkEntry],
    now: Option<u64>,
    scratch: &mut Vec<(usize, usize)>,
) -> u64 {
    let mut cost = 0;
    let partial = !chunks_cover_full_page(chunks, cfg.page_size, scratch);
    let mut page = if partial && flash.is_mapped(lpa) {
        // The cleaner's internal read-modify-write runs with media-fault
        // injection suspended: it is not a host-visible read path, and an
        // injected transient here would silently zero the unmerged
        // remainder of the page instead of surfacing as a typed error.
        cfg.media.suspend();
        let fetched = flash.read_page(lpa, stats, true);
        cfg.media.resume();
        match fetched {
            Ok((page, ns)) => {
                flash.delay_nand_backlog(now, ns);
                cost += ns;
                page
            }
            Err(_) => vec![0u8; cfg.page_size],
        }
    } else {
        vec![0u8; cfg.page_size]
    };
    for c in chunks {
        page[c.offset..c.end()].copy_from_slice(&c.data);
    }
    // A device that degraded to read-only mid-pass drops the merged page;
    // its chunks were drained already, matching the device's degraded
    // write-refusal semantics.
    if let Ok(ns) = flash.buffer_write_on(lpa, page, stats, now.map(|now| now + cost)) {
        cost += ns;
    }
    cost
}

/// Whether the chunks fully cover `[0, page_size)`, deciding if the cleaner
/// can skip the read half of the read-modify-write.
///
/// Single pass for the common cases (one whole-page chunk, or chunks already
/// in ascending offset order); only out-of-order chunk lists fall back to
/// sorting ranges — in `scratch`, which the caller reuses across the whole
/// batch, so no per-page allocation either way.
fn chunks_cover_full_page(
    chunks: &[ChunkEntry],
    page_size: usize,
    scratch: &mut Vec<(usize, usize)>,
) -> bool {
    let mut covered_to = 0usize;
    let mut in_order = true;
    for c in chunks {
        if c.offset == 0 && c.data.len() >= page_size {
            return true;
        }
        if c.offset <= covered_to {
            covered_to = covered_to.max(c.end());
        } else {
            in_order = false;
            break;
        }
    }
    if in_order {
        return covered_to >= page_size;
    }
    scratch.clear();
    scratch.extend(chunks.iter().map(|c| (c.offset, c.end())));
    scratch.sort_unstable();
    let mut covered_to = 0usize;
    for &(start, end) in scratch.iter() {
        if start > covered_to {
            return false;
        }
        covered_to = covered_to.max(end);
    }
    covered_to >= page_size
}

/// Body of the background cleaner thread: wait for a kick, then seal and
/// drain until the log is back under control, holding only one shard lock at
/// a time. The flash work it performs is recorded in the traffic counters
/// but charged to nobody — the paper's double-buffered cleaning keeps it off
/// the host's critical path.
fn cleaner_main(ctx: CleanerCtx) {
    let mut scratch: Vec<(usize, usize)> = Vec::new();
    loop {
        {
            let mut st = ctx.shared.state.lock().expect("cleaner state lock");
            while !st.pending && !st.shutdown {
                st = ctx.shared.kick.wait(st).expect("cleaner kick wait");
            }
            if st.shutdown {
                return;
            }
            st.pending = false;
            st.busy = true;
            // Under the state mutex, so a writer's swap(true)+lock+set
            // sequence can never be consumed-and-cleared half way.
            ctx.shared.kick_pending.store(false, Ordering::Relaxed);
        }
        let mut merged_pages = 0u64;
        loop {
            if ctx.shared.state.lock().expect("cleaner state lock").shutdown {
                break;
            }
            // A degraded (read-only) device cannot program merged pages;
            // leave the log entries where they are — they stay readable and
            // battery-backed.
            if ctx.flash.is_read_only() {
                break;
            }
            if ctx.log.needs_cleaning() {
                ctx.log.seal_all();
                ctx.stats.trace().emit(crate::trace::TraceKind::LogSeal, 0, 0);
            }
            // Progress means committed chunks were merged (log space freed).
            // Sweeps that only migrate uncommitted chunks back to the active
            // region free nothing, and repeating them would spin the cleaner
            // at 100% CPU until the host commits — break and wait for the
            // next kick instead.
            let mut progressed = false;
            for shard in 0..LOG_SHARDS {
                let step = drain_sealed_shard(
                    &ctx.cfg,
                    &ctx.log,
                    &ctx.flash,
                    &ctx.txlog,
                    &ctx.stats,
                    shard,
                    CLEANER_PAGES_PER_STEP,
                    None,
                    &mut scratch,
                );
                if step.chunks > 0 {
                    progressed = true;
                    merged_pages += step.merged_pages as u64;
                }
            }
            if !progressed {
                break;
            }
        }
        if merged_pages > 0 {
            // End of pass: program the merged pages (Algorithm 1). The cost
            // is discarded — background cleaning is off the critical path.
            let _ = ctx.flash.flush_all(&ctx.stats, None);
            ctx.stats.add_log_bg_cleaned_pages(merged_pages);
            ctx.stats.inc_log_cleanings();
        }
        let mut st = ctx.shared.state.lock().expect("cleaner state lock");
        st.busy = false;
        ctx.shared.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(mode: DramMode) -> Arc<Mssd> {
        Mssd::new(MssdConfig::small_test(), mode)
    }

    #[test]
    fn byte_write_read_roundtrip_writelog() {
        let d = dev(DramMode::WriteLog);
        d.try_byte_write(4096 + 128, &[0xAAu8; 64], None, Category::Inode).unwrap();
        let back = d.try_byte_read(4096 + 128, 64, Category::Inode).unwrap();
        assert_eq!(back, vec![0xAA; 64]);
        let snap = d.snapshot();
        assert!(snap.log_entries >= 1);
        assert_eq!(snap.traffic.host_bytes_by_category(Direction::Write, Category::Inode), 64);
    }

    #[test]
    fn byte_write_read_roundtrip_pagecache() {
        let d = dev(DramMode::PageCache);
        d.try_byte_write(8192 + 64, &[0x5Au8; 128], None, Category::Dentry).unwrap();
        let back = d.try_byte_read(8192 + 64, 128, Category::Dentry).unwrap();
        assert_eq!(back, vec![0x5A; 128]);
        assert_eq!(d.snapshot().log_entries, 0, "page-cache mode must not use the log");
    }

    #[test]
    fn byte_write_across_page_boundary() {
        let d = dev(DramMode::WriteLog);
        let addr = 4096 - 32;
        let data: Vec<u8> = (0..64u8).collect();
        d.try_byte_write(addr, &data, None, Category::Data).unwrap();
        assert_eq!(d.try_byte_read(addr, 64, Category::Data).unwrap(), data);
    }

    #[test]
    fn block_write_then_block_read() {
        let d = dev(DramMode::WriteLog);
        let page = vec![7u8; 4096];
        d.try_block_write(3, &page, Category::Data).unwrap();
        let back = d.try_block_read(3, 1, Category::Data).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn block_read_merges_log_entries() {
        let d = dev(DramMode::WriteLog);
        let page = vec![1u8; 4096];
        d.try_block_write(5, &page, Category::Data).unwrap();
        d.try_flush().unwrap();
        // Byte-granular update of 64 bytes at offset 256 of block 5.
        d.try_byte_write(5 * 4096 + 256, &[9u8; 64], None, Category::Data).unwrap();
        let back = d.try_block_read(5, 1, Category::Data).unwrap();
        assert_eq!(&back[..256], &vec![1u8; 256][..]);
        assert_eq!(&back[256..320], &[9u8; 64][..]);
        assert_eq!(&back[320..], &vec![1u8; 4096 - 320][..]);
    }

    #[test]
    fn block_write_invalidates_stale_log_entries() {
        let d = dev(DramMode::WriteLog);
        d.try_byte_write(7 * 4096, &[3u8; 64], None, Category::Data).unwrap();
        assert!(d.snapshot().log_entries >= 1);
        d.try_block_write(7, &vec![8u8; 4096], Category::Data).unwrap();
        assert_eq!(d.snapshot().log_entries, 0);
        assert_eq!(d.try_block_read(7, 1, Category::Data).unwrap(), vec![8u8; 4096]);
    }

    #[test]
    fn transactional_write_durable_only_after_commit() {
        let d = dev(DramMode::WriteLog);
        let tx_committed = TxId(1);
        let tx_lost = TxId(2);
        d.try_byte_write(4096, &[0xC0u8; 64], Some(tx_committed), Category::Inode).unwrap();
        d.try_byte_write(8192, &[0xDDu8; 64], Some(tx_lost), Category::Inode).unwrap();
        d.commit(tx_committed);
        d.crash();
        let report = d.recover();
        assert_eq!(report.discarded_entries, 1);
        assert!(report.flushed_pages >= 1);
        assert!(report.duration_ns > 0);
        // The committed write survived, the uncommitted one reads as zero.
        assert_eq!(d.try_byte_read(4096, 64, Category::Inode).unwrap(), vec![0xC0; 64]);
        assert_eq!(d.try_byte_read(8192, 64, Category::Inode).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn clock_advances_with_latency_model() {
        let d = dev(DramMode::WriteLog);
        let t0 = d.clock().now_ns();
        d.try_byte_write(0, &[1u8; 64], None, Category::Bitmap).unwrap();
        let t1 = d.clock().now_ns();
        assert!(t1 - t0 >= d.config().byte_write_ns);
        d.try_byte_read(0, 64, Category::Bitmap).unwrap();
        let t2 = d.clock().now_ns();
        assert!(t2 - t1 >= d.config().byte_read_ns);
        // Block read of an unmapped page: no flash access, just transfer+overhead.
        d.try_block_read(100, 1, Category::Data).unwrap();
        let t3 = d.clock().now_ns();
        assert!(t3 - t2 >= d.config().nvme_overhead_ns);
    }

    #[test]
    fn flush_makes_buffered_block_writes_durable() {
        let d = dev(DramMode::WriteLog);
        d.try_block_write(0, &vec![4u8; 4096], Category::Journal).unwrap();
        let before = d.traffic().flash_write_pages;
        d.try_flush().unwrap();
        let after = d.traffic().flash_write_pages;
        assert!(after > before, "flush must program buffered pages");
    }

    #[test]
    fn pagecache_mode_flush_writes_dirty_pages() {
        let d = dev(DramMode::PageCache);
        d.try_block_write(1, &vec![2u8; 4096], Category::Data).unwrap();
        assert!(d.snapshot().cache_dirty_pages >= 1);
        d.try_flush().unwrap();
        assert_eq!(d.snapshot().cache_dirty_pages, 0);
        assert!(d.traffic().flash_write_pages >= 1);
    }

    #[test]
    fn log_overflow_triggers_cleaning() {
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 16 << 10; // tiny 16 KB log
        let d = Mssd::new(cfg, DramMode::WriteLog);
        // Write far more than the log holds.
        for i in 0..1000u64 {
            d.try_byte_write((i % 512) * 64, &[i as u8; 64], None, Category::Data).unwrap();
        }
        d.quiesce_cleaning();
        let t = d.traffic();
        assert!(t.log_cleanings > 0, "cleaning should have run");
        assert!(t.flash_write_pages + t.flash_internal_write_pages > 0);
    }

    #[test]
    fn background_cleaner_drains_without_foreground_help() {
        // A log big enough that no append ever fails admission, with writes
        // that cross the threshold: only the background cleaner can have
        // drained it.
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 64 << 10;
        cfg.log_clean_threshold = 0.3;
        let d = Mssd::new(cfg, DramMode::WriteLog);
        for i in 0..300u64 {
            d.try_byte_write((i % 256) * 64, &[i as u8; 64], None, Category::Data).unwrap();
        }
        d.quiesce_cleaning();
        let t = d.traffic();
        assert!(t.log_cleanings > 0, "background cleaner should have run");
        assert!(t.log_bg_cleaned_pages > 0, "chunks should be merged in the background");
        // Every slot still reads back its last-written value.
        for slot in 0..256u64 {
            let last = slot + ((300 - 1 - slot) / 256) * 256; // last i with i%256==slot
            let got = d.try_byte_read(slot * 64, 64, Category::Data).unwrap();
            assert_eq!(got, vec![last as u8; 64], "slot {slot}");
        }
    }

    #[test]
    fn inline_cleaning_when_background_disabled() {
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 16 << 10;
        cfg.background_cleaning = false;
        let d = Mssd::new(cfg, DramMode::WriteLog);
        for i in 0..1000u64 {
            d.try_byte_write((i % 512) * 64, &[i as u8; 64], None, Category::Data).unwrap();
        }
        let t = d.traffic();
        assert!(t.log_cleanings > 0, "inline stop-the-world cleaning should have run");
        // quiesce is a no-op without a cleaner thread.
        d.quiesce_cleaning();
    }

    #[test]
    fn sealed_regions_stay_readable_and_recoverable() {
        let d = dev(DramMode::WriteLog);
        let committed = TxId(5);
        let lost = TxId(6);
        d.try_byte_write(0, &[0x11u8; 64], Some(committed), Category::Data).unwrap();
        d.try_byte_write(4096, &[0x22u8; 64], Some(lost), Category::Data).unwrap();
        d.try_byte_write(8192, &[0x33u8; 64], None, Category::Data).unwrap();
        d.commit(committed);
        // Seal every shard: entries now live in sealed-but-undrained regions.
        d.seal_log_regions();
        assert!(d.snapshot().log_entries >= 3);
        // Reads merge sealed regions.
        assert_eq!(d.try_byte_read(0, 64, Category::Data).unwrap(), vec![0x11; 64]);
        assert_eq!(d.try_byte_read(8192, 64, Category::Data).unwrap(), vec![0x33; 64]);
        // New appends land in the fresh active region and overlay correctly.
        d.try_byte_write(0, &[0x44u8; 32], None, Category::Data).unwrap();
        let back = d.try_byte_read(0, 64, Category::Data).unwrap();
        assert_eq!(&back[..32], &[0x44u8; 32][..]);
        assert_eq!(&back[32..], &[0x11u8; 32][..]);
        // Crash with the sealed regions undrained: recovery flushes committed
        // entries (sealed and active) and discards the uncommitted one.
        d.crash();
        let report = d.recover();
        assert_eq!(report.discarded_entries, 1);
        assert_eq!(d.snapshot().log_entries, 0);
        let back = d.try_byte_read(0, 64, Category::Data).unwrap();
        assert_eq!(&back[..32], &[0x44u8; 32][..]);
        assert_eq!(&back[32..], &[0x11u8; 32][..]);
        assert_eq!(d.try_byte_read(4096, 64, Category::Data).unwrap(), vec![0u8; 64]);
        assert_eq!(d.try_byte_read(8192, 64, Category::Data).unwrap(), vec![0x33; 64]);
    }

    #[test]
    fn coordinated_caching_keeps_block_reads_out_of_device_dram() {
        let d = dev(DramMode::WriteLog);
        d.try_block_write(9, &vec![1u8; 4096], Category::Data).unwrap();
        d.try_flush().unwrap();
        d.try_block_read(9, 1, Category::Data).unwrap();
        let first = d.traffic().flash_read_pages;
        d.try_block_read(9, 1, Category::Data).unwrap();
        let second = d.traffic().flash_read_pages;
        assert_eq!(second, first + 1, "write-log firmware must not cache read pages");

        let d2 = dev(DramMode::PageCache);
        d2.try_block_write(9, &vec![1u8; 4096], Category::Data).unwrap();
        d2.try_flush().unwrap();
        d2.try_block_read(9, 1, Category::Data).unwrap();
        let first = d2.traffic().flash_read_pages;
        d2.try_block_read(9, 1, Category::Data).unwrap();
        let second = d2.traffic().flash_read_pages;
        assert_eq!(second, first, "page-cache firmware serves repeat reads from DRAM");
    }

    #[test]
    fn trim_drops_state_everywhere() {
        let d = dev(DramMode::WriteLog);
        d.try_block_write(11, &vec![6u8; 4096], Category::Data).unwrap();
        d.try_flush().unwrap();
        d.try_byte_write(11 * 4096, &[7u8; 64], None, Category::Data).unwrap();
        d.trim(11, 1);
        assert_eq!(d.try_block_read(11, 1, Category::Data).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn byte_write_out_of_range_panics() {
        let d = dev(DramMode::WriteLog);
        let cap = d.capacity_bytes();
        d.try_byte_write(cap - 10, &[0u8; 64], None, Category::Data).unwrap();
    }

    /// A range whose end wraps past `u64::MAX` is beyond capacity for every
    /// addressed executor, through the sync calls and through a queue: an
    /// unchecked sum wraps to a small end address in release builds and
    /// passes the guard, so the command would run against LPA 0 and up.
    #[test]
    fn wrapping_ranges_are_beyond_device_capacity() {
        use crate::{queue::Command, PAGE_SIZE};
        type Case = (&'static str, fn(&Arc<Mssd>));
        let cases: [Case; 7] = [
            ("byte_write", |d| {
                let _ = d.try_byte_write(u64::MAX - 63, &[7; 128], None, Category::Data);
            }),
            ("byte_read", |d| {
                let _ = d.try_byte_read(u64::MAX - 63, 128, Category::Data);
            }),
            ("block_read", |d| {
                let _ = d.try_block_read(u64::MAX, 2, Category::Data);
            }),
            ("block_write", |d| {
                let _ = d.try_block_write(u64::MAX, &[7; 2 * PAGE_SIZE], Category::Data);
            }),
            ("trim", |d| d.trim(u64::MAX - 1, 4)),
            ("trim past the last page", |d| d.trim(d.logical_pages() - 1, 2)),
            ("queued trim", |d| {
                let mut q = d.open_queue(4);
                q.submit(Command::Trim { lba: u64::MAX - 1, count: 4 }).expect("queue has room");
                q.ring_doorbell();
            }),
        ];
        for (name, case) in cases {
            let d = dev(DramMode::WriteLog);
            d.try_block_write(0, &[5u8; 2 * PAGE_SIZE], Category::Data).unwrap();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&d)))
                .expect_err(name);
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("beyond device capacity"), "{name}: panicked with {msg:?}");
            assert_eq!(
                d.try_block_read(0, 2, Category::Data).unwrap(),
                [5u8; 2 * PAGE_SIZE],
                "{name}"
            );
        }
    }

    #[test]
    fn late_commit_cannot_resurrect_over_newer_flash_merged_data() {
        // Found by the crashkit enumeration: an uncommitted chunk survives
        // cleaning while a newer committed chunk of the same page merges to
        // flash; once the older transaction commits, its log entry used to
        // overlay the newer flash bytes on reads. Cleaning now defers such
        // committed chunks until the older chunk resolves.
        let d = dev(DramMode::WriteLog);
        let tx = TxId(9);
        d.try_byte_write(0, &[49u8; 64], Some(tx), Category::Data).unwrap(); // older, uncommitted
        d.try_byte_write(0, &[89u8; 64], None, Category::Data).unwrap(); // newer, immediately committed
        d.force_clean();
        assert_eq!(
            d.try_byte_read(0, 64, Category::Data).unwrap(),
            vec![89u8; 64],
            "after cleaning"
        );
        d.commit(tx);
        assert_eq!(
            d.try_byte_read(0, 64, Category::Data).unwrap(),
            vec![89u8; 64],
            "a late commit must not resurrect overwritten bytes"
        );
        d.force_clean();
        assert_eq!(
            d.try_byte_read(0, 64, Category::Data).unwrap(),
            vec![89u8; 64],
            "after second cleaning"
        );
        d.crash();
        d.recover();
        assert_eq!(
            d.try_byte_read(0, 64, Category::Data).unwrap(),
            vec![89u8; 64],
            "after recovery"
        );
    }

    #[test]
    fn cleaning_clips_uncommitted_chunks_under_newer_committed_ranges() {
        // An uncommitted chunk partially overwritten by a newer committed
        // write: cleaning merges the committed bytes to flash and clips the
        // overlap off the surviving chunk, so its later commit exposes only
        // the bytes nothing newer touched.
        let d = dev(DramMode::WriteLog);
        let tx = TxId(5);
        d.try_byte_write(0, &[11u8; 128], Some(tx), Category::Data).unwrap(); // [0,128) uncommitted
        d.try_byte_write(64, &[22u8; 64], None, Category::Data).unwrap(); // [64,128) newer, committed
        d.force_clean();
        let back = d.try_byte_read(0, 128, Category::Data).unwrap();
        assert_eq!(&back[..64], &[11u8; 64][..], "unshadowed half still visible");
        assert_eq!(&back[64..], &[22u8; 64][..], "newer committed bytes merged");
        d.commit(tx);
        let back = d.try_byte_read(0, 128, Category::Data).unwrap();
        assert_eq!(&back[..64], &[11u8; 64][..]);
        assert_eq!(&back[64..], &[22u8; 64][..], "commit must not resurrect clipped bytes");
        d.crash();
        d.recover();
        let back = d.try_byte_read(0, 128, Category::Data).unwrap();
        assert_eq!(&back[..64], &[11u8; 64][..], "committed remainder survives recovery");
        assert_eq!(&back[64..], &[22u8; 64][..]);
    }

    #[test]
    fn a_stale_open_transaction_cannot_pin_the_log_full() {
        // Regression: one never-committed chunk plus sustained committed
        // traffic to the same page must keep cleaning productive (the
        // clipped survivor is bounded) instead of panicking on a log that
        // can never shrink.
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 8 << 10;
        cfg.background_cleaning = false;
        let d = Mssd::new(cfg, DramMode::WriteLog);
        d.try_byte_write(0, &[1u8; 64], Some(TxId(999)), Category::Data).unwrap(); // never commits
        for i in 0..5_000u64 {
            d.try_byte_write((i % 60) * 64, &[i as u8; 64], None, Category::Data).unwrap();
        }
        assert!(d.traffic().log_cleanings > 0);
        // The stale chunk was fully shadowed by committed writes to slot 0
        // and clipped away; everything reads as the newest committed tag.
        let last = 4980; // last i with i % 60 == 0
        assert_eq!(d.try_byte_read(0, 64, Category::Data).unwrap(), vec![last as u8; 64]);
    }

    #[test]
    fn crash_image_roundtrip_preserves_durable_state() {
        let d = dev(DramMode::WriteLog);
        let committed = TxId(3);
        let lost = TxId(4);
        d.try_block_write(2, &vec![5u8; 4096], Category::Data).unwrap();
        d.try_flush().unwrap();
        d.try_block_write(3, &vec![6u8; 4096], Category::Data).unwrap(); // stays buffered
        d.try_byte_write(10 * 4096, &[0x11u8; 64], Some(committed), Category::Inode).unwrap();
        d.try_byte_write(11 * 4096, &[0x22u8; 64], Some(lost), Category::Inode).unwrap();
        d.try_byte_write(12 * 4096, &[0x33u8; 64], None, Category::Data).unwrap();
        d.commit(committed);

        let image = d.crash_image();
        assert!(image.log_entries.len() >= 3);
        assert_eq!(image.txlog, vec![committed]);
        assert!(!image.flash_pages.is_empty());
        assert!(!image.buffered_pages.is_empty());
        assert_eq!(image.digest(), d.crash_image().digest(), "imaging is repeatable");

        let d2 = Mssd::from_crash_image(MssdConfig::small_test(), DramMode::WriteLog, &image);
        let report = d2.recover();
        assert_eq!(report.discarded_entries, 1, "uncommitted tx entry discarded");
        assert_eq!(d2.try_byte_read(10 * 4096, 64, Category::Inode).unwrap(), vec![0x11; 64]);
        assert_eq!(d2.try_byte_read(11 * 4096, 64, Category::Inode).unwrap(), vec![0u8; 64]);
        assert_eq!(d2.try_byte_read(12 * 4096, 64, Category::Data).unwrap(), vec![0x33; 64]);
        assert_eq!(d2.try_block_read(2, 1, Category::Data).unwrap(), vec![5u8; 4096]);
        assert_eq!(d2.try_block_read(3, 1, Category::Data).unwrap(), vec![6u8; 4096]);
        assert!(d2.flash.check_consistency().is_empty());
    }

    #[test]
    fn fault_cut_tears_a_page_crossing_byte_write() {
        // A write spanning three pages splits into three log chunks; cut at
        // the 3rd durability step: pages 0-1 land, page 2 never does.
        let mut cfg = MssdConfig::small_test();
        cfg.fault = crate::fault::FaultPlan::cut_at(3);
        let d = Mssd::new(cfg, DramMode::WriteLog);
        let addr = 4096 - 64;
        d.try_byte_write(addr, &[7u8; 64 + 4096 + 64], None, Category::Data).unwrap();
        assert!(d.fault_tripped());
        assert_eq!(d.fault_plan().cut_kind(), Some(FaultKind::LogAppend));
        let image = d.crash_image();
        assert_eq!(image.log_entries.len(), 2, "only the pre-cut chunks are durable");
        let d2 = Mssd::from_crash_image(MssdConfig::small_test(), DramMode::WriteLog, &image);
        d2.recover();
        let back = d2.try_byte_read(addr, 64 + 4096 + 64, Category::Data).unwrap();
        assert_eq!(&back[..64 + 4096], &[7u8; 64 + 4096][..], "chunks before the cut survive");
        assert_eq!(&back[64 + 4096..], &[0u8; 64][..], "the torn-off chunk never happened");
        // Post-cut writes are denied entirely.
        d.try_byte_write(8 * 4096, &[9u8; 64], None, Category::Data).unwrap();
        assert_eq!(d.crash_image().log_entries.len(), 2);
    }

    #[test]
    fn fault_count_only_observes_without_changing_behaviour() {
        let mut cfg = MssdConfig::small_test();
        cfg.fault = crate::fault::FaultPlan::count_only();
        let d = Mssd::new(cfg, DramMode::WriteLog);
        // Crosses one page boundary: two log chunks.
        d.try_byte_write(4096 - 64, &[1u8; 128], None, Category::Data).unwrap();
        d.try_block_write(5, &vec![2u8; 8192], Category::Data).unwrap();
        d.commit(TxId(1));
        d.try_flush().unwrap();
        let plan = d.fault_plan();
        assert_eq!(plan.steps_of(FaultKind::LogAppend), 2);
        assert_eq!(plan.steps_of(FaultKind::BufferWrite), 2);
        assert_eq!(plan.steps_of(FaultKind::TxCommit), 1);
        assert!(plan.steps_of(FaultKind::FlashProgram) >= 2);
        assert!(!d.fault_tripped());
        assert_eq!(d.try_byte_read(4096 - 64, 128, Category::Data).unwrap(), vec![1u8; 128]);
    }

    #[test]
    fn recovery_is_idempotent_when_log_is_empty() {
        let d = dev(DramMode::WriteLog);
        let r1 = d.recover();
        assert_eq!(r1.scanned_entries, 0);
        assert_eq!(r1.flushed_pages, 0);
        let r2 = d.recover();
        assert_eq!(r2.scanned_entries, 0);
    }
}
