//! Traffic and latency accounting.
//!
//! The ByteFS evaluation is largely about *where the bytes go*: Figures 1, 8
//! and 9 break host↔SSD traffic down by file-system data structure, Figures 10
//! and 11 report internal flash traffic, and Table 2 reports read/write
//! amplification. Every device operation in this crate is therefore tagged
//! with a [`Category`] (which data structure initiated it) and an
//! [`Interface`] (byte or block).
//!
//! Recording happens in an [`AtomicTraffic`]: a bank of per-`(category,
//! interface, direction)` `AtomicU64`s, so stats accounting on the device hot
//! path never takes a lock (all orderings are `Relaxed` — the counters are
//! monotonic tallies with no cross-counter invariants readers may assume
//! mid-run). The harness reads it through [`AtomicTraffic::snapshot`], which
//! yields the plain [`TrafficCounter`] value type used by every report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::trace::{TraceKind, TraceSink};
use crate::txn::TxId;

/// The file-system data structure a device access is attributed to.
///
/// These mirror the legend of Figure 1 in the paper (Data, Inode, Dentry,
/// Bitmap, Superblock, Data Pointer, Journaling, Other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// File contents.
    Data,
    /// Inode blocks / inode entries.
    Inode,
    /// Directory entries.
    Dentry,
    /// Block and inode allocation bitmaps (or NAT/SIT in F2FS-like systems).
    Bitmap,
    /// The superblock and other global metadata.
    Superblock,
    /// Extent nodes / indirect block pointers (file offset → LBA mappings).
    DataPointer,
    /// Journal / write-ahead-log traffic.
    Journal,
    /// Anything else (e.g. padding, firmware-internal host traffic).
    Other,
}

impl Category {
    /// Number of categories (the length of [`Category::ALL`]).
    pub const COUNT: usize = 8;

    /// Position of this category in [`Category::ALL`], used to index the
    /// atomic counter banks.
    pub fn index(self) -> usize {
        match self {
            Category::Data => 0,
            Category::Inode => 1,
            Category::Dentry => 2,
            Category::Bitmap => 3,
            Category::Superblock => 4,
            Category::DataPointer => 5,
            Category::Journal => 6,
            Category::Other => 7,
        }
    }

    /// All categories in display order.
    pub const ALL: [Category; 8] = [
        Category::Data,
        Category::Inode,
        Category::Dentry,
        Category::Bitmap,
        Category::Superblock,
        Category::DataPointer,
        Category::Journal,
        Category::Other,
    ];

    /// `true` for the categories the paper classifies as metadata.
    pub fn is_metadata(self) -> bool {
        !matches!(self, Category::Data)
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Category::Data => "data",
            Category::Inode => "inode",
            Category::Dentry => "dentry",
            Category::Bitmap => "bitmap",
            Category::Superblock => "superblock",
            Category::DataPointer => "data_pointer",
            Category::Journal => "journal",
            Category::Other => "other",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which of the M-SSD's two host interfaces served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Interface {
    /// PCIe/CXL memory-mapped cacheline access.
    Byte,
    /// NVMe block command.
    Block,
}

impl Interface {
    /// Number of interfaces.
    pub const COUNT: usize = 2;

    /// Stable index of this interface (byte = 0, block = 1), used to index the
    /// atomic counter banks.
    pub fn index(self) -> usize {
        match self {
            Interface::Byte => 0,
            Interface::Block => 1,
        }
    }
}

impl std::fmt::Display for Interface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interface::Byte => f.write_str("byte"),
            Interface::Block => f.write_str("block"),
        }
    }
}

/// Direction of a host access, from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Host reads from the device.
    Read,
    /// Host writes to the device.
    Write,
}

/// Number of per-queue accounting slots in [`AtomicTraffic`]. Slot 0 belongs
/// to the synchronous depth-1 shim (direct [`crate::Mssd`] calls with no
/// ambient queue); slots 1.. are handed out round-robin to
/// [`crate::queue::HostQueue`]s, so on devices with more than
/// `QUEUE_SLOTS - 1` live queues two queues may share a slot (the per-queue
/// numbers then aggregate — never lost, only merged).
pub const QUEUE_SLOTS: usize = 32;

/// Per-queue latency/throughput counters of one submission/completion queue
/// slot, as materialized by [`AtomicTraffic::snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueLat {
    /// Commands completed through this queue slot.
    pub ops: u64,
    /// Doorbell rings (batches) processed. Zero for the sync shim slot, which
    /// completes each command at submission.
    pub batches: u64,
    /// Commands absorbed into a preceding adjacent byte-write by doorbell
    /// coalescing (each saved a separate log append).
    pub coalesced_cmds: u64,
    /// Total virtual nanoseconds of completed-command device latency.
    pub lat_total_ns: u64,
    /// Largest single-command virtual latency observed, in nanoseconds.
    pub lat_max_ns: u64,
}

impl QueueLat {
    /// Mean per-command virtual latency in nanoseconds (0 when idle).
    pub fn avg_ns(&self) -> u64 {
        self.lat_total_ns.checked_div(self.ops).unwrap_or(0)
    }

    fn is_empty(&self) -> bool {
        self.ops == 0 && self.batches == 0 && self.coalesced_cmds == 0
    }
}

/// Declares every scalar counter exactly once. Each row — doc comment and
/// name — becomes a `pub u64` field of [`TrafficCounter`], a cache-padded
/// cell of [`AtomicTraffic`], and that counter's line in `snapshot`,
/// `delta_since` and `reset`; adding a counter is one row here plus its
/// `inc_*`/`add_*` wrapper. Every counter is a monotonic event count:
/// [`AtomicTraffic::reset`] zeroes it and [`TrafficCounter::delta_since`]
/// subtracts the earlier reading.
macro_rules! scalar_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Bytes moved between host and device, keyed by category, interface
        /// and direction, plus internal flash traffic and latency
        /// accumulators.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        pub struct TrafficCounter {
            host_read: BTreeMap<(Category, Interface), u64>,
            host_write: BTreeMap<(Category, Interface), u64>,
            $($(#[$doc])* pub $name: u64,)*
            /// Per-queue-slot submission/completion accounting (slot 0 = the
            /// synchronous depth-1 shim). Empty slots are omitted.
            pub queues: BTreeMap<u16, QueueLat>,
        }

        impl TrafficCounter {
            /// The scalar half of [`TrafficCounter::delta_since`] (maps left
            /// empty).
            fn scalars_since(&self, earlier: &TrafficCounter) -> TrafficCounter {
                TrafficCounter {
                    $($name: self.$name - earlier.$name,)*
                    ..TrafficCounter::default()
                }
            }

            /// Every declared scalar as `(name, value)`.
            #[cfg(test)]
            fn scalars(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }

        /// Lock-free traffic accounting: one cache-line-padded `AtomicU64`
        /// per `(direction, category, interface)` host-bytes cell plus one
        /// per scalar counter.
        ///
        /// The device hot path records into this with plain `Relaxed` atomic
        /// adds — no mutex is ever taken for stats. Reports are produced by
        /// materializing a [`TrafficCounter`] snapshot. Because individual
        /// counters are updated independently, a snapshot taken while other
        /// threads are mid-operation is only approximately consistent across
        /// counters (each counter is exact); the harness always snapshots at
        /// quiescent points.
        #[derive(Debug, Default)]
        pub struct AtomicTraffic {
            host_read: [[CachePadded<AtomicU64>; Interface::COUNT]; Category::COUNT],
            host_write: [[CachePadded<AtomicU64>; Interface::COUNT]; Category::COUNT],
            $($name: CachePadded<AtomicU64>,)*
            queues: [AtomicQueueLat; QUEUE_SLOTS],
            /// The device's trace sink. It lives here because the stats bank
            /// is already threaded through every instrumented component;
            /// events whose semantics coincide with a counter are emitted
            /// from that counter's `inc_*` wrapper, so the two observability
            /// planes can never disagree.
            trace: TraceSink,
        }

        impl AtomicTraffic {
            /// The scalar half of [`AtomicTraffic::snapshot`] (maps left
            /// empty).
            fn snapshot_scalars(&self) -> TrafficCounter {
                TrafficCounter { $($name: self.$name.get(),)* ..TrafficCounter::default() }
            }

            /// Zeroes every scalar counter.
            fn reset_scalars(&self) {
                $(self.$name.clear();)*
            }

            /// The cell behind each entry of [`TrafficCounter::scalars`], in
            /// the same order.
            #[cfg(test)]
            fn scalar_cells(&self) -> Vec<&CachePadded<AtomicU64>> {
                vec![$(&self.$name,)*]
            }
        }
    };
}

scalar_counters! {
    /// Pages read from NAND flash.
    flash_read_pages,
    /// Pages programmed to NAND flash.
    flash_write_pages,
    /// Blocks erased (garbage collection / log cleaning).
    flash_erase_blocks,
    /// Flash page reads caused by internal work (GC, log cleaning RMW).
    flash_internal_read_pages,
    /// Flash page writes caused by internal work (GC relocation).
    flash_internal_write_pages,
    /// Number of host byte-interface requests.
    byte_requests,
    /// Number of host block-interface requests.
    block_requests,
    /// Number of firmware transaction commits.
    tx_commits,
    /// Number of log-cleaning passes executed.
    log_cleanings,
    /// Number of times a foreground writer stalled on log space admission and
    /// had to reclaim (drain sealed regions or full stop-the-world clean)
    /// on the clock instead of leaving it to a threshold pass.
    log_fg_stalls,
    /// Pages merged by threshold passes (not counting foreground-stall
    /// reclaims).
    log_bg_cleaned_pages,
    /// Total virtual nanoseconds spent in host-visible device operations.
    device_busy_ns,
    /// Virtual nanoseconds host commands waited for a slot of the FTL write
    /// buffer: every slot held by a page not yet programmed
    /// (`DESIGN-time.md`).
    nand_stall_ns,
    /// Virtual nanoseconds the host spent in `Mssd::wait`: what was left of
    /// its block writes and COMMIT records once it had nothing else to issue.
    /// The synchronous block write or COMMIT waits at once, so its whole cost
    /// counts here.
    inflight_wait_ns,
    /// RAS: flash reads whose raw bit errors the ECC corrected.
    ras_corrected_reads,
    /// RAS: flash reads that resolved as uncorrectable ECC errors (UECC)
    /// after exhausting the read-retry ladder.
    ras_uncorrectable_reads,
    /// RAS: read-retry attempts performed (ladder rungs after the initial
    /// read, whether or not they eventually recovered the page).
    ras_read_retries,
    /// RAS: pages remapped to a fresh block after a permanent program
    /// failure.
    ras_remapped_pages,
    /// RAS: blocks retired to the bad-block table (program or erase failure).
    ras_retired_blocks,
    /// RAS: commands that hit their host deadline (watchdog timeout) before
    /// completing — injected stalls past the deadline, lost completions,
    /// wedged lanes.
    hang_timeouts,
    /// RAS: NVMe-style aborts issued by the host (deadline timeout or lane
    /// reset resolution).
    aborts,
    /// RAS: lane-level queue resets (wedge recovery or explicit).
    lane_resets,
    /// RAS: host-level command retries after a transient failure or abort
    /// (capped exponential backoff, see `mssd::RetryPolicy`).
    retries,
    /// Client clocks a turn skipped because their virtual time stood still
    /// for `clock::STALLED_CLIENT_WALL` of wall time (see
    /// `Clock::take_turn`): clients blocked outside the model, or
    /// descheduled.
    client_clock_skips,
}

impl TrafficCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a host access of `bytes` bytes.
    pub fn record_host(&mut self, dir: Direction, cat: Category, iface: Interface, bytes: u64) {
        let map = match dir {
            Direction::Read => &mut self.host_read,
            Direction::Write => &mut self.host_write,
        };
        *map.entry((cat, iface)).or_insert(0) += bytes;
        match iface {
            Interface::Byte => self.byte_requests += 1,
            Interface::Block => self.block_requests += 1,
        }
    }

    /// Total host-read bytes (all categories and interfaces).
    pub fn host_read_bytes(&self) -> u64 {
        self.host_read.values().sum()
    }

    /// Total host-written bytes (all categories and interfaces).
    pub fn host_write_bytes(&self) -> u64 {
        self.host_write.values().sum()
    }

    /// Host bytes for one direction and category, summed over interfaces.
    pub fn host_bytes_by_category(&self, dir: Direction, cat: Category) -> u64 {
        let map = match dir {
            Direction::Read => &self.host_read,
            Direction::Write => &self.host_write,
        };
        map.iter().filter(|((c, _), _)| *c == cat).map(|(_, v)| *v).sum()
    }

    /// Host bytes for one direction and interface, summed over categories.
    pub fn host_bytes_by_interface(&self, dir: Direction, iface: Interface) -> u64 {
        let map = match dir {
            Direction::Read => &self.host_read,
            Direction::Write => &self.host_write,
        };
        map.iter().filter(|((_, i), _)| *i == iface).map(|(_, v)| *v).sum()
    }

    /// Host metadata bytes (all categories except `Data`) for one direction.
    pub fn host_metadata_bytes(&self, dir: Direction) -> u64 {
        Category::ALL
            .iter()
            .filter(|c| c.is_metadata())
            .map(|c| self.host_bytes_by_category(dir, *c))
            .sum()
    }

    /// Host data bytes (category `Data`) for one direction.
    pub fn host_data_bytes(&self, dir: Direction) -> u64 {
        self.host_bytes_by_category(dir, Category::Data)
    }

    /// Total flash bytes read, including internal reads, given the page size.
    pub fn flash_read_bytes(&self, page_size: usize) -> u64 {
        (self.flash_read_pages + self.flash_internal_read_pages) * page_size as u64
    }

    /// Total flash bytes written, including internal writes, given the page size.
    pub fn flash_write_bytes(&self, page_size: usize) -> u64 {
        (self.flash_write_pages + self.flash_internal_write_pages) * page_size as u64
    }

    /// Returns `self - earlier`, i.e. the traffic that happened after the
    /// `earlier` snapshot was taken. Gauges (see `scalar_counters!`) keep
    /// the later snapshot's reading.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually an earlier snapshot
    /// of the same counter (any counter would have to go backwards).
    pub fn delta_since(&self, earlier: &TrafficCounter) -> TrafficCounter {
        fn sub_map(
            a: &BTreeMap<(Category, Interface), u64>,
            b: &BTreeMap<(Category, Interface), u64>,
        ) -> BTreeMap<(Category, Interface), u64> {
            let mut out = a.clone();
            for (k, v) in b {
                let cur = out.entry(*k).or_insert(0);
                debug_assert!(*cur >= *v, "traffic counter went backwards for {k:?}");
                *cur = cur.saturating_sub(*v);
            }
            out.retain(|_, v| *v > 0);
            out
        }
        TrafficCounter {
            host_read: sub_map(&self.host_read, &earlier.host_read),
            host_write: sub_map(&self.host_write, &earlier.host_write),
            queues: {
                let mut out = BTreeMap::new();
                for (id, q) in &self.queues {
                    let base = earlier.queues.get(id).cloned().unwrap_or_default();
                    let d = QueueLat {
                        ops: q.ops - base.ops,
                        batches: q.batches - base.batches,
                        coalesced_cmds: q.coalesced_cmds - base.coalesced_cmds,
                        lat_total_ns: q.lat_total_ns - base.lat_total_ns,
                        // A running maximum cannot be subtracted; the delta
                        // keeps the later snapshot's value (an upper bound on
                        // the interval's true max).
                        lat_max_ns: q.lat_max_ns,
                    };
                    if !d.is_empty() {
                        out.insert(*id, d);
                    }
                }
                out
            },
            ..self.scalars_since(earlier)
        }
    }

    /// Per-queue accounting for one slot (zeroed default when the slot is
    /// idle).
    pub fn queue_lat(&self, id: u16) -> QueueLat {
        self.queues.get(&id).cloned().unwrap_or_default()
    }
}

/// A value on its own cache line, shared by every hot counter in the crate.
///
/// Hot-path counters are hammered by every thread on every operation; packing
/// several into one line would make each relaxed add invalidate the
/// neighbours' line (false sharing). A padded cell is 64 bytes and there are
/// only a few dozen per device, so the memory cost is trivial.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl CachePadded<AtomicU64> {
    fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn clear(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Lock-free per-queue-slot counters (one bank per [`QUEUE_SLOTS`] slot).
#[derive(Debug, Default)]
struct AtomicQueueLat {
    ops: CachePadded<AtomicU64>,
    batches: CachePadded<AtomicU64>,
    coalesced_cmds: CachePadded<AtomicU64>,
    lat_total_ns: CachePadded<AtomicU64>,
    lat_max_ns: CachePadded<AtomicU64>,
}

impl AtomicQueueLat {
    fn snapshot(&self) -> QueueLat {
        QueueLat {
            ops: self.ops.get(),
            batches: self.batches.get(),
            coalesced_cmds: self.coalesced_cmds.get(),
            lat_total_ns: self.lat_total_ns.get(),
            lat_max_ns: self.lat_max_ns.get(),
        }
    }

    fn clear(&self) {
        self.ops.clear();
        self.batches.clear();
        self.coalesced_cmds.clear();
        self.lat_total_ns.clear();
        self.lat_max_ns.clear();
    }
}

impl AtomicTraffic {
    /// Creates a zeroed counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a host access of `bytes` bytes (lock-free).
    pub fn record_host(&self, dir: Direction, cat: Category, iface: Interface, bytes: u64) {
        let bank = match dir {
            Direction::Read => &self.host_read,
            Direction::Write => &self.host_write,
        };
        bank[cat.index()][iface.index()].add(bytes);
        match iface {
            Interface::Byte => self.byte_requests.add(1),
            Interface::Block => self.block_requests.add(1),
        };
    }

    /// The device's trace sink (see [`crate::trace`]).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Counts one flash page read (`internal` marks firmware-internal work).
    pub fn inc_flash_read(&self, internal: bool) {
        if internal {
            self.flash_internal_read_pages.add(1);
        } else {
            self.flash_read_pages.add(1);
        }
        self.trace.emit(TraceKind::FlashRead, internal as u64, 0);
    }

    /// Counts one flash page program (`internal` marks GC relocation).
    pub fn inc_flash_write(&self, internal: bool) {
        if internal {
            self.flash_internal_write_pages.add(1);
        } else {
            self.flash_write_pages.add(1);
        }
        self.trace.emit(TraceKind::FlashProgram, internal as u64, 0);
    }

    /// Counts one block erase.
    pub fn inc_flash_erase(&self) {
        self.flash_erase_blocks.add(1);
    }

    /// Counts one firmware transaction commit: the record of `txid`,
    /// complete at virtual time `done_ns`.
    pub fn inc_tx_commits(&self, txid: TxId, done_ns: u64) {
        self.tx_commits.add(1);
        self.trace.emit(TraceKind::TxCommit, txid.0 as u64, done_ns);
    }

    /// Counts one log-cleaning pass.
    pub fn inc_log_cleanings(&self) {
        self.log_cleanings.add(1);
        self.trace.emit(TraceKind::LogDrain, 0, 0);
    }

    /// Counts one foreground space-admission stall (a writer had to reclaim
    /// log space itself).
    pub fn inc_log_fg_stalls(&self) {
        self.log_fg_stalls.add(1);
    }

    /// Counts pages merged by a threshold pass.
    pub fn add_log_bg_cleaned_pages(&self, pages: u64) {
        self.log_bg_cleaned_pages.add(pages);
    }

    /// Accumulates host-visible device busy time.
    pub fn add_device_busy_ns(&self, ns: u64) {
        self.device_busy_ns.add(ns);
    }

    /// Accumulates the time a host command waited for a write-buffer slot.
    pub fn add_nand_stall_ns(&self, ns: u64) {
        self.nand_stall_ns.add(ns);
    }

    /// Accumulates the time the host waited for a submitted block write.
    pub fn add_inflight_wait_ns(&self, ns: u64) {
        self.inflight_wait_ns.add(ns);
    }

    /// Counts stalled client clocks a turn skipped.
    pub fn add_client_clock_skips(&self, skips: u64) {
        self.client_clock_skips.add(skips);
    }

    /// Counts one ECC-corrected flash read.
    pub fn inc_ras_corrected_reads(&self) {
        self.ras_corrected_reads.add(1);
    }

    /// Counts one uncorrectable (UECC) flash read.
    pub fn inc_ras_uncorrectable_reads(&self) {
        self.ras_uncorrectable_reads.add(1);
    }

    /// Counts one read-retry ladder rung.
    pub fn inc_ras_read_retries(&self) {
        self.ras_read_retries.add(1);
        self.trace.emit(TraceKind::EccRetry, 0, 0);
    }

    /// Counts one page remapped after a permanent program failure.
    pub fn inc_ras_remapped_pages(&self) {
        self.ras_remapped_pages.add(1);
    }

    /// Counts one block retired to the bad-block table.
    pub fn inc_ras_retired_blocks(&self) {
        self.ras_retired_blocks.add(1);
        self.trace.emit(TraceKind::BadBlockRetire, 0, 0);
    }

    /// Counts one command that hit its host deadline before completing.
    pub fn inc_hang_timeouts(&self) {
        self.hang_timeouts.add(1);
        self.trace.emit(TraceKind::DeadlineTimeout, 0, 0);
    }

    /// Counts one host-issued abort.
    pub fn inc_aborts(&self) {
        self.aborts.add(1);
        self.trace.emit(TraceKind::Abort, 0, 0);
    }

    /// Counts one lane-level queue reset.
    pub fn inc_lane_resets(&self) {
        self.lane_resets.add(1);
        self.trace.emit(TraceKind::LaneReset, 0, 0);
    }

    /// Counts one host-level command retry (backoff path).
    pub fn inc_retries(&self) {
        self.retries.add(1);
        self.trace.emit(TraceKind::RetryBackoff, 0, 0);
    }

    /// Records one completed command on queue slot `queue` (slot index is
    /// taken modulo [`QUEUE_SLOTS`]): bumps the op count and accumulates its
    /// virtual latency. Lock-free.
    pub fn record_queue_op(&self, queue: u16, lat_ns: u64) {
        let cell = &self.queues[queue as usize % QUEUE_SLOTS];
        cell.ops.add(1);
        cell.lat_total_ns.add(lat_ns);
        cell.lat_max_ns.max(lat_ns);
    }

    /// Records one doorbell batch on queue slot `queue`: `coalesced` counts
    /// the commands that were absorbed into a preceding adjacent byte write.
    pub fn record_queue_batch(&self, queue: u16, coalesced: u64) {
        let cell = &self.queues[queue as usize % QUEUE_SLOTS];
        cell.batches.add(1);
        cell.coalesced_cmds.add(coalesced);
    }

    /// Current flash page programs including internal ones (used by recovery
    /// reporting without paying for a full snapshot).
    pub fn flash_writes_total(&self) -> u64 {
        self.flash_write_pages.get() + self.flash_internal_write_pages.get()
    }

    /// Materializes a plain [`TrafficCounter`] from the current counters.
    pub fn snapshot(&self) -> TrafficCounter {
        fn bank_to_map(
            bank: &[[CachePadded<AtomicU64>; Interface::COUNT]; Category::COUNT],
        ) -> BTreeMap<(Category, Interface), u64> {
            let mut map = BTreeMap::new();
            for cat in Category::ALL {
                for iface in [Interface::Byte, Interface::Block] {
                    let v = bank[cat.index()][iface.index()].get();
                    if v > 0 {
                        map.insert((cat, iface), v);
                    }
                }
            }
            map
        }
        let mut t = self.snapshot_scalars();
        t.host_read = bank_to_map(&self.host_read);
        t.host_write = bank_to_map(&self.host_write);
        for (id, cell) in self.queues.iter().enumerate() {
            let q = cell.snapshot();
            if !q.is_empty() {
                t.queues.insert(id as u16, q);
            }
        }
        t
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for bank in [&self.host_read, &self.host_write] {
            for row in bank.iter() {
                for cell in row {
                    cell.clear();
                }
            }
        }
        self.reset_scalars();
        for q in &self.queues {
            q.clear();
        }
    }
}

/// An immutable snapshot of the device state used by the measurement harness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Traffic counters at the time of the snapshot.
    pub traffic: TrafficCounter,
    /// Virtual time at the time of the snapshot (nanoseconds).
    pub now_ns: u64,
    /// Current utilization of the write log region in bytes (0 when the device
    /// DRAM is configured as a page cache).
    pub log_used_bytes: usize,
    /// Number of live entries in the write log index.
    pub log_entries: usize,
    /// Number of dirty pages in the device page cache (baseline mode).
    pub cache_dirty_pages: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut t = TrafficCounter::new();
        t.record_host(Direction::Write, Category::Inode, Interface::Byte, 64);
        t.record_host(Direction::Write, Category::Data, Interface::Block, 4096);
        t.record_host(Direction::Read, Category::Data, Interface::Block, 8192);
        assert_eq!(t.host_write_bytes(), 4160);
        assert_eq!(t.host_read_bytes(), 8192);
        assert_eq!(t.host_metadata_bytes(Direction::Write), 64);
        assert_eq!(t.host_data_bytes(Direction::Write), 4096);
        assert_eq!(t.byte_requests, 1);
        assert_eq!(t.block_requests, 2);
    }

    #[test]
    fn by_interface_filters() {
        let mut t = TrafficCounter::new();
        t.record_host(Direction::Write, Category::Inode, Interface::Byte, 64);
        t.record_host(Direction::Write, Category::Inode, Interface::Block, 4096);
        assert_eq!(t.host_bytes_by_interface(Direction::Write, Interface::Byte), 64);
        assert_eq!(t.host_bytes_by_interface(Direction::Write, Interface::Block), 4096);
    }

    #[test]
    fn delta_subtracts() {
        let mut t = TrafficCounter::new();
        t.record_host(Direction::Write, Category::Data, Interface::Block, 4096);
        t.flash_write_pages = 1;
        t.ras_corrected_reads = 2;
        let snap = t.clone();
        t.record_host(Direction::Write, Category::Data, Interface::Block, 4096);
        t.record_host(Direction::Read, Category::Inode, Interface::Block, 4096);
        t.flash_write_pages = 3;
        t.device_busy_ns = 500;
        t.ras_corrected_reads = 5;
        let d = t.delta_since(&snap);
        assert_eq!(d.host_write_bytes(), 4096);
        assert_eq!(d.host_read_bytes(), 4096);
        assert_eq!(d.flash_write_pages, 2);
        assert_eq!(d.device_busy_ns, 500);
        assert_eq!(d.ras_corrected_reads, 3);
    }

    #[test]
    fn metadata_classification() {
        assert!(!Category::Data.is_metadata());
        for c in Category::ALL {
            if c != Category::Data {
                assert!(c.is_metadata(), "{c} should be metadata");
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Category::ALL.len());
    }

    #[test]
    fn atomic_traffic_snapshot_matches_plain_counter() {
        let a = AtomicTraffic::new();
        a.record_host(Direction::Write, Category::Inode, Interface::Byte, 64);
        a.record_host(Direction::Write, Category::Data, Interface::Block, 4096);
        a.record_host(Direction::Read, Category::Data, Interface::Block, 8192);
        a.inc_flash_write(false);
        a.inc_flash_write(true);
        a.inc_flash_read(false);
        a.inc_flash_erase();
        a.inc_tx_commits(TxId(1), 0);
        a.inc_log_cleanings();
        a.add_device_busy_ns(500);
        a.inc_ras_corrected_reads();
        a.inc_ras_read_retries();
        a.inc_ras_read_retries();
        a.inc_ras_uncorrectable_reads();
        a.inc_ras_remapped_pages();
        a.inc_ras_retired_blocks();
        a.inc_hang_timeouts();
        a.inc_aborts();
        a.inc_aborts();
        a.inc_lane_resets();
        a.inc_retries();

        let mut t = TrafficCounter::new();
        t.record_host(Direction::Write, Category::Inode, Interface::Byte, 64);
        t.record_host(Direction::Write, Category::Data, Interface::Block, 4096);
        t.record_host(Direction::Read, Category::Data, Interface::Block, 8192);
        t.flash_write_pages = 1;
        t.flash_internal_write_pages = 1;
        t.flash_read_pages = 1;
        t.flash_erase_blocks = 1;
        t.tx_commits = 1;
        t.log_cleanings = 1;
        t.device_busy_ns = 500;
        t.ras_corrected_reads = 1;
        t.ras_read_retries = 2;
        t.ras_uncorrectable_reads = 1;
        t.ras_remapped_pages = 1;
        t.ras_retired_blocks = 1;
        t.hang_timeouts = 1;
        t.aborts = 2;
        t.lane_resets = 1;
        t.retries = 1;

        assert_eq!(a.snapshot(), t);
        assert_eq!(a.flash_writes_total(), 2);
        a.reset();
        assert_eq!(a.snapshot(), TrafficCounter::new());
    }

    #[test]
    fn every_declared_counter_round_trips_according_to_its_kind() {
        let a = AtomicTraffic::new();
        let names = a.snapshot().scalars();
        assert_eq!(names.len(), a.scalar_cells().len());
        for (i, &(name, zero)) in names.iter().enumerate() {
            assert_eq!(zero, 0, "{name} starts at zero");
            let cell = a.scalar_cells()[i];

            // First bump, visible in a snapshot under this counter's name only.
            cell.0.store(5, Ordering::Relaxed);
            let earlier = a.snapshot();
            let lit: Vec<_> = earlier.scalars().into_iter().filter(|s| s.1 != 0).collect();
            assert_eq!(lit, vec![(name, 5)], "{name}: bump lands on its own field");

            // Second bump: the delta is the growth.
            cell.0.store(8, Ordering::Relaxed);
            let delta = a.snapshot().delta_since(&earlier).scalars()[i].1;
            assert_eq!(delta, 3, "{name}: delta_since");

            // Reset zeroes it.
            a.reset();
            assert_eq!(a.snapshot().scalars()[i].1, 0, "{name}: reset");
        }
    }

    #[test]
    fn atomic_traffic_is_race_free_across_threads() {
        let a = std::sync::Arc::new(AtomicTraffic::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        a.record_host(Direction::Write, Category::Data, Interface::Byte, 64);
                        a.inc_flash_write(false);
                        a.add_device_busy_ns(3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = a.snapshot();
        assert_eq!(snap.host_write_bytes(), 4 * 10_000 * 64);
        assert_eq!(snap.byte_requests, 40_000);
        assert_eq!(snap.flash_write_pages, 40_000);
        assert_eq!(snap.device_busy_ns, 120_000);
    }

    #[test]
    fn category_indices_match_display_order() {
        for (i, cat) in Category::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
        assert_eq!(Interface::Byte.index(), 0);
        assert_eq!(Interface::Block.index(), 1);
    }

    #[test]
    fn flash_byte_accounting_includes_internal() {
        let mut t = TrafficCounter::new();
        t.flash_read_pages = 2;
        t.flash_internal_read_pages = 1;
        t.flash_write_pages = 4;
        assert_eq!(t.flash_read_bytes(4096), 3 * 4096);
        assert_eq!(t.flash_write_bytes(4096), 4 * 4096);
    }
}
