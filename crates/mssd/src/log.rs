//! The log-structured write log held in device DRAM (ByteFS firmware mode).
//!
//! §4.3 of the paper: byte-interface writes are appended to a circular log
//! region (256 MB by default) as 64-byte-aligned data entries, indexed by a
//! three-layer structure:
//!
//! 1. a **partition table** dividing the SSD address space into 16 MB
//!    partitions,
//! 2. an **ordered page map per partition** keyed by logical page address
//!    (LPA), and
//! 3. an **ordered chunk list per page** recording `(offset-in-page, length,
//!    log offset)` for each data entry.
//!
//! Layers 1 and 2 are std `BTreeMap`s (the `Region` alias below). The firmware's
//! layer 2 is a skip list; it is not modelled, because the model charges no
//! virtual time for index hops — all layer 2 owes the rest of the device is
//! ascending-LPA order, which drain order, crash images and their digests
//! depend on.
//!
//! Entries carry the TxID of the transaction that wrote them; log cleaning
//! merges the newest *committed* version of each chunk into its flash page and
//! migrates uncommitted entries into the fresh log region.
//!
//! Two index implementations live here:
//!
//! * [`WriteLog`] — the original single-threaded index (one map of partitions
//!   behind whatever lock the caller provides). Kept as the sequential
//!   reference model; the equivalence property tests compare against it.
//! * [`ShardedWriteLog`] — the concurrent index used by the device: the
//!   paper's own first-layer partition key (LPA / 16 MB) hashes each page to
//!   one of [`LOG_SHARDS`] independently locked shards, while space
//!   accounting (`used_bytes`, `entries`, the append sequence) lives in
//!   shared atomics. Writers to different partitions never contend.
//!
//! The sharded log is **double-buffered** for background cleaning: each shard
//! holds an *active* region (appends land here) and a *sealed* region.
//! [`ShardedWriteLog::seal_shard`] flips a shard's active region into the
//! sealed slot under a brief per-shard lock (an O(1) map move), and a
//! cleaning pass drains sealed regions page by page with
//! [`ShardedWriteLog::drain_sealed_step`] — so cleaning never holds more than
//! one shard lock at a time and foreground writers keep appending to fresh
//! active regions. Reads merge both regions; uncommitted entries drained from
//! a sealed region migrate back into the shard's active region with their
//! original sequence numbers. The stop-the-world drain
//! ([`ShardedWriteLog::lock_all`]) remains for recovery, forced cleaning and
//! the space-admission fallback.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::config::MssdConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::flash::FlashError;
use crate::ftl::Lpa;
use crate::stats::CachePadded;
use crate::txn::TxId;
use crate::CACHELINE;

/// Size of one first-layer partition of the SSD address space (16 MB, §4.3).
pub const PARTITION_BYTES: u64 = 16 << 20;

/// Fixed per-entry index overhead in bytes (block offset, log offset, length
/// and TxID, rounded up; the paper reports ~9 B per chunk entry plus
/// the firmware's skip-list node overhead).
pub const ENTRY_OVERHEAD: usize = 16;

/// One byte-granular write buffered in the log region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of this chunk within its flash page.
    pub offset: usize,
    /// The written bytes.
    pub data: Vec<u8>,
    /// Transaction the write belongs to (`None` for non-transactional writes,
    /// which are treated as immediately committed).
    pub txid: Option<TxId>,
    /// Global sequence number: larger means newer.
    pub seq: u64,
    /// Byte offset of the data entry inside the circular log region
    /// (informational; kept to mirror the paper's chunk-entry layout).
    pub log_off: usize,
}

impl ChunkEntry {
    /// Bytes of log-region space this entry occupies (64 B-aligned data plus
    /// index overhead).
    pub fn footprint(&self) -> usize {
        self.data.len().div_ceil(CACHELINE) * CACHELINE + ENTRY_OVERHEAD
    }

    /// End offset (exclusive) of the chunk within its page.
    pub fn end(&self) -> usize {
        self.offset + self.data.len()
    }
}

/// The result of draining the log for cleaning: per-page entries to merge into
/// flash, plus the uncommitted entries that must be migrated to the new log.
#[derive(Debug, Default)]
pub struct CleanBatch {
    /// For every dirty page: the entries to apply, already reduced to the
    /// newest committed version per byte range (in apply order).
    pub pages: Vec<(Lpa, Vec<ChunkEntry>)>,
    /// Entries whose transaction has not committed; they survive cleaning.
    pub migrated: Vec<(Lpa, ChunkEntry)>,
}

/// The three-layer index of one log region: partition index → ordered page
/// map keyed by LPA → chunk list.
type Region = BTreeMap<u64, BTreeMap<Lpa, Vec<ChunkEntry>>>;

/// The write log: circular data region accounting plus the three-layer index.
#[derive(Debug)]
pub struct WriteLog {
    capacity_bytes: usize,
    used_bytes: usize,
    clean_threshold: f64,
    page_size: usize,
    pages_per_partition: u64,
    partitions: Region,
    entries: usize,
    seq: u64,
    write_cursor: usize,
}

/// Error returned when an append does not fit in the log region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFull {
    /// Bytes the rejected entry would have needed.
    pub needed: usize,
    /// Bytes currently free.
    pub free: usize,
}

impl std::fmt::Display for LogFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "write log full: need {} bytes, {} free", self.needed, self.free)
    }
}

impl std::error::Error for LogFull {}

impl WriteLog {
    /// Creates a write log sized by `cfg.dram_region_bytes`.
    pub fn new(cfg: &MssdConfig) -> Self {
        Self {
            capacity_bytes: cfg.dram_region_bytes,
            used_bytes: 0,
            clean_threshold: cfg.log_clean_threshold,
            page_size: cfg.page_size,
            pages_per_partition: (PARTITION_BYTES / cfg.page_size as u64).max(1),
            partitions: BTreeMap::new(),
            entries: 0,
            seq: 0,
            write_cursor: 0,
        }
    }

    /// Total log-region capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently occupied (data entries + index overhead).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of live chunk entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Log-region utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used_bytes as f64 / self.capacity_bytes as f64
    }

    /// `true` once utilization exceeds the cleaning threshold (85 % by
    /// default) and background cleaning should start.
    pub fn needs_cleaning(&self) -> bool {
        self.utilization() >= self.clean_threshold
    }

    fn partition_of(&self, lpa: Lpa) -> u64 {
        lpa / self.pages_per_partition
    }

    /// Appends a byte-granular write to the log.
    ///
    /// # Errors
    ///
    /// Returns [`LogFull`] when the entry does not fit; the caller must run
    /// log cleaning first.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the chunk crosses a page boundary — the
    /// device splits host writes per page before appending.
    pub fn append(
        &mut self,
        lpa: Lpa,
        offset: usize,
        data: &[u8],
        txid: Option<TxId>,
    ) -> Result<(), LogFull> {
        debug_assert!(!data.is_empty(), "empty log append");
        debug_assert!(
            offset + data.len() <= self.page_size,
            "log entries must not cross page boundaries"
        );
        let entry = ChunkEntry {
            offset,
            data: data.to_vec(),
            txid,
            seq: self.seq,
            log_off: self.write_cursor,
        };
        let footprint = entry.footprint();
        if self.used_bytes + footprint > self.capacity_bytes {
            return Err(LogFull { needed: footprint, free: self.capacity_bytes - self.used_bytes });
        }
        self.seq += 1;
        self.used_bytes += footprint;
        self.write_cursor = (self.write_cursor + footprint) % self.capacity_bytes.max(1);
        self.entries += 1;
        let partition = self.partition_of(lpa);
        push_chunk(&mut self.partitions, partition, lpa, entry);
        Ok(())
    }

    /// Whether any log entries exist for the page.
    pub fn has_page(&self, lpa: Lpa) -> bool {
        self.partitions.get(&self.partition_of(lpa)).is_some_and(|pages| pages.contains_key(&lpa))
    }

    /// Returns `true` if the byte range `[offset, offset + len)` of the page is
    /// fully covered by log entries, i.e. a byte-interface read can be served
    /// from device DRAM without touching flash.
    pub fn covers(&self, lpa: Lpa, offset: usize, len: usize) -> bool {
        let Some(chunks) = self.chunks(lpa) else { return false };
        chunks_cover(chunks, offset, len)
    }

    fn chunks(&self, lpa: Lpa) -> Option<&Vec<ChunkEntry>> {
        self.partitions.get(&self.partition_of(lpa))?.get(&lpa)
    }

    /// Applies all log entries for `lpa` onto `page` in sequence order (oldest
    /// first), so the newest write wins for overlapping ranges.
    pub fn merge_into(&self, lpa: Lpa, page: &mut [u8]) {
        if let Some(chunks) = self.chunks(lpa) {
            merge_chunks_into(chunks, page);
        }
    }

    /// Invalidates all log entries of a page (the host overwrote the whole
    /// page through the block interface, §4.4). Returns the number of entries
    /// dropped.
    pub fn invalidate_page(&mut self, lpa: Lpa) -> usize {
        let partition = self.partition_of(lpa);
        let Some(pages) = self.partitions.get_mut(&partition) else { return 0 };
        let Some(chunks) = pages.remove(&lpa) else { return 0 };
        let freed: usize = chunks.iter().map(ChunkEntry::footprint).sum();
        self.used_bytes -= freed;
        self.entries -= chunks.len();
        if pages.is_empty() {
            self.partitions.remove(&partition);
        }
        chunks.len()
    }

    /// All page addresses that currently have log entries, in ascending order.
    pub fn dirty_pages(&self) -> Vec<Lpa> {
        self.partitions.values().flat_map(|pages| pages.keys().copied()).collect()
    }

    /// Drains the entire log for cleaning.
    ///
    /// `is_committed` decides whether an entry's transaction has a TxLog commit
    /// record. Committed entries are grouped per page (Algorithm 1 lines 2-11);
    /// uncommitted ones are returned separately so the device can migrate them
    /// into the fresh log (line 8). After this call the log is empty.
    pub fn drain_for_cleaning<F>(&mut self, is_committed: F) -> CleanBatch
    where
        F: Fn(TxId) -> bool,
    {
        let mut batch = CleanBatch::default();
        let partitions = std::mem::take(&mut self.partitions);
        drain_partitions_into(partitions, &is_committed, true, &mut batch);
        batch.pages.sort_by_key(|(lpa, _)| *lpa);
        self.used_bytes = 0;
        self.entries = 0;
        self.write_cursor = 0;
        batch
    }

    /// Re-inserts migrated (uncommitted) entries after cleaning, preserving
    /// each entry's original sequence number so a migrated chunk can never
    /// outrank a write that happened after it.
    ///
    /// # Panics
    ///
    /// Panics if the migrated entries do not fit — they came out of the same
    /// log region, so they always fit in an empty one.
    pub fn reinstate(&mut self, migrated: Vec<(Lpa, ChunkEntry)>) {
        for (lpa, mut entry) in migrated {
            let footprint = entry.footprint();
            assert!(
                self.used_bytes + footprint <= self.capacity_bytes,
                "migrated entries fit in an empty log"
            );
            entry.log_off = self.write_cursor;
            self.used_bytes += footprint;
            self.write_cursor = (self.write_cursor + footprint) % self.capacity_bytes.max(1);
            self.entries += 1;
            let partition = self.partition_of(lpa);
            push_chunk(&mut self.partitions, partition, lpa, entry);
        }
    }

    /// Clears the log without flushing anything (mkfs / tests only).
    pub fn reset(&mut self) {
        self.partitions.clear();
        self.used_bytes = 0;
        self.entries = 0;
        self.write_cursor = 0;
    }
}

/// Pushes one chunk entry onto its page's chunk list in a three-layer index
/// (shared by [`WriteLog`] and [`ShardedWriteLog`] so the reference model and
/// the concurrent implementation cannot drift).
fn push_chunk(partitions: &mut Region, partition: u64, lpa: Lpa, entry: ChunkEntry) {
    partitions.entry(partition).or_default().entry(lpa).or_default().push(entry);
}

/// Splits one page's drained chunks into the committed set to merge into
/// flash (seq-sorted) and the surviving set to keep in the log.
///
/// `clip_survivors` selects between the two drain semantics:
///
/// * **Cleaning** (`true`): uncommitted chunks survive (they migrate into
///   the fresh log region) — but flash-merging a *newer* committed chunk
///   erases its sequence number, so any bytes of an older surviving chunk
///   that a newer committed chunk overwrites must be **clipped off now**:
///   once the older transaction commits, its log entry would otherwise
///   overlay the newer flash bytes on every read, resurrecting overwritten
///   data. Clipping is observably exact — the dropped bytes could never
///   win a read again (newer committed data always shadows them), and the
///   unshadowed remainder keeps its seq/TxID and becomes visible if the
///   transaction commits — and, unlike deferring the committed chunks
///   instead, it frees their space unconditionally (one stale open
///   transaction cannot pin the log full).
/// * **Recovery** (`false`): the survivors are about to be discarded, so
///   they are returned raw (preserving their count for reporting) and
///   every committed chunk merges; seq order within the page image settles
///   overlaps.
fn split_page_chunks<F>(
    chunks: Vec<ChunkEntry>,
    is_committed: &F,
    clip_survivors: bool,
) -> (Vec<ChunkEntry>, Vec<ChunkEntry>)
where
    F: Fn(TxId) -> bool,
{
    let mut committed: Vec<ChunkEntry> = Vec::new();
    let mut survivors: Vec<ChunkEntry> = Vec::new();
    for c in chunks {
        let ok = match c.txid {
            None => true,
            Some(txid) => is_committed(txid),
        };
        if ok {
            committed.push(c);
        } else {
            survivors.push(c);
        }
    }
    committed.sort_by_key(|c| c.seq);
    if clip_survivors && !committed.is_empty() {
        survivors = survivors
            .into_iter()
            .flat_map(|u| {
                let shadows: Vec<(usize, usize)> = committed
                    .iter()
                    .filter(|c| c.seq > u.seq)
                    .map(|c| (c.offset, c.end()))
                    .collect();
                clip_chunk(u, shadows)
            })
            .collect();
    }
    (committed, survivors)
}

/// Subtracts the `shadows` byte ranges from `u`, returning the surviving
/// sub-chunks (each keeping `u`'s seq and TxID). An unshadowed chunk comes
/// back whole; a fully shadowed one vanishes.
fn clip_chunk(u: ChunkEntry, mut shadows: Vec<(usize, usize)>) -> Vec<ChunkEntry> {
    if shadows.is_empty() {
        return vec![u];
    }
    shadows.sort_unstable();
    let mut out = Vec::new();
    let mut cursor = u.offset;
    let end = u.end();
    let emit = |from: usize, to: usize, out: &mut Vec<ChunkEntry>| {
        if from < to {
            out.push(ChunkEntry {
                offset: from,
                data: u.data[from - u.offset..to - u.offset].to_vec(),
                txid: u.txid,
                seq: u.seq,
                log_off: u.log_off,
            });
        }
    };
    for (s, e) in shadows {
        let s = s.clamp(u.offset, end);
        let e = e.clamp(u.offset, end);
        if s > cursor {
            emit(cursor, s, &mut out);
        }
        cursor = cursor.max(e);
        if cursor >= end {
            break;
        }
    }
    emit(cursor, end, &mut out);
    out
}

/// Splits drained partitions into a [`CleanBatch`], consuming the entries —
/// no chunk data is copied (beyond clipped survivors), which matters for
/// the sharded log where this runs inside the stop-the-world section with
/// every shard locked. See [`split_page_chunks`] for the
/// cleaning-vs-recovery semantics of `clip_survivors`.
fn drain_partitions_into<F>(
    partitions: Region,
    is_committed: &F,
    clip_survivors: bool,
    batch: &mut CleanBatch,
) where
    F: Fn(TxId) -> bool,
{
    for (lpa, chunks) in partitions.into_values().flatten() {
        let (committed, survivors) = split_page_chunks(chunks, is_committed, clip_survivors);
        for c in survivors {
            batch.migrated.push((lpa, c));
        }
        if !committed.is_empty() {
            batch.pages.push((lpa, committed));
        }
    }
}

/// `true` when `[offset, offset + len)` is fully covered by the chunks.
fn chunks_cover(chunks: &[ChunkEntry], offset: usize, len: usize) -> bool {
    ranges_cover(chunks.iter().map(|c| (c.offset, c.end())), offset, len)
}

/// `true` when `[offset, offset + len)` is fully covered by the chunks.
fn refs_cover(chunks: &[&ChunkEntry], offset: usize, len: usize) -> bool {
    ranges_cover(chunks.iter().map(|c| (c.offset, c.end())), offset, len)
}

/// Coverage check over `(start, end)` ranges.
fn ranges_cover(ranges: impl Iterator<Item = (usize, usize)>, offset: usize, len: usize) -> bool {
    if len == 0 {
        return true;
    }
    // Merge the chunk ranges and check coverage.
    let mut ranges: Vec<(usize, usize)> = ranges.collect();
    ranges.sort_unstable();
    let mut covered_to = offset;
    for (start, end) in ranges {
        if start > covered_to {
            if covered_to >= offset + len {
                break;
            }
            if start >= offset + len {
                break;
            }
            return false;
        }
        covered_to = covered_to.max(end);
    }
    covered_to >= offset + len
}

/// Applies `chunks` onto `page` oldest-first so the newest write wins.
fn merge_chunks_into(chunks: &[ChunkEntry], page: &mut [u8]) {
    let mut ordered: Vec<&ChunkEntry> = chunks.iter().collect();
    merge_refs_into(&mut ordered, page);
}

/// Applies `chunks` onto `page` oldest-first so the newest write wins.
/// Sorts the ref slice by sequence number in place.
fn merge_refs_into(chunks: &mut [&ChunkEntry], page: &mut [u8]) {
    chunks.sort_by_key(|c| c.seq);
    for c in chunks {
        let end = c.end().min(page.len());
        if c.offset < end {
            page[c.offset..end].copy_from_slice(&c.data[..end - c.offset]);
        }
    }
}

/// Number of independently locked shards of the [`ShardedWriteLog`] index.
///
/// The shard key is the paper's own first-layer partition index (LPA / 16 MB),
/// so writers working in different partitions take different locks. 16 shards
/// keeps the false-sharing probability below 7 % for up to two concurrent
/// writers per partition-sized region while costing only 16 mutexes.
pub const LOG_SHARDS: usize = 16;

/// One shard of the concurrent write-log index: the partitions (and their
/// page maps) whose index hashes to this shard, double-buffered into an
/// active and a sealed region.
#[derive(Debug, Default)]
struct LogShard {
    /// The region appends land in.
    active: Region,
    /// The region currently being drained by the cleaner (empty when none
    /// is sealed). Reads merge both regions; appends never touch this.
    sealed: Region,
}

impl LogShard {
    /// The page's chunk lists in the sealed and active regions. Returned as
    /// two borrows so the overwhelmingly common cases — no entries at all, or
    /// entries in only one region — cost no allocation on the read hot path;
    /// only a page split across both regions (i.e. written again while the
    /// cleaner drains its older chunks) pays for a combined ref vector.
    fn region_chunks(
        &self,
        partition: u64,
        lpa: Lpa,
    ) -> (Option<&Vec<ChunkEntry>>, Option<&Vec<ChunkEntry>>) {
        (
            self.sealed.get(&partition).and_then(|pages| pages.get(&lpa)),
            self.active.get(&partition).and_then(|pages| pages.get(&lpa)),
        )
    }
}

/// Coverage of `[offset, offset + len)` by chunks that may span both regions.
fn both_cover(
    sealed: Option<&Vec<ChunkEntry>>,
    active: Option<&Vec<ChunkEntry>>,
    offset: usize,
    len: usize,
) -> bool {
    match (sealed, active) {
        (None, None) => len == 0,
        (Some(c), None) | (None, Some(c)) => chunks_cover(c, offset, len),
        (Some(s), Some(a)) => {
            let refs: Vec<&ChunkEntry> = s.iter().chain(a.iter()).collect();
            refs_cover(&refs, offset, len)
        }
    }
}

/// Merges chunks from both regions onto `page`, newest (by seq) winning.
fn merge_both_into(
    sealed: Option<&Vec<ChunkEntry>>,
    active: Option<&Vec<ChunkEntry>>,
    page: &mut [u8],
) {
    match (sealed, active) {
        (None, None) => {}
        (Some(c), None) | (None, Some(c)) => merge_chunks_into(c, page),
        (Some(s), Some(a)) => {
            let mut refs: Vec<&ChunkEntry> = s.iter().chain(a.iter()).collect();
            merge_refs_into(&mut refs, page);
        }
    }
}

/// The concurrent write log used by the device: per-partition-shard locking
/// for the index, lock-free atomics for space accounting.
///
/// Observationally equivalent to [`WriteLog`] under single-threaded use (the
/// property tests in `tests/sharded_log_equiv.rs` check this); under
/// concurrent use, appends to different partitions proceed in parallel and
/// only [`ShardedWriteLog::drain_for_cleaning`] stops the world (it locks all
/// shards, which is exactly the paper's stop-and-clean semantics).
///
/// Lock order: callers holding device-level locks (FTL, TxLog) may take shard
/// locks, never the reverse. Within this type, shards are only ever locked
/// one at a time or in ascending index order.
#[derive(Debug)]
pub struct ShardedWriteLog {
    shards: Vec<Mutex<LogShard>>,
    capacity_bytes: usize,
    clean_threshold: f64,
    page_size: usize,
    pages_per_partition: u64,
    used_bytes: CachePadded<AtomicUsize>,
    entries: CachePadded<AtomicUsize>,
    seq: CachePadded<AtomicU64>,
    write_cursor: CachePadded<AtomicUsize>,
    /// Power-failure injection plan shared with the rest of the device.
    /// Gates sealing and sealed-region drains so a cut mid-cleaning leaves a
    /// partially-drained sealed region behind, exactly like real power loss.
    fault: FaultPlan,
}

impl ShardedWriteLog {
    /// Creates a sharded write log sized by `cfg.dram_region_bytes`.
    pub fn new(cfg: &MssdConfig) -> Self {
        Self {
            shards: (0..LOG_SHARDS).map(|_| Mutex::new(LogShard::default())).collect(),
            capacity_bytes: cfg.dram_region_bytes,
            clean_threshold: cfg.log_clean_threshold,
            page_size: cfg.page_size,
            pages_per_partition: (PARTITION_BYTES / cfg.page_size as u64).max(1),
            used_bytes: CachePadded::default(),
            entries: CachePadded::default(),
            seq: CachePadded::default(),
            write_cursor: CachePadded::default(),
            fault: cfg.fault.clone(),
        }
    }

    /// Total log-region capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently occupied (data entries + index overhead).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes.0.load(Ordering::Relaxed)
    }

    /// Number of live chunk entries.
    pub fn entries(&self) -> usize {
        self.entries.0.load(Ordering::Relaxed)
    }

    /// Log-region utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used_bytes() as f64 / self.capacity_bytes as f64
    }

    /// `true` once utilization exceeds the cleaning threshold.
    pub fn needs_cleaning(&self) -> bool {
        self.utilization() >= self.clean_threshold
    }

    fn partition_of(&self, lpa: Lpa) -> u64 {
        lpa / self.pages_per_partition
    }

    /// The shard index serving `lpa` (exposed so tests can construct
    /// deliberately contended or disjoint access patterns).
    pub fn shard_of(&self, lpa: Lpa) -> usize {
        (self.partition_of(lpa) % LOG_SHARDS as u64) as usize
    }

    /// Appends a byte-granular write, taking only the one shard lock that
    /// covers the page's partition.
    ///
    /// # Errors
    ///
    /// Returns [`LogFull`] when the entry does not fit; the caller must run
    /// log cleaning first.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the chunk crosses a page boundary.
    pub fn append(
        &self,
        lpa: Lpa,
        offset: usize,
        data: &[u8],
        txid: Option<TxId>,
    ) -> Result<(), LogFull> {
        debug_assert!(!data.is_empty(), "empty log append");
        debug_assert!(
            offset + data.len() <= self.page_size,
            "log entries must not cross page boundaries"
        );
        // Lock the shard *before* reserving space: drain_for_cleaning holds
        // every shard lock while it zeroes the space accounting, so holding
        // ours here means no reservation can race with a drain.
        let mut shard = self.shards[self.shard_of(lpa)].lock();
        let footprint = data.len().div_ceil(CACHELINE) * CACHELINE + ENTRY_OVERHEAD;
        self.try_reserve(footprint)?;
        self.insert_reserved(&mut shard, lpa, offset, data, txid, footprint);
        Ok(())
    }

    /// Reserves `footprint` bytes of log space, failing if the region is full.
    fn try_reserve(&self, footprint: usize) -> Result<(), LogFull> {
        let mut used = self.used_bytes.0.load(Ordering::Relaxed);
        loop {
            if used + footprint > self.capacity_bytes {
                return Err(LogFull {
                    needed: footprint,
                    free: self.capacity_bytes.saturating_sub(used),
                });
            }
            match self.used_bytes.0.compare_exchange_weak(
                used,
                used + footprint,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(cur) => used = cur,
            }
        }
    }

    /// Inserts an entry whose space is already accounted for. The caller holds
    /// the shard lock for `lpa`.
    fn insert_reserved(
        &self,
        shard: &mut LogShard,
        lpa: Lpa,
        offset: usize,
        data: &[u8],
        txid: Option<TxId>,
        footprint: usize,
    ) {
        let entry = ChunkEntry {
            offset,
            data: data.to_vec(),
            txid,
            seq: self.seq.0.fetch_add(1, Ordering::Relaxed),
            log_off: self.write_cursor.0.fetch_add(footprint, Ordering::Relaxed)
                % self.capacity_bytes.max(1),
        };
        self.entries.0.fetch_add(1, Ordering::Relaxed);
        let partition = self.partition_of(lpa);
        push_chunk(&mut shard.active, partition, lpa, entry);
    }

    /// Whether any log entries exist for the page (in either region).
    pub fn has_page(&self, lpa: Lpa) -> bool {
        let shard = self.shards[self.shard_of(lpa)].lock();
        let (sealed, active) = shard.region_chunks(self.partition_of(lpa), lpa);
        sealed.is_some() || active.is_some()
    }

    /// `true` if `[offset, offset + len)` of the page is fully covered by log
    /// entries (across both regions).
    pub fn covers(&self, lpa: Lpa, offset: usize, len: usize) -> bool {
        let shard = self.shards[self.shard_of(lpa)].lock();
        let (sealed, active) = shard.region_chunks(self.partition_of(lpa), lpa);
        (sealed.is_some() || active.is_some()) && both_cover(sealed, active, offset, len)
    }

    /// Serves a byte read entirely from the log if the range is covered:
    /// returns the merged bytes of `[offset, offset + len)` under a single
    /// shard-lock acquisition, or `None` when flash must be consulted.
    pub fn read_covered(&self, lpa: Lpa, offset: usize, len: usize) -> Option<Vec<u8>> {
        let shard = self.shards[self.shard_of(lpa)].lock();
        let (sealed, active) = shard.region_chunks(self.partition_of(lpa), lpa);
        if (sealed.is_none() && active.is_none()) || !both_cover(sealed, active, offset, len) {
            return None;
        }
        let mut page = vec![0u8; self.page_size];
        merge_both_into(sealed, active, &mut page);
        Some(page[offset..offset + len].to_vec())
    }

    /// Reads `[offset, offset + len)` of a page through the log: ranges fully
    /// covered by log entries are served without calling `fetch`; otherwise
    /// `fetch` supplies the backing flash page (and its latency) and the log
    /// entries are overlaid. The whole read happens under the page's shard
    /// lock, so a concurrent cleaner (which takes the same shard lock per
    /// page) can never drain entries between the fetch and the overlay.
    ///
    /// # Errors
    ///
    /// Whatever `fetch` returns (an uncorrectable backing read).
    pub fn read_range<F>(
        &self,
        lpa: Lpa,
        offset: usize,
        len: usize,
        fetch: F,
    ) -> Result<(Vec<u8>, u64), FlashError>
    where
        F: FnOnce() -> Result<(Vec<u8>, u64), FlashError>,
    {
        let shard = self.shards[self.shard_of(lpa)].lock();
        let (sealed, active) = shard.region_chunks(self.partition_of(lpa), lpa);
        if (sealed.is_some() || active.is_some()) && both_cover(sealed, active, offset, len) {
            let mut page = vec![0u8; self.page_size];
            merge_both_into(sealed, active, &mut page);
            return Ok((page[offset..offset + len].to_vec(), 0));
        }
        let (mut page, cost) = fetch()?;
        merge_both_into(sealed, active, &mut page);
        Ok((page[offset..offset + len].to_vec(), cost))
    }

    /// Applies all log entries for `lpa` (both regions) onto `page`
    /// oldest-first, so the newest write wins.
    pub fn merge_into(&self, lpa: Lpa, page: &mut [u8]) {
        let shard = self.shards[self.shard_of(lpa)].lock();
        let (sealed, active) = shard.region_chunks(self.partition_of(lpa), lpa);
        merge_both_into(sealed, active, page);
    }

    /// Invalidates all log entries of a page (both regions). Returns the
    /// number dropped.
    pub fn invalidate_page(&self, lpa: Lpa) -> usize {
        let (dropped, ()) = self.invalidate_page_and(lpa, || ());
        dropped
    }

    /// Invalidates all log entries of a page, then runs `f` — still under the
    /// page's shard lock. The device uses this for block-interface
    /// overwrites: the invalidation and the FTL buffer write must be atomic
    /// against the cleaner, or a drained stale chunk could be merged on top
    /// of the fresh block data.
    pub fn invalidate_page_and<R>(&self, lpa: Lpa, f: impl FnOnce() -> R) -> (usize, R) {
        let partition = self.partition_of(lpa);
        let mut shard = self.shards[self.shard_of(lpa)].lock();
        let mut dropped = 0;
        let LogShard { sealed, active } = &mut *shard;
        for region in [sealed, active] {
            let Some(pages) = region.get_mut(&partition) else { continue };
            let Some(chunks) = pages.remove(&lpa) else { continue };
            let freed: usize = chunks.iter().map(ChunkEntry::footprint).sum();
            self.used_bytes.0.fetch_sub(freed, Ordering::Relaxed);
            self.entries.0.fetch_sub(chunks.len(), Ordering::Relaxed);
            if pages.is_empty() {
                region.remove(&partition);
            }
            dropped += chunks.len();
        }
        let r = f();
        (dropped, r)
    }

    /// All page addresses that currently have log entries, in ascending order.
    /// Shards are visited one at a time, so the result is a consistent union
    /// only at quiescent points.
    pub fn dirty_pages(&self) -> Vec<Lpa> {
        let mut pages: Vec<Lpa> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for region in [&shard.sealed, &shard.active] {
                pages.extend(region.values().flat_map(|index| index.keys().copied()));
            }
        }
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    // ------------------------------------------------------------------
    // Double-buffered cleaning
    // ------------------------------------------------------------------

    /// Seals a shard's active region: flips it into the sealed slot under a
    /// brief per-shard lock (an O(1) map move — the paper's double-buffered
    /// region switch). Returns `false` when there is nothing to seal or the
    /// previous sealed region has not been fully drained yet.
    pub fn seal_shard(&self, shard: usize) -> bool {
        if self.fault.is_cut() {
            return false; // power is off: the region flip never happens
        }
        let mut guard = self.shards[shard].lock();
        if guard.active.is_empty() || !guard.sealed.is_empty() {
            return false;
        }
        guard.sealed = std::mem::take(&mut guard.active);
        true
    }

    /// Seals every shard that has unsealed entries (used before crash tests
    /// and by the foreground space-admission fallback).
    pub fn seal_all(&self) {
        for i in 0..self.shards.len() {
            self.seal_shard(i);
        }
    }

    /// Whether any shard currently holds a sealed, not-yet-drained region.
    pub fn has_sealed_work(&self) -> bool {
        self.shards.iter().any(|s| !s.lock().sealed.is_empty())
    }

    /// Drains up to `max_pages` pages from a shard's sealed region, holding
    /// only that one shard lock. For each page, the committed chunks are
    /// handed to `apply` — which merges them into flash while the shard lock
    /// is still held, so readers and block-interface writers of those pages
    /// cannot interleave with the merge — and their space is released;
    /// uncommitted chunks migrate back into the shard's active region with
    /// their original sequence numbers.
    ///
    /// `verdicts` is invoked **once per step**, after the shard lock is
    /// taken, and returns the commit predicate used for every chunk of the
    /// step (the device has it lock the TxLog — shard → txlog order — and
    /// hold the guard for the whole step). One consistent snapshot matters:
    /// sampling per chunk would let a racing `COMMIT` split one
    /// transaction's chunks for the *same page* between merge-to-flash and
    /// migrate-back, and the migrated older chunk would later overlay the
    /// newer merged data.
    ///
    /// Returns the number of pages processed (0 means the sealed region is
    /// empty) plus the chunk count and the accumulated `apply` cost.
    pub fn drain_sealed_step<F, V, G>(
        &self,
        shard: usize,
        max_pages: usize,
        verdicts: F,
        mut apply: G,
    ) -> SealedStep
    where
        F: FnOnce() -> V,
        V: Fn(TxId) -> bool,
        G: FnMut(Lpa, &[ChunkEntry]) -> u64,
    {
        let mut guard = self.shards[shard].lock();
        let is_committed = verdicts();
        let mut step = SealedStep::default();
        while step.pages < max_pages {
            let Some(mut first) = guard.sealed.first_entry() else { break };
            // One counted fault step per sealed page about to be migrated: a
            // power cut here leaves the region partially drained (pages not
            // yet migrated stay sealed; pages already merged are in the FTL
            // write buffer, which is battery-backed).
            if !self.fault.step(FaultKind::SealDrain) {
                break;
            }
            let partition = *first.key();
            let Some((lpa, chunks)) = first.get_mut().pop_first() else {
                first.remove();
                continue;
            };
            if first.get().is_empty() {
                first.remove();
            }
            let drained_count = chunks.len();
            let drained_bytes: usize = chunks.iter().map(ChunkEntry::footprint).sum();
            // Committed chunks merge into flash; uncommitted survivors go
            // back into the active region with their original seq — clipped
            // against newer committed ranges, exactly like the
            // stop-the-world drain (see split_page_chunks).
            let (committed, survivors) = split_page_chunks(chunks, &is_committed, true);
            let mut kept_count = 0usize;
            let mut kept_bytes = 0usize;
            for c in survivors {
                kept_count += 1;
                kept_bytes += c.footprint();
                push_chunk(&mut guard.active, partition, lpa, c);
            }
            if !committed.is_empty() {
                step.cost += apply(lpa, &committed);
                step.merged_pages += 1;
                step.chunks += committed.len();
            }
            // Space accounting: everything drained minus what survived
            // (clipping usually shrinks survivors; re-alignment of split
            // pieces can in corner cases grow them, so keep it signed).
            if drained_bytes >= kept_bytes {
                self.used_bytes.0.fetch_sub(drained_bytes - kept_bytes, Ordering::Relaxed);
            } else {
                self.used_bytes.0.fetch_add(kept_bytes - drained_bytes, Ordering::Relaxed);
            }
            if kept_count >= drained_count {
                self.entries.0.fetch_add(kept_count - drained_count, Ordering::Relaxed);
            } else {
                self.entries.0.fetch_sub(drained_count - kept_count, Ordering::Relaxed);
            }
            step.pages += 1;
        }
        step
    }

    /// Locks every shard (ascending index order) for a stop-the-world
    /// operation: recovery, forced cleaning, and the space-admission
    /// fallback. While the returned guard lives, no append, read or cleaner
    /// step can interleave.
    pub fn lock_all(&self) -> AllShards<'_> {
        AllShards { log: self, guards: self.shards.iter().map(|s| s.lock()).collect() }
    }

    /// Drains the entire log (sealed and active regions of every shard) for
    /// cleaning. Holds every shard lock for the duration.
    ///
    /// Note for callers that subsequently merge the batch into flash: prefer
    /// [`ShardedWriteLog::lock_all`] + [`AllShards::drain`] and do the merge
    /// while the guard is held, otherwise a concurrent reader can observe the
    /// window where entries have left the log but not yet reached flash.
    pub fn drain_for_cleaning<F>(&self, is_committed: F) -> CleanBatch
    where
        F: Fn(TxId) -> bool,
    {
        self.lock_all().drain(is_committed)
    }

    /// Re-inserts migrated (uncommitted) entries after cleaning, preserving
    /// each entry's original sequence number: a writer may append a newer
    /// version of the same range between the drain and this call, and the
    /// migrated (older) chunk must not outrank it in merge order.
    ///
    /// Unlike [`ShardedWriteLog::append`] this never fails: the entries came
    /// out of the same log region, so semantically they still own their
    /// space. If other writers raced in after the drain, the accounting may
    /// transiently overshoot capacity, which simply triggers the next
    /// cleaning pass sooner.
    pub fn reinstate(&self, migrated: Vec<(Lpa, ChunkEntry)>) {
        for (lpa, mut entry) in migrated {
            let mut shard = self.shards[self.shard_of(lpa)].lock();
            let footprint = entry.footprint();
            self.used_bytes.0.fetch_add(footprint, Ordering::Relaxed);
            entry.log_off = self.write_cursor.0.fetch_add(footprint, Ordering::Relaxed)
                % self.capacity_bytes.max(1);
            self.entries.0.fetch_add(1, Ordering::Relaxed);
            let partition = self.partition_of(lpa);
            push_chunk(&mut shard.active, partition, lpa, entry);
        }
    }

    /// Clears the log without flushing anything (mkfs / tests only).
    pub fn reset(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        for guard in &mut guards {
            guard.active.clear();
            guard.sealed.clear();
        }
        self.used_bytes.0.store(0, Ordering::Relaxed);
        self.entries.0.store(0, Ordering::Relaxed);
        self.write_cursor.0.store(0, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Crash imaging (crashkit)
    // ------------------------------------------------------------------

    /// Exports every entry (both regions of every shard) plus the next
    /// sequence number, as battery-backed DRAM content for a crash image.
    /// Entries come out sorted by `(lpa, seq)` so the image is deterministic.
    /// Only meaningful at a quiescent point (shards are locked one at a
    /// time).
    pub fn export_entries(&self) -> (Vec<LogEntryImage>, u64) {
        let mut out = Vec::with_capacity(self.entries());
        for shard in &self.shards {
            let guard = shard.lock();
            for (region, sealed) in [(&guard.sealed, true), (&guard.active, false)] {
                for pages in region.values() {
                    for (&lpa, chunks) in pages {
                        for c in chunks {
                            out.push(LogEntryImage {
                                lpa,
                                offset: c.offset,
                                data: c.data.clone(),
                                txid: c.txid,
                                seq: c.seq,
                                sealed,
                            });
                        }
                    }
                }
            }
        }
        out.sort_by_key(|e| (e.lpa, e.seq));
        (out, self.seq.0.load(Ordering::SeqCst))
    }

    /// Restores entries captured by [`ShardedWriteLog::export_entries`] into
    /// an empty log, preserving sequence numbers and region (sealed/active)
    /// placement. Used by crash-image restoration; panics if the log is not
    /// empty.
    pub fn restore_entries(&self, entries: &[LogEntryImage], next_seq: u64) {
        assert_eq!(self.entries(), 0, "crash-image restore requires an empty log");
        for e in entries {
            let mut shard = self.shards[self.shard_of(e.lpa)].lock();
            let entry = ChunkEntry {
                offset: e.offset,
                data: e.data.clone(),
                txid: e.txid,
                seq: e.seq,
                log_off: self.write_cursor.0.load(Ordering::Relaxed),
            };
            let footprint = entry.footprint();
            self.used_bytes.0.fetch_add(footprint, Ordering::Relaxed);
            self.write_cursor.0.fetch_add(footprint, Ordering::Relaxed);
            self.entries.0.fetch_add(1, Ordering::Relaxed);
            let partition = self.partition_of(e.lpa);
            let region = if e.sealed { &mut shard.sealed } else { &mut shard.active };
            push_chunk(region, partition, e.lpa, entry);
        }
        self.seq.0.store(next_seq, Ordering::SeqCst);
    }
}

/// One write-log entry captured in a crash image (see
/// [`ShardedWriteLog::export_entries`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntryImage {
    /// Logical page the chunk belongs to.
    pub lpa: Lpa,
    /// Byte offset within the page.
    pub offset: usize,
    /// The written bytes.
    pub data: Vec<u8>,
    /// Transaction the write belongs to (`None` = immediately committed).
    pub txid: Option<TxId>,
    /// Original global sequence number (preserved across restore).
    pub seq: u64,
    /// Whether the entry sat in a sealed (being-drained) region.
    pub sealed: bool,
}

/// Progress report of one [`ShardedWriteLog::drain_sealed_step`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct SealedStep {
    /// Pages taken out of the sealed region (committed or migrated).
    pub pages: usize,
    /// Pages that had committed chunks and were merged into flash.
    pub merged_pages: usize,
    /// Committed chunks merged into flash. Zero means the step freed no log
    /// space (everything it processed was uncommitted and migrated back).
    pub chunks: usize,
    /// Accumulated cost returned by the apply callback.
    pub cost: u64,
}

/// Every shard locked at once (see [`ShardedWriteLog::lock_all`]).
pub struct AllShards<'a> {
    log: &'a ShardedWriteLog,
    guards: Vec<parking_lot::MutexGuard<'a, LogShard>>,
}

impl AllShards<'_> {
    /// Drains sealed and active regions of every shard into a [`CleanBatch`]
    /// with **cleaning** semantics — uncommitted chunks survive (the caller
    /// reinstates `migrated`), clipped against the byte ranges of newer
    /// committed chunks being merged (see `split_page_chunks`). Zeroes
    /// the space accounting; the guard stays held, so the caller can merge
    /// the batch into flash and [`AllShards::reinstate`] the remainder with
    /// no reader-visible window.
    pub fn drain<F>(&mut self, is_committed: F) -> CleanBatch
    where
        F: Fn(TxId) -> bool,
    {
        self.drain_inner(is_committed, true)
    }

    /// Drains with **recovery** semantics: uncommitted chunks are being
    /// discarded (not reinstated), so every committed chunk merges and seq
    /// order within each page image settles overlaps.
    pub fn drain_discarding<F>(&mut self, is_committed: F) -> CleanBatch
    where
        F: Fn(TxId) -> bool,
    {
        self.drain_inner(is_committed, false)
    }

    fn drain_inner<F>(&mut self, is_committed: F, preserve_uncommitted: bool) -> CleanBatch
    where
        F: Fn(TxId) -> bool,
    {
        let mut batch = CleanBatch::default();
        for guard in &mut self.guards {
            let sealed = std::mem::take(&mut guard.sealed);
            let mut combined = std::mem::take(&mut guard.active);
            // Fold sealed chunks into the active lists so each page surfaces
            // exactly once in the batch (order is irrelevant: committed
            // chunks are sorted by seq downstream).
            for (partition, pages) in sealed {
                for (lpa, chunks) in pages {
                    for c in chunks {
                        push_chunk(&mut combined, partition, lpa, c);
                    }
                }
            }
            drain_partitions_into(combined, &is_committed, preserve_uncommitted, &mut batch);
        }
        batch.pages.sort_by_key(|(lpa, _)| *lpa);
        batch.migrated.sort_by_key(|(lpa, c)| (*lpa, c.seq));
        self.log.used_bytes.0.store(0, Ordering::Relaxed);
        self.log.entries.0.store(0, Ordering::Relaxed);
        self.log.write_cursor.0.store(0, Ordering::Relaxed);
        batch
    }

    /// Re-inserts migrated (uncommitted) entries into the active regions
    /// while all shards are still locked, preserving original sequence
    /// numbers (see [`ShardedWriteLog::reinstate`]).
    pub fn reinstate(&mut self, migrated: Vec<(Lpa, ChunkEntry)>) {
        for (lpa, mut entry) in migrated {
            let footprint = entry.footprint();
            self.log.used_bytes.0.fetch_add(footprint, Ordering::Relaxed);
            entry.log_off = self.log.write_cursor.0.fetch_add(footprint, Ordering::Relaxed)
                % self.log.capacity_bytes.max(1);
            self.log.entries.0.fetch_add(1, Ordering::Relaxed);
            let partition = self.log.partition_of(lpa);
            let shard = self.log.shard_of(lpa);
            push_chunk(&mut self.guards[shard].active, partition, lpa, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_log() -> WriteLog {
        WriteLog::new(&MssdConfig::small_test())
    }

    #[test]
    fn append_and_merge() {
        let mut log = small_log();
        log.append(3, 128, &[1u8; 64], None).unwrap();
        log.append(3, 192, &[2u8; 64], None).unwrap();
        assert_eq!(log.entries(), 2);
        assert!(log.has_page(3));
        let mut page = vec![0u8; 4096];
        log.merge_into(3, &mut page);
        assert_eq!(&page[128..192], &[1u8; 64][..]);
        assert_eq!(&page[192..256], &[2u8; 64][..]);
        assert_eq!(&page[0..128], &[0u8; 128][..]);
    }

    #[test]
    fn newer_write_wins_on_overlap() {
        let mut log = small_log();
        log.append(1, 0, &[1u8; 128], None).unwrap();
        log.append(1, 64, &[2u8; 64], None).unwrap();
        let mut page = vec![0u8; 4096];
        log.merge_into(1, &mut page);
        assert_eq!(&page[0..64], &[1u8; 64][..]);
        assert_eq!(&page[64..128], &[2u8; 64][..]);
    }

    #[test]
    fn coverage_detection() {
        let mut log = small_log();
        log.append(9, 0, &[5u8; 64], None).unwrap();
        log.append(9, 64, &[6u8; 64], None).unwrap();
        assert!(log.covers(9, 0, 128));
        assert!(log.covers(9, 32, 64));
        assert!(!log.covers(9, 0, 129));
        assert!(!log.covers(9, 200, 8));
        assert!(!log.covers(10, 0, 1));
        // Gap in the middle is detected.
        log.append(9, 256, &[7u8; 64], None).unwrap();
        assert!(!log.covers(9, 0, 320));
    }

    #[test]
    fn footprint_is_cacheline_aligned() {
        let e = ChunkEntry { offset: 0, data: vec![0; 1], txid: None, seq: 0, log_off: 0 };
        assert_eq!(e.footprint(), 64 + ENTRY_OVERHEAD);
        let e = ChunkEntry { offset: 0, data: vec![0; 65], txid: None, seq: 0, log_off: 0 };
        assert_eq!(e.footprint(), 128 + ENTRY_OVERHEAD);
    }

    #[test]
    fn log_full_is_reported() {
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 4096;
        let mut log = WriteLog::new(&cfg);
        let mut appended = 0;
        loop {
            match log.append(appended, 0, &[1u8; 64], None) {
                Ok(()) => appended += 1,
                Err(err) => {
                    assert!(err.free < err.needed);
                    break;
                }
            }
        }
        assert!(appended > 0);
        assert!(log.utilization() > 0.9);
    }

    #[test]
    fn needs_cleaning_at_threshold() {
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 8192;
        cfg.log_clean_threshold = 0.5;
        let mut log = WriteLog::new(&cfg);
        assert!(!log.needs_cleaning());
        for i in 0..52 {
            log.append(i, 0, &[0u8; 64], None).unwrap();
        }
        assert!(log.needs_cleaning());
    }

    #[test]
    fn invalidate_frees_space() {
        let mut log = small_log();
        log.append(4, 0, &[1u8; 64], None).unwrap();
        log.append(4, 64, &[1u8; 64], None).unwrap();
        log.append(5, 0, &[1u8; 64], None).unwrap();
        let used_before = log.used_bytes();
        assert_eq!(log.invalidate_page(4), 2);
        assert!(log.used_bytes() < used_before);
        assert!(!log.has_page(4));
        assert!(log.has_page(5));
        assert_eq!(log.invalidate_page(4), 0);
    }

    #[test]
    fn cleaning_separates_committed_and_uncommitted() {
        let mut log = small_log();
        log.append(1, 0, &[1u8; 64], Some(TxId(1))).unwrap();
        log.append(1, 64, &[2u8; 64], Some(TxId(2))).unwrap();
        log.append(2, 0, &[3u8; 64], None).unwrap();
        let batch = log.drain_for_cleaning(|tx| tx == TxId(1));
        assert_eq!(log.entries(), 0);
        assert_eq!(log.used_bytes(), 0);
        // Page 1 has one committed chunk, page 2 one non-transactional chunk.
        assert_eq!(batch.pages.len(), 2);
        assert_eq!(batch.pages[0].0, 1);
        assert_eq!(batch.pages[0].1.len(), 1);
        assert_eq!(batch.pages[1].0, 2);
        // The TxId(2) entry was migrated.
        assert_eq!(batch.migrated.len(), 1);
        assert_eq!(batch.migrated[0].0, 1);
        assert_eq!(batch.migrated[0].1.txid, Some(TxId(2)));
    }

    #[test]
    fn reinstate_restores_migrated_entries() {
        let mut log = small_log();
        log.append(7, 0, &[9u8; 64], Some(TxId(3))).unwrap();
        let batch = log.drain_for_cleaning(|_| false);
        assert!(batch.pages.is_empty());
        log.reinstate(batch.migrated);
        assert_eq!(log.entries(), 1);
        assert!(log.covers(7, 0, 64));
        let mut page = vec![0u8; 4096];
        log.merge_into(7, &mut page);
        assert_eq!(&page[0..64], &[9u8; 64][..]);
    }

    #[test]
    fn dirty_pages_are_sorted_unique() {
        let mut log = small_log();
        log.append(9, 0, &[1u8; 64], None).unwrap();
        log.append(2, 0, &[1u8; 64], None).unwrap();
        log.append(9, 64, &[1u8; 64], None).unwrap();
        assert_eq!(log.dirty_pages(), vec![2, 9]);
    }

    #[test]
    fn partitions_split_address_space() {
        let cfg = MssdConfig::small_test();
        let mut log = WriteLog::new(&cfg);
        let pages_per_partition = PARTITION_BYTES / cfg.page_size as u64;
        log.append(0, 0, &[1u8; 64], None).unwrap();
        log.append(pages_per_partition + 1, 0, &[1u8; 64], None).unwrap();
        assert_eq!(log.partitions.len(), 2);
        assert_eq!(log.dirty_pages().len(), 2);
    }

    #[test]
    fn sharded_append_merge_and_accounting() {
        let sharded = ShardedWriteLog::new(&MssdConfig::small_test());
        sharded.append(3, 128, &[1u8; 64], None).unwrap();
        sharded.append(3, 192, &[2u8; 64], None).unwrap();
        assert_eq!(sharded.entries(), 2);
        assert!(sharded.has_page(3));
        assert!(sharded.covers(3, 128, 128));
        assert!(!sharded.covers(3, 0, 64));
        let mut page = vec![0u8; 4096];
        sharded.merge_into(3, &mut page);
        assert_eq!(&page[128..192], &[1u8; 64][..]);
        assert_eq!(&page[192..256], &[2u8; 64][..]);

        let served = sharded.read_covered(3, 150, 80).expect("covered range");
        assert_eq!(served, page[150..230].to_vec());
        assert!(sharded.read_covered(3, 0, 64).is_none());
        assert!(sharded.read_covered(99, 0, 1).is_none());

        let used_before = sharded.used_bytes();
        assert_eq!(sharded.invalidate_page(3), 2);
        assert_eq!(sharded.used_bytes(), used_before - 2 * (64 + ENTRY_OVERHEAD));
        assert_eq!(sharded.entries(), 0);
    }

    #[test]
    fn sharded_pages_map_to_partition_shards() {
        let cfg = MssdConfig::small_test();
        let sharded = ShardedWriteLog::new(&cfg);
        let ppp = PARTITION_BYTES / cfg.page_size as u64;
        assert_eq!(sharded.shard_of(0), 0);
        assert_eq!(sharded.shard_of(ppp - 1), 0);
        assert_eq!(sharded.shard_of(ppp), 1);
        assert_eq!(sharded.shard_of(ppp * LOG_SHARDS as u64), 0);
    }

    #[test]
    fn sharded_drain_matches_reference_model() {
        let cfg = MssdConfig::small_test();
        let mut reference = WriteLog::new(&cfg);
        let sharded = ShardedWriteLog::new(&cfg);
        let ppp = PARTITION_BYTES / cfg.page_size as u64;
        let writes: Vec<(Lpa, usize, u8, Option<TxId>)> = vec![
            (0, 0, 1, None),
            (ppp, 64, 2, Some(TxId(1))),
            (2 * ppp + 3, 128, 3, Some(TxId(2))),
            (0, 0, 4, None),
            (ppp, 4032, 5, Some(TxId(1))),
        ];
        for (lpa, off, tag, tx) in &writes {
            reference.append(*lpa, *off, &[*tag; 64], *tx).unwrap();
            sharded.append(*lpa, *off, &[*tag; 64], *tx).unwrap();
        }
        assert_eq!(sharded.entries(), reference.entries());
        assert_eq!(sharded.used_bytes(), reference.used_bytes());

        let committed = |tx: TxId| tx == TxId(1);
        let mut ref_batch = reference.drain_for_cleaning(committed);
        let sharded_batch = sharded.drain_for_cleaning(committed);
        ref_batch.migrated.sort_by_key(|(lpa, c)| (*lpa, c.seq));
        assert_eq!(sharded_batch.pages, ref_batch.pages);
        assert_eq!(sharded_batch.migrated, ref_batch.migrated);
        assert_eq!(sharded.entries(), 0);
        assert_eq!(sharded.used_bytes(), 0);
    }

    #[test]
    fn sharded_concurrent_appends_from_disjoint_partitions() {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 256 << 20; // room for several partitions
        cfg.dram_region_bytes = 4 << 20;
        let log = std::sync::Arc::new(ShardedWriteLog::new(&cfg));
        let ppp = PARTITION_BYTES / cfg.page_size as u64;
        let threads = 4u64;
        let per_thread = 500usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    let base = t * ppp;
                    for i in 0..per_thread {
                        let lpa = base + (i % 8) as u64;
                        let off = (i * 64) % 4096;
                        log.append(lpa, off, &[t as u8 + 1; 64], None).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.entries(), threads as usize * per_thread);
        let expected_used = threads as usize * per_thread * (64 + ENTRY_OVERHEAD);
        assert_eq!(log.used_bytes(), expected_used);
        // Every thread's pages merged independently: newest tag everywhere.
        for t in 0..threads {
            let mut page = vec![0u8; 4096];
            log.merge_into(t * ppp, &mut page);
            assert!(page[..64].iter().all(|b| *b == t as u8 + 1), "thread {t}");
        }
    }

    #[test]
    fn reinstated_entries_never_outrank_newer_writes() {
        // A migrated (uncommitted) chunk is drained, a *newer* write to the
        // same range lands before the reinstate, and the reinstated chunk
        // must keep its original (older) sequence so the newer write wins.
        let cfg = MssdConfig::small_test();
        for preserve in [true, false] {
            let sharded = ShardedWriteLog::new(&cfg);
            sharded.append(1, 0, &[1u8; 64], Some(TxId(7))).unwrap();
            let batch = sharded.drain_for_cleaning(|_| false);
            assert_eq!(batch.migrated.len(), 1);
            // The racing newer write to the same range.
            sharded.append(1, 0, &[2u8; 64], None).unwrap();
            if preserve {
                sharded.reinstate(batch.migrated);
            }
            let mut page = vec![0u8; 4096];
            sharded.merge_into(1, &mut page);
            assert_eq!(&page[..64], &[2u8; 64][..], "newer write must win (preserve={preserve})");
        }

        // The sequential reference model behaves identically.
        let mut reference = WriteLog::new(&cfg);
        reference.append(1, 0, &[1u8; 64], Some(TxId(7))).unwrap();
        let batch = reference.drain_for_cleaning(|_| false);
        reference.append(1, 0, &[2u8; 64], None).unwrap();
        reference.reinstate(batch.migrated);
        let mut page = vec![0u8; 4096];
        reference.merge_into(1, &mut page);
        assert_eq!(&page[..64], &[2u8; 64][..]);
    }

    #[test]
    fn seal_flips_regions_and_reads_merge_both() {
        let sharded = ShardedWriteLog::new(&MssdConfig::small_test());
        sharded.append(1, 0, &[1u8; 64], None).unwrap();
        assert!(sharded.seal_shard(sharded.shard_of(1)));
        // Sealed again without new appends: nothing to seal.
        assert!(!sharded.seal_shard(sharded.shard_of(1)));
        assert!(sharded.has_sealed_work());
        // Entries in the sealed region stay visible.
        assert!(sharded.has_page(1));
        assert!(sharded.covers(1, 0, 64));
        assert_eq!(sharded.read_covered(1, 0, 64).unwrap(), vec![1u8; 64]);
        // A newer overlapping append lands in the fresh active region and
        // wins the merge.
        sharded.append(1, 32, &[2u8; 64], None).unwrap();
        let mut page = vec![0u8; 4096];
        sharded.merge_into(1, &mut page);
        assert_eq!(&page[..32], &[1u8; 32][..]);
        assert_eq!(&page[32..96], &[2u8; 64][..]);
        // Cannot re-seal while the sealed region is undrained.
        assert!(!sharded.seal_shard(sharded.shard_of(1)));
        // invalidate_page drops entries from both regions.
        assert_eq!(sharded.invalidate_page(1), 2);
        assert_eq!(sharded.entries(), 0);
        assert_eq!(sharded.used_bytes(), 0);
    }

    #[test]
    fn drain_sealed_step_is_incremental_and_migrates_uncommitted() {
        let sharded = ShardedWriteLog::new(&MssdConfig::small_test());
        // Three pages in partition 0 (shard 0): two committed, one not.
        sharded.append(1, 0, &[1u8; 64], None).unwrap();
        sharded.append(2, 0, &[2u8; 64], Some(TxId(1))).unwrap();
        sharded.append(3, 0, &[3u8; 64], Some(TxId(9))).unwrap();
        assert!(sharded.seal_shard(0));
        let used_before = sharded.used_bytes();
        let mut applied: Vec<Lpa> = Vec::new();
        // One page per step: three steps to empty the sealed region.
        let mut steps = 0;
        loop {
            let step = sharded.drain_sealed_step(
                0,
                1,
                || |tx: TxId| tx == TxId(1),
                |lpa, chunks| {
                    applied.push(lpa);
                    assert!(!chunks.is_empty());
                    7 // arbitrary cost
                },
            );
            if step.pages == 0 {
                break;
            }
            assert_eq!(step.pages, 1);
            steps += 1;
            assert!(steps <= 3, "at most one step per sealed page");
        }
        assert_eq!(steps, 3);
        assert_eq!(applied, vec![1, 2]);
        assert!(!sharded.has_sealed_work());
        // The uncommitted entry survived into the active region.
        assert_eq!(sharded.entries(), 1);
        assert!(sharded.covers(3, 0, 64));
        assert!(sharded.used_bytes() < used_before);
        // Draining an empty sealed region is a no-op.
        let step = sharded.drain_sealed_step(0, 8, || |_: TxId| true, |_, _| 0);
        assert_eq!(step.pages, 0);
    }

    #[test]
    fn lock_all_drains_sealed_and_active_together() {
        let sharded = ShardedWriteLog::new(&MssdConfig::small_test());
        sharded.append(1, 0, &[1u8; 64], None).unwrap();
        sharded.seal_shard(sharded.shard_of(1));
        sharded.append(1, 64, &[2u8; 64], None).unwrap();
        sharded.append(5, 0, &[3u8; 64], Some(TxId(4))).unwrap();
        let mut all = sharded.lock_all();
        let batch = all.drain(|_| false);
        // Page 1 surfaces once, with chunks from both regions.
        assert_eq!(batch.pages.len(), 1);
        assert_eq!(batch.pages[0].0, 1);
        assert_eq!(batch.pages[0].1.len(), 2);
        assert!(batch.pages[0].1.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(batch.migrated.len(), 1);
        all.reinstate(batch.migrated);
        drop(all);
        assert_eq!(sharded.entries(), 1);
        assert!(sharded.covers(5, 0, 64));
    }

    #[test]
    fn sharded_reinstate_survives_full_accounting() {
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 4096;
        let sharded = ShardedWriteLog::new(&cfg);
        sharded.append(1, 0, &[7u8; 64], Some(TxId(9))).unwrap();
        let batch = sharded.drain_for_cleaning(|_| false);
        assert_eq!(batch.migrated.len(), 1);
        sharded.reinstate(batch.migrated);
        assert_eq!(sharded.entries(), 1);
        assert!(sharded.covers(1, 0, 64));
        assert_eq!(sharded.used_bytes(), 64 + ENTRY_OVERHEAD);
    }
}
