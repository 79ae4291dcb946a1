//! Flash translation layer: logical→physical page mapping, write buffering,
//! and greedy garbage collection.
//!
//! The ByteFS prototype "preserves the original SSD FTL layer and its core
//! functionalities" (§4.9); the emulator incorporates "page allocation,
//! page-level translation, and garbage collection". This module implements
//! exactly that substrate:
//!
//! * a page-level L2P map,
//! * per-channel active blocks with sequential page allocation,
//! * a write buffer (16 MB by default) that batches page programs so that the
//!   channel-parallel program latency model applies, and
//! * greedy garbage collection that relocates valid pages from the block with
//!   the fewest valid pages.
//!
//! All latencies are computed from the [`MssdConfig`] and returned to the
//! caller in nanoseconds; all flash page movements are recorded lock-free in
//! the device's [`AtomicTraffic`] counters.
//!
//! Two implementations live here:
//!
//! * [`Ftl`] — the original single-threaded FTL over one [`FlashArray`]. Kept
//!   as the sequential reference model; the `channel_parallel_equiv` property
//!   tests pin the concurrent implementation to it.
//! * [`ShardedFtl`] — the concurrent FTL used by the device: a lock-striped
//!   L2P mapping table plus one independently locked [`ChannelFlash`] unit per
//!   flash channel (active block, free list, page store and write-buffer
//!   slice), so programs and reads on distinct channels proceed concurrently
//!   in real time, not just in the virtual-latency formula.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::config::MssdConfig;
use crate::ecc::{self, EccOutcome};
use crate::fault::FaultKind;
use crate::flash::{BlockId, ChannelFlash, FlashArray, FlashError, Ppa};
use crate::stats::AtomicTraffic;

/// Logical page address (host-visible page number).
pub type Lpa = u64;

/// One logical page's contents keyed by its LPA (crash-image currency).
pub type LogicalPage = (Lpa, Vec<u8>);

/// The flash translation layer plus the flash array it manages.
#[derive(Debug)]
pub struct Ftl {
    cfg: MssdConfig,
    flash: FlashArray,
    l2p: HashMap<Lpa, Ppa>,
    p2l: HashMap<Ppa, Lpa>,
    valid_count: Vec<usize>,
    /// Free (erased, unallocated) blocks per channel.
    free_blocks: Vec<VecDeque<BlockId>>,
    /// Active (currently being filled) block per channel and its next offset.
    active: Vec<Option<(BlockId, usize)>>,
    active_set: HashSet<BlockId>,
    next_channel: usize,
    /// Buffered (lpa, page data) waiting to be programmed.
    write_buffer: Vec<(Lpa, Vec<u8>)>,
    write_buffer_capacity: usize,
}

impl Ftl {
    /// Creates an FTL over a fresh flash array with the given configuration.
    pub fn new(cfg: MssdConfig) -> Self {
        let flash = FlashArray::new(&cfg);
        let channels = cfg.channels;
        let mut free_blocks: Vec<VecDeque<BlockId>> = vec![VecDeque::new(); channels];
        for block in 0..flash.total_blocks() {
            free_blocks[(block % channels as u64) as usize].push_back(block);
        }
        let total_blocks = flash.total_blocks() as usize;
        let write_buffer_capacity = (cfg.write_buffer_bytes / cfg.page_size).max(1);
        Self {
            cfg,
            flash,
            l2p: HashMap::new(),
            p2l: HashMap::new(),
            valid_count: vec![0; total_blocks],
            free_blocks,
            active: vec![None; channels],
            active_set: HashSet::new(),
            next_channel: 0,
            write_buffer: Vec::new(),
            write_buffer_capacity,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages()
    }

    /// Number of logical pages currently mapped to flash.
    pub fn mapped_pages(&self) -> usize {
        self.l2p.len()
    }

    /// Number of page writes currently sitting in the write buffer.
    pub fn buffered_pages(&self) -> usize {
        self.write_buffer.len()
    }

    /// Whether a logical page has ever been written (mapped or buffered).
    pub fn is_mapped(&self, lpa: Lpa) -> bool {
        self.l2p.contains_key(&lpa) || self.write_buffer.iter().any(|(l, _)| *l == lpa)
    }

    /// Reads a logical page.
    ///
    /// Returns the page contents (zeros if never written) and the latency in
    /// nanoseconds. Pages still sitting in the write buffer are served from
    /// the buffer without a flash access. `internal` marks reads issued by
    /// firmware-internal work (log cleaning read-modify-write) so they are
    /// accounted separately.
    ///
    /// # Errors
    ///
    /// Propagates [`FlashError`] from the flash array. The sequential
    /// reference model does not inject media faults (that machinery lives in
    /// [`ShardedFtl`]), so errors only indicate structural violations.
    pub fn read_page(
        &self,
        lpa: Lpa,
        stats: &AtomicTraffic,
        internal: bool,
    ) -> Result<(Vec<u8>, u64), FlashError> {
        // Newest buffered copy wins.
        if let Some((_, data)) = self.write_buffer.iter().rev().find(|(l, _)| *l == lpa) {
            return Ok((data.clone(), 0));
        }
        match self.l2p.get(&lpa) {
            Some(&ppa) => {
                if internal {
                    stats.inc_flash_read(true);
                } else {
                    stats.inc_flash_read(false);
                }
                let data = self.flash.read_page(ppa)?;
                Ok((data, self.cfg.flash_read_ns))
            }
            None => Ok((vec![0u8; self.cfg.page_size], 0)),
        }
    }

    /// Queues a full-page write into the FTL write buffer.
    ///
    /// Returns the latency charged now (only a buffer drain if the buffer was
    /// full). The page becomes durable only after [`Ftl::flush_buffer`].
    ///
    /// # Errors
    ///
    /// Propagates [`FlashError`] from a buffer drain forced by a full buffer.
    pub fn buffer_write(
        &mut self,
        lpa: Lpa,
        data: Vec<u8>,
        stats: &AtomicTraffic,
    ) -> Result<u64, FlashError> {
        debug_assert!(lpa < self.logical_pages(), "lpa {lpa} out of range");
        let mut cost = 0;
        if self.write_buffer.len() >= self.write_buffer_capacity {
            cost += self.flush_buffer(stats)?;
        }
        // Coalesce a pending write to the same page.
        if let Some(slot) = self.write_buffer.iter_mut().find(|(l, _)| *l == lpa) {
            slot.1 = data;
        } else {
            self.write_buffer.push((lpa, data));
        }
        Ok(cost)
    }

    /// Programs all buffered pages to flash, running garbage collection as
    /// needed. Returns the latency in nanoseconds (channel-parallel).
    ///
    /// # Errors
    ///
    /// Propagates [`FlashError`] from the flash array (structurally
    /// impossible under the allocator's invariants, but no longer unwrapped).
    pub fn flush_buffer(&mut self, stats: &AtomicTraffic) -> Result<u64, FlashError> {
        if self.write_buffer.is_empty() {
            return Ok(0);
        }
        let pending = std::mem::take(&mut self.write_buffer);
        let n = pending.len();
        let mut cost = 0;
        for (lpa, data) in pending {
            cost += self.ensure_free_space(stats)?;
            let ppa = self.allocate_ppa(stats)?;
            self.flash.program_page(ppa, &data)?;
            stats.inc_flash_write(false);
            self.map(lpa, ppa);
        }
        // Program latency: pages on distinct channels proceed in parallel.
        let rounds = n.div_ceil(self.cfg.channels) as u64;
        Ok(cost + rounds * self.cfg.flash_write_ns)
    }

    /// Marks a logical page as no longer containing live data (e.g. the file
    /// system freed the block). The physical page becomes garbage.
    pub fn trim(&mut self, lpa: Lpa) {
        self.write_buffer.retain(|(l, _)| *l != lpa);
        if let Some(ppa) = self.l2p.remove(&lpa) {
            self.p2l.remove(&ppa);
            let block = self.flash.block_of(ppa) as usize;
            self.valid_count[block] = self.valid_count[block].saturating_sub(1);
        }
    }

    /// Fraction of physical pages holding live data.
    pub fn utilization(&self) -> f64 {
        self.l2p.len() as f64 / self.flash.total_pages() as f64
    }

    /// Maximum block erase count (wear indicator), exposed for tests and
    /// reports.
    pub fn max_wear(&self) -> u64 {
        self.flash.max_wear()
    }

    fn map(&mut self, lpa: Lpa, ppa: Ppa) {
        if let Some(old) = self.l2p.insert(lpa, ppa) {
            self.p2l.remove(&old);
            let block = self.flash.block_of(old) as usize;
            self.valid_count[block] = self.valid_count[block].saturating_sub(1);
        }
        self.p2l.insert(ppa, lpa);
        let block = self.flash.block_of(ppa) as usize;
        self.valid_count[block] += 1;
    }

    fn total_free_blocks(&self) -> usize {
        self.free_blocks.iter().map(|q| q.len()).sum()
    }

    /// Allocates the next physical page, filling per-channel active blocks
    /// round-robin.
    fn allocate_ppa(&mut self, stats: &AtomicTraffic) -> Result<Ppa, FlashError> {
        let channels = self.cfg.channels;
        for _ in 0..channels {
            let ch = self.next_channel;
            self.next_channel = (self.next_channel + 1) % channels;
            // Refill the active block for this channel if needed.
            if self.active[ch].is_none() {
                if let Some(block) = self.free_blocks[ch].pop_front() {
                    self.active[ch] = Some((block, 0));
                    self.active_set.insert(block);
                }
            }
            if let Some((block, off)) = self.active[ch] {
                let ppa = self.flash.first_page_of(block) + off as u64;
                let next = off + 1;
                if next >= self.flash.pages_per_block() {
                    self.active[ch] = None;
                    self.active_set.remove(&block);
                } else {
                    self.active[ch] = Some((block, next));
                }
                return Ok(ppa);
            }
        }
        // All channels exhausted: force GC and retry (GC is guaranteed to free
        // a block because logical capacity < physical capacity).
        let freed = self.collect_garbage(stats)?;
        debug_assert!(freed > 0, "garbage collection made no progress");
        self.allocate_ppa(stats)
    }

    /// Runs garbage collection if the free-block pool is low. Returns the
    /// latency spent.
    fn ensure_free_space(&mut self, stats: &AtomicTraffic) -> Result<u64, FlashError> {
        let low_water = self.cfg.channels + 1;
        let mut cost = 0;
        let mut guard = 0;
        while self.total_free_blocks() < low_water {
            let c = self.collect_garbage_cost(stats)?;
            if c == 0 {
                break;
            }
            cost += c;
            guard += 1;
            if guard > self.flash.total_blocks() {
                break;
            }
        }
        Ok(cost)
    }

    /// Greedy GC: relocate valid pages out of the block with the fewest valid
    /// pages, then erase it. Returns number of blocks freed.
    fn collect_garbage(&mut self, stats: &AtomicTraffic) -> Result<usize, FlashError> {
        Ok(if self.collect_garbage_cost(stats)? > 0 { 1 } else { 0 })
    }

    fn collect_garbage_cost(&mut self, stats: &AtomicTraffic) -> Result<u64, FlashError> {
        // Victim: fully-written, non-active block with minimum valid pages.
        let ppb = self.flash.pages_per_block();
        let victim = (0..self.flash.total_blocks())
            .filter(|b| !self.active_set.contains(b))
            .filter(|b| self.flash.block_fill(*b) == ppb)
            .min_by_key(|b| self.valid_count[*b as usize]);
        let Some(victim) = victim else { return Ok(0) };
        stats.trace().emit(
            crate::trace::TraceKind::GcVictim,
            victim,
            self.valid_count[victim as usize] as u64,
        );

        let mut cost = 0;
        let first = self.flash.first_page_of(victim);
        // Relocate valid pages.
        let live: Vec<(Ppa, Lpa)> = (0..ppb as u64)
            .filter_map(|off| {
                let ppa = first + off;
                self.p2l.get(&ppa).map(|lpa| (ppa, *lpa))
            })
            .collect();
        for (ppa, lpa) in live {
            let data = self.flash.read_page(ppa)?;
            stats.inc_flash_read(true);
            cost += self.cfg.flash_read_ns;
            let dst = self.allocate_ppa(stats)?;
            debug_assert_ne!(self.flash.block_of(dst), victim, "GC wrote into its own victim");
            self.flash.program_page(dst, &data)?;
            stats.inc_flash_write(true);
            cost += self.cfg.flash_write_ns;
            self.map(lpa, dst);
        }
        self.flash.erase_block(victim)?;
        stats.inc_flash_erase();
        cost += self.cfg.flash_erase_ns;
        self.valid_count[victim as usize] = 0;
        self.free_blocks[(victim % self.cfg.channels as u64) as usize].push_back(victim);
        Ok(cost)
    }
}

/// Number of independently locked stripes of the [`ShardedFtl`] L2P mapping
/// table. Sequential LPAs land on different stripes, so block-interface
/// streams and GC validation rarely contend on the same stripe lock.
pub const L2P_STRIPES: usize = 64;

/// Maximum read retries (ladder rungs after the initial read) before a
/// corrupted page is declared an uncorrectable error (UECC).
const READ_RETRY_LIMIT: u32 = 4;

/// Where the newest version of a logical page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Programmed on flash at this physical page address.
    Flash(Ppa),
    /// Sitting in this channel's write-buffer slice, not yet programmed.
    Buffered(usize),
}

/// The state owned by one flash channel, guarded by one mutex: the channel's
/// slice of the NAND array, its allocator (active block + free list), its
/// reverse mapping for GC, and its slice of the FTL write buffer.
#[derive(Debug)]
struct Channel {
    flash: ChannelFlash,
    free: VecDeque<BlockId>,
    /// Currently-filling block and its next page offset.
    active: Option<(BlockId, usize)>,
    /// Reverse map for this channel's pages, maintained lazily: entries are
    /// inserted at program time and validated against the L2P table during
    /// GC, so no cross-channel lock is ever needed to invalidate them.
    p2l: HashMap<Ppa, Lpa>,
    /// This channel's slice of the write buffer. Invariant: `lpa` appears in
    /// this buffer **iff** the L2P table maps it to `Loc::Buffered(channel)`;
    /// every transition in or out happens under this channel's lock plus the
    /// page's stripe lock.
    buffer: Vec<(Lpa, Vec<u8>)>,
    buffer_capacity: usize,
    /// The leading pages of `buffer` whose programs are already on the NAND
    /// timeline: the slice was handed over when it filled, the pages stay
    /// here until the drain (`DESIGN-time.md`). Time model only.
    on_nand: usize,
    /// Spare (erased, reserved) blocks kept out of the allocator. When a
    /// block is retired a spare is promoted into `free` one-for-one, so
    /// usable capacity is constant until the pool runs dry.
    spare: VecDeque<BlockId>,
    /// Retired (bad) blocks: permanently removed from allocation. Persisted
    /// in the crash image as the bad-block table.
    bad: Vec<BlockId>,
}

/// Result of draining one channel's write-buffer slice.
#[derive(Debug, Default)]
struct DrainResult {
    /// Latency spent on garbage collection during the drain.
    gc_cost: u64,
    /// Pages programmed (all on this one channel, so they serialize) whose
    /// programs the NAND timeline does not have yet: the hand-over when the
    /// slice filled covered the others.
    off_timeline: usize,
    /// Pages that could not be placed because the channel ran out of erased
    /// blocks even after GC; they remain buffered and the caller migrates
    /// them to another channel.
    stranded: Vec<Lpa>,
    /// First media error encountered during the drain, if any. Pages after
    /// the error remain buffered (still durable in battery-backed DRAM).
    error: Option<FlashError>,
}

/// The concurrent FTL used by the device: a lock-striped L2P mapping table
/// over per-channel flash units.
///
/// * The **mapping table** is striped into [`L2P_STRIPES`] independently
///   locked stripes keyed by LPA.
/// * Each **channel** owns its own [`ChannelFlash`] slice, free list, active
///   block, reverse map and write-buffer slice behind its own mutex, so
///   programs, reads and GC on distinct channels proceed concurrently.
/// * Per-block **valid-page counts** are plain atomics (they are only a GC
///   victim-selection heuristic; GC re-validates every page against the L2P
///   table before relocating it).
///
/// Lock order: **channel → stripe**. Mapping lookups that need no channel
/// state take a stripe lock alone and release it before touching a channel;
/// paths that need both always lock the channel first and then re-validate
/// the mapping under the stripe lock (the mapping may have moved in between).
/// The only place two channel locks are ever held at once is
/// `ShardedFtl::migrate_buffered`, which acquires them in ascending index
/// order.
///
/// Observationally equivalent to [`Ftl`] under single-threaded use — the
/// property tests in `tests/channel_parallel_equiv.rs` pin this — though the
/// physical placement (and therefore GC traffic) differs.
#[derive(Debug)]
pub struct ShardedFtl {
    cfg: MssdConfig,
    stripes: Vec<Mutex<HashMap<Lpa, Loc>>>,
    channels: Vec<Mutex<Channel>>,
    /// Valid (live-mapped) pages per global block id.
    valid: Vec<AtomicUsize>,
    /// Round-robin cursor for picking the channel of a fresh page write.
    rr: AtomicUsize,
    /// Total pages currently in write-buffer slices (all channels).
    buffered: AtomicUsize,
    /// Pages the write buffer holds: every slice full.
    buffer_slots: usize,
    /// Buffered pages whose programs are on the NAND timeline (the sum of
    /// the channels' `on_nand`): the backlog accounts for their slots.
    on_nand: AtomicUsize,
    /// Spare blocks remaining across all channels. A cached gauge so the
    /// stats path never has to lock every channel (which would violate the
    /// one-channel-at-a-time discipline).
    spare_count: AtomicUsize,
    /// Latched when any channel retires a block with an empty spare pool:
    /// the device degrades to read-only instead of panicking.
    read_only: AtomicBool,
    /// The NAND array's one timeline (`DESIGN-time.md`): the virtual ns at
    /// which every page already handed to NAND is programmed; in the past
    /// when the array is idle. `Relaxed` throughout — it is a number of the
    /// latency model and publishes no data.
    nand_busy_until: AtomicU64,
}

impl ShardedFtl {
    /// Creates a channel-parallel FTL over fresh per-channel flash units.
    pub fn new(cfg: MssdConfig) -> Self {
        let mut spare_total = 0usize;
        let slice_pages = (cfg.write_buffer_bytes / cfg.page_size / cfg.channels).max(1);
        let channels: Vec<Mutex<Channel>> = (0..cfg.channels)
            .map(|c| {
                let flash = ChannelFlash::new(&cfg, c);
                let mut free: VecDeque<BlockId> = flash.block_ids().collect();
                // Reserve spares off the back of the free list — the
                // configured count clamped to what over-provisioning
                // affords, always leaving at least one allocatable block.
                let reserve =
                    cfg.effective_spare_blocks_per_channel().min(free.len().saturating_sub(1));
                let mut spare = VecDeque::with_capacity(reserve);
                for _ in 0..reserve {
                    if let Some(b) = free.pop_back() {
                        spare.push_front(b);
                    }
                }
                spare_total += spare.len();
                Mutex::new(Channel {
                    flash,
                    free,
                    active: None,
                    p2l: HashMap::new(),
                    buffer: Vec::new(),
                    buffer_capacity: slice_pages,
                    on_nand: 0,
                    spare,
                    bad: Vec::new(),
                })
            })
            .collect();
        let total_blocks = cfg.physical_blocks() as usize;
        Self {
            stripes: (0..L2P_STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            channels,
            valid: (0..total_blocks).map(|_| AtomicUsize::new(0)).collect(),
            rr: AtomicUsize::new(0),
            buffered: AtomicUsize::new(0),
            buffer_slots: slice_pages * cfg.channels,
            on_nand: AtomicUsize::new(0),
            spare_count: AtomicUsize::new(spare_total),
            read_only: AtomicBool::new(false),
            nand_busy_until: AtomicU64::new(0),
            cfg,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages()
    }

    /// Number of logical pages currently mapped to flash.
    pub fn mapped_pages(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().values().filter(|l| matches!(l, Loc::Flash(_))).count())
            .sum()
    }

    /// Number of page writes currently sitting in write-buffer slices.
    pub fn buffered_pages(&self) -> usize {
        self.buffered.load(Ordering::Relaxed)
    }

    /// Whether a logical page has ever been written (mapped or buffered).
    pub fn is_mapped(&self, lpa: Lpa) -> bool {
        self.peek(lpa).is_some()
    }

    /// Fraction of physical pages holding live data.
    pub fn utilization(&self) -> f64 {
        self.mapped_pages() as f64 / self.cfg.physical_pages() as f64
    }

    /// Maximum block erase count (wear indicator) across all channels.
    pub fn max_wear(&self) -> u64 {
        self.channels.iter().map(|c| c.lock().flash.max_wear()).max().unwrap_or(0)
    }

    fn stripe_of(lpa: Lpa) -> usize {
        (lpa % L2P_STRIPES as u64) as usize
    }

    fn peek(&self, lpa: Lpa) -> Option<Loc> {
        self.stripes[Self::stripe_of(lpa)].lock().get(&lpa).copied()
    }

    fn block_of(&self, ppa: Ppa) -> BlockId {
        ppa / self.cfg.pages_per_block as u64
    }

    fn channel_of(&self, ppa: Ppa) -> usize {
        (self.block_of(ppa) % self.cfg.channels as u64) as usize
    }

    /// Reads a logical page: the channel's buffered copy if one exists, the
    /// flash copy otherwise. Returns the page contents (zeros if never
    /// written) and the latency in nanoseconds.
    ///
    /// Flash reads pass through the media-fault plan: an injected transient
    /// event corrupts the raw page, the per-page ECC corrects or detects it,
    /// and detection triggers a bounded read-retry ladder (each rung models
    /// an adjusted-read-voltage retry and charges a full flash read). A read
    /// still uncorrectable after `READ_RETRY_LIMIT` retries
    /// surfaces as [`FlashError::Uncorrectable`].
    ///
    /// Only the one stripe lock and the one channel lock covering the page
    /// are taken; reads of pages on other channels proceed concurrently.
    pub fn read_page(
        &self,
        lpa: Lpa,
        stats: &AtomicTraffic,
        internal: bool,
    ) -> Result<(Vec<u8>, u64), FlashError> {
        loop {
            let Some(loc) = self.peek(lpa) else {
                return Ok((vec![0u8; self.cfg.page_size], 0));
            };
            let ch_idx = match loc {
                Loc::Buffered(c) => c,
                Loc::Flash(ppa) => self.channel_of(ppa),
            };
            let ch = self.channels[ch_idx].lock();
            // Re-validate under channel → stripe: the mapping may have moved
            // (flush, GC, migration) between the unlocked peek and the lock.
            let still = self.stripes[Self::stripe_of(lpa)].lock().get(&lpa).copied();
            if still != Some(loc) {
                continue;
            }
            match loc {
                Loc::Buffered(_) => {
                    // The buffered mapping should imply a buffer entry; if
                    // the slice raced ahead of the stripe, re-resolve rather
                    // than panic.
                    let Some(data) =
                        ch.buffer.iter().rev().find(|(l, _)| *l == lpa).map(|(_, d)| d.clone())
                    else {
                        continue;
                    };
                    return Ok((data, 0));
                }
                Loc::Flash(ppa) => {
                    stats.inc_flash_read(internal);
                    let raw = ch.flash.read_page(ppa)?;
                    let mut cost = self.cfg.flash_read_ns;
                    let wear = ch.flash.erase_count(self.block_of(ppa));
                    let Some(fault) = self.cfg.media.read_fault(wear) else {
                        return Ok((raw, cost));
                    };
                    // Injected transient event: corrupt the raw sensing
                    // deterministically, then run the ECC + retry ladder.
                    let parity = ch.flash.stored_parity(ppa);
                    let page_bits = raw.len() * 8;
                    for attempt in 0..=READ_RETRY_LIMIT {
                        if attempt > 0 {
                            stats.inc_ras_read_retries();
                            stats.inc_flash_read(internal);
                            cost += self.cfg.flash_read_ns;
                        }
                        let mut data = raw.clone();
                        for pos in fault.flip_positions(attempt, page_bits) {
                            ecc::flip_bit(&mut data, pos);
                        }
                        match ecc::decode(&mut data, parity) {
                            EccOutcome::Clean => return Ok((data, cost)),
                            EccOutcome::Corrected { .. } => {
                                stats.inc_ras_corrected_reads();
                                return Ok((data, cost));
                            }
                            EccOutcome::Uncorrectable => continue,
                        }
                    }
                    stats.inc_ras_uncorrectable_reads();
                    return Err(FlashError::Uncorrectable { ppa, retries: READ_RETRY_LIMIT });
                }
            }
        }
    }

    /// Queues a full-page write into the owning channel's write-buffer slice
    /// (the channel round-robins for fresh pages, sticks for re-writes of a
    /// still-buffered page) off the clock: a full slice drains, but nobody
    /// waits and the NAND timeline does not move. This is the call of the
    /// capacitor flush and of crash-image restore; a host command uses
    /// [`ShardedFtl::buffer_write_on`]. The page becomes durable after
    /// [`ShardedFtl::flush_all`].
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::ReadOnly`] once the device has degraded (spare
    /// blocks exhausted); the write is not accepted. Media errors raised by
    /// a forced slice drain also propagate.
    pub fn buffer_write(
        &self,
        lpa: Lpa,
        data: Vec<u8>,
        stats: &AtomicTraffic,
    ) -> Result<(), FlashError> {
        self.buffer_write_on(lpa, data, stats, None).map(|_| ())
    }

    /// [`ShardedFtl::buffer_write`] on the clock: the caller is at virtual
    /// time `now` and gets back how long it waits. The page that fills a
    /// slice hands it to the NAND array, which programs it in the background
    /// of modelled time (the data model drains the slice later, where it
    /// always did: when the next page finds it full); the caller waits only
    /// while the buffer has no slot for its page — a page holds its slot from
    /// acceptance until its program completes (`DESIGN-time.md`). `None` is
    /// a caller without a time: no wait, no array work.
    ///
    /// # Errors
    ///
    /// As [`ShardedFtl::buffer_write`].
    pub fn buffer_write_on(
        &self,
        lpa: Lpa,
        data: Vec<u8>,
        stats: &AtomicTraffic,
        now: Option<u64>,
    ) -> Result<u64, FlashError> {
        debug_assert!(lpa < self.logical_pages(), "lpa {lpa} out of range");
        if self.read_only.load(Ordering::SeqCst) {
            return Err(FlashError::ReadOnly);
        }
        let mut target = match self.peek(lpa) {
            Some(Loc::Buffered(c)) => c,
            _ => self.rr.fetch_add(1, Ordering::Relaxed) % self.channels.len(),
        };
        let mut stranded_rounds = 0usize;
        loop {
            let mut ch = self.channels[target].lock();
            // Before the coalesce arm: a re-write of a page sitting in a full
            // slice drains the slice first and is programmed a second time, so
            // nothing coalesces into a slice whose programs are under way
            // (short of a TRIM reopening one: that re-write rides the program
            // already charged).
            if ch.buffer.len() >= ch.buffer_capacity {
                let r = self.drain_buffer_locked(&mut ch, stats);
                // The array has had the slice's programs since it filled;
                // the drain adds its GC and whatever that did not cover.
                let work_ns = r.gc_cost + r.off_timeline as u64 * self.cfg.flash_write_ns;
                self.hand_to_nand(now, self.array_ns(work_ns));
                if let Some(e) = r.error {
                    // The forced drain hit an unrecoverable media condition
                    // (spares exhausted); refuse the new write.
                    return Err(e);
                }
                // A cut during the slice drain leaves the slice over
                // capacity; the page is still accepted below — buffer
                // acceptance is a DRAM move between counted fault steps, and
                // callers (device ops, log cleaning) gate themselves. Losing
                // it here would drop committed chunks the cleaner already
                // drained out of the log.
                if !r.stranded.is_empty() && !self.cfg.fault.is_cut() {
                    drop(ch);
                    for l in r.stranded {
                        self.migrate_buffered(l, target);
                    }
                    stranded_rounds += 1;
                    assert!(
                        stranded_rounds <= 4 * self.channels.len(),
                        "no channel can place buffered pages: device out of erased space"
                    );
                    continue;
                }
            }
            let mut stripe = self.stripes[Self::stripe_of(lpa)].lock();
            match stripe.get(&lpa).copied() {
                // Coalesce a pending write to the same page: it keeps the
                // slot it has.
                Some(Loc::Buffered(c)) if c == target => {
                    if let Some(slot) = ch.buffer.iter_mut().rev().find(|(l, _)| *l == lpa) {
                        slot.1 = data;
                    } else {
                        // Slice out of sync with the mapping (should not
                        // happen); repair by inserting rather than panicking.
                        ch.buffer.push((lpa, data));
                        self.buffered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(0);
                }
                // The page got (re)buffered on another channel meanwhile —
                // coalesce there instead.
                Some(Loc::Buffered(c)) => {
                    drop(stripe);
                    drop(ch);
                    target = c;
                    continue;
                }
                prev => {
                    ch.buffer.push((lpa, data));
                    stripe.insert(lpa, Loc::Buffered(target));
                    let buffered = self.buffered.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(Loc::Flash(old)) = prev {
                        // The flash copy is stale now; its p2l entry is
                        // invalidated lazily by GC validation.
                        self.valid[self.block_of(old) as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                    if now.is_some() && ch.buffer.len() == ch.buffer_capacity {
                        // The slice is full: the array starts on it now. The
                        // pages stay here, readable, until the drain.
                        let fresh = ch.buffer.len() - ch.on_nand;
                        let work_ns = fresh as u64 * self.cfg.flash_write_ns;
                        self.hand_to_nand(now, self.array_ns(work_ns));
                        ch.on_nand = ch.buffer.len();
                        self.on_nand.fetch_add(fresh, Ordering::Relaxed);
                    }
                    // A handed-over page's slot is the backlog's to account.
                    let held = buffered.saturating_sub(self.on_nand.load(Ordering::Relaxed));
                    return Ok(self.slot_wait(now, held, stats));
                }
            }
        }
    }

    /// `work_ns` of GC and page programs, counted as if one channel did it
    /// all, as time of the whole array: striping is balanced, so every
    /// channel takes its share.
    fn array_ns(&self, work_ns: u64) -> u64 {
        work_ns.div_ceil(self.channels.len() as u64)
    }

    /// Hands `array_ns` of work to the NAND array at the caller's time: it
    /// starts when everything handed over earlier is done. A caller without
    /// a time (a threshold pass) keeps its drains off the clock.
    fn hand_to_nand(&self, now: Option<u64>, array_ns: u64) {
        let Some(now) = now else { return };
        if array_ns > 0 {
            let _ =
                self.nand_busy_until.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                    Some(busy.max(now) + array_ns)
                });
        }
    }

    /// How long a command at `now` waits for the write-buffer slot of the
    /// page it just put into a slice, `held` pages being in slices not yet
    /// handed to the array. The slots those do not hold are free for pages
    /// still being programmed, so the command waits until the array's
    /// backlog is no longer than those slots' worth of programs.
    fn slot_wait(&self, now: Option<u64>, held: usize, stats: &AtomicTraffic) -> u64 {
        let Some(now) = now else { return 0 };
        let free = self.buffer_slots.saturating_sub(held) as u64;
        let fits_ns = self.array_ns(free * self.cfg.flash_write_ns);
        let wait = self.nand_backlog_ns(now).saturating_sub(fits_ns);
        if wait > 0 {
            stats.add_nand_stall_ns(wait);
        }
        wait
    }

    /// How long after `now` the array is done with everything handed to it.
    fn nand_backlog_ns(&self, now: u64) -> u64 {
        self.nand_busy_until.load(Ordering::Relaxed).saturating_sub(now)
    }

    /// A flash read at `now` that took `read_ns` on its channel: the read
    /// itself never waits for queued programs (reads have priority), but the
    /// programs behind it finish that much later. An idle array has nothing
    /// to delay, and a caller without a time stays off the clock.
    pub(crate) fn delay_nand_backlog(&self, now: Option<u64>, read_ns: u64) {
        let Some(now) = now else { return };
        let _ = self.nand_busy_until.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            (busy > now && read_ns > 0).then(|| busy + self.array_ns(read_ns))
        });
    }

    /// Power came back: whatever the array was still programming finished on
    /// capacitor power while the host was down, so the timeline starts idle.
    pub(crate) fn reset_nand_timeline(&self) {
        self.nand_busy_until.store(0, Ordering::Relaxed);
    }

    /// Programs every buffered page to flash, running per-channel GC as
    /// needed, and returns how long a caller at `now` waits for the NAND
    /// array to finish — these pages and everything handed to it before
    /// (`None`: a caller without a time, which waits for nothing and keeps
    /// the drain off the clock). The channels drain side by side: GC is
    /// array work like any other, and the programs the array does not have
    /// yet (a slice that filled went over then) take whole rounds of
    /// `flash_write_ns`, the last one however few channels it keeps busy.
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable media error hit while draining
    /// (spares exhausted mid-remap). Pages not yet programmed stay in the
    /// battery-backed buffer — durable, but no longer flushable.
    pub fn flush_all(&self, stats: &AtomicTraffic, now: Option<u64>) -> Result<u64, FlashError> {
        let mut gc_cost = 0;
        let mut off_timeline = 0usize;
        let mut first_err: Option<FlashError> = None;
        // Two passes: a page stranded on a full channel is migrated to the
        // next channel's slice and picked up there; a page that lands on an
        // already-drained channel simply stays buffered (it is battery-backed
        // device DRAM, and the next flush or slice drain programs it).
        for _pass in 0..2 {
            let mut any_stranded = false;
            for c in 0..self.channels.len() {
                let mut ch = self.channels[c].lock();
                let r = self.drain_buffer_locked(&mut ch, stats);
                drop(ch);
                gc_cost += r.gc_cost;
                off_timeline += r.off_timeline;
                if first_err.is_none() {
                    first_err = r.error;
                }
                any_stranded |= !r.stranded.is_empty();
                for l in r.stranded {
                    self.migrate_buffered(l, c);
                }
            }
            if !any_stranded || first_err.is_some() {
                break;
            }
        }
        let rounds = off_timeline.div_ceil(self.channels.len()) as u64;
        self.hand_to_nand(now, self.array_ns(gc_cost) + rounds * self.cfg.flash_write_ns);
        match first_err {
            Some(e) => Err(e),
            None => Ok(now.map_or(0, |now| self.nand_backlog_ns(now))),
        }
    }

    /// Marks a logical page as no longer containing live data. Drops the
    /// buffered copy (if any) or invalidates the flash mapping.
    pub fn trim(&self, lpa: Lpa) {
        loop {
            let Some(loc) = self.peek(lpa) else { return };
            let ch_idx = match loc {
                Loc::Buffered(c) => c,
                Loc::Flash(ppa) => self.channel_of(ppa),
            };
            let mut ch = self.channels[ch_idx].lock();
            let mut stripe = self.stripes[Self::stripe_of(lpa)].lock();
            if stripe.get(&lpa).copied() != Some(loc) {
                continue;
            }
            match loc {
                Loc::Buffered(_) => {
                    if let Some(pos) = ch.buffer.iter().position(|(l, _)| *l == lpa) {
                        self.take_buffered(&mut ch, pos);
                        self.buffered.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Loc::Flash(ppa) => {
                    ch.p2l.remove(&ppa);
                    self.valid[self.block_of(ppa) as usize].fetch_sub(1, Ordering::Relaxed);
                }
            }
            stripe.remove(&lpa);
            return;
        }
    }

    /// Takes the page at `pos` out of the channel's slice. If the slice was
    /// handed to the array its program stays charged — the array was already
    /// at it — and the hand-over covers one page less.
    fn take_buffered(&self, ch: &mut Channel, pos: usize) -> (Lpa, Vec<u8>) {
        if pos < ch.on_nand {
            ch.on_nand -= 1;
            self.on_nand.fetch_sub(1, Ordering::Relaxed);
        }
        ch.buffer.remove(pos)
    }

    /// Allocates the next page of the channel's active block, refilling the
    /// active block from the free list. `None` when the channel is out of
    /// erased space (the caller runs GC or strands the page).
    fn allocate_ppa_locked(ch: &mut Channel) -> Option<Ppa> {
        if ch.active.is_none() {
            ch.active = ch.free.pop_front().map(|b| (b, 0));
        }
        let (block, off) = ch.active?;
        let ppa = ch.flash.first_page_of(block) + off as u64;
        if off + 1 >= ch.flash.pages_per_block() {
            ch.active = None;
        } else {
            ch.active = Some((block, off + 1));
        }
        Some(ppa)
    }

    /// Keeps a small reserve of erased blocks in the channel. Returns the GC
    /// latency spent.
    fn ensure_free_space_locked(&self, ch: &mut Channel, stats: &AtomicTraffic) -> u64 {
        const LOW_WATER: usize = 2;
        let mut cost = 0;
        let mut guard = 0;
        while ch.free.len() < LOW_WATER {
            let c = self.collect_garbage_locked(ch, stats);
            if c == 0 {
                break;
            }
            cost += c;
            guard += 1;
            if guard > ch.flash.block_count() {
                break;
            }
        }
        cost
    }

    /// Greedy per-channel GC: relocates the still-live pages out of the
    /// fully-written block with the fewest valid pages, then erases it.
    /// Every candidate page is re-validated against the L2P table under its
    /// stripe lock before relocation — stale `p2l` entries (the page was
    /// overwritten from another channel) are simply discarded.
    ///
    /// Returns the latency spent, or 0 if no victim could make progress.
    fn collect_garbage_locked(&self, ch: &mut Channel, stats: &AtomicTraffic) -> u64 {
        if self.cfg.fault.is_cut() {
            return 0; // power off: no GC runs
        }
        let ppb = ch.flash.pages_per_block();
        let active_block = ch.active.map(|(b, _)| b);
        let victim = ch
            .flash
            .block_ids()
            .filter(|b| Some(*b) != active_block)
            .filter(|b| !ch.bad.contains(b))
            .filter(|b| ch.flash.block_fill(*b) == ppb)
            // Wear-aware greedy: fewest valid pages first, lowest erase
            // count as the tie-break so erase wear spreads across
            // equally-garbage-laden candidates.
            .min_by_key(|b| {
                (self.valid[*b as usize].load(Ordering::Relaxed), ch.flash.erase_count(*b))
            });
        let Some(victim) = victim else { return 0 };
        let first = ch.flash.first_page_of(victim);
        // Count the pages that are *really* live (p2l keeps stale entries
        // until GC; only the L2P table knows). Liveness can only shrink
        // between this count and the relocation loop below, so it is a safe
        // upper bound for the headroom check.
        let live_upper = (0..ppb as u64)
            .filter(|off| {
                let ppa = first + off;
                ch.p2l.get(&ppa).is_some_and(|lpa| {
                    self.stripes[Self::stripe_of(*lpa)].lock().get(lpa).copied()
                        == Some(Loc::Flash(ppa))
                })
            })
            .count();
        if live_upper >= ppb {
            // Erasing a fully-live block frees nothing.
            return 0;
        }
        let headroom = ch.active.map(|(_, off)| ppb - off).unwrap_or(0) + ch.free.len() * ppb;
        if headroom < live_upper {
            // Not enough erased space to relocate into; give up rather than
            // fail mid-relocation.
            return 0;
        }
        stats.trace().emit(crate::trace::TraceKind::GcVictim, victim, live_upper as u64);
        let mut cost = 0;
        for off in 0..ppb as u64 {
            let ppa = first + off;
            let Some(&lpa) = ch.p2l.get(&ppa) else { continue };
            // Validate and read under the stripe lock, then release it
            // before programming: the program may retire a failed block,
            // and retirement relocation takes other stripe locks (stripes
            // are leaf locks — never hold one across another's acquisition).
            {
                let stripe = self.stripes[Self::stripe_of(lpa)].lock();
                if stripe.get(&lpa).copied() != Some(Loc::Flash(ppa)) {
                    drop(stripe);
                    ch.p2l.remove(&ppa);
                    continue;
                }
            }
            // A cut mid-relocation aborts GC before the erase: already
            // relocated pages keep their new mapping, the victim keeps
            // its (now partly stale) data — nothing is lost.
            if !self.cfg.fault.step(FaultKind::FlashProgram) {
                return cost;
            }
            let Ok(data) = ch.flash.read_page(ppa) else {
                ch.p2l.remove(&ppa);
                continue;
            };
            stats.inc_flash_read(true);
            cost += self.cfg.flash_read_ns;
            let Some(dst) = Self::allocate_ppa_locked(ch) else {
                // Headroom was pre-checked, but a mid-GC retirement may have
                // shrunk it; abort the pass rather than fail hard.
                return cost;
            };
            debug_assert_ne!(self.block_of(dst), victim, "GC wrote into its own victim");
            let (dst, extra) = match self.program_allocated(ch, dst, &data, stats) {
                Ok(ok) => ok,
                Err(_) => return cost, // spares exhausted mid-relocation
            };
            cost += extra;
            stats.inc_flash_write(true);
            cost += self.cfg.flash_write_ns;
            // Re-validate: the mapping may have moved (e.g. the host
            // re-buffered the page from another channel) while no stripe
            // lock was held. If it did, `dst` holds dead data and is simply
            // left as garbage for a future GC pass.
            let mut stripe = self.stripes[Self::stripe_of(lpa)].lock();
            if stripe.get(&lpa).copied() == Some(Loc::Flash(ppa)) {
                ch.p2l.insert(dst, lpa);
                stripe.insert(lpa, Loc::Flash(dst));
                self.valid[self.block_of(dst) as usize].fetch_add(1, Ordering::Relaxed);
            }
            drop(stripe);
            ch.p2l.remove(&ppa);
        }
        if !self.cfg.fault.step(FaultKind::FlashErase) {
            return cost; // cut before the erase: the victim stays as garbage
        }
        if self.cfg.media.erase_fails() {
            // Injected permanent erase failure: the attempt still pays its
            // latency, then the block is retired instead of recycled.
            cost += self.cfg.flash_erase_ns;
            self.retire_block_locked(ch, victim, stats);
            return cost;
        }
        if ch.flash.erase_block(victim).is_err() {
            return cost; // structurally impossible; degrade to no-progress
        }
        stats.inc_flash_erase();
        cost += self.cfg.flash_erase_ns;
        self.valid[victim as usize].store(0, Ordering::Relaxed);
        ch.free.push_back(victim);
        cost
    }

    /// Programs `data` at the freshly allocated `ppa`, absorbing injected
    /// permanent program failures: the failed block is retired (a spare is
    /// promoted to replace it), its live pages are relocated by verified
    /// copyback, the in-flight page is remapped to a fresh allocation and
    /// the program retried.
    ///
    /// Returns the physical page that finally took the data plus the extra
    /// latency charged (each failed attempt still pays a full program; the
    /// caller records the one successful program in the traffic stats).
    /// Must be called with the channel lock held but **no stripe lock** —
    /// retirement relocation acquires stripe locks.
    fn program_allocated(
        &self,
        ch: &mut Channel,
        mut ppa: Ppa,
        data: &[u8],
        stats: &AtomicTraffic,
    ) -> Result<(Ppa, u64), FlashError> {
        let mut cost = 0;
        loop {
            if !self.cfg.media.program_fails() {
                ch.flash.program_page(ppa, data)?;
                return Ok((ppa, cost));
            }
            cost += self.cfg.flash_write_ns;
            let failed = self.block_of(ppa);
            // Retire first, then relocate: retirement pulls the failed
            // block out of the allocator, so the relocation below can never
            // allocate back into it.
            let have_spare = self.retire_block_locked(ch, failed, stats);
            cost += self.relocate_live_pages(ch, failed, stats);
            stats.inc_ras_remapped_pages();
            if !have_spare {
                return Err(FlashError::ReadOnly);
            }
            match Self::allocate_ppa_locked(ch) {
                Some(p) => ppa = p,
                None => {
                    self.read_only.store(true, Ordering::SeqCst);
                    return Err(FlashError::ReadOnly);
                }
            }
        }
    }

    /// Retires `block`: removes it from every allocation structure, zeroes
    /// its valid count and promotes one spare into the free list to keep
    /// usable capacity constant. Returns `false` — and latches the device
    /// read-only — when the channel's spare pool is empty.
    fn retire_block_locked(&self, ch: &mut Channel, block: BlockId, stats: &AtomicTraffic) -> bool {
        ch.bad.push(block);
        self.valid[block as usize].store(0, Ordering::Relaxed);
        stats.inc_ras_retired_blocks();
        if ch.active.map(|(b, _)| b) == Some(block) {
            ch.active = None;
        }
        ch.free.retain(|b| *b != block);
        let ok = if let Some(s) = ch.spare.pop_front() {
            ch.free.push_back(s);
            self.spare_count.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            self.read_only.store(true, Ordering::SeqCst);
            false
        };
        stats.set_ras_spares_remaining(self.spare_count.load(Ordering::Relaxed) as u64);
        ok
    }

    /// Relocates the live pages of a just-retired block by verified
    /// copyback. The copy itself is injection-free — the model treats the
    /// retirement path as a verified internal transfer, which bounds the
    /// cascade: the at-most `fill` live pages plus the in-flight page always
    /// fit the spare block promoted by the retirement. Returns the latency
    /// spent. Must be called with the channel lock held but no stripe lock.
    fn relocate_live_pages(&self, ch: &mut Channel, block: BlockId, stats: &AtomicTraffic) -> u64 {
        let mut cost = 0;
        let first = ch.flash.first_page_of(block);
        let fill = ch.flash.block_fill(block);
        for off in 0..fill as u64 {
            let ppa = first + off;
            let Some(&lpa) = ch.p2l.get(&ppa) else { continue };
            let mut stripe = self.stripes[Self::stripe_of(lpa)].lock();
            if stripe.get(&lpa).copied() != Some(Loc::Flash(ppa)) {
                drop(stripe);
                ch.p2l.remove(&ppa);
                continue;
            }
            let Ok(data) = ch.flash.read_page(ppa) else {
                drop(stripe);
                ch.p2l.remove(&ppa);
                continue;
            };
            stats.inc_flash_read(true);
            cost += self.cfg.flash_read_ns;
            let Some(dst) = Self::allocate_ppa_locked(ch) else {
                // No erased space even after the spare promotion; the
                // remaining live pages stay readable on the retired block.
                self.read_only.store(true, Ordering::SeqCst);
                break;
            };
            if ch.flash.program_page(dst, &data).is_err() {
                self.read_only.store(true, Ordering::SeqCst);
                break;
            }
            stats.inc_flash_write(true);
            cost += self.cfg.flash_write_ns;
            ch.p2l.insert(dst, lpa);
            stripe.insert(lpa, Loc::Flash(dst));
            self.valid[self.block_of(dst) as usize].fetch_add(1, Ordering::Relaxed);
            drop(stripe);
            ch.p2l.remove(&ppa);
        }
        cost
    }

    /// Drains the channel's write-buffer slice onto its flash. Pages the
    /// channel cannot place (out of erased blocks even after GC) stay
    /// buffered and are reported as stranded.
    fn drain_buffer_locked(&self, ch: &mut Channel, stats: &AtomicTraffic) -> DrainResult {
        let mut r = DrainResult::default();
        if ch.buffer.is_empty() {
            return r;
        }
        let pending = std::mem::take(&mut ch.buffer);
        let covered = std::mem::take(&mut ch.on_nand);
        self.on_nand.fetch_sub(covered, Ordering::Relaxed);
        let mut programmed = 0usize;
        let channel_index = ch.flash.channel();
        let mut iter = pending.into_iter();
        while let Some((lpa, data)) = iter.next() {
            // One counted fault step per page program: a cut here tears a
            // multi-page flush — pages already programmed are on NAND, the
            // rest stay in the battery-backed buffer slice (not stranded, so
            // the caller does not migrate them while power is off).
            if !self.cfg.fault.step(FaultKind::FlashProgram) {
                ch.buffer.push((lpa, data));
                for (l, d) in iter.by_ref() {
                    ch.buffer.push((l, d));
                }
                break;
            }
            r.gc_cost += self.ensure_free_space_locked(ch, stats);
            let Some(ppa) = Self::allocate_ppa_locked(ch) else {
                // Out of space: keep this page and the rest buffered, in
                // order, and let the caller migrate them to other channels.
                r.stranded.push(lpa);
                ch.buffer.push((lpa, data));
                for (l, d) in iter.by_ref() {
                    r.stranded.push(l);
                    ch.buffer.push((l, d));
                }
                break;
            };
            let ppa = match self.program_allocated(ch, ppa, &data, stats) {
                Ok((ppa, extra)) => {
                    r.gc_cost += extra;
                    ppa
                }
                Err(e) => {
                    // Unrecoverable media condition (spares exhausted):
                    // this page and the rest stay in the battery-backed
                    // buffer — durable, but no longer programmable.
                    r.error = Some(e);
                    ch.buffer.push((lpa, data));
                    for (l, d) in iter.by_ref() {
                        ch.buffer.push((l, d));
                    }
                    break;
                }
            };
            stats.inc_flash_write(false);
            ch.p2l.insert(ppa, lpa);
            programmed += 1;
            let mut stripe = self.stripes[Self::stripe_of(lpa)].lock();
            debug_assert_eq!(
                stripe.get(&lpa).copied(),
                Some(Loc::Buffered(channel_index)),
                "buffer entry out of sync with the mapping table"
            );
            stripe.insert(lpa, Loc::Flash(ppa));
            drop(stripe);
            self.valid[self.block_of(ppa) as usize].fetch_add(1, Ordering::Relaxed);
            self.buffered.fetch_sub(1, Ordering::Relaxed);
        }
        r.off_timeline = programmed.saturating_sub(covered);
        r
    }

    /// Moves a stranded buffered page from channel `from` to the next
    /// channel. The only code path that holds two channel locks at once;
    /// they are acquired in ascending index order.
    fn migrate_buffered(&self, lpa: Lpa, from: usize) {
        let to = (from + 1) % self.channels.len();
        if to == from {
            return; // single-channel device: nowhere to go
        }
        let (lo, hi) = (from.min(to), from.max(to));
        let mut g_lo = self.channels[lo].lock();
        let mut g_hi = self.channels[hi].lock();
        let (src, dst) =
            if from == lo { (&mut *g_lo, &mut *g_hi) } else { (&mut *g_hi, &mut *g_lo) };
        let mut stripe = self.stripes[Self::stripe_of(lpa)].lock();
        if stripe.get(&lpa).copied() != Some(Loc::Buffered(from)) {
            return; // trimmed or moved meanwhile
        }
        let Some(pos) = src.buffer.iter().position(|(l, _)| *l == lpa) else {
            return; // slice out of sync with the mapping: nothing to move
        };
        let entry = self.take_buffered(src, pos);
        dst.buffer.push(entry);
        stripe.insert(lpa, Loc::Buffered(to));
    }

    // ------------------------------------------------------------------
    // RAS observability and the persistent bad-block table
    // ------------------------------------------------------------------

    /// All retired (bad) blocks across every channel, sorted. This is the
    /// bad-block table persisted into crash images: a device must never
    /// forget which blocks failed, or it would re-use them after power-up.
    pub fn bad_blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        for c in &self.channels {
            out.extend(c.lock().bad.iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Spare blocks remaining across all channels (the RAS gauge).
    pub fn spares_remaining(&self) -> usize {
        self.spare_count.load(Ordering::Relaxed)
    }

    /// Whether the device has degraded to read-only: some retirement found
    /// its channel's spare pool empty. Reads keep working; every mutation
    /// fails with [`FlashError::ReadOnly`].
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Re-applies a persisted bad-block table to this (fresh, empty) FTL —
    /// the first step of a crash-image restore, before any page is
    /// re-programmed, so the allocator can never place restored data on a
    /// block that already failed.
    ///
    /// Each bad block is removed from wherever the fresh allocator holds it
    /// and one spare is promoted in its place, mirroring the original
    /// retirement; the spare gauge ends up where the crashed device left it.
    pub fn restore_bad_blocks(&self, bad: &[BlockId]) {
        for &b in bad {
            let c = (b % self.cfg.channels as u64) as usize;
            let mut ch = self.channels[c].lock();
            let consumed_spare = if let Some(pos) = ch.spare.iter().position(|x| *x == b) {
                ch.spare.remove(pos);
                true
            } else if let Some(pos) = ch.free.iter().position(|x| *x == b) {
                ch.free.remove(pos);
                if let Some(s) = ch.spare.pop_front() {
                    ch.free.push_back(s);
                    true
                } else {
                    false
                }
            } else {
                false
            };
            if ch.active.map(|(blk, _)| blk) == Some(b) {
                ch.active = None;
            }
            ch.bad.push(b);
            if consumed_spare {
                self.spare_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash imaging and invariant checking (crashkit)
    // ------------------------------------------------------------------

    /// Exports the FTL's logical durable state for a crash image: pages
    /// programmed on NAND and pages still in the battery-backed write
    /// buffer, each keyed by LPA and sorted so the image is deterministic.
    /// Physical placement is deliberately not captured — it is not
    /// host-visible durable state. Only meaningful at a quiescent point.
    pub fn export_logical(&self) -> (Vec<LogicalPage>, Vec<LogicalPage>) {
        let mut mappings: Vec<(Lpa, Loc)> = Vec::new();
        for stripe in &self.stripes {
            let guard = stripe.lock();
            mappings.extend(guard.iter().map(|(lpa, loc)| (*lpa, *loc)));
        }
        mappings.sort_by_key(|(lpa, _)| *lpa);
        let mut flash_pages = Vec::new();
        let mut buffered = Vec::new();
        for (lpa, loc) in mappings {
            match loc {
                Loc::Flash(ppa) => {
                    let ch = self.channels[self.channel_of(ppa)].lock();
                    match ch.flash.read_page(ppa) {
                        Ok(data) => flash_pages.push((lpa, data)),
                        Err(e) => panic!("crash-image export: mapped ppa {ppa} unreadable: {e}"),
                    }
                }
                Loc::Buffered(c) => {
                    let ch = self.channels[c].lock();
                    match ch.buffer.iter().rev().find(|(l, _)| *l == lpa) {
                        Some((_, data)) => buffered.push((lpa, data.clone())),
                        None => panic!(
                            "crash-image export: lpa {lpa} mapped as buffered on channel {c} \
                             but absent from its slice"
                        ),
                    }
                }
            }
        }
        (flash_pages, buffered)
    }

    /// Rebuilds the logical state captured by [`ShardedFtl::export_logical`]
    /// into this (fresh, empty) FTL: NAND pages are re-programmed, buffered
    /// pages re-enter the write buffer. Traffic generated by the rebuild is
    /// discarded (it models no host-visible work).
    ///
    /// # Panics
    ///
    /// Panics if the FTL already holds mapped or buffered pages.
    pub fn restore_logical(&self, flash_pages: &[(Lpa, Vec<u8>)], buffered: &[(Lpa, Vec<u8>)]) {
        assert_eq!(
            self.mapped_pages() + self.buffered_pages(),
            0,
            "crash-image restore requires an empty FTL"
        );
        // The rebuild replays programs that already succeeded before the
        // cut: they must neither draw fresh media faults nor advance the
        // plan's deterministic op ordinals.
        self.cfg.media.suspend();
        let scratch = AtomicTraffic::new();
        let replay = |lpa: Lpa, data: &Vec<u8>| match self.buffer_write(lpa, data.clone(), &scratch)
        {
            Ok(()) => {}
            Err(e) => panic!("crash-image restore rejected page {lpa}: {e}"),
        };
        for (lpa, data) in flash_pages {
            replay(*lpa, data);
        }
        if let Err(e) = self.flush_all(&scratch, None) {
            panic!("crash-image restore flush failed: {e}");
        }
        for (lpa, data) in buffered {
            replay(*lpa, data);
        }
        self.cfg.media.resume();
    }

    /// Structural invariant check used by crashkit's post-recovery checkers:
    /// every L2P entry must point at a page its channel really programmed
    /// (or a live buffer slot), no two LPAs may share a physical page, and
    /// the buffered-page counter must agree with the buffer slices. Returns
    /// human-readable descriptions of every violation found (empty = clean).
    /// Only meaningful at a quiescent point.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // RAS invariants first: a retired block must be out of every
        // allocation structure (one channel locked at a time).
        let mut all_bad: HashSet<BlockId> = HashSet::new();
        for (idx, c) in self.channels.iter().enumerate() {
            let ch = c.lock();
            for &b in &ch.bad {
                if ch.free.contains(&b) {
                    problems.push(format!("bad block {b} still on channel {idx} free list"));
                }
                if ch.spare.contains(&b) {
                    problems.push(format!("bad block {b} still in channel {idx} spare pool"));
                }
                if ch.active.map(|(blk, _)| blk) == Some(b) {
                    problems.push(format!("bad block {b} still active on channel {idx}"));
                }
                if !all_bad.insert(b) {
                    problems.push(format!("block {b} retired twice"));
                }
            }
        }
        let spare_total: usize = self.channels.iter().map(|c| c.lock().spare.len()).sum();
        if spare_total != self.spare_count.load(Ordering::Relaxed) {
            problems.push(format!(
                "spare gauge reads {} but channels hold {spare_total} spares",
                self.spare_count.load(Ordering::Relaxed)
            ));
        }
        let mut mappings: Vec<(Lpa, Loc)> = Vec::new();
        for stripe in &self.stripes {
            let guard = stripe.lock();
            mappings.extend(guard.iter().map(|(lpa, loc)| (*lpa, *loc)));
        }
        mappings.sort_by_key(|(lpa, _)| *lpa);
        let mut seen_ppa: HashMap<Ppa, Lpa> = HashMap::new();
        let mut buffered_mapped = 0usize;
        for (lpa, loc) in mappings {
            match loc {
                Loc::Flash(ppa) => {
                    if let Some(prev) = seen_ppa.insert(ppa, lpa) {
                        problems.push(format!(
                            "physical page {ppa} mapped by both lpa {prev} and lpa {lpa}"
                        ));
                    }
                    // A fully-relocated retirement leaves no live mappings
                    // on a bad block. The one exception: a device that
                    // degraded read-only mid-relocation legitimately leaves
                    // unrelocated (still readable) pages behind.
                    if all_bad.contains(&self.block_of(ppa)) && !self.is_read_only() {
                        problems.push(format!(
                            "lpa {lpa} maps to physical page {ppa} on retired block {}",
                            self.block_of(ppa)
                        ));
                    }
                    let ch = self.channels[self.channel_of(ppa)].lock();
                    if !ch.flash.is_programmed(ppa) {
                        problems.push(format!(
                            "lpa {lpa} maps to physical page {ppa} that was never programmed"
                        ));
                    }
                }
                Loc::Buffered(c) => {
                    buffered_mapped += 1;
                    if c >= self.channels.len() {
                        problems.push(format!("lpa {lpa} buffered on bogus channel {c}"));
                        continue;
                    }
                    let ch = self.channels[c].lock();
                    if !ch.buffer.iter().any(|(l, _)| *l == lpa) {
                        problems.push(format!(
                            "lpa {lpa} mapped as buffered on channel {c} but absent from its slice"
                        ));
                    }
                }
            }
        }
        let slice_total: usize = self.channels.iter().map(|c| c.lock().buffer.len()).sum();
        if slice_total != buffered_mapped {
            problems.push(format!(
                "buffer slices hold {slice_total} pages but {buffered_mapped} LPAs map to them"
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> (Ftl, AtomicTraffic) {
        (Ftl::new(MssdConfig::small_test()), AtomicTraffic::new())
    }

    fn page(tag: u8, size: usize) -> Vec<u8> {
        vec![tag; size]
    }

    #[test]
    fn read_unwritten_is_zero_and_free() {
        let (f, st) = ftl();
        let (data, ns) = f.read_page(7, &st, false).unwrap();
        assert_eq!(data, vec![0u8; f.page_size()]);
        assert_eq!(ns, 0);
        assert_eq!(st.snapshot().flash_read_pages, 0);
    }

    #[test]
    fn write_then_read_from_buffer() {
        let (mut f, st) = ftl();
        let ps = f.page_size();
        f.buffer_write(3, page(0xAB, ps), &st).unwrap();
        // Still in buffer: no flash write yet, read served from buffer.
        assert_eq!(st.snapshot().flash_write_pages, 0);
        let (data, ns) = f.read_page(3, &st, false).unwrap();
        assert_eq!(data, page(0xAB, ps));
        assert_eq!(ns, 0);
    }

    #[test]
    fn flush_programs_pages() {
        let (mut f, st) = ftl();
        let ps = f.page_size();
        f.buffer_write(1, page(1, ps), &st).unwrap();
        f.buffer_write(2, page(2, ps), &st).unwrap();
        let cost = f.flush_buffer(&st).unwrap();
        assert!(cost > 0);
        assert_eq!(st.snapshot().flash_write_pages, 2);
        assert_eq!(f.mapped_pages(), 2);
        let (d, ns) = f.read_page(2, &st, false).unwrap();
        assert_eq!(d, page(2, ps));
        assert!(ns > 0);
        assert_eq!(st.snapshot().flash_read_pages, 1);
    }

    #[test]
    fn overwrite_invalidates_old_mapping() {
        let (mut f, st) = ftl();
        let ps = f.page_size();
        f.buffer_write(5, page(1, ps), &st).unwrap();
        f.flush_buffer(&st).unwrap();
        f.buffer_write(5, page(2, ps), &st).unwrap();
        f.flush_buffer(&st).unwrap();
        assert_eq!(f.mapped_pages(), 1);
        let (d, _) = f.read_page(5, &st, false).unwrap();
        assert_eq!(d, page(2, ps));
    }

    #[test]
    fn buffer_coalesces_same_lpa() {
        let (mut f, st) = ftl();
        let ps = f.page_size();
        f.buffer_write(9, page(1, ps), &st).unwrap();
        f.buffer_write(9, page(2, ps), &st).unwrap();
        assert_eq!(f.buffered_pages(), 1);
        f.flush_buffer(&st).unwrap();
        assert_eq!(st.snapshot().flash_write_pages, 1);
        let (d, _) = f.read_page(9, &st, false).unwrap();
        assert_eq!(d, page(2, ps));
    }

    #[test]
    fn channel_parallelism_reduces_latency() {
        let cfg = MssdConfig::small_test();
        let per_write = cfg.flash_write_ns;
        let channels = cfg.channels;
        let (mut f, st) = ftl();
        let ps = f.page_size();
        for i in 0..channels as u64 {
            f.buffer_write(i, page(i as u8, ps), &st).unwrap();
        }
        let cost = f.flush_buffer(&st).unwrap();
        // All pages fit in one parallel round (plus possible GC cost of 0).
        assert_eq!(cost, per_write);
    }

    #[test]
    fn trim_unmaps() {
        let (mut f, st) = ftl();
        let ps = f.page_size();
        f.buffer_write(4, page(7, ps), &st).unwrap();
        f.flush_buffer(&st).unwrap();
        assert!(f.is_mapped(4));
        f.trim(4);
        assert!(!f.is_mapped(4));
        let (d, ns) = f.read_page(4, &st, false).unwrap();
        assert_eq!(d, vec![0u8; ps]);
        assert_eq!(ns, 0);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_correct() {
        // Write far more page-versions than physical capacity to force GC.
        let cfg = MssdConfig::small_test();
        let logical = cfg.logical_pages();
        let mut f = Ftl::new(cfg);
        let st = AtomicTraffic::new();
        let ps = f.page_size();
        let working_set = (logical / 2).max(8);
        let mut version = 0u8;
        for round in 0..6u64 {
            version = version.wrapping_add(1);
            for lpa in 0..working_set {
                f.buffer_write(lpa, page(version ^ lpa as u8, ps), &st).unwrap();
            }
            f.flush_buffer(&st).unwrap();
            // Spot-check correctness each round.
            let probe = round % working_set;
            let (d, _) = f.read_page(probe, &st, false).unwrap();
            assert_eq!(d, page(version ^ probe as u8, ps), "round {round}");
        }
        assert!(st.snapshot().flash_erase_blocks > 0, "GC should have run");
        // Everything still readable with the final version.
        for lpa in 0..working_set {
            let (d, _) = f.read_page(lpa, &st, false).unwrap();
            assert_eq!(d, page(version ^ lpa as u8, ps), "lpa {lpa}");
        }
    }

    fn sharded() -> (ShardedFtl, AtomicTraffic) {
        (ShardedFtl::new(MssdConfig::small_test()), AtomicTraffic::new())
    }

    #[test]
    fn sharded_write_read_trim_roundtrip() {
        let (f, st) = sharded();
        let ps = f.page_size();
        assert_eq!(f.read_page(7, &st, false).unwrap(), (vec![0u8; ps], 0));
        f.buffer_write(3, page(0xAB, ps), &st).unwrap();
        assert_eq!(f.buffered_pages(), 1);
        assert!(f.is_mapped(3));
        // Buffered read: no flash access, no latency.
        let (data, ns) = f.read_page(3, &st, false).unwrap();
        assert_eq!(data, page(0xAB, ps));
        assert_eq!(ns, 0);
        assert_eq!(st.snapshot().flash_write_pages, 0);
        let cost = f.flush_all(&st, Some(0)).unwrap();
        assert!(cost > 0);
        assert_eq!(f.buffered_pages(), 0);
        assert_eq!(f.mapped_pages(), 1);
        let (data, ns) = f.read_page(3, &st, false).unwrap();
        assert_eq!(data, page(0xAB, ps));
        assert!(ns > 0);
        f.trim(3);
        assert!(!f.is_mapped(3));
        assert_eq!(f.read_page(3, &st, false).unwrap(), (vec![0u8; ps], 0));
    }

    #[test]
    fn sharded_coalesces_and_overwrites() {
        let (f, st) = sharded();
        let ps = f.page_size();
        f.buffer_write(9, page(1, ps), &st).unwrap();
        f.buffer_write(9, page(2, ps), &st).unwrap();
        assert_eq!(f.buffered_pages(), 1);
        f.flush_all(&st, None).unwrap();
        assert_eq!(st.snapshot().flash_write_pages, 1);
        // Overwrite of a flash-mapped page: newest wins after re-flush.
        f.buffer_write(9, page(3, ps), &st).unwrap();
        let (d, ns) = f.read_page(9, &st, false).unwrap();
        assert_eq!((d, ns), (page(3, ps), 0));
        f.flush_all(&st, None).unwrap();
        assert_eq!(f.mapped_pages(), 1);
        assert_eq!(f.read_page(9, &st, false).unwrap().0, page(3, ps));
    }

    #[test]
    fn sharded_flush_latency_is_channel_parallel() {
        let cfg = MssdConfig::small_test();
        let per_write = cfg.flash_write_ns;
        let channels = cfg.channels;
        let (f, st) = sharded();
        let ps = f.page_size();
        for i in 0..channels as u64 {
            f.buffer_write(i, page(i as u8, ps), &st).unwrap();
        }
        let cost = f.flush_all(&st, Some(0)).unwrap();
        // Round-robin placement puts one page per channel: one parallel round.
        assert_eq!(cost, per_write);
    }

    #[test]
    fn sharded_sustained_overwrites_trigger_gc_and_stay_correct() {
        let cfg = MssdConfig::small_test();
        let logical = cfg.logical_pages();
        let f = ShardedFtl::new(cfg);
        let st = AtomicTraffic::new();
        let ps = f.page_size();
        let working_set = (logical / 2).max(8);
        let mut version = 0u8;
        for round in 0..6u64 {
            version = version.wrapping_add(1);
            for lpa in 0..working_set {
                f.buffer_write(lpa, page(version ^ lpa as u8, ps), &st).unwrap();
            }
            f.flush_all(&st, None).unwrap();
            let probe = round % working_set;
            assert_eq!(f.read_page(probe, &st, false).unwrap().0, page(version ^ probe as u8, ps));
        }
        assert!(st.snapshot().flash_erase_blocks > 0, "GC should have run");
        for lpa in 0..working_set {
            assert_eq!(
                f.read_page(lpa, &st, false).unwrap().0,
                page(version ^ lpa as u8, ps),
                "lpa {lpa}"
            );
        }
        assert!(f.utilization() > 0.0);
        assert!(f.max_wear() > 0);
    }

    #[test]
    fn sharded_concurrent_disjoint_writers() {
        let cfg = MssdConfig::small_test();
        let f = std::sync::Arc::new(ShardedFtl::new(cfg));
        let st = std::sync::Arc::new(AtomicTraffic::new());
        let threads = 4u64;
        let per_thread = 64u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = std::sync::Arc::clone(&f);
                let st = std::sync::Arc::clone(&st);
                std::thread::spawn(move || {
                    let ps = f.page_size();
                    let base = t * per_thread;
                    for i in 0..per_thread {
                        f.buffer_write(base + i, page((t * 64 + i) as u8, ps), &st).unwrap();
                        if i % 16 == 15 {
                            f.flush_all(&st, None).unwrap();
                        }
                    }
                    for i in 0..per_thread {
                        let (d, _) = f.read_page(base + i, &st, false).unwrap();
                        assert_eq!(d, page((t * 64 + i) as u8, ps), "thread {t} page {i}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        f.flush_all(&st, None).unwrap();
        assert_eq!(f.mapped_pages(), (threads * per_thread) as usize);
        assert_eq!(f.buffered_pages(), 0);
    }

    #[test]
    fn utilization_tracks_mapped_fraction() {
        let (mut f, st) = ftl();
        assert_eq!(f.utilization(), 0.0);
        let ps = f.page_size();
        for lpa in 0..16 {
            f.buffer_write(lpa, page(1, ps), &st).unwrap();
        }
        f.flush_buffer(&st).unwrap();
        assert!(f.utilization() > 0.0);
        assert!(f.utilization() < 1.0);
    }

    // ------------------------------------------------------------------
    // RAS: ECC read path, retirement, bad-block table, degradation
    // ------------------------------------------------------------------

    use crate::fault::{MediaFaultConfig, MediaFaultPlan};

    fn sharded_with_media(media: MediaFaultConfig) -> (ShardedFtl, AtomicTraffic) {
        let cfg = MssdConfig::small_test().with_media_fault_plan(MediaFaultPlan::new(media));
        (ShardedFtl::new(cfg), AtomicTraffic::new())
    }

    #[test]
    fn soft_read_fault_is_corrected_or_retried_to_data() {
        // Every read draws a soft transient event; the ECC + retry ladder
        // must always hand back the original data.
        let (f, st) = sharded_with_media(MediaFaultConfig {
            seed: 11,
            read_error_rate: 1.0,
            ..Default::default()
        });
        let ps = f.page_size();
        for lpa in 0..8u64 {
            f.buffer_write(lpa, page(lpa as u8 ^ 0x5a, ps), &st).unwrap();
        }
        f.flush_all(&st, None).unwrap();
        for lpa in 0..8u64 {
            let (d, ns) = f.read_page(lpa, &st, false).unwrap();
            assert_eq!(d, page(lpa as u8 ^ 0x5a, ps), "lpa {lpa}");
            assert!(ns > 0);
        }
        let snap = st.snapshot();
        assert!(snap.ras_corrected_reads + snap.ras_read_retries > 0);
        assert_eq!(snap.ras_uncorrectable_reads, 0);
    }

    #[test]
    fn hard_read_fault_reports_uncorrectable_after_ladder() {
        // The first flash read is forced hard: pinned beyond correction on
        // every rung, so the ladder must exhaust and report a typed UECC.
        let (f, st) =
            sharded_with_media(MediaFaultConfig { seed: 2, fail_read_at: 1, ..Default::default() });
        let ps = f.page_size();
        f.buffer_write(5, page(0xc3, ps), &st).unwrap();
        f.flush_all(&st, None).unwrap();
        let err = f.read_page(5, &st, false).unwrap_err();
        match err {
            FlashError::Uncorrectable { retries, .. } => {
                assert_eq!(retries, READ_RETRY_LIMIT);
            }
            other => panic!("expected Uncorrectable, got {other}"),
        }
        let snap = st.snapshot();
        assert_eq!(snap.ras_uncorrectable_reads, 1);
        assert_eq!(snap.ras_read_retries as u32, READ_RETRY_LIMIT);
        // The event was transient (the NAND data itself is intact): the
        // device is not degraded and a later read of the page succeeds.
        assert!(!f.is_read_only());
        assert_eq!(f.read_page(5, &st, false).unwrap().0, page(0xc3, ps));
    }

    #[test]
    fn program_failure_retires_block_and_remaps_page() {
        let (f, st) = sharded_with_media(MediaFaultConfig {
            seed: 3,
            fail_program_at: 3,
            ..Default::default()
        });
        let ps = f.page_size();
        let spares_before = f.spares_remaining();
        for lpa in 0..8u64 {
            f.buffer_write(lpa, page(lpa as u8 | 0x80, ps), &st).unwrap();
        }
        f.flush_all(&st, None).unwrap();
        let snap = st.snapshot();
        assert_eq!(snap.ras_remapped_pages, 1);
        assert_eq!(snap.ras_retired_blocks, 1);
        assert_eq!(f.spares_remaining(), spares_before - 1);
        assert_eq!(f.bad_blocks().len(), 1);
        assert!(!f.is_read_only());
        // Every page, including the remapped one, reads back intact.
        for lpa in 0..8u64 {
            assert_eq!(f.read_page(lpa, &st, false).unwrap().0, page(lpa as u8 | 0x80, ps));
        }
        assert_eq!(f.check_consistency(), Vec::<String>::new());
    }

    #[test]
    fn spare_exhaustion_degrades_to_read_only() {
        // Every program fails: retirements chew through the spare pool and
        // the device must degrade to read-only instead of panicking.
        let (f, st) = sharded_with_media(MediaFaultConfig {
            seed: 4,
            program_fail_rate: 1.0,
            ..Default::default()
        });
        let ps = f.page_size();
        f.buffer_write(0, page(0x11, ps), &st).unwrap();
        let err = f.flush_all(&st, None).unwrap_err();
        assert_eq!(err, FlashError::ReadOnly);
        assert!(f.is_read_only());
        // One channel's pool (2 spares) was consumed before it gave up.
        assert_eq!(f.spares_remaining(), 2 * (f.cfg.channels - 1));
        // Writes are refused, reads still work (the page stayed buffered).
        assert_eq!(f.buffer_write(1, page(0x22, ps), &st).unwrap_err(), FlashError::ReadOnly);
        assert_eq!(f.read_page(0, &st, false).unwrap().0, page(0x11, ps));
    }

    #[test]
    fn bad_block_table_restores_into_fresh_ftl() {
        let (f, st) = sharded_with_media(MediaFaultConfig {
            seed: 5,
            fail_program_at: 2,
            ..Default::default()
        });
        let ps = f.page_size();
        for lpa in 0..6u64 {
            f.buffer_write(lpa, page(lpa as u8 + 1, ps), &st).unwrap();
        }
        f.flush_all(&st, None).unwrap();
        let bad = f.bad_blocks();
        assert_eq!(bad.len(), 1);
        let spares = f.spares_remaining();
        let (flash_pages, buffered) = f.export_logical();

        // Power-cycle: fresh FTL, bad-block table first, then the pages.
        let (g, st2) = sharded_with_media(MediaFaultConfig {
            seed: 5,
            fail_program_at: 2,
            ..Default::default()
        });
        g.restore_bad_blocks(&bad);
        assert_eq!(g.bad_blocks(), bad);
        assert_eq!(g.spares_remaining(), spares);
        g.restore_logical(&flash_pages, &buffered);
        for lpa in 0..6u64 {
            assert_eq!(g.read_page(lpa, &st2, false).unwrap().0, page(lpa as u8 + 1, ps));
        }
        // The restore consumed no media-fault ordinals, so the post-restore
        // plan state matches the pre-crash device's.
        assert_eq!(g.check_consistency(), Vec::<String>::new());
    }

    #[test]
    fn erase_failure_during_gc_retires_victim() {
        let media = MediaFaultConfig { seed: 6, fail_erase_at: 1, ..Default::default() };
        let cfg = MssdConfig::small_test().with_media_fault_plan(MediaFaultPlan::new(media));
        let logical = cfg.logical_pages();
        let f = ShardedFtl::new(cfg);
        let st = AtomicTraffic::new();
        let ps = f.page_size();
        let working_set = (logical / 2).max(8);
        let mut version = 0u8;
        for _ in 0..6u64 {
            version = version.wrapping_add(1);
            for lpa in 0..working_set {
                f.buffer_write(lpa, page(version ^ lpa as u8, ps), &st).unwrap();
            }
            f.flush_all(&st, None).unwrap();
        }
        let snap = st.snapshot();
        assert!(snap.flash_erase_blocks > 0, "GC should have run");
        assert_eq!(snap.ras_retired_blocks, 1, "first erase was forced to fail");
        assert_eq!(f.bad_blocks().len(), 1);
        for lpa in 0..working_set {
            assert_eq!(f.read_page(lpa, &st, false).unwrap().0, page(version ^ lpa as u8, ps));
        }
        assert_eq!(f.check_consistency(), Vec::<String>::new());
    }
}
