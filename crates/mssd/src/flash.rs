//! NAND flash array model.
//!
//! The array stores page-granular data addressed by *physical page address*
//! (PPA). It enforces the two invariants that make flash management
//! interesting for the rest of the stack:
//!
//! * pages within an erase block must be programmed sequentially, and
//! * a page cannot be re-programmed until its block has been erased.
//!
//! Geometry follows the configuration: pages are grouped into erase blocks and
//! blocks are striped round-robin across channels, so `block % channels` is
//! the channel a page lives on. Each channel's slice is one [`ChannelFlash`],
//! behind its own lock in [`crate::ftl::ShardedFtl`].

use std::collections::HashMap;

use crate::config::MssdConfig;
use crate::ecc::{self, PageParity};

/// Physical page address.
pub type Ppa = u64;
/// Physical erase-block index.
pub type BlockId = u64;

/// Errors returned by the flash array and propagated — as typed media errors
/// — up through the FTL, the device API, queue completions and the file
/// systems when an operation violates NAND rules or the media itself fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The physical page address is beyond the device geometry.
    OutOfRange(Ppa),
    /// The page was already programmed since the last erase of its block.
    AlreadyProgrammed(Ppa),
    /// Pages inside a block must be programmed in order.
    OutOfOrderProgram {
        /// Offending page address.
        ppa: Ppa,
        /// The page the block expected to be programmed next.
        expected: Ppa,
    },
    /// The page's raw bit errors exceeded the ECC correction capability on
    /// every rung of the read-retry ladder: an uncorrectable ECC error. The
    /// payload must not be used.
    Uncorrectable {
        /// Physical page whose data is lost.
        ppa: Ppa,
        /// Read retries attempted before declaring the UECC.
        retries: u32,
    },
    /// A page program failed permanently and the in-flight data could not be
    /// remapped to a fresh block (replacement machinery exhausted).
    ProgramFailed(Ppa),
    /// A block erase failed permanently and the block was retired.
    EraseFailed(BlockId),
    /// The device has exhausted its spare blocks and degraded to read-only:
    /// mutating operations are rejected, reads still succeed.
    ReadOnly,
    /// The host aborted the command (deadline timeout, lane reset): it never
    /// completed normally. Whether its effects happened depends on how far
    /// it got — the abort path reports that separately (see
    /// `HostQueue::abort`); resubmitting is always safe because every
    /// command is idempotent at the device level.
    Aborted,
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::OutOfRange(p) => write!(f, "physical page {p} out of range"),
            FlashError::AlreadyProgrammed(p) => {
                write!(f, "physical page {p} already programmed since last erase")
            }
            FlashError::OutOfOrderProgram { ppa, expected } => {
                write!(f, "out-of-order program of page {ppa}, expected {expected}")
            }
            FlashError::Uncorrectable { ppa, retries } => {
                write!(f, "uncorrectable ECC error on page {ppa} after {retries} retries")
            }
            FlashError::ProgramFailed(p) => write!(f, "permanent program failure on page {p}"),
            FlashError::EraseFailed(b) => write!(f, "permanent erase failure on block {b}"),
            FlashError::ReadOnly => {
                write!(f, "device degraded to read-only (spare blocks exhausted)")
            }
            FlashError::Aborted => {
                write!(f, "command aborted by the host (deadline timeout or lane reset)")
            }
        }
    }
}

impl FlashError {
    /// Whether a host-level retry of the same command could plausibly
    /// succeed. A fresh read re-samples the media's transient bit-error
    /// process, so an [`FlashError::Uncorrectable`] verdict may clear on the
    /// next attempt, and an [`FlashError::Aborted`] command (deadline
    /// timeout, lane reset) may simply have hit an injected hang; permanent
    /// program/erase failures and read-only degradation never do.
    pub fn is_transient(&self) -> bool {
        matches!(self, FlashError::Uncorrectable { .. } | FlashError::Aborted)
    }
}

impl std::error::Error for FlashError {}

/// Per-block bookkeeping.
#[derive(Debug, Clone)]
struct BlockState {
    /// Next page offset (within the block) that may be programmed.
    write_ptr: usize,
    /// Number of times the block has been erased (wear).
    erase_count: u64,
}

impl BlockState {
    fn new() -> Self {
        Self { write_ptr: 0, erase_count: 0 }
    }
}

/// The slice of the NAND array owned by **one** flash channel.
///
/// Blocks are striped round-robin over channels (`block % channels` is the
/// owning channel), so a `ChannelFlash` holds every block of one residue
/// class. It enforces the NAND invariants — sequential programs within a
/// block, no re-program before erase — and is sized to sit behind a
/// *per-channel* lock: programs/reads/erases on different channels
/// never touch shared state, which is what lets [`crate::ftl::ShardedFtl`]
/// execute them concurrently in real time instead of only modelling the
/// parallelism in the latency formula.
#[derive(Debug)]
pub struct ChannelFlash {
    page_size: usize,
    pages_per_block: usize,
    channels: usize,
    channel: usize,
    total_pages: u64,
    /// Programmed page contents of this channel's blocks. Sparse:
    /// unprogrammed pages read as all-zero.
    pages: HashMap<Ppa, Box<[u8]>>,
    /// Block state indexed by *local* block index (`block / channels`).
    blocks: Vec<BlockState>,
    /// Whether programs compute out-of-band ECC parity (only when a media
    /// fault plan is armed — fault-free configurations pay nothing).
    ecc: bool,
    /// Out-of-band per-page ECC parity (the OOB/spare-area analogue).
    /// Sparse like `pages`; an absent entry is the parity of an erased
    /// (all-zero) page, which is exactly [`PageParity::default`].
    parity: HashMap<Ppa, PageParity>,
}

impl ChannelFlash {
    /// Builds the channel-`channel` slice of the geometry described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= cfg.channels`.
    pub fn new(cfg: &MssdConfig, channel: usize) -> Self {
        assert!(channel < cfg.channels, "channel {channel} out of range");
        // physical_blocks() is rounded to a multiple of the channel count, so
        // every channel owns exactly total_blocks / channels blocks.
        let local_blocks = (cfg.physical_blocks() / cfg.channels as u64) as usize;
        Self {
            page_size: cfg.page_size,
            pages_per_block: cfg.pages_per_block,
            channels: cfg.channels,
            channel,
            total_pages: cfg.physical_pages(),
            pages: HashMap::new(),
            blocks: vec![BlockState::new(); local_blocks],
            ecc: cfg.media.is_enabled(),
            parity: HashMap::new(),
        }
    }

    /// The channel index this slice belongs to.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Number of erase blocks owned by this channel.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Global block ids owned by this channel, in ascending order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        let channels = self.channels as u64;
        let channel = self.channel as u64;
        (0..self.blocks.len() as u64).map(move |local| local * channels + channel)
    }

    /// Number of pages per erase block.
    pub fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// First physical page of a block.
    pub fn first_page_of(&self, block: BlockId) -> Ppa {
        block * self.pages_per_block as u64
    }

    fn local_index(&self, block: BlockId) -> usize {
        debug_assert_eq!(
            (block % self.channels as u64) as usize,
            self.channel,
            "block {block} does not belong to channel {}",
            self.channel
        );
        (block / self.channels as u64) as usize
    }

    fn owns(&self, ppa: Ppa) -> bool {
        ppa < self.total_pages
            && (ppa / self.pages_per_block as u64 % self.channels as u64) as usize == self.channel
    }

    /// Whether the page holds programmed data (as opposed to reading back
    /// erased zeros). Crash-state checkers use this to detect mappings that
    /// point at pages a torn program never wrote.
    pub fn is_programmed(&self, ppa: Ppa) -> bool {
        self.pages.contains_key(&ppa)
    }

    /// Reads a page of this channel. Unprogrammed pages read as zeros.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfRange`] if the page is beyond the geometry
    /// or belongs to another channel.
    pub fn read_page(&self, ppa: Ppa) -> Result<Vec<u8>, FlashError> {
        if !self.owns(ppa) {
            return Err(FlashError::OutOfRange(ppa));
        }
        Ok(self.pages.get(&ppa).map(|b| b.to_vec()).unwrap_or_else(|| vec![0u8; self.page_size]))
    }

    /// Programs a page of this channel. `data` shorter than a page is
    /// zero-padded; longer data is truncated.
    ///
    /// # Errors
    ///
    /// Fails if the page is out of range / foreign, already programmed, or
    /// programmed out of order within its block.
    pub fn program_page(&mut self, ppa: Ppa, data: &[u8]) -> Result<(), FlashError> {
        if !self.owns(ppa) {
            return Err(FlashError::OutOfRange(ppa));
        }
        let block = ppa / self.pages_per_block as u64;
        let local = self.local_index(block);
        let offset = (ppa % self.pages_per_block as u64) as usize;
        let write_ptr = self.blocks[local].write_ptr;
        if offset < write_ptr {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
        if offset > write_ptr {
            let expected = self.first_page_of(block) + write_ptr as u64;
            return Err(FlashError::OutOfOrderProgram { ppa, expected });
        }
        let mut page = vec![0u8; self.page_size];
        let n = data.len().min(self.page_size);
        page[..n].copy_from_slice(&data[..n]);
        if self.ecc {
            self.parity.insert(ppa, ecc::encode(&page));
        }
        self.pages.insert(ppa, page.into_boxed_slice());
        self.blocks[local].write_ptr += 1;
        Ok(())
    }

    /// The out-of-band ECC parity stored with a page. Absent entries (erased
    /// pages, or ECC disabled) return the parity of an all-zero page.
    pub fn stored_parity(&self, ppa: Ppa) -> PageParity {
        self.parity.get(&ppa).copied().unwrap_or_default()
    }

    /// Erases a block of this channel, discarding its pages.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfRange`] for a foreign or out-of-range block.
    pub fn erase_block(&mut self, block: BlockId) -> Result<(), FlashError> {
        if block * self.pages_per_block as u64 >= self.total_pages
            || (block % self.channels as u64) as usize != self.channel
        {
            return Err(FlashError::OutOfRange(block * self.pages_per_block as u64));
        }
        let first = self.first_page_of(block);
        for off in 0..self.pages_per_block as u64 {
            self.pages.remove(&(first + off));
            self.parity.remove(&(first + off));
        }
        let local = self.local_index(block);
        let state = &mut self.blocks[local];
        state.write_ptr = 0;
        state.erase_count += 1;
        Ok(())
    }

    /// Number of pages programmed in a block since its last erase.
    pub fn block_fill(&self, block: BlockId) -> usize {
        self.blocks[self.local_index(block)].write_ptr
    }

    /// Erase count (wear) of a block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks[self.local_index(block)].erase_count
    }

    /// Maximum erase count across this channel's blocks.
    pub fn max_wear(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Channel 0's slice: it owns block 0, so pages `0..pages_per_block`.
    fn array() -> ChannelFlash {
        ChannelFlash::new(&MssdConfig::small_test(), 0)
    }

    fn zero_page() -> Vec<u8> {
        vec![0u8; MssdConfig::small_test().page_size]
    }

    #[test]
    fn geometry_is_consistent() {
        let cfg = MssdConfig::small_test();
        let a = array();
        assert_eq!(a.block_count() as u64 * cfg.channels as u64, cfg.physical_blocks());
        assert_eq!(a.block_ids().count(), a.block_count());
        assert_eq!(cfg.physical_blocks() * a.pages_per_block() as u64, cfg.physical_pages());
    }

    #[test]
    fn unprogrammed_reads_zero() {
        let a = array();
        assert_eq!(a.read_page(0).unwrap(), zero_page());
        assert!(!a.is_programmed(0));
    }

    #[test]
    fn program_and_read_back() {
        let mut a = array();
        let mut data = zero_page();
        data[..4].copy_from_slice(b"abcd");
        a.program_page(0, &data).unwrap();
        assert!(a.is_programmed(0));
        assert_eq!(a.read_page(0).unwrap(), data);
    }

    #[test]
    fn short_data_is_padded() {
        let mut a = array();
        a.program_page(0, b"hi").unwrap();
        let page = a.read_page(0).unwrap();
        assert_eq!(&page[..2], b"hi");
        assert!(page[2..].iter().all(|b| *b == 0));
        assert_eq!(page.len(), zero_page().len());
    }

    #[test]
    fn reprogram_without_erase_fails() {
        let mut a = array();
        a.program_page(0, b"x").unwrap();
        assert_eq!(a.program_page(0, b"y"), Err(FlashError::AlreadyProgrammed(0)));
    }

    #[test]
    fn out_of_order_program_fails() {
        let mut a = array();
        let err = a.program_page(2, b"x").unwrap_err();
        assert_eq!(err, FlashError::OutOfOrderProgram { ppa: 2, expected: 0 });
    }

    #[test]
    fn sequential_program_within_block_succeeds() {
        let mut a = array();
        for i in 0..a.pages_per_block() as u64 {
            a.program_page(i, &[i as u8]).unwrap();
        }
        assert_eq!(a.block_fill(0), a.pages_per_block());
    }

    #[test]
    fn erase_resets_block() {
        let mut a = array();
        a.program_page(0, b"x").unwrap();
        a.program_page(1, b"y").unwrap();
        a.erase_block(0).unwrap();
        assert_eq!(a.block_fill(0), 0);
        assert_eq!(a.erase_count(0), 1);
        assert_eq!(a.read_page(0).unwrap(), zero_page());
        // Can program again after erase.
        a.program_page(0, b"z").unwrap();
    }

    #[test]
    fn out_of_range_is_rejected() {
        let cfg = MssdConfig::small_test();
        let mut a = array();
        // physical_blocks() is a multiple of the channel count, so the first
        // block past the end would belong to channel 0.
        let bad = cfg.physical_pages();
        assert!(matches!(a.read_page(bad), Err(FlashError::OutOfRange(_))));
        assert!(matches!(a.program_page(bad, b"x"), Err(FlashError::OutOfRange(_))));
        assert!(matches!(a.erase_block(cfg.physical_blocks()), Err(FlashError::OutOfRange(_))));
    }

    #[test]
    fn channels_stripe_blocks() {
        let cfg = MssdConfig::small_test();
        let ch = cfg.channels as u64;
        for c in 0..cfg.channels {
            let ids: Vec<BlockId> = ChannelFlash::new(&cfg, c).block_ids().take(2).collect();
            assert_eq!(ids, vec![c as u64, c as u64 + ch], "channel {c}");
        }
    }

    #[test]
    fn channel_flash_partitions_the_array() {
        let cfg = MssdConfig::small_test();
        let slices: Vec<ChannelFlash> =
            (0..cfg.channels).map(|c| ChannelFlash::new(&cfg, c)).collect();
        let total: usize = slices.iter().map(|s| s.block_count()).sum();
        assert_eq!(total as u64, cfg.physical_blocks());
        // Every global block is owned by exactly one channel slice.
        for (c, s) in slices.iter().enumerate() {
            for b in s.block_ids() {
                assert_eq!((b % cfg.channels as u64) as usize, c);
            }
        }
    }

    #[test]
    fn channel_flash_enforces_nand_rules() {
        // The rules hold on every channel, and a slice rejects the pages and
        // blocks of the others.
        let cfg = MssdConfig::small_test();
        let mut s = ChannelFlash::new(&cfg, 1);
        let block = s.block_ids().next().unwrap();
        let first = s.first_page_of(block);
        s.program_page(first, b"hi").unwrap();
        assert_eq!(&s.read_page(first).unwrap()[..2], b"hi");
        assert!(matches!(s.program_page(first, b"x"), Err(FlashError::AlreadyProgrammed(_))));
        assert!(matches!(
            s.program_page(first + 2, b"x"),
            Err(FlashError::OutOfOrderProgram { .. })
        ));
        let foreign = array().block_ids().next().unwrap();
        let foreign_page = array().first_page_of(foreign);
        assert!(matches!(s.read_page(foreign_page), Err(FlashError::OutOfRange(_))));
        assert!(matches!(s.program_page(foreign_page, b"x"), Err(FlashError::OutOfRange(_))));
        assert!(matches!(s.erase_block(foreign), Err(FlashError::OutOfRange(_))));
    }

    #[test]
    fn parity_is_stored_only_under_a_media_plan() {
        let plain = MssdConfig::small_test();
        let armed = MssdConfig::small_test()
            .with_media_fault_plan(crate::fault::MediaFaultPlan::rates(1, 0.0, 0.0, 0.0));
        for (cfg, ecc_on) in [(&plain, false), (&armed, true)] {
            let mut s = ChannelFlash::new(cfg, 0);
            let first = s.first_page_of(s.block_ids().next().unwrap());
            assert_eq!(s.stored_parity(first), PageParity::default());
            s.program_page(first, b"parity me").unwrap();
            let stored = s.stored_parity(first);
            if ecc_on {
                let mut page = vec![0u8; cfg.page_size];
                page[..9].copy_from_slice(b"parity me");
                assert_eq!(stored, ecc::encode(&page));
                assert_ne!(stored, PageParity::default());
            } else {
                assert_eq!(stored, PageParity::default());
            }
            let first_block = s.block_ids().next().unwrap();
            s.erase_block(first_block).unwrap();
            assert_eq!(s.stored_parity(first), PageParity::default(), "erase clears parity");
        }
    }

    #[test]
    fn wear_tracking() {
        let mut a = array();
        let block = a.block_ids().nth(1).unwrap();
        assert_eq!(a.max_wear(), 0);
        a.erase_block(block).unwrap();
        a.erase_block(block).unwrap();
        assert_eq!(a.erase_count(block), 2);
        assert_eq!(a.max_wear(), 2);
    }
}
