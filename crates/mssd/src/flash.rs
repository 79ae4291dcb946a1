//! NAND flash array model.
//!
//! The flash array stores page-granular data addressed by *physical page
//! address* (PPA). It enforces the two invariants that make flash management
//! interesting for the rest of the stack:
//!
//! * pages within an erase block must be programmed sequentially, and
//! * a page cannot be re-programmed until its block has been erased.
//!
//! Geometry follows the configuration: pages are grouped into erase blocks and
//! blocks are striped round-robin across channels, so `ppa % channels` is the
//! channel a page lives on (used for the channel-parallel latency model).

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
pub(crate) struct BlockState {
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

/// The NAND flash array: raw page storage plus per-block program/erase state.
#[derive(Debug)]
pub struct FlashArray {
    page_size: usize,
    pages_per_block: usize,
    channels: usize,
    total_pages: u64,
    /// Programmed page contents. Sparse: unprogrammed pages read as all-zero
    /// (freshly erased flash reads as all-ones in reality; zero is simpler and
    /// equivalent for the simulation).
    pages: HashMap<Ppa, Box<[u8]>>,
    blocks: Vec<BlockState>,
}

impl FlashArray {
    /// Builds an array with the geometry described by `cfg`.
    pub fn new(cfg: &MssdConfig) -> Self {
        let total_pages = cfg.physical_pages();
        let total_blocks = cfg.physical_blocks() as usize;
        Self {
            page_size: cfg.page_size,
            pages_per_block: cfg.pages_per_block,
            channels: cfg.channels,
            total_pages,
            pages: HashMap::new(),
            blocks: vec![BlockState::new(); total_blocks],
        }
    }

    /// Flash page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages per erase block.
    pub fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// Total number of physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Total number of erase blocks.
    pub fn total_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The erase block a physical page belongs to.
    pub fn block_of(&self, ppa: Ppa) -> BlockId {
        ppa / self.pages_per_block as u64
    }

    /// The channel a physical page maps to (blocks are striped over channels).
    pub fn channel_of(&self, ppa: Ppa) -> usize {
        (self.block_of(ppa) % self.channels as u64) as usize
    }

    /// First physical page of a block.
    pub fn first_page_of(&self, block: BlockId) -> Ppa {
        block * self.pages_per_block as u64
    }

    /// Reads a page. Unprogrammed pages read as zeros.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfRange`] if `ppa` is beyond the geometry.
    pub fn read_page(&self, ppa: Ppa) -> Result<Vec<u8>, FlashError> {
        if ppa >= self.total_pages {
            return Err(FlashError::OutOfRange(ppa));
        }
        Ok(self.pages.get(&ppa).map(|b| b.to_vec()).unwrap_or_else(|| vec![0u8; self.page_size]))
    }

    /// Programs a page.
    ///
    /// `data` shorter than a page is zero-padded; longer data is truncated.
    ///
    /// # Errors
    ///
    /// Fails if the page is out of range, already programmed, or programmed
    /// out of order within its block.
    pub fn program_page(&mut self, ppa: Ppa, data: &[u8]) -> Result<(), FlashError> {
        if ppa >= self.total_pages {
            return Err(FlashError::OutOfRange(ppa));
        }
        let block = self.block_of(ppa) as usize;
        let offset = (ppa % self.pages_per_block as u64) as usize;
        let write_ptr = self.blocks[block].write_ptr;
        if offset < write_ptr {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
        if offset > write_ptr {
            let expected = self.first_page_of(block as BlockId) + write_ptr as u64;
            return Err(FlashError::OutOfOrderProgram { ppa, expected });
        }
        let mut page = vec![0u8; self.page_size];
        let n = data.len().min(self.page_size);
        page[..n].copy_from_slice(&data[..n]);
        self.pages.insert(ppa, page.into_boxed_slice());
        self.blocks[block].write_ptr += 1;
        Ok(())
    }

    /// Erases a block, discarding all of its pages.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfRange`] if the block index is invalid.
    pub fn erase_block(&mut self, block: BlockId) -> Result<(), FlashError> {
        if block >= self.total_blocks() {
            return Err(FlashError::OutOfRange(block * self.pages_per_block as u64));
        }
        let first = self.first_page_of(block);
        for off in 0..self.pages_per_block as u64 {
            self.pages.remove(&(first + off));
        }
        let state = &mut self.blocks[block as usize];
        state.write_ptr = 0;
        state.erase_count += 1;
        Ok(())
    }

    /// Number of pages programmed in a block since its last erase.
    pub fn block_fill(&self, block: BlockId) -> usize {
        self.blocks[block as usize].write_ptr
    }

    /// Erase count (wear) of a block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks[block as usize].erase_count
    }

    /// Maximum erase count across all blocks (simple wear indicator).
    pub fn max_wear(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }
}

/// The slice of the NAND array owned by **one** flash channel.
///
/// Blocks are striped round-robin over channels (`block % channels` is the
/// owning channel), so a `ChannelFlash` holds every block of one residue
/// class. It enforces the same NAND invariants as [`FlashArray`] — sequential
/// programs within a block, no re-program before erase — but is sized to sit
/// behind a *per-channel* lock: programs/reads/erases on different channels
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

    /// Programs a page of this channel (same rules as
    /// [`FlashArray::program_page`]).
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

    fn array() -> FlashArray {
        FlashArray::new(&MssdConfig::small_test())
    }

    #[test]
    fn geometry_is_consistent() {
        let cfg = MssdConfig::small_test();
        let a = FlashArray::new(&cfg);
        assert_eq!(a.total_pages(), cfg.physical_pages());
        assert_eq!(a.total_blocks(), cfg.physical_blocks());
        assert_eq!(a.total_pages() % a.pages_per_block() as u64, 0);
    }

    #[test]
    fn unprogrammed_reads_zero() {
        let a = array();
        assert_eq!(a.read_page(0).unwrap(), vec![0u8; a.page_size()]);
    }

    #[test]
    fn program_and_read_back() {
        let mut a = array();
        let mut data = vec![0u8; a.page_size()];
        data[..4].copy_from_slice(b"abcd");
        a.program_page(0, &data).unwrap();
        assert_eq!(a.read_page(0).unwrap(), data);
    }

    #[test]
    fn short_data_is_padded() {
        let mut a = array();
        a.program_page(0, b"hi").unwrap();
        let page = a.read_page(0).unwrap();
        assert_eq!(&page[..2], b"hi");
        assert!(page[2..].iter().all(|b| *b == 0));
        assert_eq!(page.len(), a.page_size());
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
        assert_eq!(a.read_page(0).unwrap(), vec![0u8; a.page_size()]);
        // Can program again after erase.
        a.program_page(0, b"z").unwrap();
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut a = array();
        let bad = a.total_pages();
        assert!(matches!(a.read_page(bad), Err(FlashError::OutOfRange(_))));
        assert!(matches!(a.program_page(bad, b"x"), Err(FlashError::OutOfRange(_))));
        assert!(matches!(a.erase_block(a.total_blocks()), Err(FlashError::OutOfRange(_))));
    }

    #[test]
    fn channels_stripe_blocks() {
        let cfg = MssdConfig::small_test();
        let a = FlashArray::new(&cfg);
        let ppb = a.pages_per_block() as u64;
        assert_eq!(a.channel_of(0), 0);
        assert_eq!(a.channel_of(ppb), 1 % cfg.channels);
        assert_eq!(a.channel_of(ppb * cfg.channels as u64), 0);
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
        let cfg = MssdConfig::small_test();
        let mut s = ChannelFlash::new(&cfg, 1);
        let block = s.block_ids().next().unwrap();
        let first = s.first_page_of(block);
        assert_eq!(s.read_page(first).unwrap(), vec![0u8; cfg.page_size]);
        s.program_page(first, b"hi").unwrap();
        assert_eq!(&s.read_page(first).unwrap()[..2], b"hi");
        // Re-program and out-of-order program fail.
        assert!(matches!(s.program_page(first, b"x"), Err(FlashError::AlreadyProgrammed(_))));
        assert!(matches!(
            s.program_page(first + 2, b"x"),
            Err(FlashError::OutOfOrderProgram { .. })
        ));
        // Foreign pages and blocks are rejected.
        let foreign = ChannelFlash::new(&cfg, 0).block_ids().next().unwrap();
        assert!(matches!(s.program_page(foreign * 16, b"x"), Err(FlashError::OutOfRange(_))));
        assert!(matches!(s.erase_block(foreign), Err(FlashError::OutOfRange(_))));
        // Erase resets.
        s.erase_block(block).unwrap();
        assert_eq!(s.block_fill(block), 0);
        assert_eq!(s.erase_count(block), 1);
        assert_eq!(s.max_wear(), 1);
        s.program_page(first, b"z").unwrap();
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
        assert_eq!(a.max_wear(), 0);
        a.erase_block(3).unwrap();
        a.erase_block(3).unwrap();
        assert_eq!(a.erase_count(3), 2);
        assert_eq!(a.max_wear(), 2);
    }
}
