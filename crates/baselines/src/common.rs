//! Shared plumbing for the baseline file systems: the pseudo on-device layout,
//! a simple block allocator, and the context handed to persistence policies.

use std::collections::BTreeSet;
use std::sync::Arc;

use fskit::blockrun::BlockWriteBatch;
use fskit::journal::BlockJournal;
use fskit::FsResult;
use mssd::{Category, Mssd};

/// The pseudo on-device layout the baselines use to pick *addresses* for
/// metadata traffic. The regions mirror an Ext4-style layout; because baseline
/// metadata is modelled at the traffic level the exact contents are never read
/// back, but keeping the regions disjoint from the data area keeps the
/// device-level accounting clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoLayout {
    /// Device page size.
    pub page_size: usize,
    /// Journal area (Ext4-like): `[journal_start, journal_start + journal_pages)`.
    pub journal_start: u64,
    /// Journal size in pages.
    pub journal_pages: u64,
    /// Inode table start page.
    pub inode_table_start: u64,
    /// Inode table size in pages.
    pub inode_table_pages: u64,
    /// Bitmap / NAT / SIT region start page.
    pub bitmap_start: u64,
    /// Bitmap region size in pages.
    pub bitmap_pages: u64,
    /// First data page.
    pub data_start: u64,
    /// Total pages on the device.
    pub total_pages: u64,
}

/// On-device inode size used by the baselines for traffic accounting.
pub const BASELINE_INODE_SIZE: u64 = 128;

/// Size of a directory entry update for byte-interface file systems.
pub const BASELINE_DENTRY_SIZE: u64 = 64;

impl PseudoLayout {
    /// Computes the layout for a device.
    pub fn compute(device: &Mssd) -> Self {
        let total_pages = device.logical_pages();
        let page_size = device.page_size();
        let journal_start = 1;
        let journal_pages = (total_pages / 100).clamp(64, 32_768);
        let inode_table_start = journal_start + journal_pages;
        let inode_table_pages = (total_pages / 64).max(16);
        let bitmap_start = inode_table_start + inode_table_pages;
        let bitmap_pages = (total_pages / 1024).max(8);
        let data_start = bitmap_start + bitmap_pages;
        assert!(data_start < total_pages, "device too small for baseline layout");
        Self {
            page_size,
            journal_start,
            journal_pages,
            inode_table_start,
            inode_table_pages,
            bitmap_start,
            bitmap_pages,
            data_start,
            total_pages,
        }
    }

    /// Inode-table page holding inode `ino`.
    pub fn inode_page(&self, ino: u64) -> u64 {
        let per_page = self.page_size as u64 / BASELINE_INODE_SIZE;
        self.inode_table_start + (ino / per_page) % self.inode_table_pages
    }

    /// Device byte address of inode `ino`.
    pub fn inode_addr(&self, ino: u64) -> u64 {
        let per_page = self.page_size as u64 / BASELINE_INODE_SIZE;
        self.inode_page(ino) * self.page_size as u64 + (ino % per_page) * BASELINE_INODE_SIZE
    }

    /// Bitmap page covering object `idx` (inode or block).
    pub fn bitmap_page(&self, idx: u64) -> u64 {
        let bits_per_page = (self.page_size * 8) as u64;
        self.bitmap_start + (idx / bits_per_page) % self.bitmap_pages
    }

    /// Device byte address of the 64-byte bitmap group covering `idx`.
    pub fn bitmap_group_addr(&self, idx: u64) -> u64 {
        let bits_per_group = BASELINE_DENTRY_SIZE * 8;
        let groups_per_page = self.page_size as u64 / BASELINE_DENTRY_SIZE;
        let group = idx / bits_per_group;
        self.bitmap_page(idx) * self.page_size as u64
            + (group % groups_per_page) * BASELINE_DENTRY_SIZE
    }
}

/// A simple free-list block allocator over the data area.
#[derive(Debug)]
pub struct BlockAlloc {
    start: u64,
    next: u64,
    end: u64,
    free: BTreeSet<u64>,
}

impl BlockAlloc {
    /// Creates an allocator over `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        Self { start, next: start, end, free: BTreeSet::new() }
    }

    /// Allocates one block.
    pub fn allocate(&mut self) -> Option<u64> {
        if let Some(&lba) = self.free.iter().next() {
            self.free.remove(&lba);
            return Some(lba);
        }
        if self.next < self.end {
            let lba = self.next;
            self.next += 1;
            Some(lba)
        } else {
            None
        }
    }

    /// Frees a block for reuse.
    pub fn free(&mut self, lba: u64) {
        debug_assert!((self.start..self.end).contains(&lba));
        self.free.insert(lba);
    }

    /// Number of blocks [`BlockAlloc::allocate`] can still hand out.
    pub fn available(&self) -> usize {
        self.free.len() + (self.end - self.next) as usize
    }

    /// Number of blocks currently allocated.
    pub fn allocated(&self) -> u64 {
        (self.next - self.start) - self.free.len() as u64
    }
}

/// The context handed to [`crate::engine::PersistencePolicy`] hooks.
pub struct Ctx<'a> {
    /// The device being written to.
    pub device: &'a Arc<Mssd>,
    /// The pseudo layout for metadata addresses.
    pub layout: &'a PseudoLayout,
    /// Allocator over the data area (also used for out-of-place metadata and
    /// per-inode log blocks).
    pub alloc: &'a mut BlockAlloc,
    /// The Ext4-style journal, if this baseline uses one.
    pub journal: Option<&'a mut BlockJournal>,
    /// A monotonically increasing sequence number policies can use to place
    /// log appends.
    pub seq: &'a mut u64,
}

impl<'a> Ctx<'a> {
    /// Writes whole data pages over the block interface: `place` picks each
    /// page's LBA from the allocator and the LBA backing it so far, then
    /// every run of consecutive LBAs leaves as one command. Returns the LBAs
    /// in page order. Every page is placed before the first is written, so a
    /// batch asking for more fresh blocks than [`BlockAlloc::available`] fails
    /// with the error `place` returns ([`fskit::FsError::NoSpace`]) before anything
    /// is written. When placement or a command fails nothing is remapped: the
    /// blocks taken here go back to the allocator and the file keeps the
    /// blocks (and contents) it had.
    pub fn write_data_pages(
        &mut self,
        pages: &[(u64, Option<u64>, &[u8])],
        mut place: impl FnMut(&mut BlockAlloc, Option<u64>) -> FsResult<u64>,
    ) -> FsResult<Vec<u64>> {
        let mut batch = BlockWriteBatch::default();
        let mut lbas = Vec::with_capacity(pages.len());
        let written = pages
            .iter()
            .try_for_each(|&(_, old_lba, page)| {
                let lba = place(self.alloc, old_lba)?;
                batch.push(lba, page);
                lbas.push(lba);
                Ok(())
            })
            .and_then(|()| batch.flush(self.device, Category::Data));
        if let Err(e) = written {
            for (&(_, old_lba, _), &lba) in pages.iter().zip(&lbas) {
                if old_lba != Some(lba) {
                    self.alloc.free(lba);
                }
            }
            return Err(e);
        }
        Ok(lbas)
    }

    /// Returns the next sequence number.
    pub fn next_seq(&mut self) -> u64 {
        *self.seq += 1;
        *self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssd::{DramMode, MssdConfig};

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let l = PseudoLayout::compute(&dev);
        assert!(l.journal_start >= 1);
        assert!(l.inode_table_start >= l.journal_start + l.journal_pages);
        assert!(l.bitmap_start >= l.inode_table_start + l.inode_table_pages);
        assert!(l.data_start >= l.bitmap_start + l.bitmap_pages);
        assert!(l.data_start < l.total_pages);
    }

    #[test]
    fn metadata_addresses_stay_in_their_regions() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let l = PseudoLayout::compute(&dev);
        for ino in [0u64, 1, 100, 100_000] {
            let page = l.inode_page(ino);
            assert!(page >= l.inode_table_start);
            assert!(page < l.inode_table_start + l.inode_table_pages);
            let addr = l.inode_addr(ino);
            assert!(addr / l.page_size as u64 == page);
        }
        for idx in [0u64, 9, 100_000, 12_345_678] {
            let addr = l.bitmap_group_addr(idx);
            let page = addr / l.page_size as u64;
            assert!(page >= l.bitmap_start && page < l.bitmap_start + l.bitmap_pages);
            assert_eq!(addr % BASELINE_DENTRY_SIZE, 0);
        }
    }

    #[test]
    fn block_alloc_hands_out_unique_blocks_and_reuses_freed_ones() {
        let mut a = BlockAlloc::new(100, 110);
        let mut got = Vec::new();
        while let Some(b) = a.allocate() {
            got.push(b);
        }
        assert_eq!(got, (100..110).collect::<Vec<_>>());
        assert_eq!(a.allocated(), 10);
        a.free(103);
        a.free(101);
        assert_eq!(a.allocated(), 8);
        assert_eq!(a.allocate(), Some(101));
        assert_eq!(a.allocate(), Some(103));
        assert_eq!(a.allocate(), None);
        assert_eq!(a.allocated(), 10);
    }

    #[test]
    fn ctx_sequence_increments() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let layout = PseudoLayout::compute(&dev);
        let mut alloc = BlockAlloc::new(layout.data_start, layout.total_pages);
        let mut seq = 0;
        let mut ctx =
            Ctx { device: &dev, layout: &layout, alloc: &mut alloc, journal: None, seq: &mut seq };
        assert_eq!(ctx.next_seq(), 1);
        assert_eq!(ctx.next_seq(), 2);
    }
}
