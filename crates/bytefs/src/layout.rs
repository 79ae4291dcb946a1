//! On-device layout of a ByteFS volume.
//!
//! ByteFS keeps an Ext4-like static layout (§4.9 says the implementation
//! reorganizes the Ext4 on-disk metadata structures): a superblock, inode and
//! block bitmaps, a fixed inode table, a reserved journal area ByteFS does not
//! write, and the data area. The layout is computed once from the device size at `mkfs` time
//! and stored in the superblock.

use serde::{Deserialize, Serialize};

/// Size of one on-device inode in bytes (§4.5: 128 B, split into two 64 B
/// halves).
pub const INODE_SIZE: usize = 128;

/// Size of one directory-entry slot in bytes (inode number, type, name length
/// and a short name fit in one cacheline; longer names span two slots).
pub const DENTRY_SIZE: usize = 64;

/// Number of extent descriptors stored inline in the inode before an overflow
/// extent block is allocated.
pub const INLINE_EXTENTS: usize = 4;

/// Reserved inode number of the root directory.
pub const ROOT_INO: u64 = 1;

/// The computed region boundaries of a ByteFS volume, in units of 4 KB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    /// Device page size in bytes.
    pub page_size: usize,
    /// Total device pages.
    pub total_pages: u64,
    /// Page holding the superblock (always 0).
    pub superblock_page: u64,
    /// First page of the inode bitmap.
    pub inode_bitmap_start: u64,
    /// Pages in the inode bitmap.
    pub inode_bitmap_pages: u64,
    /// First page of the block bitmap.
    pub block_bitmap_start: u64,
    /// Pages in the block bitmap.
    pub block_bitmap_pages: u64,
    /// First page of the inode table.
    pub inode_table_start: u64,
    /// Pages in the inode table.
    pub inode_table_pages: u64,
    /// First page of the reserved journal area (kept so the superblock
    /// encoding and every LBA stay fixed; ByteFS does not write it).
    pub journal_start: u64,
    /// Pages reserved for the journal area.
    pub journal_pages: u64,
    /// First page of the data area.
    pub data_start: u64,
    /// Number of data pages.
    pub data_pages: u64,
    /// Total number of inodes.
    pub inode_count: u64,
}

impl Layout {
    /// Computes the layout for a device with `total_pages` pages of
    /// `page_size` bytes.
    ///
    /// One inode is provisioned per four data-area pages (one file per 16 KB,
    /// matching the small-file workloads the paper targets), and 1 % of the
    /// device (at least 64 pages) is reserved for the journal area.
    ///
    /// # Panics
    ///
    /// Panics if the device is too small to hold the metadata regions
    /// (< ~1 MB).
    pub fn compute(total_pages: u64, page_size: usize) -> Self {
        assert!(total_pages >= 64, "device too small for a ByteFS volume");
        let inode_count = (total_pages / 4).max(64);
        let inodes_per_page = (page_size / INODE_SIZE) as u64;
        let inode_table_pages = inode_count.div_ceil(inodes_per_page);
        let bits_per_page = (page_size * 8) as u64;
        let inode_bitmap_pages = inode_count.div_ceil(bits_per_page);
        let block_bitmap_pages = total_pages.div_ceil(bits_per_page);
        let journal_pages = (total_pages / 100).max(64);

        let inode_bitmap_start = 1;
        let block_bitmap_start = inode_bitmap_start + inode_bitmap_pages;
        let inode_table_start = block_bitmap_start + block_bitmap_pages;
        let journal_start = inode_table_start + inode_table_pages;
        let data_start = journal_start + journal_pages;
        assert!(data_start < total_pages, "device too small for a ByteFS volume");
        let data_pages = total_pages - data_start;

        Self {
            page_size,
            total_pages,
            superblock_page: 0,
            inode_bitmap_start,
            inode_bitmap_pages,
            block_bitmap_start,
            block_bitmap_pages,
            inode_table_start,
            inode_table_pages,
            journal_start,
            journal_pages,
            data_start,
            data_pages,
            inode_count,
        }
    }

    /// Number of inodes that fit in one inode-table page.
    pub fn inodes_per_page(&self) -> u64 {
        (self.page_size / INODE_SIZE) as u64
    }

    /// Device byte address of inode `ino` in the inode table.
    ///
    /// # Panics
    ///
    /// Panics if `ino` is out of range.
    pub fn inode_addr(&self, ino: u64) -> u64 {
        assert!(ino < self.inode_count, "inode {ino} out of range");
        self.inode_table_start * self.page_size as u64 + ino * INODE_SIZE as u64
    }

    /// Device page (LBA) holding inode `ino`.
    pub fn inode_page(&self, ino: u64) -> u64 {
        self.inode_table_start + ino / self.inodes_per_page()
    }

    /// Converts a data-area-relative block index to an absolute device LBA.
    pub fn data_lba(&self, data_block: u64) -> u64 {
        self.data_start + data_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        // 8 MB test device: 2048 pages of 4 KB.
        Layout::compute(2048, 4096)
    }

    #[test]
    fn regions_are_ordered_and_disjoint() {
        let l = layout();
        assert_eq!(l.superblock_page, 0);
        assert!(l.inode_bitmap_start >= 1);
        assert!(l.block_bitmap_start >= l.inode_bitmap_start + l.inode_bitmap_pages);
        assert!(l.inode_table_start >= l.block_bitmap_start + l.block_bitmap_pages);
        assert!(l.journal_start >= l.inode_table_start + l.inode_table_pages);
        assert!(l.data_start >= l.journal_start + l.journal_pages);
        assert_eq!(l.data_start + l.data_pages, l.total_pages);
        assert!(l.data_pages > l.total_pages / 2, "most of the device should be data");
    }

    #[test]
    fn inode_count_scales_with_capacity() {
        let small = Layout::compute(2048, 4096);
        let big = Layout::compute(8192, 4096);
        assert!(big.inode_count > small.inode_count);
        assert_eq!(small.inodes_per_page(), 32);
    }

    #[test]
    fn inode_addresses_are_within_the_table() {
        let l = layout();
        let first = l.inode_addr(0);
        let last = l.inode_addr(l.inode_count - 1);
        assert_eq!(first, l.inode_table_start * 4096);
        assert!(last < (l.inode_table_start + l.inode_table_pages) * 4096);
        assert_eq!(l.inode_addr(33) - l.inode_addr(32), INODE_SIZE as u64);
        assert_eq!(l.inode_page(0), l.inode_table_start);
        assert_eq!(l.inode_page(32), l.inode_table_start + 1);
    }

    #[test]
    fn bitmap_group_addresses_are_cacheline_aligned() {
        // Bitmaps are persisted in 64-byte groups of 512 bits, group `g` at
        // `start * page_size + g * 64`: the group of the last inode and of
        // the last device page must end inside its bitmap region.
        let l = layout();
        let group_end = |last_bit: u64| (last_bit / 512 + 1) * 64;
        assert!(group_end(l.inode_count - 1) <= l.inode_bitmap_pages * 4096);
        assert!(group_end(l.total_pages - 1) <= l.block_bitmap_pages * 4096);
        assert_eq!(l.page_size % 64, 0);
    }

    #[test]
    fn data_lba_offsets_into_data_area() {
        let l = layout();
        assert_eq!(l.data_lba(0), l.data_start);
        assert_eq!(l.data_lba(10), l.data_start + 10);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_device_rejected() {
        let _ = Layout::compute(16, 4096);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inode_out_of_range_panics() {
        let l = layout();
        let _ = l.inode_addr(l.inode_count);
    }
}
