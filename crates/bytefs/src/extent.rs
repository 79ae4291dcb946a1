//! Extent-based data pointers.
//!
//! ByteFS "uses an Ext4-like extent structure to index a range of contiguous
//! file blocks with small extent nodes; each leaf extent node (16 B) includes
//! the file offset, logical block address, and length" (§4.5). The first few
//! extents live inline in the inode; when a file becomes more fragmented an
//! overflow extent block is allocated and the remaining nodes spill there.
//!
//! The in-memory [`ExtentTree`] is the authoritative map from file block index
//! to device LBA; [`Extent::encode`]/[`Extent::decode`] give the 16-byte
//! on-device representation used both for the inline region and the overflow
//! block.

/// On-device size of one extent descriptor.
pub const EXTENT_SIZE: usize = 16;

/// One contiguous run of file blocks mapped to contiguous device blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First file block (file offset / page size) covered by this extent.
    pub file_block: u64,
    /// Device LBA backing `file_block`.
    pub start_lba: u64,
    /// Number of consecutive blocks covered.
    pub len: u32,
}

impl Extent {
    /// Serializes to the 16-byte on-device format
    /// (`file_block:u48 | len:u16 | start_lba:u64`).
    pub fn encode(&self) -> [u8; EXTENT_SIZE] {
        let mut out = [0u8; EXTENT_SIZE];
        out[..6].copy_from_slice(&self.file_block.to_le_bytes()[..6]);
        let len = u16::try_from(self.len).expect("ExtentTree keeps len within the on-device u16");
        out[6..8].copy_from_slice(&len.to_le_bytes());
        out[8..16].copy_from_slice(&self.start_lba.to_le_bytes());
        out
    }

    /// Decodes a 16-byte on-device extent. Returns `None` for an all-zero
    /// (unused) slot.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        debug_assert!(raw.len() >= EXTENT_SIZE);
        if raw[..EXTENT_SIZE].iter().all(|b| *b == 0) {
            return None;
        }
        let mut fb = [0u8; 8];
        fb[..6].copy_from_slice(&raw[..6]);
        let len = u16::from_le_bytes(raw[6..8].try_into().expect("2 bytes")) as u32;
        let start_lba = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
        Some(Self { file_block: u64::from_le_bytes(fb), start_lba, len })
    }

    /// Last file block (inclusive) covered by this extent.
    pub fn last_file_block(&self) -> u64 {
        self.file_block + self.len as u64 - 1
    }
}

/// The per-file extent tree (kept sorted by file block).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentTree {
    extents: Vec<Extent>,
}

impl ExtentTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a tree from decoded extents (order does not matter).
    pub fn from_extents(mut extents: Vec<Extent>) -> Self {
        extents.retain(|e| e.len > 0);
        extents.sort_by_key(|e| e.file_block);
        Self { extents }
    }

    /// Number of extent descriptors.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// `true` when the file has no mapped blocks.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// The extents in file-block order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Total number of mapped blocks.
    pub fn mapped_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len as u64).sum()
    }

    /// Looks up the device LBA backing file block `file_block`.
    pub fn lookup(&self, file_block: u64) -> Option<u64> {
        let idx = match self.extents.binary_search_by_key(&file_block, |e| e.file_block) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let e = &self.extents[idx];
        if file_block <= e.last_file_block() {
            Some(e.start_lba + (file_block - e.file_block))
        } else {
            None
        }
    }

    /// Maps `file_block` to `lba`, merging with an adjacent extent when the
    /// mapping is contiguous on both sides.
    ///
    /// # Panics
    ///
    /// Panics if the file block is already mapped (the caller overwrites data
    /// in place and never remaps).
    pub fn insert(&mut self, file_block: u64, lba: u64) {
        assert!(self.lookup(file_block).is_none(), "file block {file_block} already mapped");
        // Try to extend the preceding extent.
        let pos = self.extents.partition_point(|e| e.file_block <= file_block);
        if pos > 0 {
            let prev = &mut self.extents[pos - 1];
            if prev.file_block + prev.len as u64 == file_block
                && prev.start_lba + prev.len as u64 == lba
                && prev.len < u16::MAX as u32
            {
                prev.len += 1;
                self.try_merge_with_next(pos - 1);
                return;
            }
        }
        // Try to prepend to the following extent.
        if pos < self.extents.len() {
            let next = &mut self.extents[pos];
            if file_block + 1 == next.file_block
                && lba + 1 == next.start_lba
                && next.len < u16::MAX as u32
            {
                next.file_block = file_block;
                next.start_lba = lba;
                next.len += 1;
                return;
            }
        }
        self.extents.insert(pos, Extent { file_block, start_lba: lba, len: 1 });
    }

    fn try_merge_with_next(&mut self, idx: usize) {
        if idx + 1 >= self.extents.len() {
            return;
        }
        let (a, b) = (self.extents[idx], self.extents[idx + 1]);
        if a.file_block + a.len as u64 == b.file_block
            && a.start_lba + a.len as u64 == b.start_lba
            && a.len + b.len <= u16::MAX as u32
        {
            self.extents[idx].len += b.len;
            self.extents.remove(idx + 1);
        }
    }

    /// Unmaps every file block at or beyond `first_block` (truncate) and
    /// returns the freed device LBAs.
    pub fn truncate(&mut self, first_block: u64) -> Vec<u64> {
        let mut freed = Vec::new();
        let mut kept = Vec::with_capacity(self.extents.len());
        for e in self.extents.drain(..) {
            if e.last_file_block() < first_block {
                kept.push(e);
            } else if e.file_block >= first_block {
                freed.extend((0..e.len as u64).map(|i| e.start_lba + i));
            } else {
                let keep_len = (first_block - e.file_block) as u32;
                freed.extend((keep_len as u64..e.len as u64).map(|i| e.start_lba + i));
                kept.push(Extent { len: keep_len, ..e });
            }
        }
        self.extents = kept;
        freed
    }

    /// Iterates over `(file_block, lba)` pairs for every mapped block.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.extents
            .iter()
            .flat_map(|e| (0..e.len as u64).map(move |i| (e.file_block + i, e.start_lba + i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let e = Extent { file_block: 12345, start_lba: 987654, len: 77 };
        let raw = e.encode();
        assert_eq!(Extent::decode(&raw), Some(e));
        assert_eq!(Extent::decode(&[0u8; 16]), None);
    }

    #[test]
    fn sequential_inserts_merge_into_one_extent() {
        let mut t = ExtentTree::new();
        for i in 0..10u64 {
            t.insert(i, 100 + i);
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.mapped_blocks(), 10);
        assert_eq!(t.lookup(0), Some(100));
        assert_eq!(t.lookup(9), Some(109));
        assert_eq!(t.lookup(10), None);
    }

    #[test]
    fn non_contiguous_inserts_create_separate_extents() {
        let mut t = ExtentTree::new();
        t.insert(0, 100);
        t.insert(5, 200);
        t.insert(1, 300); // contiguous file block but not contiguous LBA
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(1), Some(300));
        assert_eq!(t.lookup(5), Some(200));
        assert_eq!(t.lookup(2), None);
    }

    #[test]
    fn hole_filling_merges_both_sides() {
        let mut t = ExtentTree::new();
        t.insert(0, 100);
        t.insert(2, 102);
        assert_eq!(t.len(), 2);
        t.insert(1, 101);
        assert_eq!(t.len(), 1);
        assert_eq!(t.mapped_blocks(), 3);
    }

    #[test]
    fn prepend_merges_with_following_extent() {
        let mut t = ExtentTree::new();
        t.insert(5, 105);
        t.insert(4, 104);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(4), Some(104));
    }

    #[test]
    fn prepend_to_a_full_extent_starts_a_new_one() {
        // The on-device length is 16 bits: growing a 65 535-block extent at
        // its front must not produce a length that cannot be encoded.
        let full = Extent { file_block: 1, start_lba: 101, len: u16::MAX as u32 };
        let mut t = ExtentTree::from_extents(vec![full]);
        t.insert(0, 100);
        let decoded = t.extents().iter().map(|e| Extent::decode(&e.encode()).unwrap()).collect();
        let remounted = ExtentTree::from_extents(decoded);
        for block in 0..=u16::MAX as u64 {
            assert_eq!(remounted.lookup(block), Some(100 + block), "file block {block}");
        }
    }

    #[test]
    fn truncate_frees_tail_blocks() {
        let mut t = ExtentTree::new();
        for i in 0..8u64 {
            t.insert(i, 50 + i);
        }
        let freed = t.truncate(3);
        assert_eq!(freed, vec![53, 54, 55, 56, 57]);
        assert_eq!(t.mapped_blocks(), 3);
        assert_eq!(t.lookup(2), Some(52));
        assert_eq!(t.lookup(3), None);
        // Truncate to zero frees everything.
        let freed = t.truncate(0);
        assert_eq!(freed.len(), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn truncate_splits_extents_that_straddle_the_boundary() {
        let mut t = ExtentTree::new();
        t.insert(0, 10);
        t.insert(1, 11);
        t.insert(10, 99);
        let freed = t.truncate(1);
        assert!(freed.contains(&11));
        assert!(freed.contains(&99));
        assert_eq!(t.lookup(0), Some(10));
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn iter_blocks_yields_every_mapping() {
        let mut t = ExtentTree::new();
        t.insert(0, 100);
        t.insert(1, 101);
        t.insert(7, 200);
        let all: Vec<_> = t.iter_blocks().collect();
        assert_eq!(all, vec![(0, 100), (1, 101), (7, 200)]);
    }

    #[test]
    fn from_extents_sorts_and_drops_empty() {
        let t = ExtentTree::from_extents(vec![
            Extent { file_block: 5, start_lba: 50, len: 2 },
            Extent { file_block: 0, start_lba: 10, len: 1 },
            Extent { file_block: 9, start_lba: 90, len: 0 },
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.extents()[0].file_block, 0);
        assert_eq!(t.lookup(6), Some(51));
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn remapping_a_block_panics() {
        let mut t = ExtentTree::new();
        t.insert(0, 1);
        t.insert(0, 2);
    }
}
