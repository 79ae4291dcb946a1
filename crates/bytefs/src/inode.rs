//! The 128-byte split inode.
//!
//! §4.5: "ByteFS maintains the inode as a 128 B entry and groups these entries
//! into 4 KB pages. To reduce the write traffic of inode updates, we split each
//! inode into the upper and lower regions (64 B each). The lower region
//! contains frequently updated information, such as file size, modification
//! times, and access rights... each inode update takes as low as 64 B via the
//! byte interface."
//!
//! Layout used here:
//!
//! * **lower 64 B (hot)** — type, nlink, size, mtime, block count, and the
//!   first two inline extents;
//! * **upper 64 B (cold)** — two more inline extents and the LBA of the
//!   overflow extent block (0 when unused).

use fskit::FileType;

use crate::extent::{Extent, ExtentTree, EXTENT_SIZE};
use crate::layout::{INLINE_EXTENTS, INODE_SIZE};

/// Half of an inode (the unit of byte-interface persistence).
pub const INODE_HALF: usize = INODE_SIZE / 2;

/// Maximum number of extents that fit in the overflow extent block.
pub const MAX_OVERFLOW_EXTENTS: usize = 255;

const KIND_FREE: u8 = 0;
const KIND_FILE: u8 = 1;
const KIND_DIR: u8 = 2;

/// The in-memory representation of one inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: u64,
    /// Regular file or directory.
    pub file_type: FileType,
    /// Link count.
    pub nlink: u32,
    /// File size in bytes (directories: number of entries × slot size).
    pub size: u64,
    /// The size the inode table on the device holds (ext4's `i_disksize`;
    /// in memory only): `size` except after a writeback pass that held back
    /// an unallocated partial EOF page and committed less.
    pub disk_size: u64,
    /// Modification time in virtual nanoseconds.
    pub mtime_ns: u64,
    /// Number of data blocks allocated to this inode (including the overflow
    /// extent block).
    pub blocks: u64,
    /// File-block → LBA mapping.
    pub extents: ExtentTree,
    /// LBA of the overflow extent block, if one has been allocated.
    pub overflow_lba: Option<u64>,
}

impl Inode {
    /// Creates a fresh inode of the given type.
    pub fn new(ino: u64, file_type: FileType, now_ns: u64) -> Self {
        Self {
            ino,
            file_type,
            nlink: 1,
            size: 0,
            disk_size: 0,
            mtime_ns: now_ns,
            blocks: 0,
            extents: ExtentTree::new(),
            overflow_lba: None,
        }
    }

    /// `true` if this inode describes a directory.
    pub fn is_dir(&self) -> bool {
        self.file_type.is_dir()
    }

    /// `true` once the inode has been tombstoned by `unlink`/`rmdir`
    /// (`nlink == 0`). Under the concurrent locking model this is set while
    /// the unlinker holds the inode's write lock, *before* its blocks are
    /// freed; data-path racers that acquire the lock afterwards check it and
    /// bail instead of resurrecting freed blocks.
    pub fn is_unlinked(&self) -> bool {
        self.nlink == 0
    }

    /// Encodes the hot lower half (64 bytes).
    pub fn encode_lower(&self) -> [u8; INODE_HALF] {
        let mut out = [0u8; INODE_HALF];
        out[0] = match self.file_type {
            FileType::File => KIND_FILE,
            FileType::Directory => KIND_DIR,
        };
        out[4..8].copy_from_slice(&self.nlink.to_le_bytes());
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        out[16..24].copy_from_slice(&self.mtime_ns.to_le_bytes());
        out[24..32].copy_from_slice(&self.blocks.to_le_bytes());
        for (i, e) in self.extents.extents().iter().take(2).enumerate() {
            let off = 32 + i * EXTENT_SIZE;
            out[off..off + EXTENT_SIZE].copy_from_slice(&e.encode());
        }
        out
    }

    /// Encodes the cold upper half (64 bytes).
    pub fn encode_upper(&self) -> [u8; INODE_HALF] {
        let mut out = [0u8; INODE_HALF];
        for (i, e) in self.extents.extents().iter().skip(2).take(INLINE_EXTENTS - 2).enumerate() {
            let off = i * EXTENT_SIZE;
            out[off..off + EXTENT_SIZE].copy_from_slice(&e.encode());
        }
        let off = (INLINE_EXTENTS - 2) * EXTENT_SIZE;
        out[off..off + 8].copy_from_slice(&self.overflow_lba.unwrap_or(0).to_le_bytes());
        out
    }

    /// Encodes the full 128-byte on-device inode.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut out = [0u8; INODE_SIZE];
        out[..INODE_HALF].copy_from_slice(&self.encode_lower());
        out[INODE_HALF..].copy_from_slice(&self.encode_upper());
        out
    }

    /// Decodes an inode from its 128-byte on-device form. Returns `None` for a
    /// free (never allocated / deleted) slot. Extents stored in the overflow
    /// block must be added afterwards with [`Inode::load_overflow`].
    pub fn decode(ino: u64, raw: &[u8]) -> Option<Self> {
        debug_assert!(raw.len() >= INODE_SIZE);
        let file_type = match raw[0] {
            KIND_FILE => FileType::File,
            KIND_DIR => FileType::Directory,
            KIND_FREE => return None,
            _ => return None,
        };
        let nlink = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
        let size = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
        let mtime_ns = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
        let blocks = u64::from_le_bytes(raw[24..32].try_into().expect("8 bytes"));
        let mut extents = Vec::new();
        for i in 0..2 {
            let off = 32 + i * EXTENT_SIZE;
            if let Some(e) = Extent::decode(&raw[off..off + EXTENT_SIZE]) {
                extents.push(e);
            }
        }
        for i in 0..(INLINE_EXTENTS - 2) {
            let off = INODE_HALF + i * EXTENT_SIZE;
            if let Some(e) = Extent::decode(&raw[off..off + EXTENT_SIZE]) {
                extents.push(e);
            }
        }
        let ov_off = INODE_HALF + (INLINE_EXTENTS - 2) * EXTENT_SIZE;
        let overflow = u64::from_le_bytes(raw[ov_off..ov_off + 8].try_into().expect("8 bytes"));
        Some(Self {
            ino,
            file_type,
            nlink,
            size,
            disk_size: size,
            mtime_ns,
            blocks,
            extents: ExtentTree::from_extents(extents),
            overflow_lba: (overflow != 0).then_some(overflow),
        })
    }

    /// Serializes the extents that do not fit inline, for the overflow extent
    /// block. Returns `None` when everything fits inline.
    ///
    /// # Panics
    ///
    /// Panics if the file has more than `INLINE_EXTENTS + MAX_OVERFLOW_EXTENTS`
    /// extents (the simulation caps fragmentation rather than chaining
    /// overflow blocks).
    pub fn encode_overflow(&self) -> Option<Vec<u8>> {
        let overflow: Vec<&Extent> = self.extents.extents().iter().skip(INLINE_EXTENTS).collect();
        if overflow.is_empty() {
            return None;
        }
        assert!(
            overflow.len() <= MAX_OVERFLOW_EXTENTS,
            "file too fragmented: {} overflow extents",
            overflow.len()
        );
        let mut out = vec![0u8; overflow.len() * EXTENT_SIZE];
        for (i, e) in overflow.iter().enumerate() {
            out[i * EXTENT_SIZE..(i + 1) * EXTENT_SIZE].copy_from_slice(&e.encode());
        }
        Some(out)
    }

    /// Adds the extents decoded from the overflow extent block.
    pub fn load_overflow(&mut self, block: &[u8]) {
        let mut all: Vec<Extent> = self.extents.extents().to_vec();
        for chunk in block.chunks_exact(EXTENT_SIZE) {
            if let Some(e) = Extent::decode(chunk) {
                all.push(e);
            }
        }
        self.extents = ExtentTree::from_extents(all);
    }

    /// `true` when the extent tree no longer fits in the inline slots and an
    /// overflow block is required.
    pub fn needs_overflow(&self) -> bool {
        self.extents.len() > INLINE_EXTENTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_inode() -> Inode {
        let mut inode = Inode::new(7, FileType::File, 1_000);
        inode.size = 8192;
        inode.disk_size = 8192;
        inode.blocks = 2;
        inode.nlink = 1;
        inode.extents.insert(0, 500);
        inode.extents.insert(1, 501);
        inode
    }

    #[test]
    fn encode_decode_roundtrip() {
        let inode = file_inode();
        let raw = inode.encode();
        assert_eq!(raw.len(), INODE_SIZE);
        let back = Inode::decode(7, &raw).unwrap();
        assert_eq!(back, inode);
    }

    #[test]
    fn free_slot_decodes_to_none() {
        assert!(Inode::decode(1, &[0u8; INODE_SIZE]).is_none());
        let mut raw = [0u8; INODE_SIZE];
        raw[0] = 0xEE;
        assert!(Inode::decode(1, &raw).is_none());
    }

    #[test]
    fn directory_roundtrip() {
        let mut inode = Inode::new(1, FileType::Directory, 5);
        inode.nlink = 2;
        inode.extents.insert(0, 900);
        inode.blocks = 1;
        let back = Inode::decode(1, &inode.encode()).unwrap();
        assert!(back.is_dir());
        assert_eq!(back, inode);
    }

    #[test]
    fn hot_fields_live_in_the_lower_half() {
        let mut inode = file_inode();
        let lower_before = inode.encode_lower();
        let upper_before = inode.encode_upper();
        // A size/mtime update (the common case) must only change the lower half.
        inode.size += 4096;
        inode.mtime_ns += 10;
        assert_ne!(inode.encode_lower(), lower_before);
        assert_eq!(inode.encode_upper(), upper_before);
    }

    #[test]
    fn inline_extents_split_across_halves() {
        let mut inode = Inode::new(3, FileType::File, 0);
        // 4 non-mergeable extents: 2 in the lower half, 2 in the upper half.
        for i in 0..4u64 {
            inode.extents.insert(i * 10, 100 + i * 7);
        }
        assert!(!inode.needs_overflow());
        let back = Inode::decode(3, &inode.encode()).unwrap();
        assert_eq!(back.extents, inode.extents);
        assert_eq!(back.overflow_lba, None);
    }

    #[test]
    fn overflow_extents_roundtrip() {
        let mut inode = Inode::new(9, FileType::File, 0);
        for i in 0..10u64 {
            inode.extents.insert(i * 5, 1000 + i * 3);
        }
        assert!(inode.needs_overflow());
        inode.overflow_lba = Some(4242);
        let overflow = inode.encode_overflow().expect("overflow needed");
        assert_eq!(overflow.len(), 6 * EXTENT_SIZE);

        let mut back = Inode::decode(9, &inode.encode()).unwrap();
        assert_eq!(back.overflow_lba, Some(4242));
        assert_eq!(back.extents.len(), INLINE_EXTENTS);
        back.load_overflow(&overflow);
        assert_eq!(back.extents, inode.extents);
    }

    #[test]
    fn no_overflow_when_extents_fit_inline() {
        let inode = file_inode();
        assert!(inode.encode_overflow().is_none());
        assert!(!inode.needs_overflow());
    }
}
