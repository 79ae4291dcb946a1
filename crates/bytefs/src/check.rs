//! ByteFS's implementation of the [`CrashConsistent`] checker API: an
//! "fsck as a library" that crashkit runs after every remount of a restored
//! crash image.
//!
//! The walk starts at the root directory, follows every cached-or-loadable
//! dentry and cross-checks the three metadata structures that must agree for
//! the volume to be coherent:
//!
//! * **namespace ↔ inode table** — every dentry points at an allocated,
//!   decodable, live (`nlink > 0`) inode of the dentry's type;
//! * **inode table ↔ block bitmap** — every extent block (and overflow
//!   block) is inside the data region, marked allocated, and owned by
//!   exactly one inode; no extent maps a page beyond the file's EOF;
//! * **bitmaps ↔ reality** — the allocator totals equal exactly what the
//!   walk reached (leaked inodes/blocks and double frees both surface as a
//!   count mismatch).

use std::collections::HashMap;

use fskit::check::{CrashConsistent, Violation};
use fskit::FileType;

use crate::fs::ByteFs;
use crate::layout::ROOT_INO;

/// Checker name used in every [`Violation`] this module reports.
const CHECKER: &str = "bytefs-fsck";

impl ByteFs {
    /// Full structural verification (see the [module docs](self)). Exposed
    /// directly (besides the [`CrashConsistent`] impl) so tests can call it
    /// on a concrete `ByteFs` without a trait import.
    pub fn fsck(&self) -> Vec<Violation> {
        let mut v: Vec<Violation> = Vec::new();
        let mut ns = self.write_parked(&self.namespace);

        // Breadth-first namespace walk from the root.
        let mut queue = vec![ROOT_INO];
        let mut visited: HashMap<u64, FileType> = HashMap::new();
        visited.insert(ROOT_INO, FileType::Directory);
        // Directory inode -> number of subdirectories (for nlink checks).
        let mut subdirs: HashMap<u64, u32> = HashMap::new();
        while let Some(dir) = queue.pop() {
            if let Err(e) = self.load_dir(&mut ns, dir) {
                v.push(Violation::new(CHECKER, format!("directory {dir} unreadable: {e}")));
                continue;
            }
            let entries: Vec<(String, u64, FileType)> =
                ns.dirs[&dir].iter().map(|(name, e)| (name.clone(), e.ino, e.file_type)).collect();
            for (name, ino, ftype) in entries {
                if visited.insert(ino, ftype).is_some() {
                    v.push(Violation::new(
                        CHECKER,
                        format!("inode {ino} reachable via more than one dentry ({name})"),
                    ));
                    continue;
                }
                if ftype.is_dir() {
                    *subdirs.entry(dir).or_default() += 1;
                    queue.push(ino);
                }
            }
        }

        // Inode-level checks and block ownership.
        let mut block_owner: HashMap<u64, u64> = HashMap::new();
        let mut counted_blocks: u64 = 0;
        let page_size = self.layout.page_size as u64;
        for (&ino, &ftype) in &visited {
            if ino >= self.layout.inode_count {
                v.push(Violation::new(CHECKER, format!("inode {ino} out of table range")));
                continue;
            }
            if !self.inode_bitmap.is_allocated(ino) {
                v.push(Violation::new(
                    CHECKER,
                    format!("inode {ino} reachable but free in the inode bitmap"),
                ));
            }
            let handle = match self.inode_handle(ino) {
                Ok(h) => h,
                Err(e) => {
                    v.push(Violation::new(CHECKER, format!("inode {ino} unloadable: {e}")));
                    continue;
                }
            };
            let inode = self.read_parked(&handle);
            if inode.is_unlinked() {
                v.push(Violation::new(
                    CHECKER,
                    format!("inode {ino} reachable but tombstoned (nlink == 0)"),
                ));
            }
            if inode.is_dir() != ftype.is_dir() {
                v.push(Violation::new(
                    CHECKER,
                    format!("inode {ino}: dentry type {ftype:?} disagrees with inode"),
                ));
            }
            if inode.is_dir() {
                let expected = 2 + subdirs.get(&ino).copied().unwrap_or(0);
                if inode.nlink != expected {
                    v.push(Violation::new(
                        CHECKER,
                        format!(
                            "directory {ino}: nlink {} but {} expected ({} subdirs)",
                            inode.nlink,
                            expected,
                            expected - 2
                        ),
                    ));
                }
            }
            let eof_pages = inode.size.div_ceil(page_size);
            let mut owned: Vec<u64> = inode.extents.iter_blocks().map(|(_, lba)| lba).collect();
            for (file_block, lba) in inode.extents.iter_blocks() {
                // Directories size their dentry area lazily; only regular
                // files must not map blocks beyond EOF.
                if !inode.is_dir() && file_block >= eof_pages {
                    v.push(Violation::new(
                        CHECKER,
                        format!(
                            "inode {ino}: block {lba} mapped at file page {file_block} beyond \
                             EOF ({eof_pages} pages)"
                        ),
                    ));
                }
            }
            owned.extend(inode.overflow_lba);
            for lba in owned {
                counted_blocks += 1;
                if lba < self.layout.data_start || lba >= self.layout.total_pages {
                    v.push(Violation::new(
                        CHECKER,
                        format!("inode {ino}: block {lba} outside the data region"),
                    ));
                    continue;
                }
                if !self.block_bitmap.is_allocated(lba) {
                    v.push(Violation::new(
                        CHECKER,
                        format!("inode {ino}: block {lba} in use but free in the block bitmap"),
                    ));
                }
                if let Some(prev) = block_owner.insert(lba, ino) {
                    v.push(Violation::new(
                        CHECKER,
                        format!("block {lba} owned by both inode {prev} and inode {ino}"),
                    ));
                }
            }
        }

        // Allocator totals: exactly the reachable objects, nothing more.
        // Inode 0 is permanently reserved; every metadata page below
        // `data_start` is permanently reserved in the block bitmap.
        let expected_inodes = visited.len() as u64 + 1;
        if self.inode_bitmap.allocated() != expected_inodes {
            v.push(Violation::new(
                CHECKER,
                format!(
                    "inode bitmap says {} allocated, namespace reaches {} (+1 reserved): \
                     leaked or lost inodes",
                    self.inode_bitmap.allocated(),
                    visited.len()
                ),
            ));
        }
        let expected_blocks = self.layout.data_start + counted_blocks;
        if self.block_bitmap.allocated() != expected_blocks {
            v.push(Violation::new(
                CHECKER,
                format!(
                    "block bitmap says {} allocated, walk accounts for {} \
                     ({} metadata + {} owned): leaked or lost blocks",
                    self.block_bitmap.allocated(),
                    expected_blocks,
                    self.layout.data_start,
                    counted_blocks
                ),
            ));
        }

        // The device's own FTL invariants ride along: a mapping that points
        // at a never-programmed page would surface here.
        for problem in self.device.check_consistency() {
            v.push(Violation::new("mssd-ftl", problem));
        }
        v
    }
}

impl CrashConsistent for ByteFs {
    fn check_invariants(&self) -> Vec<Violation> {
        self.fsck()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ByteFsConfig;
    use fskit::{FileSystem, FileSystemExt};
    use mssd::{DramMode, Mssd, MssdConfig};
    use std::sync::Arc;

    fn fresh() -> Arc<ByteFs> {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        ByteFs::format(dev, ByteFsConfig::full()).unwrap()
    }

    #[test]
    fn fresh_volume_is_clean() {
        let fs = fresh();
        assert_eq!(fs.fsck(), Vec::new());
    }

    #[test]
    fn populated_volume_is_clean() {
        let fs = fresh();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        for i in 0..10 {
            fs.write_file(&format!("/a/f{i}"), &vec![i as u8; 5000]).unwrap();
        }
        fs.rename("/a/f0", "/a/b/moved").unwrap();
        fs.unlink("/a/f1").unwrap();
        fs.sync().unwrap();
        assert_eq!(fs.fsck(), Vec::new());
    }

    #[test]
    fn corruption_is_detected() {
        let fs = fresh();
        fs.write_file("/x", &vec![7u8; 9000]).unwrap();
        // Sabotage: free one of the file's data blocks behind the fs's back.
        let ino = fs.stat("/x").unwrap().inode;
        let lba = {
            let handle = fs.inode_handle(ino).unwrap();
            let lba = handle.read().extents.iter_blocks().next().unwrap().1;
            lba
        };
        fs.block_bitmap.free(lba);
        let problems = fs.fsck();
        assert!(
            problems.iter().any(|p| p.detail.contains("free in the block bitmap")),
            "fsck must flag the freed in-use block: {problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.detail.contains("leaked or lost blocks")),
            "fsck must flag the allocator mismatch: {problems:?}"
        );
    }
}
