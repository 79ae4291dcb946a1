//! The Ext4-like baseline: block interface only, ordered-mode JBD2 journaling.
//!
//! Characteristics reproduced from the paper's analysis (§3, Figure 1,
//! Table 2):
//!
//! * every metadata update dirties whole 4 KB blocks (inode table block,
//!   directory block, bitmap block);
//! * dirty metadata blocks are committed through the JBD2 journal — descriptor
//!   block + data blocks + commit block — and then checkpointed in place,
//!   i.e. written **twice** ("journaling caused 30.7 % of the total traffic on
//!   average under the ordered mode");
//! * file data is written in place through the page cache, in whole blocks;
//! * `fsync` forces the journal commit and a device flush.

use parking_lot::Mutex;

use fskit::journal::JournaledBlock;
use fskit::{FsError, FsResult};
use mssd::{Category, Mssd};

use crate::common::Ctx;
use crate::engine::{BaselineFs, MetaOp, PersistencePolicy};

/// Maximum number of metadata blocks batched into one journal transaction
/// before it is committed even without an `fsync` (mirrors JBD2's periodic
/// commit).
const JOURNAL_BATCH_BLOCKS: usize = 32;

/// Persistence policy of the Ext4-like baseline.
#[derive(Debug, Default)]
pub struct Ext4Policy {
    pending: Mutex<Vec<JournaledBlock>>,
}

impl Ext4Policy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_pending(&self, ctx: &mut Ctx<'_>, lba: u64, category: Category) -> FsResult<()> {
        let mut pending = self.pending.lock();
        if pending.iter().any(|b| b.lba == lba) {
            return Ok(());
        }
        pending.push(JournaledBlock { lba, data: vec![0u8; ctx.layout.page_size], category });
        if pending.len() >= JOURNAL_BATCH_BLOCKS {
            let batch = std::mem::take(&mut *pending);
            drop(pending);
            self.commit_batch(ctx, batch)?;
        }
        Ok(())
    }

    fn flush_pending(&self, ctx: &mut Ctx<'_>) -> FsResult<()> {
        let batch = std::mem::take(&mut *self.pending.lock());
        self.commit_batch(ctx, batch)
    }

    fn commit_batch(&self, ctx: &mut Ctx<'_>, batch: Vec<JournaledBlock>) -> FsResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let journal = ctx.journal.as_deref_mut().expect("Ext4 policy always has a journal");
        journal.commit(&batch, true)
    }
}

impl PersistencePolicy for Ext4Policy {
    fn fs_name(&self) -> &'static str {
        "ext4"
    }

    fn wants_journal(&self) -> bool {
        true
    }

    fn load_inode(&self, ctx: &mut Ctx<'_>, ino: u64) -> FsResult<()> {
        let page = ctx.layout.inode_page(ino);
        ctx.device.try_block_read(page, 1, Category::Inode)?;
        Ok(())
    }

    fn load_dir(
        &self,
        ctx: &mut Ctx<'_>,
        _ino: u64,
        meta_block: u64,
        _entries: usize,
    ) -> FsResult<()> {
        ctx.device.try_block_read(meta_block, 1, Category::Dentry)?;
        Ok(())
    }

    fn metadata_op(&self, ctx: &mut Ctx<'_>, op: &MetaOp) -> FsResult<()> {
        match *op {
            MetaOp::Create { parent_meta_block, ino, .. }
            | MetaOp::Remove { parent_meta_block, ino, .. } => {
                self.add_pending(ctx, ctx.layout.inode_page(ino), Category::Inode)?;
                self.add_pending(ctx, parent_meta_block, Category::Dentry)?;
                self.add_pending(ctx, ctx.layout.bitmap_page(ino), Category::Bitmap)?;
            }
            MetaOp::Rename { from_meta_block, to_meta_block, ino, .. } => {
                self.add_pending(ctx, from_meta_block, Category::Dentry)?;
                self.add_pending(ctx, to_meta_block, Category::Dentry)?;
                self.add_pending(ctx, ctx.layout.inode_page(ino), Category::Inode)?;
            }
            MetaOp::InodeUpdate { ino, .. } => {
                self.add_pending(ctx, ctx.layout.inode_page(ino), Category::Inode)?;
                self.add_pending(ctx, ctx.layout.bitmap_page(ino), Category::Bitmap)?;
            }
            MetaOp::Truncate { ino, .. } => {
                self.add_pending(ctx, ctx.layout.inode_page(ino), Category::Inode)?;
                self.add_pending(ctx, ctx.layout.bitmap_page(ino), Category::Bitmap)?;
            }
        }
        Ok(())
    }

    fn write_page(
        &self,
        ctx: &mut Ctx<'_>,
        ino: u64,
        file_block: u64,
        old_lba: Option<u64>,
        page: &[u8],
        _dirty: &[(usize, usize)],
    ) -> FsResult<u64> {
        Ok(self.write_pages(ctx, ino, &[(file_block, old_lba, page)])?[0])
    }

    fn write_pages(
        &self,
        ctx: &mut Ctx<'_>,
        _ino: u64,
        pages: &[(u64, Option<u64>, &[u8])],
    ) -> FsResult<Vec<u64>> {
        // In place: a page keeps its block, a new page takes a fresh one.
        ctx.write_data_pages(pages, |alloc, old_lba| {
            old_lba.or_else(|| alloc.allocate()).ok_or(FsError::NoSpace)
        })
    }

    fn read_range(
        &self,
        ctx: &mut Ctx<'_>,
        lba: u64,
        offset: usize,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        let page = ctx.device.try_block_read(lba, 1, Category::Data)?;
        Ok(page[offset..offset + len].to_vec())
    }

    fn read_pages(&self, ctx: &mut Ctx<'_>, lba: u64, count: usize) -> FsResult<Vec<Vec<u8>>> {
        Ok(ctx.device.try_block_read_pages(lba, count, Category::Data)?)
    }

    fn fsync_epilogue(&self, ctx: &mut Ctx<'_>, _ino: u64, _synced_pages: usize) -> FsResult<()> {
        // Ordered mode: data is already in place; commit the metadata journal
        // transaction, which also flushes the device write cache.
        self.flush_pending(ctx)?;
        ctx.device.try_flush()?;
        Ok(())
    }

    fn sync_epilogue(&self, ctx: &mut Ctx<'_>) -> FsResult<()> {
        self.flush_pending(ctx)?;
        ctx.device.try_flush()?;
        Ok(())
    }
}

/// The Ext4-like baseline file system.
pub type Ext4Like = BaselineFs<Ext4Policy>;

impl BaselineFs<Ext4Policy> {
    /// Formats an Ext4-like file system on the device.
    pub fn format(device: std::sync::Arc<Mssd>) -> std::sync::Arc<Self> {
        Self::with_policy(device, Ext4Policy::new())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, FileSystemExt, OpenFlags};
    use mssd::stats::Direction;
    use mssd::{Category, DramMode, Interface, Mssd, MssdConfig};

    use super::Ext4Like;

    fn new_fs() -> (Arc<Mssd>, Arc<Ext4Like>) {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let fs = Ext4Like::format(Arc::clone(&dev));
        (dev, fs)
    }

    #[test]
    fn basic_file_operations_roundtrip() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", &vec![3u8; 10_000]).unwrap();
        assert_eq!(fs.read_file("/d/f").unwrap(), vec![3u8; 10_000]);
        assert_eq!(fs.stat("/d/f").unwrap().size, 10_000);
        fs.rename("/d/f", "/d/g").unwrap();
        assert!(fs.exists("/d/g"));
        fs.unlink("/d/g").unwrap();
        fs.rmdir("/d").unwrap();
    }

    #[test]
    fn all_traffic_uses_the_block_interface() {
        let (dev, fs) = new_fs();
        fs.write_file("/blk", &vec![1u8; 5_000]).unwrap();
        fs.read_file("/blk").unwrap();
        let t = dev.traffic();
        assert_eq!(t.host_bytes_by_interface(Direction::Write, Interface::Byte), 0);
        assert_eq!(t.host_bytes_by_interface(Direction::Read, Interface::Byte), 0);
        assert!(t.host_bytes_by_interface(Direction::Write, Interface::Block) > 0);
    }

    #[test]
    fn fsync_generates_journal_double_writes() {
        let (dev, fs) = new_fs();
        let fd = fs.create("/j").unwrap();
        fs.write(fd, 0, &vec![7u8; 4096]).unwrap();
        let before = dev.traffic();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        let journal = delta.host_bytes_by_category(Direction::Write, Category::Journal);
        let inode = delta.host_bytes_by_category(Direction::Write, Category::Inode);
        assert!(journal >= 3 * 4096, "descriptor + data + commit journal blocks, got {journal}");
        assert!(inode >= 4096, "checkpoint writes the inode block in place");
        assert!(delta.host_bytes_by_category(Direction::Write, Category::Data) >= 4096);
    }

    #[test]
    fn metadata_writes_are_whole_blocks() {
        let (dev, fs) = new_fs();
        let before = dev.traffic();
        for i in 0..8 {
            fs.write_file(&format!("/small{i}"), b"x").unwrap();
        }
        fs.sync().unwrap();
        let delta = dev.traffic().delta_since(&before);
        // Every metadata category that has traffic wrote at least one full block.
        for cat in [Category::Inode, Category::Dentry, Category::Bitmap] {
            let bytes = delta.host_bytes_by_category(Direction::Write, cat);
            assert!(bytes == 0 || bytes % 4096 == 0, "{cat} wrote {bytes} bytes");
        }
        let inode_bytes = delta.host_bytes_by_category(Direction::Write, Category::Inode);
        assert!(inode_bytes >= 4096, "inode updates amplify to whole blocks");
    }

    #[test]
    fn overwrite_stays_in_place() {
        let (_dev, fs) = new_fs();
        fs.write_file("/f", &vec![1u8; 4096]).unwrap();
        let fd = fs.open("/f", OpenFlags::read_write()).unwrap();
        fs.write(fd, 0, &vec![2u8; 4096]).unwrap();
        fs.fsync(fd).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), vec![2u8; 4096]);
        let meta = fs.stat("/f").unwrap();
        assert_eq!(meta.blocks, 1, "in-place update keeps a single block");
    }
}
