//! The F2FS-like baseline: block interface only, log-structured (out-of-place)
//! updates.
//!
//! Characteristics reproduced from the paper's analysis (§3):
//!
//! * data and metadata are written out of place — every writeback allocates a
//!   new block, so there is no journal double write (lower write amplification
//!   than Ext4, Table 2);
//! * frequent data-pointer (NAT) updates: "F2FS performs out-of-place updates
//!   with frequent data pointer updates ... up to 26 % of the total write
//!   traffic and 16 % of the read traffic";
//! * node (inode) and dentry updates still dirty whole 4 KB blocks.

use fskit::{FsError, FsResult};
use parking_lot::Mutex;

use mssd::{Category, Mssd};

use crate::common::Ctx;
use crate::engine::{BaselineFs, MetaOp, PersistencePolicy};

/// Number of pending metadata block updates that triggers a background
/// writeback (mirrors F2FS's node-page writeback batching).
const NODE_BATCH_BLOCKS: usize = 32;

/// Persistence policy of the F2FS-like baseline.
#[derive(Debug, Default)]
pub struct F2fsPolicy {
    /// Pending out-of-place metadata block writes (deduplicated by key).
    pending: Mutex<Vec<(u64, Category)>>,
}

impl F2fsPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_pending(&self, ctx: &mut Ctx<'_>, key: u64, category: Category) -> FsResult<()> {
        let mut pending = self.pending.lock();
        if pending.iter().any(|(k, c)| *k == key && *c == category) {
            return Ok(());
        }
        pending.push((key, category));
        if pending.len() >= NODE_BATCH_BLOCKS {
            let batch = std::mem::take(&mut *pending);
            drop(pending);
            self.write_batch(ctx, batch)?;
        }
        Ok(())
    }

    fn flush_pending(&self, ctx: &mut Ctx<'_>) -> FsResult<()> {
        let batch = std::mem::take(&mut *self.pending.lock());
        self.write_batch(ctx, batch)
    }

    /// Writes a batch of metadata blocks out of place, plus one NAT block
    /// recording the new locations.
    fn write_batch(&self, ctx: &mut Ctx<'_>, batch: Vec<(u64, Category)>) -> FsResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if ctx.alloc.available() == 0 {
            // Each block below is released before the next is taken, so one
            // free block carries any batch; with none, nothing is written
            // and the batch stays pending.
            self.pending.lock().extend(batch);
            return Err(FsError::NoSpace);
        }
        let page = vec![0u8; ctx.layout.page_size];
        for (_, category) in &batch {
            let lba = ctx.alloc.allocate().expect("one is free, each is released");
            ctx.device.try_block_write(lba, &page, *category)?;
            // The block only exists to model traffic; release it immediately
            // so sustained metadata churn does not exhaust the data area.
            ctx.alloc.free(lba);
        }
        // Node address table update for the relocated blocks.
        ctx.device.try_block_write(ctx.layout.bitmap_start, &page, Category::DataPointer)?;
        Ok(())
    }
}

impl PersistencePolicy for F2fsPolicy {
    fn fs_name(&self) -> &'static str {
        "f2fs"
    }

    fn load_inode(&self, ctx: &mut Ctx<'_>, ino: u64) -> FsResult<()> {
        ctx.device.try_block_read(ctx.layout.inode_page(ino), 1, Category::Inode)?;
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
        // NAT lookup to find the node block of the directory.
        ctx.device.try_block_read(ctx.layout.bitmap_start, 1, Category::DataPointer)?;
        Ok(())
    }

    fn metadata_op(&self, ctx: &mut Ctx<'_>, op: &MetaOp) -> FsResult<()> {
        match *op {
            MetaOp::Create { parent_meta_block, ino, .. }
            | MetaOp::Remove { parent_meta_block, ino, .. } => {
                self.add_pending(ctx, ino, Category::Inode)?;
                self.add_pending(ctx, parent_meta_block, Category::Dentry)?;
                // Segment information table update.
                self.add_pending(ctx, ino, Category::Bitmap)?;
            }
            MetaOp::Rename { from_meta_block, to_meta_block, ino, .. } => {
                self.add_pending(ctx, from_meta_block, Category::Dentry)?;
                self.add_pending(ctx, to_meta_block, Category::Dentry)?;
                self.add_pending(ctx, ino, Category::Inode)?;
            }
            MetaOp::InodeUpdate { ino, .. } => {
                self.add_pending(ctx, ino, Category::Inode)?;
            }
            MetaOp::Truncate { ino, .. } => {
                self.add_pending(ctx, ino, Category::Inode)?;
                self.add_pending(ctx, ino, Category::Bitmap)?;
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
        ino: u64,
        pages: &[(u64, Option<u64>, &[u8])],
    ) -> FsResult<Vec<u64>> {
        // Out-of-place data writes: always fresh blocks (the old ones are
        // freed by the engine), which the log hands out consecutively, so an
        // fsync's pages leave as few commands.
        let lbas =
            ctx.write_data_pages(pages, |alloc, _| alloc.allocate().ok_or(FsError::NoSpace))?;
        // Every relocation dirties the file's data pointers: once per page,
        // so a node batch that fills in between re-dirties them as before.
        for _ in pages {
            self.add_pending(ctx, ino, Category::DataPointer)?;
        }
        Ok(lbas)
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

/// The F2FS-like baseline file system.
pub type F2fsLike = BaselineFs<F2fsPolicy>;

impl BaselineFs<F2fsPolicy> {
    /// Formats an F2FS-like file system on the device.
    pub fn format(device: std::sync::Arc<Mssd>) -> std::sync::Arc<Self> {
        Self::with_policy(device, F2fsPolicy::new())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, FileSystemExt, OpenFlags};
    use mssd::stats::Direction;
    use mssd::{Category, DramMode, Interface, Mssd, MssdConfig};

    use super::F2fsLike;
    use crate::ext4like::Ext4Like;

    fn new_fs() -> (Arc<Mssd>, Arc<F2fsLike>) {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let fs = F2fsLike::format(Arc::clone(&dev));
        (dev, fs)
    }

    #[test]
    fn basic_file_operations_roundtrip() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/logs").unwrap();
        fs.write_file("/logs/a", &vec![0xC3u8; 12_345]).unwrap();
        assert_eq!(fs.read_file("/logs/a").unwrap(), vec![0xC3u8; 12_345]);
        let fd = fs.open("/logs/a", OpenFlags::read_write()).unwrap();
        fs.write(fd, 4_000, &[1u8; 200]).unwrap();
        fs.fsync(fd).unwrap();
        let back = fs.read_file("/logs/a").unwrap();
        assert_eq!(&back[4_000..4_200], &[1u8; 200][..]);
        fs.unlink("/logs/a").unwrap();
        fs.rmdir("/logs").unwrap();
    }

    #[test]
    fn uses_only_the_block_interface() {
        let (dev, fs) = new_fs();
        fs.write_file("/x", &vec![1u8; 8_192]).unwrap();
        fs.read_file("/x").unwrap();
        let t = dev.traffic();
        assert_eq!(t.host_bytes_by_interface(Direction::Write, Interface::Byte), 0);
        assert_eq!(t.host_bytes_by_interface(Direction::Read, Interface::Byte), 0);
    }

    #[test]
    fn no_journal_traffic_but_data_pointer_updates() {
        let (dev, fs) = new_fs();
        fs.write_file("/np", &vec![2u8; 8_192]).unwrap();
        fs.sync().unwrap();
        let t = dev.traffic();
        assert_eq!(
            t.host_bytes_by_category(Direction::Write, Category::Journal),
            0,
            "F2FS does not double-write through a journal"
        );
        assert!(
            t.host_bytes_by_category(Direction::Write, Category::DataPointer) > 0,
            "out-of-place updates dirty the NAT / data pointers"
        );
    }

    #[test]
    fn writes_less_metadata_than_ext4_for_the_same_ops() {
        let run = |fs: &dyn fskit::FileSystem| {
            for i in 0..16 {
                let fd = fs.create(&format!("/f{i}")).unwrap();
                fs.write(fd, 0, &vec![1u8; 4096]).unwrap();
                fs.fsync(fd).unwrap();
                fs.close(fd).unwrap();
            }
        };
        let dev_e = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let ext4 = Ext4Like::format(Arc::clone(&dev_e));
        run(ext4.as_ref());
        let dev_f = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let f2fs = F2fsLike::format(Arc::clone(&dev_f));
        run(f2fs.as_ref());
        let ext4_meta = dev_e.traffic().host_metadata_bytes(Direction::Write);
        let f2fs_meta = dev_f.traffic().host_metadata_bytes(Direction::Write);
        assert!(
            f2fs_meta < ext4_meta,
            "F2FS ({f2fs_meta} B) should write less metadata than Ext4 ({ext4_meta} B)"
        );
    }

    #[test]
    fn overwrites_relocate_data_blocks() {
        let (dev, fs) = new_fs();
        fs.write_file("/reloc", &vec![1u8; 4096]).unwrap();
        let writes_before = dev.traffic().host_bytes_by_category(Direction::Write, Category::Data);
        let fd = fs.open("/reloc", OpenFlags::read_write()).unwrap();
        fs.write(fd, 0, &vec![2u8; 4096]).unwrap();
        fs.fsync(fd).unwrap();
        let writes_after = dev.traffic().host_bytes_by_category(Direction::Write, Category::Data);
        assert_eq!(writes_after - writes_before, 4096);
        assert_eq!(fs.read_file("/reloc").unwrap(), vec![2u8; 4096]);
    }
}
