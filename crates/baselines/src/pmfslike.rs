//! The PMFS-like baseline: byte interface only, in-place data writes,
//! undo-journaled metadata.
//!
//! Characteristics reproduced from the paper's analysis (§5.3):
//!
//! * all accesses use the byte interface (direct access, no host page cache);
//! * metadata updates are protected by an **undo journal**, so every metadata
//!   change is written twice ("PMFS uses data journaling to ensure crash
//!   consistency ... double writes on the metadata");
//! * file data is written in place at the granularity the application used
//!   (no CoW), so small overwrites are cheap but every write pays the MMIO
//!   persistence barrier.

use fskit::{FsError, FsResult};
use mssd::{Category, Mssd};

use crate::common::{Ctx, BASELINE_DENTRY_SIZE, BASELINE_INODE_SIZE};
use crate::engine::{BaselineFs, MetaOp, PersistencePolicy};

/// Persistence policy of the PMFS-like baseline.
#[derive(Debug, Default)]
pub struct PmfsPolicy;

impl PmfsPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }

    /// Writes an undo-journal record of `len` bytes into the journal region.
    fn journal_entry(&self, ctx: &mut Ctx<'_>, len: u64) -> FsResult<()> {
        let page_size = ctx.layout.page_size as u64;
        let journal_bytes = ctx.layout.journal_pages * page_size;
        let seq = ctx.next_seq();
        let offset = (seq * 64) % journal_bytes.saturating_sub(len).max(1);
        let addr = ctx.layout.journal_start * page_size + offset;
        ctx.device.try_byte_write(addr, &vec![0u8; len as usize], None, Category::Journal)?;
        Ok(())
    }

    /// In-place metadata write of `len` bytes at `addr`.
    fn in_place(&self, ctx: &mut Ctx<'_>, addr: u64, len: u64, cat: Category) -> FsResult<()> {
        ctx.device.try_byte_write(addr, &vec![0u8; len as usize], None, cat)?;
        Ok(())
    }
}

impl PersistencePolicy for PmfsPolicy {
    fn fs_name(&self) -> &'static str {
        "pmfs"
    }

    fn buffered_data(&self) -> bool {
        false
    }

    fn needs_full_page(&self) -> bool {
        false
    }

    fn load_inode(&self, ctx: &mut Ctx<'_>, ino: u64) -> FsResult<()> {
        ctx.device.try_byte_read(
            ctx.layout.inode_addr(ino),
            BASELINE_INODE_SIZE as usize,
            Category::Inode,
        )?;
        Ok(())
    }

    fn load_dir(
        &self,
        ctx: &mut Ctx<'_>,
        _ino: u64,
        meta_block: u64,
        entries: usize,
    ) -> FsResult<()> {
        let page_size = ctx.layout.page_size;
        let len = ((entries.max(1)) * BASELINE_DENTRY_SIZE as usize).min(page_size);
        ctx.device.try_byte_read(meta_block * page_size as u64, len, Category::Dentry)?;
        Ok(())
    }

    fn metadata_op(&self, ctx: &mut Ctx<'_>, op: &MetaOp) -> FsResult<()> {
        let page_size = ctx.layout.page_size as u64;
        match *op {
            MetaOp::Create { parent_meta_block, ino, name_len, .. } => {
                // Undo records for inode + dentry + allocator, then in-place.
                self.journal_entry(ctx, BASELINE_INODE_SIZE + BASELINE_DENTRY_SIZE + 64)?;
                ctx.device.persist_barrier();
                self.in_place(
                    ctx,
                    ctx.layout.inode_addr(ino),
                    BASELINE_INODE_SIZE,
                    Category::Inode,
                )?;
                self.in_place(
                    ctx,
                    parent_meta_block * page_size,
                    BASELINE_DENTRY_SIZE + name_len as u64,
                    Category::Dentry,
                )?;
                self.in_place(ctx, ctx.layout.bitmap_group_addr(ino), 64, Category::Bitmap)?;
                ctx.device.persist_barrier();
            }
            MetaOp::Remove { parent_meta_block, ino, .. } => {
                self.journal_entry(ctx, BASELINE_DENTRY_SIZE + 64 + 64)?;
                ctx.device.persist_barrier();
                self.in_place(ctx, ctx.layout.inode_addr(ino), 64, Category::Inode)?;
                self.in_place(
                    ctx,
                    parent_meta_block * page_size,
                    BASELINE_DENTRY_SIZE,
                    Category::Dentry,
                )?;
                self.in_place(ctx, ctx.layout.bitmap_group_addr(ino), 64, Category::Bitmap)?;
                ctx.device.persist_barrier();
            }
            MetaOp::Rename { from_meta_block, to_meta_block, name_len, .. } => {
                self.journal_entry(ctx, 2 * BASELINE_DENTRY_SIZE)?;
                ctx.device.persist_barrier();
                self.in_place(
                    ctx,
                    from_meta_block * page_size,
                    BASELINE_DENTRY_SIZE,
                    Category::Dentry,
                )?;
                self.in_place(
                    ctx,
                    to_meta_block * page_size,
                    BASELINE_DENTRY_SIZE + name_len as u64,
                    Category::Dentry,
                )?;
                ctx.device.persist_barrier();
            }
            MetaOp::InodeUpdate { ino, .. } => {
                self.journal_entry(ctx, 64)?;
                ctx.device.persist_barrier();
                self.in_place(ctx, ctx.layout.inode_addr(ino), 64, Category::Inode)?;
                ctx.device.persist_barrier();
            }
            MetaOp::Truncate { ino, .. } => {
                self.journal_entry(ctx, 128)?;
                ctx.device.persist_barrier();
                self.in_place(ctx, ctx.layout.inode_addr(ino), 64, Category::Inode)?;
                self.in_place(ctx, ctx.layout.bitmap_group_addr(ino), 64, Category::Bitmap)?;
                ctx.device.persist_barrier();
            }
        }
        Ok(())
    }

    fn write_page(
        &self,
        ctx: &mut Ctx<'_>,
        _ino: u64,
        _file_block: u64,
        old_lba: Option<u64>,
        page: &[u8],
        dirty: &[(usize, usize)],
    ) -> FsResult<u64> {
        // In-place write of exactly the modified ranges.
        let lba = old_lba.or_else(|| ctx.alloc.allocate()).ok_or(FsError::NoSpace)?;
        let base = lba * ctx.layout.page_size as u64;
        for (off, len) in dirty {
            ctx.device.try_byte_write(
                base + *off as u64,
                &page[*off..*off + *len],
                None,
                Category::Data,
            )?;
        }
        ctx.device.persist_barrier();
        Ok(lba)
    }

    fn read_range(
        &self,
        ctx: &mut Ctx<'_>,
        lba: u64,
        offset: usize,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        Ok(ctx.device.try_byte_read(
            lba * ctx.layout.page_size as u64 + offset as u64,
            len,
            Category::Data,
        )?)
    }

    fn fsync_epilogue(&self, ctx: &mut Ctx<'_>, _ino: u64, _synced_pages: usize) -> FsResult<()> {
        ctx.device.persist_barrier();
        Ok(())
    }
}

/// The PMFS-like baseline file system.
pub type PmfsLike = BaselineFs<PmfsPolicy>;

impl BaselineFs<PmfsPolicy> {
    /// Formats a PMFS-like file system on the device.
    pub fn format(device: std::sync::Arc<Mssd>) -> std::sync::Arc<Self> {
        Self::with_policy(device, PmfsPolicy::new())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, FileSystemExt, OpenFlags};
    use mssd::stats::Direction;
    use mssd::{Category, DramMode, Interface, Mssd, MssdConfig};

    use super::PmfsLike;
    use crate::novalike::NovaLike;

    fn new_fs() -> (Arc<Mssd>, Arc<PmfsLike>) {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let fs = PmfsLike::format(Arc::clone(&dev));
        (dev, fs)
    }

    #[test]
    fn basic_file_operations_roundtrip() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/pm").unwrap();
        fs.write_file("/pm/f", &vec![0x77u8; 7_777]).unwrap();
        assert_eq!(fs.read_file("/pm/f").unwrap(), vec![0x77u8; 7_777]);
        let fd = fs.open("/pm/f", OpenFlags::read_write()).unwrap();
        fs.truncate(fd, 1_000).unwrap();
        assert_eq!(fs.read_file("/pm/f").unwrap().len(), 1_000);
        fs.unlink("/pm/f").unwrap();
        fs.rmdir("/pm").unwrap();
    }

    #[test]
    fn uses_only_the_byte_interface() {
        let (dev, fs) = new_fs();
        fs.write_file("/byte", &vec![1u8; 5_000]).unwrap();
        fs.read_file("/byte").unwrap();
        let t = dev.traffic();
        assert_eq!(t.host_bytes_by_interface(Direction::Write, Interface::Block), 0);
        assert_eq!(t.host_bytes_by_interface(Direction::Read, Interface::Block), 0);
    }

    #[test]
    fn small_overwrites_stay_small_but_metadata_is_double_written() {
        let (dev, fs) = new_fs();
        fs.write_file("/ip", &vec![1u8; 4096]).unwrap();
        let before = dev.traffic();
        let fd = fs.open("/ip", OpenFlags::read_write()).unwrap();
        fs.write(fd, 128, &[2u8; 64]).unwrap();
        let delta = dev.traffic().delta_since(&before);
        let data = delta.host_bytes_by_category(Direction::Write, Category::Data);
        assert!(data <= 256, "in-place write stays near the request size, got {data}");
        assert!(
            delta.host_bytes_by_category(Direction::Write, Category::Journal) > 0,
            "metadata change carries an undo-journal record"
        );
        let back = fs.read_file("/ip").unwrap();
        assert_eq!(&back[128..192], &[2u8; 64][..]);
        assert_eq!(back[192], 1);
    }

    #[test]
    fn journals_more_metadata_than_nova() {
        let run = |fs: &dyn fskit::FileSystem| {
            for i in 0..20 {
                fs.write_file(&format!("/f{i}"), b"payload").unwrap();
            }
        };
        let dev_p = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let pmfs = PmfsLike::format(Arc::clone(&dev_p));
        run(pmfs.as_ref());
        let dev_n = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let nova = NovaLike::format(Arc::clone(&dev_n));
        run(nova.as_ref());
        let pmfs_journal =
            dev_p.traffic().host_bytes_by_category(Direction::Write, Category::Journal);
        let nova_journal =
            dev_n.traffic().host_bytes_by_category(Direction::Write, Category::Journal);
        assert!(pmfs_journal > 0);
        assert_eq!(nova_journal, 0, "NOVA's log-structuring avoids journal double writes");
    }
}
