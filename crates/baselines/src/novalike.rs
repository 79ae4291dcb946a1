//! The NOVA-like baseline: byte interface only, per-inode logs, page-granular
//! copy-on-write data.
//!
//! Characteristics reproduced from the paper's analysis (§5.2, §5.3):
//!
//! * all accesses use the byte interface — "NOVA and PMFS ... purely rely on
//!   the byte interface which fails to exploit the spatial locality with the
//!   block interface", so reads pay per-cacheline MMIO latency;
//! * metadata updates append small entries to per-inode logs (no double
//!   write), followed by persistence barriers;
//! * data updates are **out-of-place at page granularity** — every write copies
//!   the page, which "incurs extra write traffic due to their page-granular
//!   copy-on-write mechanism";
//! * there is no host page cache (DAX-style direct access).

use fskit::{FsError, FsResult};
use mssd::{Category, Mssd};

use crate::common::{Ctx, BASELINE_DENTRY_SIZE, BASELINE_INODE_SIZE};
use crate::engine::{BaselineFs, MetaOp, PersistencePolicy};

/// Persistence policy of the NOVA-like baseline.
#[derive(Debug, Default)]
pub struct NovaPolicy;

impl NovaPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }

    /// Appends a log entry of `len` bytes to the per-inode log anchored at
    /// `log_block`.
    fn log_append(
        &self,
        ctx: &mut Ctx<'_>,
        log_block: u64,
        len: u64,
        cat: Category,
    ) -> FsResult<()> {
        let page_size = ctx.layout.page_size as u64;
        let seq = ctx.next_seq();
        let offset = (seq * BASELINE_DENTRY_SIZE) % (page_size - len.min(page_size)).max(1);
        let addr = log_block * page_size + offset;
        let data = vec![0u8; len as usize];
        ctx.device.try_byte_write(addr, &data, None, cat)?;
        Ok(())
    }
}

impl PersistencePolicy for NovaPolicy {
    fn fs_name(&self) -> &'static str {
        "nova"
    }

    fn buffered_data(&self) -> bool {
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
        // Walk the directory's log entries one by one (no block locality).
        let page_size = ctx.layout.page_size;
        let len = ((entries.max(1)) * BASELINE_DENTRY_SIZE as usize).min(page_size);
        ctx.device.try_byte_read(meta_block * page_size as u64, len, Category::Dentry)?;
        Ok(())
    }

    fn metadata_op(&self, ctx: &mut Ctx<'_>, op: &MetaOp) -> FsResult<()> {
        match *op {
            MetaOp::Create { parent_meta_block, ino, name_len, .. } => {
                self.log_append(
                    ctx,
                    parent_meta_block,
                    BASELINE_DENTRY_SIZE + name_len as u64,
                    Category::Dentry,
                )?;
                ctx.device.try_byte_write(
                    ctx.layout.inode_addr(ino),
                    &[0u8; BASELINE_INODE_SIZE as usize],
                    None,
                    Category::Inode,
                )?;
                ctx.device.persist_barrier();
            }
            MetaOp::Remove { parent_meta_block, ino, .. } => {
                self.log_append(ctx, parent_meta_block, BASELINE_DENTRY_SIZE, Category::Dentry)?;
                ctx.device.try_byte_write(
                    ctx.layout.inode_addr(ino),
                    &[0u8; 64],
                    None,
                    Category::Inode,
                )?;
                ctx.device.persist_barrier();
            }
            MetaOp::Rename { from_meta_block, to_meta_block, name_len, .. } => {
                self.log_append(ctx, from_meta_block, BASELINE_DENTRY_SIZE, Category::Dentry)?;
                self.log_append(
                    ctx,
                    to_meta_block,
                    BASELINE_DENTRY_SIZE + name_len as u64,
                    Category::Dentry,
                )?;
                ctx.device.persist_barrier();
            }
            MetaOp::InodeUpdate { ino, pages } => {
                // One log entry per updated page mapping (write-entry log).
                let len = 64 * pages.max(1) as u64;
                ctx.device.try_byte_write(
                    ctx.layout.inode_addr(ino),
                    &vec![0u8; len.min(BASELINE_INODE_SIZE * 4) as usize],
                    None,
                    Category::Inode,
                )?;
                ctx.device.persist_barrier();
            }
            MetaOp::Truncate { ino, .. } => {
                ctx.device.try_byte_write(
                    ctx.layout.inode_addr(ino),
                    &[0u8; 64],
                    None,
                    Category::Inode,
                )?;
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
        _old_lba: Option<u64>,
        page: &[u8],
        _dirty: &[(usize, usize)],
    ) -> FsResult<u64> {
        // Page-granular copy-on-write: the whole page is written to a fresh
        // block over the byte interface, regardless of how little changed.
        let lba = ctx.alloc.allocate().ok_or(FsError::NoSpace)?;
        ctx.device.try_byte_write(lba * ctx.layout.page_size as u64, page, None, Category::Data)?;
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
        // Data and metadata are already persistent; fsync only orders.
        ctx.device.persist_barrier();
        Ok(())
    }
}

/// The NOVA-like baseline file system.
pub type NovaLike = BaselineFs<NovaPolicy>;

impl BaselineFs<NovaPolicy> {
    /// Formats a NOVA-like file system on the device.
    pub fn format(device: std::sync::Arc<Mssd>) -> std::sync::Arc<Self> {
        Self::with_policy(device, NovaPolicy::new())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, FileSystemExt, OpenFlags};
    use mssd::stats::Direction;
    use mssd::{Category, DramMode, Interface, Mssd, MssdConfig};

    use super::NovaLike;

    fn new_fs() -> (Arc<Mssd>, Arc<NovaLike>) {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let fs = NovaLike::format(Arc::clone(&dev));
        (dev, fs)
    }

    #[test]
    fn basic_file_operations_roundtrip() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/nv").unwrap();
        fs.write_file("/nv/f", &vec![0x11u8; 9_999]).unwrap();
        assert_eq!(fs.read_file("/nv/f").unwrap(), vec![0x11u8; 9_999]);
        let fd = fs.open("/nv/f", OpenFlags::read_write()).unwrap();
        fs.write(fd, 100, &[9u8; 50]).unwrap();
        let back = fs.read(fd, 90, 70).unwrap();
        assert_eq!(&back[..10], &[0x11u8; 10][..]);
        assert_eq!(&back[10..60], &[9u8; 50][..]);
        fs.unlink("/nv/f").unwrap();
        fs.rmdir("/nv").unwrap();
    }

    #[test]
    fn uses_only_the_byte_interface() {
        let (dev, fs) = new_fs();
        fs.write_file("/b", &vec![1u8; 6_000]).unwrap();
        fs.read_file("/b").unwrap();
        let t = dev.traffic();
        assert_eq!(t.host_bytes_by_interface(Direction::Write, Interface::Block), 0);
        assert_eq!(t.host_bytes_by_interface(Direction::Read, Interface::Block), 0);
        assert!(t.host_bytes_by_interface(Direction::Write, Interface::Byte) > 0);
        assert!(t.host_bytes_by_interface(Direction::Read, Interface::Byte) > 0);
    }

    #[test]
    fn small_overwrite_amplifies_to_a_full_page() {
        let (dev, fs) = new_fs();
        fs.write_file("/cow", &vec![1u8; 4096]).unwrap();
        let before = dev.traffic();
        let fd = fs.open("/cow", OpenFlags::read_write()).unwrap();
        fs.write(fd, 0, &[2u8; 64]).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert!(
            delta.host_bytes_by_category(Direction::Write, Category::Data) >= 4096,
            "page-granular CoW rewrites the whole page for a 64 B update"
        );
        // Correctness is preserved.
        assert_eq!(&fs.read_file("/cow").unwrap()[..64], &[2u8; 64][..]);
        assert_eq!(fs.read_file("/cow").unwrap()[64], 1);
    }

    #[test]
    fn writes_are_immediately_durable_without_fsync() {
        let (dev, fs) = new_fs();
        let before = dev.traffic();
        fs.write_file("/now", &vec![5u8; 4096]).unwrap();
        let mid = dev.traffic().delta_since(&before);
        assert!(mid.host_bytes_by_category(Direction::Write, Category::Data) >= 4096);
        // fsync adds no further data traffic.
        let fd = fs.open("/now", OpenFlags::read_write()).unwrap();
        let before = dev.traffic();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.host_bytes_by_category(Direction::Write, Category::Data), 0);
    }

    #[test]
    fn metadata_ops_append_small_log_entries() {
        let (dev, fs) = new_fs();
        let before = dev.traffic();
        fs.mkdir("/m").unwrap();
        fs.write_file("/m/a", b"tiny").unwrap();
        fs.rename("/m/a", "/m/b").unwrap();
        fs.unlink("/m/b").unwrap();
        let delta = dev.traffic().delta_since(&before);
        let dentry = delta.host_bytes_by_category(Direction::Write, Category::Dentry);
        let inode = delta.host_bytes_by_category(Direction::Write, Category::Inode);
        assert!(dentry > 0 && dentry < 4096, "dentry log entries stay small ({dentry} B)");
        assert!(inode > 0 && inode < 4096, "inode log entries stay small ({inode} B)");
        assert_eq!(delta.host_bytes_by_category(Direction::Write, Category::Journal), 0);
    }
}
