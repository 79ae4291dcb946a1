//! The `ByteFs` file system: mount/format, metadata operations, and the
//! [`FileSystem`] trait implementation.
//!
//! The data path (read/write/fsync/truncate and the §4.6 interface-selection
//! policy) lives in the private `fs::data` submodule; this module owns the
//! in-memory state and the metadata operations of §4.5.
//!
//! # Concurrency model
//!
//! Since the lock-sharding refactor the file system no longer has a global
//! lock. State is split into independently synchronized pieces, and every
//! [`FileSystem`] method takes only the locks its path needs:
//!
//! * **Namespace** (`RwLock<Namespace>`) — the directory-entry cache. Path
//!   resolution and `readdir` take it for read (and scale across threads);
//!   every namespace *mutation* (`create`, `mkdir`, `unlink`, `rmdir`,
//!   `rename`, directory growth) holds the write lock for the whole
//!   operation, which serializes conflicting metadata transactions exactly
//!   like the old global lock did — but only against each other, not against
//!   the data path.
//! * **Inode table** — lock-striped: `INODE_SHARDS` shards keyed by inode
//!   number, each a `RwLock<HashMap<ino, Arc<RwLock<Inode>>>>`. The shard
//!   lock protects the map (lookup/insert/evict); the per-inode `RwLock`
//!   protects the inode itself. Reads (`read`, `fstat`) take the inode lock
//!   shared; writes (`write`, `fsync`, `truncate`) take it exclusive.
//! * **Page cache** ([`ShardedPageCache`]) — lock-striped by inode number,
//!   so data I/O on different files never contends on cache locks.
//! * **Allocators** ([`SharedBitmap`]) — atomic free-space counters form a
//!   mutex-free admission fast path; only the concrete bit pick locks.
//! * **Open files** — lock-striped by fd, fd numbers from an atomic counter.
//! * **TxTable** ([`SharedTxTable`]) — atomic TxID allocation and commit
//!   counting.
//!
//! **Lock order** (a thread acquires locks only left to right):
//!
//! ```text
//! namespace → inode shard → inode → page-cache shard → allocator
//!           → dirty-set / journal / txtable → device
//! ```
//!
//! Two rules keep this deadlock-free without a reverse edge:
//!
//! 1. Only a holder of the namespace *write* lock may lock more than one
//!    inode in sequence (parent + target in `unlink`/`rename`); those
//!    acquisitions never overlap — each inode lock is released before the
//!    next is taken — so at most one inode lock is held at any instant.
//! 2. The data path never touches the namespace lock: `read`/`write`/`fsync`
//!    resolve their inode through the fd table only.
//!
//! An unlinked inode is tombstoned (`nlink == 0`) under its write lock before
//! its blocks are freed; data-path operations that raced past the fd lookup
//! re-check the tombstone after acquiring the inode lock, so a writer can
//! never resurrect freed blocks or persist into a reused inode slot.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use fskit::journal::BlockJournal;
use fskit::pagecache::ShardedPageCache;
use fskit::path as fspath;
use fskit::{DirEntry, Fd, FileSystem, FileType, FsError, FsResult, Metadata, OpenFlags};
use mssd::{Category, DramMode, Mssd};

use crate::alloc::{BitmapAllocator, SharedBitmap};
use crate::dentry::{DentrySlot, Directory};
use crate::inode::Inode;
use crate::layout::{Layout, DENTRY_SIZE, INODE_SIZE, ROOT_INO};
use crate::policy::ByteFsConfig;
use crate::superblock::Superblock;
use crate::txn::{SharedTxTable, Txn};

pub(crate) mod data;

/// Number of inode-table, page-cache and fd-table shards (lock stripes).
pub(crate) const INODE_SHARDS: usize = 16;

/// An open file description.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenFile {
    pub(crate) ino: u64,
    pub(crate) flags: OpenFlags,
}

/// A shared handle to one cached inode. The shard map hands out clones; the
/// per-inode `RwLock` is the data-path lock.
pub(crate) type InodeHandle = Arc<RwLock<Inode>>;

/// The directory-entry cache, guarded by the namespace lock.
pub(crate) struct Namespace {
    /// Cached directories keyed by inode number.
    pub(crate) dirs: HashMap<u64, Directory>,
}

/// The ByteFS file system (host side).
///
/// See the [crate-level documentation](crate) for an overview and an example,
/// and the [module docs](self) for the concurrency model and lock order.
pub struct ByteFs {
    pub(crate) device: Arc<Mssd>,
    pub(crate) config: ByteFsConfig,
    pub(crate) layout: Layout,
    sb: Mutex<Superblock>,
    pub(crate) namespace: RwLock<Namespace>,
    inode_shards: Vec<RwLock<HashMap<u64, InodeHandle>>>,
    pub(crate) inode_bitmap: SharedBitmap,
    pub(crate) block_bitmap: SharedBitmap,
    pub(crate) page_cache: ShardedPageCache,
    open_files: Vec<RwLock<HashMap<u64, OpenFile>>>,
    next_fd: AtomicU64,
    txtable: SharedTxTable,
    pub(crate) dirty_inodes: Mutex<BTreeSet<u64>>,
    pub(crate) journal: Option<Mutex<BlockJournal>>,
}

impl std::fmt::Debug for ByteFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteFs")
            .field("inodes_allocated", &self.inode_bitmap.allocated())
            .field("blocks_allocated", &self.block_bitmap.allocated())
            .field("open_files", &self.open_count())
            .finish()
    }
}

impl ByteFs {
    /// Formats the device with a fresh ByteFS volume and mounts it.
    ///
    /// # Errors
    ///
    /// Returns an error if the device is too small or the configuration and
    /// device firmware mode disagree.
    ///
    /// # Panics
    ///
    /// Panics if the device page size differs from 4 KB (the only geometry the
    /// on-disk format supports).
    pub fn format(device: Arc<Mssd>, config: ByteFsConfig) -> FsResult<Arc<Self>> {
        Self::check_mode(&device, &config)?;
        let page_size = device.page_size();
        let layout = Layout::compute(device.logical_pages(), page_size);
        let sb = Superblock::new(layout);

        // Reserve metadata regions in the block bitmap and the reserved inodes.
        let mut block_bitmap = BitmapAllocator::new(layout.total_pages);
        for page in 0..layout.data_start {
            block_bitmap.allocate_at(page);
        }
        let mut inode_bitmap = BitmapAllocator::new(layout.inode_count);
        inode_bitmap.allocate_at(0); // inode 0 is never used
        inode_bitmap.allocate_at(ROOT_INO);

        // Persist the initial metadata with plain block writes; mkfs is not
        // part of any measurement.
        device.try_block_write(
            layout.superblock_page,
            &sb.encode(page_size),
            Category::Superblock,
        )?;
        Self::write_bitmap_region(
            &device,
            layout.inode_bitmap_start,
            layout.inode_bitmap_pages,
            &inode_bitmap.to_bytes(),
            page_size,
        )?;
        Self::write_bitmap_region(
            &device,
            layout.block_bitmap_start,
            layout.block_bitmap_pages,
            &block_bitmap.to_bytes(),
            page_size,
        )?;
        inode_bitmap.take_dirty_groups();
        block_bitmap.take_dirty_groups();

        // Root directory inode.
        let mut root = Inode::new(ROOT_INO, FileType::Directory, device.clock().now_ns());
        root.nlink = 2;
        let mut inode_page = vec![0u8; page_size];
        let off = (ROOT_INO % layout.inodes_per_page()) as usize * INODE_SIZE;
        inode_page[off..off + INODE_SIZE].copy_from_slice(&root.encode());
        device.try_block_write(layout.inode_page(ROOT_INO), &inode_page, Category::Inode)?;
        device.try_flush()?;

        let fs = Self::build(device, config, layout, sb, inode_bitmap, block_bitmap);
        fs.insert_inode(root);
        fs.namespace.write().dirs.insert(ROOT_INO, Directory::new(layout.page_size));
        Ok(Arc::new(fs))
    }

    /// Mounts an existing ByteFS volume. If the volume was not cleanly
    /// unmounted, firmware recovery (`RECOVER()`) runs first (§4.7).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Corrupted`] if no valid superblock is found, or a
    /// configuration error if the device firmware mode does not match.
    pub fn mount(device: Arc<Mssd>, config: ByteFsConfig) -> FsResult<Arc<Self>> {
        Self::check_mode(&device, &config)?;
        let page_size = device.page_size();
        let sb_page = device.try_block_read(0, 1, Category::Superblock)?;
        let mut sb = Superblock::decode(&sb_page)?;
        let layout = sb.layout;

        if !sb.clean && config.firmware_transactions {
            // Crash recovery: replay committed log entries, discard the rest.
            device.recover();
        }

        // Load bitmaps over the block interface (Table 3: bitmap reads prefer
        // the block interface and are cached in host DRAM afterwards).
        let inode_bitmap_raw = device.try_block_read(
            layout.inode_bitmap_start,
            layout.inode_bitmap_pages as usize,
            Category::Bitmap,
        )?;
        let block_bitmap_raw = device.try_block_read(
            layout.block_bitmap_start,
            layout.block_bitmap_pages as usize,
            Category::Bitmap,
        )?;
        let inode_bitmap = BitmapAllocator::from_bytes(&inode_bitmap_raw, layout.inode_count);
        let block_bitmap = BitmapAllocator::from_bytes(&block_bitmap_raw, layout.total_pages);

        // Mark the volume dirty until a clean unmount.
        sb.clean = false;
        sb.mount_count += 1;
        device.try_block_write(0, &sb.encode(page_size), Category::Superblock)?;

        Ok(Arc::new(Self::build(device, config, layout, sb, inode_bitmap, block_bitmap)))
    }

    /// Assembles the sharded in-memory state around freshly loaded bitmaps.
    fn build(
        device: Arc<Mssd>,
        config: ByteFsConfig,
        layout: Layout,
        sb: Superblock,
        inode_bitmap: BitmapAllocator,
        block_bitmap: BitmapAllocator,
    ) -> Self {
        let journal = config.data_journaling.then(|| {
            Mutex::new(BlockJournal::new(
                Arc::clone(&device),
                layout.journal_start,
                layout.journal_pages,
            ))
        });
        let page_cache =
            ShardedPageCache::new(INODE_SHARDS, config.page_cache_pages, layout.page_size, true);
        Self {
            device,
            config,
            layout,
            sb: Mutex::new(sb),
            namespace: RwLock::new(Namespace { dirs: HashMap::new() }),
            inode_shards: (0..INODE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            inode_bitmap: SharedBitmap::new(inode_bitmap),
            block_bitmap: SharedBitmap::new(block_bitmap),
            page_cache,
            open_files: (0..INODE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            next_fd: AtomicU64::new(3),
            txtable: SharedTxTable::new(),
            dirty_inodes: Mutex::new(BTreeSet::new()),
            journal,
        }
    }

    fn check_mode(device: &Mssd, config: &ByteFsConfig) -> FsResult<()> {
        if config.firmware_transactions && device.dram_mode() != DramMode::WriteLog {
            return Err(FsError::InvalidArgument(
                "firmware transactions require a device in WriteLog mode".into(),
            ));
        }
        Ok(())
    }

    fn write_bitmap_region(
        device: &Mssd,
        start: u64,
        pages: u64,
        bytes: &[u8],
        page_size: usize,
    ) -> FsResult<()> {
        for i in 0..pages {
            let lo = (i as usize) * page_size;
            let hi = (lo + page_size).min(bytes.len());
            let mut page = vec![0u8; page_size];
            if lo < bytes.len() {
                page[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            }
            device.try_block_write(start + i, &page, Category::Bitmap)?;
        }
        Ok(())
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &ByteFsConfig {
        &self.config
    }

    /// Runs crash recovery explicitly (normally done by [`ByteFs::mount`] when
    /// the volume is dirty): firmware `RECOVER()` plus data-journal scan.
    /// Returns the firmware recovery report.
    pub fn recover_after_crash(&self) -> mssd::device::RecoveryReport {
        self.device.recover()
    }

    /// Number of allocated data/metadata blocks (observability; lock-free).
    pub fn allocated_blocks(&self) -> u64 {
        self.block_bitmap.allocated()
    }

    /// Number of allocated inodes (observability; lock-free).
    pub fn allocated_inodes(&self) -> u64 {
        self.inode_bitmap.allocated()
    }

    fn open_count(&self) -> usize {
        self.open_files.iter().map(|s| s.read().len()).sum()
    }

    // ------------------------------------------------------------------
    // Inode table (lock-striped)
    // ------------------------------------------------------------------

    fn inode_shard(&self, ino: u64) -> &RwLock<HashMap<u64, InodeHandle>> {
        &self.inode_shards[(ino as usize) % INODE_SHARDS]
    }

    /// Handle to an inode, loading it from the device on a miss
    /// (block-interface read of its inode page).
    pub(crate) fn inode_handle(&self, ino: u64) -> FsResult<InodeHandle> {
        if let Some(handle) = self.inode_shard(ino).read().get(&ino) {
            return Ok(Arc::clone(handle));
        }
        let mut shard = self.inode_shard(ino).write();
        if let Some(handle) = shard.get(&ino) {
            return Ok(Arc::clone(handle));
        }
        if ino >= self.layout.inode_count || !self.inode_bitmap.is_allocated(ino) {
            return Err(FsError::NotFound(format!("inode {ino}")));
        }
        let page = self.device.try_block_read(self.layout.inode_page(ino), 1, Category::Inode)?;
        let off = (ino % self.layout.inodes_per_page()) as usize * INODE_SIZE;
        let mut inode = Inode::decode(ino, &page[off..off + INODE_SIZE])
            .ok_or_else(|| FsError::Corrupted(format!("inode {ino} is allocated but empty")))?;
        if let Some(lba) = inode.overflow_lba {
            let block = self.device.try_block_read(lba, 1, Category::DataPointer)?;
            inode.load_overflow(&block);
        }
        let handle = Arc::new(RwLock::new(inode));
        shard.insert(ino, Arc::clone(&handle));
        Ok(handle)
    }

    /// Inserts a freshly created inode into its shard.
    fn insert_inode(&self, inode: Inode) -> InodeHandle {
        let ino = inode.ino;
        let handle = Arc::new(RwLock::new(inode));
        self.inode_shard(ino).write().insert(ino, Arc::clone(&handle));
        handle
    }

    /// Drops an inode from its shard (unlink/rmdir).
    fn evict_inode(&self, ino: u64) {
        self.inode_shard(ino).write().remove(&ino);
    }

    /// Rejects data-path operations on an inode that was unlinked after the
    /// caller looked up its fd but before it acquired the inode lock.
    pub(crate) fn check_live(&self, inode: &Inode) -> FsResult<()> {
        if inode.is_unlinked() {
            return Err(FsError::NotFound(format!("inode {} was unlinked", inode.ino)));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Open-file table (lock-striped, atomic fd numbers)
    // ------------------------------------------------------------------

    fn fd_shard(&self, fd: u64) -> &RwLock<HashMap<u64, OpenFile>> {
        &self.open_files[(fd as usize) % INODE_SHARDS]
    }

    fn register_fd(&self, ino: u64, flags: OpenFlags) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fd_shard(fd).write().insert(fd, OpenFile { ino, flags });
        Fd(fd)
    }

    pub(crate) fn open_file(&self, fd: Fd) -> FsResult<OpenFile> {
        self.fd_shard(fd.0).read().get(&fd.0).copied().ok_or(FsError::BadDescriptor(fd.0))
    }

    // ------------------------------------------------------------------
    // Internal helpers shared by the metadata and data paths
    // ------------------------------------------------------------------

    pub(crate) fn now_ns(&self) -> u64 {
        self.device.clock().now_ns()
    }

    /// Marks an inode's in-memory metadata newer than the device copy.
    pub(crate) fn mark_dirty(&self, ino: u64) {
        self.dirty_inodes.lock().insert(ino);
    }

    /// Begins a metadata transaction (TxID-tagged when firmware transactions
    /// are enabled).
    pub(crate) fn begin_txn(&self) -> Txn {
        let txid = self.config.firmware_transactions.then(|| self.txtable.begin());
        Txn::new(Arc::clone(&self.device), txid)
    }

    /// Finishes a transaction: firmware commit (or, without one, the
    /// persistence barrier), TxTable bookkeeping.
    pub(crate) fn commit_txn(&self, txn: Txn) {
        if let Some(txid) = txn.commit() {
            self.txtable.finish(txid);
        }
    }

    /// Persists an inode (both halves) into the inode table.
    pub(crate) fn persist_inode(&self, txn: &mut Txn, inode: &Inode) -> FsResult<()> {
        let addr = self.layout.inode_addr(inode.ino);
        txn.write(addr, &inode.encode_lower(), Category::Inode)?;
        txn.write(addr + (INODE_SIZE / 2) as u64, &inode.encode_upper(), Category::Inode)?;
        Ok(())
    }

    /// Persists only the hot lower half of an inode (size/mtime/nlink updates).
    pub(crate) fn persist_inode_lower(&self, txn: &mut Txn, inode: &Inode) -> FsResult<()> {
        let addr = self.layout.inode_addr(inode.ino);
        Ok(txn.write(addr, &inode.encode_lower(), Category::Inode)?)
    }

    /// Marks an inode slot free on the device (unlink/rmdir).
    pub(crate) fn persist_inode_free(&self, txn: &mut Txn, ino: u64) -> FsResult<()> {
        let addr = self.layout.inode_addr(ino);
        Ok(txn.write(addr, &[0u8; INODE_SIZE / 2], Category::Inode)?)
    }

    /// Persists every bitmap group dirtied since the last transaction.
    pub(crate) fn persist_bitmaps(&self, txn: &mut Txn) -> FsResult<()> {
        let page_size = self.layout.page_size as u64;
        for (group, bytes) in self.inode_bitmap.take_dirty_group_bytes() {
            let addr = self.layout.inode_bitmap_start * page_size + group * DENTRY_SIZE as u64;
            txn.write(addr, &bytes, Category::Bitmap)?;
        }
        for (group, bytes) in self.block_bitmap.take_dirty_group_bytes() {
            let addr = self.layout.block_bitmap_start * page_size + group * DENTRY_SIZE as u64;
            txn.write(addr, &bytes, Category::Bitmap)?;
        }
        Ok(())
    }

    /// Allocates one data block and returns its absolute LBA.
    pub(crate) fn alloc_block(&self) -> FsResult<u64> {
        self.block_bitmap.allocate().ok_or(FsError::NoSpace)
    }

    /// Completes a set of staged block frees after their transaction
    /// committed: TRIM first (so the FTL stops relocating the dead data),
    /// then hand the space back to the allocator. Issuing the TRIM only
    /// *after* the commit is crash-ordering-critical: a power cut at the
    /// commit step rolls the metadata back, and trimming beforehand would
    /// have destroyed data the recovered file system still references
    /// (found by the crashkit enumeration; see `crates/crashkit/DESIGN.md`).
    pub(crate) fn discard_staged_blocks(&self, freed: &[u64]) {
        for lba in freed {
            self.device.trim(*lba, 1);
        }
        self.block_bitmap.release_staged(freed);
    }

    /// Loads a directory's entries into the dentry cache (block-interface
    /// reads of its directory blocks on a miss).
    pub(crate) fn load_dir(&self, ns: &mut Namespace, ino: u64) -> FsResult<()> {
        if ns.dirs.contains_key(&ino) {
            return Ok(());
        }
        let handle = self.inode_handle(ino)?;
        let blocks = {
            let inode = handle.read();
            if !inode.is_dir() {
                return Err(FsError::NotADirectory(format!("inode {ino}")));
            }
            inode
                .extents
                .iter_blocks()
                .map(|(_, lba)| self.device.try_block_read(lba, 1, Category::Dentry))
                .collect::<Result<Vec<_>, _>>()?
        };
        ns.dirs.insert(ino, Directory::from_blocks(self.layout.page_size, &blocks));
        Ok(())
    }

    /// Resolves an absolute path to an inode number, loading directories as
    /// needed. Requires the namespace write lock.
    pub(crate) fn resolve(&self, ns: &mut Namespace, path: &str) -> FsResult<u64> {
        let comps = fspath::components(path)?;
        let mut cur = ROOT_INO;
        for comp in comps {
            self.load_dir(ns, cur)?;
            let dir = ns.dirs.get(&cur).expect("just loaded");
            match dir.lookup(comp) {
                Some(entry) => cur = entry.ino,
                None => return Err(FsError::NotFound(path.to_string())),
            }
        }
        Ok(cur)
    }

    /// Read-only resolution against already-cached directories. Returns
    /// `None` when a directory on the path is not cached (the caller falls
    /// back to [`ByteFs::resolve`] under the write lock).
    fn resolve_cached(&self, ns: &Namespace, path: &str) -> Option<FsResult<u64>> {
        let comps = match fspath::components(path) {
            Ok(c) => c,
            Err(e) => return Some(Err(e)),
        };
        let mut cur = ROOT_INO;
        for comp in comps {
            let dir = ns.dirs.get(&cur)?;
            match dir.lookup(comp) {
                Some(entry) => cur = entry.ino,
                None => return Some(Err(FsError::NotFound(path.to_string()))),
            }
        }
        Some(Ok(cur))
    }

    /// Resolves a path, preferring the read lock (scales across threads) and
    /// falling back to the write lock only when directories must be loaded.
    fn resolve_path(&self, path: &str) -> FsResult<u64> {
        {
            let ns = self.namespace.read();
            if let Some(result) = self.resolve_cached(&ns, path) {
                return result;
            }
        }
        let mut ns = self.namespace.write();
        self.resolve(&mut ns, path)
    }

    /// Resolves the parent directory of `path`, returning `(parent inode,
    /// final name)`. Requires the namespace write lock.
    pub(crate) fn resolve_parent<'p>(
        &self,
        ns: &mut Namespace,
        path: &'p str,
    ) -> FsResult<(u64, &'p str)> {
        let (parents, name) = fspath::split_parent(path)?;
        let mut cur = ROOT_INO;
        for comp in parents {
            self.load_dir(ns, cur)?;
            let dir = ns.dirs.get(&cur).expect("just loaded");
            match dir.lookup(comp) {
                Some(entry) if entry.file_type.is_dir() => cur = entry.ino,
                Some(_) => return Err(FsError::NotADirectory(path.to_string())),
                None => return Err(FsError::NotFound(path.to_string())),
            }
        }
        Ok((cur, name))
    }

    /// Device byte address of a dentry slot inside a directory.
    fn dentry_addr(&self, dir_inode: &Inode, block_pos: usize, slot: usize) -> u64 {
        let lba =
            dir_inode.extents.lookup(block_pos as u64).expect("directory block must be mapped");
        lba * self.device.page_size() as u64 + (slot * DENTRY_SIZE) as u64
    }

    /// Adds a new, zeroed directory block to `dir_ino`, updating the inode and
    /// the in-memory directory image. The caller persists the inode afterwards.
    fn grow_directory(&self, ns: &mut Namespace, dir_ino: u64) -> FsResult<()> {
        let lba = self.alloc_block()?;
        let now = self.now_ns();
        let handle = self.inode_handle(dir_ino)?;
        {
            let mut inode = handle.write();
            let block_pos = inode.extents.mapped_blocks();
            inode.extents.insert(block_pos, lba);
            inode.blocks += 1;
            inode.mtime_ns = now;
        }
        ns.dirs.get_mut(&dir_ino).expect("directory cached").add_empty_block();
        Ok(())
    }

    /// Creates a new file or directory entry under `parent`, persisting all
    /// metadata in one transaction. Returns the new inode number.
    fn create_object(
        &self,
        ns: &mut Namespace,
        parent: u64,
        name: &str,
        file_type: FileType,
    ) -> FsResult<u64> {
        self.load_dir(ns, parent)?;
        if ns.dirs[&parent].lookup(name).is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        // Validate the name before allocating anything.
        DentrySlot { ino: 1, file_type, name: name.to_string() }.encode()?;

        let ino = self.inode_bitmap.allocate().ok_or(FsError::NoInodes)?;
        let now = self.now_ns();
        let mut inode = Inode::new(ino, file_type, now);
        if file_type.is_dir() {
            inode.nlink = 2;
        }

        let mut txn = self.begin_txn();

        // Ensure the parent has a free dentry slot.
        if !ns.dirs[&parent].has_free_slot() {
            self.grow_directory(ns, parent)?;
        }
        let slot = {
            let dir = ns.dirs.get_mut(&parent).expect("parent cached");
            dir.insert(name, ino, file_type)?
        };

        // Persist: the dentry slot, the new inode, the parent inode, bitmaps.
        let slot_bytes =
            DentrySlot { ino, file_type, name: name.to_string() }.encode().expect("validated");
        let parent_size = (ns.dirs[&parent].len() * DENTRY_SIZE) as u64;
        let parent_handle = self.inode_handle(parent)?;
        let parent_inode = {
            let mut p = parent_handle.write();
            p.mtime_ns = now;
            p.size = parent_size;
            if file_type.is_dir() {
                p.nlink += 1;
            }
            p.clone()
        };
        let addr = self.dentry_addr(&parent_inode, slot.block_pos, slot.slot);
        txn.write(addr, &slot_bytes, Category::Dentry)?;
        self.persist_inode(&mut txn, &inode)?;
        self.persist_inode(&mut txn, &parent_inode)?;
        self.persist_bitmaps(&mut txn)?;
        self.commit_txn(txn);

        self.insert_inode(inode);
        if file_type.is_dir() {
            ns.dirs.insert(ino, Directory::new(self.layout.page_size));
        }
        Ok(ino)
    }

    /// Removes the entry `name` from `parent` and frees the object if its link
    /// count drops to zero.
    fn remove_object(
        &self,
        ns: &mut Namespace,
        parent: u64,
        name: &str,
        dir: bool,
    ) -> FsResult<()> {
        self.load_dir(ns, parent)?;
        let entry = ns.dirs[&parent]
            .lookup(name)
            .cloned()
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let target = entry.ino;
        let target_handle = self.inode_handle(target)?;
        {
            let t = target_handle.read();
            if dir {
                if !t.is_dir() {
                    return Err(FsError::NotADirectory(name.to_string()));
                }
            } else if t.is_dir() {
                return Err(FsError::IsADirectory(name.to_string()));
            }
        }
        if dir {
            self.load_dir(ns, target)?;
            if !ns.dirs[&target].is_empty() {
                return Err(FsError::DirectoryNotEmpty(name.to_string()));
            }
        }

        let now = self.now_ns();
        let mut txn = self.begin_txn();

        // Clear the dentry slot.
        let parent_handle = self.inode_handle(parent)?;
        let parent_inode = {
            let mut p = parent_handle.write();
            p.mtime_ns = now;
            if dir {
                p.nlink = p.nlink.saturating_sub(1);
            }
            p.clone()
        };
        let removed =
            ns.dirs.get_mut(&parent).expect("parent cached").remove(name).expect("exists");
        let addr = self.dentry_addr(&parent_inode, removed.slot.block_pos, removed.slot.slot);
        txn.write(addr, &DentrySlot::free_slot(), Category::Dentry)?;
        self.persist_inode_lower(&mut txn, &parent_inode)?;

        // Tombstone the target under its write lock, collecting its blocks.
        // Any data-path racer that acquires the inode lock afterwards sees
        // `nlink == 0` and bails instead of resurrecting freed blocks.
        let (mut freed, overflow) = {
            let mut t = target_handle.write();
            t.nlink = 0;
            let freed: Vec<u64> = t.extents.iter_blocks().map(|(_, lba)| lba).collect();
            (freed, t.overflow_lba)
        };
        freed.extend(overflow);
        // Stage the frees inside the transaction (the cleared bits persist
        // with it); the TRIMs and the allocator release happen only after
        // the commit, so a power cut anywhere in between either rolls the
        // whole unlink back with the data intact or completes it — never
        // leaves a linked file whose blocks were already discarded.
        for lba in &freed {
            self.block_bitmap.free_staged(*lba);
        }
        self.inode_bitmap.free(target);
        self.persist_inode_free(&mut txn, target)?;
        self.persist_bitmaps(&mut txn)?;
        self.commit_txn(txn);
        self.discard_staged_blocks(&freed);

        self.evict_inode(target);
        ns.dirs.remove(&target);
        self.dirty_inodes.lock().remove(&target);
        self.page_cache.invalidate_inode(target);
        Ok(())
    }

    fn metadata_of(&self, inode: &Inode) -> Metadata {
        Metadata {
            inode: inode.ino,
            size: inode.size,
            file_type: inode.file_type,
            nlink: inode.nlink,
            blocks: inode.blocks,
            mtime_ns: inode.mtime_ns,
        }
    }
}

impl FileSystem for ByteFs {
    fn name(&self) -> &'static str {
        "bytefs"
    }

    fn device(&self) -> &Arc<Mssd> {
        &self.device
    }

    fn create(&self, path: &str) -> FsResult<Fd> {
        let ino = {
            let mut ns = self.namespace.write();
            let (parent, name) = self.resolve_parent(&mut ns, path)?;
            self.create_object(&mut ns, parent, name, FileType::File)?
        };
        Ok(self.register_fd(ino, OpenFlags::create_rw()))
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let ino = match self.resolve_path(path) {
            Ok(ino) => {
                let handle = self.inode_handle(ino)?;
                if handle.read().is_dir() {
                    return Err(FsError::IsADirectory(path.to_string()));
                }
                ino
            }
            Err(FsError::NotFound(_)) if flags.create => {
                let mut ns = self.namespace.write();
                // Re-resolve under the write lock: the file may have been
                // created since the read-locked attempt.
                match self.resolve(&mut ns, path) {
                    Ok(ino) => {
                        let handle = self.inode_handle(ino)?;
                        if handle.read().is_dir() {
                            return Err(FsError::IsADirectory(path.to_string()));
                        }
                        ino
                    }
                    Err(FsError::NotFound(_)) => {
                        let (parent, name) = self.resolve_parent(&mut ns, path)?;
                        self.create_object(&mut ns, parent, name, FileType::File)?
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(e) => return Err(e),
        };
        let fd = self.register_fd(ino, flags);
        if flags.truncate {
            self.truncate(fd, 0)?;
        }
        Ok(fd)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.fd_shard(fd.0).write().remove(&fd.0).ok_or(FsError::BadDescriptor(fd.0))?;
        Ok(())
    }

    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let of = self.open_file(fd)?;
        let handle = self.inode_handle(of.ino)?;
        let inode = handle.read();
        self.check_live(&inode)?;
        self.do_read(&inode, of, offset, len)
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let of = self.open_file(fd)?;
        if !of.flags.write && !of.flags.create {
            return Err(FsError::PermissionDenied("file not open for writing".into()));
        }
        let handle = self.inode_handle(of.ino)?;
        let mut inode = handle.write();
        self.check_live(&inode)?;
        // O_APPEND resolves its offset under the inode lock, making concurrent
        // appends atomic.
        let offset = if of.flags.append { inode.size } else { offset };
        self.do_write(&mut inode, of, offset, data)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        let of = self.open_file(fd)?;
        let handle = self.inode_handle(of.ino)?;
        let mut inode = handle.write();
        self.check_live(&inode)?;
        self.do_fsync(&mut inode)
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        let of = self.open_file(fd)?;
        let handle = self.inode_handle(of.ino)?;
        let mut inode = handle.write();
        self.check_live(&inode)?;
        self.do_truncate(&mut inode, size)
    }

    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        let of = self.open_file(fd)?;
        let handle = self.inode_handle(of.ino)?;
        let inode = handle.read();
        Ok(self.metadata_of(&inode))
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let ino = self.resolve_path(path)?;
        let handle = self.inode_handle(ino)?;
        let inode = handle.read();
        Ok(self.metadata_of(&inode))
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let mut ns = self.namespace.write();
        let (parent, name) = self.resolve_parent(&mut ns, path)?;
        self.create_object(&mut ns, parent, name, FileType::Directory)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let mut ns = self.namespace.write();
        let (parent, name) = self.resolve_parent(&mut ns, path)?;
        self.remove_object(&mut ns, parent, name, true)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let mut ns = self.namespace.write();
        let (parent, name) = self.resolve_parent(&mut ns, path)?;
        self.remove_object(&mut ns, parent, name, false)
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let mut ns = self.namespace.write();
        let (from_parent, from_name) = self.resolve_parent(&mut ns, from)?;
        let (to_parent, to_name) = self.resolve_parent(&mut ns, to)?;
        self.load_dir(&mut ns, from_parent)?;
        self.load_dir(&mut ns, to_parent)?;
        let entry = ns.dirs[&from_parent]
            .lookup(from_name)
            .cloned()
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        if ns.dirs[&to_parent].lookup(to_name).is_some() {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        DentrySlot { ino: entry.ino, file_type: entry.file_type, name: to_name.to_string() }
            .encode()?;

        let now = self.now_ns();
        let mut txn = self.begin_txn();

        // Remove from the source directory.
        let from_handle = self.inode_handle(from_parent)?;
        let from_inode = {
            let mut p = from_handle.write();
            p.mtime_ns = now;
            p.clone()
        };
        let removed = ns
            .dirs
            .get_mut(&from_parent)
            .expect("cached")
            .remove(from_name)
            .expect("looked up above");
        let addr = self.dentry_addr(&from_inode, removed.slot.block_pos, removed.slot.slot);
        txn.write(addr, &DentrySlot::free_slot(), Category::Dentry)?;
        self.persist_inode_lower(&mut txn, &from_inode)?;

        // Insert into the destination directory.
        if !ns.dirs[&to_parent].has_free_slot() {
            self.grow_directory(&mut ns, to_parent)?;
        }
        let slot = ns.dirs.get_mut(&to_parent).expect("cached").insert(
            to_name,
            entry.ino,
            entry.file_type,
        )?;
        let to_size = (ns.dirs[&to_parent].len() * DENTRY_SIZE) as u64;
        let to_handle = self.inode_handle(to_parent)?;
        let to_inode = {
            let mut p = to_handle.write();
            p.mtime_ns = now;
            p.size = to_size;
            p.clone()
        };
        let slot_bytes =
            DentrySlot { ino: entry.ino, file_type: entry.file_type, name: to_name.to_string() }
                .encode()
                .expect("validated");
        let addr = self.dentry_addr(&to_inode, slot.block_pos, slot.slot);
        txn.write(addr, &slot_bytes, Category::Dentry)?;
        self.persist_inode(&mut txn, &to_inode)?;
        self.persist_bitmaps(&mut txn)?;
        self.commit_txn(txn);
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve_path(path)?;
        let collect = |dir: &Directory| {
            dir.iter()
                .map(|(name, e)| DirEntry {
                    name: name.clone(),
                    inode: e.ino,
                    file_type: e.file_type,
                })
                .collect()
        };
        {
            let ns = self.namespace.read();
            if let Some(dir) = ns.dirs.get(&ino) {
                return Ok(collect(dir));
            }
        }
        let mut ns = self.namespace.write();
        self.load_dir(&mut ns, ino)?;
        Ok(collect(&ns.dirs[&ino]))
    }

    fn sync(&self) -> FsResult<()> {
        self.do_sync()
    }

    fn drop_caches(&self) {
        let mut ns = self.namespace.write();
        self.page_cache.clear_clean();
        ns.dirs.clear();
        // Keep every inode that is open, metadata-dirty, or still owns dirty
        // pages (e.g. a truncated tail awaiting writeback): dropping such a
        // handle would orphan durable state.
        let keep: std::collections::HashSet<u64> = self
            .dirty_inodes
            .lock()
            .iter()
            .copied()
            .chain(self.page_cache.dirty_inodes())
            .chain(
                self.open_files
                    .iter()
                    .flat_map(|s| s.read().values().map(|of| of.ino).collect::<Vec<_>>()),
            )
            .collect();
        for shard in &self.inode_shards {
            shard.write().retain(|ino, _| keep.contains(ino));
        }
    }

    fn unmount(&self) -> FsResult<()> {
        self.do_sync()?;
        {
            let mut sb = self.sb.lock();
            sb.clean = true;
            let encoded = sb.encode(self.layout.page_size);
            self.device.try_block_write(
                self.layout.superblock_page,
                &encoded,
                Category::Superblock,
            )?;
        }
        if self.config.firmware_transactions {
            self.device.force_clean();
        }
        self.device.try_flush()?;
        Ok(())
    }
}
