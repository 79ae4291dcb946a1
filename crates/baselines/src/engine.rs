//! The shared baseline file-system engine.
//!
//! [`BaselineFs`] provides the namespace, the host page cache, block
//! allocation and the data-correctness path once; each baseline file system
//! plugs in a [`PersistencePolicy`] that decides which device interface every
//! access uses and how much metadata traffic each operation generates. This
//! mirrors how the paper's baselines differ: not in what a file system *does*,
//! but in how its updates reach the device.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use fskit::blockrun::read_run_len;
use fskit::check::{CrashConsistent, Violation};
use fskit::journal::BlockJournal;
use fskit::pagecache::{DirtyPage, PageCache, PageRef};
use fskit::path as fspath;
use fskit::{DirEntry, Fd, FileSystem, FileType, FsError, FsResult, Metadata, OpenFlags};
use mssd::Mssd;

use crate::common::{BlockAlloc, Ctx, PseudoLayout};
use crate::namespace::{Namespace, ROOT_INO};

/// A metadata-affecting operation a policy must persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    /// A file or directory was created.
    Create {
        /// Parent directory inode.
        parent: u64,
        /// Device block holding the parent's directory entries / log.
        parent_meta_block: u64,
        /// The new inode.
        ino: u64,
        /// Whether the new object is a directory.
        is_dir: bool,
        /// Length of the new name in bytes.
        name_len: usize,
    },
    /// A file or directory was removed.
    Remove {
        /// Parent directory inode.
        parent: u64,
        /// Device block holding the parent's directory entries / log.
        parent_meta_block: u64,
        /// The removed inode.
        ino: u64,
        /// Whether the removed object was a directory.
        is_dir: bool,
        /// Number of data blocks that were freed.
        freed_blocks: usize,
    },
    /// An entry moved between directories.
    Rename {
        /// Source directory inode and its metadata block.
        from_parent: u64,
        /// Metadata block of the source directory.
        from_meta_block: u64,
        /// Destination directory inode.
        to_parent: u64,
        /// Metadata block of the destination directory.
        to_meta_block: u64,
        /// The moved inode.
        ino: u64,
        /// Length of the destination name.
        name_len: usize,
    },
    /// An inode's size/mtime/data pointers changed (write or writeback).
    InodeUpdate {
        /// The inode.
        ino: u64,
        /// Number of data pages involved in the update.
        pages: usize,
    },
    /// A file was truncated.
    Truncate {
        /// The inode.
        ino: u64,
        /// Number of data blocks that were freed.
        freed_blocks: usize,
    },
}

/// How one baseline file system persists metadata and data.
///
/// Every hook receives a [`Ctx`] giving access to the device, the pseudo
/// layout, the block allocator and (for journaling file systems) the block
/// journal. Hooks are called with the engine lock held, so implementations may
/// keep interior state behind a cheap mutex without ordering concerns.
pub trait PersistencePolicy: Send + Sync + 'static {
    /// File-system name used in reports (e.g. `"ext4"`).
    fn fs_name(&self) -> &'static str;

    /// Whether file data flows through the host page cache (`true` for the
    /// block-based file systems) or straight to the device (`false` for the
    /// DAX-style byte-interface file systems).
    fn buffered_data(&self) -> bool {
        true
    }

    /// Whether [`PersistencePolicy::write_page`] needs the complete page
    /// contents (copy-on-write and whole-block writers) or only the modified
    /// ranges (in-place byte-granular writers).
    fn needs_full_page(&self) -> bool {
        true
    }

    /// Whether the engine should create an Ext4-style block journal for this
    /// policy.
    fn wants_journal(&self) -> bool {
        false
    }

    /// Metadata read traffic generated the first time an inode is accessed.
    fn load_inode(&self, ctx: &mut Ctx<'_>, ino: u64) -> FsResult<()>;

    /// Metadata read traffic generated the first time a directory is accessed.
    fn load_dir(
        &self,
        ctx: &mut Ctx<'_>,
        ino: u64,
        meta_block: u64,
        entries: usize,
    ) -> FsResult<()>;

    /// Persist the metadata effects of one namespace operation.
    fn metadata_op(&self, ctx: &mut Ctx<'_>, op: &MetaOp) -> FsResult<()>;

    /// Persist one file page. `old_lba` is the block currently backing the
    /// page (if any), `page` its full new contents (meaningful only where
    /// `dirty` says so when [`PersistencePolicy::needs_full_page`] is false),
    /// and `dirty` the modified byte ranges. Returns the LBA now backing the
    /// page; out-of-place file systems return a freshly allocated one.
    ///
    /// Media errors (e.g. the device degraded to read-only) surface as
    /// [`FsError::Io`].
    fn write_page(
        &self,
        ctx: &mut Ctx<'_>,
        ino: u64,
        file_block: u64,
        old_lba: Option<u64>,
        page: &[u8],
        dirty: &[(usize, usize)],
    ) -> FsResult<u64>;

    /// Read `len` bytes at `offset` inside the page stored at `lba`.
    fn read_range(
        &self,
        ctx: &mut Ctx<'_>,
        lba: u64,
        offset: usize,
        len: usize,
    ) -> FsResult<Vec<u8>>;

    /// Read `count` whole pages stored at consecutive LBAs starting at `lba`,
    /// one buffer per page. The default reads page by page through
    /// [`PersistencePolicy::read_range`]; the whole-block file systems
    /// override it with one multi-page command.
    fn read_pages(&self, ctx: &mut Ctx<'_>, lba: u64, count: usize) -> FsResult<Vec<Vec<u8>>> {
        let page_size = ctx.layout.page_size;
        (lba..lba + count as u64).map(|lba| self.read_range(ctx, lba, 0, page_size)).collect()
    }

    /// Persist the dirty whole pages of one file at `fsync`: each entry is
    /// `(file block, LBA currently backing it, new contents)`. Returns the
    /// LBA now backing each page, in the same order. The default writes page
    /// by page through [`PersistencePolicy::write_page`]; the whole-block
    /// file systems override it to place every page first and then write
    /// each run of consecutive LBAs with one command.
    fn write_pages(
        &self,
        ctx: &mut Ctx<'_>,
        ino: u64,
        pages: &[(u64, Option<u64>, &[u8])],
    ) -> FsResult<Vec<u64>> {
        pages
            .iter()
            .map(|&(file_block, old_lba, page)| {
                self.write_page(ctx, ino, file_block, old_lba, page, &[(0, page.len())])
            })
            .collect()
    }

    /// Called at the end of `fsync`/`sync` for an inode, after its data pages
    /// were written (journal commits, ordering barriers).
    fn fsync_epilogue(&self, ctx: &mut Ctx<'_>, ino: u64, synced_pages: usize) -> FsResult<()>;

    /// Called at the end of a whole-file-system `sync` (and unmount), so
    /// journaling file systems can commit metadata batches that no `fsync`
    /// forced out. Defaults to a no-op.
    fn sync_epilogue(&self, ctx: &mut Ctx<'_>) -> FsResult<()> {
        let _ = ctx;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    ino: u64,
    flags: OpenFlags,
}

struct EngineState {
    ns: Namespace,
    layout: PseudoLayout,
    alloc: BlockAlloc,
    journal: Option<BlockJournal>,
    page_cache: PageCache,
    open: HashMap<u64, OpenFile>,
    next_fd: u64,
    loaded_inodes: HashSet<u64>,
    loaded_dirs: HashSet<u64>,
    /// Per-directory metadata block (directory entries / per-inode log head).
    meta_blocks: HashMap<u64, u64>,
    dirty_inodes: BTreeSet<u64>,
    seq: u64,
}

/// A baseline file system: the shared engine specialized by a persistence
/// policy. Use the concrete aliases [`crate::Ext4Like`], [`crate::F2fsLike`],
/// [`crate::NovaLike`] and [`crate::PmfsLike`].
pub struct BaselineFs<P: PersistencePolicy> {
    device: Arc<Mssd>,
    policy: P,
    state: Mutex<EngineState>,
}

impl<P: PersistencePolicy> std::fmt::Debug for BaselineFs<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineFs").field("fs", &self.policy.fs_name()).finish()
    }
}

/// Host page-cache capacity used by the buffered baselines, in pages (256 MB
/// worth of 4 KB pages, matching the ByteFS default).
const PAGE_CACHE_PAGES: usize = 64 << 10;

impl<P: PersistencePolicy> BaselineFs<P> {
    /// Creates (formats) a baseline file system on the device.
    pub fn with_policy(device: Arc<Mssd>, policy: P) -> Arc<Self> {
        let layout = PseudoLayout::compute(&device);
        let mut alloc = BlockAlloc::new(layout.data_start, layout.total_pages);
        let journal = policy.wants_journal().then(|| {
            BlockJournal::new(Arc::clone(&device), layout.journal_start, layout.journal_pages)
        });
        let mut meta_blocks = HashMap::new();
        meta_blocks.insert(ROOT_INO, alloc.allocate().expect("room for the root directory"));
        let page_size = device.page_size();
        let state = EngineState {
            ns: Namespace::new(),
            layout,
            alloc,
            journal,
            page_cache: PageCache::new(PAGE_CACHE_PAGES, page_size, false),
            open: HashMap::new(),
            next_fd: 3,
            loaded_inodes: HashSet::new(),
            loaded_dirs: HashSet::new(),
            meta_blocks,
            dirty_inodes: BTreeSet::new(),
            seq: 0,
        };
        Arc::new(Self { device, policy, state: Mutex::new(state) })
    }

    /// The persistence policy (for tests and reports).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    fn with_ctx<R>(
        &self,
        st: &mut EngineState,
        f: impl FnOnce(&mut Ctx<'_>, &mut Namespace, &mut PageCache) -> R,
    ) -> R {
        let EngineState { ns, layout, alloc, journal, page_cache, seq, .. } = st;
        let mut ctx = Ctx { device: &self.device, layout, alloc, journal: journal.as_mut(), seq };
        f(&mut ctx, ns, page_cache)
    }

    fn touch_inode(&self, st: &mut EngineState, ino: u64) -> FsResult<()> {
        if st.loaded_inodes.insert(ino) {
            self.with_ctx(st, |ctx, _, _| self.policy.load_inode(ctx, ino))?;
        }
        Ok(())
    }

    fn touch_dir(&self, st: &mut EngineState, ino: u64) -> FsResult<()> {
        // A path that walks through a file fails in the caller; only a
        // directory has a block to load.
        let Some(&meta_block) = st.meta_blocks.get(&ino) else { return Ok(()) };
        if st.loaded_dirs.insert(ino) {
            let entries = st.ns.node(ino).map(|n| n.children.len()).unwrap_or(0);
            self.with_ctx(st, |ctx, _, _| self.policy.load_dir(ctx, ino, meta_block, entries))?;
        }
        Ok(())
    }

    /// Resolves a path, generating metadata read traffic for every directory
    /// and the target the first time they are touched.
    fn resolve_touch(&self, st: &mut EngineState, path: &str) -> FsResult<u64> {
        let comps = fspath::components(path)?;
        let mut cur = ROOT_INO;
        for comp in comps {
            self.touch_dir(st, cur)?;
            let node = st.ns.node(cur)?;
            if !node.file_type.is_dir() {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            cur = *node.children.get(comp).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        }
        self.touch_inode(st, cur)?;
        Ok(cur)
    }

    fn resolve_parent_touch<'p>(
        &self,
        st: &mut EngineState,
        path: &'p str,
    ) -> FsResult<(u64, &'p str)> {
        let (parent, name) = st.ns.resolve_parent(path)?;
        // Touch every directory on the way for read-traffic accounting.
        let (dirs, _) = fspath::split_parent(path)?;
        let mut cur = ROOT_INO;
        self.touch_dir(st, cur)?;
        for comp in dirs {
            cur = *st.ns.node(cur)?.children.get(comp).expect("resolve_parent succeeded");
            self.touch_dir(st, cur)?;
        }
        Ok((parent, name))
    }

    fn open_file(&self, st: &EngineState, fd: Fd) -> FsResult<OpenFile> {
        st.open.get(&fd.0).copied().ok_or(FsError::BadDescriptor(fd.0))
    }

    /// The block holding directory `ino`'s entries. Every directory has had
    /// one since it was made (the root since format), so on a full volume
    /// this only ever fails for a directory that does not exist yet.
    fn meta_block_of(&self, st: &mut EngineState, ino: u64) -> FsResult<u64> {
        if let Some(b) = st.meta_blocks.get(&ino) {
            return Ok(*b);
        }
        let lba = st.alloc.allocate().ok_or(FsError::NoSpace)?;
        st.meta_blocks.insert(ino, lba);
        Ok(lba)
    }

    fn do_create(&self, st: &mut EngineState, path: &str, is_dir: bool) -> FsResult<u64> {
        let (parent, name) = self.resolve_parent_touch(st, path)?;
        self.touch_dir(st, parent)?;
        let now = self.device.clock().now_ns();
        let file_type = if is_dir { FileType::Directory } else { FileType::File };
        let parent_meta_block = self.meta_block_of(st, parent)?;
        // A new directory's block comes first: a full volume refuses the
        // `mkdir` with the namespace untouched.
        let dir_block = is_dir.then(|| st.alloc.allocate().ok_or(FsError::NoSpace)).transpose()?;
        let ino = st.ns.create(parent, name, file_type, now).inspect_err(|_| {
            dir_block.into_iter().for_each(|lba| st.alloc.free(lba));
        })?;
        if let Some(lba) = dir_block {
            st.meta_blocks.insert(ino, lba);
        }
        st.loaded_inodes.insert(ino);
        if is_dir {
            st.loaded_dirs.insert(ino);
        }
        let name_len = name.len();
        let op = MetaOp::Create { parent, parent_meta_block, ino, is_dir, name_len };
        self.with_ctx(st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        Ok(ino)
    }

    fn free_node_blocks(&self, st: &mut EngineState, blocks: &BTreeMap<u64, u64>) {
        for lba in blocks.values() {
            st.alloc.free(*lba);
            self.device.trim(*lba, 1);
        }
    }

    /// Writes back one page through the policy and updates the block map.
    fn writeback_page(
        &self,
        st: &mut EngineState,
        ino: u64,
        file_block: u64,
        page: &[u8],
        dirty: &[(usize, usize)],
    ) -> FsResult<()> {
        let old_lba = st.ns.node(ino)?.blocks.get(&file_block).copied();
        let new_lba = self.with_ctx(st, |ctx, _, _| {
            self.policy.write_page(ctx, ino, file_block, old_lba, page, dirty)
        })?;
        self.remap_block(st, ino, file_block, old_lba, new_lba)
    }

    /// Points `file_block` at `new_lba`, releasing the block it replaces.
    fn remap_block(
        &self,
        st: &mut EngineState,
        ino: u64,
        file_block: u64,
        old_lba: Option<u64>,
        new_lba: u64,
    ) -> FsResult<()> {
        if let Some(old) = old_lba {
            if old != new_lba {
                st.alloc.free(old);
                self.device.trim(old, 1);
            }
        }
        st.ns.node_mut(ino)?.blocks.insert(file_block, new_lba);
        Ok(())
    }

    /// Reads one full page of a file, via the page cache when the policy is
    /// buffered. Returns a zero-copy handle (cache hits are a refcount bump).
    fn read_page(&self, st: &mut EngineState, ino: u64, index: u64) -> FsResult<PageRef> {
        Ok(self.read_pages(st, ino, index, index)?.swap_remove(0))
    }

    /// Reads file page `index` and, on a buffered miss, as many of the pages
    /// after it (up to `last`) as one command can cover: non-resident and
    /// stored at consecutive LBAs. The pages are installed in index order,
    /// so the cache sees the sequence page-by-page loading produced. Returns
    /// at least the page asked for.
    fn read_pages(
        &self,
        st: &mut EngineState,
        ino: u64,
        index: u64,
        last: u64,
    ) -> FsResult<Vec<PageRef>> {
        let buffered = self.policy.buffered_data();
        if buffered {
            if let Some(p) = st.page_cache.get(ino, index) {
                return Ok(vec![p]);
            }
        }
        let blocks = &st.ns.node(ino)?.blocks;
        let Some(&lba) = blocks.get(&index) else {
            return Ok(vec![PageRef::zeroed(st.layout.page_size)]);
        };
        // Only a cache can hold the pages a longer run brings in.
        let last = if buffered { last } else { index };
        let lba_of = |i| blocks.get(&i).copied();
        let resident = |i| st.page_cache.contains(ino, i);
        let count = read_run_len(&self.device, index, lba, last, lba_of, resident);
        let pages = self.with_ctx(st, |ctx, _, _| self.policy.read_pages(ctx, lba, count))?;
        Ok((index..)
            .zip(pages)
            .map(|(i, page)| {
                let page = PageRef::from(page);
                if buffered {
                    st.page_cache.insert_clean(ino, i, page.clone());
                }
                page
            })
            .collect())
    }

    /// Writes back the dirty pages the caller took out of the page cache,
    /// and the inode. On failure (the data area is full: blocks are placed
    /// here, not at `write`) the pages and the inode are dirty again, so the
    /// next `fsync` fails too or persists every byte — a page left clean in
    /// the cache would never be written.
    fn writeback_inode(
        &self,
        st: &mut EngineState,
        ino: u64,
        pages: Vec<DirtyPage>,
    ) -> FsResult<()> {
        let meta_dirty = st.dirty_inodes.remove(&ino);
        if pages.is_empty() && !meta_dirty {
            return Ok(());
        }
        let written = self.write_pages_and_inode(st, ino, &pages);
        if written.is_err() {
            st.page_cache.restore_dirty(pages);
            st.dirty_inodes.insert(ino);
        }
        written
    }

    fn write_pages_and_inode(
        &self,
        st: &mut EngineState,
        ino: u64,
        pages: &[DirtyPage],
    ) -> FsResult<()> {
        let npages = pages.len();
        let blocks = &st.ns.node(ino)?.blocks;
        let batch: Vec<(u64, Option<u64>, &[u8])> =
            pages.iter().map(|dp| (dp.index, blocks.get(&dp.index).copied(), &*dp.data)).collect();
        // A batch places all its pages before the blocks they replace are
        // released, so it is cut to what the allocator can still hand out: a
        // nearly full data area degrades to page-by-page writeback, which
        // gets by on one spare block as it always did.
        let mut rest = &batch[..];
        while !rest.is_empty() {
            let (now, later) = rest.split_at(rest.len().min(st.alloc.available().max(1)));
            let new_lbas = self.with_ctx(st, |ctx, _, _| self.policy.write_pages(ctx, ino, now))?;
            for (&(file_block, old_lba, _), new_lba) in now.iter().zip(new_lbas) {
                self.remap_block(st, ino, file_block, old_lba, new_lba)?;
            }
            rest = later;
        }
        let op = MetaOp::InodeUpdate { ino, pages: npages };
        self.with_ctx(st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        self.with_ctx(st, |ctx, _, _| self.policy.fsync_epilogue(ctx, ino, npages))?;
        Ok(())
    }
}

/// The baseline engine's implementation of the shared checker API: the
/// namespace's block maps, the per-directory metadata blocks and the block
/// allocator must agree exactly — every referenced LBA inside the data
/// region, allocated, and owned once; the allocator counting nothing beyond
/// what the namespace references. The device FTL invariants ride along.
impl<P: PersistencePolicy> CrashConsistent for BaselineFs<P> {
    fn check_invariants(&self) -> Vec<Violation> {
        let checker = format!("{}-check", self.policy.fs_name());
        let mut v = Vec::new();
        let st = self.state.lock();
        let mut owner: HashMap<u64, u64> = HashMap::new();
        let mut referenced: u64 = 0;
        let mut claim = |lba: u64, ino: u64, what: &str, v: &mut Vec<Violation>| {
            referenced += 1;
            if lba < st.layout.data_start || lba >= st.layout.total_pages {
                v.push(Violation::new(
                    &checker,
                    format!("inode {ino}: {what} block {lba} outside the data region"),
                ));
                return;
            }
            if let Some(prev) = owner.insert(lba, ino) {
                v.push(Violation::new(
                    &checker,
                    format!("block {lba} owned by both inode {prev} and inode {ino} ({what})"),
                ));
            }
        };
        for node in st.ns.nodes() {
            for (file_block, lba) in &node.blocks {
                claim(*lba, node.ino, "data", &mut v);
                let _ = file_block;
            }
        }
        for (ino, lba) in &st.meta_blocks {
            claim(*lba, *ino, "metadata", &mut v);
        }
        if st.alloc.allocated() != referenced {
            v.push(Violation::new(
                &checker,
                format!(
                    "allocator says {} blocks in use, namespace references {}: \
                     leaked or lost blocks",
                    st.alloc.allocated(),
                    referenced
                ),
            ));
        }
        drop(st);
        for problem in self.device.check_consistency() {
            v.push(Violation::new("mssd-ftl", problem));
        }
        v
    }
}

impl<P: PersistencePolicy> FileSystem for BaselineFs<P> {
    fn name(&self) -> &'static str {
        self.policy.fs_name()
    }

    fn device(&self) -> &Arc<Mssd> {
        &self.device
    }

    fn create(&self, path: &str) -> FsResult<Fd> {
        let mut st = self.state.lock();
        let ino = self.do_create(&mut st, path, false)?;
        let fd = st.next_fd;
        st.next_fd += 1;
        st.open.insert(fd, OpenFile { ino, flags: OpenFlags::create_rw() });
        Ok(Fd(fd))
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let mut st = self.state.lock();
        let ino = match self.resolve_touch(&mut st, path) {
            Ok(ino) => {
                if st.ns.node(ino)?.file_type.is_dir() {
                    return Err(FsError::IsADirectory(path.to_string()));
                }
                ino
            }
            Err(FsError::NotFound(_)) if flags.create => self.do_create(&mut st, path, false)?,
            Err(e) => return Err(e),
        };
        let fd = st.next_fd;
        st.next_fd += 1;
        st.open.insert(fd, OpenFile { ino, flags });
        if flags.truncate {
            drop(st);
            self.truncate(Fd(fd), 0)?;
        }
        Ok(Fd(fd))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let mut st = self.state.lock();
        st.open.remove(&fd.0).ok_or(FsError::BadDescriptor(fd.0))?;
        Ok(())
    }

    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let mut st = self.state.lock();
        let of = self.open_file(&st, fd)?;
        let size = st.ns.node(of.ino)?.size;
        if offset >= size {
            return Ok(Vec::new());
        }
        let len = len.min((size - offset) as usize);
        if len == 0 {
            // Nothing to read, and no last page for the runs below to end at.
            return Ok(Vec::new());
        }
        let page_size = st.layout.page_size as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        let last = (end - 1) / page_size;
        // The part of the page under `pos` that the request covers.
        let span_at = |pos: u64| {
            let in_page = (pos % page_size) as usize;
            in_page..in_page + ((page_size as usize) - in_page).min((end - pos) as usize)
        };
        while pos < end {
            let index = pos / page_size;
            if self.policy.buffered_data() {
                for page in self.read_pages(&mut st, of.ino, index, last)? {
                    let span = span_at(pos);
                    pos += span.len() as u64;
                    out.extend_from_slice(&page[span]);
                }
                continue;
            }
            // DAX-style read of exactly the requested range.
            let span = span_at(pos);
            pos += span.len() as u64;
            match st.ns.node(of.ino)?.blocks.get(&index).copied() {
                Some(lba) => {
                    let bytes = self.with_ctx(&mut st, |ctx, _, _| {
                        self.policy.read_range(ctx, lba, span.start, span.len())
                    })?;
                    out.extend_from_slice(&bytes);
                }
                None => out.extend(std::iter::repeat_n(0u8, span.len())),
            }
        }
        Ok(out)
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let mut st = self.state.lock();
        let of = self.open_file(&st, fd)?;
        if !of.flags.write && !of.flags.create {
            return Err(FsError::PermissionDenied("file not open for writing".into()));
        }
        if data.is_empty() {
            return Ok(0);
        }
        let offset = if of.flags.append { st.ns.node(of.ino)?.size } else { offset };
        let page_size = st.layout.page_size as u64;
        let ps = page_size as usize;
        let mut pos = offset;
        let end = offset + data.len() as u64;
        while pos < end {
            let index = pos / page_size;
            let in_page = (pos % page_size) as usize;
            let span = (ps - in_page).min((end - pos) as usize);
            let chunk = &data[(pos - offset) as usize..(pos - offset) as usize + span];
            if self.policy.buffered_data() {
                if st.page_cache.contains(of.ino, index) {
                    st.page_cache.write(of.ino, index, in_page, chunk);
                } else if in_page == 0 && span == ps {
                    st.page_cache.insert_new_dirty(of.ino, index, chunk.to_vec());
                } else {
                    let base = self.read_page(&mut st, of.ino, index)?;
                    if !st.page_cache.contains(of.ino, index) {
                        st.page_cache.insert_clean(of.ino, index, base);
                    }
                    st.page_cache.write(of.ino, index, in_page, chunk);
                }
            } else {
                // Write-through: build the page image the policy needs.
                let old_lba = st.ns.node(of.ino)?.blocks.get(&index).copied();
                let mut page = if self.policy.needs_full_page()
                    && old_lba.is_some()
                    && !(in_page == 0 && span == ps)
                {
                    self.with_ctx(&mut st, |ctx, _, _| {
                        self.policy.read_range(ctx, old_lba.expect("checked"), 0, ps)
                    })?
                } else {
                    vec![0u8; ps]
                };
                page[in_page..in_page + span].copy_from_slice(chunk);
                self.writeback_page(&mut st, of.ino, index, &page, &[(in_page, span)])?;
            }
            pos += span as u64;
        }
        let now = self.device.clock().now_ns();
        {
            let node = st.ns.node_mut(of.ino)?;
            node.size = node.size.max(end);
            node.mtime_ns = now;
        }
        if self.policy.buffered_data() {
            st.dirty_inodes.insert(of.ino);
        } else {
            // DAX-style file systems persist the inode update with the write.
            let pages = ((end - offset) as usize).div_ceil(ps);
            let op = MetaOp::InodeUpdate { ino: of.ino, pages };
            self.with_ctx(&mut st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        }
        Ok(data.len())
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        let mut st = self.state.lock();
        let of = self.open_file(&st, fd)?;
        if self.policy.buffered_data() {
            let dirty = st.page_cache.take_dirty(of.ino);
            self.writeback_inode(&mut st, of.ino, dirty)
        } else {
            self.with_ctx(&mut st, |ctx, _, _| self.policy.fsync_epilogue(ctx, of.ino, 0))
        }
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        let mut st = self.state.lock();
        let of = self.open_file(&st, fd)?;
        let page_size = st.layout.page_size as u64;
        let keep_blocks = size.div_ceil(page_size);
        let now = self.device.clock().now_ns();
        let freed: Vec<u64> = {
            let node = st.ns.node_mut(of.ino)?;
            if node.file_type.is_dir() {
                return Err(FsError::IsADirectory(format!("inode {}", of.ino)));
            }
            let freed: Vec<u64> = node
                .blocks
                .iter()
                .filter(|(fb, _)| **fb >= keep_blocks)
                .map(|(_, lba)| *lba)
                .collect();
            node.blocks.retain(|fb, _| *fb < keep_blocks);
            node.size = size;
            node.mtime_ns = now;
            freed
        };
        let nfreed = freed.len();
        for lba in freed {
            st.alloc.free(lba);
            self.device.trim(lba, 1);
        }
        st.page_cache.invalidate_from(of.ino, keep_blocks);
        // Zero the tail of the last partial page so stale bytes beyond the new
        // EOF cannot resurface when the file grows again.
        let ps = st.layout.page_size;
        let tail_off = (size % page_size) as usize;
        if tail_off != 0 {
            let last = size / page_size;
            let last_mapped = st.ns.node(of.ino)?.blocks.contains_key(&last);
            let resident = st.page_cache.contains(of.ino, last);
            if last_mapped || resident {
                let page = self.read_page(&mut st, of.ino, last)?;
                if self.policy.buffered_data() {
                    if !st.page_cache.contains(of.ino, last) {
                        st.page_cache.insert_clean(of.ino, last, page);
                    }
                    let zeros = vec![0u8; ps - tail_off];
                    st.page_cache.write(of.ino, last, tail_off, &zeros);
                } else {
                    let mut page = page.to_vec();
                    page[tail_off..].fill(0);
                    self.writeback_page(
                        &mut st,
                        of.ino,
                        last,
                        &page,
                        &[(tail_off, ps - tail_off)],
                    )?;
                }
            }
        }
        let op = MetaOp::Truncate { ino: of.ino, freed_blocks: nfreed };
        self.with_ctx(&mut st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        Ok(())
    }

    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        let mut st = self.state.lock();
        let of = self.open_file(&st, fd)?;
        self.touch_inode(&mut st, of.ino)?;
        Ok(st.ns.node(of.ino)?.metadata())
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let mut st = self.state.lock();
        let ino = self.resolve_touch(&mut st, path)?;
        Ok(st.ns.node(ino)?.metadata())
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let mut st = self.state.lock();
        self.do_create(&mut st, path, true)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let mut st = self.state.lock();
        let (parent, name) = self.resolve_parent_touch(&mut st, path)?;
        self.touch_dir(&mut st, parent)?;
        let parent_meta_block = self.meta_block_of(&mut st, parent)?;
        let now = self.device.clock().now_ns();
        let removed = st.ns.remove(parent, name, true, now)?;
        if let Some(meta) = st.meta_blocks.remove(&removed.ino) {
            st.alloc.free(meta);
            self.device.trim(meta, 1);
        }
        let op = MetaOp::Remove {
            parent,
            parent_meta_block,
            ino: removed.ino,
            is_dir: true,
            freed_blocks: 0,
        };
        self.with_ctx(&mut st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        Ok(())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let mut st = self.state.lock();
        let (parent, name) = self.resolve_parent_touch(&mut st, path)?;
        self.touch_dir(&mut st, parent)?;
        let parent_meta_block = self.meta_block_of(&mut st, parent)?;
        let now = self.device.clock().now_ns();
        let removed = st.ns.remove(parent, name, false, now)?;
        let freed_blocks = removed.blocks.len();
        self.free_node_blocks(&mut st, &removed.blocks);
        st.page_cache.invalidate_inode(removed.ino);
        st.dirty_inodes.remove(&removed.ino);
        let op = MetaOp::Remove {
            parent,
            parent_meta_block,
            ino: removed.ino,
            is_dir: false,
            freed_blocks,
        };
        self.with_ctx(&mut st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let mut st = self.state.lock();
        let (from_parent, from_name) = self.resolve_parent_touch(&mut st, from)?;
        let (to_parent, to_name) = self.resolve_parent_touch(&mut st, to)?;
        self.touch_dir(&mut st, from_parent)?;
        self.touch_dir(&mut st, to_parent)?;
        let from_meta_block = self.meta_block_of(&mut st, from_parent)?;
        let to_meta_block = self.meta_block_of(&mut st, to_parent)?;
        let now = self.device.clock().now_ns();
        let ino = st.ns.rename(from_parent, from_name, to_parent, to_name, now)?;
        let op = MetaOp::Rename {
            from_parent,
            from_meta_block,
            to_parent,
            to_meta_block,
            ino,
            name_len: to_name.len(),
        };
        self.with_ctx(&mut st, |ctx, _, _| self.policy.metadata_op(ctx, &op))?;
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let mut st = self.state.lock();
        let ino = self.resolve_touch(&mut st, path)?;
        self.touch_dir(&mut st, ino)?;
        st.ns.readdir(ino)
    }

    fn sync(&self) -> FsResult<()> {
        let mut st = self.state.lock();
        if self.policy.buffered_data() {
            // Inode by inode, in ascending order: a failure leaves the
            // pages of the inodes after it dirty in the cache.
            let mut inos = st.page_cache.dirty_inodes();
            inos.extend(st.dirty_inodes.iter().copied());
            for ino in inos {
                let pages = st.page_cache.take_dirty(ino);
                self.writeback_inode(&mut st, ino, pages)?;
            }
        }
        self.with_ctx(&mut st, |ctx, _, _| self.policy.sync_epilogue(ctx))?;
        Ok(())
    }

    fn drop_caches(&self) {
        let mut st = self.state.lock();
        st.page_cache.clear_clean();
        st.loaded_inodes.clear();
        st.loaded_dirs.clear();
    }

    fn unmount(&self) -> FsResult<()> {
        self.sync()?;
        self.device.try_flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::check::CrashConsistent;
    use fskit::{FileSystem, FsError};
    use mssd::{DramMode, MediaFaultPlan, Mssd, MssdConfig};

    use super::{BaselineFs, PersistencePolicy};
    use crate::{Ext4Like, F2fsLike, NovaLike, PmfsLike};

    /// A device on which no program succeeds once its media plan is resumed.
    fn failing_device() -> Arc<Mssd> {
        let mut cfg = MssdConfig::small_test();
        cfg.media = MediaFaultPlan::rates(7, 0.0, 1.0, 0.0);
        cfg.media.suspend();
        Mssd::new(cfg, DramMode::PageCache)
    }

    fn fsync_fails_twice<P: PersistencePolicy>(fs: Arc<BaselineFs<P>>) {
        let victim = fs.create("/victim").unwrap();
        fs.write(victim, 0, &vec![7u8; 8 * 4096]).unwrap();
        fs.device.config().media.resume();
        assert!(fs.fsync(victim).is_err(), "{}: the FLUSH cannot program", fs.name());
        assert!(fs.device.is_read_only());
        assert_eq!(fs.state.lock().page_cache.dirty_count(), 8, "{}", fs.name());
        assert!(fs.fsync(victim).is_err(), "{}: nothing was persisted", fs.name());
    }

    #[test]
    fn a_failed_fsync_leaves_every_page_dirty_for_the_next_one() {
        // `bytefs/tests/failed_fsync.rs` for the baselines, on a device that
        // degraded to read-only — for good, so only half of the contract can
        // be shown: the pages a failed fsync took are dirty again and the
        // next fsync fails too, where it used to find nothing to write and
        // return `Ok`. The other half is `a_full_data_area_is_no_space`.
        fsync_fails_twice(Ext4Like::format(failing_device()));
        fsync_fails_twice(F2fsLike::format(failing_device()));
    }

    /// Fills the data area with 64-page files until one no longer fits: that
    /// is `NoSpace` — from `fsync`, or from `write` on the write-through
    /// policies — not a panic; the failure launders nothing; everything
    /// persisted before it reads back; and an unlink makes room for it.
    fn a_full_data_area_is_no_space<P: PersistencePolicy>(fs: Arc<BaselineFs<P>>) {
        const FILE: usize = 64 * 4096;
        let contents = |n: usize| vec![n as u8 | 1; FILE];
        let persist = |fd, n| fs.write(fd, 0, &contents(n)).and_then(|_| fs.fsync(fd));
        let mut persisted = Vec::new();
        let failed = loop {
            let n = persisted.len();
            assert!(n < 64, "{}: 16 MB went into an 8 MB device", fs.name());
            let fd = fs.create(&format!("/f{n}")).unwrap();
            match persist(fd, n) {
                Ok(()) => persisted.push(fd),
                Err(e) => {
                    assert_eq!(e, FsError::NoSpace, "{}", fs.name());
                    break fd;
                }
            }
        };
        if fs.policy.buffered_data() {
            assert_eq!(fs.state.lock().page_cache.dirty_count(), 64, "{}", fs.name());
        }
        let n = persisted.len();
        assert_eq!(persist(failed, n), Err(FsError::NoSpace), "{}: still full", fs.name());
        fs.drop_caches();
        for (n, fd) in persisted.iter().enumerate() {
            assert_eq!(fs.read(*fd, 0, FILE).unwrap(), contents(n), "{} /f{n}", fs.name());
        }
        fs.unlink("/f0").unwrap();
        persist(failed, n).unwrap();
        fs.drop_caches();
        assert_eq!(fs.read(failed, 0, FILE).unwrap(), contents(n), "{}", fs.name());
        assert_eq!(fs.check_invariants(), Vec::new(), "{}", fs.name());
    }

    fn fresh_device() -> Arc<Mssd> {
        Mssd::new(MssdConfig::small_test(), DramMode::PageCache)
    }

    #[test]
    fn a_full_ext4_returns_no_space_and_recovers_after_an_unlink() {
        a_full_data_area_is_no_space(Ext4Like::format(fresh_device()));
    }

    #[test]
    fn a_full_f2fs_returns_no_space_and_recovers_after_an_unlink() {
        a_full_data_area_is_no_space(F2fsLike::format(fresh_device()));
    }

    #[test]
    fn a_full_nova_returns_no_space_and_recovers_after_an_unlink() {
        a_full_data_area_is_no_space(NovaLike::format(fresh_device()));
    }

    #[test]
    fn a_full_pmfs_returns_no_space_and_recovers_after_an_unlink() {
        a_full_data_area_is_no_space(PmfsLike::format(fresh_device()));
    }

    /// Fills the data area, then asks for a directory: its block cannot be
    /// had, so the `mkdir` is `NoSpace` and leaves no trace — it used to
    /// succeed on the root directory's block (`data_start`), which the
    /// `rmdir` then freed under the root for the next file to take. With one
    /// block back the same `mkdir` goes through.
    fn a_full_volume_refuses_mkdir<P: PersistencePolicy>(fs: Arc<BaselineFs<P>>) {
        const FILE: usize = 64 * 4096;
        let contents = |n: usize| vec![n as u8 | 1; FILE];
        let mut persisted = Vec::new();
        loop {
            let n = persisted.len();
            let fd = fs.create(&format!("/f{n}")).unwrap();
            match fs.write(fd, 0, &contents(n)).and_then(|_| fs.fsync(fd)) {
                Ok(()) => persisted.push(fd),
                Err(e) => break assert_eq!(e, FsError::NoSpace, "{}", fs.name()),
            }
        }
        // The last file wanted 64 blocks at once; take the few that are left.
        let hoard: Vec<u64> = {
            let mut st = fs.state.lock();
            (0..st.alloc.available()).map(|_| st.alloc.allocate().unwrap()).collect()
        };
        let root = fs.readdir("/").unwrap();
        assert_eq!(fs.mkdir("/d"), Err(FsError::NoSpace), "{}", fs.name());
        assert_eq!(fs.readdir("/").unwrap(), root, "{}", fs.name());
        {
            let st = fs.state.lock();
            let owners = st.meta_blocks.values().filter(|lba| **lba == st.layout.data_start);
            assert_eq!(owners.count(), 1, "{}: the root directory's block is its own", fs.name());
        }
        fs.drop_caches();
        for (n, fd) in persisted.iter().enumerate() {
            assert_eq!(fs.read(*fd, 0, FILE).unwrap(), contents(n), "{} /f{n}", fs.name());
        }
        if let Some((back, rest)) = hoard.split_first() {
            fs.state.lock().alloc.free(*back);
            fs.mkdir("/d").unwrap();
            assert_eq!(fs.readdir("/").unwrap().len(), root.len() + 1, "{}", fs.name());
            let mut st = fs.state.lock();
            rest.iter().for_each(|lba| st.alloc.free(*lba));
        }
    }

    #[test]
    fn a_full_volume_refuses_mkdir_and_leaves_the_namespace_alone() {
        a_full_volume_refuses_mkdir(Ext4Like::format(fresh_device()));
        a_full_volume_refuses_mkdir(F2fsLike::format(fresh_device()));
        a_full_volume_refuses_mkdir(NovaLike::format(fresh_device()));
        a_full_volume_refuses_mkdir(PmfsLike::format(fresh_device()));
    }

    #[test]
    fn f2fs_node_writeback_on_a_full_log_is_no_space_and_the_batch_stays_pending() {
        let fs = F2fsLike::format(fresh_device());
        fs.create("/a").unwrap(); // an inode, a dentry and a SIT block are pending
        let hoard: Vec<u64> = {
            let mut st = fs.state.lock();
            (0..st.alloc.available()).map(|_| st.alloc.allocate().unwrap()).collect()
        };
        assert_eq!(fs.sync(), Err(FsError::NoSpace));
        fs.state.lock().alloc.free(hoard[0]);
        let before = fs.device.traffic();
        fs.sync().unwrap();
        // Three node blocks out of place and their NAT block.
        assert_eq!(fs.device.traffic().delta_since(&before).block_requests, 4);
        let mut st = fs.state.lock();
        hoard[1..].iter().for_each(|lba| st.alloc.free(*lba));
    }

    #[test]
    fn block_policies_move_data_pages_by_the_run() {
        let dev_e = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let dev_f = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let stacks: [(&Arc<Mssd>, Arc<dyn FileSystem>); 2] = [
            (&dev_e, Ext4Like::format(Arc::clone(&dev_e))),
            (&dev_f, F2fsLike::format(Arc::clone(&dev_f))),
        ];
        for (dev, fs) in stacks {
            let requests = |f: &dyn Fn()| {
                let before = dev.traffic();
                f();
                dev.traffic().delta_since(&before).block_requests
            };
            // The metadata commands of an fsync do not depend on how many
            // data pages it carries, and the data is one command either way:
            // fresh blocks are consecutive.
            let one = fs.create("/one").unwrap();
            fs.write(one, 0, &vec![1u8; 4096]).unwrap();
            let one_page = requests(&|| fs.fsync(one).unwrap());
            let four = fs.create("/four").unwrap();
            let data = vec![4u8; 4 * 4096];
            fs.write(four, 0, &data).unwrap();
            assert_eq!(requests(&|| fs.fsync(four).unwrap()), one_page, "{}", fs.name());
            // Cold: one read command for the whole run, none when warm or
            // when nothing is asked for.
            fs.drop_caches();
            assert_eq!(requests(&|| assert!(fs.read(four, 0, 0).unwrap().is_empty())), 0);
            assert_eq!(requests(&|| assert_eq!(fs.read(four, 0, 4 * 4096).unwrap(), data)), 1);
            assert_eq!(requests(&|| drop(fs.read(four, 0, 4 * 4096).unwrap())), 0);
            // A resident page in the middle splits the run.
            fs.drop_caches();
            assert_eq!(requests(&|| drop(fs.read(four, 2 * 4096, 1).unwrap())), 1);
            assert_eq!(requests(&|| drop(fs.read(four, 0, 4 * 4096).unwrap())), 2, "{}", fs.name());
        }
    }

    #[test]
    fn rewriting_a_file_on_a_nearly_full_log_needs_one_spare_block() {
        // F2FS-like writes out of place, and a batch places every page
        // before the blocks they replace are released. With one block left
        // the batch must shrink to a page at a time, not run out of log.
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let fs = F2fsLike::format(Arc::clone(&dev));
        let fd = fs.create("/f").unwrap();
        fs.write(fd, 0, &vec![1u8; 4 * 4096]).unwrap();
        fs.fsync(fd).unwrap();
        let hoard: Vec<u64> = {
            let mut st = fs.state.lock();
            let spare = st.alloc.available() - 1;
            (0..spare).map(|_| st.alloc.allocate().unwrap()).collect()
        };
        let data = vec![2u8; 4 * 4096];
        fs.write(fd, 0, &data).unwrap();
        fs.fsync(fd).unwrap();
        fs.drop_caches();
        assert_eq!(fs.read(fd, 0, 4 * 4096).unwrap(), data);
        let mut st = fs.state.lock();
        assert_eq!(st.alloc.available(), 1, "every replaced block was released");
        hoard.into_iter().for_each(|lba| st.alloc.free(lba));
    }
}
