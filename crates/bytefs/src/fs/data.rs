//! The ByteFS data path: buffered and direct reads/writes, writeback with
//! interface selection (§4.6), `fsync`, truncate and whole-FS sync.
//!
//! Every function here operates on an [`Inode`] the caller has already locked
//! through its [`InodeHandle`](crate::fs::InodeHandle): shared for reads,
//! exclusive for writes. No function in this module touches the namespace
//! lock, which is what lets data I/O on different files run fully in
//! parallel (see the [concurrency model](crate::fs)).
//!
//! # Block path: one command per extent run
//!
//! The block interface is driven by the *extent run*, not the page: pages
//! that are adjacent in the file **and** on the device travel in one
//! scatter-gather NVMe command ([`Mssd::try_block_read_pages`] /
//! [`Mssd::try_block_write_pages`]), so a run pays the NVMe overhead once and
//! the device overlaps its NAND work across channels: the flash reads of a
//! read run, and on a write run — two at a time — the write-buffer slice
//! drains its pages force on distinct channels. One command a page — what
//! this module did before — charged a cold 16 KB file four overheads and four
//! serial NAND rounds, and made every forced drain wait for the one before
//! it.
//!
//! **What merges.** On a buffered read miss, the following pages of the same
//! request that are non-resident and LBA-contiguous in `inode.extents`
//! (`load_run`); `O_DIRECT` reads the same way without the residency test.
//! On writeback, block-choice dirty pages queued back to back whose LBAs are
//! consecutive ([`BlockWriteBatch`]); `O_DIRECT` writes queue their whole
//! pages the same way.
//!
//! **What splits a run.** A hole or an extent boundary; a resident page in
//! the middle of a read (it is served from the cache, and may be dirty); a
//! byte-choice page in the middle of a writeback; a partial head or tail
//! page of a direct write (read-modify-write of its own); and
//! [`max_run_pages`](fskit::blockrun::max_run_pages), the queue's
//! `COALESCE_MAX_BYTES`. A read never reaches
//! past the request, so no byte moves that did not move page by page:
//! `host_read_amp` and `host_write_amp` are those of the per-page path.
//!
//! **Why order is preserved.** Read-ahead probing uses `contains`, which
//! touches no LRU state, and the pages of a run are installed in index order,
//! so the cache sees the hit/miss/insert sequence of page-by-page loading and
//! evicts the same victims. Writeback submits the pending runs before every
//! byte-choice page, so the device receives an inode's pages in ascending
//! file order as before — *receives*, not *waits for*: the runs are in
//! flight ([`Txn::after`]) until the commit, which is the only point that
//! waits for them (crate docs, "Durability contract"). A multi-page command still counts one fault step per
//! page: a power cut tears it between pages, and crashkit's step spaces are
//! unchanged.
//!
//! **No scratch buffers.** A run is never copied together: reads take one
//! `Vec` per page from the device and install each as it is, writes hand the
//! device slices of the cached pages. The first prototype concatenated
//! (`buf[k * 4096..].to_vec()` per page on read, `extend_from_slice` into one
//! buffer on write) and raised `peak_rss_mb` by 12.2 % on `mail_fsync` and
//! 13.9 % on `web_read_miss`; the scatter-gather form measures within 0.1 %.
//!
//! [`Mssd::try_block_read_pages`]: mssd::Mssd::try_block_read_pages
//! [`Mssd::try_block_write_pages`]: mssd::Mssd::try_block_write_pages

use std::sync::atomic::Ordering;

use fskit::blockrun::{read_run_len, BlockWriteBatch};
use fskit::journal::JournaledBlock;
use fskit::pagecache::{DirtyPage, PageRef};
use fskit::{FsError, FsResult};
use mssd::Category;

use crate::fs::{ByteFs, OpenFile};
use crate::inode::Inode;
use crate::policy::InterfaceChoice;
use crate::txn::Txn;

/// XOR-diff chunk granularity (one cacheline).
const CHUNK: usize = 64;

/// Appends the part of `page` that `[*pos, end)` covers to `out` and moves
/// `*pos` past it.
fn copy_page_span(out: &mut Vec<u8>, page: &[u8], pos: &mut u64, end: u64) {
    let in_page = (*pos % page.len() as u64) as usize;
    let span = (page.len() - in_page).min((end - *pos) as usize);
    out.extend_from_slice(&page[in_page..in_page + span]);
    *pos += span as u64;
}

impl ByteFs {
    /// Ensures file block `file_block` of the locked inode has a device block
    /// allocated, returning its LBA.
    pub(crate) fn ensure_block(&self, inode: &mut Inode, file_block: u64) -> FsResult<u64> {
        if let Some(lba) = inode.extents.lookup(file_block) {
            return Ok(lba);
        }
        let lba = self.alloc_block()?;
        inode.extents.insert(file_block, lba);
        inode.blocks += 1;
        self.mark_dirty(inode.ino);
        Ok(lba)
    }

    /// Loads the run of non-resident pages starting at file block `index`
    /// (mapped to `lba`) and reaching at most file block `last` into the host
    /// page cache with one block command, and returns zero-copy handles to
    /// them. The pages are installed in index order, each buffer as the
    /// device handed it over.
    fn load_run(&self, inode: &Inode, index: u64, lba: u64, last: u64) -> FsResult<Vec<PageRef>> {
        let ino = inode.ino;
        // `contains` touches no LRU state, so probing ahead leaves the
        // hit/miss and eviction sequence what per-page loading produced.
        let lba_of = |i| inode.extents.lookup(i);
        let resident = |i| self.page_cache.contains(ino, i);
        let len = read_run_len(&self.device, index, lba, last, lba_of, resident);
        let pages = self.device.try_block_read_pages(lba, len, Category::Data)?;
        Ok((index..)
            .zip(pages)
            .map(|(i, page)| {
                let page = PageRef::from(page);
                self.page_cache.insert_clean(ino, i, page.clone());
                page
            })
            .collect())
    }

    /// Reads one page of a file into the host page cache (block interface on a
    /// miss; holes materialize as zero pages) and returns a zero-copy handle
    /// to its contents.
    fn page_for_read(&self, inode: &Inode, index: u64) -> FsResult<PageRef> {
        if let Some(page) = self.page_cache.get(inode.ino, index) {
            return Ok(page);
        }
        match inode.extents.lookup(index) {
            Some(lba) => {
                Ok(self.load_run(inode, index, lba, index)?.pop().expect("a run has a first page"))
            }
            None => Ok(PageRef::zeroed(self.layout.page_size)),
        }
    }

    /// Buffered or direct read, depending on the open flags. The caller holds
    /// the inode lock (shared).
    pub(crate) fn do_read(
        &self,
        inode: &Inode,
        of: OpenFile,
        offset: u64,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        if offset >= inode.size {
            return Ok(Vec::new());
        }
        let len = len.min((inode.size - offset) as usize);
        if len == 0 {
            // Nothing to read, and no last page for the runs below to end at.
            return Ok(Vec::new());
        }
        if of.flags.direct {
            return self.direct_read(inode, offset, len);
        }
        let page_size = self.layout.page_size as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        let last = (end - 1) / page_size;
        while pos < end {
            let index = pos / page_size;
            if let Some(page) = self.page_cache.get(inode.ino, index) {
                copy_page_span(&mut out, &page, &mut pos, end);
                continue;
            }
            match inode.extents.lookup(index) {
                // A miss pulls in every page of the request that one command
                // can cover: the rest of this extent run, up to the next
                // resident page.
                Some(lba) => {
                    for page in self.load_run(inode, index, lba, last)? {
                        copy_page_span(&mut out, &page, &mut pos, end);
                    }
                }
                None => {
                    let span = (page_size - pos % page_size).min(end - pos);
                    out.resize(out.len() + span as usize, 0);
                    pos += span;
                }
            }
        }
        Ok(out)
    }

    /// Direct (`O_DIRECT`) read: bypasses the host page cache; requests of at
    /// most 512 bytes use the byte interface, larger ones the block interface.
    fn direct_read(&self, inode: &Inode, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let page_size = self.layout.page_size as u64;
        let choice = self.config.direct_io_choice(len);
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        let last = (end - 1) / page_size;
        while pos < end {
            let index = pos / page_size;
            let span = (page_size - pos % page_size).min(end - pos);
            match (inode.extents.lookup(index), choice) {
                (Some(lba), InterfaceChoice::Byte) => {
                    let addr = lba * page_size + pos % page_size;
                    out.extend_from_slice(&self.device.try_byte_read(
                        addr,
                        span as usize,
                        Category::Data,
                    )?);
                    pos += span;
                }
                (Some(lba), InterfaceChoice::Block) => {
                    let lba_of = |i| inode.extents.lookup(i);
                    let run = read_run_len(&self.device, index, lba, last, lba_of, |_| false);
                    for page in self.device.try_block_read_pages(lba, run, Category::Data)? {
                        copy_page_span(&mut out, &page, &mut pos, end);
                    }
                }
                (None, _) => {
                    out.resize(out.len() + span as usize, 0);
                    pos += span;
                }
            }
        }
        Ok(out)
    }

    /// Buffered or direct write, depending on the open flags. The caller holds
    /// the inode lock (exclusive) and has already resolved `O_APPEND`.
    pub(crate) fn do_write(
        &self,
        inode: &mut Inode,
        of: OpenFile,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        if of.flags.direct {
            return self.direct_write(inode, offset, data);
        }
        let ino = inode.ino;
        let page_size = self.layout.page_size as u64;
        let mut pos = offset;
        let end = offset + data.len() as u64;
        while pos < end {
            let index = pos / page_size;
            let in_page = (pos % page_size) as usize;
            let span = ((page_size as usize) - in_page).min((end - pos) as usize);
            let chunk = &data[(pos - offset) as usize..(pos - offset) as usize + span];
            if in_page == 0 && span == page_size as usize {
                // Whole-page write: overwrite-or-install in one shard-lock
                // hold, so a concurrent eviction (another inode sharing the
                // shard) can never make the write land nowhere.
                self.page_cache.write_full_page(ino, index, chunk.to_vec());
            } else if !self.page_cache.write(ino, index, in_page, chunk) {
                // Partial write to a non-resident page: read-modify-write.
                // Nobody else can touch this inode's pages while we hold its
                // write lock, so the base read here cannot go stale before
                // the single-lock-hold install-and-write below.
                let base = self.page_for_read(inode, index)?;
                self.page_cache.write_with_fallback(ino, index, in_page, chunk, base);
            }
            pos += span as u64;
        }
        let now = self.now_ns();
        inode.size = inode.size.max(end);
        inode.mtime_ns = now;
        self.mark_dirty(ino);
        Ok(data.len())
    }

    /// Direct (`O_DIRECT`) write: persists immediately, choosing the interface
    /// by request size (§4.6), and commits the metadata transaction.
    fn direct_write(&self, inode: &mut Inode, offset: u64, data: &[u8]) -> FsResult<usize> {
        let ino = inode.ino;
        let page_size = self.layout.page_size as u64;
        let choice = self.config.direct_io_choice(data.len());
        let mut txn = self.begin_txn();
        let mut batch = BlockWriteBatch::default();
        let mut pos = offset;
        let end = offset + data.len() as u64;
        while pos < end {
            let index = pos / page_size;
            let in_page = (pos % page_size) as usize;
            let span = ((page_size as usize) - in_page).min((end - pos) as usize);
            let chunk = &data[(pos - offset) as usize..(pos - offset) as usize + span];
            let lba = self.ensure_block(inode, index)?;
            match choice {
                InterfaceChoice::Byte => {
                    txn.write(lba * page_size + in_page as u64, chunk, Category::Data)?;
                }
                // Whole pages join the run straight from the caller's buffer.
                InterfaceChoice::Block if span == page_size as usize => {
                    batch.push(lba, chunk);
                }
                // A partial head or tail page is a read-modify-write of its
                // own, after the pages before it.
                InterfaceChoice::Block => {
                    txn.after(batch.submit(&self.device, Category::Data)?);
                    let mut page = self.device.try_block_read(lba, 1, Category::Data)?;
                    page[in_page..in_page + span].copy_from_slice(chunk);
                    txn.after(self.device.submit_block_write_pages(
                        lba,
                        &[&page],
                        Category::Data,
                    )?);
                }
            }
            // Keep any cached copy coherent (single call: residency is
            // checked and the write applied under one shard-lock hold; a
            // non-resident page needs no update).
            self.page_cache.write(ino, index, in_page, chunk);
            pos += span as u64;
        }
        txn.after(batch.submit(&self.device, Category::Data)?);
        let now = self.now_ns();
        inode.size = inode.size.max(end);
        inode.mtime_ns = now;
        self.persist_extents(&mut txn, inode)?;
        self.persist_inode(&mut txn, inode)?;
        self.persist_bitmaps(&mut txn)?;
        self.commit_txn(txn);
        inode.disk_size = inode.size;
        self.dirty_inodes.lock().remove(&ino);
        Ok(data.len())
    }

    /// Persists the extent tree: inline extents travel with the inode; the
    /// overflow extents (if any) are written to the overflow extent block over
    /// the byte interface ([`Category::DataPointer`]).
    fn persist_extents(&self, txn: &mut Txn, inode: &mut Inode) -> FsResult<()> {
        if !inode.needs_overflow() {
            return Ok(());
        }
        let lba = match inode.overflow_lba {
            Some(lba) => lba,
            None => {
                let lba = self.alloc_block()?;
                inode.overflow_lba = Some(lba);
                inode.blocks += 1;
                lba
            }
        };
        let bytes = inode.encode_overflow().expect("needs_overflow checked");
        let addr = lba * self.layout.page_size as u64;
        txn.write(addr, &bytes, Category::DataPointer)?;
        Ok(())
    }

    /// Writes back one inode's dirty pages and metadata in a transaction
    /// (shared by `fsync`, `sync` and the dirty limit's pass). The caller
    /// holds the inode lock (exclusive).
    ///
    /// With `hold_back_eof` (the pass) a partial EOF page that has no block
    /// yet stays dirty in the cache, and the inode is committed with `size`
    /// cut back to that page's start — never below the size the device
    /// already holds — and stays metadata-dirty. A crash after the pass thus
    /// recovers a page-aligned prefix of the written bytes, never a
    /// zero-filled tail, and an append stream writes each page once.
    ///
    /// On failure — block allocation is delayed to here, so a full device
    /// shows up as `NoSpace` now, not at `write` — the pages are dirty again,
    /// each with its CoW original, and so is the inode: the next `fsync`
    /// fails too or persists every byte. Pages the device had already
    /// accepted are among them; writing them twice is harmless, while a page
    /// left clean in the cache would never be written at all.
    fn writeback_inode(&self, inode: &mut Inode, hold_back_eof: bool) -> FsResult<()> {
        let ino = inode.ino;
        let mut dirty_pages = self.page_cache.take_dirty(ino);
        let mut disk_size = inode.size;
        let held_back = if hold_back_eof { self.unallocated_eof_page(inode) } else { None };
        if let Some(eof) = held_back {
            if dirty_pages.last().is_some_and(|dp| dp.index == eof) {
                self.page_cache.restore_dirty(dirty_pages.pop());
            }
            disk_size = inode.disk_size.max(eof * self.layout.page_size as u64);
        }
        let meta_dirty = self.dirty_inodes.lock().remove(&ino);
        if dirty_pages.is_empty() && !meta_dirty {
            return Ok(());
        }
        let written = self.write_pages_and_metadata(inode, &dirty_pages, disk_size);
        match written {
            Ok(()) => inode.disk_size = disk_size,
            Err(_) => self.page_cache.restore_dirty(dirty_pages),
        }
        if written.is_err() || disk_size < inode.size {
            self.mark_dirty(ino);
        }
        written
    }

    /// The page at EOF when it is partial and has no block yet: the page a
    /// writeback pass holds back.
    fn unallocated_eof_page(&self, inode: &Inode) -> Option<u64> {
        let page_size = self.layout.page_size as u64;
        let eof = inode.size / page_size;
        (!inode.size.is_multiple_of(page_size) && inode.extents.lookup(eof).is_none())
            .then_some(eof)
    }

    /// The transaction of [`ByteFs::writeback_inode`], committing the inode
    /// with `disk_size` as its size. The data runs are *submitted*: they
    /// cross the link while the byte-choice pages and the metadata stores are
    /// issued, and the commit record is queued behind them in the device —
    /// the fsync ordering contract is data complete → `COMMIT`, nothing more.
    fn write_pages_and_metadata(
        &self,
        inode: &mut Inode,
        dirty_pages: &[DirtyPage],
        disk_size: u64,
    ) -> FsResult<()> {
        let ino = inode.ino;
        let page_size = self.layout.page_size as u64;
        let mut txn = self.begin_txn();

        // Block-choice pages at consecutive LBAs leave as one command; with
        // data journaling they are collected into the fsync's journal
        // transaction instead.
        let mut batch = BlockWriteBatch::default();
        let mut journaled = Vec::new();
        for dp in dirty_pages {
            let lba = self.ensure_block(inode, dp.index)?;
            let ratio = dp.modified_ratio(CHUNK);
            match self.config.writeback_choice(ratio) {
                InterfaceChoice::Byte => {
                    // The pending runs go first: the device sees the pages
                    // in ascending file order, as it did one command a page.
                    txn.after(batch.submit(&self.device, Category::Data)?);
                    for (off, len) in dp.dirty_ranges(CHUNK) {
                        txn.write(
                            lba * page_size + off as u64,
                            &dp.data[off..off + len],
                            Category::Data,
                        )?;
                    }
                }
                InterfaceChoice::Block if self.journal.is_some() => journaled
                    .push(JournaledBlock { lba, data: dp.data.to_vec(), category: Category::Data }),
                InterfaceChoice::Block => batch.push(lba, &dp.data),
            }
        }
        txn.after(batch.submit(&self.device, Category::Data)?);
        if let Some(journal) = &self.journal {
            // One transaction per fsync, split only where the journal area
            // cannot hold it (descriptor + data + commit must fit).
            let mut journal = self.parked(|| journal.try_lock(), || journal.lock());
            let per_txn = journal.capacity_blocks() as usize - 2;
            for blocks in journaled.chunks(per_txn) {
                journal.commit(blocks, true)?;
            }
        }
        // ensure_block may have re-marked the inode dirty after the early
        // removal; drop the flag again so it is not persisted twice.
        self.dirty_inodes.lock().remove(&ino);

        self.persist_extents(&mut txn, inode)?;
        if disk_size == inode.size {
            self.persist_inode(&mut txn, inode)?;
        } else {
            self.persist_inode(&mut txn, &Inode { size: disk_size, ..inode.clone() })?;
        }
        self.persist_bitmaps(&mut txn)?;
        self.commit_txn(txn);
        Ok(())
    }

    /// `fsync`: write back this inode's dirty pages and metadata. The caller
    /// holds the inode lock (exclusive).
    pub(crate) fn do_fsync(&self, inode: &mut Inode) -> FsResult<()> {
        self.writeback_inode(inode, false)
    }

    /// Truncates (or extends) a file, freeing blocks beyond the new size. The
    /// caller holds the inode lock (exclusive).
    pub(crate) fn do_truncate(&self, inode: &mut Inode, size: u64) -> FsResult<()> {
        if inode.is_dir() {
            return Err(FsError::IsADirectory(format!("inode {}", inode.ino)));
        }
        let ino = inode.ino;
        let page_size = self.layout.page_size as u64;
        let new_blocks = size.div_ceil(page_size);
        let now = self.now_ns();

        let shrinking = size < inode.size;
        let freed = if shrinking { inode.extents.truncate(new_blocks) } else { Vec::new() };
        inode.blocks = inode.blocks.saturating_sub(freed.len() as u64);
        inode.size = size;
        inode.mtime_ns = now;
        // Stage the frees: the cleared bitmap bits persist inside the
        // transaction below, while the TRIMs wait until after its commit —
        // a power cut at the commit step must roll the truncate back with
        // the tail data intact (see `ByteFs::discard_staged_blocks`).
        for lba in &freed {
            self.block_bitmap.free_staged(*lba);
        }
        self.page_cache.invalidate_from(ino, new_blocks);
        // Zero the tail of the last partial page so stale bytes beyond the new
        // EOF can never resurface if the file grows again later.
        let tail_off = (size % page_size) as usize;
        if shrinking && tail_off != 0 {
            let last = size / page_size;
            if inode.extents.lookup(last).is_some() || self.page_cache.contains(ino, last) {
                let base = self.page_for_read(inode, last)?;
                let zeros = vec![0u8; self.layout.page_size - tail_off];
                // Single-lock-hold install-and-write: the zeroing must stick
                // even if a concurrent insertion evicts the page in between.
                self.page_cache.write_with_fallback(ino, last, tail_off, &zeros, base);
            }
        }

        let mut txn = self.begin_txn();
        self.persist_inode(&mut txn, inode)?;
        self.persist_bitmaps(&mut txn)?;
        self.commit_txn(txn);
        inode.disk_size = size;
        self.discard_staged_blocks(&freed);
        self.dirty_inodes.lock().remove(&ino);
        Ok(())
    }

    /// Whole-file-system writeback: every dirty page and inode, taking each
    /// inode's lock in turn (ascending inode order — no two inode locks are
    /// ever held together). `sync` and `unmount` write everything; the dirty
    /// limit's pass sets `hold_back_eof` (see [`ByteFs::writeback_inode`]).
    pub(crate) fn do_sync(&self, hold_back_eof: bool) -> FsResult<()> {
        let mut inos = self.page_cache.dirty_inodes();
        inos.extend(self.dirty_inodes.lock().iter().copied());
        for ino in inos {
            // Load through the inode table: a live inode whose handle was
            // evicted (drop_caches) but whose dirty pages survived must be
            // re-read from the device, not have its pages discarded.
            let handle = match self.inode_handle(ino) {
                Ok(handle) => handle,
                Err(FsError::NotFound(_)) => {
                    // Truly unlinked: nothing durable remains to write back.
                    self.page_cache.invalidate_inode(ino);
                    self.dirty_inodes.lock().remove(&ino);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let mut inode = self.write_parked(&handle);
            if inode.is_unlinked() {
                continue;
            }
            self.writeback_inode(&mut inode, hold_back_eof)?;
        }
        Ok(())
    }

    /// The dirty limit, Linux's `balance_dirty_pages`: a buffered `write`
    /// calls this once it has released its inode lock. When more than
    /// [`ByteFs::dirty_limit`] pages are dirty on top of `pass_floor`, it
    /// runs a writeback pass — [`ByteFs::do_sync`] holding back unallocated
    /// EOF pages — on the writer's clock, waited for like an `fsync`. The
    /// written pages turn clean and evictable.
    ///
    /// A pass that cannot bring the count under the limit (it failed, say
    /// with `NoSpace` at delayed allocation, or held back more EOF pages than
    /// the limit) sets `pass_floor` to what it left, so the next one waits
    /// for another limit's worth of pages. The write itself never fails for
    /// the pass: the pages are dirty again, and each file's `fsync` retries
    /// them and reports the error.
    pub(crate) fn balance_dirty_pages(&self) {
        let dirty = self.page_cache.dirty_count();
        let floor = self.pass_floor.load(Ordering::Relaxed);
        if dirty < floor {
            self.pass_floor.store(dirty, Ordering::Relaxed);
        }
        if dirty <= floor + self.dirty_limit {
            return;
        }
        self.passes.fetch_add(1, Ordering::Relaxed);
        // A failure stays with the pages, dirty again for their fsync.
        let _ = self.do_sync(true);
        let left = self.page_cache.dirty_count();
        self.pass_floor.store(if left > self.dirty_limit { left } else { 0 }, Ordering::Relaxed);
    }
}
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, FileSystemExt, FsError, OpenFlags};
    use mssd::stats::Direction;
    use mssd::{Category, DramMode, Interface, Mssd, MssdConfig};

    use crate::policy::ByteFsConfig;
    use crate::ByteFs;

    fn new_fs() -> (Arc<Mssd>, Arc<ByteFs>) {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
        (dev, fs)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (_dev, fs) = new_fs();
        let fd = fs.create("/a.txt").unwrap();
        assert_eq!(fs.write(fd, 0, b"hello world").unwrap(), 11);
        assert_eq!(fs.read(fd, 0, 11).unwrap(), b"hello world");
        assert_eq!(fs.read(fd, 6, 100).unwrap(), b"world");
        assert_eq!(fs.read(fd, 100, 10).unwrap(), b"");
        // A zero-length read inside the file is empty too, buffered or direct.
        assert_eq!(fs.read(fd, 0, 0).unwrap(), b"");
        fs.fsync(fd).unwrap();
        assert_eq!(fs.stat("/a.txt").unwrap().size, 11);
        let direct = fs.open("/a.txt", OpenFlags::read_write().with_direct()).unwrap();
        assert_eq!(fs.read(direct, 0, 0).unwrap(), b"");
        fs.close(direct).unwrap();
        fs.close(fd).unwrap();
        assert!(matches!(fs.read(fd, 0, 1), Err(FsError::BadDescriptor(_))));
    }

    #[test]
    fn large_file_spans_many_pages() {
        let (_dev, fs) = new_fs();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big.bin", &data).unwrap();
        assert_eq!(fs.read_file("/big.bin").unwrap(), data);
        let meta = fs.stat("/big.bin").unwrap();
        assert_eq!(meta.size, 40_000);
        assert!(meta.blocks >= 10);
    }

    #[test]
    fn overwrite_in_the_middle_of_a_file() {
        let (_dev, fs) = new_fs();
        fs.write_file("/f", &vec![1u8; 10_000]).unwrap();
        let fd = fs.open("/f", OpenFlags::read_write()).unwrap();
        fs.write(fd, 5_000, &[9u8; 100]).unwrap();
        fs.fsync(fd).unwrap();
        let back = fs.read_file("/f").unwrap();
        assert_eq!(back.len(), 10_000);
        assert_eq!(&back[4_999..5_001], &[1, 9]);
        assert_eq!(&back[5_000..5_100], &[9u8; 100][..]);
        assert_eq!(back[5_100], 1);
    }

    #[test]
    fn directories_and_lookup() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/dir").unwrap();
        fs.mkdir("/dir/sub").unwrap();
        fs.write_file("/dir/sub/f", b"x").unwrap();
        assert!(fs.exists("/dir/sub/f"));
        assert!(fs.stat("/dir").unwrap().is_dir());
        let entries = fs.readdir("/dir").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "sub");
        assert!(matches!(fs.mkdir("/dir"), Err(FsError::AlreadyExists(_))));
        assert!(matches!(fs.mkdir("/missing/sub"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.rmdir("/dir"), Err(FsError::DirectoryNotEmpty(_))));
        fs.unlink("/dir/sub/f").unwrap();
        fs.rmdir("/dir/sub").unwrap();
        fs.rmdir("/dir").unwrap();
        assert!(!fs.exists("/dir"));
    }

    #[test]
    fn unlink_frees_blocks_for_reuse() {
        let (_dev, fs) = new_fs();
        // Ensure the root directory already has its dentry block allocated so
        // the before/after comparison only sees the file's own blocks.
        fs.write_file("/keeper", b"k").unwrap();
        let before = fs.allocated_blocks();
        fs.write_file("/victim", &vec![7u8; 20_000]).unwrap();
        fs.unlink("/victim").unwrap();
        assert!(!fs.exists("/victim"));
        let after = fs.allocated_blocks();
        assert_eq!(before, after, "all blocks of the unlinked file are freed");
    }

    #[test]
    fn rename_moves_entries_between_directories() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        fs.write_file("/a/f", b"payload").unwrap();
        fs.rename("/a/f", "/b/g").unwrap();
        assert!(!fs.exists("/a/f"));
        assert_eq!(fs.read_file("/b/g").unwrap(), b"payload");
        assert!(matches!(fs.rename("/a/f", "/b/h"), Err(FsError::NotFound(_))));
        fs.write_file("/a/f2", b"x").unwrap();
        assert!(matches!(fs.rename("/a/f2", "/b/g"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let (_dev, fs) = new_fs();
        fs.write_file("/t", &vec![5u8; 9_000]).unwrap();
        let fd = fs.open("/t", OpenFlags::read_write()).unwrap();
        fs.truncate(fd, 4_000).unwrap();
        assert_eq!(fs.fstat(fd).unwrap().size, 4_000);
        assert_eq!(fs.read(fd, 0, 10_000).unwrap().len(), 4_000);
        fs.truncate(fd, 8_192).unwrap();
        let data = fs.read(fd, 0, 10_000).unwrap();
        assert_eq!(data.len(), 8_192);
        assert_eq!(&data[..4_000], &vec![5u8; 4_000][..]);
        assert!(data[4_096..].iter().all(|b| *b == 0), "extended region reads as zeros");
    }

    #[test]
    fn truncate_tail_zeroing_survives_drop_caches_and_sync() {
        // Regression test: after a shrinking truncate the zeroed tail page
        // sits dirty in the page cache while the inode is no longer in the
        // dirty-metadata set. Dropping caches and syncing must write that
        // page back — not orphan or discard it — or the stale pre-truncate
        // bytes resurface from the device block when the file grows again.
        let (_dev, fs) = new_fs();
        fs.write_file("/t", &vec![5u8; 9_000]).unwrap();
        let fd = fs.open("/t", OpenFlags::read_write()).unwrap();
        fs.truncate(fd, 4_000).unwrap();
        fs.close(fd).unwrap();
        fs.drop_caches();
        fs.sync().unwrap();
        let fd = fs.open("/t", OpenFlags::read_write()).unwrap();
        fs.truncate(fd, 8_192).unwrap();
        fs.drop_caches(); // force the next read to come from the device
        let data = fs.read(fd, 0, 10_000).unwrap();
        assert_eq!(data.len(), 8_192);
        assert!(
            data[4_000..4_096].iter().all(|b| *b == 0),
            "stale pre-truncate bytes resurfaced past the old EOF"
        );
    }

    #[test]
    fn append_flag_appends() {
        let (_dev, fs) = new_fs();
        fs.write_file("/log", b"first|").unwrap();
        let fd = fs.open("/log", OpenFlags::read_write().with_append()).unwrap();
        fs.write(fd, 0, b"second").unwrap();
        fs.fsync(fd).unwrap();
        assert_eq!(fs.read_file("/log").unwrap(), b"first|second");
    }

    #[test]
    fn small_fsync_uses_byte_interface_for_data() {
        let (dev, fs) = new_fs();
        fs.write_file("/warm", &vec![3u8; 8_192]).unwrap();
        let before = dev.traffic();
        // Dirty a single cacheline and fsync: modified ratio 1/64 < 1/8.
        let fd = fs.open("/warm", OpenFlags::read_write()).unwrap();
        fs.write(fd, 128, &[9u8; 64]).unwrap();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        let byte_data = delta.host_bytes_by_interface(Direction::Write, Interface::Byte);
        let block_data = delta.host_bytes_by_category(Direction::Write, Category::Data);
        assert!(byte_data > 0, "byte interface should carry the small update");
        assert!(block_data < 4096, "no full-page data write for a 64 B update");
    }

    #[test]
    fn heavily_modified_page_uses_block_interface() {
        let (dev, fs) = new_fs();
        fs.write_file("/cold", &vec![1u8; 4_096]).unwrap();
        let before = dev.traffic();
        let fd = fs.open("/cold", OpenFlags::read_write()).unwrap();
        fs.write(fd, 0, &vec![2u8; 4_096]).unwrap();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        let block_data = delta.host_bytes_by_interface(Direction::Write, Interface::Block);
        assert!(block_data >= 4_096, "fully rewritten page goes through the block interface");
    }

    #[test]
    fn direct_io_small_writes_use_byte_interface() {
        let (dev, fs) = new_fs();
        let fd = fs.open("/direct", OpenFlags::create_rw().with_direct()).unwrap();
        let before = dev.traffic();
        fs.write(fd, 0, &[7u8; 256]).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(
            delta.host_bytes_by_category(Direction::Write, Category::Data),
            256,
            "direct small write is persisted byte-granularly"
        );
        assert_eq!(fs.read(fd, 0, 256).unwrap(), vec![7u8; 256]);

        // A large direct write goes through the block interface.
        let before = dev.traffic();
        fs.write(fd, 4096, &vec![8u8; 8_192]).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert!(
            delta.host_bytes_by_interface(Direction::Write, Interface::Block) >= 8_192,
            "large direct write uses block interface"
        );
        assert_eq!(fs.read(fd, 4096, 8_192).unwrap(), vec![8u8; 8_192]);
    }

    #[test]
    fn metadata_updates_travel_over_the_byte_interface() {
        let (dev, fs) = new_fs();
        let before = dev.traffic();
        fs.write_file("/meta_probe", b"z").unwrap();
        let delta = dev.traffic().delta_since(&before);
        for cat in [Category::Inode, Category::Dentry, Category::Bitmap] {
            let byte = delta.host_bytes_by_category(Direction::Write, cat);
            assert!(byte > 0, "{cat} should have byte-interface write traffic");
        }
        // No metadata category should have written a whole 4 KB block.
        let block_meta: u64 = [Category::Inode, Category::Dentry, Category::Bitmap]
            .iter()
            .map(|c| delta.host_bytes_by_category(Direction::Write, *c))
            .sum();
        assert!(block_meta < 4096, "metadata writes stay byte-granular, got {block_meta}");
    }

    #[test]
    fn data_survives_unmount_and_remount() {
        let (dev, fs) = new_fs();
        fs.mkdir("/persist").unwrap();
        fs.write_file("/persist/file", &vec![0xABu8; 10_000]).unwrap();
        fs.unmount().unwrap();
        drop(fs);

        let fs2 = ByteFs::mount(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
        assert_eq!(fs2.read_file("/persist/file").unwrap(), vec![0xABu8; 10_000]);
        let meta = fs2.stat("/persist/file").unwrap();
        assert_eq!(meta.size, 10_000);
        assert!(fs2.stat("/persist").unwrap().is_dir());
    }

    #[test]
    fn committed_operations_survive_a_crash() {
        let (dev, fs) = new_fs();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/durable", &vec![0x55u8; 5_000]).unwrap();
        // A buffered write that is *not* fsynced may be lost.
        let fd = fs.open("/d/durable", OpenFlags::read_write()).unwrap();
        fs.write(fd, 0, &[0xFFu8; 64]).unwrap();
        // Crash without unmounting: host state vanishes, device survives.
        drop(fs);
        dev.crash();

        let fs2 = ByteFs::mount(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
        let data = fs2.read_file("/d/durable").unwrap();
        assert_eq!(data.len(), 5_000);
        assert_eq!(&data[64..], &vec![0x55u8; 5_000 - 64][..]);
        assert!(fs2.exists("/d"));
    }

    #[test]
    fn ablation_variants_mount_and_work() {
        for (config, mode) in [
            (ByteFsConfig::dual_only(), DramMode::PageCache),
            (ByteFsConfig::dual_plus_log(), DramMode::WriteLog),
            (ByteFsConfig::full(), DramMode::WriteLog),
        ] {
            let dev = Mssd::new(MssdConfig::small_test(), mode);
            let fs = ByteFs::format(Arc::clone(&dev), config.clone()).unwrap();
            fs.mkdir("/w").unwrap();
            fs.write_file("/w/f", &vec![1u8; 6_000]).unwrap();
            assert_eq!(fs.read_file("/w/f").unwrap().len(), 6_000);
            fs.unlink("/w/f").unwrap();
            fs.unmount().unwrap();
        }
        // Config/device mismatch is rejected.
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        assert!(ByteFs::format(dev, ByteFsConfig::full()).is_err());
    }

    #[test]
    fn data_journaling_mode_journals_block_writebacks() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let fs =
            ByteFs::format(Arc::clone(&dev), ByteFsConfig::full().with_data_journaling()).unwrap();
        let before = dev.traffic();
        fs.write_file("/j", &vec![9u8; 4_096]).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert!(
            delta.host_bytes_by_category(Direction::Write, Category::Journal) >= 3 * 4_096,
            "data journaling writes descriptor + data + commit blocks"
        );
    }

    /// Test payload with no two equal pages and no all-zero cacheline, so
    /// every page is written whole (R = 1) and a misplaced page shows.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i % 251) as u8).wrapping_add(salt.wrapping_mul(17)) ^ (i / 4096) as u8 | 1)
            .collect()
    }

    /// Block-interface commands the device saw while `f` ran.
    fn block_requests(dev: &Mssd, f: impl FnOnce()) -> u64 {
        let before = dev.traffic();
        f();
        dev.traffic().delta_since(&before).block_requests
    }

    #[test]
    fn cold_sequential_read_is_one_command_with_channel_parallel_nand() {
        let cfg = MssdConfig { channels: 8, ..MssdConfig::small_test() };
        let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
        let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
        let data = pattern(64 << 10, 0);
        fs.write_file("/seq", &data).unwrap();
        dev.try_flush().unwrap(); // program the pages, so the cold read really reaches NAND
        fs.drop_caches();
        let fd = fs.open("/seq", OpenFlags::read_only()).unwrap();
        let before = (dev.traffic(), dev.clock().now_ns());
        assert_eq!(fs.read(fd, 0, 64 << 10).unwrap(), data);
        let delta = dev.traffic().delta_since(&before.0);
        assert_eq!(delta.block_requests, 1, "one extent, one command");
        assert_eq!(delta.flash_read_pages, 16);
        assert_eq!(delta.host_bytes_by_interface(Direction::Read, Interface::Block), 64 << 10);
        // 16 NAND reads over 8 channels are charged as 2 rounds, not 16.
        assert_eq!(
            dev.clock().now_ns() - before.1,
            cfg.nvme_overhead_ns + cfg.transfer_ns(64 << 10, true) + 2 * cfg.flash_read_ns
        );
        // Warm: no command at all.
        assert_eq!(block_requests(&dev, || assert_eq!(fs.read(fd, 0, 64 << 10).unwrap(), data)), 0);
    }

    #[test]
    fn a_run_ends_at_the_coalescing_bound() {
        let (dev, fs) = new_fs();
        let data = pattern(20 * 4096, 1);
        fs.write_file("/long", &data).unwrap();
        fs.drop_caches();
        let fd = fs.open("/long", OpenFlags::read_only()).unwrap();
        let n = block_requests(&dev, || assert_eq!(fs.read(fd, 0, 20 * 4096).unwrap(), data));
        assert_eq!(n, 2, "20 contiguous pages = a 16-page command and a 4-page one");
    }

    #[test]
    fn small_create_and_fsync_is_one_block_write() {
        let (dev, fs) = new_fs();
        let fd = fs.create("/mail").unwrap();
        let before = dev.traffic();
        fs.write(fd, 0, &pattern(8192, 2)).unwrap();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.block_requests, 1, "two new pages at consecutive LBAs: one command");
        assert_eq!(delta.host_bytes_by_interface(Direction::Write, Interface::Block), 8192);
    }

    #[test]
    fn interleaved_allocation_costs_one_command_per_extent_run() {
        let (dev, fs) = new_fs();
        let a = fs.create("/a").unwrap();
        let b = fs.create("/b").unwrap();
        let (da, db) = (pattern(8 * 4096, 3), pattern(8 * 4096, 4));
        // Blocks are allocated at fsync: alternating two-page appends leave
        // each file as four two-page extents.
        for chunk in 0..4 {
            let range = chunk * 8192..(chunk + 1) * 8192;
            fs.write(a, range.start as u64, &da[range.clone()]).unwrap();
            fs.fsync(a).unwrap();
            fs.write(b, range.start as u64, &db[range]).unwrap();
            fs.fsync(b).unwrap();
        }
        fs.drop_caches();
        let n = block_requests(&dev, || assert_eq!(fs.read(a, 0, 8 * 4096).unwrap(), da));
        assert_eq!(n, 4, "one command per extent run, not per page and not per file");
        assert_eq!(fs.read(b, 0, 8 * 4096).unwrap(), db);
    }

    #[test]
    fn a_resident_page_or_a_hole_splits_the_read_run() {
        let (dev, fs) = new_fs();
        let data = pattern(8 * 4096, 5);
        fs.write_file("/f", &data).unwrap();
        fs.drop_caches();
        let fd = fs.open("/f", OpenFlags::read_write()).unwrap();
        assert_eq!(block_requests(&dev, || drop(fs.read(fd, 3 * 4096, 100).unwrap())), 1);
        let before = dev.traffic();
        assert_eq!(fs.read(fd, 0, 8 * 4096).unwrap(), data);
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.block_requests, 2, "pages 0-2 and 4-7; page 3 is a cache hit");
        assert_eq!(delta.host_bytes_by_interface(Direction::Read, Interface::Block), 7 * 4096);

        // Pages 0-1 and 3-4 are written, page 2 never is: the four blocks are
        // consecutive on the device but not in the file.
        let sparse = fs.create("/sparse").unwrap();
        fs.write(sparse, 0, &data[..8192]).unwrap();
        fs.write(sparse, 3 * 4096, &data[8192..16384]).unwrap();
        fs.fsync(sparse).unwrap();
        fs.drop_caches();
        let before = dev.traffic();
        let back = fs.read(sparse, 0, 5 * 4096).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.block_requests, 2, "the hole ends the first run");
        assert_eq!(delta.host_bytes_by_interface(Direction::Read, Interface::Block), 4 * 4096);
        assert_eq!(&back[..8192], &data[..8192]);
        assert!(back[8192..3 * 4096].iter().all(|b| *b == 0), "the hole reads as zeros");
        assert_eq!(&back[3 * 4096..], &data[8192..16384]);
    }

    #[test]
    fn a_byte_choice_page_splits_the_writeback_run_and_keeps_the_order() {
        let (dev, fs) = new_fs();
        fs.write_file("/f", &pattern(4 * 4096, 6)).unwrap();
        let fd = fs.open("/f", OpenFlags::read_write()).unwrap();
        // Pages 0, 2, 3 are rewritten whole (block interface); page 1 gets
        // one cacheline (byte interface), between the two runs.
        let fresh = pattern(4 * 4096, 7);
        fs.write(fd, 0, &fresh[..4096]).unwrap();
        fs.write(fd, 4096 + 640, &fresh[4096 + 640..4096 + 704]).unwrap();
        fs.write(fd, 8192, &fresh[8192..]).unwrap();
        let before = dev.traffic();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.block_requests, 2, "page 0 alone, then pages 2-3 together");
        assert_eq!(delta.host_bytes_by_interface(Direction::Write, Interface::Block), 3 * 4096);
        fs.drop_caches();
        let back = fs.read(fd, 0, 4 * 4096).unwrap();
        assert_eq!(&back[..4096], &fresh[..4096]);
        assert_eq!(&back[4096 + 640..4096 + 704], &fresh[4096 + 640..4096 + 704]);
        assert_eq!(&back[8192..], &fresh[8192..]);
    }

    #[test]
    fn direct_block_io_moves_whole_pages_by_the_run() {
        let (dev, fs) = new_fs();
        let fd = fs.open("/direct", OpenFlags::create_rw().with_direct()).unwrap();
        let data = pattern(6 * 4096, 8);
        // Aligned: six whole pages, one command, no read-modify-write.
        let before = dev.traffic();
        fs.write(fd, 0, &data).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.block_requests, 1);
        assert_eq!(delta.host_bytes_by_interface(Direction::Read, Interface::Block), 0);
        assert_eq!(block_requests(&dev, || assert_eq!(fs.read(fd, 0, 6 * 4096).unwrap(), data)), 1);
        // Unaligned: partial head and tail are each read, patched and
        // written on their own; the two whole pages between them share one
        // command.
        let patch = pattern(3 * 4096, 9);
        let before = dev.traffic();
        fs.write(fd, 4096 + 2048, &patch).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.block_requests, 2 + 1 + 2);
        assert_eq!(delta.host_bytes_by_interface(Direction::Read, Interface::Block), 2 * 4096);
        assert_eq!(delta.host_bytes_by_interface(Direction::Write, Interface::Block), 4 * 4096);
        let mut want = data.clone();
        want[4096 + 2048..4 * 4096 + 2048].copy_from_slice(&patch);
        assert_eq!(fs.read(fd, 0, 6 * 4096).unwrap(), want);
    }

    #[test]
    fn data_journaling_commits_an_fsync_as_one_transaction() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let fs =
            ByteFs::format(Arc::clone(&dev), ByteFsConfig::full().with_data_journaling()).unwrap();
        let cap = fs.journal.as_ref().unwrap().lock().capacity_blocks() as usize - 2;
        let data = pattern(16 * 4096, 10);
        let fd = fs.create("/j16").unwrap();
        fs.write(fd, 0, &data).unwrap();
        let before = dev.traffic();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        let txns = 16usize.div_ceil(cap);
        assert_eq!(
            delta.host_bytes_by_category(Direction::Write, Category::Journal),
            ((16 + 2 * txns) * 4096) as u64,
            "descriptor + commit once per transaction, not once per page"
        );
        assert_eq!(fs.journal.as_ref().unwrap().lock().stats().transactions, txns as u64);
        // The checkpoint put every page in place: a power cut right after the
        // fsync returns loses none of them.
        drop(fs);
        dev.crash();
        let fs =
            ByteFs::mount(Arc::clone(&dev), ByteFsConfig::full().with_data_journaling()).unwrap();
        assert_eq!(fs.read_file("/j16").unwrap(), data);
    }

    #[test]
    fn many_small_files_in_one_directory() {
        let (_dev, fs) = new_fs();
        fs.mkdir("/mail").unwrap();
        for i in 0..150 {
            fs.write_file(&format!("/mail/msg{i}"), format!("body {i}").as_bytes()).unwrap();
        }
        assert_eq!(fs.readdir("/mail").unwrap().len(), 150);
        for i in (0..150).step_by(7) {
            assert_eq!(
                fs.read_file(&format!("/mail/msg{i}")).unwrap(),
                format!("body {i}").as_bytes()
            );
        }
        for i in 0..150 {
            fs.unlink(&format!("/mail/msg{i}")).unwrap();
        }
        assert!(fs.readdir("/mail").unwrap().is_empty());
    }

    #[test]
    fn fsync_without_changes_is_cheap() {
        let (dev, fs) = new_fs();
        fs.write_file("/idle", b"x").unwrap();
        let fd = fs.open("/idle", OpenFlags::read_write()).unwrap();
        let before = dev.traffic();
        fs.fsync(fd).unwrap();
        let delta = dev.traffic().delta_since(&before);
        assert_eq!(delta.host_write_bytes(), 0, "clean fsync issues no writes");
    }
}
