//! The host page cache, with copy-on-write duplicate pages and XOR-based
//! dirty-chunk detection.
//!
//! §4.6 of the paper: in buffered I/O mode ByteFS tracks, per cached page, a
//! duplicate copy taken the first time the page is modified (copy-on-write).
//! On writeback it XORs the original and current contents to find the modified
//! 64-byte chunks and computes the modified ratio `R = N_modified / N_total`;
//! if `R < 1/8` the dirty chunks are persisted over the byte interface,
//! otherwise the whole page goes through the block interface.
//!
//! The same [`PageCache`] type (with CoW tracking disabled) serves as the
//! ordinary host page cache of the block-based baseline file systems.
//!
//! Page data is stored `Arc`-backed and handed out as [`PageRef`] handles:
//! [`PageCache::get`] is a reference-count bump, not a 4 KB memcpy, and the
//! first dirty write to a page that still has outstanding readers (or a CoW
//! original) copies the buffer exactly once (`Arc::make_mut`). Read-dominated
//! paths through the file systems are therefore zero-copy end to end.

use std::collections::{BTreeSet, HashMap};
use std::ops::Deref;
use std::sync::Arc;

use parking_lot::Mutex;

/// Key of a cached page: `(inode number, page index within the file)`.
pub type PageKey = (u64, u64);

/// A cheap, immutable handle to one cached page's bytes.
///
/// Cloning a `PageRef` (and fetching one from [`PageCache::get`]) only bumps a
/// reference count. The underlying buffer is copied lazily, the first time the
/// cache must mutate a page that is still shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRef(Arc<Vec<u8>>);

impl PageRef {
    /// Wraps an owned buffer.
    pub fn new(data: Vec<u8>) -> Self {
        Self(Arc::new(data))
    }

    /// An all-zero page of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::new(vec![0u8; len])
    }

    /// Length of the page in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the page is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copies the bytes out into an owned vector (the only copying API —
    /// everything else borrows).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.as_ref().clone()
    }

    /// `true` when both handles share the same underlying buffer (used by
    /// tests to assert zero-copy behaviour).
    pub fn ptr_eq(a: &PageRef, b: &PageRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    fn into_arc(self) -> Arc<Vec<u8>> {
        self.0
    }
}

impl Deref for PageRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl AsRef<[u8]> for PageRef {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for PageRef {
    fn from(data: Vec<u8>) -> Self {
        Self::new(data)
    }
}

/// A contiguous modified byte range within a page, aligned to chunk
/// boundaries: `(offset, length)`.
pub type DirtyRange = (usize, usize);

/// A dirty page handed to the file system for writeback. Both buffers are
/// shared handles into the cache — taking dirty pages copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyPage {
    /// Owning inode.
    pub inode: u64,
    /// Page index within the file.
    pub index: u64,
    /// Current contents.
    pub data: PageRef,
    /// Contents when the page was first modified (present only when CoW
    /// tracking is enabled), used for XOR dirty-chunk detection.
    pub original: Option<PageRef>,
}

impl DirtyPage {
    /// Modified chunk ranges of this page (64-byte aligned). When no original
    /// copy exists the whole page is considered modified.
    pub fn dirty_ranges(&self, chunk: usize) -> Vec<DirtyRange> {
        match &self.original {
            Some(orig) => dirty_chunks(orig, &self.data, chunk),
            None => vec![(0, self.data.len())],
        }
    }

    /// Modified ratio `R` of this page (1.0 when no original copy exists).
    pub fn modified_ratio(&self, chunk: usize) -> f64 {
        match &self.original {
            Some(orig) => modified_ratio(orig, &self.data, chunk),
            None => 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct CachedPage {
    data: Arc<Vec<u8>>,
    dirty: bool,
    original: Option<Arc<Vec<u8>>>,
    last_use: u64,
}

/// An LRU host page cache keyed by `(inode, page index)`.
#[derive(Debug)]
pub struct PageCache {
    page_size: usize,
    capacity_pages: usize,
    track_cow: bool,
    pages: HashMap<PageKey, CachedPage>,
    tick: u64,
}

impl PageCache {
    /// Creates a page cache holding at most `capacity_pages` pages of
    /// `page_size` bytes. `track_cow` enables the ByteFS duplicate-page
    /// mechanism.
    pub fn new(capacity_pages: usize, page_size: usize, track_cow: bool) -> Self {
        Self {
            page_size,
            capacity_pages: capacity_pages.max(1),
            track_cow,
            pages: HashMap::new(),
            tick: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of resident dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.pages.values().filter(|p| p.dirty).count()
    }

    /// Bytes used by duplicate (CoW) pages, for the §4.6 memory-overhead
    /// accounting.
    pub fn cow_bytes(&self) -> usize {
        self.pages.values().filter(|p| p.original.is_some()).count() * self.page_size
    }

    /// Whether a page is resident.
    pub fn contains(&self, inode: u64, index: u64) -> bool {
        self.pages.contains_key(&(inode, index))
    }

    fn touch(&mut self, key: PageKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(p) = self.pages.get_mut(&key) {
            p.last_use = tick;
        }
    }

    /// Returns a zero-copy handle to a resident page (a reference-count bump,
    /// not a 4 KB copy).
    pub fn get(&mut self, inode: u64, index: u64) -> Option<PageRef> {
        let key = (inode, index);
        if self.pages.contains_key(&key) {
            self.touch(key);
            Some(PageRef(Arc::clone(&self.pages[&key].data)))
        } else {
            None
        }
    }

    /// Inserts a page read from the device (clean). Evicts clean LRU pages if
    /// the cache is over capacity; dirty pages are never evicted implicitly.
    pub fn insert_clean(&mut self, inode: u64, index: u64, data: impl Into<PageRef>) {
        let data = data.into().into_arc();
        debug_assert_eq!(data.len(), self.page_size);
        self.tick += 1;
        let entry = CachedPage { data, dirty: false, original: None, last_use: self.tick };
        match self.pages.get_mut(&(inode, index)) {
            Some(existing) if existing.dirty => {
                // Never clobber a dirty page with stale device contents.
            }
            Some(existing) => *existing = entry,
            None => {
                self.pages.insert((inode, index), entry);
                self.evict_clean();
            }
        }
    }

    /// Applies a write to a resident page, marking it dirty and (if enabled)
    /// capturing the CoW original on the first modification. Returns `false`
    /// when the page is not resident — the caller must load it first.
    ///
    /// The buffer is physically copied only when it is still shared (with
    /// outstanding [`PageRef`]s or with the CoW original) — copy-on-write on
    /// the first dirty write, in-place mutation afterwards.
    pub fn write(&mut self, inode: u64, index: u64, offset: usize, bytes: &[u8]) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let track_cow = self.track_cow;
        match self.pages.get_mut(&(inode, index)) {
            Some(p) => {
                debug_assert!(offset + bytes.len() <= self.page_size);
                if track_cow && !p.dirty && p.original.is_none() {
                    // Capturing the original is free: it shares the buffer,
                    // and the make_mut below unshares the writable copy.
                    p.original = Some(Arc::clone(&p.data));
                }
                let buf = Arc::make_mut(&mut p.data);
                buf[offset..offset + bytes.len()].copy_from_slice(bytes);
                p.dirty = true;
                p.last_use = tick;
                true
            }
            None => false,
        }
    }

    /// Applies a partial write to a page that may not be resident: when it is
    /// absent, `base` (the page's pre-write contents, read by the caller) is
    /// installed first. The write lands before anything is evicted, so a
    /// cache whose other pages are all dirty cannot evict the freshly
    /// installed base — its only clean page — from under the write.
    pub fn write_with_fallback(
        &mut self,
        inode: u64,
        index: u64,
        offset: usize,
        bytes: &[u8],
        base: PageRef,
    ) {
        if !self.write(inode, index, offset, bytes) {
            self.install_and_write(inode, index, offset, bytes, base);
        }
    }

    /// The miss half of [`PageCache::write_with_fallback`], out of line: with
    /// it inlined next to the hit path `oltp_sync` ran 9 % slower on the host
    /// (ten of ten alternating pairs) although it is never taken there.
    #[cold]
    #[inline(never)]
    fn install_and_write(
        &mut self,
        inode: u64,
        index: u64,
        offset: usize,
        bytes: &[u8],
        base: PageRef,
    ) {
        debug_assert_eq!(base.len(), self.page_size);
        self.tick += 1;
        let entry =
            CachedPage { data: base.into_arc(), dirty: false, original: None, last_use: self.tick };
        self.pages.insert((inode, index), entry);
        let applied = self.write(inode, index, offset, bytes);
        debug_assert!(applied, "freshly installed page accepts the write");
        self.evict_clean();
    }

    /// Inserts a brand-new page that has no backing content on the device yet
    /// (file extension); it starts dirty with a zero original.
    pub fn insert_new_dirty(&mut self, inode: u64, index: u64, data: impl Into<PageRef>) {
        let data = data.into().into_arc();
        debug_assert_eq!(data.len(), self.page_size);
        self.tick += 1;
        let original =
            if self.track_cow { Some(Arc::new(vec![0u8; self.page_size])) } else { None };
        self.pages.insert(
            (inode, index),
            CachedPage { data, dirty: true, original, last_use: self.tick },
        );
        self.evict_clean();
    }

    /// Removes the dirty state of one inode's pages and returns them for
    /// writeback, in ascending page order. The pages stay resident (clean).
    pub fn take_dirty(&mut self, inode: u64) -> Vec<DirtyPage> {
        let mut out: Vec<DirtyPage> = self
            .pages
            .iter_mut()
            .filter(|((ino, _), p)| *ino == inode && p.dirty)
            .map(|(&(inode, index), p)| {
                p.dirty = false;
                DirtyPage {
                    inode,
                    index,
                    data: PageRef(Arc::clone(&p.data)),
                    original: p.original.take().map(PageRef),
                }
            })
            .collect();
        out.sort_unstable_by_key(|dp| dp.index);
        out
    }

    /// Undoes [`PageCache::take_dirty`] for pages whose writeback failed:
    /// each is dirty again with the contents and the CoW original it was
    /// taken with, and re-installed if it was evicted meanwhile (a taken page
    /// is clean, so evictable). A page that is dirty already was written
    /// after it was taken and keeps its newer state.
    pub fn restore_dirty(&mut self, pages: impl IntoIterator<Item = DirtyPage>) {
        for dp in pages {
            let key = (dp.inode, dp.index);
            if self.pages.get(&key).is_some_and(|p| p.dirty) {
                continue;
            }
            self.tick += 1;
            let entry = CachedPage {
                data: dp.data.into_arc(),
                dirty: true,
                original: dp.original.map(PageRef::into_arc),
                last_use: self.tick,
            };
            self.pages.insert(key, entry);
        }
    }

    /// Inodes that currently own at least one dirty page (used by `sync` to
    /// decide which inodes need writeback).
    pub fn dirty_inodes(&self) -> BTreeSet<u64> {
        self.pages.iter().filter(|(_, p)| p.dirty).map(|((ino, _), _)| *ino).collect()
    }

    /// Drops every page (dirty or clean) belonging to an inode (unlink,
    /// truncate).
    pub fn invalidate_inode(&mut self, inode: u64) {
        self.pages.retain(|(ino, _), _| *ino != inode);
    }

    /// Drops pages of `inode` with index >= `from_index` (truncate).
    pub fn invalidate_from(&mut self, inode: u64, from_index: u64) {
        self.pages.retain(|(ino, idx), _| *ino != inode || *idx < from_index);
    }

    /// Drops everything (unmount / simulated host crash).
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Drops every clean page and keeps every dirty one (`drop_caches`
    /// semantics: clean state may be discarded, dirty state must survive).
    pub fn clear_clean(&mut self) {
        self.pages.retain(|_, p| p.dirty);
    }

    fn evict_clean(&mut self) {
        while self.pages.len() > self.capacity_pages {
            let victim = self
                .pages
                .iter()
                .filter(|(_, p)| !p.dirty)
                .min_by_key(|(_, p)| p.last_use)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.pages.remove(&k);
                }
                None => break, // everything is dirty; allow temporary overshoot
            }
        }
    }
}

/// A lock-striped page cache for concurrent file systems.
///
/// Pages are distributed over independently locked [`PageCache`] shards keyed
/// by a `(inode, page index)` hash, so data-path operations on different
/// files — and on different pages of one large file — proceed in parallel
/// while all per-page semantics (CoW originals, dirty tracking) stay exactly
/// those of the underlying `PageCache`. All methods take `&self`; a shard's
/// mutex is held only for the duration of one call.
///
/// Hashing by page (not by inode) also means a single hot file can use the
/// whole configured capacity rather than `1/shards` of it; the LRU becomes
/// per-shard (approximate global LRU), and per-inode operations
/// ([`ShardedPageCache::take_dirty`], the invalidations) scan every shard.
///
/// Because a check-then-act pair of calls spans two lock acquisitions (a
/// concurrent insertion into the same shard may evict a clean page in
/// between), compound updates must use the single-lock-hold primitives
/// [`ShardedPageCache::write_full_page`] and
/// [`ShardedPageCache::write_with_fallback`] instead of
/// `contains`+`write`.
#[derive(Debug)]
pub struct ShardedPageCache {
    shards: Vec<Mutex<PageCache>>,
}

impl ShardedPageCache {
    /// Creates a cache with `shards` independent locks and a *total* capacity
    /// of `capacity_pages`, split evenly across the shards.
    pub fn new(shards: usize, capacity_pages: usize, page_size: usize, track_cow: bool) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity_pages / shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(PageCache::new(per_shard, page_size, track_cow)))
                .collect(),
        }
    }

    fn shard(&self, inode: u64, index: u64) -> &Mutex<PageCache> {
        let h = (inode ^ index.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Zero-copy handle to a resident page.
    pub fn get(&self, inode: u64, index: u64) -> Option<PageRef> {
        self.shard(inode, index).lock().get(inode, index)
    }

    /// Whether a page is resident. Only a hint under concurrency — see the
    /// type-level docs; never pair it with a mutating call.
    pub fn contains(&self, inode: u64, index: u64) -> bool {
        self.shard(inode, index).lock().contains(inode, index)
    }

    /// See [`PageCache::write`].
    pub fn write(&self, inode: u64, index: u64, offset: usize, bytes: &[u8]) -> bool {
        self.shard(inode, index).lock().write(inode, index, offset, bytes)
    }

    /// Full-page dirty write in one lock hold: overwrites the resident page,
    /// or installs the data as a brand-new dirty page when it is absent
    /// (whether never loaded or just evicted by a concurrent insertion).
    pub fn write_full_page(&self, inode: u64, index: u64, data: Vec<u8>) {
        let mut shard = self.shard(inode, index).lock();
        if !shard.write(inode, index, 0, &data) {
            shard.insert_new_dirty(inode, index, data);
        }
    }

    /// Partial write in one lock hold: applies `bytes` at `offset` to the
    /// resident page, or installs `base` (the page's pre-write contents, read
    /// by the caller) first when the page is absent. The caller must hold the
    /// inode's write lock so `base` cannot be stale.
    pub fn write_with_fallback(
        &self,
        inode: u64,
        index: u64,
        offset: usize,
        bytes: &[u8],
        base: PageRef,
    ) {
        self.shard(inode, index).lock().write_with_fallback(inode, index, offset, bytes, base);
    }

    /// See [`PageCache::insert_clean`].
    pub fn insert_clean(&self, inode: u64, index: u64, data: impl Into<PageRef>) {
        self.shard(inode, index).lock().insert_clean(inode, index, data);
    }

    /// See [`PageCache::insert_new_dirty`].
    pub fn insert_new_dirty(&self, inode: u64, index: u64, data: impl Into<PageRef>) {
        self.shard(inode, index).lock().insert_new_dirty(inode, index, data);
    }

    /// See [`PageCache::take_dirty`]; scans every shard and returns the pages
    /// in ascending page order (deterministic writeback order).
    pub fn take_dirty(&self, inode: u64) -> Vec<DirtyPage> {
        let mut out: Vec<DirtyPage> =
            self.shards.iter().flat_map(|s| s.lock().take_dirty(inode)).collect();
        out.sort_unstable_by_key(|dp| dp.index);
        out
    }

    /// See [`PageCache::restore_dirty`].
    pub fn restore_dirty(&self, pages: impl IntoIterator<Item = DirtyPage>) {
        for dp in pages {
            self.shard(dp.inode, dp.index).lock().restore_dirty([dp]);
        }
    }

    /// Every inode that owns at least one dirty page, across all shards.
    pub fn dirty_inodes(&self) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        for shard in &self.shards {
            out.extend(shard.lock().dirty_inodes());
        }
        out
    }

    /// Total resident dirty pages across all shards.
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_count()).sum()
    }

    /// Total resident pages across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` when nothing is cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes used by duplicate (CoW) pages.
    pub fn cow_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().cow_bytes()).sum()
    }

    /// See [`PageCache::invalidate_inode`]; scans every shard.
    pub fn invalidate_inode(&self, inode: u64) {
        for shard in &self.shards {
            shard.lock().invalidate_inode(inode);
        }
    }

    /// See [`PageCache::invalidate_from`]; scans every shard.
    pub fn invalidate_from(&self, inode: u64, from_index: u64) {
        for shard in &self.shards {
            shard.lock().invalidate_from(inode, from_index);
        }
    }

    /// Drops every page in every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// See [`PageCache::clear_clean`]: page by page, so one dirty page does
    /// not keep the clean pages of its shard warm.
    pub fn clear_clean(&self) {
        for shard in &self.shards {
            shard.lock().clear_clean();
        }
    }
}

/// Returns the modified byte ranges between `original` and `current`,
/// detected at `chunk` granularity and merged into maximal runs.
///
/// This is the software stand-in for the AVX2 XOR scan the paper uses: only
/// the *decision* (which 64-byte chunks differ) matters for interface
/// selection.
///
/// # Panics
///
/// Panics if the two slices have different lengths or `chunk` is zero.
pub fn dirty_chunks(original: &[u8], current: &[u8], chunk: usize) -> Vec<DirtyRange> {
    assert_eq!(original.len(), current.len(), "XOR diff needs equal-length pages");
    assert!(chunk > 0, "chunk size must be non-zero");
    let mut ranges: Vec<DirtyRange> = Vec::new();
    let mut off = 0;
    while off < current.len() {
        let end = (off + chunk).min(current.len());
        if original[off..end] != current[off..end] {
            match ranges.last_mut() {
                Some((start, len)) if *start + *len == off => *len += end - off,
                _ => ranges.push((off, end - off)),
            }
        }
        off = end;
    }
    ranges
}

/// The modified ratio `R = N_modified_chunks / N_total_chunks` (§4.6).
///
/// # Panics
///
/// Panics if the slices differ in length or `chunk` is zero.
pub fn modified_ratio(original: &[u8], current: &[u8], chunk: usize) -> f64 {
    assert!(chunk > 0);
    let total = original.len().div_ceil(chunk).max(1);
    let modified: usize =
        dirty_chunks(original, current, chunk).iter().map(|(_, len)| len.div_ceil(chunk)).sum();
    modified as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 4096;

    fn cache(cow: bool) -> PageCache {
        PageCache::new(64, PS, cow)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = cache(false);
        c.insert_clean(1, 0, vec![3u8; PS]);
        assert_eq!(c.get(1, 0), Some(PageRef::from(vec![3u8; PS])));
        assert_eq!(c.get(1, 1), None);
        assert!(c.contains(1, 0));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn get_is_zero_copy_and_write_unshares() {
        let mut c = cache(false);
        c.insert_clean(1, 0, vec![3u8; PS]);
        let a = c.get(1, 0).unwrap();
        let b = c.get(1, 0).unwrap();
        assert!(PageRef::ptr_eq(&a, &b), "repeated gets share one buffer");
        // A write while handles are outstanding must not mutate them
        // (copy-on-write), and the cache must serve the new contents.
        assert!(c.write(1, 0, 0, &[9u8; 4]));
        assert_eq!(&a[..4], &[3u8; 4], "outstanding handle sees old bytes");
        let after = c.get(1, 0).unwrap();
        assert_eq!(&after[..4], &[9u8; 4]);
        assert!(!PageRef::ptr_eq(&a, &after));
        // With no handles outstanding and the page already dirty, further
        // writes mutate in place (no second copy).
        drop((a, b, after));
        let before = c.get(1, 0).unwrap();
        drop(before);
        assert!(c.write(1, 0, 4, &[8u8; 4]));
        let now = c.get(1, 0).unwrap();
        assert_eq!(&now[..8], &[9, 9, 9, 9, 8, 8, 8, 8]);
    }

    #[test]
    fn write_requires_residency() {
        let mut c = cache(true);
        assert!(!c.write(1, 0, 0, &[1, 2, 3]));
        c.insert_clean(1, 0, vec![0u8; PS]);
        assert!(c.write(1, 0, 100, &[9, 9]));
        assert_eq!(c.dirty_count(), 1);
        let got = c.get(1, 0).unwrap();
        assert_eq!(&got[100..102], &[9, 9]);
    }

    #[test]
    fn cow_original_is_captured_once() {
        let mut c = cache(true);
        c.insert_clean(1, 0, vec![7u8; PS]);
        c.write(1, 0, 0, &[1u8; 64]);
        c.write(1, 0, 64, &[2u8; 64]);
        assert_eq!(c.cow_bytes(), PS);
        let dirty = c.take_dirty(1);
        assert_eq!(dirty.len(), 1);
        let orig = dirty[0].original.as_ref().unwrap();
        assert_eq!(orig.to_vec(), vec![7u8; PS]);
        // Ranges cover exactly the two modified cachelines, merged.
        assert_eq!(dirty[0].dirty_ranges(64), vec![(0, 128)]);
    }

    #[test]
    fn cow_disabled_reports_whole_page() {
        let mut c = cache(false);
        c.insert_clean(1, 0, vec![0u8; PS]);
        c.write(1, 0, 0, &[1u8; 8]);
        let dirty = c.take_dirty(1);
        assert!(dirty[0].original.is_none());
        assert_eq!(dirty[0].dirty_ranges(64), vec![(0, PS)]);
        assert_eq!(dirty[0].modified_ratio(64), 1.0);
    }

    #[test]
    fn take_dirty_clears_dirty_state_but_keeps_pages() {
        let mut c = cache(true);
        c.insert_clean(1, 0, vec![0u8; PS]);
        c.insert_clean(1, 1, vec![0u8; PS]);
        c.insert_clean(2, 0, vec![0u8; PS]);
        c.write(1, 0, 0, &[1]);
        c.write(1, 1, 0, &[1]);
        c.write(2, 0, 0, &[1]);
        let dirty = c.take_dirty(1);
        assert_eq!(dirty.len(), 2);
        assert_eq!(dirty[0].index, 0);
        assert_eq!(dirty[1].index, 1);
        assert_eq!(c.dirty_count(), 1, "inode 2 remains dirty");
        assert_eq!(c.len(), 3);
        assert!(c.take_dirty(1).is_empty());
        assert_eq!(c.take_dirty(2).len(), 1);
    }

    #[test]
    fn restore_dirty_undoes_take_dirty_even_after_an_eviction() {
        let mut c = cache(true);
        c.insert_clean(1, 0, vec![1u8; PS]);
        c.write(1, 0, 0, &[5u8; 4]);
        c.insert_new_dirty(1, 1, vec![2u8; PS]);
        let taken = c.take_dirty(1);
        assert_eq!(c.dirty_count(), 0);
        c.invalidate_from(1, 1); // the clean page 1 is evicted meanwhile
        c.write(1, 0, 8, &[6u8; 4]); // and page 0 is written again
        let newer = c.get(1, 0).unwrap();
        c.restore_dirty(taken.clone());
        let again = c.take_dirty(1);
        assert_eq!(again.len(), 2);
        assert_eq!(again[0].data, newer, "a page dirtied since keeps its newer contents");
        assert_eq!(again[1], taken[1], "contents and CoW original as taken");
    }

    #[test]
    fn insert_clean_never_clobbers_dirty() {
        let mut c = cache(true);
        c.insert_clean(1, 0, vec![0u8; PS]);
        c.write(1, 0, 0, &[5u8; 4]);
        c.insert_clean(1, 0, vec![9u8; PS]);
        let page = c.get(1, 0).unwrap();
        assert_eq!(&page[..4], &[5u8; 4]);
    }

    #[test]
    fn invalidate_inode_and_from() {
        let mut c = cache(false);
        for idx in 0..4 {
            c.insert_clean(1, idx, vec![0u8; PS]);
        }
        c.insert_clean(2, 0, vec![0u8; PS]);
        c.invalidate_from(1, 2);
        assert!(c.contains(1, 1));
        assert!(!c.contains(1, 2));
        c.invalidate_inode(1);
        assert!(!c.contains(1, 0));
        assert!(c.contains(2, 0));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_only_clean_pages() {
        let mut c = PageCache::new(2, PS, false);
        c.insert_clean(1, 0, vec![0u8; PS]);
        c.write(1, 0, 0, &[1]);
        c.insert_clean(1, 1, vec![0u8; PS]);
        c.insert_clean(1, 2, vec![0u8; PS]);
        // Page (1,0) is dirty and must survive; one of the clean pages is gone.
        assert!(c.contains(1, 0));
        assert_eq!(c.len(), 2);
        // With everything dirty the cache may overshoot rather than lose data.
        let mut c = PageCache::new(1, PS, false);
        c.insert_new_dirty(1, 0, vec![1u8; PS]);
        c.insert_new_dirty(1, 1, vec![2u8; PS]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dirty_chunks_detects_and_merges() {
        let orig = vec![0u8; 4096];
        let mut cur = orig.clone();
        cur[0] = 1; // chunk 0
        cur[100] = 1; // chunk 1
        cur[1000] = 1; // chunk 15
        let ranges = dirty_chunks(&orig, &cur, 64);
        assert_eq!(ranges, vec![(0, 128), (960, 64)]);
        assert!(dirty_chunks(&orig, &orig, 64).is_empty());
    }

    #[test]
    fn modified_ratio_matches_paper_threshold_semantics() {
        let orig = vec![0u8; 4096];
        let mut cur = orig.clone();
        // Modify 7 cachelines: 7/64 < 1/8 → byte interface preferred.
        for i in 0..7 {
            cur[i * 64] = 1;
        }
        let r = modified_ratio(&orig, &cur, 64);
        assert!(r < 0.125, "r = {r}");
        // Modify half the page → block interface preferred.
        for i in 0..32 {
            cur[i * 64] = 2;
        }
        let r = modified_ratio(&orig, &cur, 64);
        assert!(r >= 0.125);
        assert!(r <= 1.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn dirty_chunks_rejects_mismatched_lengths() {
        dirty_chunks(&[0u8; 10], &[0u8; 12], 64);
    }

    #[test]
    fn sharded_cache_behaves_like_one_cache() {
        let c = ShardedPageCache::new(4, 64, PS, true);
        for ino in 0..8u64 {
            c.insert_clean(ino, 0, vec![ino as u8; PS]);
        }
        assert_eq!(c.len(), 8);
        assert!(c.contains(3, 0));
        assert_eq!(&c.get(5, 0).unwrap()[..2], &[5, 5]);
        assert!(c.write(5, 0, 0, &[9u8; 64]));
        assert!(c.write(6, 0, 0, &[9u8; 64]));
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.dirty_inodes().into_iter().collect::<Vec<_>>(), vec![5, 6]);
        let dirty = c.take_dirty(5);
        assert_eq!(dirty.len(), 1);
        assert!(dirty[0].original.is_some(), "CoW tracking reaches the shards");
        c.invalidate_inode(6);
        assert!(!c.contains(6, 0));
        c.clear_clean();
        assert_eq!(c.len(), 0, "everything left was clean");
    }

    #[test]
    fn sharded_cache_clear_clean_keeps_dirty_pages() {
        // Regression: clear_clean used to drop only shards without a dirty
        // page, so the one dirty page below kept the clean pages sharing its
        // shard warm across drop_caches.
        let c = ShardedPageCache::new(4, 32, PS, false);
        for idx in 0..8u64 {
            c.insert_clean(1, idx, vec![idx as u8; PS]);
        }
        c.write_full_page(1, 8, vec![7u8; PS]);
        assert_eq!(c.len(), 9);
        c.clear_clean();
        assert!(c.contains(1, 8), "dirty page survives drop_caches");
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.len(), 1, "exactly the dirty page survives");
        // A fully clean cache clears completely.
        let c = ShardedPageCache::new(4, 32, PS, false);
        c.insert_clean(1, 0, vec![0u8; PS]);
        c.clear_clean();
        assert!(c.is_empty());
    }

    #[test]
    fn dirty_bookkeeping_follows_every_state_change() {
        // What writeback is handed must follow each operation that can set,
        // clear or drop a dirty page.
        let mut c = cache(true);
        for idx in [5u64, 1, 3] {
            c.insert_new_dirty(2, idx, vec![1u8; PS]);
        }
        c.insert_clean(2, 4, vec![0u8; PS]);
        c.insert_clean(7, 0, vec![0u8; PS]);
        c.write(7, 0, 0, &[1]);
        c.write(7, 0, 8, &[1]); // second write to a dirty page: still one dirty page
        assert_eq!(c.dirty_count(), 4);
        assert_eq!(c.dirty_inodes().into_iter().collect::<Vec<_>>(), vec![2, 7]);
        c.invalidate_from(2, 4);
        assert_eq!(c.dirty_count(), 3, "truncate drops dirty page 5");
        let taken = c.take_dirty(2);
        assert_eq!(taken.iter().map(|dp| dp.index).collect::<Vec<_>>(), vec![1, 3]);
        assert!(c.take_dirty(2).is_empty());
        c.write(2, 3, 0, &[9]);
        assert_eq!(c.take_dirty(2).len(), 1, "a page re-dirtied after writeback is found again");
        c.invalidate_inode(7);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.dirty_inodes().is_empty());
        c.insert_new_dirty(9, 0, vec![1u8; PS]);
        c.clear_clean();
        assert_eq!((c.len(), c.dirty_count()), (1, 1));
        c.clear();
        assert_eq!(c.dirty_count(), 0);
        assert!(c.dirty_inodes().is_empty());
    }

    #[test]
    fn single_lock_write_primitives_handle_absent_pages() {
        let c = ShardedPageCache::new(2, 8, PS, true);
        // write_full_page installs an absent page dirty...
        c.write_full_page(9, 0, vec![3u8; PS]);
        assert_eq!(c.get(9, 0).unwrap()[0], 3);
        assert_eq!(c.dirty_count(), 1);
        // ...and overwrites a resident one in place.
        c.write_full_page(9, 0, vec![4u8; PS]);
        assert_eq!(c.get(9, 0).unwrap()[0], 4);
        assert_eq!(c.dirty_count(), 1);
        // write_with_fallback installs the caller's base when absent...
        c.write_with_fallback(9, 1, 4, &[7u8; 4], PageRef::new(vec![1u8; PS]));
        let page = c.get(9, 1).unwrap();
        assert_eq!(&page[..4], &[1, 1, 1, 1], "base bytes preserved");
        assert_eq!(&page[4..8], &[7, 7, 7, 7], "write applied on top");
        // ...and writes straight through when resident.
        c.write_with_fallback(9, 1, 0, &[9u8; 2], PageRef::zeroed(PS));
        assert_eq!(&c.get(9, 1).unwrap()[..2], &[9, 9]);
    }

    #[test]
    fn write_with_fallback_sticks_when_every_other_page_is_dirty() {
        // Regression: the base used to be installed clean and evicted at once
        // — it was the only clean page of a full cache — so the write after
        // it found nothing to land on and was lost.
        let mut c = PageCache::new(1, PS, true);
        c.insert_new_dirty(1, 0, vec![1u8; PS]);
        c.write_with_fallback(1, 1, 8, &[7u8; 4], PageRef::new(vec![2u8; PS]));
        let page = c.get(1, 1).expect("the written page is resident");
        assert_eq!(&page[6..14], &[2, 2, 7, 7, 7, 7, 2, 2]);
        let dirty = c.take_dirty(1);
        assert_eq!(dirty.len(), 2);
        assert_eq!(dirty[1].dirty_ranges(64), vec![(0, 64)], "diffed against the base");
    }

    #[test]
    fn sharded_cache_spreads_one_file_across_shards() {
        // A single hot file must be able to use more than 1/shards of the
        // capacity: its pages hash across shards instead of pinning one.
        let c = ShardedPageCache::new(4, 64, PS, false);
        for idx in 0..32u64 {
            c.insert_clean(7, idx, vec![0u8; PS]);
        }
        assert_eq!(c.len(), 32, "well under total capacity: nothing evicted");
    }

    #[test]
    fn sharded_cache_is_safe_under_concurrent_writers() {
        let c = std::sync::Arc::new(ShardedPageCache::new(8, 256, PS, true));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        let ino = t * 100 + (i % 4);
                        // Single-lock-hold install: a plain insert_clean +
                        // write pair could lose the page to a concurrent
                        // eviction in between. Once dirty, the page cannot
                        // be evicted, so the read-back must hit.
                        let mut page = vec![t as u8; PS];
                        page[..64].fill(i as u8);
                        c.write_full_page(ino, i, page);
                        let got = c.get(ino, i).unwrap();
                        assert_eq!(got[0], i as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.dirty_count() > 0);
    }
}
