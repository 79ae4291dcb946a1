//! Block and inode bitmap allocators.
//!
//! ByteFS tracks inode and data-block allocation with bitmaps, like Ext4.
//! Each bitmap block is divided into 64-byte groups — the basic unit of
//! persistence — so allocating or freeing touches only one cacheline on the
//! device, persisted over the byte interface (§4.5, Table 3: bitmap reads use
//! the block interface, writes the byte interface).
//!
//! The allocator itself lives in host memory (loaded at mount over the block
//! interface) and records which 64-byte groups have changed since the last
//! persistence point, so the file system knows exactly which cachelines to
//! write out in the next transaction.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::layout::DENTRY_SIZE;

/// Bits per 64-byte persistence group.
pub const BITS_PER_GROUP: u64 = (DENTRY_SIZE * 8) as u64;

/// An in-memory bitmap allocator with dirty-group tracking.
#[derive(Debug, Clone)]
pub struct BitmapAllocator {
    bits: Vec<u64>,
    total: u64,
    allocated: u64,
    hint: u64,
    dirty_groups: BTreeSet<u64>,
}

impl BitmapAllocator {
    /// Creates an allocator for `total` objects, all free.
    pub fn new(total: u64) -> Self {
        let words = (total as usize).div_ceil(64);
        Self { bits: vec![0; words], total, allocated: 0, hint: 0, dirty_groups: BTreeSet::new() }
    }

    /// Rebuilds an allocator from the raw bitmap bytes read from the device.
    /// Bits beyond `total` are ignored.
    pub fn from_bytes(raw: &[u8], total: u64) -> Self {
        let mut alloc = Self::new(total);
        for idx in 0..total {
            let byte = (idx / 8) as usize;
            if byte < raw.len() && raw[byte] & (1 << (idx % 8)) != 0 {
                alloc.set(idx);
            }
        }
        alloc.dirty_groups.clear();
        alloc
    }

    /// Serializes the whole bitmap into bytes (little-endian bit order within
    /// each byte), padded to a multiple of the group size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = ((self.total as usize).div_ceil(8)).div_ceil(DENTRY_SIZE) * DENTRY_SIZE;
        let mut out = vec![0u8; nbytes.max(DENTRY_SIZE)];
        for idx in 0..self.total {
            if self.is_allocated(idx) {
                out[(idx / 8) as usize] |= 1 << (idx % 8);
            }
        }
        out
    }

    /// Total number of objects tracked.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of currently allocated objects.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Number of free objects.
    pub fn free_count(&self) -> u64 {
        self.total - self.allocated
    }

    /// Whether object `idx` is allocated.
    pub fn is_allocated(&self, idx: u64) -> bool {
        debug_assert!(idx < self.total);
        self.bits[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    fn set(&mut self, idx: u64) {
        let word = (idx / 64) as usize;
        let mask = 1u64 << (idx % 64);
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.allocated += 1;
            self.dirty_groups.insert(idx / BITS_PER_GROUP);
        }
    }

    fn clear(&mut self, idx: u64) {
        let word = (idx / 64) as usize;
        let mask = 1u64 << (idx % 64);
        if self.bits[word] & mask != 0 {
            self.bits[word] &= !mask;
            self.allocated -= 1;
            self.dirty_groups.insert(idx / BITS_PER_GROUP);
        }
    }

    /// Allocates one object, preferring the area after the most recent
    /// allocation (next-fit, which keeps file blocks roughly contiguous for
    /// extent-friendly allocation).
    pub fn allocate(&mut self) -> Option<u64> {
        if self.allocated >= self.total {
            return None;
        }
        let start = self.hint.min(self.total.saturating_sub(1));
        let mut idx = start;
        loop {
            if !self.is_allocated(idx) {
                self.set(idx);
                self.hint = (idx + 1) % self.total;
                return Some(idx);
            }
            idx = (idx + 1) % self.total;
            if idx == start {
                return None;
            }
        }
    }

    /// Marks a specific object allocated (used for reserved objects such as
    /// the root inode). Returns `false` if it was already allocated.
    pub fn allocate_at(&mut self, idx: u64) -> bool {
        debug_assert!(idx < self.total);
        if self.is_allocated(idx) {
            return false;
        }
        self.set(idx);
        true
    }

    /// Frees an allocated object.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the object was not allocated (double free).
    pub fn free(&mut self, idx: u64) {
        debug_assert!(self.is_allocated(idx), "double free of {idx}");
        self.clear(idx);
    }

    /// The 64-byte group index an object belongs to.
    pub fn group_of(idx: u64) -> u64 {
        idx / BITS_PER_GROUP
    }

    /// Marks the group containing `idx` dirty without touching any bit
    /// (used by staged frees, which persist a cleared bit while keeping the
    /// in-memory bit set until the deferred TRIM completes).
    pub fn mark_group_dirty(&mut self, idx: u64) {
        self.dirty_groups.insert(idx / BITS_PER_GROUP);
    }

    /// Returns the current raw bytes of one 64-byte group (what the file
    /// system persists over the byte interface).
    pub fn group_bytes(&self, group: u64) -> [u8; DENTRY_SIZE] {
        let mut out = [0u8; DENTRY_SIZE];
        let first_bit = group * BITS_PER_GROUP;
        for bit in 0..BITS_PER_GROUP {
            let idx = first_bit + bit;
            if idx < self.total && self.is_allocated(idx) {
                out[(bit / 8) as usize] |= 1 << (bit % 8);
            }
        }
        out
    }

    /// Groups modified since the last [`BitmapAllocator::take_dirty_groups`],
    /// without clearing them.
    pub fn dirty_groups(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty_groups.iter().copied()
    }

    /// Returns and clears the set of modified groups.
    pub fn take_dirty_groups(&mut self) -> Vec<u64> {
        let out: Vec<u64> = self.dirty_groups.iter().copied().collect();
        self.dirty_groups.clear();
        out
    }
}

/// A thread-safe bitmap allocator with a mutex-free fast path for space
/// admission, mirroring the `AtomicTraffic` pattern of the device model.
///
/// The free-space count is mirrored in an [`AtomicU64`]: `allocate` first
/// *claims* one unit of free space with a compare-exchange loop — a full
/// volume is rejected without ever touching the bitmap mutex, and the
/// observability queries ([`SharedBitmap::free_count`],
/// [`SharedBitmap::allocated`]) are plain atomic loads. Only the short pick /
/// clear of the concrete bit index takes the inner mutex.
///
/// Invariant: the atomic counter never exceeds the bitmap's true free count
/// (claims decrement it *before* the bitmap is updated; frees increment it
/// *after*), so a successful claim guarantees the locked allocation succeeds.
#[derive(Debug)]
pub struct SharedBitmap {
    inner: Mutex<BitmapAllocator>,
    /// Staged frees: cleared on the *persisted* image, still allocated in
    /// memory (see [`SharedBitmap::free_staged`]). Lock order: `inner`
    /// before `staged`.
    staged: Mutex<std::collections::HashSet<u64>>,
    free: AtomicU64,
    total: u64,
}

impl SharedBitmap {
    /// Wraps an already-populated allocator.
    pub fn new(bitmap: BitmapAllocator) -> Self {
        let free = AtomicU64::new(bitmap.free_count());
        let total = bitmap.total();
        Self {
            inner: Mutex::new(bitmap),
            staged: Mutex::new(std::collections::HashSet::new()),
            free,
            total,
        }
    }

    /// Total number of objects tracked (immutable, lock-free).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of free objects (lock-free).
    pub fn free_count(&self) -> u64 {
        self.free.load(Ordering::Acquire)
    }

    /// Number of allocated objects (lock-free).
    pub fn allocated(&self) -> u64 {
        self.total.saturating_sub(self.free_count())
    }

    /// Whether object `idx` is allocated.
    pub fn is_allocated(&self, idx: u64) -> bool {
        self.inner.lock().is_allocated(idx)
    }

    /// Atomically claims one unit of free space from the mirrored counter.
    /// Returns `false` when the volume is full — without touching the mutex.
    fn claim_free_unit(&self) -> bool {
        let mut cur = self.free.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return false;
            }
            match self.free.compare_exchange_weak(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Allocates one object. The out-of-space check is a lock-free
    /// compare-exchange on the mirrored free counter; only the bit pick takes
    /// the mutex.
    pub fn allocate(&self) -> Option<u64> {
        if !self.claim_free_unit() {
            return None;
        }
        let idx = self.inner.lock().allocate().expect("free space was claimed atomically");
        Some(idx)
    }

    /// Marks a specific object allocated. Returns `false` if it already was
    /// (or if no free space could be claimed). The free counter is claimed
    /// *before* the bit is taken — preserving the `counter <= true free`
    /// invariant — and refunded if the object turns out to be taken already.
    pub fn allocate_at(&self, idx: u64) -> bool {
        if !self.claim_free_unit() {
            return false;
        }
        let taken = self.inner.lock().allocate_at(idx);
        if !taken {
            self.free.fetch_add(1, Ordering::AcqRel);
        }
        taken
    }

    /// Frees an allocated object.
    pub fn free(&self, idx: u64) {
        self.inner.lock().free(idx);
        self.free.fetch_add(1, Ordering::AcqRel);
    }

    /// Stages a free for a crash-ordered discard: the object's group is
    /// marked dirty and [`SharedBitmap::take_dirty_group_bytes`] masks the
    /// bit off the *persisted* image, while the in-memory bit (and the free
    /// counter) stay allocated — so no concurrent allocation can pick the
    /// block up — until [`SharedBitmap::release_staged`] runs after the
    /// transaction committed and the block was TRIMmed. The split keeps two
    /// invariants at once: a power cut before the commit rolls the free
    /// back (the persisted bits were transaction-tagged, and host memory is
    /// lost anyway), and a block can never be handed to a new owner while
    /// its deferred TRIM is still pending to destroy the new data.
    pub fn free_staged(&self, idx: u64) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.is_allocated(idx), "staged free of unallocated {idx}");
        inner.mark_group_dirty(idx);
        self.staged.lock().insert(idx);
    }

    /// Completes staged frees after their transaction committed and the
    /// TRIMs were issued: clears the in-memory bits and returns the space
    /// to the allocatable pool (see [`SharedBitmap::free_staged`]).
    pub fn release_staged(&self, idxs: &[u64]) {
        if idxs.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let mut staged = self.staged.lock();
        for idx in idxs {
            assert!(staged.remove(idx), "releasing {idx} that was never staged");
            inner.free(*idx);
        }
        drop(staged);
        drop(inner);
        self.free.fetch_add(idxs.len() as u64, Ordering::AcqRel);
    }

    /// Returns and clears the dirty 64-byte groups together with their
    /// current raw bytes, atomically with respect to other allocations — what
    /// a transaction persists over the byte interface. Staged frees are
    /// masked off the bytes: the persisted image shows them freed while the
    /// in-memory allocator still withholds them (see
    /// [`SharedBitmap::free_staged`]).
    pub fn take_dirty_group_bytes(&self) -> Vec<(u64, [u8; DENTRY_SIZE])> {
        let mut inner = self.inner.lock();
        let staged = self.staged.lock();
        inner
            .take_dirty_groups()
            .into_iter()
            .map(|group| {
                let mut bytes = inner.group_bytes(group);
                for idx in staged.iter() {
                    if BitmapAllocator::group_of(*idx) == group {
                        let bit = idx % (DENTRY_SIZE as u64 * 8);
                        bytes[(bit / 8) as usize] &= !(1 << (bit % 8));
                    }
                }
                (group, bytes)
            })
            .collect()
    }

    /// Serializes the whole bitmap (mkfs/debugging).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.inner.lock().to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_free() {
        let mut a = BitmapAllocator::new(100);
        assert_eq!(a.free_count(), 100);
        let x = a.allocate().unwrap();
        let y = a.allocate().unwrap();
        assert_ne!(x, y);
        assert_eq!(a.allocated(), 2);
        assert!(a.is_allocated(x));
        a.free(x);
        assert!(!a.is_allocated(x));
        assert_eq!(a.allocated(), 1);
    }

    #[test]
    fn never_double_allocates() {
        let mut a = BitmapAllocator::new(64);
        let mut seen = std::collections::HashSet::new();
        while let Some(idx) = a.allocate() {
            assert!(seen.insert(idx), "{idx} allocated twice");
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(a.allocate(), None);
    }

    #[test]
    fn allocate_at_reserves_specific_objects() {
        let mut a = BitmapAllocator::new(16);
        assert!(a.allocate_at(1));
        assert!(!a.allocate_at(1));
        // Subsequent dynamic allocation skips the reserved slot.
        let mut got = Vec::new();
        while let Some(i) = a.allocate() {
            got.push(i);
        }
        assert!(!got.contains(&1));
        assert_eq!(got.len(), 15);
    }

    #[test]
    fn next_fit_tends_to_be_contiguous() {
        let mut a = BitmapAllocator::new(1000);
        let blocks: Vec<u64> = (0..10).map(|_| a.allocate().unwrap()).collect();
        for pair in blocks.windows(2) {
            assert_eq!(pair[1], pair[0] + 1);
        }
    }

    #[test]
    fn dirty_groups_track_mutations() {
        let mut a = BitmapAllocator::new(2048);
        assert_eq!(a.dirty_groups().count(), 0);
        a.allocate_at(0);
        a.allocate_at(5);
        a.allocate_at(513); // second group
        let dirty = a.take_dirty_groups();
        assert_eq!(dirty, vec![0, 1]);
        assert_eq!(a.dirty_groups().count(), 0);
        a.free(5);
        assert_eq!(a.take_dirty_groups(), vec![0]);
    }

    #[test]
    fn group_bytes_reflect_allocation() {
        let mut a = BitmapAllocator::new(1024);
        a.allocate_at(0);
        a.allocate_at(9);
        let g = a.group_bytes(0);
        assert_eq!(g[0], 0b0000_0001);
        assert_eq!(g[1], 0b0000_0010);
        assert!(g[2..].iter().all(|b| *b == 0));
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut a = BitmapAllocator::new(777);
        for i in [0u64, 3, 64, 511, 512, 776] {
            a.allocate_at(i);
        }
        let bytes = a.to_bytes();
        assert_eq!(bytes.len() % DENTRY_SIZE, 0);
        let b = BitmapAllocator::from_bytes(&bytes, 777);
        assert_eq!(b.allocated(), a.allocated());
        for i in [0u64, 3, 64, 511, 512, 776] {
            assert!(b.is_allocated(i));
        }
        assert!(!b.is_allocated(1));
        assert_eq!(b.dirty_groups().count(), 0, "loading must not mark groups dirty");
    }

    #[test]
    fn shared_bitmap_mirrors_counts() {
        let s = SharedBitmap::new(BitmapAllocator::new(128));
        assert_eq!(s.total(), 128);
        assert_eq!(s.free_count(), 128);
        let a = s.allocate().unwrap();
        assert!(s.allocate_at(100));
        assert!(!s.allocate_at(100));
        assert_eq!(s.allocated(), 2);
        assert!(s.is_allocated(a) && s.is_allocated(100));
        s.free(a);
        assert_eq!(s.free_count(), 127);
        let dirty = s.take_dirty_group_bytes();
        assert_eq!(dirty.len(), 1, "128 bits fit one 64-byte group");
        assert!(s.take_dirty_group_bytes().is_empty(), "taking clears");
    }

    #[test]
    fn shared_bitmap_never_double_allocates_under_threads() {
        let s = std::sync::Arc::new(SharedBitmap::new(BitmapAllocator::new(1000)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(idx) = s.allocate() {
                        got.push(idx);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        assert_eq!(all.len(), 1000, "exactly the whole volume is handed out");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000, "no index handed out twice");
        assert_eq!(s.free_count(), 0);
        assert_eq!(s.allocate(), None, "full volume rejected on the lock-free path");
    }

    #[test]
    fn staged_frees_are_unallocatable_until_released_but_persist_as_freed() {
        // Regression: a staged free must not be handed to a new owner while
        // its deferred TRIM is pending — only the *persisted* image shows
        // the bit cleared (inside the freeing transaction); the in-memory
        // allocator withholds the block until release_staged.
        let mut b = BitmapAllocator::new(3);
        for _ in 0..3 {
            b.allocate().unwrap();
        }
        let s = SharedBitmap::new(b);
        s.free(1);
        s.free_staged(0);
        assert_eq!(s.allocate(), Some(1), "only the truly freed block is allocatable");
        assert_eq!(s.allocate(), None, "the staged block must not be handed out");
        // The transaction persists the staged bit as cleared while the live
        // bits stay set.
        let groups = s.take_dirty_group_bytes();
        let (_, bytes) = groups.iter().find(|(g, _)| *g == 0).expect("group 0 dirty");
        assert_eq!(bytes[0] & 0b001, 0, "staged bit persisted as freed");
        assert_eq!(bytes[0] & 0b110, 0b110, "live bits persisted as allocated");
        s.release_staged(&[0]);
        assert_eq!(s.allocate(), Some(0), "released block is allocatable again");
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut a = BitmapAllocator::new(8);
        let x = a.allocate().unwrap();
        a.free(x);
        a.free(x);
    }
}
