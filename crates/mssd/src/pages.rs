//! The LRU page store under both page caches of the model (§4.5's
//! coordinated caching): the host page cache (`fskit::pagecache::PageCache`)
//! evicts clean pages only, the baseline firmware's DRAM cache
//! ([`crate::dram_cache::DramPageCache`]) evicts any page and writes dirty
//! victims back. Each is a thin policy over one [`PageStore`].
//!
//! Pages are handed out as [`PageRef`]s: a read is a reference-count bump,
//! not a 4 KB copy, and the first write to a page that is still shared
//! copies it once ([`PageRef::make_mut`]). The store keeps its pages on a
//! doubly linked list in order of last touch, least recent at the head: a
//! touch relinks one node at the tail, and the one victim search,
//! [`PageStore::pop_lru_where`], walks from the head to the first page the
//! policy may evict. An eviction costs the pages it skips (none when any
//! page may go, the dirty pages at the head when only clean ones may), not
//! the pages resident.
//!
//! The store owns the dirty bits: besides the map it keeps a key-ordered
//! index of its dirty keys, as Linux tags a mapping's dirty pages in its
//! xarray (`PAGECACHE_TAG_DIRTY`). Every call that sets, clears or drops a
//! dirty page keeps the index exact, so writeback asks it
//! ([`PageStore::dirty_keys`], [`PageStore::clean`]) and costs what it
//! finds, not what is resident.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheap, immutable handle to one cached page's bytes.
///
/// Cloning a `PageRef` (and fetching one from [`PageStore::get`]) only bumps
/// a reference count. The underlying buffer is copied lazily, the first time
/// a cache must mutate a page that is still shared.
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

    /// Copies the bytes out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.as_ref().clone()
    }

    /// `true` when both handles share the same underlying buffer (used by
    /// tests to assert zero-copy behaviour).
    pub fn ptr_eq(a: &PageRef, b: &PageRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The bytes, writable: copied first when another handle shares them,
    /// written in place otherwise.
    pub fn make_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.0).as_mut_slice()
    }

    /// The bytes as an owned vector, copied only when another handle still
    /// shares them.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
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

/// One resident page: its bytes, its dirty bit and the cache's own per-page
/// payload `meta`. Only the store moves the dirty bit, so its dirty index
/// cannot drift from the bits.
#[derive(Debug, Clone)]
pub struct Slot<M> {
    /// Current contents.
    pub data: PageRef,
    /// What the cache keeps per page besides the bytes.
    pub meta: M,
    dirty: bool,
}

impl<M> Slot<M> {
    /// The page holds changes its backing store has not seen.
    pub fn dirty(&self) -> bool {
        self.dirty
    }
}

/// The end of the recency list: no node.
const NIL: u32 = u32::MAX;

/// A resident page in the slab, with its key and its neighbours in order of
/// last touch.
#[derive(Debug)]
struct Node<K, M> {
    key: K,
    slot: Slot<M>,
    /// The next less recently used node, [`NIL`] at the head.
    prev: u32,
    /// The next more recently used node, [`NIL`] at the tail.
    next: u32,
}

/// An LRU map of pages keyed by `K`, with an ordered index of its dirty
/// keys. [`PageStore::get`], [`PageStore::slot_mut`] and [`PageStore::put`]
/// make a page the most recently used; nothing else moves recency. The cache
/// over the store picks the capacity and the pages [`PageStore::evict_lru`]
/// may evict.
///
/// The pages live in a dense slab threaded by a doubly linked list, least
/// recently used at the head, and a hash index maps each key to its node.
/// A touch relinks one node at the tail; a removal unlinks its node and moves
/// the slab's last node into the freed place.
#[derive(Debug)]
pub struct PageStore<K, M> {
    nodes: Vec<Node<K, M>>,
    /// Each resident key's place in `nodes`.
    index: HashMap<K, u32>,
    /// The least recently used node, [`NIL`] when empty.
    head: u32,
    /// The most recently used node, [`NIL`] when empty.
    tail: u32,
    /// Exactly the keys of the resident pages whose dirty bit is set.
    dirty: BTreeSet<K>,
}

impl<K, M> Default for PageStore<K, M> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            dirty: BTreeSet::new(),
        }
    }
}

impl<K: Hash + Ord + Copy, M> PageStore<K, M> {
    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of resident dirty pages: the index's size, not a scan.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether a page is resident.
    pub fn contains(&self, key: K) -> bool {
        self.index.contains_key(&key)
    }

    /// A handle to a resident page, made the most recently used: one hash
    /// lookup, a relink and a reference-count bump.
    pub fn get(&mut self, key: K) -> Option<PageRef> {
        self.slot_mut(key).map(|slot| slot.data.clone())
    }

    /// A resident page to change, made the most recently used.
    pub fn slot_mut(&mut self, key: K) -> Option<&mut Slot<M>> {
        let at = *self.index.get(&key)?;
        self.touch(at);
        Some(&mut self.nodes[at as usize].slot)
    }

    /// A resident page, its recency untouched.
    pub fn slot(&self, key: K) -> Option<&Slot<M>> {
        self.index.get(&key).map(|&at| &self.nodes[at as usize].slot)
    }

    /// Installs a page as the most recently used and returns the one it
    /// replaced.
    pub fn put(&mut self, key: K, data: PageRef, dirty: bool, meta: M) -> Option<Slot<M>> {
        if dirty {
            self.dirty.insert(key);
        } else {
            self.dirty.remove(&key);
        }
        let slot = Slot { data, meta, dirty };
        let at = match self.index.entry(key) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let at = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&at| at != NIL)
                    .expect("fewer than u32::MAX resident pages");
                entry.insert(at);
                self.nodes.push(Node { key, slot, prev: NIL, next: NIL });
                self.link(self.tail, at);
                self.link(at, NIL);
                return None;
            }
        };
        self.touch(at);
        Some(std::mem::replace(&mut self.nodes[at as usize].slot, slot))
    }

    /// Sets a resident page's dirty bit, its recency untouched; `false` when
    /// the page is not resident.
    pub fn mark_dirty(&mut self, key: K) -> bool {
        let Some(&at) = self.index.get(&key) else { return false };
        let slot = &mut self.nodes[at as usize].slot;
        if !slot.dirty {
            slot.dirty = true;
            self.dirty.insert(key);
        }
        true
    }

    /// Drops a page, dirty or clean, and returns it.
    pub fn remove(&mut self, key: K) -> Option<Slot<M>> {
        let at = self.index.remove(&key)?;
        Some(self.take(at).1)
    }

    /// Keeps only the pages `keep` accepts: one scan of the whole slab.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &Slot<M>) -> bool) {
        let mut at = 0;
        while let Some(node) = self.nodes.get(at) {
            if keep(&node.key, &node.slot) {
                at += 1;
            } else {
                // The slab's last node moves into `at`: look at it next.
                self.index.remove(&node.key);
                self.take(at as u32);
            }
        }
    }

    /// Every resident page, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Slot<M>)> {
        self.nodes.iter().map(|node| (&node.key, &node.slot))
    }

    /// The dirty keys within `range`, ascending, read from the index.
    pub fn dirty_keys(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = K> + '_ {
        self.dirty.range(range).copied()
    }

    /// Clears the dirty bit of every dirty page within `range` and hands
    /// each to `cleaned`, in ascending key order; the pages stay resident and
    /// their recency is left alone. Costs the dirty pages it finds, not the
    /// resident ones: writeback's walk.
    pub fn clean(&mut self, range: impl RangeBounds<K>, mut cleaned: impl FnMut(K, &mut Slot<M>)) {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        while let Some(&key) = self.dirty.range(range).next() {
            self.dirty.remove(&key);
            let at = *self.index.get(&key).expect("the dirty index holds resident keys only");
            let slot = &mut self.nodes[at as usize].slot;
            slot.dirty = false;
            cleaned(key, slot);
        }
    }

    /// Removes and returns the least recently used page among those
    /// `evictable` accepts, or `None` when it accepts none. The victim search
    /// of both caches: a walk from the list's head that costs the pages it
    /// skips, none under the evict-any policy, the dirty pages older than
    /// the victim under the clean-only one.
    pub fn pop_lru_where(&mut self, evictable: impl Fn(&Slot<M>) -> bool) -> Option<(K, Slot<M>)> {
        let mut at = self.head;
        while at != NIL {
            let node = &self.nodes[at as usize];
            if evictable(&node.slot) {
                self.index.remove(&node.key);
                return Some(self.take(at));
            }
            at = node.next;
        }
        None
    }

    /// Evicts the least recently used pages `evictable` accepts, handing each
    /// to `victim`, until at most `capacity` pages are resident or none left
    /// is evictable: both caches' eviction, one [`PageStore::pop_lru_where`]
    /// per victim.
    pub fn evict_lru(
        &mut self,
        capacity: usize,
        evictable: impl Fn(&Slot<M>) -> bool,
        mut victim: impl FnMut(K, Slot<M>),
    ) {
        while self.nodes.len() > capacity {
            let Some((key, slot)) = self.pop_lru_where(&evictable) else { break };
            victim(key, slot);
        }
    }

    /// Makes `prev` and `next` neighbours; [`NIL`] on either side stands for
    /// the head or the tail.
    fn link(&mut self, prev: u32, next: u32) {
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
    }

    /// Moves node `at` to the tail, as the most recently used.
    fn touch(&mut self, at: u32) {
        if at != self.tail {
            let node = &self.nodes[at as usize];
            self.link(node.prev, node.next);
            self.link(self.tail, at);
            self.link(at, NIL);
        }
    }

    /// Drops node `at`, whose key has already left the index: unlinks it,
    /// swap-removes it from the slab and re-points the index entry and both
    /// neighbours of the node that moved into its place.
    fn take(&mut self, at: u32) -> (K, Slot<M>) {
        let node = &self.nodes[at as usize];
        self.link(node.prev, node.next);
        let node = self.nodes.swap_remove(at as usize);
        if let Some(moved) = self.nodes.get(at as usize) {
            let (key, prev, next) = (moved.key, moved.prev, moved.next);
            *self.index.get_mut(&key).expect("every node is indexed") = at;
            self.link(prev, at);
            self.link(at, next);
        }
        if node.slot.dirty {
            self.dirty.remove(&node.key);
        }
        (node.key, node.slot)
    }

    /// Panics unless the list, the index and the dirty index agree: a walk
    /// from the head visits every node once, over links that agree in both
    /// directions, each key's index entry is its node's place, and the dirty
    /// index holds exactly the resident dirty keys.
    #[cfg(test)]
    fn check_structure(&self) {
        let mut seen = vec![false; self.nodes.len()];
        let (mut prev, mut at) = (NIL, self.head);
        while at != NIL {
            assert!(!std::mem::replace(&mut seen[at as usize], true), "node {at} is walked twice");
            let node = &self.nodes[at as usize];
            assert_eq!(node.prev, prev, "node {at} links back to the wrong node");
            (prev, at) = (at, node.next);
        }
        assert_eq!(self.tail, prev, "the tail is not the walk's last node");
        assert!(seen.iter().all(|&walked| walked), "a node is off the list");
        assert_eq!(self.index.len(), self.nodes.len());
        for (at, node) in self.nodes.iter().enumerate() {
            assert_eq!(self.index.get(&node.key), Some(&(at as u32)), "stale index entry");
        }
        assert!(self.dirty.iter().all(|&key| self.slot(key).is_some_and(Slot::dirty)));
        assert_eq!(self.dirty.len(), self.nodes.iter().filter(|node| node.slot.dirty).count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random stream against a store.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        /// `put`, then evict down to the capacity, as both caches insert.
        Insert(u8, bool),
        /// `slot_mut`, change the bytes, then `mark_dirty`, as a cache write
        /// does.
        Write(u8),
        Remove(u8),
        /// Keep the keys whose bit is set.
        Retain(u64),
        /// `clean(lo..hi)` on a sub-range of the keys, as writeback cleans
        /// one file's pages.
        Clean(u8, u8),
        /// One `pop_lru_where`.
        Evict,
    }

    /// Steps over the keys `0..keys` (at most 64, the `Retain` mask's width).
    fn op(keys: u8) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..keys).prop_map(Op::Get),
            (0..keys, any::<bool>()).prop_map(|(k, dirty)| Op::Insert(k, dirty)),
            (0..keys).prop_map(Op::Write),
            (0..keys).prop_map(Op::Remove),
            any::<u64>().prop_map(Op::Retain),
            (0..keys + 1, 0..keys + 1).prop_map(|(a, b)| Op::Clean(a.min(b), a.max(b))),
            Just(Op::Evict),
        ]
    }

    fn take(model: &mut Vec<(u8, bool)>, key: u8) -> Option<bool> {
        model.iter().position(|(k, _)| *k == key).map(|at| model.remove(at).1)
    }

    /// The model's victims: its least recently touched pages the policy may
    /// evict, until `keep` pages are left or none may go.
    fn model_evict(model: &mut Vec<(u8, bool)>, clean_only: bool, keep: usize) -> Vec<u8> {
        let mut victims = Vec::new();
        while model.len() > keep {
            let Some(at) = model.iter().position(|(_, dirty)| !(clean_only && *dirty)) else {
                break;
            };
            victims.push(model.remove(at).0);
        }
        victims
    }

    /// The executable spec: under either policy — evict any page (the device
    /// DRAM cache) or clean pages only (the host page cache) — the store
    /// evicts the same victims in the same order as a list of `(key, dirty)`
    /// kept in order of last touch, least recent first, and holds the same
    /// pages with the same dirty bits. Its dirty index lists exactly the
    /// model's dirty keys, ascending, after every step, `clean` hands out the
    /// dirty keys of its range in ascending order without moving recency,
    /// and the list and both indexes pass [`PageStore::check_structure`].
    fn run_spec(ops: Vec<Op>, capacity: usize, clean_only: bool) {
        let evictable = |slot: &Slot<()>| !(clean_only && slot.dirty());
        let mut store: PageStore<u8, ()> = PageStore::default();
        let mut model: Vec<(u8, bool)> = Vec::new();
        for op in ops {
            match op {
                Op::Get(k) => {
                    let hit = take(&mut model, k).map(|dirty| model.push((k, dirty)));
                    prop_assert_eq!(store.get(k).is_some(), hit.is_some());
                }
                Op::Insert(k, dirty) => {
                    store.put(k, PageRef::new(vec![k]), dirty, ());
                    let mut got = Vec::new();
                    store.evict_lru(capacity, evictable, |k, _| got.push(k));
                    take(&mut model, k);
                    model.push((k, dirty));
                    prop_assert_eq!(got, model_evict(&mut model, clean_only, capacity));
                }
                Op::Write(k) => {
                    if let Some(slot) = store.slot_mut(k) {
                        slot.data.make_mut()[0] ^= 0x80;
                    }
                    let marked = store.mark_dirty(k);
                    let hit = take(&mut model, k).map(|_| model.push((k, true)));
                    prop_assert_eq!(marked, hit.is_some());
                }
                Op::Remove(k) => {
                    prop_assert_eq!(store.remove(k).map(|s| s.dirty()), take(&mut model, k));
                }
                Op::Retain(mask) => {
                    store.retain(|k, _| mask & (1 << k) != 0);
                    model.retain(|(k, _)| mask & (1 << k) != 0);
                }
                Op::Clean(lo, hi) => {
                    let mut got = Vec::new();
                    store.clean(lo..hi, |k, slot| got.push((k, slot.dirty())));
                    let mut want: Vec<(u8, bool)> = model
                        .iter_mut()
                        .filter(|(k, dirty)| *dirty && (lo..hi).contains(k))
                        .map(|(k, dirty)| {
                            *dirty = false;
                            (*k, false)
                        })
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Evict => {
                    let got: Vec<u8> =
                        store.pop_lru_where(evictable).map(|(k, _)| k).into_iter().collect();
                    let keep = model.len().saturating_sub(1);
                    prop_assert_eq!(got, model_evict(&mut model, clean_only, keep));
                }
            }
            store.check_structure();
            let mut resident: Vec<_> = store.iter().map(|(k, s)| (*k, s.dirty())).collect();
            resident.sort_unstable();
            let mut want = model.clone();
            want.sort_unstable();
            let want_dirty: Vec<u8> =
                want.iter().filter(|(_, dirty)| *dirty).map(|(k, _)| *k).collect();
            prop_assert_eq!(resident, want);
            prop_assert_eq!(store.dirty_len(), want_dirty.len());
            prop_assert_eq!(store.dirty_keys(..).collect::<Vec<_>>(), want_dirty);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The spec on a few keys and a small capacity: eviction is frequent
        /// and most steps hit a resident page.
        #[test]
        fn the_store_evicts_in_order_of_last_touch(
            ops in proptest::collection::vec(op(10), 1..120),
            capacity in 4..9usize,
            clean_only in any::<bool>(),
        ) {
            run_spec(ops, capacity, clean_only);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The spec on a wide key space and a long list, so that removals
        /// swap-remove nodes from the middle of the list with live
        /// neighbours on both sides.
        #[test]
        fn a_long_list_keeps_its_links_through_swap_removals(
            ops in proptest::collection::vec(op(64), 1..400),
            capacity in 4..49usize,
            clean_only in any::<bool>(),
        ) {
            run_spec(ops, capacity, clean_only);
        }
    }
}
