//! Direct probes of small public functions that the workloads call millions
//! of times but cannot time one by one: each probe times a batch of calls on
//! a standalone instance and reports host nanoseconds per call, the fastest
//! of a few batches.

use std::hint::black_box;
use std::time::Instant;

use fskit::pagecache::{PageRef, ShardedPageCache};
use mssd::{Clock, DramMode, Mssd, MssdConfig};

const PAGE: usize = 4096;
/// Page-cache geometry of the probes: ByteFS's shard count and the
/// `web_read_miss` capacity.
const SHARDS: usize = 16;
const CACHE_PAGES: usize = 4096;
const BATCHES: usize = 5;

/// Fastest batch, in nanoseconds per call. `batch` sets its own state up
/// and returns `(elapsed ns, calls)` of its timed part only.
fn fastest(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let (ns, calls) = batch();
            ns as f64 / calls.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn timed(calls: u64, mut body: impl FnMut(u64)) -> (u64, u64) {
    let start = Instant::now();
    for i in 0..calls {
        body(i);
    }
    (start.elapsed().as_nanos() as u64, calls)
}

fn full_cache(page: &PageRef) -> ShardedPageCache {
    let cache = ShardedPageCache::new(SHARDS, CACHE_PAGES, PAGE, true);
    for i in 0..CACHE_PAGES as u64 {
        cache.insert_clean(1, i, page.clone());
    }
    cache
}

/// `(get_hit, insert_evict)`: a hit on a resident page; an insert into a
/// full cache, which evicts the least recently used clean page.
pub fn pagecache_read_side() -> (f64, f64) {
    let page = PageRef::zeroed(PAGE);
    let cache = full_cache(&page);
    // Shards fill unevenly, so some of the 4096 inserts already evicted:
    // probe only pages that are resident now.
    let resident: Vec<u64> = (0..CACHE_PAGES as u64).filter(|i| cache.contains(1, *i)).collect();
    let get_hit = fastest(|| {
        timed(200_000, |i| {
            black_box(cache.get(1, resident[i as usize % resident.len()]));
        })
    });
    let mut next = CACHE_PAGES as u64;
    let insert_evict = fastest(|| {
        timed(50_000, |_| {
            cache.insert_clean(2, next, page.clone());
            next += 1;
        })
    });
    (get_hit, insert_evict)
}

/// `(write_cow, take_dirty)`: the first 256 B write to a clean resident page
/// (captures the CoW original and copies the page); `take_dirty` of an inode
/// with one dirty page while 4096 pages are resident.
pub fn pagecache_write_side() -> (f64, f64) {
    let page = PageRef::zeroed(PAGE);
    let row = [0xA5u8; 256];
    let write_cow = fastest(|| {
        let cache = full_cache(&page);
        let resident: Vec<u64> =
            (0..CACHE_PAGES as u64).filter(|i| cache.contains(1, *i)).collect();
        timed(resident.len() as u64, |i| {
            black_box(cache.write(1, resident[i as usize], 512, &row));
        })
    });
    let cache = full_cache(&page);
    cache.insert_clean(7, 0, page.clone());
    let take_dirty = fastest(|| {
        timed(200, |_| {
            cache.write(7, 0, 512, &row);
            black_box(cache.take_dirty(7));
        })
    });
    (write_cow, take_dirty)
}

/// One `Clock::advance`.
pub fn clock_advance() -> f64 {
    let clock = Clock::new();
    fastest(|| {
        timed(1_000_000, |_| {
            black_box(clock.advance(black_box(1)));
        })
    })
}

/// One `Mssd::snapshot` of an idle small device.
pub fn stats_snapshot() -> f64 {
    let device = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    fastest(|| {
        timed(2_000, |_| {
            black_box(device.snapshot());
        })
    })
}
