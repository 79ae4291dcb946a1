//! Criterion micro-benchmarks of the core data structures the paper's design
//! leans on: write-log append/merge (and through it the log index), the XOR
//! dirty-chunk scan, the extent tree and the bitmap allocators.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bytefs::alloc::BitmapAllocator;
use bytefs::extent::ExtentTree;
use fskit::pagecache::{dirty_chunks, modified_ratio};
use mssd::log::WriteLog;
use mssd::MssdConfig;

fn bench_write_log(c: &mut Criterion) {
    c.bench_function("writelog_append_64B", |b| {
        let cfg = MssdConfig::default();
        let mut log = WriteLog::new(&cfg);
        let data = [0xAAu8; 64];
        let mut i = 0u64;
        b.iter(|| {
            if log.append(i % 4096, ((i * 64) % 4096) as usize, &data, None).is_err() {
                log.reset();
            }
            i += 1;
        })
    });
    c.bench_function("writelog_merge_page", |b| {
        let cfg = MssdConfig::default();
        let mut log = WriteLog::new(&cfg);
        for i in 0..32 {
            log.append(5, i * 64, &[i as u8; 64], None).unwrap();
        }
        let mut page = vec![0u8; 4096];
        b.iter(|| log.merge_into(5, black_box(&mut page)))
    });
}

fn bench_xor_diff(c: &mut Criterion) {
    let original = vec![0u8; 4096];
    let mut current = original.clone();
    for i in (0..4096).step_by(512) {
        current[i] = 1;
    }
    c.bench_function("xor_dirty_chunks_4k", |b| {
        b.iter(|| dirty_chunks(black_box(&original), black_box(&current), 64))
    });
    c.bench_function("xor_modified_ratio_4k", |b| {
        b.iter(|| modified_ratio(black_box(&original), black_box(&current), 64))
    });
}

fn bench_extents_and_bitmap(c: &mut Criterion) {
    c.bench_function("extent_tree_sequential_insert_1k", |b| {
        b.iter(|| {
            let mut tree = ExtentTree::new();
            for i in 0..1000u64 {
                tree.insert(i, 10_000 + i);
            }
            tree.len()
        })
    });
    let mut tree = ExtentTree::new();
    for i in 0..1000u64 {
        tree.insert(i * 2, 5_000 + i * 3);
    }
    c.bench_function("extent_tree_lookup", |b| b.iter(|| black_box(tree.lookup(black_box(998)))));
    c.bench_function("bitmap_allocate_free", |b| {
        let mut alloc = BitmapAllocator::new(1 << 20);
        b.iter(|| {
            let idx = alloc.allocate().expect("space available");
            alloc.free(idx);
        })
    });
}

criterion_group!(
    name = structures;
    config = Criterion::default().sample_size(20);
    targets = bench_write_log, bench_xor_diff, bench_extents_and_bitmap
);
criterion_main!(structures);
