//! The crash tests that used to live scattered across the repo — the
//! workspace-level `crash_and_claims` crash cases, the sealed-region crash
//! case from `mssd/tests/cleaner_stress.rs` and the concurrent
//! crash-recovery case from `bytefs/tests/concurrency.rs` — ported onto
//! crashkit's power-cycle + checker machinery so there is exactly one
//! cut-power/remount implementation in the tree. Unlike the old
//! `dev.crash()` helper, `crashkit::power_cycle` does not assume the
//! capacitor flush completed: the write buffer crosses the power cycle
//! as-is and recovery handles it.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use crashkit::power_cycle;
use fskit::check::CrashConsistent;
use fskit::{FileSystem, FileSystemExt, OpenFlags};
use kvstore::{Db, DbOptions};
use mssd::log::PARTITION_BYTES;
use mssd::{Category, DramMode, Mssd, MssdConfig, TxId};

fn cfg_64m() -> MssdConfig {
    MssdConfig::default().with_capacity(64 << 20)
}

/// Ported from `tests/crash_and_claims.rs`: committed files survive
/// repeated power cycles; unsynced buffered writes may vanish. Every
/// remount now also passes the full fsck.
#[test]
fn committed_files_survive_repeated_crashes() {
    let mut device = Mssd::new(cfg_64m(), DramMode::WriteLog);
    let mut expected: Vec<(String, usize)> = Vec::new();
    for round in 0..3u32 {
        let fs = if round == 0 {
            ByteFs::format(Arc::clone(&device), ByteFsConfig::full()).unwrap()
        } else {
            ByteFs::mount(Arc::clone(&device), ByteFsConfig::full()).unwrap()
        };
        // Everything from previous rounds must still be there.
        for (path, len) in &expected {
            let data = fs.read_file(path).unwrap();
            assert_eq!(data.len(), *len, "{path} after {round} crashes");
        }
        let dir = format!("/round{round}");
        fs.mkdir(&dir).unwrap();
        for i in 0..20 {
            let path = format!("{dir}/f{i}");
            let len = 100 + (i * 37) % 5000;
            fs.write_file(&path, &vec![round as u8; len]).unwrap();
            expected.push((path, len));
        }
        // Unsynced buffered write that may be lost.
        let fd = fs.open(&format!("{dir}/f0"), OpenFlags::read_write()).unwrap();
        fs.write(fd, 0, &[0xFF; 16]).unwrap();
        assert!(fs.fsck().is_empty(), "round {round}: volume dirtied in memory");
        drop(fs);
        device = power_cycle(&device, cfg_64m());
        device.recover();
    }
    let fs = ByteFs::mount(device, ByteFsConfig::full()).unwrap();
    for (path, len) in &expected {
        assert_eq!(fs.read_file(path).unwrap().len(), *len);
    }
    assert!(fs.fsck().is_empty());
}

/// Ported from `tests/crash_and_claims.rs`: a cleanly closed KV store
/// survives a power cycle, and the reopened database passes the WAL-tail
/// checker.
#[test]
fn kv_store_data_survives_a_crash_on_bytefs() {
    let device = Mssd::new(cfg_64m(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&device), ByteFsConfig::full()).unwrap();
    {
        let db = Db::open(fs.clone(), "/db", DbOptions::small_test()).unwrap();
        for i in 0..300u32 {
            db.put(format!("key{i:05}").as_bytes(), &[i as u8; 200]).unwrap();
        }
        db.flush().unwrap();
        for i in 300..320u32 {
            db.put(format!("key{i:05}").as_bytes(), &[i as u8; 200]).unwrap();
        }
        // WAL group commit: force the tail to be durable before the crash.
        db.close().unwrap();
    }
    drop(fs);
    let device = power_cycle(&device, cfg_64m());
    device.recover();

    let fs = ByteFs::mount(device, ByteFsConfig::full()).unwrap();
    let db = Db::open(fs.clone(), "/db", DbOptions::small_test()).unwrap();
    for i in (0..320u32).step_by(13) {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(vec![i as u8; 200]),
            "key{i}"
        );
    }
    assert!(db.check_invariants().is_empty());
    assert!(fs.fsck().is_empty());
}

/// Ported from `mssd/tests/cleaner_stress.rs`: concurrent writers leave
/// committed and uncommitted entries behind, every shard's region is sealed
/// as if the cleaner had flipped them but not yet drained, and the power
/// dies. Recovery on the restored device must flush exactly the committed
/// entries.
#[test]
fn crash_recovery_with_sealed_undrained_regions() {
    const THREADS: usize = 4;
    let mut cfg = MssdConfig::small_test();
    cfg.capacity_bytes = 64 << 20; // one 16 MB partition (= log shard) per thread
    cfg.dram_region_bytes = 128 << 10;
    let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || {
                let base = t as u64 * PARTITION_BYTES;
                let committed_tx = TxId(((t as u32) << 8) | 1);
                let lost_tx = TxId(((t as u32) << 8) | 2);
                dev.try_byte_write(base, &[0xA0 + t as u8; 64], Some(committed_tx), Category::Data)
                    .unwrap();
                dev.try_byte_write(
                    base + 4096,
                    &[0xB0 + t as u8; 64],
                    Some(lost_tx),
                    Category::Data,
                )
                .unwrap();
                dev.commit(committed_tx);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Flip every shard's active region into the sealed slot, then crash
    // before anything drains: recovery must handle sealed regions.
    dev.seal_log_regions();
    let entries_before = dev.snapshot().log_entries;
    assert!(entries_before >= 2 * THREADS, "both writes of each thread still logged");

    let image = dev.crash_image();
    assert!(
        image.log_entries.iter().all(|e| e.sealed),
        "every entry crossed the crash inside a sealed region"
    );
    let dev = Mssd::from_crash_image(cfg, DramMode::WriteLog, &image);
    let report = dev.recover();
    assert_eq!(report.scanned_entries, entries_before);
    assert_eq!(report.discarded_entries, THREADS, "one uncommitted entry per thread");
    assert_eq!(dev.snapshot().log_entries, 0);
    for t in 0..THREADS as u64 {
        let base = t * PARTITION_BYTES;
        assert_eq!(
            dev.try_byte_read(base, 64, Category::Data).unwrap(),
            vec![0xA0 + t as u8; 64],
            "committed write of thread {t} survives"
        );
        assert_eq!(
            dev.try_byte_read(base + 4096, 64, Category::Data).unwrap(),
            vec![0u8; 64],
            "uncommitted write of thread {t} is discarded"
        );
    }
    assert!(dev.check_consistency().is_empty());
}

/// Ported from `bytefs/tests/concurrency.rs`: every thread fsyncs one file
/// and renames another (committed firmware transactions), leaves a third
/// dirty in the host page cache, then the machine dies. After the power
/// cycle the committed state must be intact, the uncommitted data absent,
/// and the volume fsck-clean.
#[test]
fn concurrent_crash_recovery_preserves_committed_operations() {
    const THREADS: usize = 8;
    let small = MssdConfig::small_test();
    let dev = Mssd::new(small.clone(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    for t in 0..THREADS {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let fs = Arc::clone(&fs);
            s.spawn(move || {
                let dir = format!("/t{t}");
                // Durable: written and fsynced.
                fs.write_file(&format!("{dir}/durable"), &vec![0xA0 + t as u8; 5_000]).unwrap();
                // Durable metadata: created+fsynced, then renamed.
                fs.write_file(&format!("{dir}/moved.tmp"), &vec![0xB0 + t as u8; 600]).unwrap();
                fs.rename(&format!("{dir}/moved.tmp"), &format!("{dir}/moved")).unwrap();
                // Volatile: created (committed) but its data never fsynced.
                let fd = fs.open(&format!("{dir}/volatile"), OpenFlags::create_rw()).unwrap();
                fs.write(fd, 0, &[0xFFu8; 2_000]).unwrap();
                // No fsync: the 2 000 bytes stay dirty in the host page
                // cache and die with the host.
            });
        }
    });
    drop(fs);
    let dev = power_cycle(&dev, small);
    dev.recover();

    let fs2 = ByteFs::mount(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    for t in 0..THREADS {
        let dir = format!("/t{t}");
        assert_eq!(
            fs2.read_file(&format!("{dir}/durable")).unwrap(),
            vec![0xA0 + t as u8; 5_000],
            "thread {t}: fsynced file survives the crash"
        );
        assert_eq!(
            fs2.read_file(&format!("{dir}/moved")).unwrap(),
            vec![0xB0 + t as u8; 600],
            "thread {t}: committed rename survives the crash"
        );
        assert!(!fs2.exists(&format!("{dir}/moved.tmp")), "thread {t}: old name is gone");
        let meta = fs2.stat(&format!("{dir}/volatile")).unwrap();
        assert_eq!(meta.size, 0, "thread {t}: unsynced page-cache data is lost");
    }
    assert!(fs2.fsck().is_empty(), "recovered volume must be fsck-clean");
}
