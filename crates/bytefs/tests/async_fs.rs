//! Interleaving integration test: many logical clients, each a future on the
//! one-thread [`mssd::Executor`], drive one shared sync [`ByteFs`] and yield
//! between calls; the results must be exactly what a sequential client would
//! have produced. What it checks is per-call interleaving at the yield points
//! — FIFO, so the same schedule every run. Thread parallelism is the subject
//! of `tests/{concurrency,lock_interleave}.rs` here and
//! `tests/concurrent_differential.rs` at the workspace root.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{FileSystem, FileSystemExt};
use mssd::reactor::yield_now;
use mssd::{DramMode, Executor, Mssd, MssdConfig};

fn new_fs() -> (Arc<Mssd>, Arc<ByteFs>) {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    (dev, fs)
}

/// The deterministic payload client `c` writes into its file `i`.
fn payload(c: usize, i: usize) -> Vec<u8> {
    vec![(c * 31 + i) as u8; 256 + i * 13]
}

#[test]
fn concurrent_async_clients_share_one_bytefs() {
    const CLIENTS: usize = 24;
    const FILES: usize = 6;

    let (_dev, fs) = new_fs();
    let exec = Executor::new();

    // Each client owns one directory and round-trips its own files; it
    // yields after every file-system call, so the 24 clients interleave per
    // operation, round-robin.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let fs = Arc::clone(&fs);
            exec.spawn(async move {
                let dir = format!("/client{c}");
                fs.mkdir(&dir).unwrap();
                yield_now().await;
                for i in 0..FILES {
                    fs.write_file(&format!("{dir}/f{i}"), &payload(c, i)).unwrap();
                    yield_now().await;
                }
                // Rename one file and delete another mid-stream to exercise
                // the namespace under interleaving.
                fs.rename(&format!("{dir}/f0"), &format!("{dir}/renamed")).unwrap();
                yield_now().await;
                fs.unlink(&format!("{dir}/f1")).unwrap();
                yield_now().await;
                for i in 2..FILES {
                    let back = fs.read_file(&format!("{dir}/f{i}")).unwrap();
                    assert_eq!(back, payload(c, i), "client {c} file {i}");
                    yield_now().await;
                }
                fs.sync().unwrap();
            })
        })
        .collect();
    for h in handles {
        exec.block_on(h);
    }

    // The interleaved clients left exactly the expected namespace and
    // contents behind, and a consistent image.
    for c in 0..CLIENTS {
        let dir = format!("/client{c}");
        let names: Vec<String> = fs.readdir(&dir).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names.len(), FILES - 1, "client {c}: renamed kept, f1 gone");
        assert!(names.iter().any(|n| n == "renamed"));
        assert!(!names.iter().any(|n| n == "f1"));
        assert_eq!(fs.read_file(&format!("{dir}/renamed")).unwrap(), payload(c, 0));
        for i in 2..FILES {
            assert_eq!(fs.read_file(&format!("{dir}/f{i}")).unwrap(), payload(c, i));
        }
    }
    let violations = fs.fsck();
    assert!(violations.is_empty(), "fsck after interleaved clients: {violations:?}");
}
