//! Multi-threaded stress tests of the sharded ByteFS host path.
//!
//! N threads issue mixed create/write/append/rename/unlink/fsync/readdir
//! traffic against one shared [`ByteFs`] — each thread inside its own
//! directory, so every thread's expected state is deterministic while all
//! the shared structures (namespace lock, inode shards, page-cache shards,
//! allocators, TxID counter, device) race. Afterwards the tests assert post-hoc
//! invariants: every thread's files read back exactly, the namespace agrees
//! with the expectations, unlinking everything returns the allocators to
//! their baseline, and a concurrent run is observationally equivalent to a
//! sequential replay of the same per-thread streams. (Crash recovery under
//! concurrency moved to the `crashkit` crate's ported suite.)

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{FileSystem, FileSystemExt, OpenFlags};
use mssd::{DramMode, Mssd, MssdConfig};

const THREADS: usize = 8;
const OPS: usize = 400;

/// Held by every test: the client-clock stress counts how often a turn gave
/// up on a client the host OS kept off its core, and another test's eight
/// threads would make that common.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic per-thread op stream (xorshift64).
struct Ops {
    state: u64,
}

impl Ops {
    fn new(seed: u64) -> Self {
        Self { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

fn new_fs() -> (Arc<Mssd>, Arc<ByteFs>) {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    (dev, fs)
}

/// Executes thread `t`'s operation stream: create / overwrite / `O_APPEND`
/// append / fsync / rename / unlink on files inside `/t{t}`, returning the
/// expected final content of every surviving file. At most ~32 files are
/// live at once so the thread's directory never outgrows one dentry block
/// (keeps the allocator-baseline check exact).
fn drive(fs: &dyn FileSystem, t: usize, ops: usize) -> BTreeMap<String, Vec<u8>> {
    let dir = format!("/t{t}");
    let mut rng = Ops::new(0xC0FFEE ^ (t as u64) << 24);
    let mut expected: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut serial = 0usize;
    for _ in 0..ops {
        match rng.next() % 10 {
            // Create a fresh file with a deterministic payload and fsync it.
            0..=3 => {
                if expected.len() >= 32 {
                    continue;
                }
                let path = format!("{dir}/f{serial}");
                serial += 1;
                let tag = (rng.next() % 251) as u8;
                let len = 64 + (rng.next() % 8000) as usize;
                let payload = vec![tag; len];
                fs.write_file(&path, &payload).unwrap();
                expected.insert(path, payload);
            }
            // Overwrite a range in an existing file, fsync.
            4 => {
                let Some(path) = nth_key(&expected, rng.next()) else { continue };
                let tag = (rng.next() % 251) as u8;
                let content = expected.get_mut(&path).unwrap();
                let off = (rng.next() as usize) % content.len();
                let len = ((rng.next() as usize) % 256 + 1).min(content.len() - off);
                let fd = fs.open(&path, OpenFlags::read_write()).unwrap();
                fs.write(fd, off as u64, &vec![tag; len]).unwrap();
                fs.fsync(fd).unwrap();
                fs.close(fd).unwrap();
                content[off..off + len].fill(tag);
            }
            // Append through `O_APPEND`, fsync.
            5 => {
                let Some(path) = nth_key(&expected, rng.next()) else { continue };
                let tag = (rng.next() % 251) as u8;
                let len = 1 + (rng.next() % 512) as usize;
                let fd = fs.open(&path, OpenFlags::read_write().with_append()).unwrap();
                fs.append(fd, &vec![tag; len]).unwrap();
                fs.fsync(fd).unwrap();
                fs.close(fd).unwrap();
                expected.get_mut(&path).unwrap().extend(std::iter::repeat_n(tag, len));
            }
            // Read back a file mid-run and check it against the expectation.
            6 => {
                let Some(path) = nth_key(&expected, rng.next()) else { continue };
                let got = fs.read_file(&path).unwrap();
                assert_eq!(&got, expected.get(&path).unwrap(), "thread {t} mid-run {path}");
            }
            // Rename within the thread's directory.
            7 => {
                let Some(path) = nth_key(&expected, rng.next()) else { continue };
                let to = format!("{dir}/r{serial}");
                serial += 1;
                fs.rename(&path, &to).unwrap();
                let content = expected.remove(&path).unwrap();
                expected.insert(to, content);
            }
            // Unlink.
            8 => {
                let Some(path) = nth_key(&expected, rng.next()) else { continue };
                fs.unlink(&path).unwrap();
                expected.remove(&path);
            }
            // Namespace reads under churn.
            _ => {
                let entries = fs.readdir(&dir).unwrap();
                assert_eq!(entries.len(), expected.len(), "thread {t} dir count");
                let Some(path) = nth_key(&expected, rng.next()) else { continue };
                let meta = fs.stat(&path).unwrap();
                assert_eq!(meta.size as usize, expected[&path].len(), "thread {t} {path} size");
            }
        }
    }
    expected
}

fn nth_key(map: &BTreeMap<String, Vec<u8>>, r: u64) -> Option<String> {
    if map.is_empty() {
        return None;
    }
    map.keys().nth((r as usize) % map.len()).cloned()
}

fn verify(fs: &dyn FileSystem, expected: &[BTreeMap<String, Vec<u8>>]) {
    for (t, files) in expected.iter().enumerate() {
        let entries = fs.readdir(&format!("/t{t}")).unwrap();
        assert_eq!(entries.len(), files.len(), "thread {t} final dir count");
        for (path, content) in files {
            assert_eq!(&fs.read_file(path).unwrap(), content, "thread {t} final {path}");
        }
    }
}

#[test]
fn concurrent_mixed_ops_stress() {
    let _serial = serial();
    let (_dev, fs) = new_fs();
    for t in 0..THREADS {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    // Materialize every directory's dentry block, then record the allocator
    // baseline the cleanup phase must return to.
    for t in 0..THREADS {
        fs.write_file(&format!("/t{t}/probe"), b"x").unwrap();
        fs.unlink(&format!("/t{t}/probe")).unwrap();
    }
    fs.sync().unwrap();
    let baseline_blocks = fs.allocated_blocks();
    let baseline_inodes = fs.allocated_inodes();

    let expected: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let fs = Arc::clone(&fs);
                s.spawn(move || drive(fs.as_ref(), t, OPS))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    fs.sync().unwrap();
    verify(fs.as_ref(), &expected);

    // Cleanup must return both allocators exactly to the post-setup baseline:
    // no leaked blocks, no leaked inodes, no double frees (those would panic).
    for (t, files) in expected.iter().enumerate() {
        for path in files.keys() {
            fs.unlink(path).unwrap();
        }
        assert!(fs.readdir(&format!("/t{t}")).unwrap().is_empty());
    }
    fs.sync().unwrap();
    assert_eq!(fs.allocated_blocks(), baseline_blocks, "no data/extent block leaked");
    assert_eq!(fs.allocated_inodes(), baseline_inodes, "no inode leaked");
}

#[test]
fn concurrent_run_survives_unmount_and_remount() {
    let _serial = serial();
    let (dev, fs) = new_fs();
    for t in 0..THREADS {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    let expected: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let fs = Arc::clone(&fs);
                s.spawn(move || drive(fs.as_ref(), t, OPS / 2))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    fs.unmount().unwrap();
    drop(fs);

    let fs2 = ByteFs::mount(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    verify(fs2.as_ref(), &expected);
}

/// The FS-level analogue of the device suite's replay test: the same
/// per-thread op streams, run concurrently on one volume and sequentially on
/// another, must leave observationally identical file systems (every thread's
/// namespace is private, so the interleaving may change physical block
/// placement but never logical content).
#[test]
fn concurrent_run_agrees_with_single_threaded_replay() {
    let _serial = serial();
    let (_dev_a, shared) = new_fs();
    for t in 0..THREADS {
        shared.mkdir(&format!("/t{t}")).unwrap();
    }
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let fs: Arc<dyn FileSystem> = Arc::clone(&shared) as _;
                s.spawn(move || drive(fs.as_ref(), t, OPS / 2))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let (_dev_b, replay) = new_fs();
    for t in 0..THREADS {
        replay.mkdir(&format!("/t{t}")).unwrap();
    }
    let replayed: Vec<_> = (0..THREADS).map(|t| drive(replay.as_ref(), t, OPS / 2)).collect();

    assert_eq!(concurrent, replayed, "per-thread op streams are deterministic");
    shared.sync().unwrap();
    replay.sync().unwrap();
    verify(shared.as_ref(), &concurrent);
    verify(replay.as_ref(), &replayed);
    // Logical observables agree even though physical placement may differ.
    assert_eq!(shared.allocated_inodes(), replay.allocated_inodes());
}

/// The mixed stress from two threads, each a client on the device with its
/// own ambient queue and clock. Every ByteFS lock held across a device
/// command is taken parked, so no turn waits on a client blocked on one of
/// them; a turn skips a client only when the host OS keeps it off its core,
/// fewer than once per 1 000 operations. A lock taken without parking shows
/// as skips: its holder, waiting for its turn on a client blocked on the
/// lock, gives up only after `mssd::clock::STALLED_CLIENT_WALL`.
#[test]
fn clients_on_their_own_clocks_wait_on_no_host_lock() {
    let _serial = serial();
    const CLIENTS: usize = 2;
    const OPS_EACH: usize = 10_000;
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        // A log that 20 000 operations clean about once: a threshold pass is
        // off the clock, so a turn can give up on a client that runs one.
        let cfg = MssdConfig::small_test().with_dram_region(4 << 20);
        let dev = Mssd::new(cfg, DramMode::WriteLog);
        let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
        for t in 0..CLIENTS {
            fs.mkdir(&format!("/t{t}")).unwrap();
        }
        let expected: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let (dev, fs) = (&dev, Arc::clone(&fs));
                    s.spawn(move || {
                        let queue = dev.open_queue(16);
                        let _ambient = queue.make_ambient();
                        drive(fs.as_ref(), t, OPS_EACH)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        fs.sync().unwrap();
        verify(fs.as_ref(), &expected);
        done.send(()).unwrap();
        (fs.fsck().len(), dev.traffic().client_clock_skips)
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
        panic!("two clients did not finish within 60 s");
    }
    let (violations, skips) = run.join().expect("the clients' run panicked");
    assert_eq!(violations, 0, "fsck-clean");
    let ops = (CLIENTS * OPS_EACH) as u64;
    assert!(skips * 1_000 < ops, "{skips} skipped clients in {ops} operations");
}

// NOTE: the concurrent crash-recovery case that used to live here moved to
// `crates/crashkit/tests/ported_crash_suites.rs`, on top of crashkit's
// power-cycle machinery (plus a post-recovery fsck).

/// Readers hammer files other threads are writing: per-inode RwLocks must
/// serialize each file's writes against its reads without ever deadlocking,
/// and a reader must only ever observe a prefix-consistent tagged payload.
#[test]
fn shared_file_readers_and_writers_stay_consistent() {
    let _serial = serial();
    let (_dev, fs) = new_fs();
    fs.mkdir("/shared").unwrap();
    const FILES: usize = 4;
    for f in 0..FILES {
        fs.write_file(&format!("/shared/f{f}"), &vec![0u8; 4096]).unwrap();
    }
    std::thread::scope(|s| {
        // Writers: each rewrites every file with its own tag, whole-page.
        for t in 0..4u64 {
            let fs = Arc::clone(&fs);
            s.spawn(move || {
                let mut rng = Ops::new(0xDEAD ^ (t << 16));
                for _ in 0..150 {
                    let f = rng.next() as usize % FILES;
                    let tag = 1 + (rng.next() % 250) as u8;
                    let fd = fs.open(&format!("/shared/f{f}"), OpenFlags::read_write()).unwrap();
                    fs.write(fd, 0, &vec![tag; 4096]).unwrap();
                    if rng.next().is_multiple_of(2) {
                        fs.fsync(fd).unwrap();
                    }
                    fs.close(fd).unwrap();
                }
            });
        }
        // Readers: whole-file reads must always see one uniform tag — a torn
        // read would prove a write was observed mid-flight.
        for t in 0..4u64 {
            let fs = Arc::clone(&fs);
            s.spawn(move || {
                let mut rng = Ops::new(0xBEEF ^ (t << 16));
                for _ in 0..150 {
                    let f = rng.next() as usize % FILES;
                    let data = fs.read_file(&format!("/shared/f{f}")).unwrap();
                    assert_eq!(data.len(), 4096);
                    let first = data[0];
                    assert!(
                        data.iter().all(|b| *b == first),
                        "torn read on /shared/f{f}: page mixes tags"
                    );
                }
            });
        }
    });
    fs.sync().unwrap();
}
