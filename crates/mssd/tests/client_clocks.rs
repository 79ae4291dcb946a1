//! Client clocks (`DESIGN-time.md`, "Client clocks and turns"): a thread
//! that makes its queue ambient carries its own virtual time, and commands
//! that book the link or the NAND array run in virtual-time order.
//!
//! One client is exactly the plain sum; several overlap their fixed command
//! overheads but never beat the link's bandwidth or the array's programs;
//! the turn order repeats; and the `Clock` primitives — per-thread clients,
//! nested guards, the frontier, parking, skipping a stalled client — do what
//! they say.
//!
//! Every test holds `SERIAL`: a client that the host OS deschedules for
//! longer than `STALLED_CLIENT_WALL` is skipped, and a second test competing
//! for the cores would make that common.

use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Instant;

use proptest::prelude::*;

use mssd::clock::STALLED_CLIENT_WALL;
use mssd::{Category, Clock, DramMode, Mssd, MssdConfig, TxId, PAGE_SIZE};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A seeded xorshift64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        let mut x = self.0 | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Byte writes (plain and in transactions), block writes, both reads,
/// COMMITs and FLUSHes, drawn from `seed`.
fn mixed_stream(dev: &Mssd, seed: u64) {
    let mut s = Stream(seed);
    let mut txid = 0;
    for _ in 0..400 {
        let lba = s.below(256);
        match s.below(7) {
            0 => {
                let tx = (s.below(2) == 0).then(|| {
                    txid += 1;
                    TxId(txid)
                });
                let addr = lba * PAGE_SIZE as u64 + s.below(60) * 64;
                dev.try_byte_write(addr, &[s.next() as u8; 192], tx, Category::Inode).unwrap();
                if let Some(tx) = tx {
                    dev.commit(tx);
                }
            }
            1 | 2 => {
                let pages = 1 + s.below(4) as usize;
                let data = vec![s.next() as u8; pages * PAGE_SIZE];
                dev.try_block_write(lba, &data, Category::Data).unwrap();
            }
            3 => drop(dev.try_byte_read(lba * PAGE_SIZE as u64, 128, Category::Inode).unwrap()),
            4 => drop(dev.try_block_read(lba, 2, Category::Data).unwrap()),
            5 => dev.commit(TxId(1_000_000 + s.below(1_000) as u32)),
            _ => dev.try_flush().unwrap(),
        }
    }
}

#[test]
fn one_client_clock_is_the_plain_sum() {
    let _serial = serial();
    for seed in [3, 101, 0xC10C] {
        let plain = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        mixed_stream(&plain, seed);

        let client = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let queue = client.open_queue(4);
        let ambient = queue.make_ambient();
        mixed_stream(&client, seed);
        assert_eq!(client.clock().now_ns(), plain.clock().now_ns(), "seed {seed}: inside");
        drop(ambient);

        assert_eq!(client.clock().now_ns(), plain.clock().now_ns(), "seed {seed}: after");
        let traffic = |dev: &Mssd| {
            let mut t = dev.traffic();
            t.queues.clear(); // the one thing the ambient queue changes
            t
        };
        assert_eq!(traffic(&client), traffic(&plain), "seed {seed}");
        assert_eq!(client.traffic().client_clock_skips, 0);
        assert_eq!(client.crash_image().digest(), plain.crash_image().digest(), "seed {seed}");
    }
}

/// What one client of a K-client run issues: block writes of `pages`
/// pages (1 up to it) at LBAs of its own, each followed by a COMMIT with
/// probability 1/2, and a FLUSH at the end.
#[derive(Debug, Clone, Copy)]
struct Load {
    commands: usize,
    pages: u64,
}

/// Link bytes the stream of client `k` moves.
fn run_client(dev: &Mssd, load: Load, seed: u64, k: u64) -> u64 {
    let mut s = Stream(seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut bytes = 0;
    for i in 0..load.commands {
        let pages = 1 + s.below(load.pages);
        let lba = k * 512 + s.below(512 - pages);
        let data = vec![i as u8; pages as usize * PAGE_SIZE];
        dev.try_block_write(lba, &data, Category::Data).unwrap();
        bytes += data.len() as u64;
        if s.below(2) == 0 {
            dev.commit(TxId((k as u32) << 16 | i as u32));
        }
    }
    dev.try_flush().unwrap();
    bytes
}

/// Runs `clients` clients of `load` side by side, each on its own ambient
/// queue; returns the frontier at the end and the link bytes moved.
fn run_side_by_side(cfg: &MssdConfig, load: Load, seed: u64, clients: u64) -> (Arc<Mssd>, u64) {
    let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let start = Barrier::new(clients as usize);
    let bytes: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let (dev, start) = (&dev, &start);
                scope.spawn(move || {
                    let queue = dev.open_queue(4);
                    let _ambient = queue.make_ambient();
                    // Every client starts at time zero.
                    start.wait();
                    run_client(dev, load, seed, k)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    (dev, bytes)
}

/// [`run_side_by_side`] until a run in which no client was skipped. A skip
/// means the host OS kept a client off its core for `STALLED_CLIENT_WALL`
/// (or woke it late from the start barrier); from then on the order of the
/// clients' bookings is the host scheduler's, not virtual time, and only the
/// physical bounds still hold.
fn run_unskipped(cfg: &MssdConfig, load: Load, seed: u64, clients: u64) -> (Arc<Mssd>, u64) {
    (0..20)
        .map(|_| run_side_by_side(cfg, load, seed, clients))
        .find(|(dev, _)| dev.traffic().client_clock_skips == 0)
        .expect("the host kept a client off its core in each of 20 runs")
}

/// A device whose array programs 30× faster than `small_test()`'s: one
/// client's commands, not the array, bound a run.
fn fast_nand() -> MssdConfig {
    MssdConfig { flash_write_ns: 2_000, ..MssdConfig::small_test() }
}

/// One-page commands with COMMITs: not NAND-bound on `fast_nand()`.
const OVERHEAD_BOUND: Load = Load { commands: 60, pages: 1 };
/// Up to four pages a command: NAND-bound on `small_test()`.
const NAND_BOUND: Load = Load { commands: 60, pages: 4 };

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// With 1, 2 or 4 clients the run ends no earlier than the link's
    /// bandwidth and the array's programs allow. Two clients whose commands
    /// are mostly fixed overhead overlap it: they finish in at most 0.6 × the
    /// time the two take one after the other. Two clients that the array
    /// bounds finish within 5 % of the array's time.
    #[test]
    fn clients_overlap_up_to_the_link_and_the_array(seed in any::<u64>()) {
        let _serial = serial();
        for (cfg, load) in [(fast_nand(), OVERHEAD_BOUND), (MssdConfig::small_test(), NAND_BOUND)] {
            for clients in [1, 2, 4] {
                let (dev, bytes) = if clients == 2 {
                    run_unskipped(&cfg, load, seed, clients)
                } else {
                    run_side_by_side(&cfg, load, seed, clients)
                };
                let t = dev.traffic();
                let programs = t.flash_write_pages + t.flash_internal_write_pages;
                let array = programs * cfg.flash_write_ns / cfg.channels as u64;
                let link = cfg.transfer_ns(bytes as usize, false);
                let end = dev.clock().now_ns();
                prop_assert!(end >= array, "{clients} clients: {end} ns < array {array} ns");
                prop_assert!(end >= link, "{clients} clients: {end} ns < link {link} ns");
                if clients != 2 {
                    continue;
                }
                if load.pages == 1 {
                    let alone: u64 = (0..2)
                        .map(|k| {
                            let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
                            run_client(&dev, load, seed, k);
                            dev.clock().now_ns()
                        })
                        .sum();
                    prop_assert!(
                        end * 10 <= alone * 6,
                        "two clients side by side took {end} ns, one after the other {alone} ns"
                    );
                } else {
                    prop_assert!(
                        end * 100 <= array * 105,
                        "two NAND-bound clients took {end} ns, the array needs {array} ns"
                    );
                }
            }
        }
    }
}

#[test]
fn two_clients_repeat_their_run() {
    let _serial = serial();
    for (cfg, load) in [(fast_nand(), OVERHEAD_BOUND), (MssdConfig::small_test(), NAND_BOUND)] {
        let ends: Vec<u64> =
            (0..5).map(|_| run_unskipped(&cfg, load, 7, 2).0.clock().now_ns()).collect();
        let (lo, hi) = (*ends.iter().min().unwrap(), *ends.iter().max().unwrap());
        assert!((hi - lo) * 100 <= lo, "{load:?}: five runs spread over {ends:?}");
    }
}

#[test]
fn two_clocks_on_one_thread_do_not_mix() {
    let _serial = serial();
    let (x, y) = (Clock::new(), Clock::new());
    y.advance(7);
    let client = x.start_client();
    x.advance(100);
    y.advance(5);
    assert_eq!((x.now_ns(), y.now_ns()), (100, 12), "only x's time is the client's");
    drop(client);
    assert_eq!((x.now_ns(), y.now_ns()), (100, 12));
}

#[test]
fn a_guard_restores_the_previous_client() {
    let _serial = serial();
    let clock = Clock::new();
    let outer = clock.start_client();
    clock.advance(10);
    {
        let _inner = clock.start_client();
        assert_eq!(clock.now_ns(), 10, "a client starts at the frontier");
        clock.advance(5);
        assert_eq!(clock.now_ns(), 15);
    }
    assert_eq!(clock.now_ns(), 10, "back on the outer client");
    clock.advance(1);
    drop(outer);
    assert_eq!(clock.now_ns(), 15, "the plain sum keeps the later end");
}

#[test]
fn off_the_clock_now_is_the_frontier() {
    let _serial = serial();
    let clock = Clock::new();
    let (ran, end) = (mpsc::channel(), mpsc::channel::<()>());
    std::thread::scope(|scope| {
        let c = &clock;
        scope.spawn(move || {
            let _client = c.start_client();
            c.advance(500);
            ran.0.send(()).unwrap();
            end.1.recv().unwrap();
        });
        ran.1.recv().unwrap();
        assert_eq!(clock.advance(100), 100, "off the clock, advance moves the plain sum");
        assert_eq!(clock.now_ns(), 500, "the client is ahead of the plain sum");
        end.0.send(()).unwrap();
    });
    assert_eq!(clock.now_ns(), 500, "the ended client left its time");
}

#[test]
fn a_parked_client_holds_nobody_back() {
    let _serial = serial();
    let clock = Clock::new();
    let (parked, end) = (mpsc::channel(), mpsc::channel::<()>());
    std::thread::scope(|scope| {
        let c = &clock;
        scope.spawn(move || {
            let _client = c.start_client();
            let _parked = c.park();
            parked.0.send(()).unwrap();
            end.1.recv().unwrap();
        });
        parked.1.recv().unwrap();
        let _client = clock.start_client();
        clock.advance(1_000_000);
        assert_eq!(clock.take_turn(), 0, "nobody to wait for, nobody skipped");
        end.0.send(()).unwrap();
    });
}

#[test]
fn a_stalled_client_is_skipped_and_counted() {
    let _serial = serial();
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    let (step, done) = (mpsc::channel::<()>(), mpsc::channel());
    std::thread::scope(|scope| {
        let d = &dev;
        scope.spawn(move || {
            let queue = d.open_queue(4);
            let _ambient = queue.make_ambient();
            done.0.send(()).unwrap();
            // Stands still until told to move once, then until the end.
            step.1.recv().unwrap();
            d.clock().advance(1);
            done.0.send(()).unwrap();
            step.1.recv().unwrap();
        });
        done.1.recv().unwrap();
        let queue = dev.open_queue(4);
        let _ambient = queue.make_ambient();
        dev.clock().advance(100_000);
        let write = || dev.try_block_write(0, &[1; PAGE_SIZE], Category::Data).unwrap();

        let waited = Instant::now();
        write();
        assert!(waited.elapsed() >= STALLED_CLIENT_WALL, "the turn waited first");
        assert_eq!(dev.traffic().client_clock_skips, 1);
        write();
        assert_eq!(dev.traffic().client_clock_skips, 1, "skipped until it moves");

        step.0.send(()).unwrap();
        done.1.recv().unwrap();
        write();
        assert_eq!(dev.traffic().client_clock_skips, 2, "it moved, stalled again");
        step.0.send(()).unwrap();
    });
}
