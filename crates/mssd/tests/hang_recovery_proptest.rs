//! Property tests of the host error-recovery layer: across randomized seeds,
//! hang rates and workload shapes, a device suffering *resolvable* injected
//! hangs (bounded and unbounded stalls, lost completions, lane wedges) that
//! the deadline/abort/retry layer rides out is observationally equivalent to
//! a fault-free device running the identical command stream — every byte
//! slot and block page reads back the same value before and after recovery,
//! and the committed-transaction set is the same. Retries are at-least-once
//! (a lost completion's command executed, and its retry executes again), so
//! the *log* may hold duplicate appends; the property pins that duplication
//! is invisible: per-location merge collapses it to the same final value.
//!
//! A second property pins reproducibility: the same seed over the same
//! faulted configuration converges to the same injected-fault counts and
//! the same post-recovery image digest. All hang detection and backoff runs
//! on the virtual clock — these cases take no wall-clock sleeps.

use std::sync::Arc;

use proptest::prelude::*;

use mssd::{
    Category, Command, DramMode, HangFaultConfig, HangFaultPlan, Mssd, MssdConfig, RetryPolicy,
    Runtime, TxId,
};

/// Logical clients submitting through the runtime.
const CLIENTS: usize = 4;
/// Reactor lanes shared by the clients.
const LANES: usize = 2;
/// SQ depth per lane.
const DEPTH: usize = 4;
/// 64-byte cacheline slots per client (disjoint, partition 0).
const SLOTS: u64 = 32;
/// Block pages per client (disjoint, partition 1).
const PAGES: u64 = 4;

/// Deterministic xorshift64 stream for the workload shape.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % bound
    }
}

fn device(hang: HangFaultPlan) -> Arc<Mssd> {
    let mut cfg = MssdConfig::small_test();
    // Partition 0 holds the clients' byte slots, partition 1 their block
    // pages.
    cfg.capacity_bytes = 32 << 20;
    cfg.dram_region_bytes = 16 << 10;
    cfg.log_clean_threshold = 0.999;
    cfg.hang = hang;
    Mssd::new(cfg, DramMode::WriteLog)
}

/// Drives the seeded workload to completion through `submit_with_retry`.
/// The command stream is a pure function of `seed` and `rounds` — the hang
/// plan changes *how* commands resolve, never *what* is submitted. Returns
/// `false` if any command failed to resolve `Ok` (retry budget exhausted),
/// which the equivalence property treats as a test-setup failure.
fn run_workload(dev: &Arc<Mssd>, seed: u64, rounds: usize) -> bool {
    let rt = Runtime::new(dev, LANES, DEPTH);
    let page_size = dev.page_size() as u64;
    let block_base = (16u64 << 20) / page_size; // partition 1
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let reactor = Arc::clone(rt.reactor());
            rt.spawn(async move {
                let mut rng = Rng::new(seed.wrapping_add((c as u64 + 1) << 8));
                let mut tx = TxId(((c as u32) + 1) << 16);
                let mut uncommitted = false;
                // A generous budget: resolvable hangs clear in one or two
                // attempts, and the property needs every command to resolve.
                let policy = RetryPolicy {
                    max_retries: 16,
                    ..RetryPolicy::default().with_seed(seed ^ (c as u64 + 1))
                };
                let line_base = c as u64 * SLOTS;
                let page_base = block_base + c as u64 * PAGES;
                let mut all_ok = true;
                for _ in 0..rounds {
                    let transactional = rng.below(3) == 0;
                    let run_len = 1 + rng.below(2);
                    let base_slot = rng.below(SLOTS - run_len);
                    let tag = 1 + rng.below(250) as u8;
                    let mut cmds = Vec::new();
                    for i in 0..run_len {
                        let line = line_base + base_slot + i;
                        cmds.push(Command::ByteWrite {
                            addr: line * 64,
                            data: vec![tag.wrapping_add(i as u8); 64],
                            txid: transactional.then_some(tx),
                            cat: Category::Data,
                        });
                    }
                    if transactional {
                        uncommitted = true;
                    }
                    match rng.below(8) {
                        0 if uncommitted => {
                            cmds.push(Command::Commit { txid: tx });
                            tx = TxId(tx.0 + 1);
                            uncommitted = false;
                        }
                        1 | 2 => {
                            let lba = page_base + rng.below(PAGES);
                            let ptag = 1 + rng.below(250) as u8;
                            cmds.push(Command::BlockWrite {
                                lba,
                                data: vec![ptag; page_size as usize],
                                cat: Category::Data,
                            });
                        }
                        3 => {
                            cmds.push(Command::Flush);
                        }
                        _ => {}
                    }
                    for cmd in cmds {
                        let (out, _retries) = reactor.submit_with_retry(c, cmd, policy).await;
                        match out {
                            Ok(c) if c.status.is_ok() => {}
                            _ => all_ok = false,
                        }
                    }
                }
                all_ok
            })
        })
        .collect();
    rt.block_on(async move {
        let mut ok = true;
        for h in handles {
            ok &= h.await;
        }
        ok
    })
}

/// Reads back every client's byte slots and block pages.
fn observe(dev: &Arc<Mssd>) -> Vec<Vec<u8>> {
    let page_size = dev.page_size() as u64;
    let block_base = (16u64 << 20) / page_size;
    let mut out = Vec::new();
    for c in 0..CLIENTS as u64 {
        for s in 0..SLOTS {
            out.push(dev.try_byte_read((c * SLOTS + s) * 64, 64, Category::Data).unwrap());
        }
        for p in 0..PAGES {
            out.push(dev.try_block_read(block_base + c * PAGES + p, 1, Category::Data).unwrap());
        }
    }
    out
}

fn hang_plan(seed: u64, stall: f64, unbounded: f64, loss: f64, wedge: f64) -> HangFaultPlan {
    HangFaultPlan::new(HangFaultConfig {
        seed,
        stall_rate: stall,
        stall_min_ns: 50_000,
        stall_max_ns: 2_000_000,
        unbounded_stall_rate: unbounded,
        loss_rate: loss,
        wedge_rate: wedge,
        ..HangFaultConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// A faulted run whose every hang resolves through timeout/abort/retry
    /// reads back identically to the fault-free run of the same stream —
    /// before recovery, and after a recovery replay on both.
    #[test]
    fn resolvable_hangs_plus_retry_are_equivalent_to_fault_free(
        seed in any::<u64>(),
        hang_seed in any::<u64>(),
        rounds in 6usize..12,
        stall_sel in 0u64..150,
        unbounded_sel in 0u64..500,
        loss_sel in 0u64..100,
        wedge_sel in 0u64..50,
    ) {
        let stall = 0.05 + stall_sel as f64 / 1000.0;
        let unbounded = unbounded_sel as f64 / 1000.0;
        let loss = 0.02 + loss_sel as f64 / 1000.0;
        let wedge = wedge_sel as f64 / 1000.0;

        let clean = device(HangFaultPlan::disabled());
        prop_assert!(run_workload(&clean, seed, rounds), "fault-free run failed to resolve");

        let faulted = device(hang_plan(hang_seed, stall, unbounded, loss, wedge));
        prop_assert!(
            run_workload(&faulted, seed, rounds),
            "a resolvable hang exhausted the retry budget"
        );

        prop_assert_eq!(
            observe(&clean),
            observe(&faulted),
            "pre-recovery reads diverged under injected hangs"
        );

        // Recovery replays the (possibly duplicate-append) logs; committed
        // transactions survive on both, uncommitted chunks die on both.
        clean.recover();
        faulted.recover();
        prop_assert_eq!(
            observe(&clean),
            observe(&faulted),
            "post-recovery reads diverged under injected hangs"
        );
    }

    /// Same seed, same faulted configuration: same injected-hang counts and
    /// the same post-recovery image digest — a hang report is reproducible.
    #[test]
    fn faulted_runs_are_deterministic_per_seed(
        seed in any::<u64>(),
        hang_seed in any::<u64>(),
        rounds in 6usize..10,
    ) {
        let run = || {
            let dev = device(hang_plan(hang_seed, 0.12, 0.3, 0.08, 0.04));
            let resolved = run_workload(&dev, seed, rounds);
            dev.recover();
            (resolved, dev.config().hang.injected_total(), dev.crash_image().digest())
        };
        let (oka, ia, da) = run();
        let (okb, ib, db) = run();
        prop_assert!(oka && okb, "a hang exhausted the retry budget");
        prop_assert_eq!(ia, ib, "injected-hang counts diverged between identical runs");
        prop_assert_eq!(da, db, "post-recovery digests diverged between identical runs");
    }
}
