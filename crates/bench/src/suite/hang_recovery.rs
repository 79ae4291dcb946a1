//! `hang_recovery`: per-command **virtual-clock** latency, submission to
//! final resolution (timeout + backoff + retries included), of one seeded
//! multi-client stream on a fault-free device versus one whose
//! [`mssd::HangFaultPlan`] injects stalls, lost completions and lane wedges
//! at a combined 1e-3 per-command rate. Host-independent and deterministic.
//! Why it exists and how to read it: `DESIGN.md`.

use std::sync::Arc;

use mssd::{
    Category, Command, DramMode, HangFaultConfig, HangFaultPlan, Mssd, MssdConfig, RetryPolicy,
    Runtime, TxId,
};
use workloads::{Histogram, Scale};

use crate::drive::{round3, XorShift};
use crate::{BenchEntry, BenchReport};

/// Commands per client at scale 1.0.
const CMDS_PER_CLIENT: usize = 5_000;

/// Logical clients submitting as futures.
const CLIENTS: usize = 4;

/// Reactor lanes (queue pairs) the clients share.
const LANES: usize = 2;

/// SQ depth per lane.
const DEPTH: usize = 4;

/// 64-byte byte-interface slots per client (disjoint, partition 0).
const SLOTS: u64 = 64;

/// Block pages per client (disjoint, partition 1).
const PAGES: u64 = 8;

/// The 1e-3 combined fail-slow regime: half stalls (a third of them
/// unbounded), the rest lost completions and the occasional lane wedge.
fn hang_plan() -> HangFaultPlan {
    HangFaultPlan::new(HangFaultConfig {
        seed: 0x4A6_5EED,
        stall_rate: 5e-4,
        stall_min_ns: 100_000,
        stall_max_ns: 5_000_000,
        unbounded_stall_rate: 0.34,
        loss_rate: 3e-4,
        wedge_rate: 2e-4,
        ..HangFaultConfig::default()
    })
}

/// Drives the seeded stream once through the async runtime (the calling
/// thread pumps the executor, so the run — and with it every
/// virtual-clock number — is deterministic) and returns its report entry.
fn measure(key: &str, faulted: bool, cmds_per_client: usize) -> BenchEntry {
    let mut cfg = MssdConfig::small_test();
    // Partition 0 holds the clients' byte slots, partition 1 their pages.
    cfg.capacity_bytes = 32 << 20;
    if faulted {
        cfg.hang = hang_plan();
    }
    let dev = Mssd::new(cfg, DramMode::WriteLog);
    let page_size = dev.page_size() as u64;
    let block_base = (16u64 << 20) / page_size;

    let rt = Runtime::new(&dev, LANES, DEPTH);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let reactor = Arc::clone(rt.reactor());
            let clock = dev.clock();
            rt.spawn(async move {
                let mut rng = XorShift(0x4A6_0B17 ^ ((c as u64 + 1) << 32) | 1);
                let mut tx = TxId(((c as u32) + 1) << 16);
                let mut uncommitted = false;
                let policy = RetryPolicy::default().with_seed(0xBAC_0FF ^ (c as u64 + 1));
                let line_base = c as u64 * SLOTS;
                let page_base = block_base + c as u64 * PAGES;
                let mut lats = Histogram::new();
                let mut recovered = 0u64;
                for _ in 0..cmds_per_client {
                    let cmd = match rng.below(100) {
                        // Byte write of one cacheline (transactional 1 in 4).
                        0..=59 => {
                            let line = line_base + rng.below(SLOTS);
                            let transactional = rng.below(4) == 0;
                            if transactional {
                                uncommitted = true;
                            }
                            Command::ByteWrite {
                                addr: line * 64,
                                data: vec![rng.next() as u8; 64],
                                txid: transactional.then_some(tx),
                                cat: Category::Data,
                            }
                        }
                        // Commit the open transaction (or a plain flush).
                        60..=69 => {
                            if uncommitted {
                                let cmd = Command::Commit { txid: tx };
                                tx = TxId(tx.0 + 1);
                                uncommitted = false;
                                cmd
                            } else {
                                Command::Flush
                            }
                        }
                        // Block write of one page.
                        70..=89 => Command::BlockWrite {
                            lba: page_base + rng.below(PAGES),
                            data: vec![rng.next() as u8; page_size as usize],
                            cat: Category::Data,
                        },
                        // TRIM one page.
                        _ => Command::Trim { lba: page_base + rng.below(PAGES), count: 1 },
                    };
                    let t0 = clock.now_ns();
                    let (out, retries) = reactor.submit_with_retry(c, cmd, policy).await;
                    lats.record(clock.now_ns() - t0);
                    if retries > 0 {
                        recovered += 1;
                    }
                    assert!(
                        matches!(&out, Ok(c) if c.status.is_ok()),
                        "client {c}: a command failed to resolve: {out:?}"
                    );
                }
                (lats, recovered)
            })
        })
        .collect();
    // Per-client histograms merge in O(buckets) — order-independent, so the
    // aggregate is deterministic regardless of client count.
    let (mut lat, mut recovered) = (Histogram::new(), 0u64);
    rt.block_on(async {
        for h in handles {
            let (lats, rec) = h.await;
            lat.merge(&lats);
            recovered += rec;
        }
    });
    let cmds = cmds_per_client * CLIENTS;
    let traffic = dev.snapshot().traffic;
    BenchEntry::new(
        key,
        &[
            ("cmds", cmds as f64),
            ("virtual_p50_ns", lat.value_at(0.50) as f64),
            ("virtual_p99_ns", lat.value_at(0.99) as f64),
            ("virtual_p999_ns", lat.value_at(0.999) as f64),
            ("virtual_max_ns", lat.max() as f64),
            ("injected_hangs", dev.config().hang.injected_total() as f64),
            ("recovered_cmds", recovered as f64),
            ("hang_timeouts", traffic.hang_timeouts as f64),
            ("aborts", traffic.aborts as f64),
            ("lane_resets", traffic.lane_resets as f64),
            ("retries", traffic.retries as f64),
        ],
    )
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    // The floor keeps smoke-scale runs long enough that the 1e-3 regime
    // actually injects hangs for the gated ratio to measure.
    let cmds = ((CMDS_PER_CLIENT as f64 * scale.factor()) as usize).max(2_000);
    let (clean, fault) = (measure("clean", false, cmds), measure("hang_1e-3", true, cmds));

    let mut report = BenchReport::new("hang_recovery", scale.factor());
    let p99 = |e: &BenchEntry| e.extra["virtual_p99_ns"];
    let ratio = p99(&fault) / p99(&clean).max(1.0);
    report.summary.insert("p99_ratio_fault_vs_clean".to_string(), round3(ratio));
    report.entries = vec![clean, fault];
    report
}
