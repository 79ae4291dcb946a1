//! `dev_bytelog`: no file system — the benchmark calls `Mssd` directly.
//!
//! A 64 MB window of the device is populated with block writes during
//! set-up. The measured phase runs rounds of sixteen calls over that window:
//! eight transaction-tagged 64–256 B `byte_write`s, one `commit` of their
//! transaction, four `byte_read`s of recently written ranges, one 4 KB
//! `block_write` and two 4 KB `block_read`s. Both interfaces address the same
//! window, so block reads merge log entries and block writes invalidate them,
//! and the device's log region fills and is cleaned many times.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fskit::FsResult;
use mssd::{Category, DramMode, Mssd, TxId};
use workloads::OpClass;

use crate::gen::{Digest, Pool, Rng, LINE};
use crate::harness::{device_config, scaled, Audit, Laps, Phase, Workload, SEGMENTS};
use crate::trace;

const PAGE: usize = 4096;
const LINES_PER_PAGE: usize = PAGE / LINE;
/// First byte of the window.
const WINDOW_START: u64 = 64 << 20;
const WINDOW_BYTES: usize = 64 << 20;
const WINDOW_LINES: usize = WINDOW_BYTES / LINE;
const WINDOW_PAGES: usize = WINDOW_BYTES / PAGE;
/// Pages per populate command.
const POPULATE_PAGES: usize = 16;
const CALLS_PER_ROUND: usize = 16;
const BYTE_WRITES_PER_ROUND: usize = 8;
const BYTE_READS_PER_ROUND: usize = 4;
/// A `byte_read` re-reads one of this many most recent `byte_write`s.
const RECENT: usize = 64;
/// Rounds at scale 1.
const ROUNDS: usize = 22_000;

#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// `lines` cachelines at window line `at`, payload from pool line `from`.
    ByteWrite {
        at: u32,
        lines: u8,
        from: u32,
    },
    /// Re-read the `back`-th most recent byte write.
    ByteRead {
        back: u8,
    },
    Commit,
    BlockWrite {
        page: u32,
        from: u32,
    },
    BlockRead {
        page: u32,
    },
}

pub struct Dev {
    device: Arc<Mssd>,
    pool: Pool,
    /// Pool line each window line was last written from.
    shadow: Vec<u32>,
    calls: Vec<Call>,
    digest: u64,
}

impl Dev {
    pub fn build(seed: u64, scale: f64, device_tracing: bool) -> Self {
        let pool = Pool::new(seed);
        let device = Mssd::new(device_config(), DramMode::WriteLog);
        device.set_tracing(device_tracing);
        let mut rng = Rng::new(seed, 0x6465_7621);
        let mut shadow = Vec::with_capacity(WINDOW_LINES);
        let mut buf = Vec::with_capacity(POPULATE_PAGES * PAGE);
        for first in (0..WINDOW_PAGES).step_by(POPULATE_PAGES) {
            buf.clear();
            for _ in 0..POPULATE_PAGES {
                let from = pool.pick(&mut rng);
                buf.extend_from_slice(pool.slice(from, PAGE));
                shadow.extend((0..LINES_PER_PAGE as u32).map(|l| from + l));
            }
            let lba = WINDOW_START / PAGE as u64 + first as u64;
            device.try_block_write(lba, &buf, Category::Data).expect("populate window");
        }
        device.try_flush().expect("flush after populate");

        let (calls, digest) = plan(seed, scale, &pool);
        Self { device, pool, shadow, calls, digest }
    }

    /// Whether `data` is what the shadow says lines `at..` hold. Lines last
    /// written by one call come from consecutive pool lines, so each such
    /// run is one comparison.
    fn lines_match(&self, at: usize, data: &[u8]) -> bool {
        if !data.len().is_multiple_of(LINE) {
            return false;
        }
        let expect = &self.shadow[at..at + data.len() / LINE];
        let mut done = 0;
        while done < expect.len() {
            let from = expect[done];
            let run = expect[done..]
                .iter()
                .zip(from..)
                .take_while(|(have, want)| **have == *want)
                .count();
            let bytes = done * LINE..(done + run) * LINE;
            if data[bytes.clone()] != *self.pool.slice(from, bytes.len()) {
                return false;
            }
            done += run;
        }
        true
    }
}

/// The call list and its digest.
pub fn plan(seed: u64, scale: f64, pool: &Pool) -> (Vec<Call>, u64) {
    let mut rng = Rng::new(seed, 0x646F_7073);
    let rounds = scaled(ROUNDS, scale);
    let mut calls = Vec::with_capacity(rounds * CALLS_PER_ROUND);
    for _ in 0..rounds {
        for _ in 0..BYTE_WRITES_PER_ROUND {
            let lines = 1 + rng.below(4) as u8;
            calls.push(Call::ByteWrite {
                at: rng.below((WINDOW_LINES - 4) as u64) as u32,
                lines,
                from: pool.pick(&mut rng),
            });
        }
        calls.push(Call::Commit);
        for _ in 0..BYTE_READS_PER_ROUND {
            calls.push(Call::ByteRead { back: rng.below(RECENT as u64) as u8 });
        }
        calls.push(Call::BlockWrite {
            page: rng.below(WINDOW_PAGES as u64) as u32,
            from: pool.pick(&mut rng),
        });
        for _ in 0..2 {
            calls.push(Call::BlockRead { page: rng.below(WINDOW_PAGES as u64) as u32 });
        }
    }
    let mut digest = Digest::default();
    for call in &calls {
        digest.push(match *call {
            Call::ByteWrite { at, lines, from } => {
                1 | u64::from(at) << 8 | u64::from(lines) << 4 | u64::from(from) << 36
            }
            Call::ByteRead { back } => 2 | u64::from(back) << 8,
            Call::Commit => 3,
            Call::BlockWrite { page, from } => 4 | u64::from(page) << 8 | u64::from(from) << 36,
            Call::BlockRead { page } => 5 | u64::from(page) << 8,
        });
    }
    (calls, digest.value())
}

fn addr_of_line(line: usize) -> u64 {
    WINDOW_START + (line * LINE) as u64
}

fn lba_of_page(page: u32) -> u64 {
    WINDOW_START / PAGE as u64 + u64::from(page)
}

impl Workload for Dev {
    fn device(&self) -> &Arc<Mssd> {
        &self.device
    }

    fn op_digest(&self) -> u64 {
        self.digest
    }

    fn run(&mut self) -> Phase {
        let device = Arc::clone(&self.device);
        let clock = device.clock();
        let mut phase = Phase::new(&self.device);
        let calls = std::mem::take(&mut self.calls);
        let per_segment = calls.len() / SEGMENTS;
        trace::reserve(calls.len() + 16);
        let whole = trace::span("harness.phase", &clock);
        let mut laps = Laps::start();
        let mut recent: VecDeque<(u32, u8)> = VecDeque::with_capacity(RECENT + 1);
        let mut tx = 1u32;
        for (n, call) in calls.iter().enumerate() {
            if n % CALLS_PER_ROUND == 0 {
                trace::set_request((n / CALLS_PER_ROUND) as u32);
            }
            let sw = phase.rec.start(&clock);
            match *call {
                Call::ByteWrite { at, lines, from } => {
                    let len = lines as usize * LINE;
                    let outcome = {
                        let _call = trace::span("mssd.byte_write", &clock);
                        device.try_byte_write(
                            addr_of_line(at as usize),
                            self.pool.slice(from, len),
                            Some(TxId(tx)),
                            Category::Data,
                        )
                    };
                    for l in 0..lines as usize {
                        self.shadow[at as usize + l] = from + l as u32;
                    }
                    if recent.len() == RECENT {
                        recent.pop_front();
                    }
                    recent.push_back((at, lines));
                    phase.rec.finish(&clock, sw, OpClass::Write, len);
                    phase.count(to_fs(outcome.map(|()| true)));
                    // Only byte writes fill the log, so only they can start
                    // the cleaner.
                    phase.settle();
                }
                Call::ByteRead { back } => {
                    let (at, lines) = recent[recent.len() - 1 - back as usize % recent.len()];
                    let len = lines as usize * LINE;
                    let outcome = {
                        let _call = trace::span("mssd.byte_read", &clock);
                        device.try_byte_read(addr_of_line(at as usize), len, Category::Data)
                    };
                    phase.rec.finish(&clock, sw, OpClass::Read, len);
                    phase
                        .count(to_fs(outcome.map(|data| {
                            data.len() == len && self.lines_match(at as usize, &data)
                        })));
                }
                Call::Commit => {
                    {
                        let _call = trace::span("mssd.commit", &clock);
                        device.commit(TxId(tx));
                    }
                    tx += 1;
                    phase.rec.finish(&clock, sw, OpClass::Meta, 0);
                    phase.count(Ok(true));
                }
                Call::BlockWrite { page, from } => {
                    let outcome = {
                        let _call = trace::span("mssd.block_write", &clock);
                        device.try_block_write(
                            lba_of_page(page),
                            self.pool.slice(from, PAGE),
                            Category::Data,
                        )
                    };
                    let first = page as usize * LINES_PER_PAGE;
                    for l in 0..LINES_PER_PAGE {
                        self.shadow[first + l] = from + l as u32;
                    }
                    phase.rec.finish(&clock, sw, OpClass::Write, PAGE);
                    phase.count(to_fs(outcome.map(|()| true)));
                }
                Call::BlockRead { page } => {
                    let outcome = {
                        let _call = trace::span("mssd.block_read", &clock);
                        device.try_block_read(lba_of_page(page), 1, Category::Data)
                    };
                    phase.rec.finish(&clock, sw, OpClass::Read, PAGE);
                    let first = page as usize * LINES_PER_PAGE;
                    phase.count(to_fs(
                        outcome.map(|data| data.len() == PAGE && self.lines_match(first, &data)),
                    ));
                }
            }
            if (n + 1) % per_segment == 0 {
                laps.lap(&mut phase.seg_wall_ns);
            }
        }
        drop(whole);
        self.calls = calls;
        phase.spans.push(trace::take());
        phase
    }

    fn audit(&mut self) -> Audit {
        let mut audit = Audit::default();
        for page in 0..WINDOW_PAGES as u32 {
            let first = page as usize * LINES_PER_PAGE;
            let ok = self
                .device
                .try_block_read(lba_of_page(page), 1, Category::Data)
                .is_ok_and(|data| data.len() == PAGE && self.lines_match(first, &data));
            audit.mismatches += u64::from(!ok);
        }
        self.device.quiesce_cleaning();
        let violations = self.device.check_consistency();
        for v in violations.iter().take(5) {
            eprintln!("device: {v}");
        }
        audit.device_violations += violations.len() as u64;
        audit
    }

    fn power_cycle(&mut self) -> (u64, u64) {
        // Every round ends after its commit, so every byte write is committed.
        self.device.crash();
        let image = self.device.crash_image();
        let device = Mssd::from_crash_image(device_config(), DramMode::WriteLog, &image);
        let wall = Instant::now();
        let report = device.recover();
        let took = (report.duration_ns, wall.elapsed().as_nanos() as u64);
        self.device = device;
        took
    }
}

/// Device errors and file-system errors count alike as failed ops.
fn to_fs<T>(outcome: Result<T, mssd::FlashError>) -> FsResult<T> {
    outcome.map_err(fskit::FsError::Io)
}
