//! `kv_ycsb_a`: YCSB workload A against `kvstore::Db` on ByteFS.
//!
//! Set-up loads 5 000 records of 1 000 B random values and then fills the
//! device to two thirds with a cold ballast file, as a device in use is; the
//! measured phase is zipfian (0.99) 50 % get / 50 % put. WAL appends,
//! memtable flushes and compactions turn into large sequential block
//! writes — the benchmark's only steady source of flash programs, garbage
//! collection and erases.
//!
//! The memtable is 256 KB against a 5 MB data set (the 1:20 of the default
//! 1 MB memtable against the 20 MB such a phase could load): a phase then
//! holds ~45 compactions instead of 8, so that one compaction more or fewer,
//! which the seed decides, moves the totals by a percent and not by a tenth.

use std::sync::Arc;

use bytefs::ByteFsConfig;
use fskit::{FileSystem, FsResult, OpenFlags};
use kvstore::{Db, DbOptions};
use mssd::Mssd;
use workloads::OpClass;

use crate::gen::{Digest, Pool, Rng, Zipf, MAX_PAYLOAD};
use crate::harness::{scaled, Audit, Backend, Laps, Phase, Stack, Workload, SEGMENTS};
use crate::trace;

const RECORDS: usize = 5_000;
const VALUE_BYTES: usize = 1_000;
const PUT_SHARE: f64 = 0.5;
/// Operations at scale 1.
const OPERATIONS: usize = 120_000;
const DB_DIR: &str = "/ycsb";
const MEMTABLE_BYTES: usize = 256 << 10;
const BALLAST_PATH: &str = "/ballast";
const BALLAST_BYTES: usize = 160 << 20;
const BALLAST_CHUNK: usize = 1 << 20;

fn db_options() -> DbOptions {
    DbOptions { memtable_bytes: MEMTABLE_BYTES, ..DbOptions::default() }
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    key: u32,
    put: bool,
    value_line: u32,
}

pub struct Kv {
    stack: Stack,
    pool: Pool,
    db: Db,
    keys: Vec<Vec<u8>>,
    /// Pool line of each key's current value.
    values: Vec<u32>,
    ops: Vec<Op>,
    digest: u64,
    /// `(flushes, compactions)` of the measured phase.
    background: (u64, u64),
}

impl Kv {
    pub fn build(seed: u64, scale: f64, backend: Backend) -> Self {
        let pool = Pool::new(seed);
        let stack = Stack::format(ByteFsConfig::full(), backend);
        let db = Db::open(Arc::clone(&stack.fs), DB_DIR, db_options()).expect("open db");
        let mut rng = Rng::new(seed, 0x6B76_6C64);
        let keys: Vec<Vec<u8>> =
            (0..RECORDS).map(|i| format!("user{i:012}").into_bytes()).collect();
        let mut values = Vec::with_capacity(RECORDS);
        for key in &keys {
            let line = pool.pick(&mut rng);
            db.put(key, pool.slice(line, VALUE_BYTES)).expect("load record");
            values.push(line);
        }
        db.flush().expect("flush after load");
        write_ballast(stack.fs.as_ref(), &pool, &mut rng).expect("write ballast");

        let (ops, digest) = plan(seed, scale, &pool);
        Self { stack, pool, db, keys, values, ops, digest, background: (0, 0) }
    }

    /// Keys whose stored value differs from the shadow.
    fn mismatched_keys(&self) -> u64 {
        self.keys
            .iter()
            .zip(&self.values)
            .filter(|(key, line)| match self.db.get(key) {
                Ok(Some(value)) => value != self.pool.slice(**line, VALUE_BYTES),
                Ok(None) => true,
                Err(e) => {
                    eprintln!("audit: get: {e}");
                    true
                }
            })
            .count() as u64
    }
}

/// Cold data that takes the device to two thirds full, so that the store's
/// churn runs out of erased blocks early in the phase and the FTL has to
/// collect garbage, as it would on a device in use.
fn write_ballast(fs: &dyn FileSystem, pool: &Pool, rng: &mut Rng) -> FsResult<()> {
    let mut chunk = Vec::with_capacity(BALLAST_CHUNK);
    while chunk.len() < BALLAST_CHUNK {
        chunk.extend_from_slice(pool.slice(pool.pick(rng), MAX_PAYLOAD));
    }
    let fd = fs.open(BALLAST_PATH, OpenFlags::create_truncate())?;
    for at in (0..BALLAST_BYTES).step_by(BALLAST_CHUNK) {
        fs.write(fd, at as u64, &chunk)?;
        fs.fsync(fd)?;
    }
    fs.close(fd)
}

/// The operation list and its digest.
pub fn plan(seed: u64, scale: f64, pool: &Pool) -> (Vec<Op>, u64) {
    let zipf = Zipf::new(RECORDS as u64);
    let mut rng = Rng::new(seed, 0x6B6F_7073);
    let ops: Vec<Op> = (0..scaled(OPERATIONS, scale))
        .map(|_| Op {
            key: zipf.next(&mut rng) as u32,
            put: rng.chance(PUT_SHARE),
            value_line: pool.pick(&mut rng),
        })
        .collect();
    let mut digest = Digest::default();
    for op in &ops {
        digest.push(u64::from(op.key) << 33 | u64::from(op.value_line) << 1 | u64::from(op.put));
    }
    (ops, digest.value())
}

impl Workload for Kv {
    fn device(&self) -> &Arc<Mssd> {
        &self.stack.device
    }

    fn op_digest(&self) -> u64 {
        self.digest
    }

    fn run(&mut self) -> Phase {
        let clock = self.stack.device.clock();
        let mut phase = Phase::new(&self.stack.device);
        let before = self.db.stats();
        let per_segment = self.ops.len() / SEGMENTS;
        trace::reserve(self.ops.len() * 12 + 16);
        let whole = trace::span("harness.phase", &clock);
        let mut laps = Laps::start();
        for (n, op) in self.ops.iter().enumerate() {
            trace::set_request(n as u32);
            let key = &self.keys[op.key as usize];
            let sw = phase.rec.start(&clock);
            if op.put {
                let value = self.pool.slice(op.value_line, VALUE_BYTES);
                let outcome = {
                    let _call = trace::span("kvstore.put", &clock);
                    self.db.put(key, value)
                };
                self.values[op.key as usize] = op.value_line;
                phase.rec.finish(&clock, sw, OpClass::Write, VALUE_BYTES);
                phase.count(outcome.map(|()| true));
                phase.settle();
            } else {
                let outcome = {
                    let _call = trace::span("kvstore.get", &clock);
                    self.db.get(key)
                };
                let bytes = outcome.as_ref().map_or(0, |v| v.as_ref().map_or(0, Vec::len));
                phase.rec.finish(&clock, sw, OpClass::Read, bytes);
                let want = self.pool.slice(self.values[op.key as usize], VALUE_BYTES);
                phase.count(outcome.map(|got| got.as_deref() == Some(want)));
            }
            if (n + 1) % per_segment == 0 {
                laps.lap(&mut phase.seg_wall_ns);
            }
        }
        drop(whole);
        let after = self.db.stats();
        self.background = (after.flushes - before.flushes, after.compactions - before.compactions);
        phase.spans.push(trace::take());
        phase
    }

    fn audit(&mut self) -> Audit {
        let mut audit = Audit::default();
        // `close` flushes the memtable and syncs: from here on every record
        // is acknowledged durable.
        if let Err(e) = self.db.close() {
            eprintln!("audit: close: {e}");
            audit.mismatches += 1;
        }
        self.stack.fs.drop_caches();
        audit.mismatches += self.mismatched_keys();
        self.stack.structural_violations(&mut audit);
        audit
    }

    fn power_cycle(&mut self) -> (u64, u64) {
        let took = self.stack.power_cycle();
        self.db = Db::open(Arc::clone(&self.stack.fs), DB_DIR, db_options())
            .expect("reopen db after power cut");
        took
    }

    fn extra_counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("kvstore.flushes", self.background.0 as f64),
            ("kvstore.compactions", self.background.1 as f64),
        ]
    }
}
