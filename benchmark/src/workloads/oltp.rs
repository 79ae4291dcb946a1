//! `oltp_sync`: small durable overwrites of large table files plus a redo
//! log, on ByteFS.
//!
//! Per transaction: with probability 0.3 read a 256 B row; overwrite a
//! 256 B row with fresh random bytes and `fdatasync`; append a 512 B redo
//! record and `fdatasync`. A 256 B overwrite dirties 1/16 of a 4 KB page,
//! below the 1/8 threshold of paper §4.6, so writeback takes the CoW/XOR
//! path and the byte interface.

use std::sync::Arc;

use bytefs::ByteFsConfig;
use fskit::{Fd, FileSystem, FileSystemExt, OpenFlags};
use mssd::Mssd;
use workloads::OpClass;

use crate::gen::{Digest, Pool, Rng};
use crate::harness::{scaled, Audit, Backend, FileShadow, Laps, Phase, Stack, Workload, SEGMENTS};
use crate::trace;

const TABLES: usize = 16;
const TABLE_BYTES: usize = 4 << 20;
const ROW_BYTES: usize = 256;
const ROWS: usize = TABLE_BYTES / ROW_BYTES;
const REDO_BYTES: usize = 512;
const READ_SHARE: f64 = 0.3;
/// Transactions at scale 1.
const TRANSACTIONS: usize = 17_500;
const REDO_PATH: &str = "/oltp/redo.log";

#[derive(Debug, Clone, Copy)]
pub struct Tx {
    table: u16,
    row: u16,
    read_first: bool,
    row_line: u32,
    redo_line: u32,
}

pub struct Oltp {
    stack: Stack,
    pool: Pool,
    paths: Vec<String>,
    /// One piece per row, so an overwrite replaces a piece.
    tables: Vec<FileShadow>,
    redo: FileShadow,
    txs: Vec<Tx>,
    digest: u64,
}

impl Oltp {
    pub fn build(seed: u64, scale: f64, backend: Backend) -> Self {
        let pool = Pool::new(seed);
        let stack = Stack::format(ByteFsConfig::full(), backend);
        let fs = stack.fs.as_ref();
        let mut rng = Rng::new(seed, 0x6F6C_7470);
        fs.mkdir("/oltp").expect("mkdir /oltp");
        let paths: Vec<String> = (0..TABLES).map(|t| format!("/oltp/table{t}")).collect();
        let mut tables = Vec::with_capacity(TABLES);
        let mut body = Vec::with_capacity(TABLE_BYTES);
        for path in &paths {
            let mut shadow = FileShadow::default();
            body.clear();
            for _ in 0..ROWS {
                let line = pool.pick(&mut rng);
                shadow.push(line, ROW_BYTES);
                body.extend_from_slice(pool.slice(line, ROW_BYTES));
            }
            fs.write_file(path, &body).expect("populate table");
            tables.push(shadow);
        }
        fs.write_file(REDO_PATH, b"").expect("create redo log");
        fs.sync().expect("sync after populate");

        let (txs, digest) = plan(seed, scale, &pool);
        Self { stack, pool, paths, tables, redo: FileShadow::default(), txs, digest }
    }

    fn transaction(&mut self, fs: &dyn FileSystem, redo_fd: Fd, tx: Tx, phase: &mut Phase) {
        let clock = self.stack.device.clock();
        let path = &self.paths[tx.table as usize];
        let at = u64::from(tx.row) * ROW_BYTES as u64;
        if tx.read_first {
            let _op = trace::span("op.select", &clock);
            let sw = phase.rec.start(&clock);
            let outcome = (|| {
                let fd = fs.open(path, OpenFlags::read_only())?;
                let row = fs.read(fd, at, ROW_BYTES)?;
                fs.close(fd)?;
                Ok(row)
            })();
            let bytes = outcome.as_ref().map_or(0, Vec::len);
            phase.rec.finish(&clock, sw, OpClass::Read, bytes);
            let (line, _) = self.tables[tx.table as usize].pieces[tx.row as usize];
            phase.count(outcome.map(|row| row == self.pool.slice(line, ROW_BYTES)));
        }
        {
            let _op = trace::span("op.update", &clock);
            let sw = phase.rec.start(&clock);
            let outcome = (|| {
                let fd = fs.open(path, OpenFlags::read_write())?;
                fs.write(fd, at, self.pool.slice(tx.row_line, ROW_BYTES))?;
                fs.fdatasync(fd)?;
                fs.close(fd)?;
                Ok(true)
            })();
            self.tables[tx.table as usize].pieces[tx.row as usize].0 = tx.row_line;
            phase.rec.finish(&clock, sw, OpClass::Write, ROW_BYTES);
            phase.count(outcome);
        }
        phase.settle();
        {
            let _op = trace::span("op.redo", &clock);
            let sw = phase.rec.start(&clock);
            let outcome = (|| {
                fs.write(redo_fd, self.redo.bytes, self.pool.slice(tx.redo_line, REDO_BYTES))?;
                fs.fdatasync(redo_fd)?;
                Ok(true)
            })();
            self.redo.push(tx.redo_line, REDO_BYTES);
            phase.rec.finish(&clock, sw, OpClass::Write, REDO_BYTES);
            phase.count(outcome);
        }
        phase.settle();
    }
}

/// The transaction list and its digest.
pub fn plan(seed: u64, scale: f64, pool: &Pool) -> (Vec<Tx>, u64) {
    let mut rng = Rng::new(seed, 0x6F6F_7073);
    let txs: Vec<Tx> = (0..scaled(TRANSACTIONS, scale))
        .map(|_| Tx {
            table: rng.below(TABLES as u64) as u16,
            row: rng.below(ROWS as u64) as u16,
            read_first: rng.chance(READ_SHARE),
            row_line: pool.pick(&mut rng),
            redo_line: pool.pick(&mut rng),
        })
        .collect();
    let mut digest = Digest::default();
    for tx in &txs {
        digest.push(u64::from(tx.table) << 32 | u64::from(tx.row) << 1 | u64::from(tx.read_first));
        digest.push(u64::from(tx.row_line) << 32 | u64::from(tx.redo_line));
    }
    (txs, digest.value())
}

impl Workload for Oltp {
    fn device(&self) -> &Arc<Mssd> {
        &self.stack.device
    }

    fn op_digest(&self) -> u64 {
        self.digest
    }

    fn run(&mut self) -> Phase {
        let fs = Arc::clone(&self.stack.fs);
        let fs = fs.as_ref();
        let clock = fs.clock();
        let mut phase = Phase::new(&self.stack.device);
        let txs = std::mem::take(&mut self.txs);
        let per_segment = txs.len() / SEGMENTS;
        trace::reserve(txs.len() * 14 + 16);
        let whole = trace::span("harness.phase", &clock);
        let mut laps = Laps::start();
        let redo_fd = fs.open(REDO_PATH, OpenFlags::read_write()).expect("open redo log");
        for (n, tx) in txs.iter().enumerate() {
            trace::set_request(n as u32);
            self.transaction(fs, redo_fd, *tx, &mut phase);
            if (n + 1) % per_segment == 0 {
                laps.lap(&mut phase.seg_wall_ns);
            }
        }
        phase.count(fs.close(redo_fd).map(|()| true));
        phase.final_sync(fs);
        drop(whole);
        self.txs = txs;
        phase.spans.push(trace::take());
        phase
    }

    fn audit(&mut self) -> Audit {
        let files = self
            .paths
            .iter()
            .map(String::as_str)
            .zip(&self.tables)
            .chain(std::iter::once((REDO_PATH, &self.redo)));
        self.stack.audit_files(&self.pool, files)
    }

    fn power_cycle(&mut self) -> (u64, u64) {
        self.stack.power_cycle()
    }
}
