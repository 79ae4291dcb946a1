//! `web_read_miss`: whole-file reads of a file set three times the size of
//! the host page cache, plus a small log append.
//!
//! 3 072 files x 16 KB = 48 MB against a 4 096-page (16 MB) ByteFS page
//! cache; per iteration ten uniformly chosen whole-file reads and one 1 KB
//! append to a shared log (not synced — a web server's access log).

use std::sync::Arc;

use bytefs::ByteFsConfig;
use fskit::{FileSystemExt, OpenFlags};
use mssd::Mssd;
use workloads::OpClass;

use crate::gen::{Digest, Pool, Rng};
use crate::harness::{scaled, Audit, Backend, FileShadow, Laps, Phase, Stack, Workload, SEGMENTS};
use crate::trace;

const FILES: usize = 3_072;
const FILE_BYTES: usize = 16 << 10;
const DIRS: usize = 16;
const CACHE_PAGES: usize = 4_096;
const READS_PER_ITER: usize = 10;
const LOG_BYTES: usize = 1 << 10;
/// Iterations at scale 1.
const ITERATIONS: usize = 8_000;
const LOG_PATH: &str = "/web/access.log";

#[derive(Debug, Clone, Copy)]
pub struct Iter {
    files: [u16; READS_PER_ITER],
    log_line: u32,
}

pub struct Web {
    stack: Stack,
    pool: Pool,
    paths: Vec<String>,
    shadows: Vec<FileShadow>,
    log: FileShadow,
    iters: Vec<Iter>,
    digest: u64,
}

impl Web {
    pub fn build(seed: u64, scale: f64, backend: Backend) -> Self {
        let pool = Pool::new(seed);
        let config = ByteFsConfig::full().with_page_cache_pages(CACHE_PAGES);
        let stack = Stack::format(config, backend);
        let fs = stack.fs.as_ref();
        let mut rng = Rng::new(seed, 0x7765_6221);
        fs.mkdir("/web").expect("mkdir /web");
        for d in 0..DIRS {
            fs.mkdir(&format!("/web/d{d}")).expect("mkdir web dir");
        }
        let mut paths = Vec::with_capacity(FILES);
        let mut shadows = Vec::with_capacity(FILES);
        for i in 0..FILES {
            let path = format!("/web/d{}/f{i}", i % DIRS);
            let line = pool.pick(&mut rng);
            fs.write_file(&path, pool.slice(line, FILE_BYTES)).expect("populate web file");
            let mut shadow = FileShadow::default();
            shadow.push(line, FILE_BYTES);
            paths.push(path);
            shadows.push(shadow);
        }
        fs.write_file(LOG_PATH, b"").expect("create access log");
        fs.sync().expect("sync after populate");

        let (iters, digest) = plan(seed, scale, &pool);
        Self { stack, pool, paths, shadows, log: FileShadow::default(), iters, digest }
    }
}

/// The iteration list and its digest.
pub fn plan(seed: u64, scale: f64, pool: &Pool) -> (Vec<Iter>, u64) {
    let mut rng = Rng::new(seed, 0x776F_7073);
    let iters: Vec<Iter> = (0..scaled(ITERATIONS, scale))
        .map(|_| Iter {
            files: std::array::from_fn(|_| rng.below(FILES as u64) as u16),
            log_line: pool.pick(&mut rng),
        })
        .collect();
    let mut digest = Digest::default();
    for it in &iters {
        it.files.iter().for_each(|f| digest.push(u64::from(*f)));
        digest.push(u64::from(it.log_line));
    }
    (iters, digest.value())
}

impl Workload for Web {
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
        let per_segment = self.iters.len() / SEGMENTS;
        trace::reserve(self.iters.len() * (READS_PER_ITER * 5 + 5) + 16);
        let whole = trace::span("harness.phase", &clock);
        let mut laps = Laps::start();
        for (n, it) in self.iters.iter().enumerate() {
            trace::set_request(n as u32);
            for file in it.files {
                let _op = trace::span("op.read", &clock);
                let sw = phase.rec.start(&clock);
                let outcome = fs.read_file(&self.paths[file as usize]);
                let bytes = outcome.as_ref().map_or(0, Vec::len);
                phase.rec.finish(&clock, sw, OpClass::Read, bytes);
                phase
                    .count(outcome.map(|data| {
                        self.shadows[file as usize].matches_sampled(&self.pool, &data)
                    }));
            }
            {
                let _op = trace::span("op.log", &clock);
                let sw = phase.rec.start(&clock);
                let outcome = (|| {
                    let fd = fs.open(LOG_PATH, OpenFlags::read_write())?;
                    fs.write(fd, self.log.bytes, self.pool.slice(it.log_line, LOG_BYTES))?;
                    fs.close(fd)?;
                    Ok(true)
                })();
                self.log.push(it.log_line, LOG_BYTES);
                phase.rec.finish(&clock, sw, OpClass::Write, LOG_BYTES);
                phase.count(outcome);
            }
            phase.settle();
            if (n + 1) % per_segment == 0 {
                laps.lap(&mut phase.seg_wall_ns);
            }
        }
        phase.final_sync(fs);
        drop(whole);
        phase.spans.push(trace::take());
        phase
    }

    fn audit(&mut self) -> Audit {
        let files = self
            .paths
            .iter()
            .map(String::as_str)
            .zip(&self.shadows)
            .chain(std::iter::once((LOG_PATH, &self.log)));
        self.stack.audit_files(&self.pool, files)
    }

    fn power_cycle(&mut self) -> (u64, u64) {
        self.stack.power_cycle()
    }
}
