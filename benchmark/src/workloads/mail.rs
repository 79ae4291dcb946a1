//! `mail_fsync` and `mail_fsync_mt2`: the varmail mix on ByteFS.
//!
//! Per iteration: unlink a mail file; re-create it, write 8 KB, fsync;
//! read another mailbox whole, append 8 KB to it, fsync; read a third
//! mailbox whole. Every file always exists, so no op is built to fail.
//! With two clients, each owns the files of its own parity, opens one host
//! queue (depth 16) and makes it its thread's ambient queue, as
//! `workloads::run_concurrent` does.

use std::sync::{Arc, Barrier};

use bytefs::ByteFsConfig;
use fskit::{FileSystem, FileSystemExt, OpenFlags};
use mssd::{Command, Mssd};
use workloads::OpClass;

use crate::gen::{Digest, Pool, Rng};
use crate::harness::{scaled, Audit, Backend, FileShadow, Laps, Phase, Stack, Workload, SEGMENTS};
use crate::trace;

const FILES: usize = 1_000;
const FILE_BYTES: usize = 16 << 10;
const APPEND_BYTES: usize = 8 << 10;
const DIRS: usize = 16;
/// Iterations at scale 1 (all clients together).
const ITERATIONS: usize = 16_000;
const QUEUE_DEPTH: usize = 16;

/// One iteration of the op list: file indices within the client's own file
/// list, and the pool lines of the two payloads.
#[derive(Debug, Clone, Copy)]
pub struct Iter {
    victim: u32,
    other: u32,
    third: u32,
    compose_line: u32,
    append_line: u32,
}

struct Client {
    paths: Vec<String>,
    shadows: Vec<FileShadow>,
    iters: Vec<Iter>,
}

pub struct Mail {
    stack: Stack,
    pool: Pool,
    clients: Vec<Client>,
    digest: u64,
}

impl Mail {
    pub fn build(seed: u64, scale: f64, clients: usize, backend: Backend) -> Self {
        let pool = Pool::new(seed);
        let stack = Stack::format(ByteFsConfig::full(), backend);
        let fs = stack.fs.as_ref();
        let mut rng = Rng::new(seed, 0x6D61_696C);
        fs.mkdir("/mail").expect("mkdir /mail");
        for d in 0..DIRS {
            fs.mkdir(&format!("/mail/d{d}")).expect("mkdir mail dir");
        }
        let mut built: Vec<Client> = (0..clients)
            .map(|_| Client { paths: Vec::new(), shadows: Vec::new(), iters: Vec::new() })
            .collect();
        for i in 0..FILES {
            let path = format!("/mail/d{}/m{i}", i % DIRS);
            let line = pool.pick(&mut rng);
            fs.write_file(&path, pool.slice(line, FILE_BYTES)).expect("populate mail file");
            let mut shadow = FileShadow::default();
            shadow.push(line, FILE_BYTES);
            let owner = &mut built[i % clients];
            owner.paths.push(path);
            owner.shadows.push(shadow);
        }
        fs.sync().expect("sync after populate");

        let (lists, digest) = plan(seed, scale, &pool, clients);
        for (client, iters) in built.iter_mut().zip(lists) {
            client.iters = iters;
        }
        Self { stack, pool, clients: built, digest }
    }
}

/// The op list of each client and the digest of all of them. Client `c` of
/// `clients` owns the files whose index is `c` modulo `clients`.
pub fn plan(seed: u64, scale: f64, pool: &Pool, clients: usize) -> (Vec<Vec<Iter>>, u64) {
    let per_client = (scaled(ITERATIONS, scale) / clients / SEGMENTS).max(1) * SEGMENTS;
    let mut digest = Digest::default();
    let lists = (0..clients)
        .map(|c| {
            let mut rng = Rng::new(seed, 0x6D6F_7073 + c as u64);
            let owned = ((FILES - c).div_ceil(clients)) as u64;
            let iters: Vec<Iter> = (0..per_client)
                .map(|_| Iter {
                    victim: rng.below(owned) as u32,
                    other: rng.below(owned) as u32,
                    third: rng.below(owned) as u32,
                    compose_line: pool.pick(&mut rng),
                    append_line: pool.pick(&mut rng),
                })
                .collect();
            for it in &iters {
                digest.push(u64::from(it.victim) << 32 | u64::from(it.other));
                digest.push(u64::from(it.third) << 32 | u64::from(it.compose_line));
                digest.push(u64::from(it.append_line));
            }
            iters
        })
        .collect();
    (lists, digest.value())
}

/// Runs one client's op list. `gate`, when there are two clients, lines the
/// clients up at every segment boundary so that segment `s` means the same
/// work in every repeat.
fn run_client(
    fs: &dyn FileSystem,
    pool: &Pool,
    client: &mut Client,
    gate: Option<&Barrier>,
) -> Phase {
    let clock = fs.clock();
    let mut phase = Phase::new(fs.device());
    let per_segment = client.iters.len() / SEGMENTS;
    trace::reserve(client.iters.len() * 24 + SEGMENTS + 8);
    let whole = trace::span("harness.phase", &clock);
    let mut laps = Laps::start();
    for (n, it) in client.iters.iter().enumerate() {
        trace::set_request(n as u32);
        let Client { paths, shadows, .. } = client;

        // Delete one mail file.
        {
            let _op = trace::span("op.delete", &clock);
            let sw = phase.rec.start(&clock);
            let outcome = fs.unlink(&paths[it.victim as usize]).map(|()| true);
            shadows[it.victim as usize].clear();
            phase.rec.finish(&clock, sw, OpClass::Meta, 0);
            phase.count(outcome);
        }
        phase.settle();
        // Compose: create + write + fsync.
        {
            let _op = trace::span("op.compose", &clock);
            let sw = phase.rec.start(&clock);
            let body = pool.slice(it.compose_line, APPEND_BYTES);
            let outcome = (|| {
                let fd = fs.open(&paths[it.victim as usize], OpenFlags::create_rw())?;
                fs.write(fd, 0, body)?;
                fs.fsync(fd)?;
                fs.close(fd)?;
                Ok(true)
            })();
            shadows[it.victim as usize].push(it.compose_line, APPEND_BYTES);
            phase.rec.finish(&clock, sw, OpClass::Write, APPEND_BYTES);
            phase.count(outcome);
        }
        phase.settle();
        // Read another mailbox whole...
        {
            let _op = trace::span("op.read", &clock);
            let sw = phase.rec.start(&clock);
            let outcome = fs.read_file(&paths[it.other as usize]);
            let bytes = outcome.as_ref().map_or(0, Vec::len);
            phase.rec.finish(&clock, sw, OpClass::Read, bytes);
            phase
                .count(outcome.map(|data| shadows[it.other as usize].matches_sampled(pool, &data)));
        }
        // ...and append to it, durably.
        {
            let _op = trace::span("op.append", &clock);
            let sw = phase.rec.start(&clock);
            let body = pool.slice(it.append_line, APPEND_BYTES);
            let at = shadows[it.other as usize].bytes;
            let outcome = (|| {
                let fd = fs.open(&paths[it.other as usize], OpenFlags::read_write())?;
                fs.write(fd, at, body)?;
                fs.fsync(fd)?;
                fs.close(fd)?;
                Ok(true)
            })();
            shadows[it.other as usize].push(it.append_line, APPEND_BYTES);
            phase.rec.finish(&clock, sw, OpClass::Write, APPEND_BYTES);
            phase.count(outcome);
        }
        phase.settle();
        // Read a third mailbox whole.
        {
            let _op = trace::span("op.read", &clock);
            let sw = phase.rec.start(&clock);
            let outcome = fs.read_file(&paths[it.third as usize]);
            let bytes = outcome.as_ref().map_or(0, Vec::len);
            phase.rec.finish(&clock, sw, OpClass::Read, bytes);
            phase
                .count(outcome.map(|data| shadows[it.third as usize].matches_sampled(pool, &data)));
        }

        if (n + 1) % per_segment == 0 {
            if let Some(gate) = gate {
                let _wait = trace::span("harness.barrier", &clock);
                gate.wait();
            }
            laps.lap(&mut phase.seg_wall_ns);
        }
    }
    drop(whole);
    phase
}

/// The end-of-phase FLUSH barrier a queue-owning client issues; a barrier
/// the device refuses or loses is a flush error.
fn flush_barrier(queue: &mut mssd::HostQueue, phase: &mut Phase) {
    let submitted = queue.submit(Command::Flush);
    queue.ring_doorbell();
    let mut acknowledged = false;
    while let Some(done) = queue.poll() {
        phase.rec.record_queue_completion(done.latency_ns);
        acknowledged |= submitted.as_ref().is_ok_and(|id| *id == done.id) && done.is_ok();
    }
    if !acknowledged {
        phase.rec.flush_errors += 1;
    }
}

impl Workload for Mail {
    fn device(&self) -> &Arc<Mssd> {
        &self.stack.device
    }

    fn op_digest(&self) -> u64 {
        self.digest
    }

    fn run(&mut self) -> Phase {
        let fs = Arc::clone(&self.stack.fs);
        let pool = &self.pool;
        if let [client] = self.clients.as_mut_slice() {
            let mut phase = run_client(fs.as_ref(), pool, client, None);
            phase.final_sync(fs.as_ref());
            phase.spans.push(trace::take());
            return phase;
        }
        let gate = Barrier::new(self.clients.len());
        let device = Arc::clone(&self.stack.device);
        let mut phases: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (fs, gate, device) = (fs.as_ref(), &gate, &device);
                    scope.spawn(move || {
                        let mut queue = device.open_queue(QUEUE_DEPTH);
                        let ambient = queue.make_ambient();
                        let mut phase = run_client(fs, pool, client, Some(gate));
                        drop(ambient);
                        flush_barrier(&mut queue, &mut phase);
                        phase.spans.push(trace::take());
                        phase
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("mail client panicked")).collect()
        });
        // Client 0's laps run barrier to barrier, so they already cover the
        // slower client of each segment.
        let mut phase = phases.remove(0);
        phases.into_iter().for_each(|other| phase.absorb(other));
        phase
    }

    fn audit(&mut self) -> Audit {
        let files =
            self.clients.iter().flat_map(|c| c.paths.iter().map(String::as_str).zip(&c.shadows));
        self.stack.audit_files(&self.pool, files)
    }

    fn power_cycle(&mut self) -> (u64, u64) {
        self.stack.power_cycle()
    }
}
