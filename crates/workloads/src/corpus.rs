//! The replay scenario corpus: small, fully deterministic workloads shaped
//! after traffic patterns the Table-5 benchmarks do not cover, each meant to
//! be **recorded once** ([`record_corpus`]) and then re-driven by
//! [`mod@crate::replay`] — against other file systems or through the crash
//! enumerator.
//!
//! Every generator derives its op stream purely from its parameters (no
//! RNG state is drawn), so the same seed records the same trace byte for
//! byte. Three of the generators run their clients one after another and
//! attribute each client's ops to its own trace tenant (via
//! [`mssd::CtxScope`]), so a trace tells which client issued every op:
//!
//! * [`CorpusKind::DiurnalBurst`] — bursty diurnal traffic: clients
//!   alternate busy windows (many appends and reads) with quiet windows
//!   whose idle gaps are modeled as explicit virtual-clock advances, so a
//!   timeline-faithful replay reproduces the bursts *and* the silences;
//! * [`CorpusKind::MailStorm`] — a mail-server fsync storm: per-mailbox
//!   message delivery, every message fsynced, with periodic mailbox
//!   compaction (rename over the old spool);
//! * [`CorpusKind::CiChurn`] — small-file CI-runner churn: rounds of
//!   check out (create many small files), build (read them, write
//!   artifacts), clean (unlink everything), per runner directory;
//! * [`CorpusKind::BackupScan`] — a backup pass: walk the tree with
//!   readdir/stat and read every file sequentially in fixed-size chunks —
//!   the read-mostly scan that evicts everyone else's cache.

use fskit::{FileSystem, FileSystemExt, FsResult, OpenFlags};
use mssd::MssdConfig;
use rand::rngs::SmallRng;

use crate::fsfactory::FsKind;
use crate::metrics::{OpClass, Recorder};
use crate::replay::{record_workload, Recorded};
use crate::spec::Scale;
use crate::Workload;

/// The replay scenario corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusKind {
    /// Bursty diurnal traffic with explicit idle windows.
    DiurnalBurst,
    /// Mail-server fsync storm.
    MailStorm,
    /// Small-file CI-runner churn.
    CiChurn,
    /// Sequential backup scan.
    BackupScan,
}

impl CorpusKind {
    /// Every corpus scenario, in a stable order.
    pub const ALL: [CorpusKind; 4] = [
        CorpusKind::DiurnalBurst,
        CorpusKind::MailStorm,
        CorpusKind::CiChurn,
        CorpusKind::BackupScan,
    ];

    /// Report / trace label.
    pub fn label(self) -> &'static str {
        match self {
            CorpusKind::DiurnalBurst => "diurnal",
            CorpusKind::MailStorm => "mailstorm",
            CorpusKind::CiChurn => "cichurn",
            CorpusKind::BackupScan => "backupscan",
        }
    }

    /// Builds the scenario's workload at `scale`.
    pub fn workload(self, scale: Scale) -> Box<dyn Workload> {
        match self {
            CorpusKind::DiurnalBurst => Box::new(DiurnalBurst::new(scale)),
            CorpusKind::MailStorm => Box::new(MailStorm::new(scale)),
            CorpusKind::CiChurn => Box::new(CiChurn::new(scale)),
            CorpusKind::BackupScan => Box::new(BackupScan::new(scale)),
        }
    }
}

impl std::fmt::Display for CorpusKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Records `kind`'s reference trace on a fresh `fs_kind` file system —
/// the one-call entry point the bench bin and CI use.
///
/// # Errors
///
/// Propagates file-system errors from the generator.
pub fn record_corpus(
    kind: CorpusKind,
    fs_kind: FsKind,
    cfg: MssdConfig,
    scale: Scale,
    seed: u64,
) -> FsResult<Recorded> {
    record_workload(fs_kind, cfg, kind.workload(scale).as_ref(), seed)
}

/// Enters tenant `t` for the current scope so the recorded ops attribute to
/// that client's trace stream.
fn tenant_scope(t: usize) -> mssd::CtxScope {
    mssd::CtxScope::enter(mssd::trace::ctx().with_tenant(t as u16))
}

// ---------------------------------------------------------------------------
// DiurnalBurst
// ---------------------------------------------------------------------------

/// Bursty diurnal traffic: each client cycles busy/quiet windows over its own
/// append log, with the quiet windows' idle time modeled as virtual-clock
/// advances.
#[derive(Debug, Clone)]
pub struct DiurnalBurst {
    /// Number of clients (each a trace tenant).
    pub clients: usize,
    /// Busy/quiet window pairs per client.
    pub windows: usize,
    /// Appends per busy window.
    pub busy_ops: usize,
    /// Appends per quiet window.
    pub quiet_ops: usize,
    /// Idle gap inserted before each quiet-window op, in virtual ns.
    pub idle_gap_ns: u64,
    /// Payload of each append.
    pub record_bytes: usize,
}

impl DiurnalBurst {
    /// Scaled configuration: 8 clients × 3 window pairs.
    pub fn new(scale: Scale) -> Self {
        Self {
            clients: 8,
            windows: 3,
            busy_ops: scale.count(40),
            quiet_ops: scale.count(8),
            idle_gap_ns: 200_000,
            record_bytes: 512,
        }
    }

    fn log_path(client: usize) -> String {
        format!("/diurnal/c{client}.log")
    }
}

impl Workload for DiurnalBurst {
    fn name(&self) -> String {
        "diurnal".to_string()
    }

    fn setup(&self, fs: &dyn FileSystem, _rng: &mut SmallRng) -> FsResult<()> {
        fs.mkdir("/diurnal")?;
        for c in 0..self.clients {
            let fd = fs.create(&Self::log_path(c))?;
            fs.close(fd)?;
        }
        fs.sync()
    }

    fn run(&self, fs: &dyn FileSystem, _rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()> {
        for c in 0..self.clients {
            self.run_client(fs, c, rec)?;
        }
        Ok(())
    }
}

impl DiurnalBurst {
    /// Runs client `c`'s busy/quiet windows over its own append log, as
    /// tenant `c`.
    fn run_client(&self, fs: &dyn FileSystem, c: usize, rec: &mut Recorder) -> FsResult<()> {
        let clock = fs.clock();
        let _tenant = tenant_scope(c);
        let fd = fs.open(&Self::log_path(c), OpenFlags::read_write().with_append())?;
        for w in 0..self.windows {
            // Busy window: a tight burst of appends, one fsync at the end.
            for i in 0..self.busy_ops {
                let sw = rec.start(&clock);
                let payload = vec![(c * 31 + w * 7 + i) as u8; self.record_bytes];
                fs.append(fd, &payload)?;
                rec.finish(&clock, sw, OpClass::Write, self.record_bytes);
            }
            let sw = rec.start(&clock);
            fs.fsync(fd)?;
            rec.finish(&clock, sw, OpClass::Write, 0);
            // Quiet window: sparse appends with idle gaps between them.
            for i in 0..self.quiet_ops {
                clock.advance(self.idle_gap_ns);
                let sw = rec.start(&clock);
                let payload = vec![(c * 13 + w * 5 + i) as u8; self.record_bytes];
                fs.append(fd, &payload)?;
                fs.fdatasync(fd)?;
                rec.finish(&clock, sw, OpClass::Write, self.record_bytes);
            }
        }
        let sw = rec.start(&clock);
        fs.fsync(fd)?;
        fs.close(fd)?;
        rec.finish(&clock, sw, OpClass::Write, 0);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MailStorm
// ---------------------------------------------------------------------------

/// A mail-server fsync storm: per-mailbox message delivery with an fsync per
/// message, periodic reads, and a compaction (rewrite + rename) per mailbox.
#[derive(Debug, Clone)]
pub struct MailStorm {
    /// Number of mailboxes (each a trace tenant).
    pub mailboxes: usize,
    /// Messages delivered per mailbox.
    pub messages: usize,
    /// Size of each delivered message.
    pub message_bytes: usize,
}

impl MailStorm {
    /// Scaled configuration: 8 mailboxes.
    pub fn new(scale: Scale) -> Self {
        Self { mailboxes: 8, messages: scale.count(20), message_bytes: 2048 }
    }

    fn spool(m: usize) -> String {
        format!("/mail/box{m}/spool")
    }
}

impl Workload for MailStorm {
    fn name(&self) -> String {
        "mailstorm".to_string()
    }

    fn setup(&self, fs: &dyn FileSystem, _rng: &mut SmallRng) -> FsResult<()> {
        fs.mkdir("/mail")?;
        for m in 0..self.mailboxes {
            fs.mkdir(&format!("/mail/box{m}"))?;
            let fd = fs.create(&Self::spool(m))?;
            fs.close(fd)?;
        }
        fs.sync()
    }

    fn run(&self, fs: &dyn FileSystem, _rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()> {
        for m in 0..self.mailboxes {
            self.run_mailbox(fs, m, rec)?;
        }
        Ok(())
    }
}

impl MailStorm {
    /// Runs mailbox `m`: its deliveries and its compaction, as tenant `m`.
    fn run_mailbox(&self, fs: &dyn FileSystem, m: usize, rec: &mut Recorder) -> FsResult<()> {
        let clock = fs.clock();
        let _tenant = tenant_scope(m);
        let spool = Self::spool(m);
        let fd = fs.open(&spool, OpenFlags::read_write().with_append())?;
        for i in 0..self.messages {
            // Delivery: append + fsync — the storm's signature pattern.
            let sw = rec.start(&clock);
            let payload = vec![(m * 17 + i) as u8; self.message_bytes];
            fs.append(fd, &payload)?;
            fs.fsync(fd)?;
            rec.finish(&clock, sw, OpClass::Write, self.message_bytes);
            // An IMAP client polls the mailbox every few deliveries.
            if i % 4 == 3 {
                let sw = rec.start(&clock);
                let size = fs.fstat(fd)?.size;
                let off = size.saturating_sub(self.message_bytes as u64);
                fs.read(fd, off, self.message_bytes)?;
                rec.finish(&clock, sw, OpClass::Read, self.message_bytes);
            }
        }
        fs.close(fd)?;
        // Compaction: rewrite the spool at half size, rename over it.
        let sw = rec.start(&clock);
        let compacted = format!("{spool}.new");
        let cfd = fs.create(&compacted)?;
        let keep = (self.messages / 2).max(1) * self.message_bytes;
        fs.write(cfd, 0, &vec![(m * 29) as u8; keep])?;
        fs.fsync(cfd)?;
        fs.close(cfd)?;
        fs.unlink(&spool)?;
        fs.rename(&compacted, &spool)?;
        rec.finish(&clock, sw, OpClass::Write, keep);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// CiChurn
// ---------------------------------------------------------------------------

/// Small-file CI-runner churn: each runner repeatedly checks out a tree of
/// small files, reads them back ("build"), writes an artifact, then unlinks
/// everything.
#[derive(Debug, Clone)]
pub struct CiChurn {
    /// Number of runners (directories).
    pub runners: usize,
    /// Checkout/build/clean rounds per runner.
    pub rounds: usize,
    /// Source files per checkout.
    pub files: usize,
    /// Size of each source file.
    pub file_bytes: usize,
}

impl CiChurn {
    /// Scaled configuration: 4 runners × 2 rounds.
    pub fn new(scale: Scale) -> Self {
        Self { runners: 4, rounds: 2, files: scale.count(24), file_bytes: 1024 }
    }

    fn src(r: usize, i: usize) -> String {
        format!("/ci/r{r}/src{i}")
    }
}

impl Workload for CiChurn {
    fn name(&self) -> String {
        "cichurn".to_string()
    }

    fn setup(&self, fs: &dyn FileSystem, _rng: &mut SmallRng) -> FsResult<()> {
        fs.mkdir("/ci")?;
        for r in 0..self.runners {
            fs.mkdir(&format!("/ci/r{r}"))?;
        }
        fs.sync()
    }

    fn run(&self, fs: &dyn FileSystem, _rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()> {
        for r in 0..self.runners {
            self.run_runner(fs, r, rec)?;
        }
        Ok(())
    }
}

impl CiChurn {
    /// Runs runner `r`: its checkout/build/clean rounds, as tenant `r`.
    fn run_runner(&self, fs: &dyn FileSystem, r: usize, rec: &mut Recorder) -> FsResult<()> {
        let clock = fs.clock();
        let _tenant = tenant_scope(r);
        for round in 0..self.rounds {
            // Checkout: create the small-file tree.
            for i in 0..self.files {
                let sw = rec.start(&clock);
                let fd = fs.create(&Self::src(r, i))?;
                fs.write(fd, 0, &vec![(r * 7 + round * 3 + i) as u8; self.file_bytes])?;
                fs.close(fd)?;
                rec.finish(&clock, sw, OpClass::Write, self.file_bytes);
            }
            let sw = rec.start(&clock);
            fs.sync()?;
            rec.finish(&clock, sw, OpClass::Write, 0);
            // Build: read every source, emit one artifact.
            for i in 0..self.files {
                let sw = rec.start(&clock);
                let fd = fs.open(&Self::src(r, i), OpenFlags::read_only())?;
                fs.read(fd, 0, self.file_bytes)?;
                fs.close(fd)?;
                rec.finish(&clock, sw, OpClass::Read, self.file_bytes);
            }
            let sw = rec.start(&clock);
            let art = format!("/ci/r{r}/artifact{round}");
            let fd = fs.create(&art)?;
            fs.write(fd, 0, &vec![0xA0 | (round as u8); self.file_bytes * 4])?;
            fs.fsync(fd)?;
            fs.close(fd)?;
            rec.finish(&clock, sw, OpClass::Write, self.file_bytes * 4);
            // Clean: unlink the checkout (artifacts are kept).
            for i in 0..self.files {
                let sw = rec.start(&clock);
                fs.unlink(&Self::src(r, i))?;
                rec.finish(&clock, sw, OpClass::Meta, 0);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// BackupScan
// ---------------------------------------------------------------------------

/// A backup pass over a pre-created tree: readdir each directory, stat each
/// file, read it sequentially in fixed-size chunks.
#[derive(Debug, Clone)]
pub struct BackupScan {
    /// Directories in the tree.
    pub dirs: usize,
    /// Files per directory.
    pub files_per_dir: usize,
    /// Size of each file.
    pub file_bytes: usize,
    /// Read chunk size.
    pub chunk: usize,
}

impl BackupScan {
    /// Scaled configuration: 4 directories of 8 KB files.
    pub fn new(scale: Scale) -> Self {
        Self { dirs: 4, files_per_dir: scale.count(16), file_bytes: 8192, chunk: 4096 }
    }

    fn file(d: usize, i: usize) -> String {
        format!("/data/d{d}/f{i}")
    }
}

impl Workload for BackupScan {
    fn name(&self) -> String {
        "backupscan".to_string()
    }

    fn setup(&self, fs: &dyn FileSystem, _rng: &mut SmallRng) -> FsResult<()> {
        fs.mkdir("/data")?;
        for d in 0..self.dirs {
            fs.mkdir(&format!("/data/d{d}"))?;
            for i in 0..self.files_per_dir {
                fs.write_file(&Self::file(d, i), &vec![(d * 11 + i) as u8; self.file_bytes])?;
            }
        }
        fs.sync()
    }

    fn run(&self, fs: &dyn FileSystem, _rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()> {
        for d in 0..self.dirs {
            self.scan_dir(fs, d, rec)?;
        }
        Ok(())
    }
}

impl BackupScan {
    /// Scans directory `d`: a readdir, then a stat and a chunked read of
    /// every file.
    fn scan_dir(&self, fs: &dyn FileSystem, d: usize, rec: &mut Recorder) -> FsResult<()> {
        let clock = fs.clock();
        let sw = rec.start(&clock);
        fs.readdir(&format!("/data/d{d}"))?;
        rec.finish(&clock, sw, OpClass::Meta, 0);
        for i in 0..self.files_per_dir {
            let path = Self::file(d, i);
            let sw = rec.start(&clock);
            let size = fs.stat(&path)?.size as usize;
            rec.finish(&clock, sw, OpClass::Meta, 0);
            let fd = fs.open(&path, OpenFlags::read_only())?;
            let mut off = 0usize;
            while off < size {
                let n = self.chunk.min(size - off);
                let sw = rec.start(&clock);
                fs.read(fd, off as u64, n)?;
                rec.finish(&clock, sw, OpClass::Read, n);
                off += n;
            }
            fs.close(fd)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;

    fn small() -> MssdConfig {
        MssdConfig::small_test()
    }

    #[test]
    fn every_corpus_scenario_records_deterministically() {
        for kind in CorpusKind::ALL {
            let a = record_corpus(kind, FsKind::ByteFs, small(), Scale::tiny(), 3).unwrap();
            let b = record_corpus(kind, FsKind::ByteFs, small(), Scale::tiny(), 3).unwrap();
            assert_eq!(a.trace.to_text(), b.trace.to_text(), "{kind}");
            assert_eq!(a.remount_digest, b.remount_digest, "{kind}");
            assert!(a.trace.records.len() > 30, "{kind}: {} records", a.trace.records.len());
            assert_eq!(a.trace.meta.name, kind.label());
        }
    }

    #[test]
    fn corpus_traces_replay_exactly_on_the_recording_fs() {
        for kind in CorpusKind::ALL {
            let rec = record_corpus(kind, FsKind::ByteFs, small(), Scale::tiny(), 5).unwrap();
            let out = replay(&rec.trace, FsKind::ByteFs, small())
                .unwrap_or_else(|e| panic!("{kind}: {e:?}"));
            assert_eq!(out.divergences, 0, "{kind}");
            assert_eq!(out.remount_digest, rec.remount_digest, "{kind}");
        }
    }

    #[test]
    fn corpus_traces_replay_against_every_main_filesystem() {
        let rec =
            record_corpus(CorpusKind::CiChurn, FsKind::ByteFs, small(), Scale::tiny(), 7).unwrap();
        for fs_kind in FsKind::MAIN {
            let out =
                replay(&rec.trace, fs_kind, small()).unwrap_or_else(|e| panic!("{fs_kind}: {e:?}"));
            assert_eq!(out.divergences, 0, "{fs_kind}: the op stream is fs-neutral");
            assert!(out.result.ops > 0, "{fs_kind}");
        }
    }

    #[test]
    fn multi_tenant_scenarios_mark_their_clients() {
        let rec =
            record_corpus(CorpusKind::DiurnalBurst, FsKind::ByteFs, small(), Scale::tiny(), 1)
                .unwrap();
        let tenants = rec.trace.tenants();
        assert!(tenants.len() >= 8, "one tenant per client, got {tenants:?}");
        // The clients run one after another: each tenant's measured ops form
        // one contiguous stretch of the trace.
        let measured: Vec<u16> =
            rec.trace.records.iter().filter(|r| r.measured).map(|r| r.tenant).collect();
        let switches = measured.windows(2).filter(|p| p[0] != p[1]).count();
        assert_eq!(switches, DiurnalBurst::new(Scale::tiny()).clients - 1);
        let out = replay(&rec.trace, FsKind::ByteFs, small()).unwrap();
        assert_eq!(out.divergences, 0);
        assert_eq!(out.replayed, rec.trace.records.len() as u64);
    }

    #[test]
    fn diurnal_idle_gaps_survive_exact_replay() {
        let rec =
            record_corpus(CorpusKind::DiurnalBurst, FsKind::ByteFs, small(), Scale::tiny(), 2)
                .unwrap();
        let w = DiurnalBurst::new(Scale::tiny());
        let quiet_ops = w.clients * w.windows * w.quiet_ops;
        // The recording issues every quiet-window op at least one idle gap
        // after the record before it.
        let gaps = rec
            .trace
            .records
            .windows(2)
            .filter(|p| p[1].measured && p[1].vts_ns - p[0].vts_ns >= w.idle_gap_ns)
            .count();
        assert_eq!(gaps, quiet_ops);
        // The replay rebuilds the recorded measured phase, idle gaps
        // included, down to the host-CPU charge the recording bills after
        // its last op.
        let exact = replay(&rec.trace, FsKind::ByteFs, small()).unwrap();
        assert!(exact.result.elapsed_ns >= quiet_ops as u64 * w.idle_gap_ns);
        assert_eq!(
            exact.result.elapsed_ns + crate::metrics::HOST_CPU_NS_PER_OP,
            rec.result.elapsed_ns
        );
    }
}
