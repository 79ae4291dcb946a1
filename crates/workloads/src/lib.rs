//! # workloads — benchmark workloads and the measurement harness
//!
//! This crate re-implements the workloads of the ByteFS evaluation (§5.1,
//! Table 5) on top of the [`fskit::FileSystem`] trait, and provides the
//! machinery to run them against any file system in the workspace and collect
//! the metrics the paper reports:
//!
//! * Filebench-style **micro-benchmarks** — `create`, `delete`, `mkdir`,
//!   `rmdir` ([`micro`]);
//! * Filebench **macro personalities** — Varmail, Fileserver, Webserver,
//!   Webproxy ([`filebench`]) and an OLTP-style workload ([`oltp`]);
//! * **YCSB A–F** with zipfian/latest/uniform request distributions driving
//!   the [`kvstore`] LSM store ([`ycsb`]);
//! * a [`driver`] that runs a workload on a file system — one client, one
//!   thread, on the device's virtual clock — and returns throughput,
//!   per-class latency and device traffic deltas;
//! * [`amplification`] reports (read/write amplification and per-structure
//!   traffic breakdowns, Table 2 / Figures 1, 8–11);
//! * a [`fsfactory`] that builds every file system under test, including the
//!   ByteFS ablation variants of Figure 12;
//! * a deterministic [`mod@replay`] subsystem — record any workload's
//!   file-system op stream as a versioned text trace and re-drive it
//!   against any file system on the recorded virtual timeline — plus the
//!   [`corpus`] of replay scenarios it ships with (see `DESIGN-replay.md`).
//!
//! All workloads are scaled-down versions of the paper's (which run millions
//! of files for hours on real hardware); the [`spec::Scale`] parameter controls
//! the working-set size so every figure can be regenerated in minutes.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amplification;
pub mod corpus;
pub mod driver;
pub mod filebench;
pub mod fsfactory;
pub mod metrics;
pub mod micro;
pub mod oltp;
pub mod replay;
pub mod spec;
pub mod ycsb;

pub use corpus::{record_corpus, CorpusKind};
pub use driver::{run_workload, RunResult};
pub use fsfactory::FsKind;
pub use metrics::{Histogram, LatencyStats, OpClass, Recorder};
pub use replay::{
    record_workload, replay, replay_on, OpKind, OpRecord, OpTrace, Payload, Recorded, RecordingFs,
    ReplayOutcome, TraceMeta, FS_TRACE_SCHEMA,
};
pub use spec::Scale;

use fskit::{FileSystem, FsResult};
use rand::rngs::SmallRng;

/// A file-system workload: a setup phase (not measured) and a measured run.
pub trait Workload {
    /// Short name used in reports (e.g. `"varmail"`).
    fn name(&self) -> String;

    /// Prepares the file set. Not measured.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    fn setup(&self, fs: &dyn FileSystem, rng: &mut SmallRng) -> FsResult<()>;

    /// Runs the measured phase, recording each operation in `rec`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    fn run(&self, fs: &dyn FileSystem, rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()>;
}
