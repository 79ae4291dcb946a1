//! # crashkit — deterministic power-failure injection for the whole stack
//!
//! The stack's central promise is crash consistency: the M-SSD's
//! battery-backed write log plus ByteFS's transactional metadata keep every
//! committed byte reachable across a power failure. Before this crate, that
//! promise was spot-checked by a handful of hand-rolled cut-power/remount
//! tests; crashkit turns it into a systematically explored property:
//!
//! 1. Every durability-relevant step the device executes (write-log append,
//!    TxLog commit, sealed-region drain migration, write-buffer/journal page
//!    acceptance, NAND program, block erase) is counted by the
//!    [`mssd::FaultPlan`] installed in [`mssd::MssdConfig::fault`].
//! 2. The [`Enumerator`] runs a deterministic, seeded workload
//!    ([`Scenario`]) once in counting mode to size the crash-point space,
//!    then once per chosen cut point with power cut at exactly that step —
//!    including cuts that tear multi-page programs and leave sealed log
//!    regions partially drained.
//! 3. At the cut, [`mssd::Mssd::crash_image`] captures the durable state
//!    (NAND + battery-backed DRAM); the image is restored into a fresh
//!    device, recovery runs, and the scenario's [`Oracle`] plus every
//!    layer's [`fskit::CrashConsistent`] checker verify the outcome.
//!
//! Failures are reproducible from one line: the seed re-derives the
//! workload, the cut index re-places the power failure, and the resulting
//! crash image is bit-identical — `Enumerator::reproduce(seed, cut)` replays
//! any reported violation.
//!
//! See `DESIGN.md` next to this crate for the crash-point taxonomy, the
//! checker API and the reproduction workflow.
//!
//! ```
//! use crashkit::{DeviceStress, Enumerator};
//!
//! let e = Enumerator::new(DeviceStress::quick());
//! let total = e.count_steps(7);
//! assert!(total > 0);
//! let outcome = e.run_cut(7, total / 2);
//! assert!(outcome.violations.is_empty(), "{}", outcome.repro_line());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod scenarios;

pub use driver::{CutOutcome, Enumerator, SweepReport};
pub use scenarios::{
    AppendStress, BaselineKind, BaselineStress, DeviceAsyncStress, DeviceMqStress, DeviceStress,
    FsStress, HangStress, KvStress, MediaStress, Oracle, ReplayStress, Scenario,
};

use std::sync::Arc;

use mssd::{Mssd, MssdConfig};

/// Deterministic xorshift64 stream used by every seeded workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the stream. The seed runs through a splitmix64 scramble so
    /// that adjacent seeds yield unrelated streams (a plain `seed | 1`
    /// would collapse every even seed onto its odd neighbour).
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self(z | 1)
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform value in `[0, bound)` (bound must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Simulates a full power cycle outside the enumeration driver: captures the
/// durable image of `dev` and restores it into a fresh device built from
/// `cfg`. This replaces the old hand-rolled `dev.crash()`-and-remount
/// helpers in the ported crash suites; unlike [`Mssd::crash`], it does not
/// assume the capacitor flush completed — the write buffer is carried over
/// as-is and recovery handles it.
pub fn power_cycle(dev: &Arc<Mssd>, cfg: MssdConfig) -> Arc<Mssd> {
    let image = dev.crash_image();
    Mssd::from_crash_image(cfg, dev.dram_mode(), &image)
}
