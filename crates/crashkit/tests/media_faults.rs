//! Acceptance tests of the media-error RAS layer under crashkit.
//!
//! The `device-media` mode runs the [`MediaStress`] workload to completion
//! (no power cut) against a device whose [`mssd::MediaFaultPlan`] injects
//! transient read errors, program failures and erase failures, then power
//! cycles it cleanly. The sweep here must observe well over 200 injected
//! faults across all three kinds and complete with zero consistency
//! violations, zero panics, every
//! uncorrectable read surfaced as a typed error, and the bad-block table
//! intact across the power cycle (the oracle checks that last one).
//!
//! Media injection is seeded: the same media seed over the same op stream
//! must inject the same faults, yield the same RAS counters and converge to
//! the same post-recovery digest. The determinism test pins that, because it
//! is what makes a media-failure report reproducible.

use crashkit::{Enumerator, MediaStress, Scenario};
use mssd::{MediaOpKind, Mssd};

/// Per-kind injected-fault counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Injected {
    read: u64,
    program: u64,
    erase: u64,
}

impl Injected {
    fn total(&self) -> u64 {
        self.read + self.program + self.erase
    }
}

/// RAS counter snapshot relevant to determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RasCounts {
    corrected: u64,
    uncorrectable: u64,
    retries: u64,
    remapped: u64,
    retired: u64,
}

/// Runs one `device-media` pass directly (outside the [`Enumerator`], which
/// hides the device) so the injected-fault counters are observable, then
/// performs the same clean power cycle + oracle verification the enumerator
/// does. Returns everything the acceptance and determinism tests assert on.
fn run_media(scenario: &MediaStress, seed: u64) -> (Injected, RasCounts, u64, usize) {
    let dev = Mssd::new(scenario.device_config(), scenario.dram_mode());
    let oracle = scenario.run(&dev, seed);
    let injected = Injected {
        read: dev.config().media.injected_of(MediaOpKind::Read),
        program: dev.config().media.injected_of(MediaOpKind::Program),
        erase: dev.config().media.injected_of(MediaOpKind::Erase),
    };
    let snap = dev.snapshot();
    let ras = RasCounts {
        corrected: snap.traffic.ras_corrected_reads,
        uncorrectable: snap.traffic.ras_uncorrectable_reads,
        retries: snap.traffic.ras_read_retries,
        remapped: snap.traffic.ras_remapped_pages,
        retired: snap.traffic.ras_retired_blocks,
    };
    let image = dev.crash_image();
    drop(dev);
    let restored = Mssd::from_crash_image(scenario.device_config(), scenario.dram_mode(), &image);
    let violations = oracle.verify(&restored);
    for v in &violations {
        eprintln!("media violation (seed={seed:#x}): {v}");
    }
    let digest = restored.crash_image().digest();
    (injected, ras, digest, violations.len())
}

#[test]
fn media_sweep_injects_hundreds_of_faults_with_zero_violations() {
    let scenario = MediaStress::quick();
    let mut grand = Injected::default();
    for seed in 1u64..=6 {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (injected, _ras, _digest, violations) = run_media(&scenario, seed);
        assert_eq!(violations, 0, "seed={seed:#x} found violations");
        grand.read += injected.read;
        grand.program += injected.program;
        grand.erase += injected.erase;
    }
    assert!(
        grand.total() >= 200,
        "acceptance floor: expected >= 200 injected media faults, got {grand:?}"
    );
    assert!(grand.read > 0, "no transient read errors injected: {grand:?}");
    assert!(grand.program > 0, "no program failures injected: {grand:?}");
    assert!(grand.erase > 0, "no erase failures injected: {grand:?}");
}

#[test]
fn media_faults_are_deterministic_per_seed() {
    // Same media seed + same op stream -> same injected faults, same RAS
    // verdicts (corrected / UECC / remap / retire) and the same
    // post-power-cycle digest.
    let scenario = MediaStress::quick();
    for seed in [0x5EED_u64, 0xFEED_FACE] {
        let (ia, ra, da, va) = run_media(&scenario, seed);
        let (ib, rb, db, vb) = run_media(&scenario, seed);
        assert_eq!(ia, ib, "seed {seed:#x}: injected-fault counts diverged");
        assert_eq!(ra, rb, "seed {seed:#x}: RAS counters diverged");
        assert_eq!(da, db, "seed {seed:#x}: post-recovery digest diverged");
        assert_eq!(va, vb, "seed {seed:#x}: violation counts diverged");
        assert_eq!(va, 0, "seed {seed:#x}: violations found");
    }
}

#[test]
fn media_power_cut_sweep_is_clean() {
    // The combination mode ("media+power"): power cuts land inside a stream
    // that is simultaneously suffering injected NAND faults. Every explored
    // crash point must restore, recover and verify clean — in particular the
    // bad-block table captured at the cut must survive the power cycle.
    let e = Enumerator::new(MediaStress::quick());
    let report = e.sweep(&[0x11, 0x22], 8);
    assert!(report.total_steps > 0, "media stream produced no durability steps");
    assert!(report.distinct_points() > 0);
    report.assert_clean();
}

#[test]
fn media_run_to_end_reports_cut_zero() {
    let e = Enumerator::new(MediaStress::quick());
    let outcome = e.run_to_end(0x77);
    assert_eq!(outcome.cut, 0, "run_to_end is the no-cut mode");
    assert!(outcome.cut_kind.is_none());
    assert!(outcome.clean(), "{}", outcome.repro_line());
}
