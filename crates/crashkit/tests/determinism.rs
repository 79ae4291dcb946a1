//! Crash-point counting and cut reproduction must be bit-deterministic:
//! the same seed sizes the same crash-point space, and the same `(seed,
//! cut)` pair produces the same crash image and the same post-recovery
//! state. This is what makes a printed failure line a full reproduction.

use std::sync::Arc;

use crashkit::{DeviceAsyncStress, DeviceStress, Enumerator, FsStress, KvStress, Oracle, Scenario};
use mssd::{DramMode, FaultKind, Mssd, MssdConfig};

#[test]
fn same_seed_counts_the_same_crash_point_space() {
    let e = Enumerator::new(DeviceStress::quick());
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        assert_eq!(e.count_steps(seed), e.count_steps(seed), "seed {seed:#x}");
    }
    let e = Enumerator::new(FsStress::quick());
    assert_eq!(e.count_steps(7), e.count_steps(7));
}

#[test]
fn same_cut_produces_the_same_image_and_recovery() {
    let e = Enumerator::new(DeviceStress::quick());
    for seed in [0x5EED, 0xCAFE] {
        let total = e.count_steps(seed);
        assert!(total > 0);
        for cut in [1, total / 4, total / 3, total / 2, 3 * total / 4, total] {
            let a = e.run_cut(seed, cut);
            let b = e.run_cut(seed, cut);
            assert_eq!(a.image_digest, b.image_digest, "cut {cut}: crash image diverged");
            assert_eq!(a.recovered_digest, b.recovered_digest, "cut {cut}: recovery diverged");
            assert_eq!(a.cut_kind, b.cut_kind, "cut {cut}: step kind diverged");
            assert!(a.clean(), "{}", a.repro_line());
        }
    }
}

#[test]
fn async_runtime_cuts_are_deterministic() {
    // The executor runs every client future on the enumerating thread in
    // FIFO order, so the async scenario replays bit-exactly.
    let e = Enumerator::new(DeviceAsyncStress::quick());
    let seed = 0xA51C;
    let total = e.count_steps(seed);
    assert_eq!(total, e.count_steps(seed), "step space diverged");
    for cut in [1, total / 2, total] {
        let a = e.run_cut(seed, cut);
        let b = e.run_cut(seed, cut);
        assert_eq!(a.image_digest, b.image_digest, "cut {cut}: crash image diverged");
        assert_eq!(a.recovered_digest, b.recovered_digest, "cut {cut}: recovery diverged");
        assert!(a.clean(), "{}", a.repro_line());
    }
}

#[test]
fn fs_and_kv_cuts_are_deterministic_too() {
    let e = Enumerator::new(FsStress::quick());
    let total = e.count_steps(11);
    let cut = total / 2;
    let a = e.run_cut(11, cut);
    let b = e.run_cut(11, cut);
    assert_eq!(a.image_digest, b.image_digest);
    assert_eq!(a.recovered_digest, b.recovered_digest);

    let e = Enumerator::new(KvStress::quick());
    let total = e.count_steps(5);
    let cut = 2 * total / 3;
    let a = e.run_cut(5, cut);
    let b = e.run_cut(5, cut);
    assert_eq!(a.image_digest, b.image_digest);
    assert_eq!(a.recovered_digest, b.recovered_digest);
}

#[test]
fn tracing_does_not_change_crash_determinism() {
    // Event tracing is observe-only: a traced enumeration must produce the
    // same step space, crash images and recovered digests as an untraced
    // one, and a power cut simply truncates the bounded trace rings — the
    // traced run still yields a drainable (non-empty) event stream.
    let seed = 0x7A3E;
    let off = Enumerator::new(DeviceStress::quick());
    let mut on = Enumerator::new(DeviceStress::quick());
    on.trace_injection = true;
    let total = off.count_steps(seed);
    assert_eq!(total, on.count_steps(seed), "tracing changed the step space");
    for cut in [1, total / 2, total] {
        let a = off.run_cut(seed, cut);
        let b = on.run_cut(seed, cut);
        assert_eq!(a.image_digest, b.image_digest, "cut {cut}: tracing changed the crash image");
        assert_eq!(a.recovered_digest, b.recovered_digest, "cut {cut}: tracing changed recovery");
        assert_eq!(a.cut_kind, b.cut_kind, "cut {cut}: tracing moved the cut");
        assert_eq!(a.traced_events, 0, "untraced run must capture nothing");
        if cut == total {
            // An immediate cut can legitimately capture nothing (power dies
            // before the first instrumented boundary); the full run must not.
            assert!(b.traced_events > 0, "cut {cut}: traced run captured no events");
        }
    }
}

/// [`DeviceStress`] on a log that cleans at half full: threshold passes run
/// inside its byte writes, so its seal-drain steps are cuts inside a pass.
struct HalfFullThreshold(DeviceStress);

impl Scenario for HalfFullThreshold {
    fn device_config(&self) -> MssdConfig {
        MssdConfig { log_clean_threshold: 0.5, ..self.0.device_config() }
    }

    fn dram_mode(&self) -> DramMode {
        self.0.dram_mode()
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        self.0.run(dev, seed)
    }
}

#[test]
fn a_cut_inside_a_threshold_pass_reproduces() {
    let scenario = HalfFullThreshold(DeviceStress::quick());
    let seed = 0xC1EA;
    // Every seal-drain step of this run belongs to a threshold pass: no
    // append ever fails admission, so no writer reclaims in the foreground.
    let dev = Mssd::new(scenario.device_config(), scenario.dram_mode());
    scenario.run(&dev, seed);
    let t = dev.traffic();
    assert!(t.log_bg_cleaned_pages > 0, "no threshold pass ran: {t:?}");
    assert_eq!(t.log_fg_stalls, 0, "a foreground reclaim also drains sealed pages");

    let e = Enumerator::new(scenario);
    let total = e.count_steps(seed);
    let cut = (total / 2..=total)
        .find(|&cut| e.run_cut(seed, cut).cut_kind == Some(FaultKind::SealDrain))
        .expect("the second half of the run cuts a pass somewhere");
    let a = e.run_cut(seed, cut);
    let b = e.run_cut(seed, cut);
    assert_eq!(a.image_digest, b.image_digest, "cut {cut}: crash image diverged");
    assert_eq!(a.recovered_digest, b.recovered_digest, "cut {cut}: recovery diverged");
    assert!(a.clean(), "{}", a.repro_line());
}
