//! Acceptance tests of the host error-recovery layer under crashkit.
//!
//! The `device-hang` mode runs the [`HangStress`] workload to completion
//! (no power cut) against a device whose [`mssd::HangFaultPlan`] injects
//! bounded and unbounded command stalls, lost completions and lane wedges,
//! then power cycles it cleanly. The sweep here must observe well over 200
//! injected hang faults across all three kinds — with background cleaning
//! both off and on — and complete with zero consistency violations: every
//! timed-out command resolved through the deadline/abort/retry layer with
//! its final value exactly-once observable (never duplicated into a stale
//! or torn state, never silently dropped).
//!
//! Hang injection is seeded: the same hang seed over the same op stream
//! must inject the same faults, take the same timeouts/aborts/resets/
//! retries and converge to the same post-recovery digest. The determinism
//! test pins that, because it is what makes a hang-failure report
//! reproducible. All hang detection runs on the virtual clock — the RAS
//! counters asserted here move without any wall-clock sleeping.

use crashkit::{Enumerator, HangStress, Scenario};
use mssd::{HangOpKind, Mssd};

/// Per-kind injected-hang counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Injected {
    stall: u64,
    loss: u64,
    wedge: u64,
}

impl Injected {
    fn total(&self) -> u64 {
        self.stall + self.loss + self.wedge
    }
}

/// Recovery-layer RAS counter snapshot relevant to determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RasCounts {
    hang_timeouts: u64,
    aborts: u64,
    lane_resets: u64,
    retries: u64,
}

/// Runs one `device-hang` pass directly (outside the [`Enumerator`], which
/// hides the device) so the injected-hang counters are observable, then
/// performs the same clean power cycle + oracle verification the enumerator
/// does. Returns everything the acceptance and determinism tests assert on.
fn run_hang(scenario: &HangStress, cleaning: bool, seed: u64) -> (Injected, RasCounts, u64, usize) {
    let mut cfg = scenario.device_config();
    cfg.background_cleaning = cleaning;
    let dev = Mssd::new(cfg, scenario.dram_mode());
    let oracle = scenario.run(&dev, seed);
    dev.quiesce_cleaning();
    let injected = Injected {
        stall: dev.config().hang.injected_of(HangOpKind::Stall),
        loss: dev.config().hang.injected_of(HangOpKind::Loss),
        wedge: dev.config().hang.injected_of(HangOpKind::Wedge),
    };
    let snap = dev.snapshot();
    let ras = RasCounts {
        hang_timeouts: snap.traffic.hang_timeouts,
        aborts: snap.traffic.aborts,
        lane_resets: snap.traffic.lane_resets,
        retries: snap.traffic.retries,
    };
    let image = dev.crash_image();
    drop(dev);
    let mut rcfg = scenario.device_config();
    rcfg.background_cleaning = cleaning;
    let restored = Mssd::from_crash_image(rcfg, scenario.dram_mode(), &image);
    let violations = oracle.verify(&restored);
    for v in &violations {
        eprintln!("hang violation (cleaning={cleaning}, seed={seed:#x}): {v}");
    }
    restored.quiesce_cleaning();
    let digest = restored.crash_image().digest();
    (injected, ras, digest, violations.len())
}

#[test]
fn hang_sweep_injects_hundreds_of_faults_with_zero_violations() {
    let scenario = HangStress::quick();
    let mut grand = Injected::default();
    let mut grand_ras = RasCounts { hang_timeouts: 0, aborts: 0, lane_resets: 0, retries: 0 };
    for cleaning in [false, true] {
        let mut sub = Injected::default();
        for seed in 1u64..=6 {
            let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (injected, ras, _digest, violations) = run_hang(&scenario, cleaning, seed);
            assert_eq!(violations, 0, "cleaning={cleaning} seed={seed:#x} found violations");
            sub.stall += injected.stall;
            sub.loss += injected.loss;
            sub.wedge += injected.wedge;
            grand_ras.hang_timeouts += ras.hang_timeouts;
            grand_ras.aborts += ras.aborts;
            grand_ras.lane_resets += ras.lane_resets;
            grand_ras.retries += ras.retries;
        }
        assert!(sub.total() > 0, "cleaning={cleaning}: the armed hang plan injected nothing");
        grand.stall += sub.stall;
        grand.loss += sub.loss;
        grand.wedge += sub.wedge;
    }
    assert!(
        grand.total() >= 200,
        "acceptance floor: expected >= 200 injected hang faults, got {grand:?}"
    );
    assert!(grand.stall > 0, "no stalls injected: {grand:?}");
    assert!(grand.loss > 0, "no lost completions injected: {grand:?}");
    assert!(grand.wedge > 0, "no lane wedges injected: {grand:?}");
    // The recovery layer must actually have worked for the runs to be
    // clean: losses and unbounded stalls surface as deadline timeouts and
    // host aborts, wedges as lane resets, and every recovered command rides
    // a backoff retry.
    assert!(grand_ras.hang_timeouts > 0, "no deadline timeouts taken: {grand_ras:?}");
    assert!(grand_ras.aborts > 0, "no host aborts issued: {grand_ras:?}");
    assert!(grand_ras.lane_resets > 0, "no lane resets taken: {grand_ras:?}");
    assert!(grand_ras.retries > 0, "no retries taken: {grand_ras:?}");
}

#[test]
fn hang_faults_are_deterministic_per_seed() {
    // Same hang seed + same op stream -> same injected hangs, same recovery
    // actions (timeouts / aborts / resets / retries) and the same
    // post-power-cycle digest. Cleaning must stay off: the runtime is
    // deterministic only without the racing cleaner thread.
    let scenario = HangStress::quick();
    for seed in [0x5EED_u64, 0xFEED_FACE] {
        let (ia, ra, da, va) = run_hang(&scenario, false, seed);
        let (ib, rb, db, vb) = run_hang(&scenario, false, seed);
        assert_eq!(ia, ib, "seed {seed:#x}: injected-hang counts diverged");
        assert_eq!(ra, rb, "seed {seed:#x}: recovery RAS counters diverged");
        assert_eq!(da, db, "seed {seed:#x}: post-recovery digest diverged");
        assert_eq!(va, vb, "seed {seed:#x}: violation counts diverged");
        assert_eq!(va, 0, "seed {seed:#x}: violations found");
    }
}

#[test]
fn hang_power_cut_sweep_is_clean() {
    // The combination mode ("hang+power"): power cuts land inside a stream
    // that is simultaneously suffering injected hangs — including inside
    // timeout, abort, lane-reset and backoff-retry windows. Every explored
    // crash point must restore, recover and verify clean: a timed-out-then-
    // retried command is exactly-once observable or in-doubt, never
    // duplicated into a torn or impossible state.
    let e = Enumerator::new(HangStress::quick());
    let report = e.sweep(&[0x11, 0x22], 8);
    assert!(report.total_steps > 0, "hang stream produced no durability steps");
    assert!(report.distinct_points() > 0);
    report.assert_clean();
}

#[test]
fn hang_run_to_end_reports_cut_zero() {
    let e = Enumerator::new(HangStress::quick());
    let outcome = e.run_to_end(0x77);
    assert_eq!(outcome.cut, 0, "run_to_end is the no-cut mode");
    assert!(outcome.cut_kind.is_none());
    assert!(outcome.clean(), "{}", outcome.repro_line());
}
