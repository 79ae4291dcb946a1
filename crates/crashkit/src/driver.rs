//! The crash-point enumeration driver.
//!
//! [`Enumerator`] wraps a [`Scenario`] and explores its crash-point space:
//!
//! * [`Enumerator::count_steps`] runs the workload once under a counting
//!   [`FaultPlan`] to size the space;
//! * [`Enumerator::run_cut`] replays the workload with power cut at one
//!   chosen step, captures the durable [`CrashImage`], restores it into a
//!   fresh device and verifies the scenario's oracle plus the stack's
//!   [`fskit::CrashConsistent`] checkers;
//! * [`Enumerator::exhaustive`] sweeps every cut point (or an evenly spaced
//!   subset when capped); [`Enumerator::sweep`] samples seed-derived random
//!   cut points for stress workloads;
//! * [`Enumerator::reproduce`] replays one `(seed, cut)` pair — the two
//!   numbers printed in every failure's [`CutOutcome::repro_line`].
//!
//! Determinism: the injection run is single-threaded, and a log-cleaning
//! pass runs inside the byte write that crosses the threshold, so the same
//! `(seed, cut)` always yields the same crash image (`image_digest`) and the
//! same post-recovery state (`recovered_digest`) — cuts inside a cleaning
//! pass included; the determinism tests pin this.

use mssd::{CrashImage, FaultKind, FaultPlan, Mssd};

use fskit::check::Violation;

use crate::scenarios::Scenario;
use crate::Rng;

/// Mutates a captured crash image before restoration — the hook crash tests
/// use to *inject* violations of the durability assumptions (drop the
/// battery-backed write buffer to model a failed capacitor flush, truncate
/// the TxLog to model torn commit records) and prove the checkers catch
/// them. The same mutator re-applied to the same `(seed, cut)` reproduces
/// the same injected failure.
pub type ImageMutator = fn(&mut CrashImage, u64);

/// Drives a [`Scenario`] through its crash-point space.
pub struct Enumerator<S> {
    /// The scenario under test.
    pub scenario: S,
    /// Optional violation injection applied to every captured image.
    pub mutator: Option<ImageMutator>,
    /// Enable `mssd::trace` event capture on the injection-side device.
    /// Tracing is observe-only — it must never change digests or the step
    /// space; the determinism tests hold it to that. Captured events are
    /// drained (and truncated at the power cut, since the per-thread rings
    /// are bounded) into [`CutOutcome::traced_events`].
    pub trace_injection: bool,
}

/// Everything one explored crash point produced.
#[derive(Debug)]
pub struct CutOutcome {
    /// Workload seed.
    pub seed: u64,
    /// 1-based durability step at which power was cut.
    pub cut: u64,
    /// Kind of the step the cut landed on.
    pub cut_kind: Option<FaultKind>,
    /// Durability steps observed by the end of the run (≥ `cut`).
    pub steps_observed: u64,
    /// Digest of the captured durable state (after mutation, if any).
    pub image_digest: u64,
    /// Digest of the durable state after restoration + recovery + checks.
    pub recovered_digest: u64,
    /// Violations found by the oracle and the layer checkers.
    pub violations: Vec<Violation>,
    /// Trace events drained from the injection-side device (0 unless
    /// [`Enumerator::trace_injection`] was set).
    pub traced_events: u64,
}

impl CutOutcome {
    /// `true` when no checker objected to this crash point.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one line that reproduces this crash point:
    /// `Enumerator::reproduce(seed, cut)` with the same scenario and flags.
    pub fn repro_line(&self) -> String {
        format!(
            "crashkit repro: seed={:#x} cut={} kind={} ({} violations)",
            self.seed,
            self.cut,
            self.cut_kind.map(|k| k.label()).unwrap_or("none"),
            self.violations.len()
        )
    }
}

/// Aggregate of one enumeration pass.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Total crash-point space of the counted run(s) (max across seeds).
    pub total_steps: u64,
    /// One entry per explored cut.
    pub outcomes: Vec<CutOutcome>,
}

impl SweepReport {
    /// Outcomes with at least one violation.
    pub fn failures(&self) -> impl Iterator<Item = &CutOutcome> {
        self.outcomes.iter().filter(|o| !o.clean())
    }

    /// Number of distinct `(seed, cut)` crash points explored.
    pub fn distinct_points(&self) -> usize {
        let mut points: Vec<(u64, u64)> = self.outcomes.iter().map(|o| (o.seed, o.cut)).collect();
        points.sort_unstable();
        points.dedup();
        points.len()
    }

    /// Panics with every failure's reproduction line if any cut was dirty.
    pub fn assert_clean(&self) {
        let lines: Vec<String> = self
            .failures()
            .map(|o| {
                let mut s = o.repro_line();
                for violation in &o.violations {
                    s.push_str(&format!("\n    {violation}"));
                }
                s
            })
            .collect();
        assert!(lines.is_empty(), "crash sweep found violations:\n{}", lines.join("\n"));
    }
}

impl<S: Scenario> Enumerator<S> {
    /// Wraps a scenario with no image mutator and tracing off.
    pub fn new(scenario: S) -> Self {
        Self { scenario, mutator: None, trace_injection: false }
    }

    fn inject_config(&self, plan: FaultPlan) -> mssd::MssdConfig {
        mssd::MssdConfig { fault: plan, ..self.scenario.device_config() }
    }

    fn recover_config(&self) -> mssd::MssdConfig {
        self.inject_config(FaultPlan::disabled())
    }

    /// Sizes the crash-point space: runs the workload for `seed` under a
    /// counting plan and returns the number of durability steps.
    pub fn count_steps(&self, seed: u64) -> u64 {
        let plan = FaultPlan::count_only();
        let dev = Mssd::new(self.inject_config(plan.clone()), self.scenario.dram_mode());
        let _oracle = self.scenario.run(&dev, seed);
        plan.total_steps()
    }

    /// Explores one crash point: cut power at step `cut` of seed `seed`'s
    /// run, restore, recover, verify.
    pub fn run_cut(&self, seed: u64, cut: u64) -> CutOutcome {
        let plan = FaultPlan::cut_at(cut);
        let mode = self.scenario.dram_mode();
        let dev = Mssd::new(self.inject_config(plan.clone()), mode);
        dev.set_tracing(self.trace_injection);
        let oracle = self.scenario.run(&dev, seed);
        let traced_events =
            if self.trace_injection { dev.trace_sink().drain().events.len() as u64 } else { 0 };
        let mut image = dev.crash_image();
        drop(dev); // the host is gone
        if let Some(mutate) = self.mutator {
            mutate(&mut image, seed);
        }
        let image_digest = image.digest();
        let restored = Mssd::from_crash_image(self.recover_config(), mode, &image);
        let violations = oracle.verify(&restored);
        let recovered_digest = restored.crash_image().digest();
        CutOutcome {
            seed,
            cut,
            cut_kind: plan.cut_kind(),
            steps_observed: plan.total_steps(),
            image_digest,
            recovered_digest,
            violations,
            traced_events,
        }
    }

    /// Runs the workload to completion with no power cut — the pure
    /// media-fault mode: every injected NAND fault must be absorbed by the
    /// RAS layer or surfaced as a typed error with the device still
    /// consistent. The run ends with a clean power cycle (crash image at
    /// quiescence, restore, recover, verify), which in particular checks
    /// that the bad-block table survives it. Reported as a [`CutOutcome`]
    /// with `cut == 0` / `cut_kind == None` so it slots into the same
    /// [`SweepReport`] plumbing as real cuts.
    pub fn run_to_end(&self, seed: u64) -> CutOutcome {
        let plan = FaultPlan::count_only();
        let mode = self.scenario.dram_mode();
        let dev = Mssd::new(self.inject_config(plan.clone()), mode);
        dev.set_tracing(self.trace_injection);
        let oracle = self.scenario.run(&dev, seed);
        let traced_events =
            if self.trace_injection { dev.trace_sink().drain().events.len() as u64 } else { 0 };
        let mut image = dev.crash_image();
        drop(dev);
        if let Some(mutate) = self.mutator {
            mutate(&mut image, seed);
        }
        let image_digest = image.digest();
        let restored = Mssd::from_crash_image(self.recover_config(), mode, &image);
        let violations = oracle.verify(&restored);
        let recovered_digest = restored.crash_image().digest();
        CutOutcome {
            seed,
            cut: 0,
            cut_kind: None,
            steps_observed: plan.total_steps(),
            image_digest,
            recovered_digest,
            violations,
            traced_events,
        }
    }

    /// Replays one reported crash point (`CutOutcome::repro_line`).
    pub fn reproduce(&self, seed: u64, cut: u64) -> CutOutcome {
        self.run_cut(seed, cut)
    }

    /// Explores every cut point of `seed`'s run — or, when the space
    /// exceeds `max_cuts`, an evenly spaced subset covering it end to end
    /// (the cap is logged in the report, never silent: `total_steps` always
    /// records the full space).
    pub fn exhaustive(&self, seed: u64, max_cuts: usize) -> SweepReport {
        let total = self.count_steps(seed);
        let mut report = SweepReport { total_steps: total, outcomes: Vec::new() };
        if total == 0 {
            return report;
        }
        let cuts: Vec<u64> = if total as usize <= max_cuts {
            (1..=total).collect()
        } else if max_cuts <= 1 {
            // A cap of 1 (or 0, clamped) still explores the final step —
            // the most state-rich crash point.
            vec![total]
        } else {
            // Evenly spaced, always including the first and last step.
            (0..max_cuts).map(|i| 1 + (i as u64 * (total - 1)) / (max_cuts as u64 - 1)).collect()
        };
        for cut in cuts {
            report.outcomes.push(self.run_cut(seed, cut));
        }
        report
    }

    /// Seeded-random sweep for stress workloads: for each seed, sizes the
    /// space and explores `cuts_per_seed` pseudo-randomly chosen cut points
    /// (derived from the seed, so the whole sweep is reproducible).
    pub fn sweep(&self, seeds: &[u64], cuts_per_seed: usize) -> SweepReport {
        let mut report = SweepReport::default();
        for &seed in seeds {
            let total = self.count_steps(seed);
            report.total_steps = report.total_steps.max(total);
            if total == 0 {
                continue;
            }
            let mut rng = Rng::new(seed ^ CUT_PICK_SALT);
            for _ in 0..cuts_per_seed {
                let cut = 1 + rng.below(total);
                report.outcomes.push(self.run_cut(seed, cut));
            }
        }
        report
    }
}

/// Salt separating the cut-picking stream from the workload's own seed.
const CUT_PICK_SALT: u64 = 0xC1A5_4C17;
