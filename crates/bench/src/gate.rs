//! The one place a bench threshold lives: the gates `bench run` evaluates
//! on the reports it just made.
//!
//! A gate is a row of [`GATES`], next to the report key it reads. Every
//! bench is on the virtual clock, so every gate bites on every host. What a
//! gate does not hold — that a number did not move — the committed
//! `BENCH_*.json` holds: a fresh run at scale 1.0 must rewrite it byte for
//! byte (`DESIGN.md`, "The committed artifacts are exact").
//!
//! Every bound on a single report value is a row here, the fault-free runs'
//! "nothing was injected" included. A bench keeps an `assert!` only for what
//! is not one report value: `media_fault`'s "the armed plan reached the RAS
//! ladder" (`corrected_reads + read_retries > 0`) and `replay`'s digest and
//! divergence invariants.

use std::fmt;

use crate::report::{fmt_num, BenchReport};

/// Where in a report a gate reads its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A report-level `summary` scalar.
    Summary(&'static str),
    /// The `extra` field (second) of the entry with the given key (first).
    Extra(&'static str, &'static str),
}

/// How a gate holds its value to its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// value ≤ bound.
    AtMost,
    /// value > bound.
    Above,
}

/// One gate: a bench, the key it reads, the comparison and bound, and what
/// a failure means.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Registry name of the bench whose report this gate reads.
    pub bench: &'static str,
    /// The value read.
    pub source: Source,
    /// The comparison.
    pub cmp: Cmp,
    /// The bound compared against.
    pub bound: f64,
    /// What a failure means; the failure line prefixes the bench name.
    pub message: &'static str,
}

const fn gate(
    bench: &'static str,
    source: Source,
    cmp: Cmp,
    bound: f64,
    message: &'static str,
) -> Gate {
    Gate { bench, source, cmp, bound, message }
}

use Cmp::{Above, AtMost};
use Source::{Extra, Summary};

/// Every gate of every bench.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    gate("gc_pause", Summary("p99_ratio_on_vs_off"), AtMost, 2.0,
         "log cleaning leaks onto the foreground path"),
    gate("media_fault", Summary("cost_ratio_fault_vs_clean"), AtMost, 1.25,
         "media-fault handling leaks onto the hot path"),
    gate("media_fault", Extra("clean", "ueccs"), AtMost, 0.0,
         "the fault-free run reported UECCs"),
    gate("hang_recovery", Extra("clean", "injected_hangs"), AtMost, 0.0,
         "the fault-free run injected hangs"),
    gate("hang_recovery", Extra("clean", "recovered_cmds"), AtMost, 0.0,
         "the fault-free run took retries"),
    gate("hang_recovery", Extra("hang_1e-3", "injected_hangs"), Above, 0.0,
         "the armed 1e-3 hang plan injected nothing"),
    gate("hang_recovery", Summary("p99_ratio_fault_vs_clean"), AtMost, 3.0,
         "hang recovery wrecks the tail"),
];

impl fmt::Display for Gate {
    /// `p99_ratio_on_vs_off <= 2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            Summary(key) => write!(f, "{key}")?,
            Extra(entry, field) => write!(f, "{entry} {field}")?,
        }
        match self.cmp {
            AtMost => write!(f, " <= {}", self.bound),
            Above => write!(f, " > {}", self.bound),
        }
    }
}

impl Gate {
    fn fail<T>(&self, detail: String) -> Result<T, String> {
        Err(format!("{}: {}: {detail}", self.bench, self.message))
    }

    /// Judges one report of this gate's bench: `Ok` says how the gate held,
    /// `Err` is the failure message.
    pub fn check(&self, report: &BenchReport) -> Result<String, String> {
        let value = match self.source {
            Summary(key) => report.summary.get(key).copied(),
            Extra(entry, field) => report.entry(entry).and_then(|e| e.extra.get(field).copied()),
        };
        let Some(value) = value else {
            return self.fail(format!("the report has no value for `{self}`"));
        };
        let (holds, violated) = match self.cmp {
            AtMost => (value <= self.bound, ">"),
            Above => (value > self.bound, "<="),
        };
        if holds {
            Ok(format!("{}: ok", fmt_num(value)))
        } else {
            self.fail(format!("{} {violated} {}", fmt_num(value), self.bound))
        }
    }
}

/// Evaluates every gate of the benches `reports` are of, printing one line
/// per gate and report (failures to stderr). Returns the number of failures.
pub fn evaluate(reports: &[BenchReport]) -> usize {
    let mut failed = 0;
    for report in reports {
        let mut gates = GATES.iter().filter(|g| g.bench == report.bench).peekable();
        if gates.peek().is_none() {
            println!("gate: {}: no gates", report.bench);
        }
        for gate in gates {
            match gate.check(report) {
                Ok(how) => println!("gate: {}: {gate}: {how}", report.bench),
                Err(message) => {
                    eprintln!("GATE FAILED: {message}");
                    failed += 1;
                }
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BENCHES;
    use crate::report::BenchEntry;

    /// Every gate names a registered bench. That its key resolves is held
    /// where the benches run: `run all smoke` in
    /// `cli::tests::two_paper_runs_write_a_byte_identical_file` and the
    /// scale-1.0 runs of `cli::tests::committed_artifacts_rewrite_byte_for_byte`
    /// exit 0 only when every gate of theirs reads its key and holds.
    #[test]
    fn every_gate_resolves_in_its_committed_artifact() {
        for gate in GATES {
            assert!(
                BENCHES.iter().any(|b| b.name == gate.bench),
                "gate `{gate}` names unregistered bench {}",
                gate.bench
            );
            assert!(gate.message.len() > 10);
        }
    }

    /// A report of `gate`'s bench whose gated value is `value`.
    fn synthetic(gate: &Gate, value: f64) -> BenchReport {
        let mut report = BenchReport::new(gate.bench, 1.0);
        match gate.source {
            Summary(key) => drop(report.summary.insert(key.into(), value)),
            Extra(entry, field) => report.entries.push(BenchEntry::new(entry, &[(field, value)])),
        }
        report
    }

    /// The heredocs' checks, bound for bound: (bench, gate, a violating
    /// value, the failure it must produce).
    #[rustfmt::skip]
    const VIOLATIONS: &[(&str, &str, f64, &str)] = &[
        ("gc_pause", "p99_ratio_on_vs_off <= 2", 2.5,
         "gc_pause: log cleaning leaks onto the foreground path: 2.500 > 2"),
        ("media_fault", "cost_ratio_fault_vs_clean <= 1.25", 1.3,
         "media_fault: media-fault handling leaks onto the hot path: 1.300 > 1.25"),
        ("media_fault", "clean ueccs <= 0", 1.0,
         "media_fault: the fault-free run reported UECCs: 1 > 0"),
        ("hang_recovery", "clean injected_hangs <= 0", 2.0,
         "hang_recovery: the fault-free run injected hangs: 2 > 0"),
        ("hang_recovery", "clean recovered_cmds <= 0", 1.0,
         "hang_recovery: the fault-free run took retries: 1 > 0"),
        ("hang_recovery", "hang_1e-3 injected_hangs > 0", 0.0,
         "hang_recovery: the armed 1e-3 hang plan injected nothing: 0 <= 0"),
        ("hang_recovery", "p99_ratio_fault_vs_clean <= 3", 3.5,
         "hang_recovery: hang recovery wrecks the tail: 3.500 > 3"),
    ];

    /// Per gate: a report that holds it passes, one that violates it fails
    /// with exactly its message, and one without its key fails.
    #[test]
    fn every_gate_passes_fails_and_skips() {
        assert_eq!(GATES.len(), VIOLATIONS.len());
        for (gate, (bench, shown, bad, message)) in GATES.iter().zip(VIOLATIONS) {
            assert_eq!((gate.bench, gate.to_string().as_str()), (*bench, *shown));
            let held = |verdict: Result<String, String>, how: &str| {
                assert!(verdict.as_ref().is_ok_and(|v| v.ends_with(how)), "{gate}: {verdict:?}");
            };
            held(gate.check(&synthetic(gate, gate.bound + f64::from(gate.cmp == Above))), ": ok");
            assert_eq!(gate.check(&synthetic(gate, *bad)), Err(message.to_string()));
            assert!(gate.check(&BenchReport::new(gate.bench, 1.0)).is_err(), "{gate}: key gone");
        }
    }
}
