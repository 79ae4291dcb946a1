//! The one place a bench threshold lives: the gates `bench gate` evaluates
//! on a report, and the floor and ceiling `bench compare` holds a fresh run
//! to against the committed artifact.
//!
//! A gate is a row of [`GATES`], next to the report key it reads. Every
//! bench is on the virtual clock, so every gate bites on every host.

use std::fmt;

use crate::report::{fmt_num, BenchReport};

/// `bench compare`: a rate below this fraction of committed is a
/// regression…
pub const VIRTUAL_FLOOR: f64 = 0.6;

/// …and so is a latency above this multiple of committed.
pub const VIRTUAL_CEILING: f64 = 2.0;

/// Where in a report a gate reads its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A report-level `summary` scalar.
    Summary(&'static str),
    /// The `extra` field (second) of the entry with the given key (first).
    Extra(&'static str, &'static str),
    /// The named `extra` field of every entry (cross-run gates).
    EveryEntry(&'static str),
}

/// How a gate holds its value to its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// value ≤ bound.
    AtMost,
    /// value > bound.
    Above,
    /// The value is bit-equal in every report of the bench passed to one
    /// `bench gate` call (nothing to judge when there is only one); the
    /// bound is unused.
    SameAcrossRuns,
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

use Cmp::{Above, AtMost, SameAcrossRuns};
use Source::{EveryEntry, Extra, Summary};

/// Every gate of every bench.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    gate("gc_pause", Summary("p99_ratio_on_vs_off"), AtMost, 2.0,
         "log cleaning leaks onto the foreground path"),
    gate("media_fault", Summary("cost_ratio_fault_vs_clean"), AtMost, 1.25,
         "media-fault handling leaks onto the hot path"),
    gate("hang_recovery", Extra("hang_1e-3", "injected_hangs"), Above, 0.0,
         "the armed 1e-3 hang plan injected nothing"),
    gate("hang_recovery", Summary("p99_ratio_fault_vs_clean"), AtMost, 3.0,
         "hang recovery wrecks the tail"),
    // Recording itself is deterministic, not just replay: two independent
    // processes must pin identical remount digests.
    gate("replay", EveryEntry("digest_hi"), SameAcrossRuns, 0.0,
         "remount digests diverged across independent runs"),
    gate("replay", EveryEntry("digest_lo"), SameAcrossRuns, 0.0,
         "remount digests diverged across independent runs"),
    gate("replay", EveryEntry("divergences"), SameAcrossRuns, 0.0,
         "divergence counts differ across independent runs"),
];

impl fmt::Display for Gate {
    /// `p99_ratio_on_vs_off <= 2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            Summary(key) => write!(f, "{key}")?,
            Extra(entry, field) => write!(f, "{entry} {field}")?,
            EveryEntry(field) => write!(f, "every {field}")?,
        }
        match self.cmp {
            AtMost => write!(f, " <= {}", self.bound),
            Above => write!(f, " > {}", self.bound),
            SameAcrossRuns => write!(f, " equal across runs"),
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
        if self.cmp == SameAcrossRuns {
            return self.check_runs(&[report]);
        }
        let value = match self.source {
            Summary(key) => report.summary.get(key).copied(),
            Extra(entry, field) => report.entry(entry).and_then(|e| e.extra.get(field).copied()),
            EveryEntry(_) => None,
        };
        let Some(value) = value else {
            return self.fail(format!("the report has no value for `{self}`"));
        };
        let (holds, violated) = match self.cmp {
            AtMost => (value <= self.bound, ">"),
            Above => (value > self.bound, "<="),
            SameAcrossRuns => unreachable!("judged by check_runs above"),
        };
        if holds {
            Ok(format!("{}: ok", fmt_num(value)))
        } else {
            self.fail(format!("{} {violated} {}", fmt_num(value), self.bound))
        }
    }

    /// Judges a cross-run gate on every report of its bench given to one
    /// `bench gate` call: each entry's field must be the same in all.
    pub fn check_runs(&self, runs: &[&BenchReport]) -> Result<String, String> {
        let (EveryEntry(field), [first, rest @ ..]) = (self.source, runs) else {
            return self.fail("a cross-run gate reads every entry of at least one report".into());
        };
        if rest.is_empty() {
            return Ok("one report: nothing to compare it with".into());
        }
        let cells = |r: &BenchReport| -> Vec<(String, Option<f64>)> {
            r.entries.iter().map(|e| (e.key.clone(), e.extra.get(field).copied())).collect()
        };
        for other in rest {
            for (a, b) in cells(first).iter().zip(cells(other)) {
                if *a != b || a.1.is_none() {
                    let show = |v: Option<f64>| v.map_or("missing".into(), fmt_num);
                    return self.fail(format!(
                        "{} {field} {} vs {} {}",
                        a.0,
                        show(a.1),
                        b.0,
                        show(b.1)
                    ));
                }
            }
            if first.entries.len() != other.entries.len() {
                return self.fail(format!(
                    "{} entries vs {}",
                    first.entries.len(),
                    other.entries.len()
                ));
            }
        }
        Ok(format!("{} entries identical in {} runs: ok", first.entries.len(), runs.len()))
    }
}

/// Evaluates every gate of the benches `reports` are of, printing one line
/// per gate and report (failures to stderr). Returns the number of failures.
pub fn evaluate(reports: &[BenchReport]) -> usize {
    let mut failed = 0;
    for (i, report) in reports.iter().enumerate() {
        let same_bench = |r: &&BenchReport| r.bench == report.bench;
        let mut gates = GATES.iter().filter(|g| g.bench == report.bench).peekable();
        if gates.peek().is_none() {
            println!("gate: {}: no gates", report.bench);
        }
        for gate in gates {
            let verdict = if gate.cmp != SameAcrossRuns {
                gate.check(report)
            } else if reports[..i].iter().any(|r| same_bench(&r)) {
                continue; // judged once, at the bench's first report
            } else {
                gate.check_runs(&reports.iter().filter(same_bench).collect::<Vec<_>>())
            };
            match verdict {
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

    /// A renamed entry, extra or summary key fails here, not in a CI run:
    /// every gate reads a key its bench's committed artifact carries.
    #[test]
    fn every_gate_resolves_in_its_committed_artifact() {
        for gate in GATES {
            let bench = BENCHES
                .iter()
                .find(|b| b.name == gate.bench)
                .unwrap_or_else(|| panic!("gate `{gate}` names unregistered bench {}", gate.bench));
            let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), bench.artifact);
            let report = BenchReport::load(&path).expect("committed artifact loads");
            assert_eq!(report.bench, gate.bench);
            let found = match gate.source {
                Summary(key) => report.summary.contains_key(key),
                Extra(entry, field) => {
                    report.entry(entry).is_some_and(|e| e.extra.contains_key(field))
                }
                EveryEntry(field) => {
                    !report.entries.is_empty()
                        && report.entries.iter().all(|e| e.extra.contains_key(field))
                }
            };
            assert!(
                found,
                "{}: `{gate}` reads a key {} does not carry",
                gate.bench, bench.artifact
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
            EveryEntry(field) => {
                report.entries.push(BenchEntry::new("mail/bytefs", &[(field, value)]))
            }
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
        ("hang_recovery", "hang_1e-3 injected_hangs > 0", 0.0,
         "hang_recovery: the armed 1e-3 hang plan injected nothing: 0 <= 0"),
        ("hang_recovery", "p99_ratio_fault_vs_clean <= 3", 3.5,
         "hang_recovery: hang recovery wrecks the tail: 3.500 > 3"),
        ("replay", "every digest_hi equal across runs", 7.0,
         "replay: remount digests diverged across independent runs: \
          mail/bytefs digest_hi 8 vs mail/bytefs 7"),
        ("replay", "every digest_lo equal across runs", 7.0,
         "replay: remount digests diverged across independent runs: \
          mail/bytefs digest_lo 8 vs mail/bytefs 7"),
        ("replay", "every divergences equal across runs", 7.0,
         "replay: divergence counts differ across independent runs: \
          mail/bytefs divergences 8 vs mail/bytefs 7"),
    ];

    /// Per gate: a report that holds it passes and one that violates it
    /// fails with exactly its message; a cross-run gate given one report
    /// has nothing to compare.
    #[test]
    fn every_gate_passes_fails_and_skips() {
        assert_eq!(GATES.len(), VIOLATIONS.len());
        for (gate, (bench, shown, bad, message)) in GATES.iter().zip(VIOLATIONS) {
            assert_eq!((gate.bench, gate.to_string().as_str()), (*bench, *shown));
            let held = |verdict: Result<String, String>, how: &str| {
                assert!(verdict.as_ref().is_ok_and(|v| v.ends_with(how)), "{gate}: {verdict:?}");
            };
            if gate.cmp == SameAcrossRuns {
                let (a, b) = (synthetic(gate, 8.0), synthetic(gate, *bad));
                held(gate.check_runs(&[&a, &a]), ": ok");
                assert_eq!(gate.check_runs(&[&a, &b]), Err(message.to_string()));
                held(gate.check(&a), "nothing to compare it with");
                let fewer = BenchReport::new(gate.bench, 1.0);
                assert!(gate.check_runs(&[&a, &fewer]).is_err(), "{gate}: an entry vanished");
                continue;
            }
            held(gate.check(&synthetic(gate, gate.bound + f64::from(gate.cmp == Above))), ": ok");
            assert_eq!(gate.check(&synthetic(gate, *bad)), Err(message.to_string()));
            assert!(gate.check(&BenchReport::new(gate.bench, 1.0)).is_err(), "{gate}: key gone");
        }
    }
}
