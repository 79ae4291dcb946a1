//! The one place a bench threshold lives: the gates `bench gate` evaluates
//! on a report, and the floors and ceilings `bench compare` holds a fresh
//! run to against the committed artifact.
//!
//! A gate is a row of [`GATES`], next to the report key it reads. Wall-clock
//! scaling gates carry a minimum `host_cpus`: below it the speedup is
//! physically capped and the gate reports itself skipped instead of failing.

use std::fmt;

use crate::report::{fmt_num, BenchReport};

/// `bench compare`: fresh throughput below this fraction of committed is a
/// regression.
pub const THROUGHPUT_FLOOR: f64 = 0.75;

/// `bench compare`: fresh p99 / p99.9 above this multiple of committed is a
/// regression.
pub const P99_CEILING: f64 = 2.0;

/// `bench compare`: virtual-clock metrics are host-independent, so they are
/// enforced even across differing `host_cpus` — but they vary with thread
/// interleaving (shared caches, allocation order), so the thresholds are
/// wider: a virtual rate below 0.6x of committed is a regression…
pub const VIRTUAL_FLOOR: f64 = 0.6;

/// …and so is a virtual latency above 2x of committed.
pub const VIRTUAL_CEILING: f64 = 2.0;

/// Where in a report a gate reads its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A report-level `summary` scalar.
    Summary(&'static str),
    /// The `extra` field (second) of the entry with the given key (first).
    Extra(&'static str, &'static str),
    /// The `p99_ns` of the entry with the given key.
    P99(&'static str),
    /// The named `extra` field of every entry (cross-run gates).
    EveryEntry(&'static str),
}

/// How a gate holds its value to its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// value ≥ bound.
    AtLeast,
    /// value ≤ bound.
    AtMost,
    /// value > bound.
    Above,
    /// The value is bit-equal in every report of the bench passed to one
    /// `bench gate` call (skipped when there is only one); the bound is
    /// unused.
    SameAcrossRuns,
}

/// One gate: a bench, the key it reads, the comparison and bound, the
/// smallest host it is meaningful on, and what a failure means.
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
    /// The gate is skipped on reports from hosts with fewer CPUs (0: never).
    pub min_cpus: usize,
    /// What a failure means; the failure line prefixes the bench name.
    pub message: &'static str,
}

const fn gate(
    bench: &'static str,
    source: Source,
    cmp: Cmp,
    bound: f64,
    min_cpus: usize,
    message: &'static str,
) -> Gate {
    Gate { bench, source, cmp, bound, min_cpus, message }
}

use Cmp::{Above, AtLeast, AtMost, SameAcrossRuns};
use Source::{EveryEntry, Extra, Summary, P99};

/// Every gate of every bench.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    gate("qd_sweep", Summary("qd16_vs_qd1_t4"), AtLeast, 1.3, 4,
         "batched qd=16 submission failed to beat qd=1 sync at 4 threads"),
    // One driver thread on each side, so these hold on any host.
    gate("c10k", Summary("best_vs_qd64"), AtLeast, 0.95, 0,
         "async fan-in on one thread fell behind one sync thread at qd=64"),
    gate("c10k", P99("c1000"), AtMost, 500_000_000.0, 0,
         "c1000 batch p99 on one thread unbounded (over 500 ms)"),
    gate("gc_pause", Summary("p99_ratio_on_vs_off"), AtMost, 2.0, 2,
         "background cleaning leaks onto the foreground path"),
    gate("media_fault", Summary("cost_ratio_fault_vs_clean"), AtMost, 1.25, 2,
         "media-fault handling leaks onto the hot path"),
    // Virtual-clock and deterministic: no CPU self-skip.
    gate("hang_recovery", Extra("hang_1e-3", "injected_hangs"), Above, 0.0, 0,
         "the armed 1e-3 hang plan injected nothing"),
    gate("hang_recovery", Summary("p99_ratio_fault_vs_clean"), AtMost, 3.0, 0,
         "hang recovery wrecks the tail"),
    // Recording itself is deterministic, not just replay: two independent
    // processes must pin identical remount digests.
    gate("replay", EveryEntry("digest_hi"), SameAcrossRuns, 0.0, 0,
         "remount digests diverged across independent runs"),
    gate("replay", EveryEntry("digest_lo"), SameAcrossRuns, 0.0, 0,
         "remount digests diverged across independent runs"),
    gate("replay", EveryEntry("divergences"), SameAcrossRuns, 0.0, 0,
         "divergence counts differ across independent runs"),
];

impl fmt::Display for Gate {
    /// `qd16_vs_qd1_t4 >= 1.3 on >= 4 CPUs`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            Summary(key) => write!(f, "{key}")?,
            Extra(entry, field) => write!(f, "{entry} {field}")?,
            P99(entry) => write!(f, "{entry} p99_ns")?,
            EveryEntry(field) => write!(f, "every {field}")?,
        }
        match self.cmp {
            AtLeast => write!(f, " >= {}", self.bound)?,
            AtMost => write!(f, " <= {}", self.bound)?,
            Above => write!(f, " > {}", self.bound)?,
            SameAcrossRuns => write!(f, " equal across runs")?,
        }
        if self.min_cpus > 0 {
            write!(f, " on >= {} CPUs", self.min_cpus)?;
        }
        Ok(())
    }
}

impl Gate {
    fn fail<T>(&self, detail: String) -> Result<T, String> {
        Err(format!("{}: {}: {detail}", self.bench, self.message))
    }

    /// Judges one report of this gate's bench: `Ok` says how the gate held
    /// or why it was skipped, `Err` is the failure message.
    pub fn check(&self, report: &BenchReport) -> Result<String, String> {
        if self.cmp == SameAcrossRuns {
            return self.check_runs(&[report]);
        }
        let value = match self.source {
            Summary(key) => report.summary.get(key).copied(),
            Extra(entry, field) => report.entry(entry).and_then(|e| e.extra.get(field).copied()),
            P99(entry) => report.entry(entry).map(|e| e.p99_ns as f64),
            EveryEntry(_) => None,
        };
        let Some(value) = value else {
            return self.fail(format!("the report has no value for `{self}`"));
        };
        let shown = format!("{} (host_cpus={})", fmt_num(value), report.host_cpus);
        if report.host_cpus < self.min_cpus {
            return Ok(format!("{shown}: fewer than {} CPUs: gate skipped", self.min_cpus));
        }
        let (holds, violated) = match self.cmp {
            AtLeast => (value >= self.bound, "<"),
            AtMost => (value <= self.bound, ">"),
            Above => (value > self.bound, "<="),
            SameAcrossRuns => unreachable!("judged by check_runs above"),
        };
        if holds {
            Ok(format!("{shown}: ok"))
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
            return Ok("one report: needs two runs to compare: gate skipped".into());
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
                P99(entry) => report.entry(entry).is_some(),
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

    /// A report of `gate`'s bench from a `host_cpus`-CPU host whose gated
    /// value is `value`.
    fn synthetic(gate: &Gate, value: f64, host_cpus: usize) -> BenchReport {
        let mut report = BenchReport::new(gate.bench, 1.0);
        report.host_cpus = host_cpus;
        match gate.source {
            Summary(key) => drop(report.summary.insert(key.into(), value)),
            Extra(entry, field) => report.entries.push(BenchEntry::new(entry, &[(field, value)])),
            P99(entry) => report
                .entries
                .push(BenchEntry { p99_ns: value as u64, ..BenchEntry::new(entry, &[]) }),
            EveryEntry(field) => {
                report.entries.push(BenchEntry::new("mail/bytefs", &[(field, value)]))
            }
        }
        report
    }

    /// The heredocs' checks, bound for bound: (bench, gate, minimum
    /// CPUs, a violating value, the failure it must produce).
    #[rustfmt::skip]
    const VIOLATIONS: &[(&str, &str, usize, f64, &str)] = &[
        ("qd_sweep", "qd16_vs_qd1_t4 >= 1.3 on >= 4 CPUs", 4, 1.1,
         "qd_sweep: batched qd=16 submission failed to beat qd=1 sync at 4 threads: 1.100 < 1.3"),
        ("c10k", "best_vs_qd64 >= 0.95", 0, 0.9,
         "c10k: async fan-in on one thread fell behind one sync thread at qd=64: 0.900 < 0.95"),
        ("c10k", "c1000 p99_ns <= 500000000", 0, 500_000_001.0,
         "c10k: c1000 batch p99 on one thread unbounded (over 500 ms): 500000001 > 500000000"),
        ("gc_pause", "p99_ratio_on_vs_off <= 2 on >= 2 CPUs", 2, 2.5,
         "gc_pause: background cleaning leaks onto the foreground path: 2.500 > 2"),
        ("media_fault", "cost_ratio_fault_vs_clean <= 1.25 on >= 2 CPUs", 2, 1.3,
         "media_fault: media-fault handling leaks onto the hot path: 1.300 > 1.25"),
        ("hang_recovery", "hang_1e-3 injected_hangs > 0", 0, 0.0,
         "hang_recovery: the armed 1e-3 hang plan injected nothing: 0 <= 0"),
        ("hang_recovery", "p99_ratio_fault_vs_clean <= 3", 0, 3.5,
         "hang_recovery: hang recovery wrecks the tail: 3.500 > 3"),
        ("replay", "every digest_hi equal across runs", 0, 7.0,
         "replay: remount digests diverged across independent runs: \
          mail/bytefs digest_hi 8 vs mail/bytefs 7"),
        ("replay", "every digest_lo equal across runs", 0, 7.0,
         "replay: remount digests diverged across independent runs: \
          mail/bytefs digest_lo 8 vs mail/bytefs 7"),
        ("replay", "every divergences equal across runs", 0, 7.0,
         "replay: divergence counts differ across independent runs: \
          mail/bytefs divergences 8 vs mail/bytefs 7"),
    ];

    /// Per gate: a report that holds it passes, one that violates it fails
    /// with exactly its message, and one from too small a host is skipped
    /// whatever it says.
    #[test]
    fn every_gate_passes_fails_and_skips() {
        assert_eq!(GATES.len(), VIOLATIONS.len());
        for (gate, (bench, shown, min_cpus, bad, message)) in GATES.iter().zip(VIOLATIONS) {
            assert_eq!((gate.bench, gate.to_string().as_str()), (*bench, *shown));
            assert_eq!(gate.min_cpus, *min_cpus, "{gate}");
            let held = |verdict: Result<String, String>, how: &str| {
                assert!(verdict.as_ref().is_ok_and(|v| v.ends_with(how)), "{gate}: {verdict:?}");
            };
            if gate.cmp == SameAcrossRuns {
                let (a, b) = (synthetic(gate, 8.0, 2), synthetic(gate, *bad, 2));
                held(gate.check_runs(&[&a, &a]), ": ok");
                assert_eq!(gate.check_runs(&[&a, &b]), Err(message.to_string()));
                held(gate.check(&a), "needs two runs to compare: gate skipped");
                let fewer = BenchReport::new(gate.bench, 1.0);
                assert!(gate.check_runs(&[&a, &fewer]).is_err(), "{gate}: an entry vanished");
                continue;
            }
            held(
                gate.check(&synthetic(gate, gate.bound + f64::from(gate.cmp == Above), 8)),
                ": ok",
            );
            assert_eq!(gate.check(&synthetic(gate, *bad, 8)), Err(message.to_string()));
            if gate.min_cpus > 0 {
                let small = synthetic(gate, *bad, gate.min_cpus - 1);
                held(gate.check(&small), &format!("fewer than {min_cpus} CPUs: gate skipped"));
            }
            assert!(gate.check(&BenchReport::new(gate.bench, 1.0)).is_err(), "{gate}: key gone");
        }
    }
}
