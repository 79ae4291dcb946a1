//! The `bench` command line: `list`, `run`, `gate` and `compare`, the same
//! on a laptop and in CI.

use std::path::Path;

use workloads::Scale;

use crate::registry::{self, Bench, BENCHES};
use crate::report::BenchReport;
use crate::{compare, gate};

/// Printed on stderr, with exit status 2, for a command line `main` rejects.
pub const USAGE: &str = "\
usage: bench list
       bench run <name|paper|all> [scale|smoke] [out]   (scale default 1.0; out: file, dir for `all`)
       bench gate <report.json>...
       bench compare <fresh_dir> [committed_dir]        (committed_dir default .)
see crates/bench/DESIGN.md";

fn usage_error<T>(problem: String) -> Result<T, String> {
    Err(format!("{problem}\n{USAGE}"))
}

/// The scale argument of `run`: absent is 1.0, `smoke` is `None` (each
/// row's registry scale), anything else must be a finite positive number —
/// it used to fall back to 1.0 and run the full-size bench in silence.
pub(crate) fn parse_scale(arg: Option<&str>) -> Result<Option<f64>, String> {
    match arg {
        None => Ok(Some(1.0)),
        Some("smoke") => Ok(None),
        Some(text) => match text.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(Some(v)),
            _ => usage_error(format!("scale {text:?} is not `smoke` or a positive number")),
        },
    }
}

/// Runs the command line (the arguments after the program name) and returns
/// the process exit status: 0 on success, 1 when a gate or a comparison
/// failed, 2 on usage, I/O or schema errors.
pub fn main(args: &[String]) -> i32 {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["list"] => {
            print!("{}", registry::table());
            Ok(0)
        }
        ["run", target, rest @ ..] if rest.len() <= 2 => parse_scale(rest.first().copied())
            .and_then(|scale| run(target, scale, rest.get(1).copied())),
        ["gate", paths @ ..] if !paths.is_empty() => paths
            .iter()
            .map(|p| BenchReport::load(p))
            .collect::<Result<Vec<_>, _>>()
            .map(|reports| (gate::evaluate(&reports) > 0) as i32),
        ["compare", fresh] => compare_dirs(fresh, "."),
        ["compare", fresh, committed] => compare_dirs(fresh, committed),
        _ => usage_error(format!("unknown subcommand or wrong arguments: {args:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        2
    })
}

/// Merges the reports of rows that share `artifact` into one named after
/// its stem, keys prefixed by each row's name.
fn merged_report(artifact: &str, parts: Vec<BenchReport>) -> BenchReport {
    let mut merged = BenchReport::new(registry::stem(artifact), parts[0].scale);
    for part in parts {
        for mut entry in part.entries {
            entry.key = format!("{}/{}", part.bench, entry.key);
            merged.entries.push(entry);
        }
        merged
            .summary
            .extend(part.summary.into_iter().map(|(k, v)| (format!("{}/{k}", part.bench), v)));
    }
    merged
}

fn run(target: &str, scale: Option<f64>, out: Option<&str>) -> Result<i32, String> {
    let rows = registry::select(target);
    if rows.is_empty() {
        return usage_error(format!("unknown bench {target:?} (see `bench list`)"));
    }
    for artifact in registry::artifacts(&rows) {
        let mut parts: Vec<BenchReport> =
            rows.iter().filter(|b| b.artifact == artifact).map(|b| run_one(b, scale)).collect();
        let writers = BENCHES.iter().filter(|b| b.artifact == artifact).count();
        let path = match out {
            Some(dir) if target == "all" => Path::new(dir).join(artifact),
            Some(file) => file.into(),
            // A selection that covers only part of a shared artifact (one
            // figure of the paper group) must not pass for the whole under
            // its name.
            None if parts.len() == writers => artifact.into(),
            None => continue,
        };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let report = match writers {
            1 => parts.pop().expect("the one row ran"),
            _ => merged_report(artifact, parts),
        };
        let path = path.to_string_lossy();
        report.write(&path).map_err(|e| format!("{path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(0)
}

fn run_one(bench: &Bench, scale: Option<f64>) -> BenchReport {
    let scale = scale.unwrap_or(bench.smoke_scale);
    eprintln!("{}: scale {scale}, host parallelism {}", bench.name, crate::host_cpus());
    let report = (bench.run)(Scale::new(scale));
    println!("\n## {} — {}\n\n{}", bench.name, bench.about, report.table());
    if !bench.paper_ref.is_empty() {
        println!("Paper reference: {}\n", bench.paper_ref);
    }
    report
}

fn compare_dirs(fresh_dir: &str, committed_dir: &str) -> Result<i32, String> {
    let mut pairs = Vec::new();
    for artifact in registry::artifacts(&registry::select("all")) {
        let committed = format!("{committed_dir}/{artifact}");
        if !Path::new(&committed).exists() {
            println!("compare: no committed {artifact}: skipped");
            continue;
        }
        let fresh = BenchReport::load(&format!("{fresh_dir}/{artifact}"))?;
        pairs.push((fresh, BenchReport::load(&committed)?));
    }
    compare::compare(&pairs, fresh_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchEntry;

    /// The paper group is a pure function of the scale: what `bench compare`
    /// pins in `BENCH_paper.json` repeats to the byte.
    #[test]
    fn two_paper_runs_write_a_byte_identical_file() {
        let dir = crate::tests::temp_dir("paper");
        let paths = [format!("{dir}/a.json"), format!("{dir}/b.json")];
        for path in &paths {
            assert_eq!(main(&["run".into(), "paper".into(), "0.1".into(), path.clone()]), 0);
        }
        let [a, b] = paths.map(|p| std::fs::read(p).expect("report written"));
        assert!(a == b, "two runs of the paper group differ");
        let report =
            BenchReport::from_json(std::str::from_utf8(&a).expect("utf-8")).expect("parses");
        assert_eq!((report.bench.as_str(), report.scale), ("paper", 0.1));
        for fig in registry::select("paper") {
            let prefix = format!("{}/", fig.name);
            assert!(report.entries.iter().any(|e| e.key.starts_with(&prefix)), "{prefix}");
        }
        // The committed pin has the same shape.
        let pinned =
            BenchReport::load(&format!("{}/../../BENCH_paper.json", env!("CARGO_MANIFEST_DIR")));
        let keys = |r: &BenchReport| r.entries.iter().map(|e| e.key.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&pinned.expect("BENCH_paper.json loads")), keys(&report));
        std::fs::remove_dir_all(dir).expect("cleanup");
    }

    #[test]
    fn gate_exits_one_on_a_violated_gate() {
        let dir = crate::tests::temp_dir("gate");
        let mut report = BenchReport::new("gc_pause", 0.2);
        report.host_cpus = 2;
        report.summary.insert("p99_ratio_on_vs_off".into(), 1.4);
        let path = format!("{dir}/gc_pause.json");
        let gate = |report: &BenchReport| {
            report.write(&path).expect("write");
            main(&["gate".into(), path.clone()])
        };
        assert_eq!(gate(&report), 0);
        report.summary.insert("p99_ratio_on_vs_off".into(), 2.4);
        assert_eq!(gate(&report), 1);
        report.host_cpus = 1;
        assert_eq!(gate(&report), 0, "below the gate's host_cpus: skipped");
        report.summary.clear();
        assert_eq!(gate(&report), 1, "a renamed key fails the gate");
        report.entries.push(BenchEntry::new("x", &[]));
        report.bench = "recovery_time".into();
        assert_eq!(gate(&report), 0, "a bench without gates");
        assert_eq!(main(&["gate".into(), format!("{dir}/missing.json")]), 2);
        std::fs::remove_dir_all(dir).expect("cleanup");
    }

    #[test]
    fn a_lone_figure_writes_only_where_told() {
        let dir = crate::tests::temp_dir("figure");
        let out = format!("{dir}/sub/table1.json");
        assert_eq!(main(&["run".into(), "table1".into(), "1".into(), out.clone()]), 0);
        let report = BenchReport::load(&out).expect("written where told");
        assert_eq!(report.bench, "paper");
        assert!(report.entry("table1/cacheline_read").is_some());
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}
