//! The `bench` command line: `list` and `run`, the same on a laptop and in
//! CI. `run` ends by checking every gate of the benches it ran.

use std::path::Path;

use workloads::Scale;

use crate::gate;
use crate::registry::{self, Bench, BENCHES};
use crate::report::BenchReport;

/// Printed on stderr, with exit status 2, for a command line `main` rejects.
pub const USAGE: &str = "\
usage: bench list
       bench run <name|paper|all> [scale|smoke] [out]   (scale default 1.0; out: file, dir for `all`)
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
/// the process exit status: 0 on success, 1 when a gate failed, 2 on usage
/// or I/O errors.
pub fn main(args: &[String]) -> i32 {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["list"] => {
            print!("{}", registry::table());
            Ok(0)
        }
        ["run", target, rest @ ..] if rest.len() <= 2 => parse_scale(rest.first().copied())
            .and_then(|scale| run(target, scale, rest.get(1).copied())),
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

/// Runs the selected benches, writes one report per artifact, then checks
/// every gate on those reports — also on one a partial selection does not
/// write — so the files are on disk when a gate fails.
fn run(target: &str, scale: Option<f64>, out: Option<&str>) -> Result<i32, String> {
    let rows = registry::select(target);
    if rows.is_empty() {
        return usage_error(format!("unknown bench {target:?} (see `bench list`)"));
    }
    let mut reports = Vec::new();
    for artifact in registry::artifacts(&rows) {
        let mut parts: Vec<BenchReport> =
            rows.iter().filter(|b| b.artifact == artifact).map(|b| run_one(b, scale)).collect();
        let writers = BENCHES.iter().filter(|b| b.artifact == artifact).count();
        let path = match out {
            Some(dir) if target == "all" => Some(Path::new(dir).join(artifact)),
            Some(file) => Some(file.into()),
            // A selection that covers only part of a shared artifact (one
            // figure of the paper group) must not pass for the whole under
            // its name.
            None if parts.len() == writers => Some(artifact.into()),
            None => None,
        };
        let report = match writers {
            1 => parts.pop().expect("the one row ran"),
            _ => merged_report(artifact, parts),
        };
        if let Some(path) = path {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            let path = path.to_string_lossy();
            report.write(&path).map_err(|e| format!("{path}: {e}"))?;
            println!("results written to {path}");
        }
        reports.push(report);
    }
    Ok(gate_status(&reports))
}

/// The exit status of a run that produced `reports`: 1 when any gate fails
/// on them, 0 otherwise.
fn gate_status(reports: &[BenchReport]) -> i32 {
    i32::from(gate::evaluate(reports) > 0)
}

fn run_one(bench: &Bench, scale: Option<f64>) -> BenchReport {
    let scale = scale.unwrap_or(bench.smoke_scale);
    eprintln!("{}: scale {scale}", bench.name);
    let report = (bench.run)(Scale::new(scale));
    println!("\n## {} — {}\n\n{}", bench.name, bench.about, report.table());
    if !bench.paper_ref.is_empty() {
        println!("Paper reference: {}\n", bench.paper_ref);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entry keys of a report's JSON, quoted as written: `to_json` puts
    /// each entry on a line of its own, its key first.
    fn keys(json: &str) -> Vec<&str> {
        json.lines()
            .filter_map(|l| l.strip_prefix(r#"    {"key": "#)?.split_once(r#", "extra": "#))
            .map(|(key, _)| key)
            .collect()
    }

    /// Every bench is a pure function of the scale: two `run all smoke`
    /// runs hold every gate and write every artifact byte for byte, and the
    /// paper group's has the committed `BENCH_paper.json`'s shape.
    #[test]
    fn two_paper_runs_write_a_byte_identical_file() {
        let dir = crate::tests::temp_dir("determinism");
        let runs = [format!("{dir}/a"), format!("{dir}/b")];
        for out in &runs {
            assert_eq!(main(&["run".into(), "all".into(), "smoke".into(), out.clone()]), 0);
        }
        for artifact in registry::artifacts(&registry::select("all")) {
            let [a, b] = runs
                .each_ref()
                .map(|run| std::fs::read(format!("{run}/{artifact}")).expect("report written"));
            assert!(a == b, "two runs of {artifact} differ");
        }
        let fresh = std::fs::read_to_string(format!("{}/BENCH_paper.json", runs[0])).expect("read");
        assert!(fresh.lines().any(|l| l == r#"  "bench": "paper","#), "{fresh}");
        assert!(fresh.lines().any(|l| l == r#"  "scale": 0.1,"#), "{fresh}");
        let fresh_keys = keys(&fresh);
        for fig in registry::select("paper") {
            let prefix = format!("\"{}/", fig.name);
            assert!(fresh_keys.iter().any(|k| k.starts_with(&prefix)), "{prefix}");
        }
        // The committed pin has the same shape.
        let pinned = std::fs::read_to_string(format!(
            "{}/../../BENCH_paper.json",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("BENCH_paper.json reads");
        assert_eq!(keys(&pinned), fresh_keys);
        std::fs::remove_dir_all(dir).expect("cleanup");
    }

    /// A fresh run at scale 1.0 holds its gates and rewrites the committed
    /// artifact byte for byte. These three take seconds in a debug build; CI
    /// regenerates every artifact, `media_fault` and the paper group included.
    #[test]
    fn committed_artifacts_rewrite_byte_for_byte() {
        let dir = crate::tests::temp_dir("committed");
        for name in ["gc_pause", "hang_recovery", "replay"] {
            let out = format!("{dir}/{name}.json");
            assert_eq!(main(&["run".into(), name.into(), "1.0".into(), out.clone()]), 0);
            let artifact = registry::select(name)[0].artifact;
            let committed = format!("{}/../../{artifact}", env!("CARGO_MANIFEST_DIR"));
            let [fresh, committed] =
                [out, committed].map(|path| std::fs::read_to_string(path).expect("readable"));
            let moved = fresh.lines().zip(committed.lines()).find(|(f, c)| f != c);
            assert!(fresh == committed, "{artifact} moved (fresh, committed): {moved:?}");
        }
        std::fs::remove_dir_all(dir).expect("cleanup");
    }

    /// `run` turns the gate failures on its reports into its exit status.
    #[test]
    fn gate_exits_one_on_a_violated_gate() {
        let status = |report: &BenchReport| gate_status(std::slice::from_ref(report));
        let mut report = BenchReport::new("gc_pause", 0.2);
        report.summary.insert("p99_ratio_on_vs_off".into(), 1.4);
        assert_eq!(status(&report), 0);
        report.summary.insert("p99_ratio_on_vs_off".into(), 2.4);
        assert_eq!(status(&report), 1);
        report.summary.clear();
        assert_eq!(status(&report), 1, "a renamed key fails the gate");
        let paper = BenchReport::new("paper", 1.0);
        assert_eq!(status(&paper), 0, "a bench without gates");
        assert_eq!(gate_status(&[paper, report]), 1, "one failing report fails the run");
    }

    #[test]
    fn a_lone_figure_writes_only_where_told() {
        let dir = crate::tests::temp_dir("figure");
        let out = format!("{dir}/sub/table1.json");
        assert_eq!(main(&["run".into(), "table1".into(), "1".into(), out.clone()]), 0);
        let report = std::fs::read_to_string(&out).expect("written where told");
        assert!(report.lines().any(|l| l == r#"  "bench": "paper","#), "{report}");
        assert!(keys(&report).contains(&r#""table1/cacheline_read""#), "{report}");
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}
