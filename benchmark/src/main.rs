//! The gated benchmark of the ByteFS reproduction. See `README.md`.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! benchmark check [--seed N] [--quick]
//! ```
//!
//! `run --workload NAME` measures one workload and prints its metrics by
//! name, then — as the last line of standard output — one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Without
//! `--workload` it measures all six workloads, both ways. `check` measures
//! everything twice and compares the two sets against the bounds.

mod alloc;
mod child;
mod estimate;
mod gen;
mod harness;
mod json;
mod metrics;
mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use estimate::{median, quiet_total};
use json::Value;
use metrics::{per_layer, END_TO_END, WORKLOADS};
use workloads::Mode;

#[global_allocator]
pub static ALLOC: alloc::Counting = alloc::Counting::new();

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which op counts are
/// the ones named in the README. Op counts scale with `--seconds`, so that
/// one argument list always means the same work.
pub const NOMINAL_SECONDS: u64 = 10;

/// How far two measurements of one seed may differ in a modelled metric of a
/// one-client workload before `check` calls the model unrepeatable: a tenth
/// of the tightest bound. Most repeat to the last digit; on `mail_fsync` and
/// `oltp_sync` a few of seven differ by up to 0.05 %, because the op that
/// starts the background cleaner keeps appending while the cleaner thread
/// seals the log, and which side of the seal an append lands on is the
/// host scheduler's choice ([`harness::Phase::settle`] removes the rest).
const MODEL_REPEAT_TOLERANCE: f64 = 2e-3;

fn same_model_value(a: f64, b: f64) -> bool {
    (a - b).abs() <= MODEL_REPEAT_TOLERANCE * a.abs()
}

/// Untraced repeats behind every end-to-end number (after one discarded
/// warm-up); `--quick` makes two.
const REPEATS: usize = 7;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only; `None`: both.
    trace: Option<bool>,
    quick: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 13,
        seconds: NOMINAL_SECONDS as f64,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::is_workload(name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                o.workload = Some(name.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&o.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

impl Options {
    /// Factor on every op count.
    fn scale(&self) -> f64 {
        self.seconds / NOMINAL_SECONDS as f64 * if self.quick { 0.25 } else { 1.0 }
    }

    fn repeats(&self) -> usize {
        if self.quick {
            2
        } else {
            REPEATS
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let outcome = match command {
        "run" => parse_options(rest).and_then(|o| run(&o)),
        "check" => parse_options(rest).and_then(|o| check(&o)),
        "child" => child_main(rest),
        _ => Err("usage: benchmark run|check [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

const MODES: [(&str, Mode); 4] = [
    ("plain", Mode::Plain),
    ("traced", Mode::Traced),
    ("device-tracing", Mode::DeviceTracing),
    ("ext4-tenth", Mode::Ext4Tenth),
];

/// `benchmark child WORKLOAD SEED SCALE MODE`: what the parent spawns.
fn child_main(args: &[String]) -> Result<bool, String> {
    let [name, seed, scale, mode] = args else {
        return Err("child takes WORKLOAD SEED SCALE MODE".into());
    };
    let seed = seed.parse::<u64>().map_err(|e| format!("seed: {e}"))?;
    let scale = scale.parse::<f64>().map_err(|e| format!("scale: {e}"))?;
    let mode = MODES
        .iter()
        .find(|(label, _)| label == mode)
        .map(|(_, m)| *m)
        .ok_or_else(|| format!("unknown mode `{mode}`"))?;
    // Relative to the working directory: the repository root, where the
    // benchmark's command is run from.
    let trace_dir = std::path::Path::new("benchmark").join("out");
    println!("{}", child::run(name, seed, scale, mode, Some(&trace_dir))?);
    Ok(true)
}

/// Runs one repeat in a fresh process of this same binary and parses its
/// report. The child's standard error passes through.
fn spawn(name: &str, seed: u64, scale: f64, mode: Mode) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let label =
        MODES.iter().find(|(_, m)| *m == mode).map(|(l, _)| *l).expect("every mode is listed");
    let out = Command::new(exe)
        .args(["child", name, &seed.to_string(), &scale.to_string(), label])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {name}/{label} ended with {}", out.status));
    }
    let text =
        String::from_utf8(out.stdout).map_err(|_| "child output is not UTF-8".to_string())?;
    let line = text.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("child report: {e}"))
}

fn num(report: &Value, key: &str) -> f64 {
    report.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// A `{name: number}` section of a child's report.
fn section(report: &Value, key: &str) -> BTreeMap<String, f64> {
    report.get(key).map(Value::num_map).unwrap_or_default()
}

fn seg_times(report: &Value) -> Vec<u64> {
    report
        .get("seg_wall_ns")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).map(|ns| ns as u64).collect())
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Measuring one workload
// ---------------------------------------------------------------------------

/// What one workload's measurement produced.
#[derive(Default)]
struct Outcome {
    /// End-to-end metrics by name (empty when not asked for).
    end_to_end: BTreeMap<String, f64>,
    /// Per-layer metrics by name (empty when not asked for).
    layers: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Reasons the run does not count as correct.
    faults: Vec<String>,
    /// Whether every repeat stated the same modelled numbers, to within
    /// [`MODEL_REPEAT_TOLERANCE`].
    repeats_agree: bool,
}

/// The payload guard: the states that used to flatter the numbers are gone.
/// Floors scale with the op counts, which scale with `--seconds`.
fn payload_guard(workload: &str, report: &Value, scale: f64, faults: &mut Vec<String>) {
    let (guard, e2e) = (section(report, "guard"), section(report, "e2e"));
    let mut require = |what: &str, value: f64, floor: f64| {
        if value < floor {
            faults.push(format!("payload guard: {workload} {what} = {value}, below {floor}"));
        }
    };
    let at = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    match workload {
        "web_read_miss" => {
            require("flash_read_pages_per_op", at(&guard, "flash_read_pages_per_op"), 1.0)
        }
        "mail_fsync" => require("host_write_amp", at(&e2e, "host_write_amp"), 1.0),
        "oltp_sync" => {
            require("host_write_amp", at(&e2e, "host_write_amp"), 1.0);
            require("log cleanings", at(&guard, "log_cleanings"), (5.0 * scale).floor());
        }
        "dev_bytelog" => {
            require("log cleanings", at(&guard, "log_cleanings"), (5.0 * scale).floor())
        }
        "kv_ycsb_a" if scale >= 1.0 => require("erase blocks", at(&guard, "erase_blocks"), 1.0),
        _ => {}
    }
}

fn note_failures(report: &Value, label: &str, out: &mut Outcome) {
    out.attempted += num(report, "attempted") as u64;
    let failed = num(report, "failed") as u64;
    out.failed += failed;
    if failed > 0 {
        out.faults.push(format!("{label}: {failed} failed ops, mismatches or violations"));
    }
}

/// Measures `workload`: the untraced repeats when `want_e2e`, the traced
/// repeat and its companions when `want_layers`.
fn measure(
    workload: &str,
    o: &Options,
    want_e2e: bool,
    want_layers: bool,
) -> Result<Outcome, String> {
    let (seed, scale) = (o.seed, o.scale());
    let mut out = Outcome { repeats_agree: true, ..Outcome::default() };

    // The first process after a pause runs slow (cold caches, CPU clocked
    // down): one short discarded repeat takes that hit.
    spawn(workload, seed, scale / 4.0, Mode::Plain)?;

    let repeats = if want_e2e { o.repeats() } else { 1 };
    let mut plain = Vec::with_capacity(repeats);
    for r in 0..repeats {
        let report = spawn(workload, seed, scale, Mode::Plain)?;
        note_failures(&report, &format!("repeat {r}"), &mut out);
        payload_guard(workload, &report, scale, &mut out.faults);
        plain.push(report);
    }
    let ops = num(&plain[0], "ops");
    if plain.iter().any(|p| num(p, "op_digest") != num(&plain[0], "op_digest")) {
        out.faults.push("the same seed produced different op lists".into());
    }

    if want_e2e {
        let modelled: Vec<BTreeMap<String, f64>> =
            plain.iter().map(|p| section(p, "e2e")).collect();
        for m in END_TO_END.iter().filter(|m| m.is_virtual) {
            let values: Vec<f64> = modelled.iter().map(|e2e| e2e[m.name]).collect();
            out.repeats_agree &= m.name == "flash_write_amp"
                || values.iter().all(|v| same_model_value(values[0], *v));
            out.end_to_end.insert(m.name.into(), median(&values));
        }
        let segments: Vec<Vec<u64>> = plain.iter().map(seg_times).collect();
        out.end_to_end.insert("wall_kops_s".into(), ops / quiet_total(&segments) as f64 * 1e6);
        for name in ["peak_rss_mb", "setup_s"] {
            let values: Vec<f64> = plain.iter().map(|p| num(p, name)).collect();
            out.end_to_end.insert(name.into(), median(&values));
        }
    }

    if want_layers {
        let traced = spawn(workload, seed, scale, Mode::Traced)?;
        note_failures(&traced, "traced repeat", &mut out);
        out.layers = section(&traced, "layers");
        let lost = out.layers.get("mssd.recover.lost_acked_writes").copied().unwrap_or(0.0);
        if lost > 0.0 {
            out.faults.push(format!("{lost} acknowledged writes lost across the power cut"));
        }
        let plain_wall = num(&plain[0], "phase_wall_ns");
        let overhead = |with: &Value| num(with, "phase_wall_ns") / plain_wall - 1.0;
        out.layers.insert("harness.trace_overhead_share".into(), overhead(&traced));

        if workload == "dev_bytelog" {
            let with_events = spawn(workload, seed, scale, Mode::DeviceTracing)?;
            note_failures(&with_events, "device-tracing repeat", &mut out);
            out.layers.insert("mssd.trace.enabled_overhead_share".into(), overhead(&with_events));
        }
        if workload == "mail_fsync_mt2" {
            let one = spawn("mail_fsync", seed, scale, Mode::Plain)?;
            note_failures(&one, "one-client repeat", &mut out);
            let speed = |r: &Value, clock: &str| num(r, "ops") / num(r, clock);
            out.layers.insert(
                "scaling.wall_vs_1client".into(),
                speed(&plain[0], "phase_wall_ns") / speed(&one, "phase_wall_ns"),
            );
            out.layers.insert(
                "scaling.virt_vs_1client".into(),
                speed(&plain[0], "virt_ns") / speed(&one, "virt_ns"),
            );
        }
        if workloads::HAS_EXT4_RUN.contains(&workload) {
            let ext4 = spawn(workload, seed, scale, Mode::Ext4Tenth)?;
            note_failures(&ext4, "ext4 repeat", &mut out);
            let virt_kops = |r: &Value| section(r, "e2e")["virt_kops_s"];
            out.layers.insert("baselines.ext4.virt_kops_s".into(), virt_kops(&ext4));
            out.layers
                .insert("model.speedup_vs_ext4".into(), virt_kops(&traced) / virt_kops(&ext4));
        }
        // Every per-layer metric is reported by every workload; a layer the
        // workload does not use reads 0.
        for m in per_layer() {
            out.layers.entry(m.name).or_insert(0.0);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn print_metrics(workload: &str, out: &Outcome) {
    for m in END_TO_END {
        if let Some(v) = out.end_to_end.get(m.name) {
            let clock = if m.is_virtual { "modelled" } else { "host" };
            println!("{workload:<15} {:<44} {v:>16.6} {:<7} ({clock})", m.name, m.unit);
        }
    }
    if !out.end_to_end.is_empty() {
        let share = out.failed as f64 / out.attempted.max(1) as f64;
        println!("{workload:<15} {:<44} {share:>16.6} {:<7}", "op_fail_share", "ratio");
    }
    for m in per_layer() {
        if let Some(v) = out.layers.get(&m.name) {
            println!("{workload:<15} {:<44} {v:>16.6} {:<7}", m.name, m.unit);
        }
    }
    for fault in &out.faults {
        println!("{workload:<15} FAULT {fault}");
    }
}

/// The result line of a one-workload run.
fn result_line(out: &Outcome, layers: bool) -> Value {
    let metric = |v: f64, unit: &str| {
        Value::obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))])
    };
    let metrics: Vec<(String, Value)> = if layers {
        per_layer()
            .into_iter()
            .map(|m| {
                let v = out.layers[&m.name];
                (m.name, metric(v, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), metric(out.end_to_end[m.name], m.unit)))
            .collect()
    };
    Value::obj([
        ("correct", Value::Bool(out.faults.is_empty())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn run(o: &Options) -> Result<bool, String> {
    if let Some(workload) = &o.workload {
        let layers = o.trace == Some(true);
        let out = measure(workload, o, !layers, layers)?;
        print_metrics(workload, &out);
        println!("{}", result_line(&out, layers));
        return Ok(out.faults.is_empty());
    }
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let out = measure(workload, o, o.trace != Some(true), o.trace != Some(false))?;
        print_metrics(workload, &out);
        all_correct &= out.faults.is_empty();
    }
    Ok(all_correct)
}

/// Two sets of end-to-end measurements of the same code and seed: prints, per
/// metric and workload, both values, how far the second is worse than the
/// first, and the bound; fails when a difference exceeds its bound, when a
/// run is incorrect, or when a one-client workload's modelled numbers differ
/// by more than [`MODEL_REPEAT_TOLERANCE`].
fn check(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for (workload, _) in WORKLOADS {
            set.push(measure(workload, o, true, false)?);
        }
        sets.push(set);
    }
    println!(
        "{:<15} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        let (first, second) = (&sets[0][w], &sets[1][w]);
        for out in [first, second] {
            for fault in &out.faults {
                println!("{workload:<15} FAULT {fault}");
                ok = false;
            }
        }
        let one_client = *workload != "mail_fsync_mt2";
        if one_client && !(first.repeats_agree && second.repeats_agree) {
            println!("{workload:<15} FAULT repeats of one seed state different modelled numbers");
            ok = false;
        }
        for m in END_TO_END {
            let (a, b) = (first.end_to_end[m.name], second.end_to_end[m.name]);
            let worse = if m.higher_is_better { (a - b) / a } else { (b - a) / a };
            let repeatable = one_client && m.is_virtual && m.name != "flash_write_amp";
            let verdict = if (repeatable && !same_model_value(a, b)) || worse > m.bound {
                ok = false;
                "FAIL"
            } else {
                ""
            };
            println!(
                "{workload:<15} {:<20} {a:>16.6} {b:>16.6} {:>8.2}% {:>6.1}% {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_the_drivers_argument_list() {
        let o = parse_options(&args(&[
            "--workload",
            "oltp_sync",
            "--seed",
            "21",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("oltp_sync"));
        assert_eq!((o.seed, o.seconds, o.trace), (21, 10.0, Some(true)));
        assert_eq!(o.scale(), 1.0);
        assert_eq!(o.repeats(), REPEATS);
        let quick = parse_options(&args(&["--quick", "--seconds", "5"])).unwrap();
        assert_eq!((quick.scale(), quick.repeats()), (0.125, 2));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// The result line has exactly the keys the contract names, every metric
    /// of the chosen kind, names that match the tables, and survives a
    /// round trip through the parser.
    #[test]
    fn result_lines_carry_every_metric_and_round_trip() {
        let mut out = Outcome { attempted: 10, ..Outcome::default() };
        for (i, m) in END_TO_END.iter().enumerate() {
            out.end_to_end.insert(m.name.into(), 1.5 + i as f64 / 7.0);
        }
        for (i, m) in per_layer().into_iter().enumerate() {
            out.layers.insert(m.name, i as f64 / 3.0);
        }
        for layers in [false, true] {
            let line = result_line(&out, layers).to_string();
            let back = json::parse(&line).unwrap();
            assert_eq!(back.to_string(), line);
            let Value::Obj(top) = &back else { panic!("an object") };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
            let Some(Value::Obj(metrics)) = back.get("metrics") else { panic!("metrics") };
            let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            let expected: Vec<String> = if layers {
                per_layer().into_iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name.to_string()).collect()
            };
            assert_eq!(names, expected);
            for (_, m) in metrics {
                assert!(m.get("value").and_then(Value::as_f64).is_some());
                assert!(m.get("unit").and_then(Value::as_str).is_some());
            }
        }
        out.faults.push("x".into());
        assert_eq!(result_line(&out, false).get("correct"), Some(&Value::Bool(false)));
    }
}
