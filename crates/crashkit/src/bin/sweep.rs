//! CI entry point: bounded crash-point sweep of one scenario, emitting a
//! JSON report whose `failures` array carries everything needed to replay a
//! bad crash point (`Enumerator::reproduce(seed, cut)` with the same
//! scenario). Exits non-zero when any violation was found, so the
//! workflow can upload the report as the failure-seed artifact.
//!
//! ```text
//! sweep <device|device-mq|device-async|bytefs|append|kv|ext4like|novalike|device-media|media+power|device-hang|hang+power|device-replay> \
//!       [seeds=4] [cuts-per-seed=24] [out.json]
//! ```
//!
//! `device-media` runs the media-fault stress to completion per seed (no
//! power cut, clean power cycle at the end); `media+power` sweeps random
//! power-cut points through the same media-fault workload. `device-hang`
//! and `hang+power` do the same for the fail-slow (hang-injection) stress:
//! to-completion runs prove every injected hang resolves through the
//! timeout/abort/retry recovery layer, and the power sweep crosses hangs
//! with cuts landing inside recovery windows. `device-replay` re-drives the
//! recorded CI-churn corpus op trace against ByteFS with power cut at each
//! enumerated step — crash consistency over a captured production-shaped
//! trace rather than a synthetic seeded mix. `append` cuts unsynced appends
//! on a small page cache, inside the dirty limit's writeback passes.

use std::io::Write as _;

use crashkit::{
    AppendStress, BaselineKind, BaselineStress, DeviceAsyncStress, DeviceMqStress, DeviceStress,
    Enumerator, FsStress, HangStress, KvStress, MediaStress, ReplayStress, Scenario, SweepReport,
};

fn seed_stream(seeds: u64) -> Vec<u64> {
    (1..=seeds).map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

fn run<S: Scenario>(scenario: S, seeds: u64, cuts: usize) -> SweepReport {
    Enumerator::new(scenario).sweep(&seed_stream(seeds), cuts)
}

/// Pure media-fault mode: every seed's stream runs to completion (no power
/// cut) and ends with a clean power cycle; one outcome per seed.
fn run_to_end<S: Scenario>(scenario: S, seeds: u64) -> SweepReport {
    let e = Enumerator::new(scenario);
    let mut report = SweepReport::default();
    for seed in seed_stream(seeds) {
        let outcome = e.run_to_end(seed);
        report.total_steps = report.total_steps.max(outcome.steps_observed);
        report.outcomes.push(outcome);
    }
    report
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = args.get(1).map(String::as_str).unwrap_or("device");
    let seeds: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(4);
    let cuts: usize = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(24);
    let out = args.get(4).cloned().unwrap_or_else(|| "crashkit_sweep.json".into());

    let report = match scenario {
        "device" => run(DeviceStress::quick(), seeds, cuts),
        "device-mq" => run(DeviceMqStress::quick(), seeds, cuts),
        "device-async" => run(DeviceAsyncStress::quick(), seeds, cuts),
        "bytefs" => run(FsStress::quick(), seeds, cuts),
        "append" => run(AppendStress::quick(), seeds, cuts),
        "kv" => run(KvStress::quick(), seeds, cuts),
        "ext4like" => run(BaselineStress::quick(BaselineKind::Ext4), seeds, cuts),
        "novalike" => run(BaselineStress::quick(BaselineKind::Nova), seeds, cuts),
        "device-media" => run_to_end(MediaStress::quick(), seeds),
        "media+power" => run(MediaStress::quick(), seeds, cuts),
        "device-hang" => run_to_end(HangStress::quick(), seeds),
        "hang+power" => run(HangStress::quick(), seeds, cuts),
        "device-replay" => run(ReplayStress::quick(), seeds, cuts),
        other => {
            eprintln!(
                "unknown scenario {other:?} \
                 (device|device-mq|device-async|bytefs|append|kv|ext4like|novalike|device-media|\
                 media+power|device-hang|hang+power|device-replay)"
            );
            std::process::exit(2);
        }
    };

    let failures: Vec<String> = report
        .failures()
        .map(|o| {
            let violations: Vec<String> = o
                .violations
                .iter()
                .map(|v| format!("{{\"checker\":{:?},\"detail\":{:?}}}", v.checker, v.detail))
                .collect();
            format!(
                "{{\"seed\":\"{:#x}\",\"cut\":{},\"kind\":{:?},\"repro\":{:?},\"violations\":[{}]}}",
                o.seed,
                o.cut,
                o.cut_kind.map(|k| k.label()).unwrap_or("none"),
                o.repro_line(),
                violations.join(",")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scenario\": {:?},\n  \"total_steps\": {},\n  \"points_explored\": {},\n  \
         \"failures\": [{}]\n}}\n",
        scenario,
        report.total_steps,
        report.distinct_points(),
        failures.join(",")
    );
    let mut f = std::fs::File::create(&out).expect("create report file");
    f.write_all(json.as_bytes()).expect("write report");

    println!(
        "crashkit sweep: scenario={scenario} -> {} points over a {}-step space, {} failures ({out})",
        report.distinct_points(),
        report.total_steps,
        failures.len()
    );
    for o in report.failures() {
        println!("  {}", o.repro_line());
        for v in &o.violations {
            println!("    {v}");
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
