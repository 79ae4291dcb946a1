//! The bench suite: every figure and table of the paper plus the
//! simulator's own scaling, latency and fault benches, behind one `bench`
//! binary.
//!
//! [`BENCHES`] is the registry — one row per bench with its artifact, the
//! scale CI smoke-runs it at and its run function, all of one shape
//! (`fn(Scale) -> BenchReport`). [`GATES`] is the one table of thresholds.
//! See `DESIGN.md` for the index and what each bench is for.
//!
//! ```text
//! cargo run --release -p bench -- list
//! cargo run --release -p bench -- run fig6 0.5
//! cargo run --release -p bench -- run all smoke bench_out
//! cargo run --release -p bench -- gate bench_out/BENCH_*.json
//! cargo run --release -p bench -- compare bench_out
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
mod compare;
mod drive;
pub mod gate;
pub mod registry;
pub mod report;
mod suite {
    pub(crate) mod c10k;
    pub(crate) mod fs_scale;
    pub(crate) mod gc_pause;
    pub(crate) mod hang_recovery;
    pub(crate) mod media_fault;
    pub(crate) mod mt_scale;
    pub(crate) mod paper;
    pub(crate) mod qd_sweep;
    pub(crate) mod recovery_time;
    pub(crate) mod replay;
    pub(crate) mod trace_smoke;
}

pub use gate::{Gate, GATES};
pub use registry::{Bench, BENCHES};
pub use report::{host_cpus, BenchEntry, BenchReport, SCHEMA_VERSION};

use mssd::MssdConfig;

/// The device configuration used by the harness: the paper's emulator timing
/// (Table 4) on a 1 GiB volume, with the device DRAM region scaled to 16 MB so
/// that the scaled-down working sets exercise the same cache/flash pressure as
/// the paper's full-size runs on a 256 MB region.
pub fn bench_config() -> MssdConfig {
    MssdConfig::default().with_capacity(1 << 30).with_dram_region(16 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_scale;
    use crate::report::fmt_num;

    #[test]
    fn bench_config_is_valid_and_scaled() {
        let cfg = bench_config();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.capacity_bytes, 1 << 30);
        assert_eq!(cfg.dram_region_bytes, 16 << 20);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_num(2.0), "2");
        assert_eq!(fmt_num(2.4149), "2.415");
        let mut report = BenchReport::new("t", 1.0);
        report.entries.push(BenchEntry { p99_ns: 7, ..BenchEntry::new("a", &[("x", 1.5)]) });
        report.entries.push(BenchEntry::new("b", &[("y", 3.0)]));
        report.summary.insert("ratio".into(), 0.5);
        assert_eq!(
            report.table(),
            "| entry | p99_ns | x | y |\n|---|---|---|---|\n\
             | a | 7 | 1.500 | - |\n| b | - | - | 3 |\n\nsummary: ratio = 0.500\n"
        );
    }

    /// A fresh scratch directory for one test.
    pub(crate) fn temp_dir(test: &str) -> String {
        let dir = std::env::temp_dir().join(format!("bench-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn default_scale_is_one() {
        assert_eq!(parse_scale(None), Ok(Some(1.0)));
        assert_eq!(parse_scale(Some("0.5")), Ok(Some(0.5)));
        assert_eq!(parse_scale(Some("smoke")), Ok(None), "each row's registry scale");
    }

    /// Each of these used to run the full-size bench in silence.
    #[test]
    fn bad_command_lines_are_usage_errors() {
        for line in [
            "",
            "fig6 0.5",
            "mt_scale --help",
            "run",
            "run fig99",
            "run fig6 0,5",
            "run mt_scale --help",
            "run fig6 nan",
            "run fig6 inf",
            "run fig6 0",
            "run fig6 -1",
            "run fig6 1.0 out extra",
            "gate",
            "compare",
            "compare a b c",
            "list all",
        ] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            assert_eq!(cli::main(&args), 2, "{line:?} must exit 2");
        }
    }
}
