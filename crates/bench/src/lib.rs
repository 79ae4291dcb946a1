//! The bench suite: every figure and table of the paper plus the model's
//! cleaning, fault and replay benches, behind one `bench` binary. Every
//! number is modelled time on `mssd::Clock` or a byte count, measured once.
//!
//! [`BENCHES`] is the registry — one row per bench with its artifact, the
//! scale CI smoke-runs it at and its run function, all of one shape
//! (`fn(Scale) -> BenchReport`). [`GATES`] is the one table of thresholds;
//! `bench run` checks them on the reports it makes and exits 1 if one fails.
//! Every other number is held by its committed `BENCH_*.json`, which a run
//! at scale 1.0 rewrites byte for byte. See `DESIGN.md` for the index and
//! what each bench is for.
//!
//! ```text
//! cargo run --release -p bench -- list
//! cargo run --release -p bench -- run fig6 0.5
//! cargo run --release -p bench -- run all smoke bench_out   # and every gate
//! cargo run --release -p bench -- run all 1.0 .   # then `git status` is clean
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
mod drive;
pub mod gate;
pub mod registry;
pub mod report;
mod suite {
    pub(crate) mod gc_pause;
    pub(crate) mod hang_recovery;
    pub(crate) mod media_fault;
    pub(crate) mod paper;
    pub(crate) mod replay;
}

pub use gate::{Gate, GATES};
pub use registry::{Bench, BENCHES};
pub use report::{BenchEntry, BenchReport, SCHEMA_VERSION};

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
        report.entries.push(BenchEntry::new("a", &[("x", 1.5), ("z", 7.0)]));
        report.entries.push(BenchEntry::new("b", &[("y", 3.0)]));
        report.summary.insert("ratio".into(), 0.5);
        assert_eq!(
            report.table(),
            "| entry | x | z | y |\n|---|---|---|---|\n\
             | a | 1.500 | 7 | - |\n| b | - | - | 3 |\n\nsummary: ratio = 0.500\n"
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
            "gc_pause --help",
            "run",
            "run fig99",
            "run fig6 0,5",
            "run gc_pause --help",
            "run fig6 nan",
            "run fig6 inf",
            "run fig6 0",
            "run fig6 -1",
            "run fig6 1.0 out extra",
            "gate",
            "gate x.json",
            "compare",
            "compare a b c",
            "list all",
        ] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            assert_eq!(cli::main(&args), 2, "{line:?} must exit 2");
        }
    }
}
