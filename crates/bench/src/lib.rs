//! Shared helpers for the benchmark harness binaries.
//!
//! Every table and figure of the paper has a dedicated binary in `src/bin/`
//! (see DESIGN.md for the index). The binaries accept an optional scale factor
//! as their first argument, e.g.
//!
//! ```text
//! cargo run --release -p bench --bin fig6 -- 0.5
//! ```
//!
//! runs the Figure 6 sweep at half the default working-set size.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;

pub use report::{host_cpus, BenchEntry, BenchReport, SCHEMA_VERSION};

use mssd::MssdConfig;
use workloads::Scale;

/// Parses the scale factor from the process arguments (default 1.0).
pub fn scale_from_args() -> Scale {
    let factor = std::env::args().nth(1).and_then(|a| a.parse::<f64>().ok()).unwrap_or(1.0);
    Scale::new(factor)
}

/// The device configuration used by the harness: the paper's emulator timing
/// (Table 4) on a 1 GiB volume, with the device DRAM region scaled to 16 MB so
/// that the scaled-down working sets exercise the same cache/flash pressure as
/// the paper's full-size runs on a 256 MB region.
pub fn bench_config() -> MssdConfig {
    MssdConfig::default().with_capacity(1 << 30).with_dram_region(16 << 20)
}

/// A harness device configuration with a custom DRAM (write-log) size, used by
/// the Figure 14 sensitivity sweep.
pub fn bench_config_with_log(log_bytes: usize) -> MssdConfig {
    bench_config().with_dram_region(log_bytes)
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Formats a ratio like `2.41x`.
pub fn ratio(value: f64, base: f64) -> String {
    if base <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:.2}x", value / base)
}

/// Formats a byte count in MiB.
pub fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_valid_and_scaled() {
        let cfg = bench_config();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.capacity_bytes, 1 << 30);
        assert_eq!(cfg.dram_region_bytes, 16 << 20);
        let cfg = bench_config_with_log(4 << 20);
        assert_eq!(cfg.dram_region_bytes, 4 << 20);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(5.0, 2.0), "2.50x");
        assert_eq!(ratio(1.0, 0.0), "n/a");
        assert_eq!(mib(1 << 20), "1.0 MiB");
    }

    #[test]
    fn default_scale_is_one() {
        assert_eq!(scale_from_args().factor(), 1.0);
    }
}
