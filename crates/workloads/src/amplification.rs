//! Amplification and traffic-breakdown reports (Table 2, Figures 1 and 8–11).

use mssd::stats::{Category, Direction, TrafficCounter};

use crate::driver::RunResult;

/// One row of the Table 2 style amplification report.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplificationRow {
    /// File-system label.
    pub fs: String,
    /// Workload label.
    pub workload: String,
    /// Host write bytes / application write bytes.
    pub write_amplification: f64,
    /// Host read bytes / application read bytes.
    pub read_amplification: f64,
}

impl AmplificationRow {
    /// Builds the row from a run result.
    pub fn from_run(run: &RunResult) -> Self {
        Self {
            fs: run.fs.clone(),
            workload: run.workload.clone(),
            write_amplification: run.write_amplification(),
            read_amplification: run.read_amplification(),
        }
    }
}

/// Per-data-structure traffic breakdown (one stacked bar of Figure 1/8/9).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficBreakdown {
    /// `(category, bytes, share of total)` rows in display order.
    pub rows: Vec<(Category, u64, f64)>,
    /// Total bytes in this direction.
    pub total: u64,
}

impl TrafficBreakdown {
    /// Computes the breakdown of host traffic in one direction.
    pub fn new(traffic: &TrafficCounter, dir: Direction) -> Self {
        let total: u64 =
            Category::ALL.iter().map(|c| traffic.host_bytes_by_category(dir, *c)).sum();
        let rows = Category::ALL
            .iter()
            .map(|c| {
                let bytes = traffic.host_bytes_by_category(dir, *c);
                let share = if total == 0 { 0.0 } else { bytes as f64 / total as f64 };
                (*c, bytes, share)
            })
            .filter(|(_, bytes, _)| *bytes > 0)
            .collect();
        Self { rows, total }
    }

    /// The share of the total attributed to one category.
    pub fn share(&self, cat: Category) -> f64 {
        self.rows.iter().find(|(c, _, _)| *c == cat).map(|(_, _, s)| *s).unwrap_or(0.0)
    }
}

/// Flash traffic in bytes for a run (one bar of Figure 10/11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTraffic {
    /// Flash bytes read (host-triggered plus firmware-internal).
    pub read_bytes: u64,
    /// Flash bytes written.
    pub write_bytes: u64,
}

impl FlashTraffic {
    /// Extracts flash traffic from a run result.
    pub fn from_run(run: &RunResult) -> Self {
        Self { read_bytes: run.flash_read_bytes(), write_bytes: run.flash_write_bytes() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use crate::filebench::{Filebench, Personality};
    use crate::fsfactory::FsKind;
    use crate::spec::Scale;
    use mssd::stats::Interface;
    use mssd::MssdConfig;

    #[test]
    fn breakdown_shares_sum_to_one() {
        let mut t = TrafficCounter::new();
        t.record_host(Direction::Write, Category::Inode, Interface::Byte, 300);
        t.record_host(Direction::Write, Category::Data, Interface::Block, 700);
        let b = TrafficBreakdown::new(&t, Direction::Write);
        assert_eq!(b.total, 1000);
        let sum: f64 = b.rows.iter().map(|(_, _, s)| *s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((b.share(Category::Data) - 0.7).abs() < 1e-9);
        assert_eq!(b.share(Category::Journal), 0.0);
    }

    #[test]
    fn empty_traffic_has_empty_breakdown() {
        let t = TrafficCounter::new();
        let b = TrafficBreakdown::new(&t, Direction::Read);
        assert_eq!(b.total, 0);
        assert!(b.rows.is_empty());
    }

    #[test]
    fn amplification_rows_reflect_run_results() {
        let w = Filebench::new(Personality::Varmail, Scale::tiny());
        let run = run_workload(FsKind::Ext4, MssdConfig::small_test(), &w, 4).unwrap();
        let row = AmplificationRow::from_run(&run);
        assert_eq!(row.fs, "ext4");
        assert_eq!(row.workload, "varmail");
        assert!(row.write_amplification > 1.0, "Ext4 write amplification should exceed 1x");
        let flash = FlashTraffic::from_run(&run);
        assert!(flash.write_bytes > 0 || flash.read_bytes > 0);
    }
}
