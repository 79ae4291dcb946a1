//! Per-structure traffic breakdowns (Figures 1, 8 and 9). A run's read and
//! write amplification and its flash traffic are methods of
//! [`RunResult`](crate::driver::RunResult).

use mssd::stats::{Category, Direction, TrafficCounter};

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

#[cfg(test)]
mod tests {
    use super::*;
    use mssd::stats::Interface;

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
}
