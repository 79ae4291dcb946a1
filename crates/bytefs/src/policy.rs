//! Interface-selection policy and ByteFS configuration (including the ablation
//! variants of Figure 12).

use serde::{Deserialize, Serialize};

/// Which host interface a particular access should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterfaceChoice {
    /// Byte-granular MMIO access.
    Byte,
    /// 4 KB NVMe block access.
    Block,
}

/// Direct I/O requests of at most this many bytes use the byte interface
/// (§4.6).
const DIRECT_BYTE_THRESHOLD: usize = 512;

/// Buffered writeback uses the byte interface when the modified ratio is
/// strictly below this threshold (§4.6).
const WRITEBACK_RATIO_THRESHOLD: f64 = 1.0 / 8.0;

/// Configuration of a [`crate::ByteFs`] instance.
///
/// The three constructors correspond to the paper's performance-breakdown
/// variants (Figure 12); metadata (inodes, bitmaps, dentries, extents) goes
/// over the byte interface in all of them:
///
/// | Variant | metadata byte | data byte | firmware txn | device mode |
/// |---|---|---|---|---|
/// | [`ByteFsConfig::dual_only`] ("ByteFS-Dual") | yes | no | no | page cache |
/// | [`ByteFsConfig::dual_plus_log`] ("ByteFS-Log") | yes | no | yes | write log |
/// | [`ByteFsConfig::full`] ("ByteFS") | yes | yes | yes | write log |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ByteFsConfig {
    /// Allow the byte interface for file data (direct I/O ≤ threshold and
    /// writeback of lightly-modified pages).
    pub data_byte_interface: bool,
    /// Tag metadata writes with TxIDs and commit through the firmware TxLog.
    /// Requires the device to run in [`mssd::DramMode::WriteLog`].
    pub firmware_transactions: bool,
    /// Host page cache capacity in pages.
    pub page_cache_pages: usize,
}

impl Default for ByteFsConfig {
    fn default() -> Self {
        Self::full()
    }
}

impl ByteFsConfig {
    /// The complete ByteFS design.
    pub fn full() -> Self {
        Self {
            data_byte_interface: true,
            firmware_transactions: true,
            page_cache_pages: 64 << 10, // 256 MB of 4 KB pages
        }
    }

    /// "ByteFS-Dual": only the dual interface for metadata; data uses the
    /// block interface and the device keeps page-granular caching.
    pub fn dual_only() -> Self {
        Self { data_byte_interface: false, firmware_transactions: false, ..Self::full() }
    }

    /// "ByteFS-Log": ByteFS-Dual plus the firmware log-structured memory and
    /// TxLog-based transactions.
    pub fn dual_plus_log() -> Self {
        Self { data_byte_interface: false, ..Self::full() }
    }

    /// Sets the host page cache size in pages.
    pub fn with_page_cache_pages(mut self, pages: usize) -> Self {
        self.page_cache_pages = pages;
        self
    }

    /// The [`mssd::DramMode`] this configuration expects the device to run in.
    pub fn required_dram_mode(&self) -> mssd::DramMode {
        if self.firmware_transactions {
            mssd::DramMode::WriteLog
        } else {
            mssd::DramMode::PageCache
        }
    }

    /// Interface choice for a direct-I/O request of `len` bytes (§4.6: ≤ 512 B
    /// uses cachelines, larger requests use blocks).
    pub fn direct_io_choice(&self, len: usize) -> InterfaceChoice {
        if self.data_byte_interface && len <= DIRECT_BYTE_THRESHOLD {
            InterfaceChoice::Byte
        } else {
            InterfaceChoice::Block
        }
    }

    /// Interface choice for writing back a dirty page whose modified ratio is
    /// `ratio` (§4.6: R < 1/8 → byte interface).
    pub fn writeback_choice(&self, ratio: f64) -> InterfaceChoice {
        if self.data_byte_interface && ratio < WRITEBACK_RATIO_THRESHOLD {
            InterfaceChoice::Byte
        } else {
            InterfaceChoice::Block
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_uses_byte_interface_for_small_accesses() {
        let c = ByteFsConfig::full();
        assert_eq!(c.direct_io_choice(64), InterfaceChoice::Byte);
        assert_eq!(c.direct_io_choice(512), InterfaceChoice::Byte);
        assert_eq!(c.direct_io_choice(513), InterfaceChoice::Block);
        assert_eq!(c.writeback_choice(0.0), InterfaceChoice::Byte);
        assert_eq!(c.writeback_choice(0.124), InterfaceChoice::Byte);
        assert_eq!(c.writeback_choice(0.125), InterfaceChoice::Block);
        assert_eq!(c.writeback_choice(1.0), InterfaceChoice::Block);
        assert_eq!(c.required_dram_mode(), mssd::DramMode::WriteLog);
    }

    #[test]
    fn dual_only_disables_data_byte_interface_and_txns() {
        let c = ByteFsConfig::dual_only();
        assert_eq!(c.direct_io_choice(64), InterfaceChoice::Block);
        assert_eq!(c.writeback_choice(0.01), InterfaceChoice::Block);
        assert!(!c.firmware_transactions);
        assert_eq!(c.required_dram_mode(), mssd::DramMode::PageCache);
    }

    #[test]
    fn dual_plus_log_enables_firmware_transactions() {
        let c = ByteFsConfig::dual_plus_log();
        assert!(c.firmware_transactions);
        assert_eq!(c.direct_io_choice(64), InterfaceChoice::Block);
        assert_eq!(c.required_dram_mode(), mssd::DramMode::WriteLog);
    }

    #[test]
    fn builder_helpers() {
        let c = ByteFsConfig::full().with_page_cache_pages(128);
        assert_eq!(c.page_cache_pages, 128);
    }
}
