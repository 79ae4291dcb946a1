//! Device geometry and timing configuration.
//!
//! The defaults mirror the emulator configuration in Table 4 of the paper
//! (32 GB capacity, 4 KB pages, 8 channels, 40 µs / 60 µs flash read/write,
//! 4.8 µs / 0.6 µs cacheline read/write, 3.5 / 2.5 GB/s sequential bandwidth)
//! and the firmware parameters in §4.3 / §4.9 (256 MB log region, 85 % cleaning
//! threshold, 2 MB TxLog, 16 MB write buffer).
//!
//! [`TimingProfile`] captures the flash latency points used in the Figure 13
//! sensitivity study (25/200, 40/60, 3/80 and the CXL variant 3/80*).

use serde::{Deserialize, Serialize};

use crate::fault::{FaultPlan, HangFaultPlan, MediaFaultPlan};
use crate::{CACHELINE, PAGE_SIZE};

/// Named flash/interconnect latency profiles from the paper's sensitivity study
/// (Figure 13). Read/write latencies are expressed in microseconds as in the
/// figure labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TimingProfile {
    /// Low-end flash: 25 µs read / 200 µs program.
    LowEnd,
    /// The default emulator setting: 40 µs read / 60 µs program (Table 4).
    #[default]
    Default,
    /// High-end (Z-NAND-class) flash: 3 µs read / 80 µs program.
    HighEnd,
    /// High-end flash behind CXL.mem: cacheline access latency drops to 175 ns
    /// (marked `3/80*` in Figure 13).
    HighEndCxl,
}

impl TimingProfile {
    /// All profiles in the order Figure 13 presents them.
    pub fn all() -> [TimingProfile; 4] {
        [Self::LowEnd, Self::Default, Self::HighEnd, Self::HighEndCxl]
    }

    /// Flash (read, write) latency in nanoseconds for this profile.
    pub fn flash_latency_ns(self) -> (u64, u64) {
        match self {
            Self::LowEnd => (25_000, 200_000),
            Self::Default => (40_000, 60_000),
            Self::HighEnd | Self::HighEndCxl => (3_000, 80_000),
        }
    }

    /// Cacheline (read, write) latency in nanoseconds for this profile.
    pub fn byte_latency_ns(self) -> (u64, u64) {
        match self {
            Self::HighEndCxl => (175, 175),
            _ => (4_800, 600),
        }
    }

    /// Short label used in reports, e.g. `"40/60"`.
    pub fn label(self) -> &'static str {
        match self {
            Self::LowEnd => "25/200",
            Self::Default => "40/60",
            Self::HighEnd => "3/80",
            Self::HighEndCxl => "3/80*",
        }
    }
}

impl std::fmt::Display for TimingProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full configuration of an [`crate::Mssd`] device instance.
///
/// Construct with [`MssdConfig::default`] for the paper's emulator setting, or
/// [`MssdConfig::small_test`] for unit tests, then adjust fields with the
/// builder-style `with_*` methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MssdConfig {
    /// Total usable capacity in bytes (must be a multiple of the page size).
    pub capacity_bytes: u64,
    /// Flash page size in bytes (4096 in the paper).
    pub page_size: usize,
    /// Number of flash channels; page writes across channels proceed in
    /// parallel (Table 4: 8 channels).
    pub channels: usize,
    /// Pages per flash erase block.
    pub pages_per_block: usize,
    /// Over-provisioning factor: physical capacity = capacity * (1 + op).
    pub overprovision: f64,
    /// NAND page read latency in nanoseconds.
    pub flash_read_ns: u64,
    /// NAND page program latency in nanoseconds.
    pub flash_write_ns: u64,
    /// NAND block erase latency in nanoseconds.
    pub flash_erase_ns: u64,
    /// Latency of one cacheline load over the byte interface (PCIe MMIO or
    /// CXL.mem) when the data is resident in device DRAM.
    pub byte_read_ns: u64,
    /// Latency of one posted cacheline store over the byte interface.
    pub byte_write_ns: u64,
    /// Sequential read bandwidth of the block interface in bytes/second.
    pub block_read_bw: f64,
    /// Sequential write bandwidth of the block interface in bytes/second.
    pub block_write_bw: f64,
    /// Fixed NVMe command submission/completion overhead in nanoseconds.
    pub nvme_overhead_ns: u64,
    /// Size of the device DRAM region handed to either the page cache
    /// (baselines) or the log-structured write log (ByteFS). 256 MB by default.
    pub dram_region_bytes: usize,
    /// Log utilization threshold that triggers background cleaning (0.85).
    pub log_clean_threshold: f64,
    /// Size of the firmware transaction log (TxLog), 2 MB by default; each
    /// commit record is 4 bytes.
    pub txlog_bytes: usize,
    /// FTL write buffer used to batch page programs, 16 MB by default.
    pub write_buffer_bytes: usize,
    /// Whether the write-log firmware runs its cleaner on a background
    /// thread with double-buffered log regions (the paper's design). When
    /// `false`, threshold-triggered cleaning runs inline and stop-the-world —
    /// the sequential reference behaviour the equivalence tests pin against.
    pub background_cleaning: bool,
    /// Timing profile this configuration was derived from. Besides naming the
    /// latencies above it says which interconnect carries the byte
    /// interface, and with it whether a store is ordered with the commands
    /// after it ([`MssdConfig::stores_ordered_with_commands`]).
    pub profile: TimingProfile,
    /// Power-failure injection plan (see [`crate::fault`]). Disabled by
    /// default; the crashkit enumeration driver installs counting or cutting
    /// plans here. Cloning the config shares the plan's counters, so every
    /// component of one device observes the same step sequence.
    pub fault: FaultPlan,
    /// NAND media-fault injection plan (see [`crate::fault::MediaFaultPlan`]).
    /// Disabled by default — fault-free configurations skip ECC entirely.
    /// Like [`MssdConfig::fault`], cloning the config shares the plan's
    /// deterministic draw sequence across device components.
    pub media: MediaFaultPlan,
    /// Fail-slow (hang) injection plan (see [`crate::fault::HangFaultPlan`]):
    /// command stalls, lost completions and lane wedges drawn at the host
    /// queue. Disabled by default. Like [`MssdConfig::fault`], cloning the
    /// config shares the plan's deterministic draw sequence.
    pub hang: HangFaultPlan,
    /// Spare erase blocks reserved per channel for bad-block replacement.
    /// When a channel retires a block (program or erase failure) a spare is
    /// pulled into rotation; once spares and free blocks are exhausted the
    /// device degrades to read-only.
    pub spare_blocks_per_channel: usize,
}

impl Default for MssdConfig {
    fn default() -> Self {
        Self::with_profile(TimingProfile::Default)
    }
}

impl MssdConfig {
    /// The paper's emulator configuration (Table 4) under the given flash
    /// latency profile.
    pub fn with_profile(profile: TimingProfile) -> Self {
        let (flash_read_ns, flash_write_ns) = profile.flash_latency_ns();
        let (byte_read_ns, byte_write_ns) = profile.byte_latency_ns();
        Self {
            capacity_bytes: 32 << 30,
            page_size: PAGE_SIZE,
            channels: 8,
            pages_per_block: 256,
            overprovision: 0.07,
            flash_read_ns,
            flash_write_ns,
            flash_erase_ns: 3_000_000,
            byte_read_ns,
            byte_write_ns,
            block_read_bw: 3.5e9,
            block_write_bw: 2.5e9,
            nvme_overhead_ns: 8_000,
            dram_region_bytes: 256 << 20,
            log_clean_threshold: 0.85,
            txlog_bytes: 2 << 20,
            write_buffer_bytes: 16 << 20,
            background_cleaning: true,
            profile,
            fault: FaultPlan::disabled(),
            media: MediaFaultPlan::disabled(),
            hang: HangFaultPlan::disabled(),
            spare_blocks_per_channel: 4,
        }
    }

    /// A deliberately small configuration (a few MB) for fast unit tests.
    pub fn small_test() -> Self {
        Self {
            capacity_bytes: 8 << 20,
            page_size: PAGE_SIZE,
            channels: 4,
            pages_per_block: 16,
            overprovision: 0.25,
            flash_read_ns: 40_000,
            flash_write_ns: 60_000,
            flash_erase_ns: 1_000_000,
            byte_read_ns: 4_800,
            byte_write_ns: 600,
            block_read_bw: 3.5e9,
            block_write_bw: 2.5e9,
            nvme_overhead_ns: 8_000,
            dram_region_bytes: 256 << 10,
            log_clean_threshold: 0.85,
            txlog_bytes: 64 << 10,
            write_buffer_bytes: 64 << 10,
            background_cleaning: true,
            profile: TimingProfile::Default,
            fault: FaultPlan::disabled(),
            media: MediaFaultPlan::disabled(),
            hang: HangFaultPlan::disabled(),
            spare_blocks_per_channel: 2,
        }
    }

    /// A medium configuration (default 1 GiB) sized for benchmark-harness runs
    /// that finish in seconds while keeping realistic geometry.
    pub fn bench(capacity_bytes: u64) -> Self {
        Self { capacity_bytes, ..Self::default() }
    }

    /// Sets the capacity, keeping everything else.
    pub fn with_capacity(mut self, capacity_bytes: u64) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Sets the DRAM region (write log / device cache) size.
    pub fn with_dram_region(mut self, bytes: usize) -> Self {
        self.dram_region_bytes = bytes;
        self
    }

    /// Enables or disables the background log-cleaner thread.
    pub fn with_background_cleaning(mut self, enabled: bool) -> Self {
        self.background_cleaning = enabled;
        self
    }

    /// Installs a power-failure injection plan (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Installs a NAND media-fault injection plan (see
    /// [`crate::fault::MediaFaultPlan`]).
    pub fn with_media_fault_plan(mut self, plan: MediaFaultPlan) -> Self {
        self.media = plan;
        self
    }

    /// Installs a fail-slow (hang) injection plan (see
    /// [`crate::fault::HangFaultPlan`]).
    pub fn with_hang_fault_plan(mut self, plan: HangFaultPlan) -> Self {
        self.hang = plan;
        self
    }

    /// Total number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.capacity_bytes / self.page_size as u64
    }

    /// Total number of physical pages including over-provisioning, rounded up
    /// to whole blocks and a multiple of the channel count.
    pub fn physical_pages(&self) -> u64 {
        let raw = (self.capacity_bytes as f64 * (1.0 + self.overprovision)) as u64
            / self.page_size as u64;
        let per_block = self.pages_per_block as u64;
        let blocks = raw.div_ceil(per_block);
        let blocks = blocks.div_ceil(self.channels as u64) * self.channels as u64;
        blocks * per_block
    }

    /// Number of physical erase blocks.
    pub fn physical_blocks(&self) -> u64 {
        self.physical_pages() / self.pages_per_block as u64
    }

    /// Latency in nanoseconds to transfer `bytes` over the block interface in
    /// the given direction (`read = true` for device-to-host).
    pub fn transfer_ns(&self, bytes: usize, read: bool) -> u64 {
        let bw = if read { self.block_read_bw } else { self.block_write_bw };
        (bytes as f64 / bw * 1e9) as u64
    }

    /// Latency in nanoseconds of a byte-interface access of `len` bytes.
    ///
    /// The byte interface moves whole cachelines. Posted writes pay the full
    /// per-cacheline store latency (they are made persistent by a separate
    /// write-verify read, [`crate::Mssd::persist_barrier`], or by the
    /// completion of a command ordered behind them,
    /// [`MssdConfig::stores_ordered_with_commands`]). Reads are
    /// non-posted, but sequential loads overlap on the link, so cachelines
    /// after the first cost one eighth of the full round-trip.
    pub fn byte_access_ns(&self, len: usize, read: bool) -> u64 {
        let lines = len.div_ceil(CACHELINE).max(1) as u64;
        if read {
            self.byte_read_ns + (lines - 1) * (self.byte_read_ns / 8)
        } else {
            self.byte_write_ns * lines
        }
    }

    /// Whether a byte-interface store is ordered before an NVMe command the
    /// host submits after it. On PCIe both are posted writes to the same
    /// device, which PCIe ordering does not let pass one another, so a
    /// command's completion also says that every earlier store is in device
    /// DRAM. Under CXL the stores are CXL.mem and the doorbell is CXL.io, and
    /// nothing orders the two: only the write-verify read does.
    pub fn stores_ordered_with_commands(&self) -> bool {
        self.profile != TimingProfile::HighEndCxl
    }

    /// Validates internal consistency; returns a human-readable description of
    /// the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size == 0 || !self.page_size.is_power_of_two() {
            return Err(format!("page_size {} must be a power of two", self.page_size));
        }
        if !self.capacity_bytes.is_multiple_of(self.page_size as u64) {
            return Err("capacity must be a multiple of the page size".into());
        }
        if self.channels == 0 {
            return Err("at least one flash channel is required".into());
        }
        if self.pages_per_block == 0 {
            return Err("pages_per_block must be non-zero".into());
        }
        if !(0.0..1.0).contains(&self.log_clean_threshold) {
            return Err("log_clean_threshold must be in [0, 1)".into());
        }
        if self.dram_region_bytes < self.page_size {
            return Err("dram region must hold at least one page".into());
        }
        if self.physical_pages() <= self.logical_pages() {
            return Err("over-provisioning leaves no spare pages".into());
        }
        Ok(())
    }

    /// The spare-block reserve a channel actually receives: the configured
    /// [`MssdConfig::spare_blocks_per_channel`] clamped so the reserve comes
    /// out of over-provisioning and still leaves at least one
    /// over-provisioned block per channel free for garbage collection. On
    /// geometries whose whole over-provisioning is smaller than a block per
    /// channel the reserve is zero and the first retirement degrades the
    /// device to read-only.
    pub fn effective_spare_blocks_per_channel(&self) -> usize {
        let op_pages = self.physical_pages().saturating_sub(self.logical_pages());
        let op_blocks_per_channel =
            (op_pages / self.pages_per_block as u64 / self.channels as u64) as usize;
        self.spare_blocks_per_channel.min(op_blocks_per_channel.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table4() {
        let c = MssdConfig::default();
        assert_eq!(c.capacity_bytes, 32 << 30);
        assert_eq!(c.page_size, 4096);
        assert_eq!(c.channels, 8);
        assert_eq!(c.flash_read_ns, 40_000);
        assert_eq!(c.flash_write_ns, 60_000);
        assert_eq!(c.byte_read_ns, 4_800);
        assert_eq!(c.byte_write_ns, 600);
        assert_eq!(c.dram_region_bytes, 256 << 20);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn small_test_is_valid() {
        assert!(MssdConfig::small_test().validate().is_ok());
    }

    #[test]
    fn profiles_cover_figure13_points() {
        assert_eq!(TimingProfile::LowEnd.flash_latency_ns(), (25_000, 200_000));
        assert_eq!(TimingProfile::Default.flash_latency_ns(), (40_000, 60_000));
        assert_eq!(TimingProfile::HighEnd.flash_latency_ns(), (3_000, 80_000));
        assert_eq!(TimingProfile::HighEndCxl.flash_latency_ns(), (3_000, 80_000));
        assert_eq!(TimingProfile::HighEndCxl.byte_latency_ns(), (175, 175));
        assert_eq!(TimingProfile::Default.byte_latency_ns(), (4_800, 600));
        assert_eq!(TimingProfile::all().len(), 4);
        let ordered = TimingProfile::all()
            .map(|p| MssdConfig::with_profile(p).stores_ordered_with_commands());
        assert_eq!(ordered, [true, true, true, false], "only CXL.mem stores pass CXL.io");
    }

    #[test]
    fn physical_exceeds_logical() {
        let c = MssdConfig::small_test();
        assert!(c.physical_pages() > c.logical_pages());
        assert_eq!(c.physical_pages() % c.pages_per_block as u64, 0);
    }

    #[test]
    fn transfer_latency_scales_with_size() {
        let c = MssdConfig::default();
        let one = c.transfer_ns(4096, true);
        let two = c.transfer_ns(8192, true);
        assert!(two >= 2 * one - 1);
        // 4 KB over 2.5 GB/s is ~1.6 us.
        let w = c.transfer_ns(4096, false);
        assert!((1_500..1_800).contains(&w), "write transfer {w} ns");
    }

    #[test]
    fn byte_access_per_cacheline() {
        let c = MssdConfig::default();
        assert_eq!(c.byte_access_ns(1, false), 600);
        assert_eq!(c.byte_access_ns(64, false), 600);
        assert_eq!(c.byte_access_ns(65, false), 1_200);
        assert_eq!(c.byte_access_ns(512, false), 8 * 600);
        // Reads: first line pays the full round-trip, later lines pipeline.
        assert_eq!(c.byte_access_ns(64, true), 4_800);
        assert_eq!(c.byte_access_ns(128, true), 4_800 + 600);
        assert_eq!(c.byte_access_ns(4096, true), 4_800 + 63 * 600);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = MssdConfig::small_test();
        c.page_size = 1000;
        assert!(c.validate().is_err());

        let mut c = MssdConfig::small_test();
        c.channels = 0;
        assert!(c.validate().is_err());

        let mut c = MssdConfig::small_test();
        c.log_clean_threshold = 1.5;
        assert!(c.validate().is_err());

        let mut c = MssdConfig::small_test();
        c.overprovision = 0.0;
        assert!(c.validate().is_err());

        let mut c = MssdConfig::small_test();
        c.spare_blocks_per_channel = 1000;
        assert!(c.validate().is_ok(), "oversized reserves are clamped, not rejected");
        assert!(
            c.effective_spare_blocks_per_channel() < 1000,
            "effective reserve must not eat all over-provisioning"
        );
        assert!(c.effective_spare_blocks_per_channel() >= 1);

        // small_test affords its configured reserve outright.
        let c = MssdConfig::small_test();
        assert_eq!(c.effective_spare_blocks_per_channel(), c.spare_blocks_per_channel);
    }

    #[test]
    fn media_fault_knobs_default_off() {
        let c = MssdConfig::small_test();
        assert!(!c.media.is_enabled());
        assert!(c.spare_blocks_per_channel > 0);
        assert!(!c.hang.is_enabled());
        let armed = c
            .with_media_fault_plan(crate::fault::MediaFaultPlan::rates(1, 0.1, 0.0, 0.0))
            .with_hang_fault_plan(crate::fault::HangFaultPlan::rates(1, 0.01, 0.0, 0.0));
        assert!(armed.media.is_enabled());
        assert!(armed.hang.is_enabled());
        assert!(armed.validate().is_ok());
    }

    #[test]
    fn builder_methods_update_fields() {
        let c = MssdConfig::default().with_capacity(1 << 30).with_dram_region(64 << 20);
        assert_eq!(c.capacity_bytes, 1 << 30);
        assert_eq!(c.dram_region_bytes, 64 << 20);
    }
}
