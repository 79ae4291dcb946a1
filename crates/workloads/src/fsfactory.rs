//! Construction of every file system under test.

use std::sync::Arc;

use baselines::{Ext4Like, F2fsLike, NovaLike, PmfsLike};
use bytefs::{ByteFs, ByteFsConfig};
use fskit::FileSystem;
use mssd::{DramMode, Mssd, MssdConfig};

/// The file systems compared in the evaluation, including the ByteFS ablation
/// variants of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// Ext4-like baseline (`E` in the figures).
    Ext4,
    /// F2FS-like baseline (`F`).
    F2fs,
    /// NOVA-like baseline (`N`).
    Nova,
    /// PMFS-like baseline (`P`).
    Pmfs,
    /// Full ByteFS (`B`).
    ByteFs,
    /// ByteFS with only the dual interface for metadata (Figure 12
    /// "ByteFS-Dual").
    ByteFsDual,
    /// ByteFS-Dual plus the firmware log (Figure 12 "ByteFS-Log").
    ByteFsLog,
}

impl FsKind {
    /// The five file systems of the main comparison (Figures 6–11).
    pub const MAIN: [FsKind; 5] =
        [FsKind::Ext4, FsKind::F2fs, FsKind::Nova, FsKind::Pmfs, FsKind::ByteFs];

    /// The ablation lineup of Figure 12.
    pub const ABLATION: [FsKind; 4] =
        [FsKind::Ext4, FsKind::ByteFsDual, FsKind::ByteFsLog, FsKind::ByteFs];

    /// Short label used in reports (matches the paper's single letters where
    /// applicable).
    pub fn label(self) -> &'static str {
        match self {
            FsKind::Ext4 => "ext4",
            FsKind::F2fs => "f2fs",
            FsKind::Nova => "nova",
            FsKind::Pmfs => "pmfs",
            FsKind::ByteFs => "bytefs",
            FsKind::ByteFsDual => "bytefs-dual",
            FsKind::ByteFsLog => "bytefs-log",
        }
    }

    /// The device firmware mode this file system runs on (§5.1: baselines run
    /// without firmware changes, i.e. page-granular device caching).
    pub fn dram_mode(self) -> DramMode {
        match self {
            FsKind::ByteFs | FsKind::ByteFsLog => DramMode::WriteLog,
            _ => DramMode::PageCache,
        }
    }

    /// Builds a freshly formatted file system of this kind on a new device
    /// with the given configuration. Returns the device (for stats access) and
    /// the mounted file system.
    ///
    /// # Panics
    ///
    /// Panics if formatting fails (the configurations produced by this crate
    /// are always valid).
    pub fn build(self, cfg: MssdConfig) -> (Arc<Mssd>, Arc<dyn FileSystem>) {
        let device = Mssd::new(cfg, self.dram_mode());
        let fs: Arc<dyn FileSystem> = match self {
            FsKind::Ext4 => Ext4Like::format(Arc::clone(&device)),
            FsKind::F2fs => F2fsLike::format(Arc::clone(&device)),
            FsKind::Nova => NovaLike::format(Arc::clone(&device)),
            FsKind::Pmfs => PmfsLike::format(Arc::clone(&device)),
            FsKind::ByteFs => ByteFs::format(Arc::clone(&device), ByteFsConfig::full())
                .expect("format full ByteFS"),
            FsKind::ByteFsDual => ByteFs::format(Arc::clone(&device), ByteFsConfig::dual_only())
                .expect("format ByteFS-Dual"),
            FsKind::ByteFsLog => ByteFs::format(Arc::clone(&device), ByteFsConfig::dual_plus_log())
                .expect("format ByteFS-Log"),
        };
        (device, fs)
    }
}

impl std::fmt::Display for FsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fskit::FileSystemExt;

    #[test]
    fn every_kind_builds_and_serves_io() {
        for kind in [
            FsKind::Ext4,
            FsKind::F2fs,
            FsKind::Nova,
            FsKind::Pmfs,
            FsKind::ByteFs,
            FsKind::ByteFsDual,
            FsKind::ByteFsLog,
        ] {
            let (dev, fs) = kind.build(MssdConfig::small_test());
            assert_eq!(dev.dram_mode(), kind.dram_mode());
            fs.mkdir("/t").unwrap();
            fs.write_file("/t/f", &vec![0xA5u8; 5000]).unwrap();
            assert_eq!(fs.read_file("/t/f").unwrap(), vec![0xA5u8; 5000], "{kind}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = [
            FsKind::Ext4,
            FsKind::F2fs,
            FsKind::Nova,
            FsKind::Pmfs,
            FsKind::ByteFs,
            FsKind::ByteFsDual,
            FsKind::ByteFsLog,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn lineups_match_the_paper() {
        assert_eq!(FsKind::MAIN.len(), 5);
        assert_eq!(FsKind::ABLATION[0], FsKind::Ext4);
        assert_eq!(FsKind::ABLATION[3], FsKind::ByteFs);
    }
}
