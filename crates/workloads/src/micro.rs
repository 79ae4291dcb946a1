//! Filebench-style micro-benchmarks: `create`, `delete`, `mkdir`, `rmdir`
//! (Table 5: 1 M objects in the paper, scaled down here).

use fskit::{FileSystem, FileSystemExt, FsResult};
use rand::rngs::SmallRng;

use crate::metrics::{OpClass, Recorder};
use crate::spec::Scale;
use crate::Workload;

/// Which micro-benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Create files (each with a 4 KB payload, as in the paper).
    Create,
    /// Delete pre-created files.
    Delete,
    /// Create directories.
    Mkdir,
    /// Remove pre-created directories.
    Rmdir,
}

impl MicroOp {
    /// All four micro-benchmarks in the paper's order.
    pub const ALL: [MicroOp; 4] =
        [MicroOp::Create, MicroOp::Delete, MicroOp::Mkdir, MicroOp::Rmdir];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            MicroOp::Create => "create",
            MicroOp::Delete => "delete",
            MicroOp::Mkdir => "mkdir",
            MicroOp::Rmdir => "rmdir",
        }
    }
}

/// A micro-benchmark instance.
#[derive(Debug, Clone)]
pub struct Micro {
    /// Which operation is measured.
    pub op: MicroOp,
    /// Number of objects operated on.
    pub objects: usize,
    /// Number of parent directories the objects are spread over.
    pub dirs: usize,
    /// Payload written into each created file.
    pub file_size: usize,
}

impl Micro {
    /// The paper's configuration (1 M objects) scaled by `scale`; the harness
    /// base is 2 000 objects.
    pub fn new(op: MicroOp, scale: Scale) -> Self {
        Self { op, objects: scale.count(2_000), dirs: 16, file_size: 4096 }
    }

    fn dir(&self, i: usize) -> String {
        format!("/mdir{}", i % self.dirs)
    }

    fn file_path(&self, i: usize) -> String {
        format!("{}/f{}", self.dir(i), i)
    }

    fn dir_path(&self, i: usize) -> String {
        format!("{}/d{}", self.dir(i), i)
    }
}

impl Workload for Micro {
    fn name(&self) -> String {
        self.op.label().to_string()
    }

    fn setup(&self, fs: &dyn FileSystem, _rng: &mut SmallRng) -> FsResult<()> {
        for d in 0..self.dirs {
            fs.mkdir(&format!("/mdir{d}"))?;
        }
        match self.op {
            MicroOp::Delete => {
                let payload = vec![0xAB; self.file_size];
                for i in 0..self.objects {
                    fs.write_file(&self.file_path(i), &payload)?;
                }
            }
            MicroOp::Rmdir => {
                for i in 0..self.objects {
                    fs.mkdir(&self.dir_path(i))?;
                }
            }
            MicroOp::Create | MicroOp::Mkdir => {}
        }
        fs.sync()
    }

    fn run(&self, fs: &dyn FileSystem, _rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()> {
        let clock = fs.clock();
        let payload = vec![0x5A; self.file_size];
        for i in 0..self.objects {
            let sw = rec.start(&clock);
            match self.op {
                MicroOp::Create => {
                    let fd = fs.create(&self.file_path(i))?;
                    fs.write(fd, 0, &payload)?;
                    fs.fsync(fd)?;
                    fs.close(fd)?;
                    rec.finish(&clock, sw, OpClass::Write, self.file_size);
                    continue;
                }
                MicroOp::Delete => fs.unlink(&self.file_path(i))?,
                MicroOp::Mkdir => fs.mkdir(&self.dir_path(i))?,
                MicroOp::Rmdir => fs.rmdir(&self.dir_path(i))?,
            }
            rec.finish(&clock, sw, OpClass::Meta, 0);
            // Dirty-metadata writeback pressure: the kernel flush daemon does
            // not let unsynced namespace changes accumulate forever.
            if i % 16 == 15 {
                fs.sync()?;
            }
        }
        let sw = rec.start(&clock);
        fs.sync()?;
        rec.finish(&clock, sw, OpClass::Write, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use crate::fsfactory::FsKind;
    use mssd::MssdConfig;

    #[test]
    fn all_micro_benchmarks_run_on_bytefs() {
        for op in MicroOp::ALL {
            let w = Micro::new(op, Scale::tiny());
            let result = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 1).unwrap();
            assert!(result.ops > 0, "{op:?}");
            assert!(result.elapsed_ns > 0);
            assert!(result.kops_per_sec > 0.0);
        }
    }

    #[test]
    fn create_produces_write_traffic_on_every_fs() {
        for kind in FsKind::MAIN {
            let w = Micro::new(MicroOp::Create, Scale::tiny());
            let result = run_workload(kind, MssdConfig::small_test(), &w, 2).unwrap();
            assert!(result.traffic.host_write_bytes() > 0, "{kind} should write to the device");
            assert!(result.write.count > 0);
        }
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(MicroOp::Create.label(), "create");
        assert_eq!(MicroOp::Rmdir.label(), "rmdir");
        let w = Micro::new(MicroOp::Mkdir, Scale::default());
        assert_eq!(w.name(), "mkdir");
        assert_eq!(w.objects, 2_000);
    }
}
