//! Filebench macro-benchmark personalities: Varmail, Fileserver, Webserver,
//! Webproxy (Table 5).
//!
//! Each personality reproduces the operation mix of its Filebench counterpart:
//!
//! * **Varmail** — mail server: delete / create+append+fsync /
//!   read+append+fsync / read, on many small (16 KB) files;
//! * **Fileserver** — create+write, append, whole-file read, delete and stat
//!   on larger (128 KB) files;
//! * **Webserver** — ten whole-file reads plus a small log append per
//!   iteration (read-heavy);
//! * **Webproxy** — delete + create+append plus five reads per iteration
//!   (read-heavy with frequent directory churn).

use fskit::{FileSystem, FileSystemExt, FsResult, OpenFlags};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::metrics::{OpClass, Recorder};
use crate::spec::Scale;
use crate::Workload;

/// The four Filebench personalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// Mail-server workload.
    Varmail,
    /// File-server workload.
    Fileserver,
    /// Static web-server workload.
    Webserver,
    /// Web-proxy cache workload.
    Webproxy,
}

impl Personality {
    /// All personalities in the paper's order.
    pub const ALL: [Personality; 4] = [
        Personality::Varmail,
        Personality::Fileserver,
        Personality::Webserver,
        Personality::Webproxy,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Personality::Varmail => "varmail",
            Personality::Fileserver => "fileserver",
            Personality::Webserver => "webserver",
            Personality::Webproxy => "webproxy",
        }
    }
}

/// A Filebench-style macro workload.
#[derive(Debug, Clone)]
pub struct Filebench {
    /// Which personality.
    pub personality: Personality,
    /// Number of files in the data set.
    pub files: usize,
    /// Mean file size in bytes.
    pub file_size: usize,
    /// Number of measured iterations of the personality's operation loop.
    pub iterations: usize,
    /// Size of one append in bytes.
    pub append_size: usize,
}

impl Filebench {
    /// Builds a personality with the paper's shape (Table 5) scaled by
    /// `scale`. Harness base: 400 files / 600 iterations.
    pub fn new(personality: Personality, scale: Scale) -> Self {
        let (files, file_size, iterations, append_size) = match personality {
            Personality::Varmail => (scale.count(400), 16 << 10, scale.count(600), 8 << 10),
            Personality::Fileserver => (scale.count(100), 128 << 10, scale.count(300), 16 << 10),
            Personality::Webserver => (scale.count(400), 16 << 10, scale.count(600), 1 << 10),
            Personality::Webproxy => (scale.count(400), 16 << 10, scale.count(600), 16 << 10),
        };
        Self { personality, files, file_size, iterations, append_size }
    }

    fn path(&self, i: usize) -> String {
        format!("/set/dir{}/file{}", i % 16, i)
    }

    /// The path of a file drawn uniformly from the whole set.
    fn random_path(&self, rng: &mut SmallRng) -> String {
        self.path(rng.gen_range(0..self.files))
    }

    fn read_whole(&self, fs: &dyn FileSystem, path: &str) -> FsResult<usize> {
        match fs.read_file(path) {
            Ok(data) => Ok(data.len()),
            Err(fskit::FsError::NotFound(_)) => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Workload for Filebench {
    fn name(&self) -> String {
        self.personality.label().to_string()
    }

    fn setup(&self, fs: &dyn FileSystem, rng: &mut SmallRng) -> FsResult<()> {
        fs.mkdir("/set")?;
        for d in 0..16 {
            fs.mkdir(&format!("/set/dir{d}"))?;
        }
        fs.mkdir("/logs")?;
        fs.write_file("/logs/weblog", b"")?;
        let mut payload = vec![0u8; self.file_size];
        for i in 0..self.files {
            rng.fill(&mut payload[..64]);
            fs.write_file(&self.path(i), &payload)?;
        }
        fs.sync()
    }

    fn run(&self, fs: &dyn FileSystem, rng: &mut SmallRng, rec: &mut Recorder) -> FsResult<()> {
        let clock = fs.clock();
        let append = vec![0xCD; self.append_size];
        for iter in 0..self.iterations {
            match self.personality {
                Personality::Varmail => {
                    // delete one mail file
                    let victim = self.random_path(rng);
                    let sw = rec.start(&clock);
                    if fs.exists(&victim) {
                        fs.unlink(&victim)?;
                    }
                    rec.finish(&clock, sw, OpClass::Meta, 0);
                    // compose: create + append + fsync
                    let sw = rec.start(&clock);
                    let fd = fs.open(&victim, OpenFlags::create_rw())?;
                    fs.append(fd, &append)?;
                    fs.fsync(fd)?;
                    fs.close(fd)?;
                    rec.finish(&clock, sw, OpClass::Write, self.append_size);
                    // read + append + fsync another mailbox
                    let other = self.random_path(rng);
                    if fs.exists(&other) {
                        let sw = rec.start(&clock);
                        let n = self.read_whole(fs, &other)?;
                        rec.finish(&clock, sw, OpClass::Read, n);
                        let sw = rec.start(&clock);
                        let fd = fs.open(&other, OpenFlags::read_write().with_append())?;
                        fs.append(fd, &append)?;
                        fs.fsync(fd)?;
                        fs.close(fd)?;
                        rec.finish(&clock, sw, OpClass::Write, self.append_size);
                    }
                    // read a third mailbox
                    let third = self.random_path(rng);
                    let sw = rec.start(&clock);
                    let n = self.read_whole(fs, &third)?;
                    rec.finish(&clock, sw, OpClass::Read, n);
                }
                Personality::Fileserver => {
                    // create a new file and write it whole
                    let fresh = format!("/set/dir{}/new{}", iter % 16, iter);
                    let sw = rec.start(&clock);
                    let fd = fs.open(&fresh, OpenFlags::create_truncate())?;
                    fs.write(fd, 0, &vec![1u8; self.file_size])?;
                    fs.close(fd)?;
                    rec.finish(&clock, sw, OpClass::Write, self.file_size);
                    // append to an existing file
                    let target = self.random_path(rng);
                    if fs.exists(&target) {
                        let sw = rec.start(&clock);
                        let fd = fs.open(&target, OpenFlags::read_write().with_append())?;
                        fs.append(fd, &append)?;
                        fs.close(fd)?;
                        rec.finish(&clock, sw, OpClass::Write, self.append_size);
                    }
                    // read a whole file
                    let target = self.random_path(rng);
                    let sw = rec.start(&clock);
                    let n = self.read_whole(fs, &target)?;
                    rec.finish(&clock, sw, OpClass::Read, n);
                    // delete the freshly written file and stat another
                    let sw = rec.start(&clock);
                    fs.unlink(&fresh)?;
                    let _ = fs.stat(&self.random_path(rng));
                    rec.finish(&clock, sw, OpClass::Meta, 0);
                }
                Personality::Webserver => {
                    for _ in 0..10 {
                        let target = self.random_path(rng);
                        let sw = rec.start(&clock);
                        let n = self.read_whole(fs, &target)?;
                        rec.finish(&clock, sw, OpClass::Read, n);
                    }
                    let sw = rec.start(&clock);
                    let fd = fs.open("/logs/weblog", OpenFlags::read_write().with_append())?;
                    fs.append(fd, &append)?;
                    fs.close(fd)?;
                    rec.finish(&clock, sw, OpClass::Write, self.append_size);
                }
                Personality::Webproxy => {
                    let victim = self.random_path(rng);
                    let sw = rec.start(&clock);
                    if fs.exists(&victim) {
                        fs.unlink(&victim)?;
                    }
                    rec.finish(&clock, sw, OpClass::Meta, 0);
                    let sw = rec.start(&clock);
                    let fd = fs.open(&victim, OpenFlags::create_truncate())?;
                    fs.write(fd, 0, &append)?;
                    fs.close(fd)?;
                    rec.finish(&clock, sw, OpClass::Write, self.append_size);
                    for _ in 0..5 {
                        let target = self.random_path(rng);
                        let sw = rec.start(&clock);
                        let n = self.read_whole(fs, &target)?;
                        rec.finish(&clock, sw, OpClass::Read, n);
                    }
                }
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
    fn every_personality_runs_on_bytefs_and_ext4() {
        for p in Personality::ALL {
            for kind in [FsKind::ByteFs, FsKind::Ext4] {
                let w = Filebench::new(p, Scale::tiny());
                let result = run_workload(kind, MssdConfig::small_test(), &w, 7).unwrap();
                assert!(result.ops > 0, "{p:?} on {kind}");
                assert!(result.read.count + result.write.count > 0);
            }
        }
    }

    #[test]
    fn webserver_is_read_dominated_and_varmail_write_dominated() {
        let web = Filebench::new(Personality::Webserver, Scale::tiny());
        let r = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &web, 3).unwrap();
        assert!(r.app_read_bytes > r.app_write_bytes, "webserver reads more than it writes");

        let mail = Filebench::new(Personality::Varmail, Scale::tiny());
        let r = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &mail, 3).unwrap();
        assert!(r.write.count > 0 && r.read.count > 0);
    }

    #[test]
    fn personalities_have_table5_shapes() {
        let v = Filebench::new(Personality::Varmail, Scale::default());
        assert_eq!(v.file_size, 16 << 10);
        let f = Filebench::new(Personality::Fileserver, Scale::default());
        assert_eq!(f.file_size, 128 << 10);
        assert!(f.files < v.files);
    }
}
