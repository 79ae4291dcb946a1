//! Block I/O by the run: whole pages at consecutive LBAs move between host
//! and device in one scatter-gather NVMe command instead of one command a
//! page.
//!
//! Every block-interface file system in the workspace sizes its read runs
//! with [`read_run_len`] and writes data pages back through
//! [`BlockWriteBatch`], so "what merges into one command" is decided in one
//! place: pages adjacent in the file whose LBAs are consecutive, up to
//! [`max_run_pages`]. The pages are borrowed from wherever they live (page
//! cache, caller buffer) and handed to the device as slices — a run is never
//! copied together into a scratch buffer.

use mssd::queue::COALESCE_MAX_BYTES;
use mssd::{Category, InFlight, Mssd};

use crate::error::FsResult;

/// Longest run of pages one block command carries: the host queue's
/// coalescing bound, so a merged command is no larger than a merged doorbell
/// group.
pub fn max_run_pages(device: &Mssd) -> usize {
    COALESCE_MAX_BYTES / device.page_size()
}

/// Length in pages of the block-read run that starts at file block `index`,
/// stored at `lba`: it grows over the following file blocks, up to `last`,
/// while `lba_of` maps them to the LBAs right after the run's, `skip` does not
/// exclude them (a resident page is served from the cache) and the run stays
/// within [`max_run_pages`]. A read therefore never reaches past its request,
/// across a hole or an extent boundary, or over a cached page.
pub fn read_run_len(
    device: &Mssd,
    index: u64,
    lba: u64,
    last: u64,
    lba_of: impl Fn(u64) -> Option<u64>,
    skip: impl Fn(u64) -> bool,
) -> usize {
    let max = max_run_pages(device) as u64;
    let mut len = 1;
    while len < max
        && index + len <= last
        && lba_of(index + len) == Some(lba + len)
        && !skip(index + len)
    {
        len += 1;
    }
    len as usize
}

/// Whole pages queued for the block interface, in the order the device must
/// see them.
#[derive(Debug, Default)]
pub struct BlockWriteBatch<'a> {
    lbas: Vec<u64>,
    pages: Vec<&'a [u8]>,
}

impl<'a> BlockWriteBatch<'a> {
    /// Queues `page` (exactly one device page) for block `lba`.
    pub fn push(&mut self, lba: u64, page: &'a [u8]) {
        self.lbas.push(lba);
        self.pages.push(page);
    }

    /// Submits the queued pages in queue order, one command per run of
    /// consecutive LBAs, and empties the batch. The commands are in flight
    /// together — they queue on the link, their fixed overheads overlap — and
    /// the returned [`InFlight`] completes with the last of them: the caller
    /// hands it to [`Mssd::wait`] before anything that must follow the data.
    ///
    /// # Errors
    ///
    /// [`crate::FsError::Io`] when the device refuses a write; pages of
    /// earlier commands (and, within the failing command, earlier pages)
    /// were accepted, and every submitted command has been waited for.
    pub fn submit(&mut self, device: &Mssd, cat: Category) -> FsResult<InFlight> {
        let max = max_run_pages(device);
        let mut last = InFlight::default();
        let mut start = 0;
        while start < self.lbas.len() {
            let mut end = start + 1;
            while end < self.lbas.len()
                && end - start < max
                && self.lbas[end] == self.lbas[end - 1] + 1
            {
                end += 1;
            }
            let cmd = device
                .submit_block_write_pages(self.lbas[start], &self.pages[start..end], cat)
                .inspect_err(|_| {
                    device.wait(last);
                })?;
            last = last.max(cmd);
            start = end;
        }
        self.lbas.clear();
        self.pages.clear();
        Ok(last)
    }

    /// [`BlockWriteBatch::submit`], then [`Mssd::wait`]: the pages are in the
    /// device and their time is paid when this returns.
    ///
    /// # Errors
    ///
    /// As [`BlockWriteBatch::submit`].
    pub fn flush(&mut self, device: &Mssd, cat: Category) -> FsResult<()> {
        let cmds = self.submit(device, cat)?;
        device.wait(cmds);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssd::{DramMode, MssdConfig};

    #[test]
    fn consecutive_lbas_share_a_command_and_gaps_split_it() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let ps = dev.page_size();
        let pages: Vec<Vec<u8>> = (0..6u8).map(|t| vec![t; ps]).collect();
        let mut batch = BlockWriteBatch::default();
        // 100,101,102 | 200 | 103,104: order kept, three commands.
        for (lba, page) in [100u64, 101, 102, 200, 103, 104].into_iter().zip(&pages) {
            batch.push(lba, page);
        }
        let before = dev.traffic();
        batch.flush(&dev, Category::Data).unwrap();
        assert_eq!(dev.traffic().delta_since(&before).block_requests, 3);
        for (lba, page) in [100u64, 101, 102, 200, 103, 104].into_iter().zip(&pages) {
            assert_eq!(&dev.try_block_read(lba, 1, Category::Data).unwrap(), page);
        }
        // Flushing emptied the batch.
        let before = dev.traffic();
        batch.flush(&dev, Category::Data).unwrap();
        assert_eq!(dev.traffic().delta_since(&before).block_requests, 0);
    }

    #[test]
    fn read_runs_stop_at_gaps_skips_the_request_and_the_bound() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        // File blocks 0..40 at LBAs 500.., except block 5 (a hole) and block
        // 9 (stored elsewhere).
        let lba_of = |b: u64| match b {
            5 => None,
            9 => Some(900),
            b if b < 40 => Some(500 + b),
            _ => None,
        };
        let run = |index, last, skip: &dyn Fn(u64) -> bool| {
            read_run_len(&dev, index, lba_of(index).unwrap(), last, lba_of, skip)
        };
        assert_eq!(run(0, 39, &|_| false), 5, "the hole ends the run");
        assert_eq!(run(6, 39, &|_| false), 3, "so does a block stored elsewhere");
        assert_eq!(run(0, 2, &|_| false), 3, "never past the request");
        assert_eq!(run(0, 39, &|b| b == 2), 2, "a skipped (resident) page splits it");
        assert_eq!(run(10, 39, &|_| false), max_run_pages(&dev), "capped");
        assert_eq!(run(9, 39, &|_| false), 1);
    }

    #[test]
    fn a_run_is_capped_at_the_coalescing_bound() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let page = vec![7u8; dev.page_size()];
        let max = max_run_pages(&dev) as u64;
        let mut batch = BlockWriteBatch::default();
        for lba in 0..max + 1 {
            batch.push(300 + lba, &page);
        }
        let before = dev.traffic();
        batch.flush(&dev, Category::Data).unwrap();
        assert_eq!(dev.traffic().delta_since(&before).block_requests, 2);
    }
}
