//! Property tests for the record→export→parse→replay pipeline: a random op
//! stream recorded on ByteFS must survive the text serialization
//! unchanged, and an exact-speed replay of the parsed trace must reproduce
//! the recorded run — same op sequence (checked by re-recording the replay)
//! and bit-identical remounted device image. The parser itself must answer
//! arbitrary and corrupted input with `Ok` or `Err`, never a panic.

use mssd::MssdConfig;
use proptest::prelude::*;
use workloads::replay::{record_workload, replay_on, RecordingFs, TraceMeta, FS_TRACE_SCHEMA};
use workloads::{FsKind, OpTrace, Recorder, ReplayConfig, ReplaySpeed, Workload};

/// One step of the random workload, phrased over a small universe of file
/// slots so streams alias (overwrites, re-creates, unlinks of live files).
#[derive(Debug, Clone)]
enum SimOp {
    Create { slot: u8 },
    Write { slot: u8, offset: u16, tag: u8, len: u16 },
    Append { slot: u8, tag: u8, len: u16 },
    Fsync { slot: u8 },
    Truncate { slot: u8, size: u16 },
    Read { slot: u8, offset: u16, len: u16 },
    Unlink { slot: u8 },
    Rename { from: u8, to: u8 },
    Mkdir { slot: u8 },
    Tenant { t: u8 },
    Sync,
}

fn sim_op_strategy() -> impl Strategy<Value = SimOp> {
    // The vendored proptest has no weighted prop_oneof; weight by
    // duplicating arms, like mssd's equivalence suites do.
    prop_oneof![
        any::<u8>().prop_map(|slot| SimOp::Create { slot }),
        any::<u8>().prop_map(|slot| SimOp::Create { slot }),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<u16>())
            .prop_map(|(slot, offset, tag, len)| SimOp::Write { slot, offset, tag, len }),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<u16>())
            .prop_map(|(slot, offset, tag, len)| SimOp::Write { slot, offset, tag, len }),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(slot, tag, len)| SimOp::Append {
            slot,
            tag,
            len
        }),
        any::<u8>().prop_map(|slot| SimOp::Fsync { slot }),
        any::<u8>().prop_map(|slot| SimOp::Fsync { slot }),
        (any::<u8>(), any::<u16>()).prop_map(|(slot, size)| SimOp::Truncate { slot, size }),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(slot, offset, len)| SimOp::Read {
            slot,
            offset,
            len
        }),
        any::<u8>().prop_map(|slot| SimOp::Unlink { slot }),
        (any::<u8>(), any::<u8>()).prop_map(|(from, to)| SimOp::Rename { from, to }),
        any::<u8>().prop_map(|slot| SimOp::Mkdir { slot }),
        any::<u8>().prop_map(|t| SimOp::Tenant { t }),
        Just(SimOp::Sync),
    ]
}

/// Replays the generated op list through the `Workload` trait. Ops address
/// files by slot; a slot's fd is kept open between ops and closed at the
/// end, failures are recorded and ignored (the trace captures them too).
struct SimWorkload {
    ops: Vec<SimOp>,
}

const SLOTS: usize = 6;

impl Workload for SimWorkload {
    fn name(&self) -> String {
        "sim".to_string()
    }

    fn setup(
        &self,
        fs: &dyn fskit::FileSystem,
        _rng: &mut rand::rngs::SmallRng,
    ) -> fskit::FsResult<()> {
        fs.mkdir("/sim")
    }

    fn run(
        &self,
        fs: &dyn fskit::FileSystem,
        _rng: &mut rand::rngs::SmallRng,
        _rec: &mut Recorder,
    ) -> fskit::FsResult<()> {
        let mut fds: [Option<fskit::Fd>; SLOTS] = [None; SLOTS];
        let mut scope = None;
        for op in &self.ops {
            match op {
                SimOp::Create { slot } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s].take() {
                        fs.close(fd).ok();
                    }
                    fds[s] = fs.create(&format!("/sim/f{s}")).ok();
                }
                SimOp::Write { slot, offset, tag, len } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        let data = vec![*tag; 1 + (*len as usize % 700)];
                        fs.write(fd, u64::from(*offset % 2048), &data).ok();
                    }
                }
                SimOp::Append { slot, tag, len } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        // A ramp payload defeats the fill compression, so
                        // both payload encodings are exercised.
                        let n = 1 + (*len as usize % 300);
                        let data: Vec<u8> = (0..n).map(|i| tag.wrapping_add(i as u8)).collect();
                        fs.append(fd, &data).ok();
                    }
                }
                SimOp::Fsync { slot } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        fs.fsync(fd).ok();
                    }
                }
                SimOp::Truncate { slot, size } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        fs.truncate(fd, u64::from(*size % 4096)).ok();
                    }
                }
                SimOp::Read { slot, offset, len } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s] {
                        fs.read(fd, u64::from(*offset % 2048), 1 + (*len as usize % 512)).ok();
                    }
                }
                SimOp::Unlink { slot } => {
                    let s = *slot as usize % SLOTS;
                    if let Some(fd) = fds[s].take() {
                        fs.close(fd).ok();
                    }
                    fs.unlink(&format!("/sim/f{s}")).ok();
                }
                SimOp::Rename { from, to } => {
                    let f = *from as usize % SLOTS;
                    let t = *to as usize % SLOTS;
                    if f == t {
                        continue;
                    }
                    if let Some(fd) = fds[f].take() {
                        fs.close(fd).ok();
                    }
                    if let Some(fd) = fds[t].take() {
                        fs.close(fd).ok();
                    }
                    fs.unlink(&format!("/sim/f{t}")).ok();
                    fs.rename(&format!("/sim/f{f}"), &format!("/sim/f{t}")).ok();
                }
                SimOp::Mkdir { slot } => {
                    fs.mkdir(&format!("/sim/d{}", *slot as usize % SLOTS)).ok();
                }
                SimOp::Tenant { t } => {
                    // Handles belong to the tenant stream that opened them
                    // (the threaded replayer partitions fd maps by tenant),
                    // so close everything before switching clients.
                    for fd in fds.iter_mut().filter_map(Option::take) {
                        fs.close(fd).ok();
                    }
                    // Re-entering replaces the scope; drop order restores
                    // the outer ctx only at run end, which is fine here.
                    scope = Some(mssd::CtxScope::enter(
                        mssd::trace::ctx().with_tenant(u16::from(*t % 4)),
                    ));
                }
                SimOp::Sync => {
                    fs.sync().ok();
                }
            }
        }
        // Close inside the final tenant scope — handles belong to the
        // stream that opened them.
        for fd in fds.into_iter().flatten() {
            fs.close(fd).ok();
        }
        drop(scope);
        Ok(())
    }
}

/// Strips the fields an exact replay legitimately changes (issue timestamps
/// shift because replay does not re-charge host CPU between ops) so op
/// streams can be compared structurally.
fn shape(trace: &OpTrace) -> Vec<(u64, u16, bool, workloads::OpKind)> {
    trace.records.iter().map(|r| (r.seq, r.tenant, r.ok, r.op.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn recorded_streams_round_trip_and_replay_bit_for_bit(
        ops in proptest::collection::vec(sim_op_strategy(), 1..30),
        seed in any::<u64>(),
    ) {
        let wl = SimWorkload { ops };
        let recorded = record_workload(FsKind::ByteFs, MssdConfig::small_test(), &wl, seed)
            .expect("recording the sim workload");

        // The text serialization is lossless.
        let text = recorded.trace.to_text();
        let parsed = OpTrace::from_text(&text).expect("text round-trip parses");
        prop_assert_eq!(&parsed, &recorded.trace);
        prop_assert_eq!(parsed.meta.schema, FS_TRACE_SCHEMA);

        // Exact replay of the *parsed* trace through a second recorder: the
        // re-recorded op stream matches the original record for record
        // (same ops, same fds, same outcomes, same tenants) and the
        // remounted image digest is bit-identical.
        let (device, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
        let rec_fs = RecordingFs::new(fs);
        let rcfg = ReplayConfig { speed: ReplaySpeed::Exact, threads: 1 };
        let out = replay_on(&device, &rec_fs, &parsed, &rcfg);
        prop_assert_eq!(out.divergences, 0, "same-fs replay must not diverge");
        prop_assert_eq!(out.remount_digest, recorded.remount_digest);
        let rerecorded = rec_fs.into_trace(TraceMeta {
            schema: FS_TRACE_SCHEMA,
            name: "sim".to_string(),
            seed,
            capacity_bytes: 0,
            page_size: 0,
        });
        prop_assert_eq!(shape(&rerecorded), shape(&recorded.trace));
    }
}

/// The text of one valid recorded trace carrying both payload encodings
/// (`fill=` from the writes, `hex=` from the ramp appends), namespace ops
/// and two tenants — the seed the mutation property corrupts. Recorded
/// once; recording is deterministic.
fn valid_trace_text() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let ops = vec![
            SimOp::Create { slot: 0 },
            SimOp::Write { slot: 0, offset: 5, tag: 0xAB, len: 300 },
            SimOp::Append { slot: 0, tag: 0x10, len: 40 },
            SimOp::Read { slot: 0, offset: 0, len: 64 },
            SimOp::Tenant { t: 3 },
            SimOp::Create { slot: 1 },
            SimOp::Append { slot: 1, tag: 0xF0, len: 9 },
            SimOp::Truncate { slot: 1, size: 17 },
            SimOp::Fsync { slot: 1 },
            SimOp::Rename { from: 1, to: 2 },
            SimOp::Mkdir { slot: 4 },
            SimOp::Unlink { slot: 0 },
            SimOp::Sync,
        ];
        record_workload(FsKind::ByteFs, MssdConfig::small_test(), &SimWorkload { ops }, 7)
            .expect("recording the seed trace")
            .trace
            .to_text()
    })
}

/// Whatever `from_text` accepts it must also re-emit and re-read unchanged:
/// an `Ok` on hostile input is a real trace, not a half-parsed one.
fn parse_hostile(text: &str) {
    if let Ok(trace) = OpTrace::from_text(text) {
        assert_eq!(OpTrace::from_text(&trace.to_text()).as_ref(), Ok(&trace));
    }
}

/// Fragments the arbitrary-string property splices: the format's own
/// vocabulary (so inputs get past the first token), boundary integers, and
/// multi-byte characters to land inside escapes and hex pairs.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "#fstrace ", "v1 ", "v2 ", "name=", "seed=0x", "capacity_bytes=", "page_size=", "ops=", "\n",
    " ", "t=", "R ", "S ", "ok ", "err ", "create ", "open ", "write ", "append ", "read ",
    "rename ", "truncate ", "sync", "fd=", "off=", "len=", "size=", "flags=", "path=", "from=",
    "to=", "fill=", "hex=", ":", "%", "%4", "é", "\u{1F600}", "0", "7", "a", "f", "+", "-1",
    "65536", "4294967296", "18446744073709551615", "18446744073709551616", "/x", "#",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn from_text_never_panics_on_arbitrary_strings(
        picks in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..48),
    ) {
        let mut text = String::new();
        for (pick, raw) in picks {
            match FRAGMENTS.get(pick as usize % (FRAGMENTS.len() + 8)) {
                Some(fragment) => text.push_str(fragment),
                // The slots past the table: any character at all.
                None => text.push(char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}')),
            }
        }
        parse_hostile(&text);
    }

    #[test]
    fn from_text_never_panics_on_single_byte_mutations(pos in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = valid_trace_text().as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        // A byte that breaks UTF-8 becomes U+FFFD — three bytes, so a
        // corrupted hex payload keeps its even length and the decoder meets
        // a multi-byte character mid-pair.
        parse_hostile(&String::from_utf8_lossy(&bytes));
    }
}
