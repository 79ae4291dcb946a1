//! Deterministic power-failure injection: the device-side half of `crashkit`.
//!
//! Every **durability-relevant step** the device executes — a write-log chunk
//! append, a TxLog commit record, a sealed-region drain migration, a write
//! buffer acceptance, a NAND page program, a block erase — passes through the
//! [`FaultPlan`] installed in [`crate::MssdConfig::fault`]. The plan counts
//! the steps and, when armed with a cut point, denies the chosen step and
//! every step after it: from that instant the device behaves as if power was
//! lost mid-operation. Mutations that were about to happen simply do not
//! (a multi-page program is torn between pages, a sealed region is left
//! partially drained, a commit record is never appended), while reads keep
//! returning the state that *did* become durable.
//!
//! The default plan is [`FaultPlan::disabled`]: a single `Option` check on
//! the hot path and no other cost, so production configurations are
//! unaffected.
//!
//! Determinism: with a single-threaded host the step sequence is a pure
//! function of the op stream — cleaning passes run inside the byte write
//! that crosses the threshold, so their steps sit at fixed places in it —
//! and the same seed and the same cut index always produce the same crash
//! state (pinned by the crashkit determinism tests).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Taxonomy of durability-relevant steps (see `crates/crashkit/DESIGN.md`
/// for the full crash-point taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A byte-interface chunk appended to the write log (battery-backed DRAM).
    LogAppend,
    /// A commit record appended to the firmware TxLog.
    TxCommit,
    /// One page migrated out of a sealed log region by a cleaner drain step.
    SealDrain,
    /// A block-interface page accepted into the FTL write buffer (the
    /// acknowledgement point of a block write).
    BufferWrite,
    /// A block-interface journal page accepted (same mechanism as
    /// [`FaultKind::BufferWrite`], counted separately because journal commit
    /// protocols are the classic torn-write victims).
    JournalWrite,
    /// A byte-interface chunk absorbed by the baseline device page cache.
    CacheWrite,
    /// One NAND page programmed (host flush, cleaner merge, or GC
    /// relocation). Cutting inside a multi-page program tears it.
    FlashProgram,
    /// One NAND block erased by garbage collection.
    FlashErase,
}

impl FaultKind {
    /// All kinds, in a stable order (indexable by [`FaultKind::index`]).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::LogAppend,
        FaultKind::TxCommit,
        FaultKind::SealDrain,
        FaultKind::BufferWrite,
        FaultKind::JournalWrite,
        FaultKind::CacheWrite,
        FaultKind::FlashProgram,
        FaultKind::FlashErase,
    ];

    /// Stable index of this kind into per-kind counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::LogAppend => 0,
            FaultKind::TxCommit => 1,
            FaultKind::SealDrain => 2,
            FaultKind::BufferWrite => 3,
            FaultKind::JournalWrite => 4,
            FaultKind::CacheWrite => 5,
            FaultKind::FlashProgram => 6,
            FaultKind::FlashErase => 7,
        }
    }

    /// Short label used in reports, e.g. `"log-append"`.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LogAppend => "log-append",
            FaultKind::TxCommit => "tx-commit",
            FaultKind::SealDrain => "seal-drain",
            FaultKind::BufferWrite => "buffer-write",
            FaultKind::JournalWrite => "journal-write",
            FaultKind::CacheWrite => "cache-write",
            FaultKind::FlashProgram => "flash-program",
            FaultKind::FlashErase => "flash-erase",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared mutable state of an armed plan. Cloning the owning [`FaultPlan`]
/// (which happens whenever an [`crate::MssdConfig`] is cloned into a device
/// component) shares this state, so every component of one device counts
/// into the same sequence.
#[derive(Debug, Default)]
struct FaultState {
    /// The 1-based step ordinal at which power is cut; 0 = count only.
    cut_at: u64,
    /// Total steps observed (including denied post-cut attempts).
    counter: AtomicU64,
    /// Per-kind step counts, indexed by [`FaultKind::index`].
    by_kind: [AtomicU64; 8],
    /// `FaultKind::index() + 1` of the step that tripped the cut (0 = none).
    cut_kind: AtomicUsize,
}

/// A fault-injection plan carried inside [`crate::MssdConfig`].
///
/// * [`FaultPlan::disabled`] (the `Default`) — no counting, no cutting.
/// * [`FaultPlan::count_only`] — counts durability steps; never cuts. Used
///   by the crashkit enumeration driver to size a workload's crash-point
///   space.
/// * [`FaultPlan::cut_at`] — counts and denies the `n`-th step and every
///   step after it (power off).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Option<Arc<FaultState>>,
}

impl FaultPlan {
    /// A plan that observes nothing and never cuts (zero-cost default).
    pub fn disabled() -> Self {
        Self { state: None }
    }

    /// A plan that counts every durability step but never cuts power.
    pub fn count_only() -> Self {
        Self { state: Some(Arc::new(FaultState::default())) }
    }

    /// A plan that cuts power at the `step`-th durability step (1-based):
    /// that step and every later one are denied.
    ///
    /// # Panics
    ///
    /// Panics if `step` is 0 (use [`FaultPlan::count_only`] instead).
    pub fn cut_at(step: u64) -> Self {
        assert!(step > 0, "cut point is 1-based; use count_only() for no cut");
        Self { state: Some(Arc::new(FaultState { cut_at: step, ..Default::default() })) }
    }

    /// Whether this plan observes steps at all.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records one durability-relevant step of the given kind. Returns `true`
    /// when the step may proceed, `false` when power is (now) off and the
    /// mutation must not happen.
    #[inline]
    pub fn step(&self, kind: FaultKind) -> bool {
        let Some(st) = &self.state else { return true };
        let ordinal = st.counter.fetch_add(1, Ordering::SeqCst) + 1;
        st.by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        if st.cut_at != 0 && ordinal >= st.cut_at {
            if ordinal == st.cut_at {
                st.cut_kind.store(kind.index() + 1, Ordering::SeqCst);
            }
            return false;
        }
        true
    }

    /// `true` once the cut point has been reached: power is off and no
    /// further durable mutation may happen.
    #[inline]
    pub fn is_cut(&self) -> bool {
        match &self.state {
            Some(st) => st.cut_at != 0 && st.counter.load(Ordering::SeqCst) >= st.cut_at,
            None => false,
        }
    }

    /// Total durability steps observed so far (the size of the crash-point
    /// space once the workload finished; includes denied post-cut attempts).
    pub fn total_steps(&self) -> u64 {
        self.state.as_ref().map(|st| st.counter.load(Ordering::SeqCst)).unwrap_or(0)
    }

    /// Steps observed of one kind.
    pub fn steps_of(&self, kind: FaultKind) -> u64 {
        self.state.as_ref().map(|st| st.by_kind[kind.index()].load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// The kind of the step that tripped the cut (once it has).
    pub fn cut_kind(&self) -> Option<FaultKind> {
        let st = self.state.as_ref()?;
        let idx = st.cut_kind.load(Ordering::SeqCst);
        (idx > 0).then(|| FaultKind::ALL[idx - 1])
    }
}

/// Two plans are configuration-equal when they are armed the same way; the
/// runtime counters are deliberately ignored so a device config compares
/// equal to its clone mid-run.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        match (&self.state, &other.state) {
            (None, None) => true,
            (Some(a), Some(b)) => a.cut_at == b.cut_at,
            _ => false,
        }
    }
}

/// Media op taxonomy for [`MediaFaultPlan`]: the three NAND operations that
/// can fail on real media.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaOpKind {
    /// A page read (transient: read-disturb / retention bit flips).
    Read,
    /// A page program (permanent: the block is going bad).
    Program,
    /// A block erase (permanent: the block is worn out).
    Erase,
}

impl MediaOpKind {
    /// Stable index of this kind into per-kind counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Configuration of a [`MediaFaultPlan`]: per-op fault rates plus exact op
/// ordinals for bit-exact reproduction of a specific failure.
///
/// All rates are probabilities in `[0, 1]` drawn deterministically from
/// `seed` and the per-kind op ordinal, so the same seed over the same op
/// stream injects the same faults (the crashkit media determinism test pins
/// this). The `fail_*_at` fields are 1-based op ordinals that force a fault
/// at exactly that op regardless of the rates; `0` means "never".
#[derive(Debug, Clone, PartialEq)]
pub struct MediaFaultConfig {
    /// PRNG seed; every injection decision derives from it.
    pub seed: u64,
    /// Per-read probability of a transient raw bit-error event.
    pub read_error_rate: f64,
    /// Additional read-error-rate multiplier per block erase (wear): the
    /// effective rate is `read_error_rate * (1 + wear_factor * erase_count)`,
    /// modelling read-disturb/retention loss growing with block age.
    pub wear_factor: f64,
    /// Probability that a read-error event is *hard*: the retry ladder never
    /// recovers it and the read resolves as a UECC.
    pub hard_read_rate: f64,
    /// Per-program probability of a permanent program failure.
    pub program_fail_rate: f64,
    /// Per-erase probability of a permanent erase failure.
    pub erase_fail_rate: f64,
    /// Force a hard (uncorrectable) read error at this 1-based read ordinal.
    pub fail_read_at: u64,
    /// Force a program failure at this 1-based program ordinal.
    pub fail_program_at: u64,
    /// Force an erase failure at this 1-based erase ordinal.
    pub fail_erase_at: u64,
}

impl Default for MediaFaultConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            read_error_rate: 0.0,
            wear_factor: 0.0,
            hard_read_rate: 0.0,
            program_fail_rate: 0.0,
            erase_fail_rate: 0.0,
            fail_read_at: 0,
            fail_program_at: 0,
            fail_erase_at: 0,
        }
    }
}

/// Shared mutable state of a seeded plan (see [`FaultState`] for the
/// sharing rationale: config clones share one counter sequence per device).
#[derive(Debug)]
struct PlanState<C> {
    cfg: C,
    /// Op ordinals: the media plan keeps one per [`MediaOpKind`], the hang
    /// plan one for all command groups (slot 0).
    ops: [AtomicU64; 3],
    /// Per-kind injected fault counts, indexed by the kind's `index()`.
    injected: [AtomicU64; 3],
    /// Suspension depth: while non-zero every draw returns clean *without*
    /// advancing an ordinal, so crash-image restores and recovery replays
    /// (which redo ops that already happened) neither fault nor perturb the
    /// sequence.
    suspended: AtomicU64,
}

/// The shell both seeded fault plans share: a config `C`, ordinals, injected
/// counts and a suspension depth behind one `Arc`, so cloning the plan (which
/// happens whenever a device config is cloned into a component) shares them
/// and every component of one device draws from the same deterministic
/// sequence. The disabled default costs one `Option` check per draw.
///
/// Determinism holds as for [`FaultPlan`]: with a single-threaded host the
/// ordinals are a pure function of the op stream, so a seed reproduces the
/// exact fault sequence. The two draw rules live with their configs:
/// [`MediaFaultPlan`] draws per NAND op with an ordinal per op kind,
/// [`HangFaultPlan`] per command group with one ordinal.
#[derive(Debug, Clone, Default)]
pub struct SeededPlan<C> {
    state: Option<Arc<PlanState<C>>>,
}

impl<C> SeededPlan<C> {
    /// A plan that injects nothing (zero-cost default).
    pub fn disabled() -> Self {
        Self { state: None }
    }

    /// A plan armed with the given fault model.
    pub fn new(cfg: C) -> Self {
        Self {
            state: Some(Arc::new(PlanState {
                cfg,
                ops: Default::default(),
                injected: Default::default(),
                suspended: AtomicU64::new(0),
            })),
        }
    }

    /// Whether any injection is armed. When `false`, the device skips the
    /// draw and any work that exists only for faults (ECC encode/decode).
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The config and the next 1-based ordinal of counter `slot`, or `None`
    /// when the plan is disabled or suspended (which advances nothing).
    fn draw(&self, slot: usize) -> Option<(&C, u64)> {
        let st = self.state.as_deref()?;
        if st.suspended.load(Ordering::SeqCst) > 0 {
            return None;
        }
        Some((&st.cfg, st.ops[slot].fetch_add(1, Ordering::SeqCst) + 1))
    }

    /// Counts one injected fault of the kind with index `kind`.
    fn injected(&self, kind: usize) {
        if let Some(st) = &self.state {
            st.injected[kind].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Suspends injection: until the matching [`SeededPlan::resume`], every
    /// draw returns clean and advances no ordinal. Used while a crash image
    /// is restored or recovery replays — those ops already happened before
    /// the cut and must neither fault again nor shift the deterministic
    /// sequence. Nestable (depth-counted).
    pub fn suspend(&self) {
        if let Some(st) = &self.state {
            st.suspended.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Re-arms injection after a [`SeededPlan::suspend`].
    pub fn resume(&self) {
        if let Some(st) = &self.state {
            let prev = st.suspended.fetch_sub(1, Ordering::SeqCst);
            debug_assert!(prev > 0, "resume() without matching suspend()");
        }
    }

    fn ops_at(&self, slot: usize) -> u64 {
        self.state.as_ref().map(|st| st.ops[slot].load(Ordering::SeqCst)).unwrap_or(0)
    }

    fn injected_at(&self, kind: usize) -> u64 {
        self.state.as_ref().map(|st| st.injected[kind].load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        let count = |st: &PlanState<C>| st.injected.iter().map(|n| n.load(Ordering::Relaxed)).sum();
        self.state.as_deref().map_or(0, count)
    }
}

/// Two plans are configuration-equal when armed with the same fault model;
/// runtime counters are ignored (same rationale as [`FaultPlan`]'s
/// `PartialEq`).
impl<C: PartialEq> PartialEq for SeededPlan<C> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.state, &other.state) {
            (None, None) => true,
            (Some(a), Some(b)) => a.cfg == b.cfg,
            _ => false,
        }
    }
}

/// SplitMix64: full-avalanche mix used for all injection decisions (and,
/// crate-wide, for any other deterministic seeded draw — retry jitter
/// shares it so one seed fixes a whole run).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a mixed word.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The transient-read-error event drawn for one physical page read.
///
/// Carries everything the FTL's read-retry ladder needs: the initial raw
/// flip count, whether the event is hard (unrecoverable), and the identity
/// `(seed, ordinal)` from which the deterministic flip positions of every
/// retry attempt are derived.
#[derive(Debug, Clone, Copy)]
pub struct ReadFault {
    /// Raw flipped-bit count on the first read attempt.
    pub flips: u32,
    /// Hard event: retries do not reduce the flip count and the read must
    /// resolve as a UECC.
    pub hard: bool,
    /// 1-based read ordinal that drew this event.
    pub ordinal: u64,
    seed: u64,
}

impl ReadFault {
    /// Raw flip count observed on retry `attempt` (0 = the initial read).
    /// Each ladder step models an adjusted-read-voltage retry that halves
    /// the residual raw errors; hard events do not improve.
    pub fn flips_at(&self, attempt: u32) -> u32 {
        if self.hard {
            self.flips
        } else {
            self.flips >> attempt.min(31)
        }
    }

    /// Deterministic distinct bit positions (page-wide, 0-based) flipped on
    /// retry `attempt`. A function of `(seed, ordinal, attempt)` only, so a
    /// re-run with the same plan seed corrupts the same bits.
    pub fn flip_positions(&self, attempt: u32, page_bits: usize) -> Vec<usize> {
        let count = self.flips_at(attempt).min(page_bits as u32) as usize;
        let mut out = Vec::with_capacity(count);
        let mut state = mix64(self.seed ^ self.ordinal.rotate_left(17) ^ (attempt as u64) << 48);
        while out.len() < count {
            state = mix64(state);
            let pos = (state % page_bits as u64) as usize;
            if !out.contains(&pos) {
                out.push(pos);
            }
        }
        out
    }
}

/// Seeded, deterministic NAND media-fault injection, carried inside
/// [`crate::MssdConfig::media`]: one ordinal per [`MediaOpKind`], so a read
/// fault depends only on how many reads came before it.
pub type MediaFaultPlan = SeededPlan<MediaFaultConfig>;

impl MediaFaultPlan {
    /// Convenience: rate-based plan with the given per-op fault rates and
    /// default wear/hard parameters.
    pub fn rates(seed: u64, read: f64, program: f64, erase: f64) -> Self {
        Self::new(MediaFaultConfig {
            seed,
            read_error_rate: read,
            program_fail_rate: program,
            erase_fail_rate: erase,
            ..Default::default()
        })
    }

    /// Draws the transient-fault outcome for one physical page read of a
    /// block with the given `wear` (erase count). Advances the read ordinal;
    /// retries of the same read must reuse the returned [`ReadFault`] rather
    /// than drawing again. Returns `None` when the read is clean.
    pub fn read_fault(&self, wear: u64) -> Option<ReadFault> {
        let (cfg, ordinal) = self.draw(MediaOpKind::Read.index())?;
        let forced = cfg.fail_read_at != 0 && ordinal == cfg.fail_read_at;
        let base = mix64(cfg.seed ^ ordinal.wrapping_mul(0xa076_1d64_78bd_642f));
        let rate = cfg.read_error_rate * (1.0 + cfg.wear_factor * wear as f64);
        if !forced && unit(base) >= rate {
            return None;
        }
        self.injected(MediaOpKind::Read.index());
        let hard = forced || unit(mix64(base ^ 0x5bf0_3635)) < cfg.hard_read_rate;
        // Flip counts stay within the SECDED guarantee (≤ ECC_DETECT = 2):
        // three or more simultaneous flips could alias to a valid single-bit
        // syndrome and miscorrect, which would model silent corruption the
        // device cannot promise to catch. Hard events pin the count at 2 —
        // detected but uncorrectable at every rung of the ladder. Soft
        // events draw 1 or 2 raw flips; a 2-flip event is detected at
        // attempt 0 and resolves on the first retry (2 >> 1 = 1, corrected).
        let flips = if hard {
            crate::ecc::ECC_DETECT
        } else {
            1 + (mix64(base ^ 0x93c4_67e3) % u64::from(crate::ecc::ECC_DETECT)) as u32
        };
        Some(ReadFault { flips, hard, ordinal, seed: cfg.seed })
    }

    /// Draws the outcome for one page program. Returns `true` when the
    /// program permanently fails (the active block must be retired and the
    /// page remapped).
    pub fn program_fails(&self) -> bool {
        self.permanent_fails(MediaOpKind::Program)
    }

    /// Draws the outcome for one block erase. Returns `true` when the erase
    /// permanently fails (the block must be retired).
    pub fn erase_fails(&self) -> bool {
        self.permanent_fails(MediaOpKind::Erase)
    }

    fn permanent_fails(&self, kind: MediaOpKind) -> bool {
        let Some((cfg, ordinal)) = self.draw(kind.index()) else { return false };
        let (rate, forced_at, salt) = match kind {
            MediaOpKind::Program => (cfg.program_fail_rate, cfg.fail_program_at, 0x1d8e_4e27u64),
            MediaOpKind::Erase => (cfg.erase_fail_rate, cfg.fail_erase_at, 0xeb44_accau64),
            MediaOpKind::Read => unreachable!("reads use read_fault()"),
        };
        let forced = forced_at != 0 && ordinal == forced_at;
        let draw = unit(mix64(cfg.seed ^ salt ^ ordinal.wrapping_mul(0xe703_7ed1_a0b4_28db)));
        let fails = forced || draw < rate;
        if fails {
            self.injected(kind.index());
        }
        fails
    }

    /// Ops observed of one kind so far.
    pub fn ops_of(&self, kind: MediaOpKind) -> u64 {
        self.ops_at(kind.index())
    }

    /// Faults injected of one kind so far.
    pub fn injected_of(&self, kind: MediaOpKind) -> u64 {
        self.injected_at(kind.index())
    }
}

/// Fail-slow event taxonomy for [`HangFaultPlan`]: the three ways a host
/// command can hang instead of failing cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HangOpKind {
    /// The command completes, but late: extra latency is charged to the
    /// virtual clock before the completion is delivered.
    Stall,
    /// The command executes but its completion is dropped (or the stall never
    /// resolves): the host only learns its fate through a deadline + abort.
    Loss,
    /// The whole lane stops consuming its submission queue until it is reset.
    Wedge,
}

impl HangOpKind {
    /// Stable index of this kind into per-kind counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Configuration of a [`HangFaultPlan`]: per-command-group hang rates plus
/// exact group ordinals for bit-exact reproduction of a specific hang.
///
/// All rates are probabilities in `[0, 1]` drawn deterministically from
/// `seed` and the command-group ordinal, so the same seed over the same
/// submission stream injects the same hangs (pinned by the crashkit hang
/// determinism test). The `hang_*_at` fields are 1-based group ordinals that
/// force that fault at exactly that group regardless of the rates; `0` means
/// "never".
#[derive(Debug, Clone, PartialEq)]
pub struct HangFaultConfig {
    /// PRNG seed; every injection decision derives from it.
    pub seed: u64,
    /// Per-group probability of a stall (bounded or unbounded extra latency).
    pub stall_rate: f64,
    /// Minimum bounded-stall duration in virtual nanoseconds.
    pub stall_min_ns: u64,
    /// Maximum bounded-stall duration in virtual nanoseconds.
    pub stall_max_ns: u64,
    /// Probability that a drawn stall is *unbounded*: the completion never
    /// arrives on its own and the command resolves only through abort.
    pub unbounded_stall_rate: f64,
    /// Per-group probability that the group executes but its completion is
    /// dropped.
    pub loss_rate: f64,
    /// Per-group probability that the lane wedges (stops consuming its
    /// submission queue until reset).
    pub wedge_rate: f64,
    /// Force a (bounded) stall at this 1-based group ordinal.
    pub hang_stall_at: u64,
    /// Force a lost completion at this 1-based group ordinal.
    pub hang_loss_at: u64,
    /// Force a lane wedge at this 1-based group ordinal.
    pub hang_wedge_at: u64,
}

impl Default for HangFaultConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            stall_rate: 0.0,
            stall_min_ns: 100_000,
            stall_max_ns: 5_000_000,
            unbounded_stall_rate: 0.0,
            loss_rate: 0.0,
            wedge_rate: 0.0,
            hang_stall_at: 0,
            hang_loss_at: 0,
            hang_wedge_at: 0,
        }
    }
}

/// The fail-slow event drawn for one command group about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangFault {
    /// Stall the group. `extra_ns` is the bounded extra virtual latency, or
    /// `None` for an unbounded stall that only an abort resolves.
    Stall {
        /// Bounded extra delay, or `None` when the stall never resolves.
        extra_ns: Option<u64>,
    },
    /// Execute the group but drop its completion(s).
    Loss,
    /// Wedge the lane: the group (and everything behind it) stays in the
    /// submission queue until a lane reset.
    Wedge,
}

/// Seeded, deterministic fail-slow injection, carried inside
/// [`crate::MssdConfig::hang`]: command stalls (bounded or unbounded under
/// the virtual clock), lost completions, and whole-lane wedges. One ordinal
/// counts command groups, whatever fault each drew.
pub type HangFaultPlan = SeededPlan<HangFaultConfig>;

impl HangFaultPlan {
    /// Convenience: rate-based plan with default stall bounds and no forced
    /// ordinals.
    pub fn rates(seed: u64, stall: f64, loss: f64, wedge: f64) -> Self {
        Self::new(HangFaultConfig {
            seed,
            stall_rate: stall,
            loss_rate: loss,
            wedge_rate: wedge,
            ..Default::default()
        })
    }

    /// Draws the fail-slow outcome for one command group about to execute.
    /// Advances the group ordinal; retries of the same group draw again (a
    /// resubmitted command is a new submission as far as the host can tell).
    /// Returns `None` when the group proceeds normally.
    ///
    /// Wedge dominates loss dominates stall: a wedge stops the lane outright,
    /// so drawing the weaker faults for the same group would be unobservable.
    pub fn command_fault(&self) -> Option<HangFault> {
        let (cfg, ordinal) = self.draw(0)?;
        let base = mix64(cfg.seed ^ ordinal.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let forced_wedge = cfg.hang_wedge_at != 0 && ordinal == cfg.hang_wedge_at;
        if forced_wedge || unit(mix64(base ^ 0x7a3d_90e4)) < cfg.wedge_rate {
            self.injected(HangOpKind::Wedge.index());
            return Some(HangFault::Wedge);
        }
        let forced_loss = cfg.hang_loss_at != 0 && ordinal == cfg.hang_loss_at;
        if forced_loss || unit(mix64(base ^ 0x41c6_4e6d)) < cfg.loss_rate {
            self.injected(HangOpKind::Loss.index());
            return Some(HangFault::Loss);
        }
        let forced_stall = cfg.hang_stall_at != 0 && ordinal == cfg.hang_stall_at;
        if forced_stall || unit(mix64(base ^ 0x9e91_26bf)) < cfg.stall_rate {
            self.injected(HangOpKind::Stall.index());
            // Forced stalls are bounded: the repro hook exists to pin a
            // specific late completion, not an abort path.
            let unbounded =
                !forced_stall && unit(mix64(base ^ 0x2f61_3b27)) < cfg.unbounded_stall_rate;
            if unbounded {
                return Some(HangFault::Stall { extra_ns: None });
            }
            let span = cfg.stall_max_ns.saturating_sub(cfg.stall_min_ns);
            let extra = cfg.stall_min_ns.saturating_add(if span > 0 {
                mix64(base ^ 0x5851_f42d) % (span + 1)
            } else {
                0
            });
            return Some(HangFault::Stall { extra_ns: Some(extra) });
        }
        None
    }

    /// Command groups observed so far.
    pub fn ops_total(&self) -> u64 {
        self.ops_at(0)
    }

    /// Hangs injected of one kind so far.
    pub fn injected_of(&self, kind: HangOpKind) -> u64 {
        self.injected_at(kind.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_always_proceeds() {
        let p = FaultPlan::disabled();
        for _ in 0..100 {
            assert!(p.step(FaultKind::LogAppend));
        }
        assert!(!p.is_cut());
        assert_eq!(p.total_steps(), 0);
        assert_eq!(p.cut_kind(), None);
    }

    #[test]
    fn count_only_counts_without_cutting() {
        let p = FaultPlan::count_only();
        for _ in 0..5 {
            assert!(p.step(FaultKind::FlashProgram));
        }
        assert!(p.step(FaultKind::TxCommit));
        assert_eq!(p.total_steps(), 6);
        assert_eq!(p.steps_of(FaultKind::FlashProgram), 5);
        assert_eq!(p.steps_of(FaultKind::TxCommit), 1);
        assert!(!p.is_cut());
    }

    #[test]
    fn cut_denies_the_chosen_step_and_everything_after() {
        let p = FaultPlan::cut_at(3);
        assert!(p.step(FaultKind::LogAppend));
        assert!(p.step(FaultKind::LogAppend));
        assert!(!p.is_cut());
        assert!(!p.step(FaultKind::TxCommit), "the cut step itself is denied");
        assert!(p.is_cut());
        assert!(!p.step(FaultKind::LogAppend), "power stays off");
        assert_eq!(p.cut_kind(), Some(FaultKind::TxCommit));
    }

    #[test]
    fn clones_share_the_counter() {
        let p = FaultPlan::cut_at(2);
        let q = p.clone();
        assert!(p.step(FaultKind::BufferWrite));
        assert!(!q.step(FaultKind::BufferWrite));
        assert!(p.is_cut() && q.is_cut());
    }

    #[test]
    fn config_equality_ignores_runtime_state() {
        let a = FaultPlan::cut_at(7);
        let b = FaultPlan::cut_at(7);
        a.step(FaultKind::LogAppend);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::disabled());
        assert_ne!(FaultPlan::count_only(), FaultPlan::cut_at(1));
        assert_eq!(FaultPlan::disabled(), FaultPlan::default());
    }

    #[test]
    fn kind_indices_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in FaultKind::ALL {
            assert!(seen.insert(kind.index()));
            assert_eq!(FaultKind::ALL[kind.index()], kind);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn disabled_media_plan_injects_nothing() {
        let p = MediaFaultPlan::disabled();
        for _ in 0..100 {
            assert!(p.read_fault(5).is_none());
            assert!(!p.program_fails());
            assert!(!p.erase_fails());
        }
        assert_eq!(p.ops_of(MediaOpKind::Read), 0);
        assert_eq!(p.injected_total(), 0);
        assert!(!p.is_enabled());
    }

    #[test]
    fn media_plan_is_deterministic_per_seed() {
        let run = |seed| {
            let p = MediaFaultPlan::rates(seed, 0.3, 0.1, 0.1);
            let reads: Vec<_> = (0..200)
                .map(|i| p.read_fault(i % 7).map(|f| (f.flips, f.hard, f.ordinal)))
                .collect();
            let progs: Vec<bool> = (0..100).map(|_| p.program_fails()).collect();
            let erases: Vec<bool> = (0..100).map(|_| p.erase_fails()).collect();
            (reads, progs, erases, p.injected_total())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let (_, _, _, injected) = run(42);
        assert!(injected > 0, "rates this high must inject something");
    }

    #[test]
    fn exact_index_triggers_fire_exactly_once() {
        let p = MediaFaultPlan::new(MediaFaultConfig {
            seed: 9,
            fail_read_at: 3,
            fail_program_at: 2,
            fail_erase_at: 1,
            ..Default::default()
        });
        assert!(p.read_fault(0).is_none());
        assert!(p.read_fault(0).is_none());
        let f = p.read_fault(0).expect("forced at ordinal 3");
        assert!(f.hard, "forced read faults are hard");
        assert!(p.read_fault(0).is_none());
        assert!(!p.program_fails());
        assert!(p.program_fails());
        assert!(!p.program_fails());
        assert!(p.erase_fails());
        assert!(!p.erase_fails());
        assert_eq!(p.injected_total(), 3);
    }

    #[test]
    fn read_fault_ladder_halves_soft_flips_and_pins_hard_ones() {
        let soft = ReadFault { flips: 6, hard: false, ordinal: 1, seed: 1 };
        assert_eq!(
            (0..4).map(|a| soft.flips_at(a)).collect::<Vec<_>>(),
            vec![6, 3, 1, 0],
            "soft events decay to within ECC reach"
        );
        let hard = ReadFault { flips: 2, hard: true, ordinal: 1, seed: 1 };
        assert!((0..8).all(|a| hard.flips_at(a) == 2), "hard events never improve");
    }

    #[test]
    fn flip_positions_are_distinct_in_range_and_reproducible() {
        let f = ReadFault { flips: 6, hard: false, ordinal: 77, seed: 1234 };
        for attempt in 0..3 {
            let a = f.flip_positions(attempt, 4096 * 8);
            let b = f.flip_positions(attempt, 4096 * 8);
            assert_eq!(a, b);
            assert_eq!(a.len(), f.flips_at(attempt) as usize);
            let mut dedup = a.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), a.len(), "positions must be distinct");
            assert!(a.iter().all(|&p| p < 4096 * 8));
        }
        assert_ne!(
            f.flip_positions(0, 4096 * 8),
            f.flip_positions(1, 4096 * 8),
            "retries re-read different raw noise"
        );
    }

    #[test]
    fn wear_scales_read_error_rate() {
        let injected_at = |wear: u64| {
            let p = MediaFaultPlan::new(MediaFaultConfig {
                seed: 5,
                read_error_rate: 0.02,
                wear_factor: 1.0,
                ..Default::default()
            });
            for _ in 0..2000 {
                p.read_fault(wear);
            }
            p.injected_of(MediaOpKind::Read)
        };
        assert!(
            injected_at(40) > injected_at(0) * 2,
            "worn blocks must see markedly more read faults"
        );
    }

    #[test]
    fn media_config_equality_ignores_runtime_state() {
        let a = MediaFaultPlan::rates(3, 0.1, 0.0, 0.0);
        let b = MediaFaultPlan::rates(3, 0.1, 0.0, 0.0);
        a.read_fault(0);
        assert_eq!(a, b);
        assert_ne!(a, MediaFaultPlan::rates(4, 0.1, 0.0, 0.0));
        assert_ne!(a, MediaFaultPlan::disabled());
        assert_eq!(MediaFaultPlan::disabled(), MediaFaultPlan::default());
    }

    #[test]
    fn suspended_media_plan_draws_clean_without_advancing_ordinals() {
        // Every op faults when live; none fault and none count while
        // suspended; the ordinal sequence continues as if the suspended
        // window never happened.
        let p = MediaFaultPlan::rates(7, 1.0, 1.0, 1.0);
        assert!(p.read_fault(0).is_some());
        assert!(p.program_fails());
        p.suspend();
        p.suspend(); // nests
        assert!(p.read_fault(0).is_none());
        assert!(!p.program_fails());
        assert!(!p.erase_fails());
        p.resume();
        assert!(p.read_fault(0).is_none());
        p.resume();
        assert_eq!(p.ops_of(MediaOpKind::Read), 1);
        assert_eq!(p.ops_of(MediaOpKind::Program), 1);
        assert_eq!(p.ops_of(MediaOpKind::Erase), 0);
        let f = p.read_fault(0).expect("rate 1.0 always faults");
        assert_eq!(f.ordinal, 2);
        assert!(p.erase_fails());
        // Injected: the two pre-suspend draws, the post-resume read, the
        // erase — and nothing from the suspended window.
        assert_eq!(p.injected_total(), 4);
    }

    #[test]
    fn disabled_hang_plan_injects_nothing() {
        let p = HangFaultPlan::disabled();
        for _ in 0..100 {
            assert_eq!(p.command_fault(), None);
        }
        assert_eq!(p.ops_total(), 0);
        assert_eq!(p.injected_total(), 0);
        assert!(!p.is_enabled());
    }

    #[test]
    fn hang_plan_is_deterministic_per_seed() {
        let run = |seed| {
            let p = HangFaultPlan::rates(seed, 0.2, 0.1, 0.05);
            let draws: Vec<_> = (0..300).map(|_| p.command_fault()).collect();
            (draws, p.injected_total())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let (_, injected) = run(42);
        assert!(injected > 0, "rates this high must inject something");
    }

    #[test]
    fn forced_hang_ordinals_fire_exactly_once() {
        let p = HangFaultPlan::new(HangFaultConfig {
            seed: 9,
            hang_stall_at: 3,
            hang_loss_at: 2,
            hang_wedge_at: 1,
            ..Default::default()
        });
        assert_eq!(p.command_fault(), Some(HangFault::Wedge));
        assert_eq!(p.command_fault(), Some(HangFault::Loss));
        let stall = p.command_fault().expect("forced stall at ordinal 3");
        assert!(
            matches!(stall, HangFault::Stall { extra_ns: Some(_) }),
            "forced stalls are bounded, got {stall:?}"
        );
        assert_eq!(p.command_fault(), None);
        assert_eq!(p.injected_total(), 3);
        assert_eq!(p.injected_of(HangOpKind::Stall), 1);
        assert_eq!(p.injected_of(HangOpKind::Loss), 1);
        assert_eq!(p.injected_of(HangOpKind::Wedge), 1);
    }

    #[test]
    fn stall_durations_stay_in_bounds() {
        let p = HangFaultPlan::new(HangFaultConfig {
            seed: 11,
            stall_rate: 1.0,
            stall_min_ns: 500,
            stall_max_ns: 900,
            ..Default::default()
        });
        for _ in 0..200 {
            match p.command_fault() {
                Some(HangFault::Stall { extra_ns: Some(ns) }) => {
                    assert!((500..=900).contains(&ns), "stall of {ns}ns out of bounds");
                }
                other => panic!("stall rate 1.0 must always stall, got {other:?}"),
            }
        }
    }

    #[test]
    fn unbounded_stall_rate_marks_stalls_open_ended() {
        let p = HangFaultPlan::new(HangFaultConfig {
            seed: 13,
            stall_rate: 1.0,
            unbounded_stall_rate: 1.0,
            ..Default::default()
        });
        assert_eq!(p.command_fault(), Some(HangFault::Stall { extra_ns: None }));
        assert_eq!(p.injected_of(HangOpKind::Stall), 1);
    }

    #[test]
    fn hang_config_equality_ignores_runtime_state() {
        let a = HangFaultPlan::rates(3, 0.1, 0.0, 0.0);
        let b = HangFaultPlan::rates(3, 0.1, 0.0, 0.0);
        a.command_fault();
        assert_eq!(a, b);
        assert_ne!(a, HangFaultPlan::rates(4, 0.1, 0.0, 0.0));
        assert_ne!(a, HangFaultPlan::disabled());
        assert_eq!(HangFaultPlan::disabled(), HangFaultPlan::default());
    }

    #[test]
    fn suspended_hang_plan_draws_clean_without_advancing_ordinals() {
        let p = HangFaultPlan::rates(7, 1.0, 0.0, 0.0);
        assert!(p.command_fault().is_some());
        p.suspend();
        p.suspend(); // nests
        assert_eq!(p.command_fault(), None);
        assert_eq!(p.command_fault(), None);
        p.resume();
        assert_eq!(p.command_fault(), None);
        p.resume();
        assert_eq!(p.ops_total(), 1);
        assert!(p.command_fault().is_some());
        assert_eq!(p.ops_total(), 2);
        assert_eq!(p.injected_total(), 2);
    }
}
