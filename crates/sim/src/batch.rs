//! Batched structure-of-arrays trial engine.
//!
//! The checkpoint engine (`crate::checkpoint`) removed the fault-free
//! *prefix* from each trial, but still pays the fetch/decode/schedule/
//! stall/cache bookkeeping once **per trial** for the suffix — even
//! though every trial executes the same instruction stream until its
//! injection, and usually the same stream after it too (most flips
//! never change control flow or an address; they only change *values*).
//! This module is the software analogue of ELZAR's data-parallel
//! redundancy: step N trials ("lanes") in **lockstep** over one shared
//! decoded stream from a shared checkpoint and pay the per-instruction
//! structural work once per batch.
//!
//! ## The lane model
//!
//! A [`BatchState`] runs one **leader** — a full [`MachineState`]
//! restored from a golden checkpoint, replaying the fault-free run
//! exactly — plus N lanes in structure-of-arrays form. The key
//! observation is that a faulty run is split into *structural* state
//! (control position, stall/issue timing, the scoreboard, cache and
//! MSHR state, memory **addresses**) and *value* state (register
//! contents, memory contents, emitted values). As long as a lane's
//! structural signals equal the leader's, its structural state **is**
//! the leader's — shared, paid once — and the lane carries only value
//! state: a register file, a memory image, its emitted-stream
//! divergence flag, and O(1) difference tracking against the leader.
//!
//! Lanes are *virtual* until their injection lands: a virtual lane is
//! bit-identical to the leader by construction and costs nothing per
//! instruction. When the shared dynamic-instruction counter reaches a
//! lane's injection site (with the exact sliding rule of
//! `machine::run_machine`), the lane materializes — an empty **sparse
//! overlay** over the leader holding just the flipped victim bit, no
//! register-file or memory clone — and from then on executes value
//! work only where it actually differs, while the leader supplies
//! structure. An inverted register→lanes index picks out, per bundle,
//! exactly the lanes whose differing registers or memory words the
//! bundle touches; every other live lane is skipped wholesale, so the
//! per-instruction cost scales with how much divergent state the
//! faults actually created, not with batch width or program size.
//!
//! ## Divergence and retirement
//!
//! At each instruction every live lane's structural signals are
//! compared against the leader:
//!
//! * branch direction (`br.cond` predicate) differs → the lane's
//!   control flow leaves the shared stream: retire as
//!   [`LaneVerdict::Diverged`]; the caller replays that one trial on
//!   the exact checkpoint/replay path.
//! * memory **address** differs (load or store) → cache timing, MSHR
//!   occupancy and trap behaviour may differ: retire as `Diverged`.
//! * a pure op faults (e.g. divide by zero) where the leader did not →
//!   the lane's run ends in the exception class right here (values up
//!   to this point are exact): retire as [`LaneVerdict::Exception`].
//! * a detection check fires (`br.detect` / `chk.ne`) → retire as
//!   [`LaneVerdict::Detected`] at end of bundle, exactly where
//!   `run_machine` stops a detected run.
//! * a majority `vote` (TMRED) reads a differing copy → the lane does
//!   **not** retire: it votes natively, with `run_machine`'s exact
//!   correction rule (copies not all bit-equal), marks itself
//!   *corrected*, and writes the majority back through the overlay. An
//!   out-voted strike thus leaves the def equal to the leader's, clears
//!   its diff bit, and the lane goes on to converge. A corrected lane
//!   that finishes with golden output (converged, or halted
//!   bit-matching) retires [`LaneVerdict::Corrected`]. Golden runs
//!   never vote a correction, so lanes whose vote operands equal the
//!   leader's never need to count one. Under RBED a voted value that
//!   differs from the leader's still retires `Diverged`.
//! * the lane's value state re-equals the leader's (no differing
//!   register, no differing memory word, no emitted divergence, equal
//!   pending halt) → the remainder of the run is provably identical to
//!   golden: retire as [`LaneVerdict::Converged`] (Benign, or
//!   `Corrected` after a vote correction). This is
//!   the batch engine's O(1) analogue of the checkpoint engine's
//!   fingerprint pruning — maintained incrementally at writeback, no
//!   hashing at all.
//! * the leader halts → every surviving lane halts at the same bundle;
//!   each retires [`LaneVerdict::Halted`] carrying whether its exit
//!   code and full output stream bit-match the golden run.
//! * the shared cycle passes the watchdog → every surviving lane times
//!   out exactly where its own full run would: [`LaneVerdict::Timeout`].
//!
//! ## Why tallies stay byte-identical
//!
//! Classification (`casted_faults::classify`) looks only at the stop
//! reason, the exit code, bit-equality of the output stream and
//! whether any vote corrected. For a
//! lane that stays structurally convergent, the lockstep execution
//! computes the *exact* values its full run would compute (same
//! operands read under the same VLIW two-phase read rule, same
//! writeback order, same memory), so Halted/Detected/Exception/Timeout
//! verdicts map to exactly the class a from-scratch simulation
//! produces, and Converged lanes are provably Benign. Every vote whose
//! operands differ from the leader's is evaluated in the lane, so the
//! lane's corrected flag is exactly "its run counted a correction",
//! and Corrected lanes are provably Corrected. A lane that
//! diverges structurally is never classified here — it is handed back
//! whole to `replay_trial`, which is property-tested bit-identical to
//! a from-scratch run. `prop_batch.rs` pins the whole equivalence,
//! including injections landing exactly on checkpoint boundaries.

use std::collections::HashMap;

use casted_ir::interp::OutVal;
use casted_ir::semantics::{eval_cmp_vals, eval_pure, Val};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{CmpKind, Opcode, Operand, Reg, RegClass};

use crate::checkpoint::GoldenTrace;
use crate::machine::{vote_corrects, Injection, MachineState};

/// Default number of lanes stepped together by the batched campaign
/// engine. Virtual and skipped lanes are free, so wider batches
/// amortize the leader's structural pass further — but a campaign runs
/// its batches on the `casted_util` pool, so a width near the trial
/// count leaves pool workers idle. The `bench_faults` lane sweep (300
/// trials per campaign) is not monotone: on a 2-vCPU host it peaks at
/// 64 lanes and falls at 150 and 300 (see docs/PERFORMANCE.md). The
/// cap exists to bound per-batch memory and to leave a multi-core
/// campaign pool more than one chunk to run.
pub const DEFAULT_LANE_WIDTH: usize = 256;

/// How one lane left the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneVerdict {
    /// The lane ran to the program's halt in lockstep.
    /// `matches_golden` is true iff its exit code equals the golden
    /// exit code **and** its full output stream is bit-equal to the
    /// golden stream — i.e. the trial is Benign; otherwise the fault
    /// silently corrupted data.
    Halted {
        /// Exit code and full output stream bit-match the golden run.
        matches_golden: bool,
    },
    /// The lane's value state re-converged with the leader after the
    /// injection: the remainder of the run is provably the golden
    /// remainder, the trial is Benign.
    Converged,
    /// The lane finished with the golden output — it converged, or
    /// halted with exit code and output stream bit-matching golden —
    /// after at least one majority vote out-voted a differing copy: the
    /// scheme repaired the strike, the trial is Corrected.
    Corrected,
    /// A detection check fired in this lane (`br.detect` / `chk.ne`).
    Detected,
    /// A pure op faulted in this lane (e.g. divide by zero) at a point
    /// where all values are exact.
    Exception,
    /// The shared cycle count passed the watchdog with the lane still
    /// live — its own run times out at exactly the same bundle.
    Timeout,
    /// The lane diverged *structurally* from the leader (branch
    /// direction, memory address, or the leader itself stopped
    /// abnormally). The batch proves nothing about it; the caller must
    /// replay this one trial via `replay_trial`.
    Diverged,
}

/// Work accounting for one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Lanes launched.
    pub lanes: u64,
    /// Leader bundles executed (the shared, paid-once work).
    pub bundles_stepped: u64,
    /// Per-lane per-instruction value steps actually performed
    /// (materialized live lanes only — virtual lanes are free).
    pub lane_insn_steps: u64,
    /// Lanes retired as [`LaneVerdict::Diverged`].
    pub divergences: u64,
    /// Lanes retired as [`LaneVerdict::Converged`].
    pub retired_converged: u64,
    /// Lanes retired as [`LaneVerdict::Corrected`].
    pub retired_corrected: u64,
    /// Lanes retired as [`LaneVerdict::Halted`].
    pub retired_finished: u64,
    /// Lanes retired as [`LaneVerdict::Detected`].
    pub retired_detected: u64,
    /// Lanes retired as [`LaneVerdict::Exception`].
    pub retired_exception: u64,
    /// Lanes retired as [`LaneVerdict::Timeout`].
    pub retired_timeout: u64,
    /// Golden-prefix instructions skipped via the shared checkpoint,
    /// summed over lanes (the fast-forward saving, batch-shared).
    pub skipped_insns: u64,
}

impl BatchStats {
    /// Fold another batch's accounting into this one (campaigns sum
    /// the stats of every batch they ran).
    pub fn accumulate(&mut self, other: BatchStats) {
        self.lanes += other.lanes;
        self.bundles_stepped += other.bundles_stepped;
        self.lane_insn_steps += other.lane_insn_steps;
        self.divergences += other.divergences;
        self.retired_converged += other.retired_converged;
        self.retired_corrected += other.retired_corrected;
        self.retired_finished += other.retired_finished;
        self.retired_detected += other.retired_detected;
        self.retired_exception += other.retired_exception;
        self.retired_timeout += other.retired_timeout;
        self.skipped_insns += other.skipped_insns;
    }

    fn count_retire(&mut self, v: LaneVerdict) {
        match v {
            LaneVerdict::Halted { .. } => self.retired_finished += 1,
            LaneVerdict::Converged => self.retired_converged += 1,
            LaneVerdict::Corrected => self.retired_corrected += 1,
            LaneVerdict::Detected => self.retired_detected += 1,
            LaneVerdict::Exception => self.retired_exception += 1,
            LaneVerdict::Timeout => self.retired_timeout += 1,
            LaneVerdict::Diverged => self.divergences += 1,
        }
    }
}

/// Bit-exact value equality (the same relation `OutVal::bit_eq` and
/// the classifier use: floats compare as IEEE-754 bit patterns, so a
/// NaN equals itself and `-0.0 != 0.0`).
#[inline]
fn val_bits_eq(a: Val, b: Val) -> bool {
    match (a, b) {
        (Val::I(x), Val::I(y)) => x == y,
        (Val::F(x), Val::F(y)) => x.to_bits() == y.to_bits(),
        (Val::B(x), Val::B(y)) => x == y,
        _ => false,
    }
}

/// Splitmix-style 64-bit mixer for the per-lane memory overlays: the
/// keys are word addresses (low entropy), the maps are tiny and hit
/// on almost every probe, so a one-round avalanche beats SipHash by a
/// wide margin and collision quality is ample.
#[derive(Default, Clone)]
struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        let mut x = v as u64 ^ self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type MemMap = HashMap<i64, i64, std::hash::BuildHasherDefault<MixHasher>>;

/// Per-class bitmask of registers where a lane currently differs from
/// the leader, plus a popcount — the O(1) convergence tracker.
#[derive(Clone, Debug, Default)]
struct RegDiff {
    gp: Vec<u64>,
    fp: Vec<u64>,
    pr: Vec<u64>,
    count: u32,
}

impl RegDiff {
    fn sized(func: &casted_ir::Function) -> Self {
        let words = |n: u32| vec![0u64; (n as usize + 63) / 64];
        RegDiff {
            gp: words(func.reg_count(RegClass::Gp)),
            fp: words(func.reg_count(RegClass::Fp)),
            pr: words(func.reg_count(RegClass::Pr)),
            count: 0,
        }
    }

    #[inline]
    fn set(&mut self, r: Reg, differs: bool) {
        let bits = match r.class {
            RegClass::Gp => &mut self.gp,
            RegClass::Fp => &mut self.fp,
            RegClass::Pr => &mut self.pr,
        };
        let (w, m) = (r.index as usize / 64, 1u64 << (r.index % 64));
        let was = bits[w] & m != 0;
        if differs && !was {
            bits[w] |= m;
            self.count += 1;
        } else if !differs && was {
            bits[w] &= !m;
            self.count -= 1;
        }
    }

    #[inline]
    fn get(&self, r: Reg) -> bool {
        let bits = match r.class {
            RegClass::Gp => &self.gp,
            RegClass::Fp => &self.fp,
            RegClass::Pr => &self.pr,
        };
        bits[r.index as usize / 64] & (1u64 << (r.index % 64)) != 0
    }
}

/// Lifecycle of one lane inside the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaneStatus {
    /// Injection not landed yet: the lane is bit-identical to the
    /// leader and carries no state of its own.
    Virtual,
    /// Injection landed: the lane carries value state and is stepped.
    Live,
    /// Retired with a verdict.
    Done,
}

/// N trials in structure-of-arrays form, stepped in lockstep over one
/// shared instruction stream by a leader [`MachineState`] (see the
/// module docs for the model). Lane state lives in parallel arrays
/// indexed by lane: one array per field, not one struct per lane, so
/// the per-instruction sweep over live lanes walks dense homogeneous
/// storage.
///
/// A lane's value state is a **sparse overlay** on the leader: the
/// [`RegDiff`] bitmask says *which* registers differ, `reg_over`
/// holds their values, and `mem_over` holds the differing memory
/// words. Everything not in the overlay equals the leader bit for
/// bit, so a lane instruction whose operands are all overlay-free is
/// (for a pure op) guaranteed to reproduce the leader's result and
/// costs only a couple of bitmask tests — the per-lane cost scales
/// with how much of the machine the fault has touched, not with
/// program size. It also makes materialization O(1): no register-file
/// or memory clone, just the flipped victim dropped into an empty
/// overlay.
pub struct BatchState<'a> {
    sp: &'a ScheduledProgram,
    /// The shared structural machine, replaying the golden run.
    leader: MachineState,
    max_cycles: u64,
    /// The campaign runs under an RBED digest plan. The digest absorbs
    /// every retired computed value (loads, pure results, stored
    /// values, emitted values), so a lane computing *any* value that
    /// differs from the leader's would diverge its digest from the
    /// golden digests — a condition the verdict vocabulary cannot
    /// carry (the real run may Detect at a later chunk boundary even
    /// after the value state re-converges). Such lanes retire
    /// [`LaneVerdict::Diverged`] and are replayed exactly; lanes whose
    /// computed values all equal the leader's have the golden digest
    /// by construction and every other verdict stays sound.
    rbed: bool,
    // ---- per-lane arrays (SoA), in ascending-injection-site order ----
    inj: Vec<Injection>,
    /// Caller-side lane index (verdicts are reported in caller order).
    orig: Vec<usize>,
    status: Vec<LaneStatus>,
    /// Per-lane flat-indexed register values, valid only where the
    /// lane's [`RegDiff`] bit is set (dense so reads and writes are
    /// plain indexing, no hashing; allocated when the lane
    /// materializes, freed when it retires).
    reg_over: Vec<Vec<Val>>,
    /// Raw bits of the memory words where the lane differs from the
    /// leader (the word layout `Memory` itself uses).
    mem_over: Vec<MemMap>,
    /// Per-lane phase-1 operand overrides for the current bundle:
    /// `(operand slot, lane value)` for the operands whose register is
    /// in the overlay, captured at the bundle's parallel read.
    ovr: Vec<Vec<(u32, Val)>>,
    reg_diff: Vec<RegDiff>,
    /// Inverted index: for each register (flat-indexed), the lanes
    /// whose diff bit for it is (or recently was) set. Entries are
    /// purged lazily on scan, so a bundle visits only the lanes that
    /// actually differ on the registers it reads or writes.
    lanes_with_reg: Vec<Vec<u32>>,
    /// Lanes whose `mem_over` is (or recently was) non-empty.
    lanes_with_mem: Vec<u32>,
    /// Per-lane stamp deduplicating the per-bundle active set.
    mark: Vec<u64>,
    stamp: u64,
    /// Flat register indexing: `gp | fp + fp_base | pr + pr_base`.
    fp_base: u32,
    pr_base: u32,
    total_regs: u32,
    stream_differs: Vec<bool>,
    detect: Vec<bool>,
    /// A vote in this lane out-voted a differing copy (`run_machine`
    /// would have counted a correction).
    corrected: Vec<bool>,
    halt: Vec<Option<i64>>,
    verdicts: Vec<Option<LaneVerdict>>,
    /// Next virtual lane (lanes materialize in ascending-site order).
    cursor: usize,
    /// Indices of `Live` lanes, purged lazily: per-instruction work
    /// scales with how many lanes are actually live, not with batch
    /// width, so virtual and retired lanes cost nothing per step.
    live_list: Vec<usize>,
    live: usize,
    /// Count of lanes currently `Live` (materialized, not retired).
    /// While it is zero — the common case in detect-heavy cells, where
    /// lanes retire within a few bundles of materializing — the whole
    /// per-bundle index scan and override build is skipped.
    materialized_live: usize,
    stats: BatchStats,
}

impl<'a> BatchState<'a> {
    /// Set up a batch of `injections.len()` lanes over the checkpoint
    /// at `ckpt_idx` of `trace` (clamped; an out-of-range or absent
    /// checkpoint falls back to the power-on state, so a degenerate
    /// trace with no snapshots still batches correctly).
    pub fn new(
        sp: &'a ScheduledProgram,
        trace: &GoldenTrace,
        ckpt_idx: usize,
        injections: &[Injection],
        max_cycles: u64,
    ) -> Self {
        let leader = trace
            .checkpoint(ckpt_idx)
            .cloned()
            .unwrap_or_else(|| MachineState::fresh(sp));
        let n = injections.len();
        let func = sp.module.entry_fn();
        let gp = func.reg_count(RegClass::Gp);
        let fp = func.reg_count(RegClass::Fp);
        let pr = func.reg_count(RegClass::Pr);
        // Ascending-site order: lanes materialize monotonically as the
        // shared dynamic-instruction counter advances, so the virtual
        // set is always the suffix `[cursor..]`.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (injections[i].at_dyn_insn, i));
        let inj: Vec<Injection> = order.iter().map(|&i| injections[i]).collect();
        let stats = BatchStats {
            lanes: n as u64,
            skipped_insns: leader.stats.dyn_insns.saturating_mul(n as u64),
            ..BatchStats::default()
        };
        BatchState {
            sp,
            leader,
            max_cycles,
            rbed: trace.rbed_active(),
            inj,
            orig: order,
            status: vec![LaneStatus::Virtual; n],
            reg_over: vec![Vec::new(); n],
            mem_over: vec![MemMap::default(); n],
            ovr: vec![Vec::new(); n],
            reg_diff: vec![RegDiff::default(); n],
            lanes_with_reg: vec![Vec::new(); (gp + fp + pr) as usize],
            lanes_with_mem: Vec::new(),
            mark: vec![0; n],
            stamp: 0,
            fp_base: gp,
            pr_base: gp + fp,
            total_regs: gp + fp + pr,
            stream_differs: vec![false; n],
            detect: vec![false; n],
            corrected: vec![false; n],
            halt: vec![None; n],
            verdicts: vec![None; n],
            cursor: 0,
            live_list: Vec::new(),
            live: n,
            materialized_live: 0,
            stats,
        }
    }

    /// Work accounting so far (complete once [`BatchState::run`] has
    /// returned).
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    fn retire(&mut self, lane: usize, v: LaneVerdict) {
        debug_assert!(self.verdicts[self.orig[lane]].is_none());
        self.verdicts[self.orig[lane]] = Some(v);
        if self.status[lane] == LaneStatus::Live {
            self.materialized_live -= 1;
        }
        self.status[lane] = LaneStatus::Done;
        self.stats.count_retire(v);
        self.live -= 1;
        // Drop the lane's overlay state eagerly so a long-running
        // batch never holds retired lanes' maps.
        self.reg_over[lane] = Vec::new();
        self.mem_over[lane] = MemMap::default();
        self.ovr[lane] = Vec::new();
        self.reg_diff[lane] = RegDiff::default();
    }

    #[inline]
    fn flat(&self, r: Reg) -> usize {
        (match r.class {
            RegClass::Gp => r.index,
            RegClass::Fp => self.fp_base + r.index,
            RegClass::Pr => self.pr_base + r.index,
        }) as usize
    }

    /// Write a lane's defined register: record it in the overlay when
    /// it differs from the leader's value, drop it out when it equals
    /// it (the invariant: overlay membership == diff bit set). A 0→1
    /// diff transition also registers the lane in the inverted index;
    /// 1→0 entries are purged lazily at the next scan of that list.
    #[inline]
    fn set_lane_def(&mut self, lane: usize, d: Reg, v: Val, leader_v: Val) {
        if val_bits_eq(v, leader_v) {
            if self.reg_diff[lane].get(d) {
                self.reg_diff[lane].set(d, false);
            }
        } else {
            let ri = self.flat(d);
            if !self.reg_diff[lane].get(d) {
                self.lanes_with_reg[ri].push(lane as u32);
            }
            self.reg_over[lane][ri] = v;
            self.reg_diff[lane].set(d, true);
        }
    }

    /// Add to `active` (stamp-deduped) every live lane whose diff bit
    /// for `r` is set, compacting stale index entries on the way.
    fn collect_reg_lanes(&mut self, r: Reg, active: &mut Vec<usize>) {
        let ri = self.flat(r);
        let mut i = 0;
        while i < self.lanes_with_reg[ri].len() {
            let lane = self.lanes_with_reg[ri][i] as usize;
            if self.status[lane] != LaneStatus::Live || !self.reg_diff[lane].get(r) {
                self.lanes_with_reg[ri].swap_remove(i);
                continue;
            }
            i += 1;
            if self.mark[lane] != self.stamp {
                self.mark[lane] = self.stamp;
                active.push(lane);
            }
        }
    }

    /// Same for the lanes holding differing memory words.
    fn collect_mem_lanes(&mut self, active: &mut Vec<usize>) {
        let mut i = 0;
        while i < self.lanes_with_mem.len() {
            let lane = self.lanes_with_mem[i] as usize;
            if self.status[lane] != LaneStatus::Live || self.mem_over[lane].is_empty() {
                self.lanes_with_mem.swap_remove(i);
                continue;
            }
            i += 1;
            if self.mark[lane] != self.stamp {
                self.mark[lane] = self.stamp;
                active.push(lane);
            }
        }
    }

    /// Verdict for a lane whose memory address differs from the
    /// leader's. Lane values are exact and lane timing has equalled
    /// leader timing so far (same instruction sequence, same
    /// addresses), so if the lane's own memory rejects the address its
    /// run traps at exactly this dynamic instruction: `Exception`,
    /// with nothing left to prove. A differing address that is *in*
    /// bounds perturbs future cache/MSHR timing instead — the batch
    /// proves nothing about that lane and the caller must replay it.
    fn addr_divergence(&self, addr: i64) -> LaneVerdict {
        // Lane memory has the leader's geometry by construction (same
        // module, fixed word count); only contents can differ.
        let words = self.leader.mem.len_words();
        if casted_ir::semantics::check_addr(addr, words).is_err() {
            LaneVerdict::Exception
        } else {
            LaneVerdict::Diverged
        }
    }

    /// Retire every not-yet-retired lane with `v` (watchdog, leader
    /// halt fallthrough, or abnormal leader stop).
    fn retire_all_live(&mut self, v: LaneVerdict) {
        for lane in 0..self.inj.len() {
            if self.status[lane] != LaneStatus::Done {
                self.retire(lane, v);
            }
        }
    }

    /// Step every lane to retirement. Verdicts are returned in the
    /// caller's lane order (the order of `injections` passed to
    /// [`BatchState::new`]).
    pub fn run(mut self) -> (Vec<LaneVerdict>, BatchStats) {
        let sp = self.sp;
        let func = sp.module.entry_fn();
        let config = &sp.config;
        let delay = config.inter_cluster_delay as u64;
        let lat = &config.latency;
        let n = self.inj.len();

        // Leader-side phase-1 buffers, mirrored from `run_machine`.
        let mut val_buf: Vec<Val> = Vec::with_capacity(64);
        // Scratch for a lane's operand values on the slow path.
        let mut lane_scratch: Vec<Val> = Vec::with_capacity(8);
        // Lanes this bundle can actually affect (rebuilt per bundle):
        // a lane steps a bundle only if the bundle reads or redefines
        // one of its differing registers, touches memory while the
        // lane has differing words, or halts. Everything else is a
        // no-op on the lane's overlay and is skipped wholesale.
        let mut active_lanes: Vec<usize> = Vec::new();
        let mut meta_buf: Vec<(casted_ir::Cluster, casted_ir::InsnId, u32, u32)> =
            Vec::with_capacity(16);

        'outer: while self.live > 0 {
            let sb = &sp.blocks[self.leader.block.index()];

            while self.leader.bundle_idx < sb.bundles.len() {
                if self.live == 0 {
                    break 'outer;
                }
                let bundle = &sb.bundles[self.leader.bundle_idx];
                if self.leader.cycle > self.max_cycles {
                    // The cycle count is structural (shared): every
                    // surviving lane's own run hits the watchdog at
                    // exactly this bundle.
                    self.retire_all_live(LaneVerdict::Timeout);
                    break 'outer;
                }

                // ---- stall until every operand is usable (shared) ----
                let st = &mut self.leader;
                let mut issue = st.cycle;
                for (cluster, iid) in bundle.iter() {
                    let insn = func.insn(iid);
                    for r in insn.reg_uses() {
                        let (mut avail, writer) = st.ready.get(r);
                        if writer != cluster.0 {
                            avail += delay;
                            st.stats.cross_reads += 1;
                        }
                        issue = issue.max(avail);
                    }
                }
                st.stats.stall_cycles += issue - st.cycle;
                st.stats.bundles += 1;
                self.stats.bundles_stepped += 1;

                // ---- phase 1: VLIW parallel operand read ----
                // The leader reads its registers; every live lane
                // reads the same operand list from its own registers.
                // Values written later in this bundle are *not* seen —
                // exactly `run_machine`'s two-phase rule.
                val_buf.clear();
                meta_buf.clear();
                let mut bundle_has_mem = false;
                let mut bundle_has_halt = false;
                for (cluster, iid) in bundle.iter() {
                    let insn = func.insn(iid);
                    match insn.op {
                        Opcode::Load | Opcode::FLoad | Opcode::Store | Opcode::FStore => {
                            bundle_has_mem = true;
                        }
                        Opcode::Halt => bundle_has_halt = true,
                        _ => {}
                    }
                    let off = val_buf.len() as u32;
                    for o in &insn.uses {
                        val_buf.push(match o {
                            Operand::Reg(r) => self.leader.rf.get(*r),
                            Operand::Imm(v) => Val::I(*v),
                            Operand::FImm(v) => Val::F(*v),
                        });
                    }
                    meta_buf.push((cluster, iid, off, insn.uses.len() as u32));
                }
                // A lane is *active* this bundle iff the bundle reads
                // or redefines one of its differing registers, touches
                // memory while it holds differing words, or halts —
                // found through the inverted index, so lanes the
                // bundle cannot affect cost nothing at all.
                self.stamp += 1;
                active_lanes.clear();
                if self.materialized_live > 0 {
                    for (_c, iid) in bundle.iter() {
                        let insn = func.insn(iid);
                        for o in &insn.uses {
                            if let Operand::Reg(r) = o {
                                self.collect_reg_lanes(*r, &mut active_lanes);
                            }
                        }
                        for &d in &insn.defs {
                            self.collect_reg_lanes(d, &mut active_lanes);
                        }
                    }
                    if bundle_has_mem {
                        self.collect_mem_lanes(&mut active_lanes);
                    }
                    if bundle_has_halt {
                        let mut li = 0;
                        while li < self.live_list.len() {
                            let lane = self.live_list[li];
                            if self.status[lane] != LaneStatus::Live {
                                self.live_list.swap_remove(li);
                                continue;
                            }
                            li += 1;
                            if self.mark[lane] != self.stamp {
                                self.mark[lane] = self.stamp;
                                active_lanes.push(lane);
                            }
                        }
                    }
                    // Phase-1 operand overrides, active lanes only (a
                    // skipped lane has none by construction).
                    for &lane in &active_lanes {
                        self.ovr[lane].clear();
                        if self.reg_diff[lane].count == 0 {
                            continue;
                        }
                        let mut s = 0u32;
                        for (_c, iid) in bundle.iter() {
                            for o in &func.insn(iid).uses {
                                if let Operand::Reg(r) = o {
                                    if self.reg_diff[lane].get(*r) {
                                        let ri = self.flat(*r);
                                        let v = self.reg_over[lane][ri];
                                        self.ovr[lane].push((s, v));
                                    }
                                }
                                s += 1;
                            }
                        }
                    }
                }

                // ---- phase 2: execute and write back, leader first ----
                for k in 0..meta_buf.len() {
                    let (cluster, iid, off, len) = meta_buf[k];
                    let range = off as usize..(off + len) as usize;
                    let insn = func.insn(iid);
                    let st = &mut self.leader;
                    st.stats.dyn_insns += 1;
                    st.stats.per_cluster[cluster.index()] += 1;
                    let dyn_insns = st.stats.dyn_insns;

                    // Leader-side structural facts of this insn,
                    // compared against each lane below.
                    let mut leader_addr: Option<i64> = None;
                    let mut leader_def: Option<(Reg, Val, u32)> = None;
                    let mut leader_pred: Option<bool> = None;
                    let mut leader_out: Option<OutVal> = None;

                    {
                        let vals = &val_buf[range.clone()];
                        match insn.op {
                            Opcode::Load | Opcode::FLoad => {
                                let addr = vals[0].as_i().wrapping_add(insn.imm);
                                leader_addr = Some(addr);
                                let loaded = if insn.op == Opcode::Load {
                                    st.mem.load_int(addr).map(Val::I)
                                } else {
                                    st.mem.load_float(addr).map(Val::F)
                                };
                                match loaded {
                                    Ok(v) => {
                                        let mut l =
                                            st.cache.access(addr as u64).max(lat.load_hit);
                                        let l1_lat = config
                                            .cache_levels
                                            .first()
                                            .map(|c| c.latency)
                                            .unwrap_or(lat.load_hit);
                                        if l > l1_lat {
                                            st.mshr.retain(|&c| c > issue);
                                            if st.mshr.len() >= config.mshr_entries {
                                                if let Some(&min) = st.mshr.iter().min() {
                                                    l += (min.saturating_sub(issue)) as u32;
                                                }
                                            }
                                            st.mshr.push(issue + l as u64);
                                        }
                                        st.rf.set(insn.defs[0], v);
                                        st.ready
                                            .set(insn.defs[0], issue + l as u64, cluster.0);
                                        leader_def = Some((insn.defs[0], v, l));
                                    }
                                    Err(_) => {
                                        // The leader is the golden
                                        // replay; it cannot trap unless
                                        // the trace itself is abnormal.
                                        // Prove nothing: replay them all.
                                        self.retire_all_live(LaneVerdict::Diverged);
                                        break 'outer;
                                    }
                                }
                            }
                            Opcode::Store | Opcode::FStore => {
                                let addr = vals[0].as_i().wrapping_add(insn.imm);
                                leader_addr = Some(addr);
                                let res = match insn.op {
                                    Opcode::Store => st.mem.store_int(addr, vals[1].as_i()),
                                    _ => st.mem.store_float(addr, vals[1].as_f()),
                                };
                                match res {
                                    Ok(()) => {
                                        st.cache.access(addr as u64);
                                    }
                                    Err(_) => {
                                        self.retire_all_live(LaneVerdict::Diverged);
                                        break 'outer;
                                    }
                                }
                            }
                            Opcode::Out => {
                                let v = OutVal::Int(vals[0].as_i());
                                st.stream.push(v);
                                leader_out = Some(v);
                            }
                            Opcode::FOut => {
                                let v = OutVal::Float(vals[0].as_f());
                                st.stream.push(v);
                                leader_out = Some(v);
                            }
                            Opcode::Br => st.next_block = insn.target,
                            Opcode::BrCond => {
                                let p = vals[0].as_b();
                                leader_pred = Some(p);
                                st.next_block = if p { insn.target } else { insn.target2 };
                            }
                            Opcode::DetectBr => {
                                if vals[0].as_b() {
                                    // Golden replays never detect.
                                    self.retire_all_live(LaneVerdict::Diverged);
                                    break 'outer;
                                }
                            }
                            Opcode::ChkNe => {
                                if eval_cmp_vals(CmpKind::Ne, vals[0], vals[1]) {
                                    self.retire_all_live(LaneVerdict::Diverged);
                                    break 'outer;
                                }
                            }
                            Opcode::Halt => st.halt = Some(vals[0].as_i()),
                            Opcode::Nop => {}
                            op => match eval_pure(op, vals) {
                                Ok(v) => {
                                    let latency = op.latency(lat);
                                    st.rf.set(insn.defs[0], v);
                                    st.ready
                                        .set(insn.defs[0], issue + latency as u64, cluster.0);
                                    leader_def = Some((insn.defs[0], v, latency));
                                }
                                Err(_) => {
                                    self.retire_all_live(LaneVerdict::Diverged);
                                    break 'outer;
                                }
                            },
                        }
                    }

                    // ---- lanes: value work + structural comparison ----
                    let mut li = 0;
                    while li < active_lanes.len() {
                        let lane = active_lanes[li];
                        li += 1;
                        if self.status[lane] != LaneStatus::Live {
                            continue;
                        }
                        self.stats.lane_insn_steps += 1;
                        // Does any operand of this insn carry a
                        // phase-1 override? (`ovr` is tiny — the
                        // operands whose register is in the overlay.)
                        let mut overridden = false;
                        for &(slot, _) in &self.ovr[lane] {
                            let slot = slot as usize;
                            if slot >= range.start && slot < range.end {
                                overridden = true;
                                break;
                            }
                        }
                        if !overridden {
                            // Fast path: every operand equals the
                            // leader's parallel read, so the lane
                            // computes exactly what the leader
                            // computed — same predicate, same emitted
                            // value, same non-firing checks. Only
                            // memory words and the def's diff bit can
                            // need attention.
                            match insn.op {
                                Opcode::Load | Opcode::FLoad => {
                                    // Same address; the loaded value
                                    // differs iff the lane's word does.
                                    let addr = leader_addr.expect("leader loaded too");
                                    let (d, lv, _lat) = leader_def.expect("leader loaded too");
                                    let v = match self.mem_over[lane].get(&addr) {
                                        Some(&bits) if insn.op == Opcode::Load => Val::I(bits),
                                        Some(&bits) => Val::F(f64::from_bits(bits as u64)),
                                        None => lv,
                                    };
                                    if self.rbed && !val_bits_eq(v, lv) {
                                        // A differing retired value
                                        // diverges the lane's digest.
                                        self.retire(lane, LaneVerdict::Diverged);
                                        continue;
                                    }
                                    self.set_lane_def(lane, d, v, lv);
                                }
                                Opcode::Store | Opcode::FStore => {
                                    // Same address, same stored value:
                                    // the word equals the leader's
                                    // afterwards whatever it held.
                                    let addr = leader_addr.expect("leader stored too");
                                    self.mem_over[lane].remove(&addr);
                                }
                                Opcode::Halt => {
                                    self.halt[lane] = Some(val_buf[range.start].as_i());
                                }
                                _ => {
                                    // A pure op over equal operands
                                    // re-derives the leader's value:
                                    // writeback can only *clear* the
                                    // def's diff bit.
                                    if let Some((d, _, _)) = leader_def {
                                        if self.reg_diff[lane].get(d) {
                                            self.reg_diff[lane].set(d, false);
                                        }
                                    }
                                }
                            }
                            continue;
                        }
                        // Slow path: at least one operand differs.
                        // Materialize this insn's operand values by
                        // patching the overrides over the leader's.
                        lane_scratch.clear();
                        lane_scratch.extend_from_slice(&val_buf[range.clone()]);
                        for &(slot, v) in &self.ovr[lane] {
                            let slot = slot as usize;
                            if slot >= range.start && slot < range.end {
                                lane_scratch[slot - range.start] = v;
                            }
                        }
                        let vals = &lane_scratch[..];
                        match insn.op {
                            Opcode::Load | Opcode::FLoad => {
                                let addr = vals[0].as_i().wrapping_add(insn.imm);
                                if Some(addr) != leader_addr {
                                    self.retire(lane, self.addr_divergence(addr));
                                    continue;
                                }
                                let (d, lv, _lat) = leader_def.expect("leader loaded too");
                                let v = match self.mem_over[lane].get(&addr) {
                                    Some(&bits) if insn.op == Opcode::Load => Val::I(bits),
                                    Some(&bits) => Val::F(f64::from_bits(bits as u64)),
                                    None => lv,
                                };
                                if self.rbed && !val_bits_eq(v, lv) {
                                    self.retire(lane, LaneVerdict::Diverged);
                                    continue;
                                }
                                self.set_lane_def(lane, d, v, lv);
                            }
                            Opcode::Store | Opcode::FStore => {
                                let addr = vals[0].as_i().wrapping_add(insn.imm);
                                if Some(addr) != leader_addr {
                                    self.retire(lane, self.addr_divergence(addr));
                                    continue;
                                }
                                // Stores overwrite the whole word;
                                // compare raw word bits (the layout
                                // `Memory` itself stores).
                                let (lane_bits, leader_bits) = match insn.op {
                                    Opcode::Store => {
                                        (vals[1].as_i(), val_buf[range.start + 1].as_i())
                                    }
                                    _ => (
                                        vals[1].as_f().to_bits() as i64,
                                        val_buf[range.start + 1].as_f().to_bits() as i64,
                                    ),
                                };
                                if lane_bits == leader_bits {
                                    self.mem_over[lane].remove(&addr);
                                } else if self.rbed {
                                    // The digest absorbs stored values.
                                    self.retire(lane, LaneVerdict::Diverged);
                                    continue;
                                } else {
                                    if self.mem_over[lane].is_empty() {
                                        self.lanes_with_mem.push(lane as u32);
                                    }
                                    self.mem_over[lane].insert(addr, lane_bits);
                                }
                            }
                            Opcode::Out => {
                                let v = OutVal::Int(vals[0].as_i());
                                if !v.bit_eq(&leader_out.expect("leader emitted too")) {
                                    if self.rbed {
                                        // The digest absorbs emitted
                                        // values: the real run may
                                        // Detect at the next boundary,
                                        // not silently corrupt.
                                        self.retire(lane, LaneVerdict::Diverged);
                                        continue;
                                    }
                                    self.stream_differs[lane] = true;
                                }
                            }
                            Opcode::FOut => {
                                let v = OutVal::Float(vals[0].as_f());
                                if !v.bit_eq(&leader_out.expect("leader emitted too")) {
                                    if self.rbed {
                                        self.retire(lane, LaneVerdict::Diverged);
                                        continue;
                                    }
                                    self.stream_differs[lane] = true;
                                }
                            }
                            Opcode::Br => {}
                            Opcode::BrCond => {
                                if Some(vals[0].as_b()) != leader_pred {
                                    self.retire(lane, LaneVerdict::Diverged);
                                }
                            }
                            Opcode::DetectBr => {
                                if vals[0].as_b() {
                                    self.detect[lane] = true;
                                }
                            }
                            Opcode::ChkNe => {
                                if eval_cmp_vals(CmpKind::Ne, vals[0], vals[1]) {
                                    self.detect[lane] = true;
                                }
                            }
                            Opcode::Halt => self.halt[lane] = Some(vals[0].as_i()),
                            Opcode::Nop => {}
                            op => match eval_pure(op, vals) {
                                Ok(v) => {
                                    let (d, lv, _lat) =
                                        leader_def.expect("leader executed the same pure op");
                                    if self.rbed && !val_bits_eq(v, lv) {
                                        self.retire(lane, LaneVerdict::Diverged);
                                        continue;
                                    }
                                    // A vote over a differing copy is a
                                    // correction; an out-voted strike
                                    // writes back the leader's value and
                                    // clears the def's diff bit below.
                                    if op == Opcode::Vote && vote_corrects(vals) {
                                        self.corrected[lane] = true;
                                    }
                                    self.set_lane_def(lane, d, v, lv);
                                }
                                Err(_) => {
                                    // Exact values, leader-validated
                                    // structure: the lane's own run
                                    // traps right here.
                                    self.retire(lane, LaneVerdict::Exception);
                                }
                            },
                        }
                    }

                    // ---- materialize virtual lanes whose site fires ----
                    // Mirrors `run_machine`'s rule: the injection lands
                    // at the first dynamic instruction with
                    // `dyn_insns >= at` that has a victim (its own def,
                    // or the register-file target), *after* writeback.
                    while self.cursor < n {
                        let lane = self.cursor;
                        if self.status[lane] != LaneStatus::Virtual {
                            self.cursor += 1;
                            continue;
                        }
                        if self.inj[lane].at_dyn_insn > dyn_insns {
                            break;
                        }
                        let victim = match self.inj[lane].target {
                            Some(r) => Some(r),
                            None => insn.def(),
                        };
                        let Some(d) = victim else {
                            // No victim here: every due lane slides to
                            // the next def-carrying instruction.
                            break;
                        };
                        // The lane equals the leader up to and
                        // including this writeback: it starts as an
                        // empty overlay holding just the flipped
                        // victim — no register-file or memory clone.
                        let orig_v = self.leader.rf.get(d);
                        let flipped = self.inj[lane].flip(orig_v, d.class.bits());
                        let mut diff = RegDiff::sized(func);
                        let differs = !val_bits_eq(flipped, orig_v);
                        diff.set(d, differs);
                        self.reg_over[lane] = vec![Val::I(0); self.total_regs as usize];
                        if differs {
                            let ri = self.flat(d);
                            self.reg_over[lane][ri] = flipped;
                            self.lanes_with_reg[ri].push(lane as u32);
                        }
                        self.mem_over[lane].clear();
                        // For the rest of this bundle the lane's
                        // phase-1 operands are the leader's: the flip
                        // happened after this bundle's parallel read,
                        // so there are no overrides to record.
                        self.ovr[lane].clear();
                        self.reg_diff[lane] = diff;
                        self.halt[lane] = self.leader.halt;
                        self.status[lane] = LaneStatus::Live;
                        self.materialized_live += 1;
                        self.live_list.push(lane);
                        // Step the rest of this bundle: a later slot
                        // may redefine (and so clear) the victim.
                        active_lanes.push(lane);
                        self.cursor += 1;
                    }
                }

                // ---- end of bundle: detections, convergence ----
                // Skipped lanes did not change state (and the leader's
                // halt flag did not change under them), so only active
                // lanes can newly detect or converge.
                let mut li = 0;
                while li < active_lanes.len() {
                    let lane = active_lanes[li];
                    li += 1;
                    if self.status[lane] != LaneStatus::Live {
                        continue;
                    }
                    if self.detect[lane] {
                        // `run_machine` stops a detected run at the end
                        // of the bundle; the stop reason is all the
                        // classifier reads.
                        self.retire(lane, LaneVerdict::Detected);
                        continue;
                    }
                    if self.reg_diff[lane].count == 0
                        && self.mem_over[lane].is_empty()
                        && !self.stream_differs[lane]
                        && self.halt[lane] == self.leader.halt
                    {
                        // The fault was masked: every observable bit of
                        // lane state equals the leader, so the
                        // remainder replays the golden remainder
                        // (which votes no correction).
                        let v = if self.corrected[lane] {
                            LaneVerdict::Corrected
                        } else {
                            LaneVerdict::Converged
                        };
                        self.retire(lane, v);
                    }
                }

                self.leader.cycle = issue + 1;
                self.leader.bundle_idx += 1;
            }

            // ---- end of block (leader drives control) ----
            if let Some(code) = self.leader.halt {
                for lane in 0..n {
                    match self.status[lane] {
                        LaneStatus::Done => {}
                        LaneStatus::Virtual => {
                            // Injection never landed: the lane IS the
                            // golden run.
                            self.retire(lane, LaneVerdict::Halted { matches_golden: true });
                        }
                        LaneStatus::Live => {
                            let matches = self.halt[lane] == Some(code)
                                && !self.stream_differs[lane];
                            let v = if matches && self.corrected[lane] {
                                LaneVerdict::Corrected
                            } else {
                                LaneVerdict::Halted { matches_golden: matches }
                            };
                            self.retire(lane, v);
                        }
                    }
                }
                break;
            }
            match self.leader.next_block {
                Some(b) => {
                    self.leader.block = b;
                    self.leader.bundle_idx = 0;
                    self.leader.next_block = None;
                    self.leader.halt = None;
                    let mut li = 0;
                    while li < self.live_list.len() {
                        let lane = self.live_list[li];
                        if self.status[lane] != LaneStatus::Live {
                            self.live_list.swap_remove(li);
                            continue;
                        }
                        li += 1;
                        self.halt[lane] = None;
                    }
                }
                None => {
                    // Fell off a block with no branch: the golden run
                    // cannot do this; prove nothing.
                    self.retire_all_live(LaneVerdict::Diverged);
                    break;
                }
            }
        }

        // Lanes can only still be unretired if we broke out with
        // live == 0; every exit path above retires the rest.
        debug_assert!(self.verdicts.iter().all(|v| v.is_some()));
        let stats = self.stats;
        let verdicts = self
            .verdicts
            .into_iter()
            .map(|v| v.expect("every lane retired"))
            .collect();
        (verdicts, stats)
    }
}

/// Run one batch of trials from the checkpoint at `ckpt_idx`:
/// convenience wrapper over [`BatchState`]. Verdicts come back in the
/// order of `injections`; `Diverged` lanes must be replayed
/// individually by the caller (`replay_trial`).
pub fn run_batch(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    ckpt_idx: usize,
    injections: &[Injection],
    max_cycles: u64,
) -> (Vec<LaneVerdict>, BatchStats) {
    BatchState::new(sp, trace, ckpt_idx, injections, max_cycles).run()
}

/// [`run_batch`] with the restore checkpoint chosen per the whole
/// batch: the last checkpoint strictly before the *earliest* injection
/// site in the batch — every lane's replay would restore at or after
/// it, so starting there reproduces each landing site exactly.
pub fn run_batch_auto(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    injections: &[Injection],
    max_cycles: u64,
) -> (Vec<LaneVerdict>, BatchStats) {
    let earliest = injections
        .iter()
        .map(|i| i.at_dyn_insn)
        .min()
        .unwrap_or(u64::MAX);
    run_batch(sp, trace, trace.restore_index(earliest), injections, max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::golden_with_checkpoints;
    use crate::machine::{simulate_quiet, SimOptions};
    use casted_ir::interp::StopReason;
    use casted_ir::vliw::{Bundle, ScheduledBlock};
    use casted_ir::{Cluster, FunctionBuilder, MachineConfig, Module};
    use std::collections::HashMap;

    fn sequential(m: &Module, config: MachineConfig) -> ScheduledProgram {
        let func = m.entry_fn();
        let mut assignment = vec![None; func.insns.len()];
        let mut home = HashMap::new();
        let mut blocks = Vec::new();
        for (bid, block) in func.iter_blocks() {
            let mut bundles = Vec::new();
            for &iid in &block.insns {
                assignment[iid.index()] = Some(Cluster::MAIN);
                for &d in &func.insn(iid).defs {
                    home.entry(d).or_insert(Cluster::MAIN);
                }
                let mut b = Bundle::empty(config.clusters);
                b.slots[0].push(iid);
                bundles.push(b);
            }
            blocks.push(ScheduledBlock { block: bid, bundles });
        }
        ScheduledProgram {
            module: m.clone(),
            config,
            assignment,
            home,
            blocks,
        }
    }

    fn looping_module(iters: i64) -> Module {
        let mut m = Module::new("t");
        let (_, addr) =
            m.add_global("g", casted_ir::func::GlobalClass::Int, 16, (0..16).collect());
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc = b.imm(0);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let base = b.imm(addr);
        let m16 = b.binop(Opcode::And, Operand::Reg(i), Operand::Imm(15));
        let sh = b.binop(Opcode::Shl, Operand::Reg(m16), Operand::Imm(3));
        let ea = b.binop(Opcode::Add, Operand::Reg(base), Operand::Reg(sh));
        let v = b.load(ea, 0);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(v));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(iters));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        m
    }

    /// Classify a from-scratch faulty run the way `casted_faults`
    /// does, reduced to what a batch verdict can be compared against:
    /// golden output after a vote correction is "corrected".
    fn scratch_class(
        sp: &ScheduledProgram,
        golden: &crate::machine::SimResult,
        inj: Injection,
        max_cycles: u64,
    ) -> &'static str {
        let r = simulate_quiet(
            sp,
            &SimOptions {
                max_cycles,
                injection: Some(inj),
                ..SimOptions::default()
            },
        );
        match r.stop {
            StopReason::Detected => "detected",
            StopReason::Exception(_) => "exception",
            StopReason::Timeout => "timeout",
            StopReason::Halt(code) => {
                let same = golden.stop == StopReason::Halt(code)
                    && golden.stream.len() == r.stream.len()
                    && golden.stream.iter().zip(&r.stream).all(|(a, b)| a.bit_eq(b));
                match (same, r.stats.corrections > 0) {
                    (true, false) => "benign",
                    (true, true) => "corrected",
                    (false, _) => "corrupt",
                }
            }
        }
    }

    fn verdict_class(v: LaneVerdict) -> &'static str {
        match v {
            LaneVerdict::Halted { matches_golden: true } | LaneVerdict::Converged => "benign",
            LaneVerdict::Halted { matches_golden: false } => "corrupt",
            LaneVerdict::Corrected => "corrected",
            LaneVerdict::Detected => "detected",
            LaneVerdict::Exception => "exception",
            LaneVerdict::Timeout => "timeout",
            LaneVerdict::Diverged => "diverged",
        }
    }

    #[test]
    fn batch_verdicts_match_scratch_classification() {
        let m = looping_module(80);
        let sp = sequential(&m, MachineConfig::itanium2_like(2, 2));
        let trace = golden_with_checkpoints(&sp);
        let max_cycles = trace.result.stats.cycles * 10;
        let dyn_insns = trace.result.stats.dyn_insns;
        let injections: Vec<Injection> = (0..24u64)
            .map(|k| Injection::single(1 + (k * 13) % dyn_insns, (k * 7 % 64) as u32, None))
            .collect();
        let (verdicts, stats) = run_batch_auto(&sp, &trace, &injections, max_cycles);
        assert_eq!(verdicts.len(), injections.len());
        assert_eq!(stats.lanes, injections.len() as u64);
        let mut in_batch = 0;
        for (v, &inj) in verdicts.iter().zip(&injections) {
            if *v == LaneVerdict::Diverged {
                continue; // the campaign replays these individually
            }
            in_batch += 1;
            assert_eq!(
                verdict_class(*v),
                scratch_class(&sp, &trace.result, inj, max_cycles),
                "lane at={} bit={} verdict {v:?} disagrees with scratch run",
                inj.at_dyn_insn,
                inj.bit
            );
        }
        assert!(in_batch > 0, "every lane diverged — the batch proved nothing");
    }

    #[test]
    fn virtual_lanes_cost_nothing_and_finish_benign() {
        let m = looping_module(50);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let trace = golden_with_checkpoints(&sp);
        // Sites past the end never land: lanes stay virtual for the
        // whole batch and retire exactly like the golden run.
        let injections: Vec<Injection> = (0..8)
            .map(|k| Injection::single(trace.result.stats.dyn_insns + 1 + k, 5, None))
            .collect();
        let (verdicts, stats) =
            run_batch_auto(&sp, &trace, &injections, trace.result.stats.cycles * 10);
        assert!(verdicts
            .iter()
            .all(|v| *v == LaneVerdict::Halted { matches_golden: true }));
        assert_eq!(stats.lane_insn_steps, 0, "virtual lanes must be free");
        assert_eq!(stats.retired_finished, 8);
    }

    #[test]
    fn converged_lanes_retire_before_the_leader_halts() {
        // A register that is rewritten with the same constant every
        // iteration and never read: a register-file strike on it is
        // erased at the next rewrite, so lanes must retire Converged
        // long before the leader halts.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let junk = b.imm(7);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        b.push(Opcode::MovI, vec![junk], vec![Operand::Imm(7)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(100));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(i));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let trace = golden_with_checkpoints(&sp);
        let max_cycles = trace.result.stats.cycles * 10;
        let injections: Vec<Injection> = (0..8u64)
            .map(|k| Injection::single(4 + k * 11, 3, Some(junk)))
            .collect();
        let (verdicts, stats) = run_batch_auto(&sp, &trace, &injections, max_cycles);
        assert!(
            stats.retired_converged > 0,
            "no lane converged despite the struck register being rewritten: {stats:?}"
        );
        for v in verdicts {
            assert!(
                matches!(
                    v,
                    LaneVerdict::Converged | LaneVerdict::Halted { matches_golden: true }
                ),
                "strike on a never-read register must be benign, got {v:?}"
            );
        }
    }

    #[test]
    fn missing_checkpoint_index_falls_back_to_power_on() {
        let m = looping_module(10);
        let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
        let trace = golden_with_checkpoints(&sp);
        let inj = Injection::single(3, 2, None);
        // An out-of-range checkpoint index must not panic — the batch
        // starts from the power-on state instead.
        let (verdicts, _stats) =
            run_batch(&sp, &trace, usize::MAX, &[inj], trace.result.stats.cycles * 10);
        assert_eq!(verdicts.len(), 1);
        let class = verdict_class(verdicts[0]);
        if verdicts[0] != LaneVerdict::Diverged {
            assert_eq!(
                class,
                scratch_class(&sp, &trace.result, inj, trace.result.stats.cycles * 10)
            );
        }
    }

    /// Three copies of one value, a majority `vote` over them and an
    /// `out` of the voted value — TMRED's shape, hand-built. With
    /// `scrub`, the copies are overwritten after the vote, so a lane
    /// whose strike was out-voted re-converges before the halt.
    /// Returns the module and the dynamic index of each copy's def and
    /// of the vote.
    fn voting_module(scrub: bool) -> (Module, [u64; 3], u64) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let a = b.imm(21); // dyn 1
        let copies: Vec<Reg> = (0..3)
            .map(|_| b.binop(Opcode::Add, Operand::Reg(a), Operand::Imm(1))) // dyn 2..=4
            .collect();
        let v = b.new_reg(RegClass::Gp);
        b.push(Opcode::Vote, vec![v], copies.iter().map(|&c| Operand::Reg(c)).collect()); // dyn 5
        if scrub {
            for &c in &copies {
                b.push(Opcode::MovI, vec![c], vec![Operand::Imm(0)]);
            }
        }
        b.out(Operand::Reg(v));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        (m, [2, 3, 4], 5)
    }

    #[test]
    fn vote_corrects_single_copy_strikes_in_the_batch() {
        for scrub in [false, true] {
            let (m, copy_sites, vote_site) = voting_module(scrub);
            let sp = sequential(&m, MachineConfig::perfect_memory(1, 1));
            let trace = golden_with_checkpoints(&sp);
            assert_eq!(trace.result.stats.corrections, 0, "golden run voted a correction");
            let max_cycles = trace.result.stats.cycles * 10;
            let mut injections: Vec<Injection> =
                copy_sites.iter().map(|&at| Injection::single(at, 3, None)).collect();
            injections.push(Injection::single(vote_site, 3, None));
            let (verdicts, stats) = run_batch_auto(&sp, &trace, &injections, max_cycles);

            // A strike on one copy is out-voted in place: no lane is
            // handed back for replay.
            for v in &verdicts[..3] {
                assert_eq!(*v, LaneVerdict::Corrected, "scrub={scrub}");
            }
            // A strike on the vote's own result escapes the majority.
            assert_eq!(verdicts[3], LaneVerdict::Halted { matches_golden: false });
            assert_eq!(stats.divergences, 0, "scrub={scrub}: {stats:?}");
            assert_eq!(stats.retired_corrected, 3, "scrub={scrub}: {stats:?}");
            assert_eq!(stats.retired_converged, 0, "scrub={scrub}: {stats:?}");
            for (v, &inj) in verdicts.iter().zip(&injections) {
                assert_eq!(
                    verdict_class(*v),
                    scratch_class(&sp, &trace.result, inj, max_cycles),
                    "scrub={scrub}: lane at={} verdict {v:?} disagrees with scratch run",
                    inj.at_dyn_insn
                );
            }
        }
    }
}
