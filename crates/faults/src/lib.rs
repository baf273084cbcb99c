//! # casted-faults — Monte-Carlo transient-fault injection (§IV-C)
//!
//! Reproduces the paper's fault-coverage methodology: "a dynamic
//! instruction is randomly selected and one of its outputs is randomly
//! picked for injection and a random bit of the register output is
//! flipped. Errors are injected into general purpose, floating point
//! and predicate registers."
//!
//! Each Monte-Carlo trial simulates the program once with a single
//! injected bit flip and classifies the outcome into the paper's five
//! classes ([`Outcome`]): Benign, Detected, Exception, DataCorrupt,
//! Timeout. Timeouts are caught by the simulator's watchdog at a
//! multiple of the fault-free cycle count.
//!
//! Every campaign — either [`Engine`], one-shot or streamed in chunks —
//! runs through one private driver over one frozen injection stream
//! ([`injection_stream`]); the compositional section cache
//! ([`run_campaign_incremental`]) draws from the same stream.

use std::sync::Arc;

use casted_util::pool::run_pool;
use casted_util::Rng;

pub mod sections;

pub use sections::{run_campaign_incremental, SectionStats, SectionStore};

use casted_ir::interp::StopReason;
use casted_ir::vliw::ScheduledProgram;
use casted_ir::{Reg, RegClass};
use casted_sim::{
    golden_with_checkpoints_rbed, rbed_plan, replay_trial, run_batch, simulate, simulate_quiet,
    BatchStats, GoldenTrace, Injection, LaneVerdict, RbedPlan, SimOptions, SimResult, TrialRun,
};

pub use casted_sim::DEFAULT_LANE_WIDTH;

/// The paper's five outcome classes of §IV-C, plus the `Corrected`
/// class the recovery-capable TMRED scheme introduces (appended last,
/// so the historical class indices are stable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Masked: same output stream and exit code as the fault-free run.
    Benign,
    /// Caught by the error-detection checks (`br.detect` fired).
    Detected,
    /// Hardware exception (wild address, misalignment, divide by
    /// zero). "Since they can be easily caught by a custom exception
    /// handler, they are usually part of the detected errors"; shown
    /// separately for clarity, as in the paper.
    Exception,
    /// Wrong output without detection — the bad case.
    DataCorrupt,
    /// Infinite execution, detected by the simulator watchdog.
    Timeout,
    /// Repaired in place: the run finished with the golden output and
    /// exit code *and* at least one majority vote masked a corrupted
    /// copy (TMRED). Where a detect-only scheme stops the run, a
    /// correcting scheme finishes it correctly — the recovery story.
    Corrected,
}

impl Outcome {
    /// All outcomes in reporting order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Benign,
        Outcome::Detected,
        Outcome::Exception,
        Outcome::DataCorrupt,
        Outcome::Timeout,
        Outcome::Corrected,
    ];

    /// Index of this outcome in [`Outcome::ALL`] order — a direct
    /// `match` rather than a linear scan, since `Tally` hits this on
    /// every recorded trial.
    pub const fn index(self) -> usize {
        match self {
            Outcome::Benign => 0,
            Outcome::Detected => 1,
            Outcome::Exception => 2,
            Outcome::DataCorrupt => 3,
            Outcome::Timeout => 4,
            Outcome::Corrected => 5,
        }
    }

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Benign => "Benign",
            Outcome::Detected => "Detected",
            Outcome::Exception => "Exception",
            Outcome::DataCorrupt => "DataCorrupt",
            Outcome::Timeout => "Timeout",
            Outcome::Corrected => "Corrected",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Monte-Carlo trials (the paper uses 300 per benchmark).
    pub trials: usize,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Watchdog threshold as a multiple of the fault-free cycle count.
    pub timeout_factor: u64,
    /// Strike shape: single-bit (the paper's model, the default) or a
    /// multi-bit burst.
    pub flip: FlipModel,
    /// Struck structure: a dynamic instruction's output register (the
    /// paper's model, the default) or a random architectural register.
    pub target: FaultModel,
    /// Replay-based detection (the RBED scheme): build a chunk-digest
    /// plan from the golden run and check every trial against it.
    pub replay_detect: bool,
    /// Batch lane width of [`Engine::Batched`] (the `bench_faults`
    /// lane-count sweep varies it; [`Engine::Reference`] ignores it).
    /// The tally is independent of the width: lane grouping never
    /// changes per-trial classification, only how much structural work
    /// is shared.
    pub lanes: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 300,
            seed: 0xCA57ED,
            timeout_factor: 10,
            flip: FlipModel::Single,
            target: FaultModel::InstructionOutput,
            replay_detect: false,
            lanes: DEFAULT_LANE_WIDTH,
        }
    }
}

/// Aggregated campaign outcome counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Count per outcome, indexed in [`Outcome::ALL`] order.
    pub counts: [usize; 6],
}

impl Tally {
    /// Record one outcome.
    pub fn record(&mut self, o: Outcome) {
        self.counts[o.index()] += 1;
    }

    /// Count for an outcome.
    pub fn count(&self, o: Outcome) -> usize {
        self.counts[o.index()]
    }

    /// Total trials recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Fraction (0..=1) for an outcome.
    pub fn fraction(&self, o: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(o) as f64 / self.total() as f64
        }
    }

    /// "Coverage" in the loose sense used when discussing Fig. 9:
    /// everything except undetected corruption and timeouts (benign
    /// faults need no detection; exceptions are catchable).
    ///
    /// Clamped to `[0, 1]`: the two independently rounded divisions
    /// can sum to just over 1.0 (e.g. counts `[0,0,0,4,1]` give
    /// `1.0 - 4/5 - 1/5 ≈ -5.6e-17`), and the raw subtraction would
    /// leak a negative coverage into results CSVs.
    pub fn safe_fraction(&self) -> f64 {
        (1.0 - self.fraction(Outcome::DataCorrupt) - self.fraction(Outcome::Timeout))
            .clamp(0.0, 1.0)
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for o in Outcome::ALL {
            write!(f, "{}={:5.1}% ", o.name(), 100.0 * self.fraction(o))?;
        }
        Ok(())
    }
}

/// Which campaign engine to run. Both engines produce byte-identical
/// [`Tally`] results from the same seed — an invariant enforced by
/// unit tests here, a difftest oracle layer and a `scripts/ci.sh`
/// byte-compare (see docs/PERFORMANCE.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Serial oracle: every trial re-simulates from cycle 0.
    Reference,
    /// Batched structure-of-arrays engine: N trials stepped in
    /// lockstep over the shared instruction stream from a shared
    /// checkpoint, paying the structural per-instruction work once per
    /// batch; structurally diverging lanes and singleton batches fall
    /// back to the single-trial checkpoint replay
    /// ([`casted_sim::replay_trial`], see `casted_sim::batch`).
    #[default]
    Batched,
}

impl Engine {
    /// Accepted `--engine` flag values, for error messages at every
    /// flag site.
    pub const ACCEPTED: &'static str = "reference|batched";

    /// Parse a `--engine` flag value (case-insensitive, so `Reference`
    /// and `BATCHED` work as well as the canonical lowercase names).
    /// The error names the value and lists [`Engine::ACCEPTED`].
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s.to_ascii_lowercase().as_str() {
            "reference" => Ok(Engine::Reference),
            "batched" => Ok(Engine::Batched),
            _ => Err(format!("unknown engine {s:?} (accepted values: {})", Engine::ACCEPTED)),
        }
    }

    /// Flag-style name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Batched => "batched",
        }
    }
}

/// Engine-side work accounting for one campaign (all zero under
/// [`Engine::Reference`]). The checkpoint fields cover snapshot
/// capture and the single-trial replay path the batched engine falls
/// back to for diverged lanes and singleton batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Golden-run snapshots captured (incl. the power-on state).
    pub checkpoints: u64,
    /// Golden-prefix instructions single-trial replays skipped via
    /// fast-forward.
    pub skipped_insns: u64,
    /// Single-trial replays ended early by convergence pruning.
    pub pruned_trials: u64,
    /// Batched-engine lane accounting.
    pub batch: BatchStats,
    /// Incremental-campaign section accounting (zeroed unless the
    /// campaign ran through [`run_campaign_incremental`]).
    pub sections: SectionStats,
}

/// Result of a whole campaign.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Outcome counts.
    pub tally: Tally,
    /// Fault-free cycle count of the program under test.
    pub golden_cycles: u64,
    /// Fault-free dynamic instruction count.
    pub golden_dyn: u64,
    /// Engine-side accounting (zeroed for the reference engine).
    pub engine: EngineStats,
}

/// Classify one faulty run against the fault-free reference.
pub fn classify(golden: &SimResult, faulty: &SimResult) -> Outcome {
    match faulty.stop {
        StopReason::Detected => Outcome::Detected,
        StopReason::Exception(_) => Outcome::Exception,
        StopReason::Timeout => Outcome::Timeout,
        StopReason::Halt(code) => {
            let same_code = golden.stop == StopReason::Halt(code);
            let same_stream = golden.stream.len() == faulty.stream.len()
                && golden
                    .stream
                    .iter()
                    .zip(&faulty.stream)
                    .all(|(a, b)| a.bit_eq(b));
            if same_code && same_stream {
                // Golden output with vote corrections performed means
                // the scheme *repaired* the strike rather than the
                // strike being naturally masked.
                if faulty.stats.corrections > 0 {
                    Outcome::Corrected
                } else {
                    Outcome::Benign
                }
            } else {
                Outcome::DataCorrupt
            }
        }
    }
}

/// The outcome class a batch lane's verdict proves — exactly what
/// [`classify`] would say about that trial's own full run — or `None`
/// for a [`LaneVerdict::Diverged`] lane, which the batch proves nothing
/// about and the campaign replays on the exact path.
pub fn lane_outcome(v: LaneVerdict) -> Option<Outcome> {
    Some(match v {
        LaneVerdict::Halted {
            matches_golden: true,
        }
        | LaneVerdict::Converged => Outcome::Benign,
        LaneVerdict::Halted {
            matches_golden: false,
        } => Outcome::DataCorrupt,
        LaneVerdict::Corrected => Outcome::Corrected,
        LaneVerdict::Detected => Outcome::Detected,
        LaneVerdict::Exception => Outcome::Exception,
        LaneVerdict::Timeout => Outcome::Timeout,
        LaneVerdict::Diverged => return None,
    })
}

/// Run one injection trial from scratch, with the campaign's RBED
/// digest plan installed when it has one. This is the reference
/// engine's trial and the targeted (non-Monte-Carlo) entry point of
/// `casted-difftest`'s fault-probe oracles, which aim injections at
/// specific dynamic instructions instead of sampling uniformly.
///
/// Trials stay out of the `sim.*` metrics
/// ([`casted_sim::simulate_quiet`]): a campaign runs the same program
/// hundreds of times and would drown the per-run counters — and the
/// engines' counter snapshots must stay comparable.
pub fn run_trial(
    sp: &ScheduledProgram,
    golden: &SimResult,
    inj: Injection,
    max_cycles: u64,
    rbed: Option<&Arc<RbedPlan>>,
) -> Outcome {
    let r = simulate_quiet(
        sp,
        &SimOptions {
            max_cycles,
            injection: Some(inj),
            rbed: rbed.cloned(),
            ..SimOptions::default()
        },
    );
    classify(golden, &r)
}

/// Strike shape for the `--fault-model` flag: single-bit (the paper's
/// model) or an adjacent multi-bit burst (charge sharing between
/// neighbouring cells upsets several bits of one word; see MITRA et
/// al. style soft-error surveys). Bursts reuse the frozen `(at, bit)`
/// draws and add exactly one extra documented draw (`phase`), so the
/// `single` model reproduces the historical stream byte for byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlipModel {
    /// One flipped bit — the paper's model and the frozen default.
    #[default]
    Single,
    /// Two adjacent bits flipped.
    Burst2,
    /// Four adjacent bits flipped.
    Burst4,
}

impl FlipModel {
    /// Accepted `--fault-model` flag values, for error messages at
    /// every flag site.
    pub const ACCEPTED: &'static str = "single|burst2|burst4";

    /// Parse a `--fault-model` flag value (case-insensitive).
    pub fn parse(s: &str) -> Option<FlipModel> {
        match s.to_ascii_lowercase().as_str() {
            "single" => Some(FlipModel::Single),
            "burst2" => Some(FlipModel::Burst2),
            "burst4" => Some(FlipModel::Burst4),
            _ => None,
        }
    }

    /// Flag-style name.
    pub fn name(self) -> &'static str {
        match self {
            FlipModel::Single => "single",
            FlipModel::Burst2 => "burst2",
            FlipModel::Burst4 => "burst4",
        }
    }

    /// Burst width in bits.
    pub fn width(self) -> u8 {
        match self {
            FlipModel::Single => 1,
            FlipModel::Burst2 => 2,
            FlipModel::Burst4 => 4,
        }
    }
}

/// Which hardware structure the fault strikes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultModel {
    /// The paper's model (§IV-C): flip a bit of a dynamic
    /// instruction's output register right after writeback.
    #[default]
    InstructionOutput,
    /// Extension: flip a bit of a uniformly random *architectural
    /// register* at a random point in time — a register-file strike.
    /// Dormant values (long-lived, rarely rewritten) are exposed much
    /// longer under this model, so coverage differs.
    RegisterFile,
}

/// [`draw_injection`] plus the burst draw: for a multi-bit model one
/// extra value, `phase = gen_range(0..width)`, is drawn *after* the
/// frozen `(at, bit)` pair (and after the register-file victim draw,
/// see [`injection_stream`]), placing the drawn `bit` at offset
/// `phase` inside the flipped window. Under [`FlipModel::Single`] no
/// extra value is consumed, so the historical stream is reproduced
/// byte for byte.
pub fn draw_burst_phase(rng: &mut Rng, flip: FlipModel) -> u8 {
    let w = flip.width();
    if w > 1 {
        rng.gen_range(0..w as u32) as u8
    } else {
        0
    }
}

/// Draw one `(dynamic instruction, bit)` injection site — the frozen
/// per-trial draw order every campaign shares (see the stream-format
/// notes on [`run_campaign`]).
///
/// ## Degenerate golden runs
///
/// When `golden_dyn_insns == 0` (an empty or immediately-trapping
/// golden run) there is no dynamic instruction to strike. Instead of
/// panicking on the empty range `1..=0`, the draw returns the
/// documented degenerate site `at = u64::MAX` — a site past every
/// dynamic instruction, so the injection never lands and the trial
/// runs fault-free (classified Benign). The `bit` draw still consumes
/// one value from the stream, keeping the RNG in a defined state for
/// subsequent trials.
pub fn draw_injection(rng: &mut Rng, golden_dyn_insns: u64) -> (u64, u32) {
    if golden_dyn_insns == 0 {
        let bit = rng.gen_range(0..64u32);
        return (u64::MAX, bit);
    }
    let at = rng.gen_range(1..=golden_dyn_insns);
    let bit = rng.gen_range(0..64u32);
    (at, bit)
}

/// The register-file victim draw: one value, uniform over every
/// allocated register of every class (`counts` in GP, FP, PR order).
fn draw_register(rng: &mut Rng, counts: [u32; 3]) -> Reg {
    let total: u32 = counts.iter().sum();
    let mut pick = rng.gen_range(0..total.max(1));
    if pick < counts[0] {
        return Reg::gp(pick);
    }
    pick -= counts[0];
    if pick < counts[1] {
        return Reg::fp(pick);
    }
    Reg::pr(pick - counts[1])
}

/// The campaign's frozen injection stream, in trial order (format on
/// [`run_campaign`]). Every campaign draws from this one function —
/// both engines, streamed chunks and the incremental section cache —
/// so their tallies agree trial for trial.
pub fn injection_stream(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    golden_dyn: u64,
) -> Vec<Injection> {
    // Register counts are a property of the function, hoisted out of
    // the trial loop.
    let reg_counts = (cfg.target == FaultModel::RegisterFile).then(|| {
        let func = sp.module.entry_fn();
        [RegClass::Gp, RegClass::Fp, RegClass::Pr].map(|c| func.reg_count(c))
    });
    let mut rng = Rng::seed_from_u64(cfg.seed);
    (0..cfg.trials)
        .map(|_| {
            let (at, bit) = draw_injection(&mut rng, golden_dyn);
            let target = reg_counts.map(|counts| draw_register(&mut rng, counts));
            let phase = draw_burst_phase(&mut rng, cfg.flip);
            Injection {
                at_dyn_insn: at,
                bit,
                target,
                width: cfg.flip.width(),
                phase,
            }
        })
        .collect()
}

/// Run a full Monte-Carlo campaign over `sp` on the default engine.
///
/// Each trial draws a uniformly random dynamic instruction of the run
/// and a random bit of its output register. (The paper fixes the error
/// *rate* to the original binary's dynamic length; we draw one fault
/// per trial uniformly over the tested binary's own execution — the
/// reported per-class *fractions* are directly comparable, see
/// DESIGN.md.)
///
/// ## Injection stream format (frozen)
///
/// Campaigns are bit-reproducible across platforms and toolchains:
/// the RNG is `casted_util::Rng` (xoshiro256++ seeded from
/// `cfg.seed` via SplitMix64), and each trial draws, in order,
///
/// 1. `at`  = `gen_range(1..=golden_dyn_insns)` — the dynamic
///    instruction whose output is struck, and
/// 2. `bit` = `gen_range(0..64u32)` — the flipped bit.
///
/// (The [`FaultModel::RegisterFile`] target draws a third value,
/// `gen_range(0..total_allocated_regs)`, to pick the victim
/// register, and a burst [`FlipModel`] one more, the phase.) The
/// `stream_format_is_frozen` unit test pins golden values for this
/// sequence; any change to the draw order, the RNG algorithm or the
/// bounded-draw mapping is a format break and must be made
/// deliberately there.
pub fn run_campaign(sp: &ScheduledProgram, cfg: &CampaignConfig) -> CampaignResult {
    run_campaign_engine(sp, cfg, Engine::default())
}

/// [`run_campaign`] with an explicit engine choice.
pub fn run_campaign_engine(sp: &ScheduledProgram, cfg: &CampaignConfig, engine: Engine) -> CampaignResult {
    campaign_core(sp, cfg, engine, None).0
}

/// [`run_campaign`] in incremental chunks, reporting the running tally
/// to `progress` every `chunk` trials — the engine behind the
/// `casted-serve` streaming-inject protocol extension.
///
/// `progress(done, tally)` is invoked after each completed chunk
/// *except the last* (the caller's final reply carries the complete
/// tally); returning `false` cancels the campaign, and the partial
/// result comes back with `completed == false`.
///
/// Two exactness properties make streaming safe to expose:
///
/// * **Prefix match** — injections are pre-drawn from the frozen
///   stream and trials are mutually independent, so the running tally
///   at `done = M` equals the tally of a whole campaign with
///   `cfg.trials = M`. A cancelled campaign's partial tally is a real
///   campaign result, not an approximation.
/// * **Engine independence** — per-trial outcomes are engine-invariant
///   (the workspace-wide byte-identical-tally contract), so the final
///   tally equals [`run_campaign_engine`] under either engine; each
///   chunk runs as its own batched campaign slice, in trial order.
pub fn run_campaign_streaming(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    chunk: usize,
    progress: &mut dyn FnMut(u64, &Tally) -> bool,
) -> (CampaignResult, bool) {
    campaign_core(sp, cfg, Engine::Batched, Some((chunk, progress)))
}

/// Build the campaign's RBED digest plan when [`CampaignConfig::
/// replay_detect`] is set (`None` otherwise): one quiet golden run for
/// the dynamic length, then [`casted_sim::rbed_plan`]'s two recording
/// passes. Never-halting targets fall through to the campaign's own
/// `must run fault-free to completion` refusal.
fn campaign_rbed_plan(sp: &ScheduledProgram, cfg: &CampaignConfig) -> Option<Arc<RbedPlan>> {
    if !cfg.replay_detect {
        return None;
    }
    let golden = simulate_quiet(sp, &SimOptions::default());
    Some(rbed_plan(sp, golden.stats.dyn_insns))
}

/// The fault-free run a campaign classifies against: a plain run for
/// the reference engine, a checkpointed trace for the batched one.
enum Golden {
    Plain(SimResult),
    Traced(GoldenTrace),
}

impl Golden {
    fn result(&self) -> &SimResult {
        match self {
            Golden::Plain(r) => r,
            Golden::Traced(t) => &t.result,
        }
    }
}

/// A streamed campaign's chunk size and its `progress(done, tally)`
/// callback.
type ProgressSink<'a> = (usize, &'a mut dyn FnMut(u64, &Tally) -> bool);

/// The campaign driver every [`run_campaign`] variant shares: capture
/// the golden run once, draw the frozen stream once
/// ([`injection_stream`]), run the trials on `engine` chunk by chunk
/// and reduce the tally in trial order.
///
/// Without a `(chunk, progress)` sink one chunk holds every trial, so
/// the batched engine partitions the whole campaign at once. With one,
/// `progress` sees the running tally after each chunk short of the
/// last, and returning `false` stops the campaign (the second result
/// is then `false`).
fn campaign_core(
    sp: &ScheduledProgram,
    cfg: &CampaignConfig,
    engine: Engine,
    mut sink: Option<ProgressSink<'_>>,
) -> (CampaignResult, bool) {
    // Opened before golden capture, so the golden runs and the RBED
    // plan are attributed to the campaign too.
    let span = casted_obs::span("faults.campaign_ns");
    let rbed = campaign_rbed_plan(sp, cfg);
    let golden = match engine {
        Engine::Reference => Golden::Plain(simulate(sp, &SimOptions::default())),
        Engine::Batched => Golden::Traced(golden_with_checkpoints_rbed(sp, rbed.clone())),
    };
    let result = golden.result();
    assert!(
        matches!(result.stop, StopReason::Halt(_)),
        "campaign target must run fault-free to completion, got {:?}",
        result.stop
    );
    let golden_cycles = result.stats.cycles;
    let golden_dyn = result.stats.dyn_insns;
    let max_cycles = golden_cycles.saturating_mul(cfg.timeout_factor);
    let injections = injection_stream(sp, cfg, golden_dyn);

    let mut engine_stats = EngineStats {
        checkpoints: match &golden {
            Golden::Plain(_) => 0,
            Golden::Traced(t) => t.checkpoints_taken(),
        },
        ..EngineStats::default()
    };
    let chunk = sink.as_ref().map_or(cfg.trials, |(chunk, _)| *chunk).max(1);
    let mut tally = Tally::default();
    let mut done = 0usize;
    let mut completed = true;
    for injs in injections.chunks(chunk) {
        let outcomes = match &golden {
            Golden::Plain(g) => injs
                .iter()
                .map(|&inj| run_trial(sp, g, inj, max_cycles, rbed.as_ref()))
                .collect(),
            Golden::Traced(t) => run_batched(sp, t, injs, max_cycles, cfg.lanes, &mut engine_stats),
        };
        for o in outcomes {
            tally.record(o);
        }
        done += injs.len();
        if done < cfg.trials {
            if let Some((_, progress)) = sink.as_mut() {
                if !progress(done as u64, &tally) {
                    completed = false;
                    break;
                }
            }
        }
    }
    let traced = matches!(golden, Golden::Traced(_));
    record_campaign_metrics(&tally, traced.then_some(&engine_stats), span);
    (
        CampaignResult {
            tally,
            golden_cycles,
            golden_dyn,
            engine: engine_stats,
        },
        completed,
    )
}

/// One trial on the exact single-trial replay path (restore the last
/// checkpoint before the site, prune on convergence), with its replay
/// work added to `stats`.
fn replay_outcome(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    inj: Injection,
    max_cycles: u64,
    stats: &mut EngineStats,
) -> Outcome {
    let (run, rs) = replay_trial(sp, trace, inj, max_cycles);
    stats.skipped_insns += rs.skipped_insns;
    stats.pruned_trials += rs.pruned as u64;
    match run {
        TrialRun::Finished(r) => classify(&trace.result, &r),
        TrialRun::Converged => Outcome::Benign,
    }
}

/// Run `injections` on the batched engine; outcomes come back in input
/// order, and the engine work is added to `stats`.
///
/// Trials are sorted by injection site and the sorted order is cut
/// into `lanes`-wide batches. Each batch restores the checkpoint
/// strictly before its *earliest* site (the identical rule a
/// single-trial replay uses, via `restore_index`); lanes with later
/// sites stay virtual — costing nothing — until the shared leader
/// reaches them, so one leader replay is amortized over the whole
/// batch even when its sites span several checkpoint buckets, and the
/// leaders' combined stepping telescopes to about one pass over the
/// golden run per campaign. A singleton batch would be one lane of
/// pure overhead — those trials go straight to `replay_trial`.
/// Batches run on [`casted_util::pool::run_pool`]; outcomes land in
/// per-trial slots, so the result is independent of batch shapes and
/// pool interleaving.
fn run_batched(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    injections: &[Injection],
    max_cycles: u64,
    lanes: usize,
    stats: &mut EngineStats,
) -> Vec<Outcome> {
    let mut order: Vec<usize> = (0..injections.len()).collect();
    order.sort_by_key(|&i| (injections[i].at_dyn_insn, i));
    let results = run_pool(
        order
            .chunks(lanes.max(2))
            .map(|ids| {
                move || {
                    let mut local = EngineStats::default();
                    let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(ids.len());
                    if let [only] = ids {
                        let o = replay_outcome(sp, trace, injections[*only], max_cycles, &mut local);
                        outcomes.push((*only, o));
                    } else {
                        let injs: Vec<Injection> = ids.iter().map(|&i| injections[i]).collect();
                        let ckpt = trace.restore_index(injs[0].at_dyn_insn);
                        let (verdicts, bs) = run_batch(sp, trace, ckpt, &injs, max_cycles);
                        local.batch.accumulate(bs);
                        for (&trial, &v) in ids.iter().zip(&verdicts) {
                            // The batch proves nothing about a
                            // structurally diverged lane: replay that
                            // one trial on the exact path.
                            let o = lane_outcome(v).unwrap_or_else(|| {
                                replay_outcome(sp, trace, injections[trial], max_cycles, &mut local)
                            });
                            outcomes.push((trial, o));
                        }
                    }
                    (outcomes, local)
                }
            })
            .collect(),
    );
    let mut slots: Vec<Option<Outcome>> = vec![None; injections.len()];
    for (outcomes, local) in results {
        stats.skipped_insns += local.skipped_insns;
        stats.pruned_trials += local.pruned_trials;
        stats.batch.accumulate(local.batch);
        for (i, o) in outcomes {
            slots[i] = Some(o);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every trial classified exactly once"))
        .collect()
}

/// Static counter name per outcome class.
fn outcome_counter(o: Outcome) -> &'static str {
    match o {
        Outcome::Benign => "faults.outcome.benign",
        Outcome::Detected => "faults.outcome.detected",
        Outcome::Exception => "faults.outcome.exception",
        Outcome::DataCorrupt => "faults.outcome.data_corrupt",
        Outcome::Timeout => "faults.outcome.timeout",
        Outcome::Corrected => "faults.outcome.corrected",
    }
}

/// Flush one finished campaign into the global metrics registry:
/// outcome tallies and trial count as deterministic counters, the
/// campaign wall-time and trial throughput as timing metrics (span
/// histogram + `faults.trials_per_sec` gauge, both excluded from the
/// counter-only snapshot). The batched engine also flushes its
/// `faults.checkpoint.*` / `faults.batch.*` work counters — and
/// incremental campaigns their `faults.sections.*` cache counters —
/// the only counter-snapshot keys on which campaigns over the same
/// stream are allowed to differ (`scripts/ci.sh` strips exactly these
/// before its byte-compare).
pub(crate) fn record_campaign_metrics(
    tally: &Tally,
    engine: Option<&EngineStats>,
    span: casted_obs::Span,
) {
    if !casted_obs::enabled() {
        return;
    }
    let trials = tally.total() as u64;
    casted_obs::add("faults.trials", trials);
    for o in Outcome::ALL {
        casted_obs::add(outcome_counter(o), tally.count(o) as u64);
    }
    if let Some(es) = engine {
        casted_obs::add("faults.checkpoint.taken", es.checkpoints);
        casted_obs::add("faults.checkpoint.skipped_insns", es.skipped_insns);
        casted_obs::add("faults.checkpoint.pruned", es.pruned_trials);
        if es.batch.lanes > 0 {
            casted_obs::add("faults.batch.lanes", es.batch.lanes);
            casted_obs::add("faults.batch.bundles", es.batch.bundles_stepped);
            casted_obs::add("faults.batch.lane_steps", es.batch.lane_insn_steps);
            casted_obs::add("faults.batch.divergences", es.batch.divergences);
            casted_obs::add("faults.batch.skipped_insns", es.batch.skipped_insns);
            casted_obs::add("faults.batch.retired.converged", es.batch.retired_converged);
            casted_obs::add("faults.batch.retired.corrected", es.batch.retired_corrected);
            casted_obs::add("faults.batch.retired.finished", es.batch.retired_finished);
            casted_obs::add("faults.batch.retired.detected", es.batch.retired_detected);
            casted_obs::add("faults.batch.retired.exception", es.batch.retired_exception);
            casted_obs::add("faults.batch.retired.timeout", es.batch.retired_timeout);
        }
        if es.sections.total > 0 {
            casted_obs::add("faults.sections.total", es.sections.total);
            casted_obs::add("faults.sections.hit", es.sections.hit);
            casted_obs::add("faults.sections.miss", es.sections.miss);
            casted_obs::add("faults.sections.recombined", es.sections.recombined);
        }
    }
    let ns = span.elapsed_ns();
    if ns > 0 {
        casted_obs::gauge_set(
            "faults.trials_per_sec",
            trials.saturating_mul(1_000_000_000) / ns,
        );
    }
    // Dropping the span records the campaign wall-time histogram.
}

#[cfg(test)]
mod tests {
    use super::*;
    use casted_ir::vliw::{Bundle, ScheduledBlock};
    use casted_ir::{Cluster, FunctionBuilder, MachineConfig, Module, Opcode, Operand};
    use std::collections::HashMap;

    fn sequential(module: &Module) -> ScheduledProgram {
        let config = MachineConfig::perfect_memory(1, 1);
        let func = module.entry_fn();
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
            module: module.clone(),
            config,
            assignment,
            home,
            blocks,
        }
    }

    /// Unprotected program summing memory values and printing the sum.
    fn unprotected() -> ScheduledProgram {
        let mut m = Module::new("t");
        let (_, addr) = m.add_global("g", casted_ir::func::GlobalClass::Int, 64, (0..64).collect());
        let mut b = FunctionBuilder::new("main");
        let body = b.new_block("body");
        let done = b.new_block("done");
        let acc = b.imm(0);
        let i = b.imm(0);
        b.br(body);
        b.switch_to(body);
        let base = b.imm(addr);
        let sh = b.binop(Opcode::Shl, Operand::Reg(i), Operand::Imm(3));
        let ea = b.binop(Opcode::Add, Operand::Reg(base), Operand::Reg(sh));
        let v = b.load(ea, 0);
        let acc1 = b.binop(Opcode::Add, Operand::Reg(acc), Operand::Reg(v));
        b.push(Opcode::MovI, vec![acc], vec![Operand::Reg(acc1)]);
        let i1 = b.binop(Opcode::Add, Operand::Reg(i), Operand::Imm(1));
        b.push(Opcode::MovI, vec![i], vec![Operand::Reg(i1)]);
        let p = b.cmp(casted_ir::CmpKind::Lt, Operand::Reg(i), Operand::Imm(64));
        b.br_cond(p, body, done);
        b.switch_to(done);
        b.out(Operand::Reg(acc));
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        sequential(&m)
    }

    /// The injection stream format is frozen (see [`run_campaign`]
    /// docs): for a given seed and golden dynamic length, the sequence
    /// of `(dynamic instruction, bit)` injection sites is identical on
    /// every platform and toolchain, byte for byte. These golden
    /// values pin the format — seed `0xCA57ED` (the default), a
    /// 1000-instruction run, first eight trials. If this test breaks,
    /// campaign results are no longer comparable with previously
    /// published runs; bump the documented stream format instead of
    /// silently updating the constants.
    #[test]
    fn stream_format_is_frozen() {
        let mut rng = Rng::seed_from_u64(CampaignConfig::default().seed);
        let got: Vec<(u64, u32)> = (0..8).map(|_| draw_injection(&mut rng, 1000)).collect();
        assert_eq!(
            got,
            [
                (11, 13),
                (846, 38),
                (441, 63),
                (884, 48),
                (225, 38),
                (450, 15),
                (597, 38),
                (32, 45),
            ]
        );
        // Burst extension: `Single` consumes no extra value — the
        // historical stream above is reproduced byte for byte — while
        // a multi-bit model draws exactly one extra `phase` value per
        // trial, *after* the frozen `(at, bit)` pair.
        let mut single = Rng::seed_from_u64(CampaignConfig::default().seed);
        for want in &got {
            let pair = draw_injection(&mut single, 1000);
            assert_eq!(&pair, want, "Single must not perturb the stream");
            assert_eq!(draw_burst_phase(&mut single, FlipModel::Single), 0);
        }
        // Pinned golden values for the burst2 stream: interleaving the
        // phase draw shifts every subsequent (at, bit) pair.
        let mut burst = Rng::seed_from_u64(CampaignConfig::default().seed);
        let got2: Vec<(u64, u32, u8)> = (0..4)
            .map(|_| {
                let (at, bit) = draw_injection(&mut burst, 1000);
                (at, bit, draw_burst_phase(&mut burst, FlipModel::Burst2))
            })
            .collect();
        assert_eq!(
            got2,
            [(11, 13, 1), (606, 28, 1), (884, 48, 0), (594, 28, 0)]
        );
        for (_, _, phase) in &got2 {
            assert!(*phase < FlipModel::Burst2.width() as u8);
        }
    }

    /// Streaming campaigns must be *exact*: the final result equals
    /// every engine's non-streaming result, and each intermediate
    /// tally equals a whole campaign truncated at that trial count
    /// (the frozen injection stream makes prefixes real campaigns).
    #[test]
    fn streaming_campaign_prefixes_match_whole_campaigns() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 40,
            seed: 7,
            timeout_factor: 10,
            ..CampaignConfig::default()
        };
        let mut updates: Vec<(u64, Tally)> = Vec::new();
        let (res, completed) = run_campaign_streaming(&sp, &cfg, 16, &mut |done, t| {
            updates.push((done, t.clone()));
            true
        });
        assert!(completed);
        assert_eq!(res.tally.total(), 40);
        // Each chunk runs as a batched campaign slice.
        assert!(res.engine.batch.lanes > 0, "streaming ran no lanes: {:?}", res.engine);
        for engine in [Engine::Reference, Engine::Batched] {
            let full = run_campaign_engine(&sp, &cfg, engine);
            assert_eq!(res.tally, full.tally, "streaming vs {engine:?}");
            assert_eq!(res.golden_cycles, full.golden_cycles);
            assert_eq!(res.golden_dyn, full.golden_dyn);
        }
        // Progress fires at every chunk boundary short of the total
        // (the final tally travels in the caller's terminal reply).
        assert_eq!(
            updates.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![16, 32]
        );
        for (done, t) in &updates {
            let prefix_cfg = CampaignConfig {
                trials: *done as usize,
                ..cfg.clone()
            };
            let prefix = run_campaign(&sp, &prefix_cfg);
            assert_eq!(t, &prefix.tally, "prefix mismatch at {done} trials");
        }
    }

    /// Cancelling mid-campaign yields exactly the prefix campaign —
    /// the partial tally is a real result, not an approximation.
    #[test]
    fn streaming_campaign_cancel_returns_exact_prefix() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 40,
            seed: 9,
            timeout_factor: 10,
            ..CampaignConfig::default()
        };
        let (partial, completed) =
            run_campaign_streaming(&sp, &cfg, 10, &mut |done, _| done < 20);
        assert!(!completed);
        assert_eq!(partial.tally.total(), 20);
        let prefix = run_campaign(
            &sp,
            &CampaignConfig {
                trials: 20,
                ..cfg
            },
        );
        assert_eq!(partial.tally, prefix.tally);
    }

    /// Regression: `draw_injection` used to panic on the empty range
    /// `gen_range(1..=0)` when the golden run retired zero dynamic
    /// instructions (empty or immediately-trapping program). The guard
    /// returns the documented degenerate site instead: `at =
    /// u64::MAX` (past every dynamic instruction, so the injection
    /// never lands) with the bit still drawn from the stream, leaving
    /// the RNG in a defined state for subsequent trials.
    #[test]
    fn draw_injection_with_empty_golden_run_does_not_panic() {
        let mut rng = Rng::seed_from_u64(0xCA57ED);
        let (at, bit) = draw_injection(&mut rng, 0);
        assert_eq!(at, u64::MAX, "degenerate site must be past every insn");
        assert!(bit < 64);
        // The stream stays usable and deterministic after the
        // degenerate draw.
        let (at2, bit2) = draw_injection(&mut rng, 1000);
        assert!((1..=1000).contains(&at2) && bit2 < 64);
        let mut replay = Rng::seed_from_u64(0xCA57ED);
        let a = draw_injection(&mut replay, 0);
        let b = draw_injection(&mut replay, 1000);
        assert_eq!((a, b), ((at, bit), (at2, bit2)));
    }

    /// The degenerate site is inert end to end: injected into a real
    /// program, it never fires and the trial classifies Benign.
    #[test]
    fn degenerate_injection_is_benign() {
        let sp = unprotected();
        let golden = simulate(&sp, &SimOptions::default());
        let outcome = run_trial(
            &sp,
            &golden,
            Injection::single(u64::MAX, 5, None),
            golden.stats.cycles * 10,
            None,
        );
        assert_eq!(outcome, Outcome::Benign);
    }

    /// Same-seed campaigns must agree between campaign variants too:
    /// every variant draws through `injection_stream`, so its draw
    /// sequence is the same stream.
    #[test]
    fn stream_is_platform_stable_across_dyn_lengths() {
        // The (at, bit) pair for trial 0 must depend only on the seed
        // and the golden dynamic length — two different lengths give
        // reproducible (but different) sites from the same raw stream.
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let (at_a, bit_a) = draw_injection(&mut a, 100);
        let (at_b, bit_b) = draw_injection(&mut b, 100);
        assert_eq!((at_a, bit_a), (at_b, bit_b));
        assert!(at_a >= 1 && at_a <= 100 && bit_a < 64);
    }

    #[test]
    fn campaign_is_deterministic() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 50,
            ..Default::default()
        };
        let a = run_campaign(&sp, &cfg);
        let b = run_campaign(&sp, &cfg);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn different_seeds_differ() {
        let sp = unprotected();
        let a = run_campaign(
            &sp,
            &CampaignConfig {
                trials: 60,
                seed: 1,
                ..Default::default()
            },
        );
        let b = run_campaign(
            &sp,
            &CampaignConfig {
                trials: 60,
                seed: 2,
                ..Default::default()
            },
        );
        // Overwhelmingly likely to differ in at least one class.
        assert_ne!(a.tally, b.tally);
    }

    #[test]
    fn unprotected_program_never_detects() {
        let sp = unprotected();
        let r = run_campaign(
            &sp,
            &CampaignConfig {
                trials: 80,
                ..Default::default()
            },
        );
        assert_eq!(r.tally.count(Outcome::Detected), 0);
        // And some faults must corrupt data or raise exceptions.
        assert!(
            r.tally.count(Outcome::DataCorrupt) + r.tally.count(Outcome::Exception) > 0,
            "all faults benign? {:?}",
            r.tally
        );
        assert_eq!(r.tally.total(), 80);
    }

    #[test]
    fn tally_fractions_sum_to_one() {
        let sp = unprotected();
        let r = run_campaign(
            &sp,
            &CampaignConfig {
                trials: 40,
                ..Default::default()
            },
        );
        let sum: f64 = Outcome::ALL.iter().map(|&o| r.tally.fraction(o)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// The equivalence oracle at unit scale: same seed, same trials ⇒
    /// the batched engine's tally is byte-identical to the reference
    /// engine's — and the batches genuinely ran lanes from captured
    /// snapshots (the speedup is real work sharing, not everything
    /// falling back to single-trial replay).
    #[test]
    fn batched_engine_agrees_with_reference() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 80,
            ..Default::default()
        };
        let reference = run_campaign_engine(&sp, &cfg, Engine::Reference);
        let batched = run_campaign_engine(&sp, &cfg, Engine::Batched);
        assert_eq!(reference.tally, batched.tally, "batched engine diverged");
        assert_eq!(reference.golden_cycles, batched.golden_cycles);
        assert_eq!(reference.golden_dyn, batched.golden_dyn);
        assert_eq!(reference.engine, EngineStats::default());
        assert!(batched.engine.checkpoints > 1, "no snapshots captured");
        assert!(batched.engine.batch.lanes > 0, "no lanes ever batched");
        assert!(
            batched.engine.batch.lanes > batched.engine.batch.divergences,
            "every lane diverged — the batch engine shared no work: {:?}",
            batched.engine.batch
        );
        // And the default entry point is the batched engine.
        let default = run_campaign(&sp, &cfg);
        assert_eq!(default.tally, batched.tally);
        assert_eq!(default.engine, batched.engine);
    }

    /// The tally (and therefore every published number) is independent
    /// of the lane width — width only changes how much structural work
    /// is shared, never per-trial classification.
    #[test]
    fn batched_tally_is_lane_width_independent() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 60,
            ..Default::default()
        };
        let base = run_campaign_engine(&sp, &CampaignConfig { lanes: 2, ..cfg.clone() }, Engine::Batched);
        for width in [4usize, 16, 64] {
            let r = run_campaign_engine(&sp, &CampaignConfig { lanes: width, ..cfg.clone() }, Engine::Batched);
            assert_eq!(base.tally, r.tally, "lane width {width} changed the tally");
        }
    }

    /// Regression: one-dynamic-instruction programs (`halt` alone) must
    /// campaign cleanly under both engines and agree:
    /// the lone instruction has no output register, every strike
    /// slides off the end, and all trials are Benign.
    #[test]
    fn one_insn_program_campaigns_agree_across_engines() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        b.halt_imm(0);
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = sequential(&m);
        let cfg = CampaignConfig {
            trials: 25,
            ..Default::default()
        };
        let reference = run_campaign_engine(&sp, &cfg, Engine::Reference);
        assert_eq!(reference.golden_dyn, 1);
        assert_eq!(reference.tally.count(Outcome::Benign), 25);
        let batched = run_campaign_engine(&sp, &cfg, Engine::Batched);
        assert_eq!(batched.tally, reference.tally, "batched diverged");
    }

    /// Regression: zero-dynamic-instruction programs (an empty entry
    /// block that falls through) cannot be campaign targets — the
    /// golden run never halts — and both engines must refuse
    /// identically instead of panicking deep inside
    /// checkpoint or batch bookkeeping.
    #[test]
    fn zero_insn_program_is_refused_identically_by_all_engines() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main");
        let _unreachable = b.new_block("dead");
        let id = m.add_function(b.finish());
        m.entry = Some(id);
        let sp = sequential(&m);
        let cfg = CampaignConfig {
            trials: 5,
            ..Default::default()
        };
        for engine in [Engine::Reference, Engine::Batched] {
            let sp = sp.clone();
            let cfg = cfg.clone();
            let err = std::panic::catch_unwind(move || run_campaign_engine(&sp, &cfg, engine))
                .expect_err("engine accepted a never-halting golden run");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("must run fault-free to completion"),
                "{}: unexpected panic {msg:?}",
                engine.name()
            );
        }
    }

    /// Convergence-pruned trials classify identically to full-run
    /// classification: a campaign that demonstrably pruned (the
    /// benign-heavy unprotected loop guarantees re-convergent faults)
    /// still matches the reference tally class for class — pruning
    /// only ever short-circuits trials the full run calls Benign.
    #[test]
    fn pruned_trials_classify_identically_to_full_runs() {
        let sp = unprotected();
        let cfg = CampaignConfig {
            trials: 120,
            ..Default::default()
        };
        // One-trial chunks are singleton batches, so every trial takes
        // the single-trial replay path that prunes.
        let (replayed, completed) = run_campaign_streaming(&sp, &cfg, 1, &mut |_, _| true);
        assert!(completed);
        assert_eq!(replayed.engine.batch.lanes, 0, "a one-trial chunk ran a batch");
        assert!(
            replayed.engine.pruned_trials > 0,
            "campaign never pruned — the test is vacuous: {:?}",
            replayed.engine
        );
        let reference = run_campaign_engine(&sp, &cfg, Engine::Reference);
        assert_eq!(reference.tally, replayed.tally);
        // Pruned trials are a subset of the Benign class.
        assert!(replayed.engine.pruned_trials <= replayed.tally.count(Outcome::Benign) as u64);
    }

    #[test]
    fn engine_parse_round_trips() {
        for e in [Engine::Reference, Engine::Batched] {
            assert_eq!(Engine::parse(e.name()), Ok(e));
            // Every canonical name appears in the advertised flag help.
            assert!(Engine::ACCEPTED.contains(e.name()));
        }
        assert!(Engine::parse("warp-drive").is_err());
        assert_eq!(Engine::default(), Engine::Batched);
    }

    /// The retired checkpoint engine's name is an error naming both
    /// accepted engines, not a silent fallback to the default.
    #[test]
    fn retired_checkpointed_engine_is_rejected() {
        for name in ["checkpointed", "CHECKPOINTED"] {
            let err = Engine::parse(name).unwrap_err();
            assert!(err.contains(name), "{err}");
            assert!(err.contains("reference|batched"), "{err}");
        }
    }

    /// Regression (satellite): `parse` used to silently reject case
    /// variants like `Reference`, turning a shell-quoting slip into a
    /// fallback to the default engine.
    #[test]
    fn engine_parse_is_case_insensitive() {
        assert_eq!(Engine::parse("Reference"), Ok(Engine::Reference));
        assert_eq!(Engine::parse("REFERENCE"), Ok(Engine::Reference));
        assert_eq!(Engine::parse("Batched"), Ok(Engine::Batched));
        assert_eq!(Engine::parse("bAtChEd"), Ok(Engine::Batched));
        assert!(Engine::parse("").is_err());
    }

    /// Regression (satellite): `safe_fraction` subtracted two
    /// independently rounded divisions from 1.0; when the non-safe
    /// classes account for *all* trials the sum can exceed 1.0 by an
    /// ulp and coverage went negative (counts [0,0,0,4,1]:
    /// `1.0 - 4/5 - 1/5 = -5.55e-17`), leaking `-0.0000` into CSVs.
    #[test]
    fn safe_fraction_never_leaves_unit_interval() {
        let ulp_overshoot = Tally {
            counts: [0, 0, 0, 4, 1, 0],
        };
        // The raw subtraction really does overshoot — this pins the
        // arithmetic the clamp is protecting against.
        let raw = 1.0
            - ulp_overshoot.fraction(Outcome::DataCorrupt)
            - ulp_overshoot.fraction(Outcome::Timeout);
        assert!(raw < 0.0, "expected the ulp overshoot, got {raw:e}");
        assert_eq!(ulp_overshoot.safe_fraction(), 0.0);
        assert!(ulp_overshoot.safe_fraction().is_sign_positive());
        // Sweep small tallies: always within [0, 1].
        for dc in 0..12usize {
            for to in 0..12usize {
                for benign in 0..3usize {
                    let t = Tally {
                        counts: [benign, 0, 0, dc, to, 0],
                    };
                    let f = t.safe_fraction();
                    assert!((0.0..=1.0).contains(&f), "{t:?} -> {f}");
                }
            }
        }
    }

    #[test]
    fn classify_benign_vs_corrupt() {
        let sp = unprotected();
        let golden = simulate(&sp, &SimOptions::default());
        // Same result is benign.
        assert_eq!(classify(&golden, &golden), Outcome::Benign);
        // A run with altered stream is corrupt.
        let mut faulty = golden.clone();
        faulty.stream[0] = casted_ir::interp::OutVal::Int(-1);
        assert_eq!(classify(&golden, &faulty), Outcome::DataCorrupt);
        // Different exit code is corrupt even with same stream.
        let mut faulty2 = golden.clone();
        faulty2.stop = StopReason::Halt(99);
        assert_eq!(classify(&golden, &faulty2), Outcome::DataCorrupt);
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use casted_ir::testgen::{random_module, GenOptions};
    use casted_ir::vliw::{Bundle, ScheduledBlock};
    use casted_ir::{Cluster, MachineConfig};
    use std::collections::HashMap;

    fn sequential_of(m: &casted_ir::Module) -> ScheduledProgram {
        let config = MachineConfig::perfect_memory(1, 1);
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

    #[test]
    fn register_file_model_runs_and_is_deterministic() {
        let m = random_module(5, &GenOptions::default());
        let sp = sequential_of(&m);
        let cfg = CampaignConfig {
            trials: 30,
            ..Default::default()
        };
        let cfg = CampaignConfig {
            target: FaultModel::RegisterFile,
            ..cfg
        };
        let a = run_campaign(&sp, &cfg);
        let b = run_campaign(&sp, &cfg);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.tally.total(), 30);
    }

    #[test]
    fn output_model_delegates_to_default_campaign() {
        let m = random_module(9, &GenOptions::default());
        let sp = sequential_of(&m);
        let cfg = CampaignConfig {
            trials: 20,
            ..Default::default()
        };
        let explicit = CampaignConfig {
            target: FaultModel::InstructionOutput,
            ..cfg.clone()
        };
        let a = run_campaign(&sp, &explicit);
        let b = run_campaign(&sp, &cfg);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn register_file_model_engines_agree() {
        let m = random_module(5, &GenOptions::default());
        let sp = sequential_of(&m);
        let cfg = CampaignConfig {
            trials: 40,
            ..Default::default()
        };
        let cfg = CampaignConfig {
            target: FaultModel::RegisterFile,
            ..cfg
        };
        let a = run_campaign_engine(&sp, &cfg, Engine::Reference);
        let b = run_campaign_engine(&sp, &cfg, Engine::Batched);
        assert_eq!(a.tally, b.tally, "register-file model engines diverged");
    }

    #[test]
    fn models_differ_in_distribution() {
        // Register-file strikes hit dormant/dead registers far more
        // often, so the benign fraction should generally be higher.
        let m = random_module(12, &GenOptions::default());
        let sp = sequential_of(&m);
        let cfg = CampaignConfig {
            trials: 120,
            ..Default::default()
        };
        let out = run_campaign(&sp, &cfg);
        let rf = run_campaign(
            &sp,
            &CampaignConfig {
                target: FaultModel::RegisterFile,
                ..cfg.clone()
            },
        );
        assert_ne!(out.tally, rf.tally, "models should produce different tallies");
    }
}
