//! Property test for native majority voting in the batched engine:
//! over random programs prepared under TMRED, every batch lane the
//! engine settles itself (everything but `Diverged`, which the
//! campaign replays) must carry exactly the outcome `replay_trial` +
//! `classify` gives that trial — `Corrected` included — under the
//! single-bit and both burst flip models.
//!
//! Injection sites are biased toward the defs of
//! `Provenance::Original` instructions, i.e. toward strikes on one of
//! the three copies, which is where a vote has something to out-vote.
//!
//! Driven by the in-repo harness (`casted_util::prop`).

use casted_faults::{classify, lane_outcome, FlipModel, Outcome};
use casted_ir::interp::StopReason;
use casted_ir::testgen::{random_module, GenOptions};
use casted_ir::{MachineConfig, Provenance};
use casted_passes::{prepare, Scheme};
use casted_sim::{
    golden_with_checkpoints, replay_trial, run_batch_auto, simulate_quiet, Injection, SimOptions,
    TrialRun,
};
use casted_util::prop::run_cases;
use casted_util::prop_assert_eq;

fn opts() -> GenOptions {
    GenOptions {
        body_ops: 20,
        iterations: 4,
        globals: 2,
        with_float: true,
        diamonds: 1,
        inner_loops: 1,
        lib_calls: 1,
    }
}

fn random_config(rng: &mut casted_util::Rng) -> MachineConfig {
    let clusters = rng.gen_range(1..=2usize);
    let delay = rng.gen_range(1..=4u32);
    if rng.gen_range(0..2u32) == 0 {
        MachineConfig::perfect_memory(clusters, delay)
    } else {
        MachineConfig::itanium2_like(clusters, delay)
    }
}

#[test]
fn tmred_batch_lanes_match_replay_classification() {
    let mut corrected = 0usize;
    let mut settled = 0usize;
    run_cases("tmred_batch_lanes_match_replay_classification", 40, |rng| {
        let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
        let Ok(prep) = prepare(&m, Scheme::Tmred, &random_config(rng)) else {
            return Ok(()); // not a TMRED-preparable program; skip
        };
        let sp = prep.sp;
        let trace = golden_with_checkpoints(&sp);
        if !matches!(trace.result.stop, StopReason::Halt(_)) {
            return Ok(()); // campaign preconditions not met; skip
        }
        let dyn_insns = trace.result.stats.dyn_insns;
        let max_cycles = trace.result.stats.cycles.saturating_mul(10);

        // Dynamic sites whose instruction is an Original-provenance
        // def: a strike there hits exactly one of the three copies.
        let traced = simulate_quiet(
            &sp,
            &SimOptions {
                trace_limit: dyn_insns as usize,
                ..SimOptions::default()
            },
        );
        let func = sp.module.entry_fn();
        let copy_sites: Vec<u64> = traced
            .trace
            .iter()
            .enumerate()
            .filter_map(|(k, te)| {
                let insn = func.insn(te.insn);
                (insn.def().is_some() && insn.prov == Provenance::Original).then_some(k as u64 + 1)
            })
            .collect();

        for flip in [FlipModel::Single, FlipModel::Burst2, FlipModel::Burst4] {
            let width = flip.width();
            let injections: Vec<Injection> = (0..24)
                .map(|_| {
                    // Three in four strikes land on a copy.
                    let at = if !copy_sites.is_empty() && rng.gen_range(0..4u32) != 0 {
                        copy_sites[rng.gen_range(0..copy_sites.len())]
                    } else {
                        rng.gen_range(1..=dyn_insns)
                    };
                    Injection {
                        width,
                        phase: rng.gen_range(0..width as u32) as u8,
                        ..Injection::single(at, rng.gen_range(0..64u32), None)
                    }
                })
                .collect();

            let (verdicts, stats) = run_batch_auto(&sp, &trace, &injections, max_cycles);
            prop_assert_eq!(verdicts.len(), injections.len());
            for (v, &inj) in verdicts.iter().zip(&injections) {
                let Some(batch) = lane_outcome(*v) else {
                    continue; // Diverged: the campaign replays it
                };
                let replayed = match replay_trial(&sp, &trace, inj, max_cycles).0 {
                    TrialRun::Finished(r) => classify(&trace.result, &r),
                    TrialRun::Converged => Outcome::Benign,
                };
                prop_assert_eq!(
                    batch,
                    replayed,
                    "{flip:?} lane at={} bit={} phase={} verdict {v:?} disagrees with its replay",
                    inj.at_dyn_insn,
                    inj.bit,
                    inj.phase
                );
                settled += 1;
            }
            corrected += stats.retired_corrected as usize;
        }
        Ok(())
    });
    // The property is vacuous unless votes actually corrected in-batch.
    assert!(corrected > 0, "no lane retired Corrected ({settled} lanes settled in-batch)");
}
