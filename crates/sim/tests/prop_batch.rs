//! Property tests for the batched trial engine: for randomly
//! generated programs, random machine configurations and random
//! injection sites, a batch of N lanes must classify every lane it
//! keeps (everything except `Diverged`, which the campaign replays
//! individually) exactly like N independent `replay_trial` runs.
//!
//! Injection sites are deliberately biased toward **checkpoint
//! boundaries** — the dynamic-instruction counts where
//! `GoldenTrace::restore_index` switches buckets — because an
//! off-by-one there silently lands the flip on the wrong instruction
//! while still producing a plausible tally.
//!
//! Driven by the in-repo harness (`casted_util::prop`).

use casted_ir::interp::StopReason;
use casted_ir::testgen::{random_module, GenOptions};
use casted_ir::vliw::{Bundle, ScheduledBlock, ScheduledProgram};
use casted_ir::{Cluster, MachineConfig, Module};
use casted_sim::{
    golden_with_checkpoints, replay_trial, run_batch, run_batch_auto, simulate_quiet, GoldenTrace,
    Injection, LaneVerdict, SimOptions, TrialRun,
};
use casted_util::prop::run_cases;
use casted_util::prop_assert_eq;
use std::collections::HashMap;

fn opts() -> GenOptions {
    GenOptions {
        body_ops: 25,
        iterations: 5,
        globals: 2,
        with_float: true,
        diamonds: 1,
        inner_loops: 1,
        lib_calls: 1,
    }
}

/// One-instruction-per-bundle sequential schedule on cluster 0.
fn sequential(module: &Module, config: MachineConfig) -> ScheduledProgram {
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

fn random_config(rng: &mut casted_util::Rng) -> MachineConfig {
    let clusters = rng.gen_range(1..=2usize);
    let delay = rng.gen_range(1..=4u32);
    if rng.gen_range(0..2u32) == 0 {
        MachineConfig::perfect_memory(clusters, delay)
    } else {
        MachineConfig::itanium2_like(clusters, delay)
    }
}

/// The dynamic-instruction counts at which `restore_index` switches
/// buckets, found by probing the public partition rule itself (the
/// checkpoint list is private). Site `b` in the result is the first
/// injection site served by a deeper checkpoint than site `b - 1`.
fn boundary_sites(trace: &GoldenTrace, dyn_insns: u64) -> Vec<u64> {
    let mut sites = Vec::new();
    let mut prev = trace.restore_index(1);
    for at in 2..=dyn_insns {
        let idx = trace.restore_index(at);
        if idx != prev {
            sites.push(at);
            prev = idx;
        }
    }
    sites
}

/// Classify one injection through the independent per-trial path the
/// campaign trusts (`replay_trial`, itself property-tested against
/// from-scratch simulation in `prop_checkpoint.rs`). Golden output
/// after a vote correction is "corrected", as `casted_faults::classify`
/// has it.
fn replay_class(
    sp: &ScheduledProgram,
    trace: &GoldenTrace,
    inj: Injection,
    max_cycles: u64,
) -> &'static str {
    match replay_trial(sp, trace, inj, max_cycles) {
        (TrialRun::Finished(r), _) => match r.stop {
            StopReason::Detected => "detected",
            StopReason::Exception(_) => "exception",
            StopReason::Timeout => "timeout",
            StopReason::Halt(code) => {
                let g = &trace.result;
                let same = g.stop == StopReason::Halt(code)
                    && g.stream.len() == r.stream.len()
                    && g.stream.iter().zip(&r.stream).all(|(a, b)| a.bit_eq(b));
                match (same, r.stats.corrections > 0) {
                    (true, false) => "benign",
                    (true, true) => "corrected",
                    (false, _) => "corrupt",
                }
            }
        },
        (TrialRun::Converged, _) => "benign",
    }
}

fn verdict_class(v: LaneVerdict) -> Option<&'static str> {
    match v {
        LaneVerdict::Halted {
            matches_golden: true,
        }
        | LaneVerdict::Converged => Some("benign"),
        LaneVerdict::Halted {
            matches_golden: false,
        } => Some("corrupt"),
        LaneVerdict::Corrected => Some("corrected"),
        LaneVerdict::Detected => Some("detected"),
        LaneVerdict::Exception => Some("exception"),
        LaneVerdict::Timeout => Some("timeout"),
        LaneVerdict::Diverged => None,
    }
}

#[test]
fn batch_matches_independent_replays_at_checkpoint_boundaries() {
    run_cases(
        "batch_matches_independent_replays_at_checkpoint_boundaries",
        16,
        |rng| {
            let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
            let sp = sequential(&m, random_config(rng));
            let golden = simulate_quiet(&sp, &SimOptions::default());
            if !matches!(golden.stop, StopReason::Halt(_)) {
                return Ok(()); // campaign preconditions not met; skip
            }
            let trace = golden_with_checkpoints(&sp);
            let dyn_insns = golden.stats.dyn_insns;
            let max_cycles = golden.stats.cycles.saturating_mul(10);

            // Every checkpoint-boundary site, its neighbours, and a
            // handful of uniform sites — one batch over all of them.
            let mut sites: Vec<u64> = Vec::new();
            for b in boundary_sites(&trace, dyn_insns) {
                sites.push(b - 1);
                sites.push(b);
                sites.push((b + 1).min(dyn_insns));
            }
            for _ in 0..6 {
                sites.push(rng.gen_range(1..=dyn_insns));
            }
            let injections: Vec<Injection> = sites
                .iter()
                .map(|&at| Injection::single(at, rng.gen_range(0..64u32), None))
                .collect();

            let (verdicts, stats) = run_batch_auto(&sp, &trace, &injections, max_cycles);
            prop_assert_eq!(verdicts.len(), injections.len());
            prop_assert_eq!(stats.lanes, injections.len() as u64);
            for (v, &inj) in verdicts.iter().zip(&injections) {
                let Some(batch_class) = verdict_class(*v) else {
                    continue; // Diverged: the campaign replays it
                };
                prop_assert_eq!(
                    batch_class,
                    replay_class(&sp, &trace, inj, max_cycles),
                    "lane at={} bit={} verdict {v:?} disagrees with its independent replay",
                    inj.at_dyn_insn,
                    inj.bit
                );
            }
            Ok(())
        },
    );
}

#[test]
fn explicit_checkpoint_grouping_matches_auto_restore() {
    run_cases("explicit_checkpoint_grouping_matches_auto_restore", 10, |rng| {
        let m = random_module(rng.gen_range(0..1u64 << 48), &opts());
        let sp = sequential(&m, random_config(rng));
        let golden = simulate_quiet(&sp, &SimOptions::default());
        if !matches!(golden.stop, StopReason::Halt(_)) {
            return Ok(());
        }
        let trace = golden_with_checkpoints(&sp);
        let dyn_insns = golden.stats.dyn_insns;
        let max_cycles = golden.stats.cycles.saturating_mul(10);

        // Group sites by restore bucket (the campaign's partition) and
        // run each group from its own checkpoint: verdict classes must
        // match the whole-list auto batch, lane for lane.
        let injections: Vec<Injection> = (0..12)
            .map(|_| Injection::single(rng.gen_range(1..=dyn_insns), rng.gen_range(0..64u32), None))
            .collect();
        let (auto, _) = run_batch_auto(&sp, &trace, &injections, max_cycles);

        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, inj) in injections.iter().enumerate() {
            groups
                .entry(trace.restore_index(inj.at_dyn_insn))
                .or_default()
                .push(i);
        }
        for (ckpt_idx, ids) in groups {
            let group: Vec<Injection> = ids.iter().map(|&i| injections[i]).collect();
            let (verdicts, _) = run_batch(&sp, &trace, ckpt_idx, &group, max_cycles);
            for (v, &i) in verdicts.iter().zip(&ids) {
                // A lane may diverge in one grouping and not the other
                // only if materialization order differs — it cannot:
                // both restore strictly before the site. Classes of
                // retained lanes must agree exactly.
                match (verdict_class(*v), verdict_class(auto[i])) {
                    (Some(a), Some(b)) => prop_assert_eq!(
                        a,
                        b,
                        "lane at={} classified {a:?} from checkpoint {ckpt_idx} but {b:?} in the auto batch",
                        injections[i].at_dyn_insn
                    ),
                    _ => {
                        // Diverged on either side: the campaign would
                        // replay it; nothing to compare.
                    }
                }
            }
        }
        Ok(())
    });
}
