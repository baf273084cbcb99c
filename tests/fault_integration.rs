//! Fault-injection integration: the error-detection schemes must
//! actually detect faults that corrupt the unprotected program.

use casted::ir::MachineConfig;
use casted::Scheme;
use casted_faults::{run_campaign, run_campaign_engine, CampaignConfig, Engine, Outcome};

fn campaign(scheme: Scheme, trials: usize) -> casted_faults::CampaignResult {
    let module = casted_workloads::by_name("mpeg2dec").unwrap().compile().unwrap();
    let cfg = MachineConfig::itanium2_like(2, 2);
    let prep = casted::build(&module, scheme, &cfg).unwrap();
    run_campaign(
        &prep.sp,
        &CampaignConfig {
            trials,
            seed: 7,
            timeout_factor: 8,
            ..CampaignConfig::default()
        },
    )
}

#[test]
fn unprotected_never_detects_but_gets_corrupted() {
    let r = campaign(Scheme::Noed, 40);
    assert_eq!(r.tally.count(Outcome::Detected), 0);
    assert!(
        r.tally.count(Outcome::DataCorrupt) > 0,
        "40 injections into NOED should corrupt at least once: {:?}",
        r.tally
    );
}

#[test]
fn protected_schemes_detect_faults() {
    for scheme in [Scheme::Sced, Scheme::Dced, Scheme::Casted] {
        let r = campaign(scheme, 40);
        assert!(
            r.tally.count(Outcome::Detected) > 0,
            "{scheme} detected nothing: {:?}",
            r.tally
        );
    }
}

#[test]
fn protection_reduces_silent_corruption() {
    let noed = campaign(Scheme::Noed, 60);
    let casted = campaign(Scheme::Casted, 60);
    let noed_bad = noed.tally.fraction(Outcome::DataCorrupt);
    let casted_bad = casted.tally.fraction(Outcome::DataCorrupt);
    assert!(
        casted_bad <= noed_bad,
        "CASTED corrupt {casted_bad:.2} > NOED corrupt {noed_bad:.2}"
    );
}

/// The batched engine (lockstep lanes over one shared golden replay
/// from golden-run snapshots, with fast-forward replay and
/// convergence pruning for diverged lanes) must tally
/// byte-identically to the reference engine on a real workload under
/// every scheme — the integration-level face of the equivalence the
/// unit tests, the difftest oracle layer and `scripts/ci.sh` all pin.
#[test]
fn engines_agree_on_real_workload_across_schemes() {
    let module = casted_workloads::by_name("mpeg2dec").unwrap().compile().unwrap();
    let cfg = MachineConfig::itanium2_like(2, 2);
    let ccfg = CampaignConfig {
        trials: 30,
        seed: 7,
        timeout_factor: 8,
        ..CampaignConfig::default()
    };
    for scheme in Scheme::ALL {
        let prep = casted::build(&module, scheme, &cfg).unwrap();
        let reference = run_campaign_engine(&prep.sp, &ccfg, Engine::Reference);
        let batched = run_campaign_engine(&prep.sp, &ccfg, Engine::Batched);
        assert_eq!(reference.tally, batched.tally, "{scheme}: batched engine diverged");
        assert_eq!(reference.golden_cycles, batched.golden_cycles, "{scheme}");
        assert_eq!(reference.golden_dyn, batched.golden_dyn, "{scheme}");
        assert!(
            batched.engine.checkpoints > 1 && batched.engine.batch.lanes > 0,
            "{scheme}: batched engine did no engine work: {:?}",
            batched.engine
        );
    }
}

/// Edit one kernel, keep the cache: the compositional section cache
/// (docs/INCREMENTAL.md) must reuse sections untouched by the edit
/// (hits), re-inject the invalidated ones (misses), and recombine to
/// the exact bytes of a cold reference campaign on the edited
/// program — the integration-level face of the exactness the unit
/// and property tests pin on generated modules.
#[test]
fn incremental_rerun_after_kernel_edit_is_exact() {
    use casted_faults::{run_campaign_incremental, SectionStore};

    let module = casted_workloads::by_name("mpeg2dec").unwrap().compile().unwrap();
    let cfg = MachineConfig::itanium2_like(2, 2);
    // Enough trials that the frozen stream (seed 7) deterministically
    // lands at least one injection in the epilogue section the edit
    // below invalidates. Cold baselines use the batched engine — the
    // engines are byte-identical (pinned by the unit, property,
    // difftest and CI layers), so any of them is "the" full campaign.
    let ccfg = CampaignConfig {
        trials: 120,
        seed: 7,
        timeout_factor: 8,
        ..CampaignConfig::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "casted-integration-sections-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SectionStore::open(&dir).expect("open section store");

    // Cold run populates the store and must already match the engines.
    let prep = casted::build(&module, Scheme::Casted, &cfg).unwrap();
    let cold = run_campaign_incremental(&prep.sp, &ccfg, &store);
    let reference = run_campaign_engine(&prep.sp, &ccfg, Engine::Batched);
    assert_eq!(cold.tally, reference.tally, "cold incremental != batched");
    assert!(cold.engine.sections.total > 1, "workload should split into sections");

    // Edit one kernel: change the program's exit code. The epilogue
    // section is invalidated; everything upstream of it is not.
    let mut edited = module.clone();
    let f = edited.entry_fn_mut();
    let h = f
        .insns
        .iter()
        .position(|i| i.op == casted::ir::Opcode::Halt)
        .expect("entry fn halts");
    f.insns[h].imm = 7;
    let eprep = casted::build(&edited, Scheme::Casted, &cfg).unwrap();
    let warm = run_campaign_incremental(&eprep.sp, &ccfg, &store);
    assert!(
        warm.engine.sections.hit >= 1,
        "edit-one-kernel rerun reused nothing: {:?}",
        warm.engine.sections
    );
    assert!(
        warm.engine.sections.miss >= 1,
        "edit did not invalidate any section: {:?}",
        warm.engine.sections
    );
    let ereference = run_campaign_engine(&eprep.sp, &ccfg, Engine::Batched);
    assert_eq!(
        warm.tally, ereference.tally,
        "recombined tally != cold campaign of the edited program"
    );
    assert_eq!(warm.golden_cycles, ereference.golden_cycles);
    assert_eq!(warm.golden_dyn, ereference.golden_dyn);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaigns_are_reproducible() {
    let a = campaign(Scheme::Casted, 25);
    let b = campaign(Scheme::Casted, 25);
    assert_eq!(a.tally, b.tally);
    assert_eq!(a.golden_cycles, b.golden_cycles);
}

/// Coverage must be configuration-insensitive (the paper's Fig. 10
/// claim), modulo Monte-Carlo noise.
#[test]
fn coverage_insensitive_to_configuration() {
    let module = casted_workloads::by_name("mpeg2dec").unwrap().compile().unwrap();
    let mut safes = Vec::new();
    for (issue, delay) in [(1, 1), (4, 4)] {
        let cfg = MachineConfig::itanium2_like(issue, delay);
        let prep = casted::build(&module, Scheme::Casted, &cfg).unwrap();
        let r = run_campaign(
            &prep.sp,
            &CampaignConfig {
                trials: 60,
                seed: 11,
                timeout_factor: 8,
                ..CampaignConfig::default()
            },
        );
        safes.push(r.tally.safe_fraction());
    }
    let spread = (safes[0] - safes[1]).abs();
    assert!(
        spread < 0.2,
        "safe fraction varies too much across configs: {safes:?}"
    );
}
