//! Campaign throughput: the batched fault-injection engine against
//! the reference engine, measured in **trials/sec**
//! over the quick coverage grid (three representative benchmarks ×
//! all six schemes at issue 2, delay 2 — the same cells `fig9
//! --quick` runs). A per-scheme breakdown (batched engine) records
//! what each protection level costs in campaign throughput: TMRED
//! trials retire ~3x the instructions, RBED trials add the digest
//! side computation.
//!
//! Both engines consume the identical frozen injection stream and, as
//! a precondition of the measurement, are cross-checked here to
//! produce byte-identical tallies. The batched engine is additionally
//! swept over lane widths (8–300 lanes per batch) to expose how the
//! structure-of-arrays stepping scales with batch width. Results are printed in the
//! in-repo runner's format and written to `BENCH_faults.json` at the
//! workspace root (median/MAD over the timed samples, plus the
//! batched engine's speedup over reference) so the perf trajectory has a
//! recorded datapoint; see `docs/PERFORMANCE.md` for the field
//! reference. Samples are interleaved round-robin across all engines
//! and widths so slow host drift cannot bias one row's median.
//! `CASTED_BENCH_QUICK=1` drops to a single sample for smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use casted_faults::{
    run_campaign_engine, run_campaign_incremental, CampaignConfig, Engine, SectionStore,
    DEFAULT_LANE_WIDTH,
};
use casted_ir::vliw::ScheduledProgram;
use casted_ir::MachineConfig;
use casted_util::bench::median_mad;

const TRIALS: usize = 300;
const SAMPLES: usize = 5;
const LANE_SWEEP: &[usize] = &[8, 16, 64, 150, 300];

struct Cell {
    label: String,
    scheme: casted::Scheme,
    sp: ScheduledProgram,
}

/// The fig9 --quick cells; with `edit`, cjpeg's halt immediate is
/// flipped first — the one-section edit of the incremental-rerun
/// scenario (only cjpeg's epilogue sections change; everything
/// upstream of them, and the two untouched benchmarks entirely,
/// stays cached).
fn quick_grid_cells(edit: bool) -> Vec<Cell> {
    let config = MachineConfig::itanium2_like(2, 2);
    let mut cells = Vec::new();
    for name in ["cjpeg", "h263enc", "181.mcf"] {
        let mut module = casted_workloads::by_name(name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"))
            .compile()
            .expect("compile failed");
        if edit && name == "cjpeg" {
            let f = module.entry_fn_mut();
            let h = f
                .insns
                .iter()
                .position(|i| i.op == casted_ir::Opcode::Halt)
                .expect("entry fn halts");
            f.insns[h].imm = 7;
        }
        for scheme in casted::Scheme::FULL {
            let prep = casted_passes::prepare(&module, scheme, &config).expect("prepare failed");
            cells.push(Cell {
                label: format!("{name}/{}", scheme.name()),
                scheme,
                sp: prep.sp,
            });
        }
    }
    cells
}

/// Per-cell campaign config: RBED cells need the replay-digest
/// detector armed, exactly as `fig9` arms it per scheme.
fn cell_campaign(base: &CampaignConfig, cell: &Cell) -> CampaignConfig {
    CampaignConfig {
        replay_detect: cell.scheme.replay_detect(),
        ..*base
    }
}

/// Time one full pass over the grid with `engine` at batch width
/// `lanes`; returns trials/sec.
fn sample(cells: &[Cell], campaign: &CampaignConfig, engine: Engine, lanes: usize) -> f64 {
    let t0 = Instant::now();
    for cell in cells {
        let cfg = CampaignConfig {
            lanes,
            ..cell_campaign(campaign, cell)
        };
        casted_util::bench::black_box(run_campaign_engine(&cell.sp, &cfg, engine));
    }
    let secs = t0.elapsed().as_secs_f64();
    (cells.len() * campaign.trials) as f64 / secs
}

/// Measure every configuration with samples interleaved round-robin
/// (one sample of each per round) rather than back-to-back: the host's
/// throughput drifts on a scale of minutes, and consecutive sampling
/// would fold that drift into whichever engine happened to run during
/// a slow stretch. Interleaving lands the drift evenly, so the
/// *ratios* between rows compare like with like.
fn measure_all(
    cells: &[Cell],
    campaign: &CampaignConfig,
    configs: &[(Engine, usize)],
    samples: usize,
) -> Vec<(f64, f64)> {
    let mut rates: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); configs.len()];
    for _ in 0..samples {
        for (i, &(engine, lanes)) in configs.iter().enumerate() {
            rates[i].push(sample(cells, campaign, engine, lanes));
        }
    }
    rates.iter_mut().map(|r| median_mad(r)).collect()
}

fn print_row(label: &str, med: f64, mad: f64, samples: usize) {
    println!(
        "bench {:<50} median {:>10.0} trials/s  mad {:>9.0}  (n={samples})",
        label, med, mad
    );
}

fn main() {
    let quick = std::env::var("CASTED_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let samples = if quick { 1 } else { SAMPLES };
    let cells = quick_grid_cells(false);
    let campaign = CampaignConfig {
        trials: TRIALS,
        ..Default::default()
    };

    // Precondition: same seed, same trial count, byte-identical
    // tallies — otherwise trials/sec compares different work.
    for cell in &cells {
        let ccfg = cell_campaign(&campaign, cell);
        let r = run_campaign_engine(&cell.sp, &ccfg, Engine::Reference);
        let batched = run_campaign_engine(&cell.sp, &ccfg, Engine::Batched);
        assert_eq!(r.tally, batched.tally, "{}: batched disagrees with reference", cell.label);
    }

    let mut configs: Vec<(Engine, usize)> = vec![
        (Engine::Reference, DEFAULT_LANE_WIDTH),
        (Engine::Batched, DEFAULT_LANE_WIDTH),
    ];
    configs.extend(LANE_SWEEP.iter().map(|&w| (Engine::Batched, w)));
    let measured = measure_all(&cells, &campaign, &configs, samples);

    let (ref_med, ref_mad) = measured[0];
    let (batch_med, batch_mad) = measured[1];
    let batch_speedup = batch_med / ref_med;

    print_row("faults_campaign/reference", ref_med, ref_mad, samples);
    print_row(
        &format!("faults_campaign/batched(w={DEFAULT_LANE_WIDTH})"),
        batch_med,
        batch_mad,
        samples,
    );

    let mut sweep = Vec::new();
    for (&w, &(med, mad)) in LANE_SWEEP.iter().zip(&measured[2..]) {
        print_row(&format!("faults_campaign/batched/lanes={w}"), med, mad, samples);
        sweep.push((w, med, mad));
    }

    println!("batched/reference speedup: {batch_speedup:.2}x (median trials/sec)");

    // Per-scheme breakdown on the batched engine: same trials, same
    // seed, but each scheme's binary does different work per trial —
    // this is the campaign-side cost of the protection ladder.
    let mut scheme_rows: Vec<(&str, f64, f64)> = Vec::new();
    {
        let mut rates: Vec<Vec<f64>> =
            vec![Vec::with_capacity(samples); casted::Scheme::FULL.len()];
        for _ in 0..samples {
            for (i, scheme) in casted::Scheme::FULL.into_iter().enumerate() {
                let subset: Vec<&Cell> =
                    cells.iter().filter(|c| c.scheme == scheme).collect();
                let t0 = Instant::now();
                for cell in &subset {
                    casted_util::bench::black_box(run_campaign_engine(
                        &cell.sp,
                        &cell_campaign(&campaign, cell),
                        Engine::Batched,
                    ));
                }
                rates[i].push(
                    (subset.len() * campaign.trials) as f64 / t0.elapsed().as_secs_f64(),
                );
            }
        }
        for (scheme, r) in casted::Scheme::FULL.into_iter().zip(rates.iter_mut()) {
            let (med, mad) = median_mad(r);
            print_row(&format!("faults_campaign/scheme/{}", scheme.name()), med, mad, samples);
            scheme_rows.push((scheme.name(), med, mad));
        }
    }

    // Incremental section-cache scenario (docs/INCREMENTAL.md): a cold
    // run populates the store, then the program is edited in one
    // section (epilogue halt code) and re-run warm — only the
    // invalidated epilogue sections re-inject; every other trial
    // recombines from the cache. Each sample round starts from an
    // empty store so cold stays cold and the warm store always holds
    // exactly one cold run's records.
    // Restricted to the dup-compare/NOED cells: the section evidence
    // vocabulary cannot recombine vote corrections or digest plans
    // (recovery-scheme campaigns fall back to the standard engine),
    // so including them would only re-measure the batched rows.
    let cacheable = |c: &&Cell| !c.scheme.corrects() && !c.scheme.replay_detect();
    let edited = quick_grid_cells(true);
    let inc_cells: Vec<&Cell> = cells.iter().filter(cacheable).collect();
    let inc_edited: Vec<&Cell> = edited.iter().filter(cacheable).collect();
    let dir = std::env::temp_dir().join(format!("casted-bench-sections-{}", std::process::id()));
    let trials_per_pass = (inc_cells.len() * campaign.trials) as f64;
    let mut cold_rates = Vec::with_capacity(samples);
    let mut warm_rates = Vec::with_capacity(samples);
    for s in 0..samples {
        let _ = std::fs::remove_dir_all(&dir);
        let store = SectionStore::open(&dir).expect("open bench section store");
        let t0 = Instant::now();
        for cell in &inc_cells {
            casted_util::bench::black_box(run_campaign_incremental(&cell.sp, &campaign, &store));
        }
        cold_rates.push(trials_per_pass / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for cell in &inc_edited {
            let r = run_campaign_incremental(&cell.sp, &campaign, &store);
            if s == 0 {
                assert!(
                    r.engine.sections.hit > 0,
                    "{}: edited rerun reused nothing",
                    cell.label
                );
            }
            casted_util::bench::black_box(r);
        }
        warm_rates.push(trials_per_pass / t0.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (inc_cold_med, inc_cold_mad) = median_mad(&mut cold_rates);
    let (inc_warm_med, inc_warm_mad) = median_mad(&mut warm_rates);
    let inc_speedup = inc_warm_med / inc_cold_med;
    print_row("faults_campaign/incremental_cold", inc_cold_med, inc_cold_mad, samples);
    print_row(
        "faults_campaign/incremental_warm(edit 1 section)",
        inc_warm_med,
        inc_warm_mad,
        samples,
    );
    println!("incremental warm/cold speedup: {inc_speedup:.2}x (median trials/sec)");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"faults_campaign_throughput\",");
    let _ = writeln!(
        json,
        "  \"grid\": \"quick coverage grid: cjpeg+h263enc+181.mcf x 6 schemes, issue 2, delay 2\","
    );
    let _ = writeln!(json, "  \"cells\": {},", cells.len());
    let _ = writeln!(json, "  \"trials_per_campaign\": {TRIALS},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"lane_width\": {DEFAULT_LANE_WIDTH},");
    let _ = writeln!(json, "  \"trials_per_sec\": {{");
    let _ = writeln!(
        json,
        "    \"reference\": {{\"median\": {ref_med:.1}, \"mad\": {ref_mad:.1}}},"
    );
    let _ = writeln!(
        json,
        "    \"batched\": {{\"median\": {batch_med:.1}, \"mad\": {batch_mad:.1}}}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"lane_sweep\": [");
    for (i, (w, med, mad)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"lanes\": {w}, \"median\": {med:.1}, \"mad\": {mad:.1}, \"speedup\": {:.2}}}{comma}",
            med / ref_med
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"per_scheme\": {{");
    for (i, (name, med, mad)) in scheme_rows.iter().enumerate() {
        let comma = if i + 1 < scheme_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"median\": {med:.1}, \"mad\": {mad:.1}}}{comma}"
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"incremental\": {{");
    let _ = writeln!(
        json,
        "    \"cold\": {{\"median\": {inc_cold_med:.1}, \"mad\": {inc_cold_mad:.1}}},"
    );
    let _ = writeln!(
        json,
        "    \"warm_after_edit\": {{\"median\": {inc_warm_med:.1}, \"mad\": {inc_warm_mad:.1}}},"
    );
    let _ = writeln!(json, "    \"speedup_incremental_warm\": {inc_speedup:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup_batched_median\": {batch_speedup:.2}");
    let _ = writeln!(json, "}}");

    // cargo runs bench targets with the package directory as cwd;
    // anchor the artifact at the workspace root via the manifest dir.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_faults.json");
    std::fs::write(&out, &json).expect("write BENCH_faults.json");
    println!("[wrote {}]", out.display());
}
