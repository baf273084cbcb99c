//! `coverage`: the Fig. 9 campaign grid. Every kernel × six named
//! schemes at issue 2, delay 2 on the 2-cluster machine gets a fixed,
//! seeded number of fault-injection trials on the default (batched)
//! engine through `casted_faults::run_campaign_engine`. Set-up compiles
//! and prepares every cell, so the timed phase is campaign work only.

use std::time::Instant;

use casted_faults::{CampaignConfig, CampaignResult, Engine, Outcome as Fault, Tally};
use casted_ir::MachineConfig;
use casted_passes::{Prepared, Scheme};
use casted_sim::SimOptions;
use casted_util::pool::run_pool;
use casted_util::rng::Rng;

use crate::host;
use crate::kernels::{self, scheme_tag, Compiled, Kernel};
use crate::metrics::{num, string, Outcome};
use crate::stats::{geomean, median, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{measure_passes, per_op_medians, repeated_setup};

/// The schemes measured — a fixed list, not every registered scheme.
const SCHEMES: [Scheme; 6] = [
    Scheme::Noed,
    Scheme::Sced,
    Scheme::Dced,
    Scheme::Casted,
    Scheme::Tmred,
    Scheme::Rbed,
];
const ISSUE: usize = 2;
const DELAY: u32 = 2;
/// Trials per cell and pass.
const TRIALS: usize = 64;
const SETUP_REPS: usize = 5;
/// Tail percentile of campaign latency: a pass has 42 campaigns, 10.5
/// beyond p75. A p99 would be the slowest TMRED campaign alone, whose
/// latency follows how many of its 64 seeded trials diverge and how
/// long those replay more than anything the code does.
const TAIL_Q: f64 = 0.75;

struct Cell {
    kernel: usize,
    scheme: Scheme,
    prep: Prepared,
}

struct CellRun {
    latency_s: f64,
    result: CampaignResult,
}

/// Compile the kernels, then prepare every cell on the pool.
fn setup(tracer: &Tracer) -> (Vec<Compiled>, Vec<Cell>) {
    tracer.span("bench.setup", "", None, 0, |span| {
        let kernels = kernels::compile(tracer, span);
        let config = MachineConfig::itanium2_like(ISSUE, DELAY);
        let specs: Vec<(usize, Scheme)> = (0..kernels.len())
            .flat_map(|k| SCHEMES.map(|s| (k, s)))
            .collect();
        let preps = run_pool(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(k, scheme))| {
                    let (kernels, config) = (&kernels, &config);
                    move || {
                        tracer.span("passes.prepare", scheme_tag(scheme), span, i as u64, |_| {
                            casted_passes::prepare(&kernels[k].module, scheme, config)
                        })
                    }
                })
                .collect(),
        );
        let cells = specs
            .into_iter()
            .zip(preps)
            .map(|((kernel, scheme), prep)| Cell {
                kernel,
                scheme,
                prep: prep.unwrap_or_else(|e| {
                    panic!(
                        "{} {scheme} does not prepare: {e}",
                        kernels[kernel].workload.name
                    )
                }),
            })
            .collect();
        (kernels, cells)
    })
}

fn campaign(seed: u64, scheme: Scheme) -> CampaignConfig {
    CampaignConfig {
        trials: TRIALS,
        seed,
        replay_detect: scheme.replay_detect(),
        ..CampaignConfig::default()
    }
}

/// One pass: every cell's campaign, from one client per lane, each
/// asking for its lane's campaigns one after another and waiting for
/// each. A 64-trial campaign fills a single 256-lane batch and so keeps
/// one thread busy; `nproc` clients keep every core busy and shorten
/// the pass enough for a run to hold three or more, over which each
/// campaign's latency is medianed. The lanes never change within or
/// between runs, so each campaign always shares the host with the same
/// others.
fn run_pass(
    cells: &[Cell],
    lanes: &[Vec<usize>],
    seeds: &[u64],
    tracer: &Tracer,
    pass: u64,
) -> Vec<CellRun> {
    tracer.span("bench.pass", "", None, pass, |span: Option<SpanId>| {
        let done: Vec<Vec<(usize, CellRun)>> = std::thread::scope(|s| {
            let clients: Vec<_> = lanes
                .iter()
                .map(|lane| {
                    s.spawn(move || {
                        lane.iter()
                            .map(|&i| {
                                let c = &cells[i];
                                let tag = scheme_tag(c.scheme);
                                let t0 = Instant::now();
                                let result =
                                    tracer.span("faults.campaign", tag, span, i as u64, |_| {
                                        casted_faults::run_campaign_engine(
                                            &c.prep.sp,
                                            &campaign(seeds[i], c.scheme),
                                            Engine::Batched,
                                        )
                                    });
                                let latency_s = t0.elapsed().as_secs_f64();
                                (i, CellRun { latency_s, result })
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("campaign client panicked"))
                .collect()
        });
        let mut runs: Vec<Option<CellRun>> = cells.iter().map(|_| None).collect();
        for (i, r) in done.into_iter().flatten() {
            runs[i] = Some(r);
        }
        runs.into_iter()
            .map(|r| r.expect("every cell is on one lane"))
            .collect()
    })
}

/// Split the cells over `clients` lanes, longest golden run first onto
/// the least-loaded lane. Golden cycles are deterministic, so every run
/// pairs the same campaigns.
fn lanes(golden_cycles: &[u64], clients: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..golden_cycles.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(golden_cycles[i]), i));
    let mut lanes = vec![Vec::new(); clients];
    let mut load = vec![0u64; clients];
    for i in order {
        let l = (0..clients).min_by_key(|&l| (load[l], l)).expect("a lane");
        load[l] += golden_cycles[i];
        lanes[l].push(i);
    }
    for lane in &mut lanes {
        lane.sort_unstable();
    }
    lanes
}

/// Trials per second of one pass's clients together: each client's
/// trials over the time it was busy, summed. A client that finishes its
/// lane early idles at the end of the pass only because passes are the
/// benchmark's unit of repetition; a client asking for campaigns in a
/// closed loop would not, so that idle time is left out, and with it
/// how evenly one seed's campaign costs happened to split over lanes.
fn clients_rate(lanes: &[Vec<usize>], latency_s: &[f64]) -> f64 {
    lanes
        .iter()
        .filter(|lane| !lane.is_empty())
        .map(|lane| {
            let busy: f64 = lane.iter().map(|&i| latency_s[i]).sum();
            (lane.len() * TRIALS) as f64 / busy
        })
        .sum()
}

/// Each cell's campaign seed, drawn from the run's seed. The injection
/// stream scales one draw to each program's length, so under a shared
/// seed every campaign would strike the same fraction of its run and
/// the same bit, and one seed's early or late strikes would slow or
/// speed all 42 campaigns together.
fn cell_seeds(seed: u64, cells: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..cells).map(|_| rng.next_u64()).collect()
}

fn label(kernels: &[Kernel], c: &Cell) -> String {
    format!("{} {}", kernels[c.kernel].name, c.scheme)
}

/// Tally checks: each campaign ran all its trials, and a repeated pass
/// under the same seed reproduces the first pass exactly.
fn check_pass(
    out: &mut Outcome,
    kernels: &[Kernel],
    cells: &[Cell],
    runs: &[CellRun],
    first: &[Tally],
) {
    out.attempted += (runs.len() * TRIALS) as u64;
    for ((c, r), reference) in cells.iter().zip(runs).zip(first) {
        if r.result.tally.total() != TRIALS {
            out.mismatch(format!(
                "{}: tally totals {} of {TRIALS} trials",
                label(kernels, c),
                r.result.tally.total()
            ));
        } else if r.result.tally != *reference {
            out.mismatch(format!(
                "{}: repeated campaign differs under the same seed",
                label(kernels, c)
            ));
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let tracer = if trace { Tracer::on() } else { Tracer::off() };
    let ((compiled, cells), setup_s) = repeated_setup(SETUP_REPS, &tracer, setup);
    let kernels = kernels::with_oracle(compiled, &tracer);
    let mut out = Outcome::default();
    // Golden-stream check: every prepared cell simulated fault-free must
    // reproduce the interpreter. It runs untraced and before the timed
    // phase, where it also warms the simulator's code and heap the way
    // the campaigns use them.
    let lanes = lanes(&verify_golden(&mut out, &kernels, &cells), host::nproc());
    let seeds = cell_seeds(seed, cells.len());

    let untraced = Tracer::off();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let measured = measure_passes(budget, |pass| {
        run_pass(&cells, &lanes, &seeds, &untraced, pass)
    });
    let first: Vec<Tally> = measured.passes[0]
        .iter()
        .map(|r| r.result.tally.clone())
        .collect();

    for runs in &measured.passes {
        check_pass(&mut out, &kernels, &cells, runs, &first);
    }
    let trials = measured.passes.len() * cells.len() * TRIALS;
    let latencies: Vec<Vec<f64>> = measured
        .passes
        .iter()
        .map(|pass| pass.iter().map(|r| r.latency_s).collect())
        .collect();
    let trials_per_s = median(
        &latencies
            .iter()
            .map(|pass| clients_rate(&lanes, pass))
            .collect::<Vec<_>>(),
    );

    // Headline numbers from the first pass (identical in every pass).
    let pass0 = &measured.passes[0];
    let golden = |k: usize, s: Scheme| {
        let i = cells
            .iter()
            .position(|c| c.kernel == k && c.scheme == s)
            .expect("cell in grid");
        pass0[i].result.golden_cycles as f64
    };
    let slowdown = geomean(
        &(0..kernels.len())
            .map(|k| golden(k, Scheme::Casted) / golden(k, Scheme::Noed))
            .collect::<Vec<_>>(),
    );
    let (mut sdc, mut protected_trials) = (0usize, 0usize);
    for (c, r) in cells.iter().zip(pass0) {
        if c.scheme != Scheme::Noed {
            sdc += r.result.tally.count(Fault::DataCorrupt);
            protected_trials += r.result.tally.total();
        }
    }
    let sdc_rate = ratio(sdc as f64, protected_trials as f64);

    out.set_e2e(
        trials_per_s,
        &latencies,
        TAIL_Q,
        slowdown,
        &setup_s,
        &measured.heap_peaks,
    );
    out.named(
        "trials_per_s",
        trials_per_s,
        "1/s",
        format!(
            "{trials} trials in {} passes of {} cells on {} clients; per pass the \
             clients' trials over their busy time, summed; median over passes",
            measured.passes.len(),
            cells.len(),
            lanes.len()
        ),
    );
    out.named(
        "sdc_rate",
        sdc_rate,
        "ratio",
        format!("{sdc} DataCorrupt of {protected_trials} protected-scheme trials"),
    );
    out.named(
        "slowdown_geomean",
        slowdown,
        "x",
        format!(
            "CASTED/NOED golden cycles at i{ISSUE} d{DELAY}, {} kernels",
            kernels.len()
        ),
    );
    out.fact("trials_per_cell", TRIALS.to_string());
    let campaign_ms: Vec<String> = cells
        .iter()
        .zip(per_op_medians(&latencies))
        .map(|(c, s)| format!("{}: {}", string(&label(&kernels, c)), num(s * 1e3)))
        .collect();
    out.fact("campaign_ms", format!("{{{}}}", campaign_ms.join(", ")));

    if trace {
        let t0 = Instant::now();
        let traced = run_pass(
            &cells,
            &lanes,
            &seeds,
            &tracer,
            measured.passes.len() as u64,
        );
        let traced_s = t0.elapsed().as_secs_f64();
        check_pass(&mut out, &kernels, &cells, &traced, &first);
        let per_pass_s = measured.wall_s / measured.passes.len() as f64;
        let mut e = casted_faults::EngineStats::default();
        for r in &traced {
            let s = &r.result.engine;
            e.skipped_insns += s.skipped_insns;
            e.pruned_trials += s.pruned_trials;
            e.batch.accumulate(s.batch);
        }
        let l = &mut out.layer;
        l.insert("faults.trials".into(), (cells.len() * TRIALS) as f64);
        l.insert("faults.sdc_rate".into(), sdc_rate);
        l.insert("faults.batch.lanes".into(), e.batch.lanes as f64);
        l.insert(
            "faults.batch.lane_insn_steps".into(),
            e.batch.lane_insn_steps as f64,
        );
        l.insert(
            "faults.batch.bundles_stepped".into(),
            e.batch.bundles_stepped as f64,
        );
        l.insert(
            "faults.batch.divergence_ratio".into(),
            ratio(e.batch.divergences as f64, e.batch.lanes as f64),
        );
        l.insert(
            "faults.checkpoint.skipped_insns".into(),
            e.skipped_insns as f64,
        );
        l.insert("faults.checkpoint.pruned".into(), e.pruned_trials as f64);
        l.insert("util.pool.busy_ratio".into(), measured.busy_ratio());
        l.insert(
            "trace.overhead_pct".into(),
            (traced_s / per_pass_s - 1.0) * 100.0,
        );
        out.fact(
            "trace_pass_s",
            format!("{{\"traced\": {traced_s}, \"untraced\": {per_pass_s}}}"),
        );
        out.fact(
            "divergence_base",
            format!(
                "{{\"diverged\": {}, \"lanes\": {}}}",
                e.batch.divergences, e.batch.lanes
            ),
        );
    }

    // Coverage drives the simulator only through the campaign engines,
    // so the full-run sim metrics stay 0 here.
    out.finish_trace(tracer, "coverage");
    out
}

/// Simulate every cell fault-free and check it against the interpreter;
/// returns each cell's golden cycle count.
fn verify_golden(out: &mut Outcome, kernels: &[Kernel], cells: &[Cell]) -> Vec<u64> {
    cells
        .iter()
        .map(|c| {
            let r = casted_sim::simulate(&c.prep.sp, &SimOptions::default());
            if !kernels[c.kernel].matches(&r.stop, &r.stream) {
                out.mismatch(format!(
                    "{}: golden output differs from the interpreter",
                    label(kernels, c)
                ));
            }
            r.stats.cycles
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_put_each_cell_on_one_lane_longest_first() {
        // 9 → lane 0; 7 → lane 1; 3 → lane 1 (7 < 9); 2 → lane 0 (9 < 10).
        assert_eq!(lanes(&[3, 9, 2, 7], 2), vec![vec![1, 2], vec![0, 3]]);
        assert_eq!(lanes(&[5, 5, 5], 1), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn clients_rate_sums_each_clients_busy_rate() {
        // Client 0: 2 campaigns in 1 s; client 1: 1 campaign in 2 s.
        let rate = clients_rate(&[vec![0, 2], vec![1]], &[0.25, 2.0, 0.75]);
        let want = (2 * TRIALS) as f64 / 1.0 + TRIALS as f64 / 2.0;
        assert!((rate - want).abs() < 1e-9);
    }

    #[test]
    fn cell_seeds_follow_the_run_seed() {
        let a = cell_seeds(7, 42);
        assert_eq!(a, cell_seeds(7, 42));
        assert_ne!(a, cell_seeds(8, 42));
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 42);
    }
}
