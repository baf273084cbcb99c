//! `perf_grid`: the slowdown grid of Figs. 6/7. Every kernel × the
//! paper's four schemes × issue 1–4 × delay 1–4 is prepared
//! (`casted_passes::prepare`) and simulated fault-free
//! (`casted_sim::simulate`) once per pass; delay-insensitive schemes
//! (single-cluster placement) are measured once per issue width, as
//! `perf_sweep` does. Cells run on the `casted_util` pool.

use std::collections::HashMap;
use std::time::Instant;

use casted_ir::MachineConfig;
use casted_passes::{Placement, Scheme};
use casted_sim::SimOptions;
use casted_util::pool::run_pool;

use crate::kernels::{self, scheme_tag, Kernel};
use crate::metrics::{Outcome, PassSimCounts};
use crate::stats::geomean;
use crate::trace::{SpanId, Tracer};
use crate::{measure_passes, repeated_setup, Phase};

const ISSUES: [usize; 4] = [1, 2, 3, 4];
const DELAYS: [u32; 4] = [1, 2, 3, 4];
const SETUP_REPS: usize = 201;
/// Tail percentile of cell latency: a pass has 280 cells, 14 beyond p95.
const TAIL_Q: f64 = 0.95;

#[derive(Clone, Copy)]
struct Cell {
    kernel: usize,
    scheme: Scheme,
    issue: usize,
    delay: u32,
}

struct CellOut {
    latency_s: f64,
    result: Result<PassSimCounts, String>,
}

/// The grid in `perf_sweep` order.
fn cells(kernels: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for kernel in 0..kernels {
        for scheme in Scheme::ALL {
            let delay_sensitive = !matches!(scheme.placement(), Placement::AllOn(_));
            for issue in ISSUES {
                let delays: &[u32] = if delay_sensitive {
                    &DELAYS
                } else {
                    &DELAYS[..1]
                };
                for &delay in delays {
                    out.push(Cell {
                        kernel,
                        scheme,
                        issue,
                        delay,
                    });
                }
            }
        }
    }
    out
}

fn run_cell(k: &Kernel, c: Cell, tracer: &Tracer, parent: Option<SpanId>, req: u64) -> CellOut {
    let tag = scheme_tag(c.scheme);
    let t0 = Instant::now();
    let result = tracer.span("bench.cell", tag, parent, req, |cell| {
        let config = MachineConfig::itanium2_like(c.issue, c.delay);
        let prep = tracer
            .span("passes.prepare", tag, cell, req, |_| {
                casted_passes::prepare(&k.module, c.scheme, &config)
            })
            .map_err(|e| format!("prepare failed: {e}"))?;
        let r = tracer.span("sim.simulate", tag, cell, req, |_| {
            casted_sim::simulate(&prep.sp, &SimOptions::default())
        });
        if !k.matches(&r.stop, &r.stream) {
            return Err(format!(
                "output differs from the interpreter (stop {:?})",
                r.stop
            ));
        }
        Ok(PassSimCounts::of(&prep, &r.stats))
    });
    CellOut {
        latency_s: t0.elapsed().as_secs_f64(),
        result: result
            .map_err(|e| format!("{} {} i{} d{}: {e}", k.name, c.scheme, c.issue, c.delay)),
    }
}

fn run_pass(kernels: &[Kernel], cells: &[Cell], tracer: &Tracer, pass: u64) -> Vec<CellOut> {
    tracer.span("bench.pass", "", None, pass, |span| {
        run_pool(
            cells
                .iter()
                .enumerate()
                .map(|(i, &c)| move || run_cell(&kernels[c.kernel], c, tracer, span, i as u64))
                .collect(),
        )
    })
}

/// CASTED cycles / NOED cycles at the same issue width, geometric mean
/// over every kernel × (issue, delay).
fn slowdown_geomean(cells: &[Cell], outs: &[CellOut]) -> Option<f64> {
    let mut cycles = HashMap::new();
    for (c, o) in cells.iter().zip(outs) {
        let s = o.result.as_ref().ok()?;
        cycles.insert((c.kernel, c.scheme, c.issue, c.delay), s.cycles as f64);
    }
    let mut ratios = Vec::new();
    for c in cells.iter().filter(|c| c.scheme == Scheme::Casted) {
        let noed = cycles[&(c.kernel, Scheme::Noed, c.issue, DELAYS[0])];
        ratios.push(cycles[&(c.kernel, c.scheme, c.issue, c.delay)] / noed);
    }
    Some(geomean(&ratios))
}

pub fn run(seconds: f64, trace: bool) -> Outcome {
    let tracer = if trace { Tracer::on() } else { Tracer::off() };
    let (compiled, setup_s) = repeated_setup(SETUP_REPS, &tracer, |t| {
        t.span("bench.setup", "", None, 0, |s| kernels::compile(t, s))
    });
    let kernels = kernels::with_oracle(compiled, &tracer);
    let cells = cells(kernels.len());

    let mut out = Outcome::default();
    let check = |out: &mut Outcome, outs: &[CellOut]| {
        out.attempted += outs.len() as u64;
        for o in outs {
            if let Err(e) = &o.result {
                out.mismatch(e.clone());
            }
        }
    };

    let untraced = Tracer::off();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let measured: Phase<Vec<CellOut>> =
        measure_passes(budget, |pass| run_pass(&kernels, &cells, &untraced, pass));
    for outs in &measured.passes {
        check(&mut out, outs);
    }
    let n_cells = measured.passes.iter().map(Vec::len).sum::<usize>();
    let latencies: Vec<Vec<f64>> = measured
        .passes
        .iter()
        .map(|pass| pass.iter().map(|o| o.latency_s).collect())
        .collect();
    let slowdown = slowdown_geomean(&cells, &measured.passes[0]).unwrap_or(0.0);
    let ops_per_s = measured.median_rate(cells.len());
    out.set_e2e(
        ops_per_s,
        &latencies,
        TAIL_Q,
        slowdown,
        &setup_s,
        &measured.heap_peaks,
    );
    out.named(
        "cells_per_s",
        ops_per_s,
        "1/s",
        format!(
            "{n_cells} cells in {} passes, median over passes",
            measured.passes.len()
        ),
    );
    out.named(
        "slowdown_geomean",
        slowdown,
        "x",
        format!("{} CASTED/NOED ratios", 16 * kernels.len()),
    );
    out.fact("grid_cells", cells.len().to_string());

    if trace {
        let t0 = Instant::now();
        let traced = run_pass(&kernels, &cells, &tracer, measured.passes.len() as u64);
        let traced_s = t0.elapsed().as_secs_f64();
        check(&mut out, &traced);
        let per_pass_s = measured.wall_s / measured.passes.len() as f64;
        let l = &mut out.layer;
        let mut counts = PassSimCounts::default();
        traced
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .for_each(|c| counts.add(*c));
        counts.record(l);
        l.insert("util.pool.busy_ratio".into(), measured.busy_ratio());
        l.insert(
            "trace.overhead_pct".into(),
            (traced_s / per_pass_s - 1.0) * 100.0,
        );
        out.fact(
            "trace_pass_s",
            format!("{{\"traced\": {traced_s}, \"untraced\": {per_pass_s}}}"),
        );
    }
    out.finish_trace(tracer, "perf_grid");
    out
}
