//! castedbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path castedbench/Cargo.toml -- \
//!     --workload <perf_grid|coverage|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from this process, using at most `nproc` worker
//! threads and connections, and checks every output against the
//! interpreter oracle. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. The line before it is a report
//! with host facts and each workload's domain-named metrics
//! (`cells_per_s`, `trials_per_s`, `sdc_rate`, `req_per_s`, ...).
//! A wrong output exits with status 1. See `castedbench/README.md`.

mod coverage;
mod grid;
mod heap;
mod host;
mod kernels;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{metric_members, num, string, Outcome, END_TO_END, PER_LAYER};
use stats::{median, quantile, ratio};
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["perf_grid", "coverage", "serve"];

/// Why each workload exists (mirrored in `BENCHMARK.json`).
fn why(workload: &str) -> &'static str {
    match workload {
        "perf_grid" => "Figs. 6/7 grid: prepare and simulate dominate, faults idle; moves with passes and full-run sim speed",
        "coverage" => "Fig. 9 campaigns on the batched engine: faults and batched/replay sim dominate, passes idle; TMRED is the slow cell",
        "serve" => "2 closed-loop clients on the event server: cache hits stay in the event loop, never-seen keys run core stages and sim",
        _ => unreachable!("workload names are checked at parse time"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (perf_grid|coverage|serve|all)"
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Passes of a timed phase and what they cost.
pub struct Phase<T> {
    pub passes: Vec<T>,
    /// Wall time of each pass.
    pub pass_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak live heap MiB of each second (see [`heap::sample_peaks`]).
    pub heap_peaks: Vec<f64>,
}

impl<T> Phase<T> {
    /// Process CPU time / (wall × nproc): how busy the worker threads
    /// were, tail idling behind the slowest cell included.
    pub fn busy_ratio(&self) -> f64 {
        ratio(self.cpu_s, self.wall_s * host::nproc() as f64)
    }

    /// Operations per second: the median over passes of `ops_per_pass`
    /// / that pass's wall time, so one pass that shared the host with
    /// a burst of other work cannot move it alone.
    pub fn median_rate(&self, ops_per_pass: usize) -> f64 {
        let rates: Vec<f64> = self
            .pass_s
            .iter()
            .map(|s| ops_per_pass as f64 / s)
            .collect();
        median(&rates)
    }
}

/// Run whole passes until `budget_s` has elapsed (at least one).
pub fn measure_passes<T>(budget_s: f64, mut pass: impl FnMut(u64) -> T) -> Phase<T> {
    let cpu0 = host::usage().cpu_s;
    let t0 = Instant::now();
    let ((passes, pass_s), heap_peaks) = heap::sample_peaks(|| {
        let (mut passes, mut pass_s) = (Vec::new(), Vec::new());
        loop {
            let p0 = Instant::now();
            passes.push(pass(passes.len() as u64));
            pass_s.push(p0.elapsed().as_secs_f64());
            if t0.elapsed().as_secs_f64() >= budget_s {
                break (passes, pass_s);
            }
        }
    });
    Phase {
        passes,
        pass_s,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::usage().cpu_s - cpu0,
        heap_peaks,
    }
}

/// Run the set-up `reps` times, keeping the last result (earlier ones
/// are dropped, which tears them down). Only the last is traced.
pub fn repeated_setup<T>(
    reps: usize,
    tracer: &Tracer,
    mut f: impl FnMut(&Tracer) -> T,
) -> (T, Vec<f64>) {
    let off = Tracer::off();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t = if rep + 1 == reps { tracer } else { &off };
        let t0 = Instant::now();
        last = Some(f(t));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), times)
}

impl Outcome {
    /// Fill the end-to-end metrics every workload shares. Latencies
    /// come in passes that repeat the same operations in the same order
    /// (one group for serve). Each operation's latency is its median
    /// over passes, and the percentiles are taken over those medians:
    /// how many passes fit in the run cannot move which operations a
    /// percentile lands on, and a campaign slowed by a burst of other
    /// work on the host in one pass does not become the tail.
    ///
    /// `tail_q` is the workload's tail percentile: the highest that
    /// leaves at least ten operations beyond it.
    pub fn set_e2e(
        &mut self,
        ops_per_s: f64,
        latencies_s: &[Vec<f64>],
        tail_q: f64,
        slowdown: f64,
        setup_s: &[f64],
        heap_peaks: &[f64],
    ) {
        let per_op = per_op_medians(latencies_s);
        let (p50, tail) = (
            quantile(&per_op, 0.5) * 1e3,
            quantile(&per_op, tail_q) * 1e3,
        );
        let setup = median(setup_s);
        let heap = median(heap_peaks);
        for (k, v) in [
            ("ops_per_s", ops_per_s),
            ("p50_ms", p50),
            ("tail_ms", tail),
            ("slowdown_geomean", slowdown),
            ("setup_s", setup),
            ("peak_heap_mb", heap),
        ] {
            self.e2e.insert(k.into(), v);
        }
        let (n, passes) = (per_op.len(), latencies_s.len());
        self.named(
            "p50_ms",
            p50,
            "ms",
            format!("{n} operations, each the median of its {passes} passes"),
        );
        self.named(
            "tail_ms",
            tail,
            "ms",
            format!(
                "p{} of {n} operations, {:.1} beyond, each the median of its {passes} passes",
                tail_q * 100.0,
                n as f64 * (1.0 - tail_q)
            ),
        );
        self.named(
            "setup_s",
            setup,
            "s",
            format!("median of {} set-ups", setup_s.len()),
        );
        self.named(
            "peak_heap_mb",
            heap,
            "MiB",
            format!(
                "median over {} seconds of the timed phase of each second's peak live heap",
                heap_peaks.len()
            ),
        );
    }

    /// Turn a traced run's spans into per-layer self times and write
    /// them out.
    pub fn finish_trace(&mut self, tracer: Tracer, workload: &str) {
        if !tracer.enabled() {
            return;
        }
        let spans = tracer.into_spans();
        let by = trace::self_seconds_by_name(&spans);
        let secs = |k: &str| by.get(k).copied().unwrap_or(0.0);
        let l = &mut self.layer;
        l.insert("frontend.compile_s".into(), secs("frontend.compile"));
        for (metric, span) in [
            ("passes.prepare_s", "passes.prepare"),
            ("passes.prepare_s.casted", "passes.prepare.casted"),
            ("passes.prepare_s.tmred", "passes.prepare.tmred"),
            ("sim.simulate_s", "sim.simulate"),
            ("faults.campaign_s", "faults.campaign"),
        ] {
            l.insert(metric.into(), secs(span));
        }
        for s in ["noed", "sced", "dced", "casted", "tmred", "rbed"] {
            let metric = format!("faults.campaign_s.{s}");
            l.insert(metric, secs(&format!("faults.campaign.{s}")));
        }
        let insns = l.get("sim.dyn_insns").copied().unwrap_or(0.0);
        l.insert("sim.insns_per_s".into(), ratio(insns, secs("sim.simulate")));
        l.insert("trace.spans".into(), spans.len() as f64);
        let path = host::out_dir().join(format!("trace-{workload}.jsonl"));
        match trace::write_jsonl(&spans, &path) {
            Ok(()) => self.fact("trace_file", string(&path.display().to_string())),
            Err(e) => eprintln!("castedbench: cannot write {}: {e}", path.display()),
        }
        let self_times: Vec<String> = by
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), num(*v)))
            .collect();
        self.fact("span_self_s", format!("{{{}}}", self_times.join(", ")));
    }
}

/// The median over passes of each operation's latency. Every pass must
/// hold the same operations in the same order.
pub fn per_op_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes[0].len();
    assert!(
        passes.iter().all(|p| p.len() == n),
        "passes differ in their operations"
    );
    (0..n)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if name == "serve" {
        // The server's Counters reply reads the global registry.
        casted_obs::set_enabled(true);
    }
    let mut out = match name {
        "perf_grid" => grid::run(seconds, trace),
        "coverage" => coverage::run(seed, seconds, trace),
        "serve" => serve::run(seed, seconds, trace),
        _ => unreachable!("workload names are checked at parse time"),
    };
    casted_obs::set_enabled(false);
    let peak = host::usage().peak_rss_mb;
    out.named(
        "process_peak_rss_mb",
        peak,
        "MiB",
        "VmHWM of the whole run, set-up and in-process server included",
    );
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    out.named(
        "error_rate",
        error_rate,
        "ratio",
        format!("{} of {} operations", out.failed, out.attempted),
    );
    out
}

fn report_line(workload: &str, args: &Args, out: &Outcome, facts: &host::HostFacts) -> String {
    let named: Vec<String> = out
        .named
        .iter()
        .map(|n| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                string(n.name),
                num(n.value),
                string(n.unit),
                string(&n.note)
            )
        })
        .collect();
    let extra: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    let mismatches: Vec<String> = out.mismatches.iter().take(20).map(|m| string(m)).collect();
    format!(
        "{{\"report\": {{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"profile\": {}, \"commit\": {}, \"target\": {}}}, \
         \"metrics\": {{{}}}, \"facts\": {{{}}}, \"mismatches\": [{}]}}}}",
        string(workload),
        string(why(workload)),
        args.seed,
        num(args.seconds),
        args.trace,
        facts.nproc,
        string(facts.profile),
        string(&facts.commit),
        string(&facts.target),
        named.join(", "),
        extra.join(", "),
        mismatches.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("castedbench: {e}");
            eprintln!("usage: castedbench --workload <perf_grid|coverage|serve|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let facts = host::host_facts();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut merged = Outcome::default();
    let mut metric_entries = Vec::new();
    for &name in &names {
        let out = run_workload(name, args.seed, args.seconds, args.trace);
        for m in &out.mismatches {
            eprintln!("castedbench: {name}: WRONG: {m}");
        }
        for n in &out.named {
            eprintln!(
                "castedbench: {name}: {} = {} {} ({})",
                n.name,
                num(n.value),
                n.unit,
                n.note
            );
        }
        println!("{}", report_line(name, &args, &out, &facts));
        let values = if args.trace { &out.layer } else { &out.e2e };
        // A single workload prints the catalogue names; `all` prefixes
        // each with its workload.
        let prefix = if names.len() == 1 {
            String::new()
        } else {
            format!("{name}.")
        };
        metric_entries.push(metric_members(defs, values, &prefix));
        merged.attempted += out.attempted;
        merged.failed += out.failed;
        merged.mismatches.extend(out.mismatches);
    }
    let metrics = format!("{{{}}}", metric_entries.join(", "));
    let correct = merged.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        merged.attempted, merged.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_and_whys_match_benchmark_json() {
        let json = std::fs::read_to_string(host::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS {
            let entry = format!("{{\"name\": {}, \"why\": {}}}", string(w), string(why(w)));
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn repeated_setup_keeps_the_last_result_and_every_time() {
        let mut n = 0;
        let (last, times) = repeated_setup(3, &Tracer::off(), |_| {
            n += 1;
            n
        });
        assert_eq!((last, times.len()), (3, 3));
    }

    #[test]
    fn measure_passes_runs_at_least_once() {
        let phase = measure_passes(0.0, |pass| pass);
        assert_eq!(phase.passes, vec![0]);
        assert_eq!(phase.pass_s.len(), 1);
    }

    #[test]
    fn per_op_medians_take_each_operation_across_passes() {
        let passes = vec![vec![1.0, 10.0], vec![3.0, 50.0], vec![2.0, 20.0]];
        assert_eq!(per_op_medians(&passes), vec![2.0, 20.0]);
        assert_eq!(per_op_medians(&[vec![4.0, 5.0]]), vec![4.0, 5.0]);
    }

    #[test]
    fn median_rate_takes_the_middle_pass() {
        let phase = Phase {
            passes: vec![(), (), ()],
            pass_s: vec![2.0, 1.0, 4.0],
            wall_s: 7.0,
            cpu_s: 0.0,
            heap_peaks: vec![],
        };
        assert_eq!(phase.median_rate(8), 4.0);
    }
}
