//! The seven benchmark kernels, compiled, with their interpreter
//! oracle: the output every simulated or served run must reproduce.

use casted_ir::interp::{self, OutVal, StopReason};
use casted_ir::Module;
use casted_passes::Scheme;
use casted_workloads::Workload;

use crate::trace::{SpanId, Tracer};

/// Interpreter step limit for the oracle runs (the kernels retire well
/// under a million instructions).
const ORACLE_STEPS: u64 = 100_000_000;

pub struct Kernel {
    pub name: &'static str,
    pub source: String,
    pub module: Module,
    /// `casted_ir::interp::run` output on the same module.
    pub golden_stream: Vec<OutVal>,
    pub golden_exit: i64,
}

/// A kernel compiled through `Workload::compile`, before its oracle run.
pub struct Compiled {
    pub workload: Workload,
    pub module: Module,
}

/// Compile every kernel: the set-up every workload shares.
pub fn compile(tracer: &Tracer, parent: Option<SpanId>) -> Vec<Compiled> {
    casted_workloads::all()
        .into_iter()
        .enumerate()
        .map(|(i, workload)| {
            let module = tracer
                .span("frontend.compile", "", parent, i as u64, |_| {
                    workload.compile()
                })
                .unwrap_or_else(|d| panic!("kernel {} does not compile: {d:?}", workload.name));
            Compiled { workload, module }
        })
        .collect()
}

/// Run the interpreter oracle on every compiled kernel. Verification
/// data, kept out of the timed set-up.
pub fn with_oracle(compiled: Vec<Compiled>, tracer: &Tracer) -> Vec<Kernel> {
    compiled
        .into_iter()
        .enumerate()
        .map(
            |(
                i,
                Compiled {
                    workload: w,
                    module,
                },
            )| {
                let golden = tracer
                    .span("ir.interp", "", None, i as u64, |_| {
                        interp::run(&module, ORACLE_STEPS)
                    })
                    .unwrap_or_else(|e| panic!("kernel {} fails in the interpreter: {e}", w.name));
                let StopReason::Halt(golden_exit) = golden.stop else {
                    panic!(
                        "kernel {} does not halt in the interpreter: {:?}",
                        w.name, golden.stop
                    );
                };
                Kernel {
                    name: w.name,
                    source: w.source,
                    module,
                    golden_stream: golden.stream,
                    golden_exit,
                }
            },
        )
        .collect()
}

/// [`compile`] then [`with_oracle`].
pub fn load(tracer: &Tracer) -> Vec<Kernel> {
    with_oracle(compile(tracer, None), tracer)
}

impl Kernel {
    /// Does a run's result reproduce the oracle bit for bit?
    pub fn matches(&self, stop: &StopReason, stream: &[OutVal]) -> bool {
        *stop == StopReason::Halt(self.golden_exit)
            && stream.len() == self.golden_stream.len()
            && stream
                .iter()
                .zip(&self.golden_stream)
                .all(|(a, b)| a.bit_eq(b))
    }
}

/// Lowercase scheme label used in per-scheme metric names.
pub fn scheme_tag(s: Scheme) -> &'static str {
    match s {
        Scheme::Noed => "noed",
        Scheme::Sced => "sced",
        Scheme::Dced => "dced",
        Scheme::Casted => "casted",
        Scheme::Tmred => "tmred",
        Scheme::Rbed => "rbed",
    }
}
