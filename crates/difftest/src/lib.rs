//! # casted-difftest — seeded differential testing of the whole stack
//!
//! The standing correctness gate of this repository (see
//! `docs/TESTING.md`): every pipeline stage is cross-checked against
//! the reference IR interpreter (`casted_ir::interp`), bit-for-bit,
//! over structure-aware randomly generated programs *and* the seven
//! workload kernels.
//!
//! ## Oracle layers
//!
//! For each case (a `(seed, GenOptions)` pair naming one generated
//! module, see [`CaseConfig`]):
//!
//! 1. **verify / interp** — the module verifies and halts cleanly;
//!    its interpreter run is the *golden* behaviour.
//! 2. **if-convert** — `casted_passes::ifconvert` output re-interprets
//!    to the golden stream.
//! 3. **error detection** — all three ED variants (paper default,
//!    fused checks, selective) preserve semantics; the transformed
//!    module still carries duplicates and checks (structure check).
//! 4. **BUG / schedule / spill / physreg** — for every scheme
//!    (NOED / SCED / DCED / CASTED) across a small issue-width ×
//!    inter-cluster-delay grid, the fully prepared program's module
//!    re-interprets to the golden stream and the schedule validates.
//! 5. **simulator** — `casted-sim`'s architectural results (stream +
//!    stop reason) equal the interpreter's for every prepared program,
//!    and ED-protected binaries under **zero** injected faults produce
//!    outputs bit-identical to NOED.
//! 6. **fault probe** — for library-free cases, single-bit faults
//!    aimed at `Provenance::Original` instruction outputs must never
//!    classify as `DataCorrupt` (protected code may mask, detect,
//!    trap or hang — it must not silently corrupt). This validates
//!    the fault harness and the check placement per stage, in the
//!    spirit of FastFlip's compositional injection analysis.
//! 7. **campaign engines** — a small Monte-Carlo campaign per ED
//!    scheme at the balanced grid point must tally byte-identically
//!    under the reference engine (every trial re-simulated from cycle
//!    0) and the batched engine (lockstep lanes from golden-run
//!    snapshots, fast-forward replay and convergence pruning for
//!    diverged lanes) — the standing cross-check that the perf engine
//!    never changes a result (see `docs/PERFORMANCE.md`).
//! 8. **incremental sections** — the same campaign run through the
//!    compositional section cache (`casted_faults::sections`), cold
//!    and then warm from the on-disk store, must recombine to the
//!    reference engine's exact tally (see `docs/INCREMENTAL.md`).
//!
//! ## Replay
//!
//! Every failure prints a self-contained `REPLAY` line:
//!
//! ```text
//! REPLAY seed=0x00000000adf1c03e gen=ops:25,it:4,g:2,fp:1,dia:2,il:1,lib:0 stage=sim:CASTED:iw2d2
//! ```
//!
//! The `seed=0x...` token is the workspace-wide canonical format
//! (shared with `casted_util::prop` failures); the whole line can be
//! passed to `cargo run -p casted-bench --bin difftest -- --replay
//! '<line>'` to re-execute, `--minimize` to shrink the generator
//! configuration by bisection first. See [`CaseConfig::parse`].

pub mod corpus;
pub mod minimize;
pub mod oracle;
pub mod sabotage;
pub mod suite;

pub use corpus::run_corpus;
pub use minimize::minimize;
pub use oracle::{run_case, run_case_with, CaseReport, Divergence, Hooks};
pub use suite::{run_suite, run_suite_with, SuiteOptions, SuiteReport};

use casted_ir::testgen::GenOptions;

/// The issue-width × inter-cluster-delay grid every case is scheduled
/// on — a small diagonal cut through the paper's 1–4 × 1–4 sweep,
/// covering the scalar, balanced and wide corners.
pub const GRID: [(usize, u32); 3] = [(1, 1), (2, 2), (4, 3)];

/// Step budget for interpreting a raw generated module.
pub const STEP_LIMIT: u64 = 2_000_000;

/// Step budget for transformed (ED / scheduled / spilled) modules.
pub const STEP_LIMIT_XFORM: u64 = 50_000_000;

/// One differential-test case: a seed plus the generator options,
/// which together name the module under test (the generator mapping
/// is frozen, see `casted_ir::testgen`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseConfig {
    /// Generator seed.
    pub seed: u64,
    /// Generator shape options.
    pub gen: GenOptions,
}

impl CaseConfig {
    /// The self-contained replay line (without the `REPLAY ` prefix):
    /// `seed=0x... gen=... [stage=...]`.
    pub fn replay_line(&self, stage: Option<&str>) -> String {
        let mut s = format!(
            "{} gen={}",
            casted_util::prop::seed_token(self.seed),
            self.gen.encode()
        );
        if let Some(st) = stage {
            s.push_str(" stage=");
            s.push_str(st);
        }
        s
    }

    /// Parse a replay line (tolerates a leading `REPLAY` and a
    /// trailing `stage=...`, which is informational). Returns the case
    /// and the stage label, if present.
    pub fn parse(line: &str) -> Result<(CaseConfig, Option<String>), String> {
        let mut seed = None;
        let mut gen = GenOptions::default();
        let mut stage = None;
        for tok in line.split_whitespace() {
            if tok == "REPLAY" {
                continue;
            } else if tok.starts_with("seed=") {
                seed = Some(
                    casted_util::prop::parse_seed_token(tok)
                        .ok_or_else(|| format!("bad seed token '{tok}'"))?,
                );
            } else if let Some(g) = tok.strip_prefix("gen=") {
                gen = GenOptions::parse(g)?;
            } else if let Some(s) = tok.strip_prefix("stage=") {
                stage = Some(s.to_string());
            } else {
                return Err(format!("unrecognized replay token '{tok}'"));
            }
        }
        let seed = seed.ok_or("replay line has no seed= token")?;
        Ok((CaseConfig { seed, gen }, stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_line_round_trips() {
        let cfg = CaseConfig {
            seed: 0xDEAD_BEEF,
            gen: GenOptions {
                body_ops: 13,
                iterations: 2,
                globals: 1,
                with_float: false,
                diamonds: 0,
                inner_loops: 2,
                lib_calls: 1,
            },
        };
        let line = cfg.replay_line(Some("sim:CASTED:iw2d2"));
        let (parsed, stage) = CaseConfig::parse(&line).unwrap();
        assert_eq!(parsed, cfg);
        assert_eq!(stage.as_deref(), Some("sim:CASTED:iw2d2"));

        // The REPLAY prefix as printed by the runner also parses.
        let (parsed2, _) = CaseConfig::parse(&format!("REPLAY {line}")).unwrap();
        assert_eq!(parsed2, cfg);

        // A bare seed uses default generator options.
        let (parsed3, stage3) = CaseConfig::parse("seed=0x2a").unwrap();
        assert_eq!(parsed3.seed, 42);
        assert_eq!(parsed3.gen, GenOptions::default());
        assert_eq!(stage3, None);

        assert!(CaseConfig::parse("gen=ops:3").is_err(), "seed is required");
        assert!(CaseConfig::parse("seed=0x1 bogus").is_err());
    }
}
