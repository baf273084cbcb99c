//! Fig. 9 of the paper: fault coverage for all benchmarks at
//! issue-width 2, delay 2, with 300 Monte-Carlo injections per
//! (benchmark, scheme), classified into the paper's five outcome
//! classes plus `Corrected` (TMRED's repaired strikes). All six
//! schemes are swept — the four paper schemes and the two
//! recovery-capable ones (docs/SCHEMES.md); `--quick` additionally
//! sweeps the 4-cluster machine grid next to the paper's 2-cluster
//! one.

use casted::experiments::{coverage_sweep_with, GridSpec};
use casted::report;
use casted_faults::CampaignConfig;

fn main() {
    let opts = casted_bench::parse_args();
    let benchmarks = casted_bench::benchmarks(&opts);
    let spec = GridSpec {
        issues: vec![2],
        delays: vec![2],
        schemes: casted::Scheme::FULL.to_vec(),
        clusters: if opts.quick { vec![2, 4] } else { vec![2] },
    };
    let campaign = CampaignConfig {
        trials: opts.trials,
        ..Default::default()
    };
    eprintln!(
        "fault campaign: {} benchmarks x {} schemes x {} trials ({}) ...",
        benchmarks.len(),
        spec.schemes.len(),
        campaign.trials,
        if opts.incremental {
            "incremental section cache"
        } else {
            opts.engine.name()
        }
    );
    let store = opts.incremental.then(|| {
        casted_faults::SectionStore::open(&opts.section_cache).unwrap_or_else(|e| {
            panic!("cannot open section cache {}: {e}", opts.section_cache.display())
        })
    });
    let points = coverage_sweep_with(&benchmarks, &spec, &campaign, opts.engine, store.as_ref());
    println!("{}", report::coverage_panel(&points));
    casted_bench::maybe_write(&opts, "fig9.csv", &report::coverage_csv(&points));

    // Shape checks the paper's Fig. 9 commentary makes.
    for p in points.iter().filter(|p| p.scheme != casted::Scheme::Noed) {
        let det = p.tally.fraction(casted_faults::Outcome::Detected)
            + p.tally.fraction(casted_faults::Outcome::Exception)
            + p.tally.fraction(casted_faults::Outcome::Benign)
            + p.tally.fraction(casted_faults::Outcome::Corrected);
        assert!(
            det > 0.85,
            "{} {}: protected scheme leaves too many unsafe outcomes",
            p.benchmark,
            p.scheme.name()
        );
    }
    println!("All protected schemes keep DataCorrupt+Timeout below 15% per cell.");
    casted_bench::finish_metrics(&opts);
}
