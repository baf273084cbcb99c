//! Fig. 10 of the paper: fault coverage of h263dec for all four
//! schemes across issue widths 1–4 and delays 1–4 — demonstrating that
//! coverage is insensitive to the architecture configuration.

use casted::experiments::{coverage_sweep_with, GridSpec};
use casted::report;
use casted_faults::{CampaignConfig, Outcome};

fn main() {
    let opts = casted_bench::parse_args();
    let w = casted_workloads::by_name("h263dec").expect("h263dec");
    let spec = if opts.quick {
        GridSpec {
            issues: vec![1, 4],
            delays: vec![1, 4],
            schemes: casted::Scheme::ALL.to_vec(),
            clusters: vec![2],
        }
    } else {
        GridSpec::paper_full()
    };
    let campaign = CampaignConfig {
        trials: opts.trials,
        ..Default::default()
    };
    eprintln!(
        "fault campaign: h263dec x 4 schemes x {} configs x {} trials ...",
        spec.issues.len() * spec.delays.len(),
        campaign.trials
    );
    let points = coverage_sweep_with(&[w], &spec, &campaign, opts.engine, None);
    println!("{}", report::coverage_panel(&points));
    casted_bench::maybe_write(&opts, "fig10.csv", &report::coverage_csv(&points));

    // The paper's claim: "the fault coverage ... is not affected by the
    // underlying architecture configuration". Check that CASTED's
    // detected+exception+benign fraction varies only within a
    // statistical band across configurations.
    let safe: Vec<f64> = points
        .iter()
        .filter(|p| p.scheme == casted::Scheme::Casted)
        .map(|p| {
            p.tally.fraction(Outcome::Detected)
                + p.tally.fraction(Outcome::Exception)
                + p.tally.fraction(Outcome::Benign)
        })
        .collect();
    let min = safe.iter().cloned().fold(1.0, f64::min);
    let max = safe.iter().cloned().fold(0.0, f64::max);
    println!(
        "CASTED safe-outcome fraction across configs: {:.1}%..{:.1}% (spread {:.1} pp)",
        100.0 * min,
        100.0 * max,
        100.0 * (max - min)
    );
    assert!(
        max - min < 0.15,
        "coverage should be configuration-insensitive (statistical deviation only)"
    );
    casted_bench::finish_metrics(&opts);
}
