//! The metric catalogue (mirrored in `BENCHMARK.json`), the result of
//! one workload run, and the JSON it prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name, unit and which direction is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that keeps `BENCHMARK.json` in step.
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports each one for its own operation: a grid cell (`perf_grid`),
/// a fault trial (`ops_per_s` on `coverage`; latency is per campaign
/// there) or a request (`serve`).
pub const END_TO_END: &[MetricDef] = &[
    def("ops_per_s", "1/s", "higher"),
    def("p50_ms", "ms", "lower"),
    def("tail_ms", "ms", "lower"),
    def("slowdown_geomean", "x", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_heap_mb", "MiB", "lower"),
];

/// Per-layer metrics from the traced run. A layer a workload does not
/// drive reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    def("frontend.compile_s", "s", "lower"),
    def("passes.prepare_s", "s", "lower"),
    def("passes.prepare_s.casted", "s", "lower"),
    def("passes.prepare_s.tmred", "s", "lower"),
    def("passes.bundles", "count", "lower"),
    def("passes.spilled", "count", "lower"),
    def("sim.simulate_s", "s", "lower"),
    def("sim.insns_per_s", "1/s", "higher"),
    def("sim.cycles", "count", "lower"),
    def("sim.dyn_insns", "count", "lower"),
    def("sim.stall_cycles", "count", "lower"),
    def("sim.cross_reads", "count", "lower"),
    def("sim.l1_miss_ratio", "ratio", "lower"),
    def("sim.l1_accesses", "count", "lower"),
    def("faults.campaign_s", "s", "lower"),
    def("faults.campaign_s.noed", "s", "lower"),
    def("faults.campaign_s.sced", "s", "lower"),
    def("faults.campaign_s.dced", "s", "lower"),
    def("faults.campaign_s.casted", "s", "lower"),
    def("faults.campaign_s.tmred", "s", "lower"),
    def("faults.campaign_s.rbed", "s", "lower"),
    def("faults.trials", "count", "higher"),
    def("faults.sdc_rate", "ratio", "lower"),
    def("faults.batch.lanes", "count", "higher"),
    def("faults.batch.lane_insn_steps", "count", "lower"),
    def("faults.batch.bundles_stepped", "count", "lower"),
    def("faults.batch.divergence_ratio", "ratio", "lower"),
    def("faults.checkpoint.skipped_insns", "count", "higher"),
    def("faults.checkpoint.pruned", "count", "higher"),
    def("serve.requests", "count", "higher"),
    def("serve.hit_ms.p50", "ms", "lower"),
    def("serve.miss_ms.p50", "ms", "lower"),
    def("serve.miss_ms.p99", "ms", "lower"),
    def("serve.cache_hit_ratio", "ratio", "higher"),
    def("serve.cache_lookups", "count", "higher"),
    def("core.stages.hit_ratio", "ratio", "higher"),
    def("core.stages.lookups", "count", "higher"),
    def("serve.refused", "count", "lower"),
    def("util.pool.busy_ratio", "ratio", "higher"),
    def("trace.overhead_pct", "%", "lower"),
    def("trace.spans", "count", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Per-layer counts read from `Prepared` (passes) and `SimStats` (sim).
#[derive(Clone, Copy, Default)]
pub struct PassSimCounts {
    bundles: u64,
    spilled: u64,
    /// Simulated cycles (the slowdown's numerator and denominator).
    pub cycles: u64,
    dyn_insns: u64,
    stall_cycles: u64,
    cross_reads: u64,
    l1_accesses: u64,
    l1_misses: u64,
}

impl PassSimCounts {
    pub fn of(prep: &casted_passes::Prepared, stats: &casted_sim::SimStats) -> PassSimCounts {
        let l1_hits = stats.cache.hits.first().copied().unwrap_or(0);
        PassSimCounts {
            bundles: prep.sp.bundle_count() as u64,
            spilled: prep.spilled as u64,
            cycles: stats.cycles,
            dyn_insns: stats.dyn_insns,
            stall_cycles: stats.stall_cycles,
            cross_reads: stats.cross_reads,
            l1_accesses: stats.cache.accesses,
            l1_misses: stats.cache.accesses - l1_hits,
        }
    }

    pub fn add(&mut self, o: PassSimCounts) {
        self.bundles += o.bundles;
        self.spilled += o.spilled;
        self.cycles += o.cycles;
        self.dyn_insns += o.dyn_insns;
        self.stall_cycles += o.stall_cycles;
        self.cross_reads += o.cross_reads;
        self.l1_accesses += o.l1_accesses;
        self.l1_misses += o.l1_misses;
    }

    /// Record the counts as per-layer metrics.
    pub fn record(&self, layer: &mut Values) {
        for (name, v) in [
            ("passes.bundles", self.bundles),
            ("passes.spilled", self.spilled),
            ("sim.cycles", self.cycles),
            ("sim.dyn_insns", self.dyn_insns),
            ("sim.stall_cycles", self.stall_cycles),
            ("sim.cross_reads", self.cross_reads),
            ("sim.l1_accesses", self.l1_accesses),
        ] {
            layer.insert(name.into(), v as f64);
        }
        layer.insert(
            "sim.l1_miss_ratio".into(),
            crate::stats::ratio(self.l1_misses as f64, self.l1_accesses as f64),
        );
    }
}

/// A metric reported under the name the workload's own domain uses
/// (`cells_per_s`, `sdc_rate`, ...), with a note on its base or sample
/// count.
pub struct Named {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (cells, trials or requests).
    pub attempted: u64,
    /// Operations failed, refused or wrong.
    pub failed: u64,
    /// One line per wrong output.
    pub mismatches: Vec<String>,
    /// Values for [`END_TO_END`].
    pub e2e: Values,
    /// Values for [`PER_LAYER`] (traced runs only).
    pub layer: Values,
    /// Domain-named metrics for the report line.
    pub named: Vec<Named>,
    /// Free-form facts for the report line (already JSON-encoded).
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn named(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.named.push(Named {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn fact(&mut self, key: &'static str, json: impl Into<String>) {
        self.facts.push((key, json.into()));
    }

    /// Record a wrong output: it fails its operation and the run.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }
}

/// JSON number text; non-finite values (a bug upstream) print as 0 so
/// the line stays parseable.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `"name": {"value": v, "unit": "u"}, ...` (the members of a JSON
/// object) over every metric of `defs`, in catalogue order, each name
/// behind `prefix`. Metrics missing from `values` read 0.
pub fn metric_members(defs: &[MetricDef], values: &Values, prefix: &str) -> String {
    defs.iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            let name = format!("{prefix}{}", d.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&name),
                num(v),
                string(d.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric in one `BENCHMARK.json`
    /// list, by scanning its flat objects.
    fn listed(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .expect("metric list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj
                .find(&format!("\"{f}\""))
                .unwrap_or_else(|| panic!("{f} in {obj}"));
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(listed(&json, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn metric_members_list_every_metric_in_order() {
        let mut v = Values::new();
        v.insert("p50_ms".into(), 1.25);
        let s = metric_members(END_TO_END, &v, "");
        assert!(s.starts_with("\"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(metric_members(END_TO_END, &v, "serve.").starts_with("\"serve.ops_per_s\""));
        assert!(s.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert_eq!(s.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(0.5), "0.5");
    }
}
