//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records the layer call it wraps (`name`), a label for
//! per-scheme breakdowns (`tag`), its start and end relative to the
//! tracer's epoch, the span that caused it (`parent`) and the request
//! it belongs to (`req`: a grid cell or a serve request). Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run that gives the end-to-end numbers pays only a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; shareable across the benchmark's worker threads.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the new span's id to parent
    /// its own child spans (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut g = spans
                .lock()
                .expect("span list poisoned by a panicking worker");
            g.push(Span {
                name,
                tag,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
            });
            g.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        spans
            .lock()
            .expect("span list poisoned by a panicking worker")[id]
            .end_ns = end;
        out
    }

    /// Every recorded span, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .map(|m| {
                m.into_inner()
                    .expect("span list poisoned by a panicking worker")
            })
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover. Children may overlap (siblings on
/// different threads), so coverage is the length of the union of the
/// child intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time in seconds summed per span name and per `name.tag`.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let secs = ns as f64 * 1e-9;
        *out.entry(s.name.to_string()).or_insert(0.0) += secs;
        if !s.tag.is_empty() {
            *out.entry(format!("{}.{}", s.name, s.tag)).or_insert(0.0) += secs;
        }
    }
    out
}

/// Write the spans as JSON lines, self time included.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"tag\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"req\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.tag, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 10, 35, None)];
        assert_eq!(self_times(&spans), vec![25]);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 30, Some(0)),
            span("y", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' cells overlap in time under one pass span.
        let spans = [
            span("pass", 0, 100, None),
            span("cell", 0, 60, Some(0)),
            span("cell", 40, 90, Some(0)),
            span("cell", 50, 55, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span("p", 20, 50, None),
            span("c", 10, 30, Some(0)),
            span("d", 45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn grandchildren_count_only_against_their_own_parent() {
        let spans = [
            span("req", 0, 100, None),
            span("layer", 10, 90, Some(0)),
            span("inner", 20, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 20]);
    }

    #[test]
    fn self_seconds_group_by_name_and_tag() {
        let mut a = span("passes.prepare", 0, 2_000_000_000, None);
        a.tag = "casted";
        let b = span("passes.prepare", 0, 1_000_000_000, None);
        let by = self_seconds_by_name(&[a, b]);
        assert!((by["passes.prepare"] - 3.0).abs() < 1e-9);
        assert!((by["passes.prepare.casted"] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span("x", "", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::on();
        t.span("outer", "", None, 3, |outer| {
            t.span("inner", "k", outer, 3, |_| ());
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
