//! Spans recorded by the benchmark's own code, around each call into a
//! layer of the repository.
//!
//! Spans live in memory and are written to `trace-<workload>.jsonl` when
//! the run ends.  The per-layer metrics are folds over them.  Spans
//! *inside* the program (exchange counts, per-shard phase times, fork-join
//! wait) are the `StepTrace` issue's; nothing here reaches past a public
//! function.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one began (`None` for the root).
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary, so ratios are measured where
    /// the work happens.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// The in-memory span store of one traced run.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `span` (and, defensively, anything opened inside it that was
    /// left open).
    pub fn end(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id].end_ns = end_ns;
            if id == span.0 {
                break;
            }
        }
    }

    /// Time one call as a span and hand back its result.
    pub fn time<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Attach a count to a span.
    pub fn count(&mut self, span: SpanId, key: &'static str, value: f64) {
        self.spans[span.0].counts.push((key, value));
    }

    /// Durations, in milliseconds, of every closed span called `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ms(&self, span: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.0))
            .map(Span::ms)
            .sum();
        self.spans[span.0].ms() - children
    }

    pub fn span_ms(&self, span: SpanId) -> f64 {
        self.spans[span.0].ms()
    }

    /// Close the run's root span, write `trace-<workload>.jsonl` into
    /// `dir`, and return the root's self time as a share of its duration:
    /// what the harness itself cost.
    pub fn finish(mut self, root: SpanId, dir: &Path) -> Result<f64, String> {
        self.end(root);
        let path = dir.join(format!("trace-{}.jsonl", self.workload));
        std::fs::write(&path, self.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(self.self_ms(root) / self.span_ms(root))
    }

    /// One JSON object per line: `name, layer, workload, id, parent,
    /// start_ns, end_ns` plus the span's counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut j = Json::obj()
                .with("name", s.name)
                .with("layer", s.layer)
                .with("workload", self.workload)
                .with("id", s.id)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            if !s.counts.is_empty() {
                let mut counts = Json::obj();
                for (k, v) in &s.counts {
                    counts.set(k, *v);
                }
                j.set("counts", counts);
            }
            out.push_str(&j.compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new("unit");
        let root = tr.begin("workload", "harness");
        let a = tr.begin("core.step", "core");
        tr.count(a, "n", 3.0);
        tr.end(a);
        let got = tr.time("core.step", "core", || 7);
        assert_eq!(got, 7);
        tr.end(root);
        assert_eq!(tr.ms_of("core.step").len(), 2);
        let children: f64 = tr.ms_of("core.step").iter().sum();
        assert!((tr.self_ms(root) - (tr.span_ms(root) - children)).abs() < 1e-9);
        let lines: Vec<Json> = tr
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            lines[1].get("counts").unwrap().get("n").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(lines[2].get("workload").unwrap().as_str(), Some("unit"));
    }

    #[test]
    fn ending_an_outer_span_closes_what_it_contains() {
        let mut tr = Tracer::new("unit");
        let root = tr.begin("workload", "harness");
        let _leaked = tr.begin("inner", "core");
        tr.end(root);
        let again = tr.begin("next", "core");
        tr.end(again);
        let lines: Vec<Json> = tr
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines[2].get("parent"), Some(&Json::Null));
    }
}
