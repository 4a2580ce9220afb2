//! Spans recorded from the benchmark's own files, around the calls into each
//! layer's public functions.
//!
//! Nothing inside the engine is instrumented: a span either wraps a call the
//! benchmark makes ([`Tracer::scoped`]) or is *synthetic* — laid out under
//! its parent from the seconds the engine reported in `RunStats`
//! ([`Tracer::synthetic`]). Spans stay in memory and are written as JSON
//! lines when the workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Built from reported seconds rather than measured around a call.
    pub synthetic: bool,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records the spans of one workload; the workload name is the identifier
/// all of them share.
pub struct Tracer {
    workload: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The index [`Tracer::scoped`] returns when tracing is off.
const NOT_RECORDED: usize = usize::MAX;

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tracing off: `scoped` only calls its closure and nothing is recorded.
    /// The end-to-end metrics are measured under this one.
    pub fn disabled() -> Tracer {
        Tracer { enabled: false, ..Tracer::new("") }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    /// Returns the span's index alongside `f`'s result.
    pub fn scoped<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (usize, T) {
        if !self.enabled {
            return (NOT_RECORDED, f(self));
        }
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
            synthetic: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        (id, out)
    }

    /// Adds a child of `parent` covering `[start, end]` (tracer seconds).
    pub fn synthetic(&mut self, parent: usize, name: &str, start: f64, end: f64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start,
            end,
            synthetic: true,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds span `id` lasted; zero for a span that was not recorded.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, Span::duration)
    }

    /// A span's duration minus the part of its interval that its direct
    /// children cover. Children that overlap each other (assemble and compute
    /// do, by the reported `overlap_s`) are counted once.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = span.start;
        for (s, e) in children {
            if e > cursor {
                covered += e - s.max(cursor);
                cursor = e;
            }
        }
        span.duration() - covered
    }

    /// Appends one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut text = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::str(&self.workload)),
                ("id", Json::Num(id as f64)),
                ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("name", Json::str(&span.name)),
                ("start_s", Json::Num(span.start)),
                ("end_s", Json::Num(span.end)),
                ("self_s", Json::Num(self.self_time(id))),
                ("synthetic", Json::Bool(span.synthetic)),
            ]);
            text.push_str(&line.encode());
            text.push('\n');
        }
        file.write_all(text.as_bytes())
    }
}

/// The seconds the engine reported for one run, as `RunStats` sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSecs {
    pub assemble: f64,
    pub compute: f64,
    pub apply: f64,
    /// Seconds compute ran while assemble was still streaming.
    pub overlap: f64,
}

impl PhaseSecs {
    /// Wall time the three phases account for: their sum, less the interval
    /// two of them shared.
    pub fn accounted(&self) -> f64 {
        self.assemble + self.compute + self.apply - self.overlap
    }
}

/// Lays `assemble`, `compute`, `apply` and `residual` out under the `run`
/// span: compute starts `overlap` before assemble ends, apply follows
/// compute, and whatever of the run's wall time the phases do not account
/// for becomes the trailing `residual` child. Returns the residual in
/// seconds, which is negative when the engine reports more phase time than
/// the run took.
pub fn add_phase_spans(tracer: &mut Tracer, run: usize, phases: PhaseSecs) -> f64 {
    let (start, end) = (tracer.spans()[run].start, tracer.spans()[run].end);
    let residual = (end - start) - phases.accounted();
    let assemble_end = start + phases.assemble;
    let compute_start = assemble_end - phases.overlap;
    let compute_end = compute_start + phases.compute;
    let apply_end = compute_end + phases.apply;
    tracer.synthetic(run, "assemble", start, assemble_end);
    tracer.synthetic(run, "compute", compute_start, compute_end);
    tracer.synthetic(run, "apply", compute_end, apply_end);
    tracer.synthetic(run, "residual", apply_end, apply_end + residual.max(0.0));
    residual
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// A tracer with one hand-placed root span `[0, dur]`.
    fn with_root(dur: f64) -> (Tracer, usize) {
        let mut t = Tracer::new("w");
        let (root, ()) = t.scoped("run", |_| ());
        t.spans[root].start = 0.0;
        t.spans[root].end = dur;
        (t, root)
    }

    #[test]
    fn scoped_spans_nest_and_order() {
        let mut t = Tracer::new("w");
        let (outer, inner) = t.scoped("setup", |t| t.scoped("load", |_| 7).0);
        assert_eq!(t.spans()[outer].parent, None);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert!(t.spans()[outer].start <= t.spans()[inner].start);
        assert!(t.spans()[inner].end <= t.spans()[outer].end);
        let (next, ()) = t.scoped("run", |_| ());
        assert_eq!(t.spans()[next].parent, None, "stack unwound");
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::disabled();
        let (id, v) = t.scoped("setup", |t| t.scoped("load", |_| 7).1);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.duration(id), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let (mut t, root) = with_root(10.0);
        t.synthetic(root, "a", 1.0, 4.0);
        t.synthetic(root, "b", 3.0, 6.0); // overlaps a by 1
        t.synthetic(root, "c", 8.0, 12.0); // clipped to the parent's end
        let grandchild_parent = t.synthetic(root, "d", 6.5, 7.0);
        t.synthetic(grandchild_parent, "e", 6.5, 6.75); // not a direct child of root
        close(t.self_time(root), 10.0 - (5.0 + 2.0 + 0.5));
        close(t.self_time(grandchild_parent), 0.25);
    }

    #[test]
    fn phases_and_residual_sum_back_to_the_run_span() {
        let (mut t, run) = with_root(10.0);
        let phases = PhaseSecs { assemble: 3.0, compute: 5.0, apply: 2.5, overlap: 2.0 };
        close(phases.accounted(), 8.5);
        let residual = add_phase_spans(&mut t, run, phases);
        close(residual, 1.5);
        close(phases.accounted() + residual, t.spans()[run].duration());
        // The children tile the run: nothing is left as self time, and the
        // overlap is not counted twice.
        close(t.self_time(run), 0.0);
        let compute = t.spans.iter().find(|s| s.name == "compute").unwrap();
        close(compute.start, 1.0);
        close(compute.end, 6.0);
    }

    #[test]
    fn over_reported_phases_give_a_negative_residual() {
        let (mut t, run) = with_root(4.0);
        let phases = PhaseSecs { assemble: 2.0, compute: 2.0, apply: 1.0, overlap: 0.0 };
        close(add_phase_spans(&mut t, run, phases), -1.0);
        close(t.self_time(run), 0.0);
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let (mut t, run) = with_root(2.0);
        t.synthetic(run, "apply", 0.5, 1.5);
        let dir = crate::host::ScratchDir::create("trace-test").unwrap();
        let path = dir.path().join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(lines[0].get("self_s").and_then(Json::as_f64), Some(1.0));
    }
}
