//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's own code:
//! name, start, end, parent span and the run it belongs to. Spans stay in
//! memory until the run ends. A layer's self time is a span's duration
//! minus the part of its interval that its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// `layer.call`, e.g. `repocorpus.find_psl_files`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a disabled recorder only calls through.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `run_id` tags every span it writes out.
    pub fn new(enabled: bool, run_id: String) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span { id, parent, name, start_ns: self.now_ns(), end_ns: 0 });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// The number of spans recorded so far (a mark for [`Tracer::since`]).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..].to_vec()
    }

    /// Write every span as one JSON line each.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&pi) = s.parent.and_then(|p| index.get(&p)) {
            let p = &spans[pi];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[pi].push((lo, hi));
            }
        }
    }
    spans.iter().zip(children).map(|(s, mut c)| s.duration_ns() - union_ns(&mut c)).collect()
}

/// Total length covered by a set of intervals (overlaps counted once).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    total + cur.map_or(0, |(lo, hi)| hi - lo)
}

/// Self time summed per layer, in seconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

/// Count and total duration (seconds) of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0.0), |(n, t), s| (n + 1, t + s.duration_ns() as f64 / 1e9))
}

/// Summed duration (seconds) of the top-level spans in `spans`.
pub fn top_level_s(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.parent.is_none()).map(|s| s.duration_ns() as f64 / 1e9).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "layer.call", start_ns, end_ns }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // 0 [0,100) ⊃ 1 [10,50) ⊃ 2 [20,30); 0 ⊃ 3 [60,70)
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent children [10,60) and [40,90) cover [10,90).
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 60), span(2, Some(0), 40, 90)];
        assert_eq!(self_times(&spans), vec![20, 50, 50]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, None, 10, 50), span(1, Some(0), 0, 20), span(2, Some(0), 45, 80)];
        assert_eq!(self_times(&spans), vec![25, 20, 35]);
    }

    #[test]
    fn recorder_nests_spans_and_groups_layers() {
        let t = Tracer::new(true, "test".into());
        let v = t.span("analysis.outer", || t.span("history.inner", || 7));
        assert_eq!(v, 7);
        let spans = t.since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let layers = self_by_layer(&spans);
        assert_eq!(layers.keys().copied().collect::<Vec<_>>(), vec!["analysis", "history"]);
        assert_eq!(total(&spans, "history.inner").0, 1);
        assert!(top_level_s(&spans) >= layers["history"]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false, "off".into());
        assert_eq!(t.span("a.b", || 1), 1);
        assert!(t.since(0).is_empty());
    }

    #[test]
    fn union_merges_touching_and_disjoint_intervals() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (10, 20), (30, 35)]), 25);
        assert_eq!(union_ns(&mut [(5, 8), (0, 10)]), 10);
    }
}
