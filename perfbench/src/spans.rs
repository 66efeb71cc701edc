//! In-memory span recording for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program under test is not instrumented. They stay
//! in memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The request (or analysis) the span belongs to; spans of one request
    /// share it.
    pub request: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A span that has begun but not ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u32,
    name: &'static str,
    parent: Option<u32>,
    request: u64,
    start: f64,
}

/// Records spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the tracer was created, for an instant taken earlier.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn begin(&self, name: &'static str, parent: Option<u32>, request: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, name, parent, request, start: self.now() }
    }

    /// Ends `open` now; returns its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = self.now();
        self.push(open.id, open.parent, open.name, open.request, open.start, end);
        end - open.start
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: f64,
        end: f64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, request, start, end);
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, parent, request);
        let out = f();
        (out, self.end(open))
    }

    fn push(
        &self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        request: u64,
        start: f64,
        end: f64,
    ) {
        let span = Span { id, parent, name, request, start, end };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover, summed over spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start, span.end));
        }
    }
    let mut out = BTreeMap::new();
    for span in spans {
        let mut kids = children.remove(&span.id).unwrap_or_default();
        let own = span.seconds() - covered(&mut kids, span.start, span.end);
        *out.entry(span.name).or_insert(0.0) += own;
    }
    out
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start\":{:.9},\"end\":{:.9}}}",
            s.id, parent, s.name, s.request, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span { id, parent, name, request: 1, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, "sweep", 0.0, 10.0),
            // two workers: overlapping tiles cover [1, 6] and [7, 9]
            span(2, Some(1), "tile", 1.0, 5.0),
            span(3, Some(1), "tile", 2.0, 6.0),
            span(4, Some(1), "tile", 7.0, 9.0),
        ];
        let own = self_times(&spans);
        assert!((own["sweep"] - 3.0).abs() < 1e-12);
        assert!((own["tile"] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut kids = vec![(-1.0, 2.0), (8.0, 12.0)];
        assert!((covered(&mut kids, 0.0, 10.0) - 4.0).abs() < 1e-12);
    }
}
