//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and end (ns since the tracer's epoch), the
//! span that caused it, and the request it belongs to. Spans stay in
//! memory while the run executes and are written out when it ends. A
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `masked_kmeans`.
    pub name: &'static str,
    /// Request (or layer) identifier shared by the spans of one unit of
    /// work.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next_id: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span is closed.
    pub fn open(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under an id from [`Tracer::open`].
    pub fn close(&self, id: u32, name: &'static str, parent: Option<u32>, req: u64, start_ns: u64) {
        let end_ns = self.now();
        self.push(Span { id, parent, name, req, start_ns, end_ns });
    }

    /// Records a finished span with explicit bounds; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.open();
        self.push(Span { id, parent, name, req, start_ns, end_ns });
        id
    }

    /// Runs `f` inside a span; returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        self.record(name, parent, req, start, self.now());
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned by a panicking span").push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("tracer lock poisoned by a panicking span").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered =
                children.get_mut(&s.id).map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: usize,
    /// Σ self time, µs.
    pub self_us: f64,
}

/// Groups spans by name with their self times.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_us += selfs[&s.id] as f64 / 1e3;
    }
    out
}

/// Writes `spans` as tab-separated lines (`id parent name req start_ns
/// end_ns`, parent `-` for roots).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{}\t{parent}\t{}\t{}\t{}\t{}", s.id, s.name, s.req, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", req: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        // root [0,100) has children [10,30) and [20,50) (overlapping:
        // union 40) and a grandchild inside the first child, which must
        // not be subtracted from the root a second time
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(1), 12, 18),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&0], 60);
        assert_eq!(s[&1], 14);
        assert_eq!(s[&2], 30);
        assert_eq!(s[&3], 6);
        // self times of a tree sum to the root's duration
        assert_eq!(s.values().sum::<u64>(), 100 + 10, "the overlap [20,30) is counted twice");
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans =
            vec![span(0, None, 50, 100), span(1, Some(0), 40, 60), span(2, Some(0), 90, 120)];
        let s = self_times(&spans);
        assert_eq!(s[&0], 50 - 10 - 10);
    }

    #[test]
    fn disjoint_children_sum_exactly() {
        let spans = vec![
            span(0, None, 0, 1000),
            span(1, Some(0), 0, 100),
            span(2, Some(0), 200, 300),
            span(3, Some(0), 900, 1000),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&0], 700);
        assert_eq!(s.values().sum::<u64>(), 1000);
        let t = totals(&spans);
        assert_eq!(t["x"].count, 4);
        assert!((t["x"].self_us - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_records_parented_spans() {
        let t = Tracer::new();
        let root = t.open();
        let start = t.now();
        t.span("child", Some(root), 7, || std::hint::black_box(1 + 1));
        t.close(root, "root", None, 7, start);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root));
        assert_eq!(child.req, 7);
    }
}
