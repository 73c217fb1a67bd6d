//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span, thread and the
//! workload request it serves. Spans stay in memory while a workload runs
//! and are written out once at the end ([`Tracer::write_jsonl`]), so the
//! measured code never waits on I/O.
//!
//! Attribution ([`Tracer::self_times`]) walks the timeline of one root
//! span: at every instant the time goes to the innermost spans open at
//! that instant, split evenly when several run at once on different
//! threads. On one thread this is the span's duration minus the part its
//! children cover; across threads the shares still add up to the root's
//! wall time exactly, which is what the attribution check compares with
//! the untraced end-to-end time.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `NO_PARENT` marks a root.
pub type SpanId = u64;

/// Parent id of a root span.
pub const NO_PARENT: SpanId = 0;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    start_ns: u64,
    end_ns: u64,
    thread: u64,
    request: u64,
}

/// A span recorder shared by every thread of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; span times are nanoseconds since now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that is recorded when the guard drops.
    pub fn span(&self, name: impl Into<String>, parent: SpanId, request: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start: Instant::now(),
            request,
        }
    }

    /// Records a span measured elsewhere (for example by a library
    /// callback that reports a duration on completion).
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            thread: thread_id(),
            request,
        });
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("a tracing thread panicked").len()
    }

    /// Seconds of `root`'s wall time attributed to each span name in its
    /// subtree (see the module docs). The values sum to the root's
    /// duration.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        let subtree = subtree(&spans, root);
        attribute(&subtree)
    }

    /// Per span name in `root`'s subtree: how many spans, their summed
    /// duration and the longest one, in seconds.
    pub fn totals(&self, root: SpanId) -> BTreeMap<String, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for s in subtree(&spans, root) {
            let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 = e.2.max(d);
        }
        out
    }

    /// Duration of span `id` in seconds (0 when it was never recorded).
    pub fn duration_s(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        spans
            .iter()
            .find(|s| s.id == id)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let mut name = String::new();
            icn_obs::json::write_escaped(&s.name, &mut name);
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{name},\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"request\":{}}}",
                s.id, s.parent, s.start_ns, s.end_ns, s.thread, s.request
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself into its [`Tracer`] on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: SpanId,
    name: String,
    start: Instant,
    request: u64,
}

impl SpanGuard<'_> {
    /// The id children pass as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Renames the span before it closes (e.g. a fetch that turned out to
    /// be a cache hit).
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
            thread: thread_id(),
            request: self.request,
        });
    }
}

/// Opens a span only when tracing: the untraced path pays one branch.
pub fn maybe_span<'a>(
    tracer: Option<&'a Tracer>,
    name: &str,
    parent: SpanId,
    request: u64,
) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name, parent, request))
}

/// The id of an optional span, or `NO_PARENT`.
pub fn id_of(span: &Option<SpanGuard<'_>>) -> SpanId {
    span.as_ref().map_or(NO_PARENT, SpanGuard::id)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

fn subtree(spans: &[Span], root: SpanId) -> Vec<Span> {
    let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        children.entry(s.parent).or_default().push(i);
    }
    let mut out = Vec::new();
    let mut stack: Vec<usize> = spans
        .iter()
        .position(|s| s.id == root)
        .into_iter()
        .collect();
    while let Some(i) = stack.pop() {
        out.push(spans[i].clone());
        if let Some(kids) = children.get(&spans[i].id) {
            stack.extend(kids);
        }
    }
    out
}

/// Splits the root's wall time among the innermost open spans (see the
/// module docs). `spans[0]` must be the root.
fn attribute(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(root) = spans.first() else {
        return out;
    };
    let index: HashMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Events: (time, is_start, span). Ends sort before starts at equal
    // times so back-to-back spans never overlap.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        let start = s.start_ns.max(root.start_ns);
        let end = s.end_ns.min(root.end_ns).max(start);
        events.push((start, true, i));
        events.push((end, false, i));
    }
    events.sort_by_key(|&(t, is_start, _)| (t, is_start));
    let mut open_children = vec![0usize; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut weight = vec![0f64; spans.len()];
    let mut last = root.start_ns;
    for (t, is_start, i) in events {
        if t > last && !open.is_empty() {
            let leaves: Vec<usize> = open
                .iter()
                .copied()
                .filter(|&j| open_children[j] == 0)
                .collect();
            let dt = (t - last) as f64 / leaves.len() as f64;
            for j in leaves {
                weight[j] += dt;
            }
        }
        last = t;
        let parent = index.get(&spans[i].parent).copied().filter(|_| i != 0);
        if is_start {
            open.push(i);
            if let Some(p) = parent {
                open_children[p] += 1;
            }
        } else {
            open.retain(|&j| j != i);
            if let Some(p) = parent {
                open_children[p] -= 1;
            }
        }
    }
    for (s, w) in spans.iter().zip(weight) {
        *out.entry(s.name.clone()).or_insert(0.0) += w * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            thread: 0,
            request: 0,
        }
    }

    #[test]
    fn sequential_children_leave_the_parent_its_gaps() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 50, 90),
        ];
        let t = attribute(&spans);
        for (name, ns) in [("root", 30.0), ("a", 30.0), ("b", 40.0)] {
            assert!((t[name] - ns * 1e-9).abs() < 1e-15, "{t:?}");
        }
    }

    #[test]
    fn concurrent_children_split_the_overlap_and_sum_to_the_root() {
        // Two workers: "a" runs 0..60, "b" runs 20..100 under "pool".
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "pool", 0, 100),
            span(3, 2, "a", 0, 60),
            span(4, 2, "b", 20, 100),
        ];
        let t = attribute(&spans);
        assert!((t["a"] - 40e-9).abs() < 1e-15, "{t:?}");
        assert!((t["b"] - 60e-9).abs() < 1e-15, "{t:?}");
        let total: f64 = t.values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_round_trip_attributes_a_real_subtree() {
        let tracer = Tracer::new();
        let root_id = {
            let root = tracer.span("root", NO_PARENT, 0);
            {
                let _child = tracer.span("child", root.id(), 0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            root.id()
        };
        let _other = tracer.span("unrelated", NO_PARENT, 0);
        let t = tracer.self_times(root_id);
        assert!(t["child"] >= 0.002);
        assert!(!t.contains_key("unrelated"));
        let total: f64 = t.values().sum();
        assert!((total - tracer.duration_s(root_id)).abs() < 1e-9);
    }
}
