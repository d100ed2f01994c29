//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public functions: name, layer, start, end, parent span
//! and the study or request id they belong to. They stay in memory
//! until the run ends and are written out once, so recording costs one
//! mutex push per span and no I/O on the measured path.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::{object, text};

/// Identifier of a recorded (or still open) span.
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the trace.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// What the span covers (`crawl`, `checkpoint.save`, ...).
    pub name: String,
    /// The layer it is charged to, as `crate::module`.
    pub layer: &'static str,
    /// Study or request id the span belongs to (0 when none).
    pub tag: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has begun but not ended.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    layer: &'static str,
    tag: u64,
    start: Instant,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: Mutex<SpanId>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: Mutex::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span charged to `layer`.
    pub fn begin(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        tag: u64,
    ) -> Open {
        let id = {
            let mut next = self.next_id.lock().expect("span id counter poisoned");
            let id = *next;
            *next += 1;
            id
        };
        Open {
            id,
            parent,
            name: name.into(),
            layer,
            tag,
            start: Instant::now(),
        }
    }

    /// Closes `open`, records it and returns its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            layer: open.layer,
            tag: open.tag,
            start_ns: nanos(open.start.duration_since(self.epoch)),
            end_ns: nanos(end.duration_since(self.epoch)),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        end.duration_since(open.start)
    }

    /// Records a span measured elsewhere, from `start` to `end`.
    pub fn record(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        start: Instant,
        end: Instant,
    ) {
        let open = self.begin(name, layer, parent, tag);
        let span = Span {
            id: open.id,
            parent,
            name: open.name,
            layer,
            tag,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn run<T>(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, layer, parent, tag);
        let out = f(open.id());
        let dur = self.end(open);
        (out, dur)
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children on other threads may overlap; their
/// union counts once).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - union_len(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Per-layer self time (seconds) and span count under the root span
/// `root`, plus the root's own self time reported as `other`.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Layer → (self seconds, spans).
    pub layers: BTreeMap<&'static str, (f64, u64)>,
    /// Root wall time in seconds.
    pub wall_s: f64,
    /// Root time no child span covers.
    pub other_s: f64,
}

impl LayerTable {
    /// Share of the root's wall time that layer spans cover.
    pub fn coverage(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        1.0 - self.other_s / self.wall_s
    }
}

/// Builds the layer table for the tree under `root`.
pub fn layer_table(spans: &[Span], root: SpanId) -> LayerTable {
    let selfs = self_times(spans);
    let mut in_tree: BTreeMap<SpanId, bool> = BTreeMap::new();
    in_tree.insert(root, true);
    // Spans complete children-first, so resolve ancestry by walking
    // parents until a known answer.
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut table = LayerTable::default();
    for s in spans {
        let mut chain = Vec::new();
        let mut cur = Some(s.id);
        let belongs = loop {
            match cur {
                None => break false,
                Some(id) => {
                    if let Some(&known) = in_tree.get(&id) {
                        break known;
                    }
                    chain.push(id);
                    cur = by_id.get(&id).and_then(|sp| sp.parent);
                }
            }
        };
        for id in chain {
            in_tree.insert(id, belongs);
        }
        if !belongs {
            continue;
        }
        let self_s = selfs[&s.id] as f64 / 1e9;
        if s.id == root {
            table.wall_s = s.dur_ns() as f64 / 1e9;
            table.other_s = self_s;
        } else {
            let e = table.layers.entry(s.layer).or_default();
            e.0 += self_s;
            e.1 += 1;
        }
    }
    table
}

/// The trace as a JSON document: every span plus the layer tables of
/// the given roots.
pub fn to_json(spans: &[Span], roots: &[(String, LayerTable)]) -> String {
    let spans = spans
        .iter()
        .map(|s| {
            object([
                ("id", Value::U64(s.id)),
                ("parent", s.parent.map_or(Value::Null, Value::U64)),
                ("name", text(&s.name)),
                ("layer", text(s.layer)),
                ("tag", Value::U64(s.tag)),
                ("start_ns", Value::U64(s.start_ns)),
                ("end_ns", Value::U64(s.end_ns)),
            ])
        })
        .collect();
    let layers = roots
        .iter()
        .map(|(name, t)| {
            let self_s = t
                .layers
                .iter()
                .map(|(layer, (secs, count))| {
                    object([
                        ("layer", text(layer)),
                        ("self_s", Value::F64(*secs)),
                        ("spans", Value::U64(*count)),
                    ])
                })
                .collect();
            object([
                ("root", text(name)),
                ("wall_s", Value::F64(t.wall_s)),
                ("other_s", Value::F64(t.other_s)),
                ("coverage", Value::F64(t.coverage())),
                ("self_s", Value::Seq(self_s)),
            ])
        })
        .collect();
    let doc = object([("spans", Value::Seq(spans)), ("layers", Value::Seq(layers))]);
    serde_json::to_string(&doc).expect("JSON values serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name: layer.to_string(),
            layer,
            tag: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 60), // overlaps a on another thread
            span(4, Some(2), "c", 15, 20),
            span(1, None, "root", 0, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 25);
        assert_eq!(selfs[&3], 30);
        let table = layer_table(&spans, 1);
        assert!((table.other_s - 50e-9).abs() < 1e-15);
        assert!((table.coverage() - 0.5).abs() < 1e-12);
        assert_eq!(table.layers["a"].1, 1);
    }

    #[test]
    fn spans_outside_the_root_are_ignored() {
        let spans = vec![
            span(2, Some(1), "a", 0, 5),
            span(1, None, "root", 0, 10),
            span(3, None, "x", 0, 99),
        ];
        let table = layer_table(&spans, 1);
        assert!(!table.layers.contains_key("x"));
        assert!((table.wall_s - 10e-9).abs() < 1e-15);
    }
}
