//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer and entry point, e.g.
//! `sketch.atomic.insert_slice`), start and end offsets from the tracer's
//! origin, the id of the span that caused it (0 for none) and a request id
//! shared by the spans of one operation. Spans are kept in memory and
//! written out when the run ends. With tracing off, [`Tracer::time`] only
//! calls its closure: untraced runs pay one branch per call.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u64,
    /// Request id shared by the spans of one operation.
    pub req: u64,
    /// Layer entry point.
    pub name: &'static str,
    /// Start offset from the tracer's origin, ns.
    pub start_ns: u64,
    /// End offset from the tracer's origin, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder shared by the run's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closed (recorded) when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open<'_> {
    /// This span's id, for children to name as parent (0 when tracing is
    /// off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end_ns = self.tracer.now_ns();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                req: self.req,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Opens a span that closes when the returned guard drops.
    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Open<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Open {
            tracer: self,
            id,
            parent,
            req,
            name,
            start_ns,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let _span = self.open(name, parent, req);
        f()
    }

    /// A copy of every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed self time in ns of the spans named `name`.
    pub fn self_total_ns(&self, name: &str) -> f64 {
        let spans = self.spans();
        let own = self_times(&spans);
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| own[&s.id] as f64)
            .sum()
    }

    /// Per span name: count, total ns and self ns — the run's span summary.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let own = self_times(&spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own[&s.id];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut cur_lo, mut cur_hi) = (0u64, 0u64);
                for &(lo, hi) in kids.iter() {
                    let (lo, hi) = (lo.max(s.start_ns), hi.min(s.end_ns));
                    if hi <= lo {
                        continue;
                    }
                    if lo > cur_hi {
                        covered += cur_hi - cur_lo;
                        (cur_lo, cur_hi) = (lo, hi);
                    } else {
                        cur_hi = cur_hi.max(hi);
                    }
                }
                covered += cur_hi - cur_lo;
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),  // overlaps span 2: [10, 40) covered once
            span(4, 1, 90, 120), // clipped to the parent's end
            span(5, 2, 12, 14),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 10);
        assert_eq!(own[&2], 20 - 2);
        assert_eq!(own[&5], 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.time("x", 0, 0, || 7), 7);
        assert_eq!(tracer.len(), 0);
        let on = Tracer::new(true);
        {
            let outer = on.open("outer", 0, 1);
            on.time("inner", outer.id(), 1, || ());
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
