//! In-memory spans around the calls the harness makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only; nothing inside
//! the program is instrumented. A span's self time is its duration minus
//! the part its children cover, so self times of a tree sum to its root.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Identifier shared by every span of this trace.
    workload: String,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A trace whose clock starts at `origin`.
    pub fn new(workload: &str, origin: Instant) -> Tracer {
        Tracer {
            origin,
            workload: workload.to_owned(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let at = self.now_ns();
        self.enter_at(name, at)
    }

    pub fn exit(&mut self, id: SpanId) {
        let at = self.now_ns();
        self.exit_at(id, at);
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// # Panics
    /// Panics unless `id` is the innermost open span.
    fn exit_at(&mut self, id: SpanId, end_ns: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans close innermost-first; {:?} is not the innermost open span",
            self.spans[id].name
        );
        self.spans[id].end_ns = end_ns.max(self.spans[id].start_ns);
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's.
    ///
    /// # Panics
    /// Panics while a span is still open.
    pub fn self_times_ns(&self) -> Vec<u64> {
        assert!(self.open.is_empty(), "a span is still open");
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The whole trace: every span, then the per-name totals.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id as u64,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                })
            })
            .collect();
        let totals: BTreeMap<String, Value> = self
            .totals_by_name()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_owned(),
                    json!({"count": t.count, "total_ns": t.total_ns, "self_ns": t.self_ns}),
                )
            })
            .collect();
        json!({
            "workload": self.workload.as_str(),
            "totals": Value::Object(totals),
            "spans": spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 { a 10..40 { b 15..25 }, a 50..90 }
    fn sample() -> Tracer {
        let mut t = Tracer::new("w", Instant::now());
        let root = t.enter_at("root", 0);
        let a1 = t.enter_at("a", 10);
        let b = t.enter_at("b", 15);
        t.exit_at(b, 25);
        t.exit_at(a1, 40);
        let a2 = t.enter_at("a", 50);
        t.exit_at(a2, 90);
        t.exit_at(root, 100);
        t
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let t = sample();
        let own = t.self_times_ns();
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(own.iter().sum::<u64>(), t.spans()[0].duration_ns());
        let totals = t.totals_by_name();
        assert_eq!(
            totals["a"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(totals["root"].self_ns, 30);
    }

    #[test]
    fn parents_are_the_innermost_open_span() {
        let t = sample();
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_an_outer_span_first_panics() {
        let mut t = Tracer::new("w", Instant::now());
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn self_times_need_a_finished_trace() {
        let mut t = Tracer::new("w", Instant::now());
        t.enter("open");
        t.self_times_ns();
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut t = Tracer::new("steady", Instant::now());
        let n = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(n, 7);
        let v = t.to_json();
        assert_eq!(v["workload"].as_str(), Some("steady"));
        assert_eq!(v["spans"].as_array().unwrap().len(), 2);
        assert_eq!(v["spans"][1]["parent"].as_u64(), Some(0));
        assert!(v["spans"][0]["parent"].is_null());
        assert_eq!(v["totals"]["inner"]["count"].as_u64(), Some(1));
    }
}
