//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`; spans of one
//! operation (one model, one client session) share `op`. They are kept in
//! memory and written once, when the traced run ends. A disabled tracer
//! records nothing, which is what the timed runs use.

use crate::json::{num, obj, text, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.train_epoch`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation.
    pub op: u64,
}

/// Busy time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time child spans cover, seconds.
    pub self_s: f64,
}

/// Records spans for one thread.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; `enabled == false` records nothing.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. Spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals. A span's self time is its duration minus the part of
/// its interval that its direct children cover (their union, clipped to
/// the parent, so overlapping or overhanging children are not counted
/// twice).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            if hi > reach {
                covered += hi - lo.max(reach);
                reach = hi;
            }
        }
        let duration = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += duration as f64 / 1e9;
        t.self_s += (duration - covered) as f64 / 1e9;
    }
    out
}

/// The trace file: every span, then the per-name totals.
pub fn to_json(spans: &[Span]) -> Json {
    let span_rows = spans
        .iter()
        .map(|s| {
            obj([
                ("name", text(s.name)),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                ("op", num(s.op as f64)),
            ])
        })
        .collect();
    let total_rows = totals(spans)
        .into_iter()
        .map(|(name, t)| {
            obj([
                ("name", text(name)),
                ("count", num(t.count as f64)),
                ("total_s", num(t.total_s)),
                ("self_s", num(t.self_s)),
            ])
        })
        .collect();
    obj([
        ("spans", Json::Array(span_rows)),
        ("totals", Json::Array(total_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("model", 0, 100, None),
            span("train", 10, 40, Some(0)),
            // Overlaps `train` by 10 ns and overhangs the parent by 20.
            span("engine", 30, 120, Some(0)),
            span("fit", 35, 45, Some(2)),
        ];
        let t = totals(&spans);
        // Children cover [10, 100) of the parent: 90 ns.
        assert_eq!(t["model"].self_s, 10.0 / 1e9);
        assert_eq!(t["model"].total_s, 100.0 / 1e9);
        assert_eq!(t["train"].self_s, 30.0 / 1e9);
        assert_eq!(t["engine"].self_s, 80.0 / 1e9);
        assert_eq!(t["fit"].self_s, 10.0 / 1e9);
    }

    #[test]
    fn nesting_sets_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        let by_name = totals(s);
        assert_eq!(by_name["inner"].count, 2);
        assert!(by_name["outer"].self_s <= by_name["outer"].total_s);

        let mut off = Tracer::new(Instant::now(), false);
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Tracer::new(Instant::now(), true);
        a.span("a", 0, |_| ());
        let mut b = Tracer::new(Instant::now(), true);
        b.span("session", 1, |t| t.span("classify", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
