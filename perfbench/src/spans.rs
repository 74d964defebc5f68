//! Spans the benchmark records around its own calls into the pipeline's
//! crates, and the self-time accounting over them.
//!
//! Every span carries a lane name (which part of the pipeline recorded
//! it) and the thread that recorded it. Nesting is derived per thread,
//! never per lane: a `route` span recorded inside a `main` span on the
//! same thread is that span's child, so its time is counted once. A
//! profiler that nests per lane counts the child twice, once as its own
//! root and once inside its caller.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which part of the pipeline recorded the span.
    pub lane: &'static str,
    /// `<layer>.<what>`; the layer is the crate the span wraps a call into.
    pub name: &'static str,
    /// Recording thread.
    pub thread: u64,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory on one thread; [`Tracer::spans`] hands them
/// out when the traced run ends.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` on `lane`.
    pub fn time<T>(&self, lane: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(lane, name, t0, Instant::now());
        out
    }

    /// Records a span between two instants.
    pub fn record(&self, lane: &'static str, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            lane,
            name,
            thread: 0,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// The spans recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self-time accounting of a span set.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Time covered by root spans (spans with no parent on their thread).
    pub covered_ns: u64,
}

impl Profile {
    /// Summed self time of every span.
    pub fn self_ns(&self) -> u64 {
        self.by_name.values().map(|t| t.self_ns).sum()
    }

    /// Summed self time of one layer's spans.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Totals of one span name (zero when it never ran).
    pub fn name(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Wall time not covered by any layer's self time: the glue between
    /// the calls the benchmark wraps. `wall_ns` is measured around the
    /// whole traced run on one thread.
    pub fn unattributed_ns(&self, wall_ns: u64) -> i64 {
        wall_ns as i64 - self.self_ns() as i64
    }
}

/// Derives nesting per recording thread by time containment and
/// computes each span's self time. A child that outlives its parent is
/// clipped to the parent's end, so summed self time on a thread never
/// exceeds the time its root spans cover.
pub fn profile(spans: &[Span]) -> Profile {
    let mut by_thread: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(*s);
    }
    let mut out = Profile::default();
    for (_, mut list) in by_thread {
        // Parents before children: earlier start first, longer first on ties.
        list.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        let mut self_ns: Vec<u64> = list.iter().map(Span::duration_ns).collect();
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..list.len() {
            let s = list[i];
            while let Some(&top) = stack.last() {
                if list[top].end_ns <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            match stack.last() {
                Some(&parent) => {
                    let end = s.end_ns.min(list[parent].end_ns);
                    let covered = end.saturating_sub(s.start_ns);
                    self_ns[parent] = self_ns[parent].saturating_sub(covered);
                    if end < s.end_ns {
                        self_ns[i] = covered;
                        list[i].end_ns = end;
                    }
                }
                None => out.covered_ns += s.duration_ns(),
            }
            stack.push(i);
        }
        for (s, own) in list.iter().zip(self_ns) {
            let t = out.by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: &'static str, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            lane,
            name,
            thread: 7,
            start_ns,
            end_ns,
        }
    }

    /// The shape of the d3 double count: the pipeline records its stage
    /// spans on `main`, the router records its own spans on `route`, and
    /// both run on the same thread, nested.
    fn d3_shape() -> Vec<Span> {
        vec![
            span("main", "place.stage1", 0, 100),
            span("main", "refine.snapshot", 100, 110),
            span("route", "route.global_route", 110, 900),
            span("route", "route.channel_graph", 110, 130),
            span("route", "route.phase1", 130, 850),
            span("route", "route.phase1_net", 130, 500),
            span("route", "route.phase1_net", 500, 849),
            span("route", "route.phase2", 850, 890),
            span("main", "place.refine_anneal", 900, 1000),
        ]
    }

    #[test]
    fn same_thread_spans_on_two_lanes_nest_once() {
        let spans = d3_shape();
        let p = profile(&spans);
        // Summed self time equals the wall time the run covers.
        assert_eq!(p.covered_ns, 1000);
        assert_eq!(p.self_ns(), 1000);
        assert_eq!(p.unattributed_ns(1000), 0);
        // Nesting across lanes: the route parent keeps only its glue.
        assert_eq!(p.name("route.global_route").self_ns, 10);
        assert_eq!(p.name("route.phase1").self_ns, 1);
        assert_eq!(p.name("route.phase1_net").count, 2);
        assert_eq!(p.name("route.phase1_net").self_ns, 719);
        assert_eq!(p.layer_self_ns("route"), 790);
        assert_eq!(p.layer_self_ns("place"), 200);
        assert_eq!(p.layer_self_ns("refine"), 10);
        // The program's stage spans wrap the router call on `main`. Per
        // thread, the router's spans are its children and nothing is
        // counted twice.
        let mut with_caller = spans.clone();
        with_caller.push(span("main", "refine.iteration", 100, 1000));
        let p = profile(&with_caller);
        assert_eq!(p.self_ns(), 1000);
        assert_eq!(p.name("refine.iteration").self_ns, 0);
        // Nested per lane instead, the routing time shows up twice.
        let per_lane: Vec<Span> = with_caller
            .iter()
            .map(|s| Span {
                thread: if s.lane == "route" { 1 } else { 0 },
                ..*s
            })
            .collect();
        assert_eq!(profile(&per_lane).self_ns(), 1790);
    }

    #[test]
    fn gaps_between_wrapped_calls_are_unattributed() {
        let p = profile(&d3_shape());
        // 25 ns of glue before, between or after the wrapped calls.
        assert_eq!(p.unattributed_ns(1025), 25);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("main", "a.outer", 0, 100),
            span("route", "b.inner", 50, 150),
        ];
        let p = profile(&spans);
        assert_eq!(p.covered_ns, 100);
        assert_eq!(p.self_ns(), 100);
        assert_eq!(p.name("a.outer").self_ns, 50);
        assert_eq!(p.name("b.inner").self_ns, 50);
    }

    #[test]
    fn threads_are_accounted_separately() {
        let mut spans = d3_shape();
        spans.push(Span {
            thread: 8,
            ..span("route", "route.phase1_net", 0, 400)
        });
        let p = profile(&spans);
        assert_eq!(p.covered_ns, 1400);
        assert_eq!(p.name("route.phase1_net").self_ns, 1119);
    }

    #[test]
    fn tracer_records_nested_calls_in_order() {
        let t = Tracer::new();
        let v = t.time("main", "core.outer", || {
            t.time("route", "route.inner", || 3)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "route.inner");
        let p = profile(&spans);
        assert_eq!(p.self_ns(), p.covered_ns);
    }
}
