//! In-memory spans for the traced run.
//!
//! Every span records its name, start, end, parent span and request id.
//! Spans stay in memory while the workload runs and are written out as
//! NDJSON when it ends; per-layer self time is derived from them
//! afterwards. A span is either opened and closed around a call (two
//! clock reads and a short critical section) or recorded after the fact
//! from times the code under test measured itself. A disabled tracer
//! reads no clock and records nothing: the untraced runs that give the
//! end-to-end numbers go through the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer boundary the span brackets, e.g. `core.optimize`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span belongs to; spans of one request share it.
    pub request: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// A span recorder shared by the workload's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a plain function
    /// call with no clock read.
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), spans: enabled.then(|| Mutex::new(Vec::new())) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.offset_ns(Instant::now())
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval; `None` when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            request,
        };
        let mut spans =
            spans.lock().expect("span list poisoned by a panicking workload thread");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let start_ns = self.now_ns();
        let mut spans =
            spans.lock().expect("span list poisoned by a panicking workload thread");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        let (Some(spans), Some(id)) = (self.spans.as_ref(), id) else { return };
        let end_ns = self.now_ns();
        spans.lock().expect("span list poisoned by a panicking workload thread")[id].end_ns =
            end_ns;
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent nested spans.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| {
                s.lock().expect("span list poisoned by a panicking workload thread").clone()
            })
            .unwrap_or_default()
    }
}

/// Per-name count, total and self time. A span's self time is its
/// duration minus the union of its children's intervals (clipped to the
/// span), so overlapping children running on two workers are not
/// subtracted twice.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// The spans as NDJSON, one object per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (a second worker): counted once.
            span("b", 30, 60, Some(0)),
            span("c", 50, 55, Some(2)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["request"], LayerTime { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(t["b"].self_ns, 25);
        assert_eq!(t["c"].self_ns, 5);
    }

    #[test]
    fn recorded_spans_keep_their_times_and_parent() {
        use std::time::Duration;
        let t = Tracer::new(true);
        let start = Instant::now();
        let end = start + Duration::from_millis(3);
        let root = t.record("request", start, end, None, 9);
        t.record("core.classify", start, start + Duration::from_millis(1), root, 9);
        let spans = t.spans();
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, 9);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 3_000_000);
        assert_eq!(layer_times(&spans)["request"].self_ns, 2_000_000);
        assert_eq!(Tracer::new(false).record("x", start, end, None, 0), None);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.in_span("x", None, 1, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());

        let on = Tracer::new(true);
        on.in_span("outer", None, 3, |id| on.in_span("inner", id, 3, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(to_ndjson(&spans).lines().count() == 2);
    }
}
