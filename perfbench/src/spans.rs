//! Spans the traced run records around each call it makes into a layer.
//!
//! A span has a name (the layer it times), start and end, the span that
//! caused it, and the op it belongs to. Spans stay in memory and are
//! written out once, when the run ends. A span's self time is its
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Index of an open span, closed with [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// One thread's span log.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map(|p| p.0),
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id.0].end = now;
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let value = f();
        self.end(id);
        value
    }

    pub fn duration(&self, id: SpanId) -> u64 {
        self.spans[id.0].duration()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-name totals over a span log.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Full duration per span name, in nanoseconds.
    pub total_ns: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    pub fn of(spans: &[Span]) -> LayerTimes {
        let mut t = LayerTimes::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *t.self_ns.entry(s.name).or_default() += own;
            *t.total_ns.entry(s.name).or_default() += s.duration();
        }
        t
    }

    /// Adds another log's totals (per-thread logs merge this way).
    pub fn absorb(&mut self, other: LayerTimes) {
        for (k, v) in other.self_ns {
            *self.self_ns.entry(k).or_default() += v;
        }
        for (k, v) in other.total_ns {
            *self.total_ns.entry(k).or_default() += v;
        }
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.total_ns.get(name).copied().unwrap_or(0)
    }

    /// Checks that the self times of all spans under the `op` spans add
    /// up to the ops' total duration: every op span is a root and every
    /// other span lies inside its op, so nothing is counted twice or lost.
    pub fn check_accounting(&self, spans: &[Span]) -> Result<(), String> {
        let ops = self.total_ns("op");
        let selfs: u64 = self.self_ns.values().sum();
        let misplaced = spans
            .iter()
            .filter(|s| (s.name == "op") != s.parent.is_none())
            .count();
        if selfs == ops && misplaced == 0 {
            Ok(())
        } else {
            Err(format!(
                "span self times add up to {selfs} ns but ops took {ops} ns \
                 ({misplaced} misplaced spans)"
            ))
        }
    }
}

/// The span log as Chrome trace-event JSON (loads in Perfetto); `tid`
/// tells the client threads apart.
pub fn chrome_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.start as f64 / 1e3,
                s.duration() as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 62, 65, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 7, 3]);
    }

    #[test]
    fn nested_self_times_add_up_to_the_op() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 62, 65, Some(2)),
        ];
        assert!(LayerTimes::of(&spans).check_accounting(&spans).is_ok());
    }

    #[test]
    fn accounting_flags_spans_outside_ops() {
        let spans = vec![span("op", 0, 100, None), span("a", 10, 40, None)];
        assert!(LayerTimes::of(&spans).check_accounting(&spans).is_err());
    }
}
