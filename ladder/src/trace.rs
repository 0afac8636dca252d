//! The span recorder of the traced replay.
//!
//! Spans are recorded only here, in the benchmark, around calls into
//! each layer's public functions. A span's layer is its name up to the
//! first `.` (`net`, `serve`, `logic`, `query`, `finite`, `math`, `ti`,
//! `store`); root spans (`request`, `lifecycle`) belong to no layer.
//!
//! A child either runs inside its parent's interval (the benchmark calls
//! the public functions an upper layer is made of, in the same order),
//! or is a *rung*: work the parent does, measured outside the parent's
//! interval — on a twin stack in the same state just before the parent
//! ran (the in-process service under an HTTP request, the query pipeline
//! under a service call), or repeated on the same inputs after it (the
//! flat kernel under a Shannon component). Either way a
//! span's self time is its duration minus its children's, and the traced
//! end-to-end time is the sum of the root spans. What the layers do not
//! cover is reported as `unattributed`, so layer self times plus
//! `unattributed` sum to the traced end-to-end time exactly.
//!
//! Self times are signed: a rung measured on a twin can take longer than
//! its parent did, and flooring those differences at 0 would bias every
//! parent layer upward. Summed over a replay, signed differences are
//! unbiased estimates of each layer's mean cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `query.prefix`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Request (or lifecycle) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Keeps spans in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    req: u64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            req: 0,
        }
    }

    /// Tags following spans with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span measured as `[start, end)`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req: self.req,
        });
        self.spans.len() - 1
    }

    /// Reserves a span whose interval is set later with [`Self::close`];
    /// lets children name their parent before the parent has run.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Sets the interval of a reserved span.
    pub fn close(&mut self, id: usize, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id];
        span.start_ns = s;
        span.end_ns = e;
    }

    /// Sets a reserved span to `[start, start + dur_ns)`.
    pub fn close_dur(&mut self, id: usize, start: Instant, dur_ns: u64) {
        let s = self.ns(start);
        let span = &mut self.spans[id];
        span.start_ns = s;
        span.end_ns = s + dur_ns;
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// The layer a span name belongs to; `None` for root spans.
pub fn layer(name: &str) -> Option<&str> {
    name.split_once('.').map(|(layer, _)| layer)
}

/// Layers in stack order.
pub const LAYERS: [&str; 8] = [
    "net", "serve", "logic", "query", "finite", "math", "ti", "store",
];

/// Self-time accounting over a finished recording.
pub struct Breakdown {
    /// Sum of root span durations: the traced end-to-end time.
    pub e2e_ns: u64,
    /// Self time per layer.
    pub layer_self_ns: BTreeMap<&'static str, i64>,
    /// Self time of every span, by index.
    pub self_ns: Vec<i64>,
}

impl Breakdown {
    /// Computes self times, over the trees under root spans named `root`
    /// or over all of them.
    pub fn of(spans: &[Span], root: Option<&str>) -> Breakdown {
        let mut child_ns = vec![0i64; spans.len()];
        // a parent is always recorded (or reserved) before its children
        let mut root_of = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns() as i64;
                root_of[i] = root_of[p];
            } else {
                root_of[i] = i;
            }
        }
        let self_ns: Vec<i64> = spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns() as i64 - c)
            .collect();
        let mut layer_self_ns: BTreeMap<&'static str, i64> =
            LAYERS.iter().map(|l| (*l, 0)).collect();
        let mut e2e_ns = 0;
        for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
            if root.is_some_and(|r| spans[root_of[i]].name != r) {
                continue;
            }
            match layer(s.name).and_then(|l| LAYERS.iter().find(|k| **k == l)) {
                Some(l) => *layer_self_ns.get_mut(l).expect("seeded with every layer") += own,
                None if s.parent.is_none() => e2e_ns += s.dur_ns(),
                None => {}
            }
        }
        Breakdown {
            e2e_ns,
            layer_self_ns,
            self_ns,
        }
    }

    /// Traced end-to-end time not covered by any layer: the benchmark's
    /// own client work inside the root spans.
    pub fn unattributed_ns(&self) -> i64 {
        self.e2e_ns as i64 - self.layer_self_ns.values().sum::<i64>()
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_us(&self, spans: &[Span], name: &str) -> Vec<f64> {
        spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| *own as f64 / 1e3)
            .collect()
    }
}
