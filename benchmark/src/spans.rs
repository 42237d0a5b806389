//! In-memory spans recorded around calls into each layer.
//!
//! A span is `(name, start, end, parent, block)`: the layer boundary it
//! brackets, host-clock nanoseconds since the recorder was created, the
//! span that caused it, and the identifier every span of one unit of
//! work (a 64-packet block, or one measurement of the sim ledger)
//! shares. Spans stay in memory for the whole pass and are written out
//! once, as Chrome-trace JSON, when the pass ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary the span brackets (`layer.stage`).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the causing span (`None` for a root).
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one unit of work.
    pub block: u32,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled recorder reads no clock at all, which is
/// what the untraced twin of a traced pass runs with.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// A recorder; `enabled = false` makes `begin`/`end` no-ops.
    pub fn new(enabled: bool) -> Self {
        SpanRecorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index (0 when disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, block: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            block,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id`.
    pub fn end(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of the spans:
    /// one complete (`"ph":"X"`) event per span, one track per block
    /// parity so adjacent blocks stay distinguishable.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("block", Json::Num(s.block as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are merged, so a span's self time is never
/// negative and never counts an instant twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Cost of one `begin`/`end` pair on this host, ns (median of many):
/// what tracing adds per span, reported as `trace.timer_ns`.
pub fn timer_cost_ns() -> f64 {
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let mut rec = SpanRecorder::new(true);
        rec.spans.reserve(256);
        let t = Instant::now();
        for i in 0..256u32 {
            let id = rec.begin("timer", None, i);
            rec.end(id);
        }
        let dt = t.elapsed().as_nanos() as f64 / 256.0;
        std::hint::black_box(rec.spans());
        samples.push(dt);
    }
    crate::stats::median(&samples).unwrap_or(0.0)
}
