//! In-memory spans for the traced pass, recorded from the benchmark's
//! own code around each call into a layer and written out when the pass
//! ends.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The simulation sample the span belongs to, if any.
    pub sample: Option<u64>,
}

/// A span recorder. A disabled recorder records nothing, so the same
/// code path serves traced and untraced samples.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// A layer's share of the traced time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: usize,
    /// Their summed duration, seconds.
    pub total_s: f64,
    /// Their summed duration minus what their child spans cover.
    pub self_s: f64,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Self::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        sample: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            sample,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Spans::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent its own.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        sample: Option<u64>,
        f: impl FnOnce(&mut Self, Option<SpanId>) -> R,
    ) -> R {
        let id = self.begin(name, parent, sample);
        let r = f(self, id);
        self.end(id);
        r
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"sample\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.sample)
            );
        }
        out
    }

    /// Total and self time per span name. Children of one span never
    /// overlap (the benchmark is sequential), so a span's self time is
    /// its duration minus its children's summed durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur(s);
            e.self_s += dur(s) - c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::enabled();
        let root = s.begin("root", None, None);
        let kid = s.begin("kid", root, Some(3));
        s.end(kid);
        s.end(root);
        // Pin the clock readings so the arithmetic is exact.
        s.spans[0].start_ns = 0;
        s.spans[0].end_ns = 10_000;
        s.spans[1].start_ns = 2_000;
        s.spans[1].end_ns = 6_000;
        let t = s.self_times();
        assert!((t["root"].total_s - 10e-6).abs() < 1e-15);
        assert!((t["root"].self_s - 6e-6).abs() < 1e-15);
        assert!((t["kid"].self_s - 4e-6).abs() < 1e-15);
        assert!(s.to_jsonl().contains("\"parent\":0,\"sample\":3"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::disabled();
        let id = s.begin("x", None, None);
        s.end(id);
        assert!(id.is_none());
        assert!(s.to_jsonl().is_empty());
    }
}
