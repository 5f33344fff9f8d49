//! The traced run's span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer's
//! public function, kept in memory, and written out as JSON lines when the
//! run ends. A span has a name, a start and an end on the host clock (µs
//! since the recorder's origin), an optional parent, and the id of the
//! round or request it belongs to.
//!
//! `Coordinator::tick` reports its stages only as host-time durations
//! (`RoundReport`'s `stage_*` and `elapsed` fields), not as timestamps.
//! Those stage spans are laid back to back from the tick's start and
//! flagged `derived`. Whatever part of a parent its children do not cover
//! becomes an explicit `<parent>.unattributed` leaf, so children plus that
//! leaf always sum to the parent. The leaf is negative when derived
//! children overlap (stages that ran concurrently).

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `coordinator.tick`.
    pub name: String,
    /// Round id or request id this span belongs to.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// True when placed from a reported duration rather than timed here.
    pub derived: bool,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span store for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// µs since the origin of an instant.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished span from two instants.
    pub fn record(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (s, e) = (self.at(start), self.at(end));
        self.push(name, id, parent, s, e, false)
    }

    /// Place derived child spans of `parent` back to back from its start,
    /// one per `(name, ms)` pair. Returns the child span ids in order.
    pub fn derive_children(&mut self, parent: SpanId, parts: &[(&str, f64)]) -> Vec<SpanId> {
        let id = self.spans[parent].id;
        let mut cursor = self.spans[parent].start_us;
        let mut out = Vec::with_capacity(parts.len());
        for (name, ms) in parts {
            let end = cursor + ms * 1e3;
            out.push(self.push(name, id, Some(parent), cursor, end, true));
            cursor = end;
        }
        out
    }

    /// Add the `<parent>.unattributed` leaf covering what the parent's
    /// direct children do not, and return its duration in ms.
    pub fn close(&mut self, parent: SpanId) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_us - s.start_us)
            .sum();
        let p = &self.spans[parent];
        let rest = (p.end_us - p.start_us) - covered;
        let name = format!("{}.unattributed", p.name);
        let (id, end) = (p.id, p.end_us);
        self.push(&name, id, Some(parent), end - rest, end, true);
        rest / 1e3
    }

    fn push(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
        derived: bool,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_us,
            end_us,
            derived,
        });
        self.spans.len() - 1
    }

    /// Durations (ms) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: the summed duration (ms) of its direct children, or
    /// `None` for a leaf.
    fn child_sums(&self) -> Vec<Option<f64>> {
        let mut sums = vec![None; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                *sums[p].get_or_insert(0.0) += s.ms();
            }
        }
        sums
    }

    /// Check that every parent's children sum to its duration (within
    /// float rounding). Returns the worst gap in ms.
    pub fn worst_closure_gap_ms(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.child_sums())
            .filter_map(|(s, kids)| kids.map(|k| (s.ms() - k).abs()))
            .fold(0.0, f64::max)
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        let sums = self.child_sums();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":{},\"id\":{},\"parent\":{parent},\"start_us\":{},\
                 \"end_us\":{},\"self_ms\":{},\"derived\":{}}}",
                crate::report::quote(&s.name),
                s.id,
                s.start_us,
                s.end_us,
                s.ms() - sums[i].unwrap_or(0.0),
                s.derived
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn derived_children_and_leaf_sum_to_parent() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let end = start + Duration::from_millis(10);
        let tick = t.record("coordinator.tick", 3, None, start, end);
        t.derive_children(tick, &[("monitor", 4.0), ("checker", 3.0)]);
        let rest = t.close(tick);
        assert!((rest - 3.0).abs() < 1e-6);
        assert!(t.worst_closure_gap_ms() < 1e-6);
    }

    #[test]
    fn overlapping_children_leave_a_negative_leaf() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let p = t.record("p", 0, None, start, start + Duration::from_millis(2));
        t.derive_children(p, &[("a", 2.0), ("b", 1.0)]);
        assert!((t.close(p) + 1.0).abs() < 1e-6);
        assert!(t.worst_closure_gap_ms() < 1e-6);
    }
}
