//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, layer, name, start_ns, end_ns)`, recorded by
//! the benchmark around its calls into each crate. When disabled, `open`
//! and `close` do nothing, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Network layer (`c0`..`c6`, `fc`, `cls`) or `all`.
    pub layer: &'static str,
    /// Stage name, `<crate>.<stage>`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// The recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Layer label of conv `i` (the first conv is `c0`).
pub fn conv_layer(i: usize) -> &'static str {
    const NAMES: [&str; 10] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"];
    NAMES.get(i).copied().unwrap_or("cN")
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, parent: SpanId, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: 0,
        });
        Some(id)
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records an already-measured interval (e.g. timed inside a model
    /// wrapper that could not borrow the recorder).
    pub fn record(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent,
                layer,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ns) of every span: its duration minus the part of it
    /// covered by the union of its children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Total self time (s) per `(name, layer)`.
    pub fn self_by_stage(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times()) {
            *out.entry((span.name, span.layer)).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Total self time (s) of stage `name` over all layers.
    pub fn stage_s(&self, name: &str) -> f64 {
        self.self_by_stage()
            .iter()
            .filter(|((n, _), _)| *n == name)
            .fold(0.0, |acc, (_, s)| acc + s)
    }

    /// Writes the spans as JSON to `path`.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time (ns) of each span in `spans` (indexed by position, which
/// must equal `id`).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "all",
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50), // overlaps span 1
            span(3, Some(0), 60, 70),
            span(4, Some(3), 61, 69),  // grandchild: only affects span 3
            span(5, Some(0), 95, 120), // clipped at the parent's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 5, 20, 30, 2, 8, 25]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open(None, "all", "x");
        assert_eq!(id, None);
        t.close(id);
        t.record(None, "all", "y", 0, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn stage_totals_follow_self_time() {
        let mut t = Tracer::new(true);
        t.record(None, "all", "root", 0, 1_000);
        t.record(Some(0), "c1", "xbar.exec", 100, 400);
        t.record(Some(0), "c2", "xbar.exec", 500, 600);
        assert!((t.stage_s("xbar.exec") - 400e-9).abs() < 1e-15);
        assert!((t.stage_s("root") - 600e-9).abs() < 1e-15);
    }
}
