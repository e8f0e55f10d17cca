//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions: name, start, end, parent span and
//! op id. A disabled tracer records nothing; `enter`/`exit` are then a
//! branch each, so the untraced run pays (almost) nothing for them.

use crate::stats::median;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The op this span belongs to; `None` for set-up and probes.
    pub op: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with `op` (`None` outside ops).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        // Spans nest strictly: the one closing is the innermost open one.
        debug_assert_eq!(self.open.last(), Some(&index));
        self.open.pop();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration (ms) of spans named `name`.
    pub fn median_ms(&self, name: &str) -> Result<f64, String> {
        median(&self.durations_ms(name)).ok_or_else(|| format!("no span named {name}"))
    }

    /// Median duration (ms) of the spans named `name` that belong to a
    /// timed op (warm-up and probe spans excluded).
    pub fn op_median_ms(&self, name: &str) -> Result<f64, String> {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.op.is_some())
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        median(&ms).ok_or_else(|| format!("no op span named {name}"))
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// part its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("a");
        t.exit(id);
        assert!(t.spans().is_empty());
        assert!(t.median_ms("a").is_err());
    }

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut t = Tracer::new(true);
        t.set_op(Some(7));
        let outer = t.enter("op");
        let inner = t.enter("core.detect");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        let op_self = t.self_ms("op")[0];
        let total = t.durations_ms("op")[0];
        let child = t.durations_ms("core.detect")[0];
        assert!(child >= 2.0);
        assert!((op_self - (total - child)).abs() < 1e-6);
    }
}
