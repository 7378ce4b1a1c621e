//! Coarse spans at the layer boundaries the benchmark calls across:
//! workload → run → {setup, engine.run, judge.<oracle>}, campaign → kind,
//! live → {probe, drive, judge}.
//!
//! [`Tracer::span`] always times the call, because the end-to-end figures
//! need those durations with tracing off too; it records a span (id, name,
//! start, end, parent) only when tracing is on. Spans stay in memory and
//! are written as Chrome-trace JSON when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `layer.part` name, e.g. `engine.run` or `judge.linearizable`.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// Times calls and, when enabled, records them as nested spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded (the traced pass).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` and returns its result with the host seconds it took.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let result = f();
            return (result, start.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let result = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        (result, (end - spans[id].start_ns) as f64 / 1e9)
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto)
    /// to `<dir>/<stem>.trace.json` and returns the path.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_chrome_trace(&self, dir: &Path, stem: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, chrome_trace_json(&self.spans.borrow()))?;
        Ok(path)
    }
}

/// Self time of each span: its duration minus the part its children cover
/// (children of one span never overlap: spans are opened and closed in
/// stack order on one thread).
#[must_use]
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own.into_iter().map(|ns| ns as f64 / 1e9).collect()
}

fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        // Span names are benchmark-chosen identifiers (letters, digits,
        // `.`, `_`, `-`), so they need no JSON escaping.
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            span.id,
            parent
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_seconds(&spans);
        assert!(own[1] >= 0.002);
        assert!(own[0] < own[1], "outer self time excludes the inner sleep");
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let ((), secs) = tracer.span("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(tracer.spans().is_empty());
    }
}
