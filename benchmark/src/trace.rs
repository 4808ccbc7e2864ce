//! The benchmark's own span recorder: one span around every call the
//! benchmark makes into a layer of the program, kept in memory and written
//! out when the run ends. Nothing inside the program is instrumented — a
//! span's start and end are the instants just before and after a public
//! call, so a layer's *self time* is its span minus the child spans the
//! benchmark opened inside it.

use serde::Value;
use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `caps.multiply`.
    pub name: &'static str,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id: spans of one request/round share it.
    pub op: u64,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Single-threaded span recorder. A disabled recorder (the untraced pass)
/// records nothing and costs one branch per call, so the same driver code
/// serves both passes.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or drops them.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    spans: Vec::new(),
                    open: Vec::new(),
                })
            }),
        }
    }

    /// Runs `f` inside a span named `name` for operation `op`; nested calls
    /// become child spans.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let Some(cell) = &self.inner else {
            return f();
        };
        let idx = {
            let mut inner = cell.borrow_mut();
            let parent = inner.open.last().copied();
            let idx = inner.spans.len();
            inner.spans.push(Span {
                name,
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent,
                op,
            });
            inner.open.push(idx);
            idx
        };
        let out = f();
        let mut inner = cell.borrow_mut();
        inner.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        inner.open.pop();
        out
    }

    /// All closed spans so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|c| c.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Per-name totals over a span list: `(name, count, total seconds, self
/// seconds)`, self = duration minus the part covered by direct children.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut child_total = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_total[p] += s.end_s - s.start_s;
        }
    }
    let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_s - s.start_s;
        let own = (dur - child_total[i]).max(0.0);
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += dur;
                e.3 += own;
            }
            None => out.push((s.name, 1, dur, own)),
        }
    }
    out
}

/// Writes the spans (and their per-name self-time summary) as JSON.
pub fn write(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let span_values = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("start_s".into(), Value::Float(s.start_s)),
                ("end_s".into(), Value::Float(s.end_s)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("op".into(), Value::UInt(s.op)),
            ])
        })
        .collect();
    let summary = self_times(spans)
        .into_iter()
        .map(|(name, count, total, own)| {
            Value::Object(vec![
                ("name".into(), Value::String(name.into())),
                ("count".into(), Value::UInt(count as u64)),
                ("total_s".into(), Value::Float(total)),
                ("self_s".into(), Value::Float(own)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("numbers".into(), Value::String("host".into())),
        ("self_times".into(), Value::Array(summary)),
        ("spans".into(), Value::Array(span_values)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let rec = Recorder::new(true);
        rec.span("round", 7, || {
            rec.span("gemm.dgemm", 7, || std::hint::black_box(1 + 1));
            rec.span("caps.multiply", 7, || std::hint::black_box(2 + 2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_s >= s.start_s));
        let totals = self_times(&spans);
        let round = totals.iter().find(|t| t.0 == "round").unwrap();
        let kids: f64 = totals.iter().filter(|t| t.0 != "round").map(|t| t.2).sum();
        assert!((round.3 - (round.2 - kids)).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, || 5), 5);
        assert!(rec.spans().is_empty());
    }
}
