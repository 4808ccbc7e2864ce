//! Exporters: span pairing, the per-thread span forest, Chrome
//! trace-event JSON (Perfetto-loadable), folded-stack flamegraph text,
//! and the span-coverage metric.
//!
//! All exporters are pure functions of a collected [`Trace`].

use crate::model::{Category, Kind, Record, Trace};

/// One reconstructed span in a thread's nesting tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// Subsystem.
    pub cat: Category,
    /// First tag.
    pub arg0: u32,
    /// Second tag.
    pub arg1: u32,
    /// Open timestamp (ns on the trace clock).
    pub start_ns: u64,
    /// Close timestamp (ns). Spans still open when the session stopped
    /// are clamped to the session end.
    pub end_ns: u64,
    /// Nested child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Appends this node's *structural* signature (name, category, args,
    /// child structure — timestamps excluded) to `out`. Two runs with the
    /// same deterministic schedule must produce equal signatures even
    /// though wall-clock timings differ.
    pub fn structural_signature(&self, out: &mut String) {
        out.push_str(self.cat.as_str());
        out.push(':');
        out.push_str(self.name);
        out.push_str(&format!("({},{})", self.arg0, self.arg1));
        out.push('[');
        for child in &self.children {
            child.structural_signature(out);
            out.push(';');
        }
        out.push(']');
    }
}

/// Rebuilds each thread's span forest from its raw record stream.
///
/// Pairing rules: `Begin` opens, `End` closes the innermost open span.
/// A stray `End` with nothing open is ignored; spans left open when the
/// session stopped are clamped to `trace.end_ns`.
pub fn span_forest(trace: &Trace) -> Vec<(String, Vec<SpanNode>)> {
    trace
        .threads
        .iter()
        .map(|t| (t.name.clone(), thread_forest(&t.records, trace.end_ns)))
        .collect()
}

fn thread_forest(records: &[Record], clamp_end_ns: u64) -> Vec<SpanNode> {
    let mut roots = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    for rec in records {
        match rec.kind {
            Kind::Begin {
                name,
                cat,
                arg0,
                arg1,
            } => stack.push(SpanNode {
                name,
                cat,
                arg0,
                arg1,
                start_ns: rec.ts,
                end_ns: rec.ts,
                children: Vec::new(),
            }),
            Kind::End => {
                if let Some(mut node) = stack.pop() {
                    node.end_ns = rec.ts;
                    attach(&mut stack, &mut roots, node);
                }
                // Stray End (e.g. the opening Begin was dropped on ring
                // overflow): ignore rather than corrupt the tree.
            }
            // Async spans pair by id across threads; they are not part
            // of this thread's nesting stack.
            Kind::Instant { .. } | Kind::Counter { .. } | Kind::Async { .. } => {}
        }
    }
    // Clamp spans still open at session stop.
    while let Some(mut node) = stack.pop() {
        node.end_ns = clamp_end_ns.max(node.start_ns);
        attach(&mut stack, &mut roots, node);
    }
    roots
}

fn attach(stack: &mut [SpanNode], roots: &mut Vec<SpanNode>, node: SpanNode) {
    match stack.last_mut() {
        Some(parent) => parent.children.push(node),
        None => roots.push(node),
    }
}

/// Structural signature of the whole trace: thread labels plus each
/// thread's forest signature, timestamps excluded. Equal for two
/// deterministic replays of the same schedule.
pub fn structural_signature(trace: &Trace) -> String {
    let mut out = String::new();
    for (name, forest) in span_forest(trace) {
        out.push_str(&name);
        out.push('{');
        for node in &forest {
            node.structural_signature(&mut out);
            out.push(';');
        }
        out.push_str("}\n");
    }
    out
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn us(ns: u64) -> String {
    // Chrome trace timestamps are microseconds; keep nanosecond precision
    // as a fractional part.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the trace as Chrome trace-event JSON (the `traceEvents` array
/// form), loadable in Perfetto / `chrome://tracing`.
///
/// Spans become complete (`"ph":"X"`) events with microsecond
/// timestamps/durations, instants become `"ph":"i"`, counter samples
/// `"ph":"C"`, and each thread gets a `thread_name` metadata event.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(4096 + trace.total_records() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&body);
    };

    push_event(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"powerscale\"}}"
            .to_string(),
    );
    for (tid, t) in trace.threads.iter().enumerate() {
        let mut name = String::new();
        escape_json(&t.name, &mut name);
        push_event(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }

    let forest = span_forest(trace);
    for (tid, (_, roots)) in forest.iter().enumerate() {
        let mut stack: Vec<&SpanNode> = roots.iter().rev().collect();
        while let Some(node) = stack.pop() {
            push_event(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                     \"name\":\"{name}\",\"cat\":\"{cat}\",\
                     \"args\":{{\"arg0\":{a0},\"arg1\":{a1}}}}}",
                    ts = us(node.start_ns.saturating_sub(trace.start_ns)),
                    dur = us(node.dur_ns()),
                    name = node.name,
                    cat = node.cat.as_str(),
                    a0 = node.arg0,
                    a1 = node.arg1,
                ),
            );
            stack.extend(node.children.iter().rev());
        }
    }

    for (tid, t) in trace.threads.iter().enumerate() {
        for rec in &t.records {
            match rec.kind {
                Kind::Instant { name, cat, arg0 } => push_event(
                    &mut out,
                    format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                         \"name\":\"{name}\",\"cat\":\"{cat}\",\"s\":\"t\",\
                         \"args\":{{\"arg0\":{arg0}}}}}",
                        ts = us(rec.ts.saturating_sub(trace.start_ns)),
                        cat = cat.as_str(),
                    ),
                ),
                Kind::Counter { name, value } => push_event(
                    &mut out,
                    format!(
                        "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                         \"name\":\"{name}\",\"args\":{{\"value\":{value:.6}}}}}",
                        ts = us(rec.ts.saturating_sub(trace.start_ns)),
                    ),
                ),
                // Chrome async events: `b`/`e` pairs correlated by id,
                // rendered as a separate track — begin and end may sit on
                // different threads (queue-wait attribution).
                Kind::Async {
                    name,
                    cat,
                    id,
                    begin,
                } => push_event(
                    &mut out,
                    format!(
                        "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                         \"name\":\"{name}\",\"cat\":\"{cat}\",\"id\":\"0x{id:x}\"}}",
                        ph = if begin { 'b' } else { 'e' },
                        ts = us(rec.ts.saturating_sub(trace.start_ns)),
                        cat = cat.as_str(),
                    ),
                ),
                _ => {}
            }
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"trace-epoch-ns\"}}");
    out.push('\n');
    out
}

/// Renders folded flamegraph stacks (`thread;outer;inner <self-ns>`),
/// one line per distinct stack with its *self* time in nanoseconds —
/// compatible with `flamegraph.pl` / speedscope. Per thread, the folded
/// values sum to that thread's busy (root-span union) time.
pub fn to_folded(trace: &Trace) -> String {
    let mut lines: Vec<(String, u64)> = Vec::new();
    for (name, roots) in span_forest(trace) {
        for node in &roots {
            fold_node(&name, node, &mut lines);
        }
    }
    // Merge identical stacks for a compact file.
    lines.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    let mut iter = lines.into_iter();
    if let Some((mut cur, mut total)) = iter.next() {
        for (stack, v) in iter {
            if stack == cur {
                total += v;
            } else {
                out.push_str(&format!("{cur} {total}\n"));
                cur = stack;
                total = v;
            }
        }
        out.push_str(&format!("{cur} {total}\n"));
    }
    out
}

fn fold_node(prefix: &str, node: &SpanNode, lines: &mut Vec<(String, u64)>) {
    let path = format!("{prefix};{}", node.name);
    let child_ns: u64 = node.children.iter().map(SpanNode::dur_ns).sum();
    let self_ns = node.dur_ns().saturating_sub(child_ns);
    if self_ns > 0 {
        lines.push((path.clone(), self_ns));
    }
    for child in &node.children {
        fold_node(&path, child, lines);
    }
}

/// Fraction of the session wall time covered by at least one span on at
/// least one thread (union of all span intervals, clamped to the session
/// window). The acceptance bar for instrumented runs is ≥ 0.95.
pub fn coverage(trace: &Trace) -> f64 {
    let wall = trace.wall_ns();
    if wall == 0 {
        return 0.0;
    }
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    for (_, roots) in span_forest(trace) {
        for node in &roots {
            let lo = node.start_ns.max(trace.start_ns);
            let hi = node.end_ns.min(trace.end_ns);
            if hi > lo {
                intervals.push((lo, hi));
            }
        }
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match &mut cur {
            Some((_, end)) if lo <= *end => *end = (*end).max(hi),
            _ => {
                if let Some((s, e)) = cur.take() {
                    covered += e - s;
                }
                cur = Some((lo, hi));
            }
        }
    }
    if let Some((s, e)) = cur {
        covered += e - s;
    }
    covered as f64 / wall as f64
}
