//! The always-available data model: records, per-thread captures and the
//! collected [`Trace`] the exporters consume.
//!
//! Everything here compiles regardless of the `enable` feature so that
//! exporters, tests and downstream tooling never need `cfg` guards; only
//! the *recording* hooks are feature-gated (see the crate root).

/// Subsystem a record belongs to — the Chrome trace-event `cat` field and
/// the first component of a phase key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Thread-pool scheduling: jobs, steals, parks.
    Pool,
    /// Dense kernel work: packing, row bands, leaf GEMM.
    Gemm,
    /// Strassen recursion nodes.
    Strassen,
    /// CAPS recursion nodes (BFS/DFS tagged in the span name).
    Caps,
    /// Energy-meter samples stamped onto the timeline.
    Energy,
    /// Harness-level phases: whole runs, sweep cells.
    Harness,
    /// Serving layer: request lifecycle (admission, execution, retries,
    /// degradation, journal writes).
    Serve,
}

impl Category {
    /// Stable lower-case label (used in exports and folded stacks).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Pool => "pool",
            Category::Gemm => "gemm",
            Category::Strassen => "strassen",
            Category::Caps => "caps",
            Category::Energy => "energy",
            Category::Harness => "harness",
            Category::Serve => "serve",
        }
    }
}

/// What one record says. Names are `&'static str` by design: the hot path
/// must not allocate or copy strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A span opens on this thread. `arg0`/`arg1` carry span-specific
    /// small integers (recursion depth and sub-problem size for the
    /// Strassen/CAPS spans, shapes for GEMM spans).
    Begin {
        /// Span name.
        name: &'static str,
        /// Subsystem.
        cat: Category,
        /// First tag (e.g. recursion depth).
        arg0: u32,
        /// Second tag (e.g. sub-problem dimension).
        arg1: u32,
    },
    /// The innermost open span on this thread closes.
    End,
    /// A point event (steal, park, unpark, …).
    Instant {
        /// Event name.
        name: &'static str,
        /// Subsystem.
        cat: Category,
        /// Event-specific tag (e.g. steal victim index).
        arg0: u32,
    },
    /// A sampled counter value (cumulative joules per RAPL domain). The
    /// summary integrates `joules:*` counters to attribute energy to
    /// phases.
    Counter {
        /// Counter name (`joules:package`, …).
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// One endpoint of an *async* span: an interval that may begin on one
    /// thread and end on another (a request waiting in a queue, an I/O
    /// round trip). Async spans do not participate in the per-thread
    /// nesting stack — exporters pair them by `(cat, name, id)` instead —
    /// so the serving layer can attribute queue-wait time without faking
    /// a thread-local span.
    Async {
        /// Span name.
        name: &'static str,
        /// Subsystem.
        cat: Category,
        /// Correlation id pairing the begin with its end (e.g. request id).
        id: u64,
        /// `true` opens the interval, `false` closes it.
        begin: bool,
    },
}

/// One timeline record: a nanosecond timestamp on the process-wide
/// monotonic trace clock plus the event payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Nanoseconds since the trace epoch (process start of tracing).
    pub ts: u64,
    /// The event.
    pub kind: Kind,
}

/// Everything one thread recorded during a session, in push order
/// (timestamps are monotone within a thread).
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Thread label (`worker-3`, `main`, `sampler`, …).
    pub name: String,
    /// The records, oldest first.
    pub records: Vec<Record>,
    /// Records rejected because the ring was full. Overflow drops *new*
    /// records — it never overwrites or corrupts captured ones.
    pub dropped: u64,
}

/// A collected session: per-thread captures plus the session window on
/// the trace clock.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One capture per thread that recorded anything, in registration
    /// order (stable for a deterministic schedule).
    pub threads: Vec<ThreadTrace>,
    /// Session start on the trace clock (ns).
    pub start_ns: u64,
    /// Session end on the trace clock (ns).
    pub end_ns: u64,
}

impl Trace {
    /// Session wall-clock length in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Total records captured across threads.
    pub fn total_records(&self) -> usize {
        self.threads.iter().map(|t| t.records.len()).sum()
    }

    /// Total records lost to ring overflow across threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// `true` when nothing was captured (e.g. the `enable` feature is
    /// off, or no session was active).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }
}
