//! In-memory spans recorded around calls into the simulator's layers.
//!
//! Every span carries a name, a start and an end (seconds since the
//! tracer was created) and the id of the span that was open when it began.
//! Nothing is written while the benchmark measures; [`Tracer::to_json`]
//! renders the whole list once at the end. A tracer that is off still
//! times each call (the untraced run needs per-call times too) but keeps
//! no spans, so the difference between the two is the cost of recording.

use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in [`Tracer::spans`].
    pub id: usize,
    /// The span open when this one began (`None` at top level).
    pub parent: Option<usize>,
    /// Layer-prefixed name, e.g. `core.run_from`.
    pub name: String,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The instant [`Tracer::now`] counts from, for timing on other threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name` and returns its value with the
    /// span's duration in seconds. Spans opened inside `f` get this one as
    /// their parent.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.on {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Records a span timed elsewhere (on a pool worker, against
    /// [`Tracer::now`]) as a child of the currently open span.
    pub fn record(&mut self, name: &str, start: f64, end: f64) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start,
            end,
        });
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.start,
                    s.end
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
