//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the thread that drives a workload, around calls
//! into each layer's public functions made from this benchmark's own
//! files; nothing inside the measured crates is instrumented. A span has
//! a name, start and end (nanoseconds since the tracer was enabled), the
//! span open around it when it began (its parent) and the simulation
//! round it belongs to. Spans stay in memory until [`write_jsonl`].
//!
//! With the tracer disabled (the end-to-end run) [`span`] only calls its
//! closure: no clock is read and nothing is stored.

use autofl_fed::selection::{RoundContext, RoundFeedback, SelectionDecision, Selector};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Marks "no parent" / "no round" in the packed span fields.
const NONE: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u32,
    /// Index of the enclosing span, or `NONE`.
    pub parent: u32,
    /// Simulation round the call belongs to, or `NONE`.
    pub round: u32,
    /// Start, nanoseconds since the tracer was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was enabled.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The round this span belongs to, if any.
    pub fn round(&self) -> Option<usize> {
        (self.round != NONE).then_some(self.round as usize)
    }
}

struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (clears anything recorded before).
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording on this thread and returns the name table and spans.
pub fn disable() -> (Vec<String>, Vec<Span>) {
    TRACER.with(|t| match t.borrow_mut().take() {
        Some(tracer) => (tracer.names, tracer.spans),
        None => (Vec::new(), Vec::new()),
    })
}

/// Opens a span named `name` when tracing is on; [`close`] ends it.
pub fn open(name: &str, round: Option<usize>) -> Option<u32> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tracer = guard.as_mut()?;
        let name_id = match tracer.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                tracer.names.push(name.to_string());
                (tracer.names.len() - 1) as u32
            }
        };
        let id = tracer.spans.len() as u32;
        tracer.spans.push(Span {
            name: name_id,
            parent: tracer.open.last().copied().unwrap_or(NONE),
            round: round.map_or(NONE, |r| r as u32),
            start_ns: 0,
            end_ns: 0,
        });
        tracer.open.push(id);
        let start = tracer.epoch.elapsed().as_nanos() as u64;
        tracer.spans[id as usize].start_ns = start;
        Some(id)
    })
}

/// Ends a span [`open`] returned; spans close in the reverse order they
/// opened.
pub fn close(opened: Option<u32>) {
    if let Some(id) = opened {
        TRACER.with(|t| {
            let mut guard = t.borrow_mut();
            let tracer = guard.as_mut().expect("tracer stays enabled inside a span");
            tracer.spans[id as usize].end_ns = tracer.epoch.elapsed().as_nanos() as u64;
            tracer.open.pop();
        });
    }
}

/// Runs `f`, recording a span named `name` around it when tracing is on.
pub fn span<T>(name: &str, round: Option<usize>, f: impl FnOnce() -> T) -> T {
    let opened = open(name, round);
    let out = f();
    close(opened);
    out
}

/// The untraced wall time `trace.overhead_frac` is measured against: the
/// faster of two untraced runs `f` times, so the first run's cold start
/// (page faults, cold caches) does not count against tracing.
pub fn untraced_baseline(mut f: impl FnMut() -> f64) -> f64 {
    (0..2).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Writes spans as JSON lines: `{"id", "name", "parent", "round",
/// "start_ns", "end_ns"}`, with `null` for a missing parent or round.
pub fn write_jsonl(
    path: &std::path::Path,
    names: &[String],
    spans: &[Span],
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let opt = |v: u32| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
            names[s.name as usize],
            opt(s.parent),
            opt(s.round),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Queries over a finished trace.
pub struct Trace {
    /// Span names, indexed by [`Span::name`].
    pub names: Vec<String>,
    /// Spans in the order they opened.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Span> + 'a {
        let id = self.names.iter().position(|n| n == name).map(|i| i as u32);
        self.spans.iter().filter(move |s| Some(s.name) == id)
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Mean duration in milliseconds of the spans named `name`; 0 when
    /// the layer was not called.
    pub fn mean_ms(&self, name: &str) -> f64 {
        mean(&self.ms(name))
    }

    /// Names starting with `prefix`, in first-seen order.
    pub fn names_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.names
            .iter()
            .filter(move |n| n.starts_with(prefix))
            .map(String::as_str)
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A [`Selector`] wrapper that records `select.<policy>` and
/// `observe.<policy>` spans around the wrapped selector's calls.
struct Timed<S> {
    inner: S,
    select_name: String,
    observe_name: String,
}

impl<S: Selector> Timed<S> {
    fn new(inner: S) -> Self {
        let name = inner.name();
        Timed {
            select_name: format!("select.{name}"),
            observe_name: format!("observe.{name}"),
            inner,
        }
    }
}

impl<S: Selector> Selector for Timed<S> {
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        let inner = &mut self.inner;
        span(&self.select_name, Some(ctx.round), || {
            inner.select(ctx, rng)
        })
    }

    fn observe(&mut self, feedback: &RoundFeedback<'_>) {
        let inner = &mut self.inner;
        span(&self.observe_name, Some(feedback.round), || {
            inner.observe(feedback)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn state_snapshot(&self) -> Option<serde::Value> {
        self.inner.state_snapshot()
    }

    fn state_restore(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.state_restore(state)
    }
}

/// `selector`, wrapped in [`Timed`] when `traced`.
pub fn timed_if(traced: bool, selector: Box<dyn Selector>) -> Box<dyn Selector> {
    if traced {
        Box::new(Timed::new(Dyn(selector)))
    } else {
        selector
    }
}

/// A boxed selector as a sized [`Selector`], so registry policies can be
/// wrapped in [`Timed`].
struct Dyn(Box<dyn Selector>);

impl Selector for Dyn {
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        self.0.select(ctx, rng)
    }

    fn observe(&mut self, feedback: &RoundFeedback<'_>) {
        self.0.observe(feedback)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn state_snapshot(&self) -> Option<serde::Value> {
        self.0.state_snapshot()
    }

    fn state_restore(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.0.state_restore(state)
    }
}

/// Stops recording, writes the spans to `<out_dir>/spans-<workload>.jsonl`
/// and returns them for the per-layer metrics.
pub fn finish(opts: &crate::common::Opts, workload: &str) -> Trace {
    let (names, spans) = disable();
    let path = opts.out_dir.join(format!("spans-{workload}.jsonl"));
    if let Err(e) = write_jsonl(&path, &names, &spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    Trace { names, spans }
}
