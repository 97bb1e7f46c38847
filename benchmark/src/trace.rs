//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer; nothing inside the crates is instrumented. A disabled tracer
//! records nothing, so the timed run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `checker.mount`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Which traced input this span belongs to (an id [`Tracer::input`]
    /// returned).
    pub input: u32,
    /// How many calls the span covers (batch spans time a tight loop of
    /// sub-microsecond calls as one interval).
    pub calls: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name aggregate over recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Calls those spans covered.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// `(file system, input name)` per traced input; spans refer to these by
    /// index.
    inputs: Vec<(String, String)>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.stack.is_empty(),
            "toggling the tracer inside an open span"
        );
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a traced input and returns its id for [`Tracer::enter`].
    pub fn input(&mut self, fs: &str, name: &str) -> u32 {
        self.inputs.push((fs.to_string(), name.to_string()));
        (self.inputs.len() - 1) as u32
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, input: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            input,
            calls: 1,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        self.exit_calls(id, 1);
    }

    /// Closes `id`, recording that it covered `calls` calls.
    pub fn exit_calls(&mut self, id: SpanId, calls: usize) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.calls = calls as u32;
    }

    /// Times one leaf call.
    pub fn span<T>(&mut self, name: &'static str, input: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, input);
        let r = f();
        self.exit(id);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name. A span's self time is its
    /// duration minus the durations of its direct children.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let a = out.entry(s.name).or_default();
            a.spans += 1;
            a.calls += s.calls as u64;
            a.total_ns += s.dur_ns();
            a.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Per-call durations in nanoseconds of every span called `name`,
    /// optionally restricted to inputs on file system `fs`.
    pub fn per_call_ns(&self, name: &str, fs: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .filter(|s| fs.is_none_or(|fs| self.inputs[s.input as usize].0 == fs))
            .map(|s| s.dur_ns() as f64 / s.calls as f64)
            .collect()
    }

    /// Renders the trace document: the inputs table, then one object per
    /// span with `name`, `start`/`end` (ns), `parent`, `input` and `calls`.
    pub fn render(&self, workload: &str) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"inputs\":["
        );
        for (i, (fs, name)) in self.inputs.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"fs\":\"{fs}\",\"name\":{}}}",
                json_str(name)
            );
        }
        s.push_str("],\"spans\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\
                 \"input\":{},\"calls\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.input, sp.calls
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// `v` as a JSON string literal.
fn json_str(v: &str) -> String {
    bench::jsonout::JVal::Str(v.to_string()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_resolve() {
        let mut t = Tracer::new(true);
        let i = t.input("nova", "w");
        let outer = t.enter("outer", i);
        t.span("inner", i, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let agg = t.aggregate();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(agg["outer"].self_ns < agg["outer"].total_ns);
        assert_eq!(
            agg["outer"].total_ns - agg["outer"].self_ns,
            agg["inner"].total_ns
        );
        bench::jsonout::parse(&t.render("x")).expect("trace renders as JSON");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("a", 0);
        t.exit(id);
        assert_eq!(t.span("b", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
