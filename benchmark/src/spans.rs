//! Benchmark-owned spans: recorded around calls into the program's public
//! functions, kept in memory, written as a Chrome/Perfetto trace at exit.
//! No span site is added to the program.

use aeris_obs::SpanRecord;
use std::time::Instant;

/// One completed (or still open) span of the layer replay.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The crate the spanned call belongs to (`core`, `diffusion`, ...).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request / one train step.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder with an explicit open/close stack.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Set the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn open(&mut self, name: &'static str, layer: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Span a closure that does not itself record.
    pub fn leaf<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, layer);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals over a span set: `(name, layer, count, total self ns,
/// total ns)`, in first-seen order.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, &'static str, usize, u64, u64)> {
    let own = self_times_ns(spans);
    let mut out: Vec<(&'static str, &'static str, usize, u64, u64)> = Vec::new();
    for (s, &o) in spans.iter().zip(&own) {
        match out.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.2 += 1;
                r.3 += o;
                r.4 += s.dur_ns();
            }
            None => out.push((s.name, s.layer, 1, o, s.dur_ns())),
        }
    }
    out
}

/// Mean self time in ms of the spans called `name` (0 when absent).
pub fn mean_self_ms(spans: &[Span], name: &str) -> f64 {
    totals(spans)
        .iter()
        .find(|r| r.0 == name)
        .map_or(0.0, |r| r.3 as f64 / r.2 as f64 / 1e6)
}

/// Mean duration in ms of the spans called `name` (0 when absent).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    totals(spans)
        .iter()
        .find(|r| r.0 == name)
        .map_or(0.0, |r| r.4 as f64 / r.2 as f64 / 1e6)
}

/// Check the trace's arithmetic: every child lies inside its parent, and
/// the self times below each root add up to the root's duration within
/// `tol` (they partition it, so anything else is a recording bug).
pub fn verify(spans: &[Span], tol: f64) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent {}",
                    s.name, parent.name
                ));
            }
        }
    }
    let own = self_times_ns(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut sums = vec![0u64; spans.len()];
    for (i, &o) in own.iter().enumerate() {
        sums[root_of(i)] += o;
    }
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let dur = s.dur_ns() as f64;
        if dur > 0.0 && ((sums[i] as f64 - dur) / dur).abs() > tol {
            return Err(format!(
                "root {} ({}): self times sum to {} ns of {} ns",
                i, s.name, sums[i], dur
            ));
        }
    }
    Ok(())
}

/// Chrome-trace JSON: replay spans as process 1 (one thread, args carry
/// layer / parent / request / self time), the program's own tracer records
/// as process 0 (one thread per actor).
pub fn chrome_trace(replay: &[Span], program: &[SpanRecord]) -> String {
    let own = self_times_ns(replay);
    let mut events = Vec::with_capacity(replay.len() + program.len() + 2);
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"benchmark layer replay\"}}"
            .to_string(),
    );
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"program tracer\"}}"
            .to_string(),
    );
    for (i, (s, o)) in replay.iter().zip(&own).enumerate() {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":0,\"args\":{{\"id\":{i},\"parent\":{},\"request\":{},\
             \"self_us\":{:.3}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            *o as f64 / 1e3,
        ));
    }
    for s in program {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"step\":{},\"micro\":{}}}}}",
            s.label,
            s.category.name(),
            s.begin_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            // usize::MAX is the serve engine's client actor.
            if s.actor == usize::MAX { 9999 } else { s.actor },
            s.step.map_or("null".to_string(), |v| v.to_string()),
            s.micro.map_or("null".to_string(), |v| v.to_string()),
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "core",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b1", 55, 65, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        verify(&spans, 0.05).expect("children inside parents, self times sum to the root");
        let sum: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(sum, spans[0].dur_ns());
    }

    #[test]
    fn child_outside_parent_is_rejected() {
        let spans = vec![span("root", 0, 100, None), span("a", 90, 120, Some(0))];
        assert!(verify(&spans, 0.05).is_err());
    }

    #[test]
    fn recorder_nests_and_traces() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        let root = rec.open("request", "serve");
        let inner = rec.leaf("step", "core", || 3);
        rec.close(root);
        assert_eq!(inner, 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].request, 7);
        verify(&rec.spans, 0.05).unwrap();
        let doc = chrome_trace(&rec.spans, &[]);
        assert_eq!(aeris_obs::validate_chrome_trace(&doc), Ok(4));
    }
}
