//! Spans the benchmark opens around its own calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are kept in memory per thread and written out when the run ends. A
//! span's self time is its duration minus the time its child spans cover;
//! children are opened and closed inside their parent on the same thread
//! and never overlap each other, so the covered time is the sum of their
//! durations.
//!
//! The untraced run uses the same calls with recording off, so the only
//! difference between the two runs is the cost of recording.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: its start, and its index when recording.
#[must_use]
pub struct Open {
    start: Instant,
    idx: u32,
}

/// One thread's span recorder. With recording off it still times every
/// span, so callers get durations either way.
pub struct Tracer {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant, record: bool) -> Tracer {
        Tracer {
            origin,
            record,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.record
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        let start = Instant::now();
        let mut idx = NO_PARENT;
        if self.record {
            idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                req,
            });
            self.stack.push(idx);
        }
        Open { start, idx }
    }

    /// Close `open` and return its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if open.idx != NO_PARENT {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans close in LIFO order");
            self.spans[open.idx as usize].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - open.start).as_nanos() as u64
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter(name, req);
        let out = f();
        (out, self.exit(open))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Samples,
}

/// Add one thread's spans to per-name totals, with self time = duration
/// minus the time covered by child spans.
pub fn aggregate_into(out: &mut BTreeMap<&'static str, SpanStats>, spans: &[Span]) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    for (s, covered) in spans.iter().zip(child_ns) {
        let st = out.entry(s.name).or_default();
        st.count += 1;
        st.total_ns += s.dur();
        st.self_ns += s.dur().saturating_sub(covered);
        st.durations.push(s.dur());
    }
}

/// Write every span as one tab-separated line:
/// `thread  index  name  start_ns  end_ns  parent  req`.
pub fn write_tsv(path: &std::path::Path, threads: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tindex\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (thread, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{thread}\t{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                req: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                req: 1,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 70,
                parent: 0,
                req: 1,
            },
        ];
        let mut agg = BTreeMap::new();
        aggregate_into(&mut agg, &spans);
        assert_eq!(agg["root"].self_ns, 50);
        assert_eq!(agg["a"].self_ns, 30);
        assert_eq!(agg["b"].total_ns, 20);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.enter("outer", 7);
        let (_, _) = t.span("inner", 7, || ());
        t.exit(outer);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
