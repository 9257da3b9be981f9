//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run issues every op stage by stage through public functions
//! and wraps each call in a span. Spans live in a buffer allocated
//! before the run and are written out when it ends, so the traced loop
//! pays two clock reads and one push per span.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::measure::median;

/// Index of a span without a parent (the per-op root).
pub const NO_PARENT: u32 = u32::MAX;

/// The layer boundaries the traced runs cross. `Op` is the per-op root
/// span; every other stage is a call into one layer's public function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Op,
    QueryCache,
    QueryLex,
    QueryParse,
    QueryBind,
    TxnBeginRead,
    QueryExec,
    TxnGetShared,
    EngineBegin,
    TxnPut,
    OrderUpdate,
    TxnCommit,
    Maintain,
}

/// Every non-root stage, in the order the per-layer table prints them.
pub const STAGES: [Stage; 12] = [
    Stage::QueryCache,
    Stage::QueryLex,
    Stage::QueryParse,
    Stage::QueryBind,
    Stage::TxnBeginRead,
    Stage::QueryExec,
    Stage::TxnGetShared,
    Stage::EngineBegin,
    Stage::TxnPut,
    Stage::OrderUpdate,
    Stage::TxnCommit,
    Stage::Maintain,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Op => "op",
            Stage::QueryCache => "query.cache",
            Stage::QueryLex => "query.lex",
            Stage::QueryParse => "query.parse",
            Stage::QueryBind => "query.bind",
            Stage::TxnBeginRead => "txn.begin_read",
            Stage::QueryExec => "query.exec",
            Stage::TxnGetShared => "txn.get_shared",
            Stage::EngineBegin => "engine.begin",
            Stage::TxnPut => "txn.put",
            Stage::OrderUpdate => "workload.order_update",
            Stage::TxnCommit => "txn.commit",
            Stage::Maintain => "workload.maintain",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub stage: Stage,
    pub op_id: u32,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans without growing.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            op_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as one op: a root span every stage inside hangs from.
    pub fn op<T>(&mut self, op_id: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op_id = op_id;
        self.span(Stage::Op, f)
    }

    /// Run `f` inside a span of `stage`, child of the innermost open span.
    pub fn span<T>(&mut self, stage: Stage, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            op_id: self.op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Index of the span recorded last.
    pub fn last_index(&self) -> u32 {
        self.spans.len() as u32 - 1
    }

    /// Attach a child measured outside its parent: the work was timed
    /// on its own (`duration_ns`) and is placed at the parent's start,
    /// cut to the parent's length, so self-time arithmetic still holds.
    pub fn measured_child(&mut self, stage: Stage, parent: u32, duration_ns: u64) -> u32 {
        let p = &self.spans[parent as usize];
        let (start_ns, op_id) = (p.start_ns, p.op_id);
        let end_ns = p.end_ns.min(start_ns.saturating_add(duration_ns));
        self.spans.push(Span {
            stage,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        self.last_index()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Median self time of one stage in ns and how many spans it has;
/// `(0.0, 0)` for a stage that never ran.
pub fn stage_self_median_ns(spans: &[Span], own: &[u64], stage: Stage) -> (f64, usize) {
    let mut times: Vec<f64> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.stage == stage)
        .map(|(_, t)| *t as f64)
        .collect();
    if times.is_empty() {
        return (0.0, 0);
    }
    (median(&mut times), times.len())
}

/// Write the spans as one JSON array of
/// `{name, op_id, parent, start_ns, end_ns}` objects.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        write!(
            out,
            "{}\n{{\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            s.stage.name(),
            s.op_id,
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            stage,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span(Stage::Op, NO_PARENT, 0, 100),
            span(Stage::QueryCache, 0, 10, 70),
            span(Stage::QueryParse, 1, 10, 50),
            span(Stage::QueryLex, 2, 10, 25),
            span(Stage::QueryExec, 0, 70, 95),
        ];
        // op: 100 - 60 - 25; cache: 60 - 40; parse: 40 - 15
        assert_eq!(self_times_ns(&spans), vec![15, 20, 25, 15, 25]);
        let own = self_times_ns(&spans);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times add up to the root"
        );
        assert_eq!(
            stage_self_median_ns(&spans, &own, Stage::QueryParse),
            (25.0, 1)
        );
        assert_eq!(stage_self_median_ns(&spans, &own, Stage::TxnPut), (0.0, 0));
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::with_capacity(8);
        t.op(7, |t| {
            t.span(Stage::QueryBind, |_| ());
            t.span(Stage::QueryExec, |t| t.span(Stage::TxnGetShared, |_| ()));
        });
        let cache = {
            t.op(8, |t| t.span(Stage::QueryCache, |_| ()));
            t.last_index()
        };
        let parse = t.measured_child(Stage::QueryParse, cache, u64::MAX);
        let s = t.spans();
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 0, 2));
        assert!(s.iter().take(4).all(|x| x.op_id == 7));
        assert_eq!(s[parse as usize].parent, cache);
        assert_eq!(s[parse as usize].op_id, 8);
        // a measured child never outlasts its parent
        assert_eq!(s[parse as usize].end_ns, s[cache as usize].end_ns);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }
}
