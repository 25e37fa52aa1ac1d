//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent, the operation it belongs
//! to, and a count of the items the call processed (events simulated,
//! messages replayed, operations generated). Spans stay in memory and are
//! written out as JSON lines when the run ends. A disabled tracer records
//! nothing, so untraced runs pay one branch per call.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    next_op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }

    /// Starts a new operation: spans opened from here on share its id.
    pub fn fresh_op(&mut self) -> u32 {
        self.op = self.next_op;
        self.next_op += 1;
        self.op
    }

    /// Resumes an operation started earlier with [`Tracer::fresh_op`].
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`. `f` returns its result and
    /// the number of items it processed.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        self.open.push(id);
        let (result, items) = f(self);
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.items = items;
        result
    }

    /// Seconds and items summed over the spans named `name` that have an
    /// ancestor named `phase`.
    pub fn total_in(&self, phase: &str, name: &str) -> (f64, u64) {
        let within = |s: &Span| {
            let mut up = s.parent;
            while let Some(p) = up {
                let parent = &self.spans[p as usize];
                if parent.name == phase {
                    return true;
                }
                up = parent.parent;
            }
            false
        };
        self.spans
            .iter()
            .filter(|s| s.name == name && within(s))
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + s.items))
    }

    /// Nanoseconds per item over the spans [`Tracer::total_in`] selects.
    pub fn ns_per_item(&self, phase: &str, name: &str) -> f64 {
        let (secs, items) = self.total_in(phase, name);
        ratio(secs * 1e9, items as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// `a / b`, or zero when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
