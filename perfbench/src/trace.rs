//! In-memory spans and counters recorded around calls into the workspace's
//! public functions. Nothing here reaches inside the program: every span
//! brackets a call made from the benchmark's own code.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: its layer-qualified name, the request it served, the
/// span that caused it, and its interval in nanoseconds since the tracer
/// started.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Runs `f` inside a span; spans opened by `f` through the tracer it is
    /// handed become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records a span measured by the caller (for intervals that straddle
    /// threads or sockets).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let epoch = self.epoch.unwrap_or(start);
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records one observation of a counter or derived quantity.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Moves another tracer's spans and counters into this one, re-basing
    /// its times on this tracer's epoch.
    pub fn merge(&mut self, other: Tracer) {
        let shift = match (self.epoch, other.epoch) {
            (Some(mine), Some(theirs)) => theirs.saturating_duration_since(mine).as_nanos() as u64,
            _ => 0,
        };
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
        for (name, values) in other.counts {
            self.counts.entry(name).or_default().extend(values);
        }
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Writes every span and counter as JSON lines.
    pub fn write(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{stamp}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":{},\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                quote(s.name),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (name, values) in &self.counts {
            let list: Vec<String> = values.iter().map(|v| crate::json::number(*v)).collect();
            writeln!(
                out,
                "{{\"count\":{},\"values\":[{}]}}",
                quote(name),
                list.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        let outer = t.durations("outer")[0];
        let inner = t.durations("inner")[0];
        assert!(inner >= 0.002 && outer >= inner);
        let mut other = Tracer::new();
        other.span("later", 8, |t| t.count("rows", 3.0));
        t.merge(other);
        assert_eq!(t.spans[2].parent, None);
        assert_eq!(t.counts("rows"), &[3.0]);
    }
}
