//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Kept in memory, written out when the run ends.
//!
//! A span has a name, start and end (ns since the run's epoch), a parent
//! span (0 = root) and a request id shared by every span of one request.
//! A layer's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; returns its id (0 when tracing is off).
    pub fn open(&mut self, parent: u32, req: u64, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let start = self.now_ns();
        self.push(parent, req, name, start, start)
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Records an already-finished span; returns its id (0 when off).
    pub fn push(&mut self, parent: u32, req: u64, name: &'static str, start: u64, end: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        parent: u32,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, req, name);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Mean duration of the spans called `name`, ms (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.push(0, 7, "root", 0, 100);
        t.push(root, 7, "child", 10, 40);
        t.push(root, 7, "child", 30, 50); // overlaps the first child
        t.push(root, 7, "late", 90, 130); // only 10 ns inside the root
        let l = t.layers();
        assert_eq!(l["root"].total_ns, 100);
        assert_eq!(l["root"].self_ns, 100 - 40 - 10);
        assert_eq!(l["child"].count, 2);
        assert_eq!(l["child"].self_ns, 50);
        assert_eq!(t.mean_ms("child"), 25.0 / 1e6);
        let mut off = Tracer::new(Instant::now(), false);
        assert_eq!(off.open(0, 1, "x"), 0);
        assert_eq!(off.len(), 0);
    }
}
