//! The traced run's in-memory spans, their self times, and the JSONL file
//! they are saved to.
//!
//! A span is a named interval on one clock with the span that caused it
//! as its parent. The part before the first `.` of a name is its layer
//! (`operators.draw` belongs to `operators`). Spans are kept in memory
//! while the run goes and written out once it ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span<N = &'static str> {
    /// 1-based id; 0 is "no parent".
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: u32,
    /// `layer.what`.
    pub name: N,
    /// Start, ns since the tracer's start.
    pub start_ns: u64,
    /// End, ns since the tracer's start.
    pub end_ns: u64,
    /// Units of work the span covers (draws, neighbours, jobs, ...).
    pub count: u64,
}

impl<N: AsRef<str>> Span<N> {
    /// Wall nanoseconds covered.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &str {
        let name = self.name.as_ref();
        name.split('.').next().unwrap_or(name)
    }
}

/// Collects spans against one monotonic clock.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` on the tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start: u64,
        end: u64,
        count: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count,
        });
        id
    }

    /// Opens a span that [`close`](Self::close) ends; children recorded
    /// in between may name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, now, now, 0)
    }

    /// Ends an open span, setting its work count.
    pub fn close(&mut self, id: u32, count: u64) {
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total duration and total count of every span called `name`.
pub fn totals<N: AsRef<str>>(spans: &[Span<N>], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name.as_ref() == name)
        .fold((0, 0), |(d, c), s| (d + s.dur(), c + s.count))
}

/// Share of the time of spans called `parent` covered by their children
/// called `child`.
pub fn child_share<N: AsRef<str>>(spans: &[Span<N>], child: &str, parent: &str) -> f64 {
    let parents: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| s.name.as_ref() == parent)
        .map(|s| s.id)
        .collect();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.name.as_ref() == child && parents.contains(&s.parent))
        .map(Span::dur)
        .sum();
    covered as f64 / totals(spans, parent).0 as f64
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap one another, as concurrent
/// client spans do). Indexed like `spans`.
pub fn self_times<N: AsRef<str>>(spans: &[Span<N>]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent > 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

/// Reads spans written by [`write_jsonl`].
pub fn read_jsonl(path: &Path) -> io::Result<Vec<Span<String>>> {
    let bad = |line: usize, what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}:{}: {what}", path.display(), line + 1),
        )
    };
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .enumerate()
        .map(|(k, line)| {
            let doc = tsmo_obs::json::parse(line).map_err(|e| bad(k, &format!("{e:?}")))?;
            let num = |key: &str| {
                doc.get(key)
                    .and_then(tsmo_obs::Json::as_u64)
                    .ok_or_else(|| bad(k, key))
            };
            Ok(Span {
                id: num("id")? as u32,
                parent: num("parent")? as u32,
                name: doc
                    .get("name")
                    .and_then(tsmo_obs::Json::as_str)
                    .ok_or_else(|| bad(k, "name"))?
                    .to_string(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                count: num("count")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "core.x",
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }
}
