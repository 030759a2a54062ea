//! Spans for the traced run: name, module, start, end, parent span and
//! run id. They stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The modules spans are charged to: the workspace crates the benchmark
/// calls into, plus the benchmark's own code. `uarch` has no entry of its
/// own: it runs inside the others' calls, and its `uarch.*` counts say
/// how much.
pub const MODULES: [&str; 6] = [
    "perfbench",
    "core",
    "serve",
    "workloads",
    "sim-kernel",
    "js-engine",
];

struct Span {
    module: &'static str,
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    pub run: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened inside `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        module: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        debug_assert!(MODULES.contains(&module), "unknown module {module}");
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            module,
            name: name.into(),
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records a span timed elsewhere (a client thread's request) as a
    /// child of the innermost open span.
    pub fn record(&mut self, module: &'static str, name: &str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        let span = Span {
            module,
            name: name.to_string(),
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Durations, in milliseconds, of every span named exactly `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Each module's self time: the wall time during which some span of
    /// the module is open and no child of that span is. Concurrent spans
    /// (pipelined reads) count once, not once each.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let interval = |s: &Span| (s.start, s.end.max(s.start));
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(interval(s));
            }
        }
        let mut own: BTreeMap<&'static str, Vec<(Duration, Duration)>> =
            MODULES.iter().map(|m| (*m, Vec::new())).collect();
        for (s, kids) in self.spans.iter().zip(children) {
            let (start, end) = interval(s);
            let mut at = start;
            let list = own.entry(s.module).or_default();
            for (ks, ke) in merged(kids) {
                if ks.min(end) > at {
                    list.push((at, ks.min(end)));
                }
                at = at.max(ke);
            }
            if end > at {
                list.push((at, end));
            }
        }
        own.into_iter()
            .map(|(m, list)| (m, merged(list).iter().map(|(s, e)| *e - *s).sum()))
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"module\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run,
                s.module,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// `intervals` sorted and with overlaps joined.
fn merged(mut intervals: Vec<(Duration, Duration)>) -> Vec<(Duration, Duration)> {
    intervals.sort();
    let mut out: Vec<(Duration, Duration)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(1);
        t.span("perfbench", "outer", |t| {
            t.span("core", "inner", |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        assert!(st["core"] >= Duration::from_millis(20));
        assert!(st["perfbench"] < Duration::from_millis(20));
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn concurrent_spans_count_once() {
        let mut t = Tracer::new(1);
        let origin = t.origin;
        t.span("perfbench", "outer", |t| {
            for _ in 0..2 {
                let start = origin + Duration::from_millis(10);
                t.record("serve", "read", start, start + Duration::from_millis(30));
            }
        });
        let serve = t.self_times()["serve"];
        assert_eq!(serve, Duration::from_millis(30));
    }
}
