//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it, and the id
//! of the unit of work (frame, packet or session) it belongs to. Spans are
//! only recorded by this benchmark, around its own calls into the layers'
//! public functions; nothing inside the program under test is traced.
//! The recorder is shared by worker threads, so its list sits behind a
//! mutex; a span costs two clock reads and two uncontended lock round
//! trips, far below the microseconds the timed calls take.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `core.dfe`.
    pub name: &'static str,
    /// The unit of work the span belongs to.
    pub unit: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::close`].
    pub fn open(&self, name: &'static str, unit: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Close a span opened by [`Self::open`].
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("a tracing thread panicked")[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, unit, parent);
        let r = f();
        self.close(id);
        r
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a tracing thread panicked")
    }
}

/// Per-name self time and call count, plus how much of the root spans'
/// time their descendants cover.
#[derive(Debug, Default)]
pub struct Profile {
    self_ns: BTreeMap<&'static str, u64>,
    calls: BTreeMap<&'static str, u64>,
    root_ns: u64,
    root_self_ns: u64,
}

impl Profile {
    /// Self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Share of the root spans' duration that their child spans cover
    /// (1 − root self time ÷ root time). Children that ran in parallel
    /// count once, through the union of their intervals.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            1.0 - self.root_self_ns as f64 / self.root_ns as f64
        }
    }

    /// Per-name shares of all self time, largest first; a root name's
    /// share is the part of the units that no stage span covers.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total: u64 = self.self_ns.values().sum();
        let mut out: Vec<(&'static str, f64)> = self
            .self_ns
            .iter()
            .filter(|(_, &ns)| ns > 0)
            .map(|(&n, &ns)| (n, ns as f64 / total.max(1) as f64))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Self time of a span is its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn profile(spans: &[Span]) -> Profile {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut prof = Profile::default();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let dur = s.end_ns - s.start_ns;
        let own = dur - covered.min(dur);
        *prof.self_ns.entry(s.name).or_default() += own;
        *prof.calls.entry(s.name).or_default() += 1;
        if s.parent.is_none() {
            prof.root_ns += dur;
            prof.root_self_ns += own;
        }
    }
    prof
}

/// Write spans as TSV (`id parent unit name start_ns end_ns`).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tunit\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.unit, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            unit: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a` (a parallel child) and runs past the root's end.
            span("b", Some(0), 30, 120),
            span("c", Some(1), 10, 20),
        ];
        let p = profile(&spans);
        assert_eq!(p.self_ms("root"), 10e-6);
        assert_eq!(p.self_ms("a"), 20e-6);
        assert_eq!(p.self_ms("b"), 90e-6);
        assert_eq!(p.calls("c"), 1);
        assert!((p.coverage() - 0.9).abs() < 1e-12);
    }
}
