//! In-memory spans recorded around calls into the simulator crates.
//!
//! A span has a name (`layer.call`), a start and an end relative to one
//! origin, the span that caused it, and a run id shared by every span of
//! one machine. Spans are kept in memory and written out when the
//! benchmark ends; nothing here reaches inside the simulator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across every thread of the process.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Run 0 is the pass itself; every machine gets a fresh id.
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted inside the span (events fired, for `core.run_slice`).
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a worker thread needs to hang its spans under the caller's
/// innermost open span.
#[derive(Clone, Copy)]
pub struct Spawner {
    on: bool,
    origin: Instant,
    parent: Option<u64>,
}

impl Spawner {
    pub fn tracer(self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            run: 0,
            root_parent: self.parent,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

/// A span recorder; a disabled one records nothing and costs one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u64,
    root_parent: Option<u64>,
    open: Vec<(u64, &'static str, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn new(on: bool, origin: Instant) -> Tracer {
        Spawner {
            on,
            origin,
            parent: None,
        }
        .tracer()
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn spawner(&self) -> Spawner {
        Spawner {
            on: self.on,
            origin: self.origin,
            parent: self.open.last().map(|o| o.0).or(self.root_parent),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
            let start = self.now_ns();
            self.open.push((id, name, start));
        }
    }

    /// Closes the innermost open span, recording `count` units of work.
    pub fn close(&mut self, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let (id, name, start_ns) = self.open.pop().expect("close without open");
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|o| o.0).or(self.root_parent),
            run: self.run,
            name,
            start_ns,
            end_ns,
            count,
        });
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open(name);
        let r = f(self);
        self.close(0);
        r
    }

    /// A `bench.point` span under a fresh run id: one machine (or one
    /// grid point) and everything it calls.
    pub fn point<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let outer = self.run;
        self.run = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
        let r = self.span("bench.point", f);
        self.run = outer;
        r
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per span name: calls, total ms and self ms. Self time is a span's
/// duration minus the union of its children's intervals, so children
/// that ran concurrently on other threads are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns() as f64 / 1e6;
        e.2 += s.ns().saturating_sub(covered) as f64 / 1e6;
    }
    out
}

fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((s, e)) if a <= e => cur = Some((s, e.max(b))),
            _ => {
                if let Some((s, e)) = cur {
                    total += e - s;
                }
                cur = Some((a, b));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            run: 0,
            name: if parent.is_some() {
                "core.x"
            } else {
                "bench.x"
            },
            start_ns,
            end_ns,
            count: 0,
        };
        // Two overlapping children cover [10, 40) of the parent's [0, 100).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
        ];
        let t = self_times(&spans);
        let (n, total, own) = t["bench.x"];
        assert_eq!(n, 1);
        assert!((total - 100e-6).abs() < 1e-12);
        assert!((own - 70e-6).abs() < 1e-12);
        assert_eq!(t["core.x"].0, 2);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_run() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("bench.pass", |t| t.point(|t| t.span("core.new", |_| ())));
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let (pass, point, new) = (
            by_name("bench.pass"),
            by_name("bench.point"),
            by_name("core.new"),
        );
        assert_eq!(point.parent, Some(pass.id));
        assert_eq!(new.parent, Some(point.id));
        assert_eq!(new.run, point.run);
        assert_ne!(point.run, pass.run);
        let mut off = Tracer::off();
        off.span("bench.pass", |_| ());
        assert!(off.take().is_empty());
    }
}
