//! Host-performance benchmark of the nisim simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|em3d-1024|traffic-ladder> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a separate traced run
//! and writes its spans under `perfbench/out/`. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any simulated output fails its check. End-to-end times are corrected
//! for the host's speed (`speed.rs`). See `perfbench/README.md`.

mod layers;
mod speed;
mod trace;
mod work;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use nisim_engine::Json;
use speed::{HostSpeed, NOMINAL_S};
use trace::{Span, Tracer};
use work::{Em3dShape, Grid, Ladder, Pass, EVENT_BUDGET, SLICE_EVENTS};

/// The end-to-end metrics, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("host_ns_per_msg", "ns"),
    ("sim_us_per_host_ms", "us/ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// The per-layer metrics of the traced run, with their units.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("engine.wheel_ns_per_event", "ns"),
    ("engine.events_per_msg", "events/msg"),
    ("core.run_ns_per_event", "ns"),
    ("core.slice_ms_p50", "ms"),
    ("core.slice_ms_p95", "ms"),
    ("core.setup_ms", "ms"),
    ("core.report_ms", "ms"),
    ("mem.cache_ns_per_op", "ns"),
    ("mem.bus_ns_per_op", "ns"),
    ("mem.bus_txns_per_msg", "txns/msg"),
    ("net.frags_per_msg", "frags/msg"),
    ("net.retries_per_msg", "retries/msg"),
    ("net.useful_ratio", "ratio"),
    ("workloads.traffic.L1.events_per_msg", "events/msg"),
    ("workloads.traffic.L2.events_per_msg", "events/msg"),
    ("workloads.traffic.L3.events_per_msg", "events/msg"),
    ("workloads.traffic.L4.events_per_msg", "events/msg"),
    ("workloads.traffic.L5.events_per_msg", "events/msg"),
    ("workloads.traffic.L6.events_per_msg", "events/msg"),
    ("workloads.traffic.L7.events_per_msg", "events/msg"),
    ("workloads.traffic.low.host_ns_per_msg", "ns"),
    ("workloads.traffic.high.host_ns_per_msg", "ns"),
    ("workloads.traffic.incast.host_ns_per_msg", "ns"),
    ("bench.point_ms_p50", "ms"),
    ("bench.point_ms_p95", "ms"),
    ("bench.jobs_busy_frac", "frac"),
    ("bench.record_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// The machine seed `MachineConfig` defaults to; the committed goldens
/// were made with it.
const DEFAULT_SEED: u64 = 0x5eed;
/// Timed passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-up repetitions for the paper grid, whose passes build their
/// machines inside `run_point`.
const GRID_SETUP_REPS: usize = 7;

const WORKLOADS: [&str; 3] = ["paper-grid", "em3d-1024", "traffic-ladder"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                out.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(bad)?
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// A workload ready to run passes.
enum Workload {
    Grid(Grid),
    Em3d(Em3dShape),
    Ladder(Ladder),
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// The untimed first pass. The paper grid drives its macro points
    /// itself here, so the count block has exact event counts, and on
    /// one job, so the peak memory read after it does not depend on
    /// which machines two jobs happened to hold at once.
    Warm,
    Timed,
    Traced,
}

impl Workload {
    fn pass(&self, seed: u64, kind: Kind, t: &mut Tracer) -> Pass {
        match self {
            Workload::Grid(g) => {
                let jobs = if kind == Kind::Warm { 1 } else { g.jobs };
                g.pass(kind != Kind::Timed, jobs, t)
            }
            Workload::Em3d(s) => s.pass(seed, EVENT_BUDGET, t),
            Workload::Ladder(l) => l.pass(seed, EVENT_BUDGET, t),
        }
    }

    fn jobs(&self) -> usize {
        match self {
            Workload::Grid(g) => g.jobs,
            _ => 1,
        }
    }
}

/// Everything one run measured.
struct Run {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// (name, q1, q3, samples) for metrics taken over passes.
    spread: Vec<(&'static str, f64, f64, usize)>,
}

impl Run {
    fn new(warm: &Pass) -> Run {
        let mut run = Run {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            spread: Vec::new(),
        };
        run.count(warm);
        run
    }

    fn count(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.failures.extend(p.failures.iter().cloned());
    }

    /// Counts a pass and checks its digest against the first pass of the
    /// same workload.
    fn absorb(&mut self, first: &Pass, p: &Pass) {
        self.count(p);
        if p.digest != first.digest && p.failed == 0 {
            self.failed += p.attempted;
            self.failures.push(format!(
                "simulated statistics differ between passes (digest {:016x} vs {:016x})",
                p.digest, first.digest
            ));
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .expect("metric is declared")
            .1;
        self.metrics.push((name, unit, value));
    }

    /// Puts the median of per-pass samples, and keeps their quartiles.
    fn put_median(&mut self, name: &'static str, mut samples: Vec<f64>) {
        let (q1, q3) = quartiles(&mut samples);
        self.spread.push((name, q1, q3, samples.len()));
        self.put(name, median(&mut samples));
    }
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile, `p` in [0, 1]; 0 for no samples.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = p * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn quartiles(xs: &mut [f64]) -> (f64, f64) {
    (percentile(xs, 0.25), percentile(xs, 0.75))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced(w: &Workload, seed: u64, seconds: f64) -> Run {
    let warm = w.pass(seed, Kind::Warm, &mut Tracer::off());
    // One full pass, start-up included. Later passes only add what the
    // allocator keeps from earlier ones, which grows with the run's length.
    let rss = peak_rss_mb();
    let mut run = Run::new(&warm);
    print_counts(&warm);
    // Every time below is corrected for host speed by the kernel readings
    // taken around it (see speed.rs); the raw medians are printed too.
    let mut speed = HostSpeed::start();
    let mut setups: Vec<(f64, f64)> = match w {
        Workload::Grid(g) => (0..GRID_SETUP_REPS)
            .map(|_| {
                let s = g.setup();
                (s, speed.factor())
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let p = w.pass(seed, Kind::Timed, &mut Tracer::off());
        run.absorb(&warm, &p);
        passes.push((p, speed.factor()));
    }
    if !matches!(w, Workload::Grid(_)) {
        setups = passes.iter().map(|(p, k)| (p.setup, *k)).collect();
    }
    let c = &warm.counts;
    let walls: Vec<f64> = passes.iter().map(|(p, k)| p.wall * k).collect();
    let per = |f: &dyn Fn(f64) -> f64| walls.iter().map(|&wall| f(wall)).collect();
    run.put_median("wall_s", per(&|wall| wall));
    run.put_median(
        "host_ns_per_msg",
        per(&|wall| wall * 1e9 / c.messages as f64),
    );
    run.put_median(
        "sim_us_per_host_ms",
        per(&|wall| c.sim_ns as f64 / 1e3 / (wall * 1e3)),
    );
    run.put_median("setup_s", setups.iter().map(|(s, k)| s * k).collect());
    run.put("peak_rss_mb", rss);
    run.put("ok_frac", 1.0 - run.failed as f64 / run.attempted as f64);

    let mut raw_walls: Vec<f64> = passes.iter().map(|(p, _)| p.wall).collect();
    let mut raw_setups: Vec<f64> = setups.iter().map(|(s, _)| *s).collect();
    println!(
        "uncorrected medians: wall_s {:.6} setup_s {:.6}",
        median(&mut raw_walls),
        median(&mut raw_setups)
    );
    let (q1, q3) = quartiles(&mut speed.readings);
    println!(
        "host-speed kernel: median {:.6} s q1 {q1:.6} q3 {q3:.6} n {} (nominal {NOMINAL_S} s)",
        median(&mut speed.readings),
        speed.readings.len()
    );
    run
}

fn traced(w: &Workload, name: &str, seed: u64, seconds: f64) -> Run {
    let origin = Instant::now();
    let warm = w.pass(seed, Kind::Warm, &mut Tracer::off());
    let mut run = Run::new(&warm);
    print_counts(&warm);
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let p = w.pass(seed, Kind::Timed, &mut Tracer::off());
        run.absorb(&warm, &p);
        plain.push(p);
        let mut t = Tracer::new(true, origin);
        let p = t.span("bench.pass", |t| w.pass(seed, Kind::Traced, t));
        run.absorb(&warm, &p);
        spans.extend(t.take());
        traced.push(p);
    }
    let walls = |ps: &[Pass]| median(&mut ps.iter().map(|p| p.wall).collect::<Vec<_>>());
    let overhead = walls(&traced) / walls(&plain) - 1.0;

    let durations = |name: &str, full: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (!full || s.count == SLICE_EVENTS))
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    };
    let total_ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| durations(n, false).iter().sum::<f64>())
            .sum()
    };
    let c = &warm.counts;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    run.put("engine.wheel_ns_per_event", layers::wheel_ns_per_event());
    run.put("engine.events_per_msg", ratio(c.events, c.event_msgs));
    let slice_events: u64 = spans
        .iter()
        .filter(|s| s.name == "core.run_slice")
        .map(|s| s.count)
        .sum();
    run.put(
        "core.run_ns_per_event",
        total_ms(&["core.run_slice"]) * 1e6 / slice_events.max(1) as f64,
    );
    let mut slices = durations("core.run_slice", true);
    run.put("core.slice_ms_p50", percentile(&mut slices, 0.5));
    run.put("core.slice_ms_p95", percentile(&mut slices, 0.95));
    let machines = durations("core.new", false).len().max(1) as f64;
    run.put(
        "core.setup_ms",
        total_ms(&["workloads.factory", "core.new", "core.start"]) / machines,
    );
    run.put("core.report_ms", total_ms(&["core.report"]) / machines);
    run.put("mem.cache_ns_per_op", layers::cache_ns_per_op());
    run.put("mem.bus_ns_per_op", layers::bus_ns_per_op());
    run.put("mem.bus_txns_per_msg", ratio(c.bus_txns, c.messages));
    run.put("net.frags_per_msg", ratio(c.frags, c.messages));
    run.put("net.retries_per_msg", ratio(c.retries, c.messages));
    run.put("net.useful_ratio", ratio(c.frags, c.frags + c.retries));

    // The traffic layer's numbers come from the ladder itself, or, on the
    // other workloads, from the preset-size ladder run on its own.
    let probe: Vec<Pass>;
    let (levels, ladder_passes) = match w {
        Workload::Ladder(_) => (&warm.counts.levels, &plain[..]),
        _ => {
            let small = Ladder {
                nodes: 16,
                scale: 1,
            };
            probe = (0..MIN_PASSES + 1)
                .map(|_| small.pass(seed, EVENT_BUDGET, &mut Tracer::off()))
                .collect();
            run.count(&probe[0]);
            for p in &probe[1..] {
                run.absorb(&probe[0], p);
            }
            (&probe[0].counts.levels, &probe[1..])
        }
    };
    for (i, name) in [
        "workloads.traffic.L1.events_per_msg",
        "workloads.traffic.L2.events_per_msg",
        "workloads.traffic.L3.events_per_msg",
        "workloads.traffic.L4.events_per_msg",
        "workloads.traffic.L5.events_per_msg",
        "workloads.traffic.L6.events_per_msg",
        "workloads.traffic.L7.events_per_msg",
    ]
    .into_iter()
    .enumerate()
    {
        run.put(name, ratio(levels[i].0, levels[i].1));
    }
    for (i, name) in [
        "workloads.traffic.low.host_ns_per_msg",
        "workloads.traffic.high.host_ns_per_msg",
        "workloads.traffic.incast.host_ns_per_msg",
    ]
    .into_iter()
    .enumerate()
    {
        let per: Vec<f64> = ladder_passes
            .iter()
            .map(|p| p.groups[i].secs * 1e9 / p.groups[i].msgs.max(1) as f64)
            .collect();
        run.put_median(name, per);
    }

    let mut points = durations("bench.point", false);
    run.put("bench.point_ms_p50", percentile(&mut points, 0.5));
    run.put("bench.point_ms_p95", percentile(&mut points, 0.95));
    let traced_wall_ms: f64 = traced.iter().map(|p| p.wall * 1e3).sum();
    run.put(
        "bench.jobs_busy_frac",
        total_ms(&["bench.point"]) / (traced_wall_ms * w.jobs() as f64),
    );
    run.put(
        "bench.record_ms",
        total_ms(&["bench.record", "bench.json"]) / traced.len() as f64,
    );
    run.put("trace.overhead_frac", overhead);
    write_spans(name, seed, &spans);
    run
}

/// The exact per-workload count block; a speed-only change leaves it
/// byte-identical. It follows the warm-up's own timing, whose set-up
/// pays the first-touch page faults that later passes do not.
fn print_counts(p: &Pass) {
    let c = &p.counts;
    println!(
        "warm-up pass (untimed): wall {:.6} s, setup {:.6} s",
        p.wall, p.setup
    );
    println!(
        "counts: machines {} events {} (over {} messages) messages {} offered {} sim_ns {} \
         bus_txns {} frags {} retries {} digest {:016x}",
        c.machines,
        c.events,
        c.event_msgs,
        c.messages,
        c.offered,
        c.sim_ns,
        c.bus_txns,
        c.frags,
        c.retries,
        p.digest
    );
    if c.levels.iter().any(|l| l.1 > 0) {
        let levels: Vec<String> = c
            .levels
            .iter()
            .enumerate()
            .map(|(i, (e, m))| format!("L{} {e}/{m}", i + 1))
            .collect();
        println!("counts: pois-uni events/messages {}", levels.join(" "));
    }
}

/// Writes the spans and a per-name and per-layer self-time summary to
/// `perfbench/out/`, and prints the summary.
fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let summary = trace::self_times(spans);
    let mut layers: std::collections::BTreeMap<&str, f64> = Default::default();
    println!("self time by span (calls, total ms, self ms):");
    for (name, (n, total, own)) in &summary {
        println!("  {name:<22} {n:>8} {total:>12.3} {own:>12.3}");
        *layers.entry(trace::layer(name)).or_default() += own;
    }
    println!("self time by layer (ms):");
    for (layer, own) in &layers {
        println!("  {layer:<22} {own:>12.3}");
    }
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or(Json::Null, Json::from);
        let line = Json::obj()
            .set("span", s.id)
            .set("parent", parent)
            .set("run", s.run)
            .set("name", s.name)
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns)
            .set("count", s.count);
        text.push_str(&line.to_compact());
        text.push('\n');
    }
    for (name, (n, total, own)) in &summary {
        let line = Json::obj()
            .set("self_time", *name)
            .set("calls", *n)
            .set("total_ms", *total)
            .set("self_ms", *own);
        text.push_str(&line.to_compact());
        text.push('\n');
    }
    for (layer, own) in &layers {
        let line = Json::obj().set("layer", *layer).set("self_ms", *own);
        text.push_str(&line.to_compact());
        text.push('\n');
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        f.write_all(text.as_bytes())?;
        f.flush()
    });
    match written {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
}

/// Host and build stamp: results from different hosts or builds are
/// not comparable.
fn host_stamp(jobs: usize) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj()
        .set("cores", cores)
        .set("cpu", cpu)
        .set("rustc", env!("PERFBENCH_RUSTC"))
        .set("commit", git_commit())
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("jobs", jobs)
        .set("workers", 0u64)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "none" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload <paper-grid|em3d-1024|traffic-ladder> \
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let jobs = nisim_bench::default_jobs();
    let name = args.workload;
    let workload = match name {
        "paper-grid" => match Grid::load(jobs) {
            Ok(g) => Workload::Grid(g),
            Err(e) => {
                eprintln!("paper-grid: {e}");
                return ExitCode::from(2);
            }
        },
        "em3d-1024" => Workload::Em3d(Em3dShape::full()),
        _ => Workload::Ladder(Ladder::full()),
    };
    println!(
        "host: {} workload {name} seed {} trace {}",
        host_stamp(workload.jobs()).to_compact(),
        args.seed,
        args.trace as u8
    );
    let run = if args.trace {
        traced(&workload, name, args.seed, args.seconds)
    } else {
        untraced(&workload, args.seed, args.seconds)
    };
    let mut correct = run.failed == 0;
    for f in run.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    for (n, unit, v) in &run.metrics {
        match run.spread.iter().find(|s| s.0 == *n) {
            Some((_, q1, q3, k)) => {
                println!("{n:<42} {v:>16.6} {unit:<12} q1 {q1:.6} q3 {q3:.6} n {k}")
            }
            None => println!("{n:<42} {v:>16.6} {unit}"),
        }
        if !v.is_finite() {
            eprintln!("FAILED metric {n} is not finite");
            correct = false;
        }
    }
    if !args.trace {
        println!(
            "fail_frac {} ({} of {} machine runs failed)",
            run.failed as f64 / run.attempted as f64,
            run.failed,
            run.attempted
        );
    }
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(n, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_engine::Dur;
    use nisim_workloads::apps::AppParams;

    fn em3d() -> Em3dShape {
        Em3dShape {
            nodes: 16,
            params: AppParams {
                iterations: 2,
                intensity: 4,
                compute: Dur::us(3),
            },
        }
    }

    const LADDER: Ladder = Ladder { nodes: 4, scale: 1 };

    fn digests(seed: u64, budget: u64, t: &mut Tracer) -> (Pass, Pass) {
        (em3d().pass(seed, budget, t), LADDER.pass(seed, budget, t))
    }

    #[test]
    fn same_seed_same_digest_and_tracing_changes_nothing() {
        let (a, b) = digests(7, EVENT_BUDGET, &mut Tracer::off());
        let (c, d) = digests(7, EVENT_BUDGET, &mut Tracer::new(true, Instant::now()));
        for p in [&a, &b, &c, &d] {
            assert_eq!(p.failed, 0, "{:?}", p.failures);
        }
        assert_eq!(a.digest, c.digest);
        assert_eq!(b.digest, d.digest);
        assert_eq!(a.counts, c.counts);
    }

    #[test]
    fn different_seed_changes_the_digest() {
        let (a, b) = digests(7, EVENT_BUDGET, &mut Tracer::off());
        let (c, d) = digests(8, EVENT_BUDGET, &mut Tracer::off());
        assert_ne!(a.digest, c.digest);
        assert_ne!(b.digest, d.digest);
    }

    #[test]
    fn a_run_cut_short_by_its_event_budget_fails() {
        let (a, b) = digests(7, 100, &mut Tracer::off());
        assert_eq!((a.failed, a.attempted), (1, 1));
        assert_eq!(b.failed, b.attempted);
        let mut run = Run::new(&a);
        run.absorb(&a, &b);
        assert_eq!(run.failed, run.attempted);
    }

    #[test]
    fn metric_names_are_plain_and_match_benchmark_json() {
        let plain = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = nisim_engine::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
            assert!(ours.iter().all(|(n, _)| plain(n)));
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quartiles(&mut xs), (1.75, 3.25));
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |xs: &[&str]| parse_args(xs.iter().map(|s| s.to_string()));
        let a = parse(&["--workload", "em3d-1024", "--seed", "3", "--trace", "1"]).unwrap();
        assert_eq!(a.workload, "em3d-1024");
        assert_eq!(a.seed, 3);
        assert!(a.trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "paper-grid", "--trace", "2"]).is_err());
    }
}
