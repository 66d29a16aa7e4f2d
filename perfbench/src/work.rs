//! The three workloads, one pass at a time, with their output checks.
//!
//! A pass runs every machine of its workload once and ends by building
//! the records document a user would write with `--json`. Every machine
//! is checked: it must drain, end quiescent, record no violation and
//! deliver every message it offered; the paper grid must also match the
//! committed golden byte for byte.

use std::time::Instant;

use nisim_bench::harness::run_point;
use nisim_bench::loadlat::LOADLAT_BUFFERS;
use nisim_bench::record::{self, RunRecord};
use nisim_bench::{golden_document, golden_path, golden_suite, parallel_map, SweepPoint, Work};
use nisim_core::process::Process;
use nisim_core::{Machine, MachineConfig, MachineReport, MachineSim, NiKind};
use nisim_engine::{SimStatus, Time};
use nisim_net::{NodeId, Topology};
use nisim_workloads::apps::{self, em3d, MacroApp};
use nisim_workloads::traffic::{TrafficDriver, TrafficKind, TrafficSpec, MAX_LOAD_LEVEL};

use crate::trace::Tracer;

/// `Machine::run`'s bounds: a machine that needs more has failed.
pub const HORIZON_NS: u64 = 10_000_000_000;
pub const EVENT_BUDGET: u64 = 500_000_000;
/// Events per `run_slice` call in traced passes.
pub const SLICE_EVENTS: u64 = 16_384;

type Factory = Box<dyn FnMut(NodeId) -> Box<dyn Process>>;

/// Exact simulated counts of one pass. A change that only speeds up the
/// simulator leaves every one of them unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub machines: u64,
    /// Scheduler events, over the machines whose report the benchmark
    /// saw (`event_msgs` is their delivered messages).
    pub events: u64,
    pub event_msgs: u64,
    pub messages: u64,
    pub offered: u64,
    pub sim_ns: u64,
    pub bus_txns: u64,
    pub frags: u64,
    pub retries: u64,
    /// `pois-uni` traffic per load level: (events, messages).
    pub levels: [(u64, u64); MAX_LOAD_LEVEL as usize],
}

/// Host time and messages of one traffic group (low, high, incast).
#[derive(Clone, Copy, Debug, Default)]
pub struct Group {
    pub secs: f64,
    pub msgs: u64,
}

/// One pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall: f64,
    /// Host time building machines (factory, `Machine::new`, `start`).
    pub setup: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// FNV-1a of the records document and the exact counts.
    pub digest: u64,
    pub counts: Counts,
    /// Traffic ladder only: uni L1-L3, uni L5-L7, incast.
    pub groups: [Group; 3],
}

impl Pass {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn absorb(&mut self, r: &MachineReport) {
        let c = &mut self.counts;
        c.machines += 1;
        c.events += r.events;
        c.event_msgs += r.app_messages;
        c.messages += r.app_messages;
        c.offered += r.msg_sizes.total();
        c.sim_ns += r.elapsed.as_ns();
        c.bus_txns += r.bus_transactions;
        c.frags += r.fragments_sent;
        c.retries += r.retries;
    }

    fn seal(&mut self, doc: &str) {
        let c = &self.counts;
        let mut h = fnv(FNV_SEED, doc.as_bytes());
        for v in [c.machines, c.events, c.event_msgs, c.messages, c.offered] {
            h = fnv(h, &v.to_le_bytes());
        }
        self.digest = h;
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A machine that drained, ended quiescent, recorded no violation and
/// delivered every message it offered.
pub fn check_report(r: &MachineReport) -> Result<(), String> {
    if r.status != SimStatus::Drained {
        return Err(format!("ended {:?}", r.status));
    }
    if !r.all_quiescent {
        return Err("not quiescent".into());
    }
    if !r.violations.is_empty() {
        return Err(format!("{} violations", r.violations.len()));
    }
    if r.app_messages != r.msg_sizes.total() {
        return Err(format!(
            "delivered {} of {} messages",
            r.app_messages,
            r.msg_sizes.total()
        ));
    }
    Ok(())
}

/// A built, driven and reported machine.
pub struct Outcome {
    pub report: MachineReport,
    pub setup: f64,
}

/// Builds, starts, drives and reports one machine through the public
/// `Machine` API. Untraced runs make one `run_slice` call, as
/// `Machine::run` does; traced runs drive in fixed-budget slices.
pub fn run_machine(
    cfg: MachineConfig,
    factory: impl FnOnce() -> Factory,
    budget: u64,
    t: &mut Tracer,
) -> Outcome {
    let t0 = Instant::now();
    let factory = t.span("workloads.factory", |_| factory());
    let mut machine = t.span("core.new", |_| Machine::new(cfg, factory));
    let mut sim = MachineSim::new();
    t.span("core.start", |_| machine.start(&mut sim));
    let setup = t0.elapsed().as_secs_f64();
    let horizon = Time::from_ns(HORIZON_NS);
    let status = if t.enabled() {
        loop {
            let before = sim.events_fired();
            t.open("core.run_slice");
            let left = budget - before;
            let status = machine.run_slice(&mut sim, horizon, left.min(SLICE_EVENTS));
            t.close(sim.events_fired() - before);
            if status != SimStatus::EventBudgetExhausted || sim.events_fired() >= budget {
                break status;
            }
        }
    } else {
        machine.run_slice(&mut sim, horizon, budget)
    };
    let report = t.span("core.report", |_| machine.report(&sim, status));
    Outcome { report, setup }
}

/// Record building and serialisation, timed as `bench.record` and
/// `bench.json`.
fn document(t: &mut Tracer, name: &str, records: &[RunRecord]) -> String {
    t.span("bench.json", |_| {
        record::document(vec![record::sweep_to_json(name, records)]).to_pretty()
    })
}

// ---------------------------------------------------------------------------
// paper-grid
// ---------------------------------------------------------------------------

/// The golden suite as `goldens` runs it, and the committed document.
pub struct Grid {
    sections: Vec<(String, Vec<SweepPoint>)>,
    golden: String,
    golden_records: Vec<RunRecord>,
    pub jobs: usize,
}

impl Grid {
    pub fn load(jobs: usize) -> Result<Grid, String> {
        let path = golden_path();
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let golden_records = record::parse_document(&golden)?
            .into_iter()
            .flat_map(|(_, r)| r)
            .collect();
        let sections: Vec<(String, Vec<SweepPoint>)> = golden_suite()
            .into_iter()
            .map(|s| (s.name.clone(), s.points()))
            .collect();
        Ok(Grid {
            sections,
            golden,
            golden_records,
            jobs,
        })
    }

    pub fn points(&self) -> impl Iterator<Item = &SweepPoint> {
        self.sections.iter().flat_map(|(_, p)| p)
    }

    /// One pass. Untraced passes call `golden_document`, the path the
    /// `goldens` binary takes. `replica` passes run each section through
    /// `parallel_map` themselves and drive the macro points with
    /// `run_machine`, so their layers can be timed and their events
    /// counted; the document must come out the same.
    pub fn pass(&self, replica: bool, jobs: usize, t: &mut Tracer) -> Pass {
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let (text, records) = if replica {
            let mut records = Vec::with_capacity(self.golden_records.len());
            let mut sweeps = Vec::new();
            for (name, points) in &self.sections {
                t.open("bench.section");
                let spawn = t.spawner();
                let results = parallel_map(points, jobs, |p| {
                    let mut tt = spawn.tracer();
                    let (rec, driven) = tt.point(|tt| match p.work {
                        Work::Macro(app) => replica_point(p, app, tt),
                        _ => (tt.span("bench.run_point", |_| run_point(p)), None),
                    });
                    (rec, driven, tt)
                });
                t.close(0);
                let start = records.len();
                for (rec, driven, tt) in results {
                    t.absorb(tt);
                    if let Some((events, setup)) = driven {
                        pass.counts.events += events;
                        pass.counts.event_msgs += rec.counter("app_messages");
                        pass.setup += setup;
                    }
                    records.push(rec);
                }
                sweeps.push(t.span("bench.json", |_| {
                    record::sweep_to_json(name, &records[start..])
                }));
            }
            let text = t.span("bench.json", |_| record::document(sweeps).to_pretty());
            (text, Some(records))
        } else {
            (golden_document(jobs, None).to_pretty(), None)
        };
        let same = t.span("bench.golden_compare", |_| text == self.golden);
        pass.wall = t0.elapsed().as_secs_f64();
        let records = match (same, records) {
            (true, _) => self.golden_records.clone(),
            (false, Some(r)) => r,
            (false, None) => record::parse_document(&text)
                .map(|s| s.into_iter().flat_map(|(_, r)| r).collect())
                .unwrap_or_default(),
        };
        for (i, rec) in records.iter().enumerate() {
            pass.attempted += 1;
            let c = &mut pass.counts;
            c.machines += 1;
            c.messages += rec.counter("app_messages");
            c.offered += rec.msg_sizes.iter().map(|&(_, n)| n).sum::<u64>();
            c.sim_ns += rec.elapsed_ns;
            c.bus_txns += rec.counter("bus_transactions");
            c.frags += rec.counter("fragments_sent");
            c.retries += rec.counter("retries");
            let what = format!("{} {} {} {:?}", rec.work, rec.ni, rec.buffers, rec.patch);
            pass.check(&what, check_record(rec, self.golden_records.get(i)));
        }
        if !same {
            pass.attempted = pass.attempted.max(self.golden_records.len() as u64);
            if pass.failed == 0 {
                pass.check("paper-grid", Err("document differs from the golden".into()));
            }
        }
        // Untraced passes see no events, so the grid's digest is its
        // document alone.
        pass.digest = fnv(FNV_SEED, text.as_bytes());
        pass
    }

    /// Builds (and drops) every macro point's machine: the grid's
    /// set-up cost, which its passes pay inside `run_point`.
    pub fn setup(&self) -> f64 {
        let mut secs = 0.0;
        for p in self.points() {
            if let Work::Macro(app) = p.work {
                let (cfg, params) = macro_config(p, app);
                let t0 = Instant::now();
                let f = apps::factory(app, cfg.nodes, cfg.seed, params);
                let mut m = Machine::new(cfg, f);
                let mut sim = MachineSim::new();
                m.start(&mut sim);
                secs += t0.elapsed().as_secs_f64();
                std::hint::black_box((&m, &sim));
            }
        }
        secs
    }
}

fn check_record(rec: &RunRecord, golden: Option<&RunRecord>) -> Result<(), String> {
    if rec.status != "drained" || !rec.quiescent {
        return Err(format!(
            "ended {} (quiescent {})",
            rec.status, rec.quiescent
        ));
    }
    if rec.counter("violations") != 0 {
        return Err("violations".into());
    }
    let offered: u64 = rec.msg_sizes.iter().map(|&(_, n)| n).sum();
    if rec.counter("app_messages") != offered {
        return Err("delivered fewer messages than offered".into());
    }
    if golden != Some(rec) {
        return Err("record differs from the golden".into());
    }
    Ok(())
}

/// The configuration `run_point` builds for a macro point.
fn macro_config(p: &SweepPoint, app: MacroApp) -> (MachineConfig, apps::AppParams) {
    let mut cfg = MachineConfig::with_ni(p.ni).flow_buffers(p.buffers);
    p.patch.apply(&mut cfg);
    (cfg, p.patch.params.unwrap_or_else(|| app.default_params()))
}

/// A macro point through `run_machine`: its record, events and set-up
/// time.
fn replica_point(p: &SweepPoint, app: MacroApp, t: &mut Tracer) -> (RunRecord, Option<(u64, f64)>) {
    let (cfg, params) = macro_config(p, app);
    let fp = record::fingerprint(&cfg);
    let (nodes, seed) = (cfg.nodes, cfg.seed);
    let out = run_machine(
        cfg,
        || apps::factory(app, nodes, seed, params),
        EVENT_BUDGET,
        t,
    );
    let rec = t.span("bench.record", |_| {
        RunRecord::from_report(
            p.work.key(),
            p.ni.key().to_string(),
            p.buffers.to_string(),
            p.patch.label.clone(),
            fp,
            &out.report,
            Vec::new(),
        )
    });
    (rec, Some((out.report.events, out.setup)))
}

// ---------------------------------------------------------------------------
// em3d-1024
// ---------------------------------------------------------------------------

/// One closed-loop em3d machine on a 2-D mesh.
#[derive(Clone, Copy, Debug)]
pub struct Em3dShape {
    pub nodes: u32,
    pub params: apps::AppParams,
}

impl Em3dShape {
    pub fn full() -> Em3dShape {
        Em3dShape {
            nodes: 1024,
            params: MacroApp::Em3d.default_params(),
        }
    }

    pub fn pass(&self, seed: u64, budget: u64, t: &mut Tracer) -> Pass {
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let mut cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(self.nodes)
            .seed(seed);
        cfg.net.topology = Topology::Mesh2D;
        let update_bytes = 12 + cfg.net.header_bytes;
        let fp = record::fingerprint(&cfg);
        let buffers = cfg.flow_buffers.to_string();
        let (nodes, params) = (self.nodes, self.params);
        let rec = t.point(|t| {
            let out = run_machine(
                cfg,
                || Box::new(em3d::factory(nodes, seed, params)),
                budget,
                t,
            );
            pass.setup = out.setup;
            pass.attempted += 1;
            pass.absorb(&out.report);
            let degree = em3d::DEGREE.min(nodes as usize - 1) as u64;
            let updates = nodes as u64 * degree * (params.intensity * params.iterations) as u64;
            let sent = out.report.msg_sizes.count_of(update_bytes);
            pass.check(
                "em3d",
                check_report(&out.report).and_then(|()| {
                    (sent == updates)
                        .then_some(())
                        .ok_or(format!("{sent} updates, expected {updates}"))
                }),
            );
            t.span("bench.record", |_| {
                RunRecord::from_report(
                    "em3d".into(),
                    NiKind::Cm5.key().into(),
                    buffers,
                    format!("mesh-{nodes}"),
                    fp,
                    &out.report,
                    Vec::new(),
                )
            })
        });
        let doc = document(t, "em3d-1024", &[rec]);
        pass.wall = t0.elapsed().as_secs_f64();
        pass.seal(&doc);
        pass
    }
}

// ---------------------------------------------------------------------------
// traffic-ladder
// ---------------------------------------------------------------------------

/// Open-loop traffic: `pois-uni` L1-L7 and `pois-incast` L1-L3 on an
/// uncached-word NI and a coherent-block NI, each tenant sending
/// `scale` times the preset's messages per node.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    pub nodes: u32,
    pub scale: u32,
}

const LADDER_NIS: [NiKind; 2] = [NiKind::Cm5, NiKind::Cni32Qm];

impl Ladder {
    pub fn full() -> Ladder {
        Ladder {
            nodes: 16,
            scale: 8,
        }
    }

    fn specs() -> Vec<TrafficSpec> {
        let uni = (1..=MAX_LOAD_LEVEL).map(|level| TrafficSpec {
            kind: TrafficKind::PoissonUniform,
            level,
        });
        let incast = (1..=3).map(|level| TrafficSpec {
            kind: TrafficKind::PoissonIncast,
            level,
        });
        uni.chain(incast).collect()
    }

    pub fn pass(&self, seed: u64, budget: u64, t: &mut Tracer) -> Pass {
        let t0 = Instant::now();
        let mut pass = Pass::default();
        let mut records = Vec::new();
        for ni in LADDER_NIS {
            for spec in Self::specs() {
                let cfg = MachineConfig::with_ni(ni)
                    .flow_buffers(LOADLAT_BUFFERS)
                    .nodes(self.nodes)
                    .seed(seed);
                let mut params = spec.params(cfg.nodes);
                for tenant in &mut params.tenants {
                    tenant.messages_per_node *= self.scale;
                }
                let injecting = match spec.kind {
                    TrafficKind::PoissonIncast => self.nodes as u64 - 1,
                    _ => self.nodes as u64,
                };
                let expected: u64 = params
                    .tenants
                    .iter()
                    .map(|s| s.messages_per_node as u64 * injecting)
                    .sum();
                let fp = record::fingerprint(&cfg);
                let m0 = Instant::now();
                let rec = t.point(|t| {
                    let driver = TrafficDriver::new(&cfg, &params);
                    let mut out = run_machine(cfg, || driver.factory(), budget, t);
                    driver.attach(&mut out.report);
                    pass.setup += out.setup;
                    pass.attempted += 1;
                    pass.absorb(&out.report);
                    let r = &out.report;
                    if spec.kind == TrafficKind::PoissonUniform {
                        let l = &mut pass.counts.levels[spec.level as usize - 1];
                        l.0 += r.events;
                        l.1 += r.app_messages;
                    }
                    let offered: u64 = r.tenants.iter().map(|s| s.offered).sum();
                    let delivered: u64 = r.tenants.iter().map(|s| s.delivered).sum();
                    pass.check(
                        &format!("{} {}", spec.key(), ni.key()),
                        check_report(r).and_then(|()| {
                            (offered == expected && delivered == expected)
                                .then_some(())
                                .ok_or(format!(
                                    "offered {offered}, delivered {delivered}, expected {expected}"
                                ))
                        }),
                    );
                    t.span("bench.record", |_| {
                        RunRecord::from_report(
                            spec.key(),
                            ni.key().to_string(),
                            LOADLAT_BUFFERS.to_string(),
                            format!("x{}", self.scale),
                            fp,
                            r,
                            Vec::new(),
                        )
                    })
                });
                let group = match (spec.kind, spec.level) {
                    (TrafficKind::PoissonIncast, _) => Some(2),
                    (_, 1..=3) => Some(0),
                    (_, 5..=7) => Some(1),
                    _ => None,
                };
                if let Some(g) = group {
                    pass.groups[g].secs += m0.elapsed().as_secs_f64();
                    pass.groups[g].msgs += rec.counter("app_messages");
                }
                records.push(rec);
            }
        }
        let doc = document(t, "traffic-ladder", &records);
        pass.wall = t0.elapsed().as_secs_f64();
        pass.seal(&doc);
        pass
    }
}
