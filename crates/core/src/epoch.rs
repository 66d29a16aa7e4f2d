//! Conservative epoch-parallel execution of a [`Machine`] run.
//!
//! The paper's constant wire latency is a classic conservative-PDES
//! lookahead: a fragment put on the wire at time `T` cannot touch a
//! remote node before `T + wire_latency`. The driver exploits it by
//! stepping the wheel in epochs `[m, m + L)` where `m` is the next
//! pending event's time and `L` the lookahead: every event in the
//! window touches exactly one node ([`MachineEvent::node_of`]), and any
//! cross-node event it schedules lands at or beyond the window's end —
//! so the window's events can be partitioned by node into *lanes* and
//! run concurrently.
//!
//! # The merge invariant
//!
//! Byte-identical results at any worker count come from an exact-replay
//! design rather than from merging approximately:
//!
//! * Each lane fires its events against the node's real state, ordered
//!   by `(time, generation, index)` — seeds (popped from the wheel)
//!   carry their original wheel seq as index, lane-created events an
//!   incrementing counter. Restricted to one lane, this reproduces the
//!   serial `(time, seq)` pop order exactly: seeds precede same-instant
//!   creations (wheel seqs are older), and creations are seq'd in the
//!   order their parents fired.
//! * Every machine-global effect (scheduling, traces, histograms, the
//!   fault plan's RNG draws, fabric transits, violations) is recorded as
//!   an [`Op`] in lane order instead of being applied.
//! * The coordinator then replays: a heap keyed `(time, seq, lane)`
//!   interleaves the lanes back into the exact serial firing order, and
//!   each fired event's ops are applied to the real [`Globals`] and the
//!   wheel in handler order, allocating the very seq numbers the serial
//!   run would have. Same-instant FIFO is therefore the wheel's own.
//!
//! Watchdog and event-budget edges fall back to true serial stepping:
//! an epoch only runs when it provably cannot trip the no-progress
//! watchdog (`window_end ≤ last_change + window`) and cannot exhaust
//! the budget (`remaining ≥ BUDGET_GUARD`); otherwise single events are
//! stepped through the wheel with the serial loop's exact bookkeeping.
//! Sparse windows (fewer than [`MIN_PAR_EVENTS`] events or under two
//! active lanes) are also stepped serially — the barrier costs more
//! than it buys. Any interleaving of serial steps and epochs is exact,
//! because both leave the machine in the state the serial run reaches
//! at the same wheel position.
//!
//! This module is the one place in the simulation crates where
//! [`std::sync`] primitives are allowed; the determinism lint bans them
//! everywhere else (they are how *nondeterminism* usually leaks in).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use nisim_engine::audit::{EpochAudit, FootprintKey, LaneAudit, MergeStep};
use nisim_engine::metrics::Component;
use nisim_engine::{Dur, SimStatus, Time};
use nisim_net::{MsgId, NodeId};

use crate::config::MachineConfig;
use crate::error::ProtocolViolation;
use crate::event::MachineEvent;
use crate::machine::{
    sched_global, wire_handoff, EvCtx, Globals, Gmode, Machine, MachineSim, TraceKind,
};
use crate::ni::WireMsg;
use crate::node::Node;

/// Below this many events remaining in the budget, the driver steps
/// serially so budget exhaustion cuts the run at exactly the event the
/// serial loop would stop at. Checkpoint slicing uses budgets far below
/// this, so sliced runs are always exact.
const BUDGET_GUARD: u64 = 65_536;

/// Windows with fewer events than this (or under two active lanes) are
/// stepped serially: the epoch machinery costs more than it buys.
const MIN_PAR_EVENTS: usize = 8;

/// One recorded machine-global effect, replayed in serial order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// A schedule that escapes the window (later epoch, any node).
    Sched {
        at: Time,
        ev: MachineEvent,
    },
    /// A same-node in-window schedule; the event itself lives in the
    /// lane's heap, the replay only allocates its seq number.
    Local {
        at: Time,
    },
    /// An egress handoff: fault plan, fabric transit and arrival
    /// scheduling are resolved at replay (they are global state).
    Inject {
        wire: WireMsg,
        end: Time,
    },
    Violation {
        at: Time,
        kind: ProtocolViolation,
    },
    Trace {
        at: Time,
        node: NodeId,
        msg: MsgId,
        kind: TraceKind,
    },
    Span {
        component: Component,
        node: NodeId,
        start: Time,
        end: Time,
    },
    FragQueue(u64),
    MsgRtt(u64),
    MsgSize(u64),
    MsgLatency(f64),
    AppMessage,
}

/// Replay bookkeeping for one event a lane fired.
#[derive(Clone, Copy, Debug)]
struct FiredRec {
    at: Time,
    /// End index (exclusive) of this event's ops in the lane op log.
    ops_end: u32,
    /// How much the event advanced the forward-progress counter.
    progress_delta: u32,
}

/// A lane-heap entry: `(at, gen, idx)` reproduces the serial
/// `(time, seq)` order restricted to this lane — seeds (gen 0) carry
/// their original wheel seq, lane creations (gen 1) an insertion
/// counter, and every live wheel seq predates every replay-allocated
/// one.
struct LaneEntry {
    at: Time,
    gen: u8,
    idx: u64,
    ev: MachineEvent,
}

impl PartialEq for LaneEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.gen, self.idx) == (other.at, other.gen, other.idx)
    }
}
impl Eq for LaneEntry {}
impl PartialOrd for LaneEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for LaneEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we pop the minimum key.
        (other.at, other.gen, other.idx).cmp(&(self.at, self.gen, self.idx))
    }
}

/// The per-lane effect recorder handed to event handlers through
/// [`Gmode::Lane`].
pub(crate) struct LaneSink {
    nid: usize,
    window_end: Time,
    trace_on: bool,
    metrics_on: bool,
    ops: Vec<Op>,
    fired: Vec<FiredRec>,
    heap: BinaryHeap<LaneEntry>,
    created: u64,
    progress_delta: u32,
    /// The lane's footprint-audit record, present only when
    /// [`MachineConfig::audit`] is on. Purely observational.
    audit: Option<Box<LaneAudit>>,
}

impl LaneSink {
    fn new(
        nid: usize,
        window_end: Time,
        trace_on: bool,
        metrics_on: bool,
        audit_on: bool,
    ) -> LaneSink {
        LaneSink {
            nid,
            window_end,
            trace_on,
            metrics_on,
            ops: Vec::new(),
            fired: Vec::new(),
            heap: BinaryHeap::new(),
            created: 0,
            progress_delta: 0,
            audit: audit_on.then(|| Box::new(LaneAudit::new(nid as u32))),
        }
    }

    pub(crate) fn sched(&mut self, now: Time, nid: usize, at: Time, ev: MachineEvent) {
        if at < now {
            self.ops.push(Op::Violation {
                at: now,
                kind: ProtocolViolation::EventScheduledInPast { at, now },
            });
            return;
        }
        if let Some(a) = &mut self.audit {
            a.scheds.push((at.as_ns(), ev.node_of() as u32));
        }
        if at >= self.window_end {
            self.ops.push(Op::Sched { at, ev });
            return;
        }
        // The conservative-lookahead invariant: an in-window schedule
        // must target this lane's own node, or lanes would race.
        assert_eq!(
            ev.node_of(),
            nid,
            "conservative lookahead violated: in-window cross-node event at {at:?}"
        );
        self.ops.push(Op::Local { at });
        let idx = self.created;
        self.created += 1;
        self.heap.push(LaneEntry {
            at,
            gen: 1,
            idx,
            ev,
        });
    }

    pub(crate) fn progress(&mut self) {
        self.progress_delta += 1;
    }

    pub(crate) fn violation(&mut self, at: Time, kind: ProtocolViolation) {
        self.ops.push(Op::Violation { at, kind });
    }

    pub(crate) fn record(&mut self, at: Time, node: NodeId, msg: MsgId, kind: TraceKind) {
        if self.trace_on {
            self.ops.push(Op::Trace {
                at,
                node,
                msg,
                kind,
            });
        }
    }

    pub(crate) fn span(&mut self, component: Component, node: NodeId, start: Time, end: Time) {
        if self.metrics_on {
            self.ops.push(Op::Span {
                component,
                node,
                start,
                end,
            });
        }
    }

    pub(crate) fn frag_queue(&mut self, ns: u64) {
        if self.metrics_on {
            self.ops.push(Op::FragQueue(ns));
        }
    }

    pub(crate) fn msg_rtt(&mut self, ns: u64) {
        if self.metrics_on {
            self.ops.push(Op::MsgRtt(ns));
        }
    }

    pub(crate) fn msg_size(&mut self, bytes: u64) {
        self.ops.push(Op::MsgSize(bytes));
    }

    pub(crate) fn msg_latency(&mut self, ns: f64) {
        self.ops.push(Op::MsgLatency(ns));
    }

    pub(crate) fn app_message(&mut self) {
        self.ops.push(Op::AppMessage);
    }

    pub(crate) fn inject(&mut self, wire: WireMsg, end: Time) {
        if let Some(a) = &mut self.audit {
            a.writes.push(FootprintKey::egress(self.nid as u64));
        }
        self.ops.push(Op::Inject { wire, end });
    }

    fn begin_event(&mut self) {
        self.progress_delta = 0;
    }

    fn end_event(&mut self, at: Time) {
        self.fired.push(FiredRec {
            at,
            ops_end: self.ops.len() as u32,
            progress_delta: self.progress_delta,
        });
    }
}

/// Runs one lane: fires every seeded (and in-window created) event of
/// one node, recording global effects into the sink.
fn run_lane(
    cfg: &MachineConfig,
    nodes_len: usize,
    node: &mut Node,
    sink: &mut LaneSink,
    seeds: &mut Vec<(Time, u64, MachineEvent)>,
) {
    if let Some(a) = &mut sink.audit {
        for &(at, seq, _) in seeds.iter() {
            a.seeds.push((at.as_ns(), seq));
        }
    }
    for (at, seq, ev) in seeds.drain(..) {
        sink.heap.push(LaneEntry {
            at,
            gen: 0,
            idx: seq,
            ev,
        });
    }
    while let Some(e) = sink.heap.pop() {
        sink.begin_event();
        let mut ctx = EvCtx {
            now: e.at,
            nid: sink.nid,
            nodes_len,
            cfg,
            node: &mut *node,
            g: Gmode::Lane { sink: &mut *sink },
        };
        Machine::dispatch(&mut ctx, e.ev);
        sink.end_event(e.at);
    }
    let fired = sink.fired.len() as u64;
    if let Some(a) = &mut sink.audit {
        a.events = fired;
    }
}

/// One lane's work packet inside an [`EpochWork`].
struct LaneCell {
    seeds: Vec<(Time, u64, MachineEvent)>,
    sink: LaneSink,
}

struct LaneTask {
    nid: usize,
    cell: Mutex<LaneCell>,
}

/// The work the coordinator publishes to the pool for one epoch.
#[derive(Default)]
struct EpochWork {
    next: AtomicUsize,
    done: AtomicUsize,
    lanes: Vec<LaneTask>,
}

/// State shared between the coordinator and the worker pool for the
/// duration of one driver call. Node state lives in per-node locks:
/// each lane locks exactly its own node, and serial fallback steps lock
/// one node at a time, so there is never lock contention — the locks
/// exist to prove exclusivity to the compiler, not to arbitrate races.
struct Shared {
    nodes: Vec<Mutex<Node>>,
    cfg: MachineConfig,
    gen: AtomicU64,
    shutdown: AtomicBool,
    work: RwLock<EpochWork>,
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let gen = shared.gen.load(Ordering::Acquire);
        if gen == seen {
            std::thread::yield_now();
            continue;
        }
        seen = gen;
        claim_lanes(shared);
    }
}

/// Claims and runs unclaimed lanes of the current epoch until none are
/// left. Called by workers on a generation bump and by the coordinator
/// to participate in its own epoch.
fn claim_lanes(shared: &Shared) {
    let work = shared.work.read().unwrap();
    loop {
        let i = work.next.fetch_add(1, Ordering::Relaxed);
        if i >= work.lanes.len() {
            break;
        }
        let task = &work.lanes[i];
        let mut cell = task.cell.lock().unwrap();
        let mut node = shared.nodes[task.nid].lock().unwrap();
        let cell = &mut *cell;
        run_lane(
            &shared.cfg,
            shared.nodes.len(),
            &mut node,
            &mut cell.sink,
            &mut cell.seeds,
        );
        drop(node);
        work.done.fetch_add(1, Ordering::Release);
    }
}

/// Sets the shutdown flag when the coordinator leaves the scope for any
/// reason (including a panic), so spinning workers always exit.
struct ShutdownGuard<'a>(&'a Shared);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown.store(true, Ordering::Release);
    }
}

fn sat_add(t: Time, d: Dur) -> Time {
    Time::from_ns(t.as_ns().saturating_add(d.as_ns()))
}

enum StepOutcome {
    Stepped,
    Finished(SimStatus),
}

/// Fires exactly one event through the wheel with the serial watched
/// loop's bookkeeping. The caller has already performed the peek /
/// horizon / budget checks for this event.
fn serial_step(
    machine: &mut Machine,
    sim: &mut MachineSim,
    shared: &Shared,
    window: Dur,
    remaining: &mut u64,
    last_value: &mut u64,
    last_change: &mut Time,
) -> StepOutcome {
    *remaining -= 1;
    let Some((at, _seq, ev)) = sim.pop_next() else {
        return StepOutcome::Finished(SimStatus::Drained);
    };
    sim.replay_advance(at);
    let nid = ev.node_of();
    {
        let mut node = shared.nodes[nid].lock().unwrap();
        let mut ctx = EvCtx {
            now: at,
            nid,
            nodes_len: shared.nodes.len(),
            cfg: &shared.cfg,
            node: &mut node,
            g: Gmode::Serial {
                g: &mut machine.g,
                sim,
            },
        };
        Machine::dispatch(&mut ctx, ev);
    }
    if let Some(log) = &mut machine.g.audit {
        log.serial_events += 1;
    }
    let value = machine.g.progress;
    if value != *last_value {
        *last_value = value;
        *last_change = at;
    } else if at.saturating_since(*last_change) >= window {
        return StepOutcome::Finished(SimStatus::Stalled);
    }
    StepOutcome::Stepped
}

/// Applies one recorded op to the real globals and the wheel.
fn apply_op(
    op: Op,
    lane: usize,
    shared: &Shared,
    g: &mut Globals,
    sim: &mut MachineSim,
    heap: &mut BinaryHeap<std::cmp::Reverse<(Time, u64, usize)>>,
) {
    match op {
        Op::Sched { at, ev } => sched_global(g, sim, at, ev),
        Op::Local { at } => {
            let seq = sim.alloc_seq();
            heap.push(std::cmp::Reverse((at, seq, lane)));
        }
        Op::Inject { wire, end } => wire_handoff(&shared.cfg.net, g, sim, wire, end),
        Op::Violation { at, kind } => g.violation(at, kind),
        Op::Trace {
            at,
            node,
            msg,
            kind,
        } => g.record(at, node, msg, kind),
        Op::Span {
            component,
            node,
            start,
            end,
        } => g.charge_span(component, node, start, end),
        Op::FragQueue(ns) => {
            if let Some(mm) = &mut g.metrics {
                mm.frag_queue.record(ns);
            }
        }
        Op::MsgRtt(ns) => {
            if let Some(mm) = &mut g.metrics {
                mm.msg_rtt.record(ns);
            }
        }
        Op::MsgSize(bytes) => g.msg_size_hist.record(bytes),
        Op::MsgLatency(ns) => g.msg_latency.record(ns),
        Op::AppMessage => g.app_messages += 1,
    }
}

/// The epoch-parallel equivalent of [`nisim_engine::Sim::run_watched`]:
/// identical statuses, identical end state, identical [`Globals`] —
/// byte-for-byte — at any worker count.
pub(crate) fn run_epochs(
    machine: &mut Machine,
    sim: &mut MachineSim,
    horizon: Time,
    max_events: u64,
) -> SimStatus {
    let workers = machine.cfg.workers.max(1) as usize;
    let shared = Shared {
        nodes: machine.nodes.drain(..).map(Mutex::new).collect(),
        cfg: machine.cfg.clone(),
        gen: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        work: RwLock::new(EpochWork::default()),
    };

    let status = std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shared);
        for _ in 1..workers {
            scope.spawn(|| worker_loop(&shared));
        }
        drive(machine, sim, horizon, max_events, &shared, workers)
    });

    machine
        .nodes
        .extend(shared.nodes.into_iter().map(|m| match m.into_inner() {
            Ok(n) => n,
            Err(p) => p.into_inner(),
        }));
    status
}

#[allow(clippy::too_many_lines)]
fn drive(
    machine: &mut Machine,
    sim: &mut MachineSim,
    horizon: Time,
    max_events: u64,
    shared: &Shared,
    workers: usize,
) -> SimStatus {
    let lookahead = shared.cfg.net.wire_latency;
    let window = shared.cfg.watchdog_window;
    let trace_on = machine.g.trace.is_some();
    let metrics_on = machine.g.metrics.is_some();
    let audit_on = machine.g.audit.is_some();
    let nodes_len = shared.nodes.len();
    let mut remaining = max_events;
    let mut last_value = machine.g.progress;
    let mut last_change = sim.now();
    let mut per_node: Vec<Vec<(Time, u64, MachineEvent)>> =
        (0..nodes_len).map(|_| Vec::new()).collect();

    loop {
        let Some((t_next, _)) = sim.peek_next() else {
            return SimStatus::Drained;
        };
        if t_next > horizon {
            sim.clamp_to_horizon(horizon);
            return SimStatus::HorizonReached;
        }
        if remaining == 0 {
            return SimStatus::EventBudgetExhausted;
        }
        let window_end = sat_add(t_next, lookahead).min(sat_add(horizon, Dur::ns(1)));
        // Epochs run only when they provably cannot trip the watchdog
        // (every in-window instant is within the stall window of the
        // last progress, and replay can only move `last_change`
        // forward) and cannot exhaust the event budget.
        let watchdog_safe = window_end.saturating_since(last_change) <= window;
        if remaining < BUDGET_GUARD || !watchdog_safe || window_end <= t_next {
            match serial_step(
                machine,
                sim,
                shared,
                window,
                &mut remaining,
                &mut last_value,
                &mut last_change,
            ) {
                StepOutcome::Stepped => continue,
                StepOutcome::Finished(s) => return s,
            }
        }

        let seeds = sim.pop_before(window_end);
        let n_seeds = seeds.len();
        let active = {
            let mut mark = vec![false; nodes_len];
            let mut count = 0usize;
            for (_, _, ev) in &seeds {
                let lane = ev.node_of();
                if !mark[lane] {
                    mark[lane] = true;
                    count += 1;
                }
            }
            count
        };

        if n_seeds < MIN_PAR_EVENTS || active < 2 {
            // Sparse window: put the seeds back — in their original
            // ascending (time, seq) pop order, which the wheel's bucket
            // invariant requires — and step them serially. Every event
            // fired here stays inside the validated window: each pop
            // consumes one in-window event and any later-window
            // creations stay queued, so the pre-checks above hold for
            // the whole burst.
            sim.restore_entries(seeds);
            for _ in 0..n_seeds {
                match serial_step(
                    machine,
                    sim,
                    shared,
                    window,
                    &mut remaining,
                    &mut last_value,
                    &mut last_change,
                ) {
                    StepOutcome::Stepped => {}
                    StepOutcome::Finished(s) => return s,
                }
            }
            continue;
        }

        // Parallel epoch: partition the window by node, then build lane
        // tasks plus the replay seed keys.
        for (at, seq, ev) in seeds {
            per_node[ev.node_of()].push((at, seq, ev));
        }
        let mut lanes: Vec<LaneTask> = Vec::with_capacity(active);
        let mut heap: BinaryHeap<std::cmp::Reverse<(Time, u64, usize)>> =
            BinaryHeap::with_capacity(n_seeds);
        for (nid, lane) in per_node.iter_mut().enumerate() {
            if lane.is_empty() {
                continue;
            }
            let lane_idx = lanes.len();
            for &(at, seq, _) in lane.iter() {
                heap.push(std::cmp::Reverse((at, seq, lane_idx)));
            }
            lanes.push(LaneTask {
                nid,
                cell: Mutex::new(LaneCell {
                    seeds: std::mem::take(lane),
                    sink: LaneSink::new(nid, window_end, trace_on, metrics_on, audit_on),
                }),
            });
        }
        let n_lanes = lanes.len();

        let work = if workers > 1 {
            {
                let mut w = shared.work.write().unwrap();
                *w = EpochWork {
                    next: AtomicUsize::new(0),
                    done: AtomicUsize::new(0),
                    lanes,
                };
            }
            shared.gen.fetch_add(1, Ordering::Release);
            claim_lanes(shared);
            loop {
                let w = shared.work.read().unwrap();
                if w.done.load(Ordering::Acquire) >= n_lanes {
                    break;
                }
                drop(w);
                std::hint::spin_loop();
            }
            let mut w = shared.work.write().unwrap();
            std::mem::take(&mut *w)
        } else {
            // Single worker: same lane machinery, no pool round-trip.
            for task in &lanes {
                let cell = &mut *task.cell.lock().unwrap();
                let mut node = shared.nodes[task.nid].lock().unwrap();
                run_lane(
                    &shared.cfg,
                    nodes_len,
                    &mut node,
                    &mut cell.sink,
                    &mut cell.seeds,
                );
            }
            EpochWork {
                next: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                lanes,
            }
        };

        // Exact serial replay.
        let mut cells: Vec<LaneCell> = work
            .lanes
            .into_iter()
            .map(|l| match l.cell.into_inner() {
                Ok(c) => c,
                Err(p) => p.into_inner(),
            })
            .collect();
        let mut cursors = vec![(0usize, 0usize); n_lanes];
        // Seed detection for the audit's merge record: every seed's
        // wheel seq predates the replay, every lane-created event gets
        // its seq allocated during it.
        let replay_seq_base = sim.next_seq();
        let mut merge_steps: Vec<MergeStep> = Vec::new();
        while let Some(std::cmp::Reverse((t, seq, lane))) = heap.pop() {
            remaining = remaining.saturating_sub(1);
            if audit_on {
                merge_steps.push(MergeStep {
                    at_ns: t.as_ns(),
                    lane: cells[lane].sink.nid as u32,
                    seed: seq < replay_seq_base,
                });
            }
            sim.replay_advance(t);
            let (fi, oi) = cursors[lane];
            let rec = cells[lane].sink.fired[fi];
            debug_assert_eq!(rec.at, t, "lane replay out of step");
            cursors[lane] = (fi + 1, rec.ops_end as usize);
            for i in oi..rec.ops_end as usize {
                let op = cells[lane].sink.ops[i];
                apply_op(op, lane, shared, &mut machine.g, sim, &mut heap);
            }
            if rec.progress_delta > 0 {
                machine.g.progress += u64::from(rec.progress_delta);
                last_value = machine.g.progress;
                last_change = t;
            } else if t.saturating_since(last_change) >= window {
                // Unreachable given the pre-check, kept for parity with
                // the serial loop's semantics.
                return SimStatus::Stalled;
            }
        }
        debug_assert!(
            cursors
                .iter()
                .zip(&cells)
                .all(|(c, cell)| c.0 == cell.sink.fired.len()),
            "replay did not consume every lane event"
        );
        if let Some(log) = &mut machine.g.audit {
            let mut lanes_audit = Vec::with_capacity(n_lanes);
            for cell in &mut cells {
                if let Some(mut a) = cell.sink.audit.take() {
                    a.seal();
                    log.parallel_events += a.events;
                    lanes_audit.push(*a);
                }
            }
            log.epochs.push(EpochAudit {
                start_ns: t_next.as_ns(),
                end_ns: window_end.as_ns(),
                lanes: lanes_audit,
                merge: merge_steps,
            });
        }
    }
}
