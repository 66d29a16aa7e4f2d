//! Bounded model checking of the epoch-merge algorithm.
//!
//! The conservative epoch driver (`nisim-core`'s `epoch` module) rests
//! on three claims:
//!
//! 1. **Exact merge** — partitioning a window's events by node into
//!    lanes, running the lanes independently, and replaying the op logs
//!    through a `(time, seq, lane)` heap reconstructs the unique serial
//!    `(time, seq)` firing order, with replay-time seq allocation
//!    reproducing the wheel's own numbering.
//! 2. **Lookahead safety** — no event fired inside a window `[T, T+L)`
//!    can schedule onto a *remote* node before `T + L`, because the
//!    wire latency is `L`. Anything else would let lanes race.
//! 3. **Snapshot bisimulation** — cutting a run mid-stream and resuming
//!    with the epoch machinery reaches the same final state as the
//!    uninterrupted run (the checkpoint/restore chaos suite's
//!    foundation).
//!
//! This module checks all three on a small abstract model of the
//! algorithm itself: 2–3 nodes, 1–2 seed events per lane, seed times at
//! the window start, one tick before the lookahead edge, and exactly at
//! the edge, with behaviors that bump node state, schedule same-instant
//! children (seq ties), schedule at the edge, or schedule onto the next
//! node a full wire latency away. Every combination of seed offset and
//! behavior is enumerated exhaustively; for each configuration the
//! serial reference order, the epoch-merge order (under both lane
//! execution orders), per-window footprint disjointness, and every
//! mid-run cut are verified. A 39 ns latency mutant
//! ([`EpochChecker::with_lookahead_mutant`]) and an
//! overlapping-footprint mutant ([`EpochChecker::with_footprint_mutant`])
//! prove the checker actually detects violations (`selftest`).
//!
//! The merge orders the abstract model visits are exported as a
//! transition alphabet over [`nisim_engine::audit::MergeStep`] pairs;
//! the `epoch_audit_props` integration test checks a *real* 2-node run
//! only exercises merge situations the abstract model has covered.

use std::collections::BTreeSet;

use nisim_engine::audit::{merge_transitions, FootprintKey, MergeStep};

/// The engine's belief in the lookahead: epoch windows are
/// `[T, T + 40)`, the paper's constant wire latency.
const WINDOW: u64 = 40;

/// Cap on collected violation strings (the mutants fail thousands of
/// configurations; the count is tracked exactly, the examples bounded).
const MAX_VIOLATIONS: usize = 200;

/// What a seed event does when it fires (children always `Bump`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Behavior {
    /// Touch own node state only.
    Bump,
    /// Schedule a child at the same instant on the same node — forces a
    /// same-instant `(time, seq)` tie inside one lane.
    SchedSame,
    /// Schedule a child 39 ns out on the same node — lands in-window
    /// from the window start, escapes from anywhere later.
    SchedEdge,
    /// Schedule a child on the next node a full wire latency out — the
    /// only legal cross-node schedule. Under the 39 ns mutant the
    /// latency undershoots the window and must be flagged.
    SchedRemote,
}

const BEHAVIORS: [Behavior; 4] = [
    Behavior::Bump,
    Behavior::SchedSame,
    Behavior::SchedEdge,
    Behavior::SchedRemote,
];

/// Seed times relative to the run start: window start, one tick before
/// the lookahead edge, exactly at the edge (the next window's start).
const OFFSETS: [u64; 3] = [0, 39, 40];

/// One pending event of the abstract model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    at: u64,
    seq: u64,
    node: usize,
    behavior: Behavior,
}

/// One fired event, the unit both executors are compared on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fire {
    at: u64,
    seq: u64,
    node: usize,
}

/// Abstract machine state: one order-sensitive accumulator per node
/// (`h = h * 1000003 + at + 1`), so firing a node's events out of order
/// changes the value even though every event "just bumps".
#[derive(Clone, Debug, PartialEq, Eq)]
struct State {
    nodes: Vec<u64>,
    pending: Vec<Pending>,
    next_seq: u64,
}

impl State {
    fn initial(nodes: usize, seeds: &[(usize, u64, Behavior)]) -> State {
        let mut s = State {
            nodes: vec![0; nodes],
            pending: Vec::new(),
            next_seq: 0,
        };
        for &(node, at, behavior) in seeds {
            let seq = s.next_seq;
            s.next_seq += 1;
            s.pending.push(Pending {
                at,
                seq,
                node,
                behavior,
            });
        }
        s
    }

    fn touch(&mut self, node: usize, at: u64) {
        self.nodes[node] = self.nodes[node]
            .wrapping_mul(1_000_003)
            .wrapping_add(at + 1);
    }

    /// The child an event's behavior schedules, if any.
    fn child(
        behavior: Behavior,
        at: u64,
        node: usize,
        nodes: usize,
        latency: u64,
    ) -> Option<(u64, usize)> {
        match behavior {
            Behavior::Bump => None,
            Behavior::SchedSame => Some((at, node)),
            Behavior::SchedEdge => Some((at + 39, node)),
            Behavior::SchedRemote => Some((at + latency, (node + 1) % nodes)),
        }
    }

    /// Pops the strict `(at, seq)` minimum.
    fn pop_min(&mut self) -> Option<Pending> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.at, p.seq))
            .map(|(i, _)| i)?;
        Some(self.pending.swap_remove(i))
    }
}

/// Runs the serial reference executor for up to `budget` events,
/// recording the firing order. `u64::MAX` runs to quiescence.
fn run_serial(state: &mut State, latency: u64, budget: u64, order: &mut Vec<Fire>) {
    let nodes = state.nodes.len();
    let mut fired = 0u64;
    while fired < budget {
        let Some(p) = state.pop_min() else {
            return;
        };
        fired += 1;
        state.touch(p.node, p.at);
        order.push(Fire {
            at: p.at,
            seq: p.seq,
            node: p.node,
        });
        if let Some((at, node)) = State::child(p.behavior, p.at, p.node, nodes, latency) {
            let seq = state.next_seq;
            state.next_seq += 1;
            state.pending.push(Pending {
                at,
                seq,
                node,
                behavior: Behavior::Bump,
            });
        }
    }
}

/// One lane's recorded effect, mirroring the driver's `Op::Local` /
/// `Op::Sched` split.
#[derive(Clone, Copy, Debug)]
enum LaneOp {
    /// An in-window same-node schedule; the event lives in the lane's
    /// heap, the replay allocates its seq.
    Local { at: u64 },
    /// An escaping schedule (later window, any node).
    Sched { at: u64, node: usize },
}

/// One lane's log after running its window slice.
struct LaneLog {
    node: usize,
    /// `(at, ops_end)` per fired event, in lane firing order.
    fired: Vec<(u64, usize)>,
    ops: Vec<LaneOp>,
    writes: Vec<FootprintKey>,
}

/// Everything one epoch-merge execution produced.
pub(crate) struct EpochRunOutcome {
    order: Vec<Fire>,
    transitions: BTreeSet<u8>,
    violations: Vec<String>,
    epochs: u64,
}

/// Runs the epoch-merge executor to quiescence, mirroring the real
/// driver: window partition, lane execution (in forward or reversed
/// lane order), exact `(time, seq, lane)` replay with replay-time seq
/// allocation.
fn run_epochs(
    state: &mut State,
    latency: u64,
    reverse_lanes: bool,
    footprint_mutant: bool,
) -> EpochRunOutcome {
    let nodes_len = state.nodes.len();
    let mut out = EpochRunOutcome {
        order: Vec::new(),
        transitions: BTreeSet::new(),
        violations: Vec::new(),
        epochs: 0,
    };
    loop {
        let Some(t_next) = state.pending.iter().map(|p| p.at).min() else {
            return out;
        };
        let window_end = t_next + WINDOW;
        out.epochs += 1;

        // Window partition: pop every in-window event, in (at, seq)
        // order, and split by node into lanes (ascending node order,
        // like the driver builds them).
        let mut seeds: Vec<Pending> = Vec::new();
        let mut rest = Vec::new();
        for p in state.pending.drain(..) {
            if p.at < window_end {
                seeds.push(p);
            } else {
                rest.push(p);
            }
        }
        state.pending = rest;
        seeds.sort_by_key(|p| (p.at, p.seq));
        let mut lanes: Vec<(usize, Vec<Pending>)> = Vec::new();
        for nid in 0..nodes_len {
            let lane: Vec<Pending> = seeds.iter().filter(|p| p.node == nid).copied().collect();
            if !lane.is_empty() {
                lanes.push((nid, lane));
            }
        }

        // The replay heap starts from the seed keys, exactly like the
        // driver; `lane_slot` indexes `lanes`.
        let mut heap: BTreeSet<(u64, u64, usize)> = BTreeSet::new();
        for (slot, (_, lane)) in lanes.iter().enumerate() {
            for p in lane {
                heap.insert((p.at, p.seq, slot));
            }
        }

        // Lane phase: each lane fires its slice against its own node
        // state, recording global effects as ops. Execution order over
        // lanes must not matter (disjoint footprints); the checker runs
        // both orders and compares.
        let mut logs: Vec<Option<LaneLog>> = (0..lanes.len()).map(|_| None).collect();
        let lane_order: Vec<usize> = if reverse_lanes {
            (0..lanes.len()).rev().collect()
        } else {
            (0..lanes.len()).collect()
        };
        for slot in lane_order {
            let (nid, lane_seeds) = &lanes[slot];
            let nid = *nid;
            let mut log = LaneLog {
                node: nid,
                fired: Vec::new(),
                ops: Vec::new(),
                writes: vec![FootprintKey::node(nid as u64)],
            };
            if footprint_mutant {
                // The seeded bug: every lane also writes one shared
                // cell — the disjointness check must catch it.
                log.writes.push(FootprintKey::egress(777));
            }
            // Lane heap keyed (at, gen, idx): seeds gen 0 with their
            // wheel seq, creations gen 1 with an insertion counter.
            let mut lheap: BTreeSet<(u64, u8, u64, usize)> = BTreeSet::new();
            let mut created = 0u64;
            for p in lane_seeds {
                lheap.insert((p.at, 0, p.seq, behavior_code(p.behavior)));
            }
            while let Some(&(at, gen, idx, bcode)) = lheap.iter().next() {
                lheap.remove(&(at, gen, idx, bcode));
                let behavior = behavior_from_code(bcode);
                state.touch(nid, at);
                if let Some((cat, cnode)) = State::child(behavior, at, nid, nodes_len, latency) {
                    if cat >= window_end {
                        log.ops.push(LaneOp::Sched {
                            at: cat,
                            node: cnode,
                        });
                    } else if cnode != nid {
                        // The conservative-lookahead invariant the real
                        // driver asserts: an in-window schedule must
                        // stay on the lane's own node.
                        out.violations.push(format!(
                            "lookahead violated: node {nid} scheduled node {cnode} at \
                             {cat} inside window [{t_next}, {window_end})"
                        ));
                        // Treat as escaping so the run still terminates.
                        log.ops.push(LaneOp::Sched {
                            at: cat,
                            node: cnode,
                        });
                    } else {
                        log.ops.push(LaneOp::Local { at: cat });
                        lheap.insert((cat, 1, created, behavior_code(Behavior::Bump)));
                        created += 1;
                    }
                }
                log.fired.push((at, log.ops.len()));
            }
            logs[slot] = Some(log);
        }
        let logs: Vec<LaneLog> = logs.into_iter().map(|l| l.expect("lane ran")).collect();

        // Footprint disjointness: cross-lane write sets must not
        // intersect (every key here is a write; reads would join the
        // check the same way).
        for i in 0..logs.len() {
            for j in i + 1..logs.len() {
                for k in &logs[i].writes {
                    if logs[j].writes.contains(k) {
                        out.violations.push(format!(
                            "cross-lane footprint overlap in window [{t_next}, {window_end}): \
                             lanes {} and {} both touch {k}",
                            logs[i].node, logs[j].node
                        ));
                    }
                }
            }
        }

        // Exact replay: (time, seq, lane) heap, replay-time seq
        // allocation for lane creations, escaping schedules into the
        // global pending set.
        let replay_base = state.next_seq;
        let mut cursors = vec![(0usize, 0usize); logs.len()];
        let mut merge: Vec<MergeStep> = Vec::new();
        while let Some(&(at, seq, slot)) = heap.iter().next() {
            heap.remove(&(at, seq, slot));
            merge.push(MergeStep {
                at_ns: at,
                lane: logs[slot].node as u32,
                seed: seq < replay_base,
            });
            out.order.push(Fire {
                at,
                seq,
                node: logs[slot].node,
            });
            let (fi, oi) = cursors[slot];
            let (rec_at, ops_end) = logs[slot].fired[fi];
            if rec_at != at {
                out.violations.push(format!(
                    "lane replay out of step: lane {} fired at {rec_at}, replay expected {at}",
                    logs[slot].node
                ));
            }
            cursors[slot] = (fi + 1, ops_end);
            for op in &logs[slot].ops[oi..ops_end] {
                match *op {
                    LaneOp::Local { at } => {
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        heap.insert((at, seq, slot));
                    }
                    LaneOp::Sched { at, node } => {
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        state.pending.push(Pending {
                            at,
                            seq,
                            node,
                            behavior: Behavior::Bump,
                        });
                    }
                }
            }
        }
        for (c, log) in cursors.iter().zip(&logs) {
            if c.0 != log.fired.len() {
                out.violations
                    .push("replay did not consume every lane event".to_string());
            }
        }
        out.transitions.extend(merge_transitions(&merge));
    }
}

fn behavior_code(b: Behavior) -> usize {
    match b {
        Behavior::Bump => 0,
        Behavior::SchedSame => 1,
        Behavior::SchedEdge => 2,
        Behavior::SchedRemote => 3,
    }
}

fn behavior_from_code(code: usize) -> Behavior {
    BEHAVIORS[code]
}

/// What one full check explored.
#[derive(Clone, Debug)]
pub struct EpochCheckOutcome {
    /// Seed configurations exhaustively enumerated.
    pub configs: u64,
    /// Events fired across all serial reference runs.
    pub events: u64,
    /// Mid-run cuts verified for snapshot bisimulation.
    pub cuts: u64,
    /// Total violations found (zero on the real algorithm).
    pub violation_count: u64,
    /// The first `MAX_VIOLATIONS` violation descriptions.
    pub violations: Vec<String>,
    /// The merge-transition alphabet the model visited (see
    /// [`nisim_engine::audit::merge_transitions`]).
    pub transitions: BTreeSet<u8>,
}

impl EpochCheckOutcome {
    fn violation(&mut self, v: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    fn absorb(&mut self, run: EpochRunOutcome) {
        self.transitions.extend(run.transitions);
        for v in run.violations {
            self.violation(v);
        }
    }
}

/// The bounded epoch-merge model checker.
pub struct EpochChecker {
    /// The modelled wire latency (what `SchedRemote` trusts). 40 in the
    /// real algorithm; 39 under the seeded lookahead mutant.
    latency: u64,
    /// Seeded bug: lanes share a footprint cell.
    footprint_mutant: bool,
}

impl Default for EpochChecker {
    fn default() -> Self {
        EpochChecker::new()
    }
}

impl EpochChecker {
    /// The real algorithm: latency equals the window, footprints
    /// disjoint.
    pub fn new() -> EpochChecker {
        EpochChecker {
            latency: WINDOW,
            footprint_mutant: false,
        }
    }

    /// Seeded mutant: the wire undershoots the engine's lookahead by
    /// one tick (39 ns), so a remote schedule from a window's start
    /// lands *inside* the window — the checker must flag it.
    pub fn with_lookahead_mutant() -> EpochChecker {
        EpochChecker {
            latency: WINDOW - 1,
            footprint_mutant: false,
        }
    }

    /// Seeded mutant: every lane writes one shared footprint cell — the
    /// disjointness check must flag it.
    pub fn with_footprint_mutant() -> EpochChecker {
        EpochChecker {
            latency: WINDOW,
            footprint_mutant: true,
        }
    }

    /// Exhaustively checks every seed configuration of the two scenario
    /// families (2 nodes × 2 events/lane, 3 nodes × 1 event/lane).
    pub fn check(&self) -> EpochCheckOutcome {
        let mut out = EpochCheckOutcome {
            configs: 0,
            events: 0,
            cuts: 0,
            violation_count: 0,
            violations: Vec::new(),
            transitions: BTreeSet::new(),
        };
        // 2 nodes, 2 seeds per lane: every (offset, behavior) choice
        // for each of the 4 seeds.
        let choices: Vec<(u64, Behavior)> = OFFSETS
            .iter()
            .flat_map(|&o| BEHAVIORS.iter().map(move |&b| (o, b)))
            .collect();
        for &a in &choices {
            for &b in &choices {
                for &c in &choices {
                    for &d in &choices {
                        let seeds = [
                            (0usize, a.0, a.1),
                            (0, b.0, b.1),
                            (1, c.0, c.1),
                            (1, d.0, d.1),
                        ];
                        self.check_config(2, &seeds, &mut out);
                    }
                }
            }
        }
        // 3 nodes, 1 seed per lane: remote schedules chain around the
        // ring.
        for &a in &choices {
            for &b in &choices {
                for &c in &choices {
                    let seeds = [(0usize, a.0, a.1), (1, b.0, b.1), (2, c.0, c.1)];
                    self.check_config(3, &seeds, &mut out);
                }
            }
        }
        out
    }

    /// Checks one seed configuration: serial reference vs epoch merge
    /// (both lane orders) vs every mid-run cut.
    fn check_config(
        &self,
        nodes: usize,
        seeds: &[(usize, u64, Behavior)],
        out: &mut EpochCheckOutcome,
    ) {
        out.configs += 1;
        let label = || {
            let s: Vec<String> = seeds
                .iter()
                .map(|(n, o, b)| format!("n{n}@{o}:{b:?}"))
                .collect();
            format!("[{}]", s.join(" "))
        };

        // Serial reference.
        let mut serial = State::initial(nodes, seeds);
        let mut serial_order = Vec::new();
        run_serial(&mut serial, self.latency, u64::MAX, &mut serial_order);
        out.events += serial_order.len() as u64;

        // Epoch merge, both lane execution orders.
        for reverse in [false, true] {
            let mut st = State::initial(nodes, seeds);
            let run = run_epochs(&mut st, self.latency, reverse, self.footprint_mutant);
            if run.order != serial_order {
                out.violation(format!(
                    "merge order diverged from serial (reverse_lanes={reverse}) for {}",
                    label()
                ));
            }
            if st.nodes != serial.nodes || st.next_seq != serial.next_seq {
                out.violation(format!(
                    "final state diverged from serial (reverse_lanes={reverse}) for {}",
                    label()
                ));
            }
            out.absorb(run);
        }

        // Snapshot bisimulation: cut the serial run after k events,
        // resume with the epoch machinery, compare against the
        // uninterrupted serial end state.
        for k in 0..serial_order.len() as u64 {
            out.cuts += 1;
            let mut st = State::initial(nodes, seeds);
            let mut prefix = Vec::new();
            run_serial(&mut st, self.latency, k, &mut prefix);
            let resumed = run_epochs(&mut st, self.latency, false, self.footprint_mutant);
            let mut full: Vec<Fire> = prefix;
            full.extend(resumed.order.iter().copied());
            if full != serial_order || st.nodes != serial.nodes {
                out.violation(format!(
                    "snapshot cut after {k} events failed to commute with the merge for {}",
                    label()
                ));
            }
            out.absorb(resumed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spot check: the exhaustive pass holds on a trimmed scenario (the
    /// full sweep runs in `nisim-analysis epoch-check`; this keeps
    /// `cargo test` fast in debug builds).
    #[test]
    fn sample_configs_merge_exactly() {
        let checker = EpochChecker::new();
        let mut out = EpochCheckOutcome {
            configs: 0,
            events: 0,
            cuts: 0,
            violation_count: 0,
            violations: Vec::new(),
            transitions: BTreeSet::new(),
        };
        for &o in &OFFSETS {
            for &b in &BEHAVIORS {
                let seeds = [
                    (0usize, 0, Behavior::SchedSame),
                    (0, o, b),
                    (1, 0, Behavior::SchedRemote),
                    (1, o, b),
                ];
                checker.check_config(2, &seeds, &mut out);
            }
        }
        assert_eq!(out.violation_count, 0, "{:?}", out.violations);
        assert!(out.configs == 12 && out.events > 0 && out.cuts > 0);
        // Same-instant ties and cross-lane interleavings both arose.
        assert!(out.transitions.len() >= 3);
    }

    #[test]
    fn lookahead_mutant_is_caught() {
        let checker = EpochChecker::with_lookahead_mutant();
        let mut out = EpochCheckOutcome {
            configs: 0,
            events: 0,
            cuts: 0,
            violation_count: 0,
            violations: Vec::new(),
            transitions: BTreeSet::new(),
        };
        // A remote schedule from the window start undershoots the edge.
        let seeds = [(0usize, 0, Behavior::SchedRemote), (1, 0, Behavior::Bump)];
        checker.check_config(2, &seeds, &mut out);
        assert!(out.violation_count > 0);
        assert!(out.violations.iter().any(|v| v.contains("lookahead")));
    }

    #[test]
    fn footprint_mutant_is_caught() {
        let checker = EpochChecker::with_footprint_mutant();
        let mut out = EpochCheckOutcome {
            configs: 0,
            events: 0,
            cuts: 0,
            violation_count: 0,
            violations: Vec::new(),
            transitions: BTreeSet::new(),
        };
        let seeds = [(0usize, 0, Behavior::Bump), (1, 0, Behavior::Bump)];
        checker.check_config(2, &seeds, &mut out);
        assert!(out.violation_count > 0);
        assert!(out
            .violations
            .iter()
            .any(|v| v.contains("footprint overlap")));
    }

    #[test]
    fn serial_reference_orders_by_time_then_seq() {
        let mut st = State::initial(2, &[(1, 5, Behavior::Bump), (0, 5, Behavior::Bump)]);
        let mut order = Vec::new();
        run_serial(&mut st, WINDOW, u64::MAX, &mut order);
        // Same instant: the earlier-scheduled seed (lower seq) fires
        // first, regardless of node.
        assert_eq!(order[0].node, 1);
        assert_eq!(order[1].node, 0);
    }
}
