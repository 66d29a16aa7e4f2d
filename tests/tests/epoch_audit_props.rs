//! Property tests for the footprint auditor and the epoch-race checker
//! against *real* parallel runs.
//!
//! The `nisim-analysis` crate proves the epoch-merge algorithm correct
//! on an abstract model (`epoch_check`) and verifies real runs' audit
//! logs after the fact (`audit::check_log`). These properties close the
//! loop between the two: LCG seam storms — schedules whose delays land
//! exactly at the window seams T, T+39, T+40 of the 40 ns lookahead —
//! must produce audit logs the checker passes at every worker count;
//! injected races must fail it; the merge-transition alphabet the real
//! runs exercise must be a subset of (and substantially overlap) the
//! alphabet the exhaustive abstract checker explored; and turning the
//! instrumentation on must not perturb the simulation at all.

use nisim_analysis::audit::check_log;
use nisim_analysis::epoch_check::EpochChecker;
use nisim_core::process::{Action, AppMessage, HandlerSpec, Process, SendSpec};
use nisim_core::{snapshot, Machine, MachineConfig, MachineSim, NiKind};
use nisim_engine::audit::{merge_transitions, FootprintKey, TR_SAME_TIME, TR_SEED};
use nisim_engine::json::{u64_from_hex, u64_hex};
use nisim_engine::{Dur, Json, SimStatus, Time};
use nisim_net::{BufferCount, NodeId};

/// Worker counts to exercise; `NISIM_TEST_WORKERS` pins one (the CI
/// matrix runs 1 and 4).
fn worker_counts() -> Vec<u32> {
    match std::env::var("NISIM_TEST_WORKERS") {
        Ok(v) => {
            let n: u32 = v
                .parse()
                .unwrap_or_else(|_| panic!("NISIM_TEST_WORKERS must be a number, got {v:?}"));
            vec![n.max(1)]
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// Deterministic 64-bit LCG (MMIX constants).
#[derive(Clone, Copy)]
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An LCG-driven seam storm: every compute delay is one of {0, 39, 40},
/// so bursts pile up at the epoch seams where the merge has the most to
/// get wrong. Fully snapshotable.
struct SeamStorm {
    id: u32,
    nodes: u32,
    rng: Lcg,
    sends_left: u32,
    replies_left: u32,
    compute_next: bool,
    done: bool,
}

impl SeamStorm {
    fn new(id: u32, nodes: u32, seed: u64) -> SeamStorm {
        SeamStorm {
            id,
            nodes,
            rng: Lcg(seed ^ (u64::from(id) << 32) | 1),
            sends_left: 24,
            replies_left: 12,
            compute_next: true,
            done: false,
        }
    }

    fn peer(&mut self) -> NodeId {
        let other = self.rng.pick(u64::from(self.nodes) - 1) as u32;
        NodeId(if other >= self.id { other + 1 } else { other })
    }
}

impl Process for SeamStorm {
    fn next_action(&mut self, _now: Time) -> Action {
        if self.sends_left == 0 {
            self.done = true;
            return Action::Done;
        }
        if self.compute_next {
            self.compute_next = false;
            let d = [0, 39, 40][self.rng.pick(3) as usize];
            if d > 0 {
                return Action::Compute(Dur::ns(d));
            }
        }
        self.compute_next = true;
        self.sends_left -= 1;
        let dst = self.peer();
        let payload = [16, 64, 248, 1024][self.rng.pick(4) as usize];
        Action::Send(SendSpec::new(dst, payload, 5))
    }

    fn on_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        let compute = Dur::ns([0, 39, 40][self.rng.pick(3) as usize]);
        if self.replies_left > 0 && self.rng.pick(3) == 0 {
            self.replies_left -= 1;
            HandlerSpec::reply(compute, SendSpec::new(msg.src, 32, 6))
        } else {
            HandlerSpec::compute(compute)
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn snapshot(&self) -> Option<Json> {
        Some(
            Json::obj()
                .set("rng", u64_hex(self.rng.0))
                .set("sends_left", u64::from(self.sends_left))
                .set("replies_left", u64::from(self.replies_left))
                .set("compute_next", self.compute_next)
                .set("done", self.done),
        )
    }

    fn restore(&mut self, state: &Json) -> bool {
        let (Some(rng), Some(sends), Some(replies)) = (
            state
                .get("rng")
                .and_then(Json::as_str)
                .and_then(u64_from_hex),
            state.get("sends_left").and_then(Json::as_u64),
            state.get("replies_left").and_then(Json::as_u64),
        ) else {
            return false;
        };
        let (Some(Json::Bool(compute_next)), Some(Json::Bool(done))) =
            (state.get("compute_next"), state.get("done"))
        else {
            return false;
        };
        self.rng = Lcg(rng);
        self.sends_left = sends as u32;
        self.replies_left = replies as u32;
        self.compute_next = *compute_next;
        self.done = *done;
        true
    }
}

fn storm_cfg(nodes: u32, workers: u32) -> MachineConfig {
    MachineConfig::with_ni(NiKind::Cm5)
        .nodes(nodes)
        .flow_buffers(BufferCount::Finite(4))
        .workers(workers)
}

fn storm_factory(nodes: u32, seed: u64) -> impl FnMut(NodeId) -> Box<dyn Process> {
    move |id| Box::new(SeamStorm::new(id.0, nodes, seed)) as Box<dyn Process>
}

/// Seam storms — same-instant bursts at T, T+39 and T+40 across six
/// nodes — produce audit logs the checker passes at every worker count,
/// and the logs are not vacuous: parallel epochs actually formed.
#[test]
fn seam_storms_audit_clean_at_every_worker_count() {
    for seed in 0..4u64 {
        for workers in worker_counts() {
            let (report, log) = Machine::run_audited(storm_cfg(6, workers), storm_factory(6, seed));
            assert_eq!(
                report.status,
                SimStatus::Drained,
                "seed {seed} workers {workers}"
            );
            assert!(
                !log.epochs.is_empty(),
                "seed {seed} workers {workers}: no parallel epochs audited"
            );
            let violations = check_log("storm", &log);
            assert!(
                violations.is_empty(),
                "seed {seed} workers {workers}: {violations:?}"
            );
        }
    }
}

/// The auditor is not a rubber stamp: races injected into a real run's
/// log — a cross-lane write to the same cell, an in-window schedule
/// aimed at another node — are reported.
#[test]
fn injected_races_fail_a_real_runs_log() {
    let (_, log) = Machine::run_audited(storm_cfg(6, 4), storm_factory(6, 1));
    let ep = log
        .epochs
        .iter()
        .position(|e| e.lanes.len() >= 2)
        .expect("a multi-lane epoch");

    // A write to a cell another lane already wrote.
    let mut raced = log.clone();
    let key = FootprintKey::egress(0xdead_beef);
    raced.epochs[ep].lanes[0].writes.push(key);
    raced.epochs[ep].lanes[0].seal();
    raced.epochs[ep].lanes[1].writes.push(key);
    raced.epochs[ep].lanes[1].seal();
    assert!(
        check_log("raced", &raced)
            .iter()
            .any(|v| v.contains("conflict")),
        "injected cross-lane write went undetected"
    );

    // An in-window schedule targeting a remote node (lookahead breach).
    let mut breached = log.clone();
    let lane_node = breached.epochs[ep].lanes[0].node;
    let inside = breached.epochs[ep].start_ns;
    breached.epochs[ep].lanes[0]
        .scheds
        .push((inside, lane_node + 1));
    assert!(
        check_log("breached", &breached)
            .iter()
            .any(|v| v.contains("inside the window")),
        "injected lookahead breach went undetected"
    );
}

/// Agreement between the abstract model and the engine: the
/// merge-transition alphabet real seam storms exercise is a subset of
/// the alphabet the exhaustive abstract checker explored, and the
/// overlap is substantial — same-instant ties and seed steps both occur
/// for real, so the abstract model's hard cases are not hypothetical.
/// (Two-node storms stay under the sparse-window guard and run
/// serially, so the alphabet is collected from six-node runs.)
#[test]
fn real_merge_transitions_agree_with_the_abstract_model() {
    let abstract_alphabet = EpochChecker::new().check().transitions;
    let mut real = std::collections::BTreeSet::new();
    for seed in 0..4u64 {
        let (_, log) = Machine::run_audited(storm_cfg(6, 4), storm_factory(6, seed));
        for ep in &log.epochs {
            real.extend(merge_transitions(&ep.merge));
        }
    }
    assert!(
        real.is_subset(&abstract_alphabet),
        "real runs exercised merge transitions the abstract checker never explored: \
         {real:?} vs {abstract_alphabet:?}"
    );
    assert!(
        real.len() >= 3,
        "agreement test is vacuous: real runs exercised only {real:?}"
    );
    assert!(
        real.iter().any(|t| t & TR_SAME_TIME != 0),
        "no same-instant merge tie occurred in any real epoch"
    );
    assert!(
        real.iter().any(|t| t & TR_SEED != 0),
        "no seed step followed another step in any real epoch"
    );
}

/// The instrumentation is observational: the same config with auditing
/// on and off produces byte-identical reports, and the audited event
/// totals account for every event the run fired.
#[test]
fn audit_instrumentation_does_not_perturb_the_run() {
    for workers in worker_counts() {
        let plain = Machine::run(storm_cfg(6, workers), storm_factory(6, 2));
        let (audited, log) = Machine::run_audited(storm_cfg(6, workers), storm_factory(6, 2));
        assert_eq!(
            format!("{plain:?}"),
            format!("{audited:?}"),
            "workers {workers}: auditing perturbed the report"
        );
        let merged: u64 = log.epochs.iter().map(|e| e.merge.len() as u64).sum();
        assert_eq!(
            log.parallel_events, merged,
            "workers {workers}: lane totals disagree with merge steps"
        );
    }
}

/// A checkpoint of an audited run carries its audit log: the restored
/// machine's final log extends the pre-cut log (same epochs, then new
/// ones) and still verifies clean.
#[test]
fn audited_snapshot_preserves_pre_cut_epochs() {
    let nodes = 8;
    // Find a seed whose storm forms at least two parallel epochs, and a
    // cut that provably lands after the first (the early windows of a
    // run are often too sparse to parallelize): mid-window of the
    // median epoch, off any 40 ns multiple.
    let (seed, cut_ns) = (0..16u64)
        .find_map(|seed| {
            let (_, probe) = Machine::run_audited(storm_cfg(nodes, 4), storm_factory(nodes, seed));
            (probe.epochs.len() >= 2)
                .then(|| (seed, probe.epochs[probe.epochs.len() / 2].start_ns + 13))
        })
        .expect("no seed in 0..16 formed two parallel epochs");

    let cfg = storm_cfg(nodes, 4).audit(true);
    let mut m = Machine::new(cfg, storm_factory(nodes, seed));
    let mut sim = MachineSim::new();
    m.start(&mut sim);
    let status = m.run_slice(&mut sim, Time::from_ns(cut_ns), 500_000_000);
    assert_eq!(status, SimStatus::HorizonReached);
    let snap = snapshot::save(&m, &mut sim).expect("snapshot");
    let pre_cut = m.take_audit().expect("audit log");
    assert!(!pre_cut.epochs.is_empty(), "no epochs before the cut");

    let (mut r, mut rsim) = snapshot::restore(
        storm_cfg(nodes, 2).audit(true),
        storm_factory(nodes, seed),
        &snap,
    )
    .expect("restore");
    let status = r.run_slice(&mut rsim, Time::from_ns(10_000_000_000), 500_000_000);
    assert_eq!(status, SimStatus::Drained);
    let full = r.take_audit().expect("audit log after restore");
    // The resumed run re-opens windows at different seams, so it may
    // legitimately parallelize no further window; it must still have
    // made progress on top of the restored log.
    assert!(
        full.serial_events + full.parallel_events > pre_cut.serial_events + pre_cut.parallel_events,
        "resumed run recorded no events past the cut"
    );
    assert!(full.epochs.len() >= pre_cut.epochs.len());
    assert_eq!(
        &full.epochs[..pre_cut.epochs.len()],
        &pre_cut.epochs[..],
        "restore did not preserve the pre-cut epochs"
    );
    assert!(check_log("resumed", &full).is_empty());
}
