//! Replay-and-verify for real runs' footprint-audit logs.
//!
//! An audited run ([`nisim_core::Machine::run_audited`]) makes the
//! epoch driver record, per parallel epoch, each lane's read/write
//! footprint over shared state, every schedule it issued, its seed
//! events, and the exact merge order the coordinator replayed. This
//! module re-checks those logs after the fact — a deterministic race
//! detector for the PDES:
//!
//! * **window discipline** — every epoch's window is at most one
//!   lookahead wide, holds at least two lanes (sparser windows run
//!   serially), and each lane appears once;
//! * **footprint disjointness** — no shared-state key is touched by two
//!   lanes of one epoch with at least one of them writing;
//! * **lookahead rule** — every schedule landing inside the window
//!   targets the issuing lane's own node;
//! * **seed containment** — every seed's timestamp lies inside the
//!   window;
//! * **merge shape** — the merge ordering is nondecreasing in time,
//!   starts at the window start, and fires exactly the events the lanes
//!   report (every seed arrives as a seed step).
//!
//! [`audit_grid`] runs the full 12-NI × 3-app differential grid audited
//! and applies [`check_log`] to every run — the CI gate.

use std::collections::BTreeSet;

use nisim_core::{Machine, MachineConfig, NiKind};
use nisim_engine::audit::AuditLog;
use nisim_engine::SimStatus;
use nisim_net::BufferCount;
use nisim_workloads::apps::{factory, AppParams, MacroApp};

/// Verifies one run's audit log; returns one description per violation
/// (empty = the run is race-free under the footprint model).
pub fn check_log(label: &str, log: &AuditLog) -> Vec<String> {
    let mut v = Vec::new();
    for (ei, ep) in log.epochs.iter().enumerate() {
        let ctx = format!("{label}: epoch {ei} [{}, {})", ep.start_ns, ep.end_ns);
        if ep.end_ns <= ep.start_ns {
            v.push(format!("{ctx}: empty or inverted window"));
            continue;
        }
        if ep.end_ns - ep.start_ns > log.lookahead_ns {
            v.push(format!(
                "{ctx}: window wider than the {} ns lookahead",
                log.lookahead_ns
            ));
        }
        if ep.lanes.len() < 2 {
            v.push(format!(
                "{ctx}: {} lane(s); sub-2-lane windows must run serially",
                ep.lanes.len()
            ));
        }
        let mut nodes = BTreeSet::new();
        for lane in &ep.lanes {
            if !nodes.insert(lane.node) {
                v.push(format!("{ctx}: node {} appears in two lanes", lane.node));
            }
        }
        // Cross-lane footprint disjointness: a conflict is one key in
        // two lanes with at least one side writing.
        for i in 0..ep.lanes.len() {
            for j in i + 1..ep.lanes.len() {
                let (a, b) = (&ep.lanes[i], &ep.lanes[j]);
                for k in &a.writes {
                    if b.writes.binary_search(k).is_ok() || b.reads.binary_search(k).is_ok() {
                        v.push(format!(
                            "{ctx}: lanes {} and {} conflict on {k} (write)",
                            a.node, b.node
                        ));
                    }
                }
                for k in &a.reads {
                    if b.writes.binary_search(k).is_ok() {
                        v.push(format!(
                            "{ctx}: lanes {} and {} conflict on {k} (read vs write)",
                            a.node, b.node
                        ));
                    }
                }
            }
        }
        // The lookahead rule, re-verified from the log.
        for lane in &ep.lanes {
            for &(at, target) in &lane.scheds {
                if at < ep.end_ns && target != lane.node {
                    v.push(format!(
                        "{ctx}: lane {} scheduled node {target} at {at} inside the window",
                        lane.node
                    ));
                }
            }
            for &(at, _) in &lane.seeds {
                if at < ep.start_ns || at >= ep.end_ns {
                    v.push(format!(
                        "{ctx}: lane {} holds an out-of-window seed at {at}",
                        lane.node
                    ));
                }
            }
        }
        // Merge shape.
        let fired: u64 = ep.lanes.iter().map(|l| l.events).sum();
        if ep.merge.len() as u64 != fired {
            v.push(format!(
                "{ctx}: merge replayed {} events, lanes fired {fired}",
                ep.merge.len()
            ));
        }
        let seeds: u64 = ep.lanes.iter().map(|l| l.seeds.len() as u64).sum();
        let seed_steps = ep.merge.iter().filter(|s| s.seed).count() as u64;
        if seed_steps != seeds {
            v.push(format!(
                "{ctx}: merge saw {seed_steps} seed steps, lanes were handed {seeds} seeds"
            ));
        }
        if let Some(first) = ep.merge.first() {
            if first.at_ns != ep.start_ns {
                v.push(format!(
                    "{ctx}: merge starts at {}, window starts at {}",
                    first.at_ns, ep.start_ns
                ));
            }
        }
        for pair in ep.merge.windows(2) {
            if pair[1].at_ns < pair[0].at_ns {
                v.push(format!(
                    "{ctx}: merge time went backwards ({} after {})",
                    pair[1].at_ns, pair[0].at_ns
                ));
                break;
            }
        }
        for step in &ep.merge {
            if step.at_ns < ep.start_ns || step.at_ns >= ep.end_ns {
                v.push(format!(
                    "{ctx}: merge step at {} outside the window",
                    step.at_ns
                ));
                break;
            }
        }
    }
    v
}

/// Summary of one grid audit.
#[derive(Clone, Debug, Default)]
pub struct AuditOutcome {
    /// Grid points run.
    pub runs: u64,
    /// Parallel epochs audited across all runs.
    pub epochs: u64,
    /// Events fired inside parallel epochs.
    pub parallel_events: u64,
    /// Events fired by the serial fallback.
    pub serial_events: u64,
    /// Violations across all runs (empty = clean).
    pub violations: Vec<String>,
}

impl AuditOutcome {
    /// True when every run's log verified clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The twelve NI designs of the differential grid (Table 2 plus the
/// single-cycle and throttled variants and the three modern designs).
const NIS: [NiKind; 12] = [
    NiKind::Cm5,
    NiKind::Cm5SingleCycle,
    NiKind::Udma,
    NiKind::Ap3000,
    NiKind::StartJr,
    NiKind::MemoryChannel,
    NiKind::Cni512Q,
    NiKind::Cni32Qm,
    NiKind::Cni32QmThrottle,
    NiKind::RdmaQp,
    NiKind::Urma,
    NiKind::Sgdma,
];

const APPS: [MacroApp; 3] = [MacroApp::Em3d, MacroApp::Moldyn, MacroApp::Spsolve];

/// Runs the 12-NI × 3-app grid audited at the given worker count and
/// verifies every log. Small app parameters keep the grid fast; every
/// run still crosses hundreds of parallel epochs.
pub fn audit_grid(workers: u32) -> AuditOutcome {
    let mut out = AuditOutcome::default();
    let params = AppParams {
        iterations: 2,
        intensity: 2,
        compute: nisim_engine::Dur::us(2),
    };
    for ni in NIS {
        for app in APPS {
            let cfg = MachineConfig::with_ni(ni)
                .nodes(8)
                .flow_buffers(BufferCount::Finite(8))
                .workers(workers);
            let (report, log) = Machine::run_audited(cfg, factory(app, 8, 0x5eed, params));
            out.runs += 1;
            out.epochs += log.epochs.len() as u64;
            out.parallel_events += log.parallel_events;
            out.serial_events += log.serial_events;
            let label = format!("{app:?}/{ni:?}");
            if report.status != SimStatus::Drained {
                out.violations.push(format!(
                    "{label}: run ended {:?}, not Drained",
                    report.status
                ));
            }
            if log.epochs.is_empty() {
                out.violations
                    .push(format!("{label}: no parallel epochs — nothing was audited"));
            }
            out.violations.extend(check_log(&label, &log));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_engine::audit::{EpochAudit, FootprintKey, LaneAudit, MergeStep};

    fn clean_log() -> AuditLog {
        let mut lane0 = LaneAudit::new(0);
        lane0.events = 1;
        lane0.seeds = vec![(100, 1)];
        lane0.writes.push(FootprintKey::egress(10));
        lane0.scheds.push((120, 0));
        lane0.seal();
        let mut lane1 = LaneAudit::new(1);
        lane1.events = 1;
        lane1.seeds = vec![(110, 2)];
        lane1.reads.push(FootprintKey::egress(77));
        lane1.scheds.push((150, 0));
        lane1.seal();
        AuditLog {
            lookahead_ns: 40,
            serial_events: 0,
            parallel_events: 2,
            epochs: vec![EpochAudit {
                start_ns: 100,
                end_ns: 140,
                lanes: vec![lane0, lane1],
                merge: vec![
                    MergeStep {
                        at_ns: 100,
                        lane: 0,
                        seed: true,
                    },
                    MergeStep {
                        at_ns: 110,
                        lane: 1,
                        seed: true,
                    },
                ],
            }],
        }
    }

    #[test]
    fn clean_log_passes() {
        assert!(check_log("t", &clean_log()).is_empty());
    }

    #[test]
    fn cross_lane_write_is_flagged() {
        let mut log = clean_log();
        // Lane 1 writes the cell lane 0 wrote: a race.
        log.epochs[0].lanes[1].writes.push(FootprintKey::egress(10));
        log.epochs[0].lanes[1].seal();
        let v = check_log("t", &log);
        assert!(v.iter().any(|s| s.contains("conflict on egress:10")));
    }

    #[test]
    fn write_vs_read_is_flagged_in_either_order() {
        let mut log = clean_log();
        // Lane 0 reads what lane 1 reads is fine; writing it is not.
        log.epochs[0].lanes[0].writes.push(FootprintKey::egress(77));
        log.epochs[0].lanes[0].seal();
        let v = check_log("t", &log);
        assert!(v.iter().any(|s| s.contains("conflict on egress:77")));
    }

    #[test]
    fn shared_reads_are_not_conflicts() {
        let mut log = clean_log();
        log.epochs[0].lanes[0].reads.push(FootprintKey::egress(77));
        log.epochs[0].lanes[0].seal();
        assert!(check_log("t", &log).is_empty());
    }

    #[test]
    fn in_window_remote_sched_is_flagged() {
        let mut log = clean_log();
        log.epochs[0].lanes[0].scheds.push((130, 1));
        let v = check_log("t", &log);
        assert!(v.iter().any(|s| s.contains("inside the window")));
    }

    #[test]
    fn wide_window_and_single_lane_are_flagged() {
        let mut log = clean_log();
        log.epochs[0].end_ns = 180;
        log.epochs[0].lanes.pop();
        let v = check_log("t", &log);
        assert!(v.iter().any(|s| s.contains("wider than")));
        assert!(v.iter().any(|s| s.contains("lane(s)")));
    }

    #[test]
    fn merge_event_count_mismatch_is_flagged() {
        let mut log = clean_log();
        log.epochs[0].merge.pop();
        let v = check_log("t", &log);
        assert!(v.iter().any(|s| s.contains("merge replayed")));
    }
}
