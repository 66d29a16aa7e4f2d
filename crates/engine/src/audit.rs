//! Footprint-audit data model for the epoch-parallel driver.
//!
//! The conservative epoch driver (`nisim-core`'s `epoch` module) is
//! only exact because no lane ever touches another lane's state within
//! an epoch. This module holds the *evidence* for that claim: when a
//! run is audited (`MachineConfig::audit`), every parallel epoch
//! records, per lane, the shared-state keys it read and wrote (its
//! *footprint*), the schedules it issued, and the seed events it was
//! handed — plus the exact merge order the coordinator replayed. The
//! `nisim-analysis audit` subcommand replays these logs and asserts
//! cross-lane footprints are disjoint in every epoch: a deterministic
//! race detector for the PDES.
//!
//! The types live in the engine crate (not `core`) so the analysis
//! crate can consume them without depending on the whole machine model,
//! mirroring how `metrics` and `trace` are engine-level observability.
//! Everything here is observational: an audited run fires the exact
//! same event sequence as an unaudited one.

use std::collections::BTreeSet;

use crate::json::Json;

/// Which shared-state namespace a [`FootprintKey`] addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FootprintKind {
    /// A node's private state (hardware, NI, process). Each lane owns
    /// exactly one node, so these keys are disjoint by construction —
    /// recording them keeps the footprint model honest about what a
    /// lane touches.
    NodeState,
    /// A node's egress port (fabric handoff), keyed by node id.
    Egress,
}

impl FootprintKind {
    fn code(self) -> u64 {
        match self {
            FootprintKind::NodeState => 0,
            FootprintKind::Egress => 2,
        }
    }

    fn from_code(code: u64) -> Option<FootprintKind> {
        match code {
            0 => Some(FootprintKind::NodeState),
            2 => Some(FootprintKind::Egress),
            _ => None,
        }
    }
}

impl std::fmt::Display for FootprintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FootprintKind::NodeState => write!(f, "node"),
            FootprintKind::Egress => write!(f, "egress"),
        }
    }
}

/// One shared-state cell in the footprint model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FootprintKey {
    pub kind: FootprintKind,
    pub id: u64,
}

impl FootprintKey {
    /// A node's private state.
    pub fn node(id: u64) -> FootprintKey {
        FootprintKey {
            kind: FootprintKind::NodeState,
            id,
        }
    }

    /// A node's egress port.
    pub fn egress(id: u64) -> FootprintKey {
        FootprintKey {
            kind: FootprintKind::Egress,
            id,
        }
    }

    fn to_json(self) -> Json {
        Json::Arr(vec![Json::from(self.kind.code()), Json::from(self.id)])
    }

    fn from_json(v: &Json) -> Option<FootprintKey> {
        let a = v.as_arr()?;
        if a.len() != 2 {
            return None;
        }
        Some(FootprintKey {
            kind: FootprintKind::from_code(a[0].as_u64()?)?,
            id: a[1].as_u64()?,
        })
    }
}

impl std::fmt::Display for FootprintKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind, self.id)
    }
}

/// What one lane did during one parallel epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaneAudit {
    /// The node this lane owns.
    pub node: u32,
    /// Events the lane fired (seeds plus in-window creations).
    pub events: u64,
    /// The `(time_ns, wheel_seq)` of every seed event handed to the
    /// lane by the window partition.
    pub seeds: Vec<(u64, u64)>,
    /// Shared-state keys the lane read. Sorted and deduplicated by
    /// [`LaneAudit::seal`].
    pub reads: Vec<FootprintKey>,
    /// Shared-state keys the lane wrote. Sorted and deduplicated by
    /// [`LaneAudit::seal`].
    pub writes: Vec<FootprintKey>,
    /// Every `(time_ns, target_node)` schedule the lane issued —
    /// in-window locals and escaping schedules alike, so the auditor
    /// can re-verify the lookahead rule from the log.
    pub scheds: Vec<(u64, u32)>,
}

impl LaneAudit {
    /// A fresh lane record. The lane's own node-state key is
    /// pre-recorded in both footprint sets: running the lane reads and
    /// writes its node unconditionally.
    pub fn new(node: u32) -> LaneAudit {
        LaneAudit {
            node,
            events: 0,
            seeds: Vec::new(),
            reads: vec![FootprintKey::node(u64::from(node))],
            writes: vec![FootprintKey::node(u64::from(node))],
            scheds: Vec::new(),
        }
    }

    /// Sorts and deduplicates the footprint sets (they are recorded
    /// append-only on the hot path).
    pub fn seal(&mut self) {
        self.reads.sort_unstable();
        self.reads.dedup();
        self.writes.sort_unstable();
        self.writes.dedup();
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("node", self.node)
            .set("events", self.events)
            .set(
                "seeds",
                Json::Arr(
                    self.seeds
                        .iter()
                        .map(|&(at, seq)| Json::Arr(vec![Json::from(at), Json::from(seq)]))
                        .collect(),
                ),
            )
            .set(
                "reads",
                Json::Arr(self.reads.iter().map(|k| k.to_json()).collect()),
            )
            .set(
                "writes",
                Json::Arr(self.writes.iter().map(|k| k.to_json()).collect()),
            )
            .set(
                "scheds",
                Json::Arr(
                    self.scheds
                        .iter()
                        .map(|&(at, node)| Json::Arr(vec![Json::from(at), Json::from(node)]))
                        .collect(),
                ),
            )
    }

    fn from_json(v: &Json) -> Option<LaneAudit> {
        let pair_u64 = |e: &Json| -> Option<(u64, u64)> {
            let a = e.as_arr()?;
            if a.len() != 2 {
                return None;
            }
            Some((a[0].as_u64()?, a[1].as_u64()?))
        };
        Some(LaneAudit {
            node: u32::try_from(v.get("node")?.as_u64()?).ok()?,
            events: v.get("events")?.as_u64()?,
            seeds: v
                .get("seeds")?
                .as_arr()?
                .iter()
                .map(pair_u64)
                .collect::<Option<Vec<_>>>()?,
            reads: v
                .get("reads")?
                .as_arr()?
                .iter()
                .map(FootprintKey::from_json)
                .collect::<Option<Vec<_>>>()?,
            writes: v
                .get("writes")?
                .as_arr()?
                .iter()
                .map(FootprintKey::from_json)
                .collect::<Option<Vec<_>>>()?,
            scheds: v
                .get("scheds")?
                .as_arr()?
                .iter()
                .map(|e| {
                    let (at, node) = pair_u64(e)?;
                    Some((at, u32::try_from(node).ok()?))
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// One step of the coordinator's replay merge: which lane supplied the
/// event fired at `at_ns`, and whether it was a window seed or a
/// lane-created (replay-seq'd) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeStep {
    pub at_ns: u64,
    /// The node id of the supplying lane.
    pub lane: u32,
    /// True for seeds (events popped from the wheel into the window
    /// partition), false for events the lane created in-window.
    pub seed: bool,
}

impl MergeStep {
    fn to_json(self) -> Json {
        Json::Arr(vec![
            Json::from(self.at_ns),
            Json::from(self.lane),
            Json::from(u64::from(self.seed)),
        ])
    }

    fn from_json(v: &Json) -> Option<MergeStep> {
        let a = v.as_arr()?;
        if a.len() != 3 {
            return None;
        }
        Some(MergeStep {
            at_ns: a[0].as_u64()?,
            lane: u32::try_from(a[1].as_u64()?).ok()?,
            seed: match a[2].as_u64()? {
                0 => false,
                1 => true,
                _ => return None,
            },
        })
    }
}

/// The audit record of one parallel epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochAudit {
    /// Window start (the epoch's first pending event time).
    pub start_ns: u64,
    /// Window end (exclusive): `start + lookahead`, clamped to the
    /// horizon.
    pub end_ns: u64,
    /// Per-lane records, in ascending node order.
    pub lanes: Vec<LaneAudit>,
    /// The exact order the coordinator merged the lanes back.
    pub merge: Vec<MergeStep>,
}

impl EpochAudit {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("start", self.start_ns)
            .set("end", self.end_ns)
            .set(
                "lanes",
                Json::Arr(self.lanes.iter().map(LaneAudit::to_json).collect()),
            )
            .set(
                "merge",
                Json::Arr(self.merge.iter().map(|s| s.to_json()).collect()),
            )
    }

    fn from_json(v: &Json) -> Option<EpochAudit> {
        Some(EpochAudit {
            start_ns: v.get("start")?.as_u64()?,
            end_ns: v.get("end")?.as_u64()?,
            lanes: v
                .get("lanes")?
                .as_arr()?
                .iter()
                .map(LaneAudit::from_json)
                .collect::<Option<Vec<_>>>()?,
            merge: v
                .get("merge")?
                .as_arr()?
                .iter()
                .map(MergeStep::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// The full audit log of one run: every parallel epoch's footprints and
/// merge order, plus the serial/parallel event split (serial fallback
/// steps have no footprint to audit — one event at a time cannot race).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditLog {
    /// The lookahead the driver ran under (the wire latency), in ns.
    pub lookahead_ns: u64,
    /// Events fired by the serial fallback (budget guard, sparse
    /// windows, watchdog edges).
    pub serial_events: u64,
    /// Events fired inside parallel epochs.
    pub parallel_events: u64,
    /// One record per parallel epoch, in execution order.
    pub epochs: Vec<EpochAudit>,
}

impl AuditLog {
    pub fn new(lookahead_ns: u64) -> AuditLog {
        AuditLog {
            lookahead_ns,
            ..AuditLog::default()
        }
    }

    /// Canonical JSON rendering (snapshot payload).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("lookahead", self.lookahead_ns)
            .set("serial_events", self.serial_events)
            .set("parallel_events", self.parallel_events)
            .set(
                "epochs",
                Json::Arr(self.epochs.iter().map(EpochAudit::to_json).collect()),
            )
    }

    /// Parses a [`AuditLog::to_json`] rendering.
    pub fn from_json(v: &Json) -> Option<AuditLog> {
        Some(AuditLog {
            lookahead_ns: v.get("lookahead")?.as_u64()?,
            serial_events: v.get("serial_events")?.as_u64()?,
            parallel_events: v.get("parallel_events")?.as_u64()?,
            epochs: v
                .get("epochs")?
                .as_arr()?
                .iter()
                .map(EpochAudit::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Transition-alphabet bit: this step fires at the same instant as the
/// previous one (a same-time seq tie the merge had to break).
pub const TR_SAME_TIME: u8 = 1;
/// Transition-alphabet bit: this step comes from the same lane as the
/// previous one.
pub const TR_SAME_LANE: u8 = 2;
/// Transition-alphabet bit: this step is a window seed (as opposed to a
/// lane-created, replay-seq'd event).
pub const TR_SEED: u8 = 4;

/// The merge-order transition alphabet of one epoch: for every
/// consecutive pair of merge steps, a 3-bit symbol
/// ([`TR_SAME_TIME`] | [`TR_SAME_LANE`] | [`TR_SEED`] of the later
/// step). The abstract epoch model checker and the real driver's audit
/// logs are compared on this alphabet — the same merge situations must
/// arise in both.
pub fn merge_transitions(merge: &[MergeStep]) -> BTreeSet<u8> {
    let mut out = BTreeSet::new();
    for pair in merge.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let mut sym = 0u8;
        if b.at_ns == a.at_ns {
            sym |= TR_SAME_TIME;
        }
        if b.lane == a.lane {
            sym |= TR_SAME_LANE;
        }
        if b.seed {
            sym |= TR_SEED;
        }
        out.insert(sym);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> AuditLog {
        let mut lane0 = LaneAudit::new(0);
        lane0.events = 2;
        lane0.seeds = vec![(100, 7), (110, 9)];
        lane0.writes.push(FootprintKey::egress(42));
        lane0.writes.push(FootprintKey::egress(0));
        lane0.scheds.push((140, 1));
        let mut lane1 = LaneAudit::new(1);
        lane1.events = 1;
        lane1.seeds = vec![(105, 8)];
        lane1.reads.push(FootprintKey::egress(41));
        lane0.seal();
        lane1.seal();
        AuditLog {
            lookahead_ns: 40,
            serial_events: 3,
            parallel_events: 3,
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
                        at_ns: 105,
                        lane: 1,
                        seed: true,
                    },
                    MergeStep {
                        at_ns: 110,
                        lane: 0,
                        seed: true,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let log = sample_log();
        let v = log.to_json();
        let back = AuditLog::from_json(&v).expect("parse");
        assert_eq!(log, back);
        // Canonical: re-rendering the parse gives identical bytes.
        assert_eq!(v.to_compact(), back.to_json().to_compact());
    }

    #[test]
    fn empty_log_round_trips() {
        let log = AuditLog::new(40);
        assert_eq!(AuditLog::from_json(&log.to_json()), Some(log));
    }

    #[test]
    fn seal_sorts_and_dedups() {
        let mut lane = LaneAudit::new(3);
        lane.writes.push(FootprintKey::egress(9));
        lane.writes.push(FootprintKey::egress(9));
        lane.writes.push(FootprintKey::egress(3));
        lane.seal();
        assert_eq!(
            lane.writes,
            vec![
                FootprintKey::node(3),
                FootprintKey::egress(3),
                FootprintKey::egress(9),
            ]
        );
    }

    #[test]
    fn footprint_keys_order_by_kind_then_id() {
        let mut keys = vec![
            FootprintKey::egress(5),
            FootprintKey::node(9),
            FootprintKey::egress(0),
            FootprintKey::node(1),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                FootprintKey::node(1),
                FootprintKey::node(9),
                FootprintKey::egress(0),
                FootprintKey::egress(5),
            ]
        );
    }

    #[test]
    fn merge_transition_alphabet() {
        let merge = [
            MergeStep {
                at_ns: 10,
                lane: 0,
                seed: true,
            },
            MergeStep {
                at_ns: 10,
                lane: 1,
                seed: true,
            },
            MergeStep {
                at_ns: 10,
                lane: 1,
                seed: false,
            },
            MergeStep {
                at_ns: 12,
                lane: 0,
                seed: true,
            },
        ];
        let t = merge_transitions(&merge);
        // Tie within a lane (created), time advance across lanes
        // (seed), tie across lanes (seed) — the set iterates sorted.
        assert_eq!(
            t.into_iter().collect::<Vec<_>>(),
            vec![TR_SAME_TIME | TR_SAME_LANE, TR_SEED, TR_SAME_TIME | TR_SEED]
        );
        assert!(merge_transitions(&[]).is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert_eq!(AuditLog::from_json(&Json::obj()), None);
        let bad_kind = Json::Arr(vec![Json::from(9u64), Json::from(0u64)]);
        assert_eq!(FootprintKey::from_json(&bad_kind), None);
    }
}
