//! Kill-and-resume chaos coverage for the open-loop traffic engine.
//!
//! The traffic injectors carry state no macrobenchmark has: a live
//! arrival RNG mid-stream, a scheduled next-arrival instant, the MMPP
//! modulating state and its dwell deadline, and per-tenant latency
//! histograms accumulated in a sink shared across every node. A
//! checkpoint taken mid-run must capture all of it, and a restore into a
//! freshly built machine must resume to a [`RunRecord`] byte-identical
//! to the uninterrupted run — per-tenant percentile blocks included.
//!
//! Mirrors the kill-and-resume loop of `nisim_bench::chaos`, pointed at
//! traffic workloads instead of app skeletons. The record carries no
//! event count, so the resumed run's fired-event total is compared too:
//! a timed-wait wake-up lost or duplicated across the cut shows there.
//!
//! Every cut is first taken and resumed on the serial loop. With
//! `NISIM_TEST_WORKERS=<n>` (n ≥ 1) set, the same cuts are taken and
//! resumed a second time on the epoch-parallel driver with `n` workers
//! and diffed against the same serial golden run.

use nisim_bench::record::{fingerprint, RunRecord};
use nisim_core::processor::ProcPhase;
use nisim_core::snapshot::{restore, save};
use nisim_core::{Machine, MachineConfig, MachineSim, NiKind};
use nisim_engine::{SplitMix64, Time};
use nisim_net::BufferCount;
use nisim_workloads::traffic::{TrafficDriver, TrafficKind, TrafficParams, TrafficSpec};

const CHAOS_SEED: u64 = 0x7AFF_1C05;
const CUTS_PER_POINT: usize = 3;
const MAX_EVENTS: u64 = 500_000_000;

fn horizon() -> Time {
    Time::from_ns(60_000_000_000)
}

fn config(ni: NiKind) -> MachineConfig {
    MachineConfig::with_ni(ni)
        .nodes(4)
        .flow_buffers(BufferCount::Finite(4))
}

/// The worker settings the kill-and-resume loop runs at: always the
/// serial loop (0), plus the epoch driver at `NISIM_TEST_WORKERS` when
/// that is set to a nonzero count.
fn worker_settings() -> Vec<u32> {
    let mut settings = vec![0];
    if let Ok(v) = std::env::var("NISIM_TEST_WORKERS") {
        let n: u32 = v
            .parse()
            .unwrap_or_else(|_| panic!("NISIM_TEST_WORKERS must be a number, got {v:?}"));
        if n > 0 {
            settings.push(n);
        }
    }
    settings
}

fn record_of(
    spec: TrafficSpec,
    cfg: &MachineConfig,
    m: &Machine,
    sim: &MachineSim,
    status: nisim_engine::SimStatus,
    driver: &TrafficDriver,
) -> RunRecord {
    let mut report = m.report(sim, status);
    driver.attach(&mut report);
    RunRecord::from_report(
        spec.key(),
        cfg.ni.key().to_string(),
        cfg.flow_buffers.to_string(),
        String::new(),
        fingerprint(cfg),
        &report,
        Vec::new(),
    )
}

/// The first event count, within `events`, after which some node sits
/// on a timed wait an arrival has already beaten: its wake-up is still
/// queued, but the processor is no longer idle. Run on the serial loop;
/// event counts are the same on every driver, so the cut serves all.
fn beaten_timer_cut(cfg: &MachineConfig, params: &TrafficParams, events: u64) -> Option<u64> {
    let driver = TrafficDriver::new(cfg, params);
    let mut m = Machine::new(cfg.clone(), driver.factory());
    let mut sim = MachineSim::new();
    m.start(&mut sim);
    while sim.events_fired() < events {
        m.run_slice(&mut sim, horizon(), 1);
        let beaten = m
            .nodes
            .iter()
            .any(|n| n.proc.timer.is_some() && n.proc.phase != ProcPhase::Idle);
        if beaten {
            return Some(sim.events_fired());
        }
    }
    None
}

/// The chaos loop for one traffic point: a serial golden uninterrupted
/// run, then seeded mid-run kills at every worker setting, each
/// serialized → reparsed → restored → resumed and diffed byte-for-byte
/// (and by event count) against the golden run. Where injectors also
/// receive, one more cut is taken while an arrival has beaten a timed
/// wait.
fn assert_kill_and_resume_reproduces(spec: TrafficSpec, ni: NiKind, salt: u64) {
    let cfg = config(ni);
    let params = spec.params(cfg.nodes);

    let golden_driver = TrafficDriver::new(&cfg, &params);
    let mut golden = Machine::new(cfg.clone(), golden_driver.factory());
    let mut gsim = MachineSim::new();
    golden.start(&mut gsim);
    let status = golden.run_slice(&mut gsim, horizon(), MAX_EVENTS);
    let events = gsim.events_fired();
    let golden_record = record_of(spec, &cfg, &golden, &gsim, status, &golden_driver);
    assert!(
        golden_record.quiescent,
        "{}/{}: golden run did not drain",
        spec.key(),
        ni.key()
    );
    assert!(
        !golden_record.tenants.is_empty(),
        "golden record must carry tenant percentiles"
    );
    let golden_bytes = golden_record.to_json().to_compact();

    let mut rng = SplitMix64::new(CHAOS_SEED ^ salt);
    let mut cuts: Vec<u64> = (0..CUTS_PER_POINT)
        .map(|_| 1 + rng.gen_range(events.saturating_sub(2).max(1)))
        .collect();
    // Incast injectors never receive, so nothing can beat their waits.
    let beaten = beaten_timer_cut(&cfg, &params, events);
    assert!(
        beaten.is_some() || spec.kind == TrafficKind::PoissonIncast,
        "{}/{}: no arrival ever beat a timed wait",
        spec.key(),
        ni.key()
    );
    cuts.extend(beaten);
    for (workers, cut) in worker_settings()
        .into_iter()
        .flat_map(|w| cuts.iter().map(move |&c| (w, c)))
    {
        let cfg = cfg.clone().workers(workers);
        let driver = TrafficDriver::new(&cfg, &params);
        let mut m = Machine::new(cfg.clone(), driver.factory());
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        m.run_slice(&mut sim, horizon(), cut);
        let bytes = save(&m, &mut sim)
            .unwrap_or_else(|e| panic!("snapshot at cut {cut} failed: {e}"))
            .to_compact();
        drop(m);
        drop(sim);
        drop(driver);

        // A fresh driver, as a restarted process would build: the sink
        // starts empty and the restored injectors repopulate it.
        let parsed = nisim_engine::json::parse(&bytes)
            .unwrap_or_else(|e| panic!("snapshot reparse at cut {cut} failed: {e:?}"));
        let resumed_driver = TrafficDriver::new(&cfg, &params);
        let (mut resumed, mut rsim) = restore(cfg.clone(), resumed_driver.factory(), &parsed)
            .unwrap_or_else(|e| panic!("restore at cut {cut} failed: {e}"));
        let rstatus = resumed.run_slice(&mut rsim, horizon(), MAX_EVENTS);
        let resumed_record = record_of(spec, &cfg, &resumed, &rsim, rstatus, &resumed_driver);
        assert_eq!(
            golden_bytes,
            resumed_record.to_json().to_compact(),
            "{}/{}: resumed run diverged from golden at cut {cut} ({events} events, workers {workers})",
            spec.key(),
            ni.key()
        );
        assert_eq!(
            rsim.events_fired(),
            events,
            "{}/{}: resumed run fired a different number of events at cut {cut} (workers {workers})",
            spec.key(),
            ni.key()
        );
    }
}

/// Poisson/uniform: checkpoints land between scheduled arrivals, so the
/// restored injector must resume with its drawn-but-unfired next-arrival
/// instant intact.
#[test]
fn poisson_traffic_survives_kill_and_resume() {
    let spec = TrafficSpec {
        kind: TrafficKind::PoissonUniform,
        level: 3,
    };
    assert_kill_and_resume_reproduces(spec, NiKind::Cni32Qm, 1);
}

/// MMPP adds the modulating state machine: cuts can land mid-dwell, and
/// the restored injector must keep the same state until the same switch
/// instant before redrawing at the other rate.
#[test]
fn mmpp_traffic_survives_kill_and_resume() {
    let spec = TrafficSpec {
        kind: TrafficKind::MmppUniform,
        level: 3,
    };
    assert_kill_and_resume_reproduces(spec, NiKind::Cm5, 2);
}

/// The tenant mix exercises the multi-tenant sink merge on restore: two
/// services' histograms rebuilt from per-node owned state, exactly once.
/// (Only the CM-5 and CNI models implement checkpointing, so the mix
/// rides the most stateful of the two.)
#[test]
fn tenant_mix_traffic_survives_kill_and_resume() {
    let spec = TrafficSpec {
        kind: TrafficKind::TenantMix,
        level: 3,
    };
    assert_kill_and_resume_reproduces(spec, NiKind::Cni32Qm, 3);
}

/// Incast concentrates flow-control retries on the sink node; cuts land
/// while return-to-sender retries are in flight.
#[test]
fn incast_traffic_survives_kill_and_resume() {
    let spec = TrafficSpec {
        kind: TrafficKind::PoissonIncast,
        level: 2,
    };
    assert_kill_and_resume_reproduces(spec, NiKind::Cm5, 4);
}

/// The RDMA queue-pair NI carries the roster's most restore-sensitive
/// state: cuts land with a warm QP-state cache, and the restored LRU
/// order must replay the same hit/miss sequence or latencies diverge.
#[test]
fn rdma_qp_traffic_survives_kill_and_resume() {
    let spec = TrafficSpec {
        kind: TrafficKind::PoissonUniform,
        level: 3,
    };
    assert_kill_and_resume_reproduces(spec, NiKind::RdmaQp, 5);
}

/// The SGDMA NI stages a decoded descriptor between the stage hook and
/// the deposit; a cut between the two must restore the staged geometry.
#[test]
fn sgdma_traffic_survives_kill_and_resume() {
    let spec = TrafficSpec {
        kind: TrafficKind::PoissonIncast,
        level: 2,
    };
    assert_kill_and_resume_reproduces(spec, NiKind::Sgdma, 6);
}
