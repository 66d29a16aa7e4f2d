//! Loops over single layers, timed on their own: the timing wheel, the
//! processor cache and the memory bus. Each returns host ns per
//! operation, the median of `REPS` timed repetitions after one warm-up.

use std::hint::black_box;
use std::time::Instant;

use nisim_engine::{Dur, Event, Sim, SplitMix64, Time};
use nisim_mem::{Addr, Bus, BusConfig, BusOp, Cache, CacheConfig, MoesiState};
use nisim_net::NetConfig;

use crate::median;

const REPS: usize = 5;

fn timed(ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let mut ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut ns)
}

/// Self-timed event chains whose delays are the bus occupancies, the
/// link serialisation times and the wire hop: the short-horizon event
/// stream a machine generates, without the machine.
struct Chains {
    rng: SplitMix64,
    delays: Vec<Dur>,
    sink: u64,
}

struct Link(u64);

impl Event<Chains> for Link {
    fn fire(self, m: &mut Chains, sim: &mut Sim<Chains, Link>) {
        m.sink = m.sink.wrapping_add(self.0);
        let d = m.delays[m.rng.gen_range(m.delays.len() as u64) as usize];
        sim.schedule_event_in(d, Link(self.0 + 1));
    }
}

const CHAINS: u64 = 512;
const WHEEL_EVENTS: u64 = 1 << 21;

pub fn wheel_ns_per_event() -> f64 {
    let bus = BusConfig::default();
    let net = NetConfig::default();
    let mut delays: Vec<Dur> = BusOp::ALL.iter().map(|&op| bus.occupancy(op)).collect();
    delays.push(net.serialisation(net.wire_bytes(net.max_payload_bytes())));
    delays.push(net.serialisation(net.wire_bytes(64)));
    delays.push(net.wire_latency);
    timed(WHEEL_EVENTS, || {
        let mut m = Chains {
            rng: SplitMix64::new(0xB175),
            delays: delays.clone(),
            sink: 0,
        };
        let mut sim: Sim<Chains, Link> = Sim::new();
        for i in 0..CHAINS {
            let at = Time::from_ns(i % 64);
            sim.schedule_event_at(at, Link(i))
                .expect("seeding from t=0");
        }
        sim.run_bounded(&mut m, Time::MAX, WHEEL_EVENTS);
        assert_eq!(sim.events_fired(), WHEEL_EVENTS);
        black_box(m.sink);
    })
}

const CACHE_OPS: u64 = 1 << 21;

/// `Cache::lookup`, and `Cache::insert` on a miss, over random blocks of
/// a working set four times the paper's 1 MB cache: ns per lookup.
pub fn cache_ns_per_op() -> f64 {
    let cfg = CacheConfig::default();
    let span = 4 * cfg.size_bytes;
    timed(CACHE_OPS, || {
        let mut cache = Cache::new(cfg);
        let geo = cache.geometry();
        let mut rng = SplitMix64::new(0xCAC4E);
        for _ in 0..CACHE_OPS {
            let block = geo.block_of(Addr::new(rng.gen_range(span)));
            if cache.lookup(block) == MoesiState::Invalid {
                black_box(cache.insert(block, MoesiState::Exclusive));
            }
        }
        black_box(cache.stats());
    })
}

const BUS_OPS: u64 = 1 << 22;

/// `Bus::acquire` over every transaction type, requested at a rate that
/// keeps a short queue in front of the bus.
pub fn bus_ns_per_op() -> f64 {
    let cfg = BusConfig::default();
    timed(BUS_OPS, || {
        let mut bus = Bus::new(cfg);
        let mut now = Time::ZERO;
        for i in 0..BUS_OPS {
            let op = BusOp::ALL[(i % BusOp::ALL.len() as u64) as usize];
            black_box(bus.acquire(now, op));
            now = now.saturating_add(Dur::ns(8));
        }
        black_box(bus.stats());
    })
}
