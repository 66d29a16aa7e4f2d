//! Optional network topologies (extension).
//!
//! The paper deliberately ignores topology (§5.1.2) and argues its
//! *relative* results extrapolate to real networks; it cites Dai & Panda
//! that network contention can matter. This module provides that
//! extrapolation path: a store-and-forward fabric with per-hop switch
//! latency and *contended links*, in ring and 2-D mesh shapes, behind
//! the same delivery interface as the ideal constant-latency network.
//!
//! Links are serially-reusable [`Link`] resources shared machine-wide,
//! so many-to-one traffic exhibits real link contention.

use nisim_engine::{Dur, Json, Time};

use crate::link::Link;
use crate::msg::{NetConfig, NodeId};

/// The network shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// The paper's abstraction: constant latency, no contention.
    #[default]
    Ideal,
    /// A bidirectional ring; minimal-direction routing.
    Ring,
    /// A 2-D mesh (as square as the node count allows); XY routing.
    Mesh2D,
}

impl Topology {
    /// The mesh dimensions used for `nodes` (columns, rows).
    pub fn mesh_dims(nodes: u32) -> (u32, u32) {
        let mut cols = (nodes as f64).sqrt().floor() as u32;
        while cols > 1 && !nodes.is_multiple_of(cols) {
            cols -= 1;
        }
        (cols.max(1), nodes / cols.max(1))
    }

    /// The sequence of directed links `(from, to)` a message traverses.
    /// Empty for [`Topology::Ideal`].
    pub fn route(&self, src: NodeId, dst: NodeId, nodes: u32) -> Vec<(u32, u32)> {
        assert!(src.0 < nodes && dst.0 < nodes, "route endpoints in range");
        let mut path = Vec::new();
        if src == dst {
            return path;
        }
        match self {
            Topology::Ideal => path,
            Topology::Ring => {
                let fwd = (dst.0 + nodes - src.0) % nodes;
                let bwd = nodes - fwd;
                let mut at = src.0;
                if fwd <= bwd {
                    for _ in 0..fwd {
                        let next = (at + 1) % nodes;
                        path.push((at, next));
                        at = next;
                    }
                } else {
                    for _ in 0..bwd {
                        let next = (at + nodes - 1) % nodes;
                        path.push((at, next));
                        at = next;
                    }
                }
                path
            }
            Topology::Mesh2D => {
                let (cols, _rows) = Self::mesh_dims(nodes);
                let (mut x, mut y) = (src.0 % cols, src.0 / cols);
                let (dx, dy) = (dst.0 % cols, dst.0 / cols);
                // XY (dimension-ordered) routing: fix the column first.
                while x != dx {
                    let nx = if dx > x { x + 1 } else { x - 1 };
                    path.push((x + y * cols, nx + y * cols));
                    x = nx;
                }
                while y != dy {
                    let ny = if dy > y { y + 1 } else { y - 1 };
                    path.push((x + y * cols, x + ny * cols));
                    y = ny;
                }
                path
            }
        }
    }

    /// The hop count between two nodes.
    pub fn hops(&self, src: NodeId, dst: NodeId, nodes: u32) -> u32 {
        self.route(src, dst, nodes).len() as u32
    }
}

/// Link ports per node in the fabric's link table: ring +1/−1 use
/// ports 0/1; mesh +x/−x/+y/−y use ports 0–3.
const PORTS: usize = 4;

/// A store-and-forward fabric: per-hop serialisation on contended links
/// plus a per-hop switch latency.
///
/// # Example
///
/// ```
/// use nisim_engine::Time;
/// use nisim_net::{NetConfig, NodeId};
/// use nisim_net::topology::{Fabric, Topology};
///
/// let cfg = NetConfig::default();
/// let mut fabric = Fabric::new(Topology::Ring, 8, cfg.wire_latency);
/// let t = fabric.transit(&cfg, Time::ZERO, NodeId(0), NodeId(2), 64);
/// // Two hops: 2 x (64 B serialisation + 40 ns switch latency).
/// assert_eq!(t.as_ns(), 2 * (64 + 40));
/// ```
#[derive(Clone, Debug)]
pub struct Fabric {
    topology: Topology,
    nodes: u32,
    /// Mesh columns (see [`Topology::mesh_dims`]); unused otherwise.
    cols: u32,
    hop_latency: Dur,
    /// Per-hop links, indexed `node * PORTS + port`: a dense table, so a
    /// hop is one index. Empty for the ideal topology.
    links: Vec<Link>,
}

impl Fabric {
    /// Creates a fabric over `nodes` nodes with the given per-hop switch
    /// latency (the ideal topology uses it as the end-to-end latency).
    pub fn new(topology: Topology, nodes: u32, hop_latency: Dur) -> Fabric {
        let ports = match topology {
            Topology::Ideal => 0,
            Topology::Ring | Topology::Mesh2D => PORTS,
        };
        Fabric {
            topology,
            nodes,
            cols: Topology::mesh_dims(nodes).0,
            hop_latency,
            links: vec![Link::new(); nodes as usize * ports],
        }
    }

    /// The fabric's topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The node at the far end of `node`'s `port`, if that port is a
    /// link of the topology.
    fn neighbour(&self, node: u32, port: usize) -> Option<u32> {
        let n = self.nodes;
        match self.topology {
            Topology::Ideal => None,
            Topology::Ring if n < 2 => None,
            Topology::Ring => match port {
                0 => Some((node + 1) % n),
                1 => Some((node + n - 1) % n),
                _ => None,
            },
            Topology::Mesh2D => {
                let (x, y, cols) = (node % self.cols, node / self.cols, self.cols);
                match port {
                    0 if x + 1 < cols => Some(node + 1),
                    1 if x > 0 => Some(node - 1),
                    2 if node + cols < n => Some(node + cols),
                    3 if y > 0 => Some(node - cols),
                    _ => None,
                }
            }
        }
    }

    /// Serialises `wire_bytes` over `node`'s `port` starting at `t`;
    /// returns when the next switch has the message.
    #[inline]
    fn hop(&mut self, cfg: &NetConfig, t: Time, node: u32, port: usize, wire_bytes: u64) -> Time {
        let (_, end) = self.links[node as usize * PORTS + port].transmit(cfg, t, wire_bytes);
        end + self.hop_latency
    }

    /// Carries `wire_bytes` from `src` to `dst` starting at `now`;
    /// returns the arrival time. Links are reserved hop by hop
    /// (store-and-forward), so shared links contend. The walk follows
    /// [`Topology::route`].
    pub fn transit(
        &mut self,
        cfg: &NetConfig,
        now: Time,
        src: NodeId,
        dst: NodeId,
        wire_bytes: u64,
    ) -> Time {
        let n = self.nodes;
        let mut t = now;
        match self.topology {
            Topology::Ideal => return now + cfg.wire_latency,
            Topology::Ring => {
                // Minimal direction; `step` moves `at` one node that way.
                let fwd = (dst.0 + n - src.0) % n;
                let (port, hops, step) = if fwd <= n - fwd {
                    (0, fwd, 1)
                } else {
                    (1, n - fwd, n - 1)
                };
                let mut at = src.0;
                for _ in 0..hops {
                    t = self.hop(cfg, t, at, port, wire_bytes);
                    at = (at + step) % n;
                }
            }
            Topology::Mesh2D => {
                // XY (dimension-ordered) routing: fix the column first.
                let cols = self.cols;
                let mut at = src.0;
                while at % cols < dst.0 % cols {
                    t = self.hop(cfg, t, at, 0, wire_bytes);
                    at += 1;
                }
                while at % cols > dst.0 % cols {
                    t = self.hop(cfg, t, at, 1, wire_bytes);
                    at -= 1;
                }
                while at < dst.0 {
                    t = self.hop(cfg, t, at, 2, wire_bytes);
                    at += cols;
                }
                while at > dst.0 {
                    t = self.hop(cfg, t, at, 3, wire_bytes);
                    at -= cols;
                }
            }
        }
        t
    }

    /// Every link that has carried a message, as `((from, to), link)` in
    /// `(from, to)` order.
    fn used_links(&self) -> Vec<((u32, u32), &Link)> {
        let mut v: Vec<_> = (self.links.iter().enumerate())
            .filter(|(_, link)| link.messages() > 0)
            .filter_map(|(i, link)| {
                let from = (i / PORTS) as u32;
                Some(((from, self.neighbour(from, i % PORTS)?), link))
            })
            .collect();
        v.sort_unstable_by_key(|&(pair, _)| pair);
        v
    }

    /// Total bytes carried per link, for hot-link analysis.
    pub fn link_loads(&self) -> Vec<((u32, u32), u64)> {
        (self.used_links().into_iter())
            .map(|(pair, link)| (pair, link.bytes()))
            .collect()
    }

    /// Serialises every link that has carried traffic, in `(from, to)`
    /// order, for checkpointing. Empty for the ideal topology, which
    /// holds no link state.
    pub fn snapshot(&self) -> Json {
        Json::Arr(
            (self.used_links().into_iter())
                .map(|((from, to), link)| {
                    Json::Arr(vec![
                        Json::from(from as u64),
                        Json::from(to as u64),
                        link.snapshot(),
                    ])
                })
                .collect(),
        )
    }

    /// Restores links captured by [`Fabric::snapshot`]. Returns `false`
    /// on shape mismatch or a `(from, to)` pair that is not a link of the
    /// topology.
    pub fn restore(&mut self, v: &Json) -> bool {
        let Some(entries) = v.as_arr() else {
            return false;
        };
        self.links.fill(Link::new());
        for entry in entries {
            let Some([from, to, state]) =
                entry.as_arr().and_then(|p| <&[Json; 3]>::try_from(p).ok())
            else {
                return false;
            };
            let (Some(from), Some(to)) = (from.as_u64(), to.as_u64()) else {
                return false;
            };
            if from >= self.nodes as u64 {
                return false;
            }
            let from = from as u32;
            let Some(port) =
                (0..PORTS).find(|&p| self.neighbour(from, p).map(u64::from) == Some(to))
            else {
                return false;
            };
            if !self.links[from as usize * PORTS + port].restore(state) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_take_the_short_way() {
        let t = Topology::Ring;
        assert_eq!(t.hops(NodeId(0), NodeId(1), 8), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(7), 8), 1); // backwards
        assert_eq!(t.hops(NodeId(0), NodeId(4), 8), 4);
        assert_eq!(t.hops(NodeId(2), NodeId(2), 8), 0);
    }

    #[test]
    fn mesh_uses_xy_routing() {
        // 16 nodes -> 4x4 mesh. Node 0 = (0,0), node 15 = (3,3).
        assert_eq!(Topology::mesh_dims(16), (4, 4));
        let t = Topology::Mesh2D;
        assert_eq!(t.hops(NodeId(0), NodeId(15), 16), 6);
        let route = t.route(NodeId(0), NodeId(5), 16); // (0,0)->(1,1)
        assert_eq!(route, vec![(0, 1), (1, 5)]); // X first, then Y
    }

    #[test]
    fn mesh_dims_handle_non_squares() {
        assert_eq!(Topology::mesh_dims(12), (3, 4));
        assert_eq!(Topology::mesh_dims(8), (2, 4));
        assert_eq!(Topology::mesh_dims(7), (1, 7));
    }

    #[test]
    fn ideal_is_constant_latency() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ideal, 16, cfg.wire_latency);
        let t = f.transit(&cfg, Time::from_ns(100), NodeId(0), NodeId(9), 4096);
        assert_eq!(t, Time::from_ns(140));
    }

    #[test]
    fn hops_add_latency_and_serialisation() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        let near = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        let mut f2 = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        let far = f2.transit(&cfg, Time::ZERO, NodeId(0), NodeId(4), 100);
        assert_eq!(near.as_ns(), 140);
        assert_eq!(far.as_ns(), 4 * 140);
    }

    #[test]
    fn shared_links_contend() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        // Two messages over the same first link at the same time: the
        // second serialises behind the first.
        let a = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        let b = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(a.as_ns(), 140);
        assert_eq!(b.as_ns(), 240);
        // A disjoint link is unaffected.
        let c = f.transit(&cfg, Time::ZERO, NodeId(3), NodeId(4), 100);
        assert_eq!(c.as_ns(), 140);
    }

    #[test]
    fn fabric_snapshot_round_trips_contention_state() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(2), 100);
        let snap = f.snapshot();

        let mut fresh = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        assert!(fresh.restore(&snap));
        assert_eq!(fresh.link_loads(), f.link_loads());
        // The restored links carry their reservation horizon: a message
        // over the same first hop queues exactly as it would have.
        let a = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        let b = fresh.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(a, b);
        // Ideal fabrics snapshot to an empty list.
        let ideal = Fabric::new(Topology::Ideal, 8, Dur::ns(40));
        assert_eq!(ideal.snapshot(), Json::Arr(Vec::new()));
        assert!(!fresh.restore(&Json::from(1u64)));
    }

    /// The fabric the dense link table replaced: [`Topology::route`]
    /// plus a `BTreeMap` of links keyed `(from, to)`.
    struct RefFabric {
        topology: Topology,
        nodes: u32,
        links: std::collections::BTreeMap<(u32, u32), Link>,
    }

    impl RefFabric {
        fn transit(
            &mut self,
            cfg: &NetConfig,
            now: Time,
            src: NodeId,
            dst: NodeId,
            b: u64,
        ) -> Time {
            let mut t = now;
            for hop in self.topology.route(src, dst, self.nodes) {
                let (_, end) = self.links.entry(hop).or_default().transmit(cfg, t, b);
                t = end + Dur::ns(40);
            }
            t
        }

        fn snapshot(&self) -> Json {
            Json::Arr(
                (self.links.iter())
                    .map(|(&(from, to), l)| {
                        Json::Arr(vec![
                            Json::from(from as u64),
                            Json::from(to as u64),
                            l.snapshot(),
                        ])
                    })
                    .collect(),
            )
        }
    }

    /// Random transits over 2–40-node rings and meshes (non-square ones
    /// included) must give the reference's arrival times, link loads and
    /// snapshot bytes, and survive a snapshot round trip midway.
    #[test]
    fn dense_links_match_route_and_map_reference() {
        let cfg = NetConfig::default();
        let mut rng = nisim_engine::SplitMix64::new(0xFAB);
        for nodes in 2..=40u32 {
            for topology in [Topology::Ring, Topology::Mesh2D] {
                let mut f = Fabric::new(topology, nodes, Dur::ns(40));
                let mut r = RefFabric {
                    topology,
                    nodes,
                    links: Default::default(),
                };
                let mut now = Time::ZERO;
                for step in 0..200 {
                    now += Dur::ns(rng.gen_range(200));
                    let src = NodeId(rng.gen_range(nodes as u64) as u32);
                    let dst = NodeId(rng.gen_range(nodes as u64) as u32);
                    let bytes = 8 + rng.gen_range(600);
                    let want = r.transit(&cfg, now, src, dst, bytes);
                    assert_eq!(
                        f.transit(&cfg, now, src, dst, bytes),
                        want,
                        "{topology:?}/{nodes}"
                    );
                    if step == 100 {
                        let mut fresh = Fabric::new(topology, nodes, Dur::ns(40));
                        assert!(fresh.restore(&f.snapshot()), "{topology:?}/{nodes}");
                        f = fresh;
                    }
                }
                let loads: Vec<_> = r.links.iter().map(|(&k, l)| (k, l.bytes())).collect();
                assert_eq!(f.link_loads(), loads, "{topology:?}/{nodes}");
                assert_eq!(f.snapshot().to_compact(), r.snapshot().to_compact());
            }
        }
    }

    #[test]
    fn restore_rejects_pairs_that_are_not_links() {
        let entry = |from: u64, to: u64| {
            Json::Arr(vec![Json::Arr(vec![
                Json::from(from),
                Json::from(to),
                Link::new().snapshot(),
            ])])
        };
        let mut ring = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        assert!(ring.restore(&entry(7, 0)));
        assert!(ring.restore(&entry(0, 7)));
        for (from, to) in [(0, 2), (3, 3), (8, 0), (0, 8)] {
            assert!(!ring.restore(&entry(from, to)), "ring ({from}, {to})");
        }
        // 12 nodes -> 3 columns x 4 rows.
        let mut mesh = Fabric::new(Topology::Mesh2D, 12, Dur::ns(40));
        assert!(mesh.restore(&entry(4, 7)));
        assert!(mesh.restore(&entry(4, 3)));
        for (from, to) in [(2, 3), (3, 2), (9, 12), (4, 8), (0, 0)] {
            assert!(!mesh.restore(&entry(from, to)), "mesh ({from}, {to})");
        }
        let mut ideal = Fabric::new(Topology::Ideal, 8, Dur::ns(40));
        assert!(!ideal.restore(&entry(0, 1)));
    }

    #[test]
    fn link_loads_accumulate() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 4, Dur::ns(40));
        f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(2), 50);
        let loads = f.link_loads();
        assert_eq!(loads.len(), 2);
        assert!(loads.iter().all(|&(_, b)| b == 50));
    }
}
