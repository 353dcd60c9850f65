//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::net::{Delivery, Topology};
use simnet::prelude::*;
use simnet::rng::{derive_seed, Dist, Zipf};
use std::collections::{HashMap, VecDeque};

/// The routing `Topology` replaced, kept here as the reference: adjacency
/// and BFS `prev` in `HashMap`s, min-hop, ties broken by adjacency
/// insertion order. `links[i]` is whether link `i` is up.
#[derive(Default)]
struct ReferenceRoutes {
    links: Vec<bool>,
    adj: HashMap<NodeId, Vec<(NodeId, usize)>>,
}

impl ReferenceRoutes {
    fn add_link(&mut self, a: NodeId, b: NodeId) {
        let idx = self.links.len();
        self.links.push(true);
        self.adj.entry(a).or_default().push((b, idx));
        self.adj.entry(b).or_default().push((a, idx));
    }

    fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adj
            .get(&a)
            .is_some_and(|v| v.iter().any(|(n, _)| *n == b))
    }

    fn bfs(&self, src: NodeId, dst: NodeId) -> Option<Vec<usize>> {
        let mut prev: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            if n == dst {
                let mut path = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let (p, link) = prev[&cur];
                    path.push(link);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            let Some(neigh) = self.adj.get(&n) else {
                continue;
            };
            for &(m, idx) in neigh {
                if !self.links[idx] || m == src || prev.contains_key(&m) {
                    continue;
                }
                prev.insert(m, (n, idx));
                queue.push_back(m);
            }
        }
        None
    }
}

proptest! {
    /// Instant/duration arithmetic never wraps and stays ordered.
    #[test]
    fn time_arithmetic_is_monotone(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(a);
        let dur = SimDuration::from_micros(d);
        let later = t + dur;
        prop_assert!(later >= t);
        prop_assert_eq!(later.since(t), dur);
        prop_assert_eq!(later - dur, t);
    }

    /// Derived seeds never collide across small stream/master grids.
    #[test]
    fn derived_seeds_are_distinct(master in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64u64 {
            prop_assert!(seen.insert(derive_seed(master, stream)));
        }
    }

    /// Every distribution sample is finite and non-negative.
    #[test]
    fn dist_samples_are_sane(
        seed in any::<u64>(),
        mean in 0.001f64..1e6,
        spread in 0.0f64..100.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dists = [
            Dist::Fixed(mean),
            Dist::Uniform { lo: mean, hi: mean + spread },
            Dist::Normal { mean, std: spread, min: 0.0 },
            Dist::LogNormal { mu: mean.ln(), sigma: spread.min(3.0), cap: 1e12 },
            Dist::Exp { mean },
        ];
        for d in dists {
            for _ in 0..16 {
                let v = d.sample(&mut rng);
                prop_assert!(v.is_finite() && v >= 0.0, "{d:?} gave {v}");
            }
        }
    }

    /// Zipf pmf sums to 1 and samples stay in range for arbitrary shapes.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..300, s in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// In a random connected line-with-chords topology, delivery between any
    /// two nodes either arrives with positive latency or is impossible only
    /// when links are down — never panics, and latency equals the sum of
    /// per-hop samples (here: fixed latencies, so delivery time is exact).
    #[test]
    fn line_topology_latency_is_hop_sum(
        hops in 1usize..12,
        per_hop_ms in 1u64..50,
        seed in any::<u64>(),
    ) {
        let mut topo = Topology::new();
        for i in 0..hops {
            topo.add_link(
                NodeId(i as u32),
                NodeId(i as u32 + 1),
                simnet::net::LinkSpec::new(LatencyModel::fixed(SimDuration::from_millis(per_hop_ms))),
            );
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match topo.deliver(NodeId(0), NodeId(hops as u32), &mut rng) {
            Delivery::Arrives(d) => {
                prop_assert_eq!(d, SimDuration::from_millis(per_hop_ms) * hops as u64);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// The dense topology routes exactly like the `HashMap` one it
    /// replaced: after every step of a random `add_link` / `set_link_up`
    /// sequence, every ordered pair has the reference's hop count, and —
    /// link `i` taking `2^i` ms, so a latency names the links crossed —
    /// `deliver` crosses the reference's very links, ties included.
    #[test]
    fn routing_matches_the_hashmap_reference(
        steps in proptest::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 1..40),
    ) {
        const NODES: u32 = 8;
        let ms = SimDuration::from_millis;
        let mut topo = Topology::new();
        let mut reference = ReferenceRoutes::default();
        let mut rng = StdRng::seed_from_u64(0);
        for (add, a, b) in steps {
            let (na, nb) = (NodeId(a), NodeId(b));
            if add && a != b && !reference.has_link(na, nb) {
                let latency = LatencyModel::fixed(ms(1 << reference.links.len()));
                let spec = simnet::net::LinkSpec::new(latency);
                topo.add_link(na, nb, spec);
                reference.add_link(na, nb);
            } else if !reference.links.is_empty() {
                // Toggle link `a` (mod the count) to `b`'s parity.
                let idx = a as usize % reference.links.len();
                topo.set_link_up(simnet::net::LinkId(idx as u32), b % 2 == 0);
                reference.links[idx] = b % 2 == 0;
            }
            for src in (0..NODES).map(NodeId) {
                for dst in (0..NODES).map(NodeId) {
                    let want = reference.bfs(src, dst);
                    prop_assert_eq!(topo.hops(src, dst), want.as_ref().map(Vec::len));
                    let want = match want {
                        _ if src == dst => Delivery::Arrives(SimDuration::from_micros(1)),
                        Some(path) => Delivery::Arrives(ms(path.iter().map(|i| 1 << i).sum())),
                        None => Delivery::NoRoute,
                    };
                    prop_assert_eq!(topo.deliver(src, dst, &mut rng), want);
                }
            }
        }
    }

    /// A simulation driven twice from the same seed yields the same trace.
    #[test]
    fn identical_seeds_identical_traces(seed in any::<u64>(), n_pings in 1u32..10) {
        fn run(seed: u64, n_pings: u32) -> Vec<(u64, String)> {
            struct Pinger { peer: Option<NodeId>, left: u32 }
            impl Node for Pinger {
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    if self.peer.is_some() {
                        ctx.set_timer(SimDuration::from_millis(10), 0);
                    }
                }
                fn on_timer(&mut self, ctx: &mut Context<'_>, _k: u64) {
                    if self.left == 0 { return; }
                    self.left -= 1;
                    ctx.trace("ping", format_args!("{} left", self.left));
                    ctx.signal(self.peer.unwrap(), &b"p"[..]);
                    ctx.set_timer(SimDuration::from_millis(10), 0);
                }
            }
            let mut sim = Sim::new(seed);
            let a = sim.add_node("a", Pinger { peer: None, left: 0 });
            let b = sim.add_node("b", Pinger { peer: Some(a), left: n_pings });
            sim.link(a, b, simnet::net::LinkSpec::wan());
            sim.run_until_idle();
            sim.trace()
                .events()
                .iter()
                .map(|e| (e.at.as_micros(), e.detail.clone()))
                .collect()
        }
        prop_assert_eq!(run(seed, n_pings), run(seed, n_pings));
    }
}
