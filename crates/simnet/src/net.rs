//! Network topology: links, latency models and min-hop routing.
//!
//! The testbed of the paper (its Figure 1) is a small graph — lamp, hub,
//! local proxy, gateway router, lab servers, the IFTTT engine — connected by
//! LAN and WAN links. `Topology` keeps the undirected link graph, samples
//! per-hop latencies, and routes messages along the min-hop path. Links can
//! be taken down and can drop packets probabilistically, which the failure-
//! injection tests use.

use crate::node::NodeId;
use crate::rng::Dist;
use crate::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Identifier of a link within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// How long one traversal of a link takes.
///
/// A thin, serializable wrapper over [`Dist`] sampling seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel(pub Dist);

impl LatencyModel {
    /// Constant latency.
    pub fn fixed(d: SimDuration) -> Self {
        LatencyModel(Dist::Fixed(d.as_secs_f64()))
    }

    /// Uniform latency between two durations.
    pub fn uniform(lo: SimDuration, hi: SimDuration) -> Self {
        LatencyModel(Dist::Uniform {
            lo: lo.as_secs_f64(),
            hi: hi.as_secs_f64(),
        })
    }

    /// Draw one latency sample.
    pub fn sample(&self, rng: &mut impl Rng) -> SimDuration {
        SimDuration::from_secs_f64(self.0.sample(rng))
    }
}

/// Static description of a link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkSpec {
    pub latency: LatencyModel,
    /// Probability in `[0,1]` that a message traversing this link is lost.
    pub loss: f64,
}

impl LinkSpec {
    /// A link with the given latency model and no loss.
    pub fn new(latency: LatencyModel) -> Self {
        LinkSpec { latency, loss: 0.0 }
    }

    /// Typical home-LAN hop: 0.5–2 ms.
    pub fn lan() -> Self {
        LinkSpec::new(LatencyModel::uniform(
            SimDuration::from_micros(500),
            SimDuration::from_millis(2),
        ))
    }

    /// Typical residential WAN hop: 10–50 ms.
    pub fn wan() -> Self {
        LinkSpec::new(LatencyModel::uniform(
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
        ))
    }

    /// Low-power radio hop (Zigbee-class): 5–20 ms.
    pub fn radio() -> Self {
        LinkSpec::new(LatencyModel::uniform(
            SimDuration::from_millis(5),
            SimDuration::from_millis(20),
        ))
    }

    /// Intra-datacenter hop: 0.2–1 ms.
    pub fn datacenter() -> Self {
        LinkSpec::new(LatencyModel::uniform(
            SimDuration::from_micros(200),
            SimDuration::from_millis(1),
        ))
    }

    /// Set the loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }
}

#[derive(Debug, Clone)]
struct Link {
    a: NodeId,
    b: NodeId,
    spec: LinkSpec,
    up: bool,
}

/// Outcome of pushing a message through the topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// Delivered after the given one-way delay.
    Arrives(SimDuration),
    /// Lost on a link (sampled loss or link down mid-path is not modeled;
    /// loss is evaluated per hop at send time).
    Lost,
    /// No path between the endpoints.
    NoRoute,
}

/// The undirected link graph with latency sampling and route caching.
///
/// `NodeId` is a dense index, so adjacency and routes are tables: a
/// delivery finds its route by indexing, never by hashing.
#[derive(Debug, Default)]
pub struct Topology {
    links: Vec<Link>,
    /// Adjacency rows by node: (neighbor, link index) pairs in insertion
    /// order. A node with no links is out of range or has an empty row.
    adj: Vec<Vec<(NodeId, usize)>>,
    /// Cached min-hop paths as link-index sequences, one table indexed
    /// `src * adj.len() + dst`: `None` is not computed yet, `Some(None)` is
    /// no path. Sized by the first lookup after a change, emptied on change.
    routes: Vec<Option<Option<Vec<usize>>>>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add an undirected link. Returns its id.
    ///
    /// # Panics
    /// Panics on self-links or duplicate links; topology construction errors
    /// are programming errors in experiment setup.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if self.adj.len() <= ai.max(bi) {
            self.adj.resize_with(ai.max(bi) + 1, Vec::new);
        }
        assert!(
            !self.adj[ai].iter().any(|(n, _)| *n == b),
            "duplicate link {a:?} <-> {b:?}"
        );
        let idx = self.links.len();
        self.links.push(Link {
            a,
            b,
            spec,
            up: true,
        });
        self.adj[ai].push((b, idx));
        self.adj[bi].push((a, idx));
        self.routes.clear();
        LinkId(idx as u32)
    }

    /// Bring a link up or down. Down links are excluded from routing.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        if let Some(l) = self.links.get_mut(id.0 as usize) {
            l.up = up;
            self.routes.clear();
        }
    }

    /// Replace the loss probability of a link.
    pub fn set_link_loss(&mut self, id: LinkId, loss: f64) {
        if let Some(l) = self.links.get_mut(id.0 as usize) {
            l.spec.loss = loss.clamp(0.0, 1.0);
        }
    }

    /// The current spec of a link.
    pub fn link_spec(&self, id: LinkId) -> Option<LinkSpec> {
        self.links.get(id.0 as usize).map(|l| l.spec)
    }

    /// Whether a link is currently up.
    pub fn is_link_up(&self, id: LinkId) -> Option<bool> {
        self.links.get(id.0 as usize).map(|l| l.up)
    }

    /// All links with `node` as an endpoint.
    pub fn links_touching(&self, node: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a == node || l.b == node)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Hop count of the current route between two nodes, if any.
    pub fn hops(&mut self, src: NodeId, dst: NodeId) -> Option<usize> {
        if src == dst {
            return Some(0);
        }
        self.route(src, dst).map(|(p, _)| p.len())
    }

    /// Evaluate delivery of one message: route, then sample latency and
    /// loss per hop.
    pub fn deliver(&mut self, src: NodeId, dst: NodeId, rng: &mut impl Rng) -> Delivery {
        if src == dst {
            // Local delivery still costs a scheduling quantum so that a
            // node never observes its own message synchronously.
            return Delivery::Arrives(SimDuration::from_micros(1));
        }
        let Some((path, links)) = self.route(src, dst) else {
            return Delivery::NoRoute;
        };
        let mut total = SimDuration::ZERO;
        for &idx in path {
            let link = &links[idx];
            if link.spec.loss > 0.0 && rng.gen::<f64>() < link.spec.loss {
                return Delivery::Lost;
            }
            total += link.spec.latency.sample(rng);
        }
        Delivery::Arrives(total)
    }

    /// Min-hop path (as link indices) with the links it indexes: one table
    /// lookup, with a BFS the first time a pair is asked for after a change.
    fn route(&mut self, src: NodeId, dst: NodeId) -> Option<(&[usize], &[Link])> {
        let (n, s, d) = (self.adj.len(), src.0 as usize, dst.0 as usize);
        if s >= n || d >= n {
            return None; // an endpoint with no links
        }
        if self.routes.is_empty() {
            self.routes.resize(n * n, None);
        }
        let path = &mut self.routes[s * n + d];
        let path = path.get_or_insert_with(|| bfs(&self.links, &self.adj, src, dst));
        path.as_deref().map(|p| (p, &self.links[..]))
    }
}

/// Min-hop path from `src` to `dst` over the up links; among equal-length
/// paths the first found in adjacency insertion order wins.
fn bfs(
    links: &[Link],
    adj: &[Vec<(NodeId, usize)>],
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<usize>> {
    let mut prev: Vec<Option<(NodeId, usize)>> = vec![None; adj.len()];
    let mut queue = VecDeque::from([src]);
    while let Some(n) = queue.pop_front() {
        if n == dst {
            let mut path = Vec::new();
            let mut cur = dst;
            while cur != src {
                let (p, link) = prev[cur.0 as usize].expect("reached through prev");
                path.push(link);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &(m, idx) in adj.get(n.0 as usize).into_iter().flatten() {
            if !links[idx].up || m == src || prev[m.0 as usize].is_some() {
                continue;
            }
            prev[m.0 as usize] = Some((n, idx));
            queue.push_back(m);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn direct_link_delivers_within_model_bounds() {
        let mut t = Topology::new();
        t.add_link(
            n(0),
            n(1),
            LinkSpec::new(LatencyModel::uniform(
                SimDuration::from_millis(10),
                SimDuration::from_millis(20),
            )),
        );
        let mut r = rng();
        for _ in 0..100 {
            match t.deliver(n(0), n(1), &mut r) {
                Delivery::Arrives(d) => {
                    assert!(d >= SimDuration::from_millis(10) && d <= SimDuration::from_millis(20))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn multi_hop_latency_accumulates() {
        let mut t = Topology::new();
        let ms = |x| SimDuration::from_millis(x);
        t.add_link(n(0), n(1), LinkSpec::new(LatencyModel::fixed(ms(5))));
        t.add_link(n(1), n(2), LinkSpec::new(LatencyModel::fixed(ms(7))));
        let mut r = rng();
        assert_eq!(t.deliver(n(0), n(2), &mut r), Delivery::Arrives(ms(12)));
        assert_eq!(t.hops(n(0), n(2)), Some(2));
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let mut t = Topology::new();
        let ms = |x| SimDuration::from_millis(x);
        // Long direct link vs. short two-hop path: min-hop routing takes the
        // direct link regardless of latency (routers, not traffic engineers).
        t.add_link(n(0), n(1), LinkSpec::new(LatencyModel::fixed(ms(100))));
        t.add_link(n(0), n(2), LinkSpec::new(LatencyModel::fixed(ms(1))));
        t.add_link(n(2), n(1), LinkSpec::new(LatencyModel::fixed(ms(1))));
        let mut r = rng();
        assert_eq!(t.deliver(n(0), n(1), &mut r), Delivery::Arrives(ms(100)));
    }

    #[test]
    fn no_route_between_disconnected_components() {
        let mut t = Topology::new();
        t.add_link(n(0), n(1), LinkSpec::lan());
        t.add_link(n(2), n(3), LinkSpec::lan());
        let mut r = rng();
        assert_eq!(t.deliver(n(0), n(3), &mut r), Delivery::NoRoute);
    }

    #[test]
    fn link_down_breaks_and_restores_route() {
        let mut t = Topology::new();
        let id = t.add_link(n(0), n(1), LinkSpec::lan());
        let mut r = rng();
        assert!(matches!(
            t.deliver(n(0), n(1), &mut r),
            Delivery::Arrives(_)
        ));
        t.set_link_up(id, false);
        assert_eq!(t.deliver(n(0), n(1), &mut r), Delivery::NoRoute);
        t.set_link_up(id, true);
        assert!(matches!(
            t.deliver(n(0), n(1), &mut r),
            Delivery::Arrives(_)
        ));
    }

    #[test]
    fn full_loss_always_drops() {
        let mut t = Topology::new();
        t.add_link(n(0), n(1), LinkSpec::lan().with_loss(1.0));
        let mut r = rng();
        for _ in 0..20 {
            assert_eq!(t.deliver(n(0), n(1), &mut r), Delivery::Lost);
        }
    }

    #[test]
    fn partial_loss_drops_roughly_at_rate() {
        let mut t = Topology::new();
        t.add_link(n(0), n(1), LinkSpec::lan().with_loss(0.3));
        let mut r = rng();
        let lost = (0..10_000)
            .filter(|_| t.deliver(n(0), n(1), &mut r) == Delivery::Lost)
            .count();
        assert!((2_700..3_300).contains(&lost), "lost={lost}");
    }

    #[test]
    fn self_delivery_costs_one_quantum() {
        let mut t = Topology::new();
        let mut r = rng();
        assert_eq!(
            t.deliver(n(5), n(5), &mut r),
            Delivery::Arrives(SimDuration::from_micros(1))
        );
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_panic() {
        let mut t = Topology::new();
        t.add_link(n(0), n(1), LinkSpec::lan());
        t.add_link(n(1), n(0), LinkSpec::lan());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_links_panic() {
        let mut t = Topology::new();
        t.add_link(n(0), n(0), LinkSpec::lan());
    }
}
