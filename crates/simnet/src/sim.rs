//! The simulation kernel: event queue, dispatch loop, and the public
//! [`Sim`] driver.

use crate::chaos::{FaultPlan, FaultTarget, LinkFault};
use crate::error::SimError;
use crate::http::{Request, RequestId, RequestOpts, Response, Token};
use crate::net::{Delivery, LinkId, LinkSpec, Topology};
use crate::node::{Context, HandlerResult, Node, NodeId, TimerId, TimerKey};
use crate::rng::stream_rng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;
use crate::wheel::TimerWheel;
use bytes::Bytes;
use mem::{FxHashMap, Slab};
use rand::rngs::StdRng;
use std::any::Any;

/// Reserved RNG stream indices (node streams start at `STREAM_NODE_BASE`).
const STREAM_NET: u64 = 1;
const STREAM_HARNESS: u64 = 2;
const STREAM_NODE_BASE: u64 = 1_000;

/// The node id the kernel's own `chaos.*` trace lines are attributed to.
const KERNEL_NODE: NodeId = NodeId(u32::MAX);

/// Default event budget for [`Sim::run_until_idle`].
const DEFAULT_EVENT_BUDGET: u64 = 20_000_000;

#[derive(Debug)]
enum Ev {
    Start(NodeId),
    DeliverRequest(Request),
    DeliverResponse {
        req_id: RequestId,
        resp: Response,
    },
    RequestTimeout(RequestId),
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    /// What [`Kernel::cancel_timer`] leaves in a timer's wheel entry: it
    /// pops at the timer's tick and is counted, and reaches no node.
    Cancelled,
    Signal {
        src: NodeId,
        dst: NodeId,
        payload: Bytes,
    },
    /// A fault window opening (`begin`) or closing on `kernel.faults[entry]`.
    Fault {
        entry: usize,
        begin: bool,
    },
}

/// One applied fault window, resolved to concrete links.
struct FaultEntry {
    links: Vec<LinkId>,
    fault: LinkFault,
    /// Pre-fault state captured when the window opens, restored when it
    /// closes: `(link, loss, up)`.
    saved: Vec<(LinkId, f64, bool)>,
}

struct Pending {
    origin: NodeId,
    responder: NodeId,
    token: Token,
    /// Set once a response has been *scheduled for delivery* (so a timeout
    /// racing a scheduled response loses) or delivered.
    answered: bool,
    /// Whether the origin armed a timeout. A response lost in transit can
    /// then still resolve as [`Response::timeout`] instead of silently
    /// hanging the requester forever.
    has_timeout: bool,
}

/// Internal kernel state shared with [`Context`].
pub struct Kernel {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<Ev>,
    topology: Topology,
    node_names: Vec<String>,
    node_rngs: Vec<StdRng>,
    net_rng: StdRng,
    harness_rng: StdRng,
    master_seed: u64,
    /// In-flight requests. A [`RequestId`] *is* the slab handle — never
    /// zero (so `Request::new`'s `RequestId(0)` sentinel cannot collide),
    /// generation-checked (a concluded request's id misses instead of
    /// aliasing a recycled slot), and resolved by index, not by hashing.
    pending: Slab<Pending>,
    trace: TraceLog,
    processed: u64,
    signal_fronts: FxHashMap<(NodeId, NodeId), SimTime>,
    /// Applied fault windows; indexed by `Ev::Fault::entry`.
    faults: Vec<FaultEntry>,
    /// Handler invocations per node (start/request/response/timeout/timer/
    /// signal deliveries), indexed by `NodeId`.
    node_events: Vec<u64>,
}

impl Kernel {
    fn new(master_seed: u64) -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            topology: Topology::new(),
            node_names: Vec::new(),
            node_rngs: Vec::new(),
            net_rng: stream_rng(master_seed, STREAM_NET),
            harness_rng: stream_rng(master_seed, STREAM_HARNESS),
            master_seed,
            pending: Slab::new(),
            trace: TraceLog::default(),
            processed: 0,
            signal_fronts: FxHashMap::default(),
            faults: Vec::new(),
            node_events: Vec::new(),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn node_name(&self, id: NodeId) -> &str {
        self.node_names
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    pub(crate) fn node_rng(&mut self, id: NodeId) -> &mut StdRng {
        &mut self.node_rngs[id.0 as usize]
    }

    pub(crate) fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Queue `ev` for `at`; the answer names its wheel entry.
    fn schedule(&mut self, at: SimTime, ev: Ev) -> TimerId {
        let seq = self.seq;
        self.seq += 1;
        // The wheel clamps a second time against its own clock, which may
        // lag `self.now` but never passes it (`pop_at_or_before`); the
        // kernel clamp against `self.now` is the authoritative one.
        let slot = self.queue.push(at.max(self.now).as_micros(), seq, ev);
        TimerId { slot, seq }
    }

    pub(crate) fn send_request(
        &mut self,
        src: NodeId,
        dst: NodeId,
        mut req: Request,
        token: Token,
        opts: RequestOpts,
    ) -> RequestId {
        let id = RequestId(self.pending.insert(Pending {
            origin: src,
            responder: dst,
            token,
            answered: false,
            has_timeout: opts.timeout.is_some(),
        }));
        req.id = id;
        req.src = src;
        req.dst = dst;
        match self.topology.deliver(src, dst, &mut self.net_rng) {
            Delivery::Arrives(d) => {
                let at = self.now + d;
                self.schedule(at, Ev::DeliverRequest(req));
            }
            Delivery::Lost => {
                let detail = format_args!("{} {}", req.method, req.path);
                self.trace.record(self.now, src, "net.request_lost", detail);
            }
            Delivery::NoRoute => {
                let detail = format_args!("dst={dst:?} {}", req.path);
                self.trace.record(self.now, src, "net.no_route", detail);
                // Fail fast: an unroutable request resolves as a timeout
                // one quantum later, even without an explicit timeout.
                self.schedule(
                    self.now + SimDuration::from_micros(1),
                    Ev::RequestTimeout(id),
                );
            }
        }
        if let Some(t) = opts.timeout {
            self.schedule(self.now + t, Ev::RequestTimeout(id));
        }
        id
    }

    pub(crate) fn send_response(&mut self, from: NodeId, req_id: RequestId, resp: Response) {
        let Some(p) = self.pending.get_mut(req_id.0) else {
            // Request already concluded (timed out, or duplicate reply).
            return;
        };
        if p.answered || p.responder != from {
            return;
        }
        let origin = p.origin;
        match self.topology.deliver(from, origin, &mut self.net_rng) {
            Delivery::Arrives(d) => {
                p.answered = true;
                let at = self.now + d;
                self.schedule(at, Ev::DeliverResponse { req_id, resp });
            }
            Delivery::Lost | Delivery::NoRoute => {
                let detail = format_args!("req={}", req_id.0);
                self.trace
                    .record(self.now, from, "net.response_lost", detail);
                // The origin can only learn of this via its timeout, so the
                // pending entry must stay un-answered until that fires.
                // Without a timeout nothing will ever conclude the request:
                // drop the entry here rather than leak it.
                if !p.has_timeout {
                    self.pending.remove(req_id.0);
                }
            }
        }
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, at: SimTime, key: TimerKey) -> TimerId {
        self.schedule(at, Ev::Timer { node, key })
    }

    /// Overwrite the timer's wheel entry in place. A handle whose timer
    /// fired, or whose slot went on to another entry, misses on `seq`;
    /// a hit can only be the `Ev::Timer` the handle was minted for.
    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        if let Some(ev) = self.queue.get_mut(id.slot, id.seq) {
            *ev = Ev::Cancelled;
        }
    }

    /// Open (`begin`) or close a fault window: degrade the entry's links,
    /// or restore the state captured when the window opened.
    fn toggle_fault(&mut self, entry: usize, begin: bool) {
        let e = &mut self.faults[entry];
        if begin {
            e.saved.clear();
            for &link in &e.links {
                let (Some(spec), Some(up)) = (
                    self.topology.link_spec(link),
                    self.topology.is_link_up(link),
                ) else {
                    continue;
                };
                e.saved.push((link, spec.loss, up));
                match e.fault {
                    LinkFault::Outage => self.topology.set_link_up(link, false),
                    LinkFault::Loss(loss) => self.topology.set_link_loss(link, loss),
                }
            }
            if let Some(&(link, _, _)) = e.saved.first() {
                let detail = format_args!("link={} {:?}", link.0, e.fault);
                self.trace
                    .record(self.now, KERNEL_NODE, "chaos.fault_begin", detail);
            }
        } else {
            for (link, loss, up) in std::mem::take(&mut e.saved) {
                self.topology.set_link_loss(link, loss);
                self.topology.set_link_up(link, up);
            }
            self.trace
                .record(self.now, KERNEL_NODE, "chaos.fault_end", format_args!(""));
        }
    }

    pub(crate) fn send_signal(&mut self, src: NodeId, dst: NodeId, payload: Bytes) {
        match self.topology.deliver(src, dst, &mut self.net_rng) {
            Delivery::Arrives(d) => {
                // Signals model an ordered (TCP-like) channel: a signal never
                // overtakes an earlier one on the same (src, dst) pair, even
                // when the later latency draw is smaller.
                let mut at = self.now + d;
                if let Some(front) = self.signal_fronts.get(&(src, dst)) {
                    at = at.max(*front);
                }
                self.signal_fronts.insert((src, dst), at);
                self.schedule(at, Ev::Signal { src, dst, payload });
            }
            Delivery::Lost => {
                let detail = format_args!("dst={dst:?}");
                self.trace.record(self.now, src, "net.signal_lost", detail);
            }
            Delivery::NoRoute => {
                let detail = format_args!("signal dst={dst:?}");
                self.trace.record(self.now, src, "net.no_route", detail);
            }
        }
    }
}

/// A complete simulation: kernel plus the nodes it drives.
///
/// See the crate-level docs for an end-to-end example.
pub struct Sim {
    kernel: Kernel,
    nodes: Vec<Box<dyn Node>>,
}

impl Sim {
    /// Create a simulation seeded with `master_seed`. Two `Sim`s built the
    /// same way from the same seed produce identical event histories.
    pub fn new(master_seed: u64) -> Self {
        Sim {
            kernel: Kernel::new(master_seed),
            nodes: Vec::new(),
        }
    }

    /// The master seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.kernel.master_seed
    }

    /// Register a node. Its `on_start` runs at the current instant (time
    /// zero if the simulation has not been driven yet).
    pub fn add_node(&mut self, name: impl Into<String>, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Box::new(node));
        self.kernel.node_names.push(name.into());
        let stream = STREAM_NODE_BASE + id.0 as u64;
        self.kernel
            .node_rngs
            .push(stream_rng(self.kernel.master_seed, stream));
        self.kernel.node_events.push(0);
        let now = self.kernel.now;
        self.kernel.schedule(now, Ev::Start(id));
        id
    }

    /// Connect two nodes with an undirected link.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        self.kernel.topology.add_link(a, b, spec)
    }

    /// Schedule a [`FaultPlan`] on the kernel queue.
    ///
    /// Each window resolves to the concrete links it degrades (node targets
    /// expand to every link touching the node *now*) and contributes two
    /// queue events — open and close — that interleave deterministically
    /// with traffic. Link state is captured at open and restored at close.
    /// Applying an empty plan schedules nothing, so a disabled chaos path
    /// leaves the event sequence untouched.
    ///
    /// # Panics
    /// Panics if a window references an unknown link or a node with no
    /// links: a plan that silently degrades nothing is a harness bug.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for w in &plan.windows {
            let links = match w.target {
                FaultTarget::Link(id) => {
                    assert!(
                        self.kernel.topology.link_spec(id).is_some(),
                        "fault plan references unknown link {id:?}"
                    );
                    vec![id]
                }
                FaultTarget::Node(node) => {
                    let links = self.kernel.topology.links_touching(node);
                    assert!(
                        !links.is_empty(),
                        "fault plan targets node {node:?} which has no links"
                    );
                    links
                }
            };
            let entry = self.kernel.faults.len();
            self.kernel.faults.push(FaultEntry {
                links,
                fault: w.fault,
                saved: Vec::new(),
            });
            self.kernel
                .schedule(w.start, Ev::Fault { entry, begin: true });
            self.kernel.schedule(
                w.end,
                Ev::Fault {
                    entry,
                    begin: false,
                },
            );
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The shared trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.kernel.trace
    }

    /// Mutable trace log (to clear between experiment repetitions).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.kernel.trace
    }

    /// An RNG stream reserved for harness-level decisions (workload
    /// generation etc.), independent of node streams.
    pub fn harness_rng(&mut self) -> &mut StdRng {
        &mut self.kernel.harness_rng
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.processed
    }

    /// Handler invocations delivered to `id` so far (start, request,
    /// response, timeout, timer, and signal deliveries). Events that die
    /// before reaching a handler (cancelled timers, lost messages) are not
    /// attributed to any node.
    pub fn node_events(&self, id: NodeId) -> u64 {
        self.kernel
            .node_events
            .get(id.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Per-node handler-invocation counters, indexed by `NodeId`.
    pub fn node_event_counts(&self) -> &[u64] {
        &self.kernel.node_events
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Process the next event unless it is due after `limit` (or there is
    /// none): one look at the queue per event.
    fn step_until(&mut self, limit: SimTime) -> bool {
        let Some((at, _seq, ev)) = self.kernel.queue.pop_at_or_before(limit.as_micros()) else {
            return false;
        };
        let at = SimTime::from_micros(at);
        debug_assert!(at >= self.kernel.now, "time went backwards");
        self.kernel.now = at;
        self.kernel.processed += 1;
        self.dispatch(ev);
        true
    }

    /// Run until no events remain, up to the default event budget.
    pub fn run_until_idle(&mut self) {
        self.try_run_until_idle(DEFAULT_EVENT_BUDGET)
            .expect("simulation exceeded default event budget");
    }

    /// Run until idle or until `budget` events have been processed.
    pub fn try_run_until_idle(&mut self, budget: u64) -> Result<u64, SimError> {
        let start = self.kernel.processed;
        while !self.kernel.queue.is_empty() {
            if self.kernel.processed - start >= budget {
                return Err(SimError::EventBudgetExhausted {
                    processed: self.kernel.processed,
                });
            }
            self.step();
        }
        Ok(self.kernel.processed - start)
    }

    /// Process all events scheduled at or before `t`, then advance the
    /// clock to exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_until(t) {}
        if t > self.kernel.now {
            self.kernel.now = t;
        }
    }

    /// Run for a further `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.kernel.now + d;
        self.run_until(t);
    }

    /// Immutable typed view of a node.
    ///
    /// # Panics
    /// Panics if `id` is unknown or the node is not a `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.try_node_ref(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Immutable typed view of a node, fallibly.
    pub fn try_node_ref<T: Node>(&self, id: NodeId) -> Result<&T, SimError> {
        let slot = self
            .nodes
            .get(id.0 as usize)
            .ok_or(SimError::UnknownNode(id))?;
        (slot.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .ok_or(SimError::WrongNodeType {
                node: id,
                expected: std::any::type_name::<T>(),
            })
    }

    /// Mutable typed view of a node (state inspection / out-of-band config).
    /// For interactions that must schedule events, use [`Sim::with_node`].
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        typed_mut(&mut self.nodes, id)
    }

    /// Call `f` with a typed node *and* a [`Context`], so harness code can
    /// poke a node in a way that schedules events (e.g. injecting an email
    /// into the simulated Gmail).
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_>) -> R,
    ) -> R {
        let mut ctx = Context {
            kernel: &mut self.kernel,
            node: id,
        };
        f(typed_mut(&mut self.nodes, id), &mut ctx)
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Start(id) => {
                self.deliver(id, |node, ctx| node.on_start(ctx));
            }
            Ev::DeliverRequest(req) => {
                let dst = req.dst;
                let req_id = req.id;
                let result = self.deliver(dst, |node, ctx| node.on_request(ctx, &req));
                if let Some(HandlerResult::Reply(resp)) = result {
                    self.kernel.send_response(dst, req_id, resp);
                }
            }
            Ev::DeliverResponse { req_id, resp } => {
                if let Some(p) = self.kernel.pending.remove(req_id.0) {
                    self.deliver(p.origin, |node, ctx| node.on_response(ctx, p.token, resp));
                }
            }
            Ev::RequestTimeout(req_id) => {
                // Only fires if the response has not been delivered; a
                // response *scheduled* but not yet delivered still loses to
                // the timeout (it was too late), unless already answered and
                // in flight — in that case we let the in-flight copy win by
                // checking `answered`.
                let fire = match self.kernel.pending.get(req_id.0) {
                    Some(p) => !p.answered,
                    None => false,
                };
                if fire {
                    let p = self.kernel.pending.remove(req_id.0).expect("checked");
                    self.deliver(p.origin, |node, ctx| {
                        node.on_response(ctx, p.token, Response::timeout())
                    });
                }
            }
            Ev::Timer { node, key } => {
                self.deliver(node, |n, ctx| n.on_timer(ctx, key));
            }
            Ev::Cancelled => {}
            Ev::Signal { src, dst, payload } => {
                self.deliver(dst, |n, ctx| n.on_signal(ctx, src, payload));
            }
            Ev::Fault { entry, begin } => {
                self.kernel.toggle_fault(entry, begin);
            }
        }
    }

    /// Run one handler of node `id`, counted as one of its events. The
    /// node is borrowed where it sits: `nodes` and `kernel` are disjoint
    /// fields and a handler reaches the kernel only. `None` for an id no
    /// `add_node` minted (a queued event never carries one).
    fn deliver<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn Node, &mut Context<'_>) -> R,
    ) -> Option<R> {
        let node = self.nodes.get_mut(id.0 as usize)?;
        self.kernel.node_events[id.0 as usize] += 1;
        let mut ctx = Context {
            kernel: &mut self.kernel,
            node: id,
        };
        Some(f(node.as_mut(), &mut ctx))
    }
}

/// Node `id` as the `T` it was added as.
///
/// # Panics
/// Panics if `id` is unknown or the node is not a `T`.
fn typed_mut<T: Node>(nodes: &mut [Box<dyn Node>], id: NodeId) -> &mut T {
    let node = nodes
        .get_mut(id.0 as usize)
        .unwrap_or_else(|| panic!("unknown node {id:?}"));
    (node.as_mut() as &mut dyn Any)
        .downcast_mut::<T>()
        .unwrap_or_else(|| panic!("node {id:?} is not a {}", std::any::type_name::<T>()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    /// Replies 200 to POST /echo with the request body; 404 otherwise.
    struct Echo {
        requests_seen: u32,
    }
    impl Node for Echo {
        fn on_request(&mut self, _ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
            self.requests_seen += 1;
            if req.method == Method::Post && req.path == "/echo" {
                HandlerResult::Reply(Response::ok().with_body(req.body.clone()))
            } else {
                HandlerResult::Reply(Response::not_found())
            }
        }
    }

    /// Defers its reply by 100 ms using a timer.
    struct SlowEcho {
        pending: Vec<RequestId>,
    }
    impl Node for SlowEcho {
        fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
            self.pending.push(req.id);
            ctx.set_timer(SimDuration::from_millis(100), 0);
            HandlerResult::Deferred
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _key: TimerKey) {
            let id = self.pending.remove(0);
            ctx.reply(id, Response::ok());
        }
    }

    #[derive(Default)]
    struct Probe {
        target: Option<NodeId>,
        send_at_start: bool,
        timeout: Option<SimDuration>,
        responses: Vec<(Token, u16, SimTime)>,
        signals: Vec<Bytes>,
        timers: Vec<(TimerKey, SimTime)>,
    }
    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.send_at_start {
                let opts = RequestOpts {
                    timeout: self.timeout,
                };
                ctx.send_request(
                    self.target.unwrap(),
                    Request::post("/echo").with_body("hi"),
                    Token(7),
                    opts,
                );
            }
        }
        fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
            self.responses.push((token, resp.status, ctx.now()));
        }
        fn on_signal(&mut self, _ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
            self.signals.push(payload);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
            let now = ctx.now();
            self.timers.push((key, now));
        }
    }

    fn fixed(ms: u64) -> LinkSpec {
        LinkSpec::new(crate::net::LatencyModel::fixed(SimDuration::from_millis(
            ms,
        )))
    }

    #[test]
    fn request_response_roundtrip_takes_two_link_traversals() {
        let mut sim = Sim::new(1);
        let echo = sim.add_node("echo", Echo { requests_seen: 0 });
        let probe = sim.add_node(
            "probe",
            Probe {
                target: Some(echo),
                send_at_start: true,
                ..Probe::default()
            },
        );
        sim.link(probe, echo, fixed(10));
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.responses.len(), 1);
        let (token, status, at) = p.responses[0];
        assert_eq!(token, Token(7));
        assert_eq!(status, 200);
        assert_eq!(at, SimTime::from_micros(20_000));
        assert_eq!(sim.node_ref::<Echo>(echo).requests_seen, 1);
    }

    #[test]
    fn deferred_reply_arrives_after_processing_delay() {
        let mut sim = Sim::new(2);
        let slow = sim.add_node("slow", SlowEcho { pending: vec![] });
        let probe = sim.add_node(
            "probe",
            Probe {
                target: Some(slow),
                send_at_start: true,
                ..Probe::default()
            },
        );
        sim.link(probe, slow, fixed(5));
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.responses.len(), 1);
        // 5ms there + 100ms processing + 5ms back.
        assert_eq!(p.responses[0].2, SimTime::from_micros(110_000));
    }

    #[test]
    fn timeout_fires_when_no_route() {
        let mut sim = Sim::new(3);
        let echo = sim.add_node("echo", Echo { requests_seen: 0 });
        let probe = sim.add_node(
            "probe",
            Probe {
                target: Some(echo),
                send_at_start: true,
                ..Probe::default()
            },
        );
        // No link at all.
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.responses.len(), 1);
        assert_eq!(p.responses[0].1, crate::http::STATUS_TIMEOUT);
    }

    #[test]
    fn timeout_fires_on_lossy_link() {
        let mut sim = Sim::new(4);
        let echo = sim.add_node("echo", Echo { requests_seen: 0 });
        let probe = sim.add_node(
            "probe",
            Probe {
                target: Some(echo),
                send_at_start: true,
                timeout: Some(SimDuration::from_secs(2)),
                ..Probe::default()
            },
        );
        sim.link(probe, echo, fixed(10).with_loss(1.0));
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.responses.len(), 1);
        assert!(p.responses[0].1 == crate::http::STATUS_TIMEOUT);
        assert_eq!(p.responses[0].2, SimTime::from_secs(2));
    }

    #[test]
    fn response_beats_later_timeout_and_timeout_is_not_doubled() {
        let mut sim = Sim::new(5);
        let echo = sim.add_node("echo", Echo { requests_seen: 0 });
        let probe = sim.add_node(
            "probe",
            Probe {
                target: Some(echo),
                send_at_start: true,
                timeout: Some(SimDuration::from_secs(10)),
                ..Probe::default()
            },
        );
        sim.link(probe, echo, fixed(1));
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe);
        assert_eq!(p.responses.len(), 1);
        assert_eq!(p.responses[0].1, 200);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct T {
            fired: Vec<TimerKey>,
            cancel_handle: Option<TimerId>,
        }
        impl Node for T {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_secs(3), 3);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                let h = ctx.set_timer(SimDuration::from_secs(2), 2);
                self.cancel_handle = Some(h);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
                self.fired.push(key);
                if key == 1 {
                    let h = self.cancel_handle.take().unwrap();
                    ctx.cancel_timer(h);
                }
            }
        }
        let mut sim = Sim::new(6);
        let id = sim.add_node(
            "t",
            T {
                fired: vec![],
                cancel_handle: None,
            },
        );
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<T>(id).fired, vec![1, 3]);
    }

    #[test]
    fn signals_are_delivered_with_latency() {
        let mut sim = Sim::new(7);
        let a = sim.add_node("a", Probe::default());
        let b = sim.add_node("b", Probe::default());
        sim.link(a, b, fixed(8));
        sim.with_node::<Probe, _>(a, |_, ctx| ctx.signal(b, &b"ping"[..]));
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<Probe>(b).signals,
            vec![Bytes::from_static(b"ping")]
        );
        assert_eq!(sim.now(), SimTime::from_micros(8_000));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Sim::new(8);
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(sim.now(), SimTime::from_secs(42));
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim = Sim::new(9);
        let id = sim.add_node("t", Probe::default());
        sim.with_node::<Probe, _>(id, |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(10), 99);
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.node_ref::<Probe>(id).timers.is_empty());
        sim.run_until(SimTime::from_secs(15));
        assert_eq!(
            sim.node_ref::<Probe>(id).timers,
            vec![(99, SimTime::from_secs(10))]
        );
    }

    #[test]
    fn event_budget_catches_livelock() {
        /// Two nodes ping-ponging signals forever at zero-ish delay.
        struct Pinger {
            peer: Option<NodeId>,
        }
        impl Node for Pinger {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                if let Some(p) = self.peer {
                    ctx.signal(p, &b"x"[..]);
                }
            }
            fn on_signal(&mut self, ctx: &mut Context<'_>, from: NodeId, _p: Bytes) {
                ctx.signal(from, &b"x"[..]);
            }
        }
        let mut sim = Sim::new(10);
        let a = sim.add_node("a", Pinger { peer: None });
        let b = sim.add_node("b", Pinger { peer: Some(a) });
        sim.link(a, b, fixed(1));
        let err = sim.try_run_until_idle(1_000).unwrap_err();
        assert!(matches!(err, SimError::EventBudgetExhausted { .. }));
    }

    #[test]
    fn same_seed_same_history_different_seed_diverges() {
        fn history(seed: u64) -> Vec<SimTime> {
            let mut sim = Sim::new(seed);
            let echo = sim.add_node("echo", Echo { requests_seen: 0 });
            let probe = sim.add_node(
                "probe",
                Probe {
                    target: Some(echo),
                    send_at_start: true,
                    ..Probe::default()
                },
            );
            sim.link(probe, echo, LinkSpec::wan());
            sim.run_until_idle();
            sim.node_ref::<Probe>(probe)
                .responses
                .iter()
                .map(|r| r.2)
                .collect()
        }
        assert_eq!(history(11), history(11));
        assert_ne!(history(11), history(12));
    }

    #[test]
    fn per_node_event_counters_attribute_deliveries() {
        let mut sim = Sim::new(21);
        let echo = sim.add_node("echo", Echo { requests_seen: 0 });
        let probe = sim.add_node(
            "probe",
            Probe {
                target: Some(echo),
                send_at_start: true,
                ..Probe::default()
            },
        );
        sim.link(probe, echo, fixed(10));
        sim.run_until_idle();
        // echo: Start + DeliverRequest; probe: Start + DeliverResponse.
        assert_eq!(sim.node_events(echo), 2);
        assert_eq!(sim.node_events(probe), 2);
        assert_eq!(
            sim.node_event_counts().iter().sum::<u64>(),
            sim.events_processed()
        );
    }

    #[test]
    fn wrong_type_downcast_errors() {
        let mut sim = Sim::new(13);
        let id = sim.add_node("echo", Echo { requests_seen: 0 });
        let err = sim.try_node_ref::<Probe>(id).err().unwrap();
        assert!(matches!(err, SimError::WrongNodeType { .. }));
    }

    #[test]
    fn late_added_node_starts_at_current_time() {
        let mut sim = Sim::new(14);
        sim.run_until(SimTime::from_secs(100));
        struct S {
            started_at: Option<SimTime>,
        }
        impl Node for S {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.started_at = Some(ctx.now());
            }
        }
        let id = sim.add_node("s", S { started_at: None });
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<S>(id).started_at,
            Some(SimTime::from_secs(100))
        );
    }
}
