//! Edge-case integration tests for the simulation kernel: behaviours that
//! the protocol stack above depends on but which unit tests don't pin down.

use bytes::Bytes;
use simnet::prelude::*;

/// Records everything; can defer replies indefinitely (never answers).
#[derive(Default)]
struct BlackHole {
    requests: u32,
}
impl Node for BlackHole {
    fn on_request(&mut self, _ctx: &mut Context<'_>, _req: &Request) -> HandlerResult {
        self.requests += 1;
        HandlerResult::Deferred // and never replies
    }
}

#[derive(Default)]
struct Client {
    responses: Vec<(Token, u16, SimTime)>,
}
impl Node for Client {
    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
        self.responses.push((token, resp.status, ctx.now()));
    }
}

#[test]
fn unanswered_request_with_timeout_resolves_exactly_once() {
    let mut sim = Sim::new(1);
    let hole = sim.add_node("hole", BlackHole::default());
    let client = sim.add_node("client", Client::default());
    sim.link(client, hole, LinkSpec::lan());
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(
            hole,
            Request::get("/x"),
            Token(1),
            RequestOpts::timeout_secs(5),
        );
    });
    sim.run_until_idle();
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.responses.len(), 1);
    assert_eq!(c.responses[0].1, simnet::http::STATUS_TIMEOUT);
    assert_eq!(c.responses[0].2, SimTime::from_secs(5));
    assert_eq!(sim.node_ref::<BlackHole>(hole).requests, 1);
}

#[test]
fn unanswered_request_without_timeout_hangs_silently() {
    let mut sim = Sim::new(2);
    let hole = sim.add_node("hole", BlackHole::default());
    let client = sim.add_node("client", Client::default());
    sim.link(client, hole, LinkSpec::lan());
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(hole, Request::get("/x"), Token(1), RequestOpts::default());
    });
    sim.run_until_idle();
    assert!(sim.node_ref::<Client>(client).responses.is_empty());
}

/// A responder that answers AFTER the caller's timeout has fired.
struct LateReplier {
    pending: Vec<RequestId>,
}
impl Node for LateReplier {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        self.pending.push(req.id);
        ctx.set_timer(SimDuration::from_secs(10), 0);
        HandlerResult::Deferred
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _key: TimerKey) {
        for id in self.pending.drain(..) {
            ctx.reply(id, Response::ok());
        }
    }
}

#[test]
fn late_reply_after_timeout_is_dropped() {
    let mut sim = Sim::new(3);
    let late = sim.add_node("late", LateReplier { pending: vec![] });
    let client = sim.add_node("client", Client::default());
    sim.link(client, late, LinkSpec::lan());
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(
            late,
            Request::get("/x"),
            Token(9),
            RequestOpts::timeout_secs(2),
        );
    });
    sim.run_until_idle();
    let c = sim.node_ref::<Client>(client);
    // Exactly one resolution: the timeout. The 10-second real reply must
    // not produce a second on_response.
    assert_eq!(c.responses.len(), 1);
    assert_eq!(c.responses[0].1, simnet::http::STATUS_TIMEOUT);
}

/// Two nodes exchanging signals through a chain of passive hops: latency
/// accumulates per hop and ordering is preserved per sender.
struct Hop;
impl Node for Hop {}

#[derive(Default)]
struct Sink {
    got: Vec<(SimTime, Bytes)>,
}
impl Node for Sink {
    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        self.got.push((ctx.now(), payload));
    }
}

#[test]
fn multi_hop_signals_preserve_order_and_accumulate_latency() {
    let mut sim = Sim::new(4);
    let src = sim.add_node("src", Hop);
    let a = sim.add_node("a", Hop);
    let b = sim.add_node("b", Hop);
    let sink = sim.add_node("sink", Sink::default());
    let ms = |x| SimDuration::from_millis(x);
    sim.link(
        src,
        a,
        simnet::net::LinkSpec::new(LatencyModel::fixed(ms(10))),
    );
    sim.link(
        a,
        b,
        simnet::net::LinkSpec::new(LatencyModel::fixed(ms(10))),
    );
    sim.link(
        b,
        sink,
        simnet::net::LinkSpec::new(LatencyModel::fixed(ms(10))),
    );
    sim.with_node::<Hop, _>(src, |_, ctx| {
        ctx.signal(sink, &b"one"[..]);
        ctx.signal(sink, &b"two"[..]);
    });
    sim.run_until_idle();
    let got = &sim.node_ref::<Sink>(sink).got;
    assert_eq!(got.len(), 2);
    assert_eq!(&got[0].1[..], b"one");
    assert_eq!(&got[1].1[..], b"two");
    assert_eq!(got[0].0, SimTime::from_micros(30_000));
}

/// Answers every request with 200.
struct Echo;
impl Node for Echo {
    fn on_request(&mut self, _c: &mut Context<'_>, _r: &Request) -> HandlerResult {
        HandlerResult::Reply(Response::ok())
    }
}

/// Send `GET /x` from `client` to `dst` now, without a timeout.
fn get(sim: &mut Sim, client: NodeId, dst: NodeId, token: u64) {
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(
            dst,
            Request::get("/x"),
            Token(token),
            RequestOpts::default(),
        );
    });
}

/// The rendered `(kind, detail)` of every trace line so far.
fn trace_lines(sim: &Sim) -> Vec<(&'static str, &str)> {
    let events = sim.trace().events().iter();
    events.map(|e| (e.kind, e.detail.as_str())).collect()
}

/// Nodes added mid-run interoperate with existing ones.
#[test]
fn hot_added_node_can_request_immediately() {
    let mut sim = Sim::new(5);
    let echo = sim.add_node("echo", Echo);
    sim.run_until(SimTime::from_secs(1_000));
    let client = sim.add_node("late_client", Client::default());
    sim.link(client, echo, LinkSpec::wan());
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(echo, Request::get("/"), Token(1), RequestOpts::default());
    });
    sim.run_until_idle();
    let c = sim.node_ref::<Client>(client);
    assert_eq!(c.responses.len(), 1);
    assert_eq!(c.responses[0].1, 200);
    assert!(c.responses[0].2 > SimTime::from_secs(1_000));
}

/// Timer keys are delivered verbatim, including extreme values used by the
/// engine's tagged-key scheme.
#[test]
fn timer_keys_roundtrip_verbatim() {
    #[derive(Default)]
    struct T {
        keys: Vec<TimerKey>,
    }
    impl Node for T {
        fn on_timer(&mut self, _c: &mut Context<'_>, key: TimerKey) {
            self.keys.push(key);
        }
    }
    let mut sim = Sim::new(6);
    let id = sim.add_node("t", T::default());
    let keys = [0u64, 1, u64::MAX, 1 << 56 | 42, (2 << 56) | 0xFFFF_FFFF];
    sim.with_node::<T, _>(id, |_, ctx| {
        for (i, k) in keys.iter().enumerate() {
            ctx.set_timer(SimDuration::from_secs(i as u64 + 1), *k);
        }
    });
    sim.run_until_idle();
    assert_eq!(sim.node_ref::<T>(id).keys, keys);
}

/// The churn cell's late service: a node added and linked after routes were
/// cached lies beyond every table the topology has built so far, is
/// unroutable until its link exists, and reachable (multi-hop) afterwards.
#[test]
fn node_linked_after_routes_were_cached_is_reachable() {
    let mut sim = Sim::new(7);
    let echo = sim.add_node("echo", Echo);
    let client = sim.add_node("client", Client::default());
    sim.link(client, echo, LinkSpec::lan());
    get(&mut sim, client, echo, 1);
    sim.run_until(SimTime::from_secs(1));
    let late = sim.add_node("late_service", Echo);
    get(&mut sim, client, late, 2);
    sim.run_until(SimTime::from_secs(2));
    sim.link(echo, late, LinkSpec::lan());
    get(&mut sim, client, late, 3);
    sim.run_until_idle();
    let c = sim.node_ref::<Client>(client);
    let got: Vec<(Token, u16)> = c.responses.iter().map(|r| (r.0, r.1)).collect();
    let timeout = simnet::http::STATUS_TIMEOUT;
    assert_eq!(got, [(Token(1), 200), (Token(2), timeout), (Token(3), 200)]);
    // Fail-fast: the unroutable request resolved one quantum after sending.
    assert_eq!(c.responses[1].2, SimTime::from_micros(1_000_001));
    assert_eq!(trace_lines(&sim), [("net.no_route", "dst=NodeId(2) /x")]);
}

/// A downed link gives the fail-fast timeout (not a hang, not a stale
/// cached route) and delivers again once restored.
#[test]
fn downed_link_fails_fast_and_delivers_again_once_restored() {
    let mut sim = Sim::new(8);
    let echo = sim.add_node("echo", Echo);
    let client = sim.add_node("client", Client::default());
    let link = sim.link(client, echo, LinkSpec::lan());
    let secs = SimTime::from_secs;
    sim.apply_fault_plan(&FaultPlan::new().link_outage(link, secs(10), secs(20)));
    for (token, at) in [(1, 5), (2, 15), (3, 25)] {
        sim.run_until(secs(at));
        get(&mut sim, client, echo, token);
    }
    sim.run_until_idle();
    let c = sim.node_ref::<Client>(client);
    let got: Vec<(Token, u16)> = c.responses.iter().map(|r| (r.0, r.1)).collect();
    let timeout = simnet::http::STATUS_TIMEOUT;
    assert_eq!(got, [(Token(1), 200), (Token(2), timeout), (Token(3), 200)]);
    assert_eq!(c.responses[1].2, SimTime::from_micros(15_000_001));
    assert_eq!(
        trace_lines(&sim),
        [
            ("chaos.fault_begin", "link=0 Outage"),
            ("net.no_route", "dst=NodeId(0) /x"),
            ("chaos.fault_end", ""),
        ]
    );
}

/// The kernel's own trace lines keep their text.
#[test]
fn kernel_trace_lines_keep_their_text() {
    let mut sim = Sim::new(9);
    let late = sim.add_node("late", LateReplier { pending: vec![] });
    let client = sim.add_node("client", Client::default());
    let link = sim.link(client, late, LinkSpec::lan());
    let secs = SimTime::from_secs;
    // The reply (10 s after the request) and the second request (at 5 s)
    // both fall inside the loss window.
    sim.apply_fault_plan(&FaultPlan::new().link_loss(link, 1.0, secs(1), secs(20)));
    let opts = RequestOpts::timeout_secs(30);
    let first = sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(late, Request::get("/path"), Token(1), opts)
    });
    sim.run_until(secs(5));
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(late, Request::post("/path"), Token(2), opts);
        ctx.signal(late, &b"s"[..]);
    });
    sim.run_until_idle();
    let lost_reply = format!("req={}", first.0);
    assert_eq!(
        trace_lines(&sim),
        [
            ("chaos.fault_begin", "link=0 Loss(1.0)"),
            ("net.request_lost", "POST /path"),
            ("net.signal_lost", "dst=NodeId(0)"),
            ("net.response_lost", lost_reply.as_str()),
            ("chaos.fault_end", ""),
        ]
    );
}

/// A disabled log never runs a formatter: call sites pass `format_args!`
/// unguarded and pay nothing for it.
#[test]
fn disabled_trace_never_formats() {
    struct Bomb;
    impl std::fmt::Display for Bomb {
        fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            panic!("a disabled log ran a formatter")
        }
    }
    let mut sim = Sim::new(10);
    let client = sim.add_node("client", Client::default());
    sim.trace_mut().set_enabled(false);
    sim.with_node::<Client, _>(client, |_, ctx| ctx.trace("k", format_args!("{}", Bomb)));
    get(&mut sim, client, NodeId(9), 1); // `net.no_route`, unrendered
    sim.run_until_idle();
    assert!(sim.trace().events().is_empty());
    assert_eq!(sim.node_ref::<Client>(client).responses.len(), 1);
}

/// Records the keys of the timers that reach it.
#[derive(Default)]
struct Timers {
    fired: Vec<TimerKey>,
}
impl Node for Timers {
    fn on_timer(&mut self, _ctx: &mut Context<'_>, key: TimerKey) {
        self.fired.push(key);
    }
}

fn set_timer(sim: &mut Sim, node: NodeId, secs: u64, key: TimerKey) -> TimerId {
    sim.with_node::<Timers, _>(node, |_, ctx| {
        ctx.set_timer(SimDuration::from_secs(secs), key)
    })
}

fn cancel_timer(sim: &mut Sim, node: NodeId, id: TimerId) {
    sim.with_node::<Timers, _>(node, |_, ctx| ctx.cancel_timer(id));
}

fn fired(sim: &Sim, node: NodeId) -> &[TimerKey] {
    &sim.node_ref::<Timers>(node).fired
}

/// A cancel that arrives after the timer fired finds nothing to mark, and
/// keeps nothing: the timer queued next — in the slot the fired one gave
/// back — is delivered.
#[test]
fn cancelling_a_fired_timer_is_a_no_op() {
    let mut sim = Sim::new(20);
    let node = sim.add_node("t", Timers::default());
    let first = set_timer(&mut sim, node, 1, 1);
    sim.run_until_idle();
    assert_eq!(fired(&sim, node), [1]);
    let processed = sim.events_processed();
    cancel_timer(&mut sim, node, first);
    cancel_timer(&mut sim, node, first);
    assert_eq!(sim.events_processed(), processed);
    set_timer(&mut sim, node, 1, 2);
    sim.run_until_idle();
    assert_eq!(fired(&sim, node), [1, 2]);
    assert_eq!(sim.events_processed(), processed + 1);
}

/// A handle names one entry, not a slot: once its timer has popped — fired
/// or cancelled — cancelling through it again cannot reach whatever entry
/// took the slot over, timer or message.
#[test]
fn a_stale_handle_never_kills_the_slots_next_occupant() {
    let mut sim = Sim::new(21);
    let node = sim.add_node("t", Timers::default());
    sim.run_until_idle(); // the start event gives its slot back
    let fired_one = set_timer(&mut sim, node, 1, 1);
    sim.run_until_idle();
    let cancelled_one = set_timer(&mut sim, node, 1, 2);
    assert_ne!(fired_one, cancelled_one, "same slot, another entry");
    cancel_timer(&mut sim, node, fired_one);
    cancel_timer(&mut sim, node, cancelled_one);
    sim.run_until_idle();
    assert_eq!(fired(&sim, node), [1]);
    // One pending entry at a time, so each of these sits in that slot.
    for key in 3..6 {
        let live = set_timer(&mut sim, node, 1, key);
        cancel_timer(&mut sim, node, fired_one);
        cancel_timer(&mut sim, node, cancelled_one);
        sim.run_until_idle();
        assert_eq!(fired(&sim, node).last(), Some(&key));
        cancel_timer(&mut sim, node, live);
    }
    // A signal in the slot is out of a timer handle's reach too.
    let sink = sim.add_node("sink", Sink::default());
    sim.link(node, sink, LinkSpec::lan());
    sim.run_until_idle();
    sim.with_node::<Timers, _>(node, |_, ctx| {
        ctx.signal(sink, &b"x"[..]);
        ctx.cancel_timer(fired_one);
        ctx.cancel_timer(cancelled_one);
    });
    sim.run_until_idle();
    assert_eq!(sim.node_ref::<Sink>(sink).got.len(), 1);
}

/// A cancelled timer keeps its place in the queue: it pops at its tick and
/// is one processed event (fleet digests count it), and no node's.
#[test]
fn a_cancelled_timer_is_one_processed_event_and_no_nodes() {
    let mut sim = Sim::new(22);
    let node = sim.add_node("t", Timers::default());
    sim.run_until_idle();
    let (processed, delivered) = (sim.events_processed(), sim.node_events(node));
    let doomed = set_timer(&mut sim, node, 5, 1);
    cancel_timer(&mut sim, node, doomed);
    cancel_timer(&mut sim, node, doomed); // twice is once
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(sim.events_processed(), processed, "not before its tick");
    sim.run_until_idle();
    assert_eq!(sim.now(), SimTime::from_secs(5), "it popped at its tick");
    assert_eq!(sim.events_processed(), processed + 1);
    assert_eq!(sim.node_events(node), delivered);
    assert!(fired(&sim, node).is_empty());
}

/// Beyond the wheel's ~19-hour reach an entry waits in the overflow map and
/// is linked into the wheel when time gets there; a cancel that found it in
/// the map holds through that move, and its live neighbour is delivered.
#[test]
fn a_timer_cancelled_in_the_overflow_map_stays_dead() {
    const DAY: u64 = 86_400;
    let mut sim = Sim::new(23);
    let node = sim.add_node("t", Timers::default());
    let doomed = set_timer(&mut sim, node, 2 * DAY, 1);
    set_timer(&mut sim, node, 2 * DAY, 2);
    set_timer(&mut sim, node, 60, 3);
    cancel_timer(&mut sim, node, doomed);
    sim.run_until(SimTime::from_secs(DAY));
    assert_eq!(fired(&sim, node), [3]);
    let processed = sim.events_processed();
    sim.run_until_idle();
    assert_eq!(fired(&sim, node), [3, 2]);
    assert_eq!(sim.events_processed(), processed + 2);
}

/// Counts the requests it answers, and answers each with 200 at once.
#[derive(Default)]
struct CountingEcho {
    requests: u32,
}
impl Node for CountingEcho {
    fn on_request(&mut self, _c: &mut Context<'_>, _r: &Request) -> HandlerResult {
        self.requests += 1;
        HandlerResult::Reply(Response::ok())
    }
}

/// A request that outlives its requester's timeout is still delivered:
/// the responder runs once, at the arrival, and its reply finds nothing
/// to conclude; the requester hears the timeout once, at its deadline.
#[test]
fn a_request_slower_than_its_timeout_still_reaches_the_responder() {
    let mut sim = Sim::new(24);
    let echo = sim.add_node("echo", CountingEcho::default());
    let client = sim.add_node("client", Client::default());
    let five_s = LinkSpec::new(LatencyModel::fixed(SimDuration::from_secs(5)));
    sim.link(client, echo, five_s);
    sim.with_node::<Client, _>(client, |_, ctx| {
        ctx.send_request(
            echo,
            Request::get("/x"),
            Token(1),
            RequestOpts::timeout_secs(2),
        );
    });
    sim.run_until_idle();
    assert_eq!(sim.node_ref::<CountingEcho>(echo).requests, 1);
    let c = sim.node_ref::<Client>(client);
    let timeout = simnet::http::STATUS_TIMEOUT;
    assert_eq!(c.responses, [(Token(1), timeout, SimTime::from_secs(2))]);
    // The reply was dropped at the responder: nothing was queued after
    // the request arrived at 5 s, and nothing was lost in transit.
    assert_eq!(sim.now(), SimTime::from_secs(5));
    assert!(sim.trace().events().is_empty());
    // Two starts, the timeout and the delivery; the dropped reply queued
    // nothing.
    assert_eq!(sim.events_processed(), 4);
    assert_eq!((sim.node_events(echo), sim.node_events(client)), (2, 2));
}
