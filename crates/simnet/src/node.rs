//! The [`Node`] trait and the [`Context`] handed to its handlers.
//!
//! A node is a passive state machine: the kernel calls its handlers when an
//! event addressed to it fires, and the node reacts by mutating its own
//! state and scheduling further work through the [`Context`]. Nodes never
//! hold references to each other — all interaction flows through the
//! kernel, which is what keeps runs deterministic.

use crate::http::{Request, RequestId, RequestOpts, Response, Token};
use crate::sim::Kernel;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

/// Identifier of a node within a simulation, assigned by [`crate::Sim::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Kernel-assigned handle of a scheduled timer; used to cancel it. It
/// names the timer's entry in the event queue — the slot the entry sits
/// in and the sequence number it was queued under — so a handle kept past
/// its timer's firing matches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    pub(crate) slot: u32,
    pub(crate) seq: u64,
}

/// Caller-chosen discriminant delivered back in `on_timer`.
///
/// Nodes typically define small constants (`const POLL_TICK: TimerKey = 1;`)
/// or pack an index into the key.
pub type TimerKey = u64;

/// What `on_request` tells the kernel to do.
pub enum HandlerResult {
    /// Send this response back to the requester now.
    Reply(Response),
    /// The node will answer later via [`Context::reply`] (it stored the
    /// request's [`RequestId`]), e.g. after querying a device.
    Deferred,
}

/// Behaviour of a simulated host.
///
/// All handlers have no-op defaults except `on_request`, which defaults to
/// `404 Not Found` — a node that does not speak HTTP simply never gets
/// requests sent to it.
#[allow(unused_variables)]
pub trait Node: Any {
    /// Called once when the simulation starts (or when the node is added to
    /// an already-running simulation).
    fn on_start(&mut self, ctx: &mut Context<'_>) {}

    /// An HTTP-like request arrived.
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        HandlerResult::Reply(Response::not_found())
    }

    /// A response to a request this node sent arrived (or timed out — check
    /// [`Response::is_timeout`]). `token` is the value passed to
    /// [`Context::send_request`].
    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {}

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {}

    /// A lightweight one-way message arrived (LAN push, radio frame, voice
    /// command, …). Signals share the link topology with requests but have
    /// no response or correlation machinery.
    fn on_signal(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {}
}

/// The node's window into the kernel during a handler call.
pub struct Context<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) node: NodeId,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The registered name of a node (empty string if unknown).
    pub fn node_name(&self, id: NodeId) -> &str {
        self.kernel.node_name(id)
    }

    /// This node's private random stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.kernel.node_rng(self.node)
    }

    /// Send a request to `dst`. The eventual response (or timeout) is
    /// delivered to `on_response` with the same `token`.
    pub fn send_request(
        &mut self,
        dst: NodeId,
        req: Request,
        token: Token,
        opts: RequestOpts,
    ) -> RequestId {
        self.kernel.send_request(self.node, dst, req, token, opts)
    }

    /// Answer a request that a previous `on_request` deferred.
    ///
    /// Replying twice to the same request id is ignored (first reply wins).
    pub fn reply(&mut self, req_id: RequestId, resp: Response) {
        self.kernel.send_response(self.node, req_id, resp);
    }

    /// Schedule `on_timer(key)` after `after` elapses. Returns a handle
    /// that can cancel it.
    pub fn set_timer(&mut self, after: SimDuration, key: TimerKey) -> TimerId {
        self.kernel
            .set_timer(self.node, self.kernel.now() + after, key)
    }

    /// Cancel a pending timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.cancel_timer(id);
    }

    /// Send a one-way signal to `dst` over the topology.
    pub fn signal(&mut self, dst: NodeId, payload: impl Into<Bytes>) {
        self.kernel.send_signal(self.node, dst, payload.into());
    }

    /// Record a trace event attributed to this node. `detail` is rendered
    /// only when the log is enabled, so call sites pass `format_args!(..)`
    /// without guarding.
    pub fn trace(&mut self, kind: &'static str, detail: fmt::Arguments<'_>) {
        let now = self.kernel.now();
        self.kernel.trace_mut().record(now, self.node, kind, detail);
    }
}
