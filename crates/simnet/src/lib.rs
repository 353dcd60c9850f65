//! # simnet — a deterministic discrete-event network simulator
//!
//! `simnet` is the substrate under the whole IFTTT reproduction. It provides:
//!
//! * a virtual clock ([`SimTime`], [`SimDuration`]) with microsecond
//!   resolution — no wall-clock time ever enters a simulation result;
//! * an event-driven kernel ([`Sim`]) that owns a set of [`Node`]s and
//!   dispatches timer, request, response and signal events in deterministic
//!   order (time, then insertion sequence);
//! * a network topology of links with configurable [`LatencyModel`]s, loss
//!   probability and up/down state, with min-hop routing between nodes
//!   ([`net`]);
//! * an HTTP-like request/response transport ([`http`]) with correlation
//!   tokens and optional timeouts, used by the IFTTT partner-service
//!   protocol;
//! * seeded per-node random-number streams ([`rng`]) so that every
//!   experiment is exactly reproducible from a single `u64` seed;
//! * an event trace ([`trace`]) that the testbed uses to reconstruct
//!   applet-execution timelines (Table 5 of the paper).
//!
//! The design follows the event-driven style of stacks like smoltcp: nodes
//! are passive state machines that react to events; all scheduling goes
//! through the kernel; there is no hidden concurrency, which keeps runs
//! reproducible and fast.
//!
//! ## Quick example
//!
//! ```
//! use simnet::prelude::*;
//!
//! /// A node that answers every request with 200 OK.
//! struct Echo;
//! impl Node for Echo {
//!     fn on_request(&mut self, _ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
//!         HandlerResult::Reply(Response::ok().with_body(req.body.clone()))
//!     }
//! }
//!
//! /// A node that fires one request at start-up and remembers the answer.
//! struct Client { server: NodeId, got: Option<u16> }
//! impl Node for Client {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         let req = Request::get("/ping");
//!         ctx.send_request(self.server, req, Token(1), RequestOpts::default());
//!     }
//!     fn on_response(&mut self, _ctx: &mut Context<'_>, _token: Token, resp: Response) {
//!         self.got = Some(resp.status);
//!     }
//! }
//!
//! let mut sim = Sim::new(7);
//! let server = sim.add_node("server", Echo);
//! let client = sim.add_node("client", Client { server, got: None });
//! sim.link(client, server, LinkSpec::wan());
//! sim.run_until_idle();
//! assert_eq!(sim.node_ref::<Client>(client).got, Some(200));
//! ```

pub mod chaos;
pub mod error;
pub mod http;
pub mod net;
pub mod node;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;
pub mod wheel;

pub use chaos::{FaultPlan, FaultTarget, LinkFault, ServerFault, ServerFaultPlan};
pub use error::SimError;
pub use http::{Method, Request, RequestId, RequestOpts, Response, Str, Token};
pub use net::{LatencyModel, LinkId, LinkSpec};
pub use node::{Context, HandlerResult, Node, NodeId, TimerId, TimerKey};
pub use sim::Sim;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLog};
pub use wheel::TimerWheel;

/// Convenient glob import for simulation authors.
pub mod prelude {
    pub use crate::chaos::{FaultPlan, FaultTarget, LinkFault, ServerFault, ServerFaultPlan};
    pub use crate::http::{Method, Request, RequestId, RequestOpts, Response, Str, Token};
    pub use crate::net::{LatencyModel, LinkSpec};
    pub use crate::node::{Context, HandlerResult, Node, NodeId, TimerId, TimerKey};
    pub use crate::sim::Sim;
    pub use crate::time::{SimDuration, SimTime};
    pub use bytes::Bytes;
}
