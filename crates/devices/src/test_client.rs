//! The one HTTP client this crate's unit tests drive nodes with, and the
//! partner-protocol requests they send through it.

use simnet::prelude::*;
use tap_protocol::auth::{AUTHORIZATION_HEADER, SERVICE_KEY_HEADER};
use tap_protocol::wire::{self, ActionRequestBody};
use tap_protocol::{FieldMap, UserId};

/// Sends one request at start (if given one) and keeps the response and
/// when it arrived; answers 200 to whatever is sent to it and keeps that
/// too, so it can stand in for an engine receiving realtime hints.
#[derive(Default)]
pub(crate) struct Client {
    send: Option<(NodeId, Request)>,
    pub response: Option<Response>,
    pub at: Option<SimTime>,
    pub inbox: Vec<Request>,
}

impl Client {
    /// Add a client to `sim` that sends `req` to `dst` over a new `link`.
    pub fn spawn(sim: &mut Sim, dst: NodeId, req: Request, link: LinkSpec) -> NodeId {
        let client = Client {
            send: Some((dst, req)),
            ..Client::default()
        };
        let id = sim.add_node("client", client);
        sim.link(id, dst, link);
        id
    }

    /// The status `id` was answered with, if it has been.
    pub fn status(sim: &Sim, id: NodeId) -> Option<u16> {
        sim.node_ref::<Client>(id)
            .response
            .as_ref()
            .map(|r| r.status)
    }
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some((dst, req)) = self.send.take() {
            ctx.send_request(dst, req, Token(1), RequestOpts::default());
        }
    }

    fn on_request(&mut self, _ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        self.inbox.push(req.clone());
        HandlerResult::Reply(Response::ok())
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, _token: Token, resp: Response) {
        self.at = Some(ctx.now());
        self.response = Some(resp);
    }
}

/// A partner-protocol request the way the engine sends it: `path` with
/// the service key, `user`'s bearer and a wire body.
pub(crate) fn engine_request(path: String, key: &str, bearer: &str, body: bytes::Bytes) -> Request {
    Request::post(path)
        .with_header(SERVICE_KEY_HEADER, key)
        .with_header(AUTHORIZATION_HEADER, bearer)
        .with_body(body)
}

/// The engine's action request for `user`.
pub(crate) fn action_request(
    action: &str,
    key: &str,
    bearer: &str,
    user: &str,
    fields: FieldMap,
) -> Request {
    let body = ActionRequestBody {
        action_fields: fields,
        user: UserId::new(user),
    };
    engine_request(
        format!("/ifttt/v1/actions/{action}"),
        key,
        bearer,
        wire::to_bytes(&body),
    )
}
