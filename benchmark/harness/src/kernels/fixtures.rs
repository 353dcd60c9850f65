//! Kernel inputs captured from a real engine talking to a real
//! [`ServiceCore`](devices::service_core::ServiceCore): the requests are
//! the ones the engine put on the wire, the response bodies the ones the
//! service answered with.

use super::rig::{Rig, RigService, RigSpec, SERVICE_SLUG, SLOTS};
use bytes::Bytes;
use devices::service_core::Processed;
use engine::EngineConfig;
use simnet::prelude::*;
use tap_protocol::endpoints::{API_PREFIX, BATCH_POLL_PATH};
use tap_protocol::wire::{
    self, ActionRequestBody, BatchPollRequestBody, BatchPollResponseBody, PollRequestBody,
    PollResponseBody, RealtimeNotificationV1, TriggerEvent, EMPTY_POLL_JSON,
};
use tap_protocol::{ServiceSlug, TriggerSlug, UserId};

pub struct Fixtures {
    /// One applet per user, single polls. `user_0` fired once and was
    /// delivered; every other user's buffer is empty.
    pub single: Rig,
    /// [`SLOTS`] applets per user, coalesced batch polls; `user_0` fired
    /// each slot once.
    pub batch: Rig,
    /// `user_1`'s poll: answered with the canonical empty body.
    pub poll_req_empty: Request,
    /// `user_0`'s poll: answered with its one buffered event.
    pub poll_req_k1: Request,
    pub poll_resp_k1: Bytes,
    /// `user_0`'s batch poll of [`SLOTS`] entries and its answer.
    pub batch_req: Request,
    pub batch_resp: Bytes,
    pub action_req: Request,
    pub realtime_v1: Bytes,
}

fn poll_user(req: &Request) -> Option<UserId> {
    wire::from_bytes::<PollRequestBody>(&req.body)
        .ok()
        .map(|b| b.user)
}

fn fire(rig: &mut Rig, user: usize, slot: usize) {
    let user = rig.users[user].clone();
    let trigger = TriggerSlug::new(format!("fired_{slot}"));
    let matched = rig.sim.with_node::<RigService, _>(rig.svc, |s, ctx| {
        let id = s.core.next_event_id();
        let ev = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64);
        s.core.record_event(ctx, &trigger, &user, ev, |_| true)
    });
    assert_eq!(matched, 1, "the initial poll subscribed {user} slot {slot}");
}

fn answer(rig: &mut Rig, req: &Request) -> Bytes {
    rig.sim
        .with_node::<RigService, _>(rig.svc, |s, ctx| match s.core.process(ctx, req) {
            Processed::Done(resp) => {
                assert!(resp.is_success(), "{} answered {}", req.path, resp.status);
                resp.body
            }
            other => panic!("{} was not answered directly: {other:?}", req.path),
        })
}

impl Fixtures {
    pub fn capture() -> Fixtures {
        let trigger_prefix = format!("{API_PREFIX}/triggers/");
        let action_prefix = format!("{API_PREFIX}/actions/");

        let mut spec = RigSpec::new(EngineConfig::fast(), 8, 1);
        spec.capture = true;
        let mut single = Rig::build(&spec);
        single.run_for(3);
        fire(&mut single, 0, 0);
        single.run_for(3);
        let find = |rig: &Rig, what: &str, pred: &dyn Fn(&Request) -> bool| {
            rig.captured()
                .iter()
                .find(|r| pred(r))
                .cloned()
                .unwrap_or_else(|| panic!("the engine never sent {what}"))
        };
        let poll_of = |rig: &Rig, user: &str| {
            find(rig, "a single poll", &|r| {
                r.path.starts_with(&trigger_prefix)
                    && poll_user(r).is_some_and(|u| u.as_str() == user)
            })
        };
        let poll_req_empty = poll_of(&single, "user_1");
        let poll_req_k1 = poll_of(&single, "user_0");
        let action_req = find(&single, "an action", &|r| {
            r.path.starts_with(&action_prefix)
        });
        let poll_resp_k1 = answer(&mut single, &poll_req_k1);

        let mut spec = RigSpec::new(EngineConfig::fast().with_batch_polling(true), 4, SLOTS);
        spec.capture = true;
        let mut batch = Rig::build(&spec);
        batch.run_for(8);
        for slot in 0..SLOTS {
            fire(&mut batch, 0, slot);
        }
        batch.run_for(3);
        let batch_req = find(&batch, "a full batch poll", &|r| {
            r.path == BATCH_POLL_PATH
                && wire::from_bytes::<BatchPollRequestBody>(&r.body)
                    .is_ok_and(|b| b.user.as_str() == "user_0" && b.entries.len() == SLOTS)
        });
        let batch_resp = answer(&mut batch, &batch_req);

        let poll_body: PollRequestBody =
            wire::from_bytes(&poll_req_k1.body).expect("captured poll body parses");
        let realtime_v1 = wire::to_bytes(&RealtimeNotificationV1::single(
            ServiceSlug::new(SERVICE_SLUG),
            TriggerSlug::new("fired_0"),
            poll_body.trigger_identity,
        ));
        Fixtures {
            single,
            batch,
            poll_req_empty,
            poll_req_k1,
            poll_resp_k1,
            batch_req,
            batch_resp,
            action_req,
            realtime_v1,
        }
    }

    /// Every fixture is what its name says, as the real layers see it.
    pub fn verify(&self) {
        let k1: PollResponseBody =
            wire::from_bytes(&self.poll_resp_k1).expect("k1 response parses");
        assert_eq!(k1.data.len(), 1, "user_0 holds exactly one event");
        let batch: BatchPollResponseBody =
            wire::from_bytes(&self.batch_resp).expect("batch response parses");
        assert_eq!(batch.data.len(), SLOTS);
        assert!(batch.data.iter().all(|r| r.data.len() == 1));
        let action: ActionRequestBody =
            wire::from_bytes(&self.action_req.body).expect("action body parses");
        assert_eq!(action.user.as_str(), "user_0");
        assert_ne!(&*self.poll_resp_k1, EMPTY_POLL_JSON);
        assert_eq!(poll_user(&self.poll_req_empty).unwrap().as_str(), "user_1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_fixtures_are_what_they_claim() {
        let mut fx = Fixtures::capture();
        fx.verify();
        // The empty fixture really is answered with the canonical body.
        let req = fx.poll_req_empty.clone();
        assert_eq!(&*answer(&mut fx.single, &req), EMPTY_POLL_JSON);
        // The delivered activation went through the whole engine path.
        assert_eq!(fx.single.metrics.actions_ok.get(), 1);
        assert!(fx.batch.metrics.polls_batched.get() > 0);
    }
}
