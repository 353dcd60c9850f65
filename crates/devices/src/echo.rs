//! Amazon Echo Dot.
//!
//! The test controller "plays pre-recorded voice commands" at the Echo
//! (§4). We model the device as a speech front-end: a `voice:` signal
//! arrives (sound), the Echo spends a recognition delay, then uploads the
//! utterance to the Alexa cloud over the WAN. Everything trigger-related
//! (phrase matching, todo/shopping lists) lives in the Alexa cloud service
//! (`services::alexa`).

use bytes::Bytes;
use simnet::prelude::*;

const TIMER_RECOGNIZED: TimerKey = 1;

/// Path on the Alexa cloud accepting utterance uploads.
pub const UTTERANCE_PATH: &str = "/alexa/v1/utterances";

/// The smart speaker node.
#[derive(Debug)]
pub struct EchoDot {
    /// Device identifier.
    pub device_id: String,
    /// The Amazon account the device is registered to.
    pub user: String,
    /// The Alexa cloud node utterances are uploaded to.
    pub cloud: NodeId,
    /// Utterances waiting out the recognition delay.
    queue: Vec<String>,
    /// Count of utterances uploaded (for tests).
    pub uploaded: u64,
}

impl EchoDot {
    /// Create an Echo Dot bound to an Alexa cloud node.
    pub fn new(device_id: impl Into<String>, user: impl Into<String>, cloud: NodeId) -> Self {
        EchoDot {
            device_id: device_id.into(),
            user: user.into(),
            cloud,
            queue: Vec::new(),
            uploaded: 0,
        }
    }

    /// Hear a voice command (the test controller's speaker).
    pub fn hear(&mut self, ctx: &mut Context<'_>, utterance: &str) {
        self.queue.push(utterance.to_owned());
        // On-device wake-word detection + end-of-speech: 300–700 ms.
        let delay_us = 300_000 + ctx.rng().gen_range(0..400_000u64);
        ctx.set_timer(SimDuration::from_micros(delay_us), TIMER_RECOGNIZED);
        ctx.trace("echo.heard", format_args!("{utterance}"));
    }
}

use rand::Rng;

impl Node for EchoDot {
    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        if let Some(text) = payload.strip_prefix(b"voice:".as_slice()) {
            let utterance = String::from_utf8_lossy(text).into_owned();
            self.hear(ctx, &utterance);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
        if key != TIMER_RECOGNIZED || self.queue.is_empty() {
            return;
        }
        let utterance = self.queue.remove(0);
        let body = serde_json::json!({
            "device": self.device_id,
            "user": self.user,
            "utterance": utterance,
        });
        self.uploaded += 1;
        ctx.trace("echo.upload", format_args!("{utterance}"));
        let req = Request::post(UTTERANCE_PATH).with_body(body.to_string());
        ctx.send_request(self.cloud, req, Token(0), RequestOpts::timeout_secs(10));
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, _token: Token, resp: Response) {
        if !resp.is_success() {
            ctx.trace("echo.error", format_args!("cloud status {}", resp.status));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in Alexa cloud that records utterance uploads.
    #[derive(Default)]
    struct FakeCloud {
        utterances: Vec<String>,
        arrival: Vec<SimTime>,
    }
    impl Node for FakeCloud {
        fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
            assert_eq!(req.path, UTTERANCE_PATH);
            let v: serde_json::Value = serde_json::from_slice(&req.body).unwrap();
            self.utterances
                .push(v["utterance"].as_str().unwrap().to_owned());
            self.arrival.push(ctx.now());
            HandlerResult::Reply(Response::ok())
        }
    }

    #[test]
    fn voice_signal_is_recognized_and_uploaded() {
        let mut sim = Sim::new(9);
        let cloud = sim.add_node("alexa_cloud", FakeCloud::default());
        let echo = sim.add_node("echo", EchoDot::new("echo_1", "author", cloud));
        sim.link(echo, cloud, LinkSpec::wan());
        let speaker = sim.add_node("speaker", Speaker { echo });
        sim.link(speaker, echo, LinkSpec::lan());
        sim.run_until_idle();
        let c = sim.node_ref::<FakeCloud>(cloud);
        assert_eq!(c.utterances, vec!["turn on the light"]);
        // Recognition delay ≥ 300 ms.
        assert!(c.arrival[0] >= SimTime::from_micros(300_000));
        assert_eq!(sim.node_ref::<EchoDot>(echo).uploaded, 1);
    }

    struct Speaker {
        echo: NodeId,
    }
    impl Node for Speaker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.signal(self.echo, &b"voice:turn on the light"[..]);
        }
    }

    #[test]
    fn non_voice_signals_are_ignored() {
        let mut sim = Sim::new(10);
        let cloud = sim.add_node("alexa_cloud", FakeCloud::default());
        let echo = sim.add_node("echo", EchoDot::new("echo_1", "author", cloud));
        sim.link(echo, cloud, LinkSpec::wan());
        sim.with_node::<EchoDot, _>(echo, |_, _ctx| {
            let peer = NodeId(0);
            let _ = peer; // silence-only: send garbage to the echo
        });
        let speaker = sim.add_node("noise", Noise { echo });
        sim.link(speaker, echo, LinkSpec::lan());
        sim.run_until_idle();
        assert!(sim.node_ref::<FakeCloud>(cloud).utterances.is_empty());
    }

    struct Noise {
        echo: NodeId,
    }
    impl Node for Noise {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.signal(self.echo, &b"thunderclap"[..]);
        }
    }

    #[test]
    fn sequential_commands_upload_in_order() {
        let mut sim = Sim::new(11);
        let cloud = sim.add_node("alexa_cloud", FakeCloud::default());
        let echo = sim.add_node("echo", EchoDot::new("echo_1", "author", cloud));
        sim.link(echo, cloud, LinkSpec::wan());
        for (i, phrase) in ["first", "second", "third"].iter().enumerate() {
            sim.run_until(SimTime::from_secs(i as u64 * 5));
            sim.with_node::<EchoDot, _>(echo, |e, ctx| e.hear(ctx, phrase));
        }
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<FakeCloud>(cloud).utterances,
            vec!["first", "second", "third"]
        );
    }
}
