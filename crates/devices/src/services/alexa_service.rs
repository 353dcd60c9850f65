//! The Amazon Alexa partner service.
//!
//! Receives utterance uploads from Echo devices, classifies them into the
//! triggers the paper's applets A5–A7 use (say a phrase, song played, item
//! added to todo/shopping list), and — crucially — uses the **realtime
//! API**: the paper finds A5–A7 have low T2A latency because "IFTTT …
//! processes the real-time API hints for some services (such as Alexa)".

use crate::echo::UTTERANCE_PATH;
use crate::service_core::ServiceCore;
use crate::services::{Partner, PartnerService};
use serde::Deserialize;
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{TriggerSlug, UserId};

const SAY_A_PHRASE: &str = "say_a_phrase";
const SONG_PLAYED: &str = "song_played";
const TODO_ITEM_ADDED: &str = "todo_item_added";
const SHOPPING_ITEM_ADDED: &str = "shopping_item_added";
const ASK_SHOPPING_LIST: &str = "ask_whats_on_shopping_list";

/// How an utterance was classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// `"alexa trigger <phrase>"` or any unrecognized phrase.
    Phrase(String),
    /// `"play <song>"`.
    PlaySong(String),
    /// `"add <item> to my todo list"`.
    TodoAdd(String),
    /// `"add <item> to my shopping list"`.
    ShoppingAdd(String),
    /// `"what's on my shopping list"`.
    AskShoppingList,
}

/// Classify an utterance the way the Alexa skills the paper uses would.
pub fn classify(utterance: &str) -> Intent {
    let u = utterance.trim().to_ascii_lowercase();
    if let Some(song) = u.strip_prefix("play ") {
        return Intent::PlaySong(song.to_owned());
    }
    if let Some(rest) = u.strip_prefix("add ") {
        if let Some(item) = rest.strip_suffix(" to my todo list") {
            return Intent::TodoAdd(item.to_owned());
        }
        if let Some(item) = rest.strip_suffix(" to my shopping list") {
            return Intent::ShoppingAdd(item.to_owned());
        }
    }
    if u.contains("what's on my shopping list") || u.contains("whats on my shopping list") {
        return Intent::AskShoppingList;
    }
    let phrase = u.strip_prefix("alexa trigger ").unwrap_or(&u);
    Intent::Phrase(phrase.to_owned())
}

/// What the Alexa cloud adds to the shell: the lists its skills keep.
#[derive(Debug, Default)]
pub struct Alexa {
    /// Per-user todo list (state the `ask_*` skills read back).
    pub todo: HashMap<UserId, Vec<String>>,
    /// Per-user shopping list.
    pub shopping: HashMap<UserId, Vec<String>>,
    /// Utterances processed (for tests/metrics).
    pub utterances: u64,
}

/// The Alexa cloud service node.
pub type AlexaService = PartnerService<Alexa>;

/// Record one event of `trigger` for `user`. A `say_a_phrase` subscription
/// only matches its configured phrase (one with no phrase field matches
/// all); `said` is `None` for every other trigger.
fn feed(
    core: &mut ServiceCore,
    ctx: &mut Context<'_>,
    user: &UserId,
    trigger: &str,
    ingredient: Option<(&str, &str)>,
    said: Option<&str>,
) {
    let id = core.next_event_id();
    let mut event = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64);
    if let Some((k, v)) = ingredient {
        event = event.with_ingredient(k, v);
    }
    core.record_event(
        ctx,
        &TriggerSlug::new(trigger),
        user,
        event,
        |fields| match (said, fields.get("phrase")) {
            (Some(said), Some(want)) => said.eq_ignore_ascii_case(want),
            _ => true,
        },
    );
}

impl Alexa {
    /// Process one recognized utterance for `user`.
    pub fn handle_utterance(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        user: &UserId,
        utterance: &str,
    ) {
        self.utterances += 1;
        ctx.trace("alexa.utterance", format_args!("{utterance}"));
        match classify(utterance) {
            Intent::Phrase(p) => feed(
                core,
                ctx,
                user,
                SAY_A_PHRASE,
                Some(("phrase", &p)),
                Some(&p),
            ),
            Intent::PlaySong(song) => {
                feed(core, ctx, user, SONG_PLAYED, Some(("song", &song)), None)
            }
            Intent::TodoAdd(item) => {
                self.todo
                    .entry(user.clone())
                    .or_default()
                    .push(item.clone());
                feed(
                    core,
                    ctx,
                    user,
                    TODO_ITEM_ADDED,
                    Some(("item", &item)),
                    None,
                )
            }
            Intent::ShoppingAdd(item) => {
                self.shopping
                    .entry(user.clone())
                    .or_default()
                    .push(item.clone());
                let ingredient = Some(("item", item.as_str()));
                feed(core, ctx, user, SHOPPING_ITEM_ADDED, ingredient, None)
            }
            Intent::AskShoppingList => feed(core, ctx, user, ASK_SHOPPING_LIST, None, None),
        }
    }
}

impl Partner for Alexa {
    fn slug(&self) -> &str {
        "amazon_alexa"
    }

    fn triggers(&self) -> Vec<&str> {
        vec![
            SAY_A_PHRASE,
            SONG_PLAYED,
            TODO_ITEM_ADDED,
            SHOPPING_ITEM_ADDED,
            ASK_SHOPPING_LIST,
        ]
    }

    /// An Echo's utterance upload.
    fn intercept(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        req: &Request,
    ) -> Option<Response> {
        if req.path != UTTERANCE_PATH || req.method != Method::Post {
            return None;
        }
        #[derive(Deserialize)]
        struct Upload {
            user: String,
            utterance: String,
        }
        let Ok(u) = serde_json::from_slice::<Upload>(&req.body) else {
            return Some(Response::bad_request());
        };
        self.handle_utterance(core, ctx, &UserId::new(u.user), &u.utterance);
        Some(Response::ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::FieldMap;

    #[test]
    fn classify_covers_the_paper_top_triggers() {
        assert_eq!(
            classify("play Bohemian Rhapsody"),
            Intent::PlaySong("bohemian rhapsody".into())
        );
        assert_eq!(
            classify("add milk to my todo list"),
            Intent::TodoAdd("milk".into())
        );
        assert_eq!(
            classify("add eggs to my shopping list"),
            Intent::ShoppingAdd("eggs".into())
        );
        assert_eq!(
            classify("What's on my shopping list"),
            Intent::AskShoppingList
        );
        assert_eq!(
            classify("alexa trigger movie time"),
            Intent::Phrase("movie time".into())
        );
        assert_eq!(
            classify("turn on the light"),
            Intent::Phrase("turn on the light".into())
        );
    }

    fn service_with_sub(
        trigger: &str,
        fields: FieldMap,
    ) -> (Sim, NodeId, tap_protocol::TriggerIdentity) {
        let mut sim = Sim::new(81);
        let svc = sim.add_node(
            "alexa",
            AlexaService::new(ServiceKey("sk_a".into()), Alexa::default()),
        );
        let ti = sim.with_node::<AlexaService, _>(svc, |s, _| {
            s.core
                .subscribe(UserId::new("author"), TriggerSlug::new(trigger), fields)
        });
        (sim, svc, ti)
    }

    #[test]
    fn phrase_subscription_matches_only_its_phrase() {
        let mut fields = FieldMap::new();
        fields.insert("phrase".into(), "movie time".into());
        let (mut sim, svc, ti) = service_with_sub("say_a_phrase", fields);
        sim.with_node::<AlexaService, _>(svc, |s, ctx| {
            s.vendor.handle_utterance(
                &mut s.core,
                ctx,
                &UserId::new("author"),
                "alexa trigger movie time",
            );
            s.vendor.handle_utterance(
                &mut s.core,
                ctx,
                &UserId::new("author"),
                "alexa trigger bedtime",
            );
        });
        let s = sim.node_ref::<AlexaService>(svc);
        assert_eq!(s.core.buffer.len(&ti), 1);
        assert_eq!(s.vendor.utterances, 2);
    }

    #[test]
    fn song_event_carries_the_song_ingredient() {
        let (mut sim, svc, ti) = service_with_sub("song_played", FieldMap::new());
        sim.with_node::<AlexaService, _>(svc, |s, ctx| {
            s.vendor
                .handle_utterance(&mut s.core, ctx, &UserId::new("author"), "play Yesterday");
        });
        let s = sim.node_ref::<AlexaService>(svc);
        let events = s.core.buffer.latest(&ti, 10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ingredients["song"], "yesterday");
    }

    #[test]
    fn todo_add_updates_the_list_and_the_trigger() {
        let (mut sim, svc, ti) = service_with_sub("todo_item_added", FieldMap::new());
        sim.with_node::<AlexaService, _>(svc, |s, ctx| {
            s.vendor.handle_utterance(
                &mut s.core,
                ctx,
                &UserId::new("author"),
                "add buy eggs to my todo list",
            );
        });
        let s = sim.node_ref::<AlexaService>(svc);
        assert_eq!(s.vendor.todo[&UserId::new("author")], vec!["buy eggs"]);
        assert_eq!(s.core.buffer.len(&ti), 1);
    }

    #[test]
    fn other_users_events_do_not_cross() {
        let (mut sim, svc, ti) = service_with_sub("song_played", FieldMap::new());
        sim.with_node::<AlexaService, _>(svc, |s, ctx| {
            s.vendor
                .handle_utterance(&mut s.core, ctx, &UserId::new("intruder"), "play Yesterday");
        });
        assert!(sim.node_ref::<AlexaService>(svc).core.buffer.is_empty(&ti));
    }
}
