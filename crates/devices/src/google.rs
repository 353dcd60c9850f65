//! A Google cloud backend hosting Gmail, Drive, and Sheets.
//!
//! The testbed "directly talks with Google using its App API" (§2.1). One
//! node hosts the three apps so that their *internal couplings* are
//! faithful — most importantly the spreadsheet **notification feature**
//! ("sends her an email if the spreadsheet is modified") that the paper
//! combines with an applet to demonstrate an *implicit infinite loop* (§4):
//! appending a row can itself generate a new-email trigger event.
//!
//! API surface (JSON over HTTP):
//!
//! | Method & path                            | Effect                          |
//! |------------------------------------------|---------------------------------|
//! | `POST /gmail/<user>/inject`              | external mail arrives           |
//! | `POST /gmail/<user>/send`                | user sends mail (delivered internally if the recipient is local) |
//! | `GET  /gmail/<user>/messages/<since>`    | inbox messages with `seq > since` |
//! | `POST /drive/<user>/files`               | save a file                     |
//! | `GET  /drive/<user>/files`               | list file names                 |
//! | `POST /sheets/<user>/<sheet>/rows`       | append a row                    |
//! | `POST /sheets/<user>/<sheet>/notify`     | toggle the notification feature |

use crate::events::{DeviceEvent, Observers};
use serde::{Deserialize, Serialize};
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::FieldMap;

/// One email in an inbox.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Email {
    /// Monotonic per-user sequence number.
    pub seq: u64,
    pub from: String,
    pub subject: String,
    pub body: String,
    /// Optional attachment as (name, content).
    #[serde(default)]
    pub attachment: Option<(String, String)>,
}

/// A named spreadsheet.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Sheet {
    pub rows: Vec<Vec<String>>,
    /// The notification feature: email the owner on modification.
    pub notify: bool,
}

/// Per-user application state.
#[derive(Debug, Default)]
struct UserState {
    inbox: Vec<Email>,
    next_seq: u64,
    files: Vec<(String, String)>,
    sheets: HashMap<String, Sheet>,
}

/// The Google cloud node.
#[derive(Debug, Default)]
pub struct GoogleCloud {
    users: HashMap<String, UserState>,
    /// Observers notified of every app event (vendor-internal push the
    /// official Google services subscribe to).
    pub observers: Observers,
    /// Total emails delivered (for tests/metrics).
    pub emails_delivered: u64,
}

/// Sender address used by the Sheets notification feature.
pub const SHEETS_NOTIFY_FROM: &str = "sheets-noreply@google";

impl GoogleCloud {
    /// Create an empty cloud.
    pub fn new() -> Self {
        GoogleCloud::default()
    }

    fn user(&mut self, user: &str) -> &mut UserState {
        self.users.entry(user.to_owned()).or_default()
    }

    /// Deliver an email into `user`'s inbox and emit events. Internal
    /// entry point shared by `inject`, `send`, and the Sheets notifier.
    pub fn deliver_email(
        &mut self,
        ctx: &mut Context<'_>,
        user: &str,
        from: &str,
        subject: &str,
        body: &str,
        attachment: Option<(String, String)>,
    ) -> u64 {
        let st = self.user(user);
        st.next_seq += 1;
        let seq = st.next_seq;
        let has_attachment = attachment.is_some();
        st.inbox.push(Email {
            seq,
            from: from.to_owned(),
            subject: subject.to_owned(),
            body: body.to_owned(),
            attachment,
        });
        self.emails_delivered += 1;
        ctx.trace("gmail.delivered", format_args!("{user} #{seq} from {from}"));
        let at = ctx.now().as_secs_f64() as u64;
        let mut events = vec![DeviceEvent::new("gmail", "new_email", user, at)
            .with_data("seq", seq.to_string())
            .with_data("from", from)
            .with_data("subject", subject)];
        if has_attachment {
            events.push(
                DeviceEvent::new("gmail", "new_attachment", user, at)
                    .with_data("seq", seq.to_string())
                    .with_data("subject", subject),
            );
        }
        for ev in events {
            self.observers.push(ctx, ev.to_bytes());
        }
        seq
    }

    /// Inbox messages of `user` with `seq > since`.
    pub fn messages_since(&self, user: &str, since: u64) -> Vec<&Email> {
        self.users
            .get(user)
            .map(|st| st.inbox.iter().filter(|e| e.seq > since).collect())
            .unwrap_or_default()
    }

    /// All rows of a sheet.
    pub fn sheet(&self, user: &str, sheet: &str) -> Option<&Sheet> {
        self.users.get(user).and_then(|st| st.sheets.get(sheet))
    }

    /// Saved file names of a user.
    pub fn files(&self, user: &str) -> Vec<&str> {
        self.users
            .get(user)
            .map(|st| st.files.iter().map(|(n, _)| n.as_str()).collect())
            .unwrap_or_default()
    }

    /// Toggle the notification feature of a sheet out of band (what the
    /// user does in the spreadsheet UI per \[12\] of the paper).
    pub fn set_sheet_notify(&mut self, user: &str, sheet: &str, enabled: bool) {
        self.user(user)
            .sheets
            .entry(sheet.to_owned())
            .or_default()
            .notify = enabled;
    }

    /// Append a row; runs the notification feature if enabled.
    pub fn append_row(
        &mut self,
        ctx: &mut Context<'_>,
        user: &str,
        sheet_name: &str,
        cells: Vec<String>,
    ) -> usize {
        let st = self.user(user);
        let sheet = st.sheets.entry(sheet_name.to_owned()).or_default();
        sheet.rows.push(cells);
        let row_count = sheet.rows.len();
        let notify = sheet.notify;
        ctx.trace(
            "sheets.row",
            format_args!("{user}/{sheet_name} row {row_count}"),
        );
        let at = ctx.now().as_secs_f64() as u64;
        let ev = DeviceEvent::new("sheets", "row_added", user, at)
            .with_data("sheet", sheet_name)
            .with_data("rows", row_count.to_string());
        self.observers.push(ctx, ev.to_bytes());
        if notify {
            // The documented notification feature: modification → email to
            // the owner. This is the hidden half of the implicit loop.
            self.deliver_email(
                ctx,
                user,
                SHEETS_NOTIFY_FROM,
                &format!("Changes in \"{sheet_name}\""),
                &format!("Row {row_count} was added to {sheet_name}."),
                None,
            );
        }
        row_count
    }
}

/// The Sheets API request an `add_row` action's `fields` ask for: sheet
/// `spreadsheet` (default `IFTTT`), cells from `row` split at `|||`.
pub fn add_row_request(user: &str, fields: &FieldMap) -> Request {
    let sheet = fields.get("spreadsheet").map_or("IFTTT", String::as_str);
    let cells: Vec<&str> = fields
        .get("row")
        .map(|r| r.split("|||").collect())
        .unwrap_or_default();
    Request::post(format!("/sheets/{user}/{sheet}/rows"))
        .with_body(serde_json::json!({ "cells": cells }).to_string())
}

/// The Drive API request a `save_file` action's `fields` ask for: file
/// `name` (or `default_name`) holding `content`.
pub fn save_file_request(user: &str, fields: &FieldMap, default_name: &str) -> Request {
    let name = fields.get("name").map_or(default_name, String::as_str);
    let content = fields.get("content").map_or("", String::as_str);
    Request::post(format!("/drive/{user}/files"))
        .with_body(serde_json::json!({ "name": name, "content": content }).to_string())
}

#[derive(Deserialize)]
struct InjectBody {
    from: String,
    subject: String,
    #[serde(default)]
    body: String,
    #[serde(default)]
    attachment: Option<(String, String)>,
}

#[derive(Deserialize)]
struct SendBody {
    to: String,
    subject: String,
    #[serde(default)]
    body: String,
}

#[derive(Deserialize)]
struct FileBody {
    name: String,
    #[serde(default)]
    content: String,
}

#[derive(Deserialize)]
struct RowBody {
    cells: Vec<String>,
}

#[derive(Deserialize)]
struct NotifyBody {
    enabled: bool,
}

impl Node for GoogleCloud {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        let segs: Vec<String> = req.path_segments().iter().map(|s| s.to_string()).collect();
        let segs_ref: Vec<&str> = segs.iter().map(String::as_str).collect();
        let reply = |status: u16, body: serde_json::Value| {
            HandlerResult::Reply(Response::with_status(status).with_body(body.to_string()))
        };
        match (req.method, segs_ref.as_slice()) {
            (Method::Post, ["gmail", user, "inject"]) => {
                let Ok(b) = serde_json::from_slice::<InjectBody>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                let seq = self.deliver_email(ctx, user, &b.from, &b.subject, &b.body, b.attachment);
                reply(200, serde_json::json!({ "seq": seq }))
            }
            (Method::Post, ["gmail", user, "send"]) => {
                let Ok(b) = serde_json::from_slice::<SendBody>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                // Local delivery when the recipient is on this cloud.
                let from = format!("{user}@gmail");
                let seq = self.deliver_email(ctx, &b.to, &from, &b.subject, &b.body, None);
                reply(200, serde_json::json!({ "seq": seq }))
            }
            (Method::Get, ["gmail", user, "messages", since]) => {
                let Ok(since) = since.parse::<u64>() else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                let msgs = self.messages_since(user, since);
                reply(200, serde_json::json!({ "messages": msgs }))
            }
            (Method::Post, ["drive", user, "files"]) => {
                let Ok(b) = serde_json::from_slice::<FileBody>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                let st = self.user(user);
                st.files.push((b.name.clone(), b.content));
                let count = st.files.len();
                ctx.trace("drive.saved", format_args!("{user}/{}", b.name));
                let at = ctx.now().as_secs_f64() as u64;
                let ev =
                    DeviceEvent::new("drive", "file_saved", *user, at).with_data("name", b.name);
                self.observers.push(ctx, ev.to_bytes());
                reply(200, serde_json::json!({ "count": count }))
            }
            (Method::Get, ["drive", user, "files"]) => {
                reply(200, serde_json::json!({ "files": self.files(user) }))
            }
            (Method::Post, ["sheets", user, sheet, "rows"]) => {
                let Ok(b) = serde_json::from_slice::<RowBody>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                let (user, sheet) = (user.to_string(), sheet.to_string());
                let rows = self.append_row(ctx, &user, &sheet, b.cells);
                reply(200, serde_json::json!({ "rows": rows }))
            }
            (Method::Post, ["sheets", user, sheet, "notify"]) => {
                let Ok(b) = serde_json::from_slice::<NotifyBody>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                let st = self.user(user);
                st.sheets.entry(sheet.to_string()).or_default().notify = b.enabled;
                reply(200, serde_json::json!({ "enabled": b.enabled }))
            }
            _ => HandlerResult::Reply(Response::not_found()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::Client;
    use bytes::Bytes;

    fn cloud_sim() -> (Sim, NodeId) {
        let mut sim = Sim::new(21);
        let g = sim.add_node("google", GoogleCloud::new());
        (sim, g)
    }

    #[test]
    fn inject_and_query_messages() {
        let (mut sim, g) = cloud_sim();
        sim.with_node::<GoogleCloud, _>(g, |gc, ctx| {
            gc.deliver_email(ctx, "author", "a@x", "hello", "body", None);
            gc.deliver_email(ctx, "author", "b@y", "world", "body", None);
        });
        let gc = sim.node_ref::<GoogleCloud>(g);
        assert_eq!(gc.messages_since("author", 0).len(), 2);
        assert_eq!(gc.messages_since("author", 1).len(), 1);
        assert_eq!(gc.messages_since("author", 2).len(), 0);
        assert_eq!(gc.messages_since("stranger", 0).len(), 0);
    }

    #[test]
    fn attachment_emits_second_event() {
        #[derive(Default)]
        struct Obs {
            kinds: Vec<String>,
        }
        impl Node for Obs {
            fn on_signal(&mut self, _c: &mut Context<'_>, _f: NodeId, p: Bytes) {
                if let Some(e) = DeviceEvent::from_bytes(&p) {
                    self.kinds.push(e.kind);
                }
            }
        }
        let (mut sim, g) = cloud_sim();
        let obs = sim.add_node("obs", Obs::default());
        sim.link(g, obs, LinkSpec::datacenter());
        sim.node_mut::<GoogleCloud>(g).observers.add(obs);
        sim.with_node::<GoogleCloud, _>(g, |gc, ctx| {
            gc.deliver_email(
                ctx,
                "author",
                "a@x",
                "report",
                "see attached",
                Some(("report.pdf".into(), "PDFDATA".into())),
            );
        });
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<Obs>(obs).kinds,
            vec!["new_email", "new_attachment"]
        );
    }

    #[test]
    fn sheet_rows_append_and_count() {
        let (mut sim, g) = cloud_sim();
        sim.with_node::<GoogleCloud, _>(g, |gc, ctx| {
            assert_eq!(gc.append_row(ctx, "author", "songs", vec!["a".into()]), 1);
            assert_eq!(gc.append_row(ctx, "author", "songs", vec!["b".into()]), 2);
        });
        let sheet = sim
            .node_ref::<GoogleCloud>(g)
            .sheet("author", "songs")
            .unwrap();
        assert_eq!(sheet.rows.len(), 2);
    }

    #[test]
    fn notification_feature_emails_the_owner() {
        let (mut sim, g) = cloud_sim();
        sim.with_node::<GoogleCloud, _>(g, |gc, ctx| {
            gc.user("author")
                .sheets
                .entry("log".into())
                .or_default()
                .notify = true;
            gc.append_row(ctx, "author", "log", vec!["x".into()]);
        });
        let gc = sim.node_ref::<GoogleCloud>(g);
        let msgs = gc.messages_since("author", 0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].from, SHEETS_NOTIFY_FROM);
        assert!(msgs[0].subject.contains("log"));
    }

    #[test]
    fn notification_disabled_sends_nothing() {
        let (mut sim, g) = cloud_sim();
        sim.with_node::<GoogleCloud, _>(g, |gc, ctx| {
            gc.append_row(ctx, "author", "log", vec!["x".into()]);
        });
        assert_eq!(
            sim.node_ref::<GoogleCloud>(g)
                .messages_since("author", 0)
                .len(),
            0
        );
    }

    /// One POST of `body` to `path` on the cloud `g`, over the WAN.
    fn post(sim: &mut Sim, g: NodeId, path: &str, body: &str) -> NodeId {
        let req = Request::post(path).with_body(body.to_owned());
        Client::spawn(sim, g, req, LinkSpec::wan())
    }

    #[test]
    fn http_api_inject_send_drive_sheets() {
        let (mut sim, g) = cloud_sim();
        for (path, body) in [
            ("/gmail/author/inject", r#"{"from":"x@y","subject":"s"}"#),
            ("/gmail/author/send", r#"{"to":"friend","subject":"fwd"}"#),
            ("/drive/author/files", r#"{"name":"f.txt","content":"c"}"#),
            ("/sheets/author/songs/rows", r#"{"cells":["t"]}"#),
            ("/sheets/author/songs/notify", r#"{"enabled":true}"#),
        ] {
            let p = post(&mut sim, g, path, body);
            sim.run_until_idle();
            assert_eq!(Client::status(&sim, p), Some(200), "path {path}");
        }
        let gc = sim.node_ref::<GoogleCloud>(g);
        assert_eq!(gc.messages_since("author", 0).len(), 1);
        assert_eq!(gc.messages_since("friend", 0).len(), 1);
        assert_eq!(gc.files("author"), vec!["f.txt"]);
        assert!(gc.sheet("author", "songs").unwrap().notify);
    }

    #[test]
    fn bad_bodies_are_400() {
        let (mut sim, g) = cloud_sim();
        let p = post(&mut sim, g, "/gmail/author/inject", "not json");
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, p), Some(400));
    }
}
