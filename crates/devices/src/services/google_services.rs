//! The Gmail, Google Drive, and Google Sheets partner services.
//!
//! All three are thin fronts over the [`crate::google::GoogleCloud`]
//! backend node. Being the vendor's own services they learn of app events
//! by internal push (the cloud's observer mechanism) and execute actions
//! with backend API calls, answered after the backend confirms.

use crate::events::DeviceEvent;
use crate::google;
use crate::service_core::ServiceCore;
use crate::services::{feed, lookup, Outcome, Partner, PartnerService};
use simnet::prelude::*;
use tap_protocol::{FieldMap, UserId};

/// Each Gmail push kind and the trigger it feeds (applets A3/A4).
const MAIL_EVENTS: &[(&str, &str)] = &[
    ("new_email", "any_new_email"),
    ("new_attachment", "new_attachment"),
];

/// What the Gmail service adds to the shell: its backend.
#[derive(Debug)]
pub struct Gmail {
    /// Backend cloud node.
    pub cloud: NodeId,
}

/// The Gmail partner service.
pub type GmailService = PartnerService<Gmail>;

impl Partner for Gmail {
    fn slug(&self) -> &str {
        "gmail"
    }

    fn triggers(&self) -> Vec<&str> {
        MAIL_EVENTS.iter().map(|(_, trigger)| *trigger).collect()
    }

    fn actions(&self) -> Vec<&str> {
        vec!["send_an_email"]
    }

    fn action(&mut self, user: &UserId, _action: &str, fields: FieldMap) -> Outcome {
        let field = |name: &str| fields.get(name).map_or("", String::as_str);
        let to = fields.get("to").unwrap_or(&user.0);
        let mail =
            serde_json::json!({ "to": to, "subject": field("subject"), "body": field("body") });
        Outcome::Relay {
            dst: self.cloud,
            req: Request::post(format!("/gmail/{user}/send")).with_body(mail.to_string()),
            done: "mail_sent",
        }
    }

    fn device_event(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, ev: &DeviceEvent) {
        if let Some(trigger) = lookup(MAIL_EVENTS, &ev.kind) {
            feed(core, ctx, trigger, ev, false);
        }
    }
}

/// What the Drive service adds to the shell: its backend.
#[derive(Debug)]
pub struct Drive {
    /// Backend cloud node.
    pub cloud: NodeId,
}

/// The Google Drive partner service (applet A4 saves Gmail attachments
/// to Drive).
pub type DriveService = PartnerService<Drive>;

impl Partner for Drive {
    fn slug(&self) -> &str {
        "google_drive"
    }

    fn actions(&self) -> Vec<&str> {
        vec!["save_file"]
    }

    fn action(&mut self, user: &UserId, _action: &str, fields: FieldMap) -> Outcome {
        Outcome::Relay {
            dst: self.cloud,
            req: google::save_file_request(&user.0, &fields, "attachment"),
            done: "file_saved",
        }
    }
}

/// What the Sheets service adds to the shell: its backend.
#[derive(Debug)]
pub struct Sheets {
    /// Backend cloud node.
    pub cloud: NodeId,
}

/// The Google Sheets partner service (applets A1/A7 add rows).
pub type SheetsService = PartnerService<Sheets>;

impl Partner for Sheets {
    fn slug(&self) -> &str {
        "google_sheets"
    }

    fn actions(&self) -> Vec<&str> {
        vec!["add_row"]
    }

    fn action(&mut self, user: &UserId, _action: &str, fields: FieldMap) -> Outcome {
        Outcome::Relay {
            dst: self.cloud,
            req: google::add_row_request(&user.0, &fields),
            done: "row_added",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::GoogleCloud;
    use crate::test_client::{action_request, Client};
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::TriggerSlug;

    fn google_with_services() -> (Sim, NodeId, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(91);
        let cloud = sim.add_node("google", GoogleCloud::new());
        let gmail = sim.add_node(
            "gmail_svc",
            GmailService::new(ServiceKey("sk_g".into()), Gmail { cloud }),
        );
        let drive = sim.add_node(
            "drive_svc",
            DriveService::new(ServiceKey("sk_d".into()), Drive { cloud }),
        );
        let sheets = sim.add_node(
            "sheets_svc",
            SheetsService::new(ServiceKey("sk_s".into()), Sheets { cloud }),
        );
        for svc in [gmail, drive, sheets] {
            sim.link(cloud, svc, LinkSpec::datacenter());
        }
        sim.node_mut::<GoogleCloud>(cloud).observers.add(gmail);
        (sim, cloud, gmail, drive, sheets)
    }

    #[test]
    fn injected_email_feeds_the_new_email_trigger() {
        let (mut sim, cloud, gmail, _, _) = google_with_services();
        let ti = sim.with_node::<GmailService, _>(gmail, |s, _| {
            s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("any_new_email"),
                FieldMap::new(),
            )
        });
        sim.with_node::<GoogleCloud, _>(cloud, |g, ctx| {
            g.deliver_email(ctx, "author", "x@y", "hi", "", None);
        });
        sim.run_until_idle();
        let s = sim.node_ref::<GmailService>(gmail);
        assert_eq!(s.core.buffer.len(&ti), 1);
        let events = s.core.buffer.latest(&ti, 10);
        assert_eq!(events[0].ingredients["subject"], "hi");
    }

    #[test]
    fn attachment_feeds_both_triggers() {
        let (mut sim, cloud, gmail, _, _) = google_with_services();
        let (ti_mail, ti_att) = sim.with_node::<GmailService, _>(gmail, |s, _| {
            (
                s.core.subscribe(
                    UserId::new("author"),
                    TriggerSlug::new("any_new_email"),
                    FieldMap::new(),
                ),
                s.core.subscribe(
                    UserId::new("author"),
                    TriggerSlug::new("new_attachment"),
                    FieldMap::new(),
                ),
            )
        });
        sim.with_node::<GoogleCloud, _>(cloud, |g, ctx| {
            g.deliver_email(
                ctx,
                "author",
                "x@y",
                "doc",
                "",
                Some(("a.pdf".into(), "data".into())),
            );
        });
        sim.run_until_idle();
        let s = sim.node_ref::<GmailService>(gmail);
        assert_eq!(s.core.buffer.len(&ti_mail), 1);
        assert_eq!(s.core.buffer.len(&ti_att), 1);
    }

    #[test]
    fn add_row_action_lands_in_the_sheet() {
        let (mut sim, cloud, _, _, sheets) = google_with_services();
        let bearer = sim.with_node::<SheetsService, _>(sheets, |s, ctx| {
            s.core
                .endpoint
                .oauth
                .mint_token(UserId::new("author"), ctx.rng())
                .bearer()
        });
        let mut fields = FieldMap::new();
        fields.insert("spreadsheet".into(), "songs".into());
        fields.insert("row".into(), "yesterday|||beatles".into());
        let req = action_request("add_row", "sk_s", &bearer, "author", fields);
        let sender = Client::spawn(&mut sim, sheets, req, LinkSpec::wan());
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, sender), Some(200));
        let sheet = sim
            .node_ref::<GoogleCloud>(cloud)
            .sheet("author", "songs")
            .unwrap();
        assert_eq!(
            sheet.rows,
            vec![vec!["yesterday".to_string(), "beatles".to_string()]]
        );
        assert_eq!(sim.node_ref::<SheetsService>(sheets).actions_done, 1);
    }

    #[test]
    fn save_file_action_lands_in_drive() {
        let (mut sim, cloud, _, drive, _) = google_with_services();
        let bearer = sim.with_node::<DriveService, _>(drive, |s, ctx| {
            s.core
                .endpoint
                .oauth
                .mint_token(UserId::new("author"), ctx.rng())
                .bearer()
        });
        let mut fields = FieldMap::new();
        fields.insert("name".into(), "report.pdf".into());
        fields.insert("content".into(), "PDFDATA".into());
        let req = action_request("save_file", "sk_d", &bearer, "author", fields);
        let sender = Client::spawn(&mut sim, drive, req, LinkSpec::wan());
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, sender), Some(200));
        assert_eq!(
            sim.node_ref::<GoogleCloud>(cloud).files("author"),
            vec!["report.pdf"]
        );
    }

    #[test]
    fn send_email_action_delivers_and_retriggers() {
        // The send_an_email action generates a new inbox message — the raw
        // material of the explicit infinite loop experiment.
        let (mut sim, cloud, gmail, _, _) = google_with_services();
        let (ti, bearer) = sim.with_node::<GmailService, _>(gmail, |s, ctx| {
            let ti = s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("any_new_email"),
                FieldMap::new(),
            );
            let bearer = s
                .core
                .endpoint
                .oauth
                .mint_token(UserId::new("author"), ctx.rng())
                .bearer();
            (ti, bearer)
        });
        let mut fields = FieldMap::new();
        fields.insert("subject".into(), "note to self".into());
        let req = action_request("send_an_email", "sk_g", &bearer, "author", fields);
        let sender = Client::spawn(&mut sim, gmail, req, LinkSpec::wan());
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, sender), Some(200));
        assert_eq!(
            sim.node_ref::<GoogleCloud>(cloud)
                .messages_since("author", 0)
                .len(),
            1
        );
        // The delivery push fed the trigger buffer again: action → trigger.
        assert_eq!(sim.node_ref::<GmailService>(gmail).core.buffer.len(&ti), 1);
    }
}
