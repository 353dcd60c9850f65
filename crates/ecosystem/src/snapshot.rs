//! The crawled-data model: services, applets, snapshots, and the weekly
//! counts — the shapes §3.1's crawler produces and §3.2's analyses consume.
//!
//! An applet record is a row of ids into a table of services (a
//! [`Snapshot`]'s or an `Ecosystem`'s): its trigger and action are
//! [`Slot`]s and a service author is a service index, so every slug is held
//! once, by its [`ServiceRecord`], and read through [`ServiceTable`]. The
//! name, `If {trigger} then {action}`, is rendered, never stored.

use crate::taxonomy::Category;
use serde::de::{Error, Reader};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use tap_protocol::StepNode;

/// Who published an applet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Author {
    /// A partner service's own applet: the service's index in the table.
    Service(u32),
    /// A user channel ("most applets (98%) are home-made by users").
    User(u32),
}

impl Author {
    /// True for user-made applets.
    pub fn is_user(&self) -> bool {
        matches!(self, Author::User(_))
    }
}

/// A trigger or an action: its service's index in the table and its index
/// among that service's triggers or actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    pub service: u32,
    pub slot: u32,
}

impl Slot {
    pub fn new(service: u32, slot: u32) -> Slot {
        Slot { service, slot }
    }
}

/// One partner service as seen by the crawler.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ServiceRecord {
    pub slug: String,
    pub name: String,
    pub category: Category,
    /// Trigger slugs this service lists.
    pub triggers: Vec<String>,
    /// Action slugs this service lists.
    pub actions: Vec<String>,
    /// Week the service first appeared.
    pub created_week: u32,
    /// Triggers an applet names that the service does not list: a week's
    /// page lists a prefix of the service's slots, whichever ones its
    /// applets use, and two anchor applets name an action their service is
    /// never dealt. Slot `triggers.len() + k` is the `k`-th. Never
    /// serialized.
    #[serde(default)]
    pub unlisted_triggers: Vec<String>,
    /// Actions an applet names that the service does not list, likewise.
    #[serde(default)]
    pub unlisted_actions: Vec<String>,
}

impl Serialize for ServiceRecord {
    fn write_json(&self, out: &mut String) {
        let mut fields: [(&str, &dyn Serialize); 6] = [
            ("actions", &self.actions),
            ("category", &self.category),
            ("created_week", &self.created_week),
            ("name", &self.name),
            ("slug", &self.slug),
            ("triggers", &self.triggers),
        ];
        serde::ser::write_fields(out, &mut fields);
    }
}

impl ServiceRecord {
    /// The slug of trigger `slot`.
    pub fn trigger(&self, slot: u32) -> &str {
        nth(&self.triggers, &self.unlisted_triggers, slot)
    }

    /// The slug of action `slot`.
    pub fn action(&self, slot: u32) -> &str {
        nth(&self.actions, &self.unlisted_actions, slot)
    }

    /// This service as a week lists it: its first `triggers` triggers and
    /// `actions` actions, the rest unlisted, so every slot keeps its id.
    pub(crate) fn listing(&self, triggers: usize, actions: usize) -> ServiceRecord {
        let mut s = self.clone();
        s.unlisted_triggers = s.triggers.split_off(triggers);
        s.unlisted_triggers
            .extend_from_slice(&self.unlisted_triggers);
        s.unlisted_actions = s.actions.split_off(actions);
        s.unlisted_actions.extend_from_slice(&self.unlisted_actions);
        s
    }
}

fn nth<'a>(listed: &'a [String], unlisted: &'a [String], slot: u32) -> &'a str {
    let i = slot as usize;
    listed.get(i).unwrap_or_else(|| &unlisted[i - listed.len()])
}

/// The slot of `slug` among `listed` then `unlisted`; a slug in neither
/// joins `unlisted`.
fn slot_of(listed: &[String], unlisted: &mut Vec<String>, slug: &str) -> u32 {
    let found = listed.iter().chain(&*unlisted).position(|s| s == slug);
    let slot = found.unwrap_or_else(|| {
        unlisted.push(slug.into());
        listed.len() + unlisted.len() - 1
    });
    slot as u32
}

/// One public applet as seen by the crawler. §3.1 lists exactly these
/// fields: name, description, trigger, trigger service, action name, action
/// service, and add count. The services, trigger and action are ids into a
/// [`ServiceTable`], which also renders the name.
#[derive(Debug, Clone, PartialEq)]
pub struct AppletRecord {
    /// Six-digit page id (the crawler enumerates these).
    pub id: u32,
    pub trigger: Slot,
    pub action: Slot,
    pub author: Author,
    pub add_count: u64,
    /// Week the applet was published.
    pub created_week: u32,
    /// Multi-step execution DAG (Zapier-style), empty for the classic
    /// trigger→action applets the paper crawled. Node slugs are abstract:
    /// runtimes resolve query/action slugs against the services they
    /// actually install the applet on.
    pub steps: Vec<StepNode>,
}

/// A table of services that [`AppletRecord`]s index into. A slug read
/// through it borrows from the table and allocates nothing.
pub trait ServiceTable {
    fn services(&self) -> &[ServiceRecord];

    fn service(&self, id: u32) -> &ServiceRecord {
        &self.services()[id as usize]
    }

    fn trigger_service(&self, a: &AppletRecord) -> &str {
        &self.service(a.trigger.service).slug
    }

    fn trigger(&self, a: &AppletRecord) -> &str {
        self.service(a.trigger.service).trigger(a.trigger.slot)
    }

    fn action_service(&self, a: &AppletRecord) -> &str {
        &self.service(a.action.service).slug
    }

    fn action(&self, a: &AppletRecord) -> &str {
        self.service(a.action.service).action(a.action.slot)
    }

    /// The applet's name, `If {trigger} then {action}`.
    fn name(&self, a: &AppletRecord) -> AppletName<'_> {
        AppletName(self.trigger(a), self.action(a))
    }
}

impl ServiceTable for [ServiceRecord] {
    fn services(&self) -> &[ServiceRecord] {
        self
    }
}

impl ServiceTable for Snapshot {
    fn services(&self) -> &[ServiceRecord] {
        &self.services
    }
}

/// An applet's name, rendered from its trigger and action slugs.
#[derive(Debug, Clone, Copy)]
pub struct AppletName<'a>(pub &'a str, pub &'a str);

impl fmt::Display for AppletName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "If {} then {}", self.0, self.1)
    }
}

impl AppletName<'_> {
    /// Whether `text` is this name.
    pub(crate) fn is(&self, text: &str) -> bool {
        let rest = text
            .strip_prefix("If ")
            .and_then(|r| r.strip_prefix(self.0));
        rest.and_then(|r| r.strip_prefix(" then ")) == Some(self.1)
    }
}

/// Why an applet named by slugs (on a page, or in an archived snapshot)
/// is not a record of its service table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// A field is missing or does not parse.
    Malformed(&'static str),
    /// A service slug the table does not hold.
    UnknownService(String),
    /// A name other than the `If {trigger} then {action}` its slots render.
    NameMismatch(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Malformed(field) => write!(f, "missing or malformed {field}"),
            RecordError::UnknownService(slug) => write!(f, "unknown service `{slug}`"),
            RecordError::NameMismatch(name) => write!(f, "`{name}` is not its slots' name"),
        }
    }
}

/// Finds a service in a table by slug: the table's indices in slug order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlugIndex(Vec<u32>);

impl SlugIndex {
    pub fn new(services: &[ServiceRecord]) -> SlugIndex {
        let mut order: Vec<u32> = (0..services.len() as u32).collect();
        order.sort_by_key(|&i| &services[i as usize].slug);
        SlugIndex(order)
    }

    /// The index of service `slug` in `services`, the table this was built
    /// over.
    pub(crate) fn find(&self, services: &[ServiceRecord], slug: &str) -> Result<u32, RecordError> {
        let k = self
            .0
            .binary_search_by(|&i| services[i as usize].slug.as_str().cmp(slug));
        k.map(|k| self.0[k])
            .map_err(|_| RecordError::UnknownService(slug.into()))
    }

    /// The trigger and action an applet names by (service, slot) slugs, as
    /// ids into `services`. A slot its service does not list joins the
    /// service's unlisted ones.
    pub(crate) fn slots(
        &self,
        services: &mut [ServiceRecord],
        [trigger_service, trigger, action_service, action]: [&str; 4],
    ) -> Result<(Slot, Slot), RecordError> {
        let ts = self.find(services, trigger_service)?;
        let as_ = self.find(services, action_service)?;
        let t = &mut services[ts as usize];
        let t = slot_of(&t.triggers, &mut t.unlisted_triggers, trigger);
        let a = &mut services[as_ as usize];
        let a = slot_of(&a.actions, &mut a.unlisted_actions, action);
        Ok((Slot::new(ts, t), Slot::new(as_, a)))
    }

    /// The record an applet named by slugs is, as ids into `services` (see
    /// [`SlugIndex::slots`]), if its name is the one its slots render.
    pub(crate) fn resolve(
        &self,
        services: &mut [ServiceRecord],
        a: NamedApplet,
    ) -> Result<AppletRecord, RecordError> {
        if !AppletName(&a.trigger, &a.action).is(&a.name) {
            return Err(RecordError::NameMismatch(a.name));
        }
        let author = match a.author {
            NamedAuthor::Service(slug) => Author::Service(self.find(services, &slug)?),
            NamedAuthor::User(u) => Author::User(u),
        };
        let slugs = [&a.trigger_service, &a.trigger, &a.action_service, &a.action];
        let (trigger, action) = self.slots(services, slugs.map(String::as_str))?;
        let (id, add_count, created_week, steps) = (a.id, a.add_count, a.created_week, a.steps);
        Ok(AppletRecord {
            id,
            trigger,
            action,
            author,
            add_count,
            created_week,
            steps,
        })
    }
}

/// An applet as a page or an archived snapshot names it: by slug.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct NamedApplet {
    pub id: u32,
    pub name: String,
    pub trigger_service: String,
    pub trigger: String,
    pub action_service: String,
    pub action: String,
    pub author: NamedAuthor,
    pub add_count: u64,
    pub created_week: u32,
    #[serde(default)]
    pub steps: Vec<StepNode>,
}

/// An author as a page or an archive names it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum NamedAuthor {
    Service(String),
    User(u32),
}

/// A table's applets as JSON, each written with the slugs its ids name,
/// under the keys a [`NamedApplet`] reads back.
pub(crate) struct Applets<'a>(pub &'a [ServiceRecord], pub &'a [AppletRecord]);

impl Serialize for Applets<'_> {
    fn write_json(&self, out: &mut String) {
        let table = self.0;
        out.push('[');
        for (i, a) in self.1.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let author = match a.author {
                Author::Service(s) => NamedAuthor::Service(table.service(s).slug.clone()),
                Author::User(u) => NamedAuthor::User(u),
            };
            let name = table.name(a).to_string();
            let (ts, t) = (table.trigger_service(a), table.trigger(a));
            let (as_, ac) = (table.action_service(a), table.action(a));
            let mut fields: Vec<(&str, &dyn Serialize)> = vec![
                ("id", &a.id),
                ("name", &name),
                ("trigger_service", &ts),
                ("trigger", &t),
                ("action_service", &as_),
                ("action", &ac),
                ("author", &author),
                ("add_count", &a.add_count),
                ("created_week", &a.created_week),
            ];
            // `steps` appears only when nonempty, so an all-classic table
            // keeps its pre-multi-step bytes.
            if !a.steps.is_empty() {
                fields.push(("steps", &a.steps));
            }
            serde::ser::write_fields(out, &mut fields);
        }
        out.push(']');
    }
}

/// One weekly snapshot of the ecosystem. Its applets index into its own
/// `services`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Zero-based week index.
    pub week: u32,
    /// Calendar label, e.g. `2017-03-25`.
    pub date: String,
    pub services: Vec<ServiceRecord>,
    pub applets: Vec<AppletRecord>,
}

impl Serialize for Snapshot {
    fn write_json(&self, out: &mut String) {
        let mut fields: [(&str, &dyn Serialize); 4] = [
            ("applets", &Applets(&self.services, &self.applets)),
            ("date", &self.date),
            ("services", &self.services),
            ("week", &self.week),
        ];
        serde::ser::write_fields(out, &mut fields);
    }
}

/// A snapshot as its JSON spells it: applets name their slots by slug.
#[derive(Deserialize)]
struct ArchivedSnapshot {
    week: u32,
    date: String,
    services: Vec<ServiceRecord>,
    applets: Vec<NamedApplet>,
}

impl Deserialize for Snapshot {
    fn read_json(r: &mut Reader<'_>) -> Result<Snapshot, Error> {
        let ArchivedSnapshot {
            week,
            date,
            mut services,
            applets,
        } = ArchivedSnapshot::read_json(r)?;
        let index = SlugIndex::new(&services);
        let applets = applets.into_iter().map(|a| index.resolve(&mut services, a));
        let applets = applets.collect::<Result<_, _>>().map_err(Error::custom)?;
        Ok(Snapshot {
            week,
            date,
            services,
            applets,
        })
    }
}

impl Snapshot {
    /// Total add count across applets.
    pub fn total_add_count(&self) -> u64 {
        self.applets.iter().map(|a| a.add_count).sum()
    }

    /// Serialize to JSON (what the crawler archives per week).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parse an archived snapshot. A slot its service does not list joins
    /// the service's unlisted ones, as in a crawl.
    pub fn from_json(s: &str) -> Result<Snapshot, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// One week's totals: what Table 2 and §3.2's growth paragraph read.
/// [`Ecosystem::week_counts`] counts them without building a [`Snapshot`];
/// [`WeekCounts::of`] counts a crawled one.
///
/// [`Ecosystem::week_counts`]: crate::Ecosystem::week_counts
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeekCounts {
    pub week: u32,
    pub services: usize,
    pub triggers: usize,
    pub actions: usize,
    pub applets: usize,
    pub add_count: u64,
    /// Distinct user channels with at least one published applet.
    pub contributors: usize,
}

impl WeekCounts {
    /// Count a snapshot.
    pub fn of(snap: &Snapshot) -> WeekCounts {
        let users = snap.applets.iter().filter_map(|a| match a.author {
            Author::User(u) => Some(u),
            Author::Service(_) => None,
        });
        WeekCounts {
            week: snap.week,
            services: snap.services.len(),
            triggers: snap.services.iter().map(|s| s.triggers.len()).sum(),
            actions: snap.services.iter().map(|s| s.actions.len()).sum(),
            applets: snap.applets.len(),
            add_count: snap.total_add_count(),
            contributors: users.collect::<HashSet<u32>>().len(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn service(slug: &str, cat: Category, nt: usize, na: usize) -> ServiceRecord {
        ServiceRecord {
            slug: slug.into(),
            name: slug.to_uppercase(),
            category: cat,
            triggers: (0..nt).map(|i| format!("t{i}")).collect(),
            actions: (0..na).map(|i| format!("a{i}")).collect(),
            created_week: 0,
            unlisted_triggers: Vec::new(),
            unlisted_actions: Vec::new(),
        }
    }

    fn applet(id: u32, author: Author, adds: u64) -> AppletRecord {
        AppletRecord {
            id,
            trigger: Slot::new(0, 0),
            action: Slot::new(1, 0),
            author,
            add_count: adds,
            created_week: 0,
            steps: Vec::new(),
        }
    }

    fn snapshot() -> Snapshot {
        Snapshot {
            week: 18,
            date: "2017-03-25".into(),
            services: vec![
                service("svc_a", Category::SmartHomeDevice, 2, 1),
                service("svc_b", Category::Email, 1, 3),
            ],
            applets: vec![
                applet(1, Author::User(7), 100),
                applet(2, Author::User(7), 50),
                applet(3, Author::User(9), 10),
                applet(4, Author::Service(0), 40),
            ],
        }
    }

    #[test]
    fn aggregate_counts() {
        let counts = WeekCounts {
            week: 18,
            services: 2,
            triggers: 3,
            actions: 4,
            applets: 4,
            add_count: 200,
            contributors: 2,
        };
        assert_eq!(WeekCounts::of(&snapshot()), counts);
    }

    #[test]
    fn json_roundtrip() {
        let s = snapshot();
        let json = s.to_json();
        assert!(json.contains(r#""author":{"Service":"svc_a"}"#), "{json}");
        assert!(json.contains(r#""name":"If t0 then a0""#), "{json}");
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn a_slot_its_service_does_not_list_reads_back_as_unlisted() {
        let mut s = snapshot();
        s.services[1].unlisted_actions.push("a9".into());
        s.applets[0].action.slot = 3;
        let back = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(
            (back.action(&back.applets[0]), back.to_json()),
            ("a9", s.to_json())
        );
    }

    #[test]
    fn an_archive_naming_what_its_table_lacks_is_refused() {
        let json = snapshot().to_json();
        for (from, to, why) in [
            (
                "\"trigger_service\":\"svc_a\"",
                "\"trigger_service\":\"nope\"",
                "unknown service `nope`",
            ),
            (
                "{\"Service\":\"svc_a\"}",
                "{\"Service\":\"nope\"}",
                "unknown service `nope`",
            ),
            ("If t0 then a0", "If t1 then a0", "is not its slots' name"),
        ] {
            let err = Snapshot::from_json(&json.replacen(from, to, 1)).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn author_kinds() {
        assert!(Author::User(1).is_user());
        assert!(!Author::Service(0).is_user());
    }
}
