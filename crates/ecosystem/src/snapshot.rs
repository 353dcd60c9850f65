//! The crawled-data model: services, applets, snapshots, and the weekly
//! counts — the shapes §3.1's crawler produces and §3.2's analyses consume.

use crate::taxonomy::Category;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use tap_protocol::StepNode;

/// Who published an applet.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Author {
    /// A partner service's own applet.
    Service(String),
    /// A user channel ("most applets (98%) are home-made by users").
    User(u32),
}

impl Author {
    /// True for user-made applets.
    pub fn is_user(&self) -> bool {
        matches!(self, Author::User(_))
    }
}

/// One partner service as seen by the crawler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceRecord {
    pub slug: String,
    pub name: String,
    pub category: Category,
    /// Trigger slugs this service exposes.
    pub triggers: Vec<String>,
    /// Action slugs this service exposes.
    pub actions: Vec<String>,
    /// Week the service first appeared.
    pub created_week: u32,
}

/// One public applet as seen by the crawler (§3.1 lists exactly these
/// fields: name, description, trigger, trigger service, action name, action
/// service, and add count).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct AppletRecord {
    /// Six-digit page id (the crawler enumerates these).
    pub id: u32,
    pub name: String,
    pub trigger_service: String,
    pub trigger: String,
    pub action_service: String,
    pub action: String,
    pub author: Author,
    pub add_count: u64,
    /// Week the applet was published.
    pub created_week: u32,
    /// Multi-step execution DAG (Zapier-style), empty for the classic
    /// trigger→action applets the paper crawled. Node slugs are abstract:
    /// runtimes resolve query/action slugs against the services they
    /// actually install the applet on.
    #[serde(default)]
    pub steps: Vec<StepNode>,
}

// Manual `Serialize` so an all-classic snapshot keeps its exact
// pre-multi-step byte representation: `steps` appears only when nonempty.
impl Serialize for AppletRecord {
    fn write_json(&self, out: &mut String) {
        let mut fields: Vec<(&str, &dyn Serialize)> = vec![
            ("id", &self.id),
            ("name", &self.name),
            ("trigger_service", &self.trigger_service),
            ("trigger", &self.trigger),
            ("action_service", &self.action_service),
            ("action", &self.action),
            ("author", &self.author),
            ("add_count", &self.add_count),
            ("created_week", &self.created_week),
        ];
        if !self.steps.is_empty() {
            fields.push(("steps", &self.steps));
        }
        serde::ser::write_fields(out, &mut fields);
    }
}

/// One weekly snapshot of the ecosystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Zero-based week index.
    pub week: u32,
    /// Calendar label, e.g. `2017-03-25`.
    pub date: String,
    pub services: Vec<ServiceRecord>,
    pub applets: Vec<AppletRecord>,
}

impl Snapshot {
    /// Total add count across applets.
    pub fn total_add_count(&self) -> u64 {
        self.applets.iter().map(|a| a.add_count).sum()
    }

    /// A slug → category lookup map (build once for hot analyses).
    pub fn category_index(&self) -> BTreeMap<&str, Category> {
        self.services
            .iter()
            .map(|s| (s.slug.as_str(), s.category))
            .collect()
    }

    /// Serialize to JSON (what the crawler archives per week).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parse an archived snapshot.
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
mod tests {
    use super::*;

    fn service(slug: &str, cat: Category, nt: usize, na: usize) -> ServiceRecord {
        ServiceRecord {
            slug: slug.into(),
            name: slug.to_uppercase(),
            category: cat,
            triggers: (0..nt).map(|i| format!("t{i}")).collect(),
            actions: (0..na).map(|i| format!("a{i}")).collect(),
            created_week: 0,
        }
    }

    fn applet(id: u32, author: Author, adds: u64) -> AppletRecord {
        AppletRecord {
            id,
            name: format!("applet {id}"),
            trigger_service: "svc_a".into(),
            trigger: "t0".into(),
            action_service: "svc_b".into(),
            action: "a0".into(),
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
                applet(4, Author::Service("svc_a".into()), 40),
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
        let back = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn author_kinds() {
        assert!(Author::User(1).is_user());
        assert!(!Author::Service("x".into()).is_user());
    }
}
