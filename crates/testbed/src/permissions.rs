//! Permission management: the §6 least-privilege ablation.
//!
//! §6: "IFTTT performs coarse-grained permission control at the service
//! level: for a service involved in any trigger or action installed by the
//! user, IFTTT will need **all** permissions of the service … the 'least
//! privilege principle' is violated."
//!
//! [`PermissionManager`] implements both the production behaviour
//! ([`Granularity::ServiceLevel`]) and the recommended fine-grained scheme
//! ([`Granularity::PerCapability`]), plus an audit that quantifies the
//! excess authority the coarse scheme grants — the measurement behind the
//! paper's recommendation. The engine never consults it: the model is
//! driven over the Table 4 applets by [`paper_applets_excess`].

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use tap_protocol::{ServiceSlug, UserId};

use crate::applets::{paper_applet, ServiceVariant, ALL_PAPER_APPLETS};

/// A single named capability a service exposes (one trigger or action, or
/// a backing API scope like "delete email").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Capability(pub String);

impl Capability {
    /// Wrap a capability name.
    pub fn new(s: impl Into<String>) -> Self {
        Capability(s.into())
    }
}

/// Which permission model is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Production IFTTT: connecting a service grants *all* its capabilities.
    ServiceLevel,
    /// §6 recommendation: grant only the capabilities an applet needs.
    PerCapability,
}

/// Result of the least-privilege audit for one (user, service) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    pub user: UserId,
    pub service: ServiceSlug,
    /// Capabilities the user's applets actually need.
    pub needed: usize,
    /// Capabilities currently granted.
    pub granted: usize,
}

impl AuditEntry {
    /// Capabilities granted beyond need.
    pub fn excess(&self) -> usize {
        self.granted.saturating_sub(self.needed)
    }
}

/// What one user's applets need from one service, and what it granted.
#[derive(Debug, Default)]
struct Connection {
    needed: HashSet<Capability>,
    granted: HashSet<Capability>,
}

/// Tracks what each service exposes and what each user has granted.
#[derive(Debug)]
pub struct PermissionManager {
    granularity: Granularity,
    /// Full capability set of each service.
    catalog: HashMap<ServiceSlug, HashSet<Capability>>,
    connections: HashMap<(UserId, ServiceSlug), Connection>,
}

impl PermissionManager {
    /// Create a manager with the given granularity.
    pub fn new(granularity: Granularity) -> Self {
        PermissionManager {
            granularity,
            catalog: HashMap::new(),
            connections: HashMap::new(),
        }
    }

    /// Declare a service's full capability surface.
    pub fn register_service(
        &mut self,
        service: ServiceSlug,
        capabilities: impl IntoIterator<Item = Capability>,
    ) {
        self.catalog
            .entry(service)
            .or_default()
            .extend(capabilities);
    }

    /// A user installs an applet half that needs `capability` of `service`:
    /// record the need and grant according to the granularity.
    pub fn request(&mut self, user: &UserId, service: &ServiceSlug, capability: Capability) {
        let key = (user.clone(), service.clone());
        let connection = self.connections.entry(key).or_default();
        connection.needed.insert(capability.clone());
        match (self.granularity, self.catalog.get(service)) {
            // All-or-nothing: the whole catalog is granted.
            (Granularity::ServiceLevel, Some(all)) => {
                connection.granted.extend(all.iter().cloned())
            }
            _ => {
                connection.granted.insert(capability);
            }
        }
    }

    /// Is `capability` currently granted?
    pub fn is_granted(
        &self,
        user: &UserId,
        service: &ServiceSlug,
        capability: &Capability,
    ) -> bool {
        let connection = self.connections.get(&(user.clone(), service.clone()));
        connection.is_some_and(|c| c.granted.contains(capability))
    }

    /// Revoke everything a user granted to a service (disconnect).
    pub fn revoke(&mut self, user: &UserId, service: &ServiceSlug) {
        self.connections.remove(&(user.clone(), service.clone()));
    }

    /// The least-privilege audit: needed vs granted for every connection.
    pub fn audit(&self) -> Vec<AuditEntry> {
        let entry = |((user, service), c): (&(UserId, ServiceSlug), &Connection)| AuditEntry {
            user: user.clone(),
            service: service.clone(),
            needed: c.needed.len(),
            granted: c.granted.len(),
        };
        let mut entries: Vec<AuditEntry> = self.connections.iter().map(entry).collect();
        entries.sort_by(|a, b| (&a.user, &a.service).cmp(&(&b.user, &b.service)));
        entries
    }

    /// Total excess capabilities across all connections — the headline
    /// number of the §6 permission discussion.
    pub fn total_excess(&self) -> usize {
        self.audit().iter().map(AuditEntry::excess).sum()
    }
}

/// A representative capability surface for each service A1–A7 touch.
#[rustfmt::skip]
const PAPER_SERVICE_CAPABILITIES: &[(&str, &[&str])] = &[
    ("gmail", &["read_email", "delete_email", "send_email", "manage_labels"]),
    ("philips_hue", &["read_state", "control_lights", "manage_scenes", "firmware_update"]),
    ("wemo", &["read_state", "control_switch", "schedule"]),
    ("google_sheets", &["read_sheets", "append_rows", "delete_sheets", "share_sheets"]),
    ("google_drive", &["read_files", "write_files", "delete_files", "share_files"]),
    ("amazon_alexa", &["read_utterances", "read_lists", "manage_lists"]),
];

/// Capabilities granted beyond need once the seven Table 4 applets are
/// installed under `granularity`.
pub fn paper_applets_excess(granularity: Granularity) -> usize {
    let mut pm = PermissionManager::new(granularity);
    for (service, caps) in PAPER_SERVICE_CAPABILITIES {
        let caps = caps.iter().map(|c| Capability::new(*c));
        pm.register_service(ServiceSlug::new(*service), caps);
    }
    for a in ALL_PAPER_APPLETS {
        let applet = paper_applet(a, ServiceVariant::Official);
        let (trigger, action) = (&applet.trigger, &applet.action);
        let trigger_cap = Capability::new(format!("trigger:{}", trigger.trigger));
        pm.request(&applet.owner, &trigger.service, trigger_cap);
        let action_cap = Capability::new(format!("action:{}", action.action));
        pm.request(&applet.owner, &action.service, action_cap);
    }
    pm.total_excess()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gmail_catalog() -> Vec<Capability> {
        ["read_email", "delete_email", "send_email", "manage_labels"]
            .iter()
            .map(|c| Capability::new(*c))
            .collect()
    }

    #[test]
    fn service_level_grants_everything() {
        // The paper's example: installing "new email arrives" grants
        // reading, deleting, sending, and managing email.
        let mut pm = PermissionManager::new(Granularity::ServiceLevel);
        let gmail = ServiceSlug::new("gmail");
        pm.register_service(gmail.clone(), gmail_catalog());
        let user = UserId::new("u");
        pm.request(&user, &gmail, Capability::new("read_email"));
        for cap in gmail_catalog() {
            assert!(
                pm.is_granted(&user, &gmail, &cap),
                "{cap:?} should be granted"
            );
        }
        let audit = pm.audit();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].needed, 1);
        assert_eq!(audit[0].granted, 4);
        assert_eq!(audit[0].excess(), 3);
        assert_eq!(pm.total_excess(), 3);
    }

    #[test]
    fn per_capability_grants_only_whats_needed() {
        let mut pm = PermissionManager::new(Granularity::PerCapability);
        let gmail = ServiceSlug::new("gmail");
        pm.register_service(gmail.clone(), gmail_catalog());
        let user = UserId::new("u");
        pm.request(&user, &gmail, Capability::new("read_email"));
        assert!(pm.is_granted(&user, &gmail, &Capability::new("read_email")));
        assert!(!pm.is_granted(&user, &gmail, &Capability::new("delete_email")));
        assert_eq!(pm.total_excess(), 0);
    }

    #[test]
    fn needs_accumulate_across_applets() {
        let mut pm = PermissionManager::new(Granularity::PerCapability);
        let gmail = ServiceSlug::new("gmail");
        pm.register_service(gmail.clone(), gmail_catalog());
        let user = UserId::new("u");
        pm.request(&user, &gmail, Capability::new("read_email"));
        pm.request(&user, &gmail, Capability::new("send_email"));
        let audit = pm.audit();
        assert_eq!(audit[0].needed, 2);
        assert_eq!(audit[0].granted, 2);
    }

    #[test]
    fn revoke_clears_the_connection() {
        let mut pm = PermissionManager::new(Granularity::ServiceLevel);
        let gmail = ServiceSlug::new("gmail");
        pm.register_service(gmail.clone(), gmail_catalog());
        let user = UserId::new("u");
        pm.request(&user, &gmail, Capability::new("read_email"));
        pm.revoke(&user, &gmail);
        assert!(!pm.is_granted(&user, &gmail, &Capability::new("read_email")));
        assert!(pm.audit().is_empty());
    }

    #[test]
    fn unregistered_service_grants_just_the_request() {
        let mut pm = PermissionManager::new(Granularity::ServiceLevel);
        let s = ServiceSlug::new("mystery");
        let user = UserId::new("u");
        pm.request(&user, &s, Capability::new("x"));
        assert!(pm.is_granted(&user, &s, &Capability::new("x")));
        assert_eq!(pm.total_excess(), 0);
    }

    #[test]
    fn users_are_isolated() {
        let mut pm = PermissionManager::new(Granularity::ServiceLevel);
        let gmail = ServiceSlug::new("gmail");
        pm.register_service(gmail.clone(), gmail_catalog());
        pm.request(&UserId::new("a"), &gmail, Capability::new("read_email"));
        assert!(!pm.is_granted(&UserId::new("b"), &gmail, &Capability::new("read_email")));
    }
}
