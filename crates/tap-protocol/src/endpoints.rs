//! The partner-service URL grammar.
//!
//! Each trigger or action has a unique URL under the service's base URL,
//! e.g. `https://api.myservice.com/ifttt/actions/turn_on_light` (§2.2). We
//! model the v1 path shape used by the public API reference.

use crate::ids::{ActionSlug, QuerySlug, TriggerSlug};
use simnet::Str;

/// API prefix shared by all partner endpoints.
pub const API_PREFIX: &str = "/ifttt/v1";

/// Path of the service status endpoint (engine health checks).
pub const STATUS_PATH: &str = "/ifttt/v1/status";

/// Path of the endpoint-discovery test setup (engine integration tests).
pub const TEST_SETUP_PATH: &str = "/ifttt/v1/test/setup";

/// Path the engine exposes for realtime-API notifications from services.
pub const REALTIME_NOTIFY_PATH: &str = "/ifttt/v1/realtime/notifications";

/// Path of the coalesced multi-trigger poll endpoint: one POST polls many
/// subscriptions of one user (the trigger slugs ride in the body).
pub const BATCH_POLL_PATH: &str = "/ifttt/v1/batch/poll";

/// Path of the hosted OAuth2 authorization page (user-facing: no service key).
pub const OAUTH_AUTHORIZE_PATH: &str = "/oauth2/authorize";

/// Path of the OAuth2 code-for-token exchange.
pub const OAUTH_TOKEN_PATH: &str = "/oauth2/token";

/// What every trigger polling endpoint's path starts with.
const TRIGGER_PREFIX: &str = "/ifttt/v1/triggers/";

/// Path of a trigger polling endpoint.
pub fn trigger_path(slug: &TriggerSlug) -> Str {
    format_args!("{TRIGGER_PREFIX}{slug}").into()
}

/// Is `path` exactly [`trigger_path`]`(slug)`? (No allocation.)
pub fn is_trigger_path(path: &str, slug: &TriggerSlug) -> bool {
    path.strip_prefix(TRIGGER_PREFIX) == Some(slug.as_str())
}

/// Does `path` address a polling endpoint — some trigger's, or the batch
/// one? A prefix test, not [`parse`]: it asks what a request was meant for.
pub fn is_poll_path(path: &str) -> bool {
    path.starts_with(TRIGGER_PREFIX) || path == BATCH_POLL_PATH
}

/// Path of an action execution endpoint.
pub fn action_path(slug: &ActionSlug) -> Str {
    format_args!("{API_PREFIX}/actions/{slug}").into()
}

/// Path of a query endpoint.
pub fn query_path(slug: &QuerySlug) -> Str {
    format_args!("{API_PREFIX}/queries/{slug}").into()
}

/// What a path under the service base URL refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    Status,
    TestSetup,
    Trigger(TriggerSlug),
    Action(ActionSlug),
    Query(QuerySlug),
    /// Coalesced multi-trigger poll ([`BATCH_POLL_PATH`]).
    BatchPoll,
    /// OAuth2 authorization page (user-facing).
    OAuthAuthorize,
    /// OAuth2 token exchange.
    OAuthToken,
}

/// Parse a request path into an [`Endpoint`].
pub fn parse(path: &str) -> Option<Endpoint> {
    match path {
        STATUS_PATH => return Some(Endpoint::Status),
        TEST_SETUP_PATH => return Some(Endpoint::TestSetup),
        BATCH_POLL_PATH => return Some(Endpoint::BatchPoll),
        OAUTH_AUTHORIZE_PATH => return Some(Endpoint::OAuthAuthorize),
        OAUTH_TOKEN_PATH => return Some(Endpoint::OAuthToken),
        _ => {}
    }
    let rest = path.strip_prefix(API_PREFIX)?;
    let mut parts = rest.split('/').filter(|s| !s.is_empty());
    match (parts.next(), parts.next(), parts.next()) {
        (Some("triggers"), Some(slug), None) => Some(Endpoint::Trigger(TriggerSlug::new(slug))),
        (Some("actions"), Some(slug), None) => Some(Endpoint::Action(ActionSlug::new(slug))),
        (Some("queries"), Some(slug), None) => Some(Endpoint::Query(QuerySlug::new(slug))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_parser_agree() {
        let t = TriggerSlug::new("any_new_email");
        assert!(is_trigger_path(&trigger_path(&t), &t) && is_poll_path(&trigger_path(&t)));
        assert!(!is_trigger_path("/ifttt/v1/triggers/any_new_email/", &t));
        assert!(is_poll_path(BATCH_POLL_PATH) && !is_poll_path("/ifttt/v1/actions/x"));
        assert_eq!(parse(&trigger_path(&t)), Some(Endpoint::Trigger(t)));
        let a = ActionSlug::new("turn_on_lights");
        assert_eq!(parse(&action_path(&a)), Some(Endpoint::Action(a)));
    }

    #[test]
    fn fixed_endpoints_parse() {
        assert_eq!(parse(STATUS_PATH), Some(Endpoint::Status));
        assert_eq!(parse(TEST_SETUP_PATH), Some(Endpoint::TestSetup));
        assert_eq!(parse(OAUTH_AUTHORIZE_PATH), Some(Endpoint::OAuthAuthorize));
        assert_eq!(parse(OAUTH_TOKEN_PATH), Some(Endpoint::OAuthToken));
        assert_eq!(parse(BATCH_POLL_PATH), Some(Endpoint::BatchPoll));
    }

    #[test]
    fn query_paths_parse() {
        let q = QuerySlug::new("current_condition");
        assert_eq!(parse(&query_path(&q)), Some(Endpoint::Query(q)));
    }

    #[test]
    fn garbage_paths_do_not_parse() {
        assert_eq!(parse("/"), None);
        assert_eq!(parse("/ifttt/v1"), None);
        assert_eq!(parse("/ifttt/v1/triggers"), None);
        assert_eq!(parse("/ifttt/v1/triggers/a/b"), None);
        assert_eq!(parse("/ifttt/v2/triggers/a"), None);
        assert_eq!(parse("/api/other"), None);
    }
}
