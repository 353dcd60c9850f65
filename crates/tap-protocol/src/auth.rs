//! Authentication material: service keys and OAuth2 access tokens.
//!
//! Per §2.2 of the paper: "IFTTT will generate for the service a key, which
//! will be embedded in future message exchanges … for authentication", and
//! user authorization is "done using the OAuth2 framework", with the access
//! token "generated and cached at IFTTT to make future applet execution
//! fully automated".

use rand::Rng;
use serde::{Deserialize, Serialize};
use simnet::Str;
use std::fmt;

/// Header carrying the service key on engine→service requests.
pub const SERVICE_KEY_HEADER: &str = "IFTTT-Service-Key";
/// Header carrying the user's access token on engine→service requests.
pub const AUTHORIZATION_HEADER: &str = "Authorization";
/// Header carrying a per-request random id (the paper observes one in every
/// polling query).
pub const REQUEST_ID_HEADER: &str = "X-Request-ID";
/// Header a 503 response uses to tell the client how long to back off
/// (whole seconds), honored by the engine's retry schedule.
pub const RETRY_AFTER_HEADER: &str = "Retry-After";

/// The per-service shared secret issued by the engine at publication time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ServiceKey(pub String);

impl ServiceKey {
    /// Generate a fresh random key.
    pub fn generate(rng: &mut impl Rng) -> Self {
        ServiceKey(format!("sk_{:032x}", rng.gen::<u128>()))
    }

    /// Constant-shape comparison helper.
    pub fn matches(&self, presented: &str) -> bool {
        self.0 == presented
    }
}

impl fmt::Display for ServiceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the full secret.
        write!(f, "sk_…{}", &self.0[self.0.len().saturating_sub(4)..])
    }
}

/// An OAuth2 bearer token authorizing the engine to act for one user.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AccessToken(pub String);

impl AccessToken {
    /// Generate a fresh random token.
    pub fn generate(rng: &mut impl Rng) -> Self {
        AccessToken(format!("at_{:032x}", rng.gen::<u128>()))
    }

    /// Render as an HTTP `Authorization` header value.
    pub fn bearer(&self) -> Str {
        format_args!("Bearer {}", self.0).into()
    }

    /// Parse from an `Authorization` header value.
    pub fn from_bearer(header: &str) -> Option<AccessToken> {
        header
            .strip_prefix("Bearer ")
            .map(|t| AccessToken(t.to_owned()))
    }
}

impl fmt::Display for AccessToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at_…{}", &self.0[self.0.len().saturating_sub(4)..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_keys_are_distinct_and_match_themselves() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ServiceKey::generate(&mut rng);
        let b = ServiceKey::generate(&mut rng);
        assert_ne!(a, b);
        assert!(a.matches(&a.0));
        assert!(!a.matches(&b.0));
    }

    #[test]
    fn bearer_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = AccessToken::generate(&mut rng);
        assert_eq!(AccessToken::from_bearer(&t.bearer()), Some(t));
        assert_eq!(AccessToken::from_bearer("Basic xyz"), None);
    }

    #[test]
    fn display_redacts_secrets() {
        let k = ServiceKey("sk_secretsecret".into());
        assert!(!k.to_string().contains("secretsecret"));
        let t = AccessToken("at_secretsecret".into());
        assert!(!t.to_string().contains("secretsecret"));
    }
}
