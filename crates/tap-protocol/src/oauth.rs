//! A minimal OAuth2 authorization-code flow.
//!
//! Per §2.2: "Many triggers/actions need to authenticate the user. This is
//! done using the OAuth2 framework. The user will be directed to the
//! authentication page … hosted by service providers … An access token will
//! be generated and cached at IFTTT."
//!
//! [`OAuthProvider`] is the service-side state machine: it issues one-time
//! authorization codes when the user consents, exchanges codes for bearer
//! tokens, and validates tokens on later API calls.

use crate::auth::AccessToken;
use crate::ids::UserId;
use mem::FxHashMap;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A one-time authorization code handed to the user's browser redirect.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AuthCode(pub String);

/// Errors of the token-exchange step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OAuthError {
    /// The code was never issued or was already redeemed.
    InvalidCode,
}

/// Service-side OAuth2 provider state.
#[derive(Debug, Default)]
pub struct OAuthProvider {
    /// Outstanding (unredeemed) codes.
    codes: FxHashMap<String, UserId>,
    /// Live tokens.
    tokens: FxHashMap<String, UserId>,
}

impl OAuthProvider {
    /// Create an empty provider.
    pub fn new() -> Self {
        OAuthProvider::default()
    }

    /// The user consented on the authorization page; issue a code.
    pub fn authorize(&mut self, user: UserId, rng: &mut impl Rng) -> AuthCode {
        let code = format!("ac_{:024x}", rng.gen::<u128>() & ((1u128 << 96) - 1));
        self.codes.insert(code.clone(), user);
        AuthCode(code)
    }

    /// The engine redeems a code for an access token. Codes are single-use.
    pub fn exchange(
        &mut self,
        code: &AuthCode,
        rng: &mut impl Rng,
    ) -> Result<AccessToken, OAuthError> {
        let user = self.codes.remove(&code.0).ok_or(OAuthError::InvalidCode)?;
        let token = AccessToken::generate(rng);
        self.tokens.insert(token.0.clone(), user);
        Ok(token)
    }

    /// Resolve a presented token to its user, if valid.
    pub fn validate(&self, token: &AccessToken) -> Option<&UserId> {
        self.tokens.get(&token.0)
    }

    /// Borrow-based variant of [`OAuthProvider::validate`] for hot paths
    /// that have a raw token string and need not allocate an
    /// [`AccessToken`].
    pub fn validate_str(&self, token: &str) -> Option<&UserId> {
        self.tokens.get(token)
    }

    /// Revoke a single token.
    pub fn revoke_token(&mut self, token: &AccessToken) -> bool {
        self.tokens.remove(&token.0).is_some()
    }

    /// Revoke every token belonging to `user` (account disconnect).
    /// Returns how many were revoked.
    pub fn revoke_user(&mut self, user: &UserId) -> usize {
        let before = self.tokens.len();
        self.tokens.retain(|_, u| u != user);
        before - self.tokens.len()
    }

    /// Directly mint a token for a user, bypassing the code dance.
    ///
    /// Test and setup convenience: lets a testbed pre-authorize accounts the
    /// way a long-lived cached token would appear in production.
    pub fn mint_token(&mut self, user: UserId, rng: &mut impl Rng) -> AccessToken {
        let token = AccessToken::generate(rng);
        self.tokens.insert(token.0.clone(), user);
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn full_code_flow_yields_valid_token() {
        let mut p = OAuthProvider::new();
        let mut r = rng();
        let code = p.authorize(UserId::new("alice"), &mut r);
        let token = p.exchange(&code, &mut r).unwrap();
        assert_eq!(p.validate(&token), Some(&UserId::new("alice")));
    }

    #[test]
    fn codes_are_single_use() {
        let mut p = OAuthProvider::new();
        let mut r = rng();
        let code = p.authorize(UserId::new("alice"), &mut r);
        p.exchange(&code, &mut r).unwrap();
        assert_eq!(p.exchange(&code, &mut r), Err(OAuthError::InvalidCode));
    }

    #[test]
    fn bogus_codes_rejected() {
        let mut p = OAuthProvider::new();
        let mut r = rng();
        assert_eq!(
            p.exchange(&AuthCode("ac_bogus".into()), &mut r),
            Err(OAuthError::InvalidCode)
        );
    }

    #[test]
    fn revoked_tokens_stop_validating() {
        let mut p = OAuthProvider::new();
        let mut r = rng();
        let t = p.mint_token(UserId::new("bob"), &mut r);
        assert!(p.validate(&t).is_some());
        assert!(p.revoke_token(&t));
        assert!(p.validate(&t).is_none());
        assert!(!p.revoke_token(&t));
    }

    #[test]
    fn revoke_user_clears_all_their_tokens() {
        let mut p = OAuthProvider::new();
        let mut r = rng();
        let t1 = p.mint_token(UserId::new("bob"), &mut r);
        let t2 = p.mint_token(UserId::new("bob"), &mut r);
        let t3 = p.mint_token(UserId::new("eve"), &mut r);
        assert_eq!(p.revoke_user(&UserId::new("bob")), 2);
        assert!(p.validate(&t1).is_none());
        assert!(p.validate(&t2).is_none());
        assert!(p.validate(&t3).is_some());
    }
}
