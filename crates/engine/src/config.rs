//! Engine behaviour knobs: [`EngineConfig`] and the policy types it
//! carries.

use crate::polling::PollPolicy;
use crate::resilience::{BreakerPolicy, RetryPolicy};
use simnet::rng::Dist;
use simnet::time::SimDuration;
use std::collections::HashSet;
use tap_protocol::ServiceSlug;

/// Runtime loop-detection configuration.
#[derive(Debug, Clone)]
pub struct RuntimeLoopConfig {
    /// Flag when more than this many executions…
    pub max_executions: usize,
    /// …occur within this window.
    pub window: SimDuration,
    /// Disable a flagged applet automatically.
    pub auto_disable: bool,
}

/// Which TAP ecosystem's execution semantics the engine mimics for
/// plans with more than one network node. A plan with a single network
/// node — the ordinary trigger→action applet — behaves identically under
/// both policies, so the switch never perturbs a classic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePolicy {
    /// IFTTT-style: network steps of a run launch as soon as their
    /// predecessors complete (parallel where the DAG allows), and a
    /// terminally failed step defaults to resolving empty while the rest
    /// of the run continues.
    #[default]
    IftttLike,
    /// Zapier-style: network steps run strictly one at a time in node
    /// order, and a terminally failed step defaults to halting the run —
    /// remaining nodes are skipped and the run dead-letters.
    ZapierLike,
}

/// Engine behaviour knobs. Defaults reproduce production IFTTT as measured
/// by the paper; experiment E3 swaps `polling` for `PollPolicy::fixed(1.0)`.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Poll scheduling policy.
    pub polling: PollPolicy,
    /// Multi-step execution semantics (see [`EnginePolicy`]).
    pub policy: EnginePolicy,
    /// Services whose realtime hints are honored (the paper: Alexa).
    pub realtime_allowlist: HashSet<ServiceSlug>,
    /// Engine-internal delay between a poll response with events and the
    /// first action request (Table 5 measures ≈1 s).
    pub dispatch_overhead: Dist,
    /// Delay of the first poll after installing an applet (s).
    pub initial_poll_delay: Dist,
    /// Timeout for polls and action requests.
    pub request_timeout: SimDuration,
    /// Retry budget + backoff for failed action dispatches. Disabled by
    /// default (give up immediately), which is what the paper's black-box
    /// view of IFTTT suggests.
    pub action_retry: RetryPolicy,
    /// Retry budget + backoff for failed subscription polls, on top of the
    /// regular cadence. Disabled by default: historically a failed poll
    /// just waited for the next cycle.
    pub poll_retry: RetryPolicy,
    /// Per-trigger-service circuit breaker; `None` (default) never sheds.
    pub breaker: Option<BreakerPolicy>,
    /// Reject applet installs that would create a (statically visible) loop.
    pub static_loop_check: bool,
    /// Runtime loop detection, if any.
    pub runtime_loop: Option<RuntimeLoopConfig>,
    /// Coalesce sibling subscriptions — same (user, trigger service,
    /// cadence class) — into one multi-trigger batch poll request. Off by
    /// default so E3 and the IftttLike calibration stay comparable with
    /// earlier revisions; the fleet workload turns it on.
    pub batch_polling: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            polling: PollPolicy::ifttt_like(),
            policy: EnginePolicy::IftttLike,
            realtime_allowlist: HashSet::new(),
            dispatch_overhead: Dist::LogNormal {
                mu: 0.0,
                sigma: 0.35,
                cap: 5.0,
            },
            initial_poll_delay: Dist::Uniform { lo: 1.0, hi: 5.0 },
            request_timeout: SimDuration::from_secs(30),
            action_retry: RetryPolicy::none(),
            poll_retry: RetryPolicy::none(),
            breaker: None,
            static_loop_check: false,
            runtime_loop: None,
            batch_polling: false,
        }
    }
}

impl EngineConfig {
    /// Production-like config with Alexa on the realtime allowlist, as the
    /// paper infers from the low latency of A5–A7.
    pub fn ifttt_like() -> Self {
        EngineConfig::default().allow_realtime(ServiceSlug::new("amazon_alexa"))
    }

    /// The authors' fast engine of E3: 1-second polling.
    pub fn fast() -> Self {
        EngineConfig {
            polling: PollPolicy::fixed(1.0),
            dispatch_overhead: Dist::Uniform { lo: 0.05, hi: 0.2 },
            initial_poll_delay: Dist::Uniform { lo: 0.1, hi: 1.0 },
            ..EngineConfig::default()
        }
    }

    /// Turn on the full resilience stack (retries with exponential
    /// backoff, poll retry, circuit breaking) on top of `self`. Used by
    /// chaos experiments; leaves every scheduling distribution untouched,
    /// so a fault-free run behaves identically to the base config.
    pub fn resilient(self) -> Self {
        self.with_action_retry(RetryPolicy::retries(3))
            .with_poll_retry(RetryPolicy::retries(2))
            .with_breaker(BreakerPolicy::default())
            // A lost response stalls its chain for a whole request timeout
            // before the retry machinery can react; under injected loss the
            // default 30 s dominates recovery latency, so tighten it.
            .with_request_timeout(SimDuration::from_secs(10))
    }

    /// Select the multi-step execution semantics.
    pub fn with_policy(mut self, policy: EnginePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Turn sibling-subscription batch polling on or off.
    pub fn with_batch_polling(mut self, on: bool) -> Self {
        self.batch_polling = on;
        self
    }

    /// Set the poll/action request timeout.
    pub fn with_request_timeout(mut self, timeout: SimDuration) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Set the retry budget for failed action dispatches.
    pub fn with_action_retry(mut self, policy: RetryPolicy) -> Self {
        self.action_retry = policy;
        self
    }

    /// Set the retry budget for failed subscription polls.
    pub fn with_poll_retry(mut self, policy: RetryPolicy) -> Self {
        self.poll_retry = policy;
        self
    }

    /// Install a per-trigger-service circuit-breaker policy.
    pub fn with_breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = Some(policy);
        self
    }

    /// Add a service to the realtime-hint allowlist.
    pub fn allow_realtime(mut self, slug: ServiceSlug) -> Self {
        self.realtime_allowlist.insert(slug);
        self
    }
}
