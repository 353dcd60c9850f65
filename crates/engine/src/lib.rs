//! # engine — a trigger-action-programming engine reproducing IFTTT
//!
//! The centralized engine the paper measures from the outside (and, for
//! experiment E3, re-implements): applet storage, per-subscription trigger
//! polling with batched event delivery, one plan-driven executor for
//! classic and multi-step applets with ingredient substitution, OAuth2 token caching, realtime-API hint handling with a
//! per-service allowlist, and static plus runtime infinite-loop detection.
//!
//! The crate is protocol-pure: it depends only on `simnet` and
//! `tap-protocol`, never on concrete devices, so any service speaking the
//! partner protocol can be driven by it.
//!
//! Entry points:
//! * [`TapEngine`] — the engine node; configure with [`EngineConfig`].
//! * [`LifecycleEvent`] / [`TapEngine::apply_lifecycle`] — the single
//!   applet/service lifecycle surface (install, uninstall, onboard,
//!   retire).
//! * [`PollPolicy`] — production-like, fixed (E3), or smart (§6) polling.
//! * [`Applet`] / [`AppletId`] — the automation rules.
//! * [`loopdetect`] — §4/§6 static and runtime loop detection.

pub mod applet;
pub mod conditions;
pub mod config;
pub mod engine;
mod exec;
pub mod lifecycle;
pub mod loopdetect;
pub mod obs;
pub mod polling;
pub mod resilience;

pub use applet::{substitute_fields, ActionRef, Applet, AppletId, QueryRef, TriggerRef};
pub use conditions::Condition;
pub use config::{EngineConfig, EnginePolicy, RuntimeLoopConfig};
pub use engine::{ServiceRegistration, TapEngine};
pub use lifecycle::{InstallError, LifecycleAck, LifecycleError, LifecycleEvent};
pub use loopdetect::{FeedRule, RuntimeLoopDetector, StaticLoopDetector};
pub use obs::{EngineStats, FlightRecorder, ObsEvent, ObsSink, Stat};
pub use polling::PollPolicy;
pub use resilience::{BackoffPolicy, BreakerPolicy, BreakerState, CircuitBreaker, RetryPolicy};
