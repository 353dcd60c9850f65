//! Infinite loops (§4, "Infinite Loop"), explicit and implicit, plus the
//! §6 countermeasures.
//!
//! * **Explicit**: an applet whose action feeds its own trigger (email →
//!   send email). IFTTT performs no syntax check, so it spins forever; the
//!   static detector (given the feed rule) rejects it at install time.
//! * **Implicit**: *add a row to my spreadsheet when an email is received*
//!   plus the spreadsheet's **notification feature** (row → email). The
//!   coupling lives outside IFTTT, so static analysis cannot see it —
//!   "some runtime detection techniques are needed", which the runtime
//!   detector provides.

use crate::topology::{Testbed, TestbedConfig, AUTHOR};
use devices::google::GoogleCloud;
use engine::{
    ActionRef, Applet, AppletId, EngineConfig, FeedRule, InstallError, RuntimeLoopConfig,
    TapEngine, TriggerRef,
};
use serde::{Deserialize, Serialize};
use simnet::prelude::*;
use tap_protocol::{ActionSlug, FieldMap, ServiceSlug, TriggerSlug, UserId};

/// What a loop experiment measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopOutcome {
    /// Actions the engine executed during the observation window.
    pub actions_executed: u64,
    /// Emails delivered to the author (the loop's working fluid).
    pub emails_delivered: u64,
    /// Did the runtime detector flag the applet?
    pub flagged: bool,
    /// Was the applet auto-disabled?
    pub disabled: bool,
    /// Was the install rejected by the static check?
    pub rejected_statically: bool,
}

fn email_to_email() -> Applet {
    Applet::new(
        AppletId(100),
        "When an email arrives, email me a copy",
        UserId::new(AUTHOR),
        TriggerRef {
            service: ServiceSlug::new("gmail"),
            trigger: TriggerSlug::new("any_new_email"),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: ServiceSlug::new("gmail"),
            action: ActionSlug::new("send_an_email"),
            fields: [("subject".to_string(), "fwd: {{subject}}".to_string())]
                .into_iter()
                .collect(),
        },
    )
}

fn email_to_sheet() -> Applet {
    Applet::new(
        AppletId(101),
        "Add a row in my Google Spreadsheet when an email is received",
        UserId::new(AUTHOR),
        TriggerRef {
            service: ServiceSlug::new("gmail"),
            trigger: TriggerSlug::new("any_new_email"),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: ServiceSlug::new("google_sheets"),
            action: ActionSlug::new("add_row"),
            fields: [
                ("spreadsheet".to_string(), "mail_log".to_string()),
                ("row".to_string(), "{{subject}}".to_string()),
            ]
            .into_iter()
            .collect(),
        },
    )
}

/// The gmail self-feed rule (an email action produces an email trigger).
pub fn gmail_feed_rule() -> FeedRule {
    FeedRule {
        action_service: ServiceSlug::new("gmail"),
        action: ActionSlug::new("send_an_email"),
        trigger_service: ServiceSlug::new("gmail"),
        trigger: TriggerSlug::new("any_new_email"),
    }
}

fn run_loop_world(
    applet: Applet,
    static_check: bool,
    runtime: Option<RuntimeLoopConfig>,
    enable_sheet_notification: bool,
    window: SimDuration,
    seed: u64,
) -> LoopOutcome {
    let mut engine_cfg = EngineConfig::fast(); // fast polling makes the loop spin visibly
    engine_cfg.static_loop_check = static_check;
    engine_cfg.runtime_loop = runtime;
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        engine: engine_cfg,
    });
    if enable_sheet_notification {
        // The user enabled the documented notification feature \[12\].
        tb.sim
            .node_mut::<GoogleCloud>(tb.nodes.google)
            .set_sheet_notify(AUTHOR, "mail_log", true);
    }
    let applet_id = applet.id;
    let install = tb.sim.with_node::<TapEngine, _>(tb.nodes.engine, |e, ctx| {
        if static_check {
            e.static_detector.declare_feed(gmail_feed_rule());
        }
        e.install_applet(ctx, applet)
    });
    if let Err(err) = install {
        assert!(matches!(err, InstallError::LoopDetected(_)));
        return LoopOutcome {
            actions_executed: 0,
            emails_delivered: 0,
            flagged: false,
            disabled: false,
            rejected_statically: true,
        };
    }
    tb.sim.run_for(SimDuration::from_secs(5));
    // Seed the loop with one external email.
    tb.controller(|c, ctx| c.inject_email(ctx, "seed", None));
    tb.sim.run_for(window);
    let engine_ref = tb.sim.node_ref::<TapEngine>(tb.nodes.engine);
    let stats = engine_ref.stats;
    let disabled = !engine_ref.is_enabled(applet_id);
    LoopOutcome {
        actions_executed: stats.actions_ok,
        emails_delivered: tb
            .sim
            .node_ref::<GoogleCloud>(tb.nodes.google)
            .emails_delivered,
        flagged: stats.loops_flagged > 0,
        disabled,
        rejected_statically: false,
    }
}

/// The explicit loop: email → send email.
///
/// With `static_check` the install is rejected; without it the loop spins
/// for `window` and the numbers show the waste.
pub fn explicit_loop_experiment(
    static_check: bool,
    runtime: Option<RuntimeLoopConfig>,
    window: SimDuration,
    seed: u64,
) -> LoopOutcome {
    run_loop_world(email_to_email(), static_check, runtime, false, window, seed)
}

/// Control experiment: the same email → add-row applet but with the
/// notification feature OFF — a perfectly normal applet. Used to check
/// that runtime loop detectors do not false-positive on ordinary usage.
pub fn normal_usage_experiment(
    runtime: Option<RuntimeLoopConfig>,
    emails: usize,
    seed: u64,
) -> LoopOutcome {
    let mut engine_cfg = EngineConfig::fast();
    engine_cfg.runtime_loop = runtime;
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        engine: engine_cfg,
    });
    let applet = email_to_sheet();
    let applet_id = applet.id;
    tb.install(applet).expect("installs");
    tb.sim.run_for(SimDuration::from_secs(5));
    for i in 0..emails {
        tb.controller(|c, ctx| c.inject_email(ctx, &format!("normal {i}"), None));
        tb.sim.run_for(SimDuration::from_secs(30));
    }
    let engine_ref = tb.sim.node_ref::<TapEngine>(tb.nodes.engine);
    LoopOutcome {
        actions_executed: engine_ref.stats.actions_ok,
        emails_delivered: tb
            .sim
            .node_ref::<GoogleCloud>(tb.nodes.google)
            .emails_delivered,
        flagged: engine_ref.stats.loops_flagged > 0,
        disabled: !engine_ref.is_enabled(applet_id),
        rejected_statically: false,
    }
}

/// The implicit loop: email → add row, with the sheet's notification
/// feature enabled. Static analysis cannot reject it (the coupling is
/// invisible); only a runtime detector catches it.
pub fn implicit_loop_experiment(
    static_check: bool,
    runtime: Option<RuntimeLoopConfig>,
    window: SimDuration,
    seed: u64,
) -> LoopOutcome {
    run_loop_world(email_to_sheet(), static_check, runtime, true, window, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> RuntimeLoopConfig {
        RuntimeLoopConfig {
            max_executions: 5,
            window: SimDuration::from_secs(120),
            auto_disable: true,
        }
    }

    #[test]
    fn explicit_loop_spins_without_any_check() {
        let o = explicit_loop_experiment(false, None, SimDuration::from_secs(90), 601);
        assert!(!o.rejected_statically);
        // One seed email amplifies into a stream of actions.
        assert!(
            o.actions_executed >= 10,
            "only {} actions",
            o.actions_executed
        );
        assert!(o.emails_delivered > 10);
    }

    #[test]
    fn explicit_loop_is_rejected_by_static_check() {
        let o = explicit_loop_experiment(true, None, SimDuration::from_secs(30), 602);
        assert!(o.rejected_statically);
        assert_eq!(o.actions_executed, 0);
    }

    #[test]
    fn implicit_loop_evades_static_check_but_runtime_catches_it() {
        // Static check on, but the sheets→gmail coupling is not declared:
        // the install passes — exactly the paper's point.
        let unprotected = implicit_loop_experiment(true, None, SimDuration::from_secs(90), 603);
        assert!(!unprotected.rejected_statically);
        assert!(unprotected.actions_executed >= 10, "loop should spin");
        // With the runtime detector, the applet is flagged and disabled.
        let protected =
            implicit_loop_experiment(true, Some(detector()), SimDuration::from_secs(90), 604);
        assert!(protected.flagged);
        assert!(protected.disabled);
        assert!(
            protected.actions_executed < unprotected.actions_executed / 2,
            "detector should cut executions: {} vs {}",
            protected.actions_executed,
            unprotected.actions_executed
        );
    }

    /// The detector guards runs, not a code path: the explicit loop
    /// spelled as a multi-step applet (filter → send email) is flagged
    /// and disabled exactly as the classic spelling is.
    #[test]
    fn multi_step_loop_is_flagged_and_disabled_like_a_classic_one() {
        use tap_protocol::{StepNode, StepPredicate, StepSpec};
        let classic = email_to_email();
        let steps = vec![
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::Always,
            }),
            StepNode::new(StepSpec::Action {
                action: classic.action.action.as_str().into(),
                fields: classic.action.fields.clone(),
            })
            .after(&[0]),
        ];
        let window = SimDuration::from_secs(90);
        let run = |applet| run_loop_world(applet, false, Some(detector()), false, window, 605);
        let multi = run(classic.clone().with_steps(steps));
        assert!(multi.flagged, "{multi:?}");
        assert!(multi.disabled, "{multi:?}");
        assert_eq!(multi, run(classic));
    }
}
