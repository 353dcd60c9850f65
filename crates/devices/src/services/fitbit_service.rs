//! The Fitbit partner service — Table 3's #2 IoT trigger service (0.2M
//! adds), with the two top triggers the paper lists: "Daily activity
//! summary" and "New sleep logged".
//!
//! The wearable cloud is its own backend: activity accumulates during the
//! day (steps reported by the band), the daily summary fires on a schedule
//! (23:55), and sleep sessions arrive as events.

use crate::service_core::ServiceCore;
use crate::services::{Partner, PartnerService};
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{TriggerSlug, UserId};

const DAILY_SUMMARY: &str = "daily_activity_summary";
const SLEEP_LOGGED: &str = "new_sleep_logged";

const TIMER_TICK: TimerKey = 1;
/// Seconds in a virtual day.
const DAY_SECS: u64 = 86_400;
/// Minute-of-day at which the daily summary fires (23:55).
const SUMMARY_MINUTE: u64 = 23 * 60 + 55;

/// What the Fitbit cloud adds to the shell: the day's activity.
#[derive(Debug, Default)]
pub struct Fitbit {
    /// Steps accumulated today, per user.
    steps_today: HashMap<UserId, u64>,
    /// Sleep sessions logged (for tests).
    pub sleep_sessions: u64,
}

/// The Fitbit cloud service node.
pub type FitbitService = PartnerService<Fitbit>;

impl Fitbit {
    /// The band reports steps (harness-driven).
    pub fn add_steps(&mut self, user: UserId, steps: u64) {
        *self.steps_today.entry(user).or_default() += steps;
    }

    /// A sleep session sync arrives from the band.
    pub fn log_sleep(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        user: &UserId,
        hours: f64,
    ) {
        self.sleep_sessions += 1;
        let id = core.next_event_id();
        let event = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64)
            .with_ingredient("hours", format!("{hours:.1}"));
        core.record_event(ctx, &TriggerSlug::new(SLEEP_LOGGED), user, event, |_| true);
    }

    fn fire_daily_summaries(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>) {
        let now = ctx.now().as_secs_f64() as u64;
        for user in core.subscribed_users() {
            let steps = self.steps_today.get(&user).copied().unwrap_or(0);
            let id = format!(
                "{}_summary_{user}_d{}",
                core.endpoint.slug(),
                now / DAY_SECS
            );
            let event = TriggerEvent::new(id, now).with_ingredient("steps", steps.to_string());
            core.record_event(ctx, &TriggerSlug::new(DAILY_SUMMARY), &user, event, |_| {
                true
            });
        }
        self.steps_today.clear();
    }
}

impl Partner for Fitbit {
    fn slug(&self) -> &str {
        "fitbit"
    }

    fn triggers(&self) -> Vec<&str> {
        vec![DAILY_SUMMARY, SLEEP_LOGGED]
    }

    fn start(&mut self, _core: &mut ServiceCore, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(60), TIMER_TICK);
    }

    fn timer(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, key: TimerKey) {
        if key != TIMER_TICK {
            return;
        }
        let minute_of_day = (ctx.now().as_secs_f64() as u64 % DAY_SECS) / 60;
        if minute_of_day == SUMMARY_MINUTE {
            self.fire_daily_summaries(core, ctx);
        }
        ctx.set_timer(SimDuration::from_secs(60), TIMER_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::FieldMap;

    fn world() -> (
        Sim,
        NodeId,
        tap_protocol::TriggerIdentity,
        tap_protocol::TriggerIdentity,
    ) {
        let mut sim = Sim::new(1);
        let svc = sim.add_node(
            "fitbit",
            FitbitService::new(ServiceKey("sk_f".into()), Fitbit::default()),
        );
        let (summary, sleep) = sim.with_node::<FitbitService, _>(svc, |s, _| {
            (
                s.core.subscribe(
                    UserId::new("u"),
                    TriggerSlug::new("daily_activity_summary"),
                    FieldMap::new(),
                ),
                s.core.subscribe(
                    UserId::new("u"),
                    TriggerSlug::new("new_sleep_logged"),
                    FieldMap::new(),
                ),
            )
        });
        (sim, svc, summary, sleep)
    }

    #[test]
    fn daily_summary_fires_at_2355_with_the_days_steps() {
        let (mut sim, svc, summary, _) = world();
        sim.node_mut::<FitbitService>(svc)
            .vendor
            .add_steps(UserId::new("u"), 8_000);
        sim.node_mut::<FitbitService>(svc)
            .vendor
            .add_steps(UserId::new("u"), 2_345);
        sim.run_until(SimTime::from_secs(23 * 3600 + 50 * 60));
        assert!(sim
            .node_ref::<FitbitService>(svc)
            .core
            .buffer
            .is_empty(&summary));
        sim.run_until(SimTime::from_secs(23 * 3600 + 57 * 60));
        let s = sim.node_ref::<FitbitService>(svc);
        let events = s.core.buffer.latest(&summary, 10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ingredients["steps"], "10345");
    }

    #[test]
    fn steps_reset_between_days() {
        let (mut sim, svc, summary, _) = world();
        sim.node_mut::<FitbitService>(svc)
            .vendor
            .add_steps(UserId::new("u"), 5_000);
        // Two full days: two summaries; the second has zero steps.
        sim.run_until(SimTime::from_secs(2 * DAY_SECS));
        let s = sim.node_ref::<FitbitService>(svc);
        let events = s.core.buffer.latest(&summary, 10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ingredients["steps"], "0"); // newest first
        assert_eq!(events[1].ingredients["steps"], "5000");
    }

    #[test]
    fn sleep_sessions_feed_the_sleep_trigger() {
        let (mut sim, svc, _, sleep) = world();
        sim.with_node::<FitbitService, _>(svc, |s, ctx| {
            s.vendor.log_sleep(&mut s.core, ctx, &UserId::new("u"), 7.5);
        });
        let s = sim.node_ref::<FitbitService>(svc);
        let events = s.core.buffer.latest(&sleep, 10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ingredients["hours"], "7.5");
        assert_eq!(s.vendor.sleep_sessions, 1);
    }
}
