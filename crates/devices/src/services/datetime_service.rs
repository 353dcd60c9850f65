//! The Date & Time partner service — category 12, the single largest
//! non-IoT trigger source in Table 1 (14.1% of all trigger add count) and
//! the trigger half of the "every sunset → turn on the Hue lights" anchor
//! applet.
//!
//! Unlike every other service, its triggers need no backend at all: the
//! service *is* a clock. It ticks once per virtual minute and fires the
//! subscriptions whose schedule matches:
//!
//! * `every_day_at` — field `time` = `"HH:MM"`;
//! * `sunrise` / `sunset` — fixed at 06:30 and 18:30 virtual time.

use crate::service_core::ServiceCore;
use crate::services::{Partner, PartnerService};
use simnet::prelude::*;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{FieldMap, TriggerSlug};

/// Seconds in a virtual day.
pub const DAY_SECS: u64 = 86_400;
/// Sunrise, as seconds of day (06:30).
pub const SUNRISE: u64 = 6 * 3600 + 30 * 60;
/// Sunset, as seconds of day (18:30).
pub const SUNSET: u64 = 18 * 3600 + 30 * 60;

const TIMER_TICK: TimerKey = 1;

/// Parse `"HH:MM"` into seconds of day.
pub fn parse_hhmm(s: &str) -> Option<u64> {
    let (h, m) = s.split_once(':')?;
    let h: u64 = h.parse().ok()?;
    let m: u64 = m.parse().ok()?;
    if h >= 24 || m >= 60 {
        return None;
    }
    Some(h * 3600 + m * 60)
}

/// Whether a subscription with these fields fires in this minute of the day.
type Fires = fn(&FieldMap, u64) -> bool;

/// Each trigger and its firing rule.
const SCHEDULES: &[(&str, Fires)] = &[
    ("every_day_at", |fields, minute| {
        fields
            .get("time")
            .and_then(|t| parse_hhmm(t))
            .is_some_and(|sod| sod / 60 == minute)
    }),
    ("sunrise", |_, minute| minute == SUNRISE / 60),
    ("sunset", |_, minute| minute == SUNSET / 60),
];

/// What the clock adds to the shell.
#[derive(Debug, Default)]
pub struct DateTime {
    /// Minutes ticked (for tests).
    pub ticks: u64,
}

/// The clock service node.
pub type DateTimeService = PartnerService<DateTime>;

impl Partner for DateTime {
    fn slug(&self) -> &str {
        "date_time"
    }

    fn triggers(&self) -> Vec<&str> {
        SCHEDULES.iter().map(|(trigger, _)| *trigger).collect()
    }

    fn start(&mut self, _core: &mut ServiceCore, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(60), TIMER_TICK);
    }

    /// Fire the subscriptions whose schedule lands in this minute. Time
    /// triggers are per-user but user-independent in content, so each
    /// fires once for every distinct subscribed user.
    fn timer(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, key: TimerKey) {
        if key != TIMER_TICK {
            return;
        }
        self.ticks += 1;
        let now = ctx.now().as_secs_f64() as u64;
        let (day, minute) = (now / DAY_SECS, (now % DAY_SECS) / 60);
        for user in core.subscribed_users() {
            for (trigger, fires) in SCHEDULES {
                let id = format!("{}_{trigger}_{user}_d{day}", core.endpoint.slug());
                let event =
                    TriggerEvent::new(id, now).with_ingredient("minute_of_day", minute.to_string());
                core.record_event(ctx, &TriggerSlug::new(*trigger), &user, event, |fields| {
                    fires(fields, minute)
                });
            }
        }
        ctx.set_timer(SimDuration::from_secs(60), TIMER_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::UserId;

    #[test]
    fn parse_hhmm_accepts_valid_rejects_invalid() {
        assert_eq!(parse_hhmm("06:30"), Some(SUNRISE));
        assert_eq!(parse_hhmm("18:30"), Some(SUNSET));
        assert_eq!(parse_hhmm("00:00"), Some(0));
        assert_eq!(parse_hhmm("23:59"), Some(23 * 3600 + 59 * 60));
        assert_eq!(parse_hhmm("24:00"), None);
        assert_eq!(parse_hhmm("12:60"), None);
        assert_eq!(parse_hhmm("noon"), None);
    }

    #[test]
    fn every_day_at_fires_at_the_configured_minute_once_per_day() {
        let mut sim = Sim::new(1);
        let svc = sim.add_node(
            "clock",
            DateTimeService::new(ServiceKey("sk_t".into()), DateTime::default()),
        );
        let ti = sim.with_node::<DateTimeService, _>(svc, |s, _| {
            let mut fields = FieldMap::new();
            fields.insert("time".into(), "01:00".into());
            s.core
                .subscribe(UserId::new("u"), TriggerSlug::new("every_day_at"), fields)
        });
        // Run 90 minutes: exactly one firing (at 01:00).
        sim.run_until(SimTime::from_secs(90 * 60));
        assert_eq!(sim.node_ref::<DateTimeService>(svc).core.buffer.len(&ti), 1);
        // Run into day 2: a second firing.
        sim.run_until(SimTime::from_secs(DAY_SECS + 90 * 60));
        assert_eq!(sim.node_ref::<DateTimeService>(svc).core.buffer.len(&ti), 2);
    }

    #[test]
    fn sunset_fires_for_every_subscribed_user() {
        let mut sim = Sim::new(2);
        let svc = sim.add_node(
            "clock",
            DateTimeService::new(ServiceKey("sk_t".into()), DateTime::default()),
        );
        let (ta, tb) = sim.with_node::<DateTimeService, _>(svc, |s, _| {
            (
                s.core.subscribe(
                    UserId::new("a"),
                    TriggerSlug::new("sunset"),
                    FieldMap::new(),
                ),
                s.core.subscribe(
                    UserId::new("b"),
                    TriggerSlug::new("sunset"),
                    FieldMap::new(),
                ),
            )
        });
        sim.run_until(SimTime::from_secs(SUNSET + 120));
        let s = sim.node_ref::<DateTimeService>(svc);
        assert_eq!(s.core.buffer.len(&ta), 1);
        assert_eq!(s.core.buffer.len(&tb), 1);
    }

    #[test]
    fn unmatched_time_never_fires() {
        let mut sim = Sim::new(3);
        let svc = sim.add_node(
            "clock",
            DateTimeService::new(ServiceKey("sk_t".into()), DateTime::default()),
        );
        let ti = sim.with_node::<DateTimeService, _>(svc, |s, _| {
            let mut fields = FieldMap::new();
            fields.insert("time".into(), "23:00".into());
            s.core
                .subscribe(UserId::new("u"), TriggerSlug::new("every_day_at"), fields)
        });
        sim.run_until(SimTime::from_secs(4 * 3600));
        assert!(sim
            .node_ref::<DateTimeService>(svc)
            .core
            .buffer
            .is_empty(&ti));
    }
}
