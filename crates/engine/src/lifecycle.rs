//! The applet/service lifecycle surface: install, uninstall, onboard,
//! retire — one entry point, [`TapEngine::apply_lifecycle`], and the
//! per-applet unwind behind it.

use crate::applet::{Applet, AppletId};
use crate::engine::{PollTask, Slot, TapEngine};
use crate::exec::Plan;
use mem::FxHashSet;
use simnet::prelude::*;
use tap_protocol::auth::ServiceKey;
use tap_protocol::endpoints::trigger_path;
use tap_protocol::wire::{self, PollRequestBody, DEFAULT_POLL_LIMIT};
use tap_protocol::{ServiceSlug, TriggerIdentity};

/// Why an applet install was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum InstallError {
    UnknownService(ServiceSlug),
    /// The user has not connected (OAuth-authorized) this service.
    NotConnected(ServiceSlug),
    /// Static loop check rejected the applet.
    LoopDetected(Vec<AppletId>),
    /// The applet does not compile to a plan: its `steps` fail
    /// validation, it carries `steps` *and* a classic condition or
    /// queries, or it has more queries than a plan can hold.
    InvalidSteps(String),
}

/// One applet- or service-lifecycle transition, applied through the
/// single [`TapEngine::apply_lifecycle`] entry point. This is the churn
/// op the fleet's live-world driver speaks: every install and every
/// teardown routes through here.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // transient op value, consumed immediately
pub enum LifecycleEvent {
    /// Install and enable an applet: compile it to its plan and schedule
    /// its first trigger poll.
    InstallApplet(Applet),
    /// Remove an applet permanently: cancel its pending poll timer, shrink
    /// its coalescing group (evicting the cached batch body and reverting
    /// the survivor's `grouped` hint when membership drops to 1), clear
    /// realtime state, prune identity routing, and dead-letter its
    /// in-flight runs. The slot is tombstoned, never
    /// compacted, so in-flight tokens and timers miss instead of aliasing.
    UninstallApplet(AppletId),
    /// Register a partner service mid-run (what service publication does),
    /// optionally adding it to the realtime allowlist.
    OnboardService {
        /// Service slug new installs will reference.
        slug: ServiceSlug,
        /// Simulation node serving the partner API.
        node: NodeId,
        /// Service key presented on every request.
        key: ServiceKey,
        /// Honor this service's realtime hints (§4's Alexa treatment).
        realtime: bool,
    },
    /// A service dies permanently — a terminal outage, distinct from a
    /// chaos blip: every applet touching it (as trigger or action) is
    /// uninstalled with full unwind, its tokens and breaker state are
    /// dropped, and its realtime allowlist entry is revoked.
    RetireService(ServiceSlug),
}

/// Successful outcome of one [`TapEngine::apply_lifecycle`] application.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleAck {
    Installed(AppletId),
    Uninstalled(AppletId),
    Onboarded(ServiceSlug),
    Retired {
        service: ServiceSlug,
        /// Live applets uninstalled by the retirement cascade.
        applets_removed: u32,
    },
}

/// Why a lifecycle event was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// An install was rejected (see [`InstallError`]).
    Install(InstallError),
    /// Uninstall of an applet id that is not installed (or already gone).
    UnknownApplet(AppletId),
    /// Retirement of a service that was never registered (or already
    /// retired).
    UnknownService(ServiceSlug),
}

impl TapEngine {
    /// Apply one lifecycle transition — the single entry point for every
    /// install, uninstall, onboarding, and retirement the engine supports.
    ///
    /// Determinism contract: an event sequence that is never applied
    /// consumes no randomness and perturbs no state, and applying events
    /// draws RNG in one place only (the initial-poll delay of an
    /// install).
    pub fn apply_lifecycle(
        &mut self,
        ctx: &mut Context<'_>,
        ev: LifecycleEvent,
    ) -> Result<LifecycleAck, LifecycleError> {
        match ev {
            LifecycleEvent::InstallApplet(applet) => self
                .install_applet(ctx, applet)
                .map(LifecycleAck::Installed)
                .map_err(LifecycleError::Install),
            LifecycleEvent::UninstallApplet(id) => self.do_uninstall(ctx, id),
            LifecycleEvent::OnboardService {
                slug,
                node,
                key,
                realtime,
            } => {
                if realtime {
                    self.config.realtime_allowlist.insert(slug.clone());
                }
                self.register_service(slug.clone(), node, key);
                ctx.trace("engine.service_onboarded", format_args!("{}", slug.0));
                Ok(LifecycleAck::Onboarded(slug))
            }
            LifecycleEvent::RetireService(slug) => self.do_retire(ctx, slug),
        }
    }

    /// Install and enable an applet: compile it to its plan and schedule
    /// its first trigger poll. What [`LifecycleEvent::InstallApplet`] does.
    pub fn install_applet(
        &mut self,
        ctx: &mut Context<'_>,
        applet: Applet,
    ) -> Result<AppletId, InstallError> {
        // Compile first: a malformed applet is rejected before it leaves
        // any trace in the routing structures.
        let action_service = self.syms.intern(applet.action.service.as_str());
        let plan = Plan::compile(&applet, action_service, &mut self.syms)?;
        for service in [&applet.trigger.service, &applet.action.service] {
            if !self
                .service_sym(service)
                .is_some_and(|s| self.services.contains_key(&s))
            {
                return Err(InstallError::UnknownService(service.clone()));
            }
            if !self.is_connected(&applet.owner, service) {
                return Err(InstallError::NotConnected(service.clone()));
            }
        }
        if self.config.static_loop_check {
            // Live slots only: an uninstalled applet's tombstone stays in
            // `tasks` but can no longer close a loop.
            let live = self.tasks.iter().filter(|task| !task.uninstalled);
            let all: Vec<&Applet> = live.map(|task| &task.applet).chain([&applet]).collect();
            let cycles = self.static_detector.find_cycles(&all);
            let involved: Vec<AppletId> = cycles.into_iter().flatten().collect();
            if involved.contains(&applet.id) {
                return Err(InstallError::LoopDetected(involved));
            }
        }
        let identity = TriggerIdentity::derive(
            &applet.owner,
            &applet.trigger.service,
            &applet.trigger.trigger,
            &applet.trigger.fields,
        );
        let id = applet.id;
        let slot: Slot = self.tasks.len() as Slot;
        let identity_sym = self.syms.intern(identity.as_str());
        self.by_identity.entry(identity_sym).or_default().push(slot);
        let poll_body = wire::to_bytes(&PollRequestBody {
            trigger_identity: identity,
            trigger_fields: applet.trigger.fields.clone(),
            user: applet.owner.clone(),
            limit: DEFAULT_POLL_LIMIT,
        });
        let owner_sym = self.syms.intern(applet.owner.as_str());
        let trigger_service_sym = self.syms.intern(applet.trigger.service.as_str());
        let group = (
            owner_sym,
            trigger_service_sym,
            self.config.polling.cadence_class(&applet),
        );
        let siblings = &mut self.groups.entry(group).or_default().members;
        siblings.push(slot);
        let grouped = siblings.len() >= 2;
        if siblings.len() == 2 {
            // The group just gained its first sibling: the existing member
            // was installed solo and must start taking the batch path too.
            let first = siblings[0];
            self.tasks[first as usize].grouped = true;
        }
        self.tasks.push(PollTask {
            owner: owner_sym,
            trigger_service: trigger_service_sym,
            action_service,
            poll_path: trigger_path(&applet.trigger.trigger),
            poll_body,
            plan,
            seen: FxHashSet::default(),
            last_reply: None,
            enabled: true,
            next_poll: None,
            next_poll_at: SimTime::ZERO,
            group,
            grouped,
            identity: identity_sym,
            retries: 0,
            poll_sent_at: SimTime::ZERO,
            rt_pending: false,
            rt_resume_at: None,
            rt_debounce_until: SimTime::ZERO,
            uninstalled: false,
            applet,
        });
        self.slot_of.insert(id.0, slot);
        let delay = SimDuration::from_secs_f64(self.config.initial_poll_delay.sample(ctx.rng()));
        self.schedule_poll(ctx, slot, delay);
        ctx.trace("engine.applet_installed", format_args!("{id:?}"));
        Ok(id)
    }

    fn do_uninstall(
        &mut self,
        ctx: &mut Context<'_>,
        id: AppletId,
    ) -> Result<LifecycleAck, LifecycleError> {
        let Some(slot) = self.slot_of.remove(&id.0) else {
            return Err(LifecycleError::UnknownApplet(id));
        };
        self.retire_slot(ctx, slot);
        ctx.trace("engine.applet_uninstalled", format_args!("{id:?}"));
        Ok(LifecycleAck::Uninstalled(id))
    }

    /// Tear down one slot's runtime state: the shared unwind behind both
    /// uninstall and the per-applet half of service retirement. The caller
    /// has already removed the public `slot_of` mapping.
    fn retire_slot(&mut self, ctx: &mut Context<'_>, slot: Slot) {
        // Timing wheel: the pending cadence (or realtime-armed) poll dies
        // with the applet, and every realtime flag is cleared so the
        // tombstone can never absorb or arm anything again.
        let task = &mut self.tasks[slot as usize];
        task.uninstalled = true;
        task.enabled = false;
        task.rt_pending = false;
        task.rt_resume_at = None;
        task.rt_debounce_until = SimTime::ZERO;
        if let Some(timer) = task.next_poll.take() {
            ctx.cancel_timer(timer);
        }
        // The seen-set is the slot's only unbounded allocation; a
        // tombstone needs neither it nor the reply it vouched for.
        task.seen = FxHashSet::default();
        task.last_reply = None;
        let (group, identity) = (task.group, task.identity);
        // Coalescing group: shrink the membership and drop the memo (it
        // was serialized for, and vouches for, the old member list). A
        // lone survivor returns to the singleton fast path; a group with
        // nobody left is removed whole, degradation window included.
        if let Some(g) = self.groups.get_mut(&group) {
            g.members.retain(|&m| m != slot);
            g.memo = None;
            match g.members[..] {
                [] => drop(self.groups.remove(&group)),
                [survivor] => self.tasks[survivor as usize].grouped = false,
                _ => {}
            }
        }
        // Identity routing: realtime notifications resolve through this,
        // so pruning it is what makes later hints miss.
        if let Some(slots) = self.by_identity.get_mut(&identity) {
            slots.retain(|&m| m != slot);
            if slots.is_empty() {
                self.by_identity.remove(&identity);
            }
        }
        // In-flight work owned by the slot dead-letters now — the slab
        // handles are reclaimed and the conservation invariant
        // (`events_new == actions_ok + actions_filtered + dead_letters`)
        // holds through the teardown.
        self.dead_letter_in_flight(ctx, slot);
    }

    /// Dead-letter every in-flight run of `slot`, emitting the same
    /// terminal pair an exhausted retry budget would. Handles are drained
    /// in sorted order: arena iteration order is storage-dependent (slab
    /// vs reference map), the handle values are not.
    fn dead_letter_in_flight(&mut self, ctx: &mut Context<'_>, slot: Slot) {
        let mut doomed: Vec<u64> = self
            .runs
            .iter()
            .filter(|(_, run)| run.slot == slot)
            .map(|(h, _)| h)
            .collect();
        doomed.sort_unstable();
        for run_id in doomed {
            self.finish_run(ctx, run_id, true);
        }
    }

    fn do_retire(
        &mut self,
        ctx: &mut Context<'_>,
        slug: ServiceSlug,
    ) -> Result<LifecycleAck, LifecycleError> {
        let Some(sym) = self
            .service_sym(&slug)
            .filter(|s| self.services.contains_key(s))
        else {
            return Err(LifecycleError::UnknownService(slug));
        };
        // Every live applet touching the dying service — polling it or
        // dispatching to it — goes through the full uninstall unwind.
        let doomed: Vec<Slot> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !t.uninstalled && (t.trigger_service == sym || t.action_service == sym)
            })
            .map(|(i, _)| i as Slot)
            .collect();
        let applets_removed = doomed.len() as u32;
        for slot in doomed {
            let id = self.tasks[slot as usize].applet.id;
            self.slot_of.remove(&id.0);
            self.retire_slot(ctx, slot);
        }
        let reg = self.services.remove(&sym).expect("registration checked");
        if let Some(key_sym) = self.syms.get(&reg.key) {
            self.service_by_key.remove(&key_sym);
        }
        self.tokens.retain(|&(_, s), _| s != sym);
        self.config.realtime_allowlist.remove(&slug);
        self.breakers.remove(&sym);
        ctx.trace("engine.service_retired", format_args!("{}", slug.0));
        Ok(LifecycleAck::Retired {
            service: slug,
            applets_removed,
        })
    }
}
