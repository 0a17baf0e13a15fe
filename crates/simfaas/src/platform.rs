//! The platform facade: functions + hosts + reclamation + billing behind
//! the small API the InfiniCache event loop drives.
//!
//! The platform is deliberately unaware of the cache protocol. It routes
//! invocations (cold/warm/concurrent), meters billed durations, enforces
//! the idle timeout, and executes the configured reclamation policy; the
//! event loop learns about state loss through [`PlatformNotice::Reclaimed`]
//! and drops the affected runtime state.

use ic_common::pricing::Pricing;
use ic_common::units::MIB;
use ic_common::{InstanceId, LambdaId, SimTime};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::billing::{BillingMeter, CostCategory};
use crate::function::{Fleet, FunctionConfig, Instance, RoutedInvocation};
use crate::hosts::{HostConfig, HostPool};
use crate::network::{LinkId, Network};
use crate::reclaim::ReclaimPolicy;

/// Platform-wide configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlatformConfig {
    /// Per-function parameters (memory, overheads, idle timeout).
    pub function: FunctionConfig,
    /// VM-host parameters (memory, shared uplink).
    pub host: HostConfig,
    /// Billing prices.
    pub pricing: Pricing,
    /// Logical cache nodes deployed.
    pub n_lambdas: u32,
}

impl PlatformConfig {
    /// AWS-like platform for `n_lambdas` functions of `memory_mb` MB.
    pub fn aws_like(n_lambdas: u32, memory_mb: u32) -> Self {
        PlatformConfig {
            function: FunctionConfig::aws_like(memory_mb),
            host: HostConfig::aws_like(),
            pricing: Pricing::AWS_LAMBDA,
            n_lambdas,
        }
    }
}

/// The result of an invocation, enriched with the instance's uplink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Invocation {
    /// Routed instance.
    pub instance: InstanceId,
    /// Cold start?
    pub cold: bool,
    /// Auto-scaled peer replica of a running function?
    pub concurrent: bool,
    /// When function code begins executing.
    pub ready_at: SimTime,
    /// The host uplink the instance's flows traverse.
    pub uplink: LinkId,
}

/// Timer events the platform asks the event loop to deliver back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformEvent {
    /// Once-a-minute reclamation-policy tick.
    MinuteTick {
        /// Minute index since experiment start.
        minute: u64,
    },
    /// A specific instance's idle timeout.
    IdleTimeout {
        /// Candidate instance.
        instance: InstanceId,
        /// Idle epoch the timer was armed against (stale if it moved on).
        epoch: u64,
    },
}

/// What the event loop must do after a platform step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformNotice {
    /// An instance (and all state cached in it) is gone.
    Reclaimed {
        /// Logical node the instance belonged to.
        lambda: LambdaId,
        /// The reclaimed instance.
        instance: InstanceId,
    },
    /// Deliver `event` back to the platform at `at`.
    Schedule {
        /// Delivery time.
        at: SimTime,
        /// The event payload.
        event: PlatformEvent,
    },
}

/// The simulated FaaS platform.
#[derive(Clone)]
pub struct Platform {
    cfg: PlatformConfig,
    /// VM hosts (public for placement-sensitive experiments like Fig 4).
    pub hosts: HostPool,
    /// The instance fleet.
    pub fleet: Fleet,
    /// The billing meter.
    pub billing: BillingMeter,
    policy: Box<dyn ReclaimPolicy>,
    rng: SmallRng,
    reclaim_log: Vec<(SimTime, LambdaId, InstanceId)>,
}

impl Platform {
    /// Builds a platform with a reclamation policy and a seed for victim
    /// selection.
    pub fn new(cfg: PlatformConfig, policy: Box<dyn ReclaimPolicy>, seed: u64) -> Self {
        Platform {
            hosts: HostPool::new(cfg.host),
            fleet: Fleet::new(cfg.function, cfg.n_lambdas),
            billing: BillingMeter::new(cfg.pricing, cfg.function.memory_mb as u64 * MIB),
            policy,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_faa5),
            reclaim_log: Vec::new(),
            cfg,
        }
    }

    /// Platform configuration.
    pub fn config(&self) -> PlatformConfig {
        self.cfg
    }

    /// Peak per-instance streaming bandwidth (bytes/sec).
    pub fn instance_bandwidth(&self) -> f64 {
        self.cfg.function.bandwidth_bytes_per_sec()
    }

    /// First events to schedule when the simulation starts.
    pub fn bootstrap(&self) -> Vec<PlatformNotice> {
        vec![PlatformNotice::Schedule {
            at: SimTime::from_secs(60),
            event: PlatformEvent::MinuteTick { minute: 1 },
        }]
    }

    /// Invokes logical node `lambda`; the instance starts (or keeps)
    /// running until [`Platform::end_execution`].
    pub fn invoke<T>(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        net: &mut Network<T>,
    ) -> Invocation {
        let RoutedInvocation {
            instance,
            cold,
            concurrent,
            ready_at,
        } = self.fleet.invoke(now, lambda, &mut self.hosts, net);
        let uplink = self
            .fleet
            .instance_uplink(instance, &self.hosts)
            .expect("freshly routed instance has a host");
        Invocation {
            instance,
            cold,
            concurrent,
            ready_at,
            uplink,
        }
    }

    /// Ends an instance's execution, bills it under `category`, and returns
    /// the idle-timeout timer to schedule.
    pub fn end_execution(
        &mut self,
        now: SimTime,
        instance: InstanceId,
        category: CostCategory,
    ) -> PlatformNotice {
        let duration = self.fleet.end_execution(now, instance);
        self.billing.record(now, category, duration);
        let inst = self
            .fleet
            .instance(instance)
            .expect("instance survives end_execution");
        PlatformNotice::Schedule {
            at: now + self.cfg.function.idle_timeout,
            event: PlatformEvent::IdleTimeout {
                instance,
                epoch: inst.idle_epoch,
            },
        }
    }

    /// Handles a platform timer event.
    pub fn handle(&mut self, now: SimTime, event: PlatformEvent) -> Vec<PlatformNotice> {
        match event {
            PlatformEvent::MinuteTick { minute } => {
                let mut notices = Vec::new();
                let n = self.policy.reclaims_for_minute(minute, &mut self.rng);
                if n > 0 {
                    let idle = self.fleet.idle_instances();
                    let victims: Vec<InstanceId> =
                        idle.choose_multiple(&mut self.rng, n).copied().collect();
                    for v in victims {
                        if let Some(gone) = self.reclaim_instance(now, v) {
                            notices.push(PlatformNotice::Reclaimed {
                                lambda: gone.lambda,
                                instance: gone.id,
                            });
                        }
                    }
                }
                notices.push(PlatformNotice::Schedule {
                    at: SimTime::from_secs((minute + 1) * 60),
                    event: PlatformEvent::MinuteTick { minute: minute + 1 },
                });
                notices
            }
            PlatformEvent::IdleTimeout { instance, epoch } => {
                let Some(inst) = self.fleet.instance(instance) else {
                    return Vec::new();
                };
                if inst.idle_epoch != epoch || inst.state != crate::function::ExecState::Idle {
                    return Vec::new(); // instance was used since; timer stale
                }
                let lambda = inst.lambda;
                self.reclaim_instance(now, instance);
                vec![PlatformNotice::Reclaimed { lambda, instance }]
            }
        }
    }

    /// Fault-injection hook: reclaim up to `n` idle instances immediately,
    /// using the same victim selection (and seeded RNG) as the per-minute
    /// policy tick. Returns the `Reclaimed` notices for the event loop.
    pub fn force_reclaims(&mut self, now: SimTime, n: usize) -> Vec<PlatformNotice> {
        let idle = self.fleet.idle_instances();
        let victims: Vec<InstanceId> = idle.choose_multiple(&mut self.rng, n).copied().collect();
        victims
            .into_iter()
            .filter_map(|v| {
                self.reclaim_instance(now, v)
                    .map(|gone| PlatformNotice::Reclaimed {
                        lambda: gone.lambda,
                        instance: gone.id,
                    })
            })
            .collect()
    }

    /// Fault-injection hook with a *chosen* victim: reclaim exactly
    /// `instance` (if it is currently idle), bypassing the seeded victim
    /// selection of [`Platform::force_reclaims`]. The model checker uses
    /// this to make each reclaim an explicit scheduling choice rather
    /// than an RNG draw, so a counterexample trace pins down which
    /// instance died.
    pub fn force_reclaim(&mut self, now: SimTime, instance: InstanceId) -> Option<PlatformNotice> {
        if !self.fleet.idle_instances().contains(&instance) {
            return None;
        }
        self.reclaim_instance(now, instance)
            .map(|gone| PlatformNotice::Reclaimed {
                lambda: gone.lambda,
                instance: gone.id,
            })
    }

    /// Instances currently reclaimable (idle, i.e. not mid-execution) —
    /// the candidate set for [`Platform::force_reclaim`] choices.
    pub fn reclaimable_instances(&self) -> Vec<InstanceId> {
        let mut idle = self.fleet.idle_instances();
        idle.sort();
        idle
    }

    fn reclaim_instance(&mut self, now: SimTime, instance: InstanceId) -> Option<Instance> {
        let gone = self.fleet.reclaim(instance, &mut self.hosts)?;
        self.reclaim_log.push((now, gone.lambda, gone.id));
        Some(gone)
    }

    /// Every reclamation that has happened, in order (Fig 8/14 timelines).
    pub fn reclaim_log(&self) -> &[(SimTime, LambdaId, InstanceId)] {
        &self.reclaim_log
    }

    /// Ends all running executions at simulation teardown (bills them under
    /// `category`).
    pub fn finalize(&mut self, now: SimTime, category: CostCategory) {
        for (_, duration) in self.fleet.finalize(now) {
            self.billing.record(now, category, duration);
        }
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("n_lambdas", &self.cfg.n_lambdas)
            .field("policy", &self.policy.name())
            .field("reclaims", &self.reclaim_log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaim::{HourlyPoisson, NoReclaim};
    use ic_common::SimDuration;

    fn platform(policy: Box<dyn ReclaimPolicy>) -> (Platform, Network<()>) {
        (
            Platform::new(PlatformConfig::aws_like(10, 1536), policy, 7),
            Network::new(),
        )
    }

    #[test]
    fn invoke_end_bills_one_invocation() {
        let (mut p, mut net) = platform(Box::new(NoReclaim));
        let inv = p.invoke(SimTime::ZERO, LambdaId(0), &mut net);
        assert!(inv.cold);
        let notice = p.end_execution(
            inv.ready_at + SimDuration::from_millis(95),
            inv.instance,
            CostCategory::Serving,
        );
        assert!(matches!(
            notice,
            PlatformNotice::Schedule {
                event: PlatformEvent::IdleTimeout { .. },
                ..
            }
        ));
        let t = p.billing.category(CostCategory::Serving);
        assert_eq!(t.invocations, 1);
        assert!((t.gb_seconds - 0.1 * 1.610612736).abs() < 1e-9); // 1536 MiB in GB
    }

    #[test]
    fn idle_timeout_reclaims_stale_instance() {
        let (mut p, mut net) = platform(Box::new(NoReclaim));
        let inv = p.invoke(SimTime::ZERO, LambdaId(3), &mut net);
        let notice = p.end_execution(SimTime::from_secs(1), inv.instance, CostCategory::Warmup);
        let PlatformNotice::Schedule { at, event } = notice else {
            panic!("expected timer")
        };
        assert_eq!(at, SimTime::from_secs(1) + SimDuration::from_mins(27));
        let out = p.handle(at, event);
        assert_eq!(
            out,
            vec![PlatformNotice::Reclaimed {
                lambda: LambdaId(3),
                instance: inv.instance
            }]
        );
        assert_eq!(p.reclaim_log().len(), 1);
    }

    #[test]
    fn idle_timeout_is_stale_after_reuse() {
        let (mut p, mut net) = platform(Box::new(NoReclaim));
        let inv = p.invoke(SimTime::ZERO, LambdaId(0), &mut net);
        let notice = p.end_execution(SimTime::from_secs(1), inv.instance, CostCategory::Warmup);
        // Re-invoke (warm) before the timeout fires.
        let inv2 = p.invoke(SimTime::from_secs(2), LambdaId(0), &mut net);
        assert_eq!(inv2.instance, inv.instance);
        p.end_execution(SimTime::from_secs(3), inv2.instance, CostCategory::Warmup);
        let PlatformNotice::Schedule { at, event } = notice else {
            panic!("timer")
        };
        assert!(
            p.handle(at, event).is_empty(),
            "stale timer must be ignored"
        );
        assert!(p.fleet.instance(inv.instance).is_some());
    }

    #[test]
    fn minute_tick_reclaims_and_reschedules() {
        let (mut p, mut net) = platform(Box::new(HourlyPoisson::new(6000.0, "hot")));
        // Warm up 10 idle instances.
        for i in 0..10u32 {
            let inv = p.invoke(SimTime::ZERO, LambdaId(i), &mut net);
            p.end_execution(
                SimTime::from_millis(100),
                inv.instance,
                CostCategory::Warmup,
            );
        }
        let out = p.handle(
            SimTime::from_secs(60),
            PlatformEvent::MinuteTick { minute: 1 },
        );
        let reclaimed = out
            .iter()
            .filter(|n| matches!(n, PlatformNotice::Reclaimed { .. }))
            .count();
        assert!(reclaimed > 0, "λ=100/min policy must reclaim something");
        assert!(out.iter().any(|n| matches!(
            n,
            PlatformNotice::Schedule {
                event: PlatformEvent::MinuteTick { minute: 2 },
                ..
            }
        )));
    }

    #[test]
    fn running_instances_are_not_policy_victims() {
        let (mut p, mut net) = platform(Box::new(HourlyPoisson::new(60_000.0, "brutal")));
        // One running, one idle.
        let _running = p.invoke(SimTime::ZERO, LambdaId(0), &mut net);
        let idle = p.invoke(SimTime::ZERO, LambdaId(1), &mut net);
        p.end_execution(
            SimTime::from_millis(100),
            idle.instance,
            CostCategory::Warmup,
        );
        let out = p.handle(
            SimTime::from_secs(60),
            PlatformEvent::MinuteTick { minute: 1 },
        );
        for n in out {
            if let PlatformNotice::Reclaimed { lambda, .. } = n {
                assert_eq!(lambda, LambdaId(1), "only the idle instance may die");
            }
        }
    }

    #[test]
    fn bootstrap_schedules_first_minute() {
        let (p, _) = platform(Box::new(NoReclaim));
        let boot = p.bootstrap();
        assert_eq!(boot.len(), 1);
        assert!(matches!(
            boot[0],
            PlatformNotice::Schedule {
                event: PlatformEvent::MinuteTick { minute: 1 },
                ..
            }
        ));
    }
}
