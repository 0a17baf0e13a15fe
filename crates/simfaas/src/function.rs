//! Function instances and their lifecycle.
//!
//! A logical cache node ([`LambdaId`]) is backed by zero or more physical
//! *instances*. An invocation routes to a warm idle instance when one
//! exists (≈13 ms overhead, §5.1); if every instance is busy, the platform
//! auto-scales by cold-starting a *peer replica* — the behaviour the
//! delta-sync backup protocol leans on (§4.2 footnote 7). Reclaiming an
//! instance destroys the state cached inside it.

use std::collections::BTreeMap;

use ic_common::{InstanceId, LambdaId, SimDuration, SimTime};

use crate::hosts::{HostId, HostPool};
use crate::network::{LinkId, Network};

/// Per-function platform parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FunctionConfig {
    /// Memory per function instance, MB (128–3008 on AWS).
    pub memory_mb: u32,
    /// Warm invocation overhead (the paper measures ~13 ms via the Go SDK).
    pub warm_invoke: SimDuration,
    /// Cold-start penalty (runtime + sandbox provisioning).
    pub cold_start: SimDuration,
    /// Idle lifetime before the provider reclaims a cached instance
    /// (~27 min per Wang et al., the paper's reference 54, §4.1).
    pub idle_timeout: SimDuration,
    /// Hard execution cap (15 min on AWS).
    pub max_execution: SimDuration,
}

impl FunctionConfig {
    /// AWS-like defaults for a given memory size.
    pub fn aws_like(memory_mb: u32) -> Self {
        FunctionConfig {
            memory_mb,
            warm_invoke: SimDuration::from_millis(13),
            cold_start: SimDuration::from_millis(180),
            idle_timeout: SimDuration::from_mins(27),
            max_execution: SimDuration::from_secs(900),
        }
    }

    /// Peak streaming bandwidth of one instance, bytes/sec.
    ///
    /// Linear in memory between the paper's observed endpoints: 50 MB/s at
    /// 128 MB to 160 MB/s at 3008 MB (§5 setup).
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        let mem = self.memory_mb as f64;
        let frac = ((mem - 128.0) / (3008.0 - 128.0)).clamp(0.0, 1.0);
        (50.0 + 110.0 * frac) * 1e6
    }
}

/// Execution state of an instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecState {
    /// Warm and cached, not running (not billed).
    Idle,
    /// Actively executing (billed).
    Running,
}

/// One physical function instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Unique id (fresh per cold start).
    pub id: InstanceId,
    /// The logical node this instance serves.
    pub lambda: LambdaId,
    /// Host the instance was packed onto.
    pub host: HostId,
    /// Execution state.
    pub state: ExecState,
    /// When the current execution began (billing anchor).
    pub exec_started: Option<SimTime>,
    /// Last time the instance finished an execution.
    pub last_used: SimTime,
    /// Bumped on every state change; stale idle-timeout timers compare it.
    pub idle_epoch: u64,
}

/// Result of routing an invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedInvocation {
    /// The instance that will run.
    pub instance: InstanceId,
    /// Whether a cold start was required.
    pub cold: bool,
    /// Whether this invocation auto-scaled past a busy instance (created a
    /// peer replica of a running function).
    pub concurrent: bool,
    /// When the function code actually starts executing.
    pub ready_at: SimTime,
}

/// The instance fleet for a set of logical nodes.
#[derive(Clone, Debug)]
pub struct Fleet {
    cfg: FunctionConfig,
    slots: Vec<Vec<InstanceId>>, // live instances per LambdaId
    instances: BTreeMap<InstanceId, Instance>,
    next_instance: u64,
}

impl Fleet {
    /// Creates a fleet of `n_lambdas` logical nodes with no live instances.
    pub fn new(cfg: FunctionConfig, n_lambdas: u32) -> Self {
        Fleet {
            cfg,
            slots: vec![Vec::new(); n_lambdas as usize],
            instances: BTreeMap::new(),
            next_instance: 1, // 0 is InstanceId::NONE
        }
    }

    /// Function configuration.
    pub fn config(&self) -> FunctionConfig {
        self.cfg
    }

    /// Number of logical nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the fleet has no logical nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Routes an invocation of `lambda` at `now`.
    ///
    /// Preference order: the most recently used idle instance (that is the
    /// one AWS keeps hottest); otherwise a new cold instance — which is a
    /// *concurrent* peer replica if some instance is currently running.
    pub fn invoke<T>(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        hosts: &mut HostPool,
        net: &mut Network<T>,
    ) -> RoutedInvocation {
        let slot = &self.slots[lambda.index()];
        let idle_pick = slot
            .iter()
            .filter_map(|id| self.instances.get(id))
            .filter(|i| i.state == ExecState::Idle)
            .max_by_key(|i| (i.last_used, i.id))
            .map(|i| i.id);

        if let Some(id) = idle_pick {
            let inst = self.instances.get_mut(&id).expect("idle instance exists");
            let ready_at = now + self.cfg.warm_invoke;
            inst.state = ExecState::Running;
            inst.exec_started = Some(ready_at);
            inst.idle_epoch += 1;
            return RoutedInvocation {
                instance: id,
                cold: false,
                concurrent: false,
                ready_at,
            };
        }

        let concurrent = !slot.is_empty();
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let host = hosts.place(net, self.cfg.memory_mb);
        let ready_at = now + self.cfg.cold_start;
        self.instances.insert(
            id,
            Instance {
                id,
                lambda,
                host,
                state: ExecState::Running,
                exec_started: Some(ready_at),
                last_used: now,
                idle_epoch: 0,
            },
        );
        self.slots[lambda.index()].push(id);
        RoutedInvocation {
            instance: id,
            cold: true,
            concurrent,
            ready_at,
        }
    }

    /// Ends the current execution of `instance`, returning the billed-by-
    /// the-clock duration (before `ceil100` rounding).
    ///
    /// # Panics
    ///
    /// Panics if the instance is unknown or not running.
    pub fn end_execution(&mut self, now: SimTime, instance: InstanceId) -> SimDuration {
        let inst = self.instances.get_mut(&instance).expect("unknown instance");
        assert_eq!(
            inst.state,
            ExecState::Running,
            "end_execution on idle instance"
        );
        let started = inst
            .exec_started
            .take()
            .expect("running instance has a start");
        inst.state = ExecState::Idle;
        inst.last_used = now;
        inst.idle_epoch += 1;
        now.since(started.min(now))
    }

    /// Destroys an instance (provider reclaim), releasing its host memory.
    /// Returns the record, or `None` if it no longer exists.
    pub fn reclaim(&mut self, instance: InstanceId, hosts: &mut HostPool) -> Option<Instance> {
        let inst = self.instances.remove(&instance)?;
        self.slots[inst.lambda.index()].retain(|&i| i != instance);
        hosts.release(inst.host, self.cfg.memory_mb);
        Some(inst)
    }

    /// All currently idle instances, in deterministic id order.
    pub fn idle_instances(&self) -> Vec<InstanceId> {
        self.instances
            .values()
            .filter(|i| i.state == ExecState::Idle)
            .map(|i| i.id)
            .collect()
    }

    /// Looks up an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    /// Live instances (idle or running) of a logical node.
    pub fn instances_of(&self, lambda: LambdaId) -> &[InstanceId] {
        &self.slots[lambda.index()]
    }

    /// The uplink of the host an instance lives on.
    pub fn instance_uplink(&self, id: InstanceId, hosts: &HostPool) -> Option<LinkId> {
        self.instances.get(&id).map(|i| hosts.uplink(i.host))
    }

    /// Ends every running execution (simulation teardown); returns
    /// `(instance, billed duration)` pairs.
    pub fn finalize(&mut self, now: SimTime) -> Vec<(InstanceId, SimDuration)> {
        let running: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.state == ExecState::Running)
            .map(|i| i.id)
            .collect();
        running
            .into_iter()
            .map(|id| (id, self.end_execution(now, id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::HostConfig;

    fn fixture() -> (Fleet, HostPool, Network<()>) {
        (
            Fleet::new(FunctionConfig::aws_like(1536), 4),
            HostPool::new(HostConfig::aws_like()),
            Network::new(),
        )
    }

    #[test]
    fn first_invoke_is_cold_second_is_warm() {
        let (mut fleet, mut hosts, mut net) = fixture();
        let t0 = SimTime::ZERO;
        let r1 = fleet.invoke(t0, LambdaId(0), &mut hosts, &mut net);
        assert!(r1.cold && !r1.concurrent);
        assert_eq!(r1.ready_at, t0 + fleet.config().cold_start);

        let t1 = SimTime::from_secs(1);
        fleet.end_execution(t1, r1.instance);
        let r2 = fleet.invoke(SimTime::from_secs(2), LambdaId(0), &mut hosts, &mut net);
        assert!(!r2.cold);
        assert_eq!(r2.instance, r1.instance);
        assert_eq!(
            r2.ready_at,
            SimTime::from_secs(2) + fleet.config().warm_invoke
        );
    }

    #[test]
    fn concurrent_invoke_spawns_peer_replica() {
        let (mut fleet, mut hosts, mut net) = fixture();
        let r1 = fleet.invoke(SimTime::ZERO, LambdaId(1), &mut hosts, &mut net);
        // Still running; a second invoke must auto-scale.
        let r2 = fleet.invoke(SimTime::from_millis(50), LambdaId(1), &mut hosts, &mut net);
        assert!(r2.cold && r2.concurrent);
        assert_ne!(r1.instance, r2.instance);
        assert_eq!(fleet.instances_of(LambdaId(1)).len(), 2);
    }

    #[test]
    fn billed_duration_measured_from_ready() {
        let (mut fleet, mut hosts, mut net) = fixture();
        let r = fleet.invoke(SimTime::ZERO, LambdaId(0), &mut hosts, &mut net);
        let end = r.ready_at + SimDuration::from_millis(230);
        let billed = fleet.end_execution(end, r.instance);
        assert_eq!(billed, SimDuration::from_millis(230));
    }

    #[test]
    fn reclaim_removes_instance_and_frees_host() {
        let (mut fleet, mut hosts, mut net) = fixture();
        let r = fleet.invoke(SimTime::ZERO, LambdaId(2), &mut hosts, &mut net);
        fleet.end_execution(SimTime::from_secs(1), r.instance);
        assert_eq!(hosts.hosts_in_use(), 1);
        let gone = fleet
            .reclaim(r.instance, &mut hosts)
            .expect("instance existed");
        assert_eq!(gone.id, r.instance);
        assert_eq!(hosts.hosts_in_use(), 0);
        assert!(fleet.instance(r.instance).is_none());
        // Next invoke is cold with a new id.
        let r2 = fleet.invoke(SimTime::from_secs(2), LambdaId(2), &mut hosts, &mut net);
        assert!(r2.cold);
        assert_ne!(r2.instance, r.instance);
    }

    #[test]
    fn idle_instances_lists_only_idle() {
        let (mut fleet, mut hosts, mut net) = fixture();
        let a = fleet.invoke(SimTime::ZERO, LambdaId(0), &mut hosts, &mut net);
        let b = fleet.invoke(SimTime::ZERO, LambdaId(1), &mut hosts, &mut net);
        fleet.end_execution(SimTime::from_secs(1), a.instance);
        let idle = fleet.idle_instances();
        assert_eq!(idle, vec![a.instance]);
        fleet.end_execution(SimTime::from_secs(1), b.instance);
        assert_eq!(fleet.idle_instances().len(), 2);
    }

    #[test]
    fn warm_routing_prefers_most_recently_used() {
        let (mut fleet, mut hosts, mut net) = fixture();
        let a = fleet.invoke(SimTime::ZERO, LambdaId(0), &mut hosts, &mut net);
        let b = fleet.invoke(SimTime::from_millis(1), LambdaId(0), &mut hosts, &mut net);
        fleet.end_execution(SimTime::from_secs(1), a.instance);
        fleet.end_execution(SimTime::from_secs(2), b.instance); // b used later
        let r = fleet.invoke(SimTime::from_secs(3), LambdaId(0), &mut hosts, &mut net);
        assert_eq!(r.instance, b.instance);
    }

    #[test]
    fn finalize_ends_all_running() {
        let (mut fleet, mut hosts, mut net) = fixture();
        fleet.invoke(SimTime::ZERO, LambdaId(0), &mut hosts, &mut net);
        fleet.invoke(SimTime::ZERO, LambdaId(1), &mut hosts, &mut net);
        let ended = fleet.finalize(SimTime::from_secs(5));
        assert_eq!(ended.len(), 2);
        assert!(fleet.idle_instances().len() == 2);
    }

    #[test]
    fn bandwidth_scales_with_memory() {
        let small = FunctionConfig::aws_like(128).bandwidth_bytes_per_sec();
        let mid = FunctionConfig::aws_like(1536).bandwidth_bytes_per_sec();
        let big = FunctionConfig::aws_like(3008).bandwidth_bytes_per_sec();
        assert!((small - 50e6).abs() < 1e3);
        assert!((big - 160e6).abs() < 1e3);
        assert!(small < mid && mid < big);
    }
}
