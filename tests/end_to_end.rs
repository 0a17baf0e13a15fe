//! Workspace-level integration tests: the full stack (client library →
//! proxy → Lambda runtimes → platform → network) exercised through the
//! public APIs of the `infinicache` crate, on the simulator and — for
//! the parity check — the loopback socket substrate.

use ic_common::pricing::CostCategory;
use ic_common::{ClientId, DeploymentConfig, EcConfig, ObjectKey, Payload, SimDuration, SimTime};
use ic_simfaas::reclaim::{HourlyPoisson, NoReclaim};
use ic_workload::{generate, WorkloadSpec};
use infinicache::chaos::ScriptStep;
use infinicache::event::Op;
use infinicache::metrics::{OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::world::SimWorld;

mod common;
use common::{replay_net, replay_sim, StepOutcome};

fn key(s: &str) -> ObjectKey {
    ObjectKey::new(s)
}

#[test]
fn simulated_deployment_serves_a_mixed_object_population() {
    let cfg = DeploymentConfig {
        lambdas_per_proxy: 24,
        ..DeploymentConfig::small(24, EcConfig::new(10, 2).unwrap())
    };
    let mut w = SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), 1);
    // Sizes spanning KBs to 100s of MBs, like the registry workload.
    let sizes = [50_000u64, 1_000_000, 25_000_000, 100_000_000, 400_000_000];
    for (i, &size) in sizes.iter().enumerate() {
        w.submit(
            SimTime::from_secs(1 + 5 * i as u64),
            ClientId(0),
            Op::Put {
                key: key(&format!("o{i}")),
                payload: Payload::synthetic(size),
            },
        );
        w.submit(
            SimTime::from_secs(60 + 5 * i as u64),
            ClientId(0),
            Op::Get {
                key: key(&format!("o{i}")),
                size,
            },
        );
    }
    w.run_until(SimTime::from_secs(200));
    let gets: Vec<_> = w
        .metrics
        .requests
        .iter()
        .filter(|r| r.kind == OpKind::Get)
        .collect();
    assert_eq!(gets.len(), sizes.len());
    for g in &gets {
        assert!(matches!(g.outcome, Outcome::Hit { .. }), "{g:?}");
    }
    // Larger objects take longer end to end.
    let small = gets.iter().find(|g| g.size == 50_000).unwrap();
    let large = gets.iter().find(|g| g.size == 400_000_000).unwrap();
    assert!(large.latency() > small.latency());
}

#[test]
fn multi_proxy_deployment_spreads_objects() {
    let cfg = DeploymentConfig {
        proxies: 4,
        lambdas_per_proxy: 16,
        backup_enabled: false,
        ..DeploymentConfig::small(16, EcConfig::new(4, 1).unwrap())
    };
    let mut w = SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), 2);
    for i in 0..24u64 {
        let k = key(&format!("spread-{i}"));
        let c = ClientId((i % 2) as u16);
        w.submit(
            SimTime::from_secs(1 + i),
            c,
            Op::Put {
                key: k.clone(),
                payload: Payload::synthetic(5_000_000),
            },
        );
        w.submit(
            SimTime::from_secs(120 + i),
            c,
            Op::Get {
                key: k,
                size: 5_000_000,
            },
        );
    }
    w.run_until(SimTime::from_secs(300));
    // Every proxy should have seen traffic.
    let mut busy = 0;
    for p in 0..4u16 {
        let st = w.proxy_stats(ic_common::ProxyId(p));
        if st.get_hits > 0 {
            busy += 1;
        }
    }
    assert!(
        busy >= 3,
        "consistent hashing should use most proxies ({busy}/4)"
    );
    assert!((w.metrics.hit_ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn trace_replay_hits_reasonable_ratio_and_bills_all_categories() {
    let trace = generate(&WorkloadSpec::mini(), 9);
    let cfg = DeploymentConfig {
        lambdas_per_proxy: 48,
        lambda_memory_mb: 512,
        backup_interval: SimDuration::from_mins(3),
        ..DeploymentConfig::small(48, EcConfig::new(10, 2).unwrap())
    };
    let report = infinicache::experiments::trace_replay(
        &trace,
        cfg,
        Box::new(HourlyPoisson::new(20.0, "churn")),
        SimParams::paper(),
    );
    assert!(report.hit_ratio > 0.2, "hit ratio {}", report.hit_ratio);
    assert!(report.category_cost[0] > 0.0, "serving must cost something");
    assert!(
        report.category_cost[1] > 0.0,
        "warm-ups must cost something"
    );
    assert!(report.category_cost[2] > 0.0, "backups must cost something");
    assert!(
        report.availability > 0.8,
        "availability {}",
        report.availability
    );
}

fn parity_script() -> Vec<ScriptStep> {
    let put = |k: &str, size| ScriptStep::Put {
        key: k.into(),
        size,
    };
    let get = |k: &str| ScriptStep::Get { key: k.into() };
    vec![
        put("alpha", 300_000),
        put("beta", 1_200_000),
        get("alpha"),
        get("beta"),
        get("ghost"), // never stored: must miss on both substrates
        get("alpha"), // still cached: must hit again
    ]
}

/// The tentpole invariant of the shared dispatch layer: the same
/// PUT/GET/miss script pushed through `SimWorld` (timed events, network
/// flows) and the socket cluster (`ic-net` loopback TCP, real bytes)
/// produces identical application-visible hit/miss outcomes, because
/// both substrates execute the identical protocol actions through
/// `infinicache::dispatch`. Net GETs are also byte-identical to the
/// stored objects (asserted inside `replay_net`). (The replay harness
/// lives in `ic_net::replay`; `tests/chaos.rs` reuses it for sampled
/// schedules.)
#[test]
fn simulated_and_net_execution_agree_on_hit_miss_outcomes() {
    let script = parity_script();
    let sim = replay_sim(&script);
    let net = replay_net(&script);
    assert_eq!(sim, net, "sim and net outcomes diverged");
    let expected = [
        StepOutcome::Stored,
        StepOutcome::Stored,
        StepOutcome::Hit,
        StepOutcome::Hit,
        StepOutcome::Miss,
        StepOutcome::Hit,
    ];
    assert_eq!(sim, expected, "script must store, hit, and miss as written");
}

#[test]
fn billing_cycles_round_up_per_invocation_end_to_end() {
    // One warm-up tick on a tiny idle pool: every invocation bills exactly
    // one 100 ms cycle at the configured memory.
    let cfg = DeploymentConfig {
        lambda_memory_mb: 1024,
        backup_enabled: false,
        ..DeploymentConfig::small(5, EcConfig::new(4, 1).unwrap())
    };
    let mut w = SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), 1);
    w.run_until(SimTime::from_secs(65)); // one warm-up tick
    w.run_until(SimTime::from_secs(100));
    let warm = w.platform.billing.category(CostCategory::Warmup);
    assert_eq!(warm.invocations, 5);
    let gb = 1024.0 * 1024.0 * 1024.0 / 1e9;
    assert!(
        (warm.gb_seconds - 5.0 * 0.1 * gb).abs() < 1e-9,
        "billed {} GB-s",
        warm.gb_seconds
    );
}
