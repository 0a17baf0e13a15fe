//! `sim_churn_4h`: the first four hours of the Dallas-like production
//! trace replayed on the 400-function production deployment under
//! production churn, through `ic_trace::replay_sim`; the traced run
//! replays the same trace on a [`SimWorld`] one virtual hour at a time.

use std::time::Instant;

use ic_baselines::ElastiCacheDeployment;
use ic_common::pricing::CostCategory;
use ic_common::{ClientId, Payload, SimTime};
use ic_simfaas::reclaim::{NoReclaim, PeriodicSpike, ReclaimPolicy};
use ic_trace::replay::{
    compare_baselines, replay_sim, BaselineComparison, ChurnProfile, HourPoint, SimReplayConfig,
    SimReplayReport,
};
use ic_trace::synth::{synthesize, TraceGenConfig};
use ic_trace::{TraceData, TraceOp};
use infinicache::event::Op;
use infinicache::metrics::{OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::world::SimWorld;

use crate::procfs::{self, CpuSnapshot};
use crate::report::Run;
use crate::stats::{median, ratio};

/// Seed of the Dallas-like trace and of the replay's service model.
pub const TRACE_SEED: u64 = 2020;

/// Hours of the trace kept.
pub const HOURS: u64 = 4;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The replay's outputs for the fixed input, as committed. Any change to
/// them is a change in simulator behaviour, not in speed.
const EXPECTED: &str = include_str!("../expected/sim_churn_4h.txt");

const HOUR_US: u64 = 3_600_000_000;

/// The sliced trace and the baseline prices, with how long each took.
struct Inputs {
    data: TraceData,
    baselines: BaselineComparison,
    synth_s: f64,
    compare_s: f64,
}

fn set_up() -> Inputs {
    let t0 = Instant::now();
    let full = synthesize(&TraceGenConfig::dallas(), TRACE_SEED);
    let cut = SimTime::from_micros(HOURS * HOUR_US);
    let data = TraceData {
        name: format!("{}-first-{HOURS}h", full.name),
        horizon: cut,
        tenants: full.tenants,
        records: full.records.into_iter().filter(|r| r.at < cut).collect(),
    };
    let synth_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let base = compare_baselines(&data, ElastiCacheDeployment::one_node_24xl());
    let compare_s = t1.elapsed().as_secs_f64();
    Inputs {
        data,
        baselines: base,
        synth_s,
        compare_s,
    }
}

fn config() -> SimReplayConfig {
    SimReplayConfig::production(TRACE_SEED)
}

/// Canonical text of everything a replay reports, with every float in
/// its exact round-trip form.
pub fn digest(r: &SimReplayReport, cost_vs_elasticache: f64) -> String {
    let mut out = format!(
        "trace {}\nops {} gets {} puts {} hours {}\nhit_ratio {:?}\navailability {:?}\n\
         resets {} recoveries {}\ntotal_cost {:?}\ncategory_cost {:?}\nget_latency_ms {:?}\n\
         cost_vs_elasticache {:?}\n",
        r.trace,
        r.ops,
        r.gets,
        r.puts,
        r.hours,
        r.hit_ratio,
        r.availability,
        r.resets,
        r.recoveries,
        r.total_cost,
        r.category_cost,
        r.get_latency_ms,
        cost_vs_elasticache,
    );
    for (h, p) in r.hourly.iter().enumerate() {
        out.push_str(&format!(
            "hour {h} gets {} hits {} resets {} reclaims {} cost {:?}\n",
            p.gets, p.hits, p.resets, p.reclaims, p.cost
        ));
    }
    out
}

/// Checks one replay against the committed outputs.
fn check_expected(run: &mut Run, got: &str) {
    if got == EXPECTED {
        run.tally.record(true);
    } else {
        run.fail_gate(format!(
            "sim_churn_4h outputs differ from perfbench/expected/sim_churn_4h.txt:\n--- expected\n{EXPECTED}--- got\n{got}"
        ));
    }
}

/// Untraced run: `SETUPS` set-ups, then `replay_sim` repeated until
/// `seconds` have passed (at least once). Every replay must reproduce
/// the committed outputs.
pub fn run(seconds: f64) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(set_up());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let cfg = config();
    let mut walls = Vec::new();
    let mut last = None;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = replay_sim(&inputs.data, &cfg);
        walls.push(t.elapsed().as_secs_f64());
        let vs = inputs.baselines.cost_vs_elasticache(report.total_cost);
        check_expected(&mut run, &digest(&report, vs));
        last = Some((report, vs));
    }
    let (report, vs) = last.expect("at least one replay");
    let ops_per_s = inputs.data.records.len() as f64 / median(&walls);
    run.put("setup_s", median(&setups), "s");
    run.put("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    run.put("ops_per_s", ops_per_s, "1/s");
    run.put("sim_ops_per_s", ops_per_s, "1/s");
    run.put("replays", walls.len() as f64, "count");
    run.put("hit_ratio", report.hit_ratio, "ratio");
    run.put("availability", report.availability, "ratio");
    run.put("cost_vs_elasticache", vs, "ratio");
    run
}

/// The per-virtual-hour replay: the same world `replay_sim` builds,
/// advanced with `SimWorld::run_until` one hour at a time, with the
/// report rebuilt from the world exactly as `replay_sim` does.
struct HourSliced {
    report: SimReplayReport,
    /// Wall seconds and events per virtual hour, then the drain.
    slices: Vec<(f64, u64)>,
    events: u64,
    reclaims: u64,
    /// Wall seconds spent building the report (benchmark code).
    harness_s: f64,
}

fn replay_by_hour(data: &TraceData, cfg: &SimReplayConfig) -> HourSliced {
    let fleet = cfg.deployment.total_lambdas() as usize;
    // The reclaim regimes of `ic_trace::replay::ChurnProfile`.
    let policy: Box<dyn ReclaimPolicy> = match cfg.churn {
        ChurnProfile::None => Box::new(NoReclaim),
        ChurnProfile::ProductionChurnSpikes => {
            let mut spike = PeriodicSpike::new(fleet, 360, 0.85, "trace churn+spikes");
            spike.base_per_hour = 36.0 * fleet as f64 / 400.0;
            Box::new(spike)
        }
    };
    let mut w = SimWorld::new(
        cfg.deployment.clone(),
        SimParams::paper().with_seed(cfg.seed),
        policy,
        1,
    );
    w.write_through = cfg.write_through;
    for r in &data.records {
        let op = match r.op {
            TraceOp::Get => Op::Get {
                key: r.key(),
                size: r.size,
            },
            TraceOp::Put => Op::Put {
                key: r.key(),
                payload: Payload::synthetic(r.size),
            },
        };
        w.submit(r.at, ClientId(0), op);
    }
    let last = data.records.last().map_or(SimTime::ZERO, |r| r.at);
    let end = data.horizon.max(last) + cfg.drain;
    let mut slices = Vec::new();
    let mut bounds: Vec<SimTime> = (1..=data.hours() as u64)
        .map(|h| SimTime::from_micros(h * HOUR_US))
        .filter(|&t| t < end)
        .collect();
    bounds.push(end);
    for t in bounds {
        let e0 = w.events_processed();
        let t0 = Instant::now();
        w.run_until(t);
        slices.push((t0.elapsed().as_secs_f64(), w.events_processed() - e0));
    }
    let h0 = Instant::now();
    w.platform.finalize(end, CostCategory::Serving);
    let report = report_of(&w, data);
    HourSliced {
        report,
        slices,
        events: w.events_processed(),
        reclaims: w.platform.reclaim_log().len() as u64,
        harness_s: h0.elapsed().as_secs_f64(),
    }
}

/// `replay_sim`'s report, rebuilt from a finished world.
fn report_of(w: &SimWorld, data: &TraceData) -> SimReplayReport {
    let hours = data.hours();
    let mut hourly = vec![HourPoint::default(); hours];
    for r in &w.metrics.requests {
        if r.kind != OpKind::Get {
            continue;
        }
        let h = (r.issued.hour() as usize).min(hours - 1);
        hourly[h].gets += 1;
        match r.outcome {
            Outcome::Hit { .. } => hourly[h].hits += 1,
            Outcome::Reset => hourly[h].resets += 1,
            _ => {}
        }
    }
    for (h, row) in w.platform.billing.hourly_breakdown().iter().enumerate() {
        let h = h.min(hours - 1);
        for (c, dollars) in row.iter().enumerate() {
            hourly[h].cost[c] += dollars;
        }
    }
    for (t, _, _) in w.platform.reclaim_log() {
        hourly[(t.hour() as usize).min(hours - 1)].reclaims += 1;
    }
    let mut lat = w.metrics.get_latencies_ms(0);
    lat.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            0.0
        } else {
            lat[(((lat.len() - 1) as f64) * p).round() as usize]
        }
    };
    let billing = &w.platform.billing;
    SimReplayReport {
        trace: data.name.clone(),
        ops: data.records.len(),
        gets: data.gets(),
        puts: data.puts(),
        hours,
        hit_ratio: w.metrics.hit_ratio(),
        availability: w.metrics.availability(),
        resets: w.metrics.resets(),
        recoveries: w.metrics.recoveries(),
        total_cost: billing.total_dollars(),
        category_cost: [
            billing.category(CostCategory::Serving).dollars,
            billing.category(CostCategory::Warmup).dollars,
            billing.category(CostCategory::Backup).dollars,
        ],
        get_latency_ms: [pct(0.50), pct(0.90), pct(0.99)],
        hourly,
    }
}

/// Traced run: one set-up, one `replay_sim` (the untraced reference and
/// the tracing-overhead baseline), then the hour-sliced replay, which
/// must reproduce `replay_sim`'s report exactly.
pub fn run_traced() -> Run {
    let mut run = Run::default();
    let inputs = set_up();
    let cfg = config();
    let t = Instant::now();
    let reference = replay_sim(&inputs.data, &cfg);
    let plain_s = t.elapsed().as_secs_f64();
    let vs = inputs.baselines.cost_vs_elasticache(reference.total_cost);
    check_expected(&mut run, &digest(&reference, vs));

    let cpu0 = CpuSnapshot::take();
    let t = Instant::now();
    let sliced = replay_by_hour(&inputs.data, &cfg);
    let traced_s = t.elapsed().as_secs_f64();
    let cpu = CpuSnapshot::take().since(&cpu0);
    if sliced.report == reference {
        run.tally.record(true);
    } else {
        run.fail_gate(format!(
            "the hour-sliced SimWorld replay differs from replay_sim:\n--- replay_sim\n{}--- hour-sliced\n{}",
            digest(&reference, vs),
            digest(&sliced.report, vs)
        ));
    }

    run.put("trace.synth_s", inputs.synth_s, "s");
    run.put("baselines.compare_s", inputs.compare_s, "s");
    run.put("sim.events", sliced.events as f64, "count");
    let sim_s: f64 = sliced.slices.iter().map(|(s, _)| s).sum();
    run.put(
        "sim.events_per_s",
        ratio(sliced.events as f64, sim_s),
        "1/s",
    );
    run.put("sim.reclaims", sliced.reclaims as f64, "count");
    let (drain, hours) = sliced.slices.split_last().expect("the drain slice");
    for (h, (s, e)) in hours.iter().enumerate() {
        run.put(format!("sim.hour_s.{h}"), *s, "s");
        run.put(format!("sim.hour_events.{h}"), *e as f64, "count");
    }
    run.put("sim.drain_s", drain.0, "s");
    run.put("sim.drain_events", drain.1 as f64, "count");
    run.put(
        "cpu.util",
        cpu.total() / (traced_s * procfs::cores() as f64),
        "ratio",
    );
    run.put(
        "harness.cpu_share",
        ratio(sliced.harness_s, cpu.total()),
        "ratio",
    );
    run.put("trace.overhead", traced_s / plain_s - 1.0, "ratio");
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_sliced_replay_reproduces_replay_sim() {
        let data = synthesize(&TraceGenConfig::smoke(), 3);
        for churn in [ChurnProfile::None, ChurnProfile::ProductionChurnSpikes] {
            let cfg = SimReplayConfig {
                churn,
                ..SimReplayConfig::smoke(3)
            };
            let sliced = replay_by_hour(&data, &cfg);
            assert_eq!(sliced.report, replay_sim(&data, &cfg));
            let events: u64 = sliced.slices.iter().map(|s| s.1).sum();
            assert_eq!(events, sliced.events);
        }
    }

    #[test]
    fn digest_changes_with_any_output() {
        let data = synthesize(&TraceGenConfig::smoke(), 3);
        let report = replay_sim(&data, &SimReplayConfig::smoke(3));
        let mut other = report.clone();
        other.hourly[0].hits += 1;
        assert_ne!(digest(&report, 2.0), digest(&other, 2.0));
        assert_ne!(digest(&report, 2.0), digest(&report, 2.0 + 1e-12));
    }
}
