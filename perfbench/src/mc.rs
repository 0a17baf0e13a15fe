//! `mc_faults_small`: an exhaustive, uncapped `ic_mc::explore` of the
//! small two-client configuration with up to two injected reclaims and
//! two client disconnects.

use std::time::Instant;

use ic_mc::{explore, McConfig, Report};

use crate::procfs::{self, CpuSnapshot};
use crate::report::Run;
use crate::stats::{median, ratio};

/// Seed of the explored deployment.
pub const SEED: u64 = 1;

/// Root-world builds timed before each search and after the last;
/// `setup_s` is the median of them all, so it samples the whole run.
const BUILDS: usize = 250;

/// The search's outcome for the fixed input, as committed.
const EXPECTED: &str = include_str!("../expected/mc_faults_small.txt");

/// The explored configuration.
pub fn config() -> McConfig {
    McConfig {
        max_reclaims: 2,
        max_disconnects: 2,
        max_states: 0,
        ..McConfig::small(SEED)
    }
}

/// Canonical text of a search's outcome.
pub fn digest(r: &Report) -> String {
    format!(
        "states {} transitions {} deduped {} pruned {} terminals {} depth_cutoffs {} capped {} violations {}\n",
        r.states, r.transitions, r.deduped, r.pruned, r.terminals, r.depth_cutoffs, r.capped,
        r.violations.len()
    )
}

/// Runs one search and checks it is the committed, violation-free,
/// uncapped verdict. Returns the report and its wall time.
fn verdict(run: &mut Run, cfg: &McConfig) -> (Report, f64) {
    let t = Instant::now();
    let report = explore(cfg);
    let wall = t.elapsed().as_secs_f64();
    let got = digest(&report);
    if report.ok() && !report.capped && got == EXPECTED {
        run.tally.record(true);
    } else {
        run.fail_gate(format!(
            "mc_faults_small verdict differs from perfbench/expected/mc_faults_small.txt:\n--- expected\n{EXPECTED}--- got\n{got}violations: {:?}",
            report.violations
        ));
    }
    (report, wall)
}

/// Wall times, in seconds, of `n` builds of the explored deployment's
/// root world.
fn build_times(cfg: &McConfig, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cfg.build_world());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Untraced run: the search repeated until `seconds` have passed (at
/// least once), with `BUILDS` timed root-world builds before each search
/// and after the last (`setup_s` is their median).
pub fn run(seconds: f64) -> Run {
    let mut run = Run::default();
    let cfg = config();
    let mut builds = Vec::new();
    let mut walls = Vec::new();
    let mut states = 0;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        builds.extend(build_times(&cfg, BUILDS));
        let (report, wall) = verdict(&mut run, &cfg);
        walls.push(wall);
        states = report.states;
    }
    builds.extend(build_times(&cfg, BUILDS));
    let verdict_s = median(&walls);
    run.put("setup_s", median(&builds), "s");
    run.put("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    run.put("ops_per_s", states as f64 / verdict_s, "1/s");
    run.put("mc_verdict_s", verdict_s, "s");
    run.put("verdicts", walls.len() as f64, "count");
    run
}

/// Traced run: one plain search (the tracing-overhead baseline), then
/// one with the process CPU sampled around it.
pub fn run_traced() -> Run {
    let mut run = Run::default();
    let cfg = config();
    let (_, plain_s) = verdict(&mut run, &cfg);
    let cpu0 = CpuSnapshot::take();
    let (report, traced_s) = verdict(&mut run, &cfg);
    let cpu = CpuSnapshot::take().since(&cpu0);
    run.put("mc.states", report.states as f64, "count");
    run.put("mc.transitions", report.transitions as f64, "count");
    run.put("mc.states_per_s", report.states as f64 / traced_s, "1/s");
    run.put(
        "mc.useful_ratio",
        ratio(report.states as f64, report.transitions as f64),
        "ratio",
    );
    run.put(
        "mc.build_world_us",
        median(&build_times(&cfg, BUILDS)) * 1e6,
        "us",
    );
    run.put(
        "cpu.util",
        cpu.total() / (traced_s * procfs::cores() as f64),
        "ratio",
    );
    run.put("trace.overhead", traced_s / plain_s - 1.0, "ratio");
    run
}
