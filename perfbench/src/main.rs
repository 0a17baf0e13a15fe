//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one named workload through the repository's public APIs, checks
//! its outputs, and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the detail report: every metric
//! the workload measured, the host fingerprint, and the seed. The exit
//! code is 0 only when every operation succeeded and every correctness
//! gate held.

mod mc;
mod net;
mod procfs;
mod report;
mod sim;
mod span;
mod stats;

use std::process::ExitCode;

use report::{json_num, json_str, metrics_json, result_line, Metric, Run};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "net_read_1m",
    "net_write_evict",
    "sim_churn_4h",
    "mc_faults_small",
];

/// End-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("ec.encode_us_per_put", "us"),
    ("ec.join_us_per_get", "us"),
    ("client.cpu_us_per_op", "us"),
    ("client.misses", "count"),
    ("client.parity_decodes", "count"),
    ("client.failed_puts", "count"),
    ("proxy_events.cpu_us_per_op", "us"),
    ("proxy_io.cpu_us_per_op", "us"),
    ("node.cpu_us_per_op", "us"),
    ("wire.frames_per_op", "count"),
    ("wire.frames_per_write", "count"),
    ("cpu.util", "ratio"),
    ("harness.cpu_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.synth_s", "s"),
    ("baselines.compare_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.reclaims", "count"),
    ("sim.hour_s.0", "s"),
    ("sim.hour_s.1", "s"),
    ("sim.hour_s.2", "s"),
    ("sim.hour_s.3", "s"),
    ("sim.hour_events.0", "count"),
    ("sim.hour_events.1", "count"),
    ("sim.hour_events.2", "count"),
    ("sim.hour_events.3", "count"),
    ("sim.drain_s", "s"),
    ("sim.drain_events", "count"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.states_per_s", "1/s"),
    ("mc.useful_ratio", "ratio"),
    ("mc.build_world_us", "us"),
];

/// Where the socket workloads' traffic goes.
const TRANSPORT: &str = "loopback TCP on 127.0.0.1 inside one process; no network link is crossed";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What `--seed` decides for each workload.
fn inputs_note(workload: &str) -> &'static str {
    match workload {
        "sim_churn_4h" => {
            "fixed by the workload: Dallas-like trace and replay seed 2020; --seed is recorded only"
        }
        "mc_faults_small" => {
            "fixed by the workload: McConfig::small seed 1; --seed is recorded only"
        }
        _ => "--seed makes the payload bytes, the op mix and the key sequence",
    }
}

fn execute(a: &Args) -> ic_common::Result<Run> {
    Ok(match (a.workload.as_str(), a.trace) {
        ("net_read_1m", false) => net::run(&net::NetShape::read_1m(), a.seed, a.seconds)?,
        ("net_read_1m", true) => net::run_traced(&net::NetShape::read_1m(), a.seed, a.seconds)?,
        ("net_write_evict", false) => net::run(&net::NetShape::write_evict(), a.seed, a.seconds)?,
        ("net_write_evict", true) => {
            net::run_traced(&net::NetShape::write_evict(), a.seed, a.seconds)?
        }
        ("sim_churn_4h", false) => sim::run(a.seconds),
        ("sim_churn_4h", true) => sim::run_traced(),
        ("mc_faults_small", false) => mc::run(a.seconds),
        ("mc_faults_small", true) => mc::run_traced(),
        (other, _) => unreachable!("workload {other} passed validation"),
    })
}

/// The contract metrics of a run, in list order. Every workload reports
/// every end-to-end metric; a per-layer metric whose layer the workload
/// does not exercise reads 0.
fn select(run: &Run, list: &[(&str, &'static str)]) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| {
            run.get(name).cloned().unwrap_or(Metric {
                name: name.into(),
                value: 0.0,
                unit,
            })
        })
        .collect()
}

fn detail_line(a: &Args, run: &Run) -> String {
    let notes: String = run
        .notes
        .iter()
        .map(|(k, v)| format!(", {}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"inputs\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"transport\": {}, \"error_rate\": {}, \"gate_failures\": {}{notes}, \"metrics\": {}}}}}",
        json_str(&a.workload),
        a.seed,
        json_str(inputs_note(&a.workload)),
        json_num(a.seconds),
        a.trace,
        procfs::host_fingerprint(),
        json_str(if a.workload.starts_with("net_") { TRANSPORT } else { "none (in-process simulation)" }),
        json_num(run.tally.error_rate()),
        run.gate_failures.len(),
        metrics_json(&run.metrics),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let run = match execute(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for m in &run.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.trace {
        select(&run, &PER_LAYER)
    } else {
        select(&run, &END_TO_END)
    };
    println!("{}", detail_line(&args, &run));
    println!("{}", result_line(&run, &metrics));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "..."` values of one top-level list of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        list.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
    }

    #[test]
    fn args_are_validated() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v(
            "--workload mc_faults_small --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 10.0);
        assert!(parse_args(&v("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&v("--workload mc_faults_small --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&v(
            "--workload mc_faults_small --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&v(
            "--workload mc_faults_small --seed 3 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn absent_layers_read_zero() {
        let mut run = Run::default();
        run.put("mc.states", 5.0, "count");
        let layers = select(&run, &PER_LAYER);
        assert_eq!(layers.len(), PER_LAYER.len());
        let value = |name: &str| layers.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("mc.states"), 5.0);
        assert_eq!(value("sim.events"), 0.0);
    }
}
