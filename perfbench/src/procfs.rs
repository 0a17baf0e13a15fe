//! What the benchmark reads about its own process and host from
//! `/proc`: per-thread CPU time grouped by thread role, peak resident
//! memory, and the host fingerprint stamped on every result.

use std::collections::BTreeMap;

/// Thread roles of one benchmark process, by thread name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The benchmark's load-generating client threads (`perfbench-cli-*`).
    Client,
    /// Proxy readiness-loop shards (`ic-proxy-io-*`).
    ProxyIo,
    /// The proxy protocol thread (`ic-proxy-events`).
    ProxyEvents,
    /// Node daemons (`ic-node-*`).
    Node,
    /// Everything else (the main thread, helpers).
    Other,
}

/// Name prefix of the benchmark's client threads.
pub const CLIENT_THREAD: &str = "perfbench-cli";

impl Role {
    /// Classifies a thread by its `comm` name.
    pub fn of(comm: &str) -> Role {
        if comm.starts_with(CLIENT_THREAD) {
            Role::Client
        } else if comm.starts_with("ic-proxy-io") {
            Role::ProxyIo
        } else if comm.starts_with("ic-proxy-events") {
            Role::ProxyEvents
        } else if comm.starts_with("ic-node") {
            Role::Node
        } else {
            Role::Other
        }
    }
}

/// CPU nanoseconds per thread id at one instant.
#[derive(Clone, Debug, Default)]
pub struct CpuSnapshot {
    threads: BTreeMap<u32, (Role, u64)>,
}

/// CPU time of one thread in nanoseconds: the scheduler's run time, the
/// first field of `schedstat`.
fn thread_cpu_ns(task: &std::path::Path) -> Option<u64> {
    let s = std::fs::read_to_string(task.join("schedstat")).ok()?;
    s.split_whitespace().next()?.parse().ok()
}

impl CpuSnapshot {
    /// Reads every thread of this process.
    pub fn take() -> CpuSnapshot {
        let mut threads = BTreeMap::new();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
                    continue;
                };
                let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
                if let Some(ns) = thread_cpu_ns(&task.path()) {
                    threads.insert(tid, (Role::of(comm.trim_end()), ns));
                }
            }
        }
        CpuSnapshot { threads }
    }

    /// CPU seconds each role used between `earlier` and `self`, counting
    /// threads alive at both instants.
    pub fn since(&self, earlier: &CpuSnapshot) -> RoleCpu {
        let mut out = RoleCpu::default();
        for (tid, (role, ns)) in &self.threads {
            if let Some((_, before)) = earlier.threads.get(tid) {
                *out.secs.entry(*role).or_default() += ns.saturating_sub(*before) as f64 / 1e9;
            }
        }
        out
    }
}

/// CPU seconds per thread role over an interval.
#[derive(Clone, Debug, Default)]
pub struct RoleCpu {
    secs: BTreeMap<Role, f64>,
}

impl RoleCpu {
    /// CPU seconds of `role`.
    pub fn get(&self, role: Role) -> f64 {
        self.secs.get(&role).copied().unwrap_or(0.0)
    }

    /// CPU seconds of the whole process.
    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }

    /// The split as a JSON object: CPU seconds and share of the process
    /// total per role.
    pub fn to_json(&self) -> String {
        let total = self.total();
        let roles: Vec<String> = self
            .secs
            .iter()
            .map(|(role, s)| {
                format!(
                    "\"{role:?}\": {{\"cpu_s\": {s}, \"share\": {}}}",
                    crate::stats::ratio(*s, total)
                )
            })
            .collect();
        format!("{{{}}}", roles.join(", "))
    }
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host and build a result was measured on, as a JSON object.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustflags = env!("PERFBENCH_RUSTFLAGS");
    format!(
        "{{\"cores\": {}, \"cpu_model\": {}, \"kernel\": {}, \"profile\": {}, \"opt_level\": {}, \"target_cpu_native\": {}, \"rustflags\": {}}}",
        cores(),
        crate::report::json_str(model),
        crate::report::json_str(kernel.trim()),
        crate::report::json_str(env!("PERFBENCH_PROFILE")),
        crate::report::json_str(env!("PERFBENCH_OPT_LEVEL")),
        rustflags.contains("target-cpu=native"),
        crate::report::json_str(rustflags),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_map_to_roles() {
        assert_eq!(Role::of("perfbench-cli-0"), Role::Client);
        assert_eq!(Role::of("ic-proxy-io-1"), Role::ProxyIo);
        assert_eq!(Role::of("ic-proxy-events"), Role::ProxyEvents);
        assert_eq!(Role::of("ic-node-11"), Role::Node);
        assert_eq!(Role::of("perfbench"), Role::Other);
    }

    #[test]
    fn busy_thread_shows_cpu_time() {
        let before = CpuSnapshot::take();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = CpuSnapshot::take().since(&before);
        assert!(used.total() > 0.0, "no CPU time observed ({x})");
        assert!(peak_rss_mb() > 0.0);
    }
}
