//! The socket-substrate workloads: a [`LoopbackCluster`] driven by
//! closed-loop [`NetClient`] threads, every GET checked byte for byte
//! against the exact bytes last PUT for its key.
//!
//! Traffic crosses loopback TCP inside one process: the numbers include
//! real kernel socket work but no network link.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_common::{DeploymentConfig, EcConfig, Result};
use ic_ec::{join_object, split_object_shared, ReedSolomon};
use ic_net::{LoopbackCluster, NetClient, WireSnapshot};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::procfs::{self, CpuSnapshot, Role, CLIENT_THREAD};
use crate::report::{json_str, Run};
use crate::span::{SpanLog, SpanTotals};
use crate::stats::{self, median, percentile, ratio, Tally};

/// Load-generating client threads (the reference host's core count).
pub const CLIENTS: usize = 2;

/// Distinct payload bodies each client cycles through. Every stored
/// object is a body with a 16-byte stamp naming its client, key and
/// version, so no two PUTs store the same bytes.
const BODIES: usize = 4;

/// Shape of one socket workload.
#[derive(Clone, Debug)]
pub struct NetShape {
    /// Object size in bytes.
    pub object_bytes: usize,
    /// Client-side erasure code.
    pub ec: EcConfig,
    /// Lambda nodes in the pool.
    pub nodes: u32,
    /// Function memory in MB (`None`: the deployment default).
    pub memory_mb: Option<u32>,
    /// Fraction of measured ops that are GETs; the rest overwrite.
    pub get_fraction: f64,
    /// Keys per client.
    pub keys_per_client: usize,
    /// Whether a GET may miss (the working set overflows the pool).
    pub miss_ok: bool,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl NetShape {
    /// `net_read_1m`: 1 MiB objects, RS(10+2) over 12 nodes, 90% GET,
    /// 16 keys per client. About 38 MiB stored, so every GET must hit.
    pub fn read_1m() -> NetShape {
        NetShape {
            object_bytes: 1 << 20,
            ec: EcConfig::new(10, 2).expect("valid code"),
            nodes: 12,
            memory_mb: None,
            get_fraction: 0.9,
            keys_per_client: 16,
            miss_ok: false,
            setups: 9,
        }
    }

    /// `net_write_evict`: 64 KiB objects, RS(4+2) over 6 × 128 MB
    /// nodes, 25% GET over 2 × 6000 keys: about 1.6× the pool, so once
    /// preloaded every PUT evicts and a GET may miss.
    pub fn write_evict() -> NetShape {
        NetShape {
            object_bytes: 64 << 10,
            ec: EcConfig::new(4, 2).expect("valid code"),
            nodes: 6,
            memory_mb: Some(128),
            get_fraction: 0.25,
            keys_per_client: 6000,
            miss_ok: true,
            setups: 3,
        }
    }

    fn deployment(&self) -> DeploymentConfig {
        let base = DeploymentConfig::small(self.nodes, self.ec);
        DeploymentConfig {
            lambda_memory_mb: self.memory_mb.unwrap_or(base.lambda_memory_mb),
            backup_enabled: false,
            ..base
        }
    }
}

/// The 16-byte stamp that makes a stored object unique.
fn stamp(client: u32, key: u32, version: u64) -> [u8; 16] {
    let mut s = [0u8; 16];
    s[..4].copy_from_slice(&client.to_le_bytes());
    s[4..8].copy_from_slice(&key.to_le_bytes());
    s[8..].copy_from_slice(&version.to_le_bytes());
    s
}

/// What a key holds, as far as the client knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stored {
    /// The last acknowledged PUT: `body` stamped with `version`.
    Known { version: u64, body: usize },
    /// A PUT failed, so the key may hold either value; not verified
    /// until the next acknowledged PUT.
    Unknown,
}

/// How one GET ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetOutcome {
    /// The exact bytes last PUT.
    Hit,
    /// A cache miss.
    Miss,
    /// Bytes other than the ones last PUT.
    Mismatch,
    /// An error or timeout.
    Error,
}

impl GetOutcome {
    /// Whether the outcome is acceptable for a workload.
    pub fn ok(self, miss_ok: bool) -> bool {
        match self {
            GetOutcome::Hit => true,
            GetOutcome::Miss => miss_ok,
            GetOutcome::Mismatch | GetOutcome::Error => false,
        }
    }
}

/// The payload bodies of one client, made from the workload seed before
/// any clock starts.
struct Bodies(Vec<Bytes>);

impl Bodies {
    fn generate(seed: u64, client: usize, len: usize) -> Bodies {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15 ^ client as u64);
        Bodies(
            (0..BODIES)
                .map(|_| {
                    let mut b = vec![0u8; len];
                    rng.fill_bytes(&mut b);
                    Bytes::from(b)
                })
                .collect(),
        )
    }

    /// The object a PUT stores: `body` with `stamp` over its first bytes.
    fn object(&self, body: usize, stamp: &[u8; 16]) -> Bytes {
        let b = &self.0[body];
        let head = stamp.len().min(b.len());
        let mut out = Vec::with_capacity(b.len());
        out.extend_from_slice(&stamp[..head]);
        out.extend_from_slice(&b[head..]);
        Bytes::from(out)
    }

    /// Compares a GET result with the exact bytes of the last PUT.
    fn check(&self, got: &Result<Option<Bytes>>, expect: Stored, stamp: &[u8; 16]) -> GetOutcome {
        match (got, expect) {
            (Err(_), _) => GetOutcome::Error,
            (Ok(None), _) => GetOutcome::Miss,
            (Ok(Some(_)), Stored::Unknown) => GetOutcome::Hit,
            (Ok(Some(bytes)), Stored::Known { body, .. }) => {
                let b = &self.0[body];
                let head = stamp.len().min(b.len());
                if bytes.len() == b.len()
                    && bytes[..head] == stamp[..head]
                    && bytes[head..] == b[head..]
                {
                    GetOutcome::Hit
                } else {
                    GetOutcome::Mismatch
                }
            }
        }
    }
}

/// One client thread's connection, keys, and knowledge of what they hold.
struct Worker {
    id: u32,
    client: NetClient,
    keys: Vec<String>,
    stored: Vec<Stored>,
    next_version: u64,
    bodies: Bodies,
    rng: SmallRng,
}

impl Worker {
    fn put(&mut self, k: usize, log: Option<(&mut SpanLog, usize, u64)>) -> (bool, Duration) {
        let version = self.next_version;
        self.next_version += 1;
        let body = (version % BODIES as u64) as usize;
        let st = stamp(self.id, k as u32, version);
        let (dt, res) = match log {
            Some((log, root, req)) => {
                let h = log.open("harness.payload", req, Some(root));
                let obj = self.bodies.object(body, &st);
                log.close(h);
                let c = log.open("client.put", req, Some(root));
                let t0 = Instant::now();
                let res = self.client.put(&self.keys[k], obj);
                let dt = t0.elapsed();
                log.close(c);
                (dt, res)
            }
            None => {
                let obj = self.bodies.object(body, &st);
                let t0 = Instant::now();
                let res = self.client.put(&self.keys[k], obj);
                (t0.elapsed(), res)
            }
        };
        match res {
            Ok(()) => {
                self.stored[k] = Stored::Known { version, body };
                (true, dt)
            }
            Err(e) => {
                eprintln!("perfbench: PUT {} failed: {e}", self.keys[k]);
                self.stored[k] = Stored::Unknown;
                (false, dt)
            }
        }
    }

    fn get(&mut self, k: usize, log: Option<(&mut SpanLog, usize, u64)>) -> (GetOutcome, Duration) {
        let expect = self.stored[k];
        let st = match expect {
            Stored::Known { version, .. } => stamp(self.id, k as u32, version),
            Stored::Unknown => [0; 16],
        };
        let (outcome, dt) = match log {
            Some((log, root, req)) => {
                let c = log.open("client.get", req, Some(root));
                let t0 = Instant::now();
                let got = self.client.get(&self.keys[k]);
                let dt = t0.elapsed();
                log.close(c);
                let v = log.open("harness.verify", req, Some(root));
                let outcome = self.bodies.check(&got, expect, &st);
                log.close(v);
                (outcome, dt)
            }
            None => {
                let t0 = Instant::now();
                let got = self.client.get(&self.keys[k]);
                let dt = t0.elapsed();
                (self.bodies.check(&got, expect, &st), dt)
            }
        };
        if matches!(outcome, GetOutcome::Mismatch | GetOutcome::Error) {
            eprintln!("perfbench: GET {} -> {outcome:?}", self.keys[k]);
        }
        (outcome, dt)
    }
}

/// A started cluster with connected, preloaded clients.
struct Deployment {
    cluster: LoopbackCluster,
    workers: Vec<Worker>,
}

/// Starts the cluster, connects the clients, and PUTs every key once.
/// Returns the deployment and the wall time that took.
fn set_up(shape: &NetShape, seed: u64, tally: &mut Tally) -> Result<(Deployment, f64)> {
    let bodies: Vec<Bodies> = (0..CLIENTS)
        .map(|c| Bodies::generate(seed, c, shape.object_bytes))
        .collect();
    let t0 = Instant::now();
    let cluster = LoopbackCluster::start(shape.deployment())?;
    let mut workers = Vec::with_capacity(CLIENTS);
    for (c, bodies) in bodies.into_iter().enumerate() {
        let mut client = cluster.client_seeded(seed ^ ((c as u64 + 1) << 32))?;
        client.set_op_timeout(Duration::from_secs(30));
        workers.push(Worker {
            id: c as u32,
            client,
            keys: (0..shape.keys_per_client)
                .map(|k| format!("c{c}-k{k}"))
                .collect(),
            stored: vec![Stored::Unknown; shape.keys_per_client],
            next_version: 0,
            bodies,
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ c as u64),
        });
    }
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("{CLIENT_THREAD}-{}", w.id))
                    .spawn_scoped(s, move || {
                        let mut t = Tally::default();
                        for k in 0..w.keys.len() {
                            t.record(w.put(k, None).0);
                        }
                        t
                    })
                    .expect("spawn preload thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    for t in tallies {
        tally.merge(t);
    }
    Ok((Deployment { cluster, workers }, t0.elapsed().as_secs_f64()))
}

/// What one client thread saw during a measured phase.
#[derive(Default)]
struct ThreadResult {
    tally: Tally,
    get_ms: Vec<f64>,
    put_ms: Vec<f64>,
    gets: u64,
    hits: u64,
    spans: Option<SpanLog>,
}

/// Everything one measured phase produced.
struct Phase {
    wall_s: f64,
    threads: Vec<ThreadResult>,
    cpu: procfs::RoleCpu,
    wire: WireSnapshot,
    /// [`client_counters`] delta over the phase.
    client_delta: [u64; 3],
}

impl Phase {
    fn ops(&self) -> u64 {
        self.threads.iter().map(|t| t.tally.attempted).sum()
    }

    fn sorted(&self, f: impl Fn(&ThreadResult) -> &Vec<f64>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .threads
            .iter()
            .flat_map(|t| f(t).iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// `[misses, parity decodes, failed PUTs]` summed over the clients.
fn client_counters(workers: &[Worker]) -> [u64; 3] {
    workers.iter().fold([0; 3], |acc, w| {
        let s = w.client.stats();
        [
            acc[0] + s.misses,
            acc[1] + s.parity_decodes,
            acc[2] + s.failed_puts,
        ]
    })
}

/// Runs the closed loop on every client for `seconds`. With `traced`,
/// each operation records its spans.
fn measure(dep: &mut Deployment, shape: &NetShape, seconds: f64, traced: bool) -> Phase {
    // Three rendezvous: all clients ready (CPU snapshot, clock starts),
    // all clients done (clock stops, CPU snapshot), snapshot taken (the
    // clients may exit; an exited thread vanishes from `/proc`).
    let [start, stop, release] = [(); 3].map(|()| Barrier::new(CLIENTS + 1));
    let wire_before = dep.cluster.wire_stats();
    let counters_before = client_counters(&dep.workers);
    let (threads, wall_s, cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = dep
            .workers
            .iter_mut()
            .map(|w| {
                let (start, stop, release) = (&start, &stop, &release);
                std::thread::Builder::new()
                    .name(format!("{CLIENT_THREAD}-{}", w.id))
                    .spawn_scoped(s, move || {
                        start.wait();
                        let r = closed_loop(w, shape, seconds, traced);
                        stop.wait();
                        release.wait();
                        r
                    })
                    .expect("spawn client thread")
            })
            .collect();
        let cpu0 = CpuSnapshot::take();
        start.wait();
        let t0 = Instant::now();
        stop.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu = CpuSnapshot::take().since(&cpu0);
        release.wait();
        let threads: Vec<ThreadResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (threads, wall_s, cpu)
    });
    let wire_after = dep.cluster.wire_stats();
    Phase {
        wall_s,
        threads,
        cpu,
        wire: WireSnapshot {
            vectored_writes: wire_after.vectored_writes - wire_before.vectored_writes,
            frames_written: wire_after.frames_written - wire_before.frames_written,
        },
        client_delta: {
            let after = client_counters(&dep.workers);
            [0, 1, 2].map(|i| after[i] - counters_before[i])
        },
    }
}

fn closed_loop(w: &mut Worker, shape: &NetShape, seconds: f64, traced: bool) -> ThreadResult {
    let mut r = ThreadResult {
        spans: traced.then(SpanLog::new),
        ..ThreadResult::default()
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut req = 0u64;
    while Instant::now() < deadline {
        let k = w.rng.gen_range(0..w.keys.len());
        let is_get = w.rng.gen::<f64>() < shape.get_fraction;
        req += 1;
        let root = r
            .spans
            .as_mut()
            .map(|log| log.open(if is_get { "op.get" } else { "op.put" }, req, None));
        let ctx = r
            .spans
            .as_mut()
            .zip(root)
            .map(|(log, root)| (log, root, req));
        if is_get {
            let (outcome, dt) = w.get(k, ctx);
            let ok = outcome.ok(shape.miss_ok);
            r.tally.record(ok);
            r.gets += 1;
            if outcome == GetOutcome::Hit {
                r.hits += 1;
            }
            if ok {
                r.get_ms.push(dt.as_secs_f64() * 1e3);
            }
        } else {
            let (ok, dt) = w.put(k, ctx);
            r.tally.record(ok);
            if ok {
                r.put_ms.push(dt.as_secs_f64() * 1e3);
            }
        }
        if let (Some(log), Some(root)) = (r.spans.as_mut(), root) {
            log.close(root);
        }
    }
    r
}

/// Per-op cost of the client's erasure coding on this shape, timed in a
/// phase of its own: `(split + encode µs per PUT, join µs per GET)`.
fn ec_phase(shape: &NetShape, seed: u64) -> (f64, f64) {
    let object = Bodies::generate(seed, 0, shape.object_bytes)
        .0
        .swap_remove(0);
    let rs = ReedSolomon::from_config(shape.ec);
    let budget = Duration::from_millis(300);
    let t0 = Instant::now();
    let mut n = 0u32;
    let mut data = Vec::new();
    while n < 3 || t0.elapsed() < budget {
        data = split_object_shared(shape.ec, &object).expect("non-empty object");
        let parity = rs.encode_parity(&data).expect("encode");
        std::hint::black_box(&parity);
        n += 1;
    }
    let encode_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(n);
    let t0 = Instant::now();
    let mut m = 0u32;
    while m < 3 || t0.elapsed() < budget {
        let joined = join_object(shape.ec, &data, object.len() as u64).expect("join");
        assert!(joined == object, "EC join changed the object");
        m += 1;
    }
    let join_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(m);
    (encode_us, join_us)
}

fn record_phase_tally(run: &mut Run, p: &Phase) {
    for t in &p.threads {
        run.tally.merge(t.tally);
    }
}

/// Untraced run: `shape.setups` set-ups (median is `setup_s`), then one
/// measured closed loop of `seconds`.
pub fn run(shape: &NetShape, seed: u64, seconds: f64) -> Result<Run> {
    let mut run = Run::default();
    let mut setups = Vec::with_capacity(shape.setups);
    let mut dep = None;
    for _ in 0..shape.setups {
        // Tear the previous deployment down before starting the next.
        drop(dep.take());
        let (d, s) = set_up(shape, seed, &mut run.tally)?;
        setups.push(s);
        dep = Some(d);
    }
    let mut dep = dep.expect("at least one set-up");
    let p = measure(&mut dep, shape, seconds, false);
    drop(dep);
    record_phase_tally(&mut run, &p);

    let ops = p.ops() as f64;
    let gets: u64 = p.threads.iter().map(|t| t.gets).sum();
    let hits: u64 = p.threads.iter().map(|t| t.hits).sum();
    run.put("setup_s", median(&setups), "s");
    run.put("peak_rss_mb", procfs::peak_rss_mb(), "MB");
    run.put("ops_per_s", ops / p.wall_s, "1/s");
    let get_ms = p.sorted(|t| &t.get_ms);
    let put_ms = p.sorted(|t| &t.put_ms);
    for (kind, lat) in [("get", &get_ms), ("put", &put_ms)] {
        for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
            if let Some(v) = percentile(lat, q) {
                run.put(format!("{kind}_{label}_ms"), v, "ms");
            }
        }
        run.put(format!("{kind}_samples"), lat.len() as f64, "count");
        if let Some(q) = stats::tail_percentile(lat.len()) {
            run.put(format!("{kind}_tail_pct"), q * 100.0, "%");
            if let Some(v) = percentile(lat, q) {
                run.put(format!("{kind}_tail_ms"), v, "ms");
            }
        }
    }
    // Where a miss is a failure it is already counted per operation.
    if shape.miss_ok {
        run.put("hit_ratio", ratio(hits as f64, gets as f64), "ratio");
    }
    Ok(run)
}

/// Traced run: one set-up, an untraced phase and a traced phase of
/// `seconds` each (their throughput ratio is the tracing overhead), then
/// the EC phase.
pub fn run_traced(shape: &NetShape, seed: u64, seconds: f64) -> Result<Run> {
    let mut run = Run::default();
    let (mut dep, _) = set_up(shape, seed, &mut run.tally)?;
    let plain = measure(&mut dep, shape, seconds, false);
    let traced = measure(&mut dep, shape, seconds, true);
    drop(dep);
    record_phase_tally(&mut run, &plain);
    record_phase_tally(&mut run, &traced);
    let (encode_us, join_us) = ec_phase(shape, seed);

    let ops = traced.ops() as f64;
    let mut spans: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let mut requests = 0;
    for log in traced.threads.iter().filter_map(|t| t.spans.as_ref()) {
        for (name, t) in log.summary() {
            spans.entry(name).or_default().merge(t);
        }
        requests += log.requests();
    }
    // The benchmark's own time inside an operation: its harness spans and
    // whatever of the operation span no child covers (key choice,
    // bookkeeping).
    let harness_s = spans
        .iter()
        .filter(|(name, _)| name.starts_with("harness.") || name.starts_with("op."))
        .map(|(_, t)| t.self_ns as f64 / 1e9)
        .sum::<f64>();
    let span_json: Vec<String> = spans
        .iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(name),
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            )
        })
        .collect();
    run.notes
        .push(("spans", format!("{{{}}}", span_json.join(", "))));
    run.notes.push(("traced_requests", requests.to_string()));
    run.notes.push(("cpu_by_role", traced.cpu.to_json()));
    run.notes.push(("traced_wall_s", traced.wall_s.to_string()));
    let per_op_us = |secs: f64| secs * 1e6 / ops.max(1.0);
    let total_cpu = traced.cpu.total();
    let plain_rate = plain.ops() as f64 / plain.wall_s;
    let traced_rate = ops / traced.wall_s;
    run.put("ec.encode_us_per_put", encode_us, "us");
    run.put("ec.join_us_per_get", join_us, "us");
    run.put(
        "client.cpu_us_per_op",
        per_op_us((traced.cpu.get(Role::Client) - harness_s).max(0.0)),
        "us",
    );
    let [misses, parity_decodes, failed_puts] = traced.client_delta;
    run.put("client.misses", misses as f64, "count");
    run.put("client.parity_decodes", parity_decodes as f64, "count");
    run.put("client.failed_puts", failed_puts as f64, "count");
    run.put(
        "proxy_events.cpu_us_per_op",
        per_op_us(traced.cpu.get(Role::ProxyEvents)),
        "us",
    );
    run.put(
        "proxy_io.cpu_us_per_op",
        per_op_us(traced.cpu.get(Role::ProxyIo)),
        "us",
    );
    run.put(
        "node.cpu_us_per_op",
        per_op_us(traced.cpu.get(Role::Node)),
        "us",
    );
    run.put(
        "wire.frames_per_op",
        traced.wire.frames_written as f64 / ops.max(1.0),
        "count",
    );
    run.put(
        "wire.frames_per_write",
        traced.wire.frames_per_write(),
        "count",
    );
    run.put(
        "cpu.util",
        total_cpu / (traced.wall_s * procfs::cores() as f64),
        "ratio",
    );
    run.put("harness.cpu_share", ratio(harness_s, total_cpu), "ratio");
    run.put(
        "trace.overhead",
        ratio(plain_rate, traced_rate) - 1.0,
        "ratio",
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_get_counts_as_a_failure() {
        let bodies = Bodies::generate(1, 0, 4096);
        let st = stamp(0, 3, 9);
        let stored = Stored::Known {
            version: 9,
            body: 1,
        };
        let exact = bodies.object(1, &st);
        assert_eq!(
            bodies.check(&Ok(Some(exact.clone())), stored, &st),
            GetOutcome::Hit
        );

        let mut corrupt = exact.to_vec();
        corrupt[2048] ^= 1;
        let outcome = bodies.check(&Ok(Some(Bytes::from(corrupt))), stored, &st);
        assert_eq!(outcome, GetOutcome::Mismatch);
        let mut tally = Tally::default();
        tally.record(outcome.ok(true));
        assert_eq!((tally.attempted, tally.failed), (1, 1));

        // Another version of the same key, or the same body under another
        // key, is a mismatch too: the stamp is part of the bytes.
        let stale = bodies.object(1, &stamp(0, 3, 8));
        assert_eq!(
            bodies.check(&Ok(Some(stale)), stored, &st),
            GetOutcome::Mismatch
        );
        let other_key = bodies.object(1, &stamp(0, 4, 9));
        assert_eq!(
            bodies.check(&Ok(Some(other_key)), stored, &st),
            GetOutcome::Mismatch
        );
        let short = exact.slice(..4095);
        assert_eq!(
            bodies.check(&Ok(Some(short)), stored, &st),
            GetOutcome::Mismatch
        );
    }

    #[test]
    fn misses_and_errors_follow_the_workload_rule() {
        let bodies = Bodies::generate(1, 0, 64);
        let st = stamp(0, 0, 0);
        let stored = Stored::Known {
            version: 0,
            body: 0,
        };
        let miss = bodies.check(&Ok(None), stored, &st);
        assert_eq!(miss, GetOutcome::Miss);
        assert!(miss.ok(true));
        assert!(!miss.ok(false));
        let err = bodies.check(&Err(ic_common::Error::Transport("x".into())), stored, &st);
        assert!(!err.ok(true));
    }

    #[test]
    fn payloads_are_a_function_of_the_seed() {
        let a = Bodies::generate(5, 1, 256);
        let b = Bodies::generate(5, 1, 256);
        let c = Bodies::generate(6, 1, 256);
        assert!(a.0 == b.0);
        assert!(a.0 != c.0);
    }
}
