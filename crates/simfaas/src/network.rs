//! Fluid-flow network model with max–min fair sharing.
//!
//! Bulk transfers (chunk streams, backup deltas) are *flows* over a path of
//! one or two shared links (the sender's host uplink and the receiver's
//! NIC), optionally with a per-flow rate cap (a function's memory-dependent
//! bandwidth, or an S3 connection's per-stream throughput). Whenever a flow
//! starts or finishes, every flow's progress is settled at the current
//! instant and rates are recomputed with the classic progressive-filling
//! (water-filling) algorithm. Between changes rates are constant, so
//! completions are exact.
//!
//! The event-loop contract: after any mutation, the owner re-reads
//! [`Network::next_completion`] and schedules a single timer carrying the
//! returned epoch. Timers from older epochs are stale and must be ignored;
//! on a fresh timer the owner calls [`Network::poll`] to collect finished
//! flows.
//!
//! # Determinism
//!
//! Rates are a pure function of the live flows and their order, down to
//! the bit. Flows are stored and visited in ascending flow-id order (the
//! order they started). Each progressive-filling round first finds the
//! bottleneck level, then freezes flows one at a time in id order: a flow
//! frozen later in the round sees its links' remaining capacity and user
//! counts already reduced by the flows frozen before it. A path that
//! lists a link twice counts as two users of it. Only the `min`
//! reductions that find the level are order-free, so the same sequence of
//! calls yields bit-identical rates, completion times and epochs.
//!
//! # Cost
//!
//! One solve costs rounds × (links in use + live flows), where "links in
//! use" are the links some live flow crosses, not every link ever added
//! (host uplinks are never freed). A solve allocates nothing: its
//! per-link and per-flow scratch lives in the [`Network`] and only the
//! entries it touched are reset.

use ic_common::{SimDuration, SimTime};

/// Bytes of slack under which a flow counts as finished (guards float
/// rounding).
const COMPLETION_EPSILON: f64 = 1e-3;

/// Identifies a shared link (host uplink, client NIC...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(usize);

/// Identifies one active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

#[derive(Clone, Debug)]
struct Flow<T> {
    id: u64,
    path: Vec<LinkId>,
    cap: Option<f64>,
    remaining: f64,
    rate: f64,
    payload: T,
}

impl<T> Flow<T> {
    /// Advances this flow by `dt` seconds at its current rate.
    fn settle(&mut self, dt: f64, delivered: &mut f64) {
        if dt > 0.0 && self.rate > 0.0 {
            let moved = (self.rate * dt).min(self.remaining);
            self.remaining -= moved;
            *delivered += moved;
        }
    }
}

/// Reusable working state of [`Network::recompute`]. Between solves every
/// `link_users` entry is 0 and both lists are empty.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Capacity not yet handed to frozen flows, per link; valid only for
    /// links in `active_links`.
    link_remaining: Vec<f64>,
    /// Unfrozen flows crossing each link (a repeated path entry counts
    /// twice).
    link_users: Vec<u32>,
    /// Links that still have unfrozen users.
    active_links: Vec<usize>,
    /// Indices into `flows` of the unfrozen flows, ascending.
    unfrozen: Vec<usize>,
}

/// The network: links, flows, and the fair-share rate assignment.
///
/// Generic over a per-flow payload `T` handed back on completion (the
/// owning event loop stores whatever routing context it needs there).
#[derive(Clone, Debug)]
pub struct Network<T> {
    /// Capacity in bytes/sec, indexed by [`LinkId`].
    capacity: Vec<f64>,
    /// In-flight flows, in ascending id order.
    flows: Vec<Flow<T>>,
    next_flow: u64,
    epoch: u64,
    settled_at: SimTime,
    /// Total bytes ever moved to completion (for throughput reporting).
    delivered_bytes: f64,
    scratch: Scratch,
}

impl<T> Network<T> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            capacity: Vec::new(),
            flows: Vec::new(),
            next_flow: 0,
            epoch: 0,
            settled_at: SimTime::ZERO,
            delivered_bytes: 0.0,
            scratch: Scratch::default(),
        }
    }

    /// Adds a link of `bytes_per_sec` capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive and finite.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> LinkId {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        self.capacity.push(bytes_per_sec);
        self.scratch.link_remaining.push(0.0);
        self.scratch.link_users.push(0);
        LinkId(self.capacity.len() - 1)
    }

    /// Current epoch; bumped on every rate change. Completion timers carry
    /// the epoch they were scheduled under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered by completed flows so far.
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered_bytes
    }

    /// Feeds the protocol-relevant in-flight flow state into a state
    /// fingerprint: each flow's path and payload, in flow-id order.
    ///
    /// Timing state — remaining bytes, rates, epochs — is deliberately
    /// excluded: under the model checker's scheduler a flow's completion
    /// is an explicit delivery choice, so two states differing only in
    /// how far their flows have drained are protocol-equivalent.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher)
    where
        T: std::fmt::Debug,
    {
        use std::hash::Hash;
        self.flows.len().hash(h);
        for flow in &self.flows {
            for link in &flow.path {
                link.0.hash(h);
            }
            ic_common::hash::hash_debug(&flow.payload, h);
        }
    }

    /// Starts a flow of `bytes` over `path`, optionally rate-capped.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not positive, a link id is unknown, or the flow
    /// has neither a path nor a cap (it would be infinitely fast).
    pub fn start_flow(
        &mut self,
        now: SimTime,
        bytes: f64,
        path: Vec<LinkId>,
        cap: Option<f64>,
        payload: T,
    ) -> FlowId {
        assert!(bytes > 0.0, "flow must carry bytes");
        assert!(
            !path.is_empty() || cap.is_some(),
            "flow needs at least one link or a rate cap"
        );
        for l in &path {
            assert!(l.0 < self.capacity.len(), "unknown link {l:?}");
        }
        if let Some(c) = cap {
            assert!(c.is_finite() && c > 0.0, "flow cap must be positive");
        }
        self.settle(now);
        let id = self.next_flow;
        self.next_flow += 1;
        // Ids only grow, so pushing keeps `flows` in id order.
        self.flows.push(Flow {
            id,
            path,
            cap,
            remaining: bytes,
            rate: 0.0,
            payload,
        });
        self.recompute();
        FlowId(id)
    }

    /// Aborts a flow (e.g. a straggler chunk the proxy stops caring about),
    /// returning its payload if it was still active.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<T> {
        self.settle(now);
        let idx = self.index_of(id)?;
        let flow = self.flows.remove(idx);
        self.recompute();
        Some(flow.payload)
    }

    /// Earliest pending completion as `(time, epoch)`, if any flow is
    /// active. Schedule exactly one timer for it; older timers are stale.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, u64)> {
        let mut best: Option<f64> = None;
        for f in &self.flows {
            if f.rate <= 0.0 {
                continue;
            }
            let secs = (f.remaining / f.rate).max(0.0);
            best = Some(match best {
                Some(b) => b.min(secs),
                None => secs,
            });
        }
        best.map(|secs| {
            let at = now + SimDuration::from_secs_f64(secs);
            // Never schedule exactly "now" twice in a row; nudge 1 µs.
            (at.max(now + SimDuration::from_micros(1)), self.epoch)
        })
    }

    /// Settles progress to `now` and returns every finished flow's payload,
    /// in id order. Recomputes rates if anything finished.
    pub fn poll(&mut self, now: SimTime) -> Vec<(FlowId, T)> {
        let dt = self.advance_clock(now);
        let delivered = &mut self.delivered_bytes;
        let out: Vec<(FlowId, T)> = self
            .flows
            .extract_if(.., |f| {
                f.settle(dt, delivered);
                f.remaining <= COMPLETION_EPSILON
            })
            .map(|f| (FlowId(f.id), f.payload))
            .collect();
        if !out.is_empty() {
            self.recompute();
        }
        out
    }

    /// Moves the settle clock to `now`, returning the seconds elapsed
    /// since the last settle (0 if `now` is not later).
    fn advance_clock(&mut self, now: SimTime) -> f64 {
        let dt = (now - self.settled_at).as_secs_f64();
        self.settled_at = self.settled_at.max(now);
        dt
    }

    /// Advances every flow's remaining bytes to `now` at current rates.
    fn settle(&mut self, now: SimTime) {
        let dt = self.advance_clock(now);
        for f in &mut self.flows {
            f.settle(dt, &mut self.delivered_bytes);
        }
    }

    /// Position of flow `id` in `flows`, if it is still active.
    fn index_of(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id.0, |f| f.id).ok()
    }

    /// Max–min fair rate assignment (progressive filling) with per-flow
    /// caps. See the module docs for the determinism contract and cost.
    fn recompute(&mut self) {
        self.epoch += 1;
        let Network {
            capacity,
            flows,
            scratch,
            ..
        } = self;
        let Scratch {
            link_remaining,
            link_users,
            active_links,
            unfrozen,
        } = scratch;
        // Count users per link, listing each link in use once.
        for f in flows.iter() {
            for l in &f.path {
                if link_users[l.0] == 0 {
                    link_remaining[l.0] = capacity[l.0];
                    active_links.push(l.0);
                }
                link_users[l.0] += 1;
            }
        }
        unfrozen.extend(0..flows.len());

        while !unfrozen.is_empty() {
            // Bottleneck level: the smallest of (a) per-link fair share,
            // (b) any unfrozen flow's cap. Links left without unfrozen
            // users never regain any, so they drop out of the scan.
            let mut level = f64::INFINITY;
            active_links.retain(|&li| {
                let users = link_users[li];
                if users == 0 {
                    return false;
                }
                level = level.min(link_remaining[li].max(0.0) / users as f64);
                true
            });
            for &fi in unfrozen.iter() {
                if let Some(c) = flows[fi].cap {
                    level = level.min(c);
                }
            }
            debug_assert!(level.is_finite(), "no constraint on some flow");

            // Freeze every flow constrained at this level, in id order.
            let before = unfrozen.len();
            unfrozen.retain(|&fi| {
                let f = &mut flows[fi];
                let constrained_by_cap = f.cap.is_some_and(|c| c <= level * (1.0 + 1e-9));
                let constrained_by_link = f.path.iter().any(|l| {
                    link_remaining[l.0].max(0.0) / link_users[l.0] as f64 <= level * (1.0 + 1e-9)
                });
                if !(constrained_by_cap || constrained_by_link) {
                    return true;
                }
                let rate = if constrained_by_cap {
                    f.cap.expect("cap-constrained")
                } else {
                    level
                }
                .min(level);
                f.rate = rate;
                for l in &f.path {
                    link_remaining[l.0] -= rate;
                    link_users[l.0] -= 1;
                }
                false
            });
            let froze_any = unfrozen.len() < before;
            debug_assert!(froze_any, "progressive filling must make progress");
            if !froze_any {
                // Defensive: freeze everything at the level to avoid a spin.
                for &fi in unfrozen.iter() {
                    flows[fi].rate = level;
                }
                break;
            }
        }

        // Leave the scratch clean for the next solve.
        for &li in active_links.iter() {
            link_users[li] = 0;
        }
        active_links.clear();
        unfrozen.clear();
    }

    /// The current rate of a flow in bytes/sec (testing/inspection).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.index_of(id).map(|i| self.flows[i].rate)
    }
}

impl<T> Default for Network<T> {
    fn default() -> Self {
        Network::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut Network<&'static str>, mut now: SimTime) -> Vec<(SimTime, &'static str)> {
        let mut out = Vec::new();
        while let Some((at, _epoch)) = net.next_completion(now) {
            now = at;
            for (_, p) in net.poll(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        let mut net = Network::new();
        let l = net.add_link(100.0); // 100 B/s
        net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "a");
        let done = drain(&mut net, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        // 1000 B / 100 B/s = 10 s.
        assert!((done[0].0.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        let a = net.start_flow(SimTime::ZERO, 500.0, vec![l], None, "a");
        let b = net.start_flow(SimTime::ZERO, 500.0, vec![l], None, "b");
        assert!((net.flow_rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 50.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        // Both finish at 10 s (500 B at 50 B/s).
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn finished_flow_releases_bandwidth() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 100.0, vec![l], None, "short");
        net.start_flow(SimTime::ZERO, 500.0, vec![l], None, "long");
        let done = drain(&mut net, SimTime::ZERO);
        // short: 100 B at 50 B/s = 2 s. long: 100 B by 2 s, remaining 400 B
        // at full 100 B/s = 4 more seconds => 6 s total.
        assert_eq!(done[0], (SimTime::from_secs(2), "short"));
        assert!((done[1].0.as_secs_f64() - 6.0).abs() < 1e-3);
    }

    #[test]
    fn per_flow_cap_binds_before_link() {
        let mut net = Network::new();
        let l = net.add_link(1_000.0);
        let a = net.start_flow(SimTime::ZERO, 100.0, vec![l], Some(10.0), "capped");
        let b = net.start_flow(SimTime::ZERO, 100.0, vec![l], None, "free");
        assert!((net.flow_rate(a).unwrap() - 10.0).abs() < 1e-9);
        // The free flow gets the rest of the link.
        assert!((net.flow_rate(b).unwrap() - 990.0).abs() < 1e-6);
    }

    #[test]
    fn two_link_path_takes_the_tighter_bottleneck() {
        let mut net = Network::new();
        let narrow = net.add_link(10.0);
        let wide = net.add_link(1_000.0);
        let f = net.start_flow(SimTime::ZERO, 100.0, vec![narrow, wide], None, "x");
        assert!((net.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_is_water_filling_not_proportional() {
        // Three flows: two on link A (cap 90), one of which also crosses
        // link B (cap 30). Water-filling: the A+B flow is limited to 30,
        // leaving 60 for the A-only flow.
        let mut net = Network::new();
        let a = net.add_link(90.0);
        let b = net.add_link(30.0);
        let fa = net.start_flow(SimTime::ZERO, 1e6, vec![a], None, "a-only");
        let fab = net.start_flow(SimTime::ZERO, 1e6, vec![a, b], None, "a+b");
        assert!((net.flow_rate(fab).unwrap() - 30.0).abs() < 1e-6);
        assert!((net.flow_rate(fa).unwrap() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn cancel_frees_capacity_and_returns_payload() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        let a = net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "victim");
        let b = net.start_flow(SimTime::ZERO, 100.0, vec![l], None, "kept");
        assert_eq!(net.cancel(SimTime::ZERO, a), Some("victim"));
        assert!((net.flow_rate(b).unwrap() - 100.0).abs() < 1e-9);
        assert!(net.cancel(SimTime::ZERO, a).is_none());
    }

    #[test]
    fn epochs_invalidate_stale_timers() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "a");
        let (_, epoch1) = net.next_completion(SimTime::ZERO).unwrap();
        net.start_flow(SimTime::ZERO, 10.0, vec![l], None, "b");
        let (_, epoch2) = net.next_completion(SimTime::ZERO).unwrap();
        assert_ne!(epoch1, epoch2, "rate change must bump the epoch");
        assert_eq!(net.epoch(), epoch2);
    }

    #[test]
    fn poll_before_completion_returns_nothing() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "a");
        assert!(net.poll(SimTime::from_secs(5)).is_empty());
        assert_eq!(net.active_flows(), 1);
        assert!(!net.poll(SimTime::from_secs(10)).is_empty());
        assert!((net.delivered_bytes() - 1_000.0).abs() < 1e-3);
    }

    #[test]
    fn capped_pathless_flow_completes() {
        // S3-style flow: no shared link, only a per-connection cap.
        let mut net = Network::new();
        net.start_flow(SimTime::ZERO, 300.0, vec![], Some(100.0), "s3");
        let done = drain(&mut net, SimTime::ZERO);
        assert!((done[0].0.as_secs_f64() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn many_flows_conserve_link_capacity() {
        let mut net = Network::new();
        let l = net.add_link(1_000.0);
        let ids: Vec<FlowId> = (0..25)
            .map(|_| net.start_flow(SimTime::ZERO, 1e6, vec![l], None, "f"))
            .collect();
        let total: f64 = ids.iter().map(|&id| net.flow_rate(id).unwrap()).sum();
        assert!((total - 1_000.0).abs() < 1e-6, "sum of rates {total}");
    }

    #[test]
    fn a_link_listed_twice_counts_as_two_users() {
        let mut net = Network::new();
        let l = net.add_link(90.0);
        let twice = net.start_flow(SimTime::ZERO, 1e6, vec![l, l], None, "twice");
        assert_eq!(net.flow_rate(twice), Some(45.0));
        let once = net.start_flow(SimTime::ZERO, 1e6, vec![l], None, "once");
        // Three users share 90: the doubled flow freezes at 30 and is
        // charged twice, leaving 30 for the other.
        assert_eq!(net.flow_rate(twice), Some(30.0));
        assert_eq!(net.flow_rate(once), Some(30.0));
    }

    #[test]
    fn completing_middle_flows_leaves_the_same_fingerprint_as_a_fresh_network() {
        use std::hash::{DefaultHasher, Hasher};
        fn fingerprint(net: &Network<&'static str>) -> u64 {
            let mut h = DefaultHasher::new();
            net.fingerprint(&mut h);
            h.finish()
        }

        let mut net = Network::new();
        let a = net.add_link(100.0);
        let b = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 1e6, vec![a], None, "long-1");
        net.start_flow(SimTime::ZERO, 10.0, vec![a, b], None, "short-1");
        net.start_flow(SimTime::ZERO, 1e6, vec![b], None, "long-2");
        net.start_flow(SimTime::ZERO, 10.0, vec![b], None, "short-2");
        net.start_flow(SimTime::ZERO, 1e6, vec![a, b], None, "long-3");
        let (at, _) = net
            .next_completion(SimTime::ZERO)
            .expect("flows are active");
        let done: Vec<_> = net.poll(at).into_iter().map(|(_, p)| p).collect();
        assert_eq!(done, ["short-1", "short-2"]);

        let mut fresh = Network::new();
        let fa = fresh.add_link(100.0);
        let fb = fresh.add_link(100.0);
        fresh.start_flow(SimTime::ZERO, 1e6, vec![fa], None, "long-1");
        fresh.start_flow(SimTime::ZERO, 1e6, vec![fb], None, "long-2");
        fresh.start_flow(SimTime::ZERO, 1e6, vec![fa, fb], None, "long-3");
        assert_eq!(fingerprint(&net), fingerprint(&fresh));
    }

    #[test]
    fn cancel_of_a_finished_flow_returns_none() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        let done = net.start_flow(SimTime::ZERO, 100.0, vec![l], None, "done");
        let kept = net.start_flow(SimTime::ZERO, 1e6, vec![l], None, "kept");
        let (at, _) = net
            .next_completion(SimTime::ZERO)
            .expect("flows are active");
        assert_eq!(net.poll(at), vec![(done, "done")]);
        let epoch = net.epoch();
        assert_eq!(net.cancel(at, done), None);
        assert_eq!(net.epoch(), epoch, "a no-op cancel must not bump the epoch");
        assert_eq!(net.flow_rate(kept), Some(100.0));
    }
}
