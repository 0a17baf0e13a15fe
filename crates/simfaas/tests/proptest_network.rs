//! Property tests for the fluid-flow network: conservation, fairness
//! bounds, byte accounting, completion under arbitrary flow mixes, and bit
//! equality with a reference copy of the original solver.

use ic_common::{SimDuration, SimTime};
use ic_simfaas::{FlowId, Network};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No link is ever oversubscribed and no flow exceeds its cap.
    #[test]
    fn rates_respect_links_and_caps(
        capacities in vec(1.0f64..1000.0, 1..6),
        flows in vec((0usize..6, 0usize..6, 1.0f64..1e6, proptest::option::of(1.0f64..500.0)), 1..24),
    ) {
        let mut net: Network<usize> = Network::new();
        let links: Vec<_> = capacities.iter().map(|&c| net.add_link(c)).collect();
        let mut ids = Vec::new();
        for (i, (a, b, bytes, cap)) in flows.iter().enumerate() {
            let mut path = vec![links[a % links.len()]];
            let second = links[b % links.len()];
            if second != path[0] {
                path.push(second);
            }
            ids.push((net.start_flow(SimTime::ZERO, *bytes, path.clone(), *cap, i), path, *cap));
        }
        // Per-flow cap respected.
        for (id, _, cap) in &ids {
            let rate = net.flow_rate(*id).unwrap();
            prop_assert!(rate >= 0.0);
            if let Some(c) = cap {
                prop_assert!(rate <= c * (1.0 + 1e-6), "rate {rate} > cap {c}");
            }
        }
        // Per-link conservation.
        for (li, &capacity) in capacities.iter().enumerate() {
            let used: f64 = ids
                .iter()
                .filter(|(_, path, _)| path.contains(&links[li]))
                .map(|(id, _, _)| net.flow_rate(*id).unwrap())
                .sum();
            prop_assert!(used <= capacity * (1.0 + 1e-6), "link {li}: {used} > {capacity}");
        }
    }

    /// Every flow eventually completes, delivered bytes add up, and
    /// completion times are non-decreasing as we drain.
    #[test]
    fn all_flows_complete_with_exact_byte_accounting(
        flows in vec((1.0f64..1e5, 1.0f64..300.0), 1..16),
    ) {
        let mut net: Network<usize> = Network::new();
        let link = net.add_link(500.0);
        let mut total = 0.0;
        for (i, (bytes, cap)) in flows.iter().enumerate() {
            net.start_flow(SimTime::ZERO, *bytes, vec![link], Some(*cap), i);
            total += bytes;
        }
        let mut now = SimTime::ZERO;
        let mut done = std::collections::HashSet::new();
        let mut guard = 0;
        while let Some((at, _epoch)) = net.next_completion(now) {
            prop_assert!(at >= now, "completions move forward");
            now = at;
            for (_, payload) in net.poll(now) {
                prop_assert!(done.insert(payload), "each flow completes once");
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert_eq!(done.len(), flows.len());
        prop_assert!((net.delivered_bytes() - total).abs() < 1.0,
                     "delivered {} of {}", net.delivered_bytes(), total);
        prop_assert_eq!(net.active_flows(), 0);
    }

    /// Max–min fairness: two uncapped flows sharing exactly the same path
    /// always get the same rate.
    #[test]
    fn equal_flows_get_equal_rates(
        capacity in 10.0f64..1e4,
        others in vec(1.0f64..100.0, 0..8),
    ) {
        let mut net: Network<u8> = Network::new();
        let l = net.add_link(capacity);
        let a = net.start_flow(SimTime::ZERO, 1e6, vec![l], None, 0);
        let b = net.start_flow(SimTime::ZERO, 1e6, vec![l], None, 1);
        for (i, cap) in others.iter().enumerate() {
            net.start_flow(SimTime::ZERO, 1e6, vec![l], Some(*cap), 2 + i as u8);
        }
        let ra = net.flow_rate(a).unwrap();
        let rb = net.flow_rate(b).unwrap();
        prop_assert!((ra - rb).abs() < 1e-6 * ra.max(1.0), "{ra} vs {rb}");
    }
}

/// The progressive-filling solver as it stood before the dense flow store:
/// flows in a `BTreeMap`, every link scanned on every round, fresh scratch
/// vectors per solve. Kept as the bit-exact oracle the production
/// [`Network`] must reproduce.
mod reference {
    use std::collections::BTreeMap;

    use ic_common::{SimDuration, SimTime};

    const COMPLETION_EPSILON: f64 = 1e-3;

    struct Flow {
        path: Vec<usize>,
        cap: Option<f64>,
        remaining: f64,
        rate: f64,
        payload: usize,
    }

    pub struct RefNetwork {
        links: Vec<f64>,
        flows: BTreeMap<u64, Flow>,
        next_flow: u64,
        pub epoch: u64,
        settled_at: SimTime,
        pub delivered_bytes: f64,
    }

    impl RefNetwork {
        pub fn new(links: Vec<f64>) -> Self {
            RefNetwork {
                links,
                flows: BTreeMap::new(),
                next_flow: 0,
                epoch: 0,
                settled_at: SimTime::ZERO,
                delivered_bytes: 0.0,
            }
        }

        pub fn active_flows(&self) -> usize {
            self.flows.len()
        }

        pub fn start_flow(
            &mut self,
            now: SimTime,
            bytes: f64,
            path: Vec<usize>,
            cap: Option<f64>,
            payload: usize,
        ) -> u64 {
            self.settle(now);
            let id = self.next_flow;
            self.next_flow += 1;
            self.flows.insert(
                id,
                Flow {
                    path,
                    cap,
                    remaining: bytes,
                    rate: 0.0,
                    payload,
                },
            );
            self.recompute();
            id
        }

        pub fn cancel(&mut self, now: SimTime, id: u64) -> Option<usize> {
            self.settle(now);
            let flow = self.flows.remove(&id)?;
            self.recompute();
            Some(flow.payload)
        }

        pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, u64)> {
            let mut best: Option<f64> = None;
            for f in self.flows.values() {
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
                (at.max(now + SimDuration::from_micros(1)), self.epoch)
            })
        }

        pub fn poll(&mut self, now: SimTime) -> Vec<(u64, usize)> {
            self.settle(now);
            let done: Vec<u64> = self
                .flows
                .iter()
                .filter(|(_, f)| f.remaining <= COMPLETION_EPSILON)
                .map(|(&id, _)| id)
                .collect();
            let mut out = Vec::with_capacity(done.len());
            for id in done {
                let f = self.flows.remove(&id).expect("listed above");
                out.push((id, f.payload));
            }
            if !out.is_empty() {
                self.recompute();
            }
            out
        }

        pub fn flow_rate(&self, id: u64) -> Option<f64> {
            self.flows.get(&id).map(|f| f.rate)
        }

        fn settle(&mut self, now: SimTime) {
            let dt = (now - self.settled_at).as_secs_f64();
            if dt > 0.0 {
                for f in self.flows.values_mut() {
                    if f.rate > 0.0 {
                        let moved = (f.rate * dt).min(f.remaining);
                        f.remaining -= moved;
                        self.delivered_bytes += moved;
                    }
                }
            }
            self.settled_at = self.settled_at.max(now);
        }

        fn recompute(&mut self) {
            self.epoch += 1;
            if self.flows.is_empty() {
                return;
            }
            let mut link_remaining: Vec<f64> = self.links.clone();
            let mut link_users: Vec<u32> = vec![0; self.links.len()];
            let mut unfrozen: Vec<u64> = self.flows.keys().copied().collect();
            for f in self.flows.values() {
                for &l in &f.path {
                    link_users[l] += 1;
                }
            }
            while !unfrozen.is_empty() {
                let mut level = f64::INFINITY;
                for (li, &users) in link_users.iter().enumerate() {
                    if users > 0 {
                        level = level.min(link_remaining[li].max(0.0) / users as f64);
                    }
                }
                for id in &unfrozen {
                    if let Some(c) = self.flows[id].cap {
                        level = level.min(c);
                    }
                }
                let mut next_unfrozen = Vec::with_capacity(unfrozen.len());
                let mut froze_any = false;
                for id in unfrozen {
                    let constrained_by_cap = self.flows[&id]
                        .cap
                        .is_some_and(|c| c <= level * (1.0 + 1e-9));
                    let constrained_by_link = self.flows[&id].path.iter().any(|&l| {
                        link_remaining[l].max(0.0) / link_users[l] as f64 <= level * (1.0 + 1e-9)
                    });
                    if constrained_by_cap || constrained_by_link {
                        let rate = if constrained_by_cap {
                            self.flows[&id].cap.expect("cap-constrained")
                        } else {
                            level
                        }
                        .min(level);
                        let f = self.flows.get_mut(&id).expect("flow exists");
                        f.rate = rate;
                        for &l in &f.path {
                            link_remaining[l] -= rate;
                            link_users[l] -= 1;
                        }
                        froze_any = true;
                    } else {
                        next_unfrozen.push(id);
                    }
                }
                if !froze_any {
                    for id in &next_unfrozen {
                        self.flows.get_mut(id).expect("flow exists").rate = level;
                    }
                    break;
                }
                unfrozen = next_unfrozen;
            }
        }
    }
}

/// Link capacities: a few shared round values (so fair shares tie across
/// links) mixed with arbitrary ones.
fn capacity(pick: usize, raw: f64) -> f64 {
    match pick % 4 {
        0 => 100.0,
        1 => 250.0,
        2 => 1_000.0,
        _ => raw,
    }
}

/// Asserts that `net` and the oracle agree bit for bit on everything the
/// network exposes at `now`.
fn assert_matches(
    net: &Network<usize>,
    oracle: &reference::RefNetwork,
    ids: &[FlowId],
    now: SimTime,
    step: usize,
) {
    assert_eq!(net.epoch(), oracle.epoch, "epoch after step {step}");
    assert_eq!(net.active_flows(), oracle.active_flows(), "step {step}");
    assert_eq!(
        net.delivered_bytes().to_bits(),
        oracle.delivered_bytes.to_bits(),
        "delivered bytes after step {step}"
    );
    assert_eq!(
        net.next_completion(now),
        oracle.next_completion(now),
        "next completion after step {step}"
    );
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            net.flow_rate(id).map(f64::to_bits),
            oracle.flow_rate(i as u64).map(f64::to_bits),
            "rate of flow {i} after step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random start/poll/cancel sequences give bit-identical rates,
    /// completion times, epochs and completion order to the reference
    /// solver. Paths repeat links and share them; caps are absent,
    /// arbitrary, or drawn at (or within 1e-9 of) a link's fair share so
    /// the freeze tolerance fires.
    #[test]
    fn solver_is_bit_identical_to_the_reference(
        links in vec((0usize..4, 1.0f64..2_000.0), 1..41),
        ops in vec(
            ((0u8..10, 0usize..4, 0usize..64, 0usize..64), (0u8..8, 0usize..8, 1.0f64..1e5)),
            1..120,
        ),
    ) {
        let capacities: Vec<f64> =
            links.iter().map(|&(pick, raw)| capacity(pick, raw)).collect();
        let mut net: Network<usize> = Network::new();
        let link_ids: Vec<_> = capacities.iter().map(|&c| net.add_link(c)).collect();
        let mut oracle = reference::RefNetwork::new(capacities.clone());
        let mut ids: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        let n = capacities.len();
        // Links 0..hot are crossed far more often, so paths share them.
        let hot = n.min(3);
        for (step, ((kind, len, a, b), (cap_mode, k, x))) in ops.into_iter().enumerate() {
            match kind {
                0..=4 => {
                    let path: Vec<usize> = (0..len)
                        .map(|j| if j % 2 == 0 { (a + j / 2) % hot } else { (a + b * j) % n })
                        .collect();
                    let share_link = path.first().copied().unwrap_or(b % n);
                    let share = capacities[share_link] / (1 + k) as f64;
                    let cap = match cap_mode {
                        0..=2 if !path.is_empty() => None,
                        0..=3 => Some(x / 100.0),
                        4 => Some(share),
                        5 => Some(share * (1.0 + 1e-9)),
                        6 => Some(share * (1.0 + 5e-10)),
                        _ => Some(share * (1.0 - 5e-10)),
                    };
                    let payload = ids.len();
                    let link_path = path.iter().map(|&l| link_ids[l]).collect();
                    ids.push(net.start_flow(now, x, link_path, cap, payload));
                    let oid = oracle.start_flow(now, x, path, cap, payload);
                    prop_assert_eq!(oid as usize, payload);
                }
                5..=8 => {
                    // Either an arbitrary instant or the next completion,
                    // which is where the event loop polls.
                    now = if kind <= 6 {
                        now + SimDuration::from_micros((x as u64) % 5_000_000)
                    } else {
                        net.next_completion(now).map_or(now, |(at, _)| at)
                    };
                    let want: Vec<(FlowId, usize)> = oracle
                        .poll(now)
                        .into_iter()
                        .map(|(id, p)| (ids[id as usize], p))
                        .collect();
                    prop_assert_eq!(net.poll(now), want, "poll at step {}", step);
                }
                _ => {
                    if !ids.is_empty() {
                        let victim = a % ids.len();
                        prop_assert_eq!(
                            net.cancel(now, ids[victim]),
                            oracle.cancel(now, victim as u64),
                            "cancel at step {}", step
                        );
                    }
                }
            }
            assert_matches(&net, &oracle, &ids, now, step);
        }
    }
}
