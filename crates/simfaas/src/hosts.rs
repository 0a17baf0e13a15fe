//! VM hosts and function placement.
//!
//! §3.1: "AWS seems to provision Lambda functions on the smallest possible
//! number of VMs using a greedy binpacking heuristic", hosts have
//! "approximately 3 GB memory", and a host is never shared across tenants.
//! We model placement as best-fit-decreasing-free-space: a new instance
//! lands on the fittable host with the *least* free memory, so the packing
//! uses as few hosts as possible — which is precisely what creates the
//! uplink contention that Fig 4 measures and the ≥1.5 GB exclusive-host
//! remedy exploits.

use crate::network::{LinkId, Network};

/// Identifies one VM host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(usize);

/// Host-fleet parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostConfig {
    /// Host memory available to function instances, in MB.
    pub memory_mb: u32,
    /// Host uplink capacity shared by all co-located instances, bytes/sec.
    pub uplink_bytes_per_sec: f64,
}

impl HostConfig {
    /// The configuration inferred from the paper: ~3 GB hosts whose NIC
    /// roughly matches the largest single function's observed 160 MB/s.
    pub fn aws_like() -> Self {
        HostConfig {
            memory_mb: 3_008,
            uplink_bytes_per_sec: 170.0e6,
        }
    }
}

#[derive(Clone, Debug)]
struct Host {
    free_mb: u32,
    residents: u32,
    link: LinkId,
}

/// The host fleet: placement, release, and occupancy accounting.
#[derive(Clone, Debug)]
pub struct HostPool {
    cfg: HostConfig,
    hosts: Vec<Host>,
}

impl HostPool {
    /// Creates an empty pool; hosts materialize on demand.
    pub fn new(cfg: HostConfig) -> Self {
        HostPool {
            cfg,
            hosts: Vec::new(),
        }
    }

    /// The pool's host configuration.
    pub fn config(&self) -> HostConfig {
        self.cfg
    }

    /// Places a `mem_mb` instance: best-fit on existing hosts, else a new
    /// host (whose uplink is registered with the network).
    ///
    /// # Panics
    ///
    /// Panics if a single instance exceeds host memory.
    pub fn place<T>(&mut self, net: &mut Network<T>, mem_mb: u32) -> HostId {
        assert!(
            mem_mb <= self.cfg.memory_mb,
            "a {mem_mb} MB function cannot fit a {} MB host",
            self.cfg.memory_mb
        );
        let mut best: Option<(usize, u32)> = None; // (idx, free after placement)
        for (i, h) in self.hosts.iter().enumerate() {
            if h.free_mb >= mem_mb {
                let left = h.free_mb - mem_mb;
                if best.is_none_or(|(_, b)| left < b) {
                    best = Some((i, left));
                }
            }
        }
        let idx = match best {
            Some((i, _)) => i,
            None => {
                let link = net.add_link(self.cfg.uplink_bytes_per_sec);
                self.hosts.push(Host {
                    free_mb: self.cfg.memory_mb,
                    residents: 0,
                    link,
                });
                self.hosts.len() - 1
            }
        };
        let h = &mut self.hosts[idx];
        h.free_mb -= mem_mb;
        h.residents += 1;
        HostId(idx)
    }

    /// Releases an instance's memory back to its host.
    ///
    /// # Panics
    ///
    /// Panics if the host has no residents (double release).
    pub fn release(&mut self, host: HostId, mem_mb: u32) {
        let h = &mut self.hosts[host.0];
        assert!(h.residents > 0, "release on an empty host");
        h.residents -= 1;
        h.free_mb += mem_mb;
        debug_assert!(h.free_mb <= self.cfg.memory_mb);
    }

    /// The shared uplink of a host.
    pub fn uplink(&self, host: HostId) -> LinkId {
        self.hosts[host.0].link
    }

    /// Number of instances on a host.
    pub fn residents(&self, host: HostId) -> u32 {
        self.hosts[host.0].residents
    }

    /// Hosts currently running at least one instance.
    pub fn hosts_in_use(&self) -> usize {
        self.hosts.iter().filter(|h| h.residents > 0).count()
    }

    /// Total hosts ever materialized.
    pub fn hosts_allocated(&self) -> usize {
        self.hosts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_and_net() -> (HostPool, Network<()>) {
        (HostPool::new(HostConfig::aws_like()), Network::new())
    }

    #[test]
    fn packing_minimizes_hosts() {
        let (mut pool, mut net) = pool_and_net();
        // Eleven 256 MB functions fit one 3008 MB host.
        let hosts: Vec<HostId> = (0..11).map(|_| pool.place(&mut net, 256)).collect();
        assert!(hosts.iter().all(|&h| h == hosts[0]));
        assert_eq!(pool.hosts_in_use(), 1);
        // The twelfth spills to a second host.
        let h12 = pool.place(&mut net, 256);
        assert_ne!(h12, hosts[0]);
        assert_eq!(pool.hosts_in_use(), 2);
    }

    #[test]
    fn big_functions_get_exclusive_hosts() {
        // §3.1: with >= 1.5 GB functions every host is exclusive.
        let (mut pool, mut net) = pool_and_net();
        let a = pool.place(&mut net, 1_536);
        let b = pool.place(&mut net, 1_536);
        assert_ne!(a, b);
        assert_eq!(pool.residents(a), 1);
        assert_eq!(pool.residents(b), 1);
    }

    #[test]
    fn release_makes_room_for_reuse() {
        let (mut pool, mut net) = pool_and_net();
        let a = pool.place(&mut net, 2_048);
        pool.release(a, 2_048);
        assert_eq!(pool.hosts_in_use(), 0);
        let b = pool.place(&mut net, 2_048);
        assert_eq!(a, b, "freed host is refilled before new ones open");
        assert_eq!(pool.hosts_allocated(), 1);
    }

    #[test]
    fn best_fit_prefers_fuller_host() {
        let (mut pool, mut net) = pool_and_net();
        let a = pool.place(&mut net, 2_048); // host A: 960 free
        let _ = pool.place(&mut net, 2_048); // host B: 960 free
        pool.release(a, 2_048);
        let c = pool.place(&mut net, 512); // host A: 2496 free -> B is fuller
        assert_ne!(c, a, "best-fit must choose the fuller host");
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_function_is_rejected() {
        let (mut pool, mut net) = pool_and_net();
        pool.place(&mut net, 4_096);
    }

    #[test]
    fn uplinks_are_distinct_per_host() {
        let (mut pool, mut net) = pool_and_net();
        let a = pool.place(&mut net, 1_536);
        let b = pool.place(&mut net, 1_536);
        assert_ne!(pool.uplink(a), pool.uplink(b));
    }
}
