//! The readiness event loop's thread-count property: a thousand idle
//! client connections leave the proxy's thread count exactly flat.
//!
//! This test must stay the only test in its binary. Its measurement,
//! `bench::proxy_thread_count`, counts every `ic-proxy*` thread in the
//! process, so a sibling test's proxy starting or shutting down mid-run
//! would change the count; and the horde holds up to a thousand sockets
//! against the process-wide fd limit that a sibling would share. Cargo
//! runs integration-test binaries one after another, so a binary of its
//! own gives the test the whole process at any `--test-threads`.

use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;
use ic_common::ProxyId;
use ic_lambda::runtime::RuntimeConfig;
use ic_net::bench;
use ic_net::node::NetNode;
use ic_net::proxy::{self, NetProxyConfig};
use ic_net::NetClient;

mod common;
use common::{deployment, raw_client};

/// The soft `RLIMIT_NOFILE` bound, used to size the idle-connection
/// horde to what this environment can actually hold open.
fn max_open_files() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024)
}

/// A thousand idle client connections must not grow the proxy's thread
/// count at all — readiness multiplexing, not thread-per-connection —
/// and a live operation must still work with the horde attached.
#[test]
fn idle_connection_horde_leaves_thread_count_flat() {
    let dep = deployment(4);
    let rt_cfg = RuntimeConfig::for_deployment(&dep);
    let handle = proxy::start(NetProxyConfig::loopback(dep.clone())).expect("proxy starts");
    let mut nodes = Vec::new();
    for lambda in dep.proxy_pool(ProxyId(0)) {
        nodes.push(
            NetNode::spawn(lambda, handle.node_addr, rt_cfg, Duration::from_secs(5)).unwrap(),
        );
    }
    let mut client = NetClient::connect(handle.client_addr, dep.ec, 7).expect("client connects");
    client
        .put("alive", Bytes::from(vec![7u8; 64 * 1024]))
        .unwrap();

    let before = bench::proxy_thread_count().expect("procfs thread count");
    assert!(
        before <= 1 + proxy::MAX_IO_WORKERS,
        "proxy runs {before} threads before any load"
    );

    // Each idle connection costs two fds (one per side) plus headroom
    // for the cluster itself; cap the horde to what the fd limit holds.
    let conns = 1000.min(max_open_files().saturating_sub(200) / 2);
    let horde: Vec<TcpStream> = (0..conns).map(|_| raw_client(handle.client_addr)).collect();
    assert!(horde.len() >= 100, "environment too small to mean anything");

    let after = bench::proxy_thread_count().expect("procfs thread count");
    assert_eq!(
        before,
        after,
        "{} idle connections changed the proxy thread count {before} -> {after}",
        horde.len()
    );

    // The proxy still serves real traffic with the horde attached.
    assert_eq!(
        client.get("alive").unwrap().expect("cached").len(),
        64 * 1024
    );

    drop(horde);
    drop(nodes);
    handle.shutdown();
}
