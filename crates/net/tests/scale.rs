//! Connection-scaling properties of the readiness event loop: a slow
//! reader is closed (backpressure) without harming its neighbours. The
//! thread-count-under-a-horde property lives alone in `tests/horde.rs`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_common::msg::Msg;
use ic_common::{ObjectKey, ProxyId};
use ic_lambda::runtime::RuntimeConfig;
use ic_net::node::NetNode;
use ic_net::proxy::{self, NetProxyConfig};
use ic_net::{Frame, NetClient};

mod common;
use common::{deployment, raw_client};

/// A client that floods GETs without ever reading the replies must be
/// closed once its unread backlog exceeds the configured bound — and
/// every other connection keeps working.
#[test]
fn slow_reader_is_closed_without_harming_neighbours() {
    let dep = deployment(4);
    let rt_cfg = RuntimeConfig::for_deployment(&dep);
    let cfg = NetProxyConfig {
        // Well above any single response burst (a GET of the 128 KiB
        // object streams ≈ 192 KiB), so healthy traffic never comes
        // close — but a client that keeps requesting without reading
        // accumulates responses past it within a handful of GETs.
        max_peer_backlog: 1024 * 1024,
        ..NetProxyConfig::loopback(dep.clone())
    };
    let handle = proxy::start(cfg).expect("proxy starts");
    let mut nodes = Vec::new();
    for lambda in dep.proxy_pool(ProxyId(0)) {
        nodes.push(
            NetNode::spawn(lambda, handle.node_addr, rt_cfg, Duration::from_secs(5)).unwrap(),
        );
    }

    let mut client = NetClient::connect(handle.client_addr, dep.ec, 7).expect("client connects");
    client
        .put("big", Bytes::from(vec![0xabu8; 128 * 1024]))
        .unwrap();

    // The slow reader: request the object over and over, never read a
    // byte back. The proxy's replies pile up in its per-connection write
    // queue until the backlog bound closes it — observable here as the
    // connection resetting under our writes.
    let mut slow = raw_client(handle.client_addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut closed = false;
    while Instant::now() < deadline {
        let frame = Frame::App {
            msg: Msg::GetObject {
                key: ObjectKey::new("big"),
            },
        };
        if frame.write_to(&mut slow).is_err() {
            closed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(closed, "slow reader was never disconnected");

    // Collateral check: the well-behaved client is unaffected, and so is
    // a fresh connection.
    assert_eq!(
        client.get("big").unwrap().expect("still cached").len(),
        128 * 1024
    );
    let mut fresh = NetClient::connect(handle.client_addr, dep.ec, 8).expect("fresh client");
    assert!(fresh.get("big").unwrap().is_some());

    drop(nodes);
    handle.shutdown();
}
