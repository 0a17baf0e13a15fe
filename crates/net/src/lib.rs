//! # ic-net: the real-socket TCP substrate
//!
//! InfiniCache is a networked system: the client library speaks to a
//! proxy over TCP, and the proxy holds long-lived connections to its
//! Lambda pool (Fig 6 of the paper). This crate carries the reproduction
//! across the process boundary — the real-bytes execution substrate next
//! to the discrete-event simulator:
//!
//! * [`wire`] — the socket-level frame vocabulary (handshakes, invokes,
//!   instance-addressed delivery) over the shared length-prefixed codec
//!   in [`ic_common::frame`];
//! * [`node`] — [`node::NetNode`], the emulated Lambda node daemon: one
//!   process per logical node, hosting its [`ic_lambda::Runtime`]
//!   instances on real 100 ms billing cycles (through the crate-private
//!   `NodeHost` core); killing the process is a provider reclaim;
//! * [`proxy`] — the socket-backed proxy: a readiness event loop (a
//!   small pool of I/O shard threads over the workspace [`polling`]
//!   shim, **O(workers), never O(connections)**) owning all client and
//!   node sockets nonblocking, plus one protocol thread running the same
//!   [`ic_proxy::Proxy`] state machine the simulator drives; a
//!   deployment runs one instance per [`ic_common::ProxyId`], each
//!   owning its disjoint slice of the node-id space;
//! * [`client`] — [`client::NetClient`], a synchronous client facade
//!   (erasure coding on the client, §3.1) over one TCP connection per
//!   proxy — all multiplexed on a single poller inside the calling
//!   thread, no background threads — ring-routing keys across the fleet
//!   with per-connection framing state and failure isolation;
//! * [`cluster`] — [`cluster::LoopbackCluster`], the whole deployment
//!   (any proxy count) on loopback sockets inside one process, for tests
//!   and benchmarks;
//! * [`bench`](mod@bench) — the configurable GET/PUT throughput
//!   benchmark behind the `netbench` binary and `ic-cli bench`;
//! * [`replay`] — the sim-vs-net parity replay harness shared by the
//!   workspace tests and `dbg_replay`, including the multi-proxy
//!   proxy-kill leg.
//!
//! The architecture book in `docs/ARCHITECTURE.md` walks through the
//! thread structure; `docs/WIRE.md` is the normative wire-protocol
//! specification.
//!
//! Everything protocol-level is executed by the shared
//! [`infinicache::dispatch`] engines, so the sim-vs-net parity tests in
//! the workspace root can replay identical scripts through the simulator
//! and a loopback socket cluster and demand identical outcomes.
//!
//! Binaries (see the README's "Running a real cluster"): `ic-proxy`,
//! `ic-node`, `ic-cli`, and `netbench`. No async runtime — plain
//! `std::net` over the epoll/poll readiness shim in
//! `crates/shims/polling`, deployable anywhere the binaries run.

#![warn(missing_docs)]

pub mod args;
pub mod bench;
pub mod client;
pub mod cluster;
pub mod node;
mod nodehost;
pub mod proxy;
pub mod replay;
pub mod wire;

pub use client::NetClient;
pub use cluster::LoopbackCluster;
pub use node::{NetNode, NodeHandle};
pub use proxy::{NetProxyConfig, NetProxyHandle, WireSnapshot};
pub use wire::Frame;
