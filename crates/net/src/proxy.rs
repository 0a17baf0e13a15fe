//! The socket-backed proxy: real TCP listeners in front of the same
//! [`Proxy`] state machine the simulator drives.
//!
//! Thread structure (all plain `std::net`/`std::thread` over the
//! [`polling`] readiness shim, no async runtime) — **O(workers), never
//! O(connections)**:
//!
//! * a small pool of **I/O shard threads** (sized to cores, capped —
//!   [`NetProxyConfig::io_workers`]), each running a readiness event
//!   loop that owns a share of the client/node sockets in nonblocking
//!   mode. Shard 0 also owns both listeners and deals fresh connections
//!   round-robin across the pool. Per connection, a shard keeps an
//!   incremental [`NbFrameReader`] decode state machine driven by
//!   readable events and a [`FrameWriteQueue`] drained by writable
//!   events — vectored, batch-coalesced writes with byte-precise
//!   `WouldBlock` resumption;
//! * one **protocol thread** owning the [`Proxy`] state machine,
//!   executing its actions through the shared [`infinicache::dispatch`]
//!   engine with this module's [`ProxyTransport`] implementation.
//!   Outbound frames are encoded here (scatter/gather, payloads
//!   uncopied) and handed to the owning shard through a per-connection
//!   outbox + waker.
//!
//! Backpressure: a peer that stops reading accumulates bytes in its own
//! write queue only — never stalling a shard (writes are nonblocking)
//! nor the protocol thread (sends are queue pushes). When a
//! connection's queued bytes exceed [`NetProxyConfig::max_peer_backlog`]
//! the proxy closes it as a slow consumer; every other connection is
//! unaffected.
//!
//! The per-node connection lifecycle maps onto real socket events:
//! *invoke-on-demand* becomes a [`Frame::Invoke`] to the node's daemon
//! (parked until the daemon connects, mirroring the provider's queueing);
//! *PING/PONG validation* rides [`Frame::ToInstance`]/
//! [`Frame::FromInstance`]; *connection replacement during backup* is the
//! ordinary `HelloProxy` flow, since every instance of a node shares the
//! daemon's socket; and a daemon's socket dropping (its process was
//! killed — a reclaim) resets the member connection via
//! [`Proxy::on_connection_lost`], exactly the Fig 6 "timeout ‖ returned"
//! edge.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ic_common::frame::{FrameParts, FrameWriteQueue, NbFrameReader, NbRead};
use ic_common::msg::{InvokePayload, Msg};
use ic_common::{
    ClientId, DeploymentConfig, Error, InstanceId, LambdaId, ProxyId, RelayId, Result, SimTime,
};
use ic_proxy::{Proxy, ProxyAction, ProxyConfig};
use infinicache::dispatch::{self, LambdaCtx, ProxyTransport};
use polling::{Events, Interest, Mode, Poller, Token, Waker};

use crate::wire::Frame;

/// Configuration of one socket-backed proxy.
#[derive(Clone, Debug)]
pub struct NetProxyConfig {
    /// Deployment shape (proxy count, pool size, capacity, warm-up
    /// interval). The deployment may name several proxies; this instance
    /// serves exactly the ring slice [`DeploymentConfig::proxy_pool`]
    /// assigns to [`NetProxyConfig::proxy`].
    pub deployment: DeploymentConfig,
    /// Which of the deployment's proxies this instance is.
    pub proxy: ProxyId,
    /// Address to accept client connections on (port 0 picks one).
    pub client_addr: SocketAddr,
    /// Address to accept node-daemon connections on (port 0 picks one).
    pub node_addr: SocketAddr,
    /// Warm-up tick period, `None` to disable (tests disable it; the
    /// `ic-proxy` binary defaults to the deployment's `Twarm`).
    pub warmup: Option<Duration>,
    /// Per-connection outbound buffering bound in bytes: a peer whose
    /// unwritten queue exceeds this is closed as a slow consumer.
    pub max_peer_backlog: usize,
    /// I/O shard thread count; `None` sizes to the host's cores (capped
    /// at [`MAX_IO_WORKERS`]).
    pub io_workers: Option<usize>,
}

/// Default [`NetProxyConfig::max_peer_backlog`]: a few hundred chunk
/// frames — bursts of streamed chunks at one client ride it out, a
/// genuinely stalled reader trips it quickly.
pub const DEFAULT_PEER_BACKLOG: usize = 64 * 1024 * 1024;

/// Cap on auto-sized I/O shard threads: loopback benches show the event
/// loop saturates well before this many shards, and the token space
/// stays easy to reason about.
pub const MAX_IO_WORKERS: usize = 8;

impl NetProxyConfig {
    /// Loopback config for proxy 0 on ephemeral ports with warm-ups off.
    pub fn loopback(deployment: DeploymentConfig) -> Self {
        NetProxyConfig::loopback_proxy(deployment, ProxyId(0))
    }

    /// Loopback config for one proxy of a multi-proxy deployment.
    pub fn loopback_proxy(deployment: DeploymentConfig, proxy: ProxyId) -> Self {
        NetProxyConfig {
            deployment,
            proxy,
            client_addr: "127.0.0.1:0".parse().expect("static addr"),
            node_addr: "127.0.0.1:0".parse().expect("static addr"),
            warmup: None,
            max_peer_backlog: DEFAULT_PEER_BACKLOG,
            io_workers: None,
        }
    }

    fn resolved_io_workers(&self) -> usize {
        self.io_workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_IO_WORKERS)
        })
    }
}

/// Aggregate socket-write telemetry across all I/O shards.
#[derive(Default)]
struct WireStats {
    vectored_writes: AtomicU64,
    frames_written: AtomicU64,
}

/// Snapshot of the proxy's socket-write coalescing counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireSnapshot {
    /// Vectored writes (syscalls) the shards issued.
    pub vectored_writes: u64,
    /// Frames those writes carried; the ratio is the coalescing factor.
    pub frames_written: u64,
}

impl WireSnapshot {
    /// Frames per vectored write (1.0 when nothing was written).
    pub fn frames_per_write(&self) -> f64 {
        if self.vectored_writes == 0 {
            1.0
        } else {
            self.frames_written as f64 / self.vectored_writes as f64
        }
    }
}

/// Events feeding the proxy's protocol loop.
enum Ev {
    ClientJoin(ClientId, PeerHandle),
    ClientMsg(ClientId, Msg),
    ClientGone(ClientId),
    /// A node daemon connected; the `u64` is the connection generation,
    /// so a stale `NodeGone` from a previous connection of the same node
    /// cannot clobber a fresh one.
    NodeJoin(LambdaId, u64, PeerHandle),
    NodeMsg(LambdaId, InstanceId, Msg),
    NodeUnreachable(LambdaId, Msg),
    NodeGone(LambdaId, u64),
    /// Orderly shutdown: peers are notified with [`Frame::Shutdown`].
    Quit,
    /// Abrupt death: sockets drop without notice — the test harness's
    /// `kill -9` equivalent.
    Die,
}

/// Control messages posted to an I/O shard (paired with a waker nudge).
enum ShardCtl {
    /// Take ownership of a freshly accepted, not-yet-handshaken socket.
    Adopt(TcpStream, Port),
    /// A connection's outbox gained frames; transfer and flush them.
    Flush(usize),
    /// Exit; `drain` gives queued frames one best-effort flush first.
    Stop { drain: bool },
}

/// Which listener a connection arrived on (fixes the expected hello).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Port {
    Client,
    Node,
}

/// Handshake / identity state of one shard-owned connection.
#[derive(Clone, Copy)]
enum PeerState {
    /// Waiting for the hello frame appropriate to the arrival port.
    AwaitHello(Port),
    Client(ClientId),
    Node(LambdaId, u64),
}

/// One shard's cross-thread mailbox: lock-protected control queue plus
/// the waker that interrupts its poll.
struct ShardShared {
    inbox: Mutex<Vec<ShardCtl>>,
    waker: Waker,
}

impl ShardShared {
    fn post(&self, ctl: ShardCtl) {
        self.inbox.lock().expect("shard inbox").push(ctl);
        self.waker.wake();
    }
}

/// Protocol-thread side of one connection's outbound path: encoded
/// frames pile into the outbox; the owning shard transfers them into its
/// privately-owned write queue on the next wake (so no lock is ever held
/// across a socket write).
struct Outbox {
    frames: Mutex<Vec<FrameParts>>,
    /// Set by the shard when the connection dies: sends fail fast.
    closed: AtomicBool,
}

/// The protocol loop's handle to one peer connection.
struct PeerHandle {
    shard: Arc<ShardShared>,
    token: usize,
    outbox: Arc<Outbox>,
}

impl PeerHandle {
    /// Queues a frame for the peer; `Err` returns it when the connection
    /// is already gone (the delivery-failure path).
    fn send(&self, frame: Frame) -> std::result::Result<(), Frame> {
        if self.outbox.closed.load(Ordering::Acquire) {
            return Err(frame);
        }
        let parts = frame.encode_parts();
        let was_empty = {
            let mut frames = self.outbox.frames.lock().expect("peer outbox");
            let was_empty = frames.is_empty();
            frames.push(parts);
            was_empty
        };
        if was_empty {
            // The shard drains the whole outbox per wake; only the
            // empty→nonempty transition needs a nudge.
            self.shard.post(ShardCtl::Flush(self.token));
        }
        Ok(())
    }
}

/// A running socket-backed proxy.
pub struct NetProxyHandle {
    /// Address clients connect to.
    pub client_addr: SocketAddr,
    /// Address node daemons connect to.
    pub node_addr: SocketAddr,
    events: Sender<Ev>,
    shards: Vec<Arc<ShardShared>>,
    wire: Arc<WireStats>,
    joins: Vec<JoinHandle<()>>,
}

impl NetProxyHandle {
    /// Stops the proxy: notifies peers, flushes what it can, and joins
    /// every thread.
    pub fn shutdown(self) {
        self.stop_with(Ev::Quit);
    }

    /// Kills the proxy abruptly: no [`Frame::Shutdown`] notices — every
    /// peer observes its socket dropping, exactly as if the `ic-proxy`
    /// process had been `kill -9`ed. Used by the multi-proxy fault tests.
    pub fn kill(self) {
        self.stop_with(Ev::Die);
    }

    /// Socket-write coalescing counters accumulated so far.
    pub fn wire_stats(&self) -> WireSnapshot {
        WireSnapshot {
            vectored_writes: self.wire.vectored_writes.load(Ordering::Relaxed),
            frames_written: self.wire.frames_written.load(Ordering::Relaxed),
        }
    }

    fn stop_with(mut self, ev: Ev) {
        // The protocol thread broadcasts Shutdown frames (for Quit) and
        // then stops the shards; if it is already gone, stop them here.
        if self.events.send(ev).is_err() {
            for shard in &self.shards {
                shard.post(ShardCtl::Stop { drain: false });
            }
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

/// Starts a proxy: binds both listeners and spawns the thread ensemble.
///
/// In a multi-proxy deployment each instance serves the disjoint slice of
/// the global node-id space that [`DeploymentConfig::proxy_pool`] derives
/// for it; clients spread keys over the instances with the consistent-hash
/// ring, exactly as in the other substrates.
///
/// # Errors
///
/// [`Error::Config`] for invalid deployments (including a `proxy` id
/// outside the deployment) and [`Error::Transport`] when a listener
/// cannot bind or a thread/poller cannot start.
pub fn start(cfg: NetProxyConfig) -> Result<NetProxyHandle> {
    cfg.deployment.validate()?;
    if cfg.proxy.0 >= cfg.deployment.proxies {
        return Err(Error::Config(format!(
            "proxy id {} outside the deployment's {} proxies",
            cfg.proxy.0, cfg.deployment.proxies
        )));
    }
    let transport = |e: std::io::Error| Error::Transport(e.to_string());
    let client_listener = TcpListener::bind(cfg.client_addr).map_err(transport)?;
    let node_listener = TcpListener::bind(cfg.node_addr).map_err(transport)?;
    client_listener.set_nonblocking(true).map_err(transport)?;
    node_listener.set_nonblocking(true).map_err(transport)?;
    let client_addr = client_listener.local_addr().map_err(transport)?;
    let node_addr = node_listener.local_addr().map_err(transport)?;

    let proxy_id = cfg.proxy;
    let pool: Arc<Vec<LambdaId>> = Arc::new(cfg.deployment.proxy_pool(proxy_id).collect());
    let (events_tx, events_rx) = channel::<Ev>();
    let wire = Arc::new(WireStats::default());
    let client_ids = Arc::new(ClientIds::default());
    let next_generation = Arc::new(AtomicU64::new(0));
    let workers = cfg.resolved_io_workers().max(1);

    let mut shards: Vec<Arc<ShardShared>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        shards.push(Arc::new(ShardShared {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new().map_err(transport)?,
        }));
    }

    let mut joins = Vec::new();
    for (index, shared) in shards.iter().enumerate() {
        let poller = Poller::new().map_err(transport)?;
        poller
            .register(
                &shared.waker,
                Token(TOKEN_WAKER),
                Interest::READABLE,
                Mode::Level,
            )
            .map_err(transport)?;
        let listeners = if index == 0 {
            poller
                .register(
                    &client_listener,
                    Token(TOKEN_CLIENT_LISTENER),
                    Interest::READABLE,
                    Mode::Level,
                )
                .map_err(transport)?;
            poller
                .register(
                    &node_listener,
                    Token(TOKEN_NODE_LISTENER),
                    Interest::READABLE,
                    Mode::Level,
                )
                .map_err(transport)?;
            Some((
                client_listener.try_clone().map_err(transport)?,
                node_listener.try_clone().map_err(transport)?,
            ))
        } else {
            None
        };
        let mut shard = Shard {
            poller,
            shared: shared.clone(),
            siblings: shards.clone(),
            next_sibling: AtomicUsize::new(1),
            listeners,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            events: events_tx.clone(),
            proxy_id,
            pool: pool.clone(),
            client_ids: client_ids.clone(),
            next_generation: next_generation.clone(),
            wire: wire.clone(),
            max_backlog: cfg.max_peer_backlog,
        };
        joins.push(
            std::thread::Builder::new()
                .name(format!("ic-proxy-io-{index}"))
                .spawn(move || shard.run())
                .map_err(|e| Error::Transport(e.to_string()))?,
        );
    }

    // Protocol thread.
    {
        let proxy = Proxy::new(
            ProxyConfig {
                id: proxy_id,
                capacity_bytes: cfg.deployment.pool_capacity(),
            },
            pool.iter().copied(),
        );
        let warmup = cfg.warmup;
        let shards = shards.clone();
        let wire = wire.clone();
        joins.push(
            std::thread::Builder::new()
                .name("ic-proxy-events".into())
                .spawn(move || {
                    ProxyLoop {
                        proxy,
                        client_ids,
                        clients: HashMap::new(),
                        nodes: HashMap::new(),
                        pending_invokes: HashMap::new(),
                        epoch: Instant::now(),
                        events_seen: 0,
                        shards,
                        wire,
                    }
                    .run(events_rx, warmup)
                })
                .map_err(|e| Error::Transport(e.to_string()))?,
        );
    }

    Ok(NetProxyHandle {
        client_addr,
        node_addr,
        events: events_tx,
        shards,
        wire,
        joins,
    })
}

/// Client-identity allocator: ids of disconnected clients are recycled,
/// and allocation refuses (dropping the connection) rather than wrap the
/// `u16` space — a wrap would silently hand a live client's identity to
/// a newcomer and cross-wire their replies.
#[derive(Default)]
struct ClientIds {
    inner: Mutex<ClientIdsInner>,
}

#[derive(Default)]
struct ClientIdsInner {
    /// Ids returned by disconnected clients, reused first.
    free: Vec<u16>,
    /// Next never-used id; `u16::MAX + 1` means the space is exhausted.
    next: u32,
}

impl ClientIds {
    fn alloc(&self) -> Option<ClientId> {
        let mut inner = self.inner.lock().expect("id allocator lock");
        if let Some(id) = inner.free.pop() {
            return Some(ClientId(id));
        }
        if inner.next > u16::MAX as u32 {
            return None; // 65,536 concurrent clients: refuse, never reuse
        }
        let id = inner.next as u16;
        inner.next += 1;
        Some(ClientId(id))
    }

    fn release(&self, id: ClientId) {
        self.inner
            .lock()
            .expect("id allocator lock")
            .free
            .push(id.0);
    }
}

/// Reserved shard tokens: the waker and (on shard 0) the listeners.
const TOKEN_WAKER: usize = 0;
const TOKEN_CLIENT_LISTENER: usize = 1;
const TOKEN_NODE_LISTENER: usize = 2;
const TOKEN_FIRST_CONN: usize = 3;

/// Frames decoded per connection per readable event before yielding to
/// the other connections; level-triggered readiness re-fires, so a
/// firehose peer cannot monopolize its shard.
const READ_FAIRNESS_FRAMES: usize = 1024;

/// How long an orderly shutdown keeps retrying a not-yet-drained write
/// queue before dropping the socket anyway.
const DRAIN_GRACE: Duration = Duration::from_millis(100);

/// One nonblocking connection owned by an I/O shard.
struct PeerConn {
    stream: TcpStream,
    reader: NbFrameReader,
    queue: FrameWriteQueue,
    outbox: Arc<Outbox>,
    state: PeerState,
    /// Whether the poller registration currently includes WRITABLE.
    want_write: bool,
}

/// One I/O shard: a readiness loop owning a share of the connections.
struct Shard {
    poller: Poller,
    shared: Arc<ShardShared>,
    /// All shards (self included) for round-robin connection dealing;
    /// only shard 0 (the listener owner) uses it.
    siblings: Vec<Arc<ShardShared>>,
    next_sibling: AtomicUsize,
    /// Shard 0 keeps the listeners; other shards have `None`.
    listeners: Option<(TcpListener, TcpListener)>,
    conns: HashMap<usize, PeerConn>,
    next_token: usize,
    events: Sender<Ev>,
    proxy_id: ProxyId,
    pool: Arc<Vec<LambdaId>>,
    client_ids: Arc<ClientIds>,
    next_generation: Arc<AtomicU64>,
    wire: Arc<WireStats>,
    max_backlog: usize,
}

impl Shard {
    fn run(&mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let _ = self.poller.poll(&mut events, None);
            // Drain cross-thread controls first: adoption registers new
            // sockets, Stop must win over pending I/O. Ack strictly
            // before taking the inbox: a post() landing between the two
            // then leaves the waker readable and the next poll returns
            // immediately, whereas the reverse order would drain the
            // wake signal of a control we haven't taken — a lost wakeup
            // stalling that peer until unrelated traffic arrives.
            self.shared.waker.ack();
            let ctls: Vec<ShardCtl> =
                std::mem::take(&mut *self.shared.inbox.lock().expect("shard inbox"));
            for ctl in ctls {
                match ctl {
                    ShardCtl::Adopt(stream, port) => self.adopt(stream, port),
                    ShardCtl::Flush(token) => {
                        self.transfer_outbox(token);
                        self.flush_conn(token);
                    }
                    ShardCtl::Stop { drain } => {
                        self.stop(drain);
                        return;
                    }
                }
            }
            let mut accepted = false;
            let mut ready: Vec<(usize, bool, bool)> = Vec::new();
            for ev in &events {
                match ev.token().0 {
                    TOKEN_WAKER => {} // acked above
                    TOKEN_CLIENT_LISTENER | TOKEN_NODE_LISTENER => accepted = true,
                    token => ready.push((token, ev.is_readable(), ev.is_writable())),
                }
            }
            if accepted {
                self.accept_ready();
            }
            for (token, readable, writable) in ready {
                if readable {
                    self.read_conn(token);
                }
                if writable {
                    self.flush_conn(token);
                }
            }
        }
    }

    /// Accepts every pending connection on both listeners and deals each
    /// to a shard round-robin.
    fn accept_ready(&mut self) {
        let Some((client_listener, node_listener)) = self.listeners.take() else {
            return;
        };
        for (listener, port) in [
            (&client_listener, Port::Client),
            (&node_listener, Port::Node),
        ] {
            // On error (WouldBlock or transient) stop and retry next poll.
            while let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let target =
                    self.next_sibling.fetch_add(1, Ordering::Relaxed) % self.siblings.len();
                if target == 0 {
                    self.adopt(stream, port);
                } else {
                    self.siblings[target].post(ShardCtl::Adopt(stream, port));
                }
            }
        }
        self.listeners = Some((client_listener, node_listener));
    }

    /// Registers a fresh connection and starts its handshake state.
    fn adopt(&mut self, stream: TcpStream, port: Port) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(&stream, Token(token), Interest::READABLE, Mode::Level)
            .is_err()
        {
            return; // dead socket: drop it
        }
        self.conns.insert(
            token,
            PeerConn {
                stream,
                reader: NbFrameReader::new(),
                queue: FrameWriteQueue::new(),
                outbox: Arc::new(Outbox {
                    frames: Mutex::new(Vec::new()),
                    closed: AtomicBool::new(false),
                }),
                state: PeerState::AwaitHello(port),
                want_write: false,
            },
        );
    }

    /// Drains readable frames from one connection (bounded per event for
    /// fairness; level-triggered readiness re-fires for the rest).
    fn read_conn(&mut self, token: usize) {
        for _ in 0..READ_FAIRNESS_FRAMES {
            let step = match self.conns.get_mut(&token) {
                Some(conn) => conn.reader.read(&mut conn.stream),
                None => return,
            };
            match step {
                Ok(NbRead::Frame(body)) => {
                    let Ok(frame) = Frame::decode_shared(&body) else {
                        self.close_conn(token);
                        return;
                    };
                    if !self.on_frame(token, frame) {
                        self.close_conn(token);
                        return;
                    }
                }
                Ok(NbRead::WouldBlock) => break,
                Ok(NbRead::Closed) | Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        // A handshake reply (Welcome) may have been queued: push it out.
        self.flush_conn(token);
    }

    /// Reacts to one inbound frame; `false` means drop the connection.
    fn on_frame(&mut self, token: usize, frame: Frame) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match (conn.state, frame) {
            (PeerState::AwaitHello(Port::Client), Frame::HelloClient) => {
                let Some(client) = self.client_ids.alloc() else {
                    return false; // id space exhausted: refuse
                };
                let welcome = Frame::Welcome {
                    client,
                    proxy: self.proxy_id,
                    pool: self.pool.to_vec(),
                };
                if conn.queue.push(welcome.encode_parts()).is_err() {
                    self.client_ids.release(client);
                    return false;
                }
                conn.state = PeerState::Client(client);
                let handle = PeerHandle {
                    shard: self.shared.clone(),
                    token,
                    outbox: conn.outbox.clone(),
                };
                // After ClientJoin the protocol thread owns the id: it
                // releases it on ClientGone, so a recycled id can never
                // race its predecessor's teardown.
                self.events.send(Ev::ClientJoin(client, handle)).is_ok()
            }
            (PeerState::AwaitHello(Port::Node), Frame::HelloNode { lambda })
                if self.pool.contains(&lambda) =>
            {
                let generation = self.next_generation.fetch_add(1, Ordering::SeqCst);
                conn.state = PeerState::Node(lambda, generation);
                let handle = PeerHandle {
                    shard: self.shared.clone(),
                    token,
                    outbox: conn.outbox.clone(),
                };
                self.events
                    .send(Ev::NodeJoin(lambda, generation, handle))
                    .is_ok()
            }
            (PeerState::AwaitHello(_), _) => false, // wrong hello: drop
            (PeerState::Client(client), Frame::App { msg }) => {
                self.events.send(Ev::ClientMsg(client, msg)).is_ok()
            }
            (PeerState::Node(lambda, _), Frame::FromInstance { instance, msg }) => {
                self.events.send(Ev::NodeMsg(lambda, instance, msg)).is_ok()
            }
            (PeerState::Node(lambda, _), Frame::Unreachable { msg }) => {
                self.events.send(Ev::NodeUnreachable(lambda, msg)).is_ok()
            }
            // Peers send nothing else; ignore strays (forward compat).
            _ => true,
        }
    }

    /// Moves protocol-thread frames from a connection's outbox into its
    /// write queue, enforcing the slow-consumer bound.
    fn transfer_outbox(&mut self, token: usize) {
        let mut kill = false;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let frames = std::mem::take(&mut *conn.outbox.frames.lock().expect("peer outbox"));
        for parts in frames {
            if conn.queue.push(parts).is_err() {
                kill = true;
                break;
            }
        }
        if conn.queue.queued_bytes() > self.max_backlog {
            // The peer stopped reading: cut it loose rather than buffer
            // without bound. Only this connection pays.
            kill = true;
        }
        if kill {
            self.close_conn(token);
        }
    }

    /// Writes as much of a connection's queue as the socket accepts and
    /// keeps WRITABLE interest armed exactly while a backlog remains.
    fn flush_conn(&mut self, token: usize) {
        let mut kill = false;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.queue.write_to(&mut conn.stream) {
            Ok(flush) => {
                if flush.vectored_writes > 0 {
                    self.wire
                        .vectored_writes
                        .fetch_add(flush.vectored_writes, Ordering::Relaxed);
                    self.wire
                        .frames_written
                        .fetch_add(flush.frames, Ordering::Relaxed);
                }
                let want_write = !flush.drained;
                if want_write != conn.want_write {
                    let interest = if want_write {
                        Interest::READABLE | Interest::WRITABLE
                    } else {
                        Interest::READABLE
                    };
                    if self
                        .poller
                        .reregister(&conn.stream, Token(token), interest, Mode::Level)
                        .is_ok()
                    {
                        conn.want_write = want_write;
                    } else {
                        kill = true;
                    }
                }
            }
            Err(_) => {
                kill = true;
            }
        }
        if kill {
            self.close_conn(token);
        }
    }

    /// Tears one connection down and tells the protocol thread (join
    /// events for a connection always precede its gone event, since the
    /// same shard thread emits both in order).
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.outbox.closed.store(true, Ordering::Release);
        conn.outbox.frames.lock().expect("peer outbox").clear();
        let _ = self.poller.deregister(&conn.stream);
        match conn.state {
            PeerState::AwaitHello(_) => {}
            PeerState::Client(client) => {
                let _ = self.events.send(Ev::ClientGone(client));
            }
            PeerState::Node(lambda, generation) => {
                let _ = self.events.send(Ev::NodeGone(lambda, generation));
            }
        }
    }

    /// Final teardown; with `drain`, queued frames (Shutdown notices)
    /// get a brief best-effort flush before the sockets drop.
    fn stop(&mut self, drain: bool) {
        if drain {
            let tokens: Vec<usize> = self.conns.keys().copied().collect();
            for token in &tokens {
                self.transfer_outbox(*token);
            }
            let deadline = Instant::now() + DRAIN_GRACE;
            loop {
                let mut pending = false;
                for (_, conn) in self.conns.iter_mut() {
                    if conn.queue.is_empty() {
                        continue;
                    }
                    match conn.queue.write_to(&mut conn.stream) {
                        Ok(flush) if !flush.drained => pending = true,
                        _ => {}
                    }
                }
                if !pending || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for (_, conn) in self.conns.drain() {
            conn.outbox.closed.store(true, Ordering::Release);
        }
    }
}

/// The protocol loop: owns the state machine and all peer handles.
struct ProxyLoop {
    proxy: Proxy,
    /// Returns disconnected clients' ids to the allocator (in event
    /// order, so a recycled id cannot overtake its predecessor's
    /// teardown).
    client_ids: Arc<ClientIds>,
    clients: HashMap<ClientId, PeerHandle>,
    /// Live node connections: `(connection generation, peer handle)`.
    nodes: HashMap<LambdaId, (u64, PeerHandle)>,
    /// Invocations requested while a node's daemon was unreachable,
    /// delivered the moment it (re)connects — the socket equivalent of
    /// the provider queueing an invoke.
    pending_invokes: HashMap<LambdaId, InvokePayload>,
    epoch: Instant,
    /// Events processed so far; drives the periodic debug-build audit.
    events_seen: u64,
    shards: Vec<Arc<ShardShared>>,
    wire: Arc<WireStats>,
}

impl ProxyLoop {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn run(mut self, events: Receiver<Ev>, warmup: Option<Duration>) {
        let mut next_tick = warmup.map(|w| Instant::now() + w);
        loop {
            let ev = match next_tick {
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    match events.recv_timeout(timeout) {
                        Ok(e) => Some(e),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return self.stop_shards(false),
                    }
                }
                None => match events.recv() {
                    Ok(e) => Some(e),
                    Err(_) => return self.stop_shards(false),
                },
            };
            let actions: Vec<ProxyAction> = match ev {
                None => {
                    next_tick = warmup.map(|w| Instant::now() + w);
                    self.proxy.on_warmup_tick()
                }
                Some(Ev::ClientJoin(c, handle)) => {
                    self.clients.insert(c, handle);
                    Vec::new()
                }
                Some(Ev::ClientMsg(c, msg)) => self.proxy.on_client(c, msg),
                Some(Ev::ClientGone(c)) => {
                    self.clients.remove(&c);
                    // Forget the session's writer affinity *before*
                    // releasing the id: a recycled id restarts its PUT
                    // epochs and must not look like a reordered older
                    // writer.
                    let actions = self.proxy.on_client_disconnected(c);
                    self.client_ids.release(c);
                    actions
                }
                Some(Ev::NodeJoin(l, generation, handle)) => {
                    // A newer connection replaces any older one; the old
                    // connection's eventual NodeGone is ignored below.
                    self.nodes.insert(l, (generation, handle));
                    if let Some(payload) = self.pending_invokes.remove(&l) {
                        // The queued invoke fires now that the daemon is
                        // reachable.
                        let _ = self.nodes[&l].1.send(Frame::Invoke { payload });
                    }
                    Vec::new()
                }
                Some(Ev::NodeMsg(l, _instance, msg)) => self.proxy.on_lambda(l, msg),
                Some(Ev::NodeUnreachable(l, msg)) => self.proxy.on_delivery_failed(l, msg),
                Some(Ev::NodeGone(l, generation)) => {
                    // Only the currently registered connection's death
                    // counts; a stale disconnect from a replaced
                    // connection must not clobber a fresh daemon.
                    if self.nodes.get(&l).is_some_and(|(g, _)| *g == generation) {
                        self.nodes.remove(&l);
                        self.proxy.on_connection_lost(l)
                    } else {
                        Vec::new()
                    }
                }
                Some(Ev::Quit) => {
                    for handle in self
                        .nodes
                        .values()
                        .map(|(_, h)| h)
                        .chain(self.clients.values())
                    {
                        let _ = handle.send(Frame::Shutdown);
                    }
                    return self.stop_shards(true);
                }
                Some(Ev::Die) => return self.stop_shards(false),
            };
            let now = self.now();
            let proxy = self.proxy.id();
            dispatch::run_proxy_actions(&mut self, now, proxy, actions, None);
            self.proxy.stats.vectored_writes = self.wire.vectored_writes.load(Ordering::Relaxed);
            self.proxy.stats.frames_written = self.wire.frames_written.load(Ordering::Relaxed);
            self.audit();
        }
    }

    fn stop_shards(&self, drain: bool) {
        for shard in &self.shards {
            shard.post(ShardCtl::Stop { drain });
        }
    }

    /// Debug-build invariant audit: every few events, the same structural
    /// checks the chaos harness runs against the simulator are asserted
    /// against this live state machine (byte accounting, mapping
    /// consistency, PUT progress bounds). Release builds skip it.
    fn audit(&mut self) {
        if !cfg!(debug_assertions) {
            return;
        }
        self.events_seen += 1;
        if !self.events_seen.is_multiple_of(64) {
            return;
        }
        let violations = self.proxy.check_invariants();
        assert!(
            violations.is_empty(),
            "proxy invariant violation on the socket substrate: {violations:?}"
        );
    }
}

impl ProxyTransport for ProxyLoop {
    fn invoke(&mut self, _now: SimTime, _proxy: ProxyId, lambda: LambdaId, payload: InvokePayload) {
        match self.nodes.get(&lambda) {
            Some((_, handle)) => {
                if let Err(Frame::Invoke { payload }) = handle.send(Frame::Invoke { payload }) {
                    self.pending_invokes.insert(lambda, payload);
                }
            }
            None => {
                self.pending_invokes.insert(lambda, payload);
            }
        }
    }

    fn proxy_send(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> std::result::Result<(), Msg> {
        let instance = self.proxy.member(lambda).and_then(|m| m.instance());
        match (instance, self.nodes.get(&lambda)) {
            (Some(instance), Some((_, handle))) => {
                match handle.send(Frame::ToInstance { instance, msg }) {
                    Ok(()) => Ok(()),
                    Err(Frame::ToInstance { msg, .. }) => Err(msg),
                    Err(_) => unreachable!("send returns the frame it was given"),
                }
            }
            (_, _) => Err(msg),
        }
    }

    fn delivery_failed(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Vec<ProxyAction> {
        self.proxy.on_delivery_failed(lambda, msg)
    }

    fn proxy_reply(&mut self, _now: SimTime, _proxy: ProxyId, client: ClientId, msg: Msg) {
        if let Some(handle) = self.clients.get(&client) {
            let _ = handle.send(Frame::App { msg });
        }
    }

    fn proxy_stream(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        client: ClientId,
        msg: Msg,
        _ctx: LambdaCtx,
    ) {
        // TCP is the bandwidth model: streamed chunks are plain frames.
        if let Some(handle) = self.clients.get(&client) {
            let _ = handle.send(Frame::App { msg });
        }
    }

    fn spawn_relay(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        _relay: RelayId,
        _source: LambdaId,
        _ctx: LambdaCtx,
    ) {
        // Relay traffic short-circuits inside the node daemon (the
        // NodeHost tracks each round's endpoint pair); the proxy-side
        // protocol state machine already records what it needs.
    }
}
