//! Helpers shared by the connection-scaling test binaries
//! (`scale.rs`, `horde.rs`).

use std::net::{SocketAddr, TcpStream};

use ic_common::{DeploymentConfig, EcConfig};
use ic_net::Frame;

/// A small RS(2+1) deployment with backups off.
pub fn deployment(nodes: u32) -> DeploymentConfig {
    DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(nodes, EcConfig::new(2, 1).unwrap())
    }
}

/// Performs a raw client handshake, returning the connected socket
/// (blocking mode) — a "client" that can then behave arbitrarily badly.
pub fn raw_client(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    Frame::HelloClient.write_to(&mut stream).expect("hello");
    match Frame::read_from(&mut stream).expect("welcome") {
        Frame::Welcome { .. } => stream,
        other => panic!("expected Welcome, got {other:?}"),
    }
}
