//! # InfiniCache
//!
//! A Rust reproduction of *InfiniCache: Exploiting Ephemeral Serverless
//! Functions to Build a Cost-Effective Memory Cache* (Wang et al., USENIX
//! FAST 2020): an in-memory object cache built entirely on ephemeral FaaS
//! functions, combining erasure coding, anticipatory billed-duration
//! control, and delta-sync backups to cache large objects at a fraction of
//! the cost of a managed cache like ElastiCache.
//!
//! This crate is the top of the workspace: it wires the client library
//! (`ic-client`), proxy (`ic-proxy`), Lambda function runtime
//! (`ic-lambda`), erasure coding (`ic-ec`), workload synthesizer
//! (`ic-workload`), analytical models (`ic-analytics`), baselines
//! (`ic-baselines`) and the serverless-platform simulator (`ic-simfaas`)
//! into the discrete-event deployment:
//!
//! * **Simulation** ([`world::SimWorld`]): a deterministic discrete-event
//!   deployment used by every experiment in `crates/bench` — latency
//!   microbenchmarks, the 50-hour production-trace replay, cost and
//!   fault-tolerance studies;
//! * **Dispatch** ([`dispatch`]): the one executor per protocol action
//!   enum, behind a [`dispatch::Transport`] trait that each substrate
//!   implements;
//! * **Chaos** ([`chaos`]) and **experiments** ([`experiments`]): seeded
//!   fault schedules with an invariant auditor, and the paper's studies.
//!
//! The real-bytes substrate lives downstream in the `ic-net` crate: the
//! same state machines across real TCP sockets and OS processes,
//! registered against the identical [`dispatch`] engines (it cannot live
//! here — `ic-net` depends on this crate for the dispatch layer). The
//! substrate-parity tests in the workspace root replay one script
//! through both and demand identical outcomes.
//!
//! (A quickstart on a loopback socket cluster lives in
//! `examples/quickstart.rs`.)

#![warn(missing_docs)]

pub mod chaos;
pub mod dispatch;
pub mod event;
pub mod experiments;
pub mod metrics;
pub mod params;
pub mod scheduler;
pub mod world;

pub use event::Op;
pub use metrics::{FtKind, Metrics, OpKind, Outcome, RequestRecord};
pub use params::SimParams;
pub use world::SimWorld;
