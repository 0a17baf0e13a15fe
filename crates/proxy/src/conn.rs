//! The per-node connection state machine (Fig 6).
//!
//! A proxy lazily validates a node's connection every time it has
//! something to send: requests queue while the node is being invoked or
//! PINGed, flush on PONG, and re-queue on BYE / connection reset. During a
//! backup round the connection is *replaced* by the destination replica
//! and enters the `Maybe` state, in which the source's return is ignored.

use std::collections::VecDeque;

use ic_common::msg::Msg;
use ic_common::{ChunkId, InstanceId, LambdaId};

/// Fig 6 liveness axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Liveness {
    /// Node not running (cached or cold).
    Sleeping,
    /// Node actively running and connected.
    Active,
    /// Connection replaced during backup; the source's return is ignored.
    Maybe,
}

/// Fig 6 validation axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Validity {
    /// Might be stale; must validate before sending.
    Unvalidated,
    /// A PING or invocation is in flight.
    Validating,
    /// Fresh PONG received; safe to send now.
    Validated,
}

/// What the proxy must do after a connection-state step.
#[derive(Clone, Debug, PartialEq)]
pub enum ConnEffect {
    /// Invoke the Lambda function (it is sleeping), with a piggybacked
    /// PING so it validates on wake-up.
    Invoke,
    /// Send a preflight PING on the live connection.
    Ping,
    /// Deliver a message on the (validated) connection.
    Emit(Msg),
}

/// One node's connection bookkeeping.
#[derive(Clone, Debug)]
pub struct LambdaConn {
    /// The node this connection belongs to.
    pub lambda: LambdaId,
    liveness: Liveness,
    validity: Validity,
    /// Instance currently answering for this node (None before first PONG).
    active_instance: Option<InstanceId>,
    /// Requests awaiting a validated connection.
    queue: VecDeque<Msg>,
    /// Lazy deletions flushed on the next validation.
    pending_deletes: Vec<ChunkId>,
    /// Bytes the node last reported holding (pool accounting).
    pub reported_bytes: u64,
}

impl LambdaConn {
    /// A fresh, never-connected node: `(Sleeping, Unvalidated)`.
    pub fn new(lambda: LambdaId) -> Self {
        LambdaConn {
            lambda,
            liveness: Liveness::Sleeping,
            validity: Validity::Unvalidated,
            active_instance: None,
            queue: VecDeque::new(),
            pending_deletes: Vec::new(),
            reported_bytes: 0,
        }
    }

    /// Current `(liveness, validity)` pair.
    pub fn state(&self) -> (Liveness, Validity) {
        (self.liveness, self.validity)
    }

    /// The instance the proxy believes is answering.
    pub fn instance(&self) -> Option<InstanceId> {
        self.active_instance
    }

    /// Queued messages not yet flushed (tests/metrics).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Feeds this connection's protocol state into a state hash (model
    /// checking). Everything here is protocol-relevant: the Fig 6 state
    /// pair, the answering instance, queued and lazily-deleted work, and
    /// the pool-accounting byte count.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use ic_common::hash::hash_debug;
        use std::hash::Hash;
        self.lambda.hash(h);
        hash_debug(&format_args!("{:?}/{:?}", self.liveness, self.validity), h);
        self.active_instance.hash(h);
        self.queue.len().hash(h);
        for msg in &self.queue {
            hash_debug(msg, h);
        }
        self.pending_deletes.hash(h);
        self.reported_bytes.hash(h);
    }

    /// Wants to deliver `msg` to the node; validates lazily (Fig 6 steps
    /// 1–10).
    pub fn send(&mut self, msg: Msg) -> Vec<ConnEffect> {
        match (self.liveness, self.validity) {
            (Liveness::Sleeping, Validity::Validating) => {
                // Invocation already in flight; just queue.
                self.queue.push_back(msg);
                Vec::new()
            }
            (Liveness::Sleeping, _) => {
                self.queue.push_back(msg);
                self.validity = Validity::Validating;
                vec![ConnEffect::Invoke]
            }
            (Liveness::Active | Liveness::Maybe, Validity::Validated) => {
                // Step 4: sending de-validates.
                self.validity = Validity::Unvalidated;
                let mut out = self.drain_deletes();
                out.push(ConnEffect::Emit(msg));
                out
            }
            (Liveness::Active | Liveness::Maybe, Validity::Unvalidated) => {
                // Step 7: preflight PING, queue behind it.
                self.queue.push_back(msg);
                self.validity = Validity::Validating;
                vec![ConnEffect::Ping]
            }
            (Liveness::Active | Liveness::Maybe, Validity::Validating) => {
                self.queue.push_back(msg);
                Vec::new()
            }
        }
    }

    /// Warm-up tick: make sure the node stays cached. Invokes only if
    /// sleeping and nothing is already in flight.
    pub fn warmup(&mut self) -> Vec<ConnEffect> {
        if self.liveness == Liveness::Sleeping && self.validity == Validity::Unvalidated {
            self.validity = Validity::Validating;
            vec![ConnEffect::Invoke]
        } else {
            Vec::new()
        }
    }

    /// PONG received (steps 3/8/9): validate and flush the queue.
    pub fn on_pong(&mut self, instance: InstanceId, stored_bytes: u64) -> Vec<ConnEffect> {
        if self.liveness == Liveness::Maybe && Some(instance) != self.active_instance {
            // An unexpected PONG from the replaced source: ignore content,
            // the destination owns the connection now.
            return Vec::new();
        }
        self.active_instance = Some(instance);
        self.reported_bytes = stored_bytes;
        if self.liveness != Liveness::Maybe {
            self.liveness = Liveness::Active;
        }
        self.flush()
    }

    /// An invocation is in flight right now: its PONG will arrive and
    /// flush the queue, so issuing another invoke is not only redundant —
    /// the platform would route it to a *concurrent fresh instance*
    /// (the woken one is already executing), whose empty cache would
    /// then take over the connection and orphan every chunk the woken
    /// instance holds.
    fn invoke_in_flight(&self) -> bool {
        self.liveness == Liveness::Sleeping && self.validity == Validity::Validating
    }

    /// BYE received (steps 13–14): the instance returned voluntarily.
    pub fn on_bye(&mut self, instance: InstanceId) -> Vec<ConnEffect> {
        if self.liveness == Liveness::Maybe && Some(instance) != self.active_instance {
            // The replaced source says bye: ignored (Fig 6 Maybe row).
            return Vec::new();
        }
        if self.invoke_in_flight() {
            // A stale BYE racing the re-invocation: keep waiting for the
            // invoke's PONG instead of double-invoking.
            return Vec::new();
        }
        self.liveness = Liveness::Sleeping;
        self.validity = Validity::Unvalidated;
        if !self.queue.is_empty() {
            // Pending work: re-invoke immediately.
            self.validity = Validity::Validating;
            return vec![ConnEffect::Invoke];
        }
        Vec::new()
    }

    /// Delivery failure (a message addressed to an instance that no
    /// longer runs; the node itself is reachable): requeue the failed
    /// message and re-invoke (Fig 6 "timeout || returned / reinvoke").
    pub fn on_reset(&mut self, failed: Option<Msg>) -> Vec<ConnEffect> {
        if let Some(m) = failed {
            self.queue.push_front(m);
        }
        if self.invoke_in_flight() {
            // A second bounce while the re-invocation is still in
            // flight (messages sent to the previous instance keep
            // bouncing until the fresh PONG): requeue only.
            return Vec::new();
        }
        self.reset_and_revalidate()
    }

    /// The node's transport connection itself died (daemon process
    /// killed, socket reset). Unlike [`LambdaConn::on_reset`], any
    /// in-flight invocation died *with* the connection, so this always
    /// re-validates from scratch — suppressing the invoke here would
    /// stall the queue forever.
    pub fn on_connection_lost(&mut self) -> Vec<ConnEffect> {
        self.reset_and_revalidate()
    }

    fn reset_and_revalidate(&mut self) -> Vec<ConnEffect> {
        self.active_instance = None;
        self.liveness = Liveness::Sleeping;
        if self.queue.is_empty() && self.pending_deletes.is_empty() {
            self.validity = Validity::Unvalidated;
            Vec::new()
        } else {
            self.validity = Validity::Validating;
            vec![ConnEffect::Invoke]
        }
    }

    /// Backup step 10: the destination replica took over the connection.
    pub fn replace_with(&mut self, instance: InstanceId) -> Vec<ConnEffect> {
        self.active_instance = Some(instance);
        self.liveness = Liveness::Maybe;
        self.validity = Validity::Validated;
        self.flush()
    }

    /// Queues a lazy chunk deletion (flushed on the next validation).
    pub fn queue_delete(&mut self, id: ChunkId) {
        self.pending_deletes.push(id);
    }

    fn drain_deletes(&mut self) -> Vec<ConnEffect> {
        if self.pending_deletes.is_empty() {
            return Vec::new();
        }
        let ids = std::mem::take(&mut self.pending_deletes);
        vec![ConnEffect::Emit(Msg::ChunkDelete { ids })]
    }

    /// Emits everything queued; sending de-validates (step 4).
    fn flush(&mut self) -> Vec<ConnEffect> {
        let mut out = self.drain_deletes();
        while let Some(m) = self.queue.pop_front() {
            out.push(ConnEffect::Emit(m));
        }
        if !out.is_empty() {
            self.validity = Validity::Unvalidated;
        } else {
            self.validity = Validity::Validated;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{ObjectKey, Payload};

    fn get(key: &str) -> Msg {
        Msg::ChunkGet {
            id: ChunkId::new(ObjectKey::new(key), 0),
        }
    }

    #[test]
    fn cold_send_invokes_and_queues() {
        let mut c = LambdaConn::new(LambdaId(0));
        assert_eq!(c.state(), (Liveness::Sleeping, Validity::Unvalidated));
        let fx = c.send(get("a"));
        assert_eq!(fx, vec![ConnEffect::Invoke]);
        assert_eq!(c.state(), (Liveness::Sleeping, Validity::Validating));
        // A second send while invoking only queues.
        assert!(c.send(get("b")).is_empty());
        assert_eq!(c.queued(), 2);

        // PONG flushes both and leaves the connection unvalidated (step 4).
        let fx = c.on_pong(InstanceId(7), 0);
        assert_eq!(fx.len(), 2);
        assert!(matches!(fx[0], ConnEffect::Emit(Msg::ChunkGet { .. })));
        assert_eq!(c.state(), (Liveness::Active, Validity::Unvalidated));
        assert_eq!(c.instance(), Some(InstanceId(7)));
    }

    #[test]
    fn validated_connection_sends_directly_then_devalidates() {
        let mut c = LambdaConn::new(LambdaId(1));
        c.send(get("a"));
        c.on_pong(InstanceId(1), 0);
        // Validate again via a pong with no queue → Validated.
        let fx = c.on_pong(InstanceId(1), 0);
        assert!(fx.is_empty());
        assert_eq!(c.state(), (Liveness::Active, Validity::Validated));
        let fx = c.send(get("b"));
        assert_eq!(fx, vec![ConnEffect::Emit(get("b"))]);
        assert_eq!(c.state(), (Liveness::Active, Validity::Unvalidated));
    }

    #[test]
    fn active_unvalidated_send_pings_first() {
        let mut c = LambdaConn::new(LambdaId(2));
        c.send(get("a"));
        c.on_pong(InstanceId(1), 0); // Active, Unvalidated
        let fx = c.send(get("b"));
        assert_eq!(fx, vec![ConnEffect::Ping]);
        assert_eq!(c.state(), (Liveness::Active, Validity::Validating));
        let fx = c.on_pong(InstanceId(1), 0);
        assert_eq!(fx, vec![ConnEffect::Emit(get("b"))]);
    }

    #[test]
    fn bye_sleeps_and_reinvokes_if_backlogged() {
        let mut c = LambdaConn::new(LambdaId(3));
        c.send(get("a"));
        c.on_pong(InstanceId(1), 0);
        // Idle bye: back to sleeping.
        assert!(c.on_bye(InstanceId(1)).is_empty());
        assert_eq!(c.state(), (Liveness::Sleeping, Validity::Unvalidated));
        // Bye racing a fresh request: re-invoke.
        c.send(get("b"));
        c.on_pong(InstanceId(1), 0);
        c.send(get("c")); // queues, pings
        let fx = c.on_bye(InstanceId(1));
        assert_eq!(fx, vec![ConnEffect::Invoke]);
        assert_eq!(c.state(), (Liveness::Sleeping, Validity::Validating));
    }

    #[test]
    fn reset_requeues_failed_message_first() {
        let mut c = LambdaConn::new(LambdaId(4));
        c.send(get("a"));
        c.on_pong(InstanceId(1), 0);
        c.on_pong(InstanceId(1), 0); // validated
        c.send(get("b")); // emitted directly
                          // ...but the instance died; world reports the failure.
        let fx = c.on_reset(Some(get("b")));
        assert_eq!(fx, vec![ConnEffect::Invoke]);
        let fx = c.on_pong(InstanceId(2), 0);
        assert_eq!(fx, vec![ConnEffect::Emit(get("b"))]);
        assert_eq!(c.instance(), Some(InstanceId(2)));
    }

    /// The double-invoke regression (found by the netbench 4 MiB sweep):
    /// while a re-invocation is in flight, further bounces and stale
    /// BYEs must requeue/no-op, never issue a second Invoke — the
    /// platform would route it to a concurrent *empty* instance whose
    /// PONG then orphans the woken instance's entire cache.
    #[test]
    fn resets_and_byes_during_an_inflight_invoke_do_not_double_invoke() {
        let mut c = LambdaConn::new(LambdaId(9));
        c.send(get("a"));
        c.on_pong(InstanceId(1), 0);
        c.on_pong(InstanceId(1), 0); // validated
        c.send(get("b")); // emitted directly
        let fx = c.on_reset(Some(get("b")));
        assert_eq!(fx, vec![ConnEffect::Invoke], "first reset re-invokes");
        // A second message that was in flight to the dead instance
        // bounces while the invoke is pending: requeue only.
        assert!(c.on_reset(Some(get("c"))).is_empty());
        // The dead instance's stale BYE arrives too: no-op.
        assert!(c.on_bye(InstanceId(1)).is_empty());
        assert_eq!(c.state(), (Liveness::Sleeping, Validity::Validating));
        // The invoke's PONG flushes everything in order.
        let fx = c.on_pong(InstanceId(2), 0);
        assert_eq!(
            fx,
            vec![ConnEffect::Emit(get("c")), ConnEffect::Emit(get("b"))]
        );
    }

    #[test]
    fn warmup_only_touches_sleeping_idle_connections() {
        let mut c = LambdaConn::new(LambdaId(5));
        assert_eq!(c.warmup(), vec![ConnEffect::Invoke]);
        // Already validating: no duplicate invoke.
        assert!(c.warmup().is_empty());
        c.on_pong(InstanceId(1), 0);
        // Active: nothing to warm.
        assert!(c.warmup().is_empty());
    }

    #[test]
    fn maybe_state_ignores_the_replaced_source() {
        let mut c = LambdaConn::new(LambdaId(6));
        c.send(get("a"));
        c.on_pong(InstanceId(1), 0); // source λs active
                                     // Backup replaces the connection with λd (instance 2).
        let fx = c.replace_with(InstanceId(2));
        assert!(fx.is_empty());
        assert_eq!(c.state(), (Liveness::Maybe, Validity::Validated));
        // The old source's BYE is ignored.
        assert!(c.on_bye(InstanceId(1)).is_empty());
        assert_eq!(c.state(), (Liveness::Maybe, Validity::Validated));
        // Requests flow to the destination.
        let fx = c.send(get("b"));
        assert_eq!(fx, vec![ConnEffect::Emit(get("b"))]);
        // The destination's BYE ends the Maybe episode.
        let fx = c.on_bye(InstanceId(2));
        assert!(fx.is_empty());
        assert_eq!(c.state(), (Liveness::Sleeping, Validity::Unvalidated));
    }

    #[test]
    fn lazy_deletes_flush_before_traffic() {
        let mut c = LambdaConn::new(LambdaId(7));
        c.queue_delete(ChunkId::new(ObjectKey::new("dead"), 0));
        let fx = c.send(get("live"));
        assert_eq!(fx, vec![ConnEffect::Invoke]);
        let fx = c.on_pong(InstanceId(1), 0);
        assert!(matches!(fx[0], ConnEffect::Emit(Msg::ChunkDelete { .. })));
        assert!(matches!(fx[1], ConnEffect::Emit(Msg::ChunkGet { .. })));
    }

    #[test]
    fn put_data_queues_like_any_request() {
        let mut c = LambdaConn::new(LambdaId(8));
        let put = Msg::ChunkPut {
            id: ChunkId::new(ObjectKey::new("p"), 0),
            payload: Payload::synthetic(64),
            epoch: 1,
        };
        c.send(put.clone());
        let fx = c.on_pong(InstanceId(1), 128);
        assert_eq!(fx.len(), 1);
        assert!(matches!(&fx[0], ConnEffect::Emit(Msg::ChunkPut { .. })));
        assert_eq!(c.reported_bytes, 128);
    }
}
