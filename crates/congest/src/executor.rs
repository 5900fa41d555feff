//! Round-loop execution strategies behind the [`Executor`] seam.
//!
//! The [`Simulator`](crate::Simulator) owns the *what* of a run (topology,
//! node state machines, metrics); an [`Executor`] owns the *how* of driving
//! the synchronous send → deliver → receive loop.  Two strategies ship
//! today:
//!
//! * [`SequentialExecutor`] — the reference implementation: one thread, one
//!   pass over the active set per phase.
//! * [`ShardedExecutor`] — runs a [`ShardedTopology`]: one worker per
//!   shard, each owning its shard's inbox slots outright (no shared arena
//!   lock); only cross-shard messages travel, through per-shard-pair
//!   staging queues.  See the protocol below.
//!   [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel) runs this
//!   executor over a topology sharded into one shard per thread.
//!
//! Both strategies share the per-run [`RoundState`] arena and are required
//! to be *bit-for-bit equivalent*: same outputs, same metrics (up to
//! wall-clock phase timings), regardless of shard count.  Tests assert
//! this.
//!
//! # The zero-allocation round loop
//!
//! All per-round buffers live in [`RoundState`], allocated once per run and
//! recycled every round:
//!
//! * **Inbox slots** — a flat, CSR-indexed arena with one slot per directed
//!   edge, pre-sized from the [`Topology`] offsets.  A message from `v`
//!   over port `p` lands in the slot of the reverse port at the receiving
//!   endpoint; a node's inbox is a zero-copy [`Inbox`] view of its slot
//!   range.  Only the slots actually filled in a round (tracked in a
//!   `touched` list) are cleared afterwards, so quiet rounds cost `O(active)`
//!   rather than `O(n + m)`.
//! * **Active-set compaction** — the engine iterates a compact list of
//!   still-active node ids and shrinks it as nodes halt, so halted nodes
//!   stop costing even an `is_halted()` check per round.
//! * **Outbox staging** — send results are staged in reusable buffers whose
//!   capacity persists across rounds.
//!
//! # Sharded delivery protocol
//!
//! The [`ShardedExecutor`] spawns one worker per shard of a
//! [`ShardedTopology`].  Worker `w` owns, exclusively and lock-free, the
//! slice of inbox slots belonging to shard `w`'s nodes (the arena's flat
//! slot vector is split by the shard slot ranges), so **every write to a
//! slot is performed by the worker that owns it**.  The workers and the
//! coordinator (the calling thread) cross four barriers per round, A to D.
//! Cross-shard messages travel through a pluggable [`Transport`] (see
//! [`crate::transport`]):
//!
//! 1. **Send + route + flush** (barrier A → B): worker `w` clears its
//!    slots touched last round, runs the send phase for its active nodes,
//!    and routes each message via the topology's precomputed
//!    [`dest_slot`](ShardedTopology::dest_slot) remap table — intra-shard
//!    messages are written straight into `w`'s own slots, cross-shard
//!    messages are staged on the transport (`Transport::stage`).  At the
//!    send barrier the worker flushes its staged batches
//!    (`Transport::flush`): the in-process backend is a no-op, socket
//!    backends seal one wire frame per destination shard.  Message and
//!    bit accounting is charged here, split into intra-/cross-shard
//!    counters; flushed wire bytes and flush time are recorded in
//!    `RunMetrics::{wire_bytes_sent,transport_flush_nanos}`.
//! 2. **Cross-shard drain** (B → C): worker `w` drains every `x → w`
//!    channel into its own slots (`Transport::drain`).  For the
//!    in-process backend the channels are `Mutex`-guarded queues,
//!    uncontended by construction: `x → w` is written only by `x` in
//!    phase 1 and read only by `w` in phase 2, with a barrier in between.
//!    Under [`DeliveryMode::Strict`] (the default) a second write to a
//!    slot is a CONGEST violation and panics; under
//!    [`DeliveryMode::Async`] — used by fault-injected runs whose
//!    transport may deliver stale, duplicated or delayed copies — the
//!    slot keeps the **most recently drained** message and the overwrite
//!    is counted in `RunMetrics::stale_overwrites`.
//! 3. **Receive** (C → D): worker `w` hands its nodes their inbox views
//!    (plain slices of its own slots), compacts its active list and
//!    publishes the count (barrier D); the coordinator sums counts and
//!    decides the next round, publishing it before barrier A.
//!
//! Per-worker message/bit/phase-time counters are merged into
//! [`RunMetrics`] in shard order when the run ends, so the totals are
//! deterministic; `RunMetrics::shard_phase_nanos` additionally keeps the
//! per-shard phase times, and the intra/cross split is reported in
//! `RunMetrics::{intra,cross}_shard_messages`.
//!
//! A panic in any phase (user algorithm code, delivery validation or a
//! transport error) poisons the barrier, so every party unwinds at the same
//! crossing and the original panic is re-thrown — never a deadlocked
//! barrier (see `PhaseSync`).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::algorithm::{Inbox, MessageSize, NodeAlgorithm, NodeContext, Outbox};
use crate::metrics::{PhaseTimings, RunMetrics};
use crate::sharded::{ShardTopologyView, ShardedTopology};
use crate::topology::{NodeId, Port, Topology, TopologyView};
use crate::trace::{TraceEvent, TracePhase, TraceSink};
use crate::transport::{InProcess, Transport, TransportBuilder};

/// The reusable per-run arena of the round engine.
///
/// Holds every buffer the round loop needs — inbox slots, the touched-slot
/// list, the compact active set and the outbox staging buffer — so that a
/// run performs no per-round allocations after the first few rounds.  See
/// the [module docs](self) for the layout.
#[derive(Debug)]
pub struct RoundState<M> {
    /// One inbox slot per directed edge, CSR-indexed: node `v`'s ports
    /// occupy `topology.port_range(v)`.
    slots: Vec<Option<M>>,
    /// Indices of slots filled during the current round's delivery; cleared
    /// (and only these are cleared) before the next delivery.
    touched: Vec<usize>,
    /// Compact list of currently-active node ids (sequential executor).
    active: Vec<NodeId>,
    /// Staged `(sender, outbox)` pairs of the current round (sequential
    /// executor).
    staged: Vec<(NodeId, Outbox<M>)>,
}

impl<M> Default for RoundState<M> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            touched: Vec::new(),
            active: Vec::new(),
            staged: Vec::new(),
        }
    }
}

impl<M: MessageSize + Clone> RoundState<M> {
    /// Creates an arena pre-sized for `topology`: one inbox slot per
    /// directed edge.
    pub fn new(topology: &impl TopologyView) -> Self {
        Self {
            slots: (0..topology.num_directed_edges()).map(|_| None).collect(),
            touched: Vec::new(),
            active: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// The inbox view of node `v`: one slot per port, in port order.
    pub fn inbox<'a>(&'a self, topology: &impl TopologyView, v: NodeId) -> Inbox<'a, M> {
        Inbox::from_slots(&self.slots[topology.port_range(v)])
    }

    /// Clears the slots filled by the previous round's delivery.
    fn clear_round(&mut self) {
        for i in self.touched.drain(..) {
            self.slots[i] = None;
        }
    }

    /// Delivers one node's outbox into the arena, charging every transmitted
    /// message to `metrics` (including messages addressed to halted
    /// receivers — see the accounting semantics in [`crate::algorithm`]).
    ///
    /// # Panics
    ///
    /// Panics if the outbox names a nonexistent port or sends two messages
    /// over the same port in one round (the CONGEST model allows one message
    /// per edge per round).
    fn deliver(
        &mut self,
        topology: &impl TopologyView,
        v: NodeId,
        outbox: Outbox<M>,
        metrics: &mut RunMetrics,
    ) {
        match outbox {
            Outbox::Silent => {}
            Outbox::Broadcast(msg) => {
                for p in 0..topology.degree(v) {
                    let u = topology.neighbor_at(v, p);
                    let rp = topology.reverse_port(v, p);
                    metrics.record_message(msg.bit_size());
                    self.fill(topology.port_range(u).start + rp, msg.clone(), v);
                }
            }
            Outbox::PerPort(list) => {
                for (p, msg) in list {
                    assert!(
                        p < topology.degree(v),
                        "node {v} sent on nonexistent port {p}"
                    );
                    let u = topology.neighbor_at(v, p);
                    let rp = topology.reverse_port(v, p);
                    metrics.record_message(msg.bit_size());
                    self.fill(topology.port_range(u).start + rp, msg, v);
                }
            }
        }
    }

    fn fill(&mut self, slot: usize, msg: M, sender: NodeId) {
        let entry = &mut self.slots[slot];
        assert!(
            entry.is_none(),
            "node {sender} sent two messages over the same port in one round"
        );
        *entry = Some(msg);
        self.touched.push(slot);
    }
}

/// A strategy for driving the synchronous round loop on a topology
/// representation `T`.
///
/// The trait is generic over [`TopologyView`] so a strategy can either work
/// with any representation ([`SequentialExecutor`] implements
/// `Executor<T>` for every `T: TopologyView`) or demand a specific
/// one ([`ShardedExecutor`] implements only `Executor<ShardedTopology>`,
/// because it needs the shard layout).
///
/// Implementations must uphold the engine contract:
///
/// * rounds are globally synchronous — all sends of round `r` complete
///   before any delivery, all deliveries before any receive;
/// * the result is bit-for-bit identical to [`SequentialExecutor`] (outputs
///   and all metrics except wall-clock [`PhaseTimings`]);
/// * on return, `metrics.rounds`, `metrics.hit_round_cap`,
///   `metrics.active_per_round` and `metrics.phase_nanos` are filled in;
/// * `tracer` is observed **out-of-band** (see [`crate::trace`]): the
///   executor reports run / round / phase / shard events into it but must
///   never let the sink influence the run — attaching any sink leaves
///   outputs and metrics bit-for-bit unchanged.  When
///   [`TraceSink::enabled`] is `false` (the [`crate::trace::NoTrace`]
///   default) no events are constructed at all.
pub trait Executor<T: TopologyView = Topology> {
    /// Drives `nodes` (already initialised) to completion or to `max_rounds`.
    #[allow(clippy::too_many_arguments)]
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &T,
        nodes: &mut [A],
        contexts: &[NodeContext],
        state: &mut RoundState<A::Message>,
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    );
}

/// The reference executor: one thread, one pass over the active set per
/// phase.  Trivially deterministic; every other executor is tested against
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl<T: TopologyView> Executor<T> for SequentialExecutor {
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &T,
        nodes: &mut [A],
        contexts: &[NodeContext],
        state: &mut RoundState<A::Message>,
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    ) {
        // Hoisted once: with the no-op sink every `if traced` below is a
        // never-taken branch on a local — no event is ever constructed.
        let traced = tracer.enabled();
        if traced {
            tracer.emit(&TraceEvent::RunStart {
                nodes: nodes.len(),
                shards: 1,
            });
        }
        let mut active = std::mem::take(&mut state.active);
        active.clear();
        active.extend((0..nodes.len()).filter(|&v| !nodes[v].is_halted()));

        let mut round: u64 = 0;
        loop {
            if active.is_empty() {
                break;
            }
            if round >= max_rounds {
                metrics.hit_round_cap = true;
                break;
            }
            metrics.active_per_round.push(active.len());
            if traced {
                tracer.emit(&TraceEvent::RoundStart {
                    round,
                    active: active.len(),
                });
                tracer.emit(&TraceEvent::PhaseStart {
                    round,
                    shard: 0,
                    phase: TracePhase::Send,
                });
            }

            // --- Send phase ---------------------------------------------
            let t = Instant::now();
            let mut staged = std::mem::take(&mut state.staged);
            for &v in &active {
                let ctx = NodeContext {
                    round,
                    ..contexts[v]
                };
                let outbox = nodes[v].send(&ctx);
                if !outbox.is_silent() {
                    staged.push((v, outbox));
                }
            }
            let send_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.send += send_d;
            if traced {
                tracer.emit(&TraceEvent::PhaseEnd {
                    round,
                    shard: 0,
                    phase: TracePhase::Send,
                    nanos: send_d,
                });
                tracer.emit(&TraceEvent::PhaseStart {
                    round,
                    shard: 0,
                    phase: TracePhase::Deliver,
                });
            }

            // --- Delivery -----------------------------------------------
            let t = Instant::now();
            let (m0, b0) = (metrics.messages, metrics.total_bits);
            state.clear_round();
            for (v, outbox) in staged.drain(..) {
                state.deliver(topology, v, outbox, metrics);
            }
            state.staged = staged;
            let deliver_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.deliver += deliver_d;
            if traced {
                tracer.emit(&TraceEvent::PhaseEnd {
                    round,
                    shard: 0,
                    phase: TracePhase::Deliver,
                    nanos: deliver_d,
                });
                tracer.emit(&TraceEvent::ShardRound {
                    round,
                    shard: 0,
                    messages: metrics.messages - m0,
                    bits: metrics.total_bits - b0,
                    cross: 0,
                });
                tracer.emit(&TraceEvent::PhaseStart {
                    round,
                    shard: 0,
                    phase: TracePhase::Receive,
                });
            }

            // --- Receive phase ------------------------------------------
            let t = Instant::now();
            for &v in &active {
                let ctx = NodeContext {
                    round,
                    ..contexts[v]
                };
                let inbox = state.inbox(topology, v);
                nodes[v].receive(&ctx, &inbox);
            }
            active.retain(|&v| !nodes[v].is_halted());
            let receive_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.receive += receive_d;
            if traced {
                tracer.emit(&TraceEvent::PhaseEnd {
                    round,
                    shard: 0,
                    phase: TracePhase::Receive,
                    nanos: receive_d,
                });
                tracer.emit(&TraceEvent::RoundEnd {
                    round,
                    active: active.len(),
                    nanos: send_d + deliver_d + receive_d,
                });
            }

            round += 1;
        }

        if traced {
            tracer.emit(&TraceEvent::RunEnd { rounds: round });
        }
        metrics.rounds = round;
        state.active = active;
    }
}

/// Per-round signals published by the coordinator before barrier A.
struct RoundSignal {
    round: AtomicU64,
    stop: AtomicBool,
}

/// Barrier synchronisation with panic poisoning.
///
/// Every phase body runs inside [`PhaseSync::guard`]; a panic is captured,
/// the run is flagged as poisoned, and the panicking party still reaches
/// its next barrier.  The first captured payload is re-thrown to the caller
/// by [`PhaseSync::rethrow`].
///
/// The barrier is hand-rolled (generation-counted mutex + condvar) rather
/// than [`std::sync::Barrier`] because the poison verdict must be decided
/// **at the instant a crossing completes** and stamped into that
/// generation.  Reading an atomic flag *after* a standard barrier crossing
/// is racy: a descheduled party could perform its read only after a later
/// phase has already poisoned the run, see a different verdict than its
/// peers, and exit early — leaving the remaining parties deadlocked at the
/// next crossing.  With a per-generation verdict every party of a crossing
/// observes the same decision no matter when it wakes, so all parties
/// always exit at the same crossing.
struct PhaseSync {
    state: Mutex<SyncState>,
    cvar: Condvar,
    parties: usize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct SyncState {
    /// Parties that have arrived at the current crossing.
    arrived: usize,
    /// Completed-crossings counter.
    generation: u64,
    /// Poison verdict of the most recently completed crossing.
    verdict_poisoned: bool,
}

impl PhaseSync {
    fn new(parties: usize) -> Self {
        Self {
            state: Mutex::new(SyncState {
                arrived: 0,
                generation: 0,
                verdict_poisoned: false,
            }),
            cvar: Condvar::new(),
            parties,
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Runs one phase body, capturing a panic instead of unwinding through
    /// the barrier.  `AssertUnwindSafe` is sound here because after a poisoning
    /// panic the possibly-inconsistent node/arena state is never touched
    /// again: every party exits at the next barrier and the panic is
    /// re-thrown.
    fn guard(&self, body: impl FnOnce()) {
        if self.poisoned.load(Ordering::SeqCst) {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
            self.poisoned.store(true, Ordering::SeqCst);
        }
    }

    /// Crosses the barrier; returns `false` if the run was poisoned when
    /// the crossing completed.  The verdict is stamped per generation, so
    /// every party of one crossing gets the same answer and all parties
    /// exit the protocol at the same crossing.
    fn sync(&self) -> bool {
        // No user code runs under this lock, so it cannot be poisoned; the
        // `unwrap_or_else` is belt and braces.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            st.verdict_poisoned = self.poisoned.load(Ordering::SeqCst);
            let verdict = st.verdict_poisoned;
            drop(st);
            self.cvar.notify_all();
            !verdict
        } else {
            while st.generation == generation {
                st = self.cvar.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            // `verdict_poisoned` still belongs to our generation: the next
            // crossing cannot complete (and overwrite it) before this party
            // calls `sync` again.
            !st.verdict_poisoned
        }
    }

    /// Re-throws the first captured panic, if any.
    fn rethrow(&self) {
        let payload = self.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// The shard-owning executor: one worker per shard of a [`ShardedTopology`],
/// each with exclusive, lock-free ownership of its shard's inbox slots;
/// cross-shard messages travel through a pluggable [`Transport`] backend.
/// See the [module docs](self) for the delivery protocol.  Bit-for-bit
/// equivalent to [`SequentialExecutor`] on the same topology (outputs and
/// all logical counters; `wire_bytes_sent` / `transport_flush_nanos`
/// describe the backend and are exempt, like wall-clock timings).
///
/// The default backend is [`InProcess`] (shared-memory staging queues);
/// [`ShardedExecutor::with_transport`] selects another, e.g.
/// [`SocketLoopback`](crate::transport::SocketLoopback) to push every
/// cross-shard message through a wire-encoded kernel socket.
///
/// Unlike [`SequentialExecutor`] this one is tied to `ShardedTopology` (it
/// implements only `Executor<ShardedTopology>`): the shard layout *is* its
/// parallelisation strategy, so it takes no thread-count parameter — the
/// topology's shard count decides.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedExecutor<B: TransportBuilder = InProcess> {
    builder: B,
    delivery: DeliveryMode,
}

/// How the sharded delivery phase treats a message arriving at an
/// already-occupied inbox slot.
///
/// In the fault-free CONGEST model at most one message crosses an edge per
/// round, so an occupied slot can only mean an algorithm bug —
/// [`DeliveryMode::Strict`] therefore panics.  A fault-injecting transport
/// (see [`crate::faults`]) deliberately breaks that assumption: it may
/// deliver a stale copy carried across a round boundary *and* the fresh
/// message of the current round over the same edge.  [`DeliveryMode::Async`]
/// models an asynchronous link for exactly that case: the slot keeps the
/// most recently drained message (transports drain stale copies before
/// fresh ones, so "newest wins") and every overwrite is counted in
/// [`RunMetrics::stale_overwrites`](crate::RunMetrics::stale_overwrites).
/// Algorithms declare whether they tolerate this regime via
/// [`NodeAlgorithm::tolerates_async_delivery`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Barrier-synchronous delivery: a second write to a slot panics
    /// (the fault-free CONGEST contract).
    #[default]
    Strict,
    /// Asynchronous delivery: a second write replaces the slot's message
    /// and is counted as a stale overwrite.
    Async,
}

impl ShardedExecutor<InProcess> {
    /// Creates the executor with the in-process (shared-memory) transport.
    pub fn new() -> Self {
        Self {
            builder: InProcess,
            delivery: DeliveryMode::Strict,
        }
    }
}

impl<B: TransportBuilder> ShardedExecutor<B> {
    /// Creates the executor over an explicit transport backend.
    pub fn with_transport(builder: B) -> Self {
        Self {
            builder,
            delivery: DeliveryMode::Strict,
        }
    }

    /// Selects the delivery mode (strict by default); see [`DeliveryMode`].
    pub fn with_delivery(mut self, delivery: DeliveryMode) -> Self {
        self.delivery = delivery;
        self
    }
}

/// Per-worker accounting of a sharded run.  Workers fill a local copy and
/// publish it when they exit; the coordinator merges the reports **in shard
/// order**, so every total in [`RunMetrics`] is deterministic.  Also reused
/// by the remote worker protocol in [`crate::transport`].
#[derive(Debug, Default)]
pub(crate) struct ShardReport {
    pub(crate) messages: u64,
    pub(crate) total_bits: u64,
    pub(crate) max_message_bits: u64,
    pub(crate) intra: u64,
    pub(crate) cross: u64,
    pub(crate) wire_bytes: u64,
    pub(crate) flush_nanos: u64,
    pub(crate) syscall_batches: u64,
    pub(crate) stale_overwrites: u64,
    pub(crate) timings: PhaseTimings,
}

impl ShardReport {
    fn record(&mut self, bits: u64) {
        self.messages += 1;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
    }
}

impl<B: TransportBuilder> Executor<ShardedTopology> for ShardedExecutor<B> {
    fn drive<A: NodeAlgorithm>(
        &self,
        topology: &ShardedTopology,
        nodes: &mut [A],
        contexts: &[NodeContext],
        state: &mut RoundState<A::Message>,
        max_rounds: u64,
        metrics: &mut RunMetrics,
        tracer: &dyn TraceSink,
    ) {
        let shard_count = topology.num_shards();
        assert_eq!(
            state.slots.len(),
            topology.num_directed_edges(),
            "arena must be pre-sized for this topology"
        );
        if tracer.enabled() {
            tracer.emit(&TraceEvent::RunStart {
                nodes: nodes.len(),
                shards: shard_count,
            });
        }
        // Workers track touched slots locally (in shard-local indices), so
        // any global bookkeeping left in a reused arena is retired first.
        state.clear_round();

        let signal = RoundSignal {
            round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        };
        let sync = PhaseSync::new(shard_count + 1);
        let transport = self
            .builder
            .build::<A::Message>(topology)
            .unwrap_or_else(|e| panic!("failed to build the cross-shard transport: {e}"));
        let active_counts: Vec<AtomicUsize> =
            (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let reports: Vec<Mutex<ShardReport>> = (0..shard_count)
            .map(|_| Mutex::new(ShardReport::default()))
            .collect();

        std::thread::scope(|scope| {
            // Hand each worker the exclusive slices it owns: its shard's
            // nodes, contexts and inbox slots (consecutive by the flat slot
            // contract, so a split_at_mut chain suffices).
            let mut rest_slots: &mut [Option<A::Message>] = &mut state.slots;
            let mut rest_nodes: &mut [A] = nodes;
            let mut rest_ctxs: &[NodeContext] = contexts;
            for s in 0..shard_count {
                let node_range = topology.shard_nodes(s);
                let slot_range = topology.shard_slots(s);
                let (my_slots, tail) = rest_slots.split_at_mut(slot_range.len());
                rest_slots = tail;
                let (my_nodes, tail) = rest_nodes.split_at_mut(node_range.len());
                rest_nodes = tail;
                let (my_ctxs, tail) = rest_ctxs.split_at(node_range.len());
                rest_ctxs = tail;
                let (signal, sync, transport) = (&signal, &sync, &transport);
                let (active_count, report) = (&active_counts[s], &reports[s]);
                let delivery = self.delivery;
                scope.spawn(move || {
                    sharded_worker_loop(
                        topology,
                        s,
                        my_nodes,
                        my_ctxs,
                        node_range.start,
                        my_slots,
                        slot_range.start,
                        signal,
                        sync,
                        transport,
                        delivery,
                        active_count,
                        report,
                        tracer,
                    );
                });
            }
            sharded_coordinate(&signal, &sync, &active_counts, max_rounds, metrics, tracer);
        });

        for report in &reports {
            let r = report.lock().unwrap_or_else(|e| e.into_inner());
            metrics.messages += r.messages;
            metrics.total_bits += r.total_bits;
            metrics.max_message_bits = metrics.max_message_bits.max(r.max_message_bits);
            metrics.intra_shard_messages += r.intra;
            metrics.cross_shard_messages += r.cross;
            metrics.wire_bytes_sent += r.wire_bytes;
            metrics.transport_flush_nanos += r.flush_nanos;
            metrics.syscall_batches += r.syscall_batches;
            metrics.stale_overwrites += r.stale_overwrites;
            metrics.shard_phase_nanos.push(r.timings);
        }
        if tracer.enabled() {
            tracer.emit(&TraceEvent::RunEnd {
                rounds: metrics.rounds,
            });
        }
        sync.rethrow();
    }
}

/// Writes `msg` into the worker-owned slot `local`, enforcing the one
/// message per edge per round CONGEST contract.
pub(crate) fn fill_shard_slot<M>(
    slots: &mut [Option<M>],
    local: usize,
    msg: M,
    sender: NodeId,
    touched: &mut Vec<usize>,
) {
    let entry = &mut slots[local];
    assert!(
        entry.is_none(),
        "node {sender} sent two messages over the same port in one round"
    );
    *entry = Some(msg);
    touched.push(local);
}

/// Routes one node's outbox: intra-shard messages go straight into the
/// worker's own slots, cross-shard ones to the `cross` sink (the transport's
/// staging in the executor, a wire-frame batch in the remote worker).
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_outbox<M: MessageSize + Clone>(
    topology: &impl ShardTopologyView,
    shard: usize,
    v: NodeId,
    outbox: Outbox<M>,
    slots: &mut [Option<M>],
    slot_base: usize,
    touched: &mut Vec<usize>,
    report: &mut ShardReport,
    cross: &mut impl FnMut(u32, u32, M),
) {
    let slot_end = slot_base + slots.len();
    // The sender's shard is the calling worker's own, so every per-message
    // lookup below skips the `shard_of` search; only cross-shard messages
    // still resolve the receiving shard (over `S` entries).
    let degree = topology.degree_from(shard, v);
    let mut route_one = |p: Port, msg: M, report: &mut ShardReport| {
        let dest = topology.dest_slot_from(shard, v, p);
        report.record(msg.bit_size());
        if (slot_base..slot_end).contains(&dest) {
            report.intra += 1;
            fill_shard_slot(slots, dest - slot_base, msg, v, touched);
        } else {
            report.cross += 1;
            cross(dest as u32, v as u32, msg);
        }
    };
    match outbox {
        Outbox::Silent => {}
        Outbox::Broadcast(msg) => {
            for p in 0..degree {
                route_one(p, msg.clone(), report);
            }
        }
        Outbox::PerPort(list) => {
            for (p, msg) in list {
                assert!(p < degree, "node {v} sent on nonexistent port {p}");
                route_one(p, msg, report);
            }
        }
    }
}

/// The per-worker half of the sharded protocol (see the [module
/// docs](self)): owns shard `shard`'s nodes and inbox slots for the whole
/// run.
#[allow(clippy::too_many_arguments)]
fn sharded_worker_loop<A: NodeAlgorithm, X: Transport<A::Message>>(
    topology: &ShardedTopology,
    shard: usize,
    nodes: &mut [A],
    contexts: &[NodeContext],
    node_base: NodeId,
    slots: &mut [Option<A::Message>],
    slot_base: usize,
    signal: &RoundSignal,
    sync: &PhaseSync,
    transport: &X,
    delivery: DeliveryMode,
    active_count: &AtomicUsize,
    report: &Mutex<ShardReport>,
    tracer: &dyn TraceSink,
) {
    let traced = tracer.enabled();
    if traced {
        tracer.emit(&TraceEvent::WorkerStart { shard });
    }
    let mut active: Vec<NodeId> = Vec::new();
    let mut touched: Vec<usize> = Vec::new(); // shard-local slot indices
    let mut local = ShardReport::default();

    sync.guard(|| {
        active.extend(
            (0..nodes.len())
                .filter(|&i| !nodes[i].is_halted())
                .map(|i| node_base + i),
        );
        active_count.store(active.len(), Ordering::SeqCst);
    });
    if sync.sync() {
        // ready barrier crossed: initial active counts are published
        loop {
            if !sync.sync() {
                break; // A: round decision published
            }
            if signal.stop.load(Ordering::SeqCst) {
                break;
            }
            let round = signal.round.load(Ordering::SeqCst);

            // --- Send + route: clear own slots, stage this round's
            // messages, flush the transport at the send barrier ---------------
            sync.guard(|| {
                if traced {
                    tracer.emit(&TraceEvent::PhaseStart {
                        round,
                        shard,
                        phase: TracePhase::Send,
                    });
                }
                let (m0, b0, c0) = (local.messages, local.total_bits, local.cross);
                let t = Instant::now();
                for i in touched.drain(..) {
                    slots[i] = None;
                }
                for &v in &active {
                    let ctx = NodeContext {
                        round,
                        ..contexts[v - node_base]
                    };
                    let outbox = nodes[v - node_base].send(&ctx);
                    route_outbox(
                        topology,
                        shard,
                        v,
                        outbox,
                        slots,
                        slot_base,
                        &mut touched,
                        &mut local,
                        &mut |slot, sender, msg| {
                            let target = topology.shard_of_slot(slot as usize);
                            transport.stage(shard, target, slot, sender, msg);
                        },
                    );
                }
                let send_d = t.elapsed().as_nanos() as u64;
                local.timings.send += send_d;
                let w0 = local.wire_bytes;
                let t = Instant::now();
                local.wire_bytes += transport.flush(shard, round);
                let flush_d = t.elapsed().as_nanos() as u64;
                local.flush_nanos += flush_d;
                if traced {
                    tracer.emit(&TraceEvent::PhaseEnd {
                        round,
                        shard,
                        phase: TracePhase::Send,
                        nanos: send_d,
                    });
                    tracer.emit(&TraceEvent::ShardRound {
                        round,
                        shard,
                        messages: local.messages - m0,
                        bits: local.total_bits - b0,
                        cross: local.cross - c0,
                    });
                    tracer.emit(&TraceEvent::ShardFlush {
                        round,
                        shard,
                        wire_bytes: local.wire_bytes - w0,
                        nanos: flush_d,
                    });
                }
            });
            if !sync.sync() {
                break; // B: all routing staged and flushed
            }

            // --- Drain the incoming cross-shard channels into own slots ------
            sync.guard(|| {
                if traced {
                    tracer.emit(&TraceEvent::PhaseStart {
                        round,
                        shard,
                        phase: TracePhase::Deliver,
                    });
                }
                let t = Instant::now();
                let s0 = local.stale_overwrites;
                transport
                    .drain(shard, round, &mut |slot, sender, msg| {
                        let li = slot as usize - slot_base;
                        match delivery {
                            DeliveryMode::Strict => {
                                fill_shard_slot(slots, li, msg, sender as usize, &mut touched)
                            }
                            DeliveryMode::Async => {
                                // Newest wins: transports drain stale copies
                                // before the current round's messages.
                                if slots[li].replace(msg).is_some() {
                                    local.stale_overwrites += 1;
                                } else {
                                    touched.push(li);
                                }
                            }
                        }
                    })
                    .unwrap_or_else(|e| panic!("cross-shard transport failed: {e}"));
                let drain_d = t.elapsed().as_nanos() as u64;
                local.timings.deliver += drain_d;
                if traced {
                    tracer.emit(&TraceEvent::ShardDrain {
                        round,
                        shard,
                        nanos: drain_d,
                        stale: local.stale_overwrites - s0,
                    });
                    tracer.emit(&TraceEvent::PhaseEnd {
                        round,
                        shard,
                        phase: TracePhase::Deliver,
                        nanos: drain_d,
                    });
                }
            });
            if !sync.sync() {
                break; // C: every slot of this round is in place
            }

            // --- Receive + compact -------------------------------------------
            sync.guard(|| {
                if traced {
                    tracer.emit(&TraceEvent::PhaseStart {
                        round,
                        shard,
                        phase: TracePhase::Receive,
                    });
                }
                let t = Instant::now();
                for &v in &active {
                    let ctx = NodeContext {
                        round,
                        ..contexts[v - node_base]
                    };
                    let r = topology.port_range(v);
                    let inbox = Inbox::from_slots(&slots[r.start - slot_base..r.end - slot_base]);
                    nodes[v - node_base].receive(&ctx, &inbox);
                }
                active.retain(|&v| !nodes[v - node_base].is_halted());
                active_count.store(active.len(), Ordering::SeqCst);
                let receive_d = t.elapsed().as_nanos() as u64;
                local.timings.receive += receive_d;
                if traced {
                    tracer.emit(&TraceEvent::PhaseEnd {
                        round,
                        shard,
                        phase: TracePhase::Receive,
                        nanos: receive_d,
                    });
                }
            });
            if !sync.sync() {
                break; // D: all receives done — coordinator decides
            }
        }
    }

    // Retire this worker's final-round slots before exiting: the touched
    // list is thread-local, so anything left filled here would be invisible
    // to `RoundState::clear_round` and leak into a reused arena as phantom
    // messages.
    for i in touched.drain(..) {
        slots[i] = None;
    }
    local.syscall_batches = transport.syscall_batches(shard);
    *report.lock().unwrap_or_else(|e| e.into_inner()) = local;
    if traced {
        tracer.emit(&TraceEvent::WorkerEnd { shard });
    }
}

/// The coordinator half of the sharded protocol: decides rounds from the
/// published active counts and attributes the barrier-to-barrier windows to
/// the engine phases (A→B send + intra-shard delivery, B→C cross-shard
/// drain, C→D receive).
fn sharded_coordinate(
    signal: &RoundSignal,
    sync: &PhaseSync,
    active_counts: &[AtomicUsize],
    max_rounds: u64,
    metrics: &mut RunMetrics,
    tracer: &dyn TraceSink,
) {
    let traced = tracer.enabled();
    let mut round: u64 = 0;
    if sync.sync() {
        // ready: initial active counts are published
        loop {
            let mut proceed = false;
            sync.guard(|| {
                let total: usize = active_counts.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                if total == 0 {
                    signal.stop.store(true, Ordering::SeqCst);
                } else if round >= max_rounds {
                    metrics.hit_round_cap = true;
                    signal.stop.store(true, Ordering::SeqCst);
                } else {
                    metrics.active_per_round.push(total);
                    if traced {
                        tracer.emit(&TraceEvent::RoundStart {
                            round,
                            active: total,
                        });
                    }
                    signal.round.store(round, Ordering::SeqCst);
                    proceed = true;
                }
            });
            if !sync.sync() {
                break; // A
            }
            if !proceed {
                break;
            }

            let t = Instant::now();
            if !sync.sync() {
                break; // B: send + intra-shard delivery window
            }
            let send_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.send += send_d;

            let t = Instant::now();
            if !sync.sync() {
                break; // C: cross-shard drain window
            }
            let deliver_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.deliver += deliver_d;

            let t = Instant::now();
            if !sync.sync() {
                break; // D: receive window
            }
            let receive_d = t.elapsed().as_nanos() as u64;
            metrics.phase_nanos.receive += receive_d;
            if traced {
                // Workers stored their post-compaction counts before D and
                // won't store again until the next round's receive guard
                // (which needs this coordinator at A first) — race-free.
                let remaining: usize = active_counts.iter().map(|c| c.load(Ordering::SeqCst)).sum();
                tracer.emit(&TraceEvent::RoundEnd {
                    round,
                    active: remaining,
                    nanos: send_d + deliver_d + receive_d,
                });
            }

            round += 1;
        }
    }
    metrics.rounds = round;
}
