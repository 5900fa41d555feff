//! Property-based executor equivalence: on random topologies with random
//! halting schedules, the sequential executor and the sharded one — the
//! latter under **every transport backend** (in-process staging queues and
//! the wire-codec'd socket loopback) — must produce identical outputs,
//! round counts and message accounting.
//!
//! This is the engine contract stated in `dcme_congest::executor`: every
//! `Executor` is bit-for-bit equivalent to `SequentialExecutor` (all metrics
//! except wall-clock phase timings and the backend-describing transport
//! counters `wire_bytes_sent` / `transport_flush_nanos`).  The unit tests
//! pin it on hand-picked graphs; here it must survive arbitrary
//! `GraphFamily` workloads, thread counts, shard counts and transports.

use proptest::prelude::*;

use dcme_baselines::degree_plus_one::{self, DegreePlusOneNode};
use dcme_baselines::ultrafast::{self, UltrafastNode};
use dcme_congest::{
    ExecutionMode, FaultPlan, FaultyTransport, Inbox, NodeAlgorithm, NodeContext, Outbox,
    RecordingSink, RunOutcome, ShardedExecutor, ShardedTopology, Simulator, SimulatorConfig,
    SocketLoopback, Topology, TraceEvent, TransportBuilder,
};
use dcme_graphs::generators;

/// A deterministic workload with a per-node halting schedule: node `v`
/// broadcasts `id + round` while active, folds everything it hears into a
/// running digest, and halts after `ttl(v)` rounds — so active sets shrink
/// raggedly across worker chunk and shard boundaries.
#[derive(Clone)]
struct ScheduledGossip {
    id: u64,
    ttl: u64,
    digest: u64,
    rounds_done: u64,
}

impl ScheduledGossip {
    fn new(ttl: u64) -> Self {
        Self {
            id: 0,
            ttl,
            digest: 0,
            rounds_done: 0,
        }
    }
}

impl NodeAlgorithm for ScheduledGossip {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext) {
        self.id = ctx.node as u64;
    }

    fn send(&mut self, ctx: &NodeContext) -> Outbox<u64> {
        Outbox::Broadcast(self.id + ctx.round)
    }

    fn receive(&mut self, _ctx: &NodeContext, inbox: &Inbox<'_, u64>) {
        for (p, m) in inbox.iter() {
            self.digest = self
                .digest
                .wrapping_mul(31)
                .wrapping_add(*m)
                .wrapping_add(p as u64);
        }
        self.rounds_done += 1;
    }

    fn is_halted(&self) -> bool {
        self.rounds_done >= self.ttl
    }

    fn output(&self) -> u64 {
        self.digest
    }
}

/// Derives a ragged-but-deterministic halting schedule from one seed.
fn schedule(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|v| 1 + (v.wrapping_mul(seed | 1).wrapping_add(seed >> 3)) % 9)
        .collect()
}

fn run_with_mode(g: &Topology, ttls: &[u64], mode: ExecutionMode) -> RunOutcome<u64> {
    let config = SimulatorConfig {
        max_rounds: 1_000_000,
        mode,
    };
    let nodes: Vec<ScheduledGossip> = ttls.iter().map(|&t| ScheduledGossip::new(t)).collect();
    Simulator::with_config(g, config).run(nodes)
}

fn run_sharded<B: TransportBuilder>(
    g: &Topology,
    ttls: &[u64],
    shards: usize,
    transport: B,
) -> RunOutcome<u64> {
    let sharded = ShardedTopology::from_topology(g, shards).expect("shardable topology");
    let nodes: Vec<ScheduledGossip> = ttls.iter().map(|&t| ScheduledGossip::new(t)).collect();
    Simulator::new(&sharded).run_with_executor(nodes, &ShardedExecutor::with_transport(transport))
}

/// The four graph families the equivalence guarantee is pinned on
/// (ISSUE/DESIGN: ring, random, star, grid) — parameterized by a size knob.
fn build_graph(family: usize, size: usize, seed: u64) -> Topology {
    match family {
        0 => generators::ring(size.max(3)),
        1 => generators::random_regular(size.max(10), 4, seed),
        2 => generators::star(size.max(2)),
        _ => {
            let w = 2 + size % 7;
            generators::grid(w, size.div_ceil(w).max(1), size % 2 == 0)
        }
    }
}

/// Runs one seeded randomized baseline on every executor and transport
/// backend and asserts the runs are bit-identical to the sequential
/// reference — the engine contract applied to *randomized* algorithms,
/// which holds because their randomness is drawn from stateless
/// `(seed, node, round)` streams, never from execution history.
fn assert_randomized_equivalence<A, F>(g: &Topology, shards: usize, threads: usize, cap: u64, mk: F)
where
    A: NodeAlgorithm<Output = Option<u64>>,
    F: Fn() -> Vec<A>,
{
    let seq_config = SimulatorConfig {
        max_rounds: cap,
        mode: ExecutionMode::Sequential,
    };
    let sharded = ShardedTopology::from_topology(g, shards).expect("shardable topology");
    let seq: RunOutcome<Option<u64>> = Simulator::with_config(g, seq_config).run(mk());
    assert!(
        seq.outputs.iter().all(Option::is_some),
        "randomized baseline must finish within its unconditional cap"
    );
    let runs = [
        (
            "parallel",
            Simulator::with_config(
                g,
                SimulatorConfig {
                    max_rounds: cap,
                    mode: ExecutionMode::Parallel { threads },
                },
            )
            .run(mk()),
        ),
        (
            "sharded+inproc",
            Simulator::with_config(&sharded, seq_config)
                .run_with_executor(mk(), &ShardedExecutor::new()),
        ),
        (
            "sharded+socket",
            Simulator::with_config(&sharded, seq_config).run_with_executor(
                mk(),
                &ShardedExecutor::with_transport(SocketLoopback::unix()),
            ),
        ),
    ];
    for (name, other) in &runs {
        assert_eq!(&seq.outputs, &other.outputs, "{name} outputs diverged");
        assert_eq!(seq.metrics.rounds, other.metrics.rounds, "{name} rounds");
        assert_eq!(
            seq.metrics.messages, other.metrics.messages,
            "{name} messages"
        );
        assert_eq!(
            seq.metrics.total_bits, other.metrics.total_bits,
            "{name} bits"
        );
        assert_eq!(
            seq.metrics.max_message_bits, other.metrics.max_message_bits,
            "{name} max bits"
        );
        assert_eq!(
            seq.metrics.active_per_round, other.metrics.active_per_round,
            "{name} active sets"
        );
    }
}

/// Asserts a traced run is bit-for-bit identical to its untraced twin on
/// the same executor and transport: outputs and every logical counter,
/// including the deterministic per-backend wire-byte count.  This is the
/// out-of-band contract of `dcme_congest::trace` — sinks observe, they
/// never influence.
fn assert_tracing_invisible(name: &str, plain: &RunOutcome<u64>, traced: &RunOutcome<u64>) {
    assert_eq!(&plain.outputs, &traced.outputs, "{name} outputs diverged");
    assert_eq!(plain.metrics.rounds, traced.metrics.rounds, "{name} rounds");
    assert_eq!(
        plain.metrics.messages, traced.metrics.messages,
        "{name} messages"
    );
    assert_eq!(
        plain.metrics.total_bits, traced.metrics.total_bits,
        "{name} bits"
    );
    assert_eq!(
        plain.metrics.max_message_bits, traced.metrics.max_message_bits,
        "{name} max bits"
    );
    assert_eq!(
        plain.metrics.active_per_round, traced.metrics.active_per_round,
        "{name} active sets"
    );
    assert_eq!(
        plain.metrics.hit_round_cap, traced.metrics.hit_round_cap,
        "{name} cap"
    );
    assert_eq!(
        plain.metrics.intra_shard_messages, traced.metrics.intra_shard_messages,
        "{name} intra-shard"
    );
    assert_eq!(
        plain.metrics.cross_shard_messages, traced.metrics.cross_shard_messages,
        "{name} cross-shard"
    );
    assert_eq!(
        plain.metrics.wire_bytes_sent, traced.metrics.wire_bytes_sent,
        "{name} wire bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × random halting schedule × every executor: outputs,
    /// round counts and all accounting metrics agree bit for bit.
    #[test]
    fn all_executors_agree(
        family in 0usize..4,
        size in 8usize..80,
        graph_seed in 0u64..500,
        ttl_seed in 0u64..1000,
        threads in 1usize..5,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), ttl_seed);

        let seq = run_with_mode(&g, &ttls, ExecutionMode::Sequential);
        let par = run_with_mode(&g, &ttls, ExecutionMode::Parallel { threads });
        let shd = run_sharded(&g, &ttls, shards, dcme_congest::InProcess);
        let sock = run_sharded(&g, &ttls, shards, SocketLoopback::unix());

        for (name, other) in [("parallel", &par), ("sharded", &shd), ("socket", &sock)] {
            prop_assert_eq!(&seq.outputs, &other.outputs, "{} outputs diverged", name);
            prop_assert_eq!(seq.metrics.rounds, other.metrics.rounds, "{} rounds", name);
            prop_assert_eq!(seq.metrics.messages, other.metrics.messages, "{} messages", name);
            prop_assert_eq!(seq.metrics.total_bits, other.metrics.total_bits, "{} bits", name);
            prop_assert_eq!(
                seq.metrics.max_message_bits,
                other.metrics.max_message_bits,
                "{} max bits", name
            );
            prop_assert_eq!(
                &seq.metrics.active_per_round,
                &other.metrics.active_per_round,
                "{} active sets", name
            );
            prop_assert_eq!(
                seq.metrics.hit_round_cap,
                other.metrics.hit_round_cap,
                "{} cap", name
            );
        }

        // Sharded attribution invariants: every message is attributed to
        // exactly one side of the shard boundary, and one shard ⇒ no
        // cross-shard traffic.
        for out in [&shd, &sock] {
            prop_assert_eq!(
                out.metrics.intra_shard_messages + out.metrics.cross_shard_messages,
                out.metrics.messages
            );
            if shards == 1 {
                prop_assert_eq!(out.metrics.cross_shard_messages, 0);
            }
            prop_assert_eq!(out.metrics.shard_phase_nanos.len(), shards);
        }
        // Transport counters describe the backend: the in-memory queues
        // move no wire bytes; the socket mesh seals one frame per shard
        // pair per round, so any multi-shard round produces real bytes.
        prop_assert_eq!(shd.metrics.wire_bytes_sent, 0);
        prop_assert_eq!(
            sock.metrics.wire_bytes_sent > 0,
            shards > 1 && sock.metrics.rounds > 0
        );
    }

    /// Seeded randomized baselines (HNT ultrafast, D1LC degree+1): on random
    /// topologies, fixed-seed runs are bit-for-bit identical across the
    /// sequential, parallel and sharded executors and both transport backends
    /// (the ISSUE 5 acceptance criterion, as a property).
    #[test]
    fn randomized_baselines_agree_across_executors_and_transports(
        family in 0usize..4,
        size in 8usize..48,
        graph_seed in 0u64..200,
        algo_seed in 0u64..1000,
        threads in 1usize..4,
        shards in 1usize..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let n = g.num_nodes();
        assert_randomized_equivalence(&g, shards, threads, ultrafast::round_cap(n), || {
            (0..n).map(|_| UltrafastNode::new(algo_seed)).collect::<Vec<_>>()
        });
        assert_randomized_equivalence(&g, shards, threads, degree_plus_one::round_cap(n), || {
            (0..n).map(|_| DegreePlusOneNode::new(algo_seed)).collect::<Vec<_>>()
        });
    }

    /// Zero-fault regression: wrapping any transport in a `FaultyTransport`
    /// with an **empty** fault plan must be bit-for-bit invisible — same
    /// outputs, rounds, messages, bit accounting *and wire bytes* as the
    /// unwrapped backend.  The fault layer may only cost when a plan fires.
    #[test]
    fn empty_fault_plan_is_bit_for_bit_invisible(
        family in 0usize..4,
        size in 8usize..48,
        graph_seed in 0u64..200,
        ttl_seed in 0u64..1000,
        plan_seed in 0u64..1000,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), ttl_seed);
        let plan = FaultPlan::none(plan_seed);
        prop_assert!(plan.is_empty());

        let pairs = [
            (
                run_sharded(&g, &ttls, shards, dcme_congest::InProcess),
                run_sharded(
                    &g,
                    &ttls,
                    shards,
                    FaultyTransport::new(plan.clone(), dcme_congest::InProcess),
                ),
            ),
            (
                run_sharded(&g, &ttls, shards, SocketLoopback::unix()),
                run_sharded(
                    &g,
                    &ttls,
                    shards,
                    FaultyTransport::new(plan.clone(), SocketLoopback::unix()),
                ),
            ),
        ];
        let seq = run_with_mode(&g, &ttls, ExecutionMode::Sequential);
        for (plain, faulty) in &pairs {
            prop_assert_eq!(&seq.outputs, &faulty.outputs, "outputs vs sequential");
            prop_assert_eq!(&plain.outputs, &faulty.outputs, "outputs vs unwrapped");
            prop_assert_eq!(plain.metrics.rounds, faulty.metrics.rounds, "rounds");
            prop_assert_eq!(plain.metrics.messages, faulty.metrics.messages, "messages");
            prop_assert_eq!(plain.metrics.total_bits, faulty.metrics.total_bits, "bits");
            prop_assert_eq!(
                plain.metrics.wire_bytes_sent,
                faulty.metrics.wire_bytes_sent,
                "wire bytes"
            );
            prop_assert_eq!(
                &plain.metrics.active_per_round,
                &faulty.metrics.active_per_round,
                "active sets"
            );
            prop_assert_eq!(faulty.metrics.faults_dropped, 0);
            prop_assert_eq!(faulty.metrics.faults_duplicated, 0);
            prop_assert_eq!(faulty.metrics.faults_delayed, 0);
            prop_assert_eq!(faulty.metrics.faults_retransmitted, 0);
            prop_assert_eq!(faulty.metrics.stale_overwrites, 0);
        }
    }

    /// Scale-out construction contract: the coordinator's counting pass
    /// (`ShardPlan`) plus each worker's restricted single-shard build
    /// (`ShardSliceTopology`) reproduces the full `ShardedTopology` exactly
    /// — same plan, and per shard the same CSR slice, `dest_slot` remap and
    /// reverse ports — across random graph families and shard counts.  This
    /// is the invariant that lets mesh-mode workers rebuild only their own
    /// shard from the shared edge stream.
    #[test]
    fn restricted_shard_construction_matches_full_build(
        family in 0usize..4,
        size in 8usize..80,
        graph_seed in 0u64..500,
        shards in 1usize..6,
    ) {
        let g = build_graph(family, size, graph_seed);
        let full = ShardedTopology::from_topology(&g, shards).expect("shardable topology");
        let plan = full.plan();
        let streamed = dcme_congest::ShardPlan::from_edge_stream(g.num_nodes(), shards, |emit| {
            for (u, v) in g.edges() {
                emit(u, v);
            }
        })
        .expect("plan from stream");
        prop_assert_eq!(&streamed, &plan, "streamed plan diverged from full build");
        for shard in 0..shards {
            let slice = dcme_congest::ShardSliceTopology::build(plan.clone(), shard, |emit| {
                for (u, v) in g.edges() {
                    emit(u, v);
                }
            })
            .expect("restricted build");
            prop_assert_eq!(&slice, &full.shard_slice(shard), "slice {} diverged", shard);
        }
    }

    /// Observability regression: attaching a recording `TraceSink` to any
    /// executor × transport combination must be bit-for-bit invisible —
    /// identical outputs, rounds and every logical counter — while the
    /// sink itself observes a full run (lifecycle events bracket the
    /// stream and every round is reported).
    #[test]
    fn attached_trace_sink_is_bit_for_bit_invisible(
        family in 0usize..4,
        size in 8usize..48,
        graph_seed in 0u64..200,
        ttl_seed in 0u64..1000,
        threads in 1usize..4,
        shards in 1usize..5,
    ) {
        let g = build_graph(family, size, graph_seed);
        let ttls = schedule(g.num_nodes(), ttl_seed);
        let sharded = ShardedTopology::from_topology(&g, shards).expect("shardable topology");
        let mk = || ttls.iter().map(|&t| ScheduledGossip::new(t)).collect::<Vec<_>>();
        let config = |mode| SimulatorConfig { max_rounds: 1_000_000, mode };

        let mut sinks = Vec::new();
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel { threads }] {
            let name = if mode == ExecutionMode::Sequential { "seq" } else { "parallel" };
            let sink = RecordingSink::new();
            let plain = run_with_mode(&g, &ttls, mode);
            let traced = Simulator::with_config(&g, config(mode))
                .with_tracer(&sink)
                .run(mk());
            assert_tracing_invisible(name, &plain, &traced);
            sinks.push((name, traced.metrics.rounds, sink));
        }
        {
            let sink = RecordingSink::new();
            let plain = run_sharded(&g, &ttls, shards, dcme_congest::InProcess);
            let traced = Simulator::new(&sharded)
                .with_tracer(&sink)
                .run_with_executor(mk(), &ShardedExecutor::new());
            assert_tracing_invisible("sharded+inproc", &plain, &traced);
            sinks.push(("sharded+inproc", traced.metrics.rounds, sink));
        }
        {
            let sink = RecordingSink::new();
            let plain = run_sharded(&g, &ttls, shards, SocketLoopback::unix());
            let traced = Simulator::new(&sharded).with_tracer(&sink).run_with_executor(
                mk(),
                &ShardedExecutor::with_transport(SocketLoopback::unix()),
            );
            assert_tracing_invisible("sharded+socket", &plain, &traced);
            sinks.push(("sharded+socket", traced.metrics.rounds, sink));
        }

        for (name, rounds, sink) in &sinks {
            prop_assert!(!sink.is_empty(), "{} emitted no events", name);
            let events = sink.take();
            prop_assert!(
                matches!(events.first(), Some(TraceEvent::RunStart { .. })),
                "{} stream must open with RunStart", name
            );
            prop_assert!(
                matches!(events.last(), Some(TraceEvent::RunEnd { rounds: r }) if r == rounds),
                "{} stream must close with RunEnd({})", name, rounds
            );
            let starts = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
                .count() as u64;
            prop_assert_eq!(starts, *rounds, "{}: one RoundStart per round", name);
            // The sharded streams additionally carry the worker lifecycle:
            // exactly one start and one end per shard.
            if name.starts_with("sharded") {
                let ws = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::WorkerStart { .. }))
                    .count();
                let we = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::WorkerEnd { .. }))
                    .count();
                prop_assert_eq!(ws, shards, "{}: WorkerStart per shard", name);
                prop_assert_eq!(we, shards, "{}: WorkerEnd per shard", name);
            }
        }
    }

    /// The round cap stops every executor at the same round with the cap
    /// flag set — also under sharding.
    #[test]
    fn round_cap_agrees_across_executors(
        size in 8usize..40,
        cap in 1u64..6,
        shards in 1usize..5,
    ) {
        let g = generators::ring(size.max(3));
        let ttls = vec![u64::MAX; g.num_nodes()]; // never halts on its own
        let config = SimulatorConfig {
            max_rounds: cap,
            mode: ExecutionMode::Sequential,
        };
        let mk = || ttls.iter().map(|&t| ScheduledGossip::new(t)).collect::<Vec<_>>();
        let seq = Simulator::with_config(&g, config).run(mk());
        let sharded = ShardedTopology::from_topology(&g, shards).unwrap();
        let shd = Simulator::with_config(&sharded, config)
            .run_with_executor(mk(), &ShardedExecutor::new());
        prop_assert!(seq.metrics.hit_round_cap);
        prop_assert!(shd.metrics.hit_round_cap);
        prop_assert_eq!(seq.metrics.rounds, cap);
        prop_assert_eq!(shd.metrics.rounds, cap);
        prop_assert_eq!(seq.outputs, shd.outputs);
    }
}
