//! The repository's end-to-end and per-layer benchmark.
//!
//! Three workloads ([`workloads::Workload`]) cover the paper's (Δ+1)
//! pipeline, bulk cross-shard traffic and the per-round fixed cost of the
//! remote worker protocol.  The benchmark times calls into the public
//! functions of the engine crates from outside and reads the counters their
//! `RunMetrics` already report; it changes nothing in the engine.

pub mod spans;
pub mod stats;
pub mod workloads;

/// The end-to-end metrics a `--trace 0` run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("messages", "count"),
    ("max_msg_bits", "bits"),
];

/// The per-layer metrics a `--trace 1` run prints: `(name, unit)`.  A layer
/// the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("graph.build_s", "s"),
    ("graph.directed_edges", "count"),
    ("linial.s", "s"),
    ("linial.rounds", "count"),
    ("linial.messages", "count"),
    ("trial.s", "s"),
    ("trial.rounds", "count"),
    ("trial.adopt_ratio", "ratio"),
    ("elim.s", "s"),
    ("elim.rounds", "count"),
    ("elim.messages", "count"),
    ("verify.s", "s"),
    ("exec.send_s", "s"),
    ("exec.deliver_s", "s"),
    ("exec.receive_s", "s"),
    ("exec.active_node_rounds", "count"),
    ("transport.cross_msgs", "count"),
    ("transport.cross_ratio", "ratio"),
    ("transport.wire_bytes", "bytes"),
    ("transport.bytes_per_cross_msg", "bytes"),
    ("transport.syscall_batches", "count"),
    ("transport.flush_s", "s"),
    ("mesh.slice_build_s", "s"),
    ("mesh.connect_s", "s"),
    ("mesh.serve_max_s", "s"),
    ("mesh.coordinate_s", "s"),
    ("mesh.round_us", "us"),
    ("round.wall_p50_us", "us"),
    ("round.wall_p95_us", "us"),
    ("trace.overhead_s", "s"),
    ("layers.sum_share", "ratio"),
    ("wall_samples", "count"),
    ("wall_q1_s", "s"),
    ("wall_q3_s", "s"),
];

#[cfg(test)]
mod tests {
    use dcme_congest::JsonValue;

    /// The catalogs here and the metric lists in `BENCHMARK.json` agree,
    /// name for name and unit for unit, in order.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = JsonValue::parse(&text).unwrap();
        for (key, catalog) in [
            ("end_to_end", &super::END_TO_END[..]),
            ("per_layer", &super::PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = json
                .get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalog, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }
}
