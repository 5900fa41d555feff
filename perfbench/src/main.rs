//! Runs one benchmark workload and prints its metrics as one JSON line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline-rr16 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The run repeats the workload (set up, run, check) for `--seconds`
//! seconds and reports medians.  With `--trace 1` it then runs the workload
//! once more with a span around every layer call, prints the per-layer
//! metrics instead, and writes `.bench_out/<workload>.perfetto.json` and
//! `.bench_out/<workload>.layers.json`.

use std::io::Write;
use std::time::{Duration, Instant};

use dcme_perfbench::stats::Summary;
use dcme_perfbench::workloads::{Bench, Rep, Workload};
use dcme_perfbench::{END_TO_END, PER_LAYER};

/// Repetitions made even when `--seconds` runs out sooner.
const MIN_REPS: usize = 3;
/// Where the traced run writes its files, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: dcme_perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number()),
            "--trace" => trace = Some(number()),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(t @ (0 | 1))) => Args {
            workload,
            seed,
            seconds,
            trace: t == 1,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("dcme_perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let (n, tail) = args.workload.default_size();
    let name = args.workload.name();
    let mut bench = Bench::prepare(args.workload, n, tail, args.seed)?;
    let cpus = std::thread::available_parallelism().map_or(0, |c| c.get());
    eprintln!(
        "{name}: n={n} tail={tail} seed={} graph_seed={} cpus={cpus}",
        args.seed,
        bench.graph_seed()
    );

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(bench.rep()?);
    }
    let summary = |f: fn(&Rep) -> f64| {
        Summary::of(&reps.iter().map(f).collect::<Vec<_>>()).expect("at least one repetition")
    };
    let wall = summary(|r| r.wall_s);
    let setup = summary(|r| r.setup_s);
    for (metric, s) in [("wall_s", wall), ("setup_s", setup)] {
        eprintln!(
            "{name}: {metric} median {:.4} (q1 {:.4}, q3 {:.4}, {} samples)",
            s.median, s.q1, s.q3, s.count
        );
    }
    let samples: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
    eprintln!("{name}: wall_s samples {}", samples.join(" "));

    let mut checked = reps.clone();
    let metrics: Vec<(&str, f64)> = if args.trace {
        let traced = bench.traced_rep()?;
        write_trace_files(args, &traced, wall.median)?;
        checked.push(traced.rep.clone());
        let mut values = per_layer_values(&traced.layers);
        set(
            &mut values,
            "trace.overhead_s",
            traced.rep.wall_s - wall.median,
        );
        set(&mut values, "wall_samples", wall.count as f64);
        set(&mut values, "wall_q1_s", wall.q1);
        set(&mut values, "wall_q3_s", wall.q3);
        values
    } else {
        let counts = reps[0].counts;
        let peak_rss = dcme_congest::process_peak_rss_bytes() as f64 / (1024.0 * 1024.0);
        vec![
            ("wall_s", wall.median),
            ("setup_s", setup.median),
            ("msgs_per_s", counts.messages as f64 / wall.median),
            ("peak_rss_mb", peak_rss),
            ("rounds", counts.rounds as f64),
            ("messages", counts.messages as f64),
            ("max_msg_bits", counts.max_msg_bits as f64),
        ]
    };

    let failed = checked.iter().filter(|r| !r.failures.is_empty()).count();
    for failure in checked.iter().flat_map(|r| &r.failures) {
        eprintln!("{name}: check failed: {failure}");
    }
    let units = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|&(metric, value)| {
            let unit = units
                .iter()
                .find(|(m, _)| *m == metric)
                .map(|(_, u)| *u)
                .expect("every metric is in the catalog");
            format!(
                "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checked.len(),
        fields.join(", ")
    ))
}

/// Every per-layer metric, 0 where the workload has no such layer.
fn per_layer_values(layers: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let mut values: Vec<(&str, f64)> = PER_LAYER.iter().map(|&(m, _)| (m, 0.0)).collect();
    for &(metric, value) in layers {
        set(&mut values, metric, value);
    }
    values
}

fn set(values: &mut [(&'static str, f64)], metric: &str, value: f64) {
    let slot = values
        .iter_mut()
        .find(|(m, _)| *m == metric)
        .unwrap_or_else(|| panic!("{metric} is not a per-layer metric"));
    slot.1 = value;
}

/// JSON has no NaN or infinity; a non-finite value is a benchmark bug.
fn finite(value: f64) -> f64 {
    assert!(value.is_finite(), "non-finite metric value {value}");
    value
}

/// Writes the traced run's Perfetto file and its per-layer JSON row.
fn write_trace_files(
    args: &Args,
    traced: &dcme_perfbench::workloads::Traced,
    untraced_wall_s: f64,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{OUT_DIR}: {e}");
    let name = args.workload.name();
    std::fs::create_dir_all(OUT_DIR).map_err(io)?;
    let path = format!("{OUT_DIR}/{name}.perfetto.json");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    traced
        .spans
        .write_perfetto(traced.engine.as_ref(), &mut out)
        .map_err(io)?;
    out.flush().map_err(io)?;

    let fields: Vec<String> = traced
        .layers
        .iter()
        .map(|(m, v)| format!("\"{m}\":{}", finite(*v)))
        .collect();
    let row = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"wall_s\":{},\"untraced_wall_s\":{untraced_wall_s},{}}}\n",
        args.seed,
        traced.rep.wall_s,
        fields.join(",")
    );
    std::fs::write(format!("{OUT_DIR}/{name}.layers.json"), row).map_err(io)?;
    eprintln!("{name}: wrote {path} and {OUT_DIR}/{name}.layers.json");
    Ok(())
}
