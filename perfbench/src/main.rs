//! The MRQ benchmark: three seeded workloads over the workspace's public
//! API, end-to-end metrics from an untraced run, per-layer metrics from a
//! traced one, and every result checked against a reference.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch-embedded --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     compare BENCHMARK.json tpch-embedded first.jsonl [second.jsonl]
//! ```
//!
//! See `perfbench/README.md` for the workloads, metrics and baselines.

mod adhoc;
mod common;
mod json;
mod serve;
mod stats;
mod tpch_embedded;
mod trace;

use common::{Outcome, RunConfig};

/// End-to-end metrics carried by the result line of an untraced run, with
/// their units; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Per-layer metrics carried by the result line of a traced run: the ones
/// every workload measures. Workload-specific layer metrics are printed in
/// the report above the result line.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("tpch.generate_s", "s"),
    ("engine-native.load_s", "s"),
    ("expr.optimize_us", "us"),
    ("expr.canonicalize_us", "us"),
    ("expr.rewrites", "count"),
    ("codegen.lower_us", "us"),
    ("codegen.emit_us", "us"),
    ("codegen.source_bytes", "bytes"),
    ("core.compile_hit_us", "us"),
    ("core.compile_miss_us", "us"),
    ("core.compile_hit_ratio", "ratio"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.plan_cache_entries", "count"),
    ("core.plan_cache_evictions", "count"),
    ("core.dispatch_us", "us"),
    ("core.submit_overhead_us", "us"),
    ("core.admission_shed", "count"),
    ("codegen.rows_scanned", "count"),
    ("codegen.build_inserts", "count"),
    ("codegen.probe_lookups", "count"),
    ("codegen.key_comparisons", "count"),
    ("codegen.rows_materialized", "count"),
    ("engine-hybrid.staging_copies", "count"),
    ("protocol.request_encode_us", "us"),
    ("protocol.request_decode_us", "us"),
    ("protocol.response_encode_us", "us"),
    ("protocol.response_decode_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = ["tpch-embedded", "adhoc-compile", "serve-mix"];

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: mrq-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
         mrq-perfbench compare <BENCHMARK.json> <workload> <runs.jsonl> [<runs.jsonl>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_run_args(args: &[String]) -> (String, RunConfig) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let config = RunConfig {
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    };
    (workload, config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare(&args[1..]));
    }
    let (workload, config) = parse_run_args(&args);
    let stamp = common::stamp(&workload, &config);
    println!("stamp {stamp}");
    let outcome = match workload.as_str() {
        "tpch-embedded" => tpch_embedded::run(&config),
        "adhoc-compile" => adhoc::run(&config),
        _ => serve::run(&config),
    };
    if let Some(tracer) = &outcome.tracer {
        let path = std::path::Path::new(".perfbench-out").join(format!("trace-{workload}.jsonl"));
        if let Err(e) = tracer.write(&path, &stamp) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    report(&outcome, &config);
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

/// Prints every metric as a report line, then the one-line JSON result.
fn report(outcome: &Outcome, config: &RunConfig) {
    for m in &outcome.metrics {
        println!(
            "metric {:<34} {:>16} {:<6} n={:<8} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    let wanted: &[(&str, &str)] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let fields: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::number(value),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
}

/// `compare <BENCHMARK.json> <workload> <first.jsonl> [<second.jsonl>]`:
/// reads saved result lines (one run per line) and prints, per end-to-end
/// metric, each set's median and spread and the drift between the sets,
/// against the metric's bound. Exits 1 if a check fails.
fn compare(args: &[String]) -> i32 {
    if args.len() < 3 {
        usage("compare needs <BENCHMARK.json> <workload> <runs.jsonl> [<runs.jsonl>]");
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
    };
    let bench =
        json::parse(&read(&args[0])).unwrap_or_else(|e| usage(&format!("{}: {e}", args[0])));
    let load_runs = |path: &str| -> Vec<json::Json> {
        read(path)
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(|l| json::parse(l).unwrap_or_else(|e| usage(&format!("{path}: {e}"))))
            .collect()
    };
    let first = load_runs(&args[2]);
    let second = args
        .get(3)
        .map(|p| load_runs(p))
        .unwrap_or_else(|| first.clone());
    let values = |runs: &[json::Json], metric: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    };
    let mut ok = true;
    println!(
        "workload {} ({} + {} runs)",
        args[1],
        first.len(),
        second.len()
    );
    for metric in bench
        .get("end_to_end")
        .map(json::Json::as_array)
        .unwrap_or(&[])
    {
        let name = metric
            .get("name")
            .and_then(json::Json::as_str)
            .unwrap_or("?");
        let bound = metric
            .get("bound")
            .and_then(json::Json::as_f64)
            .unwrap_or(0.0);
        let better = match metric.get("better").and_then(json::Json::as_str) {
            Some("higher") => stats::Better::Higher,
            _ => stats::Better::Lower,
        };
        let (a, b) = (values(&first, name), values(&second, name));
        if a.is_empty() || b.is_empty() {
            println!("  {name:<12} missing");
            ok = false;
            continue;
        }
        let v = stats::compare_sets(better, bound, &a, &b);
        let steady = v.first_spread < bound / 3.0 && v.second_spread < bound / 3.0;
        println!(
            "  {name:<12} median {:>12.4} -> {:>12.4}  spread {:.4} / {:.4}  drift {:+.4}  bound {bound}  {}{}",
            v.first_median,
            v.second_median,
            v.first_spread,
            v.second_spread,
            v.worsening,
            if v.passed() { "ok" } else { "FAIL" },
            if steady { "" } else { " (spread above a third of the bound)" }
        );
        ok &= v.passed();
    }
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the result line carries match `BENCHMARK.json`.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .map(json::Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(json::Json::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .map(json::Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
