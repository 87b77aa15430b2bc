//! `tpch-embedded`: the paper's setting. One caller thread queries the
//! application's own in-memory collections in a closed loop: TPC-H Q1, Q3,
//! Q6 and the Figure 11 join, with parameters drawn from the seed within the
//! TPC-H substitution ranges, rotating round-robin over LINQ, C#, C (over
//! row stores) and hybrid-buffered.

use crate::common::{
    self, Dataset, Digest, Outcome, Providers, RunConfig, Sample, SetupTimes, SETUP_REPEATS,
};
use crate::stats;
use crate::trace::Tracer;
use mrq_common::profile::phases;
use mrq_common::{Date, Decimal};
use mrq_expr::Expr;
use mrq_tpch::gen::SEGMENTS;
use mrq_tpch::queries;
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

const QUERIES: [&str; 4] = ["q1", "q3", "q6", "join"];

/// Direct-engine span names, by strategy then query.
const ENGINE_SPANS: [[&str; 4]; 4] = [
    [
        "engine-linq.q1",
        "engine-linq.q3",
        "engine-linq.q6",
        "engine-linq.join",
    ],
    [
        "engine-csharp.q1",
        "engine-csharp.q3",
        "engine-csharp.q6",
        "engine-csharp.join",
    ],
    [
        "engine-native.q1",
        "engine-native.q3",
        "engine-native.q6",
        "engine-native.join",
    ],
    [
        "engine-hybrid.q1",
        "engine-hybrid.q3",
        "engine-hybrid.q6",
        "engine-hybrid.join",
    ],
];
const NS_PER_ROW: [&str; 4] = [
    "engine-linq.ns_per_row",
    "engine-csharp.ns_per_row",
    "engine-native.ns_per_row",
    "engine-hybrid.ns_per_row",
];

/// Draws one parameter set for `query` within the TPC-H substitution ranges.
fn draw(query: usize, rng: &mut SmallRng) -> Expr {
    match query {
        // Q1: DELTA in [60, 120] days.
        0 => queries::q1_with_cutoff(
            Date::from_ymd(1998, 12, 1).add_days(-rng.gen_range(60..=120i32)),
        ),
        // Q3: SEGMENT from the five segments, DATE in [1995-03-01, 1995-03-31].
        1 => queries::q3_with_params(
            SEGMENTS[rng.gen_range(0..SEGMENTS.len())],
            Date::from_ymd(1995, 3, 1).add_days(rng.gen_range(0..=30)),
        ),
        // Q6: DATE = 1 January of [1993, 1997], DISCOUNT in [0.02, 0.09],
        // QUANTITY in [24, 25].
        2 => queries::q6_with_params(
            Date::from_ymd(rng.gen_range(1993..=1997), 1, 1),
            Decimal::from_raw(rng.gen_range(2..=9)),
            Decimal::from_int(rng.gen_range(24..=25)),
        ),
        // The Figure 11 join with Q3's substitution ranges.
        _ => {
            let date = Date::from_ymd(1995, 3, 1).add_days(rng.gen_range(0..=30));
            queries::join_micro(SEGMENTS[rng.gen_range(0..SEGMENTS.len())], date, date)
        }
    }
}

/// Q1 and Q3 end in an ordering; Q6 returns one row; the join is a bag.
fn ordered(query: usize) -> bool {
    query != 3
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut setups = Vec::new();
    for round in 0..SETUP_REPEATS {
        let start = Instant::now();
        let mut times = SetupTimes::default();
        let (dataset, _) =
            common::load_dataset(true, &["lineitem", "orders", "customer"], &mut times);
        let providers = Providers::new(&dataset);
        // Warm-up: compile every query shape and run it once per strategy.
        let mut rng = common::rng(0, 0);
        for q in 0..QUERIES.len() {
            let expr = draw(q, &mut rng);
            for (_, strategy) in common::strategies() {
                let provider = providers.for_strategy(strategy);
                provider
                    .execute(expr.clone(), strategy)
                    .expect("warm-up query runs");
            }
        }
        times.total = start.elapsed().as_secs_f64();
        setups.push(times);
        if round + 1 == SETUP_REPEATS {
            return measure(config, &dataset, &providers, &setups);
        }
    }
    unreachable!("SETUP_REPEATS is at least one")
}

/// The C#, C and hybrid samples: the strategies this workload exists for.
/// LINQ-to-Objects is the control and is reported on its own line, so that
/// its slow requests neither dilute nor set the gated figures. A sample's
/// class is `query * 4 + strategy`, and strategy 0 is LINQ.
fn compiled(samples: &[Sample]) -> Vec<Sample> {
    samples
        .iter()
        .filter(|s| s.class % 4 != 0)
        .copied()
        .collect()
}

/// Geometric mean of the per-(query, strategy) medians of `samples`, in ms.
fn typical_ms(samples: &[Sample]) -> f64 {
    let mut classes = vec![Vec::new(); QUERIES.len() * 4];
    for s in samples {
        classes[s.class].push(s.latency);
    }
    let medians: Vec<f64> = classes
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| stats::median(l))
        .collect();
    stats::geomean(&medians) * 1e3
}

/// Runs rounds until `duration` is over. Round `r` draws fresh parameters
/// for query `r % 4` and runs the statement under each strategy in turn;
/// the LINQ-to-Objects rows are the reference the other three must match.
/// With a tracer, each request is split into its public calls and followed
/// by the layer probes.
fn rounds(
    config: &RunConfig,
    dataset: &Dataset,
    providers: &Providers<'_>,
    duration: std::time::Duration,
    outcome: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Sample> {
    let strategies = common::strategies();
    let mut rng = common::rng(config.seed, 1);
    let mut phase = Vec::new();
    let deadline = Instant::now() + duration;
    let mut round = 0;
    while Instant::now() < deadline {
        let query = round % QUERIES.len();
        let expr = draw(query, &mut rng);
        let mut results: Vec<Option<(Digest, f64)>> = Vec::new();
        for (s, (label, strategy)) in strategies.iter().enumerate() {
            let provider = providers.for_strategy(*strategy);
            let id = (round * strategies.len() + s) as u64;
            let statement = expr.clone();
            let (result, secs) = match tracer.as_deref_mut() {
                None => common::timed(|| provider.execute(statement, *strategy)),
                Some(t) => {
                    let (result, secs) = common::timed(|| {
                        common::traced_execute(t, id, provider, statement, *strategy)
                    });
                    let result = result.map(|(out, canonical, plan)| {
                        probe(
                            t,
                            id,
                            dataset,
                            provider,
                            &plan,
                            &canonical.params,
                            &expr,
                            s,
                            query,
                            &out,
                        );
                        out
                    });
                    (result, secs)
                }
            };
            outcome.attempted += 1;
            results.push(match result {
                Ok(out) => Some((common::digest(&out.rows, ordered(query)), secs)),
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .notes
                        .push(format!("{} under {label}: {e}", QUERIES[query]));
                    None
                }
            });
        }
        let reference = match results[0] {
            Some((digest, _)) => digest,
            None => common::digest(
                &common::linq_reference(dataset, expr.clone())
                    .expect("reference runs")
                    .rows,
                ordered(query),
            ),
        };
        for (s, result) in results.into_iter().enumerate() {
            match result {
                Some((digest, secs)) if digest == reference => phase.push(Sample {
                    latency: secs,
                    class: query * 4 + s,
                }),
                Some(_) => {
                    outcome.failed += 1;
                    outcome.notes.push(format!(
                        "wrong result: {} under {}",
                        QUERIES[query], strategies[s].0
                    ));
                }
                None => {}
            }
        }
        round += 1;
    }
    phase
}

fn measure(
    config: &RunConfig,
    dataset: &Dataset,
    providers: &Providers<'_>,
    setups: &[SetupTimes],
) -> Outcome {
    let mut outcome = Outcome {
        start_rss_mb: common::reset_peak_rss(),
        ..Outcome::default()
    };
    let phase = rounds(
        config,
        dataset,
        providers,
        config.untraced_phase(),
        &mut outcome,
        None,
    );

    outcome.add_common(setups);
    let gated = compiled(&phase);
    let ok = gated.len();
    outcome.add(
        "qps",
        common::busy_qps(&gated),
        "1/s",
        ok,
        "C#, C and hybrid requests per second of their busy time, one caller",
    );
    outcome.add(
        "p50_ms",
        typical_ms(&gated),
        "ms",
        ok,
        "geometric mean of the 12 per-(query, strategy) medians of C#, C and hybrid",
    );
    outcome.add(
        "p99_ms",
        common::p99_ms(&gated),
        "ms",
        ok,
        common::tail_note(&common::latencies(&gated)),
    );
    for (s, (label, _)) in common::strategies().iter().enumerate() {
        let class = |q: usize| -> Vec<f64> {
            let mine = phase.iter().filter(|x| x.class == q * 4 + s);
            mine.map(|x| x.latency).collect()
        };
        let medians: Vec<f64> = (0..QUERIES.len())
            .map(|q| stats::median(&class(q)))
            .collect();
        let samples: usize = (0..QUERIES.len()).map(|q| class(q).len()).sum();
        outcome.add(
            format!("{label}_ms"),
            stats::geomean(&medians) * 1e3,
            "ms",
            samples,
            "geometric mean over Q1, Q3, Q6, join of the per-query median",
        );
    }

    if config.trace {
        // A fresh pair of providers, so the first compile of each shape is
        // a miss.
        let fresh = Providers::new(dataset);
        let mut tracer = Tracer::new();
        let traced = rounds(
            config,
            dataset,
            &fresh,
            config.traced_phase(),
            &mut outcome,
            Some(&mut tracer),
        );
        common::add_layer_metrics(&mut outcome, &tracer);
        add_engine_metrics(&mut outcome, &tracer);
        common::add_provider_counters(&mut outcome, &providers.managed);
        common::add_overhead(
            &mut outcome,
            typical_ms(&compiled(&phase)),
            typical_ms(&compiled(&traced)),
            "p50_ms",
        );
        outcome.tracer = Some(tracer);
    }
    outcome
}

/// Times each layer's public call on a request the provider just served:
/// the front half of compilation, the plan straight on its engine (and the
/// provider's dispatch around it), submission, and the protocol codec.
#[allow(clippy::too_many_arguments)]
fn probe(
    t: &mut Tracer,
    id: u64,
    dataset: &Dataset,
    provider: &mrq_core::Provider<'_>,
    plan: &mrq_core::CompiledQuery,
    params: &[mrq_common::Value],
    expr: &Expr,
    s: usize,
    query: usize,
    out: &mrq_codegen::exec::QueryOutput,
) {
    let strategy = common::strategies()[s].1;
    common::probe_compile_layers(t, id, expr);
    let direct = common::probe_dispatch(
        t,
        (id / 4).is_multiple_of(2),
        provider,
        plan,
        params,
        strategy,
        || common::run_engine(dataset, &plan.spec, params, strategy),
    );
    if let Some((direct, engine_secs, breakdown)) = direct {
        let end = Instant::now();
        t.record(
            ENGINE_SPANS[s][query],
            id,
            end - std::time::Duration::from_secs_f64(engine_secs),
            end,
        );
        if direct.work.rows_scanned > 0 {
            t.count(
                NS_PER_ROW[s],
                engine_secs * 1e9 / direct.work.rows_scanned as f64,
            );
        }
        if let Some(b) = breakdown {
            let get = |phase: &str| b.get(phase).map_or(0.0, |d| d.as_secs_f64());
            let (staging, build, ret) = (
                get(phases::STAGING),
                get(phases::BUILD_HASH),
                get(phases::RETURN_RESULT),
            );
            t.count("engine-hybrid.staging_s", staging);
            t.count("engine-hybrid.build_hash_s", build);
            t.count("engine-hybrid.return_s", ret);
            t.count(
                "engine-hybrid.native_s",
                b.total().as_secs_f64() - staging - build - ret,
            );
        }
    }
    if id.is_multiple_of(4) {
        common::probe_submit(t, provider, expr, strategy);
    }
    common::probe_codec(t, id, &common::query_frame(id, expr, strategy), out);
}

fn add_engine_metrics(outcome: &mut Outcome, tracer: &Tracer) {
    for (s, spans) in ENGINE_SPANS.iter().enumerate() {
        for span in spans {
            outcome.add_median(format!("{span}_ms"), &tracer.durations(span), "ms");
        }
        let per_row = tracer.counts(NS_PER_ROW[s]);
        outcome.add(
            NS_PER_ROW[s],
            stats::median(per_row),
            "ns",
            per_row.len(),
            "median of time / rows_scanned",
        );
    }
    for phase in ["staging", "build_hash", "native", "return"] {
        let name = format!("engine-hybrid.{phase}_s");
        let samples: Vec<f64> = tracer.counts(&name).to_vec();
        outcome.add_median(format!("engine-hybrid.{phase}_ms"), &samples, "ms");
    }
}
