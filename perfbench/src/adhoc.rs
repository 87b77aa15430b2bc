//! `adhoc-compile`: a service whose callers build queries on the fly. One
//! caller thread, closed loop, native strategy over the small TPC-H tables.
//! Shapes come from a seeded population larger than the plan cache and are
//! drawn Zipf-like, so popular shapes hit the caches and a tail of new
//! shapes misses; literals are fresh on every request. A quarter of the
//! traffic goes through `prepare` + `PreparedQuery::execute(bindings)`.

use crate::common::{self, Dataset, Outcome, RunConfig, Sample, SetupTimes, SETUP_REPEATS};
use crate::trace::Tracer;
use mrq_common::{Decimal, Value};
use mrq_core::{Provider, Strategy};
use mrq_expr::optimize::{optimize, OptimizerConfig};
use mrq_expr::tree::QueryMethod;
use mrq_expr::{and_all, canonicalize, col, lam, lit, str_method, BinaryOp, Expr, Query, SourceId};
use mrq_tpch::gen::{NATIONS, REGIONS, SEGMENTS};
use mrq_tpch::queries;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;
use std::time::Instant;

/// Distinct shapes in the population (the plan cache holds 256).
const POPULATION: usize = 4096;
/// The population is the same for every run, like the query repertoire of
/// one application; the workload seed drives which shapes are drawn, their
/// literals and which requests are prepared.
const POPULATION_SEED: u64 = 0x5EED;
/// Zipf exponent of shape popularity: YCSB's request distribution constant
/// (`ZipfianGenerator.ZIPFIAN_CONSTANT`). The remaining traffic parameters
/// are assumptions with no public trace behind them; README says so and
/// each run reports the shares it measured.
const ZIPF_S: f64 = 0.99;
/// Share of requests that prepare and execute with bindings (assumed).
const PREPARED_SHARE: f64 = 0.25;
/// Requests generated, executed and then checked together.
const BATCH: usize = 256;
const STRATEGY: Strategy = Strategy::CompiledNative;

/// How a column can appear in a predicate.
#[derive(Clone, Copy)]
enum Domain {
    Int32(i64, i64),
    Int64(i64, i64),
    /// Raw cents.
    Decimal(i64, i64),
    Names(&'static [&'static str]),
    /// Prefix of a generated name such as `Customer#000001234`.
    Prefix(&'static str, i64),
    /// Projection only.
    None,
}

struct Table {
    source: SourceId,
    key: &'static str,
    columns: &'static [(&'static str, Domain)],
}

const NATION_NAMES: [&str; 25] = {
    let mut names = [""; 25];
    let mut i = 0;
    while i < 25 {
        names[i] = NATIONS[i].0;
        i += 1;
    }
    names
};

const TABLES: [Table; 4] = [
    Table {
        source: queries::SRC_NATION,
        key: "n_nationkey",
        columns: &[
            ("n_nationkey", Domain::Int32(0, 24)),
            ("n_name", Domain::Names(&NATION_NAMES)),
            ("n_regionkey", Domain::Int32(0, 4)),
            ("n_comment", Domain::None),
        ],
    },
    Table {
        source: queries::SRC_REGION,
        key: "r_regionkey",
        columns: &[
            ("r_regionkey", Domain::Int32(0, 4)),
            ("r_name", Domain::Names(&REGIONS)),
            ("r_comment", Domain::None),
        ],
    },
    Table {
        source: queries::SRC_SUPPLIER,
        key: "s_suppkey",
        columns: &[
            ("s_suppkey", Domain::Int64(1, 100)),
            ("s_name", Domain::Prefix("Supplier#", 100)),
            ("s_address", Domain::None),
            ("s_nationkey", Domain::Int32(0, 24)),
            ("s_phone", Domain::None),
            ("s_acctbal", Domain::Decimal(-99_999, 999_999)),
            ("s_comment", Domain::None),
        ],
    },
    Table {
        source: queries::SRC_CUSTOMER,
        key: "c_custkey",
        columns: &[
            ("c_custkey", Domain::Int64(1, 1500)),
            ("c_name", Domain::Prefix("Customer#", 1500)),
            ("c_address", Domain::None),
            ("c_nationkey", Domain::Int32(0, 24)),
            ("c_phone", Domain::None),
            ("c_acctbal", Domain::Decimal(-99_999, 999_999)),
            ("c_mktsegment", Domain::Names(&SEGMENTS)),
            ("c_comment", Domain::None),
        ],
    },
];

#[derive(Clone, Copy)]
enum Op {
    Cmp(BinaryOp),
    StartsWith,
}

/// A query shape: everything but the literal values.
struct Shape {
    table: usize,
    predicates: Vec<(usize, Op)>,
    disjunction: bool,
    projection: Vec<usize>,
    /// Projected column to order by, and whether descending; ties are
    /// broken by the table's key, which is then always projected.
    order: Option<(usize, bool)>,
    take: bool,
}

impl Shape {
    fn draw(rng: &mut SmallRng) -> Shape {
        let table = *common::pick(rng, &[0, 1, 2, 2, 3, 3, 3, 3]);
        let columns = TABLES[table].columns;
        let filterable: Vec<usize> = (0..columns.len())
            .filter(|c| !matches!(columns[*c].1, Domain::None))
            .collect();
        let mut predicates = Vec::new();
        for _ in 0..rng.gen_range(0..=3) {
            let c = *common::pick(rng, &filterable);
            let op = match columns[c].1 {
                Domain::Names(_) => Op::Cmp(*common::pick(rng, &[BinaryOp::Eq, BinaryOp::Ne])),
                Domain::Prefix(..) => Op::StartsWith,
                _ => Op::Cmp(*common::pick(
                    rng,
                    &[
                        BinaryOp::Lt,
                        BinaryOp::Le,
                        BinaryOp::Gt,
                        BinaryOp::Ge,
                        BinaryOp::Eq,
                        BinaryOp::Ne,
                    ],
                )),
            };
            predicates.push((c, op));
        }
        let mut projection: Vec<usize> = (0..columns.len())
            .filter(|_| rng.gen_range(0..=2) == 0)
            .collect();
        if projection.is_empty() {
            projection.push(rng.gen_range(0..columns.len()));
        }
        let order = (rng.gen_range(0..=2) == 0).then(|| {
            if !projection.contains(&0) {
                projection.insert(0, 0);
            }
            (*common::pick(rng, &projection), rng.gen_bool(0.5))
        });
        Shape {
            table,
            disjunction: predicates.len() > 1 && rng.gen_range(0..=3) == 0,
            predicates,
            projection,
            order,
            take: rng.gen_range(0..=2) == 0,
        }
    }

    /// Fresh literals: one per predicate, then the `Take` count.
    fn literals(&self, rng: &mut SmallRng) -> Vec<Value> {
        let columns = TABLES[self.table].columns;
        let mut out: Vec<Value> = self
            .predicates
            .iter()
            .map(|(c, _)| match columns[*c].1 {
                Domain::Int32(lo, hi) => Value::Int32(rng.gen_range(lo..=hi) as i32),
                Domain::Int64(lo, hi) => Value::Int64(rng.gen_range(lo..=hi)),
                Domain::Decimal(lo, hi) => {
                    Value::Decimal(Decimal::from_raw(rng.gen_range(lo..=hi)))
                }
                Domain::Names(names) => Value::str(common::pick(rng, names)),
                Domain::Prefix(prefix, max) => {
                    // The name's prefix up to five to eight of its nine key digits.
                    let digits = format!("{:09}", rng.gen_range(1..=max));
                    Value::str(format!("{prefix}{}", &digits[..rng.gen_range(5..=8)]))
                }
                Domain::None => unreachable!("projection-only columns take no predicate"),
            })
            .collect();
        if self.take {
            out.push(Value::Int64(rng.gen_range(1..=40)));
        }
        out
    }

    fn ordered(&self) -> bool {
        self.order.is_some()
    }

    fn build(&self, literals: &[Value]) -> Expr {
        let table = &TABLES[self.table];
        let name = |c: usize| table.columns[c].0;
        let mut query = Query::from_source(table.source);
        if !self.predicates.is_empty() {
            let terms: Vec<Expr> = self
                .predicates
                .iter()
                .zip(literals)
                .map(|((c, op), value)| match op {
                    Op::Cmp(op) => Expr::binary(*op, col("x", name(*c)), lit(value.clone())),
                    Op::StartsWith => str_method(
                        QueryMethod::StartsWith,
                        col("x", name(*c)),
                        lit(value.clone()),
                    ),
                })
                .collect();
            let predicate = if self.disjunction {
                terms
                    .into_iter()
                    .reduce(|a, b| Expr::binary(BinaryOp::Or, a, b))
                    .expect("at least two terms")
            } else {
                and_all(terms)
            };
            query = query.where_(lam("x", predicate));
        }
        query = query.select(lam(
            "x",
            Expr::Constructor {
                name: "Row".into(),
                fields: self
                    .projection
                    .iter()
                    .map(|c| (name(*c).to_string(), col("x", name(*c))))
                    .collect(),
            },
        ));
        if let Some((c, descending)) = self.order {
            let key = lam("r", col("r", name(c)));
            query = if descending {
                query.order_by_desc(key)
            } else {
                query.order_by(key)
            };
            query = query.then_by(lam("r", col("r", table.key)));
        }
        if self.take {
            let Some(Value::Int64(n)) = literals.last() else {
                unreachable!("take literal is last")
            };
            query = query.take(*n);
        }
        query.into_expr()
    }
}

/// The shape population in popularity order, each shape with the literals
/// it is prepared with.
struct Population {
    shapes: Vec<(Shape, Expr)>,
    cdf: Vec<f64>,
}

impl Population {
    fn new() -> Population {
        let mut rng = common::rng(POPULATION_SEED, 2);
        let mut seen = HashSet::new();
        let mut shapes = Vec::with_capacity(POPULATION);
        while shapes.len() < POPULATION {
            let shape = Shape::draw(&mut rng);
            let template = shape.build(&shape.literals(&mut rng));
            if seen.insert(canonicalize(template.clone()).shape_hash) {
                shapes.push((shape, template));
            }
        }
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=POPULATION)
            .map(|rank| {
                total += (rank as f64).powf(-ZIPF_S);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Population { shapes, cdf }
    }

    fn draw(&self, rng: &mut SmallRng) -> usize {
        let u = common::unit(rng);
        self.cdf.partition_point(|c| *c < u).min(POPULATION - 1)
    }
}

/// One generated request.
struct Request {
    shape: usize,
    expr: Expr,
    /// For prepared requests: the shape's template and the bindings that
    /// turn it into `expr`.
    prepared: Option<(Expr, Vec<Value>)>,
}

fn generate(population: &Population, rng: &mut SmallRng, count: usize) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let shape = population.draw(rng);
            let (s, template) = &population.shapes[shape];
            let expr = s.build(&s.literals(rng));
            let prepared = (common::unit(rng) < PREPARED_SHARE).then(|| {
                let bindings =
                    canonicalize(optimize(expr.clone(), OptimizerConfig::default()).expr).params;
                (template.clone(), bindings)
            });
            Request {
                shape,
                expr,
                prepared,
            }
        })
        .collect()
}

pub fn run(config: &RunConfig) -> Outcome {
    let population = Population::new();
    let mut setups = Vec::new();
    for round in 0..SETUP_REPEATS {
        let start = Instant::now();
        let mut times = SetupTimes::default();
        let (dataset, _) = common::load_dataset(
            true,
            &["nation", "region", "supplier", "customer"],
            &mut times,
        );
        let provider = common::native_provider(&dataset);
        // Warm-up: a fixed handful of shapes outside the population.
        let mut rng = common::rng(0, 0);
        for _ in 0..8 {
            let shape = Shape::draw(&mut rng);
            provider
                .execute(shape.build(&shape.literals(&mut rng)), STRATEGY)
                .expect("warm-up query runs");
        }
        provider.clear_compiled();
        times.total = start.elapsed().as_secs_f64();
        setups.push(times);
        if round + 1 == SETUP_REPEATS {
            return measure(config, &dataset, &provider, &population, &setups);
        }
    }
    unreachable!("SETUP_REPEATS is at least one")
}

/// Sample classes.
const ADHOC: usize = 0;
const PREPARED: usize = 1;

/// Runs one request on the calling thread; the tracer, when given, splits
/// it into its public calls.
fn execute(
    provider: &Provider<'_>,
    request: &Request,
    tracer: Option<(&mut Tracer, u64)>,
) -> mrq_common::Result<Vec<Vec<Value>>> {
    match (&request.prepared, tracer) {
        (None, None) => provider
            .execute(request.expr.clone(), STRATEGY)
            .map(|o| o.rows),
        (None, Some((t, id))) => {
            common::traced_execute(t, id, provider, request.expr.clone(), STRATEGY)
                .map(|o| o.0.rows)
        }
        (Some((template, bindings)), None) => provider
            .prepare(template.clone(), STRATEGY)?
            .execute(bindings)
            .map(|o| o.rows),
        (Some((template, bindings)), Some((t, id))) => t.span("request", id, |t| {
            let prepared = t.span("core.prepare", id, |_| {
                provider.prepare(template.clone(), STRATEGY)
            })?;
            t.span("core.prepared_execute", id, |_| prepared.execute(bindings))
                .map(|o| o.rows)
        }),
    }
}

/// Runs the loop for `duration`: generate a batch, execute it timed, then
/// check every result against LINQ-to-Objects on the same statement.
fn phase(
    config: &RunConfig,
    dataset: &Dataset,
    provider: &Provider<'_>,
    population: &Population,
    mut tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) -> Vec<Sample> {
    let duration = if tracer.is_some() {
        config.traced_phase()
    } else {
        config.untraced_phase()
    };
    let mut rng = common::rng(config.seed, 3);
    let mut phase = Vec::new();
    let deadline = Instant::now() + duration;
    let mut next_id = 0u64;
    while Instant::now() < deadline {
        let batch = generate(population, &mut rng, BATCH);
        let mut results = Vec::with_capacity(BATCH);
        for request in &batch {
            if Instant::now() >= deadline {
                break;
            }
            let id = next_id;
            next_id += 1;
            let start = Instant::now();
            let result = execute(provider, request, tracer.as_deref_mut().map(|t| (t, id)));
            let secs = start.elapsed().as_secs_f64();
            results.push((result, secs, id));
        }
        for (request, (result, secs, id)) in batch.iter().zip(results) {
            outcome.attempted += 1;
            let ordered = population.shapes[request.shape].0.ordered();
            let reference =
                common::linq_reference(dataset, request.expr.clone()).expect("reference runs");
            match result {
                Ok(rows)
                    if common::digest(&rows, ordered)
                        == common::digest(&reference.rows, ordered) =>
                {
                    let class = if request.prepared.is_some() {
                        PREPARED
                    } else {
                        ADHOC
                    };
                    phase.push(Sample {
                        latency: secs,
                        class,
                    });
                    if let Some(t) = tracer.as_deref_mut() {
                        probe(t, id, dataset, provider, request, &reference);
                    }
                }
                Ok(_) => {
                    outcome.failed += 1;
                    outcome
                        .notes
                        .push(format!("wrong result for shape {}", request.shape));
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.notes.push(format!("error: {e}"));
                }
            }
        }
    }
    phase
}

/// Layer probes on a checked request, run after the batch's timed section.
fn probe(
    tracer: &mut Tracer,
    id: u64,
    dataset: &Dataset,
    provider: &Provider<'_>,
    request: &Request,
    reference: &mrq_codegen::exec::QueryOutput,
) {
    let (canonical, _) = common::probe_compile_layers(tracer, id, &request.expr);
    if let Ok((_, plan)) = provider.compile(request.expr.clone()) {
        let params = &canonical.params;
        common::probe_dispatch(
            tracer,
            id.is_multiple_of(2),
            provider,
            &plan,
            params,
            STRATEGY,
            || common::run_engine(dataset, &plan.spec, params, STRATEGY),
        );
    }
    if id.is_multiple_of(8) {
        common::probe_submit(tracer, provider, &request.expr, STRATEGY);
    }
    common::probe_codec(
        tracer,
        id,
        &common::query_frame(id, &request.expr, STRATEGY),
        reference,
    );
}

fn measure(
    config: &RunConfig,
    dataset: &Dataset,
    provider: &Provider<'_>,
    population: &Population,
    setups: &[SetupTimes],
) -> Outcome {
    let mut outcome = Outcome {
        start_rss_mb: common::reset_peak_rss(),
        ..Outcome::default()
    };
    let untraced = phase(config, dataset, provider, population, None, &mut outcome);
    outcome.add_common(setups);
    let ok = untraced.len();
    outcome.add(
        "qps",
        common::busy_qps(&untraced),
        "1/s",
        ok,
        "completed requests per busy second, one caller",
    );
    outcome.add(
        "p50_ms",
        common::p50_ms(&untraced),
        "ms",
        ok,
        "median, ad-hoc and prepared",
    );
    outcome.add(
        "p99_ms",
        common::p99_ms(&untraced),
        "ms",
        ok,
        common::tail_note(&common::latencies(&untraced)),
    );
    for (name, class) in [("adhoc.execute_ms", ADHOC), ("adhoc.prepared_ms", PREPARED)] {
        let mine = untraced.iter().filter(|s| s.class == class);
        outcome.add_median(name, &mine.map(|s| s.latency).collect::<Vec<_>>(), "ms");
    }
    common::add_shares(
        &mut outcome,
        &untraced,
        &[
            ("adhoc.adhoc_share", ADHOC),
            ("adhoc.prepared_share", PREPARED),
        ],
    );
    let compile = provider.stats();
    let plan = provider.plan_cache_stats();
    outcome.notes.push(format!(
        "compile cache: {} hits, {} misses; plan cache: {} hits, {} misses, {} evictions, {} entries",
        compile.cache_hits, compile.cache_misses, plan.hits, plan.misses, plan.evictions, plan.entries
    ));
    if config.trace {
        common::add_provider_counters(&mut outcome, provider);
        let fresh = common::native_provider(dataset);
        let mut tracer = Tracer::new();
        let traced = phase(
            config,
            dataset,
            &fresh,
            population,
            Some(&mut tracer),
            &mut outcome,
        );
        common::add_layer_metrics(&mut outcome, &tracer);
        outcome.add_median("core.prepare_us", &tracer.durations("core.prepare"), "us");
        outcome.add_median(
            "core.prepared_execute_us",
            &tracer.durations("core.prepared_execute"),
            "us",
        );
        common::add_overhead(
            &mut outcome,
            common::p50_ms(&untraced),
            common::p50_ms(&traced),
            "p50_ms",
        );
        outcome.tracer = Some(tracer);
    }
    outcome
}
