//! `serve-mix`: the network front end. A loopback `mrq_protocol::Server`
//! is hosted in this process over an `OwnedProvider` with native stores and
//! two-thread parallelism; two `mrq_client::Client` connections run closed
//! loops over a seeded mix of point lookups, prepared executions and large
//! streamed scans.

use crate::common::{
    self, Digest, Outcome, RunConfig, Sample, SetupTimes, StreamDigest, SETUP_REPEATS,
};
use crate::stats;
use crate::trace::Tracer;
use mrq_client::{Client, ClientError, Statement};
use mrq_common::{Date, Value};
use mrq_core::{AdmissionConfig, OwnedProvider, ParallelConfig, Provider, QueryOptions, Strategy};
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_protocol::{Request, Server};
use mrq_tpch::queries;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const STRATEGY: Strategy = Strategy::CompiledNative;
/// Rows per streamed batch.
const STREAM_BATCH_ROWS: usize = 1024;
/// Requests generated per connection before they are timed.
const CHUNK: usize = 32;

/// Worker threads per query on the server, as `mrq-load` hosts it.
fn server_parallelism() -> ParallelConfig {
    ParallelConfig::with_threads(2)
}

/// One request of the mix, as the seed drew it. Small and hashable, so a
/// run keeps every issued request and checks each distinct one once.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// Ad-hoc key lookup on customer (`customer`) or orders.
    Point { customer: bool, key: i64 },
    /// The connection's prepared statement bound to a customer key.
    Prepared { key: i64 },
    /// Line items shipped at least `days` after 1996-01-01.
    Stream { days: i32 },
}

/// `source.Where(x => x.<column> <op> value).Select(x => new { fields })`.
fn select_where(
    source: SourceId,
    column: &str,
    op: BinaryOp,
    value: Value,
    fields: &[&str],
) -> Expr {
    Query::from_source(source)
        .where_(lam("x", Expr::binary(op, col("x", column), lit(value))))
        .select(lam(
            "x",
            Expr::Constructor {
                name: "Row".into(),
                fields: fields
                    .iter()
                    .map(|f| (f.to_string(), col("x", f)))
                    .collect(),
            },
        ))
        .into_expr()
}

/// The statement every connection prepares: a customer's orders, prepared
/// with key 1 and executed with the key as its one binding.
fn customer_orders(key: i64) -> Expr {
    select_where(
        queries::SRC_ORDERS,
        "o_custkey",
        BinaryOp::Eq,
        Value::Int64(key),
        &["o_orderkey", "o_totalprice", "o_orderdate"],
    )
}

impl Kind {
    /// The statement, with any binding in place.
    fn expr(self) -> Expr {
        match self {
            Kind::Point {
                customer: true,
                key,
            } => select_where(
                queries::SRC_CUSTOMER,
                "c_custkey",
                BinaryOp::Eq,
                Value::Int64(key),
                &["c_custkey", "c_name", "c_acctbal", "c_mktsegment"],
            ),
            Kind::Point {
                customer: false,
                key,
            } => select_where(
                queries::SRC_ORDERS,
                "o_orderkey",
                BinaryOp::Eq,
                Value::Int64(key),
                &["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
            ),
            Kind::Prepared { key } => customer_orders(key),
            Kind::Stream { days } => select_where(
                queries::SRC_LINEITEM,
                "l_shipdate",
                BinaryOp::Ge,
                Value::Date(Date::from_ymd(1996, 1, 1).add_days(days)),
                &[
                    "l_orderkey",
                    "l_linenumber",
                    "l_quantity",
                    "l_extendedprice",
                ],
            ),
        }
    }

    fn is_stream(self) -> bool {
        matches!(self, Kind::Stream { .. })
    }
}

/// Keys that exist in the data, for the lookups to hit.
struct Keys {
    custkeys: Vec<i64>,
    orderkeys: Vec<i64>,
}

/// Seeded mix: 60 % point lookups, 30 % prepared executions, 10 % streams
/// of 6k–24k rows. The shares and stream sizes are assumptions with no
/// public trace behind them; each run reports the shares it measured.
fn generate(keys: &Keys, rng: &mut SmallRng, count: usize) -> Vec<Kind> {
    (0..count)
        .map(|_| match rng.gen_range(0..10) {
            0..=5 => {
                let customer = rng.gen_bool(0.5);
                let key = *common::pick(
                    rng,
                    if customer {
                        &keys.custkeys
                    } else {
                        &keys.orderkeys
                    },
                );
                Kind::Point { customer, key }
            }
            6..=8 => Kind::Prepared {
                key: *common::pick(rng, &keys.custkeys),
            },
            _ => Kind::Stream {
                days: rng.gen_range(0..=730),
            },
        })
        .collect()
}

/// The served row stores by source.
#[derive(Clone)]
struct Stores(Vec<(SourceId, Arc<RowStore>)>);

impl Stores {
    fn of(&self, source: SourceId) -> &RowStore {
        &self
            .0
            .iter()
            .find(|(s, _)| *s == source)
            .expect("served source")
            .1
    }
}

fn provider_over(stores: &Stores) -> OwnedProvider {
    let mut provider = Provider::new();
    for (source, store) in &stores.0 {
        provider.bind_native_shared(*source, Arc::clone(store));
    }
    provider.set_parallelism(server_parallelism());
    provider.set_admission(AdmissionConfig::unbounded());
    provider.into_shared()
}

/// A running self-hosted server with its connected clients.
struct Hosted {
    server: Server,
    provider: OwnedProvider,
    clients: Vec<(Client, Statement)>,
    keys: Keys,
    stores: Stores,
}

impl Hosted {
    fn stop(self) {
        let Hosted {
            mut server,
            clients,
            ..
        } = self;
        drop(clients);
        server.shutdown();
    }
}

fn set_up(times: &mut SetupTimes) -> Hosted {
    let start = Instant::now();
    let (dataset, data) = common::load_dataset(false, &["lineitem", "orders", "customer"], times);
    let keys = Keys {
        custkeys: data.customer.iter().map(|c| c.c_custkey).collect(),
        orderkeys: data.orders.iter().map(|o| o.o_orderkey).collect(),
    };
    drop(data);
    let stores = Stores(
        [
            (queries::SRC_LINEITEM, "lineitem"),
            (queries::SRC_ORDERS, "orders"),
            (queries::SRC_CUSTOMER, "customer"),
        ]
        .into_iter()
        .map(|(source, table)| (source, Arc::clone(&dataset.stores[table])))
        .collect(),
    );
    drop(dataset);
    let provider = provider_over(&stores);
    let server_start = Instant::now();
    let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind a loopback port");
    let clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).expect("connect and handshake"))
        .collect();
    times.server_start = server_start.elapsed().as_secs_f64();
    // Warm-up: prepare each connection's statement and send a few requests.
    let warm = generate(&keys, &mut common::rng(0, 0), 6);
    let clients = clients
        .into_iter()
        .map(|mut client| {
            let statement = client
                .prepare(customer_orders(1), STRATEGY)
                .expect("prepare");
            for kind in &warm {
                send(&mut client, statement, *kind).expect("warm-up request");
            }
            (client, statement)
        })
        .collect();
    times.total = start.elapsed().as_secs_f64();
    Hosted {
        server,
        provider,
        clients,
        keys,
        stores,
    }
}

/// One completed request.
struct Done {
    kind: Kind,
    digest: Digest,
    latency: f64,
    /// Streams only: time to the first batch, and rows delivered.
    ttfb: f64,
    rows: usize,
}

/// Sends one request and waits for its whole reply; times it from submit.
fn send(client: &mut Client, statement: Statement, kind: Kind) -> Result<Done, ClientError> {
    let start = Instant::now();
    let (digest, ttfb) = match kind {
        Kind::Point { .. } => {
            let r = client.query(kind.expr(), STRATEGY, QueryOptions::new())?;
            (common::digest(&r.rows, false), 0.0)
        }
        Kind::Prepared { key } => {
            let r = client.execute(statement, &[Value::Int64(key)], QueryOptions::new())?;
            (common::digest(&r.rows, false), 0.0)
        }
        Kind::Stream { .. } => {
            let options = QueryOptions::new().with_stream_batch_rows(STREAM_BATCH_ROWS);
            let mut stream = client.query_stream(kind.expr(), STRATEGY, options)?;
            let mut digest = StreamDigest::default();
            let mut ttfb = None;
            while let Some(batch) = stream.next_batch()? {
                ttfb.get_or_insert_with(|| start.elapsed().as_secs_f64());
                digest.add(&batch);
            }
            (digest.finish(), ttfb.unwrap_or(0.0))
        }
    };
    Ok(Done {
        kind,
        digest,
        latency: start.elapsed().as_secs_f64(),
        ttfb,
        rows: digest.rows,
    })
}

/// Per-connection in-process probes for the traced phase.
struct Probes {
    tracer: Tracer,
    /// The server's own provider (in-process execution and submission).
    server: OwnedProvider,
    /// A fresh provider over the same stores, so compile misses show.
    fresh: OwnedProvider,
    stores: Stores,
}

impl Probes {
    fn after(&mut self, id: u64, done: &Done, start: Instant) {
        let t = &mut self.tracer;
        let expr = done.kind.expr();
        t.record(
            "request",
            id,
            start,
            start + Duration::from_secs_f64(done.latency),
        );
        if done.kind.is_stream() {
            let first = start + Duration::from_secs_f64(done.ttfb);
            t.record("protocol.stream_wire_ttfb", id, start, first);
            let options = QueryOptions::new().with_stream_batch_rows(STREAM_BATCH_ROWS);
            let begin = Instant::now();
            let mut stream = self.server.submit_stream(expr, STRATEGY, options);
            let mut batches = 0;
            while let Some(batch) = stream.next_batch() {
                if batches == 0 {
                    t.record("common.stream_ttfb", id, begin, Instant::now());
                }
                batches += 1;
                std::hint::black_box(&batch);
            }
            t.count("common.stream_batches", batches as f64);
            return;
        }
        let frame = match done.kind {
            Kind::Prepared { key } => Request::Execute {
                id,
                statement: 1,
                streamed: false,
                options: QueryOptions::new(),
                bindings: vec![Value::Int64(key)],
            },
            _ => common::query_frame(id, &expr, STRATEGY),
        };
        let (executed, exec_secs) = common::timed(|| self.server.execute(expr.clone(), STRATEGY));
        let Ok(output) = executed else { return };
        let codec_secs = common::probe_codec(t, id, &frame, &output);
        t.count("protocol.wire_s", done.latency - exec_secs - codec_secs);
        common::probe_compile_layers(t, id, &expr);
        if let Ok((_, canonical, plan)) =
            common::traced_execute(t, id, &self.fresh, expr.clone(), STRATEGY)
        {
            let mut tables: Vec<&RowStore> = vec![self.stores.of(plan.spec.root)];
            tables.extend(plan.spec.joins.iter().map(|j| self.stores.of(j.source)));
            let params = &canonical.params;
            common::probe_dispatch(
                t,
                id.is_multiple_of(2),
                &self.fresh,
                &plan,
                params,
                STRATEGY,
                || {
                    let parallel = server_parallelism();
                    mrq_engine_native::execute_parallel(&plan.spec, params, &tables, &[], parallel)
                        .map(|o| (o, None))
                },
            );
        }
        if id.is_multiple_of(4) {
            common::probe_submit(t, &self.server, &expr, STRATEGY);
        }
    }
}

/// What one connection did in a phase.
struct Connection {
    issued: u64,
    done: Vec<Done>,
    errors: Vec<String>,
    tracer: Option<Tracer>,
}

/// One connection's closed loop for `duration`.
fn connection_loop(
    (client, statement): &mut (Client, Statement),
    keys: &Keys,
    seed: u64,
    connection: usize,
    deadline: Instant,
    mut probes: Option<Probes>,
) -> Connection {
    let mut rng = common::rng(seed, 10 + connection as u64);
    let mut out = Connection {
        issued: 0,
        done: Vec::new(),
        errors: Vec::new(),
        tracer: None,
    };
    while Instant::now() < deadline {
        for kind in generate(keys, &mut rng, CHUNK) {
            if Instant::now() >= deadline {
                break;
            }
            let id = ((connection as u64) << 32) | out.issued;
            out.issued += 1;
            let start = Instant::now();
            match send(client, *statement, kind) {
                Ok(done) => {
                    if let Some(p) = probes.as_mut() {
                        p.after(id, &done, start);
                    }
                    out.done.push(done);
                }
                Err(e) => out
                    .errors
                    .push(format!("connection {connection} request {id}: {e}")),
            }
        }
    }
    out.tracer = probes.map(|p| p.tracer);
    out
}

/// Sample classes.
const POINT: usize = 0;
const PREPARED: usize = 1;
const STREAM: usize = 2;

struct Phase {
    done: Vec<Done>,
    samples: Vec<Sample>,
    wall: f64,
    tracer: Option<Tracer>,
}

impl Phase {
    /// The `point` and `prepared` requests.
    fn unary(&self) -> Vec<Sample> {
        self.samples
            .iter()
            .filter(|s| s.class != STREAM)
            .copied()
            .collect()
    }
}

/// Runs both connections for one phase, then checks every reply against
/// in-process execution of the same statement on the server's provider.
fn phase(config: &RunConfig, hosted: &mut Hosted, traced: bool, outcome: &mut Outcome) -> Phase {
    let duration = if traced {
        config.traced_phase()
    } else {
        config.untraced_phase()
    };
    let (keys, provider, stores) = (&hosted.keys, &hosted.provider, &hosted.stores);
    let start = Instant::now();
    let connections: Vec<Connection> = std::thread::scope(|scope| {
        let workers: Vec<_> = hosted
            .clients
            .iter_mut()
            .enumerate()
            .map(|(connection, client)| {
                let probes = traced.then(|| Probes {
                    tracer: Tracer::new(),
                    server: provider.clone(),
                    fresh: provider_over(stores),
                    stores: stores.clone(),
                });
                scope.spawn(move || {
                    connection_loop(
                        client,
                        keys,
                        config.seed,
                        connection,
                        start + duration,
                        probes,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread"))
            .collect()
    });
    let mut phase = Phase {
        done: Vec::new(),
        samples: Vec::new(),
        wall: start.elapsed().as_secs_f64(),
        tracer: traced.then(Tracer::new),
    };
    let mut references: HashMap<Kind, Option<Digest>> = HashMap::new();
    for connection in connections {
        outcome.attempted += connection.issued;
        outcome.failed += connection.errors.len() as u64;
        outcome.notes.extend(connection.errors);
        if let (Some(mine), Some(theirs)) = (phase.tracer.as_mut(), connection.tracer) {
            mine.merge(theirs);
        }
        for done in connection.done {
            let reference = *references.entry(done.kind).or_insert_with(|| {
                let out = provider.execute(done.kind.expr(), STRATEGY);
                out.ok().map(|o| common::digest(&o.rows, false))
            });
            if reference == Some(done.digest) {
                let class = match done.kind {
                    Kind::Point { .. } => POINT,
                    Kind::Prepared { .. } => PREPARED,
                    Kind::Stream { .. } => STREAM,
                };
                phase.samples.push(Sample {
                    latency: done.latency,
                    class,
                });
                phase.done.push(done);
            } else {
                outcome.failed += 1;
                outcome
                    .notes
                    .push("a reply differs from in-process execution".into());
            }
        }
    }
    phase
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut setups = Vec::new();
    let mut hosted: Option<Hosted> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = hosted.take() {
            previous.stop();
        }
        let mut times = SetupTimes::default();
        hosted = Some(set_up(&mut times));
        setups.push(times);
    }
    let mut hosted = hosted.expect("SETUP_REPEATS is at least one");
    let mut outcome = Outcome {
        start_rss_mb: common::reset_peak_rss(),
        ..Outcome::default()
    };
    let untraced = phase(config, &mut hosted, false, &mut outcome);
    outcome.add_common(&setups);
    let completed = untraced.samples.len();
    let unary = untraced.unary();
    outcome.add(
        "qps",
        completed as f64 / untraced.wall,
        "1/s",
        completed,
        "completed requests per second, two connections",
    );
    outcome.add(
        "p50_ms",
        common::p50_ms(&unary),
        "ms",
        unary.len(),
        "median, point and prepared",
    );
    outcome.add(
        "p99_ms",
        common::p99_ms(&unary),
        "ms",
        unary.len(),
        common::tail_note(&common::latencies(&unary)),
    );
    for (name, class) in [("serve.point_ms", POINT), ("serve.prepared_ms", PREPARED)] {
        let mine = untraced.samples.iter().filter(|s| s.class == class);
        outcome.add_median(name, &mine.map(|s| s.latency).collect::<Vec<_>>(), "ms");
    }
    common::add_shares(
        &mut outcome,
        &untraced.samples,
        &[
            ("serve.point_share", POINT),
            ("serve.prepared_share", PREPARED),
            ("serve.stream_share", STREAM),
        ],
    );
    let streams: Vec<&Done> = untraced
        .done
        .iter()
        .filter(|d| d.kind.is_stream())
        .collect();
    let ttfb: Vec<f64> = streams.iter().map(|d| d.ttfb).collect();
    outcome.add_median("stream_ttfb_ms", &ttfb, "ms");
    let rate: Vec<f64> = streams.iter().map(|d| d.rows as f64 / d.latency).collect();
    outcome.add(
        "stream_rows_per_s",
        stats::median(&rate),
        "rows/s",
        rate.len(),
        "median over streams of rows / stream time",
    );

    if config.trace {
        common::add_provider_counters(&mut outcome, &hosted.provider);
        let mut traced = phase(config, &mut hosted, true, &mut outcome);
        let tracer = traced.tracer.take().expect("traced phase keeps its spans");
        common::add_layer_metrics(&mut outcome, &tracer);
        outcome.add_median("protocol.wire_us", tracer.counts("protocol.wire_s"), "us");
        for (span, metric) in [
            ("protocol.stream_wire_ttfb", "protocol.stream_wire_ttfb_ms"),
            ("common.stream_ttfb", "common.stream_ttfb_ms"),
        ] {
            outcome.add_median(metric, &tracer.durations(span), "ms");
        }
        let batches = tracer.counts("common.stream_batches");
        outcome.add_mean("common.stream_batches", batches, "count");
        common::add_overhead(
            &mut outcome,
            common::p50_ms(&untraced.unary()),
            common::p50_ms(&traced.unary()),
            "p50_ms",
        );
        outcome.tracer = Some(tracer);
    }
    hosted.stop();
    outcome
}
