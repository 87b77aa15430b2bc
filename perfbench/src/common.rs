//! Pieces every workload shares: run configuration, seeded draws,
//! result digests, data set-up, reference execution, and the probes that
//! time one layer's public call.

use crate::json::quote;
use crate::stats;
use crate::trace::Tracer;
use mrq_codegen::emit::{emit_source, Backend};
use mrq_codegen::exec::QueryOutput;
use mrq_codegen::spec::{lower, QuerySpec};
use mrq_common::{Schema, Value, WorkStats};
use mrq_core::{CompiledQuery, Provider, QueryOptions, Strategy};
use mrq_engine_csharp::HeapTable;
use mrq_engine_hybrid::{HybridConfig, Materialization, StagingLayout, TransferPolicy};
use mrq_engine_native::RowStore;
use mrq_expr::optimize::{optimize, OptimizerConfig};
use mrq_expr::{canonicalize, CanonicalQuery, Expr, SourceId};
use mrq_protocol::{Request, Response};
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TPC-H scale factor of every workload's data.
pub const SCALE_FACTOR: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Length of the untraced phase: the whole run, or its first half when
    /// a traced phase follows to measure the tracing overhead.
    pub fn untraced_phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    pub fn traced_phase(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// One completed request: its latency in seconds and a workload-defined
/// class.
#[derive(Clone, Copy)]
pub struct Sample {
    pub latency: f64,
    pub class: usize,
}

/// Latencies of `samples`, in seconds.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency).collect()
}

/// Adds, per named class, its share of the completed requests in `samples`:
/// the request mix a run actually measured.
pub fn add_shares(outcome: &mut Outcome, samples: &[Sample], classes: &[(&str, usize)]) {
    for (name, class) in classes {
        let mine = samples.iter().filter(|s| s.class == *class).count();
        outcome.add(
            *name,
            mine as f64 / samples.len().max(1) as f64,
            "ratio",
            samples.len(),
            "share of completed requests",
        );
    }
}

/// Completed requests per second of the caller's busy time.
pub fn busy_qps(samples: &[Sample]) -> f64 {
    samples.len() as f64 / samples.iter().map(|s| s.latency).sum::<f64>()
}

/// Median latency of `samples`, in ms.
pub fn p50_ms(samples: &[Sample]) -> f64 {
    stats::median(&latencies(samples)) * 1e3
}

/// 99th-percentile latency of `samples`, in ms.
pub fn p99_ms(samples: &[Sample]) -> f64 {
    stats::percentile(&latencies(samples), 99.0) * 1e3
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Errors, sheds and wrong results.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
    /// Resident size when the timed phase started, in MB.
    pub start_rss_mb: f64,
}

impl Outcome {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// Adds the median of `seconds` samples, scaled to `unit`.
    pub fn add_median(&mut self, name: impl Into<String>, seconds: &[f64], unit: &'static str) {
        let scale = match unit {
            "ms" => 1e3,
            "us" => 1e6,
            _ => 1.0,
        };
        let value = if seconds.is_empty() {
            0.0
        } else {
            stats::median(seconds) * scale
        };
        self.add(name, value, unit, seconds.len(), "median");
    }

    /// Adds the mean of counter observations.
    pub fn add_mean(&mut self, name: impl Into<String>, values: &[f64], unit: &'static str) {
        let value = if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        };
        self.add(name, value, unit, values.len(), "mean per request");
    }

    /// `setup_s`, the per-layer set-up spans, `peak_rss_mb` and
    /// `failed_share`, which every workload reports the same way.
    pub fn add_common(&mut self, setups: &[SetupTimes]) {
        let totals: Vec<f64> = setups.iter().map(|s| s.total).collect();
        self.add(
            "setup_s",
            stats::median(&totals),
            "s",
            totals.len(),
            "median of set-ups",
        );
        let pick = |f: fn(&SetupTimes) -> f64| setups.iter().map(f).collect::<Vec<f64>>();
        self.add_median("tpch.generate_s", &pick(|s| s.generate), "s");
        self.add_median("engine-native.load_s", &pick(|s| s.native_load), "s");
        if setups.iter().any(|s| s.heap_load > 0.0) {
            self.add_median("mheap.load_s", &pick(|s| s.heap_load), "s");
        }
        if setups.iter().any(|s| s.server_start > 0.0) {
            self.add_median("protocol.server_start_s", &pick(|s| s.server_start), "s");
        }
        self.add(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            1,
            "VmHWM since the end of set-up",
        );
        self.add(
            "rss_start_mb",
            self.start_rss_mb,
            "MB",
            1,
            "resident size when the timed phase started",
        );
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.add(
            "failed_share",
            share,
            "ratio",
            self.attempted as usize,
            "errors, sheds and wrong results over attempted",
        );
    }
}

/// Wall-clock parts of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub heap_load: f64,
    pub native_load: f64,
    pub server_start: f64,
    pub total: f64,
}

/// The environment every output is stamped with.
pub fn stamp(workload: &str, config: &RunConfig) -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"rustc\":{},\"scale_factor\":{SCALE_FACTOR},\"git\":{}}}",
        quote(workload),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        quote(&run("rustc", &["-V"])),
        quote(&run("git", &["rev-parse", "--short", "HEAD"])),
    )
}

/// Starts the timed phase's peak: hands the allocator's free pages back to
/// the kernel, then resets `VmHWM` to the current resident size, so
/// [`peak_rss_mb`] covers what the timed phase holds, not the set-ups'
/// transient peaks. Returns the resident size it starts from, in MB.
pub fn reset_peak_rss() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe { malloc_trim(0) };
    }
    // "5" resets the peak resident set size (Linux 4.0 and later).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("note: peak RSS not reset ({e}); peak_rss_mb includes set-up");
    }
    peak_rss_mb()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The generator of stream `stream` under run seed `seed`: the repository's
/// seedable `SmallRng`, so every draw is fixed by the seed alone.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

pub fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn hash_value(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Bool(b) => (1u8, b).hash(h),
        Value::Int32(i) => (2u8, i).hash(h),
        Value::Int64(i) => (3u8, i).hash(h),
        Value::Decimal(d) => (4u8, d.raw()).hash(h),
        Value::Float64(f) => (5u8, f.to_bits()).hash(h),
        Value::Date(d) => (6u8, d.epoch_days()).hash(h),
        Value::Str(s) => (7u8, s.as_bytes()).hash(h),
    }
}

/// A digest of a result: row count plus a hash of the rows, in order for
/// ordered queries and as a multiset otherwise. Values hash by their exact
/// bits, so equal digests mean bit-identical results up to a 64-bit hash
/// collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

pub fn digest(rows: &[Vec<Value>], ordered: bool) -> Digest {
    let mut acc = 0u64;
    for row in rows {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for v in row {
            hash_value(v, &mut h);
        }
        let row_hash = h.finish();
        acc = if ordered {
            acc.rotate_left(5).wrapping_mul(0x100_0000_01B3) ^ row_hash
        } else {
            acc.wrapping_add(SmallRng::seed_from_u64(row_hash).next_u64())
        };
    }
    Digest {
        rows: rows.len(),
        hash: acc,
    }
}

/// Running digest of a streamed result, batch by batch.
#[derive(Default)]
pub struct StreamDigest {
    rows: usize,
    acc: u64,
}

impl StreamDigest {
    pub fn add(&mut self, batch: &[Vec<Value>]) {
        let d = digest(batch, false);
        self.rows += d.rows;
        self.acc = self.acc.wrapping_add(d.hash);
    }

    pub fn finish(&self) -> Digest {
        Digest {
            rows: self.rows,
            hash: self.acc,
        }
    }
}

/// The strategies `tpch-embedded` rotates over, with their metric labels.
pub fn strategies() -> [(&'static str, Strategy); 4] {
    [
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("native", Strategy::CompiledNative),
        (
            "hybrid",
            Strategy::Hybrid(HybridConfig {
                materialization: Materialization::Buffered {
                    rows_per_buffer: 2048,
                },
                transfer: TransferPolicy::Max,
                layout: StagingLayout::RowWise,
                ..HybridConfig::default()
            }),
        ),
    ]
}

/// The representations of the generated data a workload loads.
pub struct Dataset {
    pub heap: Option<HeapDataset>,
    pub stores: HashMap<&'static str, Arc<RowStore>>,
}

/// Generates the TPC-H data and loads `tables` as row stores and, with
/// `heap`, as managed lists (the other tables' lists stay empty), timing
/// each layer's call. Returns the generated data too; callers drop it once
/// they have read what they need, so it does not count in the timed phase.
pub fn load_dataset(
    heap: bool,
    tables: &[&'static str],
    times: &mut SetupTimes,
) -> (Dataset, TpchData) {
    let t = Instant::now();
    let data = TpchData::generate(GenConfig::scale(SCALE_FACTOR));
    times.generate = t.elapsed().as_secs_f64();
    let heap = heap.then(|| {
        let listed = only(&data, tables);
        let t = Instant::now();
        let loaded = HeapDataset::load(&listed);
        times.heap_load = t.elapsed().as_secs_f64();
        loaded
    });
    let mut stores = HashMap::new();
    for table in tables {
        let rows = value_rows(&data, table);
        let t = Instant::now();
        let store = RowStore::from_rows(schema_of(table), &rows);
        times.native_load += t.elapsed().as_secs_f64();
        stores.insert(*table, Arc::new(store));
    }
    (Dataset { heap, stores }, data)
}

/// A copy of `data` with only `tables` filled.
fn only(data: &TpchData, tables: &[&str]) -> TpchData {
    macro_rules! keep {
        ($($table:ident),*) => {
            TpchData {$(
                $table: if tables.contains(&stringify!($table)) {
                    data.$table.clone()
                } else {
                    Vec::new()
                },
            )*}
        };
    }
    keep!(lineitem, orders, customer, part, supplier, partsupp, nation, region)
}

/// Every TPC-H source id mapped to its schema.
pub fn catalog() -> HashMap<SourceId, Schema> {
    TABLE_NAMES
        .iter()
        .enumerate()
        .map(|(i, table)| (SourceId(i as u32), schema_of(table)))
        .collect()
}

/// The sources a spec reads: root first, then join build sides.
fn spec_sources(spec: &QuerySpec) -> Vec<SourceId> {
    let mut sources = vec![spec.root];
    sources.extend(spec.joins.iter().map(|j| j.source));
    sources
}

/// A provider with every table bound as a managed list (the LINQ, C# and
/// hybrid strategies).
pub fn managed_provider(dataset: &Dataset) -> Provider<'_> {
    let heap = dataset
        .heap
        .as_ref()
        .expect("managed provider needs the heap");
    let mut provider = Provider::over_heap(&heap.heap);
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        provider.bind_managed(SourceId(i as u32), heap.list(table), schema_of(table));
    }
    provider
}

/// A provider with the loaded row stores bound (the C strategy).
pub fn native_provider(dataset: &Dataset) -> Provider<'_> {
    let mut provider = Provider::new();
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        if let Some(store) = dataset.stores.get(table) {
            provider.bind_native(SourceId(i as u32), store);
        }
    }
    provider
}

/// The managed and native providers over one dataset.
pub struct Providers<'d> {
    pub managed: Provider<'d>,
    pub native: Provider<'d>,
}

impl<'d> Providers<'d> {
    pub fn new(dataset: &'d Dataset) -> Providers<'d> {
        Providers {
            managed: managed_provider(dataset),
            native: native_provider(dataset),
        }
    }

    /// The provider that serves `strategy`.
    pub fn for_strategy(&self, strategy: Strategy) -> &Provider<'d> {
        match strategy {
            Strategy::CompiledNative | Strategy::CompiledNativeParallel(_) => &self.native,
            _ => &self.managed,
        }
    }
}

/// Runs a lowered spec directly on one engine, bypassing the provider.
/// Returns the output and, for the hybrid engine, its phase breakdown.
pub fn run_engine(
    dataset: &Dataset,
    spec: &QuerySpec,
    params: &[Value],
    strategy: Strategy,
) -> mrq_common::Result<(QueryOutput, Option<mrq_common::profile::CostBreakdown>)> {
    let sources = spec_sources(spec);
    if let Strategy::CompiledNative = strategy {
        let tables: Vec<&RowStore> = sources
            .iter()
            .map(|s| &*dataset.stores[queries::source_table(*s)])
            .collect();
        return mrq_engine_native::execute(spec, params, &tables).map(|o| (o, None));
    }
    let heap = dataset
        .heap
        .as_ref()
        .expect("managed engines need the heap");
    let tables: Vec<HeapTable<'_>> = sources
        .iter()
        .map(|s| {
            let table = queries::source_table(*s);
            HeapTable::new(&heap.heap, heap.list(table), schema_of(table))
        })
        .collect();
    let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
    match strategy {
        Strategy::LinqToObjects => mrq_engine_linq::execute(spec, params, &refs).map(|o| (o, None)),
        Strategy::CompiledCSharp => {
            mrq_engine_csharp::execute(spec, params, &refs).map(|o| (o, None))
        }
        Strategy::Hybrid(config) => mrq_engine_hybrid::execute(spec, params, &refs, config)
            .map(|run| (run.output, Some(run.breakdown))),
        other => Err(mrq_common::MrqError::Unsupported(format!(
            "{other:?} is not benchmarked"
        ))),
    }
}

/// The reference result: LINQ-to-Objects on the statement exactly as
/// written (no optimizer rewrites, no provider, no cache).
pub fn linq_reference(dataset: &Dataset, expr: Expr) -> mrq_common::Result<QueryOutput> {
    let canonical = canonicalize(expr);
    let spec = lower(&canonical, &catalog())?;
    run_engine(dataset, &spec, &canonical.params, Strategy::LinqToObjects).map(|(o, _)| o)
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times the front half of compilation layer by layer on `expr`: the
/// optimizer, canonicalisation, lowering and emission of both listings,
/// each as its own span. Returns the canonical form and the lowered spec.
pub fn probe_compile_layers(
    tracer: &mut Tracer,
    request: u64,
    expr: &Expr,
) -> (CanonicalQuery, Option<QuerySpec>) {
    let optimized = tracer.span("expr.optimize", request, |_| {
        optimize(expr.clone(), OptimizerConfig::default())
    });
    tracer.count("expr.rewrites", optimized.rewrites.len() as f64);
    let canonical = tracer.span("expr.canonicalize", request, |_| {
        canonicalize(optimized.expr)
    });
    let catalog = catalog();
    let spec = tracer.span("codegen.lower", request, |_| {
        lower(&canonical, &catalog).ok()
    });
    if let Some(spec) = &spec {
        let bytes = tracer.span("codegen.emit", request, |_| {
            emit_source(spec, Backend::CSharp).len() + emit_source(spec, Backend::C).len()
        });
        tracer.count("codegen.source_bytes", bytes as f64);
    }
    (canonical, spec)
}

/// `Provider::execute` split into its two public halves, each in its own
/// span under a `request` span: `Provider::compile` (filed as a hit or a
/// miss by whether the provider's miss counter moved) and
/// `Provider::execute_compiled`.
pub fn traced_execute(
    tracer: &mut Tracer,
    request: u64,
    provider: &Provider<'_>,
    expr: Expr,
    strategy: Strategy,
) -> mrq_common::Result<(QueryOutput, CanonicalQuery, Arc<CompiledQuery>)> {
    tracer.span("request", request, |t| {
        let before = provider.stats().cache_misses;
        let start = Instant::now();
        let compiled = provider.compile(expr);
        let end = Instant::now();
        let name = if provider.stats().cache_misses > before {
            "core.compile_miss"
        } else {
            "core.compile_hit"
        };
        t.record(name, request, start, end);
        let (canonical, plan) = compiled?;
        let out = t.span("core.execute_compiled", request, |_| {
            provider.execute_compiled(&plan.spec, &canonical.params, strategy)
        })?;
        Ok((out, canonical, plan))
    })
}

/// Times `Provider::execute_compiled` on a plan and `direct`, the same plan
/// run straight on its engine, and files the difference as
/// `core.dispatch_s`. Callers alternate `provider_first` between requests
/// so that warm caches favour neither side. Returns the direct output, the
/// engine's seconds and, for the hybrid engine, its phase breakdown.
pub fn probe_dispatch(
    tracer: &mut Tracer,
    provider_first: bool,
    provider: &Provider<'_>,
    plan: &CompiledQuery,
    params: &[Value],
    strategy: Strategy,
    direct: impl FnOnce()
        -> mrq_common::Result<(QueryOutput, Option<mrq_common::profile::CostBreakdown>)>,
) -> Option<(QueryOutput, f64, Option<mrq_common::profile::CostBreakdown>)> {
    let via_provider = || {
        let (out, secs) = timed(|| provider.execute_compiled(&plan.spec, params, strategy));
        std::hint::black_box(&out);
        secs
    };
    let (provider_secs, (result, secs)) = if provider_first {
        (via_provider(), timed(direct))
    } else {
        let direct = timed(direct);
        (via_provider(), direct)
    };
    let (out, breakdown) = result.ok()?;
    tracer.count("core.dispatch_s", provider_secs - secs);
    record_work(tracer, &out.work);
    Some((out, secs, breakdown))
}

/// Files `submit` + `join` minus `execute` of the same statement as
/// `core.submit_overhead_s`.
pub fn probe_submit(tracer: &mut Tracer, provider: &Provider<'_>, expr: &Expr, strategy: Strategy) {
    let (joined, submit_secs) = timed(|| {
        provider
            .submit(expr.clone(), strategy, QueryOptions::new())
            .join()
    });
    std::hint::black_box(&joined);
    let (executed, exec_secs) = timed(|| provider.execute(expr.clone(), strategy));
    std::hint::black_box(&executed);
    tracer.count("core.submit_overhead_s", submit_secs - exec_secs);
}

/// The unary `Request::Query` frame a remote caller would send for `expr`.
pub fn query_frame(request: u64, expr: &Expr, strategy: Strategy) -> Request {
    Request::Query {
        id: request,
        streamed: false,
        strategy,
        options: QueryOptions::new(),
        expr: expr.clone(),
    }
}

/// Times the protocol codec on this request's own frames: `frame` and the
/// result as a `Response::Rows`. Returns the seconds spent in all four
/// calls.
pub fn probe_codec(
    tracer: &mut Tracer,
    request: u64,
    frame: &Request,
    output: &QueryOutput,
) -> f64 {
    let response = Response::Rows {
        id: request,
        schema: output.schema.clone(),
        rows: output.rows.clone(),
    };
    let start = Instant::now();
    let bytes = tracer.span("protocol.request_encode", request, |_| frame.encode());
    let decoded = tracer.span("protocol.request_decode", request, |_| {
        Request::decode(&bytes)
    });
    std::hint::black_box(&decoded);
    let bytes = tracer.span("protocol.response_encode", request, |_| response.encode());
    tracer.count("protocol.response_bytes", bytes.len() as f64);
    let decoded = tracer.span("protocol.response_decode", request, |_| {
        Response::decode(&bytes)
    });
    std::hint::black_box(&decoded);
    start.elapsed().as_secs_f64()
}

/// Records one execution's exact work counters.
pub fn record_work(tracer: &mut Tracer, work: &WorkStats) {
    tracer.count("codegen.rows_scanned", work.rows_scanned as f64);
    tracer.count("codegen.build_inserts", work.build_inserts as f64);
    tracer.count("codegen.probe_lookups", work.probe_lookups as f64);
    tracer.count("codegen.key_comparisons", work.key_comparisons as f64);
    tracer.count("codegen.rows_materialized", work.rows_materialized as f64);
    tracer.count("engine-hybrid.staging_copies", work.staging_copies as f64);
}

/// Turns the spans and counters every workload records into metrics.
pub fn add_layer_metrics(outcome: &mut Outcome, tracer: &Tracer) {
    for (span, metric) in [
        ("expr.optimize", "expr.optimize_us"),
        ("expr.canonicalize", "expr.canonicalize_us"),
        ("codegen.lower", "codegen.lower_us"),
        ("codegen.emit", "codegen.emit_us"),
        ("core.compile_hit", "core.compile_hit_us"),
        ("core.compile_miss", "core.compile_miss_us"),
        ("protocol.request_encode", "protocol.request_encode_us"),
        ("protocol.request_decode", "protocol.request_decode_us"),
        ("protocol.response_encode", "protocol.response_encode_us"),
        ("protocol.response_decode", "protocol.response_decode_us"),
    ] {
        outcome.add_median(metric, &tracer.durations(span), "us");
    }
    let hits = tracer.durations("core.compile_hit").len();
    let misses = tracer.durations("core.compile_miss").len();
    outcome.add(
        "core.compile_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        hits + misses,
        "Provider::compile calls that left cache_misses unchanged",
    );
    for (name, unit) in [
        ("expr.rewrites", "count"),
        ("codegen.source_bytes", "bytes"),
        ("protocol.response_bytes", "bytes"),
        ("codegen.rows_scanned", "count"),
        ("codegen.build_inserts", "count"),
        ("codegen.probe_lookups", "count"),
        ("codegen.key_comparisons", "count"),
        ("codegen.rows_materialized", "count"),
        ("engine-hybrid.staging_copies", "count"),
    ] {
        outcome.add_mean(name, tracer.counts(name), unit);
    }
    // Dispatch and submission overheads are differences of paired calls.
    for (name, samples) in [
        ("core.dispatch_us", tracer.counts("core.dispatch_s")),
        (
            "core.submit_overhead_us",
            tracer.counts("core.submit_overhead_s"),
        ),
    ] {
        outcome.add_median(name, samples, "us");
    }
}

/// Adds the plan-cache and admission counters of a provider.
pub fn add_provider_counters(outcome: &mut Outcome, provider: &Provider<'_>) {
    let plan = provider.plan_cache_stats();
    outcome.add(
        "core.plan_cache_hit_ratio",
        plan.hit_rate(),
        "ratio",
        (plan.hits + plan.misses) as usize,
        "plan_cache_stats(); 0 when the workload never prepares",
    );
    outcome.add(
        "core.plan_cache_entries",
        plan.entries as f64,
        "count",
        1,
        "at end of run",
    );
    outcome.add(
        "core.plan_cache_evictions",
        plan.evictions as f64,
        "count",
        1,
        "over the run",
    );
    outcome.add(
        "core.admission_shed",
        provider.admission_stats().shed as f64,
        "count",
        1,
        "admission_stats()",
    );
}

/// `trace.overhead_pct`: how much slower the traced phase's end-to-end
/// figure is than the untraced phase's, in percent.
pub fn add_overhead(outcome: &mut Outcome, untraced: f64, traced: f64, what: &str) {
    outcome.add(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
        2,
        format!("{what}: traced {traced:.4} vs untraced {untraced:.4}"),
    );
}

/// The median and the highest percentile with at least ten samples beyond
/// it, as a note for a latency metric.
pub fn tail_note(latencies: &[f64]) -> String {
    match stats::highest_supported_percentile(latencies.len()) {
        Some(p) => format!(
            "p{p} = {:.4} ms is the highest percentile with >=10 samples beyond",
            stats::percentile(latencies, p) * 1e3
        ),
        None => "fewer than 20 samples".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(keys: &[i64]) -> Vec<Vec<Value>> {
        keys.iter()
            .map(|k| vec![Value::Int64(*k), Value::str("x"), Value::Float64(0.5)])
            .collect()
    }

    #[test]
    fn digests_respect_order_only_when_asked() {
        let (a, b) = (rows(&[1, 2, 3]), rows(&[3, 1, 2]));
        assert_ne!(digest(&a, true), digest(&b, true));
        assert_eq!(digest(&a, false), digest(&b, false));
        assert_ne!(digest(&a, false), digest(&rows(&[1, 2, 4]), false));
        // A multiset digest tells a repeated row from a distinct one.
        assert_ne!(digest(&rows(&[1, 1]), false), digest(&rows(&[1, 2]), false));
    }

    #[test]
    fn stream_digest_equals_the_whole_result() {
        let all = rows(&[5, 6, 7, 8, 9]);
        let mut streamed = StreamDigest::default();
        streamed.add(&all[..2]);
        streamed.add(&all[2..]);
        assert_eq!(streamed.finish(), digest(&all, false));
    }

    #[test]
    fn generator_is_fixed_by_its_seed() {
        let draw = |seed| {
            let mut rng = rng(seed, 1);
            (0..8).map(|_| rng.gen_range(3..=9)).collect::<Vec<i64>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(draw(7).iter().all(|v| (3..=9).contains(v)));
    }
}
