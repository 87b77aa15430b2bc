//! Ill-typed scalar trees are rejected when the compiled strategies build
//! their typed kernels: C#, C and hybrid return `MrqError::Codegen` before
//! any row is read — in process and over the wire — instead of panicking
//! mid-scan. The interpreted LINQ baseline keeps its dynamic semantics.

use mrq_client::{Client, ClientError};
use mrq_common::{DataType, Field, MrqError, ParallelConfig, Schema, Value};
use mrq_core::{OwnedProvider, Provider, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_mheap::{ClassDesc, Heap};
use mrq_protocol::Server;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(
        "City",
        vec![
            Field::new("Name", DataType::Str),
            Field::new("Population", DataType::Int64),
        ],
    )
}

fn rows() -> Vec<Vec<Value>> {
    vec![
        vec![Value::str("Oslo"), Value::Int64(709_000)],
        vec![Value::str("Bergen"), Value::Int64(286_000)],
    ]
}

fn managed_provider() -> OwnedProvider {
    let mut heap = Heap::new();
    let class = heap.register_class(ClassDesc::from_schema(&schema()));
    let list = heap.new_list("cities", Some(class));
    for row in rows() {
        let obj = heap.alloc(class);
        heap.set_str(obj, 0, row[0].as_str().unwrap());
        heap.set_i64(obj, 1, row[1].as_i64().unwrap());
        heap.list_push(list, obj);
    }
    let mut provider = Provider::over_shared_heap(Arc::new(heap));
    provider.bind_managed(SourceId(0), list, schema());
    provider.into_shared()
}

fn native_provider() -> OwnedProvider {
    let mut provider = Provider::new();
    provider.bind_native_shared(
        SourceId(0),
        Arc::new(RowStore::from_rows(schema(), &rows())),
    );
    provider.into_shared()
}

/// `Where(c => c.Name > 5)`: a string compared with a number.
fn name_gt_5() -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam(
            "c",
            Expr::binary(BinaryOp::Gt, col("c", "Name"), lit(5i64)),
        ))
        .into_expr()
}

/// `Select(c => c.Name + 5)`: arithmetic on a string.
fn name_plus_5() -> Expr {
    Query::from_source(SourceId(0))
        .select(lam(
            "c",
            Expr::binary(BinaryOp::Add, col("c", "Name"), lit(5i64)),
        ))
        .into_expr()
}

fn ill_typed() -> [(&'static str, Expr); 2] {
    [("Name > 5", name_gt_5()), ("Name + 5", name_plus_5())]
}

fn managed_compiled() -> Vec<(&'static str, Strategy)> {
    let two_threads = ParallelConfig {
        threads: 2,
        min_rows_per_thread: 1,
        ..ParallelConfig::default()
    };
    vec![
        ("csharp", Strategy::CompiledCSharp),
        ("hybrid", Strategy::Hybrid(HybridConfig::default())),
        (
            "hybrid-buffered",
            Strategy::Hybrid(HybridConfig::buffered()),
        ),
        (
            "hybrid-parallel",
            Strategy::Hybrid(HybridConfig::default().parallel(two_threads)),
        ),
    ]
}

fn native_compiled() -> Vec<(&'static str, Strategy)> {
    vec![
        ("native", Strategy::CompiledNative),
        (
            "native-parallel",
            Strategy::CompiledNativeParallel(ParallelConfig {
                threads: 2,
                min_rows_per_thread: 1,
                ..ParallelConfig::default()
            }),
        ),
    ]
}

#[test]
fn ill_typed_trees_are_codegen_errors_in_process() {
    let managed = managed_provider();
    let native = native_provider();
    for (tree, expr) in ill_typed() {
        for (name, strategy) in managed_compiled() {
            let err = managed.execute(expr.clone(), strategy).unwrap_err();
            assert!(
                matches!(err, MrqError::Codegen(_)),
                "{tree} on {name}: {err:?}"
            );
        }
        for (name, strategy) in native_compiled() {
            let err = native.execute(expr.clone(), strategy).unwrap_err();
            assert!(
                matches!(err, MrqError::Codegen(_)),
                "{tree} on {name}: {err:?}"
            );
        }
    }
    // The interpreted baseline keeps its dynamic semantics.
    let linq = managed
        .execute(name_gt_5(), Strategy::LinqToObjects)
        .expect("LINQ filters ill-typed comparisons to false");
    assert!(linq.rows.is_empty());
}

#[test]
fn ill_typed_trees_are_codegen_errors_over_the_wire() {
    for (provider, strategies) in [
        (managed_provider(), managed_compiled()),
        (native_provider(), native_compiled()),
    ] {
        let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (tree, expr) in ill_typed() {
            for (name, strategy) in &strategies {
                let err = client
                    .query(expr.clone(), *strategy, QueryOptions::new())
                    .unwrap_err();
                assert!(
                    matches!(err, ClientError::Query(MrqError::Codegen(_))),
                    "{tree} on {name}: {err:?}"
                );
            }
        }
        // The connection survives typed errors.
        let ok = client
            .query(
                Query::from_source(SourceId(0)).count().into_expr(),
                strategies[0].1,
                QueryOptions::new(),
            )
            .expect("a well-typed query on the same connection");
        assert_eq!(ok.rows, vec![vec![Value::Int64(2)]]);
    }
}

#[test]
fn prepared_ill_typed_trees_fail_at_execution_with_codegen() {
    // Prepared plans bind parameters per execution, so the kernels — and
    // their type check — are built on every `execute`.
    let managed = managed_provider();
    for (name, strategy) in managed_compiled() {
        let prepared = managed.prepare(name_gt_5(), strategy).expect("prepare");
        let err = prepared.execute(&[Value::Int64(5)]).unwrap_err();
        assert!(matches!(err, MrqError::Codegen(_)), "{name}: {err:?}");
        let ok = prepared
            .execute(&[Value::str("Bergen")])
            .expect("a string binding type-checks");
        assert_eq!(ok.rows.len(), 1, "{name}: only Oslo sorts after Bergen");
    }
}
