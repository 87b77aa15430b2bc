//! The typed kernels against the interpreted LINQ-to-Objects baseline.
//!
//! Every `ScalarExpr` variant is compiled for every `DataType` and run
//! through the compiled template over a `ValueTable`; its rows must equal
//! what LINQ-to-Objects computes over the same table. Ill-typed trees must
//! fail with `MrqError::Codegen` when the kernels are built. Parameters are
//! bound per execution, so a `Param` behaves exactly like the same value as
//! a `Const`, and one plan serves different bindings.

use mrq_codegen::exec::{execute_once, ExecState, QueryOutput, ValueTable};
use mrq_codegen::spec::{AggSpec, ColumnRef, JoinSpec, OutputExpr, QuerySpec, ScalarExpr, StrOp};
use mrq_common::{DataType, Date, Decimal, Field, MrqError, Result, Schema, Value};
use mrq_expr::{AggFunc, BinaryOp, SourceId, UnaryOp};

const TYPES: [DataType; 7] = [
    DataType::Bool,
    DataType::Int32,
    DataType::Int64,
    DataType::Decimal,
    DataType::Float64,
    DataType::Date,
    DataType::Str,
];

const COMPARISONS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

const ARITHMETIC: [BinaryOp; 4] = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div];

fn dec(units: i64, cents: i64) -> Decimal {
    Decimal::new(units, cents)
}

/// Column `i` holds `TYPES[i]`; the last column is a row id.
fn schema() -> Schema {
    let mut fields: Vec<Field> = TYPES
        .iter()
        .map(|t| Field::new(format!("{t}").to_lowercase(), *t))
        .collect();
    fields.push(Field::new("id", DataType::Int64));
    Schema::new("Row", fields)
}

fn table() -> ValueTable {
    let rows = [
        (true, 3, 10, dec(1, 25), 0.5, (1995, 1, 1), "alpha"),
        (false, -7, -20, dec(-3, -50), -2.25, (1996, 6, 15), "beta"),
        (true, 12, 30, dec(7, 0), 8.0, (1994, 12, 31), "alphabet"),
        (false, 3, 10, dec(1, 25), 0.5, (1995, 1, 1), "alpha"),
    ];
    ValueTable::new(
        schema(),
        rows.iter()
            .enumerate()
            .map(|(id, &(b, i, l, d, f, (y, m, day), s))| {
                vec![
                    Value::Bool(b),
                    Value::Int32(i),
                    Value::Int64(l),
                    Value::Decimal(d),
                    Value::Float64(f),
                    Value::Date(Date::from_ymd(y, m, day)),
                    Value::str(s),
                    Value::Int64(id as i64),
                ]
            })
            .collect(),
    )
}

/// A non-zero value of each type (the right operand of `Div` included).
fn sample(dtype: DataType) -> Value {
    match dtype {
        DataType::Bool => Value::Bool(true),
        DataType::Int32 => Value::Int32(3),
        DataType::Int64 => Value::Int64(10),
        DataType::Decimal => Value::Decimal(dec(1, 25)),
        DataType::Float64 => Value::Float64(0.5),
        DataType::Date => Value::Date(Date::from_ymd(1995, 1, 1)),
        DataType::Str => Value::str("alpha"),
    }
}

fn column(dtype: DataType) -> ScalarExpr {
    let col = TYPES.iter().position(|t| *t == dtype).unwrap();
    ScalarExpr::Column(ColumnRef { slot: 0, col })
}

fn binary(op: BinaryOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn unary(op: UnaryOp, expr: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Unary {
        op,
        expr: Box::new(expr),
    }
}

fn string_method(op: StrOp, target: ScalarExpr, arg: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Str {
        op,
        target: Box::new(target),
        arg: Box::new(arg),
    }
}

fn bare_spec(output: Vec<(String, OutputExpr)>, output_types: Vec<DataType>) -> QuerySpec {
    QuerySpec {
        root: SourceId(0),
        root_filters: Vec::new(),
        joins: Vec::new(),
        post_filters: Vec::new(),
        group_keys: Vec::new(),
        aggregates: Vec::new(),
        output_schema: Schema::new(
            "Out",
            output
                .iter()
                .zip(output_types)
                .map(|((name, _), t)| Field::new(name.clone(), t))
                .collect(),
        ),
        output,
        sort: Vec::new(),
        take: None,
        take_param: None,
        param_slots: 0,
        hidden_outputs: 0,
    }
}

/// `Select(r => (expr, r.id))`. The output schema only labels columns.
fn projection(expr: ScalarExpr) -> QuerySpec {
    let mut spec = bare_spec(
        vec![
            ("v".into(), OutputExpr::Scalar(expr)),
            (
                "id".into(),
                OutputExpr::Scalar(ScalarExpr::Column(ColumnRef { slot: 0, col: 7 })),
            ),
        ],
        vec![DataType::Int64, DataType::Int64],
    );
    spec.param_slots = 1;
    spec
}

/// `Where(r => predicate).Select(r => r.id)`.
fn selection(predicate: ScalarExpr) -> QuerySpec {
    let mut spec = bare_spec(
        vec![(
            "id".into(),
            OutputExpr::Scalar(ScalarExpr::Column(ColumnRef { slot: 0, col: 7 })),
        )],
        vec![DataType::Int64],
    );
    spec.root_filters = vec![predicate];
    spec.param_slots = 1;
    spec
}

fn compiled(spec: &QuerySpec, params: &[Value]) -> Result<QueryOutput> {
    let table = table();
    execute_once(spec, params, &[&table], &[schema()])
}

fn linq(spec: &QuerySpec, params: &[Value]) -> QueryOutput {
    let table = table();
    mrq_engine_linq::execute(spec, params, &[&table]).expect("LINQ runs every tree")
}

fn assert_same_as_linq(spec: &QuerySpec, params: &[Value], context: &str) {
    let got = compiled(spec, params).unwrap_or_else(|e| panic!("{context}: {e}"));
    let want = linq(spec, params);
    assert_eq!(got.rows, want.rows, "{context}");
    assert!(
        got.rows
            .iter()
            .flatten()
            .zip(want.rows.iter().flatten())
            .all(|(a, b)| a.dtype() == b.dtype()),
        "{context}: value types differ: {:?} vs {:?}",
        got.rows,
        want.rows
    );
}

fn assert_codegen_error(spec: &QuerySpec, context: &str) {
    match compiled(spec, &[sample(DataType::Int64)]) {
        Err(MrqError::Codegen(_)) => {}
        other => panic!("{context}: expected a Codegen error, got {other:?}"),
    }
}

fn is_number(dtype: DataType) -> bool {
    matches!(
        dtype,
        DataType::Int32 | DataType::Int64 | DataType::Decimal | DataType::Float64
    )
}

/// Every well-typed leaf and operator, per type, in value and filter
/// position.
#[test]
fn every_variant_and_type_matches_linq() {
    for dtype in TYPES {
        let v = sample(dtype);
        let params = [v.clone()];
        let leaves = [
            ("column", column(dtype)),
            ("const", ScalarExpr::Const(v.clone())),
            ("param", ScalarExpr::Param(0)),
        ];
        for (leaf, expr) in &leaves {
            assert_same_as_linq(
                &projection(expr.clone()),
                &params,
                &format!("{leaf} {dtype}"),
            );
        }
        for op in COMPARISONS {
            for (leaf, right) in &leaves {
                let cmp = binary(op, column(dtype), right.clone());
                let context = format!("{dtype} column {op:?} {leaf}");
                assert_same_as_linq(&projection(cmp.clone()), &params, &context);
                assert_same_as_linq(&selection(cmp), &params, &format!("filter {context}"));
            }
        }
        if is_number(dtype) {
            for op in ARITHMETIC {
                for (leaf, right) in &leaves {
                    let expr = binary(op, column(dtype), right.clone());
                    let context = format!("{dtype} column {op:?} {leaf}");
                    assert_same_as_linq(&projection(expr), &params, &context);
                }
            }
            let neg = unary(UnaryOp::Neg, column(dtype));
            assert_same_as_linq(&projection(neg), &params, &format!("-{dtype}"));
        }
        match dtype {
            DataType::Bool => {
                for op in [BinaryOp::And, BinaryOp::Or] {
                    for (leaf, right) in &leaves {
                        let expr = binary(op, column(dtype), right.clone());
                        let context = format!("bool column {op:?} {leaf}");
                        assert_same_as_linq(&projection(expr.clone()), &params, &context);
                        assert_same_as_linq(&selection(expr), &params, &context);
                    }
                }
                let not = unary(UnaryOp::Not, column(dtype));
                assert_same_as_linq(&projection(not.clone()), &params, "!bool");
                assert_same_as_linq(&selection(not), &params, "filter !bool");
                assert_same_as_linq(&selection(column(dtype)), &params, "filter bool");
            }
            DataType::Date => {
                for op in [BinaryOp::Add, BinaryOp::Sub] {
                    for days in [Value::Int32(40), Value::Int64(-400)] {
                        let expr = binary(op, column(dtype), ScalarExpr::Const(days.clone()));
                        let context = format!("date {op:?} {days:?}");
                        assert_same_as_linq(&projection(expr.clone()), &params, &context);
                        let cmp = binary(BinaryOp::Lt, expr, ScalarExpr::Param(0));
                        assert_same_as_linq(&selection(cmp), &params, &context);
                    }
                }
            }
            DataType::Str => {
                for op in [StrOp::StartsWith, StrOp::EndsWith, StrOp::Contains] {
                    for (leaf, arg) in &leaves {
                        let expr = string_method(op, column(dtype), arg.clone());
                        let context = format!("{op:?} {leaf}");
                        assert_same_as_linq(&projection(expr.clone()), &params, &context);
                        assert_same_as_linq(&selection(expr), &params, &context);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Mixed-width integers compare and add like LINQ does.
#[test]
fn mixed_integer_widths_match_linq() {
    let params = [Value::Int64(5)];
    for op in COMPARISONS {
        let cmp = binary(op, column(DataType::Int32), column(DataType::Int64));
        assert_same_as_linq(&selection(cmp), &params, &format!("int32 {op:?} int64"));
    }
    for op in ARITHMETIC {
        let expr = binary(op, column(DataType::Int64), column(DataType::Int32));
        assert_same_as_linq(&projection(expr), &params, &format!("int64 {op:?} int32"));
    }
}

/// Group keys of every type and every aggregate function.
#[test]
fn grouping_and_aggregates_match_linq() {
    for key_type in TYPES {
        let mut aggregates = vec![AggSpec {
            func: AggFunc::Count,
            input: None,
            dtype: DataType::Int64,
            input_dtype: None,
        }];
        for input_type in TYPES {
            let numeric = is_number(input_type);
            for func in [AggFunc::Sum, AggFunc::Average, AggFunc::Min, AggFunc::Max] {
                if !numeric && matches!(func, AggFunc::Sum | AggFunc::Average) {
                    continue;
                }
                let dtype = if func == AggFunc::Average {
                    DataType::Float64
                } else {
                    input_type
                };
                aggregates.push(AggSpec {
                    func,
                    input: Some(column(input_type)),
                    dtype,
                    input_dtype: Some(input_type),
                });
            }
        }
        let mut output = vec![("key".to_string(), OutputExpr::Key(0))];
        output.extend((0..aggregates.len()).map(|i| (format!("a{i}"), OutputExpr::Agg(i))));
        let types = vec![DataType::Int64; output.len()];
        let mut spec = bare_spec(output, types);
        spec.group_keys = vec![column(key_type)];
        spec.aggregates = aggregates;
        assert_same_as_linq(&spec, &[], &format!("group by {key_type}"));
    }
}

/// Join keys of every type: a self-join of the table on one column.
#[test]
fn join_keys_of_every_type_match_linq() {
    for dtype in TYPES {
        let col = TYPES.iter().position(|t| *t == dtype).unwrap();
        let mut spec = bare_spec(
            vec![
                (
                    "left".into(),
                    OutputExpr::Scalar(ScalarExpr::Column(ColumnRef { slot: 0, col: 7 })),
                ),
                (
                    "right".into(),
                    OutputExpr::Scalar(ScalarExpr::Column(ColumnRef { slot: 1, col: 7 })),
                ),
            ],
            vec![DataType::Int64, DataType::Int64],
        );
        spec.joins = vec![JoinSpec {
            source: SourceId(0),
            slot: 1,
            build_filters: Vec::new(),
            build_keys: vec![ScalarExpr::Column(ColumnRef { slot: 1, col })],
            probe_keys: vec![ScalarExpr::Column(ColumnRef { slot: 0, col })],
        }];
        let table = table();
        let got = execute_once(&spec, &[], &[&table, &table], &[schema(), schema()])
            .unwrap_or_else(|e| panic!("join on {dtype}: {e}"));
        let want = mrq_engine_linq::execute(&spec, &[], &[&table, &table]).unwrap();
        assert_eq!(got.rows, want.rows, "join on {dtype}");
    }
}

/// Trees the typing rules reject fail when the kernels are built, in every
/// position — LINQ, which stays dynamic, still runs them.
#[test]
fn ill_typed_trees_are_codegen_errors() {
    let s = || column(DataType::Str);
    let n = || column(DataType::Int64);
    let trees = [
        ("str + int", binary(BinaryOp::Add, s(), n())),
        ("str > int", binary(BinaryOp::Gt, s(), n())),
        (
            "bool + bool",
            binary(
                BinaryOp::Add,
                column(DataType::Bool),
                column(DataType::Bool),
            ),
        ),
        (
            "date + date",
            binary(
                BinaryOp::Add,
                column(DataType::Date),
                column(DataType::Date),
            ),
        ),
        (
            "date * int",
            binary(BinaryOp::Mul, column(DataType::Date), n()),
        ),
        (
            "decimal < float",
            binary(
                BinaryOp::Lt,
                column(DataType::Decimal),
                column(DataType::Float64),
            ),
        ),
        (
            "date = int",
            binary(BinaryOp::Eq, column(DataType::Date), n()),
        ),
        (
            "int && bool",
            binary(BinaryOp::And, n(), column(DataType::Bool)),
        ),
        ("-str", unary(UnaryOp::Neg, s())),
        ("-date", unary(UnaryOp::Neg, column(DataType::Date))),
        ("!int", unary(UnaryOp::Not, n())),
        (
            "StartsWith(int, str)",
            string_method(StrOp::StartsWith, n(), s()),
        ),
        (
            "param str > int",
            binary(BinaryOp::Gt, s(), ScalarExpr::Param(0)),
        ),
    ];
    for (name, tree) in trees {
        assert_codegen_error(&projection(tree.clone()), &format!("select {name}"));
        assert_codegen_error(&selection(tree.clone()), &format!("where {name}"));
        linq(&projection(tree), &[sample(DataType::Int64)]);
    }
    // A non-boolean filter and a numeric aggregate over strings.
    assert_codegen_error(&selection(n()), "where int");
    let mut spec = bare_spec(
        vec![("a".into(), OutputExpr::Agg(0))],
        vec![DataType::Int64],
    );
    spec.aggregates = vec![AggSpec {
        func: AggFunc::Sum,
        input: Some(s()),
        dtype: DataType::Int64,
        input_dtype: Some(DataType::Str),
    }];
    assert_codegen_error(&spec, "sum of strings");
}

/// A `Param` kernel is the same tree with its bound value as a `Const`.
#[test]
fn param_kernels_equal_const_kernels() {
    for dtype in TYPES {
        let v = sample(dtype);
        let mut trees: Vec<(ScalarExpr, ScalarExpr)> = COMPARISONS
            .iter()
            .map(|op| {
                (
                    binary(*op, column(dtype), ScalarExpr::Param(0)),
                    binary(*op, column(dtype), ScalarExpr::Const(v.clone())),
                )
            })
            .collect();
        if is_number(dtype) {
            trees.extend(ARITHMETIC.iter().map(|op| {
                (
                    binary(*op, ScalarExpr::Param(0), column(dtype)),
                    binary(*op, ScalarExpr::Const(v.clone()), column(dtype)),
                )
            }));
        }
        for (with_param, with_const) in trees {
            let context = format!("{with_param:?}");
            let params = [v.clone()];
            let a = compiled(&projection(with_param.clone()), &params).unwrap();
            let b = compiled(&projection(with_const.clone()), &params).unwrap();
            assert_eq!(a.rows, b.rows, "{context}");
            if matches!(with_param, ScalarExpr::Binary { op, .. } if op.is_comparison()) {
                let a = compiled(&selection(with_param), &params).unwrap();
                let b = compiled(&selection(with_const), &params).unwrap();
                assert_eq!(a.rows, b.rows, "filter {context}");
            }
        }
    }
}

/// One plan, two bindings: each execution builds its own kernels and
/// returns its own binding's rows.
#[test]
fn one_plan_serves_two_bindings() {
    let spec = selection(binary(
        BinaryOp::Ge,
        column(DataType::Decimal),
        ScalarExpr::Param(0),
    ));
    let ids =
        |out: QueryOutput| -> Vec<Value> { out.rows.into_iter().map(|r| r[0].clone()).collect() };
    let low = [Value::Decimal(dec(1, 0))];
    let high = [Value::Decimal(dec(5, 0))];
    let schemas = [schema()];
    let table = table();
    let mut first = ExecState::new(&spec, &low, vec![], &schemas).unwrap();
    let mut second = ExecState::new(&spec, &high, vec![], &schemas).unwrap();
    first.consume(&table);
    second.consume(&table);
    assert_eq!(
        ids(first.finish()),
        vec![Value::Int64(0), Value::Int64(2), Value::Int64(3)]
    );
    assert_eq!(ids(second.finish()), vec![Value::Int64(2)]);
    // The binding's type is checked per execution too.
    assert!(matches!(
        ExecState::<ValueTable>::new(&spec, &[Value::str("x")], vec![], &schemas).err(),
        Some(MrqError::Codegen(_))
    ));
}

/// Composite keys hold at most six parts; a wider group key is rejected
/// when the state is built rather than panicking on the first row.
#[test]
fn keys_wider_than_six_parts_are_codegen_errors() {
    let mut spec = bare_spec(
        vec![("n".into(), OutputExpr::Agg(0))],
        vec![DataType::Int64],
    );
    spec.group_keys = TYPES.iter().map(|t| column(*t)).collect();
    spec.aggregates = vec![AggSpec {
        func: AggFunc::Count,
        input: None,
        dtype: DataType::Int64,
        input_dtype: None,
    }];
    assert_codegen_error(&spec, "seven group keys");
    spec.group_keys.pop();
    assert_same_as_linq(&spec, &[], "six group keys");
}
