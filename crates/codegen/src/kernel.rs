//! Typed per-execution kernels: the "generated code" of the compiled
//! strategies.
//!
//! The paper's provider emits C# or C in which every column access, every
//! comparison and every arithmetic operator has its types resolved, so the
//! per-row loop performs no dynamic dispatch on types (§§4–5). This module is
//! that step for the executor templates of [`crate::exec`]: every
//! [`ScalarExpr`] of a [`QuerySpec`] is compiled into a tree of closures,
//! each node specialised for the types it sees. Column readers are bound to
//! their concrete [`TableAccess`] getter, parameters are folded in as
//! constants, and type errors (comparing a string with a number, arithmetic
//! on a string, …) are reported as [`MrqError::Codegen`] when the kernels
//! are built, before any row is read.
//!
//! Kernels are built once per execution, after the parameters are bound, and
//! shared behind an `Arc` by every morsel worker of that execution. A cached
//! plan therefore serves every binding without storing kernels. Each node
//! makes exactly the table reads of the expression it compiles, in source
//! order: there is no common-subexpression elimination and no hoisting, so
//! work counters and simulated cache traces depend only on the plan.
//!
//! # Typing rules
//!
//! * Columns take their schema type; constants and bound parameters the type
//!   of their value. An unbound (`Null`) value behaves as `false`.
//! * Comparisons accept equal types, and any mix of integers with decimals
//!   or with floats.
//! * Arithmetic promotes integers to decimals and anything to `Float64`;
//!   `Int32` arithmetic stays `Int32`, and `Date ± integer` shifts by days.
//! * `And`, `Or`, `Not` and filters need booleans; string methods need
//!   strings; negation needs a number.

use crate::spec::{AggSpec, ColumnRef, OutputExpr, QuerySpec, ScalarExpr, StrOp};
use mrq_common::hash::FxHashMap;
use mrq_common::{DataType, Date, Decimal, MrqError, Result, Schema, Value};
use mrq_expr::{AggFunc, BinaryOp, UnaryOp};
use std::cmp::Ordering;

use crate::exec::TableAccess;

/// The row a kernel evaluates: one table and row index per slot (slot 0 is
/// the probe-side root, slot `i + 1` the build side of join `i`).
pub(crate) struct Env<'e, T> {
    pub(crate) root: &'e T,
    pub(crate) builds: &'e [&'e T],
    pub(crate) rows: &'e [usize],
}

/// One compiled node producing `R` for the current row.
type Kernel<'k, T, R> = Box<dyn Fn(&Env<'_, T>) -> R + Send + Sync + 'k>;

/// Column types per slot (index 0 = root), fixed when kernels are built.
struct ColumnTypes<'s> {
    per_slot: &'s [Schema],
}

impl ColumnTypes<'_> {
    fn dtype(&self, c: ColumnRef) -> Result<DataType> {
        self.per_slot
            .get(c.slot)
            .filter(|schema| c.col < schema.len())
            .map(|schema| schema.field(c.col).dtype)
            .ok_or_else(|| {
                MrqError::Codegen(format!("column {} of slot {} is not bound", c.col, c.slot))
            })
    }
}

/// A column read bound to its slot: root reads skip the build-table lookup.
fn column<'k, T, R, F>(c: ColumnRef, get: F) -> Kernel<'k, T, R>
where
    T: TableAccess + 'k,
    F: Fn(&T, usize, usize) -> R + Send + Sync + 'k,
{
    let ColumnRef { slot, col } = c;
    if slot == 0 {
        Box::new(move |env| get(env.root, env.rows[0], col))
    } else {
        let build = slot - 1;
        Box::new(move |env| get(env.builds[build], env.rows[slot], col))
    }
}

/// A compiled scalar: a literal (a constant or a bound parameter) or a
/// kernel evaluated per row. A binary node captures a literal operand by
/// value instead of calling a kernel for it.
enum Node<'k, T, R> {
    Lit(R),
    Row(Kernel<'k, T, R>),
}

impl<'k, T: 'k, R: Copy + Send + Sync + 'k> Node<'k, T, R> {
    fn kernel(self) -> Kernel<'k, T, R> {
        match self {
            Node::Lit(v) => Box::new(move |_| v),
            Node::Row(k) => k,
        }
    }

    /// A conversion that cannot fail, applied to a literal right away.
    fn convert<U: 'k>(self, f: fn(R) -> U) -> Node<'k, T, U> {
        match self {
            Node::Lit(v) => Node::Lit(f(v)),
            Node::Row(k) => Node::Row(Box::new(move |env| f(k(env)))),
        }
    }
}

fn map<'k, T: 'k, A: Copy + Send + Sync + 'k, R: 'k>(
    n: Node<'k, T, A>,
    f: impl Fn(A) -> R + Send + Sync + 'k,
) -> Kernel<'k, T, R> {
    let k = n.kernel();
    Box::new(move |env| f(k(env)))
}

/// Operators are still applied per row when both operands are literals, so
/// a failing operation (say, a division by zero) fails only if a row
/// reaches it.
fn zip<'k, T: 'k, A: Copy + Send + Sync + 'k, B: Copy + Send + Sync + 'k, R: 'k>(
    l: Node<'k, T, A>,
    r: Node<'k, T, B>,
    f: impl Fn(A, B) -> R + Send + Sync + 'k,
) -> Node<'k, T, R> {
    Node::Row(match (l, r) {
        (Node::Lit(a), Node::Lit(b)) => Box::new(move |_| f(a, b)),
        (Node::Lit(a), Node::Row(r)) => Box::new(move |env| f(a, r(env))),
        (Node::Row(l), Node::Lit(b)) => Box::new(move |env| f(l(env), b)),
        (Node::Row(l), Node::Row(r)) => Box::new(move |env| f(l(env), r(env))),
    })
}

/// A string operand: strings are borrowed from the table (or the constant),
/// so they are read through this small enum rather than a closure.
pub(crate) enum StrKernel {
    Column(ColumnRef),
    Const(Box<str>),
}

impl StrKernel {
    #[inline]
    fn get<'e, T: TableAccess>(&'e self, env: &Env<'e, T>) -> &'e str {
        match self {
            StrKernel::Column(c) => {
                let table = if c.slot == 0 {
                    env.root
                } else {
                    env.builds[c.slot - 1]
                };
                table.get_str(env.rows[c.slot], c.col)
            }
            StrKernel::Const(s) => s,
        }
    }
}

/// A compiled scalar, tagged with its static type.
enum Typed<'k, T> {
    Bool(Node<'k, T, bool>),
    /// `Int32` (`narrow`) or `Int64`, computed in `i64`.
    Int(Node<'k, T, i64>, bool),
    Dec(Node<'k, T, Decimal>),
    F64(Node<'k, T, f64>),
    Date(Node<'k, T, Date>),
    Str(StrKernel),
}

impl<T> Typed<'_, T> {
    fn dtype(&self) -> DataType {
        match self {
            Typed::Bool(_) => DataType::Bool,
            Typed::Int(_, true) => DataType::Int32,
            Typed::Int(_, false) => DataType::Int64,
            Typed::Dec(_) => DataType::Decimal,
            Typed::F64(_) => DataType::Float64,
            Typed::Date(_) => DataType::Date,
            Typed::Str(_) => DataType::Str,
        }
    }
}

/// A number in an aggregate input, after the typing rules.
enum NumKernel<'k, T> {
    Int(Node<'k, T, i64>),
    Dec(Node<'k, T, Decimal>),
    F64(Node<'k, T, f64>),
}

impl<'k, T: 'k> NumKernel<'k, T> {
    fn into_f64(self) -> Node<'k, T, f64> {
        match self {
            NumKernel::Int(n) => n.convert(|v| v as f64),
            NumKernel::Dec(n) => n.convert(Decimal::to_f64),
            NumKernel::F64(n) => n,
        }
    }

    fn into_dec(self) -> Node<'k, T, Decimal> {
        match self {
            NumKernel::Int(n) => n.convert(Decimal::from_int),
            NumKernel::Dec(n) => n,
            NumKernel::F64(n) => n.convert(Decimal::from_f64),
        }
    }
}

fn ordering_test<'k, T: 'k, A: Copy + Send + Sync + 'k, B: Copy + Send + Sync + 'k>(
    op: BinaryOp,
    l: Node<'k, T, A>,
    r: Node<'k, T, B>,
    cmp: impl Fn(A, B) -> Ordering + Send + Sync + 'k,
) -> Node<'k, T, bool> {
    match op {
        BinaryOp::Eq => zip(l, r, move |a, b| cmp(a, b) == Ordering::Equal),
        BinaryOp::Ne => zip(l, r, move |a, b| cmp(a, b) != Ordering::Equal),
        BinaryOp::Lt => zip(l, r, move |a, b| cmp(a, b) == Ordering::Less),
        BinaryOp::Le => zip(l, r, move |a, b| cmp(a, b) != Ordering::Greater),
        BinaryOp::Gt => zip(l, r, move |a, b| cmp(a, b) == Ordering::Greater),
        _ => zip(l, r, move |a, b| cmp(a, b) != Ordering::Less),
    }
}

fn str_ordering_test<'k, T: TableAccess + 'k>(
    op: BinaryOp,
    l: StrKernel,
    r: StrKernel,
) -> Node<'k, T, bool> {
    let test: fn(Ordering) -> bool = match op {
        BinaryOp::Eq => Ordering::is_eq,
        BinaryOp::Ne => Ordering::is_ne,
        BinaryOp::Lt => Ordering::is_lt,
        BinaryOp::Le => Ordering::is_le,
        BinaryOp::Gt => Ordering::is_gt,
        _ => Ordering::is_ge,
    };
    Node::Row(Box::new(move |env| test(l.get(env).cmp(r.get(env)))))
}

fn float_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Expands to one specialised closure per arithmetic operator.
macro_rules! arith {
    ($op:expr, $l:expr, $r:expr, |$a:ident, $b:ident| $add:expr, $sub:expr, $mul:expr, $div:expr) => {
        match $op {
            BinaryOp::Add => zip($l, $r, |$a, $b| $add),
            BinaryOp::Sub => zip($l, $r, |$a, $b| $sub),
            BinaryOp::Mul => zip($l, $r, |$a, $b| $mul),
            _ => zip($l, $r, |$a, $b| $div),
        }
    };
}

/// `Int32` results wrap to 32 bits, as `Int32` arithmetic does in LINQ.
fn narrow(v: i64) -> i64 {
    v as i32 as i64
}

fn type_error<R>(message: String) -> Result<R> {
    Err(MrqError::Codegen(message))
}

/// Compiles expressions of one execution: column types per slot plus the
/// bound parameter values.
struct Compiler<'s> {
    types: ColumnTypes<'s>,
    params: &'s [Value],
}

impl Compiler<'_> {
    fn param(&self, i: usize) -> Result<&Value> {
        self.params
            .get(i)
            .ok_or_else(|| MrqError::Codegen(format!("parameter {i} is not bound")))
    }

    fn literal<'k, T: TableAccess + 'k>(value: &Value) -> Typed<'k, T> {
        match value {
            Value::Bool(b) => Typed::Bool(Node::Lit(*b)),
            Value::Int32(v) => Typed::Int(Node::Lit(*v as i64), true),
            Value::Int64(v) => Typed::Int(Node::Lit(*v), false),
            Value::Decimal(d) => Typed::Dec(Node::Lit(*d)),
            Value::Float64(v) => Typed::F64(Node::Lit(*v)),
            Value::Date(d) => Typed::Date(Node::Lit(*d)),
            Value::Str(s) => Typed::Str(StrKernel::Const(s.as_ref().into())),
            Value::Null => Typed::Bool(Node::Lit(false)),
        }
    }

    fn typed<'k, T: TableAccess + 'k>(&self, expr: &ScalarExpr) -> Result<Typed<'k, T>> {
        Ok(match expr {
            ScalarExpr::Column(c) => match self.types.dtype(*c)? {
                DataType::Bool => Typed::Bool(Node::Row(column(*c, T::get_bool))),
                DataType::Int32 => Typed::Int(
                    Node::Row(column(*c, |t: &T, r, c| t.get_i32(r, c) as i64)),
                    true,
                ),
                DataType::Int64 => Typed::Int(Node::Row(column(*c, T::get_i64)), false),
                DataType::Decimal => Typed::Dec(Node::Row(column(*c, T::get_decimal))),
                DataType::Float64 => Typed::F64(Node::Row(column(*c, T::get_f64))),
                DataType::Date => Typed::Date(Node::Row(column(*c, T::get_date))),
                DataType::Str => Typed::Str(StrKernel::Column(*c)),
            },
            ScalarExpr::Const(v) => Self::literal(v),
            ScalarExpr::Param(i) => Self::literal(self.param(*i)?),
            ScalarExpr::Binary { op, left, right } => {
                let (l, r) = (self.typed(left)?, self.typed(right)?);
                if op.is_logical() {
                    Typed::Bool(Self::logical(*op, l, r)?)
                } else if op.is_comparison() {
                    Typed::Bool(Self::compare(*op, l, r)?)
                } else {
                    Self::arithmetic(*op, l, r)?
                }
            }
            ScalarExpr::Unary { op, expr } => match (op, self.typed(expr)?) {
                (UnaryOp::Not, Typed::Bool(n)) => Typed::Bool(Node::Row(map(n, |b| !b))),
                (UnaryOp::Neg, Typed::Int(n, true)) => {
                    Typed::Int(Node::Row(map(n, |v| narrow(-v))), true)
                }
                (UnaryOp::Neg, Typed::Int(n, false)) => {
                    Typed::Int(Node::Row(map(n, |v| -v)), false)
                }
                (UnaryOp::Neg, Typed::Dec(n)) => Typed::Dec(Node::Row(map(n, |d| -d))),
                (UnaryOp::Neg, Typed::F64(n)) => Typed::F64(Node::Row(map(n, |v| -v))),
                (op, other) => {
                    return type_error(format!(
                        "operator {op:?} cannot be applied to {}",
                        other.dtype()
                    ))
                }
            },
            ScalarExpr::Str { op, target, arg } => {
                match (self.typed::<T>(target)?, self.typed::<T>(arg)?) {
                    (Typed::Str(t), Typed::Str(a)) => Typed::Bool(Node::Row(match op {
                        StrOp::StartsWith => {
                            Box::new(move |env| t.get(env).starts_with(a.get(env)))
                        }
                        StrOp::EndsWith => Box::new(move |env| t.get(env).ends_with(a.get(env))),
                        StrOp::Contains => Box::new(move |env| t.get(env).contains(a.get(env))),
                    })),
                    (t, a) => {
                        return type_error(format!(
                            "{op:?} needs strings, found {} and {}",
                            t.dtype(),
                            a.dtype()
                        ))
                    }
                }
            }
        })
    }

    fn logical<'k, T: TableAccess + 'k>(
        op: BinaryOp,
        l: Typed<'k, T>,
        r: Typed<'k, T>,
    ) -> Result<Node<'k, T, bool>> {
        match (l, r) {
            (Typed::Bool(l), Typed::Bool(r)) => {
                let (l, r) = (l.kernel(), r.kernel());
                Ok(Node::Row(if op == BinaryOp::And {
                    Box::new(move |env| l(env) && r(env))
                } else {
                    Box::new(move |env| l(env) || r(env))
                }))
            }
            (l, r) => type_error(format!(
                "operator {op:?} needs booleans, found {} and {}",
                l.dtype(),
                r.dtype()
            )),
        }
    }

    fn compare<'k, T: TableAccess + 'k>(
        op: BinaryOp,
        l: Typed<'k, T>,
        r: Typed<'k, T>,
    ) -> Result<Node<'k, T, bool>> {
        Ok(match (l, r) {
            (Typed::Int(a, _), Typed::Int(b, _)) => ordering_test(op, a, b, |a, b| a.cmp(&b)),
            (Typed::Dec(a), Typed::Dec(b)) => ordering_test(op, a, b, |a, b| a.cmp(&b)),
            (Typed::Dec(a), Typed::Int(b, _)) => {
                ordering_test(op, a, b, |a, b| a.cmp(&Decimal::from_int(b)))
            }
            (Typed::Int(a, _), Typed::Dec(b)) => {
                ordering_test(op, a, b, |a, b| Decimal::from_int(a).cmp(&b))
            }
            (Typed::F64(a), Typed::F64(b)) => ordering_test(op, a, b, float_cmp),
            (Typed::F64(a), Typed::Int(b, _)) => {
                ordering_test(op, a, b, |a, b| float_cmp(a, b as f64))
            }
            (Typed::Int(a, _), Typed::F64(b)) => {
                ordering_test(op, a, b, |a, b| float_cmp(a as f64, b))
            }
            (Typed::Date(a), Typed::Date(b)) => ordering_test(op, a, b, |a, b| a.cmp(&b)),
            (Typed::Bool(a), Typed::Bool(b)) => ordering_test(op, a, b, |a, b| a.cmp(&b)),
            (Typed::Str(a), Typed::Str(b)) => str_ordering_test(op, a, b),
            (l, r) => {
                return type_error(format!("cannot compare {} with {}", l.dtype(), r.dtype()))
            }
        })
    }

    fn arithmetic<'k, T: TableAccess + 'k>(
        op: BinaryOp,
        l: Typed<'k, T>,
        r: Typed<'k, T>,
    ) -> Result<Typed<'k, T>> {
        Ok(match (l, r) {
            (Typed::Int(a, a_narrow), Typed::Int(b, b_narrow)) => {
                let k = arith!(op, a, b, |a, b| a + b, a - b, a * b, a / b);
                if a_narrow && b_narrow {
                    Typed::Int(Node::Row(map(k, narrow)), true)
                } else {
                    Typed::Int(k, false)
                }
            }
            (Typed::Dec(a), Typed::Dec(b)) => Typed::Dec(arith!(
                op,
                a,
                b,
                |a, b| a + b,
                a - b,
                a * b,
                Decimal::from_f64(a.to_f64() / b.to_f64())
            )),
            (Typed::F64(a), Typed::F64(b)) => {
                Typed::F64(arith!(op, a, b, |a, b| a + b, a - b, a * b, a / b))
            }
            (Typed::Date(d), Typed::Int(n, _)) if op == BinaryOp::Add => {
                Typed::Date(zip(d, n, |d, n| d.add_days(n as i32)))
            }
            (Typed::Date(d), Typed::Int(n, _)) if op == BinaryOp::Sub => {
                Typed::Date(zip(d, n, |d, n| d.add_days(-(n as i32))))
            }
            (
                l @ (Typed::F64(_) | Typed::Dec(_) | Typed::Int(..)),
                r @ (Typed::F64(_) | Typed::Dec(_) | Typed::Int(..)),
            ) => {
                // Mixed numeric operands: promote to the wider type.
                if matches!(l, Typed::F64(_)) || matches!(r, Typed::F64(_)) {
                    let (a, b) = (Self::number(l)?.into_f64(), Self::number(r)?.into_f64());
                    Self::arithmetic(op, Typed::F64(a), Typed::F64(b))?
                } else {
                    let (a, b) = (Self::number(l)?.into_dec(), Self::number(r)?.into_dec());
                    Self::arithmetic(op, Typed::Dec(a), Typed::Dec(b))?
                }
            }
            (l, r) => {
                return type_error(format!(
                    "operator {op:?} cannot be applied to {} and {}",
                    l.dtype(),
                    r.dtype()
                ))
            }
        })
    }

    fn number<'k, T: TableAccess + 'k>(typed: Typed<'k, T>) -> Result<NumKernel<'k, T>> {
        match typed {
            Typed::Int(k, _) => Ok(NumKernel::Int(k)),
            Typed::Dec(k) => Ok(NumKernel::Dec(k)),
            Typed::F64(k) => Ok(NumKernel::F64(k)),
            other => type_error(format!("{} is not a number", other.dtype())),
        }
    }

    fn predicate<'k, T: TableAccess + 'k>(&self, expr: &ScalarExpr) -> Result<Kernel<'k, T, bool>> {
        match self.typed(expr)? {
            Typed::Bool(n) => Ok(n.kernel()),
            other => type_error(format!("filter of type {} is not a boolean", other.dtype())),
        }
    }

    fn value<'k, T: TableAccess + 'k>(&self, expr: &ScalarExpr) -> Result<Kernel<'k, T, Value>> {
        let value = match expr {
            ScalarExpr::Column(c) => {
                self.types.dtype(*c)?;
                return Ok(column(*c, T::get_value));
            }
            ScalarExpr::Const(v) => v.clone(),
            ScalarExpr::Param(i) => self.param(*i)?.clone(),
            _ => {
                return Ok(match self.typed(expr)? {
                    Typed::Bool(k) => map(k, Value::Bool),
                    Typed::Int(k, true) => map(k, |v| Value::Int32(v as i32)),
                    Typed::Int(k, false) => map(k, Value::Int64),
                    Typed::Dec(k) => map(k, Value::Decimal),
                    Typed::F64(k) => map(k, Value::Float64),
                    Typed::Date(k) => map(k, Value::Date),
                    Typed::Str(s) => Box::new(move |env| Value::str(s.get(env))),
                })
            }
        };
        Ok(Box::new(move |_| value.clone()))
    }

    fn key<'k, T: TableAccess + 'k>(&self, expr: &ScalarExpr) -> Result<KeyKernel<'k, T>> {
        Ok(KeyKernel::Num(match self.typed(expr)? {
            Typed::Bool(k) => map(k, |b| b as u64),
            Typed::Int(k, _) => map(k, |v| v as u64),
            Typed::Dec(k) => map(k, |d| d.raw() as u64),
            Typed::F64(k) => map(k, f64::to_bits),
            Typed::Date(k) => map(k, |d| d.epoch_days() as u32 as u64),
            Typed::Str(s) => return Ok(KeyKernel::Str(s)),
        }))
    }

    fn aggregate<'k, T: TableAccess + 'k>(&self, spec: &AggSpec) -> Result<AggKernel<'k, T>> {
        if spec.func == AggFunc::Count {
            return Ok(AggKernel::Count);
        }
        let input = spec
            .input
            .as_ref()
            .ok_or_else(|| MrqError::Codegen(format!("{:?} requires an input", spec.func)))?;
        let number = || Self::number(self.typed(input)?);
        Ok(match spec.func {
            AggFunc::Average if spec.input_dtype == Some(DataType::Decimal) => {
                AggKernel::AvgDec(number()?.into_dec().kernel())
            }
            AggFunc::Average => AggKernel::Avg(number()?.into_f64().kernel()),
            AggFunc::Sum => match spec.dtype {
                DataType::Decimal => AggKernel::SumDec(number()?.into_dec().kernel()),
                DataType::Float64 => AggKernel::SumF64(number()?.into_f64().kernel()),
                other => match number()? {
                    NumKernel::Int(n) => AggKernel::SumI64(n.kernel()),
                    _ => return type_error(format!("Sum of type {other} needs an integer input")),
                },
            },
            AggFunc::Min => AggKernel::Min(self.value(input)?),
            _ => AggKernel::Max(self.value(input)?),
        })
    }
}

/// Encodes strings as 64-bit key parts without an allocation per row.
/// Strings of up to seven bytes are packed into the part itself (tagged by
/// the top bit); longer strings get dense ids in first-seen order, which
/// never set the top bit.
#[derive(Debug, Default, Clone)]
pub(crate) struct StringInterner {
    map: FxHashMap<String, u64>,
}

impl StringInterner {
    pub(crate) fn intern(&mut self, s: &str) -> u64 {
        let bytes = s.as_bytes();
        if bytes.len() < 8 {
            let mut packed = [0u8; 8];
            packed[..bytes.len()].copy_from_slice(bytes);
            packed[7] = 0x80 | bytes.len() as u8;
            return u64::from_le_bytes(packed);
        }
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.map.len() as u64;
        self.map.insert(s.to_string(), id);
        id
    }
}

/// One part of a join or group key, encoded as 64 bits.
pub(crate) enum KeyKernel<'k, T> {
    Num(Kernel<'k, T, u64>),
    /// Strings are interned per execution.
    Str(StrKernel),
}

impl<T: TableAccess> KeyKernel<'_, T> {
    #[inline]
    pub(crate) fn part(&self, env: &Env<'_, T>, interner: &mut StringInterner) -> u64 {
        match self {
            KeyKernel::Num(k) => k(env),
            KeyKernel::Str(s) => interner.intern(s.get(env)),
        }
    }

    /// True if evaluating this key interns strings (which ties the build to
    /// one thread: ids are assigned in first-seen order).
    pub(crate) fn interns_strings(&self) -> bool {
        matches!(self, KeyKernel::Str(_))
    }
}

/// The running state of one aggregate.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    SumI64(i64),
    SumDec(Decimal),
    SumF64(f64),
    Avg {
        sum: f64,
        count: i64,
    },
    /// Averages over decimal inputs accumulate exactly in fixed point, so
    /// they are associative: merging per-worker partial states yields the
    /// bit-identical result of a sequential scan at any thread count
    /// (float accumulation would drift by an ulp across morsel boundaries).
    AvgDec {
        sum: Decimal,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(*n),
            AggState::SumI64(v) => Value::Int64(*v),
            AggState::SumDec(d) => Value::Decimal(*d),
            AggState::SumF64(v) => Value::Float64(*v),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
            AggState::AvgDec { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum.to_f64() / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }

    /// Folds another partial state of the same aggregate into this one (used
    /// when merging per-worker states after a parallel scan).
    pub(crate) fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumI64(a), AggState::SumI64(b)) => *a += b,
            (AggState::SumDec(a), AggState::SumDec(b)) => *a += *b,
            (AggState::SumF64(a), AggState::SumF64(b)) => *a += b,
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += other_sum;
                *count += other_count;
            }
            (
                AggState::AvgDec { sum, count },
                AggState::AvgDec {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += *other_sum;
                *count += other_count;
            }
            (AggState::Min(a), AggState::Min(Some(b))) => offer_best(a, b.clone(), Ordering::Less),
            (AggState::Max(a), AggState::Max(Some(b))) => {
                offer_best(a, b.clone(), Ordering::Greater)
            }
            (AggState::Min(_), AggState::Min(None)) | (AggState::Max(_), AggState::Max(None)) => {}
            _ => unreachable!("partial states of one aggregate share a kernel"),
        }
    }
}

/// Keeps `v` if it beats the current best (`wins` is the ordering of a
/// better value: `Less` for Min, `Greater` for Max).
fn offer_best(best: &mut Option<Value>, v: Value, wins: Ordering) {
    if best.as_ref().is_none_or(|b| v.total_cmp(b) == wins) {
        *best = Some(v);
    }
}

/// One aggregate, with its input compiled for the accumulator it feeds.
pub(crate) enum AggKernel<'k, T> {
    Count,
    SumI64(Kernel<'k, T, i64>),
    SumDec(Kernel<'k, T, Decimal>),
    SumF64(Kernel<'k, T, f64>),
    Avg(Kernel<'k, T, f64>),
    AvgDec(Kernel<'k, T, Decimal>),
    Min(Kernel<'k, T, Value>),
    Max(Kernel<'k, T, Value>),
}

impl<T> AggKernel<'_, T> {
    /// The empty accumulator for this aggregate.
    pub(crate) fn init(&self) -> AggState {
        match self {
            AggKernel::Count => AggState::Count(0),
            AggKernel::SumI64(_) => AggState::SumI64(0),
            AggKernel::SumDec(_) => AggState::SumDec(Decimal::ZERO),
            AggKernel::SumF64(_) => AggState::SumF64(0.0),
            AggKernel::Avg(_) => AggState::Avg { sum: 0.0, count: 0 },
            AggKernel::AvgDec(_) => AggState::AvgDec {
                sum: Decimal::ZERO,
                count: 0,
            },
            AggKernel::Min(_) => AggState::Min(None),
            AggKernel::Max(_) => AggState::Max(None),
        }
    }

    /// Folds the current row into `state` (built by [`AggKernel::init`]).
    #[inline]
    pub(crate) fn update(&self, state: &mut AggState, env: &Env<'_, T>) {
        match (self, state) {
            (AggKernel::Count, AggState::Count(n)) => *n += 1,
            (AggKernel::SumI64(k), AggState::SumI64(acc)) => *acc += k(env),
            (AggKernel::SumDec(k), AggState::SumDec(acc)) => *acc += k(env),
            (AggKernel::SumF64(k), AggState::SumF64(acc)) => *acc += k(env),
            (AggKernel::Avg(k), AggState::Avg { sum, count }) => {
                *sum += k(env);
                *count += 1;
            }
            (AggKernel::AvgDec(k), AggState::AvgDec { sum, count }) => {
                *sum += k(env);
                *count += 1;
            }
            (AggKernel::Min(k), AggState::Min(best)) => offer_best(best, k(env), Ordering::Less),
            (AggKernel::Max(k), AggState::Max(best)) => offer_best(best, k(env), Ordering::Greater),
            _ => unreachable!("aggregate states are built by their kernel"),
        }
    }
}

/// The kernels of one join level.
pub(crate) struct JoinKernels<'k, T> {
    pub(crate) build_filters: Vec<Kernel<'k, T, bool>>,
    pub(crate) build_keys: Vec<KeyKernel<'k, T>>,
    pub(crate) probe_keys: Vec<KeyKernel<'k, T>>,
}

/// Every scalar of a [`QuerySpec`], compiled for one execution.
pub(crate) struct QueryKernels<'k, T> {
    pub(crate) root_filters: Vec<Kernel<'k, T, bool>>,
    pub(crate) joins: Vec<JoinKernels<'k, T>>,
    pub(crate) post_filters: Vec<Kernel<'k, T, bool>>,
    pub(crate) group_keys: Vec<KeyKernel<'k, T>>,
    /// The group key values materialised when a group first appears.
    pub(crate) group_values: Vec<Kernel<'k, T, Value>>,
    pub(crate) aggregates: Vec<AggKernel<'k, T>>,
    /// Output columns of a non-grouped query.
    pub(crate) outputs: Vec<Kernel<'k, T, Value>>,
}

fn all<R>(exprs: &[ScalarExpr], f: impl Fn(&ScalarExpr) -> Result<R>) -> Result<Vec<R>> {
    exprs.iter().map(f).collect()
}

impl<'k, T: TableAccess + 'k> QueryKernels<'k, T> {
    /// Compiles `spec` against the slot schemas (root first) with `params`
    /// bound as constants.
    pub(crate) fn compile(
        spec: &QuerySpec,
        slot_schemas: &[Schema],
        params: &[Value],
    ) -> Result<Self> {
        let cx = Compiler {
            types: ColumnTypes {
                per_slot: slot_schemas,
            },
            params,
        };
        let outputs = if spec.is_grouped() {
            Vec::new()
        } else {
            spec.output
                .iter()
                .map(|(name, o)| match o {
                    OutputExpr::Scalar(e) => cx.value(e),
                    _ => type_error(format!(
                        "output `{name}` reads a group but the query is not grouped"
                    )),
                })
                .collect::<Result<_>>()?
        };
        Ok(QueryKernels {
            root_filters: all(&spec.root_filters, |e| cx.predicate(e))?,
            joins: spec
                .joins
                .iter()
                .map(|j| {
                    Ok(JoinKernels {
                        build_filters: all(&j.build_filters, |e| cx.predicate(e))?,
                        build_keys: all(&j.build_keys, |e| cx.key(e))?,
                        probe_keys: all(&j.probe_keys, |e| cx.key(e))?,
                    })
                })
                .collect::<Result<_>>()?,
            post_filters: all(&spec.post_filters, |e| cx.predicate(e))?,
            group_keys: all(&spec.group_keys, |e| cx.key(e))?,
            group_values: all(&spec.group_keys, |e| cx.value(e))?,
            aggregates: spec
                .aggregates
                .iter()
                .map(|a| cx.aggregate(a))
                .collect::<Result<_>>()?,
            outputs,
        })
    }
}

/// The conjunction of single-table filters, compiled for one execution:
/// what the hybrid strategy evaluates on the managed side while staging.
pub struct RowFilter<'k, T> {
    filters: Vec<Kernel<'k, T, bool>>,
}

impl<'k, T: TableAccess + 'k> RowFilter<'k, T> {
    /// Compiles `filters` over a table with `schema`; every column reference
    /// must point into that table (its slot is ignored).
    pub fn compile(filters: &[ScalarExpr], schema: &Schema, params: &[Value]) -> Result<Self> {
        let cx = Compiler {
            types: ColumnTypes {
                per_slot: std::slice::from_ref(schema),
            },
            params,
        };
        let to_root = |c: ColumnRef| ColumnRef {
            slot: 0,
            col: c.col,
        };
        Ok(RowFilter {
            filters: all(filters, |e| cx.predicate(&e.remap_columns(&to_root)))?,
        })
    }

    /// True if `row` of `table` passes every filter.
    #[inline]
    pub fn matches(&self, table: &T, row: usize) -> bool {
        let env = Env {
            root: table,
            builds: &[],
            rows: std::slice::from_ref(&row),
        };
        self.filters.iter().all(|f| f(&env))
    }
}

/// Scalar output columns over joined rows, compiled for one execution: what
/// the hybrid strategy uses to rebuild Min-transfer results from the
/// managed objects.
pub struct RowProjection<'k, T> {
    columns: Vec<Kernel<'k, T, Value>>,
}

impl<'k, T: TableAccess + 'k> RowProjection<'k, T> {
    /// Compiles `exprs` against the slot schemas (root first).
    pub fn compile(
        exprs: &[&ScalarExpr],
        slot_schemas: &[Schema],
        params: &[Value],
    ) -> Result<Self> {
        let cx = Compiler {
            types: ColumnTypes {
                per_slot: slot_schemas,
            },
            params,
        };
        Ok(RowProjection {
            columns: exprs.iter().map(|e| cx.value(e)).collect::<Result<_>>()?,
        })
    }

    /// Evaluates every column for one joined row: `tables[s]` and `rows[s]`
    /// are the table and row index bound to slot `s`.
    pub fn project(&self, tables: &[&T], rows: &[usize]) -> Vec<Value> {
        let env = Env {
            root: tables[0],
            builds: &tables[1..],
            rows,
        };
        self.columns.iter().map(|c| c(&env)).collect()
    }
}
