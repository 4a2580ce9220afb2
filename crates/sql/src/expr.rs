//! Resolved (physical) scalar expressions and their vectorized evaluation.
//!
//! The planner lowers AST expressions ([`crate::ast::Expr`]) into
//! [`PhysExpr`], with column references resolved to input-schema indices and
//! function names bound to implementations. Evaluation is column-at-a-time:
//! children evaluate to [`Column`]s, then the node combines them with **typed
//! slice kernels** — Int/Float arithmetic and comparisons run over raw
//! `&[i64]`/`&[f64]` with validity-bitmap NULL handling, AND/OR/NOT run
//! word-wise on packed [`Bitmap`]s, and IsNull/InList/CASE have dedicated
//! columnar paths. A `Value`-per-row loop remains only as the fallback for
//! type combinations with no kernel. The kernels are held bitwise to a
//! row-at-a-time oracle built on [`PhysExpr::eval_scalar`] (property-tested
//! in `tests/proptest_sql.rs`).

use std::sync::Arc;

use vertexica_storage::{
    Bitmap, Column, ColumnBuilder, ColumnData, DataType, RecordBatch, Schema, Value,
};

use crate::ast::{BinaryOp, UnaryOp};
use crate::error::{SqlError, SqlResult};
use crate::functions::ScalarFunction;

/// A fully-resolved scalar expression.
#[derive(Clone)]
pub enum PhysExpr {
    /// Input column by index.
    Column(usize),
    Literal(Value),
    Binary {
        left: Box<PhysExpr>,
        op: BinaryOp,
        right: Box<PhysExpr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<PhysExpr>,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: Box<PhysExpr>,
        negated: bool,
    },
    Case {
        when_then: Vec<(PhysExpr, PhysExpr)>,
        else_expr: Option<Box<PhysExpr>>,
    },
    Cast {
        expr: Box<PhysExpr>,
        dtype: DataType,
    },
    ScalarFn {
        func: Arc<ScalarFunction>,
        args: Vec<PhysExpr>,
    },
}

impl std::fmt::Debug for PhysExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysExpr::Column(i) => write!(f, "#{i}"),
            PhysExpr::Literal(v) => write!(f, "{v}"),
            PhysExpr::Binary { left, op, right } => write!(f, "({left:?} {op:?} {right:?})"),
            PhysExpr::Unary { op, expr } => write!(f, "({op:?} {expr:?})"),
            PhysExpr::IsNull { expr, negated } => {
                write!(f, "({expr:?} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            PhysExpr::InList { expr, list, negated } => {
                write!(f, "({expr:?} {}IN {list:?})", if *negated { "NOT " } else { "" })
            }
            PhysExpr::Like { expr, pattern, negated } => {
                write!(f, "({expr:?} {}LIKE {pattern:?})", if *negated { "NOT " } else { "" })
            }
            PhysExpr::Case { when_then, else_expr } => {
                write!(f, "CASE {when_then:?} ELSE {else_expr:?}")
            }
            PhysExpr::Cast { expr, dtype } => write!(f, "CAST({expr:?} AS {dtype})"),
            PhysExpr::ScalarFn { func, args } => write!(f, "{}({args:?})", func.name),
        }
    }
}

impl PhysExpr {
    pub fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }

    pub fn lit(v: impl Into<Value>) -> PhysExpr {
        PhysExpr::Literal(v.into())
    }

    /// True for a bare `NULL` literal, which has no type of its own and
    /// should adopt one from surrounding context.
    pub fn is_untyped_null(&self) -> bool {
        matches!(self, PhysExpr::Literal(Value::Null))
    }

    /// Output type given the input schema.
    pub fn data_type(&self, input: &Schema) -> SqlResult<DataType> {
        Ok(match self {
            PhysExpr::Column(i) => {
                input
                    .fields
                    .get(*i)
                    .ok_or_else(|| SqlError::Plan(format!("column index {i} out of range")))?
                    .dtype
            }
            PhysExpr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
            PhysExpr::Binary { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    DataType::Bool
                } else {
                    let lt = left.data_type(input)?;
                    let rt = right.data_type(input)?;
                    match op {
                        // Int/Int division promotes to Float (documented
                        // dialect choice — keeps PageRank-style arithmetic
                        // exact without explicit casts).
                        BinaryOp::Divide => DataType::Float,
                        _ => {
                            if lt == DataType::Float || rt == DataType::Float {
                                DataType::Float
                            } else if lt == DataType::Str && *op == BinaryOp::Plus {
                                DataType::Str
                            } else {
                                DataType::Int
                            }
                        }
                    }
                }
            }
            PhysExpr::Unary { op, expr } => match op {
                UnaryOp::Not => DataType::Bool,
                UnaryOp::Neg => expr.data_type(input)?,
            },
            PhysExpr::IsNull { .. } | PhysExpr::InList { .. } | PhysExpr::Like { .. } => {
                DataType::Bool
            }
            PhysExpr::Case { when_then, else_expr } => {
                // A bare NULL branch carries no type of its own — it adopts
                // whatever the typed branches agree on (previously it was
                // silently typed Int, making `CASE ... THEN NULL ELSE 'x'`
                // fail at eval time).
                let mut t = None;
                for (_, then) in when_then {
                    if then.is_untyped_null() {
                        continue;
                    }
                    let tt = then.data_type(input)?;
                    t = Some(merge_types(t, tt));
                }
                if let Some(e) = else_expr {
                    if !e.is_untyped_null() {
                        let tt = e.data_type(input)?;
                        t = Some(merge_types(t, tt));
                    }
                }
                t.unwrap_or(DataType::Int)
            }
            PhysExpr::Cast { dtype, .. } => *dtype,
            PhysExpr::ScalarFn { func, args } => {
                let arg_types: SqlResult<Vec<DataType>> =
                    args.iter().map(|a| a.data_type(input)).collect();
                (func.return_type)(&arg_types?)?
            }
        })
    }

    /// Evaluates over a batch, producing one output column.
    pub fn eval(&self, batch: &RecordBatch) -> SqlResult<Column> {
        let n = batch.num_rows();
        match self {
            PhysExpr::Column(i) => {
                if *i >= batch.num_columns() {
                    return Err(SqlError::Execution(format!("column index {i} out of range")));
                }
                Ok(batch.column(*i).clone())
            }
            PhysExpr::Literal(v) => {
                let dtype = v.data_type().unwrap_or(DataType::Int);
                Column::repeat(dtype, v, n).map_err(Into::into)
            }
            PhysExpr::Binary { left, op, right } => {
                let l = left.eval(batch)?;
                let r = right.eval(batch)?;
                eval_binary(&l, *op, &r, batch.schema())
            }
            PhysExpr::Unary { op, expr } => {
                let c = expr.eval(batch)?;
                if let Some(out) = eval_unary_vectorized(*op, &c) {
                    return Ok(out);
                }
                let mut b = ColumnBuilder::with_capacity(
                    match op {
                        UnaryOp::Not => DataType::Bool,
                        UnaryOp::Neg => c.dtype(),
                    },
                    n,
                );
                for i in 0..n {
                    let v = c.value(i);
                    let out = match (op, v) {
                        (_, Value::Null) => Value::Null,
                        (UnaryOp::Not, Value::Bool(x)) => Value::Bool(!x),
                        (UnaryOp::Neg, Value::Int(x)) => Value::Int(-x),
                        (UnaryOp::Neg, Value::Float(x)) => Value::Float(-x),
                        (op, v) => {
                            return Err(SqlError::Execution(format!("cannot apply {op:?} to {v}")))
                        }
                    };
                    b.push(out)?;
                }
                Ok(b.finish())
            }
            PhysExpr::IsNull { expr, negated } => {
                let c = expr.eval(batch)?;
                // IS [NOT] NULL reads the validity bitmap directly; the
                // output is never null itself.
                let data: Vec<bool> = match c.validity() {
                    None => vec![*negated; n],
                    Some(valid) => (0..n).map(|i| valid.get(i) == *negated).collect(),
                };
                Ok(Column::new(ColumnData::Bool(data), None))
            }
            PhysExpr::InList { expr, list, negated } => {
                let c = expr.eval(batch)?;
                let lists: SqlResult<Vec<Column>> = list.iter().map(|e| e.eval(batch)).collect();
                Ok(eval_in_list_vectorized(&c, &lists?, *negated))
            }
            PhysExpr::Like { expr, pattern, negated } => {
                let c = expr.eval(batch)?;
                let p = pattern.eval(batch)?;
                let mut b = ColumnBuilder::with_capacity(DataType::Bool, n);
                for i in 0..n {
                    if c.is_null(i) || p.is_null(i) {
                        b.push_null();
                        continue;
                    }
                    let (Value::Str(s), Value::Str(pat)) = (c.value(i), p.value(i)) else {
                        return Err(SqlError::Execution("LIKE requires strings".into()));
                    };
                    let m = like_match(&s, &pat);
                    b.push(Value::Bool(m != *negated))?;
                }
                Ok(b.finish())
            }
            PhysExpr::Case { when_then, else_expr } => {
                let out_type = self.data_type(batch.schema())?;
                let whens: SqlResult<Vec<Column>> =
                    when_then.iter().map(|(w, _)| w.eval(batch)).collect();
                let whens = whens?;
                let thens: SqlResult<Vec<Column>> =
                    when_then.iter().map(|(_, t)| t.eval(batch)).collect();
                let thens = thens?;
                let else_col = else_expr.as_ref().map(|e| e.eval(batch)).transpose()?;
                if let Some(out) =
                    eval_case_vectorized(out_type, &whens, &thens, else_col.as_ref(), n)?
                {
                    return Ok(out);
                }
                let mut b = ColumnBuilder::with_capacity(out_type, n);
                'rows: for i in 0..n {
                    for (w, t) in whens.iter().zip(&thens) {
                        if w.value(i) == Value::Bool(true) {
                            b.push(t.value(i))?;
                            continue 'rows;
                        }
                    }
                    match &else_col {
                        Some(e) => b.push(e.value(i))?,
                        None => b.push_null(),
                    }
                }
                Ok(b.finish())
            }
            PhysExpr::Cast { expr, dtype } => {
                let c = expr.eval(batch)?;
                let mut b = ColumnBuilder::with_capacity(*dtype, n);
                for i in 0..n {
                    let v = c.value(i);
                    let out = cast_value(&v, *dtype)?;
                    b.push(out)?;
                }
                Ok(b.finish())
            }
            PhysExpr::ScalarFn { func, args } => {
                let arg_cols: SqlResult<Vec<Column>> = args.iter().map(|a| a.eval(batch)).collect();
                let arg_cols = arg_cols?;
                let arg_types: Vec<DataType> = arg_cols.iter().map(|c| c.dtype()).collect();
                let out_type = (func.return_type)(&arg_types)?;
                let mut b = ColumnBuilder::with_capacity(out_type, n);
                let mut row: Vec<Value> = Vec::with_capacity(arg_cols.len());
                for i in 0..n {
                    row.clear();
                    for c in &arg_cols {
                        row.push(c.value(i));
                    }
                    b.push((func.eval)(&row)?)?;
                }
                Ok(b.finish())
            }
        }
    }

    /// Evaluates a constant expression (no column references) to a scalar.
    /// Used for `VALUES` rows and constant folding.
    pub fn eval_scalar(&self) -> SqlResult<Value> {
        match self {
            PhysExpr::Column(i) => {
                Err(SqlError::Execution(format!("column #{i} in constant context")))
            }
            PhysExpr::Literal(v) => Ok(v.clone()),
            PhysExpr::Binary { left, op, right } => {
                binary_value_op(&left.eval_scalar()?, *op, &right.eval_scalar()?)
            }
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval_scalar()?;
                Ok(match (op, v) {
                    (_, Value::Null) => Value::Null,
                    (UnaryOp::Not, Value::Bool(x)) => Value::Bool(!x),
                    (UnaryOp::Neg, Value::Int(x)) => Value::Int(-x),
                    (UnaryOp::Neg, Value::Float(x)) => Value::Float(-x),
                    (op, v) => {
                        return Err(SqlError::Execution(format!("cannot apply {op:?} to {v}")))
                    }
                })
            }
            PhysExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.eval_scalar()?.is_null() != *negated))
            }
            PhysExpr::InList { expr, list, negated } => {
                let v = expr.eval_scalar()?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&item.eval_scalar()?) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null { Value::Null } else { Value::Bool(*negated) })
            }
            PhysExpr::Like { expr, pattern, negated } => {
                let v = expr.eval_scalar()?;
                let p = pattern.eval_scalar()?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        Ok(Value::Bool(like_match(&s, &pat) != *negated))
                    }
                    _ => Err(SqlError::Execution("LIKE requires strings".into())),
                }
            }
            PhysExpr::Case { when_then, else_expr } => {
                for (w, t) in when_then {
                    if w.eval_scalar()? == Value::Bool(true) {
                        return t.eval_scalar();
                    }
                }
                match else_expr {
                    Some(e) => e.eval_scalar(),
                    None => Ok(Value::Null),
                }
            }
            PhysExpr::Cast { expr, dtype } => cast_value(&expr.eval_scalar()?, *dtype),
            PhysExpr::ScalarFn { func, args } => {
                let vals: SqlResult<Vec<Value>> = args.iter().map(|a| a.eval_scalar()).collect();
                (func.eval)(&vals?)
            }
        }
    }

    /// True if the expression references no input columns.
    pub fn is_constant(&self) -> bool {
        match self {
            PhysExpr::Column(_) => false,
            PhysExpr::Literal(_) => true,
            PhysExpr::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
            PhysExpr::Unary { expr, .. } => expr.is_constant(),
            PhysExpr::IsNull { expr, .. } => expr.is_constant(),
            PhysExpr::InList { expr, list, .. } => {
                expr.is_constant() && list.iter().all(|e| e.is_constant())
            }
            PhysExpr::Like { expr, pattern, .. } => expr.is_constant() && pattern.is_constant(),
            PhysExpr::Case { when_then, else_expr } => {
                when_then.iter().all(|(w, t)| w.is_constant() && t.is_constant())
                    && else_expr.as_ref().is_none_or(|e| e.is_constant())
            }
            PhysExpr::Cast { expr, .. } => expr.is_constant(),
            PhysExpr::ScalarFn { args, .. } => args.iter().all(|a| a.is_constant()),
        }
    }

    /// Evaluates and requires a boolean column; returns a selection bitmap
    /// with SQL semantics (bit set iff the row is a known `true`; NULL →
    /// unset). Operators consume this directly — `RecordBatch::filter` and
    /// the bitmap algebra work on it without a `Vec<bool>` detour.
    pub fn eval_predicate(&self, batch: &RecordBatch) -> SqlResult<Bitmap> {
        let c = self.eval(batch)?;
        if c.dtype() != DataType::Bool {
            return Err(SqlError::Execution(format!(
                "predicate must be boolean, got {}",
                c.dtype()
            )));
        }
        let data = Bitmap::from_bools(c.as_bool().expect("bool column"));
        // Mask out nulls: payload bits behind an unset validity bit are
        // unspecified (gathers can carry stale values).
        Ok(match c.validity() {
            Some(valid) => data.and(valid),
            None => data,
        })
    }
}

fn merge_types(acc: Option<DataType>, t: DataType) -> DataType {
    match acc {
        None => t,
        Some(a) if a == t => a,
        Some(DataType::Int) if t == DataType::Float => DataType::Float,
        Some(DataType::Float) if t == DataType::Int => DataType::Float,
        Some(a) => a,
    }
}

/// SQL CAST semantics (stricter than coercion: supports string parsing).
pub fn cast_value(v: &Value, target: DataType) -> SqlResult<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let out = match (v, target) {
        (Value::Str(s), DataType::Int) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| SqlError::Execution(format!("cannot cast '{s}' to BIGINT")))?,
        (Value::Str(s), DataType::Float) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| SqlError::Execution(format!("cannot cast '{s}' to FLOAT")))?,
        (Value::Str(s), DataType::Bool) => match s.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Value::Bool(true),
            "false" | "f" | "0" => Value::Bool(false),
            _ => return Err(SqlError::Execution(format!("cannot cast '{s}' to BOOLEAN"))),
        },
        (v, DataType::Str) => Value::Str(v.to_string()),
        (v, t) => v.coerce(t).map_err(|e| SqlError::Execution(e.to_string()))?,
    };
    Ok(out)
}

/// SQL LIKE pattern matching: `%` = any sequence, `_` = any one char.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Try all splits.
                for i in 0..=s.len() {
                    if rec(&s[i..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => !s.is_empty() && s[0] == *c && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

fn eval_binary(l: &Column, op: BinaryOp, r: &Column, _schema: &Schema) -> SqlResult<Column> {
    let n = l.len();
    debug_assert_eq!(n, r.len());

    if let Some(out) = eval_binary_vectorized(l, op, r)? {
        return Ok(out);
    }

    // Generic value-wise fallback for type combinations with no kernel.
    let out_dtype = match op {
        op if op.is_comparison() => DataType::Bool,
        BinaryOp::And | BinaryOp::Or => DataType::Bool,
        BinaryOp::Divide => DataType::Float,
        _ => {
            if l.dtype() == DataType::Float || r.dtype() == DataType::Float {
                DataType::Float
            } else if l.dtype() == DataType::Str {
                DataType::Str
            } else {
                DataType::Int
            }
        }
    };
    let mut b = ColumnBuilder::with_capacity(out_dtype, n);
    for i in 0..n {
        let lv = l.value(i);
        let rv = r.value(i);
        let out = binary_value_op(&lv, op, &rv)?;
        b.push(out)?;
    }
    Ok(b.finish())
}

/// A borrowed numeric column payload; lets comparison and arithmetic kernels
/// treat Int and Float operands uniformly through the same f64 promotion the
/// row-path oracle ([`binary_value_op`]) applies.
#[derive(Clone, Copy)]
enum NumView<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl NumView<'_> {
    fn of(c: &Column) -> Option<NumView<'_>> {
        c.as_int().map(NumView::I).or_else(|| c.as_float().map(NumView::F))
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumView::I(v) => v[i] as f64,
            NumView::F(v) => v[i],
        }
    }
}

/// Dispatches to a typed slice kernel, or returns `None` when no kernel
/// applies. Unsupported dtype pairings deliberately fall back to the row
/// loop: it raises type errors lazily, only for rows where **both** sides
/// are non-null, and a kernel must not error eagerly where the row path
/// would have succeeded.
fn eval_binary_vectorized(l: &Column, op: BinaryOp, r: &Column) -> SqlResult<Option<Column>> {
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        if l.dtype() == DataType::Bool && r.dtype() == DataType::Bool {
            return Ok(Some(bool_logic_kernel(l, op, r)));
        }
        return Ok(None);
    }
    if op.is_comparison() {
        return Ok(compare_kernel(l, op, r));
    }
    Ok(arith_kernel(l, op, r))
}

/// Word-wise three-valued AND/OR. With LT/LF = "left valid and true/false"
/// (RT/RF likewise), `AND` is false when either side is a known false and
/// true when both are known true; `OR` is the dual. Everything else is NULL.
/// Payload bits behind an unset validity bit are never trusted.
fn bool_logic_kernel(l: &Column, op: BinaryOp, r: &Column) -> Column {
    let n = l.len();
    let ld = Bitmap::from_bools(l.as_bool().expect("bool column"));
    let rd = Bitmap::from_bools(r.as_bool().expect("bool column"));
    let lv = l.validity().cloned().unwrap_or_else(|| Bitmap::ones(n));
    let rv = r.validity().cloned().unwrap_or_else(|| Bitmap::ones(n));
    let (lt, lf) = (lv.and(&ld), lv.and_not(&ld));
    let (rt, rf) = (rv.and(&rd), rv.and_not(&rd));
    let (data, valid) = match op {
        BinaryOp::And => {
            let t = lt.and(&rt);
            let valid = lf.or(&rf).or(&t);
            (t, valid)
        }
        BinaryOp::Or => {
            let t = lt.or(&rt);
            let valid = lf.and(&rf).or(&t);
            (t, valid)
        }
        _ => unreachable!("bool_logic_kernel only handles AND/OR"),
    };
    let has_null = !valid.all();
    Column::new(ColumnData::Bool(data.to_bools()), has_null.then_some(valid))
}

fn cmp_ord(op: BinaryOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => !ord.is_eq(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("not a comparison"),
    }
}

/// Typed comparison kernel. Numeric operands promote through f64 even for
/// Int/Int — the row-path oracle does the same, so behaviour at magnitudes
/// beyond 2^53 stays bit-identical. Cross-type pairings return `None`.
fn compare_kernel(l: &Column, op: BinaryOp, r: &Column) -> Option<Column> {
    let n = l.len();
    if let (Some(a), Some(b)) = (NumView::of(l), NumView::of(r)) {
        let mut data = vec![false; n];
        let mut valid = Bitmap::ones(n);
        let mut has_null = false;
        for (i, slot) in data.iter_mut().enumerate() {
            if l.is_null(i) || r.is_null(i) {
                valid.set(i, false);
                has_null = true;
                continue;
            }
            match a.get(i).partial_cmp(&b.get(i)) {
                Some(ord) => *slot = cmp_ord(op, ord),
                None => {
                    // NaN comparisons are unknown.
                    valid.set(i, false);
                    has_null = true;
                }
            }
        }
        return Some(Column::new(ColumnData::Bool(data), has_null.then_some(valid)));
    }
    fn ordered<T: PartialOrd>(l: &Column, a: &[T], op: BinaryOp, r: &Column, b: &[T]) -> Column {
        let n = a.len();
        let mut data = vec![false; n];
        let mut valid = Bitmap::ones(n);
        let mut has_null = false;
        for i in 0..n {
            match (!l.is_null(i) && !r.is_null(i)).then(|| a[i].partial_cmp(&b[i])).flatten() {
                Some(ord) => data[i] = cmp_ord(op, ord),
                None => {
                    valid.set(i, false);
                    has_null = true;
                }
            }
        }
        Column::new(ColumnData::Bool(data), has_null.then_some(valid))
    }
    match (l.dtype(), r.dtype()) {
        (DataType::Str, DataType::Str) => {
            Some(ordered(l, l.as_str().unwrap(), op, r, r.as_str().unwrap()))
        }
        (DataType::Bool, DataType::Bool) => {
            Some(ordered(l, l.as_bool().unwrap(), op, r, r.as_bool().unwrap()))
        }
        (DataType::Blob, DataType::Blob) => {
            let a: Vec<&[u8]> = l.as_blob().unwrap().iter().collect();
            let b: Vec<&[u8]> = r.as_blob().unwrap().iter().collect();
            Some(ordered(l, &a, op, r, &b))
        }
        _ => None,
    }
}

/// Typed arithmetic kernels: Int stays in i64 with wrapping semantics
/// (except division, which always floats), any Float operand promotes both
/// sides to f64, and `Str + Str` concatenates. Division/modulo by zero is
/// NULL, matching the oracle. Non-numeric pairings return `None`.
fn arith_kernel(l: &Column, op: BinaryOp, r: &Column) -> Option<Column> {
    use BinaryOp::*;
    let n = l.len();
    if let (Some(a), Some(b)) = (l.as_int(), r.as_int()) {
        if matches!(op, Plus | Minus | Multiply) {
            let mut data = vec![0i64; n];
            let mut valid = Bitmap::ones(n);
            let mut has_null = false;
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    valid.set(i, false);
                    has_null = true;
                    continue;
                }
                data[i] = match op {
                    Plus => a[i].wrapping_add(b[i]),
                    Minus => a[i].wrapping_sub(b[i]),
                    _ => a[i].wrapping_mul(b[i]),
                };
            }
            return Some(Column::new(ColumnData::Int(data), has_null.then_some(valid)));
        }
        if op == Modulo {
            let mut data = vec![0i64; n];
            let mut valid = Bitmap::ones(n);
            let mut has_null = false;
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) || b[i] == 0 {
                    valid.set(i, false);
                    has_null = true;
                    continue;
                }
                data[i] = a[i] % b[i];
            }
            return Some(Column::new(ColumnData::Int(data), has_null.then_some(valid)));
        }
        // Divide falls through to the float kernel below.
    }
    if op == Plus {
        if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
            let mut data = Vec::with_capacity(n);
            let mut valid = Bitmap::ones(n);
            let mut has_null = false;
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    valid.set(i, false);
                    has_null = true;
                    data.push(String::new());
                    continue;
                }
                let mut s = String::with_capacity(a[i].len() + b[i].len());
                s.push_str(&a[i]);
                s.push_str(&b[i]);
                data.push(s);
            }
            return Some(Column::new(ColumnData::Str(data), has_null.then_some(valid)));
        }
    }
    if let (Some(a), Some(b)) = (NumView::of(l), NumView::of(r)) {
        let mut data = vec![0f64; n];
        let mut valid = Bitmap::ones(n);
        let mut has_null = false;
        for (i, slot) in data.iter_mut().enumerate() {
            if l.is_null(i) || r.is_null(i) {
                valid.set(i, false);
                has_null = true;
                continue;
            }
            let (x, y) = (a.get(i), b.get(i));
            *slot = match op {
                Plus => x + y,
                Minus => x - y,
                Multiply => x * y,
                Divide | Modulo => {
                    if y == 0.0 {
                        valid.set(i, false);
                        has_null = true;
                        continue;
                    }
                    if op == Divide {
                        x / y
                    } else {
                        x % y
                    }
                }
                _ => unreachable!("not an arithmetic operator"),
            };
        }
        return Some(Column::new(ColumnData::Float(data), has_null.then_some(valid)));
    }
    None
}

/// Vectorized NOT (bitmap complement under validity) and Neg (typed slice
/// negation). `None` falls back to the row loop for its lazy type errors.
fn eval_unary_vectorized(op: UnaryOp, c: &Column) -> Option<Column> {
    let n = c.len();
    match op {
        UnaryOp::Not => {
            let data = Bitmap::from_bools(c.as_bool()?);
            let valid = c.validity().cloned().unwrap_or_else(|| Bitmap::ones(n));
            let out = valid.and_not(&data);
            let has_null = !valid.all();
            Some(Column::new(ColumnData::Bool(out.to_bools()), has_null.then_some(valid)))
        }
        UnaryOp::Neg => {
            if let Some(v) = c.as_int() {
                // `-x`, not wrapping_neg: a debug-build overflow on i64::MIN
                // must panic exactly as the row loop does.
                let data = (0..n).map(|i| if c.is_null(i) { 0 } else { -v[i] }).collect();
                Some(Column::new(ColumnData::Int(data), c.validity().cloned()))
            } else if let Some(v) = c.as_float() {
                let data = (0..n).map(|i| if c.is_null(i) { 0.0 } else { -v[i] }).collect();
                Some(Column::new(ColumnData::Float(data), c.validity().cloned()))
            } else {
                None
            }
        }
    }
}

/// Columnar IN-list: probes every list column against the needle with typed
/// loops, accumulating per-row "found a match" / "saw a NULL item" flags,
/// then assembles the three-valued result in one pass. `sql_eq` semantics
/// throughout: a type mismatch is plain false, NULL items make a miss
/// unknown rather than false.
fn eval_in_list_vectorized(v: &Column, lists: &[Column], negated: bool) -> Column {
    let n = v.len();
    let mut found = vec![false; n];
    let mut saw_null = vec![false; n];
    for lc in lists {
        in_list_probe(v, lc, &mut found, &mut saw_null);
    }
    let mut data = vec![false; n];
    let mut valid = Bitmap::ones(n);
    let mut has_null = false;
    for i in 0..n {
        if v.is_null(i) || (!found[i] && saw_null[i]) {
            valid.set(i, false);
            has_null = true;
        } else {
            data[i] = found[i] != negated;
        }
    }
    Column::new(ColumnData::Bool(data), has_null.then_some(valid))
}

fn in_list_probe(v: &Column, lc: &Column, found: &mut [bool], saw_null: &mut [bool]) {
    let n = v.len();
    macro_rules! probe {
        ($eq:expr) => {
            for i in 0..n {
                if v.is_null(i) {
                    continue;
                }
                if lc.is_null(i) {
                    saw_null[i] = true;
                } else if $eq(i) {
                    found[i] = true;
                }
            }
        };
    }
    match (v.dtype(), lc.dtype()) {
        (DataType::Int, DataType::Int) => {
            let (a, b) = (v.as_int().unwrap(), lc.as_int().unwrap());
            probe!(|i: usize| a[i] == b[i]);
        }
        (DataType::Float, DataType::Float) => {
            let (a, b) = (v.as_float().unwrap(), lc.as_float().unwrap());
            probe!(|i: usize| a[i] == b[i]);
        }
        (DataType::Int, DataType::Float) => {
            let (a, b) = (v.as_int().unwrap(), lc.as_float().unwrap());
            probe!(|i: usize| (a[i] as f64) == b[i]);
        }
        (DataType::Float, DataType::Int) => {
            let (a, b) = (v.as_float().unwrap(), lc.as_int().unwrap());
            probe!(|i: usize| a[i] == (b[i] as f64));
        }
        (DataType::Str, DataType::Str) => {
            let (a, b) = (v.as_str().unwrap(), lc.as_str().unwrap());
            probe!(|i: usize| a[i] == b[i]);
        }
        _ => {
            // Bool/Blob and cross-type pairings: per-row sql_eq (a mismatch
            // is an ordinary false, never an error).
            probe!(|i: usize| v.value(i).sql_eq(&lc.value(i)) == Some(true));
        }
    }
}

/// Columnar CASE: computes a per-row branch choice from the WHEN columns,
/// then gathers from the matching THEN/ELSE columns. Only engages when every
/// source column is losslessly pushable into the output type — otherwise the
/// row loop runs, which coerces (and can error) only on selected rows.
fn eval_case_vectorized(
    out_type: DataType,
    whens: &[Column],
    thens: &[Column],
    else_col: Option<&Column>,
    n: usize,
) -> SqlResult<Option<Column>> {
    let coercible = |c: &Column| {
        c.null_count() == c.len()
            || c.dtype() == out_type
            || matches!(
                (c.dtype(), out_type),
                (DataType::Int, DataType::Float)
                    | (DataType::Float, DataType::Int)
                    | (DataType::Bool, DataType::Int)
            )
    };
    if !thens.iter().all(coercible) || !else_col.is_none_or(coercible) {
        return Ok(None);
    }
    // u32::MAX = "no branch matched" → ELSE (or NULL without one).
    let mut choice = vec![u32::MAX; n];
    for (bi, w) in whens.iter().enumerate() {
        // A non-boolean WHEN column never equals TRUE row-wise; skip it.
        let Some(wd) = w.as_bool() else { continue };
        for i in 0..n {
            if choice[i] == u32::MAX && !w.is_null(i) && wd[i] {
                choice[i] = bi as u32;
            }
        }
    }
    let mut b = ColumnBuilder::with_capacity(out_type, n);
    for (i, &ch) in choice.iter().enumerate() {
        let src = match ch {
            u32::MAX => match else_col {
                Some(e) => e,
                None => {
                    b.push_null();
                    continue;
                }
            },
            bi => &thens[bi as usize],
        };
        b.push(src.value(i))?;
    }
    Ok(Some(b.finish()))
}

/// Applies a binary operator to two scalars with SQL NULL semantics.
pub fn binary_value_op(l: &Value, op: BinaryOp, r: &Value) -> SqlResult<Value> {
    use BinaryOp::*;
    // Three-valued logic for AND/OR must inspect nulls specially.
    if matches!(op, And | Or) {
        let lb = match l {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            other => return Err(SqlError::Execution(format!("AND/OR on non-boolean {other}"))),
        };
        let rb = match r {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            other => return Err(SqlError::Execution(format!("AND/OR on non-boolean {other}"))),
        };
        return Ok(match (op, lb, rb) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
            (And, Some(true), Some(true)) => Value::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
            (Or, Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }

    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    if op.is_comparison() {
        let result = match (l, r) {
            // Numeric comparison handles Int/Float mixing.
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                let a = l.as_float().unwrap();
                let b = r.as_float().unwrap();
                compare_with(op, a.partial_cmp(&b))
            }
            (Value::Str(a), Value::Str(b)) => compare_with(op, a.partial_cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => compare_with(op, a.partial_cmp(b)),
            (Value::Blob(a), Value::Blob(b)) => compare_with(op, a.partial_cmp(b)),
            (a, b) => {
                return Err(SqlError::Execution(format!("cannot compare {a} with {b}")));
            }
        };
        return Ok(result);
    }

    // Arithmetic / concatenation.
    let out = match (l, r, op) {
        (Value::Str(a), Value::Str(b), Plus) => Value::Str(format!("{a}{b}")),
        (Value::Int(a), Value::Int(b), Plus) => Value::Int(a.wrapping_add(*b)),
        (Value::Int(a), Value::Int(b), Minus) => Value::Int(a.wrapping_sub(*b)),
        (Value::Int(a), Value::Int(b), Multiply) => Value::Int(a.wrapping_mul(*b)),
        (Value::Int(a), Value::Int(b), Modulo) => {
            if *b == 0 {
                Value::Null
            } else {
                Value::Int(a % b)
            }
        }
        // Division always floats; division by zero yields NULL.
        (a, b, Divide) => {
            let (x, y) = promote(a, b)?;
            if y == 0.0 {
                Value::Null
            } else {
                Value::Float(x / y)
            }
        }
        (a, b, Plus) => {
            let (x, y) = promote(a, b)?;
            Value::Float(x + y)
        }
        (a, b, Minus) => {
            let (x, y) = promote(a, b)?;
            Value::Float(x - y)
        }
        (a, b, Multiply) => {
            let (x, y) = promote(a, b)?;
            Value::Float(x * y)
        }
        (a, b, Modulo) => {
            let (x, y) = promote(a, b)?;
            if y == 0.0 {
                Value::Null
            } else {
                Value::Float(x % y)
            }
        }
        (a, b, op) => {
            return Err(SqlError::Execution(format!("cannot apply {op:?} to {a}, {b}")));
        }
    };
    Ok(out)
}

fn promote(a: &Value, b: &Value) -> SqlResult<(f64, f64)> {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(SqlError::Execution(format!("non-numeric arithmetic on {a}, {b}"))),
    }
}

fn compare_with(op: BinaryOp, ord: Option<std::cmp::Ordering>) -> Value {
    let Some(ord) = ord else {
        return Value::Null; // NaN comparisons are unknown
    };
    let b = match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => !ord.is_eq(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!(),
    };
    Value::Bool(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_storage::Field;

    fn batch() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
        ]);
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Float(0.5), Value::Str("family".into())],
                vec![Value::Int(2), Value::Float(1.5), Value::Str("friend".into())],
                vec![Value::Null, Value::Float(2.5), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = PhysExpr::col(0).eval(&b).unwrap();
        assert_eq!(c.value(1), Value::Int(2));
        let l = PhysExpr::lit(7i64).eval(&b).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.value(2), Value::Int(7));
    }

    #[test]
    fn arithmetic_with_nulls() {
        let b = batch();
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::col(0)),
            op: BinaryOp::Plus,
            right: Box::new(PhysExpr::lit(10i64)),
        };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Int(11));
        assert_eq!(c.value(2), Value::Null);
    }

    #[test]
    fn int_division_floats() {
        let b = batch();
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::lit(1i64)),
            op: BinaryOp::Divide,
            right: Box::new(PhysExpr::lit(4i64)),
        };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Float(0.25));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(
            binary_value_op(&Value::Int(1), BinaryOp::Divide, &Value::Int(0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            binary_value_op(&Value::Int(1), BinaryOp::Modulo, &Value::Int(0)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn three_valued_logic() {
        use BinaryOp::{And, Or};
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        let n = Value::Null;
        assert_eq!(binary_value_op(&f, And, &n).unwrap(), Value::Bool(false));
        assert_eq!(binary_value_op(&t, And, &n).unwrap(), Value::Null);
        assert_eq!(binary_value_op(&t, Or, &n).unwrap(), Value::Bool(true));
        assert_eq!(binary_value_op(&f, Or, &n).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_mix_int_float() {
        let b = batch();
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::col(0)),
            op: BinaryOp::Lt,
            right: Box::new(PhysExpr::col(1)),
        };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Bool(false)); // 1 < 0.5
        assert_eq!(c.value(1), Value::Bool(false)); // 2 < 1.5
        assert_eq!(c.value(2), Value::Null);
    }

    #[test]
    fn is_null_and_in_list() {
        let b = batch();
        let e = PhysExpr::IsNull { expr: Box::new(PhysExpr::col(0)), negated: false };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Bool(false));
        assert_eq!(c.value(2), Value::Bool(true));

        let e = PhysExpr::InList {
            expr: Box::new(PhysExpr::col(2)),
            list: vec![PhysExpr::lit("family"), PhysExpr::lit("classmate")],
            negated: false,
        };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Bool(true));
        assert_eq!(c.value(1), Value::Bool(false));
        assert_eq!(c.value(2), Value::Null);
    }

    #[test]
    fn like_matching() {
        assert!(like_match("family", "fam%"));
        assert!(like_match("family", "%ily"));
        assert!(like_match("family", "f_mily"));
        assert!(!like_match("family", "fam"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%%c"));
        assert!(!like_match("abc", "_"));
    }

    #[test]
    fn case_expression() {
        let b = batch();
        let e = PhysExpr::Case {
            when_then: vec![(
                PhysExpr::Binary {
                    left: Box::new(PhysExpr::col(0)),
                    op: BinaryOp::Eq,
                    right: Box::new(PhysExpr::lit(1i64)),
                },
                PhysExpr::lit("one"),
            )],
            else_expr: Some(Box::new(PhysExpr::lit("other"))),
        };
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Str("one".into()));
        assert_eq!(c.value(1), Value::Str("other".into()));
        assert_eq!(c.value(2), Value::Str("other".into())); // null comparison → else
    }

    #[test]
    fn cast_string_numbers() {
        assert_eq!(cast_value(&Value::Str(" 42 ".into()), DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            cast_value(&Value::Str("2.5".into()), DataType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(cast_value(&Value::Int(3), DataType::Str).unwrap(), Value::Str("3".into()));
        assert!(cast_value(&Value::Str("zzz".into()), DataType::Int).is_err());
    }

    #[test]
    fn eval_predicate_null_is_false() {
        let b = batch();
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::col(0)),
            op: BinaryOp::Gt,
            right: Box::new(PhysExpr::lit(1i64)),
        };
        let mask = e.eval_predicate(&b).unwrap();
        assert_eq!(mask, Bitmap::from_iter_bool([false, true, false]));
    }

    #[test]
    fn predicate_type_checked() {
        let b = batch();
        assert!(PhysExpr::col(0).eval_predicate(&b).is_err());
    }

    #[test]
    fn case_null_branch_adopts_other_branch_type() {
        // Regression: a bare NULL THEN-branch used to be typed Int, so
        // `CASE WHEN a=1 THEN NULL ELSE 'x' END` failed pushing 'x' into an
        // Int column. The NULL branch must adopt the Str type instead.
        let b = batch();
        let e = PhysExpr::Case {
            when_then: vec![(
                PhysExpr::Binary {
                    left: Box::new(PhysExpr::col(0)),
                    op: BinaryOp::Eq,
                    right: Box::new(PhysExpr::lit(1i64)),
                },
                PhysExpr::Literal(Value::Null),
            )],
            else_expr: Some(Box::new(PhysExpr::lit("x"))),
        };
        assert_eq!(e.data_type(b.schema()).unwrap(), DataType::Str);
        let c = e.eval(&b).unwrap();
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Str("x".into()));
        assert_eq!(c.value(2), Value::Str("x".into()));
        // All branches NULL still defaults to Int.
        let all_null = PhysExpr::Case {
            when_then: vec![],
            else_expr: Some(Box::new(PhysExpr::lit(Value::Null))),
        };
        assert_eq!(all_null.data_type(b.schema()).unwrap(), DataType::Int);
    }

    /// Row `i` of `e` over `b`, one node at a time: children first (every
    /// one, as column evaluation does), each bound into the node as a
    /// literal for [`PhysExpr::eval_scalar`], the result coerced to the
    /// node's declared type.
    fn row_oracle(e: &PhysExpr, b: &RecordBatch, i: usize) -> SqlResult<Value> {
        let bind = |c: &PhysExpr| row_oracle(c, b, i).map(|v| Box::new(PhysExpr::Literal(v)));
        let bound = match e {
            PhysExpr::Column(c) => PhysExpr::Literal(b.column(*c).value(i)),
            PhysExpr::Literal(_) => e.clone(),
            PhysExpr::Binary { left, op, right } => {
                PhysExpr::Binary { left: bind(left)?, op: *op, right: bind(right)? }
            }
            PhysExpr::Unary { op, expr } => PhysExpr::Unary { op: *op, expr: bind(expr)? },
            PhysExpr::IsNull { expr, negated } => {
                PhysExpr::IsNull { expr: bind(expr)?, negated: *negated }
            }
            PhysExpr::InList { expr, list, negated } => PhysExpr::InList {
                expr: bind(expr)?,
                list: list.iter().map(|x| bind(x).map(|x| *x)).collect::<SqlResult<_>>()?,
                negated: *negated,
            },
            PhysExpr::Case { when_then, else_expr } => PhysExpr::Case {
                when_then: when_then
                    .iter()
                    .map(|(w, t)| Ok((*bind(w)?, *bind(t)?)))
                    .collect::<SqlResult<_>>()?,
                else_expr: else_expr.as_deref().map(bind).transpose()?,
            },
            PhysExpr::Like { expr, pattern, negated } => {
                PhysExpr::Like { expr: bind(expr)?, pattern: bind(pattern)?, negated: *negated }
            }
            PhysExpr::Cast { expr, dtype } => PhysExpr::Cast { expr: bind(expr)?, dtype: *dtype },
            PhysExpr::ScalarFn { func, args } => PhysExpr::ScalarFn {
                func: func.clone(),
                args: args.iter().map(|x| bind(x).map(|x| *x)).collect::<SqlResult<_>>()?,
            },
        };
        let mut out = ColumnBuilder::with_capacity(e.data_type(b.schema())?, 1);
        out.push(bound.eval_scalar()?)?;
        Ok(out.finish().value(0))
    }

    /// Asserts the column kernels evaluate `e` over `b` bitwise like the
    /// row oracle: dtype, values, and validity placement.
    fn assert_paths_agree(e: &PhysExpr, b: &RecordBatch) {
        let fast = e.eval(b).unwrap();
        let mut slow = ColumnBuilder::with_capacity(e.data_type(b.schema()).unwrap(), b.num_rows());
        for i in 0..b.num_rows() {
            slow.push(row_oracle(e, b, i).unwrap()).unwrap();
        }
        let slow = slow.finish();
        assert_eq!(fast.dtype(), slow.dtype());
        assert_eq!(fast.len(), slow.len());
        for i in 0..fast.len() {
            assert_eq!(fast.value(i), slow.value(i), "row {i} of {e:?}");
            assert_eq!(fast.is_null(i), slow.is_null(i), "row {i} nullness of {e:?}");
        }
        assert_eq!(fast.validity(), slow.validity(), "validity of {e:?}");
    }

    #[test]
    fn kernels_match_row_path() {
        let b = batch();
        let bin = |l: PhysExpr, op, r: PhysExpr| PhysExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        };
        for op in [
            BinaryOp::Plus,
            BinaryOp::Minus,
            BinaryOp::Multiply,
            BinaryOp::Divide,
            BinaryOp::Modulo,
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            // Int×Int, Int×Float (incl. nulls in column a), and zero divisors.
            assert_paths_agree(&bin(PhysExpr::col(0), op, PhysExpr::col(0)), &b);
            assert_paths_agree(&bin(PhysExpr::col(0), op, PhysExpr::col(1)), &b);
            assert_paths_agree(&bin(PhysExpr::col(0), op, PhysExpr::lit(0i64)), &b);
        }
        // Str concat and Str comparison, with nulls.
        assert_paths_agree(&bin(PhysExpr::col(2), BinaryOp::Plus, PhysExpr::col(2)), &b);
        assert_paths_agree(&bin(PhysExpr::col(2), BinaryOp::Lt, PhysExpr::lit("friend")), &b);
        // Three-valued AND/OR over (a > 1) and (b < 2.0), NOT, IS NULL.
        let gt = bin(PhysExpr::col(0), BinaryOp::Gt, PhysExpr::lit(1i64));
        let lt = bin(PhysExpr::col(1), BinaryOp::Lt, PhysExpr::lit(2.0f64));
        assert_paths_agree(&bin(gt.clone(), BinaryOp::And, lt.clone()), &b);
        assert_paths_agree(&bin(gt.clone(), BinaryOp::Or, lt.clone()), &b);
        assert_paths_agree(&PhysExpr::Unary { op: UnaryOp::Not, expr: Box::new(gt.clone()) }, &b);
        assert_paths_agree(
            &PhysExpr::Unary { op: UnaryOp::Neg, expr: Box::new(PhysExpr::col(0)) },
            &b,
        );
        assert_paths_agree(
            &PhysExpr::IsNull { expr: Box::new(PhysExpr::col(0)), negated: true },
            &b,
        );
        // IN with a NULL list item: misses become unknown, not false.
        assert_paths_agree(
            &PhysExpr::InList {
                expr: Box::new(PhysExpr::col(0)),
                list: vec![PhysExpr::lit(2i64), PhysExpr::Literal(Value::Null)],
                negated: false,
            },
            &b,
        );
        // CASE gathering across branches of coercible types.
        assert_paths_agree(
            &PhysExpr::Case {
                when_then: vec![(gt, PhysExpr::col(0))],
                else_expr: Some(Box::new(PhysExpr::col(1))),
            },
            &b,
        );
    }

    #[test]
    fn float_fast_path_matches_generic() {
        let schema =
            Schema::new(vec![Field::new("x", DataType::Float), Field::new("y", DataType::Float)]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Float(i as f64), Value::Float((i * 2) as f64 + 0.5)])
            .collect();
        let b = RecordBatch::from_rows(schema, &rows).unwrap();
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::col(0)),
            op: BinaryOp::Multiply,
            right: Box::new(PhysExpr::col(1)),
        };
        let c = e.eval(&b).unwrap();
        for i in 0..100 {
            let expected = (i as f64) * ((i * 2) as f64 + 0.5);
            assert_eq!(c.value(i), Value::Float(expected));
        }
    }
}
