//! Property-based tests for the SQL engine: vectorized expression kernels vs
//! a row-at-a-time oracle, SQL query results vs straight-line Rust reference
//! filters, aggregate identities.

use proptest::prelude::*;
use vertexica_sql::ast::{BinaryOp, UnaryOp};
use vertexica_sql::expr::PhysExpr;
use vertexica_sql::{Database, SqlResult};
use vertexica_storage::{Column, ColumnBuilder, DataType, Field, RecordBatch, Schema, Value};

fn db_with_numbers(values: &[(i64, f64)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE nums (k BIGINT NOT NULL, x FLOAT)").unwrap();
    for chunk in values.chunks(256) {
        let rows: Vec<String> = chunk.iter().map(|(k, x)| format!("({k}, {x:?})")).collect();
        db.execute(&format!("INSERT INTO nums VALUES {}", rows.join(","))).unwrap();
    }
    db
}

/// Decodes a byte stream into a random expression tree over columns
/// #0 (Int), #1 (Float), #2 (Str) — a stack machine, so no recursive
/// strategy is needed. Every byte either pushes a leaf or combines what is
/// already on the stack, covering arithmetic, comparisons, three-valued
/// AND/OR, NOT/Neg, IS NULL, IN lists and CASE, with zero and NULL literals
/// mixed in to hit division-by-zero and null-propagation paths.
fn build_expr(bytes: &[u8]) -> PhysExpr {
    const BIN_OPS: [BinaryOp; 13] = [
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
        BinaryOp::And,
        BinaryOp::Or,
    ];
    let mut stack = vec![PhysExpr::col(0), PhysExpr::col(1), PhysExpr::col(2)];
    for &b in bytes {
        let pick = b % 12;
        let salt = (b / 12) as usize;
        let e = match pick {
            0 => PhysExpr::col(salt % 3),
            1 => PhysExpr::lit((salt as i64) - 10),
            2 => PhysExpr::lit(((salt as f64) - 10.0) / 4.0),
            3 => PhysExpr::Literal(Value::Null),
            4 => PhysExpr::lit(salt.is_multiple_of(2)),
            5 => PhysExpr::lit(["", "a", "bb", "family"][salt % 4]),
            6 | 7 => {
                let right = stack.pop().expect("seeded stack");
                let left = stack.pop().unwrap_or(PhysExpr::col(salt % 3));
                PhysExpr::Binary {
                    left: Box::new(left),
                    op: BIN_OPS[salt % BIN_OPS.len()],
                    right: Box::new(right),
                }
            }
            8 => PhysExpr::Unary {
                op: if salt.is_multiple_of(2) { UnaryOp::Not } else { UnaryOp::Neg },
                expr: Box::new(stack.pop().expect("seeded stack")),
            },
            9 => PhysExpr::IsNull {
                expr: Box::new(stack.pop().expect("seeded stack")),
                negated: salt.is_multiple_of(2),
            },
            10 => PhysExpr::InList {
                expr: Box::new(stack.pop().expect("seeded stack")),
                list: vec![
                    PhysExpr::lit((salt as i64) - 5),
                    PhysExpr::Literal(Value::Null),
                    PhysExpr::col(salt % 3),
                ],
                negated: salt % 2 == 1,
            },
            _ => {
                let otherwise = stack.pop().expect("seeded stack");
                let then = stack.pop().unwrap_or(PhysExpr::lit((salt as i64) - 3));
                let when = stack.pop().unwrap_or(PhysExpr::Binary {
                    left: Box::new(PhysExpr::col(0)),
                    op: BinaryOp::Gt,
                    right: Box::new(PhysExpr::lit(0i64)),
                });
                PhysExpr::Case {
                    when_then: vec![(when, then)],
                    else_expr: Some(Box::new(otherwise)),
                }
            }
        };
        stack.push(e);
    }
    stack.pop().expect("seeded stack")
}

/// Row `i` of `e` over `batch`, one node at a time through
/// [`PhysExpr::eval_scalar`]: every child first (column evaluation is eager
/// too, so a child that errs on any row fails the whole expression), bound
/// into the node as a literal, and the node's result coerced to its
/// declared type, as a column of that type would hold it.
fn row_oracle(e: &PhysExpr, batch: &RecordBatch, i: usize) -> SqlResult<Value> {
    let bind = |c: &PhysExpr| row_oracle(c, batch, i).map(|v| Box::new(PhysExpr::Literal(v)));
    let bind_all = |cs: &[PhysExpr]| -> SqlResult<Vec<PhysExpr>> {
        cs.iter().map(|c| bind(c).map(|c| *c)).collect()
    };
    let bound = match e {
        PhysExpr::Column(c) => PhysExpr::Literal(batch.column(*c).value(i)),
        PhysExpr::Literal(_) => e.clone(),
        PhysExpr::Binary { left, op, right } => {
            PhysExpr::Binary { left: bind(left)?, op: *op, right: bind(right)? }
        }
        PhysExpr::Unary { op, expr } => PhysExpr::Unary { op: *op, expr: bind(expr)? },
        PhysExpr::IsNull { expr, negated } => {
            PhysExpr::IsNull { expr: bind(expr)?, negated: *negated }
        }
        PhysExpr::InList { expr, list, negated } => {
            PhysExpr::InList { expr: bind(expr)?, list: bind_all(list)?, negated: *negated }
        }
        PhysExpr::Like { expr, pattern, negated } => {
            PhysExpr::Like { expr: bind(expr)?, pattern: bind(pattern)?, negated: *negated }
        }
        PhysExpr::Case { when_then, else_expr } => PhysExpr::Case {
            when_then: when_then
                .iter()
                .map(|(w, t)| Ok((*bind(w)?, *bind(t)?)))
                .collect::<SqlResult<_>>()?,
            else_expr: else_expr.as_deref().map(bind).transpose()?,
        },
        PhysExpr::Cast { expr, dtype } => PhysExpr::Cast { expr: bind(expr)?, dtype: *dtype },
        PhysExpr::ScalarFn { func, args } => {
            PhysExpr::ScalarFn { func: func.clone(), args: bind_all(args)? }
        }
    };
    let mut out = ColumnBuilder::with_capacity(e.data_type(batch.schema())?, 1);
    out.push(bound.eval_scalar()?)?;
    Ok(out.finish().value(0))
}

/// `e` over `batch`, row by row through [`row_oracle`], pushed through a
/// [`ColumnBuilder`] of the expression's declared type.
fn row_oracle_column(e: &PhysExpr, batch: &RecordBatch) -> SqlResult<Column> {
    let mut out = ColumnBuilder::with_capacity(e.data_type(batch.schema())?, batch.num_rows());
    for i in 0..batch.num_rows() {
        out.push(row_oracle(e, batch, i)?)?;
    }
    Ok(out.finish())
}

fn arb_cell_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The typed slice kernels agree bitwise with the row-at-a-time oracle:
    /// same Ok/Err outcome, and on Ok the same dtype, values, and validity
    /// placement — over random expression trees and random batches with
    /// nulls, zeros, and empty inputs.
    #[test]
    fn vectorized_expr_matches_row_path(
        bytes in arb_cell_bytes(),
        rows in proptest::collection::vec(
            (
                prop_oneof![1 => Just(Value::Null), 4 => (-6i64..6).prop_map(Value::Int)],
                prop_oneof![
                    1 => Just(Value::Null),
                    1 => Just(Value::Float(0.0)),
                    3 => (-8.0f64..8.0).prop_map(Value::Float)
                ],
                prop_oneof![1 => Just(Value::Null), 3 => "[ab]{0,3}".prop_map(Value::Str)],
            ),
            0..50,
        ),
    ) {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        let expr = build_expr(&bytes);

        let fast = expr.eval(&batch);
        let slow = row_oracle_column(&expr, &batch);

        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                prop_assert_eq!(fast.dtype(), slow.dtype(), "dtype of {:?}", &expr);
                prop_assert_eq!(fast.len(), slow.len());
                for i in 0..fast.len() {
                    prop_assert_eq!(
                        fast.value(i),
                        slow.value(i),
                        "row {} of {:?}", i, &expr
                    );
                }
                prop_assert_eq!(fast.validity(), slow.validity(), "validity of {:?}", &expr);
            }
            (Err(_), Err(_)) => {} // both reject the same trees
            (fast, slow) => prop_assert!(
                false,
                "kernels and oracle disagree on {:?}: vectorized {:?}, row {:?}",
                &expr,
                fast.map(|c| c.len()),
                slow.map(|c| c.len())
            ),
        }
    }

    /// WHERE filters agree with a straight Rust filter.
    #[test]
    fn where_matches_reference(
        values in proptest::collection::vec((-50i64..50, -10.0f64..10.0), 1..150),
        lo in -50i64..50,
    ) {
        let db = db_with_numbers(&values);
        let got = db
            .query_int(&format!("SELECT COUNT(*) FROM nums WHERE k > {lo} AND x >= 0.0"))
            .unwrap();
        let expected = values.iter().filter(|(k, x)| *k > lo && *x >= 0.0).count() as i64;
        prop_assert_eq!(got, expected);
    }

    /// SUM/COUNT/AVG identities: AVG == SUM / COUNT (non-null, non-empty).
    #[test]
    fn aggregate_identities(
        values in proptest::collection::vec((-50i64..50, -10.0f64..10.0), 1..150),
    ) {
        let db = db_with_numbers(&values);
        let rows = db
            .query("SELECT SUM(x), COUNT(x), AVG(x) FROM nums")
            .unwrap();
        let sum = rows[0][0].as_float().unwrap();
        let count = rows[0][1].as_int().unwrap();
        let avg = rows[0][2].as_float().unwrap();
        prop_assert_eq!(count as usize, values.len());
        prop_assert!((avg - sum / count as f64).abs() < 1e-9);
        let expected_sum: f64 = values.iter().map(|(_, x)| x).sum();
        prop_assert!((sum - expected_sum).abs() < 1e-6);
    }

    /// GROUP BY partitions the table: group counts sum to the row count,
    /// and every group key is distinct.
    #[test]
    fn group_by_partitions(
        values in proptest::collection::vec((-10i64..10, 0.0f64..1.0), 1..150),
    ) {
        let db = db_with_numbers(&values);
        let rows = db.query("SELECT k, COUNT(*) FROM nums GROUP BY k").unwrap();
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, values.len());
        let keys: std::collections::HashSet<i64> =
            rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        prop_assert_eq!(keys.len(), rows.len());
    }

    /// ORDER BY actually sorts, and LIMIT truncates.
    #[test]
    fn order_and_limit(
        values in proptest::collection::vec((-1000i64..1000, 0.0f64..1.0), 1..150),
        limit in 1u64..20,
    ) {
        let db = db_with_numbers(&values);
        let rows = db
            .query(&format!("SELECT k FROM nums ORDER BY k LIMIT {limit}"))
            .unwrap();
        prop_assert_eq!(rows.len(), (limit as usize).min(values.len()));
        let mut sorted: Vec<i64> = values.iter().map(|(k, _)| *k).collect();
        sorted.sort_unstable();
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(row[0].as_int().unwrap(), sorted[i]);
        }
    }

    /// Constant expressions evaluate identically through the vectorized path
    /// (SELECT over a table) and the scalar path (SELECT without FROM).
    #[test]
    fn scalar_and_vectorized_agree(a in -1000i64..1000, b in 1i64..1000) {
        let db = db_with_numbers(&[(1, 1.0)]);
        let exprs = [
            format!("{a} + {b}"),
            format!("{a} - {b}"),
            format!("{a} * {b}"),
            format!("{a} / {b}"),
            format!("{a} % {b}"),
            format!("ABS({a})"),
            format!("LEAST({a}, {b})"),
            format!("CASE WHEN {a} > {b} THEN {a} ELSE {b} END"),
        ];
        for e in &exprs {
            let scalar = db.query_scalar(&format!("SELECT {e}")).unwrap();
            let vector = db.query_scalar(&format!("SELECT {e} FROM nums")).unwrap();
            prop_assert_eq!(scalar, vector, "expression {}", e);
        }
    }

    /// UPDATE touches exactly the rows the predicate selects; DELETE removes
    /// them; the rest stay intact.
    #[test]
    fn dml_row_accounting(
        values in proptest::collection::vec((-20i64..20, 0.0f64..1.0), 1..100),
        pivot in -20i64..20,
    ) {
        let db = db_with_numbers(&values);
        let expected: i64 = values.iter().filter(|(k, _)| *k < pivot).count() as i64;
        let updated = db
            .execute(&format!("UPDATE nums SET x = 99.0 WHERE k < {pivot}"))
            .unwrap()
            .affected() as i64;
        prop_assert_eq!(updated, expected);
        let marked = db.query_int("SELECT COUNT(*) FROM nums WHERE x = 99.0").unwrap();
        prop_assert!(marked >= expected); // pre-existing 99.0 x-values possible? range < 1.0, so equal
        prop_assert_eq!(marked, expected);
        let deleted = db
            .execute(&format!("DELETE FROM nums WHERE k < {pivot}"))
            .unwrap()
            .affected() as i64;
        prop_assert_eq!(deleted, expected);
        let left = db.query_int("SELECT COUNT(*) FROM nums").unwrap();
        prop_assert_eq!(left as usize, values.len() - expected as usize);
    }

    /// UNION ALL concatenates: counts add up.
    #[test]
    fn union_all_counts(
        values in proptest::collection::vec((-20i64..20, 0.0f64..1.0), 1..80),
    ) {
        let db = db_with_numbers(&values);
        let n = db
            .query_int(
                "SELECT COUNT(*) FROM (SELECT k FROM nums UNION ALL SELECT k FROM nums) u",
            )
            .unwrap();
        prop_assert_eq!(n as usize, values.len() * 2);
    }

    /// Self-join on key equality yields the sum of squared group sizes.
    #[test]
    fn join_cardinality(
        keys in proptest::collection::vec(-8i64..8, 1..60),
    ) {
        let values: Vec<(i64, f64)> = keys.iter().map(|&k| (k, 0.0)).collect();
        let db = db_with_numbers(&values);
        let got = db
            .query_int("SELECT COUNT(*) FROM nums a JOIN nums b ON a.k = b.k")
            .unwrap();
        let mut freq = std::collections::HashMap::new();
        for k in &keys {
            *freq.entry(k).or_insert(0i64) += 1;
        }
        let expected: i64 = freq.values().map(|c| c * c).sum();
        prop_assert_eq!(got, expected);
    }
}

/// One row of the oracle's tables, `a (k BIGINT, x FLOAT, s VARCHAR)` and
/// `b (k BIGINT, y FLOAT, t VARCHAR)`, every column nullable. Floats are
/// multiples of 0.5, −0.0 or NaN, so sums are exact in any order.
type OracleRow = (Option<i64>, Option<f64>, Option<String>);

fn arb_oracle_rows() -> impl Strategy<Value = Vec<OracleRow>> {
    proptest::collection::vec(
        (
            proptest::option::of(-1i64..3),
            proptest::option::of(prop_oneof![
                4 => (-2i64..4).prop_map(|h| h as f64 / 2.0),
                1 => Just(-0.0),
                1 => Just(f64::NAN),
            ]),
            proptest::option::of(
                prop_oneof![Just(""), Just("p"), Just("q")].prop_map(String::from),
            ),
        ),
        0..9,
    )
}

/// Loads `a` and `b` exactly (no text round trip for NaN or −0.0).
fn oracle_db(a: &[OracleRow], b: &[OracleRow]) -> Database {
    let db = Database::new();
    for (name, cols, rows) in [("a", "x FLOAT, s VARCHAR", a), ("b", "y FLOAT, t VARCHAR", b)] {
        db.execute(&format!("CREATE TABLE {name} (k BIGINT, {cols})")).unwrap();
        let schema = db.catalog().get(name).unwrap().read().schema().clone();
        let cells: Vec<Vec<Value>> = rows.iter().map(|r| oracle_cells(Some(r)).to_vec()).collect();
        if !cells.is_empty() {
            db.append_batches(name, &[RecordBatch::from_rows(schema, &cells).unwrap()]).unwrap();
        }
    }
    db
}

/// A row's cells; `None` is the NULL row an outer join pads with.
fn oracle_cells(r: Option<&OracleRow>) -> [Value; 3] {
    match r {
        Some((k, x, s)) => [
            k.map_or(Value::Null, Value::Int),
            x.map_or(Value::Null, Value::Float),
            s.clone().map_or(Value::Null, Value::Str),
        ],
        None => [Value::Null, Value::Null, Value::Null],
    }
}

/// A value as grouping and DISTINCT compare it: −0.0 is 0.0, and every NaN
/// is one value.
fn group_form(v: &Value) -> String {
    match v {
        Value::Float(x) if *x == 0.0 => "Float(0.0)".to_string(),
        v => format!("{v:?}"),
    }
}

/// A query shape for the pruning oracle.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// 0 inner, 1 left, 2 right, 3 cross.
    join: u8,
    /// `AND a.x <= b.y` in ON (not for cross joins).
    residual: bool,
    /// The equi-key: 0 `a.k = b.k` (BIGINT), 1 `a.k = b.y` (BIGINT with
    /// FLOAT), 2 `a.x = b.y` (FLOAT, with NaN and ±0.0).
    key: u8,
    /// `WHERE a.x > threshold`.
    filter: Option<i64>,
    /// 0 `SELECT *`, 1 two columns, 2 `COUNT(*)`, 3 `GROUP BY a.s`,
    /// 4 `ORDER BY` a column that is not selected.
    select: u8,
    distinct: bool,
    union_all: bool,
    /// `a` is read through `(SELECT k, x, s FROM a) a`.
    derived: bool,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (0u8..4, any::<bool>(), 0u8..3),
        proptest::option::of(-1i64..2),
        0u8..5,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|((join, residual, key), filter, select, distinct, union_all, derived)| {
            Shape { join, residual, key, filter, select, distinct, union_all, derived }
        })
}

impl Shape {
    fn sql(&self) -> String {
        let a = if self.derived { "(SELECT k, x, s FROM a) a" } else { "a" };
        let join = match self.join {
            3 => format!("{a} CROSS JOIN b"),
            kind => {
                let kw = ["JOIN", "LEFT JOIN", "RIGHT JOIN"][kind as usize];
                let residual = if self.residual { " AND a.x <= b.y" } else { "" };
                let key = ["a.k = b.k", "a.k = b.y", "a.x = b.y"][self.key as usize];
                format!("{a} {kw} b ON {key}{residual}")
            }
        };
        let filter = self.filter.map_or(String::new(), |t| format!(" WHERE a.x > {t}"));
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        let select = match self.select {
            0 => format!("SELECT {distinct}* FROM {join}{filter}"),
            1 => format!("SELECT {distinct}a.s, b.y FROM {join}{filter}"),
            2 => format!("SELECT COUNT(*) FROM {join}{filter}"),
            3 => format!("SELECT a.s, COUNT(*), SUM(b.y) FROM {join}{filter} GROUP BY a.s"),
            _ => format!("SELECT b.t FROM {join}{filter} ORDER BY x"),
        };
        if self.union_all && self.select != 4 {
            format!("{select} UNION ALL {select}")
        } else {
            select
        }
    }

    /// The same query, straight-line: nested loops over the rows, then the
    /// select list, DISTINCT and UNION ALL by hand.
    fn reference(&self, a: &[OracleRow], b: &[OracleRow]) -> Vec<Vec<Value>> {
        let cells = oracle_cells;
        let matches = |l: &OracleRow, r: &OracleRow| -> bool {
            if self.join == 3 {
                return true;
            }
            // `Option<f64>`'s `==` is IEEE: NaN equals nothing, 0.0 = −0.0.
            let keys = match (self.key, l.0, l.1) {
                (0, Some(x), _) => r.0 == Some(x),
                (1, Some(x), _) => r.1 == Some(x as f64),
                (2, _, Some(x)) => r.1 == Some(x),
                _ => false,
            };
            let residual = !self.residual || matches!((l.1, r.1), (Some(x), Some(y)) if x <= y);
            keys && residual
        };
        let mut joined: Vec<[Value; 6]> = Vec::new();
        let mut push = |l: Option<&OracleRow>, r: Option<&OracleRow>| {
            let ([a0, a1, a2], [b0, b1, b2]) = (cells(l), cells(r));
            joined.push([a0, a1, a2, b0, b1, b2]);
        };
        match self.join {
            2 => {
                for r in b {
                    let hits: Vec<&OracleRow> = a.iter().filter(|l| matches(l, r)).collect();
                    if hits.is_empty() {
                        push(None, Some(r));
                    }
                    for l in hits {
                        push(Some(l), Some(r));
                    }
                }
            }
            kind => {
                for l in a {
                    let hits: Vec<&OracleRow> = b.iter().filter(|r| matches(l, r)).collect();
                    if hits.is_empty() && kind == 1 {
                        push(Some(l), None);
                    }
                    for r in hits {
                        push(Some(l), Some(r));
                    }
                }
            }
        }
        if let Some(t) = self.filter {
            joined.retain(|row| matches!(row[1], Value::Float(x) if x > t as f64));
        }
        let mut out: Vec<Vec<Value>> = match self.select {
            0 => joined.iter().map(|r| r.to_vec()).collect(),
            1 => joined.iter().map(|r| vec![r[2].clone(), r[4].clone()]).collect(),
            2 => vec![vec![Value::Int(joined.len() as i64)]],
            3 => {
                let mut groups: Vec<(Value, i64, Option<f64>)> = Vec::new();
                for r in &joined {
                    let g = match groups.iter_mut().find(|g| g.0 == r[2]) {
                        Some(g) => g,
                        None => {
                            groups.push((r[2].clone(), 0, None));
                            groups.last_mut().unwrap()
                        }
                    };
                    g.1 += 1;
                    if let Value::Float(x) = r[4] {
                        g.2 = Some(g.2.unwrap_or(0.0) + x);
                    }
                }
                groups
                    .into_iter()
                    .map(|(s, n, sum)| {
                        vec![s, Value::Int(n), sum.map_or(Value::Null, Value::Float)]
                    })
                    .collect()
            }
            _ => joined.iter().map(|r| vec![r[5].clone()]).collect(),
        };
        if self.distinct && matches!(self.select, 0 | 1) {
            // The first row of each distinct value stays.
            let mut seen: Vec<Vec<String>> = Vec::new();
            out.retain(|r| {
                let form: Vec<String> = r.iter().map(group_form).collect();
                let fresh = !seen.contains(&form);
                if fresh {
                    seen.push(form);
                }
                fresh
            });
        }
        if self.union_all && self.select != 4 {
            out.extend(out.clone());
        }
        out
    }
}

/// Rows as sorted debug strings: a multiset, so row order (unspecified
/// without ORDER BY, and among ties with it) does not matter.
fn as_multiset(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Required-column pruning never changes a result: joins of every kind
    /// (with and without a residual ON condition), filters, grouping,
    /// `COUNT(*)`, ORDER BY on an unselected column, `SELECT *`, DISTINCT,
    /// UNION ALL and a derived table, all over nullable columns with
    /// duplicate and NULL keys (BIGINT = BIGINT, BIGINT = FLOAT, or FLOAT =
    /// FLOAT with NaN and ±0.0), against a straight-line nested-loop
    /// reference.
    #[test]
    fn pruned_plans_match_nested_loop_reference(
        a in arb_oracle_rows(),
        b in arb_oracle_rows(),
        shape in arb_shape(),
    ) {
        let db = oracle_db(&a, &b);
        let sql = shape.sql();
        let got = db.query(&sql).map_err(|e| format!("{sql}: {e}")).unwrap();
        let want = shape.reference(&a, &b);
        prop_assert_eq!(as_multiset(&got), as_multiset(&want), "{}", sql);
        if shape.select == 4 {
            // The sort key is pruned from the output but not from the sort.
            let x_of_t: Vec<Value> = db
                .query(&sql.replace("SELECT b.t FROM", "SELECT a.x FROM"))
                .unwrap()
                .into_iter()
                .map(|r| r[0].clone())
                .collect();
            prop_assert!(x_of_t.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()), "{}", sql);
            // The sort key with its table qualifier resolves to the same
            // column: the same rows in the same order.
            let qualified = sql.replace("ORDER BY x", "ORDER BY a.x");
            prop_assert_eq!(db.query(&qualified).unwrap(), got, "{}", qualified);
        }
    }
}

/// One row of the aggregate oracle's tables, `ga` and `gb`
/// `(k BIGINT, x FLOAT, n BIGINT)`, every column nullable.
type AggRow = (Option<i64>, Option<f64>, Option<i64>);

/// NaN, signed zeros, infinities, non-dyadic fractions and magnitudes far
/// enough apart that a float sum depends on its order.
const AGG_FLOATS: [f64; 12] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.1,
    0.2,
    0.3,
    1e16,
    -1e16,
    1.0 / 3.0,
    2.5,
];

/// BIGINTs whose sums wrap.
const AGG_INTS: [i64; 6] = [i64::MAX, i64::MIN, 1, -1, i64::MAX - 3, 7];

fn arb_agg_rows() -> impl Strategy<Value = Vec<AggRow>> {
    proptest::collection::vec(
        (
            // Two key values, so groups and match lists run long enough
            // for order to show in a float sum.
            proptest::option::of(0i64..2),
            proptest::option::of((0usize..AGG_FLOATS.len()).prop_map(|i| AGG_FLOATS[i])),
            proptest::option::of((0usize..AGG_INTS.len()).prop_map(|i| AGG_INTS[i])),
        ),
        0..16,
    )
}

/// Loads `ga` and `gb` exactly (no text round trip for NaN or -0.0), each
/// in two appends, so scans and join probes see more than one batch.
fn agg_db(a: &[AggRow], b: &[AggRow]) -> Database {
    let db = Database::new();
    for (name, rows) in [("ga", a), ("gb", b)] {
        db.execute(&format!("CREATE TABLE {name} (k BIGINT, x FLOAT, n BIGINT)")).unwrap();
        let schema = db.catalog().get(name).unwrap().read().schema().clone();
        let cells: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(k, x, n)| {
                vec![
                    k.map_or(Value::Null, Value::Int),
                    x.map_or(Value::Null, Value::Float),
                    n.map_or(Value::Null, Value::Int),
                ]
            })
            .collect();
        let (first, second) = cells.split_at(cells.len() / 2);
        for part in [first, second].into_iter().filter(|p| !p.is_empty()) {
            db.append_batches(name, &[RecordBatch::from_rows(schema.clone(), part).unwrap()])
                .unwrap();
        }
    }
    db
}

/// An aggregate-oracle query: 0 inner, 1 left, 2 right join of `ga` and
/// `gb` on `k`, or 3 `gb` alone; grouped by nothing, one BIGINT key, two,
/// or one FLOAT key.
#[derive(Debug, Clone, Copy)]
struct AggShape {
    join: u8,
    keys: u8,
}

impl AggShape {
    /// The group keys, as SQL, and as positions in a joined row
    /// `[a.k, a.x, a.n, b.k, b.x, b.n]`.
    fn keys(&self) -> (&'static str, &'static [usize]) {
        match (self.join, self.keys) {
            (_, 0) => ("", &[]),
            (3, 1) => ("b.k", &[3]),
            (3, 2) => ("b.k, b.n", &[3, 5]),
            (3, _) => ("b.x", &[4]),
            (_, 1) => ("a.k", &[0]),
            (_, 2) => ("a.k, b.k", &[0, 3]),
            _ => ("a.x", &[1]),
        }
    }

    fn sql(&self) -> String {
        let from = match self.join {
            3 => "gb b".to_string(),
            j => {
                let kw = ["JOIN", "LEFT JOIN", "RIGHT JOIN"][j as usize];
                format!("ga a {kw} gb b ON a.k = b.k")
            }
        };
        let (keys, _) = self.keys();
        let aggs = "SUM(b.x), MIN(b.x), MAX(b.x), AVG(b.x), COUNT(b.x), \
                    SUM(b.n), MIN(b.n), MAX(b.n), AVG(b.n), COUNT(*), AVG(DISTINCT b.n), \
                    COUNT(DISTINCT b.x), SUM(DISTINCT b.x), AVG(DISTINCT b.x)";
        if keys.is_empty() {
            format!("SELECT {aggs} FROM {from}")
        } else {
            format!("SELECT {keys}, {aggs} FROM {from} GROUP BY {keys}")
        }
    }

    /// The join's rows in the order the engine emits them — probe row by
    /// probe row, each probe row's matches in build-row order — then each
    /// group folded over its rows in that order, straight-line.
    fn reference(&self, a: &[AggRow], b: &[AggRow]) -> Vec<Vec<Value>> {
        let hit = |l: &AggRow, r: &AggRow| matches!((l.0, r.0), (Some(x), Some(y)) if x == y);
        let mut joined: Vec<(Option<&AggRow>, Option<&AggRow>)> = Vec::new();
        match self.join {
            3 => joined.extend(b.iter().map(|r| (None, Some(r)))),
            2 => {
                for r in b {
                    let before = joined.len();
                    joined.extend(a.iter().filter(|l| hit(l, r)).map(|l| (Some(l), Some(r))));
                    if joined.len() == before {
                        joined.push((None, Some(r)));
                    }
                }
            }
            kind => {
                for l in a {
                    let before = joined.len();
                    joined.extend(b.iter().filter(|r| hit(l, r)).map(|r| (Some(l), Some(r))));
                    if joined.len() == before && kind == 1 {
                        joined.push((Some(l), None));
                    }
                }
            }
        }
        let cells = |(l, r): (Option<&AggRow>, Option<&AggRow>)| -> [Value; 6] {
            let side = |row: Option<&AggRow>| match row {
                Some(&(k, x, n)) => [
                    k.map_or(Value::Null, Value::Int),
                    x.map_or(Value::Null, Value::Float),
                    n.map_or(Value::Null, Value::Int),
                ],
                None => [Value::Null, Value::Null, Value::Null],
            };
            let ([a0, a1, a2], [b0, b1, b2]) = (side(l), side(r));
            [a0, a1, a2, b0, b1, b2]
        };

        /// One group's running state, folded the way the engine defines
        /// each aggregate: sums start at 0 and are NULL without input, MIN
        /// and MAX keep the first of equals in `f64::total_cmp` order.
        #[derive(Default)]
        struct Fold {
            x_sum: Option<f64>,
            x_min: Option<f64>,
            x_max: Option<f64>,
            x_n: i64,
            n_sum: Option<i64>,
            n_min: Option<i64>,
            n_max: Option<i64>,
            n_avg_sum: f64,
            n_n: i64,
            rows: i64,
            /// The distinct `n`s, first seen first.
            n_distinct: Vec<i64>,
            /// The distinct `x`s (−0.0 is 0.0, every NaN one), first seen
            /// first.
            x_distinct: Vec<Value>,
        }
        let (_, key_cols) = self.keys();
        let mut groups: Vec<(Vec<Value>, Fold)> = Vec::new();
        if key_cols.is_empty() {
            groups.push((Vec::new(), Fold::default()));
        }
        for pair in joined {
            let row = cells(pair);
            // Keys compare in group form; a group reports its first key.
            let key: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
            let form = |k: &[Value]| k.iter().map(group_form).collect::<Vec<_>>();
            let g = match groups.iter().position(|(k, _)| form(k) == form(&key)) {
                Some(g) => g,
                None => {
                    groups.push((key, Fold::default()));
                    groups.len() - 1
                }
            };
            let f = &mut groups[g].1;
            f.rows += 1;
            if let Value::Float(x) = row[4] {
                if !f.x_distinct.iter().any(|d| group_form(d) == group_form(&row[4])) {
                    f.x_distinct.push(row[4].clone());
                }
                f.x_sum = Some(f.x_sum.unwrap_or(0.0) + x);
                if f.x_min.is_none_or(|m| x.total_cmp(&m).is_lt()) {
                    f.x_min = Some(x);
                }
                if f.x_max.is_none_or(|m| x.total_cmp(&m).is_gt()) {
                    f.x_max = Some(x);
                }
                f.x_n += 1;
            }
            if let Value::Int(n) = row[5] {
                f.n_sum = Some(f.n_sum.unwrap_or(0).wrapping_add(n));
                f.n_min = Some(f.n_min.map_or(n, |m| m.min(n)));
                f.n_max = Some(f.n_max.map_or(n, |m| m.max(n)));
                f.n_avg_sum += n as f64;
                f.n_n += 1;
                if !f.n_distinct.contains(&n) {
                    f.n_distinct.push(n);
                }
            }
        }
        let float = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        groups
            .into_iter()
            .map(|(key, f)| {
                let x_avg = (f.x_n > 0).then(|| f.x_sum.unwrap_or(0.0) / f.x_n as f64);
                let n_avg = (f.n_n > 0).then(|| f.n_avg_sum / f.n_n as f64);
                let n_distinct_avg = (f.n_n > 0).then(|| {
                    f.n_distinct.iter().map(|&n| n as f64).sum::<f64>() / f.n_distinct.len() as f64
                });
                let xs = f.x_distinct.iter().filter_map(Value::as_float);
                let x_distinct_sum = (f.x_n > 0).then(|| xs.fold(0.0, |s, x| s + x));
                let x_distinct_avg = x_distinct_sum.map(|s| s / f.x_distinct.len() as f64);
                key.into_iter()
                    .chain([
                        float(f.x_sum),
                        float(f.x_min),
                        float(f.x_max),
                        float(x_avg),
                        Value::Int(f.x_n),
                        int(f.n_sum),
                        int(f.n_min),
                        int(f.n_max),
                        float(n_avg),
                        Value::Int(f.rows),
                        float(n_distinct_avg),
                        Value::Int(f.x_distinct.len() as i64),
                        float(x_distinct_sum),
                        float(x_distinct_avg),
                    ])
                    .collect()
            })
            .collect()
    }
}

/// Rows as sorted strings with every float as its bit pattern: equal only
/// when each value is bitwise equal (the sign of zero included), whatever
/// order the groups come out in. NaN is one string: Rust leaves the sign and
/// payload of a computed NaN unspecified (`-inf + inf` may come out either
/// way, and the compiler may commute an addition), so only "is NaN" is
/// compared.
fn as_bit_rows(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(x) if x.is_nan() => "NaN".to_string(),
                    Value::Float(x) => format!("f{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// SUM / MIN / MAX / AVG / COUNT over FLOAT and BIGINT arguments,
    /// AVG(DISTINCT) over BIGINT and COUNT / SUM / AVG(DISTINCT) over FLOAT —
    /// NULL, NaN, ±0.0, ±inf, non-dyadic floats and wrapping BIGINT sums —
    /// ungrouped (also over empty input), grouped by a nullable BIGINT key
    /// (NULL is a group), by two BIGINT keys and by a nullable FLOAT key
    /// (every NaN one group, 0.0 and −0.0 one, reported as the first seen),
    /// over inner, left and right joins and a plain scan, against a
    /// straight-line reference that folds in join-output order. Compared
    /// bitwise.
    #[test]
    fn aggregates_match_join_order_reference_bitwise(
        a in arb_agg_rows(),
        b in arb_agg_rows(),
        join in 0u8..4,
        keys in 0u8..4,
    ) {
        let shape = AggShape { join, keys };
        let db = agg_db(&a, &b);
        let sql = shape.sql();
        let got = db.query(&sql).map_err(|e| format!("{sql}: {e}")).unwrap();
        let want = shape.reference(&a, &b);
        prop_assert_eq!(as_bit_rows(&got), as_bit_rows(&want), "{}", sql);
    }
}

/// The vertex, edge, rank and degree tables the hostile-text statements
/// read, a few rows each (NULLs included).
fn hostile_db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE v (id BIGINT NOT NULL, value VARBINARY); \
         CREATE TABLE e (src BIGINT NOT NULL, dst BIGINT NOT NULL, weight FLOAT); \
         CREATE TABLE pr (id BIGINT, rank FLOAT, share FLOAT, d BIGINT); \
         CREATE TABLE deg (id BIGINT, d BIGINT); \
         CREATE TABLE dist (id BIGINT, d FLOAT); \
         INSERT INTO v (id) VALUES (0), (1), (2), (3); \
         INSERT INTO e VALUES (0, 1, 1.0), (1, 2, 2.5), (2, 0, NULL), (2, 2, 1.0); \
         INSERT INTO pr VALUES (0, 0.25, 0.25, 1), (1, 0.25, 0.25, 1), (2, 0.25, NULL, 2), (3, 0.25, 0.0, 0); \
         INSERT INTO deg VALUES (0, 1), (1, 1), (2, 2), (3, 0); \
         INSERT INTO dist VALUES (0, 0.0), (1, 1e308), (2, 1e308), (3, NULL)",
    )
    .unwrap();
    db
}

/// The statements SQL PageRank and SSSP run each iteration, over the
/// tables of [`hostile_db`].
const HOSTILE_SEEDS: [&str; 3] = [
    "CREATE TABLE pr_next AS SELECT r.id AS id, r.rank AS rank, \
     CASE WHEN o.d > 0 THEN r.rank / o.d ELSE 0.0 END AS share, o.d AS d \
     FROM (SELECT v.id AS id, (1.0 - 0.85) / 4 + 0.85 * (COALESCE(c.contrib, 0.0) + dang.mass / 4) AS rank \
     FROM v v LEFT JOIN (SELECT e.dst AS id, SUM(p.share) AS contrib FROM e e JOIN pr p ON p.id = e.src \
     GROUP BY e.dst) c ON v.id = c.id \
     CROSS JOIN (SELECT COALESCE(SUM(p.rank), 0.0) AS mass FROM pr p WHERE p.d = 0) dang) r \
     JOIN deg o ON r.id = o.id",
    "CREATE TABLE dist_next AS SELECT v.id AS id, LEAST(d0.d, COALESCE(m.best, 1e308)) AS d \
     FROM v v JOIN dist d0 ON v.id = d0.id \
     LEFT JOIN (SELECT e.dst AS id, MIN(d.d + e.weight) AS best FROM e e JOIN dist d ON d.id = e.src \
     WHERE d.d < 1e308 GROUP BY e.dst) m ON v.id = m.id",
    "SELECT COUNT(*) FROM dist a JOIN pr b ON a.id = b.id WHERE a.d < b.rank ORDER BY 1 LIMIT 3",
];

/// Tokens mutations insert, and keyword soup is made of.
const HOSTILE_VOCAB: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "JOIN",
    "LEFT",
    "RIGHT",
    "CROSS",
    "ON",
    "GROUP",
    "BY",
    "ORDER",
    "LIMIT",
    "UNION",
    "ALL",
    "DISTINCT",
    "AS",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "AND",
    "NOT",
    "NULL",
    "CREATE",
    "TABLE",
    "EXPLAIN",
    "COUNT",
    "SUM",
    "ABS",
    "SUBSTR",
    "(",
    ")",
    ",",
    ".",
    "*",
    "/",
    "%",
    "-",
    "=",
    "<",
    "0",
    "-1",
    "1e308",
    "9223372036854775807",
    "'x'",
];

/// Splits SQL text into word and punctuation tokens.
fn sql_tokens(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word = String::new();
    for c in sql.chars() {
        if c.is_alphanumeric()
            || c == '_'
            || c == '\''
            || (c == '.' && word.chars().all(|d| d.is_ascii_digit()) && !word.is_empty())
        {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            out.push(std::mem::take(&mut word));
        }
        if !c.is_whitespace() {
            out.push(c.to_string());
        }
    }
    if !word.is_empty() {
        out.push(word);
    }
    out
}

/// A mutation of one seed statement, or keyword soup.
#[derive(Debug, Clone)]
enum Hostile {
    Insert { seed: usize, at: usize, token: usize },
    Delete { seed: usize, at: usize },
    Swap { seed: usize, a: usize, b: usize },
    Truncate { seed: usize, at: usize },
    Soup(Vec<usize>),
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    let seed = 0usize..HOSTILE_SEEDS.len();
    prop_oneof![
        (seed.clone(), any::<usize>(), 0usize..HOSTILE_VOCAB.len())
            .prop_map(|(seed, at, token)| Hostile::Insert { seed, at, token }),
        (seed.clone(), any::<usize>()).prop_map(|(seed, at)| Hostile::Delete { seed, at }),
        (seed.clone(), any::<usize>(), any::<usize>()).prop_map(|(seed, a, b)| Hostile::Swap {
            seed,
            a,
            b
        }),
        (seed, any::<usize>()).prop_map(|(seed, at)| Hostile::Truncate { seed, at }),
        proptest::collection::vec(0usize..HOSTILE_VOCAB.len(), 0..24).prop_map(Hostile::Soup),
    ]
}

impl Hostile {
    fn text(&self) -> String {
        let tokens = |seed: usize| sql_tokens(HOSTILE_SEEDS[seed]);
        match self {
            Hostile::Insert { seed, at, token } => {
                let mut t = tokens(*seed);
                let at = at % (t.len() + 1);
                t.insert(at, HOSTILE_VOCAB[*token].to_string());
                t.join(" ")
            }
            Hostile::Delete { seed, at } => {
                let mut t = tokens(*seed);
                t.remove(at % t.len());
                t.join(" ")
            }
            Hostile::Swap { seed, a, b } => {
                let mut t = tokens(*seed);
                let n = t.len();
                t.swap(a % n, b % n);
                t.join(" ")
            }
            Hostile::Truncate { seed, at } => {
                let text = HOSTILE_SEEDS[*seed];
                text[..at % (text.len() + 1)].to_string()
            }
            Hostile::Soup(words) => {
                words.iter().map(|&w| HOSTILE_VOCAB[w]).collect::<Vec<_>>().join(" ")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile SQL text never panics the engine: a mutated or truncated
    /// PageRank / SSSP statement, or random keyword soup, either runs or
    /// is rejected with a typed `SqlError`.
    #[test]
    fn hostile_sql_is_a_typed_error_never_a_panic(hostile in arb_hostile()) {
        let db = hostile_db();
        let sql = hostile.text();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.execute(&sql).map(|_| ())
        }));
        match run {
            Ok(Ok(())) => {}
            Ok(Err(e)) => prop_assert!(!e.to_string().is_empty(), "{}", sql),
            Err(_) => prop_assert!(false, "panicked on: {}", sql),
        }
    }
}

/// Statements that once panicked (BIGINT overflow in negation, `ABS` and
/// `%`; a builtin called with too few arguments) now run or fail typed.
#[test]
fn hostile_sql_found_cases_do_not_panic() {
    let db = hostile_db();
    let min = "(-9223372036854775807 - 1)";
    for (sql, want) in [
        (format!("SELECT -{min}"), Some(i64::MIN)),
        (format!("SELECT ABS({min})"), Some(i64::MIN)),
        (format!("SELECT {min} % -1"), Some(0)),
        ("SELECT -id - 9223372036854775807 - 1 FROM v WHERE id = 0".to_string(), Some(i64::MIN)),
        ("SELECT ABS()".to_string(), None),
        ("SELECT SUBSTR('abc')".to_string(), None),
        ("SELECT POWER(2)".to_string(), None),
    ] {
        match want {
            Some(v) => assert_eq!(db.query_int(&sql).unwrap(), v, "{sql}"),
            None => assert!(db.execute(&sql).is_err(), "{sql}"),
        }
    }
}

/// Every seed statement is valid as written, so mutations start from SQL
/// that runs.
#[test]
fn hostile_seeds_run_unmutated() {
    for sql in HOSTILE_SEEDS {
        let db = hostile_db();
        db.execute(sql).unwrap();
        let tokens = sql_tokens(sql).join(" ");
        hostile_db().execute(&tokens).unwrap();
    }
}
