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
