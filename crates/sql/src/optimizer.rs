//! Logical plan optimizer.
//!
//! Rule passes, in order:
//!
//! 1. **Constant folding** — constant sub-expressions collapse to literals.
//! 2. **Predicate pushdown into scans** — `col <op> literal` conjuncts of a
//!    `Filter` directly above a `Scan` become [`ColumnPredicate`]s, enabling
//!    zone-map pruning in the storage layer.
//! 3. **Join predicate pushdown** — conjuncts of a `Filter` above an INNER
//!    join that reference only one side sink into that side.
//! 4. **Required-column pruning** — one top-down pass: every node is told
//!    which of its output columns its parent reads and produces only those
//!    (plus what it reads itself), so scans below joins and aggregates
//!    narrow and a join gathers only the columns read above it (a column
//!    store's bread and butter).

use std::sync::Arc;

use vertexica_storage::{ColumnPredicate, PredicateOp, Schema};

use crate::ast::{BinaryOp, JoinKind, UnaryOp};
use crate::error::{SqlError, SqlResult};
use crate::expr::PhysExpr;
use crate::logical::{AggCall, LogicalPlan};

/// Runs all optimizer passes.
pub fn optimize(plan: LogicalPlan) -> SqlResult<LogicalPlan> {
    let plan = fold_constants_plan(plan)?;
    let plan = push_predicates(plan)?;
    let all: Vec<usize> = (0..plan.schema().len()).collect();
    prune_exact(plan, &all)
}

// ---- constant folding ----

fn fold_constants_plan(plan: LogicalPlan) -> SqlResult<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_constants_plan(*input)?),
            predicate: fold_expr(predicate)?,
        },
        LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
            input: Box::new(fold_constants_plan(*input)?),
            exprs: exprs.into_iter().map(fold_expr).collect::<SqlResult<Vec<_>>>()?,
            schema,
        },
        LogicalPlan::Join { left, right, kind, on, filter, schema } => LogicalPlan::Join {
            left: Box::new(fold_constants_plan(*left)?),
            right: Box::new(fold_constants_plan(*right)?),
            kind,
            on,
            filter: filter.map(fold_expr).transpose()?,
            schema,
        },
        LogicalPlan::Aggregate { input, group, aggs, schema } => LogicalPlan::Aggregate {
            input: Box::new(fold_constants_plan(*input)?),
            group: group.into_iter().map(fold_expr).collect::<SqlResult<Vec<_>>>()?,
            aggs,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(fold_constants_plan(*input)?),
            keys: keys
                .into_iter()
                .map(|(e, asc)| Ok((fold_expr(e)?, asc)))
                .collect::<SqlResult<Vec<_>>>()?,
        },
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(fold_constants_plan(*input)?), n }
        }
        LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
            inputs: inputs.into_iter().map(fold_constants_plan).collect::<SqlResult<Vec<_>>>()?,
            schema,
        },
        LogicalPlan::Distinct { input } => {
            LogicalPlan::Distinct { input: Box::new(fold_constants_plan(*input)?) }
        }
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    })
}

/// Folds constant sub-expressions to literals.
pub fn fold_expr(expr: PhysExpr) -> SqlResult<PhysExpr> {
    // Fold children first.
    let expr = match expr {
        PhysExpr::Binary { left, op, right } => PhysExpr::Binary {
            left: Box::new(fold_expr(*left)?),
            op,
            right: Box::new(fold_expr(*right)?),
        },
        PhysExpr::Unary { op, expr } => PhysExpr::Unary { op, expr: Box::new(fold_expr(*expr)?) },
        PhysExpr::IsNull { expr, negated } => {
            PhysExpr::IsNull { expr: Box::new(fold_expr(*expr)?), negated }
        }
        PhysExpr::InList { expr, list, negated } => PhysExpr::InList {
            expr: Box::new(fold_expr(*expr)?),
            list: list.into_iter().map(fold_expr).collect::<SqlResult<Vec<_>>>()?,
            negated,
        },
        PhysExpr::Like { expr, pattern, negated } => PhysExpr::Like {
            expr: Box::new(fold_expr(*expr)?),
            pattern: Box::new(fold_expr(*pattern)?),
            negated,
        },
        PhysExpr::Case { when_then, else_expr } => PhysExpr::Case {
            when_then: when_then
                .into_iter()
                .map(|(w, t)| Ok((fold_expr(w)?, fold_expr(t)?)))
                .collect::<SqlResult<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(fold_expr(*e)?)),
                None => None,
            },
        },
        PhysExpr::Cast { expr, dtype } => {
            PhysExpr::Cast { expr: Box::new(fold_expr(*expr)?), dtype }
        }
        PhysExpr::ScalarFn { func, args } => PhysExpr::ScalarFn {
            func,
            args: args.into_iter().map(fold_expr).collect::<SqlResult<Vec<_>>>()?,
        },
        leaf => leaf,
    };
    if !matches!(expr, PhysExpr::Literal(_)) && expr.is_constant() {
        // Evaluation errors at fold time (e.g. bad cast) are deferred to
        // runtime rather than failing the whole plan.
        if let Ok(v) = expr.eval_scalar() {
            return Ok(PhysExpr::Literal(v));
        }
    }
    Ok(expr)
}

// ---- predicate pushdown ----

fn push_predicates(plan: LogicalPlan) -> SqlResult<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_predicates(*input)?;
            match input {
                LogicalPlan::Scan { table, schema, projection, mut predicates } => {
                    let mut conjuncts = Vec::new();
                    split_conjuncts(predicate, &mut conjuncts);
                    let mut residual: Vec<PhysExpr> = Vec::new();
                    for c in conjuncts {
                        // Scan predicates index the *full table schema*; they
                        // are only extractable when the scan has no
                        // projection (the planner emits projection-less
                        // scans; projection pushdown runs afterwards).
                        match (projection.is_none(), to_column_predicate(&c)) {
                            (true, Some(p)) => predicates.push(p),
                            _ => residual.push(c),
                        }
                    }
                    let scan = LogicalPlan::Scan { table, schema, projection, predicates };
                    match recombine(residual) {
                        Some(pred) => {
                            LogicalPlan::Filter { input: Box::new(scan), predicate: pred }
                        }
                        None => scan,
                    }
                }
                LogicalPlan::Join { left, right, kind: JoinKind::Inner, on, filter, schema } => {
                    let left_width = left.schema().len();
                    let mut conjuncts = Vec::new();
                    split_conjuncts(predicate, &mut conjuncts);
                    let mut left_preds = Vec::new();
                    let mut right_preds = Vec::new();
                    let mut keep = Vec::new();
                    for c in conjuncts {
                        let mut cols = Vec::new();
                        collect_columns(&c, &mut cols);
                        if !cols.is_empty() && cols.iter().all(|&i| i < left_width) {
                            left_preds.push(c);
                        } else if !cols.is_empty() && cols.iter().all(|&i| i >= left_width) {
                            right_preds.push(shift_columns(c, -(left_width as isize))?);
                        } else {
                            keep.push(c);
                        }
                    }
                    let left = match recombine(left_preds) {
                        Some(p) => LogicalPlan::Filter { input: left, predicate: p },
                        None => *left,
                    };
                    let right = match recombine(right_preds) {
                        Some(p) => LogicalPlan::Filter { input: right, predicate: p },
                        None => *right,
                    };
                    // Recurse so sunk filters can merge into scans.
                    let join = LogicalPlan::Join {
                        left: Box::new(push_predicates(left)?),
                        right: Box::new(push_predicates(right)?),
                        kind: JoinKind::Inner,
                        on,
                        filter,
                        schema,
                    };
                    match recombine(keep) {
                        Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
                        None => join,
                    }
                }
                other => LogicalPlan::Filter { input: Box::new(other), predicate },
            }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(push_predicates(*input)?), exprs, schema }
        }
        LogicalPlan::Join { left, right, kind, on, filter, schema } => LogicalPlan::Join {
            left: Box::new(push_predicates(*left)?),
            right: Box::new(push_predicates(*right)?),
            kind,
            on,
            filter,
            schema,
        },
        LogicalPlan::Aggregate { input, group, aggs, schema } => LogicalPlan::Aggregate {
            input: Box::new(push_predicates(*input)?),
            group,
            aggs,
            schema,
        },
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(push_predicates(*input)?), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(push_predicates(*input)?), n }
        }
        LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
            inputs: inputs.into_iter().map(push_predicates).collect::<SqlResult<Vec<_>>>()?,
            schema,
        },
        LogicalPlan::Distinct { input } => {
            LogicalPlan::Distinct { input: Box::new(push_predicates(*input)?) }
        }
        leaf => leaf,
    })
}

fn split_conjuncts(expr: PhysExpr, out: &mut Vec<PhysExpr>) {
    match expr {
        PhysExpr::Binary { left, op: BinaryOp::And, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn recombine(conjuncts: Vec<PhysExpr>) -> Option<PhysExpr> {
    conjuncts.into_iter().reduce(|a, b| PhysExpr::Binary {
        left: Box::new(a),
        op: BinaryOp::And,
        right: Box::new(b),
    })
}

/// Extracts `col <op> literal` (or flipped) as a storage-level predicate.
fn to_column_predicate(expr: &PhysExpr) -> Option<ColumnPredicate> {
    let PhysExpr::Binary { left, op, right } = expr else {
        return None;
    };
    let op = *op;
    let storage_op = |op: BinaryOp| -> Option<PredicateOp> {
        Some(match op {
            BinaryOp::Eq => PredicateOp::Eq,
            BinaryOp::NotEq => PredicateOp::NotEq,
            BinaryOp::Lt => PredicateOp::Lt,
            BinaryOp::LtEq => PredicateOp::LtEq,
            BinaryOp::Gt => PredicateOp::Gt,
            BinaryOp::GtEq => PredicateOp::GtEq,
            _ => return None,
        })
    };
    let flip = |op: PredicateOp| match op {
        PredicateOp::Lt => PredicateOp::Gt,
        PredicateOp::LtEq => PredicateOp::GtEq,
        PredicateOp::Gt => PredicateOp::Lt,
        PredicateOp::GtEq => PredicateOp::LtEq,
        other => other,
    };
    match (&**left, &**right) {
        (PhysExpr::Column(i), PhysExpr::Literal(v)) if !v.is_null() => {
            Some(ColumnPredicate::new(*i, storage_op(op)?, v.clone()))
        }
        (PhysExpr::Literal(v), PhysExpr::Column(i)) if !v.is_null() => {
            Some(ColumnPredicate::new(*i, flip(storage_op(op)?), v.clone()))
        }
        _ => None,
    }
}

/// Collects input-column indices referenced by an expression.
pub fn collect_columns(expr: &PhysExpr, out: &mut Vec<usize>) {
    match expr {
        PhysExpr::Column(i) => out.push(*i),
        PhysExpr::Literal(_) => {}
        PhysExpr::Binary { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        PhysExpr::Unary { expr, .. } => collect_columns(expr, out),
        PhysExpr::IsNull { expr, .. } => collect_columns(expr, out),
        PhysExpr::InList { expr, list, .. } => {
            collect_columns(expr, out);
            for e in list {
                collect_columns(e, out);
            }
        }
        PhysExpr::Like { expr, pattern, .. } => {
            collect_columns(expr, out);
            collect_columns(pattern, out);
        }
        PhysExpr::Case { when_then, else_expr } => {
            for (w, t) in when_then {
                collect_columns(w, out);
                collect_columns(t, out);
            }
            if let Some(e) = else_expr {
                collect_columns(e, out);
            }
        }
        PhysExpr::Cast { expr, .. } => collect_columns(expr, out),
        PhysExpr::ScalarFn { args, .. } => {
            for a in args {
                collect_columns(a, out);
            }
        }
    }
}

/// Shifts every column index by `delta` (used when sinking predicates below
/// a join's right side).
fn shift_columns(expr: PhysExpr, delta: isize) -> SqlResult<PhysExpr> {
    map_columns(expr, &|i| Ok((i as isize + delta) as usize))
}

/// Rewrites column indices through `f`; the first index `f` rejects fails
/// the rewrite.
pub fn map_columns(expr: PhysExpr, f: &impl Fn(usize) -> SqlResult<usize>) -> SqlResult<PhysExpr> {
    let boxed = |e: Box<PhysExpr>| map_columns(*e, f).map(Box::new);
    let all = |es: Vec<PhysExpr>| {
        es.into_iter().map(|e| map_columns(e, f)).collect::<SqlResult<Vec<_>>>()
    };
    Ok(match expr {
        PhysExpr::Column(i) => PhysExpr::Column(f(i)?),
        PhysExpr::Literal(v) => PhysExpr::Literal(v),
        PhysExpr::Binary { left, op, right } => {
            PhysExpr::Binary { left: boxed(left)?, op, right: boxed(right)? }
        }
        PhysExpr::Unary { op, expr } => PhysExpr::Unary { op, expr: boxed(expr)? },
        PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull { expr: boxed(expr)?, negated },
        PhysExpr::InList { expr, list, negated } => {
            PhysExpr::InList { expr: boxed(expr)?, list: all(list)?, negated }
        }
        PhysExpr::Like { expr, pattern, negated } => {
            PhysExpr::Like { expr: boxed(expr)?, pattern: boxed(pattern)?, negated }
        }
        PhysExpr::Case { when_then, else_expr } => PhysExpr::Case {
            when_then: when_then
                .into_iter()
                .map(|(w, t)| Ok((map_columns(w, f)?, map_columns(t, f)?)))
                .collect::<SqlResult<_>>()?,
            else_expr: else_expr.map(boxed).transpose()?,
        },
        PhysExpr::Cast { expr, dtype } => PhysExpr::Cast { expr: boxed(expr)?, dtype },
        PhysExpr::ScalarFn { func, args } => PhysExpr::ScalarFn { func, args: all(args)? },
    })
}

// ---- required-column pruning ----

/// Where each output column of a node went after [`prune_columns`]: old
/// position → new position, `None` where the column was pruned.
type ColumnMap = Vec<Option<usize>>;

/// The new position of old column `i`. A reference to a pruned (or
/// nonexistent) column is a typed error, never a silent index reuse: in a
/// narrowed node an unmapped index would name a different column.
fn lookup(map: &ColumnMap, i: usize) -> SqlResult<usize> {
    map.get(i).copied().flatten().ok_or_else(|| {
        SqlError::Plan(format!("column #{i} is referenced but was pruned from its input"))
    })
}

fn remap(expr: PhysExpr, map: &ColumnMap) -> SqlResult<PhysExpr> {
    map_columns(expr, &|i| lookup(map, i))
}

/// Sorted, deduplicated column indices referenced by `exprs`.
fn columns_of<'e>(exprs: impl IntoIterator<Item = &'e PhysExpr>) -> Vec<usize> {
    let mut cols = Vec::new();
    for e in exprs {
        collect_columns(e, &mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// `a ∪ b` of two sorted, deduplicated index lists.
fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `schema` restricted to the sorted positions `kept`; the same `Arc` when
/// nothing was dropped.
fn project_schema(schema: Arc<Schema>, kept: &[usize]) -> Arc<Schema> {
    if kept.len() == schema.len() {
        schema
    } else {
        schema.project(kept)
    }
}

/// Maps the sorted positions `kept` of a node's old output to their new
/// positions `0..kept.len()`.
fn map_kept(width: usize, kept: &[usize]) -> ColumnMap {
    let mut map = vec![None; width];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = Some(new);
    }
    map
}

/// Top-down required-columns pass: `plan` is rewritten to produce (at
/// least) the `required` positions of its output — sorted, deduplicated —
/// plus whatever its own operators read, and the old → new position map of
/// its output is returned. Positions not in `required` may survive (a
/// filter's predicate columns, a sort's keys); callers that need an exact
/// layout use [`prune_exact`].
fn prune_columns(plan: LogicalPlan, required: &[usize]) -> SqlResult<(LogicalPlan, ColumnMap)> {
    let width = plan.schema().len();
    if let Some(&bad) = required.iter().find(|&&i| i >= width) {
        return Err(SqlError::Plan(format!(
            "column #{bad} is referenced but the input has only {width} columns"
        )));
    }
    // Row-count carrier: when nothing above reads a column of this node it
    // still has to deliver its row count, and a zero-column batch cannot
    // carry N rows.
    let required: &[usize] = if required.is_empty() && width > 0 { &[0] } else { required };
    Ok(match plan {
        LogicalPlan::Scan { table, schema, projection, predicates } => {
            // Pushed-down predicates index the table schema and stay as
            // they are; only the projection narrows.
            let current: Vec<usize> = projection.unwrap_or_else(|| (0..schema.len()).collect());
            let kept: Vec<usize> = required.iter().map(|&i| current[i]).collect();
            let projection =
                if kept.len() == schema.len() && kept.iter().enumerate().all(|(i, &c)| i == c) {
                    None
                } else {
                    Some(kept)
                };
            (LogicalPlan::Scan { table, schema, projection, predicates }, map_kept(width, required))
        }
        LogicalPlan::Filter { input, predicate } => {
            let (input, map) = prune_columns(*input, &union(required, &columns_of([&predicate])))?;
            let predicate = remap(predicate, &map)?;
            (LogicalPlan::Filter { input: Box::new(input), predicate }, map)
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let exprs: Vec<PhysExpr> = if required.len() == width {
                exprs
            } else {
                required.iter().map(|&i| exprs[i].clone()).collect()
            };
            let (input, map) = prune_columns(*input, &columns_of(&exprs))?;
            let exprs = exprs.into_iter().map(|e| remap(e, &map)).collect::<SqlResult<_>>()?;
            let schema = project_schema(schema, required);
            (
                LogicalPlan::Project { input: Box::new(input), exprs, schema },
                map_kept(width, required),
            )
        }
        LogicalPlan::Join { left, right, kind, on, filter, schema } => {
            let left_width = left.schema().len();
            let mut needed: Vec<usize> =
                on.iter().flat_map(|&(l, r)| [l, left_width + r]).collect();
            needed.sort_unstable();
            needed = union(&needed, &union(required, &columns_of(filter.as_ref())));
            let (left_req, right_req) =
                needed.split_at(needed.partition_point(|&i| i < left_width));
            let right_req: Vec<usize> = right_req.iter().map(|&i| i - left_width).collect();
            let (left, left_map) = prune_columns(*left, left_req)?;
            let (right, right_map) = prune_columns(*right, &right_req)?;
            let new_left_width = left.schema().len();
            let map: ColumnMap = left_map
                .into_iter()
                .chain(right_map.into_iter().map(|m| m.map(|j| new_left_width + j)))
                .collect();
            let on = on
                .into_iter()
                .map(|(l, r)| {
                    Ok((lookup(&map, l)?, lookup(&map, left_width + r)? - new_left_width))
                })
                .collect::<SqlResult<_>>()?;
            let filter = filter.map(|f| remap(f, &map)).transpose()?;
            // Every surviving column of either side has exactly one origin.
            let kept: Vec<usize> = (0..width).filter(|&i| map[i].is_some()).collect();
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
                filter,
                schema: project_schema(schema.clone(), &kept),
            };
            // Keys read only by ON (and the sides' row-count carriers) are
            // probed, not gathered: `physical::execute` fuses the
            // column-only Project this may add into the join's output gather.
            (select_columns(join, &map, required, &schema)?, map_kept(width, required))
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            // Output is the group keys, then one column per aggregate. Every
            // key stays (it defines the groups); unread aggregates go.
            let kept_aggs: Vec<usize> =
                required.iter().filter(|&&i| i >= group.len()).map(|&i| i - group.len()).collect();
            let aggs: Vec<AggCall> = kept_aggs.iter().map(|&a| aggs[a].clone()).collect();
            let read = columns_of(group.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())));
            let (input, map) = prune_columns(*input, &read)?;
            let group = group.into_iter().map(|e| remap(e, &map)).collect::<SqlResult<Vec<_>>>()?;
            let aggs = aggs
                .into_iter()
                .map(|a| Ok(AggCall { arg: a.arg.map(|e| remap(e, &map)).transpose()?, ..a }))
                .collect::<SqlResult<_>>()?;
            let kept: Vec<usize> =
                (0..group.len()).chain(kept_aggs.iter().map(|&a| group.len() + a)).collect();
            let schema = project_schema(schema, &kept);
            (
                LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema },
                map_kept(width, &kept),
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let (input, map) =
                prune_columns(*input, &union(required, &columns_of(keys.iter().map(|(e, _)| e))))?;
            let keys = keys
                .into_iter()
                .map(|(e, asc)| Ok((remap(e, &map)?, asc)))
                .collect::<SqlResult<_>>()?;
            (LogicalPlan::Sort { input: Box::new(input), keys }, map)
        }
        LogicalPlan::Limit { input, n } => {
            let (input, map) = prune_columns(*input, required)?;
            (LogicalPlan::Limit { input: Box::new(input), n }, map)
        }
        LogicalPlan::UnionAll { inputs, schema } => {
            // Every input keeps the same positions, so rows still line up.
            let inputs =
                inputs.into_iter().map(|i| prune_exact(i, required)).collect::<SqlResult<_>>()?;
            (
                LogicalPlan::UnionAll { inputs, schema: project_schema(schema, required) },
                map_kept(width, required),
            )
        }
        LogicalPlan::Distinct { input } => {
            // Every column takes part in row identity.
            let all: Vec<usize> = (0..width).collect();
            let input = prune_exact(*input, &all)?;
            (LogicalPlan::Distinct { input: Box::new(input) }, map_kept(width, &all))
        }
        values @ LogicalPlan::Values { .. } => (values, (0..width).map(Some).collect()),
    })
}

/// [`prune_columns`], then [`select_columns`]: the output is exactly the
/// `required` positions, in order.
fn prune_exact(plan: LogicalPlan, required: &[usize]) -> SqlResult<LogicalPlan> {
    let schema = plan.schema();
    let (plan, map) = prune_columns(plan, required)?;
    select_columns(plan, &map, required, &schema)
}

/// `plan` itself when it produces exactly the `required` positions of its
/// old output `schema` (`map` says where they went), else a column-only
/// Project that picks them.
fn select_columns(
    plan: LogicalPlan,
    map: &ColumnMap,
    required: &[usize],
    schema: &Schema,
) -> SqlResult<LogicalPlan> {
    if plan.schema().len() == required.len() {
        return Ok(plan);
    }
    let exprs = required
        .iter()
        .map(|&i| Ok(PhysExpr::Column(lookup(map, i)?)))
        .collect::<SqlResult<_>>()?;
    Ok(LogicalPlan::Project { input: Box::new(plan), exprs, schema: schema.project(required) })
}

/// Desugars `NOT(expr)` over comparisons during folding — exposed for tests.
pub fn negate_comparison(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq => BinaryOp::NotEq,
        BinaryOp::NotEq => BinaryOp::Eq,
        BinaryOp::Lt => BinaryOp::GtEq,
        BinaryOp::LtEq => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::LtEq,
        BinaryOp::GtEq => BinaryOp::Lt,
        _ => return None,
    })
}

/// Helper for building NOT expressions in tests.
pub fn not(e: PhysExpr) -> PhysExpr {
    PhysExpr::Unary { op: UnaryOp::Not, expr: Box::new(e) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_storage::{DataType, Field, Value};

    fn scan(ncols: usize) -> LogicalPlan {
        let fields = (0..ncols).map(|i| Field::new(format!("c{i}"), DataType::Int)).collect();
        LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(fields),
            projection: None,
            predicates: vec![],
        }
    }

    fn cmp(col: usize, op: BinaryOp, v: i64) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(col)),
            op,
            right: Box::new(PhysExpr::Literal(Value::Int(v))),
        }
    }

    #[test]
    fn constant_folding_collapses() {
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(2))),
            op: BinaryOp::Multiply,
            right: Box::new(PhysExpr::Literal(Value::Int(21))),
        };
        let folded = fold_expr(e).unwrap();
        assert!(matches!(folded, PhysExpr::Literal(Value::Int(42))));
    }

    #[test]
    fn folding_keeps_column_refs() {
        let e = cmp(0, BinaryOp::Gt, 5);
        let folded = fold_expr(e).unwrap();
        assert!(matches!(folded, PhysExpr::Binary { .. }));
    }

    #[test]
    fn predicate_sinks_into_scan() {
        let plan =
            LogicalPlan::Filter { input: Box::new(scan(3)), predicate: cmp(1, BinaryOp::Eq, 7) };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Scan { predicates, .. } = opt else {
            panic!("expected bare scan, got {}", opt.display_indent());
        };
        assert_eq!(predicates.len(), 1);
        assert_eq!(predicates[0].column, 1);
    }

    #[test]
    fn non_sinkable_conjunct_stays() {
        // c0 = c1 cannot become a storage predicate.
        let pred = PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(0)),
            op: BinaryOp::Eq,
            right: Box::new(PhysExpr::Column(1)),
        };
        let both = PhysExpr::Binary {
            left: Box::new(pred),
            op: BinaryOp::And,
            right: Box::new(cmp(2, BinaryOp::Lt, 9)),
        };
        let plan = LogicalPlan::Filter { input: Box::new(scan(3)), predicate: both };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Filter { input, .. } = opt else { panic!() };
        let LogicalPlan::Scan { predicates, .. } = *input else { panic!() };
        assert_eq!(predicates.len(), 1);
        assert_eq!(predicates[0].column, 2);
    }

    #[test]
    fn flipped_literal_comparison_sinks() {
        // 5 < c0  →  c0 > 5
        let pred = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(5))),
            op: BinaryOp::Lt,
            right: Box::new(PhysExpr::Column(0)),
        };
        let plan = LogicalPlan::Filter { input: Box::new(scan(1)), predicate: pred };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Scan { predicates, .. } = opt else { panic!() };
        assert_eq!(predicates[0].op, PredicateOp::Gt);
    }

    #[test]
    fn projection_pushdown_narrows_scan() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan(5)),
            exprs: vec![PhysExpr::Column(4), PhysExpr::Column(2)],
            schema: Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
        };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Project { input, exprs, .. } = opt else { panic!() };
        let LogicalPlan::Scan { projection, .. } = *input else { panic!() };
        assert_eq!(projection, Some(vec![2, 4]));
        // Exprs remapped: old 4 → new 1, old 2 → new 0.
        assert!(matches!(exprs[0], PhysExpr::Column(1)));
        assert!(matches!(exprs[1], PhysExpr::Column(0)));
    }

    fn join(
        left: LogicalPlan,
        right: LogicalPlan,
        kind: JoinKind,
        on: Vec<(usize, usize)>,
    ) -> LogicalPlan {
        let width = left.schema().len() + right.schema().len();
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            on,
            filter: None,
            schema: Schema::new(
                (0..width).map(|i| Field::new(format!("j{i}"), DataType::Int)).collect(),
            ),
        }
    }

    fn scan_projection(plan: &LogicalPlan) -> Option<Vec<usize>> {
        match plan {
            LogicalPlan::Scan { projection, .. } => projection.clone(),
            _ => panic!("expected a scan, got {}", plan.display_indent()),
        }
    }

    #[test]
    fn join_gathers_only_read_columns() {
        // SELECT l.c2, r.c1 FROM l JOIN r ON l.c0 = r.c0: the keys are
        // probed but only the two read columns are gathered.
        let plan = LogicalPlan::Project {
            input: Box::new(join(scan(4), scan(3), JoinKind::Inner, vec![(0, 0)])),
            exprs: vec![PhysExpr::Column(2), PhysExpr::Column(5)],
            schema: Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
        };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Project { input, exprs, .. } = opt else { panic!() };
        assert!(matches!(exprs[..], [PhysExpr::Column(0), PhysExpr::Column(1)]));
        let LogicalPlan::Project { input: gather, exprs, .. } = *input else { panic!() };
        assert!(matches!(exprs[..], [PhysExpr::Column(1), PhysExpr::Column(3)]));
        let LogicalPlan::Join { left, right, on, schema, .. } = *gather else { panic!() };
        assert_eq!(on, vec![(0, 0)]);
        assert_eq!(schema.len(), 4);
        assert_eq!(scan_projection(&left), Some(vec![0, 2]));
        assert_eq!(scan_projection(&right), Some(vec![0, 1]));
    }

    #[test]
    fn count_star_keeps_one_carrier_column_per_side() {
        // SELECT COUNT(*) FROM l CROSS JOIN r reads no column, but each
        // side must still deliver its row count.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(join(scan(3), scan(2), JoinKind::Cross, vec![])),
            group: vec![],
            aggs: vec![AggCall {
                func: crate::logical::AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
            schema: Schema::new(vec![Field::new("n", DataType::Int)]),
        };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Aggregate { input, .. } = opt else { panic!() };
        let LogicalPlan::Project { input: gather, exprs, .. } = *input else { panic!() };
        assert_eq!(exprs.len(), 1);
        let LogicalPlan::Join { left, right, .. } = *gather else { panic!() };
        assert_eq!(scan_projection(&left), Some(vec![0]));
        assert_eq!(scan_projection(&right), Some(vec![0]));
    }

    #[test]
    fn union_inputs_keep_the_same_positions() {
        // A filter keeps its predicate column below the union; a gather
        // Project drops it again so both inputs line up.
        let filtered = LogicalPlan::Filter {
            input: Box::new(scan(3)),
            predicate: PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(2)),
                op: BinaryOp::Eq,
                right: Box::new(PhysExpr::Column(1)),
            },
        };
        let union = LogicalPlan::UnionAll {
            inputs: vec![filtered, scan(3)],
            schema: Schema::new(
                (0..3).map(|i| Field::new(format!("u{i}"), DataType::Int)).collect(),
            ),
        };
        let plan = LogicalPlan::Project {
            input: Box::new(union),
            exprs: vec![PhysExpr::Column(1)],
            schema: Schema::new(vec![Field::new("a", DataType::Int)]),
        };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Project { input, .. } = opt else { panic!() };
        let LogicalPlan::UnionAll { inputs, schema } = *input else { panic!() };
        assert_eq!(schema.len(), 1);
        assert!(inputs.iter().all(|i| i.schema().len() == 1), "{inputs:?}");
    }

    #[test]
    fn reference_to_a_pruned_column_is_an_error() {
        // Column 1 was pruned: remapping must fail, not reuse the index.
        let map: ColumnMap = vec![Some(0), None, Some(1)];
        assert!(remap(PhysExpr::Column(2), &map).is_ok());
        assert!(matches!(remap(PhysExpr::Column(1), &map), Err(SqlError::Plan(_))));
        // A hand-built plan whose filter reads a column its scan lacks.
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(3)),
                predicate: PhysExpr::Binary {
                    left: Box::new(PhysExpr::Column(4)),
                    op: BinaryOp::Eq,
                    right: Box::new(PhysExpr::Column(0)),
                },
            }),
            exprs: vec![PhysExpr::Column(0)],
            schema: Schema::new(vec![Field::new("a", DataType::Int)]),
        };
        assert!(matches!(optimize(plan), Err(SqlError::Plan(_))));
    }

    #[test]
    fn filter_pushdown_through_inner_join() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(2)),
            right: Box::new(scan(2)),
            kind: JoinKind::Inner,
            on: vec![(0, 0)],
            filter: None,
            schema: Schema::new(
                (0..4).map(|i| Field::new(format!("c{i}"), DataType::Int)).collect(),
            ),
        };
        // c3 > 1 references only the right side (indices 2,3).
        let plan =
            LogicalPlan::Filter { input: Box::new(join), predicate: cmp(3, BinaryOp::Gt, 1) };
        let opt = optimize(plan).unwrap();
        let LogicalPlan::Join { right, .. } = opt else {
            panic!("expected join at root");
        };
        let LogicalPlan::Scan { predicates, .. } = *right else {
            panic!("expected scan with sunk predicate");
        };
        assert_eq!(predicates.len(), 1);
        assert_eq!(predicates[0].column, 1); // shifted by left width
    }

    #[test]
    fn left_join_filter_not_pushed() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            kind: JoinKind::Left,
            on: vec![(0, 0)],
            filter: None,
            schema: Schema::new(
                (0..2).map(|i| Field::new(format!("c{i}"), DataType::Int)).collect(),
            ),
        };
        let plan =
            LogicalPlan::Filter { input: Box::new(join), predicate: cmp(1, BinaryOp::Eq, 1) };
        let opt = optimize(plan).unwrap();
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }
}
