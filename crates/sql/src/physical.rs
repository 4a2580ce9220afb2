//! Vectorized physical execution of logical plans.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use vertexica_common::FxHashMap;
use vertexica_storage::{
    Bitmap, Catalog, Column, ColumnBuilder, DataType, RecordBatch, Schema, Value,
};

use crate::ast::JoinKind;
use crate::error::{SqlError, SqlResult};
use crate::expr::PhysExpr;
use crate::logical::{AggCall, AggFunc, LogicalPlan};

/// Execution context (catalog access).
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
}

/// Executes a logical plan to completion.
pub fn execute(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> SqlResult<Vec<RecordBatch>> {
    match plan {
        LogicalPlan::Scan { table, projection, predicates, .. } => {
            // Snapshot a cursor under the read lock, then decode with the
            // lock released — a long scan must not block writers.
            let mut cursor = {
                let t = ctx.catalog.get(table)?;
                let guard = t.read();
                guard.scan_cursor(projection.as_deref(), predicates)?
            };
            let mut out = Vec::new();
            while let Some(batch) = cursor.next_batch()? {
                out.push(batch);
            }
            Ok(out)
        }
        LogicalPlan::Values { schema, rows } => {
            Ok(vec![RecordBatch::from_rows(schema.clone(), rows)?])
        }
        LogicalPlan::Filter { input, predicate } => {
            let batches = execute(input, ctx)?;
            let mut out = Vec::with_capacity(batches.len());
            for batch in batches {
                if batch.num_rows() == 0 {
                    continue;
                }
                let sel = predicate.eval_predicate(&batch)?;
                if sel.all() {
                    out.push(batch);
                } else if sel.any() {
                    out.push(batch.filter(&sel)?);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs, schema } => {
            // Late materialization for filter → project: evaluate the
            // predicate on the undisturbed batch, then gather only the
            // columns the projection actually reads through the selection
            // vector. Unreferenced columns never pay the row-shuffle.
            if let LogicalPlan::Filter { input: finput, predicate } = input.as_ref() {
                let batches = execute(finput, ctx)?;
                let mut referenced: Vec<usize> = Vec::new();
                for e in exprs {
                    crate::optimizer::collect_columns(e, &mut referenced);
                }
                referenced.sort_unstable();
                referenced.dedup();
                let mut out = Vec::with_capacity(batches.len().max(1));
                for batch in &batches {
                    if batch.num_rows() == 0 {
                        continue;
                    }
                    let sel = predicate.eval_predicate(batch)?;
                    if !sel.any() {
                        continue;
                    }
                    let selected = if sel.all() {
                        batch.clone()
                    } else {
                        gather_selected(batch, &sel, &referenced)?
                    };
                    out.push(project_batch(&selected, exprs, schema)?);
                }
                if out.is_empty() {
                    out.push(RecordBatch::empty(schema.clone()));
                }
                return Ok(out);
            }
            // A column-only projection over a join is the join's output
            // list (the optimizer puts one there to drop columns read only
            // by ON): gather just those columns from the matched row pairs.
            if let LogicalPlan::Join { .. } = input.as_ref() {
                let gathered: Option<Vec<usize>> = exprs
                    .iter()
                    .map(|e| match e {
                        PhysExpr::Column(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if let Some(cols) = gathered {
                    return Ok(vec![execute_join(input, JoinOut { cols: &cols, schema }, ctx)?]);
                }
            }
            let batches = execute(input, ctx)?;
            let mut out = Vec::with_capacity(batches.len().max(1));
            for batch in &batches {
                out.push(project_batch(batch, exprs, schema)?);
            }
            if out.is_empty() {
                out.push(RecordBatch::empty(schema.clone()));
            }
            Ok(out)
        }
        LogicalPlan::Join { schema, .. } => {
            let all: Vec<usize> = (0..schema.len()).collect();
            Ok(vec![execute_join(plan, JoinOut { cols: &all, schema }, ctx)?])
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let batches = execute(input, ctx)?;
            hash_aggregate(&batches, input.schema(), group, aggs, schema)
        }
        LogicalPlan::Sort { input, keys } => {
            let batches = execute(input, ctx)?;
            let merged = RecordBatch::concat(input.schema(), &batches)?;
            if merged.num_rows() == 0 {
                return Ok(vec![merged]);
            }
            let mut key_cols = Vec::with_capacity(keys.len());
            for (e, asc) in keys {
                key_cols.push((e.eval(&merged)?, *asc));
            }
            let mut indices: Vec<usize> = (0..merged.num_rows()).collect();
            indices.sort_by(|&a, &b| {
                for (col, asc) in &key_cols {
                    let ord = col.value(a).total_cmp(&col.value(b));
                    if !ord.is_eq() {
                        return if *asc { ord } else { ord.reverse() };
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(vec![merged.take(&indices)?])
        }
        LogicalPlan::Limit { input, n } => {
            let batches = execute(input, ctx)?;
            let mut remaining = *n as usize;
            let mut out = Vec::new();
            for batch in batches {
                if remaining == 0 {
                    break;
                }
                if batch.num_rows() <= remaining {
                    remaining -= batch.num_rows();
                    out.push(batch);
                } else {
                    let idx: Vec<usize> = (0..remaining).collect();
                    out.push(batch.take(&idx)?);
                    remaining = 0;
                }
            }
            Ok(out)
        }
        LogicalPlan::UnionAll { inputs, schema } => {
            let mut out = Vec::new();
            for input in inputs {
                for batch in execute(input, ctx)? {
                    // Re-stamp with the union schema (names/nullability may
                    // differ per branch; types are already harmonized).
                    out.push(RecordBatch::new(schema.clone(), batch.columns().to_vec())?);
                }
            }
            Ok(out)
        }
        LogicalPlan::Distinct { input } => {
            let batches = execute(input, ctx)?;
            let merged = RecordBatch::concat(input.schema(), &batches)?;
            let mut seen: FxHashMap<GroupKey, ()> = FxHashMap::default();
            let mut keep = Vec::new();
            for i in 0..merged.num_rows() {
                let key = GroupKey(merged.row(i));
                if let Entry::Vacant(e) = seen.entry(key) {
                    e.insert(());
                    keep.push(i);
                }
            }
            Ok(vec![merged.take(&keep)?])
        }
    }
}

/// Gathers only `referenced` (sorted, deduped) columns through the selection
/// vector; every other slot gets a same-length placeholder of the right
/// dtype. The fused projection never reads the placeholders — they exist
/// only so column indices keep lining up with the input schema.
fn gather_selected(
    batch: &RecordBatch,
    sel: &vertexica_storage::Bitmap,
    referenced: &[usize],
) -> SqlResult<RecordBatch> {
    use vertexica_storage::{BlobData, ColumnData};
    let k = sel.count_ones();
    let mut cols = Vec::with_capacity(batch.num_columns());
    for i in 0..batch.num_columns() {
        if referenced.binary_search(&i).is_ok() {
            cols.push(batch.column(i).filter(sel));
        } else {
            let data = match batch.schema().fields[i].dtype {
                DataType::Bool => ColumnData::Bool(vec![false; k]),
                DataType::Int => ColumnData::Int(vec![0; k]),
                DataType::Float => ColumnData::Float(vec![0.0; k]),
                DataType::Str => ColumnData::Str(vec![String::new(); k]),
                DataType::Blob => ColumnData::Blob(BlobData::empty_cells(k)),
            };
            cols.push(Column::new(data, None));
        }
    }
    RecordBatch::new(batch.schema().clone(), cols).map_err(Into::into)
}

/// Evaluates projection expressions over a batch, coercing to the output
/// schema where needed.
fn project_batch(
    batch: &RecordBatch,
    exprs: &[PhysExpr],
    schema: &Arc<Schema>,
) -> SqlResult<RecordBatch> {
    let mut cols = Vec::with_capacity(exprs.len());
    for (e, f) in exprs.iter().zip(&schema.fields) {
        let c = e.eval(batch)?;
        cols.push(coerce_column(c, f.dtype)?);
    }
    RecordBatch::new(schema.clone(), cols).map_err(Into::into)
}

/// Coerces a column to a target type (no-op when already matching).
pub fn coerce_column(col: Column, dtype: DataType) -> SqlResult<Column> {
    if col.dtype() == dtype {
        return Ok(col);
    }
    let mut b = ColumnBuilder::with_capacity(dtype, col.len());
    for i in 0..col.len() {
        b.push(col.value(i)).map_err(SqlError::from)?;
    }
    Ok(b.finish())
}

/// A hashable row key for grouping/distinct (floats hash by bits, NULLs are
/// equal to each other — SQL GROUP BY semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupKey(pub Vec<Value>);

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Null => 0u8.hash(state),
                Value::Bool(b) => {
                    1u8.hash(state);
                    b.hash(state);
                }
                Value::Int(i) => {
                    2u8.hash(state);
                    i.hash(state);
                }
                Value::Float(f) => {
                    3u8.hash(state);
                    // Canonicalize NaN so all NaNs group together.
                    let bits = if f.is_nan() { f64::NAN.to_bits() } else { f.to_bits() };
                    bits.hash(state);
                }
                Value::Str(s) => {
                    4u8.hash(state);
                    s.hash(state);
                }
                Value::Blob(b) => {
                    5u8.hash(state);
                    b.hash(state);
                }
            }
        }
    }
}

// ---- joins ----

/// A hashed equi-join **build side**, reusable across any number of probe
/// batches — the engine's streaming-join primitive. The build batch is
/// hashed exactly once; probes then stream through
/// [`JoinBuild::probe_pairs`] / [`JoinBuild::probe_matches`] one batch at a
/// time, so a pull-based scan can feed the probe side without ever
/// materializing it (see `Database::stream_hash_join`). The eager
/// [`LogicalPlan::Join`] executor is a single-probe-batch special case of
/// the same kernels.
///
/// Three key strategies, chosen by the build keys' **declared types** (not
/// by the accident of whether this batch happens to contain a NULL):
///
/// * single BIGINT key — `FxHashMap<i64, _>`, the vertex-id join shape;
/// * composite `(BIGINT, BIGINT)` key — edge-identity joins;
/// * generic dynamic-`Value` keys with scratch-buffer reuse.
///
/// **NULL keys never match, on every strategy** (SQL equi-join semantics):
/// build rows with a NULL key column are never inserted, and probe rows
/// with a NULL key match nothing (null-extending under outer joins). The
/// typed fast paths check per-row validity — a nullable BIGINT key column
/// stays on the fast path instead of silently matching NULL = NULL or
/// falling back to the slow generic path.
pub struct JoinBuild {
    batch: RecordBatch,
    keys: Vec<usize>,
    map: KeyMap,
}

enum KeyMap {
    /// Single BIGINT key (vertex-id joins).
    Int(FxHashMap<i64, Vec<usize>>),
    /// Composite two-column BIGINT key ((src, dst) edge identity).
    Int2(FxHashMap<(i64, i64), Vec<usize>>),
    /// Dynamic-value keys, scratch-buffer reuse: a fresh `Vec<Value>` is
    /// only allocated when a *distinct* build key enters the table.
    Generic(FxHashMap<GroupKey, Vec<usize>>),
}

/// True when every named key column of `batch` is BIGINT — the typed
/// fast-path shape. Nullability does not matter: the kernels skip NULL keys
/// per row.
fn int_typed(batch: &RecordBatch, keys: &[usize]) -> bool {
    keys.iter().all(|&c| batch.column(c).dtype() == DataType::Int)
}

/// `(raw data, validity)` per BIGINT key column.
fn int_key_data<'a>(
    batch: &'a RecordBatch,
    keys: &[usize],
) -> Option<Vec<(&'a [i64], Option<&'a Bitmap>)>> {
    keys.iter()
        .map(|&c| {
            let col = batch.column(c);
            col.as_int().map(|v| (v, col.validity()))
        })
        .collect()
}

#[inline]
fn row_valid(validity: Option<&Bitmap>, i: usize) -> bool {
    validity.is_none_or(|b| b.get(i))
}

impl JoinBuild {
    /// Hashes `batch` on `key_columns`, picking the typed fast path when
    /// every key column is BIGINT.
    pub fn new(batch: RecordBatch, key_columns: Vec<usize>) -> Self {
        let force_generic = !(int_typed(&batch, &key_columns) && key_columns.len() <= 2);
        Self::with_strategy(batch, key_columns, force_generic)
    }

    /// Like [`JoinBuild::new`] but lets the caller force the generic key
    /// strategy — needed when the *probe* side's key types are known not to
    /// be BIGINT, so typed build keys could never be compared against them.
    fn with_strategy(batch: RecordBatch, key_columns: Vec<usize>, force_generic: bool) -> Self {
        let n = batch.num_rows();
        let map = if !force_generic && key_columns.len() == 1 {
            let cols = int_key_data(&batch, &key_columns).expect("int-typed key checked");
            let (k0, v0) = cols[0];
            let mut table: FxHashMap<i64, Vec<usize>> = FxHashMap::default();
            table.reserve(n);
            for (i, &k) in k0.iter().enumerate() {
                if row_valid(v0, i) {
                    table.entry(k).or_default().push(i);
                }
            }
            KeyMap::Int(table)
        } else if !force_generic && key_columns.len() == 2 {
            let cols = int_key_data(&batch, &key_columns).expect("int-typed keys checked");
            let ((k0, v0), (k1, v1)) = (cols[0], cols[1]);
            let mut table: FxHashMap<(i64, i64), Vec<usize>> = FxHashMap::default();
            table.reserve(n);
            for i in 0..n {
                if row_valid(v0, i) && row_valid(v1, i) {
                    table.entry((k0[i], k1[i])).or_default().push(i);
                }
            }
            KeyMap::Int2(table)
        } else {
            let mut table: FxHashMap<GroupKey, Vec<usize>> = FxHashMap::default();
            let mut scratch: Vec<Value> = Vec::with_capacity(key_columns.len());
            for i in 0..n {
                scratch.clear();
                scratch.extend(key_columns.iter().map(|&c| batch.column(c).value(i)));
                if scratch.iter().any(|v| v.is_null()) {
                    continue; // NULL keys never match.
                }
                let key = GroupKey(std::mem::take(&mut scratch));
                match table.get_mut(&key) {
                    Some(rows) => {
                        rows.push(i);
                        scratch = key.0; // recover the buffer
                    }
                    None => {
                        table.insert(key, vec![i]);
                        scratch = Vec::with_capacity(key_columns.len());
                    }
                }
            }
            KeyMap::Generic(table)
        };
        JoinBuild { batch, keys: key_columns, map }
    }

    /// The hashed build-side batch.
    pub fn batch(&self) -> &RecordBatch {
        &self.batch
    }

    /// The build-side key columns this table was hashed on.
    pub fn key_columns(&self) -> &[usize] {
        &self.keys
    }

    /// Rows in the build side (including NULL-key rows, which match nothing).
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }

    /// Streams every probe row's build-side match list to `f`. NULL probe
    /// keys (and unmatched keys) yield an empty slice.
    fn for_each_probe_row(
        &self,
        probe: &RecordBatch,
        probe_keys: &[usize],
        mut f: impl FnMut(usize, &[usize]),
    ) -> SqlResult<()> {
        if probe_keys.len() != self.keys.len() {
            return Err(SqlError::Execution(format!(
                "join probe key arity {} does not match build arity {}",
                probe_keys.len(),
                self.keys.len()
            )));
        }
        let n = probe.num_rows();
        match &self.map {
            KeyMap::Int(table) => {
                let cols = int_key_data(probe, probe_keys).ok_or_else(|| {
                    SqlError::Execution("BIGINT-keyed join probed with non-BIGINT key".into())
                })?;
                let (k0, v0) = cols[0];
                for (i, k) in k0.iter().enumerate() {
                    let matches: &[usize] = if row_valid(v0, i) {
                        table.get(k).map(Vec::as_slice).unwrap_or(&[])
                    } else {
                        &[]
                    };
                    f(i, matches);
                }
            }
            KeyMap::Int2(table) => {
                let cols = int_key_data(probe, probe_keys).ok_or_else(|| {
                    SqlError::Execution("BIGINT-keyed join probed with non-BIGINT key".into())
                })?;
                let ((k0, v0), (k1, v1)) = (cols[0], cols[1]);
                for i in 0..n {
                    let matches: &[usize] = if row_valid(v0, i) && row_valid(v1, i) {
                        table.get(&(k0[i], k1[i])).map(Vec::as_slice).unwrap_or(&[])
                    } else {
                        &[]
                    };
                    f(i, matches);
                }
            }
            KeyMap::Generic(table) => {
                let mut scratch: Vec<Value> = Vec::with_capacity(probe_keys.len());
                for i in 0..n {
                    scratch.clear();
                    scratch.extend(probe_keys.iter().map(|&c| probe.column(c).value(i)));
                    if scratch.iter().any(|v| v.is_null()) {
                        f(i, &[]);
                        continue;
                    }
                    let key = GroupKey(std::mem::take(&mut scratch));
                    f(i, table.get(&key).map(Vec::as_slice).unwrap_or(&[]));
                    scratch = key.0; // probe lookups never surrender the buffer
                }
            }
        }
        Ok(())
    }

    /// Probes one batch, producing `(probe_row, Some(build_row))` per match;
    /// with `outer`, unmatched (or NULL-key) probe rows yield
    /// `(probe_row, None)` exactly once.
    pub fn probe_pairs(
        &self,
        probe: &RecordBatch,
        probe_keys: &[usize],
        outer: bool,
    ) -> SqlResult<Vec<(usize, Option<usize>)>> {
        let mut pairs: Vec<(usize, Option<usize>)> = Vec::with_capacity(probe.num_rows());
        self.for_each_probe_row(probe, probe_keys, |i, matches| {
            if matches.is_empty() {
                if outer {
                    pairs.push((i, None));
                }
            } else {
                pairs.extend(matches.iter().map(|&m| (i, Some(m))));
            }
        })?;
        Ok(pairs)
    }

    /// Probes one batch, returning each probe row's build-row match list
    /// (empty = no match or NULL key) — the shape multi-build compositions
    /// like the 3-way-join input re-shape consume.
    pub fn probe_matches(
        &self,
        probe: &RecordBatch,
        probe_keys: &[usize],
    ) -> SqlResult<Vec<Vec<usize>>> {
        let mut out: Vec<Vec<usize>> = Vec::with_capacity(probe.num_rows());
        self.for_each_probe_row(probe, probe_keys, |_, matches| out.push(matches.to_vec()))?;
        Ok(out)
    }
}

/// The columns a join emits: positions in its combined `[left, right]`
/// schema, and the schema of the emitted batch (one field per position).
#[derive(Clone, Copy)]
struct JoinOut<'a> {
    cols: &'a [usize],
    schema: &'a Arc<Schema>,
}

/// Executes a [`LogicalPlan::Join`], gathering only `out`'s columns from the
/// matched row pairs.
fn execute_join(
    join: &LogicalPlan,
    out: JoinOut<'_>,
    ctx: &ExecContext<'_>,
) -> SqlResult<RecordBatch> {
    let LogicalPlan::Join { left, right, kind, on, filter, schema } = join else {
        return Err(SqlError::Execution("join executor called on a non-join plan".into()));
    };
    let lbatch = RecordBatch::concat(left.schema(), &execute(left, ctx)?)?;
    let rbatch = RecordBatch::concat(right.schema(), &execute(right, ctx)?)?;
    let all: Vec<usize> = (0..schema.len()).collect();
    let residual = filter.as_ref().map(|f| (f, JoinOut { cols: &all, schema }));
    hash_join(&lbatch, &rbatch, *kind, on, residual, out)
}

/// Materializes one streaming-join step: probes `build` with `probe` and
/// builds the joined batch (probe columns, then build columns) under
/// `schema`. Used by `Database::stream_hash_join`; one probe batch in, one
/// joined batch out.
pub(crate) fn join_probe_batch(
    probe: &RecordBatch,
    build: &JoinBuild,
    probe_keys: &[usize],
    outer: bool,
    schema: &Arc<Schema>,
) -> SqlResult<RecordBatch> {
    let pairs = build.probe_pairs(probe, probe_keys, outer)?;
    let lr_pairs: Vec<(Option<usize>, Option<usize>)> =
        pairs.into_iter().map(|(p, b)| (Some(p), b)).collect();
    let all: Vec<usize> = (0..schema.len()).collect();
    let out = JoinOut { cols: &all, schema };
    materialize_join_lr(probe, build.batch(), &lr_pairs, None, out, outer, true)
}

/// Joins `left` and `right` on the `on` key pairs (a filtered cross product
/// when there are none), then applies the residual filter over the full
/// combined schema and gathers `out`.
fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<(&PhysExpr, JoinOut<'_>)>,
    out: JoinOut<'_>,
) -> SqlResult<RecordBatch> {
    let outer = matches!(kind, JoinKind::Left | JoinKind::Right);
    // RIGHT joins preserve (and so probe with) the right side.
    let probe_is_left = kind != JoinKind::Right;
    if on.is_empty() {
        let crossed = cross_join_indices(left.num_rows(), right.num_rows());
        return materialize_join_lr(left, right, &crossed, residual, out, outer, probe_is_left);
    }

    // Build side: the non-preserved side for outer joins.
    let (probe, build, probe_keys, build_keys) = if probe_is_left {
        let pk: Vec<usize> = on.iter().map(|(l, _)| *l).collect();
        let bk: Vec<usize> = on.iter().map(|(_, r)| *r).collect();
        (left, right, pk, bk)
    } else {
        let pk: Vec<usize> = on.iter().map(|(_, r)| *r).collect();
        let bk: Vec<usize> = on.iter().map(|(l, _)| *l).collect();
        (right, left, pk, bk)
    };

    // The typed fast paths require BIGINT keys on *both* sides (NULLs are
    // fine — the kernels skip them per row); otherwise hash dynamic values.
    let force_generic =
        !(int_typed(probe, &probe_keys) && int_typed(build, &build_keys) && probe_keys.len() <= 2);
    let hashed = JoinBuild::with_strategy(build.clone(), build_keys, force_generic);
    let pairs = hashed.probe_pairs(probe, &probe_keys, outer)?;

    // Map probe/build pairs back to (left, right) order.
    let lr_pairs: Vec<(Option<usize>, Option<usize>)> = pairs
        .into_iter()
        .map(|(p, b)| if probe_is_left { (Some(p), b) } else { (b, Some(p)) })
        .collect();
    materialize_join_lr(left, right, &lr_pairs, residual, out, outer, probe_is_left)
}

fn cross_join_indices(n_left: usize, n_right: usize) -> Vec<(Option<usize>, Option<usize>)> {
    let mut out = Vec::with_capacity(n_left * n_right);
    for l in 0..n_left {
        for r in 0..n_right {
            out.push((Some(l), Some(r)));
        }
    }
    out
}

/// Builds the output batch from matched (left,right) row pairs, applying the
/// residual ON filter. For outer joins, preserved-side rows whose matches all
/// fail the residual are re-emitted null-extended.
fn materialize_join_lr(
    left: &RecordBatch,
    right: &RecordBatch,
    pairs: &[(Option<usize>, Option<usize>)],
    residual: Option<(&PhysExpr, JoinOut<'_>)>,
    out: JoinOut<'_>,
    outer: bool,
    left_preserved: bool,
) -> SqlResult<RecordBatch> {
    let nl = left.num_columns();
    let build_batch =
        |pairs: &[(Option<usize>, Option<usize>)], out: JoinOut<'_>| -> SqlResult<RecordBatch> {
            let mut cols = Vec::with_capacity(out.cols.len());
            for (&ci, f) in out.cols.iter().zip(&out.schema.fields) {
                let (src, side_left) =
                    if ci < nl { (left.column(ci), true) } else { (right.column(ci - nl), false) };
                let pick = |pair: &(Option<usize>, Option<usize>)| {
                    if side_left {
                        pair.0
                    } else {
                        pair.1
                    }
                };
                let mut b = ColumnBuilder::with_capacity(f.dtype, pairs.len());
                // Typed fast paths for the hot column shapes (ids, weights).
                if src.validity().is_none() && f.dtype == src.dtype() {
                    if let Some(vals) = src.as_int() {
                        for pair in pairs {
                            match pick(pair) {
                                Some(i) => b.push_int(vals[i]),
                                None => b.push_null(),
                            }
                        }
                        cols.push(b.finish());
                        continue;
                    }
                    if let Some(vals) = src.as_float() {
                        for pair in pairs {
                            match pick(pair) {
                                Some(i) => b.push_float(vals[i]),
                                None => b.push_null(),
                            }
                        }
                        cols.push(b.finish());
                        continue;
                    }
                }
                for pair in pairs {
                    match pick(pair) {
                        Some(i) => b.push(src.value(i)).map_err(SqlError::from)?,
                        None => b.push_null(),
                    }
                }
                cols.push(b.finish());
            }
            RecordBatch::new(out.schema.clone(), cols).map_err(Into::into)
        };

    let Some((residual, combined)) = residual else {
        return build_batch(pairs, out);
    };

    // Evaluate the residual on the candidate rows (it may read columns the
    // output does not gather).
    let mask = residual.eval_predicate(&build_batch(pairs, combined)?)?;
    let mut kept: Vec<(Option<usize>, Option<usize>)> =
        pairs.iter().enumerate().filter(|&(idx, _)| mask.get(idx)).map(|(_, p)| *p).collect();
    if outer {
        // Preserved rows that matched on keys but failed every residual
        // check — and rows that were already unmatched — must appear
        // null-extended once.
        let survived: std::collections::HashSet<usize> =
            kept.iter().filter_map(|pair| if left_preserved { pair.0 } else { pair.1 }).collect();
        let mut emitted_null: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for pair in pairs {
            let (preserved_idx, other) =
                if left_preserved { (pair.0, pair.1) } else { (pair.1, pair.0) };
            let Some(i) = preserved_idx else { continue };
            let unmatched_pair = other.is_none();
            if (unmatched_pair || !survived.contains(&i)) && emitted_null.insert(i) {
                kept.push(if left_preserved { (Some(i), None) } else { (None, Some(i)) });
            }
        }
    }
    build_batch(&kept, out)
}

// ---- aggregation ----

enum Acc {
    Count(i64),
    CountDistinct(std::collections::HashSet<GroupKey>),
    SumInt { sum: i64, any: bool },
    SumFloat { sum: f64, any: bool },
    SumDistinct { seen: std::collections::HashSet<GroupKey>, is_float: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl Acc {
    fn new(call: &AggCall, arg_type: Option<DataType>) -> Acc {
        match call.func {
            AggFunc::CountStar => Acc::Count(0),
            AggFunc::Count => {
                if call.distinct {
                    Acc::CountDistinct(Default::default())
                } else {
                    Acc::Count(0)
                }
            }
            AggFunc::Sum => {
                if call.distinct {
                    Acc::SumDistinct {
                        seen: Default::default(),
                        is_float: arg_type == Some(DataType::Float),
                    }
                } else if arg_type == Some(DataType::Float) {
                    Acc::SumFloat { sum: 0.0, any: false }
                } else {
                    Acc::SumInt { sum: 0, any: false }
                }
            }
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: &Value) -> SqlResult<()> {
        match self {
            Acc::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Acc::CountDistinct(set) => {
                if !v.is_null() {
                    set.insert(GroupKey(vec![v.clone()]));
                }
            }
            Acc::SumInt { sum, any } => {
                if let Value::Int(x) = v {
                    *sum = sum.wrapping_add(*x);
                    *any = true;
                } else if !v.is_null() {
                    return Err(SqlError::Execution(format!("SUM over non-numeric {v}")));
                }
            }
            Acc::SumFloat { sum, any } => {
                if let Some(x) = v.as_float() {
                    *sum += x;
                    *any = true;
                } else if !v.is_null() {
                    return Err(SqlError::Execution(format!("SUM over non-numeric {v}")));
                }
            }
            Acc::SumDistinct { seen, .. } => {
                if !v.is_null() {
                    seen.insert(GroupKey(vec![v.clone()]));
                }
            }
            Acc::Min(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(x) = v.as_float() {
                    *sum += x;
                    *n += 1;
                } else if !v.is_null() {
                    return Err(SqlError::Execution(format!("AVG over non-numeric {v}")));
                }
            }
        }
        Ok(())
    }

    fn update_count_star(&mut self) {
        if let Acc::Count(n) = self {
            *n += 1;
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::CountDistinct(set) => Value::Int(set.len() as i64),
            Acc::SumInt { sum, any } => {
                if any {
                    Value::Int(sum)
                } else {
                    Value::Null
                }
            }
            Acc::SumFloat { sum, any } => {
                if any {
                    Value::Float(sum)
                } else {
                    Value::Null
                }
            }
            Acc::SumDistinct { seen, is_float } => {
                if seen.is_empty() {
                    Value::Null
                } else if is_float {
                    Value::Float(seen.iter().map(|k| k.0[0].as_float().unwrap_or(0.0)).sum())
                } else {
                    Value::Int(seen.iter().map(|k| k.0[0].as_int().unwrap_or(0)).sum())
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// One input batch with its pre-evaluated group-key and aggregate-argument
/// columns.
type EvaluatedBatch<'a> = (&'a RecordBatch, Vec<Column>, Vec<Option<Column>>);

fn hash_aggregate(
    batches: &[RecordBatch],
    input_schema: Arc<Schema>,
    group: &[PhysExpr],
    aggs: &[AggCall],
    out_schema: &Arc<Schema>,
) -> SqlResult<Vec<RecordBatch>> {
    let arg_types: Vec<Option<DataType>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| e.data_type(&input_schema)).transpose())
        .collect::<SqlResult<Vec<_>>>()?;
    let new_accs =
        || -> Vec<Acc> { aggs.iter().zip(&arg_types).map(|(a, t)| Acc::new(a, *t)).collect() };

    // Evaluate group keys and aggregate arguments for every batch up front so
    // the key-path decision (typed vs generic) is made once, globally.
    let mut evaluated: Vec<EvaluatedBatch<'_>> = Vec::new();
    for batch in batches {
        if batch.num_rows() == 0 {
            continue;
        }
        let group_cols: Vec<Column> =
            group.iter().map(|e| e.eval(batch)).collect::<SqlResult<Vec<_>>>()?;
        let arg_cols: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(batch)).transpose())
            .collect::<SqlResult<Vec<_>>>()?;
        evaluated.push((batch, group_cols, arg_cols));
    }

    let mut order: Vec<GroupKey> = Vec::new();
    let mut acc_table: Vec<Vec<Acc>> = Vec::new();

    // Fast path for a single BIGINT group key with no nulls anywhere (the
    // vertex-id shape): avoids the per-row `Vec<Value>` key allocation.
    let int_fast = group.len() == 1
        && evaluated.iter().all(|(_, g, _)| g[0].validity().is_none() && g[0].as_int().is_some());
    if int_fast {
        let mut int_groups: FxHashMap<i64, usize> = FxHashMap::default();
        for (batch, group_cols, arg_cols) in &evaluated {
            let keys = group_cols[0].as_int().expect("checked int");
            for (row, &key) in keys.iter().enumerate().take(batch.num_rows()) {
                let slot = match int_groups.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let idx = acc_table.len();
                        e.insert(idx);
                        order.push(GroupKey(vec![Value::Int(key)]));
                        acc_table.push(new_accs());
                        idx
                    }
                };
                for (acc, arg) in acc_table[slot].iter_mut().zip(arg_cols) {
                    match arg {
                        Some(col) => acc.update(&col.value(row))?,
                        None => acc.update_count_star(),
                    }
                }
            }
        }
    } else {
        let mut groups: FxHashMap<GroupKey, usize> = FxHashMap::default();
        for (batch, group_cols, arg_cols) in &evaluated {
            for row in 0..batch.num_rows() {
                let key = GroupKey(group_cols.iter().map(|c| c.value(row)).collect());
                let slot = match groups.entry(key.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let idx = acc_table.len();
                        e.insert(idx);
                        order.push(key);
                        acc_table.push(new_accs());
                        idx
                    }
                };
                for (acc, arg) in acc_table[slot].iter_mut().zip(arg_cols) {
                    match arg {
                        Some(col) => acc.update(&col.value(row))?,
                        None => acc.update_count_star(),
                    }
                }
            }
        }
    }

    // Global aggregate over empty input still yields one row.
    if group.is_empty() && order.is_empty() {
        order.push(GroupKey(vec![]));
        acc_table.push(new_accs());
    }

    let mut builders: Vec<ColumnBuilder> = out_schema
        .fields
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.dtype, order.len()))
        .collect();
    for (key, accs) in order.into_iter().zip(acc_table) {
        for (i, v) in key.0.iter().enumerate() {
            builders[i].push(v.clone()).map_err(SqlError::from)?;
        }
        for (j, acc) in accs.into_iter().enumerate() {
            builders[group.len() + j].push(acc.finish()).map_err(SqlError::from)?;
        }
    }
    let cols: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
    Ok(vec![RecordBatch::new(out_schema.clone(), cols)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_storage::{Field, TableOptions};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let edge = cat
            .create_table(
                "edge",
                Schema::new(vec![
                    Field::not_null("src", DataType::Int),
                    Field::not_null("dst", DataType::Int),
                    Field::new("weight", DataType::Float),
                ]),
                TableOptions::default(),
            )
            .unwrap();
        let mut t = edge.write();
        for (s, d, w) in [(0i64, 1i64, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0), (2, 3, 5.0)] {
            t.insert_row(vec![Value::Int(s), Value::Int(d), Value::Float(w)]).unwrap();
        }
        drop(t);
        cat
    }

    fn run(cat: &Catalog, plan: &LogicalPlan) -> Vec<Vec<Value>> {
        let ctx = ExecContext { catalog: cat };
        let batches = execute(plan, &ctx).unwrap();
        let mut rows = Vec::new();
        for b in batches {
            rows.extend(b.rows());
        }
        rows
    }

    fn scan(cat: &Catalog, name: &str) -> LogicalPlan {
        let schema = cat.get(name).unwrap().read().schema().clone();
        LogicalPlan::Scan { table: name.into(), schema, projection: None, predicates: vec![] }
    }

    #[test]
    fn scan_returns_all_rows() {
        let cat = setup();
        assert_eq!(run(&cat, &scan(&cat, "edge")).len(), 5);
    }

    #[test]
    fn filter_executes() {
        let cat = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&cat, "edge")),
            predicate: PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(0)),
                op: crate::ast::BinaryOp::Eq,
                right: Box::new(PhysExpr::lit(2i64)),
            },
        };
        let rows = run(&cat, &plan);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn inner_join_matches() {
        let cat = setup();
        // Self-join: e1.dst = e2.src (paths of length 2).
        let schema = Schema::new(
            ["src", "dst", "weight", "src2", "dst2", "weight2"]
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    Field::new(*n, if i % 3 == 2 { DataType::Float } else { DataType::Int })
                })
                .collect(),
        );
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&cat, "edge")),
            right: Box::new(scan(&cat, "edge")),
            kind: JoinKind::Inner,
            on: vec![(1, 0)],
            filter: None,
            schema,
        };
        let rows = run(&cat, &plan);
        // Count 2-paths by hand: edges (0,1),(0,2),(1,2),(2,0),(2,3)
        // dst=1 → src=1: (0,1)->(1,2) : 1
        // dst=2 → src=2: (0,2)->(2,0),(0,2)->(2,3),(1,2)->(2,0),(1,2)->(2,3) : 4
        // dst=0 → src=0: (2,0)->(0,1),(2,0)->(0,2) : 2
        // dst=3 → src=3: none
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn left_join_null_extends() {
        let cat = setup();
        // edge LEFT JOIN edge2 ON dst = src: dst=3 has no outgoing edges.
        let schema = Schema::new(
            (0..6)
                .map(|i| {
                    Field::new(
                        format!("c{i}"),
                        if i % 3 == 2 { DataType::Float } else { DataType::Int },
                    )
                })
                .collect(),
        );
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&cat, "edge")),
            right: Box::new(scan(&cat, "edge")),
            kind: JoinKind::Left,
            on: vec![(1, 0)],
            filter: None,
            schema,
        };
        let rows = run(&cat, &plan);
        assert_eq!(rows.len(), 8); // 7 matches + 1 null-extended for (2,3)
        let unmatched: Vec<_> = rows.iter().filter(|r| r[3].is_null()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][1], Value::Int(3));
    }

    #[test]
    fn aggregate_group_by() {
        let cat = setup();
        let out_schema = Schema::new(vec![
            Field::new("src", DataType::Int),
            Field::new("cnt", DataType::Int),
            Field::new("total", DataType::Float),
        ]);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan(&cat, "edge")),
            group: vec![PhysExpr::Column(0)],
            aggs: vec![
                AggCall { func: AggFunc::CountStar, arg: None, distinct: false },
                AggCall { func: AggFunc::Sum, arg: Some(PhysExpr::Column(2)), distinct: false },
            ],
            schema: out_schema,
        };
        let mut rows = run(&cat, &plan);
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(2), Value::Float(3.0)]);
        assert_eq!(rows[2], vec![Value::Int(2), Value::Int(2), Value::Float(9.0)]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let cat = Catalog::new();
        cat.create_table(
            "empty",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            TableOptions::default(),
        )
        .unwrap();
        let out_schema = Schema::new(vec![Field::new("count", DataType::Int)]);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan(&cat, "empty")),
            group: vec![],
            aggs: vec![AggCall { func: AggFunc::CountStar, arg: None, distinct: false }],
            schema: out_schema,
        };
        let rows = run(&cat, &plan);
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn sort_and_limit() {
        let cat = setup();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan(&cat, "edge")),
                keys: vec![(PhysExpr::Column(2), false)],
            }),
            n: 2,
        };
        let rows = run(&cat, &plan);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::Float(5.0));
        assert_eq!(rows[1][2], Value::Float(4.0));
    }

    #[test]
    fn distinct_dedups() {
        let cat = setup();
        let plan = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan(&cat, "edge")),
                exprs: vec![PhysExpr::Column(0)],
                schema: Schema::new(vec![Field::new("src", DataType::Int)]),
            }),
        };
        let rows = run(&cat, &plan);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn cross_join_counts() {
        let cat = setup();
        let schema = Schema::new(
            (0..6)
                .map(|i| {
                    Field::new(
                        format!("c{i}"),
                        if i % 3 == 2 { DataType::Float } else { DataType::Int },
                    )
                })
                .collect(),
        );
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&cat, "edge")),
            right: Box::new(scan(&cat, "edge")),
            kind: JoinKind::Cross,
            on: vec![],
            filter: None,
            schema,
        };
        assert_eq!(run(&cat, &plan).len(), 25);
    }

    #[test]
    fn group_key_nan_canonical() {
        use std::collections::HashSet;
        let mut s: HashSet<GroupKey> = HashSet::new();
        s.insert(GroupKey(vec![Value::Float(f64::NAN)]));
        s.insert(GroupKey(vec![Value::Float(f64::NAN)]));
        // PartialEq on NaN is false, but hashing is canonical; the set treats
        // them as distinct entries under Eq — acceptable for SQL since NaN
        // rarely appears in group keys; document via this test.
        assert!(!s.is_empty());
    }

    fn nullable_int_batch(name: &str, keys: &[Option<i64>]) -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new(name, DataType::Int),
            Field::not_null("tag", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| vec![k.map(Value::Int).unwrap_or(Value::Null), Value::Int(i as i64)])
            .collect();
        RecordBatch::from_rows(schema, &rows).unwrap()
    }

    /// The headline NULL-key regression: a nullable BIGINT join key must
    /// stay on the typed fast path *and* never match NULL = NULL (or a NULL
    /// slot's 0 sentinel against a real key 0). The old fast-path kernels
    /// had no per-row validity check — they were only safe behind an
    /// all-or-nothing `validity().is_none()` bail to the generic path, so
    /// putting nullable columns on the fast path (or reusing the kernels
    /// per probe batch, as the streaming join does) would have silently
    /// produced the 0-key cross matches this test pins. It fails if the
    /// per-row checks are removed.
    #[test]
    fn nullable_bigint_fast_path_skips_null_keys() {
        let build = nullable_int_batch("k", &[Some(1), None, Some(0), Some(0), Some(3)]);
        let probe = nullable_int_batch("k", &[Some(1), None, Some(0), Some(2)]);

        let fast = JoinBuild::new(build.clone(), vec![0]);
        assert!(
            matches!(fast.map, KeyMap::Int(_)),
            "nullable BIGINT keys must not evict the join from the typed fast path"
        );
        let generic = JoinBuild::with_strategy(build, vec![0], true);
        assert!(matches!(generic.map, KeyMap::Generic(_)));

        for outer in [false, true] {
            let f = fast.probe_pairs(&probe, &[0], outer).unwrap();
            let g = generic.probe_pairs(&probe, &[0], outer).unwrap();
            assert_eq!(f, g, "fast and generic paths diverged (outer={outer})");
            // key 1 → 1 match, key 0 → 2 matches; NULL and 2 match nothing.
            let matched = f.iter().filter(|(_, m)| m.is_some()).count();
            assert_eq!(matched, 3, "NULL keys must never match (outer={outer})");
            if outer {
                let null_extended: Vec<usize> =
                    f.iter().filter(|(_, m)| m.is_none()).map(|(i, _)| *i).collect();
                assert_eq!(null_extended, vec![1, 3], "NULL-key probe rows null-extend once");
            }
        }
    }

    /// Composite (BIGINT, BIGINT) keys: a NULL in *either* component kills
    /// the row on both build and probe sides, identically to generic.
    #[test]
    fn nullable_composite_bigint_fast_path_skips_null_keys() {
        let schema =
            Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Int)]);
        let mk = |rows: &[(Option<i64>, Option<i64>)]| {
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|(a, b)| {
                    vec![
                        a.map(Value::Int).unwrap_or(Value::Null),
                        b.map(Value::Int).unwrap_or(Value::Null),
                    ]
                })
                .collect();
            RecordBatch::from_rows(schema.clone(), &rows).unwrap()
        };
        let build = mk(&[(Some(0), Some(0)), (Some(0), None), (None, Some(0)), (Some(1), Some(2))]);
        let probe = mk(&[(Some(0), Some(0)), (None, None), (Some(0), None), (Some(1), Some(2))]);

        let fast = JoinBuild::new(build.clone(), vec![0, 1]);
        assert!(matches!(fast.map, KeyMap::Int2(_)));
        let generic = JoinBuild::with_strategy(build, vec![0, 1], true);
        for outer in [false, true] {
            let f = fast.probe_pairs(&probe, &[0, 1], outer).unwrap();
            let g = generic.probe_pairs(&probe, &[0, 1], outer).unwrap();
            assert_eq!(f, g, "composite fast path diverged from generic (outer={outer})");
            let matched = f.iter().filter(|(_, m)| m.is_some()).count();
            assert_eq!(matched, 2, "only the two fully-non-NULL keys match");
        }
    }

    #[test]
    fn join_build_probe_matches_lists_per_row() {
        let build = nullable_int_batch("k", &[Some(5), Some(5), None, Some(7)]);
        let jb = JoinBuild::new(build, vec![0]);
        let probe = nullable_int_batch("k", &[Some(5), Some(6), None, Some(7)]);
        let matches = jb.probe_matches(&probe, &[0]).unwrap();
        assert_eq!(matches, vec![vec![0, 1], vec![], vec![], vec![3]]);
        assert_eq!(jb.num_rows(), 4);
        assert_eq!(jb.key_columns(), &[0]);
    }

    #[test]
    fn right_join_preserves_right() {
        let cat = Catalog::new();
        let a = cat
            .create_table(
                "a",
                Schema::new(vec![Field::new("x", DataType::Int)]),
                TableOptions::default(),
            )
            .unwrap();
        a.write().insert_row(vec![Value::Int(1)]).unwrap();
        let b = cat
            .create_table(
                "b",
                Schema::new(vec![Field::new("y", DataType::Int)]),
                TableOptions::default(),
            )
            .unwrap();
        b.write().insert_row(vec![Value::Int(1)]).unwrap();
        b.write().insert_row(vec![Value::Int(2)]).unwrap();
        let schema =
            Schema::new(vec![Field::new("x", DataType::Int), Field::new("y", DataType::Int)]);
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&cat, "a")),
            right: Box::new(scan(&cat, "b")),
            kind: JoinKind::Right,
            on: vec![(0, 0)],
            filter: None,
            schema,
        };
        let mut rows = run(&cat, &plan);
        rows.sort_by(|p, q| p[1].total_cmp(&q[1]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(1)]);
        assert_eq!(rows[1], vec![Value::Null, Value::Int(2)]);
    }
}
