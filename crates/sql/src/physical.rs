//! Vectorized physical execution of logical plans.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use vertexica_common::{FxHashMap, FxHashSet};
use vertexica_storage::{
    Bitmap, BlobData, Catalog, Column, ColumnBuilder, ColumnData, DataType, RecordBatch, Schema,
    Value,
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
                    return execute_join(input, JoinOut { cols: &cols, schema }, ctx);
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
            execute_join(plan, JoinOut { cols: &all, schema }, ctx)
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
                Ordering::Equal
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
    sel: &Bitmap,
    referenced: &[usize],
) -> SqlResult<RecordBatch> {
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

/// The build row an unmatched probe row pairs with under an outer join: the
/// gather ([`take_or_null`]) emits NULL for it.
pub const NO_ROW: usize = usize::MAX;

/// A hashed equi-join **build side**, reusable across any number of probe
/// batches — the engine's streaming-join primitive. The build batch is
/// hashed exactly once; probes then stream through it one batch at a time
/// ([`JoinBuild::probe_matches`], and the join executor's index-vector
/// probe), so a pull-based scan can feed the probe side without ever
/// materializing it (the 3-way-join worker input in `core::input` does).
/// The [`LogicalPlan::Join`] executor probes it once per probe-side batch.
///
/// The table is CSR-shaped: a key map gives each distinct key a slot, and
/// slot `s`'s build rows are `rows[offsets[s]..offsets[s + 1]]`, filled in
/// build-row order — so every key's matches come out in build-row order,
/// with no per-key allocation. Three key maps, chosen by the build keys'
/// **declared types** (not by the accident of whether this batch happens to
/// contain a NULL):
///
/// * single BIGINT key — `FxHashMap<i64, _>`, the vertex-id join shape;
/// * composite `(BIGINT, BIGINT)` key — edge-identity joins;
/// * generic dynamic-`Value` keys, one boxed key per *distinct* key.
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
    offsets: Vec<usize>,
    rows: Vec<usize>,
}

/// Key → CSR slot.
enum KeyMap {
    /// Single BIGINT key (vertex-id joins).
    Int(FxHashMap<i64, usize>),
    /// Composite two-column BIGINT key ((src, dst) edge identity).
    Int2(FxHashMap<(i64, i64), usize>),
    /// Dynamic-value keys.
    Generic(FxHashMap<GroupKey, usize>),
}

/// True when every named key column of `batch` is BIGINT — the typed
/// fast-path shape. Nullability does not matter: the kernels skip NULL keys
/// per row.
fn int_typed(batch: &RecordBatch, keys: &[usize]) -> bool {
    keys.iter().all(|&c| batch.column(c).dtype() == DataType::Int)
}

/// A BIGINT column's `(raw data, validity)`.
fn int_data(col: &Column) -> Option<(&[i64], Option<&Bitmap>)> {
    col.as_int().map(|v| (v, col.validity()))
}

/// [`int_data`] per key column.
fn int_key_data<'a>(
    batch: &'a RecordBatch,
    keys: &[usize],
) -> Option<Vec<(&'a [i64], Option<&'a Bitmap>)>> {
    keys.iter().map(|&c| int_data(batch.column(c))).collect()
}

#[inline]
fn row_valid(validity: Option<&Bitmap>, i: usize) -> bool {
    validity.is_none_or(|b| b.get(i))
}

/// The slot of `key`, numbering unseen keys in first-seen order.
#[inline]
fn slot_of<K: Eq + Hash>(table: &mut FxHashMap<K, usize>, key: K) -> usize {
    let next = table.len();
    *table.entry(key).or_insert(next)
}

/// Each row's dynamic key, or `None` when a key column is NULL.
/// `scratch` is reused across rows.
fn generic_key(
    batch: &RecordBatch,
    keys: &[usize],
    i: usize,
    scratch: &mut Vec<Value>,
) -> Option<GroupKey> {
    scratch.clear();
    scratch.extend(keys.iter().map(|&c| batch.column(c).value(i)));
    if scratch.iter().any(Value::is_null) {
        return None;
    }
    Some(GroupKey(std::mem::take(scratch)))
}

impl JoinBuild {
    /// Hashes `batch` on `key_columns`, picking the typed fast path when
    /// every key column is BIGINT.
    pub fn new(batch: RecordBatch, key_columns: Vec<usize>) -> Self {
        let force_generic = !int_typed(&batch, &key_columns);
        Self::with_strategy(batch, key_columns, force_generic)
    }

    /// Like [`JoinBuild::new`] but lets the caller force the generic key
    /// strategy — needed when the *probe* side's key types are known not to
    /// be BIGINT, so typed build keys could never be compared against them.
    fn with_strategy(batch: RecordBatch, key_columns: Vec<usize>, force_generic: bool) -> Self {
        let n = batch.num_rows();
        // Each build row's slot (`NO_ROW` for a NULL key).
        let mut row_slot: Vec<usize> = Vec::with_capacity(n);
        let typed = if force_generic { None } else { int_key_data(&batch, &key_columns) };
        let map = match typed.as_deref() {
            Some(&[(k0, v0)]) => {
                let mut table = FxHashMap::default();
                table.reserve(n);
                for (i, &k) in k0.iter().enumerate() {
                    row_slot.push(if row_valid(v0, i) { slot_of(&mut table, k) } else { NO_ROW });
                }
                KeyMap::Int(table)
            }
            Some(&[(k0, v0), (k1, v1)]) => {
                let mut table = FxHashMap::default();
                table.reserve(n);
                for i in 0..n {
                    let valid = row_valid(v0, i) && row_valid(v1, i);
                    row_slot.push(if valid { slot_of(&mut table, (k0[i], k1[i])) } else { NO_ROW });
                }
                KeyMap::Int2(table)
            }
            _ => {
                let mut table = FxHashMap::default();
                let mut scratch = Vec::with_capacity(key_columns.len());
                for i in 0..n {
                    let slot = match generic_key(&batch, &key_columns, i, &mut scratch) {
                        None => NO_ROW,
                        Some(key) => match table.get(&key) {
                            Some(&s) => {
                                scratch = key.0; // recover the buffer
                                s
                            }
                            None => {
                                let s = table.len();
                                table.insert(key, s);
                                s
                            }
                        },
                    };
                    row_slot.push(slot);
                }
                KeyMap::Generic(table)
            }
        };
        let slots = match &map {
            KeyMap::Int(t) => t.len(),
            KeyMap::Int2(t) => t.len(),
            KeyMap::Generic(t) => t.len(),
        };
        // Counting sort of the build rows by slot; a stable fill keeps each
        // slot's rows in build-row order.
        let mut offsets = vec![0usize; slots + 1];
        for &s in row_slot.iter().filter(|&&s| s != NO_ROW) {
            offsets[s + 1] += 1;
        }
        for s in 0..slots {
            offsets[s + 1] += offsets[s];
        }
        let mut fill = offsets[..slots].to_vec();
        let mut rows = vec![0usize; offsets[slots]];
        for (i, &s) in row_slot.iter().enumerate().filter(|&(_, &s)| s != NO_ROW) {
            rows[fill[s]] = i;
            fill[s] += 1;
        }
        JoinBuild { batch, keys: key_columns, map, offsets, rows }
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

    /// The build rows of `slot`, in build-row order (empty for `None`).
    #[inline]
    fn rows_of(&self, slot: Option<&usize>) -> &[usize] {
        slot.map_or(&[], |&s| &self.rows[self.offsets[s]..self.offsets[s + 1]])
    }

    /// Streams every probe row's build-side match list to `f`. NULL probe
    /// keys (and unmatched keys) yield an empty slice.
    fn for_each_probe_row<'s>(
        &'s self,
        probe: &RecordBatch,
        probe_keys: &[usize],
        mut f: impl FnMut(usize, &'s [usize]),
    ) -> SqlResult<()> {
        if probe_keys.len() != self.keys.len() {
            return Err(SqlError::Execution(format!(
                "join probe key arity {} does not match build arity {}",
                probe_keys.len(),
                self.keys.len()
            )));
        }
        let typed = || {
            int_key_data(probe, probe_keys).ok_or_else(|| {
                SqlError::Execution("BIGINT-keyed join probed with non-BIGINT key".into())
            })
        };
        match &self.map {
            KeyMap::Int(table) => {
                let cols = typed()?;
                let (k0, v0) = cols[0];
                for (i, k) in k0.iter().enumerate() {
                    let slot = if row_valid(v0, i) { table.get(k) } else { None };
                    f(i, self.rows_of(slot));
                }
            }
            KeyMap::Int2(table) => {
                let cols = typed()?;
                let ((k0, v0), (k1, v1)) = (cols[0], cols[1]);
                for i in 0..probe.num_rows() {
                    let valid = row_valid(v0, i) && row_valid(v1, i);
                    let slot = if valid { table.get(&(k0[i], k1[i])) } else { None };
                    f(i, self.rows_of(slot));
                }
            }
            KeyMap::Generic(table) => {
                let mut scratch: Vec<Value> = Vec::with_capacity(probe_keys.len());
                for i in 0..probe.num_rows() {
                    match generic_key(probe, probe_keys, i, &mut scratch) {
                        None => f(i, &[]),
                        Some(key) => {
                            f(i, self.rows_of(table.get(&key)));
                            scratch = key.0; // probe lookups never surrender the buffer
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Probes one batch: the matched `(probe row, build row)` pairs, probe
    /// row by probe row and each row's matches in build-row order; with
    /// `outer`, an unmatched (or NULL-key) probe row pairs with [`NO_ROW`]
    /// exactly once, in its place.
    fn probe(
        &self,
        probe: &RecordBatch,
        probe_keys: &[usize],
        outer: bool,
    ) -> SqlResult<JoinIndices> {
        let mut out = JoinIndices::with_capacity(probe.num_rows());
        self.for_each_probe_row(probe, probe_keys, |i, matches| {
            out.push_matches(i, matches, outer)
        })?;
        Ok(out)
    }

    /// Probes one batch, returning each probe row's build-row match list
    /// (empty = no match or NULL key), borrowed from the build table — the
    /// shape multi-build compositions like the 3-way-join input re-shape
    /// consume.
    pub fn probe_matches(
        &self,
        probe: &RecordBatch,
        probe_keys: &[usize],
    ) -> SqlResult<Vec<&[usize]>> {
        let mut out = Vec::with_capacity(probe.num_rows());
        self.for_each_probe_row(probe, probe_keys, |_, matches| out.push(matches))?;
        Ok(out)
    }
}

/// A join's row pairs as two index vectors: output row `j` is probe row
/// `probe[j]` with build row `build[j]` ([`NO_ROW`] null-extends it).
#[derive(Debug, PartialEq)]
struct JoinIndices {
    probe: Vec<usize>,
    build: Vec<usize>,
}

impl JoinIndices {
    fn with_capacity(n: usize) -> Self {
        JoinIndices { probe: Vec::with_capacity(n), build: Vec::with_capacity(n) }
    }

    fn push(&mut self, probe: usize, build: usize) {
        self.probe.push(probe);
        self.build.push(build);
    }

    /// The pairs whose `mask` bit is set (pairs come grouped by probe row,
    /// in probe-row order). With `outer`, each of the `n_probe` probe rows
    /// left without a pair pairs with [`NO_ROW`] once, in its place.
    fn keep(self, mask: &Bitmap, outer: bool, n_probe: usize) -> JoinIndices {
        let mut kept = JoinIndices::with_capacity(mask.count_ones());
        let mut j = 0;
        for p in 0..n_probe {
            let before = kept.probe.len();
            while j < self.probe.len() && self.probe[j] == p {
                if mask.get(j) {
                    kept.push(p, self.build[j]);
                }
                j += 1;
            }
            if outer && kept.probe.len() == before {
                kept.push(p, NO_ROW);
            }
        }
        kept
    }

    /// Probe row `p` with each of `matches`, or with [`NO_ROW`] when there
    /// are none and the join is `outer`.
    fn push_matches(&mut self, p: usize, matches: &[usize], outer: bool) {
        if matches.is_empty() {
            if outer {
                self.push(p, NO_ROW);
            }
        } else {
            self.probe.extend(std::iter::repeat_n(p, matches.len()));
            self.build.extend_from_slice(matches);
        }
    }
}

/// Gathers `col`'s rows at `indices`, typed; a [`NO_ROW`] index gathers a
/// NULL (the null-extended side of an outer join).
pub fn take_or_null(col: &Column, indices: &[usize]) -> Column {
    if !indices.contains(&NO_ROW) {
        return col.take(indices);
    }
    fn gather<T: Clone + Default>(v: &[T], indices: &[usize]) -> Vec<T> {
        indices.iter().map(|&i| if i == NO_ROW { T::default() } else { v[i].clone() }).collect()
    }
    let valid = col.validity();
    let validity =
        Bitmap::from_iter_bool(indices.iter().map(|&i| i != NO_ROW && row_valid(valid, i)));
    let data = if let Some(v) = col.as_int() {
        ColumnData::Int(gather(v, indices))
    } else if let Some(v) = col.as_float() {
        ColumnData::Float(gather(v, indices))
    } else if let Some(v) = col.as_bool() {
        ColumnData::Bool(gather(v, indices))
    } else if let Some(v) = col.as_str() {
        ColumnData::Str(gather(v, indices))
    } else {
        let mut cells = BlobData::with_capacity(indices.len(), 0);
        if let Some(v) = col.as_blob() {
            for &i in indices {
                cells.push(if i == NO_ROW { &[] } else { v.get(i) });
            }
        }
        ColumnData::Blob(cells)
    };
    Column::new(data, Some(validity))
}

/// The columns a join emits: positions in its combined `[left, right]`
/// schema, and the schema of the emitted batch (one field per position).
#[derive(Clone, Copy)]
struct JoinOut<'a> {
    cols: &'a [usize],
    schema: &'a Arc<Schema>,
}

/// Gathers `out`'s columns for the row pairs `(left[j], right[j])`.
fn gather_join(
    (left, left_idx): (&RecordBatch, &[usize]),
    (right, right_idx): (&RecordBatch, &[usize]),
    out: JoinOut<'_>,
) -> SqlResult<RecordBatch> {
    let nl = left.num_columns();
    let cols = out
        .cols
        .iter()
        .zip(&out.schema.fields)
        .map(|(&ci, f)| {
            let taken = if ci < nl {
                take_or_null(left.column(ci), left_idx)
            } else {
                take_or_null(right.column(ci - nl), right_idx)
            };
            coerce_column(taken, f.dtype)
        })
        .collect::<SqlResult<Vec<_>>>()?;
    RecordBatch::new(out.schema.clone(), cols).map_err(Into::into)
}

/// `batch` with each key column `keys[i]` whose `cast[i]` is set coerced to
/// FLOAT; `None` when no key needs it.
fn with_float_keys(
    batch: &RecordBatch,
    keys: &[usize],
    cast: &[bool],
) -> SqlResult<Option<RecordBatch>> {
    if !cast.contains(&true) {
        return Ok(None);
    }
    let mut fields = batch.schema().fields.clone();
    let mut cols = batch.columns().to_vec();
    for (&k, _) in keys.iter().zip(cast).filter(|&(_, &c)| c) {
        fields[k].dtype = DataType::Float;
        cols[k] = coerce_column(cols[k].clone(), DataType::Float)?;
    }
    Ok(Some(RecordBatch::new(Schema::new(fields), cols)?))
}

/// Executes a [`LogicalPlan::Join`], gathering only `out`'s columns: one
/// output batch per probe-side batch. Each probe batch's row pairs pass the
/// residual ON filter before the gather; for outer joins a preserved row
/// whose pairs all fail it is null-extended once, in place.
fn execute_join(
    join: &LogicalPlan,
    out: JoinOut<'_>,
    ctx: &ExecContext<'_>,
) -> SqlResult<Vec<RecordBatch>> {
    let LogicalPlan::Join { left, right, kind, on, filter, schema } = join else {
        return Err(SqlError::Execution("join executor called on a non-join plan".into()));
    };
    // RIGHT joins preserve (and so probe with) the right side; the build
    // side is the non-preserved side for outer joins.
    let probe_is_left = *kind != JoinKind::Right;
    let outer = matches!(kind, JoinKind::Left | JoinKind::Right);
    let (probe_plan, build_plan) = if probe_is_left { (left, right) } else { (right, left) };
    let (probe_keys, build_keys): (Vec<usize>, Vec<usize>) =
        on.iter().map(|&(l, r)| if probe_is_left { (l, r) } else { (r, l) }).unzip();
    let build = RecordBatch::concat(build_plan.schema(), &execute(build_plan, ctx)?)?;
    // The typed fast paths require BIGINT keys on *both* sides (NULLs are
    // fine — the kernels skip them per row); otherwise hash dynamic values.
    let probe_schema = probe_plan.schema();
    let probe_int = probe_keys.iter().all(|&k| probe_schema.fields[k].dtype == DataType::Int);
    // A BIGINT key equated with a FLOAT key compares as FLOAT, as the
    // comparison kernels promote: both sides hash that key FLOAT-typed.
    let float_keys: Vec<bool> = probe_keys
        .iter()
        .zip(&build_keys)
        .map(|(&p, &b)| {
            let pair = (probe_schema.fields[p].dtype, build.schema().fields[b].dtype);
            matches!(pair, (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int))
        })
        .collect();
    let hashed = if on.is_empty() {
        None
    } else {
        let force_generic = !(probe_int && int_typed(&build, &build_keys));
        let keyed = with_float_keys(&build, &build_keys, &float_keys)?;
        let keyed = keyed.unwrap_or_else(|| build.clone());
        Some(JoinBuild::with_strategy(keyed, build_keys, force_generic))
    };
    // Without equi-keys every probe row meets every build row.
    let every_build_row: Vec<usize> =
        if hashed.is_none() { (0..build.num_rows()).collect() } else { Vec::new() };
    let gather = |probe: &RecordBatch, pairs: &JoinIndices, out: JoinOut<'_>| {
        let probe_side = (probe, pairs.probe.as_slice());
        let build_side = (&build, pairs.build.as_slice());
        if probe_is_left {
            gather_join(probe_side, build_side, out)
        } else {
            gather_join(build_side, probe_side, out)
        }
    };
    let all: Vec<usize> = (0..schema.len()).collect();
    // With a residual, unmatched rows are null-extended after it.
    let extend = outer && filter.is_none();
    let mut batches = Vec::new();
    for probe in execute(probe_plan, ctx)? {
        let mut pairs = match &hashed {
            Some(hashed) => {
                let keyed = with_float_keys(&probe, &probe_keys, &float_keys)?;
                hashed.probe(keyed.as_ref().unwrap_or(&probe), &probe_keys, extend)?
            }
            None => {
                let mut pairs = JoinIndices::with_capacity(probe.num_rows() * build.num_rows());
                for p in 0..probe.num_rows() {
                    pairs.push_matches(p, &every_build_row, extend);
                }
                pairs
            }
        };
        if let Some(residual) = filter {
            // The residual may read columns the output does not gather.
            let candidates = gather(&probe, &pairs, JoinOut { cols: &all, schema })?;
            let mask = residual.eval_predicate(&candidates)?;
            pairs = pairs.keep(&mask, outer, probe.num_rows());
        }
        let joined = gather(&probe, &pairs, out)?;
        if joined.num_rows() > 0 {
            batches.push(joined);
        }
    }
    if batches.is_empty() {
        batches.push(RecordBatch::empty(out.schema.clone()));
    }
    Ok(batches)
}

// ---- aggregation ----

/// One group's boxed accumulator: the fold for argument types and DISTINCT
/// calls that no typed [`AggState`] arm covers.
#[derive(Clone)]
enum Acc {
    Count(i64),
    CountDistinct(FxHashSet<GroupKey>),
    SumInt {
        sum: i64,
        any: bool,
    },
    SumFloat {
        sum: f64,
        any: bool,
    },
    /// `SUM(DISTINCT x)` or, with `avg`, `AVG(DISTINCT x)`.
    SumDistinct {
        seen: FxHashSet<GroupKey>,
        order: Vec<Value>,
        is_float: bool,
        avg: bool,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        n: i64,
    },
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
            AggFunc::Sum | AggFunc::Avg if call.distinct => Acc::SumDistinct {
                seen: Default::default(),
                order: Vec::new(),
                is_float: arg_type == Some(DataType::Float),
                avg: call.func == AggFunc::Avg,
            },
            AggFunc::Sum => {
                if arg_type == Some(DataType::Float) {
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
            Acc::SumDistinct { seen, order, .. } => {
                if !v.is_null() && seen.insert(GroupKey(vec![v.clone()])) {
                    order.push(v.clone());
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
            // The distinct values are summed in first-seen order: a hash
            // set's iteration order would make a float sum vary run to run.
            Acc::SumDistinct { order, is_float, avg, .. } => {
                let float_sum = || order.iter().map(|v| v.as_float().unwrap_or(0.0)).sum::<f64>();
                if order.is_empty() {
                    Value::Null
                } else if avg {
                    Value::Float(float_sum() / order.len() as f64)
                } else if is_float {
                    Value::Float(float_sum())
                } else {
                    Value::Int(
                        order.iter().fold(0i64, |s, v| s.wrapping_add(v.as_int().unwrap_or(0))),
                    )
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

/// One aggregate's state for every group, in flat vectors indexed by group
/// slot. The typed arms fold typed column slices; each group folds its rows
/// in input order, so a float result is bitwise the boxed fold's.
enum AggState {
    /// `COUNT(*)` and `COUNT(col)` of any type: a count of non-NULL rows.
    Count(Vec<i64>),
    /// `SUM` (wrapping), `MIN` or `MAX` of BIGINT.
    Int(Fold<i64>),
    /// `SUM`, `MIN`, `MAX` or `AVG` of FLOAT (BIGINT widens for `SUM` of a
    /// FLOAT-typed argument and for `AVG`).
    Float(Fold<f64>),
    /// Everything else: one boxed accumulator per group, cloned from `init`.
    Boxed { init: Acc, accs: Vec<Acc> },
}

/// A typed `SUM` / `MIN` / `MAX` / `AVG`: each group's running value and
/// how many values it has folded (none: the result is NULL).
struct Fold<T> {
    func: AggFunc,
    acc: Vec<T>,
    n: Vec<i64>,
}

impl<T: Copy + Default> Fold<T> {
    fn new(func: AggFunc) -> Self {
        Fold { func, acc: Vec::new(), n: Vec::new() }
    }

    fn grow(&mut self, groups: usize) {
        self.acc.resize(groups, T::default());
        self.n.resize(groups, 0);
    }

    /// Folds `x`'s non-NULL rows: `add` for `SUM` and `AVG`, `cmp` for
    /// `MIN` and `MAX` (the first of equals stays).
    fn fold(
        &mut self,
        x: &[T],
        slots: Option<&[u32]>,
        validity: Option<&Bitmap>,
        add: impl Fn(T, T) -> T,
        cmp: impl Fn(&T, &T) -> Ordering,
    ) {
        let Fold { func, acc, n } = self;
        let want = match func {
            AggFunc::Min => Ordering::Less,
            AggFunc::Max => Ordering::Greater,
            _ => {
                return each_row(x.len(), slots, validity, |i, g| {
                    acc[g] = add(acc[g], x[i]);
                    n[g] += 1;
                })
            }
        };
        each_row(x.len(), slots, validity, |i, g| {
            if n[g] == 0 || cmp(&x[i], &acc[g]) == want {
                acc[g] = x[i];
            }
            n[g] += 1;
        });
    }

    /// The per-group values, NULL where a group folded none.
    fn validity(&self) -> Option<Bitmap> {
        Some(Bitmap::from_iter_bool(self.n.iter().map(|&k| k > 0)))
    }
}

/// Calls `f(row, slot)` for each of `n` rows whose argument is non-NULL;
/// `slots: None` puts every row in slot 0.
#[inline]
fn each_row(
    n: usize,
    slots: Option<&[u32]>,
    validity: Option<&Bitmap>,
    mut f: impl FnMut(usize, usize),
) {
    match slots {
        None => (0..n).filter(|&i| row_valid(validity, i)).for_each(|i| f(i, 0)),
        Some(slots) => {
            for (i, &s) in slots.iter().enumerate() {
                if row_valid(validity, i) {
                    f(i, s as usize);
                }
            }
        }
    }
}

impl AggState {
    /// The state for `call`: typed when every batch's argument column has a
    /// type its typed arm folds (`arg_types` lists them), boxed otherwise.
    fn new(call: &AggCall, arg_type: Option<DataType>, arg_types: &[DataType]) -> AggState {
        use DataType::{Float, Int};
        let all = |ok: &[DataType]| arg_types.iter().all(|t| ok.contains(t));
        let func = call.func;
        match func {
            AggFunc::CountStar => AggState::Count(Vec::new()),
            AggFunc::Count if !call.distinct => AggState::Count(Vec::new()),
            AggFunc::Sum | AggFunc::Avg if call.distinct => {
                AggState::Boxed { init: Acc::new(call, arg_type), accs: Vec::new() }
            }
            AggFunc::Sum if arg_type == Some(Float) && all(&[Float, Int]) => {
                AggState::Float(Fold::new(func))
            }
            AggFunc::Sum if arg_type != Some(Float) && all(&[Int]) => {
                AggState::Int(Fold::new(func))
            }
            AggFunc::Avg if all(&[Float, Int]) => AggState::Float(Fold::new(func)),
            AggFunc::Min | AggFunc::Max if all(&[Int]) => AggState::Int(Fold::new(func)),
            AggFunc::Min | AggFunc::Max if all(&[Float]) => AggState::Float(Fold::new(func)),
            _ => AggState::Boxed { init: Acc::new(call, arg_type), accs: Vec::new() },
        }
    }

    /// Makes room for `groups` slots (new slots start empty).
    fn grow(&mut self, groups: usize) {
        match self {
            AggState::Count(count) => count.resize(groups, 0),
            AggState::Int(fold) => fold.grow(groups),
            AggState::Float(fold) => fold.grow(groups),
            AggState::Boxed { init, accs } => accs.resize(groups, init.clone()),
        }
    }

    /// Folds one batch of `n` rows (`arg` is `None` for `COUNT(*)`) into
    /// the groups `slots` names.
    fn fold(&mut self, n: usize, arg: Option<&Column>, slots: Option<&[u32]>) -> SqlResult<()> {
        let validity = arg.and_then(Column::validity);
        let mismatch = || SqlError::Execution("aggregate argument changed type".into());
        match self {
            AggState::Count(count) if slots.is_none() && validity.is_none() => {
                count[0] += n as i64; // a row count
            }
            AggState::Count(count) => each_row(n, slots, validity, |_, g| count[g] += 1),
            AggState::Int(fold) => {
                let x = arg.and_then(Column::as_int).ok_or_else(mismatch)?;
                fold.fold(x, slots, validity, i64::wrapping_add, i64::cmp);
            }
            AggState::Float(fold) => {
                let col = arg.ok_or_else(mismatch)?;
                let widened: Vec<f64>;
                let x = match (col.as_float(), col.as_int()) {
                    (Some(x), _) => x,
                    (None, Some(ints)) => {
                        widened = ints.iter().map(|&v| v as f64).collect();
                        &widened
                    }
                    (None, None) => return Err(mismatch()),
                };
                fold.fold(x, slots, validity, |a, b| a + b, f64::total_cmp);
            }
            AggState::Boxed { accs, .. } => {
                let col = arg.ok_or_else(mismatch)?;
                for i in 0..n {
                    let g = slots.map_or(0, |s| s[i] as usize);
                    accs[g].update(&col.value(i))?;
                }
            }
        }
        Ok(())
    }

    /// The output column, one value per group, coerced to `dtype`.
    fn finish(self, dtype: DataType) -> SqlResult<Column> {
        let col = match self {
            AggState::Count(count) => Column::new(ColumnData::Int(count), None),
            AggState::Int(fold) => {
                let validity = fold.validity();
                Column::new(ColumnData::Int(fold.acc), validity)
            }
            AggState::Float(mut fold) => {
                let validity = fold.validity();
                if fold.func == AggFunc::Avg {
                    for (sum, &k) in fold.acc.iter_mut().zip(&fold.n) {
                        *sum /= k.max(1) as f64;
                    }
                }
                Column::new(ColumnData::Float(fold.acc), validity)
            }
            AggState::Boxed { accs, .. } => {
                let mut b = ColumnBuilder::with_capacity(dtype, accs.len());
                for acc in accs {
                    b.push(acc.finish()).map_err(SqlError::from)?;
                }
                b.finish()
            }
        };
        coerce_column(col, dtype)
    }
}

/// How rows find their group slot. Slots are numbered in first-seen order,
/// which is the output's row order.
enum Grouper {
    /// No GROUP BY: one group, slot 0, whatever the input.
    Single,
    /// One BIGINT key; NULL is a group of its own, slot `null`.
    Int { map: FxHashMap<i64, u32>, null: Option<u32> },
    /// Two BIGINT keys; a NULL component is part of the key.
    Int2(FxHashMap<[Option<i64>; 2], u32>),
    /// Any other key shape: boxed values.
    Generic(FxHashMap<GroupKey, u32>),
}

/// The groups seen so far: their slots and their key columns.
struct Groups {
    grouper: Grouper,
    /// The group-key output columns, one value per slot.
    keys: Vec<ColumnBuilder>,
    len: usize,
}

/// A new slot for a group whose key was just pushed onto the key columns.
fn next_slot(len: &mut usize) -> SqlResult<u32> {
    let slot = u32::try_from(*len)
        .map_err(|_| SqlError::Execution("GROUP BY produced over 2^32 groups".into()))?;
    *len += 1;
    Ok(slot)
}

impl Groups {
    /// Writes each of the batch's `n` rows' slot into `slots`, adding a
    /// group for each unseen key.
    fn assign(&mut self, n: usize, cols: &[Column], slots: &mut Vec<u32>) -> SqlResult<()> {
        slots.clear();
        let Groups { grouper, keys, len } = self;
        let int_key = |j: usize| {
            int_data(&cols[j])
                .ok_or_else(|| SqlError::Execution("BIGINT group key changed type".into()))
        };
        match grouper {
            Grouper::Single => {}
            Grouper::Int { map, null } => {
                let (k0, v0) = int_key(0)?;
                for (i, &k) in k0.iter().enumerate() {
                    let slot = match (row_valid(v0, i), *null) {
                        (true, _) => match map.entry(k) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                keys[0].push_int(k);
                                *e.insert(next_slot(len)?)
                            }
                        },
                        (false, Some(s)) => s,
                        (false, None) => {
                            keys[0].push_null();
                            *null.insert(next_slot(len)?)
                        }
                    };
                    slots.push(slot);
                }
            }
            Grouper::Int2(map) => {
                let cols = [int_key(0)?, int_key(1)?];
                for i in 0..n {
                    let key = cols.map(|(k, v)| row_valid(v, i).then(|| k[i]));
                    let slot = match map.entry(key) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            for (builder, k) in keys.iter_mut().zip(key) {
                                match k {
                                    Some(k) => builder.push_int(k),
                                    None => builder.push_null(),
                                }
                            }
                            *e.insert(next_slot(len)?)
                        }
                    };
                    slots.push(slot);
                }
            }
            Grouper::Generic(map) => {
                let mut scratch: Vec<Value> = Vec::with_capacity(cols.len());
                for i in 0..n {
                    scratch.clear();
                    scratch.extend(cols.iter().map(|c| c.value(i)));
                    let key = GroupKey(std::mem::take(&mut scratch));
                    let slot = match map.get(&key) {
                        Some(&s) => {
                            scratch = key.0; // recover the buffer
                            s
                        }
                        None => {
                            for (builder, v) in keys.iter_mut().zip(&key.0) {
                                builder.push(v.clone()).map_err(SqlError::from)?;
                            }
                            let s = next_slot(len)?;
                            map.insert(key, s);
                            s
                        }
                    };
                    slots.push(slot);
                }
            }
        }
        Ok(())
    }
}

/// One input batch's row count with its evaluated group-key and
/// aggregate-argument columns.
type EvaluatedBatch = (usize, Vec<Column>, Vec<Option<Column>>);

fn hash_aggregate(
    batches: &[RecordBatch],
    input_schema: Arc<Schema>,
    group: &[PhysExpr],
    aggs: &[AggCall],
    out_schema: &Arc<Schema>,
) -> SqlResult<Vec<RecordBatch>> {
    // Evaluate group keys and aggregate arguments for every batch up front,
    // so the typed-or-boxed choices are made once, over every batch.
    let mut evaluated: Vec<EvaluatedBatch> = Vec::new();
    for batch in batches.iter().filter(|b| b.num_rows() > 0) {
        let group_cols: Vec<Column> =
            group.iter().map(|e| e.eval(batch)).collect::<SqlResult<Vec<_>>>()?;
        let arg_cols: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(batch)).transpose())
            .collect::<SqlResult<Vec<_>>>()?;
        evaluated.push((batch.num_rows(), group_cols, arg_cols));
    }

    let fields = &out_schema.fields;
    let keys_int = |j: usize| {
        fields[j].dtype == DataType::Int
            && evaluated.iter().all(|(_, g, _)| g[j].dtype() == DataType::Int)
    };
    let grouper = match group.len() {
        0 => Grouper::Single,
        1 if keys_int(0) => Grouper::Int { map: FxHashMap::default(), null: None },
        2 if keys_int(0) && keys_int(1) => Grouper::Int2(FxHashMap::default()),
        _ => Grouper::Generic(FxHashMap::default()),
    };
    let mut groups = Groups {
        len: usize::from(group.is_empty()),
        grouper,
        keys: fields[..group.len()].iter().map(|f| ColumnBuilder::new(f.dtype)).collect(),
    };
    let mut states: Vec<AggState> = aggs
        .iter()
        .enumerate()
        .map(|(j, a)| {
            let arg_type = a.arg.as_ref().map(|e| e.data_type(&input_schema)).transpose()?;
            let arg_types: Vec<DataType> = evaluated
                .iter()
                .filter_map(|(_, _, args)| args[j].as_ref())
                .map(Column::dtype)
                .collect();
            Ok(AggState::new(a, arg_type, &arg_types))
        })
        .collect::<SqlResult<_>>()?;

    let mut slots: Vec<u32> = Vec::new();
    for (n, group_cols, arg_cols) in &evaluated {
        groups.assign(*n, group_cols, &mut slots)?;
        let slots = (!group.is_empty()).then_some(slots.as_slice());
        for (state, arg) in states.iter_mut().zip(arg_cols) {
            state.grow(groups.len);
            state.fold(*n, arg.as_ref(), slots)?;
        }
    }

    let mut cols: Vec<Column> = groups.keys.into_iter().map(ColumnBuilder::finish).collect();
    for (mut state, f) in states.into_iter().zip(&fields[group.len()..]) {
        state.grow(groups.len);
        cols.push(state.finish(f.dtype)?);
    }
    Ok(vec![RecordBatch::new(out_schema.clone(), cols)?])
}

/// The boxed aggregate the typed one replaced: a `GroupKey` and one
/// [`Acc::update`] per row. The oracle the typed folds are checked against.
#[cfg(test)]
fn hash_aggregate_boxed(
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
    let mut groups: FxHashMap<GroupKey, usize> = FxHashMap::default();
    let mut order: Vec<GroupKey> = Vec::new();
    let mut acc_table: Vec<Vec<Acc>> = Vec::new();
    for batch in batches {
        let group_cols: Vec<Column> =
            group.iter().map(|e| e.eval(batch)).collect::<SqlResult<Vec<_>>>()?;
        let arg_cols: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(batch)).transpose())
            .collect::<SqlResult<Vec<_>>>()?;
        for row in 0..batch.num_rows() {
            let key = GroupKey(group_cols.iter().map(|c| c.value(row)).collect());
            let slot = *groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                acc_table.push(new_accs());
                acc_table.len() - 1
            });
            for (acc, arg) in acc_table[slot].iter_mut().zip(&arg_cols) {
                match arg {
                    Some(col) => acc.update(&col.value(row))?,
                    None => acc.update(&Value::Int(1))?,
                }
            }
        }
    }
    if group.is_empty() && order.is_empty() {
        order.push(GroupKey(vec![]));
        acc_table.push(new_accs());
    }
    let mut builders: Vec<ColumnBuilder> =
        out_schema.fields.iter().map(|f| ColumnBuilder::new(f.dtype)).collect();
    for (key, accs) in order.into_iter().zip(acc_table) {
        for (i, v) in key.0.into_iter().enumerate() {
            builders[i].push(v).map_err(SqlError::from)?;
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
            let f = fast.probe(&probe, &[0], outer).unwrap();
            let g = generic.probe(&probe, &[0], outer).unwrap();
            assert_eq!(f, g, "fast and generic paths diverged (outer={outer})");
            // key 1 → 1 match, key 0 → 2 matches (in build-row order); NULL
            // and 2 match nothing and null-extend once, in place.
            let want = if outer {
                JoinIndices { probe: vec![0, 1, 2, 2, 3], build: vec![0, NO_ROW, 2, 3, NO_ROW] }
            } else {
                JoinIndices { probe: vec![0, 2, 2], build: vec![0, 2, 3] }
            };
            assert_eq!(f, want, "NULL keys must never match (outer={outer})");
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
            let f = fast.probe(&probe, &[0, 1], outer).unwrap();
            let g = generic.probe(&probe, &[0, 1], outer).unwrap();
            assert_eq!(f, g, "composite fast path diverged from generic (outer={outer})");
            let matched = f.build.iter().filter(|&&m| m != NO_ROW).count();
            assert_eq!(matched, 2, "only the two fully-non-NULL keys match");
        }
    }

    #[test]
    fn join_build_probe_matches_lists_per_row() {
        let build = nullable_int_batch("k", &[Some(5), Some(5), None, Some(7)]);
        let jb = JoinBuild::new(build, vec![0]);
        let probe = nullable_int_batch("k", &[Some(5), Some(6), None, Some(7)]);
        let matches = jb.probe_matches(&probe, &[0]).unwrap();
        let want: [&[usize]; 4] = [&[0, 1], &[], &[], &[3]];
        assert_eq!(matches, want);
        assert_eq!(jb.num_rows(), 4);
        assert_eq!(jb.key_columns(), &[0]);
    }

    /// A value's comparable form: floats by bit pattern (one string for
    /// every NaN — Rust leaves a computed NaN's sign and payload open).
    fn bit_rows(batches: &[RecordBatch]) -> Vec<Vec<String>> {
        let cell = |v: Value| match v {
            Value::Float(x) if x.is_nan() => "NaN".to_string(),
            Value::Float(x) => format!("f{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        batches.iter().flat_map(|b| b.rows()).map(|r| r.into_iter().map(cell).collect()).collect()
    }

    /// The typed folds and group maps against the boxed per-row fold they
    /// replaced, bitwise and in output order: ungrouped (also on empty
    /// input), one nullable BIGINT key, two BIGINT keys, a VARCHAR key and a
    /// mixed key, over several batches of NULL, NaN, ±0.0, ±inf, non-dyadic
    /// floats and BIGINTs that wrap.
    #[test]
    fn typed_aggregates_match_the_boxed_fold_bitwise() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("k2", DataType::Int),
            Field::new("s", DataType::Str),
            Field::new("x", DataType::Float),
            Field::new("n", DataType::Int),
        ]);
        let floats =
            [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 0.1, 0.7, 1e16, 1.0 / 3.0];
        let ints = [i64::MAX, i64::MIN, 1, -1, 7];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let call = |func, col: Option<usize>, distinct| AggCall {
            func,
            arg: col.map(PhysExpr::Column),
            distinct,
        };
        let aggs = vec![
            call(AggFunc::CountStar, None, false),
            call(AggFunc::Count, Some(3), false),
            call(AggFunc::Count, Some(2), false),
            call(AggFunc::Sum, Some(3), false),
            call(AggFunc::Sum, Some(4), false),
            call(AggFunc::Avg, Some(3), false),
            call(AggFunc::Avg, Some(4), false),
            call(AggFunc::Min, Some(3), false),
            call(AggFunc::Max, Some(3), false),
            call(AggFunc::Min, Some(4), false),
            call(AggFunc::Max, Some(4), false),
            call(AggFunc::Min, Some(2), false),
            call(AggFunc::Count, Some(4), true),
            call(AggFunc::Sum, Some(3), true),
            call(AggFunc::Avg, Some(3), true),
            call(AggFunc::Avg, Some(4), true),
        ];
        let agg_types = [
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::Float,
            DataType::Int,
            DataType::Float,
            DataType::Float,
            DataType::Float,
            DataType::Float,
            DataType::Int,
            DataType::Int,
            DataType::Str,
            DataType::Int,
            DataType::Float,
            DataType::Float,
            DataType::Float,
        ];
        for round in 0..40 {
            let batches: Vec<RecordBatch> = (0..3)
                .map(|_| {
                    let rows: Vec<Vec<Value>> = (0..next(if round % 8 == 0 { 1 } else { 30 }))
                        .map(|_| {
                            let null = |v: Value, p: usize| if p == 0 { Value::Null } else { v };
                            vec![
                                null(Value::Int(next(4) as i64 - 1), next(5)),
                                null(Value::Int(next(3) as i64), next(6)),
                                null(Value::Str(["p", "q", ""][next(3)].into()), next(5)),
                                null(Value::Float(floats[next(floats.len())]), next(5)),
                                null(Value::Int(ints[next(ints.len())]), next(5)),
                            ]
                        })
                        .collect();
                    RecordBatch::from_rows(schema.clone(), &rows).unwrap()
                })
                .collect();
            for group in [vec![], vec![0], vec![0, 1], vec![2], vec![0, 2]] {
                let fields: Vec<Field> = group
                    .iter()
                    .map(|&c| schema.fields[c].clone())
                    .chain(
                        agg_types.iter().enumerate().map(|(j, &t)| Field::new(format!("a{j}"), t)),
                    )
                    .collect();
                let out = Schema::new(fields);
                let group: Vec<PhysExpr> = group.into_iter().map(PhysExpr::Column).collect();
                let typed = hash_aggregate(&batches, schema.clone(), &group, &aggs, &out).unwrap();
                let boxed =
                    hash_aggregate_boxed(&batches, schema.clone(), &group, &aggs, &out).unwrap();
                assert_eq!(bit_rows(&typed), bit_rows(&boxed), "round {round}, keys {group:?}");
            }
        }
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
