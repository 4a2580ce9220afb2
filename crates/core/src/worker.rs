//! The worker: a transform UDF that executes the vertex compute function.
//!
//! "The worker is the container for the vertex-compute function … workers run
//! as database UDFs and typically there are as many parallel workers as the
//! number of cores" (§2.2). Each worker receives one hash partition of the
//! table union, sorts it by vertex id (vertex batching, §2.3), reconstructs
//! each vertex's value/edges/messages, runs `compute`, and emits new vertex
//! states, outgoing messages and aggregator contributions as rows. A
//! vertex's edges come either from the partition's own edge rows or, when the
//! run has one, from the session's [`EdgeProjection`] — then the partition
//! holds vertex and message rows only.

use std::sync::Arc;

use vertexica_common::graph::{Edge, VertexId};
use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexContext, VertexProgram};
use vertexica_common::runtime::WorkerPool;
use vertexica_common::VertexData;
use vertexica_sql::{SqlError, SqlResult, TransformUdf};
use vertexica_storage::{
    Bitmap, BlobData, Column, ColumnBuilder, DataType, Field, RecordBatch, Schema, Value,
};

use crate::input::{KIND_EDGE, KIND_MESSAGE, KIND_VERTEX};
use crate::projection::{cmp_weight, EdgeProjection};

/// Partitions at or above this row count sort their canonical input order
/// on the pool (chunk sorts in parallel + pairwise merges) instead of on
/// the worker alone. The worker itself runs *on* a pool thread, so this is
/// a nested scope — the runtime's help-first barrier makes it safe at any
/// pool size.
pub const PARALLEL_SORT_MIN_ROWS: usize = 4096;

/// Output-row kinds emitted by workers.
pub const OUT_STATE: i64 = 0;
pub const OUT_MESSAGE: i64 = 1;
pub const OUT_AGGREGATE: i64 = 2;

/// Worker output schema:
/// * state rows: `(0, vid, NULL, payload=new value, halted, NULL, NULL)`
/// * message rows: `(1, recipient, sender, payload, NULL, NULL, NULL)`
/// * aggregate rows: `(2, vid, NULL, NULL, NULL, name, value)` — one partial
///   per contributing vertex, so the apply-side fold order (by name, then
///   vid) is independent of partitioning and sharding
pub fn worker_output_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("kind", DataType::Int),
        Field::new("vid", DataType::Int),
        Field::new("other", DataType::Int),
        Field::new("payload", DataType::Blob),
        Field::new("halted", DataType::Bool),
        Field::new("agg_name", DataType::Str),
        Field::new("agg_value", DataType::Float),
    ])
}

/// The per-superstep worker UDF. Created fresh by the coordinator for every
/// superstep with that superstep's globals baked in.
pub struct VertexWorker<P: VertexProgram> {
    pub program: Arc<P>,
    pub superstep: u64,
    pub num_vertices: u64,
    /// Aggregator values from the previous superstep.
    pub prev_aggregates: Arc<FxHashMap<String, f64>>,
    /// Pre-combine messages per recipient within the partition.
    pub use_combiner: bool,
    /// The shared runtime pool, for sorting big partitions with nested
    /// parallelism (`None`: always sort on the calling thread).
    pub pool: Option<Arc<WorkerPool>>,
    /// Where out-edges come from: the session's sorted edge projection, or
    /// (`None`) the `KIND_EDGE` rows of the partition itself. Never both — an
    /// edge row reaching a worker that holds a projection is an error.
    pub edges: Option<Arc<EdgeProjection>>,
}

/// One nullable column as its typed storage (`[T]`, or [`BlobData`] for a
/// blob column) plus validity — how the worker and apply read rows without
/// boxing a `Value`.
pub(crate) struct Nullable<'a, D: ?Sized> {
    data: &'a D,
    validity: Option<&'a Bitmap>,
}

impl<'a, D: ?Sized> Nullable<'a, D> {
    /// `None` when `column` is not of the type `typed` reads.
    pub(crate) fn of(
        column: &'a Column,
        typed: impl FnOnce(&'a Column) -> Option<&'a D>,
    ) -> Option<Self> {
        Some(Nullable { data: typed(column)?, validity: column.validity() })
    }

    #[inline]
    fn is_valid(&self, row: usize) -> bool {
        self.validity.is_none_or(|valid| valid.get(row))
    }
}

impl<'a, T> Nullable<'a, [T]> {
    #[inline]
    pub(crate) fn get(&self, row: usize) -> Option<&'a T> {
        self.is_valid(row).then(|| &self.data[row])
    }
}

impl<'a> Nullable<'a, BlobData> {
    #[inline]
    pub(crate) fn get(&self, row: usize) -> Option<&'a [u8]> {
        self.is_valid(row).then(|| self.data.get(row))
    }
}

/// One input row of a partition: which batch, which row in it. The worker
/// sorts these instead of merging the batches first — the rows never move.
#[derive(Clone, Copy)]
struct RowRef {
    batch: u32,
    row: u32,
}

/// The six union-schema columns of one partition batch, as typed slices.
///
/// [`RowKeys::cmp`] is the worker's canonical **total** order: (vid, kind)
/// first — the paper's per-partition sort, vertex tuple leading its edges and
/// messages — then every remaining column as a tiebreak. A mere (vid, kind)
/// key leaves ties (a vertex's edges, its messages) in input order, which
/// silently couples compute to the physical row order of the underlying
/// tables, which apply writes bucket-major — a different (but content-equal)
/// order for every bucket count and apply arm. With a total order, any two
/// runs that agree on partition *contents* produce bitwise-identical compute
/// — which the invariance cells of the equivalence harness assert. Rows tying on every
/// column are interchangeable, so `sort_unstable` (and any run-merge order in
/// the parallel sort) is safe.
///
/// The order is `Value::total_cmp` column by column, computed without boxing
/// a `Value`: each column holds one type, so only that type's arm of
/// `Value::total_cmp` can ever run — `i64::cmp`, `f64::total_cmp`,
/// lexicographic bytes, `false < true` — and its NULL-sorts-first rule is
/// `Option`'s `None < Some`.
struct RowKeys<'a> {
    vids: &'a [i64],
    kinds: &'a [i64],
    other: Nullable<'a, [i64]>,
    weight: Nullable<'a, [f64]>,
    payload: Nullable<'a, BlobData>,
    halted: Nullable<'a, [bool]>,
}

impl<'a> RowKeys<'a> {
    fn of(batch: &'a RecordBatch) -> SqlResult<Self> {
        if batch.num_columns() != 6 {
            return Err(SqlError::Udf("worker input is not in the union schema".into()));
        }
        let key = |i: usize, what: &str| {
            batch.column(i).as_int().ok_or_else(|| SqlError::Udf(format!("{what} must be BIGINT")))
        };
        let mistyped = |what: &str| SqlError::Udf(format!("{what} column mistyped"));
        Ok(RowKeys {
            vids: key(0, "vid column")?,
            kinds: key(1, "kind column")?,
            other: Nullable::of(batch.column(2), Column::as_int)
                .ok_or_else(|| mistyped("other"))?,
            weight: Nullable::of(batch.column(3), Column::as_float)
                .ok_or_else(|| mistyped("weight"))?,
            payload: Nullable::of(batch.column(4), Column::as_blob)
                .ok_or_else(|| mistyped("payload"))?,
            halted: Nullable::of(batch.column(5), Column::as_bool)
                .ok_or_else(|| mistyped("halted"))?,
        })
    }

    /// Orders row `a` of `self` against row `b` of `other`.
    fn cmp(&self, a: usize, other: &RowKeys<'_>, b: usize) -> std::cmp::Ordering {
        (self.vids[a], self.kinds[a])
            .cmp(&(other.vids[b], other.kinds[b]))
            .then_with(|| self.other.get(a).cmp(&other.other.get(b)))
            .then_with(|| cmp_weight(self.weight.get(a).copied(), other.weight.get(b).copied()))
            .then_with(|| self.payload.get(a).cmp(&other.payload.get(b)))
            .then_with(|| self.halted.get(a).cmp(&other.halted.get(b)))
    }
}

/// The `VertexContext` handed to user compute functions.
struct WorkerCtx<'a, P: VertexProgram> {
    id: VertexId,
    superstep: u64,
    num_vertices: u64,
    value: P::Value,
    edges: &'a [Edge],
    sent: Vec<(VertexId, P::Message)>,
    voted_halt: bool,
    agg_out: Vec<(String, f64)>,
    prev_aggregates: &'a FxHashMap<String, f64>,
}

impl<'a, P: VertexProgram> VertexContext<P::Value, P::Message> for WorkerCtx<'a, P> {
    fn vertex_id(&self) -> VertexId {
        self.id
    }

    fn superstep(&self) -> u64 {
        self.superstep
    }

    fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    fn value(&self) -> &P::Value {
        &self.value
    }

    fn set_value(&mut self, value: P::Value) {
        self.value = value;
    }

    fn out_edges(&self) -> &[Edge] {
        self.edges
    }

    fn send_message(&mut self, to: VertexId, msg: P::Message) {
        self.sent.push((to, msg));
    }

    fn vote_to_halt(&mut self) {
        self.voted_halt = true;
    }

    fn aggregate(&mut self, name: &str, value: f64) {
        self.agg_out.push((name.to_string(), value));
    }

    fn read_aggregate(&self, name: &str) -> Option<f64> {
        self.prev_aggregates.get(name).copied()
    }
}

/// Merges two runs sorted under `cmp` into one. Ties take from `a` first;
/// tying rows are byte-identical under the total order, so merge order
/// cannot change compute.
fn merge_runs(
    a: Vec<RowRef>,
    b: Vec<RowRef>,
    cmp: &impl Fn(RowRef, RowRef) -> std::cmp::Ordering,
) -> Vec<RowRef> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0, 0);
    while ai < a.len() && bi < b.len() {
        if cmp(a[ai], b[bi]).is_le() {
            out.push(a[ai]);
            ai += 1;
        } else {
            out.push(b[bi]);
            bi += 1;
        }
    }
    out.extend_from_slice(&a[ai..]);
    out.extend_from_slice(&b[bi..]);
    out
}

impl<P: VertexProgram> VertexWorker<P> {
    fn decode_value(bytes: &[u8]) -> SqlResult<P::Value> {
        P::Value::from_bytes(bytes)
            .ok_or_else(|| SqlError::Udf("cannot decode vertex value".into()))
    }

    fn decode_message(bytes: &[u8]) -> SqlResult<P::Message> {
        P::Message::from_bytes(bytes)
            .ok_or_else(|| SqlError::Udf("cannot decode message value".into()))
    }
}

impl<P: VertexProgram> TransformUdf for VertexWorker<P> {
    fn name(&self) -> &str {
        "vertex_worker"
    }

    fn output_schema(&self, _input: &Schema) -> SqlResult<Arc<Schema>> {
        Ok(worker_output_schema())
    }

    fn execute(&self, partition: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
        // Sort the partition's rows by (vid, kind, …): the paper's
        // per-partition sort on vertex id, with the vertex tuple leading its
        // edges and messages.
        let keys: Vec<RowKeys<'_>> = partition.iter().map(RowKeys::of).collect::<SqlResult<_>>()?;
        let at = |r: RowRef| (&keys[r.batch as usize], r.row as usize);
        let cmp = |a: RowRef, b: RowRef| {
            let ((ka, ra), (kb, rb)) = (at(a), at(b));
            ka.cmp(ra, kb, rb)
        };
        let mut order: Vec<RowRef> = Vec::new();
        for (b, batch) in partition.iter().enumerate() {
            let (Ok(batch_idx), Ok(rows)) = (u32::try_from(b), u32::try_from(batch.num_rows()))
            else {
                return Err(SqlError::Udf("partition too large for 32-bit row references".into()));
            };
            order.extend((0..rows).map(|row| RowRef { batch: batch_idx, row }));
        }
        let n = order.len();
        let lanes = self.pool.as_ref().map_or(1, |p| p.size());
        if n >= PARALLEL_SORT_MIN_ROWS && lanes > 1 {
            // Big partition: sort contiguous runs as pool tasks — a nested
            // scope when this worker itself runs on the pool — then merge.
            let pool = self.pool.as_ref().expect("lanes > 1 implies a pool");
            let run_len = n.div_ceil(lanes);
            pool.scope(|s| {
                for run in order.chunks_mut(run_len) {
                    let cmp = &cmp;
                    s.spawn(move || run.sort_unstable_by(|&a, &b| cmp(a, b)));
                }
            });
            let mut runs: Vec<Vec<RowRef>> =
                order.chunks(run_len).map(<[RowRef]>::to_vec).collect();
            while runs.len() > 1 {
                let mut next = Vec::with_capacity(runs.len().div_ceil(2));
                let mut it = runs.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => next.push(merge_runs(a, b, &cmp)),
                        None => next.push(a),
                    }
                }
                runs = next;
            }
            order = runs.pop().unwrap_or_default();
        } else {
            order.sort_unstable_by(|&a, &b| cmp(a, b));
        }

        // Outputs: rows go into the output batch's column builders as they
        // are produced, payloads encoded straight into the blob column.
        let mut out = OutputColumns::new();
        let mut combined: FxHashMap<VertexId, (VertexId, P::Message)> = FxHashMap::default();
        let agg_specs: FxHashMap<String, AggKind> =
            self.program.aggregators().into_iter().map(|s| (s.name.to_string(), s.kind)).collect();

        // Walk vertex groups. The per-vertex buffers are reused across
        // vertices, so a vertex costs no allocation of the worker's own.
        let mut row_edges: Vec<Edge> = Vec::new();
        let mut msgs: Vec<P::Message> = Vec::new();
        let mut sent: Vec<(VertexId, P::Message)> = Vec::new();
        let mut agg_out: Vec<(String, f64)> = Vec::new();
        let mut new_bytes: Vec<u8> = Vec::new();
        let mut i = 0usize;
        while i < n {
            let (first, row) = at(order[i]);
            let vid = first.vids[row] as VertexId;
            let mut j = i;
            let mut vertex_row: Option<RowRef> = None;
            row_edges.clear();
            msgs.clear();
            while j < n {
                let (k, row) = at(order[j]);
                if k.vids[row] as VertexId != vid {
                    break;
                }
                match k.kinds[row] {
                    KIND_VERTEX => vertex_row = Some(order[j]),
                    KIND_EDGE => {
                        if self.edges.is_some() {
                            return Err(SqlError::Udf(format!(
                                "edge row for vertex {vid} reached a worker that reads edges \
                                 from the projection"
                            )));
                        }
                        let dst = k.other.get(row).copied().unwrap_or(0) as VertexId;
                        let w = k.weight.get(row).copied().unwrap_or(1.0);
                        row_edges.push(Edge::weighted(vid, dst, w));
                    }
                    KIND_MESSAGE => {
                        let bytes = k
                            .payload
                            .get(row)
                            .ok_or_else(|| SqlError::Udf("message payload not a blob".into()))?;
                        msgs.push(Self::decode_message(bytes)?);
                    }
                    other => {
                        return Err(SqlError::Udf(format!("unknown tuple kind {other}")));
                    }
                }
                j += 1;
            }
            i = j;

            // Messages addressed to a vertex that doesn't exist are dropped
            // (consistent with Pregel's default resolver-less behaviour).
            let Some((k, vrow)) = vertex_row.map(at) else { continue };

            let old_halted = k.halted.get(vrow).copied().unwrap_or(false);
            let active = self.superstep == 0 || !old_halted || !msgs.is_empty();
            if !active {
                continue;
            }
            let old_bytes = k
                .payload
                .get(vrow)
                .ok_or_else(|| SqlError::Udf(format!("vertex {vid} has no initialized value")))?;
            let value = Self::decode_value(old_bytes)?;
            let edges: &[Edge] = match &self.edges {
                Some(projection) => projection.out_edges(vid),
                None => &row_edges,
            };

            let mut ctx: WorkerCtx<'_, P> = WorkerCtx {
                id: vid,
                superstep: self.superstep,
                num_vertices: self.num_vertices,
                value,
                edges,
                sent: std::mem::take(&mut sent),
                voted_halt: false,
                agg_out: std::mem::take(&mut agg_out),
                prev_aggregates: &self.prev_aggregates,
            };
            self.program.compute(&mut ctx, &msgs);

            // Vertex state delta.
            new_bytes.clear();
            ctx.value.encode(&mut new_bytes);
            let new_halted = ctx.voted_halt;
            if new_bytes != old_bytes || new_halted != old_halted {
                out.state(vid, &new_bytes, new_halted)?;
            }

            // Outgoing messages (optionally pre-combined per recipient).
            sent = ctx.sent;
            for (to, m) in sent.drain(..) {
                if self.use_combiner {
                    match combined.remove(&to) {
                        None => {
                            combined.insert(to, (vid, m));
                        }
                        Some((sender, existing)) => {
                            match self.program.combine(&existing, &m) {
                                Some(folded) => {
                                    combined.insert(to, (sender, folded));
                                }
                                None => {
                                    // No combiner: flush both as plain rows.
                                    out.message(to, sender, &existing);
                                    out.message(to, vid, &m);
                                }
                            }
                        }
                    }
                } else {
                    out.message(to, vid, &m);
                }
            }

            // Aggregator contributions fold **per vertex** (multiple calls by
            // the same vertex fold in call order) and emit one partial row per
            // (vertex, name). Per-vertex granularity is what keeps f64
            // aggregates invariant to partition and shard membership: the
            // apply stage folds all partials in (name, vid) order, which is
            // the same total order however the vertices were scattered.
            agg_out = ctx.agg_out;
            let mut per_vertex: Vec<(String, f64)> = Vec::new();
            for (name, v) in agg_out.drain(..) {
                let Some(kind) = agg_specs.get(&name).copied() else {
                    return Err(SqlError::Udf(format!("unknown aggregator {name}")));
                };
                match per_vertex.iter_mut().find(|(n, _)| *n == name) {
                    Some(entry) => entry.1 = kind.combine(entry.1, v),
                    None => per_vertex.push((name, kind.combine(kind.identity(), v))),
                }
            }
            for (name, v) in per_vertex {
                out.aggregate(vid, name, v)?;
            }
        }
        for (to, (sender, m)) in combined {
            out.message(to, sender, &m);
        }
        Ok(vec![out.finish()?])
    }
}

/// The column builders of one worker output batch
/// ([`worker_output_schema`]). Rows of the three kinds interleave in the
/// order compute produced them; apply canonicalizes, so the order carries no
/// meaning.
struct OutputColumns {
    kind: ColumnBuilder,
    vid: ColumnBuilder,
    other: ColumnBuilder,
    payload: ColumnBuilder,
    halted: ColumnBuilder,
    agg_name: ColumnBuilder,
    agg_value: ColumnBuilder,
}

impl OutputColumns {
    fn new() -> Self {
        OutputColumns {
            kind: ColumnBuilder::new(DataType::Int),
            vid: ColumnBuilder::new(DataType::Int),
            other: ColumnBuilder::new(DataType::Int),
            payload: ColumnBuilder::new(DataType::Blob),
            halted: ColumnBuilder::new(DataType::Bool),
            agg_name: ColumnBuilder::new(DataType::Str),
            agg_value: ColumnBuilder::new(DataType::Float),
        }
    }

    fn state(&mut self, vid: VertexId, value: &[u8], halted: bool) -> SqlResult<()> {
        self.kind.push_int(OUT_STATE);
        self.vid.push_int(vid as i64);
        self.other.push_null();
        self.payload.push_blob(value);
        self.halted.push(Value::Bool(halted))?;
        self.agg_name.push_null();
        self.agg_value.push_null();
        Ok(())
    }

    fn message<M: VertexData>(&mut self, to: VertexId, from: VertexId, message: &M) {
        self.kind.push_int(OUT_MESSAGE);
        self.vid.push_int(to as i64);
        self.other.push_int(from as i64);
        self.payload.push_blob_with(|buf| message.encode(buf));
        self.halted.push_null();
        self.agg_name.push_null();
        self.agg_value.push_null();
    }

    fn aggregate(&mut self, vid: VertexId, name: String, value: f64) -> SqlResult<()> {
        self.kind.push_int(OUT_AGGREGATE);
        self.vid.push_int(vid as i64);
        self.other.push_null();
        self.payload.push_null();
        self.halted.push_null();
        self.agg_name.push(Value::Str(name))?;
        self.agg_value.push_float(value);
        Ok(())
    }

    fn finish(self) -> SqlResult<RecordBatch> {
        let columns = [
            self.kind,
            self.vid,
            self.other,
            self.payload,
            self.halted,
            self.agg_name,
            self.agg_value,
        ];
        Ok(RecordBatch::new(
            worker_output_schema(),
            columns.into_iter().map(ColumnBuilder::finish).collect(),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::union_schema;
    use vertexica_common::pregel::{AggregatorSpec, InitContext, VertexContextExt};

    /// Echo program: forwards the max of (value, messages) to all neighbours
    /// and halts when nothing grew — a miniature of HashMax connectivity.
    struct MaxProp;

    impl VertexProgram for MaxProp {
        type Value = f64;
        type Message = f64;

        fn initial_value(&self, id: VertexId, _init: &InitContext) -> f64 {
            id as f64
        }

        fn compute(&self, ctx: &mut dyn VertexContext<f64, f64>, messages: &[f64]) {
            let best = messages.iter().copied().fold(*ctx.value(), f64::max);
            ctx.aggregate("touched", 1.0);
            if best > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(best);
                ctx.send_to_all_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
            Some(a.max(*b))
        }

        fn aggregators(&self) -> Vec<AggregatorSpec> {
            vec![AggregatorSpec { name: "touched", kind: AggKind::Sum }]
        }
    }

    /// Builds a union-schema batch for: vertex rows with f64 values, edges,
    /// messages of f64.
    fn build_input(
        vertices: &[(u64, f64, bool)],
        edges: &[(u64, u64)],
        msgs: &[(u64, u64, f64)],
    ) -> RecordBatch {
        let mut rows = Vec::new();
        for (id, v, halted) in vertices {
            rows.push(vec![
                Value::Int(*id as i64),
                Value::Int(KIND_VERTEX),
                Value::Null,
                Value::Null,
                Value::Blob(v.to_bytes()),
                Value::Bool(*halted),
            ]);
        }
        for (s, d) in edges {
            rows.push(vec![
                Value::Int(*s as i64),
                Value::Int(KIND_EDGE),
                Value::Int(*d as i64),
                Value::Float(1.0),
                Value::Null,
                Value::Null,
            ]);
        }
        for (to, from, m) in msgs {
            rows.push(vec![
                Value::Int(*to as i64),
                Value::Int(KIND_MESSAGE),
                Value::Int(*from as i64),
                Value::Null,
                Value::Blob(m.to_bytes()),
                Value::Null,
            ]);
        }
        RecordBatch::from_rows(union_schema(), &rows).unwrap()
    }

    fn worker(superstep: u64, combiner: bool) -> VertexWorker<MaxProp> {
        VertexWorker {
            program: Arc::new(MaxProp),
            superstep,
            num_vertices: 3,
            prev_aggregates: Arc::new(FxHashMap::default()),
            use_combiner: combiner,
            pool: None,
            edges: None,
        }
    }

    fn rows_of_kind(out: &[RecordBatch], kind: i64) -> Vec<Vec<Value>> {
        out.iter()
            .flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i)))
            .filter(|r| r[0] == Value::Int(kind))
            .collect()
    }

    #[test]
    fn superstep_zero_activates_everyone() {
        let input = build_input(
            &[(0, 0.0, false), (1, 1.0, false), (2, 2.0, false)],
            &[(0, 1), (1, 2)],
            &[],
        );
        let out = worker(0, false).execute(vec![input]).unwrap();
        // Every vertex emits a state row (it halted, at minimum).
        assert_eq!(rows_of_kind(&out, OUT_STATE).len(), 3);
        // Vertices 0 and 1 send to their neighbour; 2 has no edges.
        assert_eq!(rows_of_kind(&out, OUT_MESSAGE).len(), 2);
        // One aggregate partial row per contributing vertex.
        let mut aggs = rows_of_kind(&out, OUT_AGGREGATE);
        aggs.sort_by_key(|r| r[1].as_int());
        assert_eq!(aggs.len(), 3);
        for (i, row) in aggs.iter().enumerate() {
            assert_eq!(row[1], Value::Int(i as i64), "partials are tagged with their vertex");
            assert_eq!(row[6], Value::Float(1.0));
        }
    }

    #[test]
    fn halted_vertices_without_messages_skip() {
        let input = build_input(&[(0, 0.0, true), (1, 1.0, true)], &[(0, 1)], &[]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        assert!(rows_of_kind(&out, OUT_STATE).is_empty());
        assert!(rows_of_kind(&out, OUT_MESSAGE).is_empty());
    }

    #[test]
    fn message_reactivates_halted_vertex() {
        let input = build_input(&[(1, 1.0, true)], &[(1, 0)], &[(1, 0, 9.0)]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        let states = rows_of_kind(&out, OUT_STATE);
        assert_eq!(states.len(), 1);
        // New value is 9.0.
        assert_eq!(states[0][3], Value::Blob(9.0f64.to_bytes()));
        // And it propagated.
        assert_eq!(rows_of_kind(&out, OUT_MESSAGE).len(), 1);
    }

    #[test]
    fn unchanged_vertex_emits_no_state_row() {
        // Vertex already halted=false... superstep 1, has a message smaller
        // than its value, so value doesn't change — but it votes halt, which
        // *is* a state change. Pre-halt it so the vote matches the old state:
        let input = build_input(&[(1, 5.0, true)], &[], &[(1, 0, 1.0)]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        // Message is smaller: value unchanged; votes halt → halted stays
        // true → no state row at all.
        assert!(rows_of_kind(&out, OUT_STATE).is_empty());
    }

    #[test]
    fn combiner_folds_messages() {
        // Two vertices both send to vertex 2; with combiner only one message
        // row survives carrying the max.
        let input = build_input(
            &[(0, 10.0, false), (1, 20.0, false), (2, 0.0, false)],
            &[(0, 2), (1, 2)],
            &[],
        );
        let out = worker(0, true).execute(vec![input]).unwrap();
        let msgs = rows_of_kind(&out, OUT_MESSAGE);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0][3], Value::Blob(20.0f64.to_bytes()));
    }

    #[test]
    fn message_to_missing_vertex_dropped() {
        let input = build_input(&[(0, 0.0, false)], &[], &[(99, 0, 1.0)]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        // No crash; only vertex 0's state.
        assert!(rows_of_kind(&out, OUT_STATE).len() <= 1);
    }

    #[test]
    fn parallel_sort_is_bitwise_identical_to_serial() {
        // A partition big enough to cross PARALLEL_SORT_MIN_ROWS, with
        // deliberately shuffled rows: the pooled sort path must produce
        // byte-identical output batches to the pool-less worker — and, when
        // invoked from inside a pool task (as the engine does), must
        // register as a *nested* scope.
        let n_vertices = PARALLEL_SORT_MIN_ROWS / 2;
        let vertices: Vec<(u64, f64, bool)> =
            (0..n_vertices as u64).map(|i| (i, (i % 97) as f64, false)).collect();
        let edges: Vec<(u64, u64)> =
            (0..n_vertices as u64).map(|i| (i, (i * 31 + 7) % n_vertices as u64)).collect();
        let msgs: Vec<(u64, u64, f64)> = (0..n_vertices as u64)
            .map(|i| (i, (i + 1) % n_vertices as u64, (i % 13) as f64))
            .collect();
        let mut input = build_input(&vertices, &edges, &msgs);
        // Shuffle rows deterministically so the sort has real work.
        let rows = input.num_rows();
        let perm: Vec<usize> = (0..rows).map(|i| (i * 7919) % rows).collect();
        // 7919 is prime and rows isn't a multiple of it ⇒ perm is a bijection.
        assert_eq!(perm.iter().collect::<std::collections::HashSet<_>>().len(), rows);
        input = input.take(&perm).unwrap();
        assert!(input.num_rows() >= PARALLEL_SORT_MIN_ROWS);

        let serial = worker(1, true).execute(vec![input.clone()]).unwrap();

        let pool = Arc::new(WorkerPool::new(4));
        let mut pooled_worker = worker(1, true);
        pooled_worker.pool = Some(pool.clone());
        let before = pool.metrics();
        // Run the worker the way the engine does: as a pool task.
        let result: vertexica_common::sync::Mutex<Option<SqlResult<Vec<RecordBatch>>>> =
            vertexica_common::sync::Mutex::new(None);
        pool.scope(|s| {
            let result = &result;
            let pooled_worker = &pooled_worker;
            let input = input.clone();
            s.spawn(move || {
                *result.lock() = Some(pooled_worker.execute(vec![input]));
            });
        });
        let pooled = result.into_inner().unwrap().unwrap();
        let delta = pool.metrics().delta_since(&before);
        assert!(delta.nested_scopes >= 1, "pooled sort from a worker must nest: {delta:?}");

        let rows_of = |out: &[RecordBatch]| -> Vec<Vec<Value>> {
            out.iter().flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i))).collect()
        };
        assert_eq!(rows_of(&serial), rows_of(&pooled));
    }

    fn all_rows(out: &[RecordBatch]) -> Vec<Vec<Value>> {
        out.iter().flat_map(RecordBatch::rows).collect()
    }

    #[test]
    fn projection_worker_matches_edge_row_worker_and_rejects_edge_rows() {
        use vertexica_common::graph::EdgeList;
        let edges = [(0, 1), (1, 2), (0, 2), (0, 1)];
        let g = crate::GraphSession::create(Arc::new(vertexica_sql::Database::new()), "g").unwrap();
        g.load_edges(&EdgeList::from_pairs(edges)).unwrap();
        let (projection, _) = g.edge_projection().unwrap();
        let mut from_projection = worker(0, false);
        from_projection.edges = Some(projection);

        let vertices = [(0, 0.0, false), (1, 1.0, false), (2, 2.0, false)];
        let msgs = [(2, 0, 5.0), (2, 1, 4.0)];
        let with_rows = worker(0, false).execute(vec![build_input(&vertices, &edges, &msgs)]);
        let without = from_projection.execute(vec![build_input(&vertices, &[], &msgs)]);
        assert_eq!(all_rows(&with_rows.unwrap()), all_rows(&without.unwrap()));

        // The two edge sources never merge: a stray edge row is an error.
        let stray = from_projection.execute(vec![build_input(&vertices, &[(0, 1)], &[])]);
        assert!(matches!(stray, Err(SqlError::Udf(msg)) if msg.contains("projection")));
    }

    #[test]
    fn typed_row_order_is_the_value_total_cmp_chain() {
        // Every pair of rows — across two batches, with NULLs, NaN, -0.0 and
        // an empty blob beside a NULL one — must order exactly as the boxed
        // `Value::total_cmp` comparison of all six columns does.
        let blob = |b: &[u8]| Value::Blob(b.to_vec());
        let tails: Vec<[Value; 4]> = vec![
            [Value::Null, Value::Null, Value::Null, Value::Null],
            [Value::Int(-1), Value::Float(f64::NAN), blob(b""), Value::Bool(false)],
            [Value::Int(-1), Value::Float(-0.0), blob(b"\x00"), Value::Bool(true)],
            [Value::Int(-1), Value::Float(0.0), blob(b"\x00\x01"), Value::Null],
            [Value::Int(7), Value::Float(-f64::NAN), blob(b"\xff"), Value::Bool(true)],
            [Value::Int(7), Value::Null, Value::Null, Value::Bool(false)],
            [Value::Int(i64::MAX), Value::Float(f64::NEG_INFINITY), blob(b"\x00"), Value::Null],
            // Alike but for a NULL against an empty payload: both are
            // zero-length cells, and only validity orders them.
            [Value::Int(9), Value::Float(1.0), Value::Null, Value::Bool(true)],
            [Value::Int(9), Value::Float(1.0), blob(b""), Value::Bool(true)],
        ];
        let mut rows = Vec::new();
        for (vid, kind) in [(i64::MIN, 0), (3, 2), (3, 0), (3, 1), (i64::MAX, 2)] {
            for tail in &tails {
                let mut row = vec![Value::Int(vid), Value::Int(kind)];
                row.extend(tail.iter().cloned());
                rows.push(row);
            }
        }
        let (front, back) = rows.split_at(rows.len() / 2);
        let batches = [
            RecordBatch::from_rows(union_schema(), front).unwrap(),
            RecordBatch::from_rows(union_schema(), back).unwrap(),
        ];
        let keys: Vec<RowKeys<'_>> = batches.iter().map(|b| RowKeys::of(b).unwrap()).collect();
        let all: Vec<(usize, usize)> =
            (0..2).flat_map(|b| (0..batches[b].num_rows()).map(move |r| (b, r))).collect();
        for &(ba, ra) in &all {
            for &(bb, rb) in &all {
                let boxed = batches[ba]
                    .row(ra)
                    .iter()
                    .zip(batches[bb].row(rb).iter())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal);
                assert_eq!(keys[ba].cmp(ra, &keys[bb], rb), boxed, "({ba},{ra}) vs ({bb},{rb})");
            }
        }
        // The NULL/empty pair closes the last group: NULL sorts first.
        let (null, empty) = (batches[1].num_rows() - 2, batches[1].num_rows() - 1);
        assert_eq!((keys[1].payload.get(null), keys[1].payload.get(empty)), (None, Some(&[][..])));
        assert!(keys[1].cmp(null, &keys[1], empty).is_lt());
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let rows = vec![vec![
            Value::Int(0),
            Value::Int(KIND_VERTEX),
            Value::Null,
            Value::Null,
            Value::Blob(vec![1, 2, 3]), // not a valid f64
            Value::Bool(false),
        ]];
        let input = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        assert!(worker(0, false).execute(vec![input]).is_err());
    }

    #[test]
    fn uninitialized_vertex_value_is_an_error() {
        let rows = vec![vec![
            Value::Int(0),
            Value::Int(KIND_VERTEX),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Bool(false),
        ]];
        let input = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        assert!(worker(0, false).execute(vec![input]).is_err());
    }
}
