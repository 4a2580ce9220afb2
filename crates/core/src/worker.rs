//! The worker: a transform UDF that executes the vertex compute function.
//!
//! "The worker is the container for the vertex-compute function … workers run
//! as database UDFs and typically there are as many parallel workers as the
//! number of cores" (§2.2). Each worker receives one hash partition of the
//! table union (vertex and message rows), sorts it by vertex id (vertex
//! batching, §2.3), reconstructs each vertex's value/edges/messages, runs
//! `compute`, and emits new vertex states, outgoing messages and aggregator
//! contributions as rows. Apply writes one sorted segment per owner cell, so
//! a partition's input mostly arrives as a few already-sorted runs, and the
//! sort is a merge of them. A vertex's edges come from the run's
//! [`EdgeProjection`]: the worker pins its partition's piece at its first
//! active vertex and holds it for the rest of the partition, and for each
//! active vertex copies that vertex's range of the piece into one reused
//! buffer — a superstep's edge cost follows the degrees of its active
//! vertices, not the size of the piece.

use std::sync::Arc;

use vertexica_common::graph::{Edge, VertexId};
use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexContext, VertexProgram};
use vertexica_common::VertexData;
use vertexica_sql::{SqlError, SqlResult, TransformUdf};
use vertexica_storage::{
    Bitmap, BlobData, Column, ColumnBuilder, DataType, Field, RecordBatch, Schema, Value,
};

use crate::input::{KIND_MESSAGE, KIND_VERTEX};
use crate::projection::{EdgeProjection, PinnedPiece};

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
    /// Where out-edges come from: the session's sorted edge projection,
    /// built for the run's shard and partition counts.
    pub edges: Arc<EdgeProjection>,
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
/// sorts these instead of concatenating the batches first — the rows never
/// move.
#[derive(Clone, Copy)]
struct RowRef {
    batch: u32,
    row: u32,
}

/// The five union-schema columns of one partition batch, as typed slices.
///
/// [`RowKeys::cmp`] is the worker's canonical **total** order: (vid, kind)
/// first — the paper's per-partition sort, vertex tuple leading its
/// messages — then every remaining column as a tiebreak. A mere (vid, kind)
/// key leaves ties (a vertex's messages) in input order, which
/// silently couples compute to the physical row order of the underlying
/// tables, which apply writes cell-major — a different (but content-equal)
/// order for every partition count and apply arm. With a total order, any two
/// runs that agree on partition *contents* produce bitwise-identical compute
/// — which the invariance cells of the equivalence harness assert. Rows tying on every
/// column are interchangeable, so the order of ties cannot change compute.
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
    payload: Nullable<'a, BlobData>,
    halted: Nullable<'a, [bool]>,
}

impl<'a> RowKeys<'a> {
    fn of(batch: &'a RecordBatch) -> SqlResult<Self> {
        if batch.num_columns() != 5 {
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
            payload: Nullable::of(batch.column(3), Column::as_blob)
                .ok_or_else(|| mistyped("payload"))?,
            halted: Nullable::of(batch.column(4), Column::as_bool)
                .ok_or_else(|| mistyped("halted"))?,
        })
    }

    /// Orders row `a` of `self` against row `b` of `other`.
    fn cmp(&self, a: usize, other: &RowKeys<'_>, b: usize) -> std::cmp::Ordering {
        (self.vids[a], self.kinds[a])
            .cmp(&(other.vids[b], other.kinds[b]))
            .then_with(|| self.other.get(a).cmp(&other.other.get(b)))
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
        // messages.
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
        // The batches are the segments apply wrote, one per owner cell and
        // each sorted in this order, or pieces of unaligned input (the
        // initial vertex table, user DML).
        // The stable sort finds the already-sorted runs and merges them; it
        // sorts only what arrives out of order.
        let n = order.len();
        order.sort_by(|&a, &b| cmp(a, b));

        // Outputs: rows go into the output batch's column builders as they
        // are produced, payloads encoded straight into the blob column.
        let mut out = OutputColumns::new();
        let mut combined: FxHashMap<VertexId, (VertexId, P::Message)> = FxHashMap::default();
        let agg_specs: FxHashMap<String, AggKind> =
            self.program.aggregators().into_iter().map(|s| (s.name.to_string(), s.kind)).collect();

        // Walk vertex groups. The per-vertex buffers are reused across
        // vertices, so a vertex costs no allocation of the worker's own.
        // The partition's projection piece is pinned at its first active
        // vertex: a partition with none never touches it.
        let mut piece: Option<PinnedPiece> = None;
        let mut edges: Vec<Edge> = Vec::new();
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
            msgs.clear();
            while j < n {
                let (k, row) = at(order[j]);
                if k.vids[row] as VertexId != vid {
                    break;
                }
                match k.kinds[row] {
                    KIND_VERTEX => vertex_row = Some(order[j]),
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
            let pinned = match &mut piece {
                Some(pinned) => pinned,
                None => piece.insert(self.edges.pin(vid).map_err(udf_error)?),
            };
            pinned.out_edges(vid, &mut edges).map_err(udf_error)?;

            let mut ctx: WorkerCtx<'_, P> = WorkerCtx {
                id: vid,
                superstep: self.superstep,
                num_vertices: self.num_vertices,
                value,
                edges: &edges,
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

fn udf_error(e: crate::error::VertexicaError) -> SqlError {
    SqlError::Udf(e.to_string())
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

    /// Builds a union-schema batch for: vertex rows with f64 values,
    /// messages of f64.
    fn build_input(vertices: &[(u64, f64, bool)], msgs: &[(u64, u64, f64)]) -> RecordBatch {
        let mut rows = Vec::new();
        for (id, v, halted) in vertices {
            rows.push(vec![
                Value::Int(*id as i64),
                Value::Int(KIND_VERTEX),
                Value::Null,
                Value::Blob(v.to_bytes()),
                Value::Bool(*halted),
            ]);
        }
        for (to, from, m) in msgs {
            rows.push(vec![
                Value::Int(*to as i64),
                Value::Int(KIND_MESSAGE),
                Value::Int(*from as i64),
                Value::Blob(m.to_bytes()),
                Value::Null,
            ]);
        }
        RecordBatch::from_rows(union_schema(), &rows).unwrap()
    }

    /// The projection of a graph holding `edges`, at one shard and
    /// `partitions` partitions.
    fn projection(edges: &[(u64, u64)], partitions: usize) -> Arc<EdgeProjection> {
        use vertexica_common::graph::EdgeList;
        let g = crate::GraphSession::create(Arc::new(vertexica_sql::Database::new()), "g").unwrap();
        g.load_edges(&EdgeList::from_pairs(edges.iter().copied())).unwrap();
        g.edge_projection(1, partitions).unwrap().0
    }

    /// A worker reading `edges` from a one-partition projection.
    fn worker(edges: &[(u64, u64)], superstep: u64, combiner: bool) -> VertexWorker<MaxProp> {
        VertexWorker {
            program: Arc::new(MaxProp),
            superstep,
            num_vertices: 3,
            prev_aggregates: Arc::new(FxHashMap::default()),
            use_combiner: combiner,
            edges: projection(edges, 1),
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
        let input = build_input(&[(0, 0.0, false), (1, 1.0, false), (2, 2.0, false)], &[]);
        let out = worker(&[(0, 1), (1, 2)], 0, false).execute(vec![input]).unwrap();
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
        let input = build_input(&[(0, 0.0, true), (1, 1.0, true)], &[]);
        let out = worker(&[(0, 1)], 1, false).execute(vec![input]).unwrap();
        assert!(rows_of_kind(&out, OUT_STATE).is_empty());
        assert!(rows_of_kind(&out, OUT_MESSAGE).is_empty());
    }

    #[test]
    fn message_reactivates_halted_vertex() {
        let input = build_input(&[(1, 1.0, true)], &[(1, 0, 9.0)]);
        let out = worker(&[(1, 0)], 1, false).execute(vec![input]).unwrap();
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
        let input = build_input(&[(1, 5.0, true)], &[(1, 0, 1.0)]);
        let out = worker(&[], 1, false).execute(vec![input]).unwrap();
        // Message is smaller: value unchanged; votes halt → halted stays
        // true → no state row at all.
        assert!(rows_of_kind(&out, OUT_STATE).is_empty());
    }

    #[test]
    fn combiner_folds_messages() {
        // Two vertices both send to vertex 2; with combiner only one message
        // row survives carrying the max.
        let input = build_input(&[(0, 10.0, false), (1, 20.0, false), (2, 0.0, false)], &[]);
        let out = worker(&[(0, 2), (1, 2)], 0, true).execute(vec![input]).unwrap();
        let msgs = rows_of_kind(&out, OUT_MESSAGE);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0][3], Value::Blob(20.0f64.to_bytes()));
    }

    #[test]
    fn message_to_missing_vertex_dropped() {
        let input = build_input(&[(0, 0.0, false)], &[(99, 0, 1.0)]);
        let out = worker(&[], 1, false).execute(vec![input]).unwrap();
        // No crash; only vertex 0's state.
        assert!(rows_of_kind(&out, OUT_STATE).len() <= 1);
    }

    /// Sorts rows into the worker's canonical order: `Value::total_cmp`
    /// column by column.
    fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    #[test]
    fn input_runs_sorted_or_not_give_identical_output() {
        // One partition's rows as one shuffled batch, as sorted runs whose
        // concatenation is unsorted (the owner-aligned segments apply
        // writes), and as shuffled pieces: the worker's sort must make the
        // three bitwise identical. Vertices have several messages each, so a
        // run left unsorted reorders a vertex's message slice.
        let n = 2048u64;
        let vertices: Vec<(u64, f64, bool)> = (0..n).map(|i| (i, (i % 97) as f64, false)).collect();
        let edges: Vec<(u64, u64)> =
            (0..n).flat_map(|i| [(i, (i * 31 + 7) % n), (i, (i * 17 + 3) % n)]).collect();
        let msgs: Vec<(u64, u64, f64)> = (0..n)
            .flat_map(|i| [(i, (i + 5) % n, (i % 13) as f64), (i, (i + 1) % n, (i % 7) as f64)])
            .collect();
        let input = build_input(&vertices, &msgs);
        let worker = |superstep, combiner| VertexWorker {
            num_vertices: n,
            edges: projection(&edges, 1),
            ..worker(&[], superstep, combiner)
        };
        let rows = input.num_rows();
        // 7919 is prime and rows isn't a multiple of it: a bijection.
        let perm: Vec<usize> = (0..rows).map(|i| (i * 7919) % rows).collect();
        let shuffled = input.take(&perm).unwrap();

        let sorted = canonical(input.rows());
        let runs: Vec<RecordBatch> = (0..3)
            .map(|r| {
                let run: Vec<Vec<Value>> = sorted.iter().skip(r).step_by(3).cloned().collect();
                RecordBatch::from_rows(union_schema(), &run).unwrap()
            })
            .collect();
        let pieces: Vec<RecordBatch> = (0..5)
            .map(|k| {
                shuffled.take(&(k * rows / 5..(k + 1) * rows / 5).collect::<Vec<_>>()).unwrap()
            })
            .collect();

        let expected = all_rows(&worker(1, true).execute(vec![shuffled]).unwrap());
        assert!(!expected.is_empty());
        for (what, input) in [("sorted runs", runs), ("shuffled pieces", pieces)] {
            let out = worker(1, true).execute(input).unwrap();
            assert_eq!(all_rows(&out), expected, "{what}");
        }
    }

    fn all_rows(out: &[RecordBatch]) -> Vec<Vec<Value>> {
        out.iter().flat_map(RecordBatch::rows).collect()
    }

    /// At four partitions each partition's worker reads its vertices'
    /// edges from its own piece, and together they emit what one worker
    /// over the whole graph does; a vertex of another partition is an error.
    #[test]
    fn each_partition_reads_its_own_piece() {
        use vertexica_storage::partition::{owner, split_batch};
        let edges: Vec<(u64, u64)> =
            (0..40u64).flat_map(|v| [(v, (v * 7 + 3) % 40), (v, (v + 1) % 40)]).collect();
        let vertices: Vec<(u64, f64, bool)> = (0..40).map(|v| (v, v as f64, false)).collect();
        let msgs: Vec<(u64, u64, f64)> =
            (0..40).map(|v| (v, (v + 9) % 40, 50.0 - v as f64)).collect();
        let input = build_input(&vertices, &msgs);
        let whole = VertexWorker { edges: projection(&edges, 1), ..worker(&[], 1, false) };
        let split = VertexWorker { edges: projection(&edges, 4), ..worker(&[], 1, false) };
        let mut pieces = Vec::new();
        for (_, part) in split_batch(&input, &[0], 1, 4).unwrap() {
            pieces.extend(all_rows(&split.execute(vec![part]).unwrap()));
        }
        let mut expected = all_rows(&whole.execute(vec![input]).unwrap());
        let sort = |rows: &mut Vec<Vec<Value>>| rows.sort_by_key(|r| format!("{r:?}"));
        sort(&mut pieces);
        sort(&mut expected);
        assert_eq!(pieces, expected);

        // Vertices of two partitions in one worker's input.
        let stranger = (1..40).find(|&v| owner(v, 1, 4).1 != owner(0, 1, 4).1).unwrap();
        let mixed = build_input(&[(0, 0.0, false), (stranger as u64, 1.0, false)], &[]);
        let wrong = split.execute(vec![mixed]);
        assert!(matches!(wrong, Err(SqlError::Udf(msg)) if msg.contains("partition")));
    }

    #[test]
    fn typed_row_order_is_the_value_total_cmp_chain() {
        // Every pair of rows — across two batches, with NULLs and an empty
        // blob beside a NULL one — must order exactly as the boxed
        // `Value::total_cmp` comparison of all five columns does.
        let blob = |b: &[u8]| Value::Blob(b.to_vec());
        let tails: Vec<[Value; 3]> = vec![
            [Value::Null, Value::Null, Value::Null],
            [Value::Int(-1), blob(b""), Value::Bool(false)],
            [Value::Int(-1), blob(b"\x00"), Value::Bool(true)],
            [Value::Int(-1), blob(b"\x00\x01"), Value::Null],
            [Value::Int(7), blob(b"\xff"), Value::Bool(true)],
            [Value::Int(7), Value::Null, Value::Bool(false)],
            [Value::Int(i64::MAX), blob(b"\x00"), Value::Null],
            // Alike but for a NULL against an empty payload: both are
            // zero-length cells, and only validity orders them.
            [Value::Int(9), Value::Null, Value::Bool(true)],
            [Value::Int(9), blob(b""), Value::Bool(true)],
        ];
        let mut rows = Vec::new();
        for (vid, kind) in [(i64::MIN, 0), (3, 1), (3, 0), (i64::MAX, 1)] {
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
            Value::Blob(vec![1, 2, 3]), // not a valid f64
            Value::Bool(false),
        ]];
        let input = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        assert!(worker(&[], 0, false).execute(vec![input]).is_err());
    }

    #[test]
    fn uninitialized_vertex_value_is_an_error() {
        let rows = vec![vec![
            Value::Int(0),
            Value::Int(KIND_VERTEX),
            Value::Null,
            Value::Null,
            Value::Bool(false),
        ]];
        let input = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        assert!(worker(&[], 0, false).execute(vec![input]).is_err());
    }
}
