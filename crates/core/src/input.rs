//! Worker input assembly — the paper's **Table Unions** optimization (§2.3).
//!
//! To run a superstep the workers need, per vertex: its value and halt state,
//! its outgoing edges, and its incoming messages. "Traditional database
//! wisdom" would 3-way join the vertex, edge and message tables — and explode
//! (a vertex with *E* edges and *M* messages yields *E × M* join rows).
//! Vertexica instead renames the three tables to a **common schema** and
//! `UNION ALL`s them; workers then tell the tuple kinds apart. Both
//! strategies are implemented here (the join baseline feeds the ablation
//! benchmark). Either way the rows are **pulled** through the engine's scan
//! cursors and streamed to the caller chunk by chunk ([`assemble_chunks`]):
//! the union re-shapes each scanned batch into the common schema, the join
//! probes the message and edge tables' [`JoinBuild`]s with each scanned
//! vertex batch. The unit tests hold both to the equivalent SQL statements.

use std::sync::Arc;

use vertexica_common::FxHashSet;
use vertexica_sql::{take_or_null, JoinBuild, NO_ROW};
use vertexica_storage::{Column, DataType, Field, RecordBatch, Schema, Value};

use crate::config::InputMode;
use crate::error::{VertexicaError, VertexicaResult};
use crate::session::GraphSession;

/// Default upper bound on rows per streamed input chunk
/// ([`crate::config::VertexicaConfig::stream_chunk_rows`] overrides it).
/// Storage segments are usually the natural chunk size; this cap only kicks
/// in when one segment is huge, keeping peak in-flight chunk bytes bounded.
pub const STREAM_CHUNK_ROWS: usize = 65_536;

/// Tuple-kind discriminator for vertex rows in the common schema.
pub const KIND_VERTEX: i64 = 0;
/// Tuple-kind discriminator for edge rows in the common schema.
pub const KIND_EDGE: i64 = 1;
/// Tuple-kind discriminator for message rows in the common schema.
pub const KIND_MESSAGE: i64 = 2;

/// The common schema the three tables are renamed to:
/// `(vid, kind, other, weight, payload, halted)` where
/// * vertex rows: `vid=id, payload=value, halted=halted`
/// * edge rows: `vid=src, other=dst, weight=weight`
/// * message rows: `vid=recipient, other=sender, payload=value`
pub fn union_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("vid", DataType::Int),
        Field::not_null("kind", DataType::Int),
        Field::new("other", DataType::Int),
        Field::new("weight", DataType::Float),
        Field::new("payload", DataType::Blob),
        Field::new("halted", DataType::Bool),
    ])
}

/// Reshapes a raw message-table batch to the union wire schema — how the
/// sharded exchange (`crate::shard`) re-injects a peer's retained message
/// rows during crash repair.
pub(crate) fn message_union_batch(batch: &RecordBatch) -> VertexicaResult<RecordBatch> {
    SourceKind::Message.reshape(batch, &union_schema())
}

/// `edge_rows` (here and in [`partition_row_plan`]) says whether the table
/// union carries the edge table. It is false when the workers read edges
/// from the session's [`EdgeProjection`](crate::projection::EdgeProjection);
/// the 3-way join always carries its edges and ignores it.
/// The three source tables of a table-union assemble, with their scan
/// projections and re-shape kinds.
const UNION_SOURCES: [(SourceKind, Option<&[usize]>); 3] = [
    (SourceKind::Vertex, None),
    // Project edges to the three consumed columns; `created`/`etype` would
    // otherwise be decoded from every segment each superstep.
    (SourceKind::Edge, Some(&[0, 1, 2])),
    (SourceKind::Message, None),
];

/// [`UNION_SOURCES`], without the edge table unless `edge_rows`.
fn union_sources(edge_rows: bool) -> impl Iterator<Item = (SourceKind, Option<&'static [usize]>)> {
    UNION_SOURCES.into_iter().filter(move |(kind, _)| edge_rows || *kind != SourceKind::Edge)
}

#[derive(Clone, Copy, PartialEq)]
enum SourceKind {
    Vertex,
    Edge,
    Message,
}

impl SourceKind {
    fn table(&self, session: &GraphSession) -> String {
        match self {
            SourceKind::Vertex => session.vertex_table(),
            SourceKind::Edge => session.edge_table(),
            SourceKind::Message => session.message_table(),
        }
    }

    /// Re-shapes one scanned batch into the common union schema by attaching
    /// constant/null companion columns:
    ///
    /// * vertex `(id, value, halted)` → `(vid, 0, NULL, NULL, value, halted)`
    /// * edge `(src, dst, weight)` → `(src, 1, dst, weight, NULL, NULL)`
    /// * message `(recipient, sender, value)` → `(recipient, 2, sender, NULL, value, NULL)`
    fn reshape(&self, batch: &RecordBatch, schema: &Arc<Schema>) -> VertexicaResult<RecordBatch> {
        let n = batch.num_rows();
        let cols = match self {
            SourceKind::Vertex => vec![
                batch.column(0).clone(),
                Column::repeat(DataType::Int, &Value::Int(KIND_VERTEX), n)?,
                Column::repeat(DataType::Int, &Value::Null, n)?,
                Column::repeat(DataType::Float, &Value::Null, n)?,
                batch.column(1).clone(),
                batch.column(2).clone(),
            ],
            SourceKind::Edge => vec![
                batch.column(0).clone(),
                Column::repeat(DataType::Int, &Value::Int(KIND_EDGE), n)?,
                batch.column(1).clone(),
                batch.column(2).clone(),
                Column::repeat(DataType::Blob, &Value::Null, n)?,
                Column::repeat(DataType::Bool, &Value::Null, n)?,
            ],
            SourceKind::Message => vec![
                batch.column(0).clone(),
                Column::repeat(DataType::Int, &Value::Int(KIND_MESSAGE), n)?,
                batch.column(1).clone(),
                Column::repeat(DataType::Float, &Value::Null, n)?,
                batch.column(2).clone(),
                Column::repeat(DataType::Bool, &Value::Null, n)?,
            ],
        };
        Ok(RecordBatch::new(schema.clone(), cols)?)
    }
}

/// Streams worker input as union-schema chunks, invoking `sink` once per
/// chunk so the caller (the coordinator's streaming pipeline) can partition
/// and drop each chunk immediately — the full table union never exists in
/// memory at once. Returns the **peak resident scan bytes** gauge: the most
/// un-emitted source-scan data held at any moment while assembling.
///
/// In [`InputMode::TableUnion`] the three tables are scanned directly,
/// segment by segment, and each scanned batch is re-shaped into the common
/// schema with constant/null companion columns — the same rows the UNION ALL
/// query produces, without materializing their concatenation. Each table is
/// **pulled** through a [`vertexica_sql::Database::scan_cursor`]: one
/// decoded segment batch is resident at a time, and the table lock is never
/// held across the re-shape. Chunks larger than `chunk_rows` are split.
/// [`InputMode::ThreeWayJoin`] replays the join result through the same
/// sink; see [`partition_row_plan`] for how its row placement is planned.
pub fn assemble_chunks(
    session: &GraphSession,
    mode: InputMode,
    chunk_rows: usize,
    edge_rows: bool,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<usize> {
    let chunk_rows = chunk_rows.max(1);
    match mode {
        InputMode::TableUnion => {
            let schema = union_schema();
            let mut peak_resident = 0usize;
            for (kind, projection) in union_sources(edge_rows) {
                // Pull-based: exactly one decoded scan batch in flight.
                let mut cursor = session.db().scan_cursor(&kind.table(session), projection, &[])?;
                while let Some(batch) = cursor.next_batch()? {
                    peak_resident = peak_resident.max(batch.estimated_bytes());
                    emit_capped(kind.reshape(&batch, &schema)?, chunk_rows, sink)?;
                }
            }
            Ok(peak_resident)
        }
        InputMode::ThreeWayJoin => assemble_join_chunks(session, chunk_rows, sink),
    }
}

/// Feeds `chunk` to the sink, split into `chunk_rows`-row pieces when
/// oversized.
fn emit_capped(
    chunk: RecordBatch,
    chunk_rows: usize,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<()> {
    let n = chunk.num_rows();
    if n <= chunk_rows {
        return sink(chunk);
    }
    let mut start = 0;
    while start < n {
        let end = (start + chunk_rows).min(n);
        let indices: Vec<usize> = (start..end).collect();
        sink(chunk.take(&indices).map_err(VertexicaError::from)?)?;
        start = end;
    }
    Ok(())
}

/// How much input each compute partition will eventually receive, for
/// pipelined per-partition completion detection: `plan[d][p]` is the number
/// of union-schema rows hashing (on `vid`) to shard `d`, partition `p`. A
/// one-shard run reads `plan[0]`; a shard of a sharded run hands its matrix
/// to its peers, and each destination sums the column it owns.
///
/// This is how the chunk sources "declare which partitions they can still
/// touch": a cheap prescan of each source table hashes every future row
/// with the exact rule the scatter and the cross-shard split use
/// ([`vertexica_storage::partition::split_batch`]), so the moment partition
/// `p` has received its planned rows, no later chunk can touch it and its
/// compute task can launch.
///
/// * [`InputMode::TableUnion`]: only each source's **key column** is
///   prescanned (one BIGINT column out of six — the blob payloads that
///   dominate assemble are never decoded), hashed column-wise, and every
///   row counts once.
/// * [`InputMode::ThreeWayJoin`]: every re-shaped row's partition is
///   `hash(vid)` where `vid` is the probed vertex id, so placement *can* be
///   planned without running the join — the prescan replays the re-shape's
///   dedup rules (the `JoinDedup` seen-sets) over the base tables: one row per distinct
///   vertex id, plus one per distinct surviving message/edge key. This is
///   what seals the join mode's partitions.
pub fn partition_row_plan(
    session: &GraphSession,
    mode: InputMode,
    num_shards: usize,
    num_partitions: usize,
    edge_rows: bool,
) -> VertexicaResult<Vec<Vec<u64>>> {
    let num_shards = num_shards.max(1);
    let num_partitions = num_partitions.max(1);
    let mut plan = vec![vec![0u64; num_partitions]; num_shards];
    match mode {
        InputMode::TableUnion => {
            // The sources' key columns: vertex id, edge src, message
            // recipient — each is column 0 of its table and becomes `vid`
            // (the partition key) in the union schema.
            for (kind, _) in union_sources(edge_rows) {
                let mut cursor = session.db().scan_cursor(&kind.table(session), Some(&[0]), &[])?;
                while let Some(batch) = cursor.next_batch()? {
                    if num_shards == 1 && num_partitions == 1 {
                        plan[0][0] += batch.num_rows() as u64;
                        continue;
                    }
                    // `partition_assignments`' hash, taken once for both
                    // the shard and the partition.
                    let mut hashes = vec![0u64; batch.num_rows()];
                    batch.column(0).hash_combine(&mut hashes);
                    let part = |h: u64| (h % num_partitions as u64) as usize;
                    if num_shards == 1 {
                        let plan = &mut plan[0];
                        hashes.into_iter().for_each(|h| plan[part(h)] += 1);
                    } else {
                        let shard = |h: u64| (h % num_shards as u64) as usize;
                        hashes.into_iter().for_each(|h| plan[shard(h)][part(h)] += 1);
                    }
                }
            }
        }
        InputMode::ThreeWayJoin => {
            let mut dedup = JoinDedup::default();
            let mut place = |vid: i64| {
                use vertexica_storage::partition::int_key_partition;
                let (d, p) =
                    (int_key_partition(vid, num_shards), int_key_partition(vid, num_partitions));
                plan[d][p] += 1;
            };
            // Every vertex contributes exactly one KIND_VERTEX row. A NULL
            // id would fail assembly loudly; skip it here so the prescan
            // errors in the same place the re-shape does.
            let mut cursor = session.db().scan_cursor(&session.vertex_table(), Some(&[0]), &[])?;
            while let Some(batch) = cursor.next_batch()? {
                let ids = batch.column(0);
                for i in 0..batch.num_rows() {
                    if let Some(id) = ids.value(i).as_int() {
                        if dedup.seen_vertex.insert(id) {
                            place(id);
                        }
                    }
                }
            }
            // Messages: one row per distinct surviving message key, placed
            // at its recipient. Messages to unknown vertices never survive
            // the LEFT JOIN from the vertex table.
            let mut cursor = session.db().scan_cursor(&session.message_table(), None, &[])?;
            while let Some(batch) = cursor.next_batch()? {
                for i in 0..batch.num_rows() {
                    let row = batch.row(i);
                    let Some(recipient) = row[0].as_int() else { continue };
                    if !dedup.seen_vertex.contains(&recipient) {
                        continue;
                    }
                    if let Some(key) = msg_dedup_key(recipient, &row[1], &row[2]) {
                        if dedup.seen_msg.insert(key) {
                            place(recipient);
                        }
                    }
                }
            }
            // Edges: one row per distinct surviving edge key, placed at its
            // source vertex.
            let mut cursor =
                session.db().scan_cursor(&session.edge_table(), Some(&[0, 1, 2]), &[])?;
            while let Some(batch) = cursor.next_batch()? {
                for i in 0..batch.num_rows() {
                    let row = batch.row(i);
                    let Some(src) = row[0].as_int() else { continue };
                    if !dedup.seen_vertex.contains(&src) {
                        continue;
                    }
                    if let Some(key) = edge_dedup_key(src, &row[1], &row[2]) {
                        if dedup.seen_edge.insert(key) {
                            place(src);
                        }
                    }
                }
            }
        }
    }
    Ok(plan)
}

/// The running seen-sets that deduplicate the 3-way join's per-vertex
/// `edges × messages` cartesian blowup back into one union-schema row per
/// vertex / surviving message / surviving edge. Shared — keys and rules —
/// between the re-shape itself and the [`partition_row_plan`] prescan, so
/// the plan the prescan hands the sealing partitioner is exactly what the
/// re-shape will deliver (any drift is a loud plan violation at runtime).
#[derive(Default)]
struct JoinDedup {
    seen_vertex: FxHashSet<i64>,
    seen_msg: FxHashSet<(i64, i64, Vec<u8>)>,
    seen_edge: FxHashSet<(i64, i64, u64)>,
}

/// Dedup key of a message row at `recipient`: `None` when the sender is
/// NULL (the re-shape drops such rows, exactly like an unmatched LEFT JOIN
/// slot). A NULL payload collapses with an empty one — a property of the
/// join formulation, preserved bit-for-bit from the original re-shape.
fn msg_dedup_key(recipient: i64, sender: &Value, value: &Value) -> Option<(i64, i64, Vec<u8>)> {
    let sender = sender.as_int()?;
    let bytes = value.as_blob().map(|b| b.to_vec()).unwrap_or_default();
    Some((recipient, sender, bytes))
}

/// Dedup key of an edge row at `src`: `None` when `dst` is NULL. A NULL
/// weight collapses with the default weight 1.0 (join-formulation property,
/// preserved from the original re-shape).
fn edge_dedup_key(src: i64, dst: &Value, weight: &Value) -> Option<(i64, i64, u64)> {
    let dst = dst.as_int()?;
    let w = weight.as_float().unwrap_or(1.0);
    Some((src, dst, w.to_bits()))
}

/// Schema of the 3-way join result:
/// `(id, value, halted, sender, mvalue, dst, weight)`.
fn joined_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("id", DataType::Int),
        Field::new("value", DataType::Blob),
        Field::new("halted", DataType::Bool),
        Field::new("sender", DataType::Int),
        Field::new("mvalue", DataType::Blob),
        Field::new("dst", DataType::Int),
        Field::new("weight", DataType::Float),
    ])
}

/// Re-shapes one joined batch into union-schema rows, deduplicating against
/// the running seen-sets, and emits the survivors through `sink`.
fn reshape_joined_batch(
    batch: &RecordBatch,
    dedup: &mut JoinDedup,
    chunk_rows: usize,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<()> {
    let schema = union_schema();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..batch.num_rows() {
        let r = batch.row(i);
        let vid = r[0]
            .as_int()
            .ok_or_else(|| VertexicaError::Runtime("join input: vertex id is null".into()))?;
        if dedup.seen_vertex.insert(vid) {
            rows.push(vec![
                Value::Int(vid),
                Value::Int(KIND_VERTEX),
                Value::Null,
                Value::Null,
                r[1].clone(),
                r[2].clone(),
            ]);
        }
        if let Some(key) = msg_dedup_key(vid, &r[3], &r[4]) {
            if !dedup.seen_msg.contains(&key) {
                rows.push(vec![
                    Value::Int(vid),
                    Value::Int(KIND_MESSAGE),
                    Value::Int(key.1),
                    Value::Null,
                    Value::Blob(key.2.clone()),
                    Value::Null,
                ]);
                dedup.seen_msg.insert(key);
            }
        }
        if let Some(key) = edge_dedup_key(vid, &r[5], &r[6]) {
            if dedup.seen_edge.insert(key) {
                rows.push(vec![
                    Value::Int(vid),
                    Value::Int(KIND_EDGE),
                    Value::Int(key.1),
                    Value::Float(f64::from_bits(key.2)),
                    Value::Null,
                    Value::Null,
                ]);
            }
        }
    }
    if !rows.is_empty() {
        emit_capped(RecordBatch::from_rows(schema, &rows)?, chunk_rows, sink)?;
    }
    Ok(())
}

/// The naive baseline: a 3-way join producing the per-vertex cartesian
/// product of edges × messages, re-shaped (with deduplication) into the
/// common schema so the same worker can consume it. The join cost *and* the
/// dedup cost are the point of the ablation. Returns the peak resident scan
/// bytes gauge (see [`assemble_chunks`]).
///
/// The join **streams** through the engine's hash-join primitive: the
/// message and edge tables are hashed once as build sides
/// ([`vertexica_sql::JoinBuild`], recipient/src keys), and the vertex table
/// — the LEFT JOIN's preserved probe side — is pulled batch-by-batch through
/// a scan cursor; each probe batch's `v ⟕ m ⟕ e` rows are composed,
/// re-shaped and emitted before the next batch is pulled. Only the build
/// sides and the key-only seen-sets stay resident.
///
/// Limitation (inherent to the join formulation): duplicate edges and
/// byte-identical duplicate messages to the same vertex collapse. The default
/// union mode has no such restriction.
fn assemble_join_chunks(
    session: &GraphSession,
    chunk_rows: usize,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<usize> {
    let mut dedup = JoinDedup::default();
    let db = session.db();
    let m_build = db.hash_join_build(&session.message_table(), None, vec![0])?;
    let e_build = db.hash_join_build(&session.edge_table(), Some(&[0, 1, 2]), vec![0])?;
    let builds_resident = m_build.batch().estimated_bytes() + e_build.batch().estimated_bytes();
    let mut peak_resident = builds_resident;

    let mut cursor = db.scan_cursor(&session.vertex_table(), None, &[])?;
    while let Some(vbatch) = cursor.next_batch()? {
        peak_resident = peak_resident.max(builds_resident + vbatch.estimated_bytes());
        let joined = three_way_join_batch(&vbatch, &m_build, &e_build)?;
        reshape_joined_batch(&joined, &mut dedup, chunk_rows, sink)?;
    }
    Ok(peak_resident)
}

/// Composes one probe batch's `v ⟕ m ⟕ e` rows: each vertex row fans out to
/// the cartesian product of its message matches × edge matches (LEFT JOIN
/// semantics — an empty side contributes one NULL slot), exactly the rows
/// the SQL formulation produces for those vertices.
fn three_way_join_batch(
    vbatch: &RecordBatch,
    m_build: &JoinBuild,
    e_build: &JoinBuild,
) -> VertexicaResult<RecordBatch> {
    let m_matches = m_build.probe_matches(vbatch, &[0])?;
    let e_matches = e_build.probe_matches(vbatch, &[0])?;
    // One index vector per joined table; `NO_ROW` is an empty side's NULL.
    let (mut vi, mut mi, mut ei) = (Vec::new(), Vec::new(), Vec::new());
    for (v, (ms, es)) in m_matches.iter().zip(&e_matches).enumerate() {
        let ms: &[usize] = if ms.is_empty() { &[NO_ROW] } else { ms };
        let es: &[usize] = if es.is_empty() { &[NO_ROW] } else { es };
        for &m in ms {
            vi.extend(std::iter::repeat_n(v, es.len()));
            mi.extend(std::iter::repeat_n(m, es.len()));
            ei.extend_from_slice(es);
        }
    }

    // Gather the 7 joined columns: v.(id, value, halted), m.(sender,
    // value), e.(dst, weight).
    let schema = joined_schema();
    let (mbatch, ebatch) = (m_build.batch(), e_build.batch());
    let cols = vec![
        vbatch.column(0).take(&vi),
        vbatch.column(1).take(&vi),
        vbatch.column(2).take(&vi),
        take_or_null(mbatch.column(1), &mi),
        take_or_null(mbatch.column(2), &mi),
        take_or_null(ebatch.column(1), &ei),
        take_or_null(ebatch.column(2), &ei),
    ];
    Ok(RecordBatch::new(schema, cols)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::message_batch;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::VertexData;
    use vertexica_sql::Database;

    fn session_with_graph() -> GraphSession {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1), (0, 2), (1, 2)])).unwrap();
        g
    }

    /// The paper's table union as one SQL statement: the oracle the
    /// re-shaping scan in [`assemble_chunks`] must reproduce row for row.
    fn sql_union(session: &GraphSession, edge_rows: bool) -> Vec<RecordBatch> {
        let edges = if edge_rows {
            format!(
                "SELECT src, 1, dst, weight, CAST(NULL AS VARBINARY), CAST(NULL AS BOOLEAN) \
                 FROM {} UNION ALL ",
                session.edge_table()
            )
        } else {
            String::new()
        };
        let sql = format!(
            "SELECT id AS vid, 0 AS kind, CAST(NULL AS BIGINT) AS other, \
                    CAST(NULL AS FLOAT) AS weight, value AS payload, halted \
             FROM {v} \
             UNION ALL \
             {edges}\
             SELECT recipient, 2, sender, CAST(NULL AS FLOAT), value, CAST(NULL AS BOOLEAN) \
             FROM {m}",
            v = session.vertex_table(),
            m = session.message_table(),
        );
        session.db().execute(&sql).unwrap().into_batches().unwrap()
    }

    /// The 3-way join as one SQL statement, re-shaped with the same dedup
    /// rules: the oracle for the streaming hash join in [`assemble_chunks`].
    fn sql_join(session: &GraphSession) -> Vec<RecordBatch> {
        let sql = format!(
            "SELECT v.id, v.value, v.halted, m.sender, m.value AS mvalue, e.dst, e.weight \
             FROM {v} v \
             LEFT JOIN {m} m ON m.recipient = v.id \
             LEFT JOIN {e} e ON e.src = v.id",
            v = session.vertex_table(),
            e = session.edge_table(),
            m = session.message_table(),
        );
        let mut dedup = JoinDedup::default();
        let mut out = Vec::new();
        for batch in session.db().execute(&sql).unwrap().into_batches().unwrap() {
            reshape_joined_batch(&batch, &mut dedup, STREAM_CHUNK_ROWS, &mut |b| {
                out.push(b);
                Ok(())
            })
            .unwrap();
        }
        out
    }

    fn count_kind(batches: &[RecordBatch], kind: i64) -> usize {
        batches
            .iter()
            .flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i)))
            .filter(|r| r[1] == Value::Int(kind))
            .count()
    }

    fn collect_chunks(g: &GraphSession, mode: InputMode, edge_rows: bool) -> Vec<RecordBatch> {
        let mut chunks = Vec::new();
        assemble_chunks(g, mode, STREAM_CHUNK_ROWS, edge_rows, &mut |b| {
            chunks.push(b);
            Ok(())
        })
        .unwrap();
        chunks
    }

    fn sorted_rows(batches: &[RecordBatch]) -> Vec<Vec<u8>> {
        let mut rows: Vec<Vec<u8>> =
            batches.iter().flat_map(|b| b.rows()).map(|r| format!("{r:?}").into_bytes()).collect();
        rows.sort();
        rows
    }

    #[test]
    fn union_contains_all_three_kinds() {
        let g = session_with_graph();
        // Two messages to vertex 2.
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (2, 1, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let batches = collect_chunks(&g, InputMode::TableUnion, true);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
        assert_eq!(count_kind(&batches, KIND_EDGE), 3);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 2);
    }

    #[test]
    fn join_mode_reconstructs_same_multiset() {
        let g = session_with_graph();
        let msgs = message_batch(&[(0, 1, 1.5f64.to_bytes()), (0, 2, 2.5f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let union = collect_chunks(&g, InputMode::TableUnion, true);
        let join = collect_chunks(&g, InputMode::ThreeWayJoin, true);
        for kind in [KIND_VERTEX, KIND_EDGE, KIND_MESSAGE] {
            assert_eq!(count_kind(&union, kind), count_kind(&join, kind), "kind {kind} mismatch");
        }
    }

    #[test]
    fn empty_message_table_still_assembles() {
        let g = session_with_graph();
        let batches = collect_chunks(&g, InputMode::TableUnion, true);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 0);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
    }

    #[test]
    fn streamed_chunks_match_materialized_union() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let streamed = collect_chunks(&g, InputMode::TableUnion, true);
        // Same rows (as a multiset) as the SQL UNION ALL, canonical schema.
        assert_eq!(sorted_rows(&sql_union(&g, true)), sorted_rows(&streamed));
        for chunk in &streamed {
            assert_eq!(chunk.schema().len(), union_schema().len());
        }
        // At least one chunk per non-empty source table, so no chunk
        // reaches the full union size on its own.
        assert!(streamed.len() >= 3);
    }

    #[test]
    fn streamed_join_mode_matches_materialized_join() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        let streamed = collect_chunks(&g, InputMode::ThreeWayJoin, true);
        assert_eq!(sorted_rows(&sql_join(&g)), sorted_rows(&streamed));
    }

    #[test]
    fn streaming_scan_gauge_stays_below_eager() {
        // Several segments per source so one in-flight batch is genuinely
        // smaller than a whole table.
        let g = session_with_graph();
        for _ in 0..4 {
            let msgs =
                message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
            g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        }
        let streamed =
            assemble_chunks(&g, InputMode::TableUnion, STREAM_CHUNK_ROWS, true, &mut |_| Ok(()))
                .unwrap();
        // What an eager scan holds: the largest source table, whole.
        let eager = union_sources(true)
            .map(|(kind, projection)| {
                let batches = g.db().scan_table(&kind.table(&g), projection, &[]).unwrap();
                batches.iter().map(|b| b.estimated_bytes()).sum::<usize>()
            })
            .max()
            .unwrap();
        assert!(streamed > 0);
        assert!(
            streamed < eager,
            "pull-based scan should hold one batch, not a table: {streamed} vs {eager}"
        );
    }

    #[test]
    fn oversized_chunks_are_split() {
        let rows: Vec<Vec<Value>> = (0..(STREAM_CHUNK_ROWS + 10))
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(KIND_VERTEX),
                    Value::Null,
                    Value::Null,
                    Value::Blob(1.0f64.to_bytes()),
                    Value::Bool(false),
                ]
            })
            .collect();
        let big = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        let mut sizes = Vec::new();
        emit_capped(big, STREAM_CHUNK_ROWS, &mut |b| {
            sizes.push(b.num_rows());
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes, vec![STREAM_CHUNK_ROWS, 10]);
    }

    #[test]
    fn custom_chunk_cap_bounds_every_chunk() {
        let g = session_with_graph();
        let mut sizes = Vec::new();
        assemble_chunks(&g, InputMode::TableUnion, 2, true, &mut |b| {
            sizes.push(b.num_rows());
            Ok(())
        })
        .unwrap();
        assert!(sizes.iter().all(|&n| n <= 2), "cap violated: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 6); // 3 vertices + 3 edges
    }

    /// The plan-vs-scatter invariant for a given mode: the prescan's
    /// per-(shard, partition) counts must equal what assemble actually
    /// delivers through the cross-shard split and the partition scatter, at
    /// several shard and partition counts.
    fn assert_plan_matches_scatter(g: &GraphSession, mode: InputMode, edge_rows: bool) {
        use vertexica_storage::partition::{split_batch, StreamingPartitioner};
        for shards in [1usize, 2, 3] {
            for parts in [1usize, 3, 8] {
                let plan = partition_row_plan(g, mode, shards, parts, edge_rows).unwrap();
                let mut partitioners: Vec<_> =
                    (0..shards).map(|_| StreamingPartitioner::new(vec![0], parts)).collect();
                assemble_chunks(g, mode, STREAM_CHUNK_ROWS, edge_rows, &mut |b| {
                    for (d, piece) in split_batch(&b, &[0], shards)? {
                        partitioners[d].push(&piece)?;
                    }
                    Ok(())
                })
                .unwrap();
                let scattered: Vec<Vec<u64>> = partitioners
                    .into_iter()
                    .map(|p| {
                        p.finish()
                            .iter()
                            .map(|p| p.iter().map(|b| b.num_rows() as u64).sum())
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    plan, scattered,
                    "{mode:?}/{shards} shards/{parts} partitions: plan must equal the real scatter"
                );
            }
        }
    }

    #[test]
    fn partition_row_plan_matches_actual_scatter() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        for edge_rows in [true, false] {
            assert_plan_matches_scatter(&g, InputMode::TableUnion, edge_rows);
        }
    }

    /// With `edge_rows` off (the workers read the edge projection) the
    /// union carries the vertex and message tables only.
    #[test]
    fn without_edge_rows_the_union_leaves_the_edge_table_out() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        let chunks = collect_chunks(&g, InputMode::TableUnion, false);
        let kinds = [KIND_VERTEX, KIND_EDGE, KIND_MESSAGE].map(|k| count_kind(&chunks, k));
        assert_eq!(kinds, [3, 0, 2]);
        assert_eq!(sorted_rows(&sql_union(&g, false)), sorted_rows(&chunks));
        let plan = partition_row_plan(&g, InputMode::TableUnion, 1, 3, false).unwrap();
        assert_eq!(plan.iter().flatten().sum::<u64>(), 5);
    }

    /// The join mode has a row plan too (it is how its partitions seal):
    /// the prescan replays the dedup rules over the base tables, including
    /// duplicate edges/messages (which collapse) and messages to unknown
    /// vertices (which the LEFT JOIN drops).
    #[test]
    fn join_mode_row_plan_matches_actual_scatter() {
        let g = session_with_graph();
        // Duplicate messages (collapse), a message to a missing vertex
        // (dropped by the join), and a duplicate edge (collapses).
        let msgs = message_batch(&[
            (2, 0, 1.0f64.to_bytes()),
            (2, 0, 1.0f64.to_bytes()),
            (1, 0, 2.0f64.to_bytes()),
            (99, 0, 3.0f64.to_bytes()),
        ])
        .unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        g.db()
            .execute(&format!(
                "INSERT INTO {} (src, dst, weight, created) VALUES (0, 1, 1.0, 0)",
                g.edge_table()
            ))
            .unwrap();
        assert_plan_matches_scatter(&g, InputMode::ThreeWayJoin, true);
    }

    #[test]
    fn join_mode_streams_multiple_chunks_with_global_dedup() {
        let g = session_with_graph();
        let msgs = message_batch(&[(0, 1, 1.5f64.to_bytes()), (0, 2, 2.5f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        // A tiny cap forces many chunks out of the join replay; dedup must
        // still be global (same multiset as the one-shot SQL join).
        let mut chunks = Vec::new();
        assemble_chunks(&g, InputMode::ThreeWayJoin, 2, true, &mut |b| {
            chunks.push(b);
            Ok(())
        })
        .unwrap();
        assert!(chunks.len() > 1, "expected the join replay to stream in pieces");
        assert!(chunks.iter().all(|b| b.num_rows() <= 2));
        assert_eq!(sorted_rows(&sql_join(&g)), sorted_rows(&chunks));
    }
}
