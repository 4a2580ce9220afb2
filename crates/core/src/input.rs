//! Worker input assembly — the paper's **Table Unions** optimization (§2.3).
//!
//! To run a superstep the workers need, per vertex: its value and halt state,
//! its outgoing edges, and its incoming messages. "Traditional database
//! wisdom" would 3-way join the vertex, edge and message tables — and explode
//! (a vertex with *E* edges and *M* messages yields *E × M* join rows).
//! Vertexica instead renames the three tables to a **common schema** and
//! `UNION ALL`s them; workers then tell the tuple kinds apart. Both
//! strategies are implemented here (the join baseline feeds the ablation
//! benchmark), and both are expressed as actual SQL against the engine.

use std::sync::Arc;

use vertexica_common::FxHashSet;
use vertexica_sql::JoinBuild;
use vertexica_storage::{Column, ColumnBuilder, DataType, Field, RecordBatch, Schema, Value};

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

/// Assembles worker input in the configured mode, fully materialized.
///
/// This is the original (pre-streaming) form, kept for the materialized
/// pipeline and for equivalence testing; the superstep hot path uses
/// [`assemble_chunks`]. `streaming_scan` only affects the join mode's
/// engine-side execution (streaming vs eager SQL join) — the output is
/// bitwise-identical either way.
///
/// `edge_rows` (here and in [`assemble_chunks`] / [`partition_row_plan`])
/// says whether the table union carries the edge table. It is false when
/// the workers read edges from the session's
/// [`EdgeProjection`](crate::projection::EdgeProjection); the 3-way join
/// always carries its edges and ignores it.
pub fn assemble(
    session: &GraphSession,
    mode: InputMode,
    streaming_scan: bool,
    edge_rows: bool,
) -> VertexicaResult<Vec<RecordBatch>> {
    match mode {
        InputMode::TableUnion => assemble_union(session, edge_rows),
        InputMode::ThreeWayJoin => assemble_join(session, streaming_scan),
    }
}

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
/// query produces, without materializing their concatenation. With
/// `streaming_scan` (the default) each table is **pulled** through a
/// [`vertexica_sql::Database::scan_cursor`]: one decoded segment batch is
/// resident at a time, and the table lock is never held across the
/// re-shape. With it off, each table's batches are materialized eagerly (the
/// pre-cursor behavior, kept for ablation) — the gauge then reports whole
/// tables. Chunks larger than `chunk_rows` are split.
/// [`InputMode::ThreeWayJoin`] replays the join result through the same
/// sink; see [`partition_row_plan`] for how its row placement is planned.
pub fn assemble_chunks(
    session: &GraphSession,
    mode: InputMode,
    chunk_rows: usize,
    streaming_scan: bool,
    edge_rows: bool,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<usize> {
    let chunk_rows = chunk_rows.max(1);
    match mode {
        InputMode::TableUnion => {
            let schema = union_schema();
            let mut peak_resident = 0usize;
            for (kind, projection) in union_sources(edge_rows) {
                let table = kind.table(session);
                if streaming_scan {
                    // Pull-based: exactly one decoded scan batch in flight.
                    let mut cursor = session.db().scan_cursor(&table, projection, &[])?;
                    while let Some(batch) = cursor.next_batch()? {
                        peak_resident = peak_resident.max(batch.estimated_bytes());
                        emit_capped(kind.reshape(&batch, &schema)?, chunk_rows, sink)?;
                    }
                } else {
                    // Eager: the whole table's batches are resident while
                    // its chunks re-shape (pre-cursor behavior, ablation).
                    let batches = session.db().scan_table(&table, projection, &[])?;
                    let resident: usize = batches.iter().map(|b| b.estimated_bytes()).sum();
                    peak_resident = peak_resident.max(resident);
                    for batch in &batches {
                        emit_capped(kind.reshape(batch, &schema)?, chunk_rows, sink)?;
                    }
                }
            }
            Ok(peak_resident)
        }
        InputMode::ThreeWayJoin => assemble_join_chunks(session, chunk_rows, streaming_scan, sink),
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
/// pipelined per-partition completion detection: `plan[p]` is the number of
/// union-schema rows hashing (on `vid`) to partition `p`.
///
/// This is how the chunk sources "declare which partitions they can still
/// touch": a cheap prescan of each source table hashes every future row
/// with the exact rule the scatter uses, so the moment partition `p` has
/// received `plan[p]` rows, no later chunk can touch it and its compute
/// task can launch.
///
/// * [`InputMode::TableUnion`]: only each source's **key column** is
///   prescanned (one BIGINT column out of six — the blob payloads that
///   dominate assemble are never decoded) and every row counts once.
/// * [`InputMode::ThreeWayJoin`]: every re-shaped row's partition is
///   `hash(vid)` where `vid` is the probed vertex id, so placement *can* be
///   planned without running the join — the prescan replays the re-shape's
///   dedup rules (the `JoinDedup` seen-sets) over the base tables: one row per distinct
///   vertex id, plus one per distinct surviving message/edge key. This is
///   what seals the join mode's partitions (the pre-cursor implementation
///   kept them open-ended because the join only existed as a materialized
///   SQL result).
pub fn partition_row_plan(
    session: &GraphSession,
    mode: InputMode,
    num_partitions: usize,
    edge_rows: bool,
) -> VertexicaResult<Option<Vec<u64>>> {
    let num_partitions = num_partitions.max(1);
    let mut plan = vec![0u64; num_partitions];
    match mode {
        InputMode::TableUnion => {
            // The sources' key columns: vertex id, edge src, message
            // recipient — each is column 0 of its table and becomes `vid`
            // (the partition key) in the union schema.
            for (kind, _) in union_sources(edge_rows) {
                let mut cursor = session.db().scan_cursor(&kind.table(session), Some(&[0]), &[])?;
                while let Some(batch) = cursor.next_batch()? {
                    if num_partitions == 1 {
                        plan[0] += batch.num_rows() as u64;
                        continue;
                    }
                    let assign = vertexica_storage::partition::partition_assignments(
                        std::slice::from_ref(&batch),
                        &[0],
                        num_partitions,
                    );
                    for &p in &assign[0] {
                        plan[p] += 1;
                    }
                }
            }
        }
        InputMode::ThreeWayJoin => {
            let mut dedup = JoinDedup::default();
            let part =
                |vid: i64| vertexica_storage::partition::int_key_partition(vid, num_partitions);
            // Every vertex contributes exactly one KIND_VERTEX row. A NULL
            // id would fail assembly loudly; skip it here so the prescan
            // errors in the same place the re-shape does.
            let mut cursor = session.db().scan_cursor(&session.vertex_table(), Some(&[0]), &[])?;
            while let Some(batch) = cursor.next_batch()? {
                let ids = batch.column(0);
                for i in 0..batch.num_rows() {
                    if let Some(id) = ids.value(i).as_int() {
                        if dedup.seen_vertex.insert(id) {
                            plan[part(id)] += 1;
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
                            plan[part(recipient)] += 1;
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
                            plan[part(src)] += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(Some(plan))
}

/// The paper's strategy: rename to a common schema and UNION ALL.
fn assemble_union(session: &GraphSession, edge_rows: bool) -> VertexicaResult<Vec<RecordBatch>> {
    let edges = if edge_rows {
        format!(
            "SELECT src, 1, dst, weight, CAST(NULL AS VARBINARY), CAST(NULL AS BOOLEAN) FROM {} \
             UNION ALL ",
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
    let batches = session.db().execute(&sql)?.into_batches()?;
    // Re-stamp with the canonical schema (names already line up).
    let schema = union_schema();
    batches
        .into_iter()
        .map(|b| RecordBatch::new(schema.clone(), b.columns().to_vec()).map_err(Into::into))
        .collect()
}

/// The naive baseline, materialized: collects the streaming reshape of
/// [`assemble_join_chunks`] (kept for the materialized pipeline and tests).
fn assemble_join(
    session: &GraphSession,
    streaming_scan: bool,
) -> VertexicaResult<Vec<RecordBatch>> {
    let mut out = Vec::new();
    assemble_join_chunks(session, STREAM_CHUNK_ROWS, streaming_scan, &mut |b| {
        out.push(b);
        Ok(())
    })?;
    Ok(out)
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

/// Schema of the (streamed or SQL-materialized) 3-way join result:
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
/// With `streaming_scan` (the default) the join itself **streams** through
/// the engine's hash-join primitive: the message and edge tables are hashed
/// once as build sides ([`vertexica_sql::JoinBuild`], recipient/src keys),
/// and the vertex table — the LEFT JOIN's preserved probe side — is pulled
/// batch-by-batch through a scan cursor; each probe batch's `v ⟕ m ⟕ e`
/// rows are composed, re-shaped and emitted before the next batch is
/// pulled. Only the build sides and the key-only seen-sets stay resident.
/// With it off, the whole join result is materialized by the SQL engine
/// first (the pre-cursor behavior, kept for ablation); the re-shape still
/// streams batch by batch.
///
/// Limitation (inherent to the join formulation): duplicate edges and
/// byte-identical duplicate messages to the same vertex collapse. The default
/// union mode has no such restriction.
fn assemble_join_chunks(
    session: &GraphSession,
    chunk_rows: usize,
    streaming_scan: bool,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<usize> {
    let mut dedup = JoinDedup::default();

    if !streaming_scan {
        let sql = format!(
            "SELECT v.id, v.value, v.halted, m.sender, m.value AS mvalue, e.dst, e.weight \
             FROM {v} v \
             LEFT JOIN {m} m ON m.recipient = v.id \
             LEFT JOIN {e} e ON e.src = v.id",
            v = session.vertex_table(),
            e = session.edge_table(),
            m = session.message_table(),
        );
        let batches = session.db().execute(&sql)?.into_batches()?;
        let resident: usize = batches.iter().map(|b| b.estimated_bytes()).sum();
        for batch in &batches {
            reshape_joined_batch(batch, &mut dedup, chunk_rows, sink)?;
        }
        return Ok(resident);
    }

    // Streaming: hash the two build sides once, then pull the probe side.
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
    let mut triples: Vec<(usize, Option<usize>, Option<usize>)> = Vec::new();
    for v in 0..vbatch.num_rows() {
        let ms = &m_matches[v];
        let es = &e_matches[v];
        match (ms.is_empty(), es.is_empty()) {
            (true, true) => triples.push((v, None, None)),
            (false, true) => triples.extend(ms.iter().map(|&m| (v, Some(m), None))),
            (true, false) => triples.extend(es.iter().map(|&e| (v, None, Some(e)))),
            (false, false) => {
                for &m in ms {
                    triples.extend(es.iter().map(|&e| (v, Some(m), Some(e))));
                }
            }
        }
    }

    // Gather the 7 joined columns: v.(id, value, halted), m.(sender,
    // value), e.(dst, weight).
    let schema = joined_schema();
    let mbatch = m_build.batch();
    let ebatch = e_build.batch();
    let mut cols = Vec::with_capacity(schema.len());
    let sources: [(&RecordBatch, usize, u8); 7] = [
        (vbatch, 0, 0),
        (vbatch, 1, 0),
        (vbatch, 2, 0),
        (mbatch, 1, 1),
        (mbatch, 2, 1),
        (ebatch, 1, 2),
        (ebatch, 2, 2),
    ];
    for (field, (batch, ci, side)) in schema.fields.iter().zip(sources) {
        let src = batch.column(ci);
        let mut b = ColumnBuilder::with_capacity(field.dtype, triples.len());
        for &(v, m, e) in &triples {
            let idx = match side {
                0 => Some(v),
                1 => m,
                _ => e,
            };
            match idx {
                Some(i) => b.push(src.value(i)).map_err(VertexicaError::from)?,
                None => b.push_null(),
            }
        }
        cols.push(b.finish());
    }
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

    fn count_kind(batches: &[RecordBatch], kind: i64) -> usize {
        batches
            .iter()
            .flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i)))
            .filter(|r| r[1] == Value::Int(kind))
            .count()
    }

    #[test]
    fn union_contains_all_three_kinds() {
        let g = session_with_graph();
        // Two messages to vertex 2.
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (2, 1, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let batches = assemble(&g, InputMode::TableUnion, true, true).unwrap();
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
        assert_eq!(count_kind(&batches, KIND_EDGE), 3);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 2);
    }

    #[test]
    fn join_mode_reconstructs_same_multiset() {
        let g = session_with_graph();
        let msgs = message_batch(&[(0, 1, 1.5f64.to_bytes()), (0, 2, 2.5f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let union = assemble(&g, InputMode::TableUnion, true, true).unwrap();
        for streaming_scan in [true, false] {
            let join = assemble(&g, InputMode::ThreeWayJoin, streaming_scan, true).unwrap();
            for kind in [KIND_VERTEX, KIND_EDGE, KIND_MESSAGE] {
                assert_eq!(
                    count_kind(&union, kind),
                    count_kind(&join, kind),
                    "kind {kind} mismatch (streaming_scan={streaming_scan})"
                );
            }
        }
    }

    #[test]
    fn empty_message_table_still_assembles() {
        let g = session_with_graph();
        let batches = assemble(&g, InputMode::TableUnion, true, true).unwrap();
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 0);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
    }

    fn collect_chunks(g: &GraphSession, mode: InputMode, streaming_scan: bool) -> Vec<RecordBatch> {
        let mut chunks = Vec::new();
        assemble_chunks(g, mode, STREAM_CHUNK_ROWS, streaming_scan, true, &mut |b| {
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
    fn streamed_chunks_match_materialized_union() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let materialized = assemble(&g, InputMode::TableUnion, true, true).unwrap();
        for streaming_scan in [true, false] {
            let streamed = collect_chunks(&g, InputMode::TableUnion, streaming_scan);
            // Same rows (as a multiset), same canonical schema.
            assert_eq!(
                sorted_rows(&materialized),
                sorted_rows(&streamed),
                "streaming_scan={streaming_scan}"
            );
            for chunk in &streamed {
                assert_eq!(chunk.schema().len(), union_schema().len());
            }
            // Streaming produced at least one chunk per non-empty source
            // table, so no chunk reaches the full union size on its own.
            assert!(streamed.len() >= 3);
        }
    }

    #[test]
    fn streamed_join_mode_matches_materialized_join() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        // All four {materialized, chunked} × {streaming join, eager SQL
        // join} combinations must produce the same multiset.
        let reference = assemble(&g, InputMode::ThreeWayJoin, false, true).unwrap();
        for streaming_scan in [true, false] {
            let materialized = assemble(&g, InputMode::ThreeWayJoin, streaming_scan, true).unwrap();
            let streamed = collect_chunks(&g, InputMode::ThreeWayJoin, streaming_scan);
            assert_eq!(
                sorted_rows(&reference),
                sorted_rows(&materialized),
                "streaming_scan={streaming_scan}"
            );
            assert_eq!(
                sorted_rows(&reference),
                sorted_rows(&streamed),
                "streaming_scan={streaming_scan}"
            );
        }
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
        let gauge = |streaming_scan: bool| {
            assemble_chunks(
                &g,
                InputMode::TableUnion,
                STREAM_CHUNK_ROWS,
                streaming_scan,
                true,
                &mut |_| Ok(()),
            )
            .unwrap()
        };
        let (streamed, eager) = (gauge(true), gauge(false));
        assert!(streamed > 0 && eager > 0);
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
        assemble_chunks(&g, InputMode::TableUnion, 2, true, true, &mut |b| {
            sizes.push(b.num_rows());
            Ok(())
        })
        .unwrap();
        assert!(sizes.iter().all(|&n| n <= 2), "cap violated: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 6); // 3 vertices + 3 edges
    }

    /// The plan-vs-scatter invariant for a given mode and scan path: the
    /// prescan's per-partition counts must equal what assemble actually
    /// delivers, at several partition counts.
    fn assert_plan_matches_scatter(
        g: &GraphSession,
        mode: InputMode,
        streaming_scan: bool,
        edge_rows: bool,
    ) {
        use vertexica_storage::partition::StreamingPartitioner;
        for parts in [1usize, 3, 8] {
            let plan = partition_row_plan(g, mode, parts, edge_rows).unwrap().unwrap();
            assert_eq!(plan.len(), parts);
            let mut partitioner = StreamingPartitioner::new(vec![0], parts);
            assemble_chunks(g, mode, STREAM_CHUNK_ROWS, streaming_scan, edge_rows, &mut |b| {
                partitioner.push(&b).map_err(VertexicaError::from)
            })
            .unwrap();
            let scattered: Vec<u64> = partitioner
                .finish()
                .iter()
                .map(|p| p.iter().map(|b| b.num_rows() as u64).sum())
                .collect();
            assert_eq!(
                plan, scattered,
                "{mode:?}/{parts} partitions (streaming_scan={streaming_scan}): \
                 plan must equal the real scatter"
            );
        }
    }

    #[test]
    fn partition_row_plan_matches_actual_scatter() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        for streaming_scan in [true, false] {
            for edge_rows in [true, false] {
                assert_plan_matches_scatter(&g, InputMode::TableUnion, streaming_scan, edge_rows);
            }
        }
    }

    /// With `edge_rows` off (the workers read the edge projection) every
    /// assemble form carries the vertex and message tables only.
    #[test]
    fn without_edge_rows_the_union_leaves_the_edge_table_out() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        let materialized = assemble(&g, InputMode::TableUnion, true, false).unwrap();
        let kinds = [KIND_VERTEX, KIND_EDGE, KIND_MESSAGE].map(|k| count_kind(&materialized, k));
        assert_eq!(kinds, [3, 0, 2]);
        for streaming_scan in [true, false] {
            let mut chunks = Vec::new();
            assemble_chunks(
                &g,
                InputMode::TableUnion,
                STREAM_CHUNK_ROWS,
                streaming_scan,
                false,
                &mut |b| {
                    chunks.push(b);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(sorted_rows(&materialized), sorted_rows(&chunks));
        }
        let plan = partition_row_plan(&g, InputMode::TableUnion, 3, false).unwrap().unwrap();
        assert_eq!(plan.iter().sum::<u64>(), 5);
    }

    /// The join mode now has a row plan too (it is how its partitions seal):
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
        for streaming_scan in [true, false] {
            assert_plan_matches_scatter(&g, InputMode::ThreeWayJoin, streaming_scan, true);
        }
    }

    #[test]
    fn join_mode_streams_multiple_chunks_with_global_dedup() {
        let g = session_with_graph();
        let msgs = message_batch(&[(0, 1, 1.5f64.to_bytes()), (0, 2, 2.5f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        // A tiny cap forces many chunks out of the join replay; dedup must
        // still be global (same multiset as the one-shot reshape).
        for streaming_scan in [true, false] {
            let mut chunks = Vec::new();
            assemble_chunks(&g, InputMode::ThreeWayJoin, 2, streaming_scan, true, &mut |b| {
                chunks.push(b);
                Ok(())
            })
            .unwrap();
            assert!(chunks.len() > 1, "expected the join replay to stream in pieces");
            assert!(chunks.iter().all(|b| b.num_rows() <= 2));
            let materialized = assemble(&g, InputMode::ThreeWayJoin, streaming_scan, true).unwrap();
            assert_eq!(
                sorted_rows(&materialized),
                sorted_rows(&chunks),
                "streaming_scan={streaming_scan}"
            );
        }
    }
}
