//! Worker input assembly — the paper's **Table Unions** optimization (§2.3).
//!
//! To run a superstep the workers need, per vertex: its value and halt state,
//! its outgoing edges, and its incoming messages. "Traditional database
//! wisdom" would 3-way join the vertex, edge and message tables — and explode
//! (a vertex with *E* edges and *M* messages yields *E × M* join rows).
//! Vertexica instead renames the three tables to a **common schema** and
//! `UNION ALL`s them; workers then tell the tuple kinds apart. The rows are
//! **pulled** through the engine's scan cursors and streamed to the caller
//! chunk by chunk ([`assemble_chunks`]), each scanned batch re-shaped into the
//! common schema. The unit tests hold the stream to the equivalent SQL
//! `UNION ALL` statement. (The benchmark crate's `--exp union-vs-join`
//! ablation times that statement against the 3-way join.)

use std::sync::Arc;

use vertexica_storage::{Column, DataType, Field, RecordBatch, Schema, Value};

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

/// The three source tables of a table-union assemble, with their scan
/// projections and re-shape kinds.
const UNION_SOURCES: [(SourceKind, Option<&[usize]>); 3] = [
    (SourceKind::Vertex, None),
    // Project edges to the three consumed columns; `created`/`etype` would
    // otherwise be decoded from every segment each superstep.
    (SourceKind::Edge, Some(&[0, 1, 2])),
    (SourceKind::Message, None),
];

/// [`UNION_SOURCES`], without the edge table unless `edge_rows`. `edge_rows`
/// (here, in [`assemble_chunks`] and in [`partition_row_plan`]) is false when
/// the workers read edges from the session's
/// [`EdgeProjection`](crate::projection::EdgeProjection).
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
/// The three tables are scanned directly, segment by segment, and each
/// scanned batch is re-shaped into the common schema with constant/null
/// companion columns — the same rows the UNION ALL query produces, without
/// materializing their concatenation. Each table is **pulled** through a
/// [`vertexica_sql::Database::scan_cursor`]: one decoded segment batch is
/// resident at a time, and the table lock is never held across the
/// re-shape. Chunks larger than `chunk_rows` are split.
pub fn assemble_chunks(
    session: &GraphSession,
    chunk_rows: usize,
    edge_rows: bool,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<usize> {
    let chunk_rows = chunk_rows.max(1);
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
/// Only each source's **key column** is prescanned (one BIGINT column out
/// of six — the blob payloads that dominate assemble are never decoded),
/// hashed column-wise, and every row counts once.
pub fn partition_row_plan(
    session: &GraphSession,
    num_shards: usize,
    num_partitions: usize,
    edge_rows: bool,
) -> VertexicaResult<Vec<Vec<u64>>> {
    let num_shards = num_shards.max(1);
    let num_partitions = num_partitions.max(1);
    let mut plan = vec![vec![0u64; num_partitions]; num_shards];
    // The sources' key columns: vertex id, edge src, message recipient —
    // each is column 0 of its table and becomes `vid` (the partition key) in
    // the union schema.
    for (kind, _) in union_sources(edge_rows) {
        let mut cursor = session.db().scan_cursor(&kind.table(session), Some(&[0]), &[])?;
        while let Some(batch) = cursor.next_batch()? {
            if num_shards == 1 && num_partitions == 1 {
                plan[0][0] += batch.num_rows() as u64;
                continue;
            }
            // `partition_assignments`' hash, taken once for both the shard
            // and the partition.
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
    Ok(plan)
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

    fn count_kind(batches: &[RecordBatch], kind: i64) -> usize {
        batches
            .iter()
            .flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i)))
            .filter(|r| r[1] == Value::Int(kind))
            .count()
    }

    fn collect_chunks(g: &GraphSession, edge_rows: bool) -> Vec<RecordBatch> {
        let mut chunks = Vec::new();
        assemble_chunks(g, STREAM_CHUNK_ROWS, edge_rows, &mut |b| {
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
        // A duplicate of edge 0 -> 1: the union keeps multigraph edges.
        g.db()
            .execute(&format!(
                "INSERT INTO {} (src, dst, weight, created) VALUES (0, 1, 1.0, 0)",
                g.edge_table()
            ))
            .unwrap();
        // Three messages to vertex 2, two of them byte-identical repeats
        // from the same sender: every one arrives.
        let msgs = message_batch(&[
            (2, 0, 1.0f64.to_bytes()),
            (2, 0, 1.0f64.to_bytes()),
            (2, 1, 2.0f64.to_bytes()),
        ])
        .unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let batches = collect_chunks(&g, true);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
        assert_eq!(count_kind(&batches, KIND_EDGE), 4);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 3);
        assert_eq!(sorted_rows(&sql_union(&g, true)), sorted_rows(&batches));
    }

    #[test]
    fn empty_message_table_still_assembles() {
        let g = session_with_graph();
        let batches = collect_chunks(&g, true);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 0);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
    }

    #[test]
    fn streamed_chunks_match_materialized_union() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let streamed = collect_chunks(&g, true);
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
    fn streaming_scan_gauge_stays_below_eager() {
        // Several segments per source so one in-flight batch is genuinely
        // smaller than a whole table.
        let g = session_with_graph();
        for _ in 0..4 {
            let msgs =
                message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
            g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        }
        let streamed = assemble_chunks(&g, STREAM_CHUNK_ROWS, true, &mut |_| Ok(())).unwrap();
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
        assemble_chunks(&g, 2, true, &mut |b| {
            sizes.push(b.num_rows());
            Ok(())
        })
        .unwrap();
        assert!(sizes.iter().all(|&n| n <= 2), "cap violated: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 6); // 3 vertices + 3 edges
    }

    /// The plan-vs-scatter invariant: the prescan's
    /// per-(shard, partition) counts must equal what assemble actually
    /// delivers through the cross-shard split and the partition scatter, at
    /// several shard and partition counts.
    fn assert_plan_matches_scatter(g: &GraphSession, edge_rows: bool) {
        use vertexica_storage::partition::{split_batch, StreamingPartitioner};
        for shards in [1usize, 2, 3] {
            for parts in [1usize, 3, 8] {
                let plan = partition_row_plan(g, shards, parts, edge_rows).unwrap();
                let mut partitioners: Vec<_> =
                    (0..shards).map(|_| StreamingPartitioner::new(vec![0], parts)).collect();
                assemble_chunks(g, STREAM_CHUNK_ROWS, edge_rows, &mut |b| {
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
                    "{shards} shards/{parts} partitions: plan must equal the real scatter"
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
            assert_plan_matches_scatter(&g, edge_rows);
        }
    }

    /// With `edge_rows` off (the workers read the edge projection) the
    /// union carries the vertex and message tables only.
    #[test]
    fn without_edge_rows_the_union_leaves_the_edge_table_out() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        let chunks = collect_chunks(&g, false);
        let kinds = [KIND_VERTEX, KIND_EDGE, KIND_MESSAGE].map(|k| count_kind(&chunks, k));
        assert_eq!(kinds, [3, 0, 2]);
        assert_eq!(sorted_rows(&sql_union(&g, false)), sorted_rows(&chunks));
        let plan = partition_row_plan(&g, 1, 3, false).unwrap();
        assert_eq!(plan.iter().flatten().sum::<u64>(), 5);
    }
}
