//! Worker input assembly — the paper's **Table Unions** optimization (§2.3).
//!
//! To run a superstep the workers need, per vertex: its value and halt state,
//! its outgoing edges, and its incoming messages. "Traditional database
//! wisdom" would 3-way join the vertex, edge and message tables — and explode
//! (a vertex with *E* edges and *M* messages yields *E × M* join rows).
//! Vertexica instead renames the tables to a **common schema** and
//! `UNION ALL`s them; workers then tell the tuple kinds apart. Here the union
//! is vertex ∪ message: edges never change during a run, so they come from
//! the sorted edge projection ([`crate::projection`]), one piece per
//! partition that each worker pins, instead of riding every superstep's
//! union. The rows are **pulled** through the engine's scan cursors and
//! streamed to the caller chunk by chunk ([`assemble_chunks`]), each scanned
//! batch re-shaped into the common schema. The unit tests hold the stream to
//! the equivalent SQL `UNION ALL` statement. (The benchmark crate's
//! `--exp union-vs-join` ablation times the paper's three-table union
//! against the 3-way join.)

use std::sync::Arc;

use vertexica_storage::partition::partition_of;
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
/// Tuple-kind discriminator for message rows in the common schema.
pub const KIND_MESSAGE: i64 = 1;

/// The common schema the two tables are renamed to:
/// `(vid, kind, other, payload, halted)` where
/// * vertex rows: `vid=id, payload=value, halted=halted`
/// * message rows: `vid=recipient, other=sender, payload=value`
pub fn union_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("vid", DataType::Int),
        Field::not_null("kind", DataType::Int),
        Field::new("other", DataType::Int),
        Field::new("payload", DataType::Blob),
        Field::new("halted", DataType::Bool),
    ])
}

/// Reshapes a raw message-table batch to the union wire schema — how the
/// sharded exchange (`crate::shard`) re-injects a peer's retained message
/// rows during crash repair.
pub(crate) fn message_union_batch(batch: &RecordBatch) -> VertexicaResult<RecordBatch> {
    reshape(KIND_MESSAGE, batch, &union_schema())
}

/// The union's sources, each scanned whole: `(table, tuple kind)`.
fn union_sources(session: &GraphSession) -> [(String, i64); 2] {
    [(session.vertex_table(), KIND_VERTEX), (session.message_table(), KIND_MESSAGE)]
}

/// Re-shapes one scanned batch of the `kind` source into the common union
/// schema by attaching constant/null companion columns:
///
/// * vertex `(id, value, halted)` → `(vid, 0, NULL, value, halted)`
/// * message `(recipient, sender, value)` → `(recipient, 1, sender, value, NULL)`
fn reshape(kind: i64, batch: &RecordBatch, schema: &Arc<Schema>) -> VertexicaResult<RecordBatch> {
    let n = batch.num_rows();
    let (other, payload, halted) = if kind == KIND_VERTEX {
        (Column::repeat(DataType::Int, &Value::Null, n)?, batch.column(1), batch.column(2).clone())
    } else {
        (batch.column(1).clone(), batch.column(2), Column::repeat(DataType::Bool, &Value::Null, n)?)
    };
    let kinds = Column::repeat(DataType::Int, &Value::Int(kind), n)?;
    let columns = vec![batch.column(0).clone(), kinds, other, payload.clone(), halted];
    Ok(RecordBatch::new(schema.clone(), columns)?)
}

/// Streams worker input as union-schema chunks, invoking `sink` once per
/// chunk so the caller (the coordinator's streaming pipeline) can partition
/// and drop each chunk immediately — the full table union never exists in
/// memory at once. Returns the **peak resident scan bytes** gauge: the most
/// un-emitted source-scan data held at any moment while assembling.
///
/// The two tables are scanned directly, segment by segment, and each
/// scanned batch is re-shaped into the common schema with constant/null
/// companion columns — the same rows the UNION ALL query produces, without
/// materializing their concatenation. Each table is **pulled** through a
/// [`vertexica_sql::Database::scan_cursor`]: one decoded segment batch is
/// resident at a time, and the table lock is never held across the
/// re-shape. Chunks larger than `chunk_rows` are split.
pub fn assemble_chunks(
    session: &GraphSession,
    chunk_rows: usize,
    sink: &mut dyn FnMut(RecordBatch) -> VertexicaResult<()>,
) -> VertexicaResult<usize> {
    let chunk_rows = chunk_rows.max(1);
    let schema = union_schema();
    let mut peak_resident = 0usize;
    for (table, kind) in union_sources(session) {
        // Pull-based: exactly one decoded scan batch in flight.
        let mut cursor = session.db().scan_cursor(&table, None, &[])?;
        while let Some(batch) = cursor.next_batch()? {
            peak_resident = peak_resident.max(batch.estimated_bytes());
            emit_capped(reshape(kind, &batch, &schema)?, chunk_rows, sink)?;
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
/// of union-schema rows hashing (on `vid`) to shard `d`, partition `p` (the
/// cell [`vertexica_storage::partition::owner`] gives the row). A
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
/// of five — the blob payloads that dominate assemble are never decoded),
/// hashed column-wise, and every row counts once.
pub fn partition_row_plan(
    session: &GraphSession,
    num_shards: usize,
    num_partitions: usize,
) -> VertexicaResult<Vec<Vec<u64>>> {
    let num_shards = num_shards.max(1);
    let num_partitions = num_partitions.max(1);
    let mut plan = vec![vec![0u64; num_partitions]; num_shards];
    // The sources' key columns: vertex id, message recipient — each is
    // column 0 of its table and becomes `vid` (the partition key) in the
    // union schema.
    for (table, _) in union_sources(session) {
        let mut cursor = session.db().scan_cursor(&table, Some(&[0]), &[])?;
        while let Some(batch) = cursor.next_batch()? {
            if num_shards == 1 && num_partitions == 1 {
                plan[0][0] += batch.num_rows() as u64;
                continue;
            }
            // `partition_assignments`' hash, taken once for both the shard
            // and the partition.
            let mut hashes = vec![0u64; batch.num_rows()];
            batch.column(0).hash_combine(&mut hashes);
            let part = |h: u64| partition_of(h, num_shards, num_partitions);
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

    /// The table union as one SQL statement: the oracle the re-shaping scan
    /// in [`assemble_chunks`] must reproduce row for row.
    fn sql_union(session: &GraphSession) -> Vec<RecordBatch> {
        let sql = format!(
            "SELECT id AS vid, 0 AS kind, CAST(NULL AS BIGINT) AS other, value AS payload, \
                    halted \
             FROM {v} \
             UNION ALL \
             SELECT recipient, 1, sender, value, CAST(NULL AS BOOLEAN) FROM {m}",
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

    fn collect_chunks(g: &GraphSession) -> Vec<RecordBatch> {
        let mut chunks = Vec::new();
        assemble_chunks(g, STREAM_CHUNK_ROWS, &mut |b| {
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

    /// The union is the vertex and message tables: every vertex row, every
    /// message (byte-identical repeats included), and not one edge row —
    /// edges come from the projection.
    #[test]
    fn union_contains_every_vertex_and_message_row() {
        let g = session_with_graph();
        // Three messages to vertex 2, two of them byte-identical repeats
        // from the same sender: every one arrives.
        let msgs = message_batch(&[
            (2, 0, 1.0f64.to_bytes()),
            (2, 0, 1.0f64.to_bytes()),
            (2, 1, 2.0f64.to_bytes()),
        ])
        .unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let batches = collect_chunks(&g);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 3);
        assert_eq!(batches.iter().map(RecordBatch::num_rows).sum::<usize>(), 6);
        assert_eq!(sorted_rows(&sql_union(&g)), sorted_rows(&batches));
    }

    #[test]
    fn empty_message_table_still_assembles() {
        let g = session_with_graph();
        let batches = collect_chunks(&g);
        assert_eq!(count_kind(&batches, KIND_MESSAGE), 0);
        assert_eq!(count_kind(&batches, KIND_VERTEX), 3);
    }

    #[test]
    fn streamed_chunks_match_materialized_union() {
        let g = session_with_graph();
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();

        let streamed = collect_chunks(&g);
        // Same rows (as a multiset) as the SQL UNION ALL, canonical schema.
        assert_eq!(sorted_rows(&sql_union(&g)), sorted_rows(&streamed));
        for chunk in &streamed {
            assert_eq!(chunk.schema().len(), union_schema().len());
        }
        // At least one chunk per non-empty source table, so no chunk
        // reaches the full union size on its own.
        assert!(streamed.len() >= 2);
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
        let streamed = assemble_chunks(&g, STREAM_CHUNK_ROWS, &mut |_| Ok(())).unwrap();
        // What an eager scan holds: the largest source table, whole.
        let eager = union_sources(&g)
            .iter()
            .map(|(table, _)| {
                let batches = g.db().scan_table(table, None, &[]).unwrap();
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
        let msgs = message_batch(&[(2, 0, 1.0f64.to_bytes()), (1, 0, 2.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[msgs]).unwrap();
        let mut sizes = Vec::new();
        assemble_chunks(&g, 2, &mut |b| {
            sizes.push(b.num_rows());
            Ok(())
        })
        .unwrap();
        assert!(sizes.iter().all(|&n| n <= 2), "cap violated: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 5); // 3 vertices + 2 messages
    }

    /// The plan-vs-scatter invariant: the prescan's per-(shard, partition)
    /// counts must equal what assemble actually delivers through the
    /// cross-shard split and each shard's partition scatter, at several
    /// shard and partition counts — shard and partition counts with a
    /// common factor included.
    #[test]
    fn partition_row_plan_matches_actual_scatter() {
        use vertexica_storage::partition::split_batch;
        let g = session_with_graph();
        let msgs: Vec<_> = (0..40u64).map(|i| (i % 7, i, (i as f64).to_bytes())).collect();
        g.db().append_batches(&g.message_table(), &[message_batch(&msgs).unwrap()]).unwrap();
        for shards in [1usize, 2, 3] {
            for parts in [1usize, 3, 4, 8] {
                let plan = partition_row_plan(&g, shards, parts).unwrap();
                let mut scattered = vec![vec![0u64; parts]; shards];
                assemble_chunks(&g, STREAM_CHUNK_ROWS, &mut |b| {
                    for (d, piece) in split_batch(&b, &[0], 1, shards)? {
                        for (p, part) in split_batch(&piece, &[0], shards, parts)? {
                            scattered[d][p] += part.num_rows() as u64;
                        }
                    }
                    Ok(())
                })
                .unwrap();
                assert_eq!(
                    plan, scattered,
                    "{shards} shards/{parts} partitions: plan must equal the real scatter"
                );
                assert_eq!(plan.iter().flatten().sum::<u64>(), 43);
            }
        }
    }
}
