//! The sorted edge projection: the catalog table `<graph>_edge_proj (src,
//! dst, weight)` that every run reads out-edges from.
//!
//! The edge table never changes during a run, so instead of re-scanning,
//! re-hashing and re-sorting it every superstep a build writes it once as one
//! ROS segment (a **piece**) per owner partition ([`owner`] over `src`),
//! sorted by `(src, dst)`, then `weight` NULL first in IEEE total order — how
//! Vertica keeps graph data. The pieces are committed like apply's segments
//! ([`vertexica_sql::Database::commit_tables_segmented`]): the buffer pool
//! accounts for them, and a durable commit gives each a spill twin, so a
//! budget evicts a piece and the worker that pins it reloads it.
//!
//! [`GraphSession::edge_projection`] builds lazily and caches the handles on
//! the session, revalidated against the edge table's
//! [`Table::data_version`](vertexica_storage::Table::data_version) and the
//! run's shard and partition counts; a reopened database rebuilds.

use std::sync::Arc;

use vertexica_common::graph::{Edge, VertexId};
use vertexica_common::timer::Stopwatch;
use vertexica_storage::encoding::EncodedColumn;
use vertexica_storage::partition::owner;
use vertexica_storage::{
    Bitmap, Column, ColumnData, DataType, Field, PinnedSegment, RecordBatch, ScanCursor, Schema,
    Segment, SegmentHandle,
};

use crate::error::{VertexicaError, VertexicaResult};
use crate::session::GraphSession;
use crate::worker::Nullable;

/// Schema of the projection table.
pub fn edge_proj_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("src", DataType::Int),
        Field::not_null("dst", DataType::Int),
        Field::new("weight", DataType::Float),
    ])
}

/// One build's piece handles, indexed by owner partition (`None` where no
/// edge's source lives), with the edge table version and the shard and
/// partition counts they were cut for.
#[derive(Debug)]
pub struct EdgeProjection {
    version: u64,
    num_shards: usize,
    num_partitions: usize,
    pieces: Vec<Option<SegmentHandle>>,
}

fn malformed(column: &str) -> VertexicaError {
    VertexicaError::Runtime(format!("{column} is mistyped"))
}

/// Drains `cursor` — the edge table's `(src, dst, weight)`, `rows` live
/// rows — into one sorted batch per non-empty owner partition, in partition
/// order. The rows are decoded into one vector sized once, which is freed
/// whole when the pieces exist.
fn sorted_pieces(
    mut cursor: ScanCursor,
    rows: usize,
    num_shards: usize,
    num_partitions: usize,
) -> VertexicaResult<Vec<(usize, RecordBatch)>> {
    let mut edges: Vec<(u32, i64, i64, Option<f64>)> = Vec::with_capacity(rows);
    while let Some(batch) = cursor.next_batch()? {
        let (src_col, dst_col) = (batch.column(0), batch.column(1));
        let src = src_col.as_int().ok_or_else(|| malformed("edge table: src"))?;
        let dst = dst_col.as_int().ok_or_else(|| malformed("edge table: dst"))?;
        let weight = Nullable::of(batch.column(2), Column::as_float)
            .ok_or_else(|| malformed("edge table: weight"))?;
        if src_col.null_count() + dst_col.null_count() > 0 {
            return Err(VertexicaError::Runtime("edge table: NULL src or dst".into()));
        }
        edges.extend((0..batch.num_rows()).map(|i| {
            let (_, p) = owner(src[i], num_shards, num_partitions);
            (p as u32, src[i], dst[i], weight.get(i).copied())
        }));
    }
    // By partition, then `(src, dst)`, then `weight`: NULL first, then IEEE
    // total order (`Value::total_cmp`).
    edges.sort_unstable_by(|a, b| {
        (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)).then(match (a.3, b.3) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (x, y) => x.is_some().cmp(&y.is_some()),
        })
    });
    let mut pieces = Vec::new();
    for rows in edges.chunk_by(|a, b| a.0 == b.0) {
        let ints = |f: fn(&(u32, i64, i64, Option<f64>)) -> i64| {
            ColumnData::Int(rows.iter().map(f).collect())
        };
        let weights = ColumnData::Float(rows.iter().map(|r| r.3.unwrap_or(0.0)).collect());
        let valid = Bitmap::from_iter_bool(rows.iter().map(|r| r.3.is_some()));
        let columns = vec![
            Column::new(ints(|r| r.1), None),
            Column::new(ints(|r| r.2), None),
            Column::new(weights, Some(valid)),
        ];
        pieces.push((rows[0].0 as usize, RecordBatch::new(edge_proj_schema(), columns)?));
    }
    Ok(pieces)
}

impl EdgeProjection {
    /// Number of edges in the pieces.
    pub fn num_edges(&self) -> usize {
        self.pieces.iter().flatten().map(SegmentHandle::num_rows).sum()
    }

    /// Estimated bytes of the pieces, resident or not.
    pub fn estimated_bytes(&self) -> usize {
        self.pieces.iter().flatten().map(SegmentHandle::estimated_bytes).sum()
    }

    /// The piece handles, indexed by owner partition.
    pub fn pieces(&self) -> &[Option<SegmentHandle>] {
        &self.pieces
    }

    /// Pins the piece of the partition that owns `vid` — reloading it if the
    /// pool evicted it — for as long as the returned [`PinnedPiece`] lives.
    pub fn pin(&self, vid: VertexId) -> VertexicaResult<PinnedPiece<'_>> {
        let (_, partition) = owner(vid as i64, self.num_shards, self.num_partitions);
        let segment = self.pieces[partition].as_ref().map(SegmentHandle::read).transpose()?;
        Ok(PinnedPiece { projection: self, partition, segment })
    }

    /// `(id, out-degree)` of every row of `session`'s vertex table,
    /// ascending by id (0 for a vertex without out-edges): only the id
    /// column is scanned, and each piece is pinned once, for the ids its
    /// partition owns.
    pub fn vertex_degrees(&self, session: &GraphSession) -> VertexicaResult<Vec<(VertexId, u64)>> {
        let mut ids: Vec<i64> = Vec::new();
        let mut cursor = session.db().scan_cursor(&session.vertex_table(), Some(&[0]), &[])?;
        while let Some(batch) = cursor.next_batch()? {
            let column = batch.column(0).as_int();
            ids.extend_from_slice(column.ok_or_else(|| malformed("vertex table: id"))?);
        }
        ids.sort_unstable();
        ids.dedup();
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); self.num_partitions];
        for (i, &id) in ids.iter().enumerate() {
            owned[owner(id, self.num_shards, self.num_partitions).1].push(i);
        }
        let mut degrees = vec![0u64; ids.len()];
        for (piece, owned) in self.pieces.iter().zip(owned).filter(|(_, o)| !o.is_empty()) {
            let Some(piece) = piece else { continue };
            let segment = piece.read()?;
            let (src, _, _) = columns(&segment)?;
            for i in owned {
                degrees[i] = src_range(src, ids[i]).len() as u64;
            }
        }
        Ok(ids.into_iter().map(|id| id as VertexId).zip(degrees).collect())
    }
}

/// One partition's piece, pinned (`segment` is `None` when the partition
/// has no out-edges): a worker holds it for its partition.
#[derive(Debug)]
pub struct PinnedPiece<'a> {
    projection: &'a EdgeProjection,
    partition: usize,
    segment: Option<PinnedSegment>,
}

impl PinnedPiece<'_> {
    /// Replaces `out` with the out-edges of `vid`, copied from the piece's
    /// typed columns in projection order, a NULL weight read as 1.0. A
    /// vertex of another partition is an error: its edges are not here.
    pub fn out_edges(&self, vid: VertexId, out: &mut Vec<Edge>) -> VertexicaResult<()> {
        out.clear();
        let p = self.projection;
        let (_, partition) = owner(vid as i64, p.num_shards, p.num_partitions);
        if partition != self.partition {
            return Err(VertexicaError::Runtime(format!(
                "vertex {vid} belongs to partition {partition}, not to the pinned piece's {}",
                self.partition
            )));
        }
        let Some(segment) = &self.segment else { return Ok(()) };
        let (src, dst, weight) = columns(segment)?;
        out.extend(src_range(src, vid as i64).map(|i| {
            Edge::weighted(vid, dst[i] as VertexId, weight.get(i).copied().unwrap_or(1.0))
        }));
        Ok(())
    }
}

/// A piece's `(src, dst, weight)` columns as typed slices.
type PieceColumns<'a> = (&'a [i64], &'a [i64], Nullable<'a, [f64]>);

fn columns(segment: &Segment) -> VertexicaResult<PieceColumns<'_>> {
    let bad = || VertexicaError::Runtime("edge projection piece is not plain typed columns".into());
    let column = |i| match segment.encoded_column(i) {
        EncodedColumn::Plain(column) => Ok(column),
        _ => Err(bad()),
    };
    let weight = Nullable::of(column(2)?, Column::as_float).ok_or_else(bad)?;
    Ok((column(0)?.as_int().ok_or_else(bad)?, column(1)?.as_int().ok_or_else(bad)?, weight))
}

/// The rows of the sorted `src` column that hold `vid`.
fn src_range(src: &[i64], vid: i64) -> std::ops::Range<usize> {
    let start = src.partition_point(|&s| s < vid);
    start..start + src[start..].partition_point(|&s| s == vid)
}

impl GraphSession {
    /// The session's edge projection for a run over `num_shards` shards and
    /// `num_partitions` partitions, and the seconds the call spent building
    /// it: the cached handles (and 0.0) when the edge table still carries
    /// the stamp they were built from at those counts, otherwise a fresh
    /// build that rewrites the projection table in one grouped commit.
    ///
    /// The stamp and the scan snapshot are taken under one table read guard,
    /// so pieces can never claim a version they do not hold. The cache lock
    /// is held across the build, so concurrent callers build once.
    pub fn edge_projection(
        &self,
        num_shards: usize,
        num_partitions: usize,
    ) -> VertexicaResult<(Arc<EdgeProjection>, f64)> {
        let (num_shards, num_partitions) = (num_shards.max(1), num_partitions.max(1));
        let catalog = self.db().catalog();
        let table = catalog.get(&self.edge_table())?;
        let mut cached = self.projection.lock();
        let sw = Stopwatch::start();
        let (version, rows, cursor) = {
            let guard = table.read();
            let key = (guard.data_version(), num_shards, num_partitions);
            if let Some(hit) =
                cached.as_ref().filter(|p| (p.version, p.num_shards, p.num_partitions) == key)
            {
                return Ok((hit.clone(), 0.0));
            }
            (key.0, guard.num_rows(), guard.scan_cursor(Some(&[0, 1, 2]), &[])?)
        };
        let pieces = sorted_pieces(cursor, rows, num_shards, num_partitions)?;
        let name = self.edge_proj_table();
        let batches = pieces.iter().map(|(_, b)| b.clone()).collect();
        let segments = self.db().encode_segments_for(&name, batches)?;
        self.db().commit_tables_segmented(vec![(name.clone(), segments)])?;
        let handles = catalog.get(&name)?.read().segments().to_vec();
        if handles.len() != pieces.len() {
            return Err(VertexicaError::Runtime(format!("{name} changed during its build")));
        }
        let mut slots = vec![None; num_partitions];
        for ((p, _), handle) in pieces.iter().zip(handles) {
            slots[*p] = Some(handle);
        }
        let built = Arc::new(EdgeProjection { version, num_shards, num_partitions, pieces: slots });
        *cached = Some(built.clone());
        Ok((built, sw.elapsed_secs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vertexica_common::graph::EdgeList;
    use vertexica_sql::Database;
    use vertexica_storage::{Table, Value};

    /// What the projection must equal: a straight scan of the edge table,
    /// grouped by `src`, each group ordered by `(dst, weight)` under
    /// `Value::total_cmp`, NULL weights then read as 1.0. Weights compare by
    /// bit pattern so NaN and -0.0 count.
    fn scan_adjacency(g: &GraphSession) -> BTreeMap<i64, Vec<(i64, u64)>> {
        let mut rows: Vec<Vec<Value>> = g
            .db()
            .scan_table(&g.edge_table(), Some(&[0, 1, 2]), &[])
            .unwrap()
            .iter()
            .flat_map(RecordBatch::rows)
            .collect();
        rows.sort_by(|a, b| {
            a[0].total_cmp(&b[0])
                .then_with(|| a[1].total_cmp(&b[1]))
                .then_with(|| a[2].total_cmp(&b[2]))
        });
        let mut adjacency: BTreeMap<i64, Vec<(i64, u64)>> = BTreeMap::new();
        for row in rows {
            let weight = row[2].as_float().unwrap_or(1.0);
            adjacency
                .entry(row[0].as_int().unwrap())
                .or_default()
                .push((row[1].as_int().unwrap(), weight.to_bits()));
        }
        adjacency
    }

    fn out_edges(projection: &EdgeProjection, vid: VertexId) -> Vec<Edge> {
        let mut edges = vec![Edge::new(7, 7)];
        projection.pin(vid).unwrap().out_edges(vid, &mut edges).unwrap();
        edges
    }

    fn assert_matches_scan(g: &GraphSession, projection: &EdgeProjection) {
        let expected = scan_adjacency(g);
        assert_eq!(projection.num_edges(), expected.values().map(Vec::len).sum::<usize>());
        for (src, want) in &expected {
            let got: Vec<(i64, u64)> = out_edges(projection, *src as VertexId)
                .iter()
                .map(|e| {
                    assert_eq!(e.src, *src as VertexId);
                    (e.dst as i64, e.weight.to_bits())
                })
                .collect();
            assert_eq!(&got, want, "out-edges of {src}");
        }
        let absent = expected.keys().max().map_or(0, |m| m + 1);
        assert!(out_edges(projection, absent as VertexId).is_empty());
        // Every vertex-table row's degree, 0 for one without out-edges.
        for (id, degree) in projection.vertex_degrees(g).unwrap() {
            let want = expected.get(&(id as i64)).map_or(0, Vec::len);
            assert_eq!(degree, want as u64, "degree of {id}");
        }
    }

    fn session() -> GraphSession {
        let g = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1), (0, 2), (1, 2), (2, 0), (3, 3)])).unwrap();
        g
    }

    #[test]
    fn adjacency_equals_a_sorted_scan_over_every_physical_shape() {
        let g = session();
        let table = g.edge_table();
        // A second and third ROS segment (unsorted, duplicates, parallel edges
        // with different weights, a self-loop, NaN / -0.0 / negative weights).
        for rows in [
            "(2, 1, 0.5, 0, NULL), (2, 1, -0.0, 0, NULL), (2, 1, 0.0, 0, NULL), (0, 1, 1.0, 0, NULL)",
            "(7, 7, -3.5, 0, NULL), (5, 0, NULL, 0, NULL), (5, 0, 2.0, 0, NULL), (0, 9, 1.0, 0, NULL)",
        ] {
            g.db().execute(&format!("INSERT INTO {table} VALUES {rows}")).unwrap();
            g.db().catalog().get(&table).unwrap().write().moveout().unwrap();
        }
        let nan = RecordBatch::from_rows(
            crate::session::edge_schema(),
            &[vec![
                Value::Int(2),
                Value::Int(1),
                Value::Float(f64::NAN),
                Value::Int(0),
                Value::Null,
            ]],
        )
        .unwrap();
        g.db().append_batches(&table, &[nan]).unwrap();
        // Rows masked by delete vectors, and rows still in the WOS.
        g.db().execute(&format!("DELETE FROM {table} WHERE src = 0 AND dst = 2")).unwrap();
        g.db().execute(&format!("INSERT INTO {table} VALUES (1, 0, 4.0, 0, NULL)")).unwrap();
        {
            let guard = g.db().catalog().get(&table).unwrap();
            let guard = guard.read();
            assert!(guard.num_segments() >= 4 && guard.wos_rows() == 1);
            assert!(guard.delete_vectors().iter().any(|d| d.any()));
        }
        for (shards, parts) in [(1, 1), (1, 3), (2, 4)] {
            let (projection, _) = g.edge_projection(shards, parts).unwrap();
            // At two shards only the sources shard 0 would own are looked
            // up there, but a session holds whatever its edge table holds.
            assert_matches_scan(&g, &projection);
            // NULL sorts first among (5 → 0) and then reads as the default 1.0.
            let weights: Vec<f64> = out_edges(&projection, 5).iter().map(|e| e.weight).collect();
            assert_eq!(weights, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn empty_edge_table_projects_to_nothing() {
        let g = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
        let (projection, _) = g.edge_projection(1, 4).unwrap();
        assert_eq!(projection.num_edges(), 0);
        assert!(projection.pieces().iter().all(Option::is_none));
        assert!(out_edges(&projection, 0).is_empty());
    }

    #[test]
    fn a_vertex_of_another_partition_is_an_error() {
        let g = session();
        let (projection, _) = g.edge_projection(1, 8).unwrap();
        let piece = projection.pin(0).unwrap();
        let stranger = (1..).find(|&v| owner(v, 1, 8).1 != owner(0, 1, 8).1).unwrap();
        let mut edges = Vec::new();
        assert!(matches!(
            piece.out_edges(stranger as VertexId, &mut edges),
            Err(VertexicaError::Runtime(_))
        ));
    }

    #[test]
    fn cached_until_the_edge_table_changes() {
        let g = session();
        let (first, build_secs) = g.edge_projection(1, 1).unwrap();
        assert!(build_secs > 0.0);
        // A clone shares the cache; DML on the *other* tables leaves it valid.
        g.add_vertex(9).unwrap();
        let (hit, secs) = g.clone().edge_projection(1, 1).unwrap();
        assert!(Arc::ptr_eq(&first, &hit) && secs == 0.0);
        // Another partition count is another layout.
        let (other, secs) = g.edge_projection(1, 4).unwrap();
        assert!(!Arc::ptr_eq(&first, &other) && secs > 0.0);
        assert_matches_scan(&g, &other);

        let edge_table = g.edge_table();
        let catalog = g.db().catalog().clone();
        // Neither does re-housing the same edge rows: WOS → ROS, then a merge
        // that also drops a deleted row's slot.
        g.add_edge(1, 0, 1.0, 0, None).unwrap();
        assert_eq!(g.remove_edge(3, 3).unwrap(), 1);
        let (first, _) = g.edge_projection(1, 1).unwrap();
        catalog.get(&edge_table).unwrap().write().moveout().unwrap();
        catalog.get(&edge_table).unwrap().write().mergeout().unwrap();
        let (hit, secs) = g.edge_projection(1, 1).unwrap();
        assert!(Arc::ptr_eq(&first, &hit) && secs == 0.0);
        assert_matches_scan(&g, &hit);

        type Mutation<'a> = (&'a str, Box<dyn Fn(&GraphSession) + 'a>);
        let mutations: Vec<Mutation<'_>> = vec![
            ("add_edge", Box::new(|g| g.add_edge(3, 0, 2.5, 0, None).unwrap())),
            (
                "update_edge_weight",
                Box::new(|g| assert_eq!(g.update_edge_weight(0, 1, 9.0).unwrap(), 1)),
            ),
            ("remove_edge", Box::new(|g| assert_eq!(g.remove_edge(0, 2).unwrap(), 1))),
            ("remove_vertex", Box::new(|g| assert_eq!(g.remove_vertex(2).unwrap(), 1))),
            (
                "raw INSERT",
                Box::new(|g| {
                    let sql = format!("INSERT INTO {edge_table} VALUES (4, 4, 1.0, 0, NULL)");
                    g.db().execute(&sql).unwrap();
                }),
            ),
            (
                "raw UPDATE",
                Box::new(|g| {
                    let sql = format!("UPDATE {edge_table} SET weight = 0.25 WHERE src = 4");
                    g.db().execute(&sql).unwrap();
                }),
            ),
            (
                "raw DELETE",
                Box::new(|g| {
                    g.db().execute(&format!("DELETE FROM {edge_table} WHERE src = 3")).unwrap();
                }),
            ),
            (
                "replace_contents",
                Box::new(|_| {
                    let mut fresh =
                        Table::new("x", crate::session::edge_schema(), Default::default());
                    let row =
                        [Value::Int(1), Value::Int(0), Value::Null, Value::Int(0), Value::Null];
                    fresh.insert_row(row.to_vec()).unwrap();
                    catalog.replace_contents(&edge_table, fresh).unwrap();
                }),
            ),
            (
                "truncate",
                Box::new(|_| catalog.get(&edge_table).unwrap().write().truncate().unwrap()),
            ),
        ];
        let mut previous = first;
        for (what, mutate) in &mutations {
            mutate(&g);
            let (rebuilt, secs) = g.edge_projection(1, 1).unwrap();
            assert!(!Arc::ptr_eq(&previous, &rebuilt) && secs > 0.0, "{what} must rebuild");
            assert_matches_scan(&g, &rebuilt);
            let (hit, secs) = g.edge_projection(1, 1).unwrap();
            assert!(Arc::ptr_eq(&rebuilt, &hit) && secs == 0.0, "{what}: second call must hit");
            previous = rebuilt;
        }
        assert_eq!(previous.num_edges(), 0);
    }

    /// Unbounded, and with a pool budget below the graph's checkpointed
    /// bytes, so the rebuild reads segments back from their spill images —
    /// and then the pieces themselves, which the commit gave spill twins.
    #[test]
    fn reopened_durable_database_rebuilds_once() {
        for budget in [None, Some(64)] {
            let dir = std::env::temp_dir()
                .join(format!("vertexica_proj_{}_{budget:?}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let open = || {
                let db = Database::open(&dir).unwrap();
                db.catalog().buffer_pool().set_budget(budget);
                Arc::new(db)
            };
            {
                let g = GraphSession::create(open(), "g").unwrap();
                g.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)])).unwrap();
                if budget.is_some() {
                    // Spill images: what the budgeted reopen evicts to.
                    g.db().checkpoint().unwrap();
                }
                // Left in the WAL only: recovery has to replay it.
                g.add_edge(2, 1, 0.5, 0, None).unwrap();
                g.edge_projection(1, 2).unwrap();
            }
            let g = GraphSession::open(open(), "g").unwrap();
            let (rebuilt, secs) = g.edge_projection(1, 2).unwrap();
            assert!(secs > 0.0, "a freshly opened session has no cache");
            assert_eq!(rebuilt.num_edges(), 4);
            let twins = rebuilt.pieces().iter().flatten().all(|h| h.spill_addr().is_some());
            assert!(twins, "{budget:?}: the commit gives every piece a spill twin");
            assert_matches_scan(&g, &rebuilt);
            let (hit, secs) = g.edge_projection(1, 2).unwrap();
            assert!(Arc::ptr_eq(&rebuilt, &hit) && secs == 0.0);
            let reloads = g.db().catalog().buffer_pool().stats().reloads;
            assert_eq!(reloads > 0, budget.is_some(), "{budget:?}: reloads {reloads}");
            drop(g);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn null_endpoint_is_a_typed_error() {
        let g = session();
        // `append_batch` adopts columns as they are; the schema's NOT NULL is
        // only enforced on the row-insert path.
        let row = [Value::Null, Value::Int(1), Value::Float(1.0), Value::Int(0), Value::Null];
        let schema = vertexica_storage::Schema::new(
            crate::session::edge_schema()
                .fields
                .iter()
                .map(|f| vertexica_storage::Field::new(f.name.clone(), f.dtype))
                .collect(),
        );
        let batch = RecordBatch::from_rows(schema, &[row.to_vec()]).unwrap();
        g.db().append_batches(&g.edge_table(), &[batch]).unwrap();
        assert!(matches!(g.edge_projection(1, 1), Err(VertexicaError::Runtime(_))));
    }
}
