//! The sorted edge projection: a read-only CSR image of a session's edge
//! table.
//!
//! The edge table never changes during a run, yet the table-union input
//! re-scans it, re-hashes it into compute partitions and re-sorts it inside
//! every worker, every superstep. An [`EdgeProjection`] does that work once:
//! all live edge rows, decoded to [`Edge`]s in one contiguous vector sorted
//! the way a worker would have sorted them, plus a sorted index from each
//! distinct `src` to its range. Workers then borrow a vertex's out-edges as a
//! slice, and edge rows leave the scan → scatter → sort path entirely.
//!
//! A projection is built lazily by [`GraphSession::edge_projection`] on the
//! first run that wants one, cached on the session (clones share the cache),
//! and revalidated at the start of every run against the edge table's
//! [`Table::data_version`](vertexica_storage::Table::data_version): any DML,
//! swap or recovery since the build redraws the stamp and forces a rebuild.
//!
//! Whether a run uses it is decided from what the run can observe (no
//! budget on the buffer pool — see `for_run`); there is no switch.

use std::cmp::Ordering;
use std::sync::Arc;

use vertexica_common::graph::{Edge, VertexId};
use vertexica_common::timer::Stopwatch;
use vertexica_storage::ScanCursor;

use crate::error::{VertexicaError, VertexicaResult};
use crate::session::GraphSession;

/// All live rows of an edge table, sorted by `(src, dst, weight)` and indexed
/// by `src`. Immutable once built.
#[derive(Debug)]
pub struct EdgeProjection {
    /// The edge table's data version the image was built from.
    version: u64,
    /// Every edge, grouped by `src`; within a group in the order the worker's
    /// canonical row sort produces (see [`EdgeProjection::build`]).
    edges: Vec<Edge>,
    /// Distinct `src` ids, ascending as the table's BIGINTs.
    srcs: Vec<i64>,
    /// `edges[offsets[i]..offsets[i + 1]]` are the out-edges of `srcs[i]`.
    offsets: Vec<usize>,
}

/// `NULL` first, then IEEE total order: `Value::total_cmp` on a FLOAT column.
pub(crate) fn cmp_weight(a: Option<f64>, b: Option<f64>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(&y),
    }
}

impl EdgeProjection {
    /// Drains `cursor` — a scan of the edge table projected to
    /// `(src, dst, weight)` — into a projection stamped `version`.
    ///
    /// Within one `src` the order is the one the worker's row sort gives a
    /// vertex's edge rows: `dst` as a signed BIGINT, then `weight` with NULL
    /// first and floats in IEEE total order. Only after sorting does a NULL
    /// weight become the worker's default of 1.0, so a run through the
    /// projection hands `compute` the same edge slice, element for element,
    /// as a run through edge rows.
    fn build(version: u64, mut cursor: ScanCursor) -> VertexicaResult<EdgeProjection> {
        let malformed = |what: &str| VertexicaError::Runtime(format!("edge table: {what}"));
        let mut rows: Vec<(i64, i64, Option<f64>)> = Vec::new();
        while let Some(batch) = cursor.next_batch()? {
            let (src_col, dst_col, weight_col) =
                (batch.column(0), batch.column(1), batch.column(2));
            let src = src_col.as_int().ok_or_else(|| malformed("src is not BIGINT"))?;
            let dst = dst_col.as_int().ok_or_else(|| malformed("dst is not BIGINT"))?;
            let weight = weight_col.as_float().ok_or_else(|| malformed("weight is not FLOAT"))?;
            if src_col.null_count() + dst_col.null_count() > 0 {
                return Err(malformed("NULL src or dst"));
            }
            rows.reserve(batch.num_rows());
            for i in 0..batch.num_rows() {
                rows.push((src[i], dst[i], (!weight_col.is_null(i)).then_some(weight[i])));
            }
        }
        rows.sort_unstable_by(|a, b| {
            (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| cmp_weight(a.2, b.2))
        });

        let mut edges = Vec::with_capacity(rows.len());
        let mut srcs: Vec<i64> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        for (src, dst, weight) in rows {
            if srcs.last() != Some(&src) {
                srcs.push(src);
                offsets.push(edges.len());
            }
            edges.push(Edge::weighted(src as VertexId, dst as VertexId, weight.unwrap_or(1.0)));
        }
        offsets.push(edges.len());
        Ok(EdgeProjection { version, edges, srcs, offsets })
    }

    /// The out-edges of `vid`, borrowed from the projection (empty when the
    /// vertex has none).
    pub fn out_edges(&self, vid: VertexId) -> &[Edge] {
        match self.srcs.binary_search(&(vid as i64)) {
            Ok(i) => &self.edges[self.offsets[i]..self.offsets[i + 1]],
            Err(_) => &[],
        }
    }

    /// Number of edges in the image.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes held by the image.
    pub fn estimated_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
            + self.srcs.len() * std::mem::size_of::<i64>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

impl GraphSession {
    /// The session's edge projection, current as of this call, and the
    /// seconds the call spent building it: the cached image (and 0.0) when
    /// the edge table still carries the stamp it was built from, otherwise a
    /// fresh build that replaces it.
    ///
    /// The stamp and the scan snapshot are taken under one table read guard,
    /// so no writer can land between them and leave an image that claims a
    /// version it does not hold. The cache lock is held across the build, so
    /// concurrent callers (session clones) build once.
    pub fn edge_projection(&self) -> VertexicaResult<(Arc<EdgeProjection>, f64)> {
        let table = self.db().catalog().get(&self.edge_table())?;
        let mut cached = self.projection.lock();
        let sw = Stopwatch::start();
        let (version, cursor) = {
            let guard = table.read();
            let version = guard.data_version();
            if let Some(hit) = cached.as_ref().filter(|p| p.version == version) {
                return Ok((hit.clone(), 0.0));
            }
            (version, guard.scan_cursor(Some(&[0, 1, 2]), &[])?)
        };
        let built = Arc::new(EdgeProjection::build(version, cursor)?);
        *cached = Some(built.clone());
        Ok((built, sw.elapsed_secs()))
    }
}

/// The projection a run reads its edges from, with the seconds spent
/// building it — or `None` when the run streams edge rows through the union
/// instead. Only a run on an unbudgeted buffer pool reads it: a memory
/// budget says the database may not hold its working set outside the pool,
/// and the projection is a decoded copy of the run's largest table. Under a
/// budget a run keeps streaming edge rows, segment by evictable segment.
///
/// The budget is read from the pool, not from the run's config: a run only
/// ever *sets* the pool's budget (`memory_budget_bytes: None` means "leave
/// it"), so a pool budgeted by an earlier run or by `BufferPool::set_budget`
/// is still evicting whatever this run's config says. Call this after the
/// run has applied its own budget to the pool.
pub(crate) fn for_run(
    session: &GraphSession,
) -> VertexicaResult<(Option<Arc<EdgeProjection>>, f64)> {
    if session.db().catalog().buffer_pool().budget().is_some() {
        return Ok((None, 0.0));
    }
    let (projection, build_secs) = session.edge_projection()?;
    Ok((Some(projection), build_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vertexica_common::graph::EdgeList;
    use vertexica_sql::Database;
    use vertexica_storage::{RecordBatch, Table, Value};

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

    fn assert_matches_scan(g: &GraphSession, projection: &EdgeProjection) {
        let expected = scan_adjacency(g);
        assert_eq!(projection.num_edges(), expected.values().map(Vec::len).sum::<usize>());
        for (src, want) in &expected {
            let got: Vec<(i64, u64)> = projection
                .out_edges(*src as VertexId)
                .iter()
                .map(|e| {
                    assert_eq!(e.src, *src as VertexId);
                    (e.dst as i64, e.weight.to_bits())
                })
                .collect();
            assert_eq!(&got, want, "out-edges of {src}");
        }
        let absent = expected.keys().max().map_or(0, |m| m + 1);
        assert!(projection.out_edges(absent as VertexId).is_empty());
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
        let (projection, _) = g.edge_projection().unwrap();
        assert_matches_scan(&g, &projection);
        // NULL sorts first among (5 → 0) and then reads as the default 1.0.
        let weights: Vec<f64> = projection.out_edges(5).iter().map(|e| e.weight).collect();
        assert_eq!(weights, vec![1.0, 2.0]);
    }

    #[test]
    fn empty_edge_table_projects_to_nothing() {
        let g = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
        let (projection, _) = g.edge_projection().unwrap();
        assert_eq!(projection.num_edges(), 0);
        assert!(projection.out_edges(0).is_empty());
    }

    #[test]
    fn cached_until_the_edge_table_changes() {
        let g = session();
        let (first, build_secs) = g.edge_projection().unwrap();
        assert!(build_secs > 0.0);
        // A clone shares the cache; DML on the *other* tables leaves it valid.
        g.add_vertex(9).unwrap();
        let (hit, secs) = g.clone().edge_projection().unwrap();
        assert!(Arc::ptr_eq(&first, &hit) && secs == 0.0);

        let edge_table = g.edge_table();
        let catalog = g.db().catalog().clone();
        // Neither does re-housing the same edge rows: WOS → ROS, then a merge
        // that also drops a deleted row's slot.
        g.add_edge(1, 0, 1.0, 0, None).unwrap();
        assert_eq!(g.remove_edge(3, 3).unwrap(), 1);
        let (first, _) = g.edge_projection().unwrap();
        catalog.get(&edge_table).unwrap().write().moveout().unwrap();
        catalog.get(&edge_table).unwrap().write().mergeout().unwrap();
        let (hit, secs) = g.edge_projection().unwrap();
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
            let (rebuilt, secs) = g.edge_projection().unwrap();
            assert!(!Arc::ptr_eq(&previous, &rebuilt) && secs > 0.0, "{what} must rebuild");
            assert_matches_scan(&g, &rebuilt);
            let (hit, secs) = g.edge_projection().unwrap();
            assert!(Arc::ptr_eq(&rebuilt, &hit) && secs == 0.0, "{what}: second call must hit");
            previous = rebuilt;
        }
        assert_eq!(previous.num_edges(), 0);
    }

    /// Unbounded, and with a pool budget below the graph's checkpointed
    /// bytes, so the rebuild reads segments back from their spill images.
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
                g.edge_projection().unwrap();
            }
            let g = GraphSession::open(open(), "g").unwrap();
            let (rebuilt, secs) = g.edge_projection().unwrap();
            assert!(secs > 0.0, "a freshly opened session has no cache");
            assert_eq!(rebuilt.num_edges(), 4);
            assert_matches_scan(&g, &rebuilt);
            let (hit, secs) = g.edge_projection().unwrap();
            assert!(Arc::ptr_eq(&rebuilt, &hit) && secs == 0.0);
            let reloads = g.db().catalog().buffer_pool().stats().reloads;
            assert_eq!(reloads > 0, budget.is_some(), "{budget:?}: reloads {reloads}");
            drop(g);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn budgeted_pools_and_join_runs_stream_edge_rows() {
        let g = session();
        let pool = g.db().catalog().buffer_pool().clone();
        assert!(for_run(&g).unwrap().0.is_some());
        // The pool's budget decides, whatever a run's config says: `None`
        // there leaves a budget set earlier in force.
        pool.set_budget(Some(1 << 20));
        assert!(for_run(&g).unwrap().0.is_none());
        pool.set_budget(None);
        assert!(for_run(&g).unwrap().0.is_some());
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
        assert!(matches!(g.edge_projection(), Err(VertexicaError::Runtime(_))));
    }
}
