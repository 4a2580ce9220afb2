//! Graph sessions: the paper's physical graph schema inside the database.
//!
//! A [`GraphSession`] owns three tables in the catalog (§2.2, "Physical
//! Storage"):
//!
//! * `<name>_vertex (id, value, halted)` — vertex id, encoded vertex value,
//!   halt state;
//! * `<name>_edge (src, dst, weight, created, etype)` — edges, with the
//!   metadata attributes §4 attaches (weight, creation timestamp, type);
//! * `<name>_message (recipient, sender, value)` — in-flight messages;
//!
//! plus the run's bookkeeping table `<name>_stamp (key, value)`: the last
//! superstep a run committed, written in the same grouped commit as the
//! vertex and message tables ([`crate::shard`]'s module docs).

use std::sync::Arc;

use vertexica_common::graph::{Edge, EdgeList, VertexId};
use vertexica_common::sync::Mutex;
use vertexica_common::VertexData;
use vertexica_sql::Database;
use vertexica_storage::{
    Column, ColumnBuilder, DataType, Field, RecordBatch, Schema, TableOptions, Value,
};

use crate::error::{VertexicaError, VertexicaResult};
use crate::projection::EdgeProjection;

/// A graph stored relationally, plus the database it lives in.
#[derive(Clone)]
pub struct GraphSession {
    db: Arc<Database>,
    name: String,
    /// The cached edge projection ([`GraphSession::edge_projection`]), shared
    /// by every clone of this session.
    pub(crate) projection: Arc<Mutex<Option<Arc<EdgeProjection>>>>,
}

impl GraphSession {
    fn unchecked(db: Arc<Database>, name: &str) -> Self {
        GraphSession { db, name: name.to_ascii_lowercase(), projection: Arc::new(Mutex::new(None)) }
    }

    /// Creates the vertex/edge/message tables and the stamp table for a new
    /// graph.
    pub fn create(db: Arc<Database>, name: &str) -> VertexicaResult<Self> {
        let session = GraphSession::unchecked(db, name);
        let catalog = session.db.catalog();
        catalog.create_table(
            &session.vertex_table(),
            vertex_schema(),
            TableOptions::default().sorted_by(vec![0]),
        )?;
        catalog.create_table(
            &session.edge_table(),
            edge_schema(),
            TableOptions::default().sorted_by(vec![0]),
        )?;
        catalog.create_table(
            &session.message_table(),
            message_schema(),
            TableOptions::default().sorted_by(vec![0]),
        )?;
        catalog.create_table(&session.stamp_table(), stamp_schema(), TableOptions::default())?;
        Ok(session)
    }

    /// Opens an existing graph by name.
    pub fn open(db: Arc<Database>, name: &str) -> VertexicaResult<Self> {
        let session = GraphSession::unchecked(db, name);
        // Validate all four tables exist.
        for t in [
            session.vertex_table(),
            session.edge_table(),
            session.message_table(),
            session.stamp_table(),
        ] {
            session.db.catalog().get(&t)?;
        }
        Ok(session)
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn vertex_table(&self) -> String {
        format!("{}_vertex", self.name)
    }

    pub fn edge_table(&self) -> String {
        format!("{}_edge", self.name)
    }

    pub fn message_table(&self) -> String {
        format!("{}_message", self.name)
    }

    /// The table holding the last superstep a run committed: its number,
    /// the vertex and shard counts, and its output aggregates.
    pub fn stamp_table(&self) -> String {
        format!("{}_stamp", self.name)
    }

    /// Bulk-loads an edge list: all edges into the edge table, and one vertex
    /// row per id in `0..num_vertices` (value NULL, halted false).
    ///
    /// Loads are segmented at [`crate::input::STREAM_CHUNK_ROWS`] rows per
    /// ROS segment rather than one monolithic segment, so segment-granular
    /// machinery — zone-map pruning, and the pull-based scan cursor whose
    /// in-flight unit is one segment batch — stays bounded on huge graphs.
    pub fn load_edges(&self, graph: &EdgeList) -> VertexicaResult<()> {
        self.load_edges_shard(graph, 0, 1)
    }

    /// Sharded bulk load: keeps only the rows this engine shard **owns**
    /// under the engine-wide ownership hash
    /// ([`vertexica_storage::partition::int_key_partition`] over vid) —
    /// vertex rows where `owner(id) == shard` and edge rows where
    /// `owner(src) == shard`, so every vertex is colocated with its outbound
    /// edges. `load_edges` is exactly shard 0 of 1 (the hash maps everything
    /// to 0), so the single-database layout is unchanged byte for byte.
    ///
    /// Chunk boundaries follow the *global* id space, so each global
    /// [`crate::input::STREAM_CHUNK_ROWS`]-row window yields at most one
    /// (smaller) local segment per shard and segment-granular machinery
    /// stays bounded regardless of shard count.
    pub fn load_edges_shard(
        &self,
        graph: &EdgeList,
        shard: usize,
        num_shards: usize,
    ) -> VertexicaResult<()> {
        assert!(shard < num_shards.max(1), "shard {shard} out of range for {num_shards} shards");
        let owner = |id: i64| vertexica_storage::partition::int_key_partition(id, num_shards);
        let seg_rows = crate::input::STREAM_CHUNK_ROWS;
        // Vertices.
        let n = graph.num_vertices as usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + seg_rows).min(n);
            let local: Vec<usize> =
                (start..end).filter(|id| num_shards == 1 || owner(*id as i64) == shard).collect();
            start = end;
            if local.is_empty() {
                continue;
            }
            let mut ids = ColumnBuilder::with_capacity(DataType::Int, local.len());
            let mut values = ColumnBuilder::with_capacity(DataType::Blob, local.len());
            let mut halted = ColumnBuilder::with_capacity(DataType::Bool, local.len());
            for id in local {
                ids.push_int(id as i64);
                values.push_null();
                halted.push(Value::Bool(false)).map_err(VertexicaError::from)?;
            }
            let vbatch = RecordBatch::new(
                vertex_schema(),
                vec![ids.finish(), values.finish(), halted.finish()],
            )
            .map_err(VertexicaError::from)?;
            self.db.append_batches(&self.vertex_table(), &[vbatch])?;
        }

        // Edges (created = 0, etype NULL for plain loads).
        for chunk in graph.edges.chunks(seg_rows.max(1)) {
            let local: Vec<&Edge> =
                chunk.iter().filter(|e| num_shards == 1 || owner(e.src as i64) == shard).collect();
            if local.is_empty() {
                continue;
            }
            let mut src = ColumnBuilder::with_capacity(DataType::Int, local.len());
            let mut dst = ColumnBuilder::with_capacity(DataType::Int, local.len());
            let mut weight = ColumnBuilder::with_capacity(DataType::Float, local.len());
            let mut created = ColumnBuilder::with_capacity(DataType::Int, local.len());
            let mut etype = ColumnBuilder::with_capacity(DataType::Str, local.len());
            for e in local {
                src.push_int(e.src as i64);
                dst.push_int(e.dst as i64);
                weight.push_float(e.weight);
                created.push_int(0);
                etype.push_null();
            }
            let ebatch = RecordBatch::new(
                edge_schema(),
                vec![src.finish(), dst.finish(), weight.finish(), created.finish(), etype.finish()],
            )
            .map_err(VertexicaError::from)?;
            self.db.append_batches(&self.edge_table(), &[ebatch])?;
        }
        Ok(())
    }

    /// Loads edges with explicit creation timestamps and types (the §4
    /// metadata), used by dynamic/temporal analyses.
    pub fn load_edges_with_metadata(
        &self,
        edges: &[(Edge, i64, Option<String>)],
        num_vertices: u64,
    ) -> VertexicaResult<()> {
        let base = EdgeList::new(num_vertices, vec![]);
        self.load_edges(&base)?;
        let m = edges.len();
        let mut src = ColumnBuilder::with_capacity(DataType::Int, m);
        let mut dst = ColumnBuilder::with_capacity(DataType::Int, m);
        let mut weight = ColumnBuilder::with_capacity(DataType::Float, m);
        let mut created = ColumnBuilder::with_capacity(DataType::Int, m);
        let mut etype = ColumnBuilder::with_capacity(DataType::Str, m);
        for (e, ts, t) in edges {
            src.push_int(e.src as i64);
            dst.push_int(e.dst as i64);
            weight.push_float(e.weight);
            created.push_int(*ts);
            match t {
                Some(s) => etype.push(Value::Str(s.clone())).map_err(VertexicaError::from)?,
                None => etype.push_null(),
            }
        }
        let batch = RecordBatch::new(
            edge_schema(),
            vec![src.finish(), dst.finish(), weight.finish(), created.finish(), etype.finish()],
        )
        .map_err(VertexicaError::from)?;
        self.db.append_batches(&self.edge_table(), &[batch])?;
        Ok(())
    }

    pub fn num_vertices(&self) -> VertexicaResult<u64> {
        Ok(self.db.query_int(&format!("SELECT COUNT(*) FROM {}", self.vertex_table()))? as u64)
    }

    pub fn num_edges(&self) -> VertexicaResult<u64> {
        Ok(self.db.query_int(&format!("SELECT COUNT(*) FROM {}", self.edge_table()))? as u64)
    }

    /// Out-degree per vertex (vertices without out-edges get 0), computed
    /// relationally.
    pub fn out_degrees(&self) -> VertexicaResult<Vec<(VertexId, u64)>> {
        let rows = self.db.query(&format!(
            "SELECT v.id, COUNT(e.src) FROM {v} v LEFT JOIN {e} e ON v.id = e.src \
             GROUP BY v.id ORDER BY v.id",
            v = self.vertex_table(),
            e = self.edge_table()
        ))?;
        Ok(rows
            .into_iter()
            .map(|r| {
                let id = r[0].as_int().unwrap_or(0) as VertexId;
                let d = r[1].as_int().unwrap_or(0) as u64;
                (id, d)
            })
            .collect())
    }

    /// Decodes all vertex values, sorted by id. Blob decoding is
    /// embarrassingly parallel over storage batches, so it runs on the
    /// database's shared worker pool (sequential inline when the pool has a
    /// single worker or the table a single batch).
    pub fn vertex_values<V: VertexData + Send>(&self) -> VertexicaResult<Vec<(VertexId, V)>> {
        // Snapshot a cursor under a brief read lock; decode unlocked.
        let mut cursor = {
            let table = self.db.catalog().get(&self.vertex_table())?;
            let guard = table.read();
            guard.scan_cursor(Some(&[0, 1]), &[])?
        };
        let mut batches = Vec::new();
        while let Some(batch) = cursor.next_batch()? {
            batches.push(batch);
        }
        let decoded: Vec<VertexicaResult<Vec<(VertexId, V)>>> =
            self.db.runtime().map_indexed(batches, |_, batch| {
                let ids = batch.column(0);
                let vals = batch.column(1);
                let cells = vals
                    .as_blob()
                    .ok_or_else(|| VertexicaError::Codec("vertex value is not a blob".into()))?;
                let mut out = Vec::with_capacity(batch.num_rows());
                for i in 0..batch.num_rows() {
                    let id = ids.value(i).as_int().unwrap_or(0) as VertexId;
                    if vals.is_null(i) {
                        continue;
                    }
                    let v = V::from_bytes(cells.get(i)).ok_or_else(|| {
                        VertexicaError::Codec(format!("cannot decode value of vertex {id}"))
                    })?;
                    out.push((id, v));
                }
                Ok(out)
            });
        let mut out = Vec::new();
        for batch in decoded {
            out.extend(batch?);
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Drops the graph's tables (including any temporaries left behind).
    pub fn drop_graph(self) -> VertexicaResult<()> {
        let catalog = self.db.catalog();
        catalog.drop_table_if_exists(&self.vertex_table())?;
        catalog.drop_table_if_exists(&self.edge_table())?;
        catalog.drop_table_if_exists(&self.message_table())?;
        catalog.drop_table_if_exists(&self.stamp_table())?;
        catalog.drop_table_if_exists(&format!("{}_vertex_new", self.name))?;
        catalog.drop_table_if_exists(&format!("{}_message_new", self.name))?;
        Ok(())
    }
}

/// Schema of the vertex table.
pub fn vertex_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("id", DataType::Int),
        Field::new("value", DataType::Blob),
        Field::new("halted", DataType::Bool),
    ])
}

/// Schema of the edge table.
pub fn edge_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("src", DataType::Int),
        Field::not_null("dst", DataType::Int),
        Field::new("weight", DataType::Float),
        Field::new("created", DataType::Int),
        Field::new("etype", DataType::Str),
    ])
}

/// Schema of the message table.
pub fn message_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("recipient", DataType::Int),
        Field::new("sender", DataType::Int),
        Field::new("value", DataType::Blob),
    ])
}

/// Schema of the stamp table: one `(key, value)` row per stamped fact.
pub fn stamp_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("key", DataType::Str),
        Field::not_null("value", DataType::Int),
    ])
}

/// Builds a message-table batch from (recipient, sender, payload) triples.
pub fn message_batch(messages: &[(VertexId, VertexId, Vec<u8>)]) -> VertexicaResult<RecordBatch> {
    let mut rec = ColumnBuilder::with_capacity(DataType::Int, messages.len());
    let mut snd = ColumnBuilder::with_capacity(DataType::Int, messages.len());
    let mut val = ColumnBuilder::with_capacity(DataType::Blob, messages.len());
    for (r, s, v) in messages {
        rec.push_int(*r as i64);
        snd.push_int(*s as i64);
        val.push_blob(v);
    }
    let cols: Vec<Column> = vec![rec.finish(), snd.finish(), val.finish()];
    RecordBatch::new(message_schema(), cols).map_err(VertexicaError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        EdgeList::from_pairs([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn create_and_load() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "G").unwrap();
        g.load_edges(&diamond()).unwrap();
        assert_eq!(g.num_vertices().unwrap(), 4);
        assert_eq!(g.num_edges().unwrap(), 4);
        // Tables visible to plain SQL.
        assert_eq!(db.query_int("SELECT COUNT(*) FROM g_edge WHERE src = 0").unwrap(), 2);
    }

    #[test]
    fn duplicate_graph_rejected() {
        let db = Arc::new(Database::new());
        GraphSession::create(db.clone(), "g").unwrap();
        assert!(GraphSession::create(db, "g").is_err());
    }

    #[test]
    fn open_requires_tables() {
        let db = Arc::new(Database::new());
        assert!(GraphSession::open(db.clone(), "ghost").is_err());
        GraphSession::create(db.clone(), "g").unwrap();
        assert!(GraphSession::open(db, "g").is_ok());
    }

    #[test]
    fn out_degrees_include_sinks() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&diamond()).unwrap();
        let deg = g.out_degrees().unwrap();
        assert_eq!(deg, vec![(0, 2), (1, 1), (2, 1), (3, 0)]);
    }

    #[test]
    fn vertex_values_decode() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&diamond()).unwrap();
        // Write an encoded f64 into vertex 2.
        let bytes = 2.5f64.to_bytes();
        let table = db.catalog().get("g_vertex").unwrap();
        {
            let scans = table.read().scan_with_rowids(None, &[]).unwrap();
            let mut updates = Vec::new();
            for (batch, ids) in scans {
                for (i, &rowid) in ids.iter().enumerate().take(batch.num_rows()) {
                    if batch.row(i)[0] == Value::Int(2) {
                        updates.push((
                            rowid,
                            vec![Value::Int(2), Value::Blob(bytes.clone()), Value::Bool(false)],
                        ));
                    }
                }
            }
            table.write().update_rows(updates).unwrap();
        }
        let vals: Vec<(VertexId, f64)> = g.vertex_values().unwrap();
        assert_eq!(vals, vec![(2, 2.5)]);
    }

    #[test]
    fn vertex_values_decode_in_parallel_across_batches() {
        // Five separate appends → five storage segments → five pool tasks.
        let db = Arc::new(Database::new());
        db.set_worker_threads(4);
        let g = GraphSession::create(db.clone(), "g").unwrap();
        let table = db.catalog().get("g_vertex").unwrap();
        for chunk in 0..5i64 {
            let rows: Vec<Vec<Value>> = (0..10)
                .map(|i| {
                    let id = chunk * 10 + i;
                    vec![Value::Int(id), Value::Blob((id as f64).to_bytes()), Value::Bool(false)]
                })
                .collect();
            let batch = RecordBatch::from_rows(vertex_schema(), &rows).unwrap();
            table.write().append_batch(&batch).unwrap();
        }
        let vals: Vec<(VertexId, f64)> = g.vertex_values().unwrap();
        assert_eq!(vals.len(), 50);
        for (i, (id, v)) in vals.iter().enumerate() {
            assert_eq!(*id, i as VertexId);
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn drop_graph_removes_tables() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&diamond()).unwrap();
        GraphSession::open(db.clone(), "g").unwrap().drop_graph().unwrap();
        assert!(db.query("SELECT * FROM g_vertex").is_err());
    }

    #[test]
    fn message_batch_builds() {
        let b = message_batch(&[(1, 0, vec![1, 2]), (2, 0, vec![3])]).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.column(0).value(1), Value::Int(2));
    }

    #[test]
    fn load_with_metadata() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges_with_metadata(
            &[
                (Edge::new(0, 1), 100, Some("family".into())),
                (Edge::new(1, 2), 200, Some("friend".into())),
                (Edge::new(2, 0), 300, None),
            ],
            3,
        )
        .unwrap();
        assert_eq!(db.query_int("SELECT COUNT(*) FROM g_edge WHERE etype = 'family'").unwrap(), 1);
        assert_eq!(db.query_int("SELECT COUNT(*) FROM g_edge WHERE created > 150").unwrap(), 2);
    }
}
