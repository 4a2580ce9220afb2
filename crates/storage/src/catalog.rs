//! The named-table catalog.
//!
//! Thread-safe: the catalog map and each table are behind seam (`vertexica_common::sync`)
//! RwLocks, so the coordinator can swap tables while workers are reading
//! others. The atomic [`Catalog::swap`] is the primitive behind Vertexica's
//! *replace* strategy (§2.3): build `vertex_new` via a left join, then swap it
//! with `vertex` and drop the old one.

use std::sync::Arc;

use vertexica_common::sync::RwLock;
use vertexica_common::FxHashMap;

use crate::buffer_pool::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::persist;
use crate::table::{Table, TableOptions};
use crate::value::Schema;
use crate::wal::WalSink;

/// Shared handle to a table.
pub type TableRef = Arc<RwLock<Table>>;

/// A catalog of named tables.
///
/// With a durability sink attached (`Catalog::attach_wal`, done by
/// [`crate::wal::open_durable`]), every DDL operation is WAL-logged before it
/// applies, every table the catalog hands out logs its own mutations, and
/// [`Catalog::replace_contents_many`] runs the durable commit protocol.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<FxHashMap<String, TableRef>>,
    wal: RwLock<Option<Arc<WalSink>>>,
    /// The segment buffer pool every table's ROS segments register with.
    /// Unbounded until [`BufferPool::set_budget`] caps it; eviction only
    /// bites on durable catalogs, where checkpointed segments have spill
    /// images to reload from.
    pool: Arc<BufferPool>,
}

fn normalize(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The attached durability sink, if this catalog belongs to a durable
    /// database.
    pub fn wal_sink(&self) -> Option<Arc<WalSink>> {
        self.wal.read().clone()
    }

    /// Whether a durability sink is attached.
    pub fn is_durable(&self) -> bool {
        self.wal.read().is_some()
    }

    /// The segment buffer pool shared by all of this catalog's tables.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Attaches the durability sink to the catalog and to every table it
    /// currently holds. Called once by [`crate::wal::open_durable`], after
    /// recovery replay (so replay itself is not re-logged).
    pub(crate) fn attach_wal(&self, wal: Arc<WalSink>) {
        // Wire the sink and pool together: GC keeps spill-referenced files,
        // and evicted segments reload out of the sink's directory.
        wal.attach_pool(self.pool.clone());
        self.pool.set_dir(wal.dir());
        let tables = self.tables.write();
        for (name, t) in tables.iter() {
            wal.ensure_meta(name);
            t.write().set_wal(Some(wal.clone()));
        }
        *self.wal.write() = Some(wal);
    }

    /// Creates a table; errors if the name is taken.
    pub fn create_table(
        &self,
        name: &str,
        schema: Arc<Schema>,
        options: TableOptions,
    ) -> StorageResult<TableRef> {
        let key = normalize(name);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let wal = self.wal.read().clone();
        if let Some(w) = &wal {
            w.log_create_table(&key, &schema, &options)?;
        }
        let mut table = Table::new(key.clone(), schema, options);
        table.set_wal(wal);
        table.set_pool(Some(self.pool.clone()));
        let table = Arc::new(RwLock::new(table));
        tables.insert(key, table.clone());
        Ok(table)
    }

    /// Registers an existing table object under its name.
    pub fn register(&self, table: Table) -> StorageResult<TableRef> {
        let key = normalize(table.name());
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::DuplicateTable(key));
        }
        let wal = self.wal.read().clone();
        let mut table = table;
        table.set_name(key.clone());
        if let Some(w) = &wal {
            w.log_register_table(&key, &persist::table_to_bytes_physical(&table)?)?;
        }
        table.set_wal(wal);
        table.set_pool(Some(self.pool.clone()));
        let table = Arc::new(RwLock::new(table));
        tables.insert(key, table.clone());
        Ok(table)
    }

    /// Looks up a table by name.
    pub fn get(&self, name: &str) -> StorageResult<TableRef> {
        self.tables
            .read()
            .get(&normalize(name))
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&normalize(name))
    }

    /// Drops a table; errors if missing.
    pub fn drop_table(&self, name: &str) -> StorageResult<()> {
        let key = normalize(name);
        let mut tables = self.tables.write();
        if !tables.contains_key(&key) {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        if let Some(w) = self.wal.read().as_ref() {
            w.log_drop_table(&key)?;
        }
        tables.remove(&key);
        Ok(())
    }

    /// Drops a table if it exists; returns whether it did.
    pub fn drop_table_if_exists(&self, name: &str) -> StorageResult<bool> {
        let key = normalize(name);
        let mut tables = self.tables.write();
        if !tables.contains_key(&key) {
            return Ok(false);
        }
        if let Some(w) = self.wal.read().as_ref() {
            w.log_drop_table(&key)?;
        }
        tables.remove(&key);
        Ok(true)
    }

    /// Renames a table.
    pub fn rename(&self, from: &str, to: &str) -> StorageResult<()> {
        let from_key = normalize(from);
        let to_key = normalize(to);
        let mut tables = self.tables.write();
        if tables.contains_key(&to_key) {
            return Err(StorageError::DuplicateTable(to.to_string()));
        }
        if !tables.contains_key(&from_key) {
            return Err(StorageError::NoSuchTable(from.to_string()));
        }
        if let Some(w) = self.wal.read().as_ref() {
            w.log_rename(&from_key, &to_key)?;
        }
        // vxlint: allow(no-unwrap-recovery) -- infallible: contains_key(from_key) verified above under the same write lock
        let t = tables.remove(&from_key).expect("checked above");
        t.write().set_name(to_key.clone());
        tables.insert(to_key, t);
        Ok(())
    }

    /// Atomically exchanges the contents of two named tables (both keep their
    /// names, their data/handles swap).
    pub fn swap(&self, a: &str, b: &str) -> StorageResult<()> {
        let a_key = normalize(a);
        let b_key = normalize(b);
        let mut tables = self.tables.write();
        if !tables.contains_key(&a_key) {
            return Err(StorageError::NoSuchTable(a.to_string()));
        }
        if !tables.contains_key(&b_key) {
            return Err(StorageError::NoSuchTable(b.to_string()));
        }
        if let Some(w) = self.wal.read().as_ref() {
            w.log_swap(&a_key, &b_key)?;
        }
        // vxlint: allow(no-unwrap-recovery) -- infallible: contains_key(a_key) verified above under the same write lock
        let ta = tables.remove(&a_key).unwrap();
        // vxlint: allow(no-unwrap-recovery) -- infallible: contains_key(b_key) verified above under the same write lock
        let tb = tables.remove(&b_key).unwrap();
        ta.write().set_name(b_key.clone());
        tb.write().set_name(a_key.clone());
        tables.insert(a_key, tb);
        tables.insert(b_key, ta);
        Ok(())
    }

    /// Atomically replaces the **contents** of an existing table with a
    /// fully-built replacement, keeping the name and the shared handle.
    ///
    /// This is the commit half of the segment-parallel apply path: segments
    /// are encoded off to the side (on the worker pool), assembled into a
    /// fresh [`Table`], and swapped in here under a single table write lock —
    /// readers holding the [`TableRef`] observe either the complete old or
    /// the complete new contents, never a mixture, and no `_new`/`_delta`
    /// temporary tables are needed.
    pub fn replace_contents(&self, name: &str, table: Table) -> StorageResult<()> {
        self.replace_contents_many(vec![(name.to_string(), table)])
    }

    /// Atomically replaces the contents of **several** tables as one durable
    /// commit — the superstep-apply commit point. In-memory, each swap is
    /// per-table atomic exactly like [`Catalog::replace_contents`]; on disk,
    /// the whole group commits via a *single* WAL `Commit` record naming
    /// every `(table, segment file)` pair, so recovery lands on either all of
    /// the new tables or none of them.
    ///
    /// Protocol: serialize each fresh table's physical image, take every
    /// target's write lock (in sorted name order — no lock-order inversion),
    /// write the images to fresh segment files + append the commit marker
    /// (`WalSink::commit_replace`), then install the new contents under the
    /// still-held locks. Holding the locks across log-then-install means no
    /// writer can slip a record against the doomed old contents in between.
    pub fn replace_contents_many(&self, tables: Vec<(String, Table)>) -> StorageResult<()> {
        let wal = self.wal.read().clone();
        // Normalize names, set them on the fresh tables, serialize images
        // (keeping each segment's byte span for spill addressing).
        type Prep = (String, Table, Option<(Vec<u8>, Vec<persist::SegmentSpan>)>);
        let mut prepared: Vec<Prep> = Vec::with_capacity(tables.len());
        for (name, mut table) in tables {
            let key = normalize(&name);
            table.set_name(key.clone());
            let bytes = if wal.is_some() {
                Some(persist::table_to_bytes_physical_indexed(&table)?)
            } else {
                None
            };
            prepared.push((key, table, bytes));
        }
        prepared.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in prepared.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(StorageError::Internal(format!(
                    "replace_contents_many given table {} twice",
                    pair[0].0
                )));
            }
        }
        let refs: Vec<TableRef> =
            prepared.iter().map(|(name, _, _)| self.get(name)).collect::<StorageResult<_>>()?;
        let mut guards: Vec<_> = refs.iter().map(|r| r.write()).collect();
        let mut spans: Vec<Vec<persist::SegmentSpan>> = Vec::new();
        let files: Option<Vec<(String, String)>> = if let Some(w) = &wal {
            let entries: Vec<(String, Vec<u8>)> = prepared
                .iter_mut()
                .map(|(name, _, bytes)| {
                    // vxlint: allow(no-unwrap-recovery) -- infallible: every `prepared` entry was filled by the serialize pass above and taken exactly once
                    let (bytes, sp) = bytes.take().expect("serialized above");
                    spans.push(sp);
                    (name.clone(), bytes)
                })
                .collect();
            Some(w.commit_replace(&entries)?)
        } else {
            None
        };
        for (i, (guard, (_, mut table, _))) in guards.iter_mut().zip(prepared).enumerate() {
            table.set_wal(wal.clone());
            table.set_pool(Some(self.pool.clone()));
            // The commit wrote this table's image; its segments now have
            // disk twins at the recorded spans and are evictable.
            if let Some(files) = &files {
                table.assign_spill_addrs(&files[i].1, &spans[i])?;
            }
            **guard = table;
        }
        drop(guards);
        // The old contents just dropped and new ones landed: re-enforce the
        // budget now that residency moved.
        self.pool.enforce();
        Ok(())
    }

    /// Flushes every **dirty** table's physical image to a segment file,
    /// publishes a fresh manifest, and — once nothing is left unflushed —
    /// rotates (truncates) the WAL. Clean tables keep their existing image
    /// files, watermarks, and segment spill addresses. Each flushed image
    /// becomes the spill twin of that table's segments, making them
    /// evictable; the budget is re-enforced before returning. No-op without
    /// an attached sink.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let Some(wal) = self.wal_sink() else { return Ok(()) };
        // Holding the map write lock blocks DDL (not data writes, which go
        // through per-table locks + the sink directly) so the manifest's
        // table list is a consistent snapshot.
        let tables = self.tables.write();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        for name in names {
            if !wal.needs_flush(name) {
                continue;
            }
            // Hold the table's read lock across the flush: writers log under
            // the write lock, so nothing can slip a record between the image
            // serialization and the watermark sample inside `flush_table`.
            let guard = tables[name].read();
            let (bytes, spans) = persist::table_to_bytes_physical_indexed(&guard)?;
            let file = wal.flush_table(name, &bytes)?;
            guard.assign_spill_addrs(&file, &spans)?;
        }
        wal.finish_checkpoint()?;
        drop(tables);
        self.pool.enforce();
        Ok(())
    }

    /// Sorted list of table names.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field, Value};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    #[test]
    fn create_get_drop() {
        let cat = Catalog::new();
        cat.create_table("T1", schema(), TableOptions::default()).unwrap();
        assert!(cat.contains("t1"));
        assert!(cat.get("T1").is_ok());
        cat.drop_table("t1").unwrap();
        assert!(!cat.contains("t1"));
        assert!(matches!(cat.get("t1"), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_create_rejected() {
        let cat = Catalog::new();
        cat.create_table("t", schema(), TableOptions::default()).unwrap();
        assert!(matches!(
            cat.create_table("T", schema(), TableOptions::default()),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn rename_moves_table() {
        let cat = Catalog::new();
        let t = cat.create_table("old", schema(), TableOptions::default()).unwrap();
        t.write().insert_row(vec![Value::Int(1)]).unwrap();
        cat.rename("old", "new").unwrap();
        assert!(!cat.contains("old"));
        let t2 = cat.get("new").unwrap();
        assert_eq!(t2.read().num_rows(), 1);
        assert_eq!(t2.read().name(), "new");
    }

    #[test]
    fn rename_to_existing_rejected() {
        let cat = Catalog::new();
        cat.create_table("a", schema(), TableOptions::default()).unwrap();
        cat.create_table("b", schema(), TableOptions::default()).unwrap();
        assert!(cat.rename("a", "b").is_err());
    }

    #[test]
    fn swap_exchanges_contents() {
        let cat = Catalog::new();
        let a = cat.create_table("a", schema(), TableOptions::default()).unwrap();
        let b = cat.create_table("b", schema(), TableOptions::default()).unwrap();
        a.write().insert_row(vec![Value::Int(1)]).unwrap();
        b.write().insert_row(vec![Value::Int(2)]).unwrap();
        b.write().insert_row(vec![Value::Int(3)]).unwrap();
        cat.swap("a", "b").unwrap();
        assert_eq!(cat.get("a").unwrap().read().num_rows(), 2);
        assert_eq!(cat.get("b").unwrap().read().num_rows(), 1);
        assert_eq!(cat.get("a").unwrap().read().name(), "a");
    }

    #[test]
    fn swap_missing_table_rejected() {
        let cat = Catalog::new();
        cat.create_table("a", schema(), TableOptions::default()).unwrap();
        assert!(cat.swap("a", "nope").is_err());
    }

    #[test]
    fn list_is_sorted() {
        let cat = Catalog::new();
        cat.create_table("zeta", schema(), TableOptions::default()).unwrap();
        cat.create_table("alpha", schema(), TableOptions::default()).unwrap();
        assert_eq!(cat.list(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn replace_contents_swaps_under_existing_handle() {
        let cat = Catalog::new();
        let t = cat.create_table("t", schema(), TableOptions::default()).unwrap();
        t.write().insert_row(vec![Value::Int(1)]).unwrap();

        let mut fresh = Table::new("whatever", schema(), TableOptions::default());
        fresh.insert_row(vec![Value::Int(7)]).unwrap();
        fresh.insert_row(vec![Value::Int(8)]).unwrap();
        cat.replace_contents("T", fresh).unwrap();

        // The *same* handle observes the new contents under the old name.
        assert_eq!(t.read().num_rows(), 2);
        assert_eq!(t.read().name(), "t");
        assert_eq!(cat.get("t").unwrap().read().num_rows(), 2);
        assert!(cat
            .replace_contents("ghost", Table::new("x", schema(), TableOptions::default()))
            .is_err());
    }

    #[test]
    fn drop_if_exists() {
        let cat = Catalog::new();
        assert!(!cat.drop_table_if_exists("ghost").unwrap());
        cat.create_table("t", schema(), TableOptions::default()).unwrap();
        assert!(cat.drop_table_if_exists("t").unwrap());
    }
}
