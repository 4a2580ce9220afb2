//! Tables with a Vertica-style WOS/ROS split.
//!
//! Writes land in a row-oriented **write-optimized store** (WOS). When the WOS
//! exceeds a threshold (or on explicit [`Table::moveout`]), rows are sorted by
//! the table's sort key, columnized, encoded and appended to the
//! **read-optimized store** (ROS) as an immutable [`Segment`] with per-column
//! zone maps. Deletes are recorded in per-segment **delete vectors**; updates
//! are delete + re-insert. This is the machinery Vertexica's update-vs-replace
//! optimization (§2.3) trades off against whole-table replacement.

use std::sync::Arc;

use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::buffer_pool::{BufferPool, SegmentHandle, SpillAddr};
use crate::column::{Column, ColumnBuilder};
use crate::encoding::EncodedColumn;
use crate::error::{StorageError, StorageResult};
use crate::value::{Schema, Value};
use crate::wal::{self, WalSink};

/// A row of dynamic values (WOS representation).
pub type Row = Vec<Value>;

/// Tuning knobs for a table.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// WOS rows that trigger an automatic moveout.
    pub moveout_threshold: usize,
    /// Whether ROS segments are compressed (auto-chosen RLE/dictionary).
    pub compress: bool,
    /// Column indices the ROS is sorted by (a Vertica "projection" order).
    pub sort_key: Vec<usize>,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions { moveout_threshold: 64 * 1024, compress: false, sort_key: Vec::new() }
    }
}

impl TableOptions {
    pub fn sorted_by(mut self, cols: Vec<usize>) -> Self {
        self.sort_key = cols;
        self
    }

    pub fn compressed(mut self) -> Self {
        self.compress = true;
        self
    }

    pub fn with_moveout_threshold(mut self, t: usize) -> Self {
        self.moveout_threshold = t.max(1);
        self
    }
}

/// Comparison operators supported by scan-level predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

/// A simple `column <op> literal` predicate, pushed down into scans for
/// zone-map pruning and early filtering.
#[derive(Debug, Clone)]
pub struct ColumnPredicate {
    pub column: usize,
    pub op: PredicateOp,
    pub value: Value,
}

impl ColumnPredicate {
    pub fn new(column: usize, op: PredicateOp, value: Value) -> Self {
        ColumnPredicate { column, op, value }
    }

    /// True if a row with value `v` satisfies the predicate (SQL semantics:
    /// NULL never matches).
    pub fn matches(&self, v: &Value) -> bool {
        if v.is_null() || self.value.is_null() {
            return false;
        }
        let ord = v.total_cmp(&self.value);
        match self.op {
            PredicateOp::Eq => ord.is_eq(),
            PredicateOp::NotEq => !ord.is_eq(),
            PredicateOp::Lt => ord.is_lt(),
            PredicateOp::LtEq => ord.is_le(),
            PredicateOp::Gt => ord.is_gt(),
            PredicateOp::GtEq => ord.is_ge(),
        }
    }

    /// Could any row in a segment with this zone map match?
    fn maybe_in(&self, zm: &ZoneMap) -> bool {
        if zm.min.is_null() && zm.max.is_null() {
            // All-null column: no non-null value can match.
            return false;
        }
        match self.op {
            PredicateOp::Eq => {
                self.value.total_cmp(&zm.min).is_ge() && self.value.total_cmp(&zm.max).is_le()
            }
            PredicateOp::NotEq => true,
            PredicateOp::Lt => zm.min.total_cmp(&self.value).is_lt(),
            PredicateOp::LtEq => zm.min.total_cmp(&self.value).is_le(),
            PredicateOp::Gt => zm.max.total_cmp(&self.value).is_gt(),
            PredicateOp::GtEq => zm.max.total_cmp(&self.value).is_ge(),
        }
    }
}

/// Per-column min/max statistics for a segment.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    pub min: Value,
    pub max: Value,
    pub null_count: usize,
}

impl ZoneMap {
    fn from_column(col: &Column) -> ZoneMap {
        Self::from_column_range(col, 0, col.len())
    }

    /// Min, max and null count of rows `start..start + len`, over typed
    /// slices in exactly [`Value::total_cmp`]'s order (`i64::cmp`,
    /// `f64::total_cmp`, `bool::cmp`, bytewise strings and blobs); only the
    /// two winners are boxed.
    fn from_column_range(col: &Column, start: usize, len: usize) -> ZoneMap {
        let rows = start..start + len;
        let null_count = rows.clone().filter(|&i| col.is_null(i)).count();
        let valid = rows.filter(|&i| !col.is_null(i));
        let (min, max) = if let Some(v) = col.as_int() {
            bounds(valid.map(|i| &v[i]), i64::cmp, |x| Value::Int(*x))
        } else if let Some(v) = col.as_float() {
            bounds(valid.map(|i| &v[i]), f64::total_cmp, |x| Value::Float(*x))
        } else if let Some(v) = col.as_bool() {
            bounds(valid.map(|i| &v[i]), bool::cmp, |x| Value::Bool(*x))
        } else if let Some(v) = col.as_str() {
            bounds(valid.map(|i| v[i].as_str()), str::cmp, |x| Value::Str(x.to_string()))
        } else if let Some(cells) = col.as_blob() {
            bounds(valid.map(|i| cells.get(i)), <[u8]>::cmp, |x| Value::Blob(x.to_vec()))
        } else {
            (Value::Null, Value::Null)
        };
        ZoneMap { min, max, null_count }
    }
}

/// The first minimum and first maximum of `cells` under `cmp`, boxed by
/// `value`; `(Null, Null)` when there are none.
fn bounds<'a, T: ?Sized + 'a>(
    cells: impl Iterator<Item = &'a T>,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
    value: impl Fn(&T) -> Value,
) -> (Value, Value) {
    let mut best: Option<(&T, &T)> = None;
    for c in cells {
        best = Some(match best {
            None => (c, c),
            Some((min, max)) => (
                if cmp(c, min).is_lt() { c } else { min },
                if cmp(c, max).is_gt() { c } else { max },
            ),
        });
    }
    best.map_or((Value::Null, Value::Null), |(min, max)| (value(min), value(max)))
}

/// Rows per zone-mapped block inside a segment. Blocks are the granularity
/// of partial decode: a pushed-down predicate that rules out a block's
/// min/max skips decoding those rows entirely (see
/// [`ScanCursor::next_with_rowids`]).
pub const BLOCK_ROWS: usize = 1024;

/// An immutable ROS segment: encoded columns plus zone maps — one per
/// column for the whole segment, and one per column per [`BLOCK_ROWS`]-row
/// block for partial decode.
#[derive(Debug, Clone)]
pub struct Segment {
    num_rows: usize,
    columns: Vec<EncodedColumn>,
    zone_maps: Vec<ZoneMap>,
    /// `block_zone_maps[col][block]`; empty inner vec when the segment fits
    /// in a single block (the per-segment map already covers it).
    block_zone_maps: Vec<Vec<ZoneMap>>,
}

impl Segment {
    fn from_columns(columns: Vec<Column>, compress: bool) -> Segment {
        let num_rows = columns.first().map_or(0, |c| c.len());
        let zone_maps = columns.iter().map(ZoneMap::from_column).collect();
        let num_blocks = num_rows.div_ceil(BLOCK_ROWS);
        let block_zone_maps = columns
            .iter()
            .map(|c| {
                if num_blocks <= 1 {
                    Vec::new()
                } else {
                    (0..num_blocks)
                        .map(|b| {
                            let start = b * BLOCK_ROWS;
                            let len = BLOCK_ROWS.min(num_rows - start);
                            ZoneMap::from_column_range(c, start, len)
                        })
                        .collect()
                }
            })
            .collect();
        let columns = columns
            .into_iter()
            .map(
                |c| if compress { EncodedColumn::encode_auto(&c) } else { EncodedColumn::Plain(c) },
            )
            .collect();
        Segment { num_rows, columns, zone_maps, block_zone_maps }
    }

    /// Builds an encoded, zone-mapped ROS segment for a table with `schema`
    /// directly from a batch, coercing columns like [`Table::append_batch`].
    ///
    /// This is the off-table half of segmented ingest: because it needs no
    /// `&mut Table`, callers can encode many segments concurrently (e.g. one
    /// per apply partition on a worker pool) and only serialize the cheap
    /// [`Table::adopt_segment`] / [`crate::catalog::Catalog::replace_contents`]
    /// commit.
    pub fn build(schema: &Schema, batch: &RecordBatch, compress: bool) -> StorageResult<Segment> {
        if batch.num_columns() != schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                found: batch.num_columns(),
            });
        }
        let mut columns = Vec::with_capacity(batch.num_columns());
        for (field, col) in schema.fields.iter().zip(batch.columns()) {
            if col.dtype() != field.dtype {
                // Column-level coercion (e.g. Int batch into Float column).
                let mut b = ColumnBuilder::with_capacity(field.dtype, col.len());
                for i in 0..col.len() {
                    b.push(col.value(i))?;
                }
                columns.push(b.finish());
            } else {
                columns.push(col.clone());
            }
        }
        Ok(Segment::from_columns(columns, compress))
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn zone_map(&self, col: usize) -> &ZoneMap {
        &self.zone_maps[col]
    }

    /// Number of [`BLOCK_ROWS`]-row blocks covering this segment.
    pub fn num_blocks(&self) -> usize {
        self.num_rows.div_ceil(BLOCK_ROWS).max(1)
    }

    /// `(start row, row count)` of block `b`.
    pub fn block_range(&self, b: usize) -> (usize, usize) {
        let start = b * BLOCK_ROWS;
        (start, BLOCK_ROWS.min(self.num_rows - start))
    }

    /// Zone map of block `b` of column `col`. A single-block segment answers
    /// with the per-segment map (the per-block vec is elided to save memory).
    pub fn block_zone_map(&self, col: usize, b: usize) -> &ZoneMap {
        let blocks = &self.block_zone_maps[col];
        if blocks.is_empty() {
            &self.zone_maps[col]
        } else {
            &blocks[b]
        }
    }

    pub fn encoded_column(&self, col: usize) -> &EncodedColumn {
        &self.columns[col]
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The per-block zone maps exactly as stored: empty when the segment fits
    /// in one block and elides them. Persistence serializes this verbatim so
    /// a recovered segment is byte-identical under re-serialization.
    pub(crate) fn stored_block_zone_maps(&self, col: usize) -> &[ZoneMap] {
        &self.block_zone_maps[col]
    }

    /// Reassembles a segment from persisted parts, validating the shape
    /// invariants [`Segment::from_columns`] guarantees by construction.
    pub(crate) fn from_parts(
        num_rows: usize,
        columns: Vec<EncodedColumn>,
        zone_maps: Vec<ZoneMap>,
        block_zone_maps: Vec<Vec<ZoneMap>>,
    ) -> StorageResult<Segment> {
        if zone_maps.len() != columns.len() || block_zone_maps.len() != columns.len() {
            return Err(StorageError::Corrupt("segment zone-map arity mismatch".into()));
        }
        let expected_blocks = num_rows.div_ceil(BLOCK_ROWS);
        for (col, blocks) in columns.iter().zip(&block_zone_maps) {
            if col.num_rows() != num_rows {
                return Err(StorageError::Corrupt("segment column row-count mismatch".into()));
            }
            if !blocks.is_empty() && blocks.len() != expected_blocks {
                return Err(StorageError::Corrupt("segment block zone-map count mismatch".into()));
            }
        }
        Ok(Segment { num_rows, columns, zone_maps, block_zone_maps })
    }

    /// Estimated encoded size in bytes — the unit of buffer-pool byte
    /// accounting (column payloads only; zone-map overhead is negligible).
    pub fn estimated_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.size_estimate()).sum()
    }

    fn decode_column(&self, col: usize) -> StorageResult<Column> {
        self.columns[col].decode()
    }

    fn decode_column_range(&self, col: usize, start: usize, len: usize) -> StorageResult<Column> {
        self.columns[col].decode_range(start, len)
    }
}

/// WOS segment id used in row ids.
const WOS_SEGMENT: u32 = u32::MAX;

/// Packs a (segment, row) pair into a rowid.
#[inline]
fn rowid(segment: u32, row: u32) -> u64 {
    ((segment as u64) << 32) | row as u64
}

#[inline]
fn unpack_rowid(id: u64) -> (u32, u32) {
    ((id >> 32) as u32, id as u32)
}

/// Source of [`Table::data_version`] stamps. One counter for the whole
/// process, so a table swapped in under an existing name (replace, swap,
/// rename, recovery) can never carry a stamp an older table once had.
/// `Relaxed` suffices: only uniqueness of the drawn values matters, and each
/// value is published through the owning table's lock.
static NEXT_DATA_VERSION: vertexica_common::sync::AtomicU64 =
    vertexica_common::sync::AtomicU64::new(1);

fn next_data_version() -> u64 {
    NEXT_DATA_VERSION.fetch_add(1, vertexica_common::sync::Ordering::Relaxed)
}

/// A table: schema + WOS + ROS segments + delete vectors.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    options: TableOptions,
    wos: Vec<Row>,
    segments: Vec<SegmentHandle>,
    delete_vectors: Vec<Bitmap>,
    /// See [`Table::data_version`].
    data_version: u64,
    /// Monotonic count of segments skipped by zone-map pruning across all
    /// scans of this table handle — observability for "did the pruning
    /// predicate actually avoid decoding that segment?" (regression-tested
    /// against segments produced by the segmented-replace fast path).
    /// Shared (`Arc`) with every [`ScanCursor`] snapshotted from this table,
    /// so pruning observed by a cursor *after* the catalog lock was dropped
    /// still lands on the same counter the eager scan bumps.
    segments_pruned: Arc<vertexica_common::sync::AtomicU64>,
    /// Like `segments_pruned`, but counting [`BLOCK_ROWS`]-row blocks skipped
    /// by per-block zone maps inside segments that survived segment-level
    /// pruning (blocks of pruned segments are *not* counted — they were never
    /// considered).
    blocks_pruned: Arc<vertexica_common::sync::AtomicU64>,
    /// Estimated bytes of column data decoded by scans of this table handle
    /// (full-segment and partial block decodes alike) — the gauge that shows
    /// block-granular decode paying off: with a selective pushed-down
    /// predicate it stays proportional to surviving blocks, not segments.
    bytes_decoded: Arc<vertexica_common::sync::AtomicU64>,
    /// Durability sink, when this table belongs to a durable database. Every
    /// mutation is logged here *before* it is applied and acknowledged; the
    /// `_unlogged` method variants are the apply halves, shared with WAL
    /// replay so recovery reproduces the original mutations deterministically.
    wal: Option<Arc<WalSink>>,
    /// Segment buffer pool, when this table belongs to a catalog. Every ROS
    /// segment handle is registered here so cold segments can be evicted
    /// under a memory budget and reloaded from their checkpoint images.
    pool: Option<Arc<BufferPool>>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Arc<Schema>, options: TableOptions) -> Self {
        Table {
            name: name.into(),
            schema,
            options,
            wos: Vec::new(),
            segments: Vec::new(),
            delete_vectors: Vec::new(),
            data_version: next_data_version(),
            segments_pruned: Arc::new(vertexica_common::sync::AtomicU64::new(0)),
            blocks_pruned: Arc::new(vertexica_common::sync::AtomicU64::new(0)),
            bytes_decoded: Arc::new(vertexica_common::sync::AtomicU64::new(0)),
            wal: None,
            pool: None,
        }
    }

    /// Reassembles a table from persisted physical parts (see
    /// [`crate::persist::table_from_bytes_physical`]), validating the shape
    /// invariants the mutation API guarantees by construction.
    pub(crate) fn from_parts(
        name: String,
        schema: Arc<Schema>,
        options: TableOptions,
        wos: Vec<Row>,
        segments: Vec<Segment>,
        delete_vectors: Vec<Bitmap>,
    ) -> StorageResult<Table> {
        if segments.len() != delete_vectors.len() {
            return Err(StorageError::Corrupt("delete-vector count mismatch".into()));
        }
        for (seg, dv) in segments.iter().zip(&delete_vectors) {
            if seg.num_columns() != schema.len() {
                return Err(StorageError::Corrupt("segment arity mismatch".into()));
            }
            for (field, c) in schema.fields.iter().zip(&seg.columns) {
                if c.dtype() != field.dtype {
                    return Err(StorageError::Corrupt(format!(
                        "segment column type mismatch for {}",
                        field.name
                    )));
                }
            }
            if dv.len() != seg.num_rows() {
                return Err(StorageError::Corrupt("delete-vector length mismatch".into()));
            }
        }
        for row in &wos {
            if row.len() != schema.len() {
                return Err(StorageError::Corrupt("wos row arity mismatch".into()));
            }
        }
        let mut t = Table::new(name, schema, options);
        t.wos = wos;
        t.segments = segments.into_iter().map(|s| SegmentHandle::new(Arc::new(s))).collect();
        t.delete_vectors = delete_vectors;
        Ok(t)
    }

    /// Attaches (or detaches) the durability sink. While attached, every
    /// mutation is WAL-logged before it is applied.
    pub(crate) fn set_wal(&mut self, wal: Option<Arc<WalSink>>) {
        self.wal = wal;
    }

    /// Attaches the segment buffer pool, registering all existing ROS
    /// segments with its clock. New segments register as they are adopted.
    pub(crate) fn set_pool(&mut self, pool: Option<Arc<BufferPool>>) {
        if let Some(p) = &pool {
            for handle in &self.segments {
                p.register(handle);
            }
        }
        self.pool = pool;
    }

    /// Records the spill addresses of this table's segments inside a freshly
    /// written checkpoint image (`file`, with one span per segment in
    /// order), making them evictable. Called strictly after the image is
    /// durably on disk.
    pub(crate) fn assign_spill_addrs(
        &self,
        file: &str,
        spans: &[crate::persist::SegmentSpan],
    ) -> StorageResult<()> {
        if spans.len() != self.segments.len() {
            return Err(StorageError::Internal(format!(
                "checkpoint image has {} segment spans, table has {} segments",
                spans.len(),
                self.segments.len()
            )));
        }
        for (handle, span) in self.segments.iter().zip(spans) {
            handle.set_addr(SpillAddr {
                file: file.to_string(),
                offset: span.offset,
                len: span.len,
                crc: span.crc,
            });
        }
        Ok(())
    }

    /// Whether mutations on this table are WAL-logged.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Total segments zone-map-pruned (never decoded) over this table
    /// handle's lifetime of scans.
    pub fn segments_pruned(&self) -> u64 {
        self.segments_pruned.load(vertexica_common::sync::Ordering::Relaxed)
    }

    /// Total blocks skipped by per-block zone maps within surviving segments.
    pub fn blocks_pruned(&self) -> u64 {
        self.blocks_pruned.load(vertexica_common::sync::Ordering::Relaxed)
    }

    /// Estimated bytes of column data decoded by scans over this handle's
    /// lifetime (shared with outstanding cursors, like the prune counters).
    pub fn bytes_decoded(&self) -> u64 {
        self.bytes_decoded.load(vertexica_common::sync::Ordering::Relaxed)
    }

    /// A stamp identifying this table's current logical contents (its live
    /// rows as a multiset): redrawn from a process-wide counter when the table
    /// is created and once by every apply half that adds, deletes or replaces
    /// rows (so logged and replayed DML alike), so two reads that return the
    /// same stamp saw the same rows. Moveout and mergeout re-house the same
    /// rows — new row ids and scan order, same contents — and leave it alone.
    /// Derived read-only images (the core crate's edge projection) cache
    /// against it.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Redraws [`Table::data_version`]. Every apply half that changes the
    /// table's rows calls this exactly once.
    fn touch(&mut self) {
        self.data_version = next_data_version();
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn set_name(&mut self, name: String) {
        self.name = name;
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn options(&self) -> &TableOptions {
        &self.options
    }

    /// Live row count (excluding deleted rows).
    pub fn num_rows(&self) -> usize {
        let ros: usize = self
            .segments
            .iter()
            .zip(&self.delete_vectors)
            .map(|(s, d)| s.num_rows() - d.count_ones())
            .sum();
        ros + self.wos.len()
    }

    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    pub fn wos_rows(&self) -> usize {
        self.wos.len()
    }

    /// Validates and coerces a row against the schema.
    fn check_row(&self, row: Row) -> StorageResult<Row> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (field, v) in self.schema.fields.iter().zip(row) {
            if v.is_null() {
                if !field.nullable {
                    return Err(StorageError::NullViolation(field.name.clone()));
                }
                out.push(Value::Null);
            } else {
                out.push(v.coerce(field.dtype)?);
            }
        }
        Ok(out)
    }

    /// Inserts one row into the WOS (auto-moveout past the threshold).
    pub fn insert_row(&mut self, row: Row) -> StorageResult<()> {
        let row = self.check_row(row)?;
        if let Some(w) = &self.wal {
            w.log_data(
                &self.name,
                &wal::payload_insert_rows(&self.name, std::slice::from_ref(&row)),
            )?;
        }
        self.insert_rows_unlogged(vec![row])
    }

    /// Inserts many rows (one WAL record for the whole batch).
    pub fn insert_rows(&mut self, rows: Vec<Row>) -> StorageResult<usize> {
        let mut checked = Vec::with_capacity(rows.len());
        for row in rows {
            checked.push(self.check_row(row)?);
        }
        let n = checked.len();
        if n > 0 {
            if let Some(w) = &self.wal {
                w.log_data(&self.name, &wal::payload_insert_rows(&self.name, &checked))?;
            }
        }
        self.insert_rows_unlogged(checked)?;
        Ok(n)
    }

    /// Apply half of [`Table::insert_row`] / [`Table::insert_rows`] for
    /// already-validated rows. Shared with replay.
    pub(crate) fn insert_rows_unlogged(&mut self, rows: Vec<Row>) -> StorageResult<()> {
        self.touch();
        for row in rows {
            self.push_wos_row(row)?;
        }
        Ok(())
    }

    /// Pushes one row into the WOS and runs the (deterministic) auto-moveout
    /// check.
    fn push_wos_row(&mut self, row: Row) -> StorageResult<()> {
        self.wos.push(row);
        if self.wos.len() >= self.options.moveout_threshold {
            self.moveout_unlogged()?;
        }
        Ok(())
    }

    /// Bulk-appends a batch directly as a ROS segment (bypassing the WOS) —
    /// the fast path for `CREATE TABLE AS SELECT` and superstep table swaps.
    pub fn append_batch(&mut self, batch: &RecordBatch) -> StorageResult<()> {
        if batch.num_rows() == 0 && batch.num_columns() == self.schema.len() {
            return Ok(());
        }
        let seg = Segment::build(&self.schema, batch, self.options.compress)?;
        self.adopt_segment(seg)
    }

    /// Appends a pre-built ROS segment (see [`Segment::build`]) after
    /// validating its shape against the table schema. Empty segments are
    /// dropped. This is the cheap, in-lock half of segmented ingest: the
    /// expensive encode already happened off-table (possibly on another
    /// thread).
    pub fn adopt_segment(&mut self, seg: Segment) -> StorageResult<()> {
        if seg.columns.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: seg.columns.len(),
            });
        }
        for (field, col) in self.schema.fields.iter().zip(&seg.columns) {
            if col.dtype() != field.dtype {
                return Err(StorageError::TypeMismatch {
                    expected: field.dtype.to_string(),
                    found: col.dtype().to_string(),
                });
            }
        }
        if seg.num_rows() == 0 {
            return Ok(());
        }
        if let Some(w) = &self.wal {
            w.log_data(&self.name, &wal::payload_adopt_segment(&self.name, &seg))?;
        }
        self.adopt_segment_unlogged(seg);
        Ok(())
    }

    /// Apply half of [`Table::adopt_segment`]: pushes an already-validated,
    /// non-empty segment. Shared with replay.
    pub(crate) fn adopt_segment_unlogged(&mut self, seg: Segment) {
        self.touch();
        self.push_ros_segment(seg);
    }

    /// Appends a freshly built ROS segment, registering its handle with the
    /// buffer pool when one is attached. The new segment has no spill
    /// address yet, so it is unevictable until the next checkpoint writes
    /// its disk twin.
    fn push_ros_segment(&mut self, seg: Segment) {
        self.delete_vectors.push(Bitmap::zeros(seg.num_rows()));
        let handle = SegmentHandle::new(Arc::new(seg));
        if let Some(pool) = &self.pool {
            pool.register(&handle);
        }
        self.segments.push(handle);
    }

    /// Flushes the WOS into a new sorted, encoded ROS segment.
    pub fn moveout(&mut self) -> StorageResult<()> {
        if self.wos.is_empty() {
            return Ok(());
        }
        if let Some(w) = &self.wal {
            w.log_data(&self.name, &wal::payload_moveout(&self.name))?;
        }
        self.moveout_unlogged()
    }

    /// Apply half of [`Table::moveout`] — also the auto-moveout inside
    /// [`Table::insert_rows_unlogged`], which is *not* logged separately:
    /// replaying the inserts reproduces it (the threshold check is
    /// deterministic, and the sort is stable).
    pub(crate) fn moveout_unlogged(&mut self) -> StorageResult<()> {
        if self.wos.is_empty() {
            return Ok(());
        }
        let mut rows = std::mem::take(&mut self.wos);
        if !self.options.sort_key.is_empty() {
            let key = self.options.sort_key.clone();
            rows.sort_by(|a, b| {
                for &k in &key {
                    let ord = a[k].total_cmp(&b[k]);
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let mut builders: Vec<ColumnBuilder> = self
            .schema
            .fields
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.dtype, rows.len()))
            .collect();
        for row in &rows {
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v.clone())?;
            }
        }
        let columns: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
        let seg = Segment::from_columns(columns, self.options.compress);
        self.push_ros_segment(seg);
        Ok(())
    }

    /// Merges all ROS segments (and the WOS) into a single segment, dropping
    /// deleted rows — Vertica's "mergeout".
    pub fn mergeout(&mut self) -> StorageResult<()> {
        if let Some(w) = &self.wal {
            w.log_data(&self.name, &wal::payload_mergeout(&self.name))?;
        }
        self.mergeout_unlogged()
    }

    /// Apply half of [`Table::mergeout`]. Deterministic given the table
    /// state, so replaying the single `Mergeout` record reproduces it.
    pub(crate) fn mergeout_unlogged(&mut self) -> StorageResult<()> {
        self.moveout_unlogged()?;
        if self.segments.len() <= 1 && self.delete_vectors.iter().all(|d| !d.any()) {
            return Ok(());
        }
        let batches = self.scan(None, &[])?;
        let merged = RecordBatch::concat(self.schema.clone(), &batches)?;
        self.segments.clear();
        self.delete_vectors.clear();
        if merged.num_rows() > 0 {
            let seg = Segment::build(&self.schema, &merged, self.options.compress)?;
            if seg.num_rows() > 0 {
                self.push_ros_segment(seg);
            }
        }
        Ok(())
    }

    /// Scans the table, returning one batch per live segment plus one for the
    /// WOS. `projection` selects columns; `predicates` are used for zone-map
    /// pruning *and* applied to rows.
    ///
    /// This is the eager form of [`Table::scan_cursor`]: it drains the cursor
    /// immediately, so every segment is decoded before the call returns.
    /// Callers that hold a lock on this table should prefer snapshotting a
    /// cursor and decoding after the lock is dropped.
    pub fn scan(
        &self,
        projection: Option<&[usize]>,
        predicates: &[ColumnPredicate],
    ) -> StorageResult<Vec<RecordBatch>> {
        Ok(self.scan_with_rowids(projection, predicates)?.into_iter().map(|(b, _)| b).collect())
    }

    /// Like [`Table::scan`] but also returns each row's stable rowid, for
    /// DELETE/UPDATE execution.
    pub fn scan_with_rowids(
        &self,
        projection: Option<&[usize]>,
        predicates: &[ColumnPredicate],
    ) -> StorageResult<Vec<(RecordBatch, Vec<u64>)>> {
        let mut cursor = self.scan_cursor(projection, predicates)?;
        let mut out = Vec::new();
        while let Some(item) = cursor.next_with_rowids()? {
            out.push(item);
        }
        Ok(out)
    }

    /// Snapshots a pull-based [`ScanCursor`] over the table's current
    /// contents. The snapshot is cheap — the segment list is `Arc`-cloned,
    /// delete vectors are copied, and only the (bounded) WOS rows are
    /// materialized — so a caller holding the catalog's table lock can take
    /// the cursor and **drop the lock before decoding anything**: all the
    /// expensive per-segment decode work happens on
    /// [`ScanCursor::next_batch`] / [`ScanCursor::next_with_rowids`] pulls,
    /// without blocking writers. Zone-map pruning fires lazily per pull and
    /// bumps the same [`Table::segments_pruned`] counter as the eager scan
    /// (the counter cell is shared with the table handle).
    ///
    /// The cursor observes the table as of the snapshot: rows appended or
    /// deleted afterwards are invisible to it.
    pub fn scan_cursor(
        &self,
        projection: Option<&[usize]>,
        predicates: &[ColumnPredicate],
    ) -> StorageResult<ScanCursor> {
        let proj: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..self.schema.len()).collect(),
        };
        let out_schema = self.schema.project(&proj);

        // WOS rows are row-oriented and bounded by the moveout threshold, so
        // they are the one part copied out eagerly (they would have to be
        // copied to survive the lock anyway).
        let wos = if self.wos.is_empty() {
            None
        } else {
            let mut builders: Vec<ColumnBuilder> =
                proj.iter().map(|&ci| ColumnBuilder::new(self.schema.field(ci).dtype)).collect();
            let mut rowids = Vec::new();
            'wos_rows: for (r, row) in self.wos.iter().enumerate() {
                for p in predicates {
                    if !p.matches(&row[p.column]) {
                        continue 'wos_rows;
                    }
                }
                for (b, &ci) in builders.iter_mut().zip(&proj) {
                    b.push(row[ci].clone())?;
                }
                rowids.push(rowid(WOS_SEGMENT, r as u32));
            }
            if rowids.is_empty() {
                None
            } else {
                let cols: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
                Some((RecordBatch::new(out_schema.clone(), cols)?, rowids))
            }
        };

        Ok(ScanCursor {
            out_schema,
            proj,
            predicates: predicates.to_vec(),
            segments: self
                .segments
                .iter()
                .zip(&self.delete_vectors)
                .enumerate()
                .map(|(si, (seg, dels))| (si as u32, seg.clone(), dels.clone()))
                .collect(),
            pos: 0,
            wos,
            pruned: self.segments_pruned.clone(),
            blocks_pruned: self.blocks_pruned.clone(),
            bytes_decoded: self.bytes_decoded.clone(),
        })
    }

    /// Deletes rows by rowid (as returned from [`Table::scan_with_rowids`]).
    /// Returns the number of rows deleted.
    pub fn delete_rowids(&mut self, rowids: &[u64]) -> StorageResult<usize> {
        if !rowids.is_empty() {
            if let Some(w) = &self.wal {
                w.log_data(&self.name, &wal::payload_delete_rowids(&self.name, rowids))?;
            }
        }
        Ok(self.delete_rowids_unlogged(rowids))
    }

    /// Apply half of [`Table::delete_rowids`]. Shared with replay.
    pub(crate) fn delete_rowids_unlogged(&mut self, rowids: &[u64]) -> usize {
        self.touch();
        self.mark_deleted(rowids)
    }

    fn mark_deleted(&mut self, rowids: &[u64]) -> usize {
        let mut wos_dead: Vec<u32> = Vec::new();
        let mut n = 0usize;
        for &id in rowids {
            let (seg, row) = unpack_rowid(id);
            if seg == WOS_SEGMENT {
                wos_dead.push(row);
            } else if let Some(dv) = self.delete_vectors.get_mut(seg as usize) {
                if (row as usize) < dv.len() && !dv.get(row as usize) {
                    dv.set(row as usize, true);
                    n += 1;
                }
            }
        }
        if !wos_dead.is_empty() {
            wos_dead.sort_unstable();
            wos_dead.dedup();
            n += wos_dead.len();
            let dead: std::collections::HashSet<u32> = wos_dead.into_iter().collect();
            let mut idx = 0u32;
            self.wos.retain(|_| {
                let keep = !dead.contains(&idx);
                idx += 1;
                keep
            });
        }
        n
    }

    /// Updates rows in place: for each `(rowid, new_row)`, deletes the old row
    /// and inserts the new one. Returns the number of rows updated.
    pub fn update_rows(&mut self, updates: Vec<(u64, Row)>) -> StorageResult<usize> {
        let mut checked = Vec::with_capacity(updates.len());
        for (id, row) in updates {
            checked.push((id, self.check_row(row)?));
        }
        if !checked.is_empty() {
            if let Some(w) = &self.wal {
                w.log_data(&self.name, &wal::payload_update_rows(&self.name, &checked))?;
            }
        }
        self.update_rows_unlogged(checked)
    }

    /// Apply half of [`Table::update_rows`] (delete + re-insert of
    /// already-validated rows). Shared with replay.
    pub(crate) fn update_rows_unlogged(
        &mut self,
        updates: Vec<(u64, Row)>,
    ) -> StorageResult<usize> {
        let ids: Vec<u64> = updates.iter().map(|(id, _)| *id).collect();
        self.touch();
        let n = self.mark_deleted(&ids);
        for (_, row) in updates {
            self.push_wos_row(row)?;
        }
        Ok(n)
    }

    /// Removes all rows.
    pub fn truncate(&mut self) -> StorageResult<()> {
        if let Some(w) = &self.wal {
            w.log_data(&self.name, &wal::payload_truncate(&self.name))?;
        }
        self.truncate_unlogged();
        Ok(())
    }

    /// Apply half of [`Table::truncate`]. Shared with replay.
    pub(crate) fn truncate_unlogged(&mut self) {
        self.touch();
        self.wos.clear();
        self.segments.clear();
        self.delete_vectors.clear();
    }

    /// ROS segment handles (for stats, benches and persistence). Call
    /// [`SegmentHandle::read`] to pin a handle and reach the full
    /// [`Segment`] API (reloading it from its spill image if evicted).
    pub fn segments(&self) -> &[SegmentHandle] {
        &self.segments
    }

    /// Per-segment delete vectors.
    pub fn delete_vectors(&self) -> &[Bitmap] {
        &self.delete_vectors
    }

    /// Rows currently buffered in the WOS.
    pub fn wos(&self) -> &[Row] {
        &self.wos
    }
}

/// A pull-based scan over a [`Table`] snapshot: one
/// (zone-map-pruned, delete-vector-filtered, predicate-filtered) batch per
/// live segment, then one batch for the WOS.
///
/// Created by [`Table::scan_cursor`]. The cursor owns its snapshot
/// (`Arc`-cloned segments, copied delete vectors, materialized WOS rows), so
/// it holds **no lock**: segment decode — the expensive part of a scan —
/// happens on each [`next_batch`](Self::next_batch) pull, after the caller
/// has released the table lock, and the consumer's transient footprint is
/// one in-flight batch instead of the whole table. Concatenating every
/// pulled batch reproduces the eager [`Table::scan`] output bitwise (the
/// eager scan is implemented by draining this cursor).
#[derive(Debug)]
pub struct ScanCursor {
    out_schema: Arc<Schema>,
    proj: Vec<usize>,
    predicates: Vec<ColumnPredicate>,
    /// `(segment index, segment handle, delete-vector snapshot)` per ROS
    /// segment. Holding the handles keeps the underlying pool entries — and
    /// their reloadability — alive for the cursor's lifetime; each pull
    /// pins its segment only for the duration of the decode, so a paused
    /// cursor's segments stay evictable.
    segments: Vec<(u32, SegmentHandle, Bitmap)>,
    pos: usize,
    /// The filtered WOS batch (pulled last), if any rows survived.
    wos: Option<(RecordBatch, Vec<u64>)>,
    /// The owning table handle's pruning counter (shared so cursor-observed
    /// prunes and eager-scan prunes land on the same gauge).
    pruned: Arc<vertexica_common::sync::AtomicU64>,
    /// Shared per-block pruning counter (see [`Table::blocks_pruned`]).
    blocks_pruned: Arc<vertexica_common::sync::AtomicU64>,
    /// Shared decoded-bytes gauge (see [`Table::bytes_decoded`]).
    bytes_decoded: Arc<vertexica_common::sync::AtomicU64>,
}

impl ScanCursor {
    /// Schema of every batch this cursor yields (the projected table schema).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    /// Segments not yet pulled (upper bound on remaining ROS batches; some
    /// may still be pruned or filtered to nothing).
    pub fn segments_remaining(&self) -> usize {
        self.segments.len() - self.pos
    }

    /// Pulls the next non-empty batch, or `None` at end of scan.
    pub fn next_batch(&mut self) -> StorageResult<Option<RecordBatch>> {
        Ok(self.next_with_rowids()?.map(|(b, _)| b))
    }

    /// Pulls the next non-empty batch along with each row's stable rowid.
    ///
    /// Within a surviving segment, pushed-down predicates are evaluated
    /// **block-wise**: each [`BLOCK_ROWS`]-row block is first checked against
    /// its per-block zone maps, pruned blocks are never decoded (counted on
    /// the shared [`Table::blocks_pruned`] gauge), and only surviving blocks
    /// are partially decoded via [`EncodedColumn::decode_range`]. The segment
    /// still yields at most one batch, identical to a full decode + row
    /// filter — a pruned block's min/max proves it holds no matching row, so
    /// a selective point predicate's decode cost is proportional to matching
    /// blocks, not segments.
    pub fn next_with_rowids(&mut self) -> StorageResult<Option<(RecordBatch, Vec<u64>)>> {
        use vertexica_common::sync::Ordering::Relaxed;
        while self.pos < self.segments.len() {
            let (si, handle, dels) = &self.segments[self.pos];
            self.pos += 1;
            // Zone-map pruning: skip the segment without decoding anything.
            // The handle caches the per-segment maps, so pruning an evicted
            // segment never reloads it from disk.
            if self.predicates.iter().any(|p| !p.maybe_in(handle.zone_map(p.column))) {
                self.pruned.fetch_add(1, Relaxed);
                continue;
            }
            // Pin the segment (reloading it if evicted) for this pull only.
            let seg = handle.read()?;
            if self.predicates.is_empty() {
                // No predicate to localize: decode columns whole (a plain
                // column is an Arc clone) and only filter deleted rows.
                let mut keep: Vec<u32> = Vec::with_capacity(seg.num_rows());
                for r in 0..seg.num_rows() {
                    if !dels.get(r) {
                        keep.push(r as u32);
                    }
                }
                if keep.is_empty() {
                    continue;
                }
                let all = keep.len() == seg.num_rows();
                let indices: Vec<usize> = keep.iter().map(|&r| r as usize).collect();
                let mut cols = Vec::with_capacity(self.proj.len());
                for &ci in &self.proj {
                    let full = seg.decode_column(ci)?;
                    self.bytes_decoded.fetch_add(full.estimated_bytes() as u64, Relaxed);
                    cols.push(if all { full } else { full.take(&indices) });
                }
                let rowids: Vec<u64> = keep.iter().map(|&r| rowid(*si, r)).collect();
                return Ok(Some((RecordBatch::new(self.out_schema.clone(), cols)?, rowids)));
            }
            // Distinct predicate columns, in first-use order.
            let mut pred_col_idx: Vec<usize> = Vec::new();
            for p in &self.predicates {
                if !pred_col_idx.contains(&p.column) {
                    pred_col_idx.push(p.column);
                }
            }
            // Block-granular partial decode: prune blocks by their zone maps,
            // decode predicate columns only inside surviving blocks, filter.
            let mut live: Vec<LiveBlock> = Vec::new();
            let mut keep: Vec<u32> = Vec::new();
            for b in 0..seg.num_blocks() {
                if self.predicates.iter().any(|p| !p.maybe_in(seg.block_zone_map(p.column, b))) {
                    self.blocks_pruned.fetch_add(1, Relaxed);
                    continue;
                }
                let (start, len) = seg.block_range(b);
                let mut pred_cols: Vec<(usize, Column)> = Vec::with_capacity(pred_col_idx.len());
                for &c in &pred_col_idx {
                    let col = seg.decode_column_range(c, start, len)?;
                    self.bytes_decoded.fetch_add(col.estimated_bytes() as u64, Relaxed);
                    pred_cols.push((c, col));
                }
                let mut keep_local: Vec<usize> = Vec::with_capacity(len);
                'rows: for r in 0..len {
                    if dels.get(start + r) {
                        continue;
                    }
                    for p in &self.predicates {
                        let col = &pred_cols.iter().find(|(c, _)| *c == p.column).unwrap().1;
                        if !p.matches(&col.value(r)) {
                            continue 'rows;
                        }
                    }
                    keep_local.push(r);
                    keep.push((start + r) as u32);
                }
                if !keep_local.is_empty() {
                    live.push(LiveBlock { start, len, keep_local, pred_cols });
                }
            }
            if keep.is_empty() {
                continue;
            }
            let mut cols = Vec::with_capacity(self.proj.len());
            for &ci in &self.proj {
                let mut pieces: Vec<Column> = Vec::with_capacity(live.len());
                for lb in &live {
                    // Reuse the predicate decode when the projection wants
                    // the same column; otherwise partially decode this block.
                    let col = match lb.pred_cols.iter().find(|(c, _)| *c == ci) {
                        Some((_, c)) => c.clone(),
                        None => {
                            let c = seg.decode_column_range(ci, lb.start, lb.len)?;
                            self.bytes_decoded.fetch_add(c.estimated_bytes() as u64, Relaxed);
                            c
                        }
                    };
                    pieces.push(if lb.keep_local.len() == lb.len {
                        col
                    } else {
                        col.take(&lb.keep_local)
                    });
                }
                cols.push(if pieces.len() == 1 {
                    pieces.pop().expect("one piece")
                } else {
                    Column::concat(&pieces)?
                });
            }
            let rowids: Vec<u64> = keep.iter().map(|&r| rowid(*si, r)).collect();
            return Ok(Some((RecordBatch::new(self.out_schema.clone(), cols)?, rowids)));
        }
        Ok(self.wos.take())
    }
}

/// A segment block that survived per-block zone-map pruning: its row range,
/// the locally-surviving row offsets, and the predicate columns already
/// partially decoded for it (reused by the projection gather).
struct LiveBlock {
    start: usize,
    len: usize,
    keep_local: Vec<usize>,
    pred_cols: Vec<(usize, Column)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field};

    fn edge_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::not_null("src", DataType::Int),
            Field::not_null("dst", DataType::Int),
            Field::new("weight", DataType::Float),
        ])
    }

    fn small_table() -> Table {
        let mut t = Table::new("edge", edge_schema(), TableOptions::default());
        for (s, d) in [(0i64, 1i64), (0, 2), (1, 2), (2, 0)] {
            t.insert_row(vec![Value::Int(s), Value::Int(d), Value::Float(1.0)]).unwrap();
        }
        t
    }

    #[test]
    fn insert_and_count() {
        let t = small_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.wos_rows(), 4);
        assert_eq!(t.num_segments(), 0);
    }

    #[test]
    fn moveout_flushes_wos() {
        let mut t = small_table();
        t.moveout().unwrap();
        assert_eq!(t.wos_rows(), 0);
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn auto_moveout_at_threshold() {
        let mut t =
            Table::new("t", edge_schema(), TableOptions::default().with_moveout_threshold(2));
        for i in 0..5i64 {
            t.insert_row(vec![Value::Int(i), Value::Int(i + 1), Value::Null]).unwrap();
        }
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.wos_rows(), 1);
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn moveout_sorts_by_sort_key() {
        let mut t = Table::new("t", edge_schema(), TableOptions::default().sorted_by(vec![0]));
        for s in [3i64, 1, 2, 0] {
            t.insert_row(vec![Value::Int(s), Value::Int(0), Value::Null]).unwrap();
        }
        t.moveout().unwrap();
        let batches = t.scan(Some(&[0]), &[]).unwrap();
        let vals: Vec<Value> = batches[0].column(0).iter().collect();
        assert_eq!(vals, vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn scan_includes_wos_and_ros() {
        let mut t = small_table();
        t.moveout().unwrap();
        t.insert_row(vec![Value::Int(9), Value::Int(9), Value::Null]).unwrap();
        let batches = t.scan(None, &[]).unwrap();
        assert_eq!(RecordBatch::total_rows(&batches), 5);
        assert_eq!(batches.len(), 2); // one ROS segment + WOS
    }

    #[test]
    fn scan_projection() {
        let t = small_table();
        let batches = t.scan(Some(&[1]), &[]).unwrap();
        assert_eq!(batches[0].num_columns(), 1);
        assert_eq!(batches[0].schema().fields[0].name, "dst");
    }

    #[test]
    fn scan_predicate_filters_rows() {
        let mut t = small_table();
        t.moveout().unwrap();
        let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(0));
        let batches = t.scan(None, &[pred]).unwrap();
        assert_eq!(RecordBatch::total_rows(&batches), 2);
    }

    #[test]
    fn zone_map_prunes_segments() {
        let mut t =
            Table::new("t", edge_schema(), TableOptions::default().with_moveout_threshold(2));
        // Two segments: src in {0,1} and src in {10,11}.
        for s in [0i64, 1, 10, 11] {
            t.insert_row(vec![Value::Int(s), Value::Int(0), Value::Null]).unwrap();
        }
        assert_eq!(t.num_segments(), 2);
        let pred = ColumnPredicate::new(0, PredicateOp::Gt, Value::Int(5));
        let with_ids = t.scan_with_rowids(None, &[pred]).unwrap();
        // Only the second segment contributes.
        assert_eq!(with_ids.len(), 1);
        assert_eq!(with_ids[0].0.num_rows(), 2);
    }

    #[test]
    fn delete_by_rowid_ros_and_wos() {
        let mut t = small_table();
        t.moveout().unwrap();
        t.insert_row(vec![Value::Int(7), Value::Int(8), Value::Null]).unwrap();
        let scans = t.scan_with_rowids(None, &[]).unwrap();
        let all_ids: Vec<u64> = scans.iter().flat_map(|(_, ids)| ids.clone()).collect();
        assert_eq!(all_ids.len(), 5);
        let n = t.delete_rowids(&all_ids[..2]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.num_rows(), 3);
        // Deleting the same ROS rowids again is a no-op.
        let n2 = t.delete_rowids(&all_ids[..2]).unwrap();
        assert_eq!(n2, 0);
    }

    #[test]
    fn update_rows_replaces_values() {
        let mut t = small_table();
        t.moveout().unwrap();
        let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(2));
        let scans = t.scan_with_rowids(None, &[pred]).unwrap();
        let (batch, ids) = &scans[0];
        assert_eq!(batch.num_rows(), 1);
        let updated = t
            .update_rows(vec![(ids[0], vec![Value::Int(2), Value::Int(99), Value::Float(5.0)])])
            .unwrap();
        assert_eq!(updated, 1);
        let pred = ColumnPredicate::new(1, PredicateOp::Eq, Value::Int(99));
        let found = t.scan(None, &[pred]).unwrap();
        assert_eq!(RecordBatch::total_rows(&found), 1);
    }

    #[test]
    fn mergeout_compacts() {
        let mut t =
            Table::new("t", edge_schema(), TableOptions::default().with_moveout_threshold(1));
        for i in 0..4i64 {
            t.insert_row(vec![Value::Int(i), Value::Int(0), Value::Null]).unwrap();
        }
        assert_eq!(t.num_segments(), 4);
        let scans = t.scan_with_rowids(None, &[]).unwrap();
        let first_id = scans[0].1[0];
        t.delete_rowids(&[first_id]).unwrap();
        t.mergeout().unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.num_rows(), 3);
        assert!(t.delete_vectors()[0].count_ones() == 0);
    }

    #[test]
    fn nullability_enforced() {
        let mut t = small_table();
        let r = t.insert_row(vec![Value::Null, Value::Int(1), Value::Null]);
        assert!(matches!(r, Err(StorageError::NullViolation(_))));
    }

    #[test]
    fn arity_enforced() {
        let mut t = small_table();
        assert!(t.insert_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn coercion_on_insert() {
        let mut t = small_table();
        t.insert_row(vec![Value::Int(5), Value::Int(6), Value::Int(2)]).unwrap();
        let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(5));
        let batches = t.scan(None, &[pred]).unwrap();
        assert_eq!(batches[0].row(0)[2], Value::Float(2.0));
    }

    #[test]
    fn append_batch_creates_segment() {
        let mut t = Table::new("t", edge_schema(), TableOptions::default());
        let batch = RecordBatch::from_rows(
            edge_schema(),
            &[vec![Value::Int(1), Value::Int(2), Value::Float(0.5)]],
        )
        .unwrap();
        t.append_batch(&batch).unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn build_and_adopt_segment_off_table() {
        let schema = edge_schema();
        let batch = RecordBatch::from_rows(
            schema.clone(),
            &[
                vec![Value::Int(1), Value::Int(2), Value::Int(3)], // Int weight coerces to Float
                vec![Value::Int(4), Value::Int(5), Value::Null],
            ],
        )
        .unwrap();
        // Built with no table in hand (as a pool worker would).
        let seg = Segment::build(&schema, &batch, false).unwrap();
        assert_eq!(seg.num_rows(), 2);
        let mut t = Table::new("t", schema, TableOptions::default());
        t.adopt_segment(seg).unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.num_rows(), 2);
        let rows = t.scan(None, &[]).unwrap()[0].rows();
        assert_eq!(rows[0][2], Value::Float(3.0));
    }

    #[test]
    fn adopt_segment_validates_shape() {
        let narrow = Schema::new(vec![Field::new("only", DataType::Int)]);
        let batch = RecordBatch::from_rows(narrow.clone(), &[vec![Value::Int(1)]]).unwrap();
        let seg = Segment::build(&narrow, &batch, false).unwrap();
        let mut t = Table::new("t", edge_schema(), TableOptions::default());
        assert!(matches!(t.adopt_segment(seg), Err(StorageError::ArityMismatch { .. })));

        let wrong_type = Schema::new(vec![
            Field::new("src", DataType::Str),
            Field::new("dst", DataType::Str),
            Field::new("weight", DataType::Str),
        ]);
        let batch = RecordBatch::from_rows(
            wrong_type.clone(),
            &[vec![Value::Str("a".into()), Value::Str("b".into()), Value::Str("c".into())]],
        )
        .unwrap();
        let seg = Segment::build(&wrong_type, &batch, false).unwrap();
        assert!(matches!(t.adopt_segment(seg), Err(StorageError::TypeMismatch { .. })));

        // Empty segments are silently dropped.
        let empty =
            Segment::build(&edge_schema(), &RecordBatch::empty(edge_schema()), false).unwrap();
        t.adopt_segment(empty).unwrap();
        assert_eq!(t.num_segments(), 0);
    }

    #[test]
    fn truncate_empties() {
        let mut t = small_table();
        t.moveout().unwrap();
        t.truncate().unwrap();
        assert_eq!(t.num_rows(), 0);
        assert!(t.scan(None, &[]).unwrap().is_empty());
    }

    #[test]
    fn data_version_follows_row_changes_not_rehousing() {
        let mut t = small_table();
        let mut seen = std::collections::HashSet::from([small_table().data_version()]);
        let mut fresh = |t: &Table, what: &str| {
            assert!(seen.insert(t.data_version()), "{what} reused a stamp");
        };
        fresh(&t, "a second table with the same contents");
        t.insert_row(vec![Value::Int(3), Value::Int(0), Value::Float(1.0)]).unwrap();
        fresh(&t, "insert_row");
        let batch = t.scan(None, &[]).unwrap().remove(0);
        t.append_batch(&batch).unwrap();
        fresh(&t, "append_batch");
        let rowid = t.scan_with_rowids(None, &[]).unwrap()[0].1[0];
        t.update_rows(vec![(rowid, vec![Value::Int(0), Value::Int(1), Value::Float(2.0)])])
            .unwrap();
        fresh(&t, "update_rows");
        t.delete_rowids(&[rowid]).unwrap();
        fresh(&t, "delete_rowids");

        let row = || vec![Value::Int(7), Value::Int(8), Value::Float(1.0)];
        t.insert_rows(vec![row(), row(), row()]).unwrap();
        fresh(&t, "insert_rows");

        // Reads and re-housing the same rows (WOS → ROS, segment merge) leave
        // the stamp alone.
        let before = t.data_version();
        let live = |t: &Table| {
            let mut rows: Vec<String> = t
                .scan(None, &[])
                .unwrap()
                .iter()
                .flat_map(RecordBatch::rows)
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            rows
        };
        let rows = live(&t);
        assert!(t.wos_rows() > 0 && t.delete_vectors().iter().any(Bitmap::any));
        t.scan_cursor(Some(&[0]), &[]).unwrap();
        t.moveout().unwrap();
        t.mergeout().unwrap();
        assert_eq!((t.wos_rows(), t.num_segments()), (0, 1));
        assert_eq!(live(&t), rows);
        assert_eq!(t.data_version(), before);

        t.truncate().unwrap();
        fresh(&t, "truncate");
    }

    #[test]
    fn predicate_matches_null_is_false() {
        let p = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(1));
        assert!(!p.matches(&Value::Null));
    }

    #[test]
    fn scan_cursor_matches_eager_scan_batches() {
        let mut t =
            Table::new("t", edge_schema(), TableOptions::default().with_moveout_threshold(3));
        for i in 0..10i64 {
            t.insert_row(vec![Value::Int(i), Value::Int(i + 1), Value::Float(i as f64)]).unwrap();
        }
        // 3 ROS segments + 1 WOS row; delete one ROS row.
        let first_id = t.scan_with_rowids(None, &[]).unwrap()[0].1[0];
        t.delete_rowids(&[first_id]).unwrap();
        let pred = ColumnPredicate::new(0, PredicateOp::Lt, Value::Int(8));
        let eager = t.scan(None, std::slice::from_ref(&pred)).unwrap();
        let mut cursor = t.scan_cursor(None, &[pred]).unwrap();
        let mut pulled = Vec::new();
        while let Some(b) = cursor.next_batch().unwrap() {
            pulled.push(b);
        }
        assert_eq!(eager.len(), pulled.len());
        for (e, p) in eager.iter().zip(&pulled) {
            assert_eq!(e.rows(), p.rows());
        }
    }

    #[test]
    fn scan_cursor_snapshot_ignores_later_writes() {
        let mut t = small_table();
        t.moveout().unwrap();
        let mut cursor = t.scan_cursor(None, &[]).unwrap();
        // Mutations after the snapshot are invisible to the open cursor.
        t.insert_row(vec![Value::Int(42), Value::Int(43), Value::Null]).unwrap();
        let all_ids: Vec<u64> = t
            .scan_with_rowids(None, &[])
            .unwrap()
            .iter()
            .flat_map(|(_, ids)| ids.clone())
            .collect();
        t.delete_rowids(&all_ids).unwrap();
        assert_eq!(t.num_rows(), 0);
        let mut rows = 0;
        while let Some(b) = cursor.next_batch().unwrap() {
            rows += b.num_rows();
        }
        assert_eq!(rows, 4, "cursor must see exactly the snapshot contents");
    }

    #[test]
    fn cursor_and_eager_scan_prune_identically() {
        let mut t =
            Table::new("t", edge_schema(), TableOptions::default().with_moveout_threshold(2));
        // Three segments: src in {0,1}, {10,11}, {20,21}.
        for s in [0i64, 1, 10, 11, 20, 21] {
            t.insert_row(vec![Value::Int(s), Value::Int(0), Value::Null]).unwrap();
        }
        assert_eq!(t.num_segments(), 3);
        let pred = ColumnPredicate::new(0, PredicateOp::Gt, Value::Int(15));

        let before = t.segments_pruned();
        let eager = t.scan(None, std::slice::from_ref(&pred)).unwrap();
        let eager_pruned = t.segments_pruned() - before;
        assert_eq!(eager_pruned, 2);

        let before = t.segments_pruned();
        let mut cursor = t.scan_cursor(None, &[pred]).unwrap();
        let mut pulled = Vec::new();
        while let Some(b) = cursor.next_batch().unwrap() {
            pulled.push(b);
        }
        let cursor_pruned = t.segments_pruned() - before;
        assert_eq!(
            cursor_pruned, eager_pruned,
            "zone-map pruning must fire identically through the cursor"
        );
        assert_eq!(RecordBatch::total_rows(&eager), RecordBatch::total_rows(&pulled));
    }

    #[test]
    fn cursor_prune_counts_after_lock_is_dropped() {
        // The counter cell is shared: prunes observed while pulling a cursor
        // whose table handle (lock guard in real use) is long gone still land
        // on the table's gauge.
        let mut t =
            Table::new("t", edge_schema(), TableOptions::default().with_moveout_threshold(2));
        for s in [0i64, 1, 10, 11] {
            t.insert_row(vec![Value::Int(s), Value::Int(0), Value::Null]).unwrap();
        }
        let pred = ColumnPredicate::new(0, PredicateOp::Gt, Value::Int(5));
        let mut cursor = t.scan_cursor(None, &[pred]).unwrap();
        assert_eq!(t.segments_pruned(), 0, "pruning is lazy: nothing pruned before a pull");
        while cursor.next_batch().unwrap().is_some() {}
        assert_eq!(t.segments_pruned(), 1);
    }

    fn int_table_segment(n: usize) -> Table {
        let schema =
            Schema::new(vec![Field::not_null("k", DataType::Int), Field::new("v", DataType::Int)]);
        let rows: Vec<Row> =
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Int((i % 3) as i64)]).collect();
        let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let mut t = Table::new("t", schema, TableOptions::default());
        t.append_batch(&batch).unwrap();
        t
    }

    #[test]
    fn bulk_load_carries_per_block_zone_maps() {
        let t = int_table_segment(BLOCK_ROWS * 3 + 17);
        let seg = t.segments()[0].read().unwrap();
        assert_eq!(seg.num_blocks(), 4);
        for b in 0..seg.num_blocks() {
            let (start, len) = seg.block_range(b);
            let zm = seg.block_zone_map(0, b);
            assert_eq!(zm.min, Value::Int(start as i64));
            assert_eq!(zm.max, Value::Int((start + len - 1) as i64));
            assert_eq!(zm.null_count, 0);
        }
        // The last block is the 17-row remainder.
        assert_eq!(seg.block_range(3), (BLOCK_ROWS * 3, 17));
        // Single-block segments answer block queries from the segment map.
        let small = int_table_segment(10);
        let seg = small.segments()[0].read().unwrap();
        assert_eq!(seg.num_blocks(), 1);
        assert_eq!(seg.block_zone_map(0, 0).max, Value::Int(9));
    }

    #[test]
    fn selective_scan_prunes_blocks_and_decodes_less() {
        let t = int_table_segment(BLOCK_ROWS * 4);
        // Baseline: unpredicated scan decodes the full segment.
        let before = t.bytes_decoded();
        t.scan(None, &[]).unwrap();
        let full_bytes = t.bytes_decoded() - before;
        assert!(full_bytes > 0);

        // A point predicate falls inside exactly one block.
        let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(5));
        let (pruned_before, bytes_before) = (t.blocks_pruned(), t.bytes_decoded());
        let got = t.scan(None, std::slice::from_ref(&pred)).unwrap();
        assert_eq!(RecordBatch::total_rows(&got), 1);
        assert_eq!(got[0].row(0)[0], Value::Int(5));
        assert_eq!(t.blocks_pruned() - pruned_before, 3);
        let partial_bytes = t.bytes_decoded() - bytes_before;
        assert!(
            partial_bytes < full_bytes,
            "partial decode ({partial_bytes}B) must stay below full-segment decode ({full_bytes}B)"
        );
    }

    #[test]
    fn block_pruning_never_drops_matching_rows() {
        // Matches placed at every block boundary (first and last row of each
        // block): an off-by-one in block skipping would drop them.
        let n = BLOCK_ROWS * 3;
        let t = int_table_segment(n);
        for target in [0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, n - 1] {
            let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(target as i64));
            let got = t.scan(None, std::slice::from_ref(&pred)).unwrap();
            assert_eq!(RecordBatch::total_rows(&got), 1, "row {target} was dropped");
            assert_eq!(got[0].row(0)[0], Value::Int(target as i64));
        }
        // A range predicate spanning a block boundary keeps both sides, in
        // one batch, in segment order.
        let lo = BLOCK_ROWS - 2;
        let preds = [
            ColumnPredicate::new(0, PredicateOp::GtEq, Value::Int(lo as i64)),
            ColumnPredicate::new(0, PredicateOp::Lt, Value::Int((lo + 4) as i64)),
        ];
        let got = t.scan(None, &preds).unwrap();
        assert_eq!(got.len(), 1);
        let ks: Vec<Value> = got[0].column(0).iter().collect();
        assert_eq!(ks, (lo..lo + 4).map(|i| Value::Int(i as i64)).collect::<Vec<_>>());
    }

    #[test]
    fn block_pruning_respects_deletes_and_compression() {
        // Compressed (RLE-friendly) segment: partial decode must honor the
        // delete vector with absolute row addressing.
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int)]);
        let rows: Vec<Row> =
            (0..BLOCK_ROWS * 2).map(|i| vec![Value::Int((i / 64) as i64)]).collect();
        let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        let mut t = Table::new("t", schema, TableOptions::default().compressed());
        t.append_batch(&batch).unwrap();
        let target = (BLOCK_ROWS + 128) / 64; // lives in block 1 only
        let pred = ColumnPredicate::new(0, PredicateOp::Eq, Value::Int(target as i64));
        let with_ids = t.scan_with_rowids(None, std::slice::from_ref(&pred)).unwrap();
        assert_eq!(with_ids.len(), 1);
        assert_eq!(with_ids[0].0.num_rows(), 64);
        // Delete half the matches; a rescan sees exactly the survivors.
        let doomed: Vec<u64> = with_ids[0].1.iter().copied().take(32).collect();
        assert_eq!(t.delete_rowids(&doomed).unwrap(), 32);
        let again = t.scan(None, std::slice::from_ref(&pred)).unwrap();
        assert_eq!(RecordBatch::total_rows(&again), 32);
    }

    #[test]
    fn compressed_table_roundtrips() {
        let mut t = Table::new(
            "t",
            edge_schema(),
            TableOptions::default().compressed().with_moveout_threshold(8),
        );
        for i in 0..20i64 {
            t.insert_row(vec![Value::Int(i / 10), Value::Int(i), Value::Float(1.0)]).unwrap();
        }
        t.moveout().unwrap();
        let batches = t.scan(None, &[]).unwrap();
        assert_eq!(RecordBatch::total_rows(&batches), 20);
    }
}
