//! Applying worker outputs — the paper's **Update vs. Replace** optimization
//! (§2.3).
//!
//! Vertex-centric supersteps generate two kinds of writes: new vertex values
//! and a fresh message set. Naively UPDATE-ing the vertex table and
//! DELETE+INSERT-ing messages "can slow down the performance significantly".
//! Vertexica instead *replaces* tables: build `vertex_new` by LEFT JOINing
//! the old vertex table with the superstep's delta and swap it in. The paper
//! keeps in-place updates for deltas below a threshold; here a replace is a
//! per-partition linear merge that also counts the active vertices, so every
//! superstep that changes a vertex replaces, and every superstep commit is
//! atomic. `ablation --exp update-vs-replace` keeps the paper's contrast as
//! two SQL statements.
//!
//! The policy runs **segment-parallel** ([`apply_parallel`]): each
//! partition's output is read as typed column slices **on the pool worker
//! that finished it** and references to its rows are scattered into apply
//! buckets ([`ParallelApply::absorb`]; the payload bytes stay in the
//! worker's output column). The buckets are **owner cells**
//! ([`vertexica_storage::partition::owner`]): a message goes to its
//! recipient's `(shard, partition)`, a state row to its vertex's partition.
//! The new vertex/message tables are built as one sorted ROS segment per
//! non-empty cell, in parallel on the same pool — each gathers its payloads
//! once, in sorted order, and the vertex rebuild merges the partition's old
//! rows, sorted by id, with its state rows — and the commit is one atomic
//! catalog-level contents swap
//! ([`vertexica_sql::Database::commit_tables_segmented`]). The next
//! superstep's scatter hands each such segment to its partition whole, and
//! the worker merges those sorted runs instead of sorting its input.
//! Canonicalizing sorts at every segment boundary make the result
//! independent of partition completion order and worker count;
//! `tests/cross_engine_equivalence.rs` holds every vertex-centric algorithm
//! to an independent reference implementation.

use vertexica_common::sync::Mutex;

use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexProgram};
use vertexica_common::VertexData;
use vertexica_storage::partition::{owner, split_batch};
use vertexica_storage::{BlobData, Column, ColumnBuilder, DataType, RecordBatch, Value};

use crate::config::VertexicaConfig;
use crate::error::{VertexicaError, VertexicaResult};
use crate::session::{message_schema, vertex_schema, GraphSession};
use crate::worker::{Nullable, OUT_AGGREGATE, OUT_MESSAGE, OUT_STATE};

/// What a superstep did, as observed by the coordinator.
#[derive(Debug, Clone, Default)]
pub struct SuperstepOutcome {
    /// Vertices whose value or halt state changed.
    pub vertex_changes: usize,
    /// Messages delivered into the next superstep.
    pub messages: usize,
    /// Whether the vertex table was replaced: whether any vertex changed.
    pub replaced: bool,
    /// Whether every vertex has voted to halt.
    pub all_halted: bool,
    /// Segments apply built in parallel on the pool: the larger of the
    /// message table's and the vertex table's count of non-empty owner
    /// cells (the vertex table's counts only when it was replaced).
    pub apply_parallelism: usize,
}

/// One worker output batch ([`crate::worker::worker_output_schema`]) as
/// typed column slices: apply reads rows through this, so it never boxes a
/// `Value` per cell, and a NULL or mistyped cell is an error naming
/// the row kind and column instead of a silent default.
struct OutputRows<'a> {
    kind: Nullable<'a, [i64]>,
    vid: Nullable<'a, [i64]>,
    other: Nullable<'a, [i64]>,
    payload: Nullable<'a, BlobData>,
    halted: Nullable<'a, [bool]>,
    agg_name: Nullable<'a, [String]>,
    agg_value: Nullable<'a, [f64]>,
}

/// One worker output row, borrowed from its batch. Every field is a cell the
/// worker always writes; a NULL there is an error, not a default. A state or
/// message row's payload stays in its column: [`OutputRows::get`] only
/// checks that it is there.
enum OutputRow<'a> {
    State { vid: i64, halted: bool },
    Message { to: u64, from: u64 },
    Aggregate { name: &'a str, vid: i64, value: f64 },
}

impl<'a> OutputRows<'a> {
    fn of(batch: &'a RecordBatch) -> VertexicaResult<Self> {
        if batch.num_columns() != 7 {
            return Err(VertexicaError::Runtime(format!(
                "worker output has {} columns, not the 7 of the output schema",
                batch.num_columns()
            )));
        }
        fn typed<'a, D: ?Sized>(
            batch: &'a RecordBatch,
            index: usize,
            read: impl FnOnce(&'a Column) -> Option<&'a D>,
        ) -> VertexicaResult<Nullable<'a, D>> {
            let column = batch.column(index);
            Nullable::of(column, read).ok_or_else(|| {
                VertexicaError::Runtime(format!(
                    "worker output column {index} mistyped: {}",
                    column.dtype()
                ))
            })
        }
        Ok(OutputRows {
            kind: typed(batch, 0, Column::as_int)?,
            vid: typed(batch, 1, Column::as_int)?,
            other: typed(batch, 2, Column::as_int)?,
            payload: typed(batch, 3, Column::as_blob)?,
            halted: typed(batch, 4, Column::as_bool)?,
            agg_name: typed(batch, 5, Column::as_str)?,
            agg_value: typed(batch, 6, Column::as_float)?,
        })
    }

    /// Row `row`, by kind. An aggregate row's name is checked against the
    /// program's declared aggregators.
    fn get(
        &self,
        row: usize,
        specs: &FxHashMap<String, AggKind>,
    ) -> VertexicaResult<OutputRow<'a>> {
        // The error for a NULL in a cell a worker always writes.
        let cell = |kind: &'static str, column: &'static str| {
            move || VertexicaError::Runtime(format!("{kind} row: NULL {column}"))
        };
        // A NULL kind is no valid kind.
        match self.kind.get(row).copied().unwrap_or(-1) {
            OUT_STATE => {
                let vid = *self.vid.get(row).ok_or_else(cell("state", "vid"))?;
                self.payload.get(row).ok_or_else(cell("state", "payload"))?;
                let halted = *self.halted.get(row).ok_or_else(cell("state", "halted"))?;
                Ok(OutputRow::State { vid, halted })
            }
            OUT_MESSAGE => {
                let to = *self.vid.get(row).ok_or_else(cell("message", "vid (recipient)"))?;
                let from = *self.other.get(row).ok_or_else(cell("message", "other (sender)"))?;
                self.payload.get(row).ok_or_else(cell("message", "payload"))?;
                Ok(OutputRow::Message { to: to as u64, from: from as u64 })
            }
            OUT_AGGREGATE => {
                let name = self.agg_name.get(row).ok_or_else(cell("aggregate", "agg_name"))?;
                if !specs.contains_key(name) {
                    return Err(VertexicaError::Runtime(format!("unknown aggregator {name}")));
                }
                Ok(OutputRow::Aggregate {
                    name,
                    vid: *self.vid.get(row).ok_or_else(cell("aggregate", "vid"))?,
                    value: *self.agg_value.get(row).ok_or_else(cell("aggregate", "agg_value"))?,
                })
            }
            other => Err(VertexicaError::Runtime(format!("bad output kind {other}"))),
        }
    }
}

/// Parses worker output rows and applies them to the graph's tables in one
/// call: each batch is absorbed as its own partition, then
/// [`apply_parallel`] commits.
pub fn apply_outputs<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    config: &VertexicaConfig,
    outputs: Vec<RecordBatch>,
) -> VertexicaResult<SuperstepOutcome> {
    let apply = ParallelApply::for_program(program, 1, config.num_partitions);
    for (i, batch) in outputs.iter().enumerate() {
        apply.absorb(i, std::slice::from_ref(batch))?;
    }
    apply_parallel(session, program, config, apply, Vec::new())
}

/// The three column builders of one message-table segment
/// ([`message_schema`]): payload bytes are copied (or encoded) into the value
/// column's buffer once, here.
struct MessageColumns {
    recipient: ColumnBuilder,
    sender: ColumnBuilder,
    value: ColumnBuilder,
}

impl MessageColumns {
    fn with_capacity(rows: usize) -> Self {
        MessageColumns {
            recipient: ColumnBuilder::with_capacity(DataType::Int, rows),
            sender: ColumnBuilder::with_capacity(DataType::Int, rows),
            value: ColumnBuilder::with_capacity(DataType::Blob, rows),
        }
    }

    fn len(&self) -> usize {
        self.recipient.len()
    }

    fn push(&mut self, to: u64, from: u64, payload: &[u8]) {
        self.recipient.push_int(to as i64);
        self.sender.push_int(from as i64);
        self.value.push_blob(payload);
    }

    fn push_encoded<M: VertexData>(&mut self, to: u64, from: u64, message: &M) {
        self.recipient.push_int(to as i64);
        self.sender.push_int(from as i64);
        self.value.push_blob_with(|buf| message.encode(buf));
    }

    fn finish(self) -> VertexicaResult<RecordBatch> {
        let columns = vec![self.recipient.finish(), self.sender.finish(), self.value.finish()];
        RecordBatch::new(message_schema(), columns).map_err(VertexicaError::from)
    }
}

/// Builds the message-table rows for `messages`, which must arrive sorted by
/// `(recipient, sender, payload)`. With `use_combiner`, partials addressed
/// to the same recipient are folded with the program's combiner in exactly
/// that order, and rows leave in recipient order. Apply calls this per owner
/// cell: a restriction of the global sorted order, so every per-recipient
/// fold sequence is the same whatever the cell count.
fn message_rows<'a, P: VertexProgram>(
    program: &P,
    use_combiner: bool,
    messages: impl ExactSizeIterator<Item = (u64, u64, &'a [u8])>,
) -> VertexicaResult<MessageColumns> {
    let mut out = MessageColumns::with_capacity(messages.len());
    if !use_combiner {
        messages.for_each(|(to, from, bytes)| out.push(to, from, bytes));
        return Ok(out);
    }
    // A recipient's messages are adjacent: fold them, and emit the fold
    // when the recipient changes.
    let mut open: Option<(u64, u64, P::Message)> = None;
    for (to, from, bytes) in messages {
        let Some(m) = P::Message::from_bytes(bytes) else {
            return Err(VertexicaError::Codec("cannot decode message for combine".into()));
        };
        open = match open.take() {
            Some((at, sender, acc)) if at == to => match program.combine(&acc, &m) {
                Some(c) => Some((to, sender, c)),
                None => {
                    out.push_encoded(to, sender, &acc);
                    out.push_encoded(to, from, &m);
                    None
                }
            },
            Some((at, sender, acc)) => {
                out.push_encoded(at, sender, &acc);
                Some((to, from, m))
            }
            None => Some((to, from, m)),
        };
    }
    if let Some((to, from, m)) = open {
        out.push_encoded(to, from, &m);
    }
    Ok(out)
}

/// Where a payload lives in a partition's retained worker output: which
/// batch, which row. Apply scatters and sorts these; the bytes stay where
/// the worker encoded them until a segment's column gathers them.
#[derive(Clone, Copy)]
struct CellRef {
    batch: u32,
    row: u32,
}

/// One state row of a partition's output.
struct UpdateRef {
    vid: i64,
    halted: bool,
    payload: CellRef,
}

/// One message row of a partition's output.
struct MessageRef {
    to: u64,
    from: u64,
    payload: CellRef,
}

/// One apply bucket's references, grouped by the delta (its index in
/// partition order) whose payload columns they point into.
type BucketRefs<R> = Vec<(usize, Vec<R>)>;

/// One partition's parsed worker output, **pre-scattered into apply
/// buckets** — the per-partition segment builder state.
struct PartitionDelta {
    partition: usize,
    /// The payload column of each absorbed output batch; [`CellRef::batch`]
    /// indexes this.
    payloads: Vec<Column>,
    /// Updates by their vertex's owner partition: `updates[partition]`.
    updates: Vec<Vec<UpdateRef>>,
    /// Messages by their recipient's owner cell:
    /// `messages[shard * partitions + partition]`.
    messages: Vec<Vec<MessageRef>>,
    agg_partials: Vec<(String, i64, f64)>,
}

/// Collector for the segment-parallel apply.
///
/// The superstep pipeline calls [`ParallelApply::absorb`] from whichever
/// pool worker finished a partition: the partition's raw output batches are
/// parsed **and scattered into apply buckets right there**, so by the time
/// the last partition lands, the post-barrier work is nothing but per-bucket
/// merges and segment builds (themselves fanned out on the pool). Only the
/// final vector push is serialized behind the mutex.
pub struct ParallelApply {
    agg_specs: FxHashMap<String, AggKind>,
    /// The run's shard count and compute partition count: the owner cells.
    shards: usize,
    partitions: usize,
    deltas: Mutex<Vec<PartitionDelta>>,
}

impl ParallelApply {
    /// A collector scattering into the owner cells of `shards` shards ×
    /// `partitions` compute partitions, validating aggregator names against
    /// `program`'s specs.
    pub fn for_program<P: VertexProgram>(program: &P, shards: usize, partitions: usize) -> Self {
        ParallelApply {
            agg_specs: program
                .aggregators()
                .into_iter()
                .map(|s| (s.name.to_string(), s.kind))
                .collect(),
            shards: shards.max(1),
            partitions: partitions.max(1),
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Parses one partition's worker output, scatters references to its
    /// rows into apply buckets, and files it under its partition index. The
    /// payload columns are retained (an `Arc` clone each), not copied. Safe
    /// to call concurrently from pool workers; all the parsing and
    /// scattering happens outside the shared lock.
    pub fn absorb(&self, partition: usize, batches: &[RecordBatch]) -> VertexicaResult<()> {
        let too_large =
            || VertexicaError::Runtime("worker output too large for 32-bit row references".into());
        let mut delta = PartitionDelta {
            partition,
            payloads: Vec::with_capacity(batches.len()),
            updates: (0..self.partitions).map(|_| Vec::new()).collect(),
            messages: (0..self.shards * self.partitions).map(|_| Vec::new()).collect(),
            agg_partials: Vec::new(),
        };
        for batch in batches {
            let rows = OutputRows::of(batch)?;
            let batch_index = u32::try_from(delta.payloads.len()).map_err(|_| too_large())?;
            let num_rows = u32::try_from(batch.num_rows()).map_err(|_| too_large())?;
            for row in 0..num_rows {
                let payload = CellRef { batch: batch_index, row };
                match rows.get(row as usize, &self.agg_specs)? {
                    OutputRow::State { vid, halted } => {
                        let (_, partition) = owner(vid, self.shards, self.partitions);
                        delta.updates[partition].push(UpdateRef { vid, halted, payload });
                    }
                    OutputRow::Message { to, from } => {
                        let (shard, partition) = owner(to as i64, self.shards, self.partitions);
                        delta.messages[shard * self.partitions + partition].push(MessageRef {
                            to,
                            from,
                            payload,
                        });
                    }
                    OutputRow::Aggregate { name, vid, value } => {
                        delta.agg_partials.push((name.to_string(), vid, value));
                    }
                }
            }
            delta.payloads.push(batch.column(3).clone());
        }
        self.deltas.lock().push(delta);
        Ok(())
    }

    /// Takes every absorbed aggregator partial `(name, vid, value)`, in
    /// partition order. The coordinator folds the merge of every shard's
    /// partials sorted by (name, vid) before the apply commit: per-shard
    /// folded f64 sums are not bitwise recombinable, so the global fold must
    /// see the raw per-vertex terms.
    pub fn take_agg_partials(&self) -> Vec<(String, i64, f64)> {
        let mut deltas = self.deltas.lock();
        deltas.sort_by_key(|d| d.partition);
        deltas.iter_mut().flat_map(|d| std::mem::take(&mut d.agg_partials)).collect()
    }
}

/// The segment-parallel apply path: transpose per-partition deltas into
/// owner cells, build each non-empty cell's new table segment in parallel
/// on the shared pool, and commit both tables with one atomic catalog-level
/// contents swap. The vertex table is rebuilt when any vertex changed, and
/// left as it is otherwise. `extra_commit` holds further pre-encoded tables
/// riding the same grouped commit: every run swaps its stamp table (and a
/// durable sharded run the retained previous-superstep message table)
/// **atomically with** the superstep's vertex/message replacement, so crash
/// recovery always observes a shard at exactly one superstep boundary.
///
/// Every message segment holds one owner cell's rows sorted by `(recipient,
/// sender, payload)` (a restriction of one global sorted sequence, so
/// per-recipient combine folds see identical sequences at any cell count),
/// and every replaced vertex segment one partition's rows sorted by id: each
/// is one sorted run of the worker's canonical input order, handed to its
/// partition whole by the next superstep's scatter.
///
/// Commit protocol: **all** segments for both tables are fully encoded
/// first; only then are the message table and the vertex table swapped, in
/// one grouped commit. Any error or panic during parsing, combining, or
/// segment encoding leaves both tables untouched — there is no torn state to
/// clean up (the crash/abort test injects a pool-task panic to prove it).
pub fn apply_parallel<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    config: &VertexicaConfig,
    apply: ParallelApply,
    extra_commit: Vec<(String, Vec<vertexica_storage::Segment>)>,
) -> VertexicaResult<SuperstepOutcome> {
    let ParallelApply { shards, partitions, deltas, .. } = apply;
    let mut deltas = deltas.into_inner();
    deltas.sort_by_key(|d| d.partition);
    let pool = session.db().runtime().clone();

    // Transpose the per-partition deltas into per-cell lists. `absorb`
    // already scattered each partition's rows by owner, so this moves whole
    // vectors of references (O(partitions × cells) pointer swaps), never
    // individual rows; each list remembers which delta's payload columns
    // its references point into.
    let mut payloads: Vec<Vec<Column>> = Vec::with_capacity(deltas.len());
    let mut msg_cells: Vec<BucketRefs<MessageRef>> =
        (0..shards * partitions).map(|_| Vec::new()).collect();
    let mut upd_cells: Vec<BucketRefs<UpdateRef>> = (0..partitions).map(|_| Vec::new()).collect();
    let mut vertex_changes = 0usize;
    for (d, delta) in deltas.into_iter().enumerate() {
        payloads.push(delta.payloads);
        for (c, refs) in delta.messages.into_iter().enumerate() {
            msg_cells[c].push((d, refs));
        }
        for (p, refs) in delta.updates.into_iter().enumerate() {
            vertex_changes += refs.len();
            upd_cells[p].push((d, refs));
        }
    }
    let cells: Vec<Vec<&BlobData>> = payloads
        .iter()
        .map(|columns| {
            columns
                .iter()
                .map(|c| {
                    c.as_blob().ok_or_else(|| {
                        VertexicaError::Runtime("absorbed payload column is not a blob".into())
                    })
                })
                .collect()
        })
        .collect::<VertexicaResult<_>>()?;
    // The bytes a reference from delta `d` points at.
    let payload = |d: usize, at: CellRef| cells[d][at.batch as usize].get(at.row as usize);

    // Every superstep that changes a vertex replaces the vertex table.
    let replaced = vertex_changes > 0;

    // ---- messages: build each non-empty cell's segment in parallel ----
    msg_cells.retain(|parts| parts.iter().any(|(_, refs)| !refs.is_empty()));
    let msg_fanout = msg_cells.len();
    let use_combiner = config.use_combiner;
    let msg_results: Vec<VertexicaResult<(usize, RecordBatch)>> =
        pool.map_indexed(msg_cells, |_, parts| {
            let mut cell: Vec<(u64, u64, &[u8])> =
                Vec::with_capacity(parts.iter().map(|(_, refs)| refs.len()).sum());
            for (d, refs) in &parts {
                cell.extend(refs.iter().map(|m| (m.to, m.from, payload(*d, m.payload))));
            }
            // Canonicalizing sort at the segment boundary, over borrowed
            // payload slices: every partition may message this cell. Rows
            // that tie are identical, so an unstable sort cannot reorder
            // anything observable.
            cell.sort_unstable();
            let rows = message_rows(program, use_combiner, cell.into_iter())?;
            Ok((rows.len(), rows.finish()?))
        });
    let mut num_messages = 0usize;
    let mut msg_batches = Vec::with_capacity(msg_fanout);
    for r in msg_results {
        let (count, batch) = r?;
        num_messages += count;
        msg_batches.push(batch);
    }

    // ---- vertices: per-partition LEFT-JOIN-equivalent merge, in parallel ----
    let mut vertex_batches = Vec::new();
    let mut active_after_replace = 0i64;
    if replaced {
        // The old table by owner partition (one task per storage batch). A
        // segment an earlier replace wrote holds one partition's rows and
        // is handed over whole; unaligned batches (the initial table, rows
        // of user DML) are split.
        let old = session.db().scan_table(&session.vertex_table(), None, &[])?;
        let old_split: Vec<VertexicaResult<Vec<(usize, RecordBatch)>>> = pool
            .map_indexed(old, |_, batch| {
                split_batch(&batch, &[0], shards, partitions).map_err(VertexicaError::from)
            });
        let mut old_parts: Vec<Vec<RecordBatch>> = (0..partitions).map(|_| Vec::new()).collect();
        for pieces in old_split {
            for (p, piece) in pieces? {
                old_parts[p].push(piece);
            }
        }
        let work: Vec<(Vec<RecordBatch>, BucketRefs<UpdateRef>)> =
            old_parts.into_iter().zip(upd_cells).filter(|(old, _)| !old.is_empty()).collect();
        let results: Vec<VertexicaResult<(RecordBatch, i64)>> = pool
            .map_indexed(work, |_, (old_batches, upd_parts)| {
                rebuild_partition(&old_batches, &upd_parts, &payload)
            });
        for r in results {
            let (batch, active) = r?;
            active_after_replace += active;
            vertex_batches.push(batch);
        }
    }
    let apply_parallelism = msg_fanout.max(vertex_batches.len());

    // ---- commit: encode EVERYTHING, then swap both tables at once ----
    // Both tables' segments are fully encoded before either contents swap,
    // and the swap itself is a single grouped catalog commit: on a durable
    // database both replacements ride one atomic WAL commit record, so
    // crash recovery can never land on a message table at superstep N+1
    // with the vertex table still at N. The commit call can only fail on
    // shape mismatches that are impossible by construction here (the
    // batches were built against the live schemas above).
    let mut commit_group = vec![(
        session.message_table(),
        session.db().encode_segments_for(&session.message_table(), msg_batches)?,
    )];
    if replaced {
        let vertex_segments =
            session.db().encode_segments_for(&session.vertex_table(), vertex_batches)?;
        commit_group.push((session.vertex_table(), vertex_segments));
    }
    commit_group.extend(extra_commit);
    session.db().commit_tables_segmented(commit_group)?;

    // ---- halting check ----
    // A replace counted the active vertices while building the segments
    // (the table *is* what we just wrote); an unchanged table asks SQL.
    let remaining = if replaced {
        active_after_replace
    } else {
        session.db().query_int(&format!(
            "SELECT COUNT(*) FROM {} WHERE halted = FALSE",
            session.vertex_table()
        ))?
    };

    Ok(SuperstepOutcome {
        vertex_changes,
        messages: num_messages,
        replaced,
        all_halted: remaining == 0,
        apply_parallelism,
    })
}

/// One replaced vertex segment: partition `old_batches`' rows in id order,
/// each overridden by its state row in `updates` if it has one (LEFT JOIN +
/// COALESCE: untouched rows survive as they are, and a state row without an
/// old row is dropped). A segment an earlier replace wrote is one sorted
/// run, and the worker emits its state rows in id order, so both stable
/// sorts below only confirm their runs (or merge a few); the rows meet in
/// one linear merge. Returns the segment and its count of active vertices.
fn rebuild_partition<'a>(
    old_batches: &[RecordBatch],
    updates: &BucketRefs<UpdateRef>,
    payload: &impl Fn(usize, CellRef) -> &'a [u8],
) -> VertexicaResult<(RecordBatch, i64)> {
    let mistyped = || VertexicaError::Runtime("vertex table column mistyped".into());
    let mut values = Vec::with_capacity(old_batches.len());
    let mut halted = Vec::with_capacity(old_batches.len());
    let mut old: Vec<(i64, usize, usize)> = Vec::new();
    for (b, batch) in old_batches.iter().enumerate() {
        let ids = Nullable::of(batch.column(0), Column::as_int).ok_or_else(mistyped)?;
        values.push(Nullable::of(batch.column(1), Column::as_blob).ok_or_else(mistyped)?);
        halted.push(Nullable::of(batch.column(2), Column::as_bool).ok_or_else(mistyped)?);
        for i in 0..batch.num_rows() {
            let id = *ids
                .get(i)
                .ok_or_else(|| VertexicaError::Runtime("vertex row without id".into()))?;
            old.push((id, b, i));
        }
    }
    old.sort_by_key(|&(id, ..)| id);
    let mut new: Vec<(i64, &[u8], bool)> = updates
        .iter()
        .flat_map(|(d, refs)| refs.iter().map(|u| (u.vid, payload(*d, u.payload), u.halted)))
        .collect();
    new.sort_by_key(|&(vid, ..)| vid);
    let mut new = new.into_iter().peekable();

    let mut ids = ColumnBuilder::with_capacity(DataType::Int, old.len());
    let mut value_col = ColumnBuilder::with_capacity(DataType::Blob, old.len());
    let mut halted_col = ColumnBuilder::with_capacity(DataType::Bool, old.len());
    let mut active = 0i64;
    for (id, b, i) in old {
        while new.next_if(|&(vid, ..)| vid < id).is_some() {}
        let (value, halt) = match new.peek() {
            Some(&(vid, bytes, halt)) if vid == id => (Some(bytes), Some(halt)),
            _ => (values[b].get(i), halted[b].get(i).copied()),
        };
        if halt == Some(false) {
            active += 1;
        }
        ids.push_int(id);
        match value {
            Some(bytes) => value_col.push_blob(bytes),
            None => value_col.push_null(),
        }
        halted_col.push(halt.map_or(Value::Null, Value::Bool)).map_err(VertexicaError::from)?;
    }
    let batch = RecordBatch::new(
        vertex_schema(),
        vec![ids.finish(), value_col.finish(), halted_col.finish()],
    )
    .map_err(VertexicaError::from)?;
    Ok((batch, active))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::message_batch;
    use crate::worker::worker_output_schema;
    use std::sync::Arc;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::pregel::{InitContext, VertexContext};
    use vertexica_common::VertexId;
    use vertexica_sql::Database;

    struct Noop;
    impl VertexProgram for Noop {
        type Value = f64;
        type Message = f64;
        fn initial_value(&self, _id: VertexId, _init: &InitContext) -> f64 {
            0.0
        }
        fn compute(&self, _ctx: &mut dyn VertexContext<f64, f64>, _messages: &[f64]) {}
        fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
            Some(a + b)
        }
    }

    fn setup() -> GraphSession {
        setup_in(Arc::new(Database::new()))
    }

    fn setup_in(db: Arc<Database>) -> GraphSession {
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)])).unwrap();
        // Initialize values so the vertex table is fully formed.
        crate::coordinator::initialize_vertices(&g, &Noop).unwrap();
        g
    }

    fn out_batch(rows: Vec<Vec<Value>>) -> RecordBatch {
        RecordBatch::from_rows(worker_output_schema(), &rows).unwrap()
    }

    fn state_row(vid: i64, v: f64, halted: bool) -> Vec<Value> {
        vec![
            Value::Int(OUT_STATE),
            Value::Int(vid),
            Value::Null,
            Value::Blob(v.to_bytes()),
            Value::Bool(halted),
            Value::Null,
            Value::Null,
        ]
    }

    fn msg_row(to: i64, from: i64, v: f64) -> Vec<Value> {
        vec![
            Value::Int(OUT_MESSAGE),
            Value::Int(to),
            Value::Int(from),
            Value::Blob(v.to_bytes()),
            Value::Null,
            Value::Null,
            Value::Null,
        ]
    }

    #[test]
    fn large_delta_replaces_table() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_combiner(false);
        let out = out_batch(vec![
            state_row(0, 1.0, false),
            state_row(1, 2.0, false),
            state_row(2, 3.0, false),
        ]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out]).unwrap();
        assert!(outcome.replaced);
        let vals: Vec<(VertexId, f64)> = g.vertex_values().unwrap();
        assert_eq!(vals.len(), 4);
        assert_eq!(vals[2], (2, 3.0));
        assert_eq!(vals[3], (3, 0.0)); // untouched row preserved by left join
        assert_eq!(g.num_vertices().unwrap(), 4);
    }

    #[test]
    fn messages_replace_the_message_table() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_combiner(false);
        // Pre-existing stale message must vanish.
        let stale = message_batch(&[(0, 9, 1.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[stale]).unwrap();

        let out = out_batch(vec![msg_row(2, 0, 4.5), msg_row(3, 1, 5.5)]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out]).unwrap();
        assert_eq!(outcome.messages, 2);
        let n = g.db().query_int(&format!("SELECT COUNT(*) FROM {}", g.message_table())).unwrap();
        assert_eq!(n, 2);
        let stale_left = g
            .db()
            .query_int(&format!("SELECT COUNT(*) FROM {} WHERE sender = 9", g.message_table()))
            .unwrap();
        assert_eq!(stale_left, 0);
    }

    #[test]
    fn combiner_folds_across_partitions() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_combiner(true);
        // Two partitions each sent a partial to vertex 2.
        let out1 = out_batch(vec![msg_row(2, 0, 1.0)]);
        let out2 = out_batch(vec![msg_row(2, 1, 2.0)]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out1, out2]).unwrap();
        assert_eq!(outcome.messages, 1);
        let rows = g.db().query(&format!("SELECT value FROM {}", g.message_table())).unwrap();
        assert_eq!(rows[0][0], Value::Blob(3.0f64.to_bytes()));
    }

    #[test]
    fn all_halted_detection() {
        let g = setup();
        let cfg = VertexicaConfig::default();
        let out = out_batch(vec![
            state_row(0, 0.0, true),
            state_row(1, 0.0, true),
            state_row(2, 0.0, true),
            state_row(3, 0.0, true),
        ]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out]).unwrap();
        assert!(outcome.all_halted);
        assert!(outcome.replaced); // every changing superstep replaces
    }

    /// A program with one declared aggregator, so an aggregate row's name
    /// passes the spec check and the row's other cells get looked at.
    struct Counting;
    impl VertexProgram for Counting {
        type Value = f64;
        type Message = f64;
        fn initial_value(&self, _id: VertexId, _init: &InitContext) -> f64 {
            0.0
        }
        fn compute(&self, _ctx: &mut dyn VertexContext<f64, f64>, _messages: &[f64]) {}
        fn aggregators(&self) -> Vec<vertexica_common::pregel::AggregatorSpec> {
            vec![vertexica_common::pregel::AggregatorSpec { name: "n", kind: AggKind::Sum }]
        }
    }

    /// Feeds `batch` through apply on an in-memory database and on a durable
    /// (write-ahead-logged) one, the catalog's two commit paths; both must
    /// refuse it with a runtime error naming `row_kind` and `column`, and
    /// leave the tables as they were.
    fn assert_both_paths_reject(batch: RecordBatch, row_kind: &str, column: &str) {
        let dir = std::env::temp_dir().join(
            format!("vertexica_apply_reject_{}_{row_kind}_{column}", std::process::id())
                .replace(' ', "_"),
        );
        let _ = std::fs::remove_dir_all(&dir);
        for durable in [false, true] {
            let db = if durable { Database::open(&dir).unwrap() } else { Database::new() };
            let g = setup_in(Arc::new(db));
            let before: Vec<(VertexId, f64)> = g.vertex_values().unwrap();
            let cfg = VertexicaConfig::default().with_combiner(false);
            let err = apply_outputs(&g, &Counting, &cfg, vec![batch.clone()]).unwrap_err();
            let VertexicaError::Runtime(msg) = &err else {
                panic!("durable={durable}: expected a runtime error, got {err:?}");
            };
            assert!(
                msg.contains(row_kind) && msg.contains(column),
                "durable={durable}: {msg:?} should name {row_kind:?} and {column:?}"
            );
            assert_eq!(g.vertex_values::<f64>().unwrap(), before);
            let n = g.db().query_int(&format!("SELECT COUNT(*) FROM {}", g.message_table()));
            assert_eq!(n.unwrap(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_output_rows_are_typed_errors_on_both_paths() {
        let with = |mut row: Vec<Value>, column: usize, cell: Value| {
            row[column] = cell;
            out_batch(vec![row])
        };
        // A message to or from nobody used to become a message to or from
        // vertex 0.
        assert_both_paths_reject(with(msg_row(2, 0, 1.0), 1, Value::Null), "message", "recipient");
        assert_both_paths_reject(with(msg_row(2, 0, 1.0), 2, Value::Null), "message", "sender");
        assert_both_paths_reject(with(msg_row(2, 0, 1.0), 3, Value::Null), "message", "payload");
        // A state row's NULL halt flag used to read as "not halted".
        assert_both_paths_reject(with(state_row(1, 7.5, true), 4, Value::Null), "state", "halted");
        assert_both_paths_reject(with(state_row(1, 7.5, true), 1, Value::Null), "state", "vid");
        // An aggregate row's NULL value used to fold in as 0.0.
        let agg_row = vec![
            Value::Int(OUT_AGGREGATE),
            Value::Int(1),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Str("n".into()),
            Value::Float(1.0),
        ];
        assert_both_paths_reject(with(agg_row.clone(), 6, Value::Null), "aggregate", "agg_value");
        assert_both_paths_reject(with(agg_row, 1, Value::Null), "aggregate", "vid");
    }

    #[test]
    fn mistyped_output_column_is_a_typed_error_on_both_paths() {
        // The recipient column as FLOAT: the same rows under a schema the
        // worker never produces.
        let mut fields = worker_output_schema().fields.clone();
        fields[1].dtype = vertexica_storage::DataType::Float;
        let mut row = msg_row(2, 0, 1.0);
        row[1] = Value::Float(2.0);
        let schema = vertexica_storage::Schema::new(fields);
        let batch = RecordBatch::from_rows(schema, &[row]).unwrap();
        assert_both_paths_reject(batch, "column 1", "mistyped");
    }

    #[test]
    fn empty_outputs_are_fine() {
        let g = setup();
        let cfg = VertexicaConfig::default();
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![]).unwrap();
        assert_eq!(outcome.vertex_changes, 0);
        assert_eq!(outcome.messages, 0);
        assert!(!outcome.replaced);
    }
}
