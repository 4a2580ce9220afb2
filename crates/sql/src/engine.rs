//! The `Database` façade: catalog + SQL execution + UDx + stored procedures.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vertexica_common::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering, RwLock};

use vertexica_common::runtime::{Scope, WorkerPool};
use vertexica_storage::{
    partition::{split_batch, StreamingPartitioner},
    Catalog, ColumnPredicate, DataType, Field, RecordBatch, Row, Schema, TableOptions, Value,
};

use crate::ast::{InsertSource, Query, Statement};
use crate::error::{SqlError, SqlResult};
use crate::expr::PhysExpr;
use crate::functions::{FunctionRegistry, ScalarFunction};
use crate::logical::LogicalPlan;
use crate::optimizer::optimize;
use crate::parser::{parse_script, parse_statement};
use crate::physical::{execute, ExecContext, JoinBuild};
use crate::planner::Planner;
use crate::udf::TransformUdf;

/// Result of executing a statement.
#[derive(Debug)]
pub enum QueryResult {
    /// A SELECT result.
    Rows { schema: Arc<Schema>, batches: Vec<RecordBatch> },
    /// Row count affected by DML.
    Affected(usize),
    /// DDL success.
    Ok,
}

impl QueryResult {
    /// Unwraps row results.
    pub fn into_batches(self) -> SqlResult<Vec<RecordBatch>> {
        match self {
            QueryResult::Rows { batches, .. } => Ok(batches),
            other => Err(SqlError::Execution(format!("expected rows, got {other:?}"))),
        }
    }

    /// All result rows as value vectors.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        match self {
            QueryResult::Rows { batches, .. } => batches.iter().flat_map(|b| b.rows()).collect(),
            _ => Vec::new(),
        }
    }

    pub fn affected(&self) -> usize {
        match self {
            QueryResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// A stored procedure: Rust code running *inside* the database with full
/// access to it — exactly how Vertexica's coordinator is deployed (§2.2).
pub type Procedure = Arc<dyn Fn(&Database, &[Value]) -> SqlResult<Value> + Send + Sync>;

/// An embedded relational database instance.
pub struct Database {
    catalog: Arc<Catalog>,
    functions: RwLock<FunctionRegistry>,
    procedures: RwLock<HashMap<String, Procedure>>,
    /// The shared parallel runtime (default size: cores). One persistent
    /// pool serves every transform-UDF invocation and the coordinator's
    /// superstep loop — no per-call thread spawning.
    runtime: Arc<WorkerPool>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Self::with_runtime(Arc::new(WorkerPool::with_default_size()))
    }

    /// Builds a database on an existing runtime, so several engines can
    /// share one pool.
    pub fn with_runtime(runtime: Arc<WorkerPool>) -> Self {
        Self::with_catalog_and_runtime(Arc::new(Catalog::new()), runtime)
    }

    fn with_catalog_and_runtime(catalog: Arc<Catalog>, runtime: Arc<WorkerPool>) -> Self {
        Database {
            catalog,
            functions: RwLock::new(FunctionRegistry::new()),
            procedures: RwLock::new(HashMap::new()),
            runtime,
        }
    }

    /// Opens (or creates) a **durable** database rooted at `dir`: recovers
    /// the catalog from the last checkpoint plus the committed write-ahead
    /// log tail, then keeps logging every mutation so a crash at any point
    /// loses nothing that was acknowledged. Every acknowledgment waits for
    /// `fsync`; [`open_with`](Self::open_with) can skip it.
    pub fn open(dir: impl AsRef<std::path::Path>) -> SqlResult<Self> {
        Self::open_with(dir, Arc::new(WorkerPool::with_default_size()), true)
    }

    /// [`open`](Self::open) on an existing runtime pool. `sync: false` skips
    /// `fsync`, trading crash-safety against power loss for speed (a killed
    /// process still loses nothing acknowledged).
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        runtime: Arc<WorkerPool>,
        sync: bool,
    ) -> SqlResult<Self> {
        let catalog = vertexica_storage::open_durable(dir.as_ref(), sync)?;
        Ok(Self::with_catalog_and_runtime(catalog, runtime))
    }

    /// Whether this database persists mutations through a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.catalog.is_durable()
    }

    /// Flushes every table to its on-disk segment file and truncates the
    /// write-ahead log. No-op on a non-durable database.
    pub fn checkpoint(&self) -> SqlResult<()> {
        Ok(self.catalog.checkpoint()?)
    }

    /// Cumulative durability counters (records logged, bytes written,
    /// flushes, commits, checkpoints). `None` on a non-durable database.
    pub fn durability_stats(&self) -> Option<vertexica_storage::DurabilityStats> {
        self.catalog.wal_sink().map(|w| w.stats())
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The shared worker pool owned by this database.
    pub fn runtime(&self) -> &Arc<WorkerPool> {
        &self.runtime
    }

    /// Resizes the shared pool used for transform-UDF execution.
    pub fn set_worker_threads(&self, n: usize) {
        self.runtime.resize(n.max(1));
    }

    pub fn worker_threads(&self) -> usize {
        self.runtime.size()
    }

    /// Registers a scalar SQL function.
    pub fn register_scalar(&self, f: ScalarFunction) {
        self.functions.write().register(f);
    }

    /// Registers a stored procedure.
    pub fn register_procedure(&self, name: &str, proc_: Procedure) {
        self.procedures.write().insert(name.to_ascii_lowercase(), proc_);
    }

    /// Invokes a stored procedure by name.
    pub fn call_procedure(&self, name: &str, args: &[Value]) -> SqlResult<Value> {
        let proc_ = self
            .procedures
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::Execution(format!("no such procedure: {name}")))?;
        proc_(self, args)
    }

    /// Parses, plans, optimizes and executes one SQL statement.
    pub fn execute(&self, sql: &str) -> SqlResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(stmt)
    }

    /// Executes a `;`-separated script, returning the last statement's result.
    pub fn execute_script(&self, sql: &str) -> SqlResult<QueryResult> {
        let stmts = parse_script(sql)?;
        let mut last = QueryResult::Ok;
        for stmt in stmts {
            last = self.execute_statement(stmt)?;
        }
        Ok(last)
    }

    /// Convenience: run a query and collect all rows.
    pub fn query(&self, sql: &str) -> SqlResult<Vec<Vec<Value>>> {
        Ok(self.execute(sql)?.rows())
    }

    /// Convenience: run a query expected to return one scalar.
    pub fn query_scalar(&self, sql: &str) -> SqlResult<Value> {
        let rows = self.query(sql)?;
        rows.first()
            .and_then(|r| r.first())
            .cloned()
            .ok_or_else(|| SqlError::Execution("query returned no rows".into()))
    }

    /// Convenience: one scalar as i64.
    pub fn query_int(&self, sql: &str) -> SqlResult<i64> {
        match self.query_scalar(sql)? {
            Value::Int(v) => Ok(v),
            Value::Float(v) => Ok(v as i64),
            other => Err(SqlError::Execution(format!("expected integer, got {other}"))),
        }
    }

    /// Plans and optimizes a query against the current catalog.
    fn plan_optimized(&self, query: &Query) -> SqlResult<LogicalPlan> {
        let functions = self.functions.read().clone();
        let mut planner = Planner::new(&self.catalog, &functions);
        optimize(planner.plan_query(query)?)
    }

    fn execute_statement(&self, stmt: Statement) -> SqlResult<QueryResult> {
        match stmt {
            Statement::Query(q) => {
                let plan = self.plan_optimized(&q)?;
                let schema = plan.schema();
                let ctx = ExecContext { catalog: &self.catalog };
                let batches = execute(&plan, &ctx)?;
                Ok(QueryResult::Rows { schema, batches })
            }
            Statement::Explain(q) => {
                let text = self.plan_optimized(&q)?.display_indent();
                let schema = Schema::new(vec![Field::not_null("plan", DataType::Str)]);
                let rows: Vec<Row> =
                    text.lines().map(|l| vec![Value::Str(l.to_string())]).collect();
                let batches = vec![RecordBatch::from_rows(schema.clone(), &rows)?];
                Ok(QueryResult::Rows { schema, batches })
            }
            Statement::CreateTable { name, columns, order_by, if_not_exists } => {
                if if_not_exists && self.catalog.contains(&name) {
                    return Ok(QueryResult::Ok);
                }
                let fields: Vec<Field> = columns
                    .iter()
                    .map(|c| Field { name: c.name.clone(), dtype: c.dtype, nullable: c.nullable })
                    .collect();
                let schema = Schema::new(fields);
                let mut options = TableOptions::default();
                for key in &order_by {
                    let idx = schema.index_of(key).ok_or_else(|| {
                        SqlError::Plan(format!("ORDER BY column {key} not in table"))
                    })?;
                    options.sort_key.push(idx);
                }
                self.catalog.create_table(&name, schema, options)?;
                Ok(QueryResult::Ok)
            }
            Statement::CreateTableAs { name, query, if_not_exists } => {
                if if_not_exists && self.catalog.contains(&name) {
                    return Ok(QueryResult::Ok);
                }
                let plan = self.plan_optimized(&query)?;
                let schema = plan.schema();
                let ctx = ExecContext { catalog: &self.catalog };
                let batches = execute(&plan, &ctx)?;
                let table = self.catalog.create_table(&name, schema, TableOptions::default())?;
                let mut guard = table.write();
                let mut n = 0usize;
                for b in &batches {
                    n += b.num_rows();
                    guard.append_batch(b)?;
                }
                Ok(QueryResult::Affected(n))
            }
            Statement::DropTable { name, if_exists } => {
                if if_exists {
                    self.catalog.drop_table_if_exists(&name)?;
                } else {
                    self.catalog.drop_table(&name)?;
                }
                Ok(QueryResult::Ok)
            }
            Statement::Insert { table, columns, source } => {
                self.execute_insert(&table, &columns, source)
            }
            Statement::Update { table, assignments, filter } => {
                self.execute_update(&table, &assignments, filter.as_ref())
            }
            Statement::Delete { table, filter } => self.execute_delete(&table, filter.as_ref()),
        }
    }

    fn execute_insert(
        &self,
        table: &str,
        columns: &[String],
        source: InsertSource,
    ) -> SqlResult<QueryResult> {
        let table_ref = self.catalog.get(table)?;
        let schema = table_ref.read().schema().clone();

        // Map provided columns to table positions.
        let positions: Vec<usize> = if columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| SqlError::Plan(format!("unknown column {c} in INSERT")))
                })
                .collect::<SqlResult<Vec<_>>>()?
        };

        let make_full_row = |partial: Vec<Value>| -> SqlResult<Row> {
            if partial.len() != positions.len() {
                return Err(SqlError::Plan(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    partial.len()
                )));
            }
            let mut row: Row = vec![Value::Null; schema.len()];
            for (v, &p) in partial.into_iter().zip(&positions) {
                row[p] = v;
            }
            Ok(row)
        };

        match source {
            InsertSource::Values(rows) => {
                let functions = self.functions.read().clone();
                let planner = Planner::new(&self.catalog, &functions);
                let empty = crate::planner::Scope::default();
                let mut full_rows = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in &row {
                        let phys = planner.plan_expr(e, &empty)?;
                        vals.push(phys.eval_scalar()?);
                    }
                    full_rows.push(make_full_row(vals)?);
                }
                let n = table_ref.write().insert_rows(full_rows)?;
                Ok(QueryResult::Affected(n))
            }
            InsertSource::Query(q) => {
                let plan = self.plan_optimized(&q)?;
                let ctx = ExecContext { catalog: &self.catalog };
                let batches = execute(&plan, &ctx)?;
                let mut n = 0usize;
                let full_width = positions.len() == schema.len()
                    && positions.iter().enumerate().all(|(i, &p)| i == p);
                let mut guard = table_ref.write();
                for b in &batches {
                    if b.num_columns() != positions.len() {
                        return Err(SqlError::Plan(format!(
                            "INSERT SELECT arity mismatch: expected {}, got {}",
                            positions.len(),
                            b.num_columns()
                        )));
                    }
                    n += b.num_rows();
                    if full_width {
                        guard.append_batch(b)?;
                    } else {
                        let rows: Vec<Row> = (0..b.num_rows())
                            .map(|i| make_full_row(b.row(i)))
                            .collect::<SqlResult<Vec<_>>>()?;
                        guard.insert_rows(rows)?;
                    }
                }
                Ok(QueryResult::Affected(n))
            }
        }
    }

    fn execute_update(
        &self,
        table: &str,
        assignments: &[(String, crate::ast::Expr)],
        filter: Option<&crate::ast::Expr>,
    ) -> SqlResult<QueryResult> {
        let table_ref = self.catalog.get(table)?;
        let schema = table_ref.read().schema().clone();
        let functions = self.functions.read().clone();
        let planner = Planner::new(&self.catalog, &functions);

        let planned: Vec<(usize, PhysExpr)> = assignments
            .iter()
            .map(|(col, e)| {
                let idx = schema
                    .index_of(col)
                    .ok_or_else(|| SqlError::Plan(format!("unknown column {col} in UPDATE")))?;
                let phys = planner.plan_expr_for_table(e, &schema, table)?;
                Ok((idx, phys))
            })
            .collect::<SqlResult<Vec<_>>>()?;
        let pred = filter.map(|f| planner.plan_expr_for_table(f, &schema, table)).transpose()?;

        // Snapshot a rowid cursor under a brief read lock, decode and
        // compute updates with the lock released, then apply under a write
        // lock.
        let mut cursor = {
            let guard = table_ref.read();
            guard.scan_cursor(None, &[])?
        };
        let mut updates: Vec<(u64, Row)> = Vec::new();
        while let Some((batch, rowids)) = cursor.next_with_rowids()? {
            let mask = match &pred {
                Some(p) => p.eval_predicate(&batch)?,
                None => vertexica_storage::Bitmap::ones(batch.num_rows()),
            };
            if !mask.any() {
                continue;
            }
            // Evaluate assignment expressions vectorized over the batch.
            let new_cols: Vec<(usize, vertexica_storage::Column)> = planned
                .iter()
                .map(|(idx, e)| Ok((*idx, e.eval(&batch)?)))
                .collect::<SqlResult<Vec<_>>>()?;
            for i in mask.iter_ones() {
                let mut row = batch.row(i);
                for (idx, col) in &new_cols {
                    row[*idx] = col.value(i);
                }
                updates.push((rowids[i], row));
            }
        }
        let n = table_ref.write().update_rows(updates)?;
        Ok(QueryResult::Affected(n))
    }

    fn execute_delete(
        &self,
        table: &str,
        filter: Option<&crate::ast::Expr>,
    ) -> SqlResult<QueryResult> {
        let table_ref = self.catalog.get(table)?;
        let schema = table_ref.read().schema().clone();
        let functions = self.functions.read().clone();
        let planner = Planner::new(&self.catalog, &functions);
        let pred = filter.map(|f| planner.plan_expr_for_table(f, &schema, table)).transpose()?;

        let Some(pred) = pred else {
            // Unqualified DELETE: truncate.
            let mut guard = table_ref.write();
            let n = guard.num_rows();
            guard.truncate()?;
            return Ok(QueryResult::Affected(n));
        };

        // Same lock-snapshot protocol as UPDATE: decode happens unlocked.
        let mut cursor = {
            let guard = table_ref.read();
            guard.scan_cursor(None, &[])?
        };
        let mut doomed: Vec<u64> = Vec::new();
        while let Some((batch, rowids)) = cursor.next_with_rowids()? {
            let mask = pred.eval_predicate(&batch)?;
            for i in mask.iter_ones() {
                doomed.push(rowids[i]);
            }
        }
        let n = table_ref.write().delete_rowids(&doomed)?;
        Ok(QueryResult::Affected(n))
    }

    /// Runs a transform UDF over a produced input stream, hash-partitioned
    /// on `key_columns` into `num_partitions` — the paper's worker
    /// invocation (§2.2–§2.3: parallel workers + vertex batching) — fully
    /// pipelined: input production, partition scatter and per-partition
    /// compute overlap on the shared pool.
    ///
    /// `produce` is called once, on the calling thread, with a chunk sink;
    /// every chunk it emits is handed to a **scatter task** on the pool,
    /// which hashes the chunk's rows into per-partition pieces
    /// ([`vertexica_storage::partition::split_batch`], outside any lock) and
    /// files them with a shared sealing
    /// [`StreamingPartitioner`]. The moment a
    /// partition's last expected row lands (`expected_rows`, from the
    /// caller's source prescan), the scatter task **spawns that partition's
    /// compute task from the worker it is running on** — a continuation
    /// spawn onto the same scope — so compute genuinely starts while the
    /// producer is still streaming later chunks. Partitions not covered by
    /// a plan (`expected_rows = None`, e.g. the 3-way-join replay) are
    /// dispatched when production and scattering have both finished.
    ///
    /// `sink` is called once per non-empty partition with
    /// `(partition_index, output_batches)`, from whichever worker finished
    /// the partition (so it must be `Sync`), in nondeterministic order; the
    /// first error (producer, scatter, UDF or sink) wins and suppresses all
    /// later work, and a UDF panic is re-thrown on the calling thread. On a
    /// single-worker pool the whole dataflow degenerates to the sequential
    /// scatter-then-compute order on the calling thread, partitions in index
    /// order (no overlap, trivially equivalent).
    ///
    /// Two guards keep the dataflow honest. **Backpressure**: at most
    /// `2 × pool size` produced chunks may be in flight (spawned but not yet
    /// scattered) — the producer blocks until a scatter task frees a slot,
    /// so a fast producer cannot queue the whole input in worker deques and
    /// void the streaming memory bound. **Plan enforcement**: with
    /// `expected_rows`, a partition receiving *more* rows than planned
    /// errors at the scatter, and a partition still waiting for rows when
    /// the stream ends (an overstated plan) errors at the drain — silent
    /// truncation and silent degradation are both impossible.
    ///
    /// The returned [`PipelinedReport`] carries the overlap accounting: how
    /// long compute tasks ran concurrently with the assemble window (start
    /// of production → last chunk scattered).
    /// `produce` returns its **peak resident source bytes** gauge: the
    /// largest amount of un-emitted source data (e.g. decoded scan batches)
    /// it ever held at once while producing. The value is passed
    /// through as [`PipelinedReport::peak_resident_scan_bytes`] (0 if the
    /// producer doesn't measure).
    pub fn run_transform_pipelined(
        &self,
        udf: &Arc<dyn TransformUdf>,
        key_columns: Vec<usize>,
        num_partitions: usize,
        expected_rows: Option<Vec<u64>>,
        produce: &mut dyn FnMut(&mut ChunkSink<'_>) -> SqlResult<usize>,
        sink: &(dyn Fn(usize, Vec<RecordBatch>) -> SqlResult<()> + Sync),
    ) -> SqlResult<PipelinedReport> {
        let num_partitions = num_partitions.max(1);
        let start = Instant::now();
        let planned = expected_rows.is_some();
        let partitioner = match expected_rows {
            Some(plan) => {
                StreamingPartitioner::with_expected_rows(key_columns.clone(), num_partitions, plan)
            }
            None => StreamingPartitioner::new(key_columns.clone(), num_partitions),
        };

        if self.runtime.size() <= 1 {
            // Sequential fallback: scatter inline, compute after the stream
            // ends. Nothing runs concurrently, so overlap is honestly zero.
            let mut partitioner = partitioner;
            let mut input_bytes = 0usize;
            let mut peak_chunk_bytes = 0usize;
            let mut sealed: Vec<(usize, Vec<RecordBatch>)> = Vec::new();
            let peak_resident_scan_bytes = produce(&mut |chunk| {
                let bytes = chunk.estimated_bytes();
                input_bytes += bytes;
                peak_chunk_bytes = peak_chunk_bytes.max(bytes);
                let pieces = split_batch(&chunk, &key_columns, num_partitions)?;
                sealed.extend(partitioner.absorb(pieces)?);
                Ok(())
            })?;
            if planned && !partitioner.fully_sealed() {
                return Err(plan_underdelivery_error());
            }
            sealed.extend(partitioner.drain_unsealed());
            let assemble_secs = start.elapsed().as_secs_f64();
            let compute_start = Instant::now();
            sealed.sort_by_key(|(idx, _)| *idx);
            let had_work = !sealed.is_empty();
            for (idx, batches) in sealed {
                sink(idx, udf.execute(batches)?)?;
            }
            return Ok(PipelinedReport {
                assemble_secs,
                compute_secs: if had_work { compute_start.elapsed().as_secs_f64() } else { 0.0 },
                overlap_secs: 0.0,
                input_bytes,
                peak_chunk_bytes,
                peak_resident_scan_bytes,
                peak_inflight_chunks: usize::from(input_bytes > 0),
                early_dispatches: 0,
            });
        }

        let shared = PipeShared {
            udf,
            sink,
            partitioner: Mutex::new(partitioner),
            key_columns,
            num_partitions,
            planned,
            failure: Mutex::new(None),
            windows: Mutex::new(Vec::new()),
            scatter_pending: AtomicUsize::new(0),
            produced_all: AtomicBool::new(false),
            assemble_end: Mutex::new(None),
            early_dispatches: AtomicUsize::new(0),
            inflight: Mutex::new(0),
            inflight_freed: Condvar::new(),
            inflight_cap: self.runtime.size().saturating_mul(2).max(2),
        };
        let mut input_bytes = 0usize;
        let mut peak_chunk_bytes = 0usize;
        let mut peak_inflight_chunks = 0usize;
        let mut peak_resident_scan_bytes = 0usize;

        self.runtime.scope(|scope| {
            let shared = &shared;
            let result = produce(&mut |chunk| {
                if let Some(e) = shared.failure.lock().as_ref() {
                    // Fail fast: no point streaming further chunks.
                    return Err(SqlError::Execution(format!("pipelined run failed: {e}")));
                }
                let bytes = chunk.estimated_bytes();
                input_bytes += bytes;
                peak_chunk_bytes = peak_chunk_bytes.max(bytes);
                {
                    // Backpressure: never let more than `inflight_cap`
                    // produced chunks sit unscattered in worker deques —
                    // that would re-materialize the input the streaming
                    // pipeline exists to avoid. Progress is guaranteed:
                    // every spawned scatter task eventually runs and frees
                    // its slot (even when an earlier failure short-circuits
                    // its work).
                    let mut inflight = shared.inflight.lock();
                    while *inflight >= shared.inflight_cap {
                        inflight = shared.inflight_freed.wait(inflight);
                    }
                    *inflight += 1;
                    peak_inflight_chunks = peak_inflight_chunks.max(*inflight);
                }
                shared.scatter_pending.fetch_add(1, Ordering::SeqCst);
                scope.spawn(move || {
                    if shared.failure.lock().is_none() {
                        let sealed =
                            split_batch(&chunk, &shared.key_columns, shared.num_partitions)
                                .map_err(SqlError::from)
                                .and_then(|pieces| {
                                    shared.partitioner.lock().absorb(pieces).map_err(Into::into)
                                });
                        match sealed {
                            Ok(sealed) => pipe_dispatch(shared, scope, sealed, true),
                            Err(e) => shared.fail(e),
                        }
                    }
                    {
                        let mut inflight = shared.inflight.lock();
                        *inflight -= 1;
                        shared.inflight_freed.notify_one();
                    }
                    // Last scatter out (with production finished) closes the
                    // assemble window and dispatches open-ended partitions.
                    if shared.scatter_pending.fetch_sub(1, Ordering::SeqCst) == 1
                        && shared.produced_all.load(Ordering::SeqCst)
                    {
                        pipe_finish_assemble(shared, scope);
                    }
                });
                Ok(())
            });
            match result {
                Ok(resident) => peak_resident_scan_bytes = resident,
                Err(e) => shared.fail(e),
            }
            shared.produced_all.store(true, Ordering::SeqCst);
            if shared.scatter_pending.load(Ordering::SeqCst) == 0 {
                pipe_finish_assemble(shared, scope);
            }
        });

        if let Some(e) = shared.failure.into_inner() {
            return Err(e);
        }
        let scope_end = Instant::now();
        let assemble_end = shared.assemble_end.into_inner().unwrap_or(scope_end);
        let windows = shared.windows.into_inner();
        let overlap_secs: f64 = windows
            .iter()
            .map(|(s, e)| e.min(&assemble_end).saturating_duration_since(*s).as_secs_f64())
            .sum();
        let compute_secs = windows
            .iter()
            .map(|(s, _)| *s)
            .min()
            .map(|first| scope_end.saturating_duration_since(first).as_secs_f64())
            .unwrap_or(0.0);
        Ok(PipelinedReport {
            assemble_secs: assemble_end.saturating_duration_since(start).as_secs_f64(),
            compute_secs,
            overlap_secs,
            input_bytes,
            peak_chunk_bytes,
            peak_resident_scan_bytes,
            peak_inflight_chunks,
            early_dispatches: shared.early_dispatches.load(Ordering::Relaxed),
        })
    }

    /// The encode half of the segment-write fast path: builds one ROS
    /// segment per batch **in parallel on the shared runtime pool**, against
    /// `table`'s current schema and options, without touching the table.
    ///
    /// This is the write-side sibling of
    /// [`run_transform_pipelined`](Self::run_transform_pipelined): where that
    /// primitive fans partition *reads/compute* out over the pool, this one
    /// fans the *table rebuild* out. The expensive work per segment —
    /// column coercion, zone maps, optional compression — happens off-table
    /// on pool workers; [`commit_tables_segmented`](Self::commit_tables_segmented)
    /// then publishes the segments of several tables at once. Batches map to
    /// segments in input order; the first build error fails the call.
    pub fn encode_segments_for(
        &self,
        table: &str,
        segment_batches: Vec<RecordBatch>,
    ) -> SqlResult<Vec<vertexica_storage::Segment>> {
        let table_ref = self.catalog.get(table)?;
        let (schema, compress) = {
            let guard = table_ref.read();
            (guard.schema().clone(), guard.options().compress)
        };
        let built: Vec<vertexica_storage::StorageResult<vertexica_storage::Segment>> =
            self.runtime.map_indexed(segment_batches, |_, batch| {
                vertexica_storage::Segment::build(&schema, &batch, compress)
            });
        let mut segments = Vec::with_capacity(built.len());
        for seg in built {
            segments.push(seg?);
        }
        Ok(segments)
    }

    /// The commit half of the segment-write fast path: atomically replaces
    /// each named table's contents with its pre-built segments (keeping its
    /// schema, options and catalog handle), **all** in one catalog commit.
    /// Readers see either the complete old or the complete new contents,
    /// never a torn mixture, and on a durable database the whole group rides
    /// a single WAL commit record, so recovery lands on either the complete
    /// old or the complete new superstep state. Empty segments are dropped.
    /// The only failure modes are a missing table and shape mismatches
    /// against the live schema — encoding already happened — and either
    /// leaves every table untouched. Returns the total row count across the
    /// new contents.
    pub fn commit_tables_segmented(
        &self,
        groups: Vec<(String, Vec<vertexica_storage::Segment>)>,
    ) -> SqlResult<usize> {
        let mut replacements = Vec::with_capacity(groups.len());
        let mut rows = 0usize;
        for (table, segments) in groups {
            let table_ref = self.catalog.get(&table)?;
            let (name, schema, options) = {
                let guard = table_ref.read();
                (guard.name().to_string(), guard.schema().clone(), guard.options().clone())
            };
            let mut fresh = vertexica_storage::Table::new(name, schema, options);
            for seg in segments {
                rows += seg.num_rows();
                fresh.adopt_segment(seg)?;
            }
            replacements.push((table, fresh));
        }
        self.catalog.replace_contents_many(replacements)?;
        Ok(rows)
    }

    /// Pull-based storage-level scan (bypasses SQL): snapshots a
    /// [`vertexica_storage::ScanCursor`] under a **briefly held** table read
    /// lock and returns it with the lock already released. Each
    /// [`ScanCursor::next_batch`](vertexica_storage::ScanCursor::next_batch)
    /// pull decodes one (zone-map-pruned, delete-filtered) segment, so a
    /// consumer's transient footprint is one in-flight batch and a slow
    /// consumer never blocks writers. This is the scan primitive behind the
    /// superstep assemble path and [`scan_table`](Self::scan_table).
    pub fn scan_cursor(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        predicates: &[ColumnPredicate],
    ) -> SqlResult<vertexica_storage::ScanCursor> {
        let t = self.catalog.get(table)?;
        let guard = t.read();
        Ok(guard.scan_cursor(projection, predicates)?)
        // `guard` drops here: every decode happens lock-free on the cursor.
    }

    /// Direct storage-level scan helper (bypasses SQL) — used by the
    /// coordinator's hot paths. Eagerly drains a
    /// [`scan_cursor`](Self::scan_cursor), so the table lock is dropped
    /// before any segment is decoded.
    pub fn scan_table(
        &self,
        table: &str,
        projection: Option<&[usize]>,
        predicates: &[ColumnPredicate],
    ) -> SqlResult<Vec<RecordBatch>> {
        let mut cursor = self.scan_cursor(table, projection, predicates)?;
        let mut out = Vec::new();
        while let Some(batch) = cursor.next_batch()? {
            out.push(batch);
        }
        Ok(out)
    }

    /// Scans `build_table` (projected) through a cursor and hashes it once
    /// on `key_columns` into a reusable [`JoinBuild`], which callers then
    /// probe one batch at a time ([`JoinBuild::probe_matches`]).
    /// `key_columns` index the *projected* batch.
    pub fn hash_join_build(
        &self,
        build_table: &str,
        projection: Option<&[usize]>,
        key_columns: Vec<usize>,
    ) -> SqlResult<JoinBuild> {
        let mut cursor = self.scan_cursor(build_table, projection, &[])?;
        let schema = cursor.schema().clone();
        let mut batches = Vec::new();
        while let Some(batch) = cursor.next_batch()? {
            batches.push(batch);
        }
        let build = RecordBatch::concat(schema, &batches)?;
        Ok(JoinBuild::new(build, key_columns))
    }

    /// Direct bulk append (bypasses SQL) — used for graph loading.
    pub fn append_batches(&self, table: &str, batches: &[RecordBatch]) -> SqlResult<usize> {
        let t = self.catalog.get(table)?;
        let mut guard = t.write();
        let mut n = 0;
        for b in batches {
            n += b.num_rows();
            guard.append_batch(b)?;
        }
        Ok(n)
    }
}

/// The chunk consumer a [`Database::run_transform_pipelined`] producer is
/// handed: call it once per produced input chunk.
pub type ChunkSink<'a> = dyn FnMut(RecordBatch) -> SqlResult<()> + 'a;

/// What a [`Database::run_transform_pipelined`] call observed about its own
/// overlap. All times are wall-clock seconds.
#[derive(Debug, Clone, Default)]
pub struct PipelinedReport {
    /// Production start → last chunk scattered (the assemble window).
    pub assemble_secs: f64,
    /// First compute task start → last task finished. Overlaps
    /// [`assemble_secs`](Self::assemble_secs) by construction.
    pub compute_secs: f64,
    /// Total seconds compute tasks ran **while the assemble window was
    /// still open** — the quantity pipelining exists to create. Zero in the
    /// sequential fallback.
    pub overlap_secs: f64,
    /// Total produced input, in estimated bytes.
    pub input_bytes: usize,
    /// Largest single produced chunk, in estimated bytes.
    pub peak_chunk_bytes: usize,
    /// Producer-reported gauge: the most un-emitted **source** data (e.g.
    /// decoded scan batches) the producer ever held at once. With pull-based
    /// scan cursors this is one in-flight batch per source. 0 when the
    /// producer doesn't measure.
    pub peak_resident_scan_bytes: usize,
    /// Most chunks simultaneously in flight (spawned to a scatter task but
    /// not yet scattered). Bounded by the producer backpressure at
    /// `2 × pool size`, which is what keeps queued-chunk memory from
    /// re-materializing the input when production outpaces scatter.
    pub peak_inflight_chunks: usize,
    /// Partitions whose compute was dispatched by a **seal** (before the
    /// assemble window closed), as opposed to the end-of-stream drain.
    pub early_dispatches: usize,
}

/// Shared state of one pipelined transform run. Lives in the caller's frame
/// for the duration of the scope; scatter tasks, compute tasks and the
/// producer all hold `&PipeShared`.
struct PipeShared<'a> {
    udf: &'a Arc<dyn TransformUdf>,
    sink: &'a (dyn Fn(usize, Vec<RecordBatch>) -> SqlResult<()> + Sync),
    partitioner: Mutex<StreamingPartitioner>,
    key_columns: Vec<usize>,
    num_partitions: usize,
    /// Whether the partitioner was armed with an expected-rows plan — in
    /// which case *every* partition must seal by itself and an end-of-stream
    /// drain that finds leftovers is a plan violation.
    planned: bool,
    /// First error from any stage; later work short-circuits on it.
    failure: Mutex<Option<SqlError>>,
    /// (start, end) of every compute task, for overlap accounting.
    windows: Mutex<Vec<(Instant, Instant)>>,
    /// Chunks handed to scatter tasks but not yet fully scattered.
    scatter_pending: AtomicUsize,
    /// The producer has emitted its last chunk.
    produced_all: AtomicBool,
    /// When the last chunk finished scattering (closes the assemble window;
    /// doubles as the run-once latch for the end-of-stream drain).
    assemble_end: Mutex<Option<Instant>>,
    early_dispatches: AtomicUsize,
    /// Producer backpressure: chunks spawned to scatter tasks but not yet
    /// scattered, capped at `inflight_cap` (the producer blocks on
    /// `inflight_freed` until a scatter task frees a slot).
    inflight: Mutex<usize>,
    inflight_freed: Condvar,
    inflight_cap: usize,
}

/// The error for a planned pipelined run whose stream ended before every
/// partition sealed — the plan overstated some partition's rows (the
/// understated direction errors in `StreamingPartitioner::absorb`).
fn plan_underdelivery_error() -> SqlError {
    SqlError::Execution(
        "pipelined plan violation: input stream ended before every partition \
         received its expected rows (prescan and scatter disagree)"
            .into(),
    )
}

impl PipeShared<'_> {
    fn fail(&self, e: SqlError) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }
}

/// Spawns one compute task per sealed partition — from whatever thread
/// observed the seal, which on the hot path is a pool worker running a
/// scatter task (a continuation spawn onto its own scope).
fn pipe_dispatch<'scope, 'env>(
    shared: &'env PipeShared<'env>,
    scope: &'scope Scope<'scope, 'env>,
    sealed: Vec<(usize, Vec<RecordBatch>)>,
    early: bool,
) {
    for (idx, batches) in sealed {
        if early {
            shared.early_dispatches.fetch_add(1, Ordering::Relaxed);
        }
        scope.spawn(move || {
            if shared.failure.lock().is_some() {
                return; // an earlier stage failed: skip the work
            }
            let start = Instant::now();
            let result = shared.udf.execute(batches).and_then(|out| {
                if shared.failure.lock().is_some() {
                    return Ok(()); // a failure landed while we computed
                }
                (shared.sink)(idx, out)
            });
            let end = Instant::now();
            shared.windows.lock().push((start, end));
            if let Err(e) = result {
                shared.fail(e);
            }
        });
    }
}

/// Closes the assemble window (run-once) and dispatches whatever the seals
/// didn't: the open-ended partitions of a plan-less run. On a *planned* run
/// every partition must have sealed by now — leftovers mean the plan
/// overstated a partition's rows, and silently computing them here would
/// mask the plan bug (and quietly forfeit the pipelining), so it errors
/// instead. Called by whichever of {producer, last scatter task} finishes
/// second.
fn pipe_finish_assemble<'scope, 'env>(
    shared: &'env PipeShared<'env>,
    scope: &'scope Scope<'scope, 'env>,
) {
    let drained = {
        let mut end = shared.assemble_end.lock();
        if end.is_some() {
            return; // both sides raced here; first one already drained
        }
        *end = Some(Instant::now());
        let mut partitioner = shared.partitioner.lock();
        if shared.planned && !partitioner.fully_sealed() {
            // `fail` keeps the first error, so a stream that stopped early
            // because something already failed is not re-flagged.
            shared.fail(plan_underdelivery_error());
            return;
        }
        partitioner.drain_unsealed()
    };
    pipe_dispatch(shared, scope, drained, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_storage::DataType;

    fn db_with_edges() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE edge (src BIGINT NOT NULL, dst BIGINT NOT NULL, weight FLOAT)")
            .unwrap();
        db.execute("INSERT INTO edge VALUES (0,1,1.0), (0,2,2.0), (1,2,3.0), (2,0,4.0), (2,3,5.0)")
            .unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = db_with_edges();
        let rows =
            db.query("SELECT src, dst FROM edge WHERE weight > 2.5 ORDER BY weight").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(2)]);
    }

    /// ORDER BY a column the select list drops resolves with its table
    /// qualifier as it does without one.
    #[test]
    fn order_by_qualified_unselected_column() {
        let db = db_with_edges();
        db.execute("CREATE TABLE tag (id BIGINT NOT NULL, label VARCHAR)").unwrap();
        db.execute("INSERT INTO tag VALUES (0,'zero'), (1,'one'), (2,'two'), (3,'three')").unwrap();
        let query = |key: &str| {
            db.query(&format!(
                "SELECT t.label FROM edge e JOIN tag t ON e.dst = t.id ORDER BY {key}"
            ))
            .unwrap()
        };
        let qualified = query("e.weight");
        assert_eq!(qualified, query("weight"));
        let labels: Vec<Value> = ["one", "two", "two", "zero", "three"]
            .iter()
            .map(|l| Value::Str(l.to_string()))
            .collect();
        assert_eq!(qualified.into_iter().flatten().collect::<Vec<_>>(), labels);
        assert_eq!(query("e.weight DESC").last(), Some(&vec![Value::Str("one".into())]));
    }

    #[test]
    fn group_by_with_having_end_to_end() {
        let db = db_with_edges();
        let rows = db
            .query(
                "SELECT src, COUNT(*) AS cnt, SUM(weight) AS w FROM edge \
                 GROUP BY src HAVING COUNT(*) >= 2 ORDER BY src",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(2), Value::Float(3.0)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(2), Value::Float(9.0)]);
    }

    #[test]
    fn join_end_to_end() {
        let db = db_with_edges();
        let n =
            db.query_int("SELECT COUNT(*) FROM edge e1 JOIN edge e2 ON e1.dst = e2.src").unwrap();
        assert_eq!(n, 7);
    }

    #[test]
    fn two_column_int_join_end_to_end() {
        // Exercises the composite (i64, i64) hash-join fast path: edge
        // identity self-join, plus an inner join against a subset.
        let db = db_with_edges();
        let n = db
            .query_int(
                "SELECT COUNT(*) FROM edge e1 JOIN edge e2 \
                 ON e1.src = e2.src AND e1.dst = e2.dst",
            )
            .unwrap();
        assert_eq!(n, 5, "edge identity self-join matches each edge exactly once");

        db.execute("CREATE TABLE hot AS SELECT src, dst FROM edge WHERE weight >= 4.0").unwrap();
        let rows = db
            .query(
                "SELECT e.src, e.dst, e.weight FROM edge e JOIN hot h \
                 ON e.src = h.src AND e.dst = h.dst ORDER BY e.dst",
            )
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(2), Value::Int(0), Value::Float(4.0)],
                vec![Value::Int(2), Value::Int(3), Value::Float(5.0)],
            ]
        );
        // LEFT JOIN through the same fast path: non-hot edges null-extend.
        let nulls = db
            .query_int(
                "SELECT COUNT(*) FROM edge e LEFT JOIN hot h \
                 ON e.src = h.src AND e.dst = h.dst WHERE h.src IS NULL",
            )
            .unwrap();
        assert_eq!(nulls, 3);
    }

    #[test]
    fn generic_key_join_agrees_with_int_fast_path() {
        // The same equi-join computed over BIGINT keys (fast path) and over
        // the keys cast to FLOAT (generic scratch-buffer path) must agree.
        let db = db_with_edges();
        db.execute(
            "CREATE TABLE fedge AS SELECT CAST(src AS FLOAT) AS fsrc, \
             CAST(dst AS FLOAT) AS fdst, weight FROM edge",
        )
        .unwrap();
        let fast = db
            .query_int(
                "SELECT COUNT(*) FROM edge e1 JOIN edge e2 \
                 ON e1.src = e2.src AND e1.dst = e2.dst",
            )
            .unwrap();
        let generic = db
            .query_int(
                "SELECT COUNT(*) FROM fedge f1 JOIN fedge f2 \
                 ON f1.fsrc = f2.fsrc AND f1.fdst = f2.fdst",
            )
            .unwrap();
        assert_eq!(fast, generic);
        // Duplicate generic keys still fan out (scratch-buffer reuse must
        // not corrupt previously inserted keys).
        let by_weight =
            db.query_int("SELECT COUNT(*) FROM edge e1 JOIN edge e2 ON e1.src = e2.dst").unwrap();
        let by_fweight = db
            .query_int("SELECT COUNT(*) FROM fedge f1 JOIN fedge f2 ON f1.fsrc = f2.fdst")
            .unwrap();
        assert_eq!(by_weight, by_fweight);
    }

    /// End-to-end NULL-key regression: the same join over nullable BIGINT
    /// keys (typed fast path, NULLs skipped per row) and over the keys cast
    /// to FLOAT (generic path) must agree — and NULL must never match NULL,
    /// nor a NULL slot's 0 data sentinel match a real key 0.
    #[test]
    fn nullable_bigint_join_agrees_with_generic_and_skips_nulls() {
        let db = Database::new();
        db.execute("CREATE TABLE a (k BIGINT, v BIGINT NOT NULL)").unwrap();
        db.execute("CREATE TABLE b (k BIGINT, w BIGINT NOT NULL)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 10), (NULL, 20), (0, 30), (2, 40)").unwrap();
        db.execute("INSERT INTO b VALUES (1, 100), (NULL, 200), (0, 300), (0, 400), (3, 500)")
            .unwrap();
        // k=1 matches once, k=0 matches twice; the NULLs match nothing. A
        // fast path without per-row NULL checks would cross-match the NULL
        // rows with the real 0 keys (NULL's data sentinel is 0) → 7 rows.
        let inner = db.query_int("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(inner, 3, "NULL join keys must never match");
        let left = db.query_int("SELECT COUNT(*) FROM a LEFT JOIN b ON a.k = b.k").unwrap();
        assert_eq!(left, 5, "NULL/unmatched probe rows null-extend exactly once");

        // Same joins through the generic path (FLOAT keys).
        db.execute("CREATE TABLE fa AS SELECT CAST(k AS FLOAT) AS k, v FROM a").unwrap();
        db.execute("CREATE TABLE fb AS SELECT CAST(k AS FLOAT) AS k, w FROM b").unwrap();
        let ginner = db.query_int("SELECT COUNT(*) FROM fa JOIN fb ON fa.k = fb.k").unwrap();
        let gleft = db.query_int("SELECT COUNT(*) FROM fa LEFT JOIN fb ON fa.k = fb.k").unwrap();
        assert_eq!((inner, left), (ginner, gleft), "fast path diverged from generic");

        // Composite nullable key: only fully-non-NULL (k, k2) pairs match.
        db.execute("CREATE TABLE c (k BIGINT, k2 BIGINT, x BIGINT NOT NULL)").unwrap();
        db.execute("INSERT INTO c VALUES (0, 0, 1), (0, NULL, 2), (NULL, 0, 3), (1, 2, 4)")
            .unwrap();
        let n = db
            .query_int("SELECT COUNT(*) FROM c c1 JOIN c c2 ON c1.k = c2.k AND c1.k2 = c2.k2")
            .unwrap();
        assert_eq!(n, 2, "composite keys with a NULL component must never match");
    }

    /// `SUM(DISTINCT x)` over floats sums the distinct values in the order
    /// they are first seen, so the same query gives the same bits every
    /// time; summed in a hash set's iteration order, 50 runs over these
    /// mixed-magnitude values came out with 10 different bit patterns.
    #[test]
    fn sum_distinct_float_is_first_seen_order_and_deterministic() {
        let db = Database::new();
        db.execute("CREATE TABLE f (x FLOAT)").unwrap();
        let xs: Vec<f64> = (0..200)
            .map(|i| {
                let j = if i % 5 == 4 { i / 3 } else { i }; // every fifth repeats
                (j as f64 * 0.37 + 0.1) * 10f64.powi((j % 9) * 2 - 8)
            })
            .collect();
        let schema = db.catalog().get("f").unwrap().read().schema().clone();
        let rows: Vec<Vec<Value>> = xs.iter().map(|&x| vec![Value::Float(x)]).collect();
        db.append_batches("f", &[RecordBatch::from_rows(schema, &rows).unwrap()]).unwrap();

        let mut seen: Vec<u64> = Vec::new();
        for &x in &xs {
            if !seen.contains(&x.to_bits()) {
                seen.push(x.to_bits());
            }
        }
        assert!(seen.len() < xs.len(), "the input must repeat values");
        let want: f64 = seen.iter().map(|&b| f64::from_bits(b)).sum();
        for _ in 0..50 {
            let got = db.query("SELECT SUM(DISTINCT x) FROM f").unwrap();
            let Value::Float(got) = got[0][0] else { panic!("SUM(DISTINCT) gave {got:?}") };
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs first-seen-order {want}");
        }
    }

    #[test]
    fn avg_distinct_averages_the_distinct_values() {
        let db = Database::new();
        db.execute("CREATE TABLE t (g BIGINT, x FLOAT, n BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (0, 1.0, 1), (0, 1.0, 1), (0, 4.0, 4), (1, NULL, NULL)")
            .unwrap();
        let got = db.query("SELECT AVG(DISTINCT x), AVG(DISTINCT n), AVG(x) FROM t").unwrap();
        assert_eq!(got, vec![vec![Value::Float(2.5), Value::Float(2.5), Value::Float(2.0)]]);
        let got = db.query("SELECT g, AVG(DISTINCT x) FROM t GROUP BY g ORDER BY g").unwrap();
        assert_eq!(
            got,
            vec![vec![Value::Int(0), Value::Float(2.5)], vec![Value::Int(1), Value::Null]]
        );
    }

    /// A BIGINT key equated with a FLOAT key matches as the same comparison
    /// in WHERE does, on every join kind and with either side as the build.
    #[test]
    fn bigint_float_join_keys_match_as_where_does() {
        let db = Database::new();
        db.execute("CREATE TABLE a (k BIGINT)").unwrap();
        db.execute("CREATE TABLE b (k FLOAT)").unwrap();
        db.execute("INSERT INTO a VALUES (1), (1), (2), (3), (NULL)").unwrap();
        db.execute("INSERT INTO b VALUES (1.0), (2.0), (2.5), (NULL)").unwrap();
        let count = |sql: &str| db.query_int(sql).unwrap();
        assert_eq!(count("SELECT COUNT(*) FROM a, b WHERE a.k = b.k"), 3);
        assert_eq!(count("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k"), 3);
        assert_eq!(count("SELECT COUNT(*) FROM b JOIN a ON b.k = a.k"), 3);
        assert_eq!(count("SELECT COUNT(*) FROM a LEFT JOIN b ON a.k = b.k"), 5);
        assert_eq!(count("SELECT COUNT(b.k) FROM a LEFT JOIN b ON a.k = b.k"), 3);
        assert_eq!(count("SELECT COUNT(*) FROM a RIGHT JOIN b ON a.k = b.k"), 5);
        assert_eq!(count("SELECT COUNT(a.k) FROM a RIGHT JOIN b ON a.k = b.k"), 3);
        // The key keeps its declared type in the output.
        let rows = db.query("SELECT a.k, b.k FROM a JOIN b ON a.k = b.k ORDER BY b.k").unwrap();
        assert_eq!(rows[2], vec![Value::Int(2), Value::Float(2.0)]);
    }

    #[test]
    fn open_scan_cursor_does_not_block_writers() {
        let db = db_with_edges();
        // A cursor snapshotted through the engine holds no table lock, so a
        // concurrent writer must make progress while the cursor is open.
        let mut cursor = db.scan_cursor("edge", None, &[]).unwrap();
        let schema = db.catalog().get("edge").unwrap().read().schema().clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = {
            let batch = RecordBatch::from_rows(
                schema,
                &[vec![Value::Int(90), Value::Int(91), Value::Float(9.0)]],
            )
            .unwrap();
            let db = std::sync::Arc::new(db);
            let db2 = db.clone();
            let t = std::thread::spawn(move || {
                let n = db2.append_batches("edge", &[batch]).unwrap();
                tx.send(n).unwrap();
            });
            (db, t)
        };
        let appended = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("append_batches blocked behind an open scan cursor");
        assert_eq!(appended, 1);
        handle.1.join().unwrap();
        // The open cursor still sees exactly its snapshot…
        let mut rows = 0;
        while let Some(b) = cursor.next_batch().unwrap() {
            rows += b.num_rows();
        }
        assert_eq!(rows, 5);
        // …while a fresh scan sees the concurrent append.
        assert_eq!(handle.0.query_int("SELECT COUNT(*) FROM edge").unwrap(), 6);
    }

    #[test]
    fn left_join_is_null_end_to_end() {
        let db = db_with_edges();
        // Dead-end edges: no outgoing edge from dst.
        let rows = db
            .query(
                "SELECT e1.src, e1.dst FROM edge e1 LEFT JOIN edge e2 ON e1.dst = e2.src \
                 WHERE e2.src IS NULL",
            )
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(3)]]);
    }

    #[test]
    fn update_and_delete() {
        let db = db_with_edges();
        let r = db.execute("UPDATE edge SET weight = weight * 10 WHERE src = 0").unwrap();
        assert_eq!(r.affected(), 2);
        let w = db.query_scalar("SELECT SUM(weight) FROM edge WHERE src = 0").unwrap();
        assert_eq!(w, Value::Float(30.0));

        let r = db.execute("DELETE FROM edge WHERE src = 2").unwrap();
        assert_eq!(r.affected(), 2);
        assert_eq!(db.query_int("SELECT COUNT(*) FROM edge").unwrap(), 3);
    }

    #[test]
    fn unqualified_delete_truncates() {
        let db = db_with_edges();
        let r = db.execute("DELETE FROM edge").unwrap();
        assert_eq!(r.affected(), 5);
        assert_eq!(db.query_int("SELECT COUNT(*) FROM edge").unwrap(), 0);
    }

    #[test]
    fn ctas_and_insert_select() {
        let db = db_with_edges();
        db.execute("CREATE TABLE hot AS SELECT src, dst FROM edge WHERE weight >= 3.0").unwrap();
        assert_eq!(db.query_int("SELECT COUNT(*) FROM hot").unwrap(), 3);
        db.execute("INSERT INTO hot SELECT src, dst FROM edge WHERE weight < 3.0").unwrap();
        assert_eq!(db.query_int("SELECT COUNT(*) FROM hot").unwrap(), 5);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = db_with_edges();
        db.execute("INSERT INTO edge (src, dst) VALUES (9, 9)").unwrap();
        let rows = db.query("SELECT weight FROM edge WHERE src = 9").unwrap();
        assert_eq!(rows[0][0], Value::Null);
    }

    #[test]
    fn union_all_end_to_end() {
        let db = db_with_edges();
        let n = db
            .query_int(
                "SELECT COUNT(*) FROM (SELECT src FROM edge UNION ALL SELECT dst FROM edge) u",
            )
            .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn cte_end_to_end() {
        let db = db_with_edges();
        let rows = db
            .query(
                "WITH outdeg AS (SELECT src, COUNT(*) AS d FROM edge GROUP BY src) \
                 SELECT src FROM outdeg WHERE d = 2 ORDER BY src",
            )
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)], vec![Value::Int(2)]]);
    }

    #[test]
    fn scalar_udf_registration() {
        let db = db_with_edges();
        db.register_scalar(ScalarFunction {
            name: "plus_one",
            return_type: |_| Ok(DataType::Float),
            eval: |args| Ok(Value::Float(args[0].as_float().unwrap_or(0.0) + 1.0)),
        });
        let v = db.query_scalar("SELECT plus_one(weight) FROM edge WHERE src = 1").unwrap();
        assert_eq!(v, Value::Float(4.0));
    }

    #[test]
    fn stored_procedure_roundtrip() {
        let db = db_with_edges();
        db.register_procedure(
            "edge_count",
            Arc::new(|db, _args| {
                let n = db.query_int("SELECT COUNT(*) FROM edge")?;
                Ok(Value::Int(n))
            }),
        );
        assert_eq!(db.call_procedure("edge_count", &[]).unwrap(), Value::Int(5));
        assert!(db.call_procedure("ghost", &[]).is_err());
    }

    #[test]
    fn case_and_functions_end_to_end() {
        let db = db_with_edges();
        let rows = db
            .query(
                "SELECT dst, CASE WHEN weight >= 4.0 THEN 'heavy' ELSE 'light' END AS klass \
                 FROM edge WHERE src = 2 ORDER BY dst",
            )
            .unwrap();
        assert_eq!(rows[0][1], Value::Str("heavy".into()));
        assert_eq!(rows[1][1], Value::Str("heavy".into()));
        let v = db.query_scalar("SELECT SQRT(16.0)").unwrap();
        assert_eq!(v, Value::Float(4.0));
    }

    #[test]
    fn error_on_missing_table() {
        let db = Database::new();
        assert!(db.query("SELECT * FROM ghost").is_err());
    }

    #[test]
    fn drop_table_semantics() {
        let db = db_with_edges();
        db.execute("DROP TABLE IF EXISTS ghost").unwrap();
        assert!(db.execute("DROP TABLE ghost").is_err());
        db.execute("DROP TABLE edge").unwrap();
        assert!(db.query("SELECT * FROM edge").is_err());
    }

    #[test]
    fn distinct_end_to_end() {
        let db = db_with_edges();
        let n = db.query("SELECT DISTINCT src FROM edge").unwrap();
        assert_eq!(n.len(), 3);
    }

    /// Identity transform that tags each output batch with the partition's
    /// first value and records which thread executed it.
    struct Tagger {
        threads: Mutex<std::collections::HashSet<std::thread::ThreadId>>,
        delay: std::time::Duration,
    }

    impl Tagger {
        fn new(delay_ms: u64) -> Arc<Self> {
            Arc::new(Tagger {
                threads: Mutex::new(std::collections::HashSet::new()),
                delay: std::time::Duration::from_millis(delay_ms),
            })
        }
    }

    impl crate::udf::TransformUdf for Tagger {
        fn name(&self) -> &str {
            "tagger"
        }

        fn output_schema(
            &self,
            input: &vertexica_storage::Schema,
        ) -> SqlResult<Arc<vertexica_storage::Schema>> {
            Ok(Arc::new(input.clone()))
        }

        fn execute(&self, partition: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
            self.threads.lock().insert(std::thread::current().id());
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(partition)
        }
    }

    /// One single-column int chunk per element of `chunks`.
    fn int_chunks(chunks: &[Vec<i64>]) -> Vec<RecordBatch> {
        let schema =
            vertexica_storage::Schema::new(vec![vertexica_storage::Field::new("x", DataType::Int)]);
        chunks
            .iter()
            .map(|c| {
                let rows: Vec<Vec<Value>> = c.iter().map(|&v| vec![Value::Int(v)]).collect();
                RecordBatch::from_rows(schema.clone(), &rows).unwrap()
            })
            .collect()
    }

    /// The expected-rows plan for `chunks` hashed on column 0.
    fn chunk_plan(chunks: &[RecordBatch], parts: usize) -> Vec<u64> {
        let mut plan = vec![0u64; parts];
        for assign in vertexica_storage::partition::partition_assignments(chunks, &[0], parts) {
            for p in assign {
                plan[p] += 1;
            }
        }
        plan
    }

    /// Runs the pipelined path over `chunks` and returns (report, outputs
    /// keyed by partition index, canonicalized).
    #[allow(clippy::type_complexity)]
    fn run_pipelined(
        db: &Database,
        udf: &Arc<dyn TransformUdf>,
        chunks: Vec<RecordBatch>,
        parts: usize,
        plan: Option<Vec<u64>>,
    ) -> SqlResult<(PipelinedReport, Vec<(usize, Vec<i64>)>)> {
        let seen = Mutex::new(Vec::new());
        let report = db.run_transform_pipelined(
            udf,
            vec![0],
            parts,
            plan,
            &mut |sink| {
                for c in chunks.clone() {
                    sink(c)?;
                }
                Ok(0)
            },
            &|idx, out| {
                let mut vals: Vec<i64> =
                    out.iter().flat_map(|b| b.column(0).as_int().unwrap().to_vec()).collect();
                vals.sort_unstable();
                seen.lock().push((idx, vals));
                Ok(())
            },
        )?;
        let mut seen = seen.into_inner();
        seen.sort();
        Ok((report, seen))
    }

    #[test]
    fn sequential_fallback_delivers_partitions_in_index_order() {
        // One worker: scatter inline, then compute every partition on the
        // calling thread in partition order, whatever the hash put where.
        let db = Database::new();
        db.set_worker_threads(1);
        let udf: Arc<dyn TransformUdf> = Tagger::new(0);
        let order = Mutex::new(Vec::new());
        db.run_transform_pipelined(
            &udf,
            vec![0],
            12,
            None,
            &mut |sink| sink(int_chunks(&[(0..96).collect()]).remove(0)).map(|_| 0),
            &|idx, _| {
                order.lock().push(idx);
                Ok(())
            },
        )
        .unwrap();
        let order = order.into_inner();
        assert_eq!(order.len(), 12);
        assert!(order.windows(2).all(|w| w[0] < w[1]), "out of order: {order:?}");
    }

    #[test]
    fn worker_threads_one_is_sequential_and_equivalent() {
        let chunks = int_chunks(&[(0..64).collect(), (100..164).collect()]);

        let db = Database::new();
        db.set_worker_threads(1);
        assert_eq!(db.worker_threads(), 1);
        let seq_udf = Tagger::new(0);
        let seq: Arc<dyn TransformUdf> = seq_udf.clone();
        let (_, out_seq) = run_pipelined(&db, &seq, chunks.clone(), 8, None).unwrap();
        // Sequential fallback runs inline on the calling thread.
        let seq_threads = seq_udf.threads.lock().clone();
        assert_eq!(seq_threads.len(), 1);
        assert!(seq_threads.contains(&std::thread::current().id()));

        db.set_worker_threads(8);
        let par: Arc<dyn TransformUdf> = Tagger::new(1);
        let (_, out_par) = run_pipelined(&db, &par, chunks, 8, None).unwrap();
        assert_eq!(out_seq, out_par);
    }

    #[test]
    fn pool_is_reused_across_transform_invocations() {
        // The crossbeam-scope predecessor spawned fresh threads per call;
        // the shared runtime must execute every superstep on the same small
        // set of persistent workers.
        let db = Database::new();
        db.set_worker_threads(3);
        let udf_impl = Tagger::new(1);
        let udf: Arc<dyn TransformUdf> = udf_impl.clone();
        for _ in 0..5 {
            run_pipelined(&db, &udf, int_chunks(&[(0..90).collect()]), 9, None).unwrap();
        }
        let distinct = udf_impl.threads.lock().len();
        assert!(
            distinct <= 3,
            "5 invocations × 9 partitions ran on {distinct} distinct threads; \
             a persistent pool of 3 must not spawn per call"
        );
    }

    #[test]
    fn streamed_sink_sees_every_partition_exactly_once() {
        let db = Database::new();
        db.set_worker_threads(4);
        let udf: Arc<dyn TransformUdf> = Tagger::new(1);
        let (_, seen) =
            run_pipelined(&db, &udf, int_chunks(&[(0..100).collect()]), 10, None).unwrap();
        let indices: Vec<usize> = seen.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(indices, (0..10).collect::<Vec<_>>(), "one delivery per partition");
        let mut rows: Vec<i64> = seen.into_iter().flat_map(|(_, vals)| vals).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn streamed_sink_error_propagates() {
        // A sink failing on a partition dispatched by its seal (a planned
        // run) fails the run, at every pool size.
        let chunks = int_chunks(&[(0..32).collect(), (32..64).collect()]);
        for workers in [1usize, 4] {
            let db = Database::new();
            db.set_worker_threads(workers);
            let udf: Arc<dyn TransformUdf> = Tagger::new(0);
            let err = db
                .run_transform_pipelined(
                    &udf,
                    vec![0],
                    6,
                    Some(chunk_plan(&chunks, 6)),
                    &mut |sink| chunks.iter().try_for_each(|c| sink(c.clone())).map(|_| 0),
                    &|_, _| Err(SqlError::Udf("sink rejects".into())),
                )
                .unwrap_err();
            assert!(err.to_string().contains("sink rejects"), "workers={workers}: {err}");
        }
    }

    #[test]
    fn pipelined_run_matches_materialized_partitioning() {
        // The pipelined dataflow must deliver, per partition, exactly the
        // rows the one-shot hash partitioning assigns it — at every pool
        // size including the sequential fallback, with and without a plan.
        let chunks = int_chunks(&[
            (0..40).collect::<Vec<i64>>(),
            (40..55).collect(),
            vec![],
            (55..97).collect(),
        ]);
        let parts = 6;
        let reference: Vec<(usize, Vec<i64>)> = {
            let parted =
                vertexica_storage::partition::hash_partition(&chunks, &[0], parts).unwrap();
            parted
                .iter()
                .enumerate()
                .filter(|(_, bs)| bs.iter().any(|b| b.num_rows() > 0))
                .map(|(i, bs)| {
                    let mut vals: Vec<i64> =
                        bs.iter().flat_map(|b| b.column(0).as_int().unwrap().to_vec()).collect();
                    vals.sort_unstable();
                    (i, vals)
                })
                .collect()
        };
        for workers in [1usize, 4] {
            for planned in [true, false] {
                let db = Database::new();
                db.set_worker_threads(workers);
                let udf: Arc<dyn TransformUdf> = Tagger::new(0);
                let plan = planned.then(|| chunk_plan(&chunks, parts));
                let (report, seen) = run_pipelined(&db, &udf, chunks.clone(), parts, plan).unwrap();
                assert_eq!(seen, reference, "workers={workers} planned={planned}");
                assert!(report.input_bytes > 0);
                assert!(report.peak_chunk_bytes <= report.input_bytes);
            }
        }
    }

    #[test]
    fn pipelined_plan_dispatches_before_assemble_finishes() {
        // Each chunk holds keys of a single partition. The producer emits
        // every chunk but the last, then blocks until the sink has received
        // a partition's output: that can only happen if a sealed partition
        // was dispatched while the stream was still open. No timing is
        // involved, only a timeout so a broken dispatcher fails instead of
        // hanging.
        let parts = 4;
        let mut per_part: Vec<Vec<i64>> = vec![Vec::new(); parts];
        let mut k = 0i64;
        while per_part.iter().any(|v| v.len() < 8) {
            per_part[vertexica_storage::partition::int_key_partition(k, parts)].push(k);
            k += 1;
        }
        let chunks = int_chunks(&per_part);
        let plan = chunk_plan(&chunks, parts);

        let db = Database::new();
        db.set_worker_threads(4);
        let udf: Arc<dyn TransformUdf> = Tagger::new(1);
        let (delivered, arrivals) = std::sync::mpsc::channel::<usize>();
        let delivered = Mutex::new(delivered);
        let mut sealed_before_last_chunk = None;
        let report = db
            .run_transform_pipelined(
                &udf,
                vec![0],
                parts,
                Some(plan),
                &mut |sink| {
                    let (last, early) = chunks.split_last().unwrap();
                    for c in early {
                        sink(c.clone())?;
                    }
                    sealed_before_last_chunk =
                        arrivals.recv_timeout(std::time::Duration::from_secs(30)).ok();
                    sink(last.clone())?;
                    Ok(0)
                },
                &|idx, _| {
                    // The receiver outlives the run; a send cannot fail.
                    let _ = delivered.lock().send(idx);
                    Ok(())
                },
            )
            .unwrap();
        let idx = sealed_before_last_chunk.expect("no sealed partition reached the sink in 30 s");
        assert!(idx < parts - 1, "partition {idx} cannot seal before the last chunk");
        assert_eq!(report.early_dispatches, parts, "every planned partition seals: {report:?}");
        assert!(report.overlap_secs > 0.0, "a compute ran inside the assemble window: {report:?}");
        // At most four (the pool size) compute tasks overlap the window at once.
        assert!(report.overlap_secs <= report.compute_secs * 4.0, "{report:?}");
    }

    #[test]
    fn pipelined_report_carries_producer_resident_gauge() {
        // Whatever peak-resident-source-bytes gauge the producer returns
        // must surface verbatim on the report, at every pool size.
        let chunks = int_chunks(&[(0..16).collect::<Vec<i64>>()]);
        for workers in [1usize, 4] {
            let db = Database::new();
            db.set_worker_threads(workers);
            let udf: Arc<dyn TransformUdf> = Tagger::new(0);
            let report = db
                .run_transform_pipelined(
                    &udf,
                    vec![0],
                    2,
                    None,
                    &mut |sink| {
                        for c in chunks.clone() {
                            sink(c)?;
                        }
                        Ok(7777)
                    },
                    &|_, _| Ok(()),
                )
                .unwrap();
            assert_eq!(report.peak_resident_scan_bytes, 7777, "workers={workers}");
        }
    }

    #[test]
    fn pipelined_without_plan_dispatches_only_at_drain() {
        let chunks = int_chunks(&[(0..64).collect::<Vec<i64>>()]);
        let db = Database::new();
        db.set_worker_threads(4);
        let udf: Arc<dyn TransformUdf> = Tagger::new(0);
        let (report, seen) = run_pipelined(&db, &udf, chunks, 4, None).unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(report.early_dispatches, 0, "open-ended sources never seal early");
    }

    #[test]
    fn pipelined_udf_and_sink_errors_propagate() {
        struct Failing;
        impl crate::udf::TransformUdf for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn output_schema(
                &self,
                input: &vertexica_storage::Schema,
            ) -> SqlResult<Arc<vertexica_storage::Schema>> {
                Ok(Arc::new(input.clone()))
            }
            fn execute(&self, _p: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
                Err(SqlError::Udf("pipelined udf failure".into()))
            }
        }
        let chunks = int_chunks(&[(0..32).collect::<Vec<i64>>()]);
        for workers in [1usize, 4] {
            let db = Database::new();
            db.set_worker_threads(workers);
            let udf: Arc<dyn TransformUdf> = Arc::new(Failing);
            let err = run_pipelined(&db, &udf, chunks.clone(), 4, None).unwrap_err();
            assert!(err.to_string().contains("pipelined udf failure"), "workers={workers}");

            let ok: Arc<dyn TransformUdf> = Tagger::new(0);
            let err = db
                .run_transform_pipelined(
                    &ok,
                    vec![0],
                    4,
                    None,
                    &mut |sink| {
                        for c in chunks.clone() {
                            sink(c)?;
                        }
                        Ok(0)
                    },
                    &|_, _| Err(SqlError::Udf("pipelined sink failure".into())),
                )
                .unwrap_err();
            assert!(err.to_string().contains("pipelined sink failure"), "workers={workers}");
        }
    }

    #[test]
    fn pipelined_mismatched_plan_is_an_error() {
        // A plan that understates a partition's rows means a compute task
        // could have started on truncated input — loud failure required.
        let chunks = int_chunks(&[(0..64).collect::<Vec<i64>>()]);
        let parts = 4;
        let mut plan = chunk_plan(&chunks, parts);
        let victim = plan.iter().position(|&n| n > 1).unwrap();
        plan[victim] -= 1;
        let db = Database::new();
        db.set_worker_threads(4);
        let udf: Arc<dyn TransformUdf> = Tagger::new(0);
        assert!(run_pipelined(&db, &udf, chunks, parts, Some(plan)).is_err());
    }

    #[test]
    fn pipelined_overstated_plan_is_an_error() {
        // The other direction: a plan promising rows that never arrive
        // would leave the partition to the end-of-stream drain — silently
        // masking the plan bug and forfeiting the pipelining — so the run
        // must fail loudly instead, at every pool size.
        let chunks = int_chunks(&[(0..64).collect::<Vec<i64>>()]);
        let parts = 4;
        let mut plan = chunk_plan(&chunks, parts);
        plan[0] += 1;
        for workers in [1usize, 4] {
            let db = Database::new();
            db.set_worker_threads(workers);
            let udf: Arc<dyn TransformUdf> = Tagger::new(0);
            let err =
                run_pipelined(&db, &udf, chunks.clone(), parts, Some(plan.clone())).unwrap_err();
            assert!(
                err.to_string().contains("plan violation"),
                "workers={workers}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn pipelined_producer_is_backpressured() {
        // A producer that can emit chunks much faster than busy workers
        // scatter them must be throttled: in-flight chunks stay bounded by
        // 2 × pool size, so queued chunks can never re-materialize the
        // input. Slow compute keeps both workers busy while the producer
        // races ahead.
        let many: Vec<Vec<i64>> = (0..48).map(|c| vec![c, c + 100, c + 200]).collect();
        let chunks = int_chunks(&many);
        let db = Database::new();
        db.set_worker_threads(2);
        let udf: Arc<dyn TransformUdf> = Tagger::new(2);
        let (report, seen) = run_pipelined(&db, &udf, chunks, 4, None).unwrap();
        assert_eq!(seen.iter().map(|(_, v)| v.len()).sum::<usize>(), 48 * 3);
        assert!(report.peak_inflight_chunks >= 1);
        assert!(
            report.peak_inflight_chunks <= 4,
            "producer outran the backpressure cap: {report:?}"
        );
    }

    #[test]
    fn skewed_partition_map_triggers_work_stealing() {
        // One giant slow partition plus many light ones, on a pool smaller
        // than the partition count: with per-worker deques the light
        // partitions pile up behind the slow worker's deque and must be
        // stolen by its idle siblings.
        let db = Database::new();
        db.set_worker_threads(2);
        let parts = 16;
        // 512 keys hashing to partition 0, then one key for each other
        // partition.
        let mut keys: Vec<i64> = (0..)
            .filter(|&k| vertexica_storage::partition::int_key_partition(k, parts) == 0)
            .take(512)
            .collect();
        keys.extend((1..parts).map(|p| {
            (0..).find(|&k| vertexica_storage::partition::int_key_partition(k, parts) == p).unwrap()
        }));
        let before = db.runtime().metrics();

        struct SlowFirst {
            inner: Arc<Tagger>,
        }
        impl crate::udf::TransformUdf for SlowFirst {
            fn name(&self) -> &str {
                "slow_first"
            }
            fn output_schema(
                &self,
                input: &vertexica_storage::Schema,
            ) -> SqlResult<Arc<vertexica_storage::Schema>> {
                self.inner.output_schema(input)
            }
            fn execute(&self, p: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
                if p.iter().map(|b| b.num_rows()).sum::<usize>() > 1 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                self.inner.execute(p)
            }
        }
        let slow: Arc<dyn TransformUdf> = Arc::new(SlowFirst { inner: Tagger::new(0) });
        let (_, seen) = run_pipelined(&db, &slow, int_chunks(&[keys]), parts, None).unwrap();
        assert_eq!(seen.len(), parts);
        let delta = db.runtime().metrics().delta_since(&before);
        // One scatter task for the single chunk, then one compute task per
        // partition.
        assert_eq!(delta.tasks_executed, parts as u64 + 1);
        assert!(delta.tasks_stolen > 0, "skewed partitions should force steals: {delta:?}");
    }

    #[test]
    fn transform_errors_propagate_without_panicking() {
        struct Failing;
        impl crate::udf::TransformUdf for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn output_schema(
                &self,
                input: &vertexica_storage::Schema,
            ) -> SqlResult<Arc<vertexica_storage::Schema>> {
                Ok(Arc::new(input.clone()))
            }
            fn execute(&self, _p: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
                Err(SqlError::Udf("deliberate failure".into()))
            }
        }
        let db = Database::new();
        db.set_worker_threads(4);
        let udf: Arc<dyn TransformUdf> = Arc::new(Failing);
        let err = run_pipelined(&db, &udf, int_chunks(&[(0..6).collect()]), 6, None).unwrap_err();
        assert!(err.to_string().contains("deliberate failure"));
    }

    #[test]
    fn transform_panic_propagates_to_caller() {
        struct Panicking;
        impl crate::udf::TransformUdf for Panicking {
            fn name(&self) -> &str {
                "panicking"
            }
            fn output_schema(
                &self,
                input: &vertexica_storage::Schema,
            ) -> SqlResult<Arc<vertexica_storage::Schema>> {
                Ok(Arc::new(input.clone()))
            }
            fn execute(&self, _p: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
                panic!("udf panic escapes the pool");
            }
        }
        let db = Database::new();
        db.set_worker_threads(4);
        let udf: Arc<dyn TransformUdf> = Arc::new(Panicking);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipelined(&db, &udf, int_chunks(&[(0..4).collect()]), 4, None)
        }));
        assert!(result.is_err(), "worker panic must reach the submitting thread");
        // The database (and its pool) stays usable afterwards.
        let ok: Arc<dyn TransformUdf> = Tagger::new(0);
        let (_, seen) = run_pipelined(&db, &ok, int_chunks(&[vec![7]]), 4, None).unwrap();
        assert_eq!(seen.into_iter().flat_map(|(_, vals)| vals).collect::<Vec<_>>(), vec![7]);
    }

    /// One table through the segment-write fast path: encode, then commit.
    fn replace_segmented(
        db: &Database,
        table: &str,
        batches: Vec<RecordBatch>,
    ) -> SqlResult<usize> {
        let segments = db.encode_segments_for(table, batches)?;
        db.commit_tables_segmented(vec![(table.to_string(), segments)])
    }

    #[test]
    fn replace_table_segmented_rebuilds_contents() {
        let db = db_with_edges();
        db.set_worker_threads(4);
        // Three segment batches, one of them empty.
        let schema = db.catalog().get("edge").unwrap().read().schema().clone();
        let seg1 = RecordBatch::from_rows(
            schema.clone(),
            &[vec![Value::Int(10), Value::Int(11), Value::Float(1.0)]],
        )
        .unwrap();
        let seg2 = RecordBatch::empty(schema.clone());
        let seg3 = RecordBatch::from_rows(
            schema.clone(),
            &[
                vec![Value::Int(20), Value::Int(21), Value::Float(2.0)],
                vec![Value::Int(30), Value::Int(31), Value::Float(3.0)],
            ],
        )
        .unwrap();
        let handle = db.catalog().get("edge").unwrap();
        let n = replace_segmented(&db, "edge", vec![seg1, seg2, seg3]).unwrap();
        assert_eq!(n, 3);
        // Old rows are gone, the handle observes the replacement, and the
        // non-empty batches became one segment each.
        assert_eq!(db.query_int("SELECT COUNT(*) FROM edge").unwrap(), 3);
        assert_eq!(db.query_int("SELECT COUNT(*) FROM edge WHERE src < 10").unwrap(), 0);
        assert_eq!(handle.read().num_segments(), 2);
    }

    #[test]
    fn replace_table_segmented_carries_block_zone_maps() {
        use vertexica_storage::BLOCK_ROWS;
        let db = Database::new();
        db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
        let schema = db.catalog().get("t").unwrap().read().schema().clone();
        let n = BLOCK_ROWS * 3;
        let rows: Vec<Vec<Value>> =
            (0..n).map(|i| vec![Value::Int(i as i64), Value::Int((i % 7) as i64)]).collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        assert_eq!(replace_segmented(&db, "t", vec![batch]).unwrap(), n);

        // The segment-parallel commit path must produce the same per-block
        // zone maps a bulk load would: k is sorted, so block b spans exactly
        // [b * BLOCK_ROWS, (b + 1) * BLOCK_ROWS).
        let handle = db.catalog().get("t").unwrap();
        {
            let guard = handle.read();
            let seg = guard.segments()[0].read().unwrap();
            assert_eq!(seg.num_blocks(), 3);
            for b in 0..seg.num_blocks() {
                let (start, len) = seg.block_range(b);
                let zm = seg.block_zone_map(0, b);
                assert_eq!(zm.min, Value::Int(start as i64));
                assert_eq!(zm.max, Value::Int((start + len - 1) as i64));
                assert_eq!(zm.null_count, 0);
            }
        }

        // A pushed-down point predicate then prunes the two non-matching
        // blocks inside the surviving segment.
        let before = handle.read().blocks_pruned();
        let probe = (BLOCK_ROWS + 5) as i64;
        let got = db.query_int(&format!("SELECT v FROM t WHERE k = {probe}")).unwrap();
        assert_eq!(got, probe % 7);
        let after = handle.read().blocks_pruned();
        assert_eq!(after - before, 2, "two of the three blocks should be zone-map-pruned");
    }

    #[test]
    fn replace_table_segmented_aborts_cleanly_on_bad_batch() {
        let db = db_with_edges();
        let bad_schema = vertexica_storage::Schema::new(vec![vertexica_storage::Field::new(
            "only",
            DataType::Int,
        )]);
        let bad = RecordBatch::from_rows(bad_schema, &[vec![Value::Int(1)]]).unwrap();
        assert!(replace_segmented(&db, "edge", vec![bad]).is_err());
        // Nothing committed: original contents intact.
        assert_eq!(db.query_int("SELECT COUNT(*) FROM edge").unwrap(), 5);
        assert!(db.commit_tables_segmented(vec![("ghost".into(), vec![])]).is_err());
    }

    #[test]
    fn order_by_aggregate_in_select() {
        let db = db_with_edges();
        let rows = db
            .query("SELECT src, COUNT(*) FROM edge GROUP BY src ORDER BY COUNT(*) DESC, src")
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[2][0], Value::Int(1));
    }
}
