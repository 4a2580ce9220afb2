//! The coordinator: a stored procedure that drives supersteps.
//!
//! "The coordinator is the driver program that manages the supersteps … We
//! implement the coordinator as a stored procedure; it runs as long as there
//! is any message for the next superstep" (§2.2). Each superstep:
//!
//! 1. assemble worker input ([`crate::input`], union or join mode) — by
//!    default **streamed** chunk-by-chunk straight into the partitioner, so
//!    the full table union never materializes; the static edge table stays
//!    out of it when the run reads edges from the session's
//!    [`crate::projection::EdgeProjection`], resolved once before superstep 0;
//! 2. hash-partition it on vertex id (vertex batching,
//!    [`vertexica_storage::partition::StreamingPartitioner`]);
//! 3. run worker UDFs in parallel, one per partition, on the **shared
//!    runtime pool** ([`vertexica_common::runtime::WorkerPool`]) owned by
//!    the `Database` — the same persistent threads every superstep, resized
//!    once per run to `num_workers`, with per-worker deques and work
//!    stealing smoothing out skewed partitions;
//! 4. apply outputs via update-vs-replace ([`crate::apply`]) — streamed
//!    execution folds each partition's output into the accumulator as the
//!    partition finishes;
//! 5. synchronization barrier, aggregator exchange, halt check.
//!
//! By default steps 1–3 are **fully pipelined**
//! ([`vertexica_sql::Database::run_transform_pipelined`]): a key-column
//! prescan ([`crate::input::partition_row_plan`]) tells each partition how
//! many rows it will receive, assemble chunks are scattered by pool tasks,
//! and a partition's worker UDF launches the moment its last row lands —
//! while assemble is still streaming later chunks. The overlap actually
//! achieved is reported per superstep as
//! [`SuperstepStats::overlap_secs`].
//!
//! Each superstep's [`SuperstepStats`] carries the pipeline's observability:
//! pool queue-wait, steal and nested-scope counts, compute/assemble overlap,
//! plus peak/total in-flight input bytes.
//! `VertexicaConfig::with_pipelined(false)` restores the phased streaming
//! pipeline and `VertexicaConfig::with_streaming(false)` the original
//! materialize-everything pipeline (both kept for ablations and equivalence
//! tests).

use std::sync::Arc;
use vertexica_common::sync::Mutex;

use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{InitContext, VertexProgram};
use vertexica_common::timer::Stopwatch;
use vertexica_common::VertexData;
use vertexica_sql::TransformUdf;
use vertexica_storage::partition::{hash_partition, StreamingPartitioner};
use vertexica_storage::{ColumnBuilder, DataType, RecordBatch, Value};

use crate::apply::{
    apply_accumulated, apply_outputs, apply_parallel, OutputAccumulator, ParallelApply,
};
use crate::config::VertexicaConfig;
use crate::error::{VertexicaError, VertexicaResult};
use crate::input::{assemble, assemble_chunks};
use crate::projection::EdgeProjection;
use crate::session::{vertex_schema, GraphSession};
use crate::worker::VertexWorker;

/// Per-superstep observability.
#[derive(Debug, Clone)]
pub struct SuperstepStats {
    /// Superstep number (0-based).
    pub superstep: u64,
    /// Messages delivered into the next superstep.
    pub messages: usize,
    /// Vertices whose value or halt state changed.
    pub vertex_changes: usize,
    /// Whether the vertex table was replaced (vs updated in place).
    pub replaced: bool,
    /// Wall-clock seconds assembling + partitioning worker input.
    pub assemble_secs: f64,
    /// Wall-clock seconds running worker UDFs (streaming mode also absorbs
    /// outputs in this window).
    pub compute_secs: f64,
    /// Wall-clock seconds applying outputs (table writes, halt check).
    pub apply_secs: f64,
    /// Width of the apply fan-out: segment buckets built in parallel on the
    /// pool (1 when the serial one-shot SQL apply path ran).
    pub apply_parallelism: usize,
    /// Seconds worker-UDF compute tasks ran **while assemble was still
    /// streaming chunks** — the overlap the pipelined dataflow exists to
    /// create. Zero for the phased pipelines (`pipelined`/`streaming` off)
    /// and on a single-worker pool (nothing is concurrent).
    pub overlap_secs: f64,
    /// Cumulative seconds this superstep's pool tasks spent queued before a
    /// worker picked them up (from [`vertexica_common::runtime::PoolMetrics`]).
    pub queue_wait_secs: f64,
    /// Pool tasks this superstep obtained by work stealing.
    pub steals: u64,
    /// Scopes entered from inside a pool task this superstep (nested
    /// parallelism, e.g. a big partition's worker sorting its input on the
    /// pool), from [`vertexica_common::runtime::PoolMetrics::nested_scopes`].
    pub nested_scopes: u64,
    /// Largest single in-flight input batch, in estimated bytes. Streaming
    /// keeps this far below [`input_bytes`](Self::input_bytes); the
    /// materialized pipeline holds the whole input at once, so there the two
    /// are equal.
    pub peak_batch_bytes: usize,
    /// Total assembled worker input for this superstep, in estimated bytes.
    pub input_bytes: usize,
    /// The most un-emitted **source-scan** data assemble ever held at once,
    /// in estimated bytes. With pull-based scan cursors (the
    /// `streaming_scan` default) this is one in-flight batch per source —
    /// strictly below [`input_bytes`](Self::input_bytes) on any multi-batch
    /// input; the eager scan ablation holds whole tables, and the
    /// materialized pipeline the whole input.
    pub peak_resident_scan_bytes: usize,
    /// Compute partitions dispatched by a **seal** — their last planned row
    /// landed while assemble was still streaming — as opposed to the
    /// end-of-stream drain. Nonzero only for the pipelined dataflow on a
    /// multi-worker pool; with the join-mode row plan, the 3-way-join input
    /// seals partitions too.
    pub early_dispatches: usize,
    /// Write-ahead-log records appended during this superstep (zero on a
    /// non-durable database). The grouped apply commit contributes exactly
    /// one commit record regardless of how many tables it swapped.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log during this superstep,
    /// including frame headers (zero on a non-durable database).
    pub wal_bytes: u64,
    /// Bytes of table images flushed to segment files during this superstep
    /// — the grouped apply commit writes each swapped table's full physical
    /// image (zero on a non-durable database).
    pub flush_bytes: u64,
    /// Peak bytes of ROS segments resident in the storage buffer pool during
    /// this superstep. With a [`memory
    /// budget`](crate::VertexicaConfig::memory_budget_bytes) configured this
    /// stays at or below the budget (modulo the unevictable pinned/dirty
    /// working set); unbounded runs simply report the high-water mark.
    pub resident_bytes: u64,
    /// Cold ROS segments evicted from the buffer pool to disk twins during
    /// this superstep (zero without a memory budget).
    pub evictions: u64,
    /// Evicted ROS segments reloaded from their `.vxtb` spill images because
    /// a scan pinned them during this superstep (zero without a memory
    /// budget).
    pub reloads: u64,
    /// Messages routed to a *different* shard through a cross-shard outbox
    /// this superstep. Always zero on a single-database run; on a
    /// [`crate::shard::ShardedDatabase`] run the sharded coordinator sums
    /// every shard's outbound count.
    pub remote_messages: u64,
    /// Estimated bytes of cross-shard rows pushed through outboxes this
    /// superstep (zero on a single-database run).
    pub routed_bytes: u64,
    /// Shard load skew: max/mean worker-input rows across shards (1.0 for a
    /// single-database run or a perfectly balanced shard set).
    pub shard_skew: f64,
}

/// Whole-run observability.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Supersteps executed by this run.
    pub supersteps: u64,
    /// Total wall-clock seconds, including initialization.
    pub total_secs: f64,
    /// Messages delivered across all supersteps.
    pub total_messages: u64,
    /// Per-superstep breakdown, in execution order.
    pub per_superstep: Vec<SuperstepStats>,
    /// Final aggregator values.
    pub aggregates: FxHashMap<String, f64>,
    /// Seconds this run spent building the session's
    /// [`EdgeProjection`] before superstep 0: the one-off cost of the first
    /// run after a load or an edge mutation. 0.0 when the cached projection
    /// was still current, and when the run streams edge rows instead
    /// (budgeted or 3-way-join runs). Included in
    /// [`total_secs`](Self::total_secs).
    pub projection_build_secs: f64,
    /// Heap bytes of the projection the run read its edges from (0 when it
    /// streamed edge rows) — memory held outside the buffer pool.
    pub projection_bytes: usize,
}

/// Initializes the vertex table with the program's initial values (and
/// halted=false), and clears the message table.
pub fn initialize_vertices<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
) -> VertexicaResult<u64> {
    let n = session.num_vertices()?;
    initialize_vertices_with_total(session, program, n, Vec::new(), None)?;
    Ok(n)
}

/// `(id, out-degree)` of every vertex-table row, ascending by id. With the
/// run's edge projection at hand only the vertex id column is scanned and
/// each degree is the length of the vertex's CSR range; without one, the
/// relational [`GraphSession::out_degrees`].
fn vertex_degrees(
    session: &GraphSession,
    edges: Option<&EdgeProjection>,
) -> VertexicaResult<Vec<(vertexica_common::VertexId, u64)>> {
    let Some(edges) = edges else { return session.out_degrees() };
    let mut ids: Vec<i64> = Vec::new();
    let mut cursor = session.db().scan_cursor(&session.vertex_table(), Some(&[0]), &[])?;
    while let Some(batch) = cursor.next_batch()? {
        let column = batch
            .column(0)
            .as_int()
            .ok_or_else(|| VertexicaError::Runtime("vertex table: id is not BIGINT".into()))?;
        ids.extend_from_slice(column);
    }
    // The relational form groups and orders by id.
    ids.sort_unstable();
    ids.dedup();
    Ok(ids.into_iter().map(|id| (id as u64, edges.out_edges(id as u64).len() as u64)).collect())
}

/// [`initialize_vertices`] with the *global* vertex count supplied by the
/// caller. A shard of a [`crate::shard::ShardedDatabase`] holds only its own
/// vertices, but `InitContext::num_vertices` (e.g. PageRank's `1/N` seed)
/// must reflect the whole graph — so the sharded coordinator passes the
/// cross-shard total while each shard initializes just its local rows.
/// Out-degrees are computed locally, which is exact because every vertex's
/// outbound edges are colocated with it by the ownership hash — from `edges`
/// when the run has a projection (`vertex_degrees`).
///
/// `extra` rides the same grouped catalog commit as the vertex/message
/// initialization — the sharded coordinator passes its freshly stamped
/// shard-meta table here so a crash can never separate an initialized graph
/// from its superstep stamp.
pub(crate) fn initialize_vertices_with_total<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    num_vertices: u64,
    extra: Vec<(String, vertexica_storage::Table)>,
    edges: Option<&EdgeProjection>,
) -> VertexicaResult<()> {
    let degrees = vertex_degrees(session, edges)?;
    let n = num_vertices;
    let mut ids = ColumnBuilder::with_capacity(DataType::Int, degrees.len());
    let mut values = ColumnBuilder::with_capacity(DataType::Blob, degrees.len());
    let mut halted = ColumnBuilder::with_capacity(DataType::Bool, degrees.len());
    for (id, deg) in &degrees {
        let init = InitContext { num_vertices: n, out_degree: *deg };
        let v = program.initial_value(*id, &init);
        ids.push_int(*id as i64);
        values.push_blob_with(|buf| v.encode(buf));
        halted.push(Value::Bool(false)).map_err(VertexicaError::from)?;
    }
    let batch =
        RecordBatch::new(vertex_schema(), vec![ids.finish(), values.finish(), halted.finish()])
            .map_err(VertexicaError::from)?;

    // Swap in freshly built vertex/message contents as ONE grouped catalog
    // commit (not truncate-then-append): on a durable database both tables
    // ride a single atomic WAL commit record, so recovery can never land
    // between an emptied vertex table and its initialization.
    let catalog = session.db().catalog();
    let mut replacements = Vec::with_capacity(2);
    for (name, init) in [(session.vertex_table(), Some(&batch)), (session.message_table(), None)] {
        let table_ref = catalog.get(&name)?;
        let (tname, schema, options) = {
            let guard = table_ref.read();
            (guard.name().to_string(), guard.schema().clone(), guard.options().clone())
        };
        let mut fresh = vertexica_storage::Table::new(tname, schema, options);
        if let Some(batch) = init {
            fresh.append_batch(batch)?;
        }
        replacements.push((name, fresh));
    }
    replacements.extend(extra);
    catalog.replace_contents_many(replacements)?;
    Ok(())
}

/// Runs a vertex program to completion on a graph session.
pub fn run_program<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    let total = Stopwatch::start();
    // Size the shared runtime pool once for the whole run; every superstep
    // reuses the same worker threads. Expression kernels are a process-wide
    // switch — applying it here is safe because both paths are bitwise
    // identical.
    vertexica_sql::expr::set_vectorized_expr(config.vectorized_expr);
    session.db().runtime().resize(config.num_workers);
    // Apply the out-of-core budget before the first checkpoint: the
    // checkpoint gives every cold segment a `.vxtb` spill twin, after which
    // the pool can evict down to the budget.
    if let Some(budget) = config.memory_budget_bytes {
        session.db().catalog().buffer_pool().set_budget(Some(budget));
    }
    let (edges, projection_build_secs) = crate::projection::for_run(session, config)?;
    let num_vertices = session.num_vertices()?;
    initialize_vertices_with_total(
        session,
        program.as_ref(),
        num_vertices,
        Vec::new(),
        edges.as_deref(),
    )?;
    if config.durable {
        // Flush the freshly initialized vertex/message tables so recovery
        // from a crash in superstep 0 starts from the initialized state
        // instead of replaying graph loading.
        session.db().checkpoint()?;
    }
    let mut stats =
        superstep_loop(session, program, config, num_vertices, 0, FxHashMap::default(), edges)?;
    if config.durable {
        // Land the final state in segment files and truncate the log.
        session.db().checkpoint()?;
    }
    stats.projection_build_secs = projection_build_secs;
    stats.total_secs = total.elapsed_secs();
    Ok(stats)
}

/// Resumes a run from a checkpoint previously written by the coordinator
/// (requires `config.checkpoint_dir`).
pub fn resume_program<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    let dir = config
        .checkpoint_dir
        .as_ref()
        .ok_or_else(|| VertexicaError::Checkpoint("no checkpoint_dir configured".into()))?;
    let total = Stopwatch::start();
    vertexica_sql::expr::set_vectorized_expr(config.vectorized_expr);
    session.db().runtime().resize(config.num_workers);
    if let Some(budget) = config.memory_budget_bytes {
        session.db().catalog().buffer_pool().set_budget(Some(budget));
    }
    let state = crate::checkpoint::restore(session, dir)?;
    let (edges, projection_build_secs) = crate::projection::for_run(session, config)?;
    let num_vertices = session.num_vertices()?;
    let mut stats = superstep_loop(
        session,
        program,
        config,
        num_vertices,
        state.superstep + 1,
        state.aggregates,
        edges,
    )?;
    if config.durable {
        session.db().checkpoint()?;
    }
    stats.projection_build_secs = projection_build_secs;
    stats.total_secs = total.elapsed_secs();
    Ok(stats)
}

/// Wall-clock phases and byte accounting of one superstep's
/// assemble/partition/compute stages. In the pipelined shape
/// `assemble_secs` and `compute_secs` overlap by construction;
/// `overlap_secs` says by how much.
struct ExecProfile {
    assemble_secs: f64,
    compute_secs: f64,
    overlap_secs: f64,
    input_bytes: usize,
    peak_batch_bytes: usize,
    peak_resident_scan_bytes: usize,
    early_dispatches: usize,
}

/// Runs one streaming superstep's assemble → partition → compute stages,
/// delivering each partition's worker output to `sink` as the partition
/// finishes.
///
/// With `config.pipelined` this is the fully overlapped dataflow
/// ([`vertexica_sql::Database::run_transform_pipelined`]): the key-column
/// prescan plans per-partition completion, chunks are scattered by pool
/// tasks, and sealed partitions start computing while assemble still
/// streams. Without it, the phased form: scatter every chunk on this
/// thread, then compute all partitions.
fn run_streaming_compute(
    session: &GraphSession,
    config: &VertexicaConfig,
    worker: &Arc<dyn TransformUdf>,
    edge_rows: bool,
    sink: &(dyn Fn(usize, Vec<vertexica_storage::RecordBatch>) -> vertexica_sql::SqlResult<()>
          + Sync),
) -> VertexicaResult<ExecProfile> {
    let num_partitions = config.num_partitions.max(1);
    if config.pipelined {
        let plan = crate::input::partition_row_plan(
            session,
            config.input_mode,
            num_partitions,
            edge_rows,
        )?;
        let report = session.db().run_transform_pipelined(
            worker,
            vec![0],
            num_partitions,
            plan,
            &mut |chunk_sink| {
                assemble_chunks(
                    session,
                    config.input_mode,
                    config.stream_chunk_rows,
                    config.streaming_scan,
                    edge_rows,
                    &mut |chunk| chunk_sink(chunk).map_err(VertexicaError::from),
                )
                .map_err(|e| match e {
                    VertexicaError::Sql(e) => e,
                    other => vertexica_sql::SqlError::Execution(other.to_string()),
                })
            },
            sink,
        )?;
        return Ok(ExecProfile {
            assemble_secs: report.assemble_secs,
            compute_secs: report.compute_secs,
            overlap_secs: report.overlap_secs,
            input_bytes: report.input_bytes,
            peak_batch_bytes: report.peak_chunk_bytes,
            peak_resident_scan_bytes: report.peak_resident_scan_bytes,
            early_dispatches: report.early_dispatches,
        });
    }
    let sw = Stopwatch::start();
    let mut partitioner = StreamingPartitioner::new(vec![0], num_partitions);
    let mut total = 0usize;
    let mut peak = 0usize;
    let peak_resident_scan_bytes = assemble_chunks(
        session,
        config.input_mode,
        config.stream_chunk_rows,
        config.streaming_scan,
        edge_rows,
        &mut |chunk| {
            let bytes = chunk.estimated_bytes();
            total += bytes;
            peak = peak.max(bytes);
            partitioner.push(&chunk).map_err(VertexicaError::from)
        },
    )?;
    let partitions = partitioner.finish();
    let assemble_secs = sw.elapsed_secs();
    let sw = Stopwatch::start();
    session.db().run_transform_streamed(worker, partitions, sink)?;
    Ok(ExecProfile {
        assemble_secs,
        compute_secs: sw.elapsed_secs(),
        overlap_secs: 0.0,
        input_bytes: total,
        peak_batch_bytes: peak,
        peak_resident_scan_bytes,
        early_dispatches: 0,
    })
}

fn superstep_loop<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
    num_vertices: u64,
    start_superstep: u64,
    mut prev_aggregates: FxHashMap<String, f64>,
    edges: Option<Arc<EdgeProjection>>,
) -> VertexicaResult<RunStats> {
    let mut stats = RunStats {
        projection_bytes: edges.as_ref().map_or(0, |e| e.estimated_bytes()),
        ..RunStats::default()
    };
    let edge_rows = edges.is_none();
    let max_supersteps = config.max_supersteps.min(program.max_supersteps());
    let mut superstep = start_superstep;

    loop {
        if superstep >= max_supersteps {
            break;
        }
        // Termination: stop when no messages are pending and every vertex
        // has halted. Within a run the previous superstep's outcome already
        // says so (the break at the loop bottom); only a *resumed* run has
        // to ask the tables, once, for the state it restored.
        if superstep == start_superstep && start_superstep > 0 {
            let pending = session
                .db()
                .query_int(&format!("SELECT COUNT(*) FROM {}", session.message_table()))?;
            let active = session.db().query_int(&format!(
                "SELECT COUNT(*) FROM {} WHERE halted = FALSE",
                session.vertex_table()
            ))?;
            if pending == 0 && active == 0 {
                break;
            }
        }

        // 1–3. Assemble, partition and compute; 4. apply. Three execution
        // shapes share the apply sinks:
        //
        // * **pipelined** (default): assemble chunks are scattered by pool
        //   tasks and each partition's worker UDF launches the moment the
        //   partition seals — assemble and compute genuinely overlap;
        // * **streamed** (`pipelined` off): assemble scatters into the
        //   partitioner on this thread, then all partitions compute;
        // * **materialized** (`streaming` off): the original
        //   assemble-then-partition-then-compute sequence.
        //
        // Either way, streaming execution folds each partition's output into
        // the apply collector the moment that partition finishes; the table
        // writes happen once at the end.
        let pool_before = session.db().runtime().metrics();
        let dur_before = session.db().durability_stats();
        let buffer_pool = session.db().catalog().buffer_pool().clone();
        buffer_pool.reset_peak();
        let bp_before = buffer_pool.stats();
        let worker: Arc<dyn TransformUdf> = Arc::new(VertexWorker {
            program: program.clone(),
            superstep,
            num_vertices,
            prev_aggregates: Arc::new(prev_aggregates.clone()),
            use_combiner: config.use_combiner,
            pool: Some(session.db().runtime().clone()),
            edges: edges.clone(),
        });
        let (outcome, profile, apply_secs) = if config.streaming && config.parallel_apply {
            // Segment-parallel apply: each partition's output is parsed and
            // canonicalized on the pool worker that finished it; the final
            // table writes are per-bucket segment builds on the same pool,
            // committed by an atomic catalog-level contents swap.
            let apply = ParallelApply::for_program(program.as_ref(), config.num_workers.max(1));
            let profile =
                run_streaming_compute(session, config, &worker, edge_rows, &|idx, out| {
                    apply.absorb(idx, &out).map_err(|e| vertexica_sql::SqlError::Udf(e.to_string()))
                })?;
            let sw = Stopwatch::start();
            let outcome = apply_parallel(session, program.as_ref(), config, apply, num_vertices)?;
            (outcome, profile, sw.elapsed_secs())
        } else if config.streaming {
            let template = OutputAccumulator::for_program(program.as_ref());
            let acc = Mutex::new(template.fork());
            let profile =
                run_streaming_compute(session, config, &worker, edge_rows, &|idx, out| {
                    // Parse outside the shared lock (absorb clones every
                    // blob); only the cheap vector merge is serialized.
                    let mut local = template.fork();
                    local
                        .absorb(idx, &out)
                        .map_err(|e| vertexica_sql::SqlError::Udf(e.to_string()))?;
                    acc.lock().merge(local);
                    Ok(())
                })?;
            let sw = Stopwatch::start();
            let acc = acc.into_inner();
            let outcome = apply_accumulated(session, program.as_ref(), config, acc, num_vertices)?;
            (outcome, profile, sw.elapsed_secs())
        } else {
            let sw = Stopwatch::start();
            let input = assemble(session, config.input_mode, config.streaming_scan, edge_rows)?;
            let bytes: usize = input.iter().map(|b| b.estimated_bytes()).sum();
            let partitions = if config.num_partitions <= 1 {
                vec![input]
            } else {
                hash_partition(&input, &[0], config.num_partitions)?
            };
            let assemble_secs = sw.elapsed_secs();
            let sw = Stopwatch::start();
            let outputs = session.db().run_transform_partitions(&worker, partitions)?;
            let profile = ExecProfile {
                assemble_secs,
                compute_secs: sw.elapsed_secs(),
                overlap_secs: 0.0,
                // Fully materialized: the whole input is one in-flight unit.
                input_bytes: bytes,
                peak_batch_bytes: bytes,
                peak_resident_scan_bytes: bytes,
                early_dispatches: 0,
            };
            let sw = Stopwatch::start();
            let outcome = apply_outputs(session, program.as_ref(), config, outputs, num_vertices)?;
            (outcome, profile, sw.elapsed_secs())
        };
        let pool_delta = session.db().runtime().metrics().delta_since(&pool_before);
        let (wal_records, wal_bytes, flush_bytes) =
            match (dur_before, session.db().durability_stats()) {
                (Some(before), Some(after)) => (
                    after.wal_records - before.wal_records,
                    after.wal_bytes - before.wal_bytes,
                    after.flush_bytes - before.flush_bytes,
                ),
                _ => (0, 0, 0),
            };
        let bp_after = buffer_pool.stats();

        prev_aggregates = outcome.aggregates.clone();
        stats.per_superstep.push(SuperstepStats {
            superstep,
            messages: outcome.messages,
            vertex_changes: outcome.vertex_changes,
            replaced: outcome.replaced,
            assemble_secs: profile.assemble_secs,
            compute_secs: profile.compute_secs,
            apply_secs,
            apply_parallelism: outcome.apply_parallelism,
            overlap_secs: profile.overlap_secs,
            queue_wait_secs: pool_delta.queue_wait_secs,
            steals: pool_delta.tasks_stolen,
            nested_scopes: pool_delta.nested_scopes,
            peak_batch_bytes: profile.peak_batch_bytes,
            input_bytes: profile.input_bytes,
            peak_resident_scan_bytes: profile.peak_resident_scan_bytes,
            early_dispatches: profile.early_dispatches,
            wal_records,
            wal_bytes,
            flush_bytes,
            resident_bytes: buffer_pool.peak_resident_bytes(),
            evictions: bp_after.evictions - bp_before.evictions,
            reloads: bp_after.reloads - bp_before.reloads,
            remote_messages: 0,
            routed_bytes: 0,
            shard_skew: 1.0,
        });
        stats.total_messages += outcome.messages as u64;
        stats.supersteps = superstep + 1 - start_superstep;
        stats.aggregates = outcome.aggregates.clone();

        // 5. Checkpoint if configured.
        if let (Some(every), Some(dir)) = (config.checkpoint_every, &config.checkpoint_dir) {
            if (superstep + 1).is_multiple_of(every) {
                crate::checkpoint::save(session, dir, superstep, &prev_aggregates)?;
            }
        }

        if outcome.messages == 0 && outcome.all_halted {
            break;
        }
        superstep += 1;
    }
    Ok(stats)
}

/// Registers a vertex program as a named stored procedure so it can be
/// invoked with `db.call_procedure(name, &[])` — the deployment shape the
/// paper describes (coordinator = stored procedure inside the database).
/// Returns the procedure name.
pub fn register_as_procedure<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: VertexicaConfig,
) -> String {
    let proc_name = format!("vertexica_{}_{}", session.name(), program.name());
    let session = session.clone();
    session.db().clone().register_procedure(
        &proc_name,
        Arc::new(move |_db, _args| {
            let stats = run_program(&session, program.clone(), &config)
                .map_err(|e| vertexica_sql::SqlError::Execution(e.to_string()))?;
            Ok(Value::Int(stats.supersteps as i64))
        }),
    );
    proc_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InputMode;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::pregel::{VertexContext, VertexContextExt};
    use vertexica_common::VertexId;
    use vertexica_sql::Database;

    /// HashMax connected components: every vertex adopts the largest id seen.
    struct MaxId;
    impl VertexProgram for MaxId {
        type Value = u64;
        type Message = u64;

        fn initial_value(&self, id: VertexId, _init: &InitContext) -> u64 {
            id
        }

        fn compute(&self, ctx: &mut dyn VertexContext<u64, u64>, messages: &[u64]) {
            let best = messages.iter().copied().fold(*ctx.value(), u64::max);
            if best > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(best);
                ctx.send_to_all_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn combine(&self, a: &u64, b: &u64) -> Option<u64> {
            Some((*a).max(*b))
        }

        fn name(&self) -> &'static str {
            "maxid"
        }
    }

    fn two_components() -> EdgeList {
        // Component A: 0-1-2 (undirected), component B: 3-4.
        EdgeList::from_pairs([(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)])
    }

    fn run_maxid(config: VertexicaConfig) -> Vec<(VertexId, u64)> {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &config).unwrap();
        assert!(stats.supersteps >= 2);
        g.vertex_values().unwrap()
    }

    #[test]
    fn converges_to_component_max() {
        let vals = run_maxid(VertexicaConfig::default().with_partitions(4).with_workers(2));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn single_partition_single_worker_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_partitions(1).with_workers(1));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn join_input_mode_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_input_mode(InputMode::ThreeWayJoin));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn no_combiner_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_combiner(false));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn forced_replace_and_forced_update_agree() {
        let a = run_maxid(VertexicaConfig::default().with_replace_threshold(0.0));
        let b = run_maxid(VertexicaConfig::default().with_replace_threshold(1.0));
        assert_eq!(a, b);
    }

    #[test]
    fn max_supersteps_caps_run() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats =
            run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_max_supersteps(1))
                .unwrap();
        assert_eq!(stats.supersteps, 1);
    }

    #[test]
    fn stats_track_messages_and_replacement() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats = run_program(
            &g,
            Arc::new(MaxId),
            &VertexicaConfig::default().with_replace_threshold(0.0),
        )
        .unwrap();
        assert!(stats.total_messages > 0);
        assert!(stats.per_superstep[0].replaced);
        assert!(stats.per_superstep[0].messages > 0);
        // Final superstep emits nothing.
        assert_eq!(stats.per_superstep.last().unwrap().messages, 0);
    }

    #[test]
    fn projection_degrees_agree_with_the_relational_form() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        // Vertices 0..5; 3 and 4 have no out-edges; 9 is an edge-only source
        // (never in the vertex table), so neither form reports it.
        g.load_edges(&EdgeList::new(
            5,
            vec![(0, 1), (0, 2), (0, 2), (1, 1), (2, 0)]
                .into_iter()
                .map(|(s, d)| vertexica_common::graph::Edge::new(s, d))
                .collect(),
        ))
        .unwrap();
        g.add_edge(9, 0, 1.0, 0, None).unwrap();
        let (projection, _) = g.edge_projection().unwrap();
        assert_eq!(projection.out_edges(9).len(), 1);
        let from_projection = vertex_degrees(&g, Some(&projection)).unwrap();
        assert_eq!(from_projection, vec![(0, 3), (1, 1), (2, 1), (3, 0), (4, 0)]);
        assert_eq!(from_projection, g.out_degrees().unwrap());
    }

    #[test]
    fn coordinator_shares_the_database_pool() {
        let db = Arc::new(Database::new());
        let pool = db.runtime().clone();
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_workers(3)).unwrap();
        // The run resized the *shared* pool rather than creating its own…
        assert_eq!(pool.size(), 3);
        assert!(Arc::ptr_eq(&pool, db.runtime()));
        // …and a second run on the same database reuses it at a new size.
        run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_workers(2)).unwrap();
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn runs_as_stored_procedure() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let name = register_as_procedure(&g, Arc::new(MaxId), VertexicaConfig::default());
        let out = db.call_procedure(&name, &[]).unwrap();
        let Value::Int(supersteps) = out else { panic!() };
        assert!(supersteps >= 2);
        let vals: Vec<(VertexId, u64)> = g.vertex_values().unwrap();
        assert_eq!(vals[0], (0, 2));
    }
}
