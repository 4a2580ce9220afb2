//! Sharded execution, and the one superstep loop that drives every run.
//!
//! A [`ShardedDatabase`] owns N fully independent [`Database`] engines —
//! each with its own catalog, worker pool and (when durable) its own WAL
//! directory under `<root>/shard<k>/`. Shard ownership is the engine-wide
//! ownership hash [`vertexica_storage::partition::int_key_partition`] over
//! vertex id: a vertex row, its
//! outbound edges (keyed by `src`) and its inbound messages (keyed by
//! `recipient`) all land on the owning shard, so at superstep time **only
//! message rows ever cross a shard boundary** — a shard's message table
//! holds the messages its vertices *produced*, whatever their recipient.
//!
//! ## One loop for every shard count
//!
//! `superstep_loop` is the engine's only coordinator loop. A sharded run
//! ([`run_sharded`]) drives it over the N shard sessions; a single-database
//! run ([`crate::coordinator::run_program`]) drives it over a one-element
//! slice. The one-shard case is simply the case with no peers: the counts
//! rendezvous fills at once, there are no outboxes, and the cross-shard
//! split of every chunk is a clone. What depends on N:
//!
//! * the `sharded_config` coercions apply only at N ≥ 2;
//! * the `_message_prev` retention table (below) exists only at N ≥ 2, and
//!   rides the apply commits only when the shards are also durable.
//!
//! ## Prescan-sealed cross-shard routing
//!
//! Each superstep, every shard thread:
//!
//! 1. prescans its local source tables' key columns and computes, for every
//!    (destination shard, destination partition) pair, how many union-schema
//!    rows it will contribute ([`crate::input::partition_row_plan`]);
//! 2. swaps those count matrices with every other shard through a condvar
//!    rendezvous (control plane only — no data moves here);
//! 3. streams its local assemble, splitting every chunk by owner: the local
//!    piece feeds its own pipelined scatter, remote pieces are pushed into
//!    lock-free per-(source, destination) [`Outbox`]es while the destination
//!    is still assembling — the overlapped dataflow crosses shard
//!    boundaries, and a partition fed from three shards **seals the moment
//!    its last inbound row lands** (the summed count matrices told it
//!    exactly how many to expect), not at any superstep-wide barrier;
//! 4. after compute, swaps its aggregator partials at a second rendezvous,
//!    folds them, and commits its apply (see *The stamp* below).
//!
//! Rows never wait at a barrier. Besides the partials rendezvous, the halting
//! vote is two-phase: each shard reports its local pending-message and
//! active-vertex counts, and the coordinator sums them before launching the
//! next superstep.
//!
//! ## Bitwise equivalence across shard counts
//!
//! For N ≥ 2 the coordinator coerces the config (`sharded_config`):
//! table-union input and **the apply-side combiner off**. The combiner must
//! be off because it folds per recipient *within the producing shard*: a
//! recipient fed from two shards would see `(a⊕b) ⊕ (c⊕d)` where the
//! single-database run folds `((a⊕b)⊕c)⊕d` — bitwise-divergent for
//! non-associative f64 folds. With raw messages the N-shard union of message
//! tables equals the 1-shard table row-for-row, and the worker's canonical
//! input sort makes every compute call's message slice identical. Global
//! aggregators are folded by every shard from the same set of per-vertex
//! partials sorted by (name, vid) — one fold order for every N.
//!
//! ## The stamp: every commit is a savepoint
//!
//! Every initialization commit and every apply commit also swaps the
//! graph's `<name>_stamp` table ([`GraphSession::stamp_table`]) *in the same
//! grouped catalog commit* — one atomic WAL commit record on a durable
//! database. It records the superstep just committed (−1 for
//! initialization), the global vertex count, the shard count, and the
//! superstep's **output** aggregates as `f64::to_bits`. The aggregates are
//! folded before the commit: each shard swaps its per-vertex partials with
//! its peers through a second rendezvous, after compute, and folds the
//! whole set. A durable database always takes the replace arm, so no vertex
//! write lands after the commit the stamp rides.
//!
//! A shard's stamp therefore names exactly the superstep its tables hold,
//! and resuming is reading it: [`crate::coordinator::resume_program`] and
//! [`resume_sharded`] start at `stamp + 1` with the stamped aggregates. On
//! an in-memory database that continues a run in the same process (after a
//! `max_supersteps` cap, say); on a durable one it survives a crash, since
//! `Database::open` replays each WAL to its last commit.
//!
//! ## Crash repair across shards
//!
//! A crash can land between two shards' commits of one superstep. The
//! partials rendezvous keeps shard stamps within one superstep of each
//! other, so recovery ([`repair_if_needed`]) sees spread ≤ 1. On a durable
//! [`ShardedDatabase::create`]/[`open`](ShardedDatabase::open) root every
//! apply commit also swaps `<name>_message_prev`, a retention of the
//! superstep's message *input*. A shard that crashed before committing
//! superstep `s` re-runs it locally with its own stamp's aggregates
//! (superstep `s − 1`'s output), pulling its remote-owned input rows from
//! each peer — from the peer's retained `_message_prev` if the peer already
//! committed `s`, from its live message table if it is equally behind — and
//! stamps the ahead shard's aggregates. The repair commit is
//! bitwise-identical to the one the crash interrupted, and idempotent.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vertexica_common::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

use vertexica_common::graph::EdgeList;
use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexProgram};
use vertexica_common::runtime::{Outbox, PoolMetrics};
use vertexica_common::timer::Stopwatch;
use vertexica_common::{VertexData, VertexId};
use vertexica_sql::engine::PipelinedReport;
use vertexica_sql::{Database, SqlError, TransformUdf};
use vertexica_storage::partition::split_batch;
use vertexica_storage::{RecordBatch, Segment, Table, TableOptions, Value};

use crate::apply::{apply_parallel, ParallelApply};
use crate::config::{InputMode, VertexicaConfig};
use crate::coordinator::{initialize_vertices_with_total, RunStats, SuperstepStats};
use crate::error::{VertexicaError, VertexicaResult};
use crate::input::{assemble_chunks, message_union_batch, partition_row_plan};
use crate::projection::EdgeProjection;
use crate::session::{message_schema, stamp_schema, GraphSession};
use crate::worker::VertexWorker;

/// The stamp written by initialization, before superstep 0 commits.
const STAMP_INIT: i64 = -1;

/// N independent engine shards behind one handle. In-memory
/// ([`ShardedDatabase::new`]) or durable, with each shard's WAL and segment
/// files under `<root>/shard<k>/` and the shard count recorded in
/// `<root>/SHARDS` ([`create`](Self::create) / [`open`](Self::open)).
pub struct ShardedDatabase {
    shards: Vec<Arc<Database>>,
    root: Option<PathBuf>,
}

impl ShardedDatabase {
    /// N in-memory shards (no durability, no repair — crash state dies with
    /// the process).
    pub fn new(num_shards: usize) -> Arc<Self> {
        let n = num_shards.max(1);
        Arc::new(ShardedDatabase {
            shards: (0..n).map(|_| Arc::new(Database::new())).collect(),
            root: None,
        })
    }

    /// Creates a durable sharded database: `<root>/SHARDS` records the shard
    /// count and each shard opens (WAL + segment files) under
    /// `<root>/shard<k>/`.
    pub fn create(root: impl AsRef<Path>, num_shards: usize) -> VertexicaResult<Arc<Self>> {
        let n = num_shards.max(1);
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| VertexicaError::Runtime(format!("create shard root: {e}")))?;
        std::fs::write(root.join("SHARDS"), format!("{n}\n"))
            .map_err(|e| VertexicaError::Runtime(format!("write SHARDS: {e}")))?;
        Self::open_shards(root, n)
    }

    /// Reopens a durable sharded database, recovering **every** shard (each
    /// shard's `Database::open` replays its own WAL to its last committed
    /// superstep boundary).
    pub fn open(root: impl AsRef<Path>) -> VertexicaResult<Arc<Self>> {
        let root = root.as_ref().to_path_buf();
        let text = std::fs::read_to_string(root.join("SHARDS"))
            .map_err(|e| VertexicaError::Runtime(format!("read SHARDS: {e}")))?;
        let n: usize = text
            .trim()
            .parse()
            .map_err(|_| VertexicaError::Runtime(format!("corrupt SHARDS file: {text:?}")))?;
        if n == 0 {
            return Err(VertexicaError::Runtime("SHARDS file declares zero shards".into()));
        }
        Self::open_shards(root, n)
    }

    fn open_shards(root: PathBuf, n: usize) -> VertexicaResult<Arc<Self>> {
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            shards.push(Arc::new(Database::open(root.join(format!("shard{k}")))?));
        }
        Ok(Arc::new(ShardedDatabase { shards, root: Some(root) }))
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, k: usize) -> &Arc<Database> {
        &self.shards[k]
    }

    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// Whether the shards are disk-backed (opened from a root directory).
    pub fn is_durable(&self) -> bool {
        self.root.is_some()
    }

    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// Checkpoints every shard (flushes segment files, truncates each WAL).
    pub fn checkpoint(&self) -> VertexicaResult<()> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }
}

/// A graph hash-partitioned across the shards of a [`ShardedDatabase`]:
/// one [`GraphSession`] per shard holding the shard-owned slice of the
/// vertex/edge/message tables and the shard's stamp, plus the per-shard
/// crash-repair retention table `<name>_message_prev`.
pub struct ShardedGraphSession {
    db: Arc<ShardedDatabase>,
    sessions: Vec<GraphSession>,
    name: String,
}

impl ShardedGraphSession {
    /// Creates the per-shard graph tables plus the previous-message
    /// retention table on every shard.
    pub fn create(db: Arc<ShardedDatabase>, name: &str) -> VertexicaResult<Self> {
        let name = name.to_ascii_lowercase();
        let mut sessions = Vec::with_capacity(db.num_shards());
        for shard_db in db.shards() {
            let sess = GraphSession::create(shard_db.clone(), &name)?;
            shard_db.catalog().create_table(
                &message_prev_table_name(&name),
                message_schema(),
                TableOptions::default().sorted_by(vec![0]),
            )?;
            sessions.push(sess);
        }
        Ok(ShardedGraphSession { db, sessions, name })
    }

    /// Opens an existing sharded graph and asserts the crash invariant the
    /// partials rendezvous guarantees: every shard's superstep stamp is
    /// within one superstep of every other (and no shard is missing its
    /// stamp while another has one — that means a crash during
    /// initialization, which is not repairable; reload the graph).
    pub fn open(db: Arc<ShardedDatabase>, name: &str) -> VertexicaResult<Self> {
        let name = name.to_ascii_lowercase();
        let mut sessions = Vec::with_capacity(db.num_shards());
        for shard_db in db.shards() {
            let sess = GraphSession::open(shard_db.clone(), &name)?;
            shard_db.catalog().get(&message_prev_table_name(&name))?;
            sessions.push(sess);
        }
        let ss = ShardedGraphSession { db, sessions, name };
        stamp_range(&ss.name, &ss.stamps()?)?;
        Ok(ss)
    }

    pub fn db(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_shards(&self) -> usize {
        self.sessions.len()
    }

    /// The per-shard sessions, indexed by shard id.
    pub fn shard_sessions(&self) -> &[GraphSession] {
        &self.sessions
    }

    /// Name of the per-shard previous-superstep message retention table.
    pub fn message_prev_table(&self) -> String {
        message_prev_table_name(&self.name)
    }

    /// Sharded bulk load: every shard keeps exactly the rows it owns
    /// ([`GraphSession::load_edges_shard`]), so the vertex table, outbound
    /// edges and (at runtime) inbound message rows of a vertex are all local
    /// to its owning shard.
    pub fn load_edges(&self, graph: &EdgeList) -> VertexicaResult<()> {
        let n = self.sessions.len();
        for (k, sess) in self.sessions.iter().enumerate() {
            sess.load_edges_shard(graph, k, n)?;
        }
        Ok(())
    }

    /// Global vertex count (sum of shard-local counts).
    pub fn num_vertices(&self) -> VertexicaResult<u64> {
        let mut n = 0;
        for sess in &self.sessions {
            n += sess.num_vertices()?;
        }
        Ok(n)
    }

    /// Global edge count (sum of shard-local counts).
    pub fn num_edges(&self) -> VertexicaResult<u64> {
        let mut n = 0;
        for sess in &self.sessions {
            n += sess.num_edges()?;
        }
        Ok(n)
    }

    /// Decodes all vertex values across every shard, sorted by id — same
    /// contract as [`GraphSession::vertex_values`].
    pub fn vertex_values<V: VertexData + Send>(&self) -> VertexicaResult<Vec<(VertexId, V)>> {
        let mut out = Vec::new();
        for sess in &self.sessions {
            out.extend(sess.vertex_values::<V>()?);
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Every shard's superstep stamp (`None` = the shard has never been
    /// initialized).
    pub fn stamps(&self) -> VertexicaResult<Vec<Option<i64>>> {
        self.sessions.iter().map(|s| Ok(read_stamp(s)?.map(|m| m.superstep))).collect()
    }

    /// Checkpoints every shard.
    pub fn checkpoint(&self) -> VertexicaResult<()> {
        self.db.checkpoint()
    }
}

// ---------------------------------------------------------------------------
// The stamp: the last superstep a shard committed.
// ---------------------------------------------------------------------------

/// The per-shard previous-superstep message retention table of graph
/// `graph`.
fn message_prev_table_name(graph: &str) -> String {
    format!("{graph}_message_prev")
}

/// A decoded stamp table. `aggregates` are the stamped superstep's
/// **output** aggregates: the input of the superstep after it, which is
/// where a resume starts and what a behind shard's repair re-runs with.
struct Stamp {
    superstep: i64,
    num_vertices: u64,
    num_shards: usize,
    aggregates: FxHashMap<String, f64>,
}

/// The stamp table's fixed keys, in row order. `num_aggregates` counts the
/// `agg.<name>` rows after them, so a lost aggregate row is detected rather
/// than resumed from.
const STAMP_KEYS: [&str; 4] = ["superstep", "num_vertices", "num_shards", "num_aggregates"];

/// Builds the stamp rows. f64 aggregate values are stored as their exact
/// bit patterns, so a resume or a repair folds from bit-identical inputs.
fn stamp_rows(
    superstep: i64,
    num_vertices: u64,
    num_shards: usize,
    aggregates: &FxHashMap<String, f64>,
) -> Vec<Vec<Value>> {
    let fixed = [superstep, num_vertices as i64, num_shards as i64, aggregates.len() as i64];
    let mut rows: Vec<Vec<Value>> = STAMP_KEYS
        .iter()
        .zip(fixed)
        .map(|(key, value)| vec![Value::Str((*key).into()), Value::Int(value)])
        .collect();
    let mut names: Vec<&String> = aggregates.keys().collect();
    names.sort();
    for name in names {
        rows.push(vec![
            Value::Str(format!("agg.{name}")),
            Value::Int(aggregates[name].to_bits() as i64),
        ]);
    }
    rows
}

/// The stamp table's new contents as pre-encoded segments, ready to ride an
/// apply commit.
fn stamp_segments(
    sess: &GraphSession,
    superstep: i64,
    num_vertices: u64,
    num_shards: usize,
    aggregates: &FxHashMap<String, f64>,
) -> VertexicaResult<(String, Vec<Segment>)> {
    let table = sess.stamp_table();
    let rows = stamp_rows(superstep, num_vertices, num_shards, aggregates);
    let batch = RecordBatch::from_rows(stamp_schema(), &rows).map_err(VertexicaError::from)?;
    let segments = sess.db().encode_segments_for(&table, vec![batch])?;
    Ok((table, segments))
}

/// Decodes stamp rows strictly: every row must be a `(Str, Int)` pair with
/// a known key, no key may repeat, every fixed key must be present, and the
/// `agg.*` rows must number `num_aggregates`. A stamp is the only thing a
/// resume starts from, so a damaged one is an error, never a default (a
/// lost `agg.dangling` row would resume PageRank with the wrong mass).
/// No rows is `None`: the graph was never initialized.
fn parse_stamp(table: &str, rows: &[Vec<Value>]) -> VertexicaResult<Option<Stamp>> {
    if rows.is_empty() {
        return Ok(None);
    }
    let bad = |what: String| VertexicaError::Recovery(format!("{table}: {what}"));
    let mut fixed: [Option<i64>; 4] = [None; 4];
    let mut aggregates = FxHashMap::default();
    for row in rows {
        let [Value::Str(key), Value::Int(value)] = row.as_slice() else {
            return Err(bad(format!("malformed stamp row {row:?}")));
        };
        let fresh = match STAMP_KEYS.iter().position(|k| k == key) {
            Some(i) => fixed[i].replace(*value).is_none(),
            None => match key.strip_prefix("agg.") {
                Some(name) => {
                    aggregates.insert(name.to_string(), f64::from_bits(*value as u64)).is_none()
                }
                None => return Err(bad(format!("unknown stamp key {key:?}"))),
            },
        };
        if !fresh {
            return Err(bad(format!("duplicate stamp key {key:?}")));
        }
    }
    let [Some(superstep), Some(num_vertices), Some(num_shards), Some(num_aggregates)] = fixed
    else {
        return Err(bad(format!("stamp lacks one of {STAMP_KEYS:?}")));
    };
    if superstep < STAMP_INIT || num_vertices < 0 || num_shards < 1 {
        return Err(bad(format!(
            "stamp out of range: superstep {superstep}, {num_vertices} vertices, \
             {num_shards} shards"
        )));
    }
    if num_aggregates != aggregates.len() as i64 {
        return Err(bad(format!(
            "stamp declares {num_aggregates} aggregates but holds {}",
            aggregates.len()
        )));
    }
    Ok(Some(Stamp {
        superstep,
        num_vertices: num_vertices as u64,
        num_shards: num_shards as usize,
        aggregates,
    }))
}

fn read_stamp(sess: &GraphSession) -> VertexicaResult<Option<Stamp>> {
    let table = sess.stamp_table();
    let rows = sess.db().query(&format!("SELECT key, value FROM {table}"))?;
    parse_stamp(&table, &rows)
}

/// The `(min, max)` of every shard's superstep stamp — `None` when no shard
/// was ever initialized — after checking the crash invariant the partials
/// rendezvous guarantees: no shard is missing its stamp while another has
/// one (a crash during initialization, which is not repairable; reload the
/// graph), and the stamps spread by at most one superstep.
fn stamp_range(graph: &str, stamps: &[Option<i64>]) -> VertexicaResult<Option<(i64, i64)>> {
    let known: Vec<i64> = stamps.iter().flatten().copied().collect();
    let (Some(&min), Some(&max)) = (known.iter().min(), known.iter().max()) else {
        return Ok(None);
    };
    if known.len() != stamps.len() {
        return Err(VertexicaError::Runtime(format!(
            "graph {graph}: {} of {} shards have no superstep stamp — crash during \
             initialization; reload the graph",
            stamps.len() - known.len(),
            stamps.len()
        )));
    }
    if max - min > 1 {
        return Err(VertexicaError::Runtime(format!(
            "graph {graph}: shard superstep stamps spread {min}..{max} — the partials \
             rendezvous bounds the spread to 1; storage is corrupt"
        )));
    }
    Ok(Some((min, max)))
}

/// The stamp every shard of a resumed run holds. A shard without a stamp,
/// a stamp written for another shard count, or shards stamped at different
/// supersteps (an unrepaired crash) are typed errors.
fn resume_stamp(sessions: &[GraphSession]) -> VertexicaResult<Stamp> {
    let mut common: Option<Stamp> = None;
    for (k, sess) in sessions.iter().enumerate() {
        let graph = sess.name();
        let stamp = read_stamp(sess)?.ok_or_else(|| {
            VertexicaError::Recovery(format!(
                "graph {graph}: shard {k} has no committed superstep to resume from"
            ))
        })?;
        if stamp.num_shards != sessions.len() {
            return Err(VertexicaError::Recovery(format!(
                "graph {graph}: stamped by a {}-shard run, resumed on {}",
                stamp.num_shards,
                sessions.len()
            )));
        }
        match &common {
            Some(c) if c.superstep != stamp.superstep => {
                return Err(VertexicaError::Recovery(format!(
                    "graph {graph}: shard 0 is at superstep {}, shard {k} at {}; repair first",
                    c.superstep, stamp.superstep
                )));
            }
            Some(_) => {}
            None => common = Some(stamp),
        }
    }
    common.ok_or_else(|| VertexicaError::Recovery("a run needs at least one shard".into()))
}

/// The stamp table of `sess` holding the initialization stamp, as a fresh
/// catalog [`Table`] to ride the init commit.
fn init_stamp_table(
    sess: &GraphSession,
    num_vertices: u64,
    num_shards: usize,
) -> VertexicaResult<Table> {
    let table_ref = sess.db().catalog().get(&sess.stamp_table())?;
    let (name, options) = {
        let guard = table_ref.read();
        (guard.name().to_string(), guard.options().clone())
    };
    let rows = stamp_rows(STAMP_INIT, num_vertices, num_shards, &FxHashMap::default());
    let mut fresh = Table::new(name, stamp_schema(), options);
    fresh.append_batch(
        &RecordBatch::from_rows(stamp_schema(), &rows).map_err(VertexicaError::from)?,
    )?;
    Ok(fresh)
}

// ---------------------------------------------------------------------------
// Config coercion.
// ---------------------------------------------------------------------------

/// The config an N-shard run actually executes with: `config` itself for
/// N = 1, and for N ≥ 2 these coercions (each proven bitwise-safe by the
/// equivalence harness):
///
/// * `input_mode = TableUnion` — the sharded exchange is built into the
///   union's plan-sealed producer;
/// * `use_combiner = false` — the combiner folds per recipient *within the
///   producing shard*, which groups non-associative f64 folds differently
///   than the single-database run (see the module docs); raw messages make
///   the N-shard union of message tables equal the 1-shard table;
/// * `memory_budget_bytes` is divided by the shard count — N shards share
///   the one global budget instead of multiplying it.
fn sharded_config(config: &VertexicaConfig, num_shards: usize, durable: bool) -> VertexicaConfig {
    let mut c = config.clone();
    if num_shards < 2 {
        return c;
    }
    c.input_mode = InputMode::TableUnion;
    c.use_combiner = false;
    c.durable = durable;
    if let Some(budget) = c.memory_budget_bytes {
        c.memory_budget_bytes = Some((budget / num_shards).max(1));
    }
    c
}

// ---------------------------------------------------------------------------
// The superstep exchange: outboxes + two rendezvous.
// ---------------------------------------------------------------------------

/// One shard's raw per-vertex aggregator partials `(name, vid, value)`.
type Partials = Arc<Vec<(String, i64, f64)>>;

/// One superstep's cross-shard fabric: an [`Outbox`] per (source,
/// destination) pair, the two rendezvous, routing counters, and the abort
/// flag any failing shard raises so its peers stop waiting on it.
struct Exchange {
    /// `boxes[src][dst]` — src pushes, dst drains. The diagonal is unused.
    boxes: Vec<Vec<Outbox<RecordBatch>>>,
    /// Before assemble: every shard's `counts[destination][partition]`.
    counts: Board<Vec<Vec<u64>>>,
    /// After compute, before the apply commit: every shard's partials.
    partials: Board<Partials>,
    remote_messages: AtomicU64,
    routed_bytes: AtomicU64,
    abort: AtomicBool,
}

impl Exchange {
    fn new(n: usize) -> Self {
        Exchange {
            boxes: (0..n).map(|_| (0..n).map(|_| Outbox::new()).collect()).collect(),
            counts: Board::new(n),
            partials: Board::new(n),
            remote_messages: AtomicU64::new(0),
            routed_bytes: AtomicU64::new(0),
            abort: AtomicBool::new(false),
        }
    }

    fn num_shards(&self) -> usize {
        self.boxes.len()
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Raised by a shard that errored or panicked: peers waiting on a
    /// rendezvous or on its outbox stream-end unstick via the flag, and
    /// closing the failed shard's outboxes wakes any parked consumer
    /// promptly.
    fn fail(&self, shard: usize) {
        self.abort.store(true, Ordering::Release);
        for d in 0..self.boxes.len() {
            if d != shard {
                self.boxes[shard][d].close();
            }
        }
    }
}

/// A rendezvous: every shard deposits one value and waits (control plane
/// only — no rows block here) until all N are in, then reads the full set
/// in shard order. Waits poll the abort flag so one failing shard cannot
/// hang the rest.
struct Board<T> {
    slots: Mutex<BoardState<T>>,
    ready: Condvar,
}

struct BoardState<T> {
    filled: usize,
    slots: Vec<Option<T>>,
}

impl<T: Clone> Board<T> {
    fn new(n: usize) -> Self {
        Board {
            slots: Mutex::new(BoardState { filled: 0, slots: vec![None; n] }),
            ready: Condvar::new(),
        }
    }

    fn exchange(&self, shard: usize, value: T, abort: &AtomicBool) -> VertexicaResult<Vec<T>> {
        let mut guard = self.slots.lock();
        debug_assert!(guard.slots[shard].is_none(), "shard {shard} deposited twice");
        guard.slots[shard] = Some(value);
        guard.filled += 1;
        if guard.filled == guard.slots.len() {
            self.ready.notify_all();
        }
        while guard.filled < guard.slots.len() {
            // Polling the abort flag is what lets one failed shard unstick
            // its peers; the model checker proves the poll load-bearing by
            // seeding `shard.skip_abort_recheck`.
            if abort.load(Ordering::Acquire)
                && !vertexica_common::sync::model::mutation_enabled("shard.skip_abort_recheck")
            {
                return Err(VertexicaError::Runtime(
                    "sharded superstep aborted during a rendezvous".into(),
                ));
            }
            let (g, _) = self.ready.wait_timeout(guard, Duration::from_millis(50));
            guard = g;
        }
        guard
            .slots
            .iter()
            .map(|slot| {
                slot.clone().ok_or_else(|| {
                    VertexicaError::Runtime("rendezvous filled with an empty slot".into())
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// One shard's superstep.
// ---------------------------------------------------------------------------

/// Everything one shard reports back from one superstep, for global stat
/// aggregation.
struct ShardReport {
    outcome: crate::apply::SuperstepOutcome,
    pipeline: PipelinedReport,
    apply_secs: f64,
    pool_delta: PoolMetrics,
    wal_records: u64,
    wal_bytes: u64,
    flush_bytes: u64,
    resident_bytes: u64,
    evictions: u64,
    reloads: u64,
    /// Worker-input rows this shard consumed (local + inbound) — the skew
    /// gauge's numerator.
    input_rows: u64,
    /// The superstep's global output aggregates (every shard folds the same).
    aggregates: FxHashMap<String, f64>,
}

/// One shard's superstep: prescan, counts rendezvous, assemble → scatter →
/// compute with cross-shard routing, partials rendezvous and aggregate
/// fold, apply. The stamp rides the apply commit, and so does the retained
/// message input when `msg_prev_table` names its table (a durable sharded
/// run).
#[allow(clippy::too_many_arguments)]
fn run_shard_superstep<P: VertexProgram + 'static>(
    sess: &GraphSession,
    program: &Arc<P>,
    config: &VertexicaConfig,
    shard: usize,
    exchange: &Exchange,
    superstep: u64,
    num_vertices: u64,
    prev_aggregates: &FxHashMap<String, f64>,
    agg_specs: &FxHashMap<String, AggKind>,
    msg_prev_table: Option<&str>,
    edges: Option<Arc<EdgeProjection>>,
) -> VertexicaResult<ShardReport> {
    let edge_rows = edges.is_none();
    let n = exchange.num_shards();
    let parts = config.num_partitions.max(1);
    let db = sess.db();
    let pool_before = db.runtime().metrics();
    let dur_before = db.durability_stats();
    let buffer_pool = db.catalog().buffer_pool().clone();
    buffer_pool.reset_peak();
    let bp_before = buffer_pool.stats();

    // Durable sharded run: retain this superstep's message *input* for crash
    // repair. The segments are pre-encoded here and committed atomically
    // with the apply.
    let msg_prev = match msg_prev_table {
        Some(table) => {
            let batches = db.scan_table(&sess.message_table(), None, &[])?;
            Some((table.to_string(), db.encode_segments_for(table, batches)?))
        }
        None => None,
    };

    // Control plane: plan every destination's per-partition row counts and
    // swap matrices with the peers. expected[p] = what partition p of THIS
    // shard will receive from all N sources — the seal thresholds.
    let counts = partition_row_plan(sess, config.input_mode, n, parts, edge_rows)?;
    let matrix = exchange.counts.exchange(shard, counts, &exchange.abort)?;
    let expected: Vec<u64> = (0..parts).map(|p| matrix.iter().map(|m| m[shard][p]).sum()).collect();
    let input_rows: u64 = expected.iter().sum();

    // This thread produces into its own outboxes and is the single consumer
    // of every inbound one.
    for j in 0..n {
        if j != shard {
            exchange.boxes[j][shard].register_consumer();
        }
    }

    let worker: Arc<dyn TransformUdf> = Arc::new(VertexWorker {
        program: program.clone(),
        superstep,
        num_vertices,
        prev_aggregates: Arc::new(prev_aggregates.clone()),
        use_combiner: config.use_combiner,
        pool: Some(db.runtime().clone()),
        edges,
    });
    let apply = ParallelApply::for_program(program.as_ref(), config.num_workers.max(1));

    let pipeline = db.run_transform_pipelined(
        &worker,
        vec![0],
        parts,
        Some(expected),
        &mut |chunk_sink| {
            // Local assemble, split every chunk by owner: own piece into the
            // pipelined scatter, remote pieces into the outboxes. Between
            // own chunks, opportunistically drain inbound boxes so remote
            // rows keep flowing (and sealing partitions) while both sides
            // still stream.
            let peak = assemble_chunks(
                sess,
                config.input_mode,
                config.stream_chunk_rows,
                edge_rows,
                &mut |chunk| {
                    if exchange.aborted() {
                        return Err(VertexicaError::Runtime("sharded superstep aborted".into()));
                    }
                    for (d, piece) in split_batch(&chunk, &[0], n).map_err(VertexicaError::from)? {
                        if d == shard {
                            chunk_sink(piece).map_err(VertexicaError::from)?;
                        } else {
                            exchange
                                .remote_messages
                                .fetch_add(piece.num_rows() as u64, Ordering::Relaxed);
                            exchange
                                .routed_bytes
                                .fetch_add(piece.estimated_bytes() as u64, Ordering::Relaxed);
                            exchange.boxes[shard][d].push(piece);
                        }
                    }
                    for j in 0..n {
                        if j != shard {
                            for piece in exchange.boxes[j][shard].try_drain() {
                                chunk_sink(piece).map_err(VertexicaError::from)?;
                            }
                        }
                    }
                    Ok(())
                },
            )
            .map_err(|e| match e {
                VertexicaError::Sql(e) => e,
                other => SqlError::Execution(other.to_string()),
            })?;

            // Local EOF: everything this shard will ever route is pushed.
            for d in 0..n {
                if d != shard {
                    exchange.boxes[shard][d].close();
                }
            }

            // Drain every peer to stream-end. Reading `closed` BEFORE the
            // drain makes the final drain complete: close happens-after the
            // producer's last push.
            let mut done = vec![false; n];
            done[shard] = true;
            loop {
                let mut progressed = false;
                let mut remaining = false;
                for (j, done_j) in done.iter_mut().enumerate() {
                    if *done_j {
                        continue;
                    }
                    let inbox = &exchange.boxes[j][shard];
                    let closed = inbox.is_closed();
                    let pieces = inbox.try_drain();
                    progressed |= !pieces.is_empty();
                    for piece in pieces {
                        chunk_sink(piece)?;
                    }
                    if closed {
                        for piece in inbox.try_drain() {
                            progressed = true;
                            chunk_sink(piece)?;
                        }
                        *done_j = true;
                    } else {
                        remaining = true;
                    }
                }
                if !remaining {
                    break;
                }
                if !progressed {
                    if exchange.aborted() {
                        return Err(SqlError::Execution(format!(
                            "shard {shard}: sharded superstep aborted"
                        )));
                    }
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
            if exchange.aborted() {
                return Err(SqlError::Execution(format!(
                    "shard {shard}: sharded superstep aborted"
                )));
            }
            Ok(peak)
        },
        &|idx, out| apply.absorb(idx, &out).map_err(|e| SqlError::Udf(e.to_string())),
    )?;

    // The global aggregates are folded before the commit, so the stamp that
    // rides it carries this superstep's output: every shard swaps its raw
    // partials with its peers and folds the same set.
    let partials = Arc::new(apply.take_agg_partials());
    let partials = exchange.partials.exchange(shard, partials, &exchange.abort)?;
    let aggregates = fold_aggregates(agg_specs, &partials);

    // Apply, with the stamp (and the retained message input) riding the
    // same atomic grouped commit.
    let mut extra = vec![stamp_segments(sess, superstep as i64, num_vertices, n, &aggregates)?];
    extra.extend(msg_prev);
    let sw = Stopwatch::start();
    let outcome = apply_parallel(sess, program.as_ref(), config, apply, num_vertices, extra)?;
    let apply_secs = sw.elapsed_secs();

    let pool_delta = db.runtime().metrics().delta_since(&pool_before);
    let (wal_records, wal_bytes, flush_bytes) = match (dur_before, db.durability_stats()) {
        (Some(before), Some(after)) => (
            after.wal_records - before.wal_records,
            after.wal_bytes - before.wal_bytes,
            after.flush_bytes - before.flush_bytes,
        ),
        _ => (0, 0, 0),
    };
    let bp_after = buffer_pool.stats();
    Ok(ShardReport {
        outcome,
        pipeline,
        apply_secs,
        pool_delta,
        wal_records,
        wal_bytes,
        flush_bytes,
        resident_bytes: buffer_pool.peak_resident_bytes(),
        evictions: bp_after.evictions - bp_before.evictions,
        reloads: bp_after.reloads - bp_before.reloads,
        input_rows,
        aggregates,
    })
}

/// Folds every shard's per-vertex aggregator partials sorted by (name, vid):
/// one fold order whatever the shard count, so f64 folds are
/// bitwise-identical.
fn fold_aggregates(
    specs: &FxHashMap<String, AggKind>,
    partials: &[Partials],
) -> FxHashMap<String, f64> {
    let mut all: Vec<&(String, i64, f64)> = partials.iter().flat_map(|p| p.iter()).collect();
    all.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut folded: FxHashMap<String, f64> = FxHashMap::default();
    for (name, _, v) in all {
        let kind = specs[name];
        match folded.get_mut(name) {
            Some(acc) => *acc = kind.combine(*acc, *v),
            None => {
                folded.insert(name.clone(), kind.combine(kind.identity(), *v));
            }
        }
    }
    folded
}

// ---------------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------------

/// Runs a vertex program across every shard of a [`ShardedGraphSession`].
///
/// The run executes with `sharded_config` (see its docs for each N ≥ 2
/// coercion and why); results are bitwise-identical to a 1-shard run of the
/// same program under `use_combiner = false` (the cross-engine harness
/// proves it per algorithm).
pub fn run_sharded<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    let c = sharded_config(config, ss.num_shards(), ss.db.is_durable());
    run_shards(&ss.sessions, program, &c, false)
}

/// Resumes a sharded run from the superstep its shards last committed:
/// [`repair_if_needed`] first brings every shard to one boundary, then the
/// run continues at `stamp + 1` with the stamped aggregates, as
/// [`run_sharded`] would have.
pub fn resume_sharded<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    repair_if_needed(ss, program.clone(), config)?;
    let c = sharded_config(config, ss.num_shards(), ss.db.is_durable());
    run_shards(&ss.sessions, program, &c, true)
}

/// The one coordinator: runs `program` over `sessions`, one per shard, from
/// a fresh initialization — or, with `resume`, from the superstep after the
/// one every shard's stamp names — until the halting vote or the superstep
/// cap. `config` is what the run executes with ([`sharded_config`] already
/// applied).
pub(crate) fn run_shards<P: VertexProgram + 'static>(
    sessions: &[GraphSession],
    program: Arc<P>,
    config: &VertexicaConfig,
    resume: bool,
) -> VertexicaResult<RunStats> {
    let total = Stopwatch::start();
    let n = sessions.len();
    // Size each shard's runtime pool once for the whole run; every superstep
    // reuses the same worker threads. The out-of-core budget goes in before
    // the first checkpoint, which gives every cold segment the `.vxtb` spill
    // twin eviction needs.
    for sess in sessions {
        sess.db().runtime().resize(config.num_workers);
        if let Some(budget) = config.memory_budget_bytes {
            sess.db().catalog().buffer_pool().set_budget(Some(budget));
        }
    }
    let resumed = if resume { Some(resume_stamp(sessions)?) } else { None };
    // The GLOBAL vertex count: e.g. PageRank's 1/N seed must see the whole
    // graph, not one shard's slice of it. A resume reads the one it ran with.
    let num_vertices = match &resumed {
        Some(stamp) => stamp.num_vertices,
        None => {
            let mut total = 0;
            for sess in sessions {
                total += sess.num_vertices()?;
            }
            total
        }
    };
    let mut edges = Vec::with_capacity(n);
    let mut projection_build_secs = 0.0;
    for sess in sessions {
        let (projection, secs) = crate::projection::for_run(sess, config)?;
        edges.push(projection);
        projection_build_secs += secs;
    }
    let (start_superstep, prev_aggregates) = match resumed {
        Some(stamp) => ((stamp.superstep + 1) as u64, stamp.aggregates),
        None => {
            // The initialization stamp rides each shard's init commit, so a
            // crash can never separate an initialized shard from its stamp.
            for (sess, edges) in sessions.iter().zip(&edges) {
                let stamp = (sess.stamp_table(), init_stamp_table(sess, num_vertices, n)?);
                initialize_vertices_with_total(
                    sess,
                    program.as_ref(),
                    num_vertices,
                    vec![stamp],
                    edges.as_deref(),
                )?;
            }
            if config.durable {
                // Recovery from a crash in superstep 0 starts from the
                // initialized state instead of replaying graph loading.
                checkpoint_all(sessions)?;
            }
            (0, FxHashMap::default())
        }
    };
    let mut stats = superstep_loop(
        sessions,
        program,
        config,
        num_vertices,
        start_superstep,
        prev_aggregates,
        &edges,
    )?;
    if config.durable {
        // Land the final state in segment files and truncate each log.
        checkpoint_all(sessions)?;
    }
    stats.projection_build_secs = projection_build_secs;
    stats.total_secs = total.elapsed_secs();
    Ok(stats)
}

fn checkpoint_all(sessions: &[GraphSession]) -> VertexicaResult<()> {
    for sess in sessions {
        sess.db().checkpoint()?;
    }
    Ok(())
}

fn superstep_loop<P: VertexProgram + 'static>(
    sessions: &[GraphSession],
    program: Arc<P>,
    config: &VertexicaConfig,
    num_vertices: u64,
    start_superstep: u64,
    mut prev_aggregates: FxHashMap<String, f64>,
    edges: &[Option<Arc<EdgeProjection>>],
) -> VertexicaResult<RunStats> {
    let n = sessions.len();
    // The crash-repair retention, which only a durable sharded run keeps.
    let msg_prev_table =
        (n >= 2 && config.durable).then(|| message_prev_table_name(sessions[0].name()));
    let agg_specs: FxHashMap<String, AggKind> =
        program.aggregators().into_iter().map(|s| (s.name.to_string(), s.kind)).collect();
    let mut stats = RunStats {
        projection_bytes: edges.iter().flatten().map(|e| e.estimated_bytes()).sum(),
        ..RunStats::default()
    };
    let max_supersteps = config.max_supersteps.min(program.max_supersteps());
    let mut superstep = start_superstep;

    loop {
        if superstep >= max_supersteps {
            break;
        }
        // Two-phase halting vote, phase one: sum per-shard pending/active
        // counts. The vote (here and the post-apply phase two below) is the
        // only superstep-wide synchronization point — rows never barrier.
        // Within a run phase two of the previous superstep already decided
        // it; only a *resumed* run asks the tables, once.
        if superstep == start_superstep && start_superstep > 0 {
            let mut pending = 0i64;
            let mut active = 0i64;
            for sess in sessions {
                pending += sess
                    .db()
                    .query_int(&format!("SELECT COUNT(*) FROM {}", sess.message_table()))?;
                active += sess.db().query_int(&format!(
                    "SELECT COUNT(*) FROM {} WHERE halted = FALSE",
                    sess.vertex_table()
                ))?;
            }
            if pending == 0 && active == 0 {
                break;
            }
        }

        // Shard 0 runs on this thread, every other shard on a thread of its
        // own (a thread per superstep would give a one-shard run a fresh
        // allocator arena each superstep, which measurably raised peak RSS on
        // the durable workloads). Outboxes and the two rendezvous tie them
        // together. A shard that errors or panics raises the exchange abort
        // so its peers unstick, then the first error propagates — a panic
        // never unwinds into the caller.
        let exchange = Exchange::new(n);
        let run = |k: usize| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_shard_superstep(
                    &sessions[k],
                    &program,
                    config,
                    k,
                    &exchange,
                    superstep,
                    num_vertices,
                    &prev_aggregates,
                    &agg_specs,
                    msg_prev_table.as_deref(),
                    edges[k].clone(),
                )
            }))
            .unwrap_or_else(|_| {
                Err(VertexicaError::Runtime(format!("shard {k} panicked in superstep {superstep}")))
            });
            if result.is_err() {
                exchange.fail(k);
            }
            result
        };
        let results: Vec<VertexicaResult<ShardReport>> = std::thread::scope(|scope| {
            let run = &run;
            let peers: Vec<_> = (1..n).map(|k| scope.spawn(move || run(k))).collect();
            let mut results = vec![run(0)];
            results.extend(peers.into_iter().map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(VertexicaError::Runtime("shard thread join failed".into()))
                })
            }));
            results
        });
        let mut reports = Vec::with_capacity(n);
        for r in results {
            reports.push(r?);
        }

        // Every shard folded the same global aggregates before its commit.
        let aggregates = std::mem::take(&mut reports[0].aggregates);

        let messages: usize = reports.iter().map(|r| r.outcome.messages).sum();
        let vertex_changes: usize = reports.iter().map(|r| r.outcome.vertex_changes).sum();
        let all_halted = reports.iter().all(|r| r.outcome.all_halted);
        let total_rows: u64 = reports.iter().map(|r| r.input_rows).sum();
        let mean_rows = total_rows as f64 / n as f64;
        let shard_skew = if mean_rows > 0.0 {
            reports.iter().map(|r| r.input_rows).max().unwrap_or(0) as f64 / mean_rows
        } else {
            1.0
        };
        let fmax = |f: fn(&ShardReport) -> f64| reports.iter().map(f).fold(0.0f64, f64::max);

        prev_aggregates = aggregates.clone();
        stats.per_superstep.push(SuperstepStats {
            superstep,
            messages,
            vertex_changes,
            replaced: reports.iter().any(|r| r.outcome.replaced),
            assemble_secs: fmax(|r| r.pipeline.assemble_secs),
            compute_secs: fmax(|r| r.pipeline.compute_secs),
            apply_secs: fmax(|r| r.apply_secs),
            apply_parallelism: config.num_workers.max(1),
            overlap_secs: fmax(|r| r.pipeline.overlap_secs),
            queue_wait_secs: reports.iter().map(|r| r.pool_delta.queue_wait_secs).sum(),
            steals: reports.iter().map(|r| r.pool_delta.tasks_stolen).sum(),
            nested_scopes: reports.iter().map(|r| r.pool_delta.nested_scopes).sum(),
            peak_batch_bytes: reports
                .iter()
                .map(|r| r.pipeline.peak_chunk_bytes)
                .max()
                .unwrap_or(0),
            input_bytes: reports.iter().map(|r| r.pipeline.input_bytes).sum(),
            peak_resident_scan_bytes: reports
                .iter()
                .map(|r| r.pipeline.peak_resident_scan_bytes)
                .sum(),
            early_dispatches: reports.iter().map(|r| r.pipeline.early_dispatches).sum(),
            wal_records: reports.iter().map(|r| r.wal_records).sum(),
            wal_bytes: reports.iter().map(|r| r.wal_bytes).sum(),
            flush_bytes: reports.iter().map(|r| r.flush_bytes).sum(),
            resident_bytes: reports.iter().map(|r| r.resident_bytes).sum(),
            evictions: reports.iter().map(|r| r.evictions).sum(),
            reloads: reports.iter().map(|r| r.reloads).sum(),
            remote_messages: exchange.remote_messages.load(Ordering::Relaxed),
            routed_bytes: exchange.routed_bytes.load(Ordering::Relaxed),
            shard_skew,
        });
        stats.total_messages += messages as u64;
        stats.supersteps = superstep + 1 - start_superstep;
        stats.aggregates = aggregates;

        // Two-phase halting vote, phase two: every shard's outcome counted.
        if messages == 0 && all_halted {
            break;
        }
        superstep += 1;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Crash repair.
// ---------------------------------------------------------------------------

/// Brings every shard to the same superstep boundary after a crash.
///
/// Call after [`ShardedDatabase::open`] + [`ShardedGraphSession::open`]
/// (which already replayed each shard's WAL and asserted stamp spread ≤ 1).
/// If all shards stamp the same superstep there is nothing to do
/// (`Ok(None)`). If some shard is one behind — the crash hit between two
/// shards' apply commits — the behind shard **re-runs** the missing
/// superstep locally: its own tables still hold exactly that superstep's
/// local input, and its remote-owned input rows are read from each peer
/// (the peer's retained `_message_prev` table if the peer committed the
/// superstep, its live message table if it is equally behind). The re-run
/// commit is bitwise-identical to the one the crash interrupted — same
/// input multiset, same canonical worker sort, same apply — and idempotent:
/// crashing *during repair* just repairs again. Returns the repaired
/// superstep number.
pub fn repair_if_needed<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<Option<u64>> {
    let n = ss.num_shards();
    let stamps: Vec<Option<Stamp>> =
        ss.shard_sessions().iter().map(read_stamp).collect::<VertexicaResult<_>>()?;
    let numbers: Vec<Option<i64>> =
        stamps.iter().map(|m| m.as_ref().map(|m| m.superstep)).collect();
    let Some((s_min, s_max)) = stamp_range(&ss.name, &numbers)? else { return Ok(None) };
    if s_max == s_min {
        return Ok(None);
    }
    if !ss.db.is_durable() {
        return Err(VertexicaError::Runtime(
            "cannot repair a non-durable sharded database: no retained message input".into(),
        ));
    }
    // stamp_range checked that every shard has a stamp.
    let stamps: Vec<Stamp> = stamps.into_iter().flatten().collect();
    let ahead = stamps
        .iter()
        .find(|m| m.superstep == s_max)
        .ok_or_else(|| VertexicaError::Runtime("no shard holds the newest stamp".into()))?;
    if ahead.num_shards != n {
        return Err(VertexicaError::Recovery(format!(
            "graph {}: stamped by a {}-shard run but the database has {n} shards",
            ss.name, ahead.num_shards
        )));
    }
    let superstep = s_max as u64;

    let c = sharded_config(config, n, true);
    for sess in ss.shard_sessions() {
        sess.db().runtime().resize(c.num_workers);
    }
    let mut numbers: Vec<i64> = stamps.iter().map(|m| m.superstep).collect();
    for (b, behind) in stamps.iter().enumerate() {
        if behind.superstep == s_max {
            continue;
        }
        repair_shard(ss, &program, &c, b, superstep, behind, &ahead.aggregates, &numbers)?;
        // The repaired shard's `_message_prev` now holds the superstep's
        // input (like any shard that committed it) — later behind shards
        // must read it from there, not from the now-advanced live table.
        numbers[b] = s_max;
    }
    ss.db.checkpoint()?;
    Ok(Some(superstep))
}

/// Re-runs one missing superstep on one behind shard (see
/// [`repair_if_needed`] for the protocol): with the shard's own stamp's
/// aggregates as input, and the ahead shard's `aggregates` — the
/// superstep's global output — in the stamp it commits.
#[allow(clippy::too_many_arguments)]
fn repair_shard<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: &Arc<P>,
    config: &VertexicaConfig,
    shard: usize,
    superstep: u64,
    behind: &Stamp,
    aggregates: &FxHashMap<String, f64>,
    stamps: &[i64],
) -> VertexicaResult<()> {
    let n = ss.num_shards();
    let sess = &ss.shard_sessions()[shard];
    let db = sess.db();
    let msg_prev_table = ss.message_prev_table();

    // Remote-owned input rows from every peer's copy of the superstep's
    // message input, reshaped to the union-schema wire format.
    let mut remote: Vec<RecordBatch> = Vec::new();
    for (j, peer) in ss.shard_sessions().iter().enumerate() {
        if j == shard {
            continue;
        }
        let table = if stamps[j] == superstep as i64 {
            msg_prev_table.clone()
        } else {
            peer.message_table()
        };
        for batch in peer.db().scan_table(&table, None, &[])? {
            for (d, piece) in split_batch(&batch, &[0], n).map_err(VertexicaError::from)? {
                if d == shard {
                    remote.push(message_union_batch(&piece)?);
                }
            }
        }
    }

    // Retain this shard's own message input before apply swaps it, for
    // idempotence and for any peer repaired after us.
    let msg_prev_segments =
        db.encode_segments_for(&msg_prev_table, db.scan_table(&sess.message_table(), None, &[])?)?;

    let (edges, _) = crate::projection::for_run(sess, config)?;
    let edge_rows = edges.is_none();
    let worker: Arc<dyn TransformUdf> = Arc::new(VertexWorker {
        program: program.clone(),
        superstep,
        num_vertices: behind.num_vertices,
        prev_aggregates: Arc::new(behind.aggregates.clone()),
        use_combiner: config.use_combiner,
        pool: Some(db.runtime().clone()),
        edges,
    });
    let parts = config.num_partitions.max(1);
    let apply = ParallelApply::for_program(program.as_ref(), config.num_workers.max(1));
    let mut remote = Some(remote);
    db.run_transform_pipelined(
        &worker,
        vec![0],
        parts,
        None,
        &mut |chunk_sink| {
            let peak = assemble_chunks(
                sess,
                config.input_mode,
                config.stream_chunk_rows,
                edge_rows,
                &mut |chunk| {
                    for (d, piece) in split_batch(&chunk, &[0], n).map_err(VertexicaError::from)? {
                        // Own rows feed the worker. Remote-owned rows in the
                        // local message table were already consumed by their
                        // (ahead or just-repaired) owners — drop them.
                        if d == shard {
                            chunk_sink(piece).map_err(VertexicaError::from)?;
                        }
                    }
                    Ok(())
                },
            )
            .map_err(|e| match e {
                VertexicaError::Sql(e) => e,
                other => SqlError::Execution(other.to_string()),
            })?;
            for piece in remote.take().unwrap_or_default() {
                chunk_sink(piece)?;
            }
            Ok(peak)
        },
        &|idx, out| apply.absorb(idx, &out).map_err(|e| SqlError::Udf(e.to_string())),
    )?;

    let extra = vec![
        stamp_segments(sess, superstep as i64, behind.num_vertices, n, aggregates)?,
        (msg_prev_table, msg_prev_segments),
    ];
    apply_parallel(sess, program.as_ref(), config, apply, behind.num_vertices, extra)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::tests::MaxId;
    use crate::coordinator::{resume_program, run_program};
    use vertexica_storage::partition::int_key_partition;

    /// Two components joined through several cross-owner edges, big enough
    /// that 2 and 3 shards each own something.
    fn chain_graph() -> EdgeList {
        let mut pairs = Vec::new();
        for i in 0..19u64 {
            pairs.push((i, i + 1));
            pairs.push((i + 1, i));
        }
        pairs.push((30, 31));
        pairs.push((31, 30));
        EdgeList::from_pairs(pairs)
    }

    fn test_config() -> VertexicaConfig {
        VertexicaConfig::default()
            .with_workers(2)
            .with_partitions(8)
            .with_combiner(false)
            .with_replace_threshold(0.0)
    }

    fn plain_run() -> (Vec<(VertexId, u64)>, RunStats) {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &test_config()).unwrap();
        (g.vertex_values().unwrap(), stats)
    }

    fn sharded_run(n: usize) -> (Vec<(VertexId, u64)>, RunStats) {
        let db = ShardedDatabase::new(n);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        let stats = run_sharded(&ss, Arc::new(MaxId), &test_config()).unwrap();
        (ss.vertex_values().unwrap(), stats)
    }

    #[test]
    fn sharded_matches_single_database() {
        let (vals1, stats1) = plain_run();
        for n in [2usize, 3] {
            let (vals_n, stats_n) = sharded_run(n);
            assert_eq!(vals1, vals_n, "{n} shards: vertex values diverged");
            assert_eq!(stats1.total_messages, stats_n.total_messages, "{n} shards");
            assert_eq!(stats1.supersteps, stats_n.supersteps, "{n} shards");
            for (a, b) in stats1.per_superstep.iter().zip(&stats_n.per_superstep) {
                assert_eq!(a.messages, b.messages, "{n} shards, superstep {}", a.superstep);
                assert_eq!(a.vertex_changes, b.vertex_changes, "{n} shards");
            }
            // The chain crosses owners, so rows actually routed.
            assert!(
                stats_n.per_superstep.iter().map(|s| s.remote_messages).sum::<u64>() > 0,
                "{n} shards: expected cross-shard routing"
            );
            assert!(
                stats_n.per_superstep.iter().map(|s| s.routed_bytes).sum::<u64>() > 0,
                "{n} shards: routed bytes untracked"
            );
            assert!(stats_n.per_superstep.iter().all(|s| s.shard_skew >= 1.0));
        }
    }

    #[test]
    fn one_shard_collapses_to_plain_run() {
        let (vals1, stats1) = plain_run();
        let (vals_s, stats_s) = sharded_run(1);
        assert_eq!(vals1, vals_s);
        assert_eq!(stats1.total_messages, stats_s.total_messages);
        assert_eq!(stats1.supersteps, stats_s.supersteps);
        let exact = |stats: &RunStats| -> Vec<_> {
            stats
                .per_superstep
                .iter()
                .map(|s| (s.messages, s.vertex_changes, s.replaced, s.input_bytes))
                .collect()
        };
        assert_eq!(exact(&stats1), exact(&stats_s));
        // A 1-shard run never routes and is perfectly balanced.
        for stats in [&stats1, &stats_s] {
            assert!(stats
                .per_superstep
                .iter()
                .all(|s| s.remote_messages == 0 && s.routed_bytes == 0 && s.shard_skew == 1.0));
        }
    }

    #[test]
    fn sharded_load_partitions_by_ownership_hash() {
        let db = ShardedDatabase::new(3);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        assert_eq!(ss.num_vertices().unwrap(), 32);
        assert_eq!(ss.num_edges().unwrap(), 40);
        for (k, sess) in ss.shard_sessions().iter().enumerate() {
            // Every local vertex and edge row is owned by this shard.
            for row in sess.db().query(&format!("SELECT id FROM {}", sess.vertex_table())).unwrap()
            {
                let id = row[0].as_int().unwrap();
                assert_eq!(int_key_partition(id, 3), k, "vertex {id} misplaced");
            }
            for row in sess.db().query(&format!("SELECT src FROM {}", sess.edge_table())).unwrap() {
                let src = row[0].as_int().unwrap();
                assert_eq!(int_key_partition(src, 3), k, "edge src {src} misplaced");
            }
        }
    }

    /// Replaces `sess`'s stamp table contents with `rows`.
    fn write_stamp_rows(sess: &GraphSession, rows: &[Vec<Value>]) {
        let batch = RecordBatch::from_rows(stamp_schema(), rows).unwrap();
        let segments = sess.db().encode_segments_for(&sess.stamp_table(), vec![batch]).unwrap();
        sess.db().commit_tables_segmented(vec![(sess.stamp_table(), segments)]).unwrap();
    }

    #[test]
    fn meta_roundtrip() {
        let db = ShardedDatabase::new(2);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        let mut aggs = FxHashMap::default();
        aggs.insert("sum".to_string(), 0.1 + 0.2); // not exactly representable
        let sess = &ss.shard_sessions()[0];
        write_stamp_rows(sess, &stamp_rows(7, 42, 2, &aggs));
        let stamp = read_stamp(sess).unwrap().unwrap();
        assert_eq!(stamp.superstep, 7);
        assert_eq!(stamp.num_vertices, 42);
        assert_eq!(stamp.num_shards, 2);
        // Bit-exact f64 round trip through the Int column.
        assert_eq!(stamp.aggregates["sum"].to_bits(), (0.1f64 + 0.2).to_bits());
        // An un-stamped shard reads as None.
        assert!(read_stamp(&ss.shard_sessions()[1]).unwrap().is_none());
    }

    /// Every way a stamp row can be damaged is a typed error, never a
    /// skipped row or a default.
    #[test]
    fn strict_stamp_reader_rejects_damaged_rows() {
        let mut aggs = FxHashMap::default();
        aggs.insert("dangling".to_string(), 0.25);
        let good = stamp_rows(4, 10, 1, &aggs);
        assert!(parse_stamp("t", &good).unwrap().is_some());
        let str_row = |k: &str, v: i64| vec![Value::Str(k.into()), Value::Int(v)];
        let mut damaged: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
        // A lost aggregate row: the count row catches it.
        damaged.push(("lost aggregate", good[..4].to_vec()));
        damaged.push(("lost fixed key", good[1..].to_vec()));
        let mut dup = good.clone();
        dup.push(str_row("superstep", 5));
        damaged.push(("duplicate key", dup));
        let mut dup_agg = good.clone();
        dup_agg.push(good[4].clone());
        damaged.push(("duplicate aggregate", dup_agg));
        let mut unknown = good.clone();
        unknown.push(str_row("bogus", 1));
        damaged.push(("unknown key", unknown));
        let mut null_value = good.clone();
        null_value[0][1] = Value::Null;
        damaged.push(("null value", null_value));
        let mut int_key = good.clone();
        int_key[2][0] = Value::Int(3);
        damaged.push(("non-string key", int_key));
        let mut negative = good.clone();
        negative[2] = str_row("num_shards", 0);
        damaged.push(("zero shards", negative));
        for (what, rows) in damaged {
            assert!(
                matches!(parse_stamp("t", &rows), Err(VertexicaError::Recovery(_))),
                "{what}: the stamp must be refused"
            );
        }
    }

    #[test]
    fn resume_without_a_stamp_is_a_typed_error() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let err = resume_program(&g, Arc::new(MaxId), &test_config());
        assert!(matches!(err, Err(VertexicaError::Recovery(_))), "{err:?}");
    }

    /// In-process resume: a capped run continued with `resume_program` /
    /// `resume_sharded` lands exactly where the uncapped run does, at one
    /// and at three shards.
    #[test]
    fn capped_run_resumes_to_the_uncapped_result() {
        let (expected, full) = plain_run();
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let first =
            run_program(&g, Arc::new(MaxId), &test_config().with_max_supersteps(3)).unwrap();
        let rest = resume_program(&g, Arc::new(MaxId), &test_config()).unwrap();
        assert_eq!(g.vertex_values::<u64>().unwrap(), expected);
        assert_eq!(first.supersteps + rest.supersteps, full.supersteps);

        let ss = ShardedGraphSession::create(ShardedDatabase::new(3), "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        run_sharded(&ss, Arc::new(MaxId), &test_config().with_max_supersteps(3)).unwrap();
        let rest = resume_sharded(&ss, Arc::new(MaxId), &test_config()).unwrap();
        assert_eq!(ss.vertex_values::<u64>().unwrap(), expected);
        assert_eq!(first.supersteps + rest.supersteps, full.supersteps);
        assert_eq!(ss.stamps().unwrap(), vec![Some(full.supersteps as i64 - 1); 3]);
    }

    #[test]
    fn plain_session_gets_no_bookkeeping_tables() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let before = db.catalog().list().len();
        run_program(&g, Arc::new(MaxId), &test_config()).unwrap();
        assert_eq!(db.catalog().list().len(), before, "a one-shard run creates no tables");
    }

    #[test]
    fn counts_board_aborts_instead_of_hanging() {
        let board = Board::new(2);
        let abort = AtomicBool::new(true);
        let err = board.exchange(0, vec![vec![0]], &abort);
        assert!(err.is_err(), "an aborted exchange must not wait for the missing shard");
    }
}

/// Bounded model checks of the rendezvous: every interleaving of two
/// depositing shards must hand both the complete set, and a shard that
/// fails before depositing must unstick its waiting peer via the abort
/// flag — at the counts board and at the partials board after it. Compiled
/// only under `RUSTFLAGS='--cfg vertexica_model'`.
#[cfg(all(test, vertexica_model))]
mod model_tests {
    use super::*;
    use vertexica_common::sync::model::{self, Config, ViolationKind};

    /// Both shards deposit and rendezvous: each must observe the full,
    /// identical matrix, whichever order deposits and waits interleave in.
    fn rendezvous_scenario() {
        let board = Arc::new(Board::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let peer = {
            let board = board.clone();
            let abort = abort.clone();
            model::spawn(move || {
                board.exchange(1, vec![vec![10], vec![11]], &abort).expect("peer exchange")
            })
        };
        let mine = board.exchange(0, vec![vec![0], vec![1]], &abort).expect("exchange");
        let theirs = peer.join();
        assert_eq!(mine, theirs, "shards observed different count matrices");
        assert_eq!(mine[0], vec![vec![0], vec![1]]);
        assert_eq!(mine[1], vec![vec![10], vec![11]]);
    }

    /// Shard 1 fails before depositing: shard 0's timed wait must notice
    /// the abort flag and error out instead of waiting for a deposit that
    /// will never come.
    fn abort_scenario() {
        let board = Arc::new(Board::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let failer = {
            let abort = abort.clone();
            model::spawn(move || abort.store(true, Ordering::Release))
        };
        let res = board.exchange(0, vec![vec![1]], &abort);
        failer.join();
        assert!(res.is_err(), "abort must unstick the counts rendezvous");
    }

    /// One superstep's two meetings: both shards swap counts, then shard 1
    /// fails (as a shard whose compute errored does) instead of depositing
    /// its partials. Shard 0 must get the full counts set and then an error
    /// from the partials board, whatever the interleaving.
    fn counts_then_partials_with_failure_scenario() {
        let counts = Arc::new(Board::new(2));
        let partials: Arc<Board<Partials>> = Arc::new(Board::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let failer = {
            let counts = counts.clone();
            let abort = abort.clone();
            model::spawn(move || {
                let seen = counts.exchange(1, vec![vec![5u64]], &abort).expect("peer counts");
                abort.store(true, Ordering::Release);
                seen
            })
        };
        let mine = counts.exchange(0, vec![vec![4u64]], &abort).expect("counts exchange");
        let mine_partials = Arc::new(vec![("sum".to_string(), 0i64, 1.0f64)]);
        let res = partials.exchange(0, mine_partials, &abort);
        assert_eq!(mine, failer.join(), "shards observed different count sets");
        assert_eq!(mine, vec![vec![vec![4]], vec![vec![5]]]);
        assert!(res.is_err(), "a failed peer must unstick the partials rendezvous");
    }

    #[test]
    fn model_shard_counts_then_partials_with_failure_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, counts_then_partials_with_failure_scenario)
            .unwrap_or_else(|v| panic!("two-phase rendezvous violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("cond.wait"), "timed wait never explored: {:?}", stats.ops);
        eprintln!("[model] counts then partials with failure clean: {stats:?}");
    }

    #[test]
    fn model_shard_rendezvous_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, rendezvous_scenario)
            .unwrap_or_else(|v| panic!("counts rendezvous violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        eprintln!("[model] shard rendezvous clean: {stats:?}");
    }

    /// The one-shard case of every run: the lone depositor fills the board
    /// and must get its own matrix back without ever waiting.
    fn single_shard_scenario() {
        let board = Board::new(1);
        let abort = AtomicBool::new(false);
        let mine = board.exchange(0, vec![vec![3, 4]], &abort).expect("exchange");
        assert_eq!(mine, vec![vec![vec![3, 4]]]);
    }

    #[test]
    fn model_shard_rendezvous_single_shard_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, single_shard_scenario)
            .unwrap_or_else(|v| panic!("one-shard rendezvous violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(!stats.ops.contains("cond.wait"), "a lone shard waited: {:?}", stats.ops);
        eprintln!("[model] one-shard rendezvous clean: {stats:?}");
    }

    #[test]
    fn model_shard_abort_unsticks_waiter_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, abort_scenario)
            .unwrap_or_else(|v| panic!("abort-aware wait violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("cond.wait"), "timed wait never explored: {:?}", stats.ops);
        eprintln!("[model] shard abort clean: {stats:?}");
    }

    /// Seeding `shard.skip_abort_recheck` (drop the abort poll from the
    /// wait loop) strands the waiter on a rendezvous that can never fill;
    /// once its timeout-wake budget is spent the checker must report the
    /// stuck state as a deadlock, deterministically.
    #[test]
    fn model_shard_skip_abort_recheck_mutation_detected() {
        let cfg = Config {
            max_preemptions: 2,
            mutation: Some("shard.skip_abort_recheck"),
            ..Config::default()
        };
        let v1 = model::check(&cfg, abort_scenario)
            .expect_err("seeded missing-abort-poll bug must be detected");
        assert_eq!(v1.kind, ViolationKind::Deadlock, "unexpected violation:\n{v1}");
        let v2 = model::check(&cfg, abort_scenario).expect_err("second run must also fail");
        assert_eq!(v1.schedule, v2.schedule, "minimal schedule not deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
        eprintln!("[model] shard mutation:\n{v1}");
        // The same poll guards the second meeting: without it, shard 0
        // strands on the partials board its failed peer never fills.
        let v3 = model::check(&cfg, counts_then_partials_with_failure_scenario)
            .expect_err("the missing abort poll must be detected at the partials board");
        assert_eq!(v3.kind, ViolationKind::Deadlock, "unexpected violation:\n{v3}");
    }
}
