//! The headline durability proof: a **real `kill -9`** mid-superstep.
//!
//! The parent test re-invokes this test binary as a child process (selecting
//! [`crash_child_worker`] via `--exact`, armed through the
//! `VERTEXICA_CRASH_CHILD_DIR` environment variable). The child opens a
//! durable database, loads a small graph, and runs an **infinite** vertex
//! program — every vertex stamps its value with the current superstep and
//! never halts, so every superstep commits a full vertex+message replacement
//! through the grouped WAL commit. The parent waits until the child has
//! provably committed supersteps, SIGKILLs it at an arbitrary moment, and
//! recovers the directory.
//!
//! Recovery invariants (each checked deterministically, whatever instant the
//! kill landed on):
//!
//! * `Database::open` succeeds — no torn state is ever fatal;
//! * the vertex table holds exactly the graph's vertices;
//! * **every vertex carries the same superstep stamp** — a torn multi-table
//!   or multi-segment apply would leave mixed stamps;
//! * reopening twice yields bitwise-identical physical images (recovery is
//!   deterministic);
//! * the run resumes from the recovered superstep: `resume_program` /
//!   `resume_sharded` capped `RESUMED` supersteps later leaves every vertex
//!   stamped with the boundary plus `RESUMED`.
//!
//! Each scenario also runs with every buffer pool capped at one byte (the
//! parent writes the budget into the directory's `BUDGET` file for the
//! child), so the killed run and the recovery evict and reload segments.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vertexica::config::VertexicaConfig;
use vertexica::coordinator::{resume_program, run_program};
use vertexica::session::GraphSession;
use vertexica_common::graph::EdgeList;
use vertexica_common::pregel::{InitContext, VertexContext, VertexContextExt, VertexProgram};
use vertexica_common::VertexId;
use vertexica_sql::Database;
use vertexica_storage::persist;

const NUM_VERTICES: u64 = 8;
const GRAPH_NAME: &str = "kill9";
/// Supersteps each test resumes for after recovery.
const RESUMED: u64 = 3;

/// The one stamp every vertex carries, or a panic naming the mixture.
fn uniform_stamp(values: &[(VertexId, u64)]) -> u64 {
    let stamps: std::collections::BTreeSet<u64> = values.iter().map(|(_, v)| *v).collect();
    assert_eq!(
        stamps.len(),
        1,
        "every vertex must carry the same superstep stamp (torn apply otherwise): {stamps:?}"
    );
    stamps.into_iter().next().unwrap_or_default()
}

/// Never halts: every superstep, every vertex stamps the superstep number
/// into its value and messages all neighbors, so every superstep replaces
/// the full vertex table in one atomic grouped commit with a
/// uniformly-stamped generation.
struct SuperstepStamp;

impl VertexProgram for SuperstepStamp {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, _id: VertexId, _init: &InitContext) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut dyn VertexContext<u64, u64>, _messages: &[u64]) {
        let step = ctx.superstep();
        ctx.set_value(step);
        ctx.send_to_all_neighbors(step);
        // No vote_to_halt: run until killed.
    }

    fn name(&self) -> &'static str {
        "superstep_stamp"
    }
}

fn ring() -> EdgeList {
    let pairs: Vec<(u64, u64)> = (0..NUM_VERTICES).map(|v| (v, (v + 1) % NUM_VERTICES)).collect();
    EdgeList::from_pairs(pairs)
}

/// Creates the scenario directory, recording `budget` for the child.
fn scenario_dir(tag: &str, budget: Option<usize>) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vx_kill9_{tag}_{}_{:x}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
            as u64
    ));
    std::fs::create_dir_all(&dir).unwrap();
    if let Some(bytes) = budget {
        std::fs::write(dir.join("BUDGET"), bytes.to_string()).unwrap();
    }
    dir
}

/// The budget [`scenario_dir`] recorded in `dir`.
fn recorded_budget(dir: &Path) -> Option<usize> {
    std::fs::read_to_string(dir.join("BUDGET")).ok()?.parse().ok()
}

/// Opens `dir` as a durable database with its pool capped at `budget`.
fn open_budgeted(dir: &Path, budget: Option<usize>) -> Arc<Database> {
    let db = Database::open(dir).expect("open durable db");
    db.catalog().buffer_pool().set_budget(budget);
    Arc::new(db)
}

/// The child body. A no-op green test in normal runs; armed via env by the
/// parent, it never returns — it computes until SIGKILLed.
#[test]
fn crash_child_worker() {
    let Ok(dir) = std::env::var("VERTEXICA_CRASH_CHILD_DIR") else { return };
    let budget = recorded_budget(Path::new(&dir));
    let db = open_budgeted(Path::new(&dir), budget);
    let session = GraphSession::create(db.clone(), GRAPH_NAME).expect("child: create session");
    session.load_edges(&ring()).expect("child: load edges");
    db.checkpoint().expect("child: baseline checkpoint");
    // Tell the parent the baseline is durable; everything after this point
    // must recover to a uniformly-stamped superstep generation.
    std::fs::write(Path::new(&dir).join("READY"), b"ready").expect("child: ready marker");
    let config = VertexicaConfig::default()
        .with_workers(2)
        .with_partitions(4)
        .with_durable(true)
        .with_memory_budget(budget)
        .with_max_supersteps(u64::MAX);
    // Never returns (the program never halts); the parent kills us.
    run_program(&session, Arc::new(SuperstepStamp), &config).expect("child: run");
    unreachable!("SuperstepStamp never halts");
}

/// A spawned child that is killed and reaped when this goes out of scope —
/// including when an assertion in the parent panics first. The children
/// here never exit on their own, so one that outlives its test keeps two
/// cores busy until someone notices.
struct ChildGuard(std::process::Child);

impl ChildGuard {
    /// Re-invokes this test binary to run only `test`, armed through
    /// `env_var`.
    fn spawn(test: &str, env_var: &str, value: &Path) -> ChildGuard {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", test, "--nocapture", "--test-threads=1"])
            .env(env_var, value)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn child");
        ChildGuard(child)
    }

    fn assert_running(&mut self) {
        assert!(self.0.try_wait().unwrap().is_none(), "child exited prematurely");
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // SIGKILL, then reap. Both fail only if the child is already gone,
        // which is the state this wants.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The leak this guards against: a parent assertion firing before the
/// explicit kill. The guard's drop runs during the unwind and must leave no
/// process behind.
#[cfg(target_os = "linux")]
#[test]
fn child_guard_dropped_by_a_panic_leaves_no_live_child() {
    let pid = std::sync::OnceLock::new();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sleeper = std::process::Command::new("sleep").arg("3600").spawn().expect("spawn sleep");
        let mut guard = ChildGuard(sleeper);
        pid.set(guard.0.id()).unwrap();
        guard.assert_running();
        panic!("a parent assertion fires before the explicit kill");
    }));
    assert!(unwound.is_err());
    let proc_entry = Path::new("/proc").join(pid.get().unwrap().to_string());
    assert!(!proc_entry.exists(), "{} outlived its guard", proc_entry.display());
}

fn catalog_image(catalog: &vertexica_storage::Catalog) -> Vec<(String, Vec<u8>)> {
    let mut names = catalog.list();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let t = catalog.get(&n).unwrap();
            let bytes = persist::table_to_bytes_physical(&t.read()).unwrap();
            (n, bytes)
        })
        .collect()
}

/// Highest allocated table-file id in the directory. File ids are allocated
/// monotonically, and every grouped superstep commit flushes fresh table
/// images — so growth here proves committed supersteps.
fn max_file_id(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_prefix('t')?.strip_suffix(".vxtb")?.parse::<u64>().ok()
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn kill9_mid_superstep_recovers_to_a_committed_superstep() {
    kill9_mid_superstep_recovers(None);
}

#[test]
fn kill9_mid_superstep_recovers_under_a_memory_budget() {
    kill9_mid_superstep_recovers(Some(1));
}

fn kill9_mid_superstep_recovers(budget: Option<usize>) {
    let dir = scenario_dir("single", budget);

    let mut child = ChildGuard::spawn("crash_child_worker", "VERTEXICA_CRASH_CHILD_DIR", &dir);

    // Wait for the durable baseline, then for WAL growth proving committed
    // supersteps are in flight.
    let deadline = Instant::now() + Duration::from_secs(60);
    let ready = dir.join("READY");
    while !ready.exists() {
        assert!(Instant::now() < deadline, "child never became ready");
        child.assert_running();
        std::thread::sleep(Duration::from_millis(10));
    }
    let baseline = max_file_id(&dir);
    while max_file_id(&dir) < baseline + 8 {
        assert!(Instant::now() < deadline, "child never committed supersteps");
        child.assert_running();
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let an arbitrary number of further supersteps land, then SIGKILL.
    std::thread::sleep(Duration::from_millis(150));
    drop(child); // kill -9 and reap

    // ---- recovery ----
    let db = open_budgeted(&dir, budget);
    let session = GraphSession::open(db.clone(), GRAPH_NAME).expect("graph survives");
    let values: Vec<(VertexId, u64)> = session.vertex_values::<u64>().expect("readable vertices");
    assert_eq!(values.len(), NUM_VERTICES as usize, "vertex membership must be exact");
    let boundary = uniform_stamp(&values);

    // Recovery is deterministic: two further opens agree bitwise.
    let image = catalog_image(db.catalog());
    drop(session);
    drop(db);
    let db2 = open_budgeted(&dir, budget);
    let image2 = catalog_image(db2.catalog());
    assert_eq!(image, image2, "reopen must be bitwise-identical");

    // The run resumes from the recovered boundary.
    let session = GraphSession::open(db2.clone(), GRAPH_NAME).expect("graph survives");
    let config = VertexicaConfig::default()
        .with_workers(2)
        .with_partitions(4)
        .with_durable(true)
        .with_memory_budget(budget)
        .with_max_supersteps(boundary + 1 + RESUMED);
    let stats = resume_program(&session, Arc::new(SuperstepStamp), &config).expect("resume");
    assert_eq!(stats.supersteps, RESUMED);
    let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
    assert_eq!(evictions > 0, budget.is_some(), "{evictions} evictions under {budget:?}");
    let values: Vec<(VertexId, u64)> = session.vertex_values::<u64>().expect("readable vertices");
    assert_eq!(values.len(), NUM_VERTICES as usize);
    assert_eq!(uniform_stamp(&values), boundary + RESUMED, "resume must run on from the boundary");
    drop(session);
    drop(db2);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The sharded variant: kill -9 against a 2-shard database.
// ---------------------------------------------------------------------------

use vertexica::shard::{
    repair_if_needed, resume_sharded, run_sharded, ShardedDatabase, ShardedGraphSession,
};

/// The sharded child body: 2 engine shards, the same never-halting stamp
/// program, killed by the parent at an arbitrary instant — possibly between
/// the two shards' apply commits of the same superstep.
#[test]
fn sharded_crash_child_worker() {
    let Ok(dir) = std::env::var("VERTEXICA_SHARD_CRASH_CHILD_DIR") else { return };
    let budget = recorded_budget(Path::new(&dir));
    let db = ShardedDatabase::create(&dir, 2).expect("child: create durable shards");
    set_budgets(&db, budget);
    let ss = ShardedGraphSession::create(db.clone(), GRAPH_NAME).expect("child: create session");
    ss.load_edges(&ring()).expect("child: load edges");
    db.checkpoint().expect("child: baseline checkpoint");
    std::fs::write(Path::new(&dir).join("READY"), b"ready").expect("child: ready marker");
    let config = VertexicaConfig::default()
        .with_workers(2)
        .with_partitions(4)
        .with_memory_budget(budget)
        .with_max_supersteps(u64::MAX);
    // Never returns (the program never halts); the parent kills us.
    run_sharded(&ss, Arc::new(SuperstepStamp), &config).expect("child: run");
    unreachable!("SuperstepStamp never halts");
}

/// kill -9 with shards = 2: recovery must reopen **every** shard, the
/// per-shard superstep stamps must sit within one superstep of each other
/// (the rendezvous bound), recovery must be deterministic (double reopen
/// agrees bitwise), [`repair_if_needed`] must land all shards on the same
/// boundary with every vertex carrying that boundary's stamp, and
/// [`resume_sharded`] must run on from it.
#[test]
fn kill9_mid_superstep_sharded_recovers_and_repairs() {
    kill9_mid_superstep_sharded(None);
}

#[test]
fn kill9_mid_superstep_sharded_recovers_under_a_memory_budget() {
    kill9_mid_superstep_sharded(Some(1));
}

/// Caps every shard's pool at `budget`.
fn set_budgets(db: &ShardedDatabase, budget: Option<usize>) {
    for shard in db.shards() {
        shard.catalog().buffer_pool().set_budget(budget);
    }
}

fn kill9_mid_superstep_sharded(budget: Option<usize>) {
    let dir = scenario_dir("shard", budget);

    let mut child =
        ChildGuard::spawn("sharded_crash_child_worker", "VERTEXICA_SHARD_CRASH_CHILD_DIR", &dir);

    let deadline = Instant::now() + Duration::from_secs(60);
    let ready = dir.join("READY");
    while !ready.exists() {
        assert!(Instant::now() < deadline, "child never became ready");
        child.assert_running();
        std::thread::sleep(Duration::from_millis(10));
    }
    // Both shards must provably commit supersteps before the kill.
    let base0 = max_file_id(&dir.join("shard0"));
    let base1 = max_file_id(&dir.join("shard1"));
    while max_file_id(&dir.join("shard0")) < base0 + 8
        || max_file_id(&dir.join("shard1")) < base1 + 8
    {
        assert!(Instant::now() < deadline, "child never committed sharded supersteps");
        child.assert_running();
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));
    drop(child); // kill -9 and reap

    // ---- recovery ----
    let db = ShardedDatabase::open(&dir).expect("sharded recovery must succeed at any kill point");
    set_budgets(&db, budget);
    let ss = ShardedGraphSession::open(db.clone(), GRAPH_NAME)
        .expect("stamp spread must be within the vote-barrier bound");
    let images: Vec<_> = db.shards().iter().map(|d| catalog_image(d.catalog())).collect();
    drop(ss);
    drop(db);

    // Recovery is deterministic: a second open agrees bitwise, per shard.
    let db = ShardedDatabase::open(&dir).expect("second sharded reopen");
    set_budgets(&db, budget);
    let images2: Vec<_> = db.shards().iter().map(|d| catalog_image(d.catalog())).collect();
    assert_eq!(images, images2, "sharded reopen must be bitwise-identical");

    // Repair lands every shard on the same superstep boundary.
    let ss = ShardedGraphSession::open(db.clone(), GRAPH_NAME).expect("reopen session");
    let config =
        VertexicaConfig::default().with_workers(2).with_partitions(4).with_memory_budget(budget);
    repair_if_needed(&ss, Arc::new(SuperstepStamp), &config).expect("repair must succeed");
    let stamps = ss.stamps().expect("readable stamps");
    let boundary = stamps[0].expect("stamped after repair");
    assert!(
        stamps.iter().all(|s| *s == Some(boundary)),
        "all shards must land on one superstep boundary: {stamps:?}"
    );
    assert_eq!(
        repair_if_needed(&ss, Arc::new(SuperstepStamp), &config).expect("idempotent repair"),
        None,
        "a repaired database needs no further repair"
    );

    // And the merged graph is a uniformly-stamped generation at exactly
    // that boundary.
    let values: Vec<(VertexId, u64)> = ss.vertex_values::<u64>().expect("readable vertices");
    assert_eq!(values.len(), NUM_VERTICES as usize, "vertex membership must be exact");
    let distinct: std::collections::BTreeSet<u64> = values.iter().map(|(_, v)| *v).collect();
    assert_eq!(
        distinct,
        std::collections::BTreeSet::from([boundary as u64]),
        "every vertex must carry the repaired boundary's stamp"
    );

    // The run resumes from the repaired boundary.
    let resume_config = config.with_max_supersteps(boundary as u64 + 1 + RESUMED);
    let stats = resume_sharded(&ss, Arc::new(SuperstepStamp), &resume_config).expect("resume");
    assert_eq!(stats.supersteps, RESUMED);
    let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
    assert_eq!(evictions > 0, budget.is_some(), "{evictions} evictions under {budget:?}");
    let values: Vec<(VertexId, u64)> = ss.vertex_values::<u64>().expect("readable vertices");
    assert_eq!(values.len(), NUM_VERTICES as usize);
    assert_eq!(uniform_stamp(&values), boundary as u64 + RESUMED);
    let resumed = Some(boundary + RESUMED as i64);
    assert_eq!(ss.stamps().expect("readable stamps"), vec![resumed; 2]);
    drop(ss);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
