//! Superstep checkpointing.
//!
//! The paper's pitch (§1) includes relational features that dedicated graph
//! systems forgo — "transactions, checkpointing and recovery, fault
//! tolerance". Here the coordinator can persist the vertex and message
//! tables plus the aggregator state every N supersteps and resume after a
//! crash ([`crate::coordinator::resume_program`]).
//!
//! A checkpoint directory holds one vertex and one message image per saved
//! superstep, `<table>.<superstep>.vxtb`, and `meta.txt`, which names the
//! superstep and its aggregates. `meta.txt` is the commit point: [`save`]
//! writes and syncs both images first, replaces `meta.txt` by an atomic
//! rename, and only then removes the superseded images — so a crash at any
//! point leaves the previous checkpoint or the new one, never a mix.
//! [`restore`] reads and decodes everything before it touches a live table.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use vertexica_common::hash::FxHashMap;
use vertexica_storage::{persist, Table};

use crate::error::{VertexicaError, VertexicaResult};
use crate::session::GraphSession;

/// State recovered from a checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// The last *completed* superstep.
    pub superstep: u64,
    pub aggregates: FxHashMap<String, f64>,
}

const META: &str = "meta.txt";

/// The image file of `table` in the checkpoint of `superstep`.
fn image_name(table: &str, superstep: u64) -> String {
    format!("{table}.{superstep}.vxtb")
}

fn io_error(what: &'static str) -> impl Fn(std::io::Error) -> VertexicaError {
    move |e| VertexicaError::Checkpoint(format!("{what}: {e}"))
}

/// Writes `bytes` to `path` and syncs them to disk.
fn write_synced(path: &Path, bytes: &[u8]) -> VertexicaResult<()> {
    let mut file = std::fs::File::create(path).map_err(io_error("create file"))?;
    file.write_all(bytes).and_then(|_| file.sync_all()).map_err(io_error("write file"))
}

/// Makes the entries created or renamed in `dir` durable.
fn sync_dir(dir: &Path) -> VertexicaResult<()> {
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io_error("sync dir"))
}

/// Writes a checkpoint: vertex table, message table, and a metadata file.
pub fn save(
    session: &GraphSession,
    dir: impl AsRef<Path>,
    superstep: u64,
    aggregates: &FxHashMap<String, f64>,
) -> VertexicaResult<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(io_error("create dir"))?;
    let tables = [session.vertex_table(), session.message_table()];
    let images = tables.clone().map(|table| image_name(&table, superstep));
    for (table_name, image) in tables.iter().zip(&images) {
        let table = session.db().catalog().get(table_name)?;
        let bytes = persist::table_to_bytes(&table.read())?;
        write_synced(&dir.join(image), &bytes)?;
    }
    sync_dir(dir)?;

    // The commit point: the new meta.txt appears whole, after the images.
    let mut meta = format!("superstep={superstep}\n");
    let mut names: Vec<&String> = aggregates.keys().collect();
    names.sort();
    for name in names {
        // `f64`'s Display is the shortest string that parses back exactly.
        writeln!(meta, "agg.{name}={}", aggregates[name]).expect("writing to a String");
    }
    let staged = dir.join(format!("{META}.tmp"));
    write_synced(&staged, meta.as_bytes())?;
    std::fs::rename(&staged, dir.join(META)).map_err(io_error("commit meta"))?;
    sync_dir(dir)?;

    // Superseded images: every other image of the two tables.
    for entry in std::fs::read_dir(dir).map_err(io_error("list dir"))? {
        let name = entry.map_err(io_error("list dir"))?.file_name();
        let name = name.to_string_lossy();
        let ours = tables.iter().any(|t| name.starts_with(&format!("{t}.")));
        if ours && name.ends_with(".vxtb") && !images.iter().any(|i| *i == name) {
            std::fs::remove_file(dir.join(&*name)).map_err(io_error("remove old image"))?;
        }
    }
    Ok(())
}

/// Parses `meta.txt`. Every line must be `key=value`; the `superstep` and
/// `agg.*` values must parse — a skipped aggregate would resume with a
/// silently wrong value (PageRank's dangling mass, say).
fn parse_meta(meta: &str) -> VertexicaResult<CheckpointState> {
    let bad =
        |line: &str| VertexicaError::Checkpoint(format!("meta.txt: unparsable line {line:?}"));
    let mut superstep: Option<u64> = None;
    let mut aggregates = FxHashMap::default();
    for line in meta.lines() {
        let (key, value) = line.split_once('=').ok_or_else(|| bad(line))?;
        if key == "superstep" {
            superstep = Some(value.parse().map_err(|_| bad(line))?);
        } else if let Some(name) = key.strip_prefix("agg.") {
            aggregates.insert(name.to_string(), value.parse::<f64>().map_err(|_| bad(line))?);
        }
    }
    let superstep =
        superstep.ok_or_else(|| VertexicaError::Checkpoint("meta.txt missing superstep".into()))?;
    Ok(CheckpointState { superstep, aggregates })
}

/// Restores a checkpoint into the session's tables and returns the state.
/// Both images are read and decoded first; the two tables are then swapped
/// in one grouped catalog commit, so a missing or corrupt image fails the
/// restore with both tables untouched.
pub fn restore(session: &GraphSession, dir: impl AsRef<Path>) -> VertexicaResult<CheckpointState> {
    let dir = dir.as_ref();
    let meta = std::fs::read_to_string(dir.join(META)).map_err(io_error("read meta"))?;
    let state = parse_meta(&meta)?;
    let catalog = session.db().catalog();
    let mut replacements = Vec::with_capacity(2);
    for table_name in [session.vertex_table(), session.message_table()] {
        let restored = persist::read_table(dir.join(image_name(&table_name, state.superstep)))?;
        let (name, schema, options) = {
            let live = catalog.get(&table_name)?;
            let guard = live.read();
            (guard.name().to_string(), guard.schema().clone(), guard.options().clone())
        };
        let mut fresh = Table::new(name, schema, options);
        for batch in &restored.scan(None, &[])? {
            fresh.append_batch(batch)?;
        }
        replacements.push((table_name, fresh));
    }
    catalog.replace_contents_many(replacements)?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::message_batch;
    use std::sync::Arc;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::VertexData;
    use vertexica_sql::Database;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("vertexica_ckpt_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A three-vertex session with one pending message.
    fn session() -> GraphSession {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2)])).unwrap();
        let msgs = message_batch(&[(1, 0, 4.25f64.to_bytes())]).unwrap();
        db.append_batches(&g.message_table(), &[msgs]).unwrap();
        g
    }

    fn count(g: &GraphSession, table: &str) -> i64 {
        g.db().query_int(&format!("SELECT COUNT(*) FROM {table}")).unwrap()
    }

    /// The checkpoint files in `dir` whose names start with `prefix`.
    fn files(dir: &Path, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(prefix))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_restore_roundtrip() {
        let g = session();
        let mut aggs = FxHashMap::default();
        aggs.insert("sum".to_string(), 0.1 + 0.2);
        let dir = temp_dir("roundtrip");
        save(&g, &dir, 7, &aggs).unwrap();

        // Clobber live state.
        g.db().execute(&format!("DELETE FROM {}", g.message_table())).unwrap();
        g.db().execute(&format!("DELETE FROM {} WHERE id = 0", g.vertex_table())).unwrap();

        let state = restore(&g, &dir).unwrap();
        assert_eq!(state.superstep, 7);
        // Bit-exact through the text file.
        assert_eq!(state.aggregates["sum"].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(g.num_vertices().unwrap(), 3);
        assert_eq!(count(&g, &g.message_table()), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_without_checkpoint_fails() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        let dir = temp_dir("missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(restore(&g, &dir).is_err());
    }

    #[test]
    fn corrupt_meta_fails() {
        let g = session();
        let dir = temp_dir("corrupt");
        save(&g, &dir, 3, &FxHashMap::default()).unwrap();
        for meta in ["nonsense", "superstep=three", "superstep=3\nagg.dangling=0.5x"] {
            std::fs::write(dir.join(META), meta).unwrap();
            assert!(
                matches!(restore(&g, &dir), Err(VertexicaError::Checkpoint(_))),
                "{meta:?} must not restore"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A missing message image fails the restore before either table is
    /// touched: the vertex table is not rewound on its own.
    #[test]
    fn restore_is_all_or_nothing() {
        let g = session();
        let dir = temp_dir("atomic");
        save(&g, &dir, 3, &FxHashMap::default()).unwrap();
        g.db().execute(&format!("DELETE FROM {} WHERE id = 0", g.vertex_table())).unwrap();
        for image in files(&dir, &format!("{}.", g.message_table())) {
            std::fs::remove_file(dir.join(image)).unwrap();
        }
        assert!(restore(&g, &dir).is_err());
        assert_eq!(g.num_vertices().unwrap(), 2, "the vertex table was rewound alone");
        assert_eq!(count(&g, &g.message_table()), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `meta.txt` is the commit point: a crash in `save` after the new
    /// vertex image is written still restores the previous checkpoint whole,
    /// and a completed save leaves only its own images behind.
    #[test]
    fn save_commits_at_meta() {
        let g = session();
        let (old, new) = (temp_dir("commit_old"), temp_dir("commit_new"));
        save(&g, &old, 3, &FxHashMap::default()).unwrap();
        g.db().execute(&format!("DELETE FROM {} WHERE id = 0", g.vertex_table())).unwrap();
        save(&g, &new, 5, &FxHashMap::default()).unwrap();
        // The crashed save's directory: the old checkpoint plus the new
        // vertex image, written the way `save` writes it.
        for image in files(&new, &format!("{}.", g.vertex_table())) {
            std::fs::copy(new.join(&image), old.join(&image)).unwrap();
        }
        assert_eq!(restore(&g, &old).unwrap().superstep, 3);
        assert_eq!(g.num_vertices().unwrap(), 3, "a new vertex image restored beside old meta");

        save(&g, &old, 5, &FxHashMap::default()).unwrap();
        assert_eq!(files(&old, "g_"), ["g_message.5.vxtb", "g_vertex.5.vxtb"]);
        std::fs::remove_dir_all(&old).ok();
        std::fs::remove_dir_all(&new).ok();
    }
}
