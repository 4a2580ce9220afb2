//! Durability: write-ahead log, segment flushing, checkpointing, recovery.
//!
//! The paper's pitch is that running graph analytics *inside* a relational
//! engine buys the database features graph systems forgo — durability and
//! recovery chief among them (§1). This module is that layer:
//!
//! * **WAL** — every table mutation (WOS appends, segment adoptions, deletes,
//!   updates, truncates, moveouts) and every catalog DDL is appended to an
//!   append-only, length-prefixed, CRC32-checksummed log *before* the
//!   in-memory mutation is acknowledged. Each record carries a global
//!   monotonically increasing sequence number.
//! * **Segment flushing** — tables are flushed to `t<N>.vxtb` files in the
//!   physical `VXTB2` format ([`crate::persist::table_to_bytes_physical`]),
//!   which preserves the exact WOS/segment/zone-map/delete-vector layout, so
//!   a recovered table is **bitwise identical** under re-serialization.
//! * **Commit marker** — the superstep apply path replaces whole tables via
//!   [`crate::catalog::Catalog::replace_contents_many`]. Its commit protocol
//!   writes the fresh tables' physical bytes to files, then appends **one**
//!   `Commit` record naming all `(table, file)` pairs: the single-frame
//!   append is the atomic commit point covering every swapped table.
//! * **Checkpoint / truncate cycle** — a checkpoint flushes every table,
//!   writes a `MANIFEST` (tmp + rename, CRC-trailed) recording per-table
//!   `(file, watermark)` pairs plus the log's sequence floor, and — when no
//!   live record remains — rotates to a fresh WAL file and garbage-collects
//!   unreferenced files. Replacement commits rotate opportunistically too,
//!   so a long superstep run keeps the log near-empty.
//! * **Recovery** — [`open_durable`] loads the manifest's table files, then
//!   replays WAL records in sequence order, applying a record only if its
//!   seq is at or past the owning table's watermark (DDL gates on the
//!   manifest's global floor). A torn final frame — the signature of a crash
//!   mid-append — is discarded; a *complete* frame with a bad checksum or
//!   tag is [`StorageError::Corrupt`].
//!
//! **Crash injection**: [`WalSink::set_crash_budget`] arms a byte budget on
//! all durable writes. The write that would exceed the budget persists only
//! its in-budget prefix and fails, and every later durable operation fails —
//! exactly a machine losing power mid-`write()`. Because acknowledgement
//! follows logging, the recovery invariant is testable: the reopened
//! database equals the state after the last *acknowledged* operation (or
//! that plus the crashing operation, if its bytes happened to land whole).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use vertexica_common::sync::Mutex;

use crate::catalog::Catalog;
use crate::error::{StorageError, StorageResult};
use crate::persist;
use crate::table::{Row, Segment, TableOptions};
use crate::value::Schema;

/// The CRC-32/ISO-HDLC polynomial (IEEE 802.3), bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables: `CRC32_TABLES[k][b]` is the CRC register
/// contribution of byte `b` followed by `k` zero bytes. Built at compile
/// time.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected; the zlib / PNG checksum) — hand-rolled
/// because the build is offline. Table-driven, slicing-by-16: each 16-byte
/// block folds into the register with 16 independent table lookups, and the
/// tail goes a byte at a time. Every checksum in the durable format (log
/// frames, image trailers, segment spans, the manifest) is this function.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        let seed = crc.to_le_bytes();
        let mut next = 0;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ seed[i] } else { b };
            next ^= t[15 - i][b as usize];
        }
        crc = next;
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// Bit-at-a-time CRC-32: the reference [`crc32`] is checked against.
#[cfg(test)]
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Frame layer (shared with the `graphdb` crate's transaction log)
// ---------------------------------------------------------------------------

/// Encodes one log frame: `[u32 len][u32 crc32(payload)][payload]`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Splits a byte stream into frames. An **incomplete trailing frame** (fewer
/// bytes on disk than its header promises, or a partial header) is the
/// signature of a crash mid-append: it is discarded and reported via the
/// returned `torn_tail` flag. A *complete* frame whose checksum does not
/// match its payload is corruption, not a crash, and fails with
/// [`StorageError::Corrupt`].
pub fn decode_frames(mut bytes: &[u8]) -> StorageResult<(Vec<&[u8]>, bool)> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 8 {
            return Ok((frames, true));
        }
        // vxlint: allow(no-unwrap-recovery) -- infallible: the len >= 8 guard above makes both 4-byte slices exact
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        // vxlint: allow(no-unwrap-recovery) -- infallible: same len >= 8 guard covers bytes[4..8]
        let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if bytes.len() - 8 < len {
            return Ok((frames, true));
        }
        let payload = &bytes[8..8 + len];
        if crc32(payload) != stored_crc {
            return Err(StorageError::Corrupt(format!(
                "log frame checksum mismatch ({len}-byte frame)"
            )));
        }
        frames.push(payload);
        bytes = &bytes[8 + len..];
    }
    Ok((frames, false))
}

/// A minimal length-prefixed, checksummed, append-only frame log over one
/// file — the framing shared by the Vertexica WAL and the `graphdb` crate's
/// transaction log (one frame per committed transaction there). `None` path
/// means ephemeral: appends are no-ops and reads see nothing.
#[derive(Debug)]
pub struct FrameLog {
    file: Option<File>,
    sync: bool,
}

impl FrameLog {
    /// Opens (creating or appending to) the log at `path`.
    pub fn open(path: Option<&Path>, sync: bool) -> StorageResult<FrameLog> {
        let file = match path {
            Some(p) => {
                if let Some(parent) = p.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Some(OpenOptions::new().create(true).append(true).open(p)?)
            }
            None => None,
        };
        Ok(FrameLog { file, sync })
    }

    /// Appends one frame; with `sync`, fdatasyncs before acknowledging.
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<()> {
        if let Some(f) = &mut self.file {
            f.write_all(&encode_frame(payload))?;
            if self.sync {
                f.sync_data()?;
            }
        }
        Ok(())
    }

    /// Reads every complete frame from `path` (missing file = empty log).
    /// The torn-tail flag reports whether a trailing partial append was
    /// discarded.
    pub fn read_frames(path: &Path) -> StorageResult<(Vec<Vec<u8>>, bool)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
            Err(e) => return Err(e.into()),
        };
        let (frames, torn) = decode_frames(&bytes)?;
        Ok((frames.into_iter().map(|f| f.to_vec()).collect(), torn))
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

const WAL_MAGIC: &[u8; 6] = b"VXWL1\n";
const MANIFEST_MAGIC: &[u8; 6] = b"VXMF1\n";
const MANIFEST_NAME: &str = "MANIFEST";

const TAG_INSERT_ROWS: u8 = 1;
const TAG_ADOPT_SEGMENT: u8 = 2;
const TAG_DELETE_ROWIDS: u8 = 3;
const TAG_UPDATE_ROWS: u8 = 4;
const TAG_TRUNCATE: u8 = 5;
const TAG_MOVEOUT: u8 = 6;
const TAG_MERGEOUT: u8 = 7;
const TAG_CREATE_TABLE: u8 = 8;
const TAG_DROP_TABLE: u8 = 9;
const TAG_RENAME_TABLE: u8 = 10;
const TAG_SWAP_TABLES: u8 = 11;
const TAG_REGISTER_TABLE: u8 = 12;
const TAG_COMMIT: u8 = 13;

/// A decoded WAL record. Data records name the table they mutate; DDL
/// records mutate the catalog; `Commit` is the superstep-apply marker naming
/// every `(table, segment file)` pair swapped by one
/// [`Catalog::replace_contents_many`] call.
#[derive(Debug)]
pub enum WalRecord {
    InsertRows { table: String, rows: Vec<Row> },
    AdoptSegment { table: String, segment: Segment },
    DeleteRowids { table: String, rowids: Vec<u64> },
    UpdateRows { table: String, updates: Vec<(u64, Row)> },
    Truncate { table: String },
    Moveout { table: String },
    Mergeout { table: String },
    CreateTable { name: String, schema: Arc<Schema>, options: TableOptions },
    DropTable { name: String },
    RenameTable { from: String, to: String },
    SwapTables { a: String, b: String },
    RegisterTable { physical: Vec<u8> },
    Commit { tables: Vec<(String, String)> },
}

fn tagged(tag: u8, table: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u8(tag);
    persist::put_str(&mut buf, table);
    buf
}

pub(crate) fn payload_insert_rows(table: &str, rows: &[Row]) -> Vec<u8> {
    let mut buf = tagged(TAG_INSERT_ROWS, table);
    buf.put_u32_le(rows.len() as u32);
    for row in rows {
        persist::put_row(&mut buf, row);
    }
    buf
}

pub(crate) fn payload_adopt_segment(table: &str, seg: &Segment) -> Vec<u8> {
    let mut buf = tagged(TAG_ADOPT_SEGMENT, table);
    persist::put_segment(&mut buf, seg);
    buf
}

pub(crate) fn payload_delete_rowids(table: &str, rowids: &[u64]) -> Vec<u8> {
    let mut buf = tagged(TAG_DELETE_ROWIDS, table);
    buf.put_u64_le(rowids.len() as u64);
    for &id in rowids {
        buf.put_u64_le(id);
    }
    buf
}

pub(crate) fn payload_update_rows(table: &str, updates: &[(u64, Row)]) -> Vec<u8> {
    let mut buf = tagged(TAG_UPDATE_ROWS, table);
    buf.put_u32_le(updates.len() as u32);
    for (id, row) in updates {
        buf.put_u64_le(*id);
        persist::put_row(&mut buf, row);
    }
    buf
}

pub(crate) fn payload_truncate(table: &str) -> Vec<u8> {
    tagged(TAG_TRUNCATE, table)
}

pub(crate) fn payload_moveout(table: &str) -> Vec<u8> {
    tagged(TAG_MOVEOUT, table)
}

pub(crate) fn payload_mergeout(table: &str) -> Vec<u8> {
    tagged(TAG_MERGEOUT, table)
}

fn payload_create_table(name: &str, schema: &Schema, options: &TableOptions) -> Vec<u8> {
    let mut buf = tagged(TAG_CREATE_TABLE, name);
    persist::put_schema(&mut buf, schema);
    persist::put_options(&mut buf, options);
    buf
}

fn payload_drop_table(name: &str) -> Vec<u8> {
    tagged(TAG_DROP_TABLE, name)
}

fn payload_rename_table(from: &str, to: &str) -> Vec<u8> {
    let mut buf = tagged(TAG_RENAME_TABLE, from);
    persist::put_str(&mut buf, to);
    buf
}

fn payload_swap_tables(a: &str, b: &str) -> Vec<u8> {
    let mut buf = tagged(TAG_SWAP_TABLES, a);
    persist::put_str(&mut buf, b);
    buf
}

fn payload_register_table(physical: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + physical.len());
    buf.put_u8(TAG_REGISTER_TABLE);
    buf.put_u32_le(physical.len() as u32);
    buf.extend_from_slice(physical);
    buf
}

fn payload_commit(tables: &[(String, String)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u8(TAG_COMMIT);
    buf.put_u32_le(tables.len() as u32);
    for (table, file) in tables {
        persist::put_str(&mut buf, table);
        persist::put_str(&mut buf, file);
    }
    buf
}

/// Decodes one WAL frame payload into `(seq, record)`.
pub fn decode_record(payload: &[u8]) -> StorageResult<(u64, WalRecord)> {
    let mut buf = payload;
    let buf = &mut buf;
    if buf.len() < 9 {
        return Err(StorageError::Corrupt("truncated wal record header".into()));
    }
    let seq = buf.get_u64_le();
    let tag = buf.get_u8();
    let rec = match tag {
        TAG_INSERT_ROWS => {
            let table = persist::get_str(buf)?;
            if buf.len() < 4 {
                return Err(StorageError::Corrupt("truncated insert count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut rows = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                rows.push(persist::get_row(buf)?);
            }
            WalRecord::InsertRows { table, rows }
        }
        TAG_ADOPT_SEGMENT => {
            let table = persist::get_str(buf)?;
            let segment = persist::get_segment(buf)?;
            WalRecord::AdoptSegment { table, segment }
        }
        TAG_DELETE_ROWIDS => {
            let table = persist::get_str(buf)?;
            if buf.len() < 8 {
                return Err(StorageError::Corrupt("truncated delete count".into()));
            }
            let n = buf.get_u64_le() as usize;
            if buf.len() < n * 8 {
                return Err(StorageError::Corrupt("truncated rowid list".into()));
            }
            let mut rowids = Vec::with_capacity(n);
            for _ in 0..n {
                rowids.push(buf.get_u64_le());
            }
            WalRecord::DeleteRowids { table, rowids }
        }
        TAG_UPDATE_ROWS => {
            let table = persist::get_str(buf)?;
            if buf.len() < 4 {
                return Err(StorageError::Corrupt("truncated update count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut updates = Vec::with_capacity(n.min(1 << 22));
            for _ in 0..n {
                if buf.len() < 8 {
                    return Err(StorageError::Corrupt("truncated update rowid".into()));
                }
                let id = buf.get_u64_le();
                updates.push((id, persist::get_row(buf)?));
            }
            WalRecord::UpdateRows { table, updates }
        }
        TAG_TRUNCATE => WalRecord::Truncate { table: persist::get_str(buf)? },
        TAG_MOVEOUT => WalRecord::Moveout { table: persist::get_str(buf)? },
        TAG_MERGEOUT => WalRecord::Mergeout { table: persist::get_str(buf)? },
        TAG_CREATE_TABLE => {
            let name = persist::get_str(buf)?;
            let schema = persist::get_schema(buf)?;
            let options = persist::get_options(buf)?;
            WalRecord::CreateTable { name, schema, options }
        }
        TAG_DROP_TABLE => WalRecord::DropTable { name: persist::get_str(buf)? },
        TAG_RENAME_TABLE => {
            let from = persist::get_str(buf)?;
            let to = persist::get_str(buf)?;
            WalRecord::RenameTable { from, to }
        }
        TAG_SWAP_TABLES => {
            let a = persist::get_str(buf)?;
            let b = persist::get_str(buf)?;
            WalRecord::SwapTables { a, b }
        }
        TAG_REGISTER_TABLE => {
            if buf.len() < 4 {
                return Err(StorageError::Corrupt("truncated register length".into()));
            }
            let len = buf.get_u32_le() as usize;
            if buf.len() < len {
                return Err(StorageError::Corrupt("truncated register body".into()));
            }
            let physical = buf[..len].to_vec();
            buf.advance(len);
            WalRecord::RegisterTable { physical }
        }
        TAG_COMMIT => {
            if buf.len() < 4 {
                return Err(StorageError::Corrupt("truncated commit count".into()));
            }
            let n = buf.get_u32_le() as usize;
            let mut tables = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let table = persist::get_str(buf)?;
                let file = persist::get_str(buf)?;
                tables.push((table, file));
            }
            WalRecord::Commit { tables }
        }
        other => return Err(StorageError::Corrupt(format!("bad wal record tag {other}"))),
    };
    Ok((seq, rec))
}

// ---------------------------------------------------------------------------
// The sink: shared mutable durability state
// ---------------------------------------------------------------------------

/// Counters describing the durability layer's work so far. Snapshots are
/// cheap; the coordinator's per-superstep gauges are deltas of these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (data + DDL + commit markers).
    pub wal_records: u64,
    /// Bytes appended to the WAL (frame headers included).
    pub wal_bytes: u64,
    /// Table images flushed to segment files (checkpoints + replace commits).
    pub tables_flushed: u64,
    /// Bytes written to segment files and manifests.
    pub flush_bytes: u64,
    /// Replace-commit markers logged.
    pub commits: u64,
    /// Full checkpoints completed.
    pub checkpoints: u64,
    /// WAL rotations (log truncations) performed.
    pub rotations: u64,
}

/// Per-table durability bookkeeping.
#[derive(Debug, Clone, Default)]
struct TableMeta {
    /// Segment file holding this table's last flushed image, if any.
    file: Option<String>,
    /// Records with `seq >= watermark` are NOT covered by `file` and must
    /// replay on top of it.
    watermark: u64,
    /// Whether the current WAL file holds any live record for this table.
    dirty: bool,
}

struct WalState {
    dir: PathBuf,
    wal_name: String,
    wal_file: File,
    /// Sequence number the next record will take.
    next_seq: u64,
    /// Allocator for `t<N>.vxtb` / `wal-<N>.log` file names.
    next_file_id: u64,
    metas: BTreeMap<String, TableMeta>,
    /// Remaining bytes of durable writes before an injected crash, if armed.
    crash_budget: Option<u64>,
    /// Set once an injected crash fired: all later durable ops fail.
    crashed: bool,
    sync: bool,
    stats: DurabilityStats,
    /// The catalog's segment buffer pool, when attached. GC consults it so
    /// checkpoint files still referenced by evicted-segment spill addresses
    /// (e.g. held by an open cursor over a since-replaced table) survive.
    pool: Option<Arc<crate::buffer_pool::BufferPool>>,
}

fn crash_err() -> StorageError {
    StorageError::Io(std::io::Error::other("injected crash: durable write truncated"))
}

impl WalState {
    /// Consumes `n` bytes of crash budget. Returns the number of bytes the
    /// caller may write: `n` normally; fewer (with the crashed flag set) when
    /// the budget is exhausted mid-write. Errors if a crash already fired.
    fn take_budget(&mut self, n: usize) -> StorageResult<usize> {
        if self.crashed {
            return Err(crash_err());
        }
        match self.crash_budget {
            None => Ok(n),
            Some(b) if (n as u64) <= b => {
                self.crash_budget = Some(b - n as u64);
                Ok(n)
            }
            Some(b) => {
                self.crash_budget = Some(0);
                self.crashed = true;
                Ok(b as usize)
            }
        }
    }

    /// Appends raw bytes to the WAL file under the crash budget.
    fn write_wal_bytes(&mut self, bytes: &[u8]) -> StorageResult<()> {
        let allowed = self.take_budget(bytes.len())?;
        self.wal_file.write_all(&bytes[..allowed])?;
        if allowed < bytes.len() {
            return Err(crash_err());
        }
        if self.sync {
            self.wal_file.sync_data()?;
        }
        self.stats.wal_bytes += bytes.len() as u64;
        Ok(())
    }

    /// Creates `name` in the durability directory with `bytes`, under the
    /// crash budget; fsyncs when in sync mode.
    fn write_new_file(&mut self, name: &str, bytes: &[u8]) -> StorageResult<()> {
        let allowed = self.take_budget(bytes.len())?;
        let path = self.dir.join(name);
        let mut f = File::create(&path)?;
        f.write_all(&bytes[..allowed])?;
        if allowed < bytes.len() {
            return Err(crash_err());
        }
        if self.sync {
            f.sync_data()?;
            // Also sync the directory entry: without this, a crash after the
            // checkpoint could lose the file itself even though its contents
            // were synced (the MANIFEST rename already does the same).
            File::open(&self.dir)?.sync_all()?;
        }
        self.stats.flush_bytes += bytes.len() as u64;
        Ok(())
    }

    fn alloc_file(&mut self, prefix: &str, suffix: &str) -> String {
        let id = self.next_file_id;
        self.next_file_id += 1;
        format!("{prefix}{id}{suffix}")
    }

    /// Appends one record payload (tag + body) as the next sequenced frame.
    fn append_record(&mut self, tag_body: &[u8]) -> StorageResult<u64> {
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(8 + tag_body.len());
        payload.put_u64_le(seq);
        payload.extend_from_slice(tag_body);
        self.write_wal_bytes(&encode_frame(&payload))?;
        self.next_seq = seq + 1;
        self.stats.wal_records += 1;
        Ok(seq)
    }

    fn manifest_bytes(&self) -> StorageResult<Vec<u8>> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MANIFEST_MAGIC);
        buf.put_u64_le(self.next_seq);
        persist::put_str(&mut buf, &self.wal_name);
        buf.put_u32_le(self.metas.len() as u32);
        for (name, meta) in &self.metas {
            let file = meta.file.as_deref().ok_or_else(|| {
                StorageError::Internal(format!("manifest write with unflushed table {name}"))
            })?;
            persist::put_str(&mut buf, name);
            persist::put_str(&mut buf, file);
            buf.put_u64_le(meta.watermark);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        Ok(buf)
    }

    /// Writes the manifest via tmp + rename (the atomic publish point).
    fn write_manifest(&mut self) -> StorageResult<()> {
        let bytes = self.manifest_bytes()?;
        let tmp = "MANIFEST.tmp";
        self.write_new_file(tmp, &bytes)?;
        std::fs::rename(self.dir.join(tmp), self.dir.join(MANIFEST_NAME))?;
        if self.sync {
            File::open(&self.dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Creates a fresh WAL file (header only) and makes it current.
    fn create_wal_file(&mut self, name: String) -> StorageResult<()> {
        let mut header = Vec::with_capacity(14);
        header.extend_from_slice(WAL_MAGIC);
        header.put_u64_le(self.next_seq);
        self.write_new_file(&name, &header)?;
        self.wal_file = OpenOptions::new().append(true).open(self.dir.join(&name))?;
        self.wal_name = name;
        Ok(())
    }

    /// True when the current WAL file holds no live record: every table has a
    /// flushed image and nothing logged past its watermark.
    fn wal_fully_dead(&self) -> bool {
        self.metas.values().all(|m| m.file.is_some() && !m.dirty)
    }

    /// Publishes a manifest and, when the WAL is fully dead, rotates to a
    /// fresh log file and garbage-collects unreferenced files.
    fn publish_and_maybe_rotate(&mut self) -> StorageResult<()> {
        if !self.wal_fully_dead() {
            // Live records remain: publish the manifest only if every table
            // has a flushed image (otherwise keep the previous manifest).
            if self.metas.values().all(|m| m.file.is_some()) {
                self.write_manifest()?;
            }
            return Ok(());
        }
        let old_wal = self.wal_name.clone();
        let new_wal = self.alloc_file("wal-", ".log");
        // Publish the manifest referencing the new (not yet created) WAL
        // first: recovery treats a missing WAL file as an empty log, so a
        // crash between rename and creation is safe.
        self.wal_name = new_wal.clone();
        if let Err(e) = self.write_manifest() {
            self.wal_name = old_wal;
            return Err(e);
        }
        self.create_wal_file(new_wal)?;
        self.stats.rotations += 1;
        self.gc()?;
        Ok(())
    }

    /// Removes durability files referenced by neither the manifest tables,
    /// nor the current WAL, nor any live buffer-pool spill address. Only
    /// safe right after rotation (no live record can reference a flushed
    /// file). I/O errors surface to the caller (a silently failed removal
    /// would resurrect stale tables if a later crash lost the manifest);
    /// the directory is fsynced after removals in sync mode so a crash
    /// cannot resurrect the removed files either.
    fn gc(&self) -> StorageResult<()> {
        let pool_keep = self.pool.as_ref().map(|p| p.referenced_files()).unwrap_or_default();
        let keep: std::collections::HashSet<&str> = self
            .metas
            .values()
            .filter_map(|m| m.file.as_deref())
            .chain([self.wal_name.as_str()])
            .chain(pool_keep.iter().map(String::as_str))
            .collect();
        let mut removed = false;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let ours = (name.starts_with('t') && name.ends_with(".vxtb"))
                || (name.starts_with("wal-") && name.ends_with(".log"));
            if ours && !keep.contains(name) {
                match std::fs::remove_file(entry.path()) {
                    Ok(()) => removed = true,
                    // Already gone (e.g. a prior partial GC): not an error.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if removed && self.sync {
            File::open(&self.dir)?.sync_all()?;
        }
        Ok(())
    }
}

/// The shared durability sink: one per open durable database, attached to
/// the catalog and to every table it contains. All durable writes funnel
/// through its single mutex, which is what makes the log's sequence order
/// equal each table's apply order.
pub struct WalSink {
    state: Mutex<WalState>,
}

impl std::fmt::Debug for WalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalSink")
    }
}

impl WalSink {
    /// Arms (or disarms, with `None`) the injected-crash byte budget over all
    /// durable writes. Test hook for the crash-injection harness.
    pub fn set_crash_budget(&self, budget: Option<u64>) {
        let mut st = self.state.lock();
        st.crash_budget = budget;
        if budget.is_some() {
            st.crashed = false;
        }
    }

    /// Whether an injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Snapshot of the durability counters.
    pub fn stats(&self) -> DurabilityStats {
        self.state.lock().stats.clone()
    }

    /// Whether appends fdatasync before acknowledging.
    pub fn sync_mode(&self) -> bool {
        self.state.lock().sync
    }

    /// Logs one data record against `table` (payload from the `payload_*`
    /// builders) and marks the table dirty in the current WAL file.
    pub(crate) fn log_data(&self, table: &str, tag_body: &[u8]) -> StorageResult<u64> {
        let mut st = self.state.lock();
        let seq = st.append_record(tag_body)?;
        st.metas.entry(table.to_string()).or_default().dirty = true;
        Ok(seq)
    }

    pub(crate) fn log_create_table(
        &self,
        name: &str,
        schema: &Schema,
        options: &TableOptions,
    ) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.append_record(&payload_create_table(name, schema, options))?;
        st.metas.insert(name.to_string(), TableMeta { file: None, watermark: 0, dirty: true });
        Ok(())
    }

    pub(crate) fn log_register_table(&self, name: &str, physical: &[u8]) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.append_record(&payload_register_table(physical))?;
        st.metas.insert(name.to_string(), TableMeta { file: None, watermark: 0, dirty: true });
        Ok(())
    }

    pub(crate) fn log_drop_table(&self, name: &str) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.append_record(&payload_drop_table(name))?;
        st.metas.remove(name);
        Ok(())
    }

    pub(crate) fn log_rename(&self, from: &str, to: &str) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.append_record(&payload_rename_table(from, to))?;
        if let Some(meta) = st.metas.remove(from) {
            st.metas.insert(to.to_string(), meta);
        }
        Ok(())
    }

    pub(crate) fn log_swap(&self, a: &str, b: &str) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.append_record(&payload_swap_tables(a, b))?;
        let ma = st.metas.remove(a);
        let mb = st.metas.remove(b);
        if let Some(m) = mb {
            st.metas.insert(a.to_string(), m);
        }
        if let Some(m) = ma {
            st.metas.insert(b.to_string(), m);
        }
        Ok(())
    }

    /// Ensures a bookkeeping entry exists for `table` (used at attach time).
    pub(crate) fn ensure_meta(&self, table: &str) {
        self.state.lock().metas.entry(table.to_string()).or_default();
    }

    /// The replace-commit protocol: writes each fresh table's physical bytes
    /// to a new segment file, then appends **one** `Commit` marker naming all
    /// `(table, file)` pairs — the atomic commit point for the whole group.
    /// Callers must hold every target table's write lock across this call
    /// *and* the in-memory install that follows, so no writer can log against
    /// doomed contents after the marker.
    /// Returns the `(table, file)` pairs written, so the caller can record
    /// per-segment spill addresses against the new image files.
    pub(crate) fn commit_replace(
        &self,
        entries: &[(String, Vec<u8>)],
    ) -> StorageResult<Vec<(String, String)>> {
        let mut st = self.state.lock();
        let mut pairs = Vec::with_capacity(entries.len());
        for (name, bytes) in entries {
            let file = st.alloc_file("t", ".vxtb");
            st.write_new_file(&file, bytes)?;
            st.stats.tables_flushed += 1;
            pairs.push((name.clone(), file));
        }
        let seq = st.append_record(&payload_commit(&pairs))?;
        for (name, file) in &pairs {
            st.metas.insert(
                name.clone(),
                // The flushed image includes the commit itself, so the next
                // uncovered record is seq + 1 and the marker is not "live"
                // for rotation purposes once a manifest references the file.
                TableMeta { file: Some(file.clone()), watermark: seq + 1, dirty: false },
            );
        }
        st.stats.commits += 1;
        st.publish_and_maybe_rotate()?;
        Ok(pairs)
    }

    /// Flushes one table's physical image to a fresh segment file and moves
    /// its watermark to the current sequence head. The caller must hold the
    /// table's (read or write) lock so no mutation can interleave between
    /// serialization and the watermark sample.
    /// Returns the new image file's name, so the caller can record
    /// per-segment spill addresses against it.
    pub(crate) fn flush_table(&self, name: &str, physical: &[u8]) -> StorageResult<String> {
        let mut st = self.state.lock();
        let file = st.alloc_file("t", ".vxtb");
        st.write_new_file(&file, physical)?;
        st.stats.tables_flushed += 1;
        let watermark = st.next_seq;
        st.metas.insert(
            name.to_string(),
            TableMeta { file: Some(file.clone()), watermark, dirty: false },
        );
        Ok(file)
    }

    /// Whether a checkpoint must re-flush `table`: true when the current WAL
    /// file holds a live record for it or it has no flushed image at all. A
    /// clean table's existing image (and the spill addresses pointing into
    /// it) stays valid across the checkpoint.
    pub(crate) fn needs_flush(&self, table: &str) -> bool {
        let st = self.state.lock();
        st.metas.get(table).is_none_or(|m| m.dirty || m.file.is_none())
    }

    /// Attaches the catalog's buffer pool so GC keeps spill-referenced files.
    pub(crate) fn attach_pool(&self, pool: Arc<crate::buffer_pool::BufferPool>) {
        self.state.lock().pool = Some(pool);
    }

    /// The durability directory this sink writes into.
    pub(crate) fn dir(&self) -> PathBuf {
        self.state.lock().dir.clone()
    }

    /// Ends a checkpoint: publishes the manifest and rotates the WAL if no
    /// live record remains.
    pub(crate) fn finish_checkpoint(&self) -> StorageResult<()> {
        let mut st = self.state.lock();
        st.publish_and_maybe_rotate()?;
        st.stats.checkpoints += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Manifest + recovery
// ---------------------------------------------------------------------------

/// Parsed `MANIFEST`: the durable root pointer.
#[derive(Debug)]
struct Manifest {
    /// Global sequence floor: DDL records below this are already reflected in
    /// the manifest's table list. Doubles as the minimum `next_seq`.
    next_seq: u64,
    /// Current WAL file name (missing file = empty log).
    wal_name: String,
    /// `(table, segment file, watermark)` triples.
    tables: Vec<(String, String, u64)>,
}

fn parse_manifest(bytes: &[u8]) -> StorageResult<Manifest> {
    let mut body = persist::check_magic_and_crc(bytes, MANIFEST_MAGIC)?;
    let buf = &mut body;
    if buf.len() < 8 {
        return Err(StorageError::Corrupt("truncated manifest header".into()));
    }
    let next_seq = buf.get_u64_le();
    let wal_name = persist::get_str(buf)?;
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated manifest table count".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut tables = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let name = persist::get_str(buf)?;
        let file = persist::get_str(buf)?;
        if buf.len() < 8 {
            return Err(StorageError::Corrupt("truncated manifest watermark".into()));
        }
        let watermark = buf.get_u64_le();
        tables.push((name, file, watermark));
    }
    if !buf.is_empty() {
        return Err(StorageError::Corrupt("trailing bytes after manifest".into()));
    }
    Ok(Manifest { next_seq, wal_name, tables })
}

/// Largest numeric id used by `t<N>.vxtb` / `wal-<N>.log` files in `dir`,
/// plus one — the safe starting point for the file-name allocator.
fn scan_next_file_id(dir: &Path) -> u64 {
    let mut max_id: Option<u64> = None;
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let id = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
            .or_else(|| name.strip_prefix('t').and_then(|r| r.strip_suffix(".vxtb")))
            .and_then(|r| r.parse::<u64>().ok());
        if let Some(id) = id {
            max_id = Some(max_id.map_or(id, |m| m.max(id)));
        }
    }
    max_id.map_or(0, |m| m + 1)
}

/// Reads the current WAL file and returns its decoded `(seq, record)` list in
/// log order. A missing file or a torn header is an empty log. A torn trailing
/// frame is discarded **and truncated away on disk**, so subsequent appends
/// extend a clean log. Complete-but-invalid frames are [`StorageError::Corrupt`].
fn read_wal_records(path: &Path) -> StorageResult<Vec<(u64, WalRecord)>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < WAL_MAGIC.len() + 8 {
        // A header torn mid-write: the log holds nothing. Remove the stump so
        // the sink recreates a clean header — and surface removal failures,
        // since a lingering stump would shadow the recreated log.
        match std::fs::remove_file(path) {
            Ok(()) => {
                if let Some(parent) = path.parent() {
                    File::open(parent)?.sync_all()?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        return Ok(Vec::new());
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StorageError::Corrupt("bad wal magic".into()));
    }
    let body = &bytes[WAL_MAGIC.len() + 8..];
    let (frames, torn) = decode_frames(body)?;
    let mut records = Vec::with_capacity(frames.len());
    let mut clean_len = (WAL_MAGIC.len() + 8) as u64;
    for frame in frames {
        records.push(decode_record(frame)?);
        clean_len += 8 + frame.len() as u64;
    }
    if torn {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(clean_len)?;
        f.sync_data()?;
    }
    Ok(records)
}

/// Opens (or initialises) a durable database directory and returns its
/// recovered catalog with the WAL sink attached.
///
/// Recovery: load the manifest's flushed table images, replay WAL records in
/// sequence order — a data record applies only if its seq is at or past the
/// owning table's watermark; DDL applies only at or past the manifest's global
/// floor; a `Commit` marker re-installs its flushed files per pair — then run
/// a full checkpoint so the directory converges to "flushed images + empty
/// log" regardless of where the previous process stopped. Opening, closing,
/// and reopening is therefore idempotent: the recovered state is bitwise
/// stable.
pub fn open_durable(dir: impl AsRef<Path>, sync: bool) -> StorageResult<Arc<Catalog>> {
    let dir = dir.as_ref().to_path_buf();
    std::fs::create_dir_all(&dir)?;
    let catalog = Arc::new(Catalog::new());
    // Point the buffer pool at the durable directory up front so segments
    // loaded below are evictable as soon as their spill addresses land.
    catalog.buffer_pool().set_dir(dir.clone());

    let manifest = match std::fs::read(dir.join(MANIFEST_NAME)) {
        Ok(bytes) => Some(parse_manifest(&bytes)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };

    let mut metas: BTreeMap<String, TableMeta> = BTreeMap::new();
    let mut floor = 0u64;
    let wal_name = match &manifest {
        Some(m) => {
            floor = m.next_seq;
            for (name, file, watermark) in &m.tables {
                let bytes = std::fs::read(dir.join(file))?;
                let (mut table, spans) = persist::table_from_bytes_physical_indexed(&bytes)?;
                table.set_name(name.clone());
                catalog.register(table)?;
                // The image we just parsed IS the spill file: its segments
                // are evictable immediately.
                catalog.get(name)?.read().assign_spill_addrs(file, &spans)?;
                metas.insert(
                    name.clone(),
                    TableMeta { file: Some(file.clone()), watermark: *watermark, dirty: false },
                );
            }
            m.wal_name.clone()
        }
        None => "wal-0.log".to_string(),
    };

    // Replay committed records past each table's watermark.
    let records = read_wal_records(&dir.join(&wal_name))?;
    let mut last_seq: Option<u64> = None;
    let watermark_of = |metas: &BTreeMap<String, TableMeta>, table: &str| -> u64 {
        metas.get(table).map_or(0, |m| m.watermark)
    };
    for (seq, record) in records {
        last_seq = Some(seq);
        match record {
            WalRecord::InsertRows { table, rows } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().insert_rows_unlogged(rows)?;
                }
            }
            WalRecord::AdoptSegment { table, segment } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().adopt_segment_unlogged(segment);
                }
            }
            WalRecord::DeleteRowids { table, rowids } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().delete_rowids_unlogged(&rowids);
                }
            }
            WalRecord::UpdateRows { table, updates } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().update_rows_unlogged(updates)?;
                }
            }
            WalRecord::Truncate { table } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().truncate_unlogged();
                }
            }
            WalRecord::Moveout { table } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().moveout_unlogged()?;
                }
            }
            WalRecord::Mergeout { table } => {
                if seq >= watermark_of(&metas, &table) {
                    catalog.get(&table)?.write().mergeout_unlogged()?;
                }
            }
            WalRecord::CreateTable { name, schema, options } => {
                if seq >= floor {
                    catalog.create_table(&name, schema, options)?;
                    metas.insert(name, TableMeta::default());
                }
            }
            WalRecord::DropTable { name } => {
                if seq >= floor {
                    catalog.drop_table_if_exists(&name)?;
                    metas.remove(&name);
                }
            }
            WalRecord::RenameTable { from, to } => {
                if seq >= floor {
                    catalog.rename(&from, &to)?;
                    if let Some(m) = metas.remove(&from) {
                        metas.insert(to, m);
                    }
                }
            }
            WalRecord::SwapTables { a, b } => {
                if seq >= floor {
                    catalog.swap(&a, &b)?;
                    let ma = metas.remove(&a);
                    let mb = metas.remove(&b);
                    if let Some(m) = mb {
                        metas.insert(a, m);
                    }
                    if let Some(m) = ma {
                        metas.insert(b, m);
                    }
                }
            }
            WalRecord::RegisterTable { physical } => {
                if seq >= floor {
                    let table = persist::table_from_bytes_physical(&physical)?;
                    let name = table.name().to_string();
                    catalog.register(table)?;
                    metas.insert(name, TableMeta::default());
                }
            }
            WalRecord::Commit { tables } => {
                for (table, file) in tables {
                    if seq >= watermark_of(&metas, &table) {
                        let bytes = std::fs::read(dir.join(&file))?;
                        let (mut fresh, spans) =
                            persist::table_from_bytes_physical_indexed(&bytes)?;
                        if catalog.contains(&table) {
                            catalog.replace_contents(&table, fresh)?;
                        } else {
                            fresh.set_name(table.clone());
                            catalog.register(fresh)?;
                        }
                        catalog.get(&table)?.read().assign_spill_addrs(&file, &spans)?;
                        metas.insert(
                            table,
                            TableMeta { file: Some(file), watermark: seq + 1, dirty: false },
                        );
                    }
                }
            }
        }
    }

    // Build the sink. Tables touched since their flushed image are marked
    // dirty; the recovery checkpoint below re-flushes them and rotates.
    let next_seq = last_seq.map_or(floor, |s| floor.max(s + 1));
    for name in catalog.list() {
        let entry = metas.entry(name).or_default();
        entry.dirty = entry.watermark < next_seq || entry.file.is_none();
    }
    metas.retain(|name, _| catalog.contains(name));
    let wal_path = dir.join(&wal_name);
    if !wal_path.exists() {
        let mut header = Vec::with_capacity(14);
        header.extend_from_slice(WAL_MAGIC);
        header.put_u64_le(next_seq);
        let mut f = File::create(&wal_path)?;
        f.write_all(&header)?;
        if sync {
            f.sync_data()?;
        }
    }
    let wal_file = OpenOptions::new().append(true).open(&wal_path)?;
    let next_file_id = scan_next_file_id(&dir);
    let sink = Arc::new(WalSink {
        state: Mutex::new(WalState {
            dir,
            wal_name,
            wal_file,
            next_seq,
            next_file_id,
            metas,
            crash_budget: None,
            crashed: false,
            sync,
            stats: DurabilityStats::default(),
            pool: None,
        }),
    });

    catalog.attach_wal(sink);
    // Recovery checkpoint: converge to "flushed images + empty log" so the
    // on-disk state after open is deterministic no matter how we got here.
    catalog.checkpoint()?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use crate::value::{DataType, Field, Schema, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        use vertexica_common::sync::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "vxwal-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Field::new("id", DataType::Int), Field::new("val", DataType::Float)])
    }

    /// Physical images of every table, in name order — the bitwise identity
    /// used by all recovery assertions.
    fn catalog_image(c: &Catalog) -> Vec<(String, Vec<u8>)> {
        c.list()
            .into_iter()
            .map(|n| {
                let t = c.get(&n).unwrap();
                let bytes = persist::table_to_bytes_physical(&t.read()).unwrap();
                (n, bytes)
            })
            .collect()
    }

    #[test]
    fn crc32_check_value() {
        // The CRC-32/ISO-HDLC check value from the catalogue of CRC algorithms.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// `n` pseudo-random bytes (xorshift64), the same on every run.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Every tail length (0..16 bytes after the last full block) at every
    /// start alignment, against the bitwise oracle.
    #[test]
    fn crc32_matches_bitwise_oracle_at_every_alignment() {
        let buf = noise(16 + 80);
        for start in 0..16 {
            for len in 0..=80 {
                let span = &buf[start..start + len];
                assert_eq!(crc32(span), crc32_bitwise(span), "start {start}, len {len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The table-driven kernel equals the bitwise oracle on arbitrary
        /// bytes of any length up to 4 KiB at any start offset mod 16.
        #[test]
        fn crc32_equals_bitwise_oracle(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4112),
            start in 0usize..16,
            len in 0usize..=4096,
        ) {
            let span = &bytes[start.min(bytes.len())..];
            let span = &span[..len.min(span.len())];
            proptest::prop_assert_eq!(crc32(span), crc32_bitwise(span));
        }
    }

    /// Prints the kernel's and the oracle's throughput on a fixed 2 MiB
    /// buffer (`cargo test --release -p vertexica-storage --lib crc32_ --
    /// --nocapture`). Asserts only that the two agree, never a speed.
    #[test]
    fn crc32_throughput_against_bitwise_oracle() {
        let buf = noise(2 << 20);
        let mb = buf.len() as f64 / 1e6;
        let timed = |f: fn(&[u8]) -> u32| {
            let t = std::time::Instant::now();
            let crc = f(&buf);
            (crc, mb / t.elapsed().as_secs_f64())
        };
        let (kernel, kernel_mbs) = timed(crc32);
        let (oracle, oracle_mbs) = timed(crc32_bitwise);
        assert_eq!(kernel, oracle);
        println!(
            "crc32 over {mb:.1} MB: slicing-by-16 {kernel_mbs:.0} MB/s, bitwise oracle \
             {oracle_mbs:.0} MB/s"
        );
    }

    #[test]
    fn frame_roundtrip() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"alpha"));
        stream.extend_from_slice(&encode_frame(b""));
        stream.extend_from_slice(&encode_frame(b"gamma"));
        let (frames, torn) = decode_frames(&stream).unwrap();
        assert!(!torn);
        assert_eq!(frames, vec![b"alpha".as_slice(), b"".as_slice(), b"gamma".as_slice()]);
    }

    #[test]
    fn torn_tail_is_clean_stop_at_every_offset() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"first"));
        let full = stream.len();
        stream.extend_from_slice(&encode_frame(b"second, longer payload"));
        for cut in full..stream.len() {
            let (frames, torn) = decode_frames(&stream[..cut]).unwrap();
            assert_eq!(frames.len(), 1, "cut at {cut}");
            assert_eq!(torn, cut != full, "cut at {cut}");
        }
    }

    #[test]
    fn complete_frame_with_bad_crc_is_corrupt() {
        let mut stream = encode_frame(b"payload");
        let last = stream.len() - 1;
        stream[last] ^= 0x01;
        assert!(matches!(decode_frames(&stream), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn record_codec_roundtrips() {
        let rows = vec![vec![Value::Int(1), Value::Float(0.5)], vec![Value::Int(2), Value::Null]];
        let mut payload = Vec::new();
        payload.put_u64_le(42);
        payload.extend_from_slice(&payload_insert_rows("vertex", &rows));
        let (seq, rec) = decode_record(&payload).unwrap();
        assert_eq!(seq, 42);
        match rec {
            WalRecord::InsertRows { table, rows: got } => {
                assert_eq!(table, "vertex");
                assert_eq!(got, rows);
            }
            other => panic!("wrong record: {other:?}"),
        }

        let mut payload = Vec::new();
        payload.put_u64_le(7);
        payload.extend_from_slice(&payload_delete_rowids("edge", &[3, 9, 27]));
        match decode_record(&payload).unwrap() {
            (7, WalRecord::DeleteRowids { table, rowids }) => {
                assert_eq!(table, "edge");
                assert_eq!(rowids, vec![3, 9, 27]);
            }
            other => panic!("wrong record: {other:?}"),
        }

        let pairs = vec![
            ("vertex".to_string(), "t3.vxtb".to_string()),
            ("msg".to_string(), "t4.vxtb".to_string()),
        ];
        let mut payload = Vec::new();
        payload.put_u64_le(99);
        payload.extend_from_slice(&payload_commit(&pairs));
        match decode_record(&payload).unwrap() {
            (99, WalRecord::Commit { tables }) => assert_eq!(tables, pairs),
            other => panic!("wrong record: {other:?}"),
        }

        let opts = TableOptions::default();
        let mut payload = Vec::new();
        payload.put_u64_le(0);
        payload.extend_from_slice(&payload_create_table("v", &schema(), &opts));
        match decode_record(&payload).unwrap() {
            (0, WalRecord::CreateTable { name, schema: s, options }) => {
                assert_eq!(name, "v");
                assert_eq!(*s, *schema());
                assert_eq!(options.moveout_threshold, opts.moveout_threshold);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn record_codec_rejects_bad_tag_and_truncation() {
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u8(200);
        assert!(matches!(decode_record(&payload), Err(StorageError::Corrupt(_))));

        let rows = vec![vec![Value::Int(1), Value::Float(0.5)]];
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.extend_from_slice(&payload_insert_rows("t", &rows));
        for cut in 0..payload.len() {
            // Every proper prefix must decode to an error, never panic.
            let _ = decode_record(&payload[..cut]);
        }
    }

    #[test]
    fn framelog_appends_and_reads_back() {
        let dir = temp_dir("framelog");
        let path = dir.join("txn.log");
        let mut log = FrameLog::open(Some(&path), false).unwrap();
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        drop(log);
        let (frames, torn) = FrameLog::read_frames(&path).unwrap();
        assert!(!torn);
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
        // Reopen appends after existing frames.
        let mut log = FrameLog::open(Some(&path), false).unwrap();
        log.append(b"three").unwrap();
        let (frames, _) = FrameLog::read_frames(&path).unwrap();
        assert_eq!(frames.len(), 3);
        // Ephemeral log is a no-op.
        let mut none = FrameLog::open(None, false).unwrap();
        none.append(b"void").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_reopen_roundtrip() {
        let dir = temp_dir("fresh");
        let image = {
            let catalog = open_durable(&dir, false).unwrap();
            let t = catalog.create_table("vertex", schema(), TableOptions::default()).unwrap();
            {
                let mut g = t.write();
                for i in 0..100i64 {
                    g.insert_row(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]).unwrap();
                }
                let ids: Vec<u64> = (0..10).map(|r| (u64::from(u32::MAX) << 32) | r).collect();
                g.delete_rowids(&ids).unwrap();
            }
            catalog.checkpoint().unwrap();
            catalog_image(&catalog)
        };
        let reopened = open_durable(&dir, false).unwrap();
        assert_eq!(catalog_image(&reopened), image);
        // Reopen again: recovery must be idempotent (bitwise stable).
        drop(reopened);
        let again = open_durable(&dir, false).unwrap();
        assert_eq!(catalog_image(&again), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_unflushed_tail() {
        let dir = temp_dir("tail");
        let image = {
            let catalog = open_durable(&dir, false).unwrap();
            let t = catalog.create_table("vertex", schema(), TableOptions::default()).unwrap();
            {
                let mut g = t.write();
                for i in 0..50i64 {
                    g.insert_row(vec![Value::Int(i), Value::Float(-(i as f64))]).unwrap();
                }
            }
            // NO checkpoint: the rows live only in the WAL.
            catalog_image(&catalog)
        };
        let reopened = open_durable(&dir, false).unwrap();
        assert_eq!(catalog_image(&reopened), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ddl_survives_reopen() {
        let dir = temp_dir("ddl");
        let image = {
            let catalog = open_durable(&dir, false).unwrap();
            catalog.create_table("a", schema(), TableOptions::default()).unwrap();
            catalog.create_table("b", schema(), TableOptions::default()).unwrap();
            catalog.get("a").unwrap().write().insert_row(vec![Value::Int(1), Value::Null]).unwrap();
            catalog.rename("a", "c").unwrap();
            catalog.swap("b", "c").unwrap();
            catalog.drop_table_if_exists("b").unwrap();
            catalog_image(&catalog)
        };
        let reopened = open_durable(&dir, false).unwrap();
        assert_eq!(catalog_image(&reopened), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_budget_zero_loses_unacknowledged_write() {
        let dir = temp_dir("budget");
        let image = {
            let catalog = open_durable(&dir, false).unwrap();
            let t = catalog.create_table("vertex", schema(), TableOptions::default()).unwrap();
            t.write().insert_row(vec![Value::Int(1), Value::Null]).unwrap();
            catalog.checkpoint().unwrap();
            let image = catalog_image(&catalog);
            let sink = catalog.wal_sink().unwrap();
            sink.set_crash_budget(Some(0));
            // The write fails before acknowledgement...
            assert!(t.write().insert_row(vec![Value::Int(2), Value::Null]).is_err());
            assert!(sink.crashed());
            // ...and all later durable writes fail too.
            assert!(t.write().insert_row(vec![Value::Int(3), Value::Null]).is_err());
            image
        };
        let reopened = open_durable(&dir, false).unwrap();
        assert_eq!(catalog_image(&reopened), image);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_commit_is_atomic_across_tables() {
        let dir = temp_dir("commit");
        let (before, after) = {
            let catalog = open_durable(&dir, false).unwrap();
            catalog.create_table("vertex", schema(), TableOptions::default()).unwrap();
            catalog.create_table("msg", schema(), TableOptions::default()).unwrap();
            catalog.checkpoint().unwrap();
            let before = catalog_image(&catalog);

            let mut v = Table::new("vertex", schema(), TableOptions::default());
            v.insert_row(vec![Value::Int(10), Value::Float(1.0)]).unwrap();
            let mut m = Table::new("msg", schema(), TableOptions::default());
            m.insert_row(vec![Value::Int(20), Value::Float(2.0)]).unwrap();
            catalog.replace_contents_many(vec![("vertex".into(), v), ("msg".into(), m)]).unwrap();
            (before, catalog_image(&catalog))
        };
        assert_ne!(before, after);
        let reopened = open_durable(&dir, false).unwrap();
        assert_eq!(catalog_image(&reopened), after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_corruption_is_detected() {
        let dir = temp_dir("mf");
        {
            let catalog = open_durable(&dir, false).unwrap();
            catalog.create_table("vertex", schema(), TableOptions::default()).unwrap();
            catalog.checkpoint().unwrap();
        }
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(open_durable(&dir, false), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
