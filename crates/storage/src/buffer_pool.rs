//! Byte-budgeted buffer pool for cold ROS segments.
//!
//! The engine's working set is dominated by immutable ROS segments. Once a
//! table has been checkpointed, every one of its segments has a bit-exact
//! twin inside the table's `t<N>.vxtb` image (see [`crate::persist`]), so
//! the in-memory copy is a pure cache: it can be dropped under memory
//! pressure and reloaded on demand. This module implements that cache as a
//! clock (second-chance) pool:
//!
//! * Every ROS segment is wrapped in a [`SegmentHandle`] whose shared
//!   [`PoolEntry`] is either **resident** (holds the decoded-form
//!   `Arc<Segment>`) or **evicted** (holds nothing; the entry remembers its
//!   [`SpillAddr`] — file, offset, length, CRC — within a checkpoint image).
//! * Readers call [`SegmentHandle::read`], which **pins** the entry (an
//!   atomic pin count) and reloads it from disk if it was evicted. The
//!   returned [`PinnedSegment`] derefs to [`Segment`] and unpins on drop, so
//!   an in-flight scan can never have its segment reclaimed underneath it.
//! * The evictor ([`BufferPool::ensure_capacity`]) sweeps a clock hand over
//!   all registered entries, skipping pinned entries, entries with no spill
//!   address (a segment newer than the last checkpoint has no disk twin and
//!   is never evictable — "eviction only behind the watermark"), and
//!   entries whose second-chance bit is set.
//! * New resident bytes — a registered segment, a reload — are admitted in
//!   one step under the registry lock: make room, then charge them. Several
//!   workers reloading at once (each pins its partition's edge-projection
//!   piece for the whole partition) therefore cannot all pass the same
//!   capacity check and overshoot the budget together.
//!
//! The pool does not know tables: vertex, message and edge-projection
//! segments are all just entries. A grouped commit on a durable database
//! writes each new table's image and assigns its segments' spill addresses
//! before installing them, so committed segments are evictable at once.
//!
//! Lock order: the pool's registry lock and each entry's state lock are
//! never both *blocked on* in opposite orders. A reloading pin holds its
//! entry's state lock while taking the registry lock (inside
//! `ensure_capacity`); the evictor holds the registry lock but only ever
//! `try_lock`s entry state, skipping contended entries. Pin counts are
//! re-checked after the state lock is acquired, so a pinner that bumped the
//! count and then blocked on the state lock is always noticed.
//!
//! A new pool is unbounded: it tracks residency gauges but never evicts.
//! [`BufferPool::set_budget`] caps it, directly or through a run's
//! `memory_budget_bytes` config knob.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Weak};
use vertexica_common::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};

use crate::error::{StorageError, StorageResult};
use crate::persist;
use crate::table::{Segment, ZoneMap};

/// Where a segment's bit-exact spill image lives: a byte span inside a
/// checkpointed `.vxtb` file, plus the CRC of that span for reload
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillAddr {
    /// File name relative to the durable directory (e.g. `t12.vxtb`).
    pub file: String,
    /// Byte offset of the serialized segment within the file.
    pub offset: u64,
    /// Serialized length in bytes.
    pub len: u64,
    /// CRC-32 of the serialized bytes.
    pub crc: u32,
}

/// Residency state of a pool entry.
enum SlotState {
    Resident(Arc<Segment>),
    Evicted,
}

/// Shared state behind a [`SegmentHandle`]: the segment (when resident),
/// its spill address (when checkpointed), pin count, and cached metadata
/// that must stay available without a reload (row count, per-segment zone
/// maps, byte estimate) so segment-level pruning never touches disk.
pub struct PoolEntry {
    num_rows: usize,
    bytes: usize,
    zone_maps: Vec<ZoneMap>,
    state: Mutex<SlotState>,
    addr: Mutex<Option<SpillAddr>>,
    pins: AtomicUsize,
    /// Clock second-chance bit: set on every pin, cleared (and the entry
    /// spared once) by the sweeping hand.
    referenced: AtomicBool,
    /// True once this entry has been pushed into a pool's registry; guards
    /// against double registration when a table is re-attached.
    registered: AtomicBool,
    pool: Mutex<Weak<BufferPool>>,
}

impl Drop for PoolEntry {
    fn drop(&mut self) {
        // A resident entry going away (table dropped/replaced/truncated)
        // releases its bytes from the pool's residency gauge.
        if matches!(*self.state.get_mut(), SlotState::Resident(_)) {
            if let Some(pool) = self.pool.get_mut().upgrade() {
                pool.sub_resident(self.bytes);
            }
        }
    }
}

/// A pinned, resident segment. Derefs to [`Segment`]; the pin is released
/// on drop. While any pin is outstanding the evictor will not touch the
/// entry.
pub struct PinnedSegment {
    entry: Arc<PoolEntry>,
    seg: Arc<Segment>,
}

impl std::ops::Deref for PinnedSegment {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        &self.seg
    }
}

impl Drop for PinnedSegment {
    fn drop(&mut self) {
        self.entry.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for PinnedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedSegment").field("num_rows", &self.seg.num_rows()).finish()
    }
}

/// A cheaply clonable handle to a (possibly evicted) ROS segment. Tables
/// and scan-cursor snapshots hold these instead of `Arc<Segment>`; cloning
/// shares the underlying [`PoolEntry`], so a snapshot taken by an open
/// cursor keeps the entry — and its reloadability — alive even if the
/// table drops the segment.
#[derive(Clone)]
pub struct SegmentHandle {
    entry: Arc<PoolEntry>,
}

impl std::fmt::Debug for SegmentHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentHandle")
            .field("num_rows", &self.entry.num_rows)
            .field("bytes", &self.entry.bytes)
            .field("resident", &self.is_resident())
            .finish()
    }
}

impl SegmentHandle {
    /// Wraps a freshly built segment. The entry starts resident, unpooled
    /// (standalone handles behave exactly like `Arc<Segment>`), and with no
    /// spill address — it becomes evictable only once a checkpoint assigns
    /// one.
    pub fn new(seg: Arc<Segment>) -> SegmentHandle {
        let num_rows = seg.num_rows();
        let bytes = seg.estimated_bytes();
        let zone_maps = (0..seg.num_columns()).map(|c| seg.zone_map(c).clone()).collect();
        SegmentHandle {
            entry: Arc::new(PoolEntry {
                num_rows,
                bytes,
                zone_maps,
                state: Mutex::new(SlotState::Resident(seg)),
                addr: Mutex::new(None),
                pins: AtomicUsize::new(0),
                referenced: AtomicBool::new(true),
                registered: AtomicBool::new(false),
                pool: Mutex::new(Weak::new()),
            }),
        }
    }

    pub fn num_rows(&self) -> usize {
        self.entry.num_rows
    }

    /// Estimated encoded size in bytes (the unit of the pool budget).
    pub fn estimated_bytes(&self) -> usize {
        self.entry.bytes
    }

    /// Per-segment zone map of `col`, cached on the handle so segment-level
    /// pruning works without pinning (and without reloading an evicted
    /// segment just to rule it out).
    pub fn zone_map(&self, col: usize) -> &ZoneMap {
        &self.entry.zone_maps[col]
    }

    pub fn is_resident(&self) -> bool {
        matches!(*self.entry.state.lock(), SlotState::Resident(_))
    }

    /// The spill address assigned by the last checkpoint, if any.
    pub fn spill_addr(&self) -> Option<SpillAddr> {
        self.entry.addr.lock().clone()
    }

    /// Records where this segment's bit-exact image lives on disk, making
    /// the entry evictable. Called at checkpoint/commit time, strictly
    /// after the image file is durably written.
    pub(crate) fn set_addr(&self, addr: SpillAddr) {
        *self.entry.addr.lock() = Some(addr);
    }

    /// Pins the segment, reloading it from its spill image if evicted.
    pub fn read(&self) -> StorageResult<PinnedSegment> {
        // Pin BEFORE touching the state lock: an evictor that sampled
        // pins == 0 re-checks after acquiring state, so this ordering means
        // it can never evict a segment a reader has committed to.
        self.entry.pins.fetch_add(1, Ordering::SeqCst);
        self.entry.referenced.store(true, Ordering::Relaxed);
        match self.read_resident() {
            Ok(seg) => Ok(PinnedSegment { entry: self.entry.clone(), seg }),
            Err(e) => {
                self.entry.pins.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    fn read_resident(&self) -> StorageResult<Arc<Segment>> {
        let mut state = self.entry.state.lock();
        if let SlotState::Resident(seg) = &*state {
            return Ok(seg.clone());
        }
        // Miss: reload from the spill image. Only pooled entries with an
        // assigned address are ever evicted, so both must be present.
        let pool =
            self.entry.pool.lock().upgrade().ok_or_else(|| {
                StorageError::Internal("evicted segment has no buffer pool".into())
            })?;
        let addr =
            self.entry.addr.lock().clone().ok_or_else(|| {
                StorageError::Internal("evicted segment has no spill address".into())
            })?;
        let dir = pool
            .dir()
            .ok_or_else(|| StorageError::Internal("buffer pool has no spill directory".into()))?;
        // Make room and charge the bytes first, in one step, so concurrent
        // reloads cannot all pass the same capacity check. Holding our state
        // lock here is fine: the evictor only try_locks entry state and
        // skips us (we're pinned anyway).
        pool.admit(self.entry.bytes);
        let reloaded =
            persist::read_segment_at(dir.join(&addr.file), addr.offset, addr.len, addr.crc)
                .and_then(|seg| {
                    if seg.num_rows() != self.entry.num_rows {
                        return Err(StorageError::Corrupt(
                            "reloaded segment row-count mismatch".into(),
                        ));
                    }
                    Ok(Arc::new(seg))
                });
        let seg = match reloaded {
            Ok(seg) => seg,
            Err(e) => {
                pool.sub_resident(self.entry.bytes);
                return Err(e);
            }
        };
        *state = SlotState::Resident(seg.clone());
        pool.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(seg)
    }
}

#[derive(Default)]
struct Registry {
    entries: Vec<Weak<PoolEntry>>,
    hand: usize,
}

/// Point-in-time pool gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured budget; `None` means unbounded.
    pub budget: Option<usize>,
    /// Bytes of currently resident pooled segments.
    pub resident_bytes: u64,
    /// Cumulative segments evicted.
    pub evictions: u64,
    /// Cumulative segments reloaded from spill images.
    pub reloads: u64,
}

/// The segment buffer pool. One per [`crate::catalog::Catalog`].
pub struct BufferPool {
    /// `usize::MAX` encodes "unbounded".
    budget: AtomicUsize,
    dir: Mutex<Option<PathBuf>>,
    registry: Mutex<Registry>,
    resident_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
    evictions: AtomicU64,
    reloads: AtomicU64,
}

impl Default for BufferPool {
    /// An unbounded pool.
    fn default() -> BufferPool {
        BufferPool::with_budget(None)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("budget", &s.budget)
            .field("resident_bytes", &s.resident_bytes)
            .field("evictions", &s.evictions)
            .field("reloads", &s.reloads)
            .finish()
    }
}

impl BufferPool {
    pub fn with_budget(budget: Option<usize>) -> BufferPool {
        BufferPool {
            budget: AtomicUsize::new(budget.unwrap_or(usize::MAX)),
            dir: Mutex::new(None),
            registry: Mutex::new(Registry::default()),
            resident_bytes: AtomicU64::new(0),
            peak_resident_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
        }
    }

    pub fn budget(&self) -> Option<usize> {
        match self.budget.load(Ordering::Relaxed) {
            usize::MAX => None,
            b => Some(b),
        }
    }

    /// Sets (or clears) the byte budget and immediately enforces it.
    pub fn set_budget(&self, budget: Option<usize>) {
        self.budget.store(budget.unwrap_or(usize::MAX), Ordering::Relaxed);
        self.enforce();
    }

    /// Directory spill files are resolved against (the durable directory).
    pub fn dir(&self) -> Option<PathBuf> {
        self.dir.lock().clone()
    }

    pub fn set_dir(&self, dir: PathBuf) {
        *self.dir.lock() = Some(dir);
    }

    /// Adds a segment handle to the clock. Idempotent per entry. Newly
    /// registered resident entries count toward the budget, and the pool
    /// makes room for them by evicting colder entries first.
    pub fn register(self: &Arc<Self>, handle: &SegmentHandle) {
        let entry = &handle.entry;
        if entry.registered.swap(true, Ordering::SeqCst) {
            return;
        }
        *entry.pool.lock() = Arc::downgrade(self);
        if handle.is_resident() {
            self.admit(entry.bytes);
        }
        self.registry.lock().entries.push(Arc::downgrade(entry));
    }

    /// Makes room for `incoming` bytes and charges them, in one step under
    /// the registry lock when budgeted: two admissions can never both pass
    /// one capacity check, so concurrent reloads (workers pinning pieces at
    /// once) overshoot the budget by no more than the unevictable set does.
    fn admit(&self, incoming: usize) {
        if self.budget().is_none() {
            self.add_resident(incoming);
            return;
        }
        let mut reg = self.registry.lock();
        self.evict_locked(&mut reg, incoming);
        self.add_resident(incoming);
    }

    /// Evicts cold entries until `resident + incoming <= budget` or nothing
    /// more is evictable. No-op when unbounded. The clock hand gives every
    /// entry one second chance (its referenced bit is cleared on the first
    /// pass and it is evicted on the second), sweeping at most two laps.
    pub fn ensure_capacity(&self, incoming: usize) {
        let Some(budget) = self.budget() else { return };
        if (self.resident_bytes.load(Ordering::SeqCst) as usize).saturating_add(incoming) <= budget
        {
            return;
        }
        self.evict_locked(&mut self.registry.lock(), incoming);
    }

    /// The sweep of [`BufferPool::ensure_capacity`], under the registry lock.
    fn evict_locked(&self, reg: &mut Registry, incoming: usize) {
        let Some(budget) = self.budget() else { return };
        let n = reg.entries.len();
        if n == 0 {
            return;
        }
        let mut scanned = 0usize;
        let max_scan = 2 * n;
        while (self.resident_bytes.load(Ordering::SeqCst) as usize).saturating_add(incoming)
            > budget
            && scanned < max_scan
        {
            let i = reg.hand % reg.entries.len();
            reg.hand = reg.hand.wrapping_add(1);
            scanned += 1;
            let Some(entry) = reg.entries[i].upgrade() else { continue };
            if entry.pins.load(Ordering::SeqCst) > 0 {
                continue;
            }
            if entry.addr.lock().is_none() {
                // No disk twin yet (built after the last checkpoint):
                // never evictable — "eviction only behind the watermark".
                continue;
            }
            if entry.referenced.swap(false, Ordering::Relaxed) {
                // Second chance.
                continue;
            }
            // Never block on entry state while holding the registry lock —
            // a reloading pin holds state and wants the registry.
            let Some(mut state) = entry.state.try_lock() else { continue };
            // A pinner bumps pins before blocking on the state lock we now
            // hold; re-check so we never evict under a committed reader.
            // The model checker proves this re-check load-bearing by
            // seeding `buffer_pool.drop_pin_recheck`.
            if entry.pins.load(Ordering::SeqCst) > 0
                && !vertexica_common::sync::model::mutation_enabled("buffer_pool.drop_pin_recheck")
            {
                continue;
            }
            if matches!(*state, SlotState::Resident(_)) {
                *state = SlotState::Evicted;
                self.resident_bytes.fetch_sub(entry.bytes as u64, Ordering::SeqCst);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Compact dead weak refs so dropped tables don't bloat the clock.
        if reg.entries.len() > 64
            && reg.entries.iter().filter(|w| w.strong_count() == 0).count() > reg.entries.len() / 2
        {
            reg.entries.retain(|w| w.strong_count() > 0);
            reg.hand = 0;
        }
    }

    /// Enforces the budget with no incoming allocation (e.g. right after a
    /// checkpoint made new entries evictable).
    pub fn enforce(&self) {
        self.ensure_capacity(0);
    }

    /// Spill files still referenced by any live entry (including entries
    /// kept alive only by open cursor snapshots). Checkpoint GC must keep
    /// these so an in-flight scan over a replaced table can still reload.
    pub fn referenced_files(&self) -> HashSet<String> {
        let reg = self.registry.lock();
        let mut files = HashSet::new();
        for weak in &reg.entries {
            if let Some(entry) = weak.upgrade() {
                if let Some(addr) = &*entry.addr.lock() {
                    files.insert(addr.file.clone());
                }
            }
        }
        files
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            budget: self.budget(),
            resident_bytes: self.resident_bytes.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
        }
    }

    /// Peak resident bytes since the last [`BufferPool::reset_peak`].
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes.load(Ordering::SeqCst)
    }

    /// Restarts peak tracking from the current residency (per-superstep
    /// gauge sampling).
    pub fn reset_peak(&self) {
        self.peak_resident_bytes
            .store(self.resident_bytes.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    fn add_resident(&self, bytes: usize) {
        let now = self.resident_bytes.fetch_add(bytes as u64, Ordering::SeqCst) + bytes as u64;
        self.peak_resident_bytes.fetch_max(now, Ordering::SeqCst);
    }

    fn sub_resident(&self, bytes: usize) {
        self.resident_bytes.fetch_sub(bytes as u64, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RecordBatch;
    use crate::value::{DataType, Field, Schema, Value};

    pub(super) fn int_segment(vals: &[i64]) -> Segment {
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let rows: Vec<Vec<Value>> = vals.iter().map(|v| vec![Value::Int(*v)]).collect();
        let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
        Segment::build(&schema, &batch, true).unwrap()
    }

    /// Spills `seg` to a standalone file and wires a handle + pool at it.
    pub(super) fn spilled_handle(
        dir: &std::path::Path,
        pool: &Arc<BufferPool>,
        seg: Segment,
    ) -> SegmentHandle {
        let mut buf = Vec::new();
        persist::put_segment(&mut buf, &seg);
        let crc = crate::wal::crc32(&buf);
        let file = format!("seg{crc:08x}-{}.vxtb", buf.len());
        std::fs::write(dir.join(&file), &buf).unwrap();
        let handle = SegmentHandle::new(Arc::new(seg));
        pool.register(&handle);
        handle.set_addr(SpillAddr { file, offset: 0, len: buf.len() as u64, crc });
        handle
    }

    pub(super) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vx-pool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn standalone_handle_acts_like_arc_segment() {
        let handle = SegmentHandle::new(Arc::new(int_segment(&[1, 2, 3])));
        assert_eq!(handle.num_rows(), 3);
        assert!(handle.is_resident());
        let pinned = handle.read().unwrap();
        assert_eq!(pinned.num_rows(), 3);
    }

    #[test]
    fn evict_then_reload_is_bitwise_identical() {
        let dir = temp_dir("reload");
        let pool = Arc::new(BufferPool::with_budget(None));
        pool.set_dir(dir.clone());
        let seg = int_segment(&(0..5000).collect::<Vec<_>>());
        let mut orig = Vec::new();
        persist::put_segment(&mut orig, &seg);
        let handle = spilled_handle(&dir, &pool, seg);

        // Force eviction with a 1-byte budget.
        pool.set_budget(Some(1));
        assert!(!handle.is_resident());
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().resident_bytes, 0);

        // Reload reproduces the exact serialized image.
        let pinned = handle.read().unwrap();
        let mut reread = Vec::new();
        persist::put_segment(&mut reread, &pinned);
        assert_eq!(orig, reread);
        assert_eq!(pool.stats().reloads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_segments_are_never_evicted() {
        let dir = temp_dir("pin");
        let pool = Arc::new(BufferPool::with_budget(None));
        pool.set_dir(dir.clone());
        let handle = spilled_handle(&dir, &pool, int_segment(&(0..4000).collect::<Vec<_>>()));
        let pinned = handle.read().unwrap();
        pool.set_budget(Some(1));
        // Pinned: the sweep must leave it resident.
        assert!(handle.is_resident());
        assert_eq!(pool.stats().evictions, 0);
        drop(pinned);
        pool.enforce();
        assert!(!handle.is_resident());
        assert_eq!(pool.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_without_spill_addr_are_never_evicted() {
        let pool = Arc::new(BufferPool::with_budget(Some(1)));
        let handle = SegmentHandle::new(Arc::new(int_segment(&(0..4000).collect::<Vec<_>>())));
        pool.register(&handle);
        pool.enforce();
        // Over budget but nothing has a disk twin: stays resident.
        assert!(handle.is_resident());
        assert_eq!(pool.stats().evictions, 0);
        assert!(pool.stats().resident_bytes > 1);
    }

    #[test]
    fn second_chance_spares_recently_touched_entries() {
        let dir = temp_dir("clock");
        let pool = Arc::new(BufferPool::with_budget(None));
        pool.set_dir(dir.clone());
        // Three equal-size segments; budget fits exactly two.
        let a = spilled_handle(&dir, &pool, int_segment(&(0..3000).collect::<Vec<_>>()));
        let b = spilled_handle(&dir, &pool, int_segment(&(3000..6000).collect::<Vec<_>>()));
        let c = spilled_handle(&dir, &pool, int_segment(&(6000..9000).collect::<Vec<_>>()));
        assert_eq!(a.estimated_bytes(), b.estimated_bytes());
        assert_eq!(b.estimated_bytes(), c.estimated_bytes());
        // One entry must go: the sweep clears all three referenced bits on
        // its first lap and evicts `a` (first past the hand) on the second,
        // leaving `b` and `c` resident with cleared bits.
        pool.set_budget(Some(2 * a.estimated_bytes() + 1));
        assert_eq!(pool.stats().evictions, 1);
        assert!(!a.is_resident());
        // Touch `b` (sets its referenced bit), then reload `a`. The reload
        // must evict one of the two residents — second chance spares the
        // just-touched `b`, so cold `c` goes.
        drop(b.read().unwrap());
        drop(a.read().unwrap());
        assert!(a.is_resident());
        assert!(b.is_resident());
        assert!(!c.is_resident());
        assert_eq!(pool.stats().evictions, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_resident_entries_releases_bytes() {
        let pool = Arc::new(BufferPool::with_budget(None));
        let handle = SegmentHandle::new(Arc::new(int_segment(&[1, 2, 3])));
        pool.register(&handle);
        assert!(pool.stats().resident_bytes > 0);
        drop(handle);
        assert_eq!(pool.stats().resident_bytes, 0);
    }

    #[test]
    fn referenced_files_tracks_live_entries_only() {
        let dir = temp_dir("refs");
        let pool = Arc::new(BufferPool::with_budget(None));
        pool.set_dir(dir.clone());
        let handle = spilled_handle(&dir, &pool, int_segment(&[1, 2, 3]));
        let file = handle.spill_addr().unwrap().file;
        assert!(pool.referenced_files().contains(&file));
        drop(handle);
        assert!(pool.referenced_files().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Bounded model check of the pin-vs-evict protocol: a reader committing a
/// pin races the clock hand's eviction sweep, and the pins re-check under
/// the state `try_lock` must keep the segment resident for the pin's whole
/// lifetime on every interleaving. Compiled only under
/// `RUSTFLAGS='--cfg vertexica_model'`.
#[cfg(all(test, vertexica_model))]
mod model_tests {
    use super::tests::{int_segment, spilled_handle, temp_dir};
    use super::*;
    use vertexica_common::sync::model::{self, Config, ViolationKind};

    /// One registered, spilled segment with its second chance already spent;
    /// a reader pins it while the evictor sweeps for space. The reader's
    /// residency assertion holds only if the evictor's pins re-check (after
    /// winning the state try_lock) notices the committed pin.
    fn pin_vs_evict(dir: &std::path::Path) {
        let pool = Arc::new(BufferPool::with_budget(Some(1)));
        pool.set_dir(dir.to_path_buf());
        let handle = spilled_handle(dir, &pool, int_segment(&[1, 2, 3]));
        // Spend the clock's second chance up front so the interleaving under
        // test is the pin race, not the referenced bit.
        handle.entry.referenced.store(false, Ordering::SeqCst);
        let reader = {
            let handle = handle.clone();
            model::spawn(move || {
                let pin = handle.read().expect("pin segment");
                model::yield_now();
                assert!(handle.is_resident(), "segment evicted under a committed pin");
                assert_eq!(pin.num_rows(), 3);
                drop(pin);
                // With the pin released the entry is fair game again.
                assert_eq!(handle.entry.pins.load(Ordering::SeqCst), 0);
            })
        };
        pool.ensure_capacity(64);
        reader.join();
    }

    #[test]
    fn model_buffer_pool_pin_vs_evict_clean() {
        let dir = temp_dir("model-pin-evict");
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, || pin_vs_evict(&dir))
            .unwrap_or_else(|v| panic!("pin-vs-evict protocol violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("mutex.try_lock"), "evictor try_lock never explored");
        eprintln!("[model] buffer-pool pin-vs-evict clean: {stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeding `buffer_pool.drop_pin_recheck` (trust the lock-free pins
    /// sample, skip the re-check under the state lock) lets the evictor
    /// reclaim a segment a reader has already committed to: the reader's
    /// residency assertion must fail, deterministically.
    #[test]
    fn model_buffer_pool_drop_pin_recheck_mutation_detected() {
        let dir = temp_dir("model-pin-evict-mut");
        let cfg = Config {
            max_preemptions: 2,
            mutation: Some("buffer_pool.drop_pin_recheck"),
            ..Config::default()
        };
        let v1 = model::check(&cfg, || pin_vs_evict(&dir))
            .expect_err("seeded evict-under-pin bug must be detected");
        assert_eq!(v1.kind, ViolationKind::Panic, "unexpected violation:\n{v1}");
        assert!(
            v1.message.contains("evicted under a committed pin"),
            "unexpected failure: {}",
            v1.message
        );
        let v2 = model::check(&cfg, || pin_vs_evict(&dir)).expect_err("second run must also fail");
        assert_eq!(v1.schedule, v2.schedule, "minimal schedule not deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
        eprintln!("[model] buffer-pool mutation:\n{v1}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
