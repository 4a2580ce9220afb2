//! Columnar storage engine — the "Vertica" substrate of the Vertexica
//! reproduction.
//!
//! The paper runs vertex-centric graph analytics on an *unmodified* industrial
//! column store. This crate provides the physical layer of that substrate:
//!
//! * [`value`] / [`column`](mod@column) / [`batch`] — typed values, columnar vectors with
//!   validity bitmaps, and record batches (the unit of vectorized execution);
//! * [`table`] — tables with a Vertica-style split between a row-oriented
//!   **write-optimized store (WOS)** and sorted, encoded, zone-mapped
//!   **read-optimized store (ROS)** segments, with delete vectors and
//!   moveout/merge;
//! * [`encoding`] — RLE and dictionary encodings for ROS segments and
//!   persistence;
//! * [`catalog`] — the named-table catalog with the atomic `swap` primitive
//!   that Vertexica's *update-vs-replace* optimization (§2.3) relies on;
//! * [`partition`] — hash partitioning of batches, used by *vertex batching*
//!   (§2.3) to split the table union across worker UDFs;
//! * [`persist`] — the compact, checksummed binary table image the
//!   durability layer flushes and recovers;
//! * [`wal`] — the durability layer: an append-only, checksummed write-ahead
//!   log, segment flushing, a manifest-anchored checkpoint/truncate cycle,
//!   and crash recovery ([`wal::open_durable`]) with byte-budget crash
//!   injection for testing;
//! * [`buffer_pool`] — out-of-core scans: a byte-budgeted clock pool over
//!   cold ROS segments, evicting checkpointed segments under memory
//!   pressure and reloading them from their `.vxtb` spill images on demand.

pub mod batch;
pub mod bitmap;
pub mod buffer_pool;
pub mod catalog;
pub mod column;
pub mod encoding;
pub mod error;
pub mod partition;
pub mod persist;
pub mod table;
pub mod value;
pub mod wal;

pub use batch::RecordBatch;
pub use bitmap::Bitmap;
pub use buffer_pool::{BufferPool, PinnedSegment, PoolStats, SegmentHandle, SpillAddr};
pub use catalog::Catalog;
pub use column::{BlobData, Column, ColumnBuilder, ColumnData};
pub use error::{StorageError, StorageResult};
pub use table::{
    ColumnPredicate, PredicateOp, Row, ScanCursor, Segment, Table, TableOptions, BLOCK_ROWS,
};
pub use value::{DataType, Field, Schema, Value};
pub use wal::{open_durable, DurabilityStats, FrameLog, WalSink};
