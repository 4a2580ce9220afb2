//! Compact binary persistence for tables.
//!
//! Two self-describing formats, both ending in a CRC32 trailer so torn or
//! bit-flipped files surface as [`StorageError::Corrupt`] instead of decoding
//! silently:
//!
//! * **`VXTB1` (logical)** — [`table_to_bytes`] writes the table's logical
//!   content (delete vectors applied, WOS included) with per-column
//!   auto-encoding. A restored table is equivalent under scans even if its
//!   physical segment layout differs. Used by superstep checkpointing.
//! * **`VXTB2` (physical)** — [`table_to_bytes_physical`] preserves the exact
//!   WOS rows, per-segment encoded columns, per-segment **and per-block** zone
//!   maps, and delete vectors, so `decode(encode(t))` re-serializes
//!   byte-identically. This is the format the durability layer
//!   ([`crate::wal`]) flushes and recovers, which is what makes "recovered
//!   state is bitwise the committed state" a testable invariant.

use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};

use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder};
use crate::encoding::EncodedColumn;
use crate::error::{StorageError, StorageResult};
use crate::table::{Row, Segment, Table, TableOptions, ZoneMap};
use crate::value::{DataType, Field, Schema, Value};
use crate::wal::crc32;

const MAGIC: &[u8; 6] = b"VXTB1\n";
const MAGIC_PHYSICAL: &[u8; 6] = b"VXTB2\n";

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut &[u8]) -> StorageResult<String> {
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.len() < len {
        return Err(StorageError::Corrupt("truncated string body".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| StorageError::Corrupt("invalid utf8".into()))?;
    buf.advance(len);
    Ok(s)
}

pub(crate) fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Blob => 4,
    }
}

pub(crate) fn dtype_from_tag(tag: u8) -> StorageResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Blob,
        _ => return Err(StorageError::Corrupt(format!("bad dtype tag {tag}"))),
    })
}

/// [`put_value`]'s tag for a non-null blob.
const TAG_BLOB: u8 = 5;

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(x) => {
            buf.put_u8(1);
            buf.put_u8(*x as u8);
        }
        Value::Int(x) => {
            buf.put_u8(2);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(3);
            buf.put_f64_le(*x);
        }
        Value::Str(x) => {
            buf.put_u8(4);
            put_str(buf, x);
        }
        Value::Blob(x) => put_blob_value(buf, x),
    }
}

/// A non-null blob exactly as [`put_value`] writes `Value::Blob`: tag, `u32`
/// length, bytes.
fn put_blob_value(buf: &mut Vec<u8>, cell: &[u8]) {
    buf.put_u8(TAG_BLOB);
    buf.put_u32_le(cell.len() as u32);
    buf.extend_from_slice(cell);
}

/// Reads the length and bytes that follow a blob tag.
fn get_blob_body<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a [u8]> {
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated blob length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.len() < len {
        return Err(StorageError::Corrupt("truncated blob body".into()));
    }
    let (body, rest) = buf.split_at(len);
    *buf = rest;
    Ok(body)
}

pub(crate) fn get_value(buf: &mut &[u8]) -> StorageResult<Value> {
    if buf.is_empty() {
        return Err(StorageError::Corrupt("truncated value".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        0 => Value::Null,
        1 => {
            if buf.is_empty() {
                return Err(StorageError::Corrupt("truncated bool".into()));
            }
            Value::Bool(buf.get_u8() != 0)
        }
        2 => {
            if buf.len() < 8 {
                return Err(StorageError::Corrupt("truncated int".into()));
            }
            Value::Int(buf.get_i64_le())
        }
        3 => {
            if buf.len() < 8 {
                return Err(StorageError::Corrupt("truncated float".into()));
            }
            Value::Float(buf.get_f64_le())
        }
        4 => Value::Str(get_str(buf)?),
        TAG_BLOB => Value::Blob(get_blob_body(buf)?.to_vec()),
        _ => return Err(StorageError::Corrupt(format!("bad value tag {tag}"))),
    })
}

pub(crate) fn put_encoded_column(buf: &mut Vec<u8>, col: &EncodedColumn) {
    match col {
        EncodedColumn::Plain(c) => {
            buf.put_u8(0);
            buf.put_u8(dtype_tag(c.dtype()));
            buf.put_u64_le(c.len() as u64);
            if let Some(cells) = c.as_blob() {
                // The same bytes as `put_value` per cell, from borrowed slices.
                for (i, cell) in cells.iter().enumerate() {
                    if c.is_null(i) {
                        put_value(buf, &Value::Null);
                    } else {
                        put_blob_value(buf, cell);
                    }
                }
                return;
            }
            for i in 0..c.len() {
                put_value(buf, &c.value(i));
            }
        }
        EncodedColumn::Rle { dtype, runs } => {
            buf.put_u8(1);
            buf.put_u8(dtype_tag(*dtype));
            buf.put_u32_le(runs.len() as u32);
            for (count, v) in runs {
                buf.put_u32_le(*count);
                put_value(buf, v);
            }
        }
        EncodedColumn::Dict { dict, codes } => {
            buf.put_u8(2);
            buf.put_u32_le(dict.len() as u32);
            for s in dict {
                put_str(buf, s);
            }
            buf.put_u64_le(codes.len() as u64);
            for c in codes {
                buf.put_u32_le(*c);
            }
        }
    }
}

pub(crate) fn get_encoded_column(buf: &mut &[u8]) -> StorageResult<EncodedColumn> {
    if buf.is_empty() {
        return Err(StorageError::Corrupt("truncated column".into()));
    }
    let tag = buf.get_u8();
    match tag {
        0 => {
            if buf.len() < 9 {
                return Err(StorageError::Corrupt("truncated plain column header".into()));
            }
            let dtype = dtype_from_tag(buf.get_u8())?;
            let len = buf.get_u64_le() as usize;
            if dtype == DataType::Blob {
                // Cell bytes go from the file image into the column buffer;
                // anything but a blob tag takes the boxed path, which keeps
                // its NULL handling and its type error.
                let mut cells = ColumnBuilder::with_capacity(dtype, len.min(1 << 22));
                for _ in 0..len {
                    if buf.first() == Some(&TAG_BLOB) {
                        buf.advance(1);
                        cells.push_blob(get_blob_body(buf)?);
                    } else {
                        cells.push(get_value(buf)?)?;
                    }
                }
                return Ok(EncodedColumn::Plain(cells.finish()));
            }
            let mut values = Vec::with_capacity(len.min(1 << 22));
            for _ in 0..len {
                values.push(get_value(buf)?);
            }
            Ok(EncodedColumn::Plain(Column::from_values(dtype, &values)?))
        }
        1 => {
            if buf.len() < 5 {
                return Err(StorageError::Corrupt("truncated rle header".into()));
            }
            let dtype = dtype_from_tag(buf.get_u8())?;
            let nruns = buf.get_u32_le() as usize;
            let mut runs = Vec::with_capacity(nruns.min(1 << 22));
            for _ in 0..nruns {
                if buf.len() < 4 {
                    return Err(StorageError::Corrupt("truncated rle run".into()));
                }
                let count = buf.get_u32_le();
                let v = get_value(buf)?;
                runs.push((count, v));
            }
            Ok(EncodedColumn::Rle { dtype, runs })
        }
        2 => {
            if buf.len() < 4 {
                return Err(StorageError::Corrupt("truncated dict header".into()));
            }
            let dict_len = buf.get_u32_le() as usize;
            let mut dict = Vec::with_capacity(dict_len.min(1 << 22));
            for _ in 0..dict_len {
                dict.push(get_str(buf)?);
            }
            if buf.len() < 8 {
                return Err(StorageError::Corrupt("truncated dict codes".into()));
            }
            let codes_len = buf.get_u64_le() as usize;
            if buf.len() < codes_len * 4 {
                return Err(StorageError::Corrupt("truncated dict code body".into()));
            }
            let mut codes = Vec::with_capacity(codes_len);
            for _ in 0..codes_len {
                codes.push(buf.get_u32_le());
            }
            Ok(EncodedColumn::Dict { dict, codes })
        }
        _ => Err(StorageError::Corrupt(format!("bad column tag {tag}"))),
    }
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    buf.put_u32_le(schema.len() as u32);
    for f in &schema.fields {
        put_str(buf, &f.name);
        buf.put_u8(dtype_tag(f.dtype));
        buf.put_u8(f.nullable as u8);
    }
}

pub(crate) fn get_schema(buf: &mut &[u8]) -> StorageResult<Arc<Schema>> {
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated schema".into()));
    }
    let nfields = buf.get_u32_le() as usize;
    let mut fields = Vec::with_capacity(nfields.min(1 << 16));
    for _ in 0..nfields {
        let fname = get_str(buf)?;
        if buf.len() < 2 {
            return Err(StorageError::Corrupt("truncated field".into()));
        }
        let dtype = dtype_from_tag(buf.get_u8())?;
        let nullable = buf.get_u8() != 0;
        fields.push(Field { name: fname, dtype, nullable });
    }
    Ok(Schema::new(fields))
}

pub(crate) fn put_options(buf: &mut Vec<u8>, opts: &TableOptions) {
    buf.put_u64_le(opts.moveout_threshold as u64);
    buf.put_u8(opts.compress as u8);
    buf.put_u32_le(opts.sort_key.len() as u32);
    for &k in &opts.sort_key {
        buf.put_u32_le(k as u32);
    }
}

pub(crate) fn get_options(buf: &mut &[u8]) -> StorageResult<TableOptions> {
    if buf.len() < 13 {
        return Err(StorageError::Corrupt("truncated options".into()));
    }
    let moveout_threshold = buf.get_u64_le() as usize;
    let compress = buf.get_u8() != 0;
    let nsort = buf.get_u32_le() as usize;
    let mut sort_key = Vec::with_capacity(nsort.min(1 << 16));
    for _ in 0..nsort {
        if buf.len() < 4 {
            return Err(StorageError::Corrupt("truncated sort key".into()));
        }
        sort_key.push(buf.get_u32_le() as usize);
    }
    let mut options = TableOptions::default().with_moveout_threshold(moveout_threshold);
    options.compress = compress;
    options.sort_key = sort_key;
    Ok(options)
}

pub(crate) fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    buf.put_u32_le(row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

pub(crate) fn get_row(buf: &mut &[u8]) -> StorageResult<Row> {
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated row arity".into()));
    }
    let arity = buf.get_u32_le() as usize;
    let mut row = Vec::with_capacity(arity.min(1 << 16));
    for _ in 0..arity {
        row.push(get_value(buf)?);
    }
    Ok(row)
}

fn put_zone_map(buf: &mut Vec<u8>, zm: &ZoneMap) {
    put_value(buf, &zm.min);
    put_value(buf, &zm.max);
    buf.put_u64_le(zm.null_count as u64);
}

fn get_zone_map(buf: &mut &[u8]) -> StorageResult<ZoneMap> {
    let min = get_value(buf)?;
    let max = get_value(buf)?;
    if buf.len() < 8 {
        return Err(StorageError::Corrupt("truncated zone map".into()));
    }
    let null_count = buf.get_u64_le() as usize;
    Ok(ZoneMap { min, max, null_count })
}

fn put_bitmap(buf: &mut Vec<u8>, bm: &Bitmap) {
    let bools = bm.to_bools();
    buf.put_u64_le(bools.len() as u64);
    let mut byte = 0u8;
    for (i, b) in bools.iter().enumerate() {
        if *b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.put_u8(byte);
            byte = 0;
        }
    }
    if !bools.len().is_multiple_of(8) {
        buf.put_u8(byte);
    }
}

fn get_bitmap(buf: &mut &[u8]) -> StorageResult<Bitmap> {
    if buf.len() < 8 {
        return Err(StorageError::Corrupt("truncated bitmap length".into()));
    }
    let len = buf.get_u64_le() as usize;
    let nbytes = len.div_ceil(8);
    if buf.len() < nbytes {
        return Err(StorageError::Corrupt("truncated bitmap body".into()));
    }
    let mut bools = Vec::with_capacity(len);
    for i in 0..len {
        bools.push(buf[i / 8] & (1 << (i % 8)) != 0);
    }
    buf.advance(nbytes);
    Ok(Bitmap::from_bools(&bools))
}

/// Serializes one ROS segment preserving its exact physical layout: encoded
/// columns verbatim, per-segment zone maps, and per-block zone maps (count 0
/// when the segment elides them).
pub(crate) fn put_segment(buf: &mut Vec<u8>, seg: &Segment) {
    buf.put_u64_le(seg.num_rows() as u64);
    let ncols = seg.num_columns();
    buf.put_u32_le(ncols as u32);
    for c in 0..ncols {
        put_encoded_column(buf, seg.encoded_column(c));
    }
    for c in 0..ncols {
        put_zone_map(buf, seg.zone_map(c));
    }
    for c in 0..ncols {
        let blocks = seg.stored_block_zone_maps(c);
        buf.put_u32_le(blocks.len() as u32);
        for zm in blocks {
            put_zone_map(buf, zm);
        }
    }
}

pub(crate) fn get_segment(buf: &mut &[u8]) -> StorageResult<Segment> {
    if buf.len() < 12 {
        return Err(StorageError::Corrupt("truncated segment header".into()));
    }
    let num_rows = buf.get_u64_le() as usize;
    let ncols = buf.get_u32_le() as usize;
    let mut columns = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        columns.push(get_encoded_column(buf)?);
    }
    let mut zone_maps = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        zone_maps.push(get_zone_map(buf)?);
    }
    let mut block_zone_maps = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        if buf.len() < 4 {
            return Err(StorageError::Corrupt("truncated block zone maps".into()));
        }
        let nblocks = buf.get_u32_le() as usize;
        let mut blocks = Vec::with_capacity(nblocks.min(1 << 16));
        for _ in 0..nblocks {
            blocks.push(get_zone_map(buf)?);
        }
        block_zone_maps.push(blocks);
    }
    Segment::from_parts(num_rows, columns, zone_maps, block_zone_maps)
}

/// Serializes a table's logical content to bytes.
pub fn table_to_bytes(table: &Table) -> StorageResult<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_str(&mut buf, table.name());
    let schema = table.schema();
    put_schema(&mut buf, schema);
    put_options(&mut buf, table.options());

    // Logical content: scan everything into one batch, encode per column.
    let batches = table.scan(None, &[])?;
    let merged = RecordBatch::concat(schema.clone(), &batches)?;
    buf.put_u64_le(merged.num_rows() as u64);
    for col in merged.columns() {
        put_encoded_column(&mut buf, &EncodedColumn::encode_auto(col));
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    Ok(buf)
}

/// Reconstructs a table from bytes produced by [`table_to_bytes`].
pub fn table_from_bytes(buf: &[u8]) -> StorageResult<Table> {
    let mut buf = check_magic_and_crc(buf, MAGIC)?;
    let buf = &mut buf;
    let name = get_str(buf)?;
    let schema = get_schema(buf)?;
    let options = get_options(buf)?;

    if buf.len() < 8 {
        return Err(StorageError::Corrupt("truncated row count".into()));
    }
    let num_rows = buf.get_u64_le() as usize;
    let mut columns = Vec::with_capacity(schema.len());
    for f in &schema.fields {
        let enc = get_encoded_column(buf)?;
        let col = enc.decode()?;
        if col.len() != num_rows {
            return Err(StorageError::Corrupt(format!(
                "column {} has {} rows, expected {num_rows}",
                f.name,
                col.len()
            )));
        }
        if col.dtype() != f.dtype {
            return Err(StorageError::Corrupt(format!(
                "column {} type mismatch after decode",
                f.name
            )));
        }
        columns.push(col);
    }
    let mut table = Table::new(name, schema.clone(), options);
    if num_rows > 0 {
        let batch = RecordBatch::new(schema, columns)?;
        table.append_batch(&batch)?;
    }
    Ok(table)
}

/// Validates a file's magic and CRC32 trailer, returning the payload slice
/// between them (magic excluded, trailer excluded).
pub(crate) fn check_magic_and_crc<'a>(buf: &'a [u8], magic: &[u8; 6]) -> StorageResult<&'a [u8]> {
    if buf.len() < magic.len() || &buf[..magic.len()] != magic {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    if buf.len() < magic.len() + 4 {
        return Err(StorageError::Corrupt("truncated checksum trailer".into()));
    }
    let body_end = buf.len() - 4;
    // vxlint: allow(no-unwrap-recovery) -- infallible: the truncated-trailer guard above leaves exactly 4 bytes after body_end
    let stored = u32::from_le_bytes(buf[body_end..].try_into().expect("4 bytes"));
    let actual = crc32(&buf[..body_end]);
    if stored != actual {
        return Err(StorageError::Corrupt(format!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(&buf[magic.len()..body_end])
}

/// Serializes a table's exact **physical** state: WOS rows, ROS segments with
/// their encoded columns and zone maps (segment- and block-level), and delete
/// vectors. Unlike [`table_to_bytes`], the reconstructed table is
/// byte-identical under re-serialization — the durability layer's bitwise
/// recovery invariant rests on this.
pub fn table_to_bytes_physical(table: &Table) -> StorageResult<Vec<u8>> {
    Ok(table_to_bytes_physical_indexed(table)?.0)
}

/// The byte span of one serialized segment inside a
/// [`table_to_bytes_physical`] image, plus the CRC of those bytes — enough
/// to re-read a single segment out of a checkpoint file without parsing the
/// rest (see [`read_segment_at`]). The buffer pool stores these as segment
/// spill addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSpan {
    /// Byte offset from the start of the image file.
    pub offset: u64,
    /// Serialized length in bytes.
    pub len: u64,
    /// CRC-32 of the span bytes.
    pub crc: u32,
}

/// [`table_to_bytes_physical`] plus the byte span of every segment within
/// the returned image (in segment order). The image bytes are identical to
/// the unindexed form. Segments are pinned one at a time, so serializing a
/// partially evicted table keeps at most one reloaded segment resident.
pub fn table_to_bytes_physical_indexed(
    table: &Table,
) -> StorageResult<(Vec<u8>, Vec<SegmentSpan>)> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_PHYSICAL);
    put_str(&mut buf, table.name());
    put_schema(&mut buf, table.schema());
    put_options(&mut buf, table.options());
    let wos = table.wos();
    buf.put_u32_le(wos.len() as u32);
    for row in wos {
        put_row(&mut buf, row);
    }
    let segments = table.segments();
    buf.put_u32_le(segments.len() as u32);
    let mut spans = Vec::with_capacity(segments.len());
    for handle in segments {
        let seg = handle.read()?;
        let offset = buf.len() as u64;
        put_segment(&mut buf, &seg);
        let len = buf.len() as u64 - offset;
        spans.push(SegmentSpan { offset, len, crc: crc32(&buf[offset as usize..]) });
    }
    for dv in table.delete_vectors() {
        put_bitmap(&mut buf, dv);
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    Ok((buf, spans))
}

/// Re-reads a single segment out of a checkpoint image file by its
/// [`SegmentSpan`], validating the span CRC and that the span parses fully.
/// This is the buffer pool's reload-on-miss path: it touches `len` bytes of
/// the file instead of deserializing the whole table.
pub fn read_segment_at(
    path: impl AsRef<Path>,
    offset: u64,
    len: u64,
    crc: u32,
) -> StorageResult<Segment> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut bytes = vec![0u8; len as usize];
    f.read_exact(&mut bytes)?;
    if crc32(&bytes) != crc {
        return Err(StorageError::Corrupt("segment spill checksum mismatch".into()));
    }
    let mut p = bytes.as_slice();
    let seg = get_segment(&mut p)?;
    if !p.is_empty() {
        return Err(StorageError::Corrupt("trailing bytes after segment span".into()));
    }
    Ok(seg)
}

/// Reconstructs a table from [`table_to_bytes_physical`] bytes, validating
/// shapes via `Table::from_parts`. Any truncation, bit flip, or tag
/// corruption yields [`StorageError::Corrupt`].
pub fn table_from_bytes_physical(buf: &[u8]) -> StorageResult<Table> {
    Ok(table_from_bytes_physical_indexed(buf)?.0)
}

/// [`table_from_bytes_physical`] plus the byte span of every segment within
/// `buf` (in segment order), so a caller that just wrote or read `buf` as a
/// checkpoint file can hand the spans to the buffer pool as spill
/// addresses.
pub fn table_from_bytes_physical_indexed(full: &[u8]) -> StorageResult<(Table, Vec<SegmentSpan>)> {
    let mut buf = check_magic_and_crc(full, MAGIC_PHYSICAL)?;
    let buf = &mut buf;
    // `buf` is a subslice of `full` ending at the CRC trailer, so the file
    // offset of the parse position is recoverable from its remaining length.
    let offset_of = |rest: &[u8]| (full.len() - 4 - rest.len()) as u64;
    let name = get_str(buf)?;
    let schema = get_schema(buf)?;
    let options = get_options(buf)?;
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated wos count".into()));
    }
    let nwos = buf.get_u32_le() as usize;
    let mut wos = Vec::with_capacity(nwos.min(1 << 22));
    for _ in 0..nwos {
        wos.push(get_row(buf)?);
    }
    if buf.len() < 4 {
        return Err(StorageError::Corrupt("truncated segment count".into()));
    }
    let nsegs = buf.get_u32_le() as usize;
    let mut segments = Vec::with_capacity(nsegs.min(1 << 22));
    let mut spans = Vec::with_capacity(nsegs.min(1 << 22));
    for _ in 0..nsegs {
        let offset = offset_of(buf);
        segments.push(get_segment(buf)?);
        let end = offset_of(buf);
        let len = end - offset;
        let crc = crc32(&full[offset as usize..end as usize]);
        spans.push(SegmentSpan { offset, len, crc });
    }
    let mut delete_vectors = Vec::with_capacity(nsegs.min(1 << 22));
    for _ in 0..nsegs {
        delete_vectors.push(get_bitmap(buf)?);
    }
    let table = Table::from_parts(name, schema, options, wos, segments, delete_vectors)?;
    Ok((table, spans))
}

/// Writes a table to a file.
pub fn write_table(table: &Table, path: impl AsRef<Path>) -> StorageResult<()> {
    let bytes = table_to_bytes(table)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Reads a table from a file.
pub fn read_table(path: impl AsRef<Path>) -> StorageResult<Table> {
    let bytes = std::fs::read(path)?;
    table_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnPredicate;
    use crate::table::PredicateOp;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
            Field::new("payload", DataType::Blob),
            Field::new("flag", DataType::Bool),
        ]);
        let mut t = Table::new("sample", schema, TableOptions::default());
        for i in 0..50i64 {
            t.insert_row(vec![
                Value::Int(i),
                if i % 5 == 0 { Value::Null } else { Value::Str(format!("name{}", i % 3)) },
                Value::Float(i as f64 / 2.0),
                Value::Blob(vec![i as u8, (i + 1) as u8]),
                Value::Bool(i % 2 == 0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn roundtrip_preserves_logical_content() {
        let t = sample_table();
        let bytes = table_to_bytes(&t).unwrap();
        let back = table_from_bytes(&bytes).unwrap();
        assert_eq!(back.name(), "sample");
        assert_eq!(back.num_rows(), 50);
        let orig = RecordBatch::concat(t.schema().clone(), &t.scan(None, &[]).unwrap()).unwrap();
        let rest =
            RecordBatch::concat(back.schema().clone(), &back.scan(None, &[]).unwrap()).unwrap();
        // Sort-insensitive comparison via row multiset.
        let mut a = orig.rows();
        let mut b = rest.rows();
        let key = |r: &Vec<Value>| format!("{r:?}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_applies_deletes() {
        let mut t = sample_table();
        t.moveout().unwrap();
        let scans = t
            .scan_with_rowids(None, &[ColumnPredicate::new(0, PredicateOp::Lt, Value::Int(10))])
            .unwrap();
        let ids: Vec<u64> = scans.iter().flat_map(|(_, ids)| ids.clone()).collect();
        t.delete_rowids(&ids).unwrap();
        let bytes = table_to_bytes(&t).unwrap();
        let back = table_from_bytes(&bytes).unwrap();
        assert_eq!(back.num_rows(), 40);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join("vertexica_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.vxtb");
        write_table(&t, &path).unwrap();
        let back = read_table(&path).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(table_from_bytes(b"NOTAMAGIC"), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn truncated_file_rejected() {
        let t = sample_table();
        let bytes = table_to_bytes(&t).unwrap();
        for cut in [7, 20, bytes.len() / 2, bytes.len() - 3] {
            assert!(table_from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn empty_table_roundtrip() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let t = Table::new("empty", schema, TableOptions::default());
        let bytes = table_to_bytes(&t).unwrap();
        let back = table_from_bytes(&bytes).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema().len(), 1);
    }

    #[test]
    fn options_roundtrip() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut opts = TableOptions::default().with_moveout_threshold(7).compressed();
        opts.sort_key = vec![0];
        let t = Table::new("opt", schema, opts);
        let back = table_from_bytes(&table_to_bytes(&t).unwrap()).unwrap();
        assert_eq!(back.options().moveout_threshold, 7);
        assert!(back.options().compress);
        assert_eq!(back.options().sort_key, vec![0]);
    }
}
