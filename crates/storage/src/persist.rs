//! Compact binary persistence for tables.
//!
//! One self-describing format, `VXTB2`, ending in a CRC32 trailer so torn or
//! bit-flipped files surface as [`StorageError::Corrupt`] instead of decoding
//! silently: [`table_to_bytes_physical`] preserves the exact WOS rows,
//! per-segment encoded columns, per-segment **and per-block** zone maps, and
//! delete vectors, so `decode(encode(t))` re-serializes byte-identically.
//! This is the format the durability layer ([`crate::wal`]) flushes and
//! recovers, which is what makes "recovered state is bitwise the committed
//! state" a testable invariant.

use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder, ColumnData};
use crate::encoding::EncodedColumn;
use crate::error::{StorageError, StorageResult};
use crate::table::{Row, Segment, Table, TableOptions, ZoneMap};
use crate::value::{DataType, Field, Schema, Value};
use crate::wal::crc32;

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

// The one-byte cell tags `put_value` writes.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BLOB: u8 = 5;

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(x) => put_bool_value(buf, *x),
        Value::Int(x) => put_int_value(buf, *x),
        Value::Float(x) => put_float_value(buf, *x),
        Value::Str(x) => put_str_value(buf, x),
        Value::Blob(x) => put_blob_value(buf, x),
    }
}

fn put_bool_value(buf: &mut Vec<u8>, x: bool) {
    buf.put_u8(TAG_BOOL);
    buf.put_u8(x as u8);
}

fn put_int_value(buf: &mut Vec<u8>, x: i64) {
    buf.put_u8(TAG_INT);
    buf.put_i64_le(x);
}

fn put_float_value(buf: &mut Vec<u8>, x: f64) {
    buf.put_u8(TAG_FLOAT);
    buf.put_f64_le(x);
}

fn put_str_value(buf: &mut Vec<u8>, x: &str) {
    buf.put_u8(TAG_STR);
    put_str(buf, x);
}

/// A non-null blob exactly as [`put_value`] writes `Value::Blob`: tag, `u32`
/// length, bytes.
fn put_blob_value(buf: &mut Vec<u8>, cell: &[u8]) {
    buf.put_u8(TAG_BLOB);
    buf.put_u32_le(cell.len() as u32);
    buf.extend_from_slice(cell);
}

/// The next `N` bytes, or a truncation error naming `what`.
fn get_fixed<const N: usize>(buf: &mut &[u8], what: &str) -> StorageResult<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| StorageError::Corrupt(format!("truncated {what}")))?;
    *buf = rest;
    Ok(*head)
}

/// Reads the length and bytes that follow a blob tag.
fn get_blob_body<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a [u8]> {
    let len = u32::from_le_bytes(get_fixed(buf, "blob length")?) as usize;
    if buf.len() < len {
        return Err(StorageError::Corrupt("truncated blob body".into()));
    }
    let (body, rest) = buf.split_at(len);
    *buf = rest;
    Ok(body)
}

pub(crate) fn get_value(buf: &mut &[u8]) -> StorageResult<Value> {
    let [tag] = get_fixed(buf, "value")?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Bool(get_fixed::<1>(buf, "bool")?[0] != 0),
        TAG_INT => Value::Int(i64::from_le_bytes(get_fixed(buf, "int")?)),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(get_fixed(buf, "float")?)),
        TAG_STR => Value::Str(get_str(buf)?),
        TAG_BLOB => Value::Blob(get_blob_body(buf)?.to_vec()),
        _ => return Err(StorageError::Corrupt(format!("bad value tag {tag}"))),
    })
}

/// Writes a plain column's cells straight from its typed buffer, byte for
/// byte what [`put_value`] writes for each `c.value(i)`: NULL as a bare
/// tag, every other cell as its tag and payload.
fn put_plain_cells(buf: &mut Vec<u8>, c: &Column) {
    fn cells<T>(
        buf: &mut Vec<u8>,
        c: &Column,
        data: impl Iterator<Item = T>,
        put: fn(&mut Vec<u8>, T),
    ) {
        for (i, x) in data.enumerate() {
            if c.is_null(i) {
                buf.put_u8(TAG_NULL);
            } else {
                put(buf, x);
            }
        }
    }
    match c.data() {
        ColumnData::Bool(v) => cells(buf, c, v.iter().copied(), put_bool_value),
        ColumnData::Int(v) => cells(buf, c, v.iter().copied(), put_int_value),
        ColumnData::Float(v) => cells(buf, c, v.iter().copied(), put_float_value),
        ColumnData::Str(v) => cells(buf, c, v.iter().map(String::as_str), put_str_value),
        ColumnData::Blob(v) => cells(buf, c, v.iter(), put_blob_value),
    }
}

/// Reads `len` cells of a plain `dtype` column into its typed buffer. A
/// cell is NULL or carries the column's own tag; any other tag is
/// corruption, never a coerced value.
fn get_plain_cells(buf: &mut &[u8], dtype: DataType, len: usize) -> StorageResult<Column> {
    // Every cell takes at least its one-byte tag.
    let mut cells = ColumnBuilder::with_capacity(dtype, len.min(buf.len()));
    for _ in 0..len {
        let [tag] = get_fixed(buf, "value")?;
        match (tag, dtype) {
            (TAG_NULL, _) => cells.push_null(),
            (TAG_BOOL, DataType::Bool) => cells.push_bool(get_fixed::<1>(buf, "bool")?[0] != 0),
            (TAG_INT, DataType::Int) => cells.push_int(i64::from_le_bytes(get_fixed(buf, "int")?)),
            (TAG_FLOAT, DataType::Float) => {
                cells.push_float(f64::from_le_bytes(get_fixed(buf, "float")?))
            }
            (TAG_STR, DataType::Str) => cells.push_str(get_str(buf)?),
            (TAG_BLOB, DataType::Blob) => cells.push_blob(get_blob_body(buf)?),
            _ => {
                return Err(StorageError::Corrupt(format!(
                    "value tag {tag} in a plain {dtype} column"
                )))
            }
        }
    }
    Ok(cells.finish())
}

pub(crate) fn put_encoded_column(buf: &mut Vec<u8>, col: &EncodedColumn) {
    match col {
        EncodedColumn::Plain(c) => {
            buf.put_u8(0);
            buf.put_u8(dtype_tag(c.dtype()));
            buf.put_u64_le(c.len() as u64);
            put_plain_cells(buf, c);
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
            Ok(EncodedColumn::Plain(get_plain_cells(buf, dtype, len)?))
        }
        1 => {
            if buf.len() < 5 {
                return Err(StorageError::Corrupt("truncated rle header".into()));
            }
            let dtype = dtype_from_tag(buf.get_u8())?;
            let nruns = buf.get_u32_le() as usize;
            let mut runs = Vec::with_capacity(nruns.min(buf.len()));
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
            let mut dict = Vec::with_capacity(dict_len.min(buf.len()));
            for _ in 0..dict_len {
                dict.push(get_str(buf)?);
            }
            if buf.len() < 8 {
                return Err(StorageError::Corrupt("truncated dict codes".into()));
            }
            let codes_len = buf.get_u64_le() as usize;
            if codes_len.checked_mul(4).is_none_or(|body| buf.len() < body) {
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
    buf.put_u64_le(bm.len() as u64);
    bm.write_packed(buf);
}

fn get_bitmap(buf: &mut &[u8]) -> StorageResult<Bitmap> {
    let len = u64::from_le_bytes(get_fixed(buf, "bitmap length")?) as usize;
    let nbytes = len.div_ceil(8);
    if buf.len() < nbytes {
        return Err(StorageError::Corrupt("truncated bitmap body".into()));
    }
    let bitmap = Bitmap::from_packed(&buf[..nbytes], len);
    buf.advance(nbytes);
    Ok(bitmap)
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
/// vectors. The reconstructed table is byte-identical under
/// re-serialization — the durability layer's bitwise recovery invariant
/// rests on this.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RecordBatch;
    use crate::table::ColumnPredicate;
    use crate::table::PredicateOp;
    use crate::table::BLOCK_ROWS;
    use proptest::prelude::*;

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
        let bytes = table_to_bytes_physical(&t).unwrap();
        let back = table_from_bytes_physical(&bytes).unwrap();
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
        let bytes = table_to_bytes_physical(&t).unwrap();
        let back = table_from_bytes_physical(&bytes).unwrap();
        assert_eq!(back.num_rows(), 40);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join("vertexica_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.vxtb");
        std::fs::write(&path, table_to_bytes_physical(&t).unwrap()).unwrap();
        let back = table_from_bytes_physical(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(table_from_bytes_physical(b"NOTAMAGIC"), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn truncated_file_rejected() {
        let t = sample_table();
        let bytes = table_to_bytes_physical(&t).unwrap();
        for cut in [7, 20, bytes.len() / 2, bytes.len() - 3] {
            assert!(table_from_bytes_physical(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn empty_table_roundtrip() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let t = Table::new("empty", schema, TableOptions::default());
        let bytes = table_to_bytes_physical(&t).unwrap();
        let back = table_from_bytes_physical(&bytes).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema().len(), 1);
    }

    /// A dictionary column whose code count overflows `count * 4` is a
    /// typed error, not an arithmetic-overflow or capacity panic — even
    /// when the file's checksum is valid.
    #[test]
    fn dict_code_count_overflow_is_corrupt() {
        let mut body = vec![2u8]; // Dict
        body.put_u32_le(0); // no dictionary entries
        body.put_u64_le(1 << 62); // codes_len
        let err = get_encoded_column(&mut body.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    /// A plain column holds NULLs and cells of its own type only: a cell of
    /// another type is corruption, not a coerced value.
    #[test]
    fn plain_column_rejects_a_foreign_cell() {
        for (dtype, foreign) in [
            (DataType::Float, Value::Int(3)),
            (DataType::Int, Value::Float(3.0)),
            (DataType::Int, Value::Bool(true)),
            (DataType::Bool, Value::Int(1)),
            (DataType::Str, Value::Blob(vec![1])),
        ] {
            let mut body = vec![0u8, dtype_tag(dtype)]; // Plain
            body.put_u64_le(2);
            put_value(&mut body, &Value::Null);
            put_value(&mut body, &foreign);
            let err = get_encoded_column(&mut body.as_slice()).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{dtype}: {err}");
        }
    }

    /// Per-`Value` reference for the typed plain-column writer.
    fn put_plain_cells_boxed(buf: &mut Vec<u8>, c: &Column) {
        for i in 0..c.len() {
            put_value(buf, &c.value(i));
        }
    }

    /// Per-`Value` reference for the typed plain-column reader.
    fn get_plain_cells_boxed(buf: &mut &[u8], dtype: DataType, len: usize) -> Column {
        let values: Vec<Value> = (0..len).map(|_| get_value(buf).unwrap()).collect();
        Column::from_values(dtype, &values).unwrap()
    }

    /// Bit-by-bit reference for the packed delete-vector writer.
    fn put_bitmap_bitwise(buf: &mut Vec<u8>, bm: &Bitmap) {
        let bools = bm.to_bools();
        buf.put_u64_le(bools.len() as u64);
        for chunk in bools.chunks(8) {
            buf.put_u8(chunk.iter().enumerate().fold(0, |byte, (i, &b)| byte | (b as u8) << i));
        }
    }

    /// A cell of `dtype`, NULL or not, with each type's awkward values.
    fn arb_cell(dtype: DataType) -> BoxedStrategy<Value> {
        let value = match dtype {
            DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
            DataType::Int => prop_oneof![
                Just(Value::Int(i64::MIN)),
                Just(Value::Int(i64::MAX)),
                any::<i64>().prop_map(Value::Int)
            ]
            .boxed(),
            DataType::Float => prop_oneof![
                Just(Value::Float(f64::NAN)),
                Just(Value::Float(-f64::NAN)),
                Just(Value::Float(0.0)),
                Just(Value::Float(-0.0)),
                Just(Value::Float(f64::INFINITY)),
                Just(Value::Float(f64::NEG_INFINITY)),
                (-2.0f64..2.0).prop_map(Value::Float)
            ]
            .boxed(),
            DataType::Str => "[a-c]{0,3}".prop_map(Value::Str).boxed(),
            DataType::Blob => {
                proptest::collection::vec(any::<u8>(), 0..3).prop_map(Value::Blob).boxed()
            }
        };
        prop_oneof![1 => Just(Value::Null), 4 => value].boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The typed plain-column writer emits exactly the bytes of the
        /// boxed `put_value` loop, and the typed reader decodes them to the
        /// column the boxed reader builds — at 0, 1, `BLOCK_ROWS` and
        /// `BLOCK_ROWS + 1` rows, with and without NULLs.
        #[test]
        fn typed_plain_codec_equals_boxed(
            (dtype, pattern) in prop_oneof![
                Just(DataType::Bool),
                Just(DataType::Int),
                Just(DataType::Float),
                Just(DataType::Str),
                Just(DataType::Blob),
            ]
            .prop_flat_map(|dt| {
                proptest::collection::vec(arb_cell(dt), 1..24).prop_map(move |v| (dt, v))
            }),
            rows in prop_oneof![Just(0usize), Just(1), Just(BLOCK_ROWS), Just(BLOCK_ROWS + 1)],
            nulls in any::<bool>(),
        ) {
            let cells: Vec<Value> = pattern.into_iter().filter(|v| nulls || !v.is_null()).collect();
            let values: Vec<Value> = cells.iter().cycle().take(rows).cloned().collect();
            let col = Column::from_values(dtype, &values).unwrap();

            let mut typed = Vec::new();
            put_plain_cells(&mut typed, &col);
            let mut boxed = Vec::new();
            put_plain_cells_boxed(&mut boxed, &col);
            prop_assert_eq!(&typed, &boxed);

            let mut rest = typed.as_slice();
            let got = get_plain_cells(&mut rest, dtype, rows).unwrap();
            prop_assert!(rest.is_empty());
            let mut rest = boxed.as_slice();
            let want = get_plain_cells_boxed(&mut rest, dtype, rows);
            prop_assert_eq!(got.dtype(), want.dtype());
            prop_assert_eq!(got.validity(), want.validity());
            for i in 0..rows {
                let (g, w) = (got.value(i), want.value(i));
                prop_assert!(
                    std::mem::discriminant(&g) == std::mem::discriminant(&w)
                        && g.total_cmp(&w).is_eq(),
                    "row {}: {:?} vs {:?}", i, g, w
                );
            }
        }

        /// Delete vectors round-trip through the packed codec at every
        /// length 0..=130, in the bytes the bit-by-bit writer produced; set
        /// bits past the length in the last byte read as absent.
        #[test]
        fn bitmaps_roundtrip_packed(bits in proptest::collection::vec(any::<bool>(), 130)) {
            for len in 0..=130 {
                let bm = Bitmap::from_bools(&bits[..len]);
                let mut packed = Vec::new();
                put_bitmap(&mut packed, &bm);
                let mut bitwise = Vec::new();
                put_bitmap_bitwise(&mut bitwise, &bm);
                prop_assert_eq!(&packed, &bitwise, "len {}", len);
                let mut rest = packed.as_slice();
                prop_assert_eq!(get_bitmap(&mut rest).unwrap(), bm.clone(), "len {}", len);
                prop_assert!(rest.is_empty());
                if len % 8 != 0 {
                    *packed.last_mut().unwrap() |= !0u8 << (len % 8);
                    prop_assert_eq!(get_bitmap(&mut packed.as_slice()).unwrap(), bm, "len {}", len);
                }
            }
        }
    }

    #[test]
    fn options_roundtrip() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut opts = TableOptions::default().with_moveout_threshold(7).compressed();
        opts.sort_key = vec![0];
        let t = Table::new("opt", schema, opts);
        let back = table_from_bytes_physical(&table_to_bytes_physical(&t).unwrap()).unwrap();
        assert_eq!(back.options().moveout_threshold, 7);
        assert!(back.options().compress);
        assert_eq!(back.options().sort_key, vec![0]);
    }
}
