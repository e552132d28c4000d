//! Checkpoints: a full serialization of the multi-version storage at one
//! snapshot horizon, written atomically (temp file + fsync + rename) so a
//! crash can never leave a half-written checkpoint installed.
//!
//! A checkpoint records the `(epoch, wal_seq)` pair it was captured at:
//! recovery loads the image, then replays only WAL records with sequence
//! `>= wal_seq`. Rows are stored as the versions *visible* at the capture
//! epoch — later deletes and updates are re-applied from the log, so the
//! vacuum horizon must never climb past a running checkpoint's epoch (see
//! `Database::vacuum`).

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use crate::durability::{
    crc32, put_row, put_str, put_u32, put_u64, CrashPoint, Cursor, DurabilityState,
};
use crate::error::{DbError, DbResult};
use crate::index::{IndexDef, RowId};
use crate::row::Row;
use crate::schema::{ColumnDef, ForeignKey, TableSchema};
use crate::value::DataType;

const CKPT_MAGIC: &[u8; 8] = b"D2GCKPT1";

/// Everything a checkpoint persists.
pub(crate) struct CheckpointImage {
    /// Snapshot horizon the table data was serialized at.
    pub(crate) epoch: u64,
    /// First WAL sequence number *not* covered by this checkpoint.
    pub(crate) wal_seq: u64,
    pub tables: Vec<TableImage>,
    /// Views as `(name, select_sql)`, re-parsed on load.
    pub(crate) views: Vec<(String, String)>,
}

pub(crate) struct TableImage {
    pub schema: TableSchema,
    /// Index definitions beyond the schema-implied primary key/unique
    /// ones (i.e. those created by `CREATE INDEX`).
    pub(crate) secondary: Vec<IndexDef>,
    /// Slot-array length at capture, so recovered row ids keep their
    /// positions (fresh inserts after recovery reuse the gaps).
    pub(crate) slots: u64,
    /// `(rid, begin_epoch, row)` for every version visible at `epoch`.
    pub rows: Vec<(RowId, u64, Row)>,
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bigint => 0,
        DataType::Double => 1,
        DataType::Varchar => 2,
        DataType::Boolean => 3,
    }
}

fn dtype_from(tag: u8) -> DbResult<DataType> {
    Ok(match tag {
        0 => DataType::Bigint,
        1 => DataType::Double,
        2 => DataType::Varchar,
        3 => DataType::Boolean,
        t => return Err(DbError::Io(format!("unknown data type tag {t}"))),
    })
}

fn put_names(out: &mut Vec<u8>, names: &[String]) {
    put_u32(out, names.len() as u32);
    for n in names {
        put_str(out, n);
    }
}

fn read_names(c: &mut Cursor<'_>) -> DbResult<Vec<String>> {
    let n = c.u32()? as usize;
    (0..n).map(|_| c.str()).collect()
}

fn encode(image: &CheckpointImage) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, image.epoch);
    put_u64(&mut out, image.wal_seq);
    put_u32(&mut out, image.tables.len() as u32);
    for t in &image.tables {
        let s = &t.schema;
        put_str(&mut out, &s.name);
        put_u32(&mut out, s.columns.len() as u32);
        for col in &s.columns {
            put_str(&mut out, &col.name);
            out.push(dtype_tag(col.data_type));
            out.push(col.nullable as u8);
        }
        match &s.primary_key {
            Some(pk) => {
                out.push(1);
                put_names(&mut out, pk);
            }
            None => out.push(0),
        }
        put_u32(&mut out, s.foreign_keys.len() as u32);
        for fk in &s.foreign_keys {
            put_names(&mut out, &fk.columns);
            put_str(&mut out, &fk.ref_table);
            put_names(&mut out, &fk.ref_columns);
        }
        put_u32(&mut out, s.uniques.len() as u32);
        for u in &s.uniques {
            put_names(&mut out, u);
        }
        put_u32(&mut out, t.secondary.len() as u32);
        for ix in &t.secondary {
            put_str(&mut out, &ix.name);
            put_names(&mut out, &ix.columns);
            out.push(ix.unique as u8);
        }
        put_u64(&mut out, t.slots);
        put_u32(&mut out, t.rows.len() as u32);
        for (rid, begin, row) in &t.rows {
            put_u64(&mut out, *rid as u64);
            put_u64(&mut out, *begin);
            put_row(&mut out, row);
        }
    }
    put_u32(&mut out, image.views.len() as u32);
    for (name, sql) in &image.views {
        put_str(&mut out, name);
        put_str(&mut out, sql);
    }
    out
}

fn decode(body: &[u8]) -> DbResult<CheckpointImage> {
    let mut c = Cursor::new(body);
    let epoch = c.u64()?;
    let wal_seq = c.u64()?;
    let ntables = c.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    for _ in 0..ntables {
        let name = c.str()?;
        let ncols = c.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            let cname = c.str()?;
            let data_type = dtype_from(c.u8()?)?;
            let nullable = c.u8()? != 0;
            columns.push(ColumnDef { name: cname, data_type, nullable });
        }
        let primary_key = if c.u8()? != 0 { Some(read_names(&mut c)?) } else { None };
        let nfk = c.u32()? as usize;
        let mut foreign_keys = Vec::with_capacity(nfk.min(1024));
        for _ in 0..nfk {
            let cols = read_names(&mut c)?;
            let ref_table = c.str()?;
            let ref_columns = read_names(&mut c)?;
            foreign_keys.push(ForeignKey { columns: cols, ref_table, ref_columns });
        }
        let nuq = c.u32()? as usize;
        let mut uniques = Vec::with_capacity(nuq.min(1024));
        for _ in 0..nuq {
            uniques.push(read_names(&mut c)?);
        }
        let schema = TableSchema { name, columns, primary_key, foreign_keys, uniques };
        let nix = c.u32()? as usize;
        let mut secondary = Vec::with_capacity(nix.min(1024));
        for _ in 0..nix {
            let iname = c.str()?;
            let icols = read_names(&mut c)?;
            let unique = c.u8()? != 0;
            secondary.push(IndexDef { name: iname, columns: icols, unique });
        }
        let slots = c.u64()?;
        let nrows = c.u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(65_536));
        for _ in 0..nrows {
            let rid = c.u64()? as RowId;
            let begin = c.u64()?;
            rows.push((rid, begin, c.row()?));
        }
        tables.push(TableImage { schema, secondary, slots, rows });
    }
    let nviews = c.u32()? as usize;
    let mut views = Vec::with_capacity(nviews.min(1024));
    for _ in 0..nviews {
        let name = c.str()?;
        let sql = c.str()?;
        views.push((name, sql));
    }
    Ok(CheckpointImage { epoch, wal_seq, tables, views })
}

pub(crate) fn checkpoint_path(dir: &Path) -> std::path::PathBuf {
    dir.join("checkpoint.bin")
}

/// Write a checkpoint atomically, observing the `Checkpoint*` crash
/// points. Returns the serialized byte count.
pub(crate) fn write(d: &DurabilityState, image: &CheckpointImage) -> DbResult<u64> {
    let body = encode(image);
    let tmp = d.dir.join("checkpoint.bin.tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| DbError::Io(format!("create ckpt tmp: {e}")))?;
        f.write_all(CKPT_MAGIC).map_err(|e| DbError::Io(format!("write ckpt: {e}")))?;
        f.write_all(&crc32(&body).to_le_bytes())
            .map_err(|e| DbError::Io(format!("write ckpt: {e}")))?;
        f.write_all(&body).map_err(|e| DbError::Io(format!("write ckpt: {e}")))?;
        f.sync_data().map_err(|e| DbError::Io(format!("sync ckpt: {e}")))?;
    }
    d.crash_gate(CrashPoint::CheckpointWritten)?;
    std::fs::rename(&tmp, checkpoint_path(&d.dir))
        .map_err(|e| DbError::Io(format!("install ckpt: {e}")))?;
    if let Ok(f) = File::open(&d.dir) {
        let _ = f.sync_all();
    }
    d.crash_gate(CrashPoint::CheckpointInstalled)?;
    Ok((body.len() + 12) as u64)
}

/// Validate a checkpoint file's framing (magic + CRC) and return its body.
fn verified_body(buf: &[u8]) -> DbResult<&[u8]> {
    if buf.len() < 12 || &buf[..8] != CKPT_MAGIC {
        return Err(DbError::Io("checkpoint header is corrupt".into()));
    }
    let crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let body = &buf[12..];
    if crc32(body) != crc {
        return Err(DbError::Io("checkpoint checksum mismatch".into()));
    }
    Ok(body)
}

/// Read the installed checkpoint file verbatim (magic + crc + body) after
/// verifying its integrity — the primary serves exactly these bytes to a
/// bootstrapping follower. `Ok(None)` when no checkpoint is installed.
pub(crate) fn verified_bytes(dir: &Path) -> DbResult<Option<Vec<u8>>> {
    let path = checkpoint_path(dir);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf).map_err(|e| DbError::Io(format!("read checkpoint: {e}")))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(DbError::Io(format!("open checkpoint: {e}"))),
    };
    verified_body(&buf)?;
    Ok(Some(buf))
}

/// Decode a full checkpoint file image (as produced by [`write`] or
/// shipped by a primary), verifying magic and checksum first.
pub(crate) fn decode_file(buf: &[u8]) -> DbResult<CheckpointImage> {
    decode(verified_body(buf)?)
}

/// Load the installed checkpoint, if any. A missing file is `Ok(None)`;
/// a present but corrupt file is an error — it means installed state was
/// damaged, which recovery must not paper over silently.
pub(crate) fn load(dir: &Path) -> DbResult<Option<CheckpointImage>> {
    match verified_bytes(dir)? {
        Some(buf) => decode_file(&buf).map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn image_codec_round_trips() {
        let image = CheckpointImage {
            epoch: 17,
            wal_seq: 23,
            tables: vec![TableImage {
                schema: TableSchema {
                    name: "Account".into(),
                    columns: vec![
                        ColumnDef::new("aid", DataType::Bigint).not_null(),
                        ColumnDef::new("name", DataType::Varchar),
                    ],
                    primary_key: Some(vec!["aid".into()]),
                    foreign_keys: vec![ForeignKey {
                        columns: vec!["aid".into()],
                        ref_table: "Other".into(),
                        ref_columns: vec!["oid".into()],
                    }],
                    uniques: vec![vec!["name".into()]],
                },
                secondary: vec![IndexDef {
                    name: "ix_name".into(),
                    columns: vec!["name".into()],
                    unique: false,
                }],
                slots: 5,
                rows: vec![(0, 3, vec![Value::Bigint(1), Value::Varchar("a".into())])],
            }],
            views: vec![("V".into(), "SELECT aid FROM Account".into())],
        };
        let body = encode(&image);
        let back = decode(&body).unwrap();
        assert_eq!(back.epoch, 17);
        assert_eq!(back.wal_seq, 23);
        assert_eq!(back.tables.len(), 1);
        let t = &back.tables[0];
        assert_eq!(t.schema, image.tables[0].schema);
        assert_eq!(t.secondary, image.tables[0].secondary);
        assert_eq!(t.slots, 5);
        assert_eq!(t.rows, image.tables[0].rows);
        assert_eq!(back.views, image.views);
    }

    #[test]
    fn decode_rejects_truncation_cleanly() {
        let image = CheckpointImage {
            epoch: 1,
            wal_seq: 2,
            tables: vec![],
            views: vec![("v".into(), "SELECT 1".into())],
        };
        let body = encode(&image);
        for cut in 0..body.len() {
            let _ = decode(&body[..cut]); // must not panic
        }
    }
}
