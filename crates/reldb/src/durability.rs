//! Durability layer: binary write-ahead log, crash-injection harness, and
//! the shared state commits and checkpoints thread through.
//!
//! The WAL is the paper's "retrofit onto a durable host" premise made real
//! for our embedded engine: one record per committed statement batch,
//! sealed at the commit-epoch publication point (the same instant
//! `commit_epoch` is stored with `Release` ordering), so the log's record
//! sequence *is* the epoch sequence. Records are length-prefixed and
//! CRC-checksummed; recovery replays the longest valid prefix and
//! truncates a torn or corrupt tail in place — it never replays it.
//!
//! Because this layer exists to be proven by tests, every I/O boundary is
//! enumerable as a [`CrashPoint`]: a hook (same style as the dialect's
//! statement hook) decides per point whether the "process" dies there.
//! Dying poisons the layer — all later durable I/O fails — so a test can
//! drop the database and reopen it from disk exactly as a real crash
//! would. See `docs/DURABILITY.md` for the on-disk format.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::{DbError, DbResult};
use crate::index::RowId;
use crate::metrics::DbMetrics;
use crate::row::Row;
use crate::value::Value;

// ---------------------------------------------------------------- modes

/// How eagerly committed work reaches disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// fsync the WAL before every commit publishes. A crash loses nothing
    /// that was acknowledged.
    #[default]
    Always,
    /// Append without fsync; sync every `BATCH_SYNC_EVERY` records and
    /// at checkpoints. An OS crash may lose the newest few commits but the
    /// surviving prefix is always consistent.
    Batch,
    /// No WAL at all; checkpoints are the only durable state.
    Off,
}

impl Durability {
    /// Parse a mode name as used by config/env (`always`/`batch`/`off`).
    pub fn parse(s: &str) -> Option<Durability> {
        match s.trim().to_ascii_lowercase().as_str() {
            "always" => Some(Durability::Always),
            "batch" => Some(Durability::Batch),
            "off" => Some(Durability::Off),
            _ => None,
        }
    }
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Durability::Always => "always",
            Durability::Batch => "batch",
            Durability::Off => "off",
        })
    }
}

/// In `Batch` mode, fsync after this many appends.
pub(crate) const BATCH_SYNC_EVERY: u32 = 32;

// --------------------------------------------------------- crash points

/// Every I/O boundary of the durability layer, in the order a commit and
/// a checkpoint pass through them. Tests install a `CrashHook` to die
/// deterministically at any of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// About to append a WAL record; no bytes written yet.
    WalAppend,
    /// Mid-append: only a prefix of the record reached the file (a torn
    /// write). Recovery must truncate it.
    WalTorn,
    /// Record fully written (and fsynced under `Always`), but the commit
    /// has not yet published in memory.
    WalSynced,
    /// Checkpoint captured its (epoch, WAL position) pair; serialization
    /// of table data is about to start.
    CheckpointBegin,
    /// Temp checkpoint file fully written and fsynced, not yet renamed
    /// into place.
    CheckpointWritten,
    /// Checkpoint renamed into place; the WAL prefix it covers has not
    /// been dropped yet.
    CheckpointInstalled,
    /// WAL rotated: the prefix covered by the checkpoint is gone.
    WalRotated,
}

impl CrashPoint {
    /// All crash points, for matrix-style test enumeration.
    pub const ALL: [CrashPoint; 7] = [
        CrashPoint::WalAppend,
        CrashPoint::WalTorn,
        CrashPoint::WalSynced,
        CrashPoint::CheckpointBegin,
        CrashPoint::CheckpointWritten,
        CrashPoint::CheckpointInstalled,
        CrashPoint::WalRotated,
    ];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Decides, per crash point, whether the simulated process dies there.
/// Returning `true` poisons the durability layer and fails the operation.
///
/// The hook runs while the WAL lock is held for the `Wal*` points, so it
/// must not call back into the database; the `Checkpoint*` points run
/// lock-free and may (tests use this to race commits and vacuum against a
/// checkpoint in progress).
pub(crate) type CrashHook = Arc<dyn Fn(CrashPoint) -> bool + Send + Sync>;

// ----------------------------------------------------------------- crc32

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE, reflected) — the checksum guarding every WAL record body
/// and the checkpoint body.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------- codec

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

const TAG_NULL: u8 = 0;
const TAG_BIGINT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_VARCHAR: u8 = 3;
const TAG_BOOLEAN: u8 = 4;

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bigint(i) => {
            out.push(TAG_BIGINT);
            put_u64(out, *i as u64);
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            put_u64(out, d.to_bits());
        }
        Value::Varchar(s) => {
            out.push(TAG_VARCHAR);
            put_str(out, s);
        }
        Value::Boolean(b) => {
            out.push(TAG_BOOLEAN);
            out.push(*b as u8);
        }
    }
}

pub(crate) fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

/// Bounded reader over an untrusted byte slice: every accessor fails
/// cleanly instead of panicking, so a corrupt record can never take the
/// process down.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DbError::Io("truncated record".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> DbResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DbError::Io("invalid utf-8 in record".into()))
    }

    pub(crate) fn value(&mut self) -> DbResult<Value> {
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_BIGINT => Ok(Value::Bigint(self.u64()? as i64)),
            TAG_DOUBLE => Ok(Value::Double(f64::from_bits(self.u64()?))),
            TAG_VARCHAR => Ok(Value::Varchar(self.str()?)),
            TAG_BOOLEAN => Ok(Value::Boolean(self.u8()? != 0)),
            t => Err(DbError::Io(format!("unknown value tag {t}"))),
        }
    }

    pub(crate) fn row(&mut self) -> DbResult<Row> {
        let n = self.u32()? as usize;
        if n > MAX_RECORD_LEN {
            return Err(DbError::Io("row length out of range".into()));
        }
        (0..n).map(|_| self.value()).collect()
    }
}

// --------------------------------------------------------------- records

/// The durable effect of one commit on a single row: the final image
/// (covering insert and any number of updates) or a deletion. Intermediate
/// versions inside one transaction are invisible to every post-recovery
/// reader, so the WAL never carries them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NetChange {
    Put(Row),
    Del,
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// All net row changes of one transaction, published at `epoch`.
    Commit { epoch: u64, changes: Vec<(String, RowId, NetChange)> },
    /// A committed DDL statement, replayed as SQL text.
    Ddl { sql: String },
}

const KIND_COMMIT: u8 = 1;
const KIND_DDL: u8 = 2;
const OP_PUT: u8 = 0;
const OP_DEL: u8 = 1;

/// Upper bound on a sane record length; anything larger in a length
/// prefix means the tail is garbage.
const MAX_RECORD_LEN: usize = 1 << 30;

pub(crate) fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Commit { epoch, changes } => {
            out.push(KIND_COMMIT);
            put_u64(&mut out, *epoch);
            put_u32(&mut out, changes.len() as u32);
            for (table, rid, change) in changes {
                match change {
                    NetChange::Put(row) => {
                        out.push(OP_PUT);
                        put_str(&mut out, table);
                        put_u64(&mut out, *rid as u64);
                        put_row(&mut out, row);
                    }
                    NetChange::Del => {
                        out.push(OP_DEL);
                        put_str(&mut out, table);
                        put_u64(&mut out, *rid as u64);
                    }
                }
            }
        }
        WalRecord::Ddl { sql } => {
            out.push(KIND_DDL);
            put_str(&mut out, sql);
        }
    }
    out
}

pub(crate) fn decode_record(body: &[u8]) -> DbResult<WalRecord> {
    let mut c = Cursor::new(body);
    let rec = match c.u8()? {
        KIND_COMMIT => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_RECORD_LEN {
                return Err(DbError::Io("change count out of range".into()));
            }
            let mut changes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let op = c.u8()?;
                let table = c.str()?;
                let rid = c.u64()? as RowId;
                let change = match op {
                    OP_PUT => NetChange::Put(c.row()?),
                    OP_DEL => NetChange::Del,
                    o => return Err(DbError::Io(format!("unknown change op {o}"))),
                };
                changes.push((table, rid, change));
            }
            WalRecord::Commit { epoch, changes }
        }
        KIND_DDL => WalRecord::Ddl { sql: c.str()? },
        k => return Err(DbError::Io(format!("unknown record kind {k}"))),
    };
    if !c.is_empty() {
        return Err(DbError::Io("trailing bytes in record".into()));
    }
    Ok(rec)
}

// -------------------------------------------------------------- WAL file

const WAL_MAGIC: &[u8; 8] = b"D2GWAL1\n";
const WAL_HEADER_LEN: u64 = 16; // magic + u64 base_seq

fn io_err(ctx: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{ctx}: {e}"))
}

/// fsync a directory so a rename inside it is durable.
fn sync_dir(dir: &Path) -> DbResult<()> {
    // Directory fsync is not available on every platform; opening may fail
    // (e.g. on Windows), in which case rename durability rides on the OS.
    if let Ok(f) = File::open(dir) {
        f.sync_all().map_err(|e| io_err("sync dir", e))?;
    }
    Ok(())
}

/// The open WAL file handle plus its position bookkeeping. Record `i` in
/// the file has sequence number `base_seq + i`; rotation after a
/// checkpoint rewrites the file to start at the checkpoint's sequence.
pub(crate) struct Wal {
    file: File,
    base_seq: u64,
    records: u64,
    len: u64,
    unsynced: u32,
}

/// What a WAL scan found on open: the surviving records (each paired with
/// its sequence number) and how many torn/corrupt tail bytes were cut.
pub(crate) struct WalScan {
    pub records: Vec<(u64, WalRecord)>,
    pub(crate) truncated_bytes: u64,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, validate every record,
    /// and truncate any torn or corrupt tail in place. `fallback_base` is
    /// the sequence to restart from when the file header itself is
    /// unreadable (the latest checkpoint's WAL sequence).
    pub(crate) fn open(path: &Path, fallback_base: u64) -> DbResult<(Wal, WalScan)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open wal", e))?;
        let mut buf = Vec::new();
        file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek wal", e))?;
        file.read_to_end(&mut buf).map_err(|e| io_err("read wal", e))?;

        if buf.len() < WAL_HEADER_LEN as usize || &buf[..8] != WAL_MAGIC {
            // Empty, torn, or foreign header: start a fresh log. Anything
            // that was in the file is unreadable, so it is dropped — the
            // checkpoint (whose sequence seeds `fallback_base`) is the
            // recovery source.
            let dropped = buf.len() as u64;
            file.set_len(0).map_err(|e| io_err("truncate wal", e))?;
            let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
            header.extend_from_slice(WAL_MAGIC);
            put_u64(&mut header, fallback_base);
            file.write_all(&header).map_err(|e| io_err("write wal header", e))?;
            file.sync_data().map_err(|e| io_err("sync wal", e))?;
            let wal =
                Wal { file, base_seq: fallback_base, records: 0, len: WAL_HEADER_LEN, unsynced: 0 };
            return Ok((wal, WalScan { records: Vec::new(), truncated_bytes: dropped }));
        }

        let base_seq = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let region = &buf[WAL_HEADER_LEN as usize..];
        let mut off = 0usize;
        let mut records = Vec::new();
        loop {
            let rem = &region[off..];
            if rem.len() < 8 {
                break; // incomplete frame header: torn tail
            }
            let len = u32::from_le_bytes(rem[..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(rem[4..8].try_into().unwrap());
            if len == 0 || len > MAX_RECORD_LEN || rem.len() < 8 + len {
                break; // insane or incomplete body: torn tail
            }
            let body = &rem[8..8 + len];
            if crc32(body) != crc {
                break; // bit rot or torn write inside the body
            }
            match decode_record(body) {
                Ok(rec) => records.push((base_seq + records.len() as u64, rec)),
                Err(_) => break, // checksummed but unparseable: treat as tail
            }
            off += 8 + len;
        }
        let valid_len = WAL_HEADER_LEN + off as u64;
        let truncated_bytes = buf.len() as u64 - valid_len;
        if truncated_bytes > 0 {
            file.set_len(valid_len).map_err(|e| io_err("truncate wal tail", e))?;
            file.sync_data().map_err(|e| io_err("sync wal", e))?;
        }
        let wal =
            Wal { file, base_seq, records: records.len() as u64, len: valid_len, unsynced: 0 };
        Ok((wal, WalScan { records, truncated_bytes }))
    }

    /// Sequence number the next appended record will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.base_seq + self.records
    }

    /// Current byte length of the file (all records valid).
    pub(crate) fn byte_len(&self) -> u64 {
        self.len
    }
}

// --------------------------------------------------------- shared state

/// Everything the database shares with its WAL and checkpoint machinery.
pub(crate) struct DurabilityState {
    pub(crate) dir: PathBuf,
    pub(crate) mode: Durability,
    /// Open in every mode. `Off` never appends, but checkpoints still
    /// capture the real file position and rotate it, so records an image
    /// already covers can never be replayed on top of it. `None` only in
    /// unit tests that drive the WAL by hand.
    wal: Mutex<Option<Wal>>,
    /// The database's metric table: appends count WAL records and bytes,
    /// and every `sync_data` lands in its fsync histogram.
    metrics: Arc<DbMetrics>,
    crash: RwLock<Option<CrashHook>>,
    /// Set after a simulated crash: all further durable I/O fails, exactly
    /// as if the process were gone.
    dead: AtomicBool,
    /// Epoch a running checkpoint is serializing at (`u64::MAX` when
    /// none): vacuum must not reclaim versions still visible at it.
    pub(crate) checkpoint_floor: AtomicU64,
    /// Snapshot epoch of the last completed checkpoint.
    pub(crate) last_checkpoint_epoch: AtomicU64,
    /// Serializes whole checkpoints (capture → write → rotate).
    pub(crate) checkpoint_gate: Mutex<()>,
    /// Byte length of the WAL prefix known to be fsynced (updated after
    /// every successful `sync_data`). In `Batch` mode this lags `len` by up
    /// to [`BATCH_SYNC_EVERY`] - 1 records; the durability-contract test
    /// truncates a copied WAL to this length to simulate worst-case OS
    /// loss of the page cache.
    pub(crate) synced_len: AtomicU64,
}

/// No checkpoint in progress.
pub(crate) const NO_FLOOR: u64 = u64::MAX;

impl DurabilityState {
    pub(crate) fn new(
        dir: PathBuf,
        mode: Durability,
        wal: Option<Wal>,
        metrics: Arc<DbMetrics>,
    ) -> DurabilityState {
        let synced = wal.as_ref().map(Wal::byte_len).unwrap_or(0);
        DurabilityState {
            dir,
            mode,
            wal: Mutex::new(wal),
            metrics,
            crash: RwLock::new(None),
            dead: AtomicBool::new(false),
            checkpoint_floor: AtomicU64::new(NO_FLOOR),
            last_checkpoint_epoch: AtomicU64::new(0),
            checkpoint_gate: Mutex::new(()),
            synced_len: AtomicU64::new(synced),
        }
    }

    /// `sync_data` on the live WAL file, timed into the fsync histogram.
    fn timed_sync(&self, file: &File) -> std::io::Result<()> {
        let start = std::time::Instant::now();
        let out = file.sync_data();
        self.metrics.wal_fsync.record(start.elapsed().as_nanos() as u64);
        out
    }

    pub(crate) fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    pub(crate) fn set_crash_hook(&self, hook: Option<CrashHook>) {
        *self.crash.write() = hook;
    }

    fn fire(&self, point: CrashPoint) -> bool {
        let hook = self.crash.read().clone();
        hook.map(|h| h(point)).unwrap_or(false)
    }

    fn die(&self, point: CrashPoint) -> DbError {
        self.dead.store(true, Ordering::Release);
        DbError::Io(format!("simulated crash at {point}"))
    }

    fn check_alive(&self) -> DbResult<()> {
        if self.dead.load(Ordering::Acquire) {
            return Err(DbError::Io("durability layer is down (crashed)".into()));
        }
        Ok(())
    }

    /// Evaluate a crash point outside the WAL lock (checkpoint-side).
    pub(crate) fn crash_gate(&self, point: CrashPoint) -> DbResult<()> {
        self.check_alive()?;
        if self.fire(point) {
            return Err(self.die(point));
        }
        Ok(())
    }

    /// Append one record, observing the `Wal*` crash points. Under
    /// `Always` the record is fsynced before this returns; the caller
    /// publishes the commit only on `Ok`.
    pub(crate) fn append(&self, rec: &WalRecord) -> DbResult<()> {
        if self.mode == Durability::Off {
            return Ok(());
        }
        self.check_alive()?;
        let mut guard = self.wal.lock();
        let Some(w) = guard.as_mut() else { return Ok(()) };
        if self.fire(CrashPoint::WalAppend) {
            return Err(self.die(CrashPoint::WalAppend));
        }
        let body = encode_record(rec);
        let mut frame = Vec::with_capacity(8 + body.len());
        put_u32(&mut frame, body.len() as u32);
        put_u32(&mut frame, crc32(&body));
        frame.extend_from_slice(&body);
        if self.fire(CrashPoint::WalTorn) {
            // A genuine torn write: half the frame reaches the file, then
            // the process is gone. Recovery must cut this tail.
            let cut = (frame.len() / 2).max(1);
            let _ = w.file.write_all(&frame[..cut]);
            let _ = w.file.sync_data();
            return Err(self.die(CrashPoint::WalTorn));
        }
        w.file.write_all(&frame).map_err(|e| io_err("append wal", e))?;
        w.records += 1;
        w.len += frame.len() as u64;
        match self.mode {
            Durability::Always => {
                self.timed_sync(&w.file).map_err(|e| io_err("sync wal", e))?;
                self.synced_len.store(w.len, Ordering::Release);
            }
            Durability::Batch => {
                w.unsynced += 1;
                if w.unsynced >= BATCH_SYNC_EVERY {
                    self.timed_sync(&w.file).map_err(|e| io_err("sync wal", e))?;
                    w.unsynced = 0;
                    self.synced_len.store(w.len, Ordering::Release);
                }
            }
            Durability::Off => unreachable!(),
        }
        self.metrics.wal_records.add(1);
        self.metrics.wal_bytes.add(frame.len() as u64);
        if self.fire(CrashPoint::WalSynced) {
            return Err(self.die(CrashPoint::WalSynced));
        }
        Ok(())
    }

    /// Capture the WAL position a checkpoint will cut at: the next
    /// sequence number and its byte offset. Must run while no commit can
    /// append (the caller holds the commit lock).
    pub(crate) fn capture_position(&self) -> (u64, u64) {
        let guard = self.wal.lock();
        match guard.as_ref() {
            Some(w) => (w.next_seq(), w.byte_len()),
            None => (0, 0),
        }
    }

    /// Drop the WAL prefix covered by a checkpoint: rewrite the file so
    /// it starts at `cut_seq`, whose first frame byte was at `cut_off`.
    /// Appends that landed after capture are carried over verbatim.
    pub(crate) fn rotate(&self, cut_seq: u64, cut_off: u64) -> DbResult<()> {
        self.check_alive()?;
        let mut guard = self.wal.lock();
        let Some(w) = guard.as_mut() else { return Ok(()) };
        // Validate the cut against the live log *before* touching the file:
        // a corrupt or stale checkpoint META can hand us a cut sequence the
        // log does not cover, and rewriting the WAL from it would silently
        // drop committed records (or wrap the arithmetic below).
        let cut_records = cut_seq.checked_sub(w.base_seq).ok_or_else(|| {
            DbError::Recovery(format!(
                "checkpoint cut sequence {cut_seq} precedes wal base sequence {}; \
                 refusing to rotate a log the checkpoint does not cover",
                w.base_seq
            ))
        })?;
        let carried = w.records.checked_sub(cut_records).ok_or_else(|| {
            DbError::Recovery(format!(
                "checkpoint cut sequence {cut_seq} is beyond the wal end {}; \
                 refusing to rotate past records that were never logged",
                w.next_seq()
            ))
        })?;
        // Make the suffix durable before switching files (Batch mode may
        // still owe an fsync for it).
        w.file.sync_data().map_err(|e| io_err("sync wal", e))?;
        w.file.seek(SeekFrom::Start(cut_off)).map_err(|e| io_err("seek wal", e))?;
        let mut tail = Vec::new();
        w.file.read_to_end(&mut tail).map_err(|e| io_err("read wal tail", e))?;

        let tmp = self.dir.join("wal.log.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create wal.tmp", e))?;
            let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
            header.extend_from_slice(WAL_MAGIC);
            put_u64(&mut header, cut_seq);
            f.write_all(&header).map_err(|e| io_err("write wal.tmp", e))?;
            f.write_all(&tail).map_err(|e| io_err("write wal.tmp", e))?;
            f.sync_data().map_err(|e| io_err("sync wal.tmp", e))?;
        }
        std::fs::rename(&tmp, self.wal_path()).map_err(|e| io_err("rename wal", e))?;
        sync_dir(&self.dir)?;

        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(self.wal_path())
            .map_err(|e| io_err("reopen wal", e))?;
        *w = Wal {
            file,
            base_seq: cut_seq,
            records: carried,
            len: WAL_HEADER_LEN + tail.len() as u64,
            unsynced: 0,
        };
        self.synced_len.store(w.len, Ordering::Release);
        drop(guard);
        if self.fire(CrashPoint::WalRotated) {
            return Err(self.die(CrashPoint::WalRotated));
        }
        Ok(())
    }

    /// Force any buffered WAL bytes to disk (used by `Batch` mode at
    /// checkpoint and shutdown boundaries).
    pub(crate) fn sync(&self) -> DbResult<()> {
        if self.mode == Durability::Off {
            return Ok(());
        }
        self.check_alive()?;
        let mut guard = self.wal.lock();
        if let Some(w) = guard.as_mut() {
            self.timed_sync(&w.file).map_err(|e| io_err("sync wal", e))?;
            w.unsynced = 0;
            self.synced_len.store(w.len, Ordering::Release);
        }
        Ok(())
    }

    /// Read committed WAL frames for a follower, starting at `from_seq`,
    /// capped at roughly `max_bytes` of frame data (at least one whole
    /// frame is returned when any is available). Returns
    /// [`WalTailResult::Gap`] when the log no longer (or does not yet)
    /// cover `from_seq` — after a rotation dropped it, or when the
    /// follower is ahead of a primary that lost state — in which case the
    /// follower must re-bootstrap from the checkpoint image.
    pub(crate) fn tail_since(&self, from_seq: u64, max_bytes: usize) -> DbResult<WalTailResult> {
        self.check_alive()?;
        let mut guard = self.wal.lock();
        let Some(w) = guard.as_mut() else {
            return Err(DbError::Io("wal is not open".into()));
        };
        let primary_next = w.next_seq();
        if from_seq < w.base_seq || from_seq > primary_next {
            return Ok(WalTailResult::Gap { base_seq: w.base_seq });
        }
        // Frames are variable-length, so the only way to locate `from_seq`
        // is to walk headers from the start. The read happens under the WAL
        // lock, so no append can race it; append mode keeps writes pinned
        // to the end regardless of the read cursor (rotation relies on the
        // same property).
        w.file.seek(SeekFrom::Start(WAL_HEADER_LEN)).map_err(|e| io_err("seek wal", e))?;
        let mut region = Vec::new();
        w.file.read_to_end(&mut region).map_err(|e| io_err("read wal", e))?;
        let corrupt = |what: &str| {
            DbError::Recovery(format!(
                "wal frame walk failed at a {what}; log is corrupt in memory"
            ))
        };
        let mut off = 0usize;
        for _ in 0..(from_seq - w.base_seq) {
            off += frame_span(&region, off).ok_or_else(|| corrupt("skipped frame"))?;
        }
        let start = off;
        let mut records = 0u64;
        while from_seq + records < primary_next {
            let span = frame_span(&region, off).ok_or_else(|| corrupt("shipped frame"))?;
            off += span;
            records += 1;
            if off - start >= max_bytes {
                break;
            }
        }
        Ok(WalTailResult::Tail(WalTail {
            from_seq,
            records,
            next_seq: from_seq + records,
            primary_next_seq: primary_next,
            frames: region[start..off].to_vec(),
        }))
    }
}

/// Byte span (header + body) of the frame at `off`, or `None` if the
/// region does not hold a whole valid-looking frame there.
fn frame_span(region: &[u8], off: usize) -> Option<usize> {
    let rem = region.get(off..)?;
    if rem.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rem[..4].try_into().unwrap()) as usize;
    if len == 0 || len > MAX_RECORD_LEN || rem.len() < 8 + len {
        return None;
    }
    Some(8 + len)
}

/// Strictly parse a shipped run of WAL frames: every frame must be whole,
/// CRC-clean, and decodable, and no partial trailing bytes are tolerated.
/// Unlike the lenient open-time scan (which treats a bad tail as a torn
/// write to truncate), a replica received these bytes over a verified
/// HTTP body — anything malformed means the stream is corrupt and the
/// batch must be rejected, not silently shortened.
pub(crate) fn parse_frames(frames: &[u8], start_seq: u64) -> DbResult<Vec<(u64, WalRecord)>> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < frames.len() {
        let rem = &frames[off..];
        if rem.len() < 8 {
            return Err(DbError::Recovery("truncated frame header in shipped wal batch".into()));
        }
        let len = u32::from_le_bytes(rem[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rem[4..8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD_LEN || rem.len() < 8 + len {
            return Err(DbError::Recovery("truncated frame body in shipped wal batch".into()));
        }
        let body = &rem[8..8 + len];
        if crc32(body) != crc {
            return Err(DbError::Recovery("crc mismatch in shipped wal batch".into()));
        }
        let rec = decode_record(body)
            .map_err(|e| DbError::Recovery(format!("undecodable shipped wal record: {e}")))?;
        out.push((start_seq + out.len() as u64, rec));
        off += 8 + len;
    }
    Ok(out)
}

/// A run of committed WAL frames read for a follower, still in on-disk
/// framing (`[u32 len][u32 crc][body]` per record).
#[derive(Debug, Clone)]
pub struct WalTail {
    /// Sequence of the first frame in `frames`.
    pub from_seq: u64,
    /// Number of whole frames in `frames`.
    pub records: u64,
    /// Sequence the follower should request next (`from_seq + records`).
    pub next_seq: u64,
    /// The primary's own next sequence at read time; the follower's lag in
    /// records is `primary_next_seq - next_seq`.
    pub primary_next_seq: u64,
    /// Raw frame bytes, exactly as they sit in the log file.
    pub frames: Vec<u8>,
}

/// Outcome of a follower's tail request.
#[derive(Debug, Clone)]
pub enum WalTailResult {
    /// Frames starting at the requested sequence (possibly zero frames if
    /// the follower is already caught up).
    Tail(WalTail),
    /// The log does not cover the requested sequence: rotation dropped it,
    /// or the follower is ahead of this primary. Re-bootstrap from the
    /// checkpoint image; `base_seq` is the oldest sequence still held.
    Gap { base_seq: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_codec_round_trips() {
        let recs = [
            WalRecord::Commit {
                epoch: 42,
                changes: vec![
                    (
                        "Account".into(),
                        7,
                        NetChange::Put(vec![
                            Value::Bigint(-1),
                            Value::Null,
                            Value::Varchar("x''y".into()),
                            Value::Double(2.5),
                            Value::Boolean(true),
                        ]),
                    ),
                    ("Account".into(), 8, NetChange::Del),
                ],
            },
            WalRecord::Ddl { sql: "CREATE TABLE t (a BIGINT)".into() },
            WalRecord::Commit { epoch: 1, changes: vec![] },
        ];
        for rec in &recs {
            let body = encode_record(rec);
            assert_eq!(&decode_record(&body).unwrap(), rec);
        }
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        // Every prefix of a valid body, plus pure noise, must fail cleanly.
        let body = encode_record(&WalRecord::Commit {
            epoch: 3,
            changes: vec![("t".into(), 0, NetChange::Put(vec![Value::Bigint(9)]))],
        });
        for cut in 0..body.len() {
            let _ = decode_record(&body[..cut]); // must not panic
        }
        assert!(decode_record(&[0xFF; 32]).is_err());
        assert!(decode_record(&[]).is_err());
    }

    fn commit_rec(epoch: u64) -> WalRecord {
        WalRecord::Commit { epoch, changes: vec![("t".into(), 0, NetChange::Del)] }
    }

    #[test]
    fn rotate_rejects_cut_outside_log() {
        let dir = std::env::temp_dir().join(format!("reldb-rotate-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (wal, _) = Wal::open(&dir.join("wal.log"), 5).unwrap();
        let state =
            DurabilityState::new(dir.clone(), Durability::Always, Some(wal), Arc::default());
        for epoch in 1..=2u64 {
            state.append(&commit_rec(epoch)).unwrap();
        }
        // base_seq = 5, records = 2, next = 7. A stale/corrupt checkpoint
        // pointing before the base or past the end must fail with a
        // structured recovery error, not a panic or a wrapped subtraction.
        for bad_cut in [3u64, 8] {
            match state.rotate(bad_cut, WAL_HEADER_LEN) {
                Err(DbError::Recovery(_)) => {}
                other => panic!("rotate({bad_cut}) => {other:?}, want Recovery error"),
            }
        }
        // The refusal must leave the log intact and the layer alive: more
        // appends and a *valid* rotation still work.
        state.append(&commit_rec(3)).unwrap();
        let (next, off) = state.capture_position();
        assert_eq!(next, 8);
        state.rotate(next, off).unwrap();
        assert!(matches!(state.tail_since(7, usize::MAX).unwrap(), WalTailResult::Gap { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_reads_frames_and_reports_gap_after_rotation() {
        let dir = std::env::temp_dir().join(format!("reldb-tail-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (wal, _) = Wal::open(&dir.join("wal.log"), 0).unwrap();
        let state =
            DurabilityState::new(dir.clone(), Durability::Always, Some(wal), Arc::default());
        for epoch in 1..=4u64 {
            state.append(&commit_rec(epoch)).unwrap();
        }
        // Full tail from 0: all four records round-trip through the strict
        // parser with consecutive sequences.
        let WalTailResult::Tail(t) = state.tail_since(0, usize::MAX).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!((t.from_seq, t.records, t.next_seq, t.primary_next_seq), (0, 4, 4, 4));
        let parsed = parse_frames(&t.frames, t.from_seq).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[3].0, 3);
        assert_eq!(parsed[2].1, commit_rec(3));
        // A 1-byte budget still ships one whole frame; the next poll
        // resumes where it left off.
        let WalTailResult::Tail(t) = state.tail_since(1, 1).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!((t.from_seq, t.records, t.next_seq), (1, 1, 2));
        // Caught-up follower gets an empty tail, not a gap.
        let WalTailResult::Tail(t) = state.tail_since(4, usize::MAX).unwrap() else {
            panic!("expected empty tail");
        };
        assert_eq!(t.records, 0);
        assert!(t.frames.is_empty());
        // Ahead of the log (primary lost state) and behind the base after
        // rotation both demand a re-bootstrap.
        assert!(matches!(state.tail_since(9, usize::MAX).unwrap(), WalTailResult::Gap { .. }));
        let (_, cut_off) = state.capture_position();
        state.rotate(4, cut_off).unwrap();
        match state.tail_since(0, usize::MAX).unwrap() {
            WalTailResult::Gap { base_seq } => assert_eq!(base_seq, 4),
            other => panic!("expected gap after rotation, got {other:?}"),
        }
        // Corrupt shipped bytes are rejected outright by the strict parser.
        assert!(parse_frames(&[1, 2, 3], 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_survives_reopen_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("reldb-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");

        let state = DurabilityState::new(dir.clone(), Durability::Always, None, Arc::default());
        let (wal, scan) = Wal::open(&path, 0).unwrap();
        assert!(scan.records.is_empty());
        *state.wal.lock() = Some(wal);
        for epoch in 1..=3u64 {
            state
                .append(&WalRecord::Commit {
                    epoch,
                    changes: vec![("t".into(), 0, NetChange::Del)],
                })
                .unwrap();
        }
        drop(state);

        // Clean reopen sees all three records with consecutive sequences.
        let (_, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records[0].0, 0);
        assert_eq!(scan.records[2].0, 2);

        // Tear off the last 3 bytes: the final record must be cut, the
        // prefix preserved, and a further reopen must be clean.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (_, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.truncated_bytes > 0);
        let (_, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
