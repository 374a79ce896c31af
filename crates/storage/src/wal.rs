//! Write-ahead log: append-only redo/undo records with per-record FNV
//! checksums, group-flush durability, and torn-tolerant parsing.
//!
//! Every record is framed as `[u32 LE payload-len][payload][u64 LE
//! FNV-1a(payload)]`; the payload starts with the record's LSN followed
//! by a tag byte and the record fields in a fixed little-endian layout,
//! so the byte stream is deterministic for a deterministic run. Commit
//! records force a flush (force-log-at-commit); everything else obeys
//! the [`WalPolicy`] group-flush threshold, so a crash can lose a
//! suffix of un-flushed records but never a committed transaction.
//!
//! Crashes are *simulated*: [`Wal::mark_crash`] captures the durable
//! prefix as a [`CrashSnapshot`] (optionally tearing the final record
//! mid-bytes), and recovery code replays that byte image through
//! [`read_records`], which stops cleanly at the first incomplete or
//! corrupt frame.

use crate::schema::Schema;
use crate::table::{Row, RowId};
use crate::value::Value;
use crate::{Ts, TxnId};
use parking_lot::Mutex;

/// Log sequence number: 1-based ordinal of a record in the log.
pub type Lsn = u64;

/// One logical WAL record.
///
/// Setup records (`CreateItem`/`CreateTable`/`LoadRow`) describe
/// pre-transactional state; `ItemWrite`/`Row*` records carry both redo
/// (`after`) and undo (`before`) images; `ItemInstall`/`RowInstall`
/// are redo-only snapshot-commit installs that take effect atomically
/// at the transaction's `Commit` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A named item was created with an initial committed value.
    CreateItem { name: String, initial: Value },
    /// A table was created with the given schema.
    CreateTable { schema: Schema },
    /// A row was bulk-loaded as committed pre-transactional state.
    LoadRow { table: String, id: RowId, row: Row },
    /// Transaction start.
    Begin { txn: TxnId },
    /// A locking-mode dirty item write (undo image = `before`).
    ItemWrite { txn: TxnId, name: String, before: Value, after: Value },
    /// A locking-mode dirty row insert (undo = remove the row).
    RowInsert { txn: TxnId, table: String, id: RowId, row: Row },
    /// A locking-mode dirty row update (undo image = `before`).
    RowUpdate { txn: TxnId, table: String, id: RowId, before: Option<Row>, after: Row },
    /// A locking-mode dirty row delete (undo image = `before`).
    RowDelete { txn: TxnId, table: String, id: RowId, before: Option<Row> },
    /// A snapshot-mode commit-time item install (redo-only).
    ItemInstall { txn: TxnId, name: String, value: Value },
    /// A snapshot-mode commit-time row install (redo-only; `None` = delete).
    RowInstall { txn: TxnId, table: String, id: RowId, row: Option<Row> },
    /// Transaction commit at timestamp `ts`. Forces a flush.
    Commit { txn: TxnId, ts: Ts },
    /// Transaction abort: all earlier dirty records of `txn` are undone.
    Abort { txn: TxnId },
}

const TAG_CREATE_ITEM: u8 = 0;
const TAG_CREATE_TABLE: u8 = 1;
const TAG_LOAD_ROW: u8 = 2;
const TAG_BEGIN: u8 = 3;
const TAG_ITEM_WRITE: u8 = 4;
const TAG_ROW_INSERT: u8 = 5;
const TAG_ROW_UPDATE: u8 = 6;
const TAG_ROW_DELETE: u8 = 7;
const TAG_ITEM_INSTALL: u8 = 8;
const TAG_ROW_INSTALL: u8 = 9;
const TAG_COMMIT: u8 = 10;
const TAG_ABORT: u8 = 11;

// --- byte encoding helpers (all little-endian) -----------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        put_value(buf, v);
    }
}

fn put_opt_row(buf: &mut Vec<u8>, row: &Option<Row>) {
    match row {
        None => buf.push(0),
        Some(r) => {
            buf.push(1);
            put_row(buf, r);
        }
    }
}

/// Cursor over a payload during decode; every getter is bounds-checked
/// so a corrupt payload yields `None` instead of a panic.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Int(self.i64()?)),
            1 => Some(Value::Str(self.str()?)),
            _ => None,
        }
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        let mut row = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Some(row)
    }

    fn opt_row(&mut self) -> Option<Option<Row>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.row()?)),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

impl WalRecord {
    /// Serialize the record (without LSN or frame) into `buf`.
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::CreateItem { name, initial } => {
                buf.push(TAG_CREATE_ITEM);
                put_str(buf, name);
                put_value(buf, initial);
            }
            WalRecord::CreateTable { schema } => {
                buf.push(TAG_CREATE_TABLE);
                put_str(buf, &schema.name);
                buf.extend_from_slice(&(schema.columns.len() as u32).to_le_bytes());
                for c in &schema.columns {
                    put_str(buf, c);
                }
                buf.extend_from_slice(&(schema.key.len() as u32).to_le_bytes());
                for k in &schema.key {
                    put_u64(buf, *k as u64);
                }
            }
            WalRecord::LoadRow { table, id, row } => {
                buf.push(TAG_LOAD_ROW);
                put_str(buf, table);
                put_u64(buf, *id);
                put_row(buf, row);
            }
            WalRecord::Begin { txn } => {
                buf.push(TAG_BEGIN);
                put_u64(buf, *txn);
            }
            WalRecord::ItemWrite { txn, name, before, after } => {
                buf.push(TAG_ITEM_WRITE);
                put_u64(buf, *txn);
                put_str(buf, name);
                put_value(buf, before);
                put_value(buf, after);
            }
            WalRecord::RowInsert { txn, table, id, row } => {
                buf.push(TAG_ROW_INSERT);
                put_u64(buf, *txn);
                put_str(buf, table);
                put_u64(buf, *id);
                put_row(buf, row);
            }
            WalRecord::RowUpdate { txn, table, id, before, after } => {
                buf.push(TAG_ROW_UPDATE);
                put_u64(buf, *txn);
                put_str(buf, table);
                put_u64(buf, *id);
                put_opt_row(buf, before);
                put_row(buf, after);
            }
            WalRecord::RowDelete { txn, table, id, before } => {
                buf.push(TAG_ROW_DELETE);
                put_u64(buf, *txn);
                put_str(buf, table);
                put_u64(buf, *id);
                put_opt_row(buf, before);
            }
            WalRecord::ItemInstall { txn, name, value } => {
                buf.push(TAG_ITEM_INSTALL);
                put_u64(buf, *txn);
                put_str(buf, name);
                put_value(buf, value);
            }
            WalRecord::RowInstall { txn, table, id, row } => {
                buf.push(TAG_ROW_INSTALL);
                put_u64(buf, *txn);
                put_str(buf, table);
                put_u64(buf, *id);
                put_opt_row(buf, row);
            }
            WalRecord::Commit { txn, ts } => {
                buf.push(TAG_COMMIT);
                put_u64(buf, *txn);
                put_u64(buf, *ts);
            }
            WalRecord::Abort { txn } => {
                buf.push(TAG_ABORT);
                put_u64(buf, *txn);
            }
        }
    }

    /// Decode one record from a payload cursor (after the LSN).
    fn decode(c: &mut Cursor<'_>) -> Option<WalRecord> {
        let rec = match c.u8()? {
            TAG_CREATE_ITEM => WalRecord::CreateItem { name: c.str()?, initial: c.value()? },
            TAG_CREATE_TABLE => {
                let name = c.str()?;
                let ncols = c.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(c.str()?);
                }
                let nkey = c.u32()? as usize;
                let mut key = Vec::with_capacity(nkey.min(1024));
                for _ in 0..nkey {
                    key.push(c.u64()? as usize);
                }
                WalRecord::CreateTable { schema: Schema { name, columns, key } }
            }
            TAG_LOAD_ROW => WalRecord::LoadRow { table: c.str()?, id: c.u64()?, row: c.row()? },
            TAG_BEGIN => WalRecord::Begin { txn: c.u64()? },
            TAG_ITEM_WRITE => WalRecord::ItemWrite {
                txn: c.u64()?,
                name: c.str()?,
                before: c.value()?,
                after: c.value()?,
            },
            TAG_ROW_INSERT => {
                WalRecord::RowInsert { txn: c.u64()?, table: c.str()?, id: c.u64()?, row: c.row()? }
            }
            TAG_ROW_UPDATE => WalRecord::RowUpdate {
                txn: c.u64()?,
                table: c.str()?,
                id: c.u64()?,
                before: c.opt_row()?,
                after: c.row()?,
            },
            TAG_ROW_DELETE => WalRecord::RowDelete {
                txn: c.u64()?,
                table: c.str()?,
                id: c.u64()?,
                before: c.opt_row()?,
            },
            TAG_ITEM_INSTALL => {
                WalRecord::ItemInstall { txn: c.u64()?, name: c.str()?, value: c.value()? }
            }
            TAG_ROW_INSTALL => WalRecord::RowInstall {
                txn: c.u64()?,
                table: c.str()?,
                id: c.u64()?,
                row: c.opt_row()?,
            },
            TAG_COMMIT => WalRecord::Commit { txn: c.u64()?, ts: c.u64()? },
            TAG_ABORT => WalRecord::Abort { txn: c.u64()? },
            _ => return None,
        };
        Some(rec)
    }

    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::ItemWrite { txn, .. }
            | WalRecord::RowInsert { txn, .. }
            | WalRecord::RowUpdate { txn, .. }
            | WalRecord::RowDelete { txn, .. }
            | WalRecord::ItemInstall { txn, .. }
            | WalRecord::RowInstall { txn, .. }
            | WalRecord::Commit { txn, .. }
            | WalRecord::Abort { txn } => Some(*txn),
            _ => None,
        }
    }
}

/// The frame checksum: FNV-1a 64-bit.
pub use semcc_logic::hash::fnv1a;

/// Group-flush policy: records become durable in batches of
/// `flush_every` appends; commit records always force a flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalPolicy {
    /// Flush after this many buffered (un-flushed) records. `1` = every
    /// record is durable as soon as it is appended.
    pub flush_every: usize,
}

impl Default for WalPolicy {
    fn default() -> Self {
        WalPolicy { flush_every: 1 }
    }
}

/// A captured crash image: the durable log prefix at the moment of the
/// simulated crash, tagged with the fault-class name that caused it.
#[derive(Clone, Debug)]
pub struct CrashSnapshot {
    /// Fault-class name (e.g. `"crash-before"`, `"torn-tail"`).
    pub kind: &'static str,
    /// The surviving log bytes (possibly with a torn final record).
    pub bytes: Vec<u8>,
}

struct WalInner {
    buf: Vec<u8>,
    /// Byte offset at which the last appended record starts.
    last_start: usize,
    /// Durable prefix length in bytes (always a frame boundary).
    durable: usize,
    /// Byte offset at which the last durable record starts (for torn-tail
    /// cuts); meaningful while `durable > 0`.
    durable_start: usize,
    /// Records appended since the last flush.
    pending: usize,
    next_lsn: Lsn,
    crashes: Vec<CrashSnapshot>,
}

impl WalInner {
    /// Make every appended record durable.
    fn make_durable(&mut self) {
        self.durable = self.buf.len();
        self.durable_start = self.last_start;
        self.pending = 0;
    }
}

/// The write-ahead log. Thread-safe; share as `Arc<Wal>`.
pub struct Wal {
    policy: WalPolicy,
    inner: Mutex<WalInner>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Wal")
            .field("policy", &self.policy)
            .field("records", &(g.next_lsn - 1))
            .field("bytes", &g.buf.len())
            .field("durable", &g.durable)
            .finish()
    }
}

impl Wal {
    /// Create an empty log under `policy`.
    pub fn new(policy: WalPolicy) -> Self {
        Wal {
            policy,
            inner: Mutex::new(WalInner {
                buf: Vec::new(),
                last_start: 0,
                durable: 0,
                durable_start: 0,
                pending: 0,
                next_lsn: 1,
                crashes: Vec::new(),
            }),
        }
    }

    /// The flush policy this log was created with.
    pub fn policy(&self) -> WalPolicy {
        self.policy
    }

    /// Append one record; returns its LSN. Flushes if the group-flush
    /// threshold is reached.
    pub fn append(&self, rec: WalRecord) -> Lsn {
        let mut g = self.inner.lock();
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        // The frame is encoded in place: a length placeholder, the payload,
        // then the length patched and the payload's checksum appended.
        let start = g.buf.len();
        g.last_start = start;
        let buf = &mut g.buf;
        buf.extend_from_slice(&[0; 4]);
        put_u64(buf, lsn);
        rec.encode(buf);
        let len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a(&buf[start + 4..]);
        buf.extend_from_slice(&sum.to_le_bytes());
        g.pending += 1;
        if g.pending >= self.policy.flush_every {
            g.make_durable();
        }
        lsn
    }

    /// Append a commit record and force a flush (force-log-at-commit):
    /// the commit and everything before it become durable.
    pub fn append_commit(&self, txn: TxnId, ts: Ts) -> Lsn {
        let lsn = self.append(WalRecord::Commit { txn, ts });
        self.flush();
        lsn
    }

    /// Make every appended record durable.
    pub fn flush(&self) {
        self.inner.lock().make_durable();
    }

    /// Total appended bytes (durable or not).
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records appended so far.
    pub fn record_count(&self) -> u64 {
        self.inner.lock().next_lsn - 1
    }

    /// Length of the durable prefix in bytes.
    pub fn durable_len(&self) -> usize {
        self.inner.lock().durable
    }

    /// Copy of the full log bytes (including un-flushed suffix).
    pub fn bytes(&self) -> Vec<u8> {
        self.inner.lock().buf.clone()
    }

    /// Copy of the durable prefix — what survives a crash.
    pub fn durable_bytes(&self) -> Vec<u8> {
        let g = self.inner.lock();
        g.buf[..g.durable].to_vec()
    }

    /// Record a simulated crash: capture the durable prefix as a
    /// [`CrashSnapshot`]. With `torn`, the final durable record is cut
    /// mid-bytes (deterministically, at header + payload/2) to model a
    /// torn write of the log tail.
    pub fn mark_crash(&self, kind: &'static str, torn: bool) {
        let mut g = self.inner.lock();
        let mut end = g.durable;
        if torn && end > 0 {
            // Cut the last durable record halfway through its payload.
            let start = g.durable_start;
            let frame = end - start;
            // frame = 4 (len) + payload + 8 (checksum)
            let payload = frame.saturating_sub(12);
            end = start + 4 + payload / 2;
        }
        let bytes = g.buf[..end].to_vec();
        g.crashes.push(CrashSnapshot { kind, bytes });
    }

    /// Drain the crash snapshots captured since the last call.
    pub fn take_crash_snapshots(&self) -> Vec<CrashSnapshot> {
        std::mem::take(&mut self.inner.lock().crashes)
    }
}

/// Result of parsing a (possibly torn) log image.
#[derive(Clone, Debug, Default)]
pub struct ParsedLog {
    /// Whole, checksum-valid records in log order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// True when trailing bytes were dropped (incomplete or corrupt
    /// final frame).
    pub torn: bool,
    /// Bytes consumed by the whole records.
    pub consumed: usize,
}

/// Parse a log image, stopping cleanly at the first incomplete or
/// corrupt frame (torn tail).
pub fn read_records(bytes: &[u8]) -> ParsedLog {
    let mut out = ParsedLog::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + 4 > bytes.len() {
            out.torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 4 + len + 8;
        if len < 9 || end > bytes.len() {
            // Payload must hold at least an LSN and a tag; anything
            // shorter (or extending past the image) is a torn frame.
            out.torn = true;
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let sum = u64::from_le_bytes(bytes[pos + 4 + len..end].try_into().unwrap());
        if fnv1a(payload) != sum {
            out.torn = true;
            break;
        }
        let mut c = Cursor::new(payload);
        let lsn = match c.u64() {
            Some(l) => l,
            None => {
                out.torn = true;
                break;
            }
        };
        match WalRecord::decode(&mut c) {
            Some(rec) if c.done() => out.records.push((lsn, rec)),
            _ => {
                out.torn = true;
                break;
            }
        }
        pos = end;
        out.consumed = pos;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateItem { name: "x".into(), initial: Value::Int(7) },
            WalRecord::CreateTable { schema: Schema::new("t", &["a", "b"], &["a"]) },
            WalRecord::LoadRow {
                table: "t".into(),
                id: 3,
                row: vec![Value::Int(1), Value::Str("hi".into())],
            },
            WalRecord::Begin { txn: 2 },
            WalRecord::ItemWrite {
                txn: 2,
                name: "x".into(),
                before: Value::Int(7),
                after: Value::Str("neu".into()),
            },
            WalRecord::RowInsert { txn: 2, table: "t".into(), id: 4, row: vec![Value::Int(9)] },
            WalRecord::RowUpdate {
                txn: 2,
                table: "t".into(),
                id: 3,
                before: Some(vec![Value::Int(1), Value::Str("hi".into())]),
                after: vec![Value::Int(2), Value::Str("ho".into())],
            },
            WalRecord::RowDelete { txn: 2, table: "t".into(), id: 4, before: None },
            WalRecord::ItemInstall { txn: 2, name: "x".into(), value: Value::Int(5) },
            WalRecord::RowInstall { txn: 2, table: "t".into(), id: 3, row: None },
            WalRecord::Commit { txn: 2, ts: 11 },
            WalRecord::Abort { txn: 3 },
        ]
    }

    #[test]
    fn roundtrip_every_record_kind() {
        let wal = Wal::new(WalPolicy::default());
        let recs = sample_records();
        for r in &recs {
            wal.append(r.clone());
        }
        let parsed = read_records(&wal.bytes());
        assert!(!parsed.torn);
        assert_eq!(parsed.records.len(), recs.len());
        for (i, (lsn, rec)) in parsed.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(rec, &recs[i]);
        }
        assert_eq!(parsed.consumed, wal.len());
    }

    #[test]
    fn torn_tail_stops_at_last_whole_record() {
        let wal = Wal::new(WalPolicy::default());
        for r in sample_records() {
            wal.append(r);
        }
        let bytes = wal.bytes();
        // Cut the image at every possible byte length: the parser must
        // never panic and must return only whole-record prefixes.
        for cut in 0..bytes.len() {
            let parsed = read_records(&bytes[..cut]);
            assert!(parsed.consumed <= cut);
            let whole = read_records(&bytes[..parsed.consumed]);
            assert!(!whole.torn);
            assert_eq!(whole.records.len(), parsed.records.len());
            assert_eq!(parsed.torn, cut != parsed.consumed);
        }
    }

    #[test]
    fn checksum_corruption_detected() {
        let wal = Wal::new(WalPolicy::default());
        wal.append(WalRecord::Begin { txn: 1 });
        wal.append(WalRecord::Commit { txn: 1, ts: 1 });
        let mut bytes = wal.bytes();
        // Flip one payload byte of the first record.
        bytes[6] ^= 0xff;
        let parsed = read_records(&bytes);
        assert!(parsed.torn);
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn group_flush_policy_and_commit_force() {
        let wal = Wal::new(WalPolicy { flush_every: 3 });
        wal.append(WalRecord::Begin { txn: 1 });
        assert_eq!(wal.durable_len(), 0, "one pending record must not flush");
        wal.append(WalRecord::ItemWrite {
            txn: 1,
            name: "x".into(),
            before: Value::Int(0),
            after: Value::Int(1),
        });
        assert_eq!(wal.durable_len(), 0);
        wal.append(WalRecord::Begin { txn: 2 });
        assert_eq!(wal.durable_len(), wal.len(), "third append hits the threshold");
        wal.append(WalRecord::Begin { txn: 3 });
        assert!(wal.durable_len() < wal.len());
        wal.append_commit(1, 5);
        assert_eq!(wal.durable_len(), wal.len(), "commit forces a flush");
        let parsed = read_records(&wal.durable_bytes());
        assert!(!parsed.torn);
        assert_eq!(parsed.records.len(), 5);
    }

    #[test]
    fn mark_crash_captures_durable_prefix() {
        let wal = Wal::new(WalPolicy { flush_every: 100 });
        wal.append(WalRecord::Begin { txn: 1 });
        wal.append_commit(1, 1);
        wal.append(WalRecord::Begin { txn: 2 }); // un-flushed
        wal.mark_crash("crash-before", false);
        let snaps = wal.take_crash_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].kind, "crash-before");
        let parsed = read_records(&snaps[0].bytes);
        assert!(!parsed.torn);
        assert_eq!(parsed.records.len(), 2, "un-flushed Begin must be lost");
        assert!(wal.take_crash_snapshots().is_empty(), "snapshots drain once");
    }

    #[test]
    fn torn_crash_cuts_final_record_mid_bytes() {
        let wal = Wal::new(WalPolicy::default());
        wal.append(WalRecord::Begin { txn: 1 });
        wal.append_commit(1, 1);
        wal.mark_crash("torn-tail", true);
        let snaps = wal.take_crash_snapshots();
        let parsed = read_records(&snaps[0].bytes);
        assert!(parsed.torn, "final record must be torn");
        assert_eq!(parsed.records.len(), 1, "only the first record survives whole");
        assert!(snaps[0].bytes.len() > parsed.consumed);
        assert!(snaps[0].bytes.len() < wal.len());
    }
}
