//! Typed, checksummed WAL records.
//!
//! Every record recovery reads is a [`LogPayload`] framed as
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload bytes]
//! ```
//!
//! where `crc32` is CRC-32 (IEEE) over the payload and `len` is the
//! payload length. The **LSN** of a record is the byte offset of its
//! frame start in the log stream — LSNs are never stored in the payload;
//! [`decode_stream`] stamps them from stream position, and
//! [`crate::Wal::log`] returns them at append time.
//!
//! The payload itself begins `[kind: u8][txn: u64 LE]` followed by
//! kind-specific fields. Values are encoded tag + little-endian payload;
//! rows as a `u16` arity followed by their values. Frames are encoded in
//! place at the end of a caller's buffer ([`encode_into`]); an insert's
//! can be staged before its rid is known ([`stage_insert`],
//! [`seal_insert`]). Structure maintenance has no record kind: recovery
//! rebuilds structures, so the log only prices that volume.
//!
//! **Torn-tail rule:** a crash can cut the stream anywhere, including
//! mid-frame. [`decode_stream`] stops at the first frame that is short
//! or whose checksum fails, reports the prefix length that survived
//! ([`DecodedLog::valid_bytes`]) and whether anything was truncated
//! ([`DecodedLog::torn`]). Recovery replays only the surviving prefix.

use crate::schema::Row;
use crate::value::{OrdF64, Value};

/// Log sequence number: byte offset of a record's frame start in the
/// log stream.
pub type Lsn = u64;

/// The transaction id used by auto-committed (sessionless) mutations.
/// Records tagged with it are always treated as committed by recovery.
pub const AUTOCOMMIT_TXN: u64 = 0;

/// Bytes of framing overhead per record (`len` + `crc32`).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Bytes of payload header per record (`kind` + `txn`).
pub const PAYLOAD_HEADER_BYTES: usize = 9;

// Kinds 0 and 2 are unassigned: a frame of either decodes as torn.
const KIND_INSERT: u8 = 1;
const KIND_DELETE_SET: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_CKPT_BEGIN: u8 = 5;
const KIND_CKPT_END: u8 = 6;
const KIND_DESIGN_CHANGE: u8 = 7;

/// One logical WAL record (without its transaction id or LSN — those
/// live in [`LogRecord`] and the frame position respectively).
#[derive(Debug, Clone, PartialEq)]
pub enum LogPayload {
    /// A row insert into `table`'s shard `shard` at local rid `rid`.
    Insert {
        /// Table name.
        table: String,
        /// Shard index within the table's range partitioning.
        shard: u16,
        /// Local (per-shard) row ordinal.
        rid: u64,
        /// The inserted row (redo image).
        row: Row,
    },
    /// The rows one delete removed from a shard — a `delete_where` leg's
    /// victims in rid order, or the one row of a delete by rid — each
    /// with its before-image so an uncommitted delete can be undone.
    DeleteSet {
        /// Table name.
        table: String,
        /// Shard index.
        shard: u16,
        /// `(local rid, before-image)` per deleted row.
        victims: Vec<(u64, Row)>,
    },
    /// Transaction commit marker carrying the commit timestamp the MVCC
    /// clock handed out, so recovery can rebuild the snapshot clock
    /// (`max ts + 1`) as well as the committed-txn set. Non-MVCC engines
    /// log `ts = 0`.
    Commit {
        /// Commit timestamp assigned by the engine's global clock
        /// (0 when the engine runs without MVCC).
        ts: u64,
    },
    /// Fuzzy checkpoint start. Its own LSN becomes the `redo_lsn`
    /// recorded by the matching [`LogPayload::CheckpointEnd`].
    CheckpointBegin,
    /// Fuzzy checkpoint end: the snapshot taken since the matching
    /// begin is durable; redo may start at `redo_lsn`.
    CheckpointEnd {
        /// LSN of the matching [`LogPayload::CheckpointBegin`].
        redo_lsn: Lsn,
    },
    /// A physical-design change (CM / B+Tree set replacement). The
    /// design itself travels as opaque bytes so this crate stays below
    /// `cm-core` in the dependency order; `cm-core` provides the codec.
    DesignChange {
        /// Table name.
        table: String,
        /// Opaque encoded design (see `cm_core` spec codecs).
        design: Vec<u8>,
    },
}

/// A decoded record: payload plus the frame position and transaction id.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Byte offset of the frame start in the decoded stream.
    pub lsn: Lsn,
    /// Owning transaction ([`AUTOCOMMIT_TXN`] for sessionless work).
    pub txn: u64,
    /// The logical record.
    pub payload: LogPayload,
}

/// Result of scanning a (possibly torn) log stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedLog {
    /// Records recovered, in LSN order.
    pub records: Vec<LogRecord>,
    /// Length of the stream prefix that decoded cleanly.
    pub valid_bytes: u64,
    /// Whether bytes past `valid_bytes` were discarded (torn tail).
    pub torn: bool,
}

// ---------------------------------------------------------------- crc32

/// Slice-by-8 tables: `T[0]` is the bytewise CRC-32 table and `T[k][b]`
/// the CRC register after byte `b` and `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        // One byte (`b`, or a zero after table `k - 1`'s) is eight bit steps.
        let mut c = if k == 0 { b as u32 } else { t[k - 1][b] };
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[k][b] = c;
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3) of `bytes`, eight bytes a step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")) ^ c as u64;
        c = (0..8).fold(0, |acc, i| acc ^ t[7 - i][(x >> (8 * i)) as usize & 0xFF]);
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------- encode

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.get().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        put_value(out, v);
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// The fields an `Insert` payload carries after its header.
fn put_row_record(out: &mut Vec<u8>, table: &str, shard: u16, rid: u64, row: &[Value]) {
    put_name(out, table);
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&rid.to_le_bytes());
    put_row(out, row);
}

/// Start a frame at the end of `out`; returns its start offset.
fn open_frame(out: &mut Vec<u8>, kind: u8, txn: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    out.push(kind);
    out.extend_from_slice(&txn.to_le_bytes());
    start
}

/// Write the `len` of the frame opened at `start`, which ends `out`.
fn close_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - FRAME_HEADER_BYTES) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Write the `crc` of the frame that starts `frame`; returns its length.
fn write_crc(frame: &mut [u8]) -> usize {
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    let end = FRAME_HEADER_BYTES + len;
    let crc = crc32(&frame[FRAME_HEADER_BYTES..end]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    end
}

/// Append one record's complete frame (`len` + `crc` + payload) to
/// `out`, encoded in place; returns its start offset in `out`.
pub fn encode_into(out: &mut Vec<u8>, txn: u64, payload: &LogPayload) -> usize {
    let start = open_frame(out, kind_of(payload), txn);
    match payload {
        LogPayload::Insert { table, shard, rid, row } => {
            put_row_record(out, table, *shard, *rid, row);
        }
        LogPayload::DeleteSet { table, shard, victims } => {
            put_delete_set(out, table, *shard, victims);
        }
        LogPayload::Commit { ts } => {
            out.extend_from_slice(&ts.to_le_bytes());
        }
        LogPayload::CheckpointBegin => {}
        LogPayload::CheckpointEnd { redo_lsn } => {
            out.extend_from_slice(&redo_lsn.to_le_bytes());
        }
        LogPayload::DesignChange { table, design } => {
            put_name(out, table);
            out.extend_from_slice(&(design.len() as u32).to_le_bytes());
            out.extend_from_slice(design);
        }
    }
    close_frame(out, start);
    write_crc(&mut out[start..]);
    start
}

/// The fields a `DeleteSet` payload carries after its header.
fn put_delete_set(out: &mut Vec<u8>, table: &str, shard: u16, victims: &[(u64, Row)]) {
    put_name(out, table);
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&(victims.len() as u32).to_le_bytes());
    for (rid, row) in victims {
        out.extend_from_slice(&rid.to_le_bytes());
        put_row(out, row);
    }
}

/// Append the frame of `LogPayload::DeleteSet { table, shard, victims }`
/// from borrowed parts: the bytes [`encode_into`] writes for it, with no
/// owned payload built first.
pub fn encode_delete_set(
    out: &mut Vec<u8>,
    txn: u64,
    table: &str,
    shard: u16,
    victims: &[(u64, Row)],
) {
    let start = open_frame(out, KIND_DELETE_SET, txn);
    put_delete_set(out, table, shard, victims);
    close_frame(out, start);
    write_crc(&mut out[start..]);
}

/// Append the frame of `LogPayload::Insert { table, shard, rid, row }`
/// from borrowed parts, its rid and checksum left for [`seal_insert`].
pub fn stage_insert(out: &mut Vec<u8>, txn: u64, table: &str, shard: u16, row: &[Value]) {
    let start = open_frame(out, KIND_INSERT, txn);
    put_row_record(out, table, shard, 0, row);
    close_frame(out, start);
}

/// Write the rid, then the checksum, of the staged insert frame that
/// starts `frame`; returns the frame's length.
pub fn seal_insert(frame: &mut [u8], rid: u64) -> usize {
    let name_at = FRAME_HEADER_BYTES + PAYLOAD_HEADER_BYTES;
    let name_len = u16::from_le_bytes([frame[name_at], frame[name_at + 1]]) as usize;
    let rid_at = name_at + 2 + name_len + 2;
    frame[rid_at..rid_at + 8].copy_from_slice(&rid.to_le_bytes());
    write_crc(frame)
}

fn kind_of(p: &LogPayload) -> u8 {
    match p {
        LogPayload::Insert { .. } => KIND_INSERT,
        LogPayload::DeleteSet { .. } => KIND_DELETE_SET,
        LogPayload::Commit { .. } => KIND_COMMIT,
        LogPayload::CheckpointBegin => KIND_CKPT_BEGIN,
        LogPayload::CheckpointEnd { .. } => KIND_CKPT_END,
        LogPayload::DesignChange { .. } => KIND_DESIGN_CHANGE,
    }
}

// ---------------------------------------------------------------- decode

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.u64()? as i64),
            2 => Value::Float(OrdF64(f64::from_bits(self.u64()?))),
            3 => {
                let n = self.u32()? as usize;
                Value::Str(std::str::from_utf8(self.take(n)?).ok()?.into())
            }
            4 => Value::Date(self.u32()? as i32),
            _ => return None,
        })
    }

    fn row(&mut self) -> Option<Row> {
        let arity = self.u16()? as usize;
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(self.value()?);
        }
        Some(row)
    }

    fn name(&mut self) -> Option<String> {
        let n = self.u16()? as usize;
        Some(std::str::from_utf8(self.take(n)?).ok()?.to_owned())
    }
}

fn decode_payload(body: &[u8]) -> Option<(u64, LogPayload)> {
    let mut c = Cursor { buf: body, pos: 0 };
    let kind = c.u8()?;
    let txn = c.u64()?;
    let payload = match kind {
        KIND_INSERT => {
            let table = c.name()?;
            let shard = c.u16()?;
            let rid = c.u64()?;
            LogPayload::Insert { table, shard, rid, row: c.row()? }
        }
        KIND_DELETE_SET => {
            let table = c.name()?;
            let shard = c.u16()?;
            let n = c.u32()? as usize;
            let mut victims = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let rid = c.u64()?;
                victims.push((rid, c.row()?));
            }
            LogPayload::DeleteSet { table, shard, victims }
        }
        KIND_COMMIT => LogPayload::Commit { ts: c.u64()? },
        KIND_CKPT_BEGIN => LogPayload::CheckpointBegin,
        KIND_CKPT_END => LogPayload::CheckpointEnd { redo_lsn: c.u64()? },
        KIND_DESIGN_CHANGE => {
            let table = c.name()?;
            let n = c.u32()? as usize;
            LogPayload::DesignChange { table, design: c.take(n)?.to_vec() }
        }
        _ => return None,
    };
    if c.pos != body.len() {
        return None;
    }
    Some((txn, payload))
}

/// Scan a log byte stream into records, truncating at the first short
/// or corrupt frame (see the module docs' torn-tail rule).
pub fn decode_stream(bytes: &[u8]) -> DecodedLog {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_BYTES {
            return DecodedLog {
                records,
                valid_bytes: pos as u64,
                torn: !rest.is_empty(),
            };
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let Some(body) = rest.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len) else {
            return DecodedLog { records, valid_bytes: pos as u64, torn: true };
        };
        if crc32(body) != crc {
            return DecodedLog { records, valid_bytes: pos as u64, torn: true };
        }
        let Some((txn, payload)) = decode_payload(body) else {
            return DecodedLog { records, valid_bytes: pos as u64, torn: true };
        };
        records.push(LogRecord { lsn: pos as Lsn, txn, payload });
        pos += FRAME_HEADER_BYTES + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_frame(txn: u64, payload: &LogPayload) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_into(&mut frame, txn, payload);
        frame
    }

    fn row() -> Row {
        vec![
            Value::Int(-7),
            Value::float(2.5),
            Value::str("boston"),
            Value::Date(1234),
            Value::Null,
        ]
    }

    fn samples() -> Vec<(u64, LogPayload)> {
        vec![
            (3, LogPayload::Insert { table: "t".into(), shard: 2, rid: 99, row: row() }),
            (3, LogPayload::DeleteSet { table: "t".into(), shard: 0, victims: vec![(4, row())] }),
            (
                5,
                LogPayload::DeleteSet {
                    table: "orders".into(),
                    shard: 1,
                    victims: vec![(1, row()), (17, row())],
                },
            ),
            (3, LogPayload::Commit { ts: 41 }),
            (AUTOCOMMIT_TXN, LogPayload::CheckpointBegin),
            (AUTOCOMMIT_TXN, LogPayload::CheckpointEnd { redo_lsn: 123 }),
            (AUTOCOMMIT_TXN, LogPayload::DesignChange { table: "t".into(), design: vec![9, 8, 7] }),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_every_kind() {
        let mut stream = Vec::new();
        let mut lsns = Vec::new();
        for (txn, p) in &samples() {
            lsns.push(stream.len() as u64);
            stream.extend_from_slice(&encode_frame(*txn, p));
        }
        let decoded = decode_stream(&stream);
        assert!(!decoded.torn);
        assert_eq!(decoded.valid_bytes, stream.len() as u64);
        assert_eq!(decoded.records.len(), samples().len());
        for ((rec, (txn, p)), lsn) in decoded.records.iter().zip(samples()).zip(lsns) {
            assert_eq!(rec.lsn, lsn, "LSN is the frame's stream offset");
            assert_eq!(rec.txn, txn);
            assert_eq!(rec.payload, p);
        }
    }

    #[test]
    fn staged_insert_seals_to_the_encoded_frame() {
        let mut out = encode_frame(7, &LogPayload::Commit { ts: 1 });
        let at = out.len();
        stage_insert(&mut out, 3, "orders", 2, &row());
        let len = seal_insert(&mut out[at..], 99);
        assert_eq!(at + len, out.len());
        let whole = LogPayload::Insert { table: "orders".into(), shard: 2, rid: 99, row: row() };
        assert_eq!(&out[at..], &encode_frame(3, &whole)[..]);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let a = encode_frame(1, &LogPayload::Commit { ts: 1 });
        let b = encode_frame(2, &LogPayload::Insert {
            table: "t".into(),
            shard: 0,
            rid: 0,
            row: row(),
        });
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        // Cut anywhere inside the second frame: only the first survives.
        for cut in a.len() + 1..stream.len() {
            let d = decode_stream(&stream[..cut]);
            assert_eq!(d.records.len(), 1, "cut at {cut}");
            assert_eq!(d.valid_bytes, a.len() as u64);
            assert!(d.torn);
        }
        // Cut inside the first frame: nothing survives.
        for cut in 1..a.len() {
            let d = decode_stream(&stream[..cut]);
            assert!(d.records.is_empty(), "cut at {cut}");
            assert_eq!(d.valid_bytes, 0);
            assert!(d.torn);
        }
        // Exact frame boundaries are clean.
        let d = decode_stream(&stream[..a.len()]);
        assert!(!d.torn);
        assert_eq!(d.records.len(), 1);
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum() {
        let mut stream = encode_frame(1, &LogPayload::Commit { ts: 1 });
        let last = stream.len() - 1;
        stream[last] ^= 0x40;
        let d = decode_stream(&stream);
        assert!(d.records.is_empty());
        assert!(d.torn);
        assert_eq!(d.valid_bytes, 0);
    }

    #[test]
    fn garbage_length_is_torn_not_panic() {
        let mut stream = encode_frame(1, &LogPayload::Commit { ts: 1 });
        stream[0] = 0xFF;
        stream[1] = 0xFF;
        stream[2] = 0xFF;
        stream[3] = 0x7F;
        let d = decode_stream(&stream);
        assert!(d.records.is_empty());
        assert!(d.torn);
    }
}
