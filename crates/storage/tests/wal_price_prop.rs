//! Differential test of the WAL's priced maintenance volume against a
//! model log that streams every maintenance record as a zero-padded
//! frame (`[len][crc][kind 0][txn][u32 n][n zero bytes]`, 21 + n bytes),
//! the form the volume had when it was written out byte for byte.
//!
//! Random scripts of every typed record kind, maintenance records of
//! 0..=300 payload bytes, insert landings and commits run through a
//! plain [`Wal`] and through [`WalBatch`] + [`GroupCommitWal`], each
//! record by the entry point the engine uses: inserts staged before
//! their rids are known, then sealed (some dropped), delete sets
//! encoded from their parts, and commit, checkpoint and design records
//! logged straight onto the shared log.
//! After every commit each must charge the model's I/O exactly —
//! sim-ms bit for bit — and count its records; both must hold the same
//! frame stream, which decodes to the model's stream with its
//! maintenance frames taken out; and every byte cut of that stream
//! decodes to a prefix of its records. A second test checks the
//! slice-by-8 CRC against a bytewise reference.
//!
//! Case count is `CRASH_PROP_CASES` (default 32) so CI smoke jobs can
//! run a reduced sweep.

use cm_storage::logrec::{decode_stream, encode_into};
use cm_storage::{
    crc32, DiskConfig, DiskSim, FileId, GroupCommitConfig, GroupCommitWal, IoStats, LogPayload,
    LogWrite, PageAccessor, Row, Value, Wal, WalBatch,
};
use proptest::prelude::*;
use std::sync::Arc;

fn cases() -> ProptestConfig {
    let cases = std::env::var("CRASH_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    ProptestConfig::with_cases(cases)
}

/// The log as it was when maintenance volume was streamed: every
/// record's frame in one buffer, the unflushed tail kept in another.
struct ModelWal {
    disk: Arc<DiskSim>,
    file: FileId,
    buffer: Vec<u8>,
    history: Vec<u8>,
    next_page: u64,
    tail_carry: usize,
    records: u64,
    page_bytes: usize,
}

impl ModelWal {
    fn new(disk: Arc<DiskSim>) -> Self {
        let page_bytes = disk.config().page_bytes;
        ModelWal {
            file: disk.alloc_file(),
            disk,
            buffer: Vec::new(),
            history: Vec::new(),
            next_page: 0,
            tail_carry: 0,
            records: 0,
            page_bytes,
        }
    }

    fn append(&mut self, frame: &[u8]) {
        self.history.extend_from_slice(frame);
        self.buffer.extend_from_slice(frame);
        self.records += 1;
    }

    fn log(&mut self, txn: u64, payload: &LogPayload) {
        let mut frame = Vec::new();
        encode_into(&mut frame, txn, payload);
        self.append(&frame);
    }

    /// A padded maintenance frame of `n` payload bytes. Its checksum is
    /// never read: the model's decoder drops kind-0 frames unchecked.
    fn append_sized(&mut self, n: usize) {
        let mut frame = ((9 + 4 + n) as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0; 4]); // crc
        frame.push(0); // kind
        frame.extend_from_slice(&0u64.to_le_bytes()); // txn
        frame.extend_from_slice(&(n as u32).to_le_bytes());
        frame.resize(frame.len() + n, 0);
        self.append(&frame);
    }

    fn commit(&mut self) -> IoStats {
        if self.buffer.len() == self.tail_carry {
            return IoStats::default();
        }
        let before = self.disk.stats();
        let total = self.buffer.len();
        let pages = (total as u64).div_ceil(self.page_bytes as u64).max(1);
        self.disk.write_run(self.file, self.next_page, self.next_page + pages - 1);
        self.next_page += pages - 1;
        let full = total / self.page_bytes * self.page_bytes;
        self.buffer.drain(..full);
        self.tail_carry = self.buffer.len();
        self.disk.stats().since(&before)
    }

    /// The model's stream with its maintenance frames taken out.
    fn typed_stream(&self) -> Vec<u8> {
        let (mut out, mut pos) = (Vec::new(), 0);
        while pos < self.history.len() {
            let len = u32::from_le_bytes(self.history[pos..pos + 4].try_into().unwrap());
            let end = pos + 8 + len as usize;
            if self.history[pos + 8] != 0 {
                out.extend_from_slice(&self.history[pos..end]);
            }
            pos = end;
        }
        out
    }
}

fn value(x: u64) -> Value {
    match x % 5 {
        0 => Value::Null,
        1 => Value::Int((x >> 8) as i64 - (1 << 40)),
        2 => Value::float(f64::from_bits(x.rotate_left(17))),
        3 => Value::str("s".repeat((x >> 8) as usize % 12)),
        _ => Value::Date((x >> 8) as i32),
    }
}

fn row(x: u64) -> Row {
    let arity = 1 + x as usize % 3;
    (0..arity).map(|i| value(x.rotate_right(7 * i as u32 + 3))).collect()
}

fn table(x: u64) -> String {
    ["t", "orders", ""][x as usize % 3].to_string()
}

/// One typed record of kind `k` (0..7) drawn from `x`.
fn record(k: u8, x: u64) -> (u64, LogPayload) {
    let (txn, shard, rid) = (x % 4, (x >> 4) as u16 % 3, x >> 20);
    let payload = match k {
        0 => LogPayload::Insert { table: table(x), shard, rid, row: row(x) },
        1 => LogPayload::DeleteSet { table: table(x), shard, victims: vec![(rid, row(x >> 1))] },
        2 => LogPayload::DeleteSet {
            table: table(x),
            shard,
            victims: (0..x % 4).map(|i| (rid + i, row(x >> i))).collect(),
        },
        3 => LogPayload::Commit { ts: x >> 3 },
        4 => LogPayload::CheckpointBegin,
        5 => LogPayload::CheckpointEnd { redo_lsn: x >> 9 },
        _ => LogPayload::DesignChange { table: table(x), design: row_bytes(x) },
    };
    (txn, payload)
}

fn row_bytes(x: u64) -> Vec<u8> {
    (0..x % 9).map(|i| (x >> i) as u8).collect()
}

/// One step of a script.
enum Op {
    Record(u64, LogPayload),
    Sized(usize),
    /// The landing step of an insert chunk: rows staged with their
    /// redo frames, the first `landed` of them landing (each pricing
    /// one maintenance record first) at rid `first + i`.
    Landing {
        txn: u64,
        shard: u16,
        rows: Vec<(Row, usize)>,
        landed: usize,
        first: u64,
    },
    Commit,
}

fn op(k: u8, x: u64) -> Op {
    match k {
        0..=6 => {
            let (txn, payload) = record(k, x);
            Op::Record(txn, payload)
        }
        7..=9 => Op::Sized(x as usize % 301),
        10 => {
            let n = 1 + x as usize % 4;
            let rows = (0..n).map(|i| (row(x >> i), (x >> (8 + i)) as usize % 301)).collect();
            let landed = (x >> 40) as usize % (n + 1);
            Op::Landing { txn: x % 3, shard: (x >> 2) as u16 % 3, rows, landed, first: x >> 44 }
        }
        _ => Op::Commit,
    }
}

fn insert(txn: u64, shard: u16, rid: u64, row: &Row) -> (u64, LogPayload) {
    (txn, LogPayload::Insert { table: "items".into(), shard, rid, row: row.clone() })
}

/// Every byte cut of `stream` from `from` to its end decodes to the
/// records whose frames end at or before the cut, torn unless the cut
/// is a frame boundary.
fn check_cuts(stream: &[u8], from: usize) {
    let full = decode_stream(stream);
    assert!(!full.torn);
    assert_eq!(full.valid_bytes, stream.len() as u64);
    // Record `i`'s frame ends where record `i + 1`'s starts.
    let ends = full.records.iter().skip(1).map(|r| r.lsn as usize);
    let ends = ends.chain(std::iter::once(stream.len())).take(full.records.len());
    let ends: Vec<usize> = ends.collect();
    for cut in from..=stream.len() {
        let kept = ends.iter().filter(|&&end| end <= cut).count();
        let valid = if kept == 0 { 0 } else { ends[kept - 1] };
        let d = decode_stream(&stream[..cut]);
        assert_eq!(&d.records[..], &full.records[..kept], "cut {cut}");
        assert_eq!(d.valid_bytes, valid as u64, "cut {cut}");
        assert_eq!(d.torn, valid != cut, "cut {cut}");
    }
}

fn same_io(a: &IoStats, b: &IoStats) -> bool {
    a == b && a.elapsed_ms.to_bits() == b.elapsed_ms.to_bits()
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn priced_volume_charges_what_streamed_frames_did(
        page in 0usize..4,
        steps in prop::collection::vec((0u8..14, any::<u64>()), 0..48),
    ) {
        let cfg = DiskConfig { page_bytes: [64, 200, 512, 8192][page], ..DiskConfig::default() };
        let (disk_a, disk_b, disk_m) = (DiskSim::new(cfg), DiskSim::new(cfg), DiskSim::new(cfg));
        let mut wal = Wal::new(disk_a.clone());
        let gc = GroupCommitWal::new(Wal::new(disk_b.clone()), GroupCommitConfig::per_commit());
        let mut model = ModelWal::new(disk_m.clone());
        let mut batch = WalBatch::new();
        let mut checked = 0;
        let ops = steps.into_iter().map(|(k, x)| op(k, x)).chain(std::iter::once(Op::Commit));
        for op in ops {
            match op {
                Op::Record(txn, payload) => {
                    wal.log(txn, &payload);
                    model.log(txn, &payload);
                    match &payload {
                        LogPayload::Insert { table, shard, rid, row } => {
                            batch.stage_insert(txn, table, *shard, row);
                            batch.seal_staged(*rid);
                        }
                        LogPayload::DeleteSet { table, shard, victims } => {
                            batch.push_delete_set(txn, table, *shard, victims);
                        }
                        // Logged past the batch: append what it gathered
                        // first, so the stream keeps the script's order.
                        _ => {
                            gc.append_batch(&batch);
                            batch = WalBatch::new();
                            gc.log(txn, &payload);
                        }
                    }
                }
                Op::Sized(n) => {
                    wal.append_sized(n);
                    batch.append_sized(n);
                    model.append_sized(n);
                }
                Op::Landing { txn, shard, rows, landed, first } => {
                    for (row, _) in &rows {
                        batch.stage_insert(txn, "items", shard, row);
                    }
                    for (i, (row, n)) in rows.iter().enumerate().take(landed) {
                        let (txn, payload) = insert(txn, shard, first + i as u64, row);
                        wal.append_sized(*n);
                        wal.log(txn, &payload);
                        batch.append_sized(*n);
                        batch.seal_staged(first + i as u64);
                        model.append_sized(*n);
                        model.log(txn, &payload);
                    }
                    batch.drop_staged();
                }
                Op::Commit => {
                    gc.append_batch(&batch);
                    batch = WalBatch::new();
                    let (io_a, io_b, io_m) = (wal.commit(), gc.commit(), model.commit());
                    prop_assert!(same_io(&io_a, &io_m), "{io_a:?} vs model {io_m:?}");
                    prop_assert!(same_io(&io_b, &io_m), "batched {io_b:?} vs model {io_m:?}");
                    prop_assert!(same_io(&disk_a.stats(), &disk_m.stats()));
                    prop_assert!(same_io(&disk_b.stats(), &disk_m.stats()));
                    prop_assert_eq!(wal.records(), model.records);
                    prop_assert_eq!(gc.records(), model.records);
                    let stream = wal.appended_log();
                    prop_assert_eq!(&gc.appended_log(), &stream);
                    prop_assert_eq!(wal.durable_bytes(), stream.len() as u64);
                    prop_assert_eq!(gc.durable_bytes(), stream.len() as u64);
                    prop_assert_eq!(decode_stream(&stream), decode_stream(&model.typed_stream()));
                    check_cuts(&stream, checked);
                    checked = stream.len() + 1;
                }
            }
        }
    }
}

/// Bytewise CRC-32 (IEEE), the form the slice-by-8 tables expand.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn slice_by_8_crc_matches_the_bytewise_reference() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    };
    for len in 0..=300 {
        for _ in 0..4 {
            let buf: Vec<u8> = (0..len + 7).map(|_| next()).collect();
            for skew in [0, 3, 7] {
                let bytes = &buf[skew..skew + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} skew {skew}");
            }
        }
    }
}
