//! Write-ahead log.
//!
//! The paper's CM prototype keeps CMs in main memory but makes them
//! recoverable by writing a WAL and flushing it during two-phase commit
//! with PostgreSQL (§7.1). Experiment 3 counts "all costs involved in
//! maintaining a CM, including transaction logging and 2PC". [`Wal`]
//! models that: records accumulate in memory and [`Wal::commit`] forces
//! them to the simulated disk — a seek to the log head plus sequential
//! page writes, exactly like an `fsync` of an append-only file.
//!
//! Recovery reads only typed [`LogPayload`] frames ([`crate::logrec`]):
//! [`Wal::log`] appends one and returns its [`Lsn`], its offset in the
//! kept stream of frames ([`Wal::durable_log`]). Structure maintenance
//! is *priced*, not streamed ([`LogWrite::append_sized`]): flushes are
//! priced from the logical length, frames plus that volume, so they
//! write the pages a log streaming every maintenance frame would.

use crate::disk::{DiskSim, FileId, IoStats, PageAccessor};
use crate::logrec::{self, LogPayload, Lsn, FRAME_HEADER_BYTES, PAYLOAD_HEADER_BYTES};
use crate::schema::Row;
use crate::value::Value;
use std::sync::Arc;

/// Bytes a maintenance record is priced at beyond its payload: the
/// frame header, the payload header and a `u32` size field.
pub const MAINTENANCE_OVERHEAD_BYTES: usize = FRAME_HEADER_BYTES + PAYLOAD_HEADER_BYTES + 4;

/// Anything maintenance code can log record volumes to: the [`Wal`]
/// itself, or a [`WalBatch`] gathered outside the log lock so a shared
/// log's critical section shrinks to the appends alone.
pub trait LogWrite {
    /// Price one structure-maintenance record of `payload_len` payload
    /// bytes as one more record and its frame's length; write no bytes.
    fn append_sized(&mut self, payload_len: usize);
}

/// A detached batch of records, appended into a [`Wal`] later (e.g.
/// under a briefly-held log lock): frames encoded back to back in one
/// buffer, plus priced maintenance volume.
#[derive(Debug, Default, Clone)]
pub struct WalBatch {
    bytes: Vec<u8>,
    /// End of the last complete frame; staged inserts follow it.
    sealed: usize,
    records: u64,
    volume: u64,
}

impl WalBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WalBatch::default()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Gather the `LogPayload::DeleteSet` record of removing `victims`
    /// (local rid and before-image each) from `table`'s shard `shard`,
    /// encoded from the borrowed parts. No staged insert may be waiting.
    pub fn push_delete_set(&mut self, txn: u64, table: &str, shard: u16, victims: &[(u64, Row)]) {
        debug_assert_eq!(self.sealed, self.bytes.len(), "a staged insert is unsealed");
        logrec::encode_delete_set(&mut self.bytes, txn, table, shard, victims);
        self.sealed = self.bytes.len();
        self.records += 1;
    }

    /// Encode the redo frame of inserting `row` into `table`'s shard
    /// `shard` before its rid is known; [`WalBatch::seal_staged`] seals
    /// staged frames in staging order.
    pub fn stage_insert(&mut self, txn: u64, table: &str, shard: u16, row: &[Value]) {
        logrec::stage_insert(&mut self.bytes, txn, table, shard, row);
    }

    /// Complete the oldest unsealed staged insert with the rid its row
    /// landed at.
    pub fn seal_staged(&mut self, rid: u64) {
        self.sealed += logrec::seal_insert(&mut self.bytes[self.sealed..], rid);
        self.records += 1;
    }

    /// Drop every staged insert not yet sealed (their rows never landed).
    pub fn drop_staged(&mut self) {
        self.bytes.truncate(self.sealed);
    }

    /// Append every gathered record onto `wal`, in order.
    pub fn append_into(&self, wal: &mut Wal) {
        debug_assert_eq!(self.sealed, self.bytes.len(), "a staged insert is unsealed");
        wal.history.extend_from_slice(&self.bytes);
        wal.logical += self.bytes.len() as u64 + self.volume;
        wal.records += self.records;
    }
}

impl LogWrite for WalBatch {
    fn append_sized(&mut self, payload_len: usize) {
        self.volume += (MAINTENANCE_OVERHEAD_BYTES + payload_len) as u64;
        self.records += 1;
    }
}

impl LogWrite for Wal {
    fn append_sized(&mut self, payload_len: usize) {
        self.logical += (MAINTENANCE_OVERHEAD_BYTES + payload_len) as u64;
        self.records += 1;
    }
}

/// An append-only, page-flushed log on the simulated disk.
pub struct Wal {
    disk: Arc<DiskSim>,
    file: FileId,
    /// The stream of frames since creation. The simulated disk stores
    /// no bytes, so this is the "log file" recovery reads back.
    history: Vec<u8>,
    /// Logical bytes appended: frames plus priced volume.
    logical: u64,
    /// `logical` at the last flush.
    flushed: u64,
    /// Logical offset where the unsealed tail page, which the next
    /// flush rewrites, begins.
    tail_start: u64,
    /// Next page number to write.
    next_page: u64,
    durable_bytes: u64,
    records: u64,
    page_bytes: usize,
}

impl Wal {
    /// A new, empty log on `disk`.
    pub fn new(disk: Arc<DiskSim>) -> Self {
        let page_bytes = disk.config().page_bytes;
        Wal {
            file: disk.alloc_file(),
            disk,
            history: Vec::new(),
            logical: 0,
            flushed: 0,
            tail_start: 0,
            next_page: 0,
            durable_bytes: 0,
            records: 0,
            page_bytes,
        }
    }

    /// Append one typed record and return its LSN. No disk cost until
    /// [`Wal::commit`].
    pub fn log(&mut self, txn: u64, payload: &LogPayload) -> Lsn {
        let lsn = logrec::encode_into(&mut self.history, txn, payload) as Lsn;
        self.logical += self.history.len() as u64 - lsn;
        self.records += 1;
        lsn
    }

    /// Force everything appended to disk; returns the I/O charged.
    ///
    /// Even a tiny commit rewrites the current tail page (torn-page-safe
    /// logging always flushes whole pages) — but a commit with *nothing
    /// new* since the last flush is a pure no-op: no disk write at all.
    /// Group commit relies on this so absorbed followers and redundant
    /// leader flushes cost nothing.
    pub fn commit(&mut self) -> IoStats {
        if self.pending_bytes() == 0 {
            return IoStats::default();
        }
        let before = self.disk.stats();
        let page = self.page_bytes as u64;
        let total = self.logical - self.tail_start;
        let pages = total.div_ceil(page).max(1);
        // One vectored write for the whole tail: a log force is a single
        // seek to the log head plus sequential pages, and stays that way
        // even while shard traffic shares the device.
        self.disk.write_run(self.file, self.next_page, self.next_page + pages - 1);
        // All but the last page are full and permanently sealed; the
        // next commit rewrites the tail page's content.
        self.next_page += pages - 1;
        self.tail_start += total / page * page;
        self.flushed = self.logical;
        self.durable_bytes = self.history.len() as u64;
        self.disk.stats().since(&before)
    }

    /// Bytes of the frame stream made durable so far.
    pub fn durable_bytes(&self) -> u64 {
        self.durable_bytes
    }

    /// Bytes of the frame stream appended so far (durable or not).
    pub fn appended_bytes(&self) -> u64 {
        self.history.len() as u64
    }

    /// Logical bytes (frames plus priced volume) appended but not yet
    /// flushed.
    pub fn pending_bytes(&self) -> u64 {
        self.logical - self.flushed
    }

    /// Number of records appended since creation, priced ones included.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The simulated file backing the log.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// The durable prefix of the frame stream — what a crash right now
    /// would leave readable on disk. Recovery decodes this with
    /// [`logrec::decode_stream`].
    pub fn durable_log(&self) -> Vec<u8> {
        self.history[..self.durable_bytes as usize].to_vec()
    }

    /// The full appended frame stream including the not-yet-durable
    /// tail (crash harnesses cut this at arbitrary points; real crashes
    /// can leave any prefix of the in-flight tail page behind).
    pub fn appended_log(&self) -> Vec<u8> {
        self.history.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logrec::decode_stream;

    #[test]
    fn borrowed_delete_sets_decode_to_their_payload() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..500 {
            let victims: Vec<(u64, Row)> = (0..next() % 6)
                .map(|_| {
                    let row = (0..next() % 7)
                        .map(|_| match next() % 5 {
                            0 => Value::Null,
                            1 => Value::Int(next() as i64),
                            2 => Value::float(f64::from_bits(next())),
                            3 => Value::str("é".repeat(next() as usize % 40)),
                            _ => Value::Date(next() as i32),
                        })
                        .collect();
                    (next(), row)
                })
                .collect();
            let (txn, shard) = (next() % 3, next() as u16);
            let table = "t".repeat(next() as usize % 20);
            // No victims, the one of a delete by rid, and many.
            let mut batch = WalBatch::new();
            let mut want = Vec::new();
            for n in [0, 1, victims.len()] {
                batch.push_delete_set(txn, &table, shard, &victims[..n.min(victims.len())]);
                want.push(LogPayload::DeleteSet {
                    table: table.clone(),
                    shard,
                    victims: victims[..n.min(victims.len())].to_vec(),
                });
            }
            let decoded = decode_stream(&batch.bytes);
            assert!(!decoded.torn);
            assert!(decoded.records.iter().all(|r| r.txn == txn));
            let got: Vec<LogPayload> = decoded.records.into_iter().map(|r| r.payload).collect();
            assert_eq!(got, want);
            assert_eq!((batch.records, batch.sealed), (3, batch.bytes.len()));
        }
    }

    #[test]
    fn commit_charges_seek_plus_sequential_pages() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk.clone());
        // Exactly 3 pages of priced volume.
        for _ in 0..3 {
            wal.append_sized(8192 - MAINTENANCE_OVERHEAD_BYTES);
        }
        let io = wal.commit();
        assert_eq!(io.page_writes, 3);
        assert!((io.elapsed_ms - (5.5 + 2.0 * 0.078)).abs() < 1e-9);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk.clone());
        let io = wal.commit();
        assert_eq!(io.page_writes, 0);
        assert_eq!(disk.stats(), IoStats::default(), "no disk traffic at all");
    }

    #[test]
    fn recommit_with_nothing_pending_is_free() {
        // Regression: commit used to rewrite the tail page even when
        // nothing was appended since the last flush.
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk.clone());
        wal.append_sized(7);
        let io1 = wal.commit();
        assert_eq!(io1.page_writes, 1);
        let before = disk.stats();
        let io2 = wal.commit();
        assert_eq!(io2, IoStats::default(), "nothing pending: no I/O");
        assert_eq!(disk.stats(), before, "disk untouched");
        assert_eq!(wal.pending_bytes(), 0);
    }

    #[test]
    fn small_commits_rewrite_tail_page() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk);
        wal.log(1, &LogPayload::Commit { ts: 0 });
        let io1 = wal.commit();
        wal.log(2, &LogPayload::Commit { ts: 0 });
        let io2 = wal.commit();
        assert_eq!(io1.page_writes, 1);
        assert_eq!(io2.page_writes, 1);
        assert_eq!(wal.records(), 2);
    }

    #[test]
    fn durable_bytes_accumulate() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk);
        wal.log(1, &LogPayload::Commit { ts: 0 });
        let one = wal.appended_bytes();
        assert_eq!(wal.pending_bytes(), one);
        wal.commit();
        assert_eq!(wal.durable_bytes(), one);
        assert_eq!(wal.pending_bytes(), 0);
        wal.log(2, &LogPayload::CheckpointBegin);
        wal.append_sized(100);
        wal.commit();
        let mut two = Vec::new();
        logrec::encode_into(&mut two, 2, &LogPayload::CheckpointBegin);
        let two = two.len() as u64;
        assert_eq!(wal.durable_bytes(), one + two, "the priced volume is not streamed");
        assert_eq!(wal.durable_bytes(), wal.appended_bytes());
    }

    #[test]
    fn priced_volume_is_flushed_but_never_streamed() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk);
        wal.append_sized(4);
        assert_eq!(wal.pending_bytes(), (MAINTENANCE_OVERHEAD_BYTES + 4) as u64);
        assert_eq!(wal.commit().page_writes, 1, "the volume alone is flushed");
        assert_eq!((wal.durable_bytes(), wal.appended_bytes()), (0, 0), "and writes no bytes");
        let lsn = wal.log(1, &LogPayload::Commit { ts: 0 });
        assert_eq!(lsn, 0, "LSNs are offsets into the frame stream");
        wal.append_sized(100);
        wal.commit();
        assert_eq!(wal.durable_bytes(), wal.appended_bytes());
        assert_eq!(decode_stream(&wal.durable_log()).records.len(), 1);
        assert_eq!(wal.records(), 3);
    }

    #[test]
    fn sealed_pages_are_not_rewritten() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk.clone());
        wal.append_sized(2 * 8192); // spills past two pages
        wal.commit();
        let before = disk.stats();
        wal.append_sized(4);
        let io = wal.commit();
        // Only the (third) tail page is rewritten, not the sealed ones.
        assert_eq!(io.page_writes, 1);
        assert_eq!(disk.stats().page_writes, before.page_writes + 1);
    }

    #[test]
    fn log_returns_stream_offset_lsns_and_history_decodes() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk);
        let l0 = wal.log(7, &LogPayload::Commit { ts: 0 });
        let l1 = wal.log(0, &LogPayload::CheckpointBegin);
        let l2 = wal.log(0, &LogPayload::CheckpointEnd { redo_lsn: l1 });
        assert_eq!(l0, 0);
        assert!(l1 > l0 && l2 > l1);
        wal.commit();
        let decoded = decode_stream(&wal.durable_log());
        assert!(!decoded.torn);
        let lsns: Vec<Lsn> = decoded.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![l0, l1, l2]);
        assert_eq!(decoded.records[0].txn, 7);
        assert_eq!(decoded.records[2].payload, LogPayload::CheckpointEnd { redo_lsn: l1 });
    }

    #[test]
    fn durable_log_excludes_the_uncommitted_tail() {
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk);
        wal.log(1, &LogPayload::Commit { ts: 0 });
        wal.commit();
        wal.log(2, &LogPayload::Commit { ts: 0 });
        let durable = decode_stream(&wal.durable_log());
        assert_eq!(durable.records.len(), 1, "tail record not yet durable");
        let all = decode_stream(&wal.appended_log());
        assert_eq!(all.records.len(), 2);
        assert_eq!(wal.appended_bytes() - wal.durable_bytes(), wal.pending_bytes());
    }

    #[test]
    fn batch_append_into_preserves_records_and_lsns() {
        // A batch filled through the engine's entry points (an insert
        // staged, priced and sealed at its rid, a second staged insert
        // that never lands, a delete set) appends exactly what
        // `Wal::log` of the same records and volume writes.
        let (mut wal, mut plain) =
            (Wal::new(DiskSim::with_defaults()), Wal::new(DiskSim::with_defaults()));
        let row = vec![Value::Int(1), Value::str("a")];
        let victims = vec![(3, vec![Value::Int(9), Value::Null])];
        let (table, shard) = (String::from("t"), 2);
        let insert = LogPayload::Insert { table: table.clone(), shard, rid: 5, row: row.clone() };
        let delete = LogPayload::DeleteSet { table, shard, victims: victims.clone() };
        let ckpt = LogPayload::CheckpointBegin;
        wal.log(0, &ckpt);
        let mut batch = WalBatch::new();
        batch.stage_insert(4, "t", shard, &row);
        batch.stage_insert(4, "t", shard, &row);
        batch.append_sized(10);
        batch.seal_staged(5);
        batch.drop_staged();
        batch.push_delete_set(4, "t", shard, &victims);
        batch.append_into(&mut wal);
        let lsns = [
            plain.log(0, &ckpt),
            plain.log(4, &insert),
            plain.log(4, &delete),
        ];
        plain.append_sized(10);
        assert_eq!(wal.records(), 4);
        assert_eq!(wal.records(), plain.records());
        assert_eq!(wal.appended_log(), plain.appended_log(), "the same frames, byte for byte");
        let priced = (MAINTENANCE_OVERHEAD_BYTES + 10) as u64;
        assert_eq!(wal.pending_bytes(), wal.appended_bytes() + priced);
        assert_eq!(wal.pending_bytes(), plain.pending_bytes());
        assert_eq!(wal.commit(), plain.commit());
        let decoded = decode_stream(&wal.durable_log());
        assert!(!decoded.torn);
        let got: Vec<_> = decoded.records.iter().map(|r| (r.lsn, r.txn, &r.payload)).collect();
        let want = [(lsns[0], 0, &ckpt), (lsns[1], 4, &insert), (lsns[2], 4, &delete)];
        assert_eq!(got, want, "the unsealed insert was dropped");
    }
}
