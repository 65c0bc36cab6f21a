//! Layer costs of a write, measured by replay.
//!
//! A traced write is timed at the engine boundary like any other; what it
//! costs in each layer comes from feeding the same rows, afterwards, to
//! structures the benchmark owns: a B+Tree and a CM built from the
//! engine's table before the round, a heap file, a buffer pool and a
//! group-commit WAL on a disk of the same backend kind. The engine's own
//! structures and counters are not touched.

use crate::ops::{COMMIT_EVERY, ITEMS};
use crate::stats::{self, med};
use crate::sut::{err, Sut, SutResult};
use cm_core::{CmSpec, CorrelationMap};
use cm_datagen::ebay;
use cm_index::SecondaryIndex;
use cm_storage::{
    BufferPool, DiskConfig, GroupCommitConfig, GroupCommitWal, HeapFile, LogPayload, MvccState,
    Rid, Row, Wal,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rows per timed batch: a clock read costs about as much as a CM
/// insert, so single rows cannot be timed one by one.
const BATCH: usize = 16;

#[derive(Debug, Clone, Copy, Default)]
pub struct WriteCosts {
    pub heap_append_ns: f64,
    pub index_insert_us: f64,
    pub cm_insert_ns: f64,
    pub wal_append_ns: f64,
    pub wal_flush_us: f64,
    pub mvcc_begin_ns: f64,
}

pub struct WriteReplay {
    index: SecondaryIndex,
    cm: CorrelationMap,
    heap: HeapFile,
    pool: BufferPool,
    wal: GroupCommitWal,
    mvcc: Arc<MvccState>,
    costs: Vec<WriteCosts>,
}

impl WriteReplay {
    /// Copies of the engine's ItemID B+Tree and CAT5 CM as they stand
    /// now, and empty heap/pool/WAL on a fresh disk under `dir`.
    pub fn build(sut: &Sut, dir: &Path) -> SutResult<WriteReplay> {
        let backend = sut.config().backend(dir)?;
        let cfg = DiskConfig::default();
        let disk = backend.make_disk(cfg, "replay").map_err(err)?;
        let log_disk = backend.make_disk(cfg, "replay-wal").map_err(err)?;
        let (index, cm, schema, tpp) = sut.with_shard(ITEMS, 0, |t| {
            (
                t.build_secondary(&disk, "replay_itemid", vec![ebay::COL_ITEMID]),
                t.build_cm("replay_cat5", CmSpec::single_raw(ebay::COL_CAT5)),
                t.heap().schema().clone(),
                t.heap().tups_per_page(),
            )
        })?;
        let heap = HeapFile::bulk_load(&disk, schema, Vec::new(), tpp).map_err(err)?;
        Ok(WriteReplay {
            index,
            cm,
            heap,
            pool: BufferPool::new(disk, sut.config().pool_pages),
            wal: GroupCommitWal::new(Wal::new(log_disk), GroupCommitConfig::default()),
            mvcc: Arc::new(MvccState::new()),
            costs: Vec::new(),
        })
    }

    /// Replay one round's inserted rows (with the rids the engine gave
    /// them) through each owned layer.
    pub fn replay(&mut self, sut: &Sut, rows: &[(Row, Rid)]) -> SutResult<()> {
        let per_row = |start: Instant, n: usize| start.elapsed().as_nanos() as f64 / n as f64;
        let (mut heap_ns, mut index_ns, mut cm_ns, mut wal_ns) = (vec![], vec![], vec![], vec![]);
        let (mut flush_ns, mut begin_ns) = (vec![], vec![]);
        for batch in rows.chunks(BATCH) {
            let copies: Vec<Row> = batch.iter().map(|(row, _)| row.clone()).collect();
            let start = Instant::now();
            for row in copies {
                self.heap.append(&self.pool, row).map_err(err)?;
            }
            heap_ns.push(per_row(start, batch.len()));

            let start = Instant::now();
            for (row, rid) in batch {
                self.index.insert(&self.pool, row, rid.local());
            }
            index_ns.push(per_row(start, batch.len()));

            // The CM needs the bucket directory that holds these rids:
            // the engine's, read under the shard's read lock.
            cm_ns.push(sut.with_shard(ITEMS, 0, |t| {
                let start = Instant::now();
                for (row, rid) in batch {
                    self.cm.insert(row, rid.local(), t.dir());
                }
                per_row(start, batch.len())
            })?);

            // Log and flush as the workload does: a commit per eight rows.
            for group in batch.chunks(COMMIT_EVERY) {
                let records: Vec<LogPayload> = group
                    .iter()
                    .map(|(row, rid)| LogPayload::Insert {
                        table: ITEMS.to_string(),
                        shard: 0,
                        rid: rid.local().0,
                        row: row.clone(),
                    })
                    .collect();
                let start = Instant::now();
                for rec in &records {
                    self.wal.log(1, rec);
                }
                wal_ns.push(per_row(start, group.len()));
                let start = Instant::now();
                self.wal.commit();
                flush_ns.push(start.elapsed().as_nanos() as f64);
            }

            let start = Instant::now();
            for _ in 0..batch.len() {
                std::hint::black_box(self.mvcc.begin());
            }
            begin_ns.push(per_row(start, batch.len()));
        }
        self.costs.push(WriteCosts {
            heap_append_ns: med(heap_ns),
            index_insert_us: med(index_ns) / 1e3,
            cm_insert_ns: med(cm_ns),
            wal_append_ns: med(wal_ns),
            wal_flush_us: med(flush_ns) / 1e3,
            mvcc_begin_ns: med(begin_ns),
        });
        Ok(())
    }

    /// Median over the replayed rounds, field by field.
    pub fn costs(&self) -> WriteCosts {
        let med = |f: fn(&WriteCosts) -> f64| stats::med(self.costs.iter().map(f).collect());
        WriteCosts {
            heap_append_ns: med(|c| c.heap_append_ns),
            index_insert_us: med(|c| c.index_insert_us),
            cm_insert_ns: med(|c| c.cm_insert_ns),
            wal_append_ns: med(|c| c.wal_append_ns),
            wal_flush_us: med(|c| c.wal_flush_us),
            mvcc_begin_ns: med(|c| c.mvcc_begin_ns),
        }
    }
}
