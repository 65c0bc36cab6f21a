//! ARIES-style crash recovery: fuzzy checkpoints, redo, and undo.
//!
//! The engine's WAL carries typed, checksummed, LSN-stamped records
//! ([`cm_storage::LogPayload`]) for every logical mutation. This module
//! adds the other half of the durability story:
//!
//! * **Fuzzy checkpoints** — [`Engine::checkpoint`] logs a
//!   `CheckpointBegin`, snapshots every loaded table shard-by-shard
//!   *without* quiescing writers (only one shard's read lock is held at
//!   a time), flushes the buffer pools, and seals the image with a
//!   `CheckpointEnd { redo_lsn }` record. The image is usable exactly
//!   when its end record fully survives a crash; redo then starts at
//!   `redo_lsn`, the `CheckpointBegin` offset. The fuzziness is safe
//!   because every mutation appends its WAL record *inside* its shard's
//!   write-lock critical section: any record with `lsn < redo_lsn` has
//!   its heap effect visible to the snapshot (the snapshot's lock
//!   acquisition happens after that critical section), and records with
//!   `lsn >= redo_lsn` replay idempotently whether or not the snapshot
//!   caught them.
//! * **Crash simulation** — [`Engine::crash_state`] freezes what a kill
//!   at an arbitrary byte offset of the log stream would leave on disk:
//!   the newest checkpoint image whose end record survived, plus the
//!   surviving log prefix (possibly ending mid-frame — the decoder
//!   detects the torn tail by checksum and truncates).
//! * **Restart** — [`Engine::recover`] rebuilds a fresh engine from that
//!   state: restore each table from the image, redo every logged
//!   mutation from `redo_lsn` forward (repeating history, uncommitted
//!   work included), then undo the uncommitted tail in reverse using the
//!   before-images the records carry. The result answers queries with
//!   committed-prefix semantics: every transaction whose commit record
//!   survived is fully present, every other transaction fully absent.
//!
//! Recovery I/O is charged to the simulated disks — the log is read
//! sequentially from the log disk and undo/redo page touches go through
//! the shard pools — so the [`RecoveryReport`]'s simulated time is a
//! faithful time-to-first-query figure for the bench harness.

use crate::catalog::{EngineConfig, LoadedTable, TableEntry};
use crate::design::StructureSet;
use crate::engine::Engine;
use crate::error::EngineError;
use crate::shard::RangeRouter;
use crate::Result;
use cm_query::Table;
use cm_storage::{
    decode_stream, HeapFile, HeapImage, LogPayload, Lsn, PageAccessor, Rid, Row, Schema, Value,
    AUTOCOMMIT_TXN, FRAME_HEADER_BYTES, PAYLOAD_HEADER_BYTES,
};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Byte length of a `CheckpointEnd` frame: header + payload header +
/// the 8-byte `redo_lsn`. A checkpoint image is usable for a crash cut
/// iff the cut lies at or past its end record's last byte.
const CHECKPOINT_END_FRAME_BYTES: u64 =
    (FRAME_HEADER_BYTES + PAYLOAD_HEADER_BYTES + 8) as u64;

/// One shard's slice of a checkpoint image: its heap's typed column
/// segments, shared copy-on-write with the heap, not rows.
#[derive(Debug, Clone)]
pub struct ShardImage {
    /// The heap's typed column segments, null bitmaps and counts, length
    /// and dictionary strings ([`HeapImage`]), exactly as the heap held
    /// them: a slot whose bit in `live` is clear keeps the values it last
    /// held, which nothing reads. Dictionary codes are kept as issued.
    pub heap: HeapImage,
    /// One bit per heap slot (bit `r % 64` of word `r / 64`), set while
    /// the slot's version is current. Liveness is recorded here, never
    /// read from the values: an all-NULL row is a row. An ended version
    /// images as dead: a *committed* delete whose record precedes
    /// `redo_lsn` is never replayed, so the image must not carry the row,
    /// while undo reinstates an *uncommitted* one from its record's
    /// before-image either way. Pending-begin rows (uncommitted inserts)
    /// are current; undo removes them if the transaction never commits.
    pub live: Vec<u64>,
    /// The bulk-loaded sorted-prefix length ([`cm_query::Table::restore`]
    /// rebuilds the clustered index and bucket directory from it; rows
    /// past it are re-learned as appends).
    pub base_len: u64,
}

impl ShardImage {
    /// Bytes the image holds: its heap segments ([`HeapImage::bytes`],
    /// which counts segments it shares with the heap or other images in
    /// full) and its liveness bitmap.
    pub fn bytes(&self) -> usize {
        self.heap.bytes() + self.live.capacity() * std::mem::size_of::<u64>()
    }
}

/// One table's slice of a checkpoint image: enough to re-create the
/// catalog entry, re-partition, and rebuild every access structure.
#[derive(Debug, Clone)]
pub struct TableImage {
    /// Table name.
    pub name: String,
    /// Table schema.
    pub schema: Arc<Schema>,
    /// Clustered column position.
    pub clustered_col: usize,
    /// Heap tuples per page.
    pub tups_per_page: usize,
    /// Bucket-directory target (tuples per CM bucket).
    pub bucket_target: u64,
    /// The range router's split keys (shard `i+1`'s smallest owned key).
    pub splits: Vec<Value>,
    /// Per-shard heap images, in shard order.
    pub shards: Vec<ShardImage>,
    /// The access structures at snapshot time (the same set on every
    /// shard).
    pub structures: StructureSet,
}

/// A consistent-enough snapshot of every loaded table (fuzzy: shards are
/// copied one at a time while writers proceed elsewhere; redo from the
/// paired `redo_lsn` squares it up).
#[derive(Debug, Clone, Default)]
pub struct DurableImage {
    /// Snapshots of every loaded table, sorted by name.
    pub tables: Vec<TableImage>,
}

/// A checkpoint image plus its placement in the log stream.
pub(crate) struct ImageInstall {
    /// First log offset at which this image is durable: the byte just
    /// past its `CheckpointEnd` frame (for the base image installed by
    /// `load`, the append position at install time). A crash cut at or
    /// past `at` may recover from this image.
    pub(crate) at: u64,
    /// Where redo starts when recovering from this image.
    pub(crate) redo_lsn: Lsn,
    /// The image itself.
    pub(crate) image: Arc<DurableImage>,
}

/// What a crash leaves behind: the newest usable checkpoint image and
/// the log prefix that survived. Produced by [`Engine::crash_state`],
/// consumed by [`Engine::recover`].
#[derive(Clone)]
pub struct CrashState {
    /// The newest checkpoint image whose end record survived the cut
    /// (the load-time base image when no checkpoint completed).
    pub image: Arc<DurableImage>,
    /// Where redo starts: the image's paired `CheckpointBegin` offset.
    pub redo_lsn: Lsn,
    /// The surviving log stream prefix, offset 0 = LSN 0. May end
    /// mid-frame; the decoder truncates the torn tail.
    pub log: Vec<u8>,
}

/// What [`Engine::recover`] did, and what it cost.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Bytes of the frame stream the crash left behind.
    pub log_bytes: u64,
    /// Bytes that decoded cleanly (`<= log_bytes`).
    pub valid_bytes: u64,
    /// Whether a torn tail was detected and truncated.
    pub torn: bool,
    /// Records decoded from the surviving prefix.
    pub records: u64,
    /// Logical mutations reapplied during the redo pass.
    pub redone: u64,
    /// Logical mutations rolled back during the undo pass.
    pub undone: u64,
    /// Distinct committed transactions observed (excluding autocommit).
    pub committed_txns: u64,
    /// Distinct uncommitted transactions rolled back.
    pub uncommitted_txns: u64,
    /// Where redo started.
    pub redo_lsn: Lsn,
    /// Simulated milliseconds the whole restart charged (log read +
    /// redo/undo page traffic): the engine's time-to-first-query.
    pub sim_ms: f64,
}

// -------------------------------------------------------- checkpoints

impl Engine {
    /// Snapshot every loaded table, one shard read-lock at a time
    /// (writers on other shards — and on this shard, before/after the
    /// snapshot — proceed concurrently; the paired `redo_lsn` squares up
    /// anything the fuzzy snapshot raced with). A shard's image shares
    /// its heap's segments, so the hold copies no column.
    fn snapshot_image(&self) -> DurableImage {
        let mut tables = Vec::new();
        for entry in self.entries() {
            let Some(lt) = entry.loaded.get() else { continue };
            let mut shards = Vec::with_capacity(lt.parts.len());
            for (i, part) in lt.parts.iter().enumerate() {
                // The read lock covers a pointer to each heap segment and
                // the liveness bits.
                let (heap, live) = {
                    let t = part.read();
                    (t.heap().image(), t.current_slots())
                };
                shards.push(ShardImage { heap, live, base_len: lt.base_lens[i] });
            }
            let structures = StructureSet::of(&lt.parts[0].read());
            tables.push(TableImage {
                name: entry.name.clone(),
                schema: entry.schema.clone(),
                clustered_col: entry.clustered_col,
                tups_per_page: entry.tups_per_page,
                bucket_target: entry.bucket_target,
                splits: lt.router.splits().to_vec(),
                shards,
                structures,
            });
        }
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        DurableImage { tables }
    }

    /// Install the load-time base image: bulk loads are not logged
    /// record by record, so recovery needs a starting image even before
    /// the first checkpoint. Conservative placement: usable only for
    /// cuts at or past the current append position.
    pub(crate) fn install_base_image(&self) {
        let image = Arc::new(self.snapshot_image());
        let at = self.wal.appended_bytes();
        self.images.lock().push(ImageInstall { at, redo_lsn: at, image });
        self.ckpt_records.store(self.wal.records(), Ordering::Relaxed);
    }

    /// Take a fuzzy checkpoint now (blocking if another is in flight);
    /// returns the new image's redo LSN. See the module docs for the
    /// protocol and why it tolerates concurrent writers.
    pub fn checkpoint(&self) -> Lsn {
        let _serialized = self.ckpt_lock.lock();
        self.checkpoint_locked()
    }

    /// Auto-checkpoint hook run by [`Engine::commit`]: fires when
    /// `checkpoint_every` records have accumulated since the last image
    /// install, and skips (rather than queues) when a checkpoint is
    /// already in flight.
    pub(crate) fn maybe_checkpoint(&self) {
        let every = self.config.checkpoint_every;
        if every == 0 {
            return;
        }
        let since =
            self.wal.records().saturating_sub(self.ckpt_records.load(Ordering::Relaxed));
        if since < every {
            return;
        }
        if let Some(_serialized) = self.ckpt_lock.try_lock() {
            self.checkpoint_locked();
        }
    }

    /// The checkpoint protocol body; callers must hold `ckpt_lock`.
    fn checkpoint_locked(&self) -> Lsn {
        // Begin marker first: its offset is where redo will start, so it
        // must precede every mutation the snapshot could miss.
        let redo_lsn = self.wal.log(AUTOCOMMIT_TXN, &LogPayload::CheckpointBegin);
        let image = Arc::new(self.snapshot_image());
        // Push dirty pages out so the (simulated) on-disk heaps are no
        // older than the image; charges the flush to the shard disks.
        for b in &self.backends {
            b.flush();
        }
        let end_lsn =
            self.wal.log(AUTOCOMMIT_TXN, &LogPayload::CheckpointEnd { redo_lsn });
        self.wal.commit();
        let at = end_lsn + CHECKPOINT_END_FRAME_BYTES;
        self.images.lock().push(ImageInstall { at, redo_lsn, image });
        self.ckpt_records.store(self.wal.records(), Ordering::Relaxed);
        redo_lsn
    }

    /// Number of checkpoint images installed (the load-time base image
    /// included).
    pub fn checkpoint_count(&self) -> usize {
        self.images.lock().len()
    }

    // ------------------------------------------------ crash + restart

    /// Freeze what a crash at log offset `cut` would leave on disk: the
    /// surviving log prefix (possibly mid-frame) and the newest
    /// checkpoint image whose end record survived. `None` cuts at the
    /// durable boundary — everything flushed survives, the un-flushed
    /// tail is lost — which is what a power cut between commits does.
    pub fn crash_state(&self, cut: Option<u64>) -> CrashState {
        let full = self.wal.appended_log();
        let cut = cut.unwrap_or_else(|| self.wal.durable_bytes()).min(full.len() as u64);
        let log = full[..cut as usize].to_vec();
        let images = self.images.lock();
        match images.iter().rev().find(|im| im.at <= cut) {
            Some(im) => CrashState { image: im.image.clone(), redo_lsn: im.redo_lsn, log },
            None => CrashState {
                image: Arc::new(DurableImage::default()),
                redo_lsn: 0,
                log,
            },
        }
    }

    /// Restart from a crash: build a fresh engine, restore every table
    /// from the checkpoint image, redo history from the image's
    /// `redo_lsn`, and undo uncommitted transactions in reverse. The
    /// recovered engine answers queries with committed-prefix semantics
    /// and is itself checkpointable and crashable (its log restarts at
    /// offset 0 over the restored base image).
    ///
    /// All restart I/O is charged to the new engine's simulated disks;
    /// [`RecoveryReport::sim_ms`] is its time-to-first-query.
    pub fn recover(
        config: EngineConfig,
        state: &CrashState,
    ) -> Result<(Arc<Engine>, RecoveryReport)> {
        let engine = Engine::try_new(config)?;
        // Analysis + redo read the surviving log once, sequentially,
        // from the log disk: the typed frames only, since maintenance
        // volume is priced at flush time but never written.
        let log_bytes = state.log.len() as u64;
        if log_bytes > 0 {
            let pages = log_bytes.div_ceil(engine.config.disk.page_bytes as u64);
            let f = engine.log_disk.alloc_file();
            engine.log_disk.read_run(f, 0, pages - 1);
        }
        let decoded = decode_stream(&state.log);

        for ti in &state.image.tables {
            restore_table(&engine, ti)?;
        }

        // Analysis: committed set and high-water transaction id.
        let mut committed: HashSet<u64> = HashSet::new();
        committed.insert(AUTOCOMMIT_TXN);
        let mut seen_txns: HashSet<u64> = HashSet::new();
        let mut max_txn = AUTOCOMMIT_TXN;
        let mut max_commit_ts = 0u64;
        for rec in &decoded.records {
            max_txn = max_txn.max(rec.txn);
            if rec.txn != AUTOCOMMIT_TXN {
                seen_txns.insert(rec.txn);
            }
            if let LogPayload::Commit { ts } = rec.payload {
                committed.insert(rec.txn);
                max_commit_ts = max_commit_ts.max(ts);
            }
        }

        // Redo: repeat history (uncommitted work included) from the
        // image's redo point. Per-shard record order is mutation order,
        // so replay in LSN order is replay in causal order.
        let mut redone = 0u64;
        for rec in &decoded.records {
            if rec.lsn < state.redo_lsn {
                continue;
            }
            match &rec.payload {
                LogPayload::Insert { table, shard, rid, row } => {
                    redo_insert(&engine, table, *shard as usize, Rid(*rid), row)?;
                    redone += 1;
                }
                LogPayload::DeleteSet { table, shard, victims } => {
                    for (rid, _) in victims {
                        redo_delete(&engine, table, *shard as usize, Rid(*rid))?;
                    }
                    redone += 1;
                }
                LogPayload::DesignChange { table, design } => {
                    redo_design(&engine, table, design)?;
                    redone += 1;
                }
                LogPayload::Commit { .. }
                | LogPayload::CheckpointBegin
                | LogPayload::CheckpointEnd { .. } => {}
            }
        }

        // Undo: roll the uncommitted tail back in reverse, restoring
        // before-images. Records before `redo_lsn` participate too — an
        // uncommitted write can predate the checkpoint that imaged it.
        let mut undone = 0u64;
        for rec in decoded.records.iter().rev() {
            if committed.contains(&rec.txn) {
                continue;
            }
            match &rec.payload {
                LogPayload::Insert { table, shard, rid, .. } => {
                    undo_insert(&engine, table, *shard as usize, Rid(*rid))?;
                    undone += 1;
                }
                LogPayload::DeleteSet { table, shard, victims } => {
                    for (rid, row) in victims.iter().rev() {
                        undo_delete(&engine, table, *shard as usize, Rid(*rid), row)?;
                    }
                    undone += 1;
                }
                _ => {}
            }
        }

        // Sessions on the recovered engine must not reuse a logged txn id.
        engine.next_txn.store(max_txn + 1, Ordering::Relaxed);
        // The restart rebuilt a single-version heap (every surviving row
        // stamped live-at-1): restart the commit clock past the largest
        // logged commit timestamp so new commits never reuse one.
        if let Some(mv) = &engine.mvcc {
            mv.reset_clock(max_commit_ts.max(1));
        }
        // The recovered state is the new baseline: its log restarts at
        // offset 0, so install the post-recovery image there.
        engine.install_base_image();

        let committed_named = committed.len() as u64 - 1; // minus autocommit
        let report = RecoveryReport {
            log_bytes,
            valid_bytes: decoded.valid_bytes,
            torn: decoded.torn,
            records: decoded.records.len() as u64,
            redone,
            undone,
            committed_txns: committed_named,
            uncommitted_txns: seen_txns.iter().filter(|t| !committed.contains(t)).count()
                as u64,
            redo_lsn: state.redo_lsn,
            sim_ms: engine.io_totals().elapsed_ms,
        };
        Ok((engine, report))
    }
}

// ---------------------------------------------------- redo / undo ops

fn table_entry(engine: &Engine, table: &str) -> Result<Arc<TableEntry>> {
    engine
        .entry(table)
        .map_err(|_| EngineError::Recovery(format!("log names unknown table {table:?}")))
}

/// The partitions an imaged table was restored into.
fn image_of(entry: &TableEntry) -> Result<&LoadedTable> {
    entry
        .loaded
        .get()
        .ok_or_else(|| EngineError::Recovery(format!("table {:?} has no image", entry.name)))
}

/// Rebuild one table from its image slice: catalog entry, then the
/// partitions through the load path ([`Engine::publish_parts`]), then
/// the imaged access structures through the design install step.
fn restore_table(engine: &Engine, ti: &TableImage) -> Result<()> {
    if ti.shards.len() > engine.backends.len() {
        return Err(EngineError::Recovery(format!(
            "image of {:?} spans {} shards but the engine has {}",
            ti.name,
            ti.shards.len(),
            engine.backends.len()
        )));
    }
    engine.create_table(
        ti.name.clone(),
        ti.schema.clone(),
        ti.clustered_col,
        ti.tups_per_page,
        ti.bucket_target,
    )?;
    let entry = table_entry(engine, &ti.name)?;
    let router = RangeRouter::new(ti.clustered_col, ti.splits.clone());
    let shards = ti.shards.iter().enumerate().map(|(i, si)| {
        let disk = engine.backends[i].disk();
        let heap = HeapFile::from_image(disk, ti.schema.clone(), si.heap.clone());
        Ok((heap, si.live.clone(), si.base_len))
    });
    let lt = engine.publish_parts(&entry, router, shards)?;
    engine.install_structures(lt, &ti.structures, true)
}

/// Run `f` under one shard partition's write lock.
fn with_part<R>(
    engine: &Engine,
    table: &str,
    shard: usize,
    f: impl FnOnce(&mut Table, &dyn PageAccessor) -> Result<R>,
) -> Result<R> {
    let entry = table_entry(engine, table)?;
    let part = image_of(&entry)?.parts.get(shard).ok_or_else(|| {
        EngineError::Recovery(format!("record addresses shard {shard} of {table:?}"))
    })?;
    let mut t = part.write();
    f(&mut t, engine.backends[shard].pool())
}

/// Idempotent redo of a logged insert: grow the heap with placeholder
/// slots up to the logged RID if the image predates it, refill the slot
/// if it is currently a tombstone, and leave it alone if the image (or
/// an earlier replay) already holds the row.
fn redo_insert(engine: &Engine, table: &str, shard: usize, rid: Rid, row: &Row) -> Result<()> {
    with_part(engine, table, shard, |t, pool| {
        if rid.0 >= t.heap().len() {
            while t.heap().len() < rid.0 {
                t.append_placeholder();
            }
            t.insert_row(pool, None, row).map_err(EngineError::Storage)?;
        } else if t.is_tombstone(rid).map_err(EngineError::Storage)? {
            t.reinstate_row(pool, rid, row.clone()).map_err(EngineError::Storage)?;
        }
        Ok(())
    })
}

/// Idempotent redo of a logged delete: tombstone the slot unless the
/// image already shows it deleted. A RID past the heap means the log
/// and image disagree — surfaced as a recovery error.
fn redo_delete(engine: &Engine, table: &str, shard: usize, rid: Rid) -> Result<()> {
    with_part(engine, table, shard, |t, pool| {
        if rid.0 >= t.heap().len() {
            return Err(EngineError::Recovery(format!(
                "delete record for {table:?} shard {shard} rid {} past heap end {}",
                rid.0,
                t.heap().len()
            )));
        }
        if !t.is_tombstone(rid).map_err(EngineError::Storage)? {
            t.delete_row(pool, None, rid).map_err(EngineError::Storage)?;
        }
        Ok(())
    })
}

/// Redo a design change: replace the access-structure set with the one
/// the record carries (records hold the full post-change set, so replay
/// is idempotent and order-tolerant).
fn redo_design(engine: &Engine, table: &str, design: &[u8]) -> Result<()> {
    let set = StructureSet::decode(design).ok_or_else(|| {
        EngineError::Recovery(format!("malformed design-change record for {table:?}"))
    })?;
    let entry = table_entry(engine, table)?;
    engine.install_structures(image_of(&entry)?, &set, true)
}

/// Undo an uncommitted insert: tombstone the slot if it currently holds
/// the row (it may already be gone if the transaction deleted it again).
fn undo_insert(engine: &Engine, table: &str, shard: usize, rid: Rid) -> Result<()> {
    with_part(engine, table, shard, |t, pool| {
        if rid.0 < t.heap().len() && !t.is_tombstone(rid).map_err(EngineError::Storage)? {
            t.delete_row(pool, None, rid).map_err(EngineError::Storage)?;
        }
        Ok(())
    })
}

/// Undo an uncommitted delete: reinstate the before-image the record
/// carries.
fn undo_delete(engine: &Engine, table: &str, shard: usize, rid: Rid, row: &Row) -> Result<()> {
    with_part(engine, table, shard, |t, pool| {
        if rid.0 < t.heap().len() && t.is_tombstone(rid).map_err(EngineError::Storage)? {
            t.reinstate_row(pool, rid, row.clone()).map_err(EngineError::Storage)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::CmSpec;
    use cm_storage::{Column, Schema, Value, ValueType};

    fn demo_table() -> Table {
        let schema = Arc::new(Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ]));
        let rows: Vec<Row> =
            (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i * 3 % 7)]).collect();
        let disk = cm_storage::DiskSim::with_defaults();
        Table::build(&disk, schema, rows, 10, 0, 20).unwrap()
    }

    #[test]
    fn structures_roundtrip_through_the_codec() {
        let mut t = demo_table();
        let disk = cm_storage::DiskSim::with_defaults();
        t.add_secondary(&disk, "ix_b", vec![1]);
        t.add_secondary(&disk, "ix_ab", vec![0, 1]);
        t.add_cm("cm_b", CmSpec::single_raw(1));
        let set = StructureSet::of(&t);
        assert_eq!(
            set.btrees,
            vec![("ix_b".to_string(), vec![1]), ("ix_ab".to_string(), vec![0, 1])]
        );
        assert_eq!(set.cms, vec![("cm_b".to_string(), CmSpec::single_raw(1))]);
        assert_eq!(StructureSet::decode(&set.encode()), Some(set));
    }

    #[test]
    fn empty_structure_sets_encode() {
        let set = StructureSet::of(&demo_table());
        assert_eq!(set, StructureSet::default());
        assert_eq!(StructureSet::decode(&set.encode()), Some(set));
    }

    #[test]
    fn malformed_design_bytes_are_rejected() {
        assert!(StructureSet::decode(&[]).is_none());
        assert!(StructureSet::decode(&[1, 0]).is_none(), "truncated b-tree entry");
        let set = StructureSet { btrees: vec![("ix".into(), vec![1])], cms: Vec::new() };
        let mut bytes = set.encode();
        bytes.push(0); // trailing garbage
        assert!(StructureSet::decode(&bytes).is_none());
    }
}
