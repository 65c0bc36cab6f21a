//! Writes: inserts, deletes, and the commit points that make them
//! durable and (under MVCC) visible.
//!
//! Every mutation lands under its shard's write lock and appends its
//! WAL records before that lock drops, so a fuzzy checkpoint's image
//! never holds an unlogged change and per-shard record order is
//! mutation order.

use crate::catalog::{LoadedTable, TableEntry};
use crate::engine::Engine;
use crate::error::{check_query, EngineError};
use crate::read::{LegDone, LegOpts, LegPath};
use crate::Result;
use cm_query::{AccessPath, Query, RunResult, ShardLeg, Table, ALL_PAGES};
use cm_storage::{
    pending_stamp, IoStats, LogPayload, Rid, Row, Snapshot, WalBatch, AUTOCOMMIT_TXN,
};
use std::ops::DerefMut;
use std::sync::atomic::Ordering;

/// Rows a batched insert lands per shard write-lock hold: one hold per
/// chunk amortizes the per-row lock and WAL round-trips without turning
/// a large batch into a single long exclusive hold that stalls every
/// concurrent reader.
const INSERT_CHUNK: usize = 128;

/// Heap pages an MVCC victim search that scans its whole shard reads
/// per shard read-lock hold. The shard lock queues a new reader behind
/// a waiting writer, so a writer waiting out one whole-shard scan would
/// hold every reader behind it for the rest of that scan; between
/// windows the waiting writers, and then the readers, get in.
const SEARCH_WINDOW: u64 = 64;

impl Engine {
    /// INSERT one row, routed to the shard owning its clustered key and
    /// maintaining every access structure there (heap write through the
    /// shard's pool, B+Tree postings charged, CM updates memory-only),
    /// with WAL records appended to the engine log. Call
    /// [`Engine::commit`] to force the log. The returned RID carries the
    /// shard tag.
    pub fn insert(&self, table: &str, row: Row) -> Result<Rid> {
        self.insert_txn(table, row, AUTOCOMMIT_TXN)
    }

    /// [`Engine::insert`] tagged with a session transaction id: a
    /// one-row [`Engine::insert_many_txn`].
    pub(crate) fn insert_txn(&self, table: &str, row: Row, txn: u64) -> Result<Rid> {
        Ok(self.insert_many_txn(table, vec![row], txn)?[0])
    }

    /// INSERT a batch of rows with one shard-lock hold per touched
    /// shard (autocommit).
    pub fn insert_many(&self, table: &str, rows: Vec<Row>) -> Result<Vec<Rid>> {
        self.insert_many_txn(table, rows, AUTOCOMMIT_TXN)
    }

    /// [`Engine::insert_many`] tagged with a session transaction id
    /// (recovery rolls the rows back unless a matching commit record
    /// survives; [`AUTOCOMMIT_TXN`] is always committed).
    ///
    /// Rows are routed to their shards up front, then each shard group
    /// goes through the landing step: heap append with access-structure
    /// maintenance, the MVCC begin stamp, and the typed
    /// [`LogPayload::Insert`] redo record, under a *single* write-lock
    /// acquisition with one WAL batch appended before that lock drops.
    /// Each redo frame is encoded from the borrowed row before the lock
    /// is taken; the hold only writes in the rid the row landed at and
    /// seals the frame's checksum. Row-at-a-time ingest would take the
    /// lock and log once per row, a stream of short exclusive holds that
    /// concurrent readers keep tripping over. Groups larger than
    /// `INSERT_CHUNK` (128) rows release the lock between chunks so a
    /// bulk load never becomes one long exclusive hold. Returned rids
    /// line up with the input row order.
    pub(crate) fn insert_many_txn(
        &self,
        table: &str,
        rows: Vec<Row>,
        txn: u64,
    ) -> Result<Vec<Rid>> {
        let entry = self.entry(table)?;
        for row in &rows {
            entry.schema.validate(row)?;
        }
        let lt = entry.loaded()?;
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); lt.parts.len()];
        for (pos, row) in rows.iter().enumerate() {
            by_shard[lt.router.shard_of_row(row)].push(pos);
        }
        let mut rids: Vec<Rid> = vec![Rid(0); rows.len()];
        for (shard, group) in by_shard.iter().enumerate() {
            let pool = self.backends[shard].pool();
            for chunk in group.chunks(INSERT_CHUNK) {
                let mut batch = WalBatch::new();
                for &pos in chunk {
                    batch.stage_insert(txn, &entry.name, shard as u16, &rows[pos]);
                }
                let mut t = lt.parts[shard].write();
                let mut failed = None;
                for &pos in chunk {
                    let rid = match t.insert_row(pool, Some(&mut batch), &rows[pos]) {
                        Ok(rid) => rid,
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    };
                    if let Some(mv) = &self.mvcc {
                        // Autocommit writes stamp a plain commit timestamp
                        // directly: any snapshot new enough to see it is
                        // still waiting on this shard's write lock.
                        // Session transactions stamp their txn marker,
                        // resolved by the commit table at `log_commit`.
                        let begin =
                            if txn == AUTOCOMMIT_TXN { mv.next_ts() } else { pending_stamp(txn) };
                        t.set_begin_stamp(rid, begin);
                    }
                    batch.seal_staged(rid.0);
                    self.counters.inserts.fetch_add(1, Ordering::Relaxed);
                    rids[pos] = Rid::sharded(shard, rid);
                }
                // The rows that never landed take their frames with them.
                batch.drop_staged();
                // The batch goes to the shared log *before the shard lock
                // drops* — even after a mid-chunk failure: a fuzzy
                // checkpoint snapshots shards under this lock, so every
                // mutation its image can contain must already be logged,
                // and per-shard record order always matches mutation
                // order (redo replays a shard's history exactly as it
                // happened).
                self.wal.append_batch(&batch);
                drop(t);
                if let Some(e) = failed {
                    return Err(e.into());
                }
            }
        }
        entry.profile.lock().note_writes(rows.len() as u64);
        Ok(rids)
    }

    /// DELETE one row by (shard-tagged) RID, retracting it from every
    /// access structure on its shard.
    pub fn delete(&self, table: &str, rid: Rid) -> Result<Row> {
        self.delete_txn(table, rid, AUTOCOMMIT_TXN)
    }

    /// [`Engine::delete`] tagged with a session transaction id. The row
    /// goes through the same remove-and-log step as a `delete_where`
    /// leg: its record is a one-victim [`LogPayload::DeleteSet`]
    /// carrying the before-image, so recovery can undo the delete when
    /// `txn` never committed.
    pub(crate) fn delete_txn(&self, table: &str, rid: Rid, txn: u64) -> Result<Row> {
        let entry = self.entry(table)?;
        let lt = entry.loaded()?;
        let shard = rid.shard_index();
        let bad_rid = || EngineError::BadRid { table: entry.name.clone(), rid: rid.0 };
        if shard >= lt.parts.len() {
            return Err(bad_rid());
        }
        let t = lt.parts[shard].write();
        if !t.is_current(rid.local()) {
            return Err(bad_rid());
        }
        let end = match &self.mvcc {
            Some(mv) if txn == AUTOCOMMIT_TXN => mv.next_ts(),
            _ => pending_stamp(txn),
        };
        let removed = self.remove_and_log(&entry, t, shard, &[rid.local()], end, txn)?;
        Ok(removed.into_iter().next().expect("a live row is removed").1)
    }

    /// The delete pipeline's **remove-and-log** step, under the shard's
    /// write lock `t`. A victim whose version has already ended — another
    /// writer deleted it, or its slot holds no row — is skipped, so a
    /// delete never clobbers a concurrent one. With MVCC each victim's
    /// version is end-stamped with `end`: its heap bytes and
    /// access-structure entries stay for older snapshots until vacuum
    /// reclaims them. Without MVCC the victim leaves the heap and every
    /// access structure, with the maintenance volume priced into the
    /// batch. The removed rows' [`LogPayload::DeleteSet`], encoded from
    /// the borrowed rows and table name, reaches the log under `txn`
    /// before the lock drops (the insert path's fuzzy-checkpoint
    /// ordering guarantee); then they are counted. Returns each removed
    /// victim's local rid and before-image, in `victims` order.
    fn remove_and_log(
        &self,
        entry: &TableEntry,
        mut t: impl DerefMut<Target = Table>,
        shard: usize,
        victims: &[Rid],
        end: u64,
        txn: u64,
    ) -> Result<Vec<(u64, Row)>> {
        let pool = self.backends[shard].pool();
        let mut batch = WalBatch::new();
        let mut removed = Vec::with_capacity(victims.len());
        for &rid in victims {
            if !t.is_current(rid) {
                continue;
            }
            let row = if self.mvcc.is_some() {
                t.end_version(pool, rid, end)?
            } else {
                t.delete_row(pool, Some(&mut batch), rid)?
            };
            removed.push((rid.0, row));
        }
        if !removed.is_empty() {
            batch.push_delete_set(txn, &entry.name, shard as u16, &removed);
        }
        self.wal.append_batch(&batch);
        drop(t);
        self.note_deletes(entry, removed.len() as u64);
        Ok(removed)
    }

    /// Count `n` deleted rows: engine stats, the table's write profile,
    /// and (MVCC) the auto-vacuum trigger.
    fn note_deletes(&self, entry: &TableEntry, n: u64) {
        self.counters.deletes.fetch_add(n, Ordering::Relaxed);
        if self.mvcc.is_some() {
            self.gc_deletes.fetch_add(n, Ordering::Relaxed);
        }
        entry.profile.lock().note_writes(n);
    }

    /// One [`Engine::delete_where`] leg: find the victims through the
    /// leg pipeline, then run the remove-and-log step. Without MVCC the
    /// search runs under the shard write lock and the removal follows in
    /// the same hold. With MVCC it runs at a fresh snapshot under the read
    /// lock, a full scan [`SEARCH_WINDOW`] heap pages a hold (concurrent
    /// readers and writers get in between windows), then a brief write lock
    /// end-stamps the victims with `txn`'s pending mark. Either way the
    /// leg's [`LogPayload::DeleteSet`] reaches the log before its write
    /// lock drops, victims in rid order: whichever path found them, the
    /// record is the one a full sweep would write.
    fn delete_leg(
        &self,
        entry: &TableEntry,
        lt: &LoadedTable,
        leg: &mut ShardLeg,
        txn: u64,
    ) -> Result<LegDone<Vec<Rid>>> {
        let part = &lt.parts[leg.shard];
        let mut victims: Vec<Rid> = Vec::new();
        let mut find = |t: &Table, leg: &mut ShardLeg, snap: Option<&Snapshot>, pages| {
            let how = LegOpts { path: LegPath::Planned, cold: false, snap, pages };
            self.run_leg(t, leg, &how, |page, sel| {
                victims.extend(sel.iter().map(|&s| page.rid(s)));
            })
        };
        let (t, (path, run)) = match &self.mvcc {
            Some(mv) => {
                // The snapshot pins what the search sees: the versions it
                // sees outlive vacuum, and pages appended after the first
                // hold hold no row it sees. Index and CM paths read only
                // near their matches and keep one hold; a full scan reads
                // the whole shard, a window a hold. The runs add up; the
                // path tallied is the last hold's, as `leg.choice` is.
                let snap = mv.begin();
                let (mut lo, mut step, mut end) = (0, u64::MAX, 0);
                let mut found: Option<(AccessPath, RunResult)> = None;
                loop {
                    let t = part.read();
                    if found.is_none() {
                        end = t.heap().num_pages();
                        if self.planner.choose(&t, &leg.query).path == AccessPath::FullScan {
                            step = SEARCH_WINDOW;
                        }
                    }
                    let (path, mut run) = find(&t, leg, Some(&snap), lo..lo.saturating_add(step))?;
                    if let Some((_, before)) = &found {
                        run.add(before);
                    }
                    found = Some((path, run));
                    lo = lo.saturating_add(step);
                    if lo >= end {
                        break;
                    }
                }
                (part.write(), found.expect("one hold at least"))
            }
            None => {
                let t = part.write();
                let found = find(&t, leg, None, ALL_PAGES)?;
                (t, found)
            }
        };
        victims.sort_unstable();
        let removed =
            self.remove_and_log(entry, t, leg.shard, &victims, pending_stamp(txn), txn)?;
        let tagged = removed.iter().map(|&(local, _)| Rid::sharded(leg.shard, Rid(local)));
        Ok((path, run, tagged.collect()))
    }

    /// DELETE every row matching `q`; returns the victims' shard-tagged
    /// RIDs, in shard order. The victims are found the way a read finds
    /// its rows — each overlapping shard's leg through its planned
    /// access path, a B+Tree or CM on the predicated column included —
    /// and the legs fan out on the worker pool like a read's: each holds
    /// only its own shard's locks, so a multi-shard purge doesn't
    /// serialize its searches. The predicate counts as read traffic in
    /// the table's workload profile.
    pub fn delete_where(&self, table: &str, q: &Query) -> Result<Vec<Rid>> {
        self.delete_where_txn(table, q, AUTOCOMMIT_TXN)
    }

    /// [`Engine::delete_where`] tagged with a session transaction id:
    /// each shard leg logs one [`LogPayload::DeleteSet`] record carrying
    /// its victims' before-images under `txn`.
    pub(crate) fn delete_where_txn(&self, table: &str, q: &Query, txn: u64) -> Result<Vec<Rid>> {
        // An MVCC autocommit purge spans shards, so it cannot use plain
        // timestamps (a snapshot taken between two legs would see a torn
        // half-delete). It borrows an internal transaction instead: legs
        // stamp its pending mark, and visibility flips atomically at the
        // commit record appended below once every leg succeeded. On a leg
        // error the commit never happens — the stamps stay unresolvable
        // (invisible as deletes) and recovery rolls the log records back.
        // Legs that succeeded have already counted their victims.
        let entry = self.entry(table)?;
        check_query(table, entry.schema.arity(), q)?;
        let lt = entry.loaded()?;
        self.profile_read(&entry, lt, q);
        let (txn, implicit) = match &self.mvcc {
            Some(_) if txn == AUTOCOMMIT_TXN => (self.alloc_txn(), true),
            _ => (txn, false),
        };
        let merged =
            self.fan_out(self.route(lt, q), true, |leg| self.delete_leg(&entry, lt, leg, txn));
        if implicit {
            match &merged {
                Ok(_) => self.log_commit(txn),
                Err(_) => self.abandon_txn(txn),
            }
        }
        Ok(merged?.outs.concat())
    }

    /// Make every appended WAL record durable (group commit point);
    /// returns the I/O this call charged — zero when a concurrent
    /// leader's flush covered it. May also trigger an automatic fuzzy
    /// checkpoint when [`EngineConfig::checkpoint_every`](crate::EngineConfig::checkpoint_every)
    /// records have accumulated since the last one.
    pub fn commit(&self) -> IoStats {
        let io = self.wal.commit();
        self.maybe_checkpoint();
        self.maybe_vacuum();
        io
    }

    /// Allocate a fresh transaction id for a session's write batch and
    /// count it open with group commit, which lets other committers
    /// linger for it until [`Engine::log_commit`] or
    /// [`Engine::abandon_txn`] closes it. Ids are never reused;
    /// [`AUTOCOMMIT_TXN`] (0) is reserved for writes that commit
    /// implicitly.
    pub(crate) fn alloc_txn(&self) -> u64 {
        self.wal.open_txn();
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Close a transaction that will never commit (its session was
    /// dropped, or an implicit purge failed), so no committer lingers
    /// for it. Its records stay uncommitted: recovery rolls them back.
    pub(crate) fn abandon_txn(&self, txn: u64) {
        if txn != AUTOCOMMIT_TXN {
            self.wal.close_txn();
        }
    }

    /// Append a commit record for `txn` (no-op for [`AUTOCOMMIT_TXN`]).
    /// Durability still requires a subsequent [`Engine::commit`] flush.
    ///
    /// Under MVCC this is also the *visibility* point: the transaction
    /// gets its commit timestamp from the global clock, the commit
    /// table resolves the transaction's pending stamps, and the record
    /// carries the timestamp so recovery can restore the clock.
    /// Non-MVCC engines log `ts = 0`.
    ///
    /// The transaction stops counting as open here, before the flush:
    /// a committer then waits for company only while some *other*
    /// transaction is open.
    pub fn log_commit(&self, txn: u64) {
        if txn != AUTOCOMMIT_TXN {
            let ts = match &self.mvcc {
                Some(mv) => mv.commit_txn(txn),
                None => 0,
            };
            self.wal.log(txn, &LogPayload::Commit { ts });
            self.wal.close_txn();
            self.maybe_vacuum();
        }
    }

    /// The durable (flushed) prefix of the framed WAL stream — what a
    /// crash after the last commit would leave behind.
    pub fn durable_log(&self) -> Vec<u8> {
        self.wal.durable_log()
    }

    /// The entire appended WAL stream, including the not-yet-durable
    /// tail. Crash simulations cut this at arbitrary byte offsets.
    pub fn appended_log(&self) -> Vec<u8> {
        self.wal.appended_log()
    }
}
