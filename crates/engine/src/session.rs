//! Per-connection session handles.
//!
//! A [`Session`] is a cheap clone-of-`Arc` view of the engine with
//! per-session statistics and an optional cold-read mode (queries charge
//! straight to the disk instead of through the shared buffer pool —
//! the paper's flushed-cache methodology). Sessions are `Send`, so a
//! workload driver hands one to each thread.

use crate::engine::Engine;
use crate::read::QueryOutcome;
use crate::Result;
use cm_core::CmSpec;
use cm_query::{AccessPath, Query, QueryPlan};
use cm_storage::{IoStats, Rid, Row};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-session activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries executed through this session.
    pub queries: u64,
    /// Rows inserted through this session.
    pub inserts: u64,
    /// Rows deleted through this session.
    pub deletes: u64,
}

/// A connection-like handle over a shared [`Engine`].
pub struct Session {
    engine: Arc<Engine>,
    cold_reads: bool,
    /// The open transaction's id, or 0 ([`cm_storage::AUTOCOMMIT_TXN`])
    /// when no write has happened since the last commit. Allocated
    /// lazily by the first write so read-only sessions never burn ids.
    txn: AtomicU64,
    queries: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
}

impl Session {
    pub(crate) fn new(engine: Arc<Engine>) -> Self {
        Session {
            engine,
            cold_reads: false,
            txn: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        }
    }

    /// The transaction id tagging this session's WAL records since its
    /// last commit, if a write has opened one. Recovery rolls these
    /// records back unless the commit record made it to the log.
    pub fn txn_id(&self) -> Option<u64> {
        match self.txn.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// The open transaction's id, allocating one on the first write.
    fn write_txn(&self) -> u64 {
        let t = self.txn.load(Ordering::Relaxed);
        if t != 0 {
            return t;
        }
        let fresh = self.engine.alloc_txn();
        self.txn.store(fresh, Ordering::Relaxed);
        fresh
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Charge this session's reads straight to the disk instead of
    /// through the shared buffer pool (cache-flushed experiment mode).
    pub fn set_cold_reads(&mut self, cold: bool) {
        self.cold_reads = cold;
    }

    /// Execute a query, cost-routed to the cheapest access path.
    pub fn execute(&self, table: &str, q: &Query) -> Result<QueryOutcome> {
        self.count_query(self.engine.execute_inner(table, q, None, false, self.cold_reads))
    }

    /// [`Session::execute`], collecting the matching rows.
    pub fn execute_collect(&self, table: &str, q: &Query) -> Result<QueryOutcome> {
        self.count_query(self.engine.execute_inner(table, q, None, true, self.cold_reads))
    }

    /// Execute through a specific access path.
    pub fn execute_via(
        &self,
        table: &str,
        path: AccessPath,
        q: &Query,
    ) -> Result<QueryOutcome> {
        self.count_query(self.engine.execute_inner(table, q, Some(path), false, self.cold_reads))
    }

    /// [`Session::execute_via`], collecting the matching rows.
    pub fn execute_via_collect(
        &self,
        table: &str,
        path: AccessPath,
        q: &Query,
    ) -> Result<QueryOutcome> {
        self.count_query(self.engine.execute_inner(table, q, Some(path), true, self.cold_reads))
    }

    /// The planner's per-leg decisions for a query, without executing it.
    pub fn explain(&self, table: &str, q: &Query) -> Result<QueryPlan> {
        self.engine.explain(table, q)
    }

    /// INSERT one row (logged under this session's open transaction).
    pub fn insert(&self, table: &str, row: Row) -> Result<Rid> {
        let r = self.engine.insert_txn(table, row, self.write_txn());
        if r.is_ok() {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// INSERT a batch, committing the WAL once at the end (group
    /// commit). Like [`Engine::insert_many`], the batch holds each
    /// touched shard's write lock once for its whole group instead of
    /// once per row — concurrent readers see one short exclusive hold
    /// per shard, not a stream of them.
    pub fn insert_many(&self, table: &str, rows: Vec<Row>) -> Result<Vec<Rid>> {
        let n = rows.len() as u64;
        let rids = self.engine.insert_many_txn(table, rows, self.write_txn())?;
        self.inserts.fetch_add(n, Ordering::Relaxed);
        self.commit();
        Ok(rids)
    }

    /// DELETE one row by RID (logged under this session's open
    /// transaction).
    pub fn delete(&self, table: &str, rid: Rid) -> Result<Row> {
        let r = self.engine.delete_txn(table, rid, self.write_txn());
        if r.is_ok() {
            self.deletes.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// DELETE every row matching `q` (logged under this session's open
    /// transaction).
    pub fn delete_where(&self, table: &str, q: &Query) -> Result<Vec<Rid>> {
        let victims = self.engine.delete_where_txn(table, q, self.write_txn())?;
        self.deletes.fetch_add(victims.len() as u64, Ordering::Relaxed);
        Ok(victims)
    }

    /// Create a Correlation Map on the session's engine.
    pub fn create_cm(&self, table: &str, name: impl Into<String>, spec: CmSpec) -> Result<usize> {
        self.engine.create_cm(table, name, spec)
    }

    /// Create a secondary B+Tree on the session's engine.
    pub fn create_btree(
        &self,
        table: &str,
        name: impl Into<String>,
        cols: Vec<usize>,
    ) -> Result<usize> {
        self.engine.create_btree(table, name, cols)
    }

    /// Commit this session's open transaction: append its commit record
    /// (making its writes survive recovery) and force the engine WAL.
    /// The next write opens a fresh transaction.
    ///
    /// With no buffered writes there is nothing to make durable, so the
    /// call is a true no-op: no commit record, no WAL flush, no I/O.
    pub fn commit(&self) -> IoStats {
        let t = self.txn.swap(0, Ordering::Relaxed);
        if t == 0 {
            return IoStats::default();
        }
        self.engine.log_commit(t);
        self.engine.commit()
    }

    /// Count one successful query (failed operations are not activity).
    fn count_query(&self, r: Result<QueryOutcome>) -> Result<QueryOutcome> {
        if r.is_ok() {
            self.queries.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// This session's activity counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Session {
    /// A transaction left open never commits (recovery rolls it back);
    /// close it so later commits do not linger for it.
    fn drop(&mut self) {
        self.engine.abandon_txn(*self.txn.get_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use cm_query::Pred;
    use cm_storage::{Column, Schema, Value, ValueType};

    fn engine_with_table() -> Arc<Engine> {
        let engine = Engine::new(EngineConfig::default());
        let schema = Arc::new(Schema::new(vec![
            Column::new("k", ValueType::Int),
            Column::new("v", ValueType::Int),
        ]));
        engine.create_table("t", schema, 0, 16, 64).unwrap();
        let rows: Vec<Row> =
            (0..2000i64).map(|i| vec![Value::Int(i % 40), Value::Int(i)]).collect();
        engine.load("t", rows).unwrap();
        engine
    }

    #[test]
    fn session_tracks_its_own_stats() {
        let engine = engine_with_table();
        let s1 = engine.session();
        let s2 = engine.session();
        s1.execute("t", &Query::single(Pred::eq(0, 1i64))).unwrap();
        s1.insert("t", vec![Value::Int(40), Value::Int(9999)]).unwrap();
        s2.execute("t", &Query::single(Pred::eq(0, 2i64))).unwrap();
        assert_eq!(s1.stats(), SessionStats { queries: 1, inserts: 1, deletes: 0 });
        assert_eq!(s2.stats(), SessionStats { queries: 1, inserts: 0, deletes: 0 });
        assert_eq!(engine.stats().queries, 2);
        assert_eq!(engine.stats().inserts, 1);
    }

    #[test]
    fn concurrent_sessions_see_consistent_data() {
        let engine = engine_with_table();
        engine.create_cm("t", "v_cm", CmSpec::single_pow2(1, 3)).unwrap();
        std::thread::scope(|scope| {
            // Writers append rows with v >= 100_000 in distinct key space.
            for w in 0..2i64 {
                let session = engine.session();
                scope.spawn(move || {
                    for i in 0..200 {
                        session
                            .insert("t", vec![Value::Int(50 + w), Value::Int(100_000 + w * 1000 + i)])
                            .unwrap();
                    }
                    session.commit();
                });
            }
            // Readers keep querying the preloaded key range; every row of
            // a preloaded key is already present, so counts only grow.
            for r in 0..3i64 {
                let session = engine.session();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let out = session
                            .execute("t", &Query::single(Pred::eq(0, r)))
                            .unwrap();
                        assert_eq!(out.run.matched, 50, "preloaded keys are stable");
                    }
                });
            }
        });
        // All writer rows arrived.
        let out = engine
            .execute("t", &Query::single(Pred::between(1, 100_000i64, 200_000i64)))
            .unwrap();
        assert_eq!(out.run.matched, 400);
        assert_eq!(engine.stats().inserts, 400);
    }

    #[test]
    fn failed_operations_are_not_counted() {
        let engine = engine_with_table();
        let session = engine.session();
        assert!(session.execute("no_such_table", &Query::default()).is_err());
        assert!(session.insert("no_such_table", vec![]).is_err());
        assert_eq!(session.stats(), SessionStats::default());
    }

    #[test]
    fn insert_many_group_commits() {
        let engine = engine_with_table();
        let session = engine.session();
        let before = engine.stats().wal_durable_bytes;
        let rows: Vec<Row> =
            (0..100i64).map(|i| vec![Value::Int(41), Value::Int(10_000 + i)]).collect();
        session.insert_many("t", rows).unwrap();
        assert!(engine.stats().wal_durable_bytes > before, "WAL flushed");
        assert_eq!(session.stats().inserts, 100);
    }

    #[test]
    fn empty_commit_is_a_true_noop() {
        let engine = engine_with_table();
        let session = engine.session();
        // Reads never open a transaction.
        session.execute("t", &Query::single(Pred::eq(0, 1i64))).unwrap();
        let records = engine.stats().wal_records;
        let durable = engine.stats().wal_durable_bytes;
        let flushes = engine.wal_stats().flushes;
        let io = session.commit();
        assert_eq!(io, IoStats::default(), "no write buffered: no I/O charged");
        let s = engine.stats();
        assert_eq!(s.wal_records, records, "no commit record appended");
        assert_eq!(s.wal_durable_bytes, durable, "nothing flushed");
        assert_eq!(engine.wal_stats().flushes, flushes, "no group-commit round");
        // A session that wrote still commits normally afterwards.
        session.insert("t", vec![Value::Int(1), Value::Int(77_000)]).unwrap();
        session.commit();
        assert!(engine.stats().wal_records > records);
        // And its next commit, with the transaction closed, is a no-op
        // again.
        let durable = engine.stats().wal_durable_bytes;
        assert_eq!(session.commit(), IoStats::default());
        assert_eq!(engine.stats().wal_durable_bytes, durable);
    }

    #[test]
    fn lone_session_commits_without_lingering() {
        let engine = engine_with_table();
        let session = engine.session();
        for i in 0..1000i64 {
            session.insert("t", vec![Value::Int(i % 40), Value::Int(200_000 + i)]).unwrap();
            assert!(session.commit().page_writes >= 1, "each commit flushes its own record");
        }
        let wal = engine.wal_stats();
        assert_eq!(wal.lingered, 0, "nobody else was open to wait for: {wal:?}");
        assert_eq!(wal.flushes, 1000, "{wal:?}");
        assert_eq!(engine.stats().wal.lingered, 0);
    }

    #[test]
    fn dropped_open_session_leaves_no_one_to_wait_for() {
        let engine = engine_with_table();
        let leaked = engine.session();
        leaked.insert("t", vec![Value::Int(1), Value::Int(300_000)]).unwrap();
        assert!(leaked.txn_id().is_some());
        drop(leaked);
        let session = engine.session();
        for i in 0..10i64 {
            session.insert("t", vec![Value::Int(2), Value::Int(300_001 + i)]).unwrap();
            session.commit();
        }
        assert_eq!(engine.wal_stats().lingered, 0, "{:?}", engine.wal_stats());
    }

    #[test]
    fn open_sibling_makes_a_commit_linger() {
        let engine = engine_with_table();
        let (a, b) = (engine.session(), engine.session());
        b.insert("t", vec![Value::Int(3), Value::Int(400_000)]).unwrap();
        a.insert("t", vec![Value::Int(3), Value::Int(400_001)]).unwrap();
        a.commit();
        assert_eq!(engine.wal_stats().lingered, 1, "b was open: a waited for it");
        b.commit();
        assert_eq!(engine.wal_stats().lingered, 1, "nobody open: b flushed at once");
    }

    #[test]
    fn cold_reads_bypass_the_pool() {
        let engine = engine_with_table();
        let mut session = engine.session();
        session.set_cold_reads(true);
        let q = Query::single(Pred::eq(0, 5i64));
        let first = session.execute("t", &q).unwrap();
        let second = session.execute("t", &q).unwrap();
        // No pool warming: repeats cost the same.
        assert!((first.run.ms() - second.run.ms()).abs() < 1e-9);
    }
}
