//! Group commit over the write-ahead log.
//!
//! Every committed transaction must have its log records on disk, but
//! nothing says each transaction needs its *own* flush: a single tail
//! write can make many sessions' records durable at once (the classic
//! group commit of System R descendants, and what PostgreSQL's
//! `commit_delay` buys). [`GroupCommitWal`] wraps a [`Wal`] with that
//! protocol: sessions append records as before, and concurrent
//! [`GroupCommitWal::commit`] calls elect one leader that flushes the
//! combined tail while the followers are absorbed for free.
//!
//! Waiting for company only pays when company can come. Like
//! PostgreSQL's `commit_siblings`, the wrapper counts open transactions
//! ([`GroupCommitWal::open_txn`] / [`GroupCommitWal::close_txn`]) and a
//! committer lingers only while another one is open; a lone committer
//! flushes at once.

use crate::disk::IoStats;
use crate::logrec::{LogPayload, Lsn};
use crate::wal::Wal;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Condvar;
use std::time::Duration;

/// Batching knobs for [`GroupCommitWal`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// A commit leads (flushes) immediately once this many sessions are
    /// waiting to commit. `1` disables grouping: every commit flushes.
    pub max_batch: usize,
    /// How long a committer lingers for company before flushing anyway.
    /// It lingers only while another transaction is open (see
    /// [`GroupCommitWal::open_txn`]). `Duration::ZERO` disables
    /// lingering.
    pub linger: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        // A small batch and a sub-millisecond linger: enough to merge
        // concurrent committers. The linger is a real latency tax (the
        // whole 200 µs plus timer overshoot: ~260 µs per commit on a
        // 2-core Linux VM), so only commits with another transaction
        // open, which can bring company, pay it.
        GroupCommitConfig { max_batch: 4, linger: Duration::from_micros(200) }
    }
}

impl GroupCommitConfig {
    /// Flush on every commit (no grouping) — the pre-group-commit
    /// behaviour, kept for comparisons.
    pub fn per_commit() -> Self {
        GroupCommitConfig { max_batch: 1, linger: Duration::ZERO }
    }
}

/// Counters describing group-commit behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// `commit` calls observed.
    pub commit_requests: u64,
    /// Commits that found their records already durable (merged into an
    /// earlier or concurrent flush) and did no I/O.
    pub absorbed: u64,
    /// Leader flushes that actually wrote log pages.
    pub flushes: u64,
    /// Log pages written by those flushes.
    pub pages_flushed: u64,
    /// Commits that waited for company (another transaction was open
    /// and no quorum had formed yet).
    pub lingered: u64,
}

impl GroupCommitStats {
    /// `self - earlier`, for snapshot-delta reporting.
    pub fn since(&self, earlier: &GroupCommitStats) -> GroupCommitStats {
        GroupCommitStats {
            commit_requests: self.commit_requests - earlier.commit_requests,
            absorbed: self.absorbed - earlier.absorbed,
            flushes: self.flushes - earlier.flushes,
            pages_flushed: self.pages_flushed - earlier.pages_flushed,
            lingered: self.lingered - earlier.lingered,
        }
    }
}

struct GcState {
    /// Record count (monotone, from [`Wal::records`]) known durable.
    durable: u64,
    /// A leader is currently flushing.
    flushing: bool,
    /// Committers lingering for company.
    lingering: usize,
    /// Transactions opened and not yet closed: the company a lingering
    /// committer can still get.
    open: usize,
    stats: GroupCommitStats,
}

/// A [`Wal`] with leader-elected batched commits.
pub struct GroupCommitWal {
    wal: Mutex<Wal>,
    /// [`Wal::records`] after the most recent append batch — the commit
    /// horizon a `commit` call must make durable.
    appended: AtomicU64,
    state: Mutex<GcState>,
    cond: Condvar,
    cfg: GroupCommitConfig,
}

impl GroupCommitWal {
    /// Wrap a log with the given batching knobs. A wrapped log with no
    /// pending bytes starts fully durable; one with a pending tail will
    /// be flushed by the first commit.
    pub fn new(wal: Wal, cfg: GroupCommitConfig) -> Self {
        let durable = if wal.pending_bytes() == 0 { wal.records() } else { 0 };
        GroupCommitWal {
            appended: AtomicU64::new(wal.records()),
            wal: Mutex::new(wal),
            state: Mutex::new(GcState {
                durable,
                flushing: false,
                lingering: 0,
                open: 0,
                stats: GroupCommitStats::default(),
            }),
            cond: Condvar::new(),
            cfg,
        }
    }

    /// The configured batching knobs.
    pub fn config(&self) -> GroupCommitConfig {
        self.cfg
    }

    /// Run `f` with exclusive access to the underlying log (the append
    /// path: writers log their records inside one such critical
    /// section). The commit horizon advances when `f` returns. Prefer
    /// [`GroupCommitWal::append_batch`] for maintenance work: gather the
    /// encoded frames and priced volume outside the lock, then append
    /// them here in one short critical section.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        let mut wal = self.wal.lock();
        let out = f(&mut wal);
        self.appended.store(wal.records(), Ordering::Release);
        out
    }

    /// Append a batch of records gathered off-lock (see
    /// [`crate::WalBatch`]); the log lock is held only for the appends.
    pub fn append_batch(&self, batch: &crate::WalBatch) {
        if batch.is_empty() {
            return;
        }
        self.with_wal(|w| batch.append_into(w));
    }

    /// Append one typed record and return its LSN.
    pub fn log(&self, txn: u64, payload: &LogPayload) -> Lsn {
        self.with_wal(|w| w.log(txn, payload))
    }

    /// Records appended since creation. Reads the commit horizon, so
    /// it never waits on the log lock.
    pub fn records(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Bytes of the frame stream made durable so far.
    pub fn durable_bytes(&self) -> u64 {
        self.wal.lock().durable_bytes()
    }

    /// Bytes of the frame stream appended so far (durable or not).
    pub fn appended_bytes(&self) -> u64 {
        self.wal.lock().appended_bytes()
    }

    /// The durable prefix of the framed record stream (see
    /// [`Wal::durable_log`]).
    pub fn durable_log(&self) -> Vec<u8> {
        self.wal.lock().durable_log()
    }

    /// The full appended stream including the pending tail (see
    /// [`Wal::appended_log`]).
    pub fn appended_log(&self) -> Vec<u8> {
        self.wal.lock().appended_log()
    }

    /// Group-commit behaviour counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.state.lock().stats
    }

    /// Count a transaction as open. Until its
    /// [`GroupCommitWal::close_txn`], other committers may linger for it
    /// to commit too. Autocommit writes never open one.
    pub fn open_txn(&self) {
        self.state.lock().open += 1;
    }

    /// Count an open transaction as closed: it appended its commit
    /// record (its own `commit` follows), or it will never commit.
    /// Closing the last open transaction releases lingering committers
    /// to flush at once. An unmatched close is ignored.
    pub fn close_txn(&self) {
        let mut st = self.state.lock();
        st.open = st.open.saturating_sub(1);
        if st.open == 0 && st.lingering > 0 {
            drop(st);
            self.cond.notify_all();
        }
    }

    /// Make every record appended so far durable; returns the I/O this
    /// call charged (zero when an earlier or concurrent flush already
    /// covered it).
    ///
    /// Concurrent callers elect a leader: the first to find no flush in
    /// flight lingers up to [`GroupCommitConfig::linger`] (or until
    /// [`GroupCommitConfig::max_batch`] committers are waiting), then
    /// flushes the combined tail once. It lingers only while another
    /// transaction is open: with none, nobody can join its flush, so it
    /// leads at once. Followers whose records the flush covered return
    /// without touching the disk.
    pub fn commit(&self) -> IoStats {
        let target = self.appended.load(Ordering::Acquire);
        let mut st = self.state.lock();
        st.stats.commit_requests += 1;
        loop {
            if st.durable >= target {
                st.stats.absorbed += 1;
                return IoStats::default();
            }
            if st.flushing {
                st = match self.cond.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                continue;
            }
            // No flush in flight: lead now, or linger for company, which
            // only a transaction still open can bring.
            let quorum = st.lingering + 1 >= self.cfg.max_batch;
            if quorum || st.open == 0 || self.cfg.linger.is_zero() {
                break;
            }
            st.lingering += 1;
            st.stats.lingered += 1;
            // Lingerers count toward the next arrival's quorum check and
            // are released by the flush it leads, by the last open
            // transaction closing, or by the linger expiring.
            let (g, _timeout) = match self.cond.wait_timeout(st, self.cfg.linger) {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            };
            st = g;
            st.lingering -= 1;
            if st.durable >= target {
                st.stats.absorbed += 1;
                return IoStats::default();
            }
            if st.flushing {
                continue;
            }
            break;
        }
        st.flushing = true;
        drop(st);

        let (covered, io) = {
            let mut wal = self.wal.lock();
            let covered = wal.records();
            (covered, wal.commit())
        };

        let mut st = self.state.lock();
        st.durable = st.durable.max(covered);
        st.flushing = false;
        if io.page_writes > 0 {
            st.stats.flushes += 1;
            st.stats.pages_flushed += io.page_writes;
        }
        drop(st);
        self.cond.notify_all();
        io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::LogWrite;
    use std::sync::Barrier;

    fn gc(cfg: GroupCommitConfig) -> (std::sync::Arc<DiskSim>, GroupCommitWal) {
        let disk = DiskSim::with_defaults();
        (disk.clone(), GroupCommitWal::new(Wal::new(disk), cfg))
    }

    #[test]
    fn repeat_commit_with_no_new_records_is_absorbed() {
        let (disk, gc) = gc(GroupCommitConfig::per_commit());
        gc.with_wal(|w| w.append_sized(6));
        let io1 = gc.commit();
        assert_eq!(io1.page_writes, 1);
        let before = disk.stats();
        let io2 = gc.commit();
        assert_eq!(io2, IoStats::default());
        assert_eq!(disk.stats(), before);
        let s = gc.stats();
        assert_eq!(s.commit_requests, 2);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.absorbed, 1);
        assert_eq!(s.pages_flushed, 1);
    }

    #[test]
    fn commit_on_empty_log_is_free() {
        let (disk, gc) = gc(GroupCommitConfig::default());
        assert_eq!(gc.commit(), IoStats::default());
        assert_eq!(disk.stats(), IoStats::default());
        assert_eq!(gc.stats().absorbed, 1);
    }

    #[test]
    fn concurrent_commits_share_flushes() {
        let (_disk, gc) = gc(GroupCommitConfig {
            max_batch: 4,
            linger: Duration::from_millis(20),
        });
        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let gc = &gc;
                let barrier = &barrier;
                scope.spawn(move || {
                    // Every transaction is open before any commits, so
                    // early committers have company to wait for.
                    gc.open_txn();
                    barrier.wait();
                    gc.with_wal(|w| w.append_sized(64 + t));
                    gc.close_txn();
                    gc.commit();
                });
            }
        });
        let s = gc.stats();
        assert_eq!(s.commit_requests, threads as u64);
        assert_eq!(
            s.flushes + s.absorbed,
            threads as u64,
            "every commit either flushed or was absorbed: {s:?}"
        );
        assert!(s.flushes >= 1, "someone flushed");
        assert!(s.flushes < s.commit_requests, "commits shared flushes: {s:?}");
        assert!(s.lingered >= 1, "an early committer waited for company: {s:?}");
        // All records are durable afterwards.
        assert_eq!(gc.commit(), IoStats::default(), "nothing left to flush");
    }

    #[test]
    fn lone_committer_never_lingers() {
        // A linger long enough that any wait would show in the test time.
        let (_disk, gc) = gc(GroupCommitConfig { max_batch: 4, linger: Duration::from_secs(5) });
        let started = std::time::Instant::now();
        for _ in 0..50 {
            gc.open_txn();
            gc.with_wal(|w| w.append_sized(8));
            gc.close_txn();
            gc.commit();
            // Autocommit writes open nothing and do not wait either.
            gc.with_wal(|w| w.append_sized(8));
            gc.commit();
        }
        let s = gc.stats();
        assert_eq!(s.lingered, 0, "{s:?}");
        assert_eq!(s.flushes, 100, "every commit led its own flush: {s:?}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn commit_lingers_while_another_txn_is_open() {
        let (_disk, gc) =
            gc(GroupCommitConfig { max_batch: 4, linger: Duration::from_millis(1) });
        gc.open_txn();
        gc.with_wal(|w| w.append_sized(8));
        // The open transaction never commits: the linger runs out and
        // the committer flushes alone.
        assert_eq!(gc.commit().page_writes, 1);
        let s = gc.stats();
        assert_eq!((s.lingered, s.flushes), (1, 1), "{s:?}");
        // Once it closes, nobody is left to wait for.
        gc.close_txn();
        gc.with_wal(|w| w.append_sized(8));
        gc.commit();
        assert_eq!(gc.stats().lingered, 1);
        // An unmatched close leaves the count at zero, not wrapped.
        gc.close_txn();
        gc.with_wal(|w| w.append_sized(8));
        gc.commit();
        assert_eq!(gc.stats().lingered, 1);
    }

    #[test]
    fn closing_the_last_open_txn_releases_a_lingerer() {
        // The linger is far longer than the test may take: only the
        // close can end the wait.
        let (_disk, gc) = gc(GroupCommitConfig { max_batch: 4, linger: Duration::from_secs(60) });
        gc.open_txn();
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            let gc = &gc;
            scope.spawn(move || {
                gc.with_wal(|w| w.append_sized(8));
                gc.commit();
            });
            while gc.stats().lingered == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            gc.close_txn();
        });
        assert!(started.elapsed() < Duration::from_secs(60));
        let s = gc.stats();
        assert_eq!((s.lingered, s.flushes), (1, 1), "{s:?}");
    }

    #[test]
    fn records_reads_the_commit_horizon() {
        let (_disk, gc) = gc(GroupCommitConfig::default());
        let agree = |gc: &GroupCommitWal| assert_eq!(gc.records(), gc.with_wal(|w| w.records()));
        agree(&gc);
        gc.with_wal(|w| w.append_sized(4));
        agree(&gc);
        gc.log(7, &LogPayload::Commit { ts: 0 });
        agree(&gc);
        let mut batch = crate::WalBatch::new();
        batch.push_delete_set(7, "t", 0, &[(1, vec![crate::Value::Int(1)])]);
        batch.append_sized(32);
        gc.append_batch(&batch);
        agree(&gc);
        assert_eq!(gc.records(), 4);
    }

    #[test]
    fn wrapping_an_already_durable_wal_starts_absorbed() {
        // Regression: a wrapped log whose records were already flushed
        // must not trigger a phantom leader flush that breaks the
        // commit_requests == flushes + absorbed invariant.
        let disk = DiskSim::with_defaults();
        let mut wal = Wal::new(disk.clone());
        wal.append_sized(3);
        wal.commit();
        let gc = GroupCommitWal::new(wal, GroupCommitConfig::per_commit());
        assert_eq!(gc.commit(), IoStats::default());
        let s = gc.stats();
        assert_eq!(s.commit_requests, 1);
        assert_eq!(s.absorbed, 1);
        assert_eq!(s.flushes, 0);
        // A wrapped log with a pending tail is flushed by the first
        // commit and counted as a flush.
        let mut wal = Wal::new(disk);
        wal.append_sized(7);
        let gc = GroupCommitWal::new(wal, GroupCommitConfig::per_commit());
        let io = gc.commit();
        assert_eq!(io.page_writes, 1);
        let s = gc.stats();
        assert_eq!((s.flushes, s.absorbed), (1, 0));
    }

    #[test]
    fn per_commit_config_flushes_every_time() {
        let (_disk, gc) = gc(GroupCommitConfig::per_commit());
        for _ in 0..3 {
            gc.with_wal(|w| w.append_sized(1));
            let io = gc.commit();
            assert_eq!(io.page_writes, 1);
        }
        let s = gc.stats();
        assert_eq!(s.flushes, 3);
        assert_eq!(s.absorbed, 0);
    }

    #[test]
    fn durable_bytes_and_records_pass_through() {
        let (_disk, gc) = gc(GroupCommitConfig::default());
        gc.with_wal(|w| {
            w.append_sized(4);
            w.log(1, &LogPayload::CheckpointBegin);
            w.log(1, &LogPayload::Commit { ts: 0 });
        });
        assert_eq!(gc.records(), 3);
        gc.commit();
        assert_eq!(
            gc.durable_bytes(),
            gc.appended_bytes(),
            "everything appended is durable after commit"
        );
        // The retained stream decodes back to the two typed records.
        let decoded = crate::logrec::decode_stream(&gc.durable_log());
        assert!(!decoded.torn);
        assert_eq!(decoded.records.len(), 2);
    }
}
