//! Multi-version concurrency control: the global commit clock, the
//! pending-transaction commit table, and snapshot handles.
//!
//! The engine keeps every shard behind a `RwLock`, which means a writer
//! used to block all readers on its shard. MVCC decouples them: each
//! heap slot carries a `begin`/`end` **stamp pair** and every query
//! reads at a **snapshot timestamp**, filtering row visibility instead
//! of waiting for locks. Readers still take the shard *read* lock (the
//! heap `Vec` must not be reallocated under them) but never wait on a
//! logical writer's transaction, and writers never wait for readers.
//!
//! ## Stamp encoding
//!
//! A stamp is a `u64` with two interpretations:
//!
//! * **Commit timestamp** (high bit clear, or [`LIVE_TS`]): the row
//!   version was created / ended at that clock tick. [`LIVE_TS`]
//!   (`u64::MAX`) as an `end` stamp means "still live".
//! * **Pending marker** (high bit set via [`TXN_STAMP_BIT`]): the
//!   mutation belongs to transaction `stamp & !TXN_STAMP_BIT` that has
//!   not committed yet. Readers resolve it through the commit table:
//!   unresolvable means "invisible".
//!
//! ## Commit protocol
//!
//! [`MvccState::commit_txn`] serialises on a private mutex and performs
//! *(1)* insert `txn → ts` into the commit table, *(2)* publish `ts` as
//! the new clock value — in that order. A snapshot therefore can never
//! observe `clock ≥ ts` without the commit-table entry being readable,
//! so a pending stamp visible to a snapshot always resolves.
//!
//! ## Garbage collection
//!
//! Ended versions stay in the heap (and in the access structures) until
//! a vacuum pass reclaims every version whose end stamp is at or below
//! the **oldest live snapshot** ([`MvccState::oldest_live`]). Snapshots
//! register themselves in an active set on creation and deregister on
//! drop, so the oldest-live bound is exact. Vacuum also rewrites
//! resolvable pending stamps to their plain commit timestamps, which is
//! what lets it prune the commit table ([`MvccState::prune_commits`])
//! without leaving dangling pending markers behind.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// `end` stamp of a live (not yet deleted) row version.
pub const LIVE_TS: u64 = u64::MAX;

/// High bit marking a stamp as a pending-transaction marker rather than
/// a plain commit timestamp. ([`LIVE_TS`] also has the bit set and is
/// special-cased: it is never a pending marker.)
pub const TXN_STAMP_BIT: u64 = 1 << 63;

/// Encode "written by still-pending transaction `txn`" as a stamp.
pub fn pending_stamp(txn: u64) -> u64 {
    debug_assert_eq!(txn & TXN_STAMP_BIT, 0, "txn id overflows stamp space");
    txn | TXN_STAMP_BIT
}

/// Is this stamp a pending-transaction marker (vs. a plain timestamp)?
pub fn is_pending(stamp: u64) -> bool {
    stamp != LIVE_TS && stamp & TXN_STAMP_BIT != 0
}

/// The transaction id inside a pending stamp.
pub fn pending_txn(stamp: u64) -> u64 {
    stamp & !TXN_STAMP_BIT
}

/// Counters describing the MVCC machinery, in the spirit of
/// [`crate::IoStats`]: cheap to snapshot, monotone where meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Current value of the commit clock.
    pub clock: u64,
    /// Snapshots currently registered (live readers).
    pub active_snapshots: u64,
    /// Oldest live snapshot timestamp (== `clock` when none active).
    pub oldest_live: u64,
    /// Entries still in the commit table (committed txns whose stamps
    /// have not all been rewritten by vacuum yet).
    pub pending_commits: u64,
    /// Row versions physically reclaimed by vacuum since start.
    pub reclaimed_versions: u64,
    /// Pending stamps rewritten to plain commit timestamps by vacuum.
    pub resolved_stamps: u64,
    /// Completed vacuum passes.
    pub vacuum_runs: u64,
}

/// Shared MVCC state: the commit clock, the commit table, and the
/// active-snapshot registry. One per [`crate::DiskSim`]-backed engine.
#[derive(Debug, Default)]
pub struct MvccState {
    clock: AtomicU64,
    commit_lock: Mutex<()>,
    commits: RwLock<HashMap<u64, u64>>,
    active: Mutex<BTreeMap<u64, usize>>,
    reclaimed: AtomicU64,
    resolved: AtomicU64,
    vacuums: AtomicU64,
}

impl MvccState {
    /// Fresh state; the clock starts at 1 so bulk-loaded rows stamped
    /// with `begin = 1` are visible to every snapshot.
    pub fn new() -> Self {
        Self { clock: AtomicU64::new(1), ..Self::default() }
    }

    // Poison-tolerant lock helpers. The std locks poison when a holder
    // panics; here every critical section only moves the protected map
    // between internally-consistent states (insert / remove / retain /
    // clear — no multi-step invariants are ever exposed mid-flight), so
    // a panicked holder must not wedge every subsequent reader and
    // writer behind `PoisonError`. `into_inner` recovers the guard.

    fn commits_read(&self) -> RwLockReadGuard<'_, HashMap<u64, u64>> {
        self.commits.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn commits_write(&self) -> RwLockWriteGuard<'_, HashMap<u64, u64>> {
        self.commits.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn active_lock(&self) -> MutexGuard<'_, BTreeMap<u64, usize>> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit_lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current clock value — the timestamp a snapshot taken now reads at.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Allocate a fresh commit timestamp for a single-shot autocommit
    /// mutation. Must be called while holding the write lock of the one
    /// shard the mutation touches: any snapshot new enough to see the
    /// stamp then can't scan that shard until the row is in place.
    pub fn next_ts(&self) -> u64 {
        let _g = self.commit_guard();
        let ts = self.now() + 1;
        self.clock.store(ts, Ordering::Release);
        ts
    }

    /// Commit `txn`: allocate its timestamp, record it in the commit
    /// table, then publish the clock. Returns the commit timestamp.
    pub fn commit_txn(&self, txn: u64) -> u64 {
        let _g = self.commit_guard();
        let ts = self.now() + 1;
        self.commits_write().insert(txn, ts);
        self.clock.store(ts, Ordering::Release);
        ts
    }

    /// Resolve a pending stamp to its commit timestamp, if the owning
    /// transaction has committed.
    pub fn resolve(&self, stamp: u64) -> Option<u64> {
        self.commits_read().get(&pending_txn(stamp)).copied()
    }

    /// After a crash restart: force the clock to `ts` (recovery sets it
    /// past the largest logged commit timestamp) and drop all volatile
    /// commit-table / snapshot state.
    pub fn reset_clock(&self, ts: u64) {
        let _g = self.commit_guard();
        self.clock.store(ts.max(1), Ordering::Release);
        self.commits_write().clear();
    }

    /// Open a registered snapshot at the current clock. The snapshot
    /// pins its timestamp in the active set until dropped, which is
    /// what holds vacuum back from reclaiming versions it can see.
    pub fn begin(self: &Arc<Self>) -> Snapshot {
        let mut active = self.active_lock();
        let ts = self.now();
        *active.entry(ts).or_insert(0) += 1;
        Snapshot { ts, state: Arc::clone(self) }
    }

    /// The oldest snapshot timestamp still registered, or the current
    /// clock when no reader is active. Versions ended at or below this
    /// are invisible to every present and future snapshot.
    pub fn oldest_live(&self) -> u64 {
        let active = self.active_lock();
        active.keys().next().copied().unwrap_or_else(|| self.now())
    }

    /// Drop commit-table entries with `ts <= cutoff`. Only safe after
    /// every stamp of those transactions has been rewritten to its
    /// plain timestamp (vacuum's rewrite pass guarantees this).
    pub fn prune_commits(&self, cutoff: u64) {
        self.commits_write().retain(|_, ts| *ts > cutoff);
    }

    /// Record `n` versions physically reclaimed by vacuum.
    pub fn note_reclaimed(&self, n: u64) {
        self.reclaimed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` pending stamps rewritten to plain timestamps.
    pub fn note_resolved(&self, n: u64) {
        self.resolved.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one completed vacuum pass.
    pub fn note_vacuum(&self) {
        self.vacuums.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> MvccStats {
        let active = self.active_lock();
        MvccStats {
            clock: self.now(),
            active_snapshots: active.values().map(|&n| n as u64).sum(),
            oldest_live: active.keys().next().copied().unwrap_or_else(|| self.now()),
            pending_commits: self.commits_read().len() as u64,
            reclaimed_versions: self.reclaimed.load(Ordering::Relaxed),
            resolved_stamps: self.resolved.load(Ordering::Relaxed),
            vacuum_runs: self.vacuums.load(Ordering::Relaxed),
        }
    }
}

/// A registered read snapshot: "the database as of clock tick `ts`".
/// Deregisters itself on drop.
#[derive(Debug)]
pub struct Snapshot {
    ts: u64,
    state: Arc<MvccState>,
}

impl Snapshot {
    /// The snapshot timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Did `stamp` commit at or before this snapshot? Pending stamps go
    /// through the commit table; unresolvable means "no".
    #[inline]
    pub fn committed_before(&self, stamp: u64) -> bool {
        if is_pending(stamp) {
            match self.state.resolve(stamp) {
                Some(ts) => ts <= self.ts,
                None => false,
            }
        } else {
            stamp <= self.ts
        }
    }

    /// Is a row version with this stamp pair visible to the snapshot?
    /// Visible iff its begin committed at or before `ts` and its end
    /// (if any) did not.
    #[inline]
    pub fn sees(&self, begin: u64, end: u64) -> bool {
        self.committed_before(begin) && !self.committed_before(end)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut active = self.state.active_lock();
        if let std::collections::btree_map::Entry::Occupied(mut e) = active.entry(self.ts) {
            *e.get_mut() -= 1;
            if *e.get() == 0 {
                e.remove();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_encoding_roundtrips_and_live_is_not_pending() {
        let s = pending_stamp(42);
        assert!(is_pending(s));
        assert_eq!(pending_txn(s), 42);
        assert!(!is_pending(7));
        assert!(!is_pending(LIVE_TS), "LIVE_TS is a timestamp, not a pending marker");
    }

    #[test]
    fn commit_advances_clock_and_resolves() {
        let mv = Arc::new(MvccState::new());
        assert_eq!(mv.now(), 1);
        let ts = mv.commit_txn(9);
        assert_eq!(ts, 2);
        assert_eq!(mv.now(), 2);
        assert_eq!(mv.resolve(pending_stamp(9)), Some(2));
        assert_eq!(mv.resolve(pending_stamp(8)), None);
    }

    #[test]
    fn snapshot_visibility_rules() {
        let mv = Arc::new(MvccState::new());
        let t1 = mv.next_ts(); // 2
        let snap = mv.begin(); // at 2
        let t2 = mv.next_ts(); // 3, after the snapshot
        assert!(snap.sees(t1, LIVE_TS), "committed before snapshot, live");
        assert!(!snap.sees(t2, LIVE_TS), "committed after snapshot");
        assert!(!snap.sees(1, t1), "ended before snapshot");
        assert!(snap.sees(1, t2), "ended after snapshot: still visible");
    }

    #[test]
    fn pending_stamps_are_invisible_until_commit() {
        let mv = Arc::new(MvccState::new());
        let stamp = pending_stamp(5);
        let early = mv.begin();
        assert!(!early.sees(stamp, LIVE_TS), "uncommitted write invisible");
        let ts = mv.commit_txn(5);
        assert!(!early.sees(stamp, LIVE_TS), "still invisible to the older snapshot");
        let late = mv.begin();
        assert!(late.ts() >= ts);
        assert!(late.sees(stamp, LIVE_TS), "resolves through the commit table");
        // A pending *end* stamp hides the row only once committed.
        assert!(!late.sees(1, stamp), "end stamp resolved: deleted");
        assert!(early.sees(1, stamp), "deletion is after the early snapshot");
    }

    #[test]
    fn oldest_live_tracks_registration() {
        let mv = Arc::new(MvccState::new());
        assert_eq!(mv.oldest_live(), 1);
        let s1 = mv.begin();
        mv.next_ts();
        mv.next_ts();
        let s2 = mv.begin();
        assert_eq!(mv.oldest_live(), s1.ts());
        drop(s1);
        assert_eq!(mv.oldest_live(), s2.ts());
        drop(s2);
        assert_eq!(mv.oldest_live(), mv.now());
    }

    #[test]
    fn duplicate_timestamps_refcount() {
        let mv = Arc::new(MvccState::new());
        let a = mv.begin();
        let b = mv.begin();
        assert_eq!(a.ts(), b.ts());
        assert_eq!(mv.stats().active_snapshots, 2);
        drop(a);
        assert_eq!(mv.oldest_live(), b.ts(), "refcounted: still pinned");
        drop(b);
        assert_eq!(mv.stats().active_snapshots, 0);
    }

    #[test]
    fn prune_drops_only_old_entries() {
        let mv = Arc::new(MvccState::new());
        let t1 = mv.commit_txn(1);
        let t2 = mv.commit_txn(2);
        mv.prune_commits(t1);
        assert_eq!(mv.resolve(pending_stamp(1)), None, "pruned");
        assert_eq!(mv.resolve(pending_stamp(2)), Some(t2), "kept");
    }

    #[test]
    fn poisoned_locks_do_not_wedge_readers() {
        // A thread that panics while holding the commit-table write lock
        // (and the active-set mutex) poisons both std locks. The
        // poison-tolerant helpers must keep every subsequent operation
        // working — a crashed writer can't take the MVCC state down.
        let mv = Arc::new(MvccState::new());
        let t1 = mv.commit_txn(1);
        let poisoner = Arc::clone(&mv);
        let _ = std::thread::spawn(move || {
            let _commits = poisoner.commits.write().unwrap();
            let _active = poisoner.active.lock().unwrap();
            panic!("die holding both locks");
        })
        .join();
        assert!(mv.commits.write().is_err(), "lock really is poisoned");
        assert!(mv.active.lock().is_err(), "lock really is poisoned");
        // Reads, writes, snapshots, and stats all still work.
        assert_eq!(mv.resolve(pending_stamp(1)), Some(t1));
        let t2 = mv.commit_txn(2);
        assert_eq!(mv.resolve(pending_stamp(2)), Some(t2));
        let snap = mv.begin();
        assert!(snap.sees(t1, LIVE_TS));
        assert_eq!(mv.stats().active_snapshots, 1);
        assert_eq!(mv.oldest_live(), snap.ts());
        drop(snap); // Snapshot::drop also takes the poisoned active lock
        assert_eq!(mv.stats().active_snapshots, 0);
        mv.prune_commits(t1);
        assert_eq!(mv.resolve(pending_stamp(1)), None);
        mv.reset_clock(50);
        assert_eq!(mv.now(), 50);
    }

    #[test]
    fn reset_clock_clears_volatile_state() {
        let mv = Arc::new(MvccState::new());
        mv.commit_txn(3);
        mv.reset_clock(100);
        assert_eq!(mv.now(), 100);
        assert_eq!(mv.resolve(pending_stamp(3)), None);
        mv.reset_clock(0);
        assert_eq!(mv.now(), 1, "clock floor is 1");
    }
}
