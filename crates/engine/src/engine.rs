//! The engine facade: the [`Engine`] struct, its constructor, and its
//! device accessors.
//!
//! Storage is split across N [`StorageShard`]s (each its own simulated
//! disk + buffer pool). Every table is range-partitioned on its
//! clustered attribute, one partition per shard, and log records go to
//! one engine WAL on a dedicated log disk, flushed through
//! leader-elected group commit ([`GroupCommitWal`]). The engine's
//! methods live with the job they do:
//!
//! * `catalog` — [`EngineConfig`], table entries, create / load, info,
//!   and the `with_*` escape hatches;
//! * `read` — the leg pipeline (route, plan, execute, merge) behind
//!   every read, aggregate, join phase and `delete_where` search;
//! * `write` — inserts, deletes, and transaction commit points;
//! * `design` — the one staged install step behind every change to a
//!   table's access-structure set, and the workload advisor;
//! * `maintenance` — MVCC vacuum;
//! * `stats` — routing, row, and stall counters;
//! * `recovery` — checkpoints, crash simulation, and restart.

use crate::error::EngineError;
use crate::executor::Executor;
use crate::recovery::ImageInstall;
use crate::session::Session;
use crate::stats::Counters;
use crate::catalog::{EngineConfig, TableEntry};
use crate::Result;
use cm_query::Planner;
use cm_storage::{
    aggregate_io, aggregate_pool, makespan_ms, BufferPool, DiskSim, GroupCommitWal, IoStats,
    MvccState, MvccStats, PoolStats, Rid, StorageShard, Wal, AUTOCOMMIT_TXN,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The concurrent engine facade. Construct with [`Engine::new`], share as
/// `Arc<Engine>`, open per-connection handles with [`Engine::session`].
pub struct Engine {
    pub(crate) config: EngineConfig,
    pub(crate) backends: Vec<StorageShard>,
    pub(crate) log_disk: Arc<DiskSim>,
    pub(crate) wal: GroupCommitWal,
    pub(crate) planner: Planner,
    pub(crate) executor: Executor,
    pub(crate) catalog: RwLock<HashMap<String, Arc<TableEntry>>>,
    pub(crate) counters: Counters,
    /// Transaction ids handed to sessions (0 is [`AUTOCOMMIT_TXN`]).
    pub(crate) next_txn: AtomicU64,
    /// Durable checkpoint images, ascending by install offset. The first
    /// entry is the base image installed by [`Engine::load`]; each
    /// completed checkpoint appends one.
    pub(crate) images: Mutex<Vec<ImageInstall>>,
    /// Serializes checkpoints ([`Engine::checkpoint`] blocks on it; the
    /// auto-checkpoint in [`Engine::commit`] skips when it is held).
    pub(crate) ckpt_lock: Mutex<()>,
    /// WAL record count at the last image install (drives the
    /// `checkpoint_every` trigger).
    pub(crate) ckpt_records: AtomicU64,
    /// The MVCC commit clock / commit table / snapshot registry
    /// (`Some` iff [`EngineConfig::mvcc`]).
    pub(crate) mvcc: Option<Arc<MvccState>>,
    /// Versions ended since the last vacuum pass (drives the
    /// `gc_every` trigger).
    pub(crate) gc_deletes: AtomicU64,
    /// Serializes vacuum passes (the auto-vacuum in [`Engine::commit`]
    /// skips when one is in flight; explicit [`Engine::vacuum`] blocks).
    /// A design install holds it per shard, so no version its build saw
    /// is reclaimed before the new structures are in place.
    pub(crate) vacuum_lock: Mutex<()>,
    /// Serializes design changes — [`Engine::apply_design`],
    /// [`Engine::create_btree`], [`Engine::create_cm`] — so every shard
    /// ends with the same structure list and the logged set is the
    /// installed one. Queries never take this lock.
    pub(crate) design_lock: Mutex<()>,
}

impl Engine {
    /// Build an engine with `config.shards` storage shards (each its own
    /// simulated disk + buffer pool), a dedicated log disk, and a
    /// group-commit WAL.
    ///
    /// Panics on a configuration [`Engine::try_new`] rejects (more
    /// shards than a RID's shard tag can address).
    pub fn new(config: EngineConfig) -> Arc<Self> {
        Self::try_new(config).expect("valid engine configuration")
    }

    /// [`Engine::new`], surfacing configuration errors instead of
    /// panicking. A shard count above [`Rid::MAX_SHARDS`] is rejected
    /// with [`EngineError::TooManyShards`]: RIDs carry their shard in a
    /// fixed-width tag, so a 300-shard engine would silently alias
    /// shards 256.. onto 0.. — a clamp used to hide exactly that. A
    /// shard count of 0 still means "one shard" (sequential default).
    pub fn try_new(config: EngineConfig) -> Result<Arc<Self>> {
        if config.shards > Rid::MAX_SHARDS {
            return Err(EngineError::TooManyShards {
                requested: config.shards,
                max: Rid::MAX_SHARDS,
            });
        }
        let shards = config.shards.max(1);
        let per_shard_pages = (config.pool_pages / shards).max(1);
        let backends: Vec<StorageShard> = (0..shards)
            .map(|i| {
                StorageShard::with_backend(
                    config.disk,
                    per_shard_pages,
                    &config.backend,
                    &format!("shard{i}"),
                )
            })
            .collect::<std::result::Result<_, _>>()?;
        // The log gets its own spindle (as a real deployment would), so
        // commits do not drag every shard head to the log tail.
        let log_disk = config.backend.make_disk(config.disk, "wal")?;
        let wal = GroupCommitWal::new(Wal::new(log_disk.clone()), config.group_commit);
        let planner = Planner::new(config.disk);
        Ok(Arc::new(Engine {
            executor: Executor::new(config.workers),
            mvcc: config.mvcc.then(|| Arc::new(MvccState::new())),
            config,
            backends,
            log_disk,
            wal,
            planner,
            catalog: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            next_txn: AtomicU64::new(AUTOCOMMIT_TXN + 1),
            images: Mutex::new(Vec::new()),
            ckpt_lock: Mutex::new(()),
            ckpt_records: AtomicU64::new(0),
            gc_deletes: AtomicU64::new(0),
            vacuum_lock: Mutex::new(()),
            design_lock: Mutex::new(()),
        }))
    }

    /// The engine's MVCC state, when [`EngineConfig::mvcc`] is on.
    pub fn mvcc_state(&self) -> Option<&Arc<MvccState>> {
        self.mvcc.as_ref()
    }

    /// MVCC counters (commit clock, live snapshots, GC work); `None`
    /// when MVCC is off.
    pub fn mvcc_stats(&self) -> Option<MvccStats> {
        self.mvcc.as_ref().map(|mv| mv.stats())
    }

    /// Number of storage shards.
    pub fn num_shards(&self) -> usize {
        self.backends.len()
    }

    /// Number of executor workers multi-shard query legs fan out over.
    pub fn num_workers(&self) -> usize {
        self.executor.workers()
    }

    /// The shard storage backends (disk + pool pairs).
    pub fn shard_backends(&self) -> &[StorageShard] {
        &self.backends
    }

    /// The first shard's simulated disk. For single-shard engines this
    /// is *the* data disk (the pre-sharding behaviour); sharded engines
    /// should aggregate via [`Engine::io_totals`].
    pub fn disk(&self) -> &Arc<DiskSim> {
        self.backends[0].disk()
    }

    /// The first shard's buffer pool (see [`Engine::disk`]).
    pub fn pool(&self) -> &BufferPool {
        self.backends[0].pool()
    }

    /// The dedicated log disk the WAL flushes to.
    pub fn log_disk(&self) -> &Arc<DiskSim> {
        &self.log_disk
    }

    /// I/O counters summed over every shard disk and the log disk.
    pub fn io_totals(&self) -> IoStats {
        let mut per: Vec<IoStats> = self.backends.iter().map(|b| b.io_stats()).collect();
        per.push(self.log_disk.stats());
        aggregate_io(per.iter())
    }

    /// Per-shard I/O counters (shard disks only, in shard order).
    pub fn shard_io(&self) -> Vec<IoStats> {
        self.backends.iter().map(|b| b.io_stats()).collect()
    }

    /// The busiest disk's simulated elapsed time — the makespan of the
    /// engine's history with all spindles working in parallel.
    pub fn sim_makespan_ms(&self) -> f64 {
        let mut per: Vec<IoStats> = self.backends.iter().map(|b| b.io_stats()).collect();
        per.push(self.log_disk.stats());
        makespan_ms(per.iter())
    }

    /// Pool counters summed over every shard pool.
    pub fn pool_totals(&self) -> PoolStats {
        let per: Vec<PoolStats> = self.backends.iter().map(|b| b.pool_stats()).collect();
        aggregate_pool(per.iter())
    }

    /// Reset every disk's counters and head position (between-trial
    /// measurement hygiene).
    pub fn reset_io(&self) {
        for b in &self.backends {
            b.reset_io();
        }
        self.log_disk.reset();
    }

    /// Flush every shard's buffer pool (between-trial cache flushing, as
    /// in the paper's methodology); returns the I/O charged.
    pub fn flush_pool(&self) -> IoStats {
        let mut io = IoStats::default();
        for b in &self.backends {
            io.add(&b.flush());
        }
        io
    }

    /// Open a session handle (cheap; one per connection/thread).
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.clone())
    }
}

// The engine must be shareable across session threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

#[cfg(test)]
mod tests;
