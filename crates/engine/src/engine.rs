//! The engine facade: catalog, sharded I/O substrate, and cost-based
//! access-path routing.
//!
//! Storage is split across N [`StorageShard`]s (each its own simulated
//! disk + buffer pool). Every table is partitioned by clustered-key
//! range, one partition per shard, with a [`RangeRouter`] derived from
//! the clustered attribute at load time: point predicates on the
//! clustered column route to exactly one shard, ranges fan out only to
//! the shards they overlap, and each shard executes the query
//! intersected with its ownership range. Log records go to one engine
//! WAL on a dedicated log disk, flushed through leader-elected group
//! commit ([`GroupCommitWal`]).
//!
//! Query execution is a two-phase pipeline: a **plan phase** snapshots
//! the routing and per-shard cost decisions into a
//! [`cm_query::QueryPlan`] (one [`cm_query::ShardLeg`] per overlapping
//! shard, carrying the shard-restricted predicate and that shard's
//! chosen access path), and an **execute phase** runs the legs on the
//! engine's shared [`Executor`] worker pool — each leg against its own
//! shard backend — merging rows and per-leg timings deterministically in
//! shard order.

use crate::error::EngineError;
use crate::executor::{scheduled_makespan, Executor};
use crate::session::Session;
use crate::shard::{partition_rows, RangeRouter};
use crate::Result;
use cm_advisor::{
    recommend_for_workload, DesignSet, Structure, WorkloadAdvisorConfig, WorkloadProfile,
    WorkloadRecommendation,
};
use cm_core::CmSpec;
use cm_query::{
    restrict_to_shard, AccessPath, ExecContext, PlanChoice, Planner, PredOp, Query, QueryPlan,
    RunResult, ShardLeg, Table,
};
use crate::recovery::ImageInstall;
use cm_storage::{
    aggregate_io, aggregate_pool, makespan_ms, pending_stamp, Backend, BufferPool,
    DiskConfig, DiskSim, GroupCommitConfig, GroupCommitStats, GroupCommitWal, IoStats,
    LogPayload, MvccState, MvccStats, PoolStats, Rid, Row, Schema, Snapshot,
    StorageShard, Wal, WalBatch, AUTOCOMMIT_TXN, LIVE_TS,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated-disk hardware parameters (paper, Table 1 by default) —
    /// every shard disk and the log disk use the same constants.
    pub disk: DiskConfig,
    /// Which device the disks run on: [`Backend::Sim`] (pure simulation,
    /// the deterministic default) or [`Backend::File`] (every shard disk
    /// *and* the WAL log disk additionally perform real `pread`/`pwrite`
    /// against files under the given directory — `shard0/`, `shard1/`,
    /// …, `wal/` — and report wall-clock alongside sim-ms). The sim
    /// accounting is identical on both, so results stay oracle-equal.
    pub backend: Backend,
    /// Total buffer-pool capacity in pages, divided evenly across the
    /// shards (so sweeping the shard count compares equal RAM).
    pub pool_pages: usize,
    /// Number of storage shards tables are range-partitioned across.
    pub shards: usize,
    /// Executor worker threads for intra-query shard fan-out: a
    /// multi-shard query's legs run on up to this many threads (1 =
    /// strictly sequential, the default — single-shard and single-worker
    /// engines never pay a spawn).
    pub workers: usize,
    /// WAL group-commit batching knobs.
    pub group_commit: GroupCommitConfig,
    /// Workload-aware design-advisor knobs ([`Engine::advise_design`]
    /// uses these defaults; `advise_design_with` overrides per call).
    pub advisor: WorkloadAdvisorConfig,
    /// Appended WAL records between automatic fuzzy checkpoints: when a
    /// [`Engine::commit`] observes at least this many records since the
    /// last checkpoint, it runs [`Engine::checkpoint`] before returning
    /// (skipped if another session's checkpoint is already in flight).
    /// `0` disables automatic checkpoints (the default; call
    /// [`Engine::checkpoint`] explicitly).
    pub checkpoint_every: u64,
    /// Multi-version concurrency for reads: every query reads at a
    /// snapshot timestamp under shard *read* locks, writers stamp
    /// `begin`/`end` versions instead of physically removing rows, and
    /// [`Engine::apply_design`] swaps structure sets online. Off by
    /// default (the pre-MVCC `RwLock` behaviour, kept for comparison —
    /// the `mvcc_reads` bench sweeps both).
    pub mvcc: bool,
    /// MVCC deletes between automatic vacuum passes: when at least this
    /// many versions have been ended since the last pass, the next
    /// [`Engine::commit`] runs [`Engine::vacuum`] before returning
    /// (skipped when one is already in flight). `0` disables automatic
    /// GC (the default; call [`Engine::vacuum`] explicitly). Ignored
    /// when `mvcc` is off.
    pub gc_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            disk: DiskConfig::default(),
            backend: Backend::Sim,
            pool_pages: 1024,
            shards: 1,
            workers: 1,
            group_commit: GroupCommitConfig::default(),
            advisor: WorkloadAdvisorConfig::default(),
            checkpoint_every: 0,
            mvcc: false,
            gc_every: 0,
        }
    }
}

/// A table definition plus (once loaded) its per-shard partitions.
pub(crate) struct TableEntry {
    pub(crate) name: String,
    pub(crate) schema: Arc<Schema>,
    pub(crate) clustered_col: usize,
    pub(crate) tups_per_page: usize,
    pub(crate) bucket_target: u64,
    /// `None` until [`Engine::load`] runs. Queries take this read lock
    /// plus per-partition locks, so readers on different shards (and
    /// writers on different shards) proceed in parallel.
    /// [`Engine::apply_design`] takes it **exclusively**, so a design
    /// switch never interleaves with an in-flight query's plan/execute
    /// phases.
    pub(crate) loaded: RwLock<Option<LoadedTable>>,
    /// Online workload profile: per-column read traffic plus the write
    /// count, recorded by every execute/insert/delete and harvested by
    /// [`Engine::advise_design`].
    pub(crate) profile: parking_lot::Mutex<WorkloadProfile>,
}

/// The loaded state: contiguous clustered-key partitions, one per
/// storage shard, plus the routing table over their boundaries.
pub(crate) struct LoadedTable {
    pub(crate) router: RangeRouter,
    /// `parts[i]` lives on the engine's shard backend `i`.
    pub(crate) parts: Vec<RwLock<Table>>,
    /// Each partition's heap length right after its bulk build — the
    /// sorted-prefix length [`Table::restore`] needs to rebuild the
    /// clustered index and bucket directory from a checkpoint image
    /// (rows past it arrived through `insert` and are re-learned as
    /// appends).
    pub(crate) base_lens: Vec<u64>,
}

/// Per-access-path routing counters (cumulative since engine start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounts {
    /// Queries routed to a full table scan.
    pub full_scan: u64,
    /// Queries routed to a sorted (bitmap) secondary index scan.
    pub secondary_sorted: u64,
    /// Queries routed to a pipelined secondary index scan.
    pub secondary_pipelined: u64,
    /// Queries routed to a CM-guided scan.
    pub cm_scan: u64,
}

impl RouteCounts {
    /// Total routed queries.
    pub fn total(&self) -> u64 {
        self.full_scan + self.secondary_sorted + self.secondary_pipelined + self.cm_scan
    }

    /// `self - earlier`, for snapshot-delta reporting.
    pub fn since(&self, earlier: &RouteCounts) -> RouteCounts {
        RouteCounts {
            full_scan: self.full_scan - earlier.full_scan,
            secondary_sorted: self.secondary_sorted - earlier.secondary_sorted,
            secondary_pipelined: self.secondary_pipelined - earlier.secondary_pipelined,
            cm_scan: self.cm_scan - earlier.cm_scan,
        }
    }
}

/// Cumulative engine statistics.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Queries executed (routed + forced).
    pub queries: u64,
    /// Rows inserted.
    pub inserts: u64,
    /// Rows deleted.
    pub deletes: u64,
    /// Routing decisions by chosen path.
    pub routes: RouteCounts,
    /// Simulated disk counters summed over every shard disk and the log
    /// disk since engine start.
    pub io: IoStats,
    /// Buffer-pool behaviour summed over every shard pool.
    pub pool: PoolStats,
    /// WAL records appended since engine start.
    pub wal_records: u64,
    /// WAL bytes made durable since engine start.
    pub wal_durable_bytes: u64,
    /// WAL group-commit behaviour (requests, absorbed commits, flushes,
    /// pages flushed).
    pub wal: GroupCommitStats,
    /// Tables in the catalog.
    pub tables: usize,
    /// Rows across every loaded table (live + tombstoned slots).
    pub total_rows: u64,
    /// MVCC clock / snapshot / vacuum counters (`Some` iff
    /// [`EngineConfig::mvcc`]).
    pub mvcc: Option<MvccStats>,
    /// Total wall-clock time query legs spent waiting to acquire shard
    /// read locks (ms). This is real blocking — readers queued behind a
    /// writer's (or vacuum's) write-lock hold — not simulated I/O.
    pub read_stall_ms: f64,
    /// Read-lock acquisitions that waited longer than
    /// [`Engine::STALL_FLOOR`] — i.e. actual stalls, not the
    /// nanosecond-scale cost of an uncontended acquisition.
    pub read_stalls: u64,
    /// Longest single read-lock wait a query leg observed (ms).
    pub read_stall_max_ms: f64,
}

/// One executed leg of a query: the shard it ran on, the path chosen
/// for that shard, and what it measured there.
#[derive(Debug, Clone)]
pub struct LegOutcome {
    /// The shard the leg executed on.
    pub shard: usize,
    /// The planner's decision for this shard (per-shard statistics can
    /// send different shards down different paths). For forced-path runs
    /// the chosen path is the forced one.
    pub choice: PlanChoice,
    /// Measured (simulated) execution of this leg alone, charged to its
    /// shard's disk.
    pub run: RunResult,
}

/// Outcome of one query execution through the engine.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The first leg's planner decision — the single-shard summary (for
    /// a point query this is *the* plan). Multi-shard consumers should
    /// read [`QueryOutcome::legs`] for every shard's choice.
    pub plan: PlanChoice,
    /// Measured (simulated) execution, summed across the shards the
    /// query fanned out to — the *serial* time, as if the legs shared
    /// one thread and one spindle.
    pub run: RunResult,
    /// Per-leg choices and timings, ascending by shard.
    pub legs: Vec<LegOutcome>,
    /// Simulated wall-clock of the fan-out: the legs' times list-scheduled
    /// onto the engine's worker count (equals `run.ms()` on a 1-worker
    /// engine, the longest leg when workers cover every shard).
    pub parallel_ms: f64,
    /// The shard ids the query executed on, ascending.
    pub shards: Vec<usize>,
    /// Matching rows, if collection was requested (merged in shard
    /// order, so results are deterministic however the legs ran).
    pub rows: Option<Vec<Row>>,
}

/// Catalog summary for one table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Whether `load` has run.
    pub loaded: bool,
    /// Row count across all shards (0 until loaded).
    pub rows: u64,
    /// Heap pages across all shards (0 until loaded).
    pub pages: u64,
    /// Number of shards the table is partitioned across (0 until loaded).
    pub shards: usize,
    /// Number of secondary B+Trees (per shard; every shard has the same
    /// set).
    pub secondaries: usize,
    /// Number of CMs (per shard).
    pub cms: usize,
}

/// What [`Engine::apply_design`] changed (per shard; every shard gets
/// the same set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedDesign {
    /// Secondary B+Trees built.
    pub btrees: usize,
    /// Correlation Maps built.
    pub cms: usize,
    /// Pre-existing structures dropped.
    pub dropped: usize,
}

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
    pub(crate) queries: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    route_full: AtomicU64,
    route_sorted: AtomicU64,
    route_pipelined: AtomicU64,
    route_cm: AtomicU64,
    /// Transaction ids handed to sessions (0 is [`AUTOCOMMIT_TXN`]).
    pub(crate) next_txn: AtomicU64,
    /// Durable checkpoint images, ascending by install offset. The first
    /// entry is the base image installed by [`Engine::load`]; each
    /// completed checkpoint appends one.
    pub(crate) images: parking_lot::Mutex<Vec<ImageInstall>>,
    /// Serializes checkpoints ([`Engine::checkpoint`] blocks on it; the
    /// auto-checkpoint in [`Engine::commit`] skips when it is held).
    pub(crate) ckpt_lock: parking_lot::Mutex<()>,
    /// WAL record count at the last image install (drives the
    /// `checkpoint_every` trigger).
    pub(crate) ckpt_records: AtomicU64,
    /// The MVCC commit clock / commit table / snapshot registry
    /// (`Some` iff [`EngineConfig::mvcc`]).
    pub(crate) mvcc: Option<Arc<MvccState>>,
    /// Versions ended since the last vacuum pass (drives the
    /// `gc_every` trigger).
    gc_deletes: AtomicU64,
    /// Serializes vacuum passes (the auto-vacuum in [`Engine::commit`]
    /// skips when one is in flight; explicit [`Engine::vacuum`] blocks).
    vacuum_lock: parking_lot::Mutex<()>,
    /// Serializes online (MVCC) design swaps — two concurrent
    /// [`Engine::apply_design`] calls must not interleave their per-shard
    /// build/install phases. Queries never take this lock.
    design_lock: parking_lot::Mutex<()>,
    /// Wall-clock nanoseconds query legs spent waiting on shard read
    /// locks (see [`EngineStats::read_stall_ms`]).
    read_stall_ns: AtomicU64,
    /// Read-lock acquisitions that waited past [`Engine::STALL_FLOOR`].
    read_stalls: AtomicU64,
    /// Longest single read-lock wait (ns).
    read_stall_max_ns: AtomicU64,
}

/// One leg's execution result: its run measurement plus any collected
/// rows.
pub(crate) type LegRun = Result<(RunResult, Vec<Row>)>;

/// Versions a vacuum pass physically reclaims per shard write-lock
/// hold. Between chunks the lock is released, bounding how long any
/// concurrent reader can be held up by garbage collection.
const VACUUM_CHUNK: usize = 128;

/// Rows a batched insert lands per shard write-lock hold, for the same
/// reason: one hold per chunk amortizes the per-row lock and WAL
/// round-trips without turning a large batch into a single long
/// exclusive hold that stalls every concurrent reader.
const INSERT_CHUNK: usize = 128;

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
            config: config.clone(),
            backends,
            log_disk,
            wal,
            planner,
            executor: Executor::new(config.workers),
            catalog: RwLock::new(HashMap::new()),
            queries: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            route_full: AtomicU64::new(0),
            route_sorted: AtomicU64::new(0),
            route_pipelined: AtomicU64::new(0),
            route_cm: AtomicU64::new(0),
            next_txn: AtomicU64::new(AUTOCOMMIT_TXN + 1),
            images: parking_lot::Mutex::new(Vec::new()),
            ckpt_lock: parking_lot::Mutex::new(()),
            ckpt_records: AtomicU64::new(0),
            mvcc: config.mvcc.then(|| Arc::new(MvccState::new())),
            gc_deletes: AtomicU64::new(0),
            vacuum_lock: parking_lot::Mutex::new(()),
            design_lock: parking_lot::Mutex::new(()),
            read_stall_ns: AtomicU64::new(0),
            read_stalls: AtomicU64::new(0),
            read_stall_max_ns: AtomicU64::new(0),
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

    /// Versions that have ended but not yet been reclaimed, summed over
    /// every loaded table — the version-chain-length signal a vacuum
    /// pass would work through. Always 0 when MVCC is off.
    pub fn dead_versions(&self) -> u64 {
        if self.mvcc.is_none() {
            return 0;
        }
        let entries: Vec<Arc<TableEntry>> = self.catalog.read().values().cloned().collect();
        let mut dead = 0u64;
        for entry in entries {
            let loaded = entry.loaded.read();
            let Some(lt) = loaded.as_ref() else { continue };
            for part in &lt.parts {
                dead += part.read().dead_versions();
            }
        }
        dead
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

    /// Open a session handle (cheap; one per connection/thread).
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.clone())
    }

    // ---- catalog ------------------------------------------------------

    /// Register a table: its schema, clustered column, tuples per heap
    /// page, and the clustered-bucket target (tuples per CM bucket).
    /// The heap is built by the first [`Engine::load`] call.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Arc<Schema>,
        clustered_col: usize,
        tups_per_page: usize,
        bucket_target: u64,
    ) -> Result<()> {
        let name = name.into();
        if clustered_col >= schema.arity() {
            return Err(EngineError::BadColumn { table: name, col: clustered_col });
        }
        let mut cat = self.catalog.write();
        if cat.contains_key(&name) {
            return Err(EngineError::DuplicateTable(name));
        }
        cat.insert(
            name.clone(),
            Arc::new(TableEntry {
                name,
                schema,
                clustered_col,
                tups_per_page,
                bucket_target,
                loaded: RwLock::new(None),
                profile: parking_lot::Mutex::new(WorkloadProfile::new()),
            }),
        );
        Ok(())
    }

    /// Bulk-load rows: sort on the clustered column, partition into
    /// contiguous clustered-key ranges (one per shard, never splitting a
    /// key), and build each partition's heap, clustered index, and
    /// bucket directory on its own shard backend. One-shot: subsequent
    /// writes go through [`Engine::insert`].
    pub fn load(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let entry = self.entry(table)?;
        let mut loaded = entry.loaded.write();
        if loaded.is_some() {
            return Err(EngineError::AlreadyLoaded(entry.name.clone()));
        }
        let (chunks, splits) = partition_rows(rows, entry.clustered_col, self.backends.len());
        let router = RangeRouter::new(entry.clustered_col, splits);
        debug_assert_eq!(
            router.num_shards(),
            chunks.len(),
            "router addresses exactly the partitions built"
        );
        let mut parts = Vec::with_capacity(chunks.len());
        let mut base_lens = Vec::with_capacity(chunks.len());
        let mut total = 0u64;
        for (i, chunk) in chunks.into_iter().enumerate() {
            let t = Table::build(
                self.backends[i].disk(),
                entry.schema.clone(),
                chunk,
                entry.tups_per_page,
                entry.clustered_col,
                entry.bucket_target,
            )?;
            total += t.heap().len();
            base_lens.push(t.heap().len());
            parts.push(RwLock::new(t));
        }
        *loaded = Some(LoadedTable { router, parts, base_lens });
        // The bulk build is not logged record by record, so recovery
        // starts from an image of the freshly-loaded state; install it
        // before any logged mutation can land (the load lock is still
        // released first — the image snapshot re-takes read locks).
        drop(loaded);
        self.install_base_image();
        Ok(total)
    }

    /// Create (and bulk-build) a secondary B+Tree on `cols` — one tree
    /// per shard, covering that shard's rows; returns its id (the same
    /// on every shard). Statistics for the leading column are refreshed
    /// so the planner can cost the new index immediately.
    pub fn create_btree(
        &self,
        table: &str,
        index_name: impl Into<String>,
        cols: Vec<usize>,
    ) -> Result<usize> {
        let entry = self.entry(table)?;
        let arity = entry.schema.arity();
        if let Some(&bad) = cols.iter().find(|&&c| c >= arity) {
            return Err(EngineError::BadColumn { table: entry.name.clone(), col: bad });
        }
        let index_name = index_name.into();
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let mut id = None;
        for (i, part) in lt.parts.iter().enumerate() {
            let mut t = part.write();
            let part_id =
                t.add_secondary(self.backends[i].disk(), index_name.clone(), cols.clone());
            t.analyze_cols(&cols);
            debug_assert!(id.is_none_or(|prev| prev == part_id), "uniform ids across shards");
            id = Some(part_id);
        }
        self.log_design_change(&entry.name, &lt.parts[0].read());
        Ok(id.expect("loaded tables have at least one partition"))
    }

    /// Create (and build via the paper's Algorithm 1) a Correlation Map —
    /// one per shard, over that shard's bucket directory; returns its id
    /// (the same on every shard). Statistics for the CM's key columns
    /// are refreshed so the planner can compare the CM against index
    /// paths.
    pub fn create_cm(
        &self,
        table: &str,
        cm_name: impl Into<String>,
        spec: CmSpec,
    ) -> Result<usize> {
        let entry = self.entry(table)?;
        let arity = entry.schema.arity();
        if let Some(&bad) = spec.cols().iter().find(|&&c| c >= arity) {
            return Err(EngineError::BadColumn { table: entry.name.clone(), col: bad });
        }
        let cm_name = cm_name.into();
        let analyze = spec.cols();
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let mut id = None;
        for part in lt.parts.iter() {
            let mut t = part.write();
            let part_id = t.add_cm(cm_name.clone(), spec.clone());
            t.analyze_cols(&analyze);
            debug_assert!(id.is_none_or(|prev| prev == part_id), "uniform ids across shards");
            id = Some(part_id);
        }
        self.log_design_change(&entry.name, &lt.parts[0].read());
        Ok(id.expect("loaded tables have at least one partition"))
    }

    /// Refresh planner statistics for the given columns on every shard
    /// (the paper's statistics scan; uncharged, as in the seed's
    /// `Table`).
    pub fn analyze(&self, table: &str, cols: &[usize]) -> Result<()> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        for part in lt.parts.iter() {
            part.write().analyze_cols(cols);
        }
        Ok(())
    }

    // ---- workload-aware design advisor --------------------------------

    /// Snapshot the table's online workload profile (per-column read
    /// traffic + write count recorded since engine start or the last
    /// [`Engine::reset_workload_profile`]).
    pub fn workload_profile(&self, table: &str) -> Result<WorkloadProfile> {
        Ok(self.entry(table)?.profile.lock().clone())
    }

    /// Start a fresh profiling window for the table.
    pub fn reset_workload_profile(&self, table: &str) -> Result<()> {
        self.entry(table)?.profile.lock().reset();
        Ok(())
    }

    /// Recommend the per-column structure set for the table's profiled
    /// workload, with the engine's configured advisor knobs
    /// (`EngineConfig::advisor`). See [`Engine::advise_design_with`].
    pub fn advise_design(&self, table: &str) -> Result<WorkloadRecommendation> {
        self.advise_design_with(table, &self.config.advisor)
    }

    /// [`Engine::advise_design`] with explicit knobs: harvest the
    /// table's [`WorkloadProfile`], refresh statistics for the profiled
    /// read columns, and run
    /// [`cm_advisor::recommend_for_workload`] against the largest
    /// partition's statistics (table-wide row count, engine-wide pool
    /// budget). Apply the result with [`Engine::apply_design`].
    pub fn advise_design_with(
        &self,
        table: &str,
        cfg: &WorkloadAdvisorConfig,
    ) -> Result<WorkloadRecommendation> {
        let entry = self.entry(table)?;
        let profile = entry.profile.lock().clone();
        let arity = entry.schema.arity();
        let cand: Vec<usize> = profile
            .cols()
            .iter()
            .map(|c| c.col)
            .filter(|&c| c != entry.clustered_col && c < arity)
            .collect();
        drop(entry);
        if !cand.is_empty() {
            self.analyze(table, &cand)?;
        }
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let total: u64 = lt.parts.iter().map(|p| p.read().heap().len()).sum();
        let largest = (0..lt.parts.len())
            .max_by_key(|&i| lt.parts[i].read().heap().len())
            .expect("loaded tables have at least one partition");
        let part = lt.parts[largest].read();
        Ok(recommend_for_workload(
            &part,
            &self.config.disk,
            total,
            self.config.pool_pages,
            &profile,
            cfg,
        ))
    }

    /// Replace the table's secondary access structures with a
    /// [`DesignSet`] (build/drop per shard): every existing secondary
    /// B+Tree and CM is dropped, then each column choice builds its
    /// structure on every shard, and statistics are refreshed so the
    /// planner can route through the new set immediately.
    ///
    /// Without MVCC the table's load lock is taken **exclusively** for
    /// the switch, so no in-flight query observes a half-applied design —
    /// queries planned after the switch see only the new structures.
    /// With [`EngineConfig::mvcc`] the switch is **online**: the new set
    /// is built per shard under the shard *read* lock (readers and
    /// writers proceed), then installed in a brief write-locked flip
    /// that first catches up any rows appended during the build
    /// ([`Table::catch_up_structures`]).
    pub fn apply_design(&self, table: &str, design: &DesignSet) -> Result<AppliedDesign> {
        let entry = self.entry(table)?;
        let arity = entry.schema.arity();
        if let Some(bad) = design.columns.iter().find(|c| c.col >= arity) {
            return Err(EngineError::BadColumn { table: entry.name.clone(), col: bad.col });
        }
        let analyze: Vec<usize> = design
            .columns
            .iter()
            .filter(|c| c.structure.is_some())
            .map(|c| c.col)
            .collect();
        if self.mvcc.is_some() {
            return self.apply_design_online(&entry, design, &analyze);
        }
        let loaded = entry.loaded.write();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let mut applied = AppliedDesign { btrees: 0, cms: 0, dropped: 0 };
        for (i, part) in lt.parts.iter().enumerate() {
            let mut t = part.write();
            if i == 0 {
                applied.dropped = t.secondaries().len() + t.cms().len();
            }
            t.clear_access_structures();
            for cd in &design.columns {
                match &cd.structure {
                    Structure::None => {}
                    Structure::BTree => {
                        t.add_secondary(
                            self.backends[i].disk(),
                            format!("adv_btree_{}", cd.col),
                            vec![cd.col],
                        );
                        applied.btrees += usize::from(i == 0);
                    }
                    Structure::Cm(spec) => {
                        t.add_cm(format!("adv_cm_{}", cd.col), spec.clone());
                        applied.cms += usize::from(i == 0);
                    }
                }
            }
            if !analyze.is_empty() {
                t.analyze_cols(&analyze);
            }
        }
        self.log_design_change(&entry.name, &lt.parts[0].read());
        Ok(applied)
    }

    /// The online (MVCC) design switch: per shard, build the new
    /// structure set from the current heap under the shard **read**
    /// lock — concurrent queries keep running, writers keep appending —
    /// then take the write lock only to replay the rows appended during
    /// the build into the new set and flip it in
    /// ([`Table::install_access_structures`] bumps the design epoch).
    /// Rows whose version has ended are still indexed: older snapshots
    /// reach them through the structures and filter at visit time.
    fn apply_design_online(
        &self,
        entry: &TableEntry,
        design: &DesignSet,
        analyze: &[usize],
    ) -> Result<AppliedDesign> {
        let _serialized = self.design_lock.lock();
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let mut applied = AppliedDesign { btrees: 0, cms: 0, dropped: 0 };
        for (i, part) in lt.parts.iter().enumerate() {
            // Build phase (read lock): construct the new set from a
            // consistent view of the shard heap.
            let t = part.read();
            let built_len = t.heap().len();
            let mut secs = Vec::new();
            let mut cms = Vec::new();
            for cd in &design.columns {
                match &cd.structure {
                    Structure::None => {}
                    Structure::BTree => secs.push(t.build_secondary(
                        self.backends[i].disk(),
                        format!("adv_btree_{}", cd.col),
                        vec![cd.col],
                    )),
                    Structure::Cm(spec) => {
                        cms.push(t.build_cm(format!("adv_cm_{}", cd.col), spec.clone()))
                    }
                }
            }
            drop(t);
            // Swap phase (brief write lock): catch up and install.
            let mut t = part.write();
            if i == 0 {
                applied.dropped = t.secondaries().len() + t.cms().len();
                applied.btrees = secs.len();
                applied.cms = cms.len();
            }
            t.catch_up_structures(self.backends[i].pool(), built_len, &mut secs, &mut cms)
                .map_err(EngineError::Storage)?;
            t.install_access_structures(secs, cms);
            if !analyze.is_empty() {
                t.analyze_cols(analyze);
            }
        }
        self.log_design_change(&entry.name, &lt.parts[0].read());
        Ok(applied)
    }

    /// Append a [`LogPayload::DesignChange`] record describing `t`'s
    /// complete access-structure set (every shard carries the same set),
    /// so a restart whose checkpoint image predates the change rebuilds
    /// the structures during redo. Design changes are auto-committed —
    /// like the DDL itself, they are never rolled back.
    fn log_design_change(&self, table: &str, t: &Table) {
        let design = crate::recovery::encode_structures(t);
        self.wal.log(
            AUTOCOMMIT_TXN,
            &LogPayload::DesignChange { table: table.to_string(), design },
        );
    }

    /// Names of every table in the catalog (sorted).
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Catalog summary for one table.
    pub fn table_info(&self, table: &str) -> Result<TableInfo> {
        let entry = self.entry(table)?;
        Ok(Self::entry_info(&entry))
    }

    /// A table's schema (available as soon as the table is created).
    pub fn table_schema(&self, table: &str) -> Result<Arc<Schema>> {
        Ok(self.entry(table)?.schema.clone())
    }

    /// Catalog summaries for every table, sorted by name. The catalog
    /// lock is held only to snapshot the entry `Arc`s; per-table state
    /// is read outside it, so a long-running DDL on one table cannot
    /// stall the listing of the others.
    pub fn table_infos(&self) -> Vec<TableInfo> {
        let entries: Vec<Arc<TableEntry>> =
            self.catalog.read().values().cloned().collect();
        let mut infos: Vec<TableInfo> =
            entries.iter().map(|e| Self::entry_info(e)).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    fn entry_info(entry: &TableEntry) -> TableInfo {
        let loaded = entry.loaded.read();
        match loaded.as_ref() {
            Some(lt) => {
                let (mut rows, mut pages) = (0u64, 0u64);
                let (mut secondaries, mut cms) = (0usize, 0usize);
                for (i, part) in lt.parts.iter().enumerate() {
                    let t = part.read();
                    rows += t.heap().len();
                    pages += t.heap().num_pages();
                    if i == 0 {
                        secondaries = t.secondaries().len();
                        cms = t.cms().len();
                    }
                }
                TableInfo {
                    name: entry.name.clone(),
                    loaded: true,
                    rows,
                    pages,
                    shards: lt.parts.len(),
                    secondaries,
                    cms,
                }
            }
            None => TableInfo {
                name: entry.name.clone(),
                loaded: false,
                rows: 0,
                pages: 0,
                shards: 0,
                secondaries: 0,
                cms: 0,
            },
        }
    }

    /// Run `f` with shared (read-locked) access to a single-shard
    /// table's partition — the escape hatch for tooling layered on the
    /// engine, e.g. the CM Advisor. Errors on multi-shard tables; use
    /// [`Engine::with_shard`] there.
    pub fn with_table<R>(&self, table: &str, f: impl FnOnce(&Table) -> R) -> Result<R> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        if lt.parts.len() != 1 {
            return Err(EngineError::ShardedTable(entry.name.clone()));
        }
        let part = lt.parts[0].read();
        let out = f(&part);
        drop(part);
        Ok(out)
    }

    /// Run `f` with shared access to one shard's partition of a table.
    pub fn with_shard<R>(
        &self,
        table: &str,
        shard: usize,
        f: impl FnOnce(&Table) -> R,
    ) -> Result<R> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let part = lt
            .parts
            .get(shard)
            .ok_or_else(|| EngineError::BadRid { table: entry.name.clone(), rid: shard as u64 })?;
        let part = part.read();
        let out = f(&part);
        drop(part);
        Ok(out)
    }

    /// Run `f` over every shard's partition of a table, in shard order.
    pub fn with_each_shard(
        &self,
        table: &str,
        mut f: impl FnMut(usize, &Table),
    ) -> Result<()> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        for (i, part) in lt.parts.iter().enumerate() {
            f(i, &part.read());
        }
        Ok(())
    }

    // ---- queries ------------------------------------------------------

    /// Execute a query, routing it to the shards it overlaps and, on
    /// each shard, to the access path the cost model estimates cheapest
    /// for the shard-restricted predicate. Reads go through the shards'
    /// buffer pools.
    pub fn execute(&self, table: &str, q: &Query) -> Result<QueryOutcome> {
        self.execute_inner(table, q, None, false, false)
    }

    /// [`Engine::execute`], also collecting the matching rows.
    pub fn execute_collect(&self, table: &str, q: &Query) -> Result<QueryOutcome> {
        self.execute_inner(table, q, None, true, false)
    }

    /// Execute through a specific access path (experiments and oracles).
    pub fn execute_via(
        &self,
        table: &str,
        path: AccessPath,
        q: &Query,
    ) -> Result<QueryOutcome> {
        self.execute_inner(table, q, Some(path), false, false)
    }

    /// [`Engine::execute_via`], also collecting the matching rows.
    pub fn execute_via_collect(
        &self,
        table: &str,
        path: AccessPath,
        q: &Query,
    ) -> Result<QueryOutcome> {
        self.execute_inner(table, q, Some(path), true, false)
    }

    /// The planner's decisions for a query, without executing it: one
    /// leg per shard the query would touch, each carrying that shard's
    /// restricted predicate and chosen access path. Use
    /// [`cm_query::QueryPlan::primary`] for the first leg's choice.
    pub fn explain(&self, table: &str, q: &Query) -> Result<QueryPlan> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        Ok(self.plan_query(lt, q, None))
    }

    /// The shard ids a query fans out to (routing diagnostics).
    pub fn route_shards(&self, table: &str, q: &Query) -> Result<Vec<usize>> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        Ok(lt.router.shards_for(q))
    }

    /// **Plan phase**: snapshot routing and per-shard cost decisions
    /// into a [`QueryPlan`]. Each overlapping shard contributes one leg
    /// with the query intersected with the shard's ownership range (so
    /// CM lookups, planner estimates, and index probes on that shard see
    /// only the in-range slice) and the access path the cost model
    /// picked against the shard's own statistics. A forced path
    /// overrides every leg's choice; a forced path the planner didn't
    /// cost (no statistics, or no predicate on the index's leading
    /// column) keeps a NaN estimate instead of borrowing the cheapest
    /// path's number.
    pub(crate) fn plan_query(
        &self,
        lt: &LoadedTable,
        q: &Query,
        forced: Option<AccessPath>,
    ) -> QueryPlan {
        let mut legs = Vec::new();
        for i in lt.router.shards_for(q) {
            let Some(sub) = restrict_to_shard(q, lt.router.col(), &lt.router.range_of(i))
            else {
                continue;
            };
            let waited = std::time::Instant::now();
            let part = lt.parts[i].read();
            self.note_read_stall(waited.elapsed());
            let mut choice = self.planner.choose(&part, &sub);
            drop(part);
            if let Some(p) = forced {
                choice.est_ms = choice
                    .alternatives
                    .iter()
                    .find(|(alt, _)| *alt == p)
                    .map(|(_, est)| *est)
                    .unwrap_or(f64::NAN);
                choice.path = p;
            }
            legs.push(ShardLeg { shard: i, query: sub, choice });
        }
        QueryPlan::new(legs)
    }

    /// **Execute phase**, one leg: run the planned path against the
    /// leg's shard backend with its own [`ExecContext`], buffering any
    /// collected rows per leg (merged by the caller in shard order).
    /// The scan paths (full, sorted, CM) sweep their heap pages as
    /// vectored runs; the pipelined path deliberately keeps per-fetch
    /// charging (the paper's §3.1 model). A forced secondary path the
    /// index cannot serve (no predicate on its first key column)
    /// surfaces as [`EngineError::Query`].
    pub(crate) fn run_leg(
        &self,
        lt: &LoadedTable,
        leg: &ShardLeg,
        collect: bool,
        cold: bool,
        snap: Option<&Snapshot>,
    ) -> Result<(RunResult, Vec<Row>)> {
        let mut rows: Vec<Row> = Vec::new();
        // A collected row is copied whole; a counted one is not read.
        let reads: Option<&[usize]> = if collect { None } else { Some(&[]) };
        let r = self.run_leg_visit(lt, leg, cold, snap, reads, |row| {
            if collect {
                rows.push(row.to_vec());
            }
        })?;
        Ok((r, rows))
    }

    /// [`Engine::run_leg`] with an arbitrary visitor over the leg's
    /// matching rows — the shared execute core single-table collection,
    /// per-leg aggregation folds, and hash-join probes all drive.
    /// `reads` is [`ExecContext::reads`]: the columns `visit` reads,
    /// `None` for any.
    pub(crate) fn run_leg_visit(
        &self,
        lt: &LoadedTable,
        leg: &ShardLeg,
        cold: bool,
        snap: Option<&Snapshot>,
        reads: Option<&[usize]>,
        mut visit: impl FnMut(&[cm_storage::Value]),
    ) -> Result<RunResult> {
        let waited = std::time::Instant::now();
        let part = lt.parts[leg.shard].read();
        self.note_read_stall(waited.elapsed());
        let t = &*part;
        let backend = &self.backends[leg.shard];
        let mut ctx = if cold {
            ExecContext::cold(backend.disk())
        } else {
            ExecContext::through(backend.disk(), backend.pool())
        };
        if let Some(s) = snap {
            ctx = ctx.at_snapshot(s);
        }
        ctx.reads = reads;
        let q = &leg.query;
        let r = match leg.choice.path {
            AccessPath::FullScan => t.exec_full_scan_visit(&ctx, q, &mut visit),
            AccessPath::SecondarySorted(id) => {
                t.exec_secondary_sorted_visit(&ctx, id, q, &mut visit)?
            }
            AccessPath::SecondaryPipelined(id) => {
                t.exec_secondary_pipelined_visit(&ctx, id, q, &mut visit)?
            }
            AccessPath::CmScan(id) => t.exec_cm_scan_visit(&ctx, id, q, &mut visit),
        };
        Ok(r)
    }

    /// Record one read query in the table's workload profile: per
    /// predicated column, the estimated lookup-key count and the hashes
    /// of the predicated values (the column's hot set). Only range
    /// predicates need statistics (estimated from shard 0's partition,
    /// whose read lock is taken lazily and only then, so point-query
    /// profiling never couples shards); columns without statistics fall
    /// back to one lookup key.
    pub(crate) fn profile_read(&self, entry: &TableEntry, lt: &LoadedTable, q: &Query) {
        let cols = q.predicated_cols();
        let mut noted: Vec<(usize, f64, Vec<u64>)> = Vec::with_capacity(cols.len());
        let mut t0 = None;
        for col in cols {
            let Some(pred) = q.pred_on(col) else { continue };
            let (keys, hashes) = match &pred.op {
                PredOp::Eq(v) => (1.0, vec![WorkloadProfile::hash_value(v)]),
                PredOp::In(vs) => (
                    vs.len() as f64,
                    vs.iter().map(WorkloadProfile::hash_value).collect(),
                ),
                PredOp::Between(lo, hi) => {
                    let t0 = t0.get_or_insert_with(|| lt.parts[0].read());
                    let keys = Planner::range_fraction(t0, col, lo, hi)
                        .and_then(|f| {
                            t0.col_stats(col)
                                .map(|s| (f * s.corr.distinct_u as f64).max(1.0))
                        })
                        .unwrap_or(1.0);
                    (keys, vec![WorkloadProfile::hash_value(&(lo, hi))])
                }
            };
            noted.push((col, keys, hashes));
        }
        drop(t0);
        let mut profile = entry.profile.lock();
        profile.note_read();
        for (col, keys, hashes) in noted {
            profile.note_pred(col, keys, &hashes);
        }
    }

    pub(crate) fn execute_inner(
        &self,
        table: &str,
        q: &Query,
        forced: Option<AccessPath>,
        collect: bool,
        cold: bool,
    ) -> Result<QueryOutcome> {
        let entry = self.entry(table)?;
        // The table-level lock is the reader's first blocking point: an
        // offline (non-MVCC) `apply_design` holds its *write* side for
        // the whole rebuild, so the wait belongs in the stall counters
        // alongside the shard-lock waits.
        let waited = std::time::Instant::now();
        let loaded = entry.loaded.read();
        self.note_read_stall(waited.elapsed());
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        self.profile_read(&entry, lt, q);

        // MVCC engines read at a snapshot: acquired once, before the
        // plan phase, so every fan-out leg filters row visibility at
        // the same clock tick however the legs are scheduled. The
        // registration pins the timestamp against vacuum until the
        // query (all legs) is done.
        let snap = self.mvcc.as_ref().map(|mv| mv.begin());
        let snap_ref = snap.as_ref();

        // Plan phase: routing + per-shard path choices, snapshotted.
        let plan = self.plan_query(lt, q, forced);

        // Execute phase: single-leg (or single-worker) plans run inline;
        // multi-leg plans fan out on the shared worker pool, each leg on
        // its own shard backend. Results come back in leg (shard) order
        // either way, so merging is deterministic. Legs are read-only, so
        // surfacing the first failed leg's error loses nothing.
        let leg_runs: Vec<Result<(RunResult, Vec<Row>)>> =
            if plan.legs.len() <= 1 || self.executor.workers() == 1 {
                plan.legs
                    .iter()
                    .map(|leg| self.run_leg(lt, leg, collect, cold, snap_ref))
                    .collect()
            } else {
                self.executor.run(
                    plan.legs
                        .iter()
                        .map(|leg| move || self.run_leg(lt, leg, collect, cold, snap_ref))
                        .collect(),
                )
            };

        let mut run = RunResult { matched: 0, examined: 0, io: IoStats::default() };
        let mut rows: Vec<Row> = Vec::new();
        let mut legs: Vec<LegOutcome> = Vec::with_capacity(plan.legs.len());
        let mut leg_ms: Vec<f64> = Vec::with_capacity(plan.legs.len());
        // Merge in explicit `merge_key` order — never completion order.
        // The executor returns results in submission order and
        // `QueryPlan::new` normalised submission to ascending merge key,
        // so however many workers raced the legs, this pairing (and the
        // concatenated row order below) is identical on 1 or N workers.
        let mut paired: Vec<(ShardLeg, LegRun)> =
            plan.legs.into_iter().zip(leg_runs).collect();
        paired.sort_by_key(|(leg, _)| leg.merge_key());
        for (leg, leg_run) in paired {
            let (r, leg_rows) = leg_run?;
            run.matched += r.matched;
            run.examined += r.examined;
            run.io.add(&r.io);
            leg_ms.push(r.io.elapsed_ms);
            rows.extend(leg_rows);
            if forced.is_none() {
                // Every leg is a routing decision of its own: per-shard
                // statistics can pick different paths per shard, and an
                // under-counted multi-shard query would skew the route
                // tallies.
                self.note_route(leg.choice.path);
            }
            legs.push(LegOutcome { shard: leg.shard, choice: leg.choice, run: r });
        }
        let parallel_ms = scheduled_makespan(&leg_ms, self.executor.workers());

        let plan_summary = legs.first().map(|l| l.choice.clone()).unwrap_or_else(|| {
            // Every shard was pruned (e.g. an inverted range): report the
            // forced path or a zero-cost scan, with no alternatives.
            let mut p = PlanChoice::empty();
            if let Some(f) = forced {
                p.path = f;
                p.est_ms = f64::NAN;
            }
            p
        });
        self.queries.fetch_add(1, Ordering::Relaxed);
        let shards = legs.iter().map(|l| l.shard).collect();
        Ok(QueryOutcome {
            plan: plan_summary,
            run,
            legs,
            parallel_ms,
            shards,
            rows: collect.then_some(rows),
        })
    }

    // ---- writes -------------------------------------------------------

    /// INSERT one row, routed to the shard owning its clustered key and
    /// maintaining every access structure there (heap write through the
    /// shard's pool, B+Tree postings charged, CM updates memory-only),
    /// with WAL records appended to the engine log. Call
    /// [`Engine::commit`] to force the log. The returned RID carries the
    /// shard tag.
    pub fn insert(&self, table: &str, row: Row) -> Result<Rid> {
        self.insert_txn(table, row, AUTOCOMMIT_TXN)
    }

    /// [`Engine::insert`] tagged with a session transaction id: the
    /// typed [`LogPayload::Insert`] record carries `txn`, and recovery
    /// rolls the insert back unless a matching commit record survives
    /// ([`AUTOCOMMIT_TXN`] is always committed).
    pub fn insert_txn(&self, table: &str, row: Row, txn: u64) -> Result<Rid> {
        let entry = self.entry(table)?;
        entry.schema.validate(&row).map_err(EngineError::Storage)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let shard = lt.router.shard_of_row(&row);
        // The maintenance volume is gathered into a detached batch, the
        // typed redo record is appended to it, and the whole batch goes
        // to the shared log *before the shard lock drops*: a fuzzy
        // checkpoint snapshots shards under this lock, so every mutation
        // its image can contain is already in the log, and per-shard
        // record order always matches mutation order (redo replays a
        // shard's history exactly as it happened).
        let mut batch = WalBatch::new();
        let rid = {
            let mut t = lt.parts[shard].write();
            let redo_row = row.clone();
            let rid = t.insert_row(self.backends[shard].pool(), Some(&mut batch), row)?;
            if let Some(mv) = &self.mvcc {
                // Autocommit single-shard writes stamp a plain commit
                // timestamp directly: any snapshot new enough to see it
                // is still waiting on this shard's write lock. Session
                // transactions stamp their txn marker, resolved by the
                // commit table at `log_commit`.
                let begin =
                    if txn == AUTOCOMMIT_TXN { mv.next_ts() } else { pending_stamp(txn) };
                t.set_begin_stamp(rid, begin);
            }
            batch.push(
                txn,
                &LogPayload::Insert {
                    table: entry.name.clone(),
                    shard: shard as u16,
                    rid: rid.0,
                    row: redo_row,
                },
            );
            self.wal.append_batch(&batch);
            rid
        };
        self.inserts.fetch_add(1, Ordering::Relaxed);
        entry.profile.lock().note_write();
        Ok(Rid::sharded(shard, rid))
    }

    /// INSERT a batch of rows with one shard-lock hold per touched
    /// shard (autocommit).
    pub fn insert_many(&self, table: &str, rows: Vec<Row>) -> Result<Vec<Rid>> {
        self.insert_many_txn(table, rows, AUTOCOMMIT_TXN)
    }

    /// [`Engine::insert_many`] tagged with a session transaction id.
    ///
    /// Rows are routed to their shards up front, then each shard group
    /// is inserted — heap append, access-structure maintenance, MVCC
    /// begin stamps, and the typed redo records — under a *single*
    /// write-lock acquisition, with one WAL batch appended before that
    /// lock drops. Row-at-a-time ingest takes the lock and logs once
    /// per row, so a burst of inserts becomes a stream of short
    /// exclusive holds that concurrent readers keep tripping over;
    /// batching amortizes both. Groups larger than `INSERT_CHUNK` (128)
    /// rows release the lock between chunks so a bulk load never
    /// becomes one long exclusive hold. Returned rids line up with the
    /// input row order.
    pub fn insert_many_txn(&self, table: &str, rows: Vec<Row>, txn: u64) -> Result<Vec<Rid>> {
        let entry = self.entry(table)?;
        for row in &rows {
            entry.schema.validate(row).map_err(EngineError::Storage)?;
        }
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let total = rows.len();
        let mut by_shard: Vec<Vec<(usize, Row)>> = vec![Vec::new(); lt.parts.len()];
        for (pos, row) in rows.into_iter().enumerate() {
            by_shard[lt.router.shard_of_row(&row)].push((pos, row));
        }
        let mut rids: Vec<Rid> = vec![Rid(0); total];
        for (shard, group) in by_shard.into_iter().enumerate() {
            let mut queued = group.into_iter().peekable();
            while queued.peek().is_some() {
                let mut batch = WalBatch::new();
                let mut t = lt.parts[shard].write();
                let mut failed = None;
                for (pos, row) in queued.by_ref().take(INSERT_CHUNK) {
                    let redo_row = row.clone();
                    match t.insert_row(self.backends[shard].pool(), Some(&mut batch), row) {
                        Ok(rid) => {
                            if let Some(mv) = &self.mvcc {
                                // Same stamping rule as `insert_txn`:
                                // plain commit timestamps for autocommit
                                // (no snapshot new enough to see them
                                // can be running — it would be waiting
                                // on this write lock), pending markers
                                // for session transactions.
                                let begin = if txn == AUTOCOMMIT_TXN {
                                    mv.next_ts()
                                } else {
                                    pending_stamp(txn)
                                };
                                t.set_begin_stamp(rid, begin);
                            }
                            batch.push(
                                txn,
                                &LogPayload::Insert {
                                    table: entry.name.clone(),
                                    shard: shard as u16,
                                    rid: rid.0,
                                    row: redo_row,
                                },
                            );
                            self.inserts.fetch_add(1, Ordering::Relaxed);
                            rids[pos] = Rid::sharded(shard, rid);
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                // Even on a mid-chunk failure the records gathered so
                // far go to the log before the lock drops: a fuzzy
                // checkpoint may already have imaged the rows that
                // *did* land, so the log must cover them (same
                // ordering rule as `insert_txn`).
                self.wal.append_batch(&batch);
                drop(t);
                if let Some(e) = failed {
                    return Err(e.into());
                }
            }
        }
        entry.profile.lock().note_writes(total as u64);
        Ok(rids)
    }

    /// DELETE one row by (shard-tagged) RID, retracting it from every
    /// access structure on its shard.
    pub fn delete(&self, table: &str, rid: Rid) -> Result<Row> {
        self.delete_txn(table, rid, AUTOCOMMIT_TXN)
    }

    /// [`Engine::delete`] tagged with a session transaction id: the
    /// typed [`LogPayload::Delete`] record carries the before-image of
    /// the victim row so recovery can undo the delete when `txn` never
    /// committed.
    pub fn delete_txn(&self, table: &str, rid: Rid, txn: u64) -> Result<Row> {
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let shard = rid.shard_index();
        if shard >= lt.parts.len() {
            return Err(EngineError::BadRid { table: entry.name.clone(), rid: rid.0 });
        }
        let mut batch = WalBatch::new();
        // Appended inside the shard lock for the same fuzzy-checkpoint
        // ordering guarantee as `insert_txn`.
        let row = {
            let mut t = lt.parts[shard].write();
            let row = if let Some(mv) = &self.mvcc {
                // MVCC delete: only end-stamp the version. Heap bytes and
                // access-structure entries stay for older snapshots; vacuum
                // reclaims them once no live snapshot can see the version.
                if t.stamp_of(rid.local()).1 != LIVE_TS {
                    return Err(EngineError::BadRid { table: entry.name.clone(), rid: rid.0 });
                }
                let end =
                    if txn == AUTOCOMMIT_TXN { mv.next_ts() } else { pending_stamp(txn) };
                t.end_version(self.backends[shard].pool(), rid.local(), end)
                    .map_err(EngineError::Storage)?
            } else {
                t.delete_row(self.backends[shard].pool(), Some(&mut batch), rid.local())?
            };
            batch.push(
                txn,
                &LogPayload::Delete {
                    table: entry.name.clone(),
                    shard: shard as u16,
                    rid: rid.local().0,
                    row: row.clone(),
                },
            );
            self.wal.append_batch(&batch);
            row
        };
        if self.mvcc.is_some() {
            self.gc_deletes.fetch_add(1, Ordering::Relaxed);
        }
        self.deletes.fetch_add(1, Ordering::Relaxed);
        entry.profile.lock().note_write();
        Ok(row)
    }

    /// DELETE every row matching `q` on one shard (scan under the shard
    /// write lock, WAL records gathered into a detached batch and
    /// appended — with one typed [`LogPayload::DeleteSet`] carrying the
    /// victims' before-images — before the lock drops): the per-shard
    /// leg of [`Engine::delete_where`].
    fn delete_where_leg(
        &self,
        entry: &TableEntry,
        lt: &LoadedTable,
        shard: usize,
        sub: &Query,
        txn: u64,
    ) -> Result<Vec<Rid>> {
        if let Some(mv) = &self.mvcc {
            return self.delete_where_leg_mvcc(entry, lt, shard, sub, txn, mv);
        }
        let mut batch = WalBatch::new();
        let mut tagged: Vec<Rid> = Vec::new();
        let mut t = lt.parts[shard].write();
        let pool = self.backends[shard].pool();
        let mut local: Vec<Rid> = Vec::new();
        // The victim scan sweeps the whole shard heap as one vectored run
        // through the pool — one seek even while other shards' legs (or
        // the WAL) share their devices.
        if let Some(last) = t.heap().num_pages().checked_sub(1) {
            t.sweep_run(pool, None, sub, Some(&[]), 0, last, |rid, _| local.push(rid))?;
        }
        let mut victims_log: Vec<(u64, Row)> = Vec::with_capacity(local.len());
        for &rid in &local {
            let row = t.delete_row(pool, Some(&mut batch), rid)?;
            victims_log.push((rid.0, row));
            tagged.push(Rid::sharded(shard, rid));
        }
        if !victims_log.is_empty() {
            batch.push(
                txn,
                &LogPayload::DeleteSet {
                    table: entry.name.clone(),
                    shard: shard as u16,
                    victims: victims_log,
                },
            );
        }
        self.wal.append_batch(&batch);
        Ok(tagged)
    }

    /// The MVCC shape of [`Engine::delete_where`]'s per-shard leg: the
    /// victim scan runs under the shard *read* lock against a fresh
    /// snapshot (concurrent readers keep flowing), then a brief write
    /// lock end-stamps the victims with the transaction's pending mark.
    /// Rows whose end stamp changed between the two phases — another
    /// writer got there first, or vacuum reclaimed the slot — are
    /// skipped, so the delete never clobbers a concurrent writer. The
    /// [`LogPayload::DeleteSet`] record is appended inside the write
    /// lock for the same fuzzy-checkpoint ordering guarantee as the
    /// non-MVCC leg.
    fn delete_where_leg_mvcc(
        &self,
        entry: &TableEntry,
        lt: &LoadedTable,
        shard: usize,
        sub: &Query,
        txn: u64,
        mv: &Arc<MvccState>,
    ) -> Result<Vec<Rid>> {
        let pool = self.backends[shard].pool();
        // Phase 1: snapshot scan under the read lock.
        let mut local: Vec<Rid> = Vec::new();
        {
            let t = lt.parts[shard].read();
            let snap = mv.begin();
            if let Some(last) = t.heap().num_pages().checked_sub(1) {
                t.sweep_run(pool, Some(&snap), sub, Some(&[]), 0, last, |rid, _| local.push(rid))?;
            }
        }
        // Phase 2: brief write lock — stamp, log, done.
        let mut batch = WalBatch::new();
        let mut tagged: Vec<Rid> = Vec::new();
        let mut victims_log: Vec<(u64, Row)> = Vec::with_capacity(local.len());
        {
            let mut t = lt.parts[shard].write();
            for &rid in &local {
                if t.stamp_of(rid).1 != LIVE_TS {
                    continue;
                }
                let row = t
                    .end_version(pool, rid, pending_stamp(txn))
                    .map_err(EngineError::Storage)?;
                victims_log.push((rid.0, row));
                tagged.push(Rid::sharded(shard, rid));
            }
            if !victims_log.is_empty() {
                batch.push(
                    txn,
                    &LogPayload::DeleteSet {
                        table: entry.name.clone(),
                        shard: shard as u16,
                        victims: victims_log,
                    },
                );
            }
            self.wal.append_batch(&batch);
        }
        self.gc_deletes.fetch_add(tagged.len() as u64, Ordering::Relaxed);
        Ok(tagged)
    }

    /// DELETE every row matching `q` (found by a charged scan of the
    /// overlapping shards); returns the victims' shard-tagged RIDs, in
    /// shard order. Like reads, the per-shard legs fan out on the worker
    /// pool — each leg holds only its own shard's write lock, so a
    /// multi-shard purge doesn't serialize the scans.
    pub fn delete_where(&self, table: &str, q: &Query) -> Result<Vec<Rid>> {
        self.delete_where_txn(table, q, AUTOCOMMIT_TXN)
    }

    /// [`Engine::delete_where`] tagged with a session transaction id:
    /// each shard leg logs one [`LogPayload::DeleteSet`] record carrying
    /// its victims' before-images under `txn`.
    pub fn delete_where_txn(&self, table: &str, q: &Query, txn: u64) -> Result<Vec<Rid>> {
        // An MVCC autocommit purge spans shards, so it cannot use plain
        // timestamps (a snapshot taken between two legs would see a torn
        // half-delete). It borrows an internal transaction instead: legs
        // stamp its pending mark, and visibility flips atomically at the
        // commit record appended below once every leg succeeded. On a leg
        // error the commit never happens — the stamps stay unresolvable
        // (invisible as deletes) and recovery rolls the log records back.
        let (txn, implicit) = match &self.mvcc {
            Some(_) if txn == AUTOCOMMIT_TXN => (self.alloc_txn(), true),
            _ => (txn, false),
        };
        let entry = self.entry(table)?;
        let loaded = entry.loaded.read();
        let lt = loaded.as_ref().ok_or_else(|| EngineError::NotLoaded(entry.name.clone()))?;
        let legs: Vec<(usize, Query)> = lt
            .router
            .shards_for(q)
            .into_iter()
            .filter_map(|i| {
                restrict_to_shard(q, lt.router.col(), &lt.router.range_of(i))
                    .map(|sub| (i, sub))
            })
            .collect();
        let results: Vec<Result<Vec<Rid>>> =
            if legs.len() <= 1 || self.executor.workers() == 1 {
                legs.iter()
                    .map(|(i, sub)| self.delete_where_leg(&entry, lt, *i, sub, txn))
                    .collect()
            } else {
                self.executor.run(
                    legs.iter()
                        .map(|(i, sub)| {
                            let entry = &entry;
                            move || self.delete_where_leg(entry, lt, *i, sub, txn)
                        })
                        .collect(),
                )
            };
        // Merge in shard order. Legs that succeeded have already mutated
        // their shard and appended their WAL batch, so their counters and
        // victim RIDs are recorded even when another leg failed — only
        // then is the first error surfaced.
        let mut victims: Vec<Rid> = Vec::new();
        let mut first_err: Option<EngineError> = None;
        for res in results {
            match res {
                Ok(tagged) => {
                    self.deletes.fetch_add(tagged.len() as u64, Ordering::Relaxed);
                    entry.profile.lock().note_writes(tagged.len() as u64);
                    victims.extend(tagged);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => {
                if implicit {
                    self.log_commit(txn);
                }
                Ok(victims)
            }
        }
    }

    /// Make every appended WAL record durable (group commit point);
    /// returns the I/O this call charged — zero when a concurrent
    /// leader's flush covered it. May also trigger an automatic fuzzy
    /// checkpoint when [`EngineConfig::checkpoint_every`] records have
    /// accumulated since the last one.
    pub fn commit(&self) -> IoStats {
        let io = self.wal.commit();
        self.maybe_checkpoint();
        self.maybe_vacuum();
        io
    }

    /// Multi-version garbage collection: under each shard's write lock,
    /// rewrite every resolvable pending stamp to its plain commit
    /// timestamp, then physically reclaim (heap tombstone + access
    /// structure retraction) the versions whose end timestamp is at or
    /// below the oldest live snapshot — no current or future reader can
    /// see them. Returns `(stamps_resolved, versions_reclaimed)`; a
    /// no-op `(0, 0)` without MVCC. Logs nothing: the logical deletes
    /// that ended these versions are already in the WAL, and a
    /// checkpoint image materializes ended versions as tombstones.
    ///
    /// Reclaim work is chunked (see [`vacuum_locked`](Self::vacuum)
    /// internals): each shard write-lock hold retracts at most
    /// `VACUUM_CHUNK` versions, keeping reader stalls bounded however
    /// large the dead backlog has grown.
    pub fn vacuum(&self) -> Result<(u64, u64)> {
        let _serialized = self.vacuum_lock.lock();
        self.vacuum_locked()
    }

    /// The vacuum pass body; callers must hold `vacuum_lock`.
    ///
    /// Physical reclaim chunks its shard write-lock holds at
    /// [`VACUUM_CHUNK`] versions, so a reader arriving mid-vacuum waits
    /// for one bounded chunk instead of the whole backlog.
    fn vacuum_locked(&self) -> Result<(u64, u64)> {
        let Some(mv) = &self.mvcc else { return Ok((0, 0)) };
        // Commit-table entries at or below the clock *now* are prunable
        // afterwards: a transaction's stamps are all written before its
        // commit record, so this pass rewrites every one of them.
        let cutoff = mv.now();
        let oldest = mv.oldest_live();
        let entries: Vec<Arc<TableEntry>> = self.catalog.read().values().cloned().collect();
        let mut resolved = 0u64;
        let mut reclaimed = 0u64;
        for entry in entries {
            let loaded = entry.loaded.read();
            let Some(lt) = loaded.as_ref() else { continue };
            for (i, part) in lt.parts.iter().enumerate() {
                // One hold rewrites stamps and collects the victims...
                let victims = {
                    let mut t = part.write();
                    resolved += t.resolve_stamps(|stamp| mv.resolve(stamp));
                    t.reclaimable(oldest)
                };
                // ...then the physical reclaim runs in bounded holds so
                // concurrent readers never wait out a full pass. Rids
                // are stable slot ids, nothing resurrects an ended
                // version, and `vacuum_lock` keeps other vacuums out,
                // so releasing the shard between chunks is safe.
                for chunk in victims.chunks(VACUUM_CHUNK) {
                    let mut t = part.write();
                    for rid in chunk {
                        t.delete_row(self.backends[i].pool(), None, *rid)?;
                        reclaimed += 1;
                    }
                }
            }
        }
        mv.prune_commits(cutoff);
        mv.note_resolved(resolved);
        mv.note_reclaimed(reclaimed);
        mv.note_vacuum();
        Ok((resolved, reclaimed))
    }

    /// Auto-vacuum trigger, piggybacked on commit points: runs a
    /// [`Engine::vacuum`] pass once [`EngineConfig::gc_every`] MVCC
    /// deletes have accumulated. Skips (rather than queues) when a
    /// vacuum is already running.
    pub(crate) fn maybe_vacuum(&self) {
        if self.mvcc.is_none() || self.config.gc_every == 0 {
            return;
        }
        if self.gc_deletes.load(Ordering::Relaxed) < self.config.gc_every {
            return;
        }
        if let Some(_serialized) = self.vacuum_lock.try_lock() {
            self.gc_deletes.store(0, Ordering::Relaxed);
            let _ = self.vacuum_locked();
        }
    }

    /// Allocate a fresh transaction id for a session's write batch.
    /// Ids are never reused; [`AUTOCOMMIT_TXN`] (0) is reserved for
    /// writes that commit implicitly.
    pub(crate) fn alloc_txn(&self) -> u64 {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a commit record for `txn` (no-op for [`AUTOCOMMIT_TXN`]).
    /// Durability still requires a subsequent [`Engine::commit`] flush.
    ///
    /// Under MVCC this is also the *visibility* point: the transaction
    /// gets its commit timestamp from the global clock, the commit
    /// table resolves the transaction's pending stamps, and the record
    /// carries the timestamp so recovery can restore the clock.
    /// Non-MVCC engines log `ts = 0`.
    pub fn log_commit(&self, txn: u64) {
        if txn != AUTOCOMMIT_TXN {
            let ts = match &self.mvcc {
                Some(mv) => mv.commit_txn(txn),
                None => 0,
            };
            self.wal.log(txn, &LogPayload::Commit { ts });
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

    /// Flush every shard's buffer pool (between-trial cache flushing, as
    /// in the paper's methodology); returns the I/O charged.
    pub fn flush_pool(&self) -> IoStats {
        let mut io = IoStats::default();
        for b in &self.backends {
            io.add(&b.flush());
        }
        io
    }

    // ---- statistics ---------------------------------------------------

    /// Cumulative engine statistics. Catalog-derived aggregates snapshot
    /// the entry `Arc`s under one brief catalog read lock, then read
    /// per-table state outside it.
    pub fn stats(&self) -> EngineStats {
        let infos = self.table_infos();
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            routes: self.route_counts(),
            io: self.io_totals(),
            pool: self.pool_totals(),
            wal_records: self.wal.records(),
            wal_durable_bytes: self.wal.durable_bytes(),
            wal: self.wal.stats(),
            tables: infos.len(),
            total_rows: infos.iter().map(|i| i.rows).sum(),
            mvcc: self.mvcc_stats(),
            read_stall_ms: self.read_stall_ns.load(Ordering::Relaxed) as f64 / 1e6,
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
            read_stall_max_ms: self.read_stall_max_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }

    /// Shortest read-lock wait counted as a stall in
    /// [`EngineStats::read_stalls`]: waits under 50µs are the ordinary
    /// cost of an uncontended acquisition (plus timer noise), not a
    /// reader blocked behind a writer. The *total* in
    /// [`EngineStats::read_stall_ms`] accumulates every wait regardless,
    /// so mean wait-per-read stays unbiased.
    pub const STALL_FLOOR: Duration = Duration::from_micros(50);

    /// Fold one shard-read-lock acquisition wait into the stall counters
    /// (see [`EngineStats::read_stall_ms`]).
    pub(crate) fn note_read_stall(&self, waited: Duration) {
        let ns = waited.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.read_stall_ns.fetch_add(ns, Ordering::Relaxed);
        if waited >= Self::STALL_FLOOR {
            self.read_stalls.fetch_add(1, Ordering::Relaxed);
            self.read_stall_max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// WAL group-commit behaviour counters.
    pub fn wal_stats(&self) -> GroupCommitStats {
        self.wal.stats()
    }

    /// Routing decisions by chosen path (cost-based executions only;
    /// forced paths are not counted).
    pub fn route_counts(&self) -> RouteCounts {
        RouteCounts {
            full_scan: self.route_full.load(Ordering::Relaxed),
            secondary_sorted: self.route_sorted.load(Ordering::Relaxed),
            secondary_pipelined: self.route_pipelined.load(Ordering::Relaxed),
            cm_scan: self.route_cm.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_route(&self, path: AccessPath) {
        let counter = match path {
            AccessPath::FullScan => &self.route_full,
            AccessPath::SecondarySorted(_) => &self.route_sorted,
            AccessPath::SecondaryPipelined(_) => &self.route_pipelined,
            AccessPath::CmScan(_) => &self.route_cm,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn entry(&self, table: &str) -> Result<Arc<TableEntry>> {
        self.catalog
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))
    }
}

// The engine must be shareable across session threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::CmSpec;
    use cm_query::Pred;
    use cm_storage::{Column, Value, ValueType};

    fn demo_rows(n: i64, cats: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let cat = i % cats;
                vec![Value::Int(cat), Value::Int(cat * 100 + (i * 7) % 100)]
            })
            .collect()
    }

    fn demo_engine_with(config: EngineConfig) -> Arc<Engine> {
        let engine = Engine::new(config);
        let schema = Arc::new(Schema::new(vec![
            Column::new("catid", ValueType::Int),
            Column::new("price", ValueType::Int),
        ]));
        engine.create_table("items", schema, 0, 20, 100).unwrap();
        engine.load("items", demo_rows(5000, 100)).unwrap();
        engine
    }

    fn demo_engine() -> Arc<Engine> {
        demo_engine_with(EngineConfig::default())
    }

    #[test]
    fn create_load_query_roundtrip() {
        let engine = demo_engine();
        let info = engine.table_info("items").unwrap();
        assert!(info.loaded);
        assert_eq!(info.rows, 5000);
        assert_eq!(info.shards, 1);
        let out = engine
            .execute("items", &Query::single(Pred::eq(0, 42i64)))
            .unwrap();
        assert_eq!(out.run.matched, 50);
    }

    #[test]
    fn unknown_table_and_duplicates_error() {
        let engine = demo_engine();
        assert!(matches!(
            engine.execute("nope", &Query::default()),
            Err(EngineError::UnknownTable(_))
        ));
        let schema = Arc::new(Schema::new(vec![Column::new("x", ValueType::Int)]));
        assert!(matches!(
            engine.create_table("items", schema.clone(), 0, 10, 10),
            Err(EngineError::DuplicateTable(_))
        ));
        engine.create_table("empty", schema, 0, 10, 10).unwrap();
        assert!(matches!(
            engine.execute("empty", &Query::default()),
            Err(EngineError::NotLoaded(_))
        ));
    }

    #[test]
    fn load_twice_rejected() {
        let engine = demo_engine();
        assert!(matches!(
            engine.load("items", vec![]),
            Err(EngineError::AlreadyLoaded(_))
        ));
    }

    #[test]
    fn bad_columns_rejected() {
        let engine = demo_engine();
        assert!(matches!(
            engine.create_btree("items", "bad", vec![7]),
            Err(EngineError::BadColumn { col: 7, .. })
        ));
        assert!(matches!(
            engine.create_cm("items", "bad", CmSpec::single_raw(9)),
            Err(EngineError::BadColumn { col: 9, .. })
        ));
    }

    #[test]
    fn cost_based_routing_prefers_cm_for_selective_predicate() {
        let engine = demo_engine();
        engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        let out = engine
            .execute("items", &Query::single(Pred::eq(1, 4217i64)))
            .unwrap();
        assert!(
            matches!(out.plan.path, AccessPath::CmScan(_)),
            "chose {:?}",
            out.plan.path
        );
        assert_eq!(engine.route_counts().cm_scan, 1);
    }

    #[test]
    fn routing_falls_back_to_scan_for_wide_predicate() {
        let engine = demo_engine();
        engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        // The whole price domain: every bucket qualifies, the scan wins.
        let out = engine
            .execute("items", &Query::single(Pred::between(1, 0i64, 1_000_000i64)))
            .unwrap();
        assert_eq!(out.plan.path, AccessPath::FullScan, "alts {:?}", out.plan.alternatives);
        assert_eq!(out.run.matched, 5000);
    }

    #[test]
    fn forced_paths_agree_with_oracle() {
        let engine = demo_engine();
        let sec = engine.create_btree("items", "price_idx", vec![1]).unwrap();
        let cm = engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        let q = Query::single(Pred::between(1, 4200i64, 4400i64));
        let oracle = engine
            .execute_via_collect("items", AccessPath::FullScan, &q)
            .unwrap();
        for path in [
            AccessPath::SecondarySorted(sec),
            AccessPath::SecondaryPipelined(sec),
            AccessPath::CmScan(cm),
        ] {
            let got = engine.execute_via_collect("items", path, &q).unwrap();
            let mut a = got.rows.clone().unwrap();
            let mut b = oracle.rows.clone().unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{path:?}");
        }
        // Forced paths are not counted as routing decisions.
        assert_eq!(engine.route_counts().total(), 0);
    }

    #[test]
    fn forced_secondary_without_prefix_predicate_surfaces_query_error() {
        let engine = demo_engine();
        let sec = engine.create_btree("items", "cat_price", vec![0, 1]).unwrap();
        // Predicate on price only: the (catid, price) index has no usable
        // prefix. A forced run must error cleanly, not panic.
        let q = Query::single(Pred::eq(1, 4217i64));
        let err = engine
            .execute_via("items", AccessPath::SecondarySorted(sec), &q)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                EngineError::Query(cm_query::QueryError::NoIndexPredicate { index, col: 0 })
                    if index == "cat_price"
            ),
            "got {err:?}"
        );
        assert!(engine
            .execute_via("items", AccessPath::SecondaryPipelined(sec), &q)
            .is_err());
        // Cost-based routing never picks the unusable path, so the same
        // query executes fine un-forced.
        assert!(engine.execute("items", &q).is_ok());
        // The parallel fan-out path surfaces the error too.
        let par = parallel_engine(4, 4);
        let sec = par.create_btree("items", "cat_price", vec![0, 1]).unwrap();
        assert!(matches!(
            par.execute_via("items", AccessPath::SecondarySorted(sec), &q),
            Err(EngineError::Query(_))
        ));
    }

    #[test]
    fn insert_delete_maintain_structures() {
        let engine = demo_engine();
        engine.create_btree("items", "price_idx", vec![1]).unwrap();
        engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        let q = Query::single(Pred::eq(1, 999_999i64));
        assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
        let rid = engine
            .insert("items", vec![Value::Int(99), Value::Int(999_999)])
            .unwrap();
        engine.commit();
        assert_eq!(engine.execute("items", &q).unwrap().run.matched, 1);
        let row = engine.delete("items", rid).unwrap();
        assert_eq!(row[1], Value::Int(999_999));
        assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
        let stats = engine.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.deletes, 1);
        assert!(stats.wal_records >= 3, "heap + index + CM records");
    }

    #[test]
    fn delete_where_removes_matches() {
        let engine = demo_engine();
        engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        let q = Query::single(Pred::eq(0, 7i64));
        let victims = engine.delete_where("items", &q).unwrap();
        assert_eq!(victims.len(), 50);
        assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
        // The rest of the table is intact (tombstones are NULL rows, so a
        // ranged predicate excludes them).
        let rest = engine
            .execute("items", &Query::single(Pred::between(0, 0i64, 1_000_000i64)))
            .unwrap();
        assert_eq!(rest.run.matched, 5000 - 50);
    }

    #[test]
    fn explain_matches_execute_choice() {
        let engine = demo_engine();
        engine.create_btree("items", "price_idx", vec![1]).unwrap();
        let q = Query::single(Pred::eq(1, 1234i64));
        let plan = engine.explain("items", &q).unwrap();
        let out = engine.execute("items", &q).unwrap();
        assert_eq!(plan.primary().path, out.plan.path);
        assert!(plan.primary().alternatives.len() >= 3);
    }

    #[test]
    fn explain_reports_every_leg() {
        let engine = sharded_engine(4);
        // Unpredicated on the clustered column: one leg per shard.
        let plan = engine.explain("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
        assert_eq!(plan.shards(), vec![0, 1, 2, 3]);
        // A point query plans a single leg on the owning shard.
        let plan = engine.explain("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
        assert_eq!(plan.legs.len(), 1);
        // An unsatisfiable range plans no legs and summarises as a
        // zero-cost scan.
        let plan = engine.explain("items", &Query::single(Pred::between(0, 9i64, 2i64))).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.primary().est_ms, 0.0);
    }

    #[test]
    fn warm_pool_makes_repeats_cheap() {
        let engine = demo_engine();
        let q = Query::single(Pred::eq(0, 3i64));
        let cold = engine.execute("items", &q).unwrap();
        let warm = engine.execute("items", &q).unwrap();
        assert_eq!(cold.run.matched, warm.run.matched);
        assert!(warm.run.ms() < 0.5 * cold.run.ms(), "{} vs {}", warm.run.ms(), cold.run.ms());
    }

    // ---- sharded behaviour -------------------------------------------

    fn sharded_engine(shards: usize) -> Arc<Engine> {
        demo_engine_with(EngineConfig { shards, ..EngineConfig::default() })
    }

    fn parallel_engine(shards: usize, workers: usize) -> Arc<Engine> {
        demo_engine_with(EngineConfig { shards, workers, ..EngineConfig::default() })
    }

    // ---- parallel fan-out --------------------------------------------

    #[test]
    fn parallel_fanout_matches_sequential_results() {
        let par = parallel_engine(4, 4);
        let seq = sharded_engine(4);
        let queries = [
            Query::single(Pred::eq(0, 13i64)),
            Query::single(Pred::between(0, 10i64, 60i64)),
            Query::single(Pred::eq(1, 4217i64)),
            Query::default(),
        ];
        for q in &queries {
            let a = par.execute_collect("items", q).unwrap();
            let b = seq.execute_collect("items", q).unwrap();
            let mut ra = a.rows.unwrap();
            let mut rb = b.rows.unwrap();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb, "{q:?}");
            assert_eq!(a.run.matched, b.run.matched);
            assert_eq!(a.shards, b.shards);
        }
    }

    #[test]
    fn parallel_rows_merge_in_shard_order() {
        // Full-table collection must come back shard 0 rows first,
        // whatever order the worker threads finished in.
        let par = parallel_engine(4, 4);
        let out = par.execute_collect("items", &Query::default()).unwrap();
        let rows = out.rows.unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "clustered partitions concatenate in key order");
    }

    #[test]
    fn parallel_ms_reports_fanout_makespan() {
        let par = parallel_engine(4, 4);
        let out = par.execute("items", &Query::default()).unwrap();
        assert_eq!(out.legs.len(), 4);
        let longest = out.legs.iter().map(|l| l.run.ms()).fold(0.0, f64::max);
        assert!((out.parallel_ms - longest).abs() < 1e-9, "4 workers cover 4 legs");
        assert!(out.parallel_ms < out.run.ms(), "fan-out beats the serial sum");
        // Per-leg serial times sum to the run total.
        let sum: f64 = out.legs.iter().map(|l| l.run.ms()).sum();
        assert!((sum - out.run.ms()).abs() < 1e-9);

        // A 1-worker engine reports the serial sum for the same query.
        let seq = sharded_engine(4);
        let out = seq.execute("items", &Query::default()).unwrap();
        assert!((out.parallel_ms - out.run.ms()).abs() < 1e-9);
    }

    #[test]
    fn each_leg_counts_as_a_routing_decision() {
        let engine = sharded_engine(4);
        engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
        assert_eq!(engine.route_counts().total(), 4, "one decision per leg");
        let engine = sharded_engine(4);
        engine.execute("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
        assert_eq!(engine.route_counts().total(), 1, "point query: one leg");
        // A query pruned everywhere makes no routing decision at all.
        let engine = sharded_engine(4);
        engine.execute("items", &Query::single(Pred::between(0, 9i64, 2i64))).unwrap();
        assert_eq!(engine.route_counts().total(), 0);
        assert_eq!(engine.stats().queries, 1);
    }

    #[test]
    fn per_leg_choices_are_surfaced() {
        let engine = parallel_engine(4, 2);
        engine.create_cm("items", "price_cm", CmSpec::single_pow2(1, 4)).unwrap();
        let out = engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
        assert_eq!(out.legs.len(), 4);
        assert_eq!(out.plan.path, out.legs[0].choice.path, "summary is the first leg");
        for leg in &out.legs {
            assert!(!leg.choice.alternatives.is_empty(), "every leg was costed");
        }
    }

    #[test]
    fn parallel_delete_where_spans_shards() {
        let engine = parallel_engine(4, 4);
        let victims = engine
            .delete_where("items", &Query::single(Pred::between(0, 24i64, 26i64)))
            .unwrap();
        assert_eq!(victims.len(), 3 * 50);
        // Victims come back in shard order.
        let shards: Vec<usize> = victims.iter().map(|r| r.shard_index()).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted);
        assert_eq!(engine.stats().deletes, 150);
        let rest = engine
            .execute("items", &Query::single(Pred::between(0, 0i64, 1_000i64)))
            .unwrap();
        assert_eq!(rest.run.matched, 5000 - 150);
    }

    #[test]
    fn worker_count_is_clamped_and_visible() {
        assert_eq!(sharded_engine(2).num_workers(), 1);
        assert_eq!(parallel_engine(2, 6).num_workers(), 6);
        let zero = demo_engine_with(EngineConfig { workers: 0, ..EngineConfig::default() });
        assert_eq!(zero.num_workers(), 1, "0 workers clamps to sequential");
    }

    #[test]
    fn load_partitions_across_shards() {
        let engine = sharded_engine(4);
        let info = engine.table_info("items").unwrap();
        assert_eq!(info.shards, 4);
        assert_eq!(info.rows, 5000);
        let mut per_shard = Vec::new();
        engine
            .with_each_shard("items", |_, t| per_shard.push(t.heap().len()))
            .unwrap();
        assert_eq!(per_shard.iter().sum::<u64>(), 5000);
        assert!(per_shard.iter().all(|&n| n > 0), "every shard holds rows: {per_shard:?}");
        assert!(matches!(
            engine.with_table("items", |_| ()),
            Err(EngineError::ShardedTable(_))
        ));
    }

    #[test]
    fn point_query_touches_exactly_one_shard() {
        let engine = sharded_engine(4);
        let q = Query::single(Pred::eq(0, 42i64));
        assert_eq!(engine.route_shards("items", &q).unwrap().len(), 1);
        let io_before = engine.shard_io();
        let out = engine.execute("items", &q).unwrap();
        assert_eq!(out.run.matched, 50);
        assert_eq!(out.shards.len(), 1);
        let io_after = engine.shard_io();
        let touched: Vec<usize> = (0..4)
            .filter(|&i| io_after[i].pages() > io_before[i].pages())
            .collect();
        assert_eq!(touched, out.shards, "I/O only on the owning shard");
    }

    #[test]
    fn range_query_fans_out_to_overlapping_shards_only() {
        let engine = sharded_engine(4);
        // Keys 0..100, four shards of ~25 keys: a [0, 30] range overlaps
        // the first two shards.
        let q = Query::single(Pred::between(0, 0i64, 30i64));
        let shards = engine.route_shards("items", &q).unwrap();
        assert!(shards.len() < 4, "narrow range prunes shards: {shards:?}");
        let out = engine.execute("items", &q).unwrap();
        assert_eq!(out.run.matched, 31 * 50);
        assert_eq!(out.shards, shards);
        // An unpredicated-column query fans out everywhere.
        let all = engine
            .execute("items", &Query::single(Pred::eq(1, 4217i64)))
            .unwrap();
        assert_eq!(all.shards, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sharded_results_match_unsharded_oracle() {
        let sharded = sharded_engine(4);
        let flat = demo_engine();
        let queries = [
            Query::single(Pred::eq(0, 13i64)),
            Query::single(Pred::between(0, 10i64, 60i64)),
            Query::single(Pred::is_in(0, vec![Value::Int(3), Value::Int(55), Value::Int(99)])),
            Query::single(Pred::eq(1, 4217i64)),
            Query::new(vec![Pred::between(0, 20i64, 80i64), Pred::eq(1, 4217i64)]),
            Query::default(),
        ];
        for q in &queries {
            let a = sharded.execute_collect("items", q).unwrap();
            let b = flat.execute_collect("items", q).unwrap();
            let mut ra = a.rows.unwrap();
            let mut rb = b.rows.unwrap();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb, "{q:?}");
        }
    }

    #[test]
    fn conjunction_on_the_clustered_column_is_preserved() {
        // Regression: a range AND an equality on the clustered column
        // must both survive shard restriction (the equality used to be
        // overwritten by the restricted range).
        let q = Query::new(vec![Pred::between(0, 0i64, 99i64), Pred::eq(0, 5i64)]);
        for shards in [1, 4] {
            let engine = sharded_engine(shards);
            let out = engine.execute("items", &q).unwrap();
            assert_eq!(out.run.matched, 50, "{shards} shard(s)");
        }
    }

    #[test]
    fn sharded_inserts_route_to_owner_and_deletes_roundtrip() {
        let engine = sharded_engine(4);
        engine.create_btree("items", "price_idx", vec![1]).unwrap();
        // Key 99 lives in the last shard; key 0 in the first.
        let hi = engine.insert("items", vec![Value::Int(99), Value::Int(777_777)]).unwrap();
        let lo = engine.insert("items", vec![Value::Int(0), Value::Int(888_888)]).unwrap();
        engine.commit();
        assert_eq!(hi.shard_index(), 3);
        assert_eq!(lo.shard_index(), 0);
        let q = Query::single(Pred::eq(1, 777_777i64));
        assert_eq!(engine.execute("items", &q).unwrap().run.matched, 1);
        let row = engine.delete("items", hi).unwrap();
        assert_eq!(row[0], Value::Int(99));
        assert_eq!(engine.execute("items", &q).unwrap().run.matched, 0);
        // A RID tagged with a nonexistent shard errors cleanly.
        assert!(matches!(
            engine.delete("items", Rid::sharded(7, Rid(0))),
            Err(EngineError::BadRid { .. })
        ));
    }

    #[test]
    fn sharded_delete_where_spans_shards() {
        let engine = sharded_engine(4);
        let victims = engine
            .delete_where("items", &Query::single(Pred::between(0, 24i64, 26i64)))
            .unwrap();
        assert_eq!(victims.len(), 3 * 50);
        let rest = engine
            .execute("items", &Query::single(Pred::between(0, 0i64, 1_000i64)))
            .unwrap();
        assert_eq!(rest.run.matched, 5000 - 150);
    }

    #[test]
    fn group_commit_absorbs_redundant_commits() {
        let engine = demo_engine();
        engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
        let io1 = engine.commit();
        assert!(io1.page_writes >= 1, "first commit flushes");
        let io2 = engine.commit();
        assert_eq!(io2, IoStats::default(), "nothing new: absorbed");
        let wal = engine.wal_stats();
        assert_eq!(wal.commit_requests, 2);
        assert_eq!(wal.absorbed, 1);
        assert_eq!(wal.flushes, 1);
    }

    #[test]
    fn wal_flushes_land_on_the_log_disk() {
        let engine = demo_engine();
        let shard_before = engine.shard_io();
        engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
        let shard_after_insert = engine.shard_io();
        let log_before = engine.log_disk().stats();
        engine.commit();
        assert_eq!(engine.shard_io(), shard_after_insert, "commit touches no shard disk");
        assert!(engine.log_disk().stats().page_writes > log_before.page_writes);
        // The insert itself touched shard storage, not the log.
        assert!(shard_after_insert[0].pages() > shard_before[0].pages());
    }

    // ---- workload-aware design advisor -------------------------------

    #[test]
    fn workload_profile_records_reads_and_writes() {
        let engine = demo_engine();
        engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
        engine.execute("items", &Query::single(Pred::eq(1, 999i64))).unwrap();
        engine
            .execute("items", &Query::single(Pred::between(0, 3i64, 9i64)))
            .unwrap();
        engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
        let p = engine.workload_profile("items").unwrap();
        assert_eq!(p.reads, 3);
        assert_eq!(p.writes, 1);
        let price = p.col(1).unwrap();
        assert_eq!(price.reads, 2);
        assert_eq!(price.distinct_queried() as u64, 2, "two distinct point values");
        assert!(p.col(0).unwrap().avg_lookup_keys() >= 1.0, "range estimated");
        engine.reset_workload_profile("items").unwrap();
        assert_eq!(engine.workload_profile("items").unwrap().ops(), 0);
    }

    #[test]
    fn advise_and_apply_roundtrip_with_oracle_equality() {
        let engine = demo_engine();
        // Read-mostly traffic on price.
        for i in 0..50i64 {
            engine
                .execute("items", &Query::single(Pred::eq(1, (i % 16) * 321)))
                .unwrap();
        }
        engine.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
        let rec = engine.advise_design("items").unwrap();
        assert_eq!(rec.best.columns.len(), 1, "price is the only candidate");
        assert_eq!(rec.best.columns[0].col, 1);
        assert!(rec.best.columns[0].structure.is_some(), "hot column earns a structure");

        // Oracle snapshot before the switch.
        let queries = [
            Query::single(Pred::eq(1, 321i64)),
            Query::single(Pred::between(1, 100i64, 3000i64)),
            Query::default(),
        ];
        let before: Vec<Vec<Row>> = queries
            .iter()
            .map(|q| {
                let mut rows =
                    engine.execute_collect("items", q).unwrap().rows.unwrap();
                rows.sort();
                rows
            })
            .collect();
        let applied = engine.apply_design("items", &rec.best).unwrap();
        assert_eq!(applied.btrees + applied.cms, 1);
        assert_eq!(applied.dropped, 0);
        let info = engine.table_info("items").unwrap();
        assert_eq!(info.secondaries + info.cms, 1);
        for (q, want) in queries.iter().zip(&before) {
            let mut rows = engine.execute_collect("items", q).unwrap().rows.unwrap();
            rows.sort();
            assert_eq!(&rows, want, "{q:?}");
        }
        // Re-applying replaces, not accumulates.
        let applied = engine.apply_design("items", &rec.best).unwrap();
        assert_eq!(applied.dropped, 1);
        let info = engine.table_info("items").unwrap();
        assert_eq!(info.secondaries + info.cms, 1);
    }

    #[test]
    fn apply_design_spans_every_shard() {
        let engine = sharded_engine(4);
        for _ in 0..20 {
            engine.execute("items", &Query::single(Pred::eq(1, 4217i64))).unwrap();
        }
        let rec = engine.advise_design("items").unwrap();
        engine.apply_design("items", &rec.best).unwrap();
        let expect = rec.best.btrees() + rec.best.cms();
        engine
            .with_each_shard("items", |_, t| {
                assert_eq!(t.secondaries().len() + t.cms().len(), expect);
            })
            .unwrap();
        // Routed queries agree with a freshly-built flat oracle.
        let q = Query::single(Pred::eq(1, 4217i64));
        let a = engine.execute_collect("items", &q).unwrap();
        let flat = demo_engine();
        let b = flat.execute_collect("items", &q).unwrap();
        let (mut ra, mut rb) = (a.rows.unwrap(), b.rows.unwrap());
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn apply_design_rejects_bad_columns_and_unloaded_tables() {
        let engine = demo_engine();
        let design = DesignSet {
            columns: vec![cm_advisor::ColumnDesign {
                col: 9,
                structure: Structure::BTree,
                cold_read_ms: 0.0,
                maintenance_ms: 0.0,
            }],
            read_ms: 0.0,
            write_ms: 0.0,
            total_ms: 0.0,
            working_set_pages: 0.0,
            miss_rate: 0.0,
        };
        assert!(matches!(
            engine.apply_design("items", &design),
            Err(EngineError::BadColumn { col: 9, .. })
        ));
        let schema = Arc::new(Schema::new(vec![Column::new("x", ValueType::Int)]));
        engine.create_table("empty", schema, 0, 10, 10).unwrap();
        assert!(matches!(
            engine.advise_design("empty"),
            Err(EngineError::NotLoaded(_))
        ));
    }

    #[test]
    fn stats_stay_consistent_while_a_writer_is_active() {
        let engine = sharded_engine(2);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer_engine = engine.clone();
            let stop_ref = &stop;
            scope.spawn(move || {
                for i in 0..500i64 {
                    writer_engine
                        .insert("items", vec![Value::Int(i % 100), Value::Int(i)])
                        .unwrap();
                }
                writer_engine.commit();
                stop_ref.store(true, Ordering::Release);
            });
            // Reader: aggregate stats must never go backwards and never
            // deadlock against the writer's per-shard locks.
            let mut last_rows = 0u64;
            let mut last_inserts = 0u64;
            while !stop.load(Ordering::Acquire) {
                let s = engine.stats();
                assert!(s.total_rows >= last_rows, "{} < {last_rows}", s.total_rows);
                assert!(s.inserts >= last_inserts);
                assert_eq!(s.tables, 1);
                last_rows = s.total_rows;
                last_inserts = s.inserts;
            }
        });
        let s = engine.stats();
        assert_eq!(s.inserts, 500);
        assert_eq!(s.total_rows, 5000 + 500);
        assert_eq!(engine.table_infos().len(), 1);
    }

    #[test]
    fn too_many_shards_rejected() {
        let config = EngineConfig { shards: Rid::MAX_SHARDS + 44, ..EngineConfig::default() };
        match Engine::try_new(config) {
            Err(EngineError::TooManyShards { requested, max }) => {
                assert_eq!(requested, Rid::MAX_SHARDS + 44);
                assert_eq!(max, Rid::MAX_SHARDS);
            }
            other => panic!("expected TooManyShards, got {:?}", other.map(|_| ())),
        }
        // The boundary itself is fine.
        let config = EngineConfig { shards: Rid::MAX_SHARDS, ..EngineConfig::default() };
        assert_eq!(Engine::try_new(config).unwrap().num_shards(), Rid::MAX_SHARDS);
    }

    /// A full query over the live (non-tombstone) rows of the demo
    /// table: `Between` on the clustered column excludes all-NULL
    /// tombstone slots, unlike an empty `Query`.
    fn all_live() -> Query {
        Query::single(Pred::between(0, i64::MIN, i64::MAX))
    }

    fn sorted_rows(engine: &Engine, q: &Query) -> Vec<Row> {
        let mut rows = engine.execute_collect("items", q).unwrap().rows.unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn checkpoint_races_an_active_writer_without_losing_updates() {
        // Satellite: `flush_all` (inside checkpoint) racing an active
        // writer session must lose no updates and keep stats coherent.
        let engine = demo_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
        std::thread::scope(|scope| {
            let writer_engine = engine.clone();
            scope.spawn(move || {
                let session = writer_engine.session();
                for i in 0..300i64 {
                    session
                        .insert("items", vec![Value::Int(i % 100), Value::Int(20_000 + i)])
                        .unwrap();
                    if i % 25 == 24 {
                        session.commit();
                    }
                }
                session.commit();
            });
            for _ in 0..8 {
                engine.checkpoint();
            }
        });
        let out = engine
            .execute("items", &Query::single(Pred::between(1, 20_000i64, 20_299i64)))
            .unwrap();
        assert_eq!(out.run.matched, 300, "no writer update lost across checkpoints");
        let s = engine.stats();
        assert_eq!(s.inserts, 300);
        assert_eq!(s.total_rows, 5000 + 300);
        assert!(engine.checkpoint_count() >= 9, "base image + 8 checkpoints");
        // After the race quiesces, one flush drains every dirty page and
        // a second finds nothing left to write.
        engine.flush_pool();
        assert_eq!(engine.flush_pool().page_writes, 0, "pools fully clean after quiesce");
    }

    #[test]
    fn recovery_replays_committed_work() {
        let engine = demo_engine();
        let session = engine.session();
        for i in 0..40i64 {
            session.insert("items", vec![Value::Int(i % 100), Value::Int(9000 + i)]).unwrap();
        }
        session.delete_where("items", &Query::single(Pred::eq(0, 17i64))).unwrap();
        session.commit();
        let expect = sorted_rows(&engine, &all_live());

        let state = engine.crash_state(None);
        let (recovered, report) =
            Engine::recover(EngineConfig::default(), &state).unwrap();
        assert_eq!(sorted_rows(&recovered, &all_live()), expect);
        assert!(report.redone > 0);
        assert_eq!(report.undone, 0);
        assert_eq!(report.committed_txns, 1);
        assert!(report.sim_ms > 0.0, "recovery I/O is charged");
        // The recovered engine keeps working: insert + query. Category 1
        // had 50 loaded rows, one from the pre-crash loop, one now.
        recovered.insert("items", vec![Value::Int(1), Value::Int(1)]).unwrap();
        let out = recovered.execute("items", &Query::single(Pred::eq(0, 1i64))).unwrap();
        assert_eq!(out.run.matched, 52);
    }

    #[test]
    fn recovery_rolls_back_the_uncommitted_tail() {
        let engine = demo_engine();
        let committed = engine.session();
        committed.insert("items", vec![Value::Int(3), Value::Int(333_333)]).unwrap();
        committed.commit();
        let expect = sorted_rows(&engine, &all_live());

        // A second session writes — including deletes — but never commits.
        let doomed = engine.session();
        doomed.insert("items", vec![Value::Int(5), Value::Int(555_555)]).unwrap();
        doomed.delete_where("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
        assert!(doomed.txn_id().is_some());

        // Crash with the whole log surviving: commit records decide, not
        // flush timing.
        let state = engine.crash_state(Some(engine.appended_log().len() as u64));
        let (recovered, report) =
            Engine::recover(EngineConfig::default(), &state).unwrap();
        assert_eq!(
            sorted_rows(&recovered, &all_live()),
            expect,
            "uncommitted insert gone, uncommitted deletes reinstated"
        );
        assert_eq!(report.uncommitted_txns, 1);
        assert!(report.undone > 0);
    }

    #[test]
    fn torn_log_tail_is_detected_and_truncated() {
        let engine = demo_engine();
        let session = engine.session();
        session.insert("items", vec![Value::Int(8), Value::Int(800_800)]).unwrap();
        session.commit();
        let full = engine.appended_log().len() as u64;
        // Cut mid-frame: 3 bytes short of the end rips the last frame.
        let state = engine.crash_state(Some(full - 3));
        assert_eq!(state.log.len() as u64, full - 3);
        let (recovered, report) =
            Engine::recover(EngineConfig::default(), &state).unwrap();
        assert!(report.torn, "mid-frame cut is detected by checksum");
        assert!(report.valid_bytes < report.log_bytes);
        // The recovered engine still answers queries consistently.
        let rows = sorted_rows(&recovered, &all_live());
        assert!(rows.len() >= 5000 - 1);
    }

    #[test]
    fn checkpoints_advance_the_redo_point() {
        let engine = demo_engine();
        let session = engine.session();
        for i in 0..30i64 {
            session.insert("items", vec![Value::Int(i % 100), Value::Int(100 + i)]).unwrap();
        }
        session.commit();
        let no_ckpt = engine.crash_state(None);
        engine.checkpoint();
        for i in 0..5i64 {
            session.insert("items", vec![Value::Int(i), Value::Int(200 + i)]).unwrap();
        }
        session.commit();
        let with_ckpt = engine.crash_state(None);
        assert!(with_ckpt.redo_lsn > no_ckpt.redo_lsn, "checkpoint advanced redo");

        let (_, rep_no) = Engine::recover(EngineConfig::default(), &no_ckpt).unwrap();
        let (eng_ck, rep_ck) = Engine::recover(EngineConfig::default(), &with_ckpt).unwrap();
        assert!(
            rep_ck.redone <= rep_no.redone + 5,
            "the checkpoint absorbed the pre-checkpoint mutations ({} vs {})",
            rep_ck.redone,
            rep_no.redone
        );
        let out = eng_ck.execute("items", &Query::single(Pred::between(1, 200i64, 204i64)));
        assert_eq!(out.unwrap().run.matched, 5);
    }

    #[test]
    fn automatic_checkpoints_fire_on_commit() {
        let engine =
            demo_engine_with(EngineConfig { checkpoint_every: 20, ..EngineConfig::default() });
        let base_images = engine.checkpoint_count();
        let session = engine.session();
        for i in 0..60i64 {
            session.insert("items", vec![Value::Int(i % 100), Value::Int(i)]).unwrap();
            if i % 10 == 9 {
                session.commit();
            }
        }
        assert!(
            engine.checkpoint_count() > base_images,
            "commits past the record threshold checkpointed automatically"
        );
    }

    #[test]
    fn design_changes_survive_recovery() {
        let engine = demo_engine();
        engine.create_btree("items", "price_ix", vec![1]).unwrap();
        engine.create_cm("items", "price_cm", CmSpec::single_raw(1)).unwrap();
        engine.commit();
        let state = engine.crash_state(None);
        let (recovered, _) = Engine::recover(EngineConfig::default(), &state).unwrap();
        let info = recovered.table_info("items").unwrap();
        assert_eq!(info.secondaries, 1, "B+Tree rebuilt from the design record");
        assert_eq!(info.cms, 1, "CM rebuilt from the design record");
        // The rebuilt structures are queryable.
        let out = recovered
            .execute_via(
                "items",
                AccessPath::SecondaryPipelined(0),
                &Query::single(Pred::eq(1, 4217i64)),
            )
            .unwrap();
        let direct = engine
            .execute_via(
                "items",
                AccessPath::SecondaryPipelined(0),
                &Query::single(Pred::eq(1, 4217i64)),
            )
            .unwrap();
        assert_eq!(out.run.matched, direct.run.matched);
    }

    #[test]
    fn sharded_recovery_restores_routing() {
        let engine = demo_engine_with(EngineConfig { shards: 4, ..EngineConfig::default() });
        let session = engine.session();
        for i in 0..40i64 {
            session.insert("items", vec![Value::Int(i % 100), Value::Int(4000 + i)]).unwrap();
        }
        session.delete_where("items", &Query::single(Pred::eq(0, 66i64))).unwrap();
        session.commit();
        let expect = sorted_rows(&engine, &all_live());
        let state = engine.crash_state(None);
        let (recovered, _) = Engine::recover(
            EngineConfig { shards: 4, ..EngineConfig::default() },
            &state,
        )
        .unwrap();
        assert_eq!(recovered.num_shards(), 4);
        assert_eq!(sorted_rows(&recovered, &all_live()), expect);
        // Point queries still route to a single shard.
        let out = recovered.execute("items", &Query::single(Pred::eq(0, 10i64))).unwrap();
        assert_eq!(out.shards.len(), 1);
        // An image spanning more shards than the new engine is rejected.
        assert!(matches!(
            Engine::recover(EngineConfig::default(), &state),
            Err(EngineError::Recovery(_))
        ));
    }

    // ---------------------------------------------------------- MVCC

    fn mvcc_engine_with(config: EngineConfig) -> Arc<Engine> {
        demo_engine_with(EngineConfig { mvcc: true, ..config })
    }

    /// A hand-rolled design set (cost fields zeroed — tests apply it
    /// directly rather than ranking it).
    fn design_of(columns: Vec<(usize, Structure)>) -> DesignSet {
        DesignSet {
            columns: columns
                .into_iter()
                .map(|(col, structure)| cm_advisor::ColumnDesign {
                    col,
                    structure,
                    cold_read_ms: 0.0,
                    maintenance_ms: 0.0,
                })
                .collect(),
            read_ms: 0.0,
            write_ms: 0.0,
            total_ms: 0.0,
            working_set_pages: 0.0,
            miss_rate: 0.0,
        }
    }

    #[test]
    fn mvcc_autocommit_writes_are_immediately_visible() {
        let engine = mvcc_engine_with(EngineConfig::default());
        let rid = engine.insert("items", vec![Value::Int(7), Value::Int(90_001)]).unwrap();
        let hit = engine.execute("items", &Query::single(Pred::eq(1, 90_001i64))).unwrap();
        assert_eq!(hit.run.matched, 1, "autocommit insert visible to the next query");
        engine.delete("items", rid).unwrap();
        let gone = engine.execute("items", &Query::single(Pred::eq(1, 90_001i64))).unwrap();
        assert_eq!(gone.run.matched, 0, "autocommit delete visible to the next query");
        // The version is end-stamped, not physically removed.
        assert_eq!(engine.dead_versions(), 1);
    }

    #[test]
    fn mvcc_session_writes_invisible_until_commit() {
        let engine = mvcc_engine_with(EngineConfig::default());
        let session = engine.session();
        session.insert("items", vec![Value::Int(3), Value::Int(91_000)]).unwrap();
        session.delete_where("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
        // Pending stamps: the transaction has not committed, so readers
        // (including this session's own queries — reads run at a fresh
        // snapshot, there is no read-your-own-writes) see the old state.
        let ins = engine.execute("items", &Query::single(Pred::eq(1, 91_000i64))).unwrap();
        assert_eq!(ins.run.matched, 0, "uncommitted insert invisible");
        let del = engine.execute("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
        assert_eq!(del.run.matched, 50, "uncommitted delete invisible");
        session.commit();
        let ins = engine.execute("items", &Query::single(Pred::eq(1, 91_000i64))).unwrap();
        assert_eq!(ins.run.matched, 1, "committed insert visible");
        let del = engine.execute("items", &Query::single(Pred::eq(0, 42i64))).unwrap();
        assert_eq!(del.run.matched, 0, "committed delete visible");
    }

    #[test]
    fn mvcc_multi_shard_delete_where_flips_atomically() {
        let engine = mvcc_engine_with(EngineConfig { shards: 4, ..EngineConfig::default() });
        // A clustered range spanning every shard.
        let victims = engine
            .delete_where("items", &Query::single(Pred::between(0, 0i64, 99i64)))
            .unwrap();
        assert_eq!(victims.len(), 5000);
        let left = engine.execute("items", &all_live()).unwrap();
        assert_eq!(left.run.matched, 0, "the purge is visible after the internal commit");
        assert_eq!(engine.dead_versions(), 5000);
    }

    #[test]
    fn mvcc_vacuum_reclaims_dead_versions() {
        let engine = mvcc_engine_with(EngineConfig::default());
        engine.delete_where("items", &Query::single(Pred::eq(0, 5i64))).unwrap();
        assert_eq!(engine.dead_versions(), 50);
        let (resolved, reclaimed) = engine.vacuum().unwrap();
        assert!(resolved >= 50, "pending end stamps rewritten to commit timestamps");
        assert_eq!(reclaimed, 50, "no live snapshot pins the versions");
        assert_eq!(engine.dead_versions(), 0);
        let stats = engine.mvcc_stats().unwrap();
        assert_eq!(stats.reclaimed_versions, 50);
        assert!(stats.vacuum_runs >= 1);
        // The reclaim is physical: a repeat vacuum finds nothing.
        assert_eq!(engine.vacuum().unwrap(), (0, 0));
        // Reads over the reclaimed range still answer correctly.
        let out = engine.execute("items", &Query::single(Pred::eq(0, 5i64))).unwrap();
        assert_eq!(out.run.matched, 0);
        assert_eq!(engine.execute("items", &all_live()).unwrap().run.matched, 4950);
    }

    #[test]
    fn mvcc_vacuum_spares_versions_a_live_snapshot_sees() {
        let engine = mvcc_engine_with(EngineConfig::default());
        let mv = engine.mvcc_state().unwrap().clone();
        let pin = mv.begin(); // a reader that started before the delete
        engine.delete_where("items", &Query::single(Pred::eq(0, 9i64))).unwrap();
        let (_, reclaimed) = engine.vacuum().unwrap();
        assert_eq!(reclaimed, 0, "the pinned snapshot still sees the versions");
        assert!(pin.sees(1, LIVE_TS));
        drop(pin);
        let (_, reclaimed) = engine.vacuum().unwrap();
        assert_eq!(reclaimed, 50, "reclaimable once the snapshot closes");
    }

    #[test]
    fn mvcc_auto_vacuum_fires_on_commit_threshold() {
        let engine =
            mvcc_engine_with(EngineConfig { gc_every: 10, ..EngineConfig::default() });
        let session = engine.session();
        session.delete_where("items", &Query::single(Pred::eq(0, 3i64))).unwrap();
        session.commit();
        let stats = engine.mvcc_stats().unwrap();
        assert!(stats.vacuum_runs >= 1, "50 deletes crossed the gc_every=10 threshold");
        assert_eq!(engine.dead_versions(), 0);
    }

    #[test]
    fn mvcc_uncommitted_delete_where_leg_error_leaves_rows_readable() {
        // First-writer-wins: a second delete_where racing the same rows
        // skips already-ended versions instead of clobbering them.
        let engine = mvcc_engine_with(EngineConfig::default());
        let s1 = engine.session();
        let v1 = s1.delete_where("items", &Query::single(Pred::eq(0, 8i64))).unwrap();
        assert_eq!(v1.len(), 50);
        let s2 = engine.session();
        let v2 = s2.delete_where("items", &Query::single(Pred::eq(0, 8i64))).unwrap();
        // s1's pending end stamps are invisible to s2's victim snapshot,
        // so s2 scans the same rows — but the write phase skips every
        // already-stamped version.
        assert!(v2.is_empty(), "second writer cannot re-delete pending-ended versions");
    }

    #[test]
    fn mvcc_snapshot_pins_a_consistent_read_under_a_racing_purge() {
        let engine = mvcc_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let purger = engine.clone();
            let stop_ref = &stop;
            scope.spawn(move || {
                for round in 0..30i64 {
                    purger
                        .delete_where("items", &Query::single(Pred::eq(0, round % 100)))
                        .unwrap();
                    for i in 0..50i64 {
                        purger
                            .insert(
                                "items",
                                vec![Value::Int(round % 100), Value::Int((round % 100) * 100 + i)],
                            )
                            .unwrap();
                    }
                }
                stop_ref.store(true, Ordering::Relaxed);
            });
            // Each query sees every category either fully present (50
            // rows) or fully purged (0) — never a torn prefix, even while
            // the purge's legs span both shards.
            while !stop.load(Ordering::Relaxed) {
                let out = engine
                    .execute("items", &Query::single(Pred::eq(0, 17i64)))
                    .unwrap();
                assert!(
                    out.run.matched == 50 || out.run.matched == 0,
                    "torn category read: {} rows",
                    out.run.matched
                );
            }
        });
    }

    #[test]
    fn mvcc_apply_design_stays_online_under_readers() {
        // The rebuild must hold only read locks while it builds: readers
        // that start after the rebuild begins keep completing before it
        // ends. (The pre-MVCC path takes `loaded.write()` up front, which
        // would stall every one of them for the whole rebuild.)
        let engine = mvcc_engine_with(EngineConfig::default());
        let design = design_of(vec![
            (1, Structure::BTree),
            (1, Structure::Cm(CmSpec::single_pow2(1, 4))),
        ]);
        let in_flight = std::sync::atomic::AtomicBool::new(false);
        let overlapped = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            let designer = engine.clone();
            let in_flight_ref = &in_flight;
            scope.spawn(move || {
                in_flight_ref.store(true, Ordering::SeqCst);
                for _ in 0..40 {
                    designer.apply_design("items", &design).unwrap();
                }
                in_flight_ref.store(false, Ordering::SeqCst);
            });
            while !in_flight.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            while in_flight.load(Ordering::SeqCst) {
                let out = engine
                    .execute("items", &Query::single(Pred::eq(0, 33i64)))
                    .unwrap();
                assert_eq!(out.run.matched, 50);
                if in_flight.load(Ordering::SeqCst) {
                    // Started and finished while a rebuild was running.
                    overlapped.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert!(
            overlapped.load(Ordering::Relaxed) > 0,
            "no read completed during 40 consecutive rebuilds — readers were blocked"
        );
        let info = engine.table_info("items").unwrap();
        assert_eq!((info.secondaries, info.cms), (1, 1), "the design landed");
        // The swapped-in structures answer queries.
        let out = engine
            .execute_via(
                "items",
                AccessPath::SecondarySorted(0),
                &Query::single(Pred::eq(1, 1_719i64)),
            )
            .unwrap();
        assert_eq!(out.run.matched, 50);
    }

    #[test]
    fn mvcc_online_design_swap_indexes_rows_appended_mid_build() {
        // Rows inserted between the read-locked build and the
        // write-locked swap must land in the new structures (the
        // catch-up step). Single-threaded shape: build against a loaded
        // table, insert more rows, apply, then force the secondary path.
        let engine = mvcc_engine_with(EngineConfig::default());
        std::thread::scope(|scope| {
            let writer = engine.clone();
            scope.spawn(move || {
                for i in 0..200i64 {
                    writer
                        .insert("items", vec![Value::Int(i % 100), Value::Int(70_000 + i)])
                        .unwrap();
                }
            });
            let design = design_of(vec![(1, Structure::BTree)]);
            for _ in 0..10 {
                engine.apply_design("items", &design).unwrap();
            }
        });
        let q = Query::single(Pred::between(1, 70_000i64, 70_199i64));
        let via_index =
            engine.execute_via("items", AccessPath::SecondarySorted(0), &q).unwrap();
        assert_eq!(via_index.run.matched, 200, "mid-build appends are indexed");
    }

    #[test]
    fn table_infos_and_stats_stay_coherent_under_an_active_writer() {
        // Satellite: the stats snapshot path (catalog read lock, then
        // per-entry reads) must neither deadlock with nor tear against a
        // writer holding shard write locks.
        let engine = demo_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
        std::thread::scope(|scope| {
            let writer = engine.clone();
            scope.spawn(move || {
                let session = writer.session();
                for i in 0..400i64 {
                    session
                        .insert("items", vec![Value::Int(i % 100), Value::Int(40_000 + i)])
                        .unwrap();
                    if i % 50 == 49 {
                        session.commit();
                    }
                }
                session.commit();
            });
            for _ in 0..200 {
                let infos = engine.table_infos();
                assert_eq!(infos.len(), 1);
                assert!(
                    (5000..=5400).contains(&infos[0].rows),
                    "row count within the write window: {}",
                    infos[0].rows
                );
                let s = engine.stats();
                assert!(s.total_rows >= 5000);
                assert!(s.inserts <= 400);
            }
        });
        assert_eq!(engine.table_infos()[0].rows, 5400);
        assert_eq!(engine.stats().inserts, 400);
    }

    #[test]
    fn mvcc_recovery_restores_the_committed_prefix_and_clock() {
        let config = EngineConfig { mvcc: true, ..EngineConfig::default() };
        let engine = mvcc_engine_with(EngineConfig::default());
        let committed = engine.session();
        for i in 0..30i64 {
            committed
                .insert("items", vec![Value::Int(i % 100), Value::Int(50_000 + i)])
                .unwrap();
        }
        committed.delete_where("items", &Query::single(Pred::eq(0, 77i64))).unwrap();
        committed.commit();
        let expect = sorted_rows(&engine, &all_live());
        // An uncommitted tail that must vanish.
        let doomed = engine.session();
        doomed.insert("items", vec![Value::Int(1), Value::Int(60_000)]).unwrap();
        doomed.delete_where("items", &Query::single(Pred::eq(0, 50i64))).unwrap();
        let clock_before = engine.mvcc_stats().unwrap().clock;
        // Cut at the appended end: the doomed records survive the crash
        // and must be rolled back by undo (their commit never logged).
        let state = engine.crash_state(Some(engine.appended_log().len() as u64));
        let (recovered, report) = Engine::recover(config, &state).unwrap();
        assert_eq!(sorted_rows(&recovered, &all_live()), expect);
        assert!(report.uncommitted_txns >= 1);
        let clock_after = recovered.mvcc_stats().unwrap().clock;
        assert!(
            clock_after >= clock_before.saturating_sub(1),
            "clock restored past the last durable commit: {clock_after} vs {clock_before}"
        );
        // The survivor allocates fresh timestamps and stays MVCC.
        recovered.insert("items", vec![Value::Int(2), Value::Int(61_000)]).unwrap();
        let hit = recovered
            .execute("items", &Query::single(Pred::eq(1, 61_000i64)))
            .unwrap();
        assert_eq!(hit.run.matched, 1);
        assert!(recovered.mvcc_stats().unwrap().clock > clock_after);
    }

    #[test]
    fn mvcc_checkpoint_image_does_not_resurrect_committed_deletes() {
        // A committed MVCC delete leaves real bytes end-stamped in the
        // heap. A checkpoint image taken after it must materialize the
        // slot as a tombstone: the delete record precedes `redo_lsn`, so
        // nothing replays it.
        let config = EngineConfig { mvcc: true, ..EngineConfig::default() };
        let engine = mvcc_engine_with(EngineConfig::default());
        let session = engine.session();
        session.delete_where("items", &Query::single(Pred::eq(0, 21i64))).unwrap();
        session.commit();
        engine.checkpoint();
        let expect = sorted_rows(&engine, &all_live());
        let state = engine.crash_state(None);
        let (recovered, _) = Engine::recover(config, &state).unwrap();
        assert_eq!(sorted_rows(&recovered, &all_live()), expect);
        let out = recovered.execute("items", &Query::single(Pred::eq(0, 21i64))).unwrap();
        assert_eq!(out.run.matched, 0, "the purged category stays purged");
    }

    #[test]
    fn insert_many_spans_shards_and_preserves_order() {
        let engine = demo_engine_with(EngineConfig { shards: 4, ..EngineConfig::default() });
        let rows: Vec<Row> = (0..300i64)
            .map(|i| vec![Value::Int(i % 100), Value::Int(90_000 + i)])
            .collect();
        let rids = engine.insert_many("items", rows).unwrap();
        assert_eq!(rids.len(), 300);
        // Returned rids line up with input order even though the rows
        // interleave across all four shards: deleting by the i-th rid
        // must yield the i-th row.
        let sampled: Vec<usize> = (0..300).step_by(37).collect();
        for &i in &sampled {
            let row = engine.delete("items", rids[i]).unwrap();
            assert_eq!(row[1], Value::Int(90_000 + i as i64), "rid {i} maps to its row");
        }
        let out = engine
            .execute("items", &Query::single(Pred::between(1, 90_000i64, 90_299i64)))
            .unwrap();
        assert_eq!(out.run.matched as usize, 300 - sampled.len());
        assert_eq!(engine.stats().inserts, 300);
    }

    #[test]
    fn insert_many_txn_stays_invisible_until_commit() {
        let engine = mvcc_engine_with(EngineConfig { shards: 2, ..EngineConfig::default() });
        let txn = engine.alloc_txn();
        let rows: Vec<Row> = (0..150i64)
            .map(|i| vec![Value::Int(i % 100), Value::Int(70_000 + i)])
            .collect();
        engine.insert_many_txn("items", rows, txn).unwrap();
        let probe = Query::single(Pred::between(1, 70_000i64, 70_149i64));
        let hidden = engine.execute("items", &probe).unwrap();
        assert_eq!(hidden.run.matched, 0, "pending batch is invisible to snapshots");
        engine.log_commit(txn);
        let seen = engine.execute("items", &probe).unwrap();
        assert_eq!(seen.run.matched, 150, "committed batch is fully visible");
    }
}
