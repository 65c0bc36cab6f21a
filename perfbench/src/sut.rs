//! The system under test. Every call into `cm-engine` goes through this
//! file, so an engine API change needs a one-file follow-up here and
//! nowhere else in the benchmark.

use cm_core::CmSpec;
use cm_engine::{
    AggSpec, Backend, CrashState, Engine, EngineConfig, Executor, JoinQuery, JoinStrategy,
    RecoveryReport, Session,
};
use cm_query::{Query, QueryPlan, Table};
use cm_storage::{BufferPool, DiskSim, IoStats, Rid, Row, Schema, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub type SutResult<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The engine knobs a workload fixes. Everything else stays at the
/// engine's defaults (Table 1 disk constants, group commit 4 / 200 µs,
/// no automatic checkpoint or vacuum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SutConfig {
    /// Real `pread`/`pwrite` on buffered files (`direct: false`, no
    /// `fsync`) instead of the pure simulator.
    pub file_backend: bool,
    pub shards: usize,
    pub workers: usize,
    pub mvcc: bool,
    pub pool_pages: usize,
}

impl SutConfig {
    /// The simulator, or buffered files (no `O_DIRECT`, no `fsync`)
    /// under `dir`, which is created.
    pub fn backend(&self, dir: &Path) -> SutResult<Backend> {
        if !self.file_backend {
            return Ok(Backend::Sim);
        }
        std::fs::create_dir_all(dir).map_err(err)?;
        Ok(Backend::File {
            dir: dir.to_path_buf(),
            direct: false,
        })
    }

    fn engine_config(&self, dir: &Path) -> SutResult<EngineConfig> {
        Ok(EngineConfig {
            backend: self.backend(dir)?,
            pool_pages: self.pool_pages,
            shards: self.shards,
            workers: self.workers,
            mvcc: self.mvcc,
            checkpoint_every: 0,
            gc_every: 0,
            ..EngineConfig::default()
        })
    }
}

/// One table to create, load and index.
pub struct TableSpec {
    pub name: &'static str,
    pub schema: Arc<Schema>,
    pub rows: Vec<Row>,
    pub clustered_col: usize,
    pub tups_per_page: usize,
    pub bucket_target: u64,
    pub btrees: Vec<(&'static str, Vec<usize>)>,
    pub cms: Vec<(&'static str, CmSpec)>,
}

/// Where set-up time went (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub load_s: f64,
    pub build_btree_s: f64,
    pub build_cm_s: f64,
}

/// One executed leg: the planner's estimate beside what the run charged.
#[derive(Debug, Clone, Copy)]
pub struct LegInfo {
    pub est_ms: f64,
    pub sim_ms: f64,
}

#[derive(Debug, Default)]
pub struct ReadOut {
    pub rows: Vec<Row>,
    pub matched: u64,
    pub examined: u64,
    pub pages: u64,
    pub legs: Vec<LegInfo>,
}

#[derive(Debug)]
pub struct JoinOut {
    pub rows: Vec<Row>,
    pub matched: u64,
    pub clamped: bool,
    pub build_rows: u64,
    pub probe_pages: u64,
    pub examined: u64,
}

#[derive(Debug)]
pub struct AggOut {
    pub rows: Vec<Row>,
    pub matched: u64,
    pub examined: u64,
    pub pages: u64,
    pub legs: usize,
}

/// A flat copy of the engine's cumulative counters; deltas between two
/// copies are the exact per-round counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub queries: u64,
    pub route_full: u64,
    pub route_sorted: u64,
    pub route_pipelined: u64,
    pub route_cm: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    /// Shard disks and the log disk together.
    pub disk_pages_read: u64,
    pub disk_pages_written: u64,
    pub disk_seeks: u64,
    pub disk_sim_ms: f64,
    pub disk_read_wall_ns: u64,
    pub disk_write_wall_ns: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_commits: u64,
    pub wal_absorbed: u64,
    pub wal_flushes: u64,
    pub wal_pages_flushed: u64,
    pub read_stalls: u64,
    pub read_stall_us: f64,
    pub vacuum_reclaimed: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            queries: self.queries - earlier.queries,
            route_full: self.route_full - earlier.route_full,
            route_sorted: self.route_sorted - earlier.route_sorted,
            route_pipelined: self.route_pipelined - earlier.route_pipelined,
            route_cm: self.route_cm - earlier.route_cm,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
            disk_pages_read: self.disk_pages_read - earlier.disk_pages_read,
            disk_pages_written: self.disk_pages_written - earlier.disk_pages_written,
            disk_seeks: self.disk_seeks - earlier.disk_seeks,
            disk_sim_ms: self.disk_sim_ms - earlier.disk_sim_ms,
            disk_read_wall_ns: self.disk_read_wall_ns - earlier.disk_read_wall_ns,
            disk_write_wall_ns: self.disk_write_wall_ns - earlier.disk_write_wall_ns,
            wal_records: self.wal_records - earlier.wal_records,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_commits: self.wal_commits - earlier.wal_commits,
            wal_absorbed: self.wal_absorbed - earlier.wal_absorbed,
            wal_flushes: self.wal_flushes - earlier.wal_flushes,
            wal_pages_flushed: self.wal_pages_flushed - earlier.wal_pages_flushed,
            read_stalls: self.read_stalls - earlier.read_stalls,
            read_stall_us: self.read_stall_us - earlier.read_stall_us,
            vacuum_reclaimed: self.vacuum_reclaimed - earlier.vacuum_reclaimed,
        }
    }
}

/// Sizes of the structures on one table (height of shard 0's first
/// B+Tree; bytes summed over shards).
#[derive(Debug, Clone, Copy, Default)]
pub struct Footprint {
    /// Heap slots, tombstones included.
    pub heap_slots: u64,
    pub heap_pages: u64,
    pub dead_versions: u64,
    pub index_bytes: u64,
    pub index_height: u64,
    pub cm_bytes: u64,
    pub disk_bytes: u64,
}

pub struct Sut {
    engine: Arc<Engine>,
    config: SutConfig,
}

impl Sut {
    /// A fresh, empty engine. File-backed engines keep their page files
    /// under `dir`, which must not hold another engine's files.
    pub fn start(config: SutConfig, dir: &Path) -> SutResult<Sut> {
        let engine = Engine::try_new(config.engine_config(dir)?).map_err(err)?;
        Ok(Sut { engine, config })
    }

    pub fn config(&self) -> SutConfig {
        self.config
    }

    /// `create_table` → `load` → build every structure (the engine
    /// refreshes planner statistics for each structure's columns itself).
    pub fn create(&self, spec: TableSpec) -> SutResult<SetupTimes> {
        let e = &self.engine;
        let mut times = SetupTimes::default();
        let t = Instant::now();
        e.create_table(
            spec.name,
            spec.schema,
            spec.clustered_col,
            spec.tups_per_page,
            spec.bucket_target,
        )
        .map_err(err)?;
        e.load(spec.name, spec.rows).map_err(err)?;
        times.load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (name, cols) in spec.btrees {
            e.create_btree(spec.name, name, cols).map_err(err)?;
        }
        times.build_btree_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (name, cm) in spec.cms {
            e.create_cm(spec.name, name, cm).map_err(err)?;
        }
        times.build_cm_s = t.elapsed().as_secs_f64();
        Ok(times)
    }

    /// A per-thread connection.
    pub fn client(&self) -> Client {
        Client {
            session: self.engine.session(),
            engine: self.engine.clone(),
        }
    }

    pub fn counters(&self) -> Counters {
        let s = self.engine.stats();
        let mut io = s.io;
        io.add(&self.engine.log_disk().stats());
        Counters {
            queries: s.queries,
            route_full: s.routes.full_scan,
            route_sorted: s.routes.secondary_sorted,
            route_pipelined: s.routes.secondary_pipelined,
            route_cm: s.routes.cm_scan,
            pool_hits: s.pool.hits,
            pool_misses: s.pool.misses,
            pool_evictions: s.pool.dirty_evictions + s.pool.clean_evictions,
            disk_pages_read: io.seeks + io.seq_reads,
            disk_pages_written: io.page_writes,
            disk_seeks: io.seeks + io.write_seeks,
            disk_sim_ms: io.elapsed_ms,
            disk_read_wall_ns: io.read_wall_ns,
            disk_write_wall_ns: io.write_wall_ns,
            wal_records: s.wal_records,
            wal_bytes: s.wal_durable_bytes,
            wal_commits: s.wal.commit_requests,
            wal_absorbed: s.wal.absorbed,
            wal_flushes: s.wal.flushes,
            wal_pages_flushed: s.wal.pages_flushed,
            read_stalls: s.read_stalls,
            read_stall_us: s.read_stall_ms * 1e3,
            vacuum_reclaimed: s.mvcc.map_or(0, |m| m.reclaimed_versions),
        }
    }

    pub fn footprint(&self, table: &str) -> SutResult<Footprint> {
        let info = self.engine.table_info(table).map_err(err)?;
        let mut f = Footprint {
            heap_slots: info.rows,
            heap_pages: info.pages,
            dead_versions: self.engine.dead_versions(),
            ..Footprint::default()
        };
        self.engine
            .with_each_shard(table, |i, t| {
                f.index_bytes += t.secondaries().iter().map(|s| s.size_bytes()).sum::<u64>();
                f.cm_bytes += t.cms().iter().map(|c| c.size_bytes()).sum::<u64>();
                if i == 0 {
                    f.index_height = t.secondaries().first().map_or(0, |s| s.height() as u64);
                }
            })
            .map_err(err)?;
        let disks = self
            .engine
            .shard_backends()
            .iter()
            .map(|b| b.disk())
            .chain(std::iter::once(self.engine.log_disk()));
        f.disk_bytes = disks
            .filter_map(|d| d.backing())
            .map(|fd| fd.bytes_on_disk())
            .sum();
        Ok(f)
    }

    /// `(stamps resolved, versions reclaimed)`.
    pub fn vacuum(&self) -> SutResult<(u64, u64)> {
        self.engine.vacuum().map_err(err)
    }

    pub fn checkpoint(&self) {
        self.engine.checkpoint();
    }

    /// What a power cut right now would leave behind: everything
    /// flushed survives, the unflushed log tail is lost.
    pub fn crash_state(&self) -> CrashState {
        self.engine.crash_state(None)
    }

    /// Restart from `state` into a fresh engine whose files live in `dir`.
    pub fn recover(
        config: SutConfig,
        dir: &Path,
        state: &CrashState,
    ) -> SutResult<(Sut, RecoveryReport)> {
        let (engine, report) = Engine::recover(config.engine_config(dir)?, state).map_err(err)?;
        Ok((Sut { engine, config }, report))
    }

    // ---- what the traced, decomposed read path needs -----------------

    pub fn explain(&self, table: &str, q: &Query) -> SutResult<QueryPlan> {
        self.engine.explain(table, q).map_err(err)
    }

    /// Run `f` on one shard's partition under its read lock.
    pub fn with_shard<R>(
        &self,
        table: &str,
        shard: usize,
        f: impl FnOnce(&Table) -> R,
    ) -> SutResult<R> {
        self.engine.with_shard(table, shard, f).map_err(err)
    }

    pub fn shard_io(&self, shard: usize) -> (&Arc<DiskSim>, &BufferPool) {
        let b = &self.engine.shard_backends()[shard];
        (b.disk(), b.pool())
    }

    /// The read snapshot a query would pin (MVCC engines only).
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.engine.mvcc_state().map(|mv| mv.begin())
    }

    pub fn workers(&self) -> usize {
        self.engine.num_workers()
    }

    /// Run leg tasks the way the engine does: inline for one task or one
    /// worker, otherwise on `workers` scoped threads, results in
    /// submission order.
    pub fn fan_out<F, R>(&self, tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        Executor::new(self.workers()).run(tasks)
    }

    pub fn shards(&self) -> usize {
        self.engine.num_shards()
    }
}

/// One connection: a `Session` for the calls it carries, the engine for
/// the rest (joins and aggregates have no session form).
pub struct Client {
    session: Session,
    engine: Arc<Engine>,
}

impl Client {
    pub fn read(&self, table: &str, q: &Query) -> SutResult<ReadOut> {
        let out = self.session.execute_collect(table, q).map_err(err)?;
        Ok(ReadOut {
            rows: out.rows.unwrap_or_default(),
            matched: out.run.matched,
            examined: out.run.examined,
            pages: out.run.io.pages(),
            legs: out
                .legs
                .iter()
                .map(|l| LegInfo {
                    est_ms: l.choice.est_ms,
                    sim_ms: l.run.io.elapsed_ms,
                })
                .collect(),
        })
    }

    pub fn join(&self, left: &str, right: &str, jq: &JoinQuery) -> SutResult<JoinOut> {
        let out = self.engine.join_collect(left, right, jq).map_err(err)?;
        Ok(JoinOut {
            rows: out.rows.unwrap_or_default(),
            matched: out.matched,
            clamped: matches!(out.strategy, JoinStrategy::CmClamp(_)),
            build_rows: out.build_rows,
            probe_pages: out.probe_run.io.pages(),
            examined: out.probe_run.examined,
        })
    }

    pub fn aggregate(&self, table: &str, q: &Query, spec: &AggSpec) -> SutResult<AggOut> {
        let out = self.engine.aggregate(table, q, spec).map_err(err)?;
        Ok(AggOut {
            rows: out.rows,
            matched: out.run.matched,
            examined: out.run.examined,
            pages: out.run.io.pages(),
            legs: out.legs.len(),
        })
    }

    pub fn insert(&self, table: &str, row: Row) -> SutResult<Rid> {
        self.session.insert(table, row).map_err(err)
    }

    /// Inserts the batch and commits it.
    pub fn insert_many(&self, table: &str, rows: Vec<Row>) -> SutResult<Vec<Rid>> {
        self.session.insert_many(table, rows).map_err(err)
    }

    /// Delete one row by the rid its insert returned.
    pub fn delete(&self, table: &str, rid: Rid) -> SutResult<()> {
        self.session.delete(table, rid).map(|_| ()).map_err(err)
    }

    /// Returns how many rows went.
    pub fn delete_where(&self, table: &str, q: &Query) -> SutResult<usize> {
        self.session
            .delete_where(table, q)
            .map(|v| v.len())
            .map_err(err)
    }

    /// Commits the open transaction; the I/O the flush charged.
    pub fn commit(&self) -> IoStats {
        self.session.commit()
    }
}

/// A scratch directory under the benchmark's own tree, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(base: &Path, name: &str) -> SutResult<WorkDir> {
        let dir = base.join(format!("{name}-{}", std::process::id()));
        // A crashed earlier run with the same pid may have left files.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(WorkDir(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The base goes too once the last run under it has cleaned up
        // (`remove_dir` refuses a directory that is not empty).
        if let Some(base) = self.0.parent() {
            let _ = std::fs::remove_dir(base);
        }
    }
}
