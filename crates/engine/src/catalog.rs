//! The catalog: engine configuration, table entries, create / load, and
//! catalog summaries, plus the `with_*` hatches that hand tooling a
//! shard partition under its read lock.
//!
//! A table entry's loaded state is written exactly once — by
//! [`Engine::load`], or by recovery restoring an image — and never
//! replaced afterwards: design changes swap structures inside each
//! partition under its own lock. So the slot is a [`OnceLock`] and an
//! operation takes no table-level lock, only the shard locks its legs
//! need.

use crate::engine::Engine;
use crate::error::{check_cols, EngineError};
use crate::shard::{partition_rows, RangeRouter};
use crate::Result;
use cm_advisor::WorkloadProfile;
use cm_query::Table;
use cm_storage::{Backend, DiskConfig, GroupCommitConfig, HeapFile, Row, Schema};
use parking_lot::{Mutex, RwLock};
use std::sync::{Arc, OnceLock};

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
    /// Appended WAL records between automatic fuzzy checkpoints: when a
    /// [`Engine::commit`] observes at least this many records since the
    /// last checkpoint, it runs [`Engine::checkpoint`] before returning
    /// (skipped if another session's checkpoint is already in flight).
    /// `0` disables automatic checkpoints (the default; call
    /// [`Engine::checkpoint`] explicitly).
    pub checkpoint_every: u64,
    /// Multi-version concurrency for reads: every query reads at a
    /// snapshot timestamp under shard *read* locks, and writers stamp
    /// `begin`/`end` versions instead of physically removing rows — so
    /// a delete search, and the build phase of a design change, run
    /// under the shard read lock too. Off by default (the locking
    /// behaviour, where a delete removes its row and both take the
    /// shard write lock; the `mvcc_reads` bench sweeps both).
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
    /// Empty until [`Engine::load`] (or recovery) fills it, once. Each
    /// partition carries its own lock, so readers on different shards
    /// (and writers on different shards) proceed in parallel, and a
    /// design change swaps one shard at a time under that shard's lock.
    pub(crate) loaded: OnceLock<LoadedTable>,
    /// Online workload profile: per-column read traffic plus the write
    /// count, recorded by every execute/insert/delete and harvested by
    /// [`Engine::advise_design`].
    pub(crate) profile: Mutex<WorkloadProfile>,
}

impl TableEntry {
    /// The loaded partitions, or [`EngineError::NotLoaded`].
    pub(crate) fn loaded(&self) -> Result<&LoadedTable> {
        self.loaded.get().ok_or_else(|| EngineError::NotLoaded(self.name.clone()))
    }
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

impl Engine {
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
                loaded: OnceLock::new(),
                profile: Mutex::new(WorkloadProfile::new()),
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
        let already = || EngineError::AlreadyLoaded(entry.name.clone());
        if entry.loaded.get().is_some() {
            return Err(already());
        }
        let (chunks, splits) = partition_rows(rows, entry.clustered_col, self.backends.len());
        let router = RangeRouter::new(entry.clustered_col, splits);
        debug_assert_eq!(
            router.num_shards(),
            chunks.len(),
            "router addresses exactly the partitions built"
        );
        // The rows arrive sorted: each chunk loads as a sorted heap, all
        // live.
        let shards = chunks.into_iter().enumerate().map(|(i, chunk)| {
            let disk = self.backends[i].disk();
            let heap = HeapFile::bulk_load(disk, entry.schema.clone(), chunk, entry.tups_per_page)?;
            let len = heap.len();
            Ok((heap, vec![u64::MAX; len.div_ceil(64) as usize], len))
        });
        // A racing second load loses here, however far its build got.
        let total = self.publish_parts(&entry, router, shards)?.base_lens.iter().sum();
        // The bulk build is not logged record by record, so recovery
        // starts from an image of the freshly-loaded state; install it
        // before any logged mutation can land.
        self.install_base_image();
        Ok(total)
    }

    /// Build a table's partitions — shard `i` restored on backend `i`
    /// from its heap, liveness bitmap and sorted-prefix length
    /// ([`Table::restore`]) — and publish them behind `router` as the
    /// table's loaded state: the one construction path of
    /// [`Engine::load`] and recovery. Each shard's heap is made on its
    /// backend as the iterator yields it, just before its table is
    /// built. A table already loaded is [`EngineError::AlreadyLoaded`].
    pub(crate) fn publish_parts<'e>(
        &self,
        entry: &'e TableEntry,
        router: RangeRouter,
        shards: impl IntoIterator<Item = Result<(HeapFile, Vec<u64>, u64)>>,
    ) -> Result<&'e LoadedTable> {
        let mut parts = Vec::new();
        let mut base_lens = Vec::new();
        for (i, shard) in shards.into_iter().enumerate() {
            let (heap, live, base_len) = shard?;
            let t = Table::restore(
                self.backends[i].disk(),
                heap,
                &live,
                entry.clustered_col,
                entry.bucket_target,
                base_len,
            );
            parts.push(RwLock::new(t));
            base_lens.push(base_len);
        }
        let loaded = LoadedTable { router, parts, base_lens };
        entry.loaded.set(loaded).map_err(|_| EngineError::AlreadyLoaded(entry.name.clone()))?;
        entry.loaded()
    }

    /// Refresh planner statistics for the given columns on every shard
    /// (the paper's statistics scan; uncharged). Each shard is scanned
    /// under its read lock ([`Table::column_stats`]) and the result
    /// installed in a short write hold, so readers never wait out a
    /// scan; rows appended in between are not counted, as rows appended
    /// after any analyze never are. A column past the table's arity is
    /// [`EngineError::BadColumn`], before any lock is taken.
    pub fn analyze(&self, table: &str, cols: &[usize]) -> Result<()> {
        let entry = self.entry(table)?;
        check_cols(&entry.name, entry.schema.arity(), cols.iter().copied())?;
        for part in &entry.loaded()?.parts {
            let stats: Vec<_> = {
                let t = part.read();
                cols.iter().map(|&col| t.column_stats(col)).collect()
            };
            part.write().install_stats(stats);
        }
        Ok(())
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
        let mut infos: Vec<TableInfo> =
            self.entries().iter().map(|e| Self::entry_info(e)).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    fn entry_info(entry: &TableEntry) -> TableInfo {
        let mut info = TableInfo {
            name: entry.name.clone(),
            loaded: false,
            rows: 0,
            pages: 0,
            shards: 0,
            secondaries: 0,
            cms: 0,
        };
        let Some(lt) = entry.loaded.get() else { return info };
        info.loaded = true;
        info.shards = lt.parts.len();
        for (i, part) in lt.parts.iter().enumerate() {
            let t = part.read();
            info.rows += t.heap().len();
            info.pages += t.heap().num_pages();
            if i == 0 {
                info.secondaries = t.secondaries().len();
                info.cms = t.cms().len();
            }
        }
        info
    }

    /// Run `f` with shared (read-locked) access to a single-shard
    /// table's partition — the escape hatch for tooling layered on the
    /// engine, e.g. the CM Advisor. Errors on multi-shard tables; use
    /// [`Engine::with_shard`] there.
    pub fn with_table<R>(&self, table: &str, f: impl FnOnce(&Table) -> R) -> Result<R> {
        let entry = self.entry(table)?;
        let lt = entry.loaded()?;
        if lt.parts.len() != 1 {
            return Err(EngineError::ShardedTable(entry.name.clone()));
        }
        let out = f(&lt.parts[0].read());
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
        let part = entry.loaded()?.parts.get(shard).ok_or_else(|| EngineError::BadRid {
            table: entry.name.clone(),
            rid: shard as u64,
        })?;
        let out = f(&part.read());
        Ok(out)
    }

    /// Run `f` over every shard's partition of a table, in shard order.
    pub fn with_each_shard(
        &self,
        table: &str,
        mut f: impl FnMut(usize, &Table),
    ) -> Result<()> {
        for (i, part) in self.entry(table)?.loaded()?.parts.iter().enumerate() {
            f(i, &part.read());
        }
        Ok(())
    }

    pub(crate) fn entry(&self, table: &str) -> Result<Arc<TableEntry>> {
        self.catalog
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))
    }

    /// Every catalog entry, snapshotted under one brief catalog read
    /// lock (in no particular order).
    pub(crate) fn entries(&self) -> Vec<Arc<TableEntry>> {
        self.catalog.read().values().cloned().collect()
    }
}
