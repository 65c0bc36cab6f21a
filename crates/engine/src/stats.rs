//! Engine-wide counters: routing decisions, row and query totals, and
//! shard read-lock stalls, with the [`EngineStats`] snapshot over them.

use crate::engine::Engine;
use cm_query::AccessPath;
use cm_storage::{GroupCommitStats, IoStats, MvccStats, PoolStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-access-path routing counters (cumulative since engine start).
/// Every planned leg is one decision: a read's, an aggregate's, a join
/// phase's, or a `delete_where`'s victim search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounts {
    /// Legs routed to a full table scan.
    pub full_scan: u64,
    /// Legs routed to a sorted (bitmap) secondary index scan.
    pub secondary_sorted: u64,
    /// Legs routed to a pipelined secondary index scan.
    pub secondary_pipelined: u64,
    /// Legs routed to a CM-guided scan.
    pub cm_scan: u64,
}

impl RouteCounts {
    /// Total routed legs.
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
    /// pages flushed, commits that lingered for company).
    pub wal: GroupCommitStats,
    /// Tables in the catalog.
    pub tables: usize,
    /// Rows across every loaded table (live + tombstoned slots).
    pub total_rows: u64,
    /// MVCC clock / snapshot / vacuum counters (`Some` iff
    /// [`EngineConfig::mvcc`](crate::EngineConfig::mvcc)).
    pub mvcc: Option<MvccStats>,
    /// Total wall-clock time query legs spent waiting to acquire shard
    /// read locks (ms) — the only lock a read takes. This is real
    /// blocking (readers queued behind a writer's, vacuum's or a design
    /// install's write-lock hold), not simulated I/O.
    pub read_stall_ms: f64,
    /// Shard read-lock acquisitions that waited longer than
    /// [`Engine::STALL_FLOOR`] — i.e. actual stalls, not the
    /// nanosecond-scale cost of an uncontended acquisition.
    pub read_stalls: u64,
    /// Longest single shard read-lock wait a query leg observed (ms).
    pub read_stall_max_ms: f64,
}

/// The engine's cumulative atomic counters.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) queries: AtomicU64,
    pub(crate) inserts: AtomicU64,
    pub(crate) deletes: AtomicU64,
    route_full: AtomicU64,
    route_sorted: AtomicU64,
    route_pipelined: AtomicU64,
    route_cm: AtomicU64,
    /// Wall-clock nanoseconds query legs spent waiting on shard read
    /// locks (see [`EngineStats::read_stall_ms`]).
    read_stall_ns: AtomicU64,
    /// Read-lock acquisitions that waited past [`Engine::STALL_FLOOR`].
    read_stalls: AtomicU64,
    /// Longest single read-lock wait (ns).
    read_stall_max_ns: AtomicU64,
}

impl Engine {
    /// Cumulative engine statistics. Catalog-derived aggregates snapshot
    /// the entry `Arc`s under one brief catalog read lock, then read
    /// per-table state outside it.
    pub fn stats(&self) -> EngineStats {
        let infos = self.table_infos();
        let c = &self.counters;
        EngineStats {
            queries: c.queries.load(Ordering::Relaxed),
            inserts: c.inserts.load(Ordering::Relaxed),
            deletes: c.deletes.load(Ordering::Relaxed),
            routes: self.route_counts(),
            io: self.io_totals(),
            pool: self.pool_totals(),
            wal_records: self.wal.records(),
            wal_durable_bytes: self.wal.durable_bytes(),
            wal: self.wal.stats(),
            tables: infos.len(),
            total_rows: infos.iter().map(|i| i.rows).sum(),
            mvcc: self.mvcc_stats(),
            read_stall_ms: c.read_stall_ns.load(Ordering::Relaxed) as f64 / 1e6,
            read_stalls: c.read_stalls.load(Ordering::Relaxed),
            read_stall_max_ms: c.read_stall_max_ns.load(Ordering::Relaxed) as f64 / 1e6,
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
        let c = &self.counters;
        c.read_stall_ns.fetch_add(ns, Ordering::Relaxed);
        if waited >= Self::STALL_FLOOR {
            c.read_stalls.fetch_add(1, Ordering::Relaxed);
            c.read_stall_max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// WAL group-commit behaviour counters.
    pub fn wal_stats(&self) -> GroupCommitStats {
        self.wal.stats()
    }

    /// Routing decisions by chosen path (cost-based executions only;
    /// forced paths are not counted).
    pub fn route_counts(&self) -> RouteCounts {
        let c = &self.counters;
        RouteCounts {
            full_scan: c.route_full.load(Ordering::Relaxed),
            secondary_sorted: c.route_sorted.load(Ordering::Relaxed),
            secondary_pipelined: c.route_pipelined.load(Ordering::Relaxed),
            cm_scan: c.route_cm.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_route(&self, path: AccessPath) {
        let c = &self.counters;
        let counter = match path {
            AccessPath::FullScan => &c.route_full,
            AccessPath::SecondarySorted(_) => &c.route_sorted,
            AccessPath::SecondaryPipelined(_) => &c.route_pipelined,
            AccessPath::CmScan(_) => &c.route_cm,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}
