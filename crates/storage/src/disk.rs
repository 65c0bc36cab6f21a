//! Simulated disk with the paper's cost constants.
//!
//! Every experiment in the paper is disk-bound; the quantities it plots are
//! functions of the page-access pattern. [`DiskSim`] records each page
//! read/write and prices it with the constants from Table 1 of the paper:
//! a page that continues the previous access (same file, next page) costs
//! `seq_page_cost` = 0.078 ms; any other page costs `seek_cost` = 5.5 ms.
//! This is the same methodology the paper itself uses to study clustered
//! bucketing in §6.1.1 ("we simulated the disk behavior by counting scanned
//! pages and seeks, and then calculated the runtime by applying the
//! statistics in Table 1").

use crate::filedisk::FileDisk;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a simulated file (heap file, index file, WAL, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Hardware parameters of the simulated disk (paper, Table 1).
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Time to seek to a random disk page and read it, in milliseconds.
    pub seek_ms: f64,
    /// Time to read one disk page sequentially, in milliseconds.
    pub seq_page_ms: f64,
    /// Page size in bytes (used to derive tuples-per-page and WAL pages).
    pub page_bytes: usize,
}

impl Default for DiskConfig {
    fn default() -> Self {
        // Measured values reported in Table 1 of the paper.
        DiskConfig { seek_ms: 5.5, seq_page_ms: 0.078, page_bytes: 8192 }
    }
}

/// Cumulative I/O counters, separable and subtractable so an experiment can
/// snapshot around a query and report the delta.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Random page accesses (head had to move).
    pub seeks: u64,
    /// Sequential page reads (head continued from the previous page).
    pub seq_reads: u64,
    /// Page writes (always counted; cost follows the same seek/seq rule).
    pub page_writes: u64,
    /// Page writes that were priced at full seek cost (the head had to
    /// move first). Always `<= page_writes`; the rest were sequential.
    pub write_seeks: u64,
    /// Simulated elapsed time in milliseconds.
    pub elapsed_ms: f64,
    /// Wall-clock nanoseconds spent in real read syscalls, when the disk
    /// is file-backed ([`DiskSim::with_backing`]). Zero on a pure sim.
    pub read_wall_ns: u64,
    /// Wall-clock nanoseconds spent in real write syscalls (see
    /// [`IoStats::read_wall_ns`]).
    pub write_wall_ns: u64,
}

impl IoStats {
    /// Total pages touched (reads + writes).
    pub fn pages(&self) -> u64 {
        self.seeks + self.seq_reads + self.page_writes
    }

    /// Head movements per page touched (read seeks + write seeks over
    /// total pages) — 1.0 means every access paid a full seek, values
    /// near zero mean the traffic was overwhelmingly sequential.
    pub fn seeks_per_page(&self) -> f64 {
        let pages = self.pages();
        if pages == 0 {
            0.0
        } else {
            (self.seeks + self.write_seeks) as f64 / pages as f64
        }
    }

    /// Wall-clock milliseconds of real device I/O (reads + writes).
    /// Zero unless the disk is file-backed ([`DiskSim::with_backing`]).
    pub fn wall_ms(&self) -> f64 {
        (self.read_wall_ns + self.write_wall_ns) as f64 / 1e6
    }

    /// `self - earlier`, for snapshot-delta reporting.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seeks: self.seeks - earlier.seeks,
            seq_reads: self.seq_reads - earlier.seq_reads,
            page_writes: self.page_writes - earlier.page_writes,
            write_seeks: self.write_seeks - earlier.write_seeks,
            elapsed_ms: self.elapsed_ms - earlier.elapsed_ms,
            read_wall_ns: self.read_wall_ns - earlier.read_wall_ns,
            write_wall_ns: self.write_wall_ns - earlier.write_wall_ns,
        }
    }

    /// Accumulate another stats delta into this one.
    pub fn add(&mut self, other: &IoStats) {
        self.seeks += other.seeks;
        self.seq_reads += other.seq_reads;
        self.page_writes += other.page_writes;
        self.write_seeks += other.write_seeks;
        self.elapsed_ms += other.elapsed_ms;
        self.read_wall_ns += other.read_wall_ns;
        self.write_wall_ns += other.write_wall_ns;
    }
}

#[derive(Debug, Default)]
struct DiskState {
    /// Last page touched: sequentiality is judged against this position.
    head: Option<(FileId, u64)>,
    stats: IoStats,
}

/// Anything pages can be charged against: the raw simulated disk, or a
/// [`BufferPool`](crate::bufferpool::BufferPool) that absorbs hits.
///
/// Operators in `cm-index` / `cm-query` take `&dyn PageAccessor` so the
/// same code runs cold (straight to disk, as in the paper's flushed-cache
/// query experiments) or warm (through the pool, as in the maintenance
/// experiments).
pub trait PageAccessor: Sync {
    /// Charge a read of `page` in `file`.
    fn read(&self, file: FileId, page: u64);
    /// Charge a write of `page` in `file` (or mark it dirty, for a pool).
    fn write(&self, file: FileId, page: u64);

    /// Charge a vectored read of the contiguous run `lo..=hi` in `file`.
    ///
    /// The default forwards page by page, so existing accessors keep
    /// working unchanged; accessors that can do better (the disk itself,
    /// a buffer pool) override it to price and admit the whole run
    /// atomically — one seek plus sequential pages, immune to
    /// interleaving from concurrent sessions on the same device.
    fn read_run(&self, file: FileId, lo: u64, hi: u64) {
        for page in lo..=hi {
            self.read(file, page);
        }
    }

    /// Charge a vectored write of the contiguous run `lo..=hi` in `file`.
    /// Default: page by page (see [`PageAccessor::read_run`]).
    fn write_run(&self, file: FileId, lo: u64, hi: u64) {
        for page in lo..=hi {
            self.write(file, page);
        }
    }
}

/// Call `f(lo, hi)` for each maximal contiguous run in an ascending,
/// deduplicated page list — the shared coalescing step behind the
/// vectored scan paths and checkpoint write-back.
///
/// # Precondition
///
/// `pages` must be **strictly ascending** (sorted, no duplicates). On
/// unsorted or duplicated input the coalescing silently degrades: a
/// descending pair splits one physical run into two (double-charging a
/// seek), and a duplicate both splits the run *and* re-charges the page.
/// Callers own the sort/dedup (every in-tree caller walks an ordered
/// page-set or B-tree range, so the invariant is free); debug builds
/// assert it.
pub fn for_each_page_run(pages: &[u64], mut f: impl FnMut(u64, u64)) {
    debug_assert!(
        pages.windows(2).all(|w| w[0] < w[1]),
        "for_each_page_run requires strictly ascending pages, got {pages:?}"
    );
    let mut i = 0;
    while i < pages.len() {
        let mut j = i;
        while j + 1 < pages.len() && pages[j + 1] == pages[j] + 1 {
            j += 1;
        }
        f(pages[i], pages[j]);
        i = j + 1;
    }
}

/// The simulated disk.
///
/// Thread-safe; experiments that drive queries in parallel each use their
/// own `DiskSim` (sharing one would interleave head positions and destroy
/// sequentiality, just like two concurrent scans on a real spindle).
#[derive(Debug)]
pub struct DiskSim {
    cfg: DiskConfig,
    state: Mutex<DiskState>,
    next_file: AtomicU32,
    /// When present, every charge also performs (and times) the real
    /// syscalls against this file-backed store. The sim counters are
    /// byte-for-byte identical with or without a backing — the backing
    /// only adds `read_wall_ns`/`write_wall_ns`.
    backing: Option<FileDisk>,
}

impl DiskSim {
    /// New disk with the given parameters.
    pub fn new(cfg: DiskConfig) -> Arc<Self> {
        Arc::new(DiskSim {
            cfg,
            state: Mutex::new(DiskState::default()),
            next_file: AtomicU32::new(0),
            backing: None,
        })
    }

    /// New disk with the paper's Table 1 parameters.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(DiskConfig::default())
    }

    /// New disk whose every charge also drives a real file-backed store
    /// (see [`FileDisk`]): the simulator keeps pricing accesses in
    /// sim-ms exactly as [`DiskSim::new`] would, and additionally issues
    /// the `pread`/`pwrite` (one vectored syscall per run) against
    /// `backing`, accumulating the measured wall-clock into
    /// [`IoStats::read_wall_ns`] / [`IoStats::write_wall_ns`]. The real
    /// I/O happens *inside* the same critical section that prices the
    /// run, preserving the single-spindle model: two backed runs cannot
    /// interleave on the device any more than their charges can.
    pub fn with_backing(cfg: DiskConfig, backing: FileDisk) -> Arc<Self> {
        assert_eq!(
            backing.page_bytes(),
            cfg.page_bytes,
            "backing page size must match the simulated page size"
        );
        Arc::new(DiskSim {
            cfg,
            state: Mutex::new(DiskState::default()),
            next_file: AtomicU32::new(0),
            backing: Some(backing),
        })
    }

    /// The file-backed store behind this disk, if any.
    pub fn backing(&self) -> Option<&FileDisk> {
        self.backing.as_ref()
    }

    /// The configured hardware parameters.
    pub fn config(&self) -> DiskConfig {
        self.cfg
    }

    /// Allocate a fresh file id.
    pub fn alloc_file(&self) -> FileId {
        FileId(self.next_file.fetch_add(1, Ordering::Relaxed))
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> IoStats {
        self.state.lock().stats
    }

    /// Reset counters and head position (used between experiment runs,
    /// mirroring the paper's cache flushing between trials).
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.head = None;
        st.stats = IoStats::default();
    }

    /// Cost of moving the head from `head` to `(file, page)`: adjacent
    /// (or same) pages are sequential; a short forward skip is priced as
    /// reading through the gap, capped by a full seek — this is what
    /// makes a dense bitmap sweep "gradually closer to a full table scan"
    /// (§3.2/§4.1 of the paper) instead of a pathological seek per page.
    #[inline]
    fn step_cost(&self, head: Option<(FileId, u64)>, file: FileId, page: u64) -> f64 {
        match head {
            Some((f, last)) if f == file && page >= last => {
                let delta = page - last;
                if delta <= 1 {
                    self.cfg.seq_page_ms
                } else {
                    (delta as f64 * self.cfg.seq_page_ms).min(self.cfg.seek_ms)
                }
            }
            _ => self.cfg.seek_ms,
        }
    }

    /// Charge the contiguous run `lo..=hi` atomically under one lock:
    /// the first page is priced against the current head position, every
    /// further page at the sequential rate. Because the whole run is one
    /// critical section, concurrent accessors cannot interleave into the
    /// middle of it and shatter its sequentiality — the vectored-I/O
    /// guarantee the run-based scan paths rely on.
    #[inline]
    fn charge_run(&self, file: FileId, lo: u64, hi: u64, is_write: bool) {
        assert!(lo <= hi, "run bounds inverted: {lo}..={hi}");
        let n = hi - lo + 1;
        let mut st = self.state.lock();
        let first = self.step_cost(st.head, file, lo);
        let sequential = first < self.cfg.seek_ms;
        if is_write {
            st.stats.page_writes += n;
            if !sequential {
                st.stats.write_seeks += 1;
            }
        } else if sequential {
            st.stats.seq_reads += n;
        } else {
            st.stats.seeks += 1;
            st.stats.seq_reads += n - 1;
        }
        st.stats.elapsed_ms += first + (n - 1) as f64 * self.cfg.seq_page_ms;
        st.head = Some((file, hi));
        if let Some(backing) = &self.backing {
            // Real I/O inside the charging critical section: the device,
            // like the simulated spindle, serves one run at a time.
            let t0 = Instant::now();
            let res = if is_write {
                backing.write_pages(file, lo, hi)
            } else {
                backing.read_pages(file, lo, hi)
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if is_write {
                st.stats.write_wall_ns += ns;
            } else {
                st.stats.read_wall_ns += ns;
            }
            res.unwrap_or_else(|e| {
                panic!("file-backed {} {file:?} run {lo}..={hi}: {e}",
                    if is_write { "write" } else { "read" })
            });
        }
    }

    #[inline]
    fn charge(&self, file: FileId, page: u64, is_write: bool) {
        self.charge_run(file, page, page, is_write);
    }
}

impl PageAccessor for DiskSim {
    fn read(&self, file: FileId, page: u64) {
        self.charge(file, page, false);
    }

    fn write(&self, file: FileId, page: u64) {
        self.charge(file, page, true);
    }

    fn read_run(&self, file: FileId, lo: u64, hi: u64) {
        self.charge_run(file, lo, hi, false);
    }

    fn write_run(&self, file: FileId, lo: u64, hi: u64) {
        self.charge_run(file, lo, hi, true);
    }
}

impl PageAccessor for Arc<DiskSim> {
    fn read(&self, file: FileId, page: u64) {
        self.as_ref().read(file, page);
    }
    fn write(&self, file: FileId, page: u64) {
        self.as_ref().write(file, page);
    }
    fn read_run(&self, file: FileId, lo: u64, hi: u64) {
        self.as_ref().read_run(file, lo, hi);
    }
    fn write_run(&self, file: FileId, lo: u64, hi: u64) {
        self.as_ref().write_run(file, lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// Counters exactly equal, elapsed within float-summation tolerance
    /// (a vectored run sums its cost in one expression, a per-page loop
    /// accumulates — same value up to rounding order).
    fn stats_equivalent(a: &IoStats, b: &IoStats) -> bool {
        a.seeks == b.seeks
            && a.seq_reads == b.seq_reads
            && a.page_writes == b.page_writes
            && a.write_seeks == b.write_seeks
            && close(a.elapsed_ms, b.elapsed_ms)
    }

    #[test]
    fn sequential_run_costs_one_seek_plus_seq_pages() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        for p in 0..10 {
            disk.read(f, p);
        }
        let s = disk.stats();
        assert_eq!(s.seeks, 1);
        assert_eq!(s.seq_reads, 9);
        assert!(close(s.elapsed_ms, 5.5 + 9.0 * 0.078), "got {}", s.elapsed_ms);
    }

    #[test]
    fn rereading_same_page_is_sequential() {
        // The head is already positioned there; no mechanical movement.
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        disk.read(f, 3);
        disk.read(f, 3);
        let s = disk.stats();
        assert_eq!(s.seeks, 1);
        assert_eq!(s.seq_reads, 1);
    }

    #[test]
    fn scattered_reads_all_seek() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        for p in [100u64, 5, 900, 42] {
            disk.read(f, p);
        }
        let s = disk.stats();
        assert_eq!(s.seeks, 4);
        assert_eq!(s.seq_reads, 0);
        assert!(close(s.elapsed_ms, 4.0 * 5.5));
    }

    #[test]
    fn switching_files_breaks_sequentiality() {
        let disk = DiskSim::with_defaults();
        let f1 = disk.alloc_file();
        let f2 = disk.alloc_file();
        disk.read(f1, 0);
        disk.read(f1, 1);
        disk.read(f2, 2); // different file: seek even though page is "next"
        disk.read(f1, 2); // back to f1: seek again
        let s = disk.stats();
        assert_eq!(s.seeks, 3);
        assert_eq!(s.seq_reads, 1);
    }

    #[test]
    fn writes_are_counted_separately_but_priced_by_position() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        disk.write(f, 0);
        disk.write(f, 1);
        disk.write(f, 5000);
        let s = disk.stats();
        assert_eq!(s.page_writes, 3);
        assert_eq!(s.seeks, 0);
        assert!(close(s.elapsed_ms, 5.5 + 0.078 + 5.5));
    }

    #[test]
    fn short_forward_skips_price_as_read_through() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        disk.read(f, 0);
        disk.read(f, 10); // skip of 10 pages: 10 * 0.078 < 5.5
        let s = disk.stats();
        assert!(close(s.elapsed_ms, 5.5 + 10.0 * 0.078), "got {}", s.elapsed_ms);
        assert_eq!(s.seq_reads, 1, "short skip counts as read-through");
        // A long forward skip is a real seek.
        disk.read(f, 10_000);
        assert_eq!(disk.stats().seeks, 2);
        // A backward skip is always a seek.
        disk.read(f, 9_000);
        assert_eq!(disk.stats().seeks, 3);
    }

    #[test]
    fn stats_delta_and_reset() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        disk.read(f, 0);
        let snap = disk.stats();
        disk.read(f, 1);
        disk.read(f, 2);
        let d = disk.stats().since(&snap);
        assert_eq!(d.seq_reads, 2);
        assert_eq!(d.seeks, 0);
        disk.reset();
        assert_eq!(disk.stats(), IoStats::default());
        // After reset the head is unknown again: first read seeks.
        disk.read(f, 3);
        assert_eq!(disk.stats().seeks, 1);
    }

    #[test]
    fn file_ids_are_unique() {
        let disk = DiskSim::with_defaults();
        let a = disk.alloc_file();
        let b = disk.alloc_file();
        assert_ne!(a, b);
    }

    #[test]
    fn iostats_accumulate() {
        let mut total = IoStats::default();
        let d = IoStats {
            seeks: 2,
            seq_reads: 3,
            page_writes: 1,
            write_seeks: 1,
            elapsed_ms: 12.0,
            ..Default::default()
        };
        total.add(&d);
        total.add(&d);
        assert_eq!(total.seeks, 4);
        assert_eq!(total.write_seeks, 2);
        assert_eq!(total.pages(), 12);
        assert!(close(total.elapsed_ms, 24.0));
        // 4 read seeks + 2 write seeks over 12 pages.
        assert!(close(total.seeks_per_page(), 0.5));
        assert!(close(IoStats::default().seeks_per_page(), 0.0));
    }

    #[test]
    fn read_run_prices_one_seek_plus_sequential() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        disk.read_run(f, 10, 19);
        let s = disk.stats();
        assert_eq!(s.seeks, 1);
        assert_eq!(s.seq_reads, 9);
        assert!(close(s.elapsed_ms, 5.5 + 9.0 * 0.078), "got {}", s.elapsed_ms);
        // A run continuing the head position is entirely sequential.
        disk.read_run(f, 20, 24);
        let s = disk.stats();
        assert_eq!(s.seeks, 1);
        assert_eq!(s.seq_reads, 14);
    }

    #[test]
    fn run_charges_match_their_per_page_equivalent() {
        // Single-threaded, a vectored run is priced exactly like the same
        // pages charged one by one — only atomicity differs.
        let a = DiskSim::with_defaults();
        let b = DiskSim::with_defaults();
        let fa = a.alloc_file();
        let fb = b.alloc_file();
        a.read_run(fa, 3, 12);
        for p in 3..=12 {
            b.read(fb, p);
        }
        assert!(stats_equivalent(&a.stats(), &b.stats()), "{:?} vs {:?}", a.stats(), b.stats());
        a.write_run(fa, 13, 20);
        for p in 13..=20 {
            b.write(fb, p);
        }
        assert_eq!(a.stats().page_writes, b.stats().page_writes);
        assert!(close(a.stats().elapsed_ms, b.stats().elapsed_ms));
    }

    #[test]
    fn run_is_atomic_under_interleaving() {
        // Two "sessions" interleave at run granularity: each run still
        // pays one seek, not one per page — the vectored-I/O guarantee.
        let disk = DiskSim::with_defaults();
        let f1 = disk.alloc_file();
        let f2 = disk.alloc_file();
        for chunk in 0..5u64 {
            disk.read_run(f1, chunk * 10, chunk * 10 + 9);
            disk.read_run(f2, chunk * 10, chunk * 10 + 9);
        }
        let s = disk.stats();
        assert_eq!(s.seeks, 10, "one seek per run, not per page");
        assert_eq!(s.seq_reads, 90);
    }

    #[test]
    fn write_run_counts_write_seeks() {
        let disk = DiskSim::with_defaults();
        let f = disk.alloc_file();
        disk.write_run(f, 5, 9);
        let s = disk.stats();
        assert_eq!(s.page_writes, 5);
        assert_eq!(s.write_seeks, 1, "head moved once for the whole run");
        assert!(close(s.elapsed_ms, 5.5 + 4.0 * 0.078));
        // Continuing the head: no further write seek.
        disk.write_run(f, 10, 11);
        assert_eq!(disk.stats().write_seeks, 1);
        // A single scattered write is a write seek too.
        disk.write(f, 5000);
        assert_eq!(disk.stats().write_seeks, 2);
    }

    #[test]
    fn page_runs_coalesce_maximally() {
        let mut runs = Vec::new();
        for_each_page_run(&[1, 2, 3, 7, 9, 10], |lo, hi| runs.push((lo, hi)));
        assert_eq!(runs, vec![(1, 3), (7, 7), (9, 10)]);
        runs.clear();
        for_each_page_run(&[], |lo, hi| runs.push((lo, hi)));
        assert!(runs.is_empty());
        runs.clear();
        for_each_page_run(&[42], |lo, hi| runs.push((lo, hi)));
        assert_eq!(runs, vec![(42, 42)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn page_runs_reject_unsorted_input() {
        for_each_page_run(&[5, 3], |_, _| {});
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn page_runs_reject_duplicated_input() {
        // A duplicate is as corrosive as a sort violation: it would split
        // the run and re-charge the page.
        for_each_page_run(&[3, 3, 4], |_, _| {});
    }

    /// A minimal accessor that does NOT override the run methods — it
    /// exercises the trait's default per-page forwarding.
    struct ForwardingOnly<'a>(&'a DiskSim);

    impl PageAccessor for ForwardingOnly<'_> {
        fn read(&self, file: FileId, page: u64) {
            self.0.read(file, page);
        }
        fn write(&self, file: FileId, page: u64) {
            self.0.write(file, page);
        }
    }

    #[test]
    fn default_run_methods_forward_page_by_page() {
        // A custom accessor without run overrides must charge a run
        // identically to an explicit page-by-page loop: same counters,
        // same cost, no hidden vectored shortcut.
        let through_default = DiskSim::with_defaults();
        let by_hand = DiskSim::with_defaults();
        let fd = through_default.alloc_file();
        let fh = by_hand.alloc_file();

        let accessor = ForwardingOnly(&through_default);
        accessor.read_run(fd, 4, 13);
        accessor.write_run(fd, 30, 34);
        for p in 4..=13 {
            by_hand.read(fh, p);
        }
        for p in 30..=34 {
            by_hand.write(fh, p);
        }
        assert!(
            stats_equivalent(&through_default.stats(), &by_hand.stats()),
            "{:?} vs {:?}",
            through_default.stats(),
            by_hand.stats()
        );
        // And the default really is per-page: interleaving two forwarding
        // accessors on one disk shatters sequentiality (10 + 10 pages in
        // alternation -> a seek per page), which a vectored override
        // would have prevented.
        let shared = DiskSim::with_defaults();
        let f1 = shared.alloc_file();
        let f2 = shared.alloc_file();
        for p in 0..10 {
            ForwardingOnly(&shared).read(f1, p);
            ForwardingOnly(&shared).read(f2, p);
        }
        assert_eq!(shared.stats().seeks, 20, "per-page forwarding interleaves");
    }

    #[test]
    fn backed_disk_same_sim_stats_plus_wall_clock() {
        use crate::filedisk::{FileDisk, TempDir};
        let tmp = TempDir::new("cm-disk-backed").unwrap();
        let cfg = DiskConfig::default();
        let pure = DiskSim::new(cfg);
        let backed = DiskSim::with_backing(
            cfg,
            FileDisk::new(tmp.path().join("d"), cfg.page_bytes, false).unwrap(),
        );
        assert!(backed.backing().is_some());
        for disk in [&pure, &backed] {
            let f = disk.alloc_file();
            disk.read_run(f, 0, 9);
            disk.write_run(f, 10, 14);
            disk.read(f, 100);
        }
        let (p, b) = (pure.stats(), backed.stats());
        // Sim accounting is identical; only the wall clock differs.
        assert!(stats_equivalent(&p, &b), "{p:?} vs {b:?}");
        assert_eq!(p.read_wall_ns, 0);
        assert_eq!(p.wall_ms(), 0.0);
        assert!(b.read_wall_ns > 0, "backed reads took real time");
        assert!(b.write_wall_ns > 0, "backed writes took real time");
        assert!(b.wall_ms() > 0.0);
        // since() subtracts the wall counters too.
        let snap = backed.stats();
        let f = backed.alloc_file();
        backed.read(f, 0);
        let d = backed.stats().since(&snap);
        assert_eq!(d.seeks, 1);
        assert!(d.read_wall_ns > 0 && d.write_wall_ns == 0);
    }
}
