//! The storage service: per-DC rings, the global proxy, and freshness.
//!
//! Paper §6.1–§6.4. One [`PaxosCluster`] per datacenter stores the rows of
//! entities homed there; the service front end is the "globally available
//! proxy layer that provides uniform access to the network states" —
//! callers never name a ring, only entities. Reads take a [`Freshness`]:
//!
//! * `UpToDate` — served by the partition leader (linearizable with
//!   respect to commits through this service);
//! * `BoundedStale` — served from a per-partition cache refreshed from a
//!   follower replica no more often than the staleness bound (5 minutes in
//!   the paper), trading freshness for read throughput.
//!
//! Locking is sharded to match the paper's partitioning: each partition
//! owns its own ring mutex and bookkeeping, so operations against
//! different datacenters never contend (§6.1: partitions are independent
//! consensus groups). The partition map itself is immutable after
//! construction, so routing, health checks, and counter reads take no
//! lock at all.

use crate::bus::ReplicaId;
use crate::cluster::{ClusterConfig, PaxosCluster};
use crate::machine::LogCommand;
use crate::wal::{DurabilityMode, WalCorruption};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_obs::{Counter, Gauge, Histogram, RecoverySummary, Registry};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, RetryPolicy,
    SimDuration, SimTime, StateDelta, StateError, StateKey, StateResult, VarId, Version,
    WriteReceipt,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Replicas per ring.
    pub replicas_per_ring: usize,
    /// Bounded-staleness window (paper: 5 minutes).
    pub staleness_bound: SimDuration,
    /// Seed for ring buses (each ring perturbs it by partition index).
    pub seed: u64,
    /// Base ring config (latency model etc.).
    pub ring: ClusterConfig,
    /// Bounded retry schedule for consensus commits: when a partition
    /// reports [`StateError::StorageUnavailable`], the proxy retries up
    /// to the policy's budget with jittered exponential backoff (in
    /// simulated time) before surfacing the typed error to the caller.
    pub retry: RetryPolicy,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            replicas_per_ring: 3,
            staleness_bound: SimDuration::from_mins(5),
            seed: 11,
            ring: ClusterConfig::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// A read request (the native form of Table 3's GET).
#[derive(Debug, Clone)]
pub struct ReadRequest {
    /// Which datacenter partition to read.
    pub datacenter: DatacenterId,
    /// Which pool.
    pub pool: Pool,
    /// Freshness mode.
    pub freshness: Freshness,
    /// Optional filter: only rows of this entity.
    pub entity: Option<EntityName>,
    /// Optional filter: only rows of this attribute.
    pub attribute: Option<Attribute>,
}

/// A write request (the native form of Table 3's POST).
#[derive(Debug, Clone)]
pub struct WriteRequest {
    /// Destination pool.
    pub pool: Pool,
    /// Rows to upsert (may span partitions; the proxy splits them).
    pub rows: Vec<NetworkState>,
}

/// Stage breakdown of one [`StorageService::write_bulk`] call. Stage
/// times are summed across partitions (leader-replica apply time); the
/// consensus/WAL remainder is `wall_ms` minus the stages — with
/// partitions committing concurrently the stage sum can exceed the
/// wall clock, so treat `commit_ms` as a floor of zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeedStats {
    /// Rows ingested.
    pub rows: u64,
    /// Partitions that committed a sub-batch.
    pub partitions: usize,
    /// Batched slot minting (including entity interning), ms.
    pub intern_ms: f64,
    /// Version stamping + column arena fill, ms.
    pub fill_ms: f64,
    /// Change-index/watermark maintenance, ms.
    pub index_ms: f64,
    /// Consensus + replication + WAL remainder (wall minus stages,
    /// clamped at zero), ms.
    pub commit_ms: f64,
    /// End-to-end wall time of the bulk write, ms.
    pub wall_ms: f64,
}

/// Cached pool snapshot for bounded-stale reads. Rows are shared via
/// `Arc` so concurrent cache readers never copy under the lock. The
/// watermark records which pool version the snapshot reflects, so an
/// expired entry can be refreshed by applying a small delta to its own
/// rows instead of recopying the pool out of a replica.
struct CacheEntry {
    fetched_at: SimTime,
    watermark: Version,
    rows: Arc<Vec<NetworkState>>,
}

/// µs buckets for the per-partition ring-lock wait histogram. An
/// uncontended `parking_lot` acquisition lands in the first bucket; the
/// tail buckets only fill when callers pile onto one partition.
const LOCK_WAIT_BUCKETS_US: &[f64] = &[
    1.0, 10.0, 50.0, 250.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0,
];

/// Cached metric handles for the storage service (created once at
/// [`StorageService::attach_obs`]; increments are lock-free).
#[derive(Clone)]
struct StorageObs {
    writes: Counter,
    rows_written: Counter,
    deletes: Counter,
    reads: Counter,
    leader_reads: Counter,
    cache_hits: Counter,
    retries: Counter,
    retries_exhausted: Counter,
    unavailable: Counter,
    receipts_posted: Counter,
    receipts_taken: Counter,
    partitions_offline: Gauge,
    delta_reads: Counter,
    full_fallbacks: Counter,
    writes_suppressed: Counter,
    cache_delta_refreshes: Counter,
    /// Per-partition contention series, labeled
    /// `storage_lock_wait_us{partition="..."}` /
    /// `storage_partition_inflight{partition="..."}`.
    lock_wait: HashMap<DatacenterId, Histogram>,
    partition_inflight: HashMap<DatacenterId, Gauge>,
    /// Durable-storage-plane counters, service-wide (incremented by
    /// diffing each ring's cumulative [`crate::wal::WalStats`] when its
    /// lock is released, so WAL activity costs nothing on the hot path).
    wal_appends: Counter,
    wal_fsyncs: Counter,
    wal_bytes_written: Counter,
    snapshot_compactions: Counter,
    recovery_truncated_records: Counter,
    /// Per-replica WAL tail decree, labeled
    /// `wal_tail_decree{partition="...",replica="..."}`.
    wal_tail_decree: HashMap<(DatacenterId, u8), Gauge>,
}

impl StorageObs {
    fn new(registry: &Registry, partitions: &[DatacenterId], replicas: usize) -> Self {
        let mut lock_wait = HashMap::new();
        let mut partition_inflight = HashMap::new();
        let mut wal_tail_decree = HashMap::new();
        for dc in partitions {
            let name = dc.to_string();
            let labels = [("partition", name.as_str())];
            lock_wait.insert(
                dc.clone(),
                registry.histogram_with("storage_lock_wait_us", &labels, LOCK_WAIT_BUCKETS_US),
            );
            partition_inflight.insert(
                dc.clone(),
                registry.gauge_with("storage_partition_inflight", &labels),
            );
            for r in 0..replicas {
                let replica = r.to_string();
                let labels = [("partition", name.as_str()), ("replica", replica.as_str())];
                wal_tail_decree.insert(
                    (dc.clone(), r as u8),
                    registry.gauge_with("wal_tail_decree", &labels),
                );
            }
        }
        StorageObs {
            writes: registry.counter("storage_writes_total"),
            rows_written: registry.counter("storage_rows_written_total"),
            deletes: registry.counter("storage_deletes_total"),
            reads: registry.counter("storage_reads_total"),
            leader_reads: registry.counter("storage_leader_reads_total"),
            cache_hits: registry.counter("storage_cache_hits_total"),
            retries: registry.counter("storage_retries_total"),
            retries_exhausted: registry.counter("storage_retries_exhausted_total"),
            unavailable: registry.counter("storage_unavailable_errors_total"),
            receipts_posted: registry.counter("storage_receipts_posted_total"),
            receipts_taken: registry.counter("storage_receipts_taken_total"),
            partitions_offline: registry.gauge("storage_partitions_offline"),
            delta_reads: registry.counter("storage_delta_reads_total"),
            full_fallbacks: registry.counter("storage_full_fallbacks_total"),
            writes_suppressed: registry.counter("storage_writes_suppressed_total"),
            cache_delta_refreshes: registry.counter("storage_cache_delta_refreshes_total"),
            lock_wait,
            partition_inflight,
            wal_appends: registry.counter("wal_appends_total"),
            wal_fsyncs: registry.counter("wal_fsyncs_total"),
            wal_bytes_written: registry.counter("wal_bytes_written"),
            snapshot_compactions: registry.counter("snapshot_compactions_total"),
            recovery_truncated_records: registry.counter("recovery_truncated_records_total"),
            wal_tail_decree,
        }
    }
}

/// One storage partition: a consensus ring plus everything the proxy
/// tracks about it. Each partition has its own mutex, so operations
/// against different datacenters run concurrently end to end; the
/// counters are atomics so stats reads never touch the ring lock; the
/// offline flag is an atomic so `check_online` is lock-free.
struct Partition {
    ring: Mutex<PaxosCluster>,
    /// Jitter source for this partition's retry backoff, seeded from the
    /// partition's own ring seed (`config.seed + idx`) so retry schedules
    /// stay deterministic per partition no matter how concurrent
    /// operations interleave across partitions.
    rng: Mutex<StdRng>,
    /// Fault-injected offline (degraded-mode / chaos scenarios).
    offline: AtomicBool,
    /// Reads served by this partition's leader.
    leader_reads: AtomicU64,
    /// Retries performed against this partition.
    retries: AtomicU64,
    /// Operations that exhausted their retry budget here.
    retries_exhausted: AtomicU64,
    /// `read_since` requests served incrementally from the change index.
    delta_reads: AtomicU64,
    /// `read_since` requests that fell back to a full snapshot.
    full_fallbacks: AtomicU64,
    /// Value-identical rows suppressed at apply time (leader tally).
    writes_suppressed: AtomicU64,
    /// Cumulative wall-clock µs spent waiting to acquire the ring lock
    /// (contention observability; zero when partitions never collide).
    lock_wait_us: AtomicU64,
    /// Operations currently holding or waiting for the ring lock.
    inflight: AtomicU64,
    /// Replicas of this partition currently mid-recovery (killed and not
    /// yet restarted). While non-zero the partition reports retryable
    /// unavailability rather than serving a stale pre-crash watermark.
    recovering: AtomicU64,
    /// Previously exported cumulative WAL stats, for diffing into the
    /// service-wide counters on ring-lock release.
    wal_appends_seen: AtomicU64,
    wal_fsyncs_seen: AtomicU64,
    wal_bytes_seen: AtomicU64,
    wal_compactions_seen: AtomicU64,
    wal_truncated_seen: AtomicU64,
}

impl Partition {
    fn new(rc: ClusterConfig) -> Self {
        // Same derivation the old global jitter source used, applied to
        // the per-partition ring seed instead of the service seed.
        let rng_seed = rc.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        Partition {
            ring: Mutex::new(PaxosCluster::new(rc)),
            rng: Mutex::new(StdRng::seed_from_u64(rng_seed)),
            offline: AtomicBool::new(false),
            leader_reads: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            delta_reads: AtomicU64::new(0),
            full_fallbacks: AtomicU64::new(0),
            writes_suppressed: AtomicU64::new(0),
            lock_wait_us: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            recovering: AtomicU64::new(0),
            wal_appends_seen: AtomicU64::new(0),
            wal_fsyncs_seen: AtomicU64::new(0),
            wal_bytes_seen: AtomicU64::new(0),
            wal_compactions_seen: AtomicU64::new(0),
            wal_truncated_seen: AtomicU64::new(0),
        }
    }

    /// Fail fast if this partition is fault-injected offline or has a
    /// replica mid-recovery. Lock-free: health checks never wait behind
    /// in-flight commits. The mid-recovery case takes the same typed
    /// retryable [`StateError::StorageUnavailable`] path as outages —
    /// callers retry instead of reading a stale pre-crash watermark.
    fn check_online(&self, dc: &DatacenterId) -> StateResult<()> {
        if self.offline.load(Ordering::Relaxed) {
            Err(StateError::StorageUnavailable {
                partition: dc.to_string(),
                reason: "partition offline".into(),
            })
        } else if self.recovering.load(Ordering::Relaxed) > 0 {
            Err(StateError::StorageUnavailable {
                partition: dc.to_string(),
                reason: "replica mid-recovery".into(),
            })
        } else {
            Ok(())
        }
    }
}

/// A held partition ring lock that keeps the inflight gauge honest: the
/// gauge counts from lock request to release, so it shows pile-ups while
/// they happen rather than after. On release (ring lock still held while
/// the drop body runs) it also folds the ring's cumulative WAL stats
/// into the service-wide durable-storage counters, so WAL observability
/// costs one diff per lock cycle instead of one metric op per append.
struct RingGuard<'a> {
    guard: parking_lot::MutexGuard<'a, PaxosCluster>,
    part: &'a Partition,
    gauge: Option<Gauge>,
    dc: &'a DatacenterId,
    obs: Option<&'a StorageObs>,
}

impl Drop for RingGuard<'_> {
    fn drop(&mut self) {
        self.part.inflight.fetch_sub(1, Ordering::Relaxed);
        if let Some(g) = &self.gauge {
            g.add(-1);
        }
        if let Some(o) = self.obs {
            // The mutex guard is dropped after this body, so the stats
            // snapshot and the `*_seen` swap are both taken under the
            // ring lock — deltas never race or double-count.
            let s = self.guard.wal_stats();
            let delta =
                |seen: &AtomicU64, now: u64| now.saturating_sub(seen.swap(now, Ordering::Relaxed));
            o.wal_appends
                .add(delta(&self.part.wal_appends_seen, s.appends));
            o.wal_fsyncs
                .add(delta(&self.part.wal_fsyncs_seen, s.fsyncs));
            o.wal_bytes_written
                .add(delta(&self.part.wal_bytes_seen, s.bytes_written));
            o.snapshot_compactions
                .add(delta(&self.part.wal_compactions_seen, s.compactions));
            o.recovery_truncated_records
                .add(delta(&self.part.wal_truncated_seen, s.truncated_records));
            for r in 0..self.guard.replica_count() {
                if let Some(g) = o.wal_tail_decree.get(&(self.dc.clone(), r as u8)) {
                    let tail = self.guard.replica_wal_stats(ReplicaId(r as u8)).tail_decree;
                    g.set(tail as i64);
                }
            }
        }
    }
}

impl std::ops::Deref for RingGuard<'_> {
    type Target = PaxosCluster;
    fn deref(&self) -> &PaxosCluster {
        &self.guard
    }
}

impl std::ops::DerefMut for RingGuard<'_> {
    fn deref_mut(&mut self) -> &mut PaxosCluster {
        &mut self.guard
    }
}

/// The partitioned, proxied storage service. Cheap to clone; all clones
/// share state.
#[derive(Clone)]
pub struct StorageService {
    /// The partition map, immutable after construction: lookups, routing,
    /// and health checks are lock-free reads of an `Arc`.
    parts: Arc<HashMap<DatacenterId, Partition>>,
    /// Partition names in sorted order (the deterministic iteration order
    /// every multi-partition operation uses).
    names: Arc<Vec<DatacenterId>>,
    config: Arc<StorageConfig>,
    /// Bounded-stale read cache, deliberately *outside* the partition
    /// locks: cache hits are concurrent reads that never contend with
    /// writes or leader reads — the architectural point of §6.4 (cache
    /// replicas scale out; leaders do not).
    cache: Arc<parking_lot::RwLock<HashMap<(DatacenterId, Pool), CacheEntry>>>,
    cache_hits: Arc<AtomicU64>,
    clock: statesman_net::SimClock,
    /// Metric handles, attached at most once via
    /// [`StorageService::attach_obs`]. Outside the partition locks so the
    /// bounded-stale cache-hit path can record without contending.
    obs: Arc<std::sync::OnceLock<StorageObs>>,
    /// The most recent replica crash recovery across all partitions, for
    /// the `/v1/status` `last_recovery` block.
    last_recovery: Arc<Mutex<Option<RecoverySummary>>>,
}

impl StorageService {
    /// Build a service with rings for the given datacenters (plus the WAN
    /// pseudo-datacenter, which is always present).
    pub fn new(
        datacenters: impl IntoIterator<Item = DatacenterId>,
        clock: statesman_net::SimClock,
        config: StorageConfig,
    ) -> Self {
        // Directory-backed durability gets one subdirectory per partition
        // so rings never share WAL files.
        let scope_durability = |rc: &mut ClusterConfig, dc: &DatacenterId| {
            if let DurabilityMode::Dir(base) = &config.ring.durability {
                rc.durability = DurabilityMode::Dir(base.join(dc.to_string()));
            }
        };
        let mut parts = HashMap::new();
        let mut idx = 0u64;
        for dc in datacenters {
            let mut rc = config.ring.clone();
            rc.replicas = config.replicas_per_ring;
            rc.seed = config.seed.wrapping_add(idx);
            scope_durability(&mut rc, &dc);
            idx += 1;
            parts.insert(dc, Partition::new(rc));
        }
        if let std::collections::hash_map::Entry::Vacant(e) = parts.entry(DatacenterId::wan()) {
            let mut rc = config.ring.clone();
            rc.replicas = config.replicas_per_ring;
            rc.seed = config.seed.wrapping_add(idx);
            scope_durability(&mut rc, &DatacenterId::wan());
            e.insert(Partition::new(rc));
        }
        let mut names: Vec<DatacenterId> = parts.keys().cloned().collect();
        names.sort();
        StorageService {
            parts: Arc::new(parts),
            names: Arc::new(names),
            config: Arc::new(config),
            cache: Arc::new(parking_lot::RwLock::new(HashMap::new())),
            cache_hits: Arc::new(AtomicU64::new(0)),
            clock,
            obs: Arc::new(std::sync::OnceLock::new()),
            last_recovery: Arc::new(Mutex::new(None)),
        }
    }

    /// Attach a metrics registry. Handles are created once and shared by
    /// every clone of this service; a second attach is a no-op (the
    /// registry is process-wide plumbing, not per-call state).
    pub fn attach_obs(&self, registry: &Registry) {
        let _ = self.obs.set(StorageObs::new(
            registry,
            &self.names,
            self.config.replicas_per_ring,
        ));
    }

    fn obs(&self) -> Option<&StorageObs> {
        self.obs.get()
    }

    /// The simulated clock this service stamps against.
    pub fn clock(&self) -> &statesman_net::SimClock {
        &self.clock
    }

    /// Convenience: a single-DC service with default config.
    pub fn single_dc(dc: impl Into<DatacenterId>, clock: statesman_net::SimClock) -> Self {
        StorageService::new([dc.into()], clock, StorageConfig::default())
    }

    /// The partition owning `dc`, or the typed unavailable error.
    fn part(&self, dc: &DatacenterId) -> StateResult<&Partition> {
        self.parts
            .get(dc)
            .ok_or_else(|| StateError::StorageUnavailable {
                partition: dc.to_string(),
                reason: "unknown partition".into(),
            })
    }

    /// Acquire one partition's ring lock, recording how long the
    /// acquisition waited (contention observability) and keeping the
    /// inflight gauge up while the guard lives.
    fn lock_ring<'a>(&'a self, dc: &'a DatacenterId, part: &'a Partition) -> RingGuard<'a> {
        part.inflight.fetch_add(1, Ordering::Relaxed);
        let gauge = self
            .obs()
            .and_then(|o| o.partition_inflight.get(dc))
            .cloned();
        if let Some(g) = &gauge {
            g.add(1);
        }
        let started = Instant::now();
        let guard = part.ring.lock();
        let waited = started.elapsed().as_micros() as u64;
        part.lock_wait_us.fetch_add(waited, Ordering::Relaxed);
        if let Some(h) = self.obs().and_then(|o| o.lock_wait.get(dc)) {
            h.observe(waited as f64);
        }
        RingGuard {
            guard,
            part,
            gauge,
            dc,
            obs: self.obs(),
        }
    }

    /// The partition (datacenter) names, sorted. Lock-free: the partition
    /// set is fixed at construction.
    pub fn partitions(&self) -> Vec<DatacenterId> {
        self.names.as_ref().clone()
    }

    /// Proxy routing: the partition owning an entity (its home DC).
    /// Errors if no ring exists for that DC. Lock-free.
    pub fn route(&self, entity: &EntityName) -> StateResult<DatacenterId> {
        if self.parts.contains_key(&entity.datacenter) {
            Ok(entity.datacenter.clone())
        } else {
            Err(StateError::UnroutableEntity {
                entity: entity.clone(),
            })
        }
    }

    /// Write rows. The proxy splits the batch by partition; each partition
    /// gets one consensus commit, and when the batch spans partitions the
    /// sub-batches commit **concurrently** — partitions share no state
    /// (§6.1), so there is nothing to serialize on.
    ///
    /// A multi-partition batch is **not a transaction**: each sub-batch
    /// is an independent single-partition commit, so when one partition
    /// fails (offline, no quorum) every healthy partition's sub-batch
    /// still lands. On error the result covers *all* failures — the
    /// partition's own typed error when exactly one failed, or an
    /// aggregate [`StateError::StorageUnavailable`] naming every failed
    /// partition. (The pre-shard proxy committed sequentially in sorted
    /// partition order and stopped at the first failure; callers must
    /// not infer a committed sorted prefix from an error.) Malformed or
    /// unroutable rows are still rejected up front, before *any*
    /// partition commits.
    pub fn write(&self, req: WriteRequest) -> StateResult<()> {
        if let Some(o) = self.obs() {
            o.writes.inc();
            o.rows_written.add(req.rows.len() as u64);
        }
        let mut by_dc: HashMap<DatacenterId, Vec<NetworkState>> = HashMap::new();
        for row in req.rows {
            if !row.is_well_formed() {
                return Err(StateError::invalid(format!("malformed row {row}")));
            }
            by_dc
                .entry(row.entity.datacenter.clone())
                .or_default()
                .push(row);
        }
        // Deterministic partition order, and routability validated up
        // front so a bad row cannot land part of the batch.
        let mut dcs: Vec<DatacenterId> = by_dc.keys().cloned().collect();
        dcs.sort();
        for dc in &dcs {
            if !self.parts.contains_key(dc) {
                return Err(StateError::UnroutableEntity {
                    entity: by_dc[dc][0].entity.clone(),
                });
            }
        }
        let pool = req.pool;
        let results = per_partition(&dcs, by_dc, |dc, rows| {
            self.write_partition(dc, pool.clone(), rows)
        });
        partition_results(&dcs, results)
    }

    /// One partition's share of a write: a single consensus commit under
    /// that partition's lock only.
    fn write_partition(
        &self,
        dc: &DatacenterId,
        pool: Pool,
        rows: Vec<NetworkState>,
    ) -> StateResult<()> {
        let part = self.parts.get(dc).expect("routability validated");
        let mut ring = self.lock_ring(dc, part);
        let before = leader_suppressed(&mut ring);
        let cmd = LogCommand::WriteBatch {
            pool,
            rows: rows.into(),
        };
        self.submit_with_retry(part, &mut ring, dc, cmd)?;
        let suppressed = leader_suppressed(&mut ring).saturating_sub(before);
        if suppressed > 0 {
            part.writes_suppressed
                .fetch_add(suppressed, Ordering::Relaxed);
            if let Some(o) = self.obs() {
                o.writes_suppressed.add(suppressed);
            }
        }
        Ok(())
    }

    /// Bulk-ingest write for bootstrap seeding: identical routing,
    /// validation, and failure semantics to [`StorageService::write`],
    /// but each partition's sub-batch commits as a single
    /// [`LogCommand::BulkBatch`] — batched slot minting, pre-sized
    /// column storage, one watermark bump — and the call reports a
    /// per-stage [`SeedStats`] breakdown. Partitions commit
    /// concurrently, one consensus commit each, regardless of size;
    /// callers accept the unbounded per-message payload that the
    /// chunked steady-state write path deliberately avoids.
    pub fn write_bulk(&self, req: WriteRequest) -> StateResult<SeedStats> {
        let started = Instant::now();
        if let Some(o) = self.obs() {
            o.writes.inc();
            o.rows_written.add(req.rows.len() as u64);
        }
        let mut by_dc: HashMap<DatacenterId, Vec<NetworkState>> = HashMap::new();
        for row in req.rows {
            if !row.is_well_formed() {
                return Err(StateError::invalid(format!("malformed row {row}")));
            }
            by_dc
                .entry(row.entity.datacenter.clone())
                .or_default()
                .push(row);
        }
        let mut dcs: Vec<DatacenterId> = by_dc.keys().cloned().collect();
        dcs.sort();
        for dc in &dcs {
            if !self.parts.contains_key(dc) {
                return Err(StateError::UnroutableEntity {
                    entity: by_dc[dc][0].entity.clone(),
                });
            }
        }
        let pool = req.pool;
        let per_part = per_partition(&dcs, by_dc, |dc, rows| {
            self.write_bulk_partition(dc, pool.clone(), rows)
        });
        let unit_results: Vec<StateResult<()>> = per_part
            .iter()
            .map(|r| r.as_ref().map(|_| ()).map_err(|e| e.clone()))
            .collect();
        partition_results(&dcs, unit_results)?;
        let mut stats = SeedStats {
            partitions: dcs.len(),
            ..SeedStats::default()
        };
        for bulk in per_part.into_iter().flatten() {
            stats.rows += bulk.rows;
            stats.intern_ms += bulk.intern_nanos as f64 / 1e6;
            stats.fill_ms += bulk.fill_nanos as f64 / 1e6;
            stats.index_ms += bulk.index_nanos as f64 / 1e6;
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats.commit_ms =
            (stats.wall_ms - stats.intern_ms - stats.fill_ms - stats.index_ms).max(0.0);
        Ok(stats)
    }

    /// One partition's share of a bulk write: a single `BulkBatch`
    /// consensus commit, returning the leader machine's stage-timing
    /// delta for this batch.
    fn write_bulk_partition(
        &self,
        dc: &DatacenterId,
        pool: Pool,
        rows: Vec<NetworkState>,
    ) -> StateResult<crate::machine::BulkStats> {
        let part = self.parts.get(dc).expect("routability validated");
        let mut ring = self.lock_ring(dc, part);
        let before_stats = ring
            .leader_machine()
            .map(|m| m.bulk_stats())
            .unwrap_or_default();
        let before_suppressed = leader_suppressed(&mut ring);
        self.submit_with_retry(
            part,
            &mut ring,
            dc,
            LogCommand::BulkBatch {
                pool,
                rows: std::sync::Arc::new(rows),
            },
        )?;
        let suppressed = leader_suppressed(&mut ring).saturating_sub(before_suppressed);
        if suppressed > 0 {
            part.writes_suppressed
                .fetch_add(suppressed, Ordering::Relaxed);
            if let Some(o) = self.obs() {
                o.writes_suppressed.add(suppressed);
            }
        }
        Ok(ring
            .leader_machine()
            .map(|m| m.bulk_stats())
            .unwrap_or_default()
            .since(&before_stats))
    }

    /// Delete keys from a pool (split by partition like writes, with the
    /// same concurrent multi-partition dispatch and the same
    /// independent-sub-batch failure semantics: healthy partitions
    /// commit even when others fail, and the error aggregates every
    /// failed partition — see [`StorageService::write`]).
    pub fn delete(&self, pool: Pool, keys: Vec<StateKey>) -> StateResult<()> {
        if let Some(o) = self.obs() {
            o.deletes.inc();
        }
        let mut by_dc: HashMap<DatacenterId, Vec<StateKey>> = HashMap::new();
        for k in keys {
            by_dc
                .entry(k.entity.datacenter.clone())
                .or_default()
                .push(k);
        }
        let mut dcs: Vec<DatacenterId> = by_dc.keys().cloned().collect();
        dcs.sort();
        for dc in &dcs {
            if !self.parts.contains_key(dc) {
                return Err(StateError::UnroutableEntity {
                    entity: by_dc[dc][0].entity.clone(),
                });
            }
        }
        let results = per_partition(&dcs, by_dc, |dc, keys| {
            self.delete_partition(dc, pool.clone(), keys)
        });
        partition_results(&dcs, results)
    }

    fn delete_partition(
        &self,
        dc: &DatacenterId,
        pool: Pool,
        keys: Vec<StateKey>,
    ) -> StateResult<()> {
        let part = self.parts.get(dc).expect("routability validated");
        let mut ring = self.lock_ring(dc, part);
        self.submit_with_retry(part, &mut ring, dc, LogCommand::DeleteBatch { pool, keys })
    }

    /// Read rows per the request's freshness mode.
    pub fn read(&self, req: ReadRequest) -> StateResult<Vec<NetworkState>> {
        if let Some(o) = self.obs() {
            o.reads.inc();
        }
        let now = self.clock.now();
        let matches = |r: &NetworkState| {
            req.entity.as_ref().map(|e| &r.entity == e).unwrap_or(true)
                && req.attribute.map(|a| r.attribute == a).unwrap_or(true)
        };
        let rows: Arc<Vec<NetworkState>> = match req.freshness {
            Freshness::UpToDate => {
                let part = self.part(&req.datacenter)?;
                part.check_online(&req.datacenter)?;
                part.leader_reads.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.leader_reads.inc();
                }
                let mut ring = self.lock_ring(&req.datacenter, part);
                let machine = ring.leader_machine()?;
                if req.entity.is_some() || req.attribute.is_some() {
                    // Filter before cloning: a single-entity read copies
                    // its handful of rows, not the whole pool.
                    return Ok(machine.pool_rows_where(&req.pool, matches));
                }
                // Full-pool leader read: hand the copy straight back
                // rather than re-cloning every row through the no-op
                // filter below (full scans pay this per round).
                return Ok(machine.pool_rows(&req.pool));
            }
            Freshness::BoundedStale => {
                let key = (req.datacenter.clone(), req.pool.clone());
                // The config is immutable and outside every lock: the
                // staleness-bound peek costs nothing.
                let bound = self.config.staleness_bound;
                // Fast path: a shared read lock and an Arc clone — no
                // partition contention, no row copies.
                let hit = {
                    let cache = self.cache.read();
                    cache.get(&key).and_then(|c| {
                        (now.saturating_since(c.fetched_at) <= bound).then(|| Arc::clone(&c.rows))
                    })
                };
                match hit {
                    Some(rows) => {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = self.obs() {
                            o.cache_hits.inc();
                        }
                        rows
                    }
                    None => {
                        // The expired snapshot (if any) seeds a delta
                        // refresh: apply the changefeed since its
                        // watermark instead of recopying the pool.
                        let prior = {
                            let cache = self.cache.read();
                            cache.get(&key).map(|c| (Arc::clone(&c.rows), c.watermark))
                        };
                        self.refresh_cache_entry(&req, now, key, prior)?
                    }
                }
            }
        };
        Ok(rows.iter().filter(|r| matches(r)).cloned().collect())
    }

    /// Refresh one bounded-stale cache entry from a (possibly behind)
    /// replica: extract the small delta under the partition lock, apply
    /// it to the held snapshot *outside* the lock, fall back to a full
    /// pool copy when the changefeed cannot serve the gap. (Refreshes
    /// check partition health: cache *hits* deliberately skip the online
    /// check so bounded-stale reads ride out outages within the bound.)
    fn refresh_cache_entry(
        &self,
        req: &ReadRequest,
        now: SimTime,
        key: (DatacenterId, Pool),
        prior: Option<(Arc<Vec<NetworkState>>, Version)>,
    ) -> StateResult<Arc<Vec<NetworkState>>> {
        enum Refresh {
            Delta(Arc<Vec<NetworkState>>, StateDelta),
            Full(Vec<NetworkState>, Version),
        }
        let refresh = {
            let part = self.part(&req.datacenter)?;
            part.check_online(&req.datacenter)?;
            let ring = self.lock_ring(&req.datacenter, part);
            // A follower replica: cheap, and possibly behind the leader —
            // both forms of staleness the 5-minute bound covers.
            let machine = ring.any_machine();
            let delta = prior.and_then(|(rows, since)| {
                machine
                    .changes_since(&req.pool, since)
                    .filter(|d| !d.snapshot)
                    .map(|d| (rows, d))
            });
            match delta {
                Some((rows, delta)) => Refresh::Delta(rows, delta),
                None => Refresh::Full(
                    machine.pool_rows(&req.pool),
                    machine.pool_watermark(&req.pool),
                ),
            }
        };
        let (rows, watermark) = match refresh {
            Refresh::Delta(old, delta) => {
                if let Some(o) = self.obs() {
                    o.cache_delta_refreshes.inc();
                }
                let watermark = delta.watermark;
                let mut map: HashMap<VarId, NetworkState> =
                    old.iter().map(|r| (r.var_id(), r.clone())).collect();
                for k in &delta.deletes {
                    map.remove(&k.var_id());
                }
                for r in delta.upserts {
                    map.insert(r.var_id(), r);
                }
                (Arc::new(map.into_values().collect()), watermark)
            }
            Refresh::Full(rows, watermark) => (Arc::new(rows), watermark),
        };
        self.cache.write().insert(
            key,
            CacheEntry {
                fetched_at: now,
                watermark,
                rows: Arc::clone(&rows),
            },
        );
        Ok(rows)
    }

    /// Read one row up-to-date (checker fast path). Touches only the
    /// owning partition's lock.
    pub fn read_row(&self, pool: &Pool, key: &StateKey) -> StateResult<Option<NetworkState>> {
        let part =
            self.parts
                .get(&key.entity.datacenter)
                .ok_or_else(|| StateError::UnroutableEntity {
                    entity: key.entity.clone(),
                })?;
        part.check_online(&key.entity.datacenter)?;
        part.leader_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs() {
            o.leader_reads.inc();
        }
        let mut ring = self.lock_ring(&key.entity.datacenter, part);
        Ok(ring.leader_machine()?.get(pool, key).cloned())
    }

    /// Post checker receipts to the partition holding the affected
    /// entities (receipts are stored per application).
    pub fn post_receipts(&self, dc: &DatacenterId, receipts: Vec<WriteReceipt>) -> StateResult<()> {
        if receipts.is_empty() {
            return Ok(());
        }
        if let Some(o) = self.obs() {
            o.receipts_posted.add(receipts.len() as u64);
        }
        let part = self.part(dc)?;
        let mut ring = self.lock_ring(dc, part);
        self.submit_with_retry(part, &mut ring, dc, LogCommand::PostReceipts { receipts })
    }

    /// Drain the receipts queued for an application in one partition.
    pub fn take_receipts(&self, dc: &DatacenterId, app: &AppId) -> StateResult<Vec<WriteReceipt>> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        let receipts = ring.leader_machine_mut()?.take_receipts(app);
        if let Some(o) = self.obs() {
            o.receipts_taken.add(receipts.len() as u64);
        }
        Ok(receipts)
    }

    /// Total rows across all partitions and pools (scale reporting).
    pub fn total_rows(&self) -> usize {
        let mut total = 0;
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let mut ring = self.lock_ring(dc, part);
            if let Ok(m) = ring.leader_machine() {
                total += m.pool_len(&Pool::Observed) + m.pool_len(&Pool::Target);
            }
        }
        total
    }

    /// Applications with a non-empty proposed state in one partition.
    pub fn proposing_apps(&self, dc: &DatacenterId) -> Vec<AppId> {
        match self.parts.get(dc) {
            Some(part) => {
                let mut ring = self.lock_ring(dc, part);
                match ring.leader_machine() {
                    Ok(m) => m
                        .pools()
                        .into_iter()
                        .filter_map(|p| match p {
                            Pool::Proposed(app) => Some(app),
                            _ => None,
                        })
                        .collect(),
                    Err(_) => Vec::new(),
                }
            }
            None => Vec::new(),
        }
    }

    /// Rows in one pool of one partition.
    pub fn pool_len(&self, dc: &DatacenterId, pool: &Pool) -> usize {
        match self.parts.get(dc) {
            Some(part) => {
                let mut ring = self.lock_ring(dc, part);
                ring.leader_machine().map(|m| m.pool_len(pool)).unwrap_or(0)
            }
            None => 0,
        }
    }

    /// Per-pool row counts summed across every partition, sorted by pool
    /// wire name — the `/v1/status` state-plane breakdown. Unreadable
    /// partitions contribute nothing (degraded mode must not fail a
    /// status scrape).
    pub fn pool_row_stats(&self) -> Vec<(Pool, u64)> {
        let mut totals: std::collections::BTreeMap<String, (Pool, u64)> =
            std::collections::BTreeMap::new();
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let mut ring = self.lock_ring(dc, part);
            if let Ok(m) = ring.leader_machine() {
                for (pool, n) in m.pool_stats() {
                    totals
                        .entry(pool.wire_name().into_owned())
                        .and_modify(|e| e.1 += n)
                        .or_insert((pool, n));
                }
            }
        }
        totals.into_values().collect()
    }

    /// (approximate resident bytes, live rows) of the columnar state
    /// plane, summed across partitions — the source of the
    /// `state_bytes_per_var` gauge.
    pub fn state_bytes(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut rows = 0u64;
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let mut ring = self.lock_ring(dc, part);
            if let Ok(m) = ring.leader_machine() {
                let (b, r) = m.state_bytes();
                bytes += b;
                rows += r;
            }
        }
        (bytes, rows)
    }

    /// (cache_hits, leader_reads) counters for the freshness bench.
    /// Lock-free: both are atomics (leader reads aggregate per partition).
    pub fn read_stats(&self) -> (u64, u64) {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let leader_reads = self
            .parts
            .values()
            .map(|p| p.leader_reads.load(Ordering::Relaxed))
            .sum();
        (hits, leader_reads)
    }

    /// Mean consensus commit latency per partition, µs.
    pub fn commit_latency_by_partition(&self) -> Vec<(DatacenterId, f64)> {
        self.names
            .iter()
            .map(|dc| {
                let part = self.parts.get(dc).expect("name maps to partition");
                let ring = self.lock_ring(dc, part);
                (dc.clone(), ring.mean_commit_latency())
            })
            .collect()
    }

    /// Cumulative wall-clock µs operations spent waiting on partition
    /// ring locks, summed across partitions. Zero while callers stay on
    /// disjoint partitions — the number the sharded plane is supposed to
    /// keep near zero. The coordinator diffs it per round into
    /// `/v1/status`.
    pub fn lock_wait_stats(&self) -> u64 {
        self.parts
            .values()
            .map(|p| p.lock_wait_us.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-partition cumulative ring-lock wait (µs), sorted by partition
    /// name (contention observability for benches and debugging).
    pub fn lock_wait_by_partition(&self) -> Vec<(DatacenterId, u64)> {
        self.names
            .iter()
            .map(|dc| {
                let part = self.parts.get(dc).expect("name maps to partition");
                (dc.clone(), part.lock_wait_us.load(Ordering::Relaxed))
            })
            .collect()
    }

    /// Crash a replica in one partition (failure injection for tests).
    pub fn crash_replica(&self, dc: &DatacenterId, replica: u8) {
        if let Some(part) = self.parts.get(dc) {
            let mut ring = self.lock_ring(dc, part);
            ring.crash(crate::bus::ReplicaId(replica));
        }
    }

    /// Restart a crashed replica.
    pub fn restart_replica(&self, dc: &DatacenterId, replica: u8) {
        if let Some(part) = self.parts.get(dc) {
            let mut ring = self.lock_ring(dc, part);
            ring.restart(crate::bus::ReplicaId(replica));
        }
    }

    /// Kill -9 a replica: process state is dropped on the floor (no
    /// graceful teardown), durable files survive. The partition reports
    /// retryable unavailability until [`Self::complete_replica_recovery`]
    /// brings the replica back — callers must never read a stale
    /// pre-crash watermark through a partition that is mid-recovery.
    pub fn begin_replica_recovery(&self, dc: &DatacenterId, replica: u8) {
        if let Some(part) = self.parts.get(dc) {
            part.recovering.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.lock_ring(dc, part);
            ring.kill9(ReplicaId(replica));
        }
    }

    /// Corrupt a killed replica's durable files (chaos injection): a torn
    /// tail the recovery path must repair, or a bit flip it must refuse.
    pub fn corrupt_replica_wal(&self, dc: &DatacenterId, replica: u8, corruption: &WalCorruption) {
        if let Some(part) = self.parts.get(dc) {
            let mut ring = self.lock_ring(dc, part);
            ring.corrupt_store(ReplicaId(replica), corruption);
        }
    }

    /// Restart a killed replica through the recovery path and lift the
    /// partition's mid-recovery unavailability. Returns the recovery
    /// summary (also stashed for `/v1/status`).
    pub fn complete_replica_recovery(
        &self,
        dc: &DatacenterId,
        replica: u8,
    ) -> Option<RecoverySummary> {
        let part = self.parts.get(dc)?;
        let report = {
            let mut ring = self.lock_ring(dc, part);
            ring.restart(ReplicaId(replica));
            ring.last_recovery().cloned()
        };
        part.recovering.fetch_sub(1, Ordering::Relaxed);
        let summary = report.map(|r| RecoverySummary {
            partition: dc.to_string(),
            replica: r.replica,
            refused: r.refused,
            truncated_records: r.truncated_records,
            replayed_events: r.replayed_events,
            snapshot_frontier: r.snapshot_frontier,
            recovered_frontier: r.recovered_frontier,
        });
        if summary.is_some() {
            *self.last_recovery.lock() = summary.clone();
        }
        summary
    }

    /// The most recent replica crash recovery across all partitions, if
    /// any (the coordinator copies it into the status board each tick).
    pub fn last_recovery(&self) -> Option<RecoverySummary> {
        self.last_recovery.lock().clone()
    }

    /// One replica's applied-through decree. Deliberately bypasses
    /// `check_online`: the chaos harness reads rejoin progress while the
    /// partition is still reporting mid-recovery unavailability.
    pub fn replica_applied_through(&self, dc: &DatacenterId, replica: u8) -> u64 {
        match self.parts.get(dc) {
            Some(part) => {
                let ring = self.lock_ring(dc, part);
                ring.applied_through(ReplicaId(replica))
            }
            None => 0,
        }
    }

    /// Verify every replica store's snapshot + hash chain in one
    /// partition; `Ok(records_verified)` or the first failure.
    pub fn verify_wal_chains(&self, dc: &DatacenterId) -> Result<u64, String> {
        match self.parts.get(dc) {
            Some(part) => {
                let ring = self.lock_ring(dc, part);
                ring.verify_chains()
            }
            None => Err(format!("unknown partition {dc}")),
        }
    }

    /// Cumulative WAL stats merged across every partition's replicas.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        let mut total = crate::wal::WalStats::default();
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let ring = self.lock_ring(dc, part);
            total.merge(&ring.wal_stats());
        }
        total
    }

    /// Take a whole partition offline (or bring it back): failure
    /// injection for degraded-mode and chaos scenarios. While offline,
    /// commits and leader reads against the partition fail fast with a
    /// retryable [`StateError::StorageUnavailable`]; bounded-stale reads
    /// keep serving cached snapshots within the staleness bound.
    pub fn set_partition_available(&self, dc: &DatacenterId, available: bool) {
        if let Some(part) = self.parts.get(dc) {
            part.offline.store(!available, Ordering::Relaxed);
        }
        if let Some(o) = self.obs() {
            let offline = self
                .parts
                .values()
                .filter(|p| p.offline.load(Ordering::Relaxed))
                .count();
            o.partitions_offline.set(offline as i64);
        }
    }

    /// Whether a partition is currently available (not fault-injected
    /// offline and no replica mid-recovery). The coordinator polls this
    /// to decide which impact groups a degraded round can still process.
    /// Lock-free.
    pub fn partition_available(&self, dc: &DatacenterId) -> bool {
        self.parts
            .get(dc)
            .map(|p| {
                !p.offline.load(Ordering::Relaxed) && p.recovering.load(Ordering::Relaxed) == 0
            })
            .unwrap_or(false)
    }

    /// (retries performed, operations that exhausted their retry budget).
    /// Lock-free aggregation over the per-partition atomics.
    pub fn retry_stats(&self) -> (u64, u64) {
        let mut retries = 0;
        let mut exhausted = 0;
        for p in self.parts.values() {
            retries += p.retries.load(Ordering::Relaxed);
            exhausted += p.retries_exhausted.load(Ordering::Relaxed);
        }
        (retries, exhausted)
    }

    /// Everything that changed in one partition's pool after `since`
    /// (Table 3's GET with a version cursor). Served by the leader so the
    /// watermark in the reply is linearizable with respect to commits
    /// through this service. When the change index cannot serve the gap —
    /// `since` predates the compaction floor or outruns the watermark —
    /// the reply degrades to a full snapshot (`snapshot: true`): the
    /// paper's semantics are always recoverable, deltas are only an
    /// optimization.
    pub fn read_since(
        &self,
        dc: &DatacenterId,
        pool: &Pool,
        since: Version,
    ) -> StateResult<StateDelta> {
        if let Some(o) = self.obs() {
            o.reads.inc();
            o.leader_reads.inc();
        }
        let part = self.part(dc)?;
        part.check_online(dc)?;
        part.leader_reads.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.lock_ring(dc, part);
        let machine = ring.leader_machine()?;
        match machine.changes_since(pool, since) {
            Some(delta) => {
                part.delta_reads.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.delta_reads.inc();
                }
                Ok(delta)
            }
            None => {
                let delta = StateDelta::full_snapshot(
                    machine.pool_rows(pool),
                    machine.pool_watermark(pool),
                );
                part.full_fallbacks.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.full_fallbacks.inc();
                }
                Ok(delta)
            }
        }
    }

    /// The leader's current watermark for one partition's pool: the
    /// version of its newest effective change. `read_since` from this
    /// point returns an empty delta until something actually changes.
    pub fn pool_watermark(&self, dc: &DatacenterId, pool: &Pool) -> StateResult<Version> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        Ok(ring.leader_machine()?.pool_watermark(pool))
    }

    /// The leader's current version counter for one partition, across
    /// *all* pools (versions are stamped machine-wide). Any effective
    /// write to any pool moves it, so an unchanged partition watermark
    /// proves the partition's entire state is unchanged — consumers use
    /// it as a cheap quiescence signal before paying for reads.
    pub fn partition_watermark(&self, dc: &DatacenterId) -> StateResult<Version> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        Ok(ring.leader_machine()?.current_version())
    }

    /// (delta reads served, full-snapshot fallbacks, writes suppressed) —
    /// cumulative, for `RoundReport` and benches. Lock-free aggregation.
    pub fn delta_stats(&self) -> (u64, u64, u64) {
        let mut delta_reads = 0;
        let mut full_fallbacks = 0;
        let mut suppressed = 0;
        for p in self.parts.values() {
            delta_reads += p.delta_reads.load(Ordering::Relaxed);
            full_fallbacks += p.full_fallbacks.load(Ordering::Relaxed);
            suppressed += p.writes_suppressed.load(Ordering::Relaxed);
        }
        (delta_reads, full_fallbacks, suppressed)
    }

    /// Submit one consensus command with the configured bounded retry and
    /// jittered exponential backoff. Backoffs advance *simulated* time, so
    /// retry cost is visible in round latency without wall-clock stalls.
    /// Fatal (non-retryable) errors and exhausted budgets surface the
    /// typed error to the caller — nothing blocks indefinitely. The
    /// partition's ring lock is held across the whole retry loop, so each
    /// partition's commits stay atomic with respect to each other exactly
    /// as they were under the global lock; other partitions are
    /// unaffected, and concurrent backoffs compose (clock advances are
    /// commutative).
    fn submit_with_retry(
        &self,
        part: &Partition,
        ring: &mut PaxosCluster,
        dc: &DatacenterId,
        cmd: LogCommand,
    ) -> StateResult<()> {
        let policy = &self.config.retry;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let res = part
                .check_online(dc)
                .and_then(|()| ring.submit(cmd.clone()).map(|_| ()));
            match res {
                Ok(()) => return Ok(()),
                Err(e) if e.is_retryable() && policy.should_retry(attempt) => {
                    part.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = self.obs() {
                        o.retries.inc();
                    }
                    let roll: f64 = part.rng.lock().gen();
                    self.clock.advance(policy.backoff_after(attempt, roll));
                }
                Err(e) => {
                    if e.is_retryable() {
                        part.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = self.obs() {
                            o.retries_exhausted.inc();
                            o.unavailable.inc();
                        }
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Run `f` on each partition's share of a batch, concurrently, and
/// return the results in `dcs` order. The first partition runs on the
/// calling thread and only the rest get scoped threads, so a
/// single-partition batch starts none, and the caller works instead of
/// sleeping in `join`. A thread start costs tens of microseconds, more
/// when it wakes an idle CPU; that is a large share of a small write.
fn per_partition<T, R>(
    dcs: &[DatacenterId],
    mut by_dc: HashMap<DatacenterId, T>,
    f: impl Fn(&DatacenterId, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let Some((first, rest)) = dcs.split_first() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter()
            .map(|dc| {
                let part = by_dc.remove(dc).expect("key exists");
                scope.spawn(move || f(dc, part))
            })
            .collect();
        let part = by_dc.remove(first).expect("key exists");
        let mut results = vec![f(first, part)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("partition thread panicked")),
        );
        results
    })
}

/// Collapse a multi-partition fan-out's per-partition results (in sorted
/// partition order). Sub-batches commit independently, so an error here
/// never means "nothing landed": `Ok` when every partition committed;
/// the partition's own typed error when exactly one failed; an aggregate
/// [`StateError::StorageUnavailable`] naming every failed partition when
/// several did, so callers see the full damage rather than only the
/// sorted-first casualty.
fn partition_results(dcs: &[DatacenterId], results: Vec<StateResult<()>>) -> StateResult<()> {
    let mut failures: Vec<(&DatacenterId, StateError)> = dcs
        .iter()
        .zip(results)
        .filter_map(|(dc, r)| r.err().map(|e| (dc, e)))
        .collect();
    match failures.len() {
        0 => Ok(()),
        1 => Err(failures.pop().expect("length checked").1),
        _ => Err(StateError::StorageUnavailable {
            partition: failures
                .iter()
                .map(|(dc, _)| dc.to_string())
                .collect::<Vec<_>>()
                .join(","),
            reason: failures
                .iter()
                .map(|(dc, e)| format!("{dc}: {e}"))
                .collect::<Vec<_>>()
                .join("; "),
        }),
    }
}

/// Cumulative value-identical writes suppressed by this ring's leader (0
/// when no leader is reachable — callers diff before/after the same
/// commit, so a mid-write leader change at worst undercounts).
fn leader_suppressed(ring: &mut PaxosCluster) -> u64 {
    ring.leader_machine()
        .ok()
        .map(|m| m.suppressed_count())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_net::SimClock;
    use statesman_types::Value;

    fn clock() -> SimClock {
        SimClock::new()
    }

    fn row(dc: &str, dev: &str, fw: &str, at: SimTime) -> NetworkState {
        NetworkState::new(
            EntityName::device(dc, dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(fw),
            at,
            AppId::monitor(),
        )
    }

    fn svc(clock: &SimClock) -> StorageService {
        StorageService::new(
            [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
            clock.clone(),
            StorageConfig::default(),
        )
    }

    #[test]
    fn write_then_uptodate_read() {
        let c = clock();
        let s = svc(&c);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "agg-1-1", "6.0", c.now())],
        })
        .unwrap();
        let rows = s
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, Value::text("6.0"));
    }

    #[test]
    fn proxy_splits_batches_across_partitions() {
        let c = clock();
        let s = svc(&c);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![
                row("dc1", "agg-1-1", "6.0", c.now()),
                row("dc2", "agg-1-1", "6.0", c.now()),
            ],
        })
        .unwrap();
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 1);
        assert_eq!(s.pool_len(&DatacenterId::new("dc2"), &Pool::Observed), 1);
    }

    #[test]
    fn unroutable_entities_error() {
        let c = clock();
        let s = svc(&c);
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc9", "agg-1-1", "6.0", c.now())],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::UnroutableEntity { .. }));
        assert!(s.route(&EntityName::device("dc9", "x")).is_err());
        assert!(s.route(&EntityName::device("dc1", "x")).is_ok());
    }

    #[test]
    fn unroutable_rows_poison_the_whole_batch() {
        // Routability is validated before any partition commits: a batch
        // with one bad row lands nothing, even in routable partitions.
        let c = clock();
        let s = svc(&c);
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![
                    row("dc1", "agg-1-1", "6.0", c.now()),
                    row("dc9", "agg-1-1", "6.0", c.now()),
                ],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::UnroutableEntity { .. }));
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 0);
    }

    #[test]
    fn wan_partition_always_exists() {
        let c = clock();
        let s = svc(&c);
        assert!(s.partitions().contains(&DatacenterId::wan()));
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("wan", "br-1", "9.0", c.now())],
        })
        .unwrap();
    }

    #[test]
    fn bounded_stale_reads_hit_cache_within_bound() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let rd = |s: &StorageService| {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::BoundedStale,
                entity: None,
                attribute: None,
            })
            .unwrap()
        };
        let first = rd(&s);
        assert_eq!(first.len(), 1);
        // A write lands, but the cache (within the bound) still serves the
        // old snapshot.
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        let second = rd(&s);
        assert_eq!(second.len(), 1, "stale view within bound");
        let (hits, _) = s.read_stats();
        assert_eq!(hits, 1);
        // After the bound passes, the cache refreshes.
        c.advance(SimDuration::from_mins(6));
        let third = rd(&s);
        assert_eq!(third.len(), 2);
    }

    #[test]
    fn uptodate_reads_never_use_cache() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        for _ in 0..3 {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        }
        let (hits, leader_reads) = s.read_stats();
        assert_eq!(hits, 0);
        assert_eq!(leader_reads, 3);
    }

    #[test]
    fn filters_by_entity_and_attribute() {
        let c = clock();
        let s = svc(&c);
        let mut lock_row = NetworkState::new(
            EntityName::device("dc1", "a"),
            Attribute::EntityLock,
            Value::None,
            c.now(),
            AppId::new("te"),
        );
        lock_row.value = Value::None;
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), lock_row],
        })
        .unwrap();
        let rows = s
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: Some(EntityName::device("dc1", "a")),
                attribute: Some(Attribute::DeviceFirmwareVersion),
            })
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].attribute, Attribute::DeviceFirmwareVersion);
    }

    #[test]
    fn receipts_round_trip() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let app = AppId::new("upgrade");
        let receipt = WriteReceipt {
            app: app.clone(),
            key: StateKey::new(
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
            ),
            proposed: Value::text("7.0"),
            outcome: statesman_types::WriteOutcome::Accepted,
            decided_at: c.now(),
        };
        s.post_receipts(&dc, vec![receipt.clone()]).unwrap();
        assert_eq!(s.take_receipts(&dc, &app).unwrap(), vec![receipt]);
        assert!(s.take_receipts(&dc, &app).unwrap().is_empty());
    }

    #[test]
    fn malformed_rows_rejected() {
        let c = clock();
        let s = svc(&c);
        let bad = NetworkState::new(
            EntityName::link("dc1", "a", "b"),
            Attribute::DeviceFirmwareVersion, // device attr on a link
            Value::text("x"),
            c.now(),
            AppId::monitor(),
        );
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![bad],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn survives_replica_crash() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.crash_replica(&dc, 0);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.pool_len(&dc, &Pool::Observed), 1);
        s.restart_replica(&dc, 0);
    }

    #[test]
    fn offline_partition_fails_fast_with_retryable_error() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.set_partition_available(&dc, false);
        assert!(!s.partition_available(&dc));
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", "a", "1", c.now())],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        assert!(err.is_retryable(), "partition outage must be retryable");
        // The other partition is unaffected.
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc2", "a", "1", c.now())],
        })
        .unwrap();

        // Back online: the same write now lands.
        s.set_partition_available(&dc, true);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.pool_len(&dc, &Pool::Observed), 1);
    }

    #[test]
    fn multi_partition_failure_commits_healthy_partitions_and_names_all_failed() {
        // A batch spanning three partitions with two of them dark: the
        // healthy partition's sub-batch lands (sub-batches are
        // independent commits, not a transaction) and the error
        // aggregates *both* failed partitions, not just the sorted-first.
        let c = clock();
        let s = svc(&c); // dc1, dc2, wan
        s.set_partition_available(&DatacenterId::new("dc1"), false);
        s.set_partition_available(&DatacenterId::wan(), false);
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![
                    row("dc1", "a", "1", c.now()),
                    row("dc2", "a", "1", c.now()),
                    row("wan", "br-1", "1", c.now()),
                ],
            })
            .unwrap_err();
        assert_eq!(s.pool_len(&DatacenterId::new("dc2"), &Pool::Observed), 1);
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 0);
        match &err {
            StateError::StorageUnavailable { partition, reason } => {
                assert!(partition.contains("dc1"), "missing dc1 in {partition}");
                assert!(partition.contains("wan"), "missing wan in {partition}");
                assert!(reason.contains("dc1") && reason.contains("wan"));
            }
            other => panic!("expected aggregate StorageUnavailable, got {other:?}"),
        }
        assert!(err.is_retryable());

        // Exactly one failed partition surfaces its own typed error.
        s.set_partition_available(&DatacenterId::wan(), true);
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", "b", "1", c.now()), row("dc2", "b", "1", c.now())],
            })
            .unwrap_err();
        assert!(
            matches!(&err, StateError::StorageUnavailable { partition, .. } if partition == "dc1")
        );
        assert_eq!(s.pool_len(&DatacenterId::new("dc2"), &Pool::Observed), 2);
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let c = clock();
        let cfg = StorageConfig {
            retry: statesman_types::RetryPolicy {
                max_attempts: 3,
                base_backoff: SimDuration::from_millis(100),
                max_backoff: SimDuration::from_secs(1),
                jitter_frac: 0.5,
            },
            ..Default::default()
        };
        let s = StorageService::new([DatacenterId::new("dc1")], c.clone(), cfg.clone());
        let dc = DatacenterId::new("dc1");
        s.set_partition_available(&dc, false);
        let before = c.now();
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", "a", "1", c.now())],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        let (retries, exhausted) = s.retry_stats();
        assert_eq!(retries, 2, "max_attempts 3 = 2 retries");
        assert_eq!(exhausted, 1);
        // Backoff consumed simulated time, but no more than the policy's
        // provable worst case.
        let spent = c.now().saturating_since(before);
        assert!(spent > SimDuration::ZERO, "backoff advances sim time");
        assert!(
            spent <= cfg.retry.worst_case_total_backoff(),
            "{spent} exceeds bound {}",
            cfg.retry.worst_case_total_backoff()
        );
    }

    #[test]
    fn bounded_stale_reads_survive_partition_outage_within_bound() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let rd = |fresh: Freshness| {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: fresh,
                entity: None,
                attribute: None,
            })
        };
        // Warm the cache, then take the partition down.
        assert_eq!(rd(Freshness::BoundedStale).unwrap().len(), 1);
        s.set_partition_available(&dc, false);
        // Leader reads fail fast; stale reads ride the cache.
        assert!(rd(Freshness::UpToDate).is_err());
        assert_eq!(rd(Freshness::BoundedStale).unwrap().len(), 1);
        // Past the staleness bound the cache expires and the outage shows.
        c.advance(SimDuration::from_mins(6));
        assert!(rd(Freshness::BoundedStale).is_err());
    }

    #[test]
    fn delete_clears_rows() {
        let c = clock();
        let s = svc(&c);
        let r = row("dc1", "a", "1", c.now());
        let key = r.key();
        s.write(WriteRequest {
            pool: Pool::Target,
            rows: vec![r],
        })
        .unwrap();
        s.delete(Pool::Target, vec![key.clone()]).unwrap();
        assert_eq!(s.read_row(&Pool::Target, &key).unwrap(), None);
    }

    #[test]
    fn attached_registry_tracks_operations() {
        let c = clock();
        let s = svc(&c);
        let registry = Registry::new();
        s.attach_obs(&registry);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        s.read(ReadRequest {
            datacenter: dc.clone(),
            pool: Pool::Observed,
            freshness: Freshness::BoundedStale,
            entity: None,
            attribute: None,
        })
        .unwrap();
        // Second bounded-stale read hits the cache.
        s.read(ReadRequest {
            datacenter: dc.clone(),
            pool: Pool::Observed,
            freshness: Freshness::BoundedStale,
            entity: None,
            attribute: None,
        })
        .unwrap();
        s.set_partition_available(&dc, false);
        // Write against the offline partition burns the retry budget.
        let _ = s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "c", "1", c.now())],
        });
        assert_eq!(registry.counter_value("storage_writes_total"), Some(2));
        assert_eq!(
            registry.counter_value("storage_rows_written_total"),
            Some(3)
        );
        assert_eq!(registry.counter_value("storage_reads_total"), Some(2));
        assert_eq!(registry.counter_value("storage_cache_hits_total"), Some(1));
        let (retries, exhausted) = s.retry_stats();
        assert_eq!(
            registry.counter_value("storage_retries_total"),
            Some(retries),
            "registry mirrors the internal retry counter"
        );
        assert_eq!(
            registry.counter_value("storage_retries_exhausted_total"),
            Some(exhausted)
        );
        assert_eq!(
            registry.gauge("storage_partitions_offline").get(),
            1,
            "offline gauge follows fault injection"
        );
        s.set_partition_available(&dc, true);
        assert_eq!(registry.gauge("storage_partitions_offline").get(), 0);
    }

    #[test]
    fn contention_metrics_cover_every_partition() {
        let c = clock();
        let s = svc(&c);
        let registry = Registry::new();
        s.attach_obs(&registry);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![
                row("dc1", "a", "1", c.now()),
                row("dc2", "a", "1", c.now()),
                row("wan", "br-1", "1", c.now()),
            ],
        })
        .unwrap();
        // Every partition got a commit, so every labeled lock-wait series
        // has at least one observation; the inflight gauges are back to 0.
        for dc in ["dc1", "dc2", "wan"] {
            let labels = [("partition", dc)];
            let h = registry.histogram_with("storage_lock_wait_us", &labels, LOCK_WAIT_BUCKETS_US);
            assert!(h.count() >= 1, "{dc} recorded no lock acquisitions");
            let g = registry.gauge_with("storage_partition_inflight", &labels);
            assert_eq!(g.get(), 0, "{dc} leaked an inflight op");
        }
        // The aggregate accessor matches the per-partition breakdown.
        let total: u64 = s.lock_wait_by_partition().iter().map(|(_, us)| us).sum();
        assert_eq!(s.lock_wait_stats(), total);
    }

    #[test]
    fn concurrent_partition_writers_do_not_interfere() {
        // Hammer disjoint partitions from many threads through one shared
        // service: every write lands exactly once, nothing deadlocks, and
        // the per-partition counts come out exact.
        let c = clock();
        let s = svc(&c);
        std::thread::scope(|scope| {
            for (t, dc) in ["dc1", "dc2", "wan"].iter().enumerate() {
                let s = s.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..20 {
                        s.write(WriteRequest {
                            pool: Pool::Observed,
                            rows: vec![row(dc, &format!("dev-{t}-{i}"), "1", c.now())],
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 20);
        assert_eq!(s.pool_len(&DatacenterId::new("dc2"), &Pool::Observed), 20);
        assert_eq!(s.pool_len(&DatacenterId::wan(), &Pool::Observed), 20);
    }

    #[test]
    fn write_bulk_seeds_partitions_and_reports_stages() {
        let c = clock();
        let s = svc(&c);
        let rows: Vec<NetworkState> = (0..200)
            .flat_map(|i| {
                [
                    row("dc1", &format!("bulk-d{i}"), "1", c.now()),
                    row("dc2", &format!("bulk-d{i}"), "1", c.now()),
                ]
            })
            .collect();
        let stats = s
            .write_bulk(WriteRequest {
                pool: Pool::Observed,
                rows: rows.clone(),
            })
            .unwrap();
        assert_eq!(stats.rows, 400);
        assert_eq!(stats.partitions, 2);
        assert!(stats.wall_ms > 0.0);
        // Reads see exactly the seeded rows.
        for dc in ["dc1", "dc2"] {
            let got = s
                .read(ReadRequest {
                    datacenter: DatacenterId::new(dc),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                })
                .unwrap();
            assert_eq!(got.len(), 200, "{dc}");
        }
        // Incremental reads from before the seed fall back to a full
        // snapshot; writes after it are served as deltas.
        let dc1 = DatacenterId::new("dc1");
        let seeded = s.pool_watermark(&dc1, &Pool::Observed).unwrap();
        let d = s
            .read_since(&dc1, &Pool::Observed, Version::GENESIS)
            .unwrap();
        assert!(d.snapshot);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "bulk-d0", "2", c.now())],
        })
        .unwrap();
        let d = s.read_since(&dc1, &Pool::Observed, seeded).unwrap();
        assert!(!d.snapshot);
        assert_eq!(d.upserts.len(), 1);
    }

    #[test]
    fn read_since_returns_incremental_deltas() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let wm0 = s.pool_watermark(&dc, &Pool::Observed).unwrap();
        assert!(wm0 > Version::GENESIS);
        // Nothing changed: empty delta at the same watermark.
        let quiet = s.read_since(&dc, &Pool::Observed, wm0).unwrap();
        assert!(quiet.is_empty() && !quiet.snapshot);
        assert_eq!(quiet.watermark, wm0);
        // One new row and one delete show up as exactly that.
        let r = row("dc1", "b", "2", c.now());
        let a_key = row("dc1", "a", "1", c.now()).key();
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![r.clone()],
        })
        .unwrap();
        s.delete(Pool::Observed, vec![a_key.clone()]).unwrap();
        let delta = s.read_since(&dc, &Pool::Observed, wm0).unwrap();
        assert!(!delta.snapshot);
        assert_eq!(delta.upserts.len(), 1);
        assert_eq!(delta.upserts[0].key(), r.key());
        assert_eq!(delta.deletes, vec![a_key]);
        assert!(delta.watermark > wm0);
        let (delta_reads, full_fallbacks, _) = s.delta_stats();
        assert_eq!((delta_reads, full_fallbacks), (2, 0));
    }

    #[test]
    fn read_since_from_genesis_of_fresh_pool_is_full_snapshotless_delta() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        // GENESIS is at the floor of an uncompacted index, so even a
        // cold start is served incrementally.
        let delta = s
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .unwrap();
        assert!(!delta.snapshot);
        assert_eq!(delta.upserts.len(), 2);
    }

    #[test]
    fn suppressed_writes_move_no_watermark_and_are_counted() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let registry = Registry::new();
        s.attach_obs(&registry);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let wm = s.pool_watermark(&dc, &Pool::Observed).unwrap();
        // Same value, same writer, later timestamp: a complete no-op.
        c.advance(SimDuration::from_secs(30));
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.pool_watermark(&dc, &Pool::Observed).unwrap(), wm);
        let (_, _, suppressed) = s.delta_stats();
        assert_eq!(suppressed, 1);
        assert_eq!(
            registry.counter_value("storage_writes_suppressed_total"),
            Some(1)
        );
        let quiet = s.read_since(&dc, &Pool::Observed, wm).unwrap();
        assert!(quiet.is_empty());
    }

    #[test]
    fn bounded_stale_cache_refreshes_via_delta() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let registry = Registry::new();
        s.attach_obs(&registry);
        let rd = || {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::BoundedStale,
                entity: None,
                attribute: None,
            })
            .unwrap()
        };
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        assert_eq!(rd().len(), 2, "first read fills the cache in full");
        // Churn one row and delete another past the staleness bound.
        let b_key = row("dc1", "b", "1", c.now()).key();
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "2", c.now()), row("dc1", "c", "1", c.now())],
        })
        .unwrap();
        s.delete(Pool::Observed, vec![b_key]).unwrap();
        c.advance(SimDuration::from_mins(6));
        let rows = rd();
        assert_eq!(rows.len(), 2, "a (updated) and c; b deleted");
        let a = rows
            .iter()
            .find(|r| r.entity == EntityName::device("dc1", "a"))
            .unwrap();
        assert_eq!(a.value, Value::text("2"));
        assert_eq!(
            registry.counter_value("storage_cache_delta_refreshes_total"),
            Some(1),
            "second fill applied the changefeed to the held snapshot"
        );
    }

    #[test]
    fn filtered_uptodate_reads_do_not_copy_the_pool() {
        let c = clock();
        let s = svc(&c);
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(row("dc1", &format!("dev-{i}"), "1", c.now()));
        }
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows,
        })
        .unwrap();
        let got = s
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: Some(EntityName::device("dc1", "dev-7")),
                attribute: None,
            })
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].entity, EntityName::device("dc1", "dev-7"));
    }

    #[test]
    fn read_since_fails_fast_when_partition_offline() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.set_partition_available(&dc, false);
        let err = s
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
    }

    fn framed_svc(clock: &SimClock) -> StorageService {
        let mut cfg = StorageConfig::default();
        cfg.ring.durability = DurabilityMode::FramedMemory;
        cfg.ring.snapshot_every = 4;
        StorageService::new([DatacenterId::new("dc1")], clock.clone(), cfg)
    }

    #[test]
    fn mid_recovery_partition_reports_retryable_unavailability() {
        let c = clock();
        let s = framed_svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let pre = s.partition_watermark(&dc).unwrap();
        s.begin_replica_recovery(&dc, 2);
        // Every watermark/read/commit path reports the typed retryable
        // error — the partition never serves a stale pre-crash view.
        let err = s.partition_watermark(&dc).unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        assert!(err.is_retryable());
        assert!(s
            .read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .is_err());
        assert!(s
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .is_err());
        let summary = s.complete_replica_recovery(&dc, 2).expect("summary");
        assert_eq!(summary.partition, "dc1");
        assert_eq!(summary.replica, 2);
        assert!(s.partition_watermark(&dc).unwrap() >= pre);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.last_recovery().unwrap(), summary);
    }

    #[test]
    fn wal_counters_flow_through_attach_obs() {
        let c = clock();
        let s = framed_svc(&c);
        let dc = DatacenterId::new("dc1");
        let registry = Registry::new();
        s.attach_obs(&registry);
        for i in 0..8 {
            s.write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", &format!("dev-{i}"), "1", c.now())],
            })
            .unwrap();
        }
        assert!(registry.counter_value("wal_appends_total").unwrap_or(0) > 0);
        assert!(registry.counter_value("wal_bytes_written").unwrap_or(0) > 0);
        assert!(
            registry
                .counter_value("snapshot_compactions_total")
                .unwrap_or(0)
                > 0,
            "snapshot_every=4 compacts within 8 commits"
        );
        // A torn tail on a killed replica is repaired on restart and shows
        // up in the truncated-records counter.
        s.begin_replica_recovery(&dc, 1);
        s.corrupt_replica_wal(&dc, 1, &WalCorruption::TornTail { bytes: 5 });
        let summary = s.complete_replica_recovery(&dc, 1).expect("summary");
        assert_eq!(summary.truncated_records, 1);
        assert!(!summary.refused);
        // The diffing happens on ring-lock release; the counter reflects
        // the repair after the next lock cycle (already happened inside
        // complete_replica_recovery).
        assert_eq!(
            registry.counter_value("recovery_truncated_records_total"),
            Some(1)
        );
        assert!(s.verify_wal_chains(&dc).is_ok());
    }
}
