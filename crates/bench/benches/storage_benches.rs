//! Storage-layer benches reproducing two §6 design rationales:
//!
//! * `storage_partitioning` — per-DC Paxos rings vs one WAN-spanning
//!   global ring (§6.1: "WAN latencies will hurt the scalability and
//!   performance of Statesman"). Measured in *virtual* commit latency so
//!   host speed doesn't matter; asserted inside the bench.
//! * `freshness_modes` — up-to-date (leader) reads vs bounded-stale
//!   (cache) reads (§6.4: "we boost the read throughput"). Measured in
//!   host wall-clock throughput over the same data.

use criterion::{criterion_group, criterion_main, Criterion};
use statesman_net::SimClock;
use statesman_storage::{
    ClusterConfig, LogCommand, PaxosCluster, ReadRequest, StorageConfig, StorageService,
    WriteRequest,
};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, SimTime, Value,
};

fn fw_row(dc: &str, dev: &str, at: SimTime) -> NetworkState {
    NetworkState::new(
        EntityName::device(dc, dev),
        Attribute::DeviceFirmwareVersion,
        Value::text("6.0"),
        at,
        AppId::monitor(),
    )
}

fn write_cmd(i: usize) -> LogCommand {
    LogCommand::WriteBatch {
        pool: Pool::Observed,
        rows: vec![fw_row("dc1", &format!("dev-{i}"), SimTime::ZERO)].into(),
    }
}

fn bench_storage_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_partitioning");
    group.sample_size(10);

    // The quantitative §6.1 comparison in virtual time, asserted once.
    let mut intra = PaxosCluster::new(ClusterConfig::intra_dc(5));
    let mut wan = PaxosCluster::new(ClusterConfig::global_wan(5));
    for i in 0..50 {
        intra.submit(write_cmd(i)).unwrap();
        wan.submit(write_cmd(i)).unwrap();
    }
    let speedup = wan.mean_commit_latency() / intra.mean_commit_latency();
    assert!(
        speedup > 20.0,
        "per-DC rings must commit far faster than a WAN ring (got {speedup:.1}x)"
    );
    eprintln!(
        "virtual commit latency: intra-DC ring {:.0}us, global WAN ring {:.0}us ({speedup:.1}x)",
        intra.mean_commit_latency(),
        wan.mean_commit_latency()
    );

    // Host-time cost of driving each ring (protocol work dominates).
    group.bench_function("intra_dc_ring_commit", |b| {
        let mut ring = PaxosCluster::new(ClusterConfig::intra_dc(7));
        let mut i = 0usize;
        b.iter(|| {
            ring.submit(write_cmd(i)).unwrap();
            i += 1;
        });
    });
    group.bench_function("global_wan_ring_commit", |b| {
        let mut ring = PaxosCluster::new(ClusterConfig::global_wan(7));
        let mut i = 0usize;
        b.iter(|| {
            ring.submit(write_cmd(i)).unwrap();
            i += 1;
        });
    });
    group.finish();
}

fn bench_freshness_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("freshness_modes");
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    // A realistically sized OS pool (~20K rows).
    let rows: Vec<NetworkState> = (0..20_000)
        .map(|i| fw_row("dc1", &format!("dev-{i}"), clock.now()))
        .collect();
    for chunk in rows.chunks(5_000) {
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: chunk.to_vec(),
            })
            .unwrap();
    }

    group.bench_function("up_to_date_read", |b| {
        b.iter(|| {
            let rows = storage
                .read(ReadRequest {
                    datacenter: dc.clone(),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                })
                .unwrap();
            assert_eq!(rows.len(), 20_000);
        });
    });
    group.bench_function("bounded_stale_read", |b| {
        b.iter(|| {
            let rows = storage
                .read(ReadRequest {
                    datacenter: dc.clone(),
                    pool: Pool::Observed,
                    freshness: Freshness::BoundedStale,
                    entity: None,
                    attribute: None,
                })
                .unwrap();
            assert_eq!(rows.len(), 20_000);
        });
    });
    group.finish();

    let (hits, leader_reads) = storage.read_stats();
    eprintln!(
        "cache hits {hits}, leader reads {leader_reads} — bounded-stale reads served from cache"
    );
}

fn bench_freshness_concurrency(c: &mut Criterion) {
    // The architectural point of §6.4: bounded-stale reads are served from
    // a cache that scales out (shared read lock + Arc snapshots), while
    // up-to-date reads serialize on the partition leader. Measure total
    // wall time for 8 threads × 50 reads each.
    let mut group = c.benchmark_group("freshness_concurrency");
    group.sample_size(10);
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    let rows: Vec<NetworkState> = (0..20_000)
        .map(|i| fw_row("dc1", &format!("dev-{i}"), clock.now()))
        .collect();
    for chunk in rows.chunks(5_000) {
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: chunk.to_vec(),
            })
            .unwrap();
    }

    let run = |storage: &StorageService, dc: &DatacenterId, freshness: Freshness| {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let storage = storage.clone();
                let dc = dc.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let rows = storage
                            .read(ReadRequest {
                                datacenter: dc.clone(),
                                pool: Pool::Observed,
                                freshness,
                                entity: None,
                                attribute: None,
                            })
                            .unwrap();
                        assert_eq!(rows.len(), 20_000);
                    }
                });
            }
        });
    };

    group.bench_function("8_threads_up_to_date", |b| {
        b.iter(|| run(&storage, &dc, Freshness::UpToDate));
    });
    group.bench_function("8_threads_bounded_stale", |b| {
        b.iter(|| run(&storage, &dc, Freshness::BoundedStale));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_storage_partitioning,
    bench_freshness_modes,
    bench_freshness_concurrency
);
criterion_main!(benches);
