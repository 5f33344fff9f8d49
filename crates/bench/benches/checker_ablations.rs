//! Checker-design ablations called out in DESIGN.md:
//!
//! * `merge_policies` — last-writer-wins vs priority-lock conflict
//!   resolution under a stream of colliding proposals from N apps;
//! * `impact_groups` — one checker scoped per DC (the paper's design) vs
//!   one monolithic checker over a multi-DC deployment;
//! * `invariant_incremental` — pod-scoped incremental capacity evaluation
//!   vs full recomputation of all sampled ToR pairs.

use criterion::{criterion_group, criterion_main, Criterion};
use statesman_core::groups::ImpactGroup;
use statesman_core::{
    Checker, CheckerConfig, MergePolicy, Monitor, StatesmanClient, TorPairCapacityInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{StorageConfig, StorageService};
use statesman_topology::{capacity, DcnSpec, DeploymentSpec, FlowIndex, HealthView, WanSpec};
use statesman_types::{Attribute, DatacenterId, DeviceName, EntityName, Value};
use std::collections::HashSet;

fn bench_merge_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_policies");
    group.sample_size(20);
    for (name, policy) in [
        ("last_writer_wins", MergePolicy::LastWriterWins),
        ("priority_lock", MergePolicy::PriorityLock),
    ] {
        group.bench_function(name, |b| {
            let clock = SimClock::new();
            let dc = DatacenterId::new("dc1");
            let graph = DcnSpec::fig7("dc1").build();
            let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
            let storage =
                StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
            Monitor::new(net, storage.clone(), graph.clone())
                .run_round()
                .unwrap();
            let checker = Checker::new(
                CheckerConfig {
                    group: ImpactGroup::Datacenter(dc.clone()),
                    policy,
                },
                graph.clone(),
            );
            // Four contending apps, all writing the same 10 keys.
            let apps: Vec<StatesmanClient> = (0..4)
                .map(|i| StatesmanClient::new(format!("app-{i}"), storage.clone(), clock.clone()))
                .collect();
            b.iter(|| {
                for (i, app) in apps.iter().enumerate() {
                    let proposals: Vec<_> = (1..=10u32)
                        .map(|p| {
                            (
                                EntityName::device(dc.clone(), format!("agg-{p}-1")),
                                Attribute::DeviceBootImage,
                                Value::text(format!("img-{i}")),
                            )
                        })
                        .collect();
                    app.propose(proposals).unwrap();
                }
                let report = checker.run_pass(&storage, clock.now()).unwrap();
                assert_eq!(report.proposals_seen, 40);
            });
        });
    }
    group.finish();
}

fn bench_impact_groups(c: &mut Criterion) {
    // §5's scaling rationale: with one impact group per DC, the work one
    // checker instance must do stays constant as the fleet grows (and
    // instances are independent, so they distribute); a single global
    // checker's pass grows with the whole fleet. Measured here by varying
    // the number of datacenters and timing (a) one DC-group pass and (b)
    // one global pass.
    let mut group = c.benchmark_group("impact_groups");
    group.sample_size(10);

    for n_dcs in [2usize, 4, 8] {
        let clock = SimClock::new();
        let dep = DeploymentSpec {
            dcns: (1..=n_dcs)
                .map(|i| DcnSpec::tiny(format!("dc{i}")))
                .collect(),
            wan: Some(WanSpec {
                dc_names: (1..=n_dcs).map(|i| format!("dc{i}")).collect(),
                border_routers_per_dc: 2,
                wan_link_mbps: 100_000.0,
            }),
            br_core_mbps: 100_000.0,
        };
        let graph = dep.build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::new(
            (1..=n_dcs).map(|i| DatacenterId::new(format!("dc{i}"))),
            clock.clone(),
            StorageConfig::default(),
        );
        Monitor::new(net, storage.clone(), graph.clone())
            .run_round()
            .unwrap();

        let dc1_checker = Checker::new(
            CheckerConfig {
                group: ImpactGroup::Datacenter(DatacenterId::new("dc1")),
                policy: MergePolicy::PriorityLock,
            },
            graph.clone(),
        );
        group.bench_function(format!("one_dc_group_pass/{n_dcs}_dcs"), |b| {
            b.iter(|| dc1_checker.run_pass(&storage, clock.now()).unwrap());
        });

        let global_checker = Checker::new(
            CheckerConfig {
                group: ImpactGroup::Global,
                policy: MergePolicy::PriorityLock,
            },
            graph.clone(),
        );
        group.bench_function(format!("global_pass/{n_dcs}_dcs"), |b| {
            b.iter(|| global_checker.run_pass(&storage, clock.now()).unwrap());
        });
    }
    group.finish();
}

fn bench_invariant_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("invariant_incremental");
    group.sample_size(20);
    let graph = DcnSpec::fig7("dc1").build();
    let dc = DatacenterId::new("dc1");
    let pairs = capacity::select_tor_pairs(&graph, &dc, Some(1));
    let index = FlowIndex::new(&graph);
    let baselines = capacity::baselines_for(&index, &pairs);

    let mut health = HealthView::all_up();
    health.set_device_down(DeviceName::new("agg-3-1"));

    group.bench_function("full_evaluation", |b| {
        b.iter(|| {
            let r = capacity::evaluate_with_baselines(&graph, &index, &health, &pairs, &baselines);
            assert_eq!(r.pairs.len(), 90);
        });
    });

    group.bench_function("incremental_pod_scoped", |b| {
        let base = capacity::evaluate_with_baselines(
            &graph,
            &index,
            &HealthView::all_up(),
            &pairs,
            &baselines,
        );
        let mut touched = HashSet::new();
        touched.insert((dc.clone(), 3u32));
        b.iter(|| {
            let r = base.evaluate_incremental(&graph, &index, &health, &touched);
            assert_eq!(r.pairs.len(), 90);
        });
    });

    // Cross-check correctness once: incremental == full.
    let base = capacity::evaluate_with_baselines(
        &graph,
        &index,
        &HealthView::all_up(),
        &pairs,
        &baselines,
    );
    let mut touched = HashSet::new();
    touched.insert((dc.clone(), 3u32));
    let inc = base.evaluate_incremental(&graph, &index, &health, &touched);
    let full = capacity::evaluate_with_baselines(&graph, &index, &health, &pairs, &baselines);
    for (a, b) in inc.pairs.iter().zip(full.pairs.iter()) {
        assert!((a.current_mbps - b.current_mbps).abs() < 1.0);
    }

    // Verify the TorPairCapacityInvariant wrapper also works both ways.
    let _inv = TorPairCapacityInvariant::paper_default(&graph, dc, Some(1));
    group.finish();
}

criterion_group!(
    benches,
    bench_merge_policies,
    bench_impact_groups,
    bench_invariant_incremental
);
criterion_main!(benches);
