//! Property-based tests for the topology algorithms on randomized fabrics
//! and randomized failure sets.

use proptest::prelude::*;
use statesman_topology::flow::max_flow_scoped;
use statesman_topology::{
    capacity, graph::components, k_shortest_paths, max_flow, DcnSpec, DeploymentSpec, EdgeId,
    FlowIndex, HealthSnapshot, HealthView, NetworkGraph, NodeId, WanSpec,
};
use statesman_types::{DatacenterId, DeviceName, DeviceRole};
use std::collections::HashSet;

/// A randomized (but valid) fabric spec.
fn spec_strategy() -> impl Strategy<Value = DcnSpec> {
    (1..4u32, 1..4u32, 1..4u32, 1..4u32).prop_map(|(pods, aggs, tors, cores)| DcnSpec {
        name: "dcp".into(),
        pods,
        aggs_per_pod: aggs,
        tors_per_pod: tors,
        cores,
        tor_agg_mbps: 10_000.0,
        agg_core_mbps: 40_000.0,
    })
}

/// A random subset of devices to fail, as indices.
fn failures_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..64usize, 0..6)
}

fn health_with_failures(graph: &NetworkGraph, failures: &[usize]) -> HealthView {
    let mut h = HealthView::all_up();
    let n = graph.node_count();
    for &f in failures {
        let id = statesman_topology::NodeId((f % n) as u32);
        h.set_device_down(graph.node(id).name.clone());
    }
    h
}

/// Two fabrics shaped like the `proposal_storm` benchmark's (scaled down)
/// joined by a two-plane WAN: pod-less cores and border routers, WAN
/// links in their own pseudo-datacenter.
fn two_dc_deployment(vars: (usize, usize)) -> NetworkGraph {
    DeploymentSpec {
        dcns: vec![
            DcnSpec::sized_for_variables("dc1", vars.0),
            DcnSpec::sized_for_variables("dc2", vars.1),
        ],
        wan: Some(WanSpec {
            dc_names: vec!["dc1".into(), "dc2".into()],
            border_routers_per_dc: 2,
            wan_link_mbps: 100_000.0,
        }),
        br_core_mbps: 100_000.0,
    }
    .build()
}

/// The same graph with every link's capacity scaled by its own factor in
/// `[1, 2)`, drawn from `seed`. Unequal capacities make the f64 flow
/// depend on the order augmenting paths are found, so bit-equality
/// checks also pin the solver's arc order.
fn jittered(graph: &NetworkGraph, seed: u64) -> NetworkGraph {
    let mut g = NetworkGraph::new();
    for (_, n) in graph.nodes() {
        g.add_device(n.name.clone(), n.role, n.datacenter.clone(), n.pod);
    }
    for (EdgeId(i), e) in graph.edges() {
        let h = (u64::from(i) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let factor = 1.0 + (h % 1_000) as f64 / 1_000.0;
        let (a, b) = (&graph.node(e.a).name, &graph.node(e.b).name);
        g.add_link(a, b, e.capacity_mbps * factor, e.datacenter.clone());
    }
    g
}

fn deployment_strategy() -> impl Strategy<Value = NetworkGraph> {
    (500..3_000usize, 500..3_000usize, any::<u64>())
        .prop_map(|(v1, v2, seed)| jittered(&two_dc_deployment((v1, v2)), seed))
}

/// Outages as `(kind, index)`: kinds 0–3 pick a ToR, Agg, core or border
/// router, kind 4 a link; the index wraps around the candidates.
fn outages_strategy() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0..5u8, any::<usize>()), 0..10)
}

fn health_with_outages(graph: &NetworkGraph, outages: &[(u8, usize)]) -> HealthView {
    let roles = [
        DeviceRole::ToR,
        DeviceRole::Agg,
        DeviceRole::Core,
        DeviceRole::Border,
    ];
    let mut h = HealthView::all_up();
    for &(kind, i) in outages {
        match roles.get(kind as usize) {
            Some(&role) => {
                let ids = graph.devices_with_role(role);
                if !ids.is_empty() {
                    h.set_device_down(graph.node(ids[i % ids.len()]).name.clone());
                }
            }
            None => {
                let e = EdgeId((i % graph.edge_count()) as u32);
                h.set_link_down(graph.edge(e).name.clone());
            }
        }
    }
    h
}

/// Both DCs' panels, two ToRs per pod.
fn panel(graph: &NetworkGraph) -> Vec<(NodeId, NodeId)> {
    ["dc1", "dc2"]
        .iter()
        .flat_map(|dc| capacity::select_tor_pairs(graph, &DatacenterId::new(*dc), Some(2)))
        .collect()
}

/// The pair scope as a node predicate: the endpoints' pods plus every
/// pod-less node.
fn pod_scope(graph: &NetworkGraph, s: NodeId, t: NodeId) -> impl Fn(NodeId) -> bool + '_ {
    let (si, ti) = (graph.node(s).clone(), graph.node(t).clone());
    move |n| {
        let info = graph.node(n);
        match info.pod {
            None => true,
            Some(p) => {
                (Some(p) == si.pod && info.datacenter == si.datacenter)
                    || (Some(p) == ti.pod && info.datacenter == ti.datacenter)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexed_pair_flow_is_bit_identical_to_scoped_reference(
        g in deployment_strategy(),
        outages in outages_strategy()
    ) {
        let index = FlowIndex::new(&g);
        prop_assert!(index.is_layered());
        let h = health_with_outages(&g, &outages);
        let snap = HealthSnapshot::new(&g, &h);
        for (s, t) in panel(&g) {
            let indexed = index.pair_flow(&snap, s, t);
            let reference = max_flow_scoped(&g, &h, s, t, pod_scope(&g, s, t));
            prop_assert_eq!(indexed.to_bits(), reference.to_bits(), "pair {:?}", (s, t));
        }
    }

    #[test]
    fn incremental_matches_full_for_touched_pods(
        g in deployment_strategy(),
        before in outages_strategy(),
        pod_outages in proptest::collection::vec((0..2u8, any::<usize>()), 1..6)
    ) {
        // Outages added on top of `before` land on ToRs and Aggs only,
        // so the pods they touch bound the change.
        let index = FlowIndex::new(&g);
        let pairs = panel(&g);
        let base = capacity::baselines_for(&index, &pairs);
        let h0 = health_with_outages(&g, &before);
        let prev = capacity::evaluate_with_baselines(&g, &index, &h0, &pairs, &base);
        let mut all = before.clone();
        all.extend(&pod_outages);
        let h1 = health_with_outages(&g, &all);
        let touched: HashSet<(DatacenterId, u32)> = g
            .nodes()
            .filter(|(_, n)| !h1.device_up(&n.name) && h0.device_up(&n.name))
            .map(|(_, n)| (n.datacenter.clone(), n.pod.expect("pod device")))
            .collect();
        let inc = prev.evaluate_incremental(&g, &index, &h1, &touched);
        let full = capacity::evaluate_with_baselines(&g, &index, &h1, &pairs, &base);
        prop_assert_eq!(inc.pairs.len(), full.pairs.len());
        for (i, f) in inc.pairs.iter().zip(&full.pairs) {
            prop_assert_eq!(i.current_mbps.to_bits(), f.current_mbps.to_bits());
            prop_assert_eq!(i.baseline_mbps.to_bits(), f.baseline_mbps.to_bits());
        }
    }

    #[test]
    fn non_layered_graph_matches_max_flow(
        mut g in deployment_strategy(),
        outages in outages_strategy()
    ) {
        // A ToR cabled to another DC's Agg breaks the pod layering, so
        // every pair is solved over the whole graph.
        g.add_link(
            &DeviceName::new("dc1.tor-1-1"),
            &DeviceName::new("dc2.agg-1-1"),
            7_500.0,
            "dc1",
        );
        let index = FlowIndex::new(&g);
        prop_assert!(!index.is_layered());
        let h = health_with_outages(&g, &outages);
        let snap = HealthSnapshot::new(&g, &h);
        for (s, t) in panel(&g) {
            let indexed = index.pair_flow(&snap, s, t);
            prop_assert_eq!(indexed.to_bits(), max_flow(&g, &h, s, t).to_bits());
        }
    }

    #[test]
    fn builders_produce_connected_layered_fabrics(spec in spec_strategy()) {
        let g = spec.build();
        prop_assert!(statesman_topology::FlowIndex::new(&g).is_layered());
        let comps = components(&g, &HealthView::all_up());
        prop_assert_eq!(comps.len(), 1, "fabric must be one component");
        // Estimated variables track reality exactly.
        prop_assert_eq!(
            spec.estimated_variables(),
            g.node_count() * 10 + g.edge_count() * 8
        );
    }

    #[test]
    fn max_flow_is_bounded_and_monotone(
        spec in spec_strategy(),
        failures in failures_strategy()
    ) {
        let g = spec.build();
        let tors: Vec<_> = g.devices_with_role(DeviceRole::ToR);
        prop_assume!(tors.len() >= 2);
        let (s, t) = (tors[0], *tors.last().unwrap());
        prop_assume!(s != t);

        let all_up = HealthView::all_up();
        let baseline = max_flow(&g, &all_up, s, t);
        // Bounded by the source ToR's uplink capacity.
        let uplink_cap = g.degree(s) as f64 * spec.tor_agg_mbps;
        prop_assert!(baseline <= uplink_cap + 1.0);

        // Failures never increase flow (monotonicity).
        let h = health_with_failures(&g, &failures);
        let degraded = max_flow(&g, &h, s, t);
        prop_assert!(degraded <= baseline + 1.0, "degraded {degraded} > baseline {baseline}");
    }

    #[test]
    fn scoped_capacity_matches_unscoped(
        spec in spec_strategy(),
        failures in failures_strategy()
    ) {
        // The pod-scoped fast path must agree with whole-graph max-flow.
        let g = spec.build();
        let dc = DatacenterId::new("dcp");
        let pairs = capacity::select_tor_pairs(&g, &dc, Some(1));
        prop_assume!(!pairs.is_empty());
        let h = health_with_failures(&g, &failures);
        let report = capacity::evaluate(&g, &h, &pairs); // uses scoped path
        for p in &report.pairs {
            let unscoped = max_flow(&g, &h, p.src, p.dst);
            prop_assert!(
                (p.current_mbps - unscoped).abs() < 1.0,
                "pair {:?}: scoped {} vs unscoped {}",
                (p.src, p.dst),
                p.current_mbps,
                unscoped
            );
        }
    }

    #[test]
    fn k_shortest_paths_are_loopless_and_ordered(
        spec in spec_strategy(),
        k in 1..6usize
    ) {
        let g = spec.build();
        let h = HealthView::all_up();
        let tors = g.devices_with_role(DeviceRole::ToR);
        prop_assume!(tors.len() >= 2);
        let (s, t) = (tors[0], *tors.last().unwrap());
        prop_assume!(s != t);
        let paths = k_shortest_paths(&g, &h, s, t, k);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].len() <= w[1].len(), "lengths must be non-decreasing");
            prop_assert_ne!(&w[0], &w[1], "paths must be distinct");
        }
        for p in &paths {
            prop_assert_eq!(p.first(), Some(&s));
            prop_assert_eq!(p.last(), Some(&t));
            let set: std::collections::HashSet<_> = p.iter().collect();
            prop_assert_eq!(set.len(), p.len(), "loopless");
        }
    }

    #[test]
    fn downsample_is_deterministic_subset(
        spec in spec_strategy(),
        max_pairs in 1..40usize,
        seed in any::<u64>()
    ) {
        let g = spec.build();
        let dc = DatacenterId::new("dcp");
        let pairs = capacity::select_tor_pairs(&g, &dc, None);
        let s1 = capacity::downsample_pairs(pairs.clone(), max_pairs, seed);
        let s2 = capacity::downsample_pairs(pairs.clone(), max_pairs, seed);
        prop_assert_eq!(&s1, &s2, "same seed, same sample");
        prop_assert!(s1.len() <= max_pairs.max(pairs.len().min(max_pairs)));
        let all: std::collections::HashSet<_> = pairs.iter().collect();
        for p in &s1 {
            prop_assert!(all.contains(p), "sample must be a subset");
        }
    }

    #[test]
    fn components_partition_the_up_nodes(
        spec in spec_strategy(),
        failures in failures_strategy()
    ) {
        let g = spec.build();
        let h = health_with_failures(&g, &failures);
        let comps = components(&g, &h);
        let mut seen = std::collections::HashSet::new();
        for comp in &comps {
            for id in comp {
                prop_assert!(seen.insert(*id), "node in two components");
                prop_assert!(h.device_up(&g.node(*id).name));
            }
        }
        // Every up node is in some component.
        let up_count = g
            .nodes()
            .filter(|(_, n)| h.device_up(&n.name))
            .count();
        prop_assert_eq!(seen.len(), up_count);
        let _ = DeviceName::new("x");
    }
}
