//! ToR-pair capacity evaluation (the §7.2 invariant's workhorse).
//!
//! The capacity invariant is phrased over *directional ToR pairs*: "99% of
//! the ToR pairs in the DC should have at least 50% of their baseline
//! capacity". Baseline is the pair's max-flow with everything healthy;
//! current capacity is the max-flow under a [`HealthView`]. Figure 8 plots
//! exactly this quantity for 90 pairs over time.
//!
//! Because max-flow between two ToRs only depends on the state of devices
//! and links "near" the two pods (the core tier is heavily overprovisioned),
//! the checker can evaluate invariants incrementally: when a proposed
//! change touches pods P, only pairs with an endpoint in P need
//! re-evaluation. [`CapacityReport::evaluate_incremental`] implements that
//! optimization and is benchmarked against the full evaluation in the
//! `invariant_incremental` ablation.
//!
//! Every evaluation solves pairs through one [`FlowIndex`] built from the
//! graph, over a dense [`HealthSnapshot`] taken once per evaluation.

use crate::flow::{FlowIndex, HealthSnapshot};
use crate::graph::{HealthView, NetworkGraph, NodeId};
use statesman_types::{DatacenterId, DeviceRole};
use std::collections::HashSet;

/// Capacity of one directional ToR pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TorPairCapacity {
    /// Source ToR.
    pub src: NodeId,
    /// Destination ToR.
    pub dst: NodeId,
    /// Baseline max-flow, Mbps (all-up).
    pub baseline_mbps: f64,
    /// Current max-flow, Mbps (under the evaluated health view).
    pub current_mbps: f64,
}

impl TorPairCapacity {
    /// Current capacity as a fraction of baseline in `[0, 1]`; a pair with
    /// zero baseline reports `1.0` (vacuously unimpaired).
    pub fn fraction(&self) -> f64 {
        if self.baseline_mbps <= 0.0 {
            1.0
        } else {
            (self.current_mbps / self.baseline_mbps).clamp(0.0, 1.0)
        }
    }
}

/// Capacity evaluation over a set of ToR pairs.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Per-pair results, in pair order.
    pub pairs: Vec<TorPairCapacity>,
}

impl CapacityReport {
    /// Fraction of pairs at or above `threshold` of baseline.
    pub fn fraction_meeting(&self, threshold: f64) -> f64 {
        if self.pairs.is_empty() {
            return 1.0;
        }
        let ok = self
            .pairs
            .iter()
            .filter(|p| p.fraction() + 1e-9 >= threshold)
            .count();
        ok as f64 / self.pairs.len() as f64
    }

    /// The worst pair's fraction (1.0 if no pairs).
    pub fn worst_fraction(&self) -> f64 {
        self.pairs.iter().map(|p| p.fraction()).fold(1.0, f64::min)
    }

    /// Pairs below `threshold` of baseline.
    pub fn violating(&self, threshold: f64) -> Vec<&TorPairCapacity> {
        self.pairs
            .iter()
            .filter(|p| p.fraction() + 1e-9 < threshold)
            .collect()
    }
}

/// Select the evaluation pairs for a datacenter.
///
/// `sample_tors_per_pod` bounds work on big fabrics: the paper's Figure 8
/// picks **one ToR from each pod** and forms all directional pairs among
/// them (10 pods → 90 pairs). `None` means all ToRs.
pub fn select_tor_pairs(
    graph: &NetworkGraph,
    dc: &DatacenterId,
    sample_tors_per_pod: Option<u32>,
) -> Vec<(NodeId, NodeId)> {
    let mut tors: Vec<NodeId> = Vec::new();
    for pod in graph.pods_in(dc) {
        let mut pod_tors: Vec<NodeId> = graph
            .devices_in_pod(dc, pod)
            .into_iter()
            .filter(|&id| graph.node(id).role == DeviceRole::ToR)
            .collect();
        pod_tors.sort_unstable();
        if let Some(k) = sample_tors_per_pod {
            pod_tors.truncate(k as usize);
        }
        tors.extend(pod_tors);
    }
    let mut pairs = Vec::with_capacity(tors.len() * tors.len().saturating_sub(1));
    for &s in &tors {
        for &d in &tors {
            if s != d {
                pairs.push((s, d));
            }
        }
    }
    pairs
}

/// Downsample a pair list to at most `max_pairs` pairs with a seeded,
/// deterministic stride sample. Production-scale fabrics generate far
/// more directional ToR pairs than any checker can max-flow per pass
/// (407 pods → 165K pairs); sampling a fixed-size panel preserves the
/// invariant's statistical meaning ("99% of pairs") while bounding cost.
pub fn downsample_pairs(
    pairs: Vec<(NodeId, NodeId)>,
    max_pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    if pairs.len() <= max_pairs || max_pairs == 0 {
        return pairs;
    }
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sampled: Vec<(NodeId, NodeId)> = pairs
        .choose_multiple(&mut rng, max_pairs)
        .copied()
        .collect();
    sampled.sort_unstable();
    sampled
}

/// Evaluate baseline and current capacity for the given pairs.
///
/// Builds a [`FlowIndex`] and the baselines on every call; callers that
/// evaluate repeatedly should build the index once, compute baselines
/// once via [`baselines_for`], and use [`evaluate_with_baselines`].
pub fn evaluate(
    graph: &NetworkGraph,
    health: &HealthView,
    pairs: &[(NodeId, NodeId)],
) -> CapacityReport {
    let index = FlowIndex::new(graph);
    let base = baselines_for(&index, pairs);
    evaluate_with_baselines(graph, &index, health, pairs, &base)
}

/// Baseline (all-up) max-flow per pair. Pairs solve independently, so
/// a large panel fans out across the worker pool; [`FlowIndex::pair_flow`]
/// is pure and results merge in pair order, so the output is thread-count
/// invariant.
pub fn baselines_for(index: &FlowIndex, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let all_up = index.all_up();
    crate::par::ordered_map(crate::par::worker_threads(), pairs, |&(s, t)| {
        index.pair_flow(&all_up, s, t)
    })
}

/// Evaluate current capacity given precomputed baselines. `index` must
/// be built from `graph`.
pub fn evaluate_with_baselines(
    graph: &NetworkGraph,
    index: &FlowIndex,
    health: &HealthView,
    pairs: &[(NodeId, NodeId)],
    baselines: &[f64],
) -> CapacityReport {
    assert_eq!(pairs.len(), baselines.len());
    let health = HealthSnapshot::new(graph, health);
    let current = crate::par::ordered_map(crate::par::worker_threads(), pairs, |&(s, t)| {
        index.pair_flow(&health, s, t)
    });
    let pairs = pairs
        .iter()
        .zip(baselines)
        .zip(current)
        .map(
            |((&(src, dst), &baseline_mbps), current_mbps)| TorPairCapacity {
                src,
                dst,
                baseline_mbps,
                current_mbps,
            },
        )
        .collect();
    CapacityReport { pairs }
}

impl CapacityReport {
    /// Incrementally refresh a previous report: only pairs with an
    /// endpoint in one of `touched_pods` are re-solved; the rest keep
    /// their previous `current_mbps`. `index` must be built from `graph`.
    ///
    /// Sound when the fabric's core tier is not the bottleneck for
    /// untouched pairs — true of the Fig-7 fabric (Agg↔Core capacity
    /// strictly exceeds ToR uplink capacity) and verified by the
    /// `invariant_incremental` ablation bench, which cross-checks
    /// incremental results against full recomputation.
    pub fn evaluate_incremental(
        &self,
        graph: &NetworkGraph,
        index: &FlowIndex,
        health: &HealthView,
        touched_pods: &HashSet<(DatacenterId, u32)>,
    ) -> CapacityReport {
        let mask = index.pod_mask(touched_pods);
        let touched: Vec<usize> = (0..self.pairs.len())
            .filter(|&i| {
                let p = &self.pairs[i];
                index.in_pods(p.src, &mask) || index.in_pods(p.dst, &mask)
            })
            .collect();
        let mut pairs = self.pairs.clone();
        if !touched.is_empty() {
            let health = HealthSnapshot::new(graph, health);
            let current = crate::par::ordered_map(crate::par::worker_threads(), &touched, |&i| {
                index.pair_flow(&health, pairs[i].src, pairs[i].dst)
            });
            for (i, current_mbps) in touched.into_iter().zip(current) {
                pairs[i].current_mbps = current_mbps;
            }
        }
        CapacityReport { pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcnSpec;
    use statesman_types::{DeviceName, LinkName};

    fn fig7() -> NetworkGraph {
        DcnSpec::fig7("dc1").build()
    }

    #[test]
    fn fig8_pair_selection_is_90() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        assert_eq!(pairs.len(), 90); // 10 ToRs, directional pairs
    }

    #[test]
    fn all_pairs_selection() {
        let g = DcnSpec::tiny("dc1").build();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), None);
        // 4 ToRs → 12 directional pairs
        assert_eq!(pairs.len(), 12);
    }

    #[test]
    fn healthy_fabric_meets_invariant_fully() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let r = evaluate(&g, &HealthView::all_up(), &pairs);
        assert_eq!(r.fraction_meeting(0.5), 1.0);
        assert_eq!(r.worst_fraction(), 1.0);
        assert!(r.violating(0.5).is_empty());
    }

    #[test]
    fn two_aggs_down_is_exactly_half() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-1-2"));
        let r = evaluate(&g, &h, &pairs);
        // Pairs touching pod 1 drop to 0.5; everything still meets 50%.
        assert_eq!(r.fraction_meeting(0.5), 1.0);
        assert!((r.worst_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn three_aggs_down_violates() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let mut h = HealthView::all_up();
        for a in 1..=3 {
            h.set_device_down(DeviceName::new(format!("agg-1-{a}")));
        }
        let r = evaluate(&g, &h, &pairs);
        assert!(r.fraction_meeting(0.5) < 1.0);
        // 18 directional pairs touch pod 1 (9 out + 9 in).
        assert_eq!(r.violating(0.5).len(), 18);
    }

    #[test]
    fn link_plus_agg_down_gives_75_percent_pod() {
        // §7.2 box D/E: ToR1-Agg1 link down in pod 4 → pod-4 pairs at 75%.
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let mut h = HealthView::all_up();
        h.set_link_down(LinkName::between("tor-4-1", "agg-4-1"));
        let r = evaluate(&g, &h, &pairs);
        let pod4_fracs: Vec<f64> = r
            .pairs
            .iter()
            .filter(|p| g.node(p.src).pod == Some(4) || g.node(p.dst).pod == Some(4))
            .map(|p| p.fraction())
            .collect();
        assert_eq!(pod4_fracs.len(), 18);
        for f in pod4_fracs {
            assert!((f - 0.75).abs() < 1e-6, "got {f}");
        }
    }

    #[test]
    fn incremental_matches_full() {
        let g = fig7();
        let dc = DatacenterId::new("dc1");
        let pairs = select_tor_pairs(&g, &dc, Some(1));
        let base = evaluate(&g, &HealthView::all_up(), &pairs);

        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-3-1"));
        h.set_device_down(DeviceName::new("agg-3-2"));

        let mut touched = HashSet::new();
        touched.insert((dc.clone(), 3u32));
        let inc = base.evaluate_incremental(&g, &FlowIndex::new(&g), &h, &touched);
        let full = evaluate(&g, &h, &pairs);
        for (a, b) in inc.pairs.iter().zip(full.pairs.iter()) {
            assert!((a.current_mbps - b.current_mbps).abs() < 1.0);
        }
    }

    #[test]
    fn empty_report_is_vacuously_fine() {
        let r = CapacityReport { pairs: vec![] };
        assert_eq!(r.fraction_meeting(0.5), 1.0);
        assert_eq!(r.worst_fraction(), 1.0);
    }
}
