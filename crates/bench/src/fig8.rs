//! The §7.2 scenario: maintaining the capacity invariant while
//! switch-upgrade and failure-mitigation coexist (Figures 7 and 8).
//!
//! Setup (from the paper):
//!
//! * topology: one DC with 10 pods × 4 Aggs (Fig 7);
//! * invariant: 99% of directional ToR pairs (one sampled ToR per pod →
//!   90 pairs) keep ≥ 50% of baseline capacity;
//! * switch-upgrade rolls new firmware across all 40 Aggs pod-by-pod,
//!   greedily parallel within a pod;
//! * failure-mitigation watches FCS error rates; a persistent fault is
//!   injected on link ToR1–Agg1 of pod 4 partway through (the paper's
//!   time D), and mitigation shuts that link;
//! * both applications run every 5 simulated minutes.
//!
//! The scenario records, per tick, every sampled ToR pair's capacity as a
//! fraction of baseline — exactly Fig 8's plot — plus an event timeline
//! (pod starts, fault, shutdown, slowdown) matching the figure's A–F
//! annotations.

use statesman_apps::{
    upgrade::agg_pods_of, FailureMitigationApp, ManagementApp, MitigationConfig, SwitchUpgradeApp,
    UpgradeConfig, UpgradePlan,
};
use statesman_core::{Coordinator, CoordinatorConfig, StatesmanClient};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{StorageConfig, StorageService};
use statesman_topology::{capacity, DcnSpec, FlowIndex, HealthView, NetworkGraph, NodeId};
use statesman_types::{DatacenterId, SimDuration, SimTime};

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// RNG seed.
    pub seed: u64,
    /// Application/statesman round period (paper: 5 minutes).
    pub period: SimDuration,
    /// When the FCS fault on pod 4's ToR1–Agg1 link fires (paper's D).
    pub fault_at: SimTime,
    /// Firmware reboot window.
    pub reboot_window: SimDuration,
    /// Stop after this much simulated time even if the rollout is
    /// unfinished (safety stop; the paper's x-axis spans ~420 min).
    pub horizon: SimDuration,
    /// Target firmware version.
    pub target_version: String,
    /// Enforce the network-wide invariants (true = the paper's system;
    /// false = ablation — the checker merges everything, quantifying what
    /// the guardian is worth).
    pub enforce_invariants: bool,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            seed: 0x000F_1608,
            period: SimDuration::from_mins(5),
            fault_at: SimTime::from_mins(55),
            reboot_window: SimDuration::from_mins(8),
            horizon: SimDuration::from_mins(600),
            target_version: "7.0.1".to_string(),
            enforce_invariants: true,
        }
    }
}

/// One per-tick sample: the capacity fraction of every sampled ToR pair.
#[derive(Debug, Clone)]
pub struct Fig8Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Fraction of baseline capacity per pair (index = Fig 8's Y order:
    /// pairs grouped by originating pod).
    pub fractions: Vec<f64>,
    /// Which pod the upgrade application is working on, if any.
    pub upgrading_pod: Option<u32>,
}

/// The scenario outcome.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Per-tick samples.
    pub samples: Vec<Fig8Sample>,
    /// Annotated events (time, label) — the figure's A–F.
    pub events: Vec<(SimTime, String)>,
    /// Ticks until the rollout finished (None if horizon hit).
    pub finished_at: Option<SimTime>,
    /// The sampled ToR pairs, as (src pod, dst pod).
    pub pair_pods: Vec<(u32, u32)>,
    /// Total proposals accepted / rejected over the run.
    pub accepted: usize,
    /// Total rejected.
    pub rejected: usize,
}

impl Fig8Result {
    /// The minimum capacity fraction ever observed across all pairs and
    /// ticks — the invariant holds iff this is ≥ 0.5 (within float slack).
    pub fn min_fraction(&self) -> f64 {
        self.samples
            .iter()
            .flat_map(|s| s.fractions.iter().copied())
            .fold(1.0, f64::min)
    }

    /// Fraction values observed for pairs touching `pod` at `at`.
    pub fn pod_fractions_at(&self, pod: u32, at: SimTime) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.at == at)
            .flat_map(|s| {
                s.fractions
                    .iter()
                    .zip(&self.pair_pods)
                    .filter(|(_, (sp, dp))| *sp == pod || *dp == pod)
                    .map(|(f, _)| *f)
            })
            .collect()
    }

    /// The event time labelled `label`, if present.
    pub fn event_time(&self, label: &str) -> Option<SimTime> {
        self.events
            .iter()
            .find(|(_, l)| l.starts_with(label))
            .map(|(t, _)| *t)
    }
}

/// The assembled scenario.
pub struct Fig8Scenario {
    config: Fig8Config,
    graph: NetworkGraph,
    net: SimNetwork,
    coordinator: Coordinator,
    upgrade: SwitchUpgradeApp,
    mitigation: FailureMitigationApp,
    index: FlowIndex,
    pairs: Vec<(NodeId, NodeId)>,
    baselines: Vec<f64>,
}

impl Fig8Scenario {
    /// Build the scenario.
    pub fn new(config: Fig8Config) -> Self {
        let clock = SimClock::new();
        let dc = DatacenterId::new("dc1");
        let graph = DcnSpec::fig7("dc1").build();

        let mut sim_cfg = SimConfig::ideal();
        sim_cfg.seed = config.seed;
        sim_cfg.faults.command_latency_ms = 2_000;
        sim_cfg.faults.command_jitter_ms = 500;
        sim_cfg.faults.reboot_window_ms = config.reboot_window.as_millis();
        sim_cfg.faults = sim_cfg.faults.with_fig8_fcs_fault(config.fault_at);
        let net = SimNetwork::new(&graph, clock.clone(), sim_cfg);

        let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
        let coordinator = Coordinator::new(
            &graph,
            net.clone(),
            storage.clone(),
            if config.enforce_invariants {
                CoordinatorConfig::default()
            } else {
                CoordinatorConfig {
                    connectivity_invariant: false,
                    capacity_invariant: None,
                    wan_invariant: None,
                    ..Default::default()
                }
            },
        );

        let upgrade = SwitchUpgradeApp::new(
            StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone()),
            UpgradeConfig {
                target_version: config.target_version.clone(),
                plan: UpgradePlan::PodByPod {
                    datacenter: dc.clone(),
                    pods: agg_pods_of(&graph, &dc),
                },
            },
        );
        let mitigation = FailureMitigationApp::new(
            StatesmanClient::new("failure-mitigation", storage, clock),
            MitigationConfig {
                datacenters: vec![dc.clone()],
                fcs_threshold: 0.01,
                persistence: 2,
            },
        );

        let pairs = capacity::select_tor_pairs(&graph, &dc, Some(1));
        let index = FlowIndex::new(&graph);
        let baselines = capacity::baselines_for(&index, &pairs);
        Fig8Scenario {
            config,
            graph,
            net,
            coordinator,
            upgrade,
            mitigation,
            pairs,
            index,
            baselines,
        }
    }

    /// Ground-truth health straight from the simulator (what the network
    /// *actually* looks like — the figure plots reality, not the OS).
    fn ground_truth_health(&self) -> HealthView {
        let mut h = HealthView::all_up();
        for d in self.net.device_names() {
            if !self.net.device_operational(&d) {
                h.set_device_down(d);
            }
        }
        for l in self.net.link_names() {
            if !self.net.link_oper_up(&l) {
                h.set_link_down(l);
            }
        }
        h
    }

    /// Run to completion (or horizon). Returns the recorded series.
    pub fn run(mut self) -> Fig8Result {
        let mut samples = Vec::new();
        let mut events: Vec<(SimTime, String)> = Vec::new();
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        let mut finished_at = None;
        let mut fault_logged = false;
        let mut shutdown_logged = false;
        let mut last_pod: Option<u32> = None;

        let pair_pods: Vec<(u32, u32)> = self
            .pairs
            .iter()
            .map(|(s, d)| {
                (
                    self.graph.node(*s).pod.unwrap_or(0),
                    self.graph.node(*d).pod.unwrap_or(0),
                )
            })
            .collect();

        let end = SimTime::ZERO + self.config.horizon;
        loop {
            let now = self.net.clock().now();
            if now >= end {
                break;
            }

            // Applications step first (read OS from the previous round),
            // then Statesman runs its round, then time advances.
            let up_report = self.upgrade.step().expect("upgrade step");
            let mit_report = self.mitigation.step().expect("mitigation step");
            let round = self
                .coordinator
                .tick_and_advance(self.config.period)
                .expect("statesman round");
            accepted += round.accepted();
            rejected += round.rejected();

            // Event annotations.
            let pod = match self.upgrade.status() {
                statesman_apps::UpgradeStatus::InProgress { position } => position
                    .strip_prefix("pod ")
                    .and_then(|p| p.parse::<u32>().ok()),
                statesman_apps::UpgradeStatus::Done => None,
            };
            if pod != last_pod {
                if let Some(p) = pod {
                    let label = match p {
                        1 => "A: upgrading pod 1".to_string(),
                        2 => "B: upgrading pod 2".to_string(),
                        3 => "C: upgrading pod 3".to_string(),
                        4 => "E: upgrading pod 4 (slowed by down link)".to_string(),
                        5 => "F: upgrading pod 5 (normal speed resumes)".to_string(),
                        other => format!("upgrading pod {other}"),
                    };
                    events.push((now, label));
                }
                last_pod = pod;
            }
            if !fault_logged && now >= self.config.fault_at {
                events.push((
                    self.config.fault_at,
                    "D: FCS fault on tor-4-1~agg-4-1".into(),
                ));
                fault_logged = true;
            }
            if !shutdown_logged && !self.mitigation.tickets().is_empty() {
                events.push((now, "D: failure-mitigation shuts tor-4-1~agg-4-1".into()));
                shutdown_logged = true;
            }
            let _ = (up_report, mit_report);

            // Sample ground-truth pair capacities.
            let health = self.ground_truth_health();
            let report = capacity::evaluate_with_baselines(
                &self.graph,
                &self.index,
                &health,
                &self.pairs,
                &self.baselines,
            );
            samples.push(Fig8Sample {
                at: now,
                fractions: report.pairs.iter().map(|p| p.fraction()).collect(),
                upgrading_pod: pod,
            });

            if self.upgrade.is_done() && finished_at.is_none() {
                finished_at = Some(self.net.clock().now());
                events.push((finished_at.unwrap(), "rollout complete".into()));
                break;
            }
        }

        Fig8Result {
            samples,
            events,
            finished_at,
            pair_pods,
            accepted,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed run (3 pods, shorter reboot) for unit-level checks; the
    /// full-figure assertions live in `tests/fig8_scenario.rs`.
    #[test]
    fn trimmed_scenario_upholds_invariant() {
        let cfg = Fig8Config {
            reboot_window: SimDuration::from_mins(6),
            horizon: SimDuration::from_mins(150),
            fault_at: SimTime::from_mins(30),
            ..Default::default()
        };
        let result = Fig8Scenario::new(cfg).run();
        assert!(!result.samples.is_empty());
        assert!(
            result.min_fraction() >= 0.5 - 1e-9,
            "invariant violated: {}",
            result.min_fraction()
        );
        assert!(result.rejected > 0, "greedy app must hit rejections");
        assert!(result.event_time("D: failure-mitigation").is_some());
    }
}
