//! The system under test, built the way it ships.
//!
//! Every workload builds its fabric, storage and coordinator from
//! `CoordinatorConfig::default()` and `StorageConfig::default()`. The only
//! setting made here is the traced run's `obs` handle. The simulated
//! environment (`SimConfig`) is the workload's input, not a system knob:
//! its seed is the workload seed.

use statesman_core::{Coordinator, CoordinatorConfig};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_obs::Obs;
use statesman_storage::{SeedStats, StorageConfig, StorageService};
use statesman_topology::{DcnSpec, DeploymentSpec, NetworkGraph, WanSpec};
use statesman_types::{DatacenterId, StateResult};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One ~60K-variable DC, counter churn, no proposals.
    TelemetryChurn,
    /// Two ~6K-variable DCs plus a WAN under four proposing applications.
    ProposalStorm,
    /// The HTTP API over a seeded ~20K-variable fabric, open-loop load.
    ApiMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::TelemetryChurn,
        Workload::ProposalStorm,
        Workload::ApiMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TelemetryChurn => "telemetry_churn",
            Workload::ProposalStorm => "proposal_storm",
            Workload::ApiMixed => "api_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is what `BENCHMARK.json` runs; `Tiny` is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Full,
    /// A few thousand variables per workload.
    Tiny,
}

/// Where a system's set-up time went (host clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Fabric build through the seed round (and server start, when the
    /// workload has a server), s.
    pub total_s: f64,
    /// Topology build, ms.
    pub graph_ms: f64,
    /// `Coordinator::new`, ms.
    pub coordinator_new_ms: f64,
    /// The seed round (`Coordinator::tick` over an empty OS), ms.
    pub seed_round_ms: f64,
    /// Stage breakdown of the seed round's bulk write.
    pub seed: Option<SeedStats>,
}

/// One built system.
pub struct System {
    /// The deployment's topology.
    pub graph: NetworkGraph,
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The simulated network.
    pub net: SimNetwork,
    /// The storage service.
    pub storage: StorageService,
    /// The control loop.
    pub coord: Coordinator,
    /// Set-up times.
    pub setup: Setup,
}

/// Target state variables per DC fabric.
fn fabric_vars(w: Workload, scale: Scale) -> usize {
    match (w, scale) {
        (Workload::TelemetryChurn, Scale::Full) => 60_000,
        (Workload::ProposalStorm, Scale::Full) => 6_000,
        (Workload::ApiMixed, Scale::Full) => 20_000,
        (_, Scale::Tiny) => 2_000,
    }
}

/// The workload's deployment: one DC, or two DCs joined by a WAN.
pub fn deployment(w: Workload, scale: Scale) -> DeploymentSpec {
    let vars = fabric_vars(w, scale);
    let names: &[&str] = match w {
        Workload::ProposalStorm => &["dc1", "dc2"],
        _ => &["dc1"],
    };
    DeploymentSpec {
        dcns: names
            .iter()
            .map(|n| DcnSpec::sized_for_variables(*n, vars))
            .collect(),
        wan: (names.len() > 1).then(|| WanSpec {
            dc_names: names.iter().map(|n| n.to_string()).collect(),
            border_routers_per_dc: 2,
            wan_link_mbps: 100_000.0,
        }),
        br_core_mbps: 100_000.0,
    }
}

/// The simulated environment for a workload and seed.
pub fn sim_config(w: Workload, seed: u64) -> SimConfig {
    let mut cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    if w == Workload::ProposalStorm {
        cfg.faults.command_latency_ms = 1_000;
        cfg.faults.reboot_window_ms = 4 * 60_000;
    }
    cfg
}

/// Build and seed a system; `obs` is set only in traced runs.
pub fn build(w: Workload, scale: Scale, seed: u64, obs: Option<Obs>) -> StateResult<System> {
    let t0 = Instant::now();
    let graph = deployment(w, scale).build();
    let t1 = Instant::now();

    let clock = SimClock::new();
    let net = SimNetwork::new(&graph, clock.clone(), sim_config(w, seed));
    let mut dcs: Vec<DatacenterId> = graph
        .nodes()
        .map(|(_, n)| n.datacenter.clone())
        .filter(|dc| !dc.is_wan())
        .collect();
    dcs.sort();
    dcs.dedup();
    let storage = StorageService::new(dcs, clock.clone(), StorageConfig::default());
    let t2 = Instant::now();

    let coord = Coordinator::new(
        &graph,
        net.clone(),
        storage.clone(),
        CoordinatorConfig {
            obs,
            ..CoordinatorConfig::default()
        },
    );
    let t3 = Instant::now();
    let seed_round = coord.tick()?;
    let t4 = Instant::now();

    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let setup = Setup {
        total_s: (t4 - t0).as_secs_f64(),
        graph_ms: ms(t0, t1),
        coordinator_new_ms: ms(t2, t3),
        seed_round_ms: ms(t3, t4),
        seed: seed_round.monitor.seed,
    };
    Ok(System {
        graph,
        clock,
        net,
        storage,
        coord,
        setup,
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
