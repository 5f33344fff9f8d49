#![warn(missing_docs)]

//! # statesman-topology
//!
//! Network topology model and graph algorithms for the Statesman
//! reproduction.
//!
//! The checker "maintains a base network state graph using values from
//! the OS, computes difference between TS and OS, and checks invariants
//! on the new network state" (paper, slides on maintaining invariants).
//! This crate provides:
//!
//! * [`NetworkGraph`] — devices (with roles and home datacenters) and
//!   capacitated links, plus a [`HealthView`] overlay describing which
//!   devices/links are effectively up in a given state;
//! * builders for the paper's evaluation topologies: the Fig-7 intra-DC
//!   fabric (pods of ToRs and Aggs under a core tier) and the Fig-9 WAN
//!   (full mesh of datacenters with two border routers each);
//! * algorithms the invariants and applications need: BFS connectivity and
//!   components, Yen's k-shortest paths, Dinic max-flow, and ToR-pair
//!   capacity evaluation with an incremental (pod-scoped) mode.

pub mod builder;
pub mod capacity;
pub mod flow;
pub mod graph;
pub mod par;
pub mod paths;

pub use builder::{DcnSpec, DeploymentSpec, WanSpec};
pub use capacity::{CapacityReport, TorPairCapacity};
pub use flow::{max_flow, FlowIndex, HealthSnapshot};
pub use graph::{EdgeId, HealthView, LinkInfo, NetworkGraph, NodeId, NodeInfo};
pub use paths::k_shortest_paths;
