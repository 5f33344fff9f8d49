//! Dinic max-flow over a [`NetworkGraph`] under a [`HealthView`].
//!
//! The capacity invariant of §7.2 ("99% of the ToR pairs in the DC should
//! have at least 50% of their baseline capacity") needs the achievable
//! bandwidth between ToR pairs. We compute it as max-flow on the usable
//! subgraph: each undirected physical link contributes capacity in both
//! directions (full-duplex), and a link is usable only if it and both its
//! endpoint devices are up.
//!
//! Dinic's algorithm is O(V²E) in general but effectively linear on the
//! shallow, high-multiplicity fabrics we evaluate. There is one solver: a
//! compressed-sparse-row Dinic over *local* node ids that runs in
//! reusable per-thread scratch, so a solve allocates nothing once its
//! thread has warmed up. Two front ends feed it edges:
//!
//! * [`FlowIndex::pair_flow`] — the capacity invariant's path. The index
//!   is built once per graph and hands the solver only the pair's scope
//!   (its two pods plus the pod-less tiers), with health read from a
//!   dense [`HealthSnapshot`] instead of name lookups.
//! * [`max_flow`] / [`max_flow_scoped`] — whole-graph scans with a node
//!   predicate and name-keyed health; the reference the indexed path is
//!   tested against.
//!
//! Both insert a scope's usable edges in ascending [`EdgeId`] order, so
//! the residual graph — and therefore every f64 the solver produces — is
//! identical between them.

use crate::graph::{EdgeId, HealthView, NetworkGraph, NodeId};
use statesman_types::DatacenterId;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Below this residual capacity an arc counts as saturated.
const EPS: f64 = 1e-9;
/// A node's slot in the scratch's global→local map when it has no local id.
const UNMAPPED: u32 = u32::MAX;
/// The dense pod key of a pod-less node (core/border tier).
const NO_POD: u32 = u32::MAX;

/// Working memory of one Dinic solve, kept per thread and reused.
///
/// Each solve maps the global node ids its edges touch to dense local ids
/// (in first-seen order), lays the residual arcs out in CSR form, runs
/// Dinic, and resets only the map slots it set.
#[derive(Debug, Default)]
struct Scratch {
    /// Global node id → local id, [`UNMAPPED`] when absent.
    local: Vec<u32>,
    /// Local id → global node id (the slots of `local` to reset).
    globals: Vec<u32>,
    /// The scope's usable edges in insertion order, over local ids.
    edges: Vec<(u32, u32, f64)>,
    /// CSR offsets: local node `u`'s arcs are `start[u]..start[u + 1]`.
    start: Vec<u32>,
    /// Next free arc slot per node while the CSR is filled.
    fill: Vec<u32>,
    /// Per arc: head node, residual capacity, index of the reverse arc.
    to: Vec<u32>,
    cap: Vec<f64>,
    rev: Vec<u32>,
    /// Per node: BFS level and the DFS's current-arc pointer.
    level: Vec<i32>,
    iter: Vec<u32>,
    queue: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Max-flow from `s` to `t` over `edges`: undirected `(a, b,
    /// capacity)` triples over global node ids, each contributing
    /// `capacity` in both directions. `node_count` bounds the ids.
    fn solve(
        &mut self,
        node_count: usize,
        s: NodeId,
        t: NodeId,
        edges: impl Iterator<Item = (u32, u32, f64)>,
    ) -> f64 {
        if self.local.len() < node_count {
            self.local.resize(node_count, UNMAPPED);
        }
        for (a, b, c) in edges {
            let (la, lb) = (self.local_id(a), self.local_id(b));
            self.edges.push((la, lb, c));
        }
        let (ls, lt) = (self.local[s.0 as usize], self.local[t.0 as usize]);
        // An endpoint no usable edge touches has nothing to send or take.
        let flow = if ls == UNMAPPED || lt == UNMAPPED {
            0.0
        } else {
            self.build_csr();
            self.dinic(ls, lt)
        };
        for &g in &self.globals {
            self.local[g as usize] = UNMAPPED;
        }
        self.globals.clear();
        self.edges.clear();
        flow
    }

    fn local_id(&mut self, global: u32) -> u32 {
        let slot = &mut self.local[global as usize];
        if *slot == UNMAPPED {
            *slot = self.globals.len() as u32;
            self.globals.push(global);
        }
        *slot
    }

    /// Lay out the residual arcs. Each edge adds `u→v` then `v→u`, each
    /// as a forward arc plus its zero-capacity reverse, and every node
    /// sees its arcs in insertion order — the adjacency an incremental
    /// `push` per arc would build, without a `Vec` per node.
    fn build_csr(&mut self) {
        let n = self.globals.len();
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &(u, v, _) in &self.edges {
            self.start[u as usize + 1] += 2;
            self.start[v as usize + 1] += 2;
        }
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }
        let arcs = self.start[n] as usize;
        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..n]);
        self.to.resize(arcs, 0);
        self.cap.resize(arcs, 0.0);
        self.rev.resize(arcs, 0);
        for i in 0..self.edges.len() {
            let (u, v, c) = self.edges[i];
            self.add_arc(u, v, c);
            self.add_arc(v, u, c);
        }
    }

    /// A forward arc `u→v` of capacity `c` plus its reverse arc.
    fn add_arc(&mut self, u: u32, v: u32, c: f64) {
        let a = self.fill[u as usize];
        self.fill[u as usize] += 1;
        let b = self.fill[v as usize];
        self.fill[v as usize] += 1;
        (
            self.to[a as usize],
            self.cap[a as usize],
            self.rev[a as usize],
        ) = (v, c, b);
        (
            self.to[b as usize],
            self.cap[b as usize],
            self.rev[b as usize],
        ) = (u, 0.0, a);
    }

    fn bfs(&mut self, s: u32, t: u32) -> bool {
        self.level.clear();
        self.level.resize(self.globals.len(), -1);
        self.queue.clear();
        self.level[s as usize] = 0;
        self.queue.push(s);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            for a in self.start[u] as usize..self.start[u + 1] as usize {
                let v = self.to[a] as usize;
                if self.cap[a] > EPS && self.level[v] < 0 {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v as u32);
                }
            }
        }
        self.level[t as usize] >= 0
    }

    fn dfs(&mut self, u: u32, t: u32, f: f64) -> f64 {
        if u == t {
            return f;
        }
        let u = u as usize;
        while self.iter[u] < self.start[u + 1] {
            let a = self.iter[u] as usize;
            let (v, c) = (self.to[a], self.cap[a]);
            if c > EPS && self.level[v as usize] == self.level[u] + 1 {
                let d = self.dfs(v, t, f.min(c));
                if d > EPS {
                    self.cap[a] -= d;
                    self.cap[self.rev[a] as usize] += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    fn dinic(&mut self, s: u32, t: u32) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.clear();
            self.iter
                .extend_from_slice(&self.start[..self.globals.len()]);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= EPS {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// Run the calling thread's solver.
fn solve(
    node_count: usize,
    s: NodeId,
    t: NodeId,
    edges: impl Iterator<Item = (u32, u32, f64)>,
) -> f64 {
    SCRATCH.with(|scratch| scratch.borrow_mut().solve(node_count, s, t, edges))
}

/// Maximum achievable bandwidth (Mbps) between two devices over usable
/// links. Returns `0.0` if either endpoint device is down or no usable
/// path exists.
pub fn max_flow(graph: &NetworkGraph, health: &HealthView, s: NodeId, t: NodeId) -> f64 {
    max_flow_scoped(graph, health, s, t, |_| true)
}

/// Max-flow restricted to nodes for which `allowed` returns true (both
/// endpoints of an edge must be allowed). Scans every edge and checks
/// health by name; the capacity invariant solves the same scopes through
/// [`FlowIndex::pair_flow`], and this is the reference it is tested
/// against.
pub fn max_flow_scoped(
    graph: &NetworkGraph,
    health: &HealthView,
    s: NodeId,
    t: NodeId,
    allowed: impl Fn(NodeId) -> bool,
) -> f64 {
    if s == t {
        return f64::INFINITY;
    }
    if !health.device_up(&graph.node(s).name) || !health.device_up(&graph.node(t).name) {
        return 0.0;
    }
    let edges = graph
        .edges()
        .filter(|(_, e)| allowed(e.a) && allowed(e.b) && health.link_usable(&e.name))
        .map(|(_, e)| (e.a.0, e.b.0, e.capacity_mbps));
    solve(graph.node_count(), s, t, edges)
}

/// Dense down flags of one [`HealthView`] over one graph, so per-edge
/// usability is three array reads instead of three name hashes.
#[derive(Debug)]
pub struct HealthSnapshot {
    node_down: Vec<bool>,
    edge_down: Vec<bool>,
}

impl HealthSnapshot {
    /// Resolve `health`'s down devices and links against `graph`; names
    /// the graph does not know are ignored, as [`HealthView`] lookups
    /// would ignore them. Costs one lookup per down entity.
    pub fn new(graph: &NetworkGraph, health: &HealthView) -> Self {
        let mut snap = HealthSnapshot {
            node_down: vec![false; graph.node_count()],
            edge_down: vec![false; graph.edge_count()],
        };
        for name in health.down_devices() {
            if let Some(id) = graph.node_id(name) {
                snap.node_down[id.0 as usize] = true;
            }
        }
        for name in health.down_links() {
            if let Some(id) = graph.edge_id(name) {
                snap.edge_down[id.0 as usize] = true;
            }
        }
        snap
    }
}

/// Per-pair flow scopes of one graph, built once.
///
/// On a *pod-layered* fabric — every edge stays inside one pod or
/// touches a pod-less (core/border) node — all paths between two nodes
/// lie inside their two pods plus the pod-less tiers, so a pair is solved
/// on that subgraph alone. The index keeps, per pod, the edges with an
/// endpoint in it and, separately, the edges between pod-less nodes, each
/// list in ascending [`EdgeId`] order; a pair's scope is the merge of at
/// most three lists. A non-layered graph, or a pair with a pod-less
/// endpoint, is solved over the whole graph by the same solver.
#[derive(Debug)]
pub struct FlowIndex {
    layered: bool,
    /// Dense pod key per node ([`NO_POD`] for pod-less nodes).
    pod_of: Vec<u32>,
    /// `(datacenter, pod)` → dense pod key.
    pod_keys: HashMap<(DatacenterId, u32), u32>,
    /// Per pod key: edges with an endpoint in the pod, ascending.
    pod_edges: Vec<Vec<u32>>,
    /// Edges between two pod-less nodes, ascending.
    shared_edges: Vec<u32>,
    /// Per edge: endpoints and capacity.
    edges: Vec<(u32, u32, f64)>,
}

impl FlowIndex {
    /// Index `graph`. One pass over its nodes and one over its edges.
    pub fn new(graph: &NetworkGraph) -> Self {
        let mut pod_keys: HashMap<(DatacenterId, u32), u32> = HashMap::new();
        let pod_of: Vec<u32> = graph
            .nodes()
            .map(|(_, n)| match n.pod {
                Some(pod) => {
                    let next = pod_keys.len() as u32;
                    *pod_keys.entry((n.datacenter.clone(), pod)).or_insert(next)
                }
                None => NO_POD,
            })
            .collect();
        let mut index = FlowIndex {
            layered: true,
            pod_of,
            pod_edges: vec![Vec::new(); pod_keys.len()],
            pod_keys,
            shared_edges: Vec::new(),
            edges: Vec::with_capacity(graph.edge_count()),
        };
        for (EdgeId(e), info) in graph.edges() {
            index.edges.push((info.a.0, info.b.0, info.capacity_mbps));
            let (ka, kb) = (
                index.pod_of[info.a.0 as usize],
                index.pod_of[info.b.0 as usize],
            );
            match (ka, kb) {
                (NO_POD, NO_POD) => index.shared_edges.push(e),
                (k, NO_POD) | (NO_POD, k) => index.pod_edges[k as usize].push(e),
                (ka, kb) if ka == kb => index.pod_edges[ka as usize].push(e),
                _ => index.layered = false,
            }
        }
        index
    }

    /// Whether every edge stays within one pod or touches a pod-less node.
    pub fn is_layered(&self) -> bool {
        self.layered
    }

    /// Health with nothing down, for baselines.
    pub(crate) fn all_up(&self) -> HealthSnapshot {
        HealthSnapshot {
            node_down: vec![false; self.pod_of.len()],
            edge_down: vec![false; self.edges.len()],
        }
    }

    /// Flags, by dense pod key, the pods of `pods` that this graph has.
    pub(crate) fn pod_mask(&self, pods: &HashSet<(DatacenterId, u32)>) -> Vec<bool> {
        let mut mask = vec![false; self.pod_edges.len()];
        for pod in pods {
            if let Some(&k) = self.pod_keys.get(pod) {
                mask[k as usize] = true;
            }
        }
        mask
    }

    /// Whether `node` lies in a pod flagged in `mask` (see
    /// [`FlowIndex::pod_mask`]).
    pub(crate) fn in_pods(&self, node: NodeId, mask: &[bool]) -> bool {
        match self.pod_of[node.0 as usize] {
            NO_POD => false,
            k => mask[k as usize],
        }
    }

    /// Max-flow (Mbps) from `s` to `t` under `health`, over the pair's
    /// scope. Equal, bit for bit, to [`max_flow_scoped`] with the scope's
    /// node predicate (or to [`max_flow`] for a whole-graph scope).
    pub fn pair_flow(&self, health: &HealthSnapshot, s: NodeId, t: NodeId) -> f64 {
        debug_assert_eq!(health.node_down.len(), self.pod_of.len());
        debug_assert_eq!(health.edge_down.len(), self.edges.len());
        if s == t {
            return f64::INFINITY;
        }
        if health.node_down[s.0 as usize] || health.node_down[t.0 as usize] {
            return 0.0;
        }
        let usable = |e: u32| {
            let (a, b, c) = self.edges[e as usize];
            let up = !health.edge_down[e as usize]
                && !health.node_down[a as usize]
                && !health.node_down[b as usize];
            up.then_some((a, b, c))
        };
        let n = self.pod_of.len();
        let (ks, kt) = (self.pod_of[s.0 as usize], self.pod_of[t.0 as usize]);
        if self.layered && ks != NO_POD && kt != NO_POD {
            let other: &[u32] = if kt == ks {
                &[]
            } else {
                &self.pod_edges[kt as usize]
            };
            let scope = Merge3([&self.pod_edges[ks as usize], other, &self.shared_edges]);
            solve(n, s, t, scope.filter_map(usable))
        } else {
            solve(n, s, t, (0..self.edges.len() as u32).filter_map(usable))
        }
    }
}

/// Ascending merge of three ascending, pairwise disjoint id lists.
struct Merge3<'a>([&'a [u32]; 3]);

impl Iterator for Merge3<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let (i, _) = self
            .0
            .iter()
            .enumerate()
            .filter_map(|(i, list)| list.first().map(|&e| (i, e)))
            .min_by_key(|&(_, e)| e)?;
        let (&e, rest) = self.0[i].split_first()?;
        self.0[i] = rest;
        Some(e)
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

    fn node(g: &NetworkGraph, name: &str) -> NodeId {
        g.node_id(&DeviceName::new(name)).unwrap()
    }

    #[test]
    fn baseline_tor_pair_capacity_is_4x_uplink() {
        let g = fig7();
        let h = HealthView::all_up();
        // ToR has 4 x 10G uplinks; cross-pod flow is bounded by them.
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert!((f - 40_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn one_agg_down_gives_75_percent() {
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert!((f - 30_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn two_aggs_down_gives_50_percent() {
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-1-2"));
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert!((f - 20_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn link_down_and_its_agg_down_overlap() {
        // The §7.2 subtlety at box E: if link ToR1-Agg1 is already down,
        // taking Agg1 down does NOT further reduce ToR1's capacity.
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_link_down(LinkName::between("tor-4-1", "agg-4-1"));
        let before = max_flow(&g, &h, node(&g, "tor-4-1"), node(&g, "tor-5-1"));
        assert!((before - 30_000.0).abs() < 1.0, "got {before}");
        h.set_device_down(DeviceName::new("agg-4-1"));
        let after = max_flow(&g, &h, node(&g, "tor-4-1"), node(&g, "tor-5-1"));
        assert!((after - before).abs() < 1.0, "got {after} vs {before}");
    }

    #[test]
    fn intra_pod_flow_unaffected_by_other_pods() {
        let g = fig7();
        let mut h = HealthView::all_up();
        for a in 1..=4 {
            h.set_device_down(DeviceName::new(format!("agg-9-{a}")));
        }
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-1-2"));
        assert!((f - 40_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn down_endpoint_means_zero() {
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("tor-1-1"));
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn all_aggs_down_disconnects_pod() {
        let g = fig7();
        let mut h = HealthView::all_up();
        for a in 1..=4 {
            h.set_device_down(DeviceName::new(format!("agg-1-{a}")));
        }
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn self_flow_is_infinite() {
        let g = fig7();
        let h = HealthView::all_up();
        assert!(max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-1-1")).is_infinite());
    }
}
