//! The metric catalogue: every name `BENCHMARK.json` lists, with its unit.
//!
//! Units keep the two clocks apart. `ms` and `s` are host time (our
//! compute); `sim_ms` and `sim_us` are simulated device and consensus time
//! (the paper's §8 latencies). No metric adds one clock to the other.

/// End-to-end metrics, printed by untraced runs (`--trace 0`). Every
/// workload reports each one, defined for its own foreground operation;
/// see `perfbench/README.md`. Tails are printed in the report line but
/// not here: `api_mixed`'s read tail is set by how many snapshot
/// compactions land in the reference rung, and a bound on it would gate
/// on that count.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer a
/// workload does not exercise reports 0 and is listed under `idle` in
/// the run's report line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("coordinator.tick_ms", "ms"),
    ("coordinator.unattributed_ms", "ms"),
    ("monitor.poll_ms", "ms"),
    ("monitor.diff_ms", "ms"),
    ("monitor.write_ms", "ms"),
    ("monitor.other_ms", "ms"),
    ("monitor.rows_written", "count"),
    ("monitor.writes_suppressed", "count"),
    ("monitor.write_ratio", "ratio"),
    ("monitor.sim_io_ms", "sim_ms"),
    ("checker.pass_ms", "ms"),
    ("checker.pass_max_ms", "ms"),
    ("checker.proposals_seen", "count"),
    ("checker.accepted", "count"),
    ("checker.rejected", "count"),
    ("checker.already_satisfied", "count"),
    ("checker.accept_ratio", "ratio"),
    ("checker.reject.uncontrollable", "count"),
    ("checker.reject.conflict", "count"),
    ("checker.reject.invariant", "count"),
    ("checker.reject.invalid", "count"),
    ("checker.variables_read", "count"),
    ("checker.full_degrades", "count"),
    ("updater.read_ms", "ms"),
    ("updater.diff_ms", "ms"),
    ("updater.exec_ms", "ms"),
    ("updater.other_ms", "ms"),
    ("updater.diffs", "count"),
    ("updater.plan_steps", "count"),
    ("updater.plan_waves", "count"),
    ("updater.plan_max_width", "count"),
    ("updater.commands_applied", "count"),
    ("updater.commands_failed", "count"),
    ("updater.inflight_rejections", "count"),
    ("updater.rollbacks", "count"),
    ("updater.withheld_ratio", "ratio"),
    ("updater.sim_io_ms", "sim_ms"),
    ("client.propose_ms", "ms"),
    ("client.propose_tail_ms", "ms"),
    ("client.receipts_ms", "ms"),
    ("client.receipts_tail_ms", "ms"),
    ("storage.lock_wait_ms", "ms"),
    ("storage.commit_sim_us.dc1", "sim_us"),
    ("storage.commit_sim_us.dc2", "sim_us"),
    ("storage.commit_sim_us.wan", "sim_us"),
    ("storage.delta_reads", "count"),
    ("storage.full_fallbacks", "count"),
    ("storage.delta_hit_ratio", "ratio"),
    ("storage.retries", "count"),
    ("storage.retries_exhausted", "count"),
    ("storage.rows", "count"),
    ("storage.bytes_per_var", "bytes"),
    ("storage.read_ms", "ms"),
    ("storage.write_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_written", "bytes"),
    ("wal.fsyncs_per_write", "ratio"),
    ("wal.bytes_per_row", "bytes"),
    ("httpapi.read_overhead_ms", "ms"),
    ("httpapi.write_overhead_ms", "ms"),
    ("httpapi.write_batches", "count"),
    ("httpapi.writes_coalesced", "count"),
    ("httpapi.coalesce_ratio", "ratio"),
    ("httpapi.sheds", "count"),
    ("httpapi.io_timeouts", "count"),
    ("httpapi.bytes_sent_per_req", "bytes"),
    ("httpapi.bytes_received_per_req", "bytes"),
    ("httpapi.queue_depth_max", "count"),
    ("net.step_ms", "ms"),
    ("net.commands_accepted", "count"),
    ("net.commands_failed", "count"),
    ("setup.graph_ms", "ms"),
    ("setup.coordinator_new_ms", "ms"),
    ("setup.seed_round_ms", "ms"),
    ("setup.seed.intern_ms", "ms"),
    ("setup.seed.fill_ms", "ms"),
    ("setup.seed.index_ms", "ms"),
    ("setup.seed.commit_ms", "ms"),
    ("setup.seed.bulk_wall_ms", "ms"),
    ("types.interned_entities", "count"),
    ("types.key_resolutions", "count"),
    ("loadgen.lag_tail_ms", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.backlog", "count"),
    ("trace.overhead_p50_ms", "ms"),
];

/// Unit of a catalogued metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Names of `list`.
pub fn names(list: &[(&'static str, &str)]) -> Vec<&'static str> {
    list.iter().map(|(n, _)| *n).collect()
}

use crate::report::Metrics;
use crate::stats::ratio;
use crate::system::Setup;
use statesman_storage::StorageService;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.put(name, value, unit(name));
}

/// Storage-layer state and counter deltas: `delta` is (delta reads, full
/// fallbacks) and `retries` is (retries, retries exhausted) over the
/// measured span.
pub fn storage_layer(
    storage: &StorageService,
    delta: (u64, u64),
    retries: (u64, u64),
    m: &mut Metrics,
) {
    for (dc, us) in storage.commit_latency_by_partition() {
        let name = format!("storage.commit_sim_us.{dc}");
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            put(m, &name, us);
        }
    }
    let (reads, fallbacks) = (delta.0 as f64, delta.1 as f64);
    put(m, "storage.delta_reads", reads);
    put(m, "storage.full_fallbacks", fallbacks);
    put(
        m,
        "storage.delta_hit_ratio",
        ratio(reads - fallbacks, reads),
    );
    put(m, "storage.retries", retries.0 as f64);
    put(m, "storage.retries_exhausted", retries.1 as f64);
    let (bytes, rows) = storage.state_bytes();
    put(m, "storage.rows", rows as f64);
    put(m, "storage.bytes_per_var", ratio(bytes as f64, rows as f64));
}

/// WAL counter deltas `(appends, fsyncs, bytes)` against the storage
/// writes and rows committed over the same span.
pub fn wal_layer(wal: (u64, u64, u64), writes: u64, rows: u64, m: &mut Metrics) {
    put(m, "wal.appends", wal.0 as f64);
    put(m, "wal.fsyncs", wal.1 as f64);
    put(m, "wal.bytes_written", wal.2 as f64);
    put(
        m,
        "wal.fsyncs_per_write",
        ratio(wal.1 as f64, writes as f64),
    );
    put(m, "wal.bytes_per_row", ratio(wal.2 as f64, rows as f64));
}

/// Set-up stages and the process-wide interner size.
pub fn setup_layer(setup: &Setup, m: &mut Metrics) {
    put(m, "setup.graph_ms", setup.graph_ms);
    put(m, "setup.coordinator_new_ms", setup.coordinator_new_ms);
    put(m, "setup.seed_round_ms", setup.seed_round_ms);
    let s = setup.seed.unwrap_or_default();
    put(m, "setup.seed.intern_ms", s.intern_ms);
    put(m, "setup.seed.fill_ms", s.fill_ms);
    put(m, "setup.seed.index_ms", s.index_ms);
    put(m, "setup.seed.commit_ms", s.commit_ms);
    put(m, "setup.seed.bulk_wall_ms", s.wall_ms);
    put(
        m,
        "types.interned_entities",
        statesman_types::interned_count() as f64,
    );
}

/// Give every catalogued per-layer metric the workload did not measure a
/// 0, and return their names (the layers this workload leaves idle).
pub fn fill_idle(m: &mut Metrics) -> Vec<&'static str> {
    let mut idle = Vec::new();
    for (name, unit) in PER_LAYER {
        if m.get(name).is_none() {
            m.put(name, 0.0, unit);
            idle.push(*name);
        }
    }
    idle
}
