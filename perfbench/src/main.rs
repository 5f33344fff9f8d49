//! `perfbench`: the end-to-end benchmark of the shipped Statesman system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <telemetry_churn|proposal_storm|api_mixed|all> \
//!     --seed <n|tuning|holdout> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! attached. `--trace 1` runs the same workload untraced and then traced
//! (with an `Obs` handle and spans around every call into a layer), checks
//! that both decided the same, and prints the per-layer metrics. Every run
//! prints a `report` line and then, as its last line, the result object.
//! A failed correctness check exits nonzero. See `perfbench/README.md`.

mod api;
mod checks;
mod loops;
mod metrics;
mod report;
mod stats;
mod system;
mod trace;

use checks::Checks;
use report::{Json, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use system::{Scale, Workload};

/// The seed the benchmark was tuned on (`--seed tuning`).
const TUNING_SEED: u64 = 1;
/// A seed never used while tuning (`--seed holdout`).
const HOLDOUT_SEED: u64 = 97;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: drives proposal choice, the request schedule and
    /// the simulator's seed.
    pub seed: u64,
    /// Measurement time per pass, s.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// What one workload run produced.
pub struct Outcome {
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Workload-specific detail for the report line.
    pub detail: Vec<(String, Json)>,
    /// Checks that ran and failed.
    pub checks: Checks,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <telemetry_churn|proposal_storm|api_mixed|all> \
     --seed <n|tuning|holdout> --seconds <s> --trace <0|1> [--scale full|tiny]"
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: TUNING_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                opts.seed = match value.as_str() {
                    "tuning" => TUNING_SEED,
                    "holdout" => HOLDOUT_SEED,
                    n => n.parse().map_err(|_| format!("bad seed {n}"))?,
                }
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v}")),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("bad scale {v}")),
                }
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&workload) else {
        eprintln!("perfbench: unknown workload {workload}\n{}", usage());
        return ExitCode::from(2);
    };
    let out = match w {
        Workload::ApiMixed => api::run(&opts),
        _ => run_loop(w, &opts),
    };
    match out {
        Ok(out) => finish(w, &opts, out),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Run every workload, each in its own process, and pass their output
/// through.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.name().to_string()
            } else {
                value
            });
        }
        let ok = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !ok {
            eprintln!("perfbench: {} failed", w.name());
            failed += 1;
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(Workload::ALL.len() as i64)),
            ("failed", Json::Int(failed)),
            ("metrics", Json::Obj(Vec::new())),
        ])
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the report and result lines and choose the exit code.
fn finish(w: Workload, opts: &Opts, out: Outcome) -> ExitCode {
    let Outcome {
        mut metrics,
        detail,
        mut checks,
        attempted,
        failed,
    } = out;
    let contract = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let idle = if opts.trace {
        metrics::fill_idle(&mut metrics)
    } else {
        Vec::new()
    };
    checks.note(
        "metrics_finite",
        if metrics.non_finite.is_empty() {
            Ok(())
        } else {
            Err(format!("non-finite: {}", metrics.non_finite.join(", ")))
        },
    );
    let selected = match metrics.select(&metrics::names(contract)) {
        Ok(s) => s,
        Err(missing) => {
            checks.note(
                "metrics_complete",
                Err(format!("missing {}", missing.join(", "))),
            );
            Metrics::default()
        }
    };
    let correct = checks.passed();
    let mut report = vec![
        ("workload".to_string(), Json::str(w.name())),
        ("seed".to_string(), Json::Int(opts.seed as i64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("trace".to_string(), Json::Bool(opts.trace)),
        (
            "scale".to_string(),
            Json::str(match opts.scale {
                Scale::Full => "full",
                Scale::Tiny => "tiny",
            }),
        ),
        (
            "host".to_string(),
            Json::obj([
                (
                    "cpus",
                    Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
                ),
                (
                    "worker_threads",
                    Json::Int(statesman_core::default_worker_threads() as i64),
                ),
            ]),
        ),
        ("commit".to_string(), Json::str(commit())),
    ];
    report.extend(detail);
    report.push(("all_metrics".to_string(), metrics.to_json()));
    if opts.trace {
        report.push((
            "idle".to_string(),
            Json::Arr(idle.into_iter().map(Json::str).collect()),
        ));
    }
    report.push((
        "checks".to_string(),
        Json::obj([
            (
                "ran",
                Json::Obj(
                    checks
                        .ran
                        .iter()
                        .map(|(k, n)| (k.to_string(), Json::Int(*n as i64)))
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(
                    checks
                        .failures
                        .iter()
                        .map(|f| Json::str(f.clone()))
                        .collect(),
                ),
            ),
        ]),
    ));
    println!("report {}", Json::Obj(report));
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for f in &checks.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

/// The commit under test: `PERFBENCH_COMMIT` if set, else the checkout's
/// `.git/HEAD`, else `unknown` (benchmark checkouts need not be git
/// repositories).
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if resolved.is_empty() {
        "unknown".to_string()
    } else {
        resolved
    }
}

/// Where traced runs write their spans: beside the build, in the target
/// directory the executable was built into.
fn spans_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perfbench-spans")))
        .unwrap_or_else(|| PathBuf::from("perfbench-spans"))
}

/// Write a traced pass's spans and name the file in the report.
fn write_spans(tr: &trace::Tracer, w: Workload, seed: u64) -> Json {
    let dir = spans_dir();
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|_| tr.write_jsonl(&path)) {
        Ok(()) => Json::str(path.display().to_string()),
        Err(e) => Json::str(format!("not written: {e}")),
    }
}

/// A loop workload: untraced end-to-end run, or untraced + traced passes.
fn run_loop(w: Workload, opts: &Opts) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut detail = Vec::new();

    let budget = loops::Budget::Seconds(opts.seconds);
    let (pass, sys) = loops::run_pass(w, opts.scale, opts.seed, budget, None, None, &mut checks)?;
    if w == Workload::TelemetryChurn {
        let sample = loops::os_sample(&sys, opts.seed, 64);
        checks.note(
            "os_matches_simulator",
            checks::os_matches_simulator(&sample),
        );
    }
    drop(sys);
    let peak_rss_mb = system::peak_rss_mb();
    // `proposal_storm` sets up once per episode; `telemetry_churn` runs
    // one long episode, so it sets up again after measuring (after the
    // peak RSS is read, so repeated builds do not inflate it).
    let mut setups: Vec<f64> = pass.setups.iter().map(|s| s.total_s).collect();
    if w == Workload::TelemetryChurn && !opts.trace {
        for _ in 1..SETUP_REPEATS {
            let sys = system::build(w, opts.scale, opts.seed, None).map_err(|e| e.to_string())?;
            setups.push(sys.setup.total_s);
        }
    }
    let setup_s = stats::median(&setups);
    detail.push((
        "setup_s_samples".to_string(),
        Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
    ));
    detail.push((
        "end_to_end".to_string(),
        loops::end_to_end(w, &pass, setup_s, peak_rss_mb, &mut metrics),
    ));
    let (mut attempted, mut failed) = (pass.attempted, pass.failed);

    if opts.trace {
        let obs = statesman_obs::Obs::new();
        let mut tr = trace::Tracer::new();
        let shape = loops::Budget::Shape(pass.episodes.clone());
        let (traced, sys) = loops::run_pass(
            w,
            opts.scale,
            opts.seed,
            shape,
            Some(&obs),
            Some(&mut tr),
            &mut checks,
        )?;
        checks.note(
            "traced_digest_matches",
            checks::digests_equal(&pass.digests(), &traced.digests()),
        );
        let gap = tr.worst_closure_gap_ms();
        checks.note(
            "span_closure",
            if gap < 1e-6 {
                Ok(())
            } else {
                Err(format!("children miss their parent by {gap} ms"))
            },
        );
        if w == Workload::TelemetryChurn {
            let sample = loops::os_sample(&sys, opts.seed, 64);
            checks.note(
                "os_matches_simulator",
                checks::os_matches_simulator(&sample),
            );
        }
        loops::per_layer(&sys, &traced, &tr, &mut metrics);
        metrics::setup_layer(&traced.setups[0], &mut metrics);
        let overhead = stats::median(&traced.rounds.iter().map(|r| r.wall_ms).collect::<Vec<_>>())
            - metrics.get("p50_ms").unwrap_or(0.0);
        metrics.put("trace.overhead_p50_ms", overhead, "ms");
        let traced_setup = traced.setups[0].total_s;
        detail.push((
            "traced".to_string(),
            loops::end_to_end(
                w,
                &traced,
                traced_setup,
                system::peak_rss_mb(),
                &mut Metrics::default(),
            ),
        ));
        detail.push(("spans".to_string(), write_spans(&tr, w, opts.seed)));
        attempted += traced.attempted;
        failed += traced.failed;
    }
    Ok(Outcome {
        metrics,
        detail,
        checks,
        attempted,
        failed,
    })
}
