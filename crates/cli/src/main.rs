//! `lsm` — command-line driver for the HPDC'12 reproduction experiments.
//!
//! ```text
//! lsm run <scenario.toml|scenario.json> [--json] [--progress] [--check] [--threads <n>] [--lint]
//! lsm lint <scenario.toml|scenario.json>... [--json] [--deny warnings]
//! lsm judge [--quick] [--csv] [--sweep]
//! lsm fig3 [--quick] [--panel time|traffic|throughput] [--csv]
//! lsm fig4 [--quick] [--panel time|traffic|degradation] [--csv]
//! lsm fig5 [--quick] [--panel time|traffic|slowdown] [--csv]
//! lsm ablate <threshold|priority|window|memstrategy> [--quick] [--csv]
//! lsm strategies
//! lsm demo [--strategy <name>]
//! ```
//!
//! Flag parsing is strict: unknown flags, missing flag values and
//! unknown panel/strategy names are usage errors with a nonzero exit,
//! never silently ignored.

// `forbid` would reject the `allow` on `reset_sigpipe` below — the one
// place the workspace talks to libc directly.
#![deny(unsafe_code)]

use lsm_core::engine::{JobId, MigrationProgress, MigrationStatus, Milestone};
use lsm_core::engine::{Observer, RunControl};
use lsm_core::policy::StrategyKind;
use lsm_core::RunReport;
use lsm_experiments::scenario::{run_scenario_with, ScenarioRun, ScenarioSpec};
use lsm_experiments::{ablations, fig3, fig4, fig5, Scale};
use lsm_netsim::SolverMode;
use lsm_simcore::time::SimTime;
use serde::Serialize;
use std::process::ExitCode;

const USAGE: &str = "usage:
  lsm run <scenario.toml|scenario.json> [--json] [--progress] [--check] [--threads <n>] [--lint]
  lsm lint <scenario.toml|scenario.json>... [--json] [--deny warnings]
  lsm judge [--quick] [--csv] [--sweep]
  lsm fig3 [--quick] [--panel time|traffic|throughput] [--csv]
  lsm fig4 [--quick] [--panel time|traffic|degradation] [--csv]
  lsm fig5 [--quick] [--panel time|traffic|slowdown] [--csv]
  lsm ablate <threshold|priority|window|memstrategy> [--quick] [--csv]
  lsm strategies
  lsm demo [--strategy <name>] [--quiet]";

/// Die quietly (like `cat`) when stdout's reader goes away — Rust
/// ignores SIGPIPE by default, which turns `lsm run ... | head` into a
/// broken-pipe panic mid-report.
#[cfg(unix)]
#[allow(unsafe_code)]
fn reset_sigpipe() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    match real_main(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(UsageError(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct UsageError(String);

impl From<String> for UsageError {
    fn from(s: String) -> Self {
        UsageError(s)
    }
}

/// Strict flag parser: every argument must be consumed by the command.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(args: Vec<String>) -> Self {
        Args { rest: args }
    }

    /// Consume a boolean flag.
    fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consume a `--flag value` pair; error if the value is missing.
    fn value(&mut self, name: &str) -> Result<Option<String>, UsageError> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() || self.rest[i + 1].starts_with("--") {
            return Err(UsageError(format!("flag {name} requires a value")));
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        Ok(Some(v))
    }

    /// Consume the next positional argument.
    fn positional(&mut self, what: &str) -> Result<String, UsageError> {
        let i = self
            .rest
            .iter()
            .position(|a| !a.starts_with("--"))
            .ok_or_else(|| UsageError(format!("missing {what}")))?;
        Ok(self.rest.remove(i))
    }

    /// Error on anything left over.
    fn finish(self) -> Result<(), UsageError> {
        if let Some(a) = self.rest.first() {
            return Err(UsageError(format!("unrecognized argument `{a}`")));
        }
        Ok(())
    }
}

fn parse_panel(args: &mut Args, allowed: &[&str]) -> Result<Option<String>, UsageError> {
    let Some(p) = args.value("--panel")? else {
        return Ok(None);
    };
    if !allowed.contains(&p.as_str()) {
        return Err(UsageError(format!(
            "unknown panel `{p}` (expected one of: {})",
            allowed.join(", ")
        )));
    }
    Ok(Some(p))
}

fn real_main(raw: Vec<String>) -> Result<(), UsageError> {
    let mut args = Args::new(raw);
    let cmd = args.positional("command")?;
    match cmd.as_str() {
        "run" => {
            let path = args.positional("scenario file")?;
            let json = args.flag("--json");
            let progress = args.flag("--progress");
            let check = args.flag("--check");
            let lint = args.flag("--lint");
            let threads = parse_threads(&mut args)?;
            args.finish()?;
            cmd_run(&path, json, progress, check, lint, threads)
        }
        "lint" => {
            let json = args.flag("--json");
            let deny_warnings = match args.value("--deny")? {
                None => false,
                Some(what) if what == "warnings" => true,
                Some(other) => {
                    return Err(UsageError(format!(
                        "--deny understands only `warnings`, got `{other}`"
                    )))
                }
            };
            let mut files = vec![args.positional("scenario file")?];
            while let Some(i) = args.rest.iter().position(|a| !a.starts_with("--")) {
                files.push(args.rest.remove(i));
            }
            args.finish()?;
            cmd_lint(&files, json, deny_warnings)
        }
        "judge" => {
            let quick = args.flag("--quick");
            let csv = args.flag("--csv");
            let sweep = args.flag("--sweep");
            args.finish()?;
            if sweep {
                let grid = lsm_experiments::judge::judge_qos_sweep(scale(quick))
                    .map_err(|e| UsageError(format!("judge scenario rejected: {e}")))?;
                emit(&[lsm_experiments::judge::sweep_table(&grid)], csv);
                return Ok(());
            }
            let outcomes = if quick {
                lsm_experiments::judge::judge_quick()
            } else {
                lsm_experiments::judge::judge_adaptive64()
            }
            .map_err(|e| UsageError(format!("judge scenario rejected: {e}")))?;
            let mut tables = vec![lsm_experiments::judge::table(&outcomes)];
            if !quick {
                // The QoS shaping trade rides along on the full judge:
                // the same fleet unshaped vs under qos64's `[qos]`.
                let trade = lsm_experiments::judge::judge_shaping()
                    .map_err(|e| UsageError(format!("judge scenario rejected: {e}")))?;
                tables.push(lsm_experiments::judge::shaping_table(&trade));
            }
            emit(&tables, csv);
            Ok(())
        }
        "fig3" => {
            let quick = args.flag("--quick");
            let csv = args.flag("--csv");
            let panel = parse_panel(&mut args, &["time", "traffic", "throughput"])?;
            args.finish()?;
            let r = fig3::run_fig3(scale(quick));
            let tables = match panel.as_deref() {
                Some("time") => vec![r.table_time()],
                Some("traffic") => vec![r.table_traffic()],
                Some("throughput") => vec![r.table_throughput()],
                _ => vec![r.table_time(), r.table_traffic(), r.table_throughput()],
            };
            emit(&tables, csv);
            Ok(())
        }
        "fig4" => {
            let quick = args.flag("--quick");
            let csv = args.flag("--csv");
            let panel = parse_panel(&mut args, &["time", "traffic", "degradation"])?;
            args.finish()?;
            let r = fig4::run_fig4(scale(quick));
            let tables = match panel.as_deref() {
                Some("time") => vec![r.table_time()],
                Some("traffic") => vec![r.table_traffic()],
                Some("degradation") => vec![r.table_degradation()],
                _ => vec![r.table_time(), r.table_traffic(), r.table_degradation()],
            };
            emit(&tables, csv);
            Ok(())
        }
        "fig5" => {
            let quick = args.flag("--quick");
            let csv = args.flag("--csv");
            let panel = parse_panel(&mut args, &["time", "traffic", "slowdown"])?;
            args.finish()?;
            let r = fig5::run_fig5(scale(quick));
            let tables = match panel.as_deref() {
                Some("time") => vec![r.table_time()],
                Some("traffic") => vec![r.table_traffic()],
                Some("slowdown") => vec![r.table_slowdown()],
                _ => vec![r.table_time(), r.table_traffic(), r.table_slowdown()],
            };
            emit(&tables, csv);
            Ok(())
        }
        "ablate" => {
            let which = args.positional("ablation name")?;
            let quick = args.flag("--quick");
            let csv = args.flag("--csv");
            args.finish()?;
            let scale = scale(quick);
            let t = match which.as_str() {
                "threshold" => {
                    ablations::threshold_table(&ablations::run_threshold_ablation(scale))
                }
                "priority" => ablations::priority_table(&ablations::run_priority_ablation(scale)),
                "window" => ablations::window_table(&ablations::run_window_ablation(scale)),
                "memstrategy" => {
                    ablations::memstrategy_table(&ablations::run_memstrategy_ablation(scale))
                }
                other => {
                    return Err(UsageError(format!(
                        "unknown ablation `{other}` (expected threshold, priority, window or memstrategy)"
                    )))
                }
            };
            emit(&[t], csv);
            Ok(())
        }
        "strategies" => {
            args.finish()?;
            println!("Storage transfer strategies (paper Table 1):");
            for s in StrategyKind::ALL {
                println!(
                    "  {:<14} ends after control transfer: {:<5}  local storage: {}",
                    s.label(),
                    s.ends_after_control_transfer(),
                    s.uses_local_storage()
                );
            }
            Ok(())
        }
        "demo" => {
            let strategy = match args.value("--strategy")? {
                Some(name) => name
                    .parse::<StrategyKind>()
                    .map_err(|e| UsageError(e.to_string()))?,
                None => StrategyKind::Hybrid,
            };
            let quiet = args.flag("--quiet");
            args.finish()?;
            demo(strategy, quiet);
            Ok(())
        }
        other => Err(UsageError(format!("unknown command `{other}`"))),
    }
}

/// `--threads <n>`: worker-thread count for the sharded parallel
/// engine. Defaults to the machine's available parallelism; `1` forces
/// the monolithic single-threaded engine (the reference behaviour the
/// sharded runs are byte-identical to).
fn parse_threads(args: &mut Args) -> Result<usize, UsageError> {
    match args.value("--threads")? {
        None => Ok(lsm_core::parallel::available_threads()),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(UsageError(format!(
                "--threads wants a positive integer, got `{s}`"
            ))),
        },
    }
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

fn emit(tables: &[lsm_experiments::table::Table], csv: bool) {
    for t in tables {
        if csv {
            print!("{}", t.to_csv());
        } else {
            println!("{}", t.render());
        }
    }
}

// ---------------- `lsm run` ----------------

/// The observer of one engine: `--progress` lines and the `--check`
/// invariant checker, each when asked for. A sharded run has one per
/// shard.
struct Watch {
    progress: bool,
    check: Option<lsm_check::InvariantObserver>,
}

impl Watch {
    fn new(progress: bool, check: bool) -> Self {
        Watch {
            progress,
            check: check.then(lsm_check::InvariantObserver::new),
        }
    }
}

impl Observer for Watch {
    fn on_status(
        &mut self,
        job: JobId,
        status: MigrationStatus,
        now: SimTime,
        progress: &MigrationProgress,
    ) -> RunControl {
        if self.progress {
            println!(
                "[{:>9.3}s] job {} (vm {}): {} — {} rounds, {}/{} chunks pushed/pulled, {} remaining",
                now.as_secs_f64(),
                job.0,
                progress.vm,
                status.label(),
                progress.mem_rounds,
                progress.chunks_pushed,
                progress.chunks_pulled,
                progress.chunks_remaining,
            );
        }
        self.check.on_status(job, status, now, progress)
    }

    fn on_milestone(&mut self, job: JobId, milestone: Milestone, now: SimTime) -> RunControl {
        if self.progress {
            let (at, job) = (now.as_secs_f64(), job.0);
            match milestone {
                // Distinct from engine-queued (start time not reached):
                // this job is ready but held by the admission cap.
                Milestone::PlannerDeferred => {
                    println!("[{at:>9.3}s] job {job}: planner-queued (admission cap reached)")
                }
                // Distinct from planner-queued and engine-queued: this
                // job failed and is waiting out its backoff before a
                // re-try.
                Milestone::RetryBackoff { attempt, max } => {
                    println!("[{at:>9.3}s] job {job}: backing off (retry {attempt}/{max})")
                }
                Milestone::MemRound(_) => {}
                _ => println!("[{at:>9.3}s] job {job}: {milestone:?}"),
            }
        }
        self.check.on_milestone(job, milestone, now)
    }

    fn on_tick(&mut self, eng: &lsm_core::Engine) -> RunControl {
        self.check.on_tick(eng)
    }

    fn on_finish(&mut self, eng: &lsm_core::Engine) {
        self.check.on_finish(eng);
    }
}

/// Print `--check`'s verdict, pooled over the run's checkers (one per
/// shard on a sharded run). A clean line goes to stderr under `--json`,
/// which owns stdout; violations fail the command.
fn print_verdict(
    run: &ScenarioRun<Watch>,
    shards: Option<usize>,
    json: bool,
) -> Result<(), UsageError> {
    let checkers = || run.observers.iter().filter_map(|w| w.check.as_ref());
    let checks: u64 = checkers().map(|c| c.checks_run()).sum();
    let bad: u64 = checkers().map(|c| c.total_violations()).sum();
    if bad > 0 {
        eprintln!("  invariants: {bad} violation(s):");
        for v in checkers().flat_map(|c| c.violations()).take(16) {
            eprintln!("    {v}");
        }
        return Err(UsageError("invariant violations detected".to_string()));
    }
    let shards = shards
        .map(|n| format!(", {n} shard(s)"))
        .unwrap_or_default();
    let line = format!(
        "  invariants: clean ({checks} checks across {} event(s){shards})",
        run.report.events
    );
    if json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
    Ok(())
}

/// Load and parse a scenario file (TOML by default, JSON by extension).
fn load_spec(path: &str) -> Result<ScenarioSpec, UsageError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| UsageError(format!("cannot read {path}: {e}")))?;
    if path.ends_with(".json") {
        ScenarioSpec::from_json(&text)
    } else {
        ScenarioSpec::from_toml(&text)
    }
    .map_err(|e| UsageError(format!("cannot parse {path}: {e}")))
}

/// Serialize a run report, splicing the lint preflight in as a `lint`
/// field when one was computed (`--json` always computes it, so the
/// machine-readable report carries the static verdict alongside the
/// dynamic outcome).
fn report_json(
    report: &RunReport,
    lint_diags: Option<&[lsm_analyze::Diag]>,
) -> Result<String, UsageError> {
    let mut v = report.to_value();
    if let (serde::Value::Map(entries), Some(diags)) = (&mut v, lint_diags) {
        let seq = serde::Value::Seq(diags.iter().map(|d| d.to_value()).collect());
        entries.push(("lint".to_string(), seq));
    }
    serde_json::to_string_pretty(&v)
        .map_err(|e| UsageError(format!("cannot serialize report: {e}")))
}

fn cmd_run(
    path: &str,
    json: bool,
    progress: bool,
    check: bool,
    lint: bool,
    threads: usize,
) -> Result<(), UsageError> {
    let spec = load_spec(path)?;

    // Lint preflight: `--lint` prints it, `--json` embeds it in the
    // report. Findings never stop the run — the point of running a
    // flagged scenario is usually to watch the predicted failure.
    let lint_diags = if lint || json {
        Some(lsm_analyze::lint(&spec))
    } else {
        None
    };
    if lint {
        let diags = lint_diags.as_deref().unwrap_or(&[]);
        eprint!("{}", lsm_analyze::render(diags));
        let errors = diags
            .iter()
            .filter(|d| d.severity == lsm_analyze::Severity::Error)
            .count();
        let warnings = diags
            .iter()
            .filter(|d| d.severity == lsm_analyze::Severity::Warn)
            .count();
        eprintln!("lint: {errors} error(s), {warnings} warning(s)");
    }

    // `--progress` streams per-job status lines in global event order —
    // a serial notion; it pins the monolithic engine.
    let threads = if progress && threads > 1 {
        eprintln!("note: --progress is serial; running monolithic (--threads 1)");
        1
    } else {
        threads
    };

    let run = run_scenario_with(&spec, threads, SolverMode::default(), || {
        Watch::new(progress, check)
    })
    .map_err(|e| UsageError(format!("scenario rejected: {e}")))?;
    if !run.not_sharded.is_empty() {
        eprintln!(
            "note: not shardable ({}); running monolithic",
            lsm_experiments::shard::render_rejections(&run.not_sharded)
        );
    }
    let shards = (threads > 1 && run.not_sharded.is_empty()).then_some(run.observers.len());
    if let Some(n) = shards {
        eprintln!("sharded: {n} component(s) on {} thread(s)", threads.min(n));
    }
    if json {
        println!("{}", report_json(&run.report, lint_diags.as_deref())?);
    } else {
        print_report(&spec, &run.report);
    }
    if check {
        print_verdict(&run, shards, json)?;
    }
    Ok(())
}

// ---------------- `lsm lint` ----------------

/// Statically analyze scenario files without running them. Exit 0 when
/// every file passes (info-level notes always pass), 1 when any file
/// has errors — or warnings under `--deny warnings` — or fails to
/// parse.
fn cmd_lint(files: &[String], json: bool, deny_warnings: bool) -> Result<(), UsageError> {
    let mut failed = false;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json_files: Vec<(String, serde::Value)> = Vec::new();
    for path in files {
        match load_spec(path) {
            Err(UsageError(msg)) => {
                // An unreadable or unparseable file fails the lint the
                // same way a structural error does.
                failed = true;
                errors += 1;
                if json {
                    json_files.push((path.clone(), serde::Value::Str(msg)));
                } else {
                    println!("{path}: error: {msg}");
                }
            }
            Ok(spec) => {
                let diags = lsm_analyze::lint(&spec);
                errors += diags
                    .iter()
                    .filter(|d| d.severity == lsm_analyze::Severity::Error)
                    .count();
                warnings += diags
                    .iter()
                    .filter(|d| d.severity == lsm_analyze::Severity::Warn)
                    .count();
                if lsm_analyze::fails(&diags, deny_warnings) {
                    failed = true;
                }
                if json {
                    let seq = serde::Value::Seq(diags.iter().map(|d| d.to_value()).collect());
                    json_files.push((path.clone(), seq));
                } else if diags.is_empty() {
                    println!("{path}: clean");
                } else {
                    println!("{path}:");
                    for d in &diags {
                        for line in d.to_string().lines() {
                            println!("  {line}");
                        }
                    }
                }
            }
        }
    }
    if json {
        let doc = serde::Value::Map(vec![
            ("files".to_string(), serde::Value::Map(json_files)),
            ("failed".to_string(), serde::Value::Bool(failed)),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc)
                .map_err(|e| UsageError(format!("cannot serialize lint report: {e}")))?
        );
    } else {
        println!(
            "lint: {} file(s), {errors} error(s), {warnings} warning(s)",
            files.len()
        );
    }
    if failed {
        // A lint failure is a verdict, not a usage mistake — exit 1
        // without the usage banner.
        std::process::exit(1);
    }
    Ok(())
}

fn print_report(spec: &ScenarioSpec, r: &RunReport) {
    if let Some(name) = &spec.name {
        println!("scenario: {name}");
    }
    println!(
        "horizon {:.1}s — {} VM(s), {} migration job(s), {} events, peak {} live flows",
        r.horizon.as_secs_f64(),
        r.vms.len(),
        r.migrations.len(),
        r.events,
        r.peak_flows
    );
    let plan = spec.fault_plan();
    if !plan.is_empty() {
        println!("  fault plan ({} event(s)):", plan.len());
        for f in plan {
            println!("    [{:>9.3}s] {}: {:?}", f.at_secs, f.kind.label(), f.kind);
        }
    }
    let requests = spec.request_plan();
    if !requests.is_empty() {
        println!("  request plan ({} intent(s)):", requests.len());
        for r in requests {
            println!(
                "    [{:>9.3}s] {}: {:?}",
                r.at_secs,
                r.intent.label(),
                r.intent
            );
        }
    }
    let cancels = spec.cancellation_plan();
    if !cancels.is_empty() {
        println!("  cancellation plan ({} event(s)):", cancels.len());
        for c in cancels {
            println!("    [{:>9.3}s] cancel migration {}", c.at_secs, c.job);
        }
    }
    if let Some(qos) = &spec.qos {
        let cap = qos
            .bandwidth_cap_mb
            .map(|c| format!("{c:.0} MB/s"))
            .unwrap_or_else(|| "uncapped".to_string());
        let compression = if qos.compressing() {
            format!(
                "mem x{:.2} / storage x{:.2} at {:.0}% CPU",
                qos.compress_mem_ratio,
                qos.compress_storage_ratio,
                qos.compress_cpu_frac * 100.0
            )
        } else {
            "off".to_string()
        };
        println!(
            "  qos: bandwidth cap {cap}, {} stream(s), compression {compression}",
            qos.streams
        );
    }
    if let Some(orch) = &spec.orchestrator {
        let cap = orch
            .max_concurrent
            .map(|c| c.to_string())
            .unwrap_or_else(|| "unlimited".to_string());
        println!(
            "  planner decisions ({} — planner \"{}\", cap {}):",
            r.planner.len(),
            orch.planner.label(),
            cap
        );
        for d in &r.planner {
            println!(
                "    [{:>9.3}s] job {} vm {}: node {} -> {}, {}{}{}",
                d.decided_at.as_secs_f64(),
                d.job,
                d.vm,
                d.source,
                d.dest,
                d.strategy.label(),
                d.request
                    .map(|req| format!(" (request {req})"))
                    .unwrap_or_default(),
                if d.deferred { " [deferred]" } else { "" },
            );
            if !d.estimates.is_empty() {
                // The cost planner's candidate sweep: why this scheme won.
                let sweep = d
                    .estimates
                    .iter()
                    .map(|e| {
                        format!(
                            "{} {:.2}s/{}",
                            e.strategy.label(),
                            e.est_time_secs,
                            lsm_simcore::units::fmt_bytes(e.est_bytes)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                println!("                estimates: {sweep}");
            }
        }
    }
    if !r.rebalance.is_empty() {
        println!("  rebalance actions ({}):", r.rebalance.len());
        for a in &r.rebalance {
            use lsm_core::{DeferralReason, RebalanceTrigger, ReplanReason};
            let trigger = match a.trigger {
                RebalanceTrigger::Overload { node, pressure } => {
                    format!("overload node {node} (pressure {pressure:.3})")
                }
                RebalanceTrigger::Underload { node, pressure } => {
                    format!("underload node {node} (pressure {pressure:.3})")
                }
                RebalanceTrigger::Replan {
                    job,
                    reason: ReplanReason::DestinationCrashed { node },
                } => format!("re-plan job {job} (destination node {node} crashed)"),
                RebalanceTrigger::Replan {
                    job,
                    reason: ReplanReason::DestinationDegraded { node, pressure },
                } => format!(
                    "re-plan job {job} (destination node {node} degraded, pressure {pressure:.3})"
                ),
            };
            let outcome = match (a.chosen, a.dest) {
                (Some(vm), Some(dest)) => format!("move vm {vm} -> node {dest}"),
                (Some(vm), None) => format!("move vm {vm}"),
                _ => "all candidates deferred".to_string(),
            };
            println!("    [{:>9.3}s] {trigger}: {outcome}", a.at.as_secs_f64());
            for d in &a.deferrals {
                let why = match d.reason {
                    DeferralReason::HotPhase { rate } => format!(
                        "hot phase ({}/s re-write)",
                        lsm_simcore::units::fmt_bytes(rate as u64)
                    ),
                    DeferralReason::Cooldown => "cooldown (moved recently)".to_string(),
                    DeferralReason::NoPlacement => "no acceptable destination".to_string(),
                };
                println!("                deferred vm {}: {why}", d.vm);
            }
        }
    }
    // Skips happen under the default orchestrator too (an intent step
    // raced by an explicit job, a parked placement): always show them.
    if !r.planner_skips.is_empty() {
        println!("  planner skips ({}):", r.planner_skips.len());
        for s in &r.planner_skips {
            println!(
                "    [{:>9.3}s] request {} vm {}: {:?}{}",
                s.at.as_secs_f64(),
                s.request,
                s.vm,
                s.reason,
                if s.terminal { "" } else { " [will retry]" },
            );
        }
    }
    if !r.resilience.is_empty() {
        use lsm_core::AttemptReason;
        let attempts: usize = r.resilience.iter().map(|j| j.attempts.len()).sum();
        let resumed: u64 = r
            .resilience
            .iter()
            .flat_map(|j| j.attempts.iter())
            .map(|a| a.resumed_bytes)
            .sum();
        let converge: u32 = r.resilience.iter().map(|j| j.auto_converge_steps).sum();
        let deferrals: u32 = r.resilience.iter().map(|j| j.downtime_deferrals).sum();
        let cancelled = r.resilience.iter().filter(|j| j.cancelled).count();
        println!(
            "  resilience: {attempts} retry attempt(s), {} resumed, {converge} auto-converge \
             step(s), {deferrals} downtime deferral(s), {cancelled} cancellation(s):",
            lsm_simcore::units::fmt_bytes(resumed)
        );
        for j in &r.resilience {
            for (i, a) in j.attempts.iter().enumerate() {
                let why = match a.reason {
                    AttemptReason::DestinationCrashed { node } => {
                        format!("destination node {node} crashed")
                    }
                    AttemptReason::Stalled => "transfer stalled".to_string(),
                    AttemptReason::DeadlineExceeded => "deadline exceeded".to_string(),
                };
                println!(
                    "    [{:>9.3}s] job {} vm {}: retry {} — {why}, backoff {:.1}s, resumed {}",
                    a.at.as_secs_f64(),
                    j.job,
                    j.vm,
                    i + 1,
                    a.backoff_secs,
                    lsm_simcore::units::fmt_bytes(a.resumed_bytes),
                );
            }
            if j.auto_converge_steps > 0 || j.downtime_deferrals > 0 {
                println!(
                    "    job {} vm {}: auto-converged to throttle step {}, {} downtime deferral(s)",
                    j.job, j.vm, j.auto_converge_steps, j.downtime_deferrals
                );
            }
            if j.cancelled {
                println!("    job {} vm {}: cancelled", j.job, j.vm);
            }
        }
    }
    for m in &r.migrations {
        let time = m
            .migration_time
            .map(|d| format!("{:.2}s", d.as_secs_f64()))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  job vm={} [{}] {}: time {}, downtime {:.0}ms, rounds {}, pushed {}, pulled {} (on-demand {}), consistent {:?}{}",
            m.vm,
            m.strategy.label(),
            m.status.label(),
            time,
            m.downtime.as_secs_f64() * 1e3,
            m.mem_rounds,
            m.pushed_chunks,
            m.pulled_chunks,
            m.ondemand_chunks,
            m.consistent,
            m.failure
                .as_ref()
                .map(|f| format!(" — {f}"))
                .unwrap_or_default(),
        );
    }
    for v in &r.vms {
        println!(
            "  vm {} [{}] on node {}: {} written, {} read, finished {}",
            v.vm,
            v.label,
            v.final_host,
            lsm_simcore::units::fmt_bytes(v.bytes_written),
            lsm_simcore::units::fmt_bytes(v.bytes_read),
            v.finished_at
                .map(|t| format!("at {:.1}s", t.as_secs_f64()))
                .unwrap_or_else(|| "no".to_string()),
        );
    }
    println!(
        "  traffic: total {}, migration-attributable {}",
        lsm_simcore::units::fmt_bytes(r.total_traffic),
        lsm_simcore::units::fmt_bytes(r.migration_traffic)
    );
    println!(
        "  sla: {:.2}s violation ({:.2}s downtime + {:.2}s degraded) across {} job(s)",
        r.sla.total_violation_secs,
        r.sla.total_downtime_secs,
        r.sla.total_degraded_secs,
        r.sla.jobs.len()
    );
    // Per-job rows only where there is something to say (fleets are
    // large; all-zero rows are noise).
    for j in r.sla.jobs.iter().filter(|j| j.violation_secs > 1e-3) {
        println!(
            "    job {} vm {}: {:.2}s ({:.0}ms downtime, {:.2}s degraded)",
            j.job,
            j.vm,
            j.violation_secs,
            j.downtime_secs * 1e3,
            j.degraded_secs
        );
    }
}

// ---------------- `lsm demo` ----------------

/// A narrated single-migration run (the quickstart scenario), built on
/// the observer API so progress is visible while it runs.
fn demo(strategy: StrategyKind, quiet: bool) {
    use lsm_workloads::WorkloadSpec;

    println!(
        "live-migrating one AsyncWR VM with `{}`...",
        strategy.label()
    );
    let spec = ScenarioSpec::single_migration(strategy, WorkloadSpec::async_wr_short(), 20.0)
        .with_horizon(400.0)
        .with_name("demo");
    let r = run_scenario_with(&spec, 1, SolverMode::default(), || {
        Watch::new(!quiet, false)
    })
    .expect("demo scenario is valid")
    .report;
    let m = r.the_migration();
    println!("  status              : {}", m.status.label());
    println!(
        "  requested at        : {:.1}s",
        m.requested_at.as_secs_f64()
    );
    if let Some(t) = m.control_at {
        println!("  control transferred : {:.1}s", t.as_secs_f64());
    }
    if let Some(t) = m.completed_at {
        println!("  source relinquished : {:.1}s", t.as_secs_f64());
    }
    println!(
        "  migration time      : {:.1}s",
        m.migration_time
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN)
    );
    println!(
        "  downtime            : {:.0}ms",
        m.downtime.as_secs_f64() * 1e3
    );
    println!("  memory rounds       : {}", m.mem_rounds);
    println!(
        "  chunks pushed/pulled: {}/{}",
        m.pushed_chunks, m.pulled_chunks
    );
    println!("  consistent          : {:?}", m.consistent);
    println!(
        "  total traffic       : {}",
        lsm_simcore::units::fmt_bytes(r.total_traffic)
    );
}
