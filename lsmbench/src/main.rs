//! `lsmbench`: the repository benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and how to read them.
//!
//! ```text
//! lsmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <git revision>]
//! ```
//!
//! `--trace 0` repeats set-up and run of one workload until `--seconds`
//! have passed and prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run. The last stdout line is the JSON
//! result; the line before it is the run's provenance record. Spans are
//! written to `.lsmbench/` in the working directory.
//!
//! Set-up is timed in fresh child processes (`--setup-once`, which sets
//! up once and prints the phase times), the way `lsm run` pays it: in a
//! long-lived process, repeated builds on a recycled heap cost up to
//! three times as much as the first. Peak memory is taken the same way
//! (`--run-once`: set up, run, print the high-water mark). Host times
//! are rescaled to a reference machine speed by [`ruler`].

mod ruler;
mod stats;
mod trace;
mod workload;

use lsm_core::engine::NullObserver;
use ruler::Ruler;
use stats::{fingerprint, mean, median, percentile_u32, report_layers, SimOutcome};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Replay, Spans, TickObserver};
use workload::{Source, Workload};

/// Runs always measured, however long each takes.
const MIN_REPS: u32 = 3;

/// Fresh-process set-ups always measured, and the share of `--seconds`
/// spent on them.
const MIN_SETUPS: usize = 20;
const SETUP_SHARE: f64 = 0.1;

/// What a child process of the benchmark does.
#[derive(Clone, Copy, PartialEq)]
enum Child {
    /// Set up once and print the phase times.
    Setup,
    /// Set up, run once and print the memory high-water mark.
    Run,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    child: Option<Child>,
    /// The input of `seed` a child sets up (see [`Workload::variants`]).
    variant: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rev) =
        (None, None, None, None, "unknown".to_string());
    let (mut child, mut variant) = (None, 0);
    while let Some(flag) = it.next() {
        let once = match flag.as_str() {
            "--setup-once" => Some(Child::Setup),
            "--run-once" => Some(Child::Run),
            _ => None,
        };
        if once.is_some() {
            child = once;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("duration"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            "--rev" => rev = value,
            "--variant" => variant = value.parse().map_err(|_| bad("variant"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let required = |what: &str| format!("{what} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| required("--workload"))?,
        seed: seed.ok_or_else(|| required("--seed"))?,
        seconds: match seconds {
            Some(s) => s,
            None if child.is_some() => 0.0,
            None => return Err(required("--seconds")),
        },
        trace: match trace {
            Some(t) => t,
            None if child.is_some() => false,
            None => return Err(required("--trace")),
        },
        rev,
        child,
        variant,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What every run checks and counts.
#[derive(Default)]
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    fn new() -> Self {
        Verdict {
            correct: true,
            ..Default::default()
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("lsmbench: check failed: {why}");
        self.correct = false;
        self.problems.push(why);
    }

    /// Count one report's migrations and check its disks.
    fn count(&mut self, o: &SimOutcome) {
        self.attempted += o.scheduled as u64;
        self.failed += (o.scheduled - o.completed) as u64;
        if o.inconsistent > 0 {
            self.fail(format!(
                "{} completed migration(s) left a diverged destination disk",
                o.inconsistent
            ));
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lsmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let text = std::fs::read_to_string(w.path()).map_err(|e| format!("{}: {e}", w.path()))?;
    if let Some(child) = args.child {
        let input = (args.seed, args.variant);
        let s = workload::setup(w, &text, input, w.threads, &mut Spans::new(), 0)?;
        match child {
            Child::Setup => println!("{} {} {}", s.parse_s, s.partition_s, s.build_s),
            Child::Run => {
                workload::run(s, w.threads, &mut Spans::new(), 0, |_| NullObserver);
                println!("{}", peak_rss_mib()?);
            }
        }
        return Ok(());
    }
    let mut verdict = Verdict::new();
    if let Source::Readmix { .. } = w.source {
        for variant in 0..w.variants() {
            lint_clean(&w.spec(&text, args.seed, variant)?)?;
        }
    }
    let mut spans = Spans::new();
    let mut record = String::new();
    let metrics = if args.trace {
        traced(&args, &text, &mut spans, &mut verdict, &mut record)?
    } else {
        untraced(&args, &text, &mut spans, &mut verdict, &mut record)?
    };
    write_spans(&args, &spans)?;
    for x in &metrics {
        if !x.value.is_finite() {
            verdict.fail(format!("metric {} is not finite", x.name));
        }
    }
    println!("{}", provenance(&args, &verdict, &record));
    println!("{}", result_line(&verdict, &metrics));
    Ok(())
}

/// The generated spec must lint with no errors and no warnings.
fn lint_clean(spec: &lsm_experiments::scenario::ScenarioSpec) -> Result<(), String> {
    let diags = lsm_analyze::lint(spec);
    if lsm_analyze::fails(&diags, true) {
        return Err(format!(
            "generated scenario is not lint-clean:\n{}",
            lsm_analyze::render(&diags)
        ));
    }
    Ok(())
}

/// `--trace 0`: repeat set-up + run until `--seconds` passed; report the
/// rescaled means of the host times, the memory high-water mark and the
/// simulated outcomes.
fn untraced(
    args: &Args,
    text: &str,
    spans: &mut Spans,
    v: &mut Verdict,
    record: &mut String,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let start = Instant::now();
    let (setups, setup_ruler) = fresh_setups(args, spans)?;
    let setup_s: Vec<f64> = setups.iter().map(|p| p.iter().sum()).collect();
    let peak_rss_mb = peak_rss_child(args)?;
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut runs = Runs::new(args, text, spans, v);
    let timed = runs.repeat(w.threads, MIN_REPS, deadline)?;
    if w.threads > 1 {
        // The sharded runner promises the monolithic engine's report,
        // byte for byte.
        runs.repeat(1, 1, Instant::now())?;
    }
    let rep = runs.count;
    let (fps, outcome) = runs.outcome();
    let _ = write!(
        record,
        ",\"runs\":{rep},\"fingerprints\":[{}],\"tail_percentile\":{},\"tail_samples\":{},\"setup_wall_s\":{},\"setup_kernel_s\":{},\"run_wall_s\":{},\"run_kernel_s\":{}",
        fps.join(","),
        outcome.tail_pct,
        outcome.completed / fps.len(),
        json_list(&setup_s),
        json_list(&setup_ruler.samples),
        json_list(&timed.wall),
        json_list(&timed.ruler.samples)
    );
    let mut out = vec![
        m("run_s", "s", timed.ruler.rescale(mean(&timed.wall))),
        m("setup_s", "s", setup_ruler.rescale(mean(&setup_s))),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    out.extend(
        outcome
            .metrics()
            .into_iter()
            .map(|(name, unit, value)| m(name, unit, value)),
    );
    Ok(out)
}

/// `--trace 1`: timed set-ups and untraced runs, then one traced run
/// whose flow log is replayed on a fresh network; reports every
/// per-layer metric.
fn traced(
    args: &Args,
    text: &str,
    spans: &mut Spans,
    v: &mut Verdict,
    record: &mut String,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let (setups, setup_ruler) = fresh_setups(args, spans)?;
    let phase =
        |i: usize| setup_ruler.rescale(mean(&setups.iter().map(|p| p[i]).collect::<Vec<_>>()));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let mut runs = Runs::new(args, text, spans, v);
    let timed = runs.repeat(w.threads, MIN_REPS, deadline)?;
    let untraced_run_s = median(&timed.wall);

    let mut ruler = Ruler::new(w.threads);
    let s = workload::setup(w, text, (args.seed, 0), w.threads, runs.spans, runs.count)?;
    let components = s.runnable.components();
    let topologies = s.runnable.topologies();
    let ran = workload::run(s, w.threads, runs.spans, runs.count, TickObserver::new);
    ruler.tick();
    let traced_scaled = ruler.rescale(ran.run_s);
    runs.check(&ran.report, 0, "traced run");

    let speedup = if w.threads > 1 {
        let mono = runs.repeat(1, MIN_REPS, Instant::now())?;
        median(&mono.wall) / untraced_run_s
    } else {
        1.0
    };
    let rep = runs.count;

    let mut replay = Replay::default();
    let mut gaps: Vec<u32> = Vec::new();
    let (mut events, mut net_events, mut loop_ns, mut net_loop_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut live_sum, mut peak_live, mut unseen) = (0u64, 0usize, 0u64);
    let s = spans.open("replay", rep, None);
    for (topo, obs) in topologies.into_iter().zip(&ran.observers) {
        replay.run(topo, &obs.log);
        gaps.extend_from_slice(&obs.gaps_ns);
        events += obs.events;
        net_events += obs.net_events;
        loop_ns += obs.loop_ns;
        net_loop_ns += obs.net_loop_ns;
        live_sum += obs.live_sum;
        peak_live = peak_live.max(obs.peak_live);
        unseen += obs.unseen_flows();
    }
    spans.close(s);
    if replay.mismatches > 0 {
        v.fail(format!(
            "flow replay missed {} completion(s)",
            replay.mismatches
        ));
    }
    let report_events = ran.report.events;
    if events != report_events {
        v.fail(format!(
            "observer saw {events} events, the report counts {report_events}"
        ));
    }
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // The sharded runner finishes and merges in one call: time it from
    // the last event any shard saw.
    let finish = match ran.observers.iter().filter_map(|o| o.last_tick()).max() {
        Some(last) if w.threads > 1 => ran.done.duration_since(last).as_secs_f64(),
        _ => median(&timed.finish),
    };
    let mut out = vec![
        m("scenario.parse_s", "s", phase(0)),
        m("shard.partition_s", "s", phase(1)),
        m("scenario.build_s", "s", phase(2)),
        m("shard.components", "count", components as f64),
        m("parallel.speedup", "ratio", speedup),
        m("engine.events", "count", report_events as f64),
        m(
            "engine.ns_per_event",
            "ns",
            frac(untraced_run_s * 1e9, report_events as f64),
        ),
        m("engine.event_ns_p50", "ns", percentile_u32(&mut gaps, 50.0)),
        m("engine.event_ns_p99", "ns", percentile_u32(&mut gaps, 99.0)),
        m("engine.finish_s", "s", finish),
        m(
            "engine.net_event_frac",
            "ratio",
            frac(net_events as f64, events as f64),
        ),
        m(
            "engine.net_event_time_frac",
            "ratio",
            frac(net_loop_ns as f64, loop_ns as f64),
        ),
    ];
    if replay.mismatches == 0 {
        let netsim_s = replay.self_ns as f64 / 1e9;
        out.extend([
            m("netsim.flow_starts", "count", replay.starts as f64),
            m("netsim.flow_ends", "count", replay.completions as f64),
            m("netsim.unseen_flows", "count", unseen as f64),
            m(
                "netsim.start_flow_ns_p50",
                "ns",
                percentile_u32(&mut replay.start_ns, 50.0),
            ),
            m(
                "netsim.start_flow_ns_p99",
                "ns",
                percentile_u32(&mut replay.start_ns, 99.0),
            ),
            m(
                "netsim.complete_ns_p50",
                "ns",
                percentile_u32(&mut replay.complete_ns, 50.0),
            ),
            m(
                "netsim.complete_ns_p99",
                "ns",
                percentile_u32(&mut replay.complete_ns, 99.0),
            ),
            m(
                "netsim.next_completion_ns_p50",
                "ns",
                percentile_u32(&mut replay.next_completion_ns, 50.0),
            ),
            m(
                "netsim.next_completion_ns_p99",
                "ns",
                percentile_u32(&mut replay.next_completion_ns, 99.0),
            ),
            m(
                "netsim.live_flows_mean",
                "count",
                frac(live_sum as f64, events as f64),
            ),
            m("netsim.peak_flows", "count", peak_live as f64),
            m("netsim.self_s", "s", netsim_s),
            m("netsim.run_share", "ratio", frac(netsim_s, untraced_run_s)),
        ]);
    }
    out.extend(
        report_layers(&ran.report)
            .into_iter()
            .map(|(name, unit, value)| m(name, unit, value)),
    );
    // Both sides rescaled, so that a drift in host speed between the
    // untraced runs and the traced one does not count as overhead.
    let untraced_scaled = timed.ruler.rescale(mean(&timed.wall));
    out.push(m(
        "trace.overhead_frac",
        "ratio",
        frac(traced_scaled - untraced_scaled, untraced_scaled),
    ));
    let _ = write!(
        record,
        ",\"repetitions\":{rep},\"replay_mismatches\":{},\"untraced_run_wall_s\":{},\"traced_run_wall_s\":{},\"self_s\":{{{}}}",
        replay.mismatches,
        json_list(&timed.wall),
        ran.run_s,
        spans
            .self_times()
            .iter()
            .map(|(n, s)| format!("\"{n}\":{s}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    Ok(out)
}

/// Set-up + untraced run of the workload, repeated; every report is
/// checked against the first report of the same input.
struct Runs<'a> {
    args: &'a Args,
    text: &'a str,
    spans: &'a mut Spans,
    verdict: &'a mut Verdict,
    /// The first report's fingerprint and outcome, per input variant.
    references: Vec<Option<(u64, SimOutcome)>>,
    /// Runs so far; each run's spans carry its number.
    count: u32,
}

/// Host times of repeated runs, seconds.
struct Timed {
    /// Each run's wall time.
    wall: Vec<f64>,
    /// Each monolithic run's `finish_run`.
    finish: Vec<f64>,
    /// The kernel, timed before the first run and after every run.
    ruler: Ruler,
}

impl<'a> Runs<'a> {
    fn new(args: &'a Args, text: &'a str, spans: &'a mut Spans, verdict: &'a mut Verdict) -> Self {
        Runs {
            args,
            text,
            spans,
            verdict,
            references: vec![None; args.workload.variants()],
            count: 0,
        }
    }

    /// Count `report` of input `variant` and hold it against the first
    /// report checked of that input: same fingerprint, same outcomes.
    fn check(&mut self, report: &lsm_core::RunReport, variant: usize, what: &str) {
        let fp = fingerprint(report);
        let o = SimOutcome::of(report);
        self.verdict.count(&o);
        match &self.references[variant] {
            Some((want, outcome)) if fp != *want || o != *outcome => self.verdict.fail(format!(
                "{what}: report fingerprint {fp:016x} differs from {want:016x}"
            )),
            Some(_) => {}
            None => self.references[variant] = Some((fp, o)),
        }
        self.count += 1;
    }

    /// Every input's fingerprint (hex) and the outcome over all inputs.
    fn outcome(&self) -> (Vec<String>, SimOutcome) {
        let refs: Vec<&(u64, SimOutcome)> = self
            .references
            .iter()
            .map(|r| r.as_ref().expect("every input ran"))
            .collect();
        let fps = refs
            .iter()
            .map(|(fp, _)| format!("\"{fp:016x}\""))
            .collect();
        let all: Vec<SimOutcome> = refs.iter().map(|(_, o)| o.clone()).collect();
        (fps, SimOutcome::median_of(&all))
    }

    /// Run on `threads` threads, cycling through the inputs, at least
    /// `min` times, every input at least once, and until `until`.
    fn repeat(&mut self, threads: usize, min: u32, until: Instant) -> Result<Timed, String> {
        let w = self.args.workload;
        let min = (min as usize).max(w.variants());
        let mut ruler = Ruler::new(threads);
        let (mut wall, mut finish) = (Vec::new(), Vec::new());
        while wall.len() < min || Instant::now() < until {
            let variant = wall.len() % w.variants();
            let input = (self.args.seed, variant);
            let s = workload::setup(w, self.text, input, threads, self.spans, self.count)?;
            let ran = workload::run(s, threads, self.spans, self.count, |_| NullObserver);
            ruler.tick();
            wall.push(ran.run_s);
            finish.extend(ran.finish_s);
            let what = format!("run {} ({threads} thread(s))", self.count);
            self.check(&ran.report, variant, &what);
        }
        Ok(Timed {
            wall,
            finish,
            ruler,
        })
    }
}

/// Run a child process of the benchmark (`--setup-once` or
/// `--run-once`) on input `variant`; returns the numbers it prints.
fn child(args: &Args, mode: &str, variant: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(&exe)
        .args(["--workload", args.workload.name, mode])
        .args(["--seed", &args.seed.to_string()])
        .args(["--variant", &variant.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect())
}

/// Set-up phase times `[parse, partition, build]`, each from a fresh
/// child process, for at least [`MIN_SETUPS`] samples and
/// [`SETUP_SHARE`] of `--seconds`; and the one-thread [`Ruler`] ticked
/// after each.
fn fresh_setups(args: &Args, spans: &mut Spans) -> Result<(Vec<[f64; 3]>, Ruler), String> {
    let budget = Duration::from_secs_f64(args.seconds * SETUP_SHARE);
    let start = Instant::now();
    let mut ruler = Ruler::new(1);
    let mut out = Vec::new();
    while out.len() < MIN_SETUPS || start.elapsed() < budget {
        let span = spans.open("setup_process", out.len() as u32, None);
        let times = child(args, "--setup-once", out.len() % args.workload.variants())?;
        spans.close(span);
        ruler.tick();
        match times.as_slice() {
            &[parse, partition, build] => out.push([parse, partition, build]),
            _ => return Err(format!("set-up child printed {times:?}")),
        }
    }
    Ok((out, ruler))
}

/// Memory high-water mark, MiB, of a fresh process that sets up and
/// runs the workload once.
fn peak_rss_child(args: &Args) -> Result<f64, String> {
    match child(args, "--run-once", 0)?[..] {
        [mib] => Ok(mib),
        _ => Err("run child printed no high-water mark".to_string()),
    }
}

/// This process's resident-set high-water mark, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Logical processors of the host (not just those this process may use).
fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn provenance(args: &Args, v: &Verdict, extra: &str) -> String {
    let w = args.workload;
    let seed_sensitive = matches!(w.source, Source::Readmix { .. });
    format!(
        "{{\"record\":\"lsmbench\",\"workload\":\"{}\",\"seed\":{},\"seed_changes_inputs\":{seed_sensitive},\"trace\":{},\"git_rev\":\"{}\",\"engine_threads\":{},\"available_parallelism\":{},\"host_cores\":{},\"build_profile\":\"{}\",\"problems\":[{}]{extra}}}",
        w.name,
        args.seed,
        args.trace,
        json_escape(&args.rev),
        w.threads,
        lsm_core::parallel::available_threads(),
        host_cores(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        v.problems
            .iter()
            .map(|p| format!("\"{}\"", json_escape(p)))
            .collect::<Vec<_>>()
            .join(","),
    )
}

fn result_line(v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name,
                if x.value.is_finite() { x.value } else { 0.0 },
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        v.correct,
        v.attempted.max(1),
        v.failed,
        body.join(",")
    )
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

/// Write the recorded spans to `.lsmbench/` under the working directory.
fn write_spans(args: &Args, spans: &Spans) -> Result<(), String> {
    let dir = std::path::Path::new(".lsmbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}-trace{}.json",
        args.workload.name, args.seed, args.trace as u8
    ));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}
