//! End-to-end tests of the `lsm` binary: strict flag parsing (usage
//! errors exit nonzero) and the `run <scenario>` path.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lsm"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn no_command_is_a_usage_error() {
    let out = lsm(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = lsm(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn panel_without_value_is_a_usage_error() {
    let out = lsm(&["fig3", "--panel"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--panel requires a value"));
}

#[test]
fn unknown_panel_is_a_usage_error() {
    let out = lsm(&["fig3", "--quick", "--panel", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown panel `bogus`"), "stderr: {err}");
    assert!(err.contains("throughput"), "lists the valid panels: {err}");
}

#[test]
fn strategy_without_value_is_a_usage_error() {
    let out = lsm(&["demo", "--strategy"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--strategy requires a value"));
}

#[test]
fn unknown_strategy_is_a_usage_error() {
    let out = lsm(&["demo", "--strategy", "warp-drive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown strategy `warp-drive`"),
        "stderr: {err}"
    );
    assert!(err.contains("our-approach"), "lists valid names: {err}");
}

#[test]
fn stray_arguments_are_usage_errors() {
    let out = lsm(&["strategies", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unrecognized argument"));
}

#[test]
fn strategies_lists_all_five() {
    let out = lsm(&["strategies"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "our-approach",
        "precopy",
        "mirror",
        "postcopy",
        "pvfs-shared",
    ] {
        assert!(text.contains(name), "missing {name}: {text}");
    }
}

#[test]
fn run_missing_file_is_an_error() {
    let out = lsm(&["run", "/nonexistent/scenario.toml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn run_invalid_scenario_is_an_error() {
    let dir = std::env::temp_dir();
    let path = dir.join("lsm-cli-test-bad-scenario.toml");
    // Node 99 does not exist in a 4-node cluster.
    std::fs::write(
        &path,
        "strategy = \"our-approach\"\ngrouped = false\nhorizon_secs = 10.0\nmigrations = []\n\
         [cluster]\nnodes = 4\n\n[[vms]]\nnode = 99\n\
         workload = { Idle = { bursts = 1, burst_secs = 0.1 } }\n",
    )
    .unwrap();
    let out = lsm(&["run", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("node 99 out of range"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn run_demo_scenario_end_to_end() {
    let scenario = repo_root().join("scenarios/demo.toml");
    let out = lsm(&["run", scenario.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("scenario: demo"), "{text}");
    assert!(text.contains("live flows"), "{text}");
    assert!(text.contains("completed"), "{text}");
    assert!(text.contains("consistent Some(true)"), "{text}");
}

#[test]
fn run_json_output_is_parseable_and_complete() {
    let scenario = repo_root().join("scenarios/demo.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v = serde_json::parse(&stdout(&out)).expect("valid JSON report");
    let migrations = match v.get("migrations") {
        Some(serde::Value::Seq(items)) => items,
        other => panic!("migrations missing: {other:?}"),
    };
    assert_eq!(migrations.len(), 2);
    for m in migrations {
        assert_eq!(m.get("completed"), Some(&serde::Value::Bool(true)));
        assert_eq!(
            m.get("status"),
            Some(&serde::Value::Str("Completed".into()))
        );
    }
    // Mixed strategies went through the job layer.
    let strategies: Vec<_> = migrations.iter().map(|m| m.get("strategy")).collect();
    assert!(strategies.contains(&Some(&serde::Value::Str("Hybrid".into()))));
    assert!(strategies.contains(&Some(&serde::Value::Str("Postcopy".into()))));
}

#[test]
fn run_progress_prints_lifecycle() {
    let scenario = repo_root().join("scenarios/demo.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--progress"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "transferring-memory",
        "switching-over",
        "completed",
        "ControlTransferred",
    ] {
        assert!(text.contains(needle), "missing {needle}:\n{text}");
    }
}

// ---------------- orchestrated scenarios ----------------

#[test]
fn run_evacuation_reports_planner_decisions() {
    let scenario = repo_root().join("scenarios/evacuate.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--check"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("request plan (1 intent(s))"), "{text}");
    assert!(text.contains("evacuate"), "{text}");
    assert!(
        text.contains("planner decisions (3 — planner \"adaptive\", cap 2)"),
        "{text}"
    );
    assert!(
        text.contains("[deferred]"),
        "the cap of 2 must defer one: {text}"
    );
    assert!(text.contains("invariants: clean"), "{text}");
}

#[test]
fn run_json_includes_planner_decisions() {
    let scenario = repo_root().join("scenarios/evacuate.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v = serde_json::parse(&stdout(&out)).expect("valid JSON report");
    let decisions = match v.get("planner") {
        Some(serde::Value::Seq(items)) => items,
        other => panic!("planner decisions missing: {other:?}"),
    };
    assert_eq!(decisions.len(), 3);
    for d in decisions {
        // Chosen strategy + destination per request, as promised.
        assert!(matches!(d.get("dest"), Some(serde::Value::U64(_))), "{d:?}");
        assert!(
            matches!(d.get("strategy"), Some(serde::Value::Str(_))),
            "{d:?}"
        );
        assert_eq!(d.get("request"), Some(&serde::Value::U64(0)));
    }
}

#[test]
fn run_progress_distinguishes_planner_queued_jobs() {
    let scenario = repo_root().join("scenarios/adaptive64.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--progress"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("planner-queued (admission cap reached)"),
        "missing planner-queued line:\n{text}"
    );
    assert!(text.contains("transferring-memory"), "{text}");
}

/// A cost-planner run prints the per-scheme candidate sweep under every
/// decision, and `--json` exposes the estimates with the argmin chosen.
#[test]
fn run_cost_scenario_prints_and_serializes_estimates() {
    let out_dir = std::env::temp_dir().join("lsm-cost-cli-test");
    std::fs::create_dir_all(&out_dir).expect("temp dir");
    let path = out_dir.join("cost-mini.toml");
    std::fs::write(
        &path,
        r#"name = "cost-mini"
strategy = "our-approach"
grouped = false
horizon_secs = 300.0

[cluster]
nodes = 4
image_size = 67108864
vm_ram = 268435456

[orchestrator]
planner = "cost"

[[vms]]
node = 0

[vms.workload]

[vms.workload.HotspotWrite]
offset = 0
region_blocks = 64
block = 262144
count = 4000
theta = 0.8
think_secs = 0.01
seed = 7

[[migrations]]
vm = 0
dest = 1
at_secs = 8.0
"#,
    )
    .expect("scenario written");

    let out = lsm(&["run", path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("planner \"cost\""), "{text}");
    assert!(text.contains("estimates:"), "{text}");
    for label in ["precopy", "mirror", "our-approach", "postcopy"] {
        assert!(text.contains(label), "candidate {label} missing: {text}");
    }

    let out = lsm(&["run", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v = serde_json::parse(&stdout(&out)).expect("valid JSON report");
    let decisions = match v.get("planner") {
        Some(serde::Value::Seq(items)) => items,
        other => panic!("planner decisions missing: {other:?}"),
    };
    assert_eq!(decisions.len(), 1);
    let estimates = match decisions[0].get("estimates") {
        Some(serde::Value::Seq(items)) => items,
        other => panic!("estimates missing: {other:?}"),
    };
    assert_eq!(estimates.len(), 4, "full candidate sweep");
    for e in estimates {
        assert!(e.get("score").is_some(), "{e:?}");
        assert!(e.get("est_bytes").is_some(), "{e:?}");
    }
    // The hot overwriter lands on the paper's scheme.
    assert_eq!(
        decisions[0].get("strategy"),
        Some(&serde::Value::Str("Hybrid".into()))
    );
    std::fs::remove_file(&path).ok();
}

// ---------------- `lsm judge` ----------------

/// The planner judge renders both planners' makespan/traffic numbers.
#[test]
fn judge_quick_compares_adaptive_and_cost() {
    let out = lsm(&["judge", "--quick"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("planner judge"), "{text}");
    assert!(text.contains("adaptive"), "{text}");
    assert!(text.contains("cost"), "{text}");
    assert!(text.contains("makespan"), "{text}");
}

#[test]
fn judge_rejects_unknown_flags() {
    let out = lsm(&["judge", "--slow"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unrecognized argument"));
}

// ---------------- fault scenarios ----------------

#[test]
fn run_fault_scenario_surfaces_typed_failure_and_plan() {
    let scenario = repo_root().join("scenarios/fault_dest_crash.toml");
    let out = lsm(&["run", scenario.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fault plan (1 event(s))"), "{text}");
    assert!(text.contains("node-crash"), "{text}");
    assert!(
        text.contains("destination node 1 crashed"),
        "typed failure reason must be printed: {text}"
    );
    assert!(text.contains("failed"), "{text}");
}

#[test]
fn run_with_check_reports_clean_invariants() {
    let scenario = repo_root().join("scenarios/fault_degraded_link.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--check"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("invariants: clean"), "{text}");
    assert!(text.contains("completed"), "{text}");
}

#[test]
fn sharded_run_prints_the_pooled_verdict_only_under_check() {
    let scenario = repo_root().join("scenarios/demo.toml");
    let path = scenario.to_str().unwrap();
    let checked = lsm(&["run", path, "--threads", "2", "--check"]);
    assert!(checked.status.success(), "stderr: {}", stderr(&checked));
    assert!(stderr(&checked).contains("sharded: 2 component(s)"));
    let text = stdout(&checked);
    let verdict = text
        .lines()
        .find(|l| l.starts_with("  invariants: clean ("))
        .unwrap_or_else(|| panic!("no verdict: {text}"));
    assert!(verdict.ends_with(", 2 shard(s))"), "{verdict}");

    let plain = lsm(&["run", path, "--threads", "2"]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));
    assert!(stderr(&plain).contains("sharded: 2 component(s)"));
    let out = format!("{}{}", stdout(&plain), stderr(&plain));
    assert!(!out.contains("invariants"), "{out}");
    assert_eq!(
        stdout(&plain),
        text.replace(&format!("{verdict}\n"), ""),
        "the checker must not change the report"
    );
}

#[test]
fn unshardable_run_falls_back_to_the_monolith_with_a_note() {
    // The fault plan keeps this scenario from sharding.
    let scenario = repo_root().join("scenarios/fault_dest_crash.toml");
    let path = scenario.to_str().unwrap();
    let serial = lsm(&["run", path, "--threads", "1"]);
    assert!(serial.status.success(), "stderr: {}", stderr(&serial));
    assert!(!stderr(&serial).contains("note:"), "{}", stderr(&serial));
    let threaded = lsm(&["run", path, "--threads", "2"]);
    assert!(threaded.status.success(), "stderr: {}", stderr(&threaded));
    let err = stderr(&threaded);
    assert!(
        err.contains("note: not shardable (fault plans are not yet component-attributed"),
        "{err}"
    );
    assert!(err.contains("); running monolithic"), "{err}");
    assert!(!err.contains("sharded:"), "{err}");
    assert_eq!(stdout(&threaded), stdout(&serial));
}

#[test]
fn progress_pins_the_monolith_with_a_note() {
    let scenario = repo_root().join("scenarios/fault_dest_crash.toml");
    let path = scenario.to_str().unwrap();
    let out = lsm(&["run", path, "--progress", "--threads", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("note: --progress is serial; running monolithic (--threads 1)"),
        "{err}"
    );
    assert!(!err.contains("not shardable"), "{err}");
    let text = stdout(&out);
    assert!(text.contains("job 0 (vm 0)"), "progress lines: {text}");
    assert!(text.contains("destination node 1 crashed"), "{text}");
}

#[test]
fn bad_horizon_reads_the_same_at_any_thread_count() {
    // Demo shards into two components at --threads 2 and runs one
    // engine at --threads 1; one horizon check words both.
    let demo = std::fs::read_to_string(repo_root().join("scenarios/demo.toml")).unwrap();
    let bad = demo.replacen("horizon_secs = 300.0", "horizon_secs = -1.0", 1);
    assert_ne!(bad, demo, "demo.toml names its horizon");
    let path = std::env::temp_dir().join("lsm-cli-test-bad-horizon.toml");
    std::fs::write(&path, bad).unwrap();
    let path = path.to_str().unwrap();
    let [serial, threaded] = ["1", "2"].map(|t| lsm(&["run", path, "--threads", t]));
    std::fs::remove_file(path).ok();
    for out in [&serial, &threaded] {
        assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(out));
        assert!(
            stderr(out).starts_with("error: scenario rejected: invalid horizon timestamp: -1\n"),
            "{}",
            stderr(out)
        );
    }
    assert_eq!(stderr(&serial), stderr(&threaded));
}

#[test]
fn run_deadline_scenario_reports_deadline_reason() {
    let scenario = repo_root().join("scenarios/fault_deadline.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DeadlineExceeded"), "{text}");
}

// ---------------- lint ----------------

#[test]
fn lint_shipped_scenario_is_clean_and_exits_zero() {
    let scenario = repo_root().join("scenarios/demo.toml");
    let out = lsm(&["lint", scenario.to_str().unwrap(), "--deny", "warnings"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
    assert!(
        text.contains("L031"),
        "demo is shardable; the explainer should say so: {text}"
    );
}

#[test]
fn lint_bad_scenario_exits_one_with_typed_diagnostics() {
    let dir = std::env::temp_dir();
    let path = dir.join("lsm-cli-test-lint-bad.toml");
    std::fs::write(
        &path,
        "horizon_secs = 10.0\nstrategy = \"mirror\"\ngrouped = false\n\n\
         [[vms]]\nnode = 99\nworkload = { Idle = { bursts = 1, burst_secs = 1.0 } }\n\n\
         [[migrations]]\nvm = 0\ndest = 1\nat_secs = 1.0\n",
    )
    .unwrap();
    let out = lsm(&["lint", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("error[L000]"), "{text}");
    assert!(text.contains("out of 0..8"), "{text}");
}

#[test]
fn lint_warnings_fail_only_under_deny() {
    let dir = std::env::temp_dir();
    let path = dir.join("lsm-cli-test-lint-warn.toml");
    // A dead cancellation (fires before its migration) is warn-level.
    std::fs::write(
        &path,
        "horizon_secs = 60.0\nstrategy = \"hybrid\"\ngrouped = false\n\n\
         [[vms]]\nnode = 0\nworkload = { Idle = { bursts = 1, burst_secs = 1.0 } }\n\n\
         [[migrations]]\nvm = 0\ndest = 1\nat_secs = 5.0\n\n\
         [[cancellations]]\nat_secs = 1.0\njob = 0\n",
    )
    .unwrap();
    let lax = lsm(&["lint", path.to_str().unwrap()]);
    let strict = lsm(&["lint", path.to_str().unwrap(), "--deny", "warnings"]);
    std::fs::remove_file(&path).ok();
    assert!(lax.status.success(), "stderr: {}", stderr(&lax));
    assert!(stdout(&lax).contains("warn[L012]"), "{}", stdout(&lax));
    assert_eq!(strict.status.code(), Some(1), "{}", stdout(&strict));
}

#[test]
fn lint_json_reports_per_file_diagnostics() {
    let scenario = repo_root().join("scenarios/chaos_storm.toml");
    let out = lsm(&["lint", scenario.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"files\""), "{text}");
    assert!(text.contains("\"failed\": false"), "{text}");
    assert!(text.contains("L030"), "{text}");
}

#[test]
fn run_json_carries_the_lint_report() {
    let scenario = repo_root().join("scenarios/demo.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"lint\""), "{text}");
    assert!(text.contains("L031"), "{text}");
}

#[test]
fn run_lint_preflight_prints_findings_but_still_runs() {
    let scenario = repo_root().join("scenarios/fault_deadline.toml");
    let out = lsm(&["run", scenario.to_str().unwrap(), "--lint"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("lint:"), "preflight summary on stderr: {err}");
    let text = stdout(&out);
    assert!(
        text.contains("scenario:"),
        "the run must proceed after the preflight: {text}"
    );
}
