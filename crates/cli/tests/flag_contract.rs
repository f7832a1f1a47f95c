//! The command-line contract of `oracle-cli`, end to end through the
//! built binary: malformed flag lines fail with `error[config]` and exit
//! 3, never a panic; every registered experiment prints exactly the text
//! `regen_all` writes for it; the registry and `results/` agree.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use oracle::experiments::{Fidelity, REGISTRY};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oracle-cli"))
        .args(args)
        .output()
        .expect("spawn oracle-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn malformed_flag_lines_are_config_errors_naming_the_flag() {
    for (args, flag) in [
        (&["run", "--sead", "9", "--shardz", "4"][..], "--sead"),
        (&["run", "--seed", "3", "--seed", "4"], "--seed"),
        (&["compare", "--strategy", "gm:1x2x3"], "--strategy"),
        (&["experiment", "table3", "--json"], "--json"),
        (&["experiment", "table3", "--check"], "--check"),
        (&["topo-info", "grid:4", "--seed", "3"], "--seed"),
        (&["run", "--trace-out", "--csv"], "--trace-out"),
        (
            &["batch", "suites/example.txt", "--shards", "2"],
            "--shards",
        ),
        (&["run", "--state-mode", "dense"], "--state-mode"),
        (&["list", "--csv"], "--csv"),
    ] {
        let out = cli(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {err}");
        assert!(err.starts_with("error[config]: "), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn registry_files_match_results_one_to_one() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(results)
        .expect("results/ exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("UTF-8")
        })
        .filter(|name| name.ends_with(".txt"))
        .collect();
    let registered: BTreeSet<String> = REGISTRY.iter().map(|e| e.file.to_string()).collect();
    assert_eq!(committed, registered);
    let names: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(
        (registered.len(), names.len()),
        (REGISTRY.len(), REGISTRY.len())
    );
}

#[test]
fn every_experiment_prints_its_registry_text() {
    for e in REGISTRY {
        let want = (e.run)(Fidelity::Quick, 1);
        assert_eq!(want.json.is_some(), e.json, "{}", e.name);
        assert!(
            want.violations.is_none(),
            "{}: {:?}",
            e.name,
            want.violations
        );
        let out = cli(&["experiment", e.name, "--quick"]);
        assert_eq!(out.status.code(), Some(0), "{}: {}", e.name, stderr(&out));
        assert_eq!(stdout(&out), want.text, "{}", e.name);
        if let Some(json) = &want.json {
            assert!(want.text.contains(json.as_str()), "{}", e.name);
            let out = cli(&["experiment", e.name, "--quick", "--json"]);
            assert_eq!(stdout(&out), format!("{json}\n"), "{}", e.name);
        }
    }
}

#[test]
fn degradation_check_exits_2_on_a_violation() {
    // Seed 21 at quick fidelity has a goodput rise between fault levels.
    let args = ["experiment", "degradation", "--quick", "--seed", "21"];
    let out = cli(&[&args[..], &["--check"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).starts_with("error[degradation]: "),
        "{}",
        stderr(&out)
    );
    // Unchecked, the report prints and says the checks failed.
    let out = cli(&args);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("PHYSICS CHECKS FAILED"));
}

/// Write a one-off suite file and run `oracle-cli batch` on it.
fn batch(name: &str, suite: &str) -> Output {
    let path = std::env::temp_dir().join(format!("oracle_cli_{name}_{}.txt", std::process::id()));
    std::fs::write(&path, suite).expect("write suite");
    let out = cli(&["batch", path.to_str().expect("UTF-8 path")]);
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn suite_lines_share_the_run_grammar() {
    // A repeated key fails like a repeated `run` flag.
    let out = batch("repeated", "grid:4 cwn:4x1 fib:8 seed=1 seed=2\n");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.starts_with("error[config]: line 1: "), "{err}");
    assert!(err.contains("--seed given twice"), "{err}");

    // An unknown key lists every accepted form, rendered from the table.
    let out = batch(
        "unknown",
        "grid:4 cwn:4x1 fib:8\ngrid:4 cwn:4x1 fib:8 sneed=2\n",
    );
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.starts_with("error[config]: line 2: "), "{err}");
    for form in [
        "seed=N",
        "faults=PLAN",
        "arrivals=SPEC",
        "breaker=COOLDOWN",
        "load-period=T",
        "no-coprocessor",
        "audit-every=N",
    ] {
        assert!(err.contains(form), "{form}: {err}");
    }

    // The `open:` workload spelling `run --workload` accepts.
    let out = batch(
        "open",
        "grid:6 cwn:5x1 open:poisson:6/fib:10 seed=5 duration=5000\n",
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("grid:6 cwn:5x1 open:poisson:6/fib:10 "));
}
