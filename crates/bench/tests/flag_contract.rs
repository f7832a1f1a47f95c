//! The bench binaries share `oracle-cli`'s flag contract: malformed flag
//! lines fail with `error[config]` and exit 3, never a panic; `regen_all`
//! writes each experiment's registry text.

use std::process::{Command, Output};

use oracle::experiments::{find, Fidelity};

fn bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("spawn bench binary")
}

#[test]
fn malformed_flag_lines_are_config_errors_naming_the_flag() {
    let scale = env!("CARGO_BIN_EXE_scale");
    let regen = env!("CARGO_BIN_EXE_regen_all");
    let throughput = env!("CARGO_BIN_EXE_throughput");
    for (exe, args, flag) in [
        (scale, &["--bogus"][..], "--bogus"),
        (scale, &["--cell"], "--cell"),
        (scale, &["--cell", "nonsense:9"], "--cell"),
        (regen, &["--bogus"], "--bogus"),
        (regen, &["--seed", "x"], "--seed"),
        (regen, &["--quick", "--quick"], "--quick"),
        (throughput, &["--bogus"], "--bogus"),
        (throughput, &["--reps"], "--reps"),
    ] {
        let out = bin(exe, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{exe} {args:?}: {err}");
        assert!(err.starts_with("error[config]: "), "{exe} {args:?}: {err}");
        assert!(err.contains(flag), "{exe} {args:?}: {err}");
    }
    assert_eq!(bin(regen, &["a", "b"]).status.code(), Some(3));
    let help = bin(regen, &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("--only PREFIX"));
}

#[test]
fn regen_all_writes_the_registry_text() {
    let dir = std::env::temp_dir().join(format!("oracle_regen_{}", std::process::id()));
    let out = bin(
        env!("CARGO_BIN_EXE_regen_all"),
        &[
            "--quick",
            "--only",
            "table3",
            dir.to_str().expect("UTF-8 path"),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table3 = find("table3").expect("table3 is registered");
    let written = std::fs::read_to_string(dir.join(table3.file)).expect("file written");
    assert_eq!(written, (table3.run)(Fidelity::Quick, 1).text);
    // `--only` leaves the index alone.
    assert!(!dir.join("README.md").exists());
    std::fs::remove_dir_all(&dir).ok();
}
