//! Regenerate every paper table and figure into a results directory.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin regen_all -- [--quick] [--seed N] [--only PREFIX] [DIR]
//! ```
//!
//! Writes `DIR/<file>` (default `results/`) for every entry of
//! [`oracle::experiments::REGISTRY`] — the text `oracle-cli experiment
//! NAME` prints — plus an index, so `results/` can be rebuilt from scratch
//! with a single command. `--only PREFIX` regenerates just the files whose
//! name starts with PREFIX (e.g. `--only degradation`) and leaves the index
//! untouched. Exits 2, without writing its file, when a checked experiment
//! fails its own physics checks; 3 on bad flags or an unwritable directory.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use oracle::experiments::{Fidelity, REGISTRY};
use oracle::flags::{config_error, Arity, Command, Flag, Positional};

static FLAGS: Command = Command {
    name: "regen_all",
    about: "regenerate every results/ file and its index into DIR (default results)",
    positional: Some(Positional::new(
        "DIR",
        Arity::Optional,
        "an output directory",
    )),
    flags: &[
        Flag::switch("--quick", "run the miniature of every experiment"),
        Flag::value("--seed", "N", "seed for every run (default 1)"),
        Flag::value("--only", "PREFIX", "only the files starting with PREFIX"),
    ],
};

fn main() -> ExitCode {
    let args = FLAGS.parse_or_exit(std::env::args().skip(1));
    let fidelity = if args.has("--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    };
    let seed: u64 = args.parse("--seed", 1).unwrap_or_else(|e| config_error(&e));
    let only = args.value("--only");
    let dir = Path::new(args.positionals().first().map_or("results", String::as_str));
    let write = |name: &str, content: &str| {
        let path = dir.join(name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, content))
            .map(|()| eprintln!("wrote {}", path.display()))
            .map_err(|e| {
                eprintln!("error[io]: {}: {e}", path.display());
                ExitCode::from(3)
            })
    };

    let mut index = String::from("# results/ — regenerated harness outputs\n\n");
    for experiment in REGISTRY {
        let _ = writeln!(index, "- `{}`", experiment.file);
        if only.is_some_and(|prefix| !experiment.file.starts_with(prefix)) {
            continue;
        }
        let out = (experiment.run)(fidelity, seed);
        if let Some(violations) = out.violations {
            let name = experiment.name;
            eprintln!("error[{name}]: {name} physics check failed:\n{violations}");
            return ExitCode::from(2);
        }
        if let Err(code) = write(experiment.file, &out.text) {
            return code;
        }
    }
    if only.is_none() {
        if let Err(code) = write("README.md", &index) {
            return code;
        }
    }
    eprintln!("done: {}", dir.display());
    ExitCode::SUCCESS
}
