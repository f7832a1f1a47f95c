//! One declarative flag table per command, shared by `oracle-cli` and the
//! bench binaries.
//!
//! A [`Command`] lists its positional argument and its [`Flag`]s — name,
//! whether it takes a value, one help line. The same table drives parsing
//! ([`Command::parse`]), the help ([`Command::help`]) and every error.
//! Parsing is one left-to-right pass that rejects unknown, repeated,
//! value-less, other-command and removed flags and stray positionals; every
//! rejection is a configuration error, which binaries report as
//! `error[config]: …` with exit code 3 ([`config_error`]).

use std::fmt::Write as _;
use std::str::FromStr;

/// What giving a flag means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A boolean switch.
    Switch,
    /// Consumes the next token; the string names the value in help (`N`).
    Value(&'static str),
    /// The flag was removed: giving it fails with its help line.
    Removed,
}

/// One row of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--seed`.
    pub name: &'static str,
    /// Switch, value flag, or removed flag.
    pub kind: Kind,
    /// The help line (for a removed flag, the error message).
    pub help: &'static str,
}

impl Flag {
    /// A boolean switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            kind: Kind::Switch,
            help,
        }
    }

    /// A flag taking one value, shown in help as `name METAVAR`.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            kind: Kind::Value(metavar),
            help,
        }
    }

    /// A flag that no longer exists: giving it fails with `message`, so an
    /// old command line never looks like it still selects something.
    pub const fn removed(name: &'static str, message: &'static str) -> Flag {
        Flag {
            name,
            kind: Kind::Removed,
            help: message,
        }
    }
}

/// How many tokens a command's positional argument takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly one.
    One,
    /// Zero or one.
    Optional,
    /// One or more.
    Many,
}

/// A command's positional argument.
#[derive(Debug, Clone, Copy)]
pub struct Positional {
    /// Placeholder shown in help, e.g. `FILE`.
    pub name: &'static str,
    /// How many tokens it takes.
    pub arity: Arity,
    /// What it is, phrased to follow "COMMAND needs": `a suite file`.
    pub help: &'static str,
}

impl Positional {
    /// A positional argument; `help` follows "COMMAND needs".
    pub const fn new(name: &'static str, arity: Arity, help: &'static str) -> Positional {
        Positional { name, arity, help }
    }
}

/// A command's full argument table.
#[derive(Debug)]
pub struct Command {
    /// The command name (a subcommand, or the binary's own name).
    pub name: &'static str,
    /// What the command does; help output wraps it.
    pub about: &'static str,
    /// The positional argument, if the command takes one.
    pub positional: Option<Positional>,
    /// Every flag the command accepts. `--help`/`-h` are implicit.
    pub flags: &'static [Flag],
}

/// Print `error[config]: message` and exit 3 — the contract every binary
/// of the workspace shares for bad input.
pub fn config_error(message: &str) -> ! {
    eprintln!("error[config]: {message}");
    std::process::exit(3);
}

/// Column where flag help starts, and the width help is wrapped to.
const FLAG_COLUMN: usize = 22;
const HELP_WIDTH: usize = 80;

impl Command {
    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Parse `args` (the tokens after the command name) against this
    /// table in one left-to-right pass. `siblings` are the other commands
    /// of the same program: a flag that belongs to one of them is named as
    /// such. A value flag followed by nothing, or by another `--flag`,
    /// has no value.
    pub fn parse(
        &'static self,
        args: impl IntoIterator<Item = String>,
        siblings: &[&Command],
    ) -> Result<Args, String> {
        let mut parsed = Args {
            command: self,
            positionals: Vec::new(),
            flags: Vec::new(),
            help: false,
        };
        let mut tokens = args.into_iter();
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                parsed.help = true;
            } else if token.len() > 1 && token.starts_with('-') {
                let flag = self
                    .flag(&token)
                    .ok_or_else(|| self.unknown(&token, siblings))?;
                if parsed.flags.iter().any(|(name, _)| *name == flag.name) {
                    return Err(format!("{} given twice", flag.name));
                }
                let value = match flag.kind {
                    Kind::Removed => return Err(flag.help.to_string()),
                    Kind::Switch => None,
                    Kind::Value(_) => match tokens.next() {
                        Some(v) if !v.starts_with("--") => Some(v),
                        _ => return Err(format!("{} needs a value", flag.name)),
                    },
                };
                parsed.flags.push((flag.name, value));
            } else {
                let room = match self.positional.map(|p| p.arity) {
                    None => 0,
                    Some(Arity::Many) => usize::MAX,
                    Some(_) => 1,
                };
                if parsed.positionals.len() == room {
                    return Err(format!("unexpected argument {token:?} for {}", self.name));
                }
                parsed.positionals.push(token);
            }
        }
        if let Some(p) = self.positional {
            if p.arity != Arity::Optional && parsed.positionals.is_empty() && !parsed.help {
                return Err(format!("{} needs {}", self.name, p.help));
            }
        }
        Ok(parsed)
    }

    /// Parse a single-command binary's arguments: print the help and exit
    /// 0 on `--help`; report any error with [`config_error`].
    pub fn parse_or_exit(&'static self, args: impl IntoIterator<Item = String>) -> Args {
        match self.parse(args, &[]) {
            Ok(parsed) if parsed.help => {
                print!("{}", self.help(""));
                std::process::exit(0);
            }
            Ok(parsed) => parsed,
            Err(message) => config_error(&message),
        }
    }

    fn unknown(&self, token: &str, siblings: &[&Command]) -> String {
        let owners: Vec<&str> = siblings
            .iter()
            .filter(|c| c.flag(token).is_some())
            .map(|c| c.name)
            .collect();
        if owners.is_empty() {
            format!("unknown flag {token} for {} (see --help)", self.name)
        } else {
            let owners = owners.join(", ");
            format!(
                "{token} is not a flag of {}; it belongs to {owners}",
                self.name
            )
        }
    }

    /// One-line synopsis: `batch FILE [FLAGS]`.
    fn synopsis(&self) -> String {
        let mut s = self.name.to_string();
        if let Some(p) = self.positional {
            s += &match p.arity {
                Arity::One => format!(" {}", p.name),
                Arity::Optional => format!(" [{}]", p.name),
                Arity::Many => format!(" {0} [{0} ...]", p.name),
            };
        }
        if !self.flags.is_empty() {
            s += " [FLAGS]";
        }
        s
    }

    /// The synopsis and the wrapped description, indented for a
    /// program's command list.
    pub fn overview(&self) -> String {
        let mut out = format!("  {}\n", self.synopsis());
        for line in wrap(self.about, HELP_WIDTH - 6) {
            let _ = writeln!(out, "      {line}");
        }
        out
    }

    /// The help text, rendered from the table. `program` prefixes the
    /// usage line (`"oracle-cli"`), or is empty for a binary's own table.
    pub fn help(&self, program: &str) -> String {
        let usage = format!("{program} {}", self.synopsis());
        let mut out = format!("usage: {}\n", usage.trim_start());
        for line in wrap(self.about, HELP_WIDTH - 2) {
            let _ = writeln!(out, "  {line}");
        }
        if !self.flags.is_empty() {
            out += "\nflags:\n";
        }
        for flag in self.flags {
            let mut left = match flag.kind {
                Kind::Value(metavar) => format!("  {} {metavar}", flag.name),
                Kind::Switch | Kind::Removed => format!("  {}", flag.name),
            };
            if left.len() >= FLAG_COLUMN {
                let _ = writeln!(out, "{left}");
                left.clear();
            }
            for line in wrap(flag.help, HELP_WIDTH - FLAG_COLUMN) {
                let _ = writeln!(out, "{left:FLAG_COLUMN$}{line}");
                left.clear();
            }
        }
        out
    }
}

/// Greedy word wrap.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in text.split_whitespace() {
        match lines.last_mut() {
            Some(line) if line.len() + 1 + word.len() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

/// The result of [`Command::parse`].
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
    /// `--help` or `-h` was given: the caller prints [`Command::help`].
    pub help: bool,
}

impl Args {
    /// The positional tokens, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    fn entry(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.command.flag(name).is_some(),
            "{name} is not in the flag table of {}",
            self.command.name
        );
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// The value of the value flag `name`, `None` when absent.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.entry(name).and_then(|v| v.as_deref())
    }

    /// The value of `name` parsed as `T`, `None` when absent.
    pub fn parse_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("{name} {v:?}: {e}")))
            .transpose()
    }

    /// The value of `name` parsed as `T`, or `default` when absent.
    pub fn parse<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.parse_opt(name)?.unwrap_or(default))
    }

    /// The shared `--threads N` flag: `None` when absent; 0 is rejected
    /// with [`crate::runner::THREADS_GRAMMAR`].
    pub fn threads(&self) -> Result<Option<usize>, String> {
        match self.parse_opt("--threads")? {
            Some(0) => Err(format!(
                "--threads must be at least 1 ({})",
                crate::runner::THREADS_GRAMMAR
            )),
            threads => Ok(threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static RUN: Command = Command {
        name: "run",
        about: "run one simulation",
        positional: None,
        flags: &[
            Flag::value("--seed", "N", "RNG seed"),
            Flag::switch("--csv", "print CSV"),
            Flag::value("--threads", "N", "worker threads"),
            Flag::removed("--shards", "--shards: the sharded engine was removed"),
        ],
    };

    static INFO: Command = Command {
        name: "topo-info",
        about: "describe topologies",
        positional: Some(Positional::new(
            "T",
            Arity::Many,
            "at least one topology spec",
        )),
        flags: &[Flag::switch("--dot", "print Graphviz DOT")],
    };

    static REGEN: Command = Command {
        name: "regen",
        about: "regenerate results",
        positional: Some(Positional::new(
            "DIR",
            Arity::Optional,
            "an output directory",
        )),
        flags: &[],
    };

    fn parse(cmd: &'static Command, args: &[&str]) -> Result<Args, String> {
        cmd.parse(args.iter().map(|s| s.to_string()), &[&RUN, &INFO, &REGEN])
    }

    #[test]
    fn positionals_follow_their_arity() {
        let a = parse(&INFO, &["grid:4", "--dot", "ring:8"]).unwrap();
        assert_eq!(a.positionals(), ["grid:4", "ring:8"]);
        assert!(parse(&INFO, &["--help"]).unwrap().help);
        assert!(parse(&REGEN, &[]).unwrap().positionals().is_empty());
        for (cmd, args, token) in [
            (&RUN, &["stray"][..], "stray"),
            (&INFO, &["--dot"], "needs at least one topology spec"),
            (&INFO, &["grid:4", "--seed", "3"], "belongs to run"),
            (&REGEN, &["a", "b"], "\"b\""),
        ] {
            let err = parse(cmd, args).unwrap_err();
            assert!(err.contains(token), "{args:?}: {err}");
        }
        let err = parse(&RUN, &["--threads", "0"]).unwrap().threads();
        assert!(err.unwrap_err().contains(crate::runner::THREADS_GRAMMAR));
    }

    #[test]
    fn help_lists_every_flag_and_wraps() {
        for cmd in [&RUN, &INFO, &REGEN] {
            let help = cmd.help("prog");
            assert!(help.starts_with(&format!("usage: prog {}", cmd.name)));
            assert!(cmd.flags.iter().all(|f| help.contains(f.name)), "{help}");
        }
        assert!(INFO.overview().contains("topo-info T [T ...] [FLAGS]"));
        assert!(REGEN.help("").starts_with("usage: regen [DIR]\n"));
        assert_eq!(wrap("aa bb cc dd ee", 5), ["aa bb", "cc dd", "ee"]);
    }
}
