//! Declarative workload specifications.

use std::fmt;
use std::str::FromStr;

use oracle_model::Program;

use crate::{Cyclic, DivideConquer, Fibonacci, Lopsided, RandomTree, Tak};

/// A description of a simulated computation.
///
/// ```
/// use oracle_workloads::WorkloadSpec;
///
/// let spec: WorkloadSpec = "fib:18".parse().unwrap();
/// assert_eq!(spec.num_goals(), 8361); // the paper's Table-3 total
/// let program = spec.build();
/// assert_eq!(program.expected_result(), Some(2584));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Naive doubly-recursive Fibonacci of `n`.
    Fibonacci { n: i64 },
    /// `dc(m, n)` divide-and-conquer.
    DivideConquer { m: i64, n: i64 },
    /// Skewed tree: exactly `budget` tasks, `skew_pct`% of budget to the
    /// left child.
    Lopsided { budget: i64, skew_pct: i64 },
    /// Seeded random tree with heterogeneous grains.
    RandomTree {
        budget: i64,
        max_children: u32,
        grain_spread: u64,
        seed: u64,
    },
    /// `phases` sequential rounds of `width` parallel dc trees of `leaves`
    /// leaves.
    Cyclic {
        phases: u32,
        width: u32,
        leaves: i64,
    },
    /// The Takeuchi function `tak(x, y, z)`.
    Tak { x: i64, y: i64, z: i64 },
}

impl WorkloadSpec {
    /// The paper's `dc(1, x)` instance.
    pub fn dc(x: i64) -> Self {
        WorkloadSpec::DivideConquer { m: 1, n: x }
    }

    /// The paper's `fib(n)` instance.
    pub fn fib(n: i64) -> Self {
        WorkloadSpec::Fibonacci { n }
    }

    /// Instantiate the program.
    pub fn build(&self) -> Box<dyn Program> {
        match *self {
            WorkloadSpec::Fibonacci { n } => Box::new(Fibonacci::new(n)),
            WorkloadSpec::DivideConquer { m, n } => Box::new(DivideConquer::new(m, n)),
            WorkloadSpec::Lopsided { budget, skew_pct } => {
                Box::new(Lopsided::new(budget, skew_pct))
            }
            WorkloadSpec::RandomTree {
                budget,
                max_children,
                grain_spread,
                seed,
            } => Box::new(RandomTree::new(budget, max_children, grain_spread, seed)),
            WorkloadSpec::Cyclic {
                phases,
                width,
                leaves,
            } => Box::new(Cyclic::new(phases, width, leaves)),
            WorkloadSpec::Tak { x, y, z } => Box::new(Tak::new(x, y, z)),
        }
    }

    /// Total goals this workload will generate.
    pub fn num_goals(&self) -> u64 {
        self.build()
            .expected_goals()
            .expect("all built-in workloads know their goal count")
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkloadSpec::Fibonacci { n } => write!(f, "fib:{n}"),
            WorkloadSpec::DivideConquer { m, n } => write!(f, "dc:{m}x{n}"),
            WorkloadSpec::Lopsided { budget, skew_pct } => {
                write!(f, "lopsided:{budget}x{skew_pct}")
            }
            WorkloadSpec::RandomTree {
                budget,
                max_children,
                grain_spread,
                seed,
            } => write!(f, "random:{budget}x{max_children}x{grain_spread}x{seed}"),
            WorkloadSpec::Cyclic {
                phases,
                width,
                leaves,
            } => write!(f, "cyclic:{phases}x{width}x{leaves}"),
            WorkloadSpec::Tak { x, y, z } => write!(f, "tak:{x}x{y}x{z}"),
        }
    }
}

/// The accepted workload grammar, quoted in every parse error.
pub const WORKLOAD_GRAMMAR: &str = "fib:N | dc:N | dc:MxN | lopsided:BUDGETxSKEW \
     | random:BUDGETxKIDSxSPREADxSEED | cyclic:PHASESxWIDTHxLEAVES | tak:XxYxZ";

/// Error parsing a [`WorkloadSpec`] from a string.
///
/// The message names the offending token and quotes the valid grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError(pub String);

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload spec: {}", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl FromStr for WorkloadSpec {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |what: String| ParseWorkloadError(format!("{what}; expected {WORKLOAD_GRAMMAR}"));
        let (kind, args) = s
            .split_once(':')
            .ok_or_else(|| err(format!("{s:?} has no `:` between kind and arguments")))?;
        let nums: Vec<i64> = args
            .split('x')
            .map(|p| {
                p.parse()
                    .map_err(|_| err(format!("{p:?} in {s:?} is not an integer")))
            })
            .collect::<Result<_, _>>()?;
        let arity = |want: &str| {
            err(format!(
                "{kind}: takes {want} argument(s), got {} in {s:?}",
                nums.len()
            ))
        };
        match (kind, nums.as_slice()) {
            ("fib", [n]) => Ok(WorkloadSpec::fib(*n)),
            ("dc", [x]) => Ok(WorkloadSpec::dc(*x)),
            ("dc", [m, n]) => Ok(WorkloadSpec::DivideConquer { m: *m, n: *n }),
            ("lopsided", [budget, skew]) => Ok(WorkloadSpec::Lopsided {
                budget: *budget,
                skew_pct: *skew,
            }),
            ("random", [budget, mc, gs, seed]) => Ok(WorkloadSpec::RandomTree {
                budget: *budget,
                max_children: *mc as u32,
                grain_spread: *gs as u64,
                seed: *seed as u64,
            }),
            ("cyclic", [p, w, l]) => Ok(WorkloadSpec::Cyclic {
                phases: *p as u32,
                width: *w as u32,
                leaves: *l,
            }),
            ("tak", [x, y, z]) => Ok(WorkloadSpec::Tak {
                x: *x,
                y: *y,
                z: *z,
            }),
            ("fib", _) => Err(arity("1")),
            ("dc", _) => Err(arity("1 or 2")),
            ("lopsided", _) => Err(arity("2")),
            ("random", _) => Err(arity("4")),
            ("cyclic", _) | ("tak", _) => Err(arity("3")),
            _ => Err(err(format!("unknown workload kind {kind:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_display_parse() {
        let specs = [
            WorkloadSpec::fib(18),
            WorkloadSpec::dc(4181),
            WorkloadSpec::DivideConquer { m: 3, n: 99 },
            WorkloadSpec::Lopsided {
                budget: 500,
                skew_pct: 80,
            },
            WorkloadSpec::RandomTree {
                budget: 400,
                max_children: 4,
                grain_spread: 3,
                seed: 7,
            },
            WorkloadSpec::Cyclic {
                phases: 4,
                width: 8,
                leaves: 20,
            },
            WorkloadSpec::Tak { x: 10, y: 5, z: 0 },
        ];
        for spec in specs {
            let parsed: WorkloadSpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn build_produces_expected_programs() {
        assert_eq!(WorkloadSpec::fib(10).build().name(), "fib(10)");
        assert_eq!(WorkloadSpec::dc(21).build().name(), "dc(1,21)");
        assert_eq!(WorkloadSpec::fib(18).num_goals(), 8361);
        assert_eq!(WorkloadSpec::dc(4181).num_goals(), 8361);
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in ["", "fib", "fib:x", "dc:1x2x3", "nope:1"] {
            assert!(bad.parse::<WorkloadSpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parse_errors_name_token_and_grammar() {
        let cases = [
            ("fib", "no `:`"),
            ("fib:x", "is not an integer"),
            ("dc:1x2x3", "takes 1 or 2 argument(s), got 3"),
            ("nope:1", "unknown workload kind \"nope\""),
        ];
        for (bad, needle) in cases {
            let msg = bad.parse::<WorkloadSpec>().unwrap_err().to_string();
            assert!(msg.contains(needle), "{bad:?}: {msg}");
            assert!(msg.contains(WORKLOAD_GRAMMAR), "{bad:?}: {msg}");
        }
    }
}
