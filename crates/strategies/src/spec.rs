//! Declarative strategy specifications.

use std::fmt;
use std::str::FromStr;

use oracle_model::{MachineConfig, Strategy};

use crate::acwn::{AcwnParams, AdaptiveCwn};
use crate::baselines::{KeepLocal, RandomWalk, RoundRobin};
use crate::cwn::{Cwn, CwnParams};
use crate::diffusion::{Diffusion, DiffusionParams};
use crate::global::GlobalRandom;
use crate::gradient::{GradientModel, GradientParams};
use crate::stealing::WorkStealing;
use crate::threshold::{ThresholdParams, ThresholdProbe};

/// A description of a load-distribution strategy.
///
/// ```
/// use oracle_strategies::StrategySpec;
///
/// let cwn: StrategySpec = "cwn:9x1".parse().unwrap();
/// assert_eq!(cwn, StrategySpec::cwn_paper(true));
/// assert_eq!(cwn.build().name(), "cwn");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySpec {
    /// Contracting Within a Neighborhood.
    Cwn { radius: u32, horizon: u32 },
    /// The Gradient Model.
    Gradient {
        low_water_mark: u32,
        high_water_mark: u32,
        interval: u64,
    },
    /// Adaptive CWN (saturation + redistribution + future commitments).
    AdaptiveCwn {
        radius: u32,
        horizon: u32,
        saturation: u32,
        redistribute: bool,
    },
    /// Keep every goal local (no distribution).
    Local,
    /// Random walk of `hops` hops per goal.
    RandomWalk { hops: u32 },
    /// Round-robin scatter over neighbours.
    RoundRobin,
    /// Receiver-initiated work stealing.
    WorkStealing { retry_delay: u64 },
    /// Periodic nearest-neighbour load diffusion.
    Diffusion {
        interval: u64,
        threshold: u32,
        max_per_cycle: u32,
    },
    /// Uniform random placement over the whole machine (global
    /// communication — §2.1's unscalable regime).
    GlobalRandom,
    /// Sender-initiated threshold probing (Eager–Lazowska–Zahorjan).
    ThresholdProbe { threshold: u32, probe_limit: u32 },
}

impl StrategySpec {
    /// The paper's CWN parameters for a topology family. `grid` selects the
    /// grid column of Table 1, otherwise the DLM column.
    pub fn cwn_paper(grid: bool) -> Self {
        let p = if grid {
            CwnParams::paper_grid()
        } else {
            CwnParams::paper_dlm()
        };
        StrategySpec::Cwn {
            radius: p.radius,
            horizon: p.horizon,
        }
    }

    /// The paper's Gradient Model parameters (Table 1).
    pub fn gradient_paper(grid: bool) -> Self {
        let p = if grid {
            GradientParams::paper_grid()
        } else {
            GradientParams::paper_dlm()
        };
        StrategySpec::Gradient {
            low_water_mark: p.low_water_mark,
            high_water_mark: p.high_water_mark,
            interval: p.interval,
        }
    }

    /// Instantiate the strategy.
    pub fn build(&self) -> Box<dyn Strategy> {
        match *self {
            StrategySpec::Cwn { radius, horizon } => Box::new(Cwn::with(radius, horizon)),
            StrategySpec::Gradient {
                low_water_mark,
                high_water_mark,
                interval,
            } => Box::new(GradientModel::with(
                low_water_mark,
                high_water_mark,
                interval,
            )),
            StrategySpec::AdaptiveCwn {
                radius,
                horizon,
                saturation,
                redistribute,
            } => Box::new(AdaptiveCwn::new(AcwnParams {
                cwn: CwnParams {
                    radius,
                    horizon,
                    strict_min: true,
                },
                saturation,
                redistribute,
                retry_delay: 40,
            })),
            StrategySpec::Local => Box::new(KeepLocal),
            StrategySpec::RandomWalk { hops } => Box::new(RandomWalk::new(hops)),
            StrategySpec::RoundRobin => Box::new(RoundRobin::new()),
            StrategySpec::WorkStealing { retry_delay } => Box::new(WorkStealing::new(retry_delay)),
            StrategySpec::Diffusion {
                interval,
                threshold,
                max_per_cycle,
            } => Box::new(Diffusion::new(DiffusionParams {
                interval,
                threshold,
                max_per_cycle,
            })),
            StrategySpec::GlobalRandom => Box::new(GlobalRandom::new()),
            StrategySpec::ThresholdProbe {
                threshold,
                probe_limit,
            } => Box::new(ThresholdProbe::new(ThresholdParams {
                threshold,
                probe_limit,
            })),
        }
    }

    /// Fold strategy-specific machine-configuration requirements into
    /// `cfg` (Adaptive CWN turns on the future-commitments load metric).
    pub fn apply_config(&self, cfg: &mut MachineConfig) {
        if let StrategySpec::AdaptiveCwn { .. } = self {
            cfg.future_commitment_weight = 1;
        }
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StrategySpec::Cwn { radius, horizon } => write!(f, "cwn:{radius}x{horizon}"),
            StrategySpec::Gradient {
                low_water_mark,
                high_water_mark,
                interval,
            } => write!(f, "gm:{low_water_mark}x{high_water_mark}x{interval}"),
            StrategySpec::AdaptiveCwn {
                radius,
                horizon,
                saturation,
                redistribute,
            } => write!(
                f,
                "acwn:{radius}x{horizon}x{saturation}x{}",
                u8::from(redistribute)
            ),
            StrategySpec::Local => write!(f, "local"),
            StrategySpec::RandomWalk { hops } => write!(f, "random:{hops}"),
            StrategySpec::RoundRobin => write!(f, "rr"),
            StrategySpec::WorkStealing { retry_delay } => write!(f, "steal:{retry_delay}"),
            StrategySpec::Diffusion {
                interval,
                threshold,
                max_per_cycle,
            } => write!(f, "diffusion:{interval}x{threshold}x{max_per_cycle}"),
            StrategySpec::GlobalRandom => write!(f, "global"),
            StrategySpec::ThresholdProbe {
                threshold,
                probe_limit,
            } => write!(f, "threshold:{threshold}x{probe_limit}"),
        }
    }
}

/// Error parsing a [`StrategySpec`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError(pub String);

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid strategy spec: {}", self.0)
    }
}

impl std::error::Error for ParseStrategyError {}

impl FromStr for StrategySpec {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseStrategyError(s.to_string());
        let (kind, args) = match s.split_once(':') {
            Some((k, a)) => (k, a),
            None => (s, ""),
        };
        let nums: Vec<u64> = if args.is_empty() {
            Vec::new()
        } else {
            args.split('x')
                .map(|p| p.parse().map_err(|_| err()))
                .collect::<Result<_, _>>()?
        };
        match (kind, nums.as_slice()) {
            ("cwn", [r, h]) => Ok(StrategySpec::Cwn {
                radius: *r as u32,
                horizon: *h as u32,
            }),
            ("gm" | "gradient", [l, h, i]) => Ok(StrategySpec::Gradient {
                low_water_mark: *l as u32,
                high_water_mark: *h as u32,
                interval: *i,
            }),
            ("acwn", [r, h, s, redist]) => Ok(StrategySpec::AdaptiveCwn {
                radius: *r as u32,
                horizon: *h as u32,
                saturation: *s as u32,
                redistribute: *redist != 0,
            }),
            ("local", []) => Ok(StrategySpec::Local),
            ("random", [hops]) => Ok(StrategySpec::RandomWalk { hops: *hops as u32 }),
            ("rr" | "round-robin", []) => Ok(StrategySpec::RoundRobin),
            ("steal", [d]) => Ok(StrategySpec::WorkStealing { retry_delay: *d }),
            ("steal", []) => Ok(StrategySpec::WorkStealing { retry_delay: 40 }),
            ("diffusion", [i, t, m]) => Ok(StrategySpec::Diffusion {
                interval: *i,
                threshold: *t as u32,
                max_per_cycle: *m as u32,
            }),
            ("diffusion", []) => Ok(StrategySpec::Diffusion {
                interval: 20,
                threshold: 2,
                max_per_cycle: 2,
            }),
            ("global", []) => Ok(StrategySpec::GlobalRandom),
            ("threshold", [t, k]) => Ok(StrategySpec::ThresholdProbe {
                threshold: *t as u32,
                probe_limit: *k as u32,
            }),
            ("threshold", []) => Ok(StrategySpec::ThresholdProbe {
                threshold: 2,
                probe_limit: 3,
            }),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_display_parse() {
        let specs = [
            StrategySpec::Cwn {
                radius: 9,
                horizon: 2,
            },
            StrategySpec::Gradient {
                low_water_mark: 1,
                high_water_mark: 2,
                interval: 20,
            },
            StrategySpec::AdaptiveCwn {
                radius: 9,
                horizon: 2,
                saturation: 3,
                redistribute: true,
            },
            StrategySpec::Local,
            StrategySpec::RandomWalk { hops: 3 },
            StrategySpec::RoundRobin,
            StrategySpec::WorkStealing { retry_delay: 50 },
            StrategySpec::Diffusion {
                interval: 20,
                threshold: 2,
                max_per_cycle: 2,
            },
            StrategySpec::GlobalRandom,
            StrategySpec::ThresholdProbe {
                threshold: 2,
                probe_limit: 3,
            },
        ];
        for spec in specs {
            let parsed: StrategySpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec, "{spec}");
        }
    }

    #[test]
    fn paper_presets_match_table_1() {
        assert_eq!(
            StrategySpec::cwn_paper(true),
            StrategySpec::Cwn {
                radius: 9,
                horizon: 1
            }
        );
        assert_eq!(
            StrategySpec::cwn_paper(false),
            StrategySpec::Cwn {
                radius: 5,
                horizon: 1
            }
        );
        assert_eq!(
            StrategySpec::gradient_paper(true),
            StrategySpec::Gradient {
                low_water_mark: 1,
                high_water_mark: 2,
                interval: 20
            }
        );
        assert_eq!(
            StrategySpec::gradient_paper(false),
            StrategySpec::Gradient {
                low_water_mark: 1,
                high_water_mark: 1,
                interval: 20
            }
        );
    }

    #[test]
    fn build_names() {
        assert_eq!(StrategySpec::Local.build().name(), "local");
        assert_eq!(StrategySpec::cwn_paper(true).build().name(), "cwn");
        assert_eq!(
            StrategySpec::gradient_paper(true).build().name(),
            "gradient"
        );
    }

    #[test]
    fn acwn_sets_future_commitments() {
        let mut cfg = MachineConfig::default();
        StrategySpec::AdaptiveCwn {
            radius: 9,
            horizon: 2,
            saturation: 3,
            redistribute: true,
        }
        .apply_config(&mut cfg);
        assert_eq!(cfg.future_commitment_weight, 1);

        let mut cfg2 = MachineConfig::default();
        StrategySpec::cwn_paper(true).apply_config(&mut cfg2);
        assert_eq!(cfg2.future_commitment_weight, 0);
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in ["", "cwn", "cwn:1", "gm:1x2", "wat:3", "steal:x"] {
            assert!(bad.parse::<StrategySpec>().is_err(), "{bad:?} parsed");
        }
    }
}
