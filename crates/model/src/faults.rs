//! Deterministic fault-injection plans and recovery parameters.
//!
//! A [`FaultPlan`] is pure data: it lists fail-stop PE crashes, link
//! up/down windows, a per-transfer message-loss probability, and transient
//! PE slowdowns, all keyed to simulated time. The machine replays the plan
//! with a dedicated RNG stream derived from the run seed, so a given
//! `(config, seed, plan)` triple always produces the same trajectory —
//! including every drop, retry, and recovery decision. An empty plan adds
//! no events and draws no random numbers, leaving fault-free runs
//! bit-identical to a build without the subsystem.
//!
//! Plans can be written inline in suite files and on the command line with
//! a compact grammar (see [`FaultPlan::from_str`]):
//!
//! ```text
//! crash:7@400+loss:1%+recover:500x6
//! ```

use std::fmt;
use std::str::FromStr;

use oracle_topo::DENSE_ROUTER_LIMIT;

/// Fail-stop crash of one PE at a simulated instant. The PE stops
/// executing, its queued and in-progress work is lost, and messages
/// addressed to it are black-holed from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeCrash {
    /// Index of the PE to kill (must be `< num_pes`).
    pub pe: u32,
    /// Simulated time of the crash.
    pub at: u64,
}

/// A window during which one channel carries no new traffic. A transfer
/// already on the wire completes; everything offered while the link is
/// down queues in the channel backlog and drains after `up_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// Index of the channel to take down (must be `< num_channels`).
    pub channel: u32,
    /// Simulated time the link goes down.
    pub down_at: u64,
    /// Simulated time the link comes back up (must be `> down_at`).
    pub up_at: u64,
}

/// Transient slowdown of one PE: work *started* inside the window costs
/// `factor` times as much. Work already in progress is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slowdown {
    /// Index of the PE to slow (must be `< num_pes`).
    pub pe: u32,
    /// Start of the window.
    pub from: u64,
    /// End of the window (must be `> from`).
    pub until: u64,
    /// Cost multiplier applied while the window is open (must be `>= 1`).
    pub factor: u64,
}

/// Knobs for the acknowledgment/retry recovery layer. When present, every
/// spawned goal is tracked by its parent until the child's response
/// combines; a goal that is lost (crash, black hole, or dropped transfer)
/// or silent past its timeout is re-spawned with a fresh id, up to
/// `max_retries` attempts per slot. Duplicate responses from superseded
/// attempts are detected and discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryParams {
    /// Base silence window before a tracked goal is re-spawned. The window
    /// doubles with each retry (capped at 32x) so slow subtrees are not
    /// respawned forever.
    pub ack_timeout: u64,
    /// Maximum re-spawn attempts per goal slot before giving up.
    pub max_retries: u32,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            ack_timeout: 500,
            max_retries: 6,
        }
    }
}

/// A complete, deterministic fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Fail-stop PE crashes.
    pub pe_crashes: Vec<PeCrash>,
    /// Link down/up windows.
    pub link_windows: Vec<LinkWindow>,
    /// Probability in `[0, 1)` that any completed channel transfer is
    /// dropped instead of delivered.
    pub message_loss: f64,
    /// Transient PE slowdown windows.
    pub slowdowns: Vec<Slowdown>,
    /// Acknowledgment/retry recovery; `None` disables tracking entirely.
    pub recovery: Option<RecoveryParams>,
}

impl FaultPlan {
    /// A plan with no faults and no recovery — the default.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing and enables nothing. An empty
    /// plan is guaranteed not to perturb a run in any way.
    pub fn is_empty(&self) -> bool {
        self.pe_crashes.is_empty()
            && self.link_windows.is_empty()
            && self.message_loss == 0.0
            && self.slowdowns.is_empty()
            && self.recovery.is_none()
    }

    /// Add a fail-stop crash of `pe` at time `at`.
    pub fn crash(mut self, pe: u32, at: u64) -> Self {
        self.pe_crashes.push(PeCrash { pe, at });
        self
    }

    /// Take `channel` down over `[down_at, up_at)`.
    pub fn link_down(mut self, channel: u32, down_at: u64, up_at: u64) -> Self {
        self.link_windows.push(LinkWindow {
            channel,
            down_at,
            up_at,
        });
        self
    }

    /// Set the per-transfer message-loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.message_loss = p;
        self
    }

    /// Slow `pe` by `factor` over `[from, until)`.
    pub fn slow(mut self, pe: u32, from: u64, until: u64, factor: u64) -> Self {
        self.slowdowns.push(Slowdown {
            pe,
            from,
            until,
            factor,
        });
        self
    }

    /// Enable the acknowledgment/retry recovery layer.
    pub fn with_recovery(mut self, recovery: RecoveryParams) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Validate the plan against a machine of `num_pes` PEs and
    /// `num_channels` channels.
    pub fn validate(&self, num_pes: usize, num_channels: usize) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.message_loss) {
            return Err(format!(
                "message_loss must be in [0, 1), got {}",
                self.message_loss
            ));
        }
        // Crashes and link windows route over an all-pairs live-route table
        // (`Core::rebuild_live_routes`), so they share the dense router's limit.
        if num_pes > DENSE_ROUTER_LIMIT
            && !(self.pe_crashes.is_empty() && self.link_windows.is_empty())
        {
            return Err(format!(
                "crash and link faults need a machine of at most {DENSE_ROUTER_LIMIT} PEs \
                 (their live-route table has PEs² entries), but this one has {num_pes}"
            ));
        }
        for (i, c) in self.pe_crashes.iter().enumerate() {
            if c.pe as usize >= num_pes {
                return Err(format!(
                    "crash names PE {} but machine has {num_pes} PEs",
                    c.pe
                ));
            }
            // A PE can only die once; a second crash of the same PE is
            // always a plan-authoring mistake (and would double-count
            // `pes_crashed` in the report).
            if let Some(dup) = self.pe_crashes[..i].iter().find(|p| p.pe == c.pe) {
                return Err(format!(
                    "PE {} is crashed twice (at t={} and t={}); a crashed PE never recovers",
                    c.pe, dup.at, c.at
                ));
            }
        }
        for (i, w) in self.link_windows.iter().enumerate() {
            if w.channel as usize >= num_channels {
                return Err(format!(
                    "link window names channel {} but machine has {num_channels} channels",
                    w.channel
                ));
            }
            if w.up_at <= w.down_at {
                return Err(format!(
                    "link window on channel {} must come up after it goes down ({}..{})",
                    w.channel, w.down_at, w.up_at
                ));
            }
            // Overlapping windows on one channel would interleave their
            // down/up events and bring the link back up while the other
            // window still holds it down.
            if let Some(overlap) = self.link_windows[..i]
                .iter()
                .find(|o| o.channel == w.channel && o.down_at < w.up_at && w.down_at < o.up_at)
            {
                return Err(format!(
                    "link windows on channel {} overlap ({}..{} and {}..{})",
                    w.channel, overlap.down_at, overlap.up_at, w.down_at, w.up_at
                ));
            }
        }
        for s in &self.slowdowns {
            if s.pe as usize >= num_pes {
                return Err(format!(
                    "slowdown names PE {} but machine has {num_pes} PEs",
                    s.pe
                ));
            }
            if s.until <= s.from {
                return Err(format!(
                    "slowdown on PE {} must end after it starts ({}..{})",
                    s.pe, s.from, s.until
                ));
            }
            if s.factor == 0 {
                return Err(format!("slowdown factor on PE {} must be >= 1", s.pe));
            }
        }
        if let Some(r) = self.recovery {
            if r.ack_timeout == 0 {
                return Err("recovery ack_timeout must be nonzero".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, "+")
            }
        };
        for c in &self.pe_crashes {
            sep(f)?;
            write!(f, "crash:{}@{}", c.pe, c.at)?;
        }
        for w in &self.link_windows {
            sep(f)?;
            write!(f, "link:{}@{}..{}", w.channel, w.down_at, w.up_at)?;
        }
        if self.message_loss > 0.0 {
            sep(f)?;
            write!(f, "loss:{}%", self.message_loss * 100.0)?;
        }
        for s in &self.slowdowns {
            sep(f)?;
            write!(f, "slow:{}@{}..{}x{}", s.pe, s.from, s.until, s.factor)?;
        }
        if let Some(r) = self.recovery {
            sep(f)?;
            write!(f, "recover:{}x{}", r.ack_timeout, r.max_retries)?;
        }
        Ok(())
    }
}

/// A fault-plan term that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultPlanError(pub String);

impl fmt::Display for ParseFaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for ParseFaultPlanError {}

fn parse_u64(s: &str, what: &str) -> Result<u64, ParseFaultPlanError> {
    s.parse::<u64>()
        .map_err(|_| ParseFaultPlanError(format!("expected a number for {what}, got `{s}`")))
}

fn parse_u32(s: &str, what: &str) -> Result<u32, ParseFaultPlanError> {
    s.parse::<u32>()
        .map_err(|_| ParseFaultPlanError(format!("expected a number for {what}, got `{s}`")))
}

fn split2<'a>(
    s: &'a str,
    sep: &str,
    what: &str,
) -> Result<(&'a str, &'a str), ParseFaultPlanError> {
    s.split_once(sep)
        .ok_or_else(|| ParseFaultPlanError(format!("expected `{sep}` in {what}, got `{s}`")))
}

impl FromStr for FaultPlan {
    type Err = ParseFaultPlanError;

    /// Parse the compact plan grammar: `+`-separated terms, each one of
    ///
    /// - `crash:PE@T`        — fail-stop crash of PE at time T
    /// - `link:CH@F..U`      — channel CH down over `[F, U)`
    /// - `loss:P%`           — drop each transfer with probability P/100
    /// - `slow:PE@F..UxN`    — PE costs xN over `[F, U)`
    /// - `recover:TxR`       — ack timeout T, max R retries
    /// - `none`              — the empty plan
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(FaultPlan::default());
        }
        let mut plan = FaultPlan::default();
        for term in s.split('+') {
            let term = term.trim();
            let (kind, rest) = split2(term, ":", "fault term")?;
            match kind {
                "crash" => {
                    let (pe, at) = split2(rest, "@", "crash term")?;
                    plan.pe_crashes.push(PeCrash {
                        pe: parse_u32(pe, "crash PE")?,
                        at: parse_u64(at, "crash time")?,
                    });
                }
                "link" => {
                    let (ch, window) = split2(rest, "@", "link term")?;
                    let (from, until) = split2(window, "..", "link window")?;
                    plan.link_windows.push(LinkWindow {
                        channel: parse_u32(ch, "link channel")?,
                        down_at: parse_u64(from, "link down time")?,
                        up_at: parse_u64(until, "link up time")?,
                    });
                }
                "loss" => {
                    let pct = rest.strip_suffix('%').ok_or_else(|| {
                        ParseFaultPlanError(format!("loss rate must end in `%`, got `{rest}`"))
                    })?;
                    let pct: f64 = pct
                        .parse()
                        .map_err(|_| ParseFaultPlanError(format!("bad loss percentage `{pct}`")))?;
                    plan.message_loss = pct / 100.0;
                }
                "slow" => {
                    let (pe, rest) = split2(rest, "@", "slow term")?;
                    let (window, factor) = rest.rsplit_once('x').ok_or_else(|| {
                        ParseFaultPlanError(format!("expected `x` in slow term, got `{rest}`"))
                    })?;
                    let (from, until) = split2(window, "..", "slow window")?;
                    plan.slowdowns.push(Slowdown {
                        pe: parse_u32(pe, "slow PE")?,
                        from: parse_u64(from, "slow start")?,
                        until: parse_u64(until, "slow end")?,
                        factor: parse_u64(factor, "slow factor")?,
                    });
                }
                "recover" => {
                    let (timeout, retries) = split2(rest, "x", "recover term")?;
                    plan.recovery = Some(RecoveryParams {
                        ack_timeout: parse_u64(timeout, "ack timeout")?,
                        max_retries: parse_u32(retries, "max retries")?,
                    });
                }
                other => {
                    return Err(ParseFaultPlanError(format!(
                        "unknown fault term `{other}` (expected crash/link/loss/slow/recover)"
                    )));
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::default().crash(0, 10).is_empty());
        assert!(!FaultPlan::default().with_loss(0.01).is_empty());
        assert!(!FaultPlan::default()
            .with_recovery(RecoveryParams::default())
            .is_empty());
    }

    #[test]
    fn crash_and_link_terms_are_refused_past_the_dense_router_limit() {
        let big = DENSE_ROUTER_LIMIT + 1;
        for plan in [
            FaultPlan::default().crash(0, 10),
            FaultPlan::default().link_down(0, 5, 10),
        ] {
            assert!(plan.validate(DENSE_ROUTER_LIMIT, 4 * big).is_ok());
            let err = plan.validate(big, 4 * big).unwrap_err();
            assert!(err.contains("at most 2048 PEs"), "{err}");
        }
        // Loss, slowdowns and recovery never build the table.
        let plan = FaultPlan::default()
            .with_loss(0.01)
            .slow(5, 0, 100, 2)
            .with_recovery(RecoveryParams::default());
        assert!(plan.validate(big, 4 * big).is_ok());
    }

    #[test]
    fn validate_catches_out_of_range_entries() {
        let plan = FaultPlan::default().crash(9, 10);
        assert!(plan.validate(9, 12).is_err());
        assert!(plan.validate(10, 12).is_ok());

        let plan = FaultPlan::default().link_down(12, 5, 10);
        assert!(plan.validate(16, 12).is_err());
        assert!(plan.validate(16, 13).is_ok());

        let backwards = FaultPlan::default().link_down(0, 10, 10);
        assert!(backwards.validate(16, 12).is_err());

        let plan = FaultPlan::default().slow(3, 0, 100, 0);
        assert!(plan.validate(16, 12).is_err());

        let mut plan = FaultPlan::default().with_loss(1.0);
        assert!(plan.validate(16, 12).is_err());
        plan.message_loss = 0.5;
        assert!(plan.validate(16, 12).is_ok());
    }

    #[test]
    fn validate_catches_duplicate_crashes_and_overlapping_windows() {
        let twice = FaultPlan::default().crash(3, 100).crash(3, 500);
        let err = twice.validate(16, 12).unwrap_err();
        assert!(err.contains("crashed twice"), "{err}");
        // Two different PEs at the same instant are fine.
        let distinct = FaultPlan::default().crash(3, 100).crash(4, 100);
        assert!(distinct.validate(16, 12).is_ok());

        let overlap = FaultPlan::default()
            .link_down(2, 100, 300)
            .link_down(2, 250, 400);
        let err = overlap.validate(16, 12).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        // Back-to-back windows on one channel do not overlap ([100,300) then
        // [300,400)), and identical windows on different channels are fine.
        let adjacent = FaultPlan::default()
            .link_down(2, 100, 300)
            .link_down(2, 300, 400)
            .link_down(3, 100, 300);
        assert!(adjacent.validate(16, 12).is_ok());
    }

    #[test]
    fn grammar_round_trips() {
        let plan = FaultPlan::default()
            .crash(7, 400)
            .link_down(3, 100, 250)
            .with_loss(0.01)
            .slow(2, 50, 150, 4)
            .with_recovery(RecoveryParams {
                ack_timeout: 500,
                max_retries: 6,
            });
        let text = plan.to_string();
        assert_eq!(
            text,
            "crash:7@400+link:3@100..250+loss:1%+slow:2@50..150x4+recover:500x6"
        );
        let parsed: FaultPlan = text.parse().unwrap();
        assert_eq!(parsed, plan);

        let empty: FaultPlan = "none".parse().unwrap();
        assert!(empty.is_empty());
        assert_eq!(FaultPlan::default().to_string(), "none");
    }

    #[test]
    fn grammar_rejects_malformed_terms() {
        assert!("crash:7".parse::<FaultPlan>().is_err());
        assert!("loss:1".parse::<FaultPlan>().is_err());
        assert!("loss:x%".parse::<FaultPlan>().is_err());
        assert!("link:0@5".parse::<FaultPlan>().is_err());
        assert!("slow:0@5..10".parse::<FaultPlan>().is_err());
        assert!("explode:everything".parse::<FaultPlan>().is_err());
        let err = "crash:a@5".parse::<FaultPlan>().unwrap_err();
        assert!(err.to_string().contains("crash PE"), "{err}");
    }
}
