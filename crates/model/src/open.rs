//! Open-system traffic: arrival processes and steady-state measurement.
//!
//! Every workload in the paper is *closed*: one task tree seeded at one PE,
//! measured by completion time. This module adds the *open* regime a
//! production load balancer actually faces — requests keep arriving, each
//! spawning a task subtree, and the question becomes "how much sustained
//! traffic can this machine hold?" (cf. the infinite-process analyses of
//! Berenbrink et al. and the work-stealing simulators of Khatiri et al.).
//!
//! The pieces:
//!
//! * [`ArrivalProcess`] — *when* requests arrive: Poisson, bursty MMPP
//!   on/off, a diurnal (sinusoidal) rate curve, or a replayable trace file.
//! * [`EdgeSet`] — *where* they arrive: all PEs round-robin, the root PE,
//!   or an explicit PE list.
//! * [`ArrivalSpec`] — the `PROCESS[@EDGES]` pair, with a parsable/printable
//!   grammar (`poisson:4.5@all`, `burst:8x0.5x2000x6000`, `trace:arr.txt@0,3`).
//! * [`OpenTraffic`] — the full open-run configuration carried by
//!   [`MachineConfig`](crate::config::MachineConfig): spec + measurement
//!   windows + saturation threshold, plus the overload-protection knobs
//!   ([`RetryPolicy`], [`AdmissionPolicy`], per-request deadlines, and the
//!   per-region circuit breaker).
//! * `OpenState` — the runtime side (pub(crate)): the dedicated arrival
//!   RNG stream, in-flight request table, sojourn/queue-length histograms,
//!   the saturation trip wire, and the mutable overload state (token
//!   bucket, pending retries, breaker table, shed/abandon counters).
//!
//! All rates are expressed in **arrivals per 1000 simulated time units** —
//! the same order of magnitude as the cost model's task grain, so `poisson:1`
//! is roughly one request per leaf-task's worth of time.

use std::fmt;
use std::str::FromStr;

use oracle_des::{FastHashMap, LogHistogram, OnlineStats, Rng};

use crate::message::GoalId;

/// XOR'd into the run seed for the arrival stream, so open traffic never
/// perturbs the strategy's (or the fault layer's) random sequence.
pub(crate) const ARRIVAL_SEED_SALT: u64 = 0xA881_4A11_F00D_5EED;

/// XOR'd into the run seed for the retry-backoff jitter stream. A
/// dedicated stream keeps retries from perturbing the arrival, fault, or
/// strategy sequences, so enabling retry changes *only* retry timing and
/// results stay identical across `--threads`.
pub(crate) const RETRY_SEED_SALT: u64 = 0xBACC_0FF5_7A1E_5EED;

/// Rates are per this many simulated time units.
pub const RATE_UNIT: f64 = 1000.0;

/// When `OpenTraffic::saturation_inflight` is 0, the trip wire is
/// `AUTO_SATURATION_PER_PE * num_pes + AUTO_SATURATION_BASE` in-flight
/// requests: generous enough that transient bursts survive, small enough
/// that a genuinely overloaded cell trips within a few thousand arrivals.
pub(crate) const AUTO_SATURATION_PER_PE: u64 = 32;
pub(crate) const AUTO_SATURATION_BASE: u64 = 256;

/// The stochastic (or replayed) process governing *when* requests arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` requests per [`RATE_UNIT`] time units.
    Poisson { rate: f64 },
    /// Bursty MMPP on/off source: Poisson at `hi` during on-phases of
    /// `on_len` units, at `lo` (possibly 0) during off-phases of `off_len`
    /// units, starting in the on-phase at time 0.
    Burst {
        hi: f64,
        lo: f64,
        on_len: u64,
        off_len: u64,
    },
    /// Diurnal rate curve: a sinusoid with the given `peak` rate and
    /// `period`, sampled by thinning. The instantaneous rate is
    /// `peak * (0.55 + 0.45 * sin(2*pi*t/period))`, i.e. it swings between
    /// 10% and 100% of peak over one period.
    Diurnal { peak: f64, period: u64 },
    /// Replay a recorded arrival schedule from a text file (see
    /// [`parse_arrival_trace`] for the format).
    Trace { path: String },
}

/// The PEs at which requests enter the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeSet {
    /// Round-robin over every PE (the default).
    All,
    /// Everything enters at the configured root PE.
    Root,
    /// Round-robin over an explicit PE list.
    List(Vec<u32>),
}

/// A full arrival specification: process + edge set, with a compact string
/// grammar for the CLI and suite files.
///
/// ```
/// use oracle_model::open::{ArrivalProcess, ArrivalSpec, EdgeSet};
///
/// let spec: ArrivalSpec = "poisson:4.5@root".parse().unwrap();
/// assert_eq!(spec.process, ArrivalProcess::Poisson { rate: 4.5 });
/// assert_eq!(spec.edges, EdgeSet::Root);
/// assert_eq!(spec.to_string(), "poisson:4.5@root");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    pub process: ArrivalProcess,
    pub edges: EdgeSet,
}

/// The valid arrival grammar, quoted by every parse error (satellite
/// requirement: errors must name the offending token *and* the grammar).
pub const ARRIVAL_GRAMMAR: &str = "PROCESS[@EDGES] where PROCESS is poisson:RATE | \
     burst:HIxLOxON_LENxOFF_LEN | diurnal:PEAKxPERIOD | trace:PATH \
     (rates are arrivals per 1000 time units) and EDGES is all | root | \
     a comma-separated PE list, e.g. poisson:4.5@all";

/// Error parsing an [`ArrivalSpec`] (or an arrival trace file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArrivalError(pub String);

impl fmt::Display for ParseArrivalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid arrival spec: {}", self.0)
    }
}

impl std::error::Error for ParseArrivalError {}

fn bad(token: &str, what: &str) -> ParseArrivalError {
    ParseArrivalError(format!("bad {what} {token:?}; expected {ARRIVAL_GRAMMAR}"))
}

fn parse_rate(token: &str, what: &str) -> Result<f64, ParseArrivalError> {
    let v: f64 = token.parse().map_err(|_| bad(token, what))?;
    if !v.is_finite() || v < 0.0 {
        return Err(bad(token, what));
    }
    Ok(v)
}

fn parse_len(token: &str, what: &str) -> Result<u64, ParseArrivalError> {
    let v: u64 = token.parse().map_err(|_| bad(token, what))?;
    if v == 0 {
        return Err(bad(token, what));
    }
    Ok(v)
}

impl FromStr for ArrivalSpec {
    type Err = ParseArrivalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // `@` splits off the edge set; the process part may contain `@`
        // only in a trace path, so split on the *last* `@` unless it
        // parses as part of the path (paths with `@` must quote the edge
        // set explicitly, which keeps the grammar unambiguous).
        let (proc_s, edges) = match s.rsplit_once('@') {
            Some((p, e)) => (p, parse_edges(e)?),
            None => (s, EdgeSet::All),
        };
        let (kind, args) = proc_s
            .split_once(':')
            .ok_or_else(|| bad(proc_s, "arrival process (missing `:`)"))?;
        let process = match kind {
            "poisson" => {
                let rate = parse_rate(args, "poisson rate")?;
                if rate == 0.0 {
                    return Err(bad(args, "poisson rate (must be positive)"));
                }
                ArrivalProcess::Poisson { rate }
            }
            "burst" => {
                let parts: Vec<&str> = args.split('x').collect();
                let [hi, lo, on, off] = parts.as_slice() else {
                    return Err(bad(args, "burst arguments (need HIxLOxON_LENxOFF_LEN)"));
                };
                let hi = parse_rate(hi, "burst hi rate")?;
                if hi == 0.0 {
                    return Err(bad(args, "burst hi rate (must be positive)"));
                }
                ArrivalProcess::Burst {
                    hi,
                    lo: parse_rate(lo, "burst lo rate")?,
                    on_len: parse_len(on, "burst on-phase length")?,
                    off_len: parse_len(off, "burst off-phase length")?,
                }
            }
            "diurnal" => {
                let parts: Vec<&str> = args.split('x').collect();
                let [peak, period] = parts.as_slice() else {
                    return Err(bad(args, "diurnal arguments (need PEAKxPERIOD)"));
                };
                let peak = parse_rate(peak, "diurnal peak rate")?;
                if peak == 0.0 {
                    return Err(bad(args, "diurnal peak rate (must be positive)"));
                }
                ArrivalProcess::Diurnal {
                    peak,
                    period: parse_len(period, "diurnal period")?,
                }
            }
            "trace" => {
                if args.is_empty() {
                    return Err(bad(args, "trace path (must be non-empty)"));
                }
                ArrivalProcess::Trace {
                    path: args.to_string(),
                }
            }
            other => return Err(bad(other, "arrival process kind")),
        };
        Ok(ArrivalSpec { process, edges })
    }
}

fn parse_edges(s: &str) -> Result<EdgeSet, ParseArrivalError> {
    match s {
        "all" => Ok(EdgeSet::All),
        "root" => Ok(EdgeSet::Root),
        "" => Err(bad(s, "edge set (empty after `@`)")),
        list => {
            let pes: Vec<u32> = list
                .split(',')
                .map(|p| p.parse().map_err(|_| bad(p, "edge PE id")))
                .collect::<Result<_, _>>()?;
            Ok(EdgeSet::List(pes))
        }
    }
}

impl fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.process {
            ArrivalProcess::Poisson { rate } => write!(f, "poisson:{rate}")?,
            ArrivalProcess::Burst {
                hi,
                lo,
                on_len,
                off_len,
            } => write!(f, "burst:{hi}x{lo}x{on_len}x{off_len}")?,
            ArrivalProcess::Diurnal { peak, period } => write!(f, "diurnal:{peak}x{period}")?,
            ArrivalProcess::Trace { path } => write!(f, "trace:{path}")?,
        }
        match &self.edges {
            EdgeSet::All => Ok(()),
            EdgeSet::Root => write!(f, "@root"),
            EdgeSet::List(pes) => {
                write!(f, "@")?;
                for (i, pe) in pes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{pe}")?;
                }
                Ok(())
            }
        }
    }
}

/// Error parsing a [`RetryPolicy`] or [`AdmissionPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOverloadError(pub String);

impl fmt::Display for ParseOverloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid overload spec: {}", self.0)
    }
}

impl std::error::Error for ParseOverloadError {}

/// The retry grammar, quoted by every [`RetryPolicy`] parse error.
pub const RETRY_GRAMMAR: &str = "MAXxBASE (e.g. 3x200): up to MAX re-injections per \
     request, exponential backoff from BASE time units with +-50% jitter";

/// The admission grammar, quoted by every [`AdmissionPolicy`] parse error.
pub const ADMISSION_GRAMMAR: &str = "queue:MAX | util:FRACTION | bucket:RATExBURST \
     (RATE tokens per 1000 time units, burst capacity BURST), e.g. queue:64, \
     util:0.9, bucket:12x32";

/// Retry policy for requests lost to crashes or link faults: the lost
/// request is re-injected at the next edge PE after an exponential backoff
/// with jitter, up to `max` attempts; exhausting the budget abandons the
/// request (a dead loss, counted in the abandonment rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-injections per request.
    pub max: u32,
    /// Backoff before the first retry; doubles per attempt, scaled by a
    /// jitter factor drawn uniformly from [0.5, 1.5) off the dedicated
    /// retry RNG stream.
    pub base: u64,
}

impl FromStr for RetryPolicy {
    type Err = ParseOverloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |tok: &str, what: &str| {
            ParseOverloadError(format!("bad {what} {tok:?}; expected {RETRY_GRAMMAR}"))
        };
        let Some((max, base)) = s.split_once('x') else {
            return Err(bad(s, "retry policy (missing `x`)"));
        };
        let max: u32 = max.parse().map_err(|_| bad(max, "retry max"))?;
        if max == 0 {
            return Err(bad(s, "retry max (must be positive)"));
        }
        let base: u64 = base.parse().map_err(|_| bad(base, "retry base backoff"))?;
        if base == 0 {
            return Err(bad(s, "retry base backoff (must be positive)"));
        }
        Ok(RetryPolicy { max, base })
    }
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.max, self.base)
    }
}

/// Edge admission-control policy: arrivals that fail the check are shed at
/// injection (refused before any goal is created) instead of melting the
/// machine down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Shed when the entry PE already holds at least `max` queued goals.
    QueueDepth { max: u64 },
    /// Shed when at least this fraction of PEs are mid-execution.
    Utilization { threshold: f64 },
    /// Token bucket: capacity `burst` tokens, refilled at `rate` per
    /// [`RATE_UNIT`]; an arrival that finds no whole token is shed.
    TokenBucket { rate: f64, burst: u64 },
}

impl FromStr for AdmissionPolicy {
    type Err = ParseOverloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |tok: &str, what: &str| {
            ParseOverloadError(format!("bad {what} {tok:?}; expected {ADMISSION_GRAMMAR}"))
        };
        let Some((kind, args)) = s.split_once(':') else {
            return Err(bad(s, "admission policy (missing `:`)"));
        };
        match kind {
            "queue" => {
                let max: u64 = args.parse().map_err(|_| bad(args, "queue depth"))?;
                if max == 0 {
                    return Err(bad(args, "queue depth (must be positive)"));
                }
                Ok(AdmissionPolicy::QueueDepth { max })
            }
            "util" => {
                let threshold: f64 = args
                    .parse()
                    .map_err(|_| bad(args, "utilization threshold"))?;
                if !threshold.is_finite() || threshold <= 0.0 || threshold > 1.0 {
                    return Err(bad(args, "utilization threshold (must be in (0, 1])"));
                }
                Ok(AdmissionPolicy::Utilization { threshold })
            }
            "bucket" => {
                let Some((rate, burst)) = args.split_once('x') else {
                    return Err(bad(args, "token bucket (need RATExBURST)"));
                };
                let rate: f64 = rate.parse().map_err(|_| bad(rate, "token-bucket rate"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(bad(args, "token-bucket rate (must be positive)"));
                }
                let burst: u64 = burst
                    .parse()
                    .map_err(|_| bad(burst, "token-bucket burst"))?;
                if burst == 0 {
                    return Err(bad(args, "token-bucket burst (must be positive)"));
                }
                Ok(AdmissionPolicy::TokenBucket { rate, burst })
            }
            other => Err(bad(other, "admission policy kind")),
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionPolicy::QueueDepth { max } => write!(f, "queue:{max}"),
            AdmissionPolicy::Utilization { threshold } => write!(f, "util:{threshold}"),
            AdmissionPolicy::TokenBucket { rate, burst } => write!(f, "bucket:{rate}x{burst}"),
        }
    }
}

/// Open-traffic configuration, carried on
/// [`MachineConfig::open`](crate::config::MachineConfig::open). `None`
/// there means the classic closed run (one root goal, run to completion).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenTraffic {
    /// When and where requests arrive.
    pub arrivals: ArrivalSpec,
    /// Simulated end of the run: arrivals stop at this time and the run
    /// ends at the first event at or past it.
    pub duration: u64,
    /// Completions before this time are excluded from the steady-state
    /// statistics (the warmup window).
    pub warmup: u64,
    /// Saturation trip wire: the run ends with a `Saturated` outcome as
    /// soon as this many requests are in flight at once. 0 selects an
    /// automatic threshold of `32 * num_pes + 256`.
    pub saturation_inflight: u64,
    /// Per-request deadline: a request whose sojourn exceeds this many
    /// time units is a dead loss (abandoned), not a success — the client
    /// already walked away. The deadline clock starts at the *original*
    /// arrival instant and is never reset by retries. `None` disables.
    pub deadline: Option<u64>,
    /// Retry lost requests with exponential backoff + jitter.
    /// `None` disables.
    pub retry: Option<RetryPolicy>,
    /// Edge admission control: shed arrivals at injection. `None` admits
    /// everything.
    pub admission: Option<AdmissionPolicy>,
    /// Per-region circuit breaker: once a neighbour crashes or its link
    /// drops, stop routing new subtrees toward it; after the link
    /// recovers, keep the breaker half-open for this many time units
    /// before trusting the region again. `None` disables.
    pub breaker: Option<u64>,
}

impl OpenTraffic {
    /// An open run with the given arrivals and duration, default warmup
    /// (one tenth of the duration), automatic saturation threshold, and
    /// every overload-protection knob off.
    pub fn new(arrivals: ArrivalSpec, duration: u64) -> Self {
        OpenTraffic {
            arrivals,
            duration,
            warmup: duration / 10,
            saturation_inflight: 0,
            deadline: None,
            retry: None,
            admission: None,
            breaker: None,
        }
    }

    /// Is any overload-protection mechanism configured?
    pub fn protected(&self) -> bool {
        self.deadline.is_some()
            || self.retry.is_some()
            || self.admission.is_some()
            || self.breaker.is_some()
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration == 0 {
            return Err("open traffic: duration must be positive".into());
        }
        if self.warmup >= self.duration {
            return Err(format!(
                "open traffic: warmup ({}) must be shorter than duration ({})",
                self.warmup, self.duration
            ));
        }
        if let EdgeSet::List(pes) = &self.arrivals.edges {
            if pes.is_empty() {
                return Err("open traffic: edge PE list must be non-empty".into());
            }
        }
        if self.deadline == Some(0) {
            return Err("open traffic: deadline must be positive".into());
        }
        if let Some(r) = &self.retry {
            if r.max == 0 || r.base == 0 {
                return Err("open traffic: retry max and base must be positive".into());
            }
        }
        if let Some(a) = &self.admission {
            match a {
                AdmissionPolicy::QueueDepth { max } if *max == 0 => {
                    return Err("open traffic: admission queue depth must be positive".into());
                }
                AdmissionPolicy::Utilization { threshold }
                    if !threshold.is_finite() || *threshold <= 0.0 || *threshold > 1.0 =>
                {
                    return Err(
                        "open traffic: admission utilization threshold must be in (0, 1]".into(),
                    );
                }
                AdmissionPolicy::TokenBucket { rate, burst }
                    if !rate.is_finite() || *rate <= 0.0 || *burst == 0 =>
                {
                    return Err("open traffic: token-bucket rate and burst must be positive".into());
                }
                _ => {}
            }
        }
        if self.breaker == Some(0) {
            return Err("open traffic: breaker cooldown must be positive".into());
        }
        Ok(())
    }
}

/// One entry of a replayable arrival trace: the arrival instant and an
/// optional explicit entry PE (falling back to the spec's edge set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceArrival {
    pub at: u64,
    pub pe: Option<u32>,
}

/// Header line every arrival trace file must start with.
pub const ARRIVAL_TRACE_HEADER: &str = "oracle-arrivals-v1";

/// Parse (and validate) the arrival-trace text format:
///
/// ```text
/// oracle-arrivals-v1
/// # comment lines and blank lines are ignored
/// 120          # a request arrives at t=120, PE chosen by the edge set
/// 340 7        # a request arrives at t=340 at PE 7
/// ```
///
/// The first non-blank, non-comment line must be the
/// [`ARRIVAL_TRACE_HEADER`]; times must be non-decreasing. Errors name the
/// line number and the offending token.
pub fn parse_arrival_trace(text: &str) -> Result<Vec<TraceArrival>, ParseArrivalError> {
    let mut entries = Vec::new();
    let mut saw_header = false;
    let mut last_at = 0u64;
    for (i, raw) in text.lines().enumerate() {
        let line = match raw.split_once('#') {
            Some((body, _)) => body.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        if !saw_header {
            if line != ARRIVAL_TRACE_HEADER {
                return Err(ParseArrivalError(format!(
                    "arrival trace line {lineno}: expected header {ARRIVAL_TRACE_HEADER:?}, \
                     found {line:?}"
                )));
            }
            saw_header = true;
            continue;
        }
        let mut fields = line.split_whitespace();
        let at_tok = fields.next().expect("non-empty line has a first field");
        let at: u64 = at_tok.parse().map_err(|_| {
            ParseArrivalError(format!(
                "arrival trace line {lineno}: bad arrival time {at_tok:?} (expected \
                 a non-negative integer)"
            ))
        })?;
        let pe = match fields.next() {
            Some(tok) => Some(tok.parse().map_err(|_| {
                ParseArrivalError(format!(
                    "arrival trace line {lineno}: bad PE id {tok:?} (expected a \
                     non-negative integer)"
                ))
            })?),
            None => None,
        };
        if let Some(extra) = fields.next() {
            return Err(ParseArrivalError(format!(
                "arrival trace line {lineno}: unexpected token {extra:?} (entries are \
                 `TIME [PE]`)"
            )));
        }
        if at < last_at {
            return Err(ParseArrivalError(format!(
                "arrival trace line {lineno}: time {at} goes backwards (previous entry \
                 was {last_at}; times must be non-decreasing)"
            )));
        }
        last_at = at;
        entries.push(TraceArrival { at, pe });
    }
    if !saw_header {
        return Err(ParseArrivalError(format!(
            "arrival trace: missing {ARRIVAL_TRACE_HEADER:?} header line"
        )));
    }
    Ok(entries)
}

/// The mutable part of an arrival process mid-run (the immutable
/// parameters stay on the [`ArrivalProcess`] in the config).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProcessState {
    Poisson {
        rate: f64,
    },
    Burst {
        hi: f64,
        lo: f64,
        on_len: u64,
        off_len: u64,
        /// Currently in the on-phase?
        on: bool,
        /// Absolute time the current phase ends.
        phase_end: u64,
    },
    Diurnal {
        peak: f64,
        period: u64,
    },
    Trace {
        entries: Vec<TraceArrival>,
        /// Next entry to replay.
        idx: usize,
    },
}

/// One in-flight request: its external id, arrival instant, and how many
/// times the retry layer has re-injected it (0 for the first attempt; the
/// deadline clock always runs from `arrived`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Inflight {
    pub(crate) request: u64,
    pub(crate) arrived: u64,
    pub(crate) attempts: u32,
}

/// Runtime state of an open-traffic run. Boxed on the `Core` so closed
/// runs pay one null check, and fully snapshot-encoded (minus the
/// immutable bits, which are rebuilt from the config on restore).
#[derive(Debug)]
pub(crate) struct OpenState {
    /// Dedicated RNG stream for interarrival draws.
    pub(crate) rng: Rng,
    pub(crate) process: ProcessState,
    /// Resolved entry PEs (never empty).
    pub(crate) edges: Vec<u32>,
    /// Round-robin cursor into `edges`.
    pub(crate) edge_idx: u32,
    pub(crate) duration: u64,
    pub(crate) warmup: u64,
    /// Effective saturation threshold (auto already resolved).
    pub(crate) threshold: u64,
    /// Next external request id.
    pub(crate) next_request: u64,
    /// Root goal id -> in-flight request.
    pub(crate) inflight: FastHashMap<GoalId, Inflight>,
    pub(crate) arrivals_total: u64,
    pub(crate) completions_total: u64,
    /// Sojourn times of requests completing inside the measurement window.
    pub(crate) sojourn: LogHistogram,
    pub(crate) sojourn_stats: OnlineStats,
    /// `Some((time, inflight))` once the trip wire fired.
    pub(crate) saturated: Option<(u64, u64)>,
    /// Time-weighted queue-length distribution: current total queued
    /// goals, the time of the last transition, and the histogram weighted
    /// by time spent at each length (inside the measurement window).
    pub(crate) qlen_cur: u64,
    pub(crate) qlen_last: u64,
    pub(crate) qlen_hist: LogHistogram,
    // --- overload protection (immutable knobs copied from the config) ---
    pub(crate) deadline: Option<u64>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) admission: Option<AdmissionPolicy>,
    pub(crate) breaker_cooldown: Option<u64>,
    // --- overload protection (mutable runtime state) ---
    /// Dedicated RNG stream for retry-backoff jitter.
    pub(crate) retry_rng: Rng,
    /// Token-bucket level (whole + fractional tokens) and the instant of
    /// the last refill.
    pub(crate) tokens: f64,
    pub(crate) tokens_last: u64,
    /// Requests between attempts: root goal lost, re-injection scheduled.
    /// Keyed by the *dead* root goal id the pending `Retry` event carries.
    pub(crate) retry_pending: FastHashMap<GoalId, Inflight>,
    /// Circuit-breaker table: `(pe, neighbour) -> blocked-until`.
    /// `u64::MAX` while the fault persists; a finite instant is the
    /// half-open window after recovery. Entries are dropped lazily once
    /// the window passes.
    pub(crate) breaker: FastHashMap<(u32, u32), u64>,
    // --- overload counters ---
    /// Arrivals refused at injection (admission control, or no live edge).
    pub(crate) shed_total: u64,
    /// Requests whose sojourn exceeded the deadline (dead losses).
    pub(crate) abandoned_deadline: u64,
    /// Deadline abandonments inside the measurement window (the carried —
    /// but useless — part of throughput).
    pub(crate) abandoned_deadline_measured: u64,
    /// Requests dropped after exhausting the retry budget.
    pub(crate) abandoned_retries: u64,
    /// Re-injections performed.
    pub(crate) retries_total: u64,
    /// Breaker transitions from closed to open.
    pub(crate) breaker_opens: u64,
}

impl OpenState {
    /// Build the runtime state for `open`, resolving edges against the
    /// topology and loading any arrival trace file.
    pub(crate) fn build(
        open: &OpenTraffic,
        seed: u64,
        num_pes: usize,
        root_pe: u32,
    ) -> Result<OpenState, String> {
        open.validate()?;
        let edges = match &open.arrivals.edges {
            EdgeSet::All => (0..num_pes as u32).collect(),
            EdgeSet::Root => vec![root_pe],
            EdgeSet::List(pes) => {
                for &pe in pes {
                    if pe as usize >= num_pes {
                        return Err(format!(
                            "open traffic: edge PE {pe} out of range (topology has \
                             {num_pes} PEs)"
                        ));
                    }
                }
                pes.clone()
            }
        };
        let process = match &open.arrivals.process {
            ArrivalProcess::Poisson { rate } => ProcessState::Poisson { rate: *rate },
            ArrivalProcess::Burst {
                hi,
                lo,
                on_len,
                off_len,
            } => ProcessState::Burst {
                hi: *hi,
                lo: *lo,
                on_len: *on_len,
                off_len: *off_len,
                on: true,
                phase_end: *on_len,
            },
            ArrivalProcess::Diurnal { peak, period } => ProcessState::Diurnal {
                peak: *peak,
                period: *period,
            },
            ArrivalProcess::Trace { path } => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    format!("open traffic: cannot read arrival trace {path:?}: {e}")
                })?;
                let entries = parse_arrival_trace(&text).map_err(|e| e.0)?;
                for e in &entries {
                    if let Some(pe) = e.pe {
                        if pe as usize >= num_pes {
                            return Err(format!(
                                "open traffic: arrival trace names PE {pe}, out of \
                                 range (topology has {num_pes} PEs)"
                            ));
                        }
                    }
                }
                ProcessState::Trace { entries, idx: 0 }
            }
        };
        let threshold = if open.saturation_inflight > 0 {
            open.saturation_inflight
        } else {
            AUTO_SATURATION_PER_PE * num_pes as u64 + AUTO_SATURATION_BASE
        };
        let tokens = match &open.admission {
            Some(AdmissionPolicy::TokenBucket { burst, .. }) => *burst as f64,
            _ => 0.0,
        };
        Ok(OpenState {
            rng: Rng::seed_from_u64(seed ^ ARRIVAL_SEED_SALT),
            process,
            edges,
            edge_idx: 0,
            duration: open.duration,
            warmup: open.warmup,
            threshold,
            next_request: 0,
            inflight: FastHashMap::default(),
            arrivals_total: 0,
            completions_total: 0,
            sojourn: LogHistogram::new(),
            sojourn_stats: OnlineStats::new(),
            saturated: None,
            qlen_cur: 0,
            qlen_last: 0,
            qlen_hist: LogHistogram::new(),
            deadline: open.deadline,
            retry: open.retry,
            admission: open.admission,
            breaker_cooldown: open.breaker,
            retry_rng: Rng::seed_from_u64(seed ^ RETRY_SEED_SALT),
            tokens,
            tokens_last: 0,
            retry_pending: FastHashMap::default(),
            breaker: FastHashMap::default(),
            shed_total: 0,
            abandoned_deadline: 0,
            abandoned_deadline_measured: 0,
            abandoned_retries: 0,
            retries_total: 0,
            breaker_opens: 0,
        })
    }

    /// Exponential interarrival draw at `rate` per [`RATE_UNIT`], rounded
    /// up to at least one time unit.
    fn exp_draw(rng: &mut Rng, rate: f64) -> u64 {
        let u = rng.f64();
        let dt = -(1.0 - u).ln() * (RATE_UNIT / rate);
        (dt.ceil() as u64).max(1)
    }

    /// The next arrival instant strictly after `from`, or `None` once the
    /// process is exhausted or past `duration`. For trace replay this
    /// peeks (the cursor advances in [`OpenState::trace_pe_override`] when
    /// the arrival fires), so repeated calls without a fire are idempotent.
    pub(crate) fn next_arrival(&mut self, from: u64) -> Option<u64> {
        let at = match &mut self.process {
            ProcessState::Poisson { rate } => {
                let rate = *rate;
                from + Self::exp_draw(&mut self.rng, rate)
            }
            ProcessState::Burst {
                hi,
                lo,
                on_len,
                off_len,
                on,
                phase_end,
            } => {
                // Memorylessness makes the phase boundary exact: a
                // candidate past the boundary is discarded, the clock
                // jumps to the boundary, and the draw repeats at the new
                // phase's rate.
                let (hi, lo, on_len, off_len) = (*hi, *lo, *on_len, *off_len);
                let mut t = from;
                loop {
                    let rate = if *on { hi } else { lo };
                    let cand = if rate > 0.0 {
                        t.saturating_add(Self::exp_draw(&mut self.rng, rate))
                    } else {
                        u64::MAX
                    };
                    if cand < *phase_end {
                        break cand;
                    }
                    t = *phase_end;
                    *on = !*on;
                    *phase_end = phase_end.saturating_add(if *on { on_len } else { off_len });
                    if t >= self.duration {
                        return None; // phase-hops past the horizon
                    }
                }
            }
            ProcessState::Diurnal { peak, period } => {
                // Thinning against the peak rate: candidate arrivals at
                // `peak`, each kept with probability rate(t)/peak. The
                // instantaneous rate never drops below 10% of peak, so
                // the rejection loop terminates quickly.
                let (peak, period) = (*peak, *period);
                let mut t = from;
                loop {
                    t = t.saturating_add(Self::exp_draw(&mut self.rng, peak));
                    if t >= self.duration {
                        return None;
                    }
                    let phase = 2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64;
                    let frac = 0.55 + 0.45 * phase.sin();
                    if self.rng.f64() < frac {
                        break t;
                    }
                }
            }
            ProcessState::Trace { entries, idx } => {
                let e = entries.get(*idx)?;
                e.at
            }
        };
        (at < self.duration).then_some(at)
    }

    /// For trace replay: the explicit PE of the entry that just fired (and
    /// advance the cursor). `None` for stochastic processes or entries
    /// without a PE column.
    pub(crate) fn trace_pe_override(&mut self) -> Option<u32> {
        if let ProcessState::Trace { entries, idx } = &mut self.process {
            let pe = entries.get(*idx).and_then(|e| e.pe);
            *idx += 1;
            pe
        } else {
            None
        }
    }

    /// Account a queued-goal transition for the time-weighted queue-length
    /// distribution. `delta` is the change in total queued goals.
    pub(crate) fn note_qlen(&mut self, now: u64, delta: i64) {
        self.flush_qlen(now);
        if delta >= 0 {
            self.qlen_cur += delta as u64;
        } else {
            self.qlen_cur = self.qlen_cur.saturating_sub((-delta) as u64);
        }
    }

    /// Fold the span since the last transition into the histogram (clipped
    /// to the measurement window) and move the cursor to `now`.
    pub(crate) fn flush_qlen(&mut self, now: u64) {
        let start = self.qlen_last.max(self.warmup);
        let end = now.min(self.duration);
        if end > start {
            self.qlen_hist.record_n(self.qlen_cur, end - start);
        }
        self.qlen_last = now;
    }

    /// Requests currently in the system: routed subtrees plus requests
    /// waiting out a retry backoff. The saturation trip wire and the
    /// conservation identity both count this.
    pub(crate) fn requests_in_system(&self) -> u64 {
        self.inflight.len() as u64 + self.retry_pending.len() as u64
    }

    /// Total dead losses: deadline misses plus retry exhaustions.
    pub(crate) fn abandoned_total(&self) -> u64 {
        self.abandoned_deadline + self.abandoned_retries
    }

    /// Token-bucket admission check: refill by elapsed time, then try to
    /// take one whole token. Pure state machine — no RNG draws.
    pub(crate) fn bucket_admit(&mut self, now: u64, rate: f64, burst: u64) -> bool {
        let elapsed = now.saturating_sub(self.tokens_last);
        self.tokens = (self.tokens + elapsed as f64 * rate / RATE_UNIT).min(burst as f64);
        self.tokens_last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Backoff before re-injection attempt number `attempts + 1`:
    /// exponential in the attempt count (capped at 2^10), scaled by a
    /// jitter factor uniform in [0.5, 1.5) from the dedicated retry
    /// stream, and at least one time unit.
    pub(crate) fn retry_backoff(&mut self, base: u64, attempts: u32) -> u64 {
        let window = base.saturating_mul(1u64 << attempts.min(10));
        let jitter = 0.5 + self.retry_rng.f64();
        ((window as f64 * jitter).ceil() as u64).max(1)
    }

    /// Is routing from `pe` toward `nbr` currently blocked by the breaker?
    pub(crate) fn breaker_blocked(&self, now: u64, pe: u32, nbr: u32) -> bool {
        self.breaker
            .get(&(pe, nbr))
            .is_some_and(|&until| now < until)
    }

    /// Open the breaker from `pe` toward `nbr` (the neighbourhood crashed
    /// or its link dropped). Counts a transition only when the breaker was
    /// not already open.
    pub(crate) fn breaker_open(&mut self, pe: u32, nbr: u32) {
        if self.breaker.insert((pe, nbr), u64::MAX) != Some(u64::MAX) {
            self.breaker_opens += 1;
        }
    }

    /// The fault toward `nbr` recovered: move the breaker to half-open —
    /// still blocked for the cooldown window, then trusted again (the
    /// entry is dropped lazily by [`OpenState::breaker_blocked`] readers
    /// at snapshot-stable times; expiry is purely time-based).
    pub(crate) fn breaker_recover(&mut self, now: u64, pe: u32, nbr: u32) {
        let cooldown = self.breaker_cooldown.unwrap_or(0);
        if self.breaker.contains_key(&(pe, nbr)) {
            self.breaker.insert((pe, nbr), now.saturating_add(cooldown));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_display() {
        let specs = [
            "poisson:4.5",
            "poisson:2@root",
            "burst:8x0.5x2000x6000",
            "burst:8x0x2000x6000@3,7,11",
            "diurnal:6x20000",
            "trace:suites/arrivals.txt@0",
        ];
        for s in specs {
            let spec: ArrivalSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            let again: ArrivalSpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn parse_errors_name_token_and_grammar() {
        let cases = [
            ("poisson", "poisson"),     // missing `:`
            ("poisson:abc", "\"abc\""), // bad rate token
            ("poisson:0", "\"0\""),     // zero rate
            ("burst:1x2x3", "1x2x3"),   // wrong arity
            ("burst:1x2x0x5", "\"0\""), // zero phase length
            ("nope:3", "\"nope\""),     // unknown kind
            ("poisson:1@", "edge set"), // empty edge set
            ("poisson:1@zz", "\"zz\""), // bad PE id
        ];
        for (input, needle) in cases {
            let err = input.parse::<ArrivalSpec>().unwrap_err();
            assert!(
                err.0.contains(needle),
                "{input:?}: error {:?} does not name {needle:?}",
                err.0
            );
            assert!(
                err.0.contains("poisson:RATE"),
                "{input:?}: error {:?} does not quote the grammar",
                err.0
            );
        }
    }

    #[test]
    fn trace_format_parses_and_validates() {
        let good = "# demo\noracle-arrivals-v1\n10\n20 3 # at PE 3\n\n20\n";
        let entries = parse_arrival_trace(good).unwrap();
        assert_eq!(
            entries,
            vec![
                TraceArrival { at: 10, pe: None },
                TraceArrival {
                    at: 20,
                    pe: Some(3)
                },
                TraceArrival { at: 20, pe: None },
            ]
        );

        let cases = [
            ("10\n20\n", "header"),
            ("oracle-arrivals-v1\nxyz\n", "line 2"),
            ("oracle-arrivals-v1\n10 zz\n", "\"zz\""),
            ("oracle-arrivals-v1\n10 3 4\n", "\"4\""),
            ("oracle-arrivals-v1\n30\n10\n", "backwards"),
        ];
        for (input, needle) in cases {
            let err = parse_arrival_trace(input).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{input:?}: error {:?} does not name {needle:?}",
                err.0
            );
        }
    }

    #[test]
    fn open_traffic_validates_windows() {
        let spec: ArrivalSpec = "poisson:2".parse().unwrap();
        let ok = OpenTraffic::new(spec, 10_000);
        assert_eq!(ok.warmup, 1000);
        ok.validate().unwrap();
        let bad = OpenTraffic {
            warmup: 10_000,
            ..ok.clone()
        };
        assert!(bad.validate().unwrap_err().contains("warmup"));
        let bad = OpenTraffic {
            duration: 0,
            warmup: 0,
            ..ok
        };
        assert!(bad.validate().unwrap_err().contains("duration"));
    }

    #[test]
    fn poisson_interarrivals_are_deterministic_and_plausible() {
        let spec: ArrivalSpec = "poisson:10".parse().unwrap();
        let open = OpenTraffic::new(spec, 1_000_000);
        let mut a = OpenState::build(&open, 42, 4, 0).unwrap();
        let mut b = OpenState::build(&open, 42, 4, 0).unwrap();
        let mut t = 0;
        let mut n = 0u64;
        while let Some(next) = a.next_arrival(t) {
            assert_eq!(b.next_arrival(t), Some(next), "streams diverge at {t}");
            assert!(next > t);
            t = next;
            n += 1;
        }
        // ~10 per 1000 units over 1M units => ~10_000 arrivals.
        assert!((8_000..12_000).contains(&n), "{n} arrivals");
    }

    #[test]
    fn burst_respects_phases() {
        // hi=20/k during [0,1000), lo=0 during [1000,2000), repeating.
        let spec: ArrivalSpec = "burst:20x0x1000x1000".parse().unwrap();
        let open = OpenTraffic::new(spec, 100_000);
        let mut st = OpenState::build(&open, 7, 4, 0).unwrap();
        let mut t = 0;
        let mut in_off = 0u64;
        let mut total = 0u64;
        while let Some(next) = st.next_arrival(t) {
            if (next / 1000) % 2 == 1 {
                in_off += 1;
            }
            total += 1;
            t = next;
        }
        assert_eq!(in_off, 0, "arrivals fired inside the off-phase");
        assert!(total > 500, "only {total} arrivals");
    }

    #[test]
    fn trace_replay_returns_exact_schedule() {
        let dir = std::env::temp_dir().join(format!(
            "oracle-open-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arr.txt");
        std::fs::write(&path, "oracle-arrivals-v1\n5\n9 1\n14\n").unwrap();
        let spec: ArrivalSpec = format!("trace:{}", path.display()).parse().unwrap();
        let open = OpenTraffic::new(spec, 12); // duration cuts off the 14
        let mut st = OpenState::build(&open, 1, 2, 0).unwrap();
        assert_eq!(st.next_arrival(0), Some(5));
        assert_eq!(st.trace_pe_override(), None);
        assert_eq!(st.next_arrival(5), Some(9));
        assert_eq!(st.trace_pe_override(), Some(1));
        assert_eq!(st.next_arrival(9), None); // 14 >= duration
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_and_admission_specs_round_trip() {
        for s in ["3x200", "1x1", "10x5000"] {
            let p: RetryPolicy = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        for s in ["queue:64", "util:0.9", "bucket:12x32", "bucket:4.5x8"] {
            let a: AdmissionPolicy = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
            let again: AdmissionPolicy = a.to_string().parse().unwrap();
            assert_eq!(again, a);
        }
    }

    #[test]
    fn retry_and_admission_parse_errors_quote_grammar() {
        for s in ["3", "0x200", "3x0", "zzx200", "3xzz"] {
            let err = s.parse::<RetryPolicy>().unwrap_err();
            assert!(err.0.contains("MAXxBASE"), "{s:?}: {}", err.0);
        }
        for s in [
            "queue",
            "queue:0",
            "queue:zz",
            "util:0",
            "util:1.5",
            "util:nan",
            "bucket:5",
            "bucket:0x5",
            "bucket:5x0",
            "nope:3",
        ] {
            let err = s.parse::<AdmissionPolicy>().unwrap_err();
            assert!(err.0.contains("queue:MAX"), "{s:?}: {}", err.0);
        }
    }

    #[test]
    fn overload_knobs_validate() {
        let spec: ArrivalSpec = "poisson:2".parse().unwrap();
        let base = OpenTraffic::new(spec, 10_000);
        assert!(!base.protected());
        let mut ok = base.clone();
        ok.deadline = Some(2_000);
        ok.retry = Some("3x200".parse().unwrap());
        ok.admission = Some("bucket:8x16".parse().unwrap());
        ok.breaker = Some(400);
        assert!(ok.protected());
        ok.validate().unwrap();

        let bad = OpenTraffic {
            deadline: Some(0),
            ..base.clone()
        };
        assert!(bad.validate().unwrap_err().contains("deadline"));
        let bad = OpenTraffic {
            breaker: Some(0),
            ..base.clone()
        };
        assert!(bad.validate().unwrap_err().contains("breaker"));
        let bad = OpenTraffic {
            retry: Some(RetryPolicy { max: 0, base: 10 }),
            ..base.clone()
        };
        assert!(bad.validate().unwrap_err().contains("retry"));
        let bad = OpenTraffic {
            admission: Some(AdmissionPolicy::Utilization { threshold: 2.0 }),
            ..base
        };
        assert!(bad.validate().unwrap_err().contains("utilization"));
    }

    fn overload_state(admission: &str) -> OpenState {
        let spec: ArrivalSpec = "poisson:2".parse().unwrap();
        let mut open = OpenTraffic::new(spec, 10_000);
        open.retry = Some("3x200".parse().unwrap());
        open.admission = Some(admission.parse().unwrap());
        open.breaker = Some(500);
        OpenState::build(&open, 9, 4, 0).unwrap()
    }

    #[test]
    fn token_bucket_refills_and_sheds() {
        let mut st = overload_state("bucket:10x2");
        // Starts full: two tokens, third arrival at t=0 is shed.
        assert!(st.bucket_admit(0, 10.0, 2));
        assert!(st.bucket_admit(0, 10.0, 2));
        assert!(!st.bucket_admit(0, 10.0, 2));
        // 10 per 1000 units -> one token per 100 units.
        assert!(!st.bucket_admit(50, 10.0, 2));
        assert!(st.bucket_admit(150, 10.0, 2));
        // Refill caps at burst.
        assert!(st.bucket_admit(100_000, 10.0, 2));
        assert!(st.bucket_admit(100_000, 10.0, 2));
        assert!(!st.bucket_admit(100_000, 10.0, 2));
    }

    #[test]
    fn retry_backoff_is_jittered_exponential_and_deterministic() {
        let mut a = overload_state("queue:64");
        let mut b = overload_state("queue:64");
        for attempts in 0..6u32 {
            let base = 200u64;
            let d = a.retry_backoff(base, attempts);
            assert_eq!(d, b.retry_backoff(base, attempts), "streams diverged");
            let window = base * (1 << attempts);
            let lo = window / 2;
            let hi = window + window / 2 + 1;
            assert!(
                (lo..=hi).contains(&d),
                "attempt {attempts}: {d} not in [{lo},{hi}]"
            );
        }
        // The cap keeps the shift in range even for absurd attempt counts.
        assert!(a.retry_backoff(200, 200) >= 1);
    }

    #[test]
    fn breaker_state_machine_opens_and_recovers() {
        let mut st = overload_state("queue:64");
        assert!(!st.breaker_blocked(100, 0, 1));
        st.breaker_open(0, 1);
        assert_eq!(st.breaker_opens, 1);
        st.breaker_open(0, 1); // idempotent while open
        assert_eq!(st.breaker_opens, 1);
        assert!(
            st.breaker_blocked(u64::MAX - 1, 0, 1),
            "open blocks forever"
        );
        // Recovery at t=1000 with cooldown 500: blocked until 1500.
        st.breaker_recover(1000, 0, 1);
        assert!(st.breaker_blocked(1499, 0, 1));
        assert!(!st.breaker_blocked(1500, 0, 1));
        // Re-opening after recovery counts a fresh transition.
        st.breaker_open(0, 1);
        assert_eq!(st.breaker_opens, 2);
        // Recovery of an untracked pair is a no-op.
        st.breaker_recover(0, 2, 3);
        assert!(!st.breaker_blocked(0, 2, 3));
    }

    #[test]
    fn qlen_tracker_is_time_weighted_and_window_clipped() {
        let spec: ArrivalSpec = "poisson:1".parse().unwrap();
        let open = OpenTraffic {
            warmup: 100,
            ..OpenTraffic::new(spec, 1000)
        };
        let mut st = OpenState::build(&open, 1, 2, 0).unwrap();
        st.note_qlen(50, 1); // len 1 from t=50, but warmup clips [50,100)
        st.note_qlen(300, 1); // len 1 over [100,300) => 200 units at 1
        st.note_qlen(400, -1); // len 2 over [300,400) => 100 units at 2
        st.flush_qlen(500); // len 1 over [400,500) => 100 units at 1
        let (buckets, total, _, max) = st.qlen_hist.raw_parts();
        assert_eq!(total, 400);
        assert_eq!(max, 2);
        assert_eq!(buckets[1], 300);
        assert_eq!(buckets[2], 100);
    }
}
