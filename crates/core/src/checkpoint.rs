//! Crash-safe checkpoint files: versioned on-disk snapshots of a running
//! simulation.
//!
//! A checkpoint file carries two things:
//!
//! 1. The full [`RunConfig`] — topology, strategy, and workload specs (in
//!    their compact string grammars), the cost model, and every machine
//!    knob including the fault plan. Resuming rebuilds the immutable half
//!    of the machine from this, so a checkpoint is self-contained: no
//!    flags need repeating on the resume command line.
//! 2. The machine snapshot blob ([`Machine::snapshot_bytes`]) — every
//!    piece of mutable run state, down to RNG words and raw IEEE-754
//!    statistics bits.
//!
//! Because the simulator is deterministic and the snapshot captures all
//! mutable state, a resumed run produces a **bit-identical** final report
//! to the uninterrupted run (`tests/robustness.rs` pins this per
//! strategy and under active fault plans).
//!
//! Files are written atomically: the blob goes to a temporary file in the
//! target directory which is then renamed into place, so a crash mid-write
//! can leave a stale temp file behind but never a torn checkpoint.

use std::fmt;
use std::path::{Path, PathBuf};

use oracle_des::snapshot::{SnapError, SnapReader, SnapWriter};
use oracle_model::config::{LoadInfoMode, QueueDiscipline};
use oracle_model::{CostModel, Machine, MachineConfig, Report, SimError};

use crate::builder::RunConfig;

/// Magic prefix of a checkpoint file (`"OCKP"`).
pub const CHECKPOINT_MAGIC: u32 = 0x4F43_4B50;
/// Version of the checkpoint layout. Bumped on any layout change; reading
/// refuses other versions rather than guessing.
///
/// v2 added the open-traffic configuration (arrival spec, measurement
/// windows, saturation threshold) alongside the v2 machine snapshot.
///
/// v3 added the overload-protection knobs (deadline, retry policy,
/// admission policy, breaker cooldown) alongside the v3 machine snapshot.
///
/// v4 added the progress-watchdog window (`progress_window`) — a resumed
/// run must arm its stall detector exactly like the uninterrupted one.
///
/// v5 added the memory-model knobs (the since-removed state-mode byte,
/// `per_pe_metrics`) alongside the v5 machine snapshot: the restored
/// machine must pick the same report shape.
///
/// v6 dropped the event-queue backend byte: the machine has one event
/// list, so there is nothing to choose. The machine snapshot is unchanged.
///
/// v7 dropped the state-mode byte: per-PE and per-channel state lives in
/// one paged store whatever the machine size. It embeds the v6 machine
/// snapshot, which encodes that store page by page.
///
/// v8 dropped the `fail_pe` shorthand: a single crash is a `crash:PE@T`
/// term of the fault plan.
///
/// v9 dropped the `count_responses_in_load` and `optimistic_accounting`
/// bytes: the load metric always counts queued goals only, and a PE always
/// bumps its view of a neighbour it forwards a goal to.
///
/// v10 embeds the v7 machine snapshot (a load update carries no payload;
/// every flight carries its sender's load word). The config block is
/// unchanged.
///
/// v11 dropped the root-PE field: a closed run's root goal and `@root`
/// open traffic always start on PE 0. The machine snapshot is unchanged.
pub const CHECKPOINT_VERSION: u32 = 11;

/// Everything that can go wrong writing, reading, or resuming a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, rename, read).
    Io(std::io::Error),
    /// The file is not a checkpoint, is from a different layout version, or
    /// is corrupt or truncated.
    Format(String),
    /// The checkpoint decoded fine but the simulator rejected it (or the
    /// resumed run itself failed).
    Sim(SimError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(msg) => write!(f, "bad checkpoint file: {msg}"),
            CheckpointError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> Self {
        CheckpointError::Format(e.to_string())
    }
}

// ---------------------------------------------------------------------
// RunConfig codec. Specs use their compact string grammars (the same
// round-trippable Display/FromStr pairs the suite parser uses); numeric
// knobs are written field by field.
// ---------------------------------------------------------------------

fn put_config(w: &mut SnapWriter, config: &RunConfig) {
    w.str(&config.topology.to_string());
    w.str(&config.strategy.to_string());
    w.str(&config.workload.to_string());

    let c = &config.costs;
    w.u64(c.split_cost);
    w.u64(c.leaf_cost);
    w.u64(c.combine_cost);
    w.u64(c.goal_hop_cost);
    w.u64(c.response_hop_cost);
    w.u64(c.control_hop_cost);
    w.u64(c.software_routing_cost);

    let m = &config.machine;
    w.u64(m.seed);
    w.u64(m.sampling_interval);
    match m.load_info {
        LoadInfoMode::Piggyback { period } => {
            w.u8(0);
            w.u64(period);
        }
        LoadInfoMode::Instant => w.u8(1),
    }
    w.u32(m.future_commitment_weight);
    w.bool(m.coprocessor);
    w.bool(m.per_pe_series);
    w.bool(m.per_pe_metrics);
    w.u64(m.max_events);
    w.u64(m.progress_window);
    w.usize(m.trace_capacity);
    w.u8(match m.queue_discipline {
        QueueDiscipline::Fifo => 0,
        QueueDiscipline::Lifo => 1,
        QueueDiscipline::DeepestFirst => 2,
    });
    w.str(&m.fault_plan.to_string());
    w.u64(m.audit_every);
    match &m.open {
        Some(open) => {
            w.bool(true);
            w.str(&open.arrivals.to_string());
            w.u64(open.duration);
            w.u64(open.warmup);
            w.u64(open.saturation_inflight);
            match open.deadline {
                Some(d) => {
                    w.bool(true);
                    w.u64(d);
                }
                None => w.bool(false),
            }
            // Retry and admission policies travel in their compact string
            // grammars (the same round-trippable Display/FromStr pairs the
            // CLI flags use).
            match &open.retry {
                Some(p) => {
                    w.bool(true);
                    w.str(&p.to_string());
                }
                None => w.bool(false),
            }
            match &open.admission {
                Some(p) => {
                    w.bool(true);
                    w.str(&p.to_string());
                }
                None => w.bool(false),
            }
            match open.breaker {
                Some(c) => {
                    w.bool(true);
                    w.u64(c);
                }
                None => w.bool(false),
            }
        }
        None => w.bool(false),
    }
    w.u64(m.pe_speed_spread);
}

fn get_config(r: &mut SnapReader) -> Result<RunConfig, CheckpointError> {
    let parse = |what: &'static str, s: &str, e: String| {
        CheckpointError::Format(format!("bad {what} spec {s:?}: {e}"))
    };
    let topology = r.str()?;
    let topology = topology
        .parse()
        .map_err(|e: oracle_topo::spec::ParseSpecError| {
            parse("topology", topology, e.to_string())
        })?;
    let strategy = r.str()?;
    let strategy = strategy
        .parse()
        .map_err(|e: oracle_strategies::spec::ParseStrategyError| {
            parse("strategy", strategy, e.to_string())
        })?;
    let workload = r.str()?;
    let workload = workload
        .parse()
        .map_err(|e: oracle_workloads::spec::ParseWorkloadError| {
            parse("workload", workload, e.to_string())
        })?;

    let costs = CostModel {
        split_cost: r.u64()?,
        leaf_cost: r.u64()?,
        combine_cost: r.u64()?,
        goal_hop_cost: r.u64()?,
        response_hop_cost: r.u64()?,
        control_hop_cost: r.u64()?,
        software_routing_cost: r.u64()?,
    };

    let seed = r.u64()?;
    let sampling_interval = r.u64()?;
    let load_info = match r.u8()? {
        0 => LoadInfoMode::Piggyback { period: r.u64()? },
        1 => LoadInfoMode::Instant,
        t => {
            return Err(CheckpointError::Format(format!(
                "unknown load-info mode tag {t}"
            )))
        }
    };
    let future_commitment_weight = r.u32()?;
    let coprocessor = r.bool()?;
    let per_pe_series = r.bool()?;
    let per_pe_metrics = r.bool()?;
    let max_events = r.u64()?;
    let progress_window = r.u64()?;
    let trace_capacity = r.usize()?;
    let queue_discipline = match r.u8()? {
        0 => QueueDiscipline::Fifo,
        1 => QueueDiscipline::Lifo,
        2 => QueueDiscipline::DeepestFirst,
        t => {
            return Err(CheckpointError::Format(format!(
                "unknown queue-discipline tag {t}"
            )))
        }
    };
    let fault_plan = r.str()?;
    let fault_plan =
        fault_plan
            .parse()
            .map_err(|e: oracle_model::faults::ParseFaultPlanError| {
                parse("fault-plan", fault_plan, e.to_string())
            })?;
    let audit_every = r.u64()?;
    let open = if r.bool()? {
        let arrivals = r.str()?;
        let arrivals = arrivals
            .parse()
            .map_err(|e: oracle_model::ParseArrivalError| {
                parse("arrival", arrivals, e.to_string())
            })?;
        let duration = r.u64()?;
        let warmup = r.u64()?;
        let saturation_inflight = r.u64()?;
        let deadline = if r.bool()? { Some(r.u64()?) } else { None };
        let retry =
            if r.bool()? {
                let s = r.str()?;
                Some(s.parse().map_err(|e: oracle_model::ParseOverloadError| {
                    parse("retry", s, e.to_string())
                })?)
            } else {
                None
            };
        let admission = if r.bool()? {
            let s = r.str()?;
            Some(s.parse().map_err(|e: oracle_model::ParseOverloadError| {
                parse("admission", s, e.to_string())
            })?)
        } else {
            None
        };
        let breaker = if r.bool()? { Some(r.u64()?) } else { None };
        Some(oracle_model::OpenTraffic {
            arrivals,
            duration,
            warmup,
            saturation_inflight,
            deadline,
            retry,
            admission,
            breaker,
        })
    } else {
        None
    };
    let pe_speed_spread = r.u64()?;

    Ok(RunConfig {
        topology,
        strategy,
        workload,
        costs,
        machine: MachineConfig {
            seed,
            sampling_interval,
            load_info,
            future_commitment_weight,
            coprocessor,
            per_pe_series,
            per_pe_metrics,
            max_events,
            progress_window,
            trace_capacity,
            // Observability knobs: the trace ring mode and the profiler are
            // not part of a snapshot (a resumed run's trace/profile start at
            // the resume point), so checkpoints don't persist them.
            trace_mode: oracle_model::TraceMode::default(),
            profile: false,
            queue_discipline,
            fault_plan,
            audit_every,
            open,
            pe_speed_spread,
        },
    })
}

/// Serialize a checkpoint: header, run configuration, machine snapshot.
pub fn checkpoint_bytes(config: &RunConfig, machine: &mut Machine) -> Vec<u8> {
    let snapshot = machine.snapshot_bytes();
    let mut w = SnapWriter::with_capacity(snapshot.len() + 256);
    w.u32(CHECKPOINT_MAGIC);
    w.u32(CHECKPOINT_VERSION);
    put_config(&mut w, config);
    w.bytes(&snapshot);
    w.into_bytes()
}

/// A checkpoint read back from disk, ready to resume.
#[derive(Debug)]
pub struct Checkpoint {
    /// The full configuration of the interrupted run.
    pub config: RunConfig,
    /// The machine snapshot blob.
    machine_bytes: Vec<u8>,
}

impl Checkpoint {
    /// Decode a checkpoint blob.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.u32()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Format(format!(
                "not a checkpoint file (magic {magic:#010x}, expected {CHECKPOINT_MAGIC:#010x})"
            )));
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Format(format!(
                "checkpoint layout version {version} is not supported \
                 (this build reads version {CHECKPOINT_VERSION})"
            )));
        }
        let config = get_config(&mut r)?;
        let machine_bytes = r.bytes()?.to_vec();
        r.finish()?;
        Ok(Checkpoint {
            config,
            machine_bytes,
        })
    }

    /// Read and decode a checkpoint file.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Rebuild the machine mid-run: construct it from the stored
    /// configuration, then restore the snapshot *instead of* beginning the
    /// run. The returned machine continues exactly where the checkpoint was
    /// taken. A snapshot the machine refuses is a corrupt file: it reports
    /// as [`CheckpointError::Format`].
    pub fn resume(&self) -> Result<Machine, CheckpointError> {
        let mut machine = self.config.machine()?;
        machine
            .restore_bytes(&self.machine_bytes)
            .map_err(|e| match e {
                SimError::InvalidConfig(msg) => CheckpointError::Format(msg),
                e => CheckpointError::Format(e.to_string()),
            })?;
        Ok(machine)
    }
}

/// Write a checkpoint atomically: serialize to `<dir>/.<name>.tmp-<pid>`,
/// then rename over the final path. A crash mid-write never leaves a torn
/// checkpoint under the final name.
pub fn write_checkpoint(
    path: &Path,
    config: &RunConfig,
    machine: &mut Machine,
) -> Result<(), CheckpointError> {
    let bytes = checkpoint_bytes(config, machine);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path.file_name().ok_or_else(|| {
        CheckpointError::Format(format!("checkpoint path {path:?} has no file name"))
    })?;
    let tmp = dir.unwrap_or(Path::new(".")).join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, &bytes)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Outcome of a checkpointed run: the final report plus every checkpoint
/// file written along the way.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The final report (bit-identical to an un-checkpointed run).
    pub report: Report,
    /// Paths of the checkpoints written, in simulated-time order.
    pub checkpoints: Vec<PathBuf>,
}

/// Run `config` to completion, writing a checkpoint into `dir` every
/// `every` simulated time units (file names are
/// `ckpt-t<simulated-time>.oracle`). Checkpointing is observation only:
/// the final report is bit-identical to a plain [`RunConfig::run`].
pub fn run_with_checkpoints(
    config: &RunConfig,
    every: u64,
    dir: &Path,
) -> Result<CheckpointedRun, CheckpointError> {
    if every == 0 {
        return Err(CheckpointError::Sim(SimError::InvalidConfig(
            "checkpoint interval must be positive".into(),
        )));
    }
    std::fs::create_dir_all(dir)?;
    let mut machine = config.machine()?;
    machine.begin();
    let mut checkpoints = Vec::new();
    loop {
        let pause_at = machine.sim_time().saturating_add(every);
        let done = machine.advance_until(Some(pause_at))?;
        if done {
            break;
        }
        let path = dir.join(format!("ckpt-t{:012}.oracle", machine.sim_time()));
        write_checkpoint(&path, config, &mut machine)?;
        checkpoints.push(path);
    }
    let (report, _) = machine.finish()?;
    Ok(CheckpointedRun {
        report,
        checkpoints,
    })
}

/// Resume a checkpoint file and run to completion.
pub fn resume_run(path: &Path) -> Result<(RunConfig, Report), CheckpointError> {
    let checkpoint = Checkpoint::read(path)?;
    let mut machine = checkpoint.resume()?;
    machine.advance_until(None)?;
    let (report, _) = machine.finish()?;
    Ok((checkpoint.config, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use oracle_strategies::StrategySpec;
    use oracle_topo::TopologySpec;
    use oracle_workloads::WorkloadSpec;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oracle-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_config() -> RunConfig {
        SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(12))
            .seed(41)
            .config()
    }

    #[test]
    fn config_codec_round_trips() {
        let mut config = sample_config();
        config.machine.fault_plan = "crash:3@900+loss:2%+recover:400x5".parse().unwrap();
        config.machine.audit_every = 64;
        config.machine.load_info = LoadInfoMode::Instant;
        config.machine.open = Some(oracle_model::OpenTraffic {
            warmup: 500,
            saturation_inflight: 77,
            deadline: Some(1500),
            retry: Some("3x200".parse().unwrap()),
            admission: Some("bucket:12x5".parse().unwrap()),
            breaker: Some(800),
            ..oracle_model::OpenTraffic::new("burst:8x0.5x2000x6000@3,7".parse().unwrap(), 9000)
        });
        let mut w = SnapWriter::new();
        put_config(&mut w, &config);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let decoded = get_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_every_checkpoint_resumes() {
        let dir = scratch_dir("resume");
        let config = sample_config();
        let plain = config.run().unwrap();
        let checkpointed = run_with_checkpoints(&config, 300, &dir).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", checkpointed.report),
            "checkpointing changed the simulation"
        );
        assert!(
            !checkpointed.checkpoints.is_empty(),
            "no checkpoints were written"
        );
        for path in &checkpointed.checkpoints {
            let (config_back, resumed) = resume_run(path).unwrap();
            assert_eq!(config_back, config);
            assert_eq!(
                format!("{plain:?}"),
                format!("{resumed:?}"),
                "resume from {path:?} diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_run_resumed_mid_measurement_window_is_bit_identical() {
        let dir = scratch_dir("open");
        let mut config = sample_config();
        // Warmup ends at 300; checkpoints every 250 straddle the window
        // boundary, so at least one resume starts mid-measurement.
        config.machine.open = Some(oracle_model::OpenTraffic {
            warmup: 300,
            ..oracle_model::OpenTraffic::new("poisson:6".parse().unwrap(), 3000)
        });
        let plain = config.run().unwrap();
        assert!(plain.open.is_some(), "open run must report open metrics");
        let checkpointed = run_with_checkpoints(&config, 250, &dir).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", checkpointed.report),
            "checkpointing changed the open-traffic simulation"
        );
        assert!(
            checkpointed.checkpoints.len() >= 3,
            "expected several checkpoints, got {:?}",
            checkpointed.checkpoints
        );
        for path in &checkpointed.checkpoints {
            let (config_back, resumed) = resume_run(path).unwrap();
            assert_eq!(config_back, config);
            assert_eq!(
                format!("{plain:?}"),
                format!("{resumed:?}"),
                "open resume from {path:?} diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturated_run_resumed_mid_window_is_bit_identical() {
        let dir = scratch_dir("saturated");
        let mut config = sample_config();
        // Offered load far past capacity with a low trip wire: the run ends
        // `Saturated` mid-measurement-window. Checkpoints every 150 units
        // straddle both the warmup boundary and the trip, auditing the
        // trip-wire/checkpoint interaction the resume path must preserve.
        config.machine.open = Some(oracle_model::OpenTraffic {
            warmup: 200,
            saturation_inflight: 48,
            deadline: Some(900),
            ..oracle_model::OpenTraffic::new("poisson:60".parse().unwrap(), 6000)
        });
        let plain = config.run().unwrap();
        let open = plain.open.as_ref().expect("open metrics");
        assert!(
            matches!(open.outcome, oracle_model::OpenOutcome::Saturated { .. }),
            "run must trip the saturation wire, got {:?}",
            open.outcome
        );
        let checkpointed = run_with_checkpoints(&config, 150, &dir).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", checkpointed.report),
            "checkpointing changed the saturated run"
        );
        assert!(
            !checkpointed.checkpoints.is_empty(),
            "saturated run tripped before the first checkpoint"
        );
        // The Debug rendering covers the full report — outcome, counters,
        // and every sojourn-histogram quantile — so equality here is the
        // bit-for-bit pin.
        for path in &checkpointed.checkpoints {
            let (config_back, resumed) = resume_run(path).unwrap();
            assert_eq!(config_back, config);
            assert_eq!(
                format!("{plain:?}"),
                format!("{resumed:?}"),
                "saturated resume from {path:?} diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_identical_under_faults_and_audit() {
        let dir = scratch_dir("faults");
        let mut config = sample_config();
        config.machine.fault_plan = "crash:5@700+loss:1%+recover:400x6".parse().unwrap();
        config.machine.audit_every = 32;
        let plain = match config.run() {
            Ok(report) => format!("{report:?}"),
            Err(e) => format!("Err({e:?})"),
        };
        let checkpointed = run_with_checkpoints(&config, 400, &dir);
        match &checkpointed {
            Ok(run) => {
                assert_eq!(plain, format!("{:?}", run.report));
                for path in &run.checkpoints {
                    let (_, resumed) = resume_run(path).unwrap();
                    assert_eq!(plain, format!("{resumed:?}"));
                }
            }
            // The faulty run may legitimately end in GoalsLost; resume from
            // whatever checkpoints exist must reproduce the same error.
            Err(CheckpointError::Sim(e)) => {
                assert_eq!(plain, format!("Err({e:?})"));
                let mut paths: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|entry| entry.unwrap().path())
                    .filter(|p| p.extension().is_some_and(|x| x == "oracle"))
                    .collect();
                paths.sort();
                for path in paths {
                    let err = resume_run(&path).unwrap_err();
                    assert_eq!(plain, format!("Err({:?})", unwrap_sim(err)));
                }
            }
            Err(e) => panic!("unexpected checkpoint failure: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn unwrap_sim(e: CheckpointError) -> SimError {
        match e {
            CheckpointError::Sim(e) => e,
            other => panic!("expected a simulation error, got {other}"),
        }
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        let err = Checkpoint::from_bytes(&[0u8; 32]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Format(ref m) if m.contains("magic")),
            "{err}"
        );

        // A newer layout and the previous one are both refused by version.
        for version in [CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION - 1] {
            let mut w = SnapWriter::new();
            w.u32(CHECKPOINT_MAGIC);
            w.u32(version);
            let err = Checkpoint::from_bytes(&w.into_bytes()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(ref m) if m.contains("version")),
                "v{version}: {err}"
            );
        }

        let config = sample_config();
        let mut machine = config.machine().unwrap();
        machine.begin();
        machine.advance_until(Some(100)).unwrap();
        let mut bytes = checkpoint_bytes(&config, &mut machine);
        bytes.truncate(bytes.len() - 7);
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        // Depending on where the cut lands the codec reports either a
        // truncation (Eof) or an impossible length field (Invalid).
        assert!(
            matches!(err, CheckpointError::Format(ref m)
                if m.contains("truncated") || m.contains("invalid snapshot field")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_snapshot_resumes_to_a_format_error() {
        let config = sample_config();
        let mut machine = config.machine().unwrap();
        machine.begin();
        machine.advance_until(Some(300)).unwrap();
        let snapshot_len = machine.snapshot_bytes().len();
        let mut bytes = checkpoint_bytes(&config, &mut machine);
        // The snapshot is the file's tail; its PE count follows the magic
        // and version words. The file itself still decodes.
        let at = bytes.len() - snapshot_len + 8;
        bytes[at] ^= 0x01;
        let Err(err) = Checkpoint::from_bytes(&bytes).unwrap().resume() else {
            panic!("a corrupt snapshot resumed");
        };
        assert!(
            matches!(err, CheckpointError::Format(ref m) if m.contains("17-PE")),
            "{err}"
        );
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = scratch_dir("atomic");
        let config = sample_config();
        let mut machine = config.machine().unwrap();
        machine.begin();
        machine.advance_until(Some(200)).unwrap();
        let path = dir.join("snap.oracle");
        write_checkpoint(&path, &config, &mut machine).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["snap.oracle".to_string()], "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
