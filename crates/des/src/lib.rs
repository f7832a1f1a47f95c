//! # oracle-des — discrete-event simulation engine
//!
//! The substrate underneath the ORACLE multiprocessor simulator: a
//! deterministic event calendar, simulated time, a seedable PRNG, and the
//! statistics collectors the paper's measurement apparatus needs (online
//! mean/variance, histograms, busy-time trackers, and interval-sampled time
//! series for the utilization-vs-time plots).
//!
//! The original ORACLE was written in SIMSCRIPT, a process-oriented
//! discrete-event language. This crate provides the equivalent event-driven
//! core: client code models each simulated entity (a processing element, a
//! communication channel) as a state machine that schedules future events on
//! a [`CalendarQueue`] (Brown 1988).
//!
//! Everything here is deterministic: events that are scheduled for the same
//! instant fire in the order they were scheduled, and all randomness flows
//! from an explicitly seeded [`Rng`]. The binary-heap [`EventQueue`] pops in
//! the same order and is kept as the calendar queue's test oracle;
//! [`DualQueue`] wraps the two for host-time probes only.

pub mod backend;
pub mod calendar;
pub mod event;
pub mod hash;
pub mod inline;
pub mod profile;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;

pub use backend::DualQueue;
pub use calendar::CalendarQueue;
pub use event::EventQueue;
pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use inline::InlineVec;
pub use profile::{KindId, KindProfile, ProfileReport, Profiler, StoreFootprint};
pub use rng::Rng;
pub use snapshot::{SnapError, SnapReader, SnapWriter};
pub use stats::{BusyTracker, Histogram, IntervalSeries, LogHistogram, OnlineStats};
pub use time::SimTime;
