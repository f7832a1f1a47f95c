//! Per-PE state: work queue, the executing item, and waiting tasks.

use std::collections::VecDeque;

use oracle_des::{BusyTracker, FastHashMap, IntervalSeries, OnlineStats, Rng, SimTime};
use oracle_topo::PeId;

use crate::config::QueueDiscipline;
use crate::message::{GoalId, GoalMsg, Packet};
use crate::program::{Expansion, TaskList, TaskSpec};

/// An item in a PE's work queue.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// An accepted goal awaiting execution.
    Goal(GoalMsg),
    /// A child's response awaiting combination into a waiting task.
    Response {
        /// The waiting task this response belongs to.
        goal: GoalId,
        /// The child goal that produced the response (the recovery layer's
        /// acknowledgment key).
        child: GoalId,
        /// The child's result.
        value: i64,
    },
    /// Message-handling work charged to the PE when no communication
    /// co-processor is configured: the arrived packet still to be acted on.
    Handle {
        /// The neighbour the packet came from.
        from: PeId,
        /// The packet awaiting handling.
        packet: Packet,
    },
    /// A strategy timer whose handler must be charged to the PE (no
    /// co-processor): e.g. one cycle of the Gradient Model's gradient
    /// process — "it needs to execute a more complex code and more
    /// frequently".
    TimerWork {
        /// The strategy's timer tag.
        tag: u64,
    },
}

/// What the PE is currently charging time for.
#[derive(Debug, Clone)]
pub enum Executing {
    /// Running a goal whose expansion has been determined.
    Goal(GoalMsg, Expansion),
    /// Combining one response into a waiting task.
    Response {
        goal: GoalId,
        child: GoalId,
        value: i64,
    },
    /// A waiting task spawning its next round of subgoals.
    Respawn { goal: GoalId, children: TaskList },
    /// Software routing / balancing work (no co-processor).
    Handle { from: PeId, packet: Packet },
    /// A strategy timer charged to the PE (no co-processor).
    TimerWork { tag: u64 },
}

/// A task that has spawned subgoals and awaits their responses. "Usually,
/// it is prohibitively expensive to move a task from a PE to another after
/// it has spawned sub-tasks" — waiting tasks are pinned to their PE.
#[derive(Debug, Clone)]
pub struct Waiting {
    /// The task's spec (needed for combining).
    pub spec: TaskSpec,
    /// Where this task's own parent waits.
    pub parent: Option<(PeId, GoalId)>,
    /// Responses still outstanding in the current round.
    pub pending: u32,
    /// Accumulated combination of responses received so far.
    pub acc: i64,
    /// 0-based round of spawning (for cyclic programs).
    pub round: u32,
    /// Hops the goal travelled before being executed here (kept for
    /// bookkeeping symmetry; the histogram is recorded at execution start).
    pub hops: u32,
}

/// The state of one processing element, including the PE's share of the
/// machine's deterministic bookkeeping (its RNG stream and its event-key
/// and goal-id sequences). Lives in the machine's paged slab: a PE is
/// built on its page's first write, and untouched PEs read as pristine.
#[derive(Debug, Clone)]
pub struct Pe {
    /// FIFO of user work (goals and responses).
    pub queue: VecDeque<WorkItem>,
    /// Higher-priority queue of message-handling work (only used when no
    /// co-processor is configured).
    pub sys_queue: VecDeque<WorkItem>,
    /// The item currently charging PE time, if any.
    pub executing: Option<Executing>,
    /// When the current item started.
    pub exec_start: SimTime,
    /// When the current item completes.
    pub busy_until: SimTime,
    /// Tasks pinned here awaiting responses. Fast integer-keyed map: the
    /// lookup is on the response-delivery hot path.
    pub waiting: FastHashMap<GoalId, Waiting>,
    /// Last known load of each neighbour, indexed like
    /// `Topology::neighbors(id)`. Empty on the pristine PE an untouched
    /// slot reads as, so read it through [`Pe::known_load`].
    pub known_load: Vec<u32>,
    /// Busy-time accounting.
    pub busy: BusyTracker,
    /// Interval-sampled utilization (the load-monitor stream).
    pub series: IntervalSeries,
    /// Number of goals in `queue` (excluding responses), maintained
    /// incrementally so the load metric is O(1).
    pub queued_goals: u32,
    /// Number of responses in `queue`.
    pub queued_responses: u32,
    /// Goals executed by this PE.
    pub goals_executed: u64,
    /// True once the PE has been killed by failure injection.
    pub failed: bool,
    /// Transient cost multiplier from an open fault-plan slowdown window
    /// (1 = nominal). Applied on top of the machine's per-PE cost factor
    /// to work started while the window is open.
    pub transient_factor: u64,
    /// High-water mark of the work queue length (the memory-footprint
    /// proxy; depth-first disciplines keep it small on tree workloads).
    pub peak_queue: usize,
    /// Dispatch latency (creation to execution start) of the goals this
    /// PE started.
    pub dispatch_latency: OnlineStats,
    /// This PE's runtime RNG stream.
    pub rng: Rng,
    /// Sequence of the next event this PE schedules (the low half of its
    /// events' ordering keys).
    pub key_seq: u32,
    /// Sequence of the next goal this PE creates (the low half of its
    /// goal ids).
    pub goal_seq: u32,
}

impl Pe {
    /// A fresh idle PE with `degree` neighbours, the given sampling
    /// interval for its utilization series, and its RNG stream. Queues
    /// start unallocated: a large machine holds many PEs that never queue
    /// anything.
    pub fn new(degree: usize, sampling_interval: u64, rng: Rng) -> Self {
        Pe {
            queue: VecDeque::new(),
            sys_queue: VecDeque::new(),
            executing: None,
            exec_start: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            waiting: FastHashMap::default(),
            known_load: vec![0; degree],
            busy: BusyTracker::new(),
            series: IntervalSeries::new(sampling_interval),
            queued_goals: 0,
            queued_responses: 0,
            goals_executed: 0,
            failed: false,
            transient_factor: 1,
            peak_queue: 0,
            dispatch_latency: OnlineStats::new(),
            rng,
            key_seq: 0,
            goal_seq: 0,
        }
    }

    /// Last known load of the neighbour at position `i` of this PE's
    /// neighbour list (0 until a load word arrives).
    #[inline]
    pub fn known_load(&self, i: usize) -> u32 {
        self.known_load.get(i).copied().unwrap_or(0)
    }

    /// The paper's load metric, "the number of messages waiting to be
    /// processed", read as the queued goals (the task-queue length of Lin
    /// & Keller's formulation). Pending responses do not count: with them
    /// counted, the Gradient Model's water-marks trip constantly (every
    /// combining PE looks abundant) and it sheds work far more
    /// aggressively than the paper observed.
    #[inline]
    pub fn load(&self) -> u32 {
        self.queued_goals
    }

    /// Number of tasks pinned here awaiting responses ("future
    /// commitments", the load-metric refinement the paper suggests).
    #[inline]
    pub fn waiting_tasks(&self) -> u32 {
        self.waiting.len() as u32
    }

    /// True if the PE is executing nothing and has no queued work.
    pub fn is_idle(&self) -> bool {
        self.executing.is_none() && self.queue.is_empty() && self.sys_queue.is_empty()
    }

    /// Enqueue a user work item.
    pub fn enqueue(&mut self, item: WorkItem) {
        match &item {
            WorkItem::Goal(_) => self.queued_goals += 1,
            WorkItem::Response { .. } => self.queued_responses += 1,
            WorkItem::Handle { .. } | WorkItem::TimerWork { .. } => {
                unreachable!("balancing work goes on the sys queue")
            }
        }
        self.queue.push_back(item);
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Dequeue the next work item: system (routing) work first, then user
    /// work per the configured discipline.
    pub fn dequeue(&mut self, discipline: QueueDiscipline) -> Option<WorkItem> {
        if let Some(item) = self.sys_queue.pop_front() {
            return Some(item);
        }
        let pos = match discipline {
            QueueDiscipline::Fifo => {
                if self.queue.is_empty() {
                    return None;
                }
                0
            }
            QueueDiscipline::Lifo => self.queue.len().checked_sub(1)?,
            QueueDiscipline::DeepestFirst => {
                if self.queue.is_empty() {
                    return None;
                }
                // Responses first (they shrink the waiting-task state),
                // then the deepest queued goal.
                if self.queued_responses > 0 {
                    self.queue
                        .iter()
                        .position(|w| matches!(w, WorkItem::Response { .. }))
                        .expect("queued_responses > 0")
                } else {
                    self.queue
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| match w {
                            WorkItem::Goal(g) => Some((g.spec.depth, i)),
                            _ => None,
                        })
                        .max_by_key(|&(depth, i)| (depth, i))
                        .map(|(_, i)| i)
                        .unwrap_or(0)
                }
            }
        };
        let item = self.queue.remove(pos)?;
        match &item {
            WorkItem::Goal(_) => self.queued_goals -= 1,
            WorkItem::Response { .. } => self.queued_responses -= 1,
            WorkItem::Handle { .. } | WorkItem::TimerWork { .. } => {}
        }
        Some(item)
    }

    /// Remove the most recently queued goal (the Gradient Model exports
    /// work from its local queue; taking the newest preserves FIFO order of
    /// older work). Returns `None` if no goal is queued.
    pub fn take_newest_goal(&mut self) -> Option<GoalMsg> {
        let pos = self
            .queue
            .iter()
            .rposition(|w| matches!(w, WorkItem::Goal(_)))?;
        match self.queue.remove(pos) {
            Some(WorkItem::Goal(g)) => {
                self.queued_goals -= 1;
                Some(g)
            }
            _ => unreachable!("rposition pointed at a goal"),
        }
    }

    /// Remove the oldest queued goal.
    pub fn take_oldest_goal(&mut self) -> Option<GoalMsg> {
        let pos = self
            .queue
            .iter()
            .position(|w| matches!(w, WorkItem::Goal(_)))?;
        match self.queue.remove(pos) {
            Some(WorkItem::Goal(g)) => {
                self.queued_goals -= 1;
                Some(g)
            }
            _ => unreachable!("position pointed at a goal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueueDiscipline;

    fn goal(id: u64) -> GoalMsg {
        GoalMsg {
            id: GoalId(id),
            spec: TaskSpec::new(0, 0),
            parent: None,
            hops: 0,
            direct: false,
            created_at: 0,
        }
    }

    #[test]
    fn load_counts_queued_messages() {
        let mut pe = Pe::new(4, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Goal(goal(1)));
        pe.enqueue(WorkItem::Response {
            goal: GoalId(9),
            child: GoalId(10),
            value: 0,
        });
        assert_eq!(pe.load(), 1);
        assert_eq!(pe.queued_responses, 1);
        assert_eq!(pe.waiting_tasks(), 0);
    }

    #[test]
    fn dequeue_is_fifo_and_maintains_counts() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Goal(goal(1)));
        pe.enqueue(WorkItem::Goal(goal(2)));
        assert!(
            matches!(pe.dequeue(QueueDiscipline::Fifo), Some(WorkItem::Goal(g)) if g.id == GoalId(1))
        );
        assert_eq!(pe.queued_goals, 1);
        assert!(
            matches!(pe.dequeue(QueueDiscipline::Fifo), Some(WorkItem::Goal(g)) if g.id == GoalId(2))
        );
        assert!(pe.dequeue(QueueDiscipline::Fifo).is_none());
        assert_eq!(pe.load(), 0);
    }

    #[test]
    fn sys_queue_has_priority() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Goal(goal(1)));
        pe.sys_queue.push_back(WorkItem::Handle {
            from: PeId(1),
            packet: crate::message::Packet::LoadUpdate,
        });
        assert!(matches!(
            pe.dequeue(QueueDiscipline::Fifo),
            Some(WorkItem::Handle { .. })
        ));
        assert!(matches!(
            pe.dequeue(QueueDiscipline::Fifo),
            Some(WorkItem::Goal(_))
        ));
    }

    #[test]
    fn take_newest_goal_skips_responses() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Goal(goal(1)));
        pe.enqueue(WorkItem::Goal(goal(2)));
        pe.enqueue(WorkItem::Response {
            goal: GoalId(7),
            child: GoalId(8),
            value: 3,
        });
        let taken = pe.take_newest_goal().unwrap();
        assert_eq!(taken.id, GoalId(2));
        assert_eq!(pe.queued_goals, 1);
        assert_eq!(pe.queued_responses, 1);
        // FIFO order of the remainder is preserved.
        assert!(
            matches!(pe.dequeue(QueueDiscipline::Fifo), Some(WorkItem::Goal(g)) if g.id == GoalId(1))
        );
        assert!(matches!(
            pe.dequeue(QueueDiscipline::Fifo),
            Some(WorkItem::Response { .. })
        ));
    }

    #[test]
    fn take_oldest_goal() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Response {
            goal: GoalId(7),
            child: GoalId(8),
            value: 3,
        });
        pe.enqueue(WorkItem::Goal(goal(5)));
        pe.enqueue(WorkItem::Goal(goal(6)));
        assert_eq!(pe.take_oldest_goal().unwrap().id, GoalId(5));
        assert_eq!(pe.take_oldest_goal().unwrap().id, GoalId(6));
        assert!(pe.take_oldest_goal().is_none());
    }

    #[test]
    fn lifo_takes_newest_first() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Goal(goal(1)));
        pe.enqueue(WorkItem::Goal(goal(2)));
        assert!(
            matches!(pe.dequeue(QueueDiscipline::Lifo), Some(WorkItem::Goal(g)) if g.id == GoalId(2))
        );
        assert!(
            matches!(pe.dequeue(QueueDiscipline::Lifo), Some(WorkItem::Goal(g)) if g.id == GoalId(1))
        );
        assert!(pe.dequeue(QueueDiscipline::Lifo).is_none());
    }

    #[test]
    fn deepest_first_prefers_responses_then_depth() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        let mut shallow = goal(1);
        shallow.spec.depth = 1;
        let mut deep = goal(2);
        deep.spec.depth = 5;
        pe.enqueue(WorkItem::Goal(shallow));
        pe.enqueue(WorkItem::Goal(deep));
        pe.enqueue(WorkItem::Response {
            goal: GoalId(9),
            child: GoalId(10),
            value: 1,
        });
        assert!(matches!(
            pe.dequeue(QueueDiscipline::DeepestFirst),
            Some(WorkItem::Response { .. })
        ));
        assert!(
            matches!(pe.dequeue(QueueDiscipline::DeepestFirst), Some(WorkItem::Goal(g)) if g.id == GoalId(2))
        );
        assert!(
            matches!(pe.dequeue(QueueDiscipline::DeepestFirst), Some(WorkItem::Goal(g)) if g.id == GoalId(1))
        );
    }

    #[test]
    fn peak_queue_tracks_high_water() {
        let mut pe = Pe::new(0, 10, Rng::seed_from_u64(1));
        pe.enqueue(WorkItem::Goal(goal(1)));
        pe.enqueue(WorkItem::Goal(goal(2)));
        pe.dequeue(QueueDiscipline::Fifo);
        pe.enqueue(WorkItem::Goal(goal(3)));
        assert_eq!(pe.peak_queue, 2);
    }

    #[test]
    fn idle_transitions() {
        let mut pe = Pe::new(2, 10, Rng::seed_from_u64(1));
        assert!(pe.is_idle());
        pe.enqueue(WorkItem::Goal(goal(1)));
        assert!(!pe.is_idle());
        pe.dequeue(QueueDiscipline::Fifo);
        assert!(pe.is_idle());
        pe.executing = Some(Executing::Handle {
            from: PeId(1),
            packet: crate::message::Packet::LoadUpdate,
        });
        assert!(!pe.is_idle());
    }
}
