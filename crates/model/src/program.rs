//! The simulated computation: medium-grain task trees.
//!
//! "When activated, such a task executes for a short time, and then either
//! completes, or starts some sub-tasks and awaits response from them. When
//! it receives a response, it repeats the same cycle."
//!
//! A [`Program`] describes such a computation declaratively: the machine
//! asks it to *expand* each task (leaf or split), *combine* child responses,
//! and optionally *continue* with more children after a round of responses
//! (which models computations whose parallelism rises and falls in cycles).
//! Programs compute real values — running naive Fibonacci through the
//! simulated machine must produce the actual Fibonacci number, which
//! end-to-end checks the whole message plumbing.

use oracle_des::InlineVec;

/// The parameters of one task (goal). The meaning of the fields is
/// program-specific; two `i64` parameters plus a depth and a tag cover every
/// workload in this reproduction without heap allocation per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskSpec {
    /// First program-specific parameter (e.g. `M` of `dc(M,N)`, `n` of `fib`).
    pub a: i64,
    /// Second program-specific parameter (e.g. `N` of `dc(M,N)`).
    pub b: i64,
    /// Depth of this task in the task tree (root = 0).
    pub depth: u32,
    /// Program-specific discriminator (e.g. the phase of a cyclic program).
    pub tag: u32,
}

impl TaskSpec {
    /// A root spec with both parameters set and depth/tag zero.
    pub fn new(a: i64, b: i64) -> Self {
        TaskSpec {
            a,
            b,
            depth: 0,
            tag: 0,
        }
    }

    /// A child spec: same tag, depth one greater.
    pub fn child(&self, a: i64, b: i64) -> Self {
        TaskSpec {
            a,
            b,
            depth: self.depth + 1,
            tag: self.tag,
        }
    }
}

/// Child list of one task split. Up to four children — the overwhelmingly
/// common fan-out (binary divide-and-conquer, fib, tak) — live inline with
/// no heap allocation; wider fan-outs (cyclic phases, random trees) spill
/// transparently. Accepts array literals, `Vec`s, and `collect()`:
/// `Expansion::Split([a, b].into())` allocates nothing.
pub type TaskList = InlineVec<TaskSpec, 4>;

/// Result of executing a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expansion {
    /// Base case: the task completes immediately with this value.
    Leaf(i64),
    /// The task spawns these subgoals and waits for their responses.
    Split(TaskList),
}

/// What a waiting task does once all responses of the current round are in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Continuation {
    /// Respond to the parent with this value.
    Done(i64),
    /// Spawn another round of subgoals (cyclic-parallelism programs).
    Spawn(TaskList),
}

/// A simulated computation.
pub trait Program: Send {
    /// Short human-readable name, e.g. `"fib(18)"`.
    fn name(&self) -> String;

    /// The root task injected at time zero.
    fn root(&self) -> TaskSpec;

    /// Execute a task: base case or split into subgoals.
    fn expand(&self, spec: &TaskSpec) -> Expansion;

    /// Initial accumulator for combining child responses.
    fn combine_init(&self, _spec: &TaskSpec) -> i64 {
        0
    }

    /// Fold one child response into the accumulator. Must be commutative:
    /// responses arrive in arbitrary order.
    fn combine(&self, spec: &TaskSpec, acc: i64, child: i64) -> i64;

    /// Called when all responses of round `round` (0-based) have been
    /// combined; defaults to completing with the accumulator.
    fn continue_after(&self, _spec: &TaskSpec, _round: u32, acc: i64) -> Continuation {
        Continuation::Done(acc)
    }

    /// Multiplier on the split/leaf execution cost of this task
    /// (heterogeneous-grain workloads).
    fn work_multiplier(&self, _spec: &TaskSpec) -> u64 {
        1
    }

    /// Total number of goals the computation will generate, when known
    /// analytically (reported on the X axis of the paper's plots).
    fn expected_goals(&self) -> Option<u64> {
        None
    }

    /// The final result, when known analytically — used to validate runs.
    fn expected_result(&self) -> Option<i64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-level program used to exercise the trait defaults.
    struct TwoLevel;

    impl Program for TwoLevel {
        fn name(&self) -> String {
            "two-level".into()
        }
        fn root(&self) -> TaskSpec {
            TaskSpec::new(0, 0)
        }
        fn expand(&self, spec: &TaskSpec) -> Expansion {
            if spec.depth == 0 {
                Expansion::Split([spec.child(1, 0), spec.child(2, 0)].into())
            } else {
                Expansion::Leaf(spec.a)
            }
        }
        fn combine(&self, _spec: &TaskSpec, acc: i64, child: i64) -> i64 {
            acc + child
        }
    }

    #[test]
    fn child_spec_inherits_depth_and_tag() {
        let mut root = TaskSpec::new(5, 9);
        root.tag = 3;
        let c = root.child(1, 2);
        assert_eq!(c.depth, 1);
        assert_eq!(c.tag, 3);
        assert_eq!((c.a, c.b), (1, 2));
    }

    #[test]
    fn trait_defaults() {
        let p = TwoLevel;
        assert_eq!(p.combine_init(&p.root()), 0);
        assert_eq!(p.work_multiplier(&p.root()), 1);
        assert_eq!(p.expected_goals(), None);
        assert_eq!(p.expected_result(), None);
        assert_eq!(p.continue_after(&p.root(), 0, 42), Continuation::Done(42));
    }

    #[test]
    fn expansion_shapes() {
        let p = TwoLevel;
        match p.expand(&p.root()) {
            Expansion::Split(children) => assert_eq!(children.len(), 2),
            Expansion::Leaf(_) => panic!("root should split"),
        }
        let leaf = TaskSpec {
            a: 7,
            b: 0,
            depth: 1,
            tag: 0,
        };
        assert_eq!(p.expand(&leaf), Expansion::Leaf(7));
    }
}
