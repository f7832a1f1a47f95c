//! The cost model: "times to be charged for primitive operations".
//!
//! All costs are in the paper's abstract time units. The defaults are
//! calibrated (see DESIGN.md) so that the paper's workloads complete in the
//! 1000–23000-unit range the paper reports, and so that the
//! communication-to-computation ratio is low — the paper deliberately chose
//! it "such that communication stagnation does not occur" in order to
//! isolate load-distribution effectiveness.

/// Time charged for each primitive operation of the machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// PE time to execute a goal that splits into subgoals.
    pub split_cost: u64,
    /// PE time to execute a leaf goal (base case).
    pub leaf_cost: u64,
    /// PE time to process one response from a child.
    pub combine_cost: u64,
    /// Channel occupancy of one goal-message hop.
    pub goal_hop_cost: u64,
    /// Channel occupancy of one response-message hop.
    pub response_hop_cost: u64,
    /// Channel occupancy of one control message (load word, proximity
    /// update, steal request) — "a very short message".
    pub control_hop_cost: u64,
    /// PE time charged per message handled when no communication
    /// co-processor is present (`MachineConfig::coprocessor == false`).
    pub software_routing_cost: u64,
}

impl CostModel {
    /// The calibrated defaults used for all paper-reproduction experiments.
    ///
    /// Calibration targets (see EXPERIMENTS.md): total run lengths in the
    /// paper's 1000–23000-unit range; a communication/computation ratio low
    /// enough that no channel saturates ("communication stagnation does not
    /// occur") even on the bus-based DLM, where every bus carries the load
    /// words of all its member PEs.
    pub fn paper_default() -> Self {
        CostModel {
            split_cost: 20,
            leaf_cost: 15,
            combine_cost: 5,
            goal_hop_cost: 2,
            response_hop_cost: 2,
            control_hop_cost: 1,
            software_routing_cost: 4,
        }
    }

    /// A cost model with every operation costing one unit — handy in unit
    /// tests where exact timings are asserted.
    pub fn unit() -> Self {
        CostModel {
            split_cost: 1,
            leaf_cost: 1,
            combine_cost: 1,
            goal_hop_cost: 1,
            response_hop_cost: 1,
            control_hop_cost: 1,
            software_routing_cost: 1,
        }
    }

    /// Scale the communication costs by `num / den`, keeping computation
    /// fixed — used by the communication/computation-ratio ablation the
    /// paper's conclusion calls for ("when the ratio is higher, CWN may lose
    /// some of its edge").
    pub fn with_comm_scaled(mut self, num: u64, den: u64) -> Self {
        assert!(den > 0, "zero denominator");
        let scale = |c: u64| (c * num / den).max(1);
        self.goal_hop_cost = scale(self.goal_hop_cost);
        self.response_hop_cost = scale(self.response_hop_cost);
        self.control_hop_cost = scale(self.control_hop_cost);
        self
    }

    /// Ratio of the goal-hop cost to the split cost — a rough proxy for the
    /// communication/computation ratio the paper discusses.
    pub fn comm_comp_ratio(&self) -> f64 {
        self.goal_hop_cost as f64 / self.split_cost as f64
    }

    /// Check that all charged operations take non-zero time; zero-cost PE or
    /// channel operations would let the simulation loop at a single instant.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("split_cost", self.split_cost),
            ("leaf_cost", self.leaf_cost),
            ("combine_cost", self.combine_cost),
            ("goal_hop_cost", self.goal_hop_cost),
            ("response_hop_cost", self.response_hop_cost),
            ("control_hop_cost", self.control_hop_cost),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        Ok(())
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_low_comm_ratio() {
        let c = CostModel::paper_default();
        assert!(c.comm_comp_ratio() < 0.15, "ratio {}", c.comm_comp_ratio());
        c.validate().unwrap();
    }

    #[test]
    fn unit_model_validates() {
        CostModel::unit().validate().unwrap();
    }

    #[test]
    fn comm_scaling_changes_only_communication() {
        let base = CostModel::paper_default();
        let scaled = base.with_comm_scaled(10, 1);
        assert_eq!(scaled.split_cost, base.split_cost);
        assert_eq!(scaled.leaf_cost, base.leaf_cost);
        assert_eq!(scaled.goal_hop_cost, base.goal_hop_cost * 10);
        assert_eq!(scaled.control_hop_cost, base.control_hop_cost * 10);
    }

    #[test]
    fn comm_scaling_never_reaches_zero() {
        let scaled = CostModel::paper_default().with_comm_scaled(1, 1000);
        assert_eq!(scaled.goal_hop_cost, 1);
        scaled.validate().unwrap();
    }

    #[test]
    fn zero_cost_is_rejected() {
        let mut c = CostModel::paper_default();
        c.combine_cost = 0;
        assert!(c.validate().is_err());
    }
}
