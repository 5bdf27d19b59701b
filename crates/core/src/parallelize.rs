//! Step 5: parallelization of logical shots (Section II-E, Fig. 8).
//!
//! Parallax tiles copies of the compiled circuit across the atom grid. All
//! copies share the AOD rows/columns and therefore the same movement
//! scheme, so one physical shot executes many logical shots. The
//! replication factor is bounded by (a) how many footprint tiles fit on the
//! site grid and (b) the AOD line budget: stacking copies vertically
//! multiplies the rows needed, horizontally the columns.

use crate::compiler::CompilationResult;
use parallax_hardware::MachineSpec;

/// How a compiled circuit is replicated across a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// Copies side by side along x.
    pub copies_x: usize,
    /// Copies stacked along y.
    pub copies_y: usize,
}

impl ReplicationPlan {
    /// Total logical shots per physical shot.
    pub fn factor(&self) -> usize {
        self.copies_x * self.copies_y
    }
}

/// Compute the replication plan for `result` on `machine` (which may be a
/// larger machine than the circuit was compiled for, e.g. compile once and
/// tile across the 1,225-site system).
pub fn replication_plan(result: &CompilationResult, machine: &MachineSpec) -> ReplicationPlan {
    let (w, h) = result.footprint_sites();
    if w == 0 || h == 0 || w > machine.grid_dim || h > machine.grid_dim {
        // Degenerate or oversized: a single copy at best.
        let fits = w >= 1 && h >= 1 && w <= machine.grid_dim && h <= machine.grid_dim;
        return ReplicationPlan { copies_x: fits as usize, copies_y: fits as usize };
    }
    // One empty site row/column of margin between tiles keeps copies from
    // interacting (beyond the blockade radius is guaranteed separately by
    // the scheduler's per-copy geometry).
    let tile_w = w + 1;
    let tile_h = h + 1;
    let mut copies_x = ((machine.grid_dim + 1) / tile_w).max(1);
    let mut copies_y = ((machine.grid_dim + 1) / tile_h).max(1);

    // AOD budget: every copy needs one row per AOD atom (one atom per
    // row/column pair), and copies in the same horizontal band share rows.
    let aod_atoms = result.aod_selection.selected.len();
    if let Some(copies_per_band) = machine.aod_dim.checked_div(aod_atoms) {
        copies_y = copies_y.min(copies_per_band).max(1);
        copies_x = copies_x.min(copies_per_band).max(1);
    }
    // Never exceed the atom budget.
    let per_copy = result.num_qubits.max(1);
    let max_by_atoms = machine.num_sites() / per_copy;
    let mut plan = ReplicationPlan { copies_x, copies_y };
    while plan.factor() > max_by_atoms && (plan.copies_x > 1 || plan.copies_y > 1) {
        if plan.copies_x >= plan.copies_y {
            plan.copies_x -= 1;
        } else {
            plan.copies_y -= 1;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::ParallaxCompiler;
    use crate::config::CompilerConfig;
    use parallax_circuit::CircuitBuilder;

    fn small_result() -> CompilationResult {
        let mut b = CircuitBuilder::new(4);
        b.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        ParallaxCompiler::new(
            parallax_hardware::MachineSpec::quera_aquila_256(),
            CompilerConfig::quick(1),
        )
        .compile(&b.build())
    }

    #[test]
    fn small_circuit_replicates_many_times_on_large_machine() {
        let r = small_result();
        let plan = replication_plan(&r, &MachineSpec::atom_1225());
        assert!(plan.factor() > 1, "plan {plan:?}");
        // Never exceed the atom budget.
        assert!(plan.factor() * r.num_qubits <= 1225);
    }

    #[test]
    fn replication_respects_aod_budget() {
        let r = small_result();
        let k = r.aod_selection.selected.len();
        let plan = replication_plan(&r, &MachineSpec::atom_1225());
        if k > 0 {
            assert!(plan.copies_y * k <= 20);
            assert!(plan.copies_x * k <= 20);
        }
    }

    #[test]
    fn factor_is_product() {
        let p = ReplicationPlan { copies_x: 3, copies_y: 4 };
        assert_eq!(p.factor(), 12);
    }

    #[test]
    fn oversized_footprint_gets_single_copy_on_own_machine() {
        let r = small_result();
        let plan = replication_plan(&r, &MachineSpec::quera_aquila_256());
        assert!(plan.factor() >= 1);
    }
}
