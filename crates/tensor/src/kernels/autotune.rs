//! Benchmark compatibility shim, all that is left of the first-use autotuner:
//! `benchmark/src/child.rs` compiles against these two names, and the next
//! `[benchmark]` PR deletes this file (ROADMAP item 1).

/// One row of the former plan table, with the fields the benchmark reads.
#[allow(missing_docs)]
pub struct PlanEntry {
    pub op: &'static str,
    pub m_class: u32,
    pub k_class: u32,
    pub n_class: u32,
    pub kc: usize,
    pub nc: usize,
    pub parallel: bool,
}

/// The kernel has one fixed plan, so no class is ever tuned: empty by type.
pub fn plan_snapshot() -> [PlanEntry; 0] {
    []
}
