//! `synth_fig4b`: Figure 4b's planted Pajek graphs run through
//! decompose → glue → constraint check → verify → model compile, one
//! instance per op.

use noc::energy::{EnergyModel, TechnologyProfile};
use noc::floorplan::Placement;
use noc::graph::Acg;
use noc::primitives::CommLibrary;
use noc::sim::NocModel;
use noc::synthesis::{constraints, Architecture, CostModel, Decomposer, Objective};
use noc::workloads::scenarios::planted_sized;

use crate::probe::{Pins, Probe};
use crate::{OpResult, Workload};

/// Instance sizes; the seeds are `workload_seed..workload_seed + 3`.
const SIZES: [usize; 3] = [20, 30, 40];
pub const DEFAULT_SEED: u64 = 1;

/// The exact bisection search covers topologies up to this many nodes;
/// larger ones get the Kernighan–Lin upper bound.
pub const EXACT_BISECTION_MAX_NODES: usize = 20;

struct Instance {
    label: String,
    acg: Acg,
    placement: Placement,
}

pub struct Synth {
    instances: Vec<Instance>,
    library: CommLibrary,
    technology: TechnologyProfile,
    pins: Pins,
}

impl Synth {
    /// Generates the nine instances with their given grid placements.
    pub fn setup(workload_seed: u64, pins: Pins) -> Self {
        let mut instances = Vec::new();
        for n in SIZES {
            for seed in workload_seed..workload_seed + 3 {
                let side = (n as f64).sqrt().ceil() as usize;
                instances.push(Instance {
                    label: format!("n{n}s{seed}"),
                    acg: planted_sized(n, seed),
                    placement: Placement::grid(side, side, 2.0, 2.0),
                });
            }
        }
        Synth {
            instances,
            library: CommLibrary::standard(),
            technology: TechnologyProfile::cmos_180nm(),
            pins,
        }
    }
}

impl Workload for Synth {
    fn ops_per_pass(&self) -> usize {
        self.instances.len()
    }

    fn run(&mut self, op: usize, probe: &mut Probe) -> OpResult {
        let inst = &self.instances[op];
        let key = |field: &str| format!("synth_fig4b/{}/{field}", inst.label);
        let cost_model = CostModel::new(
            EnergyModel::new(self.technology.clone()),
            inst.placement.clone(),
            Objective::Links,
        );
        let outcome = probe.time("decompose.ms", || {
            Decomposer::new(&inst.acg, &self.library, cost_model).run()
        });
        let stats = &outcome.stats;
        probe.add("decompose.nodes_visited", stats.nodes_visited as f64);
        probe.add("decompose.leaves_evaluated", stats.leaves_evaluated as f64);
        probe.add("decompose.cache_hits", stats.cache_hits as f64);
        probe.add("decompose.cache_misses", stats.cache_misses as f64);
        // Without constraint enforcement the all-remainder decomposition
        // is always legal, so a search without a result is a fault.
        let Some(decomposition) = outcome.best else {
            return OpResult::failed("no decomposition".into(), &mut self.pins);
        };

        let arch = probe.time("glue.ms", || {
            Architecture::synthesize(
                &inst.acg,
                &self.library,
                &decomposition,
                inst.placement.clone(),
            )
        });
        let report = probe.time("constraints.ms", || {
            constraints::check(&arch, &inst.acg, &self.technology)
        });
        probe.add("constraints.calls", 1.0);
        if arch.topology().node_count() <= EXACT_BISECTION_MAX_NODES {
            probe.add("constraints.exact", 1.0);
        }
        let verdict = probe.time("verify.ms", || arch.verify());
        probe.add("verify.cdg_edges", verdict.cdg_edges as f64);
        let model = probe.time("sim.compile_ms", || {
            let mut filled = arch.clone();
            filled.fill_all_pairs();
            NocModel::from_architecture(&filled)
        });
        std::hint::black_box(&model);

        self.pins
            .check_f64(key("cost"), decomposition.total_cost.value());
        self.pins
            .check(key("links"), arch.links().count().to_string());
        self.pins
            .check(key("violations"), report.violations().len().to_string());
        let edges = inst.acg.graph().edge_count();
        let covered = 1.0 - decomposition.remainder.edge_count() as f64 / edges as f64;
        if !verdict.is_deadlock_free() {
            return OpResult::failed("architecture not deadlock-free".into(), &mut self.pins);
        }
        OpResult::done(1, Some(covered), &mut self.pins)
    }
}
