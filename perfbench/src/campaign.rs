//! `campaign_full`: the 52-point grid of `explore run --full`, one fresh
//! campaign per op at a fixed two worker threads, plus the report's JSON
//! round trip.

use std::collections::BTreeMap;

use noc::energy::TechnologyProfile;
use noc::synthesis::Objective;
use noc::telemetry::Event;
use noc_explore::prelude::*;

use crate::aes::{add_sim_counters, SIM_COUNTERS};
use crate::probe::{Counters, Pins, Probe, ACCOUNTED};
use crate::synth::EXACT_BISECTION_MAX_NODES;
use crate::{OpResult, Workload};

/// Fixed, so the floorplan race and the per-thread layer sums mean the
/// same on every machine; the run prints it next to `nproc`.
pub const THREADS: usize = 2;
/// First seed of the TGFF and planted-Pajek families (`{s, s + 1}`).
pub const DEFAULT_SEED: u64 = 1;
const POINTS: usize = 52;

/// The grid of `explore run --full`, with the sized families' seeds
/// starting at `seed`.
fn full_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid::new()
        .workloads([
            WorkloadSpec::fixed(WorkloadFamily::Fig5),
            WorkloadSpec::fixed(WorkloadFamily::Automotive),
            WorkloadSpec::fixed(WorkloadFamily::Multimedia),
        ])
        .workload_family(WorkloadFamily::Tgff, [8, 12, 15], [seed, seed + 1])
        .workload_family(WorkloadFamily::PajekPlanted, [10, 16], [seed, seed + 1])
        .synthesis_objectives([Objective::Links, Objective::Energy])
        .technologies([
            TechnologyProfile::cmos_180nm(),
            TechnologyProfile::cmos_100nm(),
        ])
        .sims([SimSpec {
            label: "ramp".into(),
            rates: vec![0.05, 0.15, 0.30, 0.45],
            duration_cycles: 300,
            saturation_cutoff: Some(6.0),
            ..SimSpec::default()
        }])
}

pub struct CampaignFull {
    campaign: Campaign,
    /// Distinct floorplan keys: one per workload instance.
    floorplan_keys: usize,
    pins: Pins,
}

impl CampaignFull {
    /// Builds the grid and generates every workload's ACG once, checking
    /// the grid has the expected shape.
    pub fn setup(workload_seed: u64, pins: Pins) -> Result<Self, String> {
        let grid = full_grid(workload_seed);
        let scenarios = grid.enumerate();
        if scenarios.len() != POINTS {
            return Err(format!("grid has {} points, not {POINTS}", scenarios.len()));
        }
        let mut workloads = BTreeMap::new();
        for s in &scenarios {
            workloads
                .entry(s.workload.label())
                .or_insert_with(|| s.workload.instantiate());
        }
        if let Some((label, _)) = workloads.iter().find(|(_, acg)| acg.core_count() == 0) {
            return Err(format!("workload {label} has no cores"));
        }
        Ok(CampaignFull {
            campaign: Campaign::new(grid).threads(THREADS),
            floorplan_keys: workloads.len(),
            pins,
        })
    }
}

impl Workload for CampaignFull {
    fn ops_per_pass(&self) -> usize {
        1
    }

    fn run(&mut self, _op: usize, probe: &mut Probe) -> OpResult {
        let counters = Counters::read(probe, &COUNTERS);
        let report = self.campaign.run();
        let deltas = counters.deltas();

        let (json, back) = probe.time("explore.report_json_ms", || {
            let json = report.to_json();
            let back = CampaignReport::from_json(&json).map(|r| r.to_json());
            (json, back)
        });
        probe.add("explore.report_bytes", json.len() as f64);
        if let Some(deltas) = deltas {
            account_campaign(probe, &deltas, &report, self.floorplan_keys);
        }

        let errors = report.points.iter().filter(|p| p.error.is_some()).count();
        self.pins.check(
            "campaign_full/points".into(),
            report.points.len().to_string(),
        );
        self.pins
            .check("campaign_full/errors".into(), errors.to_string());
        self.pins
            .check_f64("campaign_full/hypervolume".into(), report.hypervolume);
        match back {
            Ok(again) if again == json => {}
            Ok(_) => {
                return OpResult::failed(
                    "report JSON round trip changed bytes".into(),
                    &mut self.pins,
                )
            }
            Err(e) => return OpResult::failed(e, &mut self.pins),
        }
        OpResult::done(
            report.points.len() - errors,
            Some(report.hypervolume),
            &mut self.pins,
        )
    }
}

/// The program counters a traced campaign reads: floorplan reuses, the
/// decomposer's statistics (named as their per-layer metrics), then the
/// simulator's.
const COUNTERS: [&str; 8] = [
    "campaign.floorplan_reuses",
    "decompose.nodes_visited",
    "decompose.leaves_evaluated",
    "decompose.cache_hits",
    "decompose.cache_misses",
    SIM_COUNTERS[0],
    SIM_COUNTERS[1],
    SIM_COUNTERS[2],
];

/// Attributes a traced campaign's time to layers from the program's own
/// spans and the report. Per-layer times are summed over both workers;
/// the accounted (blocking-path) time is the wall time of the
/// synthesize and measure phases.
fn account_campaign(
    probe: &mut Probe,
    deltas: &[f64],
    report: &CampaignReport,
    floorplan_keys: usize,
) {
    let events: Vec<Event> = noc::telemetry::active().map_or_else(Vec::new, |t| t.drain());
    let jobs = events
        .iter()
        .filter(|e| e.name == "campaign.synthesize")
        .count() as f64;
    probe.add("floorplan.calls", jobs - deltas[0]);
    probe.add("floorplan.distinct", floorplan_keys as f64);
    for (name, d) in COUNTERS[1..5].iter().zip(&deltas[1..5]) {
        probe.add(name, *d);
    }
    add_sim_counters(probe, &deltas[5..], "sim.cycles.ideal");
    let spans = |name: &'static str| events.iter().filter(move |e| e.name == name);
    let total_ms =
        |name: &'static str| spans(name).filter_map(|e| e.dur_us).sum::<u64>() as f64 / 1e3;
    let phase_wall_ms = |name: &'static str| {
        let (mut start, mut end) = (u64::MAX, 0u64);
        for e in spans(name) {
            let dur = e.dur_us.unwrap_or(0);
            start = start.min(e.t_us.saturating_sub(dur));
            end = end.max(e.t_us);
        }
        end.saturating_sub(start) as f64 / 1e3
    };
    let synthesize_ms = total_ms("campaign.synthesize");
    let decompose_ms = total_ms("decompose.run");
    // Each synthesized point's `synth_ms` times the flow's decompose →
    // glue → constraint check; `verify_ms` times the deadlock proof.
    let synthesized: Vec<_> = report
        .points
        .iter()
        .filter(|p| !p.reused_synthesis && p.synth_ms.is_finite())
        .collect();
    let flow_ms: f64 = synthesized.iter().map(|p| p.synth_ms).sum();
    let verify_ms: f64 = synthesized
        .iter()
        .filter_map(|p| p.verify.as_ref())
        .map(|v| v.verify_ms)
        .sum();
    let cdg_edges: usize = synthesized
        .iter()
        .filter_map(|p| p.verify.as_ref())
        .map(|v| v.cdg_edges)
        .sum();
    let exact = synthesized
        .iter()
        .filter(|p| p.nodes <= EXACT_BISECTION_MAX_NODES)
        .count();
    probe.add("explore.synthesize_ms", synthesize_ms);
    probe.add("explore.measure_ms", total_ms("campaign.measure"));
    probe.add("floorplan.ms", synthesize_ms - flow_ms - verify_ms);
    probe.add("decompose.ms", decompose_ms);
    probe.add("constraints.ms", flow_ms - decompose_ms);
    probe.add("constraints.calls", synthesized.len() as f64);
    probe.add("constraints.exact", exact as f64);
    probe.add("verify.ms", verify_ms);
    probe.add("verify.cdg_edges", cdg_edges as f64);
    probe.add("sim.run_ms.ideal", total_ms("sim.run"));
    probe.add(
        ACCOUNTED,
        phase_wall_ms("campaign.synthesize") + phase_wall_ms("campaign.measure"),
    );
}
