//! `sim_aes`: the §5.2 AES comparison. Set-up synthesizes the custom
//! architecture; each op is one load sweep on the mesh or the custom
//! network under the ideal or the credit router, plus one
//! `AesPrototype::run` per pass.

use noc::aes::{aes_acg, DistributedAes};
use noc::energy::{EnergyModel, TechnologyProfile};
use noc::floorplan::Placement;
use noc::graph::NodeId;
use noc::sim::sweep::{sweep, SweepConfig};
use noc::sim::{CreditConfig, NocModel, RouterFidelity, SimConfig};
use noc::{AesPrototype, SynthesisFlow};

use crate::probe::{Counters, Pins, Probe};
use crate::{OpResult, Workload};

/// The sweep's traffic seed.
pub const DEFAULT_SEED: u64 = 7;
const DURATION_CYCLES: u64 = 2000;
const PITCH_MM: f64 = 2.0;

/// FIPS-197 Appendix B: this key and plaintext encrypt to `CIPHERTEXT`.
const AES_KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];
const AES_BLOCK: [u8; 16] = [
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
];
const CIPHERTEXT: &str = "3925841d02dc09fbdc118597196a0b32";

pub struct SimAes {
    /// `(label, model)`: the 4×4 mesh and the synthesized network.
    models: Vec<(&'static str, NocModel)>,
    energy: EnergyModel,
    pairs: Vec<(NodeId, NodeId)>,
    prototype: AesPrototype,
    seed: u64,
    pins: Pins,
}

impl SimAes {
    pub fn setup(workload_seed: u64, pins: Pins) -> Result<Self, String> {
        let technology = TechnologyProfile::fpga_virtex2();
        let acg = aes_acg(0.0);
        let pairs = acg
            .demands()
            .filter(|(_, d)| d.volume > 0.0)
            .map(|(e, _)| (e.src, e.dst))
            .collect();
        let custom = SynthesisFlow::new(acg)
            .technology(technology.clone())
            .placement(Placement::grid(4, 4, PITCH_MM, PITCH_MM))
            .run()
            .map_err(|e| format!("AES synthesis failed: {e}"))?
            .noc_model();
        Ok(SimAes {
            models: vec![("mesh", NocModel::mesh(4, 4, PITCH_MM)), ("custom", custom)],
            energy: EnergyModel::new(technology),
            pairs,
            prototype: AesPrototype::new().input(AES_KEY, AES_BLOCK),
            seed: workload_seed,
            pins,
        })
    }

    fn prototype_op(&mut self, probe: &mut Probe) -> OpResult {
        let comparison = match probe.time("aes.prototype_ms", || self.prototype.run()) {
            Ok(c) => c,
            Err(e) => return OpResult::failed(e.to_string(), &mut self.pins),
        };
        let ciphertext = DistributedAes::new(&AES_KEY)
            .encrypt_block(&AES_BLOCK)
            .ciphertext;
        let hex: String = ciphertext.iter().map(|b| format!("{b:02x}")).collect();
        if hex != CIPHERTEXT {
            return OpResult::failed(format!("ciphertext {hex}"), &mut self.pins);
        }
        let gain = comparison.throughput_gain();
        let saving = comparison.energy_reduction();
        probe.add("aes.runs", 1.0);
        probe.add("aes.energy_saving", saving);
        self.pins.check_f64("sim_aes/throughput_gain".into(), gain);
        self.pins.check_f64("sim_aes/energy_saving".into(), saving);
        OpResult::done(0, Some(gain), &mut self.pins)
    }
}

impl Workload for SimAes {
    fn ops_per_pass(&self) -> usize {
        1 + 2 * self.models.len()
    }

    fn run(&mut self, op: usize, probe: &mut Probe) -> OpResult {
        if op == 0 {
            return self.prototype_op(probe);
        }
        let (label, model) = &self.models[(op - 1) / 2];
        let (fidelity, run_ms, cycles) = if (op - 1).is_multiple_of(2) {
            (
                RouterFidelity::Ideal,
                "sim.run_ms.ideal",
                "sim.cycles.ideal",
            )
        } else {
            (
                RouterFidelity::Credit(CreditConfig::default()),
                "sim.run_ms.credit",
                "sim.cycles.credit",
            )
        };
        let config = SweepConfig {
            rates: (1..=12).map(|i| i as f64 * 0.05).collect(),
            duration_cycles: DURATION_CYCLES,
            seed: self.seed,
            sim: SimConfig {
                router: fidelity,
                ..SimConfig::default()
            },
            pairs: Some(self.pairs.clone()),
            ..SweepConfig::default()
        };
        let counters = Counters::read(probe, &SIM_COUNTERS);
        let points = match probe.time(run_ms, || sweep(model, &config, &self.energy)) {
            Ok(points) => points,
            Err(e) => return OpResult::failed(e.to_string(), &mut self.pins),
        };
        if let Some(deltas) = counters.deltas() {
            add_sim_counters(probe, &deltas, cycles);
        }
        for p in &points {
            self.pins.check(
                format!(
                    "sim_aes/{label}-{}/r{:.2}",
                    fidelity.label(),
                    p.injection_rate
                ),
                format!(
                    "{:016x} {:016x} {:016x}",
                    p.avg_latency_cycles.to_bits(),
                    p.throughput_bits_per_cycle.to_bits(),
                    p.energy_joules.to_bits()
                ),
            );
        }
        OpResult::done(points.len(), None, &mut self.pins)
    }
}

/// The simulator's counters, in the order [`add_sim_counters`] reads
/// their deltas.
pub const SIM_COUNTERS: [&str; 3] = ["sim.cycles", "sim.flits", "sim.sweep.cutoffs"];

/// Adds the deltas of [`SIM_COUNTERS`]; the cycles also go to
/// `cycles_by_router`.
pub fn add_sim_counters(probe: &mut Probe, deltas: &[f64], cycles_by_router: &'static str) {
    probe.add("sim.cycles", deltas[0]);
    probe.add(cycles_by_router, deltas[0]);
    probe.add("sim.flits", deltas[1]);
    probe.add("sim.saturation_cutoffs", deltas[2]);
}
