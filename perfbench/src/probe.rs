//! Per-layer accounting for traced ops, and the pinned-output checker.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sums of per-layer quantities over the traced ops of a run. A probe
/// that is off records nothing and adds no timer calls, so an untraced
/// op runs exactly the same calls without the instrumentation.
#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    sums: BTreeMap<&'static str, f64>,
}

impl Probe {
    pub fn new(on: bool) -> Self {
        Probe {
            on,
            sums: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall time in ms to `name` (and to the op's
    /// accounted time) when the probe is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.add(name, ms);
        self.add(ACCOUNTED, ms);
        out
    }

    /// Adds `v` to `name` when the probe is on.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Named counters of the program's own telemetry, read before a traced
/// op so their deltas can be taken after it.
#[derive(Debug)]
pub struct Counters {
    names: &'static [&'static str],
    before: Option<Vec<u64>>,
}

impl Counters {
    pub fn read(probe: &Probe, names: &'static [&'static str]) -> Self {
        let tel = noc::telemetry::active().filter(|_| probe.is_on());
        Counters {
            names,
            before: tel.map(|t| names.iter().map(|n| t.counter_value(n)).collect()),
        }
    }

    /// Each counter's growth since [`Counters::read`], in `names` order;
    /// `None` for an untraced op.
    pub fn deltas(&self) -> Option<Vec<f64>> {
        let before = self.before.as_ref()?;
        let t = noc::telemetry::active()?;
        Some(
            self.names
                .iter()
                .zip(before)
                .map(|(n, b)| (t.counter_value(n) - b) as f64)
                .collect(),
        )
    }
}

/// Layer time on an op's blocking path; `residual_ms` is op time minus
/// this.
pub const ACCOUNTED: &str = "accounted_ms";

/// Expected outputs, read from `pins.txt` (`key value` per line). With a
/// non-default workload seed there are no pins: the first value seen for
/// a key becomes its pin, so later passes must reproduce it exactly.
#[derive(Debug, Clone)]
pub struct Pins {
    expected: BTreeMap<String, String>,
    learn: bool,
    mismatches: Vec<String>,
}

impl Pins {
    pub fn new(text: &str, learn: bool) -> Result<Self, String> {
        let mut expected = BTreeMap::new();
        if !learn {
            for (i, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let (k, v) = line
                    .split_once(' ')
                    .ok_or_else(|| format!("pins.txt line {}: expected `key value`", i + 1))?;
                expected.insert(k.to_string(), v.trim().to_string());
            }
        }
        Ok(Pins {
            expected,
            learn,
            mismatches: Vec::new(),
        })
    }

    /// Compares `value` with the pin for `key`; a mismatch is kept for
    /// [`Pins::take_mismatches`].
    pub fn check(&mut self, key: String, value: String) {
        match self.expected.get(&key) {
            Some(v) if *v == value => {}
            Some(v) => self
                .mismatches
                .push(format!("{key}: expected {v}, got {value}")),
            None if self.learn => {
                self.expected.insert(key, value);
            }
            None => self.mismatches.push(format!("{key}: no pin, got {value}")),
        }
    }

    pub fn check_f64(&mut self, key: String, value: f64) {
        self.check(key, format!("{:016x}", value.to_bits()));
    }

    pub fn take_mismatches(&mut self) -> Vec<String> {
        std::mem::take(&mut self.mismatches)
    }
}
