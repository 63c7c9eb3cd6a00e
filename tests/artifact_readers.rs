//! The artifact readers under hostile input: campaign reports, JSON-Lines
//! point streams, telemetry traces and persisted match caches must read
//! exact 64-bit integers back, and must answer truncated, mutated or
//! absurdly nested input with `Err` — never a panic or a stack overflow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use noc::prelude::SharedMatchCache;
use noc_explore::prelude::*;
use noc_explore::SamplerRecord;
use noc_telemetry::{read_jsonl, write_jsonl, Telemetry};

#[test]
fn sampler_seeds_beyond_2_pow_53_round_trip_exactly() {
    for seed in [(1u64 << 53) + 1, u64::MAX] {
        let mut report = CampaignReport::assemble(ObjectiveKind::DEFAULT.to_vec(), Vec::new());
        report.sampler = Some(SamplerRecord {
            policy: "bandit".into(),
            seed,
            budget: 4,
            flows_spent: 0,
            grid_len: 12,
            rounds: Vec::new(),
        });
        let json = report.to_json();
        let parsed = CampaignReport::from_json(&json).expect("parse own output");
        assert_eq!(parsed.sampler.as_ref().map(|s| s.seed), Some(seed));
        assert_eq!(parsed.to_json(), json);
    }
}

#[test]
fn deeply_nested_documents_are_errors_not_stack_overflows() {
    for opener in ["[", "{\"a\":"] {
        let deep = opener.repeat(100_000);
        assert!(CampaignReport::from_json(&deep).is_err());
        // The stream reader salvages a malformed *final* line, so put
        // the hostile line first.
        let stream = format!("{deep}\n{{}}\n");
        assert!(CampaignReport::from_json_lines(&stream, &ObjectiveKind::DEFAULT).is_err());
        assert!(read_jsonl(&deep).is_err());
        assert!(SharedMatchCache::from_persist_json(&deep, 16).is_err());
    }
}

/// SplitMix64: a tiny deterministic generator for the mutation loop.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs `read` on every prefix of `text` and on `flips` copies with a
/// few bytes replaced, failing on the first input that panics.
fn never_panics(what: &str, text: &str, flips: usize, read: impl Fn(&str)) {
    // Bytes that steer a JSON reader: structure, numbers, escapes, and a
    // multi-byte character's lead byte (lossy decoding keeps it valid).
    const ALPHABET: &[u8] = b"{}[]\",:\\ \n-+.eE0123456789aftnu\xc3";
    let check = |input: &str| {
        if catch_unwind(AssertUnwindSafe(|| read(input))).is_err() {
            let head: String = input.chars().take(200).collect();
            panic!(
                "{what} reader panicked on {} bytes starting {head:?}",
                input.len()
            );
        }
    };
    for cut in 0..=text.len() {
        if text.is_char_boundary(cut) {
            check(&text[..cut]);
        }
    }
    let mut rng = Rng(text.len() as u64);
    for _ in 0..flips {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] = ALPHABET[rng.below(ALPHABET.len())];
        }
        check(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn truncated_and_mutated_artifacts_never_panic() {
    // One real smoke campaign yields all four artifact kinds.
    let telemetry = Telemetry::recording();
    let campaign = Campaign::new(ScenarioGrid::smoke())
        .threads(1)
        .telemetry(telemetry.clone());
    let cache = SharedMatchCache::new(1 << 12);
    let mut stream: Vec<u8> = Vec::new();
    let report = {
        let mut sink = JsonLinesSink::new(&mut stream, ObjectiveKind::DEFAULT.to_vec());
        campaign.run_plan_with_cache(campaign.plan(), &mut sink, &cache)
    };
    let report = report.to_json();
    let stream = String::from_utf8(stream).unwrap();
    let trace = write_jsonl(&telemetry.take_trace());
    let cache = cache.to_persist_json();

    never_panics("report", &report, 2000, |text| {
        let _ = CampaignReport::from_json(text);
    });
    never_panics("stream", &stream, 2000, |text| {
        let _ = CampaignReport::from_json_lines(text, &ObjectiveKind::DEFAULT);
    });
    never_panics("trace", &trace, 2000, |text| {
        let _ = read_jsonl(text);
    });
    never_panics("cache", &cache, 2000, |text| {
        let _ = SharedMatchCache::from_persist_json(text, 1 << 12);
    });
}
