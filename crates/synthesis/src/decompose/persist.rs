//! Persistence for the VF2 match cache: a hand-rolled JSON format that
//! survives process restarts and machine hops.
//!
//! A [`SharedMatchCache`](super::SharedMatchCache) amortizes VF2
//! enumeration within one process; across processes (restarted campaigns,
//! sharded fleets) every worker used to rebuild it from cold. The cached
//! payload is pure data — per (vertex count, remaining-graph edge key,
//! primitive), the complete distinct-image list, each image a vertex
//! mapping plus its covered edge set — so it serializes losslessly.
//!
//! # Format
//!
//! One JSON document (`schema_version` 1), written with a stable key
//! order and canonical entry order (ascending vertex count, then edge-key
//! words, then primitive id), so `save → load → save` reproduces the file
//! byte for byte:
//!
//! ```json
//! {
//!   "cache": "noc_match_cache",
//!   "schema_version": 1,
//!   "library": "<fingerprint of this build's standard primitive library>",
//!   "sizes": [
//!     {"vertex_count": 8, "graphs": [
//!       {"key": ["1002"], "primitives": [
//!         {"id": 0, "arity": 3, "images": [[[0, 1, 4], [0, 1, 1, 4]]]}
//!       ]}
//!     ]}
//!   ]
//! }
//! ```
//!
//! * `key` — the remaining graph's edge-bitset words
//!   ([`BitSetKey::words`]), least-significant first, as **hex strings**.
//!   The shared reader ([`noc_telemetry::json`]) reads integers as exact
//!   `u64`s, so plain numbers would survive too; the hex form stays so
//!   existing cache files keep loading.
//! * each image is a two-element array `[mapping, edges]`: the mapping's
//!   image vertices in pattern order, then the covered edge list
//!   flattened as `src, dst` pairs.
//!
//! The reader parses the file with the shared JSON reader and walks the
//! tree strictly — structural *and* semantic validation (the writer's
//! exact key order, `vertex_count * vertex_count` edge bits in `usize`
//! range with every key bit below it, vertex ids in range, injective
//! mappings matching the entry's declared `arity`, covered edges present
//! in the keyed graph), because entries feed the decomposition search
//! unchecked. Two layers cover the
//! primitive-binding hazard (entries are keyed by [`PrimitiveId`], which
//! is only meaningful relative to a library): the file's `library`
//! fingerprint pins the **standard** library across builds, and every
//! lookup passes the consumer pattern's arity, which is compared against
//! the entry's recorded arity — so even an empty "no matches" entry
//! recorded under one binding is a miss under another.
//! Callers who want a bad file to degrade to a cold start use
//! [`SharedMatchCache::warm_start`](super::SharedMatchCache::warm_start),
//! which wraps the strict reader. Loaded entries are marked **warm** so
//! campaign reports can attribute hits to the persisted file (see
//! [`SizeCacheStats::warm_hits`](super::SizeCacheStats::warm_hits)).

use std::sync::Arc;

use noc_graph::{iso::Mapping, BitSetKey, Edge, NodeId};
use noc_primitives::{CommLibrary, PrimitiveId};
use noc_telemetry::json::JsonValue;

use super::cache::MatchCache;

/// Format version written by [`write`]; newer files are rejected.
pub(crate) const CACHE_SCHEMA_VERSION: u64 = 1;

/// FNV-1a fingerprint of a primitive library: per primitive, its id,
/// label and representation graph (vertex count + edge list). Cache
/// entries are keyed by [`PrimitiveId`], so a file written under one
/// library must never be consumed under another that binds those ids to
/// different patterns. The writer always stamps the [standard
/// library](CommLibrary::standard)'s fingerprint — the library every
/// campaign path uses — and the reader rejects a mismatch, degrading
/// warm starts to cold across library-changing upgrades. Persisting a
/// cache populated under a *custom* library is unsupported (the stamp
/// would not describe it); the per-entry recorded arity still rejects
/// mismatched entries at lookup, but same-arity pattern collisions
/// cannot be detected, so keep custom-library caches in-process.
pub(crate) fn library_fingerprint(library: &CommLibrary) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, primitive) in library.iter() {
        eat(&(id.index() as u64).to_le_bytes());
        eat(primitive.label().as_bytes());
        let representation = primitive.representation();
        eat(&(representation.node_count() as u64).to_le_bytes());
        for e in representation.edges() {
            eat(&(e.src.index() as u64).to_le_bytes());
            eat(&(e.dst.index() as u64).to_le_bytes());
        }
    }
    format!("{hash:016x}")
}

/// Serializes every entry of `cache` in canonical order.
pub(crate) fn write(cache: &MatchCache) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"cache\": \"noc_match_cache\",\n");
    out.push_str(&format!(
        "  \"schema_version\": {CACHE_SCHEMA_VERSION},\n  \"library\": \"{}\",\n  \"sizes\": [",
        library_fingerprint(&CommLibrary::standard()),
    ));
    let entries = cache.snapshot();
    let mut first_size = true;
    let mut at = 0;
    while at < entries.len() {
        let n = entries[at].0;
        let size_end = entries[at..].partition_point(|e| e.0 == n) + at;
        if !first_size {
            out.push(',');
        }
        first_size = false;
        out.push_str(&format!("\n    {{\"vertex_count\": {n}, \"graphs\": ["));
        let mut first_graph = true;
        while at < size_end {
            let key = &entries[at].1;
            let graph_end = entries[at..size_end].partition_point(|e| &e.1 == key) + at;
            let words: Vec<String> = key.words().iter().map(|w| format!("\"{w:x}\"")).collect();
            if !first_graph {
                out.push(',');
            }
            first_graph = false;
            out.push_str(&format!(
                "\n      {{\"key\": [{}], \"primitives\": [",
                words.join(", ")
            ));
            let mut first_primitive = true;
            for (_, _, primitive, entry) in &entries[at..graph_end] {
                let images: Vec<String> = entry
                    .images
                    .iter()
                    .map(|(mapping, edges)| {
                        let map: Vec<String> = mapping
                            .images()
                            .iter()
                            .map(|v| v.index().to_string())
                            .collect();
                        let flat: Vec<String> = edges
                            .iter()
                            .flat_map(|e| [e.src.index().to_string(), e.dst.index().to_string()])
                            .collect();
                        format!("[[{}], [{}]]", map.join(", "), flat.join(", "))
                    })
                    .collect();
                if !first_primitive {
                    out.push(',');
                }
                first_primitive = false;
                out.push_str(&format!(
                    "\n        {{\"id\": {}, \"arity\": {}, \"images\": [{}]}}",
                    primitive.index(),
                    entry.arity,
                    images.join(", ")
                ));
            }
            out.push_str("\n      ]}");
            at = graph_end;
        }
        out.push_str("\n    ]}");
    }
    out.push_str(if entries.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Parses a document written by [`write`] and inserts every entry into
/// `cache` as a **warm** (loaded) entry. Strict: structural errors,
/// unknown or reordered keys, unknown markers, newer schema versions and
/// semantically invalid entries (out-of-range vertices, non-injective
/// mappings, edges missing from the key) all fail.
pub(crate) fn read(text: &str, cache: &MatchCache) -> Result<(), String> {
    let tree = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let [marker, version, fingerprint, sizes] =
        object(&tree, ["cache", "schema_version", "library", "sizes"])?;
    let marker = string(marker)?;
    if marker != "noc_match_cache" {
        return Err(format!("not a match-cache file (marker '{marker}')"));
    }
    let version = integer(version)?;
    if version > CACHE_SCHEMA_VERSION {
        return Err(format!(
            "cache schema v{version} is newer than this reader understands (v{CACHE_SCHEMA_VERSION})"
        ));
    }
    let fingerprint = string(fingerprint)?;
    let expected = library_fingerprint(&CommLibrary::standard());
    if fingerprint != expected {
        return Err(format!(
            "cache was written under a different primitive library \
             (fingerprint {fingerprint}, this build has {expected}) — \
             its PrimitiveId-keyed entries would bind to the wrong patterns"
        ));
    }
    for size in array(sizes)? {
        let [n, graphs] = object(size, ["vertex_count", "graphs"])?;
        let n = index(n)?;
        // Edge bits are `src * n + dst`, so `n * n` must fit a usize.
        let bits = n
            .checked_mul(n)
            .filter(|_| n > 0)
            .ok_or_else(|| format!("vertex_count {n} out of range"))?;
        for graph in array(graphs)? {
            let [key, primitives] = object(graph, ["key", "primitives"])?;
            let words = array(key)?
                .iter()
                .map(|word| {
                    let hex = string(word)?;
                    u64::from_str_radix(hex, 16).map_err(|_| format!("bad edge-key word '{hex}'"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            let key = BitSetKey::from_words(words);
            // A key bit at or beyond `n * n` denotes no edge of an
            // n-vertex graph.
            if let Some(&top) = key.words().last() {
                let top_bit = 64 * (key.words().len() - 1) + 63 - top.leading_zeros() as usize;
                if top_bit >= bits {
                    return Err(format!(
                        "edge-key bit {top_bit} out of range for an {n}-vertex graph"
                    ));
                }
            }
            for entry in array(primitives)? {
                let [id, arity, images] = object(entry, ["id", "arity", "images"])?;
                let primitive = PrimitiveId(index(id)?);
                let arity = index(arity)?;
                if arity == 0 || arity > n {
                    return Err(format!(
                        "arity {arity} out of range for an {n}-vertex graph"
                    ));
                }
                let images = array(images)?
                    .iter()
                    .map(|image| read_image(image, n, arity, &key))
                    .collect::<Result<Vec<_>, String>>()?;
                cache.insert_loaded(n, key.clone(), primitive, arity, Arc::new(images));
            }
        }
    }
    Ok(())
}

/// One `[mapping, edges]` image of an `arity`-vertex pattern in the
/// `n`-vertex graph `key`.
fn read_image(
    image: &JsonValue,
    n: usize,
    arity: usize,
    key: &BitSetKey,
) -> Result<(Mapping, Vec<Edge>), String> {
    let [map, flat] = array(image)? else {
        return Err("an image is a [mapping, edges] pair".to_string());
    };
    let map = vertex_list(map, n)?;
    if !injective(&map) {
        return Err("mapping repeats a target vertex".to_string());
    }
    // One enumeration = one pattern: every mapping must have the entry's
    // declared arity.
    if map.len() != arity {
        return Err(format!(
            "mapping arity {} does not match the entry's declared arity {arity}",
            map.len()
        ));
    }
    let flat = vertex_list(flat, n)?;
    if flat.len() % 2 != 0 {
        return Err("edge list must hold src,dst pairs".to_string());
    }
    let edges: Vec<Edge> = flat.chunks(2).map(|p| Edge::new(p[0], p[1])).collect();
    // A covered edge must exist in the remaining graph the key denotes
    // (edge bit = src*n + dst) — the search subtracts these edges
    // unchecked and would panic on a fabricated one.
    for e in &edges {
        let bit = e.src.index() * n + e.dst.index();
        let present = key
            .words()
            .get(bit / 64)
            .is_some_and(|w| w & (1 << (bit % 64)) != 0);
        if !present {
            return Err(format!(
                "covered edge ({}, {}) is not an edge of the keyed graph",
                e.src.index(),
                e.dst.index()
            ));
        }
    }
    Ok((Mapping::new(map), edges))
}

fn injective(images: &[NodeId]) -> bool {
    let mut sorted: Vec<usize> = images.iter().map(|v| v.index()).collect();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// The values of an object whose keys are exactly `keys`, in order (the
/// writer never emits unknown or reordered keys, so a fixed expectation
/// is both simpler and stricter).
fn object<'a, const N: usize>(
    v: &'a JsonValue,
    keys: [&str; N],
) -> Result<[&'a JsonValue; N], String> {
    let fields = v.as_object().ok_or("expected an object")?;
    let found: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if found != keys {
        return Err(format!("expected keys {keys:?}, found {found:?}"));
    }
    Ok(std::array::from_fn(|i| &fields[i].1))
}

fn array(v: &JsonValue) -> Result<&[JsonValue], String> {
    v.as_array().ok_or_else(|| "expected an array".to_string())
}

fn string(v: &JsonValue) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected a string".to_string())
}

fn integer(v: &JsonValue) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| "expected an unsigned integer".to_string())
}

fn index(v: &JsonValue) -> Result<usize, String> {
    v.as_usize()
        .ok_or_else(|| "expected an unsigned integer in usize range".to_string())
}

/// `[v, v, ...]` with every vertex id checked against `n`.
fn vertex_list(v: &JsonValue, n: usize) -> Result<Vec<NodeId>, String> {
    array(v)?
        .iter()
        .map(|v| {
            let v = index(v)?;
            if v >= n {
                return Err(format!("vertex {v} out of range for {n}-vertex graph"));
            }
            Ok(NodeId(v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::SharedMatchCache;
    use super::*;

    fn populated() -> SharedMatchCache {
        let cache = SharedMatchCache::new(64);
        let images: super::super::cache::ImageList = Arc::new(vec![
            (
                Mapping::new(vec![NodeId(0), NodeId(1), NodeId(4)]),
                vec![
                    Edge::new(NodeId(0), NodeId(1)),
                    Edge::new(NodeId(1), NodeId(4)),
                ],
            ),
            (
                Mapping::new(vec![NodeId(2), NodeId(3), NodeId(5)]),
                vec![Edge::new(NodeId(2), NodeId(3))],
            ),
        ]);
        // Keys must contain every covered edge's bit (src*n + dst): at
        // n=8 the edges above are bits 1, 12 and 19; at n=10 they are
        // bits 1, 14 and 23, plus an unrelated bit-65 edge so the n=10
        // key exercises the multi-word path.
        let key8 = BitSetKey::from_words(vec![(1 << 1) | (1 << 12) | (1 << 19)]);
        let key10 = BitSetKey::from_words(vec![(1 << 1) | (1 << 14) | (1 << 23), 0x2]);
        cache
            .inner()
            .insert(8, key8.clone(), PrimitiveId(0), 3, images.clone());
        cache
            .inner()
            .insert(8, key8, PrimitiveId(2), 4, Arc::new(Vec::new()));
        cache.inner().insert(10, key10, PrimitiveId(1), 3, images);
        cache
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let original = populated();
        let json = original.to_persist_json();
        let loaded = SharedMatchCache::from_persist_json(&json, 64).expect("parse own output");
        assert_eq!(loaded.to_persist_json(), json);
        assert_eq!(loaded.graph_count(), original.graph_count());
    }

    #[test]
    fn loaded_entries_answer_and_count_warm_hits() {
        let json = populated().to_persist_json();
        let warmed = SharedMatchCache::from_persist_json(&json, 64).unwrap();
        let key = BitSetKey::from_words(vec![(1 << 1) | (1 << 12) | (1 << 19)]);
        let images = warmed
            .inner()
            .get(8, &key, PrimitiveId(0), 3)
            .expect("warm entry");
        assert_eq!(images.len(), 2);
        assert_eq!(images[0].0.images(), &[NodeId(0), NodeId(1), NodeId(4)]);
        let stats = warmed.size_stats();
        assert_eq!(stats[0].vertex_count, 8);
        assert_eq!((stats[0].hits, stats[0].warm_hits), (1, 1));

        // A cold cache never reports warm hits.
        let cold = populated();
        cold.inner().get(8, &key, PrimitiveId(0), 3);
        assert_eq!(cold.size_stats()[0].warm_hits, 0);
    }

    #[test]
    fn empty_cache_round_trips() {
        let empty = SharedMatchCache::new(4);
        let json = empty.to_persist_json();
        assert!(json.contains("\"sizes\": []"), "{json}");
        let loaded = SharedMatchCache::from_persist_json(&json, 4).unwrap();
        assert_eq!(loaded.graph_count(), 0);
        assert_eq!(loaded.to_persist_json(), json);
    }

    #[test]
    fn reader_rejects_corruption() {
        let json = populated().to_persist_json();
        // Truncation anywhere is an error (the strict path).
        for cut in [10, json.len() / 2, json.len() - 3] {
            assert!(
                SharedMatchCache::from_persist_json(&json[..cut], 64).is_err(),
                "accepted truncation at {cut}"
            );
        }
        // Foreign marker, future version, out-of-range vertex, broken map.
        let foreign = json.replace("noc_match_cache", "something_else");
        assert!(SharedMatchCache::from_persist_json(&foreign, 64).is_err());
        let future = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = SharedMatchCache::from_persist_json(&future, 64).unwrap_err();
        assert!(err.contains("v99"), "{err}");
        let out_of_range = json.replace("[[0, 1, 4]", "[[0, 1, 9]");
        assert!(SharedMatchCache::from_persist_json(&out_of_range, 64).is_err());
        let repeated = json.replace("[[0, 1, 4]", "[[0, 1, 1]");
        let err = SharedMatchCache::from_persist_json(&repeated, 64).unwrap_err();
        assert!(err.contains("repeats"), "{err}");
        // Covered edges must be edges of the keyed graph: (3, 4) is bit
        // 28 at n=8 / bit 34 at n=10, set in neither key — the search
        // would panic subtracting it.
        let fabricated = json.replace("[0, 1, 1, 4]", "[0, 1, 3, 4]");
        let err = SharedMatchCache::from_persist_json(&fabricated, 64).unwrap_err();
        assert!(err.contains("not an edge"), "{err}");
        // Every image of one enumeration maps the entry's declared
        // pattern arity; a shortened mapping is a corruption.
        let mixed = json.replace("[[2, 3, 5], [2, 3]]", "[[2, 3], [2, 3]]");
        let err = SharedMatchCache::from_persist_json(&mixed, 64).unwrap_err();
        assert!(err.contains("declared arity"), "{err}");
        // A cache from a build with a different primitive library must be
        // refused: its PrimitiveId-keyed entries bind to other patterns.
        let fp = library_fingerprint(&CommLibrary::standard());
        let foreign_lib = json.replace(&fp, "0123456789abcdef");
        let err = SharedMatchCache::from_persist_json(&foreign_lib, 64).unwrap_err();
        assert!(err.contains("different primitive library"), "{err}");
        assert!(SharedMatchCache::from_persist_json(&format!("{json} x"), 64).is_err());
    }

    #[test]
    fn reader_rejects_vertex_counts_beyond_the_edge_bit_range() {
        let json = populated().to_persist_json();
        // n = 2³³: n * n overflows, and the covered edge (2³², 4) would
        // overflow `src * n + dst` if the count were accepted.
        let huge = json
            .replacen("\"vertex_count\": 8", "\"vertex_count\": 8589934592", 1)
            .replacen("[0, 1, 1, 4]", "[0, 1, 4294967296, 4]", 1);
        let err = SharedMatchCache::from_persist_json(&huge, 64).unwrap_err();
        assert!(err.contains("vertex_count"), "{err}");
        let zero = json.replacen("\"vertex_count\": 8", "\"vertex_count\": 0", 1);
        assert!(SharedMatchCache::from_persist_json(&zero, 64).is_err());
        // The n=10 key has bit 65 set; at n=8 (64 edge bits) that bit
        // names no edge.
        let shrunk = json.replacen("\"vertex_count\": 10", "\"vertex_count\": 8", 1);
        let err = SharedMatchCache::from_persist_json(&shrunk, 64).unwrap_err();
        assert!(err.contains("edge-key bit 65"), "{err}");
    }

    #[test]
    fn reader_requires_the_writer_key_order() {
        let json = populated().to_persist_json();
        let swapped = json.replacen("{\"id\": 0, \"arity\": 3,", "{\"arity\": 3, \"id\": 0,", 1);
        let err = SharedMatchCache::from_persist_json(&swapped, 64).unwrap_err();
        assert!(err.contains("expected keys"), "{err}");
        let extra = json.replacen("\"sizes\":", "\"extra\": 1, \"sizes\":", 1);
        assert!(SharedMatchCache::from_persist_json(&extra, 64).is_err());
        // Strings are ordinary JSON strings: escapes decode.
        let escaped = json.replacen("noc_match_cache", "noc\\u005fmatch_cache", 1);
        let loaded = SharedMatchCache::from_persist_json(&escaped, 64).unwrap();
        assert_eq!(loaded.to_persist_json(), json);
    }

    #[test]
    fn warm_start_degrades_to_cold_on_bad_files() {
        let dir = std::env::temp_dir().join("noc_persist_test_warm_start");
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file: plain cold start, not degraded.
        let missing = SharedMatchCache::warm_start(dir.join("absent.json"), 16);
        assert_eq!(missing.loaded_graphs, 0);
        assert!(missing.degraded.is_none());

        // Corrupt file: cold start with the reason captured.
        let bad = dir.join("corrupt.json");
        std::fs::write(&bad, &populated().to_persist_json()[..40]).unwrap();
        let degraded = SharedMatchCache::warm_start(&bad, 16);
        assert_eq!(degraded.loaded_graphs, 0);
        assert_eq!(degraded.cache.graph_count(), 0);
        assert!(degraded.degraded.is_some());

        // Good file: warm, with the graph count reported.
        let good = dir.join("good.json");
        populated().save_to(&good).unwrap();
        let warm = SharedMatchCache::warm_start(&good, 16);
        assert_eq!(warm.loaded_graphs, 2);
        assert!(warm.degraded.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absorb_unions_entries_without_clobbering() {
        let a = SharedMatchCache::new(16);
        let b = populated();
        a.absorb(&b);
        assert_eq!(a.graph_count(), b.graph_count());
        assert_eq!(a.to_persist_json(), b.to_persist_json());
        // Absorbing again changes nothing.
        a.absorb(&b);
        assert_eq!(a.graph_count(), 2);

        // Existing entries win over absorbed ones.
        let key = BitSetKey::from_words(vec![(1 << 1) | (1 << 12) | (1 << 19)]);
        let c = SharedMatchCache::new(16);
        c.inner()
            .insert(8, key.clone(), PrimitiveId(0), 3, Arc::new(Vec::new()));
        c.absorb(&b);
        assert_eq!(
            c.inner().peek(8, &key, PrimitiveId(0), 3).unwrap().len(),
            0,
            "absorb must not replace an existing enumeration"
        );
    }
}
