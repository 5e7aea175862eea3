//! Fault injection for the `ape-serve` wire protocol.
//!
//! One resident [`ServerState`] (the stdio-mode daemon, no socket) is
//! hammered with seeded batches of mixed traffic: valid requests, hostile
//! JSON (truncated, garbage, deep nesting, bad types), oversized lines
//! past the configured cap, unknown technology fingerprints, and abrupt
//! EOF with requests still in flight. Three properties are enforced per
//! batch:
//!
//! 1. **One response per non-blank line.** Every line — valid or hostile —
//!    must produce exactly one NDJSON response (a typed error counts; a
//!    missing response means a wedged worker or a dropped request).
//! 2. **Every response parses.** Each output line must round-trip through
//!    the serve JSON parser and carry `id` and `ok` fields.
//! 3. **The connection survives.** A trailing `ping` with a sentinel id
//!    must come back `ok:true` after the hostile traffic.
//!
//! Batches run under `catch_unwind`; any panic is a failure.

use ape_anneal::Rng64;
use ape_netlist::Technology;
use ape_serve::json::{self, Value};
use ape_serve::{serve_stream, standalone_state, ServerConfig, ServerState};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Line cap for the fuzz server — small, so seeded oversize is cheap.
const MAX_LINE: usize = 2048;
/// Sentinel id for the liveness ping that closes every batch.
const SENTINEL: u64 = 999_999;

/// Shared in-memory sink standing in for the TCP write half.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn valid_design(rng: &mut Rng64, id: u64) -> String {
    let gain = 50.0 + rng.f64() * 300.0;
    let ugf = 1e6 + rng.f64() * 5e6;
    format!(
        "{{\"op\":\"design\",\"id\":{id},\"topology\":{{\"mirror\":\"simple\"}},\
         \"spec\":{{\"gain\":{gain},\"ugf_hz\":{ugf},\"area_max_m2\":2e-8,\
         \"ibias\":1e-5,\"cl\":1e-11}}}}"
    )
}

/// One seeded protocol line: valid traffic, or one of the hostile shapes
/// the daemon must answer with a typed error.
fn line(rng: &mut Rng64, id: u64) -> String {
    match rng.range_usize(12) {
        0 => format!("{{\"op\":\"ping\",\"id\":{id}}}"),
        1 => format!("{{\"op\":\"stats\",\"id\":{id}}}"),
        2 | 3 => valid_design(rng, id),
        // Unknown technology fingerprint: typed 404, cache untouched.
        4 => {
            let fp = rng.next_u64();
            let mut l = valid_design(rng, id);
            l.truncate(l.len() - 1);
            l.push_str(&format!(",\"technology\":\"{fp:#018x}\"}}"));
            l
        }
        // Truncated JSON: cut a valid request mid-token.
        5 => {
            let full = valid_design(rng, id);
            let cut = 1 + rng.range_usize(full.len() - 1);
            full[..cut].to_string()
        }
        // Garbage bytes (newline-free so it stays one line).
        6 => {
            let n = 1 + rng.range_usize(64);
            (0..n)
                .map(|_| char::from(32 + (rng.next_u64() % 95) as u8))
                .collect()
        }
        // Oversized line past the cap: must 413 and resync.
        7 => format!(
            "{{\"op\":\"ping\",\"id\":{id},\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE * 2)
        ),
        // Nesting past the parser's depth limit.
        8 => format!("{}1{}", "[".repeat(80), "]".repeat(80)),
        // Wrong types and unknown ops.
        9 => format!("{{\"op\":42,\"id\":{id}}}"),
        10 => format!("{{\"op\":\"warp_core\",\"id\":{id}}}"),
        // Non-finite number literals the JSON grammar rejects.
        _ => format!("{{\"op\":\"design\",\"id\":{id},\"spec\":{{\"gain\":NaN}}}}"),
    }
}

/// Drives one seeded batch through a resident state; returns failures.
fn batch(state: &Arc<ServerState>, seed: u64, lines_per_batch: usize) -> Vec<String> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut input = String::new();
    let mut expected = 0usize;
    for id in 0..lines_per_batch as u64 {
        let l = line(&mut rng, id + 1);
        if !l.trim().is_empty() {
            expected += 1;
        }
        input.push_str(&l);
        input.push('\n');
    }
    input.push_str(&format!("{{\"op\":\"ping\",\"id\":{SENTINEL}}}\n"));
    expected += 1;

    let sink = SharedBuf::default();
    serve_stream(state, input.as_bytes(), sink.clone());
    let out = sink.take();
    let text = String::from_utf8_lossy(&out);

    let mut failures = Vec::new();
    let mut responses = 0usize;
    let mut sentinel_ok = false;
    for raw in text.lines().filter(|l| !l.trim().is_empty()) {
        responses += 1;
        match json::parse(raw) {
            Ok(v) => {
                let id = v.get("id").and_then(Value::as_f64);
                let ok = v.get("ok");
                if id.is_none() || ok.is_none() {
                    failures.push(format!(
                        "serve seed {seed:#x}: response missing id/ok: {raw}"
                    ));
                } else if id == Some(SENTINEL as f64) {
                    sentinel_ok = matches!(ok, Some(Value::Bool(true)));
                }
            }
            Err(e) => failures.push(format!(
                "serve seed {seed:#x}: unparseable response ({e}): {raw}"
            )),
        }
    }
    if responses != expected {
        failures.push(format!(
            "serve seed {seed:#x}: {expected} non-blank lines sent, {responses} responses"
        ));
    }
    if !sentinel_ok {
        failures.push(format!(
            "serve seed {seed:#x}: connection did not answer the trailing ping \
             (wedged worker or dropped request)"
        ));
    }
    failures
}

/// Runs `batches` seeded hostile-protocol batches against one resident
/// daemon state (the farm stays up across batches — a wedge in batch `k`
/// surfaces in batch `k+1`'s sentinel).
pub fn run(base_seed: u64, batches: usize) -> Vec<String> {
    let state = standalone_state(
        Technology::default_1p2um(),
        ServerConfig {
            max_line_bytes: MAX_LINE,
            allow_remote_shutdown: false,
            ..ServerConfig::default()
        },
    );
    let mut failures = Vec::new();
    for k in 0..batches {
        let seed = base_seed.wrapping_add((k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        match catch_unwind(AssertUnwindSafe(|| batch(&state, seed, 24))) {
            Ok(f) => failures.extend(f),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string payload".to_string());
                failures.push(format!("serve seed {seed:#x}: PANIC: {msg}"));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_batches_pass() {
        let failures = run(0x5EED_5E4E, 3);
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
