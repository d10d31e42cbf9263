// Canonical binary encoding of experiment points (sim::RunSpec) and
// their outcomes (sim::RunResult), shared by two consumers that must
// agree byte-for-byte:
//
//   * hashing — ckpt::spec_hash is FNV-1a over the *identity* bytes,
//     the one key every finished point is stored and deduplicated by
//     (sim::run_points, virec-repro's result map, svc::ResultStore);
//   * the persistent result store — entries embed the identity bytes
//     and verify them on lookup, so a hash collision or a codec change
//     degrades to a cache miss, never a wrong result. Results are
//     stored with doubles by bit pattern, so a stored point reproduces
//     a fresh run's CSV/JSON output exactly.
//
// The identity covers every field that changes the simulated outcome:
// the rows the knob table (sim/run_spec.hpp) marks kIdentity, after a
// leading kSpecCodecVersion word that stands for the model itself. It
// deliberately excludes `check` (validation-only: a checked run
// produces the same RunResult) and `no_skip` (event skipping is
// bit-identical by construction, enforced by tests/test_skip.cpp) — so
// a checked or stepped request is served from a stored unchecked or
// skipping run.
#pragma once

#include "ckpt/serialize.hpp"
#include "sim/run_spec.hpp"
#include "sim/system.hpp"

namespace virec::ckpt {

/// The leading word of every spec identity (`virec-sim --version`
/// reports it). Bumped whenever the identity layout changes *or* any
/// simulated outcome changes (a model fix, a changed preset): store
/// entries written under another value read as misses, because lookups
/// compare the stored identity bytes. Re-pinning an output in
/// tests/test_pinned_outputs.cpp bumps it too.
inline constexpr u32 kSpecCodecVersion = 6;

/// Append the identity bytes of @p spec (outcome-defining fields only;
/// see file comment) to @p enc: kSpecCodecVersion, then every kIdentity
/// row of the knob table in table order, enums as u32. Field order is
/// part of the format.
void encode_spec_identity(Encoder& enc, const sim::RunSpec& spec);

/// Store encoding of a completed result: sim::RunResult::state's field
/// list through an Archive (all fields, doubles by bit pattern).
void encode_result(Encoder& enc, const sim::RunResult& result);
sim::RunResult decode_result(Decoder& dec);

/// Deterministic identity hash of an experiment point: FNV-1a over
/// encode_spec_identity's bytes. Two specs collide only if they
/// describe the same simulated outcome (module the 64-bit hash; the
/// result store additionally verifies the identity bytes).
u64 spec_hash(const sim::RunSpec& spec);

/// FNV-1a over arbitrary bytes (exposed for reuse; seed with
/// kFnvOffsetBasis).
inline constexpr u64 kFnvOffsetBasis = 0xcbf29ce484222325ull;
u64 fnv1a(u64 h, const void* data, std::size_t size);

/// Functional identity of an experiment point: hash over exactly the
/// knob-table rows marked kFunctional, in table order — the fields that
/// shape the functional tier's instruction stream and warm-event
/// sequence (workload + parameters, topology, and the dcache size whose
/// set geometry drives switch-on-miss scheduling). It deliberately
/// excludes the replacement policy, scheme, phys_regs/context_fraction,
/// dcache latency and the sample plan: points differing only in those
/// replay the same stream (the whole point of stream reuse).
u64 functional_stream_hash(const sim::RunSpec& spec);

}  // namespace virec::ckpt
