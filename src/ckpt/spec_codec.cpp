#include "ckpt/spec_codec.hpp"

namespace virec::ckpt {

u64 fnv1a(u64 h, const void* data, std::size_t size) {
  const u8* p = static_cast<const u8*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void encode_spec_identity(Encoder& enc, const sim::RunSpec& spec) {
  enc.put_str(spec.workload);
  enc.put_u32(static_cast<u32>(spec.scheme));
  enc.put_u32(static_cast<u32>(spec.policy));
  enc.put_u32(spec.num_cores);
  enc.put_u32(spec.threads_per_core);
  enc.put_f64(spec.context_fraction);
  enc.put_u64(spec.params.iters_per_thread);
  enc.put_u64(spec.params.elements);
  enc.put_u64(spec.params.stride);
  enc.put_u64(spec.params.locality_window);
  enc.put_u32(spec.params.extra_compute);
  enc.put_u32(spec.params.max_regs);
  enc.put_u64(spec.params.seed);
  enc.put_u32(spec.dcache_bytes);
  enc.put_u32(spec.dcache_latency);
  enc.put_u32(spec.phys_regs);
  enc.put_u64(spec.max_cycles);
  enc.put_bool(spec.group_spill);
  enc.put_bool(spec.switch_prefetch);
  // Tiered sampling changes the reported result (estimated vs measured
  // cycles), so the sampling plan is part of the identity.
  enc.put_bool(spec.functional_ff);
  enc.put_u32(spec.sample_windows);
  enc.put_u64(spec.window_insts);
  enc.put_u64(spec.warmup_insts);
  // v2: adaptive warm-up changes the sampled estimate, so it is
  // identity. stream_reuse / stream_dir are NOT: reuse is bit-identical
  // by construction (tests/test_stream_reuse). v3 dropped the
  // set-sampled warming factor.
  enc.put_u32(spec.adaptive_warmup);
}

void encode_result(Encoder& enc, const sim::RunResult& result) {
  enc.put_u64(result.cycles);
  enc.put_u64(result.instructions);
  enc.put_f64(result.ipc);
  enc.put_bool(result.check_ok);
  enc.put_str(result.check_msg);
  enc.put_f64(result.rf_hit_rate);
  enc.put_u64(result.context_switches);
  enc.put_u64(result.rf_fills);
  enc.put_u64(result.rf_spills);
  enc.put_f64(result.avg_dcache_miss_latency);
  enc.put_u32(static_cast<u32>(result.cpi_stack.size()));
  for (const double v : result.cpi_stack) enc.put_f64(v);
}

sim::RunResult decode_result(Decoder& dec) {
  sim::RunResult result;
  result.cycles = dec.get_u64();
  result.instructions = dec.get_u64();
  result.ipc = dec.get_f64();
  result.check_ok = dec.get_bool();
  result.check_msg = dec.get_str();
  result.rf_hit_rate = dec.get_f64();
  result.context_switches = dec.get_u64();
  result.rf_fills = dec.get_u64();
  result.rf_spills = dec.get_u64();
  result.avg_dcache_miss_latency = dec.get_f64();
  const u32 buckets = dec.get_u32();
  if (buckets != result.cpi_stack.size()) {
    throw CkptError("result payload carries " + std::to_string(buckets) +
                    " cycle buckets, this build has " +
                    std::to_string(result.cpi_stack.size()));
  }
  for (double& v : result.cpi_stack) v = dec.get_f64();
  return result;
}

u64 spec_hash(const sim::RunSpec& spec) {
  Encoder enc;
  encode_spec_identity(enc, spec);
  return fnv1a(kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

u64 functional_stream_hash(const sim::RunSpec& spec) {
  if (spec.num_cores != 1) return 0;
  Encoder enc;
  enc.put_u32(kFuncStreamVersion);
  enc.put_str(spec.workload);
  enc.put_u64(spec.params.iters_per_thread);
  enc.put_u64(spec.params.elements);
  enc.put_u64(spec.params.stride);
  enc.put_u64(spec.params.locality_window);
  enc.put_u32(spec.params.extra_compute);
  enc.put_u32(spec.params.max_regs);
  enc.put_u64(spec.params.seed);
  enc.put_u32(spec.num_cores);
  enc.put_u32(spec.threads_per_core);
  // The dcache byte size shapes the schedule model's set geometry
  // (switch-on-miss decisions), so it splits streams; latency, scheme,
  // policy and phys_regs do not reach the functional tier.
  enc.put_u32(spec.dcache_bytes);
  const u64 h = fnv1a(kFnvOffsetBasis, enc.bytes().data(), enc.size());
  return h == 0 ? 1 : h;
}

}  // namespace virec::ckpt
