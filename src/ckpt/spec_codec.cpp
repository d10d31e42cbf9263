#include "ckpt/spec_codec.hpp"

#include <string>
#include <type_traits>

namespace virec::ckpt {

u64 fnv1a(u64 h, const void* data, std::size_t size) {
  const u8* p = static_cast<const u8*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

template <typename T>
void put_knob(Encoder& enc, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    enc.put_str(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    enc.put_bool(value);
  } else if constexpr (std::is_enum_v<T>) {
    enc.put_u32(static_cast<u32>(value));
  } else if constexpr (std::is_same_v<T, u32>) {
    enc.put_u32(value);
  } else if constexpr (std::is_same_v<T, u64>) {
    enc.put_u64(value);
  } else if constexpr (std::is_same_v<T, double>) {
    enc.put_f64(value);
  } else {
    static_assert(sizeof(T) == 0, "knob type without an identity encoding");
  }
}

}  // namespace

void encode_spec_identity(Encoder& enc, const sim::RunSpec& spec) {
  enc.put_u32(kSpecCodecVersion);
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    if ((knob.roles & sim::kIdentity) != 0) put_knob(enc, field(spec));
  });
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
  Encoder enc;
  enc.put_u32(kFuncStreamVersion);
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    if ((knob.roles & sim::kFunctional) != 0) put_knob(enc, field(spec));
  });
  return fnv1a(kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

}  // namespace virec::ckpt
