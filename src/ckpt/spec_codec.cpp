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
  sim::RunResult copy = result;  // state() moves fields both ways
  Archive ar(enc);
  copy.state(ar);
}

sim::RunResult decode_result(Decoder& dec) {
  sim::RunResult result;
  Archive ar(dec);
  result.state(ar);
  return result;
}

u64 spec_hash(const sim::RunSpec& spec) {
  Encoder enc;
  encode_spec_identity(enc, spec);
  return fnv1a(kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

u64 functional_stream_hash(const sim::RunSpec& spec) {
  Encoder enc;
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    if ((knob.roles & sim::kFunctional) != 0) put_knob(enc, field(spec));
  });
  return fnv1a(kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

}  // namespace virec::ckpt
