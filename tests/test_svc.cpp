// Result-store tests (docs/checkpointing.md, "Result store"): the
// canonical spec identity and the knob table it is generated from
// (with the table's command-line parser and validate()), the result
// codec, and the content-addressed ResultStore's round trip, identity
// check and corruption handling — plus the strict JSON parser the
// tests read reports with. Sweeps over a store (resume, dedup,
// concurrent writers, corrupt-entry re-run) are covered in
// tests/test_sweep.cpp.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "common/version.hpp"
#include "svc/result_store.hpp"
#include "json_parse.hpp"

namespace virec {
namespace {

/// A small experiment point (never simulated here: only its identity
/// and stored results are exercised).
sim::RunSpec quick_spec(u32 threads = 2) {
  sim::RunSpec spec;
  spec.workload = "reduce";
  spec.threads_per_core = threads;
  spec.params.iters_per_thread = 8;
  spec.params.elements = 256;
  return spec;
}

/// Deterministic synthetic result with every field populated, so a
/// codec round trip that drops a field cannot pass by accident.
sim::RunResult synthetic_result() {
  sim::RunResult r;
  r.cycles = 123456789;
  r.instructions = 987654321;
  r.ipc = 1.25e-3;
  r.check_ok = true;
  r.check_msg = "ok-ish";
  r.rf_hit_rate = 0.87654321;
  r.context_switches = 4242;
  r.rf_fills = 17;
  r.rf_spills = 19;
  r.avg_dcache_miss_latency = 33.125;
  for (std::size_t b = 0; b < r.cpi_stack.size(); ++b) {
    r.cpi_stack[b] = 0.001 * static_cast<double>(b + 1);
  }
  return r;
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SpecCodec, IdentityIgnoresRunModeFlags) {
  // check/no_skip change how a run is validated/stepped, not its
  // outcome (test_skip.cpp proves bit-equality), so a checked request
  // must hit the cache of an unchecked run.
  sim::RunSpec a = quick_spec();
  sim::RunSpec b = a;
  b.check = true;
  b.no_skip = true;
  EXPECT_EQ(ckpt::spec_hash(a), ckpt::spec_hash(b));

  // Everything outcome-defining must move the hash.
  sim::RunSpec c = a;
  c.params.seed += 1;
  EXPECT_NE(ckpt::spec_hash(a), ckpt::spec_hash(c));
  sim::RunSpec d = a;
  d.sample_windows = 3;
  EXPECT_NE(ckpt::spec_hash(a), ckpt::spec_hash(d));
  sim::RunSpec e = a;
  e.context_fraction = 0.5;
  EXPECT_NE(ckpt::spec_hash(a), ckpt::spec_hash(e));
}

TEST(SpecCodec, IdentityHashIsPinned) {
  // Stores outlive builds: an entry written by an earlier build is
  // served only while the identity bytes stay the same. A deliberate
  // identity or model change bumps kSpecCodecVersion (the identity's
  // leading word) and these constants together.
  EXPECT_EQ(ckpt::kSpecCodecVersion, 6u);
  sim::RunSpec spec = quick_spec();
  EXPECT_EQ(ckpt::spec_hash(spec), 0x32b6b1c47a1298adull);
  spec.sample_windows = 3;
  spec.window_insts = 2000;
  spec.warmup_insts = 500;
  EXPECT_EQ(ckpt::spec_hash(spec), 0x665e663d1bca6c30ull);
}

/// A value different from @p value, of the same knob type.
template <typename T>
T perturbed(T value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value + "x";
  } else if constexpr (std::is_same_v<T, bool>) {
    return !value;
  } else if constexpr (std::is_same_v<T, sim::Scheme>) {
    return value == sim::Scheme::kNSF ? sim::Scheme::kBanked
                                      : sim::Scheme::kNSF;
  } else if constexpr (std::is_same_v<T, core::PolicyKind>) {
    return value == core::PolicyKind::kFIFO ? core::PolicyKind::kLRU
                                            : core::PolicyKind::kFIFO;
  } else if constexpr (std::is_same_v<T, double>) {
    return value / 2;
  } else {
    return value + 1;
  }
}

/// Command-line text for a knob type, and the value it parses to.
template <typename T>
std::string sample_text(T* value) {
  if constexpr (std::is_same_v<T, std::string>) {
    *value = "reduce";
    return "reduce";
  } else if constexpr (std::is_same_v<T, bool>) {
    *value = true;  // a switch: no text
    return "";
  } else if constexpr (std::is_same_v<T, sim::Scheme>) {
    *value = sim::Scheme::kPrefetchExact;
    return "prefetch-exact";
  } else if constexpr (std::is_same_v<T, core::PolicyKind>) {
    *value = core::PolicyKind::kMrtLRU;
    return "mrt-lru";
  } else if constexpr (std::is_same_v<T, double>) {
    *value = 0.25;
    return "0.25";
  } else {
    *value = 4242;
    return "4242";
  }
}

TEST(KnobTable, IdentityRowsAndOnlyThoseMoveTheHash) {
  const sim::RunSpec base = quick_spec();
  const u64 h0 = ckpt::spec_hash(base);
  int identity_rows = 0;
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    sim::RunSpec spec = base;
    field(spec) = perturbed(field(spec));
    const bool identity = (knob.roles & sim::kIdentity) != 0;
    identity_rows += identity ? 1 : 0;
    EXPECT_EQ(ckpt::spec_hash(spec) != h0, identity) << knob.field;
  });
  EXPECT_GT(identity_rows, 0);
  // The run-mode knobs never reach the identity.
  sim::RunSpec run_mode = base;
  run_mode.check = true;
  run_mode.no_skip = true;
  EXPECT_EQ(ckpt::spec_hash(run_mode), h0);
}

TEST(KnobTable, FunctionalRowsAndOnlyThoseMoveTheStreamKey) {
  const sim::RunSpec base = quick_spec();
  const u64 h0 = ckpt::functional_stream_hash(base);
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    sim::RunSpec spec = base;
    field(spec) = perturbed(field(spec));
    EXPECT_EQ(ckpt::functional_stream_hash(spec) != h0,
              (knob.roles & sim::kFunctional) != 0)
        << knob.field;
  });
}

TEST(KnobTable, EveryFlagParsesIntoItsField) {
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    if (*knob.flag == '\0') return;
    SCOPED_TRACE(knob.flag);
    using T =
        std::remove_reference_t<decltype(field(std::declval<sim::RunSpec&>()))>;
    T want{};
    const std::string text = sample_text(&want);
    const bool is_switch = *knob.metavar == '\0';
    sim::SpecFlags flags;
    bool read_value = false;
    ASSERT_TRUE(flags.parse(knob.flag, [&] {
      read_value = true;
      return text;
    }));
    EXPECT_EQ(read_value, !is_switch);
    const sim::RunSpec parsed = flags.single();
    EXPECT_EQ(field(parsed), want);
    if (knob.axis == sim::kNoAxis) return;
    // Axis flags take a comma list, which only a sweep accepts.
    sim::SpecFlags list;
    list.parse(knob.flag, [&] { return text + "," + text; });
    ASSERT_EQ(list.axis(knob.axis).size(), 2u);
    sim::RunSpec spec;
    list.axis(knob.axis)[1](spec);
    EXPECT_EQ(field(spec), want);
    EXPECT_THROW(list.single(), std::invalid_argument);
  });
  sim::SpecFlags flags;
  EXPECT_FALSE(flags.parse("--frobnicate", [] { return std::string(); }));
  EXPECT_FALSE(flags.parse("", [] { return std::string(); }));
}

TEST(KnobTable, ValidateRejectsDegenerateSpecs) {
  EXPECT_NO_THROW(sim::validate(quick_spec()));
  const auto rejects = [](const char* what, auto change) {
    sim::RunSpec spec = quick_spec();
    change(spec);
    EXPECT_THROW(sim::validate(spec), std::invalid_argument) << what;
  };
  rejects("zero threads", [](sim::RunSpec& s) { s.threads_per_core = 0; });
  rejects("zero cores", [](sim::RunSpec& s) { s.num_cores = 0; });
  for (const double ctx : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0,
                           0.0, 1.5, 1e9}) {
    rejects("context fraction",
            [ctx](sim::RunSpec& s) { s.context_fraction = ctx; });
  }
  rejects("window without sampling",
          [](sim::RunSpec& s) { s.window_insts = 100; });
  rejects("warm-up without sampling",
          [](sim::RunSpec& s) { s.warmup_insts = 100; });
  const auto sampled = [](sim::RunSpec& s) { s.sample_windows = 4; };
  rejects("zero-size windows", [&](sim::RunSpec& s) {
    sampled(s);
    s.window_insts = 0;
  });
  rejects("multi-core sampling", [&](sim::RunSpec& s) {
    sampled(s);
    s.num_cores = 2;
  });

  sim::RunSpec ok = quick_spec();
  ok.context_fraction = 1e-3;
  EXPECT_NO_THROW(sim::validate(ok));
  ok.sample_windows = 4;
  ok.window_insts = 100;
  EXPECT_NO_THROW(sim::validate(ok));
  ok.check = true;  // the oracle checks every replayed instruction
  EXPECT_NO_THROW(sim::validate(ok));
}

TEST(SpecCodec, ResultRoundTripsBitExactly) {
  const sim::RunResult r = synthetic_result();
  ckpt::Encoder enc;
  ckpt::encode_result(enc, r);
  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  const sim::RunResult back = ckpt::decode_result(dec);
  dec.finish();

  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.instructions, r.instructions);
  EXPECT_EQ(back.ipc, r.ipc);  // bit pattern, not approximate
  EXPECT_EQ(back.check_ok, r.check_ok);
  EXPECT_EQ(back.check_msg, r.check_msg);
  EXPECT_EQ(back.rf_hit_rate, r.rf_hit_rate);
  EXPECT_EQ(back.context_switches, r.context_switches);
  EXPECT_EQ(back.rf_fills, r.rf_fills);
  EXPECT_EQ(back.rf_spills, r.rf_spills);
  EXPECT_EQ(back.avg_dcache_miss_latency, r.avg_dcache_miss_latency);
  for (std::size_t b = 0; b < r.cpi_stack.size(); ++b) {
    EXPECT_EQ(back.cpi_stack[b], r.cpi_stack[b]);
  }
}

TEST(SpecCodec, ResultBytesArePinned) {
  // The store payload of a fixed result, recorded before RunResult's
  // field list moved onto ckpt::Archive: a change that moves a byte
  // strands every stored entry, so it must bump kStoreFormatVersion.
  ckpt::Encoder enc;
  ckpt::encode_result(enc, synthetic_result());
  EXPECT_EQ(enc.size(), 191u);
  EXPECT_EQ(ckpt::fnv1a(ckpt::kFnvOffsetBasis, enc.bytes().data(), enc.size()),
            0xd83d4c8b973af66bull);
}

TEST(ResultStore, EntryBytesFollowTheDocumentedLayout) {
  // put() writes the layout docs/checkpointing.md documents, spelled
  // out here field by field.
  svc::ResultStore store(temp_dir("store_layout"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  store.put(hash, spec, synthetic_result(), 1.5);

  ckpt::Encoder identity;
  ckpt::encode_spec_identity(identity, spec);
  ckpt::Encoder payload;
  ckpt::encode_result(payload, synthetic_result());
  ckpt::Encoder want;
  want.put_u32(svc::kStoreMagic);
  want.put_u32(svc::kStoreFormatVersion);
  want.put_u64(hash);
  want.put_str(build::provenance());
  want.put_f64(1.5);
  want.put_u32(static_cast<u32>(identity.size()));
  want.raw(identity.bytes().data(), identity.size());
  want.put_u32(ckpt::crc32(payload.bytes().data(), payload.size()));
  want.put_u32(static_cast<u32>(payload.size()));
  want.raw(payload.bytes().data(), payload.size());
  want.put_u32(ckpt::crc32(want.bytes().data(), want.size()));

  std::ifstream in(store.entry_path(hash), std::ios::binary);
  const std::vector<u8> got((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want.bytes());
}

TEST(ResultStore, PutLookupRoundTrip) {
  svc::ResultStore store(temp_dir("store_roundtrip"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  const sim::RunResult r = synthetic_result();

  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, spec, &out));
  store.put(hash, spec, r, 1.5);
  ASSERT_TRUE(store.lookup(hash, spec, &out));
  EXPECT_EQ(out.cycles, r.cycles);
  EXPECT_EQ(out.ipc, r.ipc);
  EXPECT_EQ(store.size(), 1u);

  svc::StoreEntry entry;
  ASSERT_TRUE(store.lookup_entry(hash, spec, &entry));
  EXPECT_EQ(entry.wall_secs, 1.5);
  EXPECT_FALSE(entry.provenance.empty());
}

TEST(ResultStore, IdentityMismatchReadsAsMiss) {
  // Same hash key, different spec (as after a codec change or a hash
  // collision): the embedded identity bytes must reject the entry.
  svc::ResultStore store(temp_dir("store_identity"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  store.put(hash, spec, synthetic_result());

  sim::RunSpec other = spec;
  other.params.seed += 1;
  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, other, &out));
  EXPECT_TRUE(store.lookup(hash, spec, &out));
}

TEST(ResultStore, CorruptEntryReadsAsMiss) {
  svc::ResultStore store(temp_dir("store_corrupt"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  store.put(hash, spec, synthetic_result());

  // Flip a byte in the middle of the entry file.
  const std::string path = store.entry_path(hash);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0;
    f.read(&b, 1);
    f.seekp(40);
    b = static_cast<char>(b ^ 0x5a);
    f.write(&b, 1);
  }
  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, spec, &out));

  // Truncation is also just a miss.
  store.put(hash, spec, synthetic_result());
  std::filesystem::resize_file(path, 10);
  EXPECT_FALSE(store.lookup(hash, spec, &out));
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Write a hand-built entry for @p hash with a valid whole-entry CRC:
/// the header, @p identity as its identity bytes, then @p tail as is
/// (payload CRC, payload length and payload).
void plant_entry(const svc::ResultStore& store, u64 hash,
                 const ckpt::Encoder& identity, const ckpt::Encoder& tail) {
  ckpt::Encoder enc;
  enc.put_u32(svc::kStoreMagic);
  enc.put_u32(svc::kStoreFormatVersion);
  enc.put_u64(hash);
  enc.put_str("planted");
  enc.put_f64(0.0);
  enc.put_u32(static_cast<u32>(identity.size()));
  enc.raw(identity.bytes().data(), identity.size());
  enc.raw(tail.bytes().data(), tail.size());
  enc.put_u32(ckpt::crc32(enc.bytes().data(), enc.size()));
  std::ofstream out(store.entry_path(hash), std::ios::binary);
  out.write(reinterpret_cast<const char*>(enc.bytes().data()),
            static_cast<std::streamsize>(enc.size()));
}

TEST(ResultStore, HostilePayloadLengthIsAMissWithoutAllocating) {
  // A planted entry with valid CRCs and identity whose payload length
  // claims ~4 GiB: the length is checked against the bytes left before
  // anything is sized by it.
  svc::ResultStore store(temp_dir("store_hostile_len"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  ckpt::Encoder identity;
  ckpt::encode_spec_identity(identity, spec);
  ckpt::Encoder tail;
  tail.put_u32(0);            // payload_crc
  tail.put_u32(0xFFFFFFF0u);  // payload_len, far past the end of the file
  tail.put_u64(0);            // the payload bytes actually present
  plant_entry(store, hash, identity, tail);
  const double before = peak_rss_mib();
  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, spec, &out));
  EXPECT_LT(peak_rss_mib() - before, 64.0);
}

TEST(ResultStore, EntryOfAnOlderModelIsAMiss) {
  // A planted entry with valid CRCs and payload whose identity has the
  // v5 layout: the knob rows alone, with no leading kSpecCodecVersion
  // word. An entry from before a model change must miss, not be served.
  svc::ResultStore store(temp_dir("store_old_model"));
  const sim::RunSpec spec = quick_spec();
  const u64 hash = ckpt::spec_hash(spec);
  ckpt::Encoder identity;
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    if ((knob.roles & sim::kIdentity) == 0) return;
    const auto& value = field(spec);
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, std::string>) {
      identity.put_str(value);
    } else if constexpr (std::is_same_v<T, bool>) {
      identity.put_bool(value);
    } else if constexpr (std::is_same_v<T, u64>) {
      identity.put_u64(value);
    } else if constexpr (std::is_same_v<T, double>) {
      identity.put_f64(value);
    } else {
      identity.put_u32(static_cast<u32>(value));  // u32 and enums
    }
  });
  ckpt::Encoder payload;
  ckpt::encode_result(payload, synthetic_result());
  ckpt::Encoder tail;
  tail.put_u32(ckpt::crc32(payload.bytes().data(), payload.size()));
  tail.put_u32(static_cast<u32>(payload.size()));
  tail.raw(payload.bytes().data(), payload.size());
  plant_entry(store, hash, identity, tail);
  sim::RunResult out;
  EXPECT_FALSE(store.lookup(hash, spec, &out));
}

TEST(JsonParse, ParsesDocumentsAndRejectsMalformed) {
  const JsonValue doc = json_parse(
      "{\"type\":\"done\",\"id\":18446744073709551615,"
      "\"list\":[1,2.5,true,null,\"x\"],\"nested\":{\"k\":-3}}");
  EXPECT_EQ(doc.at("type").string, "done");
  // 2^64-1 survives exactly via the raw token (a double would round).
  EXPECT_EQ(doc.at("id").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(doc.at("list").array.size(), 5u);
  EXPECT_EQ(doc.at("list").array[1].number, 2.5);
  EXPECT_EQ(doc.at("nested").at("k").as_i64(), -3);
  EXPECT_EQ(doc.find("absent"), nullptr);

  EXPECT_THROW(json_parse("{\"a\":1,\"a\":2}"), JsonParseError);  // dup key
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\":}"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\":1"), JsonParseError);  // unterminated
  EXPECT_THROW(json_parse(""), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\": 1,}"), JsonParseError);  // trailing comma
  EXPECT_THROW(json_parse("[1, 2] trailing"), JsonParseError);
  EXPECT_THROW(json_parse("{\"a\": 1 \"b\": 2}"), JsonParseError);  // no comma
  EXPECT_THROW(doc.at("absent"), JsonParseError);
  EXPECT_THROW(doc.at("type").as_u64(), JsonParseError);  // not a number
}

}  // namespace
}  // namespace virec
