// Pinned simulator outputs for every scheme and every ViReC policy,
// detailed and sampled. Hot-path rewrites (victim scan, decode tables,
// memory fast paths, block context moves) must leave every simulated
// statistic bit-identical; these hashes were recorded before such a
// rewrite and catch any drift in the detailed pipeline, the functional
// stream replay or the reverted detailed probes.
//
// Detailed: FNV-1a over the RunResult codec bytes and over every
// registry scalar. Sampled: FNV-1a over the TieredResult estimates, each
// window's position, cycles, CPI and CPI stack, and the registry after
// the run. A mismatch prints the row's new hashes, to paste here after
// an intended change of the model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "ckpt/spec_codec.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "tiered/tiered_runner.hpp"
#include "workloads/workload.hpp"

namespace virec::sim {
namespace {

using core::PolicyKind;

struct PinnedPoint {
  Scheme scheme;
  PolicyKind policy;
  bool group_spill;
  bool switch_prefetch;
  u64 detailed_result;
  u64 detailed_registry;
  u64 sampled_estimates;
  u64 sampled_registry;
};

/// 8 threads sharing half a context each, so the register-cache schemes
/// evict on most switches and the context-moving schemes move often.
RunSpec pinned_spec(const PinnedPoint& p) {
  RunSpec spec;
  spec.workload = "gather";
  spec.scheme = p.scheme;
  spec.policy = p.policy;
  spec.threads_per_core = 8;
  spec.context_fraction = 0.5;
  spec.group_spill = p.group_spill;
  spec.switch_prefetch = p.switch_prefetch;
  spec.params.iters_per_thread = 256;
  spec.params.elements = 1 << 13;
  return spec;
}

u64 hash_bytes(u64 h, const void* data, std::size_t n) {
  return ckpt::fnv1a(h, data, n);
}

u64 registry_hash(const System& sys) {
  u64 h = ckpt::kFnvOffsetBasis;
  for (const Stat& s : sys.registry().all_scalars()) {
    h = hash_bytes(h, s.name.data(), s.name.size());
    h = hash_bytes(h, &s.value, sizeof s.value);
  }
  return h;
}

u64 result_hash(const RunResult& r) {
  ckpt::Encoder enc;
  ckpt::encode_result(enc, r);
  return hash_bytes(ckpt::kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

u64 tiered_hash(const TieredResult& t) {
  u64 h = result_hash(t.full);
  for (const double v : {t.cpi_mean, t.cpi_ci_half, t.est_cycles, t.est_ipc,
                         t.est_ipc_lo, t.est_ipc_hi}) {
    h = hash_bytes(h, &v, sizeof v);
  }
  for (const u64 v : {t.total_insts, t.insts_functional, t.insts_detailed}) {
    h = hash_bytes(h, &v, sizeof v);
  }
  for (const WindowStat& w : t.windows) {
    h = hash_bytes(h, &w.start_inst, sizeof w.start_inst);
    h = hash_bytes(h, &w.insts, sizeof w.insts);
    h = hash_bytes(h, &w.cycles, sizeof w.cycles);
    h = hash_bytes(h, &w.cpi, sizeof w.cpi);
    h = hash_bytes(h, w.cpi_stack.data(), sizeof w.cpi_stack);
  }
  return h;
}

constexpr PinnedPoint kPinned[] = {
    {Scheme::kBanked, PolicyKind::kLRC, false, false,
     0x3ee4e181f293d2f2ull, 0x559f1aea734d3db8ull,
     0x845324d54eccb528ull, 0x30efe1cec5b93547ull},
    {Scheme::kSoftware, PolicyKind::kLRC, false, false,
     0x1e00a7377238851full, 0x5d958196641bf5e1ull,
     0x91739ddeb95a72a0ull, 0xee43ed4458f83326ull},
    {Scheme::kPrefetchExact, PolicyKind::kLRC, false, false,
     0x29cb9e430aff7d6bull, 0xdecc0ab0a412cd24ull,
     0xcfedec7dc2e94ea9ull, 0xe30735b4fad7bceeull},
    {Scheme::kPrefetchFull, PolicyKind::kLRC, false, false,
     0xd5d51f259c4f30c7ull, 0xbc120d068211605aull,
     0x48e6c4f2ec22a820ull, 0xcc52aca106ca7cd2ull},
    {Scheme::kNSF, PolicyKind::kPLRU, false, false,
     0xea803f0b731c39ccull, 0x70e2c9b62544279full,
     0x53b0da7f7d5e4885ull, 0x85a5bc56eb745b6dull},
    {Scheme::kViReC, PolicyKind::kPLRU, false, false,
     0x86f858e02277d4ccull, 0xd856b7d4d1b08677ull,
     0x03b09c5c68dc4aa2ull, 0xdbe41d11d055881aull},
    {Scheme::kViReC, PolicyKind::kLRU, false, false,
     0x700be64ad696ddfbull, 0x1c87e6f001636baaull,
     0x3b2bc85a8c3a3562ull, 0x629655f46f5910feull},
    {Scheme::kViReC, PolicyKind::kFIFO, false, false,
     0xc1bb1e51e021fe06ull, 0x3cba862dc3b1f7f7ull,
     0x08b9676d60974f3aull, 0x3b8e891084efdd44ull},
    {Scheme::kViReC, PolicyKind::kRandom, false, false,
     0x0b37d8e96f34c172ull, 0x07a64555f07569fcull,
     0x02dad20705e43354ull, 0x54cc0154dbe5d28dull},
    {Scheme::kViReC, PolicyKind::kMrtPLRU, false, false,
     0x1e3a21f7fbf8753bull, 0xdda8ab100eeb0aa7ull,
     0x9a86a7462692ad5bull, 0x3bc0f1d9195dd81bull},
    {Scheme::kViReC, PolicyKind::kMrtLRU, false, false,
     0x3198847f7b712177ull, 0x291f2cc03f0e542dull,
     0xb63cf7582d5bf36bull, 0x625107059b6e75deull},
    {Scheme::kViReC, PolicyKind::kLRC, false, false,
     0x3c18f765dca0d023ull, 0x39e90c1855141942ull,
     0x3d67209080935f61ull, 0x762cf348eb7442d1ull},
    {Scheme::kViReC, PolicyKind::kLRC, true, false,
     0xa178c70110c6d7acull, 0x368cdb680b5d635eull,
     0x94dfc54f42ad0017ull, 0x821df1d3e4167876ull},
    {Scheme::kViReC, PolicyKind::kLRC, false, true,
     0xb3c0df22f32aadb3ull, 0x8bdf4cae57c555c3ull,
     0x39ba8d22235c11ecull, 0x4ade1424940c7dd7ull},
};

/// The model the rows above were recorded under. Every spec identity
/// leads with ckpt::kSpecCodecVersion, so result-store entries of another
/// model read as misses. The result and estimates columns are the model:
/// re-pinning either means bumping kSpecCodecVersion and this pin with
/// it. The registry columns also hash the stat names, so adding or
/// deleting a stat re-pins them alone.
constexpr u32 kPinnedSpecCodecVersion = 6;

TEST(PinnedOutputs, DetailedAndSampledMatch) {
  EXPECT_EQ(ckpt::kSpecCodecVersion, kPinnedSpecCodecVersion);
  for (const PinnedPoint& p : kPinned) {
    const RunSpec spec = pinned_spec(p);
    const std::string label = std::string(scheme_name(p.scheme)) + "/" +
                              core::policy_name(p.policy) +
                              (p.group_spill ? "+group_spill" : "") +
                              (p.switch_prefetch ? "+switch_prefetch" : "");
    SCOPED_TRACE(label);
    const workloads::Workload& workload =
        workloads::find_workload(spec.workload);

    System detailed(build_config(spec), workload, spec.params);
    const RunResult r = detailed.run();
    ASSERT_TRUE(r.check_ok) << r.check_msg;

    RunSpec sampled_spec = spec;
    sampled_spec.sample_windows = 4;
    sampled_spec.window_insts = 300;
    sampled_spec.warmup_insts = 100;
    System sampled(build_config(sampled_spec), workload, spec.params);
    const TieredResult t = TieredRunner(sampled, sampled_spec).run();
    ASSERT_TRUE(t.full.check_ok) << t.full.check_msg;
    ASSERT_EQ(t.windows.size(), 4u);

    const u64 got[4] = {result_hash(r), registry_hash(detailed), tiered_hash(t),
                        registry_hash(sampled)};
    const u64 want[4] = {p.detailed_result, p.detailed_registry,
                         p.sampled_estimates, p.sampled_registry};
    char row[128];
    std::snprintf(row, sizeof row,
                  "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull",
                  static_cast<unsigned long long>(got[0]),
                  static_cast<unsigned long long>(got[1]),
                  static_cast<unsigned long long>(got[2]),
                  static_cast<unsigned long long>(got[3]));
    EXPECT_TRUE(std::equal(got, got + 4, want)) << "now reads " << row;
  }
}

}  // namespace
}  // namespace virec::sim
