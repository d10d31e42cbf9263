// Checkpoint/restore subsystem tests: the headline invariant (restore a
// mid-run snapshot, run to completion, get bit-identical results and
// stats versus the uninterrupted run — for every scheme x policy), the
// crash-safety of the on-disk format, the refusal of hostile field
// values behind valid CRCs, and the run watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "planted_snapshot.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace virec::sim {
namespace {

namespace fs = std::filesystem;

RunSpec tiny_spec(Scheme scheme, core::PolicyKind policy) {
  RunSpec spec;
  spec.workload = "gather";
  spec.scheme = scheme;
  spec.policy = policy;
  spec.threads_per_core = 4;
  spec.context_fraction = 0.5;
  spec.params.iters_per_thread = 24;
  spec.params.elements = 1 << 12;
  return spec;
}

/// Fresh per-test scratch directory under the gtest temp dir.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The ckpt-<cycle>.vckpt files in @p dir, sorted by cycle.
std::vector<fs::path> snapshots_in(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".vckpt") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end(), [](const fs::path& a, const fs::path& b) {
    auto cycle = [](const fs::path& p) {
      return std::stoull(p.stem().string().substr(5));  // "ckpt-<cycle>"
    };
    return cycle(a) < cycle(b);
  });
  return out;
}

/// Bit-exact double comparison: "close" is not good enough for the
/// determinism contract.
void expect_bits_eq(double a, double b, const char* what) {
  u64 ab, bb;
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ab, bb) << what << ": " << a << " vs " << b;
}

void expect_results_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  expect_bits_eq(a.ipc, b.ipc, "ipc");
  EXPECT_EQ(a.check_ok, b.check_ok);
  expect_bits_eq(a.rf_hit_rate, b.rf_hit_rate, "rf_hit_rate");
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.rf_fills, b.rf_fills);
  EXPECT_EQ(a.rf_spills, b.rf_spills);
  expect_bits_eq(a.avg_dcache_miss_latency, b.avg_dcache_miss_latency,
                 "avg_dcache_miss_latency");
}

void expect_stats_identical(System& a, System& b) {
  const std::vector<Stat> sa = a.registry().all_scalars();
  const std::vector<Stat> sb = b.registry().all_scalars();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name) << i;
    expect_bits_eq(sa[i].value, sb[i].value, sa[i].name.c_str());
  }
}

// ---------------------------------------------------------------------
// Headline invariant: checkpoint at cycle k, restore, run to completion
// => bit-identical RunResult and stats, for every scheme x policy.

class RestoreEquivalence
    : public ::testing::TestWithParam<std::tuple<Scheme, core::PolicyKind>> {};

TEST_P(RestoreEquivalence, MidRunSnapshotReproducesStraightRun) {
  const auto [scheme, policy] = GetParam();
  const RunSpec spec = tiny_spec(scheme, policy);
  const std::string tag = std::string(scheme_name(scheme)) + "_" +
                          core::policy_name(policy);
  const fs::path dir = scratch_dir(tag);

  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  const SystemConfig config = build_config(spec);

  System straight(config, workload, spec.params);
  straight.set_checkpointing(1000, dir.string());
  const RunResult want = straight.run();
  ASSERT_TRUE(want.check_ok) << want.check_msg;

  const std::vector<fs::path> snaps = snapshots_in(dir);
  ASSERT_GE(snaps.size(), 2u) << "run too short to checkpoint mid-flight";

  // Restore from a snapshot in the middle of the run, not the last one.
  const fs::path& snap = snaps[snaps.size() / 2];
  System resumed(config, workload, spec.params);
  resumed.restore(snap.string());
  const RunResult got = resumed.run();

  expect_results_identical(want, got);
  expect_stats_identical(straight, resumed);
  fs::remove_all(dir);
}

std::vector<std::tuple<Scheme, core::PolicyKind>> all_points() {
  std::vector<std::tuple<Scheme, core::PolicyKind>> out;
  for (Scheme s : {Scheme::kBanked, Scheme::kSoftware, Scheme::kPrefetchFull,
                   Scheme::kPrefetchExact, Scheme::kViReC, Scheme::kNSF}) {
    for (core::PolicyKind p : core::all_policies()) out.emplace_back(s, p);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllPolicies, RestoreEquivalence,
    ::testing::ValuesIn(all_points()),
    [](const ::testing::TestParamInfo<RestoreEquivalence::ParamType>& info) {
      std::string name =
          std::string(scheme_name(std::get<0>(info.param))) + "_" +
          core::policy_name(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------
// Mid-miss snapshots: a checkpoint taken while dcache MSHRs are busy
// must capture the in-flight misses.

TEST(Checkpoint, MidMissSnapshotCapturesBusyMshrs) {
  // gather with many threads keeps misses outstanding almost always; an
  // odd interval avoids aliasing with any workload period.
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.threads_per_core = 8;
  spec.params.iters_per_thread = 48;
  const fs::path dir = scratch_dir("midmiss");

  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  const SystemConfig config = build_config(spec);

  System straight(config, workload, spec.params);
  straight.set_checkpointing(777, dir.string());
  const RunResult want = straight.run();
  ASSERT_TRUE(want.check_ok);

  const std::vector<fs::path> snaps = snapshots_in(dir);
  ASSERT_GE(snaps.size(), 2u);

  // At least one mid-run snapshot must hold busy MSHRs, and every one
  // must restore into a run that reproduces the straight-through result.
  bool saw_busy_mshr = false;
  for (const fs::path& snap : snaps) {
    System resumed(config, workload, spec.params);
    resumed.restore(snap.string());
    const Cycle now = resumed.core(0).cycle();
    if (resumed.memory_system().dcache(0).outstanding_misses(now) > 0) {
      saw_busy_mshr = true;
    }
    const RunResult got = resumed.run();
    expect_results_identical(want, got);
  }
  EXPECT_TRUE(saw_busy_mshr) << "no snapshot caught an in-flight miss";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Multicore and sampled runs restore too.

TEST(Checkpoint, MulticoreRestoreEquivalence) {
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.num_cores = 2;
  const fs::path dir = scratch_dir("multicore");

  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  const SystemConfig config = build_config(spec);

  System straight(config, workload, spec.params);
  straight.set_checkpointing(1000, dir.string());
  const RunResult want = straight.run();
  ASSERT_TRUE(want.check_ok);

  const std::vector<fs::path> snaps = snapshots_in(dir);
  ASSERT_GE(snaps.size(), 1u);
  System resumed(config, workload, spec.params);
  resumed.restore(snaps[snaps.size() / 2].string());
  const RunResult got = resumed.run();
  expect_results_identical(want, got);
  expect_stats_identical(straight, resumed);
  fs::remove_all(dir);
}

TEST(Checkpoint, RestoredRunResamplesAtTheSameCycles) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = scratch_dir("sampled");

  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  const SystemConfig config = build_config(spec);

  System straight(config, workload, spec.params);
  straight.set_sample_interval(500);
  straight.set_checkpointing(1300, dir.string());
  const RunResult want = straight.run();
  ASSERT_TRUE(want.check_ok);

  const std::vector<fs::path> snaps = snapshots_in(dir);
  ASSERT_GE(snaps.size(), 1u);
  System resumed(config, workload, spec.params);
  resumed.set_sample_interval(500);
  resumed.restore(snaps.back().string());
  const RunResult got = resumed.run();
  expect_results_identical(want, got);

  const std::vector<Sample>& sa = straight.samples();
  const std::vector<Sample>& sb = resumed.samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].cycle, sb[i].cycle) << i;
    EXPECT_EQ(sa[i].instructions, sb[i].instructions) << i;
    expect_bits_eq(sa[i].ipc, sb[i].ipc, "sample ipc");
    expect_bits_eq(sa[i].interval_ipc, sb[i].interval_ipc,
                   "sample interval_ipc");
    EXPECT_EQ(sa[i].runnable_threads, sb[i].runnable_threads) << i;
    EXPECT_EQ(sa[i].outstanding_misses, sb[i].outstanding_misses) << i;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Crash safety of the on-disk format.

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_dir("file");
    spec_ = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
    path_ = (dir_ / "snap.vckpt").string();
    const workloads::Workload& w = workloads::find_workload(spec_.workload);
    System system(build_config(spec_), w, spec_.params);
    system.save(path_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void expect_restore_fails(const std::string& path,
                            const std::string& needle) {
    const workloads::Workload& w = workloads::find_workload(spec_.workload);
    System system(build_config(spec_), w, spec_.params);
    try {
      system.restore(path);
      FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }

  fs::path dir_;
  RunSpec spec_;
  std::string path_;
};

/// File names in @p dir, sorted.
std::vector<std::string> dir_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST_F(CheckpointFile, SaveIsAtomicNoTempLeftBehind) {
  // The temp file was renamed onto the snapshot: nothing else is left.
  EXPECT_EQ(dir_names(dir_), std::vector<std::string>{"snap.vckpt"});
}

TEST_F(CheckpointFile, TruncatedFileFailsCleanly) {
  const auto full = fs::file_size(path_);
  const std::string trunc = (dir_ / "trunc.vckpt").string();
  {
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> bytes(full / 3);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(trunc, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  expect_restore_fails(trunc, "truncated");
}

TEST_F(CheckpointFile, CorruptPayloadFailsCrcCheck) {
  const std::string bad = (dir_ / "bad.vckpt").string();
  fs::copy_file(path_, bad);
  std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
  // Flip one byte well past the header, inside some section payload.
  f.seekp(static_cast<std::streamoff>(fs::file_size(bad) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(fs::file_size(bad) / 2));
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  expect_restore_fails(bad, "CRC");
}

TEST_F(CheckpointFile, BadMagicFailsCleanly) {
  const std::string bad = (dir_ / "magic.vckpt").string();
  fs::copy_file(path_, bad);
  std::fstream f(bad, std::ios::in | std::ios::out | std::ios::binary);
  const char junk[4] = {'J', 'U', 'N', 'K'};
  f.write(junk, 4);
  f.close();
  expect_restore_fails(bad, "not a checkpoint");
}

TEST_F(CheckpointFile, ConfigMismatchRefusesRestore) {
  RunSpec other = spec_;
  other.scheme = Scheme::kBanked;
  const workloads::Workload& w = workloads::find_workload(other.workload);
  System system(build_config(other), w, other.params);
  try {
    system.restore(path_);
    FAIL() << "expected CkptError";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("config hash"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointFile, WorkloadParamChangesConfigHash) {
  // The hash covers workload parameters, not just the topology: a
  // different seed means different memory contents, so restoring would
  // silently corrupt the run.
  RunSpec other = spec_;
  other.params.seed += 1;
  const workloads::Workload& w = workloads::find_workload(other.workload);
  System a(build_config(spec_), w, spec_.params);
  System b(build_config(other), w, other.params);
  EXPECT_NE(a.config_hash(), b.config_hash());
}

// ---------------------------------------------------------------------
// Hostile snapshot bytes: valid CRCs around a field no run could have
// written. Every decoded value that later indexes an array, shifts or
// selects a case is range-checked, so restore refuses the snapshot with
// a CkptError naming the field instead of running on it.

using test::PlantedSnapshot;

// Payload offsets in a core section of tiny_spec's 4 threads: the
// thread count and 37 bytes per thread, 4 latches of 62 bytes, then
// cycle and instructions before the current thread.
constexpr std::size_t kLatch0 = 4 + 37 * 4;
constexpr std::size_t kLatchBytes = 62;
constexpr std::size_t kCurrentThread = kLatch0 + 4 * kLatchBytes + 16;

/// Snapshots of @p spec's run every 250 cycles, restored in turn; the
/// first for which @p want(restored system) holds, or nullopt.
template <typename Want>
std::optional<fs::path> find_snapshot(const RunSpec& spec,
                                      const fs::path& dir, Want want) {
  const workloads::Workload& w = workloads::find_workload(spec.workload);
  System straight(build_config(spec), w, spec.params);
  straight.set_checkpointing(250, dir.string());
  EXPECT_TRUE(straight.run().check_ok);
  for (const fs::path& snap : snapshots_in(dir)) {
    System restored(build_config(spec), w, spec.params);
    restored.restore(snap.string());
    if (want(restored)) return snap;
  }
  return std::nullopt;
}

/// Bytes @p component's fields take in a snapshot.
template <typename T>
std::size_t encoded_size(T& component) {
  ckpt::Encoder enc;
  ckpt::Archive ar(enc);
  component.state(ar);
  return enc.size();
}

/// Restoring @p path must fail with a CkptError that names @p field.
void expect_refused(const RunSpec& spec, const std::string& path,
                    const std::string& field) {
  System system(build_config(spec), workloads::find_workload(spec.workload),
                spec.params);
  try {
    system.restore(path);
    ADD_FAILURE() << field << ": the planted snapshot was restored";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(HostileSnapshot, CoreThreadAndLatchInstructionsAreChecked) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = scratch_dir("hostile_core");
  // The first snapshot; an instruction is in flight there.
  const auto path = find_snapshot(spec, dir, [](System&) { return true; });
  ASSERT_TRUE(path.has_value());
  const PlantedSnapshot snap(path->string());
  std::size_t latch = kLatch0;
  while (latch < kCurrentThread && snap.get("core0", latch, 1) == 0) {
    latch += kLatchBytes;
  }
  ASSERT_LT(latch, kCurrentThread) << "no valid latch in " << *path;
  const std::string out = (dir / "planted.vckpt").string();

  // The unchanged field restores: the offsets and the CRC are right.
  System system(build_config(spec), workloads::find_workload(spec.workload),
                spec.params);
  system.restore(snap.plant("core0", kCurrentThread, 8,
                            snap.get("core0", kCurrentThread, 8), out));
  expect_refused(spec, snap.plant("core0", kCurrentThread, 8, 7, out),
                 "core current thread");
  // The live-thread count follows the current thread.
  expect_refused(spec, snap.plant("core0", kCurrentThread + 8, 4, 5, out),
                 "core live threads");
  // The opcode, then the destination register, of the valid latch.
  const std::size_t op = latch + 17;
  expect_refused(spec, snap.plant("core0", op, 1, 0xff, out),
                 "latch opcode");
  expect_refused(spec,
                 snap.plant("core0", op + 1, 1,
                            snap.get("core0", op + 1, 1) ^ 1, out),
                 "latch instruction");
  fs::remove_all(dir);
}

TEST(HostileSnapshot, ManagerThreadIndicesAreChecked) {
  // The software manager's resident thread follows its stat set; the
  // prefetch manager's prefetched thread ends its section.
  for (const Scheme scheme : {Scheme::kSoftware, Scheme::kPrefetchExact}) {
    SCOPED_TRACE(scheme_name(scheme));
    const RunSpec spec = tiny_spec(scheme, core::PolicyKind::kLRC);
    const fs::path dir = scratch_dir("hostile_mgr");
    std::size_t offset = 0;
    const auto path = find_snapshot(spec, dir, [&](System& system) {
      cpu::ContextManager& mgr = system.manager(0);
      offset = scheme == Scheme::kSoftware ? encoded_size(mgr.stats())
                                           : encoded_size(mgr) - 8;
      return true;
    });
    ASSERT_TRUE(path.has_value());
    const PlantedSnapshot snap(path->string());
    expect_refused(spec,
                   snap.plant("mgr0", offset, 8, 7,
                              (dir / "planted.vckpt").string()),
                   scheme == Scheme::kSoftware ? "software resident thread"
                                               : "prefetched thread");
    fs::remove_all(dir);
  }
}

TEST(HostileSnapshot, TagStoreAndRollbackQueueAreChecked) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = scratch_dir("hostile_virec");
  std::size_t tags = 0, entries = 0, slots = 0, in_flight = 0;
  const auto path = find_snapshot(spec, dir, [&](System& system) {
    auto& mgr = dynamic_cast<core::ViReCManager&>(system.manager(0));
    tags = encoded_size(mgr.stats());
    entries = mgr.tag_store().size();
    slots = std::size_t{mgr.tag_store().threads()} * isa::kNumArchRegs;
    in_flight = mgr.rollback_queue().size();
    return in_flight > 0;
  });
  ASSERT_TRUE(path.has_value()) << "no snapshot with a rollback entry";
  const PlantedSnapshot snap(path->string());
  // Entries of 23 bytes, map slots of 2, then 32 bytes of policy state.
  const std::size_t map = tags + 4 + 23 * entries;
  const std::size_t rollback = map + 4 + 2 * slots + 32;
  ASSERT_EQ(snap.get("mgr0", tags, 4), entries);
  ASSERT_EQ(snap.get("mgr0", map, 4), slots);
  ASSERT_EQ(snap.get("mgr0", rollback, 4), in_flight);

  const std::string out = (dir / "planted.vckpt").string();
  const auto refused = [&](std::size_t offset, std::size_t width, u64 value,
                           const char* field) {
    expect_refused(spec, snap.plant("mgr0", offset, width, value, out),
                   field);
  };
  refused(tags + 4 + 1, 1, 4, "tag store tid");
  refused(tags + 4 + 2, 1, isa::kNumArchRegs, "tag store arch");
  refused(map + 4, 2, entries, "tag store map slot");
  // The oldest in-flight entry: count, then 4 phys, 4 tid, 4 arch.
  const std::size_t entry = rollback + 4;
  refused(entry, 4, 5, "rollback entry count");
  refused(entry + 4, 2, entries, "rollback entry phys");
  refused(entry + 12, 1, 4, "rollback entry tid");
  refused(entry + 16, 1, isa::kNumArchRegs, "rollback entry arch");
  fs::remove_all(dir);
}

TEST(HostileSnapshot, RenamedStatIsRefused) {
  // Every stat exists from construction, so stats load by position: a
  // saved name that is not the live stat's at its position is refused.
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = scratch_dir("hostile_stat");
  std::size_t stats = 0;  // the core's stat set ends its section
  const auto path = find_snapshot(spec, dir, [&](System& system) {
    cpu::CgmtCore& core = system.core(0);
    stats = encoded_size(core) - encoded_size(core.stats());
    return true;
  });
  ASSERT_TRUE(path.has_value());
  const PlantedSnapshot snap(path->string());
  // The stat count, then the first stat's name length and bytes.
  ASSERT_EQ(snap.get("core0", stats + 4, 4), std::string("cpi_commit").size());
  ASSERT_EQ(snap.get("core0", stats + 8, 1), u64{'c'});
  expect_refused(spec,
                 snap.plant("core0", stats + 8, 1, 'C',
                            (dir / "planted.vckpt").string()),
                 "stat core.Cpi_commit at position 0 is not this system's "
                 "cpi_commit");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Serializer primitives.

TEST(Serialize, PrimitivesRoundTrip) {
  ckpt::Encoder enc;
  enc.put_u8(0xAB);
  enc.put_bool(true);
  enc.put_u16(0xBEEF);
  enc.put_u32(0xDEADBEEFu);
  enc.put_u64(0x0123456789ABCDEFull);
  enc.put_f64(3.25);
  enc.put_str("virec");
  enc.put_u64_vec({1, 2, 3});

  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  EXPECT_EQ(dec.get_u8(), 0xAB);
  EXPECT_EQ(dec.get_u8(), 1);
  EXPECT_EQ(dec.get_u16(), 0xBEEF);
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.get_u64(), std::bit_cast<u64>(3.25));
  EXPECT_EQ(dec.get_str(), "virec");
  EXPECT_EQ(dec.get_u32(), 3u);
  for (u64 x = 1; x <= 3; ++x) EXPECT_EQ(dec.get_u64(), x);
  EXPECT_TRUE(dec.done());
  dec.finish();  // must not throw: everything consumed
}

TEST(Serialize, DecoderBoundsChecked) {
  ckpt::Encoder enc;
  enc.put_u32(7);
  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  EXPECT_THROW(dec.get_u64(), ckpt::CkptError);
}

TEST(Serialize, HostileVectorCountThrowsCkptError) {
  // A count of 2^32-1 elements in a 4-byte payload, with no bound on
  // the count: the container grows one decoded element at a time, so
  // this is a clean CkptError, not std::bad_alloc.
  const u8 bytes[] = {0xFF, 0xFF, 0xFF, 0xFF};
  ckpt::Decoder dec(bytes, sizeof bytes);
  ckpt::Archive ar(dec);
  std::vector<u64> v;
  EXPECT_THROW(ar.seq(v, ~u32{0}, "count", [&ar](u64& x) { ar(x); }),
               ckpt::CkptError);
}

TEST(Serialize, AtomicWriteFailureLeavesNoTemp) {
  const fs::path dir = scratch_dir("atomic");
  const char data[] = "payload";
  // Renaming onto a directory fails after the temp file was written.
  fs::create_directories(dir / "occupied");
  EXPECT_THROW(ckpt::write_file_atomic((dir / "occupied").string(), data,
                                       sizeof data),
               ckpt::CkptError);
  // The temp file cannot even be opened in a missing directory.
  EXPECT_THROW(ckpt::write_file_atomic((dir / "missing" / "f").string(),
                                       data, sizeof data),
               ckpt::CkptError);
  EXPECT_EQ(dir_names(dir), std::vector<std::string>{"occupied"});
  ckpt::write_file_atomic((dir / "f").string(), data, sizeof data);
  EXPECT_EQ(fs::file_size(dir / "f"), sizeof data);
  EXPECT_EQ(dir_names(dir), (std::vector<std::string>{"f", "occupied"}));
  fs::remove_all(dir);
}

TEST(Serialize, FinishRejectsLeftoverBytes) {
  ckpt::Encoder enc;
  enc.put_u32(7);
  enc.put_u32(8);
  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  dec.get_u32();
  EXPECT_THROW(dec.finish(), ckpt::CkptError);
}

TEST(Serialize, Crc32MatchesZlibConvention) {
  // Known-answer test: CRC-32 ("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(ckpt::crc32(s, 9), 0xCBF43926u);
}

// ---------------------------------------------------------------------
// Watchdog: hangs become errors that name the stuck core/thread.

TEST(Watchdog, TinyMaxCyclesAbortsAndNamesCore) {
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.max_cycles = 200;  // far below the real runtime
  try {
    run_spec(spec);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_cycles"), std::string::npos) << what;
    EXPECT_NE(what.find("core 0"), std::string::npos) << what;
    EXPECT_NE(what.find("thread"), std::string::npos) << what;
  }
}

TEST(Watchdog, GenerousMaxCyclesDoesNotFire) {
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.max_cycles = 100'000'000;
  const RunResult result = run_spec(spec);
  EXPECT_TRUE(result.check_ok);
}

}  // namespace
}  // namespace virec::sim
