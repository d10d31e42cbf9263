// End-to-end tests of the command-line front ends, virec-sim, the
// reproduction driver virec-repro and the fuzzer virec-fuzz: spawn the
// real binaries (paths injected by CMake) and check their output
// contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "ckpt/spec_codec.hpp"
#include "svc/result_store.hpp"
#include "json_parse.hpp"
#include "planted_snapshot.hpp"

namespace {

#ifndef VIREC_SIM_PATH
#define VIREC_SIM_PATH "virec-sim"
#endif
#ifndef VIREC_REPRO_PATH
#define VIREC_REPRO_PATH "virec-repro"
#endif
#ifndef VIREC_FUZZ_PATH
#define VIREC_FUZZ_PATH "virec-fuzz"
#endif

struct CliResult {
  int exit_code = -1;
  std::string output;
};

/// Run a shell @p command; its stdout and exit code.
CliResult run_command(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  CliResult result;
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// virec-sim with @p args; stderr is merged into the output.
CliResult run_cli(const std::string& args) {
  return run_command(std::string(VIREC_SIM_PATH) + " " + args + " 2>&1");
}

bool has_line_prefix(const std::string& output, const std::string& prefix) {
  return output.find("\n" + prefix) != std::string::npos ||
         output.rfind(prefix, 0) == 0;
}

TEST(Cli, HelpExitsCleanly) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--workload"), std::string::npos);
  EXPECT_NE(r.output.find("--policy"), std::string::npos);
  // Every non-knob flag has a help entry of its own.
  for (const char* flag :
       {"--stats", "--area", "--cpi-stack", "--json", "--json=FILE",
        "--progress", "--progress=SECS", "--trace", "--trace-core",
        "--trace-out", "--sample-interval", "--checkpoint-every",
        "--checkpoint-out", "--restore", "--sweep", "--jobs", "--store",
        "--replay", "--list", "--version", "--help"}) {
    EXPECT_NE(r.output.find(std::string("\n  ") + flag), std::string::npos)
        << flag;
  }
}

TEST(Cli, VersionPrintsProvenance) {
  const CliResult r = run_cli("--version");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(has_line_prefix(r.output, "virec-sim")) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "provenance ")) << r.output;
  EXPECT_NE(r.output.find("git="), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("compiler="), std::string::npos) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "report_schema ")) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "spec_codec ")) << r.output;
}

TEST(Cli, ListShowsEveryKernel) {
  const CliResult r = run_cli("--list");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* name : {"gather", "spmv", "pchase", "gather_wide"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, DefaultRunReportsAndPasses) {
  const CliResult r = run_cli("--iters 32 --elements 4096");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "cycles "));
  EXPECT_TRUE(has_line_prefix(r.output, "ipc "));
  EXPECT_NE(r.output.find("check OK"), std::string::npos);
}

TEST(Cli, SchemeAndPolicySelection) {
  const CliResult r = run_cli(
      "--workload spmv --scheme virec --policy mrt-plru --threads 4 "
      "--iters 32 --elements 4096");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("policy mrt-plru"), std::string::npos);
  EXPECT_NE(r.output.find("check OK"), std::string::npos);
}

TEST(Cli, StatsDumpIncludesComponents) {
  const CliResult r = run_cli("--iters 32 --elements 4096 --stats");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("core0.virec.rf_hits"), std::string::npos);
  EXPECT_NE(r.output.find("dram.reads"), std::string::npos);
  EXPECT_NE(r.output.find("xbar.transfers"), std::string::npos);
}

TEST(Cli, TraceShowsCommits) {
  const CliResult r =
      run_cli("--workload reduce --threads 1 --iters 4 --trace");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("commit @"), std::string::npos);
}

TEST(Cli, AreaReport) {
  const CliResult r = run_cli("--iters 16 --elements 4096 --area");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(has_line_prefix(r.output, "area.total_mm2"));
}

TEST(Cli, UnknownWorkloadFails) {
  const CliResult r = run_cli("--workload nonsense");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const CliResult r = run_cli("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  // The stat-schema check is a test (StatSchema.*), not a mode.
  const CliResult lint = run_cli("--lint-stats");
  EXPECT_EQ(lint.exit_code, 2);
  EXPECT_NE(lint.output.find("unknown option: --lint-stats"),
            std::string::npos)
      << lint.output;
  // The error and its --help hint go to stderr; stdout stays empty.
  const CliResult out = run_command(std::string(VIREC_SIM_PATH) +
                                    " --frobnicate 2>/dev/null");
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_EQ(out.output, "");
}

TEST(Cli, MissingValueFails) {
  const CliResult r = run_cli("--workload");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, ExtensionsRun) {
  const CliResult r = run_cli(
      "--workload gather --group-spill --switch-prefetch --iters 32 "
      "--elements 4096");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("check OK"), std::string::npos);
}

// ---------------------------------------------------------------------
// Sweep mode: comma-separated grid axes, --jobs, CSV/JSON output.

TEST(Cli, SweepPrintsCsvGrid) {
  const CliResult r = run_cli(
      "--sweep --workload gather,reduce --scheme banked,virec --threads 4 "
      "--iters 16 --elements 4096 --jobs 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("workload,scheme,policy"), std::string::npos);
  // header + 2 workloads x 2 schemes
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 5)
      << r.output;
}

TEST(Cli, SweepIsDeterministicAcrossJobCounts) {
  const std::string args =
      "--sweep --workload reduce --scheme banked,virec --policy plru,lrc "
      "--threads 2,4 --iters 16 --elements 4096 --jobs ";
  const CliResult serial = run_cli(args + "1");
  const CliResult parallel = run_cli(args + "4");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;
  EXPECT_EQ(serial.output, parallel.output);
}

TEST(Cli, SweepJsonIsValid) {
  const CliResult r = run_cli(
      "--sweep --workload reduce --threads 2,4 --iters 16 --elements 4096 "
      "--jobs 2 --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const auto v = virec::json_parse(r.output);
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array.size(), 2u);
  EXPECT_EQ(v.array[1].at("spec").at("threads").number, 4.0);
  EXPECT_TRUE(v.array[0].at("result").at("check_ok").boolean);
}

TEST(Cli, ListsRequireSweepMode) {
  const CliResult r = run_cli("--workload gather,reduce --iters 16");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--sweep"), std::string::npos) << r.output;
}

TEST(Cli, SweepRejectsSingleRunOnlyFlags) {
  for (const char* args : {"--sweep --trace --iters 16",
                           "--sweep --trace-core 7 --iters 16"}) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("--sweep"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(Cli, JobsRejectsTrailingGarbage) {
  const CliResult r = run_cli("--jobs 4x --iters 16 --elements 4096");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--jobs"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------
// Checkpoint/restore and sweep resume surface.

TEST(Cli, CheckpointRestoreReproducesRun) {
  const std::string dir = ::testing::TempDir() + "virec_cli_ckpt";
  const std::string args =
      "--workload gather --scheme virec --threads 4 --iters 24 "
      "--elements 4096";
  const CliResult straight = run_cli(
      args + " --checkpoint-every 1000 --checkpoint-out " + dir);
  ASSERT_EQ(straight.exit_code, 0) << straight.output;
  const CliResult restored =
      run_cli(args + " --restore " + dir + "/ckpt-1000.vckpt");
  ASSERT_EQ(restored.exit_code, 0) << restored.output;
  EXPECT_EQ(straight.output, restored.output);
}

TEST(Cli, RestoreRejectsMismatchedConfig) {
  const std::string dir = ::testing::TempDir() + "virec_cli_ckpt_mismatch";
  const CliResult straight = run_cli(
      "--workload gather --scheme virec --threads 4 --iters 24 "
      "--elements 4096 --checkpoint-every 1000 --checkpoint-out " + dir);
  ASSERT_EQ(straight.exit_code, 0) << straight.output;
  const CliResult other = run_cli(
      "--workload gather --scheme banked --threads 4 --iters 24 "
      "--elements 4096 --restore " + dir + "/ckpt-1000.vckpt");
  EXPECT_EQ(other.exit_code, 2);
  EXPECT_NE(other.output.find("config hash"), std::string::npos)
      << other.output;
}

TEST(Cli, RestoreRefusesHostileSnapshotBytes) {
  // core0's current thread planted as 7 of 4 behind a valid CRC: the
  // payload holds the thread count, 37 bytes per thread, 4 latches of
  // 62 bytes, then cycle and instructions before the current thread.
  const std::string dir = ::testing::TempDir() + "virec_cli_ckpt_hostile";
  const std::string args =
      "--workload gather --scheme virec --threads 4 --iters 24 "
      "--elements 4096";
  const CliResult straight = run_cli(
      args + " --checkpoint-every 1000 --checkpoint-out " + dir);
  ASSERT_EQ(straight.exit_code, 0) << straight.output;
  const std::string planted =
      virec::test::PlantedSnapshot(dir + "/ckpt-1000.vckpt")
          .plant("core0", 4 + 37 * 4 + 4 * 62 + 16, 8, 7,
                 dir + "/planted.vckpt");
  const CliResult r = run_cli(args + " --restore " + planted);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "error: ")) << r.output;
  EXPECT_NE(r.output.find("core current thread"), std::string::npos)
      << r.output;
}

TEST(Cli, CheckpointFlagsMustComeTogether) {
  const CliResult r = run_cli("--iters 16 --checkpoint-every 100");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--checkpoint-out"), std::string::npos) << r.output;
}

TEST(Cli, CheckpointFlagsRejectedInSweepMode) {
  const CliResult r =
      run_cli("--sweep --iters 16 --checkpoint-every 100 --checkpoint-out x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--sweep"), std::string::npos) << r.output;
}

TEST(Cli, StoreRequiresSweepMode) {
  const CliResult r =
      run_cli("--iters 16 --store " + ::testing::TempDir() + "cli_store");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--sweep"), std::string::npos) << r.output;
}

TEST(Cli, MaxCyclesWatchdogNamesStuckCore) {
  const CliResult r =
      run_cli("--workload gather --iters 32 --elements 4096 --max-cycles 200");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("max_cycles"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("core 0"), std::string::npos) << r.output;
}

TEST(Cli, SweepResumeReproducesCleanCsv) {
  // Kill-and-resume, CLI flavour: run half the grid against a store,
  // then the full grid against the same store; the resumed CSV must
  // equal the clean run's byte for byte, and a warm rerun simulates
  // nothing.
  const std::string store = ::testing::TempDir() + "virec_cli_store";
  std::filesystem::remove_all(store);
  const std::string tail =
      " --threads 4 --iters 16 --elements 4096 --jobs 2";
  const std::string grid = "--sweep --workload gather,reduce "
                           "--scheme banked,virec" + tail;
  const CliResult clean = run_cli(grid);
  ASSERT_EQ(clean.exit_code, 0) << clean.output;
  const CliResult half = run_cli(
      "--sweep --workload gather --scheme banked,virec" + tail +
      " --store " + store);
  ASSERT_EQ(half.exit_code, 0) << half.output;
  // stderr (captured alongside stdout) carries the store line; the CSV
  // part must match the clean run exactly.
  auto csv_of = [](const CliResult& r) {
    return r.output.substr(r.output.find("workload,"));
  };
  const CliResult resumed = run_cli(grid + " --store " + store);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("store: 2 of 4 point(s) already in " +
                                store + ", 2 simulated"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(csv_of(resumed), clean.output);
  const CliResult warm = run_cli(grid + " --store " + store);
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("store: 4 of 4 point(s) already in " + store +
                             ", 0 simulated"),
            std::string::npos)
      << warm.output;
  EXPECT_EQ(csv_of(warm), clean.output);
  std::filesystem::remove_all(store);
}

// ---------------------------------------------------------------------
// Observability surface: strict parsing, --json, --trace-out,
// --trace-core, --sample-interval.

TEST(Cli, TrailingGarbageInNumberIsRejected) {
  // The old parser accepted "8x" as 8; the flag name must be reported.
  const CliResult r = run_cli("--threads 8x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--threads"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("8x"), std::string::npos) << r.output;

  const CliResult d = run_cli("--ctx 0.8oops");
  EXPECT_EQ(d.exit_code, 2);
  EXPECT_NE(d.output.find("--ctx"), std::string::npos) << d.output;
}

TEST(Cli, OutOfRangeAndDegenerateKnobsAreRejected) {
  // Each must stop with an error instead of running: a 32-bit knob
  // must not wrap (4294967298 threads is not 2), and zero threads or
  // cores or a context fraction outside (0, 1] describe no system.
  const char* const bad[] = {
      "--threads 4294967298", "--regs 4294967302", "--jobs 4294967297",
      "--threads 0",          "--cores 0",         "--ctx nan",
      "--ctx inf",            "--ctx -1",          "--ctx 1e9",
  };
  for (const char* args : bad) {
    const CliResult r =
        run_cli(std::string(args) + " --iters 8 --elements 1024");
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("error:"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(Cli, TraceCoreOutOfRangeIsRejected) {
  const CliResult r =
      run_cli("--trace --trace-core 3 --iters 8 --elements 1024");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace-core 3: system has only 1 core"),
            std::string::npos)
      << r.output;
}

TEST(Cli, TraceCoreNeedsTrace) {
  // Without --trace nothing is traced, so a core choice is a mistake.
  const CliResult r = run_cli(
      "--cores 2 --threads 2 --iters 16 --elements 4096 --trace-core 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("error: --trace-core"), std::string::npos)
      << r.output;
}

TEST(Cli, TraceCoreSelectsCore) {
  const CliResult r = run_cli(
      "--workload gather --cores 2 --threads 2 --iters 8 --elements 1024 "
      "--trace --trace-core 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("commit @"), std::string::npos);
}

TEST(Cli, JsonReportIsValidAndComplete) {
  const CliResult r = run_cli(
      "--workload gather --scheme virec --iters 32 --elements 4096 --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const auto v = virec::json_parse(r.output);
  EXPECT_EQ(v.at("config").at("workload").string, "gather");
  EXPECT_EQ(v.at("config").at("scheme").string, "virec");
  EXPECT_TRUE(v.at("results").at("check_ok").boolean);
  int populated_hists = 0;
  for (const auto& s : v.at("stats").array) {
    if (s.at("kind").string == "histogram" && s.at("count").number > 0) {
      ++populated_hists;
    }
  }
  EXPECT_GE(populated_hists, 3) << r.output.substr(0, 400);
}

TEST(Cli, JsonToFileKeepsTextReport) {
  // --json=FILE is the route to text beside JSON: bare --json owns
  // stdout, so it rejects --cpi-stack and --area.
  const std::string path = ::testing::TempDir() + "virec_cli_report.json";
  for (const std::string extra : {"", " --cpi-stack --area"}) {
    std::filesystem::remove(path);
    const CliResult r =
        run_cli("--iters 16 --elements 1024 --json=" + path + extra);
    ASSERT_EQ(r.exit_code, 0) << extra << "\n" << r.output;
    // stdout still carries the human-readable report.
    EXPECT_TRUE(has_line_prefix(r.output, "cycles ")) << extra;
    if (!extra.empty()) {
      EXPECT_TRUE(has_line_prefix(r.output, "area.total_mm2 ")) << r.output;
      EXPECT_TRUE(has_line_prefix(r.output, "| total ")) << r.output;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << extra;
    std::stringstream ss;
    ss << in.rdbuf();
    const auto v = virec::json_parse(ss.str());
    EXPECT_NE(v.find("results"), nullptr) << extra;
  }
}

TEST(Cli, SampleIntervalAddsTimeSeries) {
  const CliResult r = run_cli(
      "--iters 32 --elements 4096 --json --sample-interval 200");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const auto v = virec::json_parse(r.output);
  const auto& ts = v.at("time_series");
  EXPECT_DOUBLE_EQ(ts.at("interval").number, 200.0);
  ASSERT_FALSE(ts.at("samples").array.empty());
  const double final_ipc = ts.at("samples").array.back().at("ipc").number;
  const double scalar_ipc = v.at("results").at("ipc").number;
  EXPECT_NEAR(final_ipc, scalar_ipc, 0.01 * scalar_ipc);
}

TEST(Cli, TextReportPrintsEverySample) {
  // One "sample" line per sample the JSON time series holds.
  const std::string path = ::testing::TempDir() + "virec_cli_samples.json";
  const CliResult r = run_cli("--iters 32 --elements 4096 --json=" + path +
                              " --sample-interval 200");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto v = virec::json_parse(ss.str());
  const std::size_t samples = v.at("time_series").at("samples").array.size();
  ASSERT_GT(samples, 0u);
  std::size_t lines = 0;
  std::istringstream text(r.output);
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("sample cycle ", 0) == 0) ++lines;
  }
  EXPECT_EQ(lines, samples) << r.output;
}

TEST(Cli, TraceOutIsWellFormedEventArray) {
  const std::string path = ::testing::TempDir() + "virec_cli_trace.json";
  const CliResult r = run_cli(
      "--workload gather --iters 16 --elements 1024 --trace-out " + path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const auto v = virec::json_parse(ss.str());
  ASSERT_TRUE(v.is_array());
  ASSERT_FALSE(v.array.empty());
  bool saw_residency = false;
  for (const auto& e : v.array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    if (e.at("ph").string == "X" && e.at("cat").string == "residency") {
      saw_residency = true;
    }
  }
  EXPECT_TRUE(saw_residency);
}

TEST(Cli, SampledRunReportsEstimate) {
  const CliResult r = run_cli(
      "--workload gather --iters 2048 --elements 4096 "
      "--sample-windows 6 --window-insts 400 --warmup-insts 200");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "tier sampled")) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "est_ipc ")) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "est_ipc_lo ")) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "window 5 ")) << r.output;
  EXPECT_TRUE(has_line_prefix(r.output, "check OK")) << r.output;
}

TEST(Cli, SampledJsonCarriesWindows) {
  const CliResult r = run_cli(
      "--workload gather --iters 2048 --elements 4096 "
      "--sample-windows 5 --window-insts 300 --warmup-insts 150 --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const auto v = virec::json_parse(r.output);
  ASSERT_TRUE(v.is_object());
  const auto& tiered = v.at("tiered");
  EXPECT_EQ(tiered.at("windows").array.size(), 5u);
  EXPECT_GT(tiered.at("est_ipc").number, 0.0);
  EXPECT_LE(tiered.at("est_ipc_lo").number, tiered.at("est_ipc").number);
  EXPECT_GE(tiered.at("est_ipc_hi").number, tiered.at("est_ipc").number);
  EXPECT_EQ(v.at("result").at("check").string, "OK");
}

TEST(Cli, SampledRunWithCheckPasses) {
  // The lockstep oracle checks every replayed instruction of a sampled
  // run and leaves its report unchanged (host wall times aside).
  const std::string args =
      "--workload stride --iters 256 --elements 4096 --sample-windows 4 "
      "--window-insts 300 --warmup-insts 100 --stats";
  const auto without_wall = [](const std::string& out) {
    std::istringstream in(out);
    std::string kept;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("wall_", 0) == 0 || line.rfind("est_speedup", 0) == 0) {
        continue;
      }
      kept += line + "\n";
    }
    return kept;
  };
  const CliResult checked = run_cli(args + " --check");
  ASSERT_EQ(checked.exit_code, 0) << checked.output;
  EXPECT_TRUE(has_line_prefix(checked.output, "tier sampled"))
      << checked.output;
  EXPECT_TRUE(has_line_prefix(checked.output, "check OK")) << checked.output;
  const CliResult plain = run_cli(args);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(without_wall(checked.output), without_wall(plain.output));
}

TEST(Cli, SamplingGuardsReject) {
  // Each bad combination must exit 2 with an explanatory error, not
  // fall through to a run.
  const char* const bad[] = {
      "--window-insts 100",
      "--warmup-insts 100",
      "--sample-windows 4 --window-insts 0",
      "--sample-windows 4 --cores 2",
      "--sample-windows 4 --trace",
      "--sample-windows 4 --window-insts 300 --warmup-insts 100 "
      "--iters 1024 --elements 4096 --trace-core 7",
      "--sample-windows 4 --sample-interval 100",
      "--sample-windows 4 --restore nonexistent.vckpt",
      "--sample-windows 4 --checkpoint-every 100 --checkpoint-out /tmp/x",
      "--sample-windows nope",
  };
  for (const char* args : bad) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("error:"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(Cli, ReplayRejectsEveryFlagButNoSkip) {
  // A repro file holds its own spec and program: any other flag would
  // be silently ignored, so it is an error.
  const std::string path = ::testing::TempDir() + "virec_cli_replay.repro";
  std::ofstream(path) << "// repro scheme banked\nmov x0, #0xff\nhalt\n";
  const CliResult plain = run_cli("--replay " + path);
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(run_cli("--replay " + path + " --no-skip").output, plain.output);
  for (const std::string flag : {"--scheme banked", "--stats", "--json",
                                 "--sweep", "--trace", "--cores 3"}) {
    const CliResult r = run_cli("--replay " + path + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("error: " + flag.substr(0, flag.find(' '))),
              std::string::npos)
        << flag << "\n" << r.output;
  }
}

TEST(Cli, ReplayRefusesHeadersItCannotHonour) {
  // A header naming a knob a checked run never reads, or no knob at
  // all, stops the replay with exit 2 naming it: it must not run
  // silently with a default.
  const std::string path = ::testing::TempDir() + "virec_cli_refused.repro";
  for (const auto& [header, named] :
       {std::pair{"sample-windows 4", "--sample-windows"},
        std::pair{"iters 64", "--iters"}, std::pair{"check", "--check"},
        std::pair{"registers 5", "registers"}}) {
    std::ofstream(path) << "// repro " << header << "\nmov x0, #0xff\nhalt\n";
    const CliResult r = run_cli("--replay " + path);
    EXPECT_EQ(r.exit_code, 2) << header << "\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
    EXPECT_NE(r.output.find(named), std::string::npos) << r.output;
  }
  // A multi-core header replays on that many cores, and the report
  // names them before the run's own lines.
  std::ofstream(path) << "// repro regs 5\nmov x0, #0xff\nhalt\n";
  const CliResult one = run_cli("--replay " + path);
  ASSERT_EQ(one.exit_code, 0) << one.output;
  std::ofstream(path) << "// repro cores 2\n// repro regs 5\n"
                      << "mov x0, #0xff\nhalt\n";
  const CliResult two = run_cli("--replay " + path);
  ASSERT_EQ(two.exit_code, 0) << two.output;
  EXPECT_EQ(run_cli("--replay " + path + " --no-skip").output, two.output);
  const auto machine = [](const std::string& report) {
    return report.substr(0, report.find("\ncycles "));
  };
  EXPECT_NE(machine(two.output), machine(one.output));
  EXPECT_TRUE(has_line_prefix(two.output, "cores 2")) << two.output;
  // Other headers follow, one line each, in knob-table order.
  std::ofstream(path) << "// repro ctx 0.5\n// repro regs 0\n"
                      << "// repro dcache-bytes 4096\n// repro seed 7\n"
                      << "mov x0, #0xff\nhalt\n";
  const CliResult more = run_cli("--replay " + path);
  ASSERT_EQ(more.exit_code, 0) << more.output;
  EXPECT_NE(machine(more.output).find("\nctx 0.5\nseed 7\ndcache-bytes 4096\n"),
            std::string::npos)
      << more.output;
  // With regs 0 the register count is the one the context fraction
  // gives, as in a single run's report.
  EXPECT_FALSE(has_line_prefix(more.output, "phys_regs 0")) << more.output;
}

TEST(VirecFuzz, KnobFlagsGoThroughTheKnobTable) {
  const auto fuzz = [](const std::string& args) {
    return run_command(std::string(VIREC_FUZZ_PATH) + " " + args + " 2>&1");
  };
  // The configuration matrix sets --scheme and --policy, and a checked
  // run never reads a sampling knob: each is an error naming the flag.
  for (const char* flag :
       {"--scheme banked", "--policy plru", "--sample-windows 4",
        "--elements 64", "--check"}) {
    const CliResult r = fuzz(flag);
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    const std::string args = flag;
    const std::string name = args.substr(0, args.find(' '));
    EXPECT_NE(r.output.find("error: " + name), std::string::npos)
        << flag << "\n" << r.output;
  }
  const CliResult unknown = fuzz("--frobnicate");
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.output.find("unknown option: --frobnicate"),
            std::string::npos)
      << unknown.output;
  // Every knob flag a checked run reads is taken, --cores included.
  const CliResult two = fuzz("--cores 2 --threads 3 --regs 5 --programs 2 "
                             "--seed 1 --jobs 1");
  EXPECT_EQ(two.exit_code, 0) << two.output;
  EXPECT_NE(two.output.find("clean"), std::string::npos) << two.output;
  // --ctx and --workload size the register file only with --regs 0,
  // which may come before or after them.
  for (const char* flag : {"--ctx 0.5", "--workload spmv"}) {
    const CliResult r = fuzz(std::string(flag) + " --programs 2 --jobs 1");
    EXPECT_EQ(r.exit_code, 2) << flag << "\n" << r.output;
    const std::string args = flag;
    EXPECT_NE(r.output.find("error: " + args.substr(0, args.find(' '))),
              std::string::npos)
        << flag << "\n" << r.output;
  }
  for (const char* args : {"--regs 0 --ctx 0.5", "--ctx 0.5 --regs 0"}) {
    const CliResult r =
        fuzz(std::string(args) + " --programs 2 --seed 1 --jobs 1");
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
  }
}

TEST(Cli, FlagsTheModeWouldIgnoreAreRejected) {
  // Each command line names a flag its mode would drop, or text that
  // would land in --json stdout: it must stop with exit 2 and an error
  // naming that flag, not run without it.
  const std::string sampled =
      "--workload gather --iters 2048 --elements 4096 --sample-windows 5 "
      "--window-insts 300 --warmup-insts 150";
  const std::string file = ::testing::TempDir() + "virec_cli_ignored.json";
  const std::pair<std::string, const char*> cases[] = {
      // The no-run modes take no other flag.
      {"--help --iters 8", "--iters"},
      {"--list --sweep", "--sweep"},
      {"--version --jobs 9", "--jobs"},
      {"--version --sweep --workload nonsense", "--sweep"},
      // --jobs only sizes a sweep's worker pool.
      {"--iters 16 --elements 1024 --jobs 4", "--jobs"},
      {sampled + " --jobs 3", "--jobs"},
      // --trace-core picks the core --trace prints.
      {"--iters 16 --elements 1024 --trace-core 0", "--trace-core"},
      // A core holds one tracer: the Perfetto sink would replace --trace.
      {"--workload reduce --threads 1 --iters 4 --trace --trace-out " + file,
       "--trace"},
      // A sweep's heartbeat comes once per point.
      {"--sweep --workload reduce --threads 2,4 --iters 16 --elements 4096 "
       "--progress=100",
       "--progress=SECS"},
      // A JSON report takes no text counter dump: a sampled one drops
      // the stats, a detailed one holds them anyway.
      {sampled + " --stats --json", "--stats"},
      {sampled + " --stats --json=" + file, "--stats"},
      {"--iters 16 --elements 1024 --stats --json=" + file, "--stats"},
      // Bare --json owns stdout.
      {"--iters 16 --elements 1024 --json --cpi-stack", "--cpi-stack"},
      {"--iters 16 --elements 1024 --json --area", "--area"},
      {"--iters 16 --elements 1024 --json --trace", "--trace"},
      {sampled + " --json --cpi-stack", "--cpi-stack"},
      {sampled + " --json --area", "--area"},
  };
  for (const auto& [args, flag] : cases) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("error: ") + flag), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(Cli, SampledSweepUsesEstimatedIpc) {
  const CliResult r = run_cli(
      "--sweep --workload gather --scheme virec,banked --iters 1024 "
      "--elements 4096 --sample-windows 5 --window-insts 300 "
      "--warmup-insts 100 --jobs 2");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("gather,virec"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("gather,banked"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------
// virec-repro: the figure registry driver.

struct ReproResult {
  int exit_code = -1;
  std::string out;  // the figures
  std::string err;  // the store line and errors
};

ReproResult run_repro(const std::string& args) {
  const std::string err_path = ::testing::TempDir() + "virec_repro.err";
  const CliResult r = run_command(std::string(VIREC_REPRO_PATH) + " " +
                                  args + " 2>" + err_path);
  std::ifstream in(err_path);
  std::stringstream err;
  err << in.rdbuf();
  return {r.exit_code, r.output, err.str()};
}

TEST(VirecRepro, ListsFiguresInPaperOrder) {
  const ReproResult r = run_repro("--list");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out,
            "table1\nfig01\nfig02\nfig09\nfig10\nfig11\nfig12\nfig13\n"
            "fig14\nablation_features\nablation_policy_bound\n");
}

TEST(VirecRepro, UnknownFigureOrFlagListsTheFigures) {
  for (const char* args : {"--figure fig99", "--figures fig11", "--iters 8"}) {
    const ReproResult r = run_repro(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_TRUE(r.out.empty()) << args << "\n" << r.out;
    EXPECT_NE(r.err.find("error:"), std::string::npos) << args << r.err;
    EXPECT_NE(r.err.find("table1 fig01"), std::string::npos) << args << r.err;
  }
}

TEST(VirecRepro, OutputIsIndependentOfJobCount) {
  const ReproResult serial = run_repro("--figure fig11 --jobs 1");
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_NE(serial.out.find("Figure 11"), std::string::npos) << serial.out;
  const ReproResult pooled = run_repro("--figure fig11 --jobs 4");
  ASSERT_EQ(pooled.exit_code, 0) << pooled.err;
  EXPECT_EQ(pooled.out, serial.out);
}

TEST(VirecRepro, ColdAndWarmStoreRunsMatchAPlainRun) {
  const std::string store = ::testing::TempDir() + "virec_repro_store";
  std::filesystem::remove_all(store);
  const ReproResult plain = run_repro("--figure fig11 --jobs 2");
  ASSERT_EQ(plain.exit_code, 0) << plain.err;
  EXPECT_TRUE(plain.err.empty()) << plain.err;
  const ReproResult cold =
      run_repro("--figure fig11 --jobs 2 --store " + store);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_EQ(cold.err, "store: 0 of 8 point(s) already in " + store +
                          ", 8 simulated\n");
  EXPECT_EQ(cold.out, plain.out);
  const ReproResult warm =
      run_repro("--figure fig11 --jobs 2 --store " + store);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_EQ(warm.err, "store: 8 of 8 point(s) already in " + store +
                          ", 0 simulated\n");
  EXPECT_EQ(warm.out, plain.out);
  std::filesystem::remove_all(store);
}

TEST(VirecRepro, UnusableStoreExits2) {
  const std::string file = ::testing::TempDir() + "virec_repro_not_a_dir";
  std::ofstream(file) << "x";
  const ReproResult r = run_repro("--figure fig11 --store " + file + "/store");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;
}

using virec::bench::ResultMap;
using virec::sim::RunSpec;

RunSpec tiny_point(virec::u32 threads) {
  RunSpec spec;
  spec.workload = "reduce";
  spec.threads_per_core = threads;
  spec.params.iters_per_thread = 32;
  spec.params.elements = 1 << 12;
  return spec;
}

TEST(VirecRepro, ResultMapKeysByFullPointIdentity) {
  // The driver's results are keyed by the full point identity
  // (ckpt::spec_hash): a spec that differs only in the watchdog bound
  // is another point, never served the first one's result.
  RunSpec spec = tiny_point(2);
  const std::vector<RunSpec> grid = {spec};
  const ResultMap results(grid, virec::sim::run_points(grid).results);
  EXPECT_TRUE(results.at(spec).check_ok);
  spec.max_cycles = 100;
  EXPECT_THROW(results.at(spec), std::logic_error);
}

TEST(VirecRepro, StoreServesAndFillsTheResultMap) {
  // With a store, the driver's points go through it: one entry per
  // unique point, read back by the next run.
  const std::string dir = ::testing::TempDir() + "virec_repro_map_store";
  std::filesystem::remove_all(dir);
  virec::svc::ResultStore store(dir);
  const std::vector<RunSpec> grid = {tiny_point(2), tiny_point(4),
                                     tiny_point(2)};
  const ResultMap cold(grid, virec::sim::run_points(grid, 2, &store).results);
  EXPECT_EQ(store.size(), 2u);
  // A planted entry proves the next run reads the store instead of
  // simulating.
  virec::sim::RunResult planted = cold.at(grid[0]);
  planted.cycles = 12345;
  store.put(virec::ckpt::spec_hash(grid[0]), grid[0], planted);
  virec::sim::PointResults points = virec::sim::run_points(grid, 2, &store);
  EXPECT_EQ(points.executed, 0u);
  const ResultMap warm(grid, std::move(points.results));
  EXPECT_EQ(warm.cycles(grid[0]), 12345u);
  EXPECT_EQ(warm.cycles(grid[2]), 12345u);  // same point as grid[0]
  EXPECT_EQ(warm.cycles(grid[1]), cold.cycles(grid[1]));
  std::filesystem::remove_all(dir);
}

}  // namespace
