// virec-fuzz — differential program fuzzer for the simulator.
//
// Generates random programs (check::random_program, edge operands on),
// runs each one across every scheme x policy configuration under the
// lockstep reference oracle + hard invariants (check::run_checked), and
// on the failure with the lowest seed shrinks the program
// (drop-instruction and halve-iteration passes) and writes a standalone
// repro file replayable with `virec-sim --replay FILE`.
//
//   virec-fuzz --cores 2 --programs 200 --seed 1 --jobs 8
//   virec-fuzz --inject-tag-bug        # negative self-test (exit 0 if
//                                      # the corruption is caught)
#include <atomic>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/harness.hpp"
#include "check/progen.hpp"
#include "check/repro.hpp"
#include "common/parse_number.hpp"
#include "core/replacement_policy.hpp"

using namespace virec;

namespace {

struct Options {
  u64 programs = 50;
  u64 seed = 1;        // seed of program 0; program i uses seed + i
  check::ProgenOptions gen{.edge_ops = true};
  // Knob flags (virec-sim's) set the base point every configuration
  // starts from.
  check::CheckedFlags flags;
  sim::RunSpec spec;
  u32 jobs = 0;        // 0 = hardware concurrency
  std::string out = "virec-fuzz-repro.txt";
  bool inject_tag_bug = false;
  bool help = false;
};

void print_usage() {
  std::cout <<
      "virec-fuzz — differential fuzzer (oracle-checked, all schemes)\n"
      "\n"
      "usage: virec-fuzz [options] [knob flags]\n"
      "  --programs N     programs to generate (default 50)\n"
      "  --seed N         seed of the first program (default 1)\n"
      "  --body N         loop-body instructions per program (default 24)\n"
      "  --iters N        loop iterations per program (default 40)\n"
      "  --jobs N         worker threads (0 = all hardware threads)\n"
      "  --out FILE       repro file for the shrunk failure with the\n"
      "                   lowest seed (default virec-fuzz-repro.txt)\n"
      "  --inject-tag-bug self-test: corrupt the ViReC tag store mid-run\n"
      "                   and exit 0 iff the check layer catches it\n"
      "\n"
      "Knob flags (virec-sim --help) set the base point every\n"
      "configuration starts from (1 core, 2 threads, 6 physical\n"
      "registers, a 2000000-cycle watchdog): --cores, --threads, --regs,\n"
      "--no-skip and every other knob a checked run reads, but --scheme\n"
      "and --policy, which the configuration matrix sets. --ctx and\n"
      "--workload size the register file only with --regs 0.\n";
}

bool parse(int argc, char** argv, Options& opt) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") opt.help = true;
    else if (arg == "--programs") opt.programs = parse_u64(arg, value());
    else if (arg == "--seed") opt.seed = parse_u64(arg, value());
    else if (arg == "--body") opt.gen.body_len = parse_u32(arg, value());
    else if (arg == "--iters") opt.gen.loop_iters = parse_u32(arg, value());
    else if (arg == "--jobs") opt.jobs = parse_u32(arg, value());
    else if (arg == "--out") opt.out = value();
    else if (arg == "--inject-tag-bug") opt.inject_tag_bug = true;
    else if (arg == "--scheme" || arg == "--policy") {
      throw std::invalid_argument(arg +
                                  ": the configuration matrix sets it (every "
                                  "scheme, and virec under every policy)");
    } else if (!opt.flags.parse(arg, value)) {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
  }
  opt.spec = opt.flags.spec();
  return true;
}

/// Every configuration each program is checked under: the five
/// fixed-policy schemes plus ViReC under every replacement policy.
std::vector<sim::RunSpec> build_configs(const Options& opt) {
  std::vector<sim::RunSpec> configs;
  auto base = [&](sim::Scheme scheme) {
    sim::RunSpec spec = opt.spec;
    spec.scheme = scheme;
    return spec;
  };
  configs.push_back(base(sim::Scheme::kBanked));
  configs.push_back(base(sim::Scheme::kSoftware));
  configs.push_back(base(sim::Scheme::kPrefetchFull));
  configs.push_back(base(sim::Scheme::kPrefetchExact));
  configs.push_back(base(sim::Scheme::kNSF));
  for (core::PolicyKind policy : core::all_policies()) {
    sim::RunSpec spec = base(sim::Scheme::kViReC);
    spec.policy = policy;
    configs.push_back(spec);
  }
  return configs;
}

std::string config_name(const sim::RunSpec& spec) {
  std::string name = sim::scheme_name(spec.scheme);
  if (spec.scheme == sim::Scheme::kViReC) {
    name += std::string("/") + core::policy_name(spec.policy);
  }
  return name;
}

struct Failure {
  u64 seed = 0;
  sim::RunSpec spec;
  kasm::Program program;
  std::string message;
};

/// A run reproduces the bug only if the checker fired; a timeout is a
/// different (shrinker-induced) condition and must not be chased.
bool reproduces(const kasm::Program& program, const sim::RunSpec& spec) {
  const check::HarnessResult r = check::run_checked(program, spec);
  return !r.ok && !r.timed_out;
}

/// Greedy shrink: repeat drop-instruction and halve-iteration passes
/// until neither makes progress, re-checking that every accepted
/// candidate still fails the same configuration.
kasm::Program shrink(kasm::Program program, const sim::RunSpec& spec) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (u64 i = 0; i < program.size(); ++i) {
      const kasm::Program candidate = check::drop_instruction(program, i);
      if (candidate.size() == 0) continue;
      if (reproduces(candidate, spec)) {
        program = candidate;
        progress = true;
        --i;  // the next instruction shifted into this slot
      }
    }
    for (;;) {
      const kasm::Program candidate = check::halve_loop_iters(program);
      if (candidate.size() == 0 || !reproduces(candidate, spec)) break;
      program = candidate;
      progress = true;
    }
  }
  return program;
}

int fuzz(const Options& opt) {
  const std::vector<sim::RunSpec> configs = build_configs(opt);

  // Programs are handed out in seed order, so once a program fails
  // every lower seed is already taken: the workers finish those and
  // the failure with the lowest seed wins, whatever --jobs is.
  std::atomic<u64> next{0};
  std::atomic<u64> first_failed{opt.programs};
  std::atomic<u64> done{0};
  std::mutex mu;
  Failure failure;

  auto worker = [&]() {
    for (;;) {
      const u64 index = next.fetch_add(1);
      if (index >= first_failed.load()) return;
      const u64 seed = opt.seed + index;
      const kasm::Program program = check::random_program(seed, opt.gen);
      for (const sim::RunSpec& spec : configs) {
        sim::RunSpec run_spec = spec;
        run_spec.params.seed = seed;
        const check::HarnessResult r = check::run_checked(program, run_spec);
        if (r.ok) continue;
        if (r.timed_out) {
          std::lock_guard<std::mutex> lock(mu);
          std::cerr << "warning: seed " << seed << " timed out on "
                    << config_name(spec) << " (" << r.message << ")\n";
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (index < first_failed.load()) {
          failure = Failure{seed, run_spec, program, r.message};
          first_failed.store(index);
        }
        return;
      }
      done.fetch_add(1);
    }
  };

  u32 jobs = opt.jobs != 0 ? opt.jobs : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  std::vector<std::thread> threads;
  for (u32 j = 1; j < jobs; ++j) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();

  if (first_failed.load() == opt.programs) {
    std::cout << "fuzz: " << done.load() << " program(s) x "
              << configs.size() << " config(s) clean (seeds " << opt.seed
              << ".." << (opt.seed + opt.programs - 1) << ")\n";
    return 0;
  }

  std::cerr << "fuzz: seed " << failure.seed << " FAILED on "
            << config_name(failure.spec) << ":\n  " << failure.message
            << "\n";
  std::cerr << "shrinking (" << failure.program.size()
            << " instructions)...\n";
  const kasm::Program shrunk = shrink(failure.program, failure.spec);
  std::cerr << "shrunk to " << shrunk.size() << " instruction(s)\n";

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "error: cannot open " << opt.out << "\n";
    return 2;
  }
  out << check::write_repro(failure.spec, shrunk);
  std::cerr << "repro written to " << opt.out << "\n"
            << "replay with: virec-sim --replay " << opt.out << "\n";
  return 1;
}

int inject_tag_bug(const Options& opt) {
  const kasm::Program program = check::random_program(opt.seed, opt.gen);
  sim::RunSpec spec = opt.spec;
  spec.params.seed = opt.seed;
  if (check::tag_bug_detected(program, spec)) {
    std::cout << "inject-tag-bug: corruption detected by the check layer\n";
    return 0;
  }
  std::cerr << "inject-tag-bug: corruption NOT detected\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "run virec-fuzz --help for the options\n";
      return 2;
    }
    if (opt.help) {
      print_usage();
      return 0;
    }
    // A bad base point fails here, not in every worker thread.
    sim::validate(opt.spec);
    if (opt.inject_tag_bug) return inject_tag_bug(opt);
    if (opt.programs == 0) {
      throw std::invalid_argument("--programs must be > 0");
    }
    return fuzz(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
