// One experiment point (sim::RunSpec) and the knob table that defines
// each of its run knobs once.
//
// Every RunSpec field has one row in VIREC_RUN_SPEC_KNOBS. The row
// names the field, its virec-sim flag, metavar and help text (or no
// flag), whether the field is part of the point identity or shapes the
// functional stream, whether it is a --sweep axis, and whether it is
// valid only with --sample-windows. virec-sim's knob flags and help
// lines (SpecFlags), the identity codec (ckpt::encode_spec_identity),
// the stream key (ckpt::functional_stream_hash) and the sampling rules
// of validate() are all generated from the table, so adding a knob is a
// struct field, one row, and the code that consumes it.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/replacement_policy.hpp"
#include "sim/system_config.hpp"
#include "workloads/workload.hpp"

namespace virec::sim {

/// One experiment point.
struct RunSpec {
  std::string workload = "gather";
  Scheme scheme = Scheme::kViReC;
  u32 num_cores = 1;
  u32 threads_per_core = 8;
  /// Fraction of the per-thread active context stored on chip
  /// (register-cache schemes), in (0, 1]. 1.0 => full active context.
  double context_fraction = 1.0;
  core::PolicyKind policy = core::PolicyKind::kLRC;
  workloads::WorkloadParams params{};
  /// Optional overrides applied to the Table-1 preset.
  u32 dcache_bytes = 0;       // 0 = preset
  u32 dcache_latency = 0;     // 0 = preset
  /// Explicit physical register count; 0 derives from context_fraction.
  u32 phys_regs = 0;
  /// Future-work extensions (see core::ViReCConfig).
  bool group_spill = false;
  bool switch_prefetch = false;
  /// Watchdog: abort the run (std::runtime_error naming the stuck
  /// core/thread) after this many cycles. 0 keeps the preset guard.
  u64 max_cycles = 0;
  /// Arm the lockstep reference oracle and hard invariants
  /// (System::enable_check); divergence throws check::CheckError.
  bool check = false;
  /// Disable event-driven cycle skipping (CgmtCoreConfig::skip): every
  /// core steps every cycle. Results are bit-identical either way.
  bool no_skip = false;
  /// Tiered simulation (sim::TieredRunner; docs/performance.md).
  /// sample_windows > 0 runs SMARTS-style sampled measurement: the
  /// returned RunResult carries the *estimated* cycles/IPC instead of
  /// measured full-run values. validate() holds the rules that combine
  /// it with the other knobs.
  u32 sample_windows = 0;
  u64 window_insts = 10'000;  ///< measured instructions per window (K)
  u64 warmup_insts = 2'000;   ///< detailed warm-up before each window (W)
};

/// What a knob is, beyond its value (bits of Knob::roles).
enum KnobRole : unsigned {
  kRunOnly = 0,     ///< changes how a point runs, never its outcome
  kIdentity = 1,    ///< part of the point identity (ckpt::spec_hash)
  kSampling = 2,    ///< valid only with sample_windows > 0
  kFunctional = 4,  ///< shapes the functional stream (its cache key,
                    ///< ckpt::functional_stream_hash)
};

/// --sweep grid axes in nesting order: the first varies slowest.
enum SweepAxis : int {
  kNoAxis = -1,
  kAxisWorkload,
  kAxisScheme,
  kAxisPolicy,
  kAxisThreads,
  kAxisCtx,
  kAxisCores,
  kNumSweepAxes,
};

// X(member, flag, metavar, roles, axis, help)
//   member   RunSpec field (params.* included)
//   flag     virec-sim option; "" = no flag
//   metavar  value placeholder in --help; "" = a switch (a bool field
//            the flag sets true)
//   roles    KnobRole bits
//   axis     SweepAxis the flag feeds under --sweep, or kNoAxis
//   help     --help text; '\n' continues on the next help line
// Identity rows are encoded in table order: moving one changes every
// spec hash (bump ckpt::kSpecCodecVersion).
#define VIREC_RUN_SPEC_KNOBS(X)                                               \
  X(workload, "--workload", "NAME", kIdentity | kFunctional, kAxisWorkload,   \
    "kernel to run (default gather; see --list)")                             \
  X(scheme, "--scheme", "NAME", kIdentity, kAxisScheme,                       \
    "banked | software | prefetch-full |\n"                                   \
    "prefetch-exact | virec | nsf (default virec)")                           \
  X(policy, "--policy", "NAME", kIdentity, kAxisPolicy,                       \
    "plru | lru | fifo | random | mrt-plru |\n"                               \
    "mrt-lru | lrc (default lrc)")                                            \
  X(num_cores, "--cores", "N", kIdentity | kFunctional, kAxisCores,           \
    "near-memory processors (default 1)")                                     \
  X(threads_per_core, "--threads", "N", kIdentity | kFunctional,              \
    kAxisThreads, "hardware threads per core (default 8)")                    \
  X(context_fraction, "--ctx", "F", kIdentity, kAxisCtx,                      \
    "context fraction stored on chip, in\n"                                   \
    "(0, 1] (default 1)")                                                     \
  X(params.iters_per_thread, "--iters", "N", kIdentity | kFunctional,         \
    kNoAxis, "inner iterations per thread (default 256)")                     \
  X(params.elements, "--elements", "N", kIdentity | kFunctional, kNoAxis,     \
    "data set elements (default 65536)")                                      \
  X(params.stride, "--stride", "N", kIdentity | kFunctional, kNoAxis,         \
    "stride kernel: element stride (default 8)")                              \
  X(params.locality_window, "--window", "N", kIdentity | kFunctional,         \
    kNoAxis, "gather_local: locality window (default 512)")                   \
  X(params.extra_compute, "", "", kIdentity | kFunctional, kNoAxis, "")       \
  X(params.max_regs, "", "", kIdentity | kFunctional, kNoAxis, "")            \
  X(params.seed, "--seed", "N", kIdentity | kFunctional, kNoAxis,             \
    "workload RNG seed (default 42)")                                         \
  X(dcache_bytes, "--dcache-bytes", "N", kIdentity | kFunctional, kNoAxis,    \
    "override dcache capacity")                                               \
  X(dcache_latency, "--dcache-latency", "N", kIdentity, kNoAxis,              \
    "override dcache hit latency")                                            \
  X(phys_regs, "--regs", "N", kIdentity, kNoAxis,                             \
    "explicit physical register count")                                       \
  X(max_cycles, "--max-cycles", "N", kIdentity, kNoAxis,                      \
    "watchdog: abort (naming the stuck core/\n"                               \
    "thread) after N cycles")                                                 \
  X(group_spill, "--group-spill", "", kIdentity, kNoAxis,                     \
    "enable the group-spill extension")                                       \
  X(switch_prefetch, "--switch-prefetch", "", kIdentity, kNoAxis,             \
    "enable the switch-prefetch extension")                                   \
  X(sample_windows, "--sample-windows", "N", kIdentity, kNoAxis,              \
    "SMARTS-style sampled measurement: replay\n"                              \
    "the recorded functional stream between N\n"                              \
    "systematic measurement windows and report\n"                             \
    "an estimated IPC with a confidence interval\n"                           \
    "(docs/performance.md)")                                                  \
  X(window_insts, "--window-insts", "K", kIdentity | kSampling, kNoAxis,      \
    "measured instructions per window (default\n"                             \
    "10000; needs --sample-windows)")                                         \
  X(warmup_insts, "--warmup-insts", "W", kIdentity | kSampling, kNoAxis,      \
    "detailed warm-up instructions before each\n"                             \
    "window (default 2000; needs\n"                                           \
    "--sample-windows)")                                                      \
  X(no_skip, "--no-skip", "", kRunOnly, kNoAxis,                              \
    "disable event-driven cycle skipping and\n"                               \
    "step every cycle. Results are bit-identical\n"                           \
    "either way (docs/performance.md); use this\n"                            \
    "only to bisect the simulator itself")                                    \
  X(check, "--check", "", kRunOnly, kNoAxis,                                  \
    "run the lockstep reference oracle and hard\n"                            \
    "invariants alongside the simulation (with\n"                             \
    "--sample-windows: every replayed\n"                                      \
    "instruction); abort with a divergence\n"                                 \
    "report on any mismatch (docs/correctness.md)")

/// One row of the knob table.
struct Knob {
  const char* field;    ///< RunSpec member, e.g. "params.seed"
  const char* flag;     ///< virec-sim option; "" = none
  const char* metavar;  ///< "" = a switch
  unsigned roles;       ///< KnobRole bits
  SweepAxis axis;
  const char* help;
};

/// Call fn(knob, field) for every row, in table order; field(spec)
/// returns a reference to that knob's member of any RunSpec.
template <typename Fn>
void for_each_knob(Fn&& fn) {
#define VIREC_KNOB_VISIT(member, flag, metavar, roles, axis, help) \
  fn(Knob{#member, flag, metavar, roles, axis, help},               \
     [](auto& spec) -> auto& { return spec.member; });
  VIREC_RUN_SPEC_KNOBS(VIREC_KNOB_VISIT)
#undef VIREC_KNOB_VISIT
}

/// Reject a spec no run can honour: zero cores or threads, a context
/// fraction outside (0, 1], and the tiered rules — sampling-only knobs
/// without sample_windows, zero-size windows, sampled runs on more than
/// one core. Throws std::invalid_argument naming the flag.
/// build_config and TieredRunner call it.
void validate(const RunSpec& spec);

/// Applies one value of a sweep axis to a spec.
using SpecSetter = std::function<void(RunSpec&)>;

/// The knob flags of a command line (virec-sim), parsed through the
/// knob table. An axis flag takes a comma list: a single run accepts
/// one value (single()), a sweep takes every value (axis()).
class SpecFlags {
 public:
  explicit SpecFlags(RunSpec base = {});

  /// If @p arg is a knob flag, apply it — reading its value from
  /// @p value() unless the knob is a switch — and return true. Throws
  /// std::invalid_argument naming the flag on a malformed value.
  bool parse(const std::string& arg,
             const std::function<std::string()>& value);

  /// Every knob given, axes at their base values.
  const RunSpec& base() const { return base_; }

  /// base() with each given axis flag's value; throws
  /// std::invalid_argument if one carries a list.
  RunSpec single() const;

  /// The values given for @p axis, in order (empty = flag not given).
  const std::vector<SpecSetter>& axis(SweepAxis axis) const {
    return axes_.at(static_cast<std::size_t>(axis)).values;
  }

  /// One --help entry per knob with a flag.
  static void print_help(std::ostream& os);

  /// One --help entry in print_help's layout: @p head (the flag and
  /// its metavar), then @p help in a column ('\n' continues on the next
  /// line). virec-sim's other flags share it.
  static void print_help_entry(std::ostream& os, const std::string& head,
                               const char* help);

 private:
  struct AxisValues {
    const char* flag = "";
    std::string text;
    std::vector<SpecSetter> values;
  };
  RunSpec base_;
  std::array<AxisValues, kNumSweepAxes> axes_;
};

}  // namespace virec::sim
