// Memory-intensive workload suite modelled after the benchmarks the
// paper evaluates (Spatter gather/scatter/stride, Arm Meabo, CORAL-2
// style streaming kernels, PrIM-style irregular kernels).
//
// Each workload provides
//   * a Program (shared by all threads of all cores),
//   * per-thread initial register values (the offloaded context),
//   * functional data initialisation, and
//   * a result checker that recomputes the expected output on the
//     host — because the simulator executes real data through real
//     register movement, a ViReC bug shows up as a wrong answer here.
//
// Memory contract: every *output* byte of the functional memory is
// written by at most one simulated thread. Threads may freely share
// read-only inputs (index arrays, source data), but their result
// ranges are disjoint at byte granularity — each thread owns a slice
// of the output array selected by its thread/core id registers. New
// kernels must keep this property: the checkers verify per-slice
// results, so a violation shows up as a failed check.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "kasm/program.hpp"
#include "mem/sparse_memory.hpp"

namespace virec::workloads {

struct WorkloadParams {
  /// Inner-loop iterations executed by each thread.
  u64 iters_per_thread = 1024;
  /// Elements in the shared data arrays (8 B each).
  u64 elements = 1 << 16;
  /// Stride in elements for the strided kernel.
  u64 stride = 8;
  /// Index locality window in elements for gather_local (indices fall
  /// inside a sliding window of this size; smaller => more cache hits).
  u64 locality_window = 512;
  /// Extra arithmetic per iteration (Meabo-style intensity knob).
  u32 extra_compute = 2;
  /// Compiler register-reduction knob: registers available to the
  /// register allocator (kernels exceeding it spill outer-loop values
  /// with explicit loads/stores; see gather_wide).
  u32 max_regs = 31;
  u64 seed = 42;

  /// Reject degenerate parameter combinations (zero-sized arrays, zero
  /// iteration counts, ...) that would otherwise reach `% 0` index
  /// generation or underflowing shuffle loops deep inside the kernels.
  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Fixed data layout shared by every kernel.
namespace layout {
inline constexpr Addr kArrayA = 0x2000'0000ull;  // indices / input 1
inline constexpr Addr kArrayB = 0x2800'0000ull;  // values / input 2
inline constexpr Addr kArrayC = 0x3000'0000ull;  // outputs
inline constexpr Addr kArrayD = 0x3800'0000ull;  // auxiliary (rowptr, ...)
inline constexpr Addr kArrayE = 0x4000'0000ull;  // auxiliary 2 (spmv x vector)
inline constexpr Addr kResult = 0x6000'0000ull;  // one line per thread
inline constexpr Addr kScratch = 0x7000'0000ull; // spill slots per thread

inline Addr result_addr(u32 global_tid) { return kResult + global_tid * 64ull; }
inline Addr scratch_addr(u32 global_tid) {
  return kScratch + global_tid * 256ull;
}
}  // namespace layout

/// The offloaded register context of one thread.
using RegContext = std::array<u64, isa::kNumAllocatableRegs>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// Distinct registers referenced inside the innermost loop — the
  /// "active context" the ViReC RF is sized against (Figure 2). The
  /// analysis::RegUsageProfiler cross-checks these numbers in tests.
  virtual u32 active_regs() const = 0;

  virtual kasm::Program program(const WorkloadParams& params) const = 0;

  /// Write the input data sets, sized for @p total_threads threads.
  virtual void init_memory(mem::SparseMemory& memory,
                           const WorkloadParams& params,
                           u32 total_threads) const = 0;

  /// Initial registers for @p global_tid of @p total_threads.
  virtual RegContext thread_regs(const WorkloadParams& params, u32 global_tid,
                                 u32 total_threads) const = 0;

  /// Verify outputs after simulation; fills @p why on mismatch.
  virtual bool check(const mem::SparseMemory& memory,
                     const WorkloadParams& params, u32 total_threads,
                     std::string* why) const = 0;
};

/// All registered workloads (stable order).
const std::vector<const Workload*>& workload_registry();

/// The subset used for the paper's multi-workload figures.
std::vector<const Workload*> figure_workloads();

/// Lookup by name; throws std::out_of_range.
const Workload& find_workload(const std::string& name);

}  // namespace virec::workloads
