// Micro-benchmarks (google-benchmark) of the simulator's hot paths:
// cache accesses, replacement-policy victim selection, the ViReC decode
// path and whole-system simulation throughput.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include "core/virec_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "svc/result_store.hpp"
#include "tiered/func_stream.hpp"

namespace virec {
namespace {

void BM_CacheHit(benchmark::State& state) {
  mem::MemSystemConfig mc;
  mem::MemorySystem ms(mc);
  mem::Cache& dcache = ms.dcache(0);
  Cycle now = dcache.access(0x1000, false, 0).done;
  for (auto _ : state) {
    now = dcache.access(0x1000, false, now).done;
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissStream(benchmark::State& state) {
  mem::MemSystemConfig mc;
  mem::MemorySystem ms(mc);
  mem::Cache& dcache = ms.dcache(0);
  Cycle now = 0;
  Addr addr = 0;
  for (auto _ : state) {
    now = dcache.access(addr, false, now).done;
    addr += 4224;
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_CacheMissStream);

void BM_PolicyVictim(benchmark::State& state) {
  core::ReplacementPolicy policy(core::PolicyKind::kLRC);
  std::vector<core::RfEntry> entries(static_cast<std::size_t>(state.range(0)));
  for (u32 i = 0; i < entries.size(); ++i) {
    policy.on_insert(entries, i, static_cast<u8>(i % 8),
                     static_cast<isa::RegId>(i % 31));
  }
  std::vector<u8> locked(entries.size(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.pick_victim(entries, locked));
  }
}
BENCHMARK(BM_PolicyVictim)->Arg(32)->Arg(64)->Arg(128);

void BM_ViReCDecode(benchmark::State& state) {
  mem::MemSystemConfig mc;
  mem::MemorySystem ms(mc);
  cpu::CoreEnv env{.core_id = 0, .num_threads = 8, .ms = &ms};
  core::ViReCConfig vc;
  vc.num_phys_regs = 48;
  core::ViReCManager manager(vc, env);
  isa::Inst inst;
  inst.op = isa::Op::kAdd;
  inst.rd = 3;
  inst.rn = 1;
  inst.rm = 2;
  Cycle now = 0;
  int tid = 0;
  for (auto _ : state) {
    const cpu::DecodeAccess acc = manager.on_decode(tid, inst, now);
    manager.on_commit(tid, inst);
    now = acc.ready + 1;
    tid = (tid + 1) % 8;
    benchmark::DoNotOptimize(acc.ready);
  }
}
BENCHMARK(BM_ViReCDecode);

void BM_GatherSimulation(benchmark::State& state) {
  // Whole-system simulation throughput (simulated instructions/sec).
  sim::RunSpec spec;
  spec.workload = "gather";
  spec.scheme = sim::Scheme::kViReC;
  spec.threads_per_core = 8;
  spec.context_fraction = 0.8;
  spec.params.iters_per_thread = 256;
  u64 instructions = 0;
  for (auto _ : state) {
    const sim::RunResult result = sim::run_spec(spec);
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GatherSimulation)->Unit(benchmark::kMillisecond);

void BM_PointerChase(benchmark::State& state) {
  // Event-skip showcase: a single-thread pointer chase over a 1 MiB
  // arena misses the (8 KiB) dcache on every load, so the overwhelming
  // majority of simulated cycles are quiet memory stalls the
  // event-driven run loop fast-forwards. Arg(1) sets --no-skip (the
  // cycle-stepped loop); the two rows bound the skip-layer speedup.
  // Results are bit-identical either way (see tests/test_skip.cpp).
  // The arena deliberately fits the host LLC: the point is simulator
  // loop overhead, not host DRAM behaviour.
  sim::RunSpec spec;
  spec.workload = "pchase";
  spec.scheme = sim::Scheme::kBanked;
  spec.threads_per_core = 1;
  spec.params.iters_per_thread = 500000;
  spec.params.elements = 1 << 17;
  spec.no_skip = state.range(0) != 0;
  u64 instructions = 0;
  for (auto _ : state) {
    const sim::RunResult result = sim::run_spec(spec);
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PointerChase)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SampledPointerChase(benchmark::State& state) {
  // Tiered-simulation showcase on the same long pointer chase as
  // BM_PointerChase: Arg is the number of SMARTS measurement windows
  // (0 = full detailed run, the baseline row). The sampled rows skip
  // most detailed cycles through the functional tier, so the
  // sim_instr/s ratio against Arg(0) is the achieved tiered speedup
  // (docs/performance.md records the matching IPC error).
  sim::RunSpec spec;
  spec.workload = "pchase";
  spec.scheme = sim::Scheme::kBanked;
  spec.threads_per_core = 1;
  spec.params.iters_per_thread = 500000;
  spec.params.elements = 1 << 17;
  spec.sample_windows = static_cast<u32>(state.range(0));
  spec.window_insts = 10'000;
  spec.warmup_insts = 2'000;
  u64 instructions = 0;
  for (auto _ : state) {
    const sim::RunResult result = sim::run_spec(spec);
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledPointerChase)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

void BM_FunctionalTier(benchmark::State& state) {
  // Functional-tier throughput: FuncStreamReplayer::advance over the
  // whole recorded gather stream (warm hooks plus register, memory and
  // NZCV deltas; no detailed cycles). This is the tier that carries the
  // functional stretches of every sampled run. The stream is built once
  // and each replay starts from a fresh system, both untimed.
  sim::RunSpec spec;
  spec.workload = "gather";
  spec.scheme = sim::Scheme::kViReC;
  spec.threads_per_core = 8;
  spec.context_fraction = 0.8;
  spec.params.iters_per_thread = 2048;
  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  const sim::SystemConfig config = sim::build_config(spec);
  auto system = std::make_unique<sim::System>(config, workload, spec.params);
  const auto stream = sim::build_func_stream(*system);
  u64 instructions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    system = std::make_unique<sim::System>(config, workload, spec.params);
    sim::FuncStreamReplayer replayer(stream, system->program(),
                                     system->total_threads());
    cpu::CgmtCore& core = system->core(0);
    core.cut_to_functional();
    state.ResumeTiming();
    const Cycle end = replayer.advance(
        stream->n_total, core, system->manager(0), system->memory_system(),
        /*check=*/nullptr, core.cycle(), /*cpi_scale=*/1);
    instructions += replayer.pos();
    benchmark::DoNotOptimize(end);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalTier)->Unit(benchmark::kMillisecond);

void BM_FunctionalReuse(benchmark::State& state) {
  // Stream-reuse payoff: the same sampled gather point with the
  // process-wide stream cache cleared before every run (Arg 0 — each
  // run pays the golden functional prepass) or kept warm (Arg 1 —
  // every run replays the recorded stream). The rows' ratio is the
  // per-point saving every sweep point after the first enjoys in a
  // policy/scheme grid sharing one functional identity.
  sim::RunSpec spec;
  spec.workload = "gather";
  spec.scheme = sim::Scheme::kViReC;
  spec.threads_per_core = 8;
  spec.context_fraction = 0.8;
  spec.params.iters_per_thread = 25'600;
  spec.params.elements = 1 << 16;
  spec.sample_windows = 10;
  spec.window_insts = 10'000;
  spec.warmup_insts = 2'000;
  const bool warm = state.range(0) != 0;
  sim::StreamCache::instance().reset_for_test();
  if (warm) sim::run_spec(spec);  // builds the shared stream, untimed
  u64 instructions = 0;
  for (auto _ : state) {
    if (!warm) sim::StreamCache::instance().reset_for_test();
    const sim::RunResult result = sim::run_spec(spec);
    instructions += result.instructions;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalReuse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SweepThroughput(benchmark::State& state) {
  // Whole-sweep throughput (experiment points/sec) through the
  // parallel executor. Arg = worker threads; 0 = hardware concurrency.
  // Compare the jobs=1 row against a multi-job row to read the
  // end-to-end sweep scaling on this machine.
  sim::Sweep sweep;
  sweep.base().workload = "gather";
  sweep.base().context_fraction = 0.8;
  sweep.base().params.iters_per_thread = 64;
  sweep.base().params.elements = 1 << 14;
  sweep.over_schemes({sim::Scheme::kBanked, sim::Scheme::kViReC})
      .over_threads({4, 8})
      .over_context_fractions({1.0, 0.8, 0.4});
  const u32 jobs = static_cast<u32>(state.range(0));
  u64 points = 0;
  for (auto _ : state) {
    const sim::SweepResults results = sweep.run(jobs);
    points += results.size();
    benchmark::DoNotOptimize(results.records().data());
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(points), benchmark::Counter::kIsRate);
}
// Real time, not CPU time: the workers' cycles are not attributed to
// the main thread, so a CPU-time rate would overstate multi-job runs.
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ResultStoreLookup(benchmark::State& state) {
  // Cost of serving one experiment point from the persistent result
  // store (docs/checkpointing.md): file read + whole-entry CRC + identity
  // verification + payload decode. Compare against BM_GatherSimulation
  // to read the warm-over-cold advantage: a lookup must be orders of
  // magnitude cheaper than the run it replaces for the cache to pay.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "virec_bench_store").string();
  std::filesystem::remove_all(dir);
  svc::ResultStore store(dir);
  sim::RunSpec spec;
  spec.workload = "gather";
  spec.params.iters_per_thread = 64;
  spec.params.elements = 1 << 14;
  const u64 hash = ckpt::spec_hash(spec);
  store.put(hash, spec, sim::run_spec(spec), 0.1);
  sim::RunResult out;
  for (auto _ : state) {
    const bool hit = store.lookup(hash, spec, &out);
    benchmark::DoNotOptimize(hit);
    benchmark::DoNotOptimize(out.cycles);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ResultStoreLookup);

void BM_WarmSweepThroughput(benchmark::State& state) {
  // The same 12-point grid as BM_SweepThroughput, but through
  // Sweep::run over a pre-warmed ResultStore: every point is a store
  // hit, no simulation runs. points/s here vs BM_SweepThroughput's
  // jobs=1 row is the measured warm-over-cold sweep speedup
  // (BENCH_sim_speed.json records the pair per PR).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "virec_bench_warm").string();
  std::filesystem::remove_all(dir);
  svc::ResultStore store(dir);
  sim::Sweep sweep;
  sweep.base().workload = "gather";
  sweep.base().context_fraction = 0.8;
  sweep.base().params.iters_per_thread = 64;
  sweep.base().params.elements = 1 << 14;
  sweep.over_schemes({sim::Scheme::kBanked, sim::Scheme::kViReC})
      .over_threads({4, 8})
      .over_context_fractions({1.0, 0.8, 0.4});
  sweep.run(1, &store);  // warm the store (not timed)
  u64 points = 0;
  for (auto _ : state) {
    const sim::SweepResults results = sweep.run(1, &store);
    points += results.size();
    benchmark::DoNotOptimize(results.records().data());
    if (results.executed() != 0) {
      state.SkipWithError("warm sweep executed points");
    }
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(points), benchmark::Counter::kIsRate);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WarmSweepThroughput)->UseRealTime();

}  // namespace
}  // namespace virec

BENCHMARK_MAIN();
