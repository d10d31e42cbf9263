// Tests of the observability layer: histogram bucket math, typed-stat
// bookkeeping, the StatRegistry walk, the stat schema (descriptions and
// liveness over a fixed corpus), the JSON report (golden-parsed with
// tests/json_parse.hpp), the sampled time series, and the Perfetto
// trace sink's output framing.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "cpu/perfetto_trace.hpp"
#include "sim/observability.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "tiered/tiered_runner.hpp"
#include "json_parse.hpp"

namespace {

using namespace virec;

// --------------------------------------------------------------------
// Histogram bucket math

TEST(Histogram, BucketRoundTrip) {
  // Every representative value must land in a bucket whose bounds
  // contain it: bucket_low(i) <= v < bucket_high(i).
  for (const double v : {0.0, 0.25, 0.999, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0,
                         8.0, 100.0, 1023.0, 1024.0, 1e6, 1e12}) {
    const u32 b = Histogram::bucket_of(v);
    EXPECT_LE(Histogram::bucket_low(b), v) << "v=" << v << " b=" << b;
    EXPECT_LT(v, Histogram::bucket_high(b)) << "v=" << v << " b=" << b;
  }
}

TEST(Histogram, BucketBoundariesAreExclusiveAbove) {
  // 2^k is the first value of bucket k+1, not the last of bucket k.
  for (u32 k = 0; k < 40; ++k) {
    const double v = static_cast<double>(u64{1} << k);
    EXPECT_EQ(Histogram::bucket_of(v), k + 1) << "v=2^" << k;
  }
}

TEST(Histogram, DisabledRecordIsNoOp) {
  Histogram h("h", "");
  h.record(5.0);
  EXPECT_EQ(h.count(), 0u);
  h.set_enabled(true);
  h.record(5.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, Moments) {
  Histogram h("h", "");
  h.set_enabled(true);
  for (const double v : {1.0, 3.0, 5.0, 7.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  // 1 -> bucket 1; 3 -> bucket 2; 5, 7 -> bucket 3.
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 2u);
  u64 total = 0;
  for (const u64 c : h.buckets()) total += c;
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, NegativeClampsToBucketZero) {
  Histogram h("h", "");
  h.set_enabled(true);
  h.record(-3.0);
  ASSERT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(Distribution, Stddev) {
  Distribution d("d", "");
  d.set_enabled(true);
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) d.record(v);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_NEAR(d.stddev(), 2.0, 1e-12);  // classic textbook data set
  EXPECT_DOUBLE_EQ(d.min(), 2.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

// --------------------------------------------------------------------
// StatSet / StatRegistry

TEST(StatSet, DetailedTogglesTypedStats) {
  StatSet set("comp");
  Histogram* h = set.histogram("lat", "a latency");
  EXPECT_FALSE(h->enabled());
  set.set_detailed(true);
  EXPECT_TRUE(h->enabled());
  // Typed stats created after the toggle inherit it.
  EXPECT_TRUE(set.distribution("late", "")->enabled());
  // The pointer is stable and deduplicated by name.
  EXPECT_EQ(set.histogram("lat"), h);
}

TEST(StatRegistry, FullNamesAndScalars) {
  StatSet core_set("virec");
  *core_set.counter("rf_hits") += 3;
  StatSet dram_set("dram");
  *dram_set.counter("reads") += 7;

  StatRegistry reg;
  reg.add("core0", core_set);
  reg.add("", dram_set);

  const std::vector<Stat> all = reg.all_scalars();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "core0.virec.rf_hits");
  EXPECT_DOUBLE_EQ(all[0].value, 3.0);
  EXPECT_EQ(all[1].name, "dram.reads");
  EXPECT_DOUBLE_EQ(all[1].value, 7.0);
}

TEST(StatRegistry, PopulatedHistogramsAndDetailed) {
  StatSet set("c");
  Histogram* h = set.histogram("x");
  StatRegistry reg;
  reg.add("", set);
  reg.set_detailed(true);
  EXPECT_EQ(reg.populated_histograms(), 0u);
  h->record(1.0);
  EXPECT_EQ(reg.populated_histograms(), 1u);
}

// --------------------------------------------------------------------
// Stat schema: every registered stat carries a description, and every
// family of registered scalars moves in at least one run of a fixed
// corpus, or is allowed to stay 0 for a stated reason. A stat nothing
// moves is either a missing wire or dead code.

/// A scalar's family: its full name with the core and thread numbers
/// replaced by N ("coreN.core.cpi_tN_commit"). Sampled runs are
/// single-core, so core 1 never moves a warm-tier stat of its own.
std::string stat_family(const std::string& name) {
  static const std::regex numbered(R"(\b(core|cpi_t)\d+)");
  return std::regex_replace(name, numbered, "$1N");
}

/// Scalar families the corpus leaves at 0: a regex over the family
/// name, and why the stats may stay registered.
struct AllowedZero {
  const char* pattern;
  const char* reason;
};

const AllowedZero kAllowedZero[] = {
    {R"(coreN\.core\.cpi_(tN_)?)"
     R"((mem_data|mem_reg|mem_mshr|mispredict_redirect))",
     "not wired on the CGMT core yet: memory waits are booked as "
     "switching, and a redirect leaves no quiet cycle (ROADMAP item 2)"},
    {R"(coreN\.core\.cpi_idle)",
     "a CGMT core always has a live thread to schedule; the RunResult "
     "stack, the sweep CSV and perfbench keep the column"},
    {R"(coreN\.core\.cpi_tN_(idle|fast_forward))",
     "idle and fast-forward cycles are charged to no thread"},
    {R"(coreN\.icache\.(writes|writebacks|bypasses|reg_region_misses|)"
     R"(coalesced_misses|port_wait_cycles|mshr_stall_cycles|warm_misses))",
     "fetch only reads code, and each kernel's few code lines miss once "
     "and then stay resident"},
    {R"(coreN\.(icache|dcache)\.prefetches)",
     "no System configuration turns on the L1 stride prefetcher"},
    {R"(coreN\.dcache\.mshr_stall_cycles)",
     "the corpus's 24 dcache MSHRs are never all busy; "
     "Skip.MshrStarvedDcacheMatchesStepped reaches the path with 1 and 2"},
    {R"(coreN\.prefetch_full\.demand_fills)",
     "full prefetch loads every register at the switch, so decode never "
     "fetches one on demand"},
};

/// What the corpus registered: each scalar family with whether any run
/// moved one of its stats, and each stat that lacks a description with
/// the first run that registered it.
struct CorpusSchema {
  std::map<std::string, bool> moved;
  std::map<std::string, std::string> undescribed;

  void add(const std::string& run, const sim::System& system) {
    for (const Stat& s : system.registry().all_scalars()) {
      bool& family = moved[stat_family(s.name)];
      family = family || s.value != 0.0;
      if (s.desc.empty()) undescribed.emplace(s.name, run);
    }
    for (const StatRegistry::Entry& e : system.registry().entries()) {
      const auto full = [&e](const std::string& name) {
        return StatRegistry::full_name(
            e, e.set->prefix().empty() ? name : e.set->prefix() + "." + name);
      };
      for (const auto& h : e.set->histograms()) {
        if (h->desc().empty()) undescribed.emplace(full(h->name()), run);
      }
      for (const auto& d : e.set->distributions()) {
        if (d->desc().empty()) undescribed.emplace(full(d->name()), run);
      }
    }
  }
};

/// The corpus, run once: every workload x scheme x {lrc, plru} at
/// 2 cores x 8 threads, ctx 0.6, 64 iterations and 4096 elements; one
/// ViReC run with both extensions; one sampled run.
const CorpusSchema& corpus_schema() {
  static const CorpusSchema schema = [] {
    CorpusSchema out;
    sim::RunSpec base;
    base.num_cores = 2;
    base.threads_per_core = 8;
    base.context_fraction = 0.6;
    base.params.iters_per_thread = 64;
    base.params.elements = 4096;
    const auto run = [&out](const sim::RunSpec& spec) {
      sim::System system(sim::build_config(spec),
                         workloads::find_workload(spec.workload),
                         spec.params);
      const sim::RunResult r = spec.sample_windows > 0
                                   ? sim::TieredRunner(system, spec).run().full
                                   : system.run();
      EXPECT_TRUE(r.check_ok) << sim::spec_label(spec) << ": " << r.check_msg;
      out.add(sim::spec_label(spec), system);
    };
    for (const workloads::Workload* w : workloads::workload_registry()) {
      for (const sim::Scheme scheme :
           {sim::Scheme::kBanked, sim::Scheme::kSoftware,
            sim::Scheme::kPrefetchFull, sim::Scheme::kPrefetchExact,
            sim::Scheme::kViReC, sim::Scheme::kNSF}) {
        for (const core::PolicyKind policy :
             {core::PolicyKind::kLRC, core::PolicyKind::kPLRU}) {
          sim::RunSpec spec = base;
          spec.workload = w->name();
          spec.scheme = scheme;
          spec.policy = policy;
          run(spec);
        }
      }
    }
    sim::RunSpec extensions = base;
    extensions.workload = "gather";
    extensions.group_spill = true;
    extensions.switch_prefetch = true;
    run(extensions);
    sim::RunSpec sampled;
    sampled.workload = "gather";
    sampled.params.iters_per_thread = 2048;
    sampled.params.elements = 4096;
    sampled.sample_windows = 5;
    sampled.window_insts = 300;
    sampled.warmup_insts = 150;
    run(sampled);
    return out;
  }();
  return schema;
}

TEST(StatSchema, EveryStatHasADescription) {
  for (const auto& [stat, run] : corpus_schema().undescribed) {
    ADD_FAILURE() << stat << " has no description (first in " << run << ")";
  }
}

TEST(StatSchema, EveryScalarMovesOrIsAllowedToStayZero) {
  const CorpusSchema& schema = corpus_schema();
  std::vector<std::regex> patterns;
  for (const AllowedZero& a : kAllowedZero) patterns.emplace_back(a.pattern);
  std::vector<u32> matched(std::size(kAllowedZero), 0);
  for (const auto& [name, moved] : schema.moved) {
    const AllowedZero* allowed = nullptr;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (std::regex_match(name, patterns[i])) {
        allowed = &kAllowedZero[i];
        ++matched[i];
        break;
      }
    }
    if (allowed == nullptr) {
      EXPECT_TRUE(moved) << name << " is 0 in every corpus run: wire it, "
                         << "delete it, or allow it with a reason";
    } else {
      EXPECT_FALSE(moved) << name << " moves now, so its allow-list entry ("
                          << allowed->reason << ") must not cover it";
    }
  }
  for (std::size_t i = 0; i < std::size(kAllowedZero); ++i) {
    EXPECT_GT(matched[i], 0u) << "allow-list entry " << kAllowedZero[i].pattern
                              << " matches no registered stat";
  }
}

// --------------------------------------------------------------------
// JsonWriter <-> checker round trip

TEST(JsonWriter, EscapesAndNesting) {
  std::ostringstream ss;
  {
    JsonWriter w(ss);
    w.begin_object();
    w.kv("quote\"back\\slash", std::string("line\nbreak\ttab"));
    w.key("arr");
    w.begin_array();
    w.value(u64{18446744073709551615ull});
    w.value(-1.5);
    w.value(true);
    w.null();
    w.end_array();
    w.end_object();
  }
  const JsonValue v = json_parse(ss.str());
  EXPECT_EQ(v.at("quote\"back\\slash").string, "line\nbreak\ttab");
  ASSERT_EQ(v.at("arr").array.size(), 4u);
  EXPECT_DOUBLE_EQ(v.at("arr").array[0].number, 18446744073709551615.0);
  EXPECT_DOUBLE_EQ(v.at("arr").array[1].number, -1.5);
  EXPECT_TRUE(v.at("arr").array[2].boolean);
}

// --------------------------------------------------------------------
// Full JSON report of a real run

struct ReportFixture {
  sim::RunSpec spec;
  sim::RunResult result;
  std::unique_ptr<sim::System> system;

  explicit ReportFixture(Cycle sample_interval = 0) {
    spec.workload = "gather";
    spec.params.iters_per_thread = 64;
    spec.params.elements = 4096;
    const workloads::Workload& workload =
        workloads::find_workload(spec.workload);
    system = std::make_unique<sim::System>(sim::build_config(spec), workload,
                                           spec.params);
    system->set_detailed_stats(true);
    if (sample_interval > 0) system->set_sample_interval(sample_interval);
    result = system->run();
  }

  JsonValue report(Cycle sample_interval = 0) const {
    std::ostringstream ss;
    sim::write_json_report(ss, *system, spec, result, sample_interval);
    return json_parse(ss.str());
  }
};

TEST(JsonReport, GoldenParse) {
  const ReportFixture fx;
  const JsonValue v = fx.report();

  EXPECT_DOUBLE_EQ(v.at("schema_version").number, 3.0);
  // v3: every report says which build produced it.
  EXPECT_FALSE(v.at("provenance").at("git").string.empty());
  EXPECT_FALSE(v.at("provenance").at("compiler").string.empty());
  EXPECT_FALSE(v.at("provenance").at("build").string.empty());
  EXPECT_EQ(v.at("config").at("workload").string, "gather");
  EXPECT_EQ(v.at("config").at("scheme").string, "virec");
  EXPECT_DOUBLE_EQ(v.at("config").at("threads_per_core").number, 8.0);
  EXPECT_DOUBLE_EQ(v.at("results").at("cycles").number,
                   static_cast<double>(fx.result.cycles));
  EXPECT_DOUBLE_EQ(v.at("results").at("ipc").number, fx.result.ipc);
  EXPECT_TRUE(v.at("results").at("check_ok").boolean);
  EXPECT_EQ(v.find("time_series"), nullptr);  // not sampled

  // The stats array carries scalars and at least 3 populated
  // histograms, each with coherent buckets.
  int populated_hists = 0;
  bool saw_scalar = false;
  for (const JsonValue& s : v.at("stats").array) {
    ASSERT_NE(s.find("name"), nullptr);
    ASSERT_NE(s.find("kind"), nullptr);
    if (s.at("kind").string == "scalar") saw_scalar = true;
    if (s.at("kind").string == "histogram" && s.at("count").number > 0) {
      ++populated_hists;
      u64 total = 0;
      for (const JsonValue& b : s.at("buckets").array) {
        EXPECT_LT(b.at("lo").number, b.at("hi").number);
        total += static_cast<u64>(b.at("count").number);
      }
      EXPECT_EQ(total, static_cast<u64>(s.at("count").number))
          << s.at("name").string;
    }
  }
  EXPECT_TRUE(saw_scalar);
  EXPECT_GE(populated_hists, 3) << "want >=3 populated histograms";
}

TEST(JsonReport, TimeSeriesMatchesScalarResult) {
  const Cycle interval = 256;
  const ReportFixture fx(interval);
  const JsonValue v = fx.report(interval);

  const JsonValue& ts = v.at("time_series");
  EXPECT_DOUBLE_EQ(ts.at("interval").number, static_cast<double>(interval));
  const auto& samples = ts.at("samples").array;
  ASSERT_GE(samples.size(), 2u);
  // Cycle stamps are strictly increasing; cumulative instruction
  // counts are monotone.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].at("cycle").number, samples[i - 1].at("cycle").number);
    EXPECT_GE(samples[i].at("instructions").number,
              samples[i - 1].at("instructions").number);
  }
  // The final cumulative IPC must agree with the scalar result (the
  // acceptance bound is 1%; the implementation makes it exact).
  const double final_ipc = samples.back().at("ipc").number;
  EXPECT_NEAR(final_ipc, fx.result.ipc, 0.01 * fx.result.ipc);
}

TEST(JsonReport, SampledRunMatchesUnsampledRun) {
  const ReportFixture plain;
  const ReportFixture sampled(128);
  // Sampling is pure observation: identical cycles and instructions.
  EXPECT_EQ(plain.result.cycles, sampled.result.cycles);
  EXPECT_EQ(plain.result.instructions, sampled.result.instructions);
}

// --------------------------------------------------------------------
// Perfetto trace sink

TEST(PerfettoTrace, WellFormedEventArray) {
  std::ostringstream ss;
  {
    cpu::PerfettoTraceWriter writer(ss);
    cpu::PerfettoTracer tracer(writer, 0, 2);
    isa::Inst inst;
    tracer.on_fetch(10, 0, 0, inst);
    tracer.on_commit(11, 0, 0, inst);
    tracer.on_data_miss(12, 0, 0, 0x1000, 40);
    tracer.on_reg_fill(12, 0, 3);
    tracer.on_context_switch(13, 0, 1, 0);
    tracer.on_commit(14, 1, 0, inst);
    tracer.on_rollback(15, 1, 2);
    tracer.on_halt(20, 1);
    tracer.flush_open_spans(25);
    writer.finish();
  }
  const JsonValue v = json_parse(ss.str());
  ASSERT_TRUE(v.is_array());
  int residency = 0, miss = 0, instants = 0;
  for (const JsonValue& e : v.array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    const std::string ph = e.at("ph").string;
    if (ph == "X") {
      EXPECT_GE(e.at("dur").number, 0.0);
      if (e.at("cat").string == "residency") ++residency;
      if (e.at("name").string == "dmiss") ++miss;
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").string, "t");
    } else {
      EXPECT_EQ(ph, "M");
    }
  }
  // t0's span closed by the switch, t1's by the halt => 2 residency
  // spans; one miss-stall span; fill + rollback + halt instants.
  EXPECT_EQ(residency, 2);
  EXPECT_EQ(miss, 1);
  EXPECT_GE(instants, 3);
}

TEST(PerfettoTrace, EndToEndGatherRun) {
  ReportFixture fx_builder;  // reuse the spec shape, build a new system
  sim::RunSpec spec = fx_builder.spec;
  const workloads::Workload& workload =
      workloads::find_workload(spec.workload);
  sim::System system(sim::build_config(spec), workload, spec.params);

  std::ostringstream ss;
  cpu::PerfettoTraceWriter writer(ss);
  cpu::PerfettoTracer tracer(writer, 0, spec.threads_per_core);
  system.set_tracer(0, &tracer);
  const sim::RunResult result = system.run();
  ASSERT_TRUE(result.check_ok);
  tracer.flush_open_spans(system.core(0).cycle());
  writer.finish();

  const JsonValue v = json_parse(ss.str());
  ASSERT_TRUE(v.is_array());
  EXPECT_GT(writer.events_written(), 0u);
  // Context-residency spans exist for several distinct threads.
  std::set<double> resident_tids;
  for (const JsonValue& e : v.array) {
    if (e.at("ph").string == "X" && e.at("cat").string == "residency") {
      resident_tids.insert(e.at("tid").number);
    }
  }
  EXPECT_GE(resident_tids.size(), 2u);
}

// --------------------------------------------------------------------
// Sweep JSON export

TEST(SweepJson, ParsesAndMatchesRecords) {
  sim::Sweep sweep;
  sweep.base().workload = "gather";
  sweep.base().params.iters_per_thread = 16;
  sweep.base().params.elements = 1024;
  sweep.over_threads({2, 4});
  const sim::SweepResults results = sweep.run();

  std::ostringstream ss;
  results.write_json(ss);
  const JsonValue v = json_parse(ss.str());
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array.size(), results.size());
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    const JsonValue& rec = v.array[i];
    EXPECT_DOUBLE_EQ(
        rec.at("result").at("cycles").number,
        static_cast<double>(results.records()[i].result.cycles));
    EXPECT_TRUE(rec.at("result").at("check_ok").boolean);
  }
}

}  // namespace
