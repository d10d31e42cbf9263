// Tests of the observability layer: histogram bucket math, typed-stat
// bookkeeping, the StatRegistry walk, the JSON report (golden-parsed
// with tests/json_parse.hpp), the sampled time series, and the
// Perfetto trace sink's output framing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "cpu/perfetto_trace.hpp"
#include "sim/observability.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
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
  core_set.inc("rf_hits", 3);
  StatSet dram_set("dram");
  dram_set.inc("reads", 7);

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
