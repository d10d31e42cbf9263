// Named statistics registry. Each simulated component owns a StatSet;
// counters are cheap (plain u64 increments) and the registry can render
// itself for reports or be queried programmatically by the harnesses.
//
// Beyond scalar counters a StatSet can hold typed statistics:
//
//  * Histogram     — log2-bucketed value distribution (miss latencies,
//                    thread run lengths, queue depths, ...);
//  * Distribution  — running min / max / mean / stddev.
//
// Both are *opt-in*: recording is a no-op (one predicted branch) until
// detailed collection is enabled, so the simulation hot path pays
// nothing when nobody asked for them. Components create their typed
// stats once at construction and keep the returned pointer; recording
// never does a name lookup.
//
// A StatRegistry aggregates the StatSets of every component of a
// system under hierarchical path names ("core0.virec.rf_hits") and is
// what the JSON exporter and the --stats dump walk.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/types.hpp"

namespace virec {

/// A single scalar statistic.
struct Stat {
  std::string name;
  double value = 0.0;
  std::string desc;
};

/// Log2-bucketed histogram. Bucket 0 holds values in [0, 1); bucket
/// i >= 1 holds values in [2^(i-1), 2^i). Negative values clamp to 0.
class Histogram {
 public:
  static constexpr u32 kMaxBuckets = 64;

  Histogram(std::string name, std::string desc)
      : name_(std::move(name)), desc_(std::move(desc)) {}

  /// Bucket index a value falls into.
  static u32 bucket_of(double value) {
    if (!(value >= 1.0)) return 0;
    u64 v = static_cast<u64>(value);
    u32 b = 1;
    while (v > 1 && b < kMaxBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  /// Inclusive lower bound of bucket @p i.
  static double bucket_low(u32 i) {
    return i == 0 ? 0.0 : static_cast<double>(u64{1} << (i - 1));
  }
  /// Exclusive upper bound of bucket @p i.
  static double bucket_high(u32 i) { return static_cast<double>(u64{1} << i); }

  /// Record one sample. No-op until enabled (hot-path guard).
  void record(double value) {
    if (!enabled_) return;
    record_always(value);
  }
  void record_always(double value);

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Per-bucket counts; sized to the highest occupied bucket + 1.
  const std::vector<u64>& buckets() const { return buckets_; }

  const std::string& name() const { return name_; }
  const std::string& desc() const { return desc_; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Snapshot fields: the sample state (not the name/desc/enabled flag,
  /// which are configuration).
  void state(ckpt::Archive& ar);

 private:
  std::string name_;
  std::string desc_;
  bool enabled_ = false;
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<u64> buckets_;
};

/// Running min / max / mean / stddev of a stream of samples.
class Distribution {
 public:
  Distribution(std::string name, std::string desc)
      : name_(std::move(name)), desc_(std::move(desc)) {}

  /// Record one sample. No-op until enabled (hot-path guard).
  void record(double value) {
    if (!enabled_) return;
    record_always(value);
  }
  void record_always(double value);

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Population standard deviation.
  double stddev() const;

  const std::string& name() const { return name_; }
  const std::string& desc() const { return desc_; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Snapshot fields: the sample state (not the name/desc/enabled flag).
  void state(ckpt::Archive& ar);

 private:
  std::string name_;
  std::string desc_;
  bool enabled_ = false;
  u64 count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A flat, ordered collection of named counters plus (optional) typed
/// histogram / distribution statistics.
///
/// Components create every counter at construction; counters retain
/// insertion order so reports are stable. Lookup is by exact name.
class StatSet {
 public:
  explicit StatSet(std::string prefix = "");

  /// Stable pointer to counter @p name's value (created if absent).
  /// Components fetch this once at construction and bump through it on
  /// the simulation hot path, with no by-name lookup per event. The
  /// pointer stays valid for the lifetime of the set: counters are
  /// never removed or moved.
  double* counter(const std::string& name, const std::string& desc = "");

  /// Overwrite counter @p name.
  void set(const std::string& name, double value);

  /// Current value of @p name (0 if never touched).
  double get(const std::string& name) const;

  /// True if the counter exists.
  bool has(const std::string& name) const;

  /// Attach a description to counter @p name (creates it if absent).
  void describe(const std::string& name, const std::string& desc);

  /// All counters in insertion order, names prefixed with the set prefix.
  std::vector<Stat> all() const;

  /// Create (or fetch) the histogram @p name. The returned pointer is
  /// stable for the lifetime of the set; components keep it and call
  /// record() directly.
  Histogram* histogram(const std::string& name, const std::string& desc = "");

  /// Create (or fetch) the distribution @p name (stable pointer).
  Distribution* distribution(const std::string& name,
                             const std::string& desc = "");

  const std::vector<std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }
  const std::vector<std::unique_ptr<Distribution>>& distributions() const {
    return distributions_;
  }

  /// Enable / disable detailed (histogram + distribution) collection.
  /// Applies to existing and future typed stats of this set.
  void set_detailed(bool on);
  bool detailed() const { return detailed_; }

  /// Snapshot fields: every counter value and typed-stat sample state,
  /// each after its name. Loading refuses (CkptError naming the stat) a
  /// saved entry whose name is not the live entry's at its position,
  /// and a count that differs from the live set's.
  void state(ckpt::Archive& ar);

  const std::string& prefix() const { return prefix_; }

 private:
  std::size_t index_of(const std::string& name);

  std::string prefix_;
  bool detailed_ = false;
  std::deque<Stat> stats_;  // deque: counter() pointers stay stable
  std::map<std::string, std::size_t> index_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<std::unique_ptr<Distribution>> distributions_;
};

/// Aggregates the StatSets of a whole system under hierarchical path
/// names. An entry's full stat name is "<path>.<set prefix>.<stat>"
/// ("core0.virec.rf_hits"); entries with an empty path use the set
/// prefix alone ("dram.reads"). Does not own the sets.
class StatRegistry {
 public:
  struct Entry {
    std::string path;  ///< hierarchy prefix; may be empty
    StatSet* set = nullptr;
  };

  /// Register @p set under @p path (insertion order is dump order).
  void add(std::string path, StatSet& set);

  const std::vector<Entry>& entries() const { return entries_; }

  /// Full name of a stat of @p entry ("<path>.<prefixed name>").
  static std::string full_name(const Entry& entry, const std::string& name);

  /// Every scalar of every set, fully qualified, in registration order.
  std::vector<Stat> all_scalars() const;

  /// Enable / disable detailed collection on every registered set.
  void set_detailed(bool on);

  /// Total number of histograms with at least one sample.
  u64 populated_histograms() const;

 private:
  std::vector<Entry> entries_;
};

/// Geometric mean of a vector of positive values; returns 0 for empty.
double geomean(const std::vector<double>& values);

/// Arithmetic mean; returns 0 for empty.
double mean(const std::vector<double>& values);

}  // namespace virec
