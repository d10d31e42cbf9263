#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace virec {

void Histogram::record_always(double value) {
  if (value < 0.0) value = 0.0;
  const u32 bucket = bucket_of(value);
  if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Distribution::record_always(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
}

double Distribution::stddev() const {
  if (count_ == 0) return 0.0;
  const double n = static_cast<double>(count_);
  const double m = sum_ / n;
  const double var = std::max(0.0, sum_sq_ / n - m * m);
  return std::sqrt(var);
}

void Histogram::state(ckpt::Archive& ar) {
  ar(count_, sum_, min_, max_);
  // Rendering shifts by the bucket index, so no more than kMaxBuckets.
  ar.seq(buckets_, kMaxBuckets, "histogram buckets",
         [&ar](u64& b) { ar(b); });
}

void Distribution::state(ckpt::Archive& ar) {
  ar(count_, sum_, sum_sq_, min_, max_);
}

StatSet::StatSet(std::string prefix) : prefix_(std::move(prefix)) {}

std::size_t StatSet::index_of(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const std::size_t idx = stats_.size();
  stats_.push_back(Stat{name, 0.0, ""});
  index_.emplace(name, idx);
  return idx;
}

double* StatSet::counter(const std::string& name, const std::string& desc) {
  Stat& stat = stats_[index_of(name)];
  if (!desc.empty()) stat.desc = desc;
  return &stat.value;
}

void StatSet::set(const std::string& name, double value) {
  stats_[index_of(name)].value = value;
}

double StatSet::get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : stats_[it->second].value;
}

bool StatSet::has(const std::string& name) const {
  return index_.count(name) != 0;
}

void StatSet::describe(const std::string& name, const std::string& desc) {
  stats_[index_of(name)].desc = desc;
}

std::vector<Stat> StatSet::all() const {
  std::vector<Stat> out;
  out.reserve(stats_.size());
  for (const Stat& s : stats_) {
    out.push_back(Stat{prefix_.empty() ? s.name : prefix_ + "." + s.name,
                       s.value, s.desc});
  }
  return out;
}

Histogram* StatSet::histogram(const std::string& name,
                              const std::string& desc) {
  for (auto& h : histograms_) {
    if (h->name() == name) return h.get();
  }
  histograms_.push_back(std::make_unique<Histogram>(name, desc));
  histograms_.back()->set_enabled(detailed_);
  return histograms_.back().get();
}

Distribution* StatSet::distribution(const std::string& name,
                                    const std::string& desc) {
  for (auto& d : distributions_) {
    if (d->name() == name) return d.get();
  }
  distributions_.push_back(std::make_unique<Distribution>(name, desc));
  distributions_.back()->set_enabled(detailed_);
  return distributions_.back().get();
}

void StatSet::set_detailed(bool on) {
  detailed_ = on;
  for (auto& h : histograms_) h->set_enabled(on);
  for (auto& d : distributions_) d->set_enabled(on);
}

namespace {

/// Move one list of named entries: a u32 count, then each entry's name
/// and @p fields. Loading requires the live entries, in saved order;
/// a refusal names the entry as @p kind, @p prefix and its name.
template <typename List, typename NameFn, typename FieldsFn>
void named_entries(ckpt::Archive& ar, List& list, const std::string& kind,
                   const std::string& prefix, NameFn name_of,
                   FieldsFn fields) {
  const auto label = [&](const std::string& name) {
    return kind + " " + (prefix.empty() ? name : prefix + "." + name) +
           " at position ";
  };
  u32 n = static_cast<u32>(list.size());
  ar(n);
  for (u32 i = 0; i < n; ++i) {
    std::string name = ar.loading() ? "" : name_of(list[i]);
    ar(name);
    if (ar.loading() && (i >= list.size() || name != name_of(list[i]))) {
      ar.fail(label(name) + std::to_string(i) +
              (i < list.size() ? " is not this system's " + name_of(list[i])
                               : " is not in this system"));
    }
    fields(list[i]);
  }
  if (ar.loading() && n < list.size()) {
    ar.fail(label(name_of(list[n])) + std::to_string(n) +
            " is not in the snapshot");
  }
}

}  // namespace

void StatSet::state(ckpt::Archive& ar) {
  // Every stat exists from construction, so a snapshot holds exactly
  // the live entries, in order.
  named_entries(
      ar, stats_, "stat", prefix_, [](const Stat& s) { return s.name; },
      [&ar](Stat& s) { ar(s.value); });
  named_entries(
      ar, histograms_, "histogram", prefix_,
      [](const std::unique_ptr<Histogram>& h) { return h->name(); },
      [&ar](std::unique_ptr<Histogram>& h) { h->state(ar); });
  named_entries(
      ar, distributions_, "distribution", prefix_,
      [](const std::unique_ptr<Distribution>& d) { return d->name(); },
      [&ar](std::unique_ptr<Distribution>& d) { d->state(ar); });
}

void StatRegistry::add(std::string path, StatSet& set) {
  entries_.push_back(Entry{std::move(path), &set});
}

std::string StatRegistry::full_name(const Entry& entry,
                                    const std::string& name) {
  return entry.path.empty() ? name : entry.path + "." + name;
}

std::vector<Stat> StatRegistry::all_scalars() const {
  std::vector<Stat> out;
  for (const Entry& entry : entries_) {
    for (const Stat& s : entry.set->all()) {
      out.push_back(Stat{full_name(entry, s.name), s.value, s.desc});
    }
  }
  return out;
}

void StatRegistry::set_detailed(bool on) {
  for (Entry& entry : entries_) entry.set->set_detailed(on);
}

u64 StatRegistry::populated_histograms() const {
  u64 n = 0;
  for (const Entry& entry : entries_) {
    for (const auto& h : entry.set->histograms()) {
      if (h->count() > 0) ++n;
    }
  }
  return n;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += std::log(v);
  return std::exp(acc / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

}  // namespace virec
