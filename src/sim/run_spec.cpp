#include "sim/run_spec.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/parse_number.hpp"

namespace virec::sim {

namespace {

/// One knob value from its command-line text.
template <typename T>
T parse_knob(const char* flag, const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_same_v<T, Scheme>) {
    return parse_scheme(text);
  } else if constexpr (std::is_same_v<T, core::PolicyKind>) {
    return core::parse_policy(text);
  } else if constexpr (std::is_same_v<T, u32>) {
    return parse_u32(flag, text);
  } else if constexpr (std::is_same_v<T, u64>) {
    return parse_u64(flag, text);
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_double(flag, text);
  } else {
    static_assert(sizeof(T) == 0, "knob type without a parser");
  }
}

std::vector<std::string> split_list(const std::string& flag,
                                    const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    out.push_back(text.substr(start, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - start));
    if (out.back().empty()) {
      throw std::invalid_argument(flag + ": empty list item in '" + text +
                                  "'");
    }
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

}  // namespace

void validate(const RunSpec& spec) {
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument(why);
  };
  if (spec.num_cores == 0) reject("--cores: need at least one core");
  if (spec.threads_per_core == 0) reject("--threads: need at least one thread");
  // Written so that NaN fails too.
  if (!(spec.context_fraction > 0.0 && spec.context_fraction <= 1.0)) {
    std::ostringstream os;
    os << "--ctx: context fraction " << spec.context_fraction
       << " is not in (0, 1]";
    reject(os.str());
  }
  const bool sampled = spec.sample_windows > 0;
  const RunSpec defaults;
  for_each_knob([&](const Knob& knob, auto field) {
    if ((knob.roles & kSampling) != 0 && !sampled &&
        field(spec) != field(defaults)) {
      reject(std::string(knob.flag) +
             " tunes sampled measurement and needs --sample-windows");
    }
  });
  if (sampled && spec.window_insts == 0) {
    reject("--window-insts: must be > 0 (zero-size measurement windows "
           "estimate nothing)");
  }
  if (sampled && spec.num_cores != 1) {
    reject("--sample-windows requires --cores 1 (tiered simulation is "
           "single-core)");
  }
}

SpecFlags::SpecFlags(RunSpec base) : base_(std::move(base)) {}

bool SpecFlags::parse(const std::string& arg,
                      const std::function<std::string()>& value) {
  bool taken = false;
  for_each_knob([&](const Knob& knob, auto field) {
    if (taken || *knob.flag == '\0' || arg != knob.flag) return;
    taken = true;
    using T = std::remove_reference_t<decltype(field(base_))>;
    if constexpr (std::is_same_v<T, bool>) {
      field(base_) = true;
    } else if (knob.axis == kNoAxis) {
      field(base_) = parse_knob<T>(knob.flag, value());
    } else {
      AxisValues& axis = axes_[static_cast<std::size_t>(knob.axis)];
      axis = AxisValues{knob.flag, value(), {}};
      for (const std::string& item : split_list(knob.flag, axis.text)) {
        axis.values.push_back(
            [field, v = parse_knob<T>(knob.flag, item)](RunSpec& spec) {
              field(spec) = v;
            });
      }
    }
  });
  return taken;
}

RunSpec SpecFlags::single() const {
  RunSpec spec = base_;
  for (const AxisValues& axis : axes_) {
    if (axis.values.size() > 1) {
      throw std::invalid_argument(std::string(axis.flag) + ": list '" +
                                  axis.text + "' is only valid with --sweep");
    }
    if (!axis.values.empty()) axis.values.front()(spec);
  }
  return spec;
}

void SpecFlags::print_help(std::ostream& os) {
  for_each_knob([&](const Knob& knob, auto) {
    if (*knob.flag == '\0') return;
    std::string head = knob.flag;
    if (*knob.metavar != '\0') head += std::string(" ") + knob.metavar;
    if (knob.axis != kNoAxis) head += "[,...]";
    print_help_entry(os, head, knob.help);
  });
}

void SpecFlags::print_help_entry(std::ostream& os, const std::string& head,
                                 const char* help) {
  const std::string indent(22, ' ');
  os << "  " << head;
  if (head.size() + 2 < indent.size()) {
    os << std::string(indent.size() - head.size() - 2, ' ');
  } else {
    os << '\n' << indent;
  }
  for (const char* c = help; *c != '\0'; ++c) {
    os << *c;
    if (*c == '\n') os << indent;
  }
  os << '\n';
}

}  // namespace virec::sim
