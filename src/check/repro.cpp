#include "check/repro.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "isa/disasm.hpp"
#include "kasm/assembler.hpp"

namespace virec::check {

constexpr std::string_view kHeader = "// repro ";

std::vector<std::string> repro_headers(const sim::RunSpec& spec) {
  const sim::RunSpec base = fuzz_spec();
  std::vector<std::string> headers;
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    const auto& value = field(spec);
    if (value == field(base)) return;
    using T = std::decay_t<decltype(value)>;
    bool header = *knob.flag != '\0' && checked_run_reads(knob, spec);
    // A switch can only turn its knob on.
    if constexpr (std::is_same_v<T, bool>) header = header && value;
    if (!header) {
      throw std::invalid_argument(
          std::string("repro_headers: no repro header carries ") + knob.field);
    }
    // The flag without its "--", then the value as the flag takes it.
    std::ostringstream os;
    os << (knob.flag + 2);
    if constexpr (std::is_same_v<T, sim::Scheme>) {
      os << ' ' << sim::scheme_name(value);
    } else if constexpr (std::is_same_v<T, core::PolicyKind>) {
      os << ' ' << core::policy_name(value);
    } else if constexpr (std::is_same_v<T, double>) {
      char buf[32];  // shortest round-trip form
      const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
      os << ' ' << std::string_view(buf, end);
    } else if constexpr (!std::is_same_v<T, bool>) {
      os << ' ' << value;
    }
    headers.push_back(os.str());
  });
  return headers;
}

std::string write_repro(const sim::RunSpec& spec,
                        const kasm::Program& program) {
  std::ostringstream os;
  for (const std::string& header : repro_headers(spec)) {
    os << kHeader << header << '\n';
  }
  for (u64 pc = 0; pc < program.size(); ++pc) {
    os << isa::disasm(program.at(pc)) << "\n";
  }
  return os.str();
}

Repro parse_repro(const std::string& text) {
  CheckedFlags flags;
  std::istringstream is(text);
  std::string line;
  std::string body;
  while (std::getline(is, line)) {
    if (line.rfind(kHeader, 0) != 0) {
      body += line + '\n';
      continue;
    }
    std::istringstream words(line.substr(kHeader.size()));
    std::string key, value, extra;
    words >> key;
    if (!flags.parse("--" + key, [&] {
          if (!(words >> value)) {
            throw std::invalid_argument("repro header missing value: " + line);
          }
          return value;
        })) {
      throw std::invalid_argument("unknown repro header key: " + key);
    }
    if (words >> extra) {
      throw std::invalid_argument("repro header has trailing text: " + line);
    }
  }
  Repro repro{flags.spec(), kasm::assemble(body)};
  if (repro.program.empty()) {
    throw std::invalid_argument("repro contains no instructions");
  }
  return repro;
}

Repro load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open repro file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return parse_repro(os.str());
}

}  // namespace virec::check
