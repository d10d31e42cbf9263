#include "check/repro.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/parse_number.hpp"
#include "isa/disasm.hpp"
#include "kasm/assembler.hpp"

namespace virec::check {

std::string write_repro(const sim::RunSpec& spec,
                        const kasm::Program& program) {
  std::ostringstream os;
  os << "// repro scheme " << sim::scheme_name(spec.scheme) << "\n";
  os << "// repro policy " << core::policy_name(spec.policy) << "\n";
  os << "// repro phys-regs " << spec.phys_regs << "\n";
  os << "// repro threads " << spec.threads_per_core << "\n";
  os << "// repro max-cycles " << spec.max_cycles << "\n";
  if (spec.params.seed != 0) {
    os << "// repro seed " << spec.params.seed << "\n";
  }
  // Only recorded when set: older repro files (and the default mode)
  // run with skipping on.
  if (spec.no_skip) os << "// repro no-skip 1\n";
  for (u64 pc = 0; pc < program.size(); ++pc) {
    os << isa::disasm(program.at(pc)) << "\n";
  }
  return os.str();
}

Repro parse_repro(const std::string& text) {
  Repro repro{fuzz_spec(), {}};
  std::istringstream is(text);
  std::string line;
  std::string body;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string slash, tag, key;
    if (line.rfind("// repro ", 0) == 0) {
      ls >> slash >> tag >> key;
      std::string value;
      ls >> value;
      if (value.empty()) {
        throw std::invalid_argument("repro header missing value: " + line);
      }
      if (key == "scheme") {
        repro.spec.scheme = sim::parse_scheme(value);
      } else if (key == "policy") {
        repro.spec.policy = core::parse_policy(value);
      } else if (key == "phys-regs") {
        repro.spec.phys_regs = parse_u32("repro " + key, value);
      } else if (key == "threads") {
        repro.spec.threads_per_core = parse_u32("repro " + key, value);
      } else if (key == "max-cycles") {
        repro.spec.max_cycles = parse_u64("repro " + key, value);
      } else if (key == "seed") {
        repro.spec.params.seed = parse_u64("repro " + key, value);
      } else if (key == "no-skip") {
        repro.spec.no_skip = parse_u64("repro " + key, value) != 0;
      } else {
        throw std::invalid_argument("unknown repro header key: " + key);
      }
    } else {
      body += line;
      body += '\n';
    }
  }
  repro.program = kasm::assemble(body);
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
