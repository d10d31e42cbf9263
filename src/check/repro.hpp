// Standalone repro files for fuzzer-found failures.
//
// A repro is a plain-text file: `// repro <key> <value>` header lines
// carrying the failing configuration, followed by the (shrunk) program
// as a disassembly listing the kasm assembler can read back. Replay
// with `virec-sim --replay FILE` or programmatically via
// check::run_checked(). Headers a file omits keep check::fuzz_spec()'s
// values; `threads` is sim::RunSpec::threads_per_core and `seed` its
// params.seed.
#pragma once

#include <string>

#include "check/harness.hpp"
#include "kasm/program.hpp"

namespace virec::check {

struct Repro {
  sim::RunSpec spec;
  kasm::Program program;
};

/// Serialise @p spec + @p program into the repro text format.
std::string write_repro(const sim::RunSpec& spec,
                        const kasm::Program& program);

/// Parse repro text (throws std::invalid_argument / kasm::AsmError on
/// malformed headers or unparseable instructions).
Repro parse_repro(const std::string& text);

/// Convenience: read @p path and parse it.
Repro load_repro(const std::string& path);

}  // namespace virec::check
