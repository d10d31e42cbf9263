// Standalone repro files for fuzzer-found failures.
//
// A repro is a plain-text file: `// repro <flag> [value]` header lines
// carrying the failing configuration, followed by the (shrunk) program
// as a disassembly listing the kasm assembler can read back. A header
// is a knob flag without its `--` and its value as on the command line
// (`// repro cores 2`, `// repro no-skip`), for each knob that differs
// from check::fuzz_spec(); headers read back through sim::SpecFlags.
// Replay with `virec-sim --replay FILE` or via check::run_checked().
#pragma once

#include <string>

#include "check/harness.hpp"
#include "kasm/program.hpp"

namespace virec::check {

struct Repro {
  sim::RunSpec spec;
  kasm::Program program;
};

/// Serialise @p spec + @p program into the repro text format. Throws
/// std::invalid_argument if @p spec differs from check::fuzz_spec() in
/// a knob no header carries: one without a flag, one a checked run
/// never reads, or a switch turned off.
std::string write_repro(const sim::RunSpec& spec,
                        const kasm::Program& program);

/// Parse repro text (throws std::invalid_argument / kasm::AsmError on
/// an unknown, refused or malformed header or unparseable
/// instructions).
Repro parse_repro(const std::string& text);

/// Convenience: read @p path and parse it.
Repro load_repro(const std::string& path);

}  // namespace virec::check
