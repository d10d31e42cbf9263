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
#include <vector>

#include "check/harness.hpp"
#include "kasm/program.hpp"

namespace virec::check {

struct Repro {
  sim::RunSpec spec;
  kasm::Program program;
};

/// The headers of @p spec without their `// repro ` lead ("cores 2",
/// "no-skip"), one per knob that differs from check::fuzz_spec(), in
/// knob-table order. Throws std::invalid_argument if a knob differs
/// that no header carries: one without a flag, one a checked run of
/// @p spec does not read, or a switch turned off.
std::vector<std::string> repro_headers(const sim::RunSpec& spec);

/// Serialise @p spec + @p program into the repro text format: its
/// repro_headers(), then the program. Throws like repro_headers().
std::string write_repro(const sim::RunSpec& spec,
                        const kasm::Program& program);

/// Parse repro text (throws std::invalid_argument / kasm::AsmError on
/// an unknown, refused or malformed header or unparseable
/// instructions).
Repro parse_repro(const std::string& text);

/// Convenience: read @p path and parse it.
Repro load_repro(const std::string& path);

}  // namespace virec::check
