// Pretty-printer emitting the generated athread C sources (§7): the CPE
// (slave) file containing the per-CPE kernel and the MPE (host) file with
// the spawn wrapper — the same two-file split the paper's tool produces
// for swgcc -mslave / -mhost compilation (§8).
//
// The printer consumes the exact KernelProgram the simulator executes, so
// the printed code and the simulated behaviour cannot diverge.
#pragma once

#include <string>

#include "codegen/program.h"

namespace sw::codegen {

struct GeneratedSources {
  std::string cpe;  // slave file (athread CPE kernel)
  std::string mpe;  // host file (argument marshalling + athread_spawn)
};

GeneratedSources printAthreadSources(const KernelProgram& program);

}  // namespace sw::codegen
