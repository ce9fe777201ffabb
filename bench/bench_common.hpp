// Shared helpers for the per-figure/table bench binaries.
//
// Every binary accepts an optional scale argument (argv[1], default from
// RMP_BENCH_SCALE or 0.5).  Scale 1.0 is laptop-sized; ~4.0 approaches the
// paper's dataset sizes.  Output is aligned text with a CSV-ish structure
// so the series can be diffed against the paper's figures.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.hpp"

namespace rmp::bench {

inline double parse_scale(int argc, char** argv, double fallback = 0.5) {
  if (argc > 1) return std::atof(argv[1]);
  if (const char* env = std::getenv("RMP_BENCH_SCALE")) return std::atof(env);
  return fallback;
}

inline void print_header(const char* figure, const char* what) {
  std::printf("# %s -- %s\n", figure, what);
}

}  // namespace rmp::bench
