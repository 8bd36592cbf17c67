// Shared scaffolding for the experiment binaries (E1-E15, A1-A3).
//
// Each bench prints a header naming the paper claim it reproduces, one or
// more aligned tables (the repository's stand-in for the paper's result
// tables), and a PASS/FAIL verdict line per claim so EXPERIMENTS.md and CI
// can consume the output.  Set RRS_BENCH_CSV_DIR to also get CSV files.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/csv.h"
#include "sim/table.h"

namespace rrs::bench {

/// Prints the standard experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "==============================================================="
               "=\n"
            << id << ": " << claim << "\n"
            << "==============================================================="
               "=\n";
}

/// Prints a claim verdict line ("[PASS] ..." / "[FAIL] ...").
inline bool verdict(bool ok, const std::string& what) {
  std::cout << (ok ? "[PASS] " : "[FAIL] ") << what << "\n";
  return ok;
}

/// Writes `csv` to $RRS_BENCH_CSV_DIR/<name>.csv when the env var is set.
/// Prints the file name, not the path, so stdout does not depend on where
/// the CSVs go.
inline void maybe_write_csv(const CsvWriter& csv, const std::string& name) {
  const char* dir = std::getenv("RRS_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string file = name + ".csv";
  csv.write_file(std::string(dir) + "/" + file);
  std::cout << "(csv: " << file << ")\n";
}

}  // namespace rrs::bench
