#pragma once
/// \file report.hpp
/// \brief Minimal JSON output for results, provenance and traces.

#include <string>

#include "bench.hpp"

namespace perfbench {

/// Every significant digit (%.17g), so equal strings mean equal doubles.
std::string exact(double v);
std::string json_string(const std::string& s);
/// exact(v); non-finite values print as null.
std::string json_number(double v);
/// {"name": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const Metrics& m);

}  // namespace perfbench
