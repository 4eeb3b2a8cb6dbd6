#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"

/// \file test_util.h
/// \brief Shared helpers for the AIMS test suite.

namespace aims::testutil {

/// Random vector of length n with entries in [-1, 1).
inline std::vector<double> RandomSignal(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-1.0, 1.0);
  return v;
}

/// Sum of sines signal with the given frequencies (cycles per sample).
inline std::vector<double> SineMix(size_t n,
                                   const std::vector<double>& freqs,
                                   const std::vector<double>& amps) {
  std::vector<double> v(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < freqs.size(); ++k) {
      v[i] += amps[k] * std::sin(2.0 * M_PI * freqs[k] *
                                 static_cast<double>(i));
    }
  }
  return v;
}

/// Max absolute elementwise difference.
inline double MaxAbsDiff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  if (a.size() != b.size()) return 1e300;
  return m;
}

/// Keys of a JSON object's top level, in document order (nested objects'
/// keys excluded). Expects well-formed JSON.
inline std::vector<std::string> TopLevelJsonKeys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  bool expect_key = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      size_t end = i + 1;
      while (end < json.size() && json[end] != '"') {
        end += json[end] == '\\' ? 2 : 1;
      }
      if (expect_key) keys.push_back(json.substr(i + 1, end - i - 1));
      expect_key = false;
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
      expect_key = depth == 1 && c == '{';
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',') {
      expect_key = depth == 1;
    }
  }
  return keys;
}

}  // namespace aims::testutil
