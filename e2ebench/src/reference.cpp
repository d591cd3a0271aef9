#include "reference.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "support/strings.h"

namespace e2e {

namespace {

constexpr std::size_t kColumns = 10;

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<Outcome> load_reference(const std::string& path, std::string_view mode,
                                    std::uint64_t variant) {
  std::vector<Outcome> rows;
  std::ifstream in(path);
  std::string line;
  const std::string variant_text = std::to_string(variant);
  while (std::getline(in, line)) {
    if (line.empty() || line.rfind("mode,", 0) == 0) continue;
    const std::vector<std::string> fields = wfs::support::split(line, ',');
    if (fields.size() != kColumns) {
      throw std::runtime_error("malformed reference row in " + path + ": " + line);
    }
    if (fields[0] != mode || fields[1] != variant_text) continue;
    Outcome out;
    out.id = fields[2];
    out.ok = fields[3] == "1";
    for (std::size_t i = 0; i < 3; ++i) {
      out.counts[i] = std::stoull(fields[4 + i]);
      out.values[i] = std::stod(fields[7 + i]);
    }
    rows.push_back(std::move(out));
  }
  return rows;
}

std::string reference_rows(std::string_view mode, std::uint64_t variant,
                           const std::vector<Outcome>& outcomes) {
  std::string text;
  for (const Outcome& out : outcomes) {
    text += std::string(mode) + "," + std::to_string(variant) + "," + out.id + "," +
            (out.ok ? "1" : "0");
    for (const std::uint64_t count : out.counts) text += "," + std::to_string(count);
    for (const double value : out.values) text += "," + number(value);
    text += "\n";
  }
  return text;
}

bool matches_reference(const Outcome& expected, const Outcome& actual, std::string* why) {
  const auto fail = [why](std::string text) {
    if (why != nullptr) *why = std::move(text);
    return false;
  };
  if (expected.id != actual.id) return fail("id " + actual.id + " != " + expected.id);
  if (expected.ok != actual.ok) return fail(actual.id + ": ok flag differs");
  for (std::size_t i = 0; i < 3; ++i) {
    if (expected.counts[i] != actual.counts[i]) {
      return fail(actual.id + ": n" + std::to_string(i + 1) + " " +
                  std::to_string(actual.counts[i]) + " != " + std::to_string(expected.counts[i]));
    }
    const double tolerance = 1e-3 + 1e-5 * std::abs(expected.values[i]);
    if (!(std::abs(expected.values[i] - actual.values[i]) <= tolerance)) {
      return fail(actual.id + ": v" + std::to_string(i + 1) + " " + number(actual.values[i]) +
                  " != " + number(expected.values[i]));
    }
  }
  return true;
}

}  // namespace e2e
