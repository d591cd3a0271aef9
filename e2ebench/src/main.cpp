// e2ebench — host cost of the simulator, end to end and layer by layer.
//
//   e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--smoke] [--record] [--reference-dir DIR]
//
// Workloads: paper-campaign, coarse-5k, document-20k, tenant-traffic (see
// e2ebench/README.md for why each exists). --trace 0 measures the
// end-to-end metrics through the public API; --trace 1 alternates untraced
// passes with traced passes that build the same stack with one
// LayerContext per module, and reports the per-layer account. Every pass
// is checked against the recorded reference. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.h"
#include "reference.h"
#include "support/cli.h"
#include "wfcommons/recipes/recipe.h"
#include "workloads.h"

namespace e2e {
namespace {

/// The --seed selects one of this many recorded input variants, so every
/// run's simulated outcome is checked against a stored reference.
constexpr std::uint64_t kVariants = 8;

/// Generator seeds of the tenant-traffic variants: the eight of seeds 1-80
/// whose simulated event totals, at the full and the quarter window, lie
/// closest to the median (within 1.1 % and 1.7 %). Poisson arrivals near
/// saturation otherwise differ by +-5 % in events between seeds, and more in
/// host time, which would swamp the run-to-run spread.
constexpr std::array<std::uint64_t, kVariants> kTrafficSeeds = {9, 17, 18, 32, 58, 61, 62, 63};

/// Setup is repeated at least this often, and until this much time passed.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 10000;
constexpr double kMinSetupSeconds = 2.0;

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::cerr << "check failed: " << what << "\n";
  }
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool in_json = true;  // false: printed, but not one of BENCHMARK.json's metrics
};

// ---- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Prepares the inputs the passes consume and the checks expect.
  /// `calls` (may be null) receives the host time of the public calls made.
  virtual void setup(CallTimes* calls) = 0;
  /// The timed part at the full size.
  virtual PassResult full() = 0;
  /// full(), adding the measured host times of its pieces to `speed` in
  /// order, so that calibrations run between them. A piece is a campaign
  /// cell, a stretch of a document run, or else the whole pass.
  virtual PassResult measured_full(HostSpeed& speed) {
    const auto start = SteadyClock::now();
    PassResult pass = full();
    speed.add(seconds_since(start));
    return pass;
  }
  /// The timed part at a quarter of the size, for size_exp; the campaign
  /// derives size_exp from its own cells instead.
  virtual std::optional<PassResult> quarter() { return std::nullopt; }
  virtual TracedPass traced() = 0;
  /// Workload invariants of an untraced pass (reference checks are generic).
  virtual void check(const PassResult& pass, bool quarter, Checks& checks) = 0;
};

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, bool smoke) : specs_(campaign_specs(seed, smoke)) {}

  void setup(CallTimes*) override {
    expected_.clear();
    for (const wfs::core::CampaignSpec& spec : specs_) {
      for (const std::string& recipe : spec.recipes) {
        for (const std::size_t size : spec.sizes) {
          wfs::wfcommons::GenerateOptions options;
          options.num_tasks = size;
          options.seed = spec.seed;
          options.cpu_work = spec.cpu_work;
          expected_[recipe + "/" + std::to_string(size)] =
              wfs::wfcommons::make_recipe(recipe)->generate(options).size();
        }
      }
    }
  }
  PassResult full() override { return run_campaign(specs_); }
  PassResult measured_full(HostSpeed& speed) override {
    return run_campaign(specs_, [&](double seconds) { speed.add(seconds); });
  }
  TracedPass traced() override { return run_campaign_traced(specs_); }
  void check(const PassResult& pass, bool, Checks& checks) override {
    std::size_t cells = 0;
    for (const wfs::core::CampaignSpec& spec : specs_) cells += spec.cell_count();
    checks.expect(pass.outcomes.size() == cells, "campaign ran every cell");
    for (const Outcome& out : pass.outcomes) {
      // id is paradigm/recipe/size; the generated size is keyed recipe/size.
      const auto it = expected_.find(out.id.substr(out.id.find('/') + 1));
      checks.expect(it != expected_.end() && it->second == out.counts[0],
                    out.id + ": tasks_total matches the generated workflow");
      if (out.ok) checks.expect(out.counts[2] == out.counts[0], out.id + ": every task terminal");
    }
  }

  [[nodiscard]] std::size_t small_size() const { return specs_.front().sizes.front(); }
  [[nodiscard]] std::size_t large_size() const { return specs_.front().sizes.back(); }

 private:
  std::vector<wfs::core::CampaignSpec> specs_;
  std::map<std::string, std::size_t> expected_;
};

class CoarseWorkload final : public Workload {
 public:
  CoarseWorkload(std::uint64_t seed, bool smoke)
      : full_(coarse_cell(seed, smoke ? 400 : 5000)),
        quarter_(coarse_cell(seed, full_.num_tasks / 4)) {}

  void setup(CallTimes*) override {
    for (wfs::core::ExperimentConfig* config : {&full_, &quarter_}) {
      wfs::wfcommons::GenerateOptions options;
      options.num_tasks = config->num_tasks;
      options.seed = config->seed;
      expected_[config->num_tasks] = wfs::wfcommons::make_recipe("blast")->generate(options).size();
    }
  }
  PassResult full() override { return run_cell(full_); }
  std::optional<PassResult> quarter() override { return run_cell(quarter_); }
  TracedPass traced() override { return run_cell_traced(full_); }
  void check(const PassResult& pass, bool quarter, Checks& checks) override {
    const Outcome& out = pass.outcomes.front();
    const std::size_t size = quarter ? quarter_.num_tasks : full_.num_tasks;
    checks.expect(out.ok, out.id + ": run ok");
    checks.expect(out.counts[0] == expected_[size] && out.counts[2] == out.counts[0],
                  out.id + ": every generated task reached a terminal state");
  }

 private:
  wfs::core::ExperimentConfig full_;
  wfs::core::ExperimentConfig quarter_;
  std::map<std::size_t, std::size_t> expected_;
};

class DocumentWorkload final : public Workload {
 public:
  DocumentWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed), tasks_(smoke ? 800 : 20000) {}

  void setup(CallTimes* calls) override {
    original_ = translated_blast(seed_, tasks_, calls);
    document_ = write_document(original_, calls);
    quarter_original_ = translated_blast(seed_, tasks_ / 4);
    quarter_document_ = write_document(quarter_original_);
  }
  PassResult full() override { return keep(run_document(document_)); }
  PassResult measured_full(HostSpeed& speed) override {
    Laps laps([&](double seconds) { speed.add(seconds); });
    PassResult pass = keep(run_document(document_, nullptr, &laps));
    laps.offer();
    return pass;
  }
  std::optional<PassResult> quarter() override { return keep(run_document(quarter_document_)); }
  TracedPass traced() override {
    TracedPass traced;
    traced.result = keep(run_document(document_, &traced));
    return traced;
  }
  void check(const PassResult& pass, bool quarter, Checks& checks) override {
    const wfs::wfcommons::Workflow& original = quarter ? quarter_original_ : original_;
    const Outcome& out = pass.outcomes.front();
    checks.expect(round_trip_mismatches(original, parsed_) == 0,
                  out.id + ": document round-trips task for task");
    checks.expect(out.ok && out.counts[0] == original.size() && out.counts[2] == out.counts[0],
                  out.id + ": every task of the document reached a terminal state");
    parsed_ = {};
  }

 private:
  /// Keeps the parsed workflow for check(), outside the timed part.
  PassResult keep(DocumentRun run) {
    parsed_ = std::move(run.parsed);
    return std::move(run.result);
  }

  std::uint64_t seed_;
  std::size_t tasks_;
  wfs::wfcommons::Workflow original_;
  wfs::wfcommons::Workflow quarter_original_;
  std::string document_;
  std::string quarter_document_;
  wfs::wfcommons::Workflow parsed_;
};

class TrafficWorkload final : public Workload {
 public:
  TrafficWorkload(std::uint64_t seed, bool smoke)
      : full_(traffic_config(seed, smoke ? 1800.0 : 3600.0)),
        quarter_(traffic_config(seed, full_.window_seconds / 4.0)) {}

  void setup(CallTimes*) override {
    full_plan_ = plan_traffic(full_);
    quarter_plan_ = plan_traffic(quarter_);
  }
  PassResult full() override { return run_traffic(full_, full_plan_); }
  std::optional<PassResult> quarter() override { return run_traffic(quarter_, quarter_plan_); }
  TracedPass traced() override { return run_traffic_traced(full_); }
  void check(const PassResult& pass, bool quarter, Checks& checks) override {
    const TrafficPlan& plan = quarter ? quarter_plan_ : full_plan_;
    checks.expect(pass.outcomes.size() == plan.runs.size() + 1, "one outcome per tenant");
    for (std::size_t i = 0; i < plan.runs.size() && i < pass.outcomes.size(); ++i) {
      const Outcome& tenant = pass.outcomes[i];
      checks.expect(tenant.counts[0] == plan.runs[i] &&
                        tenant.counts[0] == tenant.counts[1] + tenant.counts[2],
                    tenant.id + ": submitted = completed + failed");
    }
    checks.expect(pass.outcomes.back().ok, "traffic window drained");
  }

 private:
  wfs::load::TrafficConfig full_;
  wfs::load::TrafficConfig quarter_;
  TrafficPlan full_plan_;
  TrafficPlan quarter_plan_;
};

/// The workload for one recorded input `variant` (1..kVariants).
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t variant,
                                        bool smoke) {
  if (name == "paper-campaign") return std::make_unique<CampaignWorkload>(variant, smoke);
  if (name == "coarse-5k") return std::make_unique<CoarseWorkload>(variant, smoke);
  if (name == "document-20k") return std::make_unique<DocumentWorkload>(variant, smoke);
  if (name == "tenant-traffic") {
    return std::make_unique<TrafficWorkload>(kTrafficSeeds[variant - 1], smoke);
  }
  return nullptr;
}

// ---- checks against the reference -------------------------------------------

class ReferenceCheck {
 public:
  explicit ReferenceCheck(const std::vector<Outcome>& rows) {
    for (const Outcome& row : rows) {
      if (!rows_.emplace(row.id, row).second) {
        throw std::runtime_error("duplicate reference row " + row.id);
      }
    }
  }

  void check(const PassResult& pass, Checks& checks) const {
    for (const Outcome& out : pass.outcomes) {
      const auto it = rows_.find(out.id);
      std::string why = out.id + ": no reference row";
      checks.expect(it != rows_.end() && matches_reference(it->second, out, &why),
                    "reference: " + why);
    }
  }

 private:
  std::map<std::string, Outcome> rows_;
};

// ---- measurement ------------------------------------------------------------

/// Repeats the set-up (see kMinSetupReps) and returns each repetition's
/// host seconds; `after_rep` (may be empty) receives them as they come,
/// outside the timing.
std::vector<double> run_setup(Workload& workload, CallTimes* calls,
                              const std::function<void(double)>& after_rep = {}) {
  std::vector<double> reps;
  double total = 0.0;
  while (static_cast<int>(reps.size()) < kMinSetupReps ||
         (total < kMinSetupSeconds && static_cast<int>(reps.size()) < kMaxSetupReps)) {
    CallTimes rep_calls;
    const auto start = SteadyClock::now();
    workload.setup(&rep_calls);
    reps.push_back(seconds_since(start));
    total += reps.back();
    if (calls != nullptr) *calls = rep_calls;  // the last repetition's account
    if (after_rep) after_rep(reps.back());
  }
  return reps;
}

template <class F>
auto timed_pass(std::vector<double>& seconds, F&& fn) {
  const auto start = SteadyClock::now();
  auto result = fn();
  seconds.push_back(seconds_since(start));
  return result;
}

/// log(t_n / t_{n/k}) / log k: 1 for linear host cost in the size.
double scaling_exponent(double large_s, double small_s, double size_ratio) {
  return std::log(large_s / small_s) / std::log(size_ratio);
}

// Host times are normalized to the reference host (calibrate.h): the
// set-up repetitions and the pieces of every full pass go through one
// HostSpeed, which calibrates between them. A pass's normalized time is the
// sum of its pieces; the campaign's pieces are its cells, and a single-cell
// workload's cell is its pass. Every statistic is then a median over the
// passes (or repetitions). size_exp is a ratio of two adjacent measured
// times, in which the drift cancels by itself.
std::vector<Metric> measure_end_to_end(Workload& workload, double run_seconds,
                                       const ReferenceCheck& reference, Checks& checks) {
  HostSpeed speed;
  const std::vector<double> setup =
      run_setup(workload, nullptr, [&](double seconds) { speed.add(seconds); });
  speed.close();
  std::vector<std::size_t> pass_start;  // index of each pass's first piece
  std::vector<double> quarter_s;
  std::vector<double> size_exp;
  std::uint64_t tasks = 0;
  auto* campaign = dynamic_cast<CampaignWorkload*>(&workload);
  const auto start = SteadyClock::now();
  do {
    pass_start.push_back(speed.measured().size());
    const PassResult full = workload.measured_full(speed);
    speed.close();
    reference.check(full, checks);
    workload.check(full, false, checks);
    tasks = full.tasks;
    if (campaign != nullptr) {
      std::vector<double> small;
      std::vector<double> large;
      for (std::size_t i = 0; i < full.cell_seconds.size(); ++i) {
        if (full.cell_sizes[i] == campaign->small_size()) small.push_back(full.cell_seconds[i]);
        if (full.cell_sizes[i] == campaign->large_size()) large.push_back(full.cell_seconds[i]);
      }
      size_exp.push_back(scaling_exponent(median(large), median(small),
                                          static_cast<double>(campaign->large_size()) /
                                              static_cast<double>(campaign->small_size())));
    } else {
      const std::optional<PassResult> quarter =
          timed_pass(quarter_s, [&] { return workload.quarter(); });
      reference.check(*quarter, checks);
      workload.check(*quarter, true, checks);
      const double full_s = std::accumulate(speed.measured().begin() +
                                                static_cast<std::ptrdiff_t>(pass_start.back()),
                                            speed.measured().end(), 0.0);
      size_exp.push_back(scaling_exponent(full_s, quarter_s.back(), 4.0));
    }
  } while (seconds_since(start) < run_seconds);
  pass_start.push_back(speed.measured().size());

  const std::vector<double> normalized = speed.normalized();
  const std::vector<double> setup_s(normalized.begin(),
                                    normalized.begin() + static_cast<std::ptrdiff_t>(setup.size()));
  const auto pieces = [&](const std::vector<double>& times, std::size_t pass) {
    return std::vector<double>(times.begin() + static_cast<std::ptrdiff_t>(pass_start[pass]),
                               times.begin() + static_cast<std::ptrdiff_t>(pass_start[pass + 1]));
  };
  std::vector<double> full_s;  // measured
  std::vector<double> wall_s;  // normalized
  std::vector<std::vector<double>> cell_s;  // [cell][pass], normalized
  for (std::size_t pass = 0; pass + 1 < pass_start.size(); ++pass) {
    const std::vector<double> measured = pieces(speed.measured(), pass);
    const std::vector<double> scaled = pieces(normalized, pass);
    full_s.push_back(std::accumulate(measured.begin(), measured.end(), 0.0));
    wall_s.push_back(std::accumulate(scaled.begin(), scaled.end(), 0.0));
    const std::vector<double> cells = campaign != nullptr ? scaled : std::vector{wall_s.back()};
    cell_s.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) cell_s[i].push_back(cells[i]);
  }
  // Each cell's median over the passes, then the percentiles over cells.
  std::vector<double> cell_medians;
  for (const std::vector<double>& passes : cell_s) cell_medians.push_back(median(passes));
  const double wall = median(wall_s);
  std::cout << "samples: setup " << setup.size() << ", full passes " << full_s.size()
            << ", quarter passes " << quarter_s.size() << ", cells " << cell_s.size()
            << ", calibrations " << speed.calibrations() << "\nfull pass seconds (measured):";
  for (const double seconds : full_s) std::cout << " " << seconds;
  std::cout << "\nfull pass seconds (normalized):";
  for (const double seconds : wall_s) std::cout << " " << seconds;
  std::cout << "\n";
  return {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", wall, "s"},
      {"tasks_per_s", static_cast<double>(tasks) / wall, "1/s"},
      // Printed only: on paper-campaign its rank falls among small cells of
      // different recipes whose host times shift against each other with
      // the host's state, so it spreads too far for a bound (README).
      {"cell_p50_ms", 1e3 * percentile(cell_medians, 0.5), "ms", false},
      {"cell_p90_ms", 1e3 * percentile(cell_medians, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"size_exp", median(size_exp), "exponent"},
  };
}

/// Modules whose layer has work in every workload; their host times are
/// BENCHMARK.json metrics. The others are printed but would read a constant
/// zero on some workload.
bool layer_active_everywhere(std::string_view layer) {
  return layer == "cluster" || layer == "storage" || layer == "net" || layer == "faas" ||
         layer == "core";
}

std::vector<Metric> layer_metrics(const TracedPass& traced, const CallTimes& setup_calls,
                                  double overhead_frac) {
  std::vector<Metric> out;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string layer(kLayerNames[i]);
    const LayerStats& stats = traced.layers[i];
    scheduled += stats.scheduled;
    cancelled += stats.cancelled;
    const bool timed = layer_active_everywhere(layer);
    out.push_back({layer + ".scheduled", static_cast<double>(stats.scheduled), "count"});
    out.push_back({layer + ".cancelled", static_cast<double>(stats.cancelled), "count"});
    out.push_back({layer + ".dispatched", static_cast<double>(stats.dispatched), "count"});
    out.push_back({layer + ".dispatch_s", stats.dispatch_s, "s", timed});
    out.push_back({layer + ".queue_s", stats.queue_s, "s", timed});
  }
  const double tasks = static_cast<double>(std::max<std::uint64_t>(1, traced.result.tasks));
  out.push_back({"sim.events_per_task", static_cast<double>(scheduled) / tasks, "events/task"});
  const double attempts = static_cast<double>(std::max<std::uint64_t>(1, scheduled));
  out.push_back({"sim.cancel_ratio", static_cast<double>(cancelled) / attempts, "ratio"});
  const CallTimes& c = traced.calls;
  out.push_back({"wfcommons.generate_s", c.generate_s + setup_calls.generate_s, "s"});
  out.push_back({"wfcommons.translate_s", c.translate_s + setup_calls.translate_s, "s", false});
  out.push_back({"json.write_s", c.write_s + setup_calls.write_s, "s", false});
  out.push_back({"json.parse_s", c.parse_s, "s", false});
  out.push_back(
      {"json.doc_bytes", static_cast<double>(c.doc_bytes + setup_calls.doc_bytes), "bytes"});
  out.push_back({"core.plan_s", c.plan_s, "s"});
  out.push_back({"core.run_s", c.run_s, "s"});
  const RegistryCounts& r = traced.registry;
  out.push_back({"storage.ops", r.storage_ops, "count"});
  out.push_back({"net.http_requests", r.http_requests, "count"});
  out.push_back({"faas.pods_created", r.pods_created, "count"});
  out.push_back({"faas.activator_buffered", r.activator_buffered, "count"});
  out.push_back({"load.runs_completed", r.runs_completed, "count"});
  out.push_back({"trace.overhead_frac", overhead_frac, "ratio"});
  return out;
}

/// The machine-independent part of a traced pass, which must repeat exactly.
std::vector<std::uint64_t> layer_counts(const TracedPass& traced) {
  std::vector<std::uint64_t> counts;
  for (const LayerStats& stats : traced.layers) {
    counts.insert(counts.end(), {stats.scheduled, stats.cancelled, stats.dispatched});
  }
  return counts;
}

std::vector<Metric> measure_layers(Workload& workload, double run_seconds,
                                   const ReferenceCheck& reference, Checks& checks) {
  CallTimes setup_calls;
  (void)run_setup(workload, &setup_calls);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::vector<Metric>> per_pass;
  std::vector<std::uint64_t> first_counts;
  const auto start = SteadyClock::now();
  do {
    const PassResult untraced = timed_pass(untraced_s, [&] { return workload.full(); });
    reference.check(untraced, checks);
    workload.check(untraced, false, checks);
    const TracedPass traced = timed_pass(traced_s, [&] { return workload.traced(); });
    checks.expect(traced.result.outcomes.size() == untraced.outcomes.size(),
                  "traced pass has the untraced pass's outcomes");
    for (std::size_t i = 0; i < traced.result.outcomes.size() && i < untraced.outcomes.size();
         ++i) {
      checks.expect(traced.result.outcomes[i] == untraced.outcomes[i],
                    untraced.outcomes[i].id + ": traced outcome reproduces the untraced one");
    }
    checks.expect(traced.result.tasks == untraced.tasks, "traced pass terminal task count");
    if (first_counts.empty()) {
      first_counts = layer_counts(traced);
    } else {
      checks.expect(layer_counts(traced) == first_counts, "layer counts repeat across passes");
    }
    // Overhead per adjacent pair, so slow phases of a shared host cancel out.
    per_pass.push_back(
        layer_metrics(traced, setup_calls, traced_s.back() / untraced_s.back() - 1.0));
  } while (seconds_since(start) < run_seconds);

  // Per-metric median over the traced passes (counts are identical).
  std::vector<Metric> out = per_pass.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const std::vector<Metric>& pass : per_pass) values.push_back(pass[m].value);
    out[m].value = median(values);
  }
  std::cout << "samples: traced passes " << traced_s.size() << ", untraced passes "
            << untraced_s.size() << "\n";
  return out;
}

void print_result(const std::vector<Metric>& metrics, const Checks& checks) {
  for (const Metric& metric : metrics) {
    std::cout << "metric " << metric.name << " " << number(metric.value) << " " << metric.unit
              << (metric.in_json ? "" : "  (printed only)") << "\n";
  }
  std::cout << "fail_frac " << number(checks.attempted == 0
                                          ? 1.0
                                          : static_cast<double>(checks.failed) /
                                                static_cast<double>(checks.attempted))
            << " (" << checks.failed << " of " << checks.attempted << " checks failed)\n";
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 && checks.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!metric.in_json) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run(int argc, char** argv) {
  wfs::support::CliParser cli("e2ebench", "end-to-end host cost of the simulator");
  cli.add_flag("workload", "", "paper-campaign | coarse-5k | document-20k | tenant-traffic");
  cli.add_flag("seed", "1", "input seed (selects one of the recorded input variants)");
  cli.add_flag("seconds", "10", "measurement time per run, seconds");
  cli.add_flag("trace", "0", "0: end-to-end metrics; 1: per-layer metrics");
  cli.add_flag("reference-dir", "e2ebench/reference", "directory of the reference CSVs");
  cli.add_switch("smoke", "reduced sizes of every workload");
  cli.add_switch("record", "print reference rows for this seed instead of measuring");
  if (!cli.parse(argc, argv)) return 2;

  const std::string name = cli.get("workload");
  const std::uint64_t seed = std::stoull(cli.get("seed"));
  const std::uint64_t variant = (seed % kVariants + kVariants - 1) % kVariants + 1;
  const bool smoke = cli.get_switch("smoke");
  const std::string mode = smoke ? "smoke" : "full";
  std::unique_ptr<Workload> workload = make_workload(name, variant, smoke);
  if (!workload) {
    std::cerr << "unknown workload '" << name << "'\n" << cli.usage();
    return 2;
  }

  if (cli.get_switch("record")) {
    workload->setup(nullptr);
    std::vector<Outcome> outcomes = workload->full().outcomes;
    if (std::optional<PassResult> quarter = workload->quarter()) {
      outcomes.insert(outcomes.end(), quarter->outcomes.begin(), quarter->outcomes.end());
    }
    std::cout << reference_rows(mode, variant, outcomes);
    return 0;
  }

  const std::string reference_path = cli.get("reference-dir") + "/" + name + ".csv";
  const std::vector<Outcome> rows = load_reference(reference_path, mode, variant);
  if (rows.empty()) {
    std::cerr << "no reference rows for " << mode << " variant " << variant << " in "
              << reference_path << "\n";
    return 1;
  }
  const ReferenceCheck reference(rows);
  const double seconds = cli.get_double("seconds");
  const bool trace = cli.get("trace") == "1";
  std::cout << "workload " << name << " (" << mode << "), seed " << seed << " -> variant "
            << variant << ", " << (trace ? "traced" : "untraced") << ", " << seconds << " s\n";
  Checks checks;
  const std::vector<Metric> metrics =
      trace ? measure_layers(*workload, seconds, reference, checks)
            : measure_end_to_end(*workload, seconds, reference, checks);
  print_result(metrics, checks);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
