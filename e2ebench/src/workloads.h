// The four benchmark workloads, each as an untraced pass through the public
// API and a traced pass that builds the same stack from the public
// constructors with one LayerContext per module.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "layers.h"
#include "load/traffic.h"
#include "wfcommons/workflow.h"

namespace e2e {

/// The simulated outcome of one cell, run or tenant, as checked against the
/// reference and compared between the untraced and traced passes. For
/// cells and document runs: counts = {tasks_total, tasks_failed,
/// tasks_terminal} and values = {makespan_s, cpu_pct_mean, mem_gib_mean}.
/// For a traffic tenant: counts = {submitted, completed, failed} and values
/// = {mean, p50, p99 makespan_s}. For a traffic window: counts =
/// {submitted, completed, cold_starts} and values = {goodput_rps,
/// jain_fairness, simulated_end_s}.
struct Outcome {
  std::string id;
  bool ok = false;
  std::array<std::uint64_t, 3> counts{};
  std::array<double, 3> values{};

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Host seconds of the public calls a traced pass makes itself.
struct CallTimes {
  double generate_s = 0.0;
  double translate_s = 0.0;
  double write_s = 0.0;
  double parse_s = 0.0;
  double plan_s = 0.0;
  double run_s = 0.0;
  std::uint64_t doc_bytes = 0;
};

/// Registry counters summed over a traced pass.
struct RegistryCounts {
  double storage_ops = 0.0;
  double http_requests = 0.0;
  double pods_created = 0.0;
  double activator_buffered = 0.0;
  double runs_completed = 0.0;
};

struct PassResult {
  std::vector<Outcome> outcomes;
  /// Simulated tasks that reached a terminal state (ok or failed).
  std::uint64_t tasks = 0;
  /// Campaign only: host seconds and task count of every cell, in cell order.
  std::vector<double> cell_seconds;
  std::vector<std::size_t> cell_sizes;
};

struct TracedPass {
  PassResult result;
  LayerTable layers{};
  CallTimes calls;
  RegistryCounts registry;
};

// ---- paper-campaign ---------------------------------------------------------

/// Table I's fine- and coarse-grained designs at `seed`, sequential (jobs 1).
/// Smoke keeps two recipes and shrinks the sizes.
std::vector<wfs::core::CampaignSpec> campaign_specs(std::uint64_t seed, bool smoke);
/// Runs the campaigns at jobs 1, timing every cell. `between_cells` (may be
/// empty) receives each cell's host seconds after the cell; its own time is
/// outside every cell's.
PassResult run_campaign(const std::vector<wfs::core::CampaignSpec>& specs,
                        const std::function<void(double)>& between_cells = {});
TracedPass run_campaign_traced(const std::vector<wfs::core::CampaignSpec>& specs);

// ---- single cells (coarse-5k) -----------------------------------------------

/// blast-`tasks` on Kn1000wPM with the deadline lifted.
wfs::core::ExperimentConfig coarse_cell(std::uint64_t seed, std::size_t tasks);
PassResult run_cell(const wfs::core::ExperimentConfig& config);
TracedPass run_cell_traced(const wfs::core::ExperimentConfig& config);

// ---- document-20k -----------------------------------------------------------

/// Generates blast at `tasks`, applies the Knative translator; the result is
/// what write_workflow(kKeyValue) serializes and what a parse must return.
wfs::wfcommons::Workflow translated_blast(std::uint64_t seed, std::size_t tasks,
                                          CallTimes* calls = nullptr);
std::string write_document(const wfs::wfcommons::Workflow& workflow,
                           CallTimes* calls = nullptr);

struct DocumentRun {
  PassResult result;
  wfs::wfcommons::Workflow parsed;  // for the round-trip check
};

/// Reports a pass's host time in stretches to a callback, at the points the
/// pass offers, so that the callback's own time (a calibration) stays out.
class Laps {
 public:
  explicit Laps(std::function<void(double)> lap) : lap_(std::move(lap)) {}
  /// Reports the host seconds since the last report (or construction), if
  /// at least `min_seconds`.
  void offer(double min_seconds = 0.0);

 private:
  std::function<void(double)> lap_;
  SteadyClock::time_point last_ = SteadyClock::now();
};

/// Parses the document, deploys Kn10wNoPM and runs the WFM on it with the
/// deadline lifted. `traced` (may be null) receives the per-layer account;
/// `laps` (may be null) is offered the time after the parse and every
/// 0.1 s or more of the run.
DocumentRun run_document(const std::string& document, TracedPass* traced = nullptr,
                         Laps* laps = nullptr);

/// Number of fields that differ between two workflows, task by task.
std::size_t round_trip_mismatches(const wfs::wfcommons::Workflow& original,
                                  const wfs::wfcommons::Workflow& parsed);

// ---- tenant-traffic ---------------------------------------------------------

/// The multi-tenant ablation's two tenants at 0.3 runs/s with quota 48, no
/// queue bound and fair dequeue, over `window_seconds`.
wfs::load::TrafficConfig traffic_config(std::uint64_t seed, double window_seconds);
/// What a window will submit, per tenant: its runs (the expected `submitted`
/// of the conservation check) and the tasks of one run.
struct TrafficPlan {
  std::vector<std::size_t> runs;
  std::vector<std::size_t> tasks_per_run;
};
TrafficPlan plan_traffic(const wfs::load::TrafficConfig& config);
PassResult run_traffic(const wfs::load::TrafficConfig& config, const TrafficPlan& plan);
TracedPass run_traffic_traced(const wfs::load::TrafficConfig& config);

}  // namespace e2e
