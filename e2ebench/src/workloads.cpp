#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "cluster/cluster.h"
#include "containers/runtime.h"
#include "core/dag.h"
#include "core/experiment.h"
#include "core/workflow_manager.h"
#include "faas/platform.h"
#include "metrics/aggregate.h"
#include "metrics/registry.h"
#include "metrics/sampler.h"
#include "net/router.h"
#include "obs/trace_recorder.h"
#include "storage/shared_fs.h"
#include "support/rng.h"
#include "wfcommons/recipes/recipe.h"
#include "wfcommons/translators/knative.h"
#include "wfcommons/translators/local_container.h"
#include "wfcommons/wfformat.h"

namespace e2e {

namespace core = wfs::core;
namespace wfc = wfs::wfcommons;
namespace sim = wfs::sim;

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kLiftedDeadlineSeconds = 1e7;  // ~115 simulated days

/// Runs `fn`, adding its host seconds to `*acc` when `acc` is set.
template <class F>
auto timed(double* acc, F&& fn) {
  const auto start = SteadyClock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    if (acc != nullptr) *acc += seconds_since(start);
  } else {
    auto value = fn();
    if (acc != nullptr) *acc += seconds_since(start);
    return value;
  }
}

double family_total(const wfs::metrics::MetricsSnapshot& snapshot, std::string_view name) {
  const wfs::metrics::MetricFamily* family = snapshot.find(name);
  if (family == nullptr) return 0.0;
  double total = 0.0;
  for (const wfs::metrics::MetricPoint& point : family->points) {
    total += family->kind == wfs::metrics::MetricKind::kHistogram
                 ? static_cast<double>(point.histogram.count)
                 : point.value;
  }
  return total;
}

void add_registry(RegistryCounts& counts, const wfs::metrics::MetricsSnapshot& snapshot) {
  counts.storage_ops += family_total(snapshot, "storage_ops_total");
  counts.http_requests += family_total(snapshot, "http_requests_total");
  counts.pods_created += family_total(snapshot, "pods_created_total");
  counts.activator_buffered += family_total(snapshot, "activator_buffered_total");
  counts.runs_completed += family_total(snapshot, "tenant_makespan_seconds");
}

std::string cell_id(const std::string& paradigm, const std::string& recipe, std::size_t tasks) {
  return paradigm + "/" + recipe + "/" + std::to_string(tasks);
}

Outcome cell_outcome(const core::ExperimentResult& result) {
  Outcome out;
  out.id = cell_id(result.paradigm_name, result.config.recipe, result.config.num_tasks);
  out.ok = result.ok();
  out.counts = {result.run.tasks_total, result.run.tasks_failed, result.run.tasks.size()};
  out.values = {result.makespan_seconds, result.cpu_percent.mean, result.memory_gib.mean};
  return out;
}

/// The cells of a spec in Campaign::run's order (recipes > sizes >
/// paradigms), for the default single seed and scheduling mode.
std::vector<core::ExperimentConfig> spec_cells(const core::CampaignSpec& spec) {
  std::vector<core::ExperimentConfig> cells;
  for (const std::string& recipe : spec.recipes) {
    for (const std::size_t size : spec.sizes) {
      for (const core::Paradigm paradigm : spec.paradigms) {
        core::ExperimentConfig config;
        config.paradigm = paradigm;
        config.recipe = recipe;
        config.num_tasks = size;
        config.seed = spec.seed;
        config.cpu_work = spec.cpu_work;
        config.wfm = spec.wfm;
        cells.push_back(std::move(config));
      }
    }
  }
  return cells;
}

/// The traced replications cover the paper's data path only: the knobs
/// below must be at their defaults.
void require_paper_path(const core::ExperimentConfig& config) {
  if (config.backend != core::DataBackend::kSharedDrive || config.sim_shards != 1 ||
      config.data_cache_mb_per_node != 0 || config.storage_nodes != 0 ||
      config.tenant_quota != 0 || config.tenant_queue_limit != 0 || config.fair_dequeue ||
      config.knative_spec_override || config.local_config_override ||
      !config.trace_path.empty() || !config.collect_metrics) {
    throw std::invalid_argument("traced cell: only the paper's default data path is replicated");
  }
}

/// Steps the simulation the way ExperimentRunner does: one event at a time
/// until the run is done, the queue drains or the deadline passes.
/// `every_steps` (may be empty) runs after every kStepsPerCall events.
void step_until_done(sim::Simulation& simulation, const core::RunHandle& handle,
                     sim::SimTime deadline, const std::function<void()>& every_steps = {}) {
  constexpr std::uint64_t kStepsPerCall = 4096;
  std::uint64_t steps = 0;
  while (!handle.done() && !simulation.idle() && simulation.now() < deadline) {
    simulation.step(1);
    if (every_steps && ++steps % kStepsPerCall == 0) every_steps();
  }
}


}  // namespace

// ---- paper-campaign ---------------------------------------------------------

std::vector<core::CampaignSpec> campaign_specs(std::uint64_t seed, bool smoke) {
  std::vector<core::CampaignSpec> specs = {core::paper_fine_grained_campaign(),
                                           core::paper_coarse_grained_campaign()};
  for (core::CampaignSpec& spec : specs) {
    spec.seed = seed;
    spec.jobs = 1;
  }
  if (smoke) {
    for (core::CampaignSpec& spec : specs) spec.recipes = {"blast", "bwa"};
    specs[0].sizes = {20, 80};
    specs[1].sizes = {100};
  }
  return specs;
}

PassResult run_campaign(const std::vector<core::CampaignSpec>& specs,
                        const std::function<void(double)>& between_cells) {
  PassResult pass;
  for (const core::CampaignSpec& spec : specs) {
    core::Campaign campaign(spec);
    auto last = SteadyClock::now();
    campaign.run([&](const core::ExperimentResult& result) {
      pass.cell_seconds.push_back(seconds_since(last));
      pass.cell_sizes.push_back(result.config.num_tasks);
      if (between_cells) between_cells(pass.cell_seconds.back());
      last = SteadyClock::now();
    });
    for (const core::ExperimentResult& result : campaign.results()) {
      pass.outcomes.push_back(cell_outcome(result));
      pass.tasks += result.run.tasks.size();
    }
  }
  return pass;
}

TracedPass run_campaign_traced(const std::vector<core::CampaignSpec>& specs) {
  TracedPass total;
  for (const core::CampaignSpec& spec : specs) {
    for (const core::ExperimentConfig& config : spec_cells(spec)) {
      const auto start = SteadyClock::now();
      TracedPass cell = run_cell_traced(config);
      total.result.cell_seconds.push_back(seconds_since(start));
      total.result.cell_sizes.push_back(config.num_tasks);
      total.result.outcomes.push_back(cell.result.outcomes.front());
      total.result.tasks += cell.result.tasks;
      for (std::size_t i = 0; i < kLayerCount; ++i) total.layers[i].add(cell.layers[i]);
      total.calls.generate_s += cell.calls.generate_s;
      total.calls.translate_s += cell.calls.translate_s;
      total.calls.plan_s += cell.calls.plan_s;
      total.calls.run_s += cell.calls.run_s;
      total.registry.storage_ops += cell.registry.storage_ops;
      total.registry.http_requests += cell.registry.http_requests;
      total.registry.pods_created += cell.registry.pods_created;
      total.registry.activator_buffered += cell.registry.activator_buffered;
    }
  }
  return total;
}

// ---- single cells -----------------------------------------------------------

core::ExperimentConfig coarse_cell(std::uint64_t seed, std::size_t tasks) {
  core::ExperimentConfig config;
  config.paradigm = core::Paradigm::kKn1000wPM;
  config.recipe = "blast";
  config.num_tasks = tasks;
  config.seed = seed;
  config.deadline_seconds = kLiftedDeadlineSeconds;
  return config;
}

PassResult run_cell(const core::ExperimentConfig& config) {
  const core::ExperimentResult result = core::run_experiment(config);
  PassResult pass;
  pass.outcomes.push_back(cell_outcome(result));
  pass.tasks = result.run.tasks.size();
  return pass;
}

// Mirrors core::ExperimentRunner::run on the paper's data path (shared
// drive, no cache, one event queue), statement for statement where order
// reaches the event queue, with each module on its own LayerContext.
TracedPass run_cell_traced(const core::ExperimentConfig& config) {
  require_paper_path(config);
  TracedPass traced;
  CallTimes& calls = traced.calls;
  const core::ParadigmInfo& paradigm = core::paradigm_info(config.paradigm);

  Engine engine(&traced.layers);
  wfs::obs::TraceRecorder recorder;  // disabled, wired as the runner wires it
  wfs::metrics::MetricsRegistry registry;
  wfs::cluster::Cluster cluster = wfs::cluster::Cluster::paper_testbed(engine.at(Layer::kCluster));
  wfs::storage::SharedFilesystem fs(engine.at(Layer::kStorage));
  fs.set_metrics(&registry);
  wfs::net::Router router(engine.at(Layer::kNet), wfs::net::NetworkConfig{}, config.seed);
  router.set_trace(&recorder);
  router.set_metrics(&registry);

  wfc::GenerateOptions gen;
  gen.num_tasks = config.num_tasks;
  gen.seed = config.seed;
  gen.cpu_work = config.cpu_work;
  gen.data_scale = config.data_scale;
  wfc::Workflow workflow =
      timed(&calls.generate_s, [&] { return wfc::make_recipe(config.recipe)->generate(gen); });

  std::unique_ptr<wfs::faas::KnativePlatform> knative;
  std::unique_ptr<wfs::containers::LocalContainerRuntime> local;
  if (paradigm.serverless) {
    const wfs::faas::KnativeServiceSpec spec =
        core::knative_spec_for(config.paradigm, config.shape);
    wfc::KnativeTranslatorConfig tconfig;
    tconfig.service_url = "http://" + spec.authority + "/wfbench";
    tconfig.workdir = config.wfm.workdir;
    timed(&calls.translate_s, [&] { wfc::KnativeTranslator(tconfig).apply(workflow); });
    knative = std::make_unique<wfs::faas::KnativePlatform>(engine.at(Layer::kFaas), cluster, fs,
                                                           router, spec);
    knative->set_trace(&recorder);
    knative->set_metrics(&registry);
    knative->deploy();
  } else {
    const wfs::containers::LocalRuntimeConfig lconfig =
        core::local_config_for(config.paradigm, config.shape);
    wfc::LocalContainerTranslatorConfig tconfig;
    tconfig.endpoint_url = "http://" + lconfig.authority + "/wfbench";
    tconfig.workdir = config.wfm.workdir;
    timed(&calls.translate_s, [&] { wfc::LocalContainerTranslator(tconfig).apply(workflow); });
    local = std::make_unique<wfs::containers::LocalContainerRuntime>(
        engine.at(Layer::kContainers), cluster, fs, router, lconfig);
    local->start();
  }

  wfs::metrics::Sampler sampler(engine.at(Layer::kMetrics),
                                sim::from_seconds(config.sample_period_seconds));
  sampler.add_probe("cpu_pct", [&cluster] { return cluster.cpu_fraction() * 100.0; });
  sampler.add_probe("mem_gib",
                    [&cluster] { return static_cast<double>(cluster.resident_memory()) / kGiB; });
  sampler.add_probe("power_w", [&cluster] { return cluster.power_watts(); });
  sampler.add_probe("pods", [&]() -> double {
    if (knative) return knative->ready_pods();
    return local ? static_cast<double>(local->container_count()) : 0.0;
  });
  sampler.sample_now();
  sampler.start();

  core::WorkflowManager wfm(engine.at(Layer::kCore), router, fs);
  wfm.set_trace(&recorder);
  wfm.set_metrics(&registry);
  std::optional<core::WorkflowRunResult> run_result;
  core::ExecutionPlan plan =
      timed(&calls.plan_s, [&] { return core::build_plan(workflow, config.wfm.workdir); });
  const sim::SimTime deadline = sim::from_seconds(config.deadline_seconds);
  timed(&calls.run_s, [&] {
    const core::RunHandle handle = wfm.run(
        std::move(plan),
        [&run_result, &sampler](core::WorkflowRunResult r) {
          run_result = std::move(r);
          sampler.sample_now();
          sampler.stop();
        },
        config.wfm);
    step_until_done(engine.sim(), handle, deadline);
  });

  Outcome out;
  out.id = cell_id(paradigm.name, config.recipe, config.num_tasks);
  double makespan = sim::to_seconds(engine.sim().now());
  if (run_result.has_value()) {
    out.ok = run_result->ok();
    out.counts = {run_result->tasks_total, run_result->tasks_failed, run_result->tasks.size()};
    makespan = run_result->makespan_seconds;
    traced.result.tasks = run_result->tasks.size();
  } else {
    sampler.stop();
  }
  out.values = {makespan, wfs::metrics::summarize(sampler.series("cpu_pct")).mean,
                wfs::metrics::summarize(sampler.series("mem_gib")).mean};
  traced.result.outcomes.push_back(std::move(out));

  if (knative) knative->shutdown();
  if (local) local->shutdown();
  add_registry(traced.registry, registry.snapshot());
  return traced;
}

// ---- document-20k -----------------------------------------------------------

wfc::Workflow translated_blast(std::uint64_t seed, std::size_t tasks, CallTimes* calls) {
  wfc::GenerateOptions gen;
  gen.num_tasks = tasks;
  gen.seed = seed;
  wfc::Workflow workflow = timed(calls != nullptr ? &calls->generate_s : nullptr,
                                 [&] { return wfc::make_recipe("blast")->generate(gen); });
  // Translated straight for the deployment run_document stands up, so its
  // api_url rewrite leaves the parsed document equal to this workflow.
  wfc::KnativeTranslatorConfig tconfig;
  tconfig.service_url =
      "http://" + core::knative_spec_for(core::Paradigm::kKn10wNoPM).authority + "/wfbench";
  timed(calls != nullptr ? &calls->translate_s : nullptr,
        [&] { wfc::KnativeTranslator(tconfig).apply(workflow); });
  return workflow;
}

std::string write_document(const wfc::Workflow& workflow, CallTimes* calls) {
  std::string text = timed(calls != nullptr ? &calls->write_s : nullptr, [&] {
    return wfc::write_workflow(workflow, wfc::ArgsStyle::kKeyValue);
  });
  if (calls != nullptr) calls->doc_bytes += text.size();
  return text;
}

// The wfm_runner path: parse, deploy the paper's pick (Kn10wNoPM), point
// every api_url at it, sample CPU and run the WFM.
void Laps::offer(double min_seconds) {
  const double seconds = seconds_since(last_);
  if (seconds < min_seconds) return;
  lap_(seconds);
  last_ = SteadyClock::now();
}

DocumentRun run_document(const std::string& document, TracedPass* traced, Laps* laps) {
  constexpr double kMinLapSeconds = 0.1;
  CallTimes* calls = traced != nullptr ? &traced->calls : nullptr;
  DocumentRun out;
  wfc::Workflow workflow = timed(calls != nullptr ? &calls->parse_s : nullptr,
                                 [&] { return wfc::parse_workflow(document); });
  if (laps != nullptr) laps->offer();

  Engine engine(traced != nullptr ? &traced->layers : nullptr);
  wfs::obs::TraceRecorder recorder;
  wfs::metrics::MetricsRegistry registry;
  wfs::cluster::Cluster cluster = wfs::cluster::Cluster::paper_testbed(engine.at(Layer::kCluster));
  wfs::storage::SharedFilesystem fs(engine.at(Layer::kStorage));
  fs.set_metrics(&registry);
  wfs::net::Router router(engine.at(Layer::kNet));
  router.set_trace(&recorder);
  router.set_metrics(&registry);

  const wfs::faas::KnativeServiceSpec spec = core::knative_spec_for(core::Paradigm::kKn10wNoPM);
  wfs::faas::KnativePlatform knative(engine.at(Layer::kFaas), cluster, fs, router, spec);
  knative.set_trace(&recorder);
  knative.set_metrics(&registry);
  knative.deploy();
  const std::string endpoint = "http://" + spec.authority + "/wfbench";
  for (wfc::Task& task : workflow.tasks()) task.api_url = endpoint;

  wfs::metrics::Sampler sampler(engine.at(Layer::kMetrics));
  sampler.add_probe("cpu", [&cluster] { return cluster.cpu_fraction() * 100.0; });
  sampler.add_probe("mem", [&cluster] {
    return static_cast<double>(cluster.resident_memory()) / kGiB;
  });
  sampler.sample_now();
  sampler.start();

  const core::WfmConfig wfm_config;
  core::WorkflowManager wfm(engine.at(Layer::kCore), router, fs, wfm_config);
  wfm.set_trace(&recorder);
  wfm.set_metrics(&registry);
  std::optional<core::WorkflowRunResult> result;
  core::ExecutionPlan plan = timed(calls != nullptr ? &calls->plan_s : nullptr,
                                   [&] { return core::build_plan(workflow, wfm_config.workdir); });
  timed(calls != nullptr ? &calls->run_s : nullptr, [&] {
    const core::RunHandle handle = wfm.run(std::move(plan), [&](core::WorkflowRunResult r) {
      result = std::move(r);
      sampler.sample_now();
      sampler.stop();
    });
    std::function<void()> every_steps;
    if (laps != nullptr) every_steps = [&] { laps->offer(kMinLapSeconds); };
    step_until_done(engine.sim(), handle, sim::from_seconds(kLiftedDeadlineSeconds),
                    every_steps);
  });

  Outcome outcome;
  outcome.id = "Kn10wNoPM/" + workflow.name() + "/" + std::to_string(workflow.size());
  if (result.has_value()) {
    outcome.ok = result->ok();
    outcome.counts = {result->tasks_total, result->tasks_failed, result->tasks.size()};
    outcome.values = {result->makespan_seconds,
                      wfs::metrics::summarize(sampler.series("cpu")).mean,
                      wfs::metrics::summarize(sampler.series("mem")).mean};
    out.result.tasks = result->tasks.size();
  }
  out.result.outcomes.push_back(std::move(outcome));
  out.parsed = std::move(workflow);
  knative.shutdown();
  if (traced != nullptr) add_registry(traced->registry, registry.snapshot());
  return out;
}

std::size_t round_trip_mismatches(const wfc::Workflow& original, const wfc::Workflow& parsed) {
  if (original.size() != parsed.size()) return std::max(original.size(), parsed.size());
  std::size_t mismatches = original.name() == parsed.name() ? 0 : 1;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const wfc::Task& a = original.tasks()[i];
    const wfc::Task& b = parsed.tasks()[i];
    const bool same = a.name == b.name && a.id == b.id && a.category == b.category &&
                      a.type == b.type && a.program == b.program &&
                      a.percent_cpu == b.percent_cpu && a.cpu_work == b.cpu_work &&
                      a.memory_bytes == b.memory_bytes && a.cores == b.cores &&
                      a.runtime_seconds == b.runtime_seconds && a.parents == b.parents &&
                      a.children == b.children && a.files == b.files && a.api_url == b.api_url;
    if (!same) ++mismatches;
  }
  return mismatches;
}

// ---- tenant-traffic ---------------------------------------------------------

wfs::load::TrafficConfig traffic_config(std::uint64_t seed, double window_seconds) {
  wfs::load::TrafficConfig config;
  config.tenants = {{"alice", "blast", 10, 1.0, 1.0}, {"bob", "cycles", 10, 1.0, 1.0}};
  config.offered_load_rps = 0.3;
  config.window_seconds = window_seconds;
  config.drain_seconds = 2.0 * window_seconds;
  config.cpu_work = 50.0;
  config.seed = seed;
  config.tenant_quota = 48;
  config.tenant_queue_limit = 0;
  config.fair_dequeue = true;
  return config;
}

namespace {

/// Per-tenant arrival instants, drawn exactly as load::run_traffic draws
/// them (one fork of the root seed per tenant, Poisson).
std::vector<std::vector<double>> traffic_arrivals(const wfs::load::TrafficConfig& config) {
  if (config.arrival != wfs::load::ArrivalProcess::kPoisson) {
    throw std::invalid_argument("traffic: only Poisson arrivals are replicated");
  }
  double total_share = 0.0;
  for (const wfs::load::TenantSpec& tenant : config.tenants) {
    total_share += std::max(tenant.rate_share, 0.0);
  }
  wfs::support::Rng root(config.seed);
  std::vector<std::vector<double>> arrivals;
  for (const wfs::load::TenantSpec& tenant : config.tenants) {
    wfs::support::Rng stream = root.fork();
    const double rate = config.offered_load_rps * std::max(tenant.rate_share, 0.0) / total_share;
    arrivals.push_back(wfs::load::poisson_arrivals(stream, rate, config.window_seconds));
  }
  return arrivals;
}

wfc::Workflow tenant_workflow(const wfs::load::TrafficConfig& config, std::size_t i,
                              double* generate_s) {
  wfc::GenerateOptions options;
  options.num_tasks = config.tenants[i].num_tasks;
  options.seed = config.seed + i;
  options.cpu_work = config.cpu_work;
  return timed(generate_s,
               [&] { return wfc::make_recipe(config.tenants[i].recipe)->generate(options); });
}

/// load::run_traffic's percentile: interpolated rank over a sorted vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

std::vector<Outcome> traffic_outcomes(const wfs::load::TrafficResult& result,
                                      double window_seconds) {
  const std::string prefix = "window" + std::to_string(std::lround(window_seconds));
  std::vector<Outcome> outcomes;
  for (const wfs::load::TenantStats& tenant : result.tenants) {
    Outcome out;
    out.id = prefix + "/tenant/" + tenant.name;
    out.ok = tenant.submitted == tenant.completed + tenant.failed;
    out.counts = {tenant.submitted, tenant.completed, tenant.failed};
    out.values = {tenant.mean_makespan_seconds, tenant.p50_makespan_seconds,
                  tenant.p99_makespan_seconds};
    outcomes.push_back(std::move(out));
  }
  Outcome window;
  window.id = prefix;
  window.ok = result.ok();
  window.counts = {result.submitted, result.completed, result.cold_starts};
  window.values = {result.goodput_rps, result.jain_fairness, result.wall_seconds};
  outcomes.push_back(std::move(window));
  return outcomes;
}

}  // namespace

TrafficPlan plan_traffic(const wfs::load::TrafficConfig& config) {
  TrafficPlan plan;
  for (const std::vector<double>& arrivals : traffic_arrivals(config)) {
    plan.runs.push_back(arrivals.size());
  }
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    plan.tasks_per_run.push_back(tenant_workflow(config, i, nullptr).size());
  }
  return plan;
}

PassResult run_traffic(const wfs::load::TrafficConfig& config, const TrafficPlan& plan) {
  const wfs::load::TrafficResult result = wfs::load::run_traffic(config);
  PassResult pass;
  pass.outcomes = traffic_outcomes(result, config.window_seconds);
  // A drained window finished every run it admitted, so every task of every
  // submitted run reached a terminal state.
  for (std::size_t i = 0; i < result.tenants.size() && result.drained; ++i) {
    pass.tasks += (result.tenants[i].completed + result.tenants[i].failed) * plan.tasks_per_run[i];
  }
  return pass;
}

// Mirrors load::run_traffic for Poisson arrivals on one event queue, with
// each module on its own LayerContext and the arrival schedule on `load`.
TracedPass run_traffic_traced(const wfs::load::TrafficConfig& config) {
  if (config.sim_shards != 1 || config.tenants.empty()) {
    throw std::invalid_argument("traced traffic: one event queue and at least one tenant");
  }
  TracedPass traced;
  CallTimes& calls = traced.calls;
  Engine engine(&traced.layers);
  wfs::cluster::Cluster cluster = wfs::cluster::Cluster::paper_testbed(engine.at(Layer::kCluster));
  wfs::storage::SharedFilesystem fs(engine.at(Layer::kStorage));
  wfs::net::Router router(engine.at(Layer::kNet), wfs::net::NetworkConfig{}, config.seed);

  wfs::faas::KnativeServiceSpec spec = core::knative_spec_for(config.paradigm, config.shape);
  spec.admission.tenant_inflight_limit = config.tenant_quota;
  spec.admission.tenant_queue_limit = config.tenant_queue_limit;
  spec.admission.fair_dequeue = config.fair_dequeue;
  for (const wfs::load::TenantSpec& tenant : config.tenants) {
    if (tenant.weight != 1.0) spec.admission.weights[tenant.name] = tenant.weight;
  }
  wfs::faas::KnativePlatform knative(engine.at(Layer::kFaas), cluster, fs, router, spec);
  wfs::metrics::MetricsRegistry registry;
  knative.set_metrics(&registry);
  knative.deploy();
  const std::string endpoint = "http://" + spec.authority + "/wfbench";

  std::vector<wfc::Workflow> workflows;
  std::vector<wfs::metrics::Histogram*> makespan_hists;
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    wfc::Workflow wf = tenant_workflow(config, i, &calls.generate_s);
    for (wfc::Task& task : wf.tasks()) task.api_url = endpoint;
    workflows.push_back(std::move(wf));
    makespan_hists.push_back(&registry.histogram(
        "tenant_makespan_seconds", "Per-tenant workflow makespan distribution",
        {{"tenant", config.tenants[i].name}}));
  }
  const std::vector<std::vector<double>> arrivals = traffic_arrivals(config);

  wfs::load::TrafficResult result;
  result.tenants.resize(config.tenants.size());
  std::vector<std::vector<double>> makespans(config.tenants.size());
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    result.tenants[i].name = config.tenants[i].name;
    result.tenants[i].weight = config.tenants[i].weight;
    result.tenants[i].submitted = arrivals[i].size();
    result.submitted += arrivals[i].size();
  }

  core::WorkflowManager wfm(engine.at(Layer::kCore), router, fs, config.wfm);
  wfm.set_metrics(&registry);
  std::size_t remaining = result.submitted;
  const auto record = [&](std::size_t i, core::WorkflowRunResult run) {
    wfs::load::TenantStats& stats = result.tenants[i];
    traced.result.tasks += run.tasks.size();
    if (run.ok()) {
      ++stats.completed;
      makespans[i].push_back(run.makespan_seconds);
      makespan_hists[i]->observe(run.makespan_seconds);
    } else {
      ++stats.failed;
    }
    --remaining;
  };

  // The WFM builds each run's plan itself; planning cost is timed once per
  // tenant workflow so core.plan_s stays comparable with the other passes.
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    const std::string& workdir = config.wfm.workdir;
    timed(&calls.plan_s, [&] { return core::build_plan(workflows[i], workdir); });
  }
  sim::Context& load = engine.at(Layer::kLoad);
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    core::WfmConfig run_config = config.wfm;
    run_config.tenant = config.tenants[i].name;
    run_config.task_retries = config.task_retries;
    for (const double at : arrivals[i]) {
      load.schedule_in(sim::from_seconds(at), [&wfm, &workflows, &record, i, run_config] {
        wfm.run(workflows[i],
                [&record, i](core::WorkflowRunResult run) { record(i, std::move(run)); },
                run_config);
      });
    }
  }

  const sim::SimTime deadline = sim::from_seconds(config.window_seconds + config.drain_seconds);
  timed(&calls.run_s, [&] { engine.sim().run_until(deadline); });

  result.drained = remaining == 0;
  result.wall_seconds = sim::to_seconds(engine.sim().now());
  result.cold_starts = knative.stats().pods_created;
  std::vector<double> fair_share;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    wfs::load::TenantStats& stats = result.tenants[i];
    stats.failed += stats.submitted - stats.completed - stats.failed;
    std::sort(makespans[i].begin(), makespans[i].end());
    if (!makespans[i].empty()) {
      double sum = 0.0;
      for (const double m : makespans[i]) sum += m;
      stats.mean_makespan_seconds = sum / static_cast<double>(makespans[i].size());
      stats.p50_makespan_seconds = percentile(makespans[i], 0.50);
      stats.p99_makespan_seconds = percentile(makespans[i], 0.99);
    }
    stats.goodput_rps = static_cast<double>(stats.completed) / config.window_seconds;
    result.completed += stats.completed;
    result.failed += stats.failed;
    if (stats.submitted > 0) fair_share.push_back(stats.goodput_rps / std::max(stats.weight, 1e-9));
  }
  result.goodput_rps = static_cast<double>(result.completed) / config.window_seconds;
  result.jain_fairness = wfs::metrics::jain_fairness(fair_share);
  traced.result.outcomes = traffic_outcomes(result, config.window_seconds);

  knative.shutdown();
  add_registry(traced.registry, registry.snapshot());
  return traced;
}

}  // namespace e2e
