// Per-layer host accounting from outside the program.
//
// Every substrate constructor takes a `sim::Context&`. A traced run hands
// each module its own LayerContext, all forwarding to one shared
// `sim::Simulation`, so every event a module schedules, cancels or has
// dispatched is counted and timed against that module without touching the
// library. Forwarding preserves the order of calls into the shared queue,
// so a traced run reproduces the untraced run's simulated outcome exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "sim/context.h"
#include "sim/simulation.h"

namespace e2e {

/// The modules that own a `sim::Context` in the stacks the benchmark builds.
/// `load` is the arrival schedule of a traffic window.
enum class Layer { kCluster, kStorage, kNet, kFaas, kContainers, kMetrics, kCore, kLoad };
inline constexpr std::size_t kLayerCount = 8;
inline constexpr std::array<std::string_view, kLayerCount> kLayerNames = {
    "cluster", "storage", "net", "faas", "containers", "metrics", "core", "load"};

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

struct LayerStats {
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;   // successful cancels only
  std::uint64_t dispatched = 0;
  double dispatch_s = 0.0;       // inclusive host time inside dispatched callbacks
  double queue_s = 0.0;          // host time inside schedule/cancel calls

  void add(const LayerStats& other) {
    scheduled += other.scheduled;
    cancelled += other.cancelled;
    dispatched += other.dispatched;
    dispatch_s += other.dispatch_s;
    queue_s += other.queue_s;
  }
};

using LayerTable = std::array<LayerStats, kLayerCount>;

class LayerContext final : public wfs::sim::Context {
 public:
  LayerContext(wfs::sim::Context& inner, LayerStats& stats) : inner_(inner), stats_(stats) {}

  [[nodiscard]] wfs::sim::SimTime now() const noexcept override { return inner_.now(); }

  wfs::sim::EventId schedule_in(wfs::sim::SimTime delay,
                                wfs::sim::EventQueue::Callback fn) override {
    const auto start = SteadyClock::now();
    ++stats_.scheduled;
    const wfs::sim::EventId id = inner_.schedule_in(delay, wrap(std::move(fn)));
    stats_.queue_s += seconds_since(start);
    return id;
  }

  wfs::sim::EventId schedule_at(wfs::sim::SimTime at,
                                wfs::sim::EventQueue::Callback fn) override {
    const auto start = SteadyClock::now();
    ++stats_.scheduled;
    const wfs::sim::EventId id = inner_.schedule_at(at, wrap(std::move(fn)));
    stats_.queue_s += seconds_since(start);
    return id;
  }

  bool cancel(wfs::sim::EventId id) override {
    const auto start = SteadyClock::now();
    const bool cancelled = inner_.cancel(id);
    if (cancelled) ++stats_.cancelled;
    stats_.queue_s += seconds_since(start);
    return cancelled;
  }

 private:
  wfs::sim::EventQueue::Callback wrap(wfs::sim::EventQueue::Callback fn) {
    return [&stats = stats_, fn = std::move(fn)] {
      ++stats.dispatched;
      const auto start = SteadyClock::now();
      fn();
      stats.dispatch_s += seconds_since(start);
    };
  }

  wfs::sim::Context& inner_;
  LayerStats& stats_;
};

/// One simulation plus the context each layer programs against: the
/// simulation itself (untraced) or a LayerContext per layer (traced).
/// `table` must outlive every event the simulation still holds.
class Engine {
 public:
  explicit Engine(LayerTable* table) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      if (table != nullptr) wrappers_[i] = std::make_unique<LayerContext>(sim_, (*table)[i]);
    }
  }

  [[nodiscard]] wfs::sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] wfs::sim::Context& at(Layer layer) noexcept {
    const auto i = static_cast<std::size_t>(layer);
    if (wrappers_[i]) return *wrappers_[i];
    return sim_;
  }

 private:
  wfs::sim::Simulation sim_;
  std::array<std::unique_ptr<LayerContext>, kLayerCount> wrappers_;
};

}  // namespace e2e
