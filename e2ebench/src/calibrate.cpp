#include "calibrate.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {
namespace {

constexpr std::size_t kTableSlots = std::size_t{1} << 17;  // 1 MiB of keys
constexpr std::uint64_t kTableMask = kTableSlots - 1;
constexpr std::size_t kProbeLimit = 4;
constexpr std::size_t kMaxPending = std::size_t{1} << 14;  // heap entries
constexpr std::uint32_t kIds = 1u << 16;
constexpr int kSteps = 300000;
constexpr int kChurnRounds = 6;
constexpr int kChurnItems = 5000;

struct Event {
  double time;
  std::uint32_t id;
  std::uint32_t kind;
};

/// Heap order: the earliest event on top, ties by id.
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.time > b.time || (a.time == b.time && a.id > b.id);
  }
};

/// The event half's memory, allocated once so that it does not depend on
/// the state of the program's heap.
struct State {
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kTableSlots);
  std::vector<std::uint8_t> cancelled = std::vector<std::uint8_t>(kIds);
  std::vector<Event> heap;
  std::uint64_t rng = 0;
  std::uint64_t sink = 0;
  std::uint32_t next_id = 0;

  State() { heap.reserve(kMaxPending); }
};

std::uint64_t next(std::uint64_t& x) {  // splitmix64
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void probe(State& s, std::uint64_t key) {
  for (std::size_t i = 0; i < kProbeLimit; ++i) {
    if (s.table[(key + i) & kTableMask] == key) {
      ++s.sink;
      return;
    }
  }
}

void insert(State& s, std::uint64_t key) {
  std::size_t i = 0;
  while (i + 1 < kProbeLimit && s.table[(key + i) & kTableMask] != 0) ++i;
  s.table[(key + i) & kTableMask] = key;
}

void touch(State& s, std::uint64_t key) { s.table[key & kTableMask] ^= key; }

using Handler = void (*)(State&, std::uint64_t);
constexpr std::array<Handler, 3> kHandlers = {probe, insert, touch};

/// Schedules one event up to 1 simulated second ahead; a third of the
/// events are cancelled before they fire.
void schedule(State& s, double now) {
  const std::uint64_t r = next(s.rng);
  const std::uint32_t id = s.next_id++ % kIds;
  s.cancelled[id] = (r & 0xff) < 85 ? 1 : 0;
  s.heap.push_back({now + static_cast<double>(r >> 44) * 1e-6, id,
                    static_cast<std::uint32_t>((r >> 8) % kHandlers.size())});
  std::push_heap(s.heap.begin(), s.heap.end(), Later{});
}

void run_kernel(State& s) {
  std::fill(s.table.begin(), s.table.end(), 0);
  s.heap.clear();
  s.rng = 1;
  s.next_id = 0;
  double now = 0.0;
  for (std::size_t i = 0; i < kMaxPending / 2; ++i) schedule(s, now);
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(s.heap.begin(), s.heap.end(), Later{});
    const Event event = s.heap.back();
    s.heap.pop_back();
    now = event.time;
    if (s.cancelled[event.id] == 0) kHandlers[event.kind](s, next(s.rng));
    schedule(s, now);
    if (s.heap.size() < kMaxPending) schedule(s, now);
  }
}

/// Builds, searches and tears down node-based containers of small strings
/// and vectors, as assembling a testbed or a workflow does. Its working set
/// is about 1 MiB, and every allocation is freed before it returns.
std::uint64_t churn() {
  std::uint64_t rng = 7;
  std::uint64_t sink = 0;
  for (int round = 0; round < kChurnRounds; ++round) {
    std::map<std::uint64_t, std::string> names;
    std::vector<std::vector<std::uint32_t>> lists;
    for (int i = 0; i < kChurnItems; ++i) {
      const std::uint64_t key = next(rng);
      names.emplace(key, std::string(24 + key % 40, static_cast<char>('a' + key % 26)));
      lists.emplace_back(key % 24, static_cast<std::uint32_t>(key));
    }
    for (const std::vector<std::uint32_t>& list : lists) {
      const auto it = names.lower_bound(next(rng));
      if (it != names.end()) sink += it->second.size() + list.size();
    }
  }
  return sink;
}

}  // namespace

double HostSpeed::calibrate() {
  static State state;
  const auto start = std::chrono::steady_clock::now();
  run_kernel(state);
  state.sink += churn();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // The sink keeps the work from being optimized away.
  if (state.sink == ~std::uint64_t{0}) state.sink = 0;
  return seconds;
}

HostSpeed::HostSpeed() : calibrations_{calibrate()} {}

std::size_t HostSpeed::add(double seconds) {
  times_.push_back(seconds);
  closed_by_.push_back(calibrations_.size());
  open_seconds_ += seconds;
  if (open_seconds_ >= kSegmentSeconds) close();
  return times_.size() - 1;
}

void HostSpeed::close() {
  if (closed_by_.empty() || closed_by_.back() < calibrations_.size()) return;  // none open
  calibrations_.push_back(calibrate());
  open_seconds_ = 0.0;
}

std::vector<double> HostSpeed::normalized() {
  close();
  std::vector<double> out;
  out.reserve(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const std::size_t after = closed_by_[i];
    const double around = 0.5 * (calibrations_[after - 1] + calibrations_[after]);
    out.push_back(times_[i] * kReferenceSeconds / around);
  }
  return out;
}

}  // namespace e2e
