#include "framework/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "framework/runner.hpp"

namespace quicsteps::framework {

namespace {

/// Runs body(0..n-1), each index exactly once, across `jobs` workers
/// pulling indices from one atomic counter; inline on the caller thread
/// when one worker (or one task) suffices. Bodies write only slots
/// preassigned to their index (results[i]), so writes are disjoint by
/// construction and the join publishes them. The first exception thrown
/// by any body is rethrown on the caller. CI's TSan job runs both call
/// sites, run_grid and run_flow_sets.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(jobs, 0)), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        body(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (error == nullptr) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace

int env_jobs(int fallback) {
  return static_cast<int>(
      env_whole_number("QUICSTEPS_JOBS", 1, 1024).value_or(fallback));
}

ParallelRunner::ParallelRunner(int jobs) {
  if (jobs <= 0) jobs = env_jobs(0);
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs_ = jobs > 0 ? jobs : 1;
}

std::vector<RunResult> ParallelRunner::run_all(
    const ExperimentConfig& config) const {
  return run_grid({config}).front();
}

std::vector<std::vector<RunResult>> ParallelRunner::run_grid(
    const std::vector<ExperimentConfig>& configs) const {
  // Flatten the (config, repetition) grid into one task list; each task
  // writes into its preassigned slot, so completion order is irrelevant.
  struct Task {
    std::size_t config;
    int rep;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<RunResult>> results(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const int reps = std::max(configs[c].repetitions, 0);
    results[c].resize(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) tasks.push_back({c, rep});
  }

  parallel_for(tasks.size(), jobs_, [&](std::size_t i) {
    const Task& task = tasks[i];
    const ExperimentConfig& config = configs[task.config];
    results[task.config][static_cast<std::size_t>(task.rep)] =
        Runner::run_once(config,
                         config.seed + static_cast<std::uint64_t>(task.rep));
  });
  return results;
}

std::vector<MultiFlowResult> ParallelRunner::run_flow_sets(
    const std::vector<MultiFlowConfig>& configs) const {
  std::vector<MultiFlowResult> results(configs.size());
  parallel_for(configs.size(), jobs_,
               [&](std::size_t i) { results[i] = run_flows(configs[i]); });
  return results;
}

}  // namespace quicsteps::framework
