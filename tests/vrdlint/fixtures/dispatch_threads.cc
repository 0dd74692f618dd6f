// Dispatch-lambda fixture for the transient-pool helper: a lambda
// passed to ParallelForThreads is a dispatch lambda like one passed to
// ThreadPool::ParallelFor. NOT compiled.
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace fixture {

void CaptureByRef(vrddram::Rng& rng, std::vector<double>* out) {
  vrddram::ParallelForThreads(4, out->size(), [&rng, out](std::size_t i) {
    (*out)[i] = rng.NextDouble();
  });
}

void Accumulate(std::vector<double>& xs, double& total) {
  vrddram::ParallelForThreads(0, xs.size(), [&](std::size_t i) {
    total += xs[i];  // accumulation order depends on the schedule
  });
}

void Slots(const std::vector<double>& xs, std::vector<double>* out) {
  vrddram::ParallelForThreads(0, xs.size(), [&](std::size_t i) {
    (*out)[i] = xs[i] * 2.0;  // legal: each task writes its own slot
  });
}

}  // namespace fixture
