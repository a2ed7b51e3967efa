#include "support/prof.hpp"

namespace hecmine::support::prof {

const char* work_field_name(WorkField field) noexcept {
  switch (field) {
    case WorkField::kSweeps:
      return "sweeps";
    case WorkField::kBestResponseEvals:
      return "best_response_evals";
    case WorkField::kUtilityEvals:
      return "utility_evals";
    case WorkField::kGradientEvals:
      return "gradient_evals";
    case WorkField::kBisectionIters:
      return "bisection_iters";
    case WorkField::kProjectionClips:
      return "projection_clips";
    case WorkField::kConvergenceChecks:
      return "convergence_checks";
    case WorkField::kSoaBytesMoved:
      return "soa_bytes_moved";
  }
  return "unknown";
}

ThreadWorkBlock& WorkProfile::local() {
  const std::thread::id tid = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, block] : blocks_)
    if (id == tid) return *block;
  blocks_.emplace_back(tid, std::make_unique<ThreadWorkBlock>());
  return *blocks_.back().second;
}

WorkCounters WorkProfile::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  WorkCounters sum;
  for (const auto& [id, block] : blocks_) sum += block->snapshot();
  return sum;
}

int WorkProfile::thread_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(blocks_.size());
}

namespace {
thread_local ThreadWorkBlock* t_current_block = nullptr;
}  // namespace

ThreadWorkBlock* current_block() noexcept { return t_current_block; }

ThreadWorkBlock* exchange_current_block(ThreadWorkBlock* block) noexcept {
  ThreadWorkBlock* previous = t_current_block;
  t_current_block = block;
  return previous;
}

}  // namespace hecmine::support::prof
