#include "mt/arena.hpp"

#include "parallel/fault.hpp"
#include "parallel/worker_local.hpp"

namespace psclip::mt {
namespace {

par::WorkerLocal<seq::VattiScratch>& registry() {
  static par::WorkerLocal<seq::VattiScratch> r;
  return r;
}

}  // namespace

seq::VattiScratch& worker_arena() {
  par::fault::inject(par::fault::Site::kArena);
  return registry().local();
}

std::size_t worker_arena_count() { return registry().slots(); }

}  // namespace psclip::mt
