#include "core/scanbeam.hpp"

#include <utility>

namespace psclip::core {

ScanbeamPartition partition_scanbeams(par::ThreadPool& pool,
                                      const seq::BoundTable& bt,
                                      std::vector<double> ys) {
  ScanbeamPartition part;
  part.ys = std::move(ys);
  if (part.ys.size() < 2) {
    part.offsets.assign(1, 0);
    return part;
  }

  std::vector<std::pair<double, double>> ranges(bt.edges.size());
  pool.parallel_for(
      bt.edges.size(),
      [&](std::size_t i) {
        ranges[i] = {bt.edges[i].bot.y, bt.edges[i].top.y};
      },
      /*grain=*/1024);

  const auto tree =
      segtree::SegmentTree::build(pool, part.ys, ranges);
  auto stab = tree.stab_all(pool);
  part.offsets = std::move(stab.offsets);
  part.edge_ids = std::move(stab.ids);
  return part;
}

}  // namespace psclip::core
