// GIS map overlay — the paper's motivating application (§I): intersect an
// urban-areas layer with a states/provinces layer using the
// multi-threaded Algorithm 2 (two layers are two multi-contour inputs),
// report per-phase timings and per-slab loads, and render the overlay to
// SVG.
//
//   $ ./gis_overlay [scale] [threads]
//
// scale defaults to 0.01 of the paper's dataset sizes (Table III);
// threads defaults to the hardware concurrency.

#include <cstdio>
#include <cstdlib>

#include "data/gis_sim.hpp"
#include "geom/geojson.hpp"
#include "geom/svg.hpp"
#include "mt/algorithm2.hpp"
#include "seq/vatti.hpp"

int main(int argc, char** argv) {
  using namespace psclip;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.01;
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 0;

  std::printf("building simulated Table III layers at scale %g...\n", scale);
  const geom::PolygonSet urban = data::make_dataset(1, scale);
  const geom::PolygonSet states = data::make_dataset(2, scale);
  const auto su = data::measure(urban);
  const auto ss = data::measure(states);
  std::printf("  urban : %zu polys, %zu edges\n", su.polys, su.edges);
  std::printf("  states: %zu polys, %zu edges\n", ss.polys, ss.edges);

  par::ThreadPool pool(threads);
  mt::Alg2Stats stats;
  const geom::PolygonSet overlay = mt::slab_clip(
      urban, states, geom::BoolOp::kIntersection, pool, {}, &stats);

  std::printf("\nIntersect(urban, states) with %u threads:\n", pool.size());
  std::printf("  partition %.3f ms, clip %.3f ms, merge %.3f ms\n",
              stats.phases.partition * 1e3, stats.phases.clip * 1e3,
              stats.phases.merge * 1e3);
  std::printf("  %lld output polygons, load imbalance %.2f\n",
              static_cast<long long>(stats.output_contours),
              stats.load_imbalance());
  for (std::size_t i = 0; i < stats.slabs.size(); ++i)
    std::printf("  slab %zu: %.3f ms over %lld edges\n", i,
                stats.slabs[i].seconds * 1e3,
                static_cast<long long>(stats.slabs[i].input_edges));

  // Cross-check against the sequential clipper.
  const double seq_area = geom::signed_area(
      seq::vatti_clip(urban, states, geom::BoolOp::kIntersection));
  std::printf("\narea: parallel %.9f vs sequential %.9f\n",
              geom::signed_area(overlay), seq_area);

  geom::SvgWriter svg(1000);
  svg.add_layer(states, "#d8e2c8", "#7b8f63", 0.8);
  svg.add_layer(urban, "#e0b87e", "#8a6a33", 0.8);
  svg.add_layer(overlay, "#c23b22", "#7a2415", 0.95);
  if (svg.save("gis_overlay.svg"))
    std::printf("wrote gis_overlay.svg (overlay region in red)\n");

  // The overlay also exports as standard GeoJSON (shells/holes nested).
  std::FILE* gj = std::fopen("gis_overlay.geojson", "w");
  if (gj) {
    const std::string doc = geom::to_geojson(overlay);
    std::fwrite(doc.data(), 1, doc.size(), gj);
    std::fclose(gj);
    std::printf("wrote gis_overlay.geojson (%zu bytes)\n", doc.size());
  }
  return 0;
}
