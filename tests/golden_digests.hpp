#pragma once

// Golden output digests: the byte-identity oracle of the Vatti sweep, of
// the slab engine that sweeps windows of it, and of Algorithm 1, which
// sweeps its beams.
//
// tests/data/golden_digests.txt holds one line per (input, operator,
// engine): "<input>/<op>/<engine> <16 hex digits>". The engines are
// seq::vatti_clip ("vatti"), mt::slab_clip at 1, 6 and 16 slabs
// ("slab1", "slab6", "slab16") and core::scanbeam_clip ("alg1", not on
// the paper-scale inputs, where it takes seconds per operator); the inputs
// are the 216-case fuzz corpus (tests/fuzz_cases.hpp, under every
// operator, not only the case's own), synthetic_pair(7919, 24000), the
// Table III layers 3 x 4 at scale 0.01, the polygon_field x2 overlay
// bench_vatti_sweep times, and the beam-top edge cases below. A digest is
// FNV-1a over the output's contours in
// order, each folded as its seq::contour_digest plus its hole flag, so it
// changes with any output bit.
//
// A change that alters output on purpose regenerates the table in the same
// change, and its diff is reviewed:
//
//   PSCLIP_REGEN_DIGESTS=1 build/tests/golden_digest_test
//       --gtest_filter=GoldenDigests.TableCoversEveryInput
//
// (one command line).
//
// contour_digest folds in seq::kPrepareDigestVersion, so bumping that
// version also means regenerating.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm1.hpp"
#include "data/gis_sim.hpp"
#include "data/synthetic.hpp"
#include "fuzz_cases.hpp"
#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"
#include "seq/vatti.hpp"

#ifndef PSCLIP_GOLDEN_DIGESTS
#error "PSCLIP_GOLDEN_DIGESTS must name tests/data/golden_digests.txt"
#endif

namespace psclip::golden {

inline constexpr unsigned kSlabCounts[] = {1, 6, 16};

inline std::uint64_t output_digest(const geom::PolygonSet& p) {
  std::uint64_t h = seq::kFnvBasis;
  for (const geom::Contour& c : p.contours) {
    const std::uint64_t d = seq::contour_digest(c, /*is_clip=*/false);
    h = seq::fnv1a(&d, sizeof d, h);
    const unsigned char hole = c.hole ? 1 : 0;
    h = seq::fnv1a(&hole, sizeof hole, h);
  }
  return h;
}

using Table = std::map<std::string, std::uint64_t>;

inline std::string key(const std::string& input, geom::BoolOp op,
                       const std::string& engine) {
  return input + "/" + geom::to_string(op) + "/" + engine;
}

inline std::string slab_engine(unsigned slabs) {
  return "slab" + std::to_string(slabs);
}

/// Call emit(key, digest) for vatti_clip, for slab_clip at every
/// kSlabCounts and, when `alg1`, for scanbeam_clip, under every operator.
template <typename Emit>
void engine_digests(const std::string& input, const geom::PolygonSet& a,
                    const geom::PolygonSet& b, par::ThreadPool& pool,
                    bool alg1, Emit&& emit) {
  for (const geom::BoolOp op : geom::kAllOps) {
    emit(key(input, op, "vatti"), output_digest(seq::vatti_clip(a, b, op)));
    for (const unsigned slabs : kSlabCounts) {
      mt::Alg2Options o;
      o.slabs = slabs;
      emit(key(input, op, slab_engine(slabs)),
           output_digest(mt::slab_clip(a, b, op, pool, o)));
    }
    if (alg1)
      emit(key(input, op, "alg1"),
           output_digest(core::scanbeam_clip(a, b, op, pool)));
  }
}

struct NamedInput {
  std::string name;
  geom::PolygonSet a, b;
};

inline std::string corpus_name(const fuzz::FuzzCase& c) {
  return "corpus/" + std::to_string(c.seed);
}

/// The paper-scale inputs: Fig. 9's 24k-edge pair, Table III layers 3 x 4
/// at scale 0.01, and bench_vatti_sweep's polygon_field x2 overlay.
inline std::vector<NamedInput> large_inputs() {
  std::vector<NamedInput> v;
  const auto pair = data::synthetic_pair(7919, 24000);
  v.push_back({"pair24k", pair.subject, pair.clip});
  v.push_back(
      {"table3", data::make_dataset(3, 0.01), data::make_dataset(4, 0.01)});
  v.push_back({"field4000", data::polygon_field(9001, 4000, 100.0, 12),
               data::polygon_field(9002, 4000, 100.0, 10)});
  return v;
}

/// Inputs that drive the beam-top step through its rare paths. Each
/// breaks general position on purpose at one scanline, the way exactly
/// shared vertices in real data do.
inline std::vector<NamedInput> top_step_inputs() {
  std::vector<NamedInput> v;
  {
    // A local maximum whose partner is not adjacent: the clip bound
    // passes through the subject's apex (0, 1) and continues, so at y = 1
    // the three edges tie in x and the clip edge stays between the two
    // subject edges that end there.
    NamedInput in{"top/stray_between_partners", {}, {}};
    in.a.add({{-1.0, 0.0}, {1.0, 0.1}, {0.0, 1.0}});
    in.b.add({{0.1, -0.5}, {0.0, 1.0}, {-0.3, 2.0}, {-2.0, 0.3}});
    v.push_back(std::move(in));
  }
  {
    // Several maxima on one scanline (a comb whose three teeth peak at
    // y = 1), and six bounds ending at one point: two subject triangles
    // and one clip triangle share the apex (5, 1).
    NamedInput in{"top/shared_scanline_and_apex", {}, {}};
    in.a.add({{0.0, 0.0}, {0.5, 1.0}, {1.0, 0.3}, {1.5, 1.0}, {2.0, 0.3},
              {2.5, 1.0}, {3.0, 0.0}, {1.5, -1.0}});
    in.a.add({{4.0, 0.0}, {5.5, 0.2}, {5.0, 1.0}});
    in.a.add({{4.4, -0.3}, {6.0, 0.05}, {5.0, 1.0}});
    in.b.add({{-0.5, 0.5}, {3.5, 0.6}, {1.4, 2.0}});
    in.b.add({{4.2, 0.4}, {5.9, 0.3}, {5.0, 1.0}});
    v.push_back(std::move(in));
  }
  {
    // Bounds that continue (a clip vertex that is neither a minimum nor a
    // maximum) right beside a maximum, on both sides: the subject apex
    // (0, 1) and the clip vertices (-0.3, 1) and (0.3, 1) share the
    // scanline.
    NamedInput in{"top/continuation_beside_maximum", {}, {}};
    in.a.add({{-1.0, 0.0}, {1.0, 0.1}, {0.0, 1.0}});
    in.b.add({{-0.4, -0.2}, {-0.3, 1.0}, {-0.2, 2.0}, {0.2, 2.1}, {0.3, 1.0},
              {0.35, -0.1}});
    v.push_back(std::move(in));
  }
  {
    // A column of subject triangles whose apexes (0, 2k + 1) each sit
    // 1e-9 below a vertex of the clip's zigzag right bound, so slab lines
    // land just above a maximum (see kWindowAboveMaxLine).
    NamedInput in{"top/window_above_max", {}, {}};
    constexpr int kTeeth = 5;
    std::vector<geom::Point> zig{{0.3, -0.5}};
    for (int k = 0; k < kTeeth; ++k) {
      const double y = 2.0 * k;
      in.a.add({{-1.0, y}, {1.0, y + 0.1}, {0.0, y + 1.0}});
      zig.push_back({0.5, y + 1.0 + 1e-9});
      zig.push_back({0.2, y + 1.5});
    }
    zig.push_back({-0.6, 2.0 * kTeeth + 0.9});
    zig.push_back({-0.6, -0.6});
    in.b.add(std::move(zig));
    v.push_back(std::move(in));
  }
  return v;
}

/// Sweep (a, b) as two windows of its bound table split at `line` — the
/// cut Algorithm 2 makes, with the seeds found by brute force — each on
/// `scratch`. Returns {below, above}; `validate_failures`, when given,
/// accumulates both sweeps' VattiStats::validate_failures.
inline std::pair<geom::PolygonSet, geom::PolygonSet> sweep_two_windows(
    const geom::PolygonSet& a, const geom::PolygonSet& b, geom::BoolOp op,
    double line, seq::VattiScratch& scratch, std::int64_t* validate_failures) {
  seq::BoundTable bt;
  std::vector<double> ys;
  seq::build_bounds_into(bt, ys, a, b);
  std::vector<std::int32_t> seeds;
  for (std::size_t e = 0; e < bt.edges.size(); ++e)
    if (bt.edges[e].bot.y < line && line < bt.edges[e].top.y)
      seeds.push_back(static_cast<std::int32_t>(e));
  std::size_t min_split = 0;
  while (min_split < bt.minima.size() && bt.minima[min_split].pt.y < line)
    ++min_split;
  std::size_t ys_split = 0;
  while (ys_split < ys.size() && ys[ys_split] < line) ++ys_split;

  seq::SweepWindow lo;
  lo.y_hi = line;
  lo.min_end = min_split;
  lo.ys = std::span<const double>(ys).first(ys_split);
  seq::SweepWindow hi;
  hi.y_lo = line;
  hi.seeds = seeds;
  hi.min_begin = min_split;
  hi.ys = std::span<const double>(ys).subspan(ys_split);

  seq::VattiStats st_lo, st_hi;
  geom::PolygonSet below = seq::vatti_sweep_window(bt, lo, op, &st_lo, scratch);
  geom::PolygonSet above = seq::vatti_sweep_window(bt, hi, op, &st_hi, scratch);
  if (validate_failures)
    *validate_failures += st_lo.validate_failures + st_hi.validate_failures;
  return {std::move(below), std::move(above)};
}

/// The line top/window_above_max's windows are split at: between the
/// middle apex (0, 5) and the clip vertex 1e-9 above it.
inline constexpr double kWindowAboveMaxLine = 5.0 + 0.5e-9;

/// Call emit(key, digest) for every entry of the table: each input's
/// engine digests, plus top/window_above_max's two windows at
/// kWindowAboveMaxLine.
template <typename Emit>
void all_digests(par::ThreadPool& pool, Emit&& emit) {
  for (const fuzz::FuzzCase& c : fuzz::make_cases()) {
    const fuzz::Inputs in = fuzz::make_inputs(c);
    engine_digests(corpus_name(c), in.a, in.b, pool, /*alg1=*/true, emit);
  }
  for (const NamedInput& in : large_inputs())
    engine_digests(in.name, in.a, in.b, pool, /*alg1=*/false, emit);
  for (const NamedInput& in : top_step_inputs())
    engine_digests(in.name, in.a, in.b, pool, /*alg1=*/true, emit);
  const NamedInput in = top_step_inputs().back();
  for (const geom::BoolOp op : geom::kAllOps) {
    seq::VattiScratch scratch;
    const auto [below, above] =
        sweep_two_windows(in.a, in.b, op, kWindowAboveMaxLine, scratch,
                          nullptr);
    emit(key(in.name, op, "window_below"), output_digest(below));
    emit(key(in.name, op, "window_above"), output_digest(above));
  }
}

inline Table load_table(const char* path = PSCLIP_GOLDEN_DIGESTS) {
  Table t;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string k, hex;
    if (ls >> k >> hex) t[k] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return t;
}

/// Every key the table must hold, in the order all_digests emits them.
inline std::vector<std::string> expected_keys() {
  std::vector<std::pair<std::string, bool>> names;  // (input, alg1 rows)
  for (const fuzz::FuzzCase& c : fuzz::make_cases())
    names.emplace_back(corpus_name(c), true);
  for (const NamedInput& in : large_inputs())
    names.emplace_back(in.name, false);
  for (const NamedInput& in : top_step_inputs())
    names.emplace_back(in.name, true);
  std::vector<std::string> keys;
  for (const auto& [n, alg1] : names)
    for (const geom::BoolOp op : geom::kAllOps) {
      keys.push_back(key(n, op, "vatti"));
      for (const unsigned slabs : kSlabCounts)
        keys.push_back(key(n, op, slab_engine(slabs)));
      if (alg1) keys.push_back(key(n, op, "alg1"));
    }
  for (const geom::BoolOp op : geom::kAllOps) {
    keys.push_back(key(names.back().first, op, "window_below"));
    keys.push_back(key(names.back().first, op, "window_above"));
  }
  return keys;
}

inline bool write_table(const Table& t,
                        const char* path = PSCLIP_GOLDEN_DIGESTS) {
  std::ofstream f(path);
  f << "# Golden output digests (see tests/golden_digests.hpp).\n"
       "# <input>/<op>/<engine> <FNV-1a 64 of the output contours>\n";
  char hex[17];
  for (const auto& [k, d] : t) {
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(d));
    f << k << ' ' << hex << '\n';
  }
  return static_cast<bool>(f);
}

/// The table, loaded once per process.
inline const Table& table() {
  static const Table t = load_table();
  return t;
}

/// The table's digest for `k`; 0 (no real digest) when `k` is missing.
inline std::uint64_t expected(const std::string& k) {
  const auto it = table().find(k);
  return it == table().end() ? 0 : it->second;
}

/// True when the test run should rewrite the table instead of checking it.
inline bool regenerating() {
  const char* s = std::getenv("PSCLIP_REGEN_DIGESTS");
  return s != nullptr && *s != '\0' && *s != '0';
}

}  // namespace psclip::golden
