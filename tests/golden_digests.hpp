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
// bench_vatti_sweep times, the beam-top edge cases and the order
// certificate attacks below. A digest is
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

/// A comb: a contour whose right side zigzags up through `n` vertices at
/// distinct heights between y0 and y1 (amplitude `amp`, width `w` from the
/// straight left side at x0). Placed beside the edges under test, it gives
/// the sweep `n` scanlines without touching them.
inline geom::Contour comb(double x0, double w, double amp, double y0,
                          double y1, int n) {
  geom::Contour c;
  for (int i = 0; i < n; ++i)
    c.pts.push_back({x0 + w + amp * (i % 2), y0 + (y1 - y0) * (i + 0.5) / n});
  c.pts.push_back({x0, y1});
  c.pts.push_back({x0, y0});
  return c;
}

/// Inputs that attack the sweep's neighbour order certificates: pairs whose
/// computed x-order is decided by rounding, magnitudes at both ends of the
/// double range, scanlines a subnormal apart, many edges through one point,
/// and a pair that stays adjacent over a thousand beams. Each carries a
/// comb (or another contour) that cuts the pair's life into many beams.
inline std::vector<NamedInput> certificate_inputs() {
  std::vector<NamedInput> v;
  {
    // The subject's edge (-1, 0)-(0, 1) has slope 1; the clip's edge from
    // (-1 + 2^-53, 0) has computed slope 1 - 2^-53, one ulp less, and
    // crosses it at y ~ 0.945, 97% of the way up to its top.
    NamedInput in{"cert/ulp_slopes", {}, {}};
    in.a.add({{-1.0, 0.0}, {0.0, 1.0}, {-2.0, 0.5}});
    in.a.add(comb(5.0, 1.0, 0.3, 0.001, 0.999, 300));
    in.b.add({{-0x1.fffffffffffffp-1, 0.0},
              {2.0, 0.4},
              {-0x1.9af9a31e46221p-6, 0x1.f32832e70dcefp-1}});
    v.push_back(std::move(in));
  }
  {
    // At x ~ 2^52 one ulp is 1: the two edges start 3 ulps apart and cross
    // at y = 250, where every computed x is rounded to an integer.
    constexpr double k = 0x1p52;
    NamedInput in{"cert/x_near_2p52", {}, {}};
    in.a.add({{k, 0.0}, {k + 8.0, 1000.0}, {k - 20.0, 500.0}});
    in.a.add(comb(k + 100.0, 16.0, 4.0, 1.0, 999.0, 200));
    in.b.add({{k + 3.0, 0.0}, {k + 30.0, 600.0}, {k - 1.0, 1000.0}});
    v.push_back(std::move(in));
  }
  {
    // x near 1e-300: the edges' dx times a small beam fraction underflows
    // into the subnormals; a contour with a vertex 2e-9 above the clip's
    // bottom makes that fraction ~2e-9.
    constexpr double s = 1e-300;
    NamedInput in{"cert/x_near_1e-300", {}, {}};
    in.a.add({{0.0, 0.0}, {3 * s, 1.0}, {-2 * s, 0.6}});
    in.a.add(comb(10 * s, 4 * s, s, 0.01, 0.99, 200));
    in.b.add({{2 * s, 0.05}, {5 * s, 0.5}, {-s, 0.9}});
    in.b.add({{30 * s, 0.05 + 2e-9}, {32 * s, 0.3}, {31 * s, 0.6}});
    v.push_back(std::move(in));
  }
  {
    // Both coordinates near 1e300: crossing determinants overflow.
    constexpr double s = 1e300;
    NamedInput in{"cert/near_1e300", {}, {}};
    in.a.add({{0.0, 0.0}, {3 * s, 1 * s}, {-2 * s, 0.6 * s}});
    in.a.add(comb(10 * s, 4 * s, s, 0.01 * s, 0.99 * s, 200));
    in.b.add({{2 * s, 0.05 * s}, {5 * s, 0.5 * s}, {-s, 0.9 * s}});
    v.push_back(std::move(in));
  }
  {
    // Two edges crossing at the origin, and scanlines at y = 0 and
    // y = 8 * 2^-1074: a beam of subnormal height right at the crossing.
    NamedInput in{"cert/subnormal_beam", {}, {}};
    in.a.add({{-1.0, -1.0}, {1.0, 1.0}, {-1.5, 0.7}});
    in.a.add({{10.0, 0.0}, {11.0, 0.5}, {10.5, -0.5}});
    in.b.add({{1.0, -1.0}, {1.6, 0.5}, {-1.0, 1.0}});
    in.b.add({{20.0, 0x1p-1071}, {21.0, 0.5}, {20.5, -0.5}});
    v.push_back(std::move(in));
  }
  {
    // Eight edges through the origin, two per self-crossing contour (each
    // runs from -P to P, so x(0) is exactly 0), plus a scanline at y = 0.
    NamedInput in{"cert/fan_of_eight", {}, {}};
    for (int s = 1; s <= 4; ++s) {
      const double a = s + 0.3;
      const double d = s;
      std::vector<geom::Point> bowtie{{-d, -1.0}, {-a, -1.25}, {a, 1.25},
                                      {d, 1.0}};
      (s % 2 ? in.a : in.b).add(std::move(bowtie));
    }
    in.a.add({{10.0, 0.0}, {11.0, 0.5}, {10.5, -0.5}});
    v.push_back(std::move(in));
  }
  {
    // Two nearly horizontal edges (dx = 2e6 over dy = 1) crossing at
    // y = 0.5, where their computed x's are multiples of 2^-33 ~ 1.2e-10,
    // and 51 scanlines 4e-12 apart around the crossing: the computed order
    // there is decided by rounding, so only a certificate that carries the
    // rounding bound stops short of it (with the bound set to 0, the
    // validation hook sees a certified pair inverted here).
    NamedInput in{"cert/shallow_crossing", {}, {}};
    in.a.add({{-1e6, 0.0}, {1e6, 1.0}, {-2e6, 0.6}});
    in.b.add({{-1e6 + 0.5, 0.0}, {2e6, 0.3}, {1e6 - 0.5, 1.0}});
    in.a.add(comb(10.0, 1.0, 0.3, 0.01, 0.45, 40));
    for (int k = -25; k <= 25; ++k) {
      const double x = 100.0 + 2.0 * k;
      in.b.add({{x, 0.5 + k * 4e-12}, {x + 1.0, 0.8}, {x + 0.5, 0.9}});
    }
    v.push_back(std::move(in));
  }
  {
    // The two edges of the subject's apex (0, 1000) are adjacent from
    // y = 0.001 to the apex, over the 1100 beams of the clip's comb.
    NamedInput in{"cert/maximum_pair_1000_beams", {}, {}};
    in.a.add({{-1.0, 0.0}, {1.0, 0.001}, {0.0, 1000.0}});
    in.b.add(comb(5.0, 1.0, 0.3, 1.0, 999.0, 1100));
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
  geom::Contour prep;
  seq::build_bounds_into(bt, ys, a, b, prep);
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
  for (const NamedInput& in : certificate_inputs())
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
  for (const NamedInput& in : certificate_inputs())
    names.emplace_back(in.name, true);
  std::vector<std::string> keys;
  for (const auto& [n, alg1] : names)
    for (const geom::BoolOp op : geom::kAllOps) {
      keys.push_back(key(n, op, "vatti"));
      for (const unsigned slabs : kSlabCounts)
        keys.push_back(key(n, op, slab_engine(slabs)));
      if (alg1) keys.push_back(key(n, op, "alg1"));
    }
  const std::string windowed = top_step_inputs().back().name;
  for (const geom::BoolOp op : geom::kAllOps) {
    keys.push_back(key(windowed, op, "window_below"));
    keys.push_back(key(windowed, op, "window_above"));
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
