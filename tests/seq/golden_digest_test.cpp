// The golden output digest table (tests/golden_digests.hpp) is complete
// and the paper-scale inputs still produce its bytes. The corpus cases are
// checked one by one in vatti_kernel_test (VattiKernelFuzz), the beam-top
// edge cases there too (VattiEventTop).
//
// With PSCLIP_REGEN_DIGESTS=1, TableCoversEveryInput first rewrites
// tests/data/golden_digests.txt from the current engines.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "golden_digests.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip {
namespace {

par::ThreadPool& pool() {
  static par::ThreadPool p(4);
  return p;
}

TEST(GoldenDigests, TableCoversEveryInput) {
  if (golden::regenerating()) {
    golden::Table t;
    golden::all_digests(
        pool(), [&](const std::string& k, std::uint64_t d) { t[k] = d; });
    ASSERT_TRUE(golden::write_table(t)) << PSCLIP_GOLDEN_DIGESTS;
    const golden::Table reread = golden::load_table();
    ASSERT_EQ(reread, t) << "rewritten table does not read back";
    std::printf("wrote %zu digests to %s\n", t.size(), PSCLIP_GOLDEN_DIGESTS);
    return;
  }
  const auto keys = golden::expected_keys();
  EXPECT_EQ(golden::table().size(), keys.size());
  for (const std::string& k : keys)
    EXPECT_EQ(golden::table().count(k), 1u) << "missing " << k;
}

void expect_input_matches(const std::string& name) {
  for (const golden::NamedInput& in : golden::large_inputs()) {
    if (in.name != name) continue;
    golden::engine_digests(
        in.name, in.a, in.b, pool(), [](const std::string& k, std::uint64_t d) {
          EXPECT_EQ(d, golden::expected(k)) << k;
        });
    return;
  }
  FAIL() << "no large input named " << name;
}

TEST(GoldenDigests, SyntheticPair24k) { expect_input_matches("pair24k"); }

TEST(GoldenDigests, Table3Layers) { expect_input_matches("table3"); }

TEST(GoldenDigests, PolygonFieldOverlay) {
  expect_input_matches("field4000");
}

}  // namespace
}  // namespace psclip
