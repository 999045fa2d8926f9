// Unit tests for the per-object page-size machinery: the PageGeometry
// superpage helpers, object-table validation, and mixed page sizes
// inside one address space producing byte-identical outputs.
#include <gtest/gtest.h>

#include <vector>

#include "apps/conv2d.h"
#include "apps/workloads.h"
#include "mem/page.h"
#include "os/kernel.h"
#include "os/object_table.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

// ----- page-size geometry helpers -----

TEST(PageGeometryTest, SpanOfCountsFrameMultiples) {
  const mem::PageGeometry g(2048, 8);
  EXPECT_EQ(g.SpanOf(2048), 1u);
  EXPECT_EQ(g.SpanOf(4096), 2u);
  EXPECT_EQ(g.SpanOf(8192), 4u);
}

TEST(PageGeometryDeathTest, SpanOfRejectsBadSizes) {
  const mem::PageGeometry g(2048, 8);
  EXPECT_DEATH(g.SpanOf(3000), "2\\^k");       // not a power of two
  EXPECT_DEATH(g.SpanOf(1024), "granule");     // below the frame size
}

TEST(PageGeometryTest, ObjectPageBytesValidation) {
  EXPECT_TRUE(mem::IsValidObjectPageBytes(512));
  EXPECT_TRUE(mem::IsValidObjectPageBytes(2048));
  EXPECT_TRUE(mem::IsValidObjectPageBytes(8192));
  EXPECT_FALSE(mem::IsValidObjectPageBytes(0));
  EXPECT_FALSE(mem::IsValidObjectPageBytes(256));      // below range
  EXPECT_FALSE(mem::IsValidObjectPageBytes(3000));     // not 2^k
  EXPECT_FALSE(mem::IsValidObjectPageBytes(16384));    // above range
}

TEST(PageGeometryTest, UserPageConstantsLiveInPageHeader) {
  // The host-MMU granule is deliberately distinct from the DP-RAM frame
  // granule; both now come from mem/page.h.
  EXPECT_EQ(mem::kUserPageShift, 12u);
  EXPECT_EQ(mem::kUserPageBytes, 4096u);
}

TEST(ObjectTableTest, RejectsNonPowerOfTwoPageSize) {
  os::ObjectTable table;
  os::MappedObject object;
  object.id = 1;
  object.user_addr = 0;
  object.size_bytes = 4096;
  object.page_bytes = 3000;
  const Status s = table.Map(object);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  object.page_bytes = 4096;
  EXPECT_TRUE(table.Map(object).ok());
}

// ----- end-to-end: page sizes change nothing but timing -----

TEST(PageSizeSystemTest, MixedPageSizesProduceIdenticalOutput) {
  const u32 width = 32, height = 16;
  const std::vector<u8> image = apps::MakeTestImage(width, height, 11);

  auto run = [&](const os::KernelConfig& config) {
    runtime::FpgaSystem sys(config);
    auto r = runtime::RunConv3x3Vim(sys, image, width, height,
                                    apps::BoxBlurKernel(), /*shift=*/3);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value().output;
  };

  const std::vector<u8> baseline = run(runtime::Epxa1Config());

  // One object on 4 KB superpages, the rest on the 2 KB default: mixed
  // sizes inside a single address space.
  os::KernelConfig mixed = runtime::Epxa1Config();
  mixed.object_page_bytes[0] = 4096;
  EXPECT_EQ(run(mixed), baseline);
}

}  // namespace
}  // namespace vcop
