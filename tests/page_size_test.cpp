// Unit tests for the per-object page-size machinery: the PageGeometry
// superpage helpers, the size Kernel::MapObject fixes and checks, and
// mixed page sizes inside one address space producing byte-identical
// outputs.
#include <gtest/gtest.h>

#include <vector>

#include "apps/conv2d.h"
#include "apps/workloads.h"
#include "mem/page.h"
#include "os/kernel.h"
#include "os/object_table.h"
#include "os/vcopd.h"
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

TEST(PageSizeMapTest, SizeIsFixedAndCheckedWhenTheObjectIsMapped) {
  // EPXA1: 2 KB frames in a 16 KB dual-port RAM.
  os::KernelConfig config = runtime::Epxa1Config();
  config.object_page_bytes[1] = 4096;
  config.object_page_bytes[2] = 3000;  // not a power of two
  config.object_page_bytes[3] = 1024;  // below the frame granule
  os::Kernel kernel(config);
  const mem::UserAddr addr = kernel.user_memory().Allocate(8192).value();
  const auto map = [&](hw::ObjectId id) {
    return kernel.FpgaMapObject(id, addr, 8192, 4, os::Direction::kIn);
  };
  const os::ObjectTable& objects = kernel.default_space().objects();
  ASSERT_TRUE(map(0).ok());
  EXPECT_EQ(objects.Find(0)->page_bytes, 2048u);  // no override
  ASSERT_TRUE(map(1).ok());
  EXPECT_EQ(objects.Find(1)->page_bytes, 4096u);
  EXPECT_EQ(map(2).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(map(3).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(objects.Find(2), nullptr);
  EXPECT_EQ(objects.Find(3), nullptr);

  // An 8 KB page does not fit a 4 KB dual-port RAM, for FPGA_MAP_OBJECT
  // and a vcopd tenant alike.
  os::KernelConfig small = runtime::Epxa1Config();
  small.dp_ram_bytes = 4096;
  small.object_page_bytes[0] = 8192;
  os::Kernel small_kernel(small);
  const mem::UserAddr small_addr =
      small_kernel.user_memory().Allocate(8192).value();
  EXPECT_EQ(small_kernel
                .FpgaMapObject(0, small_addr, 8192, 4, os::Direction::kIn)
                .code(),
            ErrorCode::kInvalidArgument);
  os::Vcopd daemon(small_kernel);
  const os::TenantId tenant = daemon.RegisterTenant("tenant").value();
  EXPECT_EQ(
      daemon.MapObject(tenant, 0, small_addr, 8192, 4, os::Direction::kIn)
          .code(),
      ErrorCode::kInvalidArgument);
  EXPECT_TRUE(
      daemon.MapObject(tenant, 1, small_addr, 8192, 4, os::Direction::kIn)
          .ok());
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
