// Unit tests of the SW26010Pro core-group simulator: SPM bounds checking,
// DMA semantics (strided gather, reply protocol, per-CPE engine
// serialisation), RMA broadcast delivery, barrier clock-maxing, and
// protocol-violation detection.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "sunway/estimator.h"
#include "sunway/host_memory.h"
#include "sunway/mesh.h"
#include "support/error.h"

namespace sw::sunway {
namespace {

TEST(HostArray, BoundsChecking) {
  HostArray a = HostArray::allocate("A", 1, 4, 8);
  a.at(0, 3, 7) = 1.0;
  EXPECT_EQ(a.at(0, 3, 7), 1.0);
  EXPECT_THROW((void)a.at(0, 4, 0), ProtocolError);
  EXPECT_THROW((void)a.at(0, 0, 8), ProtocolError);
  EXPECT_THROW((void)a.at(1, 0, 0), ProtocolError);
  EXPECT_THROW((void)a.at(0, -1, 0), ProtocolError);
}

TEST(HostArray, VirtualArrayHasNoData) {
  HostArray v = HostArray::virtualArray("V", 2, 100, 100);
  EXPECT_FALSE(v.hasData());
  EXPECT_EQ(v.rows(), 100);
}

TEST(ArchConfig, DerivedQuantities) {
  ArchConfig config;
  EXPECT_EQ(config.meshSize(), 64);
  EXPECT_NEAR(config.peakFlops(), 64 * 2.1e9 * 16.0, 1.0);
  EXPECT_NEAR(config.dmaShareBytesPerSec(),
              config.ddrBandwidthBytesPerSec / 64, 1.0);
  // DMA time is affine in size.
  EXPECT_GT(config.dmaTime(32768, 64), config.dmaTime(16384, 32));
}

TEST(Mesh, BarrierEqualisesClocks) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);
  MeshRunResult result = mesh.run([&](CpeServices& cpe) {
    // Give each CPE a different amount of work, then synchronise.
    cpe.computeTime(1'000'000 * (cpe.rid() * 8 + cpe.cid() + 1),
                    ComputeRate::kElementwise);
    cpe.sync();
  });
  // After the barrier every clock equals the max + sync cost.
  const SimTime expectedMin = result.perCpeTime[0];
  for (const SimTime t : result.perCpeTime) EXPECT_EQ(t, expectedMin);
}

TEST(Mesh, DmaMovesStridedTile) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  HostArray a = HostArray::allocate("A", 1, 16, 16);
  for (std::int64_t r = 0; r < 16; ++r)
    for (std::int64_t c = 0; c < 16; ++c) a.at(0, r, c) = r * 100.0 + c;
  mesh.memory().add(std::move(a));

  mesh.run([&](CpeServices& cpe) {
    if (cpe.rid() != 0 || cpe.cid() != 0) return;
    DmaRequest request;
    request.array = "A";
    request.rowStart = 2;
    request.colStart = 3;
    request.tileRows = 4;
    request.tileCols = 5;
    request.spmOffsetBytes = 0;
    request.slot = "r";
    cpe.dmaIssue(request);
    cpe.waitSlot("r", false, true);
    const double* spm = cpe.spmPtr(0);
    for (std::int64_t r = 0; r < 4; ++r)
      for (std::int64_t c = 0; c < 5; ++c)
        EXPECT_EQ(spm[r * 5 + c], (r + 2) * 100.0 + (c + 3));
  });
}

TEST(Mesh, DmaPutWritesBack) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.memory().add(HostArray::allocate("C", 1, 8, 8));
  mesh.run([&](CpeServices& cpe) {
    if (cpe.rid() != 0 || cpe.cid() != 0) return;
    double* spm = cpe.spmPtr(0);
    for (int i = 0; i < 4; ++i) spm[i] = 7.0 + i;
    DmaRequest request;
    request.isPut = true;
    request.array = "C";
    request.rowStart = 1;
    request.colStart = 2;
    request.tileRows = 2;
    request.tileCols = 2;
    request.spmOffsetBytes = 0;
    request.slot = "w";
    cpe.dmaIssue(request);
    cpe.waitSlot("w", false, true);
  });
  const HostArray& c = mesh.memory().get("C");
  EXPECT_EQ(c.at(0, 1, 2), 7.0);
  EXPECT_EQ(c.at(0, 1, 3), 8.0);
  EXPECT_EQ(c.at(0, 2, 2), 9.0);
  EXPECT_EQ(c.at(0, 2, 3), 10.0);
}

TEST(Mesh, DmaOutOfBoundsThrows) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.memory().add(HostArray::allocate("A", 1, 8, 8));
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    if (cpe.rid() != 0 || cpe.cid() != 0) return;
    DmaRequest request;
    request.array = "A";
    request.rowStart = 6;
    request.colStart = 0;
    request.tileRows = 4;  // rows 6..9 overflow
    request.tileCols = 8;
    request.slot = "r";
    cpe.dmaIssue(request);
  }),
               ProtocolError);
}

TEST(Mesh, WaitWithoutMessageThrows) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    cpe.waitSlot("nothing", false, true);
  }),
               ProtocolError);
}

TEST(Mesh, RowBroadcastDeliversToWholeRow) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.run([&](CpeServices& cpe) {
    double* spm = cpe.spmPtr(0);
    // Sender (column 3) stages a distinctive pattern at offset 1024B.
    double* stage = cpe.spmPtr(1024);
    stage[0] = 1000.0 + cpe.rid();
    cpe.sync();
    if (cpe.cid() == 3) {
      RmaRequest request;
      request.kind = RmaKind::kRowBroadcast;
      request.isSender = true;
      request.bytes = 8;
      request.srcSpmOffsetBytes = 1024;
      request.dstSpmOffsetBytes = 0;
      request.slot = "bc";
      cpe.rmaIssue(request);
    }
    cpe.waitSlot("bc", true, true);
    EXPECT_EQ(spm[0], 1000.0 + cpe.rid());
  });
}

TEST(Mesh, ColumnBroadcastDeliversToWholeColumn) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.run([&](CpeServices& cpe) {
    double* stage = cpe.spmPtr(2048);
    stage[0] = 500.0 + cpe.cid();
    cpe.sync();
    if (cpe.rid() == 5) {
      RmaRequest request;
      request.kind = RmaKind::kColBroadcast;
      request.isSender = true;
      request.bytes = 8;
      request.srcSpmOffsetBytes = 2048;
      request.dstSpmOffsetBytes = 0;
      request.slot = "cc";
      cpe.rmaIssue(request);
    }
    cpe.waitSlot("cc", true, false);
    EXPECT_EQ(cpe.spmPtr(0)[0], 500.0 + cpe.cid());
  });
}

TEST(Mesh, SpmOutOfBoundsThrows) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    (void)cpe.spmPtr(config.spmBytes);  // one past the end
  }),
               ProtocolError);
}

TEST(Mesh, ErrorInOneCpeDoesNotDeadlockBarrier) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    if (cpe.rid() == 0 && cpe.cid() == 0)
      throw ProtocolError("injected failure");
    cpe.sync();  // everyone else parks at the barrier
  }),
               ProtocolError);
}

TEST(Estimator, DmaEngineSerialisesMessages) {
  ArchConfig config;
  SymmetricCpeServices cpe(config);
  DmaRequest a;
  a.array = "A";
  a.tileRows = 64;
  a.tileCols = 32;
  a.slot = "a";
  DmaRequest b = a;
  b.slot = "b";
  cpe.dmaIssue(a);
  cpe.dmaIssue(b);
  cpe.waitSlot("a", false, true);
  const double afterA = toSeconds(cpe.clock());
  cpe.waitSlot("b", false, true);
  const double afterB = toSeconds(cpe.clock());
  // B starts only when A's transfer finishes on the engine.
  EXPECT_GT(afterB, afterA + 16384 / config.dmaShareBytesPerSec() * 0.9);
}

TEST(Estimator, ComputeRatesOrdering) {
  ArchConfig config;
  SymmetricCpeServices cpe(config);
  const std::int64_t flops = 2 * 64 * 64 * 32;
  cpe.computeTime(flops, ComputeRate::kAsmKernel);
  const SimTime asmTime = cpe.clock();
  SymmetricCpeServices naive(config);
  naive.computeTime(flops, ComputeRate::kNaive);
  EXPECT_GT(naive.clock(), 10 * asmTime);
}

}  // namespace
}  // namespace sw::sunway
