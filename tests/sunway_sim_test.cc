// Unit tests of the SW26010Pro core-group simulator: SPM bounds checking
// over whole extents, all-zero SPM at the start of every run, DMA
// semantics (strided gather, reply protocol, per-CPE engine serialisation),
// RMA broadcast delivery, barrier clock-maxing, and protocol-violation
// detection, reply-slot discipline included, on both the mesh and the
// symmetric estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <thread>

#include "sunway/estimator.h"
#include "sunway/host_memory.h"
#include "sunway/mesh.h"
#include "support/error.h"

namespace sw::sunway {
namespace {

/// `request` with its slot and array interned on `cpe`, as the engines
/// send it.
DmaRequest interned(CpeServices& cpe, DmaRequest request) {
  request.slotId = cpe.internSlot(request.slot);
  request.arrayId = cpe.internArray(request.array);
  return request;
}

RmaRequest interned(CpeServices& cpe, RmaRequest request) {
  request.slotId = cpe.internSlot(request.slot);
  return request;
}

/// Wait on the DMA reply slot named `slot`.
void waitDma(CpeServices& cpe, const std::string& slot) {
  cpe.waitSlot(cpe.internSlot(slot), /*isRma=*/false, true);
}

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
    cpe.timing().compute(1'000'000 * (cpe.rid() * 8 + cpe.cid() + 1),
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
    cpe.dmaIssue(interned(cpe, request));
    waitDma(cpe, "r");
    const double* spm = cpe.spmPtr(0, 20);
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
    double* spm = cpe.spmPtr(0, 4);
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
    cpe.dmaIssue(interned(cpe, request));
    waitDma(cpe, "w");
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
    cpe.dmaIssue(interned(cpe, request));
  }),
               ProtocolError);
}

TEST(Mesh, WaitWithoutMessageThrows) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) { waitDma(cpe, "nothing"); }),
               ProtocolError);
}

TEST(Mesh, RowBroadcastDeliversToWholeRow) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.run([&](CpeServices& cpe) {
    double* spm = cpe.spmPtr(0, 1);
    // Sender (column 3) stages a distinctive pattern at offset 1024B.
    double* stage = cpe.spmPtr(1024, 1);
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
      cpe.rmaIssue(interned(cpe, request));
    }
    cpe.waitSlot(cpe.internSlot("bc"), true, true);
    EXPECT_EQ(spm[0], 1000.0 + cpe.rid());
  });
}

TEST(Mesh, ColumnBroadcastDeliversToWholeColumn) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.run([&](CpeServices& cpe) {
    double* stage = cpe.spmPtr(2048, 1);
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
      cpe.rmaIssue(interned(cpe, request));
    }
    cpe.waitSlot(cpe.internSlot("cc"), true, false);
    EXPECT_EQ(cpe.spmPtr(0, 1)[0], 500.0 + cpe.cid());
  });
}

TEST(Mesh, SpmOutOfBoundsThrows) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    (void)cpe.spmPtr(config.spmBytes, 1);  // one past the end
  }),
               ProtocolError);
}

TEST(Mesh, SpmExtentPastTheEndThrows) {
  // The first word lies inside the SPM, the last one does not.
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  const std::int64_t lastWord = config.spmBytes - 8;
  EXPECT_NO_THROW(mesh.run(
      [&](CpeServices& cpe) { (void)cpe.spmPtr(lastWord, 1); }));
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    (void)cpe.spmPtr(lastWord, 2);
  }),
               ProtocolError);
  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    (void)cpe.spmPtr(0, config.spmBytes / 8 + 1);
  }),
               ProtocolError);
}

/// The ProtocolError a row broadcast of 8 words from CPE (0,3) raises;
/// empty if it raises none.
std::string rowBroadcastError(std::int64_t srcOffsetBytes,
                              std::int64_t dstOffsetBytes) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  try {
    mesh.run([&](CpeServices& cpe) {
      if (cpe.rid() != 0 || cpe.cid() != 3) return;
      RmaRequest request;
      request.kind = RmaKind::kRowBroadcast;
      request.isSender = true;
      request.bytes = 64;
      request.srcSpmOffsetBytes = srcOffsetBytes;
      request.dstSpmOffsetBytes = dstOffsetBytes;
      request.slot = "bc";
      cpe.rmaIssue(interned(cpe, request));
    });
  } catch (const ProtocolError& error) {
    return error.what();
  }
  return {};
}

TEST(Mesh, RmaPastTheEndOfSpmThrows) {
  // Both ends of a broadcast are checked over all its bytes: a destination
  // at the SPM's last word would write 56 bytes past every receiver's SPM.
  const std::int64_t lastWord = ArchConfig{}.spmBytes - 8;
  const std::string receiver = rowBroadcastError(0, lastWord);
  EXPECT_NE(receiver.find("CPE 0,0: SPM access of 64 bytes at byte 262136 "
                          "falls outside its 262144-byte SPM"),
            std::string::npos)
      << receiver;
  const std::string sender = rowBroadcastError(lastWord, 0);
  EXPECT_NE(sender.find("CPE 0,3: SPM access of 64 bytes at byte 262136"),
            std::string::npos)
      << sender;
  EXPECT_EQ(rowBroadcastError(lastWord - 56, 0), "");
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

// --- arenas: SPM is all zero at the start of every run ------------------

/// Write a nonzero pattern across the CPE's whole SPM.
void fillWholeSpm(CpeServices& cpe, std::int64_t spmBytes) {
  const std::int64_t words = spmBytes / 8;
  double* spm = cpe.spmPtr(0, words);
  for (std::int64_t i = 0; i < words; ++i)
    spm[i] = 1.0 + static_cast<double>(i + cpe.cid());
}

/// Nonzero SPM words across the mesh at the start of a run on `mesh`.
std::int64_t nonzeroSpmWords(MeshSimulator& mesh) {
  const std::int64_t words = mesh.config().spmBytes / 8;
  std::int64_t nonzero = 0;
  mesh.run([&](CpeServices& cpe) {
    const double* spm = cpe.spmPtr(0, words);
    nonzero += std::count_if(spm, spm + words,
                             [](double value) { return value != 0.0; });
  });
  return nonzero;
}

TEST(MeshArena, RerunOfTheSameMeshStartsWithZeroSpm) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.run([&](CpeServices& cpe) { fillWholeSpm(cpe, config.spmBytes); });
  EXPECT_EQ(nonzeroSpmWords(mesh), 0);
}

TEST(MeshArena, FreshMeshOnTheSameThreadStartsWithZeroSpm) {
  ArchConfig config;
  {
    MeshSimulator dirty(config, /*functional=*/true);
    dirty.run([&](CpeServices& cpe) { fillWholeSpm(cpe, config.spmBytes); });
  }
  MeshSimulator fresh(config, /*functional=*/true);
  EXPECT_EQ(nonzeroSpmWords(fresh), 0);
}

TEST(MeshArena, MeshOnAnotherThreadStartsWithZeroSpm) {
  ArchConfig config;
  MeshSimulator dirty(config, /*functional=*/true);
  dirty.run([&](CpeServices& cpe) { fillWholeSpm(cpe, config.spmBytes); });
  std::int64_t nonzero = -1;
  std::thread other([&] {
    MeshSimulator fresh(config, /*functional=*/true);
    nonzero = nonzeroSpmWords(fresh);
    fresh.run([&](CpeServices& cpe) { fillWholeSpm(cpe, config.spmBytes); });
  });
  other.join();
  EXPECT_EQ(nonzero, 0);
  // And back: the other thread's writes are gone here too.
  EXPECT_EQ(nonzeroSpmWords(dirty), 0);
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
  cpe.dmaIssue(interned(cpe, a));
  cpe.dmaIssue(interned(cpe, b));
  waitDma(cpe, "a");
  const double afterA = toSeconds(cpe.clock());
  waitDma(cpe, "b");
  const double afterB = toSeconds(cpe.clock());
  // B starts only when A's transfer finishes on the engine.
  EXPECT_GT(afterB, afterA + 16384 / config.dmaShareBytesPerSec() * 0.9);
}

TEST(Estimator, ComputeRatesOrdering) {
  ArchConfig config;
  SymmetricCpeServices cpe(config);
  const std::int64_t flops = 2 * 64 * 64 * 32;
  cpe.timing().computeMicro(flops, 4, 8);
  const SimTime asmTime = cpe.clock();
  SymmetricCpeServices naive(config);
  naive.timing().compute(flops, ComputeRate::kNaive);
  EXPECT_GT(naive.clock(), 10 * asmTime);
}

// Reply-slot discipline: a slot holds at most one message, and a wait
// consumes it.  Both runtimes enforce it in their shared timing core.

DmaRequest smallGet() {
  DmaRequest request;
  request.array = "A";
  request.tileRows = 2;
  request.tileCols = 2;
  request.slot = "r";
  return request;
}

void issueTwice(CpeServices& cpe) {
  cpe.dmaIssue(interned(cpe, smallGet()));
  cpe.dmaIssue(interned(cpe, smallGet()));  // the first was never waited for
}

void waitTwice(CpeServices& cpe) {
  cpe.dmaIssue(interned(cpe, smallGet()));
  waitDma(cpe, "r");
  waitDma(cpe, "r");  // the first wait consumed the only message
}

/// The ProtocolError `body` raises on CPE (0,0) of a timing-only mesh.
std::string meshProtocolError(const std::function<void(CpeServices&)>& body) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);
  try {
    mesh.run([&](CpeServices& cpe) {
      if (cpe.rid() == 0 && cpe.cid() == 0) body(cpe);
    });
  } catch (const ProtocolError& error) {
    return error.what();
  }
  ADD_FAILURE() << "the mesh run raised no ProtocolError";
  return {};
}

/// The ProtocolError `body` raises on the symmetric estimator.
std::string estimatorProtocolError(
    const std::function<void(CpeServices&)>& body) {
  ArchConfig config;
  SymmetricCpeServices cpe(config);
  try {
    body(cpe);
  } catch (const ProtocolError& error) {
    return error.what();
  }
  ADD_FAILURE() << "the estimator raised no ProtocolError";
  return {};
}

constexpr const char* kIssueOntoBusySlot =
    "issue on slot 'r' before its message was waited for";
constexpr const char* kWaitWithoutMessage =
    "wait on slot 'r' with no message in flight";

TEST(ReplySlots, MeshRejectsIssueOntoAnUnwaitedSlot) {
  EXPECT_EQ(meshProtocolError(issueTwice), kIssueOntoBusySlot);
}

TEST(ReplySlots, MeshRejectsASecondWaitOnOneIssue) {
  EXPECT_EQ(meshProtocolError(waitTwice), kWaitWithoutMessage);
}

TEST(ReplySlots, EstimatorRejectsIssueOntoAnUnwaitedSlot) {
  EXPECT_EQ(estimatorProtocolError(issueTwice), kIssueOntoBusySlot);
}

TEST(ReplySlots, EstimatorRejectsASecondWaitOnOneIssue) {
  EXPECT_EQ(estimatorProtocolError(waitTwice), kWaitWithoutMessage);
}

TEST(ReplySlots, EstimatorAppliesTheDisciplineToRmaSlots) {
  RmaRequest round;
  round.isSender = true;
  round.bytes = 8;
  round.slot = "r";
  const auto waitRound = [](CpeServices& cpe) {
    cpe.waitSlot(cpe.internSlot("r"), /*isRma=*/true, true);
  };
  EXPECT_EQ(estimatorProtocolError([&](CpeServices& cpe) {
              cpe.rmaIssue(interned(cpe, round));
              cpe.rmaIssue(interned(cpe, round));
            }),
            kIssueOntoBusySlot);
  EXPECT_EQ(estimatorProtocolError([&](CpeServices& cpe) {
              cpe.rmaIssue(interned(cpe, round));
              waitRound(cpe);
              waitRound(cpe);
            }),
            kWaitWithoutMessage);
}

TEST(ReplySlots, UninternedRequestIsAnInternalError) {
  ArchConfig config;
  SymmetricCpeServices estimator(config);
  EXPECT_THROW(estimator.dmaIssue(smallGet()), InternalError);
  MeshSimulator mesh(config, /*functional=*/false);
  EXPECT_THROW(mesh.run([](CpeServices& cpe) { cpe.dmaIssue(smallGet()); }),
               InternalError);
}

}  // namespace
}  // namespace sw::sunway
