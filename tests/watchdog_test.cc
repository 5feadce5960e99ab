// Mesh deadlock detection and abort-path coverage: a permanently lost
// message or a missing barrier participant must turn into a ProtocolError
// carrying a per-CPE state dump as soon as no CPE can run — with no sleep
// or deadline — and the abort machinery (barrier abort propagation,
// rethrow after every CPE unwinds, mesh reuse after an aborted run) must
// preserve the first error verbatim and leave the next run clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "sunway/fault.h"
#include "sunway/host_memory.h"
#include "sunway/mesh.h"
#include "support/error.h"
#include "support/metrics.h"

namespace sw::sunway {
namespace {

std::shared_ptr<const FaultPlan> plan(const std::string& text) {
  return std::make_shared<const FaultPlan>(FaultPlan::parse(text));
}

/// Run `body` and return the ProtocolError message it aborts with.
std::string runExpectingProtocolError(
    MeshSimulator& mesh, const std::function<void(CpeServices&)>& body) {
  try {
    mesh.run(body);
  } catch (const ProtocolError& error) {
    return error.what();
  }
  ADD_FAILURE() << "run finished without a ProtocolError";
  return {};
}

/// CPE (0,0) loses its only DMA reply forever; the other 63 finish.
std::string lostDmaReplyDump() {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.memory().add(HostArray::allocate("A", 1, 8, 8));
  mesh.setFaultPlan(plan("dma-drop:cpe=0:occ=0:count=forever"));
  return runExpectingProtocolError(mesh, [&](CpeServices& cpe) {
    if (cpe.rid() != 0 || cpe.cid() != 0) return;
    DmaRequest request;
    request.array = "A";
    request.tileRows = 2;
    request.tileCols = 2;
    request.slot = "lost";
    request.slotId = cpe.internSlot(request.slot);
    request.arrayId = cpe.internArray(request.array);
    cpe.dmaIssue(request);
    // The reply never arrives.
    cpe.waitSlot(request.slotId, /*isRma=*/false, true);
  });
}

/// CPE (0,3) broadcasts one double on slot "bc" along row 0, and every
/// CPE of row 0 (the sender too) waits for it; the other rows finish.
void rowZeroBroadcast(CpeServices& cpe) {
  if (cpe.rid() != 0) return;
  cpe.spmPtr(1024, 1)[0] = 7.0;
  if (cpe.cid() == 3) {
    RmaRequest request;
    request.kind = RmaKind::kRowBroadcast;
    request.isSender = true;
    request.bytes = 8;
    request.srcSpmOffsetBytes = 1024;
    request.dstSpmOffsetBytes = 0;
    request.slot = "bc";
    request.slotId = cpe.internSlot(request.slot);
    cpe.rmaIssue(request);
  }
  cpe.waitSlot(cpe.internSlot("bc"), /*isRma=*/true, true);
}

TEST(Deadlock, PermanentDmaDropRaisesStateDump) {
  const double before =
      metrics::MetricsRegistry::global().get("mesh.deadlocks");
  const std::string message = lostDmaReplyDump();

  // The dump names the deadlock, the hung CPE's state and the in-flight
  // descriptor, so the failure is diagnosable from the message alone.
  EXPECT_EQ(message.rfind("mesh deadlock: no runnable CPE", 0), 0u)
      << message;
  EXPECT_NE(message.find("(0 at barrier, 0 waiting on RMA, 1 waiting on a "
                         "lost DMA reply, 63 done)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("state=dma-hang"), std::string::npos) << message;
  EXPECT_NE(message.find("slot='lost'"), std::string::npos) << message;
  EXPECT_NE(message.find("pending_dma=[get A slot=lost 2x2@spm+0]"),
            std::string::npos)
      << message;
  EXPECT_EQ(metrics::MetricsRegistry::global().get("mesh.deadlocks"),
            before + 1.0);
}

TEST(Deadlock, DumpIsByteIdenticalAcrossRuns) {
  // The mesh runs one fixed interleaving, so the dump depends on the input
  // alone.
  const std::string first = lostDmaReplyDump();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, lostDmaReplyDump());
}

TEST(Deadlock, PermanentRmaDropParksReceivers) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  // Losing the row-0 broadcast strands all eight CPEs of row 0.
  mesh.setFaultPlan(plan("rma-drop:cpe=3:occ=0:count=forever"));

  const std::string message = runExpectingProtocolError(mesh, rowZeroBroadcast);

  EXPECT_EQ(message.rfind("mesh deadlock: no runnable CPE", 0), 0u)
      << message;
  EXPECT_NE(message.find("(0 at barrier, 8 waiting on RMA, 0 waiting on a "
                         "lost DMA reply, 56 done)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("state=rma-wait blocked_on=\"rma_wait slot='bc' "
                         "round=0\""),
            std::string::npos)
      << message;
}

TEST(Deadlock, MissingBarrierParticipant) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);

  // CPE (0,0) skips the barrier: 63 CPEs park forever — the classic
  // generated-code bug (divergent control flow around synch()).
  const std::string message = runExpectingProtocolError(
      mesh, [&](CpeServices& cpe) {
        if (cpe.rid() == 0 && cpe.cid() == 0) return;
        cpe.sync();
      });

  EXPECT_NE(message.find("(63 at barrier, 0 waiting on RMA, 0 waiting on a "
                         "lost DMA reply, 1 done)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("state=barrier blocked_on=\"synch()\""),
            std::string::npos)
      << message;
}

TEST(Deadlock, TenThousandBarriersOnTheCallingThread) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);
  const std::thread::id caller = std::this_thread::get_id();
  int foreignThreads = 0;

  constexpr int kSyncs = 10000;
  const MeshRunResult result = mesh.run([&](CpeServices& cpe) {
    if (std::this_thread::get_id() != caller) ++foreignThreads;
    for (int i = 0; i < kSyncs; ++i) cpe.sync();
  });
  EXPECT_EQ(foreignThreads, 0) << "every CPE runs on the calling thread";
  EXPECT_EQ(result.totals.syncs, 64 * kSyncs);
  for (const SimTime time : result.perCpeTime)
    EXPECT_EQ(time, result.perCpeTime.front());
}

// --- abort paths --------------------------------------------------------

/// Recurse `depth` frames (the add after the call rules out a tail call),
/// then throw from the bottom one.
int throwFromDepth(int depth) {
  volatile char frame[256] = {};
  if (depth == 0) throw ProtocolError("deep failure 200 frames down");
  return throwFromDepth(depth - 1) + frame[depth % 256];
}

TEST(Abort, DeepThrowWhileOthersParkedWins) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);

  // CPE (7,7) runs last: the other 63 are parked at the barrier when it
  // throws from 200 frames down, and each unwinds with a secondary
  // "aborted" error that must not replace the first.
  const std::string message =
      runExpectingProtocolError(mesh, [&](CpeServices& cpe) {
        if (cpe.rid() == 7 && cpe.cid() == 7) (void)throwFromDepth(200);
        cpe.sync();
      });
  EXPECT_EQ(message, "deep failure 200 frames down");
}

TEST(Abort, BarrierAbortPreservesFirstError) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);

  // One CPE throws while others wait at the barrier; the barrier must
  // release them and the *original* error must win over the secondary
  // "aborted while waiting" ones raised at the barrier.
  const std::string message =
      runExpectingProtocolError(mesh, [&](CpeServices& cpe) {
        if (cpe.rid() == 2 && cpe.cid() == 5)
          throw ProtocolError("injected failure in CPE 2,5");
        cpe.sync();
      });
  EXPECT_EQ(message, "injected failure in CPE 2,5");
}

TEST(Abort, MeshIsReusableAfterAbortedRun) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/false);

  EXPECT_THROW(mesh.run([&](CpeServices& cpe) {
    if (cpe.rid() == 0 && cpe.cid() == 1)
      throw ProtocolError("first run dies");
    cpe.sync();
  }),
               ProtocolError);

  // run() resets the abort/error/barrier state, so the same simulator
  // must complete a healthy run afterwards.
  MeshRunResult result = mesh.run([&](CpeServices& cpe) {
    cpe.timing().compute(1000, ComputeRate::kElementwise);
    cpe.sync();
  });
  EXPECT_EQ(result.totals.syncs, 64);
  EXPECT_GT(result.time, 0);
}

TEST(Abort, NestedRunFromInsideACpeIsRefused) {
  // A kernel cannot spawn a core group (athread_spawn is the MPE's), and
  // the inner run's host context would be the outer CPE's fiber.
  ArchConfig config;
  MeshSimulator outer(config, /*functional=*/false);
  MeshSimulator inner(config, /*functional=*/false);
  EXPECT_THROW(outer.run([&](CpeServices&) { inner.run([](CpeServices&) {}); }),
               InternalError);
}

TEST(Abort, SpmOutOfBoundsCarriesCpeCoordinates) {
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  const std::string message =
      runExpectingProtocolError(mesh, [&](CpeServices& cpe) {
        if (cpe.rid() != 7 || cpe.cid() != 7) return;
        (void)cpe.spmPtr(config.spmBytes, 1);  // one byte past the SPM
      });
  EXPECT_NE(message.find("SPM"), std::string::npos) << message;
  EXPECT_NE(message.find("CPE 7,7"), std::string::npos) << message;
}

/// What a run sees at its start: every CPE counts the nonzero words of its
/// whole SPM (functional meshes only), then computes and syncs.
struct ProbeRun {
  std::int64_t nonzeroSpmWords = 0;
  MeshRunResult result;
};

ProbeRun probeRun(MeshSimulator& mesh) {
  const std::int64_t words = mesh.config().spmBytes / 8;
  ProbeRun probe;
  probe.result = mesh.run([&](CpeServices& cpe) {
    if (const double* spm = cpe.spmPtr(0, words))
      probe.nonzeroSpmWords += std::count_if(
          spm, spm + words, [](double value) { return value != 0.0; });
    cpe.timing().compute(1000 * (cpe.cid() + 1), ComputeRate::kElementwise);
    cpe.sync();
  });
  return probe;
}

/// Every CPE writes its whole SPM (functional meshes), then the run
/// aborts: CPE (0,0) loses a DMA reply forever (a deadlock dump), or CPE
/// (7,7) throws 200 frames down while the other 63 are parked at a barrier.
std::string dirtyAbortedRun(MeshSimulator& mesh, bool deadlock) {
  const std::int64_t words = mesh.config().spmBytes / 8;
  if (deadlock) mesh.setFaultPlan(plan("dma-drop:cpe=0:occ=0:count=forever"));
  const std::string message =
      runExpectingProtocolError(mesh, [&](CpeServices& cpe) {
        if (double* spm = cpe.spmPtr(0, words))
          std::fill(spm, spm + words, 3.0);
        if (!deadlock) {
          if (cpe.rid() == 7 && cpe.cid() == 7) (void)throwFromDepth(200);
          cpe.sync();
          return;
        }
        if (cpe.rid() != 0 || cpe.cid() != 0) return;
        DmaRequest request;
        request.array = "A";
        request.tileRows = 2;
        request.tileCols = 2;
        request.slot = "lost";
        request.slotId = cpe.internSlot(request.slot);
        request.arrayId = cpe.internArray(request.array);
        cpe.dmaIssue(request);
        cpe.waitSlot(request.slotId, /*isRma=*/false, true);
      });
  mesh.setFaultPlan(nullptr);
  return message;
}

TEST(Abort, RunAfterAnAbortedRunStartsClean) {
  // The aborted run's SPM writes, parked fibers and barrier state are all
  // gone by the next run, on the same mesh and on a fresh one.
  ArchConfig config;
  for (const bool functional : {true, false}) {
    MeshSimulator reference(config, functional);
    const ProbeRun expected = probeRun(reference);
    const auto expectClean = [&](const ProbeRun& probe) {
      EXPECT_EQ(probe.nonzeroSpmWords, 0);
      EXPECT_EQ(probe.result.perCpeTime, expected.result.perCpeTime);
      EXPECT_TRUE(probe.result.perCpeCounters ==
                  expected.result.perCpeCounters);
    };
    for (const bool deadlock : {true, false}) {
      SCOPED_TRACE(testing::Message() << "functional=" << functional
                                      << " deadlock=" << deadlock);
      MeshSimulator mesh(config, functional);
      mesh.memory().add(HostArray::allocate("A", 1, 8, 8));
      const std::string message = dirtyAbortedRun(mesh, deadlock);
      EXPECT_EQ(message.rfind(deadlock ? "mesh deadlock: no runnable CPE"
                                       : "deep failure 200 frames down",
                              0),
                0u)
          << message;
      expectClean(probeRun(mesh));
      (void)dirtyAbortedRun(mesh, deadlock);
      MeshSimulator fresh(config, functional);
      expectClean(probeRun(fresh));
    }
  }
}

TEST(Abort, TransientRmaDropIsNotADeadlock) {
  // A finite rma-drop is *not* a hang: the round arrives marked dropped
  // and every receiver throws a clean ProtocolError naming the round.
  ArchConfig config;
  MeshSimulator mesh(config, /*functional=*/true);
  mesh.setFaultPlan(plan("rma-drop:cpe=3:occ=0:count=1"));

  const std::string message = runExpectingProtocolError(mesh, rowZeroBroadcast);
  EXPECT_NE(message.find("dropped in transit (injected fault)"),
            std::string::npos)
      << message;
}

}  // namespace
}  // namespace sw::sunway
