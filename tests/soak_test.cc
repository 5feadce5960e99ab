// Soak-harness tests: the synthetic catalog is fully compileable, the
// report's accounting is conserved (offered = completed + failed + shed),
// quota pressure sheds with typed causes, served queue waits respect the
// deadline, chaos verification runs under an active fault plan with zero
// wrong answers, the JSON report is well-formed and schema-stable, and its
// admission metrics are the frontend's own counts, not copies of them, and
// the registry's events of that soak alone.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "json_checker_test_util.h"
#include "service/soak.h"
#include "support/error.h"

namespace sw::service {
namespace {

SoakConfig smallConfig() {
  SoakConfig config;
  config.requests = 600;
  config.clientThreads = 2;
  config.clientWindow = 16;
  config.catalogSize = 6;
  config.deadlineSeconds = 30.0;  // generous: served work must meet it
  config.admission.maxQueueDepth = 32;
  config.admission.workers = 2;
  return config;
}

TEST(SoakTest, CatalogVariantsAllCompile) {
  KernelService service;
  for (const core::CodegenOptions& options : soakCatalog(96))
    EXPECT_NO_THROW(service.compile(options));
  EXPECT_EQ(soakCatalog(0).size(), 1u);    // clamped up
  EXPECT_EQ(soakCatalog(200).size(), 96u); // clamped down
}

TEST(SoakTest, AccountingConservedAndDeadlineBoundsQueueWait) {
  KernelService service;
  const SoakReport report = runSoak(service, smallConfig());

  EXPECT_EQ(report.offered, 600);
  EXPECT_EQ(report.offered,
            report.completed + report.failed + report.shed.total());
  EXPECT_GT(report.completed, 0);
  EXPECT_EQ(report.failed, 0);  // the catalog is fully feasible
  EXPECT_EQ(report.wrongAnswers, 0);
  // Served requests never waited past the deadline — anything older is a
  // deadline miss, not a completion.
  EXPECT_LE(report.queueWaitP99Ms, report.deadlineMs);
  EXPECT_GT(report.hitRate, 0.0);  // 600 requests over 6 distinct kernels
  EXPECT_GT(report.throughputPerSecond, 0.0);
}

TEST(SoakTest, QuotaPressureShedsWithTypedCause) {
  KernelService service;
  SoakConfig config = smallConfig();
  // Two tokens per tenant and effectively no refill: nearly everything
  // offered must be shed by the quota gate, and nothing silently.
  config.admission.defaultQuota = TenantQuota{2.0, 0.001};
  for (const std::string& tenant : config.tenants)
    config.admission.tenantQuotas[tenant] = TenantQuota{2.0, 0.001};

  const SoakReport report = runSoak(service, config);
  EXPECT_GT(report.shed.quota, 0);
  EXPECT_GT(report.shedRate, 0.5);
  EXPECT_EQ(report.offered,
            report.completed + report.failed + report.shed.total());
}

TEST(SoakTest, ChaosRunVerifiesWithZeroWrongAnswers) {
  KernelService service;
  SoakConfig config = smallConfig();
  config.verifyEvery = 50;
  config.chaosPlan = std::make_shared<sunway::FaultPlan>(
      sunway::FaultPlan::parse("dma-drop:rate=0.05;dma-corrupt:rate=0.02"));

  const SoakReport report = runSoak(service, config);
  EXPECT_GT(report.verifiedRuns, 0);
  EXPECT_EQ(report.wrongAnswers, 0);
  EXPECT_FALSE(report.faultPlan.empty());
}

TEST(SoakTest, JsonReportIsWellFormedAndCarriesAdmissionGauges) {
  KernelService service;
  const SoakReport report = runSoak(service, smallConfig());
  const std::string json = report.toJson();

  testutil::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"offered\": 600"), std::string::npos);
  EXPECT_NE(json.find("\"wrong_answers\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_p99\""), std::string::npos);
  // The service.admission.* gauges ride along verbatim.
  EXPECT_NE(json.find("service.admission.completed"), std::string::npos);

  const std::string text = report.toText();
  EXPECT_NE(text.find("shed breakdown"), std::string::npos);
  EXPECT_NE(text.find("queue wait"), std::string::npos);
}

TEST(SoakTest, AdmissionMetricsAreTheFrontendsStats) {
  KernelService service;
  const SoakReport report = runSoak(service, smallConfig());
  const std::map<std::string, double> admission(
      report.admissionGauges.begin(), report.admissionGauges.end());
  // Nothing trips a breaker here, so every offered request was submitted;
  // every one the frontend served, the clients saw complete.
  EXPECT_EQ(admission.at("service.admission.submitted"), report.offered);
  EXPECT_EQ(admission.at("service.admission.submitted"), report.submitted);
  EXPECT_EQ(admission.at("service.admission.completed"), report.completed);
  EXPECT_EQ(admission.at("service.admission.failed"), report.failed);
  EXPECT_EQ(admission.at("service.admission.queue_depth_peak"),
            report.queueDepthPeak);
  // The depth after the drain is always 0, so the report leaves it out.
  EXPECT_EQ(admission.count("service.admission.queue_depth"), 0u);
  // The queue-wait distribution lives in its histogram alone.
  for (const auto& [name, value] : admission)
    EXPECT_EQ(name.find("queue_wait"), std::string::npos) << name;
}

TEST(SoakTest, EachSoakReportsOnlyItsOwnAdmissionEvents) {
  // Two quota-starved soaks in one process: the registry's shed counters
  // keep growing across both, and each report must carry its own sheds.
  SoakConfig config = smallConfig();
  config.admission.defaultQuota = TenantQuota{2.0, 0.001};
  for (const std::string& tenant : config.tenants)
    config.admission.tenantQuotas[tenant] = TenantQuota{2.0, 0.001};
  KernelService service;
  for (int soak = 0; soak < 2; ++soak) {
    const SoakReport report = runSoak(service, config);
    std::map<std::string, double> admission(report.admissionGauges.begin(),
                                            report.admissionGauges.end());
    ASSERT_GT(report.shed.quota, 0) << "soak " << soak;
    EXPECT_EQ(admission["service.admission.shed"], report.shed.total())
        << "soak " << soak;
    EXPECT_EQ(admission["service.admission.shed_quota"], report.shed.quota)
        << "soak " << soak;
    EXPECT_EQ(admission["service.admission.submitted"], report.submitted)
        << "soak " << soak;
  }
}

}  // namespace
}  // namespace sw::service
