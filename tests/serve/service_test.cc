// MatchService: served scores must equal direct matcher invocation
// bit-for-bit at any thread count, the micro-batcher must not change
// results, and admission control must reject — never block or crash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/context.h"
#include "matchers/esde.h"
#include "matchers/magellan.h"
#include "matchers/registry.h"
#include "matchers/zeroer.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace rlbench::serve {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::MatchingTask(datagen::BuildExistingBenchmark(
        *datagen::FindExistingBenchmark("Ds7"), 0.5));
  }
  static void TearDownTestSuite() {
    delete task_;
    task_ = nullptr;
  }

  static std::shared_ptr<const matchers::TrainedModel> Train(
      const matchers::MatchingContext& context, const std::string& name) {
    auto trained = matchers::TrainServableMatcher(name, context);
    EXPECT_TRUE(trained.ok()) << trained.status();
    return std::shared_ptr<const matchers::TrainedModel>(std::move(*trained));
  }

  static data::MatchingTask* task_;
};

data::MatchingTask* ServiceTest::task_ = nullptr;

// For each servable family, predictions served through the snapshot model
// must equal the matcher's own Run() — same bits, same decisions. All four
// Magellan classifiers are covered, so each one's decision rule (the SVM's
// margin, the others' score >= 0.5) is pinned against its Run().
TEST_F(ServiceTest, ServedDecisionsEqualDirectRunPerFamily) {
  matchers::MagellanMatcher dt(matchers::MagellanClassifier::kDecisionTree);
  matchers::MagellanMatcher lr(
      matchers::MagellanClassifier::kLogisticRegression);
  matchers::MagellanMatcher rf(matchers::MagellanClassifier::kRandomForest);
  matchers::MagellanMatcher svm(matchers::MagellanClassifier::kLinearSvm);
  matchers::ZeroErMatcher zeroer;
  matchers::EsdeMatcher esde(matchers::EsdeVariant::kSchemaAgnostic);
  matchers::Matcher* all[] = {&dt, &lr, &rf, &svm, &zeroer, &esde};
  for (matchers::Matcher* matcher : all) {
    SCOPED_TRACE(matcher->name());
    matchers::MatchingContext context(task_);
    std::vector<uint8_t> direct = matcher->Run(context);

    matchers::MatchingContext fresh(task_);
    MatchService service(&fresh);
    auto model = matcher->TrainModel(fresh);
    ASSERT_TRUE(model.ok()) << model.status();
    ASSERT_TRUE(service
                    .SwapModel(std::shared_ptr<const matchers::TrainedModel>(
                        std::move(*model)))
                    .ok());
    std::vector<uint8_t> served;
    auto assessed = service.AssessDataset(nullptr, &served);
    ASSERT_TRUE(assessed.ok()) << assessed.status();
    EXPECT_EQ(served, direct);
    EXPECT_EQ(assessed->pairs, task_->test().size());
    EXPECT_GT(assessed->batches, 0u);
  }
}

// Bit-exact thread invariance through the full serve path: train, swap,
// submit micro-batches, compare scores at 1, 2 and 7 threads.
TEST_F(ServiceTest, ServedScoresThreadInvariant) {
  auto scores_at = [&](size_t threads) {
    SetParallelThreads(threads);
    matchers::MatchingContext context(task_);
    MatchService service(&context);
    EXPECT_TRUE(service.SwapModel(Train(context, "SAQ-ESDE")).ok());
    std::vector<double> scores;
    const auto& test = task_->test();
    for (size_t begin = 0; begin < test.size(); begin += 7) {
      std::vector<data::LabeledPair> chunk(
          test.begin() + begin,
          test.begin() + std::min(test.size(), begin + 7));
      auto id = service.Submit(std::move(chunk),
                               [&scores](const RequestOutcome& outcome) {
                                 EXPECT_TRUE(outcome.status.ok());
                                 for (const PairScore& r : outcome.results) {
                                   scores.push_back(r.score);
                                 }
                               });
      EXPECT_TRUE(id.ok()) << id.status();
    }
    EXPECT_GT(service.QueuedPairs(), 0u);
    service.Drain();
    EXPECT_EQ(service.QueueDepth(), 0u);
    return scores;
  };
  auto one = scores_at(1);
  auto two = scores_at(2);
  auto seven = scores_at(7);
  SetParallelThreads(0);
  ASSERT_EQ(one.size(), task_->test().size());
  EXPECT_EQ(one, two);  // exact equality — the determinism contract
  EXPECT_EQ(one, seven);
}

// Coalescing many small requests into one batch must score identically to
// one request per batch.
TEST_F(ServiceTest, CoalescingDoesNotChangeScores) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-LR")).ok());
  std::vector<data::LabeledPair> pairs(task_->test().begin(),
                                       task_->test().begin() + 12);

  std::vector<double> singly;
  for (const auto& pair : pairs) {
    ASSERT_TRUE(service
                    .Submit({pair},
                            [&singly](const RequestOutcome& outcome) {
                              ASSERT_TRUE(outcome.status.ok());
                              singly.push_back(outcome.results[0].score);
                            })
                    .ok());
    service.Drain();  // one pair per batch
  }

  std::vector<double> coalesced;
  for (const auto& pair : pairs) {
    ASSERT_TRUE(service
                    .Submit({pair},
                            [&coalesced](const RequestOutcome& outcome) {
                              ASSERT_TRUE(outcome.status.ok());
                              coalesced.push_back(outcome.results[0].score);
                            })
                    .ok());
  }
  EXPECT_EQ(service.QueueDepth(), pairs.size());
  EXPECT_EQ(service.PumpOne(), pairs.size());  // all 12 in one micro-batch
  EXPECT_EQ(singly, coalesced);
}

TEST_F(ServiceTest, AdmissionControlRejectsWithoutBlocking) {
  matchers::MatchingContext context(task_);
  MatchServiceOptions options;
  options.queue_capacity_pairs = 8;
  options.max_batch_pairs = 4;
  MatchService service(&context, options);

  data::LabeledPair pair = task_->test().front();
  int callbacks = 0;
  auto count = [&callbacks](const RequestOutcome&) { ++callbacks; };

  // No model yet -> FailedPrecondition.
  EXPECT_EQ(service.Submit({pair}, count).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-DT")).ok());

  // Oversized and malformed requests are rejected up front.
  EXPECT_EQ(service.Submit(std::vector<data::LabeledPair>(5, pair), count)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Submit({}, count).status().code(),
            StatusCode::kInvalidArgument);
  data::LabeledPair bogus{1u << 30, 0, false};
  EXPECT_EQ(service.Submit({bogus}, count).status().code(),
            StatusCode::kInvalidArgument);

  // Fill the queue to capacity: 4 x 2 pairs admitted, the 5th rejected
  // with ResourceExhausted — it must not block, drop, or crash.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        service.Submit(std::vector<data::LabeledPair>(2, pair), count).ok());
  }
  EXPECT_EQ(service.QueuedPairs(), 8u);
  auto rejected = service.Submit(std::vector<data::LabeledPair>(2, pair), count);
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // Draining answers exactly the admitted requests, then capacity frees.
  EXPECT_EQ(service.Drain(), 4u);
  EXPECT_EQ(callbacks, 4);
  EXPECT_EQ(service.QueuedPairs(), 0u);
  EXPECT_TRUE(
      service.Submit(std::vector<data::LabeledPair>(2, pair), count).ok());
  service.Drain();
}

TEST_F(ServiceTest, QueuedDeadlineExpiresInsteadOfScoring) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  ASSERT_TRUE(service.SwapModel(Train(context, "Magellan-DT")).ok());

  Status expired;
  // A vanishingly small (but non-zero) deadline has always lapsed by pump
  // time; deadline 0 means none.
  ASSERT_TRUE(service
                  .SubmitWithDeadline({task_->test().front()}, 1e-7,
                                      [&expired](const RequestOutcome& o) {
                                        expired = o.status;
                                      })
                  .ok());
  Status scored;
  ASSERT_TRUE(service
                  .SubmitWithDeadline({task_->test().front()}, 0.0,
                                      [&scored](const RequestOutcome& o) {
                                        scored = o.status;
                                      })
                  .ok());
  service.Drain();
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(scored.ok()) << scored;  // its batch-mate is unaffected
}

// Swapping between model families mid-serve prepares the context for each
// and keeps scores bit-identical to a service that never swapped.
TEST_F(ServiceTest, HotSwapAcrossFamiliesKeepsScoresExact) {
  matchers::MatchingContext context(task_);
  MatchService service(&context);
  auto magellan = Train(context, "Magellan-RF");
  auto esde = Train(context, "SAS-ESDE");  // sentence family: no token caches

  auto score_one = [&service](const data::LabeledPair& pair) {
    double score = -1.0;
    EXPECT_TRUE(service
                    .Submit({pair},
                            [&score](const RequestOutcome& outcome) {
                              ASSERT_TRUE(outcome.status.ok());
                              score = outcome.results[0].score;
                            })
                    .ok());
    service.Drain();
    return score;
  };

  ASSERT_TRUE(service.SwapModel(magellan).ok());
  double magellan_score = score_one(task_->test()[3]);
  ASSERT_TRUE(service.SwapModel(esde).ok());
  double esde_score = score_one(task_->test()[3]);
  ASSERT_TRUE(service.SwapModel(magellan).ok());
  // Back on the first model: same pair, bit-identical score.
  EXPECT_EQ(score_one(task_->test()[3]), magellan_score);
  ASSERT_TRUE(service.SwapModel(esde).ok());
  EXPECT_EQ(score_one(task_->test()[3]), esde_score);

  // Schema arity validation still guards the swap path.
  EXPECT_EQ(service.SwapModel(nullptr).code(), StatusCode::kInvalidArgument);
}

// Toggling metrics collection must not perturb scores (the obs layer is
// observation only).
TEST_F(ServiceTest, MetricsOnOffDoesNotChangeScores) {
  auto run = [&](bool metrics_on) {
    obs::Metrics::SetEnabled(metrics_on);
    matchers::MatchingContext context(task_);
    MatchService service(&context);
    EXPECT_TRUE(service.SwapModel(Train(context, "SB-ESDE")).ok());
    std::vector<double> scores;
    auto assessed = service.AssessDataset(&scores, nullptr);
    EXPECT_TRUE(assessed.ok());
    return scores;
  };
  auto off = run(false);
  auto on = run(true);
  obs::Metrics::SetEnabled(false);
  EXPECT_EQ(off, on);
}

}  // namespace
}  // namespace rlbench::serve
