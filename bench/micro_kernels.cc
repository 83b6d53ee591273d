// Microbenchmark of the vectorized kernels: every kernel is timed against
// its scalar reference on real benchmark data, the two paths are checked
// for bit-identical output while timing, and the per-kernel timings
// (median and MAD of --repeats runs after one warm-up) and speedups land
// in the run manifest's results. The reference invocation (no flags)
// publishes that manifest as bench_results/BENCH_kernels.json; runs at
// other flags, such as the sanitizer smoke, do not. The acceptance bar
// (enforced by eye / CI history, not by an assert — machines differ) is
// >= 2x on jaccard_token_ids and mlp_batch_score.
//
// Flags: --scale (default 1.0), --repeats (default 5: timed runs),
//        --dataset (default Ds5), --rounds (default 40: pair-set sweeps)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "data/columnar.h"
#include "data/feature_cache.h"
#include "datagen/catalog.h"
#include "datagen/task_builder.h"
#include "matchers/features.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "text/kernels.h"
#include "text/similarity.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  int rounds = static_cast<int>(flags.GetInt("rounds", 40));
  std::string dataset = flags.GetString("dataset", "Ds5");

  benchutil::BenchRun run("micro_kernels");
  // Only a full-size run is reference evidence; a smoke run must never
  // overwrite the committed result file.
  if (argc == 1) run.PublishAs("kernels");
  run.manifest().AddDataset(dataset);
  run.manifest().AddConfig("scale", scale);
  run.manifest().AddConfig("repeats", static_cast<int64_t>(repeats));
  run.manifest().AddConfig("rounds", static_cast<int64_t>(rounds));

  const auto* spec = datagen::FindExistingBenchmark(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset id %s\n", dataset.c_str());
    benchutil::RecordDatasetPhase(
        run, dataset, 0.0, Status::NotFound("unknown dataset id " + dataset));
    run.Finish();
    return 1;
  }
  auto task = datagen::BuildExistingBenchmark(*spec, scale);

  run.manifest().BeginPhase("warm");
  data::ColumnarStore store(task.left(), task.right());
  // All labelled pairs of the task, swept `rounds` times per timed pass so
  // each kernel runs long enough for the clock.
  std::vector<data::LabeledPair> pairs = task.train();
  pairs.insert(pairs.end(), task.valid().begin(), task.valid().end());
  pairs.insert(pairs.end(), task.test().begin(), task.test().end());
  size_t ops = pairs.size() * static_cast<size_t>(rounds);
  // The scalar side reads token sets from the row-oriented reference cache,
  // filled here so the timed sweeps only read it.
  data::RecordFeatureCache left_cache(&task.left());
  data::RecordFeatureCache right_cache(&task.right());
  for (const auto& p : pairs) {
    left_cache.TokenSetAll(p.left);
    right_cache.TokenSetAll(p.right);
  }
  run.manifest().EndPhase();

  run.manifest().AddResult("pairs", static_cast<double>(pairs.size()));
  auto record = [&](const std::string& name, size_t kernel_ops,
                    const benchutil::Timing& scalar,
                    const benchutil::Timing& vectorized) {
    double speedup = vectorized.median_s > 0.0
                         ? scalar.median_s / vectorized.median_s
                         : 0.0;
    run.manifest().AddResult(name + "/ops", static_cast<double>(kernel_ops));
    run.AddTiming(name + "/scalar", scalar);
    run.AddTiming(name + "/vectorized", vectorized);
    run.manifest().AddResult(name + "/speedup", speedup);
    std::printf("%-20s scalar=%.4fs vectorized=%.4fs speedup=%.2fx "
                "(medians of %d)\n",
                name.c_str(), scalar.median_s, vectorized.median_s, speedup,
                repeats);
  };
  constexpr size_t kL = data::ColumnarStore::kLeft;
  constexpr size_t kR = data::ColumnarStore::kRight;
  namespace k = text::kernels;

  // Checksums accumulate every similarity so the compiler cannot drop the
  // work, and double as the differential check: scalar and vectorized
  // sweeps must agree bit for bit.
  run.manifest().BeginPhase("kernels");
  {
    double scalar_sum = 0.0, vector_sum = 0.0;
    benchutil::Timing scalar = benchutil::Measure(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          scalar_sum += text::JaccardSimilarity(
              left_cache.TokenSetAll(p.left), right_cache.TokenSetAll(p.right));
        }
      }
    });
    // The vectorized side is the batched kernel: gathering the id spans
    // into the pair array is part of the timed work, the sweep itself is
    // one call per round.
    std::vector<k::U32SetPair> set_pairs(pairs.size());
    std::vector<double> jac(pairs.size());
    benchutil::Timing vectorized = benchutil::Measure(repeats, [&] {
      vector_sum = 0.0;
      for (size_t i = 0; i < pairs.size(); ++i) {
        auto a = store.TokenIdsAll(kL, pairs[i].left);
        auto b = store.TokenIdsAll(kR, pairs[i].right);
        set_pairs[i] = {a.data(), b.data(), static_cast<uint32_t>(a.size()),
                        static_cast<uint32_t>(b.size())};
      }
      for (int round = 0; round < rounds; ++round) {
        k::JaccardSortedU32Batch(set_pairs.data(), set_pairs.size(),
                                 jac.data());
        for (double v : jac) vector_sum += v;
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    record("jaccard_token_ids", ops, scalar, vectorized);
  }
  {
    // The ESDE triple: three scalar merge scans vs one family scan.
    double scalar_sum = 0.0, vector_sum = 0.0;
    benchutil::Timing scalar = benchutil::Measure(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          const auto& a = left_cache.TokenSetAll(p.left);
          const auto& b = right_cache.TokenSetAll(p.right);
          scalar_sum += text::CosineSimilarity(a, b) +
                        text::DiceSimilarity(a, b) +
                        text::JaccardSimilarity(a, b);
        }
      }
    });
    benchutil::Timing vectorized = benchutil::Measure(repeats, [&] {
      vector_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          k::SetSims sims = k::SetFamilySortedU32(
              store.TokenIdsAll(kL, p.left), store.TokenIdsAll(kR, p.right));
          vector_sum += sims.cosine + sims.dice + sims.jaccard;
        }
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    record("esde_set_family", ops, scalar, vectorized);
  }
  {
    // Edit-distance family over the first attribute, Magellan's truncation.
    double scalar_sum = 0.0, vector_sum = 0.0;
    auto value = [&](size_t side, uint32_t record) {
      std::string_view v = store.Value(side, record, 0);
      return v.substr(0, std::min(v.size(), matchers::kMaxCharsForEditSims));
    };
    benchutil::Timing scalar = benchutil::Measure(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          scalar_sum +=
              text::LevenshteinSimilarity(value(kL, p.left), value(kR, p.right));
        }
      }
    });
    benchutil::Timing vectorized = benchutil::Measure(repeats, [&] {
      vector_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          vector_sum += k::LevenshteinSimilarityBanded(value(kL, p.left),
                                                       value(kR, p.right));
        }
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    record("levenshtein_banded", ops, scalar, vectorized);
  }
  {
    double scalar_sum = 0.0, vector_sum = 0.0;
    auto value = [&](size_t side, uint32_t record) {
      std::string_view v = store.Value(side, record, 0);
      return v.substr(0, std::min(v.size(), matchers::kMaxCharsForEditSims));
    };
    benchutil::Timing scalar = benchutil::Measure(repeats, [&] {
      scalar_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          scalar_sum +=
              text::JaroWinklerSimilarity(value(kL, p.left), value(kR, p.right));
        }
      }
    });
    benchutil::Timing vectorized = benchutil::Measure(repeats, [&] {
      vector_sum = 0.0;
      for (int round = 0; round < rounds; ++round) {
        for (const auto& p : pairs) {
          vector_sum +=
              k::JaroWinklerKernel(value(kL, p.left), value(kR, p.right));
        }
      }
    });
    RLBENCH_CHECK(scalar_sum == vector_sum);
    record("jaro_winkler", ops, scalar, vectorized);
  }
  {
    // Batched MLP scoring vs the per-row loop, on a trained net.
    Rng rng(7);
    constexpr size_t kRows = 4000, kDim = 36;
    auto random_dataset = [&](size_t rows) {
      ml::Dataset data(kDim);
      std::vector<float> row(kDim);
      for (size_t i = 0; i < rows; ++i) {
        for (float& x : row) x = static_cast<float>(rng.Gaussian());
        data.Add(row, rng.Bernoulli(0.4));
      }
      return data;
    };
    ml::MlpOptions options;
    options.epochs = 2;
    ml::Mlp mlp(options);
    ml::Dataset train = random_dataset(600);
    ml::Dataset valid = random_dataset(100);
    mlp.Fit(train, valid);
    ml::Dataset test = random_dataset(kRows);
    std::vector<double> scalar_scores(kRows), vector_scores(kRows);
    benchutil::Timing scalar = benchutil::Measure(repeats, [&] {
      for (size_t i = 0; i < kRows; ++i) {
        scalar_scores[i] = mlp.PredictScore(test.row(i));
      }
    });
    benchutil::Timing vectorized = benchutil::Measure(repeats, [&] {
      mlp.PredictScoresBatch(test, vector_scores);
    });
    RLBENCH_CHECK(scalar_scores == vector_scores);
    record("mlp_batch_score", kRows, scalar, vectorized);
  }
  run.manifest().EndPhase();

  run.Finish();
  return 0;
}
