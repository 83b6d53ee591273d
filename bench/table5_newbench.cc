// Table V: the new benchmarks produced by the Section VI methodology —
// dataset pair sizes, ground truth |M|, blocking performance (PC, PQ, |C|,
// |P|), the tuned DeepBlocker configuration, split sizes, and the
// imbalance ratio.
//
// Flags: --scale=<f> (default 0.35; scales the source record counts),
//        --recall=<f> (default 0.9), --kmax=<n> (default 64),
//        --datasets=Dn1,...
#include <iostream>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "datagen/catalog.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  benchutil::BenchRun run("table5_newbench");
  benchutil::NewTasks tasks(flags, run);
  auto ids = benchutil::NewTasks::SelectIds(flags, run);

  std::vector<std::vector<std::string>> rows(ids.size());
  size_t failed = benchutil::ForEachDataset(
      run, ids, [&](size_t i) -> Status {
        RLBENCH_ASSIGN_OR_RETURN(core::NewBenchmark benchmark,
                                 tasks.Build(ids[i]));
        const auto* spec = datagen::FindSourceDataset(ids[i]);
        auto train = benchmark.task.TrainStats();
        auto test = benchmark.task.TestStats();
        auto total = benchmark.task.TotalStats();
        rows[i] = {
            spec->id, spec->d1_name, spec->d2_name,
            FormatWithCommas(static_cast<int64_t>(benchmark.d1_size)),
            FormatWithCommas(static_cast<int64_t>(benchmark.d2_size)),
            FormatWithCommas(static_cast<int64_t>(benchmark.num_matches)),
            std::to_string(spec->num_attrs),
            benchutil::F3(benchmark.blocking.metrics.pair_completeness),
            benchutil::F3(benchmark.blocking.metrics.pairs_quality),
            FormatWithCommas(
                static_cast<int64_t>(benchmark.blocking.candidates.size())),
            FormatWithCommas(static_cast<int64_t>(
                benchmark.blocking.metrics.true_candidates)),
            block::ConfigToString(benchmark.blocking.config,
                                  benchmark.task.left().schema()),
            FormatWithCommas(static_cast<int64_t>(train.total)),
            FormatWithCommas(static_cast<int64_t>(test.total)),
            FormatWithCommas(static_cast<int64_t>(train.positives)),
            FormatWithCommas(static_cast<int64_t>(test.positives)),
            benchutil::Pct(total.ImbalanceRatio()) + "%"};
        return Status::OK();
      });

  TablePrinter table(
      "Table V: new datasets generated by the DeepBlocker simulator "
      "(scale=" + FormatDouble(tasks.options().scale, 2) + ", target PC>=" +
      FormatDouble(tasks.options().min_recall, 2) + ")");
  table.SetHeader({"id", "D1", "D2", "|D1|", "|D2|", "|M|", "|A|", "PC",
                   "PQ", "|C|", "|P|", "config", "|Itr|", "|Ite|", "|Ptr|",
                   "|Pte|", "IR"});
  for (auto& row : rows) {
    if (!row.empty()) table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
