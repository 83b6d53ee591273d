// Table III: characteristics of the 13 established benchmarks.
// Prints |D1|, |D2|, |A|, the labelled / positive / negative instance
// counts of the training and testing splits, and the imbalance ratio.
//
// Flags: --scale=<f> (default 1.0; applies to pair counts),
//        --datasets=Ds1,... (default: all 13).
#include <iostream>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "datagen/catalog.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  benchutil::BenchRun run("table3_datasets");
  benchutil::ExistingTasks tasks(run, scale);
  auto ids = benchutil::ExistingTasks::SelectIds(flags, run);

  std::vector<std::vector<std::string>> rows(ids.size());
  size_t failed = benchutil::ForEachDataset(
      run, ids, [&](size_t i) -> Status {
        RLBENCH_ASSIGN_OR_RETURN(data::MatchingTask task, tasks.Task(ids[i]));
        const auto* spec = datagen::FindExistingBenchmark(ids[i]);
        auto train = task.TrainStats();
        auto test = task.TestStats();
        auto total = task.TotalStats();
        rows[i] = {
            spec->id, spec->origin, datagen::DomainName(spec->domain),
            FormatWithCommas(static_cast<int64_t>(task.left().size())),
            FormatWithCommas(static_cast<int64_t>(task.right().size())),
            std::to_string(spec->num_attrs),
            FormatWithCommas(static_cast<int64_t>(train.total)),
            FormatWithCommas(static_cast<int64_t>(train.positives)),
            FormatWithCommas(static_cast<int64_t>(train.negatives)),
            FormatWithCommas(static_cast<int64_t>(test.total)),
            FormatWithCommas(static_cast<int64_t>(test.positives)),
            FormatWithCommas(static_cast<int64_t>(test.negatives)),
            benchutil::Pct(total.ImbalanceRatio()) + "%"};
        return Status::OK();
      });

  TablePrinter table(
      "Table III: The established datasets for DL-based matching algorithms "
      "(synthetic reconstruction, scale=" +
      FormatDouble(scale, 2) + ")");
  table.SetHeader({"id", "origin", "domain", "|D1|", "|D2|", "|A|", "|Itr|",
                   "|Ptr|", "|Ntr|", "|Ite|", "|Pte|", "|Nte|", "IR"});
  for (auto& row : rows) {
    if (!row.empty()) table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  run.Finish();
  return failed == ids.size() ? 1 : 0;
}
