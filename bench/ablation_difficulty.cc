// Ablation (and the paper's stated future work, Section VII): a continuum
// of benchmark difficulty. Sweeps the two difficulty knobs of the
// synthetic substrate — duplicate corruption (match_noise) and the hard
// negative fraction — and reports how the a-priori measures and the best
// linear matcher respond. This demonstrates the knob -> difficulty mapping
// the catalog calibration relies on.
//
// Flags: --pairs=<n> (default 2500), --domain=product|bibliographic|...
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/complexity.h"
#include "core/linearity.h"
#include "datagen/task_builder.h"
#include "matchers/esde.h"

using namespace rlbench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  size_t pairs = static_cast<size_t>(flags.GetInt("pairs", 2500));
  std::string domain_name = flags.GetString("domain", "product");
  auto domain = datagen::DomainFromName(domain_name);

  benchutil::BenchRun run("ablation_difficulty");
  run.manifest().AddConfig("pairs", static_cast<int64_t>(pairs));
  run.manifest().AddConfig("domain", domain_name);
  if (!domain) {
    // Nothing to degrade to: record the failed sweep and exit non-zero.
    Status status = Status::InvalidArgument("unknown domain " + domain_name);
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    run.manifest().AddCompletedPhase("sweep", 0.0, true, status.ToString());
    run.Finish();
    return 1;
  }

  TablePrinter table(
      "Ablation: difficulty continuum on the '" + domain_name + "' domain");
  table.SetHeader({"noise", "hard-neg", "F1max_CS", "cx avg", "SA-ESDE",
                   "SBQ-ESDE"});

  run.manifest().BeginPhase("sweep");
  for (double noise : {0.05, 0.2, 0.35, 0.5, 0.65}) {
    for (double hard : {0.1, 0.5}) {
      datagen::ExistingBenchmarkSpec spec;
      spec.id = "sweep";
      spec.origin = "sweep";
      spec.domain = *domain;
      spec.num_attrs = 0;  // full domain schema
      spec.total_pairs = pairs;
      spec.positives = pairs / 8;
      spec.match_noise = noise;
      spec.hard_negative_fraction = hard;
      spec.seed = 4242;
      auto task = datagen::BuildExistingBenchmark(spec, 1.0);
      matchers::MatchingContext context(&task);

      auto linearity = core::ComputeLinearity(context);
      core::ComplexityOptions cx_options;
      cx_options.max_points = 1200;
      auto complexity = core::ComputeComplexity(
          core::PairFeaturePoints(context), cx_options);
      matchers::EsdeMatcher sa(matchers::EsdeVariant::kSchemaAgnostic);
      matchers::EsdeMatcher sbq(matchers::EsdeVariant::kSchemaBasedQgram);
      table.AddRow({FormatDouble(noise, 2), FormatDouble(hard, 2),
                    benchutil::F3(linearity.f1_cosine),
                    benchutil::F3(complexity.Average()),
                    benchutil::Pct(sa.TestF1(context)),
                    benchutil::Pct(sbq.TestF1(context))});
    }
    table.AddSeparator();
  }
  run.manifest().EndPhase();
  table.Print(std::cout);
  std::printf(
      "\nReading: linearity falls and complexity rises monotonically in the\n"
      "noise knob; the hard-negative knob steepens both — the controllable\n"
      "difficulty continuum the paper proposes as future work.\n");
  run.Finish();
  return 0;
}
