// Ablation A1 (the paper's Section VI future work): yield vs redundancy.
//
// Sweeps spare rows / spare column pairs on defective crossbars, with and
// without stuck-at-closed defects. On an optimum-size crossbar any
// stuck-at-closed defect is fatal (it poisons a full row and column); spare
// lines plus column-pair reassignment recover the yield, quantifying the
// area-redundancy tradeoff the paper calls for.
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "map/redundant_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "util/text_table.hpp"

namespace {

int runRedundancy(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-redundancy",
                        "Ablation A1: yield vs spare rows / column pairs");
  common.addSamplesTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(100);
  const std::shared_ptr<const Circuit> circuit = compileCircuit("squar5");
  const FunctionMatrix& fm = circuit->fm;
  std::cout << "Ablation: yield vs redundant lines on " << circuit->label << " ("
            << fm.rows() << "x" << fm.cols() << " optimum, " << samples
            << " samples per cell)\n\n";

  struct Scenario {
    const char* label;
    double open, closed;
  };
  const Scenario scenarios[] = {{"10% stuck-open only", 0.10, 0.0},
                                {"10% open + 0.2% stuck-closed", 0.10, 0.002},
                                {"10% open + 1% stuck-closed", 0.10, 0.01}};

  for (const Scenario& sc : scenarios) {
    TextTable table({"spares (rows/in-pairs/out-pairs)", "area overhead", "success rate"});
    for (const std::size_t spare : {0u, 1u, 2u, 4u, 8u, 12u}) {
      RedundantCrossbarSpec spec;
      spec.spareRows = spare;
      spec.spareInputPairs = (spare + 1) / 2;
      spec.spareOutputPairs = (spare + 2) / 3;
      const CrossbarDims dims = redundantDims(fm, spec);
      const RedundantMapper mapper(spec);

      Rng rng(1234 + spare);
      std::size_t successes = 0;
      for (std::size_t s = 0; s < samples; ++s) {
        Rng sampleRng = rng.split();
        const DefectMap defects =
            IidBernoulli(sc.open, sc.closed).sample(dims.rows, dims.cols, sampleRng);
        if (mapper.map(fm, defects, 77 + s).success) ++successes;
      }
      const double overhead =
          100.0 * (double(dims.area()) / double(fm.dims().area()) - 1.0);
      table.addRow({std::to_string(spare) + "/" + std::to_string(spec.spareInputPairs) + "/" +
                        std::to_string(spec.spareOutputPairs),
                    TextTable::num(overhead, 0) + "%",
                    TextTable::percent(double(successes) / double(samples))});
    }
    std::cout << sc.label << ":\n" << table << "\n";
  }
  std::cout << "expected shape: with stuck-closed defects the zero-spare yield collapses\n"
               "(Section IV-A: untolerable without redundancy); modest spare budgets\n"
               "recover it at bounded area overhead.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-redundancy", "A1: yield vs spare rows and column pairs",
                runRedundancy);
