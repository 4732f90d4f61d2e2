/**
 * @file
 * Ablation: does a more complex control strategy beat the simple
 * policies? The paper concludes "a more complex control strategy
 * may not be warranted"; this bench quantifies the claim by pitting
 * a timeout policy, an EWMA-based adaptive predictor, and a
 * perfect-knowledge oracle against the paper's four policies on the
 * real benchmark idle distributions.
 *
 * Runs on api::SweepRunner with registry-named policies: the suite
 * is simulated once and both technology points replay each profile
 * through the multi-point engine, every policy through its batch
 * kernel (Adaptive through its stateful lane kernel). Replay feeds
 * Adaptive each profile's interval lengths in ascending order, not
 * time order (ROADMAP item 1), so its column here tracks Oracle.
 *
 * Arguments: insts=<n> (default 500000), seed=<n>.
 */

#include <iostream>

#include "api/sweep.hh"
#include "args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "energy/breakeven.hh"

int
main(int argc, char **argv)
{
    using namespace lsim;

    setInformEnabled(false);
    bench::Args opts(500'000);
    opts.parse(argc, argv);

    // "gradual" and "timeout" default to the breakeven-derived slice
    // count / timeout at each technology point, matching the legacy
    // hand-built controller set; "no-overhead" is the normalizer.
    api::SweepConfig cfg;
    cfg.insts = opts.insts;
    cfg.seed = opts.seed;
    cfg.technologies = {api::analysisPoint(0.05),
                        api::analysisPoint(0.5)};
    cfg.policies = {"max-sleep", "gradual",  "always-active",
                    "timeout",   "adaptive", "oracle",
                    "weighted-gradual", "no-overhead"};
    const auto sweep = api::SweepRunner(cfg).run();

    for (std::size_t t = 0; t < cfg.technologies.size(); ++t) {
        const auto &mp = cfg.technologies[t];
        const double be = energy::breakevenInterval(mp);

        std::cout << "Complex-control ablation, p = " << fixed(mp.p, 2)
                  << " (breakeven = " << fixed(be, 1)
                  << ")\nPer-benchmark energy relative to "
                     "NoOverhead:\n\n";
        Table table({"App", "MaxSleep", "GradualSleep",
                     "AlwaysActive", "Timeout", "Adaptive",
                     "Oracle", "WeightedGS"});
        double sums[7] = {};
        for (std::size_t w = 0; w < sweep.workloads.size(); ++w) {
            const auto &res = sweep.cell(w, t).policies;
            const double no = res[7].energy;
            std::vector<std::string> row{sweep.workloads[w]};
            for (int i = 0; i < 7; ++i) {
                row.push_back(fixed(res[i].energy / no, 3));
                sums[i] += res[i].energy / no;
            }
            table.addRow(row);
        }
        const auto n = static_cast<double>(sweep.workloads.size());
        std::vector<std::string> avg{"Average"};
        for (double s : sums)
            avg.push_back(fixed(s / n, 3));
        table.addRow(avg);
        table.print(std::cout);
        std::cout << "\nReading: if the Oracle's margin over the "
                     "best simple policy is small, the\npaper's "
                     "conclusion holds — complex control is not "
                     "warranted at this technology point.\n\n";
    }
    return 0;
}
