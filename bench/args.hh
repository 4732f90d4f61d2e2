/**
 * @file
 * Shared command-line parsing for the figure/table bench harnesses:
 * the historical "insts=<n> seed=<n>" overrides every bench accepts.
 *
 * The benches depend only on the api:: facade plus this header, not
 * on a suite driver of their own.
 */

#ifndef LSIM_BENCH_ARGS_HH
#define LSIM_BENCH_ARGS_HH

#include <cstdint>
#include <cstring>
#include <cstdlib>

#include "common/logging.hh"

namespace lsim::bench
{

/** Instruction-count and seed overrides shared by every harness. */
struct Args
{
    std::uint64_t insts;
    std::uint64_t seed = 1;

    explicit Args(std::uint64_t default_insts) : insts(default_insts)
    {
    }

    /** Parse "insts=<n>" / "seed=<n>"; warns on anything else. */
    void
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strncmp(arg, "insts=", 6) == 0) {
                insts = std::strtoull(arg + 6, nullptr, 0);
                if (insts == 0)
                    fatal("bad insts= argument '%s'", arg);
            } else if (std::strncmp(arg, "seed=", 5) == 0) {
                seed = std::strtoull(arg + 5, nullptr, 0);
            } else {
                warn("ignoring unrecognized argument '%s'", arg);
            }
        }
    }
};

} // namespace lsim::bench

#endif // LSIM_BENCH_ARGS_HH
