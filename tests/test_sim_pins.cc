/**
 * @file
 * Pins of the phase-1 timing simulator's output. Every figure the
 * repository reproduces flows from these simulations, so a change to
 * the core, the trace generator or the FU-count selection must keep
 * every row below — or re-pin deliberately, with the resulting
 * figure deltas explained.
 *
 * Three tables, all generated from the same code:
 *  - FNV-1a of the store::writeWorkloadSim bytes for the nine Table 3
 *    profiles x FU counts 1-4 x seeds {1, 2} at kInsts instructions;
 *  - the FU count the Table 3 rule (harness::selectFuCount) picks per
 *    (profile, seed);
 *  - the profile-store key (SimTask::fingerprint) of one auto task
 *    and one explicit task.
 *
 * A mismatched or missing row fails with the actual row printed in
 * table syntax.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>

#include "api/experiment.hh"
#include "api/sweep.hh"
#include "harness/experiment.hh"
#include "store/serialize.hh"
#include "trace/profile.hh"

namespace
{

using namespace lsim;

constexpr std::uint64_t kInsts = 20000;
constexpr std::uint64_t kSeeds[] = {1, 2};

struct SimPin
{
    const char *profile;
    std::uint64_t seed;
    unsigned fus;
    const char *hash; ///< FNV-1a hex of the writeWorkloadSim bytes
};

constexpr SimPin kSimPins[] = {
    {"health", 1, 1, "8703820756fe86c4"},
    {"health", 1, 2, "fa2d409dcadc11bf"},
    {"health", 1, 3, "47fda545a6c54b99"},
    {"health", 1, 4, "4d6f2a7a76436a79"},
    {"health", 2, 1, "74b7cfdc86146807"},
    {"health", 2, 2, "70bb209a1e6af212"},
    {"health", 2, 3, "158dc4236bcf5b50"},
    {"health", 2, 4, "507d3dc595a9c16e"},
    {"mst", 1, 1, "8b34e857e5cff6e8"},
    {"mst", 1, 2, "ceb81f17f3b97425"},
    {"mst", 1, 3, "ba79a844811b1fda"},
    {"mst", 1, 4, "82f50623bc54a2e9"},
    {"mst", 2, 1, "1d07d4a163588042"},
    {"mst", 2, 2, "4e4273bce56f90ce"},
    {"mst", 2, 3, "e15d92abbd299853"},
    {"mst", 2, 4, "a49b340b19b5f5ef"},
    {"gcc", 1, 1, "eb62e2967f1b8c9d"},
    {"gcc", 1, 2, "dcebeaa1e4b090e1"},
    {"gcc", 1, 3, "d40930cef773ada1"},
    {"gcc", 1, 4, "19f18ec35782415f"},
    {"gcc", 2, 1, "d6c0bb6a17e33abe"},
    {"gcc", 2, 2, "d8a97b23528275a3"},
    {"gcc", 2, 3, "c53844bc5764300a"},
    {"gcc", 2, 4, "d5cc54935a8bf2bb"},
    {"gzip", 1, 1, "85d0dc247bb5a180"},
    {"gzip", 1, 2, "72d44e6c88aa9abd"},
    {"gzip", 1, 3, "b2347400accf5b4e"},
    {"gzip", 1, 4, "2e40b8eb1f154a2c"},
    {"gzip", 2, 1, "622af70ab8953b64"},
    {"gzip", 2, 2, "a40a6203922f0d99"},
    {"gzip", 2, 3, "566914a751ed26d0"},
    {"gzip", 2, 4, "bb0385f2b1484921"},
    {"mcf", 1, 1, "cb1b5a674333f84a"},
    {"mcf", 1, 2, "816e9e6e191ae811"},
    {"mcf", 1, 3, "f83b417f9b09dfa3"},
    {"mcf", 1, 4, "987ec8df2f6de094"},
    {"mcf", 2, 1, "a3e81c8e52a613e9"},
    {"mcf", 2, 2, "dd06e9923bfdf87c"},
    {"mcf", 2, 3, "dfa48c4b42346fef"},
    {"mcf", 2, 4, "617a5a6784e4659f"},
    {"parser", 1, 1, "0516d5737f9053cb"},
    {"parser", 1, 2, "d1a527d171e0c26b"},
    {"parser", 1, 3, "5af736c0dd1efd1b"},
    {"parser", 1, 4, "8d7340008ac54f9e"},
    {"parser", 2, 1, "fa37b3a9b8031409"},
    {"parser", 2, 2, "95fead15f7e33420"},
    {"parser", 2, 3, "4a3ed20670c12907"},
    {"parser", 2, 4, "c5562e5cb244954d"},
    {"twolf", 1, 1, "e0faa7882db8ffab"},
    {"twolf", 1, 2, "b10b6a442fe0192f"},
    {"twolf", 1, 3, "f0e60b1676d9e7e3"},
    {"twolf", 1, 4, "31496f4d768b7288"},
    {"twolf", 2, 1, "9cf72e51d0484312"},
    {"twolf", 2, 2, "ad218c7472cd1ce2"},
    {"twolf", 2, 3, "318fc19a5f55d42e"},
    {"twolf", 2, 4, "93a449cb0ec4b11e"},
    {"vortex", 1, 1, "3e9069945783d9d2"},
    {"vortex", 1, 2, "5b03eaf527994b2c"},
    {"vortex", 1, 3, "d57bfca8d3aa7136"},
    {"vortex", 1, 4, "03e1fa757c207d7a"},
    {"vortex", 2, 1, "a823b7e3703f20dc"},
    {"vortex", 2, 2, "4f41dff046a42990"},
    {"vortex", 2, 3, "000a224938a17c82"},
    {"vortex", 2, 4, "f793cb03b4ce00e7"},
    {"vpr", 1, 1, "58d9128444debb7d"},
    {"vpr", 1, 2, "acc4e5a5f828b671"},
    {"vpr", 1, 3, "4c9d1fb2d80846cc"},
    {"vpr", 1, 4, "db5fcc4a8c3073e0"},
    {"vpr", 2, 1, "6bf9646f8066acb0"},
    {"vpr", 2, 2, "146e1990bd9fe050"},
    {"vpr", 2, 3, "4a0a02c0ade809f1"},
    {"vpr", 2, 4, "7d2f5a50432482ee"},
};

struct AutoPin
{
    const char *profile;
    std::uint64_t seed;
    unsigned chosen;
};

constexpr AutoPin kAutoPins[] = {
    {"health", 1, 2},
    {"health", 2, 2},
    {"mst", 1, 3},
    {"mst", 2, 3},
    {"gcc", 1, 3},
    {"gcc", 2, 3},
    {"gzip", 1, 3},
    {"gzip", 2, 3},
    {"mcf", 1, 2},
    {"mcf", 2, 2},
    {"parser", 1, 3},
    {"parser", 2, 3},
    {"twolf", 1, 2},
    {"twolf", 2, 2},
    {"vortex", 1, 3},
    {"vortex", 2, 3},
    {"vpr", 1, 2},
    {"vpr", 2, 3},
};

std::string
simHash(const trace::WorkloadProfile &profile, unsigned fus,
        std::uint64_t seed)
{
    const harness::WorkloadSim sim =
        harness::simulateWorkload(profile, fus, kInsts, {}, seed);
    std::ostringstream bytes;
    store::BinaryWriter w(bytes);
    store::writeWorkloadSim(w, sim);
    store::Fnv1a h;
    for (const char c : bytes.str())
        h.addByte(static_cast<std::uint8_t>(c));
    return h.hex();
}

TEST(SimPins, SerializedSimulationsMatchThePinnedHashes)
{
    for (const auto &profile : trace::table3Profiles())
        for (const std::uint64_t seed : kSeeds)
            for (unsigned fus = 1; fus <= 4; ++fus) {
                const std::string actual = simHash(profile, fus, seed);
                const SimPin *pin = nullptr;
                for (const SimPin &row : kSimPins)
                    if (row.profile == profile.name &&
                        row.seed == seed && row.fus == fus)
                        pin = &row;
                if (!pin || actual != pin->hash)
                    ADD_FAILURE()
                        << "actual row: {\"" << profile.name << "\", "
                        << seed << ", " << fus << ", \"" << actual
                        << "\"},";
            }
    EXPECT_EQ(std::size(kSimPins),
              trace::table3Profiles().size() * 4 * std::size(kSeeds));
}

TEST(SimPins, AutoSelectionPicksThePinnedCounts)
{
    for (const auto &profile : trace::table3Profiles())
        for (const std::uint64_t seed : kSeeds) {
            const unsigned actual =
                harness::selectFuCount(profile, kInsts, {}, 0.95, seed)
                    .chosen;
            const AutoPin *pin = nullptr;
            for (const AutoPin &row : kAutoPins)
                if (row.profile == profile.name && row.seed == seed)
                    pin = &row;
            if (!pin || actual != pin->chosen)
                ADD_FAILURE() << "actual row: {\"" << profile.name
                              << "\", " << seed << ", " << actual
                              << "},";
        }
    EXPECT_EQ(std::size(kAutoPins),
              trace::table3Profiles().size() * std::size(kSeeds));
}

TEST(SimPins, StoreKeysOfAutoAndExplicitTasks)
{
    api::detail::SimTask automatic;
    automatic.profile = trace::profileByName("mcf");
    automatic.fus = api::auto_select;
    automatic.insts = kInsts;
    automatic.seed = 1;
    EXPECT_EQ(automatic.fingerprint(), "mcf-5f1af09f996713f2")
        << "actual auto key: " << automatic.fingerprint();

    api::detail::SimTask explicit_count = automatic;
    explicit_count.profile = trace::profileByName("gcc");
    explicit_count.fus = 2;
    EXPECT_EQ(explicit_count.fingerprint(), "gcc-ca3b1d7629c040ba")
        << "actual explicit key: " << explicit_count.fingerprint();
}

} // namespace
