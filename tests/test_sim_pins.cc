/**
 * @file
 * Pins of the simulator's output. Every figure the repository
 * reproduces flows from these simulations and their renderings, so a
 * change to the core, the trace generator, the FU-count selection,
 * the replay engine or the CSV/JSON writers must keep every row below
 * — or re-pin deliberately, with the resulting figure deltas
 * explained.
 *
 * Seven tables, all generated from the same code:
 *  - FNV-1a of the store::writeWorkloadSim bytes for the nine Table 3
 *    profiles x FU counts 1-4 x seeds {1, 2} at kInsts instructions;
 *  - the same hash for mcf, health, gcc and vortex at their Table 3
 *    FU counts, seed 1, kLongInsts instructions: long enough to reach
 *    the long memory and front-end stalls that short runs rarely do;
 *  - the FU count the Table 3 rule (harness::selectFuCount) picks per
 *    (profile, seed);
 *  - the profile-store key (SimTask::fingerprint) of one auto task
 *    and one explicit task;
 *  - FNV-1a of SweepResult::writeCsv and writeJson for one
 *    {gcc, mst} sweep;
 *  - the SweepResult::averagesAt values, as hexfloat text, of a
 *    paper-policy {gcc, mcf} sweep at every point;
 *  - FNV-1a of RunResult::toJson and toCsv for one explicit-count and
 *    one auto-selected experiment.
 *
 * A mismatched or missing row fails with the actual row printed in
 * table syntax.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

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
constexpr std::uint64_t kLongInsts = 200000;

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

struct LongPin
{
    const char *profile;
    unsigned fus;     ///< the profile's Table 3 count
    const char *hash; ///< FNV-1a hex at kLongInsts, seed 1
};

constexpr LongPin kLongPins[] = {
    {"mcf", 2, "3178d7695b3305fd"},
    {"health", 2, "050a778fa2105e0f"},
    {"gcc", 2, "dd3e5cced5babe06"},
    {"vortex", 4, "911f1f4f8e3f02c9"},
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

struct RenderPin
{
    const char *output; ///< which rendering
    const char *hash;   ///< FNV-1a hex of its bytes
};

/**
 * sweep.*: {gcc, mst} x pSweep(0.05, 1.0, 5) under six policies, seed
 * 1, kInsts instructions. gzip.*: the paper's four policies at
 * p = 0.05. mcf-auto.*: the same at p = 0.3 with fus(auto_select).
 */
constexpr RenderPin kRenderPins[] = {
    {"sweep.csv", "847d98b3c7756814"},
    {"sweep.json", "b49c2bb690127cba"},
    {"gzip.json", "ef035e285e390f2b"},
    {"gzip.csv", "436980adad47f602"},
    {"mcf-auto.json", "967bb8e51ecb372d"},
    {"mcf-auto.csv", "a3adb2f1acd3d287"},
};

/** averagesAt of the paper's four policies over {gcc, mcf} at each
 * point of the sweep.* grid. */
struct AveragePin
{
    unsigned point;                ///< technology index of the sweep
    const char *policy;            ///< SuitePolicyAverages name
    const char *rel_to_nooverhead; ///< hexfloat text
    const char *leakage_fraction;  ///< hexfloat text
};

constexpr AveragePin kAveragePins[] = {
    {0, "MaxSleep", "0x1.1f14246788d9ap+0", "0x1.006b8b0ff0636p-4"},
    {0, "GradualSleep", "0x1.16c3244c48f28p+0", "0x1.8070ab19b358cp-4"},
    {0, "AlwaysActive", "0x1.1e623b0678e1dp+0", "0x1.5506d3aab048ap-3"},
    {0, "NoOverhead", "0x1p+0", "0x1.1ec2e9c584146p-4"},
    {1, "MaxSleep", "0x1.17518497fc98cp+0", "0x1.1bfbf5c477094p-2"},
    {1, "GradualSleep", "0x1.1a20dc8f39f22p+0", "0x1.3784b2b0aab8ap-2"},
    {1, "AlwaysActive", "0x1.8315519dd7434p+0", "0x1.0d4642866e7bap-1"},
    {1, "NoOverhead", "0x1p+0", "0x1.3558c08d2175cp-2"},
    {2, "MaxSleep", "0x1.12a8c5e4ab36cp+0", "0x1.a5d161e75302bp-2"},
    {2, "GradualSleep", "0x1.154883292755ap+0", "0x1.b357eee75a3ecp-2"},
    {2, "AlwaysActive", "0x1.bf8ae2fd35e18p+0", "0x1.553aed27f9e9cp-1"},
    {2, "NoOverhead", "0x1p+0", "0x1.c4133111eabe8p-2"},
    {3, "MaxSleep", "0x1.0f8d49cf54bf9p+0", "0x1.022b0062bec3fp-1"},
    {3, "GradualSleep", "0x1.0f8d49cf54bf9p+0", "0x1.022b0062bec3fp-1"},
    {3, "AlwaysActive", "0x1.e7dd7c4ad6b63p+0", "0x1.7c1250381b2a4p-1"},
    {3, "NoOverhead", "0x1p+0", "0x1.11a442711e03ep-1"},
    {4, "MaxSleep", "0x1.0d54ed69e042p+0", "0x1.2498d6cc431a8p-1"},
    {4, "GradualSleep", "0x1.0d54ed69e042p+0", "0x1.2498d6cc431a8p-1"},
    {4, "AlwaysActive", "0x1.02566b6d6d2d5p+1", "0x1.9475868837704p-1"},
    {4, "NoOverhead", "0x1p+0", "0x1.33a88aadc37d3p-1"},
};

std::string
fnvHex(const std::string &bytes)
{
    store::Fnv1a h;
    for (const char c : bytes)
        h.addByte(static_cast<std::uint8_t>(c));
    return h.hex();
}

std::string
simHash(const trace::WorkloadProfile &profile, unsigned fus,
        std::uint64_t seed, std::uint64_t insts = kInsts)
{
    const harness::WorkloadSim sim =
        harness::simulateWorkload(profile, fus, insts, {}, seed);
    std::ostringstream bytes;
    store::BinaryWriter w(bytes);
    store::writeWorkloadSim(w, sim);
    return fnvHex(bytes.str());
}

/** The pinned hash of @p output, or nullptr when no row names it. */
const char *
renderPin(const std::string &output)
{
    for (const RenderPin &row : kRenderPins)
        if (row.output == output)
            return row.hash;
    return nullptr;
}

void
expectRenderPin(const std::string &output, const std::string &bytes)
{
    const std::string actual = fnvHex(bytes);
    const char *pinned = renderPin(output);
    if (!pinned || actual != pinned)
        ADD_FAILURE() << "actual row: {\"" << output << "\", \""
                      << actual << "\"},";
}

api::SweepConfig
sweepConfig(std::vector<std::string> workloads)
{
    api::SweepConfig cfg;
    cfg.workloads = std::move(workloads);
    cfg.technologies = api::pSweep(0.05, 1.0, 5);
    cfg.insts = kInsts;
    cfg.seed = 1;
    return cfg;
}

std::string
hexfloat(double value)
{
    std::ostringstream text;
    text << std::hexfloat << value;
    return text.str();
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

TEST(SimPins, LongRunsAtTable3CountsMatchThePinnedHashes)
{
    for (const LongPin &pin : kLongPins) {
        const trace::WorkloadProfile &profile =
            trace::profileByName(pin.profile);
        ASSERT_EQ(pin.fus, profile.paper_fus) << pin.profile;
        const std::string actual =
            simHash(profile, pin.fus, 1, kLongInsts);
        EXPECT_EQ(actual, pin.hash)
            << "actual row: {\"" << pin.profile << "\", " << pin.fus
            << ", \"" << actual << "\"},";
    }
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

TEST(RenderPins, SweepCsvAndJsonMatchThePinnedHashes)
{
    api::SweepConfig cfg = sweepConfig({"gcc", "mst"});
    cfg.policies = {"max-sleep", "gradual", "timeout:64", "adaptive",
                    "oracle", "no-overhead"};
    const api::SweepResult result = api::SweepRunner(cfg).run();
    std::ostringstream csv, json;
    result.writeCsv(csv);
    result.writeJson(json);
    expectRenderPin("sweep.csv", csv.str());
    expectRenderPin("sweep.json", json.str());
}

TEST(RenderPins, SuiteAveragesMatchThePinnedValues)
{
    const api::SweepResult result =
        api::SweepRunner(sweepConfig({"gcc", "mcf"})).run();
    std::size_t rows = 0;
    for (unsigned t = 0; t < result.technologies.size(); ++t) {
        const auto avg = result.averagesAt(t);
        for (std::size_t i = 0; i < avg.names.size(); ++i, ++rows) {
            const std::string rel = hexfloat(avg.rel_to_nooverhead[i]);
            const std::string leak = hexfloat(avg.leakage_fraction[i]);
            const AveragePin *pin = nullptr;
            for (const AveragePin &row : kAveragePins)
                if (row.point == t && row.policy == avg.names[i])
                    pin = &row;
            if (!pin || rel != pin->rel_to_nooverhead ||
                leak != pin->leakage_fraction)
                ADD_FAILURE() << "actual row: {" << t << ", \""
                              << avg.names[i] << "\", \"" << rel
                              << "\", \"" << leak << "\"},";
        }
    }
    EXPECT_EQ(std::size(kAveragePins), rows);
}

TEST(RenderPins, RunResultsMatchThePinnedHashes)
{
    const api::RunResult gzip = api::Experiment::builder()
                                    .workload("gzip")
                                    .insts(kInsts)
                                    .seed(1)
                                    .technology(0.05)
                                    .run();
    expectRenderPin("gzip.json", gzip.toJson());
    expectRenderPin("gzip.csv", gzip.toCsv());

    const api::RunResult mcf = api::Experiment::builder()
                                   .workload("mcf")
                                   .insts(kInsts)
                                   .seed(1)
                                   .fus(api::auto_select)
                                   .technology(0.3)
                                   .run();
    expectRenderPin("mcf-auto.json", mcf.toJson());
    expectRenderPin("mcf-auto.csv", mcf.toCsv());
}

} // namespace
