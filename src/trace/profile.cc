#include "trace/profile.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace lsim::trace
{

namespace
{

std::string
numberToText(double v)
{
    std::ostringstream ss;
    ss << v;
    return ss.str();
}

/**
 * "<field> <value> outside <range>" check for one double-valued
 * knob. Written so a NaN always FAILS the range test (NaN
 * comparisons are false, so the naive `v < lo || v > hi` would
 * silently accept it — exactly the wrong behavior for untrusted
 * JSON-loaded profiles).
 */
std::string
checkRange(const char *field, double v, double lo, double hi,
           bool lo_open = false, bool hi_open = false)
{
    const bool lo_ok = lo_open ? v > lo : v >= lo;
    const bool hi_ok = hi_open ? v < hi : v <= hi;
    if (std::isfinite(v) && lo_ok && hi_ok)
        return "";
    return std::string(field) + " " + numberToText(v) + " outside " +
           (lo_open ? "(" : "[") + numberToText(lo) + "," +
           numberToText(hi) + (hi_open ? ")" : "]");
}

} // namespace

std::string
WorkloadProfile::validationError() const
{
    // Per-field checks first, so the error names the exact knob.
    struct Check
    {
        const char *field;
        double value;
        double lo, hi;
        bool lo_open = false, hi_open = false;
    };
    const Check checks[] = {
        {"frac_load", frac_load, 0.0, 1.0},
        {"frac_store", frac_store, 0.0, 1.0},
        {"frac_branch", frac_branch, 0.0, 0.5, true, true},
        {"frac_mult", frac_mult, 0.0, 1.0},
        {"frac_fp", frac_fp, 0.0, 1.0},
        {"dep_density", dep_density, 0.0, 1.0},
        {"dep_distance_p", dep_distance_p, 0.0, 1.0, true, false},
        {"branch_bias_strong", branch_bias_strong, 0.0, 1.0},
        {"noisy_taken_prob", noisy_taken_prob, 0.0, 1.0},
        {"call_fraction", call_fraction, 0.0, 0.5},
        {"local_frac", local_frac, 0.0, 1.0},
        {"stream_frac", stream_frac, 0.0, 1.0},
        {"irregular_frac", irregular_frac, 0.0, 1.0},
        {"strong_taken_bias", strong_taken_bias, 0.5, 1.0, true,
         true},
        {"mean_loop_iters", mean_loop_iters, 2.0, 1e9},
        {"paper_max_ipc", paper_max_ipc, 0.0, 16.0},
        {"paper_ipc", paper_ipc, 0.0, 16.0},
    };
    for (const Check &c : checks) {
        std::string err = checkRange(c.field, c.value, c.lo, c.hi,
                                     c.lo_open, c.hi_open);
        if (!err.empty())
            return err;
    }

    const double mix =
        frac_load + frac_store + frac_branch + frac_mult + frac_fp;
    if (!(mix <= 1.0))
        return "instruction mix (frac_load + frac_store + "
               "frac_branch + frac_mult + frac_fp) sums to " +
               numberToText(mix) + " > 1";
    const double mem_frac = local_frac + stream_frac + irregular_frac;
    if (!(mem_frac <= 1.0))
        return "memory site fractions (local_frac + stream_frac + "
               "irregular_frac) sum to " + numberToText(mem_frac) +
               " > 1";

    if (num_blocks < 4)
        return "num_blocks " + std::to_string(num_blocks) +
               " below the 4-block minimum";
    const double static_insts = num_blocks / frac_branch;
    if (static_insts > static_cast<double>(kMaxStaticInsts))
        return "num_blocks " + std::to_string(num_blocks) +
               " / frac_branch " + numberToText(frac_branch) + " = " +
               numberToText(static_insts) +
               " static instructions, above the " +
               std::to_string(kMaxStaticInsts) + " limit";
    if (working_set < 4096)
        return "working_set " + std::to_string(working_set) +
               " below one 4096-byte page";
    if (paper_fus < 1 || paper_fus > 4)
        return "paper_fus " + std::to_string(paper_fus) +
               " outside [1,4]";
    return "";
}

void
WorkloadProfile::validate() const
{
    // Profile errors throw (the CLI boundary catches and exits);
    // fatal() would take down a daemon serving other requests.
    const std::string err = validationError();
    if (!err.empty())
        throw std::invalid_argument("profile " + name + ": " + err);
}

namespace
{

std::vector<WorkloadProfile>
buildProfiles()
{
    std::vector<WorkloadProfile> out;

    // Olden health: pointer-chasing over linked lists of patients;
    // tiny code, almost no ILP, large random data footprint.
    {
        WorkloadProfile p;
        p.name = "health";
        p.suite = "Olden";
        p.frac_load = 0.34;
        p.frac_store = 0.09;
        p.frac_branch = 0.17;
        p.frac_mult = 0.00;
        p.dep_density = 0.62;
        p.dep_distance_p = 0.28;
        p.num_blocks = 220;
        p.branch_bias_strong = 0.85;
        p.noisy_taken_prob = 0.45;
        p.call_fraction = 0.06;
        p.working_set = Addr{24} << 20;
        p.local_frac = 0.50;
        p.stream_frac = 0.02;
        p.irregular_frac = 0.13;
        p.mean_loop_iters = 15.0;
        p.paper_max_ipc = 0.560;
        p.paper_ipc = 0.554;
        p.paper_fus = 2;
        p.window = "80M-140M";
        out.push_back(p);
    }

    // Olden mst: minimum spanning tree; hash lookups mixed with
    // regular traversal, moderate ILP.
    {
        WorkloadProfile p;
        p.name = "mst";
        p.suite = "Olden";
        p.frac_load = 0.28;
        p.frac_store = 0.08;
        p.frac_branch = 0.16;
        p.frac_mult = 0.01;
        p.dep_density = 0.30;
        p.dep_distance_p = 0.10;
        p.num_blocks = 300;
        p.branch_bias_strong = 0.96;
        p.noisy_taken_prob = 0.40;
        p.call_fraction = 0.05;
        p.working_set = Addr{2} << 20;
        p.local_frac = 0.55;
        p.stream_frac = 0.03;
        p.irregular_frac = 0.012;
        p.mean_loop_iters = 40.0;
        p.paper_max_ipc = 1.748;
        p.paper_ipc = 1.748;
        p.paper_fus = 4;
        p.window = "entire pgm 14M";
        out.push_back(p);
    }

    // SPEC95 gcc: very large static code footprint, branchy,
    // moderate data locality.
    {
        WorkloadProfile p;
        p.name = "gcc";
        p.suite = "SPEC95 INT";
        p.frac_load = 0.26;
        p.frac_store = 0.12;
        p.frac_branch = 0.18;
        p.frac_mult = 0.00;
        p.dep_density = 0.40;
        p.dep_distance_p = 0.13;
        p.num_blocks = 9000;
        p.branch_bias_strong = 0.96;
        p.noisy_taken_prob = 0.42;
        p.call_fraction = 0.06;
        p.working_set = Addr{4} << 20;
        p.local_frac = 0.60;
        p.stream_frac = 0.01;
        p.irregular_frac = 0.012;
        p.mean_loop_iters = 20.0;
        p.paper_max_ipc = 1.622;
        p.paper_ipc = 1.619;
        p.paper_fus = 2;
        p.window = "1650M-1750M";
        out.push_back(p);
    }

    // SPEC2K gzip: compression loops, small hot code, L2-resident
    // window buffer swept with strides, high ILP.
    {
        WorkloadProfile p;
        p.name = "gzip";
        p.suite = "SPEC2K INT";
        p.frac_load = 0.22;
        p.frac_store = 0.09;
        p.frac_branch = 0.15;
        p.frac_mult = 0.00;
        p.dep_density = 0.50;
        p.dep_distance_p = 0.22;
        p.num_blocks = 450;
        p.branch_bias_strong = 0.93;
        p.noisy_taken_prob = 0.35;
        p.call_fraction = 0.03;
        p.working_set = Addr{512} << 10;
        p.local_frac = 0.55;
        p.stream_frac = 0.03;
        p.irregular_frac = 0.01;
        p.strong_taken_bias = 0.98;
        p.mean_loop_iters = 60.0;
        p.paper_max_ipc = 2.120;
        p.paper_ipc = 2.120;
        p.paper_fus = 4;
        p.window = "2000M-2050M";
        out.push_back(p);
    }

    // SPEC2K mcf: network simplex; dominated by dependent loads that
    // miss in L2 (paper-era footprint ~100 MB).
    {
        WorkloadProfile p;
        p.name = "mcf";
        p.suite = "SPEC2K INT";
        p.frac_load = 0.33;
        p.frac_store = 0.09;
        p.frac_branch = 0.17;
        p.frac_mult = 0.00;
        p.dep_density = 0.50;
        p.dep_distance_p = 0.18;
        p.num_blocks = 260;
        p.branch_bias_strong = 0.90;
        p.noisy_taken_prob = 0.48;
        p.call_fraction = 0.03;
        p.working_set = Addr{48} << 20;
        p.local_frac = 0.45;
        p.stream_frac = 0.03;
        p.irregular_frac = 0.17;
        p.mean_loop_iters = 20.0;
        p.paper_max_ipc = 0.523;
        p.paper_ipc = 0.503;
        p.paper_fus = 2;
        p.window = "1000M-1050M";
        out.push_back(p);
    }

    // SPEC2K parser: dictionary lookups, recursive parsing; medium
    // everything with noticeable branch noise.
    {
        WorkloadProfile p;
        p.name = "parser";
        p.suite = "SPEC2K INT";
        p.frac_load = 0.25;
        p.frac_store = 0.10;
        p.frac_branch = 0.17;
        p.frac_mult = 0.00;
        p.dep_density = 0.44;
        p.dep_distance_p = 0.15;
        p.num_blocks = 1800;
        p.branch_bias_strong = 0.93;
        p.noisy_taken_prob = 0.42;
        p.call_fraction = 0.07;
        p.working_set = Addr{1} << 20;
        p.local_frac = 0.60;
        p.stream_frac = 0.02;
        p.irregular_frac = 0.02;
        p.paper_max_ipc = 1.692;
        p.paper_ipc = 1.692;
        p.paper_fus = 4;
        p.window = "2000M-2100M";
        out.push_back(p);
    }

    // SPEC2K twolf: place-and-route; fp-tinged integer code with
    // moderately random cell data accesses.
    {
        WorkloadProfile p;
        p.name = "twolf";
        p.suite = "SPEC2K INT";
        p.frac_load = 0.24;
        p.frac_store = 0.08;
        p.frac_branch = 0.16;
        p.frac_mult = 0.02;
        p.frac_fp = 0.02;
        p.dep_density = 0.50;
        p.dep_distance_p = 0.20;
        p.num_blocks = 1400;
        p.branch_bias_strong = 0.94;
        p.noisy_taken_prob = 0.45;
        p.call_fraction = 0.05;
        p.working_set = Addr{2} << 20;
        p.local_frac = 0.55;
        p.stream_frac = 0.03;
        p.irregular_frac = 0.025;
        p.mean_loop_iters = 35.0;
        p.paper_max_ipc = 1.542;
        p.paper_ipc = 1.475;
        p.paper_fus = 3;
        p.window = "1000M-1100M";
        out.push_back(p);
    }

    // SPEC2K vortex: object database; big code, very predictable
    // control, high ILP.
    {
        WorkloadProfile p;
        p.name = "vortex";
        p.suite = "SPEC2K INT";
        p.frac_load = 0.24;
        p.frac_store = 0.13;
        p.frac_branch = 0.14;
        p.frac_mult = 0.00;
        p.dep_density = 0.32;
        p.dep_distance_p = 0.10;
        p.num_blocks = 5000;
        p.branch_bias_strong = 0.98;
        p.noisy_taken_prob = 0.30;
        p.call_fraction = 0.08;
        p.working_set = Addr{2} << 20;
        p.local_frac = 0.60;
        p.stream_frac = 0.01;
        p.irregular_frac = 0.008;
        p.strong_taken_bias = 0.99;
        p.mean_loop_iters = 100.0;
        p.paper_max_ipc = 2.387;
        p.paper_ipc = 2.387;
        p.paper_fus = 4;
        p.window = "2000M-2100M";
        out.push_back(p);
    }

    // SPEC2K vpr: FPGA place & route; moderate ILP with some branch
    // noise from simulated annealing accept/reject.
    {
        WorkloadProfile p;
        p.name = "vpr";
        p.suite = "SPEC2K INT";
        p.frac_load = 0.26;
        p.frac_store = 0.09;
        p.frac_branch = 0.16;
        p.frac_mult = 0.01;
        p.frac_fp = 0.03;
        p.dep_density = 0.54;
        p.dep_distance_p = 0.22;
        p.num_blocks = 1100;
        p.branch_bias_strong = 0.92;
        p.noisy_taken_prob = 0.47;
        p.call_fraction = 0.05;
        p.working_set = Addr{1} << 20;
        p.local_frac = 0.55;
        p.stream_frac = 0.03;
        p.irregular_frac = 0.04;
        p.paper_max_ipc = 1.481;
        p.paper_ipc = 1.431;
        p.paper_fus = 3;
        p.window = "2000M-2100M";
        out.push_back(p);
    }

    for (auto &p : out)
        p.validate();
    return out;
}

} // namespace

const std::vector<WorkloadProfile> &
table3Profiles()
{
    static const std::vector<WorkloadProfile> profiles = buildProfiles();
    return profiles;
}

const WorkloadProfile &
profileByName(const std::string &name)
{
    for (const auto &p : table3Profiles())
        if (p.name == name)
            return p;
    throw std::invalid_argument("unknown workload profile '" + name +
                                "' (see 'lsim list')");
}

} // namespace lsim::trace
