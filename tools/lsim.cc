/**
 * @file
 * lsim command-line driver: the library's functionality behind one
 * binary for scripted use, built on the api:: experiment facade.
 *
 * Subcommands take GNU-style --flags (see `lsim --help` and
 * `lsim <command> --help`); the historical positional forms
 * (`lsim simulate gcc 500000 2`, `lsim policies gcc 0.05`,
 * `lsim breakeven 0.1 0.5`) keep working. Numeric arguments are
 * parsed strictly: malformed values are an error, never silently 0.
 */

#include <atomic>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/batch.hh"
#include "api/experiment.hh"
#include "api/sweep.hh"
#include "circuit/fu_circuit.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "energy/breakeven.hh"
#include "harness/report.hh"
#include "obs/trace.hh"
#include "serve/daemon.hh"
#include "serve/socket.hh"
#include "serve/spec.hh"
#include "sleep/policy_registry.hh"
#include "store/profile_store.hh"
#include "trace/profile.hh"
#include "trace/profile_json.hh"

namespace
{

using namespace lsim;

constexpr const char *kVersion = "lsim 1.0.0";

// --------------------------------------------------------- flag parser

/** Declarative description of one flag a command accepts. */
struct FlagSpec
{
    const char *name;       ///< without the leading "--"
    const char *value_name; ///< nullptr for boolean flags
    const char *help;
};

/** Declarative description of one subcommand (drives usage()). */
struct CommandSpec
{
    const char *name;
    const char *positionals;    ///< e.g. "<bench> <p> [insts]"
    std::size_t max_positionals; ///< operands beyond this are errors
    const char *help;
    std::vector<FlagSpec> flags;
    const char *epilog = nullptr; ///< extra --help text (exit codes)
};

/** Exit-worthy user error: print, show usage hint, exit 2. */
[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "lsim: " << message << "\n"
              << "run 'lsim --help' for usage\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &text, const std::string &what)
{
    // stoull accepts a leading '-' (wrapping around); require digits.
    if (text.empty() || text[0] < '0' || text[0] > '9')
        die("bad " + what + " '" + text +
            "': expected a non-negative integer");
    std::size_t pos = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &pos, 0);
    } catch (const std::exception &) {
        die("bad " + what + " '" + text +
            "': expected a non-negative integer");
    }
    if (pos != text.size())
        die("bad " + what + " '" + text +
            "': expected a non-negative integer");
    return v;
}

double
parseDouble(const std::string &text, const std::string &what)
{
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &pos);
    } catch (const std::exception &) {
        die("bad " + what + " '" + text + "': expected a number");
    }
    if (pos != text.size())
        die("bad " + what + " '" + text + "': expected a number");
    return v;
}

/** parseU64 restricted to values that fit in `unsigned`. */
unsigned
parseU32(const std::string &text, const std::string &what)
{
    const auto v = parseU64(text, what);
    if (v > std::numeric_limits<unsigned>::max())
        die("bad " + what + " '" + text + "': value too large");
    return static_cast<unsigned>(v);
}

/** An explicit --fus count: 1-8, the range the FU pool models
 * (callers handle 'auto' first). */
unsigned
parseFus(const std::string &text)
{
    const auto n = parseU32(text, "--fus");
    if (n == 0 || n > 8)
        die("bad --fus '" + text + "': expected a count in 1-8 or "
            "'auto'");
    return n;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string cell;
    while (std::getline(ss, cell, ','))
        if (!cell.empty())
            out.push_back(cell);
    return out;
}

/**
 * A --policies list. Every registry key begins with a letter, so a
 * token that does not continues the previous spec's argument: the
 * weights of "max-sleep,weighted-gradual:0.5,0.25,0.25" stay in one
 * spec.
 */
std::vector<std::string>
splitPolicyList(const std::string &text)
{
    std::vector<std::string> out;
    for (auto &cell : splitList(text)) {
        if (!out.empty() &&
            !std::isalpha(static_cast<unsigned char>(cell[0])))
            out.back() += ',' + cell;
        else
            out.push_back(std::move(cell));
    }
    return out;
}

/** Parsed command line: positional operands + flag values. */
class Args
{
  public:
    Args(int argc, char **argv, const CommandSpec &spec)
        : spec_(spec)
    {
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                positionals_.push_back(arg);
                continue;
            }
            const auto eq = arg.find('=');
            const std::string name = arg.substr(2, eq - 2);
            const FlagSpec *flag = find(name);
            if (!flag)
                die("unknown flag '--" + name + "' for '" +
                    spec.name + "'");
            if (!flag->value_name) {
                if (eq != std::string::npos)
                    die("flag '--" + name + "' takes no value");
                flags_[name] = "";
            } else if (eq != std::string::npos) {
                if (eq + 1 == arg.size())
                    die("flag '--" + name + "' needs a value");
                flags_[name] = arg.substr(eq + 1);
            } else {
                if (i + 1 >= argc)
                    die("flag '--" + name + "' needs a value");
                flags_[name] = argv[++i];
            }
        }
        if (positionals_.size() > spec.max_positionals)
            die(std::string("'") + spec.name +
                "' takes at most " +
                std::to_string(spec.max_positionals) +
                " operand(s); unexpected '" +
                positionals_[spec.max_positionals] + "'");
    }

    bool has(const std::string &name) const
    {
        return flags_.count(name) > 0;
    }

    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** Positional @p index, or empty when absent. */
    std::string positional(std::size_t index) const
    {
        return index < positionals_.size() ? positionals_[index] : "";
    }

    /** Flag value, falling back to positional @p pos_index. */
    std::string
    flagOrPositional(const std::string &name,
                     std::size_t pos_index) const
    {
        const auto it = flags_.find(name);
        if (it != flags_.end())
            return it->second;
        return positional(pos_index);
    }

    std::optional<std::uint64_t>
    u64(const std::string &name, std::size_t pos_index) const
    {
        const std::string text = flagOrPositional(name, pos_index);
        if (text.empty())
            return std::nullopt;
        return parseU64(text, "--" + name);
    }

    std::optional<double>
    number(const std::string &name, std::size_t pos_index) const
    {
        const std::string text = flagOrPositional(name, pos_index);
        if (text.empty())
            return std::nullopt;
        return parseDouble(text, "--" + name);
    }

  private:
    const FlagSpec *find(const std::string &name) const
    {
        for (const auto &f : spec_.flags)
            if (name == f.name)
                return &f;
        return nullptr;
    }

    const CommandSpec &spec_;
    std::vector<std::string> positionals_;
    std::map<std::string, std::string> flags_;
};

// ------------------------------------------------------ command specs

const FlagSpec kHelpFlag = {"help", nullptr, "show this help"};

const std::vector<CommandSpec> &
commands()
{
    static const std::vector<CommandSpec> specs = {
        {"characterize", "", 0, "print the OR8/FU circuit data",
         {kHelpFlag}},
        {"breakeven", "[p] [alpha]", 2,
         "breakeven interval at a technology point",
         {{"p", "X", "leakage factor (default 0.05)"},
          {"alpha", "A", "activity factor (default 0.5)"},
          kHelpFlag}},
        {"simulate", "<bench> [insts] [fus]", 3,
         "run the timing model",
         {{"insts", "N", "committed instructions (default 500000)"},
          {"fus", "N", "integer FU count, or 'auto' (default: paper)"},
          {"seed", "N", "trace generator seed (default 1)"},
          {"profile", "FILE",
           "custom workload JSON instead of <bench>"},
          {"json", nullptr, "emit JSON instead of a table"},
          kHelpFlag}},
        {"policies", "<bench> <p> [insts]", 3,
         "simulate, then evaluate sleep policies",
         {{"insts", "N", "committed instructions (default 500000)"},
          {"policies", "a,b,...",
           "policy specs (default: the paper's four)"},
          {"fus", "N", "integer FU count, or 'auto' (default: paper)"},
          {"seed", "N", "trace generator seed (default 1)"},
          {"alpha", "A", "activity factor (default 0.5)"},
          {"profile", "FILE",
           "custom workload JSON instead of <bench>"},
          {"json", nullptr, "emit JSON instead of a table"},
          {"csv", nullptr, "emit CSV instead of a table"},
          kHelpFlag}},
        {"sweep", "", 0,
         "parallel technology sweep over a workload grid",
         {{"benchmarks", "a,b,...",
           "workloads (default: full Table 3 suite)"},
          {"policies", "a,b,...",
           "policy specs (default: the paper's four)"},
          {"p-min", "X", "lowest leakage factor (default 0.05)"},
          {"p-max", "X", "highest leakage factor (default 1.0)"},
          {"steps", "N", "technology points (default 20)"},
          {"alpha", "A", "activity factor (default 0.5)"},
          {"insts", "N", "committed instructions (default 500000)"},
          {"seed", "N", "trace generator seed (default 1)"},
          {"threads", "N", "worker threads (default: hardware)"},
          {"profiles", "f,g,...", "custom workload JSON files"},
          {"imports", "f,g,...",
           "imported .lsimprof / idle-profile JSON workloads"},
          {"cache-dir", "DIR",
           "profile store shared across runs (skips warm phase-1 "
           "simulations)"},
          {"chunk-intervals", "N",
           "distinct interval lengths per phase-2 replay chunk "
           "(default 0 = auto)"},
          {"json", nullptr, "emit JSON instead of a table"},
          {"csv", nullptr, "emit CSV instead of a table"},
          kHelpFlag}},
        {"batch", "<spec.json>", 1,
         "run many sweeps at once, deduping shared simulations",
         {{"cache-dir", "DIR", "profile store shared by the batch"},
          {"threads", "N", "worker threads (default: hardware)"},
          {"out-dir", "DIR",
           "write sweep_<i>.csv + sweep_<i>.json files here"},
          {"json", nullptr, "emit one JSON document on stdout"},
          {"csv", nullptr,
           "emit CSV on stdout ('# sweep <i>' separators)"},
          kHelpFlag}},
        {"serve", "", 0,
         "watch a spool directory for batch specs (daemon)",
         {{"spool", "DIR",
           "spool directory of incoming batch-spec JSON files"},
          {"results-dir", "DIR",
           "where results + status JSON go (default <spool>/results)"},
          {"cache-dir", "DIR",
           "profile store shared by every request"},
          {"socket", "PATH",
           "also accept requests on this Unix socket (use 'auto' "
           "for <spool>/lsim.sock)"},
          {"max-queue", "N",
           "bounded admission: max requests queued (default 64)"},
          {"ttl", "AGE",
           "prune consumed specs and result dirs older than AGE "
           "(e.g. 30d, 12h, 900s; plain numbers are days)"},
          {"cache-ttl", "AGE",
           "age-evict profile-store entries each drain (needs "
           "--cache-dir)"},
          {"threads", "N",
           "persistent worker pool size (default: hardware)"},
          {"poll-ms", "N", "spool scan interval (default 500)"},
          {"once", nullptr,
           "process the specs currently spooled, then exit"},
          {"request-timeout", "SECS",
           "per-request execution deadline; an exceeded request "
           "finishes in error status (default: none)"},
          {"faults", "SPECS",
           "install deterministic fault triggers, e.g. "
           "'store.write:after=3:error=EIO' (same grammar as "
           "LSIM_FAULTS; see README)"},
          {"trace", "FILE",
           "write Chrome-trace-format spans here (also via "
           "LSIM_TRACE=FILE)"},
          kHelpFlag}},
        {"submit", "<spec.json>", 1,
         "submit a batch spec to a serve daemon over its socket",
         {{"socket", "PATH",
           "daemon request socket (<spool>/lsim.sock)"},
          {"name", "NAME",
           "request name (default: the spec filename stem)"},
          {"priority", "N",
           "admission priority; higher executes first (default 0)"},
          {"wait", nullptr,
           "block until the request finishes; print the final "
           "status line too"},
          {"timeout", "SECS",
           "wait budget in seconds (default 3600)"},
          kHelpFlag},
         "exit status: 0 admitted (with --wait: finished done), "
         "2 finished\nerror (incl. deadline exceeded), 3 rejected "
         "at admission, 1 unreadable\nresponse; the failure detail "
         "is echoed on stderr"},
        {"wait", "<name>", 1,
         "block until a submitted request reaches done/error",
         {{"socket", "PATH",
           "daemon request socket (<spool>/lsim.sock)"},
          {"timeout", "SECS",
           "wait budget in seconds (default 3600)"},
          kHelpFlag},
         "exit status: 0 finished done, 2 finished error (incl. "
         "deadline\nexceeded or wait timeout), 3 rejected at "
         "admission, 1 unreadable\nresponse; the failure detail is "
         "echoed on stderr"},
        {"metrics", "<spool>", 1,
         "pretty-print a serve daemon's metrics.json",
         {{"json", nullptr, "print the raw JSON document instead"},
          kHelpFlag}},
        {"profile", "<export|import|ls|rm|gc> [arg]", 2,
         "export, import, list, and evict stored simulation profiles",
         {{"out", "FILE", "export/import: write a .lsimprof here"},
          {"cache-dir", "DIR", "profile store directory"},
          {"insts", "N", "export: instructions (default 500000)"},
          {"seed", "N", "export: trace seed (default 1)"},
          {"fus", "N",
           "export: FU count, or 'auto' (default: paper)"},
          {"profile", "FILE",
           "export: custom workload JSON instead of <bench>"},
          {"max-age", "AGE",
           "gc: evict entries older than AGE (e.g. 30d, 12h, 900s; "
           "plain numbers are days)"},
          {"max-bytes", "SIZE",
           "gc: then evict oldest entries until the store fits SIZE "
           "(suffixes K/M/G)"},
          kHelpFlag}},
        {"list", "", 0, "list benchmarks (or policies)",
         {{"policies", nullptr, "list registered policy specs"},
          kHelpFlag}},
    };
    return specs;
}

void
printUsage(std::ostream &os)
{
    os << "usage: lsim [--help] [--version] <command> [args]\n\n"
          "commands:\n";
    for (const auto &cmd : commands()) {
        std::string head = std::string("  ") + cmd.name;
        if (*cmd.positionals)
            head += std::string(" ") + cmd.positionals;
        os << head
           << std::string(
                  head.size() < 26 ? 26 - head.size() : 1, ' ')
           << cmd.help << "\n";
    }
    os << "\nrun 'lsim <command> --help' for that command's flags\n";
}

void
printCommandHelp(const CommandSpec &spec)
{
    std::cout << "usage: lsim " << spec.name;
    if (*spec.positionals)
        std::cout << " " << spec.positionals;
    std::cout << " [flags]\n  " << spec.help << "\n\nflags:\n";
    for (const auto &f : spec.flags) {
        std::string head = std::string("  --") + f.name;
        if (f.value_name)
            head += std::string(" <") + f.value_name + ">";
        head += std::string(
            head.size() < 24 ? 24 - head.size() : 1, ' ');
        std::cout << head << f.help << "\n";
    }
    if (spec.epilog)
        std::cout << "\n" << spec.epilog << "\n";
}

// ---------------------------------------------------------- commands

/**
 * Shared simulate/policies builder setup from parsed args. The
 * workload is either the named Table 3 benchmark or, with
 * --profile FILE, a custom JSON-loaded profile.
 */
api::ExperimentBuilder
builderFor(const Args &args, const std::string &bench,
           std::size_t insts_pos, std::size_t fus_pos)
{
    auto builder = api::Experiment::builder();
    if (args.has("profile")) {
        if (!bench.empty())
            die("give either <bench> or --profile, not both");
        builder.profile(trace::loadWorkloadProfile(
            args.flagOrPositional("profile", ~std::size_t{0})));
    } else {
        builder.workload(bench);
    }
    if (const auto insts = args.u64("insts", insts_pos))
        builder.insts(*insts);
    if (const auto seed = args.u64("seed", ~std::size_t{0}))
        builder.seed(*seed);
    const std::string fus = args.flagOrPositional("fus", fus_pos);
    if (fus == "auto")
        builder.fus(api::auto_select);
    else if (!fus.empty())
        builder.fus(parseFus(fus));
    return builder;
}

int
cmdCharacterize()
{
    const circuit::Technology tech;
    circuit::FunctionalUnitCircuit fu(tech);
    Table t({"quantity", "value"});
    const auto c = fu.gate().characterize();
    t.addRow({"gate style", to_string(c.style)});
    t.addRow({"eval delay", fixed(c.eval_delay_ps, 1) + " ps"});
    t.addRow({"sleep delay", fixed(c.sleep_delay_ps, 1) + " ps"});
    t.addRow({"gate dynamic energy", fixed(c.dynamic_fj, 1) + " fJ"});
    t.addRow({"gate HI leakage/cycle", sci(c.leak_hi_fj, 2) + " fJ"});
    t.addRow({"gate LO leakage/cycle", sci(c.leak_lo_fj, 2) + " fJ"});
    t.addRow({"FU gates", std::to_string(fu.numGates())});
    t.addRow({"FU dynamic energy",
              fixed(fu.dynamicEnergy() / 1000, 2) + " pJ"});
    t.addRow({"FU breakeven (alpha=0.5)",
              std::to_string(fu.breakevenInterval(0.5)) + " cycles"});
    const auto mp = energy::ModelParams::fromCircuit(fu);
    t.addRow({"leakage factor p", fixed(mp.p, 4)});
    t.addRow({"sleep ratio k", sci(mp.k, 2)});
    t.addRow({"sleep overhead s", fixed(mp.s, 4)});
    t.print(std::cout);
    return 0;
}

int
cmdBreakeven(const Args &args)
{
    const auto mp =
        api::analysisPoint(args.number("p", 0).value_or(0.05),
                           args.number("alpha", 1).value_or(0.5));
    std::cout << "breakeven interval at p=" << mp.p << " alpha="
              << mp.alpha << ": "
              << energy::breakevenInterval(mp) << " cycles\n";
    return 0;
}

int
cmdList(const Args &args)
{
    if (args.has("policies")) {
        const auto &reg = sleep::PolicyRegistry::instance();
        Table t({"policy", "description"});
        for (const auto &key : reg.keys())
            t.addRow({key, reg.summary(key)});
        t.print(std::cout);
        return 0;
    }
    Table t({"benchmark", "suite", "paper IPC", "paper FUs"});
    for (const auto &p : trace::table3Profiles())
        t.addRow({p.name, p.suite, fixed(p.paper_ipc, 3),
                  std::to_string(p.paper_fus)});
    t.print(std::cout);
    return 0;
}

int
cmdSimulate(const Args &args)
{
    const std::string bench = args.positional(0);
    if (bench.empty() && !args.has("profile"))
        die("simulate: missing <bench> (see 'lsim list')");
    const auto ws =
        builderFor(args, bench, 1, 2).session().sim();

    if (args.has("json")) {
        JsonWriter w(std::cout);
        w.beginObject();
        harness::writeSimJson(w, ws);
        w.endObject();
        std::cout << "\n";
        return 0;
    }
    Table t({"metric", "value"});
    t.addRow({"IPC", fixed(ws.sim.ipc, 3)});
    t.addRow({"cycles", std::to_string(ws.sim.cycles)});
    t.addRow({"branch mispredict",
              fixed(100 * ws.sim.bpred.dirMispredictRate(), 2) + "%"});
    t.addRow({"L1D miss",
              fixed(100 * ws.sim.l1d.missRate(), 2) + "%"});
    t.addRow({"L2 miss", fixed(100 * ws.sim.l2.missRate(), 2) + "%"});
    t.addRow({"FU idle fraction",
              fixed(ws.idle.idleFraction(), 3)});
    t.addRow({"mean idle interval",
              fixed(ws.idle.meanInterval(), 1) + " cycles"});
    t.print(std::cout);
    return 0;
}

int
cmdPolicies(const Args &args)
{
    // With --profile the positionals shift left: <p> [insts].
    const bool custom = args.has("profile");
    const std::string bench = custom ? "" : args.positional(0);
    if (bench.empty() && !custom)
        die("policies: missing <bench> (see 'lsim list')");
    const std::string p_text = args.positional(custom ? 0 : 1);
    if (p_text.empty())
        die("policies: missing <p> (leakage factor, e.g. 0.05)");
    const double p = parseDouble(p_text, "<p>");
    const double alpha =
        args.number("alpha", ~std::size_t{0}).value_or(0.5);

    auto builder =
        builderFor(args, bench, custom ? 1 : 2, ~std::size_t{0})
            .technology(p, alpha);
    if (args.has("policies"))
        builder.policies(splitPolicyList(
            args.flagOrPositional("policies", ~std::size_t{0})));
    const auto result = builder.run();

    if (args.has("json")) {
        result.writeJson(std::cout);
        return 0;
    }
    if (args.has("csv")) {
        result.writeCsv(std::cout);
        return 0;
    }
    Table t({"policy", "energy (E_A)", "vs 100% compute",
             "leakage share"});
    for (const auto &r : result.policies)
        t.addRow({r.name, fixed(r.energy, 1),
                  fixed(r.relative_to_base, 3),
                  fixed(r.leakage_fraction, 3)});
    t.print(std::cout);
    return 0;
}

int
cmdSweep(const Args &args)
{
    api::SweepConfig cfg;
    if (args.has("benchmarks"))
        cfg.workloads =
            splitList(args.flagOrPositional("benchmarks", ~std::size_t{0}));
    if (args.has("policies"))
        cfg.policies = splitPolicyList(
            args.flagOrPositional("policies", ~std::size_t{0}));
    const double p_min =
        args.number("p-min", ~std::size_t{0}).value_or(0.05);
    const double p_max =
        args.number("p-max", ~std::size_t{0}).value_or(1.0);
    const std::string steps_text =
        args.flagOrPositional("steps", ~std::size_t{0});
    const unsigned steps =
        steps_text.empty() ? 20 : parseU32(steps_text, "--steps");
    const double alpha =
        args.number("alpha", ~std::size_t{0}).value_or(0.5);
    cfg.technologies = api::pSweep(p_min, p_max, steps, alpha);
    cfg.insts = args.u64("insts", ~std::size_t{0}).value_or(500'000);
    cfg.seed = args.u64("seed", ~std::size_t{0}).value_or(1);
    const std::string threads_text =
        args.flagOrPositional("threads", ~std::size_t{0});
    cfg.threads =
        threads_text.empty() ? 0 : parseU32(threads_text, "--threads");
    if (args.has("profiles"))
        for (const auto &path : splitList(
                 args.flagOrPositional("profiles", ~std::size_t{0})))
            cfg.profiles.push_back(trace::loadWorkloadProfile(path));
    if (args.has("imports"))
        cfg.imports = splitList(
            args.flagOrPositional("imports", ~std::size_t{0}));
    cfg.cache_dir = args.flagOrPositional("cache-dir", ~std::size_t{0});
    const std::string chunk_text =
        args.flagOrPositional("chunk-intervals", ~std::size_t{0});
    cfg.chunk_intervals = chunk_text.empty()
        ? 0
        : parseU64(chunk_text, "--chunk-intervals");

    const auto result = api::SweepRunner(cfg).run();

    // Provenance goes to stderr so CSV/JSON on stdout stays clean
    // and byte-comparable between cold and warm runs.
    if (!cfg.cache_dir.empty())
        std::cerr << "lsim: cache '" << cfg.cache_dir << "': "
                  << result.stats.sims_run << " simulated, "
                  << result.stats.cache_hits << " reused\n";

    if (args.has("json")) {
        result.writeJson(std::cout);
        return 0;
    }
    if (args.has("csv")) {
        result.writeCsv(std::cout);
        return 0;
    }
    std::vector<std::string> headers = {"p"};
    for (const auto &key : result.policy_keys)
        headers.push_back(key);
    Table t(headers);
    for (std::size_t ti = 0; ti < result.technologies.size(); ++ti) {
        std::vector<std::string> row = {
            fixed(result.technologies[ti].p, 3)};
        // Mean energy relative to the 100%-activity baseline across
        // the workload grid (works for any policy set).
        std::vector<double> mean(result.policy_keys.size(), 0.0);
        for (std::size_t w = 0; w < result.workloads.size(); ++w) {
            const auto &cell = result.cell(w, ti);
            for (std::size_t i = 0; i < mean.size(); ++i)
                mean[i] += cell.policies[i].relative_to_base;
        }
        for (double m : mean)
            row.push_back(fixed(
                m / static_cast<double>(result.workloads.size()), 3));
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\n(mean energy relative to 100% compute across "
              << result.workloads.size() << " workload(s); use "
                 "--csv/--json for per-benchmark data)\n";
    return 0;
}

// ------------------------------------------------- profile command

/** One summary row per stored/exported simulation; columns as in
 * simSummaryTable(). */
void
printSimSummary(Table &t, const std::string &key,
                const harness::WorkloadSim &ws)
{
    t.addRow({key, ws.name, std::to_string(ws.num_fus),
              std::to_string(ws.sim.committed),
              fixed(ws.sim.ipc, 3),
              fixed(ws.idle.idleFraction(), 3),
              std::to_string(ws.idle.numIntervals())});
}

Table
simSummaryTable()
{
    return Table({"key", "benchmark", "fus", "committed", "ipc",
                  "idle frac", "intervals"});
}

int
cmdProfileExport(const Args &args)
{
    const std::string bench = args.positional(1);
    if (bench.empty() && !args.has("profile"))
        die("profile export: missing <bench> (or --profile FILE)");
    const std::string out =
        args.flagOrPositional("out", ~std::size_t{0});
    const std::string cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    if (out.empty() && cache_dir.empty())
        die("profile export: need --out FILE and/or --cache-dir DIR");

    // The store key must describe the *request*, exactly as a sweep
    // would fingerprint it.
    api::detail::SimTask task;
    if (args.has("profile")) {
        if (!bench.empty())
            die("give either <bench> or --profile, not both");
        task.profile = trace::loadWorkloadProfile(
            args.flagOrPositional("profile", ~std::size_t{0}));
    } else {
        task.profile = trace::profileByName(bench);
    }
    task.insts =
        args.u64("insts", ~std::size_t{0}).value_or(500'000);
    task.seed = args.u64("seed", ~std::size_t{0}).value_or(1);
    const std::string fus = args.flagOrPositional("fus", ~std::size_t{0});
    if (fus == "auto")
        task.fus = api::auto_select;
    else if (!fus.empty())
        task.fus = parseFus(fus);

    const std::string key = task.fingerprint();
    const auto ws = task.run();
    if (!cache_dir.empty())
        store::ProfileStore(cache_dir).save(key, ws);
    if (!out.empty())
        store::exportSim(out, key, ws);

    Table t = simSummaryTable();
    printSimSummary(t, key, ws);
    t.print(std::cout);
    return 0;
}

int
cmdProfileImport(const Args &args)
{
    const std::string file = args.positional(1);
    if (file.empty())
        die("profile import: missing <file>");
    const std::string out =
        args.flagOrPositional("out", ~std::size_t{0});
    const std::string cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    if (out.empty() && cache_dir.empty())
        die("profile import: need --out FILE and/or --cache-dir DIR");

    const store::ImportedSim entry = store::importAnySim(file);
    if (!cache_dir.empty()) {
        if (entry.key.empty())
            die("profile import: '" + file +
                "' carries no generating configuration (JSON idle "
                "profiles cannot join the cache; use --out, then "
                "'sweep --imports')");
        store::ProfileStore(cache_dir).save(entry.key, entry.sim);
    }
    if (!out.empty())
        store::exportSim(out, entry.key, entry.sim);

    Table t = simSummaryTable();
    printSimSummary(t, entry.key.empty() ? "(imported)" : entry.key,
                    entry.sim);
    t.print(std::cout);
    return 0;
}

int
cmdProfileLs(const Args &args)
{
    const std::string cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    if (cache_dir.empty())
        die("profile ls: missing --cache-dir DIR");
    Table t = simSummaryTable();
    for (const auto &entry : store::ProfileStore(cache_dir).list())
        printSimSummary(t, entry.key, entry.sim);
    t.print(std::cout);
    return 0;
}

/**
 * "30d" / "12h" / "45m" / "900s" / plain days -> seconds. @p what
 * names the flag in errors. Suffix scaling is overflow-checked: a
 * value whose seconds exceed the double range is an error, never a
 * silently wrapped (or infinite) limit.
 */
double
parseDuration(const std::string &text, const std::string &what)
{
    if (text.empty())
        die("bad " + what + " '': expected a duration");
    std::string digits = text;
    double unit = 24.0 * 3600.0; // plain numbers are days
    switch (text.back()) {
    case 's': unit = 1.0; digits.pop_back(); break;
    case 'm': unit = 60.0; digits.pop_back(); break;
    case 'h': unit = 3600.0; digits.pop_back(); break;
    case 'd': unit = 24.0 * 3600.0; digits.pop_back(); break;
    default: break;
    }
    const double value = parseDouble(digits, what);
    if (value < 0.0)
        die("bad " + what + " '" + text + "': must be non-negative");
    const double seconds = value * unit;
    if (!std::isfinite(seconds))
        die("bad " + what + " '" + text +
            "': duration overflows (too many seconds)");
    return seconds;
}

/**
 * "500M" / "2G" / "64K" / plain bytes -> bytes. @p what names the
 * flag in errors. Suffix scaling is overflow-checked: 2^54G wraps
 * 64-bit arithmetic, so it must die, not become a tiny limit that
 * silently evicts a whole store.
 */
std::uint64_t
parseSize(const std::string &text, const std::string &what)
{
    if (text.empty())
        die("bad " + what + " '': expected a size");
    std::string digits = text;
    std::uint64_t unit = 1;
    switch (text.back()) {
    case 'K': case 'k':
        unit = 1024ull;
        digits.pop_back();
        break;
    case 'M': case 'm':
        unit = 1024ull * 1024;
        digits.pop_back();
        break;
    case 'G': case 'g':
        unit = 1024ull * 1024 * 1024;
        digits.pop_back();
        break;
    default:
        break;
    }
    const std::uint64_t value = parseU64(digits, what);
    if (unit > 1 &&
        value > std::numeric_limits<std::uint64_t>::max() / unit)
        die("bad " + what + " '" + text +
            "': size overflows 64 bits");
    return value * unit;
}

int
cmdProfileRm(const Args &args)
{
    const std::string key = args.positional(1);
    if (key.empty())
        die("profile rm: missing <key> (see 'lsim profile ls')");
    const std::string cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    if (cache_dir.empty())
        die("profile rm: missing --cache-dir DIR");
    if (!store::ProfileStore(cache_dir).remove(key))
        die("profile rm: no entry '" + key + "' in '" + cache_dir +
            "'");
    std::cout << "removed " << key << "\n";
    return 0;
}

int
cmdProfileGc(const Args &args)
{
    const std::string cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    if (cache_dir.empty())
        die("profile gc: missing --cache-dir DIR");
    store::ProfileStore::GcOptions options;
    if (args.has("max-age"))
        options.max_age_seconds = parseDuration(
            args.flagOrPositional("max-age", ~std::size_t{0}),
            "--max-age");
    if (args.has("max-bytes"))
        options.max_bytes = parseSize(
            args.flagOrPositional("max-bytes", ~std::size_t{0}),
            "--max-bytes");
    if (!options.max_age_seconds && !options.max_bytes)
        die("profile gc: need --max-age and/or --max-bytes");

    const auto stats = store::ProfileStore(cache_dir).gc(options);
    std::cout << "gc " << cache_dir << ": " << stats.scanned
              << " entries scanned, " << stats.removed
              << " evicted, " << stats.bytes_before << " -> "
              << stats.bytes_after << " bytes\n";
    if (stats.stat_errors > 0)
        std::cerr << "lsim: gc: " << stats.stat_errors
                  << " entr" << (stats.stat_errors == 1 ? "y" : "ies")
                  << " could not be examined (stat failed); kept\n";
    return 0;
}

int
cmdProfile(const Args &args)
{
    const std::string action = args.positional(0);
    if (action == "export")
        return cmdProfileExport(args);
    if (action == "import")
        return cmdProfileImport(args);
    if (action == "ls")
        return cmdProfileLs(args);
    if (action == "rm")
        return cmdProfileRm(args);
    if (action == "gc")
        return cmdProfileGc(args);
    die("profile: unknown action '" + action +
        "' (expected export, import, ls, rm, or gc)");
}

// --------------------------------------------------- batch command

int
cmdBatch(const Args &args)
{
    const std::string spec_path = args.positional(0);
    if (spec_path.empty())
        die("batch: missing <spec.json>");

    // The daemon and the CLI parse the same spec format
    // (serve::batchConfigFromJson); its invalid_argument throws are
    // caught in main() and die()d like any other user error.
    api::BatchConfig batch =
        serve::batchConfigFromJson(parseJsonFile(spec_path));

    batch.cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    const std::string threads_text =
        args.flagOrPositional("threads", ~std::size_t{0});
    batch.threads =
        threads_text.empty() ? 0 : parseU32(threads_text, "--threads");

    const auto result = api::BatchRunner(batch).run();
    std::cerr << "lsim: batch: " << result.stats.requested_sims
              << " simulation(s) requested, "
              << result.stats.unique_sims << " unique, "
              << result.stats.sims_run << " simulated, "
              << result.stats.cache_hits << " reused\n";

    const std::string out_dir =
        args.flagOrPositional("out-dir", ~std::size_t{0});
    if (!out_dir.empty()) {
        std::filesystem::create_directories(out_dir);
        for (std::size_t i = 0; i < result.sweeps.size(); ++i) {
            const std::string stem =
                (std::filesystem::path(out_dir) /
                 ("sweep_" + std::to_string(i)))
                    .string();
            std::ofstream csv(stem + ".csv");
            result.sweeps[i].writeCsv(csv);
            std::ofstream json(stem + ".json");
            result.sweeps[i].writeJson(json);
            if (!csv || !json)
                die("batch: cannot write '" + stem + ".{csv,json}'");
            std::cout << stem << ".csv\n" << stem << ".json\n";
        }
        return 0;
    }
    if (args.has("json")) {
        std::cout << "{\"sweeps\":[\n";
        for (std::size_t i = 0; i < result.sweeps.size(); ++i) {
            if (i)
                std::cout << ",";
            result.sweeps[i].writeJson(std::cout);
        }
        std::cout << "]}\n";
        return 0;
    }
    if (args.has("csv")) {
        for (std::size_t i = 0; i < result.sweeps.size(); ++i) {
            std::cout << "# sweep " << i << "\n";
            result.sweeps[i].writeCsv(std::cout);
        }
        return 0;
    }
    Table t({"sweep", "workloads", "points", "policies", "cells"});
    for (std::size_t i = 0; i < result.sweeps.size(); ++i) {
        const auto &s = result.sweeps[i];
        t.addRow({std::to_string(i),
                  std::to_string(s.workloads.size()),
                  std::to_string(s.technologies.size()),
                  std::to_string(s.policy_keys.size()),
                  std::to_string(s.cells.size())});
    }
    t.print(std::cout);
    std::cout << "\n(use --out-dir, --csv, or --json for the "
                 "per-cell data)\n";
    return 0;
}

// --------------------------------------------------- serve command

/** Set by SIGINT/SIGTERM; the daemon drains and exits cleanly. */
std::atomic<bool> g_stop_requested{false};

// A lock-based atomic would take a mutex inside the handler —
// async-signal-unsafe and a self-deadlock if the signal lands while
// the main thread holds it. Refuse to build anywhere plain-bool
// atomics are not lock-free.
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler flag must be a lock-free atomic");

/**
 * Strictly async-signal-safe: the body is a single lock-free atomic
 * store — no locking, no allocation, no I/O, nothing that could
 * reenter a non-reentrant runtime facility. tools/lint.py enforces
 * this shape (signal-safety rule); anything the daemon should *do*
 * about the signal happens on the polling thread via ServeConfig's
 * stop hook.
 */
extern "C" void
handleStopSignal(int)
{
    g_stop_requested.store(true);
}

int
cmdServe(const Args &args)
{
    serve::ServeConfig cfg;
    cfg.spool_dir = args.flagOrPositional("spool", ~std::size_t{0});
    if (cfg.spool_dir.empty())
        die("serve: missing --spool DIR");
    cfg.results_dir =
        args.flagOrPositional("results-dir", ~std::size_t{0});
    cfg.cache_dir =
        args.flagOrPositional("cache-dir", ~std::size_t{0});
    const std::string threads_text =
        args.flagOrPositional("threads", ~std::size_t{0});
    cfg.threads =
        threads_text.empty() ? 0 : parseU32(threads_text, "--threads");
    const std::string poll_text =
        args.flagOrPositional("poll-ms", ~std::size_t{0});
    cfg.poll_ms =
        poll_text.empty() ? 500 : parseU32(poll_text, "--poll-ms");
    cfg.once = args.has("once");
    cfg.socket_path =
        args.flagOrPositional("socket", ~std::size_t{0});
    if (cfg.socket_path == "auto")
        cfg.socket_path = (std::filesystem::path(cfg.spool_dir) /
                           "lsim.sock")
                              .string();
    const std::string queue_text =
        args.flagOrPositional("max-queue", ~std::size_t{0});
    if (!queue_text.empty())
        cfg.max_queue = parseU64(queue_text, "--max-queue");
    const std::string ttl_text =
        args.flagOrPositional("ttl", ~std::size_t{0});
    if (!ttl_text.empty())
        cfg.ttl_seconds = parseDuration(ttl_text, "--ttl");
    const std::string cache_ttl_text =
        args.flagOrPositional("cache-ttl", ~std::size_t{0});
    if (!cache_ttl_text.empty()) {
        if (cfg.cache_dir.empty())
            die("serve: --cache-ttl needs --cache-dir");
        cfg.cache_ttl_seconds =
            parseDuration(cache_ttl_text, "--cache-ttl");
    }
    const std::string request_timeout_text =
        args.flagOrPositional("request-timeout", ~std::size_t{0});
    if (!request_timeout_text.empty())
        cfg.request_timeout_s = parseDouble(request_timeout_text,
                                            "--request-timeout");
    // Additive with LSIM_FAULTS (already installed by main), so a
    // wrapper script's environment and a flag can compose.
    const std::string faults_text =
        args.flagOrPositional("faults", ~std::size_t{0});
    if (!faults_text.empty())
        fault::configure(faults_text);

    // --trace complements the LSIM_TRACE environment variable (main
    // already consulted the latter); the flag wins when both are set.
    const std::string trace_file =
        args.flagOrPositional("trace", ~std::size_t{0});
    if (!trace_file.empty())
        obs::TraceSession::instance().start(trace_file);

    // Graceful drain: the first SIGINT/SIGTERM finishes the request
    // in flight, then the loop exits; specs still spooled stay put
    // for the next daemon (or this one restarted).
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    cfg.stop = [] { return g_stop_requested.load(); };

    serve::Daemon daemon(cfg);
    if (!cfg.once)
        std::cerr << "lsim: serving spool '" << cfg.spool_dir
                  << "' (results: " << daemon.resultsDir()
                  << (cfg.cache_dir.empty()
                          ? std::string(", no cache")
                          : ", cache: " + cfg.cache_dir)
                  << (cfg.socket_path.empty()
                          ? std::string()
                          : ", socket: " + cfg.socket_path)
                  << "); SIGINT drains\n";
    const auto stats = daemon.run();
    std::cerr << "lsim: serve: " << stats.processed
              << " spec(s) processed (" << stats.done << " done, "
              << stats.failed << " failed"
              << (stats.coalesced
                      ? ", " + std::to_string(stats.coalesced) +
                            " coalesced"
                      : "")
              << (stats.rejected
                      ? ", " + std::to_string(stats.rejected) +
                            " rejected"
                      : "")
              << (stats.recovered
                      ? ", " + std::to_string(stats.recovered) +
                            " recovered"
                      : "")
              << ") over " << stats.polls << " poll(s)\n";
    return 0;
}

// -------------------------------------------- submit/wait commands

/**
 * Map the daemon's final status line to the documented exit code —
 * 0 done/queued, 2 error, 3 rejected, 1 unreadable — and echo the
 * failure detail (the status line's "error" field) on stderr so
 * scripts get a human-readable reason without parsing JSON.
 */
int
exitCodeForLine(const std::string &line, const char *cmd_name)
{
    std::string state, detail;
    try {
        const JsonValue doc = parseJson(line);
        state = doc.at("state").asString();
        if (const JsonValue *e = doc.find("error"))
            detail = e->asString();
    } catch (const std::exception &) {
        std::cerr << "lsim: " << cmd_name
                  << ": unreadable response: " << line << "\n";
        return 1;
    }
    if (state == "done" || state == "queued")
        return 0;
    if (!detail.empty())
        std::cerr << "lsim: " << cmd_name << ": " << state << ": "
                  << detail << "\n";
    if (state == "error")
        return 2;
    if (state == "rejected")
        return 3;
    return 1;
}

/**
 * Socket client of a serve daemon: ship a spec, print the daemon's
 * status-line responses, exit 0 only when the request was admitted
 * (and, with --wait, finished "done").
 */
int
cmdSubmit(const Args &args)
{
    const std::string spec_path = args.positional(0);
    if (spec_path.empty())
        die("submit: missing <spec.json>");
    const std::string socket_path =
        args.flagOrPositional("socket", ~std::size_t{0});
    if (socket_path.empty())
        die("submit: missing --socket PATH (the daemon's "
            "<spool>/lsim.sock)");

    std::ifstream in(spec_path, std::ios::binary);
    if (!in)
        die("submit: cannot read '" + spec_path + "'");
    std::ostringstream spec;
    spec << in.rdbuf();

    std::string name =
        args.flagOrPositional("name", ~std::size_t{0});
    if (name.empty())
        name = std::filesystem::path(spec_path).stem().string();

    int priority = 0;
    const std::string prio_text =
        args.flagOrPositional("priority", ~std::size_t{0});
    if (!prio_text.empty())
        priority = static_cast<int>(
            parseDouble(prio_text, "--priority"));
    const bool wait = args.has("wait");
    const std::string timeout_text =
        args.flagOrPositional("timeout", ~std::size_t{0});
    const double timeout_s =
        timeout_text.empty()
            ? 3600.0
            : parseDouble(timeout_text, "--timeout");

    const serve::ClientResult result = serve::socketSubmit(
        socket_path, name, spec.str(), priority, wait, timeout_s);
    if (!result.ok)
        die("submit: " + result.error);
    for (const std::string &line : result.lines)
        std::cout << line << "\n";
    return exitCodeForLine(result.lines.back(), "submit");
}

/** Socket client: block until <name> is terminal on the daemon. */
int
cmdWait(const Args &args)
{
    const std::string name = args.positional(0);
    if (name.empty())
        die("wait: missing <name>");
    const std::string socket_path =
        args.flagOrPositional("socket", ~std::size_t{0});
    if (socket_path.empty())
        die("wait: missing --socket PATH (the daemon's "
            "<spool>/lsim.sock)");
    const std::string timeout_text =
        args.flagOrPositional("timeout", ~std::size_t{0});
    const double timeout_s =
        timeout_text.empty()
            ? 3600.0
            : parseDouble(timeout_text, "--timeout");

    const serve::ClientResult result =
        serve::socketWait(socket_path, name, timeout_s);
    if (!result.ok)
        die("wait: " + result.error);
    for (const std::string &line : result.lines)
        std::cout << line << "\n";
    return exitCodeForLine(result.lines.back(), "wait");
}

// ------------------------------------------------- metrics command

/**
 * Pretty-print a daemon's live metrics.json (written atomically by
 * the serve drain loop, so this never observes a torn file).
 */
int
cmdMetrics(const Args &args)
{
    std::string target = args.positional(0);
    if (target.empty())
        die("metrics: missing <spool> (a spool directory or a "
            "metrics.json path)");
    std::filesystem::path path(target);
    if (std::filesystem::is_directory(path))
        path /= "metrics.json";

    if (args.has("json")) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            die("metrics: cannot read '" + path.string() + "'");
        std::cout << in.rdbuf();
        return 0;
    }

    const JsonValue doc = parseJsonFile(path.string());
    const JsonValue *counters = doc.find("counters");
    const JsonValue *gauges = doc.find("gauges");
    const JsonValue *histograms = doc.find("histograms");

    if (counters && !counters->members().empty()) {
        Table t({"counter", "value"});
        for (const auto &[name, value] : counters->members())
            t.addRow({name, std::to_string(value.asU64())});
        std::cout << "counters:\n";
        t.print(std::cout);
        std::cout << "\n";
    }
    if (gauges && !gauges->members().empty()) {
        Table t({"gauge", "value"});
        for (const auto &[name, value] : gauges->members())
            t.addRow({name, compactNumber(value.asNumber())});
        std::cout << "gauges:\n";
        t.print(std::cout);
        std::cout << "\n";
    }
    if (histograms && !histograms->members().empty()) {
        Table t({"histogram (ms)", "count", "mean", "p50", "p90",
                 "p99", "max"});
        for (const auto &[name, h] : histograms->members()) {
            const std::uint64_t count = h.at("count").asU64();
            const double mean = count
                ? h.at("sum").asNumber() /
                    static_cast<double>(count)
                : 0.0;
            t.addRow({name, std::to_string(count), fixed(mean, 3),
                      fixed(h.at("p50").asNumber(), 3),
                      fixed(h.at("p90").asNumber(), 3),
                      fixed(h.at("p99").asNumber(), 3),
                      fixed(h.at("max").asNumber(), 3)});
        }
        std::cout << "histograms:\n";
        t.print(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);

    // LSIM_FAULTS installs deterministic fault triggers for any
    // command (grammar in src/common/fault.hh); free when unset.
    try {
        fault::configureFromEnv();
    } catch (const std::exception &err) {
        die(std::string("bad LSIM_FAULTS: ") + err.what());
    }

    // LSIM_TRACE=out.json enables span collection for any command;
    // the flusher writes the trace on every normal return path.
    obs::TraceSession::instance().startFromEnv();
    struct TraceFlusher
    {
        ~TraceFlusher() { obs::TraceSession::instance().stop(); }
    } trace_flusher;

    if (argc < 2) {
        printUsage(std::cerr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        printUsage(std::cout);
        return 0;
    }
    if (cmd == "--version" || cmd == "version") {
        std::cout << kVersion << "\n";
        return 0;
    }

    const CommandSpec *spec = nullptr;
    for (const auto &c : commands())
        if (cmd == c.name)
            spec = &c;
    if (!spec)
        die("unknown command '" + cmd + "'");

    const Args args(argc - 2, argv + 2, *spec);
    if (args.has("help")) {
        printCommandHelp(*spec);
        return 0;
    }

    try {
        if (cmd == "characterize")
            return cmdCharacterize();
        if (cmd == "breakeven")
            return cmdBreakeven(args);
        if (cmd == "simulate")
            return cmdSimulate(args);
        if (cmd == "policies")
            return cmdPolicies(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "batch")
            return cmdBatch(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "submit")
            return cmdSubmit(args);
        if (cmd == "wait")
            return cmdWait(args);
        if (cmd == "metrics")
            return cmdMetrics(args);
        if (cmd == "profile")
            return cmdProfile(args);
        if (cmd == "list")
            return cmdList(args);
    } catch (const std::invalid_argument &err) {
        die(err.what());
    } catch (const lsim::store::StoreError &err) {
        die(err.what());
    }
    die("unknown command '" + cmd + "'");
}
