/**
 * @file
 * String-keyed sleep-policy registry.
 *
 * Policies are named by specs of the form "key" or "key:arg" — e.g.
 * "gradual", "gradual:16", "timeout:64", "weighted-gradual",
 * "adaptive:0.5" — so CLI flags, JSON configs, tests and the api::
 * facade all name policies the same way. Each key maps to a spec
 * function: given the technology point (energy::ModelParams), which
 * supplies breakeven-derived defaults (GradualSleep slice count,
 * timeout, oracle threshold), and the argument, it returns the
 * policy's KernelSpec. Controllers are built from that spec
 * (KernelSpec::makeController), so a policy is its KernelSpec: the
 * replay engine kernelizes every registered policy, and adding one
 * means four things — a KernelSpec::Kind, its kernel, its controller
 * (the scalar reference) and an entry here.
 *
 * The registry is built once, with the built-ins, and nothing writes
 * it afterwards, so pool threads may read it concurrently.
 *
 * Unlike most of the library (which fatal()s on user error), lookup
 * failures throw std::invalid_argument: the registry sits on the
 * public API boundary where callers like the CLI want to print
 * usage and the available keys instead of dying.
 */

#ifndef LSIM_SLEEP_POLICY_REGISTRY_HH
#define LSIM_SLEEP_POLICY_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "energy/params.hh"
#include "sleep/controllers.hh"
#include "sleep/kernel_spec.hh"

namespace lsim::sleep
{

/** Maps policy spec strings to KernelSpecs. */
class PolicyRegistry
{
  public:
    /**
     * Spec function: @p params is the technology point, @p arg the
     * text after the ':' in the spec (empty when absent). Throws
     * std::invalid_argument on a malformed @p arg.
     */
    using SpecFn = std::function<KernelSpec(
        const energy::ModelParams &params, const std::string &arg)>;

    /** The process-wide registry, with built-ins registered. */
    static const PolicyRegistry &instance();

    /**
     * A spec resolved once — key parsed, spec function looked up —
     * so a sweep can evaluate the same policy at many technology
     * points without re-parsing the spec or walking the registry map
     * per point. Obtained from resolve(); holds its spec function by
     * value.
     */
    class ResolvedSpec
    {
      public:
        /**
         * The policy's KernelSpec at @p params — allocation-free
         * classification for the replay engine. Throws
         * std::invalid_argument on a malformed argument.
         */
        KernelSpec spec(const energy::ModelParams &params) const
        {
            return spec_(params, arg_);
        }

      private:
        friend class PolicyRegistry;
        ResolvedSpec(SpecFn spec, std::string arg)
            : spec_(std::move(spec)), arg_(std::move(arg))
        {
        }

        SpecFn spec_;
        std::string arg_;
    };

    /**
     * Parse @p spec and look up its spec function once. Throws
     * std::invalid_argument for unknown keys, exactly like make();
     * malformed args surface on the first ResolvedSpec::spec() call
     * (args are validated against the technology point).
     */
    ResolvedSpec resolve(const std::string &spec) const;

    /**
     * Construct the controller named by @p spec ("key" or
     * "key:arg") at technology point @p params. Throws
     * std::invalid_argument for unknown keys or malformed args.
     */
    std::unique_ptr<SleepController>
    make(const std::string &spec,
         const energy::ModelParams &params) const;

    /** Construct one controller per spec, preserving order. */
    ControllerSet makeSet(const std::vector<std::string> &specs,
                          const energy::ModelParams &params) const;

    /** @return true when @p spec 's key is registered. */
    bool has(const std::string &spec) const;

    /** Registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** One-line description of @p key; throws on unknown keys. */
    const std::string &summary(const std::string &key) const;

    /**
     * Specs of the paper's four policies, in the order every report
     * lists them: max-sleep, gradual, always-active, no-overhead.
     */
    static const std::vector<std::string> &paperSpecs();

    /** Specs of the extension set: timeout, oracle, adaptive. */
    static const std::vector<std::string> &extensionSpecs();

  private:
    PolicyRegistry(); ///< registers the built-in policies

    /**
     * Register @p spec under @p key (no ':' allowed), with a
     * one-line @p summary for listings. Called only while the
     * registry is constructed.
     */
    void add(const std::string &key, const std::string &summary,
             SpecFn spec);

    struct Entry
    {
        std::string summary;
        SpecFn spec;
    };

    /** Split @p spec into key/arg and find its entry; throws the
     * unknown-policy std::invalid_argument otherwise. */
    const Entry &entryFor(const std::string &spec,
                          std::string &arg) const;

    std::map<std::string, Entry> entries_;
};

} // namespace lsim::sleep

#endif // LSIM_SLEEP_POLICY_REGISTRY_HH
