/**
 * @file
 * String-keyed sleep-policy registry.
 *
 * Policies are constructed from specs of the form "key" or
 * "key:arg" — e.g. "gradual", "gradual:16", "timeout:64",
 * "weighted-gradual", "adaptive:0.5" — so CLI flags, JSON configs,
 * tests and the api:: facade all name policies the same way. Every
 * factory receives the technology point (energy::ModelParams), which
 * supplies breakeven-derived defaults (GradualSleep slice count,
 * timeout, oracle threshold).
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

namespace lsim::sleep
{

/** Maps policy spec strings to sleep-controller factories. */
class PolicyRegistry
{
  public:
    /**
     * Factory signature: @p params is the technology point, @p arg
     * the text after the ':' in the spec (empty when absent).
     * Throws std::invalid_argument on a malformed @p arg.
     */
    using Factory = std::function<std::unique_ptr<SleepController>(
        const energy::ModelParams &params, const std::string &arg)>;

    /**
     * History-free policies may register a spec function instead of
     * a factory: it computes the policy's closed-form KernelSpec at
     * a technology point without constructing a controller, and the
     * registry derives the factory as spec(params, arg)
     * .makeController(). This lets the replay engine classify and
     * deduplicate (point, policy) configurations allocation-free —
     * a sweep constructs controllers only for distinct
     * configurations. Same error contract as Factory.
     */
    using SpecFn = std::function<KernelSpec(
        const energy::ModelParams &params, const std::string &arg)>;

    /** The process-wide registry, with built-ins registered. */
    static PolicyRegistry &instance();

    /**
     * A spec resolved once — key parsed, factory looked up — so a
     * sweep can construct the same policy at many technology points
     * without re-parsing the spec or walking the registry map per
     * point. Obtained from resolve(); stays valid for the registry's
     * lifetime (factories are owned by value).
     */
    class ResolvedSpec
    {
      public:
        /** Construct the policy at technology point @p params. */
        std::unique_ptr<SleepController>
        make(const energy::ModelParams &params) const;

        /**
         * The policy's KernelSpec at @p params, when it was
         * registered through a SpecFn — allocation-free
         * classification for the replay engine. Kind::None for
         * factory-registered (history-dependent/unknown) policies.
         */
        KernelSpec trySpec(const energy::ModelParams &params) const
        {
            return spec_ ? spec_(params, arg_) : KernelSpec{};
        }

      private:
        friend class PolicyRegistry;
        ResolvedSpec(Factory factory, SpecFn spec, std::string arg)
            : factory_(std::move(factory)), spec_(std::move(spec)),
              arg_(std::move(arg))
        {
        }

        Factory factory_; ///< empty when spec_ is set
        SpecFn spec_;
        std::string arg_;
    };

    /**
     * Parse @p spec and look up its factory once. Throws
     * std::invalid_argument for unknown keys, exactly like make();
     * malformed args surface on the first ResolvedSpec::make() call
     * (args are factory-validated against the technology point).
     */
    ResolvedSpec resolve(const std::string &spec) const;

    /**
     * Register @p factory under @p key (no ':' allowed). Replaces an
     * existing registration with the same key.
     *
     * @param summary One-line description for listings.
     */
    void add(const std::string &key, const std::string &summary,
             Factory factory);

    /** Register a history-free policy through its SpecFn. */
    void add(const std::string &key, const std::string &summary,
             SpecFn spec);

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
     * Reverse lookup: the registry spec that reconstructs a
     * controller equivalent to @p ctrl, derived from its name()
     * and configuration accessors (e.g. "Timeout(64)" ->
     * "timeout:64", a weighted-gradual's weights are re-encoded in
     * the arg). Throws std::invalid_argument when the name maps to
     * no registered key, so spec -> controller -> spec round-trips.
     */
    static std::string keyFor(const SleepController &ctrl);

    /**
     * Specs of the paper's four policies, in the order every report
     * lists them: max-sleep, gradual, always-active, no-overhead.
     */
    static const std::vector<std::string> &paperSpecs();

    /** Specs of the extension set: timeout, oracle, adaptive. */
    static const std::vector<std::string> &extensionSpecs();

  private:
    PolicyRegistry(); ///< registers the built-in policies

    struct Entry
    {
        std::string summary;
        Factory factory; ///< empty for SpecFn registrations
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
