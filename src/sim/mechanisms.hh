/**
 * @file
 * MechanismRegistry: the named, enumerable catalogue of every mechanism
 * preset the paper evaluates (§8.4 baselines and combinations, the Fig 7
 * oracles, the Fig 13 addressing-mode filters, the Fig 22 AMT-I variant).
 * Benches, tools and tests resolve presets by name --
 * `mechFor("eves+constable")` -- instead of calling per-preset factory
 * functions, so a new preset is one registry entry, not a code change in
 * every driver, and `constable-sweep --mech=<name>` can run any of them.
 *
 * Each preset is a plain MechanismConfig value; the golden-snapshot test
 * proves registry-built configs are bit-identical to the hand-built ones
 * they replaced.
 */

#ifndef CONSTABLE_SIM_MECHANISMS_HH
#define CONSTABLE_SIM_MECHANISMS_HH

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cpu/config.hh"

namespace constable {

/** One named preset of the registry. */
struct MechanismPreset
{
    std::string name;        ///< registry key ("eves+constable")
    std::string description; ///< one-liner for --help / README tables
    /** The preset's mechanisms; an oracle's stablePcs set is left empty
     *  for MechanismRegistry::build() to fill per row. */
    MechanismConfig config;
    /** Oracle presets (config.ideal.mode != None) need the row's
     *  offline-identified global-stable PC set; Experiment::addPreset()
     *  turns them into per-row factories. */
    bool perRow = false;
};

class MechanismRegistry
{
  public:
    /** The process-wide registry (immutable after construction). */
    static const MechanismRegistry& instance();

    /** Every preset, in the paper's canonical evaluation order (the same
     *  order the golden-snapshot test and constable-sweep use). */
    const std::vector<MechanismPreset>& presets() const { return presets_; }

    /** Lookup; null when the name is unknown. */
    const MechanismPreset* find(const std::string& name) const;

    /** Lookup; fatal() (listing all known names) when unknown. */
    const MechanismPreset& get(const std::string& name) const;

    /** The preset's MechanismConfig; @p gs becomes an oracle preset's
     *  stable-PC set (empty when null, as in a run without offline
     *  inspection) and is ignored by every other preset. */
    MechanismConfig build(const std::string& name,
                          const std::unordered_set<PC>* gs = nullptr) const;

    /** Comma-separated preset names (usage/error messages). */
    std::string nameList() const;

  private:
    MechanismRegistry();

    std::vector<MechanismPreset> presets_;
    std::unordered_map<std::string, size_t> byName_;
};

/** Shorthand: MechanismRegistry::instance().build(name, gs). */
inline MechanismConfig
mechFor(const std::string& preset, const std::unordered_set<PC>* gs = nullptr)
{
    return MechanismRegistry::instance().build(preset, gs);
}

/**
 * Split a comma-separated preset list, validate every name against the
 * registry and append it to @p out. fatal() on an unknown name, on a name
 * already in @p out, and on a list that names nothing (",").
 * @param what names the source in fatal() messages.
 */
void appendPresetNames(const std::string& what, const std::string& list,
                       std::vector<std::string>& out);

} // namespace constable

#endif
