#include "sim/mechanisms.hh"

#include <utility>

#include "common/logging.hh"

namespace constable {

namespace {

MechanismPreset
preset(std::string name, std::string description, MechanismConfig config)
{
    MechanismPreset p;
    p.name = std::move(name);
    p.description = std::move(description);
    p.perRow = config.ideal.mode != IdealMode::None;
    p.config = std::move(config);
    return p;
}

// Each preset's config is spelled as the techniques its name lists:
// "eves+constable" is withEves(withConstable()).

MechanismConfig
withConstable(ConstableConfig c = ConstableConfig{})
{
    MechanismConfig m;
    m.constable = c;
    return m;
}

MechanismConfig
withEves(MechanismConfig m = MechanismConfig{})
{
    m.eves = true;
    return m;
}

MechanismConfig
withElar(MechanismConfig m = MechanismConfig{})
{
    m.elar = true;
    return m;
}

MechanismConfig
withRfp(MechanismConfig m = MechanismConfig{})
{
    m.rfp = true;
    return m;
}

/** A Fig 7 oracle; build() fills its stable-PC set per row. */
MechanismConfig
oracle(IdealMode mode)
{
    MechanismConfig m;
    m.ideal.mode = mode;
    return m;
}

/** Constable eliminating only the addressing modes switched on here. */
ConstableConfig
onlyModes(bool pc_rel, bool stack_rel, bool reg_rel)
{
    ConstableConfig c;
    c.eliminatePcRel = pc_rel;
    c.eliminateStackRel = stack_rel;
    c.eliminateRegRel = reg_rel;
    return c;
}

} // namespace

// ------------------------------------------------------ MechanismRegistry

MechanismRegistry::MechanismRegistry()
{
    // Canonical evaluation order: §8.4 presets and combinations, the
    // Fig 13 addressing-mode filters, the Fig 22 AMT-I variant, then the
    // Fig 7 oracles. The golden-snapshot test and constable-sweep iterate
    // this order.
    ConstableConfig amtI;
    amtI.cvBitPinning = false;
    presets_ = {
        preset("baseline",
               "MRN + move/zero elimination + folding (always-on baseline)",
               MechanismConfig{}),
        preset("constable",
               "Constable load elimination (the paper's mechanism)",
               withConstable()),
        preset("eves", "EVES load value prediction (CVP-1 winner)",
               withEves()),
        preset("eves+constable", "EVES on top of Constable",
               withEves(withConstable())),
        preset("elar", "Early Load Address Resolution (stack loads)",
               withElar()),
        preset("rfp", "Register File Prefetching (ISCA'22)", withRfp()),
        preset("elar+constable", "ELAR on top of Constable",
               withElar(withConstable())),
        preset("rfp+constable", "RFP on top of Constable",
               withRfp(withConstable())),
        preset("constable-pcrel",
               "Constable, PC-relative loads only (Fig 13)",
               withConstable(onlyModes(true, false, false))),
        preset("constable-stackrel",
               "Constable, stack-relative loads only (Fig 13)",
               withConstable(onlyModes(false, true, false))),
        preset("constable-regrel",
               "Constable, register-relative loads only (Fig 13)",
               withConstable(onlyModes(false, false, true))),
        preset("constable-amt-i",
               "Constable-AMT-I: AMT invalidated on L1D eviction (Fig 22)",
               withConstable(amtI)),
        preset("ideal-stable-lvp",
               "oracle: perfect value prediction of global-stable loads "
               "(Fig 7)",
               oracle(IdealMode::StableLvp)),
        preset("ideal-stable-lvp-nofetch",
               "oracle: perfect prediction + data-fetch elimination (Fig 7)",
               oracle(IdealMode::StableLvpNoFetch)),
        preset("ideal-constable",
               "oracle: full elimination of global-stable loads (Fig 7)",
               oracle(IdealMode::Constable)),
        preset("eves+ideal-constable",
               "EVES on top of the ideal-Constable oracle (Fig 11/16 bound)",
               withEves(oracle(IdealMode::Constable))),
    };
    for (size_t i = 0; i < presets_.size(); ++i)
        byName_[presets_[i].name] = i;
}

const MechanismRegistry&
MechanismRegistry::instance()
{
    static const MechanismRegistry reg;
    return reg;
}

const MechanismPreset*
MechanismRegistry::find(const std::string& name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : &presets_[it->second];
}

const MechanismPreset&
MechanismRegistry::get(const std::string& name) const
{
    const MechanismPreset* p = find(name);
    if (!p) {
        fatal("unknown mechanism preset '" + name + "' (known: " +
              nameList() + ")");
    }
    return *p;
}

MechanismConfig
MechanismRegistry::build(const std::string& name,
                         const std::unordered_set<PC>* gs) const
{
    const MechanismPreset& p = get(name);
    MechanismConfig m = p.config;
    if (p.perRow && gs)
        m.ideal.stablePcs = *gs;
    return m;
}

void
appendPresetNames(const std::string& what, const std::string& list,
                  std::vector<std::string>& out)
{
    const MechanismRegistry& reg = MechanismRegistry::instance();
    bool any = false;
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string name = comma == std::string::npos
                               ? list.substr(start)
                               : list.substr(start, comma - start);
        if (!name.empty()) {
            reg.get(name); // fatal if unknown
            for (const std::string& prev : out) {
                if (prev == name)
                    fatal(what + ": duplicate mechanism preset '" + name +
                          "'");
            }
            out.push_back(name);
            any = true;
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (!any)
        fatal(what + " names no mechanism presets (known: " +
              reg.nameList() + ")");
}

std::string
MechanismRegistry::nameList() const
{
    std::string out;
    for (size_t i = 0; i < presets_.size(); ++i) {
        if (i)
            out += ", ";
        out += presets_[i].name;
    }
    return out;
}

} // namespace constable
