/**
 * @file
 * constable-lint: the repo-specific static checker. Generic tools know
 * nothing about this codebase's determinism and layering contracts, so this
 * binary enforces them over src/ (plus tools/ and bench/ where noted) and
 * exits nonzero with `file:line: rule: message` diagnostics when a rule
 * fires. Run by ctest (tests/test_lint.cc drives it over checked-in
 * pass/fail fixtures too) and by the CI lint job.
 *
 * Rules:
 *   raw-parse      strtoull/strtol/strtod/atoi/atof/std::stoi- and
 *                  std::stod-family and getenv are banned outside
 *                  src/common/env.hh: every knob must go through the
 *                  strict, range-checked parsers so a typo'd value dies
 *                  loudly instead of silently becoming 0 or its numeric
 *                  prefix (the octal/hex auto-base bug class, and
 *                  "--max-regression=25" quietly disabling a gate).
 *   determinism    rand()/srand()/time()/system_clock are banned in src/:
 *                  RunResult fingerprints must be bit-identical across
 *                  thread counts, shard counts and resume, so simulator
 *                  code must not read wall-clock or ambient randomness.
 *                  Escape hatch for legitimate wall-clock sites (lease
 *                  timestamps): `// lint:wallclock <why>`.
 *   unordered-iter iterating an unordered_map/unordered_set in a file that
 *                  also touches serialization, fingerprints, or report
 *                  printing is flagged: hash-order leaking into bytes or
 *                  figures is exactly how cross-run identity dies. Sites
 *                  whose sink is order-insensitive carry
 *                  `// lint:ordered <why>`.
 *   layering       the include DAG of src/ is layered:
 *                      common < isa < {core,mem,power,predictor,trace,vp}
 *                             < {inspector,workloads} < cpu < sim < serve
 *                  and an include may only reach its own layer or below
 *                  (so cpu/ can never include sim/ or serve/). New src/
 *                  directories must be added to the table here.
 *                  common/obs.{hh,cc} form their own "obs" node at the isa
 *                  layer despite living in src/common: obs may include
 *                  common, but common must never include obs (faultio
 *                  reaches observability through an inverted observer
 *                  hook, not an include).
 *   env-doc        every "CONSTABLE_*" env-var string literal in src/ and
 *                  tools/ must appear in README.md, so the option table
 *                  can never silently lag the code.
 *   raw-io         fopen/ifstream/ofstream/::open/::rename and friends are
 *                  banned in src/ and bench/ outside the shim itself
 *                  (common/faultio.cc): every file is committed and read
 *                  through writeFileAtomic/readFileBytes/readFileText so
 *                  constable-faultsweep can prove its recovery path and
 *                  no private writer regrows. std::filesystem:: spellings
 *                  (fs::rename etc.) are exempt; justified raw sites
 *                  (lease creation, mmap) carry `// lint:rawio <why>`.
 *   raw-log        direct fprintf(stderr, ...) is banned in src/sim,
 *                  src/trace and src/serve: diagnostics must route through
 *                  warn()/inform()/warnOnce() (common/logging.hh) so
 *                  CONSTABLE_LOG_LEVEL can gate them and dedup applies.
 *                  Justified sites carry `// lint:rawlog <why>`.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation
{
    std::string file;
    size_t line;
    std::string rule;
    std::string message;
};

/** One scanned source file, split into views the rules consume. */
struct SourceFile
{
    std::string path;      ///< as reported in diagnostics
    std::string relDir;    ///< "src/cpu", "tools", ... (first two components)
    std::vector<std::string> raw;  ///< verbatim lines (escape comments live here)
    std::vector<std::string> code; ///< comments stripped, string/char bodies blanked
    /** String-literal bodies with the line they start on. */
    std::vector<std::pair<size_t, std::string>> strings;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Split a source file into a comment-free/string-free code view plus the
 * list of string-literal bodies. A hand-rolled scanner beats regexes here:
 * rules must not fire on words inside comments ("strtoull's base-0
 * auto-detection would..." in env.hh) or read env names out of comments.
 */
SourceFile
lexFile(const std::string& path, const std::string& diagPath,
        const std::string& relDir)
{
    SourceFile sf;
    sf.path = diagPath;
    sf.relDir = relDir;

    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    enum class St { Code, LineComment, BlockComment, String, Char };
    St st = St::Code;
    std::string rawLine, codeLine, literal;
    size_t line = 1, literalLine = 0;

    auto flushLine = [&]() {
        sf.raw.push_back(rawLine);
        sf.code.push_back(codeLine);
        rawLine.clear();
        codeLine.clear();
        ++line;
    };

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (st == St::LineComment)
                st = St::Code;
            flushLine();
            continue;
        }
        rawLine.push_back(c);
        switch (st) {
          case St::Code:
            if (c == '/' && next == '/') {
                st = St::LineComment;
                rawLine.push_back(next);
                ++i;
            } else if (c == '/' && next == '*') {
                st = St::BlockComment;
                rawLine.push_back(next);
                ++i;
                codeLine.push_back(' ');
            } else if (c == '"') {
                st = St::String;
                literal.clear();
                literalLine = line;
                codeLine.push_back('"');
            } else if (c == '\'') {
                st = St::Char;
                codeLine.push_back('\'');
            } else {
                codeLine.push_back(c);
            }
            break;
          case St::LineComment:
            break;
          case St::BlockComment:
            if (c == '*' && next == '/') {
                st = St::Code;
                rawLine.push_back(next);
                ++i;
            }
            break;
          case St::String:
            if (c == '\\' && next != '\0') {
                literal.push_back(c);
                literal.push_back(next);
                rawLine.push_back(next);
                ++i;
            } else if (c == '"') {
                st = St::Code;
                codeLine.push_back('"');
                sf.strings.emplace_back(literalLine, literal);
            } else {
                literal.push_back(c);
            }
            break;
          case St::Char:
            if (c == '\\' && next != '\0') {
                rawLine.push_back(next);
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                codeLine.push_back('\'');
            }
            break;
        }
    }
    if (!rawLine.empty() || !codeLine.empty())
        flushLine();
    return sf;
}

/** Does raw line `n` (or the line above it) carry the given escape tag? */
bool
hasEscape(const SourceFile& sf, size_t line1based, const char* tag)
{
    for (size_t l = line1based; l >= 1 && l + 1 >= line1based; --l) {
        if (l - 1 < sf.raw.size() &&
            sf.raw[l - 1].find(tag) != std::string::npos)
            return true;
        if (l == 1)
            break;
    }
    return false;
}

/** Every identifier token of a code line, with its start column. */
std::vector<std::pair<size_t, std::string>>
identifiers(const std::string& codeLine)
{
    std::vector<std::pair<size_t, std::string>> out;
    size_t i = 0;
    while (i < codeLine.size()) {
        if (isIdentChar(codeLine[i]) &&
            !std::isdigit(static_cast<unsigned char>(codeLine[i]))) {
            size_t start = i;
            while (i < codeLine.size() && isIdentChar(codeLine[i]))
                ++i;
            out.emplace_back(start, codeLine.substr(start, i - start));
        } else {
            ++i;
        }
    }
    return out;
}

// ------------------------------------------------------------- rule: layering

/** src/ subdirectory -> layer. Includes may only point at an equal or
 *  lower layer. Directories sharing a number are peers that must not
 *  include each other... except they may: peers see each other only when
 *  strictly below (same-layer cross-includes are allowed only within the
 *  same directory). */
const std::map<std::string, int>&
layerTable()
{
    static const std::map<std::string, int> layers = {
        { "common", 0 },
        { "isa", 1 }, { "obs", 1 },
        { "core", 2 },      { "mem", 2 },   { "power", 2 },
        { "predictor", 2 }, { "trace", 2 }, { "vp", 2 },
        { "inspector", 3 }, { "workloads", 3 },
        { "cpu", 4 },
        { "sample", 5 },
        { "sim", 6 },
        { "serve", 7 },
    };
    return layers;
}

/** True when the diagnostic path ends with @p suffix. */
bool
pathEndsWith(const std::string& path, const char* suffix)
{
    size_t n = std::strlen(suffix);
    return path.size() >= n &&
           path.compare(path.size() - n, n, suffix) == 0;
}

/** The observability pair is its own DAG node, one layer above the rest
 *  of common (see the file comment). */
bool
isObsFile(const std::string& path)
{
    return pathEndsWith(path, "common/obs.hh") ||
           pathEndsWith(path, "common/obs.cc");
}

/** The phase-sampling pair is its own DAG node between cpu/ and the rest
 *  of sim/: it may use the core but not sim/'s runner/experiment surface
 *  (sim/experiment.cc dispatches INTO it, never the reverse). */
bool
isSampleFile(const std::string& path)
{
    return pathEndsWith(path, "sim/sample.hh") ||
           pathEndsWith(path, "sim/sample.cc");
}

void
checkLayering(const SourceFile& sf, std::vector<Violation>& out)
{
    if (sf.relDir.rfind("src/", 0) != 0)
        return; // layering governs the library only
    std::string ownDir = sf.relDir.substr(4);
    if (isObsFile(sf.path))
        ownDir = "obs";
    if (isSampleFile(sf.path))
        ownDir = "sample";
    auto own = layerTable().find(ownDir);
    if (own == layerTable().end()) {
        out.push_back({ sf.path, 1, "layering",
                        "src/" + ownDir + " is not in constable-lint's "
                        "layer table; add it (tools/constable_lint.cc) at "
                        "a deliberate layer" });
        return;
    }
    for (size_t l = 0; l < sf.code.size(); ++l) {
        // Detect the directive on the comment-stripped view (so commented
        // -out includes don't count), but read the path from the raw line:
        // the lexer blanks string-literal bodies out of the code view.
        size_t h = sf.code[l].find("#include");
        if (h == std::string::npos)
            continue;
        const std::string& rl = sf.raw[l];
        size_t q1 = rl.find('"');
        if (q1 == std::string::npos)
            continue; // <system> includes never violate layering
        size_t q2 = rl.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        std::string inc = rl.substr(q1 + 1, q2 - q1 - 1);
        size_t slash = inc.find('/');
        if (slash == std::string::npos)
            continue; // same-directory include
        std::string incDir = inc.substr(0, slash);
        if (inc == "common/obs.hh")
            incDir = "obs";
        if (inc == "sim/sample.hh")
            incDir = "sample";
        auto tgt = layerTable().find(incDir);
        if (tgt == layerTable().end()) {
            out.push_back({ sf.path, l + 1, "layering",
                            "include of unknown src/ directory '" + incDir +
                            "'; add it to the layer table in "
                            "tools/constable_lint.cc" });
            continue;
        }
        bool bad = incDir != ownDir && (tgt->second > own->second ||
                                        (tgt->second == own->second));
        if (bad) {
            out.push_back({ sf.path, l + 1, "layering",
                            "src/" + ownDir + " (layer " +
                            std::to_string(own->second) +
                            ") must not include \"" + inc + "\" (src/" +
                            incDir + " is layer " +
                            std::to_string(tgt->second) +
                            "); dependencies flow strictly downward "
                            "(common < isa < core/mem/power/predictor/"
                            "trace/vp < inspector/workloads < cpu < "
                            "sample < sim < serve)" });
        }
    }
}

// ------------------------------------------- rules: raw-parse + determinism

const std::set<std::string>&
bannedParseIdents()
{
    static const std::set<std::string> s = {
        "strtol",  "strtoul",  "strtoll", "strtoull", "atoi", "atol",
        "atoll",   "stoi",     "stol",    "stoul",    "stoll", "stoull",
        "strtod",  "strtof",   "strtold", "atof",     "stod",  "stof",
        "stold",   "getenv",
    };
    return s;
}

const std::set<std::string>&
bannedClockIdents()
{
    static const std::set<std::string> s = {
        "rand", "srand", "time", "system_clock",
    };
    return s;
}

void
checkBannedIdentifiers(const SourceFile& sf, std::vector<Violation>& out)
{
    bool isEnvHh = sf.path.size() >= 13 &&
                   sf.path.compare(sf.path.size() - 13, 13,
                                   "common/env.hh") == 0;
    bool inSrc = sf.relDir.rfind("src/", 0) == 0;
    for (size_t l = 0; l < sf.code.size(); ++l) {
        for (const auto& [col, id] : identifiers(sf.code[l])) {
            (void)col;
            if (!isEnvHh && bannedParseIdents().count(id)) {
                out.push_back({ sf.path, l + 1, "raw-parse",
                                "'" + id + "' is banned outside "
                                "src/common/env.hh; use parseU64Strict/"
                                "parseDoubleInRange/tryParseDouble/envU64/"
                                "envStr so malformed values die loudly "
                                "(or are rejected) instead of parsing as "
                                "0 or a prefix" });
            }
            if (inSrc && bannedClockIdents().count(id)) {
                // rand/srand/time must look like calls; system_clock is a
                // type and matches as a bare identifier.
                if (id != "system_clock") {
                    size_t after = col + id.size();
                    const std::string& cl = sf.code[l];
                    while (after < cl.size() && cl[after] == ' ')
                        ++after;
                    if (after >= cl.size() || cl[after] != '(')
                        continue;
                }
                if (hasEscape(sf, l + 1, "lint:wallclock"))
                    continue;
                out.push_back({ sf.path, l + 1, "determinism",
                                "'" + id + "' is banned in src/: results "
                                "must be bit-identical across runs, so "
                                "simulator code may not read wall-clock "
                                "or ambient randomness (justify real "
                                "wall-clock sites with "
                                "// lint:wallclock <why>)" });
            }
        }
    }
}

// ---------------------------------------------------------- rule: raw-io

const std::set<std::string>&
bannedIoIdents()
{
    static const std::set<std::string> s = {
        "fopen", "freopen", "open", "creat", "rename",
        "ifstream", "ofstream", "fstream",
    };
    return s;
}

/** Does the code line's text immediately before @p col end with @p pre? */
bool
precededBy(const std::string& codeLine, size_t col, const char* pre)
{
    size_t n = std::strlen(pre);
    return col >= n && codeLine.compare(col - n, n, pre) == 0;
}

void
checkRawIo(const SourceFile& sf, std::vector<Violation>& out)
{
    bool inScope = sf.relDir.rfind("src/", 0) == 0 || sf.relDir == "bench";
    if (!inScope)
        return;
    // The shim itself: the one sanctioned home of raw file I/O, where
    // every call is paired with its fault point.
    if (pathEndsWith(sf.path, "common/faultio.cc"))
        return;
    for (size_t l = 0; l < sf.code.size(); ++l) {
        const std::string& cl = sf.code[l];
        for (const auto& [col, id] : identifiers(cl)) {
            if (!bannedIoIdents().count(id))
                continue;
            // std::filesystem's error_code spellings stay legal: the rule
            // targets the stdio/POSIX/iostream calls that would bypass
            // the shim, not filesystem metadata ops.
            if (precededBy(cl, col, "fs::") ||
                precededBy(cl, col, "filesystem::"))
                continue;
            if (hasEscape(sf, l + 1, "lint:rawio"))
                continue;
            out.push_back({ sf.path, l + 1, "raw-io",
                            "'" + id + "' is banned in src/ and bench/ "
                            "outside common/faultio.cc: route file I/O "
                            "through the faultio shim helpers "
                            "(writeFileAtomic/readFileBytes/readFileText) "
                            "so constable-faultsweep covers the call site "
                            "(justify exceptions with "
                            "// lint:rawio <why>)" });
        }
    }
}

// --------------------------------------------------------- rule: raw-log

void
checkRawLog(const SourceFile& sf, std::vector<Violation>& out)
{
    bool inScope = sf.relDir == "src/sim" || sf.relDir == "src/trace" ||
                   sf.relDir == "src/serve";
    if (!inScope)
        return;
    for (size_t l = 0; l < sf.code.size(); ++l) {
        const std::string& cl = sf.code[l];
        bool hasFprintf = false, hasStderr = false;
        for (const auto& [col, id] : identifiers(cl)) {
            (void)col;
            if (id == "fprintf")
                hasFprintf = true;
            else if (id == "stderr")
                hasStderr = true;
        }
        if (!hasFprintf || !hasStderr)
            continue;
        if (hasEscape(sf, l + 1, "lint:rawlog"))
            continue;
        out.push_back({ sf.path, l + 1, "raw-log",
                        "direct fprintf(stderr, ...) is banned in "
                        "sim/trace/serve: route diagnostics through "
                        "warn()/inform()/warnOnce() (common/logging.hh) so "
                        "CONSTABLE_LOG_LEVEL gates them (justify "
                        "exceptions with // lint:rawlog <why>)" });
    }
}

// --------------------------------------------------- rule: unordered-iter

/** Names declared (anywhere in the scanned tree) with an unordered type:
 *  variables, members, and functions returning unordered containers. */
void
collectUnorderedNames(const SourceFile& sf, std::set<std::string>& names)
{
    for (const std::string& cl : sf.code) {
        size_t pos = 0;
        while (pos < cl.size()) {
            size_t um = cl.find("unordered_map<", pos);
            size_t us = cl.find("unordered_set<", pos);
            size_t at = std::min(um, us);
            if (at == std::string::npos)
                break;
            // Skip to the matching '>' of the template argument list.
            size_t i = cl.find('<', at);
            int depth = 0;
            for (; i < cl.size(); ++i) {
                if (cl[i] == '<')
                    ++depth;
                else if (cl[i] == '>' && --depth == 0)
                    break;
            }
            if (i >= cl.size())
                break; // declaration spans lines; the next line's ident
                       // pattern won't match -- acceptable miss
            ++i;
            while (i < cl.size() &&
                   (cl[i] == ' ' || cl[i] == '&' || cl[i] == '*'))
                ++i;
            size_t start = i;
            while (i < cl.size() && isIdentChar(cl[i]))
                ++i;
            if (i > start)
                names.insert(cl.substr(start, i - start));
            pos = i;
        }
    }
}

/** Files where hash-order can leak into bytes or reports. */
bool
isOrderSensitive(const SourceFile& sf)
{
    static const char* needles[] = { "serialize", "fnv1a", "fingerprint",
                                     "printf" };
    for (const std::string& cl : sf.code)
        for (const char* n : needles)
            if (cl.find(n) != std::string::npos)
                return true;
    return false;
}

void
checkUnorderedIteration(const SourceFile& sf,
                        const std::set<std::string>& unorderedNames,
                        std::vector<Violation>& out)
{
    if (!isOrderSensitive(sf))
        return;
    for (size_t l = 0; l < sf.code.size(); ++l) {
        const std::string& cl = sf.code[l];
        size_t f = cl.find("for ");
        if (f == std::string::npos)
            f = cl.find("for(");
        if (f == std::string::npos)
            continue;
        size_t colon = cl.find(" : ", f);
        if (colon == std::string::npos)
            continue;
        std::string range = cl.substr(colon + 3);
        bool hit = false;
        std::string hitName;
        for (const auto& [col, id] : identifiers(range)) {
            (void)col;
            if (unorderedNames.count(id)) {
                hit = true;
                hitName = id;
                break;
            }
        }
        if (!hit || hasEscape(sf, l + 1, "lint:ordered"))
            continue;
        out.push_back({ sf.path, l + 1, "unordered-iter",
                        "iterating '" + hitName + "' (an unordered "
                        "container) in a file that serializes, "
                        "fingerprints, or prints reports: hash order must "
                        "not leak into bytes or figures; iterate a sorted "
                        "copy, or justify an order-insensitive sink with "
                        "// lint:ordered <why>" });
    }
}

// --------------------------------------------------------- rule: env-doc

void
collectEnvStrings(const SourceFile& sf,
                  std::vector<Violation>& pending,
                  std::set<std::string>& needed)
{
    for (const auto& [line, body] : sf.strings) {
        size_t pos = 0;
        while ((pos = body.find("CONSTABLE_", pos)) != std::string::npos) {
            size_t end = pos;
            while (end < body.size() &&
                   ((body[end] >= 'A' && body[end] <= 'Z') ||
                    (body[end] >= '0' && body[end] <= '9') ||
                    body[end] == '_'))
                ++end;
            std::string name = body.substr(pos, end - pos);
            if (name.size() > std::strlen("CONSTABLE_")) {
                needed.insert(name);
                pending.push_back({ sf.path, line, "env-doc",
                                    "env var '" + name + "' is used here "
                                    "but does not appear in README.md; add "
                                    "it to the option table" });
            }
            pos = end;
        }
    }
}

// --------------------------------------------------------------- the driver

void
scanTree(const fs::path& root, const fs::path& sub,
         std::vector<SourceFile>& files)
{
    fs::path dir = root / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec) || ec)
        return;
    std::vector<fs::path> paths;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file(ec))
            continue;
        std::string ext = it->path().extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        if (it->path().filename() == "constable_lint.cc")
            continue; // the linter names its own rule patterns
        paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
        std::string rel = fs::relative(p, root, ec).generic_string();
        if (ec)
            rel = p.generic_string();
        // relDir: first two components for src/ ("src/cpu"), first one
        // otherwise ("tools").
        std::string relDir = rel;
        size_t s1 = relDir.find('/');
        if (s1 != std::string::npos) {
            size_t s2 = relDir.find('/', s1 + 1);
            relDir = relDir.substr(
                0, relDir.rfind("src/", 0) == 0 && s2 != std::string::npos
                       ? s2
                       : s1);
        }
        files.push_back(lexFile(p.string(), rel, relDir));
    }
}

int
runLint(const std::string& rootArg)
{
    fs::path root(rootArg);
    std::vector<SourceFile> files;
    scanTree(root, "src", files);
    scanTree(root, "tools", files);
    scanTree(root, "bench", files);

    // Pass 1: global unordered-name set (declarations in headers are
    // iterated from other translation units, e.g. core_state.hh members).
    std::set<std::string> unorderedNames;
    for (const SourceFile& sf : files)
        collectUnorderedNames(sf, unorderedNames);

    std::vector<Violation> violations;
    std::vector<Violation> envPending;
    std::set<std::string> envNeeded;
    for (const SourceFile& sf : files) {
        checkLayering(sf, violations);
        checkBannedIdentifiers(sf, violations);
        checkRawIo(sf, violations);
        checkRawLog(sf, violations);
        checkUnorderedIteration(sf, unorderedNames, violations);
        if (sf.relDir.rfind("src/", 0) == 0 || sf.relDir == "tools")
            collectEnvStrings(sf, envPending, envNeeded);
    }

    // env-doc: resolve against README.md once.
    if (!envNeeded.empty()) {
        std::ifstream in(root / "README.md", std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        std::string readme = ss.str();
        for (Violation& v : envPending) {
            size_t q1 = v.message.find('\'');
            size_t q2 = v.message.find('\'', q1 + 1);
            std::string name = v.message.substr(q1 + 1, q2 - q1 - 1);
            if (readme.find(name) == std::string::npos)
                violations.push_back(v);
        }
    }

    std::sort(violations.begin(), violations.end(),
              [](const Violation& a, const Violation& b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    for (const Violation& v : violations) {
        std::printf("%s:%zu: %s: %s\n", v.file.c_str(), v.line,
                    v.rule.c_str(), v.message.c_str());
    }
    if (violations.empty()) {
        std::fprintf(stderr, "constable-lint: %zu files clean\n",
                     files.size());
        return 0;
    }
    std::fprintf(stderr, "constable-lint: %zu violation(s) in %zu files\n",
                 violations.size(), files.size());
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string root = ".";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--root=", 0) == 0) {
            root = arg.substr(7);
        } else if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: constable-lint [--root=DIR]\n"
                "Checks DIR/src, DIR/tools, DIR/bench against the repo's\n"
                "determinism/layering rules (raw-parse, determinism,\n"
                "unordered-iter, layering, env-doc, raw-io, raw-log).\n"
                "Nonzero exit on any violation; diagnostics as\n"
                "file:line: rule: message.\n");
            return 0;
        } else {
            std::fprintf(stderr, "constable-lint: unknown argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    return runLint(root);
}
