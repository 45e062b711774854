/**
 * @file
 * Tests for the constable-lint static checker: each rule must fire on its
 * checked-in failing fixture (tests/lint_fixtures/fail_<rule>/), the
 * all-escapes fixture must lint clean, and the real source tree must be
 * clean too (the same gate the dedicated `constable_lint_tree` ctest entry
 * and the CI lint job enforce — kept here as well so a plain test binary
 * run catches regressions).
 *
 * LINT_BINARY and REPO_ROOT are injected by tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct LintRun
{
    int exitCode = -1;
    std::string output;
};

LintRun
runLint(const std::string& root)
{
    std::string cmd =
        std::string(LINT_BINARY) + " --root=" + root + " 2>&1";
    LintRun r;
    std::FILE* p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    size_t got;
    while ((got = fread(buf, 1, sizeof(buf), p)) > 0)
        r.output.append(buf, got);
    int status = pclose(p);
    if (WIFEXITED(status))
        r.exitCode = WEXITSTATUS(status);
    return r;
}

std::string
fixture(const std::string& name)
{
    return std::string(REPO_ROOT) + "/tests/lint_fixtures/" + name;
}

/** The fixture must fail with >= 1 diagnostic of exactly `rule`, in the
 *  file:line: rule: message format. */
void
expectRuleFires(const std::string& fixtureName, const std::string& rule)
{
    LintRun r = runLint(fixture(fixtureName));
    EXPECT_EQ(r.exitCode, 1) << fixtureName << " output:\n" << r.output;
    EXPECT_NE(r.output.find(": " + rule + ": "), std::string::npos)
        << fixtureName << " did not report rule '" << rule
        << "'; output:\n" << r.output;
}

TEST(Lint, CleanFixturePasses)
{
    LintRun r = runLint(fixture("clean"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(Lint, RawParseFires)
{
    expectRuleFires("fail_raw_parse", "raw-parse");
}

TEST(Lint, DeterminismFires)
{
    expectRuleFires("fail_determinism", "determinism");
}

TEST(Lint, UnorderedIterFires)
{
    expectRuleFires("fail_unordered", "unordered-iter");
}

TEST(Lint, LayeringFires)
{
    expectRuleFires("fail_layering", "layering");
}

TEST(Lint, LayeringSampleNodeFires)
{
    // sim/sample.{hh,cc} is its own DAG node below the rest of sim/:
    // including sim/experiment.hh from it must trip layering.
    expectRuleFires("fail_layering_sample", "layering");
}

TEST(Lint, EnvDocFires)
{
    expectRuleFires("fail_env_doc", "env-doc");
}

TEST(Lint, RawIoFires)
{
    expectRuleFires("fail_raw_io", "raw-io");
}

TEST(Lint, RawIoCommonFires)
{
    // src/common is in scope too: only common/faultio.cc (exercised by
    // the clean fixture) may open files directly.
    expectRuleFires("fail_raw_io_common", "raw-io");
}

TEST(Lint, RawIoBenchFires)
{
    expectRuleFires("fail_raw_io_bench", "raw-io");
}

TEST(Lint, RawParseFloatFires)
{
    expectRuleFires("fail_raw_parse_float", "raw-parse");
}

TEST(Lint, RawLogFires)
{
    expectRuleFires("fail_raw_log", "raw-log");
}

TEST(Lint, DiagnosticFormat)
{
    // file:line: rule: message — machine-parseable, clickable in editors.
    LintRun r = runLint(fixture("fail_raw_parse"));
    EXPECT_NE(r.output.find("src/trace/parse.cc:7: raw-parse: "),
              std::string::npos)
        << r.output;
}

TEST(Lint, RealTreeIsClean)
{
    LintRun r = runLint(REPO_ROOT);
    EXPECT_EQ(r.exitCode, 0)
        << "the source tree has lint violations:\n" << r.output;
}

TEST(Lint, UnknownArgumentRejected)
{
    std::string cmd = std::string(LINT_BINARY) + " --bogus 2>&1";
    std::FILE* p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[256];
    while (fread(buf, 1, sizeof(buf), p) > 0) {
    }
    int status = pclose(p);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
}

} // namespace
