/**
 * @file
 * The shared bench command line and report (harness/bench_report.hh):
 * strict flag parsing, gates, the JSON writer and the path reader.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_report.hh"

using namespace bms;
using harness::Flags;
using harness::Gate;
using harness::JsonWriter;

namespace {

/** Flags with one of each kind, parsing @p args after a program name. */
struct Cli
{
    bool quick = false;
    bool faults = true;
    double floor = 0.5;
    int moves = -1;
    std::string json = "default.json";
    Flags flags{"bench"};

    Cli()
    {
        flags.flag("--quick", quick)
            .flag("--no-faults", faults, false)
            .number("--floor", floor)
            .integer("--moves-floor", moves)
            .text("--json", json);
    }

    std::string
    parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "bench");
        return flags.tryParse(static_cast<int>(args.size()), args.data());
    }
};

} // namespace

TEST(BenchFlags, AcceptsRegisteredFlagsAndKeepsDefaults)
{
    Cli none;
    EXPECT_EQ(none.parse({}), "");
    EXPECT_FALSE(none.quick);
    EXPECT_TRUE(none.faults);
    EXPECT_EQ(none.floor, 0.5);
    EXPECT_EQ(none.moves, -1);
    EXPECT_EQ(none.json, "default.json");

    Cli all;
    EXPECT_EQ(all.parse({"--quick", "--no-faults", "--floor=0.75",
                         "--moves-floor=0x10", "--json=out/a=b.json",
                         "--paranoid", "--log=debug",
                         "--floor=1e-3"}),
              "");
    EXPECT_TRUE(all.quick);
    EXPECT_FALSE(all.faults);
    EXPECT_EQ(all.floor, 1e-3); // the last repeat wins
    EXPECT_EQ(all.moves, 16);
    EXPECT_EQ(all.json, "out/a=b.json");
}

TEST(BenchFlags, RejectsAnythingItDoesNotFullyParse)
{
    const std::vector<std::vector<const char *>> bad = {
        {"--no-such-flag"},
        {"--paranoidX"},
        {"--quickly"},
        {"positional"},
        {"--quick=1"},
        {"--floor"},
        {"--floor="},
        {"--floor=abc"},
        {"--floor=0.5x"},
        {"--floor= 0.5"},
        {"--floor=inf"},
        {"--floor=nan"},
        {"--floor=1e999"},
        {"--moves-floor=abc"},
        {"--moves-floor=-1"},
        {"--moves-floor=+3"},
        {"--moves-floor=2.5"},
        {"--moves-floor=4294967296"},
        {"--log=bogus"},
        {"--log="},
        {"--quick", "--lane-audit-out"},
    };
    for (const auto &args : bad) {
        Cli cli;
        EXPECT_NE(cli.parse(args), "") << args.back();
    }
    Cli cli;
    EXPECT_EQ(cli.parse({"--moves-floor=abc"}),
              "bad value in '--moves-floor=abc'");
    EXPECT_EQ(cli.parse({"--paranoidX"}), "unknown flag '--paranoidX'");
}

TEST(BenchFlags, ParseUnsignedIsStrict)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(Flags::parseUnsigned("18446744073709551615", v));
    EXPECT_EQ(v, ~0ULL);
    EXPECT_TRUE(Flags::parseUnsigned("0x2a", v));
    EXPECT_EQ(v, 42u);
    for (const char *s : {"", "-1", "+1", " 1", "1 ", "1:2", "junk",
                          "18446744073709551616"})
        EXPECT_FALSE(Flags::parseUnsigned(s, v)) << "'" << s << "'";
}

TEST(BenchFlagsDeathTest, ParseExitsTwoWithUsage)
{
    bool quick = false;
    Flags flags("bench");
    flags.flag("--quick", quick);
    const char *argv[] = {"bench", "--quick", "--no-such-flag", nullptr};
    EXPECT_EXIT(flags.parse(3, const_cast<char **>(argv)),
                testing::ExitedWithCode(2),
                "bench: unknown flag '--no-such-flag'\nusage: bench "
                "\\[--paranoid\\] \\[--log=LEVEL\\] "
                "\\[--lane-audit-out=PATH\\] \\[--quick\\]");
}

TEST(BenchGates, FloorsLimitsAndTheVerdict)
{
    EXPECT_TRUE(Gate::floor("f", 2.0, 2.0, 1).pass());
    EXPECT_FALSE(Gate::floor("f", 1.9, 2.0, 1).pass());
    EXPECT_TRUE(Gate::limit("l", 0.0, 0.0, 0).pass());
    EXPECT_FALSE(Gate::limit("l", 1.0, 0.0, 0).pass());

    testing::internal::CaptureStdout();
    EXPECT_EQ(harness::gateVerdict("b", {Gate::floor("f", 3, 2, 1)}), 0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "b: all gates passed\n");

    testing::internal::CaptureStderr();
    EXPECT_EQ(harness::gateVerdict("b", {Gate::floor("moves", 1, 2, 0),
                                         Gate::limit("p99", 1.5, 2.0, 3),
                                         Gate::limit("errors", 3, 0, 0)}),
              1);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "b: GATE FAILURE (moves 1 below floor 2, errors 3 above "
              "limit 0)\n");
}

TEST(BenchJson, WriterLayout)
{
    JsonWriter w;
    w.field("bench", "ext_x")
        .field("n", -3)
        .number("r", 2.0 / 3.0, 3)
        .number("bad", NAN, 1)
        .object("empty")
        .end()
        .array("points")
        .object()
        .field("ok", true)
        .end()
        .end();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"bench\": \"ext_x\",\n"
                       "  \"n\": -3,\n"
                       "  \"r\": 0.667,\n"
                       "  \"bad\": null,\n"
                       "  \"empty\": {},\n"
                       "  \"points\": [\n"
                       "    {\n"
                       "      \"ok\": true\n"
                       "    }\n"
                       "  ]\n"
                       "}\n");
}

TEST(BenchJson, FailedWriteFailsTheRunEvenWhenGatesPass)
{
    JsonWriter w;
    w.field("bench", "b");
    EXPECT_FALSE(w.save("/nonexistent-dir/sub/BENCH.json"));

    testing::internal::CaptureStderr();
    testing::internal::CaptureStdout();
    int rc = harness::finishReport("b", w, {Gate::floor("f", 3, 2, 1)},
                                   "/nonexistent-dir/sub/BENCH.json",
                                   "trajectory");
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.find("b: cannot write /nonexistent-dir/sub/BENCH.json"),
              std::string::npos);
    EXPECT_EQ(out.find("written to"), std::string::npos);
}

TEST(BenchJson, ReaderFindsEachPathWhenAKeyRepeatsAtTwoDepths)
{
    // The shape of BENCH_fleet.json: eventsPerSec is both a top-level
    // measurement and a gate name.
    JsonWriter w;
    w.field("cards", 8)
        .object("wave")
        .number("makespanMs", 8470.5, 1)
        .number("ioPauseMsMax", 12.25, 2)
        .end()
        .number("eventsPerSec", 1234.5, 1)
        .array("points")
        .object()
        .number("iops", 10, 0)
        .end()
        .object()
        .number("iops", 20, 0)
        .end()
        .end();
    std::vector<Gate> gates = {Gate::floor("eventsPerSec", 999.0, 1.0, 1)};
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    std::string path = testing::TempDir() + "bench_report_fleet.json";
    int rc = harness::finishReport("b", w, gates, path, "json");
    testing::internal::GetCapturedStdout();
    testing::internal::GetCapturedStderr();
    ASSERT_EQ(rc, 0);

    harness::JsonNumbers doc;
    ASSERT_EQ(harness::readJson(path, doc), "");
    EXPECT_EQ(doc.at("cards"), 8.0);
    EXPECT_EQ(doc.at("wave.makespanMs"), 8470.5);
    EXPECT_EQ(doc.at("wave.ioPauseMsMax"), 12.25);
    EXPECT_EQ(doc.at("eventsPerSec"), 1234.5);
    EXPECT_EQ(doc.at("gates.eventsPerSec.value"), 999.0);
    EXPECT_EQ(doc.at("gates.eventsPerSec.floor"), 1.0);
    EXPECT_EQ(doc.at("points.1.iops"), 20.0);
    EXPECT_EQ(doc.count("makespanMs"), 0u);
    EXPECT_EQ(doc.count("wave"), 0u);
    EXPECT_EQ(doc.count("pass"), 0u);
    EXPECT_EQ(harness::readJson(path + ".missing", doc),
              "cannot read " + path + ".missing");
    std::remove(path.c_str());
}

TEST(BenchJson, ReaderRejectsTruncatedAndMalformedInputNamingTheOffset)
{
    const std::string full =
        "{\"a\": [1, -2.5e3, {\"b\": \"x\\\"y\"}], \"c\": true, "
        "\"d\": null}";
    harness::JsonNumbers doc;
    ASSERT_EQ(harness::parseJson(full, doc), "");
    EXPECT_EQ(doc.at("a.1"), -2500.0);
    for (std::size_t n = 0; n < full.size(); ++n) {
        std::string err = harness::parseJson(full.substr(0, n), doc);
        EXPECT_NE(err.find("at offset"), std::string::npos)
            << "prefix of " << n << " bytes: '" << err << "'";
        EXPECT_EQ(doc.count("a.0"), 0u);
    }
    EXPECT_EQ(harness::parseJson("{\"a\": 1", doc),
              "unexpected end at offset 7");
    EXPECT_EQ(harness::parseJson("{\"a\": x}", doc),
              "unexpected character at offset 6");
    for (const char *bad :
         {"{\"a\": 01}", "{\"a\": 1,}", "{\"a\" 1}", "{} x", "[1 2]",
          "{\"a\": .5}", "{\"a\": 1.}", "{\"a\": tru}", "{'a': 1}",
          "{\"a\": \"x\ny\"}", "{\"a\": 1}\v"})
        EXPECT_NE(harness::parseJson(bad, doc), "") << bad;
    EXPECT_NE(harness::parseJson(
                  std::string(200, '[') + std::string(200, ']'), doc),
              "");
    EXPECT_NE(harness::parseJson(std::string("{}\0", 3), doc), "");
}
