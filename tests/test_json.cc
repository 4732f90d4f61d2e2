/**
 * @file
 * Unit tests for the JSON writer and the harness report emitters.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "api/experiment.hh"
#include "common/json.hh"

namespace
{

using lsim::JsonWriter;

TEST(Json, ObjectWithFields)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("name", "alu0");
    w.field("ipc", 1.5);
    w.field("cycles", std::uint64_t{42});
    w.field("enabled", true);
    w.endObject();
    EXPECT_TRUE(w.balanced());
    EXPECT_EQ(os.str(),
              "{\"name\":\"alu0\",\"ipc\":1.5,\"cycles\":42,"
              "\"enabled\":true}");
}

TEST(Json, NestedStructures)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.beginArray("units");
    w.value(0.5);
    w.value(std::uint64_t{7});
    w.beginObject();
    w.field("x", 1.0);
    w.endObject();
    w.endArray();
    w.beginObject("inner");
    w.endObject();
    w.endObject();
    EXPECT_TRUE(w.balanced());
    EXPECT_EQ(os.str(),
              "{\"units\":[0.5,7,{\"x\":1}],\"inner\":{}}");
}

TEST(Json, EscapesSpecialCharacters)
{
    // Every escape class, then bytes that pass through unchanged:
    // DEL and a UTF-8 multibyte sequence (U+00E9).
    const std::string raw = "a\"b\\c\nd\te\rf\x01g\x1fh\x7fi\xc3\xa9j";
    const std::string escaped =
        "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\x7fi\xc3\xa9j\"";
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.field(raw, raw);
    w.beginArray("v");
    w.value(raw);
    w.endArray();
    w.endObject();
    EXPECT_EQ(out, "{" + escaped + ":" + escaped + ",\"v\":[" +
                       escaped + "]}");
    EXPECT_EQ(lsim::parseJson(out).at(raw).asString(), raw);
}

TEST(Json, StreamAdapterWritesAtRootClose)
{
    const auto document = [](JsonWriter &w) {
        w.beginObject();
        w.field("name", "gcc");
        w.beginArray("points");
        w.beginObject();
        w.field("p", 0.05);
        w.field("cycles", std::uint64_t{120});
        w.endObject();
        w.value(-0.0);
        w.endArray();
        w.field("ok", false);
        w.endObject();
    };
    std::string text;
    JsonWriter to_string(text);
    document(to_string);

    EXPECT_EQ(text, "{\"name\":\"gcc\",\"points\":[{\"p\":0.05,"
                    "\"cycles\":120},-0],\"ok\":false}");

    // What the caller writes after the close lands after the
    // document.
    std::ostringstream os;
    JsonWriter to_stream(os);
    document(to_stream);
    os << "\n";
    EXPECT_EQ(os.str(), text + "\n");

    // Nothing reaches the stream while the root is open.
    std::ostringstream open_os;
    JsonWriter open_root(open_os);
    open_root.beginObject();
    open_root.beginArray("a");
    open_root.endArray();
    EXPECT_EQ(open_os.str(), "");
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_EQ(os.str(), "{\"inf\":null}");
}

TEST(JsonDeath, UnbalancedEnd)
{
    std::ostringstream os;
    JsonWriter w(os);
    EXPECT_DEATH(w.endObject(), "no open scope");
}

TEST(JsonReport, ExperimentRecordIsWellFormedish)
{
    // Build a tiny experiment and check the emitted JSON contains
    // the expected keys and balanced braces (no JSON parser
    // dependency offline, so check structure textually).
    lsim::harness::IdleProfile ip;
    ip.addRun(true, 100);
    ip.addRun(false, 20);
    lsim::api::RunResult result;
    result.policies = lsim::api::evaluateProfile(ip, result.technology);

    lsim::harness::WorkloadSim &ws = result.sim;
    ws.name = "synthetic";
    ws.num_fus = 1;
    ws.idle = ip;
    ws.sim.cycles = 120;
    ws.sim.committed = 300;
    ws.sim.ipc = 2.5;
    ws.sim.fu_utilization = {0.8};

    const std::string out = result.toJson();

    for (const char *key :
         {"\"technology\"", "\"simulation\"", "\"policies\"",
          "\"MaxSleep\"", "\"GradualSleep\"", "\"AlwaysActive\"",
          "\"NoOverhead\"", "\"idle_histogram\"", "\"breakdown\""})
        EXPECT_NE(out.find(key), std::string::npos) << key;

    int depth = 0;
    bool in_string = false;
    char prev = 0;
    for (char ch : out) {
        if (ch == '"' && prev != '\\')
            in_string = !in_string;
        if (!in_string) {
            if (ch == '{' || ch == '[')
                ++depth;
            if (ch == '}' || ch == ']')
                --depth;
        }
        prev = ch;
    }
    EXPECT_EQ(depth, 0);
}

// ------------------------------------------------------------ parser

TEST(JsonParse, ScalarsAndContainers)
{
    const auto v = lsim::parseJson(R"({
        "name": "alu0", "ipc": 1.5, "cycles": 42,
        "enabled": true, "nothing": null,
        "units": [0.5, 0.25], "nested": {"deep": [1]}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("name").asString(), "alu0");
    EXPECT_DOUBLE_EQ(v.at("ipc").asNumber(), 1.5);
    EXPECT_EQ(v.at("cycles").asU64(), 42u);
    EXPECT_TRUE(v.at("enabled").asBool());
    EXPECT_TRUE(v.at("nothing").isNull());
    ASSERT_EQ(v.at("units").items().size(), 2u);
    EXPECT_DOUBLE_EQ(v.at("units").items()[1].asNumber(), 0.25);
    EXPECT_EQ(
        v.at("nested").at("deep").items()[0].asU64(), 1u);
    EXPECT_EQ(v.find("absent"), nullptr);
    EXPECT_THROW(v.at("absent"), std::invalid_argument);
}

TEST(JsonParse, StringEscapes)
{
    const auto v = lsim::parseJson(
        R"(["a\"b", "tab\there", "line\nbreak", "\u0041\u00e9"])");
    const auto &items = v.items();
    EXPECT_EQ(items[0].asString(), "a\"b");
    EXPECT_EQ(items[1].asString(), "tab\there");
    EXPECT_EQ(items[2].asString(), "line\nbreak");
    EXPECT_EQ(items[3].asString(), "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairsDecodeToOneCodePoint)
{
    // U+1F600 as its \ud83d\ude00 pair -> one 4-byte UTF-8
    // sequence, and the first supplementary code point U+10000 at
    // the pair-arithmetic boundary.
    const auto v = lsim::parseJson(
        R"(["\ud83d\ude00", "\ud800\udc00", "x\ud83d\ude00y"])");
    EXPECT_EQ(v.items()[0].asString(), "\xf0\x9f\x98\x80");
    EXPECT_EQ(v.items()[1].asString(), "\xf0\x90\x80\x80");
    EXPECT_EQ(v.items()[2].asString(), "x\xf0\x9f\x98\x80y");
}

TEST(JsonParse, LoneSurrogatesAreRejected)
{
    // Passing any of these through as raw code units would emit
    // invalid UTF-8 that poisons every downstream result file.
    for (const char *bad :
         {R"("\ud800")",          // lone high at end of string
          R"("\ud800x")",         // high followed by a plain char
          R"("\ud800\n")",        // high followed by another escape
          R"("\ud800\u0041")",   // high followed by a non-low \u
          R"("\ud800\ud800")",    // high followed by another high
          R"("\udc00")",          // lone low
          R"("\ude00\ud83d")"})   // pair in the wrong order
    {
        try {
            (void)lsim::parseJson(bad);
            FAIL() << "accepted: " << bad;
        } catch (const std::invalid_argument &err) {
            EXPECT_NE(
                std::string(err.what()).find("surrogate"),
                std::string::npos)
                << err.what();
        }
    }
}

TEST(JsonParse, RoundTripsTheWriter)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("benchmark", "gcc \"quoted\"\n");
    w.field("ipc", 1.619);
    w.field("cycles", std::uint64_t{123456789});
    w.beginArray("values");
    w.value(0.5);
    w.value(std::uint64_t{7});
    w.endArray();
    w.endObject();

    const auto v = lsim::parseJson(os.str());
    EXPECT_EQ(v.at("benchmark").asString(), "gcc \"quoted\"\n");
    EXPECT_DOUBLE_EQ(v.at("ipc").asNumber(), 1.619);
    EXPECT_EQ(v.at("cycles").asU64(), 123456789u);
    EXPECT_EQ(v.at("values").items()[1].asU64(), 7u);
}

TEST(JsonParse, KindMismatchThrows)
{
    const auto v = lsim::parseJson(R"({"a": 1})");
    EXPECT_THROW(v.asNumber(), std::invalid_argument);
    EXPECT_THROW(v.at("a").asString(), std::invalid_argument);
    EXPECT_THROW(v.at("a").items(), std::invalid_argument);
    EXPECT_THROW(
        lsim::parseJson(R"(-1.5)").asU64(),
        std::invalid_argument);
    EXPECT_THROW(
        lsim::parseJson(R"(1.5)").asU64(),
        std::invalid_argument);
    // Exactly 2^64: casting it would be undefined, so it must be
    // rejected, not wrapped.
    EXPECT_THROW(
        lsim::parseJson("18446744073709551616").asU64(),
        std::invalid_argument);
}

TEST(JsonParse, MalformedDocumentsThrowWithPosition)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\" 1}", "{\"a\":}", "tru",
          "\"unterminated", "[1] trailing", "{\"a\":1,}",
          "01a", "nan", "\"\\q\""}) {
        try {
            (void)lsim::parseJson(bad);
            FAIL() << "accepted: '" << bad << "'";
        } catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "JSON parse error at"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(JsonParse, DeepNestingIsBounded)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW((void)lsim::parseJson(deep),
                 std::invalid_argument);
}

} // namespace
