/**
 * @file
 * Seeded mutation fuzzing of the sweep service's front door: the JSON
 * parser, request validation and the strict manifest reader behind
 * parseServiceRequest (DESIGN.md §15.2). gcc-only, no fuzzing engine:
 * a fixed seed range replays the same mutants on every run.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "report/armed_configs.hh"
#include "report/record.hh"
#include "serve/request.hh"
#include "util/random.hh"

using namespace specfetch;

namespace {

/** Offset just past the JSON string that opens at @p at. */
size_t
skipString(const std::string &text, size_t at)
{
    for (++at; at < text.size(); ++at) {
        if (text[at] == '\\')
            ++at;
        else if (text[at] == '"')
            return at + 1;
    }
    return text.size();
}

/** Offsets of the strings that open an object member ("key":value);
 *  tolerant of text earlier mutations broke. */
std::vector<size_t>
memberStarts(const std::string &text)
{
    std::vector<size_t> starts;
    char last = 0; // the last significant character outside strings
    for (size_t at = 0; at < text.size();) {
        if (text[at] == '"') {
            if (last == '{' || last == ',')
                starts.push_back(at);
            at = skipString(text, at);
            last = '"';
            continue;
        }
        if (!std::isspace(static_cast<unsigned char>(text[at])))
            last = text[at];
        ++at;
    }
    return starts;
}

/** Offset of the ',' or unmatched closer that ends the value at @p at. */
size_t
valueEnd(const std::string &text, size_t at)
{
    int depth = 0;
    while (at < text.size()) {
        char c = text[at];
        if (c == '"') {
            at = skipString(text, at);
            continue;
        }
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth-- == 0)
                return at;
        } else if (c == ',' && depth == 0) {
            return at;
        }
        ++at;
    }
    return text.size();
}

/**
 * One mutation of a request line: a byte flip, a truncation, a
 * duplicated member, a value of another JSON kind, an integer at or
 * past 2^32 or 2^64, or a value wrapped in injected nesting (up to
 * far past the parser's limit).
 */
void
mutate(std::string &line, Rng &rng)
{
    if (line.empty())
        return;
    const uint64_t kind = rng.nextBelow(6);
    if (kind == 0) {
        size_t at = rng.nextBelow(line.size());
        line[at] = static_cast<char>(line[at] ^ (1 << rng.nextBelow(8)));
        return;
    }
    if (kind == 1) {
        line.resize(rng.nextBelow(line.size()));
        return;
    }
    std::vector<size_t> starts = memberStarts(line);
    if (starts.empty())
        return;
    size_t start = starts[rng.nextBelow(starts.size())];
    size_t colon = line.find(':', skipString(line, start));
    if (colon == std::string::npos)
        return;
    size_t value = colon + 1;
    size_t end = valueEnd(line, value);
    if (kind == 2) {
        line.insert(start, line.substr(start, end - start) + ",");
    } else if (kind == 3) {
        const char *kinds[] = {"\"x\"", "true", "null", "[]", "{}", "1.5",
                               "-1", "0", "\"next-line\"", "\"GShare\""};
        line.replace(value, end - value, kinds[rng.nextBelow(10)]);
    } else if (kind == 4) {
        const char *wide[] = {"4294967295", "4294967296",
                              "18446744073709551615", "18446744073709551616"};
        line.replace(value, end - value, wide[rng.nextBelow(4)]);
    } else {
        const size_t depths[] = {1, 2, 64, JsonValue::kMaxNesting - 4,
                                 JsonValue::kMaxNesting + 1, 100'000};
        size_t depth = depths[rng.nextBelow(6)];
        line.insert(end, depth, ']');
        line.insert(value, depth, '[');
    }
}

} // namespace

/**
 * Every mutant of a valid request either gets a typed error with a
 * message or parses, and a parsed request's manifest re-parses to the
 * same run key: no crash, no hang, nothing for the sanitizers.
 */
TEST(ServiceRequestFuzz, SeededMutationsAreRefusedOrParsed)
{
    std::vector<std::string> clean;
    for (const SimConfig &config : test::armedConfigs()) {
        clean.push_back("{\"id\":1,\"benchmark\":\"gcc\",\"config\":" +
                        toJson(config).dump() + "}");
    }

    uint64_t refused = 0, parsed = 0;
    for (uint64_t seed = 1; seed <= 2'000; ++seed) {
        Rng rng(seed);
        std::string line = clean[rng.nextBelow(clean.size())];
        for (uint64_t n = 1 + rng.nextBelow(4); n > 0; --n)
            mutate(line, rng);

        ServiceRequest request;
        ServiceError error;
        if (!parseServiceRequest(line, request, error)) {
            EXPECT_TRUE(error.type == ServiceErrorType::MalformedJson ||
                        error.type == ServiceErrorType::BadRequest)
                << "seed " << seed;
            EXPECT_FALSE(error.message.empty()) << "seed " << seed;
            ++refused;
            continue;
        }
        ++parsed;
        if (request.statsOp)
            continue;
        JsonValue manifest;
        ASSERT_TRUE(JsonValue::parse(toJson(request.config).dump(), manifest))
            << "seed " << seed;
        SimConfig again;
        std::string why;
        ASSERT_TRUE(configFromJson(manifest, again, &why))
            << "seed " << seed << ": " << why;
        EXPECT_EQ(sweepRunKey({request.benchmark, again}), request.key)
            << "seed " << seed << ": " << line;
    }
    // Both outcomes must occur, or the mutations test nothing.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(parsed, 0u);
}
