/**
 * @file
 * FaultInjector contract tests: spec parsing (including every
 * malformed shape), firing semantics as a pure function of
 * (kind, index, attempt), and determinism of the seeded flaky mode.
 */

#include <gtest/gtest.h>

#include "fault/injector.hh"

using namespace specfetch;

TEST(FaultInjectorParse, EmptySpecNeverFires)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("", injector));
    EXPECT_TRUE(injector.empty());
    EXPECT_FALSE(injector.fires(FaultKind::Throw, 0));
}

TEST(FaultInjectorParse, SingleDirective)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@5", injector));
    EXPECT_FALSE(injector.empty());
    EXPECT_TRUE(injector.fires(FaultKind::Throw, 5, 1));
    EXPECT_FALSE(injector.fires(FaultKind::Throw, 5, 2));
    EXPECT_FALSE(injector.fires(FaultKind::Throw, 4, 1));
    EXPECT_FALSE(injector.fires(FaultKind::Timeout, 5, 1));
}

TEST(FaultInjectorParse, AttemptBounds)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@5x3", injector));
    EXPECT_TRUE(injector.fires(FaultKind::Throw, 5, 1));
    EXPECT_TRUE(injector.fires(FaultKind::Throw, 5, 3));
    EXPECT_FALSE(injector.fires(FaultKind::Throw, 5, 4));
}

TEST(FaultInjectorParse, EveryAttempt)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@2x*", injector));
    EXPECT_TRUE(injector.fires(FaultKind::Throw, 2, 1));
    EXPECT_TRUE(injector.fires(FaultKind::Throw, 2, 1000));
}

TEST(FaultInjectorParse, AllKindsAndCommaLists)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse(
        "throw@1,timeout@2,corrupt@3,crash@4,tear@5", injector));
    EXPECT_TRUE(injector.fires(FaultKind::Throw, 1));
    EXPECT_TRUE(injector.fires(FaultKind::Timeout, 2));
    EXPECT_TRUE(injector.fires(FaultKind::CorruptSnapshot, 3));
    EXPECT_TRUE(injector.fires(FaultKind::Crash, 4));
    EXPECT_TRUE(injector.fires(FaultKind::Tear, 5));
    EXPECT_FALSE(injector.fires(FaultKind::Crash, 5));
}

TEST(FaultInjectorParse, MalformedSpecsAreNamedErrors)
{
    struct Case
    {
        const char *spec;
        const char *fragment;
    };
    const Case cases[] = {
        {"explode@1", "unknown fault kind"},
        {"throw", "missing '@"},
        {"throw@", "bad run index"},
        {"throw@x2", "bad run index"},
        {"throw@5x0", "bad attempt count"},
        {"throw@5xq", "bad attempt count"},
        {"throw@1,,timeout@2", "empty fault directive"},
        {"flaky=9", "flaky"},
        {"flaky=1/0:5", "DEN > 0"},
        {"flaky=3/2:5", "NUM <= DEN"},
    };
    for (const Case &c : cases) {
        FaultInjector injector;
        std::string error;
        EXPECT_FALSE(FaultInjector::parse(c.spec, injector, &error))
            << c.spec;
        EXPECT_NE(error.find(c.fragment), std::string::npos)
            << c.spec << " -> " << error;
    }
}

TEST(FaultInjectorParse, FiresIsPureAndRepeatable)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@3x2", injector));
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(injector.fires(FaultKind::Throw, 3, 2));
        EXPECT_FALSE(injector.fires(FaultKind::Throw, 3, 3));
    }
}

TEST(FaultInjectorFlaky, DeterministicAndSeeded)
{
    FaultInjector a, b, other;
    ASSERT_TRUE(FaultInjector::parse("flaky=1/4:99", a));
    ASSERT_TRUE(FaultInjector::parse("flaky=1/4:99", b));
    ASSERT_TRUE(FaultInjector::parse("flaky=1/4:100", other));
    EXPECT_FALSE(a.empty());

    size_t fired = 0;
    bool seeds_differ = false;
    for (uint64_t index = 0; index < 256; ++index) {
        bool hit = a.fires(FaultKind::Throw, index, 1);
        EXPECT_EQ(hit, b.fires(FaultKind::Throw, index, 1)) << index;
        // Flaky failures only ever hit the first attempt: retries heal.
        EXPECT_FALSE(a.fires(FaultKind::Throw, index, 2));
        fired += hit;
        seeds_differ |= hit != other.fires(FaultKind::Throw, index, 1);
    }
    // 1/4 rate over 256 draws: expect a broad but non-degenerate band.
    EXPECT_GT(fired, 256u / 8);
    EXPECT_LT(fired, 256u / 2);
    EXPECT_TRUE(seeds_differ) << "seed does not influence the draw";
}

TEST(FaultInjectorAppendKinds, ShortWriteAndEnospcParse)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@4,enospc@7", injector));
    EXPECT_TRUE(injector.fires(FaultKind::ShortWrite, 4));
    EXPECT_FALSE(injector.fires(FaultKind::ShortWrite, 5));
    EXPECT_TRUE(injector.fires(FaultKind::Enospc, 7));
    EXPECT_FALSE(injector.fires(FaultKind::Enospc, 4));
    EXPECT_STREQ(toString(FaultKind::ShortWrite), "shortwrite");
    EXPECT_STREQ(toString(FaultKind::Enospc), "enospc");
}

TEST(FaultInjectorAtOrdinal, ProjectsDirectivesToIndexZero)
{
    FaultInjector injector;
    ASSERT_TRUE(
        FaultInjector::parse("throw@3x2,timeout@5,crash@3", injector));

    // Ordinal 3 keeps its directives, rewritten to index 0.
    FaultInjector at3 = injector.atOrdinal(3);
    EXPECT_TRUE(at3.fires(FaultKind::Throw, 0, 1));
    EXPECT_TRUE(at3.fires(FaultKind::Throw, 0, 2));
    EXPECT_FALSE(at3.fires(FaultKind::Throw, 0, 3));
    EXPECT_TRUE(at3.fires(FaultKind::Crash, 0));
    EXPECT_FALSE(at3.fires(FaultKind::Timeout, 0));

    // Other ordinals see only what aims at them.
    FaultInjector at5 = injector.atOrdinal(5);
    EXPECT_TRUE(at5.fires(FaultKind::Timeout, 0));
    EXPECT_FALSE(at5.fires(FaultKind::Throw, 0));
    EXPECT_TRUE(injector.atOrdinal(0).empty());
}

TEST(FaultInjectorAtOrdinal, FlakyDrawBecomesExplicitThrow)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("flaky=1/4:99", injector));
    size_t fired = 0;
    for (uint64_t ordinal = 0; ordinal < 256; ++ordinal) {
        FaultInjector local = injector.atOrdinal(ordinal);
        bool localFires = local.fires(FaultKind::Throw, 0, 1);
        // The projection agrees with the global draw exactly.
        EXPECT_EQ(localFires,
                  injector.fires(FaultKind::Throw, ordinal, 1));
        // ...and fires as a plain first-attempt throw directive.
        EXPECT_FALSE(local.fires(FaultKind::Throw, 0, 2));
        fired += localFires;
    }
    EXPECT_GT(fired, 256u / 8);
    EXPECT_LT(fired, 256u / 2);
}
