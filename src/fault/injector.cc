#include "fault/injector.hh"

#include "util/checksum.hh"
#include "util/string_utils.hh"

namespace specfetch {

namespace {

bool
kindFromName(const std::string &name, FaultKind &out)
{
    if (name == "throw") {
        out = FaultKind::Throw;
    } else if (name == "timeout") {
        out = FaultKind::Timeout;
    } else if (name == "corrupt") {
        out = FaultKind::CorruptSnapshot;
    } else if (name == "crash") {
        out = FaultKind::Crash;
    } else if (name == "tear") {
        out = FaultKind::Tear;
    } else if (name == "shortwrite") {
        out = FaultKind::ShortWrite;
    } else if (name == "enospc") {
        out = FaultKind::Enospc;
    } else {
        return false;
    }
    return true;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Throw:           return "throw";
      case FaultKind::Timeout:         return "timeout";
      case FaultKind::CorruptSnapshot: return "corrupt";
      case FaultKind::Crash:           return "crash";
      case FaultKind::Tear:            return "tear";
      case FaultKind::ShortWrite:      return "shortwrite";
      case FaultKind::Enospc:          return "enospc";
    }
    return "?";
}

bool
FaultInjector::parse(const std::string &spec, FaultInjector &out,
                     std::string *error)
{
    out = FaultInjector{};
    if (spec.empty())
        return true;

    for (const std::string &raw : split(spec, ',')) {
        if (raw.empty())
            return fail(error, "empty fault directive");

        // flaky=NUM/DEN:SEED — the seeded pseudo-random mode.
        if (raw.rfind("flaky=", 0) == 0) {
            std::string body = raw.substr(6);
            size_t slash = body.find('/');
            size_t colon = body.find(':');
            if (slash == std::string::npos || colon == std::string::npos ||
                colon < slash) {
                return fail(error, "bad flaky directive '" + raw +
                                       "' (want flaky=NUM/DEN:SEED)");
            }
            uint64_t num, den, seed;
            if (!parseCount(body.substr(0, slash), num) ||
                !parseCount(body.substr(slash + 1, colon - slash - 1),
                            den) ||
                !parseCount(body.substr(colon + 1), seed) || den == 0 ||
                num > den) {
                return fail(error, "bad flaky directive '" + raw +
                                       "' (want NUM <= DEN, DEN > 0)");
            }
            out.flakyNum = num;
            out.flakyDen = den;
            out.flakySeed = seed;
            continue;
        }

        size_t at = raw.find('@');
        if (at == std::string::npos) {
            return fail(error, "fault directive '" + raw +
                                   "' is missing '@<run index>'");
        }
        Directive directive;
        if (!kindFromName(raw.substr(0, at), directive.kind)) {
            return fail(error, "unknown fault kind in '" + raw + "'");
        }

        std::string where = raw.substr(at + 1);
        size_t x = where.find('x');
        if (x != std::string::npos) {
            std::string reps = where.substr(x + 1);
            where = where.substr(0, x);
            if (reps == "*") {
                directive.maxAttempt = kEveryAttempt;
            } else {
                uint64_t count;
                if (!parseCount(reps, count) || count == 0 ||
                    count >= kEveryAttempt) {
                    return fail(error, "bad attempt count in '" + raw +
                                           "'");
                }
                directive.maxAttempt = static_cast<uint32_t>(count);
            }
        }
        if (!parseCount(where, directive.index)) {
            return fail(error, "bad run index in '" + raw + "'");
        }
        out.directives.push_back(directive);
    }
    return true;
}

bool
FaultInjector::fires(FaultKind kind, uint64_t index, uint32_t attempt) const
{
    for (const Directive &directive : directives) {
        if (directive.kind == kind && directive.index == index &&
            attempt <= directive.maxAttempt) {
            return true;
        }
    }
    if (kind == FaultKind::Throw && flakyDen != 0 && attempt == 1) {
        // Seeded per-run coin flip; independent of directive list.
        uint64_t draw = hash64(&index, sizeof(index), flakySeed);
        return draw % flakyDen < flakyNum;
    }
    return false;
}

FaultInjector
FaultInjector::atOrdinal(uint64_t ordinal) const
{
    FaultInjector out;
    for (const Directive &directive : directives) {
        if (directive.index != ordinal)
            continue;
        Directive local = directive;
        local.index = 0;
        out.directives.push_back(local);
    }
    if (flakyDen != 0) {
        // Resolve the flaky draw for this ordinal now; the projection
        // has a fixed local index, so the draw can't be replayed there.
        uint64_t draw = hash64(&ordinal, sizeof(ordinal), flakySeed);
        if (draw % flakyDen < flakyNum)
            out.directives.push_back(Directive{FaultKind::Throw, 0, 1});
    }
    return out;
}

} // namespace specfetch
