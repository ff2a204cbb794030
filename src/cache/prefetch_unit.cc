#include "cache/prefetch_unit.hh"

#include "util/string_utils.hh"

namespace specfetch {

std::string
toString(PrefetchKind kind)
{
    switch (kind) {
      case PrefetchKind::None: return "none";
      case PrefetchKind::NextLine: return "next-line";
      case PrefetchKind::Target: return "target";
      case PrefetchKind::Combined: return "combined";
      case PrefetchKind::Stream: return "stream";
    }
    return "?";
}

bool
parsePrefetchKind(const std::string &text, PrefetchKind &out)
{
    std::string t = toLower(trim(text));
    if (t == "nextline")
        t = "next-line";
    for (PrefetchKind kind :
         {PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Target,
          PrefetchKind::Combined, PrefetchKind::Stream}) {
        if (t == toString(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace specfetch
