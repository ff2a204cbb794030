#include "branch/pht.hh"

#include "util/bit_ops.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

std::string
toString(PhtIndexing indexing)
{
    switch (indexing) {
      case PhtIndexing::Gshare:     return "gshare";
      case PhtIndexing::GlobalOnly: return "global";
      case PhtIndexing::PcOnly:     return "pc";
      case PhtIndexing::Local:      return "local";
      case PhtIndexing::Combining:  return "combining";
    }
    return "unknown";
}

bool
parsePhtIndexing(const std::string &text, PhtIndexing &out)
{
    std::string t = toLower(trim(text));
    for (PhtIndexing indexing :
         {PhtIndexing::Gshare, PhtIndexing::GlobalOnly, PhtIndexing::PcOnly,
          PhtIndexing::Local, PhtIndexing::Combining}) {
        if (t == toString(indexing)) {
            out = indexing;
            return true;
        }
    }
    return false;
}

Pht::Pht(unsigned _entries, unsigned counter_bits, PhtIndexing _indexing,
         unsigned local_entries)
    : entries(_entries), historyBits(log2Floor(_entries)),
      indexing(_indexing), counters(_entries, SatCounter(counter_bits))
{
    fatal_if(!isPowerOfTwo(entries), "PHT entries must be a power of two");
    if (indexing == PhtIndexing::Local) {
        fatal_if(!isPowerOfTwo(local_entries),
                 "local history table entries must be a power of two");
        localHistories.assign(local_entries, 0);
        localIndexBits = log2Floor(local_entries);
    }
    if (indexing == PhtIndexing::Combining) {
        bimodal.assign(entries, SatCounter(counter_bits));
        // Chooser starts neutral-to-gshare (weakly selecting the
        // global component, McFarling's initialization).
        chooser.assign(entries, SatCounter(2, 2));
    }
}

} // namespace specfetch
