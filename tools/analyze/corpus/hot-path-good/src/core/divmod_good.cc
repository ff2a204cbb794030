#include "hot.hh"

namespace specfetch {

constexpr unsigned long kInstBytes = 4;
constexpr unsigned long LINE_BYTES = 32;

// The shapes the batched kernel is allowed to keep: divides by named
// compile-time constants (strength-reduced to shifts), sizeof, a
// division hoisted out of the loop, and a waived per-iteration
// divide with a stated reason.
unsigned long walk(const unsigned long* lines, int n,
                   unsigned long sets) {
    unsigned long inv = 1000 / sets;    // hoisted: loop-invariant
    unsigned long sum = 0;
    for (int i = 0; i < n; ++i) {
        sum += lines[i] / kInstBytes;
        sum += lines[i] % LINE_BYTES;
        sum += lines[i] / sizeof(unsigned long);
        sum += inv;
    }
    for (int i = 0; i < n; ++i) {
        // SPECFETCH-ALLOW(loop-divmod): the set count is a runtime value
        sum += lines[i] % sets;
    }
    return sum;
}

}  // namespace specfetch
