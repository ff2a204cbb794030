/**
 * @file
 * Code layout: assigns addresses to basic blocks and materializes the
 * static program image.
 *
 * Blocks are placed contiguously in id order (functions contiguous,
 * as a compiler would emit them), starting at a fixed base. Layout is
 * what turns the abstract CFG into something with cache behavior:
 * line-sharing between adjacent blocks, conflict distances between
 * hot functions, and the fall-through adjacency the next-line
 * prefetcher exploits.
 */

#ifndef SPECFETCH_WORKLOAD_LAYOUT_HH_
#define SPECFETCH_WORKLOAD_LAYOUT_HH_

#include "isa/program_image.hh"
#include "workload/cfg.hh"

namespace specfetch {

/** Base address of the text segment (instruction aligned). */
constexpr Addr kTextBase = 0x10000;

/**
 * Assign startAddr to every block of @p cfg (mutating it), back to
 * back in id order from kTextBase, and build the matching program
 * image.
 *
 * @param cfg Validated control-flow graph; block addresses are
 *            written back into it.
 */
ProgramImage layoutProgram(Cfg &cfg);

} // namespace specfetch

#endif // SPECFETCH_WORKLOAD_LAYOUT_HH_
