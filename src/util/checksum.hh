/**
 * @file
 * Integrity checksums for the fault-tolerance layer: a table-driven
 * CRC-32 (IEEE 802.3 polynomial) for the result store's per-line tags
 * and an xxhash-style 64-bit content hash for TraceSnapshot payloads.
 *
 * Both are deterministic functions of the input bytes alone — no
 * seeds from the environment, no address-dependent state — so a tag
 * computed on one machine verifies on any other and golden files stay
 * byte-reproducible.
 */

#ifndef SPECFETCH_UTIL_CHECKSUM_HH_
#define SPECFETCH_UTIL_CHECKSUM_HH_

#include <cstddef>
#include <cstdint>
#include <string>

namespace specfetch {

/** CRC-32 (IEEE, reflected) of @p size bytes at @p data. */
uint32_t crc32(const void *data, size_t size);

/** Convenience overload over a string's bytes. */
uint32_t crc32(const std::string &text);

/**
 * 64-bit content hash in the xxhash tradition: 8-byte lanes folded
 * with rotate-multiply mixing and a final avalanche, so single-bit
 * flips anywhere in the input change the digest with overwhelming
 * probability. Not cryptographic — it guards against corruption, not
 * adversaries.
 *
 * @param seed Folded into the initial state; distinct seeds give
 *             independent hash families.
 */
uint64_t hash64(const void *data, size_t size, uint64_t seed = 0);

/** Convenience overload over a string's bytes. */
uint64_t hash64(const std::string &text, uint64_t seed = 0);

/** Render a CRC-32 as the store's fixed-width lowercase hex tag. */
std::string crcHex(uint32_t crc);

/** Parse a crcHex() tag back; false on malformed input. */
bool parseCrcHex(const std::string &text, uint32_t &out);

} // namespace specfetch

#endif // SPECFETCH_UTIL_CHECKSUM_HH_
