/**
 * @file
 * The results-export layer's record sink: JSON Lines (one record per
 * line, append-friendly, the `BENCH_*.json` trajectory format), and
 * its reader.
 */

#ifndef SPECFETCH_REPORT_REPORT_HH_
#define SPECFETCH_REPORT_REPORT_HH_

#include <fstream>
#include <string>
#include <vector>

#include "report/json.hh"

namespace specfetch {

/** Appends one compact JSON document per line to a file. */
class JsonlWriter
{
  public:
    /** Opens (truncates) @p path; check ok() before writing. */
    explicit JsonlWriter(const std::string &path);

    bool ok() const { return static_cast<bool>(out); }
    const std::string &path() const { return filePath; }
    size_t recordsWritten() const { return records; }

    /** Serialize @p record onto its own line and flush. */
    void write(const JsonValue &record);

  private:
    std::string filePath;
    std::ofstream out;
    size_t records = 0;
};

/**
 * Parse a JSONL file back into records. Returns false (and stops) on
 * the first malformed line; @p error then names the line.
 */
bool readJsonl(const std::string &path, std::vector<JsonValue> &out,
               std::string *error = nullptr);

} // namespace specfetch

#endif // SPECFETCH_REPORT_REPORT_HH_
