#include "report/report.hh"

#include "report/record.hh"

namespace specfetch {

JsonlWriter::JsonlWriter(const std::string &path)
    : filePath(path), out(path, std::ios::trunc)
{}

void
JsonlWriter::write(const JsonValue &record)
{
    if (!out)
        return;
    out << record.dump() << '\n';
    out.flush();
    ++records;
}

bool
readJsonl(const std::string &path, std::vector<JsonValue> &out,
          std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::string line;
    size_t lineNumber = 0;
    while (std::getline(in, line)) {
        ++lineNumber;
        if (line.empty())
            continue;
        JsonValue record;
        std::string parseError;
        if (!JsonValue::parse(line, record, &parseError)) {
            if (error) {
                *error = path + ":" + std::to_string(lineNumber) + ": " +
                         parseError;
            }
            return false;
        }
        out.push_back(std::move(record));
    }
    return true;
}

} // namespace specfetch
