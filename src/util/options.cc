#include "util/options.hh"

#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

OptionParser::OptionParser(std::string _program, std::string _description)
    : program(std::move(_program)), description(std::move(_description))
{
}

void
OptionParser::addString(const std::string &name, const std::string &def,
                        const std::string &help)
{
    panic_if(options.count(name), "duplicate option --%s", name.c_str());
    options[name] = Option{Kind::String, help, def, false};
    order.push_back(name);
}

void
OptionParser::addCount(const std::string &name, uint64_t def,
                       const std::string &help)
{
    panic_if(options.count(name), "duplicate option --%s", name.c_str());
    options[name] = Option{Kind::Count, help, std::to_string(def), false};
    order.push_back(name);
}

void
OptionParser::addSize(const std::string &name, uint64_t def,
                      const std::string &help)
{
    panic_if(options.count(name), "duplicate option --%s", name.c_str());
    options[name] = Option{Kind::Size, help, std::to_string(def), false};
    order.push_back(name);
}

void
OptionParser::addDouble(const std::string &name, double def,
                        const std::string &help)
{
    panic_if(options.count(name), "duplicate option --%s", name.c_str());
    options[name] = Option{Kind::Double, help, formatFixed(def, 6), false};
    order.push_back(name);
}

void
OptionParser::addFlag(const std::string &name, const std::string &help)
{
    panic_if(options.count(name), "duplicate option --%s", name.c_str());
    options[name] = Option{Kind::Flag, help, "false", false};
    order.push_back(name);
}

bool
OptionParser::assign(const std::string &name, const std::string &value)
{
    auto it = options.find(name);
    if (it == options.end()) {
        std::fprintf(stderr, "%s: unknown option --%s\n", program.c_str(),
                     name.c_str());
        return false;
    }
    Option &opt = it->second;
    if (opt.set) {
        std::fprintf(stderr,
                     "%s: option --%s given more than once "
                     "(values would conflict)\n",
                     program.c_str(), name.c_str());
        return false;
    }

    switch (opt.kind) {
      case Kind::String:
        opt.value = value;
        break;
      case Kind::Count: {
        uint64_t v;
        if (!parseCount(value, v)) {
            std::fprintf(stderr, "%s: --%s expects a count, got '%s'\n",
                         program.c_str(), name.c_str(), value.c_str());
            return false;
        }
        opt.value = std::to_string(v);
        break;
      }
      case Kind::Size: {
        uint64_t v;
        if (!parseSize(value, v)) {
            std::fprintf(stderr, "%s: --%s expects a size, got '%s'\n",
                         program.c_str(), name.c_str(), value.c_str());
            return false;
        }
        opt.value = std::to_string(v);
        break;
      }
      case Kind::Double: {
        char *end = nullptr;
        std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
            std::fprintf(stderr, "%s: --%s expects a number, got '%s'\n",
                         program.c_str(), name.c_str(), value.c_str());
            return false;
        }
        opt.value = value;
        break;
      }
      case Kind::Flag: {
        bool v;
        if (!parseBool(value, v)) {
            std::fprintf(stderr, "%s: --%s expects a boolean, got '%s'\n",
                         program.c_str(), name.c_str(), value.c_str());
            return false;
        }
        opt.value = v ? "true" : "false";
        break;
      }
    }
    opt.set = true;
    return true;
}

bool
OptionParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(helpText().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positionals.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            if (!assign(body.substr(0, eq), body.substr(eq + 1)))
                return false;
            continue;
        }
        // --name value, or bare --flag.
        auto it = options.find(body);
        if (it != options.end() && it->second.kind == Kind::Flag) {
            if (it->second.set) {
                std::fprintf(stderr,
                             "%s: option --%s given more than once\n",
                             program.c_str(), body.c_str());
                return false;
            }
            it->second.value = "true";
            it->second.set = true;
            continue;
        }
        if (it != options.end() && i + 1 >= argc) {
            std::fprintf(stderr, "%s: option --%s needs a value\n",
                         program.c_str(), body.c_str());
            return false;
        }
        // An unknown name fails in assign() whatever its value.
        if (!assign(body, i + 1 < argc ? argv[++i] : ""))
            return false;
    }
    return true;
}

const OptionParser::Option &
OptionParser::find(const std::string &name, Kind kind) const
{
    auto it = options.find(name);
    panic_if(it == options.end(), "undeclared option --%s", name.c_str());
    panic_if(it->second.kind != kind, "option --%s queried with wrong type",
             name.c_str());
    return it->second;
}

std::string
OptionParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

uint64_t
OptionParser::getCount(const std::string &name) const
{
    return std::strtoull(find(name, Kind::Count).value.c_str(), nullptr, 10);
}

uint64_t
OptionParser::getSize(const std::string &name) const
{
    return std::strtoull(find(name, Kind::Size).value.c_str(), nullptr, 10);
}

double
OptionParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

bool
OptionParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "true";
}

bool
OptionParser::wasSet(const std::string &name) const
{
    auto it = options.find(name);
    panic_if(it == options.end(), "undeclared option --%s", name.c_str());
    return it->second.set;
}

std::string
OptionParser::helpText() const
{
    std::string out = program + ": " + description + "\n\noptions:\n";
    for (const std::string &name : order) {
        const Option &opt = options.at(name);
        out += "  --" + name;
        if (opt.kind != Kind::Flag)
            out += "=<value>";
        out += "\n      " + opt.help + " (default: " + opt.value + ")\n";
    }
    out += "  --help\n      show this message\n";
    return out;
}

} // namespace specfetch
