#include "util/Options.hpp"

#include <algorithm>
#include <fstream>

#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

void
OptionSet::set(const std::string &key, const std::string &value)
{
    if (values.find(key) == values.end())
        order.push_back(key);
    values[key] = value;
}

bool
OptionSet::has(const std::string &key) const
{
    readKeys.insert(key);
    return values.find(key) != values.end();
}

std::string
OptionSet::getString(const std::string &key) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end())
        fatal("missing required option '%s'", key.c_str());
    return it->second;
}

std::string
OptionSet::getString(const std::string &key, const std::string &def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
}

int64_t
OptionSet::getInt(const std::string &key) const
{
    int64_t v;
    const std::string raw = getString(key);
    if (!parseInt(raw, v))
        fatal("option '%s' expects an integer, got '%s'", key.c_str(),
              raw.c_str());
    return v;
}

int64_t
OptionSet::getInt(const std::string &key, int64_t def) const
{
    if (!has(key))
        return def;
    return getInt(key);
}

double
OptionSet::getDouble(const std::string &key, double def) const
{
    if (!has(key))
        return def;
    double v;
    const std::string raw = getString(key);
    if (!parseDouble(raw, v))
        fatal("option '%s' expects a number, got '%s'", key.c_str(),
              raw.c_str());
    return v;
}

bool
OptionSet::getBool(const std::string &key, bool def) const
{
    if (!has(key))
        return def;
    bool v;
    const std::string raw = getString(key);
    if (!parseBool(raw, v))
        fatal("option '%s' expects a boolean, got '%s'", key.c_str(),
              raw.c_str());
    return v;
}

std::vector<std::string>
OptionSet::unreadKeys() const
{
    std::vector<std::string> unread;
    for (const std::string &key : order)
        if (readKeys.find(key) == readKeys.end())
            unread.push_back(key);
    return unread;
}

void
OptionSet::rejectUnread() const
{
    const std::vector<std::string> unread = unreadKeys();
    if (!unread.empty())
        fatal("unknown option '--%s'", unread.front().c_str());
}

void
OptionSet::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#' || t[0] == ';')
            continue;
        const size_t eq = t.find('=');
        if (eq == std::string::npos)
            fatal("%s:%d: expected key=value, got '%s'", path.c_str(),
                  lineno, t.c_str());
        const std::string key = trim(t.substr(0, eq));
        const std::string value = trim(t.substr(eq + 1));
        if (key.empty())
            fatal("%s:%d: empty key", path.c_str(), lineno);
        set(key, value);
    }
}

void
OptionSet::parseArgs(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--"))
            fatal("unexpected argument '%s'", arg.c_str());
        arg = arg.substr(2);
        if (arg.empty())
            fatal("empty option name in argument %d", i);
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            set(arg, argv[i + 1]);
            ++i;
        } else {
            set(arg, "true"); // bare flag
        }
    }
}

} // namespace gsuite
