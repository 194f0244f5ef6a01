/**
 * @file
 * Command-line and configuration-file option handling.
 *
 * Implements the paper's "User Interface" layer (Fig. 1): a GNN
 * pipeline is described by a handful of key=value parameters which may
 * come from a configuration file of defaults, overridden by
 * --key value (or --key=value) command-line arguments.
 */

#ifndef GSUITE_UTIL_OPTIONS_HPP
#define GSUITE_UTIL_OPTIONS_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gsuite {

/**
 * An ordered key=value option store with typed accessors. Every
 * lookup marks its key as read, so a CLI can reject the flags it
 * never consults (unreadKeys(), rejectUnread()). Not thread-safe:
 * options are parsed and read on one thread, before any work starts.
 *
 * Lookup precedence is last-writer-wins, so loading a config file first
 * and then applying command-line arguments gives CLI overrides, exactly
 * as the paper's interface describes ("default parameters take action
 * when a parameter value is not specified by the user").
 */
class OptionSet
{
  public:
    /** Set (or overwrite) a raw string value. */
    void set(const std::string &key, const std::string &value);

    /** True if the key has a value. */
    bool has(const std::string &key) const;

    /** Raw string value; fatal() if missing. */
    std::string getString(const std::string &key) const;

    /** Raw string value with a default. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Integer value; fatal() on missing key or malformed value. */
    int64_t getInt(const std::string &key) const;

    /** Integer value with a default; fatal() on malformed value. */
    int64_t getInt(const std::string &key, int64_t def) const;

    /** Double value with a default; fatal() on malformed value. */
    double getDouble(const std::string &key, double def) const;

    /** Boolean value with a default; fatal() on malformed value. */
    bool getBool(const std::string &key, bool def) const;

    /**
     * Keys that neither has() nor a getter has looked up yet, in
     * insertion order (later overwrites keep position). A CLI that
     * has read every flag it honours uses this to find the ones it
     * would otherwise ignore.
     */
    std::vector<std::string> unreadKeys() const;

    /**
     * fatal() naming the first unread key as an unknown option. Call
     * once, after a CLI's last flag read.
     */
    void rejectUnread() const;

    /**
     * Load key=value lines from a config file. Lines starting with '#'
     * or ';' and blank lines are ignored. fatal() on unreadable file or
     * malformed line.
     */
    void loadFile(const std::string &path);

    /**
     * Parse command-line arguments of the form "--key value",
     * "--key=value" or bare "--flag" (stored as "true"). fatal() on
     * malformed options and on positional arguments: no CLI takes
     * any.
     */
    void parseArgs(int argc, const char *const *argv);

  private:
    std::map<std::string, std::string> values;
    std::vector<std::string> order;
    /** Keys looked up so far; lookups are logically const. */
    mutable std::set<std::string> readKeys;
};

} // namespace gsuite

#endif // GSUITE_UTIL_OPTIONS_HPP
