/**
 * @file
 * The driver tools' shared shell: a minimal self-contained command-line
 * option parser, one checked document writer, the one-document-on-stdout
 * rule and one exit-code path.
 *
 * ArgParser supports "--key=value", "--key value" and boolean "--flag"
 * syntax plus positional arguments; unknown options raise a FatalError
 * listing the registered options.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wsrs {

/** Parsed command line with typed accessors. */
class ArgParser
{
  public:
    /**
     * Register an option before parsing.
     *
     * @param name long option name without the leading dashes.
     * @param help one-line description for usage().
     * @param is_flag true for boolean options that take no value.
     */
    void addOption(const std::string &name, const std::string &help,
                   bool is_flag = false);

    /** Parse argv; throws FatalError on unknown or malformed options. */
    void parse(int argc, const char *const *argv);

    /** True when the option appeared on the command line. */
    bool has(const std::string &name) const;

    /** String value with default. */
    std::string get(const std::string &name,
                    const std::string &def = "") const;

    /** Unsigned integer value with default. */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t def) const;

    /** Double value with default. */
    double getDouble(const std::string &name, double def) const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Formatted usage text from the registered options. */
    std::string usage(const std::string &program) const;

  private:
    struct Option
    {
        std::string help;
        bool isFlag = false;
    };

    std::map<std::string, Option> options_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/**
 * Run @p write on stdout when @p path is "-", else on a fresh file at
 * @p path, then flush and check the stream: a failed open, write or flush
 * is an IoError naming @p kind (exit code 2).
 */
void writeDocument(const std::string &path, const char *kind,
                   const std::function<void(std::ostream &)> &write);

/**
 * The one-document-on-stdout rule. @p documents pairs each document
 * option of a tool with the path it names ("" = not written, "-" =
 * stdout). A document on stdout must be the only thing there, so the
 * returned text stream is stderr when one names "-" and stdout otherwise;
 * two documents naming "-" are a FatalError, raised before any work.
 */
std::FILE *
textStream(std::initializer_list<std::pair<const char *, std::string>>
               documents);

/**
 * Run a driver tool's @p body and return the process exit code: the
 * body's own, or exitCodeFor a FatalError it throws (reported on stderr
 * as "name: message"). Stdout is flushed last; output that never reached
 * it is an I/O error (exit code 2).
 */
int runTool(const char *name, const std::function<int()> &body);

} // namespace wsrs
