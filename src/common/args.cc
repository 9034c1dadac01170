#include "args.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "log.h"

namespace wsrs {

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     bool is_flag)
{
    options_[name] = Option{help, is_flag};
}

void
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        const std::size_t eq = arg.find('=');
        bool has_inline_value = false;
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
            has_inline_value = true;
        }
        const auto it = options_.find(arg);
        if (it == options_.end())
            fatal("unknown option --%s\n%s", arg.c_str(),
                  usage("").c_str());
        if (it->second.isFlag) {
            if (has_inline_value)
                fatal("option --%s takes no value", arg.c_str());
            values_.insert_or_assign(arg, std::string("1"));
            continue;
        }
        if (!has_inline_value) {
            if (i + 1 >= argc)
                fatal("option --%s requires a value", arg.c_str());
            value = argv[++i];
        }
        values_[arg] = value;
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
ArgParser::get(const std::string &name, const std::string &def) const
{
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : def;
}

std::uint64_t
ArgParser::getUint(const std::string &name, std::uint64_t def) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        fatal("option --%s: '%s' is not an integer", name.c_str(),
              it->second.c_str());
    return v;
}

double
ArgParser::getDouble(const std::string &name, double def) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0')
        fatal("option --%s: '%s' is not a number", name.c_str(),
              it->second.c_str());
    return v;
}

std::string
ArgParser::usage(const std::string &program) const
{
    std::ostringstream os;
    if (!program.empty())
        os << "usage: " << program << " [options]\n";
    os << "options:\n";
    for (const auto &[name, opt] : options_) {
        os << "  --" << name << (opt.isFlag ? "" : "=<value>");
        os << "\n      " << opt.help << "\n";
    }
    return os.str();
}

void
writeDocument(const std::string &path, const char *kind,
              const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        if (!std::cout.flush())
            fatalIo("cannot write %s document to stdout", kind);
        return;
    }
    std::ofstream os(path);
    if (!os)
        fatalIo("cannot open %s file '%s'", kind, path.c_str());
    write(os);
    os.close();
    if (!os)
        fatalIo("cannot write %s file '%s'", kind, path.c_str());
}

std::FILE *
textStream(std::initializer_list<std::pair<const char *, std::string>>
               documents)
{
    const char *onStdout = nullptr;
    for (const auto &[option, path] : documents) {
        if (path != "-")
            continue;
        if (onStdout)
            fatal("--%s and --%s both name stdout ('-'): only one "
                  "document can go there", onStdout, option);
        onStdout = option;
    }
    return onStdout ? stderr : stdout;
}

int
runTool(const char *name, const std::function<int()> &body)
{
    try {
        const int code = body();
        if (std::fflush(stdout) != 0 || std::ferror(stdout))
            fatalIo("cannot write to stdout");
        return code;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", name, e.what());
        return exitCodeFor(e);
    }
}

} // namespace wsrs
