/**
 * @file
 * Error-reporting helpers in the gem5 fatal/panic spirit.
 *
 * - wsrs::fatal(...)  : the *user's* fault (bad configuration, impossible
 *   parameter combination). Throws wsrs::FatalError so library users and
 *   tests can catch it.
 * - wsrs::fatalIo(...)       : I/O failure or on-disk data corruption
 *   (unreadable file, bad magic, CRC mismatch, torn write). Throws
 *   wsrs::IoError, a FatalError subclass, so existing catch sites keep
 *   working while drivers can map the class to a distinct exit code.
 * - wsrs::fatalMismatch(...) : a journal/checkpoint/sweep identity clash
 *   (the artifact is intact but belongs to a different configuration).
 *   Throws wsrs::SweepMismatchError.
 * - WSRS_PANIC(...)   : a simulator bug (broken invariant). Aborts.
 * - WSRS_ASSERT(cond) : cheap invariant check compiled in all build types;
 *   panics with location info on failure.
 *
 * Process exit codes (tools map the exception taxonomy onto these; see
 * exitCodeFor and README.md, "Exit codes"):
 *   0 success · 1 configuration/usage error · 2 I/O error or data
 *   corruption · 3 journal/checkpoint identity mismatch · 4 one or more
 *   sweep jobs failed (partial results were still reported).
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace wsrs {

/** Exception thrown for unrecoverable user-facing configuration errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** I/O failure or on-disk/on-wire data corruption (exit code 2). */
class IoError : public FatalError
{
  public:
    explicit IoError(const std::string &msg) : FatalError(msg) {}
};

/** Intact artifact, wrong identity: resuming a journal or restoring a
 *  checkpoint that belongs to a different configuration (exit code 3). */
class SweepMismatchError : public FatalError
{
  public:
    explicit SweepMismatchError(const std::string &msg) : FatalError(msg) {}
};

/** Documented process exit codes shared by the driver tools. */
enum ExitCode : int {
    kExitOk = 0,
    kExitConfig = 1,        ///< FatalError: bad configuration or usage.
    kExitIo = 2,            ///< IoError: I/O failure or corruption.
    kExitSweepMismatch = 3, ///< SweepMismatchError: identity clash.
    kExitJobFailure = 4,    ///< Sweep completed but some jobs failed.
};

/** Map the exception taxonomy onto the documented exit codes. */
inline int
exitCodeFor(const FatalError &e)
{
    if (dynamic_cast<const IoError *>(&e))
        return kExitIo;
    if (dynamic_cast<const SweepMismatchError *>(&e))
        return kExitSweepMismatch;
    return kExitConfig;
}

/** Printf-style formatting into a std::string. */
template <typename... Args>
std::string
strprintf(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string(fmt);
    } else {
        const int n = std::snprintf(nullptr, 0, fmt, args...);
        std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
        if (n > 0)
            std::snprintf(out.data(), out.size() + 1, fmt, args...);
        return out;
    }
}

/** Report a user error: throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    throw FatalError(strprintf(fmt, args...));
}

/** Report an I/O or data-corruption error: throws IoError. */
template <typename... Args>
[[noreturn]] void
fatalIo(const char *fmt, Args... args)
{
    throw IoError(strprintf(fmt, args...));
}

/** Report a journal/checkpoint identity mismatch: throws
 *  SweepMismatchError. */
template <typename... Args>
[[noreturn]] void
fatalMismatch(const char *fmt, Args... args)
{
    throw SweepMismatchError(strprintf(fmt, args...));
}

/** Internal: panic implementation. */
[[noreturn]] inline void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

} // namespace wsrs

/** Abort with a message: simulator bug, never a user error. */
#define WSRS_PANIC(...) \
    ::wsrs::panicImpl(__FILE__, __LINE__, ::wsrs::strprintf(__VA_ARGS__))

/** Invariant check active in every build type. */
#define WSRS_ASSERT(cond) \
    do { \
        if (!(cond)) \
            ::wsrs::panicImpl(__FILE__, __LINE__, \
                              "assertion failed: " #cond); \
    } while (0)
