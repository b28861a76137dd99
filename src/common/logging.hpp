/**
 * @file
 * Minimal logging and error-termination helpers, gem5-flavored.
 *
 * panic()  - an internal invariant was violated (a bug in this library);
 *            aborts so a debugger/core dump catches it.
 * fatal()  - the *user* asked for something unsupported (bad config);
 *            exits with status 1.
 * warn()   - a non-fatal status message on stderr.
 */

#ifndef FT_COMMON_LOGGING_HPP
#define FT_COMMON_LOGGING_HPP

#include <sstream>
#include <string>

namespace fasttrack {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Fold a variadic pack into one string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace fasttrack

#define FT_PANIC(...)                                                      \
    ::fasttrack::detail::panicImpl(__FILE__, __LINE__,                     \
                                   ::fasttrack::detail::concat(__VA_ARGS__))

#define FT_FATAL(...)                                                      \
    ::fasttrack::detail::fatalImpl(__FILE__, __LINE__,                     \
                                   ::fasttrack::detail::concat(__VA_ARGS__))

#define FT_WARN(...)                                                       \
    ::fasttrack::detail::warnImpl(::fasttrack::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG: these guard simulator core
 *  correctness and are cheap relative to a router evaluation. */
#define FT_ASSERT(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            FT_PANIC("assertion failed: ", #cond, " ",                     \
                     ::fasttrack::detail::concat(__VA_ARGS__));            \
        }                                                                  \
    } while (0)

#endif // FT_COMMON_LOGGING_HPP
