/**
 * @file
 * Minimal key=value configuration file support, so experiments can be
 * scripted without recompiling ('#' comments, one `key = value` per
 * line, later keys override earlier ones).
 */

#ifndef FT_COMMON_CONFIG_FILE_HPP
#define FT_COMMON_CONFIG_FILE_HPP

#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>

#include "common/flags.hpp"

namespace fasttrack {

/** Parsed key=value file with defaulted accessors. */
class KeyValueFile
{
  public:
    /** Parse from a stream; fatal on malformed lines. */
    static KeyValueFile parse(std::istream &is);
    /** Parse a file path; fatal if unreadable. */
    static KeyValueFile parseFile(const std::string &path);

    /** The value of @p key, or @p fallback when it is absent. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /** The value of @p key read by readDecimal (common/flags.hpp), the
     *  rule integer flags follow, or @p fallback when it is absent. A
     *  value outside [min, max] or not a decimal exits 2 with a line
     *  naming the key. */
    template <typename T>
    T number(const std::string &key, T fallback,
             std::type_identity_t<T> min, std::type_identity_t<T> max) const
    {
        T value = fallback;
        const auto it = values_.find(key);
        if (it != values_.end() &&
            readDecimal<T>(it->second, min, max, value))
            refuse(detail::concat("config key '", key,
                                  "' must be a decimal in [", min, ", ",
                                  max, "], got '", it->second, "'"));
        return value;
    }

    /** Exit 2 like number() when @p rule, why the value of @p key cannot
     *  be used (a NocConfig's validationError(), say), is not empty. */
    void check(const std::string &key, const std::string &rule) const
    {
        if (!rule.empty())
            refuse(detail::concat("config key '", key, "': ", rule));
    }

  private:
    /** Print @p message to stderr and exit 2. */
    [[noreturn]] static void refuse(const std::string &message);

    std::map<std::string, std::string> values_;
};

} // namespace fasttrack

#endif // FT_COMMON_CONFIG_FILE_HPP
