#ifndef PROCOUP_SUPPORT_STRINGS_HH
#define PROCOUP_SUPPORT_STRINGS_HH

/**
 * @file
 * Small string helpers shared across the library. libstdc++ 12 lacks
 * std::format, so strCat() is the local replacement for building
 * diagnostics.
 */

#include <charconv>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace procoup {

namespace detail {

inline void
strCatInto(std::ostringstream&)
{}

template <typename T, typename... Rest>
void
strCatInto(std::ostringstream& os, const T& head, const Rest&... rest)
{
    os << head;
    strCatInto(os, rest...);
}

} // namespace detail

/** Concatenate any streamable values into a string. */
template <typename... Args>
std::string
strCat(const Args&... args)
{
    std::ostringstream os;
    detail::strCatInto(os, args...);
    return os.str();
}

/** Split @p s on @p sep; empty fields are kept. */
std::vector<std::string> split(const std::string& s, char sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string& s);

/** Format a double with a fixed number of decimals (for table output). */
std::string fixed(double v, int decimals);

/** Quote and escape @p s as a JSON string literal (including the
 *  surrounding double quotes). */
std::string jsonQuote(const std::string& s);

/**
 * Parse all of @p text as a T: a base-10 integer, or a finite
 * floating-point value. False — @p out untouched — for empty text, a
 * sign or other character that is not part of the number (leading
 * whitespace, trailing garbage such as "3x"), and a value outside T's
 * range. The one number parser of every command-line flag.
 */
template <typename T>
bool
parseNumber(std::string_view text, T* out)
{
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(v))
            return false;
    *out = v;
    return true;
}

} // namespace procoup

#endif // PROCOUP_SUPPORT_STRINGS_HH
