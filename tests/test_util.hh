#ifndef PROCOUP_TESTS_TEST_UTIL_HH
#define PROCOUP_TESTS_TEST_UTIL_HH

/**
 * @file
 * Shared helpers for the test suites: the baseline machine's
 * function-unit numbering, small program-building shortcuts, exact
 * word comparison, a seeded byte mutator for decoder robustness loops, and a temporary
 * directory that removes itself.
 *
 * Baseline machine layout (config::baseline()):
 *   clusters 0..3: fu 3c+0 = IU, 3c+1 = FPU, 3c+2 = MU
 *   cluster 4:     fu 12 = BR       cluster 5: fu 13 = BR
 */

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include "procoup/config/presets.hh"
#include "procoup/isa/value.hh"
#include "procoup/support/rng.hh"

namespace procoup {
namespace testutil {

inline int fuIU(int cluster)  { return 3 * cluster + 0; }
inline int fuFPU(int cluster) { return 3 * cluster + 1; }
inline int fuMU(int cluster)  { return 3 * cluster + 2; }
inline int fuBR0() { return 12; }
inline int fuBR1() { return 13; }

inline isa::RegRef
rr(int cluster, int index)
{
    return isa::RegRef{static_cast<std::uint16_t>(cluster),
                       static_cast<std::uint16_t>(index)};
}

/** Same tag and same bits: exact where Value::operator== is not
 *  (a NaN equals itself, -0.0 differs from 0.0). */
inline bool
sameBits(const isa::Value& a, const isa::Value& b)
{
    if (a.isFloat() != b.isFloat())
        return false;
    return a.isFloat() ? std::bit_cast<std::uint64_t>(a.rawFloat()) ==
                             std::bit_cast<std::uint64_t>(b.rawFloat())
                       : a.rawInt() == b.rawInt();
}

/** @p bytes with one to four seeded-random bytes overwritten by
 *  random values (a corrupt payload behind a valid checksum). */
inline std::string
mutateBytes(std::string bytes, Rng& rng)
{
    const auto last = static_cast<std::int64_t>(bytes.size()) - 1;
    for (auto n = rng.uniformInt(1, 4); n > 0 && last >= 0; --n)
        bytes[rng.uniformInt(0, last)] = static_cast<char>(rng.next());
    return bytes;
}

/** A fresh directory /tmp/<prefix>_XXXXXX, removed with everything
 *  in it when the guard goes out of scope. @throws std::runtime_error
 *  if the directory cannot be made. */
class TempDir
{
  public:
    explicit TempDir(const std::string& prefix)
        : _path("/tmp/" + prefix + "_XXXXXX")
    {
        if (::mkdtemp(_path.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + _path);
    }

    ~TempDir()
    {
        std::error_code ec;  // best effort: never throw from here
        std::filesystem::remove_all(_path, ec);
    }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::string& path() const { return _path; }

  private:
    std::string _path;
};

} // namespace testutil
} // namespace procoup

#endif // PROCOUP_TESTS_TEST_UTIL_HH
