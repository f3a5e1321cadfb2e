#ifndef PROCOUP_ISA_VALUE_HH
#define PROCOUP_ISA_VALUE_HH

/**
 * @file
 * Machine word. The paper's node keeps "integers and floating point
 * numbers ... in the same register files", so a word is a tagged union
 * of a 64-bit integer and a double. Memory locations hold the same type
 * plus a full/empty presence bit (kept by the memory model, not here).
 */

#include <cstdint>
#include <limits>
#include <string>

namespace procoup {
namespace isa {

/** A register or memory word: either an integer or a float. */
class Value
{
  public:
    /** Default: integer zero. */
    Value() : floatTag(false), ival(0), fval(0.0) {}

    static Value makeInt(std::int64_t v);
    static Value makeFloat(double v);

    bool isFloat() const { return floatTag; }

    /** Integer view; converts a float with truncToInt(). */
    std::int64_t asInt() const;

    /** Float view; converts if the word holds an integer. */
    double asFloat() const;

    /** Raw accessors (no conversion). @pre matching tag */
    std::int64_t rawInt() const;
    double rawFloat() const;

    /** Nonzero test used by conditional branches. */
    bool truthy() const;

    /** Exact equality (tag and payload). */
    bool operator==(const Value& o) const;

    std::string toString() const;

  private:
    bool floatTag;
    std::int64_t ival;
    double fval;
};

/**
 * The integer unit's 64-bit arithmetic: two's complement, with
 * overflow wrapping around (computed through uint64_t, so it is
 * defined behaviour). INT64_MIN / -1 wraps to INT64_MIN and
 * INT64_MIN mod -1 is 0. The simulator's ALU and every compile-time
 * constant fold go through these, so folding and running agree.
 * Division and modulo by zero are the caller's to reject.
 */
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapNeg(std::int64_t a)
{
    return wrapSub(0, a);
}

/**
 * The one float-to-integer conversion: FTOI, (int x) and every float
 * operand of an integer op, at run time and in every constant fold.
 * Truncates toward zero. NaN, infinities and |x| >= 2^63 give
 * INT64_MIN, the value x86's cvttsd2si returns for them, so the
 * result is defined everywhere and matches the hardware cast.
 */
inline std::int64_t
truncToInt(double x)
{
    if (!(x >= -0x1p63 && x < 0x1p63))
        return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(x);
}

/** a << (b mod 64). */
inline std::int64_t
wrapShl(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                     << (b & 63));
}

/** @pre b != 0 */
inline std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    return b == -1 ? wrapNeg(a) : a / b;
}

/** @pre b != 0 */
inline std::int64_t
wrapMod(std::int64_t a, std::int64_t b)
{
    return b == -1 ? 0 : a % b;
}

} // namespace isa
} // namespace procoup

#endif // PROCOUP_ISA_VALUE_HH
