#include "procoup/isa/value.hh"

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace isa {

Value
Value::makeInt(std::int64_t v)
{
    Value out;
    out.floatTag = false;
    out.ival = v;
    return out;
}

Value
Value::makeFloat(double v)
{
    Value out;
    out.floatTag = true;
    out.fval = v;
    return out;
}

std::int64_t
Value::asInt() const
{
    return floatTag ? truncToInt(fval) : ival;
}

double
Value::asFloat() const
{
    return floatTag ? fval : static_cast<double>(ival);
}

std::int64_t
Value::rawInt() const
{
    PROCOUP_ASSERT(!floatTag, "rawInt on float value");
    return ival;
}

double
Value::rawFloat() const
{
    PROCOUP_ASSERT(floatTag, "rawFloat on int value");
    return fval;
}

bool
Value::truthy() const
{
    return floatTag ? fval != 0.0 : ival != 0;
}

bool
Value::operator==(const Value& o) const
{
    if (floatTag != o.floatTag)
        return false;
    return floatTag ? fval == o.fval : ival == o.ival;
}

std::string
Value::toString() const
{
    return floatTag ? strCat(fval) : strCat(ival);
}

} // namespace isa
} // namespace procoup
