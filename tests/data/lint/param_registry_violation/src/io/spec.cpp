// Seeded violations for the param-registry check: directive/option
// token comparisons against keys never declared in the key table,
// bypassing range checks and usage strings.
#include <string>

constexpr Param kParams[] = {
    {"warmup", ParamKind::Number},
};

bool parseDirective(const std::string &tag, const std::string &key)
{
    if (tag == "warmup")  // declared: clean
        return true;
    if (tag == "frob-budget")  // LINT-EXPECT: param-registry
        return true;
    if (key != "shard-count")  // LINT-EXPECT: param-registry
        return true;
    // LINT-EXPECT-NEXT: param-registry
    if ("burst-shape" == key)
        return true;
    return false;
}
