// helix-lint: treat-as(src/io/spec_fixture.cpp)
// Clean counterpart for the param-registry check: every key/tag
// comparison names a declared knob, scenario-kind dispatch is out of
// scope, and resolved-param dispatch via opt->key() is fine.
#include <string>

struct Opt
{
    std::string keyName;
    const std::string &key() const { return keyName; }
};

bool parseDirective(const std::string &tag, const Opt *opt,
                    const std::string &kind)
{
    if (tag == "warmup" || tag == "starvation-tolerance")
        return true;
    if (opt->key() == "weight")
        return true;
    if (kind == "some-custom-kind")  // not a key/tag comparison
        return true;
    return false;
}
