// Clean counterpart for the param-registry check: every key/tag
// comparison names a declared knob, including resolved-param dispatch
// via opt->key(); scenario-kind dispatch is not a key comparison.
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
    if (kind == "some-custom-kind")
        return true;
    return false;
}
