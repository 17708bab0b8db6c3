// Drift fixture for the param-docs check: ghost-key is declared but
// documented in neither spec doc of this tree.
constexpr Param kParams[] = {
    {"cluster", ParamKind::Record},
    {"output", ParamKind::Text},
    {"ghost-key", ParamKind::Number}, // LINT-EXPECT: param-docs
};
