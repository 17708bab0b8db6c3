// Clean fixture for the param-docs check.
constexpr Param kParams[] = {
    {"cluster", ParamKind::Record},
    {"output", ParamKind::Text},
    {"tenant", ParamKind::Record},
    {"mix", ParamKind::Number},
};
