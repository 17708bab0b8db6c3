// Fixture key table: the keys the spec parser may compare against.
constexpr Param kParams[] = {
    {"warmup", ParamKind::Number},
    {"starvation-tolerance", ParamKind::Number},
    {"weight", ParamKind::Number},
};
