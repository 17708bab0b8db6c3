// Drift fixture for the param-docs check: ghost-key is declared but
// documented in neither spec doc of this tree.
void registerParams(Registry &registry)
{
    registry.parameter("cluster", ParamKind::Structural);
    registry.parameter("output", ParamKind::String);
    registry.parameter("ghost-key", ParamKind::Double); // LINT-EXPECT: param-docs
}
