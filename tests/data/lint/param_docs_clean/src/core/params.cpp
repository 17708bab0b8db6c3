// Clean fixture for the param-docs check.
void registerParams(Registry &registry)
{
    registry.parameter("cluster", ParamKind::Structural);
    registry.parameter("output", ParamKind::String);
    registry.parameter("tenant", ParamKind::Structural);
    registry.parameter("mix", ParamKind::Double);
}
