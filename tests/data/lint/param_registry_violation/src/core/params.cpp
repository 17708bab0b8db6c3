// Fixture registry: the keys the spec parser may compare against.
void registerParams(Registry &registry)
{
    registry.parameter("warmup", ParamKind::Double);
}
