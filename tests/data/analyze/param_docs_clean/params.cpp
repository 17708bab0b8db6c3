// helix-analyze: treat-as(src/core/params_clean_fixture.cpp)
// Clean fixture for the param-docs check.

void
registerParams(Registry &p)
{
    p.parameter("cluster");
    p.parameter("output");
}
