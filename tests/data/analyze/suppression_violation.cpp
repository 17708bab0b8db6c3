// helix-analyze: treat-as(src/exp/suppression_fixture.cpp)
// Malformed directives are themselves findings.
// helix-analyze: allow(no-such-check) bogus check id // LINT-EXPECT: suppression
// LINT-EXPECT-NEXT: suppression
// helix-analyze: allow(metrics-schema)
