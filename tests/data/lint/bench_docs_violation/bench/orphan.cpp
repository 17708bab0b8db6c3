// LINT-EXPECT: bench-docs
// Drift fixture for the bench-docs check: this tree's README has no
// bench_orphan row.
int main()
{
    return 0;
}
