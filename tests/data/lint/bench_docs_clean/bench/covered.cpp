// Clean fixture for the bench-docs check: this tree's README carries a
// bench_covered row.
int main()
{
    return 0;
}
