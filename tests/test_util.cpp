/**
 * @file
 * Unit tests for the util module: RNG determinism and distribution
 * sanity, statistics accumulators, histograms, and the parallel-task
 * runner (helix::runTasks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "util/random.h"
#include "util/stats.h"
#include "util/tasks.h"
#include "util/timer.h"

// Address and thread sanitizers reserve terabytes of address space, so
// an address-space cap cannot make thread creation fail under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HELIX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HELIX_SANITIZED 1
#endif
#endif

namespace helix {
namespace {

TEST(SplitMix64, PinnedSeededSequence)
{
    // Golden values pin the exact bit stream. Serialized traces and
    // every seeded experiment depend on it staying stable across
    // refactors and platforms.
    SplitMix64 sm(42);
    EXPECT_EQ(sm.next(), 0xbdd732262feb6e95ULL);
    EXPECT_EQ(sm.next(), 0x28efe333b266f103ULL);
    EXPECT_EQ(sm.next(), 0x47526757130f9f52ULL);
}

TEST(Rng, PinnedSeededSequence)
{
    Rng rng(42);
    const uint64_t expected[] = {
        0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
        0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL,
        0xfde6dc7fe2ec5e64ULL,
    };
    for (uint64_t want : expected)
        EXPECT_EQ(rng.nextU64(), want);

    Rng fresh(42);
    EXPECT_DOUBLE_EQ(fresh.nextDouble(), 0.083862971059882163);
    EXPECT_EQ(fresh.nextBounded(1000), 102u);
}

TEST(SplitMix64, DeterministicSequence)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, BoundedRespectsBound)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, IntInclusiveRange)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = rng.nextInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        double x = rng.nextNormal(5.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, WeightedChoiceProportions)
{
    Rng rng(17);
    std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextWeighted(weights)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedChoiceAllZeroReturnsSentinel)
{
    Rng rng(19);
    std::vector<double> weights{0.0, 0.0};
    EXPECT_EQ(rng.nextWeighted(weights),
              std::numeric_limits<size_t>::max());
}

TEST(Rng, WeightedChoiceSkipsZeroWeight)
{
    Rng rng(23);
    std::vector<double> weights{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextWeighted(weights), 1u);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(29);
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
    auto copy = items;
    rng.shuffle(items);
    std::sort(items.begin(), items.end());
    EXPECT_EQ(items, copy);
}

TEST(StatAccumulator, EmptyIsZero)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(acc.percentile(50), 0.0);
}

TEST(StatAccumulator, MeanAndStddev)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(StatAccumulator, PercentilesInterpolate)
{
    StatAccumulator acc;
    for (int i = 1; i <= 100; ++i)
        acc.add(static_cast<double>(i));
    EXPECT_NEAR(acc.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(acc.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(acc.median(), 50.5, 1e-9);
    EXPECT_NEAR(acc.percentile(25), 25.75, 1e-9);
    EXPECT_NEAR(acc.percentile(95), 95.05, 1e-9);
}

TEST(StatAccumulator, InterleavedAddAndQuery)
{
    StatAccumulator acc;
    acc.add(10.0);
    EXPECT_DOUBLE_EQ(acc.median(), 10.0);
    acc.add(20.0);
    EXPECT_DOUBLE_EQ(acc.median(), 15.0);
    acc.add(0.0);
    EXPECT_DOUBLE_EQ(acc.median(), 10.0);
}

TEST(StatAccumulator, ClearResets)
{
    StatAccumulator acc;
    acc.add(3.0);
    acc.clear();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(Histogram, BucketsAndEdges)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.numBuckets(), 5u);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(0), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(4), 8.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(4), 10.0);
}

TEST(Histogram, CountsFallInRightBuckets)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);
    h.add(1.9);
    h.add(2.0);
    h.add(9.99);
    h.add(-1.0);
    h.add(10.0);
    h.add(100.0);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.totalCount(), 7u);
}

TEST(Histogram, ExactUpperBoundLandsInOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(10.0);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucketCount(4), 0u);
}

TEST(Histogram, BucketEdgesAreLowerInclusive)
{
    Histogram h(0.0, 10.0, 5);
    for (double edge : {0.0, 2.0, 4.0, 6.0, 8.0})
        h.add(edge);
    for (size_t i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h.bucketCount(i), 1u) << "bucket " << i;
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, RoundedWidthNeverIndexesPastLastBucket)
{
    // (hi - lo) / n rounds down here, so values just below hi compute
    // an offset >= n; they must be counted as overflow, not written
    // past the bucket array or folded into the last bucket.
    double lo = 0.0;
    double hi = 0.7;
    Histogram h(lo, hi, 7);
    double just_below_hi = std::nextafter(hi, 0.0);
    h.add(just_below_hi);
    size_t in_buckets = 0;
    for (size_t i = 0; i < h.numBuckets(); ++i)
        in_buckets += h.bucketCount(i);
    EXPECT_EQ(in_buckets + h.overflow(), 1u);
    EXPECT_EQ(h.totalCount(), 1u);
}

TEST(Histogram, DenormalWidthDoesNotCrash)
{
    // A span this small makes the per-bucket width denormal; the
    // offset division can overflow to inf. Every sample must still be
    // accounted for in exactly one counter.
    double lo = 0.0;
    double hi = 1e-312;
    Histogram h(lo, hi, 4);
    h.add(0.0);
    h.add(hi / 2.0);
    h.add(hi);
    h.add(1.0);
    size_t in_buckets = 0;
    for (size_t i = 0; i < h.numBuckets(); ++i)
        in_buckets += h.bucketCount(i);
    EXPECT_EQ(in_buckets + h.underflow() + h.overflow(), 4u);
    EXPECT_EQ(h.totalCount(), 4u);
}

TEST(Histogram, RenderProducesOneLinePerBucket)
{
    Histogram h(0.0, 4.0, 4);
    h.add(1.0);
    std::string text = h.render();
    size_t lines = std::count(text.begin(), text.end(), '\n');
    EXPECT_EQ(lines, 4u);
}

/** %.17g digits: equal strings iff bit-identical doubles. */
std::string
digits(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

TEST(StatAccumulator, MergeOrderDoesNotChangeEmittedBytes)
{
    // Accumulators pooled across runs (e.g. latency samples of several
    // passes) must emit digits that do not depend on the merge order. Samples chosen so naive left-to-right summation
    // differs across orderings (mixed magnitudes). Note merge() uses
    // canonical sorted-order summation, which is a function of the
    // sample multiset alone -- it is NOT required to reproduce the
    // incremental insertion-order total of sequential add() calls,
    // only to be identical across all merge trees.
    const double samples[] = {1e16, 3.14159, -2.5e-8, 7.0,
                              -1e16,  0.125,  9.9e12, 0.75};
    StatAccumulator sequential;
    for (double v : samples)
        sequential.add(v);

    StatAccumulator a, b, c;
    a.add(samples[0]);
    a.add(samples[1]);
    b.add(samples[2]);
    b.add(samples[3]);
    b.add(samples[4]);
    c.add(samples[5]);
    c.add(samples[6]);
    c.add(samples[7]);

    // Three different merge trees over the same three parts.
    StatAccumulator left = a;
    left.merge(b);
    left.merge(c);
    StatAccumulator right = c;
    right.merge(a);
    right.merge(b);
    StatAccumulator nested = b;
    {
        StatAccumulator ca = c;
        ca.merge(a);
        nested.merge(ca);
    }

    // The canonical total: sorted-order summation of the multiset.
    std::vector<double> sorted_samples(samples, samples + 8);
    std::sort(sorted_samples.begin(), sorted_samples.end());
    double canonical = 0.0;
    for (double v : sorted_samples)
        canonical += v;

    for (const StatAccumulator *m : {&right, &nested}) {
        EXPECT_EQ(m->count(), left.count());
        EXPECT_EQ(digits(m->sum()), digits(left.sum()));
        EXPECT_EQ(digits(m->mean()), digits(left.mean()));
        EXPECT_EQ(digits(m->stddev()), digits(left.stddev()));
    }
    EXPECT_EQ(digits(left.sum()), digits(canonical));
    // Order statistics are computed from the sorted sample multiset,
    // so merged accumulators match sequential add() exactly.
    for (const StatAccumulator *m : {&left, &right, &nested}) {
        EXPECT_EQ(digits(m->min()), digits(sequential.min()));
        EXPECT_EQ(digits(m->max()), digits(sequential.max()));
        EXPECT_EQ(digits(m->percentile(50.0)),
                  digits(sequential.percentile(50.0)));
        EXPECT_EQ(digits(m->percentile(99.0)),
                  digits(sequential.percentile(99.0)));
    }
}

TEST(StatAccumulator, MergeEmptySidesAreNeutral)
{
    StatAccumulator empty, filled;
    filled.add(2.0);
    filled.add(4.0);

    StatAccumulator into_filled = filled;
    into_filled.merge(empty);
    EXPECT_EQ(into_filled.count(), 2u);
    EXPECT_EQ(digits(into_filled.sum()), digits(filled.sum()));

    StatAccumulator into_empty = empty;
    into_empty.merge(filled);
    EXPECT_EQ(into_empty.count(), 2u);
    EXPECT_EQ(digits(into_empty.mean()), digits(filled.mean()));
}

TEST(Rng, ForkPinnedGoldenSequences)
{
    // Forked streams (e.g. trace tenant labels): pin the first
    // values of forks 0..2 of the default-constructed generator so
    // the streams stay stable across refactors and platforms.
    Rng parent;
    Rng s0 = parent.fork(0);
    Rng s1 = parent.fork(1);
    Rng s2 = parent.fork(2);
    EXPECT_EQ(s0.nextU64(), 0xdb01a67b04bfc9daULL);
    EXPECT_EQ(s1.nextU64(), 0x235bad2dd6241377ULL);
    EXPECT_EQ(s2.nextU64(), 0x2238c30cb6584038ULL);
}

TEST(Rng, ForkIndependentOfParentState)
{
    // fork() derives from the CONSTRUCTION seed, not the current
    // state: forks taken before and after parent draws (and forks of
    // a fresh generator with the same seed) are identical streams.
    Rng parent(123);
    Rng before = parent.fork(7);
    for (int i = 0; i < 100; ++i)
        (void)parent.nextU64();
    Rng after = parent.fork(7);
    Rng fresh = Rng(123).fork(7);
    for (int i = 0; i < 16; ++i) {
        uint64_t expected = before.nextU64();
        EXPECT_EQ(after.nextU64(), expected);
        EXPECT_EQ(fresh.nextU64(), expected);
    }
}

TEST(Rng, ForkStreamsAreDisjoint)
{
    // Distinct stream ids must yield decorrelated sequences: no value
    // collisions in a 64-value window across 8 streams (a collision
    // among 512 random 64-bit values is astronomically unlikely).
    Rng parent(99);
    std::set<uint64_t> seen;
    size_t produced = 0;
    for (uint64_t stream = 0; stream < 8; ++stream) {
        Rng child = parent.fork(stream);
        for (int i = 0; i < 64; ++i) {
            seen.insert(child.nextU64());
            ++produced;
        }
    }
    EXPECT_EQ(seen.size(), produced);
}

/**
 * A task that throws inside a pool worker used to std::terminate the
 * process (the exception escaped the worker thread's stack). The
 * runner must capture the exceptions, drain the remaining tasks, and
 * rethrow the first task's, in index order, to the caller —
 * identically on the single-worker inline path and the threaded path.
 */
TEST(RunTasks, TaskExceptionsPropagateToCaller)
{
    for (int threads : {1, 4}) {
        std::atomic<int> ran{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 16; ++i) {
            tasks.push_back([&ran, i]() {
                ++ran;
                if (i == 3)
                    throw std::runtime_error("task 3 failed");
                if (i == 9)
                    throw std::runtime_error("task 9 failed");
            });
        }
        try {
            runTasks(tasks, threads);
            FAIL() << "expected the task exception to propagate "
                      "(threads="
                   << threads << ")";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "task 3 failed")
                << "threads=" << threads;
        }
        // The failure must not strand unfinished tasks.
        EXPECT_EQ(ran.load(), 16) << "threads=" << threads;
    }
}

TEST(RunTasks, StartsNoMoreWorkersThanTasksAndTheCallerIsOne)
{
    // The first taskWorkers() tasks wait until all of them have
    // started, so each worker holds one of them: the threads that ran
    // tasks are exactly the workers, the caller among them.
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    const std::pair<int, size_t> cases[] = {
        {1, 3}, {2, 3}, {4, 3}, {16, 3}, {16, 1}, {0, 8}, {0, 1}};
    for (const auto &[threads, count] : cases) {
        const int workers = taskWorkers(threads, count);
        EXPECT_EQ(workers,
                  static_cast<int>(std::min(
                      static_cast<size_t>(threads > 0 ? threads
                                                      : std::max(1, cores)),
                      count)))
            << "threads=" << threads << " tasks=" << count;
        std::atomic<int> started{0};
        std::vector<std::thread::id> ran_on(count);
        std::vector<std::function<void()>> tasks;
        for (size_t i = 0; i < count; ++i) {
            tasks.push_back([&, i] {
                ran_on[i] = std::this_thread::get_id();
                if (static_cast<int>(i) >= workers)
                    return;
                ++started;
                const WallTimer waited;
                while (started < workers && waited.seconds() < 10.0)
                    std::this_thread::yield();
            });
        }
        runTasks(tasks, threads);
        const std::set<std::thread::id> ids(ran_on.begin(), ran_on.end());
        EXPECT_EQ(static_cast<int>(ids.size()), workers)
            << "threads=" << threads << " tasks=" << count;
        EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u)
            << "threads=" << threads << " tasks=" << count;
    }
}

#if defined(__linux__) && !defined(HELIX_SANITIZED)
/**
 * Death-test child: caps the address space just above what the
 * process maps, so no thread stack fits, then runs 16 tasks on 4
 * workers. Exits 0 when every task ran on the caller and a thread
 * still cannot start afterwards (the cap held), non-zero otherwise.
 */
[[noreturn]] void
runTasksWithoutRoomForThreads()
{
    long pages = 0;
    std::FILE *statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr || std::fscanf(statm, "%ld", &pages) != 1)
        std::_Exit(2);
    std::fclose(statm);
    std::atomic<int> ran{0};
    const std::vector<std::function<void()>> tasks(16, [&ran] { ++ran; });
    rlimit cap{};
    if (getrlimit(RLIMIT_AS, &cap) != 0)
        std::_Exit(2);
    // Room for the heap to grow a little, not for an 8 MB stack.
    cap.rlim_cur = static_cast<rlim_t>(pages) *
                       static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                   256 * 1024;
    if (setrlimit(RLIMIT_AS, &cap) != 0)
        std::_Exit(2);
    runTasks(tasks, 4);
    if (ran != 16)
        std::_Exit(3);
    try {
        std::thread probe([] {});
        probe.join();
    } catch (const std::system_error &) {
        std::_Exit(0);
    }
    std::_Exit(4);
}
#endif

TEST(RunTasksDeathTest, ThreadsThatCannotStartLeaveTheirTasksToTheCaller)
{
    // A thread that fails to start used to leave joinable threads in a
    // vector being destroyed, which std::terminates. The child re-runs
    // this binary, so no thread stack is cached from earlier tests.
#if defined(__linux__) && !defined(HELIX_SANITIZED)
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(runTasksWithoutRoomForThreads(),
                ::testing::ExitedWithCode(0), "");
#else
    GTEST_SKIP() << "needs Linux and a build without address or "
                    "thread sanitizers";
#endif
}

} // namespace
} // namespace helix
