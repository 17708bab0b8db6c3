/**
 * @file
 * Tests for the model and cluster substrates: parameter counts against
 * published sizes, KV/activation arithmetic, GPU catalog values
 * (Table 3), cluster generators (Sec. 6.2 setups), link classes and
 * overrides, and the analytic profiler's monotonicity and consistency
 * properties.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "exp/experiment.h"
#include "model/transformer.h"

namespace helix {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;
using model::TransformerSpec;

TEST(Transformer, Llama70bParameterCount)
{
    TransformerSpec spec = model::catalog::llama70b();
    double params = static_cast<double>(spec.totalParams());
    // Published size: ~70 billion parameters.
    EXPECT_NEAR(params / 1e9, 70.0, 2.0);
    EXPECT_EQ(spec.numLayers, 80);
}

TEST(Transformer, Llama30bParameterCount)
{
    TransformerSpec spec = model::catalog::llama30b();
    double params = static_cast<double>(spec.totalParams());
    // Published size: ~32.5 billion parameters.
    EXPECT_NEAR(params / 1e9, 32.5, 1.5);
}

TEST(Transformer, Gpt3ParameterCount)
{
    double params =
        static_cast<double>(model::catalog::gpt3_175b().totalParams());
    EXPECT_NEAR(params / 1e9, 175.0, 10.0);
}

TEST(Transformer, Llama405bParameterCount)
{
    double params =
        static_cast<double>(model::catalog::llama3_405b().totalParams());
    EXPECT_NEAR(params / 1e9, 405.0, 15.0);
}

TEST(Transformer, Grok314bParameterCount)
{
    double params =
        static_cast<double>(model::catalog::grok1_314b().totalParams());
    EXPECT_NEAR(params / 1e9, 314.0, 20.0);
}

TEST(Transformer, ActivationBytesMatchFig2)
{
    // Fig. 2 uses a 16 KB activation: hidden 8192 at FP16.
    TransformerSpec spec = model::catalog::llama70b();
    EXPECT_EQ(spec.activationBytesPerToken(), 16384);
}

TEST(Transformer, GqaShrinksKvCache)
{
    TransformerSpec dense = model::catalog::llama30b(); // MHA
    TransformerSpec gqa = model::catalog::llama70b();   // 8 KV heads
    // 70B GQA: 2 * 8 heads * 128 dim * 2 bytes = 4096 per token-layer.
    EXPECT_EQ(gqa.kvBytesPerTokenPerLayer(), 4096);
    // 30B MHA: 2 * hidden * 2 bytes.
    EXPECT_EQ(dense.kvBytesPerTokenPerLayer(),
              2LL * dense.hiddenSize * 2);
}

TEST(Transformer, FlopsScaleWithParams)
{
    TransformerSpec spec = model::catalog::llama70b();
    EXPECT_DOUBLE_EQ(spec.flopsPerTokenPerLayer(),
                     2.0 * spec.paramsPerLayer());
    EXPECT_GT(spec.attentionFlopsPerToken(1000),
              spec.attentionFlopsPerToken(10));
}

TEST(GpuCatalog, Table3Values)
{
    auto h100 = cluster::gpus::h100();
    EXPECT_DOUBLE_EQ(h100.tflopsFp16, 1979.0);
    EXPECT_DOUBLE_EQ(h100.memoryGiB, 80.0);
    auto a100 = cluster::gpus::a100_40();
    EXPECT_DOUBLE_EQ(a100.tflopsFp16, 312.0);
    EXPECT_DOUBLE_EQ(a100.memBandwidthGBs, 1555.0);
    auto l4 = cluster::gpus::l4();
    EXPECT_DOUBLE_EQ(l4.tflopsFp16, 242.0);
    EXPECT_DOUBLE_EQ(l4.memoryGiB, 24.0);
    auto t4 = cluster::gpus::t4();
    EXPECT_DOUBLE_EQ(t4.tflopsFp16, 65.0);
    EXPECT_DOUBLE_EQ(t4.memoryGiB, 16.0);
    EXPECT_EQ(cluster::gpus::all().size(), 6u);
}

TEST(GpuCatalog, EightL4sMatchOneH100)
{
    // The paper's Table 3 observation.
    EXPECT_GE(8 * cluster::gpus::l4().tflopsFp16,
              0.95 * cluster::gpus::h100().tflopsFp16);
}

TEST(ClusterSetups, SingleCluster24Composition)
{
    ClusterSpec c = cluster::setups::singleCluster24();
    EXPECT_EQ(c.numNodes(), 24);
    int a100 = 0;
    int l4 = 0;
    int t4 = 0;
    for (int i = 0; i < c.numNodes(); ++i) {
        const std::string &name = c.node(i).gpu.name;
        a100 += name == "A100";
        l4 += name == "L4";
        t4 += name == "T4";
    }
    EXPECT_EQ(a100, 4);
    EXPECT_EQ(l4, 8);
    EXPECT_EQ(t4, 12);
    // 10 Gb/s everywhere.
    EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidthBps, 10e9);
    EXPECT_DOUBLE_EQ(c.link(cluster::kCoordinator, 0).bandwidthBps,
                     10e9);
}

TEST(ClusterSetups, GeoDistributedRegionsAndLinks)
{
    ClusterSpec c = cluster::setups::geoDistributed24();
    EXPECT_EQ(c.numNodes(), 24);
    // Find one intra-region and one cross-region pair.
    int r0 = -1;
    int r1 = -1;
    int r0b = -1;
    for (int i = 0; i < c.numNodes(); ++i) {
        if (c.node(i).region == 0) {
            if (r0 < 0)
                r0 = i;
            else if (r0b < 0)
                r0b = i;
        } else if (c.node(i).region == 1 && r1 < 0) {
            r1 = i;
        }
    }
    ASSERT_GE(r0, 0);
    ASSERT_GE(r0b, 0);
    ASSERT_GE(r1, 0);
    EXPECT_DOUBLE_EQ(c.link(r0, r0b).bandwidthBps, 10e9);
    EXPECT_DOUBLE_EQ(c.link(r0, r1).bandwidthBps, 100e6);
    EXPECT_DOUBLE_EQ(c.link(r0, r1).latencyS, 50e-3);
    EXPECT_EQ(c.coordinatorRegion(), 0);
}

TEST(ClusterSetups, HighHeterogeneity42Composition)
{
    ClusterSpec c = cluster::setups::highHeterogeneity42();
    EXPECT_EQ(c.numNodes(), 42);
    int multi_gpu = 0;
    for (int i = 0; i < c.numNodes(); ++i)
        multi_gpu += c.node(i).numGpus > 1;
    EXPECT_EQ(multi_gpu, 14); // 4 2xL4 + 6 2xT4 + 4 4xT4
}

TEST(ClusterSetups, SummaryString)
{
    ClusterSpec c = cluster::setups::plannerCluster10();
    EXPECT_EQ(c.summary(), "4xL4 + 6xT4 (10 nodes)");
}

/** FNV-1a over (bandwidth, latency) of every ordered pair of distinct
 *  endpoints, coordinator first, in row-major order. */
uint64_t
linkDigest(const ClusterSpec &c)
{
    uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](double value) {
        unsigned char bytes[sizeof value];
        std::memcpy(bytes, &value, sizeof value);
        for (unsigned char b : bytes) {
            hash ^= b;
            hash *= 1099511628211ull;
        }
    };
    for (int from = cluster::kCoordinator; from < c.numNodes(); ++from) {
        for (int to = cluster::kCoordinator; to < c.numNodes(); ++to) {
            if (from == to)
                continue;
            mix(c.link(from, to).bandwidthBps);
            mix(c.link(from, to).latencyS);
        }
    }
    return hash;
}

TEST(ClusterLinks, ClassTableMatchesTheDenseMatrix)
{
    // Digests of the full (N+1)^2 link matrix the setups and generator
    // presets filled before links were stored by class, taken from
    // that matrix; the class table must give every pair the same link.
    const struct
    {
        const char *name;
        uint64_t digest;
    } cases[] = {
        {"single24", 0x6a413b0112f46023ull},
        {"geo24", 0xcc70fdffe74025b3ull},
        {"hetero42", 0x8f480e5505e9f71bull},
        {"planner10", 0xfe52ebf9f503a19bull},
        {"gen:homogeneous:50", 0x8002b347fc05aa7bull},
        {"gen:two-tier:50", 0x8002b347fc05aa7bull},
        {"gen:long-tail-heterogeneous:50", 0x8002b347fc05aa7bull},
        {"gen:geo-distributed:50", 0x456050fd1d0cb473ull},
        {"gen:geo-distributed:130:7", 0xe17d1bdafcec1a33ull},
    };
    for (const auto &tc : cases) {
        auto c = exp::clusterByName(tc.name);
        ASSERT_TRUE(c.has_value()) << tc.name;
        EXPECT_EQ(linkDigest(*c), tc.digest) << tc.name;
        EXPECT_TRUE(c->linkOverrides().empty()) << tc.name;
    }
}

TEST(ClusterLinks, OverridesTakePrecedenceAndLaterWins)
{
    ClusterSpec c;
    for (int i = 0; i < 4; ++i) {
        NodeSpec node;
        node.name = "n" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        node.region = i % 2;
        c.addNode(std::move(node));
    }
    c.connectRegions({10e9, 1e-3}, {100e6, 50e-3}, 1);
    EXPECT_DOUBLE_EQ(c.link(cluster::kCoordinator, 1).bandwidthBps, 10e9);
    EXPECT_DOUBLE_EQ(c.link(cluster::kCoordinator, 0).bandwidthBps,
                     100e6);
    EXPECT_DOUBLE_EQ(c.link(0, 2).latencyS, 1e-3);

    // Out of order, with a repeat: sorted once, the later link wins.
    c.setLinks({{2, 0, {1e6, 0.5}},
                {0, 1, {2e6, 0.25}},
                {2, 0, {3e6, 0.125}}});
    c.setLink(cluster::kCoordinator, 3, {4e6, 0.0625});
    c.setLink(0, 1, {5e6, 0.03125});
    EXPECT_DOUBLE_EQ(c.link(2, 0).bandwidthBps, 3e6);
    EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidthBps, 5e6);
    EXPECT_DOUBLE_EQ(c.link(cluster::kCoordinator, 3).latencyS, 0.0625);
    EXPECT_DOUBLE_EQ(c.link(0, 2).bandwidthBps, 10e9); // untouched
    ASSERT_EQ(c.linkOverrides().size(), 3u);
    EXPECT_EQ(c.linkOverrides()[0].from, cluster::kCoordinator);
    EXPECT_EQ(c.linkOverrides()[1].from, 0);
    EXPECT_EQ(c.linkOverrides()[2].from, 2);

    // Resetting the classes drops every override.
    c.setUniformLinks(1e9, 2e-3);
    EXPECT_TRUE(c.linkOverrides().empty());
    EXPECT_DOUBLE_EQ(c.link(2, 0).bandwidthBps, 1e9);
}

TEST(NodeSpec, MultiGpuAggregation)
{
    NodeSpec node;
    node.gpu = cluster::gpus::t4();
    node.numGpus = 4;
    EXPECT_DOUBLE_EQ(node.totalTflops(), 4 * 65.0);
    EXPECT_EQ(node.totalMemoryBytes(), 4 * node.gpu.memoryBytes());
}

class ProfilerTest : public ::testing::Test
{
  protected:
    TransformerSpec model_spec = model::catalog::llama70b();
    Profiler profiler{model_spec};
    NodeSpec a100{"a100", cluster::gpus::a100_40(), 1, 0};
    NodeSpec t4{"t4", cluster::gpus::t4(), 1, 0};
    NodeSpec l4{"l4", cluster::gpus::l4(), 1, 0};
};

TEST_F(ProfilerTest, MaxLayersHonorsHalfVramRule)
{
    int layers = profiler.maxLayers(a100);
    // Weights for that many layers fit in half the usable VRAM.
    double usable = 0.9 * a100.totalMemoryBytes();
    EXPECT_LE(layers * model_spec.layerBytes(), usable * 0.5);
    EXPECT_GT((layers + 1) * model_spec.layerBytes(), usable * 0.5);
}

TEST_F(ProfilerTest, HardMaxExceedsSoftMax)
{
    EXPECT_GT(profiler.hardMaxLayers(a100), profiler.maxLayers(a100));
    EXPECT_LE(profiler.hardMaxLayers(a100), model_spec.numLayers);
}

TEST_F(ProfilerTest, KvCapacityDecreasesWithLayers)
{
    int64_t kv4 = profiler.kvCapacityBytes(a100, 4);
    int64_t kv8 = profiler.kvCapacityBytes(a100, 8);
    EXPECT_GT(kv4, kv8);
    EXPECT_GT(kv8, 0);
}

TEST_F(ProfilerTest, ThroughputOrderingMatchesHardware)
{
    // At the same layer count, A100 beats both commodity GPUs. L4 and
    // T4 share the same 300 GB/s memory bandwidth, so in the
    // memory-bound decode regime L4 is no worse but may tie.
    double ta = profiler.decodeThroughput(a100, 4);
    double tl = profiler.decodeThroughput(l4, 4);
    double tt = profiler.decodeThroughput(t4, 4);
    EXPECT_GT(ta, tl);
    EXPECT_GE(tl, tt);
}

TEST_F(ProfilerTest, ThroughputZeroBeyondHardLimit)
{
    int hard = profiler.hardMaxLayers(t4);
    EXPECT_GT(profiler.decodeThroughput(t4, hard), 0.0);
    EXPECT_DOUBLE_EQ(profiler.decodeThroughput(t4, hard + 1), 0.0);
    EXPECT_DOUBLE_EQ(profiler.decodeThroughput(t4, 0), 0.0);
}

TEST_F(ProfilerTest, DecodeIterationMonotoneInBatchAndLayers)
{
    double t1 = profiler.decodeIterationSeconds(a100, 4, 8, 800);
    double t2 = profiler.decodeIterationSeconds(a100, 4, 64, 800);
    double t3 = profiler.decodeIterationSeconds(a100, 8, 8, 800);
    EXPECT_LE(t1, t2);
    EXPECT_LT(t1, t3);
}

TEST_F(ProfilerTest, LinkTokenCapacityMatchesFig2Arithmetic)
{
    // Fig. 2: a link's capacity is bandwidth / per-token payload.
    cluster::LinkSpec link{10e9, 1e-3}; // 10 Gb/s
    double act = profiler.linkTokensPerSecond(
        link, profiler.activationBytes());
    EXPECT_NEAR(act, 10e9 / 8.0 / 16384.0, 1.0);
    double tok = profiler.linkTokensPerSecond(link,
                                              profiler.tokenBytes());
    EXPECT_NEAR(tok, 10e9 / 8.0 / 4.0, 1.0);
}

TEST_F(ProfilerTest, UpperBoundPositiveAndFinite)
{
    ClusterSpec c = cluster::setups::singleCluster24();
    double bound = profiler.throughputUpperBound(c);
    EXPECT_GT(bound, 0.0);
    EXPECT_LT(bound, 1e7);
}

TEST(Profiler, ThirtyBFitsMoreLayersThanSeventyB)
{
    NodeSpec t4{"t4", cluster::gpus::t4(), 1, 0};
    Profiler p30(model::catalog::llama30b());
    Profiler p70(model::catalog::llama70b());
    EXPECT_GT(p30.maxLayers(t4), p70.maxLayers(t4));
}

} // namespace
} // namespace helix
