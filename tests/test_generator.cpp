/**
 * @file
 * Tests for the synthetic cluster generators (src/cluster/generator):
 * generation determinism and validity per preset, the documented
 * preset shapes, and registry name parsing.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "cluster/generator.h"
#include "exp/spec.h"
#include "io/serialization.h"
#include "placement/planners.h"

namespace helix {
namespace {

cluster::gen::GeneratorConfig
genConfig(const std::string &preset, int nodes, uint64_t seed = 42)
{
    cluster::gen::GeneratorConfig config;
    config.preset = preset;
    config.numNodes = nodes;
    config.seed = seed;
    return config;
}

// --- Generators ------------------------------------------------------

TEST(Generator, EveryPresetGeneratesAPlannableCluster)
{
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(model_spec.has_value());
    cluster::Profiler profiler(*model_spec);
    for (const std::string &preset : cluster::gen::presetNames()) {
        auto clus = cluster::gen::generate(genConfig(preset, 24));
        ASSERT_TRUE(clus.has_value()) << preset;
        EXPECT_EQ(clus->numNodes(), 24) << preset;
        // The link matrix is materialized (links are addressable).
        EXPECT_GE(clus->link(0, 1).bandwidthBps, 0.0) << preset;
        // A deterministic baseline planner covers the model.
        placement::SwarmPlanner swarm;
        auto placement = swarm.plan(*clus, profiler);
        EXPECT_TRUE(
            placement::placementValid(placement, *clus, profiler))
            << preset;
    }
    EXPECT_FALSE(
        cluster::gen::generate(genConfig("warehouse", 24)).has_value());
    EXPECT_FALSE(
        cluster::gen::generate(genConfig("homogeneous", 0)).has_value());
}

TEST(Generator, SameSeedIsByteIdenticalDifferentSeedIsNot)
{
    for (const std::string &preset : cluster::gen::presetNames()) {
        auto a = cluster::gen::generate(genConfig(preset, 32, 7));
        auto b = cluster::gen::generate(genConfig(preset, 32, 7));
        ASSERT_TRUE(a && b) << preset;
        EXPECT_EQ(io::clusterToString(*a), io::clusterToString(*b))
            << preset;
    }
    // The randomized presets actually use the seed.
    for (const char *preset :
         {"long-tail-heterogeneous", "geo-distributed"}) {
        auto a = cluster::gen::generate(genConfig(preset, 32, 7));
        auto b = cluster::gen::generate(genConfig(preset, 32, 8));
        ASSERT_TRUE(a && b) << preset;
        EXPECT_NE(io::clusterToString(*a), io::clusterToString(*b))
            << preset;
    }
}

TEST(Generator, PresetShapesMatchTheirDocumentation)
{
    // homogeneous: one GPU type.
    auto homo = cluster::gen::generate(genConfig("homogeneous", 16));
    ASSERT_TRUE(homo.has_value());
    for (int i = 0; i < homo->numNodes(); ++i)
        EXPECT_EQ(homo->node(i).gpu.name, "L4");

    // two-tier: max(1, N/4) A100 head nodes, T4 tail, in that order.
    auto tiered = cluster::gen::generate(genConfig("two-tier", 16));
    ASSERT_TRUE(tiered.has_value());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(tiered->node(i).gpu.name, "A100") << i;
    for (int i = 4; i < 16; ++i)
        EXPECT_EQ(tiered->node(i).gpu.name, "T4") << i;

    // long-tail: more than one GPU type at a reasonable size.
    auto tail = cluster::gen::generate(
        genConfig("long-tail-heterogeneous", 48, 7));
    ASSERT_TRUE(tail.has_value());
    std::set<std::string> types;
    for (int i = 0; i < tail->numNodes(); ++i)
        types.insert(tail->node(i).gpu.name);
    EXPECT_GT(types.size(), 1u);

    // geo-distributed: the documented region count, round-robin.
    auto geo = cluster::gen::generate(
        genConfig("geo-distributed", 64, 7));
    ASSERT_TRUE(geo.has_value());
    int regions = cluster::gen::geoRegionCount(64);
    EXPECT_EQ(regions, 4);
    std::set<int> seen;
    for (int i = 0; i < geo->numNodes(); ++i) {
        EXPECT_EQ(geo->node(i).region, i % regions) << i;
        seen.insert(geo->node(i).region);
    }
    EXPECT_EQ(static_cast<int>(seen.size()), regions);
    // Inter-region links are the slow WAN tier.
    EXPECT_LT(geo->link(0, 1).bandwidthBps,
              geo->link(0, regions).bandwidthBps);
    EXPECT_EQ(cluster::gen::geoRegionCount(16), 2);
    EXPECT_EQ(cluster::gen::geoRegionCount(1000), 8);
}

TEST(Generator, RegistryNameParsing)
{
    auto config = cluster::gen::parseGeneratorName("gen:two-tier:300:7");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->preset, "two-tier");
    EXPECT_EQ(config->numNodes, 300);
    EXPECT_EQ(config->seed, 7u);

    config = cluster::gen::parseGeneratorName("gen:homogeneous:12");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->seed, 42u); // default

    for (const char *bad :
         {"two-tier:300", "gen:two-tier", "gen:two-tier:0",
          "gen:two-tier:-3", "gen:two-tier:12:x", "gen::12",
          "gen:two-tier:12:7:9"}) {
        EXPECT_FALSE(cluster::gen::parseGeneratorName(bad).has_value())
            << bad;
    }

    // And the exp registry resolves the same names.
    auto clus = exp::clusterByName("gen:two-tier:12:7");
    ASSERT_TRUE(clus.has_value());
    EXPECT_EQ(clus->numNodes(), 12);
    auto direct = cluster::gen::generate(genConfig("two-tier", 12, 7));
    EXPECT_EQ(io::clusterToString(*clus),
              io::clusterToString(*direct));
    EXPECT_FALSE(exp::clusterByName("gen:warehouse:12").has_value());
    EXPECT_FALSE(exp::clusterByName("gen:two-tier:0").has_value());

    // Spec validation reads node counts straight from clusterByName:
    // links are stored by class, so a 1000-node cluster is cheap.
    auto nodeCount = [](const std::string &name) -> std::optional<int> {
        auto resolved = exp::clusterByName(name);
        if (!resolved)
            return std::nullopt;
        return resolved->numNodes();
    };
    EXPECT_EQ(nodeCount("gen:two-tier:1000:7"), std::optional<int>(1000));
    EXPECT_EQ(nodeCount("planner10"), std::optional<int>(10));
    EXPECT_FALSE(nodeCount("gen:warehouse:12").has_value());
    EXPECT_FALSE(nodeCount("gen:two-tier:0").has_value());
    EXPECT_FALSE(nodeCount("nimbus9000").has_value());
}

} // namespace
} // namespace helix
