/**
 * @file
 * Tests for the io serialization module (round trips, malformed-input
 * rejection, file I/O) and the partitioned planner (the paper's
 * Sec. 4.5 scaling path).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "io/serialization.h"
#include "model/transformer.h"
#include "placement/partitioned_planner.h"
#include "placement/placement_graph.h"

namespace helix {
namespace {

TEST(IoCluster, RoundTripsNodesAndLinks)
{
    cluster::ClusterSpec original =
        cluster::setups::geoDistributed24();
    std::string text = io::clusterToString(original);
    io::ParseError error;
    auto parsed = io::clusterFromString(text, error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    ASSERT_EQ(parsed->numNodes(), original.numNodes());
    for (int i = 0; i < original.numNodes(); ++i) {
        EXPECT_EQ(parsed->node(i).name, original.node(i).name);
        EXPECT_EQ(parsed->node(i).gpu.name, original.node(i).gpu.name);
        EXPECT_DOUBLE_EQ(parsed->node(i).gpu.tflopsFp16,
                         original.node(i).gpu.tflopsFp16);
        EXPECT_EQ(parsed->node(i).numGpus, original.node(i).numGpus);
        EXPECT_EQ(parsed->node(i).region, original.node(i).region);
    }
    // Spot-check links including coordinator links.
    for (int from : {cluster::kCoordinator, 0, 5, 23}) {
        for (int to : {cluster::kCoordinator, 0, 11, 23}) {
            if (from == to)
                continue;
            EXPECT_DOUBLE_EQ(parsed->link(from, to).bandwidthBps,
                             original.link(from, to).bandwidthBps);
            EXPECT_DOUBLE_EQ(parsed->link(from, to).latencyS,
                             original.link(from, to).latencyS);
        }
    }
}

TEST(IoCluster, NamesWithSpacesAndHashesEscaped)
{
    cluster::ClusterSpec clus;
    cluster::NodeSpec node;
    node.name = "my node";
    node.gpu = cluster::gpus::t4();
    node.gpu.name = "RTX#4090"; // '#' would start a comment
    clus.addNode(std::move(node));
    clus.setUniformLinks(1e9, 1e-3);
    io::ParseError error;
    auto parsed = io::clusterFromString(io::clusterToString(clus), error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    EXPECT_EQ(parsed->node(0).name, "my_node");
    EXPECT_EQ(parsed->node(0).gpu.name, "RTX_4090");
}

TEST(IoPlacement, RoundTrips)
{
    placement::ModelPlacement placement;
    placement.nodes = {{0, 10}, {10, 5}, {0, 0}, {15, 45}};
    io::ParseError error;
    auto parsed =
        io::placementFromString(io::placementToString(placement), error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    EXPECT_EQ(*parsed, placement);
}

// --- Structured ParseError reporting --------------------------------

TEST(IoParseErrors, ClusterReportsExactLineAndMessage)
{
    io::ParseError error;
    EXPECT_FALSE(io::clusterFromString("", error).has_value());
    EXPECT_EQ(error.line, 0);
    EXPECT_EQ(error.message,
              "empty input; expected 'cluster v1' header");

    EXPECT_FALSE(io::clusterFromString("cluster v2\n", error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message,
              "cluster version 'v2' not supported (expected v1)");

    EXPECT_FALSE(io::clusterFromString(
        "cluster v1\n"
        "node a T4 65 16 300 70 1 0\n"
        "bogus\n",
        error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message,
              "unknown record 'bogus' (expected 'node' or 'link')");

    EXPECT_FALSE(io::clusterFromString("cluster v1\n"
                                       "node incomplete\n",
                                       error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "node record needs 8 fields (name gpu tflops memGiB "
              "bwGBs powerW gpus region), got 1");

    EXPECT_FALSE(io::clusterFromString(
        "cluster v1\n"
        "node a T4 sixty-five 16 300 70 1 0\n",
        error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message, "node record has a non-numeric field");

    // Comments and blank lines don't shift reported line numbers.
    EXPECT_FALSE(io::clusterFromString(
        "cluster v1\n"
        "# a comment\n"
        "node a T4 65 16 300 70 1 0\n"
        "\n"
        "link 0 7 1e9 0.001\n",
        error));
    EXPECT_EQ(error.line, 5);
    EXPECT_EQ(error.message,
              "link endpoints 0 -> 7 out of range for 1 nodes");
    EXPECT_EQ(error.str(),
              "line 5: link endpoints 0 -> 7 out of range for 1 "
              "nodes");
}

TEST(IoParseErrors, PlacementReportsExactLineAndMessage)
{
    io::ParseError error;
    EXPECT_FALSE(io::placementFromString("", error));
    EXPECT_EQ(error.line, 0);
    EXPECT_EQ(error.message,
              "empty input; expected 'placement v1' header");

    EXPECT_FALSE(io::placementFromString("placement v1 2\n0 4\n",
                                         error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message, "expected 2 node lines, got 1");

    EXPECT_FALSE(io::placementFromString("placement v1 1\n-2 4\n",
                                         error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "placement start/count must be non-negative");

    // start + count is the interval's end, an int: it may not
    // overflow, while the largest representable end still parses.
    EXPECT_FALSE(io::placementFromString(
        "placement v1 2\n0 4\n2147483647 5\n", error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message,
              "placement start + count must not exceed 2147483647");
    EXPECT_FALSE(io::placementFromString(
        "placement v1 1\n2147483646 2\n", error));
    EXPECT_EQ(error.line, 2);
    EXPECT_TRUE(io::placementFromString("placement v1 1\n2147483646 1\n",
                                        error));

    EXPECT_FALSE(io::placementFromString("placement v1 1\n0 4\n5 5\n",
                                         error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message, "trailing content after 1 node lines");

    EXPECT_FALSE(io::placementFromString("placement v1 many\n",
                                         error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message, "invalid node count 'many'");
}

TEST(IoParseErrors, PlacementHeaderCountAllocatesNothing)
{
    // A header may claim any int count: nodes are added as their
    // lines parse, so a short file is a ParseError on the header
    // line, not a header-sized allocation.
    io::ParseError error;
    EXPECT_FALSE(io::placementFromString("placement v1 2000000000\n",
                                         error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message, "expected 2000000000 node lines, got 0");

    EXPECT_FALSE(io::placementFromString(
        "placement v1 2147483647\n0 4\n4 4\n", error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message, "expected 2147483647 node lines, got 2");
}

TEST(IoParseErrors, CommentsAndBlankLinesAreAccepted)
{
    io::ParseError error;
    auto parsed = io::clusterFromString(
        "# generated artifact\n"
        "cluster v1\n"
        "\n"
        "node a T4 65 16 300 70 1 0   # the only node\n",
        error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    EXPECT_EQ(parsed->numNodes(), 1);
    EXPECT_EQ(parsed->node(0).name, "a");

    auto placement_parsed = io::placementFromString("placement v1 1\n"
                                                    "# start count\n"
                                                    "\n"
                                                    "0 10  # all\n",
                                                    error);
    ASSERT_TRUE(placement_parsed.has_value()) << error.str();
    EXPECT_EQ((*placement_parsed)[0].count, 10);
}

TEST(IoFiles, WriteAndReadBack)
{
    std::string path = "/tmp/helix_io_test.txt";
    EXPECT_TRUE(io::writeFile(path, "hello helix\n"));
    auto text = io::readFile(path);
    ASSERT_TRUE(text.has_value());
    EXPECT_EQ(*text, "hello helix\n");
    std::remove(path.c_str());
    EXPECT_FALSE(io::readFile("/nonexistent/helix").has_value());
    EXPECT_FALSE(io::writeFile("/nonexistent/dir/file", "x"));
}

TEST(IoRoundTrip, ResaveIsByteIdentical)
{
    // save -> load -> re-save must reproduce the exact bytes, so
    // artifacts can be diffed and checksummed across runs.
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    std::string cluster_text = io::clusterToString(clus);
    io::ParseError error;
    auto cluster_parsed = io::clusterFromString(cluster_text, error);
    ASSERT_TRUE(cluster_parsed.has_value());
    EXPECT_EQ(io::clusterToString(*cluster_parsed), cluster_text);

    placement::ModelPlacement placement;
    placement.nodes = {{0, 10}, {10, 5}, {0, 0}, {15, 45}};
    std::string placement_text = io::placementToString(placement);
    auto placement_parsed =
        io::placementFromString(placement_text, error);
    ASSERT_TRUE(placement_parsed.has_value());
    EXPECT_EQ(io::placementToString(*placement_parsed),
              placement_text);

}

TEST(IoEndToEnd, ClusterPlacementArtifacts)
{
    // Full artifact cycle: serialize cluster + planner output,
    // reload, and verify the reloaded placement evaluates identically.
    cluster::ClusterSpec clus = cluster::setups::plannerCluster10();
    cluster::Profiler prof(model::catalog::llama30b());
    placement::PetalsPlanner planner;
    placement::ModelPlacement placement = planner.plan(clus, prof);

    io::ParseError error;
    auto clus2 = io::clusterFromString(io::clusterToString(clus), error);
    auto placement2 =
        io::placementFromString(io::placementToString(placement), error);
    ASSERT_TRUE(clus2 && placement2);

    placement::PlacementGraph g1(clus, prof, placement);
    placement::PlacementGraph g2(*clus2, prof, *placement2);
    EXPECT_DOUBLE_EQ(g1.maxThroughput(), g2.maxThroughput());
}

// --- Partitioned planner ---

TEST(PartitionByRegion, CoversAllNodesOnce)
{
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    cluster::Profiler prof(model::catalog::llama70b());
    auto partitions = placement::partitionByRegion(clus, prof, 16);
    std::vector<int> seen(clus.numNodes(), 0);
    for (const auto &partition : partitions) {
        for (int node : partition)
            ++seen[node];
    }
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(PartitionByRegion, EveryPartitionCanHoldTheModel)
{
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    cluster::Profiler prof(model::catalog::llama70b());
    auto partitions = placement::partitionByRegion(clus, prof, 16);
    for (const auto &partition : partitions) {
        int capacity = 0;
        for (int node : partition)
            capacity += prof.maxLayers(clus.node(node));
        EXPECT_GE(capacity, prof.modelSpec().numLayers);
    }
}

TEST(PartitionByRegion, SplitsLargeHomogeneousGroups)
{
    cluster::ClusterSpec clus = cluster::setups::highHeterogeneity42();
    cluster::Profiler prof(model::catalog::llama70b());
    auto partitions = placement::partitionByRegion(clus, prof, 12);
    EXPECT_GT(partitions.size(), 1u);
    for (const auto &partition : partitions) {
        // Cap may be exceeded only by capacity-driven merging, which
        // keeps partitions near the cap, not unbounded.
        EXPECT_LE(partition.size(), 24u);
    }
}

TEST(SubCluster, KeepsEveryMemberLinkFromClassesOrOverrides)
{
    // geo24 stores region classes; its cluster v1 round trip stores
    // one override per pair. Either way the sub-cluster's links are
    // the parent's, across regions and in member order.
    cluster::ClusterSpec classes = cluster::setups::geoDistributed24();
    io::ParseError error;
    auto parsed =
        io::clusterFromString(io::clusterToString(classes), error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    const placement::Partition members = {17, 0, 9, 5, 23};
    const int m = static_cast<int>(members.size());
    auto parent = [&](int k) {
        return k == cluster::kCoordinator ? cluster::kCoordinator
                                          : members[k];
    };
    for (const cluster::ClusterSpec *clus : {&classes, &*parsed}) {
        cluster::ClusterSpec sub = placement::subCluster(*clus, members);
        ASSERT_EQ(sub.numNodes(), m);
        EXPECT_EQ(sub.linkOverrides().size(),
                  clus->linkOverrides().empty() ? 0u
                                                : size_t(m + 1) * m);
        for (int a = cluster::kCoordinator; a < m; ++a) {
            if (a >= 0) {
                EXPECT_EQ(sub.node(a).name, clus->node(members[a]).name);
            }
            for (int b = cluster::kCoordinator; b < m; ++b) {
                if (a == b)
                    continue;
                const cluster::LinkSpec &want =
                    clus->link(parent(a), parent(b));
                EXPECT_EQ(sub.link(a, b).bandwidthBps, want.bandwidthBps)
                    << a << " -> " << b;
                EXPECT_EQ(sub.link(a, b).latencyS, want.latencyS)
                    << a << " -> " << b;
            }
        }
    }
}

TEST(PartitionedPlanner, ProducesValidPlacement)
{
    cluster::ClusterSpec clus = cluster::setups::highHeterogeneity42();
    cluster::Profiler prof(model::catalog::llama70b());
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 3.0;
    placement::PartitionedPlanner planner(config);
    placement::ModelPlacement placement = planner.plan(clus, prof);
    EXPECT_TRUE(placement::placementValid(placement, clus, prof));
    EXPECT_GT(planner.partitions().size(), 1u);
    placement::PlacementGraph graph(clus, prof, placement);
    EXPECT_GT(graph.maxThroughput(), 0.0);
}

TEST(PartitionedPlanner, PartitionsServeIndependently)
{
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    cluster::Profiler prof(model::catalog::llama70b());
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::PartitionedPlanner planner(config);
    placement::ModelPlacement placement = planner.plan(clus, prof);
    // Each partition's members tile the model among themselves: every
    // partition must contain at least one entry (layer 0) and one
    // exit (layer L) node.
    for (const auto &partition : planner.partitions()) {
        bool has_entry = false;
        bool has_exit = false;
        for (int node : partition) {
            has_entry |= placement[node].count > 0 &&
                         placement[node].start == 0;
            has_exit |= placement[node].count > 0 &&
                        placement[node].end() ==
                            prof.modelSpec().numLayers;
        }
        EXPECT_TRUE(has_entry);
        EXPECT_TRUE(has_exit);
    }
}

} // namespace
} // namespace helix
