/**
 * @file
 * The simulator's stage table: every admitted request's pipeline, one
 * contiguous range of stages each. A range returns to a free list of
 * its length when the request finishes or restarts, and the next
 * allocation of that length takes the most recently released one
 * before the table grows, so the table only grows to the set of
 * requests in flight. Live ranges never overlap.
 */

#ifndef HELIX_SIM_STAGE_TABLE_H
#define HELIX_SIM_STAGE_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scheduler/scheduler.h"
#include "util/logging.h"

namespace helix {
namespace sim {

/**
 * One pipeline stage of an admitted request, in the stage table.
 * The layer range mirrors scheduler::PipelineStage.
 */
struct Stage
{
    int node = 0;
    int startLayer = 0;
    int endLayer = 0;
    /**
     * Index in the simulator's links of the hop carrying this stage's
     * output, resolved at admission: to the next stage's node, or from
     * the last stage back to the coordinator.
     */
    uint32_t outLink = 0;
    /**
     * KV bytes the request has actually written at this stage's node.
     * Finish and churn restarts release exactly this, so one request's
     * teardown can never drain KV accounted to others.
     */
    double kvWritten = 0.0;

    [[nodiscard]] int numLayers() const { return endLayer - startLayer; }
};
static_assert(sizeof(Stage) == 24, "stage table entries stay 24 bytes");

class StageTable
{
  public:
    /** A table for pipelines of at most @p max_stages stages. */
    explicit StageTable(int max_stages)
        : freeRanges(static_cast<size_t>(max_stages) + 1)
    {
    }

    Stage &operator[](uint32_t index) { return stages[index]; }

    /** Room for @p count stages: growing within it never copies the
     *  table, which would hold the old and new storage at once, and
     *  room no range reaches is never touched. */
    void reserve(size_t count) { stages.reserve(count); }

    /** First stage of a free @p num_stages range: the last released
     *  one of that length, or a new one at the table's end. */
    uint32_t
    allocate(uint32_t num_stages)
    {
        std::vector<uint32_t> &free_ranges = freeRanges[num_stages];
        if (free_ranges.empty()) {
            const auto first = static_cast<uint32_t>(stages.size());
            stages.resize(stages.size() + num_stages);
            return first;
        }
        const uint32_t first = free_ranges.back();
        free_ranges.pop_back();
        return first;
    }

    /** Return the range [@p first, @p first + @p num_stages) to the
     *  free list of its length. */
    void
    release(uint32_t first, uint32_t num_stages)
    {
        HELIX_ASSERT(num_stages > 0);
        freeRanges[num_stages].push_back(first);
    }

    /** The pipeline of a range, rebuilt into scratch storage that is
     *  valid until the next call. */
    const scheduler::Pipeline &
    pipeline(uint32_t first, uint32_t num_stages)
    {
        scratch.clear();
        for (uint32_t s = 0; s < num_stages; ++s) {
            const Stage &stage = stages[first + s];
            scratch.push_back({stage.node, stage.startLayer, stage.endLayer});
        }
        return scratch;
    }

  private:
    std::vector<Stage> stages;
    /** freeRanges[n]: first stages of released n-stage ranges. */
    std::vector<std::vector<uint32_t>> freeRanges;
    scheduler::Pipeline scratch;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_STAGE_TABLE_H
