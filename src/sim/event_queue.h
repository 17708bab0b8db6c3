/**
 * @file
 * The simulator's events, their total order, and the queue that pops
 * them in that order.
 *
 * Event times never go below the time of the last popped event, so the
 * queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
 * 1990) keyed on the IEEE-754 bit pattern of the event time: for
 * non-negative doubles, bit-pattern order is time order. An entry with
 * key k sits in bucket 64 - clz(k ^ last), or in bucket 0 when k equals
 * the last popped key. A pop that finds bucket 0 empty takes the lowest
 * non-empty bucket, makes its minimum key the new last key, and
 * redistributes its entries into lower buckets; bucket 0 then holds
 * exactly the events at the current time, and the pop takes their
 * eventBefore-minimum. The buckets hold 16-byte {key, slot} entries;
 * the events themselves stay in a slot pool with a free list.
 */

#ifndef HELIX_SIM_EVENT_QUEUE_H
#define HELIX_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/compare.h"
#include "util/logging.h"

namespace helix {
namespace sim {

struct WorkItem
{
    int request = -1;
    int stage = 0;
    int numTokens = 0;
    /**
     * Scheduling epoch of the request when the item was created.
     * A node failure bumps the epoch of every affected request;
     * stale items and messages are dropped when dequeued.
     */
    uint32_t epoch = 0;
    bool isPrompt = false;
    /**
     * False for all but the last chunk of a chunked prefill; only
     * the final chunk forwards the request to the next stage.
     */
    bool finalChunk = true;
};

/**
 * Tagged-union event. Trivially copyable and self-contained: the
 * hot loop never allocates per event. BatchDone carries only the
 * node and its epoch; the batch items and durations live in the
 * simulator's node state.
 */
struct Event
{
    enum class Kind : uint8_t
    {
        /** Request item.request arrives at the coordinator. The run
         *  loop keeps only the next arrival in the queue and pushes
         *  its successor when it pops one. */
        Arrival,
        /**
         * Work item delivered to node's queue. The simulator holds
         * every work item sent to a node in the node's inbox, in this
         * kind's eventBefore order, and queues this event (a wake)
         * only for an idle node's earliest pending entry; the wake
         * delivers the inbox up to its own item.
         */
        WorkDelivery,
        /** Output token of item.request reaches the coordinator. */
        TokenDelivery,
        /** The batch running on node completes. */
        BatchDone,
        /** Node fails (churn scenario). */
        NodeFailure,
        /** Node rejoins with empty KV and queue (churn). */
        NodeRecovery,
        /**
         * Control-plane notification that a finished request's KV
         * pages at node can be reclaimed (kvBytes of them). Sent
         * by the coordinator at completion and delivered after the
         * coordinator->node propagation latency, so KV release is
         * a message like every other cross-node effect: a node
         * cannot reuse the pages before the notice could reach it.
         */
        KvRelease,
        /**
         * Fair-share preemption of item.request takes effect: the
         * request's work is dropped and its KV released through
         * the epoch-safe restart machinery, and it rejoins the
         * head of its tenant's admission queue. Scheduled one
         * preemption delay (the minimum link latency) after the
         * decision: the revocation is a control-plane message,
         * and the teardown never runs inside the token handler
         * that made the decision. item.epoch is the request
         * epoch at decision time; a mismatch (or a finished
         * request) makes the event a stale no-op. Appended last
         * so existing kinds keep their eventBefore ranks.
         */
        Preempt,
    };

    double time = 0.0;
    uint64_t seq = 0;
    double kvBytes = 0.0;      // KvRelease: bytes to reclaim
    WorkItem item;             // WorkDelivery / Arrival / Token
    int node = 0;              // WorkDelivery / BatchDone / Failure
    Kind kind = Kind::Arrival;
};
static_assert(sizeof(Event) <= 56, "events stay at most 56 bytes");

/**
 * Total order on events: time first, then a CONTENT key (kind,
 * node, request, stage, epoch), then the scheduling sequence
 * number as a last-resort tie-break. Two distinct events that can
 * coexist in a queue always differ in the content key (a request
 * has at most one in-flight item, a node at most one running
 * batch), so equal-time ties order by what the events are, not by
 * when a handler happened to create them. Symmetric workloads
 * produce exact time ties, so this is what keeps output bytes
 * stable when handlers are reordered.
 */
inline bool
eventBefore(const Event &a, const Event &b)
{
    // Exact: time ties are real (symmetric workloads produce them) and
    // fall through to the content key.
    if (!sameValue(a.time, b.time))
        return a.time < b.time;
    if (a.kind != b.kind)
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    if (a.node != b.node)
        return a.node < b.node;
    if (a.item.request != b.item.request)
        return a.item.request < b.item.request;
    if (a.item.stage != b.item.stage)
        return a.item.stage < b.item.stage;
    if (a.item.epoch != b.item.epoch)
        return a.item.epoch < b.item.epoch;
    // Unreachable for distinct coexisting events (see above); kept so
    // the order stays total for duplicates, e.g. two identical churn
    // entries in the schedule.
    return a.seq < b.seq;
}

/**
 * Monotone priority queue of events: pops in eventBefore order, and
 * every push must be at or after the time of the last pop. Event times
 * must be non-negative (-0.0 counts as 0.0).
 */
class EventQueue
{
  public:
    bool
    empty() const
    {
        return pool.size() == freeSlots.size();
    }

    void
    push(const Event &event)
    {
        const uint64_t key = keyOf(event.time);
        HELIX_ASSERT(key >= lastKey);
        uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<uint32_t>(pool.size());
            pool.push_back(event);
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            pool[slot] = event;
        }
        place({key, slot});
    }

    /** Remove and return the eventBefore-minimum. Requires !empty(). */
    Event
    pop()
    {
        HELIX_ASSERT(!empty());
        if (buckets[0].empty())
            advance();
        // Every entry of bucket 0 has the same time, so only the
        // content key decides.
        std::vector<Entry> &current = buckets[0];
        size_t best = 0;
        for (size_t i = 1; i < current.size(); ++i) {
            if (eventBefore(pool[current[i].slot],
                            pool[current[best].slot]))
                best = i;
        }
        const uint32_t slot = current[best].slot;
        current[best] = current.back();
        current.pop_back();
        freeSlots.push_back(slot);
        return pool[slot];
    }

  private:
    struct Entry
    {
        uint64_t key;
        uint32_t slot;
    };

    static uint64_t
    keyOf(double time)
    {
        const double t = time + 0.0; // -0.0 becomes +0.0
        uint64_t bits;
        std::memcpy(&bits, &t, sizeof bits);
        return bits;
    }

    void
    place(const Entry &entry)
    {
        if (entry.key == lastKey) {
            buckets[0].push_back(entry);
            return;
        }
        const int bucket = 64 - __builtin_clzll(entry.key ^ lastKey);
        buckets[static_cast<size_t>(bucket)].push_back(entry);
        occupied |= uint64_t{1} << (bucket - 1);
    }

    /** Make the lowest non-empty bucket's minimum the last key and
     *  spread that bucket over the lower ones (bucket 0 included). */
    void
    advance()
    {
        const int bucket = 1 + __builtin_ctzll(occupied);
        std::vector<Entry> &spill = buckets[static_cast<size_t>(bucket)];
        lastKey = spill.front().key;
        for (const Entry &entry : spill)
            lastKey = std::min(lastKey, entry.key);
        occupied &= ~(uint64_t{1} << (bucket - 1));
        for (const Entry &entry : spill)
            place(entry);
        spill.clear();
    }

    /** buckets[b] for b >= 1 holds keys whose highest bit differing
     *  from lastKey is bit b - 1; bit b - 1 of occupied is set when
     *  it is non-empty. */
    std::array<std::vector<Entry>, 65> buckets;
    uint64_t occupied = 0;
    uint64_t lastKey = 0;
    std::vector<Event> pool;
    std::vector<uint32_t> freeSlots;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_EVENT_QUEUE_H
