/**
 * @file
 * The simulator's inboxes. Work sent to a node waits in the node's
 * inbox, in eventBefore order, and the event queue holds one
 * WorkDelivery (a wake) only for the head of an idle node's inbox: the
 * one delivery that can start a batch. A wake delivers the inbox up to
 * its own entry, and a batch's end delivers what landed while it ran;
 * a node left idle with work in transit queues its new head's wake.
 * Each inbox is a list through one run-wide pool of entries with a
 * free list, so no node allocates storage of its own.
 *
 * The invariant, which checkInboxes HELIX_ASSERTs: free slots plus
 * listed entries cover the pool, every list is linked both ways in
 * eventBefore order, an idle live node's inbox is empty or its head
 * woken, and a dead node's inbox is empty.
 */

#ifndef HELIX_SIM_INBOX_H
#define HELIX_SIM_INBOX_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "util/logging.h"

namespace helix {
namespace sim {

/** Every node's inbox, with the busy state its wake rule reads. */
class InboxPool
{
  public:
    explicit InboxPool(size_t num_nodes) : inboxes(num_nodes) {}

    /** Whether @p node runs a batch. */
    bool busy(int node) const { return inboxes[node].busyUntil >= 0.0; }

    /** @p node runs a batch until @p end (its BatchDone time), or is
     *  idle at -infinity. */
    void setBusyUntil(int node, double end) { inboxes[node].busyUntil = end; }

    /**
     * Put @p item, landing at @p when, into @p node's inbox. Returns
     * whether its wake is due: only the head of an idle node's inbox
     * can start a batch, so work behind it, or sent to a busy node,
     * waits for a wake or the batch's end.
     */
    bool
    send(int node, double when, const WorkItem &item)
    {
        Inbox &inbox = inboxes[node];
        uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<uint32_t>(pool.size());
            pool.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        // Keep the list in eventBefore order. Sends mostly land in time
        // order, so the walk back from the tail is short.
        InboxEntry &entry = pool[slot];
        entry.time = when;
        entry.item = item;
        entry.woken = false;
        const Event delivery = deliveryEvent(node, entry);
        uint32_t after = inbox.tail;
        while (after != kNoEntry &&
               eventBefore(delivery, deliveryEvent(node, pool[after])))
            after = pool[after].prev;
        entry.prev = after;
        if (after == kNoEntry) {
            entry.next = inbox.head;
            inbox.head = slot;
        } else {
            entry.next = pool[after].next;
            pool[after].next = slot;
        }
        if (entry.next == kNoEntry)
            inbox.tail = slot;
        else
            pool[entry.next].prev = slot;
        return slot == inbox.head && inbox.busyUntil < 0.0;
    }

    /** Set @p wake to the wake of @p node's inbox head and mark the
     *  head woken; false when the inbox is empty or its head already
     *  woken. */
    bool
    takeWake(int node, Event &wake)
    {
        const uint32_t head = inboxes[node].head;
        if (head == kNoEntry || pool[head].woken)
            return false;
        pool[head].woken = true;
        wake = deliveryEvent(node, pool[head]);
        return true;
    }

    /** Take @p node's entries that do not rank after @p up_to out of
     *  its inbox, in order, and hand each item to @p on_item, which may
     *  mark the node busy but must not send to it. */
    template <class OnItem>
    void
    deliver(int node, const Event &up_to, OnItem &&on_item)
    {
        Inbox &inbox = inboxes[node];
        while (inbox.head != kNoEntry) {
            const uint32_t slot = inbox.head;
            const InboxEntry &entry = pool[slot];
            if (eventBefore(up_to, deliveryEvent(node, entry)))
                break;
            const WorkItem item = entry.item;
            inbox.head = entry.next;
            freeSlots.push_back(slot);
            on_item(item);
        }
        if (inbox.head == kNoEntry)
            inbox.tail = kNoEntry;
        else
            pool[inbox.head].prev = kNoEntry;
    }

    /** How many of @p node's entries rank before @p up_to, so have
     *  been delivered, with an item that @p counts accepts. */
    template <class Counts>
    int
    deliveredCount(int node, const Event &up_to, Counts &&counts) const
    {
        int count = 0;
        for (uint32_t slot = inboxes[node].head; slot != kNoEntry;
             slot = pool[slot].next) {
            if (!eventBefore(deliveryEvent(node, pool[slot]), up_to))
                break;
            if (counts(pool[slot].item))
                ++count;
        }
        return count;
    }

    /** Empty @p node's inbox and mark it idle: the node failed. */
    void
    clear(int node)
    {
        for (uint32_t slot = inboxes[node].head; slot != kNoEntry;
             slot = pool[slot].next)
            freeSlots.push_back(slot);
        inboxes[node] = Inbox{};
    }

    /** HELIX_ASSERT the invariant. @p nodes is parallel to the inboxes;
     *  an element's `dead` is whether that node is dead. */
    template <class NodeStates>
    void
    checkInboxes(const NodeStates &nodes) const
    {
        size_t listed = 0;
        for (size_t node = 0; node < inboxes.size(); ++node) {
            const Inbox &inbox = inboxes[node];
            const int id = static_cast<int>(node);
            uint32_t prev = kNoEntry;
            for (uint32_t slot = inbox.head; slot != kNoEntry;
                 slot = pool[slot].next) {
                HELIX_ASSERT(pool[slot].prev == prev);
                HELIX_ASSERT(prev == kNoEntry ||
                             eventBefore(deliveryEvent(id, pool[prev]),
                                         deliveryEvent(id, pool[slot])));
                prev = slot;
                ++listed;
            }
            HELIX_ASSERT(prev == inbox.tail);
            // A dead node gets no work; an idle live node's earliest
            // delivery has its wake queued.
            HELIX_ASSERT(!nodes[node].dead || inbox.head == kNoEntry);
            HELIX_ASSERT(inbox.busyUntil >= 0.0 || inbox.head == kNoEntry ||
                         pool[inbox.head].woken);
        }
        HELIX_ASSERT(listed + freeSlots.size() == pool.size());
    }

  private:
    /** End of an inbox list. */
    static constexpr uint32_t kNoEntry = UINT32_MAX;

    /**
     * A work item sent to a node and not yet delivered: the delivery
     * event it stands for, minus the node, and the slots of its
     * neighbours in the node's list. No seq: two deliveries that
     * coexist never share a content key (eventBefore).
     */
    struct InboxEntry
    {
        double time = 0.0;
        WorkItem item;
        uint32_t prev = kNoEntry;
        uint32_t next = kNoEntry;
        /** Its wake is queued (in the padding). */
        bool woken = false;
    };
    static_assert(sizeof(InboxEntry) == 40, "inbox entries stay 40 bytes");

    /** A node's inbox: a doubly-linked list through pool. */
    struct Inbox
    {
        /** When the running batch ends (its BatchDone time);
         *  -infinity while the node is idle. Event times are
         *  non-negative, so busyUntil < 0 is the idle test. */
        double busyUntil = -std::numeric_limits<double>::infinity();
        uint32_t head = kNoEntry;
        uint32_t tail = kNoEntry;
    };
    static_assert(sizeof(Inbox) == 16, "inboxes stay 16 bytes");

    /** The WorkDelivery event an entry of @p node stands for. Set
     *  field by field: as one braced aggregate, GCC 12 made the inbox
     *  walks about 6% slower (serve-hetero42 run_s, 4-vCPU host). */
    static Event
    deliveryEvent(int node, const InboxEntry &entry)
    {
        Event ev;
        ev.time = entry.time;
        ev.kind = Event::Kind::WorkDelivery;
        ev.node = node;
        ev.item = entry.item;
        return ev;
    }

    std::vector<Inbox> inboxes;
    /** Every node's entries, and the pool's free slots. */
    std::vector<InboxEntry> pool;
    std::vector<uint32_t> freeSlots;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_INBOX_H
