/**
 * @file
 * The simulator's inboxes: each node's work list. Work sent to a node
 * waits in its inbox until delivered, and delivered work waits there
 * too, as the node's queue, until a batch takes it. The queue and the
 * pending decode items form one list, the queue being the prefix
 * before a firstPending cursor, in delivery order; prompts in transit
 * wait in a second list, so a send never walks past a bulk prompt
 * still on its link, nor past queued work. Both pending lists
 * are in eventBefore order, and delivery merges them: a decode item is
 * delivered by advancing the cursor over it, and a prompt by moving it
 * to the end of the queued prefix. The event queue holds one
 * WorkDelivery (a wake) only for an idle node's earliest pending entry:
 * the one delivery that can start a batch. A wake delivers the inbox up
 * to its own entry, and a batch's end delivers what landed while it
 * ran; a node left idle with work in transit queues its new earliest
 * entry's wake. The lists run through one run-wide pool of entries
 * with a free list, so no node allocates storage of its own.
 *
 * The invariant, which checkInboxes HELIX_ASSERTs: free slots plus
 * listed entries cover the pool; every list is linked both ways; the
 * queued entries are exactly the prefix before firstPending; each
 * pending list is in eventBefore order and the prompt list holds only
 * prompts; an idle live node's earliest pending entry is woken; and a
 * dead node's inbox is empty.
 */

#ifndef HELIX_SIM_INBOX_H
#define HELIX_SIM_INBOX_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
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
    /** What takeQueued does with the queued item it shows: keep it
     *  and go on, take it out of the queue and go on, or keep it and
     *  stop. */
    enum class Take : uint8_t { Leave, Remove, Stop };

    explicit InboxPool(size_t num_nodes) : inboxes(num_nodes) {}

    /** Whether @p node runs a batch. */
    bool busy(int node) const { return inboxes[node].busyUntil >= 0.0; }

    /** @p node runs a batch until @p end (its BatchDone time), or is
     *  idle at -infinity. */
    void setBusyUntil(int node, double end) { inboxes[node].busyUntil = end; }

    /** Whether @p node has delivered work queued. */
    bool
    hasQueued(int node) const
    {
        return inboxes[node].work.head != inboxes[node].firstPending;
    }

    /**
     * Put @p item, landing at @p when, into @p node's inbox. Returns
     * whether its wake is due: only the earliest pending entry of an
     * idle node can start a batch, so work behind it, or sent to a
     * busy node, waits for a wake or the batch's end.
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
        // Keep the pending entries in eventBefore order. Sends mostly
        // land in time order, so the walk back from the tail is short;
        // it stops at the queued prefix.
        InboxEntry &entry = pool[slot];
        entry.time = when;
        entry.item = item;
        entry.woken = false;
        entry.queued = false;
        const Event delivery = deliveryEvent(node, entry);
        List &list = item.isPrompt ? inbox.prompts : inbox.work;
        uint32_t after = list.tail;
        while (after != kNoEntry && !pool[after].queued &&
               eventBefore(delivery, deliveryEvent(node, pool[after])))
            after = pool[after].prev;
        linkAfter(list, after, slot);
        if (after != kNoEntry && !pool[after].queued)
            return false; // Not the first pending entry of its list.
        if (!item.isPrompt)
            inbox.firstPending = slot;
        const uint32_t other =
            item.isPrompt ? inbox.firstPending : inbox.prompts.head;
        return inbox.busyUntil < 0.0 &&
               (other == kNoEntry ||
                eventBefore(delivery, deliveryEvent(node, pool[other])));
    }

    /** Set @p wake to the wake of @p node's earliest pending entry and
     *  mark it woken; false when nothing is pending or that entry is
     *  already woken. */
    bool
    takeWake(int node, Event &wake)
    {
        const uint32_t first = earliestPending(node);
        if (first == kNoEntry || pool[first].woken)
            return false;
        pool[first].woken = true;
        wake = deliveryEvent(node, pool[first]);
        return true;
    }

    /**
     * Deliver @p node's pending entries that do not rank after
     * @p up_to, in eventBefore order. An entry whose item @p live
     * rejects is dropped; any other joins the end of the queue, and
     * @p on_queued is then handed its item: it may start a batch
     * (takeQueued) but must not send to the node.
     */
    template <class Live, class OnQueued>
    void
    deliver(int node, const Event &up_to, Live &&live, OnQueued &&on_queued)
    {
        Inbox &inbox = inboxes[node];
        auto queue = [&](uint32_t slot) {
            pool[slot].queued = true;
            const WorkItem item = pool[slot].item;
            on_queued(item);
        };
        for (;;) {
            // The decode items that rank before the first pending
            // prompt, if that is due, else up to up_to; then the prompt.
            const uint32_t prompt = inbox.prompts.head;
            const bool prompt_due =
                prompt != kNoEntry &&
                !eventBefore(up_to, deliveryEvent(node, pool[prompt]));
            const Event bound =
                prompt_due ? deliveryEvent(node, pool[prompt]) : up_to;
            for (uint32_t slot = inbox.firstPending;
                 slot != kNoEntry &&
                 !eventBefore(bound, deliveryEvent(node, pool[slot]));
                 slot = inbox.firstPending) {
                inbox.firstPending = pool[slot].next;
                if (live(pool[slot].item)) {
                    queue(slot);
                } else {
                    unlink(inbox.work, slot);
                    freeSlots.push_back(slot);
                }
            }
            if (!prompt_due)
                return;
            unlink(inbox.prompts, prompt);
            if (live(pool[prompt].item)) {
                linkAfter(inbox.work,
                          inbox.firstPending == kNoEntry
                              ? inbox.work.tail
                              : pool[inbox.firstPending].prev,
                          prompt);
                queue(prompt);
            } else {
                freeSlots.push_back(prompt);
            }
        }
    }

    /**
     * Show @p node's queued items to @p visit in queue order, until it
     * returns Take::Stop or the queue ends. @p visit may edit the item
     * it is shown, which then stays queued unless it returns
     * Take::Remove; it must not send to the node.
     */
    template <class Visit>
    void
    takeQueued(int node, Visit &&visit)
    {
        Inbox &inbox = inboxes[node];
        uint32_t slot = inbox.work.head;
        while (slot != inbox.firstPending) {
            const uint32_t next = pool[slot].next;
            const Take take = visit(pool[slot].item);
            if (take == Take::Stop)
                return;
            if (take == Take::Remove) {
                unlink(inbox.work, slot);
                freeSlots.push_back(slot);
            }
            slot = next;
        }
    }

    /** How many of @p node's pending entries rank before @p up_to, so
     *  have been delivered, with an item that @p counts accepts. */
    template <class Counts>
    int
    deliveredCount(int node, const Event &up_to, Counts &&counts) const
    {
        const Inbox &inbox = inboxes[node];
        int count = 0;
        for (const uint32_t first : {inbox.firstPending, inbox.prompts.head}) {
            for (uint32_t slot = first; slot != kNoEntry;
                 slot = pool[slot].next) {
                if (!eventBefore(deliveryEvent(node, pool[slot]), up_to))
                    break;
                if (counts(pool[slot].item))
                    ++count;
            }
        }
        return count;
    }

    /** Empty @p node's inbox and mark it idle: the node failed. */
    void
    clear(int node)
    {
        const Inbox &inbox = inboxes[node];
        for (const uint32_t first : {inbox.work.head, inbox.prompts.head}) {
            for (uint32_t slot = first; slot != kNoEntry;
                 slot = pool[slot].next)
                freeSlots.push_back(slot);
        }
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
            // The work list is the queued prefix, then pending decode
            // items; the prompt list holds pending prompts.
            for (const List *list : {&inbox.work, &inbox.prompts}) {
                bool queued = list == &inbox.work;
                uint32_t prev = kNoEntry;
                for (uint32_t slot = list->head; slot != kNoEntry;
                     slot = pool[slot].next) {
                    const InboxEntry &entry = pool[slot];
                    queued = queued && slot != inbox.firstPending;
                    HELIX_ASSERT(entry.prev == prev && entry.queued == queued);
                    HELIX_ASSERT(queued || entry.item.isPrompt ==
                                               (list == &inbox.prompts));
                    HELIX_ASSERT(queued || prev == kNoEntry ||
                                 pool[prev].queued ||
                                 eventBefore(deliveryEvent(id, pool[prev]),
                                             deliveryEvent(id, entry)));
                    prev = slot;
                    ++listed;
                }
                HELIX_ASSERT(prev == list->tail);
                HELIX_ASSERT(!queued || inbox.firstPending == kNoEntry);
            }
            // A dead node gets no work; an idle live node's earliest
            // delivery has its wake queued.
            HELIX_ASSERT(!nodes[node].dead ||
                         (inbox.work.head == kNoEntry &&
                          inbox.prompts.head == kNoEntry));
            const uint32_t first = earliestPending(id);
            HELIX_ASSERT(inbox.busyUntil >= 0.0 || first == kNoEntry ||
                         pool[first].woken);
        }
        HELIX_ASSERT(listed + freeSlots.size() == pool.size());
    }

  private:
    /** End of an inbox list. */
    static constexpr uint32_t kNoEntry = UINT32_MAX;

    /**
     * A work item sent to a node and not yet taken by a batch: the
     * delivery event it stands for, minus the node, and the slots of
     * its neighbours in its list. No seq: two deliveries that coexist
     * never share a content key (eventBefore).
     */
    struct InboxEntry
    {
        double time = 0.0;
        WorkItem item;
        uint32_t prev = kNoEntry;
        uint32_t next = kNoEntry;
        /** Its wake is queued (in the padding). */
        bool woken = false;
        /** It was delivered: it is in the node's queue (in the
         *  padding). */
        bool queued = false;
    };
    static_assert(sizeof(InboxEntry) == 40, "inbox entries stay 40 bytes");

    /** A doubly-linked list through pool. */
    struct List
    {
        uint32_t head = kNoEntry;
        uint32_t tail = kNoEntry;
    };

    /** A node's inbox. */
    struct Inbox
    {
        /** When the running batch ends (its BatchDone time);
         *  -infinity while the node is idle. Event times are
         *  non-negative, so busyUntil < 0 is the idle test. */
        double busyUntil = -std::numeric_limits<double>::infinity();
        /** The queue, then the pending decode items from firstPending
         *  on (kNoEntry when none is pending). */
        List work;
        uint32_t firstPending = kNoEntry;
        /** The pending prompts. */
        List prompts;
    };
    static_assert(sizeof(Inbox) == 32, "inboxes stay 32 bytes");

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

    /** @p node's earliest pending entry, or kNoEntry. */
    uint32_t
    earliestPending(int node) const
    {
        const uint32_t work = inboxes[node].firstPending;
        const uint32_t prompt = inboxes[node].prompts.head;
        if (work == kNoEntry || prompt == kNoEntry)
            return work == kNoEntry ? prompt : work;
        return eventBefore(deliveryEvent(node, pool[prompt]),
                           deliveryEvent(node, pool[work]))
                   ? prompt
                   : work;
    }

    /** Link @p slot into @p list after @p after (kNoEntry: first). */
    void
    linkAfter(List &list, uint32_t after, uint32_t slot)
    {
        InboxEntry &entry = pool[slot];
        entry.prev = after;
        if (after == kNoEntry) {
            entry.next = list.head;
            list.head = slot;
        } else {
            entry.next = pool[after].next;
            pool[after].next = slot;
        }
        if (entry.next == kNoEntry)
            list.tail = slot;
        else
            pool[entry.next].prev = slot;
    }

    /** Unlink @p slot from @p list. */
    void
    unlink(List &list, uint32_t slot)
    {
        const InboxEntry &entry = pool[slot];
        if (entry.prev == kNoEntry)
            list.head = entry.next;
        else
            pool[entry.prev].next = entry.next;
        if (entry.next == kNoEntry)
            list.tail = entry.prev;
        else
            pool[entry.next].prev = entry.prev;
    }

    std::vector<Inbox> inboxes;
    /** Every node's entries, and the pool's free slots. */
    std::vector<InboxEntry> pool;
    std::vector<uint32_t> freeSlots;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_INBOX_H
