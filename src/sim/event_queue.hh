/**
 * @file
 * Deterministic discrete-event queue with per-component lane tags.
 *
 * Events scheduled at the same tick execute in scheduling order
 * (FIFO), which keeps every experiment bit-for-bit reproducible for a
 * given seed. The queue is one binary heap of POD entries ordered by
 * (when, seq), where `seq` is a queue-wide monotone schedule counter;
 * callbacks live in one slab indexed by the entry, each built in
 * place inside its slot (sim/event_callback.hh), so scheduling an
 * event whose closure fits the slot allocates nothing once the slab
 * has grown. Each entry also
 * carries the lane (front function, SSD slot, host driver, ...) its
 * event was scheduled on. The lane is only a tag: it never takes part
 * in ordering, so execution order does not depend on the lane layout,
 * and it is published to the lane-conflict audit (sim/lane_audit.hh)
 * while the event runs.
 *
 * Cancellation tombstones the slab slot; the entry is purged when it
 * reaches the heap head, so cancelled bookkeeping is always bounded
 * by the heap contents (checkInvariants() enforces the accounting).
 */

#ifndef BMS_SIM_EVENT_QUEUE_HH
#define BMS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_callback.hh"
#include "sim/types.hh"

namespace bms::sim {

/** Handle for a scheduled event, usable with EventQueue::cancel(). */
using EventId = std::uint64_t;

/** Id returned for events that were not actually scheduled. */
inline constexpr EventId kInvalidEventId = 0;

/** Identifies one event lane; lane 0 always exists (the default). */
using LaneId = std::uint16_t;

/** Lane every event lands on unless a component opts into its own. */
inline constexpr LaneId kDefaultLane = 0;

/**
 * Priority queue of timed callbacks with deterministic same-tick
 * ordering, O(log n) schedule/pop, and O(1) cancellation.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Create a new event lane and return its id. A lane is a tag
     * that names the component an event belongs to; it costs nothing
     * and does not affect ordering. Never returns kDefaultLane.
     */
    LaneId createLane();

    /** Number of lanes (>= 1; lane 0 always exists). */
    std::size_t laneCount() const { return _laneCount; }

    /**
     * Schedule @p cb to run at absolute time @p when on lane 0.
     * @p cb is any `void()` callable; it is built once, in place in
     * the event's slab slot.
     * @pre when >= now()
     * @return id usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&cb)
    {
        return scheduleOn(kDefaultLane, when, std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now on lane 0. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F &&cb)
    {
        return scheduleOn(kDefaultLane, _now + delay, std::forward<F>(cb));
    }

    /** Schedule @p cb at absolute time @p when on lane @p lane. */
    template <typename F>
    EventId
    scheduleOn(LaneId lane, Tick when, F &&cb)
    {
        std::uint32_t slot = claimSlot(lane, when, Callback::isNull(cb));
        try {
            _slots[slot].cb.emplace(std::forward<F>(cb));
        } catch (...) {
            _freeSlots.push_back(slot); // the slot never became pending
            throw;
        }
        return pushEntry(lane, when, slot);
    }

    /**
     * Cancel a pending event. Cancelling an already-executed or
     * unknown id is a harmless no-op.
     */
    void cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return _live == 0; }

    /** Number of runnable (not cancelled) pending events. */
    std::size_t size() const { return _live; }

    /**
     * Pop and execute the next event.
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until simulated time would exceed @p limit. Events
     * scheduled exactly at @p limit do run. Time advances to @p limit
     * even if the queue drains earlier.
     */
    void runUntil(Tick limit);

    /** Run until the queue is empty. @return final simulated time. */
    Tick runAll();

    /** Total number of events executed since construction. */
    std::uint64_t executedCount() const { return _executed; }

    /**
     * Structure-wide self-check (BMS_ASSERT on violation):
     *  - the heap head is not in the past;
     *  - every heap entry is accounted as either live or cancelled,
     *    so tombstone bookkeeping cannot grow unboundedly;
     *  - slab accounting (heap + free list covers the slab).
     * Runs after every pop under Check::paranoid(); tests call it
     * directly.
     */
    void checkInvariants() const;

  private:
    /** EventId layout: generation(32) | slot(32). */
    static constexpr std::uint64_t kMaxSlots = 0xffffffffu;
    static constexpr std::uint32_t kMaxLanes = 1u << 16; ///< LaneId range

    enum class SlotState : std::uint8_t
    {
        Free,
        Pending,
        Cancelled,
    };

    /** POD heap entry: 24 bytes, no callback, cache friendly. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        LaneId lane; ///< tag only; never compared
    };

    /** Min-heap comparator: earliest (when, seq) at the front. */
    struct EntryLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq; // FIFO among same-tick events
        }
    };

    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
        SlotState state = SlotState::Free;
    };

    static EventId
    makeId(std::uint32_t gen, std::uint32_t slot)
    {
        return (static_cast<EventId>(gen) << 32) | slot;
    }

    /**
     * Check a schedule request (not in the past, not null, known
     * lane) and take a free slab slot for it.
     */
    std::uint32_t claimSlot(LaneId lane, Tick when, bool nullCallback);
    /** Mark @p slot pending and push its heap entry. */
    EventId pushEntry(LaneId lane, Tick when, std::uint32_t slot);
    void releaseSlot(std::uint32_t slot);
    /**
     * Drop tombstoned entries sitting at the heap head.
     * @return true if a runnable event is at the head.
     */
    bool purgeHead();

    std::vector<HeapEntry> _heap; ///< binary heap (EntryLater)
    std::vector<Slot> _slots;     ///< callback slab
    std::vector<std::uint32_t> _freeSlots;
    std::size_t _cancelled = 0; ///< tombstones still in `_heap`
    std::size_t _laneCount = 1; ///< lane 0 always exists
    Tick _now = 0;
    std::uint64_t _nextSeq = 1; ///< queue-wide schedule order
    std::size_t _live = 0;
    std::uint64_t _executed = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_EVENT_QUEUE_HH
