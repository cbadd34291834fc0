/**
 * @file
 * Same-tick lane-conflict sanitizer (the dynamic half of the
 * determinism auditor, DESIGN.md §13).
 *
 * The EventQueue executes events in exact global (when, seq) order
 * and tags each with the lane of the component that scheduled it, so
 * lanes cannot change behaviour *today* — but executing same-tick
 * events of different lanes concurrently would only be sound for
 * state that is never shared across lanes within one tick (or shared
 * read-only). Nothing else in the tree records which state that is.
 *
 * This sanitizer produces that evidence. Instrumented structures
 * (LBA map tables, chip memory / global-PRP storage, QoS buckets,
 * the I/O monitor's heat table, SSD chunk pools) report each access
 * as (object, read|write); the EventQueue publishes the (tick, lane)
 * context of the event being executed. The audit groups accesses by
 * object and tick and flags every cross-lane pair where at least one
 * side is a write:
 *
 *   write/write  — two lanes mutate the object at the same tick;
 *   read/write   — one lane reads what another mutates at the same
 *                  tick (the read's result would depend on intra-tick
 *                  execution order under parallel lanes);
 *   read/read    — recorded in the census as well (informational:
 *                  these objects are shared but commutative), never
 *                  gated on.
 *
 * The aggregated, ranked census (LaneAudit::writeJson) is the
 * load-bearing artifact: it tells a future parallel-lane PR exactly
 * which objects need sharding, locking, or tick-local staging, and
 * scripts/check.sh regression-gates it against the committed
 * baseline so new cross-lane write sharing cannot land silently.
 *
 * Cost model: the recording core is always compiled (the self-test
 * exercises it in every build), but the hot-path hooks in the
 * instrumented structures are compiled only under -DBMS_LANE_AUDIT=ON
 * and every entry point is guarded by the `active()` flag, so normal
 * builds pay one untaken branch per executed event and nothing per
 * data-path access.
 *
 * Accesses made outside event execution (testbed construction,
 * drivers stepping the simulator from main()) have no lane context
 * and are ignored: only event-to-event sharing matters for lane
 * parallelism.
 */

#ifndef BMS_SIM_LANE_AUDIT_HH
#define BMS_SIM_LANE_AUDIT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace bms::sim {

/** Process-wide recorder for same-tick cross-lane access conflicts. */
class LaneAudit
{
  public:
    enum class Access : std::uint8_t
    {
        Read,
        Write,
    };

    /** One census row: an object/kind pair with occurrence stats. */
    struct Conflict
    {
        std::string object; ///< audit name of the shared structure
        std::string kind;   ///< "write-write", "read-write", "read-read"
        std::uint64_t count = 0; ///< conflicting accesses observed
        Tick firstTick = 0;      ///< tick of the first occurrence
        std::string firstRun;    ///< run label of the first occurrence
        LaneId laneA = 0;        ///< example lane pair of the first
        LaneId laneB = 0;        ///<   occurrence (laneA != laneB)
    };

    static LaneAudit &instance();

    /** Cheap global gate checked before any recording work. */
    static bool active() { return _active; }

    /** Start recording (idempotent). */
    void enable();

    /** Stop recording; registered objects and the census persist. */
    void disable();

    /**
     * Label subsequent records (e.g. "seed3", "full_card"); censuses
     * report the label of each conflict's first occurrence so a
     * finding can be replayed.
     */
    void setRun(std::string label);

    /**
     * Register an audited object under @p name and return its id.
     * Registration order is deterministic (it follows testbed
     * construction), ids are never reused within a process.
     */
    std::uint32_t registerObject(std::string name);

    /** Record one access to object @p id from the current event. */
    void record(std::uint32_t id, Access access);

    /**
     * The aggregated census, ranked by (count desc, object, kind) —
     * deterministic for a deterministic simulation.
     */
    std::vector<Conflict> census() const;

    /** Conflicts where at least one side is a write (the gated set). */
    std::vector<Conflict> writeConflicts() const;

    /**
     * Write the census as JSON (schema "bms-lane-census-v1", one
     * conflict object per line; see DESIGN.md §13).
     * @return false when the file cannot be written.
     */
    bool writeJson(const std::string &path, const std::string &binary) const;

    /** Drop all state: objects, census, run label (tests). */
    void reset();

    /** Total accesses recorded while enabled (tests / census meta). */
    std::uint64_t recordedAccesses() const { return _recorded; }

    /** @name Event context (published by EventQueue::runOne). */
    /// @{
    static void beginEvent(const void *queue, LaneId lane, Tick when);
    static void endEvent();
    /// @}

    /** RAII wrapper for begin/endEvent (exception safe). */
    class EventScope
    {
      public:
        EventScope(const void *queue, LaneId lane, Tick when)
        {
            if (LaneAudit::active()) {
                LaneAudit::beginEvent(queue, lane, when);
                _armed = true;
            }
        }
        ~EventScope()
        {
            if (_armed)
                LaneAudit::endEvent();
        }
        EventScope(const EventScope &) = delete;
        EventScope &operator=(const EventScope &) = delete;

      private:
        bool _armed = false;
    };

  private:
    LaneAudit() = default;

    /** Per-object, per-tick access window. */
    struct ObjState
    {
        std::string name;
        const void *queue = nullptr; ///< owning simulator's queue
        Tick tick = 0;
        bool windowOpen = false;
        std::vector<LaneId> readers; ///< lanes that read this tick
        std::vector<LaneId> writers; ///< lanes that wrote this tick
    };

    struct CensusEntry
    {
        std::uint64_t count = 0;
        Tick firstTick = 0;
        std::string firstRun;
        LaneId laneA = 0;
        LaneId laneB = 0;
    };

    void bump(const std::string &object, const char *kind, Tick tick,
              LaneId a, LaneId b);

    static bool _active;

    std::vector<ObjState> _objects;
    /** (object name, kind) → stats; std::map keeps census order
     *  deterministic (this file must pass its own lint). */
    std::map<std::pair<std::string, std::string>, CensusEntry> _census;
    std::string _run = "default";
    std::uint64_t _recorded = 0;
};

} // namespace bms::sim

/**
 * @name Instrumentation hooks for shared structures.
 *
 * Compiled away entirely unless the build sets -DBMS_LANE_AUDIT=ON:
 * the member declaration itself disappears, so normal builds carry
 * no per-object footprint and no per-access work.
 *
 *   class LbaMapTable {
 *       ...
 *       BMS_LANE_AUDIT_OBJ(_audit);
 *   };
 *   LbaMapTable::setEntry(...) { BMS_LANE_AUDIT_WRITE(_audit); ... }
 */
/// @{
#if defined(BMS_LANE_AUDIT)
#define BMS_LANE_AUDIT_OBJ(member)                                          \
    mutable std::uint32_t member = UINT32_MAX;                              \
    mutable std::string member##Name = "anon"
#define BMS_LANE_AUDIT_NAME(member, audit_name)                             \
    do {                                                                    \
        member##Name = (audit_name);                                        \
        (member) = UINT32_MAX;                                              \
    } while (0)
#define BMS_LANE_AUDIT_ACCESS(member, acc)                                  \
    do {                                                                    \
        if (::bms::sim::LaneAudit::active()) {                              \
            if ((member) == UINT32_MAX) {                                   \
                (member) = ::bms::sim::LaneAudit::instance()                \
                               .registerObject(member##Name);               \
            }                                                               \
            ::bms::sim::LaneAudit::instance().record((member), (acc));      \
        }                                                                   \
    } while (0)
#define BMS_LANE_AUDIT_READ(member)                                         \
    BMS_LANE_AUDIT_ACCESS(member, ::bms::sim::LaneAudit::Access::Read)
#define BMS_LANE_AUDIT_WRITE(member)                                        \
    BMS_LANE_AUDIT_ACCESS(member, ::bms::sim::LaneAudit::Access::Write)
#else
#define BMS_LANE_AUDIT_OBJ(member) static_assert(true, "")
#define BMS_LANE_AUDIT_NAME(member, audit_name) ((void)0)
#define BMS_LANE_AUDIT_READ(member) ((void)0)
#define BMS_LANE_AUDIT_WRITE(member) ((void)0)
#endif
/// @}

#endif // BMS_SIM_LANE_AUDIT_HH
