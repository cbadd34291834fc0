/**
 * @file
 * Reusable per-command context slots.
 *
 * A component that keeps state for each command in flight (staging
 * bytes, extents, join counters, a pending callback) takes a slot
 * here instead of allocating that state per command. Its completions
 * then capture only the component pointer and the 32-bit slot index:
 * 16 bytes and trivially copyable, which `std::function` stores
 * inline.
 *
 * Slots are reused last-freed-first. The pool grows only when more
 * commands are in flight than ever before, and a released slot keeps
 * whatever capacity its vectors reached, so a run's steady state
 * allocates nothing. Slots never move (std::deque), so a slot's
 * address and the buffers it owns stay valid while it is held, even
 * while the pool grows.
 */

#ifndef BMS_SIM_SLOT_POOL_HH
#define BMS_SIM_SLOT_POOL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/check.hh"

namespace bms::sim {

template <typename T>
class SlotPool
{
  public:
    /** Take a free slot; its contents are those its last user left. */
    std::uint32_t
    acquire()
    {
        std::uint32_t i;
        if (_free.empty()) {
            i = static_cast<std::uint32_t>(_slots.size());
            _slots.emplace_back();
            _held.push_back(true);
            return i;
        }
        i = _free.back();
        _free.pop_back();
        _held[i] = true;
        return i;
    }

    /** Return slot @p i; the caller must not touch it afterwards. */
    void
    release(std::uint32_t i)
    {
        BMS_ASSERT(i < _slots.size() && _held[i],
                   "release of a slot that is not held: ", i);
        _held[i] = false;
        _free.push_back(i);
    }

    T &
    operator[](std::uint32_t i)
    {
        BMS_ASSERT(i < _slots.size() && _held[i],
                   "access to a slot that is not held: ", i);
        return _slots[i];
    }

  private:
    std::deque<T> _slots;
    std::vector<bool> _held;
    std::vector<std::uint32_t> _free;
};

} // namespace bms::sim

#endif // BMS_SIM_SLOT_POOL_HH
