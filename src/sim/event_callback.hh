/**
 * @file
 * Move-only `void()` callable that keeps small closures inline.
 *
 * Every scheduled event owns one. `std::function` keeps only 16 bytes
 * inline, and the hot closures of the stack capture more than that
 * (`this`, an address and a nested `done` callback), so each event
 * paid one heap allocation. EventCallback stores a closure of up to
 * kInlineSize bytes inside itself, i.e. inside the EventQueue slab
 * slot the event lives in. A closure that is larger, over-aligned or
 * has a throwing move goes to one heap block instead.
 *
 * Like `std::function`, constructing one from an empty
 * `std::function` or a null function pointer yields an empty
 * callback, which EventQueue rejects as a null callback.
 */

#ifndef BMS_SIM_EVENT_CALLBACK_HH
#define BMS_SIM_EVENT_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace bms::sim {

class EventCallback
{
  public:
    /**
     * Inline capacity, from a histogram of the closures the four
     * perfbench workloads schedule. The largest steady-state ones
     * are the SQE dispatch and driver submit closures (a 64-byte SQE
     * plus `this` and a queue id: 80 bytes, 11-14% of events) and
     * the DMA completions (`this`, address, length, buffer and a
     * 32-byte `std::function` done, whose own 16-byte slot handle
     * stays inside it: 64 bytes, 20-25%). With 80 every I/O-path
     * closure is inline; only a few control-path ones (9 of 7.7M
     * events in `fleet_upgrade`) take the heap fallback. 64 would
     * send every SQE dispatch to the heap. An EventQueue slot is
     * then 96 bytes.
     */
    static constexpr std::size_t kInlineSize = 80;
    static constexpr std::size_t kInlineAlign = alignof(void *);

    EventCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    EventCallback(EventCallback &&o) noexcept { take(o); }

    EventCallback &
    operator=(EventCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /**
     * Replace the held closure with @p f, constructed in place. An
     * empty `std::function`, a null function pointer or an empty
     * EventCallback leaves this callback empty.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        reset();
        if constexpr (std::is_same_v<D, EventCallback>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "an EventCallback is moved in, never copied");
            take(f);
        } else {
            if (isNull(f))
                return;
            if constexpr (fitsInline<D>()) {
                ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
            } else {
                D *heap = new D(std::forward<F>(f));
                std::memcpy(_buf, &heap, sizeof(heap));
            }
            _ops = &kOps<D>;
        }
    }

    /** True if a closure of type @p F is kept inside the callback. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

    /** True if @p f would make an empty callback. */
    template <typename F>
    static bool
    isNull(const F &f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_same_v<D, EventCallback> ||
                      std::is_pointer_v<D> || IsStdFunction<D>::value)
            return !f;
        else
            return false;
    }

    /** Destroy the held closure (and its captures) now. */
    void
    reset() noexcept
    {
        if (_ops) {
            if (_ops->destroy)
                _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** @pre the callback is not empty. */
    void operator()() { _ops->invoke(_buf); }

  private:
    template <typename T>
    struct IsStdFunction : std::false_type
    {};
    template <typename R, typename... A>
    struct IsStdFunction<std::function<R(A...)>> : std::true_type
    {};

    /**
     * Per-type operations. A null `relocate` means the stored bytes
     * may be copied as they are; a null `destroy` means there is
     * nothing to destroy.
     */
    struct Ops
    {
        void (*invoke)(void *buf);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *buf) noexcept;
    };

    template <typename D>
    static D *
    held(void *buf)
    {
        if constexpr (fitsInline<D>()) {
            return std::launder(static_cast<D *>(buf));
        } else {
            D *heap;
            std::memcpy(&heap, buf, sizeof(heap));
            return heap;
        }
    }

    template <typename D>
    static void
    invokeHeld(void *buf)
    {
        std::invoke(*held<D>(buf));
    }

    template <typename D>
    static void
    relocateHeld(void *dst, void *src) noexcept
    {
        D *from = held<D>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
    }

    template <typename D>
    static void
    destroyHeld(void *buf) noexcept
    {
        if constexpr (fitsInline<D>())
            held<D>(buf)->~D();
        else
            delete held<D>(buf);
    }


    template <typename D>
    static constexpr Ops
    makeOps()
    {
        Ops ops{&invokeHeld<D>, nullptr, nullptr};
        if constexpr (fitsInline<D>()) {
            // Trivially copyable closures move as bytes; trivially
            // destructible ones need no destroy call.
            if constexpr (!std::is_trivially_copyable_v<D>)
                ops.relocate = &relocateHeld<D>;
            if constexpr (!std::is_trivially_destructible_v<D>)
                ops.destroy = &destroyHeld<D>;
        } else {
            ops.destroy = &destroyHeld<D>; // the heap pointer moves as bytes
        }
        return ops;
    }

    template <typename D>
    static constexpr Ops kOps = makeOps<D>();

    /** Move @p o's closure into this (empty) callback. */
    void
    take(EventCallback &o) noexcept
    {
        _ops = o._ops;
        if (!_ops)
            return;
        if (_ops->relocate)
            _ops->relocate(_buf, o._buf);
        else
            std::memcpy(_buf, o._buf, kInlineSize);
        o._ops = nullptr;
    }

    alignas(kInlineAlign) unsigned char _buf[kInlineSize];
    const Ops *_ops = nullptr;
};

} // namespace bms::sim

#endif // BMS_SIM_EVENT_CALLBACK_HH
