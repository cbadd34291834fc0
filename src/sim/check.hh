/**
 * @file
 * Invariant-checking framework (gem5-style panic/assert).
 *
 * The simulator's correctness story rests on hardware-enforced
 * invariants — the LBA map's validation vectors, the global-PRP bit
 * encoding, the QoS credit accounting. A violated invariant is a
 * modelling bug, and the report must say *what* was violated and
 * *when* in simulated time, not just abort.
 *
 * `BMS_ASSERT(cond, ...)` and friends capture the failing expression,
 * source location, current simulated tick (from the innermost live
 * EventQueue), the component under check (see ScopedCheckComponent),
 * and any extra streamable context parts. On failure they either
 *
 *  - throw sim::SimPanic carrying the full report (PanicMode::Throw —
 *    what tests select so GTest's EXPECT_PANIC can assert on invariant
 *    violations without killing the test binary), or
 *  - print the report to stderr and abort (PanicMode::Abort — the
 *    default, what benches and examples get).
 *
 * `Check::paranoid()` gates the O(structure) self-checks
 * (`checkInvariants()` methods) that hot paths run after mutations;
 * enable it with `--paranoid` (see harness::Flags) or the
 * `BMS_PARANOID=1` environment variable. Tests enable it
 * unconditionally (tests/panic_mode.cc).
 */

#ifndef BMS_SIM_CHECK_HH
#define BMS_SIM_CHECK_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace bms::sim {

/** Thrown on invariant violation under PanicMode::Throw. */
class SimPanic : public std::runtime_error
{
  public:
    explicit SimPanic(const std::string &report)
        : std::runtime_error(report)
    {}
};

/** What a failed check does after composing its report. */
enum class PanicMode
{
    Abort, ///< print to stderr and std::abort() (benches)
    Throw, ///< throw SimPanic (tests)
};

/** Process-wide checking configuration. */
class Check
{
  public:
    static PanicMode mode() { return _mode; }
    static void setMode(PanicMode m) { _mode = m; }

    /**
     * True when expensive structure-wide self-checks should run on
     * hot paths (`--paranoid` / BMS_PARANOID=1 / tests).
     */
    static bool paranoid() { return _paranoid; }
    static void setParanoid(bool on) { _paranoid = on; }

    /** Current simulated tick for reports; 0 when no queue is live. */
    static std::uint64_t reportTick();

  private:
    friend class EventQueue;

    /** Innermost live EventQueue registers itself for reportTick(). */
    static void pushTickSource(const class EventQueue *q);
    static void popTickSource(const class EventQueue *q);

    static PanicMode _mode;
    static bool _paranoid;
};

/** Restore the previous PanicMode on scope exit (EXPECT_PANIC). */
class ScopedPanicMode
{
  public:
    explicit ScopedPanicMode(PanicMode m) : _prev(Check::mode())
    {
        Check::setMode(m);
    }
    ~ScopedPanicMode() { Check::setMode(_prev); }
    ScopedPanicMode(const ScopedPanicMode &) = delete;
    ScopedPanicMode &operator=(const ScopedPanicMode &) = delete;

  private:
    PanicMode _prev;
};

/**
 * Names the component whose invariants are being checked so failure
 * reports read "component: engine0.qos" instead of a bare file:line.
 * Stack-like; the innermost guard wins.
 */
class ScopedCheckComponent
{
  public:
    explicit ScopedCheckComponent(const std::string &name);
    ~ScopedCheckComponent();
    ScopedCheckComponent(const ScopedCheckComponent &) = delete;
    ScopedCheckComponent &operator=(const ScopedCheckComponent &) = delete;

  private:
    const std::string *_prev;
};

namespace detail {

/** Print integral char-width values as numbers, everything else as-is. */
template <typename T>
void
appendValue(std::ostringstream &os, const T &v)
{
    using U = std::remove_cv_t<std::remove_reference_t<T>>;
    if constexpr (std::is_same_v<U, std::uint8_t> ||
                  std::is_same_v<U, std::int8_t>) {
        os << static_cast<int>(v);
    } else if constexpr (std::is_same_v<U, bool>) {
        os << (v ? "true" : "false");
    } else {
        os << v;
    }
}

/** Compose extra context parts into one string ("" when none). */
template <typename... Parts>
std::string
formatParts(const Parts &...parts)
{
    if constexpr (sizeof...(Parts) == 0) {
        return {};
    } else {
        std::ostringstream os;
        (appendValue(os, parts), ...);
        return os.str();
    }
}

template <typename T>
std::string
stringify(const T &v)
{
    std::ostringstream os;
    appendValue(os, v);
    return os.str();
}

/** Compose the report and throw/abort per Check::mode(). */
[[noreturn]] void checkFail(const char *kind, const char *expr,
                            const char *file, int line, const char *func,
                            const std::string &detail);

/** Same, for binary comparisons — includes both operand values. */
[[noreturn]] void checkFailCmp(const char *kind, const char *expr,
                               const char *file, int line, const char *func,
                               const std::string &lhs,
                               const std::string &rhs,
                               const std::string &detail);

} // namespace detail
} // namespace bms::sim

/**
 * Assert @p cond; extra arguments are streamed into the report, e.g.
 * `BMS_ASSERT(q.size() < cap, "queue ", name(), " overflow")`.
 */
#define BMS_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) [[unlikely]] {                                        \
            ::bms::sim::detail::checkFail(                                 \
                "BMS_ASSERT", #cond, __FILE__, __LINE__,                   \
                static_cast<const char *>(__func__),                       \
                ::bms::sim::detail::formatParts(__VA_ARGS__));             \
        }                                                                  \
    } while (0)

#define BMS_CHECK_CMP_(kind, a, b, op, ...)                                \
    do {                                                                   \
        const auto &bmsLhs_ = (a);                                         \
        const auto &bmsRhs_ = (b);                                         \
        if (!(bmsLhs_ op bmsRhs_)) [[unlikely]] {                          \
            ::bms::sim::detail::checkFailCmp(                              \
                kind, #a " " #op " " #b, __FILE__, __LINE__,               \
                static_cast<const char *>(__func__),                       \
                ::bms::sim::detail::stringify(bmsLhs_),                    \
                ::bms::sim::detail::stringify(bmsRhs_),                    \
                ::bms::sim::detail::formatParts(__VA_ARGS__));             \
        }                                                                  \
    } while (0)

/** Assert `a == b`, reporting both values on failure. */
#define BMS_ASSERT_EQ(a, b, ...) BMS_CHECK_CMP_("BMS_ASSERT_EQ", a, b, ==, __VA_ARGS__)
/** Assert `a != b`, reporting both values on failure. */
#define BMS_ASSERT_NE(a, b, ...) BMS_CHECK_CMP_("BMS_ASSERT_NE", a, b, !=, __VA_ARGS__)
/** Assert `a <= b`, reporting both values on failure. */
#define BMS_ASSERT_LE(a, b, ...) BMS_CHECK_CMP_("BMS_ASSERT_LE", a, b, <=, __VA_ARGS__)
/** Assert `a < b`, reporting both values on failure. */
#define BMS_ASSERT_LT(a, b, ...) BMS_CHECK_CMP_("BMS_ASSERT_LT", a, b, <, __VA_ARGS__)

/** Unconditional failure for unreachable/unsupported states. */
#define BMS_PANIC(...)                                                     \
    ::bms::sim::detail::checkFail(                                         \
        "BMS_PANIC", nullptr, __FILE__, __LINE__,                          \
        static_cast<const char *>(__func__),                               \
        ::bms::sim::detail::formatParts(__VA_ARGS__))

#endif // BMS_SIM_CHECK_HH
