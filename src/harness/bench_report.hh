/**
 * @file
 * The command line and the machine-readable report every bench binary
 * and the fuzz driver share (DESIGN.md §17):
 *
 *   Flags       a strict `--name` / `--name=VALUE` parser that also owns
 *               the common flags (--paranoid, --log=, --lane-audit-out=);
 *               anything it does not know exits 2 with a usage line.
 *   Gate        one pass/fail acceptance check (a floor or a limit).
 *   JsonWriter  the bench JSON files: objects, arrays, fixed decimals.
 *   readJson    the numbers of a JSON file by dotted path.
 */

#ifndef BMS_HARNESS_BENCH_REPORT_HH
#define BMS_HARNESS_BENCH_REPORT_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace bms::harness {

/**
 * Strict command-line parser. A binary registers its flags, then calls
 * parse(); the common flags are always registered:
 *
 *   --paranoid            structure-wide invariant sweeps on hot paths
 *                         (sim::Check::paranoid(); also BMS_PARANOID=1)
 *   --log=LEVEL           warn|info|debug|trace
 *   --lane-audit-out=PATH dump the same-tick lane-conflict census
 *                         (DESIGN.md §13) at exit
 *
 * A switch matches only its exact name (`--paranoidX` is unknown); a
 * valued flag needs `=` and a value that parses in full. Flags apply
 * in order, so a repeated flag's last value wins.
 */
class Flags
{
  public:
    explicit Flags(std::string prog);
    /** The registered setters hold references into this object. */
    Flags(const Flags &) = delete;
    Flags &operator=(const Flags &) = delete;

    /**
     * `--name=META`: @p set parses the value and returns false when it
     * is malformed. An empty @p meta makes `--name` a switch that takes
     * no value (@p set then gets "").
     */
    Flags &custom(const char *name, const char *meta,
                  std::function<bool(const char *)> set);

    /** `--name` sets @p out to @p value. */
    Flags &flag(const char *name, bool &out, bool value = true);
    /** `--name=X`: a finite decimal number. */
    Flags &number(const char *name, double &out);
    /** `--name=PATH`: any text. */
    Flags &text(const char *name, std::string &out);
    /** `--name=N`: a parseUnsigned() value that fits in @p out. */
    template <std::integral Int>
    Flags &
    integer(const char *name, Int &out)
    {
        return custom(name, "N", [&out](const char *v) {
            std::uint64_t u = 0;
            bool ok = parseUnsigned(v, u) &&
                      u <= static_cast<std::uint64_t>(
                               std::numeric_limits<Int>::max());
            if (ok)
                out = static_cast<Int>(u);
            return ok;
        });
    }

    /** Apply every flag in @p argv; "" on success, else what was wrong.
     *  The common flags take effect only in parse(). */
    std::string tryParse(int argc, const char *const *argv);

    /** tryParse(), then apply the common flags; exits 2 on error. */
    void parse(int argc, char **argv);

    /** Print `<prog>: <what>` and the usage line, then exit 2. */
    [[noreturn]] void fail(const std::string &what) const;

    /** Decimal, 0x hex or 0 octal; no sign, no blanks, no overflow. */
    static bool parseUnsigned(const char *s, std::uint64_t &out);

  private:
    struct Spec
    {
        std::string name;
        std::string meta; ///< empty for a switch
        std::function<bool(const char *)> set;
    };

    std::string _prog;
    std::vector<Spec> _specs;
    bool _paranoid = false;
    int _logLevel = 0; ///< a sim::LogLevel; 0 when --log is not given
    std::string _laneAuditOut;
};

/** One acceptance check, reported in the JSON and the verdict line. */
struct Gate
{
    std::string name;
    double value = 0.0;
    double bound = 0.0;
    bool isFloor = true; ///< pass when value >= bound (else <= bound)
    int decimals = 1;    ///< for value and bound, in JSON and on stderr

    static Gate
    floor(std::string name, double value, double bound, int decimals)
    {
        return {std::move(name), value, bound, true, decimals};
    }
    static Gate
    limit(std::string name, double value, double bound, int decimals)
    {
        return {std::move(name), value, bound, false, decimals};
    }
    bool pass() const { return isFloor ? value >= bound : value <= bound; }
};

/**
 * Print `<prog>: all gates passed` to stdout, or `<prog>: GATE FAILURE
 * (...)` naming each failed gate to stderr. Returns the exit code.
 */
int gateVerdict(const std::string &prog, const std::vector<Gate> &gates);

/**
 * Builds one JSON object. The top-level object is open from the start;
 * object()/array() open a nested container (no key inside an array)
 * and end() closes it.
 */
class JsonWriter
{
  public:
    /** A number with fixed @p decimals (null when not finite). */
    JsonWriter &number(const char *key, double v, int decimals);

    /** A boolean, integer or string member. */
    template <typename T>
    JsonWriter &
    field(const char *key, const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return put(key, v ? "true" : "false");
        else if constexpr (std::is_integral_v<T>)
            return put(key, std::to_string(v));
        else
            return put(key, quote(v));
    }

    JsonWriter &object(const char *key = nullptr) { return open(key, '}'); }
    JsonWriter &array(const char *key) { return open(key, ']'); }
    JsonWriter &end();

    /** The finished document; every nested container must be closed. */
    std::string str() const;

    /** Write str() to @p path; false when the file cannot be written. */
    bool save(const std::string &path) const;

  private:
    static std::string quote(const std::string &s);
    JsonWriter &put(const char *key, const std::string &raw);
    JsonWriter &open(const char *key, char closer);

    std::string _out = "{";
    std::string _closers = "}"; ///< one closing bracket per open level
    bool _first = true;         ///< the innermost container is empty
};

/**
 * Append `"gates"` and `"pass"` to @p json, write it to @p path and
 * print `<what> written to <path>` and the gate verdict. An empty
 * @p path (no `--json=` given) writes nothing, so a bench run never
 * overwrites a file it was not pointed at. Returns 0, or 1 when a
 * gate failed or the file could not be written.
 */
int finishReport(const std::string &prog, JsonWriter &json,
                 const std::vector<Gate> &gates, const std::string &path,
                 const char *what);

/** Every number of a JSON document by dotted path: `wave.makespanMs`,
 *  and array elements by index, `points.0.iops`. */
using JsonNumbers = std::map<std::string, double>;

/** Parse @p text into @p out; "" on success, else a message naming the
 *  byte offset of the first malformed input. */
std::string parseJson(const std::string &text, JsonNumbers &out);

/** Read and parse the file at @p path; "" on success. */
std::string readJson(const std::string &path, JsonNumbers &out);

} // namespace bms::harness

#endif // BMS_HARNESS_BENCH_REPORT_HH
