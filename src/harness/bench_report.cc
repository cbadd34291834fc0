#include "harness/bench_report.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness/runner.hh"
#include "sim/check.hh"
#include "sim/lane_audit.hh"
#include "sim/log.hh"

namespace bms::harness {

namespace {

/** Destination of --lane-audit-out= (atexit handlers cannot capture). */
std::string g_laneAuditPath;
std::string g_laneAuditProg;

void
writeLaneCensus()
{
    if (!sim::LaneAudit::instance().writeJson(g_laneAuditPath,
                                              g_laneAuditProg)) {
        std::fprintf(stderr, "lane-audit: cannot write %s\n",
                     g_laneAuditPath.c_str());
    }
}

} // namespace

Flags::Flags(std::string prog) : _prog(std::move(prog))
{
    flag("--paranoid", _paranoid);
    custom("--log", "LEVEL", [this](const char *v) {
        // sim::LogLevel numbers the levels 1..4 in this order.
        const char *names[] = {"warn", "info", "debug", "trace"};
        for (int i = 0; i < 4; ++i) {
            if (std::strcmp(v, names[i]) == 0) {
                _logLevel = i + 1;
                return true;
            }
        }
        return false;
    });
    text("--lane-audit-out", _laneAuditOut);
}

Flags &
Flags::custom(const char *name, const char *meta,
              std::function<bool(const char *)> set)
{
    _specs.push_back({name, meta, std::move(set)});
    return *this;
}

Flags &
Flags::flag(const char *name, bool &out, bool value)
{
    return custom(name, "", [&out, value](const char *) {
        out = value;
        return true;
    });
}

Flags &
Flags::number(const char *name, double &out)
{
    return custom(name, "X", [&out](const char *v) {
        char *end = nullptr;
        double d = std::strtod(v, &end);
        bool ok = end != v && *end == '\0' && std::isfinite(d) &&
                  !std::isspace(static_cast<unsigned char>(*v));
        if (ok)
            out = d;
        return ok;
    });
}

Flags &
Flags::text(const char *name, std::string &out)
{
    return custom(name, "PATH", [&out](const char *v) {
        out = v;
        return true;
    });
}

bool
Flags::parseUnsigned(const char *s, std::uint64_t &out)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 0);
    bool ok = std::isdigit(static_cast<unsigned char>(*s)) && *end == '\0' &&
              errno != ERANGE;
    if (ok)
        out = v;
    return ok;
}

std::string
Flags::tryParse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        auto spec = std::find_if(_specs.begin(), _specs.end(),
                                 [&](const Spec &s) { return s.name == name; });
        bool valued = eq != std::string::npos;
        if (spec == _specs.end())
            return "unknown flag '" + arg + "'";
        if (valued == spec->meta.empty())
            return "'" + name + "' " +
                   (valued ? "takes no value" : "needs =" + spec->meta);
        if (!spec->set(valued ? argv[i] + eq + 1 : ""))
            return "bad value in '" + arg + "'";
    }
    return "";
}

void
Flags::parse(int argc, char **argv)
{
    if (std::string err = tryParse(argc, argv); !err.empty())
        fail(err);
    if (_paranoid)
        sim::Check::setParanoid(true);
    if (_logLevel > 0)
        sim::Log::setLevel(static_cast<sim::LogLevel>(_logLevel));
    if (!_laneAuditOut.empty()) {
        // Meaningful in -DBMS_LANE_AUDIT=ON builds; elsewhere the hooks
        // are compiled out and the census is empty.
        g_laneAuditPath = _laneAuditOut;
        g_laneAuditProg = argv[0];
        sim::LaneAudit::instance().enable();
        std::atexit(writeLaneCensus);
    }
}

void
Flags::fail(const std::string &what) const
{
    std::string usage = "usage: " + _prog;
    for (const Spec &s : _specs)
        usage += " [" + s.name + (s.meta.empty() ? "" : "=" + s.meta) + "]";
    std::fprintf(stderr, "%s: %s\n%s\n", _prog.c_str(), what.c_str(),
                 usage.c_str());
    std::exit(2);
}

int
gateVerdict(const std::string &prog, const std::vector<Gate> &gates)
{
    std::string failed;
    for (const Gate &g : gates) {
        if (!g.pass())
            failed += (failed.empty() ? "" : ", ") + g.name + " " +
                      Table::fmt(g.value, g.decimals) +
                      (g.isFloor ? " below floor " : " above limit ") +
                      Table::fmt(g.bound, g.decimals);
    }
    if (!failed.empty()) {
        std::fprintf(stderr, "%s: GATE FAILURE (%s)\n", prog.c_str(),
                     failed.c_str());
        return 1;
    }
    std::printf("%s: all gates passed\n", prog.c_str());
    return 0;
}

std::string
JsonWriter::quote(const std::string &s)
{
    BMS_ASSERT(std::none_of(s.begin(), s.end(),
                            [](unsigned char c) {
                                return c < 0x20 || c == '"' || c == '\\';
                            }),
               "JSON text is plain: no quotes, backslashes or controls");
    return "\"" + s + "\"";
}

JsonWriter &
JsonWriter::put(const char *key, const std::string &raw)
{
    BMS_ASSERT((key != nullptr) == (_closers.back() == '}'),
               "JSON object members need keys, array elements none");
    _out += std::string(_first ? "" : ",") + "\n" +
            std::string(2 * _closers.size(), ' ') +
            (key != nullptr ? quote(key) + ": " : "") + raw;
    _first = false;
    return *this;
}

JsonWriter &
JsonWriter::open(const char *key, char closer)
{
    put(key, closer == '}' ? "{" : "[");
    _closers += closer;
    _first = true;
    return *this;
}

JsonWriter &
JsonWriter::number(const char *key, double v, int decimals)
{
    return put(key, std::isfinite(v) ? Table::fmt(v, decimals) : "null");
}

JsonWriter &
JsonWriter::end()
{
    BMS_ASSERT(_closers.size() > 1, "JSON end() without an open container");
    if (!_first) {
        _out += '\n';
        _out.append(2 * (_closers.size() - 1), ' ');
    }
    _out += _closers.back();
    _closers.pop_back();
    _first = false;
    return *this;
}

std::string
JsonWriter::str() const
{
    BMS_ASSERT_EQ(_closers.size(), 1u, "JSON container left open");
    return _out + (_first ? "}\n" : "\n}\n");
}

bool
JsonWriter::save(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    f << str();
    f.close();
    return !f.fail();
}

int
finishReport(const std::string &prog, JsonWriter &json,
             const std::vector<Gate> &gates, const std::string &path,
             const char *what)
{
    json.object("gates");
    for (const Gate &g : gates) {
        json.object(g.name.c_str())
            .number("value", g.value, g.decimals)
            .number(g.isFloor ? "floor" : "limit", g.bound, g.decimals)
            .field("pass", g.pass())
            .end();
    }
    bool pass = std::all_of(gates.begin(), gates.end(),
                            [](const Gate &g) { return g.pass(); });
    json.end().field("pass", pass);
    bool saved = true;
    if (!path.empty()) {
        saved = json.save(path);
        if (saved)
            std::printf("%s written to %s\n", what, path.c_str());
        else
            std::fprintf(stderr, "%s: cannot write %s\n", prog.c_str(),
                         path.c_str());
    }
    int rc = gateVerdict(prog, gates);
    return saved ? rc : 1;
}

namespace {

/** Recursive-descent JSON validator that records each number under its
 *  dotted path; throws, naming the offset, on malformed input. */
struct JsonScanner
{
    const std::string &s;
    JsonNumbers &out;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error(
            std::string(pos < s.size() ? what : "unexpected end") +
            " at offset " + std::to_string(pos));
    }

    /** The next byte is one of @p set. */
    bool
    at(const char *set) const
    {
        return pos < s.size() && s[pos] != '\0' &&
               std::strchr(set, s[pos]) != nullptr;
    }

    /** Skip blanks; the next byte, or '\0' at the end. */
    char
    peek()
    {
        while (at(" \t\n\r"))
            ++pos;
        return pos < s.size() ? s[pos] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos;
    }

    std::string
    string()
    {
        expect('"');
        std::size_t start = pos;
        for (; pos < s.size() && s[pos] != '"'; ++pos) {
            if (static_cast<unsigned char>(s[pos]) < 0x20)
                fail("control character in string");
            pos += s[pos] == '\\'; // skip the escaped byte
        }
        expect('"');
        return s.substr(start, pos - 1 - start);
    }

    void
    digits()
    {
        if (!at("0123456789"))
            fail("unexpected character");
        while (at("0123456789"))
            ++pos;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    double
    number()
    {
        std::size_t start = pos;
        pos += at("-");
        if (at("0"))
            ++pos;
        else
            digits();
        if (at(".")) {
            ++pos;
            digits();
        }
        if (at("eE")) {
            ++pos;
            pos += at("+-");
            digits();
        }
        return std::strtod(s.substr(start, pos - start).c_str(), nullptr);
    }

    void
    value(const std::string &path, int depth)
    {
        char c = peek();
        if (depth > 64)
            fail("nesting too deep");
        if (c == '{' || c == '[') {
            ++pos;
            for (std::size_t i = 0; peek() != (c == '{' ? '}' : ']'); ++i) {
                if (i > 0)
                    expect(',');
                std::string key = c == '{' ? string() : std::to_string(i);
                if (c == '{')
                    expect(':');
                value(path.empty() ? key : path + "." + key, depth + 1);
            }
            ++pos;
        } else if (c == '"') {
            string();
        } else if (at("-0123456789")) {
            out[path] = number();
        } else if (s.compare(pos, 4, "true") == 0 ||
                   s.compare(pos, 4, "null") == 0) {
            pos += 4;
        } else if (s.compare(pos, 5, "false") == 0) {
            pos += 5;
        } else {
            fail("unexpected character");
        }
    }
};

} // namespace

std::string
parseJson(const std::string &text, JsonNumbers &out)
{
    out.clear();
    try {
        JsonScanner sc{text, out};
        sc.value("", 0);
        sc.peek();
        if (sc.pos < text.size())
            sc.fail("trailing data");
    } catch (const std::runtime_error &err) {
        out.clear();
        return err.what();
    }
    return "";
}

std::string
readJson(const std::string &path, JsonNumbers &out)
{
    std::ifstream f(path, std::ios::binary);
    std::stringstream text;
    if (!f)
        return "cannot read " + path;
    text << f.rdbuf();
    std::string err = parseJson(text.str(), out);
    return err.empty() ? "" : path + ": " + err;
}

} // namespace bms::harness
