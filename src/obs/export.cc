#include "obs/export.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <locale>
#include <ostream>
#include <vector>

#include "common/logging.hh"

namespace preempt::obs {

namespace {

/** Fixed-point microseconds (3 decimals) from nanoseconds: Chrome
 *  trace "ts" is in us; integer math keeps the output deterministic. */
void
writeTsUs(std::ostream &os, std::uint64_t ns)
{
    os << ns / 1000 << '.';
    std::uint64_t frac = ns % 1000;
    os << static_cast<char>('0' + frac / 100)
       << static_cast<char>('0' + frac / 10 % 10)
       << static_cast<char>('0' + frac % 10);
}

void
writeEvent(std::ostream &os, const TraceRecord &r, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"name\": \""
       << kindName(static_cast<EventKind>(r.kind))
       << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": " << r.epoch
       << ", \"tid\": " << r.core << ", \"ts\": ";
    writeTsUs(os, r.ts);
    os << ", \"args\": {\"id\": " << r.id << ", \"a0\": " << r.a0
       << ", \"a1\": " << r.a1 << "}}";
}

void
writeMeta(std::ostream &os, const char *what, std::uint32_t pid,
          std::int64_t tid, const std::string &name, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"name\": \"" << what << "\", \"ph\": \"M\", \"pid\": "
       << pid;
    if (tid >= 0)
        os << ", \"tid\": " << tid;
    os << ", \"args\": {\"name\": \"" << name << "\"}}";
}

} // namespace

void
writeChromeTrace(const Tracer &tracer, std::ostream &os)
{
    // Byte-stable on any host: integer rendering must not pick up
    // grouping separators from an ambient std::locale::global().
    os.imbue(std::locale::classic());

    // Gather rings in core order, then stable-sort by (epoch, ts,
    // core): same-seed runs emit identical record sets in identical
    // ring order, so the output is byte-stable.
    std::vector<TraceRecord> records;
    std::vector<bool> coreUsed(tracer.cores(), false);
    for (std::uint32_t c = 0; c < tracer.cores(); ++c) {
        if (!tracer.hasRing(c))
            continue;
        for (const TraceRecord &r : tracer.ring(c).snapshot()) {
            records.push_back(r);
            coreUsed[c] = true;
        }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         if (a.epoch != b.epoch)
                             return a.epoch < b.epoch;
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.core < b.core;
                     });

    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;
    const auto &epochs = tracer.epochNames();
    for (std::uint32_t e = 0; e < epochs.size(); ++e) {
        writeMeta(os, "process_name", e, -1, epochs[e], first);
        for (std::uint32_t c = 0; c < tracer.cores(); ++c) {
            if (coreUsed[c])
                writeMeta(os, "thread_name", e, c,
                          "core " + std::to_string(c), first);
        }
    }
    for (const TraceRecord &r : records)
        writeEvent(os, r, first);
    // Top-level metadata (Chrome trace JSON allows extra keys): ring
    // losses, so a consumer can tell a complete trace from one whose
    // head was overwritten (drop-oldest) or that lost records to
    // out-of-range core ids.
    os << "\n], \"metadata\": {\"records\": " << records.size()
       << ", \"dropped_overwritten\": " << tracer.totalDropped()
       << ", \"dropped_out_of_range\": " << tracer.droppedOutOfRange()
       << "}}\n";
}

void
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open trace output '%s'", path.c_str());
    writeChromeTrace(tracer, out);
}

void
writeMetricsJson(const MetricsRegistry &registry, const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open metrics output '%s'", path.c_str());
    out << registry.toJson();
}

// ----- minimal JSON validator ---------------------------------------

namespace {

/** Recursive-descent checker over a string view. */
class JsonChecker
{
  public:
    JsonChecker(const std::string &text, std::string *err)
        : s_(text), err_(err)
    {
    }

    bool
    run()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters");
        return true;
    }

  private:
    bool
    fail(const char *why)
    {
        if (err_ && err_->empty())
            *err_ = std::string(why) + " at offset " +
                    std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool eof() const { return pos_ >= s_.size(); }
    char peek() const { return s_[pos_]; }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool
    value()
    {
        if (++depth_ > 256)
            return fail("nesting too deep");
        bool ok = valueInner();
        --depth_;
        return ok;
    }

    bool
    valueInner()
    {
        if (eof())
            return fail("unexpected end");
        switch (peek()) {
          case '{': return sequence(true);
          case '[': return sequence(false);
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    /** '{' members '}' (keyed) or '[' values ']'. */
    bool
    sequence(bool keyed)
    {
        const char close = keyed ? '}' : ']';
        ++pos_; // '{' or '['
        skipWs();
        if (!eof() && peek() == close) {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (keyed) {
                if (eof() || peek() != '"')
                    return fail("expected object key");
                if (!string())
                    return false;
                skipWs();
                if (eof() || peek() != ':')
                    return fail("expected ':'");
                ++pos_;
                skipWs();
            }
            if (!value())
                return false;
            skipWs();
            if (eof())
                return fail(keyed ? "unterminated object"
                                  : "unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == close) {
                ++pos_;
                return true;
            }
            return fail(keyed ? "expected ',' or '}'"
                              : "expected ',' or ']'");
        }
    }

    bool
    string()
    {
        ++pos_; // '"'
        while (!eof()) {
            char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (eof())
                    return fail("bad escape");
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (eof() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_])))
                            return fail("bad \\u escape");
                    }
                } else if (e != '"' && e != '\\' && e != '/' &&
                           e != 'b' && e != 'f' && e != 'n' &&
                           e != 'r' && e != 't') {
                    return fail("bad escape");
                }
                ++pos_;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            ++pos_;
        }
        return fail("unterminated string");
    }

    /** Consume a run of digits; false if there was none. */
    bool
    digits()
    {
        std::size_t start = pos_;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        return pos_ > start;
    }

    bool
    number()
    {
        if (peek() == '-')
            ++pos_;
        if (!eof() && peek() == '0')
            ++pos_;
        else if (!digits())
            return fail("bad number");
        if (!eof() && peek() == '.') {
            ++pos_;
            if (!digits())
                return fail("bad fraction");
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (!digits())
                return fail("bad exponent");
        }
        return true;
    }

    const std::string &s_;
    std::string *err_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
validateJson(const std::string &text, std::string *err)
{
    if (err)
        err->clear();
    return JsonChecker(text, err).run();
}

} // namespace preempt::obs
