#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

/** Shortest round-tripping text of @p v (all its digits). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g",
                  std::numeric_limits<double>::max_digits10, v);
    return buf;
}

/** JSON string literal; names and units here are plain ASCII. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void
Metrics::add(std::string name, double value, std::string unit)
{
    entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string
Metrics::json(bool correct, std::uint64_t attempted,
              std::uint64_t failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        os << (i ? ", " : "") << quoted(e.name)
           << ": {\"value\": " << number(e.value)
           << ", \"unit\": " << quoted(e.unit) << "}";
    }
    os << "}}";
    return os.str();
}

SpanLog::Id
SpanLog::open(std::string name, Id parent)
{
    const auto now = Clock::now();
    return add(std::move(name), parent, now, now);
}

void
SpanLog::close(Id id, Args args)
{
    Span &span = spans_[id - 1];
    span.endNs = nsBetween(origin_, Clock::now());
    span.args = std::move(args);
}

SpanLog::Id
SpanLog::add(std::string name, Id parent, Clock::time_point start,
             Clock::time_point end, Args args)
{
    spans_.push_back({std::move(name), parent, nsBetween(origin_, start),
                      nsBetween(origin_, end), std::move(args)});
    return static_cast<Id>(spans_.size());
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\": " << quoted(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << number(static_cast<double>(s.startNs) / 1e3)
           << ", \"dur\": "
           << number(static_cast<double>(s.endNs - s.startNs) / 1e3)
           << ", \"args\": {\"id\": " << i + 1
           << ", \"parent\": " << s.parent;
        for (const auto &[key, value] : s.args)
            os << ", " << quoted(key) << ": " << number(value);
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
