#include "telemetry/metrics.hpp"

#include <set>

namespace fasttrack::telemetry {

std::uint64_t &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

double &
MetricsRegistry::gauge(const std::string &name)
{
    return gauges_[name];
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return hists_[name];
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::snapshot(Cycle now)
{
    Epoch e;
    e.cycle = now;
    for (const auto &[name, value] : counters_)
        e.values[name] = static_cast<double>(value);
    for (const auto &[name, value] : gauges_)
        e.values[name] = value;
    epochs_.push_back(std::move(e));
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    // Column set: union of names across epochs, in name order, so a
    // metric created mid-run still lines up (absent = 0).
    std::set<std::string> names;
    for (const Epoch &e : epochs_) {
        for (const auto &[name, value] : e.values)
            names.insert(name);
    }
    os << "cycle";
    for (const std::string &name : names)
        os << ',' << name;
    os << '\n';
    for (const Epoch &e : epochs_) {
        os << e.cycle;
        for (const std::string &name : names) {
            const auto it = e.values.find(name);
            os << ','
               << (it == e.values.end() ? 0.0 : it->second);
        }
        os << '\n';
    }
}

void
MetricsRegistry::writeSummary(std::ostream &os) const
{
    os << "metric,kind,value\n";
    for (const auto &[name, value] : counters_)
        os << name << ",counter," << value << '\n';
    for (const auto &[name, value] : gauges_)
        os << name << ",gauge," << value << '\n';
    for (const auto &[name, h] : hists_) {
        os << name << ".count,histogram," << h.count() << '\n';
        os << name << ".mean,histogram," << h.mean() << '\n';
        os << name << ".p50,histogram," << h.percentileLerp(50) << '\n';
        os << name << ".p95,histogram," << h.percentileLerp(95) << '\n';
        os << name << ".p99,histogram," << h.percentileLerp(99) << '\n';
        os << name << ".max,histogram," << h.max() << '\n';
    }
}

} // namespace fasttrack::telemetry
