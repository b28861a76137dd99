#include "traffic/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hpp"

namespace fasttrack {

std::string
Trace::validationError() const
{
    if (n < 2)
        return "trace torus side must be >= 2";
    // Takes the index by value, so the loop keeps its own in a
    // register; the text is built only on failure.
    const auto fail = [this](std::size_t i, auto... what) {
        return detail::concat("trace ", name, ": message ", i, what...);
    };
    const std::uint64_t nodes = std::uint64_t{n} * n;
    for (std::size_t i = 0; i < messages.size(); ++i) {
        const TraceMessage &m = messages[i];
        if (m.id != i)
            return fail(i, " has id ", m.id);
        if (m.src >= nodes || m.dst >= nodes)
            return fail(i, " references node outside ", n, "x", n);
        for (std::uint64_t dep : m.deps) {
            if (dep >= m.id)
                return fail(i, " depends on id ", dep,
                            " (deps must reference earlier messages)");
        }
    }
    return "";
}

void
Trace::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        FT_FATAL(error);
}

void
Trace::save(std::ostream &os) const
{
    os << "# fasttrack-trace v1\n";
    os << "name " << (name.empty() ? "unnamed" : name) << "\n";
    os << "n " << n << "\n";
    os << "messages " << messages.size() << "\n";
    for (const TraceMessage &m : messages) {
        os << m.id << " " << m.src << " " << m.dst << " " << m.earliest
           << " " << m.delayAfterDeps << " " << m.deps.size();
        for (std::uint64_t dep : m.deps)
            os << " " << dep;
        os << "\n";
    }
}

Trace
Trace::load(std::istream &is)
{
    Trace trace;
    std::string line;
    std::size_t expected = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        if (word == "name") {
            ls >> trace.name;
        } else if (word == "n") {
            ls >> trace.n;
        } else if (word == "messages") {
            // Checked against the lines read, never trusted up front.
            ls >> expected;
        } else {
            TraceMessage m;
            std::uint64_t ndeps = 0;
            std::istringstream ms(line);
            if (!(ms >> m.id >> m.src >> m.dst >> m.earliest >>
                  m.delayAfterDeps >> ndeps)) {
                FT_FATAL("malformed trace line: ", line);
            }
            // The count is bounded by the ids the line actually holds.
            for (std::uint64_t dep = 0;
                 m.deps.size() < ndeps && ms >> dep;)
                m.deps.push_back(dep);
            if (m.deps.size() != ndeps)
                FT_FATAL("malformed trace deps: ", line);
            trace.messages.push_back(std::move(m));
        }
    }
    if (expected != 0 && trace.messages.size() != expected) {
        FT_FATAL("malformed trace: declared ", expected,
                 " messages but contains ", trace.messages.size());
    }
    trace.validate();
    return trace;
}

} // namespace fasttrack
