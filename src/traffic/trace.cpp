#include "traffic/trace.hpp"

#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

namespace fasttrack {

namespace {

/** Read the one value a header line holds after its keyword; false
 *  on anything else. */
template <typename T>
bool
headerValue(std::istream &ls, T &value)
{
    std::string extra;
    return ls >> value && !(ls >> extra);
}

} // namespace

void
Trace::reserve(std::size_t message_count, std::size_t dep_count)
{
    messages.reserve(message_count);
    depsEnd_.reserve(message_count);
    deps_.reserve(dep_count);
}

std::uint64_t
Trace::add(const TraceMessage &message, std::span<const std::uint64_t> deps)
{
    FT_ASSERT(deps.size() <=
                  std::numeric_limits<std::uint32_t>::max() - deps_.size(),
              "trace ", name, " has over 2^32 dependencies; the index is "
              "32-bit");
    deps_.insert(deps_.end(), deps.begin(), deps.end());
    depsEnd_.push_back(static_cast<std::uint32_t>(deps_.size()));
    messages.push_back(message);
    return messages.size() - 1;
}

std::string
Trace::validationError() const
{
    if (n < 2)
        return "trace torus side must be >= 2";
    if (depsEnd_.size() != messages.size()) {
        return detail::concat("trace ", name, ": ", messages.size(),
                              " messages but ", depsEnd_.size(),
                              " added through add()");
    }
    // Takes the index by value, so the loop keeps its own in a
    // register; the text is built only on failure.
    const auto fail = [this](std::size_t i, auto... what) {
        return detail::concat("trace ", name, ": message ", i, what...);
    };
    const std::uint64_t nodes = std::uint64_t{n} * n;
    for (std::size_t i = 0; i < messages.size(); ++i) {
        const TraceMessage &m = messages[i];
        if (m.src >= nodes || m.dst >= nodes)
            return fail(i, " references node outside ", n, "x", n);
        for (std::uint64_t dep : depsOf(i)) {
            if (dep >= i)
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
    forEachMessage([&os](std::uint64_t id, const TraceMessage &m,
                         std::span<const std::uint64_t> deps) {
        os << id;
        visitFields(m, [&os](const auto &...fields) {
            ((os << " " << fields), ...);
        });
        os << " " << deps.size();
        for (std::uint64_t dep : deps)
            os << " " << dep;
        os << "\n";
    });
}

std::string
Trace::load(std::istream &is, Trace &trace)
{
    trace = Trace{};
    std::string line;
    std::optional<std::uint64_t> declared;
    std::vector<std::uint64_t> deps;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        if (word == "name") {
            // The rest of the line: a name may hold spaces.
            std::getline(ls.ignore(1), trace.name);
        } else if (word == "n") {
            if (!headerValue(ls, trace.n))
                return detail::concat("malformed trace line: ", line);
        } else if (word == "messages") {
            // Checked against the lines read, never trusted up front.
            if (!headerValue(ls, declared.emplace()))
                return detail::concat("malformed trace line: ", line);
        } else {
            TraceMessage m;
            std::uint64_t id = 0;
            std::uint64_t ndeps = 0;
            std::istringstream ms(line);
            const bool parsed =
                ms >> id && visitFields(m, [&ms](auto &...fields) {
                    return static_cast<bool>((ms >> ... >> fields));
                }) && ms >> ndeps;
            if (!parsed)
                return detail::concat("malformed trace line: ", line);
            if (id != trace.messages.size())
                return detail::concat("malformed trace: message ",
                                      trace.messages.size(), " has id ", id);
            // The count is bounded by the ids the line actually holds.
            deps.clear();
            for (std::uint64_t dep = 0; deps.size() < ndeps && ms >> dep;)
                deps.push_back(dep);
            std::string extra;
            if (deps.size() != ndeps || ms >> extra)
                return detail::concat("malformed trace deps: ", line);
            trace.add(m, deps);
        }
    }
    if (declared && trace.messages.size() != *declared) {
        return detail::concat("malformed trace: declared ", *declared,
                              " messages but contains ",
                              trace.messages.size());
    }
    return trace.validationError();
}

} // namespace fasttrack
