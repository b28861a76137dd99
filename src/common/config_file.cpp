#include "common/config_file.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/logging.hpp"

namespace fasttrack {

namespace {

std::string
strip(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

} // namespace

KeyValueFile
KeyValueFile::parse(std::istream &is)
{
    KeyValueFile kv;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::string stripped = strip(line);
        if (stripped.empty())
            continue;
        const auto eq = stripped.find('=');
        if (eq == std::string::npos) {
            FT_FATAL("config line ", line_no,
                     " is not 'key = value': ", stripped);
        }
        const std::string key = strip(stripped.substr(0, eq));
        const std::string value = strip(stripped.substr(eq + 1));
        if (key.empty())
            FT_FATAL("config line ", line_no, " has an empty key");
        kv.values_[key] = value;
    }
    return kv;
}

KeyValueFile
KeyValueFile::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        FT_FATAL("cannot open config file: ", path);
    return parse(in);
}

std::string
KeyValueFile::getString(const std::string &key,
                        const std::string &fallback) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

void
KeyValueFile::refuse(const std::string &message)
{
    std::cerr << message << "\n";
    std::exit(2);
}

} // namespace fasttrack
