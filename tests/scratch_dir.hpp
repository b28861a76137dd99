/**
 * @file
 * A scratch directory for one test, removed when the test's scope
 * ends: at the last line, at a failed ASSERT's early return, or when
 * an exception unwinds it.
 */

#ifndef FT_TESTS_SCRATCH_DIR_HPP
#define FT_TESTS_SCRATCH_DIR_HPP

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

namespace fasttrack {

/** ft_<leaf>_<pid> under the test temp root, so two ft_tests runs side
 *  by side never share one. It starts empty and is not created: the
 *  code under test makes it, as it would in real use. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &leaf)
        : path_(testing::TempDir() + "ft_" + leaf + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

inline std::vector<std::uint8_t>
readAllBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

inline void
writeAllBytes(const std::string &path,
              const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

} // namespace fasttrack

#endif // FT_TESTS_SCRATCH_DIR_HPP
