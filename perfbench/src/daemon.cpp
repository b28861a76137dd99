#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "report.hpp"

namespace perfbench {

namespace {

constexpr double kStartTimeoutS = 20.0;
constexpr double kStopTimeoutS = 10.0;

} // namespace

bool
Daemon::start(const std::string &ftd_path, std::string &endpoint,
              std::string &error)
{
    stop();
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        error = "pipe failed";
        return false;
    }
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        error = "fork failed";
        return false;
    }
    if (pid == 0) {
        // Child: only async-signal-safe calls until exec.
        prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (getppid() != parent)
            _exit(127);
        dup2(fds[1], STDOUT_FILENO);
        const char *argv[] = {ftd_path.c_str(), "--host", "127.0.0.1",
                              "--port", "0", nullptr};
        execv(ftd_path.c_str(), const_cast<char *const *>(argv));
        _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    out_ = fds[0];

    // Read until the "ftd: listening on HOST:PORT" line.
    const std::string marker = "ftd: listening on ";
    std::string text;
    const auto begin = Clock::now();
    while (secondsSince(begin) < kStartTimeoutS) {
        pollfd pfd{out_, POLLIN, 0};
        if (poll(&pfd, 1, 100) <= 0)
            continue;
        char buf[256];
        const ssize_t got = read(out_, buf, sizeof buf);
        if (got <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(got));
        const std::size_t at = text.find(marker);
        const std::size_t eol = text.find('\n', at);
        if (at != std::string::npos && eol != std::string::npos) {
            endpoint = text.substr(at + marker.size(),
                                   eol - at - marker.size());
            return true;
        }
    }
    error = "ftd did not report a listening address";
    stop();
    return false;
}

long
Daemon::stop()
{
    if (pid_ < 0)
        return 0;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    const auto begin = Clock::now();
    pid_t done = 0;
    while ((done = wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
           secondsSince(begin) < kStopTimeoutS)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (done == 0) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &ru);
    }
    pid_ = -1;
    close(out_);
    out_ = -1;
    return ru.ru_maxrss;
}

} // namespace perfbench
