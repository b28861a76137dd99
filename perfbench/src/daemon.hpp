/**
 * @file
 * One loopback ftd daemon as a child process: started on an ephemeral
 * port, stopped with SIGTERM and reaped. The child is also bound to
 * this process's lifetime (PR_SET_PDEATHSIG), so a benchmark that
 * dies mid-run leaves no daemon behind.
 */

#ifndef PERFBENCH_DAEMON_HPP
#define PERFBENCH_DAEMON_HPP

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Start @p ftd_path on 127.0.0.1, port 0, and wait until it
     *  prints its listening address into @p endpoint ("host:port").
     *  False (with @p error) when it cannot start in time. */
    bool start(const std::string &ftd_path, std::string &endpoint,
               std::string &error);

    /** SIGTERM the daemon and reap it; returns its peak resident set
     *  in KiB (0 when none was running). */
    long stop();

  private:
    pid_t pid_ = -1;
    /** Read end of the daemon's stdout; kept open until it exits so
     *  its shutdown message never meets a closed pipe. */
    int out_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HPP
