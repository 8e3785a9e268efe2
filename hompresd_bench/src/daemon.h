// The hompresd process under test: launched from its own binary with
// its shipped defaults, stopped with SIGTERM, and read from outside
// through /proc.

#ifndef HOMPRESD_BENCH_DAEMON_H_
#define HOMPRESD_BENCH_DAEMON_H_

#include <sys/types.h>

#include <string>

namespace hompresd_bench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();  // stops the process if it still runs

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Launches `binary --socket <socket_path>` and waits until the socket
  // accepts connections. False (with *error) on failure or after
  // `timeout_s`.
  bool Start(const std::string& binary, const std::string& socket_path,
             double timeout_s, std::string* error);

  // SIGTERM, then waits for exit (SIGKILL after a grace period). Returns
  // true when the daemon exited with status 0.
  bool Stop();

  // User plus system CPU time of the daemon's whole life, all threads,
  // in seconds, as reported when Stop reaped it (0 before that).
  double ExitCpuSeconds() const { return exit_cpu_s_; }

  // VmHWM of the running daemon in MiB (0 when unreadable).
  double PeakRssMib() const;

  // User plus system CPU time of the running daemon so far, all
  // threads, in seconds at clock-tick resolution (0 when unreadable).
  double CpuSeconds() const;

  pid_t Pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  double exit_cpu_s_ = 0;
};

}  // namespace hompresd_bench

#endif  // HOMPRESD_BENCH_DAEMON_H_
