#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;

namespace hompresd_bench {

namespace {

bool CanConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const bool ok = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

double Seconds(const struct timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

}  // namespace

Daemon::~Daemon() { Stop(); }

bool Daemon::Start(const std::string& binary, const std::string& socket_path,
                   double timeout_s, std::string* error) {
  struct sockaddr_un probe;
  if (socket_path.size() >= sizeof(probe.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return false;
  }
  ::unlink(socket_path.c_str());
  // The daemon's banner and shutdown summary go to /dev/null: the
  // benchmark owns stdout.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<std::string> args = {binary, "--socket", socket_path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return false;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!CanConnect(socket_path)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "hompresd exited during start-up";
      return false;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      *error = "hompresd socket not up in time";
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

bool Daemon::Stop() {
  if (pid_ < 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  struct rusage usage {};
  bool exited = false;
  for (int i = 0; i < 1000; ++i) {  // 10 s grace
    if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  exit_cpu_s_ = Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::PeakRssMib() const {
  if (pid_ < 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double Daemon::CpuSeconds() const {
  if (pid_ < 0) return 0;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text;
  std::getline(stat, text);
  // Fields after the parenthesized command name start at field 3
  // (state); utime and stime are fields 14 and 15.
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(text.substr(paren + 1));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace hompresd_bench
