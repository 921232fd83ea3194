// emxbench_shim — the worker binary handed to emx_sweep / emx_serve as
// --emx-run in traced benchmark runs. It times each worker process from
// start to exit without standing between the pool and the worker:
//
//   1. open a pidfd on itself (close-on-exec);
//   2. fork a watcher that keeps the pidfd;
//   3. exec the real emx_run ($EMXBENCH_WORKER) in place, same pid, same
//      argv — so the pool's SIGUSR1 (checkpoint on demand) and SIGKILL
//      (preemption, timeout) reach the worker itself and need no
//      forwarding;
//   4. the watcher polls the pidfd until the worker is gone, then appends
//      one JSON line {"t0","t1","argv"} to $EMXBENCH_SPANS and exits.
//
// Times are CLOCK_MONOTONIC seconds, the clock run.py's spans use.
#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

namespace {

double mono() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string json_string(const char* s) {
  std::string out = "\"";
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const char* worker = std::getenv("EMXBENCH_WORKER");
  const char* spans = std::getenv("EMXBENCH_SPANS");
  if (worker == nullptr || spans == nullptr) {
    std::fprintf(stderr, "emxbench_shim: EMXBENCH_WORKER and EMXBENCH_SPANS must be set\n");
    return 127;
  }
  const double t0 = mono();
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, ::getpid(), 0));
  if (pidfd >= 0) {
    const pid_t watcher = ::fork();
    if (watcher == 0) {
      pollfd pfd{pidfd, POLLIN, 0};
      while (::poll(&pfd, 1, -1) < 0) {
      }
      const double t1 = mono();
      std::string line = "{\"t0\":" + std::to_string(t0) + ",\"t1\":" +
                         std::to_string(t1) + ",\"argv\":[";
      for (int i = 1; i < argc; ++i) {
        if (i > 1) line += ',';
        line += json_string(argv[i]);
      }
      line += "]}\n";
      const int fd = ::open(spans, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
      if (fd >= 0) {
        const ssize_t n = ::write(fd, line.data(), line.size());
        (void)n;
        ::close(fd);
      }
      ::_exit(0);
    }
  }
  argv[0] = const_cast<char*>(worker);
  ::execv(worker, argv);
  std::perror("emxbench_shim: exec");
  return 127;
}
